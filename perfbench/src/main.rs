//! Command line: `perfbench --workload <name> --seed <n> --seconds <s>
//! --trace <0|1>`.
//!
//! Prints a human-readable report, then one JSON line with the metrics.
//! Writes a run record (seed, host, limits, every named measurement) and,
//! when tracing, the spans, under `.bench_out/` in the working directory.
//! Refuses to run (exit 2) when an environment switch would change the
//! program being measured.

use std::path::Path;
use std::process::ExitCode;

use perfbench::{guarded_env_var, Options, Scale, Workload};

fn parse_args() -> Result<Options, String> {
    let mut workload = None;
    let mut seed = None;
    let mut seconds = None;
    let mut trace = None;
    let mut args = std::env::args().skip(1);
    while let Some(flag) = args.next() {
        let value = args.next().ok_or_else(|| format!("{flag} needs a value"))?;
        match flag.as_str() {
            "--workload" => {
                workload = Some(
                    Workload::parse(&value).ok_or_else(|| format!("unknown workload {value}"))?,
                );
            }
            "--seed" => seed = Some(value.parse::<u64>().map_err(|e| format!("--seed: {e}"))?),
            "--seconds" => {
                let s = value
                    .parse::<f64>()
                    .map_err(|e| format!("--seconds: {e}"))?;
                if !(s > 0.0 && s <= 600.0) {
                    return Err("--seconds must be in (0, 600]".into());
                }
                seconds = Some(s);
            }
            "--trace" => {
                trace = Some(match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err("--trace takes 0 or 1".into()),
                });
            }
            _ => return Err(format!("unknown flag {flag}")),
        }
    }
    Ok(Options {
        workload: workload.ok_or("--workload is required")?,
        seed: seed.ok_or("--seed is required")?,
        seconds: seconds.ok_or("--seconds is required")?,
        trace: trace.unwrap_or(false),
        scale: Scale::Full,
    })
}

fn write_outputs(opts: &Options, outcome: &perfbench::Outcome) -> std::io::Result<()> {
    let dir = Path::new(".bench_out");
    std::fs::create_dir_all(dir)?;
    let stem = format!(
        "{}-seed{}-trace{}",
        opts.workload.name(),
        opts.seed,
        u8::from(opts.trace)
    );
    std::fs::write(
        dir.join(format!("record-{stem}.json")),
        outcome.record_json(opts),
    )?;
    if let Some(tr) = &outcome.tracer {
        tr.write_jsonl(&dir.join(format!("spans-{stem}.jsonl")))?;
    }
    Ok(())
}

fn main() -> ExitCode {
    if let Some(var) = guarded_env_var() {
        eprintln!(
            "perfbench: refusing to run: {var} is set and changes the program being measured"
        );
        return ExitCode::from(2);
    }
    let opts = match parse_args() {
        Ok(o) => o,
        Err(e) => {
            eprintln!("perfbench: {e}");
            return ExitCode::from(2);
        }
    };
    let outcome = match perfbench::run(&opts) {
        Ok(o) if o.attempted > 0 => o,
        Ok(_) => {
            eprintln!("perfbench: no operation was attempted");
            return ExitCode::from(1);
        }
        Err(e) => {
            eprintln!("perfbench: set-up failed: {e}");
            return ExitCode::from(1);
        }
    };
    if let Err(e) = write_outputs(&opts, &outcome) {
        eprintln!("perfbench: cannot write the run record: {e}");
        return ExitCode::from(1);
    }
    print!("{}", outcome.report(&opts));
    println!("{}", outcome.result_json(opts.trace));
    ExitCode::SUCCESS
}
