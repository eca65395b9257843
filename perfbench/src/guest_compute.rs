//! `guest_compute`: every program is loaded during set-up; each operation
//! is one pass over the 30 PolyBench kernels and one Genann training epoch
//! on a fixed Iris slice (batch). Programs run through `WatzApp::invoke`
//! in a seeded order, each invoke followed by the native Rust version of
//! the same program, whose result is the reference. Between passes
//! (untimed) every program is loaded afresh, so each pass starts from the
//! same guest memory.
//!
//! Times are reported at a fixed host speed (see
//! [`guests::reference_ms`]): each invoke's time over its native twin's,
//! times the twin's reference time. `latency_ms.p50` is the geomean over
//! programs of each program's median, `latency_ms.tail` the same over each
//! program's p90, and `throughput_per_s` the guest instructions retired per
//! second of guest time (instructions counted once on a
//! `ProfileMode::Count` instance of the same bytes). The raw times are
//! printed beside them.

use std::time::{Duration, Instant};

use tz_hal::PlatformConfig;
use watz_runtime::{AppConfig, WatzApp, WatzRuntime};
use watz_wasm::exec::{ExecMode, Instance, NoHost, Value};
use watz_wasm::ProfileMode;
use workloads::polybench;

use crate::rng::Rng;
use crate::stats::{geomean, median, percentile};
use crate::trace::Tracer;
use crate::{finish_trace, guests, repeat_setup, Options, Outcome, Scale};

/// Genann learning rate, as the guest's `train` uses.
const GENANN_RATE: f64 = 0.5;

enum Native {
    Kernel(fn(usize) -> f64, usize),
    Genann,
}

struct Program {
    name: &'static str,
    wasm: Vec<u8>,
    export: &'static str,
    args: Vec<Value>,
    native: Native,
}

struct State {
    rt: WatzRuntime,
    programs: Vec<Program>,
    /// `programs[i]` loaded in WaTZ.
    apps: Vec<WatzApp>,
    samples: Vec<genann_rs::iris::Sample>,
}

/// Heap for the Genann guest (Fig 8's 17 MB TA).
const GENANN_HEAP: usize = 17 << 20;

/// Writes the training slice into a Genann guest loaded in WaTZ.
fn feed_genann(app: &mut WatzApp, samples: &[genann_rs::iris::Sample]) -> Result<(), String> {
    let n = i32::try_from(samples.len()).map_err(|e| e.to_string())?;
    let fp = app
        .invoke("buf_alloc", &[Value::I32(n)])
        .map_err(|e| e.to_string())?[0]
        .as_u32();
    let lp = app.invoke("labels_ptr", &[]).map_err(|e| e.to_string())?[0].as_u32();
    let (features, labels) = workloads::genann_guest::flatten(samples);
    app.write_memory(fp, &features).map_err(|e| e.to_string())?;
    app.write_memory(lp, &labels).map_err(|e| e.to_string())
}

/// The same, for a bare engine instance.
fn feed_genann_instance(
    inst: &mut Instance,
    samples: &[genann_rs::iris::Sample],
) -> Result<(), String> {
    let n = i32::try_from(samples.len()).map_err(|e| e.to_string())?;
    let fp = inst
        .invoke(&mut NoHost, "buf_alloc", &[Value::I32(n)])
        .map_err(|e| e.to_string())?[0]
        .as_u32();
    let lp = inst
        .invoke(&mut NoHost, "labels_ptr", &[])
        .map_err(|e| e.to_string())?[0]
        .as_u32();
    let (features, labels) = workloads::genann_guest::flatten(samples);
    let mem = inst.memory_mut();
    mem.write_bytes(fp, &features).map_err(|e| e.to_string())?;
    mem.write_bytes(lp, &labels).map_err(|e| e.to_string())
}

/// Loads a program into WaTZ, ready to invoke (the Genann guest gets
/// its training slice).
fn load(
    rt: &WatzRuntime,
    wasm: &[u8],
    native: &Native,
    samples: &[genann_rs::iris::Sample],
) -> Result<WatzApp, String> {
    let config = match native {
        Native::Kernel(..) => AppConfig::default(),
        Native::Genann => AppConfig {
            heap_bytes: GENANN_HEAP,
            mode: ExecMode::Aot,
        },
    };
    let mut app = rt.load(wasm, &config).map_err(|e| e.to_string())?;
    if matches!(native, Native::Genann) {
        feed_genann(&mut app, samples)?;
    }
    Ok(app)
}

fn setup(opts: &Options) -> Result<State, String> {
    let device = format!("perfbench-guest-compute-{}", opts.seed);
    let rt =
        WatzRuntime::new_device_with(device.as_bytes(), PlatformConfig::with_paper_latencies())
            .map_err(|e| format!("device boot: {e}"))?;
    let kernels = polybench::suite();
    let take = match opts.scale {
        Scale::Full => kernels.len(),
        Scale::Tiny => 2,
    };
    let samples = match opts.scale {
        Scale::Full => guests::genann_samples(),
        Scale::Tiny => genann_rs::iris::dataset_with(5),
    };
    let mut programs = Vec::with_capacity(take + 1);
    for k in kernels.iter().take(take) {
        let n = match opts.scale {
            Scale::Full => {
                guests::kernel_n(k.name).ok_or_else(|| format!("{}: no size", k.name))?
            }
            Scale::Tiny => guests::TINY_N,
        };
        let wasm = guests::kernel_wasm(k)?;
        let native = Native::Kernel(k.native, n as usize);
        programs.push(Program {
            name: k.name,
            wasm,
            export: "kernel",
            args: vec![Value::I32(n)],
            native,
        });
    }
    let wasm = guests::genann_wasm()?;
    let n = i32::try_from(samples.len()).map_err(|e| e.to_string())?;
    programs.push(Program {
        name: "genann",
        wasm,
        export: "train",
        args: vec![Value::I32(n), Value::I32(1)],
        native: Native::Genann,
    });
    Ok(State {
        apps: load_all(&rt, &programs, &samples)?,
        rt,
        programs,
        samples,
    })
}

/// Loads every program into WaTZ.
fn load_all(
    rt: &WatzRuntime,
    programs: &[Program],
    samples: &[genann_rs::iris::Sample],
) -> Result<Vec<WatzApp>, String> {
    programs
        .iter()
        .map(|p| load(rt, &p.wasm, &p.native, samples).map_err(|e| format!("{}: {e}", p.name)))
        .collect()
}

/// Runs the native twin of a program and returns its result.
fn run_native(native: &Native, samples: &[genann_rs::iris::Sample]) -> f64 {
    match native {
        Native::Kernel(f, n) => f(std::hint::black_box(*n)),
        Native::Genann => {
            let mut nn = genann_rs::Genann::new(4, 1, 4, 3);
            for s in samples {
                nn.train(&s.features, &s.one_hot(), GENANN_RATE);
            }
            let data: Vec<(Vec<f64>, Vec<f64>)> = samples
                .iter()
                .map(|s| (s.features.clone(), s.one_hot()))
                .collect();
            nn.mse(&data)
        }
    }
}

/// Guest counters from one invoke on a `ProfileMode::Count` instance.
struct Counts {
    instret: u64,
    host_ops: u64,
    elided: u64,
}

/// Counts one invoke of `p` on a profiling instance of the same bytes.
fn count(p: &Program, samples: &[genann_rs::iris::Sample]) -> Result<Counts, String> {
    let module = watz_wasm::load(&p.wasm).map_err(|e| e.to_string())?;
    let mut inst = Instance::instantiate_with_profile(
        &module,
        ExecMode::Aot,
        true,
        true,
        ProfileMode::Count,
        &mut NoHost,
    )
    .map_err(|e| e.to_string())?;
    if matches!(p.native, Native::Genann) {
        feed_genann_instance(&mut inst, samples)?;
    }
    let before = inst.profile().map_or(0, |p| p.instret);
    let before_ops = inst.profile().map_or(0, |p| p.host_ops);
    let out = inst
        .invoke(&mut NoHost, p.export, &p.args)
        .map_err(|e| e.to_string())?;
    let native = run_native(&p.native, samples);
    if !guests::f64_matches(&out, native) {
        return Err(format!(
            "{}: counting run returned {out:?}, native {native}",
            p.name
        ));
    }
    let prof = inst.profile().ok_or("profiling instance has no profile")?;
    Ok(Counts {
        instret: prof.instret - before,
        host_ops: prof.host_ops - before_ops,
        elided: inst.range_stats().map_or(0, |r| r.elided),
    })
}

fn ms(d: Duration) -> f64 {
    d.as_secs_f64() * 1e3
}

/// Runs the workload.
///
/// # Errors
///
/// A set-up failure.
pub fn run(opts: &Options) -> Result<Outcome, String> {
    let (mut state, setup_times) = repeat_setup(|| setup(opts))?;
    let mut out = Outcome::default();

    // Deterministic guest counts, one profiling run per program (untimed).
    let counts: Vec<Counts> = state
        .programs
        .iter()
        .map(|p| count(p, &state.samples))
        .collect::<Result<_, _>>()?;

    let stats = state.rt.platform().transition_stats();
    let n = state.programs.len();
    // Per program: raw invoke times, and each invoke over its native twin.
    let mut wasm_ms: Vec<Vec<f64>> = vec![Vec::new(); n];
    let mut ratio: Vec<Vec<f64>> = vec![Vec::new(); n];
    let mut pass_ms = Vec::new();
    let mut traced_pass_ms = Vec::new();
    let mut switches = 0u64;
    let mut traced_invokes = 0u64;
    let mut tr = Tracer::new(Instant::now());
    let mut order_rng = Rng::new(opts.seed, "guest_compute/order");
    let mut order: Vec<usize> = (0..n).collect();

    let deadline = Instant::now() + opts.budget();
    let mut op = 0u64;
    while op == 0 || Instant::now() < deadline {
        let traced = opts.trace && op % 2 == 1;
        tr.set_enabled(traced);
        tr.set_op(op);
        op += 1;
        out.attempted += 1;
        order_rng.shuffle(&mut order);

        let mut pass = Vec::with_capacity(n);
        let mut ok = true;
        let root = tr.begin("bench", "op");
        let before = stats.enters();
        for &i in &order {
            let p = &state.programs[i];
            let s = tr.begin("watz-runtime", "WatzApp::invoke");
            let t = Instant::now();
            let result = state.apps[i].invoke(p.export, &p.args);
            let w = t.elapsed();
            tr.end(s);
            tr.phases(s, &[("watz-wasm", "guest code", w)]);
            let s = tr.begin("native", "native twin");
            let t = Instant::now();
            let reference = run_native(&p.native, &state.samples);
            let nt = t.elapsed();
            tr.end(s);
            match result {
                Ok(v) if guests::f64_matches(&v, reference) => pass.push((i, w, nt)),
                Ok(v) => {
                    eprintln!("guest_compute: {}: {v:?}, native {reference}", p.name);
                    out.fail("wrong_result", true);
                    ok = false;
                    break;
                }
                Err(e) => {
                    eprintln!("guest_compute: {}: trap: {e}", p.name);
                    out.fail("trap", false);
                    ok = false;
                    break;
                }
            }
        }
        tr.end(root);
        let pass_switches = stats.enters() - before;
        // The kernels allocate from a bump heap that never frees, so every
        // invoke grows guest memory. Fresh instances after each pass
        // (untimed, the old ones dropped first) give every pass the same
        // memory state.
        state.apps.clear();
        state.apps = load_all(&state.rt, &state.programs, &state.samples)?;
        if !ok {
            continue;
        }
        let total: Duration = pass.iter().map(|(_, w, _)| *w).sum();
        if traced {
            traced_pass_ms.push(ms(total));
            switches += pass_switches;
            traced_invokes += pass.len() as u64;
        } else {
            pass_ms.push(ms(total));
            for (i, w, nt) in pass {
                wasm_ms[i].push(ms(w));
                ratio[i].push(w.as_secs_f64() / nt.as_secs_f64());
            }
        }
    }

    // Guest time at the reference host speed: the median (p90) of each
    // invoke over its twin, times the twin's reference time.
    let reference: Vec<f64> = state
        .programs
        .iter()
        .map(|p| guests::reference_ms(p.name).ok_or_else(|| format!("{}: no reference", p.name)))
        .collect::<Result<_, _>>()?;
    let ratios: Vec<f64> = ratio.iter().map(|r| median(r)).collect();
    let at_ref: Vec<f64> = ratios.iter().zip(&reference).map(|(r, t)| r * t).collect();
    let p90_at_ref: Vec<f64> = ratio
        .iter()
        .zip(&reference)
        .map(|(r, t)| percentile(r, 90.0) * t)
        .collect();
    let raw: Vec<f64> = wasm_ms.iter().map(|v| median(v)).collect();
    let instret: u64 = counts.iter().map(|c| c.instret).sum();
    let per_s = |times_ms: &[f64]| instret as f64 / (times_ms.iter().sum::<f64>() / 1e3);
    let passes = pass_ms.len();

    out.setup_times(&setup_times);
    out.e2e.insert("latency_ms.p50".into(), geomean(&at_ref));
    out.e2e
        .insert("latency_ms.tail".into(), geomean(&p90_at_ref));
    out.e2e.insert("throughput_per_s".into(), per_s(&at_ref));

    out.detail(
        "failed_frac",
        out.failed_frac(),
        "ratio",
        Some(out.attempted as usize),
    );
    out.detail("guest_ms.geomean", geomean(&at_ref), "ms", Some(passes));
    out.detail(
        "guest_ms.p90.geomean",
        geomean(&p90_at_ref),
        "ms",
        Some(passes),
    );
    out.detail("guest_ms.raw.geomean", geomean(&raw), "ms", Some(passes));
    out.detail(
        "wasm_over_native.geomean",
        geomean(&ratios),
        "ratio",
        Some(passes),
    );
    out.detail("pass_ms.raw.p50", median(&pass_ms), "ms", Some(passes));
    out.detail("guest_instr_per_s", per_s(&at_ref), "1/s", Some(passes));
    out.detail("guest_instr_per_s.raw", per_s(&raw), "1/s", Some(passes));
    for (i, p) in state.programs.iter().enumerate() {
        out.detail(
            &format!("guest_ms.{}", p.name),
            at_ref[i],
            "ms",
            Some(ratio[i].len()),
        );
        out.detail(
            &format!("wasm_over_native.{}", p.name),
            ratios[i],
            "ratio",
            Some(ratio[i].len()),
        );
    }

    if opts.trace {
        let host_ops: u64 = counts.iter().map(|c| c.host_ops).sum();
        let elided: u64 = counts.iter().map(|c| c.elided).sum();
        out.layers
            .insert("watz-wasm.instret".into(), instret as f64);
        out.layers.insert(
            "watz-wasm.host_ops_per_instr".into(),
            host_ops as f64 / instret.max(1) as f64,
        );
        out.layers.insert(
            "watz-wasm.ns_per_instr".into(),
            at_ref.iter().sum::<f64>() * 1e6 / instret.max(1) as f64,
        );
        out.layers
            .insert("watz-wasm.bounds_checks_elided".into(), elided as f64);
        out.layers.insert(
            "tz-hal.world_switches".into(),
            switches as f64 / traced_invokes.max(1) as f64,
        );
        for (i, p) in state.programs.iter().enumerate() {
            out.layers.insert(format!("guest_ms.{}", p.name), at_ref[i]);
        }
        finish_trace(&mut out, tr, &traced_pass_ms, &pass_ms);
    }
    out.note("max_generator_threads", 1);
    out.note("max_client_connections", 0);
    out.note("programs", n);
    Ok(out)
}
