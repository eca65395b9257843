//! `cold_start`: each operation loads an app with `WatzRuntime::load` and
//! makes its first `invoke` (batch).
//!
//! Two kinds of app are mixed. The real guests (30 PolyBench kernels, the
//! Genann guest, the WASI-RA guest) repeat, in a seeded order each round.
//! One synthetic Fig 4 app per round is generated before its operation
//! (untimed) at a size of 1–9 "MB" drawn from the seed — a seeded
//! permutation of the nine sizes, so every nine rounds load each size once
//! — with constants that differ per app, so no two share a measurement.
//! `latency_ms.*` come from the real guests, `throughput_per_s` from the
//! synthetic apps (MB of bytecode per second of startup, at the reference
//! host speed: each synthetic load's time is divided by a
//! [`guests::host_slowdown`] calibrated just before it, untimed).

use std::time::{Duration, Instant};

use tz_hal::PlatformConfig;
use watz_runtime::{AppConfig, StartupBreakdown, WatzRuntime};
use watz_wasm::builder::ModuleBuilder;
use watz_wasm::exec::{ExecMode, Instance, NoHost, Value};
use watz_wasm::instr::Instr;
use watz_wasm::types::ValType;
use workloads::polybench;

use crate::rng::Rng;
use crate::stats::{median, percentile};
use crate::trace::Tracer;
use crate::{finish_trace, guests, Options, Outcome, Scale, SetupClock};

/// What a real guest's first invoke must return.
enum Expected {
    /// The native kernel's checksum (to 1e-9 relative).
    Native(f64),
    /// The tree interpreter's result, exactly.
    Oracle(Vec<Value>),
}

struct RealGuest {
    name: &'static str,
    wasm: Vec<u8>,
    export: &'static str,
    args: Vec<Value>,
    expected: Expected,
    heap_bytes: usize,
}

struct State {
    rt: WatzRuntime,
    real: Vec<RealGuest>,
}

/// TA heap for synthetic apps: the trusted OS's 27 MB cap, as Fig 4 uses.
const SYNTHETIC_HEAP: usize = 27 * 1024 * 1024;

fn setup(opts: &Options) -> Result<State, String> {
    let device = format!("perfbench-cold-start-{}", opts.seed);
    let rt =
        WatzRuntime::new_device_with(device.as_bytes(), PlatformConfig::with_paper_latencies())
            .map_err(|e| format!("device boot: {e}"))?;
    let kernels = polybench::suite();
    let take = match opts.scale {
        Scale::Full => kernels.len(),
        Scale::Tiny => 2,
    };
    let mut real = Vec::with_capacity(take + 2);
    for k in kernels.iter().take(take) {
        let native = (k.native)(guests::COLD_START_N as usize);
        if !native.is_finite() {
            return Err(format!("{}: native reference is not finite", k.name));
        }
        real.push(RealGuest {
            name: k.name,
            wasm: guests::kernel_wasm(k)?,
            export: "kernel",
            args: vec![Value::I32(guests::COLD_START_N)],
            expected: Expected::Native(native),
            heap_bytes: AppConfig::default().heap_bytes,
        });
    }
    let genann = guests::genann_wasm()?;
    let genann_args = vec![Value::I32(150)];
    real.push(RealGuest {
        name: "genann",
        expected: Expected::Oracle(guests::oracle(&genann, "buf_alloc", &genann_args)?),
        wasm: genann,
        export: "buf_alloc",
        args: genann_args,
        heap_bytes: 17 << 20,
    });
    let ra = guests::ra_guest_wasm()?;
    real.push(RealGuest {
        name: "wasi-ra",
        expected: Expected::Oracle(guests::oracle(&ra, "set_key_buf", &[])?),
        wasm: ra,
        export: "set_key_buf",
        args: Vec::new(),
        heap_bytes: AppConfig::default().heap_bytes,
    });
    Ok(State { rt, real })
}

/// A synthetic Fig 4 app of `size_mb` "MB" (100 functions of 1200
/// unrolled `i64.add`s per MB), every constant shifted by `offset`.
/// Returns the bytecode and what `main` (the last function) must return,
/// computed here independently of the engine.
fn synthetic_app(size_mb: usize, offset: i64) -> (Vec<u8>, i64) {
    const PER_FUNC: i64 = 1200;
    let mut b = ModuleBuilder::new();
    let ty = b.add_type(&[], &[ValType::I64]);
    let mut main_idx = 0;
    let mut expected = 0i64;
    for f in 0..(size_mb * 100) as i64 {
        let mut code = Vec::with_capacity(PER_FUNC as usize * 2 + 2);
        let first = f + offset;
        code.push(Instr::I64Const(first));
        let mut sum = first;
        for k in 0..PER_FUNC {
            code.push(Instr::I64Const(k + offset));
            code.push(Instr::I64Add);
            sum = sum.wrapping_add(k + offset);
        }
        code.push(Instr::End);
        main_idx = b.add_func(ty, &[], code);
        expected = sum;
    }
    b.export_func("main", main_idx);
    b.add_memory(1, None);
    (b.build(), expected)
}

/// Per-load layer numbers of the traced operations.
#[derive(Default)]
struct LayerSums {
    loads: usize,
    transition: f64,
    world_switches: f64,
    memory_allocation: f64,
    hashing: f64,
    init: f64,
    decode: f64,
    validate: f64,
    instantiate: f64,
    verify_ir: f64,
    first_invoke: f64,
    fusions: f64,
    stack_ops_eliminated: f64,
    accesses_proven: f64,
    unattributed: f64,
}

fn us(d: Duration) -> f64 {
    d.as_secs_f64() * 1e6
}

/// The derived child spans of a `WatzRuntime::load` span.
fn load_phases(b: &StartupBreakdown) -> [(&'static str, &'static str, Duration); 6] {
    [
        ("tz-hal", "transition", b.transition),
        ("optee-sim", "memory allocation", b.memory_allocation),
        ("watz-crypto", "hashing", b.hashing),
        ("watz-wasi", "init", b.init),
        ("watz-wasm", "loading", b.loading),
        ("watz-wasm", "instantiate", b.instantiate),
    ]
}

/// Times `decode`, `validate`, `Instance::instantiate` and
/// `Instance::verify_ir` on the bytes just loaded (outside the operation's
/// timed window) and counts the accesses range analysis proved.
fn probe(tr: &mut Tracer, wasm: &[u8], sums: &mut LayerSums) -> Result<(), String> {
    let root = tr.begin("bench", "probe");
    let result = probe_calls(tr, wasm, sums);
    tr.end(root);
    result
}

fn probe_calls(tr: &mut Tracer, wasm: &[u8], sums: &mut LayerSums) -> Result<(), String> {
    let t = Instant::now();
    let s = tr.begin("watz-wasm", "decode::decode");
    let module = watz_wasm::decode::decode(wasm).map_err(|e| e.to_string());
    tr.end(s);
    sums.decode += us(t.elapsed());
    let module = module?;
    let t = Instant::now();
    let s = tr.begin("watz-wasm", "validate::validate");
    let valid = watz_wasm::validate::validate(&module).map_err(|e| e.to_string());
    tr.end(s);
    sums.validate += us(t.elapsed());
    valid?;
    let s = tr.begin("watz-wasm", "Instance::instantiate");
    let inst =
        Instance::instantiate(&module, ExecMode::Aot, &mut NoHost).map_err(|e| e.to_string());
    tr.end(s);
    let inst = inst?;
    let t = Instant::now();
    let s = tr.begin("watz-wasm", "Instance::verify_ir");
    let verified = inst.verify_ir();
    tr.end(s);
    sums.verify_ir += us(t.elapsed());
    match verified {
        Some(Ok(_)) => {}
        Some(Err(e)) => return Err(format!("IR verification: {e}")),
        None => return Err("AOT instance has no compiled IR".into()),
    }
    sums.accesses_proven += inst.range_stats().map_or(0, |r| r.proven()) as f64;
    Ok(())
}

/// Runs the workload.
///
/// # Errors
///
/// A set-up failure.
pub fn run(opts: &Options) -> Result<Outcome, String> {
    let (state, mut setups) = SetupClock::first(|| setup(opts), opts.budget())?;
    let mut out = Outcome::default();
    let stats = state.rt.platform().transition_stats();

    let mut order_rng = Rng::new(opts.seed, "cold_start/order");
    let mut size_rng = Rng::new(opts.seed, "cold_start/sizes");
    let offset_base = Rng::new(opts.seed, "cold_start/constants").below(1 << 12) as i64;
    let mut sizes: Vec<usize> = Vec::new();

    // Real-guest startup samples, untraced and traced; synthetic totals.
    let mut startup_ms = Vec::new();
    let mut startup_traced_ms = Vec::new();
    let mut synth_bytes = 0usize;
    let mut synth_secs = 0.0f64;
    let mut synth_ref_secs = 0.0f64;
    let mut synth_loads = 0usize;
    let mut sums = LayerSums::default();
    let mut tr = Tracer::new(Instant::now());

    let deadline = Instant::now() + opts.budget();
    let mut op = 0u64;
    let mut round = 0usize;
    'rounds: loop {
        setups.tick(|| setup(opts))?;
        // One round: every real guest once plus one synthetic app, in a
        // seeded order. `None` marks the synthetic slot.
        let mut slots: Vec<Option<usize>> = (0..state.real.len()).map(Some).collect();
        slots.push(None);
        order_rng.shuffle(&mut slots);
        for slot in slots {
            if Instant::now() >= deadline && op > 0 {
                break 'rounds;
            }
            // Inputs for this operation (untimed).
            let synthetic = match slot {
                Some(_) => None,
                None => {
                    if sizes.is_empty() {
                        sizes = match opts.scale {
                            Scale::Full => (1..=9).collect(),
                            Scale::Tiny => vec![1],
                        };
                        size_rng.shuffle(&mut sizes);
                    }
                    let mb = sizes.pop().expect("refilled above");
                    let offset = 64 + (offset_base + round as i64) % 3900;
                    Some(synthetic_app(mb, offset))
                }
            };
            let (name, wasm, export, args, heap) = match (slot, &synthetic) {
                (Some(i), _) => {
                    let g = &state.real[i];
                    (g.name, &g.wasm, g.export, g.args.as_slice(), g.heap_bytes)
                }
                (None, Some((bytes, _))) => ("synthetic", bytes, "main", &[][..], SYNTHETIC_HEAP),
                (None, None) => unreachable!("synthetic slot always has an app"),
            };
            let slowdown = synthetic.as_ref().map(|_| guests::host_slowdown());
            let traced = opts.trace && op % 2 == 1;
            tr.set_enabled(traced);
            tr.set_op(op);
            op += 1;
            out.attempted += 1;

            let switches_before = stats.enters();
            let root = tr.begin("bench", "op");
            let t = Instant::now();
            let s = tr.begin("watz-runtime", "WatzRuntime::load");
            let loaded = state.rt.load(
                wasm,
                &AppConfig {
                    heap_bytes: heap,
                    mode: ExecMode::Aot,
                },
            );
            tr.end(s);
            let mut app = match loaded {
                Ok(app) => app,
                Err(e) => {
                    tr.end(root);
                    eprintln!("cold_start: {name}: load failed: {e}");
                    out.fail("load_error", false);
                    continue;
                }
            };
            let s2 = tr.begin("watz-runtime", "WatzApp::invoke");
            let result = app.invoke(export, args);
            tr.end(s2);
            let elapsed = t.elapsed();
            tr.end(root);
            let switches = stats.enters() - switches_before;

            let breakdown = app.startup_breakdown();
            tr.phases(s, &load_phases(&breakdown));
            tr.phases(s2, &[("watz-wasm", "first invoke", breakdown.execution)]);

            let ok = match (&result, slot, &synthetic) {
                (Ok(v), Some(i), _) => match &state.real[i].expected {
                    Expected::Native(x) => guests::f64_matches(v, *x),
                    Expected::Oracle(want) => v == want,
                },
                (Ok(v), None, Some((_, want))) => v.as_slice() == [Value::I64(*want)],
                _ => false,
            };
            if let Err(e) = &result {
                eprintln!("cold_start: {name}: trap: {e}");
                out.fail("trap", false);
                continue;
            }
            if !ok {
                eprintln!("cold_start: {name}: wrong result {result:?}");
                out.fail("wrong_result", true);
                continue;
            }

            let ms = elapsed.as_secs_f64() * 1e3;
            match (slot, slowdown) {
                (Some(_), _) if traced => startup_traced_ms.push(ms),
                (Some(_), _) => startup_ms.push(ms),
                (None, Some(slowdown)) if !traced => {
                    synth_bytes += wasm.len();
                    synth_secs += elapsed.as_secs_f64();
                    synth_ref_secs += elapsed.as_secs_f64() / slowdown;
                    synth_loads += 1;
                }
                (None, _) => {}
            }
            if traced {
                sums.loads += 1;
                sums.transition += us(breakdown.transition);
                sums.world_switches += switches as f64;
                sums.memory_allocation += us(breakdown.memory_allocation);
                sums.hashing += us(breakdown.hashing);
                sums.init += us(breakdown.init);
                sums.instantiate += us(breakdown.instantiate);
                sums.first_invoke += us(breakdown.execution);
                sums.fusions += app.fusion_stats().map_or(0, |f| f.total()) as f64;
                sums.stack_ops_eliminated +=
                    app.reg_stats().map_or(0, |r| r.stack_ops_eliminated) as f64;
                sums.unattributed += us(elapsed.saturating_sub(breakdown.total()));
                drop(app);
                if let Err(e) = probe(&mut tr, wasm, &mut sums) {
                    eprintln!("cold_start: {name}: probe failed: {e}");
                    out.fail("probe_error", true);
                }
            }
        }
        round += 1;
    }

    let mb_per = |secs: f64| {
        if secs > 0.0 {
            synth_bytes as f64 / 1e6 / secs
        } else {
            0.0
        }
    };
    let load_mb_per_s = mb_per(synth_ref_secs);
    out.setup_times(setups.times());
    out.e2e.insert("latency_ms.p50".into(), median(&startup_ms));
    out.e2e
        .insert("latency_ms.tail".into(), percentile(&startup_ms, 95.0));
    out.e2e.insert("throughput_per_s".into(), load_mb_per_s);

    out.detail(
        "failed_frac",
        out.failed_frac(),
        "ratio",
        Some(out.attempted as usize),
    );
    out.detail(
        "startup_ms.p50",
        median(&startup_ms),
        "ms",
        Some(startup_ms.len()),
    );
    out.detail(
        "startup_ms.p95",
        percentile(&startup_ms, 95.0),
        "ms",
        Some(startup_ms.len()),
    );
    out.detail("load_mb_per_s", load_mb_per_s, "MB/s", Some(synth_loads));
    out.detail(
        "load_mb_per_s.raw",
        mb_per(synth_secs),
        "MB/s",
        Some(synth_loads),
    );
    out.detail(
        "synthetic_mb_loaded",
        synth_bytes as f64 / 1e6,
        "MB",
        Some(synth_loads),
    );

    if opts.trace {
        let n = sums.loads.max(1) as f64;
        let rows = [
            ("tz-hal.transition_us", sums.transition),
            ("tz-hal.world_switches", sums.world_switches),
            ("watz-runtime.memory_allocation_us", sums.memory_allocation),
            ("watz-crypto.hashing_us", sums.hashing),
            ("watz-wasi.init_us", sums.init),
            ("watz-wasm.decode_us", sums.decode),
            ("watz-wasm.validate_us", sums.validate),
            ("watz-wasm.instantiate_us", sums.instantiate),
            ("watz-wasm.verify_ir_us", sums.verify_ir),
            ("watz-wasm.first_invoke_us", sums.first_invoke),
            ("watz-wasm.fusions", sums.fusions),
            ("watz-wasm.stack_ops_eliminated", sums.stack_ops_eliminated),
            ("watz-wasm.accesses_proven", sums.accesses_proven),
            ("watz-runtime.unattributed_us", sums.unattributed),
        ];
        for (name, total) in rows {
            out.layers.insert(name.into(), total / n);
        }
        finish_trace(&mut out, tr, &startup_traced_ms, &startup_ms);
    }
    out.note("max_generator_threads", 1);
    out.note("max_client_connections", 0);
    out.note("real_guests", state.real.len());
    Ok(out)
}
