//! `bench-smoke`: a seconds-scale hot-path regression gate for CI.
//!
//! Runs one PolyBench kernel through the execution-engine ladder — tree
//! interpreter, and the register engine over unfused and fused code —
//! one generator scalar multiplication through both P-256 paths, and one
//! fleet worker-scaling round (1 vs 4 verifier workers), then asserts
//! the optimised paths actually win. A regression in the register
//! engine, the fusion pass, the fixed-base table or the fleet scheduler
//! fails the build loudly, without waiting for the minutes-scale full
//! bench suite. Structural claims (fusion shrinks dispatch, the register
//! pass fires) are gated on deterministic counters; wall-clock gates are
//! kept only where the claim is about time.
//!
//! Set `WATZ_SMOKE_SWEEP=1` to additionally sweep the whole PolyBench
//! suite over unfused and fused register code and print the per-kernel
//! ratios plus their geomean.

use std::time::{Duration, Instant};

use watz_crypto::p256::{AffinePoint, U256};
use watz_fleet::{FleetSim, FleetSimConfig, FleetStats};
use watz_wasm::exec::{ExecMode, Instance, NoHost, Value};
use watz_wasm::ProfileMode;

fn median(reps: usize, mut f: impl FnMut()) -> Duration {
    let mut samples: Vec<Duration> = (0..reps)
        .map(|_| {
            let t = Instant::now();
            f();
            t.elapsed()
        })
        .collect();
    samples.sort();
    samples[samples.len() / 2]
}

/// Instantiates on the register engine with fusion explicitly on/off.
fn engine(module: &watz_wasm::Module, fuse: bool) -> Instance {
    Instance::instantiate_with_fusion(module, ExecMode::Aot, fuse, &mut NoHost)
        .expect("kernel instantiates")
}

/// Instantiates on the register engine with counting on.
fn counted(module: &watz_wasm::Module, fuse: bool) -> Instance {
    Instance::instantiate_with_profile(
        module,
        ExecMode::Aot,
        fuse,
        true,
        ProfileMode::Count,
        &mut NoHost,
    )
    .expect("profiled kernel instantiates")
}

fn time_kernel(inst: &mut Instance, n: i32, reps: usize) -> Duration {
    median(reps, || {
        std::hint::black_box(
            inst.invoke(&mut NoHost, "kernel", &[Value::I32(n)])
                .unwrap(),
        );
    })
}

/// On a gate failure, re-runs the kernel with counting enabled on every
/// rung and dumps each [`watz_wasm::ExecProfile`], so a failed CI run
/// carries the observability data needed to localize the regression.
fn dump_exec_profiles(module: &watz_wasm::Module, n: i32) {
    eprintln!("--- per-rung execution profiles for the failed gate (n={n}) ---");
    let rungs = [
        ("tree", false, false),
        ("unfused register", false, true),
        ("fused register", true, true),
    ];
    for (label, fuse, reg) in rungs {
        let Ok(mut inst) = Instance::instantiate_with_profile(
            module,
            ExecMode::Aot,
            fuse,
            reg,
            ProfileMode::Count,
            &mut NoHost,
        ) else {
            eprintln!("  {label}: failed to instantiate");
            continue;
        };
        let _ = inst.invoke(&mut NoHost, "kernel", &[Value::I32(n)]);
        match inst.profile() {
            Some(p) => eprintln!("  {label}:\n{p}"),
            None => eprintln!("  {label}: no profile recorded"),
        }
    }
}

/// Dumps fleet counters on a worker-scaling gate failure.
fn dump_fleet_stats(label: &str, stats: &FleetStats) {
    eprintln!("--- fleet stats for the failed gate ({label}) ---");
    eprintln!(
        "  accepted {}  served {}  rejected {}  malformed {}  timed-out {}  disconnected {}  shed {}",
        stats.accepted,
        stats.served,
        stats.rejected,
        stats.malformed,
        stats.timed_out,
        stats.disconnected,
        stats.shed
    );
    eprintln!(
        "  appraised {} in {} appraisal batches, {} msg1 batches ({} world switches)",
        stats.appraised,
        stats.appraisal_batches,
        stats.msg1_batches,
        stats.msg1_batches + stats.appraisal_batches
    );
}

fn sweep_suite() {
    // Match the fig5 problem size so the sweep is comparable with
    // `BENCH_fig5_polybench.json`.
    let n = watz_bench::scale(24) as i32;
    let r = watz_bench::reps(7);
    println!("=== unfused vs fused register code, full PolyBench suite (n={n}) ===");
    let mut log_fuse = 0.0f64;
    let mut count = 0usize;
    for kernel in workloads::polybench::suite() {
        let wasm = minic::compile(kernel.minic).expect("kernel compiles");
        let module = watz_wasm::load(&wasm).expect("kernel loads");
        let mut unfused = engine(&module, false);
        let mut fused = engine(&module, true);
        let args = [Value::I32(n)];
        let out_unfused = unfused.invoke(&mut NoHost, "kernel", &args).unwrap();
        let out_fused = fused.invoke(&mut NoHost, "kernel", &args).unwrap();
        assert_eq!(
            out_fused, out_unfused,
            "fusion changes {} results",
            kernel.name
        );
        let t_unfused = time_kernel(&mut unfused, n, r);
        let t_fused = time_kernel(&mut fused, n, r);
        let fuse_ratio = t_unfused.as_secs_f64() / t_fused.as_secs_f64();
        log_fuse += fuse_ratio.ln();
        count += 1;
        println!(
            "  {:<18} unfused-reg {:>10.2?}  fused-reg {:>10.2?}  fuse {fuse_ratio:.2}x",
            kernel.name, t_unfused, t_fused
        );
    }
    let geo_fuse = (log_fuse / count as f64).exp();
    println!("  geomean over {count} kernels: fusion {geo_fuse:.2}x");
}

fn main() {
    println!("{}", watz_bench::host_info());

    // --- Wasm: one mid-size kernel across the whole engine ladder. ---
    let kernel = workloads::polybench::by_name("gemm").expect("gemm in suite");
    let wasm = minic::compile(kernel.minic).expect("kernel compiles");
    let module = watz_wasm::load(&wasm).expect("kernel loads");
    let n = 16i32;

    let mut reg = engine(&module, true);
    let mut unfused = engine(&module, false);
    let mut tree = Instance::instantiate(&module, ExecMode::Interpreted, &mut NoHost).unwrap();
    let args = [Value::I32(n)];
    let out_reg = reg.invoke(&mut NoHost, "kernel", &args).unwrap();
    let out_unfused = unfused.invoke(&mut NoHost, "kernel", &args).unwrap();
    let out_tree = tree.invoke(&mut NoHost, "kernel", &args).unwrap();
    assert_eq!(out_reg, out_tree, "engines disagree on gemm({n})");
    assert_eq!(out_reg, out_unfused, "fusion changes gemm({n}) results");
    let stats = reg.fusion_stats().expect("compiled instance reports stats");
    assert!(stats.total() > 0, "fusion emitted nothing for gemm");
    assert_eq!(
        unfused.fusion_stats().map(|s| s.total()),
        Some(0),
        "unfused instance must not fuse"
    );

    let t_reg = time_kernel(&mut reg, n, 5);
    let t_tree = median(5, || {
        std::hint::black_box(
            tree.invoke(&mut NoHost, "kernel", &[Value::I32(n)])
                .unwrap(),
        );
    });
    let wasm_speedup = t_tree.as_secs_f64() / t_reg.as_secs_f64();
    println!("gemm({n}): reg {t_reg:?}  tree {t_tree:?}  speedup {wasm_speedup:.2}x");

    // Fusion and the register pass are structural claims, so they are
    // gated on deterministic counters: fused register code must retire
    // the same guest work in fewer host dispatches than unfused register
    // code, and every register-pass counter must fire.
    let mut unfused_counted = counted(&module, false);
    unfused_counted
        .invoke(&mut NoHost, "kernel", &args)
        .expect("unfused gemm runs");
    let unfused_profile = *unfused_counted.profile().expect("counting profile exists");
    let rstats = reg.reg_stats().expect("register instance reports stats");
    let unfused_rstats = unfused
        .reg_stats()
        .expect("register instance reports stats");
    println!(
        "gemm({n}): register pass: {} stack ops eliminated, {} gets forwarded ({} unfused); {} superinstructions",
        rstats.stack_ops_eliminated,
        rstats.gets_forwarded,
        unfused_rstats.gets_forwarded,
        stats.total()
    );

    // --- Crypto: generator scalar mult, fixed-base table vs generic. ---
    let k = U256::from_hex("bce6faada7179e84f3b9cac2fc632551ffffffff00000000ffffffffffffffff");
    assert_eq!(
        AffinePoint::mul_base(&k),
        AffinePoint::generator().mul_scalar(&k),
        "fixed-base table disagrees with the variable-base window"
    );
    let t_fixed = median(5, || {
        std::hint::black_box(AffinePoint::mul_base(&k));
    });
    let t_generic = median(5, || {
        std::hint::black_box(AffinePoint::generator().mul_scalar(&k));
    });
    let p256_speedup = t_generic.as_secs_f64() / t_fixed.as_secs_f64();
    println!("p256 k*G: fixed {t_fixed:?}  generic {t_generic:?}  speedup {p256_speedup:.2}x");

    // --- Profiling must be free when off: the default instances above
    // run the NoProfile dispatch loops, so they must not be slower than
    // the counting loop beyond timer noise. A failure here means the
    // zero-overhead-when-off monomorphization leaked counting work into
    // the default path.
    let mut reg_counted = counted(&module, true);
    reg_counted
        .invoke(&mut NoHost, "kernel", &args)
        .expect("fused gemm runs");
    let profile = *reg_counted.profile().expect("counting profile exists");
    let t_counted = time_kernel(&mut reg_counted, n, 5);
    println!(
        "gemm({n}): reg+count {t_counted:?}  reg {t_reg:?}  ({} guest instrs, {} host ops, {:.2} ops/instr fused vs {:.2} unfused)",
        profile.instret,
        profile.host_ops,
        profile.ops_per_instr(),
        unfused_profile.ops_per_instr()
    );

    // Gates: a generous margin below the measured time ratios (~10x
    // register vs tree, ~3.9x fixed-base) so CI noise does not flake, but a
    // real regression (the register engine falling back to the tree
    // oracle, the table losing mixed addition) trips them. Engine-gate
    // failures dump per-rung execution profiles first (instret, dispatch
    // ops, class mix), so the CI log localizes the regression without a
    // rerun.
    let gate = |ok: bool, msg: &str| {
        if !ok {
            dump_exec_profiles(&module, n);
            panic!("{msg}");
        }
    };
    gate(
        wasm_speedup > 1.3,
        &format!(
            "register engine no longer clearly beats the tree interpreter ({wasm_speedup:.2}x)"
        ),
    );
    gate(
        profile.instret == unfused_profile.instret,
        &format!(
            "fused and unfused register code retire different guest work ({} vs {})",
            profile.instret, unfused_profile.instret
        ),
    );
    gate(
        profile.host_ops < unfused_profile.host_ops,
        &format!(
            "superinstruction fusion no longer shrinks dispatch ({:.3} vs {:.3} host ops/instr)",
            profile.ops_per_instr(),
            unfused_profile.ops_per_instr()
        ),
    );
    for (name, count) in rstats.counts().iter().chain(&unfused_rstats.counts()) {
        gate(
            *count > 0,
            &format!("register counter '{name}' is zero for gemm"),
        );
    }
    gate(
        t_reg.as_secs_f64() <= t_counted.as_secs_f64() * 1.05,
        &format!(
            "profiling-off path is slower than the counting path ({t_reg:?} vs {t_counted:?}); \
             the default dispatch loop gained profiling work"
        ),
    );
    assert!(
        p256_speedup > 1.8,
        "fixed-base table no longer clearly beats the variable-base window ({p256_speedup:.2}x)"
    );

    // --- Static analysis: the verifier must pass the optimised code and
    // the range analysis must actually discharge bounds checks on gemm.
    // Both instances run with WATZ_VERIFY_IR semantics forced on, so the
    // smoke gate exercises the verifier even when CI env steps don't.
    let mut reg_elided =
        Instance::instantiate_with_analysis(&module, ExecMode::Aot, true, true, true, &mut NoHost)
            .expect("verifier accepts the elided gemm lowering");
    let mut reg_unelided =
        Instance::instantiate_with_analysis(&module, ExecMode::Aot, true, false, true, &mut NoHost)
            .expect("verifier accepts the unelided gemm lowering");
    let vstats = reg_elided.verify_stats().expect("verification ran");
    assert!(vstats.funcs > 0, "verifier saw no functions for gemm");
    assert!(
        vstats.obligations > 0,
        "elided gemm must carry proof obligations for its check-free accesses"
    );
    let astats = reg_elided.range_stats().expect("analysis stats exist");
    assert!(astats.proven() > 0, "range analysis proved nothing on gemm");
    assert!(astats.elided > 0, "no bounds checks elided on gemm");
    let astats_off = reg_unelided.range_stats().expect("analysis stats exist");
    assert_eq!(
        astats_off.elided, 0,
        "elision-off instance must keep every bounds check"
    );
    assert_eq!(
        astats_off.proven(),
        astats.proven(),
        "proof counts must not depend on whether the rewrite runs"
    );
    let out_elided = reg_elided.invoke(&mut NoHost, "kernel", &args).unwrap();
    let out_unelided = reg_unelided.invoke(&mut NoHost, "kernel", &args).unwrap();
    assert_eq!(
        out_elided, out_reg,
        "bounds-check elision changes gemm({n})"
    );
    assert_eq!(
        out_unelided, out_reg,
        "elision-off compile changes gemm({n})"
    );
    let t_elide = time_kernel(&mut reg_elided, n, 5);
    let t_noelide = time_kernel(&mut reg_unelided, n, 5);
    let elide_ratio = t_noelide.as_secs_f64() / t_elide.as_secs_f64();
    println!(
        "gemm({n}): elided {t_elide:?}  checked {t_noelide:?}  ratio {elide_ratio:.2}x  ({} proven: {} interval + {} subsumed, {} elided, {} verify obligations)",
        astats.proven(),
        astats.proven_interval,
        astats.proven_subsumed,
        astats.elided,
        vstats.obligations
    );
    gate(
        t_elide.as_secs_f64() <= t_noelide.as_secs_f64() * 1.10,
        &format!(
            "bounds-check elision made gemm slower ({t_elide:?} elided vs {t_noelide:?} checked); \
             the check-free opcodes regressed the dispatch loop"
        ),
    );

    // --- Fleet: worker scaling must not regress to the polled design. ---
    // The pre-fix service polled one shared queue under a lock, so extra
    // workers *cost* throughput. The event-driven service must scale on
    // multi-core hosts and at worst tread water on 1-2 core ones, where
    // parallel speedup is physically unavailable.
    let sim = FleetSim::boot(FleetSimConfig {
        shards: 1,
        endorsed: 16,
        rogue: 0,
        stale: 0,
        workers_per_shard: 1,
        session_timeout: Duration::from_secs(10),
        port: 7811,
        ..FleetSimConfig::default()
    })
    .expect("fleet sim boots");
    let warm = sim.run_with_workers(1);
    assert_eq!(warm.provisioned, 16, "warm-up round provisions the fleet");
    let best = |workers: usize| {
        let mut best_throughput = 0.0f64;
        let mut best_stats = FleetStats::default();
        for _ in 0..3 {
            let r = sim.run_with_workers(workers);
            assert_eq!(
                r.provisioned, 16,
                "all sessions served at {workers} workers"
            );
            assert_eq!(
                r.stats.accepted,
                r.stats.completed(),
                "every accepted session reaches an outcome"
            );
            if r.throughput() > best_throughput {
                best_throughput = r.throughput();
                best_stats = r.stats;
            }
        }
        (best_throughput, best_stats)
    };
    let (fleet_one, stats_one) = best(1);
    let (fleet_four, stats_four) = best(4);
    let cores = std::thread::available_parallelism().map_or(1, std::num::NonZero::get);
    let fleet_ratio = fleet_four / fleet_one;
    println!(
        "fleet: 1 worker {fleet_one:.0} sessions/s  4 workers {fleet_four:.0} sessions/s  ratio {fleet_ratio:.2}x  ({cores} cores)"
    );
    // A scaling-gate failure dumps both rounds' outcome and batching
    // counters: a jump in timed-out/disconnected or in world switches
    // per appraisal usually names the culprit directly.
    let fleet_gate = |ok: bool, msg: &str| {
        if !ok {
            dump_fleet_stats("1 worker", &stats_one);
            dump_fleet_stats("4 workers", &stats_four);
            panic!("{msg}");
        }
    };
    if cores >= 4 {
        fleet_gate(
            fleet_ratio > 1.6,
            &format!(
                "4 fleet workers must clearly beat 1 on a {cores}-core host ({fleet_ratio:.2}x)"
            ),
        );
    } else {
        fleet_gate(
            fleet_ratio > 0.5,
            &format!(
                "extra fleet workers must not cost throughput on a {cores}-core host ({fleet_ratio:.2}x)"
            ),
        );
    }

    // --- Fleet: load shedding must keep overload latency bounded. ---
    // Offer sessions open-loop at ~3x the single-worker capacity just
    // measured. A service with tight admission caps sheds the excess and
    // keeps p99 (measured from the *scheduled* arrival, so queueing delay
    // counts) near the per-session service time; a service with
    // effectively unbounded caps queues everything and its p99 grows with
    // the backlog. If shedding stops working — BUSY never sent, caps
    // ignored, or the shed reply itself queues behind the backlog — the
    // two runs converge and the gate trips.
    let overload_interval = Duration::from_secs_f64(1.0 / (3.0 * fleet_one));
    let overload = |caps: (usize, usize), port: u16| {
        let sim = FleetSim::boot(FleetSimConfig {
            shards: 1,
            endorsed: 8,
            rogue: 0,
            stale: 0,
            workers_per_shard: 1,
            // Long enough that the server never evicts a queued session
            // mid-round: eviction silence would block the client for the
            // full transport timeout and poison the latency samples.
            session_timeout: Duration::from_secs(30),
            port,
            max_sessions_per_worker: caps.0,
            max_queued_per_worker: caps.1,
            ..FleetSimConfig::default()
        })
        .expect("overload sim boots");
        sim.run_open_loop(&watz_fleet::OpenLoopConfig {
            sessions: 150,
            interval: overload_interval,
            workers: 1,
            client_threads: 8,
        })
    };
    let shedded = overload((2, 2), 7812);
    let unshedded = overload((4096, 4096), 7813);
    let p99_shed = shedded
        .latency_percentile(99.0)
        .expect("shedded run completed some sessions");
    let p99_queue = unshedded
        .latency_percentile(99.0)
        .expect("unshedded run completed some sessions");
    println!(
        "fleet overload ({:.0}/s offered): shedded p99 {p99_shed:?} (shed {})  unshedded p99 {p99_queue:?} (shed {})",
        shedded.offered_rate(),
        shedded.shed,
        unshedded.shed,
    );
    assert!(
        shedded.shed > 0,
        "an overloaded service with tight caps must shed sessions"
    );
    assert_eq!(
        unshedded.shed, 0,
        "caps of 4096 must never trip on a 150-session round"
    );
    assert!(
        shedded.provisioned > 0,
        "shedding must not starve admitted sessions"
    );
    assert!(
        p99_shed < p99_queue,
        "load shedding no longer bounds overload latency \
         (shedded p99 {p99_shed:?} >= unshedded p99 {p99_queue:?})"
    );

    if std::env::var_os("WATZ_SMOKE_SWEEP").is_some() {
        sweep_suite();
    }
    println!("bench-smoke: OK");
}
