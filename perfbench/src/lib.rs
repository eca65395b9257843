//! The WaTZ end-to-end benchmark.
//!
//! Four workloads drive the public APIs of `watz-runtime`, `watz-wasm`,
//! `watz-attestation` and `watz-fleet` on platforms that inject the
//! board's world-switch latency (`PlatformConfig::with_paper_latencies`):
//!
//! * [`cold_start`] — load an app with `WatzRuntime::load` and make its
//!   first `invoke` (real guests that repeat, synthetic Fig 4 apps that
//!   never do);
//! * [`guest_compute`] — PolyBench and Genann guests run through
//!   `WatzApp::invoke`, each interleaved with its native twin;
//! * [`attest_fleet`] — simulated devices attest against a `FleetVerifier`
//!   on a seeded open-loop schedule, then a search finds the highest rate
//!   that meets the latency limit;
//! * [`attested_app`] — a guest attests through WASI-RA against a
//!   `VerifierServer` and checksums a 1 MB secret (closed loop, one
//!   client).
//!
//! Every input is generated from the seed. Every output is checked against
//! an independent reference; a wrong output, a trap, a shed, a timeout or
//! a generator miss counts as a failed operation and its time is dropped.
//!
//! With tracing off a run reports the end-to-end metrics
//! ([`E2E_METRICS`]); with tracing on it interleaves traced and untraced
//! operations and reports the per-layer metrics ([`LAYER_METRICS`]),
//! derived from spans the benchmark records around each public call it
//! makes and from the counters the layers already expose.

#![forbid(unsafe_code)]

pub mod attest_fleet;
pub mod attested_app;
pub mod cold_start;
pub mod guest_compute;
pub mod guests;
pub mod report;
pub mod rng;
pub mod stats;
pub mod trace;

use std::collections::BTreeMap;
use std::time::{Duration, Instant};

pub use report::Outcome;
use trace::Tracer;

/// The workloads, by the name the command line uses.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Workload {
    /// App load plus first invoke.
    ColdStart,
    /// Guest execution against native.
    GuestCompute,
    /// Open-loop fleet attestation.
    AttestFleet,
    /// Closed-loop WASI-RA attestation from inside a guest.
    AttestedApp,
}

impl Workload {
    /// Every workload, in the order `BENCHMARK.json` lists them.
    pub const ALL: [Workload; 4] = [
        Workload::ColdStart,
        Workload::GuestCompute,
        Workload::AttestFleet,
        Workload::AttestedApp,
    ];

    /// The command-line name.
    #[must_use]
    pub fn name(self) -> &'static str {
        match self {
            Workload::ColdStart => "cold_start",
            Workload::GuestCompute => "guest_compute",
            Workload::AttestFleet => "attest_fleet",
            Workload::AttestedApp => "attested_app",
        }
    }

    /// Parses a command-line name.
    #[must_use]
    pub fn parse(name: &str) -> Option<Self> {
        Self::ALL.into_iter().find(|w| w.name() == name)
    }
}

/// Input size: `Full` is what the benchmark measures; `Tiny` is the
/// self-test's smallest version of the same workload.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Scale {
    /// The measured configuration.
    Full,
    /// A few inputs of the smallest size, for the self-test.
    Tiny,
}

/// One benchmark run.
#[derive(Debug, Clone)]
pub struct Options {
    /// What to run.
    pub workload: Workload,
    /// Seed every input is generated from.
    pub seed: u64,
    /// How long the measured part of the run lasts.
    pub seconds: f64,
    /// Interleave traced operations and report per-layer metrics.
    pub trace: bool,
    /// Input size.
    pub scale: Scale,
}

impl Options {
    /// Wall-clock budget of the measured part.
    #[must_use]
    pub fn budget(&self) -> Duration {
        Duration::from_secs_f64(self.seconds.max(0.05))
    }
}

/// How many times each workload's set-up runs; `setup_s` is the median.
pub const SETUP_REPEATS: usize = 5;

/// The end-to-end metrics every workload reports with tracing off, in
/// `BENCHMARK.json` order: `(name, unit)`. What each one means on each
/// workload is tabulated in `perfbench/SPEC.md`.
pub const E2E_METRICS: [(&str, &str); 5] = [
    ("setup_s", "s"),
    ("peak_rss_mb", "MB"),
    ("latency_ms.p50", "ms"),
    ("latency_ms.tail", "ms"),
    ("throughput_per_s", "1/s"),
];

/// The per-layer metrics every workload reports with tracing on, in
/// `BENCHMARK.json` order: `(name, unit)`. A layer a workload never calls
/// reads 0 there. `guest_ms.<program>` rows follow this list, one per
/// [`guests::compute_programs`] entry.
pub const LAYER_METRICS: [(&str, &str); 52] = [
    // cold_start, per load
    ("tz-hal.transition_us", "us"),
    ("tz-hal.world_switches", "count"),
    ("watz-runtime.memory_allocation_us", "us"),
    ("watz-crypto.hashing_us", "us"),
    ("watz-wasi.init_us", "us"),
    ("watz-wasm.decode_us", "us"),
    ("watz-wasm.validate_us", "us"),
    ("watz-wasm.instantiate_us", "us"),
    ("watz-wasm.verify_ir_us", "us"),
    ("watz-wasm.first_invoke_us", "us"),
    ("watz-wasm.fusions", "count"),
    ("watz-wasm.stack_ops_eliminated", "count"),
    ("watz-wasm.accesses_proven", "count"),
    ("watz-runtime.unattributed_us", "us"),
    // guest_compute, per pass over the programs
    ("watz-wasm.instret", "count"),
    ("watz-wasm.host_ops_per_instr", "ratio"),
    ("watz-wasm.ns_per_instr", "ns"),
    ("watz-wasm.bounds_checks_elided", "count"),
    // attest_fleet, per session
    ("watz-attestation.attester.asym_us", "us"),
    ("watz-attestation.attester.keygen_us", "us"),
    ("watz-attestation.attester.sym_us", "us"),
    ("watz-attestation.attester.memory_us", "us"),
    ("optee-sim.net.connect_us", "us"),
    ("optee-sim.net.msg1_wait_us", "us"),
    ("optee-sim.net.msg3_wait_us", "us"),
    ("watz-fleet.accept_to_msg0_us", "us"),
    ("watz-fleet.msg0_to_msg1_us", "us"),
    ("watz-fleet.msg2_to_msg3_us", "us"),
    ("watz-fleet.shed", "count"),
    ("watz-fleet.timed_out", "count"),
    ("watz-fleet.disconnected", "count"),
    ("watz-fleet.msg1_batch_size", "count"),
    ("watz-fleet.appraisal_batch_size", "count"),
    ("tz-hal.world_switches_per_session", "count"),
    ("bench.generator_lateness_ms", "ms"),
    // attested_app, per session
    ("watz-wasi.ra_handshake_us", "us"),
    ("watz-wasi.ra_collect_quote_us", "us"),
    ("watz-wasi.ra_send_quote_us", "us"),
    ("watz-wasi.ra_receive_data_us", "us"),
    ("watz-wasm.digest_us", "us"),
    ("watz-runtime.verifier_served", "count"),
    ("watz-runtime.verifier_rejected", "count"),
    // every workload: span-derived self time per crate and per operation,
    // the share no span covers, and the cost of tracing itself
    ("self_us.tz-hal", "us"),
    ("self_us.optee-sim", "us"),
    ("self_us.watz-crypto", "us"),
    ("self_us.watz-wasm", "us"),
    ("self_us.watz-wasi", "us"),
    ("self_us.watz-attestation", "us"),
    ("self_us.watz-fleet", "us"),
    ("self_us.watz-runtime", "us"),
    ("bench.unattributed_pct", "%"),
    ("bench.trace_overhead_pct", "%"),
];

/// The crates the traced run attributes self time to. A guest export
/// that only wraps one WASI-RA call is attributed to `watz-wasi`.
pub const LAYERS: [&str; 8] = [
    "tz-hal",
    "optee-sim",
    "watz-crypto",
    "watz-wasm",
    "watz-wasi",
    "watz-attestation",
    "watz-fleet",
    "watz-runtime",
];

/// Environment switches that silently change the program under test.
const GUARDED_VARS: [&str; 5] = [
    "WATZ_NO_FUSE",
    "WATZ_NO_REG",
    "WATZ_NO_ELIDE",
    "WATZ_VERIFY_IR",
    "WATZ_PROFILE",
];

/// Returns the first environment variable that would change what is
/// measured: any of [`GUARDED_VARS`] or any `WATZ_BENCH_*`, set to
/// anything at all.
#[must_use]
pub fn guarded_env_var() -> Option<String> {
    std::env::vars_os()
        .filter_map(|(k, _)| k.into_string().ok())
        .find(|k| GUARDED_VARS.contains(&k.as_str()) || k.starts_with("WATZ_BENCH_"))
}

/// Logical CPUs: the cap on generator threads and client connections.
#[must_use]
pub fn nproc() -> usize {
    std::thread::available_parallelism().map_or(1, std::num::NonZero::get)
}

/// Peak resident set size of this process in MB (`VmHWM`), or `None`
/// where `/proc` is unavailable.
#[must_use]
pub fn peak_rss_mb() -> Option<f64> {
    let status = std::fs::read_to_string("/proc/self/status").ok()?;
    let line = status.lines().find(|l| l.starts_with("VmHWM:"))?;
    let kb: f64 = line.split_whitespace().nth(1)?.parse().ok()?;
    Some(kb / 1024.0)
}

/// Runs `setup` [`SETUP_REPEATS`] times, keeps the last result and returns
/// it with each set-up's time in seconds. Earlier results are dropped
/// before the next set-up starts, so their teardown is not timed and they
/// do not count towards peak memory.
///
/// # Errors
///
/// The first set-up error.
pub fn repeat_setup<T>(
    mut setup: impl FnMut() -> Result<T, String>,
) -> Result<(T, Vec<f64>), String> {
    let mut times = Vec::with_capacity(SETUP_REPEATS);
    let mut kept = None;
    for _ in 0..SETUP_REPEATS {
        drop(kept.take());
        let t = Instant::now();
        let state = setup()?;
        times.push(t.elapsed().as_secs_f64());
        kept = Some(state);
    }
    Ok((kept.expect("SETUP_REPEATS >= 1"), times))
}

/// The set-up times of a run whose set-ups are spread over it. The first
/// set-up makes the state the run measures; [`SetupClock::tick`], called
/// between operations, times one more (dropped at once, its teardown
/// untimed) each time the run passes another 1/[`SETUP_REPEATS`] of its
/// budget. Their median then samples the shared host across the whole
/// run, as the operations do, rather than in one burst before them.
pub struct SetupClock {
    times: Vec<f64>,
    start: Instant,
    budget: Duration,
}

impl SetupClock {
    /// Runs and times the first set-up, and starts the run's clock.
    ///
    /// # Errors
    ///
    /// The set-up's error.
    pub fn first<T>(
        setup: impl FnOnce() -> Result<T, String>,
        budget: Duration,
    ) -> Result<(T, Self), String> {
        let t = Instant::now();
        let state = setup()?;
        let clock = SetupClock {
            times: vec![t.elapsed().as_secs_f64()],
            start: Instant::now(),
            budget,
        };
        Ok((state, clock))
    }

    /// Times one more set-up if the run has passed its next step.
    ///
    /// # Errors
    ///
    /// The set-up's error.
    pub fn tick<T>(&mut self, setup: impl FnOnce() -> Result<T, String>) -> Result<(), String> {
        let step = self.times.len();
        let due = self.budget.mul_f64(step as f64 / SETUP_REPEATS as f64);
        if step < SETUP_REPEATS && self.start.elapsed() >= due {
            let t = Instant::now();
            let state = setup()?;
            self.times.push(t.elapsed().as_secs_f64());
            drop(state);
        }
        Ok(())
    }

    /// Each set-up's time so far, in seconds.
    #[must_use]
    pub fn times(&self) -> &[f64] {
        &self.times
    }
}

/// Runs one workload and returns its outcome (metrics, counts, record).
///
/// # Errors
///
/// A set-up failure (the run produces no result).
pub fn run(opts: &Options) -> Result<Outcome, String> {
    let mut outcome = match opts.workload {
        Workload::ColdStart => cold_start::run(opts)?,
        Workload::GuestCompute => guest_compute::run(opts)?,
        Workload::AttestFleet => attest_fleet::run(opts)?,
        Workload::AttestedApp => attested_app::run(opts)?,
    };
    let rss = peak_rss_mb().ok_or("peak RSS unavailable: /proc/self/status has no VmHWM")?;
    outcome.e2e.insert("peak_rss_mb".into(), rss);
    outcome.detail("peak_rss_mb", rss, "MB", None);
    Ok(outcome)
}

/// Adds the span-derived rows every workload shares — self time per
/// crate and operation, the unattributed share — and the tracing overhead:
/// the median operation time of the traced operations against that of the
/// untraced ones interleaved with them (both shown). Keeps the spans for
/// writing out.
pub fn finish_trace(out: &mut Outcome, tr: Tracer, traced_ms: &[f64], untraced_ms: &[f64]) {
    let st = trace::self_times(tr.spans(), "op");
    for layer in LAYERS {
        out.layers
            .insert(format!("self_us.{layer}"), st.per_op_us(layer));
    }
    let (traced, untraced) = (stats::median(traced_ms), stats::median(untraced_ms));
    let overhead = 100.0 * (traced / untraced - 1.0);
    out.layers
        .insert("bench.unattributed_pct".into(), st.unattributed_pct());
    out.layers
        .insert("bench.trace_overhead_pct".into(), overhead);
    out.detail(
        "op_ms.p50.untraced",
        untraced,
        "ms",
        Some(untraced_ms.len()),
    );
    out.detail("op_ms.p50.traced", traced, "ms", Some(traced_ms.len()));
    out.detail("bench.trace_overhead_pct", overhead, "%", None);
    out.detail(
        "bench.unattributed_pct",
        st.unattributed_pct(),
        "%",
        Some(st.roots),
    );
    out.tracer = Some(tr);
}

/// Ordered map of metric name to value.
pub type Values = BTreeMap<String, f64>;
