//! `attest_fleet`: simulated devices attest against a `FleetVerifier`
//! spawned with `nproc` workers (open loop).
//!
//! Each device is an `AttestationService` on its own booted `TrustedOs`;
//! each session is a full Msg0→Msg3 exchange over the verifier's loopback
//! network, driven step by step by the benchmark (`Network::connect`,
//! `Connection::send`/`recv_detailed`, the `Attester` steps) for a 1 KB
//! secret. Devices are 90% endorsed, 5% rogue (unendorsed key) and 5%
//! stale (outdated version), and sessions draw kinds in that mix, so the
//! rejection path runs too.
//!
//! Arrivals follow a seeded schedule: evenly spaced at the offered rate,
//! each shifted by a seeded jitter of up to half a spacing, each naming a
//! seeded device. At most `nproc` generator threads send, so at most
//! `nproc` connections are open. Latency runs from each arrival's
//! scheduled time to its verdict, so a late generator counts against it,
//! and the lateness itself is reported.
//!
//! An untraced run alternates light-rate windows ([`LIGHT_RATE`], 40% of
//! its time) with the trials of a search over offered rates for the
//! highest one that meets [`P99_LIMIT_MS`] with at most 1% failures and a
//! generator that keeps up (`throughput_per_s`). `latency_ms.p50` is the
//! verdict p50 over the light-rate windows, `.tail` each window's p95 on
//! the run's quiet stretches ([`QUIET_WINDOW_PERCENTILE`]); p95 and p99
//! over all windows are reported with their sample counts. A traced run
//! holds the light rate throughout.

use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Mutex;
use std::time::{Duration, Instant};

use optee_sim::net::{Network, RecvError};
use optee_sim::TrustedOs;
use tz_hal::{Platform, PlatformConfig};
use watz_attestation::attester::Attester;
use watz_attestation::service::AttestationService;
use watz_attestation::verifier::VerifierConfig;
use watz_attestation::wire::{Msg1, Msg3, APPRAISAL_FAILED, INTEGRITY_FAILED, SERVER_BUSY};
use watz_attestation::StepTimings;
use watz_crypto::ecdsa::SigningKey;
use watz_crypto::fortuna::Fortuna;
use watz_fleet::{FleetConfig, FleetVerifier};

use crate::rng::Rng;
use crate::stats::{mean, median, percentile};
use crate::trace::{SpanId, Tracer};
use crate::{finish_trace, nproc, Options, Outcome, Scale, SetupClock};

/// The light open-loop rate, sessions per second.
pub const LIGHT_RATE: f64 = 50.0;

/// Verdict latency limit at p99 for the rate search, in ms.
pub const P99_LIMIT_MS: f64 = 25.0;

/// Highest failure share a searched rate may have.
const MAX_FAILED_FRAC: f64 = 0.01;

/// Each search step multiplies the rate by this until a rate fails.
const SEARCH_GROWTH: f64 = 1.6;

/// Bisection stops once the bracket is this narrow (3%).
const SEARCH_RESOLUTION: f64 = 1.03;

/// Rounds per untraced run, each one light-rate window and one search
/// trial.
const ROUNDS: usize = 16;

/// Share of the run spent at the light rate (the rest searches).
const LIGHT_SHARE: f64 = 0.4;

/// The gated tail is this percentile of each light-rate window's
/// verdict latencies ...
const TAIL_PERCENTILE: f64 = 95.0;

/// ... taken at this percentile over the windows: the tail on a quiet
/// stretch of the shared host. Neighbours that take the CPU for seconds
/// at a time lift whole windows and move only the upper ones; a tail the
/// program itself causes shows in every window.
const QUIET_WINDOW_PERCENTILE: f64 = 10.0;

/// Secret each endorsed device receives.
const SECRET_BYTES: usize = 1024;

/// Verifier port on the verifier's loopback network.
const PORT: u16 = 7800;

/// How long a client waits for a reply.
const RECV_TIMEOUT: Duration = Duration::from_secs(5);

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Kind {
    Endorsed,
    Rogue,
    Stale,
}

struct Device {
    kind: Kind,
    service: AttestationService,
    _os: TrustedOs,
}

struct State {
    os: TrustedOs,
    devices: Vec<Device>,
    by_kind: [Vec<usize>; 3],
    verifier: FleetVerifier,
    pinned: [u8; 64],
    measurement: [u8; 32],
    secret: Vec<u8>,
}

fn boot(device_seed: String) -> Result<TrustedOs, String> {
    let platform = Platform::new(PlatformConfig {
        device_seed: device_seed.into_bytes(),
        ..PlatformConfig::with_paper_latencies()
    });
    tz_hal::boot::install_genuine_chain(&platform).map_err(|e| format!("secure boot: {e}"))?;
    TrustedOs::boot(platform).map_err(|e| format!("trusted OS boot: {e}"))
}

fn setup(opts: &Options) -> Result<State, String> {
    let (endorsed, rogue, stale) = match opts.scale {
        Scale::Full => (36, 2, 2),
        Scale::Tiny => (4, 1, 1),
    };
    let os = boot(format!("perfbench-fleet-verifier-{}", opts.seed))?;
    let kinds = std::iter::repeat_n(Kind::Endorsed, endorsed)
        .chain(std::iter::repeat_n(Kind::Rogue, rogue))
        .chain(std::iter::repeat_n(Kind::Stale, stale));
    let mut devices = Vec::new();
    let mut by_kind: [Vec<usize>; 3] = Default::default();
    for (i, kind) in kinds.enumerate() {
        let dev_os = boot(format!("perfbench-fleet-device-{}-{i}", opts.seed))?;
        let service = match kind {
            Kind::Stale => AttestationService::install_with_version(&dev_os, 0),
            _ => AttestationService::install(&dev_os),
        };
        by_kind[kind as usize].push(i);
        devices.push(Device {
            kind,
            service,
            _os: dev_os,
        });
    }
    let mut rng = Rng::new(opts.seed, "attest_fleet/keys");
    let mut identity_rng = Fortuna::from_seed(&rng.bytes(32));
    let mut measurement = [0u8; 32];
    measurement.copy_from_slice(&rng.bytes(32));
    let secret = Rng::new(opts.seed, "attest_fleet/secret").bytes(SECRET_BYTES);
    let mut config = VerifierConfig::new(SigningKey::generate(&mut identity_rng))
        .trust_measurement(measurement)
        .require_min_version(1)
        .with_secret(secret.clone());
    for d in &devices {
        if d.kind != Kind::Rogue {
            config = config.endorse_device(d.service.public_key());
        }
    }
    let pinned = config.identity_public_key();
    let verifier = FleetVerifier::spawn(
        &os,
        config,
        FleetConfig {
            workers: nproc(),
            ..FleetConfig::default()
        },
        PORT,
    )
    .map_err(|e| format!("fleet verifier: {e}"))?;
    Ok(State {
        os,
        devices,
        by_kind,
        verifier,
        pinned,
        measurement,
        secret,
    })
}

/// How a session ended, as the client saw it.
enum Verdict {
    Provisioned(Vec<u8>),
    Rejected,
    Busy,
    Failed(&'static str),
}

/// Client-side timings of one session.
#[derive(Default, Clone, Copy)]
struct ClientTimes {
    connect: Duration,
    msg1_wait: Duration,
    msg3_wait: Duration,
    steps: StepTimings,
}

fn add_steps(total: &mut StepTimings, t: &StepTimings) {
    total.memory += t.memory;
    total.key_generation += t.key_generation;
    total.symmetric += t.symmetric;
    total.asymmetric += t.asymmetric;
}

/// The crypto inside an attester step, as a derived child span.
fn crypto_phase(tr: &mut Tracer, span: SpanId, t: &StepTimings) {
    tr.phases(
        span,
        &[(
            "watz-crypto",
            "crypto",
            t.key_generation + t.symmetric + t.asymmetric,
        )],
    );
}

/// Receives one reply frame, mapping the verifier's one-byte markers.
fn reply(
    tr: &mut Tracer,
    conn: &optee_sim::net::Connection,
    wait: &mut Duration,
) -> Result<Vec<u8>, Verdict> {
    let s = tr.begin("optee-sim", "Connection::recv_detailed");
    let t = Instant::now();
    let frame = conn.recv_detailed(RECV_TIMEOUT);
    *wait += t.elapsed();
    tr.end(s);
    match frame {
        Ok(f) if f == SERVER_BUSY => Err(Verdict::Busy),
        Ok(f) if f == APPRAISAL_FAILED => Err(Verdict::Rejected),
        Ok(f) if f == INTEGRITY_FAILED => Err(Verdict::Failed("integrity_failed")),
        Ok(f) => Ok(f),
        Err(RecvError::TimedOut) => Err(Verdict::Failed("timeout")),
        Err(RecvError::Disconnected) => Err(Verdict::Failed("disconnected")),
    }
}

/// One attestation session, step by step.
fn session(
    tr: &mut Tracer,
    net: &Network,
    device: &Device,
    measurement: &[u8; 32],
    pinned: &[u8; 64],
    rng: &mut Fortuna,
    times: &mut ClientTimes,
) -> Verdict {
    let s = tr.begin("optee-sim", "Network::connect");
    let t = Instant::now();
    let conn = net.connect(PORT);
    times.connect += t.elapsed();
    tr.end(s);
    let Ok(conn) = conn else {
        return Verdict::Failed("refused");
    };
    let s = tr.begin("watz-attestation", "Attester::start_timed");
    let (mut attester, msg0, t0) = Attester::start_timed(rng);
    tr.end(s);
    crypto_phase(tr, s, &t0);
    add_steps(&mut times.steps, &t0);
    let s = tr.begin("optee-sim", "Connection::send");
    let sent = conn.send(&msg0.to_bytes());
    tr.end(s);
    if sent.is_err() {
        return Verdict::Failed("send_failed");
    }
    let raw1 = match reply(tr, &conn, &mut times.msg1_wait) {
        Ok(f) => f,
        Err(v) => return v,
    };
    let Ok(msg1) = Msg1::from_bytes(&raw1) else {
        return Verdict::Failed("garbled");
    };
    let s = tr.begin("watz-attestation", "Attester::handle_msg1");
    let handled = attester.handle_msg1(&msg1, pinned);
    tr.end(s);
    let Ok((_, t1)) = handled else {
        return Verdict::Failed("protocol");
    };
    crypto_phase(tr, s, &t1);
    add_steps(&mut times.steps, &t1);
    let s = tr.begin("watz-attestation", "Attester::collect_quote");
    let quote = attester.collect_quote(&device.service, measurement);
    tr.end(s);
    let Ok((evidence, t2)) = quote else {
        return Verdict::Failed("protocol");
    };
    crypto_phase(tr, s, &t2);
    add_steps(&mut times.steps, &t2);
    let s = tr.begin("watz-attestation", "Attester::build_msg2");
    let built = attester.build_msg2(evidence);
    tr.end(s);
    let Ok((msg2, t3)) = built else {
        return Verdict::Failed("protocol");
    };
    crypto_phase(tr, s, &t3);
    add_steps(&mut times.steps, &t3);
    let s = tr.begin("optee-sim", "Connection::send");
    let sent = conn.send(&msg2.to_bytes());
    tr.end(s);
    if sent.is_err() {
        return Verdict::Failed("send_failed");
    }
    let raw3 = match reply(tr, &conn, &mut times.msg3_wait) {
        Ok(f) => f,
        Err(v) => return v,
    };
    let Ok(msg3) = Msg3::from_bytes(&raw3) else {
        return Verdict::Failed("garbled");
    };
    let s = tr.begin("watz-attestation", "Attester::handle_msg3");
    let opened = attester.handle_msg3(&msg3);
    tr.end(s);
    match opened {
        Ok((secret, t4)) => {
            crypto_phase(tr, s, &t4);
            add_steps(&mut times.steps, &t4);
            Verdict::Provisioned(secret)
        }
        Err(_) => Verdict::Failed("decrypt_failed"),
    }
}

/// One scheduled arrival: when (from the trial's start) and which device.
#[derive(Clone, Copy)]
struct Arrival {
    at: Duration,
    device: usize,
}

/// A seeded schedule of `count` arrivals at `rate`.
fn schedule(rng: &mut Rng, state: &State, rate: f64, count: usize) -> Vec<Arrival> {
    let spacing = 1.0 / rate;
    (0..count)
        .map(|i| {
            let kind = match rng.below(100) {
                0..=89 => Kind::Endorsed,
                90..=94 => Kind::Rogue,
                _ => Kind::Stale,
            };
            let pool = &state.by_kind[kind as usize];
            let device = pool[rng.below(pool.len() as u64) as usize];
            let jitter = rng.unit() * 0.5 * spacing;
            Arrival {
                at: Duration::from_secs_f64(i as f64 * spacing + jitter),
                device,
            }
        })
        .collect()
}

/// What happened to one arrival.
struct SessionResult {
    /// `None` on success, else the failure kind and whether the output
    /// was wrong.
    failure: Option<(&'static str, bool)>,
    latency_ms: f64,
    lateness_ms: f64,
    traced: bool,
    times: ClientTimes,
}

/// Runs one trial: the generator threads take arrivals in order, wait for
/// each one's scheduled time and run its session.
fn run_trial(
    state: &State,
    arrivals: &[Arrival],
    trace: bool,
    seed: u64,
    epoch: Instant,
    live: &AtomicUsize,
    max_live: &AtomicUsize,
) -> (Vec<SessionResult>, Vec<Tracer>) {
    let next = AtomicUsize::new(0);
    let results: Mutex<Vec<(usize, SessionResult)>> =
        Mutex::new(Vec::with_capacity(arrivals.len()));
    let tracers: Mutex<Vec<Tracer>> = Mutex::new(Vec::new());
    let net = state.os.network();
    let start = Instant::now();
    std::thread::scope(|scope| {
        for thread in 0..nproc() {
            let (next, results, tracers) = (&next, &results, &tracers);
            scope.spawn(move || {
                let mut tr = Tracer::new(epoch);
                let mut rng =
                    Fortuna::from_seed(format!("perfbench-client-{seed}-{thread}").as_bytes());
                loop {
                    let i = next.fetch_add(1, Ordering::SeqCst);
                    let Some(a) = arrivals.get(i) else { break };
                    let due = start + a.at;
                    if let Some(wait) = due.checked_duration_since(Instant::now()) {
                        std::thread::sleep(wait);
                    }
                    let lateness = Instant::now().saturating_duration_since(due);
                    let traced = trace && i % 2 == 1;
                    tr.set_enabled(traced);
                    tr.set_op(i as u64);
                    let device = &state.devices[a.device];
                    let now_live = live.fetch_add(1, Ordering::SeqCst) + 1;
                    max_live.fetch_max(now_live, Ordering::SeqCst);
                    let mut times = ClientTimes::default();
                    let root = tr.begin("bench", "op");
                    let verdict = session(
                        &mut tr,
                        net,
                        device,
                        &state.measurement,
                        &state.pinned,
                        &mut rng,
                        &mut times,
                    );
                    tr.end(root);
                    live.fetch_sub(1, Ordering::SeqCst);
                    let latency = due.elapsed();
                    let failure = match (device.kind, verdict) {
                        (Kind::Endorsed, Verdict::Provisioned(s)) if s == state.secret => None,
                        (Kind::Endorsed, Verdict::Provisioned(_)) => Some(("wrong_secret", true)),
                        (Kind::Endorsed, Verdict::Rejected) => Some(("false_reject", true)),
                        (_, Verdict::Rejected) => None,
                        (_, Verdict::Provisioned(_)) => Some(("false_accept", true)),
                        (_, Verdict::Busy) => Some(("shed", false)),
                        (_, Verdict::Failed(kind)) => Some((kind, false)),
                    };
                    let r = SessionResult {
                        failure,
                        latency_ms: latency.as_secs_f64() * 1e3,
                        lateness_ms: lateness.as_secs_f64() * 1e3,
                        traced,
                        times,
                    };
                    results.lock().expect("results lock").push((i, r));
                }
                tracers.lock().expect("tracer lock").push(tr);
            });
        }
    });
    let mut results = results.into_inner().expect("results lock");
    results.sort_by_key(|(i, _)| *i);
    (
        results.into_iter().map(|(_, r)| r).collect(),
        tracers.into_inner().expect("tracer lock"),
    )
}

/// Whether a trial meets the limit: few failures, p99 within the limit,
/// and a generator that kept up (the last quarter of arrivals started
/// within half the limit of their schedule).
fn meets_limit(results: &[SessionResult]) -> (bool, f64) {
    let failed = results.iter().filter(|r| r.failure.is_some()).count();
    let lat: Vec<f64> = results
        .iter()
        .filter(|r| r.failure.is_none())
        .map(|r| r.latency_ms)
        .collect();
    let p99 = percentile(&lat, 99.0);
    let tail = &results[results.len() * 3 / 4..];
    let late: Vec<f64> = tail.iter().map(|r| r.lateness_ms).collect();
    let keeps_up = median(&late) <= P99_LIMIT_MS / 2.0;
    let ok = !lat.is_empty()
        && (failed as f64) <= MAX_FAILED_FRAC * results.len() as f64
        && p99 <= P99_LIMIT_MS
        && keeps_up;
    (ok, p99)
}

/// Counts light-rate sessions as attempted operations; at the light rate
/// every failure counts.
fn tally(out: &mut Outcome, results: &[SessionResult]) {
    for r in results {
        out.attempted += 1;
        if let Some((kind, wrong)) = r.failure {
            out.fail(kind, wrong);
        }
    }
}

/// The search for the highest rate that meets the limit: grow by
/// [`SEARCH_GROWTH`] until a rate misses, then bisect down to
/// [`SEARCH_RESOLUTION`]. A rate that misses is tried once more before it
/// counts as missed, so one stall of the shared host does not end the
/// search early.
struct RateSearch {
    lo: f64,
    hi: Option<f64>,
    retry: Option<f64>,
    best: f64,
}

impl RateSearch {
    fn new() -> Self {
        RateSearch {
            lo: LIGHT_RATE,
            hi: None,
            retry: None,
            best: 0.0,
        }
    }

    /// The next rate to try, or `None` once the search has converged.
    fn next(&self) -> Option<f64> {
        match (self.retry, self.hi) {
            (Some(r), _) => Some(r),
            (None, None) => Some(self.lo * SEARCH_GROWTH),
            (None, Some(h)) if h / self.lo > SEARCH_RESOLUTION => Some((self.lo * h).sqrt()),
            (None, Some(_)) => None,
        }
    }

    fn record(&mut self, rate: f64, ok: bool) {
        if ok {
            self.lo = rate;
            self.best = self.best.max(rate);
            self.retry = None;
        } else if self.retry.take().is_none() {
            self.retry = Some(rate);
        } else {
            self.hi = Some(rate);
        }
    }
}

/// Runs the workload.
///
/// # Errors
///
/// A set-up failure.
pub fn run(opts: &Options) -> Result<Outcome, String> {
    let (state, mut setups) = SetupClock::first(|| setup(opts), opts.budget())?;
    let mut out = Outcome::default();
    let epoch = Instant::now();
    let live = AtomicUsize::new(0);
    let max_live = AtomicUsize::new(0);
    let mut sched_rng = Rng::new(opts.seed, "attest_fleet/schedule");
    let switches_before = state.os.platform().transition_stats().enters();

    // Traced: the whole run at the light rate. Untraced: a warm-up, then
    // rounds of one light-rate window and one search trial, so the
    // light-rate figures sample the shared host over the whole run rather
    // than over one stretch of it.
    let mut light = Vec::new();
    let mut window_tails = Vec::new();
    let mut tracers = Vec::new();
    let mut search = RateSearch::new();
    let mut trials = Vec::new();
    if opts.trace {
        let count = ((LIGHT_RATE * opts.seconds).round() as usize).max(4);
        let arrivals = schedule(&mut sched_rng, &state, LIGHT_RATE, count);
        (light, tracers) = run_trial(&state, &arrivals, true, opts.seed, epoch, &live, &max_live);
        tally(&mut out, &light);
    } else {
        let window_secs = opts.seconds * LIGHT_SHARE / ROUNDS as f64;
        let trial_secs = opts.seconds * (1.0 - LIGHT_SHARE) / ROUNDS as f64;
        let window_len = ((LIGHT_RATE * window_secs).round() as usize).max(4);
        let mut light_rng = Rng::new(opts.seed, "attest_fleet/light");
        let mut light_window = |out: &mut Outcome, counted: bool| {
            let arrivals = schedule(&mut light_rng, &state, LIGHT_RATE, window_len);
            let (results, _) =
                run_trial(&state, &arrivals, false, opts.seed, epoch, &live, &max_live);
            tally(out, &results);
            if counted {
                let ok_ms: Vec<f64> = results
                    .iter()
                    .filter(|r| r.failure.is_none())
                    .map(|r| r.latency_ms)
                    .collect();
                window_tails.push(percentile(&ok_ms, TAIL_PERCENTILE));
                light.extend(results);
            }
        };
        light_window(&mut out, false);
        for _ in 0..ROUNDS {
            setups.tick(|| setup(opts))?;
            light_window(&mut out, true);
            let Some(rate) = search.next() else {
                // The search has converged: the trial's time goes to
                // further light-rate windows.
                for _ in 0..(trial_secs / window_secs).floor().max(1.0) as usize {
                    light_window(&mut out, true);
                }
                continue;
            };
            let count = ((rate * trial_secs).round() as usize).max(8);
            let arrivals = schedule(&mut sched_rng, &state, rate, count);
            let (results, _) =
                run_trial(&state, &arrivals, false, opts.seed, epoch, &live, &max_live);
            for r in &results {
                out.attempted += 1;
                // Overload is what the search looks for: only wrong
                // verdicts count as failed operations here.
                if let Some((kind, true)) = r.failure {
                    out.fail(kind, true);
                }
            }
            let (ok, p99) = meets_limit(&results);
            trials.push(format!("[{rate:.1}, {p99:.3}, {ok}]"));
            search.record(rate, ok);
        }
    }
    let mut verdict_ms = Vec::new();
    let mut traced_ms = Vec::new();
    for r in &light {
        match r.failure {
            Some(_) => {}
            None if r.traced => traced_ms.push(r.latency_ms),
            None => verdict_ms.push(r.latency_ms),
        }
    }
    let lateness: Vec<f64> = light.iter().map(|r| r.lateness_ms).collect();
    let max_rate = if !opts.trace && meets_limit(&light).0 {
        search.best.max(LIGHT_RATE)
    } else {
        search.best
    };
    let sessions = light.len() as u64;
    let switches = state.os.platform().transition_stats().enters() - switches_before;
    let phases = state.verifier.phase_stats();
    let fleet = state.verifier.stats();

    let quiet_tail = percentile(&window_tails, QUIET_WINDOW_PERCENTILE);
    out.setup_times(setups.times());
    out.e2e.insert("latency_ms.p50".into(), median(&verdict_ms));
    out.e2e.insert("latency_ms.tail".into(), quiet_tail);
    out.e2e.insert("throughput_per_s".into(), max_rate);

    out.detail(
        "failed_frac",
        out.failed_frac(),
        "ratio",
        Some(out.attempted as usize),
    );
    out.detail(
        "verdict_ms.p50",
        median(&verdict_ms),
        "ms",
        Some(verdict_ms.len()),
    );
    out.detail(
        "verdict_ms.p95",
        percentile(&verdict_ms, 95.0),
        "ms",
        Some(verdict_ms.len()),
    );
    if !opts.trace {
        out.detail(
            "verdict_ms.p95.quiet_window",
            quiet_tail,
            "ms",
            Some(window_tails.len()),
        );
    }
    out.detail(
        "verdict_ms.p99",
        percentile(&verdict_ms, 99.0),
        "ms",
        Some(verdict_ms.len()),
    );
    if !opts.trace {
        out.detail("sessions_per_s.max", max_rate, "1/s", Some(trials.len()));
    }
    out.detail(
        "generator_lateness_ms.p50",
        median(&lateness),
        "ms",
        Some(lateness.len()),
    );
    out.detail(
        "generator_lateness_ms.max",
        percentile(&lateness, 100.0),
        "ms",
        Some(lateness.len()),
    );

    if opts.trace {
        let traced: Vec<&SessionResult> = light
            .iter()
            .filter(|r| r.traced && r.failure.is_none())
            .collect();
        let n = traced.len().max(1) as f64;
        let sum = |f: &dyn Fn(&ClientTimes) -> Duration| {
            traced
                .iter()
                .map(|r| f(&r.times).as_secs_f64() * 1e6)
                .sum::<f64>()
                / n
        };
        let rows = [
            (
                "watz-attestation.attester.asym_us",
                sum(&|t| t.steps.asymmetric),
            ),
            (
                "watz-attestation.attester.keygen_us",
                sum(&|t| t.steps.key_generation),
            ),
            (
                "watz-attestation.attester.sym_us",
                sum(&|t| t.steps.symmetric),
            ),
            (
                "watz-attestation.attester.memory_us",
                sum(&|t| t.steps.memory),
            ),
            ("optee-sim.net.connect_us", sum(&|t| t.connect)),
            ("optee-sim.net.msg1_wait_us", sum(&|t| t.msg1_wait)),
            ("optee-sim.net.msg3_wait_us", sum(&|t| t.msg3_wait)),
        ];
        for (name, v) in rows {
            out.layers.insert(name.into(), v);
        }
        let med_us = |v: &[u64]| median(&v.iter().map(|&x| x as f64).collect::<Vec<_>>());
        out.layers.insert(
            "watz-fleet.accept_to_msg0_us".into(),
            med_us(&phases.accept_to_msg0),
        );
        out.layers.insert(
            "watz-fleet.msg0_to_msg1_us".into(),
            med_us(&phases.msg0_to_msg1),
        );
        out.layers.insert(
            "watz-fleet.msg2_to_msg3_us".into(),
            med_us(&phases.msg2_to_msg3),
        );
        out.layers
            .insert("watz-fleet.shed".into(), fleet.shed as f64);
        out.layers
            .insert("watz-fleet.timed_out".into(), fleet.timed_out as f64);
        out.layers
            .insert("watz-fleet.disconnected".into(), fleet.disconnected as f64);
        out.layers.insert(
            "watz-fleet.msg1_batch_size".into(),
            phases.msg0_to_msg1.len() as f64 / fleet.msg1_batches.max(1) as f64,
        );
        out.layers.insert(
            "watz-fleet.appraisal_batch_size".into(),
            fleet.appraised as f64 / fleet.appraisal_batches.max(1) as f64,
        );
        out.layers.insert(
            "tz-hal.world_switches_per_session".into(),
            switches as f64 / sessions.max(1) as f64,
        );
        out.layers
            .insert("bench.generator_lateness_ms".into(), mean(&lateness));
        let mut tr = Tracer::new(epoch);
        for t in tracers {
            tr.absorb(t);
        }
        finish_trace(&mut out, tr, &traced_ms, &verdict_ms);
    }
    let max_conn = max_live.load(Ordering::SeqCst);
    out.note("max_generator_threads", nproc());
    out.note("max_client_connections", max_conn);
    out.note("devices", state.devices.len());
    out.note("light_rate_per_s", LIGHT_RATE);
    out.note("p99_limit_ms", P99_LIMIT_MS);
    out.note("search_trials", format!("[{}]", trials.join(", ")));
    out.note(
        "fleet_stats",
        format!(
            "{{\"accepted\": {}, \"served\": {}, \"rejected\": {}, \"shed\": {}, \"timed_out\": {}, \"disconnected\": {}}}",
            fleet.accepted, fleet.served, fleet.rejected, fleet.shed, fleet.timed_out, fleet.disconnected
        ),
    );
    if max_conn > nproc() {
        return Err(format!(
            "{max_conn} client connections open at once, above nproc"
        ));
    }
    Ok(out)
}
