//! `attested_app`: a guest loaded in WaTZ attests through WASI-RA against
//! a `VerifierServer` and receives a 1 MB secret, which it checksums
//! (closed loop, one client).
//!
//! Each operation invokes the guest's four WASI-RA exports separately, as
//! Tab IV times them — `ra_handshake`, `ra_collect_quote`,
//! `ra_send_quote`, `ra_receive_data` — into a receive buffer the guest
//! allocated once during set-up, then has the guest checksum it. The
//! secret's bytes are read back and compared, and the guest checksum is
//! compared with the same checksum computed natively.
//!
//! `latency_ms.p50` and `.tail` are the time to secret (handshake start to
//! secret in guest memory) at p50 and p90; `throughput_per_s` is sessions
//! completed per second of the closed loop.

use std::time::{Duration, Instant};

use tz_hal::PlatformConfig;
use watz_crypto::ecdsa::SigningKey;
use watz_crypto::fortuna::Fortuna;
use watz_crypto::sha256::Sha256;
use watz_runtime::{AppConfig, RaVerifierConfig, VerifierServer, WatzApp, WatzRuntime};
use watz_wasm::exec::Value;

use crate::rng::Rng;
use crate::stats::{median, percentile};
use crate::trace::Tracer;
use crate::{finish_trace, guests, repeat_setup, Options, Outcome, Scale};

/// Verifier port on the device's loopback network.
const PORT: u16 = 9500;

struct State {
    rt: WatzRuntime,
    app: WatzApp,
    server: Option<VerifierServer>,
    secret: Vec<u8>,
    digest: i32,
    buf: u32,
}

fn setup(opts: &Options) -> Result<State, String> {
    let secret_len = match opts.scale {
        Scale::Full => 1 << 20,
        Scale::Tiny => 16 << 10,
    };
    let device = format!("perfbench-attested-app-{}", opts.seed);
    let rt =
        WatzRuntime::new_device_with(device.as_bytes(), PlatformConfig::with_paper_latencies())
            .map_err(|e| format!("device boot: {e}"))?;
    let wasm = guests::ra_guest_wasm()?;
    let secret = Rng::new(opts.seed, "attested_app/secret").bytes(secret_len);
    let mut identity_rng =
        Fortuna::from_seed(&Rng::new(opts.seed, "attested_app/identity").bytes(32));
    let config = RaVerifierConfig::new(SigningKey::generate(&mut identity_rng))
        .endorse_device(rt.device_public_key())
        .trust_measurement(Sha256::digest(&wasm))
        .with_secret(secret.clone());
    let pinned = config.identity_public_key();
    let server = VerifierServer::spawn(rt.os(), config, PORT).map_err(|e| e.to_string())?;
    let mut app = rt
        .load(&wasm, &AppConfig::default())
        .map_err(|e| format!("WASI-RA guest: {e}"))?;
    let key = app.invoke("set_key_buf", &[]).map_err(|e| e.to_string())?[0].as_u32();
    app.write_memory(key, &pinned).map_err(|e| e.to_string())?;
    let len = i32::try_from(secret_len).map_err(|e| e.to_string())?;
    let buf = app
        .invoke("buf_init", &[Value::I32(len)])
        .map_err(|e| e.to_string())?[0]
        .as_u32();
    Ok(State {
        digest: guests::digest(&secret),
        rt,
        app,
        server: Some(server),
        secret,
        buf,
    })
}

/// The guest exports wrapping the four WASI-RA calls, in protocol order,
/// with the call each wraps (the span name).
const STEPS: [(&str, &str); 4] = [
    ("do_handshake", "ra_handshake"),
    ("do_collect", "ra_collect_quote"),
    ("do_send", "ra_send_quote"),
    ("do_receive", "ra_receive_data"),
];

/// Runs the workload.
///
/// # Errors
///
/// A set-up failure.
pub fn run(opts: &Options) -> Result<Outcome, String> {
    let (mut state, setup_times) = repeat_setup(|| setup(opts))?;
    let mut out = Outcome::default();
    let stats = state.rt.platform().transition_stats();
    let secret_len = i32::try_from(state.secret.len()).map_err(|e| e.to_string())?;
    let mut tr = Tracer::new(Instant::now());

    let mut secret_ms = Vec::new();
    let mut traced_ms = Vec::new();
    let mut step_us = [0.0f64; 4];
    let mut digest_us = 0.0;
    let mut traced_ok = 0usize;
    let mut traced_switches = 0u64;

    let started = Instant::now();
    let deadline = started + opts.budget();
    let mut op = 0u64;
    while op == 0 || Instant::now() < deadline {
        let traced = opts.trace && op % 2 == 1;
        tr.set_enabled(traced);
        tr.set_op(op);
        op += 1;
        out.attempted += 1;
        let switches_before = stats.enters();

        let root = tr.begin("bench", "op");
        let mut times = [Duration::ZERO; 4];
        let mut failure = None;
        let t0 = Instant::now();
        for (i, (export, name)) in STEPS.iter().enumerate() {
            let args = if i == 0 {
                vec![Value::I32(i32::from(PORT))]
            } else {
                Vec::new()
            };
            let s = tr.begin("watz-wasi", name);
            let t = Instant::now();
            let r = state.app.invoke(export, &args);
            times[i] = t.elapsed();
            tr.end(s);
            let ok = match (i, &r) {
                (3, Ok(v)) => v.as_slice() == [Value::I32(secret_len)],
                (2, Ok(v)) => v.as_slice() == [Value::I32(0)],
                (_, Ok(v)) => matches!(v.as_slice(), [Value::I32(x)] if *x >= 0),
                (_, Err(_)) => false,
            };
            if !ok {
                eprintln!("attested_app: {name} returned {r:?}");
                failure = Some(if r.is_err() { "trap" } else { "ra_error" });
                break;
            }
        }
        let to_secret = t0.elapsed();
        let mut digest_time = Duration::ZERO;
        if failure.is_none() {
            let s = tr.begin("watz-runtime", "WatzApp::invoke");
            let t = Instant::now();
            let d = state.app.invoke("digest", &[Value::I32(secret_len)]);
            digest_time = t.elapsed();
            tr.end(s);
            tr.phases(s, &[("watz-wasm", "guest code", digest_time)]);
            let bytes_ok = state
                .app
                .read_memory(state.buf, state.secret.len() as u32)
                .is_ok_and(|b| b == state.secret);
            if !bytes_ok || d.ok().as_deref() != Some(&[Value::I32(state.digest)][..]) {
                failure = Some("wrong_secret");
            }
        }
        tr.end(root);
        // Release the session and its quote whatever happened.
        let _ = state.app.invoke("finish", &[]);
        if let Some(kind) = failure {
            out.fail(kind, kind == "wrong_secret");
            continue;
        }
        let ms = to_secret.as_secs_f64() * 1e3;
        if traced {
            traced_ms.push(ms);
            for (acc, t) in step_us.iter_mut().zip(times) {
                *acc += t.as_secs_f64() * 1e6;
            }
            digest_us += digest_time.as_secs_f64() * 1e6;
            traced_ok += 1;
            traced_switches += stats.enters() - switches_before;
        } else {
            secret_ms.push(ms);
        }
    }
    let loop_secs = started.elapsed().as_secs_f64();
    let served = state
        .server
        .take()
        .map(VerifierServer::shutdown)
        .unwrap_or_default();
    let sessions_per_s = (out.attempted - out.failed) as f64 / loop_secs;

    out.setup_times(&setup_times);
    out.e2e.insert("latency_ms.p50".into(), median(&secret_ms));
    out.e2e
        .insert("latency_ms.tail".into(), percentile(&secret_ms, 90.0));
    out.e2e.insert("throughput_per_s".into(), sessions_per_s);

    out.detail(
        "failed_frac",
        out.failed_frac(),
        "ratio",
        Some(out.attempted as usize),
    );
    out.detail(
        "time_to_secret_ms.p50",
        median(&secret_ms),
        "ms",
        Some(secret_ms.len()),
    );
    out.detail(
        "time_to_secret_ms.p90",
        percentile(&secret_ms, 90.0),
        "ms",
        Some(secret_ms.len()),
    );
    out.detail(
        "sessions_per_s",
        sessions_per_s,
        "1/s",
        Some(out.attempted as usize),
    );
    out.detail("verifier_served", served.served as f64, "count", None);
    out.detail("verifier_rejected", served.rejected as f64, "count", None);

    if opts.trace {
        let n = traced_ok.max(1) as f64;
        for ((_, name), total) in STEPS.iter().zip(step_us) {
            out.layers.insert(format!("watz-wasi.{name}_us"), total / n);
        }
        out.layers
            .insert("watz-wasm.digest_us".into(), digest_us / n);
        out.layers.insert(
            "tz-hal.world_switches_per_session".into(),
            traced_switches as f64 / n,
        );
        out.layers
            .insert("watz-runtime.verifier_served".into(), served.served as f64);
        out.layers.insert(
            "watz-runtime.verifier_rejected".into(),
            served.rejected as f64,
        );
        finish_trace(&mut out, tr, &traced_ms, &secret_ms);
    }
    out.note("max_generator_threads", 1);
    out.note("max_client_connections", 1);
    out.note("secret_bytes", state.secret.len());
    Ok(out)
}
