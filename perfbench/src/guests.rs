//! The guest programs the workloads load and run, their input sizes and
//! their independent reference results.

use watz_wasm::exec::{ExecMode, Instance, NoHost, Value};
use workloads::polybench;

/// The WASI-RA guest: attests through the four WASI-RA calls (Tab IV),
/// receives the secret into a buffer it allocates once, and checksums it.
pub const RA_GUEST: &str = r#"
    extern int ra_handshake(int port, int key_ptr);
    extern int ra_collect_quote(int ctx);
    extern int ra_dispose_quote(int quote);
    extern int ra_send_quote(int ctx, int quote);
    extern int ra_receive_data(int ctx, int buf, int len);
    extern int ra_dispose(int ctx);
    int key_addr = 0;
    int buf = 0; int buf_len = 0;
    int ctx = 0; int quote = 0;
    int set_key_buf() { key_addr = (int)alloc(64); return key_addr; }
    int buf_init(int len) { buf = (int)alloc(len); buf_len = len; return buf; }
    int do_handshake(int port) { ctx = ra_handshake(port, key_addr); return ctx; }
    int do_collect() { quote = ra_collect_quote(ctx); return quote; }
    int do_send() { return ra_send_quote(ctx, quote); }
    int do_receive() { return ra_receive_data(ctx, buf, buf_len); }
    int digest(int len) {
        int h = 0; int i;
        for (i = 0; i < len; i = i + 1) { h = h * 31 + lb(buf + i); }
        return h;
    }
    int finish() {
        int a = ra_dispose_quote(quote);
        int b = ra_dispose(ctx);
        return a + b;
    }
"#;

/// The checksum `digest` computes in the guest, computed natively.
#[must_use]
pub fn digest(bytes: &[u8]) -> i32 {
    bytes
        .iter()
        .fold(0i32, |h, &b| h.wrapping_mul(31).wrapping_add(i32::from(b)))
}

/// Genann training set: a fixed slice of the Iris-like data (300 samples).
#[must_use]
pub fn genann_samples() -> Vec<genann_rs::iris::Sample> {
    genann_rs::iris::dataset_with(100)
}

/// Each PolyBench kernel in `guest_compute`: problem size, chosen so one
/// `WatzApp::invoke` takes about 2 ms, and the reference time of its
/// native twin at that size in µs. Both are fixed here, not calibrated at
/// run time, so every run does the same work and reports on the same
/// scale. The reference times are the medians of ten 25 s runs on a
/// 2-core x86-64 host (Intel Xeon, shared); see [`reference_ms`].
const KERNELS: [(&str, i32, f64); 30] = [
    ("2mm", 28, 75.6),
    ("3mm", 24, 102.7),
    ("adi", 54, 37.0),
    ("atax", 114, 78.2),
    ("bicg", 108, 78.8),
    ("cholesky", 56, 81.5),
    ("correlation", 38, 63.6),
    ("covariance", 38, 54.2),
    ("deriche", 80, 63.0),
    ("doitgen", 14, 68.7),
    ("durbin", 182, 34.8),
    ("fdtd-2d", 42, 41.4),
    ("floyd-warshall", 36, 89.6),
    ("gemm", 32, 40.1),
    ("gesummv", 98, 84.3),
    ("gemver", 84, 83.0),
    ("gramschmidt", 32, 54.0),
    ("heat-3d", 14, 53.1),
    ("jacobi-1d", 3000, 22.3),
    ("jacobi-2d", 46, 41.7),
    ("lu", 46, 79.1),
    ("ludcmp", 46, 97.9),
    ("mvt", 104, 100.2),
    ("nussinov", 62, 138.0),
    ("seidel-2d", 48, 102.2),
    ("symm", 36, 57.9),
    ("syr2k", 34, 68.0),
    ("syrk", 38, 65.2),
    ("trisolv", 140, 79.0),
    ("trmm", 42, 92.3),
];

/// Reference time of the native Genann epoch, in µs (as [`KERNELS`]).
const GENANN_NATIVE_REF_US: f64 = 214.4;

/// Problem size of PolyBench kernels on the cold-start path: the first
/// invoke stays a small share of startup.
pub const COLD_START_N: i32 = 10;

/// Problem size at the self-test scale.
pub const TINY_N: i32 = 10;

/// The `guest_compute` program names: the 30 PolyBench kernels, then
/// `genann`.
#[must_use]
pub fn compute_programs() -> Vec<&'static str> {
    polybench::suite()
        .iter()
        .map(|k| k.name)
        .chain(std::iter::once("genann"))
        .collect()
}

/// The `guest_compute` problem size of a PolyBench kernel.
#[must_use]
pub fn kernel_n(name: &str) -> Option<i32> {
    KERNELS
        .iter()
        .find(|(k, ..)| *k == name)
        .map(|(_, n, _)| *n)
}

/// The reference time of a `guest_compute` program's native twin, in ms.
///
/// The host this benchmark runs on is shared, and its speed swings by a
/// third within a minute; a guest invoke and its native twin, run back to
/// back, swing together. `guest_compute` therefore reports each invoke as
/// its time over its twin's times this reference: guest milliseconds at a
/// fixed host speed. Only the guest side can change that ratio — the
/// native twins are the baseline, not code WaTZ runs.
#[must_use]
pub fn reference_ms(program: &str) -> Option<f64> {
    if program == "genann" {
        return Some(GENANN_NATIVE_REF_US / 1e3);
    }
    KERNELS
        .iter()
        .find(|(k, ..)| *k == program)
        .map(|(_, _, us)| us / 1e3)
}

/// Passes over the native PolyBench twins in one [`host_slowdown`].
const CALIBRATION_PASSES: usize = 4;

/// How much slower the host runs right now than the reference host: the
/// time of [`CALIBRATION_PASSES`] passes over the 30 native PolyBench twins
/// at their `guest_compute` sizes, over the sum of their reference times
/// (about 9 ms). A time measured next to a calibration, divided by its
/// slowdown, is at the reference host speed. The twins are the baseline,
/// not code WaTZ runs, so no change to WaTZ moves the slowdown.
#[must_use]
pub fn host_slowdown() -> f64 {
    let start = std::time::Instant::now();
    let mut reference_us = 0.0;
    let mut acc = 0.0;
    for _ in 0..CALIBRATION_PASSES {
        for k in polybench::suite() {
            if let Some((_, n, us)) = KERNELS.iter().find(|(name, ..)| *name == k.name) {
                acc += (k.native)(std::hint::black_box(*n as usize));
                reference_us += us;
            }
        }
    }
    std::hint::black_box(acc);
    start.elapsed().as_secs_f64() * 1e6 / reference_us
}

/// Compiles the Genann guest (8 MB initial memory, as Fig 8 uses).
///
/// # Errors
///
/// A compile error.
pub fn genann_wasm() -> Result<Vec<u8>, String> {
    minic::compile_with_options(
        &workloads::genann_guest::source(),
        &minic::Options {
            min_pages: 128,
            max_pages: None,
        },
    )
    .map_err(|e| format!("genann guest: {e}"))
}

/// Compiles the WASI-RA guest.
///
/// # Errors
///
/// A compile error.
pub fn ra_guest_wasm() -> Result<Vec<u8>, String> {
    minic::compile(RA_GUEST).map_err(|e| format!("WASI-RA guest: {e}"))
}

/// Compiles a PolyBench kernel.
///
/// # Errors
///
/// A compile error.
pub fn kernel_wasm(k: &polybench::Kernel) -> Result<Vec<u8>, String> {
    minic::compile(k.minic).map_err(|e| format!("{}: {e}", k.name))
}

/// Runs `export(args)` on the tree-walking interpreter — the engine
/// oracle that shares no lowering code with the AOT rungs WaTZ runs — and
/// returns its result, for guests whose result has no native twin.
///
/// # Errors
///
/// A load error or trap.
pub fn oracle(wasm: &[u8], export: &str, args: &[Value]) -> Result<Vec<Value>, String> {
    let module = watz_wasm::load(wasm).map_err(|e| e.to_string())?;
    let mut inst = Instance::instantiate(&module, ExecMode::Interpreted, &mut NoHost)
        .map_err(|e| e.to_string())?;
    inst.invoke(&mut NoHost, export, args)
        .map_err(|e| e.to_string())
}

/// True when a guest's f64 result matches its native reference to 1e-9
/// relative (the tolerance the workloads crate's differential test uses).
#[must_use]
pub fn f64_matches(guest: &[Value], native: f64) -> bool {
    match guest {
        [Value::F64(v)] => native.is_finite() && (v - native).abs() <= native.abs().max(1.0) * 1e-9,
        _ => false,
    }
}
