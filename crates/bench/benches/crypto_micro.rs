//! Criterion micro-benchmarks of the cryptographic primitives backing the
//! attestation protocol (supporting data for Table III).

use criterion::{criterion_group, criterion_main, Criterion};
use watz_crypto::cmac::AesCmac;
use watz_crypto::ecdh::EphemeralKeyPair;
use watz_crypto::ecdsa::SigningKey;
use watz_crypto::fortuna::Fortuna;
use watz_crypto::gcm::AesGcm128;
use watz_crypto::p256::{AffinePoint, U256};
use watz_crypto::sha256::Sha256;

fn bench_crypto(c: &mut Criterion) {
    let mut g = c.benchmark_group("crypto");
    g.sample_size(10);

    g.bench_function("sha256_1mb", |b| {
        let data = vec![0u8; 1 << 20];
        b.iter(|| Sha256::digest(std::hint::black_box(&data)));
    });

    g.bench_function("cmac_209b_msg1", |b| {
        let mac = AesCmac::new(&[1u8; 16]);
        let msg = vec![0u8; 209];
        b.iter(|| mac.mac(std::hint::black_box(&msg)));
    });

    g.bench_function("gcm_encrypt_1mb", |b| {
        let cipher = AesGcm128::new(&[2u8; 16]);
        let data = vec![0u8; 1 << 20];
        b.iter(|| cipher.encrypt(&[0u8; 12], std::hint::black_box(&data), b""));
    });

    g.bench_function("ecdsa_sign", |b| {
        let mut rng = Fortuna::from_seed(b"bench");
        let key = SigningKey::generate(&mut rng);
        let digest = Sha256::digest(b"message");
        b.iter(|| key.sign_deterministic(std::hint::black_box(&digest)));
    });

    g.bench_function("ecdsa_verify", |b| {
        let mut rng = Fortuna::from_seed(b"bench");
        let key = SigningKey::generate(&mut rng);
        let digest = Sha256::digest(b"message");
        let sig = key.sign_deterministic(&digest);
        b.iter(|| {
            key.verifying_key()
                .verify(std::hint::black_box(&digest), &sig)
        });
    });

    g.bench_function("ecdhe_keygen", |b| {
        let mut rng = Fortuna::from_seed(b"bench");
        b.iter(|| EphemeralKeyPair::generate(std::hint::black_box(&mut rng)));
    });

    // Scalar multiplication, both paths: the precomputed fixed-base table
    // (keygen, signing, ECDHE public keys) and the 4-bit-window
    // variable-base routine (ECDH shared secret, u2·Q in verify).
    let k = U256::from_hex("bce6faada7179e84f3b9cac2fc632551ffffffff00000000ffffffffffffffff");
    g.bench_function("p256_mul_g_fixed_base", |b| {
        b.iter(|| AffinePoint::mul_base(std::hint::black_box(&k)));
    });
    g.bench_function("p256_mul_var", |b| {
        let q = AffinePoint::mul_base(&U256::from_hex("c0ffee"));
        b.iter(|| q.mul_scalar(std::hint::black_box(&k)));
    });

    g.bench_function("ecdh_shared", |b| {
        let mut rng = Fortuna::from_seed(b"bench");
        let local = EphemeralKeyPair::generate(&mut rng);
        let peer = EphemeralKeyPair::generate(&mut rng).public_bytes();
        b.iter(|| local.diffie_hellman(std::hint::black_box(&peer)));
    });

    g.finish();
}

criterion_group!(benches, bench_crypto);
criterion_main!(benches);
