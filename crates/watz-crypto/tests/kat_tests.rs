//! Known-answer tests for the cryptographic primitives, against published
//! vectors: FIPS 197 (AES), the NIST GCM reference vectors, RFC 4493
//! (AES-CMAC), FIPS 180-4 / NIST examples (SHA-256) and RFC 4231
//! (HMAC-SHA256) and NIST CAVS ECC CDH (P-256 ECDH). The SP 800-108 CMAC-mode KDF (the paper's SGX-style
//! derivation) is checked structurally against the KAT-verified CMAC.

use watz_crypto::aes::Aes;
use watz_crypto::cmac::{aes_cmac, AesCmac};
use watz_crypto::ecdh::EphemeralKeyPair;
use watz_crypto::gcm::AesGcm128;
use watz_crypto::hmac::hmac_sha256;
use watz_crypto::kdf::{derive_kdk, derive_key, derive_session_keys};
use watz_crypto::p256::U256;
use watz_crypto::sha256::Sha256;

fn unhex(s: &str) -> Vec<u8> {
    assert!(s.len().is_multiple_of(2), "odd hex length");
    (0..s.len())
        .step_by(2)
        .map(|i| u8::from_str_radix(&s[i..i + 2], 16).unwrap())
        .collect()
}

fn unhex16(s: &str) -> [u8; 16] {
    unhex(s).try_into().unwrap()
}

fn unhex32(s: &str) -> [u8; 32] {
    unhex(s).try_into().unwrap()
}

// ---------------------------------------------------------------------------
// SHA-256 (FIPS 180-4 examples + NIST short-message vectors)
// ---------------------------------------------------------------------------

#[test]
fn sha256_empty_message() {
    assert_eq!(
        Sha256::digest(b""),
        unhex32("e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855")
    );
}

#[test]
fn sha256_abc() {
    assert_eq!(
        Sha256::digest(b"abc"),
        unhex32("ba7816bf8f01cfea414140de5dae2223b00361a396177a9cb410ff61f20015ad")
    );
}

#[test]
fn sha256_two_block_message() {
    assert_eq!(
        Sha256::digest(b"abcdbcdecdefdefgefghfghighijhijkijkljklmklmnlmnomnopnopq"),
        unhex32("248d6a61d20638b8e5c026930c3e6039a33ce45964ff2167f6ecedd419db06c1")
    );
}

#[test]
fn sha256_million_a() {
    let data = vec![b'a'; 1_000_000];
    assert_eq!(
        Sha256::digest(&data),
        unhex32("cdc76e5c9914fb9281a1c7e284d73e67f1809a48a497200e046d39ccc7112cd0")
    );
}

#[test]
fn sha256_streaming_matches_one_shot() {
    let data = b"abcdbcdecdefdefgefghfghighijhijkijkljklmklmnlmnomnopnopq";
    let mut h = Sha256::new();
    for chunk in data.chunks(7) {
        h.update(chunk);
    }
    assert_eq!(h.finalize(), Sha256::digest(data));
}

// ---------------------------------------------------------------------------
// AES block cipher (FIPS 197 appendix C)
// ---------------------------------------------------------------------------

#[test]
fn aes128_fips197_example() {
    let key = unhex16("000102030405060708090a0b0c0d0e0f");
    let pt = unhex16("00112233445566778899aabbccddeeff");
    let aes = Aes::new_128(&key);
    let ct = aes.encrypt(&pt);
    assert_eq!(ct, unhex16("69c4e0d86a7b0430d8cdb78070b4c55a"));
    let mut back = ct;
    aes.decrypt_block(&mut back);
    assert_eq!(back, pt);
}

#[test]
fn aes256_fips197_example() {
    let key = unhex32("000102030405060708090a0b0c0d0e0f101112131415161718191a1b1c1d1e1f");
    let pt = unhex16("00112233445566778899aabbccddeeff");
    let aes = Aes::new_256(&key);
    assert_eq!(
        aes.encrypt(&pt),
        unhex16("8ea2b7ca516745bfeafc49904b496089")
    );
}

// ---------------------------------------------------------------------------
// AES-128-GCM (NIST GCM reference test cases 1-4)
// ---------------------------------------------------------------------------

#[test]
fn gcm_nist_case1_empty() {
    let cipher = AesGcm128::new(&[0u8; 16]);
    let (ct, tag) = cipher.encrypt(&[0u8; 12], b"", b"");
    assert!(ct.is_empty());
    assert_eq!(tag, unhex16("58e2fccefa7e3061367f1d57a4e7455a"));
}

#[test]
fn gcm_nist_case2_one_block() {
    let cipher = AesGcm128::new(&[0u8; 16]);
    let (ct, tag) = cipher.encrypt(&[0u8; 12], &[0u8; 16], b"");
    assert_eq!(ct, unhex("0388dace60b6a392f328c2b971b2fe78"));
    assert_eq!(tag, unhex16("ab6e47d42cec13bdf53a67b21257bddf"));
}

#[test]
fn gcm_nist_case3_four_blocks() {
    let key = unhex16("feffe9928665731c6d6a8f9467308308");
    let iv: [u8; 12] = unhex("cafebabefacedbaddecaf888").try_into().unwrap();
    let pt = unhex(
        "d9313225f88406e5a55909c5aff5269a86a7a9531534f7da2e4c303d8a318a72\
         1c3c0c95956809532fcf0e2449a6b525b16aedf5aa0de657ba637b391aafd255",
    );
    let cipher = AesGcm128::new(&key);
    let (ct, tag) = cipher.encrypt(&iv, &pt, b"");
    assert_eq!(
        ct,
        unhex(
            "42831ec2217774244b7221b784d0d49ce3aa212f2c02a4e035c17e2329aca12e\
             21d514b25466931c7d8f6a5aac84aa051ba30b396a0aac973d58e091473f5985"
        )
    );
    assert_eq!(tag, unhex16("4d5c2af327cd64a62cf35abd2ba6fab4"));
}

#[test]
fn gcm_nist_case4_with_aad() {
    let key = unhex16("feffe9928665731c6d6a8f9467308308");
    let iv: [u8; 12] = unhex("cafebabefacedbaddecaf888").try_into().unwrap();
    let pt = unhex(
        "d9313225f88406e5a55909c5aff5269a86a7a9531534f7da2e4c303d8a318a72\
         1c3c0c95956809532fcf0e2449a6b525b16aedf5aa0de657ba637b39",
    );
    let aad = unhex("feedfacedeadbeeffeedfacedeadbeefabaddad2");
    let cipher = AesGcm128::new(&key);
    let (ct, tag) = cipher.encrypt(&iv, &pt, &aad);
    assert_eq!(
        ct,
        unhex(
            "42831ec2217774244b7221b784d0d49ce3aa212f2c02a4e035c17e2329aca12e\
             21d514b25466931c7d8f6a5aac84aa051ba30b396a0aac973d58e091"
        )
    );
    assert_eq!(tag, unhex16("5bc94fbc3221a5db94fae95ae7121a47"));

    // Decrypt round-trip, then tamper rejection on each input.
    assert_eq!(cipher.decrypt(&iv, &ct, &aad, &tag).unwrap(), pt);
    let mut bad_tag = tag;
    bad_tag[0] ^= 1;
    assert!(cipher.decrypt(&iv, &ct, &aad, &bad_tag).is_err());
    let mut bad_ct = ct.clone();
    bad_ct[0] ^= 1;
    assert!(cipher.decrypt(&iv, &bad_ct, &aad, &tag).is_err());
    assert!(cipher.decrypt(&iv, &ct, b"", &tag).is_err());
}

// ---------------------------------------------------------------------------
// AES-CMAC (RFC 4493 section 4)
// ---------------------------------------------------------------------------

const CMAC_KEY: &str = "2b7e151628aed2a6abf7158809cf4f3c";
const CMAC_MSG: &str = "6bc1bee22e409f96e93d7e117393172a\
                        ae2d8a571e03ac9c9eb76fac45af8e51\
                        30c81c46a35ce411e5fbc1191a0a52ef\
                        f69f2445df4f9b17ad2b417be66c3710";

#[test]
fn cmac_rfc4493_vectors() {
    let mac = AesCmac::new(&unhex16(CMAC_KEY));
    let msg = unhex(CMAC_MSG);
    assert_eq!(
        mac.mac(&msg[..0]),
        unhex16("bb1d6929e95937287fa37d129b756746")
    );
    assert_eq!(
        mac.mac(&msg[..16]),
        unhex16("070a16b46b4d4144f79bdd9dd04a287c")
    );
    assert_eq!(
        mac.mac(&msg[..40]),
        unhex16("dfa66747de9ae63030ca32611497c827")
    );
    assert_eq!(
        mac.mac(&msg[..64]),
        unhex16("51f0bebf7e3b9d92fc49741779363cfe")
    );
}

#[test]
fn cmac_free_function_agrees() {
    let key = unhex16(CMAC_KEY);
    let msg = unhex(CMAC_MSG);
    assert_eq!(aes_cmac(&key, &msg), AesCmac::new(&key).mac(&msg));
}

// ---------------------------------------------------------------------------
// HMAC-SHA256 (RFC 4231 test cases 1 and 2)
// ---------------------------------------------------------------------------

#[test]
fn hmac_sha256_rfc4231_case1() {
    assert_eq!(
        hmac_sha256(&[0x0b; 20], b"Hi There"),
        unhex32("b0344c61d8db38535ca8afceaf0bf12b881dc200c9833da726e9376c2e32cff7")
    );
}

#[test]
fn hmac_sha256_rfc4231_case2() {
    assert_eq!(
        hmac_sha256(b"Jefe", b"what do ya want for nothing?"),
        unhex32("5bdcc146bf60754e6a042426089575c75a003f089d2739839dec58b964ec3843")
    );
}

// ---------------------------------------------------------------------------
// SP 800-108 CMAC-mode KDF (Intel SGX-style chain, checked against the
// RFC-4493-verified CMAC primitive)
// ---------------------------------------------------------------------------

#[test]
fn kdf_kdk_is_cmac_of_little_endian_secret() {
    let secret = unhex32("000102030405060708090a0b0c0d0e0f101112131415161718191a1b1c1d1e1f");
    let mut le = secret;
    le.reverse();
    assert_eq!(derive_kdk(&secret), aes_cmac(&[0u8; 16], &le));
}

#[test]
fn kdf_label_encoding_matches_sp800_108() {
    let kdk = unhex16(CMAC_KEY);
    // 0x01 counter || label || 0x00 separator || 0x0080 output bits (LE).
    let mut msg = vec![0x01];
    msg.extend_from_slice(b"SMK");
    msg.extend_from_slice(&[0x00, 0x80, 0x00]);
    assert_eq!(derive_key(&kdk, "SMK"), aes_cmac(&kdk, &msg));
}

#[test]
fn kdf_session_keys_match_manual_chain() {
    let secret = [0x42u8; 32];
    let keys = derive_session_keys(&secret);
    let kdk = derive_kdk(&secret);
    assert_eq!(keys.km, derive_key(&kdk, "SMK"));
    assert_eq!(keys.ke, derive_key(&kdk, "SK"));
    assert_ne!(keys.km, keys.ke);
}

// ---------------------------------------------------------------------------
// P-256 ECDH (NIST CAVS 14.1 ECC CDH primitive, KAS_ECC_CDH_PrimitiveTest,
// curve P-256, COUNT = 0)
// ---------------------------------------------------------------------------

#[test]
fn ecdh_p256_nist_cavs_count0() {
    let d_iut = U256::from_be_bytes(&unhex32(
        "7d7dc5f71eb29ddaf80d6214632eeae03d9058af1fb6d22ed80badb62bc1a534",
    ));
    let q_cavs = [
        unhex("700c48f77f56584c5cc632ca65640db91b6bacce3a4df6b42ce7cc838833d287"),
        unhex("db71e509e3fd9b060ddb20ba5c51dcc5948d46fbf640dfe0441782cab85fa4ac"),
    ]
    .concat();
    let q_iut = [
        unhex("ead218590119e8876b29146ff89ca61770c4edbbf97d38ce385ed281d8a6b230"),
        unhex("28af61281fd35e2fa7002523acc85a429cb06ee6648325389f59edfce1405141"),
    ]
    .concat();
    let pair = EphemeralKeyPair::from_scalar(d_iut).unwrap();
    assert_eq!(pair.public_bytes().to_vec(), q_iut);
    let shared = pair.diffie_hellman(&q_cavs.try_into().unwrap()).unwrap();
    assert_eq!(
        shared,
        unhex32("46fc62106420ff012e54a434fbdd2d25ccc5852060561e68040dd7778997bd7b")
    );
}
