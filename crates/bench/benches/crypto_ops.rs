//! Microbenchmarks of the cryptographic primitives — the per-operation
//! costs that explain Fig. 5's key-size behaviour.

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};

use pem_bignum::BigUint;
use pem_core::OtProfile;
use pem_crypto::drbg::HashDrbg;
use pem_crypto::ot::run_local_ot;
use pem_crypto::paillier::Keypair;
use pem_crypto::sha256;

fn paillier_ops(c: &mut Criterion) {
    let mut group = c.benchmark_group("paillier");
    for &bits in &[128usize, 256, 512] {
        let mut rng = HashDrbg::from_seed_label(b"bench-paillier", bits as u64);
        let kp = Keypair::generate(bits, &mut rng);
        let m = BigUint::from(123_456_789u64);
        let ct = kp.public().encrypt(&m, &mut rng);
        let ct2 = kp.public().encrypt(&m, &mut rng);

        group.bench_with_input(BenchmarkId::new("encrypt", bits), &bits, |b, _| {
            b.iter(|| kp.public().encrypt(&m, &mut rng))
        });
        group.bench_with_input(BenchmarkId::new("decrypt", bits), &bits, |b, _| {
            b.iter(|| kp.private().decrypt(&ct))
        });
        group.bench_with_input(BenchmarkId::new("add_ciphertexts", bits), &bits, |b, _| {
            b.iter(|| kp.public().add_ciphertexts(&ct, &ct2))
        });
        group.bench_with_input(BenchmarkId::new("mul_plain", bits), &bits, |b, _| {
            b.iter(|| kp.public().mul_plain(&ct, &BigUint::from(1u64 << 40)))
        });
    }
    group.finish();
}

fn keygen(c: &mut Criterion) {
    let mut group = c.benchmark_group("paillier_keygen");
    group.sample_size(10);
    for &bits in &[128usize, 256] {
        group.bench_with_input(BenchmarkId::from_parameter(bits), &bits, |b, &bits| {
            let mut i = 0u64;
            b.iter(|| {
                i += 1;
                let mut rng = HashDrbg::from_seed_label(b"bench-keygen", i);
                Keypair::generate(bits, &mut rng)
            })
        });
    }
    group.finish();
}

fn oblivious_transfer(c: &mut Criterion) {
    let mut group = c.benchmark_group("ot");
    // The group comes from the profile per call, as `run_compare`
    // obtains it.
    for (name, profile) in [
        ("test192", OtProfile::Test192),
        ("modp1024", OtProfile::Modp1024),
    ] {
        let mut rng = HashDrbg::from_seed_label(b"bench-ot", 0);
        group.bench_function(name, |b| {
            b.iter(|| {
                run_local_ot(&profile.group(), &[0u8; 16], &[1u8; 16], true, &mut rng).expect("ot")
            })
        });
    }
    group.finish();
}

fn hashing(c: &mut Criterion) {
    let data = vec![0xA5u8; 4096];
    c.bench_function("sha256_4k", |b| b.iter(|| sha256(&data)));
}

criterion_group!(benches, paillier_ops, keygen, oblivious_transfer, hashing);
criterion_main!(benches);
