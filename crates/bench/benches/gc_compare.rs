//! Garbled-circuit microbenchmarks: Protocol 2's secure-comparison term.

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};

use pem_circuit::compare::secure_less_than_local;
use pem_circuit::garble::{eval_garbled, garble, select_input_labels};
use pem_circuit::{comparator_circuit, u128_to_bits};
use pem_core::OtProfile;
use pem_crypto::drbg::HashDrbg;

fn garbling_cost(c: &mut Criterion) {
    let mut group = c.benchmark_group("garble_comparator");
    for &width in &[16usize, 32, 64, 128] {
        let circuit = comparator_circuit(width);
        group.bench_with_input(BenchmarkId::from_parameter(width), &width, |b, _| {
            let mut rng = HashDrbg::from_seed_label(b"bench-garble", width as u64);
            b.iter(|| garble(&circuit, &mut rng))
        });
    }
    group.finish();
}

fn evaluation_cost(c: &mut Criterion) {
    let mut group = c.benchmark_group("eval_garbled_comparator");
    for &width in &[16usize, 64, 128] {
        let circuit = comparator_circuit(width);
        let mut rng = HashDrbg::from_seed_label(b"bench-eval", width as u64);
        let (gc, secrets) = garble(&circuit, &mut rng);
        let labels = select_input_labels(
            &secrets,
            &u128_to_bits(12345 % (1 << width.min(63)), width),
            &u128_to_bits(54321 % (1 << width.min(63)), width),
        );
        group.bench_with_input(BenchmarkId::from_parameter(width), &width, |b, _| {
            b.iter(|| eval_garbled(&gc, &labels).expect("eval"))
        });
    }
    group.finish();
}

fn full_comparison_with_ot(c: &mut Criterion) {
    let mut group = c.benchmark_group("secure_compare_2pc");
    group.sample_size(10);
    // The group comes from the profile per comparison, as `run_compare`
    // obtains it.
    let profile = OtProfile::Test192;
    for &width in &[16usize, 64] {
        group.bench_with_input(BenchmarkId::from_parameter(width), &width, |b, &width| {
            let mut rng = HashDrbg::from_seed_label(b"bench-2pc", width as u64);
            b.iter(|| {
                secure_less_than_local(1000, 2000, width, &profile.group(), &mut rng)
                    .expect("compare")
            })
        });
    }
    group.finish();
}

criterion_group!(
    benches,
    garbling_cost,
    evaluation_cost,
    full_comparison_with_ot
);
criterion_main!(benches);
