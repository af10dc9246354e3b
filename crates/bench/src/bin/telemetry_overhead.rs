//! No-op telemetry overhead on the crypto hot rows — the guard rail
//! behind the "zero-cost when off" claim in `pem-telemetry`.
//!
//! Each hot kernel (`encrypt_pooled`, `add_ciphertexts`,
//! `mul_plain_small`) is measured interleaved against the same kernel
//! wrapped in a full instrumentation shell — a [`pem_telemetry::Span`]
//! guard plus a [`pem_telemetry::Counter`] bump — with the collector
//! **uninstalled**, so every telemetry call takes its inert branch.
//! The pair runs three times and the *minimum* overhead is kept
//! (scheduler noise only ever inflates a ratio); the binary exits
//! non-zero if any row's minimum overhead reaches 2%.
//!
//! ```text
//! cargo run --release -p pem-bench --bin telemetry_overhead -- \
//!     --bits 512 --min-time-ms 200 --run-label dev
//! ```
//!
//! Output: one JSON trajectory run (`{"entries": […], "run": …}`) in
//! the `BENCH_crypto.json` shape on stdout, and a human-readable table
//! on stderr.

use std::time::Instant;

use pem_bench::json::Json;
use pem_bench::{rounded, trajectory_run, Args};
use pem_bignum::BigUint;
use pem_crypto::drbg::HashDrbg;
use pem_crypto::paillier::{Ciphertext, Keypair, PublicKey, Randomizer};
use pem_telemetry::{Counter, Span};

static BENCH_OPS: Counter = Counter::new();

/// One hot row: mean latency bare vs instrumented, min-of-3 overhead.
struct Row {
    name: &'static str,
    bare_mean_us: f64,
    instr_mean_us: f64,
    overhead_pct: f64,
}

/// One interleaved bare/instrumented pass; returns mean µs per call
/// for each side. Interleaving keeps clock drift and scheduler noise
/// symmetric — the only trustworthy way to take a ratio on a shared
/// box (see `crypto_kernels.rs`).
fn measure_pair<F: FnMut(u64)>(min_time_ms: u64, mut op: F) -> (f64, f64) {
    op(0); // warm-up
    let mut bare = 0f64;
    let mut instr = 0f64;
    let mut iters = 0u64;
    let start = Instant::now();
    while start.elapsed().as_millis() < 2 * min_time_ms as u128 || iters < 3 {
        let t0 = Instant::now();
        op(iters);
        bare += t0.elapsed().as_secs_f64();
        let t1 = Instant::now();
        {
            let span = Span::enter("bench/op", "bench");
            BENCH_OPS.incr();
            op(iters);
            span.finish();
        }
        instr += t1.elapsed().as_secs_f64();
        iters += 1;
    }
    (bare * 1e6 / iters as f64, instr * 1e6 / iters as f64)
}

/// Min-of-3 overhead for one kernel.
fn row<F: FnMut(u64)>(name: &'static str, min_time_ms: u64, mut op: F) -> Row {
    let mut best: Option<(f64, f64, f64)> = None;
    for _ in 0..3 {
        let (bare, instr) = measure_pair(min_time_ms, &mut op);
        let pct = (instr / bare - 1.0) * 100.0;
        if best.is_none_or(|(_, _, b)| pct < b) {
            best = Some((bare, instr, pct));
        }
    }
    let (bare_mean_us, instr_mean_us, overhead_pct) = best.expect("three passes ran");
    Row {
        name,
        bare_mean_us,
        instr_mean_us,
        overhead_pct,
    }
}

struct Fixture {
    pk: PublicKey,
    cts: Vec<Ciphertext>,
    randomizers: Vec<Randomizer>,
    messages: Vec<BigUint>,
    small_scalar: BigUint,
}

fn fixture(bits: usize, variants: usize) -> Fixture {
    let mut rng = HashDrbg::from_seed_label(b"telemetry-overhead", bits as u64);
    let kp = Keypair::generate(bits, &mut rng);
    let pk = kp.public().clone();
    let messages: Vec<BigUint> = (0..variants)
        .map(|i| BigUint::from(1_000_003u64 * (i as u64 + 1)))
        .collect();
    let cts = messages.iter().map(|m| pk.encrypt(m, &mut rng)).collect();
    let randomizers = pk.precompute_randomizers(variants, &mut rng);
    Fixture {
        pk,
        cts,
        randomizers,
        messages,
        small_scalar: BigUint::from((1u64 << 26) + 12345),
    }
}

fn bench_bits(bits: usize, min_time_ms: u64) -> Vec<Row> {
    let fx = fixture(bits, 8);
    let pick = |i: u64| (i % fx.cts.len() as u64) as usize;
    vec![
        row("encrypt_pooled", min_time_ms, |i| {
            let _ = fx
                .pk
                .try_encrypt_with(&fx.messages[pick(i)], &fx.randomizers[pick(i)])
                .expect("in range");
        }),
        row("add_ciphertexts", min_time_ms, |i| {
            let _ = fx
                .pk
                .add_ciphertexts(&fx.cts[pick(i)], &fx.cts[pick(i + 1)]);
        }),
        row("mul_plain_small", min_time_ms, |i| {
            let _ = fx.pk.mul_plain(&fx.cts[pick(i)], &fx.small_scalar);
        }),
    ]
}

/// The trajectory run: one entry at `bits` carrying every row.
fn json(label: &str, bits: usize, rows: &[Row]) -> Json {
    let mut fields = vec![("key_bits".to_string(), bits.into())];
    for r in rows {
        for (figure, v) in [
            ("bare_mean_us", r.bare_mean_us),
            ("instr_mean_us", r.instr_mean_us),
            ("overhead_pct", r.overhead_pct),
        ] {
            fields.push((format!("{}_{figure}", r.name), rounded(v, 2).into()));
        }
    }
    trajectory_run(label, vec![Json::obj(fields)])
}

fn main() {
    let args = Args::from_env();
    let bits = args.get_usize("bits", 512);
    let min_time_ms = args.get_u64("min-time-ms", 200);
    let label = args.get_str("run-label", "dev");

    assert!(
        !pem_telemetry::enabled(),
        "collector must be uninstalled: this binary measures the no-op path"
    );
    let rows = bench_bits(bits, min_time_ms);

    // The JSON run alone on stdout, so a redirect is a valid artifact;
    // the human table goes to stderr.
    println!("{}", json(&label, bits, &rows));
    eprintln!("key_bits  kernel            bare(µs)  instrumented(µs)  overhead");
    let mut failed = false;
    for r in &rows {
        eprintln!(
            "{:>8}  {:<16} {:>9.2}  {:>16.2}  {:>+7.2}%",
            bits, r.name, r.bare_mean_us, r.instr_mean_us, r.overhead_pct
        );
        if r.overhead_pct >= 2.0 {
            eprintln!(
                "FAIL: {} no-op telemetry overhead {:.2}% >= 2% budget",
                r.name, r.overhead_pct
            );
            failed = true;
        }
    }
    if failed {
        std::process::exit(1);
    }
    eprintln!("\nno-op telemetry overhead within the 2% budget on all rows");
}
