//! Per-kernel Paillier throughput at the paper's key sizes — the crypto
//! half of the repo's perf trajectory (`BENCH_crypto.json`).
//!
//! Measures ops/sec for every kernel the protocols bottom out in: key
//! generation, encryption (the one `h_s^x` randomizer lane, fresh and
//! pooled, against the classic `r^n` ladder kept as its reference —
//! `grid_doctor` holds `encrypt` under 0.25 × `encrypt_classic` within
//! each run at 1024- and 2048-bit keys), ciphertext validation (the
//! unit check every received ciphertext takes — `grid_doctor` holds
//! `validate` under `encrypt` at every key size), randomizer precompute,
//! the homomorphic operators (including the fused `affine`
//! against its unfused `mul_plain` + `add_plain` chain and the
//! power-of-two squaring path), raw vs comb fixed-base exponentiation,
//! and decryption on both CRT legs (`decrypt_crt`, `decrypt_batch`), on
//! the one leg a plaintext below `2^128` needs (`decrypt_u128` —
//! `grid_doctor` holds it under 0.6 × `decrypt_crt` within each run at
//! 1024- and 2048-bit keys) and on the classic full-width path (the
//! pre-overhaul kernel, kept as the speedup baseline). After
//! the key-size entries come the comparison rows, one entry per OT group,
//! each comparison on a group obtained the way `run_compare` obtains it
//! — `OtProfile::group()` per call. At `test192`: `ot_single` (one
//! 1-of-2 OT — a batch of one), `compare_64` (Protocol 2's whole 64-bit
//! garbled comparison: one batch of 32 1-of-4 OTs under one sender key)
//! and `ot_ladder_full`, one full-width `B^x` in the group, interleaved
//! with `compare_64`. At `ed25519`, the curve the paper profiles run
//! their OT on: its kernels `scalar_mul` (one variable-base
//! multiplication, interleaved with `compare_64`), `fixed_base` (one off
//! the basepoint's comb table) and `decode` (one RFC 8032 decode), then
//! `ot_single`, `compare_64` and `compare_37` (the width a coalition of
//! 12 compares at). `grid_doctor` holds `compare_64` under 0.75 × 64 ×
//! `ot_single` (0.9 at `test192`) and, at `ed25519`, under 2.5 × 32 ×
//! `scalar_mul` within each run. Next, one entry for the garbled
//! comparator itself (`gc_width: 64`): `garble_64` and `eval_64` time
//! garbling and evaluating the 64-bit unsigned comparator
//! (`comparator_circuit`, the borrow chain Protocol 2's wrapped
//! comparator is built on), and the deterministic `gc_table_bytes_64`
//! counts the AND-table bytes a garbling ships — `grid_doctor` holds it
//! at two 16-byte half-gates rows per AND of a 64-AND comparator — and
//! the deterministic
//! `compare_37_wire_bytes` totals the three frames Protocol 2 sends for
//! one 37-bit comparison on edwards25519 (`eval/gc-offer`,
//! `eval/gc-ot-request`, `eval/gc-ot-transfer`: 33 + 609 + 2,932 =
//! 3,574). Both `compare_37` rows are named for the width they run, so
//! a later width is a new row, never a run-over-run step of this one. Last come the Montgomery kernel rows every figure
//! above is a multiple of: `mont_mul_ns` / `mont_sqr_ns`, one entry per
//! limb count (3, 4, 16, 32, 64 — the toy-key and test-group widths,
//! `p²` at 1024-bit keys, `n²` at 1024- and 2048-bit keys).
//!
//! ```text
//! cargo run --release -p pem-bench --bin crypto_kernels -- \
//!     --bits 512,1024,2048 --min-time-ms 300 --run-label dev
//! ```
//!
//! Output: one JSON *trajectory run* (`{"entries": […], "run": …}`, an
//! entry per key size, one per OT group, one per kernel width) on one
//! line of stdout, and a human-readable table on stderr. CI runs a
//! reduced smoke sweep and uploads the JSON; `BENCH_crypto.json` at the
//! repo root pins the committed trajectory — an array of such runs, one
//! per engine generation.

use std::time::Instant;

use pem_bench::json::Json;
use pem_bench::{rounded, trajectory_run, Args};
use pem_bignum::{BigUint, Montgomery};
use pem_circuit::compare::secure_less_than_local;
use pem_circuit::garble::{eval_garbled, garble, select_input_labels};
use pem_circuit::{comparator_circuit, u128_to_bits};
use pem_core::protocol2::frame_bytes;
use pem_core::quantize::compare_width;
use pem_core::OtProfile;
use pem_crypto::drbg::HashDrbg;
use pem_crypto::ed25519::{basepoint_table, EdwardsPoint, Scalar};
use pem_crypto::ot::{run_local_ot, DhGroup, Ed25519};
use pem_crypto::paillier::{Ciphertext, Keypair, PrivateKey, PublicKey, Randomizer};
use pem_telemetry::json_object;

/// One measured kernel: mean latency and throughput.
struct Kernel {
    name: &'static str,
    ops_per_s: f64,
    mean_us: f64,
}

/// Runs `op` repeatedly until `min_time_ms` of wall clock accumulates
/// (at least 3 iterations), returning the throughput figures.
fn measure<F: FnMut(u64)>(name: &'static str, min_time_ms: u64, op: F) -> Kernel {
    measure_at_least(name, min_time_ms, 3, op)
}

/// [`measure`] with a caller-chosen iteration floor, for rows whose
/// single calls vary too much for three to mean anything (key
/// generation: a prime search per call).
fn measure_at_least<F: FnMut(u64)>(
    name: &'static str,
    min_time_ms: u64,
    min_iters: u64,
    mut op: F,
) -> Kernel {
    op(0); // warm-up (first call may lazily build contexts)
    let start = Instant::now();
    let mut iters = 0u64;
    while start.elapsed().as_millis() < min_time_ms as u128 || iters < min_iters {
        op(iters);
        iters += 1;
    }
    let elapsed = start.elapsed().as_secs_f64();
    Kernel {
        name,
        ops_per_s: iters as f64 / elapsed,
        mean_us: elapsed * 1e6 / iters as f64,
    }
}

/// Measures two kernels *interleaved* in one loop, so clock drift and
/// scheduler noise hit both sides equally — the only trustworthy way to
/// take a ratio on a shared box. `ops_a`/`ops_b` scale one call of each
/// closure to reported ops (e.g. a batch call covering 8 items).
fn measure_pair<F: FnMut(u64), G: FnMut(u64)>(
    names: (&'static str, &'static str),
    min_time_ms: u64,
    ops_per_call: (f64, f64),
    mut a: F,
    mut b: G,
) -> (Kernel, Kernel) {
    let [ka, kb] = measure_interleaved(
        [names.0, names.1],
        min_time_ms,
        [ops_per_call.0, ops_per_call.1],
        [&mut a, &mut b],
    );
    (ka, kb)
}

/// [`measure_pair`] over `K` kernels: one call of each per round, in
/// order, for at least `2 × min_time_ms` and three rounds.
fn measure_interleaved<const K: usize>(
    names: [&'static str; K],
    min_time_ms: u64,
    ops_per_call: [f64; K],
    mut ops: [&mut dyn FnMut(u64); K],
) -> [Kernel; K] {
    ops.iter_mut().for_each(|op| op(0)); // warm-up
    let mut spent = [0f64; K];
    let mut iters = 0u64;
    let start = Instant::now();
    while start.elapsed().as_millis() < 2 * min_time_ms as u128 || iters < 3 {
        for (op, t) in ops.iter_mut().zip(&mut spent) {
            let t0 = Instant::now();
            op(iters);
            *t += t0.elapsed().as_secs_f64();
        }
        iters += 1;
    }
    std::array::from_fn(|i| Kernel {
        name: names[i],
        ops_per_s: iters as f64 * ops_per_call[i] / spent[i],
        mean_us: spent[i] * 1e6 / (iters as f64 * ops_per_call[i]),
    })
}

struct SizeReport {
    key_bits: usize,
    keygen_ms: f64,
    kernels: Vec<Kernel>,
    /// Derived ratios: (json field name, value).
    speedups: Vec<(&'static str, f64)>,
}

/// Fixture material shared by every kernel measurement at one key size.
struct Fixture {
    pk: PublicKey,
    sk: PrivateKey,
    cts: Vec<Ciphertext>,
    randomizers: Vec<Randomizer>,
    small_scalar: BigUint,
    messages: Vec<BigUint>,
}

fn fixture(kp: &Keypair, variants: usize) -> Fixture {
    let pk = kp.public().clone();
    let mut rng = HashDrbg::from_seed_label(b"crypto-kernels", pk.bits() as u64);
    let messages: Vec<BigUint> = (0..variants)
        .map(|i| BigUint::from(1_000_003u64 * (i as u64 + 1)))
        .collect();
    let cts = messages.iter().map(|m| pk.encrypt(m, &mut rng)).collect();
    let randomizers = pk.precompute_randomizers(variants, &mut rng);
    Fixture {
        sk: kp.private().clone(),
        pk,
        cts,
        randomizers,
        // A quantized market scalar (≈ 2^26): the mul_plain fast path.
        small_scalar: BigUint::from((1u64 << 26) + 12345),
        messages,
    }
}

fn bench_size(bits: usize, min_time_ms: u64) -> SizeReport {
    let mut rng = HashDrbg::from_seed_label(b"crypto-kernels-key", bits as u64);
    let kp = Keypair::generate(bits, &mut rng);

    // Key `i` is the same key in every run: the mean is over a fixed
    // prefix of one key sequence, at least eight of them.
    let keygen = measure_at_least("keygen", min_time_ms, 8, |i| {
        let mut rng = HashDrbg::from_seed_label(b"bench-keygen", i);
        let _ = Keypair::generate(bits, &mut rng);
    });

    let fx = fixture(&kp, 8);
    let pick = |i: u64| (i % fx.cts.len() as u64) as usize;
    let mut kernels = Vec::new();

    {
        // The randomizer lane against the classic ladder it replaced,
        // interleaved: the within-run ratio `grid_doctor` gates.
        let mut rng = HashDrbg::new(b"bench-encrypt");
        let mut rng_classic = HashDrbg::new(b"bench-encrypt-classic");
        let (pk, ms) = (&fx.pk, &fx.messages);
        let (lane, classic) = measure_pair(
            ("encrypt", "encrypt_classic"),
            min_time_ms,
            (1.0, 1.0),
            |i| {
                let _ = pk.encrypt(&ms[pick(i)], &mut rng);
            },
            |i| {
                let _ = pk.try_encrypt_classic(&ms[pick(i)], &mut rng_classic);
            },
        );
        kernels.push(lane);
        kernels.push(classic);
    }
    kernels.push(measure("validate", min_time_ms, |i| {
        fx.pk
            .validate_ciphertext(&fx.cts[pick(i)])
            .expect("a fresh ciphertext is valid");
    }));
    kernels.push(measure("encrypt_pooled", min_time_ms, |i| {
        let _ = fx
            .pk
            .try_encrypt_with(&fx.messages[pick(i)], &fx.randomizers[pick(i)])
            .expect("in range");
    }));
    kernels.push(measure("add_ciphertexts", min_time_ms, |i| {
        let _ = fx
            .pk
            .add_ciphertexts(&fx.cts[pick(i)], &fx.cts[pick(i + 1)]);
    }));
    kernels.push(measure("add_plain", min_time_ms, |i| {
        let _ = fx.pk.add_plain(&fx.cts[pick(i)], &fx.messages[pick(i + 1)]);
    }));
    kernels.push(measure("mul_plain_small", min_time_ms, |i| {
        let _ = fx.pk.mul_plain(&fx.cts[pick(i)], &fx.small_scalar);
    }));
    {
        // Power-of-two scalar: the squaring-chain fast path at the same
        // magnitude as the quantized small_scalar row.
        let pow2 = BigUint::one() << 26;
        kernels.push(measure("mul_plain_pow2", min_time_ms, |i| {
            let _ = fx.pk.mul_plain(&fx.cts[pick(i)], &pow2);
        }));
    }
    {
        // Fused affine (mul_plain + add_plain in one Montgomery pass)
        // against the unfused chain it replaces, interleaved.
        let (pk, cts, ms, k) = (&fx.pk, &fx.cts, &fx.messages, &fx.small_scalar);
        let (seq, fused) = measure_pair(
            ("affine_seq", "affine_fused"),
            min_time_ms,
            (1.0, 1.0),
            |i| {
                let _ = pk.add_plain(&pk.mul_plain(&cts[pick(i)], k), &ms[pick(i + 1)]);
            },
            |i| {
                let _ = pk.affine(&cts[pick(i)], k, &ms[pick(i + 1)]);
            },
        );
        kernels.push(seq);
        kernels.push(fused);
    }
    {
        // Randomizer precompute in the pool's batches of 4, reported
        // per randomizer.
        let mut rng = HashDrbg::new(b"bench-precompute");
        let mut batch = measure("precompute", min_time_ms, |_| {
            let _ = fx.pk.precompute_randomizers(4, &mut rng);
        });
        batch.ops_per_s *= 4.0;
        batch.mean_us /= 4.0;
        kernels.push(batch);
    }
    {
        // Raw full-width exponentiation mod n² vs the comb table for a
        // fixed base (same base, same full-width exponents), interleaved.
        let mont = Montgomery::new(fx.pk.n_squared().clone()).expect("n² odd");
        let mut rng = HashDrbg::new(b"bench-fixed-base");
        let base = BigUint::random_below(fx.pk.n_squared(), &mut rng);
        let exps: Vec<BigUint> = (0..8)
            .map(|_| BigUint::random_below(fx.pk.n(), &mut rng))
            .collect();
        let pick_e = |i: u64| (i % exps.len() as u64) as usize;
        let table = mont.fixed_base_table(&base, fx.pk.bits());
        let (full, fixed) = measure_pair(
            ("modpow_full", "fixed_base_pow"),
            min_time_ms,
            (1.0, 1.0),
            |i| {
                let _ = mont.modpow(&base, &exps[pick_e(i)]);
            },
            |i| {
                let _ = table.pow(&exps[pick_e(i)]);
            },
        );
        kernels.push(full);
        kernels.push(fixed);
    }
    {
        // Per-item decryption vs the batch API over the same
        // ciphertexts, interleaved call by call: the first baseline
        // measured these in separate windows and booked a 45% "batch
        // regression" at 2048 bits that was pure clock drift. Beside
        // them, the same plaintexts (all below 2^128) through the
        // bounded path every protocol decryption takes: one CRT leg at
        // 384-bit keys and up — `grid_doctor` holds it under 0.6 ×
        // `decrypt_crt` at 1024 and 2048 bits. All report
        // per-ciphertext figures.
        let batch = fx.cts.clone();
        let per_call = batch.len() as f64;
        let [singles, batched, bounded] = measure_interleaved(
            ["decrypt_crt", "decrypt_batch", "decrypt_u128"],
            min_time_ms,
            [per_call; 3],
            [
                &mut |_| {
                    for c in &batch {
                        let _ = fx.sk.decrypt(c);
                    }
                },
                &mut |_| {
                    let _ = fx.sk.decrypt_batch(&batch);
                },
                &mut |_| {
                    for c in &batch {
                        let _ = fx.sk.decrypt_u128(c).expect("below 2^128");
                    }
                },
            ],
        );
        kernels.extend([singles, batched, bounded]);
    }
    kernels.push(measure("decrypt_classic", min_time_ms, |i| {
        let _ = fx.sk.decrypt_classic(&fx.cts[pick(i)]);
    }));

    let ops = |name: &str| {
        kernels
            .iter()
            .find(|k| k.name == name)
            .map_or(0.0, |k| k.ops_per_s)
    };
    let ratio = |fast: &str, slow: &str| {
        if ops(slow) > 0.0 {
            ops(fast) / ops(slow)
        } else {
            0.0
        }
    };
    let speedups = vec![
        (
            "decrypt_speedup_crt",
            ratio("decrypt_crt", "decrypt_classic"),
        ),
        (
            "encrypt_speedup_fixed_base",
            ratio("encrypt", "encrypt_classic"),
        ),
        ("fixed_base_speedup", ratio("fixed_base_pow", "modpow_full")),
        ("affine_speedup", ratio("affine_fused", "affine_seq")),
        (
            "mul_plain_pow2_speedup",
            ratio("mul_plain_pow2", "mul_plain_small"),
        ),
    ];
    SizeReport {
        key_bits: bits,
        keygen_ms: keygen.mean_us / 1e3,
        kernels,
        speedups,
    }
}

/// The comparison rows at one OT group.
struct GroupReport {
    group: &'static str,
    kernels: Vec<Kernel>,
}

/// One 1-of-2 OT and a 64-bit comparison, each on a group obtained the
/// way `run_compare` obtains it (`OtProfile::group()` per call).
fn ot_single_row(profile: OtProfile, min_time_ms: u64, rng: &mut HashDrbg) -> Kernel {
    measure("ot_single", min_time_ms, |i| {
        let _ =
            run_local_ot(&profile.group(), &[0u8; 16], &[1u8; 16], i % 2 == 0, rng).expect("ot");
    })
}

fn compare_at(profile: OtProfile, width: usize, i: u64, rng: &mut HashDrbg) {
    let (a, b) = (1_000 + i as u128, 2_000);
    let _ = secure_less_than_local(a, b, width, &profile.group(), rng).expect("compare");
}

/// `test192`: `ot_single`, and `compare_64` interleaved with one
/// full-width ladder in the group.
fn bench_test192(min_time_ms: u64) -> GroupReport {
    let profile = OtProfile::Test192;
    let mut rng = HashDrbg::from_seed_label(b"crypto-kernels-ot", profile as u64);
    let mut kernels = vec![ot_single_row(profile, min_time_ms, &mut rng)];
    let dh = DhGroup::test_192();
    let base = dh.pow_g(&BigUint::from(0xB5u64));
    let q_bits = dh.q().bit_length();
    let mut exponent = BigUint::random_bits(q_bits, &mut rng);
    exponent.set_bit(q_bits - 1, true);
    let (compare, ladder) = measure_pair(
        ("compare_64", "ot_ladder_full"),
        min_time_ms,
        (1.0, 1.0),
        |i| compare_at(profile, 64, i, &mut rng),
        |_| {
            let _ = dh.pow(&base, &exponent);
        },
    );
    kernels.extend([compare, ladder]);
    GroupReport {
        group: "test192",
        kernels,
    }
}

/// edwards25519: the curve's three kernels (a variable-base scalar
/// multiplication, one off the basepoint table, an RFC 8032 decode),
/// `ot_single`, and the comparison at 64 bits — interleaved with
/// `scalar_mul`, the within-run reference — and at the 37 bits a
/// coalition of 12 compares at.
fn bench_ed25519(min_time_ms: u64) -> GroupReport {
    let profile = OtProfile::Ed25519;
    let mut rng = HashDrbg::from_seed_label(b"crypto-kernels-ot", profile as u64);
    let point = basepoint_table().mul(&Scalar::random(&mut rng));
    let scalar = Scalar::random(&mut rng);
    let encoded = point.compress();
    let mut kernels = vec![
        measure("fixed_base", min_time_ms, |_| {
            let _ = basepoint_table().mul(&scalar);
        }),
        measure("decode", min_time_ms, |_| {
            let _ = EdwardsPoint::decompress(&encoded).expect("valid point");
        }),
        ot_single_row(profile, min_time_ms, &mut rng),
    ];
    let mut seed = HashDrbg::from_seed_label(b"crypto-kernels-ot-compare", 0);
    let (compare, mul) = measure_pair(
        ("compare_64", "scalar_mul"),
        min_time_ms,
        (1.0, 1.0),
        |i| compare_at(profile, 64, i, &mut seed),
        |_| {
            let _ = point.mul(&scalar);
        },
    );
    let width = coalition_width();
    let narrow = measure("compare_37", min_time_ms, |i| {
        compare_at(profile, width, i, &mut rng)
    });
    kernels.extend([mul, compare, narrow]);
    GroupReport {
        group: "ed25519",
        kernels,
    }
}

/// The width a coalition of 12 compares at, which the `compare_37` rows
/// are named for.
fn coalition_width() -> usize {
    let width = compare_width(12);
    assert_eq!(
        width, 37,
        "the compare_37 rows must be renamed to their width"
    );
    width
}

/// The garbled-comparator rows: the unsigned comparator at the 64-bit
/// ceiling, and the wire bytes of a 12-member comparison.
struct CircuitReport {
    kernels: Vec<Kernel>,
    /// Bytes of AND tables one garbling ships.
    table_bytes: usize,
    /// Bytes of the three frames of a 37-bit comparison on the curve.
    wire_bytes_37: usize,
}

/// Times garbling and evaluating the 64-bit comparator, interleaved,
/// and counts the table bytes a garbling carries.
fn bench_circuit(min_time_ms: u64) -> CircuitReport {
    const WIDTH: usize = 64;
    let circuit = comparator_circuit(WIDTH);
    let mut rng = HashDrbg::new(b"crypto-kernels-gc");
    let (garbled, secrets) = garble(&circuit, &mut rng);
    let (a, b) = (u128_to_bits(1_000, WIDTH), u128_to_bits(2_000, WIDTH));
    let labels = select_input_labels(&secrets, &a, &b);
    let (garble_k, eval_k) = measure_pair(
        ("garble_64", "eval_64"),
        min_time_ms,
        (1.0, 1.0),
        |_| {
            let _ = garble(&circuit, &mut rng);
        },
        |_| {
            let _ = eval_garbled(&garbled, &labels).expect("evaluate");
        },
    );
    let frames = frame_bytes(coalition_width(), &Ed25519.into()).expect("a 37-bit comparison");
    CircuitReport {
        kernels: vec![garble_k, eval_k],
        table_bytes: std::mem::size_of_val(garbled.and_tables()),
        wire_bytes_37: frames.iter().sum(),
    }
}

/// The Montgomery kernel at one limb count.
struct WidthReport {
    limbs: usize,
    mul_ns: f64,
    sqr_ns: f64,
}

/// Times the bare multiplication and squaring kernels on a random odd
/// `limbs`-limb modulus, as chains of `CHAIN` dependent operations
/// (the shape of a ladder) so the domain conversions disappear.
fn bench_width(limbs: usize, min_time_ms: u64) -> WidthReport {
    const CHAIN: usize = 512;
    let mut rng = HashDrbg::from_seed_label(b"crypto-kernels-width", limbs as u64);
    let mut n = BigUint::random_bits(64 * limbs, &mut rng);
    n.set_bit(0, true);
    n.set_bit(64 * limbs - 1, true);
    let mont = Montgomery::new(n.clone()).expect("odd modulus");
    let a = BigUint::random_below(&n, &mut rng);
    let (mul, sqr) = measure_pair(
        ("mont_mul", "mont_sqr"),
        min_time_ms,
        (CHAIN as f64, CHAIN as f64),
        |_| {
            let _ = mont.kernel_chain(&a, CHAIN, 0);
        },
        |_| {
            let _ = mont.kernel_chain(&a, 0, CHAIN);
        },
    );
    WidthReport {
        limbs,
        mul_ns: mul.mean_us * 1e3,
        sqr_ns: sqr.mean_us * 1e3,
    }
}

/// `<kernel>_ops_per_s` and `<kernel>_mean_us` for each kernel.
fn kernel_fields(kernels: &[Kernel]) -> Vec<(String, Json)> {
    let mut fields = Vec::new();
    for k in kernels {
        fields.push((
            format!("{}_ops_per_s", k.name),
            rounded(k.ops_per_s, 1).into(),
        ));
        fields.push((format!("{}_mean_us", k.name), rounded(k.mean_us, 1).into()));
    }
    fields
}

/// The trajectory run: an entry per key size, per OT group, for the
/// garbled comparator and per kernel width.
fn json(
    label: &str,
    reports: &[SizeReport],
    groups: &[GroupReport],
    circuit: &CircuitReport,
    widths: &[WidthReport],
) -> Json {
    let mut entries = Vec::new();
    for r in reports {
        let mut fields = kernel_fields(&r.kernels);
        fields.push(("key_bits".into(), r.key_bits.into()));
        fields.push(("keygen_ms".into(), rounded(r.keygen_ms, 1).into()));
        for &(name, v) in &r.speedups {
            fields.push((name.into(), rounded(v, 2).into()));
        }
        entries.push(Json::obj(fields));
    }
    for g in groups {
        let mut fields = kernel_fields(&g.kernels);
        fields.push(("ot_group".into(), g.group.into()));
        entries.push(Json::obj(fields));
    }
    let mut fields = kernel_fields(&circuit.kernels);
    fields.push(("gc_width".into(), 64usize.into()));
    fields.push(("gc_table_bytes_64".into(), circuit.table_bytes.into()));
    fields.push(("compare_37_wire_bytes".into(), circuit.wire_bytes_37.into()));
    entries.push(Json::obj(fields));
    for w in widths {
        entries.push(json_object! {
            "mont_limbs": w.limbs,
            "mont_mul_ns": rounded(w.mul_ns, 1), "mont_sqr_ns": rounded(w.sqr_ns, 1),
        });
    }
    trajectory_run(label, entries)
}

fn main() {
    let args = Args::from_env();
    let bits = args.get_usize_list("bits", &[512, 1024, 2048]);
    let min_time_ms = args.get_u64("min-time-ms", 300);
    let label = args.get_str("run-label", "dev");

    let reports: Vec<SizeReport> = bits.iter().map(|&b| bench_size(b, min_time_ms)).collect();
    let groups = [bench_test192(min_time_ms), bench_ed25519(min_time_ms)];
    let circuit = bench_circuit(min_time_ms);

    let widths: Vec<WidthReport> = [3, 4, 16, 32, 64]
        .iter()
        .map(|&limbs| bench_width(limbs, min_time_ms))
        .collect();

    // The JSON run alone on stdout, so a redirect is a valid artifact;
    // the human table goes to stderr.
    println!("{}", json(&label, &reports, &groups, &circuit, &widths));
    eprintln!("key_bits  kernel                  ops/s        mean");
    for r in &reports {
        eprintln!(
            "{:>8}  {:<22} {:>10.1}  {:>8.1}ms",
            r.key_bits,
            "keygen",
            1e3 / r.keygen_ms,
            r.keygen_ms
        );
        for k in &r.kernels {
            eprintln!(
                "{:>8}  {:<22} {:>10.1}  {:>8.1}µs",
                r.key_bits, k.name, k.ops_per_s, k.mean_us
            );
        }
        for (name, v) in &r.speedups {
            eprintln!("{:>8}  {:<22} {:>10.2}x", r.key_bits, name, v);
        }
    }
    for g in &groups {
        for k in &g.kernels {
            eprintln!(
                "{:>8}  {:<22} {:>10.1}  {:>8.1}µs",
                g.group, k.name, k.ops_per_s, k.mean_us
            );
        }
    }
    for k in &circuit.kernels {
        eprintln!(
            "{:>8}  {:<22} {:>10.1}  {:>8.1}µs",
            "gc", k.name, k.ops_per_s, k.mean_us
        );
    }
    for (name, bytes) in [
        ("table_bytes_64", circuit.table_bytes),
        ("compare_37_wire_bytes", circuit.wire_bytes_37),
    ] {
        eprintln!("{:>8}  {:<22} {:>10}  {:>8}B", "gc", name, "", bytes);
    }
    for w in &widths {
        for (name, ns) in [("mont_mul", w.mul_ns), ("mont_sqr", w.sqr_ns)] {
            eprintln!(
                "{:>2} limbs  {:<22} {:>10.1}  {:>8.1}ns",
                w.limbs,
                name,
                1e9 / ns,
                ns
            );
        }
    }
}
