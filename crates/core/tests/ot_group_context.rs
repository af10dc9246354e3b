//! Regression guard: the OT group context is built once per process,
//! not once per OT instance.
//!
//! `OtProfile::group()` hands out handles to one shared context per
//! built-in group, so after the first comparison has paid for the
//! generator's (or the curve basepoint's) comb table no later trading
//! window or comparison builds another one. A comparison is one OT batch
//! under one sender key `A`, two bits per transfer: one variable-base
//! multiplication per chunk, two fixed-base ones per chunk plus two per
//! batch, and exactly one table build — the comb table for that
//! comparison's `A`. At `test192` those are ladders and table pows of
//! `pem-bignum`, and every secret exponent is
//! `DhGroup::short_exponent_bits` wide, so the ladders total at most
//! that many bits each and the `A` table is exactly that wide; on
//! edwards25519 they are the curve's own counters and no `pem-bignum`
//! kernel runs at all. Either way the comparison draws the same number
//! of DRBG bytes whatever it compares.
//!
//! The same discipline holds for Paillier: a key's `h_s` comb table is
//! built by the first encryption under it and never again, every
//! encryption is one table exponentiation, and none is a ladder.
//!
//! Everything lives in ONE `#[test]` because the telemetry collector and
//! its counters are process global: parallel tests would race on them.

use pem_bignum::BigUint;
use pem_circuit::compare::secure_less_than_local;
use pem_core::quantize::compare_width;
use pem_core::{OtProfile, Pem, PemConfig};
use pem_crypto::drbg::HashDrbg;
use pem_crypto::ot::{DhGroup, OtBatchReceiver, OtBatchSender};
use pem_market::AgentWindow;
use pem_telemetry as telemetry;
use rand::RngCore;

fn counter(name: &str) -> u64 {
    telemetry::counter_snapshot()
        .iter()
        .find(|(n, _)| *n == name)
        .map(|(_, v)| *v)
        .unwrap_or_else(|| panic!("counter {name} is not registered"))
}

/// `(modpow, fixed_base_pow, fixed_base_builds)`.
fn kernel_counts() -> (u64, u64, u64) {
    (
        counter("crypto/modpow"),
        counter("crypto/fixed_base_pow"),
        counter("bignum/fixed_base_builds"),
    )
}

/// `(ec_scalar_mul, ec_fixed_base, ec_table_builds)`.
fn curve_counts() -> (u64, u64, u64) {
    (
        counter("crypto/ec_scalar_mul"),
        counter("crypto/ec_fixed_base"),
        counter("crypto/ec_table_builds"),
    )
}

/// An RNG that counts the bytes drawn from it.
struct CountingRng {
    inner: HashDrbg,
    bytes: u64,
}

impl RngCore for CountingRng {
    fn next_u32(&mut self) -> u32 {
        self.bytes += 4;
        self.inner.next_u32()
    }
    fn next_u64(&mut self) -> u64 {
        self.bytes += 8;
        self.inner.next_u64()
    }
    fn fill_bytes(&mut self, dest: &mut [u8]) {
        self.bytes += dest.len() as u64;
        self.inner.fill_bytes(dest)
    }
    fn try_fill_bytes(&mut self, dest: &mut [u8]) -> Result<(), rand::Error> {
        self.fill_bytes(dest);
        Ok(())
    }
}

fn window_data() -> Vec<AgentWindow> {
    vec![
        AgentWindow::new(0, 3.0, 0.5, 0.0, 0.9, 25.0),
        AgentWindow::new(1, 2.0, 0.5, 0.0, 0.9, 30.0),
        AgentWindow::new(2, 0.0, 4.0, 0.0, 0.9, 22.0),
        AgentWindow::new(3, 0.0, 5.0, 0.0, 0.9, 28.0),
    ]
}

/// DRBG bytes one comparison of `a` with `b` at `width` bits draws.
fn drawn(cfg: &PemConfig, width: usize, a: u128, b: u128) -> u64 {
    let mut rng = CountingRng {
        inner: HashDrbg::from_seed_label(b"ot-draw-count", a as u64),
        bytes: 0,
    };
    let less = secure_less_than_local(a, b, width, &cfg.ot_profile.group(), &mut rng);
    assert_eq!(less.expect("compare"), a < b);
    rng.bytes
}

#[test]
fn steady_state_windows_and_comparisons_build_no_tables() {
    assert!(telemetry::install());
    test192_comparisons_and_windows();
    curve_comparisons_and_windows();
    telemetry::uninstall();
}

fn test192_comparisons_and_windows() {
    {
        let profile = OtProfile::Test192;
        let cfg = PemConfig {
            ot_profile: profile,
            ..PemConfig::fast_test()
        };
        let chunks = cfg.compare_bits.div_ceil(2) as u64;
        let group = profile.group();
        let dh = DhGroup::test_192();
        let mut rng = HashDrbg::new(b"ot-group-context");

        // The first comparison may build the context; the second must
        // find it warm, through a *fresh* handle.
        assert!(secure_less_than_local(5, 9, cfg.compare_bits, &group, &mut rng).expect("compare"));
        let before = kernel_counts();
        let bits_before = counter("crypto/modpow_bits");
        let fresh = profile.group();
        assert!(
            !secure_less_than_local(9, 5, cfg.compare_bits, &fresh, &mut rng).expect("compare")
        );
        let after = kernel_counts();
        let ladder_bits = counter("crypto/modpow_bits") - bits_before;
        // The one build is the table for this comparison's A; the
        // generator's table is found warm.
        assert_eq!(
            after.2 - before.2,
            1,
            "{profile:?}: table builds per comparison"
        );
        // Per chunk: the ladder B^a.
        assert_eq!(
            after.0 - before.0,
            chunks,
            "{profile:?}: ladders per comparison"
        );
        // Per chunk g^b and A^b, per batch g^a and g^(−a²), all off
        // tables.
        assert_eq!(
            after.1 - before.1,
            2 * chunks + 2,
            "{profile:?}: table pows per comparison"
        );

        // Same ladders, each no longer than the short width: a full-width
        // draw would total ≈ chunks · |q| bits here.
        let w = dh.short_exponent_bits();
        assert!(w < dh.q().bit_length());
        assert!(
            ladder_bits > 0 && ladder_bits <= chunks * w as u64,
            "{profile:?}: {ladder_bits} ladder bits per comparison, w = {w}"
        );
        // The comparison's batch builds its `A` table at exactly that
        // width.
        let choices = vec![1usize; chunks as usize];
        let (_, setup) = OtBatchSender::new(dh.clone(), &mut rng);
        let (receiver, _) =
            OtBatchReceiver::new(dh.clone(), &setup, &choices, &mut rng).expect("replies");
        assert_eq!(receiver.a_table().expect("a batch of 32").max_bits(), w);
        // Fixed draw counts, no rejection loop: neither what is compared
        // nor the stream it draws from changes how many DRBG bytes the
        // comparison consumes (a uniform draw below Test192's `q`
        // rejected 29% of its candidates).
        let bytes = drawn(&cfg, cfg.compare_bits, 5, 9);
        for (a, b) in [(u64::MAX as u128, 0), (9, 5), (1 << 40, 1 << 41)] {
            assert_eq!(
                drawn(&cfg, cfg.compare_bits, a, b),
                bytes,
                "{profile:?}: comparing {a} with {b}"
            );
        }

        // A full-width exponent (anything reduced mod p − 1) is served
        // from the table, not the ladder fallback.
        let full_width = dh.p() - &BigUint::one();
        assert_eq!(full_width.bit_length(), dh.p().bit_length());
        let before = kernel_counts();
        assert_eq!(dh.pow_g(&full_width), BigUint::one());
        let after = kernel_counts();
        assert_eq!(
            (after.0 - before.0, after.1 - before.1, after.2 - before.2),
            (0, 1, 0),
            "{profile:?}: pow_g fell back to the ladder"
        );

        // Trading windows: touch every key's `h_s` table once, then a
        // window builds only its comparison's A table.
        let data = window_data();
        let mut pem = Pem::new(cfg.clone(), data.len()).expect("setup");
        for i in 0..data.len() {
            let _ = pem.keys().public(i).encrypt(&BigUint::one(), &mut rng);
        }
        pem.run_window(&data).expect("first window");
        let before = kernel_counts();
        pem.run_window(&data).expect("second window");
        let after = kernel_counts();
        assert_eq!(
            after.2 - before.2,
            1,
            "{profile:?}: a trading window rebuilt a generator's or a key's comb table"
        );
        // The window compares at its four members' width, 46 bits in 23
        // chunks, not at the 64-bit ceiling the comparisons above ran.
        let chunks = compare_width(data.len()).div_ceil(2) as u64;
        assert_eq!(chunks, 23);
        // This window makes 12 encryptions, each one `h_s^x` off its
        // key's table and none of them a ladder (the classic `r^n` lane
        // ran 12 more). Beside the comparison that leaves 14 ladders:
        // two CRT legs for each of the four decryptions of Protocols 2
        // and 3, the two ratio `mul_plain` scalars, and Protocol 4's
        // packed decryption — two legs per pack, and at 128-bit keys a
        // pack holds one of the two ratios.
        let encryptions = 12;
        let ratio_packs = 2;
        assert_eq!(
            (after.0 - before.0, after.1 - before.1),
            (chunks + 10 + 2 * ratio_packs, 2 * chunks + 2 + encryptions),
            "{profile:?}: (ladders, table pows) per trading window"
        );

        // A whole run from cold keys: at most one table per key somebody
        // encrypted under, plus one `A` table per window's comparison.
        let windows = 3;
        let mut cold = Pem::new(cfg, data.len()).expect("setup");
        let before = kernel_counts();
        for _ in 0..windows {
            cold.run_window(&data).expect("window");
        }
        let builds = kernel_counts().2 - before.2;
        assert!(
            builds > windows && builds <= data.len() as u64 + windows,
            "{profile:?}: {builds} table builds over {windows} windows"
        );
    }
}

/// Twelve homes, six selling and six buying: a window compares at
/// `compare_width(12)` = 47 bits.
fn twelve_homes() -> Vec<AgentWindow> {
    (0..12)
        .map(|i| {
            let e = 0.5 + i as f64 / 4.0;
            if i < 6 {
                AgentWindow::new(i, e, 0.0, 0.0, 0.9, 25.0)
            } else {
                AgentWindow::new(i, 0.0, e, 0.0, 0.9, 25.0)
            }
        })
        .collect()
}

fn curve_comparisons_and_windows() {
    let cfg = PemConfig {
        ot_profile: OtProfile::Ed25519,
        ..PemConfig::fast_test()
    };
    let width = compare_width(12);
    let chunks = width.div_ceil(2) as u64;
    assert_eq!((width, chunks), (47, 24));
    let mut rng = HashDrbg::new(b"ot-group-context-curve");

    // The first comparison may build the basepoint table; the second,
    // through a fresh handle, builds only its `A` table.
    let group = cfg.ot_profile.group();
    assert!(secure_less_than_local(5, 9, width, &group, &mut rng).expect("compare"));
    let (before, bignum_before) = (curve_counts(), kernel_counts());
    let fresh = cfg.ot_profile.group();
    assert!(!secure_less_than_local(9, 5, width, &fresh, &mut rng).expect("compare"));
    let (after, bignum_after) = (curve_counts(), kernel_counts());
    assert_eq!(
        (after.0 - before.0, after.1 - before.1, after.2 - before.2),
        (chunks, 2 * chunks + 2, 1),
        "(variable-base, fixed-base, table builds) per comparison"
    );
    assert_eq!(
        bignum_after, bignum_before,
        "a curve comparison ran a bignum kernel"
    );

    // The batch of 24 takes every `[b]A` off its `A` table.
    let choices = vec![1usize; chunks as usize];
    let ed = pem_crypto::ot::Ed25519;
    let (_, setup) = OtBatchSender::new(ed, &mut rng);
    let (receiver, _) = OtBatchReceiver::new(ed, &setup, &choices, &mut rng).expect("replies");
    assert!(receiver.a_table().is_some());

    // 64 bytes per scalar, whatever is compared: 2 + 24 scalars plus the
    // garbling's draws, the same for every pair.
    let bytes = drawn(&cfg, width, 5, 9);
    let top = (1u128 << width) - 1;
    for (a, b) in [(top, 0), (9, 5), (1 << 40, 1 << 41), (top, top)] {
        assert_eq!(drawn(&cfg, width, a, b), bytes, "comparing {a} with {b}");
    }

    // Trading windows of twelve homes: each makes exactly the one
    // comparison's curve work and no table but its `A`'s.
    let data = twelve_homes();
    let mut pem = Pem::new(cfg, data.len()).expect("setup");
    pem.run_window(&data).expect("first window");
    let before = curve_counts();
    pem.run_window(&data).expect("second window");
    let after = curve_counts();
    assert_eq!(
        (after.0 - before.0, after.1 - before.1, after.2 - before.2),
        (chunks, 2 * chunks + 2, 1),
        "(variable-base, fixed-base, table builds) per trading window"
    );
}
