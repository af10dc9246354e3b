//! Regression guard: the OT group context is built once per process,
//! not once per OT instance.
//!
//! `OtProfile::group()` hands out handles to one shared context per
//! built-in group, so after the first comparison has paid for the
//! generator's comb table no later trading window or comparison builds
//! another one. A comparison is one OT batch under one sender key `A`,
//! two bits per transfer: one ladder per chunk, two table
//! exponentiations per chunk plus two per batch, and exactly one table
//! build — the comb table for that comparison's `A`.
//!
//! The same discipline holds for Paillier: a key's `h_s` comb table is
//! built by the first encryption under it and never again, every
//! encryption is one table exponentiation, and none is a ladder.
//!
//! Everything lives in ONE `#[test]` because the telemetry collector and
//! its counters are process global: parallel tests would race on them.

use pem_bignum::BigUint;
use pem_circuit::compare::secure_less_than_local;
use pem_core::{OtProfile, Pem, PemConfig};
use pem_crypto::drbg::HashDrbg;
use pem_market::AgentWindow;
use pem_telemetry as telemetry;

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

fn window_data() -> Vec<AgentWindow> {
    vec![
        AgentWindow::new(0, 3.0, 0.5, 0.0, 0.9, 25.0),
        AgentWindow::new(1, 2.0, 0.5, 0.0, 0.9, 30.0),
        AgentWindow::new(2, 0.0, 4.0, 0.0, 0.9, 22.0),
        AgentWindow::new(3, 0.0, 5.0, 0.0, 0.9, 28.0),
    ]
}

#[test]
fn steady_state_windows_and_comparisons_build_no_tables() {
    assert!(telemetry::install());
    for profile in [OtProfile::Test192, OtProfile::Modp1024] {
        let cfg = PemConfig {
            ot_profile: profile,
            ..PemConfig::fast_test()
        };
        let chunks = cfg.compare_bits.div_ceil(2) as u64;
        let group = profile.group();
        let mut rng = HashDrbg::new(b"ot-group-context");

        // The first comparison may build the context; the second must
        // find it warm, through a *fresh* handle.
        assert!(secure_less_than_local(5, 9, cfg.compare_bits, &group, &mut rng).expect("compare"));
        let before = kernel_counts();
        let fresh = profile.group();
        assert!(
            !secure_less_than_local(9, 5, cfg.compare_bits, &fresh, &mut rng).expect("compare")
        );
        let after = kernel_counts();
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

        // A full-width exponent (anything reduced mod p − 1) is served
        // from the table, not the ladder fallback.
        let full_width = group.p() - &BigUint::one();
        assert_eq!(full_width.bit_length(), group.p().bit_length());
        let before = kernel_counts();
        assert_eq!(group.pow_g(&full_width), BigUint::one());
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
        // This window makes 12 encryptions, each one `h_s^x` off its
        // key's table and none of them a ladder: beside the comparison
        // that leaves the ten ladders of the CRT decryption legs and the
        // `mul_plain` scalars (the classic `r^n` lane ran 12 more).
        let encryptions = 12;
        assert_eq!(
            (after.0 - before.0, after.1 - before.1),
            (chunks + 10, 2 * chunks + 2 + encryptions),
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
    telemetry::uninstall();
}
