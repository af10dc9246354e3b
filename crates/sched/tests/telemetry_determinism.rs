//! Telemetry must be observation-only: installing the collector changes
//! what is *recorded*, never what is *computed*. A grid run with the
//! collector off and an identically-seeded run with it on must produce
//! bit-identical `GridReport::fingerprint`s — the same goldens the
//! fingerprint regression pins (`common/mod.rs`).
//!
//! Both phases live in ONE `#[test]` because the collector is process
//! global: running them as separate tests would race on install state.

mod common;

use common::{fingerprints, market_fingerprints, run};
use pem_telemetry as telemetry;

#[test]
fn collector_on_and_off_produce_identical_fingerprints() {
    // --- Phase 1: collector off (pristine process state). --------------
    assert!(!telemetry::enabled(), "collector must start uninstalled");
    let off = run(4);
    let off_fps = fingerprints(&off);
    assert!(
        off.iter().all(|r| r.profile.is_none()),
        "no collector → no profile in the report"
    );

    // --- Phase 2: identical run with the collector installed. ----------
    assert!(telemetry::install());
    let on = run(4);
    telemetry::uninstall();
    let on_fps = fingerprints(&on);

    assert_eq!(
        off_fps, on_fps,
        "installing telemetry changed a protocol output"
    );
    assert_eq!(
        off_fps,
        common::GOLDEN.to_vec(),
        "telemetry PR drifted the golden fingerprints"
    );
    assert_eq!(
        market_fingerprints(&on),
        common::MARKET_GOLDEN.to_vec(),
        "telemetry-on run drifted the market outcomes"
    );

    // The collector-on run did actually record: every window carries a
    // span profile covering the driver phases and the protocol tree.
    for r in &on {
        let profile = r.profile.as_ref().expect("collector on → profile");
        for phase in ["window", "window/eval", "window/dist", "pool/refill"] {
            let row = profile
                .row(phase)
                .unwrap_or_else(|| panic!("missing span row {phase:?}"));
            assert!(row.count > 0, "empty span row {phase:?}");
        }
        // Per-shard protocol sub-spans fold in too (one per coalition).
        assert!(profile.row("eval/demand-agg").is_some());
        assert!(profile.row("dist/total-agg").is_some());
    }

    // And the kernel/pool counters moved while the collector was on.
    let counters = telemetry::counter_snapshot();
    let get = |name: &str| {
        counters
            .iter()
            .find(|(n, _)| *n == name)
            .map(|(_, v)| *v)
            .unwrap_or_else(|| panic!("counter {name:?} not registered"))
    };
    assert!(get("crypto/modpow") > 0, "modpow counter never bumped");
    assert!(
        get("pool/hit") + get("pool/miss") > 0,
        "randomizer pool counters never bumped"
    );
}
