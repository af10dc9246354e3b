//! The regression sentinel end-to-end: a synthetic slowdown must flag,
//! improvements must pass, and — the bar the CI job relies on — the
//! *committed* bench trajectories must come back clean at the default
//! threshold.

use pem_bench::doctor::{crypto_checks, grid_day_checks, topology_checks, Verdict};
use pem_bench::json::Json;

const DEFAULT_THRESHOLD: f64 = 0.25;

fn committed(name: &str) -> Json {
    let path = format!("{}/../../{name}", env!("CARGO_MANIFEST_DIR"));
    let text = std::fs::read_to_string(&path)
        .unwrap_or_else(|e| panic!("cannot read committed {path:?}: {e}"));
    Json::parse(&text).unwrap_or_else(|e| panic!("{path:?} is not valid JSON: {e}"))
}

#[test]
fn synthetic_regression_is_flagged() {
    // The "current" run doubles one latency metric and improves another:
    // exactly the doubled one must flag at the default threshold.
    let doc = Json::parse(
        "[{\"run\":\"base\",\"entries\":[\
            {\"key_bits\":512,\"encrypt_mean_us\":100.0,\"decrypt_crt_mean_us\":80.0}]},\
          {\"run\":\"next\",\"entries\":[\
            {\"key_bits\":512,\"encrypt_mean_us\":200.0,\"decrypt_crt_mean_us\":40.0}]}]",
    )
    .expect("valid trajectory");
    let (base, cur, checks) =
        crypto_checks(&doc, None, None, DEFAULT_THRESHOLD).expect("comparable runs");
    assert_eq!((base.as_str(), cur.as_str()), ("base", "next"));
    let verdict = Verdict {
        checks,
        threshold: DEFAULT_THRESHOLD,
    };
    assert!(!verdict.passed());
    let flagged: Vec<&str> = verdict
        .regressions()
        .iter()
        .map(|c| c.name.as_str())
        .collect();
    assert_eq!(flagged, ["crypto/512/encrypt_mean_us"]);
    let r = verdict.regressions()[0];
    assert!((r.change_pct - 100.0).abs() < 1e-9, "2x slower = +100%");
}

#[test]
fn improvements_pass_clean() {
    let doc = Json::parse(
        "[{\"run\":\"base\",\"entries\":[\
            {\"key_bits\":1024,\"encrypt_mean_us\":1000.0,\"keygen_ms\":50.0}]},\
          {\"run\":\"next\",\"entries\":[\
            {\"key_bits\":1024,\"encrypt_mean_us\":700.0,\"keygen_ms\":49.0}]}]",
    )
    .expect("valid trajectory");
    let (_, _, checks) =
        crypto_checks(&doc, None, None, DEFAULT_THRESHOLD).expect("comparable runs");
    let verdict = Verdict {
        checks,
        threshold: DEFAULT_THRESHOLD,
    };
    assert!(verdict.passed(), "improvements must never flag");
    // The verdict artifact reflects that.
    let parsed = Json::parse(&verdict.to_json().to_string()).expect("verdict JSON");
    assert_eq!(parsed.get("passed").and_then(Json::as_bool), Some(true));
}

#[test]
fn committed_crypto_trajectory_is_clean() {
    let doc = committed("BENCH_crypto.json");
    let (base, cur, checks) =
        crypto_checks(&doc, None, None, DEFAULT_THRESHOLD).expect("committed runs comparable");
    // The picker must land on the latest *kernel* run pair and skip the
    // overhead run (which shares no metric keys).
    assert_eq!(base, "one-leg-parent-remeasured");
    assert_eq!(cur, "one-leg-decrypt");
    // The pair gates the comparison rows per OT group, the garbled
    // comparator's row and the Montgomery kernel rows per limb count
    // beside the Paillier rows per key size; the current run also
    // carries the within-run gates: batching per OT group, the curve
    // comparison's fixed-base multiplications off the variable-base
    // window, encryption off the ladder and bounded decryption on one
    // CRT leg per paper key size, validation below encryption per key
    // size, and two half-gates rows per AND of the 64-AND comparator.
    // The `decrypt_u128` row is new in the current run, so only its
    // within-run gate applies to it.
    for name in [
        "crypto/gc64/half_gate_tables",
        "crypto/gc64/garble_64_mean_us",
        "crypto/gc64/eval_64_mean_us",
        "crypto/1024/validate_below_encrypt",
        "crypto/2048/validate_mean_us",
        "crypto/ed25519/compare_64_batched",
        "crypto/test192/compare_64_batched",
        "crypto/ed25519/compare_off_the_ladder",
        "crypto/test192/ot_ladder_full_mean_us",
        "crypto/1024/encrypt_off_the_ladder",
        "crypto/2048/encrypt_off_the_ladder",
        "crypto/1024/decrypt_on_one_leg",
        "crypto/2048/decrypt_on_one_leg",
        "crypto/2048/keygen_ms",
        "crypto/test192/ot_single_mean_us",
        "crypto/test192/compare_64_mean_us",
        "crypto/1024/encrypt_mean_us",
        "crypto/mont16/mont_mul_ns",
        "crypto/mont64/mont_sqr_ns",
    ] {
        assert!(checks.iter().any(|c| c.name == name), "{name} not gated");
    }
    let verdict = Verdict {
        checks,
        threshold: DEFAULT_THRESHOLD,
    };
    assert!(
        verdict.passed(),
        "committed crypto trajectory regressed: {:?}",
        verdict.regressions()
    );
}

#[test]
fn committed_topology_ablation_is_clean() {
    let doc = committed("BENCH_topology.json");
    let checks = topology_checks(&doc).expect("committed rows well-formed");
    assert!(
        checks.iter().any(|c| c.name.ends_with("tree_beats_ring")),
        "the sweep covers fan-in sizes where the tree wins"
    );
    let verdict = Verdict {
        checks,
        threshold: DEFAULT_THRESHOLD,
    };
    assert!(
        verdict.passed(),
        "committed topology ablation regressed: {:?}",
        verdict.regressions()
    );
}

#[test]
fn grid_day_report_shape_gates() {
    let bad = Json::parse(
        "{\"ledger_valid\":true,\"cleared_kwh\":5.0,\"total_messages\":100,\
          \"windows\":[{\"fingerprint\":\"zz\"}]}",
    )
    .expect("valid JSON");
    let checks = grid_day_checks(&bad).expect("report-shaped");
    assert!(
        checks
            .iter()
            .any(|c| c.name == "grid_day/window_fingerprints" && c.regressed),
        "a malformed fingerprint must flag"
    );
}
