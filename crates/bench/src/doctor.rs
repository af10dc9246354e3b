//! Regression checks over the committed bench trajectories — the logic
//! behind the `grid_doctor` sentinel binary.
//!
//! Four artifact families are watched:
//!
//! * **`BENCH_crypto.json`** — labelled trajectory runs of the Paillier
//!   kernel benchmarks, the OT/comparison rows, the garbled-comparator
//!   row and the Montgomery kernel rows. Two runs are compared
//!   metric-by-metric (every shared `*_mean_us` / `*_ns` / `keygen_ms`
//!   figure, matched by `key_bits`, by `ot_group` for the comparison
//!   rows, by `gc_width` for the garbled comparator or by `mont_limbs`
//!   for the kernel rows; lower is better) against a relative
//!   threshold. The current run is also held to within-run invariants:
//!   per OT group, a 64-bit comparison costs well under 64 single OTs
//!   (one batch under one sender key); per key size from 1024 bits, an
//!   encryption costs under a quarter of a classic `r^n` encryption
//!   (the randomizer is a short fixed-base exponentiation, not a
//!   ladder); and the 64-bit comparator's garbled tables are at most
//!   two 16-byte rows for each of 64 ANDs.
//! * **`BENCH_topology.json`** — the aggregation-topology ablation.
//!   Structural invariants rather than run pairs: the fan-in-bounded
//!   tree must beat the ring's critical path from 8 sellers up, the
//!   three topologies must move the same bytes, and the tree's critical
//!   path must scale sublinearly in the seller count.
//! * **`grid_day --json`** — a day report: the ledger must validate,
//!   energy must clear, traffic must flow, and every window must carry
//!   its fingerprint.
//! * **`grid_day --chaos --json`** — the chaos smoke ([`chaos_checks`]):
//!   a degraded day report held against the fault-free baseline. The
//!   day must complete with a valid ledger, the committed fault plan
//!   must quarantine and recover at least one coalition each, and every
//!   coalition that cleared under chaos must be bit-identical to the
//!   fault-free run.
//!
//! Grid-day throughput and latency are not the doctor's: they belong to
//! the benchmark of record (`benchmark/run.sh`, bounds in
//! `BENCHMARK.json`). That the fabric engine computes what the thread
//! engine does, at every admission batch, is a test
//! (`crates/sched/tests/engine_determinism.rs`), as are the executor's
//! completion and residency bounds (`pem_fabric`'s
//! `outputs_land_in_input_order_at_any_batch`).

use crate::json::Json;
use pem_telemetry::json_object;

/// One comparison the doctor ran.
#[derive(Debug, Clone, PartialEq)]
pub struct Check {
    /// What was compared (e.g. `crypto/1024/encrypt_mean_us`).
    pub name: String,
    /// Baseline (expected / earlier) value.
    pub baseline: f64,
    /// Current (later) value.
    pub current: f64,
    /// Relative change in percent (positive = current larger).
    pub change_pct: f64,
    /// Whether this check flags a regression.
    pub regressed: bool,
}

impl Check {
    fn compare(name: String, baseline: f64, current: f64, threshold: f64) -> Check {
        let change_pct = if baseline != 0.0 {
            (current - baseline) / baseline * 100.0
        } else if current == 0.0 {
            0.0
        } else {
            f64::INFINITY
        };
        Check {
            name,
            baseline,
            current,
            change_pct,
            // Lower is better for everything compare() is used on.
            regressed: current > baseline * (1.0 + threshold),
        }
    }

    /// A pass/fail invariant (no tolerance): `holds == false` flags it.
    fn invariant(name: String, baseline: f64, current: f64, holds: bool) -> Check {
        let change_pct = if baseline != 0.0 {
            (current - baseline) / baseline * 100.0
        } else {
            0.0
        };
        Check {
            name,
            baseline,
            current,
            change_pct,
            regressed: !holds,
        }
    }
}

/// The doctor's full verdict.
#[derive(Debug, Clone, PartialEq)]
pub struct Verdict {
    /// Every check run, in order.
    pub checks: Vec<Check>,
    /// The relative regression threshold the comparisons used.
    pub threshold: f64,
}

impl Verdict {
    /// `true` when no check flagged a regression.
    pub fn passed(&self) -> bool {
        !self.checks.iter().any(|c| c.regressed)
    }

    /// The flagged checks.
    pub fn regressions(&self) -> Vec<&Check> {
        self.checks.iter().filter(|c| c.regressed).collect()
    }

    /// The verdict as JSON (the artifact CI uploads).
    pub fn to_json(&self) -> Json {
        let checks = self.checks.iter().map(|c| {
            json_object! {
                "name": c.name.as_str(), "baseline": c.baseline, "current": c.current,
                "change_pct": c.change_pct, "regressed": c.regressed,
            }
        });
        json_object! {
            "passed": self.passed(), "threshold": self.threshold,
            "checks": checks.collect::<Json>(),
        }
    }
}

/// Whether a metric key is a lower-is-better latency figure the doctor
/// compares across runs.
fn comparable(key: &str) -> bool {
    key.ends_with("_mean_us") || key.ends_with("_ns") || key == "keygen_ms"
}

fn run_label(run: &Json) -> Option<&str> {
    run.get("run").and_then(Json::as_str)
}

fn run_entries(run: &Json) -> &[Json] {
    run.get("entries").and_then(Json::as_array).unwrap_or(&[])
}

/// What an entry is matched on across runs: its Paillier `key_bits`,
/// the `ot_group` name of the OT/comparison rows, the `gc_width` of the
/// garbled-comparator row (as `gc<width>`), or the `mont_limbs` width of
/// the Montgomery kernel rows (as `mont<limbs>`).
fn entry_id(entry: &Json) -> Option<String> {
    let number = |key| entry.get(key).and_then(Json::as_f64).map(|v| v as u64);
    if let Some(bits) = number("key_bits") {
        return Some(format!("{bits}"));
    }
    if let Some(width) = number("gc_width") {
        return Some(format!("gc{width}"));
    }
    if let Some(limbs) = number("mont_limbs") {
        return Some(format!("mont{limbs}"));
    }
    entry
        .get("ot_group")
        .and_then(Json::as_str)
        .map(String::from)
}

/// The entry of `run` with identity `id`, if any.
fn entry_at<'a>(run: &'a Json, id: &str) -> Option<&'a Json> {
    run_entries(run)
        .iter()
        .find(|e| entry_id(e).as_deref() == Some(id))
}

/// Metrics two runs can be compared on: shared comparable keys over
/// shared entries, as `(entry id, key)`.
fn shared_metrics(a: &Json, b: &Json) -> Vec<(String, String)> {
    let mut out = Vec::new();
    for ea in run_entries(a) {
        let Some(id) = entry_id(ea) else {
            continue;
        };
        let Some(eb) = entry_at(b, &id) else {
            continue;
        };
        let Some(obj) = ea.as_object() else {
            continue;
        };
        for key in obj.keys() {
            if comparable(key) && eb.get(key).and_then(Json::as_f64).is_some() {
                out.push((id.clone(), key.clone()));
            }
        }
    }
    out
}

/// Picks the default `(baseline, current)` run labels from a trajectory:
/// the **latest** pair of runs that share at least one comparable
/// metric, preferring the most recent run as `current`. (Overhead-style
/// runs that publish only `*_bare/_instr` figures share nothing with
/// the kernel runs and are skipped.)
pub fn pick_runs(trajectory: &Json) -> Option<(String, String)> {
    let runs = trajectory.as_array()?;
    for j in (1..runs.len()).rev() {
        for i in (0..j).rev() {
            if !shared_metrics(&runs[i], &runs[j]).is_empty() {
                return Some((
                    run_label(&runs[i])?.to_string(),
                    run_label(&runs[j])?.to_string(),
                ));
            }
        }
    }
    None
}

/// Compares two labelled runs of a crypto trajectory metric-by-metric.
/// With `baseline`/`current` as `None`, the pair comes from
/// [`pick_runs`].
///
/// # Errors
///
/// A human-readable message when the document is not a trajectory, a
/// requested label is missing, or no comparable pair exists.
pub fn crypto_checks(
    trajectory: &Json,
    baseline: Option<&str>,
    current: Option<&str>,
    threshold: f64,
) -> Result<(String, String, Vec<Check>), String> {
    let runs = trajectory
        .as_array()
        .ok_or("crypto trajectory must be a JSON array of runs")?;
    let find = |label: &str| {
        runs.iter()
            .find(|r| run_label(r) == Some(label))
            .ok_or_else(|| format!("run {label:?} not found in the trajectory"))
    };
    let (base_label, cur_label) = match (baseline, current) {
        (Some(b), Some(c)) => (b.to_string(), c.to_string()),
        _ => {
            let (b, c) =
                pick_runs(trajectory).ok_or("no pair of runs shares a comparable metric")?;
            (
                baseline.map_or(b, str::to_string),
                current.map_or(c, str::to_string),
            )
        }
    };
    let base = find(&base_label)?;
    let cur = find(&cur_label)?;
    let metrics = shared_metrics(base, cur);
    if metrics.is_empty() {
        return Err(format!(
            "runs {base_label:?} and {cur_label:?} share no comparable metric"
        ));
    }
    let checks = metrics
        .into_iter()
        .map(|(id, key)| {
            let b = entry_at(base, &id)
                .and_then(|e| e.get(&key))
                .and_then(Json::as_f64)
                .expect("shared metric present in baseline");
            let c = entry_at(cur, &id)
                .and_then(|e| e.get(&key))
                .and_then(Json::as_f64)
                .expect("shared metric present in current");
            Check::compare(format!("crypto/{id}/{key}"), b, c, threshold)
        })
        .chain(batched_ot_checks(cur))
        .chain(off_the_ladder_checks(cur))
        .chain(randomizer_lane_checks(cur))
        .chain(one_leg_decrypt_checks(cur))
        .chain(validation_checks(cur))
        .chain(gc_table_checks(cur))
        .collect();
    Ok((base_label, cur_label, checks))
}

/// A 64-bit comparison may cost at most this share of 64 single OTs.
/// One sender key per comparison and two bits per transfer measure
/// 0.23–0.35 (edwards25519) / 0.64–0.69 (Test192); a key per bit is
/// above 1 by operation count (measured 1.05 / 1.17 in `Z_p*`).
const BATCHED_COMPARE_SHARE: f64 = 0.75;

/// Test192's limit: its `ot_single` is a ≈20 µs operation that swings
/// with the box, and garbling — which no group makes cheaper — is a
/// larger part of its comparison, so 0.75 would leave a freshly recorded
/// run under 10% of margin. Just below the per-instance floor of 1.
const BATCHED_COMPARE_SHARE_TEST192: f64 = 0.9;

/// Within-run structural gate, one check per OT-group entry: both
/// figures come from the same run on the same box, so a regression to
/// per-instance OT keys fails whatever the machine's speed.
fn batched_ot_checks(run: &Json) -> impl Iterator<Item = Check> + '_ {
    run_entries(run).iter().filter_map(|entry| {
        let group = entry.get("ot_group").and_then(Json::as_str)?;
        let single = entry.get("ot_single_mean_us").and_then(Json::as_f64)?;
        let compare = entry.get("compare_64_mean_us").and_then(Json::as_f64)?;
        let share = if group == "test192" {
            BATCHED_COMPARE_SHARE_TEST192
        } else {
            BATCHED_COMPARE_SHARE
        };
        let limit = share * 64.0 * single;
        Some(Check::invariant(
            format!("crypto/{group}/compare_64_batched"),
            limit,
            compare,
            compare < limit,
        ))
    })
}

/// A 64-bit comparison may cost at most this multiple of the 32
/// variable-base scalar multiplications (`[a]Bᵢ`) it must run on the
/// curve. With every other multiplication off a comb table it measures
/// 1.9–2.1 of them (66 fixed-base multiplications, the `A` table, 33
/// decodes, garbling); the receiver's 32 `[bᵢ]A` back on the window
/// are ≈2.8, and every fixed-base multiplication back on it ≈3.6.
const CURVE_COMPARE_SHARE: f64 = 2.5;

/// Within-run structural gate, one check per OT-group entry that
/// carries the `scalar_mul` row (the curve's): a comparison whose
/// fixed-base multiplications drift back onto variable-base windows
/// fails on any box.
fn off_the_ladder_checks(run: &Json) -> impl Iterator<Item = Check> + '_ {
    run_entries(run).iter().filter_map(|entry| {
        let group = entry.get("ot_group").and_then(Json::as_str)?;
        let mul = entry.get("scalar_mul_mean_us").and_then(Json::as_f64)?;
        let compare = entry.get("compare_64_mean_us").and_then(Json::as_f64)?;
        let limit = CURVE_COMPARE_SHARE * 32.0 * mul;
        Some(Check::invariant(
            format!("crypto/{group}/compare_off_the_ladder"),
            limit,
            compare,
            compare < limit,
        ))
    })
}

/// An encryption may cost at most this share of a classic `r^n`
/// encryption under the same key. The `h_s^x` lane is ≈40–56 table
/// multiplications against ≈1,230–2,460 plus a gcd: 0.04–0.06 measured;
/// any ladder left on the encryption path is above 0.5.
const FIXED_BASE_ENCRYPT_SHARE: f64 = 0.25;

/// Within-run structural gate at the paper's key sizes (1024 bits and
/// up), one check per key-size entry that carries both rows: a
/// regression of `encrypt` to a full-width ladder fails on any box.
fn randomizer_lane_checks(run: &Json) -> impl Iterator<Item = Check> + '_ {
    run_entries(run).iter().filter_map(|entry| {
        let bits = entry.get("key_bits").and_then(Json::as_f64)? as u64;
        let lane = entry.get("encrypt_mean_us").and_then(Json::as_f64)?;
        let classic = entry
            .get("encrypt_classic_mean_us")
            .and_then(Json::as_f64)?;
        let limit = FIXED_BASE_ENCRYPT_SHARE * classic;
        (bits >= 1024).then(|| {
            Check::invariant(
                format!("crypto/{bits}/encrypt_off_the_ladder"),
                limit,
                lane,
                lane < limit,
            )
        })
    })
}

/// A decryption of a plaintext below `2^128` may cost at most this
/// share of a two-leg CRT decryption under the same key. One leg is
/// half the ladders and no Garner step (≈0.5 by operation count);
/// both legs again are 1.
const ONE_LEG_DECRYPT_SHARE: f64 = 0.6;

/// Within-run structural gate at the paper's key sizes (1024 bits and
/// up), one check per key-size entry that carries both rows: a bounded
/// decryption back on both CRT legs fails on any box.
fn one_leg_decrypt_checks(run: &Json) -> impl Iterator<Item = Check> + '_ {
    run_entries(run).iter().filter_map(|entry| {
        let bits = entry.get("key_bits").and_then(Json::as_f64)? as u64;
        let bounded = entry.get("decrypt_u128_mean_us").and_then(Json::as_f64)?;
        let crt = entry.get("decrypt_crt_mean_us").and_then(Json::as_f64)?;
        let limit = ONE_LEG_DECRYPT_SHARE * crt;
        (bits >= 1024).then(|| {
            Check::invariant(
                format!("crypto/{bits}/decrypt_on_one_leg"),
                limit,
                bounded,
                bounded <= limit,
            )
        })
    })
}

/// Within-run structural gate at every key size that carries both
/// rows: checking a received ciphertext (one gcd at half the width)
/// must cost less than making one (one `h_s^x` table exponentiation).
/// The Lehmer gcd measures 0.06–0.4 of an encryption (2048- down to
/// 128-bit keys); textbook Euclid, one heap-allocating division per
/// quotient, measured 0.5–2.3 and crossed it at 1024 bits and below.
fn validation_checks(run: &Json) -> impl Iterator<Item = Check> + '_ {
    run_entries(run).iter().filter_map(|entry| {
        let bits = entry.get("key_bits").and_then(Json::as_f64)? as u64;
        let validate = entry.get("validate_mean_us").and_then(Json::as_f64)?;
        let encrypt = entry.get("encrypt_mean_us").and_then(Json::as_f64)?;
        Some(Check::invariant(
            format!("crypto/{bits}/validate_below_encrypt"),
            encrypt,
            validate,
            validate < encrypt,
        ))
    })
}

/// The most AND-table bytes a garbled 64-bit comparator may ship: one
/// AND per bit (the carry-chain comparator), two 16-byte half-gates
/// rows per AND. Four-row tables, or the `2w − 1`-AND comparator, ship
/// 4096 / 4064 bytes or more.
const GC_TABLE_BYTES_64: f64 = (2 * 16 * 64) as f64;

/// Within-run structural gate on the deterministic `gc_table_bytes_64`
/// row: a byte count, so it fails on any box.
fn gc_table_checks(run: &Json) -> impl Iterator<Item = Check> + '_ {
    run_entries(run).iter().filter_map(|entry| {
        let bytes = entry.get("gc_table_bytes_64").and_then(Json::as_f64)?;
        Some(Check::invariant(
            "crypto/gc64/half_gate_tables".into(),
            GC_TABLE_BYTES_64,
            bytes,
            bytes <= GC_TABLE_BYTES_64,
        ))
    })
}

/// Relative byte-count slack between topologies (they carry identical
/// protocol payloads; envelope framing may differ by a few bytes).
const BYTES_PARITY_SLACK: f64 = 0.01;

/// Structural invariants over the topology-ablation rows.
///
/// # Errors
///
/// A message when the document is not an array of ablation rows.
pub fn topology_checks(rows: &Json) -> Result<Vec<Check>, String> {
    let rows = rows
        .as_array()
        .ok_or("topology ablation must be a JSON array of rows")?;
    let field = |row: &Json, key: &str| -> Result<f64, String> {
        row.get(key)
            .and_then(Json::as_f64)
            .ok_or_else(|| format!("topology row missing {key:?}"))
    };
    let mut checks = Vec::new();
    let mut tree_points: Vec<(f64, f64)> = Vec::new();
    for row in rows {
        let sellers = field(row, "sellers")? as u64;
        let ring = field(row, "ring_critical_path_us")?;
        let tree = field(row, "tree_critical_path_us")?;
        tree_points.push((sellers as f64, tree));
        // The tree's whole reason to exist: beat the ring's O(n)
        // critical path once fan-in matters.
        if sellers >= 8 {
            checks.push(Check::invariant(
                format!("topology/{sellers}/tree_beats_ring"),
                ring,
                tree,
                tree < ring,
            ));
        }
        // Topologies trade latency, not volume: bytes must agree.
        let bytes = [
            field(row, "ring_bytes")?,
            field(row, "star_bytes")?,
            field(row, "tree_bytes")?,
        ];
        let min = bytes.iter().copied().fold(f64::INFINITY, f64::min);
        let max = bytes.iter().copied().fold(0.0, f64::max);
        checks.push(Check::invariant(
            format!("topology/{sellers}/bytes_parity"),
            min,
            max,
            min > 0.0 && (max - min) / min <= BYTES_PARITY_SLACK,
        ));
    }
    // Sublinear scaling: across the sweep, the tree's critical path may
    // not grow as fast as the seller count does.
    if let (Some(&(s0, t0)), Some(&(s1, t1))) = (tree_points.first(), tree_points.last()) {
        if s1 > s0 && t0 > 0.0 {
            checks.push(Check::invariant(
                "topology/tree_scales_sublinearly".to_string(),
                s1 / s0,
                t1 / t0,
                t1 / t0 < s1 / s0,
            ));
        }
    }
    Ok(checks)
}

/// Sanity checks over a `grid_day --json` day report.
///
/// # Errors
///
/// A message when the document lacks the day-report fields.
pub fn grid_day_checks(report: &Json) -> Result<Vec<Check>, String> {
    let ledger_valid = report
        .get("ledger_valid")
        .and_then(Json::as_bool)
        .ok_or("day report missing \"ledger_valid\"")?;
    let cleared = report
        .get("cleared_kwh")
        .and_then(Json::as_f64)
        .ok_or("day report missing \"cleared_kwh\"")?;
    let messages = report
        .get("total_messages")
        .and_then(Json::as_f64)
        .ok_or("day report missing \"total_messages\"")?;
    let windows = report
        .get("windows")
        .and_then(Json::as_array)
        .ok_or("day report missing \"windows\"")?;
    let fingerprints_ok = !windows.is_empty()
        && windows.iter().all(|w| {
            w.get("fingerprint")
                .and_then(Json::as_str)
                .is_some_and(|f| f.len() == 64 && f.bytes().all(|b| b.is_ascii_hexdigit()))
        });
    Ok(vec![
        Check::invariant(
            "grid_day/ledger_valid".into(),
            1.0,
            f64::from(u8::from(ledger_valid)),
            ledger_valid,
        ),
        Check::invariant("grid_day/cleared_kwh".into(), 0.0, cleared, cleared > 0.0),
        Check::invariant(
            "grid_day/total_messages".into(),
            0.0,
            messages,
            messages > 0.0,
        ),
        Check::invariant(
            "grid_day/window_fingerprints".into(),
            1.0,
            f64::from(u8::from(fingerprints_ok)),
            fingerprints_ok,
        ),
    ])
}

fn day_windows<'a>(doc: &'a Json, what: &str) -> Result<&'a [Json], String> {
    doc.get("windows")
        .and_then(Json::as_array)
        .ok_or_else(|| format!("{what} report missing \"windows\""))
}

/// The `shard -> fingerprint` map of one window's
/// `"shard_fingerprints"` array (quarantined coalitions are absent).
fn shard_fingerprints<'a>(
    window: &'a Json,
    w: usize,
    what: &str,
) -> Result<std::collections::BTreeMap<u64, &'a str>, String> {
    let rows = window
        .get("shard_fingerprints")
        .and_then(Json::as_array)
        .ok_or_else(|| format!("{what} window {w} missing \"shard_fingerprints\""))?;
    let mut map = std::collections::BTreeMap::new();
    for row in rows {
        let shard = row
            .get("shard")
            .and_then(Json::as_f64)
            .ok_or_else(|| format!("{what} window {w} fingerprint row missing \"shard\""))?;
        let fp = row
            .get("fingerprint")
            .and_then(Json::as_str)
            .ok_or_else(|| format!("{what} window {w} fingerprint row missing \"fingerprint\""))?;
        map.insert(shard as u64, fp);
    }
    Ok(map)
}

/// Chaos-smoke invariants: a `grid_day --chaos --json` report held
/// against the fault-free report of the same configuration.
///
/// The degraded day must complete end to end (same window count, valid
/// ledger, energy still clearing), the committed fault plan must
/// actually bite (at least one coalition quarantined and at least one
/// recovered over the day), and — the heart of the recovery contract —
/// every coalition that cleared *under* chaos must report a per-shard
/// fingerprint bit-identical to the fault-free run. The baseline itself
/// must be fully healthy, so swapped arguments flag instead of passing
/// vacuously.
///
/// # Errors
///
/// A message when either document lacks the day-report fields the
/// comparison needs.
pub fn chaos_checks(clean: &Json, chaos: &Json) -> Result<Vec<Check>, String> {
    let clean_windows = day_windows(clean, "clean")?;
    let chaos_windows = day_windows(chaos, "chaos")?;
    let mut checks = vec![Check::invariant(
        "chaos/completed".into(),
        clean_windows.len() as f64,
        chaos_windows.len() as f64,
        !chaos_windows.is_empty() && chaos_windows.len() == clean_windows.len(),
    )];
    let ledger_valid = chaos
        .get("ledger_valid")
        .and_then(Json::as_bool)
        .ok_or("chaos report missing \"ledger_valid\"")?;
    checks.push(Check::invariant(
        "chaos/ledger_valid".into(),
        1.0,
        f64::from(u8::from(ledger_valid)),
        ledger_valid,
    ));
    let cleared = chaos
        .get("cleared_kwh")
        .and_then(Json::as_f64)
        .ok_or("chaos report missing \"cleared_kwh\"")?;
    checks.push(Check::invariant(
        "chaos/cleared_kwh".into(),
        0.0,
        cleared,
        cleared > 0.0,
    ));

    let mut baseline_degraded = 0u64;
    let mut quarantined = 0u64;
    let mut recovered = 0u64;
    let mut healthy = 0u64;
    let mut mismatched = 0u64;
    for (w, (cw, xw)) in clean_windows.iter().zip(chaos_windows).enumerate() {
        for status in cw.get("statuses").and_then(Json::as_array).unwrap_or(&[]) {
            if status.get("status").and_then(Json::as_str) != Some("cleared") {
                baseline_degraded += 1;
            }
        }
        let statuses = xw
            .get("statuses")
            .and_then(Json::as_array)
            .ok_or_else(|| format!("chaos window {w} missing \"statuses\""))?;
        let clean_fp = shard_fingerprints(cw, w, "clean")?;
        let chaos_fp = shard_fingerprints(xw, w, "chaos")?;
        for (shard, status) in statuses.iter().enumerate() {
            match status.get("status").and_then(Json::as_str) {
                Some("cleared") => {
                    healthy += 1;
                    let shard = shard as u64;
                    if chaos_fp.get(&shard) != clean_fp.get(&shard) {
                        mismatched += 1;
                    }
                }
                Some("recovered") => recovered += 1,
                Some("quarantined") => quarantined += 1,
                _ => {
                    return Err(format!(
                        "chaos window {w} shard {shard} carries an unknown status"
                    ))
                }
            }
        }
    }
    checks.push(Check::invariant(
        "chaos/baseline_healthy".into(),
        0.0,
        baseline_degraded as f64,
        baseline_degraded == 0,
    ));
    checks.push(Check::invariant(
        "chaos/quarantined_coalitions".into(),
        0.0,
        quarantined as f64,
        quarantined > 0,
    ));
    checks.push(Check::invariant(
        "chaos/recovered_coalitions".into(),
        0.0,
        recovered as f64,
        recovered > 0,
    ));
    checks.push(Check::invariant(
        "chaos/healthy_fingerprints_identical".into(),
        healthy as f64,
        (healthy - mismatched) as f64,
        healthy > 0 && mismatched == 0,
    ));
    Ok(checks)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn trajectory(runs: &str) -> Json {
        Json::parse(runs).expect("valid test JSON")
    }

    /// Runs `a` and `b` over the same entries (a comma-separated list
    /// of JSON objects).
    fn twin_runs(entries: &str) -> Json {
        let entries = trajectory(&format!("[{entries}]"));
        let entries = entries.as_array().expect("entry list");
        ["a", "b"]
            .into_iter()
            .map(|label| crate::trajectory_run(label, entries.to_vec()))
            .collect()
    }

    #[test]
    fn compare_flags_past_threshold_only() {
        let ok = Check::compare("m".into(), 100.0, 110.0, 0.25);
        assert!(!ok.regressed);
        assert!((ok.change_pct - 10.0).abs() < 1e-9);
        let bad = Check::compare("m".into(), 100.0, 126.0, 0.25);
        assert!(bad.regressed);
        // Improvements never flag.
        assert!(!Check::compare("m".into(), 100.0, 40.0, 0.25).regressed);
        // Zero baseline: any nonzero current is an infinite regression.
        assert!(Check::compare("m".into(), 0.0, 1.0, 0.25).regressed);
        assert!(!Check::compare("m".into(), 0.0, 0.0, 0.25).regressed);
    }

    #[test]
    fn picks_latest_comparable_pair() {
        // Three runs; the last shares nothing with the others (an
        // overhead-style run), so the pair walks back.
        let t = trajectory(
            "[{\"run\":\"a\",\"entries\":[{\"key_bits\":512,\"x_mean_us\":10}]},\
              {\"run\":\"b\",\"entries\":[{\"key_bits\":512,\"x_mean_us\":8}]},\
              {\"run\":\"c\",\"entries\":[{\"key_bits\":512,\"x_bare_mean_us\":8}]}]",
        );
        assert_eq!(pick_runs(&t), Some(("a".into(), "b".into())));
    }

    #[test]
    fn crypto_checks_match_by_key_bits() {
        let t = trajectory(
            "[{\"run\":\"a\",\"entries\":[\
                {\"key_bits\":512,\"x_mean_us\":10,\"keygen_ms\":5,\"x_ops_per_s\":99},\
                {\"key_bits\":1024,\"x_mean_us\":40},\
                {\"ot_group\":\"ed25519\",\"compare_64_mean_us\":600},\
                {\"mont_limbs\":16,\"mont_mul_ns\":500,\"mont_sqr_ns\":480}]},\
              {\"run\":\"b\",\"entries\":[\
                {\"key_bits\":512,\"x_mean_us\":30,\"keygen_ms\":5.1},\
                {\"key_bits\":1024,\"x_mean_us\":39},\
                {\"ot_group\":\"ed25519\",\"compare_64_mean_us\":130},\
                {\"ot_group\":\"test192\",\"compare_64_mean_us\":7},\
                {\"mont_limbs\":16,\"mont_mul_ns\":300,\"mont_sqr_ns\":290},\
                {\"mont_limbs\":64,\"mont_mul_ns\":5000}]}]",
        );
        let (base, cur, checks) = crypto_checks(&t, None, None, 0.25).expect("comparable");
        assert_eq!((base.as_str(), cur.as_str()), ("a", "b"));
        // ops_per_s is not a latency metric, `test192` and the 64-limb
        // kernel have no baseline entry; six shared figures remain, the
        // comparison row matched by its OT group and the kernel rows by
        // their limb count.
        assert_eq!(checks.len(), 6);
        assert!(checks
            .iter()
            .any(|c| c.name == "crypto/mont16/mont_sqr_ns" && !c.regressed));
        assert!(checks
            .iter()
            .any(|c| c.name == "crypto/ed25519/compare_64_mean_us" && !c.regressed));
        let x512 = checks
            .iter()
            .find(|c| c.name == "crypto/512/x_mean_us")
            .expect("check present");
        assert!(x512.regressed, "3x slower must flag");
        assert!(checks
            .iter()
            .filter(|c| c.name != "crypto/512/x_mean_us")
            .all(|c| !c.regressed));
        // Explicit labels override the picker.
        let (b2, c2, _) = crypto_checks(&t, Some("b"), Some("a"), 0.25).expect("explicit");
        assert_eq!((b2.as_str(), c2.as_str()), ("b", "a"));
        assert!(crypto_checks(&t, Some("zz"), None, 0.25).is_err());
    }

    #[test]
    fn per_instance_ot_keys_fail_the_within_run_gate() {
        // Both runs are equally fast pairwise; the current run's
        // `slowgroup` pays a full OT per compared bit again.
        let entries = "{\"ot_group\":\"ed25519\",\"ot_single_mean_us\":184,\
                        \"compare_64_mean_us\":3610},\
                       {\"ot_group\":\"test192\",\"ot_single_mean_us\":18,\
                        \"compare_64_mean_us\":950},\
                       {\"ot_group\":\"slowgroup\",\"ot_single_mean_us\":18,\
                        \"compare_64_mean_us\":1200}";
        let t = twin_runs(entries);
        let (_, _, checks) = crypto_checks(&t, None, None, 0.25).expect("comparable");
        let gate = |group: &str| {
            let name = format!("crypto/{group}/compare_64_batched");
            checks.iter().find(|c| c.name == name).expect("gated")
        };
        assert!(!gate("ed25519").regressed, "0.31 of 64 OTs");
        assert!(!gate("test192").regressed, "0.82 of 64 OTs, limit 0.9");
        assert!(gate("slowgroup").regressed, "1.04 of 64 OTs");
        assert_eq!(checks.iter().filter(|c| c.regressed).count(), 1);
    }

    #[test]
    fn a_comparison_back_on_full_width_ladders_fails_the_within_run_gate() {
        // ed25519: only the 32 `[a]Bᵢ` on the window. `widegroup`: its
        // fixed-base multiplications are back on the window too. An
        // entry without the `scalar_mul` row (test192's) is not gated.
        let entries = "{\"ot_group\":\"ed25519\",\"ot_single_mean_us\":184,\
                        \"compare_64_mean_us\":3610,\"scalar_mul_mean_us\":55.5},\
                       {\"ot_group\":\"widegroup\",\"ot_single_mean_us\":390,\
                        \"compare_64_mean_us\":6400,\"scalar_mul_mean_us\":55.5},\
                       {\"ot_group\":\"test192\",\"ot_single_mean_us\":17,\
                        \"compare_64_mean_us\":641,\"ot_ladder_full_mean_us\":4.3}";
        let t = twin_runs(entries);
        let (_, _, checks) = crypto_checks(&t, None, None, 0.25).expect("comparable");
        let gates: Vec<_> = checks
            .iter()
            .filter(|c| c.name.ends_with("/compare_off_the_ladder"))
            .map(|c| (c.name.as_str(), c.regressed))
            .collect();
        assert_eq!(
            gates,
            [
                ("crypto/ed25519/compare_off_the_ladder", false),
                ("crypto/widegroup/compare_off_the_ladder", true)
            ]
        );
        // The batching gate cannot see it: 6.4 ms is 0.26 of 64 OTs.
        assert_eq!(checks.iter().filter(|c| c.regressed).count(), 1);
    }

    #[test]
    fn an_encryption_back_on_the_ladder_fails_the_within_run_gate() {
        // 1024: the lane. 2048: `encrypt` is a ladder again. 512 is not
        // gated, and an entry without the reference row is skipped.
        let entries = "{\"key_bits\":512,\"encrypt_mean_us\":200,\"encrypt_classic_mean_us\":230},\
                       {\"key_bits\":1024,\"encrypt_mean_us\":70,\"encrypt_classic_mean_us\":1500},\
                       {\"key_bits\":2048,\"encrypt_mean_us\":9800,\"encrypt_classic_mean_us\":10100},\
                       {\"key_bits\":3072,\"encrypt_mean_us\":500}";
        let t = twin_runs(entries);
        let (_, _, checks) = crypto_checks(&t, None, None, 0.25).expect("comparable");
        let gates: Vec<_> = checks
            .iter()
            .filter(|c| c.name.ends_with("/encrypt_off_the_ladder"))
            .map(|c| (c.name.as_str(), c.regressed))
            .collect();
        assert_eq!(
            gates,
            [
                ("crypto/1024/encrypt_off_the_ladder", false),
                ("crypto/2048/encrypt_off_the_ladder", true)
            ]
        );
        assert_eq!(checks.iter().filter(|c| c.regressed).count(), 1);
    }

    #[test]
    fn a_bounded_decryption_back_on_both_legs_fails_the_within_run_gate() {
        // 1024: one leg. 2048: both legs again. 512 is not gated, and an
        // entry without the reference row is skipped.
        let entries = "{\"key_bits\":512,\"decrypt_crt_mean_us\":60,\"decrypt_u128_mean_us\":58},\
                       {\"key_bits\":1024,\"decrypt_crt_mean_us\":420,\"decrypt_u128_mean_us\":215},\
                       {\"key_bits\":2048,\"decrypt_crt_mean_us\":2600,\"decrypt_u128_mean_us\":2550},\
                       {\"key_bits\":3072,\"decrypt_u128_mean_us\":5000}";
        let t = twin_runs(entries);
        let (_, _, checks) = crypto_checks(&t, None, None, 0.25).expect("comparable");
        let gates: Vec<_> = checks
            .iter()
            .filter(|c| c.name.ends_with("/decrypt_on_one_leg"))
            .map(|c| (c.name.as_str(), c.regressed))
            .collect();
        assert_eq!(
            gates,
            [
                ("crypto/1024/decrypt_on_one_leg", false),
                ("crypto/2048/decrypt_on_one_leg", true)
            ]
        );
        assert_eq!(checks.iter().filter(|c| c.regressed).count(), 1);
    }

    #[test]
    fn a_validation_dearer_than_an_encryption_fails_the_within_run_gate() {
        // 1024: Euclid's gcd again, dearer than the encryption it guards.
        // 2048: the Lehmer gcd. An entry without the row is skipped.
        let entries = "{\"key_bits\":128,\"encrypt_mean_us\":1.9,\"validate_mean_us\":0.8},\
                       {\"key_bits\":1024,\"encrypt_mean_us\":64,\"validate_mean_us\":79},\
                       {\"key_bits\":2048,\"encrypt_mean_us\":420,\"validate_mean_us\":22},\
                       {\"key_bits\":3072,\"encrypt_mean_us\":900}";
        let t = twin_runs(entries);
        let (_, _, checks) = crypto_checks(&t, None, None, 0.25).expect("comparable");
        let gates: Vec<_> = checks
            .iter()
            .filter(|c| c.name.ends_with("/validate_below_encrypt"))
            .map(|c| (c.name.as_str(), c.regressed))
            .collect();
        assert_eq!(
            gates,
            [
                ("crypto/128/validate_below_encrypt", false),
                ("crypto/1024/validate_below_encrypt", true),
                ("crypto/2048/validate_below_encrypt", false)
            ]
        );
        assert_eq!(checks.iter().filter(|c| c.regressed).count(), 1);
    }

    #[test]
    fn garbled_tables_past_two_rows_per_and_fail_the_gate() {
        // Half-gates over 64 ANDs; four-row tables over 64 ANDs; the
        // old 127-AND comparator in four rows. The timing rows alone
        // carry no gate.
        for (bytes, regressed) in [(2048, false), (4096, true), (8128, true)] {
            let entry = format!(
                "{{\"gc_width\":64,\"garble_64_mean_us\":190,\"eval_64_mean_us\":60,\
                  \"gc_table_bytes_64\":{bytes}}}"
            );
            let (_, _, checks) = crypto_checks(&twin_runs(&entry), None, None, 0.25).expect("ok");
            let gate: Vec<_> = checks
                .iter()
                .filter(|c| c.name == "crypto/gc64/half_gate_tables")
                .map(|c| c.regressed)
                .collect();
            assert_eq!(gate, [regressed], "{bytes} bytes");
            assert!(checks
                .iter()
                .any(|c| c.name == "crypto/gc64/garble_64_mean_us" && !c.regressed));
        }
        let t = twin_runs("{\"gc_width\":64,\"garble_64_mean_us\":190}");
        let (_, _, checks) = crypto_checks(&t, None, None, 0.25).expect("comparable");
        assert!(checks
            .iter()
            .all(|c| !c.name.ends_with("/half_gate_tables")));
    }

    #[test]
    fn topology_invariants() {
        let rows = trajectory(
            "[{\"sellers\":4,\"fanin\":2,\"ring_bytes\":392,\"star_bytes\":392,\
               \"tree_bytes\":392,\"ring_critical_path_us\":540,\
               \"star_critical_path_us\":240,\"tree_critical_path_us\":432,\
               \"ring_cpu_us\":1,\"star_cpu_us\":1,\"tree_cpu_us\":1},\
              {\"sellers\":64,\"fanin\":2,\"ring_bytes\":6271,\"star_bytes\":6272,\
               \"tree_bytes\":6272,\"ring_critical_path_us\":7020,\
               \"star_critical_path_us\":720,\"tree_critical_path_us\":864,\
               \"ring_cpu_us\":1,\"star_cpu_us\":1,\"tree_cpu_us\":1}]",
        );
        let checks = topology_checks(&rows).expect("valid rows");
        assert!(
            checks.iter().all(|c| !c.regressed),
            "committed shape is clean"
        );
        assert!(checks
            .iter()
            .any(|c| c.name == "topology/64/tree_beats_ring"));
        assert!(checks
            .iter()
            .any(|c| c.name == "topology/tree_scales_sublinearly"));
        // A synthetic regression: the tree suddenly slower than the ring.
        let bad = trajectory(
            "[{\"sellers\":8,\"fanin\":2,\"ring_bytes\":783,\"star_bytes\":784,\
               \"tree_bytes\":784,\"ring_critical_path_us\":972,\
               \"star_critical_path_us\":272,\"tree_critical_path_us\":2000,\
               \"ring_cpu_us\":1,\"star_cpu_us\":1,\"tree_cpu_us\":1}]",
        );
        let checks = topology_checks(&bad).expect("valid rows");
        assert!(checks
            .iter()
            .any(|c| c.name == "topology/8/tree_beats_ring" && c.regressed));
    }

    #[test]
    fn grid_day_sanity() {
        let good = Json::obj([
            ("ledger_valid", true.into()),
            ("cleared_kwh", 12.5.into()),
            ("total_messages", 420u64.into()),
            (
                "windows",
                Json::Arr(vec![Json::obj([("fingerprint", "ab".repeat(32).into())])]),
            ),
        ]);
        let checks = grid_day_checks(&good).expect("valid report");
        assert!(checks.iter().all(|c| !c.regressed));
        let bad = trajectory(
            "{\"ledger_valid\":false,\"cleared_kwh\":0,\"total_messages\":0,\
              \"windows\":[]}",
        );
        let checks = grid_day_checks(&bad).expect("valid report");
        assert!(checks.iter().all(|c| c.regressed), "everything flags");
        assert!(grid_day_checks(&Json::Null).is_err());
    }

    /// A one-window day report: its coalition roster and its
    /// `(shard, fingerprint)` rows, each fingerprint one repeated digit.
    fn one_window_day(cleared_kwh: f64, statuses: Vec<Json>, rows: &[(usize, char)]) -> Json {
        let rows = rows.iter().map(|&(shard, digit)| {
            Json::obj([
                ("shard", shard.into()),
                ("fingerprint", digit.to_string().repeat(64).into()),
            ])
        });
        let window = Json::obj([
            ("statuses", Json::Arr(statuses)),
            ("shard_fingerprints", rows.collect()),
        ]);
        Json::obj([
            ("ledger_valid", true.into()),
            ("cleared_kwh", cleared_kwh.into()),
            ("windows", Json::Arr(vec![window])),
        ])
    }

    #[test]
    fn chaos_invariants() {
        let cleared = || Json::obj([("status", "cleared".into())]);
        let degraded = || {
            vec![
                Json::obj([
                    ("status", "quarantined".into()),
                    ("error", "timeout".into()),
                ]),
                Json::obj([("status", "recovered".into()), ("attempts", 1u32.into())]),
                cleared(),
            ]
        };
        // Clean baseline: three coalitions, all cleared.
        let clean = one_window_day(
            20.0,
            vec![cleared(), cleared(), cleared()],
            &[(0, 'a'), (1, 'b'), (2, 'c')],
        );
        // Chaos: shard 0 quarantined (absent from the fingerprints),
        // shard 1 recovered (fingerprint may differ — the retry draws
        // past the failed attempt), shard 2 healthy and bit-identical.
        let chaos = one_window_day(12.5, degraded(), &[(1, 'd'), (2, 'c')]);
        let checks = chaos_checks(&clean, &chaos).expect("valid reports");
        assert!(
            checks.iter().all(|c| !c.regressed),
            "committed plan is clean"
        );
        for name in [
            "chaos/completed",
            "chaos/ledger_valid",
            "chaos/baseline_healthy",
            "chaos/quarantined_coalitions",
            "chaos/recovered_coalitions",
            "chaos/healthy_fingerprints_identical",
        ] {
            assert!(checks.iter().any(|c| c.name == name), "{name} present");
        }
        // A healthy coalition whose bits drifted from the fault-free
        // run must flag — that is the whole quarantine contract.
        let drifted = one_window_day(12.5, degraded(), &[(1, 'd'), (2, 'e')]);
        let checks = chaos_checks(&clean, &drifted).expect("valid reports");
        assert!(checks
            .iter()
            .any(|c| c.name == "chaos/healthy_fingerprints_identical" && c.regressed));
        // Swapped arguments: the "clean" baseline is itself degraded.
        let checks = chaos_checks(&chaos, &clean).expect("valid reports");
        assert!(checks
            .iter()
            .any(|c| c.name == "chaos/baseline_healthy" && c.regressed));
        // A chaos plan that never bit (nothing quarantined or
        // recovered) flags instead of passing vacuously.
        let checks = chaos_checks(&clean, &clean).expect("valid reports");
        assert!(checks
            .iter()
            .any(|c| c.name == "chaos/quarantined_coalitions" && c.regressed));
        assert!(chaos_checks(&Json::Null, &chaos).is_err());
    }

    #[test]
    fn verdict_json_and_exit_semantics() {
        let v = Verdict {
            checks: vec![
                Check::compare("a".into(), 10.0, 11.0, 0.25),
                Check::compare("b".into(), 10.0, 20.0, 0.25),
                // A name built from an `ot_group` string out of the
                // trajectory file, and a change with no finite value.
                Check::compare("crypto/\"g\"\n/x_mean_us".into(), 0.0, 1.0, 0.25),
            ],
            threshold: 0.25,
        };
        assert!(!v.passed());
        assert_eq!(v.regressions().len(), 2);
        let parsed = Json::parse(&v.to_json().to_string()).expect("verdict is valid JSON");
        assert_eq!(parsed.get("passed").and_then(Json::as_bool), Some(false));
        let checks = parsed
            .get("checks")
            .and_then(Json::as_array)
            .expect("checks");
        assert_eq!(checks.len(), 3);
        assert_eq!(
            checks[2].get("name").and_then(Json::as_str),
            Some("crypto/\"g\"\n/x_mean_us")
        );
        assert_eq!(checks[2].get("change_pct"), Some(&Json::Null));
    }
}
