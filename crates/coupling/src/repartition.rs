//! Dispersion-driven re-partitioning: feed persistent coalition
//! imbalance back into the shard plan.
//!
//! The coupling round arbitrages residual imbalance *after* the fact;
//! a better partition avoids creating it. The [`Repartitioner`] tracks
//! an EWMA of per-shard residuals across windows and, once a surplus
//! shard and a deficit shard both exceed the threshold persistently,
//! proposes member **swaps** between them (swaps keep every coalition's
//! size — and therefore its protocol cost — unchanged). The proposal is
//! a pure function of the observed history and the next window's net
//! energies, so re-partitioned grids stay deterministic.

use serde::{Deserialize, Serialize};

/// EWMA weight of the newest residual observation.
const EWMA_ALPHA: f64 = 0.5;

/// Smallest persistent per-shard imbalance (kWh) that triggers a
/// re-partition; both a surplus and a deficit shard must exceed it.
const THRESHOLD_KWH: f64 = 0.5;

/// Windows of history required before the first proposal.
const MIN_WINDOWS: u64 = 2;

/// Maximum member swaps per proposal: bounds churn, and so how many
/// coalitions are rebuilt (no key is re-made; every home keeps its
/// pair).
const MAX_SWAPS: usize = 4;

/// Tracks per-shard imbalance history and proposes plan changes.
#[derive(Debug, Clone, Default, Serialize, Deserialize)]
pub struct Repartitioner {
    ewma: Vec<f64>,
    windows: u64,
}

impl Repartitioner {
    /// Creates a tracker with no history.
    pub fn new() -> Repartitioner {
        Repartitioner::default()
    }

    /// Windows observed since the last reset.
    pub fn windows_observed(&self) -> u64 {
        self.windows
    }

    /// Smoothed per-shard residuals (kWh; positive = persistent surplus).
    pub fn imbalance(&self) -> &[f64] {
        &self.ewma
    }

    /// Folds one window's per-shard residuals into the history.
    pub fn observe(&mut self, residuals: &[f64]) {
        if self.ewma.len() != residuals.len() {
            self.ewma = vec![0.0; residuals.len()];
            self.windows = 0;
        }
        let a = EWMA_ALPHA;
        for (e, &r) in self.ewma.iter_mut().zip(residuals.iter()) {
            let r = if r.is_finite() { r } else { 0.0 };
            *e = if self.windows == 0 {
                r
            } else {
                a * r + (1.0 - a) * *e
            };
        }
        self.windows += 1;
    }

    /// Clears the history (call after a proposal is applied — the new
    /// membership starts from scratch).
    pub fn reset(&mut self) {
        self.ewma.clear();
        self.windows = 0;
    }

    /// Proposes new membership lists, or `None` while the imbalance is
    /// tolerable. `net_energy[agent]` is the next window's net energy
    /// per global agent index; `shards` is the current membership.
    ///
    /// The proposal swaps members between the most persistently-surplus
    /// and most persistently-deficit coalitions (up to `MAX_SWAPS`
    /// swaps), choosing each swap to minimize the pair's combined
    /// post-swap imbalance. Shard count and sizes are preserved; member
    /// lists come back sorted (canonical order).
    pub fn propose(&self, net_energy: &[f64], shards: &[Vec<usize>]) -> Option<Vec<Vec<usize>>> {
        if self.windows < MIN_WINDOWS || self.ewma.len() != shards.len() {
            return None;
        }
        let mut imbalance = self.ewma.clone();
        let mut plan: Vec<Vec<usize>> = shards.to_vec();
        let mut applied = 0;
        while applied < MAX_SWAPS {
            let (hi, lo) = match extremes(&imbalance) {
                Some(pair) => pair,
                None => break,
            };
            if imbalance[hi] < THRESHOLD_KWH || imbalance[lo] > -THRESHOLD_KWH {
                break;
            }
            // The surplus we want to shift from `hi` to `lo`.
            let gap = (imbalance[hi] - imbalance[lo]) / 2.0;
            let mut best: Option<(usize, usize, f64)> = None;
            for (ai, &a) in plan[hi].iter().enumerate() {
                for (bi, &b) in plan[lo].iter().enumerate() {
                    // Swapping a (out of hi) against b (into hi) moves
                    // hi's balance by d = net[b] − net[a] and lo's by −d;
                    // ideal is d = −gap.
                    let d = net_energy[b] - net_energy[a];
                    let miss = (d + gap).abs();
                    if best.is_none_or(|(_, _, m)| miss < m) {
                        best = Some((ai, bi, miss));
                    }
                }
            }
            let (ai, bi, miss) = best?;
            // Only swap when it strictly tightens the pair.
            let improvement = gap.abs() - miss;
            if improvement <= f64::EPSILON {
                break;
            }
            let a = plan[hi][ai];
            let b = plan[lo][bi];
            plan[hi][ai] = b;
            plan[lo][bi] = a;
            let d = net_energy[b] - net_energy[a];
            imbalance[hi] += d;
            imbalance[lo] -= d;
            applied += 1;
        }
        if applied == 0 {
            return None;
        }
        for shard in &mut plan {
            shard.sort_unstable();
        }
        Some(plan)
    }
}

/// Indices of the largest and smallest entries (deterministic tiebreak:
/// first occurrence wins). `None` for fewer than two shards.
fn extremes(values: &[f64]) -> Option<(usize, usize)> {
    if values.len() < 2 {
        return None;
    }
    let mut hi = 0;
    let mut lo = 0;
    for (i, &v) in values.iter().enumerate() {
        if v > values[hi] {
            hi = i;
        }
        if v < values[lo] {
            lo = i;
        }
    }
    if hi == lo {
        None
    } else {
        Some((hi, lo))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn tracker() -> Repartitioner {
        Repartitioner::new()
    }

    /// Shard 0 all sellers (+1.5 each), shard 1 all buyers (−1.5 each).
    fn lopsided() -> (Vec<f64>, Vec<Vec<usize>>) {
        let net = vec![1.5, 1.5, 1.5, 1.5, -1.5, -1.5, -1.5, -1.5];
        let shards = vec![vec![0, 1, 2, 3], vec![4, 5, 6, 7]];
        (net, shards)
    }

    #[test]
    fn no_proposal_before_min_windows() {
        let (net, shards) = lopsided();
        let mut t = tracker();
        t.observe(&[6.0, -6.0]);
        assert!(t.propose(&net, &shards).is_none(), "only one window seen");
        t.observe(&[6.0, -6.0]);
        assert!(t.propose(&net, &shards).is_some());
    }

    #[test]
    fn no_proposal_below_threshold() {
        let (net, shards) = lopsided();
        let mut t = tracker();
        t.observe(&[0.1, -0.1]);
        t.observe(&[0.1, -0.1]);
        assert!(t.propose(&net, &shards).is_none());
    }

    #[test]
    fn swaps_balance_the_extremes_and_preserve_the_partition() {
        let (net, shards) = lopsided();
        let mut t = tracker();
        t.observe(&[6.0, -6.0]);
        t.observe(&[6.0, -6.0]);
        let plan = t.propose(&net, &shards).expect("proposal");
        // Partition invariants: same shard count and sizes, every agent
        // exactly once.
        assert_eq!(plan.len(), 2);
        assert_eq!(plan[0].len(), 4);
        assert_eq!(plan[1].len(), 4);
        let mut all: Vec<usize> = plan.iter().flatten().copied().collect();
        all.sort_unstable();
        assert_eq!(all, (0..8).collect::<Vec<_>>());
        // Swaps moved sellers into the deficit shard and vice versa.
        let shard0_net: f64 = plan[0].iter().map(|&a| net[a]).sum();
        let shard1_net: f64 = plan[1].iter().map(|&a| net[a]).sum();
        assert!(shard0_net.abs() < 6.0, "surplus shard tightened");
        assert!(shard1_net.abs() < 6.0, "deficit shard tightened");
        assert_eq!(shard0_net + shard1_net, 0.0, "swaps conserve the grid");
    }

    #[test]
    fn proposal_is_deterministic_and_bounded() {
        let (net, shards) = lopsided();
        let mut t = tracker();
        t.observe(&[6.0, -6.0]);
        t.observe(&[6.0, -6.0]);
        let a = t.propose(&net, &shards).expect("a");
        let b = t.propose(&net, &shards).expect("b");
        assert_eq!(a, b);
        // MAX_SWAPS bounds the churn: at most 4 members changed side.
        let moved = a[0].iter().filter(|m| !shards[0].contains(m)).count();
        assert!(moved <= MAX_SWAPS);
    }

    #[test]
    fn membership_change_resets_history() {
        let mut t = tracker();
        t.observe(&[1.0, -1.0]);
        t.observe(&[1.0, -1.0]);
        assert_eq!(t.windows_observed(), 2);
        t.observe(&[1.0, -1.0, 0.0]); // shard count changed
        assert_eq!(t.windows_observed(), 1);
        t.reset();
        assert_eq!(t.windows_observed(), 0);
        assert!(t.imbalance().is_empty());
    }

    #[test]
    fn balanced_shards_never_churn() {
        let net = vec![1.0, -1.0, 1.0, -1.0];
        let shards = vec![vec![0, 1], vec![2, 3]];
        let mut t = tracker();
        for _ in 0..5 {
            t.observe(&[0.0, 0.0]);
        }
        assert!(t.propose(&net, &shards).is_none());
    }
}
