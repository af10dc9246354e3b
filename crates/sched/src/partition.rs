//! Population partitioning: carving a grid-scale population into
//! bounded-size coalitions.
//!
//! The paper evaluates PEM on a single coalition of at most a few hundred
//! agents per window; its protocols are quadratic-ish in coalition size
//! (ring aggregations, pairwise distribution). Scaling to a large grid
//! therefore means *sharding*: fixed-size neighborhoods that each run
//! their own market in parallel — the structure consensus-based and
//! hybrid P2P market designs converge on as well. A
//! [`PartitionStrategy`] names the carving; three cover the interesting
//! regimes:
//!
//! * [`PartitionStrategy::RoundRobin`] — uniform dealing, the baseline.
//! * [`PartitionStrategy::Feeder`] — distribution-feeder locality:
//!   coalitions never cross feeder boundaries (losses and congestion
//!   stay local).
//! * [`PartitionStrategy::SurplusBalanced`] — serpentine deal over net
//!   energy, so every coalition receives both strong sellers and deep
//!   buyers and can actually clear trades.

use pem_market::AgentWindow;

/// A partition of `0..n` agent indices into bounded coalitions.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ShardPlan {
    shards: Vec<Vec<usize>>,
}

impl ShardPlan {
    /// Wraps raw shard membership lists after validating that they form
    /// a partition of `0..population` with no shard above `max_size`.
    ///
    /// # Panics
    ///
    /// Panics when the lists are not a partition or a shard is oversized
    /// or empty — partitioners are infallible by construction, so a
    /// violation is a bug, not an input error.
    pub fn new(shards: Vec<Vec<usize>>, population: usize, max_size: usize) -> ShardPlan {
        let mut seen = vec![false; population];
        for shard in &shards {
            assert!(!shard.is_empty(), "empty coalition");
            assert!(
                shard.len() <= max_size,
                "coalition of {} exceeds bound {max_size}",
                shard.len()
            );
            for &a in shard {
                assert!(a < population, "agent {a} out of range");
                assert!(!seen[a], "agent {a} assigned twice");
                seen[a] = true;
            }
        }
        assert!(seen.iter().all(|&s| s), "some agents were left unassigned");
        ShardPlan { shards }
    }

    /// Membership lists, one per coalition (global agent indices).
    pub fn shards(&self) -> &[Vec<usize>] {
        &self.shards
    }

    /// Number of coalitions.
    pub fn shard_count(&self) -> usize {
        self.shards.len()
    }

    /// Size of the largest coalition.
    pub fn largest(&self) -> usize {
        self.shards.iter().map(Vec::len).max().unwrap_or(0)
    }
}

/// Number of shards needed for `n` agents at `max_size` per shard.
fn shard_count(n: usize, max_size: usize) -> usize {
    n.div_ceil(max_size).max(1)
}

/// How [`crate::GridConfig`] carves a population into bounded
/// coalitions. Every strategy is **deterministic**: the same population
/// always produces the same plan (the grid's determinism guarantee
/// builds on this).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum PartitionStrategy {
    /// Deals agents across coalitions like cards: agent `i` joins shard
    /// `i mod S`.
    RoundRobin,
    /// Feeder-aware partitioning: the population is laid out as
    /// `feeders` contiguous segments (agents on the same distribution
    /// feeder are adjacent, the usual layout of utility datasets), and
    /// coalitions are contiguous chunks that never span a feeder
    /// boundary. Chunk sizes are balanced within each feeder (a feeder
    /// of 5 at `max_size` 4 splits 3+2, not 4+1), since an undersized
    /// coalition trades poorly and a singleton cannot trade at all. A
    /// feeder with a *single* agent still yields a singleton coalition —
    /// locality makes that agent untradeable by construction.
    Feeder {
        /// Number of contiguous feeder segments.
        feeders: usize,
    },
    /// Serpentine deal over descending net energy: rank agents from
    /// largest surplus to deepest deficit, then deal rank `r` to shard
    /// `r mod S` on even passes and `S-1 - (r mod S)` on odd passes.
    /// Every coalition gets top sellers *and* deep buyers, so no shard
    /// degenerates into a one-sided no-market window.
    SurplusBalanced,
}

impl PartitionStrategy {
    /// The strategy itself; kept for callers written against the
    /// partitioner objects this enum once built.
    pub fn build(self) -> PartitionStrategy {
        self
    }

    /// Carves `agents` into coalitions of at most `max_size` members.
    pub fn partition(&self, agents: &[AgentWindow], max_size: usize) -> ShardPlan {
        let n = agents.len();
        let shards = match *self {
            PartitionStrategy::RoundRobin => {
                let s = shard_count(n, max_size);
                let mut shards = vec![Vec::new(); s];
                for i in 0..n {
                    shards[i % s].push(i);
                }
                shards
            }
            PartitionStrategy::Feeder { feeders } => {
                let feeders = feeders.clamp(1, n.max(1));
                let mut shards = Vec::new();
                let base = n / feeders;
                let extra = n % feeders;
                let mut start = 0;
                for f in 0..feeders {
                    let len = base + usize::from(f < extra);
                    // Balanced chunking: a feeder of 5 at max_size 4 splits
                    // 3+2, never 4+1 — a singleton coalition could never
                    // trade and its agent would be locked out for the whole
                    // day (membership is frozen with the key material after
                    // the first window).
                    if len > 0 {
                        let pieces = len.div_ceil(max_size);
                        let chunk_base = len / pieces;
                        let chunk_extra = len % pieces;
                        let mut at = start;
                        for c in 0..pieces {
                            let chunk_len = chunk_base + usize::from(c < chunk_extra);
                            shards.push((at..at + chunk_len).collect());
                            at += chunk_len;
                        }
                    }
                    start += len;
                }
                shards
            }
            PartitionStrategy::SurplusBalanced => {
                let s = shard_count(n, max_size);
                let mut ranked: Vec<usize> = (0..n).collect();
                // Descending net energy; index tiebreak keeps this
                // deterministic (net energies are finite — validated on
                // window entry).
                ranked.sort_by(|&a, &b| {
                    agents[b]
                        .net_energy()
                        .partial_cmp(&agents[a].net_energy())
                        .unwrap_or(std::cmp::Ordering::Equal)
                        .then(a.cmp(&b))
                });
                let mut shards = vec![Vec::new(); s];
                for (rank, &agent) in ranked.iter().enumerate() {
                    let pass = rank / s;
                    let pos = rank % s;
                    let shard = if pass.is_multiple_of(2) {
                        pos
                    } else {
                        s - 1 - pos
                    };
                    shards[shard].push(agent);
                }
                for shard in &mut shards {
                    shard.sort_unstable(); // canonical member order
                }
                shards
            }
        };
        ShardPlan::new(
            shards.into_iter().filter(|sh| !sh.is_empty()).collect(),
            n,
            max_size,
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn population(surpluses: &[f64]) -> Vec<AgentWindow> {
        surpluses
            .iter()
            .enumerate()
            .map(|(i, &s)| {
                if s >= 0.0 {
                    AgentWindow::new(i, s + 0.5, 0.5, 0.0, 0.9, 25.0)
                } else {
                    AgentWindow::new(i, 0.0, -s, 0.0, 0.9, 25.0)
                }
            })
            .collect()
    }

    fn mixed(n: usize) -> Vec<AgentWindow> {
        let surpluses: Vec<f64> = (0..n)
            .map(|i| {
                if i % 2 == 0 {
                    1.0 + i as f64 * 0.1
                } else {
                    -1.0 - i as f64 * 0.1
                }
            })
            .collect();
        population(&surpluses)
    }

    #[test]
    fn round_robin_covers_and_bounds() {
        let pop = mixed(23);
        let plan = PartitionStrategy::RoundRobin.partition(&pop, 5);
        assert_eq!(plan.shard_count(), 5);
        assert!(plan.largest() <= 5);
        let total: usize = plan.shards().iter().map(Vec::len).sum();
        assert_eq!(total, 23);
    }

    #[test]
    fn feeder_shards_never_cross_boundaries() {
        let pop = mixed(40);
        let plan = PartitionStrategy::Feeder { feeders: 4 }.partition(&pop, 6);
        // 4 feeders of 10 agents: every shard inside one decade.
        for shard in plan.shards() {
            let feeder = shard[0] / 10;
            assert!(
                shard.iter().all(|&a| a / 10 == feeder),
                "shard {shard:?} crosses a feeder boundary"
            );
            assert!(shard.len() <= 6);
        }
    }

    #[test]
    fn feeder_chunks_are_balanced_never_singleton() {
        // 8 feeders of 5 agents at max_size 4: naive chunking would give
        // 4+1 per feeder; balanced chunking must give 3+2.
        let pop = mixed(40);
        let plan = PartitionStrategy::Feeder { feeders: 8 }.partition(&pop, 4);
        assert_eq!(plan.shard_count(), 16);
        for shard in plan.shards() {
            assert!(
                shard.len() >= 2,
                "singleton coalition {shard:?} can never trade"
            );
        }
    }

    #[test]
    fn surplus_balanced_mixes_sides() {
        // 8 strong sellers then 8 deep buyers: naive chunking would make
        // one-sided shards; the serpentine deal must mix them.
        let mut surpluses = vec![4.0, 3.5, 3.0, 2.5, 2.0, 1.5, 1.0, 0.5];
        surpluses.extend([-0.5, -1.0, -1.5, -2.0, -2.5, -3.0, -3.5, -4.0]);
        let pop = population(&surpluses);
        let plan = PartitionStrategy::SurplusBalanced.partition(&pop, 4);
        assert_eq!(plan.shard_count(), 4);
        for shard in plan.shards() {
            let sellers = shard.iter().filter(|&&a| pop[a].net_energy() > 0.0).count();
            let buyers = shard.iter().filter(|&&a| pop[a].net_energy() < 0.0).count();
            assert!(sellers > 0 && buyers > 0, "one-sided shard {shard:?}");
        }
    }

    #[test]
    fn partitioners_are_deterministic() {
        let pop = mixed(37);
        for strategy in [
            PartitionStrategy::RoundRobin,
            PartitionStrategy::Feeder { feeders: 3 },
            PartitionStrategy::SurplusBalanced,
        ] {
            let a = strategy.partition(&pop, 7);
            let b = strategy.partition(&pop, 7);
            assert_eq!(a, b, "{strategy:?} not deterministic");
        }
    }

    #[test]
    fn single_shard_when_population_fits() {
        let pop = mixed(5);
        for strategy in [
            PartitionStrategy::RoundRobin,
            PartitionStrategy::Feeder { feeders: 1 },
            PartitionStrategy::SurplusBalanced,
        ] {
            let plan = strategy.partition(&pop, 20);
            assert_eq!(plan.shard_count(), 1);
            assert_eq!(plan.shards()[0].len(), 5);
        }
    }

    #[test]
    #[should_panic(expected = "assigned twice")]
    fn plan_rejects_duplicates() {
        ShardPlan::new(vec![vec![0, 1], vec![1]], 2, 4);
    }

    #[test]
    #[should_panic(expected = "left unassigned")]
    fn plan_rejects_gaps() {
        ShardPlan::new(vec![vec![0]], 2, 4);
    }
}
