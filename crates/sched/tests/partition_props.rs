//! Property-based invariants every partitioner must uphold, across
//! random populations and coalition bounds:
//!
//! 1. **exact cover** — every agent is assigned to exactly one shard;
//! 2. **bound** — no shard exceeds `max_size` (and none is empty);
//! 3. **determinism** — the same population always yields the same plan.
//!
//! `ShardPlan::new` asserts (1) and parts of (2) on construction; these
//! properties re-check them independently so a partitioner bug cannot
//! hide behind a future relaxation of the constructor.

use pem_market::AgentWindow;
use pem_sched::PartitionStrategy;
use proptest::prelude::*;

fn arb_population() -> impl Strategy<Value = Vec<AgentWindow>> {
    let agent = (
        0.0f64..10.0, // generation
        0.0f64..10.0, // load
        -2.0f64..2.0, // battery
        0.5f64..0.99, // battery loss
        5.0f64..50.0, // preference
    );
    proptest::collection::vec(agent, 1..140).prop_map(|rows| {
        rows.into_iter()
            .enumerate()
            .map(|(i, (g, l, b, eps, k))| AgentWindow::new(i, g, l, b, eps, k))
            .collect()
    })
}

const STRATEGIES: [PartitionStrategy; 4] = [
    PartitionStrategy::RoundRobin,
    PartitionStrategy::Feeder { feeders: 1 },
    PartitionStrategy::Feeder { feeders: 5 },
    PartitionStrategy::SurplusBalanced,
];

proptest! {
    #[test]
    fn every_agent_assigned_exactly_once(pop in arb_population(), max_size in 2usize..20) {
        for strategy in STRATEGIES {
            let plan = strategy.partition(&pop, max_size);
            let mut seen = vec![0usize; pop.len()];
            for shard in plan.shards() {
                for &a in shard {
                    prop_assert!(a < pop.len(), "{strategy:?}: agent {a} out of range");
                    seen[a] += 1;
                }
            }
            for (a, &count) in seen.iter().enumerate() {
                prop_assert_eq!(count, 1, "{:?}: agent {} assigned {} times", strategy, a, count);
            }
        }
    }

    #[test]
    fn no_shard_exceeds_the_bound(pop in arb_population(), max_size in 2usize..20) {
        for strategy in STRATEGIES {
            let plan = strategy.partition(&pop, max_size);
            prop_assert!(plan.shard_count() >= 1, "{strategy:?}: no shards");
            prop_assert!(plan.largest() <= max_size,
                "{strategy:?}: shard of {} exceeds {max_size}", plan.largest());
            for shard in plan.shards() {
                prop_assert!(!shard.is_empty(), "{strategy:?}: empty shard");
            }
        }
    }

    #[test]
    fn partition_is_deterministic(pop in arb_population(), max_size in 2usize..20) {
        for strategy in STRATEGIES {
            let a = strategy.partition(&pop, max_size);
            let b = strategy.partition(&pop, max_size);
            prop_assert_eq!(a, b, "{:?} must be a pure function of the population", strategy);
        }
    }
}
