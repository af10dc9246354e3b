//! **`pem-sched`** — the sharded multi-coalition grid orchestrator.
//!
//! The ICDCS 2020 paper evaluates PEM on one coalition per trading
//! window; this crate is the subsystem that scales the same protocols to
//! grid-sized populations:
//!
//! * [`partition`] — pluggable [`Partitioner`] strategies carve the
//!   population into bounded coalitions (round-robin, feeder-topology
//!   locality, surplus-balanced serpentine dealing),
//! * [`pool`] — a fixed worker pool with deterministic result ordering:
//!   the same seed yields bit-identical grids at 1, 4 or 64 workers,
//! * per-coalition [`pem_core::Pem`] instances over one grid-wide
//!   directory of per-home keys, each with its own DRBG and per-key
//!   randomizer streams ([`pem_core::RandomizerStreams`]),
//! * [`GridOrchestrator`] — dispatches coalition windows, merges traffic
//!   onto grid-global party ids ([`pem_net::NetStats::merge_mapped`]),
//!   folds prices into cross-shard dispersion and latencies into
//!   percentiles, and settles every trading coalition's trades onto one
//!   hash-chained [`pem_ledger::Ledger`],
//! * cross-shard **market coupling** (`pem-coupling`, enabled through
//!   [`GridConfig::coupling`]) — after per-shard clearing, encrypted
//!   coalition positions are tree-aggregated under a grid Paillier key,
//!   a corridor price arbitrages the price dispersion, inter-shard
//!   transfers settle as [`pem_ledger::TransferTx`] blocks, and a
//!   dispersion-driven [`pem_coupling::Repartitioner`] feeds persistent
//!   imbalance back into the shard plan.
//!
//! # Example
//!
//! ```
//! use pem_core::PemConfig;
//! use pem_market::AgentWindow;
//! use pem_sched::{Engine, GridConfig, GridOrchestrator, PartitionStrategy, RetryPolicy};
//!
//! // 12 agents, coalitions of at most 4, two workers.
//! let population: Vec<AgentWindow> = (0..12)
//!     .map(|i| {
//!         if i % 2 == 0 {
//!             AgentWindow::new(i, 3.0, 0.5, 0.0, 0.9, 25.0)
//!         } else {
//!             AgentWindow::new(i, 0.0, 2.0, 0.0, 0.9, 28.0)
//!         }
//!     })
//!     .collect();
//! let mut grid = GridOrchestrator::new(GridConfig {
//!     pem: PemConfig::fast_test(),
//!     coalition_size: 4,
//!     workers: 2,
//!     engine: Engine::Threads,
//!     strategy: PartitionStrategy::SurplusBalanced,
//!     coupling: None,
//!     retry: RetryPolicy::default(),
//! })?;
//! let report = grid.run_window(&population)?;
//! assert_eq!(report.shard_outcomes.len(), 3);
//! assert!(report.cleared_kwh > 0.0);
//! assert!(grid.ledger().validate().is_ok());
//! # Ok::<(), pem_sched::SchedError>(())
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod error;
mod grid;
mod json;
pub mod partition;
pub mod pool;
mod report;

pub use error::SchedError;
pub use grid::{ChaosSpec, Engine, GridConfig, GridOrchestrator, RetryPolicy};
pub use partition::{
    FeederTopology, PartitionStrategy, Partitioner, RoundRobin, ShardPlan, SurplusBalanced,
};
pub use pem_coupling::{CouplingConfig, CouplingSummary, RepartitionConfig};
pub use report::{
    CoalitionStatus, GridDayReport, GridReport, LatencyPercentiles, PhaseLatencies, PriceStats,
    SettlementSummary, ShardOutcome,
};
