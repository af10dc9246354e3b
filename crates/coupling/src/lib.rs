//! **`pem-coupling`** — privacy-preserving cross-shard market coupling.
//!
//! The sharded grid (`pem-sched`) clears every coalition independently,
//! which leaves *price dispersion* on the table: a coalition long on
//! solar clears at 92 ¢/kWh while its neighbor clears at 108, and both
//! settle their residuals with the utility at the far worse feed-in /
//! retail prices. This crate adds the layer between per-coalition
//! clearing and settlement that recovers that welfare **without moving
//! any private data across coalition boundaries**:
//!
//! * [`CouplingCoordinator`] runs the coupling round
//!   ([`CouplingCoordinator::run_round`]): shard representatives publish
//!   their coalition's residual position and price·volume — **encrypted
//!   under a grid Paillier key** with randomizers drawn from the grid
//!   key's one stream (`pem_core::RandomizerStreams`) — a binary
//!   aggregation tree folds them homomorphically, and only *grid-wide
//!   totals* are ever decrypted to derive a corridor price; per-shard
//!   residuals are then claimed (again under the grid key, by every
//!   shard, so traffic is constant) and matched into an inter-shard
//!   transfer schedule.
//! * [`Repartitioner`] closes the loop: persistent per-shard imbalance
//!   (EWMA over windows) proposes member swaps between chronically
//!   surplus and deficit coalitions, so the *next* windows create less
//!   arbitrage to begin with.
//!
//! # The privacy argument
//!
//! The source protocols (Xie et al., ICDCS 2020) guarantee that inside
//! a coalition nobody learns another agent's generation, load, battery
//! schedule or preferences. The coupling round preserves that boundary:
//!
//! 1. **What leaves a coalition** is only its representative's
//!    aggregate — residual imbalance and cleared price·volume — never a
//!    per-agent value. These aggregates are exactly what the coalition's
//!    designated parties already learn (masked) from Protocols 2–4.
//! 2. **What intermediate shards see** while routing the aggregation
//!    tree is Paillier ciphertext under the grid key: semantically
//!    secure, so a representative relaying its subtree learns nothing
//!    about sibling coalitions.
//! 3. **What the coordinator decrypts** in phase 1 is the *grid total*
//!    (excess supply, excess demand, volume-weighted price) — the
//!    coupling analogue of the paper's sanctioned disclosure surface —
//!    and in phase 3 the per-*coalition* residuals needed to schedule
//!    transfers, still never anything per-agent.
//! 4. **The traffic itself is bid-blind**: every shard sends exactly one
//!    fixed-shape up-message and one claim, so message counts and sizes
//!    depend only on the shard count and key size, not on coalition
//!    membership or bids (asserted by wire accounting in
//!    `tests/grid_coupling.rs`).
//!
//! The corridor price and the transfer schedule are public outputs, as
//! the clearing price already is inside each coalition.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod config;
mod error;
mod repartition;
mod round;

pub use config::{CouplingConfig, RepartitionConfig};
pub use error::CouplingError;
pub use repartition::Repartitioner;
pub use round::{
    price_dispersion, CouplingCoordinator, CouplingOutcome, CouplingSummary, ShardPosition,
    ShardTransfer,
};
