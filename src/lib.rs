//! # PEM — Private Energy Market
//!
//! A from-scratch Rust reproduction of **“Privacy Preserving Distributed
//! Energy Trading”** (Shangyu Xie, Han Wang, Yuan Hong, My Thai —
//! ICDCS 2020): smart homes and microgrids trade surplus energy with each
//! other at a Stackelberg-equilibrium price, computed and settled under
//! cryptographic protocols so that nobody's generation, load, battery
//! schedule or utility parameters are disclosed.
//!
//! This facade crate re-exports the whole workspace:
//!
//! | module | crate | contents |
//! |---|---|---|
//! | [`bignum`] | `pem-bignum` | arbitrary-precision integers (Montgomery modpow, Miller–Rabin, …) |
//! | [`crypto`] | `pem-crypto` | Paillier, SHA-256, oblivious transfer, DRBG |
//! | [`circuit`] | `pem-circuit` | boolean circuits, Yao garbling, 2PC secure comparison |
//! | [`market`] | `pem-market` | the Stackelberg trading model (Eqs. 1–15), allocation, baseline |
//! | [`data`] | `pem-data` | synthetic smart-home traces (UMass Smart* substitute) |
//! | [`net`] | `pem-net` | `Transport` trait and its one byte-metered fabric (`SimNetwork`: latency models, virtual clock, fault injection), wire codec — per-agent processes would be a socket-backed `Transport` (parked on the ROADMAP) |
//! | [`core`] | `pem-core` | Protocols 1–4: the Private Energy Market itself; every encryption takes the next draw of its key's randomizer stream (one `h_s^x` lane) |
//! | [`fabric`] | `pem-fabric` | `block_on` / `yield_now` / `try_join` for the `async fn` protocols, deterministic single-thread executor (`EventTransport` = `SimNetwork`) |
//! | [`ledger`] | `pem-ledger` | hash-chained settlement ledger (§VI blockchain extension) |
//! | [`sched`] | `pem-sched` | sharded multi-coalition grid orchestrator (bounded coalitions, worker pool, one ledger) |
//! | [`coupling`] | `pem-coupling` | privacy-preserving cross-shard market coupling + dispersion-driven re-partitioning |
//! | [`telemetry`] | `pem-telemetry` | spans (wall + virtual clock), metrics registry, Chrome trace export |
//!
//! # Quickstart
//!
//! ```
//! use pem::core::{Pem, PemConfig};
//! use pem::market::AgentWindow;
//!
//! // Three agents: one with 4 kWh surplus, two with deficits.
//! let agents = vec![
//!     AgentWindow::new(0, 5.0, 1.0, 0.0, 0.9, 30.0),
//!     AgentWindow::new(1, 0.0, 3.0, 0.0, 0.9, 25.0),
//!     AgentWindow::new(2, 0.0, 6.0, 0.0, 0.9, 20.0),
//! ];
//! let mut pem = Pem::new(PemConfig::fast_test(), 3)?;
//! let outcome = pem.run_window(&agents)?;
//! println!("price: {} cents/kWh, {} trades", outcome.price, outcome.trades.len());
//! # Ok::<(), pem::core::PemError>(())
//! ```
//!
//! See `examples/` for runnable scenarios and `DESIGN.md` /
//! `EXPERIMENTS.md` for the reproduction methodology.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub use pem_bignum as bignum;
pub use pem_circuit as circuit;
pub use pem_core as core;
pub use pem_coupling as coupling;
pub use pem_crypto as crypto;
pub use pem_data as data;
pub use pem_fabric as fabric;
pub use pem_ledger as ledger;
pub use pem_market as market;
pub use pem_net as net;
pub use pem_sched as sched;
pub use pem_telemetry as telemetry;
