//! The **Private Energy Market (PEM)** — privacy-preserving distributed
//! energy trading (Xie, Wang, Hong, Thai; ICDCS 2020).
//!
//! This crate implements the paper's cryptographic protocols end-to-end
//! over the simulated network of `pem-net`:
//!
//! * **Protocol 1** ([`Pem`]) — the per-window driver: coalition
//!   formation, market evaluation, pricing, distribution.
//! * **Protocol 2** ([`protocol2`]) — *Private Market Evaluation*: two
//!   concurrent rounds of nonce-masked Paillier aggregation (the paper's
//!   ring, or any [`Topology`]) plus one garbled-circuit comparison
//!   decide `E_s < E_b` without revealing either total.
//! * **Protocol 3** ([`protocol3`]) — *Private Pricing*: sellers'
//!   `Σ k_i` and `Σ (g_i + 1 + ε_i b_i − b_i)` are homomorphically
//!   aggregated (by [`fold`], the walk every protocol shares) to a random
//!   buyer who derives and broadcasts the clamped price `p*` (Eqs. 13–14).
//! * **Protocol 4** ([`protocol4`]) — *Private Distribution*: the
//!   demand-ratio inversion trick (`Enc(E_b)^{K/|sn_j|}`) reveals only the
//!   allocation ratios; pairwise amounts `e_ij` and payments `m_ji` are
//!   then routed peer-to-peer.
//!
//! The message-driven steps — the fold, Protocol 2's two folds, Protocols 3
//! and 4 and the trading window itself ([`fabric_window`]) — are `async
//! fn`s that yield before each receive. [`block_on`] runs one to completion;
//! a [`WindowTask`] hands a window's polls to a `pem_fabric::Executor`.
//!
//! Every quantity PEM computes equals the plaintext reference in
//! `pem-market` up to the fixed-point grid ([`Quantizer`]); integration
//! tests assert this across whole generated days.
//!
//! # Example
//!
//! ```
//! use pem_core::{Pem, PemConfig};
//! use pem_market::AgentWindow;
//!
//! let agents = vec![
//!     AgentWindow::new(0, 5.0, 1.0, 0.0, 0.9, 30.0),
//!     AgentWindow::new(1, 0.0, 3.0, 0.0, 0.9, 25.0),
//!     AgentWindow::new(2, 0.0, 6.0, 0.0, 0.9, 20.0),
//! ];
//! let mut pem = Pem::new(PemConfig::fast_test(), 3).expect("setup");
//! let outcome = pem.run_window(&agents).expect("window");
//! assert!(outcome.price >= 90.0 && outcome.price <= 110.0);
//! assert_eq!(outcome.trades.len(), 2);
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod agents;
mod config;
mod error;
pub mod fabric_window;
pub mod fold;
mod keys;
mod metrics;
mod pem;
pub mod protocol2;
pub mod protocol3;
pub mod protocol4;
mod quantize;
pub mod randpool;

pub use agents::AgentCtx;
pub use config::{OtProfile, PemConfig};
pub use error::PemError;
pub use fabric_window::WindowTask;
pub use fold::Topology;
pub use keys::{encrypt_under, KeyDirectory, RandomizerStreams};
pub use metrics::{PhaseMetrics, WindowMetrics};
pub use pem::{Pem, PemWindowOutcome, RevealedInfo};
pub use pem_fabric::block_on;
pub use quantize::Quantizer;
pub use randpool::{PoolStats, RandomizerPool};
