//! Simulated multi-party network for the PEM protocols.
//!
//! The paper evaluates PEM with one Docker container per agent on a
//! CloudLab server (§VII-A); what the evaluation actually measures is
//! protocol compute time and bytes on the wire. This crate reproduces the
//! measurement surface in-process:
//!
//! * [`wire`] — a compact, explicit binary codec ([`wire::WireWriter`] /
//!   [`wire::WireReader`]) so every protocol message has a well-defined
//!   serialized size (Table I is computed from these, not from struct
//!   guesses),
//! * [`Transport`] — the abstract fabric surface the protocol drivers
//!   are generic over: send/recv/broadcast, stats, and a critical-path
//!   virtual clock,
//! * [`SimNetwork`] — the deterministic, single-threaded reference
//!   implementation: per-party mailboxes that also drain as one
//!   arrival-ordered event queue, per-label byte/message counters and
//!   (per-link) latency models,
//! * [`MeshTransport`] — a crossbeam-channel mesh over the same send
//!   pipeline (accounting, clocks, fault hooks), drivable sequentially
//!   or split into per-party endpoints,
//! * [`runtime`] — the one-OS-thread-per-agent harness over mesh
//!   endpoints (the closest in-process analogue of the paper's
//!   per-agent containers).
//!
//! # Example
//!
//! ```
//! use pem_net::{PartyId, SimNetwork};
//!
//! let mut net = SimNetwork::new(3);
//! net.send(PartyId(0), PartyId(2), "greet", b"hello".to_vec()).unwrap();
//! let env = net.recv(PartyId(2)).expect("delivered");
//! assert_eq!(env.payload, b"hello");
//! assert_eq!(net.stats().total_bytes, 5);
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod error;
pub mod fault;
pub mod mesh;
mod pipeline;
pub mod runtime;
mod sim;
mod stats;
mod transport;
pub mod wire;

pub use error::NetError;
pub use fault::{Delivery, FaultKind, FaultPlan};
pub use mesh::{MeshEndpoint, MeshHandle, MeshTransport};
pub use sim::{Envelope, LatencyModel, PartyId, SimNetwork};
pub use stats::{LabelStats, NetStats};
pub use transport::Transport;
