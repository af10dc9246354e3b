//! Simulated multi-party network for the PEM protocols.
//!
//! The paper evaluates PEM with one Docker container per agent on a
//! CloudLab server (§VII-A); what the evaluation actually measures is
//! protocol compute time and bytes on the wire. This crate reproduces the
//! measurement surface in-process, on one fabric:
//!
//! * [`wire`] — a compact, explicit binary codec ([`wire::WireWriter`] /
//!   [`wire::WireReader`]) so every protocol message has a well-defined
//!   serialized size (Table I is computed from these, not from struct
//!   guesses),
//! * [`Transport`] — the fabric surface the protocol drivers are generic
//!   over: send/recv, stats, and a critical-path virtual clock,
//! * [`SimNetwork`] — its one implementation: deterministic,
//!   single-threaded per-party mailboxes, read by `(recipient, label)`,
//!   that also drain as one arrival-ordered event queue, per-label
//!   byte/message counters, (per-link) latency models and fault
//!   injection ([`fault`]).
//!
//! Per-agent processes, the paper's deployment shape, would be a second
//! [`Transport`] implementation over sockets — ROADMAP's parked
//! socket-backed grid — not a second in-process fabric.
//!
//! # Example
//!
//! ```
//! use pem_net::{PartyId, SimNetwork, Transport};
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
mod pipeline;
mod sim;
mod stats;
mod transport;
pub mod wire;

pub use error::NetError;
pub use fault::{Delivery, FaultKind, FaultPlan};
/// [`SimNetwork`] under its old mesh name. It exists only because the
/// frozen benchmark harness (`benchmark/src/probes.rs`) names it; there
/// is no second fabric behind it.
pub use sim::SimNetwork as MeshTransport;
pub use sim::{Envelope, LatencyModel, PartyId, SimNetwork};
pub use stats::{LabelStats, NetStats};
pub use transport::Transport;
