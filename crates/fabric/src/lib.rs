//! Event-driven execution substrate for the PEM protocols.
//!
//! The paper deploys one container per agent, each blocked in its own
//! `recv` — fine for one coalition, fatal for ten thousand concurrent
//! windows. This crate provides the pieces that let a *single* thread
//! multiplex arbitrarily many protocol instances:
//!
//! * [`block_on`], [`yield_now`] and [`try_join`] — the protocols are
//!   `async fn`s that yield before each receive. The compiler turns each
//!   one into a state machine, so thousands of instances cost thousands
//!   of futures, not thousands of threads. A trading window wrapped in a
//!   [`FabricTask`] advances one receive per poll. [`block_on`] runs a
//!   protocol to completion where nothing else shares the thread:
//!   `Pem::run_window`, a fold inside the coupling round, Protocol 3 in
//!   the topology ablation. [`try_join`] runs two independent protocols
//!   in lockstep inside one future (Protocol 2's two folds).
//! * [`EventTransport`] — the name this crate gives `pem-net`'s one
//!   fabric, [`SimNetwork`](pem_net::SimNetwork): per-recipient
//!   mailboxes read by `(recipient, label)`, whose receives never block. A task whose message never
//!   arrives is not waited on: the receive that wanted it returns its
//!   typed error.
//! * [`Executor`] — a deterministic single-thread scheduler over
//!   [`FabricTask`]s: seeded, poll-order-stable, bit-identical output at
//!   any admission batch size. It is the only dispatcher of a grid's
//!   coalition windows (one per lane), polls every resident task once
//!   per round and evicts it when it finishes or fails. Its poll counter
//!   flows through the `pem-telemetry` registry (`fabric/polls`).
//!
//! # Example
//!
//! ```
//! use pem_fabric::{EventTransport, Executor, FabricTask, Poll};
//! use pem_net::{PartyId, Transport};
//!
//! // A trivial task: relay one message, then finish.
//! struct Relay(EventTransport);
//! impl FabricTask for Relay {
//!     type Output = Vec<u8>;
//!     type Error = pem_net::NetError;
//!     fn poll(&mut self) -> Result<Poll<Vec<u8>>, Self::Error> {
//!         let env = self.0.recv_expect(PartyId(1), "hop")?;
//!         Ok(Poll::Ready(env.payload))
//!     }
//! }
//!
//! let mut net = EventTransport::new(2);
//! net.send(PartyId(0), PartyId(1), "hop", vec![42]).unwrap();
//! let (outputs, report) = Executor::new(0).run(vec![Relay(net)]).unwrap();
//! assert_eq!(outputs, vec![vec![42]]);
//! assert_eq!(report.completed, 1);
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod executor;
mod machine;

pub use executor::{Collected, Executor, ExecutorReport, FabricTask, Poll};
pub use machine::{block_on, try_join, yield_now};
/// The queue fabric as poll-driven tasks see it: `pem-net`'s
/// deterministic [`SimNetwork`](pem_net::SimNetwork) under the name the
/// executor-side code has always used.
pub use pem_net::SimNetwork as EventTransport;
