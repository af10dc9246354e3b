//! The abstract message-passing surface the PEM protocols run over.
//!
//! The paper defines Protocols 2–4 over an abstract reliable
//! point-to-point model; everything they need from a fabric is captured
//! by [`Transport`]: addressed sends, receives addressed by recipient
//! and label, byte/message accounting and a *virtual clock* that tracks
//! the critical-path latency of the message pattern actually executed.
//! A one-to-many message is one send per recipient, each charged on its
//! own link.
//!
//! The crate ships one implementation,
//! [`SimNetwork`](crate::SimNetwork): deterministic in-memory per-party
//! mailboxes, read by `(recipient, label)` in send order, over the send
//! pipeline (accounting, per-link latency,
//! virtual clocks, fault hooks) that a poll-driven executor can also
//! probe and drain in global arrival order (`pem-fabric` re-exports it
//! as `EventTransport`). Drivers are written against `T: Transport`, so
//! a fabric that wraps it (a tampering test double) or replaces it (a
//! socket-backed grid) needs no protocol change.
//!
//! There is one receive path: a receive never blocks and never waits
//! on a deadline. A message that has not arrived is
//! [`NetError::Empty`], which ends the protocol that wanted it. The
//! transport does not know who may send what: `pem-core`'s `gather`
//! checks every frame against the senders its receiver expects.

use std::sync::atomic::{AtomicU64, Ordering};

use crate::error::NetError;
use crate::sim::{Envelope, PartyId};
use crate::stats::NetStats;

/// Next fabric id; `0` is reserved for "unattributed", so allocation
/// starts at 1.
static NEXT_FABRIC: AtomicU64 = AtomicU64::new(1);

/// Allocates a process-unique fabric id for a new transport instance —
/// telemetry message attribution relies on ids never colliding within
/// a process.
pub(crate) fn next_fabric_id() -> u64 {
    NEXT_FABRIC.fetch_add(1, Ordering::Relaxed)
}

/// A multi-party message fabric.
///
/// # Virtual clock
///
/// [`now_us`](Transport::now_us) advances along the *critical path* of
/// the traffic: each party owns a local clock; a message departs at its
/// sender's local time, its propagation (`base_us`) overlaps freely with
/// other messages, but its bytes then serialize on the **recipient's
/// ingress link** (`transmit_us`); a receive fast-forwards the
/// recipient's clock to the arrival time. A ring over `n` parties thus
/// costs `n` full hops in sequence, a depth-1 star pays one propagation
/// plus `n` serialized transmissions at the hub, and a fan-in-bounded
/// tree pays `O(log n)` hops of at most `fanin` transmissions each —
/// exactly the trade-off the aggregation-topology ablations measure.
pub trait Transport {
    /// Number of parties on the fabric.
    fn party_count(&self) -> usize;

    /// Sends `payload` from `from` to `to` under a phase label.
    ///
    /// # Errors
    ///
    /// [`NetError::UnknownParty`] / [`NetError::SelfSend`], or transport-
    /// specific delivery failures.
    fn send(
        &mut self,
        from: PartyId,
        to: PartyId,
        label: &'static str,
        payload: Vec<u8>,
    ) -> Result<(), NetError>;

    /// Pops the oldest message for `to`, of any label, if any is
    /// deliverable now.
    fn recv(&mut self, to: PartyId) -> Option<Envelope>;

    /// Pops the oldest message addressed to `(to, label)`, wherever it
    /// sits among `to`'s messages; messages under other labels stay
    /// queued in their order.
    ///
    /// # Errors
    ///
    /// [`NetError::Empty`] if no `label` message is queued for `to`;
    /// [`NetError::UnknownParty`].
    fn recv_expect(&mut self, to: PartyId, label: &'static str) -> Result<Envelope, NetError>;

    /// Snapshot of the accumulated traffic statistics.
    fn stats(&self) -> NetStats;

    /// The virtual clock: critical-path latency (µs) of the traffic so
    /// far. Always zero under a zero-latency model.
    fn now_us(&self) -> u64;

    /// Process-unique id of this transport instance, used to scope
    /// telemetry message events (`pem_telemetry::MsgEvent::fabric`)
    /// when several fabrics record concurrently. `0` (the default)
    /// means the fabric does not attribute its traffic.
    fn fabric_id(&self) -> u64 {
        0
    }

    /// Number of sent-but-unconsumed messages across all parties.
    fn pending(&self) -> usize;
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::sim::{LatencyModel, SimNetwork};

    /// Exercises a transport through the trait only (the driver shape
    /// Protocols 2–4 compile down to).
    fn generic_roundtrip<T: Transport>(net: &mut T) {
        assert_eq!(net.party_count(), 3);
        net.send(PartyId(0), PartyId(1), "a", vec![1, 2]).unwrap();
        net.send(PartyId(1), PartyId(0), "b", vec![9]).unwrap();
        net.send(PartyId(1), PartyId(2), "b", vec![9]).unwrap();
        let env = net.recv_expect(PartyId(1), "a").unwrap();
        assert_eq!(env.payload, vec![1, 2]);
        assert_eq!(net.pending(), 2, "both `b` copies still queued");
        assert!(net.recv(PartyId(0)).is_some());
        assert!(net.recv(PartyId(2)).is_some());
        assert_eq!(net.pending(), 0);
        let stats = net.stats();
        assert_eq!(stats.total_messages, 3);
        assert_eq!(stats.total_bytes, 4);
    }

    #[test]
    fn sim_network_is_a_transport() {
        generic_roundtrip(&mut SimNetwork::new(3));
    }

    #[test]
    fn virtual_clock_tracks_critical_path_not_volume() {
        // Star: two concurrent sends into one party → propagation
        // overlaps (one base) but the bytes serialize on the hub's
        // ingress link (two transmits) — cheaper than two full hops,
        // dearer than one.
        let model = LatencyModel::lan();
        let hop = model.charge_us(8);
        let mut star = SimNetwork::with_latency(3, model);
        star.send(PartyId(1), PartyId(0), "up", vec![0; 8]).unwrap();
        star.send(PartyId(2), PartyId(0), "up", vec![0; 8]).unwrap();
        star.recv(PartyId(0)).unwrap();
        star.recv(PartyId(0)).unwrap();
        assert_eq!(
            Transport::now_us(&star),
            model.base_us + 2 * model.transmit_us(8)
        );
        assert!(Transport::now_us(&star) < 2 * hop);

        // Chain: recv-then-forward serializes full hops (base included).
        let mut chain = SimNetwork::with_latency(3, model);
        chain
            .send(PartyId(0), PartyId(1), "fwd", vec![0; 8])
            .unwrap();
        chain.recv(PartyId(1)).unwrap();
        chain
            .send(PartyId(1), PartyId(2), "fwd", vec![0; 8])
            .unwrap();
        chain.recv(PartyId(2)).unwrap();
        assert_eq!(Transport::now_us(&chain), 2 * hop);
    }
}
