//! The deterministic single-threaded network fabric — the one
//! [`Transport`] implementation: mailboxes that can be drained per
//! recipient or as one arrival-ordered event queue.

use std::collections::VecDeque;

use serde::{Deserialize, Serialize};

use crate::error::NetError;
use crate::pipeline::Pipeline;
use crate::stats::NetStats;
use crate::transport::Transport;

/// Index of a party on the fabric (an agent, in PEM terms).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord, Serialize, Deserialize)]
pub struct PartyId(pub usize);

impl std::fmt::Display for PartyId {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "P{}", self.0)
    }
}

/// A delivered message.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Envelope {
    /// Sender.
    pub from: PartyId,
    /// Recipient.
    pub to: PartyId,
    /// Protocol-phase label (used for accounting and `recv_expect`).
    pub label: &'static str,
    /// Serialized payload.
    pub payload: Vec<u8>,
    /// Arrival time on the fabric's virtual clock (µs): the sender's
    /// local time at departure plus the link charge. Receiving the
    /// message fast-forwards the recipient's clock to this instant.
    pub arrival_us: u64,
}

/// A simple affine latency model: `base + per_kib · ceil(len/1024)`
/// microseconds per message, accumulated on a simulated clock.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub struct LatencyModel {
    /// Fixed per-message latency (µs).
    pub base_us: u64,
    /// Additional latency per KiB (µs).
    pub per_kib_us: u64,
}

impl LatencyModel {
    /// Zero-latency model (pure bandwidth accounting).
    pub fn zero() -> LatencyModel {
        LatencyModel {
            base_us: 0,
            per_kib_us: 0,
        }
    }

    /// A LAN-ish profile: 100 µs per message + 8 µs per KiB (~1 Gbit/s).
    pub fn lan() -> LatencyModel {
        LatencyModel {
            base_us: 100,
            per_kib_us: 8,
        }
    }

    /// A WAN-ish profile: 30 ms per message (metro round-trip-class
    /// propagation) + 160 µs per KiB (~50 Mbit/s effective throughput).
    pub fn wan() -> LatencyModel {
        LatencyModel {
            base_us: 30_000,
            per_kib_us: 160,
        }
    }

    /// Latency charged for a message of `len` bytes.
    pub fn charge_us(&self, len: usize) -> u64 {
        self.base_us + self.per_kib_us * (len as u64).div_ceil(1024)
    }

    /// The bandwidth component alone: time the message's bytes occupy a
    /// link (`per_kib · ceil(len/1024)`). On the virtual clock the
    /// propagation component (`base_us`) of concurrent messages overlaps
    /// freely, but this component serializes on the recipient's ingress
    /// link — a fan-in of `k` messages costs `base + k·transmit`, which
    /// is what bounded-fan-in aggregation topologies exist to cap.
    pub fn transmit_us(&self, len: usize) -> u64 {
        self.per_kib_us * (len as u64).div_ceil(1024)
    }

    /// Virtual-clock arrival time of a `len`-byte message that departs
    /// at `sender_local_us` toward a recipient whose ingress link is
    /// busy until `ingress_free_us` — the fabric's one clock formula
    /// (propagation overlaps, ingress bytes serialize).
    pub fn arrival_us(&self, sender_local_us: u64, ingress_free_us: u64, len: usize) -> u64 {
        (sender_local_us + self.base_us).max(ingress_free_us) + self.transmit_us(len)
    }
}

/// Deterministic in-memory network: per-party FIFO mailboxes behind an
/// arrival-ordered event view, over the send pipeline (byte accounting,
/// virtual clock, per-link latency, fault injection).
///
/// Nothing ever blocks: the protocols pop each recipient's mailbox in
/// FIFO order with [`Transport::recv`]/[`Transport::recv_expect`], and a
/// message that has not arrived is an empty mailbox, never a wait.
/// Everything else is the [`Transport`] surface; the inherent methods
/// are only what the trait lacks.
#[derive(Debug)]
pub struct SimNetwork {
    /// Per-party mailboxes; each entry carries a global send sequence
    /// number, read only by [`pop_earliest`](SimNetwork::pop_earliest)
    /// to break arrival-time ties.
    mailboxes: Vec<VecDeque<(u64, Envelope)>>,
    /// Next global send sequence number.
    seq: u64,
    pipe: Pipeline,
}

impl SimNetwork {
    /// Creates a fabric with `parties` parties and no latency model.
    pub fn new(parties: usize) -> SimNetwork {
        SimNetwork::with_latency(parties, LatencyModel::zero())
    }

    /// Creates a fabric whose links all carry `default` latency
    /// (override individual links with
    /// [`set_link_latency`](Self::set_link_latency)).
    pub fn with_latency(parties: usize, default: LatencyModel) -> SimNetwork {
        SimNetwork {
            mailboxes: (0..parties).map(|_| VecDeque::new()).collect(),
            seq: 0,
            pipe: Pipeline::new(parties, default),
        }
    }

    /// Attaches a fault-injection plan (builder style).
    #[must_use]
    pub fn with_faults(mut self, faults: crate::fault::FaultPlan) -> SimNetwork {
        self.pipe.faults = faults;
        self
    }

    /// Overrides the latency model of the ordered link `from → to`.
    pub fn set_link_latency(&mut self, from: PartyId, to: PartyId, model: LatencyModel) {
        self.pipe.link_latency.insert((from.0, to.0), model);
    }

    /// Pops the queued message with the earliest arrival time across
    /// *all* parties (ties broken by send order). No protocol delivers
    /// through it — they receive per recipient — and it stays for the
    /// event-queue micro-benchmark.
    pub fn pop_earliest(&mut self) -> Option<Envelope> {
        let party = self
            .mailboxes
            .iter()
            .enumerate()
            .filter_map(|(p, m)| m.front().map(|(seq, env)| (env.arrival_us, *seq, p)))
            .min()?
            .2;
        self.recv(PartyId(party))
    }

    fn enqueue(&mut self, env: Envelope) {
        self.seq += 1;
        self.mailboxes[env.to.0].push_back((self.seq, env));
    }
}

impl Transport for SimNetwork {
    fn party_count(&self) -> usize {
        self.mailboxes.len()
    }

    fn send(
        &mut self,
        from: PartyId,
        to: PartyId,
        label: &'static str,
        payload: Vec<u8>,
    ) -> Result<(), NetError> {
        if let Some((env, duplicate)) = self.pipe.admit(from, to, label, payload)? {
            if duplicate {
                self.enqueue(env.clone());
            }
            self.enqueue(env);
        }
        Ok(())
    }

    /// Pops the next message for `to`, if any. Receiving fast-forwards
    /// `to`'s local clock to the message's arrival time.
    fn recv(&mut self, to: PartyId) -> Option<Envelope> {
        let (_, env) = self.mailboxes.get_mut(to.0)?.pop_front()?;
        self.pipe.observe(&env);
        Some(env)
    }

    /// The message is *not* consumed (and the clock not advanced) on a
    /// label mismatch.
    fn recv_expect(&mut self, to: PartyId, label: &'static str) -> Result<Envelope, NetError> {
        self.pipe.check(to)?;
        let (_, head) = self.mailboxes[to.0].front().ok_or(NetError::Empty {
            party: to.0,
            expected: label,
        })?;
        if head.label != label {
            return Err(NetError::UnexpectedLabel {
                expected: label,
                got: head.label.to_string(),
            });
        }
        Ok(self.recv(to).expect("head exists"))
    }

    fn stats(&self) -> NetStats {
        self.pipe.stats.clone()
    }

    fn now_us(&self) -> u64 {
        self.pipe.critical_us
    }

    fn fabric_id(&self) -> u64 {
        self.pipe.fabric
    }

    fn pending(&self) -> usize {
        self.mailboxes.iter().map(|m| m.len()).sum()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn send_and_recv_fifo() {
        let mut net = SimNetwork::new(2);
        net.send(PartyId(0), PartyId(1), "a", vec![1])
            .expect("send");
        net.send(PartyId(0), PartyId(1), "b", vec![2, 3])
            .expect("send");
        let first = net.recv(PartyId(1)).expect("first");
        assert_eq!((first.label, first.payload), ("a", vec![1]));
        let second = net.recv(PartyId(1)).expect("second");
        assert_eq!((second.label, second.payload), ("b", vec![2, 3]));
        assert!(net.recv(PartyId(1)).is_none());
    }

    #[test]
    fn rejects_bad_addresses() {
        let mut net = SimNetwork::new(2);
        assert!(matches!(
            net.send(PartyId(0), PartyId(5), "x", vec![]),
            Err(NetError::UnknownParty { .. })
        ));
        assert!(matches!(
            net.send(PartyId(0), PartyId(0), "x", vec![]),
            Err(NetError::SelfSend { .. })
        ));
    }

    #[test]
    fn recv_expect_enforces_label() {
        let mut net = SimNetwork::new(2);
        net.send(PartyId(0), PartyId(1), "right", vec![7])
            .expect("send");
        assert!(matches!(
            net.recv_expect(PartyId(1), "wrong"),
            Err(NetError::UnexpectedLabel { .. })
        ));
        // The mismatching message is still there.
        assert_eq!(net.pending(), 1);
        let env = net.recv_expect(PartyId(1), "right").expect("now matches");
        assert_eq!(env.payload, vec![7]);
        assert!(matches!(
            net.recv_expect(PartyId(1), "right"),
            Err(NetError::Empty { .. })
        ));
    }

    #[test]
    fn broadcast_charges_per_recipient() {
        let mut net = SimNetwork::new(4);
        net.broadcast(PartyId(1), "bc", &[0u8; 10])
            .expect("broadcast");
        assert_eq!(net.stats().total_messages, 3);
        assert_eq!(net.stats().total_bytes, 30);
        assert_eq!(net.stats().sent_bytes[1], 30);
        for p in [0usize, 2, 3] {
            assert_eq!(net.stats().received_bytes[p], 10);
        }
        assert!(net.recv(PartyId(1)).is_none(), "no self-delivery");
    }

    #[test]
    fn label_accounting() {
        let mut net = SimNetwork::new(3);
        net.send(PartyId(0), PartyId(1), "pricing", vec![0; 64])
            .expect("send");
        net.send(PartyId(1), PartyId(2), "pricing", vec![0; 36])
            .expect("send");
        net.send(PartyId(2), PartyId(0), "distribution", vec![0; 8])
            .expect("send");
        let s = net.stats();
        assert_eq!(s.per_label["pricing"].bytes, 100);
        assert_eq!(s.per_label["pricing"].messages, 2);
        assert_eq!(s.per_label["distribution"].bytes, 8);
    }

    #[test]
    fn pop_earliest_delivers_in_arrival_order() {
        let mut net = SimNetwork::with_latency(3, LatencyModel::lan());
        // Slow link 0→2: its message departs first but arrives last.
        net.set_link_latency(PartyId(0), PartyId(2), LatencyModel::wan());
        net.send(PartyId(0), PartyId(2), "slow", vec![0; 8])
            .unwrap();
        net.send(PartyId(0), PartyId(1), "fast", vec![0; 8])
            .unwrap();
        net.send(PartyId(1), PartyId(0), "fast", vec![0; 8])
            .unwrap();
        let order: Vec<&str> = std::iter::from_fn(|| net.pop_earliest())
            .map(|env| env.label)
            .collect();
        assert_eq!(order, vec!["fast", "fast", "slow"]);
        assert_eq!(net.pending(), 0);
    }

    #[test]
    fn pop_earliest_breaks_ties_by_send_order() {
        // Zero latency: every arrival is at 0 — delivery must follow
        // global send order, not party index.
        let mut net = SimNetwork::new(3);
        net.send(PartyId(0), PartyId(2), "first", vec![1]).unwrap();
        net.send(PartyId(0), PartyId(1), "second", vec![2]).unwrap();
        net.send(PartyId(1), PartyId(2), "third", vec![3]).unwrap();
        let order: Vec<&str> = std::iter::from_fn(|| net.pop_earliest())
            .map(|env| env.label)
            .collect();
        assert_eq!(order, vec!["first", "second", "third"]);
    }

    #[test]
    fn per_link_latency_overrides_default() {
        let mut net = SimNetwork::with_latency(3, LatencyModel::lan());
        net.set_link_latency(PartyId(0), PartyId(2), LatencyModel::wan());
        net.send(PartyId(0), PartyId(1), "x", vec![0; 100]).unwrap();
        let lan_arrival = net.recv(PartyId(1)).expect("delivered").arrival_us;
        assert_eq!(lan_arrival, LatencyModel::lan().charge_us(100));
        net.send(PartyId(0), PartyId(2), "x", vec![0; 100]).unwrap();
        let wan_arrival = net.recv(PartyId(2)).expect("delivered").arrival_us;
        assert_eq!(wan_arrival, LatencyModel::wan().charge_us(100));
        assert_eq!(net.now_us(), wan_arrival);
    }
}
