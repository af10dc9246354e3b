//! The deterministic single-threaded network fabric — the one
//! [`Transport`] implementation: mailboxes that can be drained per
//! recipient and label, per recipient, or as one arrival-ordered event
//! queue.

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
    /// Protocol-phase label (used for accounting and to address
    /// `recv_expect`).
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

/// Deterministic in-memory network: per-party mailboxes in send order
/// behind an arrival-ordered event view, over the send pipeline (byte
/// accounting, virtual clock, per-link latency, fault injection).
///
/// Nothing ever blocks. The protocols receive by address:
/// [`Transport::recv_expect`] pops the oldest frame sent to `(to,
/// label)`, wherever it sits in `to`'s mailbox, so several folds can
/// share one party's mailbox. [`Transport::recv`] pops the mailbox's
/// oldest frame of any label. A message that has not arrived is an empty
/// mailbox, never a wait. Everything else is the [`Transport`] surface;
/// the inherent methods are only what the trait lacks.
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

    /// Pops the oldest message for `to`, if any. Receiving fast-forwards
    /// `to`'s local clock to the message's arrival time.
    fn recv(&mut self, to: PartyId) -> Option<Envelope> {
        let (_, env) = self.mailboxes.get_mut(to.0)?.pop_front()?;
        self.pipe.observe(&env);
        Some(env)
    }

    /// Scans `to`'s mailbox for its oldest `label` frame: a mailbox holds
    /// a handful of frames, so a scan beats a queue per label. Frames
    /// under other labels stay where they are.
    fn recv_expect(&mut self, to: PartyId, label: &'static str) -> Result<Envelope, NetError> {
        self.pipe.check(to)?;
        let mailbox = &mut self.mailboxes[to.0];
        let (_, env) = mailbox
            .iter()
            .position(|(_, env)| env.label == label)
            .and_then(|pos| mailbox.remove(pos))
            .ok_or(NetError::Empty {
                party: to.0,
                expected: label,
            })?;
        self.pipe.observe(&env);
        Ok(env)
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
    fn recv_expect_is_addressed_by_label() {
        let mut net = SimNetwork::new(3);
        net.send(PartyId(0), PartyId(1), "a", vec![1])
            .expect("send");
        net.send(PartyId(2), PartyId(1), "b", vec![2])
            .expect("send");
        net.send(PartyId(2), PartyId(1), "a", vec![3])
            .expect("send");
        net.send(PartyId(0), PartyId(1), "c", vec![4])
            .expect("send");
        // Another label's frame is received out of send order ...
        let b = net.recv_expect(PartyId(1), "b").expect("b");
        assert_eq!((b.from, b.payload), (PartyId(2), vec![2]));
        // ... while one label's frames come in send order.
        let first = net.recv_expect(PartyId(1), "a").expect("first a");
        let second = net.recv_expect(PartyId(1), "a").expect("second a");
        assert_eq!((first.payload, second.payload), (vec![1], vec![3]));
        // A label with nothing queued is empty, and the frame of the
        // label nobody asked for stays pending.
        assert!(matches!(
            net.recv_expect(PartyId(1), "a"),
            Err(NetError::Empty {
                party: 1,
                expected: "a"
            })
        ));
        assert!(matches!(
            net.recv_expect(PartyId(0), "c"),
            Err(NetError::Empty { .. })
        ));
        assert_eq!(net.pending(), 1);
        assert_eq!(net.recv(PartyId(1)).expect("c").payload, vec![4]);
    }

    #[test]
    fn pop_earliest_stays_arrival_ordered_across_labels() {
        // An addressed receive takes a frame from the middle of party
        // 1's mailbox; the event view still drains the rest by arrival
        // (LAN: 108 µs, ties in send order, then 124; WAN last).
        let mut net = SimNetwork::with_latency(3, LatencyModel::lan());
        net.set_link_latency(PartyId(0), PartyId(2), LatencyModel::wan());
        net.send(PartyId(0), PartyId(1), "a", vec![0; 8]).unwrap();
        net.send(PartyId(0), PartyId(2), "slow", vec![0; 8])
            .unwrap();
        net.send(PartyId(2), PartyId(1), "b", vec![0; 8]).unwrap();
        net.send(PartyId(2), PartyId(1), "a", vec![0; 8]).unwrap();
        net.send(PartyId(1), PartyId(0), "fast", vec![0; 8])
            .unwrap();
        net.recv_expect(PartyId(1), "b").expect("b");
        let order: Vec<(usize, &str, u64)> = std::iter::from_fn(|| net.pop_earliest())
            .map(|env| (env.to.0, env.label, env.arrival_us))
            .collect();
        let wan = LatencyModel::wan().charge_us(8);
        assert_eq!(
            order,
            vec![
                (1, "a", 108),
                (0, "fast", 108),
                (1, "a", 124),
                (2, "slow", wan)
            ]
        );
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
