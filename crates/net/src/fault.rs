//! Fault injection for protocol robustness testing.
//!
//! A [`FaultPlan`] attached to a [`SimNetwork`](crate::SimNetwork)
//! drops, duplicates, corrupts, truncates or stalls selected messages as
//! they are sent ([`FaultPlan::process`] is the hook the send pipeline
//! calls, after the message has been accounted and journalled). The PEM
//! protocols must turn every such fault into a *typed error* — never
//! into a wrong trade — which `pem-core`'s failure-injection tests
//! assert.
//!
//! Every applied fault is counted on the `fault/*` telemetry counters
//! (`fault/drops`, `fault/duplicates`, `fault/corruptions`,
//! `fault/truncations`, `fault/stalls`) so chaos runs leave an auditable
//! trail.

use std::collections::BTreeMap;

use pem_telemetry::Counter;

/// Messages dropped in flight by a fault plan.
static DROPS: Counter = Counter::new();
/// Messages delivered twice by a fault plan.
static DUPLICATES: Counter = Counter::new();
/// Messages with a flipped payload byte.
static CORRUPTIONS: Counter = Counter::new();
/// Messages truncated to half length.
static TRUNCATIONS: Counter = Counter::new();
/// Messages withheld forever (a hung sender, not a lossy link).
static STALLS: Counter = Counter::new();

fn register_fault_metrics() {
    static ONCE: std::sync::Once = std::sync::Once::new();
    ONCE.call_once(|| {
        pem_telemetry::register_counter("fault/drops", &DROPS);
        pem_telemetry::register_counter("fault/duplicates", &DUPLICATES);
        pem_telemetry::register_counter("fault/corruptions", &CORRUPTIONS);
        pem_telemetry::register_counter("fault/truncations", &TRUNCATIONS);
        pem_telemetry::register_counter("fault/stalls", &STALLS);
    });
}

/// What to do to a matched message.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum FaultKind {
    /// Silently discard the message.
    Drop,
    /// Deliver the message twice.
    Duplicate,
    /// Flip a byte in the payload (bit 0 of the middle byte).
    Corrupt,
    /// Truncate the payload to half its length.
    Truncate,
    /// The message never arrives — a hung sender rather than a lossy
    /// link. At the transport level this withholds delivery like
    /// [`FaultKind::Drop`], but it is counted separately
    /// (`fault/stalls`). The recipient's receive finds an empty mailbox
    /// ([`crate::NetError::Empty`]); a poll-driven window meets that
    /// error at the poll that wanted the message.
    Stall,
}

/// Outcome of consulting a [`FaultPlan`] for one outgoing message.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Delivery {
    /// Deliver the (possibly mangled) payload at its modelled arrival
    /// time; `duplicate` asks for a second identical copy.
    Deliver {
        /// Payload to deliver (post-fault).
        payload: Vec<u8>,
        /// Whether an identical duplicate copy must also be delivered.
        duplicate: bool,
    },
    /// The message is withheld: lost in flight ([`FaultKind::Drop`]) or
    /// stalled forever ([`FaultKind::Stall`]).
    Lost,
}

/// A schedule of faults keyed by message label: the `n`-th send (0-based)
/// carrying that label is hit.
#[derive(Debug, Clone, Default)]
pub struct FaultPlan {
    /// label → (target occurrence, fault).
    rules: BTreeMap<&'static str, (u64, FaultKind)>,
    /// label → sends seen so far.
    seen: BTreeMap<&'static str, u64>,
}

impl FaultPlan {
    /// An empty plan (no faults).
    pub fn new() -> FaultPlan {
        FaultPlan::default()
    }

    /// Schedules `kind` against the `nth` message with `label`.
    pub fn inject(mut self, label: &'static str, nth: u64, kind: FaultKind) -> FaultPlan {
        self.rules.insert(label, (nth, kind));
        self
    }

    /// Consults and applies the plan to one outgoing message — the whole
    /// fault pipeline as a single call, usable by *any*
    /// [`Transport`](crate::Transport) implementation
    /// ([`SimNetwork`](crate::SimNetwork) reaches it through its send
    /// pipeline). Returns [`Delivery::Lost`] when the message is withheld
    /// (dropped or stalled); otherwise the (possibly mangled) payload
    /// plus the duplicate flag.
    pub fn process(&mut self, label: &'static str, payload: Vec<u8>) -> Delivery {
        match self.action(label) {
            None => Delivery::Deliver {
                payload,
                duplicate: false,
            },
            Some(kind) => FaultPlan::apply(kind, payload),
        }
    }

    /// Consults the plan for a message about to be sent. Returns the
    /// action to apply (and advances the occurrence counter).
    pub(crate) fn action(&mut self, label: &'static str) -> Option<FaultKind> {
        let seen = self.seen.entry(label).or_insert(0);
        let current = *seen;
        *seen += 1;
        match self.rules.get(label) {
            Some(&(nth, kind)) if nth == current => Some(kind),
            _ => None,
        }
    }

    /// Applies a fault to a payload and counts it on the `fault/*`
    /// telemetry counters.
    pub(crate) fn apply(kind: FaultKind, mut payload: Vec<u8>) -> Delivery {
        register_fault_metrics();
        match kind {
            FaultKind::Drop => {
                DROPS.incr();
                Delivery::Lost
            }
            FaultKind::Duplicate => {
                DUPLICATES.incr();
                Delivery::Deliver {
                    payload,
                    duplicate: true,
                }
            }
            FaultKind::Corrupt => {
                CORRUPTIONS.incr();
                if !payload.is_empty() {
                    let mid = payload.len() / 2;
                    payload[mid] ^= 1;
                }
                Delivery::Deliver {
                    payload,
                    duplicate: false,
                }
            }
            FaultKind::Truncate => {
                TRUNCATIONS.incr();
                payload.truncate(payload.len() / 2);
                Delivery::Deliver {
                    payload,
                    duplicate: false,
                }
            }
            FaultKind::Stall => {
                STALLS.incr();
                Delivery::Lost
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{PartyId, SimNetwork, Transport};

    #[test]
    fn plan_matches_nth_occurrence() {
        let mut plan = FaultPlan::new().inject("x", 1, FaultKind::Drop);
        assert_eq!(plan.action("x"), None); // 0th
        assert_eq!(plan.action("x"), Some(FaultKind::Drop)); // 1st
        assert_eq!(plan.action("x"), None); // 2nd
        assert_eq!(plan.action("y"), None);
    }

    #[test]
    fn drop_loses_message() {
        let mut net =
            SimNetwork::new(2).with_faults(FaultPlan::new().inject("m", 0, FaultKind::Drop));
        net.send(PartyId(0), PartyId(1), "m", vec![1, 2, 3])
            .expect("send");
        assert!(net.recv(PartyId(1)).is_none(), "message must be dropped");
        // Later messages flow normally.
        net.send(PartyId(0), PartyId(1), "m", vec![4])
            .expect("send");
        assert_eq!(net.recv(PartyId(1)).expect("delivered").payload, vec![4]);
    }

    #[test]
    fn duplicate_delivers_twice() {
        let mut net =
            SimNetwork::new(2).with_faults(FaultPlan::new().inject("m", 0, FaultKind::Duplicate));
        net.send(PartyId(0), PartyId(1), "m", vec![7])
            .expect("send");
        assert_eq!(net.recv(PartyId(1)).expect("first").payload, vec![7]);
        assert_eq!(net.recv(PartyId(1)).expect("second").payload, vec![7]);
        assert!(net.recv(PartyId(1)).is_none());
    }

    #[test]
    fn corrupt_flips_a_byte() {
        let mut net =
            SimNetwork::new(2).with_faults(FaultPlan::new().inject("m", 0, FaultKind::Corrupt));
        net.send(PartyId(0), PartyId(1), "m", vec![0, 0, 0])
            .expect("send");
        let env = net.recv(PartyId(1)).expect("delivered");
        assert_eq!(env.payload, vec![0, 1, 0]);
    }

    #[test]
    fn truncate_halves_payload() {
        let mut net =
            SimNetwork::new(2).with_faults(FaultPlan::new().inject("m", 0, FaultKind::Truncate));
        net.send(PartyId(0), PartyId(1), "m", vec![1, 2, 3, 4])
            .expect("send");
        assert_eq!(net.recv(PartyId(1)).expect("delivered").payload, vec![1, 2]);
    }

    #[test]
    fn stall_withholds_like_drop() {
        let mut net =
            SimNetwork::new(2).with_faults(FaultPlan::new().inject("m", 0, FaultKind::Stall));
        net.send(PartyId(0), PartyId(1), "m", vec![9])
            .expect("send");
        assert!(
            net.recv(PartyId(1)).is_none(),
            "stalled message never arrives"
        );
        net.send(PartyId(0), PartyId(1), "m", vec![4])
            .expect("send");
        assert_eq!(net.recv(PartyId(1)).expect("delivered").payload, vec![4]);
    }
}
