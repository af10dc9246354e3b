//! The send pipeline under [`SimNetwork`](crate::SimNetwork).
//!
//! [`Pipeline`] owns everything a delivery touches before it is queued:
//! byte accounting, the (per-link) latency model, per-party virtual
//! clocks, ingress serialization, the critical-path watermark, the
//! telemetry journal and the fault plan. The fabric itself only decides
//! *where* an admitted envelope waits (a per-party mailbox), never what
//! it cost or when it arrives.

use std::collections::BTreeMap;

use crate::error::NetError;
use crate::fault::{Delivery, FaultPlan};
use crate::sim::{Envelope, LatencyModel, PartyId};
use crate::stats::NetStats;

/// Accounting, clock and fault state of one fabric.
#[derive(Debug)]
pub(crate) struct Pipeline {
    pub(crate) stats: NetStats,
    default_latency: LatencyModel,
    /// `(from, to)` → model overriding the default on that link.
    pub(crate) link_latency: BTreeMap<(usize, usize), LatencyModel>,
    /// Per-party local clocks (advanced by consuming messages).
    local_time_us: Vec<u64>,
    /// Per-party ingress-link free time: bytes addressed to one party
    /// serialize on its link, so fan-in costs transmit time.
    ingress_free_us: Vec<u64>,
    /// Critical-path watermark: the latest arrival scheduled so far.
    pub(crate) critical_us: u64,
    pub(crate) faults: FaultPlan,
    /// Process-unique id for telemetry message attribution.
    pub(crate) fabric: u64,
}

impl Pipeline {
    pub(crate) fn new(parties: usize, default_latency: LatencyModel) -> Pipeline {
        Pipeline {
            stats: NetStats::new(parties),
            default_latency,
            link_latency: BTreeMap::new(),
            local_time_us: vec![0; parties],
            ingress_free_us: vec![0; parties],
            critical_us: 0,
            faults: FaultPlan::new(),
            fabric: crate::transport::next_fabric_id(),
        }
    }

    pub(crate) fn parties(&self) -> usize {
        self.local_time_us.len()
    }

    pub(crate) fn check(&self, p: PartyId) -> Result<(), NetError> {
        if p.0 >= self.parties() {
            Err(NetError::UnknownParty {
                party: p.0,
                parties: self.parties(),
            })
        } else {
            Ok(())
        }
    }

    /// Runs one outgoing message through the pipeline. Returns the
    /// envelope to queue and whether the fault plan asks for a second,
    /// identical copy — or `None` when the message was dropped or
    /// stalled in flight.
    ///
    /// # Errors
    ///
    /// [`NetError::UnknownParty`] / [`NetError::SelfSend`].
    pub(crate) fn admit(
        &mut self,
        from: PartyId,
        to: PartyId,
        label: &'static str,
        payload: Vec<u8>,
    ) -> Result<Option<(Envelope, bool)>, NetError> {
        self.check(from)?;
        self.check(to)?;
        if from == to {
            return Err(NetError::SelfSend { party: from.0 });
        }
        // The sender is charged for the bytes it put on the wire even if
        // the fabric then drops or mangles them (as a real NIC would be).
        let len = payload.len();
        self.stats.record(from.0, to.0, label, len);
        let model = *self
            .link_latency
            .get(&(from.0, to.0))
            .unwrap_or(&self.default_latency);
        // Virtual clock: propagation (base) overlaps across messages,
        // but the bytes serialize on the recipient's ingress link — a
        // k-message fan-in costs base + k·transmit, so topology fan-in
        // bounds are measurable, not free.
        let depart_us = self.local_time_us[from.0];
        let arrival_us = model.arrival_us(depart_us, self.ingress_free_us[to.0], len);
        self.ingress_free_us[to.0] = arrival_us;
        self.critical_us = self.critical_us.max(arrival_us);
        // Telemetry sees the message as sent (before fault processing,
        // matching the stats semantics above); no-op unless a collector
        // is installed.
        pem_telemetry::record_msg(
            self.fabric,
            from.0,
            to.0,
            label,
            len as u64,
            depart_us,
            arrival_us,
        );
        let Delivery::Deliver { payload, duplicate } = self.faults.process(label, payload) else {
            return Ok(None); // dropped or stalled in flight
        };
        Ok(Some((
            Envelope {
                from,
                to,
                label,
                payload,
                arrival_us,
            },
            duplicate,
        )))
    }

    /// Folds a *consumed* delivery into the recipient's local clock.
    pub(crate) fn observe(&mut self, env: &Envelope) {
        let clock = &mut self.local_time_us[env.to.0];
        *clock = (*clock).max(env.arrival_us);
    }
}
