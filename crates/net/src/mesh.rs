//! Channel-backed mesh fabric with per-link latency models.
//!
//! [`MeshTransport`] is the second [`Transport`]
//! implementation: messages genuinely flow through crossbeam channels
//! (one per recipient), while accounting, clocks and faults are the
//! same send pipeline `SimNetwork` runs, behind one shared `parking_lot`
//! mutex. Every ordered link `(from, to)` can carry its own
//! [`LatencyModel`] — the substrate for network-aware market studies
//! where feeder-local links are fast and cross-feeder links are not.
//!
//! The same fabric serves two deployment shapes:
//!
//! * **sequential** — drive the whole mesh through the [`Transport`]
//!   trait from one thread (what the protocol drivers and the coupling
//!   round do);
//! * **threaded** — [`MeshTransport::into_endpoints`] splits the fabric
//!   into per-party [`MeshEndpoint`]s, each owning its receiver, for
//!   one-OS-thread-per-agent runs (the in-process analogue of the
//!   paper's per-agent Docker containers). The shared pipeline keeps
//!   the measurement surface identical to the sequential mode.

use std::collections::VecDeque;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

use crossbeam::channel::{unbounded, Receiver, Sender};
use parking_lot::Mutex;

use crate::error::NetError;
use crate::fault::FaultPlan;
use crate::pipeline::Pipeline;
use crate::sim::{Envelope, LatencyModel, PartyId};
use crate::stats::NetStats;
use crate::transport::Transport;

/// State shared by every endpoint of one mesh.
#[derive(Debug)]
struct MeshShared {
    parties: usize,
    /// The send pipeline, behind the one lock a send or a consumed
    /// receive takes.
    pipe: Mutex<Pipeline>,
    /// Messages sent but not yet pulled off a channel.
    in_flight: AtomicU64,
    /// Process-unique id for telemetry message attribution.
    fabric: u64,
}

/// Read-only view of a split mesh's shared measurement surface — what
/// [`MeshTransport::into_endpoints`] leaves the caller holding once the
/// endpoints have moved onto their threads.
#[derive(Debug, Clone)]
pub struct MeshHandle(Arc<MeshShared>);

impl MeshHandle {
    /// Snapshot of the accumulated traffic statistics.
    pub fn stats(&self) -> NetStats {
        self.0.pipe.lock().stats.clone()
    }

    /// The virtual clock: critical-path latency (µs) of the traffic so
    /// far (see [`Transport::now_us`]).
    pub fn now_us(&self) -> u64 {
        self.0.pipe.lock().critical_us
    }
}

/// One party's handle onto a [`MeshTransport`] fabric.
#[derive(Debug)]
pub struct MeshEndpoint {
    id: PartyId,
    senders: Vec<Sender<Envelope>>,
    receiver: Receiver<Envelope>,
    shared: Arc<MeshShared>,
}

impl MeshEndpoint {
    /// This endpoint's party id.
    pub fn id(&self) -> PartyId {
        self.id
    }

    /// Number of parties on the fabric.
    pub fn parties(&self) -> usize {
        self.shared.parties
    }

    /// Sends `payload` to `to`, charging the link's latency model.
    ///
    /// # Errors
    ///
    /// [`NetError::UnknownParty`], [`NetError::SelfSend`], or
    /// [`NetError::Disconnected`] if the recipient hung up.
    pub fn send(&self, to: PartyId, label: &'static str, payload: Vec<u8>) -> Result<(), NetError> {
        let admitted = self.shared.pipe.lock().admit(self.id, to, label, payload)?;
        let Some((env, duplicate)) = admitted else {
            return Ok(()); // dropped or stalled in flight
        };
        if duplicate {
            self.enqueue(env.clone())?;
        }
        self.enqueue(env)
    }

    fn enqueue(&self, env: Envelope) -> Result<(), NetError> {
        self.shared.in_flight.fetch_add(1, Ordering::Relaxed);
        self.senders[env.to.0]
            .send(env)
            .map_err(|_| NetError::Disconnected)
    }

    /// Folds a *consumed* delivery into the endpoint's local clock.
    fn observe(&self, env: Envelope) -> Envelope {
        self.shared.pipe.lock().observe(&env);
        env
    }

    /// Takes a message off the channel without advancing the local
    /// clock — the peek primitive the sequential stash builds on (a
    /// merely-peeked message must not move time, matching `SimNetwork`'s
    /// label-mismatch semantics).
    fn pull(&self) -> Option<Envelope> {
        let env = self.receiver.try_recv().ok()?;
        self.shared.in_flight.fetch_sub(1, Ordering::Relaxed);
        Some(env)
    }

    /// Blocking receive.
    ///
    /// # Errors
    ///
    /// [`NetError::Disconnected`] when all senders are gone.
    pub fn recv(&self) -> Result<Envelope, NetError> {
        let env = self.receiver.recv().map_err(|_| NetError::Disconnected)?;
        self.shared.in_flight.fetch_sub(1, Ordering::Relaxed);
        Ok(self.observe(env))
    }

    /// Non-blocking receive.
    pub fn try_recv(&self) -> Option<Envelope> {
        self.pull().map(|env| self.observe(env))
    }

    /// Process-unique fabric id of the mesh this endpoint belongs to
    /// (see [`Transport::fabric_id`]).
    pub fn fabric_id(&self) -> u64 {
        self.shared.fabric
    }

    /// Deadline-aware blocking receive on the **wall clock**: waits at
    /// most `deadline` for a message, then gives up with
    /// [`NetError::Timeout`]. Threaded endpoints have no global virtual
    /// clock to poll against — wall time is the deadline a real
    /// per-agent deployment would enforce, and it is what un-wedges a
    /// recipient whose expected message was dropped or stalled in
    /// flight.
    ///
    /// # Errors
    ///
    /// [`NetError::Timeout`], [`NetError::UnexpectedLabel`] or
    /// [`NetError::Disconnected`].
    pub fn recv_deadline(
        &self,
        label: &'static str,
        deadline: std::time::Duration,
    ) -> Result<Envelope, NetError> {
        match self.receiver.recv_timeout(deadline) {
            Ok(env) => {
                self.shared.in_flight.fetch_sub(1, Ordering::Relaxed);
                let env = self.observe(env);
                if env.label != label {
                    return Err(NetError::UnexpectedLabel {
                        expected: label,
                        got: env.label.to_string(),
                    });
                }
                Ok(env)
            }
            Err(crossbeam::channel::RecvTimeoutError::Timeout) => Err(NetError::Timeout {
                party: self.id.0,
                expected: label,
                deadline_us: deadline.as_micros() as u64,
            }),
            Err(crossbeam::channel::RecvTimeoutError::Disconnected) => Err(NetError::Disconnected),
        }
    }

    /// Blocking receive that additionally checks the label.
    ///
    /// # Errors
    ///
    /// [`NetError::UnexpectedLabel`] or [`NetError::Disconnected`].
    pub fn recv_expect(&self, label: &'static str) -> Result<Envelope, NetError> {
        let env = self.recv()?;
        if env.label != label {
            return Err(NetError::UnexpectedLabel {
                expected: label,
                got: env.label.to_string(),
            });
        }
        Ok(env)
    }
}

/// The whole mesh, drivable sequentially through [`Transport`] or split
/// into per-party endpoints with [`MeshTransport::into_endpoints`].
#[derive(Debug)]
pub struct MeshTransport {
    endpoints: Vec<MeshEndpoint>,
    /// Per-party buffer of messages pulled off the channels but not yet
    /// consumed — gives the sequential mode `SimNetwork`'s non-consuming
    /// `recv_expect` peek semantics, which channels alone cannot offer.
    stash: Vec<VecDeque<Envelope>>,
    shared: Arc<MeshShared>,
}

impl MeshTransport {
    /// Creates a mesh of `parties` parties with no latency.
    pub fn new(parties: usize) -> MeshTransport {
        MeshTransport::with_latency(parties, LatencyModel::zero())
    }

    /// Creates a mesh whose links all carry `default` latency (override
    /// individual links with [`set_link_latency`](Self::set_link_latency)).
    pub fn with_latency(parties: usize, default: LatencyModel) -> MeshTransport {
        let pipe = Pipeline::new(parties, default);
        let shared = Arc::new(MeshShared {
            parties,
            fabric: pipe.fabric,
            pipe: Mutex::new(pipe),
            in_flight: AtomicU64::new(0),
        });
        let mut senders = Vec::with_capacity(parties);
        let mut receivers = Vec::with_capacity(parties);
        for _ in 0..parties {
            let (tx, rx) = unbounded();
            senders.push(tx);
            receivers.push(rx);
        }
        let endpoints = receivers
            .into_iter()
            .enumerate()
            .map(|(i, receiver)| MeshEndpoint {
                id: PartyId(i),
                senders: senders.clone(),
                receiver,
                shared: Arc::clone(&shared),
            })
            .collect();
        MeshTransport {
            endpoints,
            stash: (0..parties).map(|_| VecDeque::new()).collect(),
            shared,
        }
    }

    /// Attaches a fault-injection plan (builder style).
    ///
    /// Fault semantics match `SimNetwork` exactly in the sequential
    /// (`Transport`) mode. In the threaded shape
    /// ([`into_endpoints`](Self::into_endpoints)) a `Drop` fault leaves
    /// the would-be recipient blocked in [`MeshEndpoint::recv`] — as a
    /// real lossy network would without a timeout — so threaded fault
    /// runs need a protocol-level recovery story; the fault-injection
    /// test suites drive the sequential mode.
    #[must_use]
    pub fn with_faults(self, faults: FaultPlan) -> MeshTransport {
        self.shared.pipe.lock().faults = faults;
        self
    }

    /// Overrides the latency model of the ordered link `from → to`.
    pub fn set_link_latency(&mut self, from: PartyId, to: PartyId, model: LatencyModel) {
        self.shared
            .pipe
            .lock()
            .link_latency
            .insert((from.0, to.0), model);
    }

    /// Total latency charged across all messages (µs) — the volume
    /// figure, as opposed to the critical path of
    /// [`Transport::now_us`].
    pub fn simulated_latency_us(&self) -> u64 {
        self.shared.pipe.lock().clock_sum_us
    }

    /// Splits the mesh into per-party endpoints for threaded runs,
    /// returning them with a handle onto the shared statistics and
    /// clock. Messages left in the sequential stash are discarded (split
    /// before driving, or after draining).
    pub fn into_endpoints(self) -> (Vec<MeshEndpoint>, MeshHandle) {
        (self.endpoints, MeshHandle(self.shared))
    }

    /// Ensures the head of `to`'s stash is populated if a message is
    /// available on the channel. Pulling into the stash does *not*
    /// advance `to`'s local clock — only consumption does.
    fn fill_head(&mut self, to: usize) {
        if self.stash[to].is_empty() {
            if let Some(env) = self.endpoints[to].pull() {
                self.stash[to].push_back(env);
            }
        }
    }

    fn check(&self, p: PartyId) -> Result<(), NetError> {
        if p.0 >= self.shared.parties {
            Err(NetError::UnknownParty {
                party: p.0,
                parties: self.shared.parties,
            })
        } else {
            Ok(())
        }
    }
}

impl Transport for MeshTransport {
    fn party_count(&self) -> usize {
        self.shared.parties
    }

    fn send(
        &mut self,
        from: PartyId,
        to: PartyId,
        label: &'static str,
        payload: Vec<u8>,
    ) -> Result<(), NetError> {
        self.check(from)?;
        self.endpoints[from.0].send(to, label, payload)
    }

    fn recv(&mut self, to: PartyId) -> Option<Envelope> {
        if to.0 >= self.shared.parties {
            return None;
        }
        self.fill_head(to.0);
        let env = self.stash[to.0].pop_front()?;
        Some(self.endpoints[to.0].observe(env))
    }

    fn recv_expect(&mut self, to: PartyId, label: &'static str) -> Result<Envelope, NetError> {
        self.check(to)?;
        self.fill_head(to.0);
        let head = self.stash[to.0].front().ok_or(NetError::Empty {
            party: to.0,
            expected: label,
        })?;
        if head.label != label {
            return Err(NetError::UnexpectedLabel {
                expected: label,
                got: head.label.to_string(),
            });
        }
        let env = self.stash[to.0].pop_front().expect("head exists");
        Ok(self.endpoints[to.0].observe(env))
    }

    fn recv_deadline(
        &mut self,
        to: PartyId,
        label: &'static str,
        deadline_us: u64,
    ) -> Result<Envelope, NetError> {
        // Sequential mode has the same inspectable arrival times as
        // `SimNetwork`, so the deadline is measured on the virtual
        // clock; the threaded shape uses the wall-clock
        // [`MeshEndpoint::recv_deadline`] instead.
        self.check(to)?;
        self.fill_head(to.0);
        match self.stash[to.0].front() {
            None => Err(NetError::Timeout {
                party: to.0,
                expected: label,
                deadline_us,
            }),
            Some(head) if head.label == label && head.arrival_us > deadline_us => {
                Err(NetError::Timeout {
                    party: to.0,
                    expected: label,
                    deadline_us,
                })
            }
            Some(_) => self.recv_expect(to, label),
        }
    }

    fn stats(&self) -> NetStats {
        self.shared.pipe.lock().stats.clone()
    }

    fn traffic_totals(&self) -> (u64, u64) {
        let pipe = self.shared.pipe.lock();
        (pipe.stats.total_messages, pipe.stats.total_bytes)
    }

    fn now_us(&self) -> u64 {
        self.shared.pipe.lock().critical_us
    }

    fn fabric_id(&self) -> u64 {
        self.shared.fabric
    }

    fn pending(&self) -> usize {
        self.shared.in_flight.load(Ordering::Relaxed) as usize
            + self.stash.iter().map(|s| s.len()).sum::<usize>()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::fault::FaultKind;
    use crate::SimNetwork;

    #[test]
    fn sequential_fifo_matches_sim_semantics() {
        let mut net = MeshTransport::new(2);
        net.send(PartyId(0), PartyId(1), "a", vec![1])
            .expect("send");
        net.send(PartyId(0), PartyId(1), "b", vec![2, 3])
            .expect("send");
        // Non-consuming peek on label mismatch, exactly like SimNetwork.
        assert!(matches!(
            net.recv_expect(PartyId(1), "b"),
            Err(NetError::UnexpectedLabel { .. })
        ));
        assert_eq!(net.pending(), 2);
        let first = net.recv_expect(PartyId(1), "a").expect("a");
        assert_eq!(first.payload, vec![1]);
        let second = net.recv(PartyId(1)).expect("b");
        assert_eq!((second.label, second.payload), ("b", vec![2, 3]));
        assert!(net.recv(PartyId(1)).is_none());
        assert!(matches!(
            net.recv_expect(PartyId(1), "a"),
            Err(NetError::Empty { .. })
        ));
    }

    #[test]
    fn rejects_bad_addresses() {
        let mut net = MeshTransport::new(2);
        assert!(matches!(
            net.send(PartyId(0), PartyId(5), "x", vec![]),
            Err(NetError::UnknownParty { .. })
        ));
        assert!(matches!(
            net.send(PartyId(0), PartyId(0), "x", vec![]),
            Err(NetError::SelfSend { .. })
        ));
        assert!(matches!(
            net.send(PartyId(7), PartyId(0), "x", vec![]),
            Err(NetError::UnknownParty { .. })
        ));
    }

    #[test]
    fn stats_match_sim_for_same_traffic() {
        let mut mesh = MeshTransport::new(3);
        let mut sim = SimNetwork::new(3);
        for net in [&mut mesh as &mut dyn Fabric, &mut sim as &mut dyn Fabric] {
            net.do_send(0, 1, "m", 10);
            net.do_send(0, 2, "m", 20);
            net.do_send(2, 1, "n", 5);
        }
        assert_eq!(Transport::stats(&mesh), sim.stats().clone());

        /// Object-safe shim so the same traffic script drives both.
        trait Fabric {
            fn do_send(&mut self, from: usize, to: usize, label: &'static str, len: usize);
        }
        impl Fabric for MeshTransport {
            fn do_send(&mut self, from: usize, to: usize, label: &'static str, len: usize) {
                Transport::send(self, PartyId(from), PartyId(to), label, vec![0; len])
                    .expect("send");
            }
        }
        impl Fabric for SimNetwork {
            fn do_send(&mut self, from: usize, to: usize, label: &'static str, len: usize) {
                SimNetwork::send(self, PartyId(from), PartyId(to), label, vec![0; len])
                    .expect("send");
            }
        }
    }

    #[test]
    fn per_link_latency_overrides_default() {
        let mut net = MeshTransport::with_latency(3, LatencyModel::lan());
        net.set_link_latency(PartyId(0), PartyId(2), LatencyModel::wan());
        net.send(PartyId(0), PartyId(1), "x", vec![0; 100])
            .expect("lan link");
        let lan_arrival = net.recv(PartyId(1)).expect("delivered").arrival_us;
        assert_eq!(lan_arrival, LatencyModel::lan().charge_us(100));
        net.send(PartyId(0), PartyId(2), "x", vec![0; 100])
            .expect("wan link");
        let wan_arrival = net.recv(PartyId(2)).expect("delivered").arrival_us;
        assert_eq!(wan_arrival, LatencyModel::wan().charge_us(100));
        assert_eq!(net.now_us(), wan_arrival, "critical path = slow link");
    }

    #[test]
    fn faults_apply_on_the_mesh() {
        let mut net =
            MeshTransport::new(2).with_faults(FaultPlan::new().inject("m", 0, FaultKind::Drop));
        net.send(PartyId(0), PartyId(1), "m", vec![1, 2, 3])
            .expect("send");
        assert!(net.recv(PartyId(1)).is_none(), "dropped in flight");
        net.send(PartyId(0), PartyId(1), "m", vec![4])
            .expect("send");
        assert_eq!(net.recv(PartyId(1)).expect("delivered").payload, vec![4]);

        let mut dup = MeshTransport::new(2).with_faults(FaultPlan::new().inject(
            "m",
            0,
            FaultKind::Duplicate,
        ));
        dup.send(PartyId(0), PartyId(1), "m", vec![7])
            .expect("send");
        assert_eq!(dup.recv(PartyId(1)).expect("first").payload, vec![7]);
        assert_eq!(dup.recv(PartyId(1)).expect("second").payload, vec![7]);
        assert!(dup.recv(PartyId(1)).is_none());
    }

    #[test]
    fn peeked_message_does_not_advance_the_clock() {
        // A label-mismatch peek leaves the message queued on both
        // fabrics AND leaves the peeking party's local clock untouched:
        // the two transports must report identical virtual clocks for
        // identical traffic, mismatches included.
        let model = LatencyModel::lan();
        let mut mesh = MeshTransport::with_latency(2, model);
        let mut sim = SimNetwork::with_latency(2, model);
        let script = |net: &mut dyn Transport| -> (u64, u64) {
            net.send(PartyId(0), PartyId(1), "x", vec![0; 8]).unwrap();
            assert!(matches!(
                net.recv_expect(PartyId(1), "y"),
                Err(NetError::UnexpectedLabel { .. })
            ));
            let after_peek = net.now_us();
            // Party 1 replies *before* consuming: departure time must be
            // its (un-advanced) local clock on both fabrics.
            net.send(PartyId(1), PartyId(0), "z", vec![0; 8]).unwrap();
            net.recv(PartyId(0)).expect("reply");
            net.recv_expect(PartyId(1), "x").expect("now consumed");
            (after_peek, net.now_us())
        };
        let (mesh_peek, mesh_final) = script(&mut mesh);
        let (sim_peek, sim_final) = script(&mut sim);
        assert_eq!(mesh_peek, sim_peek);
        assert_eq!(mesh_final, sim_final);
    }

    #[test]
    fn threaded_endpoints_share_the_clock() {
        // A two-hop relay across threads: the critical path must be the
        // sum of both hops even though each hop ran on its own thread.
        let model = LatencyModel::lan();
        let (endpoints, handle) = MeshTransport::with_latency(3, model).into_endpoints();
        let results = crate::runtime::run_parties(endpoints, move |ep| match ep.id().0 {
            0 => {
                ep.send(PartyId(1), "hop", vec![0; 8]).expect("send");
                0
            }
            1 => {
                let env = ep.recv_expect("hop").expect("recv");
                ep.send(PartyId(2), "hop", env.payload).expect("send");
                1
            }
            _ => {
                ep.recv_expect("hop").expect("recv");
                2
            }
        });
        assert_eq!(results, vec![0, 1, 2]);
        assert_eq!(handle.stats().total_messages, 2);
        let hop = model.charge_us(8);
        assert_eq!(handle.now_us(), 2 * hop, "relay serializes the two hops");
    }
}
