//! Threaded multi-party runtime: one OS thread per agent, crossbeam
//! channels as links — the in-process analogue of the paper's per-agent
//! Docker containers.
//!
//! Since the `Transport` redesign this module is a thin veneer over
//! [`MeshTransport`]: [`build_fabric`] splits a
//! zero-latency mesh into per-party endpoints, and [`run_parties`] drives
//! any endpoint type on one thread each. Every send runs the mesh's
//! shared pipeline, so the measurement surface matches the sequential
//! fabrics exactly.

use std::sync::Arc;
use std::thread;

use crate::mesh::{MeshHandle, MeshTransport};

/// A party's handle onto the threaded fabric (the mesh endpoint type).
pub type Endpoint = crate::mesh::MeshEndpoint;

/// Builds a fabric of `parties` endpoints plus the shared stats handle.
pub fn build_fabric(parties: usize) -> (Vec<Endpoint>, MeshHandle) {
    MeshTransport::new(parties).into_endpoints()
}

/// Runs `body` on one thread per endpoint and joins them all, returning
/// each thread's result in party order. Generic over the endpoint type so
/// custom per-party handles (e.g. an endpoint bundled with private key
/// material) ride the same harness.
///
/// # Panics
///
/// Propagates panics from party threads.
pub fn run_parties<E, T, F>(endpoints: Vec<E>, body: F) -> Vec<T>
where
    E: Send + 'static,
    T: Send + 'static,
    F: Fn(E) -> T + Send + Sync + 'static,
{
    let body = Arc::new(body);
    let handles: Vec<_> = endpoints
        .into_iter()
        .enumerate()
        .map(|(i, ep)| {
            let body = Arc::clone(&body);
            // Named threads: a panic inside a party prints as
            // `thread 'party-3' panicked …`, so the failing party is
            // identifiable from the crash output alone.
            thread::Builder::new()
                .name(format!("party-{i}"))
                .spawn(move || body(ep))
                .unwrap_or_else(|e| panic!("failed to spawn party-{i}: {e}"))
        })
        .collect();
    handles
        .into_iter()
        .enumerate()
        .map(|(i, h)| {
            h.join()
                .unwrap_or_else(|_| panic!("party-{i} thread panicked"))
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{NetError, PartyId};

    #[test]
    fn ring_passes_a_token() {
        let n = 5;
        let (endpoints, stats) = build_fabric(n);
        let results = run_parties(endpoints, move |ep| {
            let id = ep.id().0;
            if id == 0 {
                ep.send(PartyId(1), "token", vec![1]).expect("send");
                let env = ep.recv_expect("token").expect("recv");
                env.payload[0]
            } else {
                let env = ep.recv_expect("token").expect("recv");
                let next = PartyId((id + 1) % ep.parties());
                let mut p = env.payload;
                p[0] += 1;
                ep.send(next, "token", p.clone()).expect("send");
                p[0]
            }
        });
        // Token incremented once per hop: party 0 sees n.
        assert_eq!(results[0], n as u8);
        let s = stats.stats();
        assert_eq!(s.total_messages, n as u64);
        assert_eq!(s.total_bytes, n as u64);
    }

    #[test]
    fn gather_to_root() {
        let n = 8;
        let (endpoints, stats) = build_fabric(n);
        let results = run_parties(endpoints, move |ep| {
            let id = ep.id().0;
            if id == 0 {
                let mut sum = 0u64;
                for _ in 1..ep.parties() {
                    let env = ep.recv_expect("report").expect("recv");
                    sum += env.payload[0] as u64;
                }
                sum
            } else {
                ep.send(PartyId(0), "report", vec![id as u8]).expect("send");
                0
            }
        });
        assert_eq!(results[0], (1..8).sum::<u64>());
        assert_eq!(stats.stats().total_messages, 7);
    }

    #[test]
    fn send_errors() {
        let (mut endpoints, _stats) = build_fabric(2);
        let ep = endpoints.remove(0);
        assert!(matches!(
            ep.send(PartyId(0), "x", vec![]),
            Err(NetError::SelfSend { .. })
        ));
        assert!(matches!(
            ep.send(PartyId(9), "x", vec![]),
            Err(NetError::UnknownParty { .. })
        ));
    }

    #[test]
    fn stats_match_sequential_fabric() {
        // Same traffic pattern on both fabrics → identical counters.
        let (endpoints, stats) = build_fabric(3);
        run_parties(endpoints, |ep| {
            if ep.id().0 == 0 {
                ep.send(PartyId(1), "m", vec![0; 10]).expect("send");
                ep.send(PartyId(2), "m", vec![0; 20]).expect("send");
            } else {
                ep.recv_expect("m").expect("recv");
            }
        });

        let mut sim = crate::SimNetwork::new(3);
        sim.send(PartyId(0), PartyId(1), "m", vec![0; 10])
            .expect("send");
        sim.send(PartyId(0), PartyId(2), "m", vec![0; 20])
            .expect("send");
        sim.recv(PartyId(1)).expect("deliver");
        sim.recv(PartyId(2)).expect("deliver");

        assert_eq!(&stats.stats(), sim.stats());
    }
}
