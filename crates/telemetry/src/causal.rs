//! Causal critical-path attribution over recorded message events.
//!
//! The transports' virtual clock already *measures* a window's critical
//! path (`Transport::now_us` / `critical_path_us`); this module answers
//! *which hops and phases make it up*. Recorded [`MsgEvent`]s form a
//! happens-before DAG: a message depends on whatever advanced its
//! sender's local clock to `depart_us` (a **compute/handoff**
//! predecessor — the latest arrival at the sender), or, when the
//! recipient's ingress link was still busy serializing an earlier
//! message, on that earlier delivery (a **queue** predecessor). Walking
//! predecessors backward from the latest arrival yields the longest
//! virtual-time chain, and cutting each hop at its predecessor's
//! handoff point makes the segment contributions *sum exactly* to the
//! total — so per-phase shares are an exact decomposition, not an
//! estimate.
//!
//! Gaps where the walk waits on the sender's local clock with no
//! earlier arrival to blame (protocol-local compute between messages,
//! or a `recv` fast-forward) are attributed to the pseudo-phase
//! `"(local)"`.
//!
//! All analysis is pure post-processing of drained/cloned buffers: it
//! never touches the transports or the virtual clock.

use std::collections::BTreeMap;

use crate::json::Json;
use crate::{json_object, MsgEvent};

/// How many dominating edges [`CriticalPathReport::to_json`] carries
/// (the full hop list lives in the in-memory report; JSON keeps the
/// headline).
const JSON_TOP_EDGES: usize = 8;

/// One hop on the extracted critical path.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct PathHop {
    /// Sending party (fabric-local index).
    pub from: usize,
    /// Receiving party (fabric-local index).
    pub to: usize,
    /// Protocol message label.
    pub label: &'static str,
    /// Payload bytes.
    pub bytes: u64,
    /// Sender's virtual clock at send, µs.
    pub depart_us: u64,
    /// Modelled delivery time, µs.
    pub arrival_us: u64,
    /// This hop's exclusive contribution to the path total, µs: the
    /// segment between its predecessor's handoff and its own arrival.
    pub contrib_us: u64,
    /// Whether the binding predecessor was an ingress-queue wait (an
    /// earlier delivery still serializing on the recipient's link)
    /// rather than the sender's clock.
    pub queued: bool,
}

/// Exact decomposition of a fabric's virtual critical path into message
/// hops, protocol phases, and links.
///
/// Invariants (all verified by tests):
///
/// * `total_us` equals the maximum `arrival_us` over the analysed
///   messages — i.e. the transport's measured `critical_path_us`.
/// * `sum(hops.contrib_us) + local_us == total_us`.
/// * `phase_us` values (which include the `"(local)"` pseudo-phase)
///   sum to `total_us`.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct CriticalPathReport {
    /// Virtual critical-path length, µs (max arrival over the slice).
    pub total_us: u64,
    /// Number of message events analysed.
    pub messages: usize,
    /// Path time spent waiting on a sender's local clock with no
    /// earlier arrival to attribute it to, µs.
    pub local_us: u64,
    /// The critical path, in forward (causal) order.
    pub hops: Vec<PathHop>,
    /// Exclusive µs per protocol phase (label prefix before `'/'`,
    /// plus `"(local)"`), name-sorted; values sum to `total_us`.
    pub phase_us: Vec<(String, u64)>,
    /// Exclusive µs per directed link `(from, to)`, sorted by
    /// descending share then by endpoint pair.
    pub link_us: Vec<(usize, usize, u64)>,
}

/// The phase a message label belongs to: the prefix before the first
/// `'/'` (the whole label if it has none).
pub fn phase_of(label: &str) -> &str {
    label.split('/').next().unwrap_or(label)
}

impl CriticalPathReport {
    /// Analyses one fabric's message events (the slice must come from a
    /// single transport instance — filter with [`Self::for_fabric`] or
    /// [`Self::per_fabric`] when fabrics share the buffer).
    pub fn from_msgs(msgs: &[MsgEvent]) -> CriticalPathReport {
        let Some(end) = msgs
            .iter()
            .enumerate()
            .max_by_key(|(_, m)| (m.arrival_us, m.seq))
            .map(|(i, _)| i)
        else {
            return CriticalPathReport::default();
        };
        let total_us = msgs[end].arrival_us;

        // Backward walk: each step cuts the current hop at its binding
        // predecessor's handoff point, so segments tile [0, total_us].
        let mut rev_hops: Vec<PathHop> = Vec::new();
        let mut local_us = 0u64;
        let mut visited = vec![false; msgs.len()];
        let mut cur = end;
        loop {
            visited[cur] = true;
            let m = &msgs[cur];
            // Queue predecessor: the latest earlier delivery into the
            // same ingress link. It binds when it was still arriving
            // after our departure (the link, not the sender, is the
            // bottleneck).
            let queue_pred = msgs
                .iter()
                .enumerate()
                .filter(|(i, p)| !visited[*i] && p.to == m.to && p.seq < m.seq)
                .max_by_key(|(_, p)| p.seq)
                .filter(|(_, p)| p.arrival_us > m.depart_us)
                .map(|(i, _)| i);
            if let Some(q) = queue_pred {
                rev_hops.push(PathHop {
                    from: m.from,
                    to: m.to,
                    label: m.label,
                    bytes: m.bytes,
                    depart_us: m.depart_us,
                    arrival_us: m.arrival_us,
                    contrib_us: m.arrival_us - msgs[q].arrival_us,
                    queued: true,
                });
                cur = q;
                continue;
            }
            // Compute/handoff predecessor: the latest arrival at the
            // sender not after our departure — what advanced the
            // sender's clock toward `depart_us`.
            rev_hops.push(PathHop {
                from: m.from,
                to: m.to,
                label: m.label,
                bytes: m.bytes,
                depart_us: m.depart_us,
                arrival_us: m.arrival_us,
                contrib_us: m.arrival_us - m.depart_us,
                queued: false,
            });
            let compute_pred = msgs
                .iter()
                .enumerate()
                .filter(|(i, p)| !visited[*i] && p.to == m.from && p.arrival_us <= m.depart_us)
                .max_by_key(|(_, p)| (p.arrival_us, p.seq))
                .map(|(i, _)| i);
            match compute_pred {
                Some(p) => {
                    local_us += m.depart_us - msgs[p].arrival_us;
                    cur = p;
                }
                None => {
                    // Chain origin: the sender's clock ran from 0.
                    local_us += m.depart_us;
                    break;
                }
            }
        }
        rev_hops.reverse();

        let mut phases: BTreeMap<String, u64> = BTreeMap::new();
        let mut links: BTreeMap<(usize, usize), u64> = BTreeMap::new();
        for h in &rev_hops {
            *phases.entry(phase_of(h.label).to_string()).or_default() += h.contrib_us;
            *links.entry((h.from, h.to)).or_default() += h.contrib_us;
        }
        if local_us > 0 {
            *phases.entry("(local)".to_string()).or_default() += local_us;
        }
        let mut link_us: Vec<(usize, usize, u64)> =
            links.into_iter().map(|((f, t), us)| (f, t, us)).collect();
        link_us.sort_by(|a, b| b.2.cmp(&a.2).then((a.0, a.1).cmp(&(b.0, b.1))));

        CriticalPathReport {
            total_us,
            messages: msgs.len(),
            local_us,
            hops: rev_hops,
            phase_us: phases.into_iter().collect(),
            link_us,
        }
    }

    /// Analyses only the events recorded by transport `fabric`.
    pub fn for_fabric(msgs: &[MsgEvent], fabric: u64) -> CriticalPathReport {
        let scoped: Vec<MsgEvent> = msgs
            .iter()
            .filter(|m| m.fabric == fabric)
            .cloned()
            .collect();
        CriticalPathReport::from_msgs(&scoped)
    }

    /// One report per fabric id present in the slice, fabric-sorted.
    pub fn per_fabric(msgs: &[MsgEvent]) -> Vec<(u64, CriticalPathReport)> {
        let mut by_fabric: BTreeMap<u64, Vec<MsgEvent>> = BTreeMap::new();
        for m in msgs {
            by_fabric.entry(m.fabric).or_default().push(m.clone());
        }
        by_fabric
            .into_iter()
            .map(|(f, ms)| (f, CriticalPathReport::from_msgs(&ms)))
            .collect()
    }

    /// The report of the fabric with the longest critical path (ties
    /// resolved toward the lowest fabric id), or `None` when the slice
    /// is empty or every fabric's path is zero-length (e.g. under the
    /// zero-latency model).
    pub fn dominant(msgs: &[MsgEvent]) -> Option<CriticalPathReport> {
        let mut best: Option<CriticalPathReport> = None;
        for (_, report) in CriticalPathReport::per_fabric(msgs) {
            if report.total_us > best.as_ref().map_or(0, |b| b.total_us) {
                best = Some(report);
            }
        }
        best
    }

    /// The `k` hops with the largest exclusive contribution, descending
    /// (ties resolved toward the earlier hop).
    pub fn top_edges(&self, k: usize) -> Vec<&PathHop> {
        let mut edges: Vec<&PathHop> = self.hops.iter().collect();
        edges.sort_by_key(|h| std::cmp::Reverse(h.contrib_us));
        edges.truncate(k);
        edges
    }

    /// The report as a JSON object: totals, the phase and link shares,
    /// the path length and its [`top_edges`](Self::top_edges) (at most
    /// eight).
    pub fn to_json(&self) -> Json {
        let links = self.link_us.iter().map(|&(from, to, us)| {
            json_object! { "from": from, "to": to, "us": us }
        });
        let edges = self.top_edges(JSON_TOP_EDGES).into_iter().map(|h| {
            json_object! {
                "from": h.from, "to": h.to, "label": h.label, "bytes": h.bytes,
                "depart_us": h.depart_us, "arrival_us": h.arrival_us,
                "contrib_us": h.contrib_us, "queued": h.queued,
            }
        });
        let phases = self
            .phase_us
            .iter()
            .map(|(name, us)| (name.as_str(), Json::from(*us)));
        json_object! {
            "total_us": self.total_us, "messages": self.messages, "local_us": self.local_us,
            "path_len": self.hops.len(), "phase_us": Json::obj(phases),
            "link_us": links.collect::<Json>(), "top_edges": edges.collect::<Json>(),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn msg(
        from: usize,
        to: usize,
        label: &'static str,
        depart_us: u64,
        arrival_us: u64,
        seq: u64,
    ) -> MsgEvent {
        MsgEvent {
            fabric: 1,
            from,
            to,
            label,
            bytes: 16,
            depart_us,
            arrival_us,
            seq,
        }
    }

    fn assert_shares_sum(r: &CriticalPathReport) {
        let phase_sum: u64 = r.phase_us.iter().map(|(_, us)| us).sum();
        assert_eq!(phase_sum, r.total_us, "phase shares must sum to total");
        let hop_sum: u64 = r.hops.iter().map(|h| h.contrib_us).sum();
        assert_eq!(hop_sum + r.local_us, r.total_us);
        let link_sum: u64 = r.link_us.iter().map(|(_, _, us)| us).sum();
        assert_eq!(link_sum + r.local_us, r.total_us);
    }

    #[test]
    fn empty_slice_is_a_zero_report() {
        let r = CriticalPathReport::from_msgs(&[]);
        assert_eq!(r, CriticalPathReport::default());
        assert_eq!(r.total_us, 0);
        assert!(CriticalPathReport::dominant(&[]).is_none());
    }

    #[test]
    fn ring_decomposes_into_sequential_hops() {
        // 0→1→2→3 with base 100µs + 8µs transmit: each hop departs at
        // its predecessor's arrival.
        let msgs = [
            msg(0, 1, "price/agg", 0, 108, 0),
            msg(1, 2, "price/agg", 108, 216, 1),
            msg(2, 3, "price/agg", 216, 324, 2),
        ];
        let r = CriticalPathReport::from_msgs(&msgs);
        assert_eq!(r.total_us, 324);
        assert_eq!(r.messages, 3);
        assert_eq!(r.local_us, 0);
        assert_eq!(r.hops.len(), 3);
        // Forward order, each hop contributing its full flight.
        assert_eq!(r.hops[0].from, 0);
        assert_eq!(r.hops[2].to, 3);
        assert!(r.hops.iter().all(|h| h.contrib_us == 108 && !h.queued));
        assert_eq!(r.phase_us, vec![("price".to_string(), 324)]);
        assert_shares_sum(&r);
    }

    #[test]
    fn star_fan_in_charges_the_ingress_queue() {
        // Three senders to one hub at depart 0 (base 100, transmit 8):
        // the hub's ingress serializes them back to back, so the path
        // is one full flight plus two queued transmissions.
        let msgs = [
            msg(0, 3, "price/agg", 0, 108, 0),
            msg(1, 3, "price/agg", 0, 116, 1),
            msg(2, 3, "price/agg", 0, 124, 2),
        ];
        let r = CriticalPathReport::from_msgs(&msgs);
        assert_eq!(r.total_us, 124);
        assert_eq!(r.local_us, 0);
        assert_eq!(r.hops.len(), 3);
        assert_eq!(r.hops[0].contrib_us, 108);
        assert!(!r.hops[0].queued);
        assert_eq!(r.hops[1].contrib_us, 8);
        assert!(r.hops[1].queued);
        assert_eq!(r.hops[2].contrib_us, 8);
        assert!(r.hops[2].queued);
        assert_shares_sum(&r);
    }

    #[test]
    fn local_compute_gap_lands_in_the_local_phase() {
        // 0→1 arrives at 108; party 1 then computes until 500 before
        // sending onward: the 392µs gap is "(local)", not a message's.
        let msgs = [
            msg(0, 1, "eval/demand-agg", 0, 108, 0),
            msg(1, 2, "eval/result", 500, 608, 1),
        ];
        let r = CriticalPathReport::from_msgs(&msgs);
        assert_eq!(r.total_us, 608);
        assert_eq!(r.local_us, 392);
        assert_eq!(
            r.phase_us,
            vec![("(local)".to_string(), 392), ("eval".to_string(), 216)]
        );
        assert_shares_sum(&r);
    }

    #[test]
    fn per_fabric_scopes_and_dominant_picks_the_longest() {
        let mut a = msg(0, 1, "eval/x", 0, 100, 0);
        a.fabric = 1;
        let mut b = msg(0, 1, "couple/up", 0, 700, 1);
        b.fabric = 2;
        let msgs = [a, b];
        let per = CriticalPathReport::per_fabric(&msgs);
        assert_eq!(per.len(), 2);
        assert_eq!(per[0].0, 1);
        assert_eq!(per[0].1.total_us, 100);
        assert_eq!(per[1].1.total_us, 700);
        let dom = CriticalPathReport::dominant(&msgs).expect("non-zero path");
        assert_eq!(dom.total_us, 700);
        assert_eq!(CriticalPathReport::for_fabric(&msgs, 1).total_us, 100);
        assert_eq!(CriticalPathReport::for_fabric(&msgs, 9).total_us, 0);
    }

    #[test]
    fn zero_length_paths_are_not_dominant() {
        let m = msg(0, 1, "eval/x", 0, 0, 0);
        assert!(CriticalPathReport::dominant(&[m]).is_none());
    }

    #[test]
    fn top_edges_ranks_by_contribution() {
        let msgs = [
            msg(0, 1, "price/agg", 0, 108, 0),
            msg(1, 2, "price/agg", 108, 216, 1),
            msg(2, 3, "price/agg", 216, 324, 2),
        ];
        let r = CriticalPathReport::from_msgs(&msgs);
        let top = r.top_edges(2);
        assert_eq!(top.len(), 2);
        assert!(top[0].contrib_us >= top[1].contrib_us);
        assert!(r.top_edges(10).len() == 3);
    }

    #[test]
    fn json_keeps_the_headline() {
        // A ten-hop ring: JSON carries every total but only eight edges.
        let msgs: Vec<MsgEvent> = (0..10)
            .map(|i| {
                msg(
                    i,
                    i + 1,
                    "price/agg",
                    108 * i as u64,
                    108 * (i as u64 + 1),
                    i as u64,
                )
            })
            .collect();
        let r = CriticalPathReport::from_msgs(&msgs);
        let json = Json::parse(&r.to_json().to_string()).expect("valid JSON");
        let num = |key: &str| json.get(key).and_then(Json::as_f64);
        assert_eq!(num("total_us"), Some(1080.0));
        assert_eq!(num("path_len"), Some(10.0));
        assert_eq!(
            json.get("phase_us").and_then(|p| p.get("price")),
            Some(&Json::Num(1080.0))
        );
        let edges = json
            .get("top_edges")
            .and_then(Json::as_array)
            .expect("edges");
        assert_eq!(edges.len(), JSON_TOP_EDGES);
        assert_eq!(
            edges[0].get("label").and_then(Json::as_str),
            Some("price/agg")
        );
        assert_eq!(edges[0].get("queued"), Some(&Json::Bool(false)));
        let links = json.get("link_us").and_then(Json::as_array).expect("links");
        assert_eq!(links.len(), 10);
    }

    #[test]
    fn phase_of_splits_on_slash() {
        assert_eq!(phase_of("eval/supply-agg"), "eval");
        assert_eq!(phase_of("window"), "window");
    }
}
