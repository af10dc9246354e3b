//! The one aggregation walk: a set of parties folds `K` Paillier
//! ciphertexts each toward a sink that holds the private key.
//!
//! Every protocol of the paper repeats one step — "each agent multiplies
//! its ciphertext into a travelling aggregate until the key owner
//! decrypts" — and [`FoldMachine`] is the only code in the workspace
//! that knows how that step is laid out over the parties. Protocols 2
//! and 4 (`K = 1`), Protocol 3 (`K = 2`) and the coupling round
//! (`K = 4`) are callers.
//!
//! A shape ([`Topology`]) is each member position's *parent* — another
//! position, or the sink — plus the order in which the positions that
//! have children are visited:
//!
//! * **Ring**: position `i` forwards to `i + 1`, the last to the sink;
//!   position 0 opens, the rest are visited ascending.
//! * **Star**: every parent is the sink; all members send at kickoff,
//!   ascending, and the sink multiplies as they arrive.
//! * **Tree { fanin }**: the heap layout (`(i − 1) / fanin`, position 0
//!   under the sink). Leaves are the trailing positions and send at
//!   kickoff, descending; inner positions are visited descending, so a
//!   node's children have always sent before it is visited.
//!
//! A visited node multiplies what it hears into its own tuple and, once
//! it has heard from all its children, forwards the product to its
//! parent: one message per member in every shape.
//!
//! What callers own: the members' tuples arrive **already encrypted**,
//! so the order of the randomizer draws is the caller's (ring and star
//! callers encrypt ascending, tree callers descending), and so is what
//! happens at the sink — the fold ends by handing over the validated
//! product and the arrival time of the closing message.

use pem_crypto::paillier::{Ciphertext, PublicKey};
use pem_fabric::{Outbound, ProtocolStateMachine, Transition};
use pem_net::wire::{WireReader, WireWriter};
use pem_net::{Envelope, PartyId, Transport};
use serde::{Deserialize, Serialize};

use crate::error::PemError;

/// How a set of parties aggregates its ciphertexts toward the decryptor
/// ([`FoldMachine`] lays it out; the module header describes each shape).
///
/// All three move one tuple per member and the same byte volume. What
/// differs is the sequential depth (`m` hops for the paper's ring, 1 for
/// the star, `O(log_f m)` for the tree) and the fan-in one party absorbs
/// (1, `m`, `f`) — the trade-off the `ablation_topology` bench
/// quantifies. Protocol 3 takes its shape from
/// [`PemConfig::topology`](crate::PemConfig).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default, Serialize, Deserialize)]
pub enum Topology {
    /// Sequential ring through the members (the paper's flow).
    #[default]
    Ring,
    /// Direct fan-in to the decryptor.
    Star,
    /// f-ary aggregation tree: depth `O(log_f n)`, at most `fanin`
    /// messages received per node (values below 2 are treated as 2 — a
    /// 1-ary "tree" would degenerate into the ring).
    Tree {
        /// Maximum children aggregated per node.
        fanin: usize,
    },
}

impl Topology {
    /// A binary aggregation tree (the default tree shape).
    pub fn tree() -> Topology {
        Topology::Tree { fanin: 2 }
    }
}

impl std::fmt::Display for Topology {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        // Through `pad` so callers' width/alignment specifiers apply.
        match self {
            Topology::Ring => f.pad("ring"),
            Topology::Star => f.pad("star"),
            Topology::Tree { fanin } => f.pad(&format!("tree:{fanin}")),
        }
    }
}

impl std::str::FromStr for Topology {
    type Err = String;

    fn from_str(s: &str) -> Result<Topology, String> {
        let s = s.trim().to_ascii_lowercase();
        match s.as_str() {
            "ring" => Ok(Topology::Ring),
            "star" => Ok(Topology::Star),
            "tree" => Ok(Topology::tree()),
            other => {
                if let Some(fanin) = other.strip_prefix("tree:") {
                    let fanin: usize = fanin
                        .parse()
                        .map_err(|_| format!("bad tree fan-in '{fanin}'"))?;
                    if fanin < 2 {
                        return Err("tree fan-in must be at least 2".into());
                    }
                    Ok(Topology::Tree { fanin })
                } else {
                    Err(format!(
                        "unknown topology '{other}' (expected ring|star|tree[:fanin])"
                    ))
                }
            }
        }
    }
}

/// The fold as a poll-able state machine: one message per
/// [`on_message`](ProtocolStateMachine::on_message), one
/// `(party, label)` expected at a time, in every shape.
///
/// Completes with the sink's `K`-tuple (each ciphertext the product of
/// that column over all members, every factor validated on receipt) and
/// the arrival time of the message that closed it.
pub struct FoldMachine<'a, const K: usize> {
    pk: &'a PublicKey,
    label: &'static str,
    /// Party ids by member position; the sink's at index `m`.
    parties: Vec<usize>,
    /// Each member position's parent: a position, or `m` for the sink.
    parent: Vec<usize>,
    /// How many messages each position (and, at `m`, the sink) hears.
    children: Vec<usize>,
    /// The positions that hear anything, in visit order; the sink last.
    visit: Vec<usize>,
    /// The visited positions' own tuples (the leaves' are in `kickoff`).
    own: Vec<Option<[Ciphertext; K]>>,
    /// The leaves' sends, performed before any delivery.
    kickoff: Vec<Outbound>,
    /// Index into `visit` of the node now receiving.
    at: usize,
    /// Messages that node has heard so far.
    heard: usize,
    /// Which member positions have been folded into their parent.
    heard_from: Vec<bool>,
    /// That node's accumulator: its own tuple times everything heard
    /// (`None` at the sink, which has no tuple, until its first message).
    acc: Option<[Ciphertext; K]>,
}

impl<'a, const K: usize> FoldMachine<'a, K> {
    /// Lays `members` (party ids, position order) out in `topology`
    /// under `sink`. `tuples[i]` is member `i`'s contribution, encrypted
    /// under `pk` by the caller.
    ///
    /// # Errors
    ///
    /// [`PemError::Protocol`] if there are no members or `tuples` does
    /// not hold one tuple per member.
    pub fn new(
        pk: &'a PublicKey,
        members: &[usize],
        sink: usize,
        label: &'static str,
        topology: Topology,
        tuples: Vec<[Ciphertext; K]>,
    ) -> Result<FoldMachine<'a, K>, PemError> {
        let m = members.len();
        if m == 0 || tuples.len() != m {
            return Err(PemError::Protocol("a fold needs members, one tuple each"));
        }
        let (parent, descending): (Vec<usize>, bool) = match topology {
            Topology::Ring => ((1..=m).collect(), false),
            Topology::Star => (vec![m; m], false),
            Topology::Tree { fanin } => {
                let f = fanin.max(2);
                let heap = |pos: usize| if pos == 0 { m } else { (pos - 1) / f };
                ((0..m).map(heap).collect(), true)
            }
        };
        let mut children = vec![0usize; m + 1];
        for &p in &parent {
            children[p] += 1;
        }
        let mut machine = FoldMachine {
            pk,
            label,
            parties: members.iter().copied().chain([sink]).collect(),
            parent,
            children,
            visit: Vec::new(),
            own: tuples.into_iter().map(Some).chain([None]).collect(),
            kickoff: Vec::new(),
            at: 0,
            heard: 0,
            heard_from: vec![false; m],
            acc: None,
        };
        let mut order: Vec<usize> = (0..m).collect();
        if descending {
            order.reverse();
        }
        for pos in order {
            if machine.children[pos] > 0 {
                machine.visit.push(pos);
            } else if let Some(tuple) = machine.own[pos].take() {
                let out = machine.outbound(pos, &tuple);
                machine.kickoff.push(out);
            }
        }
        machine.visit.push(m);
        machine.acc = machine.own[machine.visit[0]].take();
        Ok(machine)
    }

    /// Polls the fold to completion on a blocking transport.
    ///
    /// # Errors
    ///
    /// Transport, decode and ciphertext-validation failures.
    pub fn drive<T: Transport>(mut self, net: &mut T) -> Result<([Ciphertext; K], u64), PemError> {
        pem_fabric::drive(net, &mut self)
    }

    /// Position `pos` sending `tuple` to its parent.
    fn outbound(&self, pos: usize, tuple: &[Ciphertext; K]) -> Outbound {
        let mut w = WireWriter::new();
        for c in tuple {
            w.put_biguint(c.as_biguint());
        }
        Outbound {
            from: PartyId(self.parties[pos]),
            to: PartyId(self.parties[self.parent[pos]]),
            label: self.label,
            payload: w.finish(),
        }
    }

    /// Decodes `K` minimal-length integers and validates each as a
    /// ciphertext under the sink's key.
    fn decode(&self, payload: &[u8]) -> Result<[Ciphertext; K], PemError> {
        let mut r = WireReader::new(payload);
        let mut tuple = Vec::with_capacity(K);
        for _ in 0..K {
            let c = Ciphertext::from_biguint(r.get_biguint()?);
            self.pk.validate_ciphertext(&c)?;
            tuple.push(c);
        }
        // Arrays have no fallible constructor; the length always matches.
        tuple
            .try_into()
            .map_err(|_| PemError::Protocol("fold tuple width"))
    }
}

impl<const K: usize> ProtocolStateMachine for FoldMachine<'_, K> {
    /// The sink's tuple and the arrival time (µs) of its last message.
    type Output = ([Ciphertext; K], u64);
    type Error = PemError;

    fn initial_messages(&mut self) -> Result<Vec<Outbound>, PemError> {
        Ok(std::mem::take(&mut self.kickoff))
    }

    fn expecting(&self) -> Option<(PartyId, &'static str)> {
        let &node = self.visit.get(self.at)?;
        Some((PartyId(self.parties[node]), self.label))
    }

    fn on_message(&mut self, env: Envelope) -> Result<Transition<Self::Output>, PemError> {
        let Some(&node) = self.visit.get(self.at) else {
            return Err(PemError::Protocol("fed a finished fold"));
        };
        // Each child is folded in once: a replayed or misrouted frame
        // would otherwise count its sender twice, or count a stranger.
        let m = self.parent.len();
        let child = self.parties[..m].iter().position(|&p| p == env.from.0);
        match child {
            Some(pos) if self.parent[pos] == node && !self.heard_from[pos] => {
                self.heard_from[pos] = true;
            }
            _ => return Err(PemError::Protocol("fold frame from no unheard child")),
        }
        let incoming = self.decode(&env.payload)?;
        let acc = match self.acc.take() {
            None => incoming,
            Some(acc) => std::array::from_fn(|i| self.pk.add_ciphertexts(&acc[i], &incoming[i])),
        };
        self.heard += 1;
        if self.heard < self.children[node] {
            self.acc = Some(acc);
            return Ok(Transition::Continue);
        }
        // Node complete: forward to the parent and move on. The sink is
        // visited last, so running off the end is the fold's result.
        self.at += 1;
        self.heard = 0;
        let Some(&next) = self.visit.get(self.at) else {
            return Ok(Transition::Done((acc, env.arrival_us)));
        };
        self.acc = self.own[next].take();
        Ok(Transition::Send(vec![self.outbound(node, &acc)]))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::keys::KeyDirectory;
    use pem_bignum::BigUint;
    use pem_crypto::drbg::HashDrbg;
    use pem_fabric::{kickoff, step};
    use pem_net::{LatencyModel, SimNetwork};

    const SHAPES: [Topology; 4] = [
        Topology::Ring,
        Topology::Star,
        Topology::Tree { fanin: 2 },
        Topology::Tree { fanin: 3 },
    ];

    /// Members are parties `0..m`, the sink is party `m`; member `i`
    /// contributes `(i + 1)·(col + 1)` in column `col`.
    fn machine<'a, const K: usize>(
        keys: &'a KeyDirectory,
        m: usize,
        topology: Topology,
    ) -> FoldMachine<'a, K> {
        let mut rng = HashDrbg::from_seed_label(b"fold-test", m as u64);
        let pk = keys.public(0);
        let tuples = (0..m)
            .map(|i| {
                std::array::from_fn(|col| {
                    let v = BigUint::from(((i + 1) * (col + 1)) as u64);
                    pk.try_encrypt(&v, &mut rng).expect("encrypt")
                })
            })
            .collect();
        let members: Vec<usize> = (0..m).collect();
        FoldMachine::new(pk, &members, m, "fold", topology, tuples).expect("fold")
    }

    fn check<const K: usize>(keys: &KeyDirectory, m: usize, topology: Topology) {
        let what = format!("m={m} {topology} K={K}");
        let net = || SimNetwork::with_latency(m + 1, LatencyModel::lan());

        // Driven to completion …
        let mut driven = net();
        let (tuple, arrival) = machine::<K>(keys, m, topology)
            .drive(&mut driven)
            .expect("drive");
        assert_eq!(arrival, driven.now_us(), "{what}: closing arrival");
        let sk = keys.keypair(0).private();
        let triangle = (m * (m + 1) / 2) as u64;
        for (col, c) in tuple.iter().enumerate() {
            let sum = BigUint::from(triangle * (col as u64 + 1));
            assert_eq!(sk.decrypt(c), sum, "{what}: column {col}");
        }
        assert_eq!(driven.stats().total_messages, m as u64, "{what}: messages");
        assert_eq!(driven.pending(), 0, "{what}: all consumed");

        // … and one message at a time, counting receptions per party.
        let mut stepped = net();
        let mut fold = machine::<K>(keys, m, topology);
        let mut heard = vec![0usize; m + 1];
        kickoff(&mut stepped, &mut fold).expect("kickoff");
        let out = loop {
            let (to, _) = fold.expecting().expect("running");
            heard[to.0] += 1;
            if let Some(out) = step(&mut stepped, &mut fold).expect("step") {
                break out;
            }
        };
        assert_eq!(out, (tuple, arrival), "{what}: step ≡ drive");
        assert_eq!(stepped.stats(), driven.stats(), "{what}: traffic");
        assert_eq!(stepped.now_us(), driven.now_us(), "{what}: clock");
        assert!(fold.expecting().is_none(), "{what}: reports done");
        let bound = match topology {
            Topology::Ring => 1,
            Topology::Star => m,
            Topology::Tree { fanin } => fanin,
        };
        assert!(
            heard.iter().all(|&h| h <= bound),
            "{what}: fan-in {heard:?} over {bound}"
        );
    }

    #[test]
    fn every_shape_size_and_width_folds_to_the_column_sums() {
        let keys = KeyDirectory::generate(1, 128, 5).expect("keys");
        for m in 1..=9 {
            for topology in SHAPES {
                check::<1>(&keys, m, topology);
                check::<2>(&keys, m, topology);
                check::<4>(&keys, m, topology);
            }
        }
    }

    #[test]
    fn tree_is_the_heap_layout_with_leaves_kicking_off_descending() {
        let keys = KeyDirectory::generate(1, 128, 5).expect("keys");
        // Seven positions, fan-in 3: 0 has children 1..=3, 1 has 4..=6.
        let mut fold = machine::<1>(&keys, 7, Topology::Tree { fanin: 3 });
        assert_eq!(fold.children, [3, 3, 0, 0, 0, 0, 0, 1]);
        assert_eq!(fold.visit, [1, 0, 7]);
        let leaves: Vec<(usize, usize)> = fold
            .initial_messages()
            .expect("kickoff")
            .iter()
            .map(|o| (o.from.0, o.to.0))
            .collect();
        assert_eq!(leaves, [(6, 1), (5, 1), (4, 1), (3, 0), (2, 0)]);
        // A fan-in below 2 is the binary tree, and a ragged last level
        // leaves its parent with fewer children.
        let fold = machine::<1>(&keys, 4, Topology::Tree { fanin: 1 });
        assert_eq!(fold.children, [2, 1, 0, 0, 1]);
    }

    #[test]
    fn rejects_a_bad_membership_and_input_after_completion() {
        let keys = KeyDirectory::generate(1, 128, 5).expect("keys");
        let pk = keys.public(0);
        let none = FoldMachine::<1>::new(pk, &[], 0, "fold", Topology::Ring, Vec::new());
        assert!(matches!(none, Err(PemError::Protocol(_))));
        let short = FoldMachine::<1>::new(pk, &[0, 1], 2, "fold", Topology::Ring, Vec::new());
        assert!(matches!(short, Err(PemError::Protocol(_))));

        let (mut net, mut fold) = (SimNetwork::new(2), machine::<1>(&keys, 1, Topology::Ring));
        kickoff(&mut net, &mut fold).expect("kickoff");
        let env = net.recv_expect(PartyId(1), "fold").expect("delivered");
        let done = fold.on_message(env.clone());
        assert!(matches!(done, Ok(Transition::Done(_))));
        assert!(matches!(fold.on_message(env), Err(PemError::Protocol(_))));
    }

    #[test]
    fn a_replayed_or_misrouted_frame_is_not_folded_in() {
        // Star over three members: the sink hears all three. A second
        // copy of member 0's frame would otherwise stand in for member
        // 2's and close the fold on the wrong sum.
        let keys = KeyDirectory::generate(1, 128, 5).expect("keys");
        let mut net = SimNetwork::new(4);
        let mut fold = machine::<1>(&keys, 3, Topology::Star);
        kickoff(&mut net, &mut fold).expect("kickoff");
        let first = net.recv_expect(PartyId(3), "fold").expect("member 0");
        assert_eq!(first.from, PartyId(0));
        assert!(matches!(
            fold.on_message(first.clone()),
            Ok(Transition::Continue)
        ));
        assert!(matches!(
            fold.on_message(first.clone()),
            Err(PemError::Protocol(_))
        ));
        // Tree of seven, fan-in 3: node 1 hears 4..=6, never member 2.
        let mut fold = machine::<1>(&keys, 7, Topology::Tree { fanin: 3 });
        let stranger = Envelope {
            from: PartyId(2),
            ..first
        };
        assert!(matches!(
            fold.on_message(stranger),
            Err(PemError::Protocol(_))
        ));
    }
}
