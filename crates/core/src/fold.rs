//! The one aggregation walk: a set of parties folds `K` Paillier
//! ciphertexts each toward a sink that holds the private key.
//!
//! Every protocol of the paper repeats one step — "each agent multiplies
//! its ciphertext into a travelling aggregate until the key owner
//! decrypts" — and [`fold`] is the only code in the workspace that
//! knows how that step is laid out over the parties. Protocols 2
//! and 4 (`K = 1`), Protocol 3 (`K = 2`) and the coupling round
//! (`K = 4`) are callers.
//!
//! A shape ([`Topology`]) is each member position's *parent* — another
//! position, or the sink — plus the order in which the positions that
//! have children are visited:
//!
//! * **Ring**: position `i` forwards to `i + 1`, the last to the sink;
//!   position 0 opens, the rest are visited ascending.
//! * **Star**: every parent is the sink; all members send first,
//!   ascending, and the sink multiplies as they arrive.
//! * **Tree { fanin }**: the heap layout (`(i − 1) / fanin`, position 0
//!   under the sink). Leaves are the trailing positions and send first,
//!   descending; inner positions are visited descending, so a
//!   node's children have always sent before it is visited.
//!
//! A visited node multiplies what it hears into its own tuple and, once
//! it has heard from all its children, forwards the product to its
//! parent: one message per member in every shape. [`fold`] is an
//! `async fn` that yields before each receive, so a trading window on
//! the executor advances one fold message per poll, and
//! [`block_on`](pem_fabric::block_on) runs it to completion anywhere
//! else.
//!
//! What callers own: the members' tuples arrive **already encrypted**,
//! so the order of the randomizer draws is the caller's (Protocols 2
//! and 4 encrypt ascending in every shape; Protocol 3 encrypts a tree
//! descending and the coupling round always does, as the tree visits
//! them), and so is what happens at the sink — the fold ends by handing over the validated
//! product and the arrival time of the closing message.

use pem_crypto::paillier::{Ciphertext, PublicKey};
use pem_fabric::yield_now;
use pem_net::wire::{WireReader, WireWriter};
use pem_net::{PartyId, Transport};
use serde::{Deserialize, Serialize};

use crate::error::PemError;

/// How a set of parties aggregates its ciphertexts toward the decryptor
/// ([`fold`] lays it out; the module header describes each shape).
///
/// All three move one tuple per member and the same byte volume. What
/// differs is the sequential depth (`m` hops for the paper's ring, 1 for
/// the star, `O(log_f m)` for the tree) and the fan-in one party absorbs
/// (1, `m`, `f`) — the trade-off the `ablation_topology` bench
/// quantifies. Protocols 2–4 take their shape from
/// [`PemConfig::topology`](crate::PemConfig); the coupling round always
/// folds a binary tree.
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

/// Where each member position sits in a fold.
#[derive(Debug, PartialEq, Eq)]
struct Layout {
    /// Each member position's parent: a position, or `m` for the sink.
    parent: Vec<usize>,
    /// How many messages each position (and, at `m`, the sink) hears.
    children: Vec<usize>,
    /// The leaves, in the order they send (before any receive).
    leaves: Vec<usize>,
    /// The positions that hear anything, in visit order; the sink last.
    visit: Vec<usize>,
}

/// Lays `m ≥ 1` member positions out in `topology`.
fn layout(m: usize, topology: Topology) -> Layout {
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
    let mut order: Vec<usize> = (0..m).collect();
    if descending {
        order.reverse();
    }
    let (mut visit, leaves): (Vec<usize>, Vec<usize>) =
        order.into_iter().partition(|&pos| children[pos] > 0);
    visit.push(m);
    Layout {
        parent,
        children,
        leaves,
        visit,
    }
}

/// Folds `members` (party ids, position order) in `topology` toward
/// `sink`. `tuples[i]` is member `i`'s contribution, encrypted under
/// `pk` by the caller.
///
/// The leaves send first. Then each visited node hears its children,
/// one receive per poll, and forwards the product to its parent. Every
/// frame is decoded and each of its ciphertexts validated under `pk`.
/// Returns the sink's `K`-tuple (each ciphertext the product of that
/// column over all members) and the arrival time (µs) of the message
/// that closed the fold.
///
/// # Errors
///
/// [`PemError::Protocol`] if there are no members, `tuples` does not
/// hold one tuple per member, or a frame comes from anyone but a child
/// not yet heard; transport, decode and validation failures.
pub async fn fold<T: Transport, const K: usize>(
    net: &mut T,
    pk: &PublicKey,
    members: &[usize],
    sink: usize,
    label: &'static str,
    topology: Topology,
    tuples: Vec<[Ciphertext; K]>,
) -> Result<([Ciphertext; K], u64), PemError> {
    let m = members.len();
    if m == 0 || tuples.len() != m {
        return Err(PemError::Protocol("a fold needs members, one tuple each"));
    }
    let layout = layout(m, topology);
    let party = |pos: usize| PartyId(members.get(pos).copied().unwrap_or(sink));
    let send = |net: &mut T, pos: usize, tuple: &[Ciphertext; K]| {
        let mut w = WireWriter::new();
        for c in tuple {
            w.put_biguint(c.as_biguint());
        }
        net.send(party(pos), party(layout.parent[pos]), label, w.finish())
    };
    let mut own: Vec<Option<[Ciphertext; K]>> = tuples.into_iter().map(Some).collect();
    for &leaf in &layout.leaves {
        if let Some(tuple) = own[leaf].take() {
            send(net, leaf, &tuple)?;
        }
    }
    let mut heard_from = vec![false; m];
    let mut arrival = 0;
    for &node in &layout.visit {
        // The sink has no tuple of its own until its first message.
        let mut acc = own.get_mut(node).and_then(Option::take);
        for _ in 0..layout.children[node] {
            yield_now().await;
            let env = net.recv_expect(party(node), label)?;
            // Each child is folded in once: a replayed or misrouted frame
            // would otherwise count its sender twice, or count a stranger.
            match members.iter().position(|&p| p == env.from.0) {
                Some(pos) if layout.parent[pos] == node && !heard_from[pos] => {
                    heard_from[pos] = true;
                }
                _ => return Err(PemError::Protocol("fold frame from no unheard child")),
            }
            let incoming = decode::<K>(pk, &env.payload)?;
            acc = Some(match acc {
                None => incoming,
                Some(acc) => std::array::from_fn(|i| pk.add_ciphertexts(&acc[i], &incoming[i])),
            });
            arrival = env.arrival_us;
        }
        let acc = acc.ok_or(PemError::Protocol("fold node heard nothing"))?;
        if node == m {
            return Ok((acc, arrival));
        }
        send(net, node, &acc)?;
    }
    Err(PemError::Protocol("fold layout has no sink"))
}

/// Decodes `K` minimal-length integers, validates each as a ciphertext
/// under the sink's key, and rejects a frame that carries more.
fn decode<const K: usize>(pk: &PublicKey, payload: &[u8]) -> Result<[Ciphertext; K], PemError> {
    let mut r = WireReader::new(payload);
    let mut tuple = Vec::with_capacity(K);
    for _ in 0..K {
        let c = Ciphertext::from_biguint(r.get_biguint()?);
        pk.validate_ciphertext(&c)?;
        tuple.push(c);
    }
    r.finish()?;
    // Arrays have no fallible constructor; the length always matches.
    tuple
        .try_into()
        .map_err(|_| PemError::Protocol("fold tuple width"))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::keys::KeyDirectory;
    use pem_bignum::BigUint;
    use pem_crypto::drbg::HashDrbg;
    use pem_fabric::block_on;
    use pem_net::{Envelope, FaultKind, FaultPlan, LatencyModel, NetError, NetStats, SimNetwork};

    const SHAPES: [Topology; 4] = [
        Topology::Ring,
        Topology::Star,
        Topology::Tree { fanin: 2 },
        Topology::Tree { fanin: 3 },
    ];

    /// Members `0..m`' tuples under party 0's key: member `i`
    /// contributes `(i + 1)·(col + 1)` in column `col`.
    fn tuples<const K: usize>(keys: &KeyDirectory, m: usize) -> Vec<[Ciphertext; K]> {
        let mut rng = HashDrbg::from_seed_label(b"fold-test", m as u64);
        let pk = keys.public(0);
        (0..m)
            .map(|i| {
                std::array::from_fn(|col| {
                    let v = BigUint::from(((i + 1) * (col + 1)) as u64);
                    pk.try_encrypt(&v, &mut rng).expect("encrypt")
                })
            })
            .collect()
    }

    /// Folds members `0..m` toward sink `m` on `net`.
    fn run<const K: usize>(
        net: &mut impl Transport,
        keys: &KeyDirectory,
        m: usize,
        topology: Topology,
    ) -> Result<([Ciphertext; K], u64), PemError> {
        let members: Vec<usize> = (0..m).collect();
        let tuples = tuples::<K>(keys, m);
        block_on(fold(
            net,
            keys.public(0),
            &members,
            m,
            "fold",
            topology,
            tuples,
        ))
    }

    /// A fabric that counts the messages each party receives.
    struct Counting {
        inner: SimNetwork,
        heard: Vec<usize>,
    }

    impl Transport for Counting {
        fn party_count(&self) -> usize {
            self.inner.party_count()
        }
        fn send(
            &mut self,
            from: PartyId,
            to: PartyId,
            label: &'static str,
            payload: Vec<u8>,
        ) -> Result<(), NetError> {
            self.inner.send(from, to, label, payload)
        }
        fn recv(&mut self, to: PartyId) -> Option<Envelope> {
            self.inner.recv(to)
        }
        fn recv_expect(&mut self, to: PartyId, label: &'static str) -> Result<Envelope, NetError> {
            self.heard[to.0] += 1;
            self.inner.recv_expect(to, label)
        }
        fn stats(&self) -> NetStats {
            self.inner.stats()
        }
        fn now_us(&self) -> u64 {
            self.inner.now_us()
        }
        fn pending(&self) -> usize {
            self.inner.pending()
        }
    }

    fn check<const K: usize>(keys: &KeyDirectory, m: usize, topology: Topology) {
        let what = format!("m={m} {topology} K={K}");
        let mut net = Counting {
            inner: SimNetwork::with_latency(m + 1, LatencyModel::lan()),
            heard: vec![0; m + 1],
        };
        let (tuple, arrival) = run::<K>(&mut net, keys, m, topology).expect("fold");
        assert_eq!(arrival, net.now_us(), "{what}: closing arrival");
        let sk = keys.keypair(0).private();
        let triangle = (m * (m + 1) / 2) as u64;
        for (col, c) in tuple.iter().enumerate() {
            let sum = BigUint::from(triangle * (col as u64 + 1));
            assert_eq!(sk.decrypt(c), sum, "{what}: column {col}");
        }
        assert_eq!(net.stats().total_messages, m as u64, "{what}: messages");
        assert_eq!(net.pending(), 0, "{what}: all consumed");
        let bound = match topology {
            Topology::Ring => 1,
            Topology::Star => m,
            Topology::Tree { fanin } => fanin,
        };
        let heard = &net.heard;
        assert!(
            heard.iter().all(|&h| h <= bound),
            "{what}: fan-in {heard:?} over {bound}"
        );
        assert_eq!(heard.iter().sum::<usize>(), m, "{what}: one receive each");
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
        // Seven positions, fan-in 3: 0 has children 1..=3, 1 has 4..=6.
        let tree = layout(7, Topology::Tree { fanin: 3 });
        assert_eq!(tree.children, [3, 3, 0, 0, 0, 0, 0, 1]);
        assert_eq!(tree.visit, [1, 0, 7]);
        assert_eq!(tree.leaves, [6, 5, 4, 3, 2]);
        assert_eq!(tree.parent, [7, 0, 0, 0, 1, 1, 1]);
        // A fan-in below 2 is the binary tree, and a ragged last level
        // leaves its parent with fewer children.
        let tree = layout(4, Topology::Tree { fanin: 1 });
        assert_eq!(tree.children, [2, 1, 0, 0, 1]);
        // The ring opens at position 0; the star sends everything at once.
        let ring = layout(3, Topology::Ring);
        assert_eq!((ring.leaves, ring.visit), (vec![0], vec![1, 2, 3]));
        let star = layout(3, Topology::Star);
        assert_eq!((star.leaves, star.visit), (vec![0, 1, 2], vec![3]));
    }

    #[test]
    fn rejects_a_bad_membership() {
        let keys = KeyDirectory::generate(1, 128, 5).expect("keys");
        let pk = keys.public(0);
        let mut net = SimNetwork::new(3);
        let none = fold::<_, 1>(&mut net, pk, &[], 0, "fold", Topology::Ring, Vec::new());
        assert!(matches!(block_on(none), Err(PemError::Protocol(_))));
        let short = fold::<_, 1>(&mut net, pk, &[0, 1], 2, "fold", Topology::Ring, Vec::new());
        assert!(matches!(block_on(short), Err(PemError::Protocol(_))));
    }

    #[test]
    fn a_replayed_or_misrouted_frame_is_not_folded_in() {
        let keys = KeyDirectory::generate(1, 128, 5).expect("keys");
        // Star over three members: the sink hears all three. A second
        // copy of member 0's frame would otherwise stand in for member
        // 2's and close the fold on the wrong sum.
        let replay = FaultPlan::new().inject("fold", 0, FaultKind::Duplicate);
        let mut net = SimNetwork::new(4).with_faults(replay);
        let err = run::<1>(&mut net, &keys, 3, Topology::Star).expect_err("replayed");
        assert!(matches!(err, PemError::Protocol(_)), "{err}");
        // Tree of seven, fan-in 3: node 1 hears 4..=6, never member 2. A
        // stray frame from 2, queued before the fold runs, is its first.
        let mut net = SimNetwork::new(8);
        net.send(PartyId(2), PartyId(1), "fold", Vec::new())
            .expect("stray");
        let err = run::<1>(&mut net, &keys, 7, Topology::Tree { fanin: 3 }).expect_err("stray");
        assert!(matches!(err, PemError::Protocol(_)), "{err}");
    }
}
