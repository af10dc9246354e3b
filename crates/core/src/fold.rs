//! The one aggregation walk, and the one receive rule every protocol
//! message obeys.
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
//! parent: one message per member in every shape.
//!
//! What callers own: the members' tuples arrive **already encrypted**,
//! each by its member from its own stream, and what happens at the sink
//! — the fold ends by handing over the validated product and the
//! arrival time of the closing message.
//!
//! # Receiving
//!
//! The paper's channels are authenticated (§II-B): every frame comes
//! from a party its receiver knows. Every receive of Protocols 2–4 and
//! of the coupling round is one [`gather`] — a fold node's children, the
//! comparison's peer, the decryptor's ratio requests, a settlement
//! counterparty, the coordinator's claims — so one rule holds on every
//! shape: a frame from a party the receiver does not expect is a fatal
//! [`PemError::Protocol`], a second frame from an expected sender is the
//! retryable [`NetError::Unread`], and a missing one is the transport's
//! [`NetError::Empty`]. [`gather`] yields before each receive, so a
//! trading window on the executor advances one receive per poll, and
//! [`block_on`](pem_fabric::block_on) runs it to completion anywhere
//! else. Every one-to-many message (the market bit, `p*`, `Enc(E_b)`,
//! the ratio vector, the corridor, the transfer legs) is an
//! [`Announcement`]: each recipient gathers its frame, decodes it in
//! full and checks it against the announcer's. A window or a coupling
//! round then ends on [`expect_drained`]: nothing may be left queued.

use pem_crypto::paillier::{Ciphertext, PublicKey};
use pem_fabric::yield_now;
use pem_net::wire::{WireReader, WireWriter};
use pem_net::{Envelope, NetError, PartyId, Transport};
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
    /// The positions each position (and, at `m`, the sink) hears from.
    children: Vec<Vec<usize>>,
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
    let mut children = vec![Vec::new(); m + 1];
    for (pos, &p) in parent.iter().enumerate() {
        children[p].push(pos);
    }
    let mut order: Vec<usize> = (0..m).collect();
    if descending {
        order.reverse();
    }
    let (mut visit, leaves): (Vec<usize>, Vec<usize>) = order
        .into_iter()
        .partition(|&pos| !children[pos].is_empty());
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
/// The leaves send first. Then each visited node [`gather`]s its
/// children's frames and forwards the product to its parent. Every
/// frame is decoded and each of its ciphertexts validated under `pk`.
/// Returns the sink's `K`-tuple (each ciphertext the product of that
/// column over all members) and the arrival time (µs) of the message
/// that closed the fold.
///
/// # Errors
///
/// [`PemError::Protocol`] if there are no members or `tuples` does not
/// hold one tuple per member; [`gather`]'s errors; decode and
/// validation failures.
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
    let party = |pos: usize| members.get(pos).copied().unwrap_or(sink);
    let send = |net: &mut T, pos: usize, tuple: &[Ciphertext; K]| {
        let frame = WireWriter::frame(|w| tuple.iter().for_each(|c| w.put_biguint(c.as_biguint())));
        let (from, to) = (party(pos), party(layout.parent[pos]));
        net.send(PartyId(from), PartyId(to), label, frame)
    };
    let mut own: Vec<Option<[Ciphertext; K]>> = tuples.into_iter().map(Some).collect();
    for &leaf in &layout.leaves {
        if let Some(tuple) = own[leaf].take() {
            send(net, leaf, &tuple)?;
        }
    }
    let mut arrival = 0;
    for &node in &layout.visit {
        // The sink has no tuple of its own until its first message.
        let mut acc = own.get_mut(node).and_then(Option::take);
        let children = layout.children[node]
            .iter()
            .map(|&child| (party(child), ()));
        gather(net, party(node), label, children, |_, env, ()| {
            let incoming = decode::<K>(pk, &env.payload)?;
            acc = Some(match acc.take() {
                None => incoming,
                Some(acc) => std::array::from_fn(|i| pk.add_ciphertexts(&acc[i], &incoming[i])),
            });
            arrival = env.arrival_us;
            Ok(())
        })
        .await?;
        let acc = acc.ok_or(PemError::Protocol("fold node heard nothing"))?;
        if node == m {
            return Ok((acc, arrival));
        }
        send(net, node, &acc)?;
    }
    Err(PemError::Protocol("fold layout has no sink"))
}

/// Receives party `at`'s `label` frames: exactly one from each party of
/// `senders`, in any order. Each frame is handed to `each`, with the
/// value its sender was paired with, as it arrives — so whatever `at`
/// sends in answer departs at that frame's arrival. Yields before each
/// receive; after the last frame nothing more may be queued under
/// `(at, label)`.
///
/// # Errors
///
/// A frame from a party outside `senders` is [`PemError::Protocol`]; a
/// second frame from an expected sender, before or after the last
/// expected one, is the retryable [`NetError::Unread`]; a missing frame
/// is the transport's [`NetError::Empty`]. Errors of `each` pass
/// through.
pub async fn gather<T: Transport, V>(
    net: &mut T,
    at: usize,
    label: &'static str,
    senders: impl IntoIterator<Item = (usize, V)>,
    mut each: impl FnMut(&mut T, Envelope, V) -> Result<(), PemError>,
) -> Result<(), PemError> {
    let mut expected: Vec<(usize, Option<V>)> =
        senders.into_iter().map(|(p, v)| (p, Some(v))).collect();
    let mut left = expected.len();
    loop {
        if left > 0 {
            yield_now().await;
        }
        // Once every expected frame is in, only an empty queue ends it.
        let env = match net.recv_expect(PartyId(at), label) {
            Err(NetError::Empty { .. }) if left == 0 => return Ok(()),
            received => received?,
        };
        let Some((_, slot)) = expected.iter_mut().find(|(p, _)| *p == env.from.0) else {
            return Err(PemError::Protocol("a frame from an unexpected sender"));
        };
        // An expected sender heard before: a replay.
        let value = slot.take().ok_or(NetError::Unread { party: at, label })?;
        left -= 1;
        each(net, env, value)?;
    }
}

/// [`gather`]s `at`'s one `label` frame, from `from`.
///
/// # Errors
///
/// As [`gather`].
pub async fn recv_from<T: Transport>(
    net: &mut T,
    at: usize,
    from: usize,
    label: &'static str,
) -> Result<Envelope, PemError> {
    let mut heard = None;
    gather(net, at, label, [(from, ())], |_, env, ()| {
        heard = Some(env);
        Ok(())
    })
    .await?;
    heard.ok_or(PemError::Protocol("gather returned without the frame"))
}

/// One party's announcement: a frame to each of its recipients, sent by
/// [`send`](Announcement::send) and read by [`hear`](Announcement::hear).
/// The two halves are apart only where a recipient must not read before
/// the announcer's later sends (the coupling round's corridor).
#[derive(Debug)]
#[must_use = "an announcement must be heard"]
pub struct Announcement {
    from: usize,
    label: &'static str,
    /// Each recipient and the frame sent to it, in send order.
    frames: Vec<(usize, Vec<u8>)>,
}

impl Announcement {
    /// `from` sends each recipient its frame, in the order given.
    ///
    /// # Errors
    ///
    /// Transport send failures.
    pub fn send<T: Transport>(
        net: &mut T,
        from: usize,
        label: &'static str,
        frames: impl IntoIterator<Item = (usize, Vec<u8>)>,
    ) -> Result<Announcement, PemError> {
        let frames: Vec<(usize, Vec<u8>)> = frames.into_iter().collect();
        for (to, frame) in &frames {
            net.send(PartyId(from), PartyId(*to), label, frame.clone())?;
        }
        Ok(Announcement {
            from,
            label,
            frames,
        })
    }

    /// Each recipient, in send order, [`gather`]s its one frame, decodes
    /// it in full with `decode` (the frame must end where the value
    /// does) and checks that it is, byte for byte, the frame the
    /// announcer sent it: the announcer writes each value one way only,
    /// so the value is the announcer's bit for bit. Returns each
    /// recipient's decoded copy, in send order, and the arrival (µs) of
    /// the last frame.
    ///
    /// # Errors
    ///
    /// [`gather`]'s errors; `decode`'s and trailing-byte failures;
    /// [`PemError::Protocol`] if a frame is not the one sent.
    pub async fn hear<T: Transport, V>(
        self,
        net: &mut T,
        mut decode: impl FnMut(&mut WireReader<'_>) -> Result<V, PemError>,
    ) -> Result<(Vec<V>, u64), PemError> {
        let mut copies = Vec::with_capacity(self.frames.len());
        let mut last_arrival = 0;
        for (to, sent) in &self.frames {
            let env = recv_from(net, *to, self.from, self.label).await?;
            copies.push(WireReader::frame(&env.payload, &mut decode)?);
            if env.payload != *sent {
                return Err(PemError::Protocol("a frame not as announced"));
            }
            last_arrival = env.arrival_us;
        }
        Ok((copies, last_arrival))
    }
}

/// The end of every window and coupling round: each frame was gathered,
/// so one still queued anywhere — a replay or a stray under a label its
/// receiver never reads — is [`NetError::Unread`].
///
/// # Errors
///
/// [`NetError::Unread`] naming the first such frame's party and label.
pub fn expect_drained<T: Transport>(net: &mut T) -> Result<(), NetError> {
    match (0..net.party_count()).find_map(|p| net.recv(PartyId(p))) {
        Some(Envelope { to, label, .. }) => Err(NetError::Unread { party: to.0, label }),
        None => Ok(()),
    }
}

/// Decodes `K` minimal-length integers, validates each as a ciphertext
/// under the sink's key, and rejects a frame that carries more.
fn decode<const K: usize>(pk: &PublicKey, payload: &[u8]) -> Result<[Ciphertext; K], PemError> {
    let tuple: Vec<Ciphertext> = WireReader::frame(payload, |r| {
        (0..K).map(|_| read_ciphertext(pk, r)).collect()
    })?;
    // Arrays have no fallible constructor; the length always matches.
    tuple
        .try_into()
        .map_err(|_| PemError::Protocol("fold tuple width"))
}

/// Reads one ciphertext and validates it under `pk`.
///
/// # Errors
///
/// Decode and validation failures.
pub fn read_ciphertext(pk: &PublicKey, r: &mut WireReader<'_>) -> Result<Ciphertext, PemError> {
    let ct = Ciphertext::from_biguint(r.get_biguint()?);
    pk.validate_ciphertext(&ct)?;
    Ok(ct)
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
            // Only frames count: the empty probe after a gather's last
            // frame is no receive.
            let env = self.inner.recv_expect(to, label)?;
            self.heard[to.0] += 1;
            Ok(env)
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
        let fanin = |l: &Layout| l.children.iter().map(Vec::len).collect::<Vec<_>>();
        assert_eq!(fanin(&tree), [3, 3, 0, 0, 0, 0, 0, 1]);
        assert_eq!(tree.children[1], [4, 5, 6]);
        assert_eq!(tree.visit, [1, 0, 7]);
        assert_eq!(tree.leaves, [6, 5, 4, 3, 2]);
        assert_eq!(tree.parent, [7, 0, 0, 0, 1, 1, 1]);
        // A fan-in below 2 is the binary tree, and a ragged last level
        // leaves its parent with fewer children.
        let tree = layout(4, Topology::Tree { fanin: 1 });
        assert_eq!(fanin(&tree), [2, 1, 0, 0, 1]);
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
        // A second copy of member 0's frame would otherwise stand in for
        // a sibling's and close the fold on the wrong sum. A replay is
        // the retryable `Unread` in every shape: on the ring it is still
        // queued when position 1 has heard its one child; on the star
        // the sink meets it before member 2's frame.
        for topology in SHAPES {
            let replay = FaultPlan::new().inject("fold", 0, FaultKind::Duplicate);
            let mut net = SimNetwork::new(4).with_faults(replay);
            let err = run::<1>(&mut net, &keys, 3, topology).expect_err("replayed");
            assert!(
                matches!(err, PemError::Net(NetError::Unread { label: "fold", .. })),
                "{topology}: {err}"
            );
            assert!(err.is_retryable(), "{topology}: {err}");
        }
        // Tree of seven, fan-in 3: node 1 hears 4..=6, never member 2. A
        // stray frame from 2, queued before the fold runs, is its first.
        let mut net = SimNetwork::new(8);
        net.send(PartyId(2), PartyId(1), "fold", Vec::new())
            .expect("stray");
        let err = run::<1>(&mut net, &keys, 7, Topology::Tree { fanin: 3 }).expect_err("stray");
        assert!(matches!(err, PemError::Protocol(_)), "{err}");
    }
}
