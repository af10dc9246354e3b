//! **Protocol 2 — Private Market Evaluation.**
//!
//! Decides whether the window is a *general* (`E_s < E_b`) or *extreme*
//! (`E_s ≥ E_b`) market without revealing either total:
//!
//! 1. A random seller `H_r1` and a random buyer `H_r2` are chosen.
//! 2. **Demand round**: a fold on `cfg.topology` (the paper's ring by
//!    default) over all buyers then all other sellers aggregates
//!    `Enc_{pk_r1}(Σ_j (|sn_j| + r_j) + Σ_{i≠r1} r_i)` at `H_r1`, which
//!    folds in its own nonce and decrypts the masked total `R_b`.
//! 3. **Supply round** (roles swapped, same nonces): `H_r2` obtains
//!    `R_s = Σ_i (sn_i + r_i) + Σ_j r_j`. The two rounds run
//!    concurrently.
//! 4. Because both totals carry the *same* nonce sum,
//!    `R_s < R_b ⇔ E_s < E_b`, and `|R_s − R_b| = |E_s − E_b|` is below
//!    a public bound; `H_r2` (garbler) and `H_r1` (evaluator) run the
//!    garbled-circuit comparison of `pem-circuit` on their totals' low
//!    bits alone (the wrapped comparator), and `H_r1`
//!    announces the one-bit outcome, which every party decodes and
//!    checks. The comparison's first message, the OT setup, depends on
//!    nothing in the window: `H_r2` sends it when the window opens, so
//!    it travels during the folds, and after them the comparison costs
//!    two hops — `H_r1`'s OT requests and `H_r2`'s transfer of the
//!    garbled comparator and the label corrections.
//!
//! Per Lemma 2 nobody learns anything beyond that bit: the folding
//! parties see only ciphertexts, and the masked totals are uniformly
//! random in the nonce range.
//!
//! Each round is a synchronous step that encrypts its terms — each party
//! from its own stream for the round's label — and an `async` fold over
//! [`crate::fold`] that yields before each receive. The two rounds are
//! independent (different collectors, different keys, every term
//! encrypted before the first send), so `masked_totals` encrypts both
//! and runs the two folds concurrently in lockstep: the window pays one
//! fold's depth on the virtual clock, not two. The
//! comparison and the announcement are strict request/response; like
//! every receive, each of theirs is a [`crate::fold::gather`] that
//! yields first. The trading window (`crate::fabric_window`) is the
//! only caller of `evaluate`, which runs all four steps.

use std::cell::RefCell;

use pem_bignum::BigUint;
use pem_circuit::compare::{
    chunk_bits, corrections_per_chunk, CompareEvaluator, CompareGarbler, CompareOtRequests,
    CompareSetup, CompareTransfer, OT_CHUNK_BITS,
};
use pem_circuit::garble::{GarbledCircuit, Label};
use pem_circuit::{wrapped_comparator_circuit, CircuitError};
use pem_crypto::drbg::HashDrbg;
use pem_crypto::ot::{Group, OtGroup, OtReceiverReply, OtSenderSetup};
use pem_crypto::paillier::Ciphertext;
use pem_fabric::try_join;
use pem_net::wire::{WireReader, WireWriter};
use pem_net::{Envelope, NetError, NetStats, PartyId, Transport};
use pem_telemetry::Span;

use crate::agents::Coalition;
use crate::error::PemError;
use crate::fold::{fold, recv_from, Announcement, Topology};
use crate::keys::KeyDirectory;
use crate::quantize::compare_input;

/// One of Protocol 2's nonce-masked folds with every term encrypted:
/// demand toward `H_r1` or supply toward `H_r2`. The chain is the value
/// holders first, then the masking coalition minus the collector.
/// `value_holders` contribute `|sn| + nonce`, `maskers` only their
/// nonces.
struct MaskedFold<'a> {
    keys: &'a KeyDirectory,
    topology: Topology,
    collector: usize,
    chain: Vec<usize>,
    terms: Vec<[Ciphertext; 1]>,
    /// The collector's nonce, which it adds locally after the fold.
    own_nonce: u64,
    label: &'static str,
    span: Span,
}

impl<'a> MaskedFold<'a> {
    /// The synchronous half of a round: every chain member encrypts its
    /// contribution under the collector's key from its own stream for
    /// `label`, before anything is sent.
    fn encrypt<T: Transport>(
        net: &T,
        c: &Coalition<'a>,
        collector: usize,
        value_holders: &[usize],
        maskers: &[usize],
        label: &'static str,
    ) -> Result<MaskedFold<'a>, PemError> {
        let span = Span::enter_at(label, "protocol", net.now_us());
        let pk = c.keys.public(collector);
        let mut chain: Vec<usize> = value_holders.to_vec();
        chain.extend(maskers.iter().copied().filter(|&m| m != collector));
        let mut terms = Vec::with_capacity(chain.len());
        for (pos, &member) in chain.iter().enumerate() {
            let a = &c.agents[member];
            let value = if pos < value_holders.len() {
                BigUint::from(a.sn_abs_q) + BigUint::from(a.nonce)
            } else {
                BigUint::from(a.nonce)
            };
            terms.push([pk.try_encrypt(&value, &mut c.draws.randomizer(member, label))?]);
        }
        Ok(MaskedFold {
            keys: c.keys,
            topology: c.cfg.topology,
            collector,
            chain,
            terms,
            own_nonce: c.agents[collector].nonce,
            label,
            span,
        })
    }

    /// The asynchronous half: folds the terms toward the collector in
    /// the coalition's topology (one receive per poll); the collector
    /// adds its own nonce and decrypts the masked total.
    async fn total<T: Transport>(self, net: &mut T) -> Result<u128, PemError> {
        let MaskedFold {
            keys,
            topology,
            collector,
            chain,
            terms,
            own_nonce,
            label,
            span,
        } = self;
        let pk = keys.public(collector);
        let ([received], _) = fold(net, pk, &chain, collector, label, topology, terms).await?;
        // The k = 1 shape of the fused affine update (Enc(a) ↦ Enc(a + b)).
        let total_ct = pk.affine(&received, &BigUint::one(), &BigUint::from(own_nonce));
        let total = (keys.keypair(collector).private())
            .decrypt_u128(&total_ct)
            .map_err(|_| PemError::Protocol("masked aggregate exceeded 128 bits"))?;
        span.finish_at(net.now_us());
        Ok(total)
    }
}

/// Protocol 2's two folds over `c`, `(R_b, R_s)`: demand over the
/// buyers then the sellers toward `hr1`, supply over the sellers then
/// the buyers toward `hr2`.
///
/// Every term of both folds is encrypted first, and then the two folds
/// run in lockstep ([`try_join`]), one receive of each per poll. The
/// folds are independent (different collectors, different keys, every
/// term encrypted before the first send), so each party's virtual clock
/// advances through both at once: the window pays one fold's depth, not
/// two.
///
/// # Errors
///
/// Encryption, transport and decode failures; [`PemError::Protocol`] on
/// an empty chain or a total above 128 bits.
pub(crate) async fn masked_totals<T: Transport>(
    net: &mut T,
    c: &Coalition<'_>,
    (hr1, hr2): (usize, usize),
) -> Result<(u128, u128), PemError> {
    let demand = MaskedFold::encrypt(net, c, hr1, &c.buyers, &c.sellers, "eval/demand-agg")?;
    let supply = MaskedFold::encrypt(net, c, hr2, &c.sellers, &c.buyers, "eval/supply-agg")?;
    let shared = RefCell::new(net);
    try_join(
        demand.total(&mut Shared(&shared)),
        supply.total(&mut Shared(&shared)),
    )
    .await
}

/// One transport shared by the two folds of [`masked_totals`]. Each call
/// borrows the fabric for its own duration, so neither fold holds it
/// across a yield.
struct Shared<'r, 'n, T>(&'r RefCell<&'n mut T>);

impl<T: Transport> Transport for Shared<'_, '_, T> {
    fn party_count(&self) -> usize {
        self.0.borrow().party_count()
    }

    fn send(
        &mut self,
        from: PartyId,
        to: PartyId,
        label: &'static str,
        payload: Vec<u8>,
    ) -> Result<(), NetError> {
        self.0.borrow_mut().send(from, to, label, payload)
    }

    fn recv(&mut self, to: PartyId) -> Option<Envelope> {
        self.0.borrow_mut().recv(to)
    }

    fn recv_expect(&mut self, to: PartyId, label: &'static str) -> Result<Envelope, NetError> {
        self.0.borrow_mut().recv_expect(to, label)
    }

    fn stats(&self) -> NetStats {
        self.0.borrow().stats()
    }

    fn now_us(&self) -> u64 {
        self.0.borrow().now_us()
    }

    fn fabric_id(&self) -> u64 {
        self.0.borrow().fabric_id()
    }

    fn pending(&self) -> usize {
        self.0.borrow().pending()
    }
}

/// Protocol 2 in full over `c`, `(R_b, R_s, R_s < R_b)`: `H_r1` and
/// `H_r2` are the attempt's picks among the sellers and the buyers; the
/// two folds toward them ([`masked_totals`]), the garbled-circuit
/// comparison — `H_r2` garbles over `R_s`, `H_r1` evaluates over `R_b`
/// — and `H_r1`'s announcement of the one-bit outcome to every other
/// party, each of whom decodes and checks it.
///
/// Each collector checks its whole total against the coalition's public
/// bound and then feeds only its low bits
/// ([`compare_input`]): the totals carry the same mask, so the wrapped
/// comparator reads the sign of `R_s − R_b = E_s − E_b` from the top bit
/// of their difference mod `2^w`.
///
/// The comparison's first message, the OT setup, depends on nothing in
/// the window, so `H_r2` sends it as the window opens and it travels
/// while the folds run; the comparison's own critical path is the
/// request and the transfer. Both sides compare at the width of the
/// window's public member count
/// ([`compare_width`](crate::quantize::compare_width)), which holds
/// the difference of the totals. The OT group is a handle to the profile's shared
/// context, so the comparison's one OT batch (and every later window)
/// rides one generator table; the messages are generic over it and the
/// profile is dispatched on once, here. `H_r2` garbles from its own
/// `garble` stream and `H_r1` answers from its own.
///
/// # Errors
///
/// [`PemError::Config`] if the member count's width exceeds
/// `cfg.compare_bits`; `PemError::Circuit(ValueTooWide)` for a masked
/// total at or above its bound; encryption, circuit, OT, transport and
/// decode failures.
pub(crate) async fn evaluate<T: Transport>(
    net: &mut T,
    c: &Coalition<'_>,
) -> Result<(u128, u128, bool), PemError> {
    match c.cfg.ot_profile.group() {
        OtGroup::Dh(g) => evaluate_in(net, &g, c).await,
        OtGroup::Ed25519(g) => evaluate_in(net, &g, c).await,
    }
}

/// [`evaluate`] with the OT in `group`.
async fn evaluate_in<T: Transport, G: Group>(
    net: &mut T,
    group: &G,
    c: &Coalition<'_>,
) -> Result<(u128, u128, bool), PemError>
where
    G::Element: WireElement,
{
    let hr1 = c.draws.pick("H_r1", &c.sellers);
    let hr2 = c.draws.pick("H_r2", &c.buyers);
    let width = c.cfg.window_compare_bits(c.agents.len())?;
    // The comparison's work is one span before the folds, one after.
    let setup_span = Span::enter_at("eval/compare", "protocol", net.now_us());
    let (garbler, setup) = CompareGarbler::start(width, group, &mut c.draws.garble(hr2));
    net.send(PartyId(hr2), PartyId(hr1), SETUP, encode_setup(&setup))?;
    setup_span.finish_at(net.now_us());
    let (demand, supply) = masked_totals(net, c, (hr1, hr2)).await?;

    let compare_span = Span::enter_at("eval/compare", "protocol", net.now_us());
    let setup = decode_setup(&recv_from(net, hr1, hr2, SETUP).await?.payload, width)?;
    let low_demand = compare_input(demand, c.agents.len())?;
    let (evaluator, requests) =
        CompareEvaluator::respond(&setup, low_demand, group, &mut c.draws.garble(hr1))?;
    let label = "eval/gc-ot-request";
    net.send(
        PartyId(hr1),
        PartyId(hr2),
        label,
        encode_requests(&requests),
    )?;
    let requests = decode_requests(&recv_from(net, hr2, hr1, label).await?.payload, width)?;

    let transfer = garbler.transfer(compare_input(supply, c.agents.len())?, &requests)?;
    let label = "eval/gc-ot-transfer";
    net.send(
        PartyId(hr2),
        PartyId(hr1),
        label,
        encode_transfer(&transfer),
    )?;
    let transfer = decode_transfer(&recv_from(net, hr1, hr2, label).await?.payload, width)?;
    let general_market = evaluator.finish(&transfer)?;
    compare_span.finish_at(net.now_us());

    // The market case is one public bit, per the paper.
    let bit = WireWriter::frame(|w| w.put_bool(general_market));
    let others = (0..net.party_count()).filter(|&i| i != hr1);
    let result = Announcement::send(net, hr1, "eval/result", others.map(|i| (i, bit.clone())))?;
    result.hear(net, |r| Ok(r.get_bool()?)).await?;
    Ok((demand, supply, general_market))
}

/// The label of the comparison's first message, the OT setup.
const SETUP: &str = "eval/gc-offer";

/// The three frames of one `width`-bit comparison of 0 with 0 in
/// `group`, as Protocol 2 encodes them: the bytes of `eval/gc-offer`,
/// `eval/gc-ot-request` and `eval/gc-ot-transfer`. On edwards25519 each
/// is a function of `width` alone; in `Z_p*` a group element with a
/// leading zero byte is one byte shorter.
///
/// # Errors
///
/// Circuit and OT failures (none for a width in `1..=128`).
pub fn frame_bytes(width: usize, group: &OtGroup) -> Result<[usize; 3], PemError> {
    fn frames<G: Group>(width: usize, group: &G) -> Result<[usize; 3], PemError>
    where
        G::Element: WireElement,
    {
        let mut rng = HashDrbg::new(b"pem-frame-bytes");
        let (garbler, setup) = CompareGarbler::start(width, group, &mut rng);
        let (_, requests) = CompareEvaluator::respond(&setup, 0, group, &mut rng)?;
        let transfer = garbler.transfer(0, &requests)?;
        Ok([
            encode_setup(&setup).len(),
            encode_requests(&requests).len(),
            encode_transfer(&transfer).len(),
        ])
    }
    match group {
        OtGroup::Dh(g) => frames(width, g),
        OtGroup::Ed25519(g) => frames(width, g),
    }
}

// --- Wire encodings for the comparison messages ------------------------
//
// Every count on the wire is implied by the agreed comparison width, so
// a decoder checks each against the width *before* allocating for it,
// fixed-size fields (labels, branch ciphertexts) carry no length, and a
// frame must end where its last field does.

/// Reads a width or count and rejects anything but the agreed one.
fn expect_varint(
    r: &mut WireReader<'_>,
    agreed: usize,
    what: &'static str,
) -> Result<(), PemError> {
    if r.get_varint()? != agreed as u64 {
        return Err(CircuitError::MalformedGarbling(what).into());
    }
    Ok(())
}

/// How an OT group's elements cross the wire: a `Z_p*` element as a
/// length-prefixed integer, an edwards25519 point as its 32 raw bytes.
trait WireElement: Sized {
    fn put(&self, w: &mut WireWriter);
    fn get(r: &mut WireReader<'_>) -> Result<Self, PemError>;
}

impl WireElement for BigUint {
    fn put(&self, w: &mut WireWriter) {
        w.put_biguint(self);
    }

    fn get(r: &mut WireReader<'_>) -> Result<BigUint, PemError> {
        Ok(r.get_biguint()?)
    }
}

impl WireElement for [u8; 32] {
    fn put(&self, w: &mut WireWriter) {
        w.put_raw(self);
    }

    fn get(r: &mut WireReader<'_>) -> Result<[u8; 32], PemError> {
        let width = CircuitError::MalformedGarbling("point width");
        Ok(r.get_raw(32)?.try_into().map_err(|_| width)?)
    }
}

fn get_label(r: &mut WireReader<'_>) -> Result<Label, PemError> {
    let width = CircuitError::MalformedGarbling("label width");
    Ok(Label(r.get_raw(16)?.try_into().map_err(|_| width)?))
}

/// The setup: `width | A` — one byte and `A` at widths below 128.
fn encode_setup<G: Group>(setup: &CompareSetup<G>) -> Vec<u8>
where
    G::Element: WireElement,
{
    let mut w = WireWriter::new();
    w.put_varint(setup.width as u64);
    setup.ot_setup.big_a.put(&mut w);
    w.finish()
}

fn decode_setup<G: Group>(payload: &[u8], width: usize) -> Result<CompareSetup<G>, PemError>
where
    G::Element: WireElement,
{
    WireReader::frame(payload, |r| {
        expect_varint(r, width, "offer width is not the agreed width")?;
        let big_a = G::Element::get(r)?;
        Ok(CompareSetup {
            width,
            ot_setup: OtSenderSetup { big_a },
        })
    })
}

/// Reads `count` pairs of labels, the count checked by the caller.
fn get_label_pairs(r: &mut WireReader<'_>, count: usize) -> Result<Vec<[Label; 2]>, PemError> {
    (0..count)
        .map(|_| Ok([get_label(r)?, get_label(r)?]))
        .collect()
}

/// The requests: `chunks | chunks × B`.
fn encode_requests<G: Group>(requests: &CompareOtRequests<G>) -> Vec<u8>
where
    G::Element: WireElement,
{
    let mut w = WireWriter::new();
    w.put_varint(requests.replies.len() as u64);
    for reply in &requests.replies {
        reply.big_b.put(&mut w);
    }
    w.finish()
}

fn decode_requests<G: Group>(payload: &[u8], width: usize) -> Result<CompareOtRequests<G>, PemError>
where
    G::Element: WireElement,
{
    WireReader::frame(payload, |r| {
        let chunks = width.div_ceil(OT_CHUNK_BITS);
        expect_varint(r, chunks, "OT reply count mismatch")?;
        let replies = (0..chunks)
            .map(|_| G::Element::get(r).map(|big_b| OtReceiverReply { big_b }))
            .collect::<Result<_, _>>()?;
        Ok(CompareOtRequests { replies })
    })
}

/// The transfer: `width | w − 1 | (w − 1) × [T_G, T_E] | 1 | [H'(O⁰),
/// H'(O¹)] | chunks | corrections` — `4 + 32(w − 1) + 32` bytes at
/// widths below 128 and 16 per correction: 96 per 2-bit chunk, 16 for a
/// 1-bit tail.
fn encode_transfer(transfer: &CompareTransfer) -> Vec<u8> {
    let mut w = WireWriter::new();
    w.put_varint(transfer.width as u64);
    w.put_varint(transfer.garbled.and_tables().len() as u64);
    for row in transfer.garbled.and_tables().iter().flatten() {
        w.put_raw(&row.0);
    }
    w.put_varint(transfer.garbled.output_hashes().len() as u64);
    for hash in transfer.garbled.output_hashes().iter().flatten() {
        w.put_raw(&hash.0);
    }
    w.put_varint(transfer.corrections.len() as u64);
    for label in transfer.corrections.iter().flatten() {
        w.put_raw(&label.0);
    }
    w.finish()
}

fn decode_transfer(payload: &[u8], width: usize) -> Result<CompareTransfer, PemError> {
    WireReader::frame(payload, |r| {
        expect_varint(r, width, "transfer width is not the agreed width")?;
        // The comparator topology is public: rebuild it locally.
        let circuit = wrapped_comparator_circuit(width);
        expect_varint(r, circuit.and_count(), "AND table count mismatch")?;
        let and_tables = get_label_pairs(r, circuit.and_count())?;
        let outputs = circuit.outputs().len();
        expect_varint(r, outputs, "output hash count mismatch")?;
        let output_hashes = get_label_pairs(r, outputs)?;
        let chunks = width.div_ceil(OT_CHUNK_BITS);
        expect_varint(r, chunks, "correction chunk count mismatch")?;
        let corrections = (0..chunks)
            .map(|chunk| {
                // One label per bit of each nonzero chunk value; an odd
                // width ends in a 1-bit chunk.
                (0..corrections_per_chunk(chunk_bits(width, chunk)))
                    .map(|_| get_label(r))
                    .collect()
            })
            .collect::<Result<_, _>>()?;
        Ok(CompareTransfer {
            width,
            garbled: GarbledCircuit::from_parts(circuit, and_tables, output_hashes)?,
            corrections,
        })
    })
}

#[cfg(test)]
mod tests {
    //! The trading window is the only code that sequences Protocol 2, so
    //! its behaviours are checked on whole `fast_test` windows; the
    //! lockstep folds are also checked against the same folds run one
    //! after the other.

    use super::{masked_totals, MaskedFold, Shared};
    use crate::fold::Topology;
    use crate::protocol3::{price_terms, seller_terms};
    use crate::{Coalition, Draws, KeyDirectory, Pem, PemConfig, PemWindowOutcome};
    use pem_crypto::paillier::Ciphertext;
    use pem_fabric::{block_on, try_join};
    use pem_market::{AgentWindow, MarketKind};
    use pem_net::{LatencyModel, NetStats, SimNetwork, Transport};
    use std::cell::RefCell;
    use std::ops::Range;

    /// One window on `net` over agents with the given net surpluses
    /// (sellers generate it, buyers load it).
    fn window_on(surpluses: &[f64], net: &mut SimNetwork) -> PemWindowOutcome {
        let data: Vec<AgentWindow> = surpluses
            .iter()
            .enumerate()
            .map(|(i, &s)| {
                if s >= 0.0 {
                    AgentWindow::new(i, s, 0.0, 0.0, 0.9, 25.0)
                } else {
                    AgentWindow::new(i, 0.0, -s, 0.0, 0.9, 25.0)
                }
            })
            .collect();
        Pem::new(PemConfig::fast_test(), data.len())
            .expect("setup")
            .run_window_on(net, &data)
            .expect("window")
    }

    fn window(surpluses: &[f64]) -> PemWindowOutcome {
        window_on(surpluses, &mut SimNetwork::new(surpluses.len()))
    }

    /// The masked totals `(R_b, R_s)` the window revealed to `H_r1` and
    /// `H_r2`.
    fn masked(out: &PemWindowOutcome) -> (u128, u128) {
        (
            out.revealed.masked_demand.expect("R_b"),
            out.revealed.masked_supply.expect("R_s"),
        )
    }

    #[test]
    fn detects_general_market() {
        let mut net = SimNetwork::new(4);
        let out = window_on(&[2.0, 1.0, -4.0, -3.0], &mut net); // E_s = 3 < E_b = 7
        assert_eq!(out.kind, MarketKind::General);
        assert_eq!(net.pending(), 0, "all messages consumed");
    }

    #[test]
    fn detects_extreme_market() {
        let out = window(&[5.0, 4.0, -1.0, -2.0]); // E_s = 9 ≥ E_b = 3
        assert_eq!(out.kind, MarketKind::Extreme);
    }

    #[test]
    fn masked_totals_differ_by_true_difference() {
        // R_b − R_s must equal E_b − E_s exactly (same nonce sum in both).
        let (rb, rs) = masked(&window(&[2.5, -1.25, -3.25]));
        let e_s = 2_500_000i128;
        let e_b = 4_500_000i128;
        assert_eq!(rb as i128 - rs as i128, e_b - e_s);
    }

    #[test]
    fn masked_totals_hide_raw_values() {
        let (rb, rs) = masked(&window(&[2.0, -4.0]));
        // The masked totals must include the nonce mass, i.e. exceed the
        // raw quantized totals (nonces are 40-bit, values ~21-bit).
        assert!(rb > 4_000_000);
        assert!(rs > 2_000_000);
    }

    #[test]
    fn knife_edge_equal_supply_demand_is_extreme() {
        let out = window(&[3.0, -3.0]);
        assert_eq!(
            out.kind,
            MarketKind::Extreme,
            "E_s = E_b must be extreme (III-C)"
        );
    }

    #[test]
    fn empty_coalition_rejected() {
        // A one-sided window never opens Protocol 2: no ring, no
        // comparison, nothing revealed.
        let out = window(&[1.0, 2.0]);
        assert_eq!(out.kind, MarketKind::NoMarket);
        assert_eq!(out.net.label_totals("eval/").messages, 0);
        assert_eq!(out.revealed.masked_demand, None);
    }

    #[test]
    fn two_agent_minimum_market() {
        let out = window(&[0.5, -0.75]);
        assert_eq!(out.kind, MarketKind::General);
        // One seller (H_r1) and one buyer (H_r2): each ring is a single
        // hop from the other party to its collector.
        assert_eq!(out.net.per_label["eval/demand-agg"].messages, 1);
        assert_eq!(out.net.per_label["eval/supply-agg"].messages, 1);
        assert_eq!(out.trades.len(), 1);
    }

    /// The three frames of one comparison of `a` with `b` at `width` in
    /// `group`, every party drawing from one stream seeded by `seed`.
    fn frames<G: pem_crypto::ot::Group>(
        group: &G,
        width: usize,
        (a, b): (u128, u128),
        seed: &[u8],
    ) -> [Vec<u8>; 3]
    where
        G::Element: super::WireElement,
    {
        use super::{encode_requests, encode_setup, encode_transfer};
        use pem_circuit::compare::{CompareEvaluator, CompareGarbler};
        use pem_crypto::drbg::HashDrbg;
        let mut rng = HashDrbg::new(seed);
        let (garbler, setup) = CompareGarbler::start(width, group, &mut rng);
        let (_, requests) = CompareEvaluator::respond(&setup, b, group, &mut rng).expect("respond");
        let transfer = garbler.transfer(a, &requests).expect("transfer");
        [
            encode_setup(&setup),
            encode_requests(&requests),
            encode_transfer(&transfer),
        ]
    }

    /// Each frame of `frames` against its width formula, round-tripped
    /// at its own width and refused at both neighbours. `element` is the
    /// wire length of one group element.
    fn check_frames<G: pem_crypto::ot::Group>(
        group: &G,
        width: usize,
        element: impl Fn(&G::Element) -> usize,
    ) -> usize
    where
        G::Element: super::WireElement,
    {
        use super::{
            decode_requests, decode_setup, decode_transfer, encode_requests, encode_setup,
            encode_transfer,
        };
        let [setup, requests, transfer] = frames(group, width, (1, 0), b"frame-formulas");
        let decoded_setup = decode_setup::<G>(&setup, width).expect("setup decodes");
        let decoded_requests = decode_requests::<G>(&requests, width).expect("requests decode");
        let decoded_transfer = decode_transfer(&transfer, width).expect("transfer decodes");
        let chunks = width.div_ceil(2);
        // A one-byte width and `A`; a count and one `B` per chunk; four
        // one-byte counts, two 16-byte rows per AND (`w − 1` of them),
        // the output's 32-byte hash pair, three corrections of two labels
        // per 2-bit chunk and one label for a 1-bit tail.
        let expected = [
            1 + element(&decoded_setup.ot_setup.big_a),
            1 + (decoded_requests.replies.iter())
                .map(|reply| element(&reply.big_b))
                .sum::<usize>(),
            4 + 32 * (width - 1) + 32 + 96 * (width / 2) + 16 * (width % 2),
        ];
        let case = format!("{group:?} at width {width}");
        let lengths = [setup.len(), requests.len(), transfer.len()];
        assert_eq!(lengths, expected, "{case}: frame lengths");
        assert_eq!(decoded_requests.replies.len(), chunks, "{case}");
        assert_eq!(
            encode_setup(&decoded_setup),
            setup,
            "{case}: setup round trip"
        );
        assert_eq!(
            encode_requests(&decoded_requests),
            requests,
            "{case}: requests round trip"
        );
        assert_eq!(
            encode_transfer(&decoded_transfer),
            transfer,
            "{case}: transfer round trip"
        );
        for neighbour in [width - 1, width + 1].into_iter().filter(|&w| w > 0) {
            assert!(
                decode_setup::<G>(&setup, neighbour).is_err(),
                "{case}: setup at {neighbour}"
            );
            assert!(
                decode_requests::<G>(&requests, neighbour).is_err()
                    || neighbour.div_ceil(2) == chunks,
                "{case}: requests at {neighbour}"
            );
            assert!(
                decode_transfer(&transfer, neighbour).is_err(),
                "{case}: transfer at {neighbour}"
            );
        }
        lengths.iter().sum()
    }

    #[test]
    fn comparison_frames_follow_their_width_formulas() {
        // The wire contract of `eval/gc-offer`, `eval/gc-ot-request` and
        // `eval/gc-ot-transfer`: a `Z_p*` element is a length-prefixed
        // minimal integer, a curve point its 32 raw bytes. The request
        // frame carries only its chunk count, so it is refused at a
        // neighbouring width exactly when that width has another count.
        use pem_crypto::ot::{DhGroup, Ed25519};
        use pem_net::wire::WireWriter;
        let dh = DhGroup::test_192();
        let dh_element = |e: &pem_bignum::BigUint| {
            let mut w = WireWriter::new();
            w.put_biguint(e);
            w.finish().len()
        };
        for width in [1usize, 2, 5, 37, 39, 49, 63, 64] {
            check_frames(&dh, width, dh_element);
            let total = check_frames(&Ed25519, width, |_| 32);
            if width == 37 {
                // Twelve members' comparison at the paper profiles: 33 +
                // 609 + 2,932 bytes (4,566 when it covered the whole
                // 47-bit masked totals).
                assert_eq!(total, 3_574, "edwards25519 at 37 bits");
            }
        }
    }

    #[test]
    fn setup_and_request_frames_do_not_depend_on_the_garbler_value() {
        // The setup goes out before the garbler knows its value: under the
        // same draws, two garbler values give byte-identical setup and
        // request frames; only the transfer differs.
        use pem_crypto::ot::{DhGroup, Ed25519};
        for width in [5usize, 37] {
            let seed = b"garbler-value";
            let dh = (
                frames(&DhGroup::test_192(), width, (3, 9), seed),
                frames(&DhGroup::test_192(), width, (17, 9), seed),
            );
            let ed = (
                frames(&Ed25519, width, (3, 9), seed),
                frames(&Ed25519, width, (17, 9), seed),
            );
            for (group, (one, other)) in [("test192", dh), ("edwards25519", ed)] {
                assert_eq!(one[0], other[0], "{group} at {width}: setup");
                assert_eq!(one[1], other[1], "{group} at {width}: requests");
                assert_ne!(one[2], other[2], "{group} at {width}: transfer");
            }
        }
    }

    #[test]
    fn curve_points_cross_the_wire_as_32_raw_bytes() {
        // At `paper(512)` the comparison runs on edwards25519: `A` and
        // every chunk's `B` are 32 bytes with no length prefix.
        use crate::quantize::compare_width;
        let data: Vec<AgentWindow> = [2.0, 1.0, -4.0, -3.0]
            .iter()
            .enumerate()
            .map(|(i, &s): (usize, &f64)| {
                AgentWindow::new(i, s.max(0.0), (-s).max(0.0), 0.0, 0.9, 25.0)
            })
            .collect();
        let out = Pem::new(PemConfig::paper(512), data.len())
            .expect("setup")
            .run_window(&data)
            .expect("window");
        assert_eq!(out.kind, MarketKind::General);
        let width = compare_width(data.len());
        let chunks = width.div_ceil(2);
        let labels = &out.net.per_label;
        assert_eq!(labels["eval/gc-offer"].bytes, 1 + 32);
        assert_eq!(labels["eval/gc-ot-request"].bytes, (1 + 32 * chunks) as u64);
        let transfer = 4 + 32 * (width - 1) + 32 + 96 * (width / 2) + 16 * (width % 2);
        assert_eq!(labels["eval/gc-ot-transfer"].bytes, transfer as u64);
        let frames = super::frame_bytes(width, &pem_crypto::ot::Ed25519.into()).expect("frames");
        assert_eq!(frames, [33, 1 + 32 * chunks, transfer]);
    }

    #[test]
    fn bandwidth_is_recorded_per_phase() {
        let out = window(&[2.0, 1.0, -4.0, -3.0]);
        let labels = &out.net.per_label;
        for label in [
            "eval/demand-agg",
            "eval/supply-agg",
            "eval/gc-offer",
            "eval/result",
        ] {
            assert!(labels.contains_key(label), "missing {label}");
        }
        // The garbled transfer dominates: tables and corrections.
        assert!(labels["eval/gc-ot-transfer"].bytes > labels["eval/demand-agg"].bytes);
        // Every label sits under its phase's prefix, so the prefixes
        // split the window's traffic exactly.
        let phases: u64 = ["eval/", "price/", "dist/"]
            .iter()
            .map(|p| out.net.label_totals(p).bytes)
            .sum();
        assert_eq!(phases, out.net.total_bytes);
    }

    /// The coalition over `keys` under `draws` in which `sellers` sell
    /// and `buyers` buy `0.25 + i` kWh each; every other party is off
    /// the market.
    fn coalition<'a>(
        cfg: &'a PemConfig,
        keys: &'a KeyDirectory,
        draws: Draws,
        (sellers, buyers): (Range<usize>, Range<usize>),
    ) -> Coalition<'a> {
        let data: Vec<AgentWindow> = (0..keys.len())
            .map(|i| {
                let e = 0.25 + i as f64;
                let (generation, load) = match (sellers.contains(&i), buyers.contains(&i)) {
                    (true, _) => (e, 0.0),
                    (_, true) => (0.0, e),
                    _ => (0.0, 0.0),
                };
                AgentWindow::new(i, generation, load, 0.0, 0.9, 25.0)
            })
            .collect();
        Coalition::new(cfg, keys, draws, &data).expect("coalition")
    }

    #[test]
    fn joined_rings_match_sequential_rings_on_a_shorter_clock() {
        // Sellers are parties 0..s, buyers 6..6 + b, on one directory of
        // twelve.
        let cfg = PemConfig::fast_test();
        let keys = KeyDirectory::generate(12, cfg.key_bits, cfg.seed).expect("keys");
        let fresh = || SimNetwork::with_latency(12, LatencyModel::lan());
        // Every shape, every coalition split: the join must not care how
        // many frames are in flight toward one party.
        let shapes = [
            Topology::Ring,
            Topology::Star,
            Topology::Tree { fanin: 2 },
            Topology::Tree { fanin: 3 },
        ];
        for topology in shapes {
            let cfg = cfg.clone().with_topology(topology);
            for s in 1..=6 {
                for b in 1..=6 {
                    let c = coalition(&cfg, &keys, Draws::new(5, 0, 0), (0..s, 6..6 + b));
                    let (hr1, hr2) = (c.sellers[s - 1], c.buyers[0]);

                    let mut seq_net = fresh();
                    let masked = |collector, holders, maskers, label| {
                        MaskedFold::encrypt(&seq_net, &c, collector, holders, maskers, label)
                            .expect("encrypt")
                    };
                    let demand = masked(hr1, &c.buyers, &c.sellers, "eval/demand-agg");
                    let supply = masked(hr2, &c.sellers, &c.buyers, "eval/supply-agg");
                    let sequential = (
                        block_on(demand.total(&mut seq_net)).expect("demand fold"),
                        block_on(supply.total(&mut seq_net)).expect("supply fold"),
                    );

                    let mut net = fresh();
                    let joined = masked_totals(&mut net, &c, (hr1, hr2));
                    let joined = block_on(joined).expect("joined folds");

                    let case = format!("{topology}, |S| = {s}, |B| = {b}");
                    assert_eq!(joined, sequential, "{case}: masked totals");
                    assert_eq!(net.stats(), seq_net.stats(), "{case}: traffic");
                    assert_eq!(net.pending(), 0, "{case}: every frame consumed");
                    assert!(
                        net.now_us() < seq_net.now_us(),
                        "{case}: joined {} µs, sequential {} µs",
                        net.now_us(),
                        seq_net.now_us()
                    );
                }
            }
        }
    }

    /// The ciphertexts a case encrypted, its outcome and its traffic.
    type Run = (Vec<Vec<Ciphertext>>, String, NetStats);

    /// One case: its terms encrypted in the protocol's order (`false`)
    /// or a permuted one (`true`), then folded on a topology.
    type Case<'a> = (&'a str, &'a dyn Fn(Topology, bool) -> Run);

    #[test]
    fn a_permuted_encryption_order_moves_no_bit() {
        // Each party encrypts from its own stream for the label it sends
        // under, so no encryption order is a rule. Each case encrypts
        // its terms in the protocol's order and in a permuted one; both
        // must give the same ciphertexts, outcome and traffic, on the
        // ring and on the tree. (The coupling round's shards, ascending
        // against the tree's descending visit, are the same case in
        // `pem_coupling`'s round tests.)
        let cfg = PemConfig::fast_test();
        let keys = KeyDirectory::generate(8, cfg.key_bits, cfg.seed).expect("keys");
        let draws = Draws::new(cfg.seed, 3, 1);
        let fresh = || SimNetwork::with_latency(8, LatencyModel::lan());
        let on = |topology| cfg.clone().with_topology(topology);
        // Protocol 2: the demand fold's terms first, or the supply
        // fold's; then the two folds joined as `masked_totals` joins
        // them.
        let supply_first = |topology: Topology, permuted: bool| -> Run {
            let cfg = on(topology);
            let c = coalition(&cfg, &keys, draws, (0..4, 4..8));
            let (hr1, hr2) = (c.sellers[1], c.buyers[2]);
            let mut net = fresh();
            let masked = |collector, holders, maskers, label| {
                MaskedFold::encrypt(&net, &c, collector, holders, maskers, label).expect("encrypt")
            };
            let (demand, supply) = if permuted {
                let supply = masked(hr2, &c.sellers, &c.buyers, "eval/supply-agg");
                (
                    masked(hr1, &c.buyers, &c.sellers, "eval/demand-agg"),
                    supply,
                )
            } else {
                let demand = masked(hr1, &c.buyers, &c.sellers, "eval/demand-agg");
                (
                    demand,
                    masked(hr2, &c.sellers, &c.buyers, "eval/supply-agg"),
                )
            };
            let terms = [&demand, &supply]
                .iter()
                .flat_map(|f| f.terms.iter().map(|t| t.to_vec()))
                .collect();
            let shared = RefCell::new(&mut net);
            let totals = block_on(try_join(
                demand.total(&mut Shared(&shared)),
                supply.total(&mut Shared(&shared)),
            ))
            .expect("joined folds");
            (terms, format!("{totals:?}"), net.stats())
        };
        // Protocol 3: the sellers ascending, or descending — the order
        // the tree visits them in.
        let sellers_descending = |topology: Topology, permuted: bool| -> Run {
            let cfg = on(topology);
            let c = coalition(&cfg, &keys, draws, (0..4, 4..8));
            let hb = c.buyers[0];
            let pk = keys.public(hb);
            let mut order = c.sellers.clone();
            if permuted {
                order.reverse();
            }
            let mut terms: Vec<[Ciphertext; 2]> = order
                .iter()
                .map(|&seller| seller_terms(pk, &c.agents[seller], draws).expect("encrypt"))
                .collect();
            if permuted {
                terms.reverse();
            }
            let ciphertexts = terms.iter().map(|t| t.to_vec()).collect();
            let mut net = fresh();
            let out = block_on(price_terms(&mut net, &c, hb, terms)).expect("pricing");
            (ciphertexts, format!("{out:?}"), net.stats())
        };
        let cases: [Case<'_>; 2] = [
            ("Protocol 2, supply terms first", &supply_first),
            ("Protocol 3, sellers descending", &sellers_descending),
        ];
        for (case, run) in cases {
            for topology in [Topology::Ring, Topology::tree()] {
                let (in_order, permuted) = (run(topology, false), run(topology, true));
                assert_eq!(
                    in_order.0, permuted.0,
                    "{case} on the {topology}: ciphertexts"
                );
                assert_eq!(in_order.1, permuted.1, "{case} on the {topology}: outcome");
                assert_eq!(in_order.2, permuted.2, "{case} on the {topology}: traffic");
            }
        }
    }
}
