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
//!    `R_s < R_b ⇔ E_s < E_b`; `H_r2` (garbler) and `H_r1` (evaluator)
//!    run the garbled-circuit comparison of `pem-circuit`, and `H_r1`
//!    announces the one-bit outcome, which every party decodes and
//!    checks.
//!
//! Per Lemma 2 nobody learns anything beyond that bit: the folding
//! parties see only ciphertexts, and the masked totals are uniformly
//! random in the nonce range.
//!
//! Each round is a synchronous step that encrypts its terms and an
//! `async` fold over [`crate::fold`] that yields before each receive.
//! The two rounds are independent (different collectors, different
//! keys and randomizer streams, every term encrypted before the first
//! send), so `masked_totals` encrypts both — each in chain order,
//! whatever the shape — and runs the two folds concurrently in lockstep:
//! the window pays one fold's depth on the virtual clock, not two. The
//! comparison and the announcement are strict request/response; like
//! every receive, each of theirs is a [`crate::fold::gather`] that
//! yields first. The trading window (`crate::fabric_window`) is the
//! only caller.

use std::cell::RefCell;

use pem_bignum::BigUint;
use pem_circuit::compare::{
    CompareEvaluator, CompareGarbler, CompareLabelCiphertexts, CompareOffer, CompareOtRequests,
    OT_CHUNK_BITS,
};
use pem_circuit::garble::{GarbledCircuit, Label};
use pem_circuit::{comparator_circuit, CircuitError};
use pem_crypto::drbg::HashDrbg;
use pem_crypto::ot::{OtCiphertexts, OtReceiverReply, OtSenderSetup};
use pem_crypto::paillier::Ciphertext;
use pem_fabric::try_join;
use pem_net::wire::{WireReader, WireWriter};
use pem_net::{Envelope, NetError, NetStats, PartyId, Transport};
use pem_telemetry::Span;

use crate::agents::AgentCtx;
use crate::config::PemConfig;
use crate::error::PemError;
use crate::fold::{fold, recv_from, Announcement, Topology};
use crate::keys::{encrypt_under, KeyDirectory, RandomizerStreams};

/// One of Protocol 2's nonce-masked folds with every term encrypted:
/// demand toward `H_r1` or supply toward `H_r2`. The chain is the value
/// holders first, then the masking coalition minus the collector.
/// `value_holders` contribute `|sn| + nonce`, `maskers` only their
/// nonces.
struct MaskedFold<'a> {
    keys: &'a KeyDirectory,
    collector: usize,
    chain: Vec<usize>,
    terms: Vec<[Ciphertext; 1]>,
    /// The collector's nonce, which it adds locally after the fold.
    own_nonce: u64,
    label: &'static str,
    span: Span,
}

impl<'a> MaskedFold<'a> {
    /// The synchronous half of a round: encrypts every contribution in
    /// chain order, drawing from the collector key's stream in `streams`,
    /// before anything is sent.
    #[allow(clippy::too_many_arguments)]
    fn encrypt<T: Transport>(
        net: &T,
        keys: &'a KeyDirectory,
        agents: &[AgentCtx],
        collector: usize,
        value_holders: &[usize],
        maskers: &[usize],
        label: &'static str,
        streams: &mut RandomizerStreams,
    ) -> Result<MaskedFold<'a>, PemError> {
        let span = Span::enter_at(label, "protocol", net.now_us());
        let pk = keys.public(collector);
        let mut chain: Vec<usize> = value_holders.to_vec();
        chain.extend(maskers.iter().copied().filter(|&m| m != collector));
        let mut terms = Vec::with_capacity(chain.len());
        for (pos, &member) in chain.iter().enumerate() {
            let a = &agents[member];
            let value = if pos < value_holders.len() {
                BigUint::from(a.sn_abs_q) + BigUint::from(a.nonce)
            } else {
                BigUint::from(a.nonce)
            };
            terms.push([encrypt_under(pk, collector, &value, streams)?]);
        }
        Ok(MaskedFold {
            keys,
            collector,
            chain,
            terms,
            own_nonce: agents[collector].nonce,
            label,
            span,
        })
    }

    /// The asynchronous half: folds the terms toward the collector in
    /// `topology` (one receive per poll); the collector adds its own
    /// nonce and decrypts the masked total.
    async fn total<T: Transport>(self, net: &mut T, topology: Topology) -> Result<u128, PemError> {
        let MaskedFold {
            keys,
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
        let total = keys.keypair(collector).private().decrypt(&total_ct);
        let total = total
            .to_u128()
            .ok_or(PemError::Protocol("masked aggregate exceeded 128 bits"))?;
        span.finish_at(net.now_us());
        Ok(total)
    }
}

/// Protocol 2's two folds in `topology`, `(R_b, R_s)`: demand over the
/// buyers then the sellers toward `hr1`, supply over the sellers then
/// the buyers toward `hr2`.
///
/// The demand terms are encrypted first, then the supply terms — each
/// set from its own collector's randomizer stream, so the order between
/// them moves no bit — and then the two folds run in lockstep
/// ([`try_join`]), one receive of each per poll. The folds are independent (different collectors, different
/// keys, every term encrypted before the first send), so each party's
/// virtual clock advances through both at once: the window pays one
/// fold's depth, not two.
///
/// # Errors
///
/// Encryption, transport and decode failures; [`PemError::Protocol`] on
/// an empty chain or a total above 128 bits.
#[allow(clippy::too_many_arguments)]
pub(crate) async fn masked_totals<T: Transport>(
    net: &mut T,
    keys: &KeyDirectory,
    agents: &[AgentCtx],
    (hr1, hr2): (usize, usize),
    sellers: &[usize],
    buyers: &[usize],
    topology: Topology,
    streams: &mut RandomizerStreams,
) -> Result<(u128, u128), PemError> {
    let mut masked = |collector, holders, maskers, label| {
        MaskedFold::encrypt(
            net, keys, agents, collector, holders, maskers, label, streams,
        )
    };
    let demand = masked(hr1, buyers, sellers, "eval/demand-agg")?;
    let supply = masked(hr2, sellers, buyers, "eval/supply-agg")?;
    let shared = RefCell::new(net);
    try_join(
        demand.total(&mut Shared(&shared), topology),
        supply.total(&mut Shared(&shared), topology),
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

/// The garbled-circuit comparison `R_s < R_b`: `H_r2` garbles, `H_r1`
/// evaluates, and `H_r1` announces the one-bit outcome to every other
/// party, each of whom decodes and checks it. Two-party and strictly
/// request/response; each receive is a [`recv_from`] that yields first.
/// The OT group is a handle to the profile's shared context, so the
/// comparison's one OT batch (and every later window) rides one
/// generator table.
pub(crate) async fn run_compare<T: Transport>(
    net: &mut T,
    cfg: &PemConfig,
    (hr1, hr2): (usize, usize),
    masked_demand: u128,
    masked_supply: u128,
    rng: &mut HashDrbg,
) -> Result<bool, PemError> {
    let compare_span = Span::enter_at("eval/compare", "protocol", net.now_us());
    let (group, width) = (cfg.ot_profile.group(), cfg.compare_bits);
    let (garbler, offer) = CompareGarbler::start(width, masked_supply, &group, rng)?;
    let label = "eval/gc-offer";
    net.send(PartyId(hr2), PartyId(hr1), label, encode_offer(&offer))?;
    let offer = decode_offer(&recv_from(net, hr1, hr2, label).await?.payload, width)?;

    let (evaluator, requests) = CompareEvaluator::respond(offer, masked_demand, &group, rng)?;
    let label = "eval/gc-ot-request";
    net.send(
        PartyId(hr1),
        PartyId(hr2),
        label,
        encode_requests(&requests),
    )?;
    let requests = decode_requests(&recv_from(net, hr2, hr1, label).await?.payload, width)?;

    let transfer = garbler.provide_labels(&requests)?;
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
    Ok(general_market)
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

fn get_label(r: &mut WireReader<'_>) -> Result<Label, PemError> {
    let width = CircuitError::MalformedGarbling("label width");
    Ok(Label(r.get_raw(16)?.try_into().map_err(|_| width)?))
}

/// The offer: `width | w | w × [T_G, T_E] | 1 | [H'(O⁰), H'(O¹)] | w |
/// w garbler labels | A` — `2 + 32w + 1 + 32 + 1 + 16w` bytes and `A`
/// at widths below 128.
fn encode_offer(offer: &CompareOffer) -> Vec<u8> {
    let mut w = WireWriter::new();
    w.put_varint(offer.width as u64);
    w.put_varint(offer.garbled.and_tables().len() as u64);
    for row in offer.garbled.and_tables().iter().flatten() {
        w.put_raw(&row.0);
    }
    w.put_varint(offer.garbled.output_hashes().len() as u64);
    for hash in offer.garbled.output_hashes().iter().flatten() {
        w.put_raw(&hash.0);
    }
    w.put_varint(offer.garbler_labels.len() as u64);
    for l in &offer.garbler_labels {
        w.put_raw(&l.0);
    }
    w.put_biguint(&offer.ot_setup.big_a);
    w.finish()
}

/// Reads `count` pairs of labels, the count checked by the caller.
fn get_label_pairs(r: &mut WireReader<'_>, count: usize) -> Result<Vec<[Label; 2]>, PemError> {
    (0..count)
        .map(|_| Ok([get_label(r)?, get_label(r)?]))
        .collect()
}

fn decode_offer(payload: &[u8], width: usize) -> Result<CompareOffer, PemError> {
    WireReader::frame(payload, |r| {
        expect_varint(r, width, "offer width is not the agreed width")?;
        // The comparator topology is public: rebuild it locally.
        let circuit = comparator_circuit(width);
        expect_varint(r, circuit.and_count(), "AND table count mismatch")?;
        let and_tables = get_label_pairs(r, circuit.and_count())?;
        let outputs = circuit.outputs().len();
        expect_varint(r, outputs, "output hash count mismatch")?;
        let output_hashes = get_label_pairs(r, outputs)?;
        expect_varint(r, width, "garbler label count mismatch")?;
        let garbler_labels = (0..width).map(|_| get_label(r)).collect::<Result<_, _>>()?;
        let big_a = r.get_biguint()?;
        Ok(CompareOffer {
            width,
            garbled: GarbledCircuit::from_parts(circuit, and_tables, output_hashes)?,
            garbler_labels,
            ot_setup: OtSenderSetup { big_a },
        })
    })
}

fn encode_requests(requests: &CompareOtRequests) -> Vec<u8> {
    let mut w = WireWriter::new();
    w.put_varint(requests.replies.len() as u64);
    for reply in &requests.replies {
        w.put_biguint(&reply.big_b);
    }
    w.finish()
}

fn decode_requests(payload: &[u8], width: usize) -> Result<CompareOtRequests, PemError> {
    WireReader::frame(payload, |r| {
        let chunks = width.div_ceil(OT_CHUNK_BITS);
        expect_varint(r, chunks, "OT reply count mismatch")?;
        let replies = (0..chunks)
            .map(|_| r.get_biguint().map(|big_b| OtReceiverReply { big_b }))
            .collect::<Result<_, _>>()?;
        Ok(CompareOtRequests { replies })
    })
}

fn encode_transfer(transfer: &CompareLabelCiphertexts) -> Vec<u8> {
    let mut w = WireWriter::new();
    w.put_varint(transfer.cts.len() as u64);
    for branch in transfer.cts.iter().flat_map(|ct| &ct.branches) {
        w.put_raw(branch);
    }
    w.finish()
}

fn decode_transfer(payload: &[u8], width: usize) -> Result<CompareLabelCiphertexts, PemError> {
    WireReader::frame(payload, |r| {
        let chunks = width.div_ceil(OT_CHUNK_BITS);
        expect_varint(r, chunks, "OT ciphertext count mismatch")?;
        let mut cts = Vec::with_capacity(chunks);
        for chunk in 0..chunks {
            // One branch per value of the chunk's bits, each carrying one
            // 16-byte label per bit; an odd width ends in a 1-bit chunk.
            let bits = OT_CHUNK_BITS.min(width - chunk * OT_CHUNK_BITS);
            let branches = (0..1 << bits)
                .map(|_| r.get_raw(16 * bits).map(<[u8]>::to_vec))
                .collect::<Result<_, _>>()?;
            cts.push(OtCiphertexts { branches });
        }
        Ok(CompareLabelCiphertexts { cts })
    })
}

#[cfg(test)]
mod tests {
    //! The trading window is the only code that sequences Protocol 2, so
    //! its behaviours are checked on whole `fast_test` windows; the
    //! lockstep folds are also checked against the same folds run one
    //! after the other.

    use crate::{Pem, PemConfig, PemWindowOutcome};
    use pem_market::{AgentWindow, MarketKind};
    use pem_net::{SimNetwork, Transport};

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

    #[test]
    fn offer_length_follows_the_width_formula() {
        use super::{decode_offer, encode_offer};
        use pem_circuit::compare::CompareGarbler;
        use pem_crypto::drbg::HashDrbg;
        use pem_crypto::ot::DhGroup;
        use pem_net::wire::WireWriter;

        let group = DhGroup::test_192();
        let mut rng = HashDrbg::new(b"offer-length");
        for width in [1usize, 2, 5, 63, 64, 100] {
            let (_, offer) = CompareGarbler::start(width, 1, &group, &mut rng).expect("start");
            let mut a = WireWriter::new();
            a.put_biguint(&offer.ot_setup.big_a);
            // Three one-byte counts and the width; one two-row table per
            // AND, one 32-byte hash pair for the one output, one label
            // per garbler bit.
            let expected = 4 + 32 * width + 32 + 16 * width + a.finish().len();
            let bytes = encode_offer(&offer);
            assert_eq!(bytes.len(), expected, "width {width}");
            let back = decode_offer(&bytes, width).expect("decodes at its own width");
            assert_eq!(back.garbled.and_tables(), offer.garbled.and_tables());
            assert_eq!(back.garbled.output_hashes(), offer.garbled.output_hashes());
            assert!(decode_offer(&bytes, width + 1).is_err(), "width {width}");
        }
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
        // The garbled offer dominates: tables + labels + OT setups.
        assert!(labels["eval/gc-offer"].bytes > labels["eval/demand-agg"].bytes);
        // Every label sits under its phase's prefix, so the prefixes
        // split the window's traffic exactly.
        let phases: u64 = ["eval/", "price/", "dist/"]
            .iter()
            .map(|p| out.net.label_totals(p).bytes)
            .sum();
        assert_eq!(phases, out.net.total_bytes);
    }

    #[test]
    fn joined_rings_match_sequential_rings_on_a_shorter_clock() {
        use super::{masked_totals, MaskedFold};
        use crate::config::NONCE_BITS;
        use crate::fold::Topology;
        use crate::{AgentCtx, KeyDirectory, Quantizer, RandomizerStreams};
        use pem_crypto::drbg::HashDrbg;
        use pem_fabric::block_on;
        use pem_net::LatencyModel;
        use rand::Rng;

        // Sellers are parties 0..s, buyers s..s + b, on one directory of
        // twelve.
        let cfg = PemConfig::fast_test();
        let keys = KeyDirectory::generate(12, cfg.key_bits, cfg.seed).expect("keys");
        let q = Quantizer::new();
        let mut nonces = HashDrbg::from_seed_label(b"p2-join-nonces", 1);
        let agents: Vec<AgentCtx> = (0..12)
            .map(|i| {
                let e = 0.25 + i as f64;
                let data = if i < 6 {
                    AgentWindow::new(i, e, 0.0, 0.0, 0.9, 25.0)
                } else {
                    AgentWindow::new(i, 0.0, e, 0.0, 0.9, 25.0)
                };
                let nonce = nonces.gen::<u64>() >> (64 - NONCE_BITS);
                AgentCtx::prepare(i, data, &q, nonce).expect("prepare")
            })
            .collect();
        let fresh = || {
            (
                SimNetwork::with_latency(12, LatencyModel::lan()),
                RandomizerStreams::new(keys.len(), 5),
            )
        };
        // Every shape, every coalition split: the join must not care how
        // many frames are in flight toward one party.
        let shapes = [
            Topology::Ring,
            Topology::Star,
            Topology::Tree { fanin: 2 },
            Topology::Tree { fanin: 3 },
        ];
        for topology in shapes {
            for s in 1..=6 {
                for b in 1..=6 {
                    let sellers: Vec<usize> = (0..s).collect();
                    let buyers: Vec<usize> = (6..6 + b).collect();
                    let (hr1, hr2) = (sellers[s - 1], buyers[0]);

                    let (mut seq_net, mut seq_streams) = fresh();
                    let mut masked = |collector, holders, maskers, label| {
                        let streams = &mut seq_streams;
                        MaskedFold::encrypt(
                            &seq_net, &keys, &agents, collector, holders, maskers, label, streams,
                        )
                        .expect("encrypt")
                    };
                    let demand = masked(hr1, &buyers, &sellers, "eval/demand-agg");
                    let supply = masked(hr2, &sellers, &buyers, "eval/supply-agg");
                    let sequential = (
                        block_on(demand.total(&mut seq_net, topology)).expect("demand fold"),
                        block_on(supply.total(&mut seq_net, topology)).expect("supply fold"),
                    );

                    let (mut net, mut streams) = fresh();
                    let joined = block_on(masked_totals(
                        &mut net,
                        &keys,
                        &agents,
                        (hr1, hr2),
                        &sellers,
                        &buyers,
                        topology,
                        &mut streams,
                    ))
                    .expect("joined folds");

                    let case = format!("{topology}, |S| = {s}, |B| = {b}");
                    assert_eq!(joined, sequential, "{case}: masked totals");
                    assert_eq!(net.stats(), seq_net.stats(), "{case}: traffic");
                    assert_eq!(net.pending(), 0, "{case}: every frame consumed");
                    assert_eq!(
                        format!("{streams:?}"),
                        format!("{seq_streams:?}"),
                        "{case}: streams"
                    );
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

    #[test]
    fn supply_encrypted_before_demand_moves_no_bit() {
        use super::{masked_totals, MaskedFold, Shared};
        use crate::config::NONCE_BITS;
        use crate::fold::Topology;
        use crate::{AgentCtx, KeyDirectory, Quantizer, RandomizerStreams};
        use pem_crypto::drbg::HashDrbg;
        use pem_fabric::{block_on, try_join};
        use pem_net::LatencyModel;
        use rand::Rng;
        use std::cell::RefCell;

        // Each fold's terms come from its own collector's randomizer
        // stream, so `masked_totals`' demand-first order is a choice, not
        // a constraint: encrypting the supply terms first gives the same
        // ciphertexts, totals, traffic and stream positions.
        let cfg = PemConfig::fast_test();
        let keys = KeyDirectory::generate(8, cfg.key_bits, cfg.seed).expect("keys");
        let q = Quantizer::new();
        let mut nonces = HashDrbg::from_seed_label(b"p2-order-nonces", 1);
        let agents: Vec<AgentCtx> = (0..8)
            .map(|i| {
                let e = 0.5 + i as f64;
                let data = if i < 4 {
                    AgentWindow::new(i, e, 0.0, 0.0, 0.9, 25.0)
                } else {
                    AgentWindow::new(i, 0.0, e, 0.0, 0.9, 25.0)
                };
                let nonce = nonces.gen::<u64>() >> (64 - NONCE_BITS);
                AgentCtx::prepare(i, data, &q, nonce).expect("prepare")
            })
            .collect();
        let (sellers, buyers): (Vec<usize>, Vec<usize>) = ((0..4).collect(), (4..8).collect());
        let (hr1, hr2) = (sellers[1], buyers[2]);
        for topology in [Topology::Ring, Topology::tree()] {
            let case = format!("{topology}");
            let fresh = || {
                (
                    SimNetwork::with_latency(8, LatencyModel::lan()),
                    RandomizerStreams::new(keys.len(), 3),
                )
            };
            // The two folds with their terms encrypted in either
            // order, then joined as `masked_totals` joins them.
            let in_order = |supply_first: bool| {
                let (mut net, mut streams) = fresh();
                let mut masked = |collector, holders, maskers, label| {
                    let streams = &mut streams;
                    MaskedFold::encrypt(
                        &net, &keys, &agents, collector, holders, maskers, label, streams,
                    )
                    .expect("encrypt")
                };
                let (demand, supply) = if supply_first {
                    let supply = masked(hr2, &sellers, &buyers, "eval/supply-agg");
                    (masked(hr1, &buyers, &sellers, "eval/demand-agg"), supply)
                } else {
                    let demand = masked(hr1, &buyers, &sellers, "eval/demand-agg");
                    (demand, masked(hr2, &sellers, &buyers, "eval/supply-agg"))
                };
                let terms = [&demand, &supply].map(|f| f.terms.clone());
                let shared = RefCell::new(&mut net);
                let totals = block_on(try_join(
                    demand.total(&mut Shared(&shared), topology),
                    supply.total(&mut Shared(&shared), topology),
                ))
                .expect("joined folds");
                let stats = net.stats();
                (terms, totals, stats, format!("{streams:?}"))
            };
            let demand_first = in_order(false);
            let supply_first = in_order(true);
            assert_eq!(supply_first.0, demand_first.0, "{case}: ciphertexts");
            assert_eq!(supply_first.1, demand_first.1, "{case}: masked totals");
            assert_eq!(supply_first.2, demand_first.2, "{case}: traffic");
            assert_eq!(supply_first.3, demand_first.3, "{case}: streams");

            let (mut net, mut streams) = fresh();
            let totals = block_on(masked_totals(
                &mut net,
                &keys,
                &agents,
                (hr1, hr2),
                &sellers,
                &buyers,
                topology,
                &mut streams,
            ))
            .expect("masked totals");
            assert_eq!(totals, supply_first.1, "{case}: masked_totals");
            assert_eq!(net.stats(), supply_first.2, "{case}: masked_totals traffic");
            assert_eq!(
                format!("{streams:?}"),
                supply_first.3,
                "{case}: masked_totals streams"
            );
        }
    }
}
