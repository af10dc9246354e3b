//! The two-party secure comparison protocol (Yao, with OT).
//!
//! Implements the secure-comparison step of PEM's Private Market
//! Evaluation (Protocol 2, lines 14–18): a *garbler* holding value `a` and
//! an *evaluator* holding value `b` jointly compute `a < b` and learn
//! nothing else. The evaluator's labels travel in **one OT batch under one
//! sender key**, [`OT_CHUNK_BITS`] input bits per 1-of-4 transfer (an odd
//! width ends in a 1-of-2). Three messages:
//!
//! 1. **Offer** (garbler → evaluator): garbled comparator, the labels
//!    encoding the garbler's own bits, and the batch's single OT setup `A`.
//! 2. **Requests** (evaluator → garbler): one OT reply per chunk of input
//!    bits, blinded by the chunk's value.
//! 3. **Transfer** (garbler → evaluator): per chunk, one ciphertext per
//!    chunk value carrying the labels of that value's bits; the evaluator
//!    decrypts its chosen branch, evaluates the garbled circuit and learns
//!    the output bit.
//!
//! | `width = 64` | variable-base | fixed-base | table builds | group elements sent |
//! |---|---|---|---|---|
//! | one key per bit (before) | 128 | 192 | 0 | 128 |
//! | one key, 2-bit chunks | 32 | 66 | 1 (`A`) | 33 |
//!
//! The OT runs in whichever [`Group`] the caller hands in: edwards25519
//! at the paper profiles (32-byte elements, full-width scalars, the
//! 128-bit level) and the toy `test192` group of `Z_p*` for fast tests
//! (24-byte elements, 160-bit exponents) — see [`pem_crypto::ot`]. The
//! state machines and messages are generic over the group;
//! [`secure_less_than_local`] takes an [`OtGroup`] and dispatches once.
//!
//! The table is stated at the 64-bit width the kernels are benchmarked
//! at; every count in it scales with `width` (`width / 2` variable-base
//! multiplications, one group element per 2-bit chunk plus `A`). PEM's
//! Protocol 2 compares at `pem_core::quantize::compare_width(m)` for a
//! coalition of `m` members, the narrowest width its nonce-masked totals
//! fit — 47 bits, so 24 multiplications and 25 group elements (800
//! bytes on the curve), at `m = 12`.
//!
//! `pem-core` meters the messages through its own wire encoding.

use rand::Rng;
use serde::{Deserialize, Serialize};

use pem_crypto::ot::{
    Group, OtBatchReceiver, OtBatchSender, OtCiphertexts, OtGroup, OtReceiverReply, OtSenderSetup,
    MAX_BRANCHES,
};

use crate::circuit::{comparator_circuit, u128_to_bits};
use crate::error::CircuitError;
use crate::garble::{eval_garbled, garble, GarbledCircuit, Label};

/// Evaluator input bits handed over per OT; bit `pos` of a chunk's value
/// (and of the OT branch index) is the chunk's `pos`-th wire.
pub const OT_CHUNK_BITS: usize = 2;
const _: () = assert!(1 << OT_CHUNK_BITS <= MAX_BRANCHES);

/// Message 1: everything the evaluator needs except its own wire labels.
#[derive(Debug, Clone)]
pub struct CompareOffer<G: Group> {
    /// Comparator bit width.
    pub width: usize,
    /// The garbled comparator circuit.
    pub garbled: GarbledCircuit,
    /// Active labels for the garbler's input bits.
    pub garbler_labels: Vec<Label>,
    /// The one OT setup every chunk's transfer runs under.
    pub ot_setup: OtSenderSetup<G>,
}

/// Message 2: the evaluator's OT replies (one per chunk).
#[derive(Debug, Clone)]
pub struct CompareOtRequests<G: Group> {
    /// OT replies in chunk order.
    pub replies: Vec<OtReceiverReply<G>>,
}

/// Message 3: the OT ciphertexts carrying the evaluator's labels.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct CompareLabelCiphertexts {
    /// Per chunk, one ciphertext per chunk value: the concatenated
    /// labels of that value's bits.
    pub cts: Vec<OtCiphertexts>,
}

/// Garbler-side state machine for one comparison.
#[derive(Debug)]
pub struct CompareGarbler<G: Group> {
    sender: OtBatchSender<G>,
    evaluator_wire_labels: Vec<(Label, Label)>,
}

impl<G: Group> CompareGarbler<G> {
    /// Starts a comparison of `width`-bit values; the garbler contributes
    /// `value` as the left operand of `a < b`. The OT sender holds a
    /// handle to `group`'s shared context, not a copy.
    ///
    /// # Errors
    ///
    /// [`CircuitError::ValueTooWide`] if `value` needs more than `width`
    /// bits.
    pub fn start<R: Rng + ?Sized>(
        width: usize,
        value: u128,
        group: &G,
        rng: &mut R,
    ) -> Result<(CompareGarbler<G>, CompareOffer<G>), CircuitError> {
        if width < 128 && value >> width != 0 {
            return Err(CircuitError::ValueTooWide { width });
        }
        let circuit = comparator_circuit(width);
        let (garbled, secrets) = garble(&circuit, rng);
        let garbler_labels = secrets.garbler_labels(&u128_to_bits(value, width));
        let evaluator_wire_labels = (0..width)
            .map(|i| secrets.evaluator_wire_labels(i))
            .collect();
        let (sender, ot_setup) = OtBatchSender::new(group.clone(), rng);
        Ok((
            CompareGarbler {
                sender,
                evaluator_wire_labels,
            },
            CompareOffer {
                width,
                garbled,
                garbler_labels,
                ot_setup,
            },
        ))
    }

    /// Answers the evaluator's OT requests with the label ciphertexts.
    ///
    /// # Errors
    ///
    /// Propagates OT validation failures; rejects a reply count that does
    /// not match the offer.
    pub fn provide_labels(
        self,
        requests: &CompareOtRequests<G>,
    ) -> Result<CompareLabelCiphertexts, CircuitError> {
        let chunks = self.evaluator_wire_labels.chunks(OT_CHUNK_BITS);
        if requests.replies.len() != chunks.len() {
            return Err(CircuitError::MalformedGarbling("OT reply count mismatch"));
        }
        let messages: Vec<Vec<Vec<u8>>> = chunks
            .map(|wires| {
                (0..1usize << wires.len())
                    .map(|value| {
                        let bit = |pos: usize| value >> pos & 1 == 1;
                        (wires.iter().enumerate())
                            .flat_map(|(pos, (l0, l1))| if bit(pos) { l1.0 } else { l0.0 })
                            .collect()
                    })
                    .collect()
            })
            .collect();
        let cts = self.sender.encrypt(&requests.replies, &messages)?;
        Ok(CompareLabelCiphertexts { cts })
    }
}

/// Evaluator-side state machine for one comparison.
#[derive(Debug)]
pub struct CompareEvaluator<G: Group> {
    receiver: OtBatchReceiver<G>,
    garbled: GarbledCircuit,
    garbler_labels: Vec<Label>,
}

impl<G: Group> CompareEvaluator<G> {
    /// Processes the offer; the evaluator contributes `value` as the right
    /// operand of `a < b`.
    ///
    /// # Errors
    ///
    /// * [`CircuitError::ValueTooWide`] if `value` exceeds the offer width.
    /// * [`CircuitError::MalformedGarbling`] if the offer is inconsistent.
    /// * OT errors for invalid group elements.
    pub fn respond<R: Rng + ?Sized>(
        offer: CompareOffer<G>,
        value: u128,
        group: &G,
        rng: &mut R,
    ) -> Result<(CompareEvaluator<G>, CompareOtRequests<G>), CircuitError> {
        let width = offer.width;
        if width < 128 && value >> width != 0 {
            return Err(CircuitError::ValueTooWide { width });
        }
        if offer.garbled.circuit().garbler_inputs() != width
            || offer.garbled.circuit().evaluator_inputs() != width
            || offer.garbler_labels.len() != width
        {
            return Err(CircuitError::MalformedGarbling(
                "offer shape does not match declared width",
            ));
        }
        let choices: Vec<usize> = u128_to_bits(value, width)
            .chunks(OT_CHUNK_BITS)
            .map(|bits| (bits.iter().enumerate()).fold(0, |v, (pos, &b)| v | (b as usize) << pos))
            .collect();
        let (receiver, replies) =
            OtBatchReceiver::new(group.clone(), &offer.ot_setup, &choices, rng)?;
        Ok((
            CompareEvaluator {
                receiver,
                garbled: offer.garbled,
                garbler_labels: offer.garbler_labels,
            },
            CompareOtRequests { replies },
        ))
    }

    /// Decrypts the chosen labels and evaluates the circuit, yielding
    /// `a < b`.
    ///
    /// # Errors
    ///
    /// OT or garbling inconsistencies, and
    /// [`CircuitError::OutputNotAuthentic`] when a tampered offer or OT
    /// message left the output label unrecognisable.
    pub fn finish(self, transfer: &CompareLabelCiphertexts) -> Result<bool, CircuitError> {
        let mut labels = self.garbler_labels;
        for chunk in self.receiver.decrypt(&transfer.cts)? {
            if chunk.len() % 16 != 0 {
                return Err(CircuitError::MalformedGarbling("label must be 16 bytes"));
            }
            for label in chunk.chunks(16) {
                labels.push(Label(label.try_into().expect("16 bytes")));
            }
        }
        let out = eval_garbled(&self.garbled, &labels)?;
        Ok(out[0])
    }
}

/// Runs the full three-message comparison in-process (reference flow; the
/// distributed version in `pem-core` sends the same three structs over a
/// transport).
pub fn secure_less_than_local<R: Rng + ?Sized>(
    a: u128,
    b: u128,
    width: usize,
    group: &OtGroup,
    rng: &mut R,
) -> Result<bool, CircuitError> {
    match group {
        OtGroup::Dh(g) => less_than_in(a, b, width, g, rng),
        OtGroup::Ed25519(g) => less_than_in(a, b, width, g, rng),
    }
}

fn less_than_in<G: Group, R: Rng + ?Sized>(
    a: u128,
    b: u128,
    width: usize,
    group: &G,
    rng: &mut R,
) -> Result<bool, CircuitError> {
    let (garbler, offer) = CompareGarbler::start(width, a, group, rng)?;
    let (evaluator, requests) = CompareEvaluator::respond(offer, b, group, rng)?;
    let transfer = garbler.provide_labels(&requests)?;
    evaluator.finish(&transfer)
}

#[cfg(test)]
mod tests {
    use super::*;
    use pem_crypto::drbg::HashDrbg;
    use pem_crypto::ot::{DhGroup, Ed25519};

    fn group() -> OtGroup {
        DhGroup::test_192().into()
    }

    fn test192() -> DhGroup {
        DhGroup::test_192()
    }

    #[test]
    fn compares_correctly_small_values() {
        let mut rng = HashDrbg::new(b"cmp");
        for g in [group(), Ed25519.into()] {
            for (a, b) in [(0u128, 0u128), (0, 1), (1, 0), (5, 5), (7, 200), (200, 7)] {
                let got = secure_less_than_local(a, b, 16, &g, &mut rng).expect("compare");
                assert_eq!(got, a < b, "{g:?}: a={a} b={b}");
            }
        }
    }

    #[test]
    fn exhaustive_over_even_odd_and_single_bit_widths() {
        // Width 4 is two 1-of-4 chunks, width 5 ends in a 1-of-2 tail
        // chunk, width 1 is the tail chunk alone.
        let g = group();
        let mut rng = HashDrbg::new(b"cmp-exhaustive");
        for width in [4usize, 5, 1] {
            for a in 0..1u128 << width {
                for b in 0..1u128 << width {
                    let got = secure_less_than_local(a, b, width, &g, &mut rng).expect("compare");
                    assert_eq!(got, a < b, "width={width} a={a} b={b}");
                }
            }
        }
    }

    #[test]
    fn transfer_carries_one_ciphertext_per_chunk_value() {
        let g = test192();
        let mut rng = HashDrbg::new(b"cmp-shape");
        let (garbler, offer) = CompareGarbler::start(5, 19, &g, &mut rng).expect("start");
        let (_eval, requests) = CompareEvaluator::respond(offer, 7, &g, &mut rng).expect("respond");
        assert_eq!(requests.replies.len(), 3);
        let transfer = garbler.provide_labels(&requests).expect("labels");
        let shape: Vec<(usize, usize)> = (transfer.cts.iter())
            .map(|ct| (ct.branches.len(), ct.branches[0].len()))
            .collect();
        assert_eq!(shape, [(4, 32), (4, 32), (2, 16)]);
    }

    #[test]
    fn compares_at_window_widths_on_the_curve() {
        // 47 and 49 bits: 24 and 25 chunks, past the `A`-table threshold,
        // the last a 1-of-2.
        let g = Ed25519.into();
        let mut rng = HashDrbg::new(b"cmp-curve");
        for width in [47usize, 49] {
            let top = (1u128 << width) - 1;
            for (a, b) in [(top - 1, top), (top, top - 1), (0, top), (12_345, 12_345)] {
                let got = secure_less_than_local(a, b, width, &g, &mut rng).expect("compare");
                assert_eq!(got, a < b, "width={width} a={a} b={b}");
            }
        }
    }

    #[test]
    fn compares_wide_values() {
        let g = group();
        let mut rng = HashDrbg::new(b"cmp-wide");
        let a = (1u128 << 90) + 12345;
        let b = (1u128 << 90) + 12346;
        assert!(secure_less_than_local(a, b, 96, &g, &mut rng).expect("compare"));
        assert!(!secure_less_than_local(b, a, 96, &g, &mut rng).expect("compare"));
    }

    #[test]
    fn rejects_too_wide_values() {
        let g = test192();
        let mut rng = HashDrbg::new(b"cmp-too-wide");
        assert!(matches!(
            CompareGarbler::start(8, 256, &g, &mut rng),
            Err(CircuitError::ValueTooWide { width: 8 })
        ));
    }

    #[test]
    fn rejects_malformed_offer() {
        let g = test192();
        let mut rng = HashDrbg::new(b"cmp-malformed");
        let (_garbler, mut offer) = CompareGarbler::start(8, 5, &g, &mut rng).expect("start");
        offer.garbler_labels.pop();
        assert!(matches!(
            CompareEvaluator::respond(offer, 9, &g, &mut rng),
            Err(CircuitError::MalformedGarbling(_))
        ));
    }

    #[test]
    fn rejects_reply_count_mismatch() {
        let g = test192();
        let mut rng = HashDrbg::new(b"cmp-replies");
        let (garbler, offer) = CompareGarbler::start(8, 5, &g, &mut rng).expect("start");
        let (_eval, mut requests) =
            CompareEvaluator::respond(offer, 9, &g, &mut rng).expect("respond");
        requests.replies.pop();
        assert!(garbler.provide_labels(&requests).is_err());
    }

    #[test]
    fn random_pairs_match_plain_comparison() {
        let g = group();
        let mut rng = HashDrbg::new(b"cmp-random");
        use rand::Rng as _;
        let mut value_rng = HashDrbg::new(b"cmp-values");
        for _ in 0..10 {
            let a: u64 = value_rng.gen();
            let b: u64 = value_rng.gen();
            let got =
                secure_less_than_local(a as u128, b as u128, 64, &g, &mut rng).expect("compare");
            assert_eq!(got, a < b, "a={a} b={b}");
        }
    }
}
