//! The two-party secure comparison protocol (Yao, with OT).
//!
//! Implements the secure-comparison step of PEM's Private Market
//! Evaluation (Protocol 2, lines 14–18): a *garbler* holding value `a` and
//! an *evaluator* holding value `b` jointly compute `a < b` and learn
//! nothing else. Three messages:
//!
//! 1. **Offer** (garbler → evaluator): garbled comparator, the labels
//!    encoding the garbler's own bits, and one OT setup per evaluator bit.
//! 2. **Requests** (evaluator → garbler): one OT reply per input bit,
//!    blinded by the evaluator's choice bits.
//! 3. **Transfer** (garbler → evaluator): the OT ciphertexts carrying the
//!    evaluator's wire labels; the evaluator decrypts its chosen branch,
//!    evaluates the garbled circuit and learns the output bit.
//!
//! All messages are `serde`-serializable so `pem-net` can meter them.

use rand::Rng;
use serde::{Deserialize, Serialize};

use pem_crypto::ot::{
    DhGroup, OtCiphertexts, OtReceiver, OtReceiverReply, OtSender, OtSenderSetup,
};

use crate::circuit::{comparator_circuit, u128_to_bits};
use crate::error::CircuitError;
use crate::garble::{eval_garbled, garble, GarbledCircuit, Label};

/// Message 1: everything the evaluator needs except its own wire labels.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct CompareOffer {
    /// Comparator bit width.
    pub width: usize,
    /// The garbled comparator circuit.
    pub garbled: GarbledCircuit,
    /// Active labels for the garbler's input bits.
    pub garbler_labels: Vec<Label>,
    /// One OT setup per evaluator input bit.
    pub ot_setups: Vec<OtSenderSetup>,
}

/// Message 2: the evaluator's OT replies (one per input bit).
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct CompareOtRequests {
    /// OT replies in evaluator-bit order.
    pub replies: Vec<OtReceiverReply>,
}

/// Message 3: the OT ciphertexts carrying the evaluator's labels.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct CompareLabelCiphertexts {
    /// OT branch ciphertexts in evaluator-bit order.
    pub cts: Vec<OtCiphertexts>,
}

/// Garbler-side state machine for one comparison.
#[derive(Debug)]
pub struct CompareGarbler {
    senders: Vec<OtSender>,
    evaluator_wire_labels: Vec<(Label, Label)>,
}

impl CompareGarbler {
    /// Starts a comparison of `width`-bit values; the garbler contributes
    /// `value` as the left operand of `a < b`. Each of the `width` OT
    /// senders holds a handle to `group`'s shared context, not a copy.
    ///
    /// # Errors
    ///
    /// [`CircuitError::ValueTooWide`] if `value` needs more than `width`
    /// bits.
    pub fn start<R: Rng + ?Sized>(
        width: usize,
        value: u128,
        group: &DhGroup,
        rng: &mut R,
    ) -> Result<(CompareGarbler, CompareOffer), CircuitError> {
        if width < 128 && value >> width != 0 {
            return Err(CircuitError::ValueTooWide { width });
        }
        let circuit = comparator_circuit(width);
        let (garbled, secrets) = garble(&circuit, rng);
        let garbler_labels = secrets.garbler_labels(&u128_to_bits(value, width));

        let mut senders = Vec::with_capacity(width);
        let mut ot_setups = Vec::with_capacity(width);
        let mut evaluator_wire_labels = Vec::with_capacity(width);
        for i in 0..width {
            let (sender, setup) = OtSender::new(group.clone(), rng);
            senders.push(sender);
            ot_setups.push(setup);
            evaluator_wire_labels.push(secrets.evaluator_wire_labels(i));
        }

        Ok((
            CompareGarbler {
                senders,
                evaluator_wire_labels,
            },
            CompareOffer {
                width,
                garbled,
                garbler_labels,
                ot_setups,
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
        requests: &CompareOtRequests,
    ) -> Result<CompareLabelCiphertexts, CircuitError> {
        if requests.replies.len() != self.senders.len() {
            return Err(CircuitError::MalformedGarbling("OT reply count mismatch"));
        }
        let mut cts = Vec::with_capacity(self.senders.len());
        for ((sender, reply), (l0, l1)) in self
            .senders
            .into_iter()
            .zip(requests.replies.iter())
            .zip(self.evaluator_wire_labels.iter())
        {
            cts.push(sender.encrypt(reply, &l0.0, &l1.0)?);
        }
        Ok(CompareLabelCiphertexts { cts })
    }
}

/// Evaluator-side state machine for one comparison.
#[derive(Debug)]
pub struct CompareEvaluator {
    receivers: Vec<OtReceiver>,
    garbled: GarbledCircuit,
    garbler_labels: Vec<Label>,
}

impl CompareEvaluator {
    /// Processes the offer; the evaluator contributes `value` as the right
    /// operand of `a < b`.
    ///
    /// # Errors
    ///
    /// * [`CircuitError::ValueTooWide`] if `value` exceeds the offer width.
    /// * [`CircuitError::MalformedGarbling`] if the offer is inconsistent.
    /// * OT errors for invalid group elements.
    pub fn respond<R: Rng + ?Sized>(
        offer: CompareOffer,
        value: u128,
        group: &DhGroup,
        rng: &mut R,
    ) -> Result<(CompareEvaluator, CompareOtRequests), CircuitError> {
        let width = offer.width;
        if width < 128 && value >> width != 0 {
            return Err(CircuitError::ValueTooWide { width });
        }
        if offer.garbled.circuit().garbler_inputs() != width
            || offer.garbled.circuit().evaluator_inputs() != width
            || offer.garbler_labels.len() != width
            || offer.ot_setups.len() != width
        {
            return Err(CircuitError::MalformedGarbling(
                "offer shape does not match declared width",
            ));
        }
        let bits = u128_to_bits(value, width);
        let mut receivers = Vec::with_capacity(width);
        let mut replies = Vec::with_capacity(width);
        for (setup, &bit) in offer.ot_setups.iter().zip(bits.iter()) {
            let (receiver, reply) = OtReceiver::new(group.clone(), setup, bit, rng)?;
            receivers.push(receiver);
            replies.push(reply);
        }
        Ok((
            CompareEvaluator {
                receivers,
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
    /// OT or garbling inconsistencies.
    pub fn finish(self, transfer: &CompareLabelCiphertexts) -> Result<bool, CircuitError> {
        if transfer.cts.len() != self.receivers.len() {
            return Err(CircuitError::MalformedGarbling(
                "OT ciphertext count mismatch",
            ));
        }
        let mut labels = self.garbler_labels;
        for (receiver, ct) in self.receivers.into_iter().zip(transfer.cts.iter()) {
            let bytes = receiver.decrypt(ct)?;
            let arr: [u8; 16] = bytes
                .try_into()
                .map_err(|_| CircuitError::MalformedGarbling("label must be 16 bytes"))?;
            labels.push(Label(arr));
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
    group: &DhGroup,
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

    fn group() -> DhGroup {
        DhGroup::test_192()
    }

    #[test]
    fn compares_correctly_small_values() {
        let g = group();
        let mut rng = HashDrbg::new(b"cmp");
        for (a, b) in [(0u128, 0u128), (0, 1), (1, 0), (5, 5), (7, 200), (200, 7)] {
            let got = secure_less_than_local(a, b, 16, &g, &mut rng).expect("compare");
            assert_eq!(got, a < b, "a={a} b={b}");
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
        let g = group();
        let mut rng = HashDrbg::new(b"cmp-too-wide");
        assert!(matches!(
            CompareGarbler::start(8, 256, &g, &mut rng),
            Err(CircuitError::ValueTooWide { width: 8 })
        ));
    }

    #[test]
    fn rejects_malformed_offer() {
        let g = group();
        let mut rng = HashDrbg::new(b"cmp-malformed");
        let (_garbler, mut offer) = CompareGarbler::start(8, 5, &g, &mut rng).expect("start");
        offer.ot_setups.pop();
        assert!(matches!(
            CompareEvaluator::respond(offer, 9, &g, &mut rng),
            Err(CircuitError::MalformedGarbling(_))
        ));
    }

    #[test]
    fn rejects_reply_count_mismatch() {
        let g = group();
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
