//! The two-party secure comparison protocol (Yao, with OT).
//!
//! Implements the secure-comparison step of PEM's Private Market
//! Evaluation (Protocol 2, lines 14–18): a *garbler* holding value `a` and
//! an *evaluator* holding value `b` jointly compute `a < b` and learn
//! nothing else. The circuit is the wrapped comparator
//! ([`wrapped_comparator_circuit`]): it reads the sign of `a − b` from
//! the top bit of `(a − b) mod 2^w`, so its answer is `a < b` under the
//! precondition `|a − b| < 2^(w−1)` at width `w`. The inputs may be the
//! low `w` bits of two wider integers that close, as Protocol 2's masked
//! totals are. The garbler's bits are hardwired
//! ([`garble_hardwired`]): each takes the public active label 0¹²⁸, so no
//! garbler label crosses the wire. The evaluator's labels come from **one
//! random-OT batch under one sender key**, [`OT_CHUNK_BITS`] input bits
//! per 1-of-4 transfer (an odd width ends in a 1-of-2): the 32-byte key
//! of a chunk's branch 0 *is* its false labels, so the garbler garbles
//! after the requests arrive and ships one correction per other branch.
//! Three messages:
//!
//! 1. **Setup** (garbler → evaluator): the width and the batch's single
//!    OT setup `A`. It depends on nothing but the garbler's draws, so
//!    Protocol 2 sends it as the window opens.
//! 2. **Requests** (evaluator → garbler): one OT reply per chunk of input
//!    bits, blinded by the chunk's value.
//! 3. **Transfer** (garbler → evaluator): the circuit garbled over the
//!    garbler's value and, per chunk, one correction
//!    `r_j ⊕ r_0 ⊕ offset_j` per nonzero chunk value `j` (`r_j` the
//!    branch-`j` key, `offset_j` holding `Δ` at `j`'s set bits). The
//!    evaluator's labels are its key `r_c`, plus the correction of its
//!    choice `c` when `c ≠ 0`; it evaluates the garbled circuit and
//!    learns the output bit.
//!
//! | `width = 64` | variable-base | fixed-base | table builds | group elements sent |
//! |---|---|---|---|---|
//! | one key per bit (before) | 128 | 192 | 0 | 128 |
//! | one key, 2-bit chunks | 32 | 66 | 1 (`A`) | 33 |
//!
//! Besides the tables and the group elements, the labels cost 3,072
//! bytes at `width = 64`: three 32-byte corrections per chunk. A
//! chosen-message OT with the garbler's labels on the wire cost 5,120:
//! `16w` bytes of garbler labels and four 32-byte branches per chunk.
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
//! coalition of `m` members: the low bits of its two nonce-masked
//! totals, enough to hold the public bound on their difference whatever
//! the mask — 37 bits, so 19 multiplications, 20 group elements (640
//! bytes on the curve) and 36 AND tables, at `m = 12`; its three frames
//! are then 33, 609 and 2,932 bytes on the curve, 3,574 in all (4,566
//! when the comparison covered the whole 47-bit masked totals).
//!
//! `pem-core` meters the messages through its own wire encoding.

use rand::Rng;
use serde::{Deserialize, Serialize};

use pem_crypto::ot::{
    Group, OtBatchReceiver, OtBatchSender, OtGroup, OtReceiverReply, OtSenderSetup, MAX_BRANCHES,
};

use crate::circuit::{u128_to_bits, wrapped_comparator_circuit};
use crate::error::CircuitError;
use crate::garble::{eval_garbled, garble_hardwired, GarbledCircuit, Label};

/// Evaluator input bits handed over per OT; bit `pos` of a chunk's value
/// (and of the OT branch index) is the chunk's `pos`-th wire. A chunk's
/// false labels are one 32-byte OT key, 16 bytes per bit.
pub const OT_CHUNK_BITS: usize = 2;
const _: () = assert!(1 << OT_CHUNK_BITS <= MAX_BRANCHES);

/// Width of chunk `chunk` of a `width`-bit comparison: [`OT_CHUNK_BITS`],
/// or the odd bit a width ends in.
pub fn chunk_bits(width: usize, chunk: usize) -> usize {
    OT_CHUNK_BITS.min(width - chunk * OT_CHUNK_BITS)
}

/// Labels carried per chunk of message 3: one per bit of each nonzero
/// chunk value — 6 for a 2-bit chunk, 1 for the 1-bit tail.
pub fn corrections_per_chunk(bits: usize) -> usize {
    ((1 << bits) - 1) * bits
}

/// The first `bits` 16-byte labels of an OT key.
fn key_labels(key: &[u8; 32], bits: usize) -> Vec<Label> {
    (key.chunks_exact(16).take(bits))
        .map(|half| {
            let mut label = Label::ZERO;
            label.0.copy_from_slice(half);
            label
        })
        .collect()
}

/// Message 1: the batch's single OT setup, at the agreed width. It
/// depends on nothing but the garbler's draws, so it can go out before
/// either value is known.
#[derive(Debug, Clone)]
pub struct CompareSetup<G: Group> {
    /// Comparator bit width.
    pub width: usize,
    /// The one OT setup every chunk's transfer runs under.
    pub ot_setup: OtSenderSetup<G>,
}

/// Message 2: the evaluator's OT replies (one per chunk).
#[derive(Debug, Clone)]
pub struct CompareOtRequests<G: Group> {
    /// OT replies in chunk order.
    pub replies: Vec<OtReceiverReply<G>>,
}

/// Message 3: the garbled wrapped comparator over the garbler's hardwired
/// value, and per chunk the corrections that turn the evaluator's OT key into
/// its labels.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct CompareTransfer {
    /// Comparator bit width.
    pub width: usize,
    /// The garbled wrapped comparator.
    pub garbled: GarbledCircuit,
    /// Per chunk, for each nonzero chunk value `j` in order, one label
    /// per bit: `r_j ⊕ r_0 ⊕ offset_j`, where `r_j` is the chunk's
    /// branch-`j` OT key and `offset_j` holds `Δ` at the bits set in `j`.
    pub corrections: Vec<Vec<Label>>,
}

/// Garbler-side state machine for one comparison: the left operand of
/// `a < b`, whose answer holds when `|a − b| < 2^(w−1)`.
#[derive(Debug)]
pub struct CompareGarbler<G: Group> {
    width: usize,
    sender: OtBatchSender<G>,
    delta: Label,
}

impl<G: Group> CompareGarbler<G> {
    /// Starts a `width`-bit comparison: draws the OT key and `Δ`. The OT
    /// sender holds a handle to `group`'s shared context, not a copy.
    pub fn start<R: Rng + ?Sized>(
        width: usize,
        group: &G,
        rng: &mut R,
    ) -> (CompareGarbler<G>, CompareSetup<G>) {
        let (sender, ot_setup) = OtBatchSender::new(group.clone(), rng);
        let delta = Label::random_delta(rng);
        let garbler = CompareGarbler {
            width,
            sender,
            delta,
        };
        (garbler, CompareSetup { width, ot_setup })
    }

    /// Answers the evaluator's OT requests with message 3: the wrapped
    /// comparator garbled over `value` — the left operand of `a < b` —
    /// with the OT's branch-0 keys as the evaluator's false labels, and
    /// the corrections for every other branch.
    ///
    /// # Errors
    ///
    /// [`CircuitError::ValueTooWide`] if `value` needs more than `width`
    /// bits; [`CircuitError::MalformedGarbling`] for a reply count that
    /// does not match the width; OT validation failures.
    pub fn transfer(
        self,
        value: u128,
        requests: &CompareOtRequests<G>,
    ) -> Result<CompareTransfer, CircuitError> {
        let width = self.width;
        if width < 128 && value >> width != 0 {
            return Err(CircuitError::ValueTooWide { width });
        }
        let chunks = width.div_ceil(OT_CHUNK_BITS);
        if requests.replies.len() != chunks {
            return Err(CircuitError::MalformedGarbling("OT reply count mismatch"));
        }
        let bits: Vec<usize> = (0..chunks).map(|i| chunk_bits(width, i)).collect();
        let branches: Vec<usize> = bits.iter().map(|&b| 1 << b).collect();
        let keys = self.sender.keys(&requests.replies, &branches)?;
        let zero: Vec<Vec<Label>> = (keys.iter().zip(&bits))
            .map(|(keys, &b)| key_labels(&keys[0], b))
            .collect();
        let garbled = garble_hardwired(
            &wrapped_comparator_circuit(width),
            &u128_to_bits(value, width),
            &self.delta,
            &zero.concat(),
        )?;
        let delta = self.delta;
        let corrections = (keys.iter().zip(&zero))
            .map(|(keys, zero)| {
                let mut chunk = Vec::with_capacity(corrections_per_chunk(zero.len()));
                for (j, key) in keys.iter().enumerate().skip(1) {
                    for (pos, (r_j, r_0)) in
                        key_labels(key, zero.len()).iter().zip(zero).enumerate()
                    {
                        let offset = if j >> pos & 1 == 1 {
                            delta
                        } else {
                            Label::ZERO
                        };
                        chunk.push(r_j.xor(r_0).xor(&offset));
                    }
                }
                chunk
            })
            .collect();
        Ok(CompareTransfer {
            width,
            garbled,
            corrections,
        })
    }
}

/// Evaluator-side state machine for one comparison: the right operand
/// of `a < b`, whose answer holds when `|a − b| < 2^(w−1)`.
#[derive(Debug)]
pub struct CompareEvaluator<G: Group> {
    width: usize,
    choices: Vec<usize>,
    receiver: OtBatchReceiver<G>,
}

impl<G: Group> CompareEvaluator<G> {
    /// Answers the setup; the evaluator contributes `value` as the right
    /// operand of `a < b`, one OT choice per chunk of its bits.
    ///
    /// # Errors
    ///
    /// * [`CircuitError::ValueTooWide`] if `value` exceeds the setup's
    ///   width.
    /// * OT errors for an invalid `A`.
    pub fn respond<R: Rng + ?Sized>(
        setup: &CompareSetup<G>,
        value: u128,
        group: &G,
        rng: &mut R,
    ) -> Result<(CompareEvaluator<G>, CompareOtRequests<G>), CircuitError> {
        let width = setup.width;
        if width < 128 && value >> width != 0 {
            return Err(CircuitError::ValueTooWide { width });
        }
        let choices: Vec<usize> = u128_to_bits(value, width)
            .chunks(OT_CHUNK_BITS)
            .map(|bits| (bits.iter().enumerate()).fold(0, |v, (pos, &b)| v | (b as usize) << pos))
            .collect();
        let (receiver, replies) =
            OtBatchReceiver::new(group.clone(), &setup.ot_setup, &choices, rng)?;
        let evaluator = CompareEvaluator {
            width,
            choices,
            receiver,
        };
        Ok((evaluator, CompareOtRequests { replies }))
    }

    /// Recovers its labels from its OT keys and the corrections of its
    /// choices, evaluates the circuit with [`Label::ZERO`] for every
    /// garbler input, and yields `a < b` under the precondition
    /// `|a − b| < 2^(w−1)` (outside it, the top bit of `(a − b) mod 2^w`).
    ///
    /// # Errors
    ///
    /// [`CircuitError::MalformedGarbling`] if the transfer's width or
    /// shape is not the setup's, and
    /// [`CircuitError::OutputNotAuthentic`] when a tampered message left
    /// the output label unrecognisable.
    pub fn finish(self, transfer: &CompareTransfer) -> Result<bool, CircuitError> {
        let width = self.width;
        let circuit = transfer.garbled.circuit();
        if transfer.width != width
            || circuit.garbler_inputs() != width
            || circuit.evaluator_inputs() != width
            || transfer.corrections.len() != self.choices.len()
        {
            return Err(CircuitError::MalformedGarbling(
                "transfer shape does not match the agreed width",
            ));
        }
        let mut labels = vec![Label::ZERO; width];
        let keys = self.receiver.keys();
        for (chunk, ((key, &c), corrections)) in
            (keys.iter().zip(&self.choices).zip(&transfer.corrections)).enumerate()
        {
            let bits = chunk_bits(width, chunk);
            if corrections.len() != corrections_per_chunk(bits) {
                return Err(CircuitError::MalformedGarbling("correction count mismatch"));
            }
            let own = key_labels(key, bits);
            match c.checked_sub(1) {
                None => labels.extend(own),
                Some(j) => labels.extend(
                    (own.iter().zip(&corrections[j * bits..(j + 1) * bits])).map(|(r, e)| r.xor(e)),
                ),
            }
        }
        let out = eval_garbled(&transfer.garbled, &labels)?;
        out.first().copied().ok_or(CircuitError::MalformedGarbling(
            "comparator without an output",
        ))
    }
}

/// Runs the full three-message comparison in-process (reference flow; the
/// distributed version in `pem-core` sends the same three structs over a
/// transport).
///
/// The result is `a < b` for `a, b < 2^width` with `|a − b| <
/// 2^(width−1)`: the wrapped comparator reads the sign of `a − b` from
/// the top bit of `(a − b) mod 2^width`. Values a full `width` bits
/// apart need a comparison one bit wider.
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
    let (garbler, setup) = CompareGarbler::start(width, group, rng);
    let (evaluator, requests) = CompareEvaluator::respond(&setup, b, group, rng)?;
    let transfer = garbler.transfer(a, &requests)?;
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
        // Every pair below 2^(width − 1), which are all in range, at
        // widths 1 through 6: even widths are 1-of-4 chunks alone, odd
        // ones end in a 1-of-2 tail chunk, width 1 is the tail chunk
        // alone.
        let g = group();
        let mut rng = HashDrbg::new(b"cmp-exhaustive");
        for width in 1..=6usize {
            for a in 0..1u128 << (width - 1) {
                for b in 0..1u128 << (width - 1) {
                    let got = secure_less_than_local(a, b, width, &g, &mut rng).expect("compare");
                    assert_eq!(got, a < b, "width={width} a={a} b={b}");
                }
            }
        }
    }

    #[test]
    fn transfer_carries_one_correction_per_bit_of_each_nonzero_chunk_value() {
        let g = test192();
        let mut rng = HashDrbg::new(b"cmp-shape");
        let (garbler, setup) = CompareGarbler::start(5, &g, &mut rng);
        let (_eval, requests) =
            CompareEvaluator::respond(&setup, 7, &g, &mut rng).expect("respond");
        assert_eq!(requests.replies.len(), 3);
        let transfer = garbler.transfer(19, &requests).expect("transfer");
        let shape: Vec<usize> = transfer.corrections.iter().map(Vec::len).collect();
        assert_eq!(shape, [6, 6, 1]);
        assert_eq!(transfer.garbled.table_count(), 4);
    }

    #[test]
    fn compares_at_window_widths_on_the_curve() {
        // 37, 39 and 49 bits (19, 20 and 25 chunks, past the `A`-table
        // threshold, each ending in a 1-of-2), and the spot widths
        // 16 and 64; the pairs reach the top of the width and the widest
        // gap the precondition admits.
        let g = Ed25519.into();
        let mut rng = HashDrbg::new(b"cmp-curve");
        for width in [16usize, 37, 39, 49, 64] {
            let top = u128::MAX >> (128 - width);
            let gap = (1u128 << (width - 1)) - 1;
            let pairs = [(top - 1, top), (top, top - 1), (top - gap, top), (gap, 0)];
            for (a, b) in pairs.into_iter().chain([(12_345, 12_345)]) {
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
        let (garbler, setup) = CompareGarbler::start(8, &g, &mut rng);
        assert!(matches!(
            CompareEvaluator::respond(&setup, 256, &g, &mut rng),
            Err(CircuitError::ValueTooWide { width: 8 })
        ));
        let (_, requests) = CompareEvaluator::respond(&setup, 9, &g, &mut rng).expect("respond");
        assert!(matches!(
            garbler.transfer(256, &requests),
            Err(CircuitError::ValueTooWide { width: 8 })
        ));
    }

    /// One 8-bit comparison of `a` with `b` up to the evaluator's
    /// `finish`.
    fn eight_bits(a: u128, b: u128) -> (CompareEvaluator<DhGroup>, CompareTransfer) {
        let g = test192();
        let mut rng = HashDrbg::new(b"cmp-eight-bits");
        let (garbler, setup) = CompareGarbler::start(8, &g, &mut rng);
        let (evaluator, requests) =
            CompareEvaluator::respond(&setup, b, &g, &mut rng).expect("respond");
        (evaluator, garbler.transfer(a, &requests).expect("transfer"))
    }

    #[test]
    fn rejects_malformed_offer() {
        // The garbler's offer is message 3 now: a transfer whose width,
        // chunk count or correction count is not the setup's is refused
        // before anything is evaluated.
        type Edit = fn(&mut CompareTransfer);
        let edits: [(&str, Edit); 3] = [
            ("width", |t| t.width += 1),
            ("chunks", |t| {
                t.corrections.pop();
            }),
            ("corrections", |t| {
                t.corrections[1].pop();
            }),
        ];
        for (case, edit) in edits {
            let (evaluator, mut transfer) = eight_bits(5, 9);
            edit(&mut transfer);
            assert!(
                matches!(
                    evaluator.finish(&transfer),
                    Err(CircuitError::MalformedGarbling(_))
                ),
                "{case}"
            );
        }
    }

    #[test]
    fn a_flipped_correction_fails_only_where_it_is_used() {
        // b = 0b10_01_11_00: chunk 0 chose value 0 (its key is its
        // labels, no correction used), chunk 1 value 3, chunk 2 value 1,
        // chunk 3 value 2. A flip in a chosen correction derails the
        // evaluation into an unauthentic output; one in any unchosen
        // correction leaves the result intact.
        let (a, b) = (0b1001_1101, 0b1001_1100);
        let choices = [0usize, 3, 1, 2];
        for (chunk, &chosen) in choices.iter().enumerate() {
            for j in 1..4 {
                for pos in 0..2 {
                    let (evaluator, mut transfer) = eight_bits(a, b);
                    transfer.corrections[chunk][(j - 1) * 2 + pos].0[9] ^= 0x10;
                    let got = evaluator.finish(&transfer);
                    if j == chosen {
                        assert_eq!(
                            got,
                            Err(CircuitError::OutputNotAuthentic { output: 0 }),
                            "chunk {chunk}, value {j}, bit {pos}"
                        );
                    } else {
                        assert_eq!(got, Ok(false), "chunk {chunk}, value {j}, bit {pos}");
                    }
                }
            }
        }
    }

    #[test]
    fn rejects_reply_count_mismatch() {
        let g = test192();
        let mut rng = HashDrbg::new(b"cmp-replies");
        let (garbler, setup) = CompareGarbler::start(8, &g, &mut rng);
        let (_eval, mut requests) =
            CompareEvaluator::respond(&setup, 9, &g, &mut rng).expect("respond");
        requests.replies.pop();
        assert!(garbler.transfer(5, &requests).is_err());
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
            // Two 64-bit values are less than 2^64 apart.
            let got =
                secure_less_than_local(a as u128, b as u128, 65, &g, &mut rng).expect("compare");
            assert_eq!(got, a < b, "a={a} b={b}");
        }
    }
}
