//! The garbling scheme: half-gates over free XOR, with authenticated
//! outputs.
//!
//! * Every wire `w` carries two 128-bit labels `W⁰` (false) and
//!   `W¹ = W⁰ ⊕ Δ` (true) for a circuit-global secret `Δ` whose least
//!   significant bit is 1 — so a label's LSB is its *permute bit* and the
//!   two labels of a wire always disagree on it.
//! * XOR gates are free: `O⁰ = A⁰ ⊕ B⁰`; evaluation XORs the held labels.
//! * AND gate `j` is a half-gates pair (Zahur, Rosulek & Evans,
//!   EUROCRYPT 2015): two 16-byte rows under the tweaks `2j` and
//!   `2j + 1`. With `p_a = lsb(A⁰)` and `p_b = lsb(B⁰)` the garbler
//!   ships `T_G = H(A⁰, 2j) ⊕ H(A¹, 2j) ⊕ p_b·Δ` and
//!   `T_E = H(B⁰, 2j+1) ⊕ H(B¹, 2j+1) ⊕ A⁰`, and the output's false
//!   label is `O⁰ = H(A⁰, 2j) ⊕ p_a·T_G ⊕ H(B^{p_b}, 2j+1)` — four
//!   hashes and no random draw per AND. The evaluator holding `A` and
//!   `B` hashes twice:
//!   `O = H(A, 2j) ⊕ lsb(A)·T_G ⊕ H(B, 2j+1) ⊕ lsb(B)·(T_E ⊕ A)`.
//! * Outputs are authenticated: each output wire ships
//!   `(H'(O⁰), H'(O¹))` instead of a decode bit. The evaluator returns
//!   the bit whose hash its label matches, and
//!   [`CircuitError::OutputNotAuthentic`] when it matches neither — a
//!   corrupted table row, garbler label or OT transfer that derails the
//!   evaluation ends in a typed error, never in a coin-flip output bit.
//! * [`garble_hardwired`] takes the garbler's input bits: each garbler
//!   input gets the public active label `0¹²⁸` (false label `aᵢ·Δ`), so
//!   no garbler label is sent — sound wherever free XOR masks it, so a
//!   garbler input may feed XOR gates only — and the evaluator's false
//!   labels come from the caller (the comparison's OT keys).
//!
//! `H` is SHA-256 over a domain string, the label and the tweak,
//! truncated to 16 bytes; `H'` is the same hash under its own domain,
//! tweaked by the output's position.

use rand::Rng;
use serde::{Deserialize, Serialize};

use pem_crypto::sha256;

use crate::circuit::{Circuit, Gate, WireId};
use crate::error::CircuitError;

/// A 128-bit wire label.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub struct Label(pub [u8; 16]);

impl Label {
    /// The all-zero label: the public active label of every hardwired
    /// garbler input ([`garble_hardwired`]).
    pub const ZERO: Label = Label([0; 16]);

    /// Samples a uniformly random label.
    pub fn random<R: Rng + ?Sized>(rng: &mut R) -> Label {
        let mut b = [0u8; 16];
        rng.fill_bytes(&mut b);
        Label(b)
    }

    /// Samples a global offset `Δ`: random, with its permute bit forced
    /// to 1, so the two labels of any wire disagree on theirs.
    pub fn random_delta<R: Rng + ?Sized>(rng: &mut R) -> Label {
        let mut delta = Label::random(rng);
        delta.0[15] |= 1;
        delta
    }

    /// XOR of two labels.
    pub fn xor(&self, other: &Label) -> Label {
        let mut out = [0u8; 16];
        for (o, (a, b)) in out.iter_mut().zip(self.0.iter().zip(other.0.iter())) {
            *o = a ^ b;
        }
        Label(out)
    }

    /// `self ⊕ other` when `bit` is set, `self` otherwise.
    fn xor_if(&self, bit: bool, other: &Label) -> Label {
        if bit {
            self.xor(other)
        } else {
            *self
        }
    }

    /// The permute (point-and-permute) bit: the label's LSB.
    pub fn permute_bit(&self) -> bool {
        self.0[15] & 1 == 1
    }
}

/// `H(label ‖ tweak)` under `domain`, truncated to a label: one
/// SHA-256 block, hashed from one stack buffer.
fn tweak_hash(domain: &[u8], label: &Label, tweak: u64) -> Label {
    let mut input = [0u8; 64];
    let n = domain.len();
    input[..n].copy_from_slice(domain);
    input[n..n + 16].copy_from_slice(&label.0);
    input[n + 16..n + 24].copy_from_slice(&tweak.to_be_bytes());
    let digest = sha256(&input[..n + 24]);
    let mut out = [0u8; 16];
    out.copy_from_slice(&digest[..16]);
    Label(out)
}

/// The gate hash `H`: AND gate `j` uses the tweaks `2j` and `2j + 1`.
fn gate_hash(label: &Label, tweak: u64) -> Label {
    tweak_hash(b"pem-garble-v2", label, tweak)
}

/// The output-authentication hash `H'` of output `k`'s label.
fn output_hash(label: &Label, k: usize) -> Label {
    tweak_hash(b"pem-garble-v2/out", label, k as u64)
}

/// The transferable part of a garbling: topology, AND tables and the
/// output hashes. Safe to hand to the evaluator.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct GarbledCircuit {
    circuit: Circuit,
    /// One half-gates pair `[T_G, T_E]` per AND gate, in gate order.
    and_tables: Vec<[Label; 2]>,
    /// `[H'(O⁰), H'(O¹)]` per output wire.
    output_hashes: Vec<[Label; 2]>,
}

impl GarbledCircuit {
    /// The public circuit topology.
    pub fn circuit(&self) -> &Circuit {
        &self.circuit
    }

    /// Number of garbled AND tables (size metric for bandwidth).
    pub fn table_count(&self) -> usize {
        self.and_tables.len()
    }

    /// The AND-gate tables `[T_G, T_E]` in gate order (for wire
    /// encoding).
    pub fn and_tables(&self) -> &[[Label; 2]] {
        &self.and_tables
    }

    /// The output hashes `[H'(O⁰), H'(O¹)]` (for wire encoding).
    pub fn output_hashes(&self) -> &[[Label; 2]] {
        &self.output_hashes
    }

    /// Reassembles a garbling from a locally rebuilt topology plus
    /// received tables and output hashes (the transport sends only the
    /// latter two — the comparator topology is public and deterministic).
    ///
    /// # Errors
    ///
    /// [`CircuitError::MalformedGarbling`] if the counts do not match the
    /// topology.
    pub fn from_parts(
        circuit: Circuit,
        and_tables: Vec<[Label; 2]>,
        output_hashes: Vec<[Label; 2]>,
    ) -> Result<GarbledCircuit, CircuitError> {
        if and_tables.len() != circuit.and_count() {
            return Err(CircuitError::MalformedGarbling("AND table count mismatch"));
        }
        if output_hashes.len() != circuit.outputs().len() {
            return Err(CircuitError::MalformedGarbling(
                "output hash count mismatch",
            ));
        }
        Ok(GarbledCircuit {
            circuit,
            and_tables,
            output_hashes,
        })
    }
}

/// The garbler's secrets: `Δ` and the false label of every input wire.
/// Never sent to the evaluator as-is; the evaluator receives labels for
/// specific input values via [`GarblerSecrets::garbler_labels`] and OT.
#[derive(Debug, Clone)]
pub struct GarblerSecrets {
    delta: Label,
    /// False labels for all input wires (garbler's then evaluator's).
    input_zero_labels: Vec<Label>,
    garbler_inputs: usize,
}

impl GarblerSecrets {
    /// The global label offset Δ.
    pub fn delta(&self) -> &Label {
        &self.delta
    }

    /// Labels encoding the garbler's own input bits (safe to transmit).
    ///
    /// # Panics
    ///
    /// Panics if `bits` does not match the declared garbler width.
    pub fn garbler_labels(&self, bits: &[bool]) -> Vec<Label> {
        assert_eq!(bits.len(), self.garbler_inputs, "garbler input width");
        bits.iter()
            .enumerate()
            .map(|(i, &b)| self.select(i, b))
            .collect()
    }

    /// Both labels of evaluator input wire `i` (fed into OT as the two
    /// branch messages).
    ///
    /// # Panics
    ///
    /// Panics if `i` is out of range.
    pub fn evaluator_wire_labels(&self, i: usize) -> (Label, Label) {
        let idx = self.garbler_inputs + i;
        let zero = self.input_zero_labels[idx];
        (zero, zero.xor(&self.delta))
    }

    fn select(&self, wire: usize, bit: bool) -> Label {
        let zero = self.input_zero_labels[wire];
        if bit {
            zero.xor(&self.delta)
        } else {
            zero
        }
    }
}

/// Garbles a circuit. Returns the transferable garbling and the garbler's
/// secrets. Draws `Δ` and the input labels only: every other label is
/// derived.
pub fn garble<R: Rng + ?Sized>(circuit: &Circuit, rng: &mut R) -> (GarbledCircuit, GarblerSecrets) {
    let delta = Label::random_delta(rng);
    let input_zero_labels: Vec<Label> = (0..circuit.total_inputs())
        .map(|_| Label::random(rng))
        .collect();
    let garbled = garble_inputs(circuit, &delta, input_zero_labels.clone());
    let secrets = GarblerSecrets {
        delta,
        input_zero_labels,
        garbler_inputs: circuit.garbler_inputs(),
    };
    (garbled, secrets)
}

/// Garbles a circuit with the garbler's input bits `a_bits` hardwired
/// (Kolesnikov & Schneider, ICALP 2008): every garbler input takes the
/// public active label [`Label::ZERO`], so its false label is `aᵢ·Δ` and
/// nothing of it crosses the wire. The evaluator's inputs take the false
/// labels it is handed (in a comparison, the OT's branch-0 keys). The
/// evaluator evaluates with `Label::ZERO` for every garbler input.
///
/// A public label is safe only where free XOR masks it with a secret
/// one, so every garbler input must feed XOR gates only.
///
/// # Errors
///
/// * [`CircuitError::InputWidthMismatch`] if `a_bits` or
///   `evaluator_zero_labels` does not match the circuit's widths;
/// * [`CircuitError::GarblerInputFeedsAnd`] if a garbler input is an
///   operand of an AND gate, whose rows would then hash its label in the
///   clear.
pub fn garble_hardwired(
    circuit: &Circuit,
    a_bits: &[bool],
    delta: &Label,
    evaluator_zero_labels: &[Label],
) -> Result<GarbledCircuit, CircuitError> {
    for (expected, got) in [
        (circuit.garbler_inputs(), a_bits.len()),
        (circuit.evaluator_inputs(), evaluator_zero_labels.len()),
    ] {
        if expected != got {
            return Err(CircuitError::InputWidthMismatch { expected, got });
        }
    }
    let garbler_input = |w: &WireId| (w.0 as usize) < circuit.garbler_inputs();
    let feeds_and = circuit.gates().iter().find_map(|g| match g {
        Gate::And { a, b, .. } => [a, b].into_iter().find(|w| garbler_input(w)),
        Gate::Xor { .. } => None,
    });
    if let Some(wire) = feeds_and {
        return Err(CircuitError::GarblerInputFeedsAnd {
            wire: wire.0 as usize,
        });
    }
    let inputs = (a_bits.iter())
        .map(|&a| if a { *delta } else { Label::ZERO })
        .chain(evaluator_zero_labels.iter().copied())
        .collect();
    Ok(garble_inputs(circuit, delta, inputs))
}

/// Garbles `circuit` under `delta` from the false labels of its input
/// wires.
fn garble_inputs(circuit: &Circuit, delta: &Label, mut zero_labels: Vec<Label>) -> GarbledCircuit {
    let delta = *delta;
    zero_labels.reserve(circuit.gates().len());
    // Gate outputs are appended in order; wire ids are dense by builder
    // construction.
    let mut and_tables = Vec::with_capacity(circuit.and_count());
    for (j, gate) in circuit.gates().iter().enumerate() {
        let o0 = match *gate {
            Gate::Xor { a, b, out } => {
                debug_assert_eq!(out.0 as usize, zero_labels.len());
                zero_labels[a.0 as usize].xor(&zero_labels[b.0 as usize])
            }
            Gate::And { a, b, out } => {
                debug_assert_eq!(out.0 as usize, zero_labels.len());
                let (a0, b0) = (zero_labels[a.0 as usize], zero_labels[b.0 as usize]);
                let (pa, pb) = (a0.permute_bit(), b0.permute_bit());
                let tweak = 2 * j as u64;
                let (ha0, ha1) = (gate_hash(&a0, tweak), gate_hash(&a0.xor(&delta), tweak));
                let (hb0, hb1) = (
                    gate_hash(&b0, tweak + 1),
                    gate_hash(&b0.xor(&delta), tweak + 1),
                );
                // Generator half: a ∧ p_b. Evaluator half: a ∧ (b ⊕ p_b).
                let t_g = ha0.xor(&ha1).xor_if(pb, &delta);
                let t_e = hb0.xor(&hb1).xor(&a0);
                let w_g = ha0.xor_if(pa, &t_g);
                let w_e = if pb { hb1 } else { hb0 };
                and_tables.push([t_g, t_e]);
                w_g.xor(&w_e)
            }
        };
        zero_labels.push(o0);
    }

    let output_hashes = (circuit.outputs().iter().enumerate())
        .map(|(k, &w)| {
            let o0 = zero_labels[w.0 as usize];
            [output_hash(&o0, k), output_hash(&o0.xor(&delta), k)]
        })
        .collect();

    GarbledCircuit {
        circuit: circuit.clone(),
        and_tables,
        output_hashes,
    }
}

/// Convenience for tests/local runs: picks the active labels for concrete
/// garbler and evaluator inputs (in a real run the evaluator's labels come
/// from OT).
pub fn select_input_labels(
    secrets: &GarblerSecrets,
    a_bits: &[bool],
    b_bits: &[bool],
) -> Vec<Label> {
    let mut labels = secrets.garbler_labels(a_bits);
    for (i, &b) in b_bits.iter().enumerate() {
        let (l0, l1) = secrets.evaluator_wire_labels(i);
        labels.push(if b { l1 } else { l0 });
    }
    labels
}

/// Evaluates a garbled circuit given one active label per input wire.
///
/// # Errors
///
/// * [`CircuitError::InputWidthMismatch`] / [`CircuitError::MalformedGarbling`]
///   if the label or table count is inconsistent with the topology;
/// * [`CircuitError::OutputNotAuthentic`] if an output label is neither
///   of the garbler's — some input label or table row was not the one
///   garbled.
pub fn eval_garbled(
    gc: &GarbledCircuit,
    input_labels: &[Label],
) -> Result<Vec<bool>, CircuitError> {
    let circuit = &gc.circuit;
    if input_labels.len() != circuit.total_inputs() {
        return Err(CircuitError::InputWidthMismatch {
            expected: circuit.total_inputs(),
            got: input_labels.len(),
        });
    }
    if gc.and_tables.len() != circuit.and_count() {
        return Err(CircuitError::MalformedGarbling("AND table count mismatch"));
    }
    if gc.output_hashes.len() != circuit.outputs().len() {
        return Err(CircuitError::MalformedGarbling(
            "output hash count mismatch",
        ));
    }

    let mut labels: Vec<Label> = Vec::with_capacity(circuit.num_wires());
    labels.extend_from_slice(input_labels);
    let mut tables = gc.and_tables.iter();
    for (j, gate) in circuit.gates().iter().enumerate() {
        let o = match *gate {
            Gate::Xor { a, b, .. } => labels[a.0 as usize].xor(&labels[b.0 as usize]),
            Gate::And { a, b, .. } => {
                let (la, lb) = (labels[a.0 as usize], labels[b.0 as usize]);
                let [t_g, t_e] = tables
                    .next()
                    .ok_or(CircuitError::MalformedGarbling("AND table count mismatch"))?;
                let tweak = 2 * j as u64;
                let w_g = gate_hash(&la, tweak).xor_if(la.permute_bit(), t_g);
                let w_e = gate_hash(&lb, tweak + 1).xor_if(lb.permute_bit(), &t_e.xor(&la));
                w_g.xor(&w_e)
            }
        };
        labels.push(o);
    }

    (circuit.outputs().iter().zip(&gc.output_hashes).enumerate())
        .map(|(k, (&w, [h0, h1]))| {
            let h = output_hash(&labels[w.0 as usize], k);
            match (h == *h0, h == *h1) {
                (true, false) => Ok(false),
                (false, true) => Ok(true),
                _ => Err(CircuitError::OutputNotAuthentic { output: k }),
            }
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::circuit::{
        comparator_circuit, u128_to_bits, wrapped_comparator_circuit, CircuitBuilder,
    };
    use pem_crypto::drbg::HashDrbg;

    /// Runs the garbled `w`-bit comparator on `a < b`.
    fn garbled_less_than(w: usize, a: u128, b: u128, seed: u64) -> bool {
        let c = comparator_circuit(w);
        let mut rng = HashDrbg::from_seed_label(b"garble-cmp", seed);
        let (gc, secrets) = garble(&c, &mut rng);
        let labels = select_input_labels(&secrets, &u128_to_bits(a, w), &u128_to_bits(b, w));
        eval_garbled(&gc, &labels).expect("evaluate")[0]
    }

    #[test]
    fn comparator_garbled_exhaustive_4bit() {
        // Every pair at widths 1 through 5 (the name predates widths
        // other than 4).
        for w in 1..=5 {
            for a in 0..1u128 << w {
                for b in 0..1u128 << w {
                    let seed = (w as u64) << 16 | (a as u64) << 8 | b as u64;
                    assert_eq!(garbled_less_than(w, a, b, seed), a < b, "w={w} a={a} b={b}");
                }
            }
        }
    }

    #[test]
    fn wrapped_comparator_garbled_exhaustive() {
        // Every pair of integers less than 2^(w−1) apart, fed as residues
        // mod 2^w, at widths 1 through 6: x runs over one period, so the
        // residue pairs are all those the comparator is defined on. The
        // garbler's bits are hardwired, as in the comparison protocol.
        for w in 1..=6 {
            let c = wrapped_comparator_circuit(w);
            let (half, mask) = (1i128 << (w - 1), (1u128 << w) - 1);
            for x in 1u128 << w..2 << w {
                for d in 1 - half..half {
                    let y = (x as i128 + d) as u128;
                    let seed = (w as u64) << 16 | (x as u64) << 8 | y as u64;
                    let mut rng = HashDrbg::from_seed_label(b"garble-wrapped", seed);
                    let delta = Label::random_delta(&mut rng);
                    let zero: Vec<Label> = (0..w).map(|_| Label::random(&mut rng)).collect();
                    let a_bits = u128_to_bits(x & mask, w);
                    let gc = garble_hardwired(&c, &a_bits, &delta, &zero).expect("hardwired");
                    let mut labels = vec![Label::ZERO; w];
                    let b_bits = u128_to_bits(y & mask, w);
                    labels.extend((zero.iter().zip(&b_bits)).map(|(l, &b)| l.xor_if(b, &delta)));
                    assert_eq!(
                        eval_garbled(&gc, &labels),
                        Ok(vec![x < y]),
                        "w={w} x={x} y={y}"
                    );
                }
            }
        }
    }

    #[test]
    fn comparator_garbled_edge_cases_at_full_widths() {
        for w in [64usize, 128] {
            let max = if w == 128 { u128::MAX } else { (1 << w) - 1 };
            let mid = 0x5a5a_5a5a_5a5a_5a5a_u128;
            let mut pairs = vec![(0, 0), (0, max), (max, 0), (max, max), (max - 1, max)];
            pairs.extend([(mid, mid), (mid, mid + 1), (mid + 1, mid), (mid - 1, mid)]);
            pairs.extend([(mid, mid - 1), (0, 1), (1, 0)]);
            for (i, (a, b)) in pairs.into_iter().enumerate() {
                assert_eq!(
                    garbled_less_than(w, a, b, i as u64),
                    a < b,
                    "w={w} a={a} b={b}"
                );
            }
        }
    }

    #[test]
    fn wrong_label_count_rejected() {
        let c = comparator_circuit(4);
        let mut rng = HashDrbg::new(b"badlabels");
        let (gc, secrets) = garble(&c, &mut rng);
        let labels = select_input_labels(&secrets, &u128_to_bits(1, 4), &u128_to_bits(2, 4));
        assert!(matches!(
            eval_garbled(&gc, &labels[..5]),
            Err(CircuitError::InputWidthMismatch { .. })
        ));
    }

    #[test]
    fn a_wrong_label_or_table_row_fails_authentication() {
        let c = comparator_circuit(8);
        let mut rng = HashDrbg::new(b"tamper");
        let (gc, secrets) = garble(&c, &mut rng);
        let labels = select_input_labels(&secrets, &u128_to_bits(90, 8), &u128_to_bits(91, 8));
        assert_eq!(eval_garbled(&gc, &labels), Ok(vec![true]));
        // A garbage evaluator label (a broken OT) on every wire.
        for wire in 8..16 {
            let mut bad = labels.clone();
            bad[wire].0[3] ^= 0x40;
            assert_eq!(
                eval_garbled(&gc, &bad),
                Err(CircuitError::OutputNotAuthentic { output: 0 }),
                "wire {wire}"
            );
        }
        // A flipped byte in each row of each table: a row the evaluator
        // decrypts derails it, one it skips leaves the output intact.
        let (mut failed, mut intact) = (0, 0);
        for gate in 0..gc.table_count() {
            for row in 0..2 {
                let mut bad = gc.clone();
                bad.and_tables[gate][row].0[7] ^= 1;
                match eval_garbled(&bad, &labels) {
                    Ok(out) => {
                        assert_eq!(out, vec![true], "gate {gate} row {row}");
                        intact += 1;
                    }
                    Err(e) => {
                        assert_eq!(e, CircuitError::OutputNotAuthentic { output: 0 });
                        failed += 1;
                    }
                }
            }
        }
        assert!(failed > 0 && intact > 0, "{failed} failed, {intact} intact");
    }

    #[test]
    fn a_garbler_input_feeding_an_and_is_refused() {
        // x₁ reaches an AND directly: its public label would be hashed in
        // the clear, so the circuit cannot be garbled hardwired.
        let mut b = CircuitBuilder::new();
        let xs = b.add_garbler_inputs(2);
        let ys = b.add_evaluator_inputs(2);
        let t = b.xor(xs[0], ys[0]);
        let u = b.and(ys[1], xs[1]);
        let out = b.and(t, u);
        b.set_outputs(&[out]);
        let c = b.build();
        let mut rng = HashDrbg::new(b"feeds-and");
        let delta = Label::random_delta(&mut rng);
        let zero = [Label::random(&mut rng), Label::random(&mut rng)];
        assert_eq!(
            garble_hardwired(&c, &[true, false], &delta, &zero).map(|_| ()),
            Err(CircuitError::GarblerInputFeedsAnd { wire: 1 })
        );
        // Mismatched widths are typed too.
        assert_eq!(
            garble_hardwired(&c, &[true], &delta, &zero).map(|_| ()),
            Err(CircuitError::InputWidthMismatch {
                expected: 2,
                got: 1
            })
        );
        let comparator = comparator_circuit(2);
        assert_eq!(
            garble_hardwired(&comparator, &[true, true], &delta, &zero[..1]).map(|_| ()),
            Err(CircuitError::InputWidthMismatch {
                expected: 2,
                got: 1
            })
        );
    }

    #[test]
    fn labels_leak_nothing_obvious() {
        // Garbling the same circuit twice yields unrelated tables.
        let c = comparator_circuit(8);
        let mut r1 = HashDrbg::new(b"g1");
        let mut r2 = HashDrbg::new(b"g2");
        let (gc1, _) = garble(&c, &mut r1);
        let (gc2, _) = garble(&c, &mut r2);
        assert_ne!(gc1.and_tables, gc2.and_tables);
    }

    #[test]
    fn delta_lsb_is_one() {
        let c = comparator_circuit(2);
        let mut rng = HashDrbg::new(b"delta");
        let (_, secrets) = garble(&c, &mut rng);
        assert!(secrets.delta().permute_bit());
        // The two labels of any evaluator wire disagree on the permute bit.
        let (l0, l1) = secrets.evaluator_wire_labels(0);
        assert_ne!(l0.permute_bit(), l1.permute_bit());
    }
}
