//! Gate-list circuit representation and the comparator construction.

use serde::{Deserialize, Serialize};

/// Identifies a wire in a [`Circuit`]. Wires are numbered with all garbler
/// input wires first, evaluator input wires second, then one wire per gate
/// output.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord, Serialize, Deserialize)]
pub struct WireId(pub u32);

/// A gate over boolean wires. Only XOR/AND are needed: XOR is "free"
/// under the garbling scheme, AND costs one garbled table.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub enum Gate {
    /// `out = a ^ b`
    Xor {
        /// Left input wire.
        a: WireId,
        /// Right input wire.
        b: WireId,
        /// Output wire.
        out: WireId,
    },
    /// `out = a & b`
    And {
        /// Left input wire.
        a: WireId,
        /// Right input wire.
        b: WireId,
        /// Output wire.
        out: WireId,
    },
}

/// An immutable boolean circuit with a two-party input split.
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct Circuit {
    garbler_inputs: usize,
    evaluator_inputs: usize,
    gates: Vec<Gate>,
    outputs: Vec<WireId>,
    num_wires: usize,
}

impl Circuit {
    /// Number of garbler (party A) input bits.
    pub fn garbler_inputs(&self) -> usize {
        self.garbler_inputs
    }

    /// Number of evaluator (party B) input bits.
    pub fn evaluator_inputs(&self) -> usize {
        self.evaluator_inputs
    }

    /// Total input wires.
    pub fn total_inputs(&self) -> usize {
        self.garbler_inputs + self.evaluator_inputs
    }

    /// The gates in topological order.
    pub fn gates(&self) -> &[Gate] {
        &self.gates
    }

    /// The output wires.
    pub fn outputs(&self) -> &[WireId] {
        &self.outputs
    }

    /// Total number of wires (inputs + gate outputs).
    pub fn num_wires(&self) -> usize {
        self.num_wires
    }

    /// Number of AND gates (the garbled-table count — the cost metric).
    pub fn and_count(&self) -> usize {
        self.gates
            .iter()
            .filter(|g| matches!(g, Gate::And { .. }))
            .count()
    }
}

/// Incrementally builds a [`Circuit`].
///
/// # Example
///
/// ```
/// use pem_circuit::CircuitBuilder;
///
/// let mut b = CircuitBuilder::new();
/// let xs = b.add_garbler_inputs(2);
/// let ys = b.add_evaluator_inputs(2);
/// let lo = b.and(xs[0], ys[0]);
/// let hi = b.xor(xs[1], ys[1]);
/// b.set_outputs(&[lo, hi]);
/// let c = b.build();
/// assert_eq!(c.and_count(), 1);
/// ```
#[derive(Debug, Default)]
pub struct CircuitBuilder {
    garbler_inputs: usize,
    evaluator_inputs: usize,
    gates: Vec<Gate>,
    outputs: Vec<WireId>,
    next_wire: u32,
    inputs_frozen: bool,
}

impl CircuitBuilder {
    /// Creates an empty builder.
    pub fn new() -> Self {
        CircuitBuilder::default()
    }

    /// Declares `n` garbler input wires.
    ///
    /// # Panics
    ///
    /// Panics if called after the first gate was added (wire numbering
    /// requires all inputs to come first).
    pub fn add_garbler_inputs(&mut self, n: usize) -> Vec<WireId> {
        assert!(!self.inputs_frozen, "inputs must be declared before gates");
        assert!(
            self.evaluator_inputs == 0,
            "declare garbler inputs before evaluator inputs"
        );
        self.garbler_inputs += n;
        self.alloc(n)
    }

    /// Declares `n` evaluator input wires.
    ///
    /// # Panics
    ///
    /// Panics if called after the first gate was added.
    pub fn add_evaluator_inputs(&mut self, n: usize) -> Vec<WireId> {
        assert!(!self.inputs_frozen, "inputs must be declared before gates");
        self.evaluator_inputs += n;
        self.alloc(n)
    }

    fn alloc(&mut self, n: usize) -> Vec<WireId> {
        let start = self.next_wire;
        self.next_wire += n as u32;
        (start..self.next_wire).map(WireId).collect()
    }

    fn alloc_one(&mut self) -> WireId {
        self.inputs_frozen = true;
        let w = WireId(self.next_wire);
        self.next_wire += 1;
        w
    }

    /// `a ^ b` (free under garbling).
    pub fn xor(&mut self, a: WireId, b: WireId) -> WireId {
        let out = self.alloc_one();
        self.gates.push(Gate::Xor { a, b, out });
        out
    }

    /// `a & b` (one garbled table).
    pub fn and(&mut self, a: WireId, b: WireId) -> WireId {
        let out = self.alloc_one();
        self.gates.push(Gate::And { a, b, out });
        out
    }

    /// Unsigned `a < b` over little-endian bit vectors of equal width.
    ///
    /// The carry chain of Kolesnikov, Sadeghi & Schneider (CANS 2009),
    /// with `x = b`, `y = a` and `c₀ = 0`:
    /// `cᵢ₊₁ = xᵢ ⊕ ((xᵢ ⊕ cᵢ) ∧ (yᵢ ⊕ cᵢ))`. Where the bits differ the
    /// AND is 0 and the carry becomes `xᵢ`; where they agree it passes
    /// `cᵢ` on. So `c_w` is `b`'s bit at the highest differing position,
    /// or 0 when `a = b`. Bit 0 is `c₁ = x₀ ∧ (x₀ ⊕ y₀)` (that is
    /// `x₀ ∧ ¬y₀`), so every bit of `a` enters through an XOR and a
    /// garbler holding `a` can hardwire it ([`crate::garble::garble_hardwired`]).
    /// Costs exactly `w` ANDs; everything else is XOR.
    ///
    /// # Panics
    ///
    /// Panics if the slices have different lengths or are empty.
    pub fn less_than(&mut self, a: &[WireId], b: &[WireId]) -> WireId {
        assert_eq!(a.len(), b.len(), "operand widths must match");
        assert!(!a.is_empty(), "comparator needs at least one bit");
        // Bit 0, with c₀ = 0: x₀ ∧ (x₀ ⊕ y₀).
        let differ = self.xor(b[0], a[0]);
        let mut carry = self.and(b[0], differ);
        for (&y, &x) in a.iter().zip(b).skip(1) {
            let xc = self.xor(x, carry);
            let yc = self.xor(y, carry);
            let t = self.and(xc, yc);
            carry = self.xor(x, t);
        }
        carry
    }

    /// Declares the circuit outputs.
    pub fn set_outputs(&mut self, outputs: &[WireId]) {
        self.outputs = outputs.to_vec();
    }

    /// Finalizes the circuit.
    ///
    /// # Panics
    ///
    /// Panics if no outputs were declared or a gate references an
    /// out-of-range wire.
    pub fn build(self) -> Circuit {
        assert!(!self.outputs.is_empty(), "circuit must have outputs");
        let n = self.next_wire;
        let check = |w: WireId| assert!(w.0 < n, "wire {w:?} out of range");
        for g in &self.gates {
            match *g {
                Gate::Xor { a, b, out } | Gate::And { a, b, out } => {
                    check(a);
                    check(b);
                    check(out);
                }
            }
        }
        for &o in &self.outputs {
            check(o);
        }
        Circuit {
            garbler_inputs: self.garbler_inputs,
            evaluator_inputs: self.evaluator_inputs,
            gates: self.gates,
            outputs: self.outputs,
            num_wires: self.next_wire as usize,
        }
    }
}

/// Builds the `w`-bit unsigned comparator used by Protocol 2:
/// output = `a < b` where `a` is the garbler's value, `b` the evaluator's.
pub fn comparator_circuit(width: usize) -> Circuit {
    let mut b = CircuitBuilder::new();
    let xs = b.add_garbler_inputs(width);
    let ys = b.add_evaluator_inputs(width);
    let lt = b.less_than(&xs, &ys);
    b.set_outputs(&[lt]);
    b.build()
}

/// Evaluates a circuit in the clear.
///
/// `a_bits`/`b_bits` are the garbler/evaluator inputs, LSB-first.
///
/// # Panics
///
/// Panics if the input widths do not match the circuit.
pub fn eval_plaintext(circuit: &Circuit, a_bits: &[bool], b_bits: &[bool]) -> Vec<bool> {
    assert_eq!(a_bits.len(), circuit.garbler_inputs(), "garbler width");
    assert_eq!(b_bits.len(), circuit.evaluator_inputs(), "evaluator width");
    let mut wires = vec![false; circuit.num_wires()];
    wires[..a_bits.len()].copy_from_slice(a_bits);
    wires[a_bits.len()..a_bits.len() + b_bits.len()].copy_from_slice(b_bits);
    for g in circuit.gates() {
        match *g {
            Gate::Xor { a, b, out } => {
                wires[out.0 as usize] = wires[a.0 as usize] ^ wires[b.0 as usize]
            }
            Gate::And { a, b, out } => {
                wires[out.0 as usize] = wires[a.0 as usize] & wires[b.0 as usize]
            }
        }
    }
    circuit
        .outputs()
        .iter()
        .map(|&w| wires[w.0 as usize])
        .collect()
}

/// Little-endian bit decomposition of `v` into `width` bits.
///
/// # Panics
///
/// Panics if `v` does not fit in `width` bits.
pub fn u128_to_bits(v: u128, width: usize) -> Vec<bool> {
    assert!(
        width >= 128 || v >> width == 0,
        "value needs more than {width} bits"
    );
    (0..width).map(|i| (v >> i) & 1 == 1).collect()
}

/// Reassembles bits (LSB-first) into a u128.
///
/// # Panics
///
/// Panics if more than 128 bits are supplied.
pub fn bits_to_u128(bits: &[bool]) -> u128 {
    assert!(bits.len() <= 128, "too many bits for u128");
    bits.iter()
        .enumerate()
        .fold(0u128, |acc, (i, &b)| acc | ((b as u128) << i))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn comparator_truth_table_small() {
        for w in 1..=5 {
            let c = comparator_circuit(w);
            for a in 0..1u128 << w {
                for b in 0..1u128 << w {
                    let out = eval_plaintext(&c, &u128_to_bits(a, w), &u128_to_bits(b, w));
                    assert_eq!(out, vec![a < b], "w={w} a={a} b={b}");
                }
            }
        }
    }

    #[test]
    fn comparator_and_count_is_linear() {
        for w in [1, 2, 63, 64, 128] {
            let c = comparator_circuit(w);
            assert_eq!(c.and_count(), w, "one AND per bit at w = {w}");
            assert_eq!(c.gates().len(), 4 * w - 2, "and three XORs per bit past 0");
        }
    }

    #[test]
    fn bits_roundtrip() {
        for v in [0u128, 1, 77, u64::MAX as u128, u128::MAX] {
            assert_eq!(bits_to_u128(&u128_to_bits(v, 128)), v);
        }
    }

    #[test]
    #[should_panic(expected = "more than 8 bits")]
    fn bits_overflow_panics() {
        u128_to_bits(256, 8);
    }

    #[test]
    #[should_panic(expected = "before gates")]
    fn inputs_after_gates_panic() {
        let mut b = CircuitBuilder::new();
        let xs = b.add_garbler_inputs(2);
        let _ = b.xor(xs[0], xs[1]);
        b.add_evaluator_inputs(1);
    }

    #[test]
    #[should_panic(expected = "must have outputs")]
    fn build_without_outputs_panics() {
        let mut b = CircuitBuilder::new();
        let xs = b.add_garbler_inputs(2);
        let _ = b.xor(xs[0], xs[1]);
        b.build();
    }
}
