//! Property-based tests: garbled evaluation ≡ plaintext evaluation, and
//! the 2PC comparison ≡ the `<` operator.

use pem_circuit::garble::{eval_garbled, garble, select_input_labels};
use pem_circuit::{
    comparator_circuit, compare::secure_less_than_local, eval_plaintext, u128_to_bits,
    CircuitBuilder,
};
use pem_crypto::drbg::HashDrbg;
use pem_crypto::ot::DhGroup;
use proptest::collection::vec;
use proptest::prelude::*;

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    #[test]
    fn garbled_comparator_matches_plaintext(a in any::<u32>(), b in any::<u32>(), seed in any::<u64>()) {
        let c = comparator_circuit(32);
        let mut rng = HashDrbg::from_seed_label(b"prop-garble", seed);
        let (gc, secrets) = garble(&c, &mut rng);
        let ab = u128_to_bits(a as u128, 32);
        let bb = u128_to_bits(b as u128, 32);
        let labels = select_input_labels(&secrets, &ab, &bb);
        let out = eval_garbled(&gc, &labels).expect("evaluate");
        prop_assert_eq!(out.clone(), eval_plaintext(&c, &ab, &bb));
        prop_assert_eq!(out[0], a < b);
    }

    /// Random XOR/AND gate lists: each operand is any earlier wire, so
    /// inputs fan out to many gates, and `same` forces `AND(a, a)` /
    /// `XOR(a, a)`.
    #[test]
    fn garbled_gate_lists_match_plaintext(
        garbler_inputs in 1usize..4,
        evaluator_inputs in 0usize..4,
        gates in vec((any::<bool>(), any::<u32>(), any::<u32>(), any::<bool>()), 1..40),
        outputs in vec(any::<u32>(), 1..4),
        a in any::<u8>(),
        b in any::<u8>(),
        seed in any::<u64>(),
    ) {
        let mut builder = CircuitBuilder::new();
        let mut wires = builder.add_garbler_inputs(garbler_inputs);
        wires.extend(builder.add_evaluator_inputs(evaluator_inputs));
        for &(is_and, x, y, same) in &gates {
            let x = wires[x as usize % wires.len()];
            let y = if same { x } else { wires[y as usize % wires.len()] };
            let out = if is_and { builder.and(x, y) } else { builder.xor(x, y) };
            wires.push(out);
        }
        let outputs: Vec<_> = outputs.iter().map(|&o| wires[o as usize % wires.len()]).collect();
        builder.set_outputs(&outputs);
        let c = builder.build();
        let ab = u128_to_bits(a as u128 % (1 << garbler_inputs), garbler_inputs);
        let bb = u128_to_bits(b as u128 % (1 << evaluator_inputs), evaluator_inputs);
        let mut rng = HashDrbg::from_seed_label(b"prop-gates", seed);
        let (gc, secrets) = garble(&c, &mut rng);
        let labels = select_input_labels(&secrets, &ab, &bb);
        prop_assert_eq!(eval_garbled(&gc, &labels).expect("evaluate"), eval_plaintext(&c, &ab, &bb));
    }
}

proptest! {
    // The OT-backed protocol is ~50ms per case; keep the case count low.
    #![proptest_config(ProptestConfig::with_cases(8))]

    #[test]
    fn two_party_comparison_matches_operator(a in any::<u32>(), b in any::<u32>(), seed in any::<u64>()) {
        let group = DhGroup::test_192().into();
        let mut rng = HashDrbg::from_seed_label(b"prop-2pc", seed);
        let got = secure_less_than_local(a as u128, b as u128, 32, &group, &mut rng)
            .expect("protocol");
        prop_assert_eq!(got, a < b);
    }
}
