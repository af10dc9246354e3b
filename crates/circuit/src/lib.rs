//! Boolean circuits and Yao garbled-circuit two-party computation.
//!
//! PEM (ICDCS 2020) uses garbled circuits for exactly one task: the secure
//! comparison at the end of **Private Market Evaluation** (Protocol 2,
//! lines 14–18), where a randomly chosen seller holding `R_s` and a
//! randomly chosen buyer holding `R_b` learn only the predicate
//! `R_s < R_b`. The paper delegates this to the Fairplay system (ref. 27); this
//! crate is our from-scratch equivalent:
//!
//! * [`Circuit`]/[`CircuitBuilder`] — gate-list IR over XOR/AND, the
//!   `w`-AND carry-chain comparator ([`comparator_circuit`]) and the one
//!   construction the protocol builds on it, the `(w − 1)`-AND wrapped
//!   comparator of residues mod `2^w` ([`wrapped_comparator_circuit`]),
//! * [`garble`] — the garbling scheme: half-gates (two 16-byte rows per
//!   AND), free XOR, a SHA-256 gate hash, and authenticated outputs, so
//!   an evaluation derailed by a tampered row or label is a typed error;
//!   [`garble::garble_hardwired`] folds the garbler's own bits into the
//!   garbling, so none of its labels is sent,
//! * [`compare`] — the three-message two-party comparison protocol
//!   (garbler → evaluator: the OT setup; evaluator → garbler: OT
//!   replies; garbler → evaluator: the garbled circuit and the label
//!   corrections), built on `pem-crypto`'s random oblivious transfer.
//!
//! # Example: evaluating a comparator in the clear and garbled
//!
//! ```
//! use pem_circuit::{comparator_circuit, eval_plaintext, u128_to_bits, garble};
//! use pem_crypto::drbg::HashDrbg;
//!
//! let circuit = comparator_circuit(16);
//! let a = u128_to_bits(300, 16);  // garbler input
//! let b = u128_to_bits(1000, 16); // evaluator input
//! let clear = eval_plaintext(&circuit, &a, &b);
//! assert_eq!(clear, vec![true]); // 300 < 1000
//!
//! let mut rng = HashDrbg::new(b"doc");
//! let (garbled, secrets) = garble::garble(&circuit, &mut rng);
//! let labels = garble::select_input_labels(&secrets, &a, &b);
//! assert_eq!(garble::eval_garbled(&garbled, &labels).unwrap(), clear);
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod circuit;
pub mod compare;
pub mod error;
pub mod garble;

pub use circuit::{
    bits_to_u128, comparator_circuit, eval_plaintext, u128_to_bits, wrapped_comparator_circuit,
    Circuit, CircuitBuilder, Gate, WireId,
};
pub use error::CircuitError;
