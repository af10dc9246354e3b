//! Serde support: a [`BigUint`] serializes as a decimal string, which is
//! human-readable, radix-safe and avoids endianness pitfalls.

use serde::de::Error as DeError;
use serde::{Deserialize, Deserializer, Serialize, Serializer};

use crate::biguint::BigUint;

impl Serialize for BigUint {
    fn serialize<S: Serializer>(&self, serializer: S) -> Result<S::Ok, S::Error> {
        serializer.serialize_str(&self.to_string())
    }
}

impl<'de> Deserialize<'de> for BigUint {
    fn deserialize<D: Deserializer<'de>>(deserializer: D) -> Result<Self, D::Error> {
        let s = String::deserialize(deserializer)?;
        s.parse().map_err(DeError::custom)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use serde::de::value::{Error as ValueError, StrDeserializer};
    use serde::de::IntoDeserializer;

    #[test]
    fn biguint_roundtrip_via_str_deserializer() {
        let v: BigUint = "340282366920938463463374607431768211456"
            .parse()
            .expect("parse");
        let de: StrDeserializer<ValueError> =
            "340282366920938463463374607431768211456".into_deserializer();
        let back = BigUint::deserialize(de).expect("deserialize");
        assert_eq!(back, v);
    }

    #[test]
    fn invalid_input_errors() {
        let de: StrDeserializer<ValueError> = "not-a-number".into_deserializer();
        assert!(BigUint::deserialize(de).is_err());
    }
}
