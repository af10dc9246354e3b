//! Pedersen-style commitments over a safe-prime group.
//!
//! The paper's Discussion (§VI, "Malicious Model") proposes verifiable
//! schemes to detect integrity violations by malicious agents. This module
//! provides the standard building block: a perfectly hiding,
//! computationally binding commitment `C = g^v · h^r mod p`, with `h`
//! derived by hashing into the quadratic-residue subgroup so nobody knows
//! `log_g(h)`.
//!
//! Commitments are additively homomorphic, matching the aggregation shape
//! of Protocols 2–3: `C(a, r) · C(b, s) = C(a+b, r+s)`.

use std::sync::{Arc, OnceLock};

use rand::Rng;
use serde::{Deserialize, Serialize};

use pem_bignum::{BigUint, FixedBasePow};

use crate::error::CryptoError;
use crate::ot::DhGroup;
use crate::sha256::kdf;

/// Public parameters for Pedersen commitments.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct PedersenParams {
    group: DhGroup,
    h: BigUint,
    /// Comb table for `h` — `g`'s lives on the group. Every commitment
    /// (and every verification, which recommits) is a fused two-base
    /// fixed-base exponentiation: window-count multiplications total,
    /// no squarings. Built lazily, bit-identical results.
    #[serde(skip)]
    h_table: OnceLock<Arc<FixedBasePow>>,
}

impl PartialEq for PedersenParams {
    fn eq(&self, other: &Self) -> bool {
        self.group == other.group && self.h == other.h
    }
}

impl Eq for PedersenParams {}

/// A commitment value (group element).
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct Commitment(pub BigUint);

impl PedersenParams {
    /// Derives parameters from a group: `h = H(p, "pedersen")² mod p`
    /// (a quadratic residue with unknown discrete log).
    pub fn derive(group: DhGroup) -> PedersenParams {
        let p_bytes = group.p().to_bytes_be();
        let needed = p_bytes.len() + 16;
        let digest = kdf(&p_bytes, b"pem-pedersen-h", needed);
        let x = BigUint::from_bytes_be(&digest) % group.p();
        let h = group.mul(&x, &x); // square into the QR subgroup
        assert!(
            h > BigUint::one(),
            "degenerate h; change the derivation label"
        );
        PedersenParams {
            group,
            h,
            h_table: OnceLock::new(),
        }
    }

    /// The cached comb table for `h`, sized for subgroup exponents.
    fn h_table(&self) -> &Arc<FixedBasePow> {
        self.h_table.get_or_init(|| {
            let q_bits = self.group.q().bit_length();
            Arc::new(self.group.fixed_base_table(&self.h, q_bits))
        })
    }

    /// The underlying group.
    pub fn group(&self) -> &DhGroup {
        &self.group
    }

    /// The second generator `h`.
    pub fn h(&self) -> &BigUint {
        &self.h
    }

    /// Samples a blinding factor uniformly from `[1, q)`.
    pub fn random_blinding<R: Rng + ?Sized>(&self, rng: &mut R) -> BigUint {
        self.group.random_exponent(rng)
    }

    /// Commits to `value` with blinding `r`: `g^value · h^r mod p` as a
    /// fused two-base fixed-base exponentiation off the cached comb
    /// tables — window-count multiplications, no squarings, the same
    /// bits the two-ladder formulation produced.
    ///
    /// Values are reduced modulo the subgroup order `q`.
    pub fn commit(&self, value: &BigUint, r: &BigUint) -> Commitment {
        let q = self.group.q();
        Commitment(
            self.group
                .g_table()
                .pow_mul(&(value % q), self.h_table(), &(r % q)),
        )
    }

    /// Verifies that `commitment` opens to `(value, r)`.
    ///
    /// # Errors
    ///
    /// [`CryptoError::CommitmentMismatch`] when the opening is wrong.
    pub fn verify(
        &self,
        commitment: &Commitment,
        value: &BigUint,
        r: &BigUint,
    ) -> Result<(), CryptoError> {
        if self.commit(value, r) == *commitment {
            Ok(())
        } else {
            Err(CryptoError::CommitmentMismatch)
        }
    }

    /// Homomorphic combination: `C(a, r)·C(b, s) = C(a+b, r+s)`.
    pub fn combine(&self, a: &Commitment, b: &Commitment) -> Commitment {
        Commitment(self.group.mul(&a.0, &b.0))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::drbg::HashDrbg;

    fn params() -> PedersenParams {
        PedersenParams::derive(DhGroup::test_192())
    }

    #[test]
    fn commit_and_verify() {
        let pp = params();
        let mut rng = HashDrbg::new(b"pedersen");
        let v = BigUint::from(123_456u64);
        let r = pp.random_blinding(&mut rng);
        let c = pp.commit(&v, &r);
        assert!(pp.verify(&c, &v, &r).is_ok());
    }

    #[test]
    fn wrong_opening_rejected() {
        let pp = params();
        let mut rng = HashDrbg::new(b"pedersen-wrong");
        let v = BigUint::from(10u64);
        let r = pp.random_blinding(&mut rng);
        let c = pp.commit(&v, &r);
        assert!(pp.verify(&c, &BigUint::from(11u64), &r).is_err());
        let r2 = pp.random_blinding(&mut rng);
        assert!(pp.verify(&c, &v, &r2).is_err());
    }

    #[test]
    fn hiding_different_blinding_different_commitment() {
        let pp = params();
        let mut rng = HashDrbg::new(b"pedersen-hide");
        let v = BigUint::from(5u64);
        let c1 = pp.commit(&v, &pp.random_blinding(&mut rng));
        let c2 = pp.commit(&v, &pp.random_blinding(&mut rng));
        assert_ne!(c1, c2);
    }

    #[test]
    fn additive_homomorphism() {
        let pp = params();
        let mut rng = HashDrbg::new(b"pedersen-hom");
        let (a, b) = (BigUint::from(30u64), BigUint::from(12u64));
        let (ra, rb) = (pp.random_blinding(&mut rng), pp.random_blinding(&mut rng));
        let ca = pp.commit(&a, &ra);
        let cb = pp.commit(&b, &rb);
        let combined = pp.combine(&ca, &cb);
        assert!(pp.verify(&combined, &(&a + &b), &(&ra + &rb)).is_ok());
    }

    #[test]
    fn fused_commit_matches_two_ladders() {
        // The comb-table commitment must emit exactly the bits of the
        // textbook g^v · h^r formulation.
        let pp = params();
        let mut rng = HashDrbg::new(b"pedersen-fused");
        for _ in 0..6 {
            let v = BigUint::from(rng.gen::<u64>());
            let r = pp.random_blinding(&mut rng);
            let g = pp.group();
            let expected = g.mul(&g.pow(g.g(), &(&v % g.q())), &g.pow(pp.h(), &(&r % g.q())));
            assert_eq!(pp.commit(&v, &r).0, expected);
        }
    }

    #[test]
    fn deterministic_derivation() {
        assert_eq!(params(), params());
        assert!(params().h() > &BigUint::one());
    }
}
