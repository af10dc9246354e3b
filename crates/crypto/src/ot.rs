//! 1-out-of-2 oblivious transfer over `Z_p*`.
//!
//! PEM's Private Market Evaluation (Protocol 2) ends with a garbled-circuit
//! comparison between two randomly chosen agents; the circuit evaluator
//! obtains the wire labels for its own input bits via OT. We implement the
//! Chou–Orlandi ("simplest OT") message flow in a prime-order subgroup of
//! `Z_p*` with `p` a safe prime, secure against semi-honest adversaries
//! (the paper's threat model, Section II-B):
//!
//! ```text
//! Sender:            a ←$ [1, q),  A = g^a
//! Receiver(c):       b ←$ [1, q),  B = g^b        if c = 0
//!                                  B = A · g^b    if c = 1
//! Sender:            k0 = H(B^a), k1 = H((B/A)^a)
//!                    e_i = m_i ⊕ KDF(k_i)
//! Receiver:          k_c = H(A^b) → m_c = e_c ⊕ KDF(k_c)
//! ```
//!
//! The sender computes `(B/A)^a` as `B^a · g^(−a²)`: one ladder per OT,
//! every `g^x` off the group's shared comb table.
//!
//! Groups: RFC 2409 Oakley Group 2 (1024-bit) and RFC 3526 Group 14
//! (2048-bit), plus a 192-bit safe-prime group for fast unit tests. All
//! primes are verified safe primes.

use std::sync::{Arc, OnceLock};

use rand::Rng;
use serde::{Deserialize, Serialize};

use pem_bignum::{BigUint, FixedBasePow, Montgomery};

use crate::error::CryptoError;
use crate::sha256::{kdf, Sha256};

/// RFC 2409 Oakley Group 2 prime (1024-bit safe prime), generator 2.
const MODP_1024_HEX: &str = "FFFFFFFFFFFFFFFFC90FDAA22168C234C4C6628B80DC1CD129024E088A67CC74\
020BBEA63B139B22514A08798E3404DDEF9519B3CD3A431B302B0A6DF25F1437\
4FE1356D6D51C245E485B576625E7EC6F44C42E9A637ED6B0BFF5CB6F406B7ED\
EE386BFB5A899FA5AE9F24117C4B1FE649286651ECE65381FFFFFFFFFFFFFFFF";

/// RFC 3526 Group 14 prime (2048-bit safe prime), generator 2.
const MODP_2048_HEX: &str = "FFFFFFFFFFFFFFFFC90FDAA22168C234C4C6628B80DC1CD129024E088A67CC74\
020BBEA63B139B22514A08798E3404DDEF9519B3CD3A431B302B0A6DF25F1437\
4FE1356D6D51C245E485B576625E7EC6F44C42E9A637ED6B0BFF5CB6F406B7ED\
EE386BFB5A899FA5AE9F24117C4B1FE649286651ECE45B3DC2007CB8A163BF05\
98DA48361C55D39A69163FA8FD24CF5F83655D23DCA3AD961C62F356208552BB\
9ED529077096966D670C354E4ABC9804F1746C08CA18217C32905E462E36CE3B\
E39E772C180E86039B2783A2EC07A28FB5C55DF06F4C52C9DE2BCBF695581718\
3995497CEA956AE515D2261898FA051015728E5A8AACAA68FFFFFFFFFFFFFFFF";

/// 192-bit safe prime for fast test profiles (generated and verified for
/// this project; NOT cryptographically sized). Generator 4 (a quadratic
/// residue, hence of prime order `q = (p-1)/2`).
const TEST_192_HEX: &str = "B664FE32B4E948E95FD8E69DD893AD839349C3CF7FC02893";

/// A multiplicative group `Z_p*` (safe prime `p`) with fixed generator.
///
/// A cheap handle: every clone shares one context, so the Montgomery
/// constants and the generator's comb table are built once per context
/// no matter how many OT instances hold the group. The built-in groups
/// ([`DhGroup::test_192`], [`DhGroup::modp_1024`], [`DhGroup::modp_2048`])
/// hand out handles to one process-wide context each.
// With upstream serde, `Arc` fields need its `rc` feature.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct DhGroup {
    ctx: Arc<GroupContext>,
}

#[derive(Debug, Serialize, Deserialize)]
struct GroupContext {
    p: BigUint,
    g: BigUint,
    /// Subgroup order `q = (p-1)/2`.
    q: BigUint,
    #[serde(skip)]
    mont: OnceLock<Montgomery>,
    /// Comb table for the generator: every `g^x` (three per OT, two per
    /// Pedersen commitment) costs window-count multiplications instead
    /// of a full square-and-multiply ladder. Built on the first `g^x`
    /// through *any* handle to this context, bit-identical results.
    #[serde(skip)]
    g_table: OnceLock<FixedBasePow>,
}

impl PartialEq for DhGroup {
    fn eq(&self, other: &Self) -> bool {
        self.p() == other.p() && self.g() == other.g()
    }
}

impl Eq for DhGroup {}

/// A handle to the process-wide context of a built-in group, parsed and
/// validated on first use.
fn builtin(cell: &'static OnceLock<DhGroup>, p_hex: &str, g: u64) -> DhGroup {
    cell.get_or_init(|| {
        let p = BigUint::from_str_radix(p_hex, 16).expect("const");
        DhGroup::from_parts(p, BigUint::from(g))
    })
    .clone()
}

impl DhGroup {
    /// Builds a group (a fresh context) from a safe prime and generator.
    ///
    /// # Panics
    ///
    /// Panics if `p` is even or `g` is not in `[2, p)`.
    pub fn from_parts(p: BigUint, g: BigUint) -> DhGroup {
        assert!(p.is_odd() && p.bit_length() >= 3, "p must be an odd prime");
        assert!(g >= BigUint::from(2u64) && g < p, "generator out of range");
        let q = (&p - &BigUint::one()) >> 1;
        DhGroup {
            ctx: Arc::new(GroupContext {
                p,
                g,
                q,
                mont: OnceLock::new(),
                g_table: OnceLock::new(),
            }),
        }
    }

    /// RFC 2409 Oakley Group 2: 1024-bit MODP, generator 2.
    pub fn modp_1024() -> DhGroup {
        static GROUP: OnceLock<DhGroup> = OnceLock::new();
        builtin(&GROUP, MODP_1024_HEX, 2)
    }

    /// RFC 3526 Group 14: 2048-bit MODP, generator 2.
    pub fn modp_2048() -> DhGroup {
        static GROUP: OnceLock<DhGroup> = OnceLock::new();
        builtin(&GROUP, MODP_2048_HEX, 2)
    }

    /// Small 192-bit group for unit tests and fast simulation profiles.
    pub fn test_192() -> DhGroup {
        static GROUP: OnceLock<DhGroup> = OnceLock::new();
        builtin(&GROUP, TEST_192_HEX, 4)
    }

    /// Selects a group whose prime is at least `bits` wide (192 → test
    /// group, ≤1024 → Oakley 2, otherwise Group 14).
    pub fn for_security(bits: usize) -> DhGroup {
        if bits <= 192 {
            DhGroup::test_192()
        } else if bits <= 1024 {
            DhGroup::modp_1024()
        } else {
            DhGroup::modp_2048()
        }
    }

    /// The prime modulus.
    pub fn p(&self) -> &BigUint {
        &self.ctx.p
    }

    /// The generator.
    pub fn g(&self) -> &BigUint {
        &self.ctx.g
    }

    /// The subgroup order `q = (p-1)/2`.
    pub fn q(&self) -> &BigUint {
        &self.ctx.q
    }

    fn mont(&self) -> &Montgomery {
        self.ctx
            .mont
            .get_or_init(|| Montgomery::new(self.ctx.p.clone()).expect("odd p"))
    }

    /// The generator's comb table, shared by every handle to this
    /// context and sized for exponents up to `p`'s width — any exponent
    /// reduced mod `p − 1` is served from the table, never from the
    /// generic ladder [`FixedBasePow::pow`] falls back to.
    pub fn g_table(&self) -> &FixedBasePow {
        self.ctx.g_table.get_or_init(|| {
            self.mont()
                .fixed_base_table(&self.ctx.g, self.ctx.p.bit_length())
        })
    }

    /// `base^exp mod p`.
    pub fn pow(&self, base: &BigUint, exp: &BigUint) -> BigUint {
        self.mont().modpow(base, exp)
    }

    /// Builds a comb table for an arbitrary base over this group's
    /// modulus, sized for subgroup exponents (Pedersen's `h` uses this;
    /// the generator's table is cached on the group itself).
    pub fn fixed_base_table(&self, base: &BigUint) -> FixedBasePow {
        self.mont().fixed_base_table(base, self.ctx.q.bit_length())
    }

    /// `g^exp mod p` off the context's fixed-base table — identical bits
    /// to `pow(g(), exp)`, at a fraction of the cost once the table
    /// exists (the first call on a context pays for the build).
    pub fn pow_g(&self, exp: &BigUint) -> BigUint {
        self.g_table().pow(exp)
    }

    /// `a * b mod p`.
    pub fn mul(&self, a: &BigUint, b: &BigUint) -> BigUint {
        self.mont().mul(a, b)
    }

    /// Uniform exponent in `[1, q)`.
    pub fn random_exponent<R: Rng + ?Sized>(&self, rng: &mut R) -> BigUint {
        let span = self.q() - &BigUint::one();
        BigUint::random_below(&span, rng) + BigUint::one()
    }

    /// Validates a received group element: in `(1, p)` (excludes the
    /// identity and out-of-range encodings).
    pub fn validate_element(&self, e: &BigUint) -> Result<(), CryptoError> {
        if e <= &BigUint::one() || e >= self.p() {
            Err(CryptoError::InvalidOtMessage("group element out of range"))
        } else {
            Ok(())
        }
    }
}

/// Hashes a group element (with transcript context) into a symmetric key.
fn derive_key(shared: &BigUint, big_a: &BigUint, big_b: &BigUint, index: u8) -> [u8; 32] {
    let mut h = Sha256::new();
    h.update(b"pem-ot-key");
    h.update(&[index]);
    h.update(&shared.to_bytes_be());
    h.update(&big_a.to_bytes_be());
    h.update(&big_b.to_bytes_be());
    h.finalize()
}

/// First OT message (sender → receiver).
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct OtSenderSetup {
    /// `A = g^a`.
    pub big_a: BigUint,
}

/// Second OT message (receiver → sender).
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct OtReceiverReply {
    /// `B = g^b` or `A·g^b` depending on the choice bit.
    pub big_b: BigUint,
}

/// Third OT message (sender → receiver): both branch ciphertexts.
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct OtCiphertexts {
    /// `m0 ⊕ KDF(k0)`.
    pub e0: Vec<u8>,
    /// `m1 ⊕ KDF(k1)`.
    pub e1: Vec<u8>,
}

/// Sender side of a single 1-of-2 OT.
#[derive(Debug)]
pub struct OtSender {
    group: DhGroup,
    a: BigUint,
    big_a: BigUint,
}

impl OtSender {
    /// Starts an OT, producing the setup message.
    pub fn new<R: Rng + ?Sized>(group: DhGroup, rng: &mut R) -> (OtSender, OtSenderSetup) {
        let a = group.random_exponent(rng);
        let big_a = group.pow_g(&a);
        let setup = OtSenderSetup {
            big_a: big_a.clone(),
        };
        (OtSender { group, a, big_a }, setup)
    }

    /// Encrypts the two messages against the receiver's reply.
    ///
    /// # Errors
    ///
    /// * [`CryptoError::InvalidOtMessage`] if `B` is not a valid group
    ///   element or the messages have different lengths.
    pub fn encrypt(
        self,
        reply: &OtReceiverReply,
        m0: &[u8],
        m1: &[u8],
    ) -> Result<OtCiphertexts, CryptoError> {
        if m0.len() != m1.len() {
            return Err(CryptoError::InvalidOtMessage(
                "branch messages must have equal length",
            ));
        }
        self.group.validate_element(&reply.big_b)?;
        let (k0_point, k1_point) = self.branch_points(&reply.big_b);
        Ok(self.seal(&reply.big_b, &k0_point, &k1_point, m0, m1))
    }

    /// The two branch secrets `(B^a, (B/A)^a)`. The second is derived as
    /// `B^a · g^(−a²)` — the same group element, but one ladder plus one
    /// comb-table exponentiation instead of an inversion and a second
    /// ladder.
    fn branch_points(&self, big_b: &BigUint) -> (BigUint, BigUint) {
        let g = &self.group;
        let k0_point = g.pow(big_b, &self.a);
        // −a² reduced mod p − 1 (a multiple of g's order) into
        // (0, p − 1], so it fits the table's width.
        let order = g.q() << 1;
        let neg_a_sq = &order - &((&self.a * &self.a) % &order);
        let k1_point = g.mul(&k0_point, &g.pow_g(&neg_a_sq));
        (k0_point, k1_point)
    }

    /// Pads both messages with the keys hashed from the branch secrets.
    fn seal(
        &self,
        big_b: &BigUint,
        k0_point: &BigUint,
        k1_point: &BigUint,
        m0: &[u8],
        m1: &[u8],
    ) -> OtCiphertexts {
        let k0 = derive_key(k0_point, &self.big_a, big_b, 0);
        let k1 = derive_key(k1_point, &self.big_a, big_b, 1);
        let pad0 = kdf(&k0, b"pem-ot-pad", m0.len());
        let pad1 = kdf(&k1, b"pem-ot-pad", m1.len());
        OtCiphertexts {
            e0: xor(m0, &pad0),
            e1: xor(m1, &pad1),
        }
    }
}

/// Receiver side of a single 1-of-2 OT.
#[derive(Debug)]
pub struct OtReceiver {
    group: DhGroup,
    b: BigUint,
    choice: bool,
    big_a: BigUint,
    big_b: BigUint,
}

impl OtReceiver {
    /// Responds to the sender's setup with the blinded key `B`.
    ///
    /// # Errors
    ///
    /// [`CryptoError::InvalidOtMessage`] if `A` is invalid.
    pub fn new<R: Rng + ?Sized>(
        group: DhGroup,
        setup: &OtSenderSetup,
        choice: bool,
        rng: &mut R,
    ) -> Result<(OtReceiver, OtReceiverReply), CryptoError> {
        group.validate_element(&setup.big_a)?;
        let b = group.random_exponent(rng);
        let g_b = group.pow_g(&b);
        let big_b = if choice {
            group.mul(&setup.big_a, &g_b)
        } else {
            g_b
        };
        let reply = OtReceiverReply {
            big_b: big_b.clone(),
        };
        Ok((
            OtReceiver {
                group,
                b,
                choice,
                big_a: setup.big_a.clone(),
                big_b,
            },
            reply,
        ))
    }

    /// Decrypts the chosen branch.
    ///
    /// # Errors
    ///
    /// [`CryptoError::InvalidOtMessage`] if the ciphertext lengths differ.
    pub fn decrypt(self, cts: &OtCiphertexts) -> Result<Vec<u8>, CryptoError> {
        if cts.e0.len() != cts.e1.len() {
            return Err(CryptoError::InvalidOtMessage(
                "branch ciphertexts must have equal length",
            ));
        }
        let shared = self.group.pow(&self.big_a, &self.b);
        let k = derive_key(&shared, &self.big_a, &self.big_b, self.choice as u8);
        let ct = if self.choice { &cts.e1 } else { &cts.e0 };
        let pad = kdf(&k, b"pem-ot-pad", ct.len());
        Ok(xor(ct, &pad))
    }
}

fn xor(a: &[u8], b: &[u8]) -> Vec<u8> {
    a.iter().zip(b.iter()).map(|(x, y)| x ^ y).collect()
}

/// Runs both sides of an OT in memory (reference flow used by tests and
/// the single-process simulator).
pub fn run_local_ot<R: Rng + ?Sized>(
    group: &DhGroup,
    m0: &[u8],
    m1: &[u8],
    choice: bool,
    rng: &mut R,
) -> Result<Vec<u8>, CryptoError> {
    let (sender, setup) = OtSender::new(group.clone(), rng);
    let (receiver, reply) = OtReceiver::new(group.clone(), &setup, choice, rng)?;
    let cts = sender.encrypt(&reply, m0, m1)?;
    receiver.decrypt(&cts)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::drbg::HashDrbg;
    use pem_bignum::is_prime;

    #[test]
    fn test_group_is_safe_prime() {
        let mut rng = HashDrbg::new(b"prime-check");
        let g = DhGroup::test_192();
        assert!(is_prime(g.p(), &mut rng), "p must be prime");
        assert!(is_prime(g.q(), &mut rng), "(p-1)/2 must be prime");
        assert_eq!(g.p().bit_length(), 192);
        // Generator 4 has order q: 4^q = 1 mod p.
        assert_eq!(g.pow(g.g(), g.q()), BigUint::one());
    }

    #[test]
    fn modp_1024_is_safe_prime() {
        let mut rng = HashDrbg::new(b"prime-check-1024");
        let g = DhGroup::modp_1024();
        assert_eq!(g.p().bit_length(), 1024);
        assert!(is_prime(g.p(), &mut rng));
        assert!(is_prime(g.q(), &mut rng));
    }

    #[test]
    #[ignore = "2048-bit double primality check is slow; run with --ignored"]
    fn modp_2048_is_safe_prime() {
        let mut rng = HashDrbg::new(b"prime-check-2048");
        let g = DhGroup::modp_2048();
        assert_eq!(g.p().bit_length(), 2048);
        assert!(is_prime(g.p(), &mut rng));
        assert!(is_prime(g.q(), &mut rng));
    }

    #[test]
    fn fixed_base_generator_matches_generic_pow() {
        let g = DhGroup::test_192();
        let mut rng = HashDrbg::new(b"g-table");
        for _ in 0..8 {
            let e = g.random_exponent(&mut rng);
            assert_eq!(g.pow_g(&e), g.pow(g.g(), &e));
        }
        // Boundary exponents, including one wider than the table.
        for e in [
            BigUint::zero(),
            BigUint::one(),
            g.q().clone(),
            g.p().clone(),
        ] {
            assert_eq!(g.pow_g(&e), g.pow(g.g(), &e), "e={e:?}");
        }
    }

    #[test]
    fn generator_table_covers_full_width_exponents() {
        for g in [DhGroup::test_192(), DhGroup::modp_1024()] {
            assert!(g.g_table().max_bits() >= g.p().bit_length());
            let e = g.p() - &BigUint::one();
            assert_eq!(g.pow_g(&e), g.pow(g.g(), &e));
        }
    }

    #[test]
    fn clones_and_builtin_handles_share_one_context() {
        let a = DhGroup::modp_1024();
        let b = DhGroup::modp_1024();
        assert!(Arc::ptr_eq(&a.ctx, &b.ctx));
        assert!(Arc::ptr_eq(&a.ctx, &a.clone().ctx));
        // A table built through one handle is the one every other sees.
        assert!(std::ptr::eq(a.g_table(), b.clone().g_table()));
        let custom = DhGroup::from_parts(a.p().clone(), a.g().clone());
        assert_eq!(custom, a);
        assert!(!Arc::ptr_eq(&custom.ctx, &a.ctx));
    }

    /// A sender with a chosen secret exponent (the protocol draws it).
    fn sender_with(group: &DhGroup, a: BigUint) -> OtSender {
        OtSender {
            group: group.clone(),
            big_a: group.pow_g(&a),
            a,
        }
    }

    /// Reference derivation of the branch secrets, as the formula reads:
    /// invert `A`, then a second full ladder `(B·A⁻¹)^a`.
    fn branch_points_reference(s: &OtSender, big_b: &BigUint) -> (BigUint, BigUint) {
        let k0_point = s.group.pow(big_b, &s.a);
        let a_inv = s.big_a.mod_inverse(s.group.p()).expect("A is a unit");
        let k1_point = s.group.pow(&s.group.mul(big_b, &a_inv), &s.a);
        (k0_point, k1_point)
    }

    /// Branch secrets and ciphertext bytes of the one-ladder derivation
    /// against the reference, for one `(a, B)`.
    fn assert_matches_reference(sender: OtSender, big_b: &BigUint) {
        let (m0, m1) = ([0x5Au8; 16], [0xA5u8; 16]);
        let (k0, k1) = branch_points_reference(&sender, big_b);
        assert_eq!(sender.branch_points(big_b), (k0.clone(), k1.clone()));
        let expected = sender.seal(big_b, &k0, &k1, &m0, &m1);
        let reply = OtReceiverReply {
            big_b: big_b.clone(),
        };
        assert_eq!(sender.encrypt(&reply, &m0, &m1).expect("encrypt"), expected);
    }

    #[test]
    fn one_ladder_keys_match_reference_when_a_squared_vanishes() {
        // a² ≡ 0 (mod p − 1) — unreachable from `random_exponent`; the
        // reduced exponent −a² is then p − 1 itself, the widest the
        // table serves, and `g^(p−1) = 1`.
        for group in [DhGroup::test_192(), DhGroup::modp_1024()] {
            let mut rng = HashDrbg::new(b"ot-edge");
            let big_b = group.pow_g(&group.random_exponent(&mut rng));
            for a in [
                BigUint::zero(),
                group.p() - &BigUint::one(),
                group.q().clone(),
            ] {
                assert_matches_reference(sender_with(&group, a), &big_b);
            }
        }
    }

    proptest::proptest! {
        #![proptest_config(proptest::test_runner::ProptestConfig::with_cases(6))]

        #[test]
        fn one_ladder_keys_match_reference(seed in proptest::arbitrary::any::<u64>()) {
            let mut rng = HashDrbg::from_seed_label(b"ot-one-ladder", seed);
            for group in [DhGroup::test_192(), DhGroup::modp_1024(), DhGroup::modp_2048()] {
                // Any exponent below p — a superset of what the sender draws.
                let a = BigUint::random_below(group.p(), &mut rng);
                let setup = OtSenderSetup { big_a: group.pow_g(&a) };
                for choice in [false, true] {
                    let (_, reply) = OtReceiver::new(group.clone(), &setup, choice, &mut rng)
                        .expect("valid A");
                    assert_matches_reference(sender_with(&group, a.clone()), &reply.big_b);
                }
            }
        }
    }

    #[test]
    fn ot_delivers_chosen_branch() {
        let group = DhGroup::test_192();
        let mut rng = HashDrbg::new(b"ot-basic");
        let m0 = b"label-for-zero--";
        let m1 = b"label-for-one---";
        let r0 = run_local_ot(&group, m0, m1, false, &mut rng).expect("ot");
        assert_eq!(r0, m0);
        let r1 = run_local_ot(&group, m0, m1, true, &mut rng).expect("ot");
        assert_eq!(r1, m1);
    }

    #[test]
    fn receiver_cannot_decrypt_other_branch() {
        let group = DhGroup::test_192();
        let mut rng = HashDrbg::new(b"ot-other");
        let (sender, setup) = OtSender::new(group.clone(), &mut rng);
        let (receiver, reply) =
            OtReceiver::new(group.clone(), &setup, false, &mut rng).expect("reply");
        let m0 = [0u8; 16];
        let m1 = [0xFFu8; 16];
        let cts = sender.encrypt(&reply, &m0, &m1).expect("encrypt");
        // Receiver chose branch 0; XOR-ing e1 with the derived pad for
        // branch 0 must not yield m1.
        let got = receiver.decrypt(&cts).expect("decrypt");
        assert_eq!(got, m0);
        // The unchosen ciphertext stays unpredictable: it differs from m1
        // under the receiver's only derivable key.
        assert_ne!(cts.e1, m1.to_vec());
    }

    #[test]
    fn rejects_invalid_elements() {
        let group = DhGroup::test_192();
        let mut rng = HashDrbg::new(b"ot-invalid");
        let (sender, _setup) = OtSender::new(group.clone(), &mut rng);
        let bad = OtReceiverReply {
            big_b: BigUint::one(),
        };
        assert!(sender.encrypt(&bad, &[0u8; 4], &[1u8; 4]).is_err());

        let bad_setup = OtSenderSetup {
            big_a: group.p().clone(),
        };
        assert!(OtReceiver::new(group, &bad_setup, false, &mut rng).is_err());
    }

    #[test]
    fn rejects_mismatched_lengths() {
        let group = DhGroup::test_192();
        let mut rng = HashDrbg::new(b"ot-len");
        let (sender, setup) = OtSender::new(group.clone(), &mut rng);
        let (_receiver, reply) = OtReceiver::new(group, &setup, false, &mut rng).expect("reply");
        assert!(sender.encrypt(&reply, &[0u8; 4], &[1u8; 5]).is_err());
    }

    #[test]
    fn many_transfers_random_choices() {
        let group = DhGroup::test_192();
        let mut rng = HashDrbg::new(b"ot-many");
        for i in 0..20u8 {
            let m0 = vec![i; 16];
            let m1 = vec![i ^ 0xFF; 16];
            let choice = i % 3 == 0;
            let got = run_local_ot(&group, &m0, &m1, choice, &mut rng).expect("ot");
            assert_eq!(got, if choice { m1 } else { m0 });
        }
    }

    #[test]
    fn for_security_selects_group() {
        assert_eq!(DhGroup::for_security(128).p().bit_length(), 192);
        assert_eq!(DhGroup::for_security(1024).p().bit_length(), 1024);
        assert_eq!(DhGroup::for_security(2048).p().bit_length(), 2048);
    }
}
