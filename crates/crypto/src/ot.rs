//! Batched 1-out-of-n oblivious transfer over `Z_p*`.
//!
//! PEM's Private Market Evaluation (Protocol 2) ends with a garbled-circuit
//! comparison between two randomly chosen agents; the circuit evaluator
//! obtains the wire labels for its own input bits via OT. We implement
//! Chou–Orlandi ("simplest OT") as published — **one sender key for the
//! whole batch, natively 1-of-n** — in the prime-order subgroup of `Z_p*`,
//! `p` a safe prime, with **short exponents**: every secret exponent is
//! `w =` [`DhGroup::short_exponent_bits`] bits wide, twice the security
//! level `p`'s size stands for, not `q`'s ≈`|p|` bits:
//!
//! ```text
//! Sender:        a ←$ [1, 2^w),  A = g^a,  T = g^(−a²) = A^(−a)     once per batch
//! Receiver(cᵢ):  bᵢ ←$ [1, 2^w), Bᵢ = A^cᵢ · g^bᵢ                   per OT i, cᵢ ∈ 0..n
//! Sender:        kᵢⱼ = H(i, j, (Bᵢ/Aʲ)^a),  eᵢⱼ = mᵢⱼ ⊕ KDF(kᵢⱼ)     for j ∈ 0..n
//! Receiver:      kᵢ,cᵢ = H(i, cᵢ, A^bᵢ) → mᵢ,cᵢ
//! ```
//!
//! | group | `|p|` | level `λ` | `w = 2λ` |
//! |---|---|---|---|
//! | `test_192` (not cryptographically sized) | 192 | 80 | 160 |
//! | `modp_1024` | 1024 | 80 | 160 |
//! | `modp_2048` | 2048 | 112 | 224 |
//!
//! The width comes from the one table the Paillier randomizers use
//! ([`crate::short_exponent_bits`]), capped below `q`'s width on toy
//! groups. Each side draws a fixed number of `w`-bit values (zero maps
//! to 1, no rejection loop), so a batch consumes a constant number of
//! DRBG bytes whatever it transfers.
//!
//! # What a batch costs
//!
//! The sender derives `(Bᵢ/Aʲ)^a` as `Bᵢ^a · Tʲ`: one ladder per OT
//! whatever `n` is, and the `m` ladders of a batch share `a`, so it is
//! recoded once for all of them. The receiver's `A^bᵢ` share
//! the base `A`, so a batch of [`A_TABLE_MIN_BATCH`] or more takes them
//! off one comb table built for `A` at `w` bits (the choice is by batch
//! length alone); every `g^x` comes off the group's shared table, which
//! keeps `p`'s width because `−a² mod p − 1` is full width. For a batch
//! of `m` OTs (a multiplication is one Montgomery product or squaring
//! mod `p`):
//!
//! | | ladders | table pows | table builds |
//! |---|---|---|---|
//! | sender | `m` × `w`-bit (`Bᵢ^a`: ≈`1.3·w` mults each) | `g^a` (≤ `w/4` mults), `T` (≤ `|p|/4`) | 0 |
//! | receiver, `m ≥ 8` | 0 | `2m` (`g^bᵢ`, `A^bᵢ`: ≤ `w/4` mults each) | 1 (`A`: ≈`w + 3.5·w` mults) |
//! | receiver, `m < 8` | `m` × `w`-bit (`A^bᵢ`) | `m` (`g^bᵢ`) | 0 |
//!
//! At Modp1024 that is ≈210 multiplications per ladder where a
//! full-width exponent took ≈1,230, and ≈720 for the `A` table where it
//! took ≈4,600.
//!
//! # Security
//!
//! Semi-honest adversaries (the paper's threat model, Section II-B), in
//! the random-oracle model. The *level* is the group's — ≈80 bits at
//! Modp1024: index calculus on `p` costs what it did, and the interval
//! discrete logarithm of a `2λ`-bit exponent costs `2^λ` (Pollard's
//! kangaroo). What short exponents change is the *assumption*:
//!
//! * sender privacy rests on CDH for a short `a` — the discrete
//!   logarithm with short exponents (DLSE) assumption;
//! * receiver privacy was perfect (`g^b` uniform in the subgroup hides
//!   `c` in `B = A^c · g^b` unconditionally) and is now computational:
//!   `g^b` for a short `b` is indistinguishable from a uniform subgroup
//!   element under DLSE in a safe-prime group (Koshiba–Kurosawa,
//!   PKC 2004).
//!
//! This is the practice RFC 7919 §5.2 and NIST SP 800-56A r3 specify
//! for these groups. A reply `B` outside the subgroup still passes
//! [`DhGroup::validate_element`] (membership would cost a ladder) and
//! leaks at most `a mod 2` through `B^a` — outside the semi-honest
//! model, and one bit of a `w`-bit key.
//!
//! Groups: RFC 2409 Oakley Group 2 (1024-bit) and RFC 3526 Group 14
//! (2048-bit), plus a 192-bit safe-prime group for fast unit tests. All
//! primes are verified safe primes.

use std::sync::{Arc, OnceLock};

use rand::Rng;
use serde::{Deserialize, Serialize};

use pem_bignum::{BigUint, ExpDigits, FixedBasePow, Montgomery};

use crate::error::CryptoError;
use crate::sha256::{kdf, Sha256};
use crate::{short_exponent, short_exponent_bits};

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
    /// Comb table for the generator: every `g^x` (one per OT plus two
    /// per batch) costs window-count multiplications instead of a full
    /// square-and-multiply ladder.
    /// Built on the first `g^x` through *any* handle to this context,
    /// bit-identical results.
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
    /// modulus, serving exponents up to `max_bits` bits (an OT
    /// batch's `A` at the short width; the generator's table is cached
    /// on the group itself).
    pub fn fixed_base_table(&self, base: &BigUint, max_bits: usize) -> FixedBasePow {
        self.mont().fixed_base_table(base, max_bits)
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

    /// Bit length `w` of every secret exponent an OT batch draws:
    /// [`short_exponent_bits`] of `p`'s width (160 at Modp1024 and
    /// Test192, 224 at Modp2048), capped below `q`'s width so a toy or
    /// custom group's exponents stay under its order.
    pub fn short_exponent_bits(&self) -> usize {
        short_exponent_bits(self.p().bit_length()).min(self.q().bit_length() - 1)
    }

    /// Validates a received group element: in `(1, p − 1)` (excludes the
    /// identity, the order-2 element `p − 1` — whose powers are `±1` —
    /// and out-of-range encodings).
    pub fn validate_element(&self, e: &BigUint) -> Result<(), CryptoError> {
        if e <= &BigUint::one() || &(e + &BigUint::one()) >= self.p() {
            Err(CryptoError::InvalidOtMessage("group element out of range"))
        } else {
            Ok(())
        }
    }
}

/// Most branches one OT carries (1-of-4: two choice bits per transfer).
pub const MAX_BRANCHES: usize = 4;

/// Batch length from which the receiver builds a comb table for `A`
/// instead of running a ladder per `A^b`. Measured break-even at the
/// short exponent width: 5 OTs at Modp1024 (build 0.25 ms, table pow
/// 12 µs, ladder 64 µs), 5–6 at Modp2048 (1.2 ms, 63 µs, 300 µs) and 13
/// at Test192 (34 µs, 1.0 µs, 3.6 µs); 8 sits between. The batches that
/// exist are 1 (`run_local_ot`) and 32 (a 64-bit comparison), far on
/// either side, so the exact value decides nothing today.
pub const A_TABLE_MIN_BATCH: usize = 8;

/// Hashes OT `i`'s branch-`j` secret into a symmetric key, bound to the
/// transcript (`A`, `B`), the OT's position in its batch and the branch.
/// The three group elements are hashed at `p`'s byte length each, so a
/// leading zero byte cannot shift one element's bytes into the next.
fn derive_key(
    group: &DhGroup,
    shared: &BigUint,
    big_a: &BigUint,
    big_b: &BigUint,
    i: usize,
    j: usize,
) -> [u8; 32] {
    let len = group.p().bit_length().div_ceil(8);
    let mut h = Sha256::new();
    h.update(b"pem-ot-key");
    h.update(&(i as u64).to_be_bytes());
    h.update(&[j as u8]);
    for element in [shared, big_a, big_b] {
        h.update(&element.to_bytes_be_padded(len));
    }
    h.finalize()
}

/// `msg ⊕ KDF(key)`.
fn pad(key: &[u8; 32], msg: &[u8]) -> Vec<u8> {
    let pad = kdf(key, b"pem-ot-pad", msg.len());
    msg.iter().zip(pad.iter()).map(|(x, y)| x ^ y).collect()
}

/// First OT message (sender → receiver), one per batch.
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct OtSenderSetup {
    /// `A = g^a`.
    pub big_a: BigUint,
}

/// Second OT message (receiver → sender), one per OT.
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct OtReceiverReply {
    /// `B = A^c · g^b` for choice `c`.
    pub big_b: BigUint,
}

/// Third OT message (sender → receiver), one per OT.
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct OtCiphertexts {
    /// `m_j ⊕ KDF(k_j)` per branch `j`, all of one length.
    pub branches: Vec<Vec<u8>>,
}

/// Sender side of a batch of 1-of-n OTs under one key.
#[derive(Debug)]
pub struct OtBatchSender {
    group: DhGroup,
    /// The batch key `a`, recoded once for the batch's ladders `Bᵢ^a`.
    a_digits: ExpDigits,
    big_a: BigUint,
    /// `T = g^(−a²) = A^(−a)`.
    t: BigUint,
}

impl OtBatchSender {
    /// Draws the batch key, producing the setup message.
    pub fn new<R: Rng + ?Sized>(group: DhGroup, rng: &mut R) -> (OtBatchSender, OtSenderSetup) {
        let a = short_exponent(group.short_exponent_bits(), rng);
        OtBatchSender::with_exponent(group, &a)
    }

    fn with_exponent(group: DhGroup, a: &BigUint) -> (OtBatchSender, OtSenderSetup) {
        let big_a = group.pow_g(a);
        // −a² reduced mod p − 1 (a multiple of g's order) into
        // (0, p − 1], so it fits the table's width.
        let order = group.q() << 1;
        let t = group.pow_g(&(&order - &((a * a) % &order)));
        let sender = OtBatchSender {
            group,
            a_digits: ExpDigits::recode(a),
            big_a: big_a.clone(),
            t,
        };
        (sender, OtSenderSetup { big_a })
    }

    /// Encrypts every OT's branch messages against the receiver's
    /// replies, in batch order: `messages[i]` are the branches of the
    /// OT `replies[i]` answers.
    ///
    /// # Errors
    ///
    /// [`CryptoError::InvalidOtMessage`] if the two counts differ, a `B`
    /// is not a valid group element, an OT has neither two nor
    /// [`MAX_BRANCHES`] messages (one choice bit or two), or their
    /// lengths differ.
    pub fn encrypt(
        &self,
        replies: &[OtReceiverReply],
        messages: &[Vec<Vec<u8>>],
    ) -> Result<Vec<OtCiphertexts>, CryptoError> {
        if replies.len() != messages.len() {
            return Err(CryptoError::InvalidOtMessage("reply count"));
        }
        for (reply, branches) in replies.iter().zip(messages) {
            if !matches!(branches.len(), 2 | MAX_BRANCHES)
                || branches.iter().any(|m| m.len() != branches[0].len())
            {
                return Err(CryptoError::InvalidOtMessage("branch count or lengths"));
            }
            self.group.validate_element(&reply.big_b)?;
        }
        let powers = self.powers(replies.iter().map(|r| &r.big_b));
        let mut cts = Vec::with_capacity(replies.len());
        for (index, ((power, reply), branches)) in
            (powers.into_iter().zip(replies).zip(messages)).enumerate()
        {
            let secrets = self.branch_secrets(power, branches.len());
            let branches = (secrets.iter().zip(branches).enumerate())
                .map(|(j, (k, m))| {
                    let key = derive_key(&self.group, k, &self.big_a, &reply.big_b, index, j);
                    pad(&key, m)
                })
                .collect();
            cts.push(OtCiphertexts { branches });
        }
        Ok(cts)
    }

    /// `Bᵢ^a` for every `Bᵢ`: one ladder each under the one recoding of
    /// `a`.
    fn powers<'a>(&self, big_bs: impl IntoIterator<Item = &'a BigUint>) -> Vec<BigUint> {
        let mont = self.group.mont();
        (big_bs.into_iter())
            .map(|b| mont.modpow_recoded(b, &self.a_digits))
            .collect()
    }

    /// The branch secrets `(B/Aʲ)^a` for `j ∈ 0..branches` from
    /// `power = B^a`, derived as `B^a · Tʲ` — the same group elements
    /// for one ladder and a multiplication per further branch, instead
    /// of an inversion and a ladder each.
    fn branch_secrets(&self, power: BigUint, branches: usize) -> Vec<BigUint> {
        let mut secrets = vec![power];
        for j in 1..branches {
            secrets.push(self.group.mul(&secrets[j - 1], &self.t));
        }
        secrets
    }
}

/// Receiver side of a batch of 1-of-n OTs under one sender key.
#[derive(Debug)]
pub struct OtBatchReceiver {
    group: DhGroup,
    big_a: BigUint,
    /// Per OT: the choice, the blinding exponent `b` and `B`.
    ots: Vec<(usize, BigUint, BigUint)>,
}

impl OtBatchReceiver {
    /// Responds to the sender's setup with one blinded key `B` per
    /// choice (each in `0..MAX_BRANCHES`).
    ///
    /// # Errors
    ///
    /// [`CryptoError::InvalidOtMessage`] if `A` is invalid or a choice is
    /// out of range.
    pub fn new<R: Rng + ?Sized>(
        group: DhGroup,
        setup: &OtSenderSetup,
        choices: &[usize],
        rng: &mut R,
    ) -> Result<(OtBatchReceiver, Vec<OtReceiverReply>), CryptoError> {
        let big_a = setup.big_a.clone();
        group.validate_element(&big_a)?;
        if choices.iter().any(|&c| c >= MAX_BRANCHES) {
            return Err(CryptoError::InvalidOtMessage("choice out of range"));
        }
        let bits = group.short_exponent_bits();
        let exponents = choices.iter().map(|_| short_exponent(bits, rng)).collect();
        Ok(OtBatchReceiver::with_exponents(
            group, big_a, choices, exponents,
        ))
    }

    fn with_exponents(
        group: DhGroup,
        big_a: BigUint,
        choices: &[usize],
        exponents: Vec<BigUint>,
    ) -> (OtBatchReceiver, Vec<OtReceiverReply>) {
        let mut ots = Vec::with_capacity(choices.len());
        let mut replies = Vec::with_capacity(choices.len());
        for (&c, b) in choices.iter().zip(exponents) {
            let big_b = (0..c).fold(group.pow_g(&b), |x, _| group.mul(&x, &big_a));
            replies.push(OtReceiverReply {
                big_b: big_b.clone(),
            });
            ots.push((c, b, big_b));
        }
        (OtBatchReceiver { group, big_a, ots }, replies)
    }

    /// The comb table [`OtBatchReceiver::decrypt`] takes every `A^bᵢ`
    /// off, at the short exponent width — built per call; `None` for a
    /// batch below [`A_TABLE_MIN_BATCH`], which runs a ladder per OT.
    pub fn a_table(&self) -> Option<FixedBasePow> {
        let bits = self.group.short_exponent_bits();
        (self.ots.len() >= A_TABLE_MIN_BATCH)
            .then(|| self.group.fixed_base_table(&self.big_a, bits))
    }

    /// Decrypts the chosen branch of every OT, in batch order.
    ///
    /// # Errors
    ///
    /// [`CryptoError::InvalidOtMessage`] if the ciphertext count is not
    /// the batch's, a choice has no branch, or an OT's branch lengths
    /// differ.
    pub fn decrypt(self, cts: &[OtCiphertexts]) -> Result<Vec<Vec<u8>>, CryptoError> {
        if cts.len() != self.ots.len() {
            return Err(CryptoError::InvalidOtMessage("ciphertext count"));
        }
        let a_table = self.a_table();
        let mut out = Vec::with_capacity(cts.len());
        for (index, ((c, b, big_b), ct)) in self.ots.iter().zip(cts).enumerate() {
            let e = &ct.branches;
            if *c >= e.len() || e.iter().any(|x| x.len() != e[0].len()) {
                return Err(CryptoError::InvalidOtMessage("branch count or lengths"));
            }
            let shared = match &a_table {
                Some(table) => table.pow(b),
                None => self.group.pow(&self.big_a, b),
            };
            let key = derive_key(&self.group, &shared, &self.big_a, big_b, index, *c);
            out.push(pad(&key, &e[*c]));
        }
        Ok(out)
    }
}

/// Runs both sides of a single 1-of-2 OT in memory — a batch of one
/// (reference flow used by tests and the single-process simulator).
pub fn run_local_ot<R: Rng + ?Sized>(
    group: &DhGroup,
    m0: &[u8],
    m1: &[u8],
    choice: bool,
    rng: &mut R,
) -> Result<Vec<u8>, CryptoError> {
    let (sender, setup) = OtBatchSender::new(group.clone(), rng);
    let (receiver, replies) = OtBatchReceiver::new(group.clone(), &setup, &[choice as usize], rng)?;
    let cts = sender.encrypt(&replies, &[vec![m0.to_vec(), m1.to_vec()]])?;
    Ok(receiver.decrypt(&cts)?.remove(0))
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
            let e = BigUint::random_below(g.q(), &mut rng);
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

    #[test]
    fn validate_element_accepts_exactly_the_open_interval() {
        for g in [DhGroup::test_192(), DhGroup::modp_1024()] {
            let one = BigUint::one();
            let p = g.p();
            for bad in [BigUint::zero(), one.clone(), p - &one, p.clone(), p + &one] {
                assert!(g.validate_element(&bad).is_err(), "{bad:?} accepted");
            }
            for good in [BigUint::from(2u64), p - &BigUint::from(2u64)] {
                assert!(g.validate_element(&good).is_ok(), "{good:?} rejected");
            }
        }
    }

    #[test]
    fn exponent_width_follows_the_group_and_stays_below_its_order() {
        for (group, w) in [
            (DhGroup::test_192(), 160),
            (DhGroup::modp_1024(), 160),
            (DhGroup::modp_2048(), 224),
        ] {
            assert_eq!(group.short_exponent_bits(), w);
            assert!(w < group.q().bit_length());
        }
        // Custom toy groups (safe primes 7, 23, 2879 and a 64-bit one):
        // the width function alone would hand back `p`'s full width.
        for (p, g) in [(7u64, 2u64), (23, 4), (2879, 4), (0xFFFF_FFFF_FFFF_FA43, 4)] {
            let group = DhGroup::from_parts(BigUint::from(p), BigUint::from(g));
            let w = group.short_exponent_bits();
            assert!((1..group.q().bit_length()).contains(&w), "p={p}: w={w}");
            let mut rng = HashDrbg::new(b"toy-width");
            for _ in 0..32 {
                let x = short_exponent(w, &mut rng);
                assert!(!x.is_zero() && &x < group.q(), "p={p}: x={x:?}");
            }
            // A batch runs at the capped width (the smaller groups'
            // few elements include the identity, which is refused).
            if p > 2879 {
                let (a, b) = (short_exponent(w, &mut rng), short_exponent(w, &mut rng));
                assert_round_trips(&group, &a, &b);
            }
        }
    }

    #[test]
    fn derive_key_hashes_fixed_width_elements() {
        // 24-byte elements at Test192. `shared` has a leading zero byte;
        // moving the element boundaries one byte to the right gives a
        // different triple with the same minimal-length concatenation,
        // which an unframed hash cannot tell apart.
        let group = DhGroup::test_192();
        let bytes: Vec<u8> = (1..=71).collect();
        let element = |range: std::ops::Range<usize>| BigUint::from_bytes_be(&bytes[range]);
        let (shared, big_a, big_b) = (element(0..23), element(23..47), element(47..71));
        let shifted = (element(0..24), element(24..47), element(47..71));
        assert_eq!(shared.to_bytes_be().len(), 23);
        let minimal =
            |t: [&BigUint; 3]| -> Vec<u8> { t.iter().flat_map(|e| e.to_bytes_be()).collect() };
        assert_eq!(
            minimal([&shared, &big_a, &big_b]),
            minimal([&shifted.0, &shifted.1, &shifted.2])
        );
        let key = derive_key(&group, &shared, &big_a, &big_b, 3, 1);
        assert_ne!(
            key,
            derive_key(&group, &shifted.0, &shifted.1, &shifted.2, 3, 1)
        );
        // The framing itself: every element at p's 24 bytes.
        let mut h = Sha256::new();
        h.update(b"pem-ot-key");
        h.update(&3u64.to_be_bytes());
        h.update(&[1]);
        h.update(&[0]);
        h.update(&bytes);
        assert_eq!(key, h.finalize());
    }

    /// Reference derivation of the branch secrets, as the formula reads:
    /// invert `Aʲ`, then a full ladder `(B·A⁻ʲ)^a` per branch.
    fn branch_secrets_reference(group: &DhGroup, a: &BigUint, big_b: &BigUint) -> Vec<BigUint> {
        let a_inv = group.pow_g(a).mod_inverse(group.p()).expect("A is a unit");
        let mut base = big_b.clone();
        (0..MAX_BRANCHES)
            .map(|_| {
                let k = group.pow(&base, a);
                base = group.mul(&base, &a_inv);
                k
            })
            .collect()
    }

    /// Branch secrets and ciphertext bytes of the one-ladder derivation
    /// against the reference, for one `(a, B)` — `B` sent at both
    /// positions of a batch of two.
    fn assert_matches_reference(group: &DhGroup, a: &BigUint, big_b: &BigUint) {
        let (sender, _) = OtBatchSender::with_exponent(group.clone(), a);
        let messages: Vec<Vec<u8>> = (0..MAX_BRANCHES)
            .map(|j| vec![j as u8 ^ 0x5A; 32])
            .collect();
        let reference = branch_secrets_reference(group, a, big_b);
        let power = sender.powers([big_b]).remove(0);
        assert_eq!(sender.branch_secrets(power, MAX_BRANCHES), reference);
        let reply = OtReceiverReply {
            big_b: big_b.clone(),
        };
        for n in [2, MAX_BRANCHES] {
            let expected = |index: usize| -> Vec<Vec<u8>> {
                (0..n)
                    .map(|j| {
                        let key = derive_key(group, &reference[j], &sender.big_a, big_b, index, j);
                        pad(&key, &messages[j])
                    })
                    .collect()
            };
            let got = sender
                .encrypt(
                    &[reply.clone(), reply.clone()],
                    &[messages[..n].to_vec(), messages[..n].to_vec()],
                )
                .expect("encrypt");
            for (index, ct) in got.iter().enumerate() {
                assert_eq!(ct.branches, expected(index), "1-of-{n} at {index}");
            }
        }
    }

    #[test]
    fn one_ladder_keys_match_reference_when_a_squared_vanishes() {
        // a² ≡ 0 (mod p − 1) — unreachable from a short draw; the
        // reduced exponent −a² is then p − 1 itself, the widest the
        // table serves, and `g^(p−1) = 1`.
        for group in [DhGroup::test_192(), DhGroup::modp_1024()] {
            let mut rng = HashDrbg::new(b"ot-edge");
            let big_b = group.pow_g(&short_exponent(group.short_exponent_bits(), &mut rng));
            for a in [
                BigUint::zero(),
                group.p() - &BigUint::one(),
                group.q().clone(),
            ] {
                assert_matches_reference(&group, &a, &big_b);
            }
        }
    }

    /// One 1-of-4 OT per choice with the given exponents on both sides;
    /// every choice must come back as its own branch.
    fn assert_round_trips(group: &DhGroup, a: &BigUint, b: &BigUint) {
        let choices: Vec<usize> = (0..MAX_BRANCHES).collect();
        let messages: Vec<Vec<Vec<u8>>> = (choices.iter())
            .map(|i| {
                (0..MAX_BRANCHES)
                    .map(|j| vec![(i * 4 + j) as u8; 32])
                    .collect()
            })
            .collect();
        let (sender, setup) = OtBatchSender::with_exponent(group.clone(), a);
        let (receiver, replies) = OtBatchReceiver::with_exponents(
            group.clone(),
            setup.big_a,
            &choices,
            vec![b.clone(); choices.len()],
        );
        let cts = sender.encrypt(&replies, &messages).expect("encrypt");
        let got = receiver.decrypt(&cts).expect("decrypt");
        for (i, &c) in choices.iter().enumerate() {
            assert_eq!(got[i], messages[i][c], "a={a:?} b={b:?} choice {c}");
        }
    }

    #[test]
    fn boundary_exponents_round_trip() {
        // The two ends of the short range, in every pairing.
        for group in [DhGroup::test_192(), DhGroup::modp_1024()] {
            let w = group.short_exponent_bits();
            let top = (BigUint::one() << w) - BigUint::one();
            assert_eq!(top.bit_length(), w);
            for a in [BigUint::one(), top.clone()] {
                for b in [BigUint::one(), top.clone()] {
                    assert_round_trips(&group, &a, &b);
                }
            }
        }
    }

    proptest::proptest! {
        #![proptest_config(proptest::test_runner::ProptestConfig::with_cases(6))]

        #[test]
        fn one_ladder_keys_match_reference(seed in proptest::arbitrary::any::<u64>()) {
            let mut rng = HashDrbg::from_seed_label(b"ot-one-ladder", seed);
            for group in [DhGroup::test_192(), DhGroup::modp_1024(), DhGroup::modp_2048()] {
                // Any exponent below p — a superset of what the sender
                // draws — and one drawn the way the sender draws it.
                let full = BigUint::random_below(group.p(), &mut rng);
                let short = short_exponent(group.short_exponent_bits(), &mut rng);
                for a in [full, short] {
                    let setup = OtSenderSetup { big_a: group.pow_g(&a) };
                    // Every branch secret is checked whatever the reply's choice.
                    let choice = [(seed % MAX_BRANCHES as u64) as usize];
                    let (_, replies) =
                        OtBatchReceiver::new(group.clone(), &setup, &choice, &mut rng)
                            .expect("valid A");
                    assert_matches_reference(&group, &a, &replies[0].big_b);
                }
            }
        }

        #[test]
        fn batched_ladders_match_group_pow(seed in proptest::arbitrary::any::<u64>()) {
            let mut rng = HashDrbg::from_seed_label(b"ot-batched-ladders", seed);
            for group in [DhGroup::test_192(), DhGroup::modp_1024(), DhGroup::modp_2048()] {
                let a = short_exponent(group.short_exponent_bits(), &mut rng);
                let (sender, _) = OtBatchSender::with_exponent(group.clone(), &a);
                // Bases of every shape under the one recoding: subgroup
                // elements, a tiny one, the largest valid one.
                let mut bases: Vec<BigUint> = (0..3)
                    .map(|_| BigUint::random_below(group.p(), &mut rng))
                    .collect();
                bases.push(BigUint::from(2u64));
                bases.push(group.p() - &BigUint::from(2u64));
                let expected: Vec<BigUint> = bases.iter().map(|b| group.pow(b, &a)).collect();
                proptest::prop_assert_eq!(sender.powers(&bases), expected);
            }
        }

        #[test]
        fn short_exponents_round_trip(seed in proptest::arbitrary::any::<u64>()) {
            let mut rng = HashDrbg::from_seed_label(b"ot-short-round-trip", seed);
            for group in [DhGroup::test_192(), DhGroup::modp_1024()] {
                let w = group.short_exponent_bits();
                let a = short_exponent(w, &mut rng);
                let b = short_exponent(w, &mut rng);
                proptest::prop_assert!(a.bit_length() <= w && b.bit_length() <= w);
                assert_round_trips(&group, &a, &b);
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
        // One batch with every choice, short enough for the ladder lane
        // (4 OTs) and long enough for the `A` table (12).
        let group = DhGroup::test_192();
        let mut rng = HashDrbg::new(b"ot-batch");
        let xor = |a: &[u8], b: &[u8]| -> Vec<u8> { a.iter().zip(b).map(|(x, y)| x ^ y).collect() };
        for len in [4usize, 12] {
            let choices: Vec<usize> = (0..len).map(|i| i % MAX_BRANCHES).collect();
            let message = |i: usize, j: usize| vec![(i * MAX_BRANCHES + j) as u8; 32];
            let (sender, setup) = OtBatchSender::new(group.clone(), &mut rng);
            let (receiver, replies) =
                OtBatchReceiver::new(group.clone(), &setup, &choices, &mut rng).expect("replies");
            let messages: Vec<Vec<Vec<u8>>> = (0..len)
                .map(|i| (0..MAX_BRANCHES).map(|j| message(i, j)).collect())
                .collect();
            let cts = sender.encrypt(&replies, &messages).expect("encrypt");
            let got = receiver.decrypt(&cts).expect("decrypt");
            for (i, &c) in choices.iter().enumerate() {
                assert_eq!(got[i], message(i, c), "OT {i} delivers branch {c}");
                // The receiver's one pad for this OT opens no other branch.
                let pad = xor(&cts[i].branches[c], &got[i]);
                for j in (0..MAX_BRANCHES).filter(|&j| j != c) {
                    let opened = xor(&cts[i].branches[j], &pad);
                    assert_ne!(opened, message(i, j), "OT {i}: branch {j} opened");
                }
            }
        }
    }

    #[test]
    fn equal_replies_at_two_positions_get_different_pads() {
        let group = DhGroup::test_192();
        let mut rng = HashDrbg::new(b"ot-index");
        let (sender, setup) = OtBatchSender::new(group.clone(), &mut rng);
        let (_, replies) = OtBatchReceiver::new(group, &setup, &[2], &mut rng).expect("reply");
        let zeros = vec![vec![0u8; 32]; MAX_BRANCHES];
        let twice = [replies[0].clone(), replies[0].clone()];
        let cts = sender
            .encrypt(&twice, &[zeros.clone(), zeros])
            .expect("encrypt");
        let (at_0, at_1) = (&cts[0], &cts[1]);
        for j in 0..MAX_BRANCHES {
            assert_ne!(at_0.branches[j], at_1.branches[j], "branch {j}");
            for k in 0..j {
                assert_ne!(at_0.branches[j], at_0.branches[k], "branches {k}, {j}");
            }
        }
    }

    #[test]
    fn rejects_invalid_elements() {
        let group = DhGroup::test_192();
        let mut rng = HashDrbg::new(b"ot-invalid");
        let (sender, _setup) = OtBatchSender::new(group.clone(), &mut rng);
        let messages = [vec![vec![0u8; 4], vec![1u8; 4]]];
        for big_b in [BigUint::one(), group.p() - &BigUint::one()] {
            let bad = OtReceiverReply { big_b };
            assert!(sender.encrypt(&[bad], &messages).is_err());
        }

        let bad_setup = OtSenderSetup {
            big_a: group.p().clone(),
        };
        assert!(OtBatchReceiver::new(group.clone(), &bad_setup, &[0], &mut rng).is_err());
        let (_, setup) = OtBatchSender::new(group.clone(), &mut rng);
        assert!(OtBatchReceiver::new(group, &setup, &[MAX_BRANCHES], &mut rng).is_err());
    }

    #[test]
    fn rejects_mismatched_lengths() {
        let group = DhGroup::test_192();
        let mut rng = HashDrbg::new(b"ot-len");
        let (sender, setup) = OtBatchSender::new(group.clone(), &mut rng);
        let mut receiver =
            || OtBatchReceiver::new(group.clone(), &setup, &[1], &mut rng).expect("reply");
        let reply = receiver().1;
        assert!(sender
            .encrypt(&reply, &[vec![vec![0u8; 4], vec![1u8; 5]]])
            .is_err());
        for branches in [1, 3, MAX_BRANCHES + 1] {
            assert!(sender
                .encrypt(&reply, &[vec![vec![0u8; 4]; branches]])
                .is_err());
        }
        // One reply, two OTs' worth of messages (and the reverse).
        let two = vec![vec![vec![0u8; 4]; 2]; 2];
        assert!(sender.encrypt(&reply, &two).is_err());
        assert!(sender
            .encrypt(&[reply[0].clone(), reply[0].clone()], &two[..1])
            .is_err());
        // Receiver side: wrong count, ragged branches, missing branch.
        let ct = |lens: &[usize]| OtCiphertexts {
            branches: lens.iter().map(|&n| vec![0u8; n]).collect(),
        };
        for cts in [
            vec![],
            vec![ct(&[4, 5])],
            vec![ct(&[4])],
            vec![ct(&[4, 4]); 2],
        ] {
            assert!(receiver().0.decrypt(&cts).is_err(), "{cts:?}");
        }
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
