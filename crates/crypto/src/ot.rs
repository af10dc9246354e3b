//! Batched 1-out-of-n oblivious transfer.
//!
//! PEM's Private Market Evaluation (Protocol 2) ends with a garbled-circuit
//! comparison between two randomly chosen agents; the circuit evaluator
//! obtains the wire labels for its own input bits via OT. We implement
//! Chou–Orlandi ("simplest OT") as published — **one sender key for the
//! whole batch, natively 1-of-n** — once, over a small sealed [`Group`]
//! trait with two implementations: edwards25519 ([`Ed25519`], the
//! paper profiles; the curve Chou & Orlandi instantiate it on) and a
//! safe-prime subgroup of `Z_p*` ([`DhGroup`], the toy `test192` group
//! of the fast test profile). Written additively (`[x]G` is `g^x` in
//! `Z_p*`):
//!
//! ```text
//! Sender:        a ←$ scalars,  A = [a]G,  T = [−a²]G = [−a]A          once per batch
//! Receiver(cᵢ):  bᵢ ←$ scalars, Bᵢ = [cᵢ]A + [bᵢ]G                     per OT i, cᵢ ∈ 0..n
//! Sender:        kᵢⱼ = H(i, A, Bᵢ, j, [a](Bᵢ − [j]A))                     for j ∈ 0..n
//! Receiver:      kᵢ,cᵢ = H(i, A, Bᵢ, cᵢ, [bᵢ]A)
//! ```
//!
//! That is a *random* OT: the receiver holds the key of its choice
//! ([`OtBatchReceiver::keys`]), the sender every branch's
//! ([`OtBatchSender::keys`]). The comparison in `pem-circuit` uses the
//! keys themselves as labels. [`run_local_ot`], the one chosen-message
//! transfer, pads each message with its branch key, `eⱼ = mⱼ ⊕ kⱼ` up
//! to 32 bytes and `⊕ KDF(kⱼ)` beyond. `H` absorbs `(i, A, Bᵢ)` once per OT and is cloned per branch, so a
//! sender pays one SHA-256 compression per OT and one per branch — five
//! for a 1-of-4 OT on either group.
//!
//! | group | element | level `λ` | scalars |
//! |---|---|---|---|
//! | edwards25519 | 32 bytes | 128 | full width mod `ℓ` (64 drawn bytes) |
//! | `test_192` (not cryptographically sized) | 24 bytes | 80 | `w = 2λ = 160` bits (DLSE) |
//!
//! On the curve a scalar is 64 DRBG bytes reduced mod `ℓ`
//! ([`ed25519::Scalar::random`]). In `Z_p*` every secret exponent is
//! `w =` [`DhGroup::short_exponent_bits`] bits wide, twice the security
//! level `p`'s size stands for, from the one table the Paillier
//! randomizers use ([`crate::short_exponent_bits`]), capped below `q`'s
//! width. Either way each side draws a fixed number of bytes per scalar
//! (zero maps to 1, no rejection loop), so a batch consumes a constant
//! number of DRBG bytes whatever it transfers.
//!
//! # What a batch costs
//!
//! The sender derives `[a](Bᵢ − [j]A)` as `[a]Bᵢ + [j]T`: one
//! variable-base multiplication per OT whatever `n` is, under one
//! recoding of `a` for the whole batch. The receiver's `[bᵢ]A` share the
//! base `A`, so a batch of [`A_TABLE_MIN_BATCH`] or more takes them off
//! one comb table built for `A` (the choice is by batch length alone);
//! every `[x]G` comes off the group's shared table. For a batch of `m`
//! OTs:
//!
//! | | variable-base | fixed-base | table builds |
//! |---|---|---|---|
//! | sender | `m` (`[a]Bᵢ`) | 2 (`A`, `T`) | 0 |
//! | receiver, `m ≥ 8` | 0 | `2m` (`[bᵢ]G`, `[bᵢ]A`) | 1 (`A`) |
//! | receiver, `m < 8` | `m` (`[bᵢ]A`) | `m` (`[bᵢ]G`) | 0 |
//!
//! On the curve a variable-base multiplication is ≈2,400 field
//! multiplications, a fixed-base one ≈550 and the `A` table ≈4,000
//! (counted on `crypto/ec_scalar_mul`, `crypto/ec_fixed_base`,
//! `crypto/ec_table_builds`); the shared secrets are encoded under one
//! batched inversion per side. In `Z_p*` they are ladders, table pows
//! and comb builds of [`pem_bignum`] (`crypto/modpow`,
//! `crypto/fixed_base_pow`, `bignum/fixed_base_builds`).
//!
//! # Validation
//!
//! Every received element is checked before it is used, and a failure is
//! a typed [`CryptoError::InvalidOtMessage`]. On the curve a point is
//! decoded by RFC 8032 §5.1.3 (rejecting `y ≥ p`, points off the curve
//! and `x = 0` with the sign bit set) and cleared of its cofactor: the
//! point is multiplied by 8 and the scalar by `8⁻¹ mod ℓ`, so a point of
//! the subgroup gives the textbook secret, a small-order component
//! vanishes, and a point that becomes the identity (the 8 small-order
//! points) is refused. In `Z_p*` an element must lie in `(1, p − 1)`
//! ([`DhGroup::validate_element`]).
//!
//! # Security
//!
//! Semi-honest adversaries (the paper's threat model, Section II-B), in
//! the random-oracle model. On edwards25519 the level is 128 bits and
//! the assumption is CDH in the prime-order subgroup. In `test192` the
//! level is nominal (the group is a toy) and the assumption is CDH for
//! short exponents — discrete log with short exponents (DLSE) — with
//! receiver privacy resting on DLSE too (Koshiba–Kurosawa, PKC 2004),
//! the practice RFC 7919 §5.2 specifies for `Z_p*` groups.

use std::fmt;
use std::sync::{Arc, OnceLock};

use rand::Rng;
use serde::{Deserialize, Serialize};

use pem_bignum::{BigUint, ExpDigits, FixedBasePow, Montgomery};

use crate::ed25519::{self, basepoint_table, EdwardsPoint, EdwardsTable, Scalar};
use crate::error::CryptoError;
use crate::sha256::{kdf, Sha256};
use crate::{short_exponent, short_exponent_bits};

/// 192-bit safe prime for fast test profiles (generated and verified for
/// this project; NOT cryptographically sized). Generator 4 (a quadratic
/// residue, hence of prime order `q = (p-1)/2`).
const TEST_192_HEX: &str = "B664FE32B4E948E95FD8E69DD893AD839349C3CF7FC02893";

/// A multiplicative group `Z_p*` (safe prime `p`) with fixed generator.
///
/// A cheap handle: every clone shares one context, so the Montgomery
/// constants and the generator's comb table are built once per context
/// no matter how many OT instances hold the group. [`DhGroup::test_192`]
/// hands out handles to one process-wide context.
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

    /// Small 192-bit group for unit tests and fast simulation profiles,
    /// parsed on first use; every handle shares one context.
    pub fn test_192() -> DhGroup {
        static GROUP: OnceLock<DhGroup> = OnceLock::new();
        GROUP
            .get_or_init(|| {
                let p = BigUint::from_str_radix(TEST_192_HEX, 16).expect("const");
                DhGroup::from_parts(p, BigUint::from(4u64))
            })
            .clone()
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
    /// [`short_exponent_bits`] of `p`'s width (160 at Test192), capped
    /// below `q`'s width so a toy or custom group's exponents stay under
    /// its order.
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

/// The edwards25519 group ([`crate::ed25519`]): a handle to the
/// process-wide basepoint table.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct Ed25519;

mod sealed {
    pub trait Sealed {}
    impl Sealed for super::DhGroup {}
    impl Sealed for super::Ed25519 {}
}

/// What Chou–Orlandi needs of a group, written additively; implemented
/// by [`DhGroup`] and [`Ed25519`] only.
pub trait Group: sealed::Sealed + Clone + fmt::Debug {
    /// An element as it travels and is hashed.
    type Element: Clone + fmt::Debug + PartialEq + Eq;
    /// An element in the form the arithmetic runs on.
    type Point: Clone + fmt::Debug;
    /// A secret scalar.
    type Scalar: fmt::Debug;
    /// A scalar readied for repeated [`Group::mul`]s of checked points.
    type Multiplier: fmt::Debug;
    /// A comb table for one checked received point.
    type Table;

    /// Draws a secret scalar: a fixed number of bytes from `rng`.
    fn draw<R: Rng + ?Sized>(&self, rng: &mut R) -> Self::Scalar;
    /// `[k]G`, off the group's shared table.
    fn mul_base(&self, k: &Self::Scalar) -> Self::Point;
    /// `−k²` modulo a multiple of the group order.
    fn neg_square(&self, k: &Self::Scalar) -> Self::Scalar;
    /// `x + y`.
    fn add(&self, x: &Self::Point, y: &Self::Point) -> Self::Point;
    /// The elements of `points`, in order.
    fn encode_all(&self, points: Vec<Self::Point>) -> Vec<Self::Element>;
    /// Checks a received element, returning it as a point and in the
    /// form [`Group::mul`] and [`Group::table`] take (cleared of any
    /// cofactor).
    ///
    /// # Errors
    ///
    /// [`CryptoError::InvalidOtMessage`] for an element that is not one
    /// of the group, or that clears to the identity.
    fn receive(&self, e: &Self::Element) -> Result<(Self::Point, Self::Point), CryptoError>;
    /// `k` readied for [`Group::mul`].
    fn multiplier(&self, k: &Self::Scalar) -> Self::Multiplier;
    /// `[k]P` for a checked `P`, so `[k]` of the point as received.
    fn mul(&self, p: &Self::Point, k: &Self::Multiplier) -> Self::Point;
    /// A comb table for a checked point.
    fn table(&self, p: &Self::Point) -> Self::Table;
    /// [`Group::mul`] off `p`'s table, for the scalar itself.
    fn mul_table(&self, t: &Self::Table, k: &Self::Scalar) -> Self::Point;
    /// Feeds `e`'s fixed-width bytes to `h`.
    fn hash_element(&self, e: &Self::Element, h: &mut Sha256);
}

impl Group for DhGroup {
    type Element = BigUint;
    type Point = BigUint;
    type Scalar = BigUint;
    /// The exponent's recoding for the ladder.
    type Multiplier = ExpDigits;
    type Table = FixedBasePow;

    fn draw<R: Rng + ?Sized>(&self, rng: &mut R) -> BigUint {
        short_exponent(self.short_exponent_bits(), rng)
    }

    fn mul_base(&self, k: &BigUint) -> BigUint {
        self.pow_g(k)
    }

    /// Reduced mod `p − 1` (a multiple of `g`'s order) into `(0, p − 1]`,
    /// so it fits the generator table's width.
    fn neg_square(&self, k: &BigUint) -> BigUint {
        let order = self.q() << 1;
        &order - &((k * k) % &order)
    }

    fn add(&self, x: &BigUint, y: &BigUint) -> BigUint {
        self.mul(x, y)
    }

    fn encode_all(&self, points: Vec<BigUint>) -> Vec<BigUint> {
        points
    }

    fn receive(&self, e: &BigUint) -> Result<(BigUint, BigUint), CryptoError> {
        self.validate_element(e)?;
        Ok((e.clone(), e.clone()))
    }

    fn multiplier(&self, k: &BigUint) -> ExpDigits {
        ExpDigits::recode(k)
    }

    fn mul(&self, p: &BigUint, k: &ExpDigits) -> BigUint {
        self.mont().modpow_recoded(p, k)
    }

    /// At the short exponent width.
    fn table(&self, p: &BigUint) -> FixedBasePow {
        self.fixed_base_table(p, self.short_exponent_bits())
    }

    fn mul_table(&self, t: &FixedBasePow, k: &BigUint) -> BigUint {
        t.pow(k)
    }

    /// At `p`'s byte length, so a leading zero byte cannot shift one
    /// element's bytes into the next.
    fn hash_element(&self, e: &BigUint, h: &mut Sha256) {
        h.update(&e.to_bytes_be_padded(self.p().bit_length().div_ceil(8)));
    }
}

impl Group for Ed25519 {
    /// The RFC 8032 encoding.
    type Element = [u8; 32];
    type Point = EdwardsPoint;
    type Scalar = Scalar;
    /// `k·8⁻¹ mod ℓ`, for points multiplied by the cofactor on receipt.
    type Multiplier = Scalar;
    type Table = EdwardsTable;

    fn draw<R: Rng + ?Sized>(&self, rng: &mut R) -> Scalar {
        Scalar::random(rng)
    }

    fn mul_base(&self, k: &Scalar) -> EdwardsPoint {
        basepoint_table().mul(k)
    }

    fn neg_square(&self, k: &Scalar) -> Scalar {
        let (k, l) = (k.to_biguint(), ed25519::order());
        Scalar::from_biguint(&(l - &((&k * &k) % l)))
    }

    fn add(&self, x: &EdwardsPoint, y: &EdwardsPoint) -> EdwardsPoint {
        x.add(y)
    }

    fn encode_all(&self, points: Vec<EdwardsPoint>) -> Vec<[u8; 32]> {
        EdwardsPoint::compress_batch(&points)
    }

    /// Decodes `e`, then clears its cofactor: three doublings.
    fn receive(&self, e: &[u8; 32]) -> Result<(EdwardsPoint, EdwardsPoint), CryptoError> {
        let p = EdwardsPoint::decompress(e)?;
        let cleared = p.mul_by_cofactor();
        if cleared.is_identity() {
            return Err(CryptoError::InvalidOtMessage(
                "point of small order (the identity after clearing the cofactor)",
            ));
        }
        Ok((p, cleared))
    }

    fn multiplier(&self, k: &Scalar) -> Scalar {
        // ℓ ≡ 5 (mod 8), so 8⁻¹ = (3ℓ + 1)/8.
        let l = ed25519::order();
        let inv8 = (&(l + &(l + l)) + &BigUint::one()) >> 3;
        Scalar::from_biguint(&(&k.to_biguint() * &inv8))
    }

    fn mul(&self, p: &EdwardsPoint, k: &Scalar) -> EdwardsPoint {
        p.mul(k)
    }

    fn table(&self, p: &EdwardsPoint) -> EdwardsTable {
        EdwardsTable::new(p)
    }

    fn mul_table(&self, t: &EdwardsTable, k: &Scalar) -> EdwardsPoint {
        t.mul(&self.multiplier(k))
    }

    fn hash_element(&self, e: &[u8; 32], h: &mut Sha256) {
        h.update(e);
    }
}

/// The group an OT profile runs in: one of the two [`Group`]s, chosen
/// at run time. [`run_local_ot`] and the comparison dispatch on it once,
/// into code generic over the group.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum OtGroup {
    /// A safe-prime subgroup of `Z_p*` (`test192`).
    Dh(DhGroup),
    /// edwards25519.
    Ed25519(Ed25519),
}

impl From<DhGroup> for OtGroup {
    fn from(g: DhGroup) -> OtGroup {
        OtGroup::Dh(g)
    }
}

impl From<Ed25519> for OtGroup {
    fn from(g: Ed25519) -> OtGroup {
        OtGroup::Ed25519(g)
    }
}

/// Most branches one OT carries (1-of-4: two choice bits per transfer).
pub const MAX_BRANCHES: usize = 4;

/// Batch length from which the receiver builds a comb table for `A`
/// instead of running a variable-base multiplication per `[b]A`.
/// Measured break-even: 13 OTs at Test192 (build 34 µs, table pow
/// 1.0 µs, ladder 3.6 µs) and 2–3 on edwards25519 (build ≈100 µs,
/// table multiplication ≈15 µs, window ≈55 µs); 8 sits between. The batches
/// that exist are 1 (`run_local_ot`) and 23–25 (a comparison at
/// `compare_width(m)`: 47 or 49 bits in 2-bit chunks), far on either
/// side, so the exact value decides nothing today.
pub const A_TABLE_MIN_BATCH: usize = 8;

/// The hash state of OT `i`'s transcript — the domain, the OT's position
/// in its batch, `A` and `B`, every element at the group's fixed width —
/// absorbed once per OT; [`derive_key`] finishes it per branch.
fn transcript<G: Group>(group: &G, big_a: &G::Element, big_b: &G::Element, i: usize) -> Sha256 {
    let mut h = Sha256::new();
    h.update(b"pem-ot-key");
    h.update(&(i as u64).to_be_bytes());
    group.hash_element(big_a, &mut h);
    group.hash_element(big_b, &mut h);
    h
}

/// Branch `j`'s key from its secret and a clone of its OT's
/// [`transcript`]: one SHA-256 compression per branch on either group,
/// plus one per OT for the transcript.
fn derive_key<G: Group>(group: &G, transcript: &Sha256, j: usize, shared: &G::Element) -> [u8; 32] {
    let mut h = transcript.clone();
    h.update(&[j as u8]);
    group.hash_element(shared, &mut h);
    h.finalize()
}

/// `msg ⊕ key` for a message of up to 32 bytes — the key is a
/// random-oracle output, so it is the pad — and `msg ⊕ KDF(key)` for a
/// longer one.
fn pad(key: &[u8; 32], msg: &[u8]) -> Vec<u8> {
    let stretched;
    let pad: &[u8] = if msg.len() <= key.len() {
        key
    } else {
        stretched = kdf(key, b"pem-ot-pad", msg.len());
        &stretched
    };
    msg.iter().zip(pad).map(|(x, y)| x ^ y).collect()
}

/// First OT message (sender → receiver), one per batch.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct OtSenderSetup<G: Group> {
    /// `A = [a]G`.
    pub big_a: G::Element,
}

/// Second OT message (receiver → sender), one per OT.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct OtReceiverReply<G: Group> {
    /// `B = [c]A + [b]G` for choice `c`.
    pub big_b: G::Element,
}

/// Sender side of a batch of 1-of-n OTs under one key.
#[derive(Debug)]
pub struct OtBatchSender<G: Group> {
    group: G,
    /// The batch key `a`, readied once for the batch's `[a]Bᵢ`.
    a: G::Multiplier,
    big_a: G::Element,
    /// `T = [−a²]G = [−a]A`.
    t: G::Point,
}

impl<G: Group> OtBatchSender<G> {
    /// Draws the batch key, producing the setup message.
    pub fn new<R: Rng + ?Sized>(group: G, rng: &mut R) -> (OtBatchSender<G>, OtSenderSetup<G>) {
        let a = group.draw(rng);
        OtBatchSender::with_scalar(group, &a)
    }

    fn with_scalar(group: G, a: &G::Scalar) -> (OtBatchSender<G>, OtSenderSetup<G>) {
        let big_a = group.encode_all(vec![group.mul_base(a)]).remove(0);
        let sender = OtBatchSender {
            a: group.multiplier(a),
            big_a: big_a.clone(),
            t: group.mul_base(&group.neg_square(a)),
            group,
        };
        (sender, OtSenderSetup { big_a })
    }

    /// Random OT: the key of every branch of every OT, in batch order —
    /// `branches[i]` keys for the OT `replies[i]` answers, whose receiver
    /// holds exactly the one of its choice.
    ///
    /// # Errors
    ///
    /// [`CryptoError::InvalidOtMessage`] if the two counts differ, a `B`
    /// is not a valid group element, or an OT has neither two nor
    /// [`MAX_BRANCHES`] branches (one choice bit or two).
    pub fn keys(
        &self,
        replies: &[OtReceiverReply<G>],
        branches: &[usize],
    ) -> Result<Vec<Vec<[u8; 32]>>, CryptoError> {
        if replies.len() != branches.len() {
            return Err(CryptoError::InvalidOtMessage("reply count"));
        }
        let mut received = Vec::with_capacity(replies.len());
        for (reply, &n) in replies.iter().zip(branches) {
            if !matches!(n, 2 | MAX_BRANCHES) {
                return Err(CryptoError::InvalidOtMessage("branch count"));
            }
            received.push(self.group.receive(&reply.big_b)?.1);
        }
        let secrets: Vec<G::Point> = (self.powers(&received).into_iter().zip(branches))
            .flat_map(|(power, &n)| self.branch_secrets(power, n))
            .collect();
        let mut secrets = self.group.encode_all(secrets).into_iter();
        let keys = (replies.iter().zip(branches).enumerate())
            .map(|(index, (reply, &n))| {
                let transcript = transcript(&self.group, &self.big_a, &reply.big_b, index);
                (0..n)
                    .zip(&mut secrets)
                    .map(|(j, k)| derive_key(&self.group, &transcript, j, &k))
                    .collect()
            })
            .collect();
        Ok(keys)
    }

    /// `[a]Bᵢ` for every checked `Bᵢ`, under the one readied `a`.
    fn powers(&self, big_bs: &[G::Point]) -> Vec<G::Point> {
        (big_bs.iter())
            .map(|b| self.group.mul(b, &self.a))
            .collect()
    }

    /// The branch secrets `[a](B − [j]A)` for `j ∈ 0..branches` from
    /// `power = [a]B`, derived as `[a]B + [j]T` — the same group elements
    /// for one multiplication and an addition per further branch,
    /// instead of a negation and a multiplication each.
    fn branch_secrets(&self, power: G::Point, branches: usize) -> Vec<G::Point> {
        let mut secrets = vec![power];
        for j in 1..branches {
            secrets.push(self.group.add(&secrets[j - 1], &self.t));
        }
        secrets
    }
}

/// Receiver side of a batch of 1-of-n OTs under one sender key.
#[derive(Debug)]
pub struct OtBatchReceiver<G: Group> {
    group: G,
    big_a: G::Element,
    /// `A` checked, in the form [`Group::mul`] takes.
    a_point: G::Point,
    /// Per OT: the choice, the blinding scalar `b` and `B`.
    ots: Vec<(usize, G::Scalar, G::Element)>,
}

impl<G: Group> OtBatchReceiver<G> {
    /// Responds to the sender's setup with one blinded key `B` per
    /// choice (each in `0..MAX_BRANCHES`).
    ///
    /// # Errors
    ///
    /// [`CryptoError::InvalidOtMessage`] if `A` is invalid or a choice is
    /// out of range.
    pub fn new<R: Rng + ?Sized>(
        group: G,
        setup: &OtSenderSetup<G>,
        choices: &[usize],
        rng: &mut R,
    ) -> Result<(OtBatchReceiver<G>, Vec<OtReceiverReply<G>>), CryptoError> {
        let a_points = group.receive(&setup.big_a)?;
        if choices.iter().any(|&c| c >= MAX_BRANCHES) {
            return Err(CryptoError::InvalidOtMessage("choice out of range"));
        }
        let scalars = choices.iter().map(|_| group.draw(rng)).collect();
        Ok(OtBatchReceiver::with_scalars(
            group,
            setup.big_a.clone(),
            a_points,
            choices,
            scalars,
        ))
    }

    fn with_scalars(
        group: G,
        big_a: G::Element,
        (a_raw, a_point): (G::Point, G::Point),
        choices: &[usize],
        scalars: Vec<G::Scalar>,
    ) -> (OtBatchReceiver<G>, Vec<OtReceiverReply<G>>) {
        let points: Vec<G::Point> = (choices.iter().zip(&scalars))
            .map(|(&c, b)| (0..c).fold(group.mul_base(b), |x, _| group.add(&x, &a_raw)))
            .collect();
        let big_bs = group.encode_all(points);
        let replies = (big_bs.iter())
            .map(|big_b| OtReceiverReply {
                big_b: big_b.clone(),
            })
            .collect();
        let ots = (choices.iter().zip(scalars).zip(big_bs))
            .map(|((&c, b), big_b)| (c, b, big_b))
            .collect();
        let receiver = OtBatchReceiver {
            group,
            big_a,
            a_point,
            ots,
        };
        (receiver, replies)
    }

    /// The comb table [`OtBatchReceiver::keys`] takes every `[bᵢ]A`
    /// off — built per call; `None` for a batch below
    /// [`A_TABLE_MIN_BATCH`], which multiplies per OT.
    pub fn a_table(&self) -> Option<G::Table> {
        (self.ots.len() >= A_TABLE_MIN_BATCH).then(|| self.group.table(&self.a_point))
    }

    /// Random OT: the key of every OT's chosen branch, in batch order —
    /// the same key the sender's [`OtBatchSender::keys`] holds at that
    /// branch.
    pub fn keys(self) -> Vec<[u8; 32]> {
        let a_table = self.a_table();
        let shared: Vec<G::Point> = (self.ots.iter())
            .map(|(_, b, _)| match &a_table {
                Some(table) => self.group.mul_table(table, b),
                None => self.group.mul(&self.a_point, &self.group.multiplier(b)),
            })
            .collect();
        let shared = self.group.encode_all(shared);
        (self.ots.iter().zip(shared).enumerate())
            .map(|(index, ((c, _, big_b), k))| {
                let transcript = transcript(&self.group, &self.big_a, big_b, index);
                derive_key(&self.group, &transcript, *c, &k)
            })
            .collect()
    }
}

/// Runs both sides of a single 1-of-2 chosen-message OT in memory — a
/// random OT batch of one whose two keys pad `m0` and `m1` (reference
/// flow used by tests and the single-process simulator).
///
/// # Errors
///
/// [`CryptoError::InvalidOtMessage`] if the two messages differ in
/// length.
pub fn run_local_ot<R: Rng + ?Sized>(
    group: &OtGroup,
    m0: &[u8],
    m1: &[u8],
    choice: bool,
    rng: &mut R,
) -> Result<Vec<u8>, CryptoError> {
    match group {
        OtGroup::Dh(g) => local_ot(g, m0, m1, choice, rng),
        OtGroup::Ed25519(g) => local_ot(g, m0, m1, choice, rng),
    }
}

fn local_ot<G: Group, R: Rng + ?Sized>(
    group: &G,
    m0: &[u8],
    m1: &[u8],
    choice: bool,
    rng: &mut R,
) -> Result<Vec<u8>, CryptoError> {
    if m0.len() != m1.len() {
        return Err(CryptoError::InvalidOtMessage("branch lengths"));
    }
    let choice = usize::from(choice);
    let (sender, setup) = OtBatchSender::new(group.clone(), rng);
    let (receiver, replies) = OtBatchReceiver::new(group.clone(), &setup, &[choice], rng)?;
    let sent = sender.keys(&replies, &[2])?;
    let padded: Vec<Vec<u8>> = (sent[0].iter().zip([m0, m1]))
        .map(|(key, m)| pad(key, m))
        .collect();
    Ok(pad(&receiver.keys()[0], &padded[choice]))
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
        let g = DhGroup::test_192();
        assert!(g.g_table().max_bits() >= g.p().bit_length());
        let e = g.p() - &BigUint::one();
        assert_eq!(g.pow_g(&e), g.pow(g.g(), &e));
    }

    #[test]
    fn clones_and_builtin_handles_share_one_context() {
        let a = DhGroup::test_192();
        let b = DhGroup::test_192();
        assert!(Arc::ptr_eq(&a.ctx, &b.ctx));
        assert!(Arc::ptr_eq(&a.ctx, &a.clone().ctx));
        // A table built through one handle is the one every other sees.
        assert!(std::ptr::eq(a.g_table(), b.clone().g_table()));
        let custom = DhGroup::from_parts(a.p().clone(), a.g().clone());
        assert_eq!(custom, a);
        assert!(!Arc::ptr_eq(&custom.ctx, &a.ctx));
        // The curve's basepoint table is one per process as well.
        assert!(std::ptr::eq(basepoint_table(), basepoint_table()));
    }

    #[test]
    fn validate_element_accepts_exactly_the_open_interval() {
        let g = DhGroup::test_192();
        let one = BigUint::one();
        let p = g.p();
        for bad in [BigUint::zero(), one.clone(), p - &one, p.clone(), p + &one] {
            assert!(g.validate_element(&bad).is_err(), "{bad:?} accepted");
        }
        for good in [BigUint::from(2u64), p - &BigUint::from(2u64)] {
            assert!(g.validate_element(&good).is_ok(), "{good:?} rejected");
        }
    }

    #[test]
    fn exponent_width_follows_the_group_and_stays_below_its_order() {
        let group = DhGroup::test_192();
        assert_eq!(group.short_exponent_bits(), 160);
        assert!(160 < group.q().bit_length());
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
        let key = |s: &BigUint, a: &BigUint, b: &BigUint| {
            derive_key(&group, &transcript(&group, a, b, 3), 1, s)
        };
        assert_ne!(
            key(&shared, &big_a, &big_b),
            key(&shifted.0, &shifted.1, &shifted.2)
        );
        // The framing itself, in the order (domain, index, A, B, branch,
        // shared): every element at p's 24 bytes.
        let mut h = Sha256::new();
        h.update(b"pem-ot-key");
        h.update(&3u64.to_be_bytes());
        h.update(&bytes[23..]);
        h.update(&[1]);
        h.update(&[0]);
        h.update(&bytes[..23]);
        assert_eq!(key(&shared, &big_a, &big_b), h.finalize());
        // On the curve: the three 32-byte encodings as they are.
        let e = |x: u8| [x; 32];
        let mut h = Sha256::new();
        h.update(b"pem-ot-key");
        h.update(&3u64.to_be_bytes());
        for x in [2, 3] {
            h.update(&e(x));
        }
        h.update(&[1]);
        h.update(&e(1));
        assert_eq!(
            derive_key(&Ed25519, &transcript(&Ed25519, &e(2), &e(3), 3), 1, &e(1)),
            h.finalize()
        );
    }

    #[test]
    fn derive_key_known_answers() {
        // The transcript (domain, index, A, B) fills the first SHA-256
        // block on both groups — 10 + 8 + 2·24 = 66 bytes at Test192,
        // 82 on the curve — and a branch's suffix (branch byte, secret,
        // 9 bytes of padding) fits the second: one compression per OT
        // and one per branch, 5 for a 1-of-4 OT on the sender's side.
        for element in [24usize, 32] {
            assert!(10 + 8 + 2 * element >= 64, "{element}-byte elements");
            assert!((10 + 8 + 2 * element) % 64 + 1 + element + 9 <= 64);
        }
        let hex = |k: [u8; 32]| -> String { k.iter().map(|b| format!("{b:02x}")).collect() };
        let group = DhGroup::test_192();
        let dh = |x: u64| group.pow_g(&BigUint::from(x));
        let transcript_dh = transcript(&group, &dh(2), &dh(3), 7);
        let e = |x: u8| {
            basepoint_table()
                .mul(&Scalar::from_biguint(&BigUint::from(x)))
                .compress()
        };
        let transcript_ed = transcript(&Ed25519, &e(2), &e(3), 7);
        let keys: Vec<String> = (0..2)
            .flat_map(|j| {
                [
                    hex(derive_key(&group, &transcript_dh, j, &dh(5))),
                    hex(derive_key(&Ed25519, &transcript_ed, j, &e(5))),
                ]
            })
            .collect();
        assert_eq!(keys, KNOWN_KEYS);
    }

    /// `derive_key` at OT 7 of a batch with `A = [2]G`, `B = [3]G` and
    /// the secret `[5]G`: branch 0 then 1, `test192` then the curve.
    /// Computed outside this crate, with Python's `hashlib` over
    /// `pow(4, x, p)` and a textbook edwards25519 encoding.
    const KNOWN_KEYS: [&str; 4] = [
        "f11a6650dfdf07ea55bee74dcb60dfb7a5eca7a6778d3e17b7b567cb93ba7bdb",
        "6f50532c2f5086e3f4b69dde59f290f40014f4c53abca2940a127dd6fd70bdbc",
        "da55044ce58b0fc761012b305a84f5294a879963ed86dcf51a96b442fbfdde08",
        "c18893f18fd5a8e684773a61b2c7a1b62863e861f1970028ed22e5ce6ccb366c",
    ];

    #[test]
    fn random_ot_receivers_hold_the_key_of_their_choice() {
        // A batch of 1-of-4 and 1-of-2 OTs with every choice: the
        // receiver's key is the sender's key at its choice, and the
        // branches' keys are all distinct.
        fn check<G: Group>(group: G) {
            let mut rng = HashDrbg::new(b"ot-random");
            let choices = [0usize, 1, 2, 3, 0, 1];
            let branches = [4usize, 4, 4, 4, 2, 2];
            let (sender, setup) = OtBatchSender::new(group.clone(), &mut rng);
            let (receiver, replies) =
                OtBatchReceiver::new(group, &setup, &choices, &mut rng).expect("replies");
            let all = sender.keys(&replies, &branches).expect("keys");
            let held = receiver.keys();
            for (i, (&c, keys)) in choices.iter().zip(&all).enumerate() {
                assert_eq!(keys.len(), branches[i]);
                assert_eq!(held[i], keys[c], "OT {i}, choice {c}");
            }
            let mut flat: Vec<[u8; 32]> = all.concat();
            flat.sort();
            flat.dedup();
            assert_eq!(flat.len(), branches.iter().sum::<usize>());
            assert!(sender.keys(&replies, &[4, 4, 4, 4, 2, 3]).is_err());
            assert!(sender.keys(&replies[1..], &branches).is_err());
        }
        check(DhGroup::test_192());
        check(Ed25519);
    }

    /// Reference derivation of the branch secrets in `Z_p*`, as the
    /// formula reads: invert `Aʲ`, then a full ladder `(B·A⁻ʲ)^a` per
    /// branch.
    fn dh_reference(group: &DhGroup, a: &BigUint, big_b: &BigUint) -> Vec<BigUint> {
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

    /// The same on the curve: `[a](B − [j]A)` with `a` as drawn, on `B`
    /// as decoded (no cofactor clearing), each point encoded alone.
    fn ed_reference(a: &Scalar, big_b: &[u8; 32]) -> Vec<[u8; 32]> {
        let neg_a =
            basepoint_table().mul(&Scalar::from_biguint(&(ed25519::order() - &a.to_biguint())));
        let mut base = EdwardsPoint::decompress(big_b).expect("B decodes");
        (0..MAX_BRANCHES)
            .map(|_| {
                let k = base.mul(a).compress();
                base = base.add(&neg_a);
                k
            })
            .collect()
    }

    /// Branch secrets and keys of the one-multiplication derivation
    /// against `reference`, for one `(a, B)` — `B` sent at both
    /// positions of a batch of two.
    fn assert_matches_reference<G: Group>(
        group: &G,
        a: &G::Scalar,
        big_b: &G::Element,
        reference: &[G::Element],
    ) {
        let (sender, _) = OtBatchSender::with_scalar(group.clone(), a);
        let received = group.receive(big_b).expect("valid B").1;
        let power = sender.powers(&[received]).remove(0);
        let secrets = sender.branch_secrets(power, MAX_BRANCHES);
        assert_eq!(group.encode_all(secrets), reference);
        let reply = OtReceiverReply::<G> {
            big_b: big_b.clone(),
        };
        for n in [2, MAX_BRANCHES] {
            let expected = |index: usize| -> Vec<[u8; 32]> {
                let transcript = transcript(group, &sender.big_a, big_b, index);
                (0..n)
                    .map(|j| derive_key(group, &transcript, j, &reference[j]))
                    .collect()
            };
            let got = sender
                .keys(&[reply.clone(), reply.clone()], &[n, n])
                .expect("keys");
            for (index, keys) in got.iter().enumerate() {
                assert_eq!(*keys, expected(index), "1-of-{n} at {index}");
            }
        }
    }

    #[test]
    fn one_ladder_keys_match_reference_when_a_squared_vanishes() {
        // a² ≡ 0 (mod p − 1) — unreachable from a short draw; the
        // reduced exponent −a² is then p − 1 itself, the widest the
        // table serves, and `g^(p−1) = 1`.
        let group = DhGroup::test_192();
        let mut rng = HashDrbg::new(b"ot-edge");
        let big_b = group.pow_g(&short_exponent(group.short_exponent_bits(), &mut rng));
        for a in [
            BigUint::zero(),
            group.p() - &BigUint::one(),
            group.q().clone(),
        ] {
            assert_matches_reference(&group, &a, &big_b, &dh_reference(&group, &a, &big_b));
        }
    }

    /// One 1-of-4 OT per choice with the given scalars on both sides;
    /// every receiver must hold the sender's key of its own branch.
    fn assert_round_trips<G: Group>(group: &G, a: &G::Scalar, b: &G::Scalar)
    where
        G::Scalar: Clone,
    {
        let choices: Vec<usize> = (0..MAX_BRANCHES).collect();
        let (sender, setup) = OtBatchSender::with_scalar(group.clone(), a);
        let a_points = group.receive(&setup.big_a).expect("valid A");
        let (receiver, replies) = OtBatchReceiver::with_scalars(
            group.clone(),
            setup.big_a,
            a_points,
            &choices,
            vec![b.clone(); choices.len()],
        );
        let sent = sender
            .keys(&replies, &[MAX_BRANCHES; MAX_BRANCHES])
            .expect("keys");
        let held = receiver.keys();
        for (i, &c) in choices.iter().enumerate() {
            assert_eq!(held[i], sent[i][c], "a={a:?} b={b:?} choice {c}");
        }
    }

    #[test]
    fn boundary_exponents_round_trip() {
        // The two ends of the short range, in every pairing.
        let group = DhGroup::test_192();
        let w = group.short_exponent_bits();
        let top = (BigUint::one() << w) - BigUint::one();
        assert_eq!(top.bit_length(), w);
        for a in [BigUint::one(), top.clone()] {
            for b in [BigUint::one(), top.clone()] {
                assert_round_trips(&group, &a, &b);
            }
        }
        // The two ends of the curve's scalars for `a`; `b = ±4`, since
        // `[c]A + [b]G` with `a = ±1` and `b = ∓c` is the identity, which
        // the sender refuses.
        let l = ed25519::order();
        let scalar = |x: BigUint| Scalar::from_biguint(&x);
        let four = BigUint::from(4u64);
        for a in [Scalar::ONE, scalar(l - &BigUint::one())] {
            for b in [scalar(four.clone()), scalar(l - &four)] {
                assert_round_trips(&Ed25519, &a, &b);
            }
        }
    }

    #[test]
    fn the_curve_multiplier_undoes_the_cofactor() {
        let mut rng = HashDrbg::new(b"ot-cofactor");
        let k = Scalar::random(&mut rng);
        let eight = Scalar::from_biguint(&BigUint::from(8u64));
        let m = Ed25519.multiplier(&k);
        let back = Scalar::from_biguint(&(&m.to_biguint() * &eight.to_biguint()));
        assert_eq!(back, k);
        // [k/8]·(8P) = [k]P for a subgroup point P.
        let p = basepoint_table().mul(&Scalar::random(&mut rng));
        let (_, cleared) = Ed25519.receive(&p.compress()).expect("valid");
        assert_eq!(Ed25519.mul(&cleared, &m), p.mul(&k));
        let table = Ed25519.table(&cleared);
        assert_eq!(Ed25519.mul_table(&table, &k), p.mul(&k));
    }

    proptest::proptest! {
        #![proptest_config(proptest::test_runner::ProptestConfig::with_cases(6))]

        #[test]
        fn one_ladder_keys_match_reference(seed in proptest::arbitrary::any::<u64>()) {
            let mut rng = HashDrbg::from_seed_label(b"ot-one-ladder", seed);
            // Every branch secret is checked whatever the reply's choice.
            let choice = [(seed % MAX_BRANCHES as u64) as usize];
            let group = DhGroup::test_192();
            // Any exponent below p — a superset of what the sender
            // draws — and one drawn the way the sender draws it.
            let full = BigUint::random_below(group.p(), &mut rng);
            let short = group.draw(&mut rng);
            for a in [full, short] {
                let setup = OtSenderSetup { big_a: group.pow_g(&a) };
                let (_, replies) =
                    OtBatchReceiver::new(group.clone(), &setup, &choice, &mut rng)
                        .expect("valid A");
                let reference = dh_reference(&group, &a, &replies[0].big_b);
                assert_matches_reference(&group, &a, &replies[0].big_b, &reference);
            }
            let a = Ed25519.draw(&mut rng);
            let setup = OtSenderSetup::<Ed25519> { big_a: basepoint_table().mul(&a).compress() };
            let (_, replies) =
                OtBatchReceiver::new(Ed25519, &setup, &choice, &mut rng).expect("valid A");
            let reference = ed_reference(&a, &replies[0].big_b);
            assert_matches_reference(&Ed25519, &a, &replies[0].big_b, &reference);
        }

        #[test]
        fn batched_ladders_match_group_pow(seed in proptest::arbitrary::any::<u64>()) {
            let mut rng = HashDrbg::from_seed_label(b"ot-batched-ladders", seed);
            let group = DhGroup::test_192();
            let a = group.draw(&mut rng);
            let (sender, _) = OtBatchSender::with_scalar(group.clone(), &a);
            // Bases of every shape under the one recoding: subgroup
            // elements, a tiny one, the largest valid one.
            let mut bases: Vec<BigUint> = (0..3)
                .map(|_| BigUint::random_below(group.p(), &mut rng))
                .collect();
            bases.push(BigUint::from(2u64));
            bases.push(group.p() - &BigUint::from(2u64));
            let expected: Vec<BigUint> = bases.iter().map(|b| group.pow(b, &a)).collect();
            proptest::prop_assert_eq!(sender.powers(&bases), expected);
            // On the curve the batch's multiplications run on cleared
            // points; for subgroup points they are the textbook [a]B.
            let a = Ed25519.draw(&mut rng);
            let (sender, _) = OtBatchSender::with_scalar(Ed25519, &a);
            let bases: Vec<EdwardsPoint> =
                (0..4).map(|_| basepoint_table().mul(&Ed25519.draw(&mut rng))).collect();
            let cleared: Vec<EdwardsPoint> = (bases.iter())
                .map(|b| Ed25519.receive(&b.compress()).expect("valid").1)
                .collect();
            let expected: Vec<EdwardsPoint> = bases.iter().map(|b| b.mul(&a)).collect();
            proptest::prop_assert_eq!(sender.powers(&cleared), expected);
        }

        #[test]
        fn short_exponents_round_trip(seed in proptest::arbitrary::any::<u64>()) {
            let mut rng = HashDrbg::from_seed_label(b"ot-short-round-trip", seed);
            let group = DhGroup::test_192();
            let w = group.short_exponent_bits();
            let a = group.draw(&mut rng);
            let b = group.draw(&mut rng);
            proptest::prop_assert!(a.bit_length() <= w && b.bit_length() <= w);
            assert_round_trips(&group, &a, &b);
            let (a, b) = (Ed25519.draw(&mut rng), Ed25519.draw(&mut rng));
            assert_round_trips(&Ed25519, &a, &b);
        }
    }

    fn groups() -> [OtGroup; 2] {
        [DhGroup::test_192().into(), Ed25519.into()]
    }

    #[test]
    fn ot_delivers_chosen_branch() {
        let mut rng = HashDrbg::new(b"ot-basic");
        let m0 = b"label-for-zero--";
        let m1 = b"label-for-one---";
        for group in groups() {
            let r0 = run_local_ot(&group, m0, m1, false, &mut rng).expect("ot");
            assert_eq!(r0, m0);
            let r1 = run_local_ot(&group, m0, m1, true, &mut rng).expect("ot");
            assert_eq!(r1, m1);
        }
    }

    /// One batch with every choice, short enough for the per-OT lane
    /// (4 OTs) and long enough for the `A` table (12): the receiver's key
    /// is the sender's at its choice and no other branch's.
    fn assert_receiver_cannot_decrypt_other_branch<G: Group>(group: G) {
        let mut rng = HashDrbg::new(b"ot-batch");
        for len in [4usize, 12] {
            let choices: Vec<usize> = (0..len).map(|i| i % MAX_BRANCHES).collect();
            let (sender, setup) = OtBatchSender::new(group.clone(), &mut rng);
            let (receiver, replies) =
                OtBatchReceiver::new(group.clone(), &setup, &choices, &mut rng).expect("replies");
            assert_eq!(receiver.a_table().is_some(), len >= A_TABLE_MIN_BATCH);
            let sent = sender
                .keys(&replies, &vec![MAX_BRANCHES; len])
                .expect("keys");
            let held = receiver.keys();
            for (i, &c) in choices.iter().enumerate() {
                assert_eq!(held[i], sent[i][c], "OT {i} holds branch {c}");
                for j in (0..MAX_BRANCHES).filter(|&j| j != c) {
                    assert_ne!(held[i], sent[i][j], "OT {i}: branch {j} held");
                }
            }
        }
    }

    #[test]
    fn receiver_cannot_decrypt_other_branch() {
        assert_receiver_cannot_decrypt_other_branch(DhGroup::test_192());
        assert_receiver_cannot_decrypt_other_branch(Ed25519);
    }

    #[test]
    fn equal_replies_at_two_positions_get_different_pads() {
        // A branch key is the pad of a message of up to 32 bytes.
        let group = DhGroup::test_192();
        let mut rng = HashDrbg::new(b"ot-index");
        let (sender, setup) = OtBatchSender::new(group.clone(), &mut rng);
        let (_, replies) = OtBatchReceiver::new(group, &setup, &[2], &mut rng).expect("reply");
        let twice = [replies[0].clone(), replies[0].clone()];
        let keys = sender.keys(&twice, &[MAX_BRANCHES; 2]).expect("keys");
        let (at_0, at_1) = (&keys[0], &keys[1]);
        for j in 0..MAX_BRANCHES {
            assert_ne!(at_0[j], at_1[j], "branch {j}");
            for k in 0..j {
                assert_ne!(at_0[j], at_0[k], "branches {k}, {j}");
            }
        }
    }

    #[test]
    fn rejects_invalid_elements() {
        let group = DhGroup::test_192();
        let mut rng = HashDrbg::new(b"ot-invalid");
        let (sender, _setup) = OtBatchSender::new(group.clone(), &mut rng);
        for big_b in [BigUint::one(), group.p() - &BigUint::one()] {
            let bad = OtReceiverReply { big_b };
            assert!(sender.keys(&[bad], &[2]).is_err());
        }

        let bad_setup = OtSenderSetup {
            big_a: group.p().clone(),
        };
        assert!(OtBatchReceiver::new(group.clone(), &bad_setup, &[0], &mut rng).is_err());
        let (_, setup) = OtBatchSender::new(group.clone(), &mut rng);
        assert!(OtBatchReceiver::new(group, &setup, &[MAX_BRANCHES], &mut rng).is_err());

        // On the curve: a non-canonical y, a y off the curve, x = 0 with
        // the sign bit, the identity and the order-2 point (0, −1) —
        // each refused as `B` and as `A`, with a typed error.
        let (sender, _) = OtBatchSender::new(Ed25519, &mut rng);
        let with = |y: u8, top: u8| {
            let mut e = [0u8; 32];
            e[0] = y;
            e[31] = top;
            e
        };
        let mut minus_one = [0xffu8; 32];
        minus_one[0] = 0xec;
        minus_one[31] = 0x7f;
        let mut y_is_p = minus_one;
        y_is_p[0] = 0xed;
        for bad in [y_is_p, with(2, 0), with(1, 0x80), with(1, 0), minus_one] {
            let reply = OtReceiverReply::<Ed25519> { big_b: bad };
            assert!(
                matches!(
                    sender.keys(&[reply], &[2]),
                    Err(CryptoError::InvalidOtMessage(_))
                ),
                "B = {bad:02x?}"
            );
            let setup = OtSenderSetup::<Ed25519> { big_a: bad };
            assert!(
                matches!(
                    OtBatchReceiver::new(Ed25519, &setup, &[0], &mut rng),
                    Err(CryptoError::InvalidOtMessage(_))
                ),
                "A = {bad:02x?}"
            );
        }
        let (_, setup) = OtBatchSender::new(Ed25519, &mut rng);
        assert!(OtBatchReceiver::new(Ed25519, &setup, &[MAX_BRANCHES], &mut rng).is_err());
    }

    #[test]
    fn rejects_mismatched_lengths() {
        let group = DhGroup::test_192();
        let mut rng = HashDrbg::new(b"ot-len");
        let (sender, setup) = OtBatchSender::new(group.clone(), &mut rng);
        let (_, reply) =
            OtBatchReceiver::new(group.clone(), &setup, &[1], &mut rng).expect("reply");
        // Branch counts other than one choice bit or two.
        for branches in [1, 3, MAX_BRANCHES + 1] {
            assert!(sender.keys(&reply, &[branches]).is_err());
        }
        // One reply, two OTs' worth of branch counts (and the reverse).
        assert!(sender.keys(&reply, &[2, 2]).is_err());
        assert!(sender
            .keys(&[reply[0].clone(), reply[0].clone()], &[2])
            .is_err());
        // A chosen-message transfer of two messages of different lengths.
        for group in groups() {
            assert!(run_local_ot(&group, &[0u8; 4], &[1u8; 5], true, &mut rng).is_err());
        }
    }

    #[test]
    fn many_transfers_random_choices() {
        let mut rng = HashDrbg::new(b"ot-many");
        for group in groups() {
            for i in 0..20u8 {
                let m0 = vec![i; 16];
                let m1 = vec![i ^ 0xFF; 16];
                let choice = i % 3 == 0;
                let got = run_local_ot(&group, &m0, &m1, choice, &mut rng).expect("ot");
                assert_eq!(got, if choice { m1 } else { m0 });
            }
        }
    }
}
