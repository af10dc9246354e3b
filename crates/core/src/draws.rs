//! Named randomness: every draw of a window comes from a stream named
//! by who draws it, for what, and in which attempt of which window.
//!
//! In the paper's semi-honest model (§II-B) each home draws its own
//! nonce and its own encryption randomness. Here a party's stream is
//! the name `(coalition seed, party, window, attempt, purpose)`, hashed
//! field by field — each length-delimited — into one SHA-256 seed of a
//! [`HashDrbg`]. That is a counter-based design (Salmon et al., SC
//! 2011): any stream opens on its own, without running the ones before
//! it, so no draw depends on another party's draws, on the order the
//! simulator happens to visit the parties in, or on what an earlier
//! attempt or window drew. A failed attempt burns its own streams, and
//! the retry — the next attempt number — opens fresh ones.
//!
//! The purposes are a party's Protocol 2 [`nonce`](Draws::nonce), the
//! [`randomizer`](Draws::randomizer)s of the ciphertexts it sends under
//! one label, and the comparison's [`garble`](Draws::garble) draws (the
//! garbler's OT scalar and label offset `Δ`, the evaluator's OT
//! scalars). A role
//! (`H_r1`, `H_r2`, `H_b`, the decryptor) is a coalition-public
//! [`pick`](Draws::pick): its stream names no party.

use pem_crypto::drbg::HashDrbg;
use pem_crypto::Sha256;
use rand::Rng;

/// The name of one attempt of one window — `(coalition seed, window,
/// attempt)` — under which each party opens its streams.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Draws {
    /// The coalition's seed.
    pub seed: u64,
    /// The window's index.
    pub window: u64,
    /// The attempt's number within the window (0 for the first run).
    pub attempt: u32,
}

impl Draws {
    /// The attempt named by its coalition seed, window and number.
    pub fn new(seed: u64, window: u64, attempt: u32) -> Draws {
        Draws {
            seed,
            window,
            attempt,
        }
    }

    /// Party `party`'s masking nonce stream (Protocol 2).
    pub fn nonce(self, party: usize) -> HashDrbg {
        self.open(&(party as u64).to_be_bytes(), b'n', "")
    }

    /// Party `party`'s stream for the encryption randomizers of what it
    /// sends under `label`: one stream per message, so no randomizer is
    /// drawn twice, under any key.
    pub fn randomizer(self, party: usize, label: &'static str) -> HashDrbg {
        self.open(&(party as u64).to_be_bytes(), b'r', label)
    }

    /// Party `party`'s comparison stream: the garbler's OT sender scalar
    /// and label offset `Δ`, or the evaluator's OT receiver scalars.
    pub fn garble(self, party: usize) -> HashDrbg {
        self.open(&(party as u64).to_be_bytes(), b'g', "")
    }

    /// The coalition-public pick of `role` among `candidates`: a draw of
    /// the attempt's `role` stream, which names no party.
    ///
    /// # Panics
    ///
    /// Panics if `candidates` is empty.
    pub fn pick(self, role: &'static str, candidates: &[usize]) -> usize {
        candidates[self.open(&[], b'o', role).gen_range(0..candidates.len())]
    }

    /// The stream of one name: each field prefixed with its length (every
    /// field is under 256 bytes), all hashed into the generator's key —
    /// one SHA-256 compression for labels up to 20 bytes.
    fn open(self, party: &[u8], purpose: u8, qualifier: &str) -> HashDrbg {
        let (seed, window) = (self.seed.to_be_bytes(), self.window.to_be_bytes());
        let attempt = self.attempt.to_be_bytes();
        let mut name = Sha256::new();
        for field in [
            &seed[..],
            party,
            &window,
            &attempt,
            &[purpose],
            qualifier.as_bytes(),
        ] {
            name.update(&[field.len() as u8]);
            name.update(field);
        }
        HashDrbg::from_key(name.finalize())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::RngCore;

    fn first(mut stream: HashDrbg) -> u64 {
        stream.next_u64()
    }

    #[test]
    fn names_one_field_apart_open_different_streams() {
        let base = Draws::new(7, 3, 1);
        let reference = first(base.nonce(2));
        assert_eq!(reference, first(base.nonce(2)), "a name is its stream");
        let one_apart = [
            ("seed", first(Draws::new(8, 3, 1).nonce(2))),
            ("party", first(base.nonce(3))),
            ("window", first(Draws::new(7, 4, 1).nonce(2))),
            ("attempt", first(Draws::new(7, 3, 2).nonce(2))),
            ("purpose", first(base.garble(2))),
        ];
        for (field, value) in one_apart {
            assert_ne!(value, reference, "{field}");
        }
        let labels = [
            first(base.randomizer(2, "eval/demand-agg")),
            first(base.randomizer(2, "eval/supply-agg")),
        ];
        assert_ne!(labels[0], labels[1], "one stream per label");
    }

    #[test]
    fn fields_are_hashed_not_xored() {
        // A `seed ^ (party << 24)` derivation gives (seed, party 1) and
        // (seed ^ 1 << 24, party 0) one stream, as would any fold of the
        // fields into one integer; hashed fields keep them apart.
        let key = |seed: u64, party: u64| seed ^ (party << 24);
        let (seed, other) = (7u64, 7u64 ^ (1 << 24));
        assert_eq!(key(seed, 1), key(other, 0), "the colliding pair");
        let named = |seed, party| first(Draws::new(seed, 0, 0).nonce(party));
        assert_ne!(named(seed, 1), named(other, 0));
        // Nor does a field run into the next: the purpose and the label
        // are delimited.
        let draws = Draws::new(seed, 0, 0);
        assert_ne!(first(draws.garble(0)), first(draws.randomizer(0, "")));
    }

    #[test]
    fn a_pick_names_its_role_and_no_party() {
        let draws = Draws::new(7, 0, 0);
        let candidates: Vec<usize> = (0..1000).collect();
        let roles = ["H_r1", "H_r2", "H_b", "decryptor"].map(|r| draws.pick(r, &candidates));
        for (i, a) in roles.iter().enumerate() {
            for b in &roles[i + 1..] {
                assert_ne!(a, b, "{roles:?}");
            }
        }
        assert_eq!(
            draws.pick("H_b", &candidates),
            roles[2],
            "a pick is its name"
        );
        assert_eq!(draws.pick("H_b", &[5]), 5);
    }
}
