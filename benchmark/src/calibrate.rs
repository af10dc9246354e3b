//! A fixed piece of work that measures how fast the machine is *right
//! now*, so the single-thread engine's timings can be read at one speed.
//!
//! The box of record is a small VM. When one of its two vCPUs is busy
//! and the other idle — the fabric engine — it flips between a fast and
//! a slow mode a fifth apart, for whole runs at a time; ten raw runs of
//! `day100_fabric` spread by 8–17%. None of that is the program's doing.
//! The kernel below is the benchmark's own code — no later change to the
//! repository can make it faster or slower — and it is compute-bound in
//! a 4 KiB working set, like the multi-word arithmetic that dominates
//! every workload. Timed on the engine's thread between windows, its
//! median over a run says what the machine gave that run; timings are
//! scaled by [`NOMINAL_MS`]` / median` and so read as milliseconds on
//! this box in its usual mode (spread: 2.5–5%).
//!
//! The thread engine keeps both vCPUs busy and never sees the fast mode.
//! A two-thread kernel between its windows was tried and proved a worse
//! witness than none (it put 25% outliers into one run in ten), so
//! thread-engine timings are reported as measured.

use std::hint::black_box;
use std::time::Instant;

/// What the kernel takes on the box of record in its usual (slower) mode.
pub const NOMINAL_MS: f64 = 7.2;

/// Milliseconds for a multiply-accumulate carry chain over 512 words,
/// 20 000 times: ≈10⁷ 64×64→128-bit multiplications.
pub fn sample_ms() -> f64 {
    let start = Instant::now();
    let mut words = [0u64; 512];
    for (i, w) in words.iter_mut().enumerate() {
        *w = black_box(i as u64).wrapping_mul(0x9E37_79B9_7F4A_7C15);
    }
    let mut carry = 1u128;
    for _ in 0..20_000 {
        for w in words.iter_mut() {
            let product = u128::from(*w) * 0xD1B5_4A32_D192_ED03 + carry;
            *w = product as u64;
            carry = product >> 64;
        }
    }
    black_box(&words);
    start.elapsed().as_secs_f64() * 1e3
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn kernel_takes_measurable_time() {
        let ms = sample_ms();
        assert!(ms.is_finite() && ms > 0.1, "{ms} ms");
    }
}
