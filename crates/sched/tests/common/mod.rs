//! The one pinned grid scenario and its goldens, shared by
//! `fingerprint_golden.rs` and `telemetry_determinism.rs`.
//!
//! Two goldens, two rules:
//!
//! * [`MARKET_GOLDEN`] hashes what the market *decided* — per shard
//!   `(shard, members, kind, price bits, trades, allocation_ratios)` plus
//!   the settlement tip — i.e. [`GridReport::fingerprint`] minus the
//!   nonce-dependent `masked_*` terms and `net.total_*`. None of it
//!   depends on the RNG stream or the wire format, so **no PR may ever
//!   re-record it**: a drift here is a changed market outcome.
//! * [`GOLDEN`] is the full fingerprint, which also folds the masked
//!   totals and the bytes on the wire. **Only a PR that changes the wire
//!   format or the key/draw stream may re-record it**, here and nowhere
//!   else, and only while `MARKET_GOLDEN` passes unchanged.
//!
//! [`TREE_COUPLED_GOLDEN`] and [`PAPER512_GOLDEN`] pin the same
//! scenario on paths `GOLDEN` does not reach (tree + coupling; a paper
//! key, whose bounded decryptions run on one CRT leg), under `GOLDEN`'s
//! rule.
//!
//! To inspect current values:
//! `cargo test -p pem-sched --test fingerprint_golden -- --nocapture`.

use pem_core::{PemConfig, Topology};
use pem_coupling::CouplingConfig;
use pem_crypto::sha256;
use pem_data::{TraceConfig, TraceGenerator};
use pem_market::AgentWindow;
use pem_net::LatencyModel;
use pem_sched::{Engine, GridConfig, GridOrchestrator, GridReport, PartitionStrategy, RetryPolicy};

/// Full fingerprints per window. Recorded on the pre-overhaul kernel
/// (PR 2 state); re-recorded once by the batched-OT wire change (PR 19:
/// one sender key and 2-bit chunks per comparison) and once by the
/// fixed-base randomizer lane (PR 22: key generation forces the top two
/// bits of each prime and draws `y` for `h_s`, and every randomizer is a
/// short `x` instead of a uniform `r` — so the key moduli, the
/// minimal-length integers behind `net.total_bytes` and the
/// draw-dependent `masked_*` terms moved; nothing `MARKET_GOLDEN` covers
/// did) and once by the short OT exponents (PR 23: a comparison draws
/// 33 short values where it drew 33 uniform ones below `q`, so the
/// DRBG stream behind it moves — window 1's `masked_*` terms, and
/// `net.total_bytes` by +1 / +2 bytes of minimal-length integers;
/// window, agents, message counts, ratios and the ledger tip did not)
/// and once by the half-gates comparator (`eval/gc-offer` now ships
/// 64 two-row tables and an output hash pair instead of 127 four-row
/// tables and a decode bit, so `net.total_bytes` moved; the garbler no
/// longer draws a label per AND, so every later draw of the window
/// stream, and with it the `masked_*` terms, moved too) and once when
/// keys moved to their homes and randomizers to their keys' streams (a
/// home's key pair now derives from the master seed and its id, not
/// from its coalition slot, so every modulus moved; and an encryption
/// the pool cannot serve draws on line from its key's stream instead
/// of the window DRBG, so window 1's nonces — drawn after window 0's
/// fallbacks — and its `masked_*` terms moved. Window 0 draws its
/// nonces before any encryption and its bytes happen to match, so its
/// fingerprint held) and once when each comparison narrowed to its
/// coalition's width (`compare_width(m)`, 47 bits for these coalitions
/// of ten instead of the 64-bit ceiling: fewer tables, labels and OT
/// chunks on the wire, so `net.total_bytes` moved; fewer label and OT
/// draws, so every later draw of the window stream, and with it the
/// `masked_*` terms, moved too) and once when every party began to draw
/// from its own named streams (`pem_core::Draws`: a nonce, randomizer,
/// garbling or role draw is named by the coalition seed, party, window,
/// attempt and purpose, not taken in protocol order from one window
/// DRBG and per-key streams — so every nonce, role and randomizer
/// moved, and with them the `masked_*` terms and, by minimal-length
/// integers, `net.total_bytes`: 30,850 → 30,846 and 30,705 → 30,707;
/// message counts, market outcomes and the ledger tip held) and once
/// when the comparison hardwired the garbler's bits and took the
/// evaluator's labels from a random OT (`eval/gc-offer` carries only
/// the width and `A`, the transfer three corrections per chunk instead
/// of four ciphertexts, so `net.total_bytes` 30,846 → 24,833 and 30,707
/// → 24,691; the `masked_*` terms, message counts, market outcomes and
/// the ledger tip held).
pub const GOLDEN: [&str; 2] = [
    "334885c20b6e81afd7c22e90374dffa9ba959a944ce44854f6aebc819b5cb089",
    "47d79f94daba452fa30679f2e7136889c9f970c044c2900dcf813033b27279cd",
];

/// Market-outcome digests per window, recorded on the PR 18 tree.
pub const MARKET_GOLDEN: [&str; 2] = [
    "426b47a0d0ed57661a8841ec3b353a825b1e0f5e9ca9861ab67d7aecf6d2cbec",
    "a031c25ed686d1a98b4be86c2875fa232ad78bb75de33fe8c96a3e6d89c4b24d",
];

/// Tree + coupled pins per window (see [`run_tree_coupled`]), recorded on
/// the PR 23 tree, before the aggregation walks were merged into
/// `pem_core::fold`; re-recorded once for the half-gates comparator
/// (the same wire and draw change as [`GOLDEN`]), and once when
/// Protocols 2 and 4 began to fold on the configured tree too: the same
/// ciphertexts multiply in another order, so one intermediate product of
/// window 44 encodes a byte shorter (`net.total_bytes` 39,395 → 39,394);
/// every shard fingerprint, message count and the ledger tip held; and
/// once for per-home keys and per-key randomizer streams (the same
/// change as [`GOLDEN`]; the coupling fabric's bytes and critical path
/// held) and once for per-coalition comparison widths (the same change
/// as [`GOLDEN`]; the coupling fabric's bytes and critical path held),
/// and once for named streams (the same change as [`GOLDEN`]; each
/// shard representative now encrypts its coupling terms from its own
/// `(round, shard)` stream; the coupling fabric's bytes and critical
/// path held), and once for the hardwired comparison (the same change
/// as [`GOLDEN`]; the coupling fabric's bytes and critical path held).
/// Same re-record rule as [`GOLDEN`].
#[allow(dead_code)] // asserted by fingerprint_golden.rs only
pub const TREE_COUPLED_GOLDEN: [&str; 2] = [
    "86e930ae241e4652c456be5c4fdad0009a9006bdea7e1e92eb99360578d1c003:544:432",
    "fc62a2dabac846214f51c40c639ac6948129cccc158637beed79bc160846e094:544:432",
];

/// Full fingerprints per window of [`run_paper512`], recorded before
/// Protocol 4's decryptor packed its fan-in, while it still ran one CRT
/// decryption per ratio; re-recorded once for the half-gates comparator
/// (the same wire and draw change as [`GOLDEN`]) and once for per-home
/// keys and per-key randomizer streams (the same change as [`GOLDEN`];
/// pool-less, so every encryption now draws from its key's stream
/// instead of the window DRBG, and both windows moved) and once for
/// per-coalition comparison widths (the same change as [`GOLDEN`]),
/// and once for the comparison's OT on edwards25519 — a wire and draw
/// change `GOLDEN` does not see, since `fast_test` keeps `test192`: `A`
/// and every chunk's `B` cross as 32 raw bytes instead of a
/// length-prefixed 1024-bit integer, and each OT scalar draws 64 DRBG
/// bytes instead of a 160-bit exponent, so every later draw of the
/// window stream moves (both windows' market outcomes held), and once
/// for named streams (the same change as [`GOLDEN`]; `net.total_bytes`
/// 48,721 held and 46,416 → 46,418), and once for the hardwired
/// comparison (the same change as [`GOLDEN`]; 1,504 B less per
/// coalition-window, `net.total_bytes` 48,721 → 42,705 and 46,418 →
/// 40,402).
/// Same re-record rule as [`GOLDEN`].
#[allow(dead_code)] // asserted by fingerprint_golden.rs only
pub const PAPER512_GOLDEN: [&str; 2] = [
    "e3816283e403ce2ba702b112c3239fafb9f387a81c3cea2b0286386496d6afbb",
    "8a11d7411ce9989aaebea131b6c92ac4ef6ea6b23e64f308d6e51cac8f2d21b9",
];

/// The 40-home trace's agents at `windows`.
fn day(windows: &[usize], homes: usize) -> Vec<Vec<AgentWindow>> {
    let trace = TraceGenerator::new(TraceConfig {
        homes,
        windows: 96,
        seed: 40,
        ..TraceConfig::default()
    })
    .generate();
    windows.iter().map(|&w| trace.window_agents(w)).collect()
}

/// The two windows `GOLDEN`, `MARKET_GOLDEN` and `TREE_COUPLED_GOLDEN`
/// pin.
const WINDOWS: [usize; 2] = [44, 45];

/// The 40-home scenario at `windows` under `pem` / `coupling`.
fn run_grid(
    windows: &[usize],
    pem: PemConfig,
    coupling: Option<CouplingConfig>,
    workers: usize,
    engine: Engine,
) -> Vec<GridReport> {
    let mut grid = GridOrchestrator::new(GridConfig {
        pem,
        coalition_size: 10,
        workers,
        engine,
        strategy: PartitionStrategy::SurplusBalanced,
        coupling,
        retry: RetryPolicy::default(),
    })
    .expect("grid");
    day(windows, 40)
        .iter()
        .map(|pop| grid.run_window(pop).expect("window"))
        .collect()
}

/// The only goldened run at a paper key: `PemConfig::paper(512)`,
/// where every bounded decryption runs on the 256-bit p-leg alone. Its
/// packs hold one 98-bit slot each (four on both legs until the packs
/// were sized to the leg; decryption is local and exact, so the
/// fingerprints did not move). Window 44 is four general markets with
/// 8–9 buyers each; window 90 after it is one general market with 6
/// buyers and three extreme ones with 7–8 sellers, so both market cases
/// decrypt more than four ratios. Multi-slot packs are pinned by
/// `pem-crypto`'s `decrypt_packed` properties (4 slots at 1024 bits).
#[allow(dead_code)] // asserted by fingerprint_golden.rs only
pub fn run_paper512() -> Vec<GridReport> {
    run_grid(&[44, 90], PemConfig::paper(512), None, 2, Engine::Threads)
}

/// Two coupling-off windows of the 40-home scenario at `workers` workers.
pub fn run(workers: usize) -> Vec<GridReport> {
    run_grid(
        &WINDOWS,
        PemConfig::fast_test(),
        None,
        workers,
        Engine::Threads,
    )
}

/// The same two windows on the paths `GOLDEN` does not reach: every fold
/// of Protocols 2–4 over `Topology::tree()` and the coupling round on.
/// One string per window: the full fingerprint, then
/// the coupling fabric's bytes and critical path (LAN links, so the
/// tree's virtual clock is pinned, not a zero).
#[allow(dead_code)] // asserted by fingerprint_golden.rs only
pub fn run_tree_coupled(workers: usize, engine: Engine) -> Vec<String> {
    let pem = PemConfig::fast_test().with_topology(Topology::tree());
    let coupling = CouplingConfig::fast_test().with_latency(LatencyModel::lan());
    run_grid(&WINDOWS, pem, Some(coupling), workers, engine)
        .iter()
        .map(|r| {
            let cs = r.coupling.as_ref().expect("coupling on");
            format!(
                "{}:{}:{}",
                hex(&r.fingerprint()),
                cs.net.total_bytes,
                cs.critical_path_us
            )
        })
        .collect()
}

pub fn hex(bytes: &[u8]) -> String {
    bytes.iter().map(|b| format!("{b:02x}")).collect()
}

/// Full fingerprints of a run, as hex.
pub fn fingerprints(reports: &[GridReport]) -> Vec<String> {
    reports.iter().map(|r| hex(&r.fingerprint())).collect()
}

/// Market-outcome digests of a run, as hex (see [`MARKET_GOLDEN`]).
pub fn market_fingerprints(reports: &[GridReport]) -> Vec<String> {
    reports
        .iter()
        .map(|r| {
            let mut buf = b"pem-market-golden-v1".to_vec();
            let mut put = |v: u64| buf.extend_from_slice(&v.to_be_bytes());
            for so in &r.shard_outcomes {
                put(so.shard as u64);
                put(so.members.len() as u64);
                so.members.iter().for_each(|&m| put(m as u64));
                put(so.outcome.kind as u64);
                put(so.outcome.price.to_bits());
                put(so.outcome.trades.len() as u64);
                for t in &so.outcome.trades {
                    put(t.seller.0 as u64);
                    put(t.buyer.0 as u64);
                    put(t.energy.to_bits());
                    put(t.payment.to_bits());
                }
                let ratios = &so.outcome.revealed.allocation_ratios;
                put(ratios.len() as u64);
                ratios.iter().for_each(|x| put(x.to_bits()));
            }
            buf.extend_from_slice(&r.settlement.tip_hash);
            hex(&sha256(&buf))
        })
        .collect()
}
