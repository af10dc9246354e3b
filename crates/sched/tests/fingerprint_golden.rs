//! Golden-fingerprint regression: a coupling-off grid run must produce
//! the exact market outcomes and `GridReport::fingerprint` bytes on
//! record (`common::MARKET_GOLDEN`, `common::GOLDEN`), at every worker
//! count.
//!
//! The determinism tests (`determinism.rs`) prove runs agree with *each
//! other*; this test pins them to the *recorded* bits, so a kernel swap
//! (shared Montgomery contexts, CRT decryption, windowed exponentiation)
//! that silently changed a ciphertext byte or an RNG draw would fail
//! loudly instead of re-baselining itself. `common/mod.rs` states which
//! golden may be re-recorded, and by what kind of PR.

mod common;

#[test]
fn coupling_off_fingerprints_match_pre_overhaul_goldens() {
    for workers in [1usize, 4, 8] {
        let reports = common::run(workers);
        let market = common::market_fingerprints(&reports);
        let full = common::fingerprints(&reports);
        for (w, (m, f)) in market.iter().zip(&full).enumerate() {
            println!("workers={workers} window={w} market={m} fingerprint={f}");
        }
        assert_eq!(
            market,
            common::MARKET_GOLDEN.to_vec(),
            "market outcomes drifted at {workers} workers"
        );
        assert_eq!(
            full,
            common::GOLDEN.to_vec(),
            "coupling-off fingerprint drifted at {workers} workers"
        );
    }
}

#[test]
fn paper512_fingerprints_match_their_pins() {
    use pem_market::MarketKind;
    let reports = common::run_paper512();
    // Both market cases reach the packed decryption with more than
    // four ratio-side members in every coalition (one p-leg pack each
    // at 512 bits).
    let mut kinds = Vec::new();
    for so in reports.iter().flat_map(|r| &r.shard_outcomes) {
        assert!(
            so.outcome.revealed.allocation_ratios.len() > 4,
            "shard {}: {:?} market in one pack",
            so.shard,
            so.outcome.kind
        );
        kinds.push(so.outcome.kind);
    }
    assert!(kinds.contains(&MarketKind::General) && kinds.contains(&MarketKind::Extreme));
    let full = common::fingerprints(&reports);
    println!("paper(512) fingerprints={full:?}");
    assert_eq!(
        full,
        common::PAPER512_GOLDEN.to_vec(),
        "paper(512) fingerprint drifted"
    );
}

#[test]
fn tree_and_coupled_paths_match_their_pins() {
    use pem_sched::Engine;
    for (workers, engine) in [
        (1usize, Engine::Threads),
        (4, Engine::Threads),
        (4, Engine::Fabric { batch: 8 }),
    ] {
        let pins = common::run_tree_coupled(workers, engine);
        println!("workers={workers} engine={engine:?} pins={pins:?}");
        assert_eq!(
            pins,
            common::TREE_COUPLED_GOLDEN.to_vec(),
            "tree + coupled run drifted at {workers} workers on {engine:?}"
        );
    }
}

#[test]
fn tree_and_coupled_pins_hold_at_every_pool_batch() {
    // The randomizer pool is retired, so every batch is the one batch:
    // none, each randomizer drawn on line from its key's stream. One
    // run, on the engine shape the test above does not take (one
    // window resident at a time).
    use pem_sched::Engine;
    assert_eq!(
        common::run_tree_coupled(1, Engine::Fabric { batch: 1 }),
        common::TREE_COUPLED_GOLDEN.to_vec(),
    );
}
