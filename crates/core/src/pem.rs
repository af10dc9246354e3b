//! **Protocol 1 — the PEM driver.**
//!
//! Owns a market's long-lived state — keys (set up once), the driver
//! DRBG and the per-key randomizer streams — and runs trading windows
//! over it. The
//! window body itself (coalition formation, Private Market Evaluation,
//! Private Pricing or the floor price, Private Distribution, with the
//! per-phase timing of the Fig. 5 reproduction) lives in
//! [`crate::fabric_window`]; every entry point here builds that one body
//! and either blocks on it or hands it to an executor as a
//! [`WindowTask`](crate::WindowTask). The window's traffic — Table I —
//! is its [`NetStats`], split by phase on the label prefix.
//!
//! The keys are its agents': [`Pem::new`] generates them, and
//! [`Pem::with_keys`] borrows keys the agents already hold (a grid's
//! coalitions borrow from one grid-wide directory). Every encryption
//! randomizer is the next draw of its key's stream
//! ([`RandomizerStreams`]); nonces, roles and garbling come from the
//! driver DRBG.
//!
//! The DRBG and the streams only move forward: a window that fails burns
//! the nonces and randomizers it drew, and whatever runs next — a retry
//! or the next window — continues from there, so no draw that reached
//! the wire is ever drawn again.

use pem_crypto::drbg::HashDrbg;
use pem_fabric::block_on;
use pem_market::{MarketKind, Trade};
use pem_net::{FaultPlan, NetStats, SimNetwork, Transport};
use serde::{Deserialize, Serialize};

use crate::config::PemConfig;
use crate::error::PemError;
use crate::fabric_window::Window;
use crate::keys::{KeyDirectory, RandomizerStreams};
use crate::metrics::WindowMetrics;

/// What the designated parties learned during a window — the complete
/// Lemma 2–4 disclosure surface, exposed for auditing and the examples.
#[derive(Debug, Clone, Default, PartialEq, Serialize, Deserialize)]
pub struct RevealedInfo {
    /// Masked demand total seen by `H_r1` (Protocol 2).
    pub masked_demand: Option<u128>,
    /// Masked supply total seen by `H_r2` (Protocol 2).
    pub masked_supply: Option<u128>,
    /// `Σ k_i` seen by `H_b` (Protocol 3).
    pub seller_preference_sum: Option<f64>,
    /// `Σ (g + 1 + εb − b)` seen by `H_b` (Protocol 3).
    pub seller_denominator_sum: Option<f64>,
    /// Allocation ratios seen by the Protocol 4 decryptor.
    pub allocation_ratios: Vec<f64>,
}

/// Everything a PEM window produces.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct PemWindowOutcome {
    /// Market regime decided by Protocol 2 (or `NoMarket`).
    pub kind: MarketKind,
    /// Trading price: `p*`, `p_l`, or the retail price for no-market
    /// windows (matching `pem_market::WindowOutcome::price`).
    pub price: f64,
    /// Pairwise trades from Protocol 4.
    pub trades: Vec<Trade>,
    /// Seller coalition size.
    pub seller_count: usize,
    /// Buyer coalition size.
    pub buyer_count: usize,
    /// Per-phase compute time.
    pub metrics: WindowMetrics,
    /// The sanctioned information leakage of this window.
    pub revealed: RevealedInfo,
    /// Full per-party traffic counters for this window (what the grid
    /// orchestrator merges across coalitions); per-phase traffic is
    /// [`NetStats::label_totals`] over the phase prefix (`"eval/"`,
    /// `"price/"`, `"dist/"`).
    pub net: NetStats,
}

/// The Private Energy Market: a population of agents with keys, ready to
/// run trading windows.
#[derive(Debug)]
pub struct Pem {
    cfg: PemConfig,
    keys: KeyDirectory,
    rng: HashDrbg,
    streams: RandomizerStreams,
}

impl Pem {
    /// Sets up a standalone market: validates the configuration and runs
    /// the key generation / public-key sharing round (Protocol 1, lines
    /// 1–2) — [`KeyDirectory::generate`] under `cfg.seed` — then borrows
    /// those keys as [`Pem::with_keys`] does.
    ///
    /// # Errors
    ///
    /// Configuration and key-generation failures.
    pub fn new(cfg: PemConfig, n_agents: usize) -> Result<Pem, PemError> {
        cfg.validate(n_agents)?;
        let keys = KeyDirectory::generate(n_agents, cfg.key_bits, cfg.seed)?;
        Ok(Pem::open(cfg, keys))
    }

    /// Sets up a market over keys its agents already hold (agent `i`'s at
    /// position `i`): no key is generated. `cfg.seed` seeds the driver
    /// DRBG and the randomizer streams only.
    ///
    /// # Errors
    ///
    /// Configuration failures, and [`PemError::Config`] if a key is not
    /// `cfg.key_bits` wide.
    pub fn with_keys(cfg: PemConfig, keys: KeyDirectory) -> Result<Pem, PemError> {
        cfg.validate(keys.len())?;
        if let Some(i) = (0..keys.len()).find(|&i| keys.public(i).bits() != cfg.key_bits) {
            return Err(PemError::Config(format!(
                "agent {i}'s key is {} bits, the market runs {}",
                keys.public(i).bits(),
                cfg.key_bits
            )));
        }
        Ok(Pem::open(cfg, keys))
    }

    /// The market over a validated configuration and its keys.
    fn open(cfg: PemConfig, keys: KeyDirectory) -> Pem {
        let rng = HashDrbg::from_seed_label(b"pem-driver", cfg.seed);
        let streams = RandomizerStreams::new(keys.len(), cfg.seed);
        Pem {
            cfg,
            keys,
            rng,
            streams,
        }
    }

    /// The configuration in force.
    pub fn config(&self) -> &PemConfig {
        &self.cfg
    }

    /// Number of agents.
    pub fn agents(&self) -> usize {
        self.keys.len()
    }

    /// The public key directory (what every agent can see).
    pub fn keys(&self) -> &KeyDirectory {
        &self.keys
    }

    /// Runs one trading window (Protocol 1, lines 3–10) on a fresh
    /// default transport: a [`SimNetwork`] carrying the configured
    /// latency model.
    ///
    /// `window_data[i]` is agent `i`'s private data for this window.
    ///
    /// # Errors
    ///
    /// [`PemError::Config`] if `window_data.len()` differs from the
    /// population size; data validation, quantization, crypto or network
    /// failures.
    pub fn run_window(
        &mut self,
        window_data: &[pem_market::AgentWindow],
    ) -> Result<PemWindowOutcome, PemError> {
        self.run_window_with_faults(window_data, FaultPlan::new())
    }

    /// [`run_window`](Pem::run_window) over a fault-injecting fabric:
    /// the fresh `SimNetwork` carries the given plan.
    ///
    /// # Errors
    ///
    /// As [`run_window`](Pem::run_window) — faults surface as typed
    /// errors.
    pub fn run_window_with_faults(
        &mut self,
        window_data: &[pem_market::AgentWindow],
        faults: FaultPlan,
    ) -> Result<PemWindowOutcome, PemError> {
        let mut net = self.fresh_net(faults);
        self.run_window_on(&mut net, window_data)
    }

    /// Prepares one trading window as a poll-able
    /// [`WindowTask`](crate::fabric_window::WindowTask) for a fabric
    /// executor, instead of running it to completion here. The task
    /// borrows this market mutably until it completes; its outcome is
    /// bit-identical to [`run_window`](Pem::run_window), which blocks on
    /// the same window future.
    ///
    /// # Errors
    ///
    /// As [`fabric_window_with_faults`](Pem::fabric_window_with_faults).
    pub fn fabric_window(
        &mut self,
        window_data: &[pem_market::AgentWindow],
    ) -> Result<crate::fabric_window::WindowTask<'_>, PemError> {
        self.fabric_window_with_faults(window_data, FaultPlan::new())
    }

    /// [`fabric_window`](Pem::fabric_window) with a fault plan attached
    /// to the task's queue fabric — how every grid lane opens its
    /// coalitions' first attempts.
    ///
    /// # Errors
    ///
    /// [`PemError::Config`] if `window_data.len()` differs from the
    /// population size; data validation and quantization failures.
    pub fn fabric_window_with_faults(
        &mut self,
        window_data: &[pem_market::AgentWindow],
        faults: FaultPlan,
    ) -> Result<crate::fabric_window::WindowTask<'_>, PemError> {
        let net = self.fresh_net(faults);
        let window = self.window(&net, window_data)?;
        Ok(crate::fabric_window::WindowTask::new(window, net))
    }

    /// Runs one trading window on a caller-provided transport — any
    /// [`Transport`] implementation (a [`SimNetwork`] with its own link
    /// latencies or faults, a test double wrapping one, a future
    /// socket-backed fabric). The transport must be fresh for the
    /// window and sized to the population: the outcome's traffic
    /// counters snapshot whatever the fabric accumulated.
    ///
    /// # Errors
    ///
    /// As [`run_window`](Pem::run_window), plus
    /// [`PemError::Protocol`] if the transport's party count differs
    /// from the population size.
    pub fn run_window_on<T: Transport>(
        &mut self,
        net: &mut T,
        window_data: &[pem_market::AgentWindow],
    ) -> Result<PemWindowOutcome, PemError> {
        let window = self.window(net, window_data)?;
        block_on(window.run(net))
    }

    /// The default per-window fabric: a fresh [`SimNetwork`] carrying
    /// the configured latency model and the given fault plan.
    fn fresh_net(&self, faults: FaultPlan) -> SimNetwork {
        SimNetwork::with_latency(self.keys.len(), self.cfg.latency).with_faults(faults)
    }

    /// Opens the next trading window on `net` — the one place a window
    /// body is built, whoever ends up polling it.
    pub(crate) fn window<T: Transport>(
        &mut self,
        net: &T,
        window_data: &[pem_market::AgentWindow],
    ) -> Result<Window<'_>, PemError> {
        Window::new(
            &self.cfg,
            &self.keys,
            &mut self.rng,
            &mut self.streams,
            window_data,
            net,
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use pem_market::{AgentWindow, MarketEngine};

    fn population(surpluses: &[f64]) -> Vec<AgentWindow> {
        surpluses
            .iter()
            .enumerate()
            .map(|(i, &s)| {
                if s >= 0.0 {
                    AgentWindow::new(i, s + 0.5, 0.5, 0.0, 0.9, 20.0 + i as f64)
                } else {
                    AgentWindow::new(i, 0.0, -s, 0.0, 0.9, 20.0 + i as f64)
                }
            })
            .collect()
    }

    #[test]
    fn general_window_end_to_end_matches_plaintext() {
        let pop = population(&[2.0, 1.0, -3.0, -2.0, -1.0]);
        let mut pem = Pem::new(PemConfig::fast_test(), 5).expect("setup");
        let out = pem.run_window(&pop).expect("window");
        assert_eq!(out.kind, MarketKind::General);

        let reference = MarketEngine::new(pem.config().band).run_window(&pop);
        assert_eq!(out.kind, reference.kind);
        assert!((out.price - reference.price).abs() < 1e-6);
        assert_eq!(out.trades.len(), reference.trades.len());
        for (a, b) in out.trades.iter().zip(reference.trades.iter()) {
            assert_eq!(a.seller, b.seller);
            assert_eq!(a.buyer, b.buyer);
            assert!((a.energy - b.energy).abs() < 1e-6);
        }
    }

    #[test]
    fn extreme_window_uses_floor_price() {
        let pop = population(&[5.0, 4.0, -1.0]);
        let mut pem = Pem::new(PemConfig::fast_test(), 3).expect("setup");
        let out = pem.run_window(&pop).expect("window");
        assert_eq!(out.kind, MarketKind::Extreme);
        assert_eq!(out.price, 90.0);
        // Pricing phase skipped → zero traffic there.
        assert_eq!(out.net.label_totals("price/").bytes, 0);
        assert!(out.revealed.seller_preference_sum.is_none());
    }

    #[test]
    fn no_market_window() {
        let pop = population(&[-1.0, -2.0]);
        let mut pem = Pem::new(PemConfig::fast_test(), 2).expect("setup");
        let out = pem.run_window(&pop).expect("window");
        assert_eq!(out.kind, MarketKind::NoMarket);
        assert_eq!(out.price, 120.0);
        assert!(out.trades.is_empty());
        assert_eq!(out.net.total_bytes, 0);
    }

    #[test]
    fn metrics_populated_for_general_window() {
        let pop = population(&[2.0, -3.0, -1.0]);
        let mut pem = Pem::new(PemConfig::fast_test(), 3).expect("setup");
        let out = pem.run_window(&pop).expect("window");
        for phase in ["eval/", "price/", "dist/"] {
            assert!(out.net.label_totals(phase).bytes > 0, "{phase}");
        }
        assert!(out.net.total_messages > 0);
        assert!(out.metrics.total_elapsed().as_nanos() > 0);
    }

    #[test]
    fn revealed_surface_is_exactly_the_lemmas() {
        let pop = population(&[2.0, -3.0, -1.0]);
        let mut pem = Pem::new(PemConfig::fast_test(), 3).expect("setup");
        let out = pem.run_window(&pop).expect("window");
        // Lemma 2: masked totals only.
        assert!(out.revealed.masked_demand.is_some());
        assert!(out.revealed.masked_supply.is_some());
        // Lemma 3: the two seller aggregates.
        let k_sum = out.revealed.seller_preference_sum.expect("general market");
        assert!((k_sum - 20.0).abs() < 1e-6, "k of the single seller");
        // Lemma 4: ratios summing to 1 (up to the K-precision bound).
        let total: f64 = out.revealed.allocation_ratios.iter().sum();
        assert!((total - 1.0).abs() < 1e-6);
    }

    #[test]
    fn successive_windows_are_independent() {
        let mut pem = Pem::new(PemConfig::fast_test(), 4).expect("setup");
        let pop1 = population(&[2.0, 1.0, -3.0, -2.0]);
        let pop2 = population(&[-2.0, -1.0, 3.0, 2.0]); // roles flip
        let o1 = pem.run_window(&pop1).expect("w1");
        let o2 = pem.run_window(&pop2).expect("w2");
        assert_eq!(o1.seller_count, 2);
        assert_eq!(o2.seller_count, 2);
        // Roles flipped: different agents trade.
        assert_ne!(o1.trades[0].seller, o2.trades[0].seller);
    }

    #[test]
    fn star_topology_window_matches_ring_market() {
        use crate::fold::Topology;
        let pop = population(&[2.0, 1.0, -3.0, -2.0, -1.0]);
        let mut ring = Pem::new(PemConfig::fast_test(), 5).expect("setup");
        let mut star =
            Pem::new(PemConfig::fast_test().with_topology(Topology::Star), 5).expect("setup");
        let a = ring.run_window(&pop).expect("ring");
        let b = star.run_window(&pop).expect("star");
        // Same market outcome; identical message count and byte-volume
        // class for the pricing phase (depth differs, not volume).
        assert_eq!(a.kind, b.kind);
        assert!((a.price - b.price).abs() < 1e-9);
        assert_eq!(a.trades, b.trades);
        assert_eq!(
            a.net.label_totals("price/").messages,
            b.net.label_totals("price/").messages
        );
    }

    #[test]
    fn failed_window_reruns_with_fresh_draws() {
        use pem_net::{FaultKind, FaultPlan};
        let pop = population(&[2.0, 1.0, -3.0, -2.0]);
        let mut clean_pem = Pem::new(PemConfig::fast_test(), 4).expect("setup");
        let clean = clean_pem.run_window(&pop).expect("clean");

        let mut pem = Pem::new(PemConfig::fast_test(), 4).expect("setup");
        let plan = FaultPlan::new().inject("eval/demand-agg", 0, FaultKind::Drop);
        let err = pem
            .run_window_with_faults(&pop, plan)
            .expect_err("dropped aggregation message aborts the window");
        assert!(err.is_retryable(), "transport fault must be retryable");
        let out = pem.run_window(&pop).expect("re-run clears");
        // The market outcome is a function of the inputs alone ...
        assert_eq!(out.kind, clean.kind);
        assert_eq!(out.price.to_bits(), clean.price.to_bits());
        assert_eq!(out.trades, clean.trades);
        // ... while the re-run continues the streams past the failed
        // attempt's draws instead of putting the same masks on the wire.
        assert_ne!(out.revealed.masked_demand, clean.revealed.masked_demand);
        assert_ne!(out.revealed.masked_supply, clean.revealed.masked_supply);
    }

    #[test]
    fn wrong_population_size_is_a_config_error() {
        let mut pem = Pem::new(PemConfig::fast_test(), 3).expect("setup");
        let pop = population(&[1.0]);
        let err = pem
            .run_window(&pop)
            .expect_err("one agent's data for three");
        assert!(matches!(err, PemError::Config(_)), "got {err:?}");
        assert!(!err.is_retryable(), "re-running reproduces it exactly");
        assert!(matches!(
            pem.fabric_window(&pop).map(|_| ()),
            Err(PemError::Config(_))
        ));
    }
}
