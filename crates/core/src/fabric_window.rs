//! One PEM trading window as a poll-able stage machine — the only
//! implementation of Protocol 1's window body.
//!
//! `Window` sequences market evaluation, pricing and distribution over
//! any [`Transport`], advancing by **one protocol message per poll**
//! where the phase is a state machine ([`MaskedAggMachine`],
//! [`PricingMachine`]) and inline at phase transitions where the
//! sub-protocol is a strict two-party request/response (the
//! garbled-circuit comparison) or pure local compute (Protocol 4's
//! per-pair arithmetic, the randomizer-pool refill). Both ways of
//! running a window are adapters over it: [`Pem::run_window_on`] polls
//! it to completion on the caller's transport, and [`WindowTask`] pairs
//! it with its own queue fabric so thousands of windows can share one
//! executor thread, each owning its RNG stream, fabric and virtual
//! clock — the outcome is bit-identical at any interleaving.
//!
//! [`Pem::run_window_on`]: crate::Pem::run_window_on

use std::time::Instant;

use pem_crypto::drbg::HashDrbg;
use pem_fabric::{kickoff, step, FabricTask, Poll, ProtocolStateMachine};
use pem_market::{AgentWindow, MarketKind, Role};
use pem_net::{PartyId, SimNetwork, Transport};
use pem_telemetry::Span;
use rand::Rng;

use crate::agents::AgentCtx;
use crate::config::PemConfig;
use crate::error::PemError;
use crate::keys::KeyDirectory;
use crate::metrics::{PhaseMetrics, WindowMetrics};
use crate::pem::{PemWindowOutcome, RevealedInfo};
use crate::protocol2::{self, MaskedAggMachine};
use crate::protocol3::PricingMachine;
use crate::protocol4;
use crate::randpool::RandomizerPool;

/// Wall-clock sample opening a driver phase.
struct PhaseStart {
    wall: Instant,
    /// The open `window/<phase>` driver span.
    span: Span,
}

/// Where the window currently stands.
enum Stage<'a> {
    /// One-sided window: the first poll reports immediately.
    NoMarket,
    /// The first poll opens Protocol 2.
    EvalStart,
    /// One of Protocol 2's masked rings in flight: demand toward `H_r1`,
    /// then (`supply`) supply toward `H_r2`.
    Eval {
        supply: bool,
        machine: MaskedAggMachine<'a>,
        agg_span: Span,
    },
    /// Garbled-circuit comparison plus the result broadcast (inline).
    EvalFinish,
    /// The next poll opens Protocol 3 — or takes the floor price.
    PriceStart,
    /// Pricing aggregation/broadcast in flight.
    Price { machine: PricingMachine<'a> },
    /// Protocol 4 and the pool refill (inline), assembling the outcome.
    Dist,
    /// The outcome has been reported; the window must not be polled again.
    Done,
}

/// One trading window's body, transport-free: every poll is handed the
/// fabric the window runs on.
///
/// Borrows its market's long-lived state (keys, RNG, randomizer pool)
/// mutably for the window's whole life, which is exactly what makes the
/// RNG stream sequential per market — construction and every poll draw
/// in one fixed order, so outputs are bit-identical regardless of who
/// polls or how windows interleave.
pub(crate) struct Window<'a> {
    cfg: &'a PemConfig,
    keys: &'a KeyDirectory,
    rng: &'a mut HashDrbg,
    pool: &'a mut Option<RandomizerPool>,
    agents: Vec<AgentCtx>,
    sellers: Vec<usize>,
    buyers: Vec<usize>,
    window_span: Option<Span>,
    phase: Option<PhaseStart>,
    metrics: WindowMetrics,
    revealed: RevealedInfo,
    /// Protocol 2's designated parties (valid from `EvalStart` on).
    hr1: usize,
    hr2: usize,
    /// Masked `(demand, supply)` totals out of the aggregation rings.
    masked: (u128, u128),
    general_market: bool,
    price: f64,
    stage: Stage<'a>,
}

impl<'a> Window<'a> {
    /// Prepares the window on `net` (fresh, sized to the population):
    /// quantizes every agent's data and forms the coalitions.
    ///
    /// # Errors
    ///
    /// [`PemError::Config`] if `window_data` does not cover the
    /// population, [`PemError::Protocol`] if the transport's party count
    /// differs from it; data validation and quantization failures.
    pub(crate) fn new<T: Transport>(
        cfg: &'a PemConfig,
        keys: &'a KeyDirectory,
        rng: &'a mut HashDrbg,
        pool: &'a mut Option<RandomizerPool>,
        window_data: &[AgentWindow],
        net: &T,
    ) -> Result<Window<'a>, PemError> {
        let n_agents = keys.len();
        if window_data.len() != n_agents {
            return Err(PemError::Config(format!(
                "window data covers {} agents, the population has {n_agents}",
                window_data.len()
            )));
        }
        if net.party_count() != n_agents {
            return Err(PemError::Protocol(
                "transport party count must match the population",
            ));
        }
        let quantizer = cfg.quantizer();
        let window_span = Some(Span::enter_at("window", "driver", net.now_us()));

        // Local step: every agent quantizes its data, draws this window's
        // nonce and claims a role (coalition formation).
        let mut agents = Vec::with_capacity(n_agents);
        let mut sellers = Vec::new();
        let mut buyers = Vec::new();
        for (i, data) in window_data.iter().enumerate() {
            let nonce = rng.gen::<u64>() >> (64 - cfg.nonce_bits);
            let ctx = AgentCtx::prepare(i, *data, &quantizer, nonce)?;
            match ctx.role {
                Role::Seller => sellers.push(i),
                Role::Buyer => buyers.push(i),
                Role::OffMarket => {}
            }
            agents.push(ctx);
        }

        // One-sided windows: everyone falls back to the grid (Protocol 1
        // handles `E_s = 0` this way; symmetric for no buyers).
        let stage = if sellers.is_empty() || buyers.is_empty() {
            Stage::NoMarket
        } else {
            Stage::EvalStart
        };
        Ok(Window {
            cfg,
            keys,
            rng,
            pool,
            agents,
            sellers,
            buyers,
            window_span,
            phase: None,
            metrics: WindowMetrics::default(),
            revealed: RevealedInfo::default(),
            hr1: 0,
            hr2: 0,
            masked: (0, 0),
            general_market: false,
            price: cfg.band.grid_retail,
            stage,
        })
    }

    /// Opens a driver phase: samples the wall clock and enters the
    /// `window/<phase>` span on the virtual clock.
    fn phase_open<T: Transport>(&mut self, net: &T, name: &'static str) {
        self.phase = Some(PhaseStart {
            wall: Instant::now(),
            span: Span::enter_at(name, "driver", net.now_us()),
        });
    }

    /// Closes the open phase, returning its metrics.
    fn phase_close<T: Transport>(&mut self, net: &T) -> PhaseMetrics {
        let start = self.phase.take().expect("a phase is open");
        start.span.finish_at(net.now_us());
        PhaseMetrics {
            elapsed: start.wall.elapsed(),
        }
    }

    /// Assembles the window outcome (the terminal step).
    fn finish<T: Transport>(
        &mut self,
        net: &T,
        kind: MarketKind,
        trades: Vec<pem_market::Trade>,
    ) -> PemWindowOutcome {
        if let Some(span) = self.window_span.take() {
            span.finish_at(net.now_us());
        }
        PemWindowOutcome {
            kind,
            price: self.price,
            trades,
            seller_count: self.sellers.len(),
            buyer_count: self.buyers.len(),
            metrics: std::mem::take(&mut self.metrics),
            revealed: std::mem::take(&mut self.revealed),
            net: net.stats(),
        }
    }

    /// Opens one of Protocol 2's masked rings on `net`: demand —
    /// `Σ(|sn_j| + r_j) + Σ r_i` under `H_r1`'s key — or, with `supply`,
    /// supply — `Σ(sn_i + r_i) + Σ r_j` under `H_r2`'s key.
    fn open_ring<T: Transport>(
        &mut self,
        net: &mut T,
        supply: bool,
    ) -> Result<Stage<'a>, PemError> {
        let (collector, holders, maskers, role, label) = if supply {
            let label = "eval/supply-agg";
            (self.hr2, &self.sellers, &self.buyers, Role::Seller, label)
        } else {
            let label = "eval/demand-agg";
            (self.hr1, &self.buyers, &self.sellers, Role::Buyer, label)
        };
        let agg_span = Span::enter_at(label, "protocol", net.now_us());
        let mut machine = MaskedAggMachine::new(
            self.keys,
            &self.agents,
            collector,
            holders,
            maskers,
            role,
            label,
            self.pool,
            self.rng,
        )?;
        kickoff(net, &mut machine)?;
        Ok(Stage::Eval {
            supply,
            machine,
            agg_span,
        })
    }

    /// The `(recipient, label)` the next poll will receive, or `None`
    /// when it computes locally (or the window is done).
    fn expecting(&self) -> Option<(PartyId, &'static str)> {
        match &self.stage {
            Stage::Eval { machine, .. } => machine.expecting(),
            Stage::Price { machine } => machine.expecting(),
            _ => None,
        }
    }

    /// Advances the window by one step on `net`.
    ///
    /// # Errors
    ///
    /// Crypto, codec and network failures; a receive whose message has
    /// not arrived surfaces the transport's typed error, never a block.
    /// [`PemError::Protocol`] once the outcome has been reported.
    pub(crate) fn poll<T: Transport>(
        &mut self,
        net: &mut T,
    ) -> Result<Poll<PemWindowOutcome>, PemError> {
        match std::mem::replace(&mut self.stage, Stage::Done) {
            Stage::NoMarket => Ok(Poll::Ready(self.finish(
                net,
                MarketKind::NoMarket,
                Vec::new(),
            ))),

            Stage::EvalStart => {
                self.phase_open(net, "window/eval");
                self.hr1 = self.sellers[self.rng.gen_range(0..self.sellers.len())];
                self.hr2 = self.buyers[self.rng.gen_range(0..self.buyers.len())];
                self.stage = self.open_ring(net, false)?;
                Ok(Poll::Pending)
            }

            Stage::Eval {
                supply,
                mut machine,
                agg_span,
            } => {
                match step(net, &mut machine)? {
                    None => {
                        self.stage = Stage::Eval {
                            supply,
                            machine,
                            agg_span,
                        }
                    }
                    Some(total) => {
                        agg_span.finish_at(net.now_us());
                        if supply {
                            self.masked.1 = total;
                            self.stage = Stage::EvalFinish;
                        } else {
                            self.masked.0 = total;
                            self.stage = self.open_ring(net, true)?;
                        }
                    }
                }
                Ok(Poll::Pending)
            }

            Stage::EvalFinish => {
                // Two-party lock-step request/response: running it inline
                // costs the executor at most one GC comparison per poll.
                self.general_market = protocol2::run_compare(
                    net,
                    self.cfg,
                    self.hr1,
                    self.hr2,
                    self.masked.0,
                    self.masked.1,
                    self.rng,
                )?;
                protocol2::broadcast_result(net, self.hr1, self.agents.len(), self.general_market)?;
                self.metrics.market_evaluation = self.phase_close(net);
                self.revealed.masked_demand = Some(self.masked.0);
                self.revealed.masked_supply = Some(self.masked.1);
                self.stage = Stage::PriceStart;
                Ok(Poll::Pending)
            }

            Stage::PriceStart => {
                if self.general_market {
                    self.phase_open(net, "window/price");
                    let mut machine = PricingMachine::new(
                        self.keys,
                        &self.agents,
                        &self.sellers,
                        &self.buyers,
                        self.cfg,
                        self.cfg.topology,
                        self.pool,
                        self.rng,
                        net.now_us(),
                    )?;
                    kickoff(net, &mut machine)?;
                    self.stage = Stage::Price { machine };
                } else {
                    self.price = self.cfg.band.floor;
                    self.stage = Stage::Dist;
                }
                Ok(Poll::Pending)
            }

            Stage::Price { mut machine } => {
                match step(net, &mut machine)? {
                    None => self.stage = Stage::Price { machine },
                    Some(pricing) => {
                        self.metrics.pricing = self.phase_close(net);
                        self.revealed.seller_preference_sum = Some(pricing.k_sum);
                        self.revealed.seller_denominator_sum = Some(pricing.denominator_sum);
                        self.price = pricing.price;
                        self.stage = Stage::Dist;
                    }
                }
                Ok(Poll::Pending)
            }

            Stage::Dist => {
                self.phase_open(net, "window/dist");
                let dist = protocol4::run(
                    net,
                    self.keys,
                    &self.agents,
                    &self.sellers,
                    &self.buyers,
                    self.price,
                    self.general_market,
                    self.cfg,
                    self.pool,
                    self.rng,
                )?;
                self.metrics.distribution = self.phase_close(net);
                self.revealed.allocation_ratios = dist.ratios.clone();

                // Off-critical-path step: top the randomizer pool back up
                // so the next window's encryptions are all pre-amortized.
                // Runs after the phase timers, so it never pollutes the
                // hot-path metrics.
                if let Some(pool) = self.pool.as_mut() {
                    let refill_span = Span::enter("window/pool-refill", "driver");
                    pool.refill(self.keys);
                    refill_span.finish();
                }

                let kind = if self.general_market {
                    MarketKind::General
                } else {
                    MarketKind::Extreme
                };
                Ok(Poll::Ready(self.finish(net, kind, dist.trades)))
            }

            Stage::Done => Err(PemError::Protocol("polled a completed window")),
        }
    }
}

/// One trading window with its own queue fabric: the unit an
/// [`Executor`] multiplexes. A window waiting on a message that never
/// arrives reports itself unready; the executor's stall breaker then
/// force-polls it into its typed receive error, so a wedged window
/// frees its slot without any deadline of its own.
///
/// [`Executor`]: pem_fabric::Executor
pub struct WindowTask<'a> {
    window: Window<'a>,
    net: SimNetwork,
}

impl<'a> WindowTask<'a> {
    pub(crate) fn new(window: Window<'a>, net: SimNetwork) -> WindowTask<'a> {
        WindowTask { window, net }
    }
}

impl FabricTask for WindowTask<'_> {
    type Output = PemWindowOutcome;
    type Error = PemError;

    fn poll(&mut self) -> Result<Poll<PemWindowOutcome>, PemError> {
        self.window.poll(&mut self.net)
    }

    fn is_ready(&self) -> bool {
        // A poll makes progress unless it would receive a message that
        // has not arrived. Phases that compute locally are always ready.
        !matches!(self.window.stage, Stage::Done)
            && self
                .window
                .expecting()
                .is_none_or(|(to, _)| self.net.has_message(to))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::pem::Pem;
    use pem_fabric::Executor;

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

    /// The blocking driver and the executor-driven task must agree on
    /// every outcome bit (wall-clock elapsed excepted).
    fn assert_outcomes_identical(a: &PemWindowOutcome, b: &PemWindowOutcome) {
        assert_eq!(a.kind, b.kind);
        assert_eq!(a.price.to_bits(), b.price.to_bits());
        assert_eq!(a.trades, b.trades);
        assert_eq!(a.seller_count, b.seller_count);
        assert_eq!(a.buyer_count, b.buyer_count);
        assert_eq!(a.revealed, b.revealed);
        assert_eq!(a.net, b.net);
    }

    #[test]
    fn fabric_window_matches_blocking_driver() {
        // One population per regime: general, extreme, no-market.
        for pop in [
            population(&[2.0, 1.0, -3.0, -2.0, -1.0]),
            population(&[5.0, 4.0, -1.0]),
            population(&[-1.0, -2.0, -0.5]),
        ] {
            let n = pop.len();
            let mut blocking = Pem::new(PemConfig::fast_test(), n).expect("setup");
            let mut fabric = Pem::new(PemConfig::fast_test(), n).expect("setup");
            let a = blocking.run_window(&pop).expect("blocking window");
            let task = fabric.fabric_window(&pop).expect("task");
            let (mut outs, report) = Executor::new(0).run(vec![task]).expect("executor");
            assert_outcomes_identical(&a, &outs.pop().expect("one output"));
            assert!(report.polls > 0);
        }
    }

    #[test]
    fn interleaved_tasks_match_sequential_runs() {
        // Three markets multiplexed on one executor at batch 2: every
        // outcome must match its own market run in isolation.
        let pops = [
            population(&[2.0, 1.0, -3.0, -2.0]),
            population(&[3.0, -1.0, -4.0, 0.5]),
            population(&[1.5, 2.5, -2.0, -0.5]),
        ];
        let solo: Vec<PemWindowOutcome> = pops
            .iter()
            .map(|pop| {
                Pem::new(PemConfig::fast_test(), pop.len())
                    .expect("setup")
                    .run_window(pop)
                    .expect("window")
            })
            .collect();
        let mut pems: Vec<Pem> = pops
            .iter()
            .map(|pop| Pem::new(PemConfig::fast_test(), pop.len()).expect("setup"))
            .collect();
        let tasks: Vec<WindowTask<'_>> = pems
            .iter_mut()
            .zip(pops.iter())
            .map(|(pem, pop)| pem.fabric_window(pop).expect("task"))
            .collect();
        let (outs, _) = Executor::new(2).run(tasks).expect("executor");
        for (a, b) in solo.iter().zip(outs.iter()) {
            assert_outcomes_identical(a, b);
        }
    }

    #[test]
    fn pooled_fabric_window_matches_blocking_driver() {
        let pop = population(&[2.0, 1.0, -3.0, -2.0]);
        let cfg = || PemConfig::fast_test().with_randomizer_pool(4);
        let mut blocking = Pem::new(cfg(), 4).expect("setup");
        let mut fabric = Pem::new(cfg(), 4).expect("setup");
        let a = blocking.run_window(&pop).expect("blocking window");
        let task = fabric.fabric_window(&pop).expect("task");
        let (mut outs, _) = Executor::new(0).run(vec![task]).expect("executor");
        assert_outcomes_identical(&a, &outs.pop().expect("one output"));
        // The pool streams are in lock-step too.
        assert_eq!(blocking.pool_stats(), fabric.pool_stats());
    }

    #[test]
    fn stalled_window_is_evicted_not_hung() {
        use pem_net::{FaultKind, FaultPlan, NetError};
        let stalled_pop = population(&[2.0, 1.0, -3.0, -2.0]);
        let healthy_pop = population(&[3.0, -1.0, -4.0, 0.5]);
        let solo = Pem::new(PemConfig::fast_test(), 4)
            .expect("setup")
            .run_window(&healthy_pop)
            .expect("window");
        let mut stalled_pem = Pem::new(PemConfig::fast_test(), 4).expect("setup");
        let mut healthy_pem = Pem::new(PemConfig::fast_test(), 4).expect("setup");
        let plan = FaultPlan::new().inject("eval/demand-agg", 0, FaultKind::Stall);
        let stalled = stalled_pem
            .fabric_window_with_faults(&stalled_pop, plan)
            .expect("task");
        let healthy = healthy_pem.fabric_window(&healthy_pop).expect("task");
        let (results, _) = Executor::new(0).run_collect(vec![stalled, healthy]);
        assert!(
            matches!(&results[0], Err(PemError::Net(NetError::Empty { .. }))),
            "the stall breaker ends the stalled window in its receive error: {:?}",
            results[0]
        );
        let out = results[1].as_ref().expect("healthy window completes");
        assert_outcomes_identical(&solo, out);
    }

    #[test]
    fn window_task_reports_readiness() {
        let pop = population(&[2.0, -1.0]);
        let mut pem = Pem::new(PemConfig::fast_test(), 2).expect("setup");
        let mut task = pem.fabric_window(&pop).expect("task");
        // Local phases are always ready; machine phases only once the
        // expected message is queued (kickoff precedes the first step,
        // so single-window polling never stalls).
        let mut polls = 0usize;
        loop {
            assert!(task.is_ready(), "single window never waits");
            match task.poll().expect("poll") {
                Poll::Pending => polls += 1,
                Poll::Ready(out) => {
                    assert_eq!(out.kind, MarketKind::Extreme);
                    break;
                }
            }
            assert!(polls < 10_000, "window must terminate");
        }
        assert!(!task.is_ready(), "completed tasks report not-ready");
    }

    #[test]
    fn polling_a_completed_task_is_a_typed_error() {
        let pop = population(&[2.0, -1.0]);
        let mut pem = Pem::new(PemConfig::fast_test(), 2).expect("setup");
        let mut task = pem.fabric_window(&pop).expect("task");
        while let Poll::Pending = task.poll().expect("poll") {}
        for _ in 0..2 {
            assert!(
                matches!(task.poll(), Err(PemError::Protocol(_))),
                "a completed window stays completed"
            );
        }
    }
}
