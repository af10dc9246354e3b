//! One PEM trading window as an `async fn` — the only implementation of
//! Protocol 1's window body.
//!
//! `Window::new` forms the window's one [`Coalition`]; `Window::run` is
//! Protocol 1 in the order of the paper over it: market evaluation,
//! pricing or the floor price, distribution. It awaits the protocols,
//! each handed the coalition — Protocol 2 (`protocol2::evaluate(net,
//! &c)`: the comparison's OT setup sent as it opens, the two masked
//! folds run concurrently in lockstep, the comparison and its
//! announcement), Protocol 3 (`protocol3::price(net, &c)`) and Protocol
//! 4 (`protocol4::run(net, &c, price, general)`); every fold takes
//! `c.cfg.topology`. Every receive is a [`gather`](crate::fold::gather)
//! that yields once before it, so each poll is one receive (one of each
//! of the two lockstep folds). The rounds the paper leaves independent
//! overlap on the virtual clock: the two folds, and the settlement's
//! pairwise round-trips (three sweeps in `protocol4::run`). A gather
//! refuses a replayed or stray frame under its own label; one under a
//! label its receiver never gathers is caught once, at the end: the
//! window must leave its fabric empty. Both ways of running a window
//! drive the same future:
//! [`Pem::run_window_on`] blocks on it on the caller's transport, and
//! [`WindowTask`] boxes it with its own queue fabric so thousands of
//! windows can share one executor thread, each owning its fabric and
//! virtual clock and drawing only from its own named streams — the
//! outcome is bit-identical at any interleaving.
//!
//! [`Pem::run_window_on`]: crate::Pem::run_window_on

use std::future::Future;
use std::pin::Pin;
use std::task::{Context, Waker};
use std::time::Instant;

use pem_fabric::{FabricTask, Poll};
use pem_market::{AgentWindow, MarketKind};
use pem_net::{SimNetwork, Transport};
use pem_telemetry::Span;

use crate::agents::Coalition;
use crate::config::PemConfig;
use crate::draws::Draws;
use crate::error::PemError;
use crate::fold::expect_drained;
use crate::keys::KeyDirectory;
use crate::metrics::{PhaseMetrics, WindowMetrics};
use crate::pem::{PemWindowOutcome, RevealedInfo};
use crate::protocol2;
use crate::protocol3;
use crate::protocol4;

/// A driver phase in progress: its wall-clock start and its open
/// `window/<phase>` span on the virtual clock.
struct Phase {
    wall: Instant,
    span: Span,
}

impl Phase {
    fn open<T: Transport>(net: &T, name: &'static str) -> Phase {
        Phase {
            wall: Instant::now(),
            span: Span::enter_at(name, "driver", net.now_us()),
        }
    }

    fn close<T: Transport>(self, net: &T) -> PhaseMetrics {
        self.span.finish_at(net.now_us());
        PhaseMetrics {
            elapsed: self.wall.elapsed(),
        }
    }
}

/// One trading window's body, transport-free: [`run`](Window::run) is
/// handed the fabric the window runs on.
///
/// Its [`Coalition`] borrows the market's configuration and keys and
/// names the attempt: every draw in it opens a stream under the
/// coalition's draws, so outputs are bit-identical regardless of who
/// polls or how windows interleave.
pub(crate) struct Window<'a> {
    coalition: Coalition<'a>,
    window_span: Span,
}

impl<'a> Window<'a> {
    /// Prepares the window on `net` (fresh, sized to the population):
    /// forms its [`Coalition`].
    ///
    /// # Errors
    ///
    /// [`PemError::Protocol`] if the transport's party count differs
    /// from the population; [`Coalition::new`]'s failures.
    pub(crate) fn new<T: Transport>(
        cfg: &'a PemConfig,
        keys: &'a KeyDirectory,
        draws: Draws,
        window_data: &[AgentWindow],
        net: &T,
    ) -> Result<Window<'a>, PemError> {
        if net.party_count() != keys.len() {
            return Err(PemError::Protocol(
                "transport party count must match the population",
            ));
        }
        let window_span = Span::enter_at("window", "driver", net.now_us());
        Ok(Window {
            coalition: Coalition::new(cfg, keys, draws, window_data)?,
            window_span,
        })
    }

    /// Runs the window on `net` to its outcome.
    ///
    /// # Errors
    ///
    /// Crypto, codec and network failures. A receive whose message has
    /// not arrived is the transport's typed error, never a wait; a frame
    /// still queued when the window ends is [`NetError::Unread`].
    pub(crate) async fn run<T: Transport>(self, net: &mut T) -> Result<PemWindowOutcome, PemError> {
        let Window {
            coalition: c,
            window_span,
        } = self;
        let mut metrics = WindowMetrics::default();
        let mut revealed = RevealedInfo::default();
        // One-sided windows: everyone falls back to the grid (Protocol 1
        // handles `E_s = 0` this way; symmetric for no buyers).
        let (kind, price, trades) = if c.sellers.is_empty() || c.buyers.is_empty() {
            (MarketKind::NoMarket, c.cfg.band.grid_retail, Vec::new())
        } else {
            // Protocol 2: demand toward H_r1 — `Σ(|sn_j| + r_j) + Σ r_i`
            // under its key — and supply toward H_r2 — `Σ(sn_i + r_i) +
            // Σ r_j` — in lockstep, with the comparison's OT setup in
            // flight since the window opened; then the comparison and its
            // one-bit broadcast.
            let eval = Phase::open(net, "window/eval");
            let (demand, supply, general) = protocol2::evaluate(net, &c).await?;
            metrics.market_evaluation = eval.close(net);
            revealed.masked_demand = Some(demand);
            revealed.masked_supply = Some(supply);

            // Protocol 3 in a general market, the floor price otherwise.
            let price = if general {
                let phase = Phase::open(net, "window/price");
                let pricing = protocol3::price(net, &c).await?;
                metrics.pricing = phase.close(net);
                revealed.seller_preference_sum = Some(pricing.k_sum);
                revealed.seller_denominator_sum = Some(pricing.denominator_sum);
                pricing.price
            } else {
                c.cfg.band.floor
            };

            // Protocol 4.
            let phase = Phase::open(net, "window/dist");
            let dist = protocol4::run(net, &c, price, general).await?;
            metrics.distribution = phase.close(net);
            revealed.allocation_ratios = dist.ratios;
            let kind = if general {
                MarketKind::General
            } else {
                MarketKind::Extreme
            };
            (kind, price, dist.trades)
        };
        // A frame under a label its receiver never gathers would
        // otherwise go unnoticed: the window must leave its fabric empty.
        expect_drained(net)?;
        window_span.finish_at(net.now_us());
        Ok(PemWindowOutcome {
            kind,
            price,
            trades,
            seller_count: c.sellers.len(),
            buyer_count: c.buyers.len(),
            metrics,
            revealed,
            net: net.stats(),
        })
    }
}

/// The boxed future of a window that owns its fabric.
type WindowFuture<'a> = Pin<Box<dyn Future<Output = Result<PemWindowOutcome, PemError>> + 'a>>;

/// One trading window with its own queue fabric: the unit an
/// [`Executor`] multiplexes. A poll advances the window to its next
/// yield; a message that never arrives ends the window in its receive
/// error (`NetError::Empty`) at the poll that wanted it.
///
/// [`Executor`]: pem_fabric::Executor
pub struct WindowTask<'a> {
    /// `None` once the window has finished.
    run: Option<WindowFuture<'a>>,
}

impl<'a> WindowTask<'a> {
    pub(crate) fn new(window: Window<'a>, mut net: SimNetwork) -> WindowTask<'a> {
        WindowTask {
            run: Some(Box::pin(async move { window.run(&mut net).await })),
        }
    }
}

impl FabricTask for WindowTask<'_> {
    type Output = PemWindowOutcome;
    type Error = PemError;

    fn poll(&mut self) -> Result<Poll<PemWindowOutcome>, PemError> {
        let run = self
            .run
            .as_mut()
            .ok_or(PemError::Protocol("polled a completed window"))?;
        match run.as_mut().poll(&mut Context::from_waker(Waker::noop())) {
            std::task::Poll::Pending => Ok(Poll::Pending),
            std::task::Poll::Ready(outcome) => {
                self.run = None;
                outcome.map(Poll::Ready)
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::fold::Topology;
    use crate::pem::Pem;
    use pem_fabric::{Executor, ExecutorReport};

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
    fn lost_message_evicts_its_window_not_the_lane() {
        use pem_net::{FaultKind, FaultPlan, NetError};
        let lossy_pop = population(&[2.0, 1.0, -3.0, -2.0]);
        let healthy_pop = population(&[3.0, -1.0, -4.0, 0.5]);
        let solo = Pem::new(PemConfig::fast_test(), 4)
            .expect("setup")
            .run_window(&healthy_pop)
            .expect("window");
        let lossy_pem = Pem::new(PemConfig::fast_test(), 4).expect("setup");
        let mut healthy_pem = Pem::new(PemConfig::fast_test(), 4).expect("setup");
        let plan = FaultPlan::new().inject("eval/demand-agg", 0, FaultKind::Drop);
        let lossy = lossy_pem
            .fabric_attempt(&lossy_pop, plan, 0, 0)
            .expect("task");
        let healthy = healthy_pem.fabric_window(&healthy_pop).expect("task");
        let (results, _) = Executor::new(0).run_collect(vec![lossy, healthy]);
        assert!(
            matches!(&results[0], Err(PemError::Net(NetError::Empty { .. }))),
            "the lossy window ends in its receive error at its next poll: {:?}",
            results[0]
        );
        let out = results[1].as_ref().expect("healthy window completes");
        assert_outcomes_identical(&solo, out);
    }

    #[test]
    fn executor_schedule_is_pinned() {
        // The general, extreme and no-market populations, and the
        // general one again on the tree: one poll per lockstep receive
        // of the two Protocol 2 folds (the longer fold's receives) and
        // per receive of everything after them — the comparison, every
        // announcement, the folds of Protocols 3 and 4, the ratio
        // requests and both settlement sweeps — plus the poll that
        // completes. The general window: 4 + 3 + 4 + (2 + 4) + (2 + 2 +
        // 3 + 1 + 6 + 6) + 1 = 38. A fold receives once per member in
        // every shape, so the tree polls as often as the ring. A lost or
        // added yield, or folds run one after the other, moves these
        // counts.
        let general = population(&[2.0, 1.0, -3.0, -2.0, -1.0]);
        let tree = PemConfig::fast_test().with_topology(Topology::tree());
        let cases = [
            (PemConfig::fast_test(), general.clone()),
            (PemConfig::fast_test(), population(&[5.0, 4.0, -1.0])),
            (PemConfig::fast_test(), population(&[-1.0, -2.0, -0.5])),
            (tree, general),
        ];
        let market = |(cfg, pop): &(PemConfig, Vec<AgentWindow>)| {
            Pem::new(cfg.clone(), pop.len()).expect("setup")
        };
        let solo: Vec<u64> = cases
            .iter()
            .map(|case| {
                let mut pem = market(case);
                let task = pem.fabric_window(&case.1).expect("task");
                Executor::new(0).run(vec![task]).expect("window").1.polls
            })
            .collect();
        assert_eq!(solo, [38, 16, 1, 38], "polls per window alone");
        let mut pems: Vec<Pem> = cases.iter().map(market).collect();
        let tasks: Vec<WindowTask<'_>> = pems
            .iter_mut()
            .zip(&cases)
            .map(|(pem, (_, pop))| pem.fabric_window(pop).expect("task"))
            .collect();
        let (results, report) = Executor::new(2).run_collect(tasks);
        assert!(results.iter().all(Result::is_ok));
        assert_eq!(
            report,
            ExecutorReport {
                polls: 93,
                peak_resident: 2,
                completed: 4,
            }
        );
    }

    #[test]
    fn window_virtual_clock_is_pinned() {
        // The general and the extreme population on a LAN: the two
        // Protocol 2 folds run in lockstep and the settlement in three
        // sweeps, so on rings the window's critical path is 1,892 and
        // 1,112 µs, and 1,584 µs on the binary tree. Serialising either
        // stage again moves these, and so does a comparison at another
        // width than its member count's (36 and 35 bits here): its
        // messages are the stage's largest. The comparison's OT setup
        // travels while the folds run, so the comparison's own path is
        // two hops; a setup sent after the folds adds one hop (116 µs)
        // to every case. In the extreme market the
        // buyers route the energy from the ratios announced to them, so
        // the first settlement sweep departs after that announcement's
        // hop. The roles (`H_r1`, `H_r2`, `H_b`, the decryptor) are the
        // picks of window 0's draws, and who holds them moves the paths
        // too.
        use pem_net::LatencyModel;
        let general = [2.0, 1.0, -3.0, -2.0, -1.0];
        let tree = PemConfig::fast_test().with_topology(Topology::tree());
        for (cfg, surpluses, expected_us) in [
            (PemConfig::fast_test(), &general[..], 1_892),
            (PemConfig::fast_test(), &[5.0, 4.0, -1.0][..], 1_112),
            (tree, &general[..], 1_584),
        ] {
            let pop = population(surpluses);
            let mut net = SimNetwork::with_latency(pop.len(), LatencyModel::lan());
            Pem::new(cfg.clone(), pop.len())
                .expect("setup")
                .run_window_on(&mut net, &pop)
                .expect("window");
            assert_eq!(net.now_us(), expected_us, "{} {surpluses:?}", cfg.topology);
        }
    }

    /// The `(from, to, label)` of every send of a clean window of `pem`
    /// on a fresh fabric, in send order: the message journal.
    fn clean_journal(pem: &mut Pem, pop: &[AgentWindow]) -> Vec<(usize, usize, &'static str)> {
        pem_telemetry::install();
        let mark = pem_telemetry::msg_count();
        let mut net = SimNetwork::new(pop.len());
        pem.run_window_on(&mut net, pop).expect("clean window");
        let msgs = pem_telemetry::msgs_since(mark);
        let ours = msgs.iter().filter(|m| m.fabric == net.fabric_id());
        ours.map(|m| (m.from, m.to, m.label)).collect()
    }

    #[test]
    fn every_label_refuses_a_stranger_and_retries_a_replay() {
        use pem_net::{FaultKind, FaultPlan, NetError, PartyId};
        // For each label of a clean window — ring and tree, a general and
        // an extreme market — the first frame `from → to` of that label.
        // A frame queued to `to` under the label before the window, from
        // a party that never sends it there, is a protocol error; a
        // duplicate of the frame is the retryable `Unread`. Both on the
        // blocking driver and on the executor.
        let tree = PemConfig::fast_test().with_topology(Topology::tree());
        let general = population(&[2.0, 1.0, -3.0, -2.0, -1.0]);
        let extreme = population(&[5.0, 4.0, -1.0, -2.0]);
        for cfg in [PemConfig::fast_test(), tree] {
            for pop in [&general, &extreme] {
                let n = pop.len();
                let market = || Pem::new(cfg.clone(), n).expect("setup");
                let journal = clean_journal(&mut market(), pop);
                let mut labels: Vec<&'static str> = Vec::new();
                for &(_, _, label) in &journal {
                    if !labels.contains(&label) {
                        labels.push(label);
                    }
                }
                // Six Protocol 2 labels, six of Protocol 4 and, in the
                // general market, two of Protocol 3.
                assert!(labels.len() >= 12, "{labels:?}");
                for label in labels {
                    let &(from, to, _) = journal.iter().find(|m| m.2 == label).expect("sent");
                    let sends_there = |p: usize| journal.contains(&(p, to, label));
                    let stranger = (0..n)
                        .find(|&p| p != to && !sends_there(p))
                        .unwrap_or_else(|| panic!("{label}: every party sends to P{to}"));
                    let case = format!("{} {label} P{from}→P{to}", cfg.topology);
                    let strayed = || {
                        let mut net = SimNetwork::new(n);
                        net.send(PartyId(stranger), PartyId(to), label, vec![0])
                            .expect("stray");
                        net
                    };
                    let replay = || FaultPlan::new().inject(label, 0, FaultKind::Duplicate);
                    let on_executor = |task: WindowTask<'_>| {
                        let (mut results, _) = Executor::new(0).run_collect(vec![task]);
                        results.pop().expect("one result")
                    };
                    let mut pems = [market(), market(), market(), market()];
                    let [a, b, c, d] = &mut pems;
                    let stray_results = [
                        a.run_window_on(&mut strayed(), pop),
                        on_executor({
                            let net = strayed();
                            WindowTask::new(b.window(&net, pop, 0, 0).expect("window"), net)
                        }),
                    ];
                    let replay_results = [
                        c.run_window_on(&mut SimNetwork::new(n).with_faults(replay()), pop),
                        on_executor(d.fabric_attempt(pop, replay(), 0, 0).expect("task")),
                    ];
                    for result in stray_results {
                        assert!(
                            matches!(result, Err(PemError::Protocol(_))),
                            "{case}, stranger P{stranger}: {result:?}"
                        );
                    }
                    for result in replay_results {
                        let err = result.expect_err("a replay aborts");
                        assert!(
                            matches!(err, PemError::Net(NetError::Unread { label: l, .. }) if l == label),
                            "{case}, replayed: {err:?}"
                        );
                        assert!(err.is_retryable(), "{case}: {err:?}");
                    }
                }
            }
        }
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
