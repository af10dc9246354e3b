//! One benchmark run: set up, an untimed-by-telemetry pass for the
//! end-to-end metrics, a traced pass for the exact and per-layer numbers,
//! and the output checks.

use std::time::Instant;

use pem::market::{AgentWindow, MarketEngine, MarketKind};
use pem::sched::{CoalitionStatus, Engine, GridOrchestrator, GridReport};
use pem::telemetry::{self, Event, Span};

use crate::budget::{Budget, GRID_WINDOW};
use crate::calibrate;
use crate::output::{Metric, RunResult};
use crate::probes::{self, ProbeInput};
use crate::stats;
use crate::workload::{day100, schedule, Workload, BAND, WORKERS};

pub struct Options {
    pub workload: Workload,
    pub seed: u64,
    pub seconds: f64,
    pub trace: bool,
}

/// A grid ready to run windows, and what getting there cost.
struct Grid {
    day: Vec<Vec<AgentWindow>>,
    grid: GridOrchestrator,
    generate_s: f64,
    form_shards_s: f64,
    setup_s: f64,
}

/// Set-up as a user pays it: the day's inputs, the orchestrator, and
/// coalition formation (partition, key generation, pool warm-up).
fn set_up(w: &Workload, seed: u64, engine: Engine) -> Grid {
    let start = Instant::now();
    let day = day100(w.homes, seed);
    let generate_s = start.elapsed().as_secs_f64();
    let mut cfg = w.grid_config(engine);
    // Key material and protocol streams follow the seed too, so no one
    // lucky prime search becomes the set-up time of record.
    cfg.pem.seed = seed;
    let mut grid = GridOrchestrator::new(cfg).expect("workload configuration is valid");
    let formed = Instant::now();
    grid.form_shards(&day[schedule(0)])
        .expect("coalitions form on a mid-day population");
    Grid {
        day,
        grid,
        generate_s,
        form_shards_s: formed.elapsed().as_secs_f64(),
        setup_s: start.elapsed().as_secs_f64(),
    }
}

/// When a pass stops.
#[derive(Clone, Copy)]
enum Stop {
    /// After `seconds`, but never before `min_windows`.
    Timed { seconds: f64, min_windows: usize },
    /// After exactly this many windows.
    Windows(usize),
}

/// What a pass over a schedule prefix produced.
struct Pass {
    /// `Err` holds the message of a window that failed as a whole.
    windows: Vec<Result<GridReport, String>>,
    /// Wall time of each `run_window` call, and process CPU over them.
    wall_ms: Vec<f64>,
    cpu_s: f64,
    /// Calibration samples taken between the windows (none unless asked
    /// for).
    calibration_ms: Vec<f64>,
    ledger_valid: bool,
}

/// Closed loop: window `k + 1` starts when window `k` returns. With
/// `calibrated`, the calibration kernel runs before the first window and
/// after each one; its time counts towards `Timed` but towards no metric.
fn run_pass(g: &mut Grid, stop: Stop, calibrated: bool) -> Pass {
    let mut windows = Vec::new();
    let mut wall_ms = Vec::new();
    let mut cpu_s = 0.0;
    let mut calibration_ms = Vec::new();
    if calibrated {
        calibration_ms.push(calibrate::sample_ms());
    }
    let start = Instant::now();
    loop {
        let done = match stop {
            Stop::Timed {
                seconds,
                min_windows,
            } => windows.len() >= min_windows && start.elapsed().as_secs_f64() >= seconds,
            Stop::Windows(n) => windows.len() >= n,
        };
        if done {
            break;
        }
        let population = &g.day[schedule(windows.len())];
        let cpu_before = stats::process_cpu_s();
        let began = Instant::now();
        // A no-op unless the collector is installed (the traced pass).
        let span = Span::enter(GRID_WINDOW, "bench");
        let report = g.grid.run_window(population);
        span.finish();
        wall_ms.push(began.elapsed().as_secs_f64() * 1e3);
        cpu_s += stats::process_cpu_s() - cpu_before;
        windows.push(report.map_err(|e| e.to_string()));
        if calibrated {
            calibration_ms.push(calibrate::sample_ms());
        }
    }
    Pass {
        windows,
        wall_ms,
        cpu_s,
        calibration_ms,
        ledger_valid: g.grid.ledger().validate().is_ok(),
    }
}

impl Pass {
    /// Seconds inside `run_window` calls.
    fn busy_s(&self) -> f64 {
        self.wall_ms.iter().sum::<f64>() / 1e3
    }

    /// What a timing of this pass is multiplied by to read at the
    /// machine's nominal speed (see [`calibrate`]); 1 for a pass that
    /// was not calibrated.
    fn to_nominal(&self) -> f64 {
        if self.calibration_ms.is_empty() {
            1.0
        } else {
            calibrate::NOMINAL_MS / stats::median(&self.calibration_ms)
        }
    }

    fn reports(&self) -> impl Iterator<Item = &GridReport> {
        self.windows.iter().flatten()
    }

    fn fingerprints(&self, n: usize) -> Vec<Option<[u8; 32]>> {
        self.windows
            .iter()
            .take(n)
            .map(|w| w.as_ref().ok().map(GridReport::fingerprint))
            .collect()
    }

    /// Protocol plus coupling traffic, `(bytes, messages)`.
    fn traffic(&self) -> (u64, u64) {
        self.reports().fold((0, 0), |(bytes, msgs), r| {
            let c = r.coupling.as_ref().map(|c| &c.net);
            (
                bytes + r.net.total_bytes + c.map_or(0, |n| n.total_bytes),
                msgs + r.net.total_messages + c.map_or(0, |n| n.total_messages),
            )
        })
    }
}

/// The output checks; problems go to stderr, the verdict to the result.
struct Checker {
    shards: u64,
    attempted: u64,
    failed: u64,
    correct: bool,
}

impl Checker {
    fn problem(&mut self, what: String) {
        eprintln!("CHECK FAILED: {what}");
        self.correct = false;
    }

    /// Counts coalition-windows and holds every trading coalition to the
    /// plaintext market on the same members: regime, price and cleared
    /// energy. Protocol 3 prices from sums quantized at 10⁻⁶, which on
    /// this band lands within 10⁻⁵ ¢ of the plaintext price; the check
    /// allows 10⁻⁴, a tenth of the ledger's price resolution.
    fn check_pass(&mut self, name: &str, day: &[Vec<AgentWindow>], pass: &Pass) {
        let market = MarketEngine::new(BAND);
        for (k, window) in pass.windows.iter().enumerate() {
            let report = match window {
                Ok(report) => report,
                Err(e) => {
                    self.attempted += self.shards;
                    self.failed += self.shards;
                    self.problem(format!("{name} window {k}: {e}"));
                    continue;
                }
            };
            self.attempted += report.statuses.len() as u64;
            let degraded = report
                .statuses
                .iter()
                .filter(|s| **s != CoalitionStatus::Cleared)
                .count();
            if degraded > 0 {
                self.failed += degraded as u64;
                self.problem(format!(
                    "{name} window {k}: {degraded} coalitions not cleared"
                ));
            }
            let population = &day[schedule(k)];
            for so in &report.shard_outcomes {
                let members: Vec<AgentWindow> = so.members.iter().map(|&m| population[m]).collect();
                let clear = market.run_window(&members);
                let cleared =
                    |trades: &[pem::market::Trade]| trades.iter().map(|t| t.energy).sum::<f64>();
                let same = so.outcome.kind == clear.kind
                    && (so.outcome.kind == MarketKind::NoMarket
                        || ((so.outcome.price - clear.price).abs() < 1e-4
                            && (cleared(&so.outcome.trades) - cleared(&clear.trades)).abs()
                                < 1e-4));
                if !same {
                    self.problem(format!(
                        "{name} window {k} shard {}: {:?} at {} differs from the plaintext market's {:?} at {}",
                        so.shard, so.outcome.kind, so.outcome.price, clear.kind, clear.price
                    ));
                }
            }
        }
        if !pass.ledger_valid {
            self.problem(format!("{name}: settlement chain does not validate"));
        }
    }
}

/// Runs `pass` with the collector installed and returns its spans.
fn traced<T>(pass: impl FnOnce() -> T) -> (T, Vec<Event>, Vec<(&'static str, u64)>) {
    telemetry::reset_metrics();
    telemetry::install();
    let out = pass();
    let events = telemetry::drain();
    let counters = telemetry::counter_snapshot();
    telemetry::uninstall();
    (out, events, counters)
}

/// Mean virtual critical path of a window, in ms: the dominant
/// coalition's message chain plus the coupling round's.
fn critical_path_mean_ms(pass: &Pass) -> f64 {
    let paths: Vec<f64> = pass
        .reports()
        .map(|r| {
            let window = r.causal.as_ref().map_or(0, |c| c.total_us);
            let coupling = r.coupling.as_ref().map_or(0, |c| c.critical_path_us);
            (window + coupling) as f64 / 1e3
        })
        .collect();
    stats::mean(&paths)
}

/// Agent-windows a pass ran.
fn agent_windows(w: &Workload, pass: &Pass) -> f64 {
    (w.homes * pass.windows.len()) as f64
}

/// What `--trace 0` reports: timings from the untraced pass, the exact
/// metrics from the reference prefix.
fn end_to_end(w: &Workload, setups: &[f64], untraced: &Pass, reference: &Pass) -> Vec<Metric> {
    let aw = agent_windows(w, untraced);
    let nominal = untraced.to_nominal();
    vec![
        Metric::new("setup_s", stats::median(setups), "s"),
        Metric::new(
            "agent_windows_per_s",
            aw / (untraced.busy_s() * nominal),
            "1/s",
        ),
        Metric::new(
            "window_p50_ms",
            stats::median(&untraced.wall_ms) * nominal,
            "ms",
        ),
        Metric::new(
            "cpu_ms_per_agent_window",
            untraced.cpu_s * 1e3 * nominal / aw,
            "ms",
        ),
        Metric::new(
            "bytes_per_agent_window",
            reference.traffic().0 as f64 / agent_windows(w, reference),
            "B",
        ),
        Metric::new(
            "critical_path_mean_ms",
            critical_path_mean_ms(reference),
            "ms",
        ),
    ]
}

/// What `--trace 1` reports: the probes, the traced pass's counts and
/// the layer budget. `a` and `b` are the grids the two passes ran on.
fn per_layer(
    opts: &Options,
    (a, untraced): (&Grid, &Pass),
    (b, reference): (&Grid, &Pass),
    events: &[Event],
    counters: &[(&'static str, u64)],
) -> Vec<Metric> {
    let w = &opts.workload;
    // The second window of the schedule is a morning one: a general
    // market, so the probed coalition runs all three protocol phases.
    let morning = &a.day[schedule(1)];
    let plan = a.grid.plan().expect("shards formed");
    let coalition: Vec<AgentWindow> = plan.shards()[0].iter().map(|&m| morning[m]).collect();
    let mut metrics = probes::run(&ProbeInput {
        workload: *w,
        seed: opts.seed,
        coalition: &coalition,
        population: morning,
        blocks: &a.grid.ledger().blocks()[1..],
    });
    let append_us = metrics
        .iter()
        .find(|m| m.name == "ledger.append_us_per_block")
        .map_or(0.0, |m| m.value);
    let per_aw = |counter: &str| {
        let count = counters.iter().find(|(n, _)| *n == counter);
        count.map_or(0.0, |(_, v)| *v as f64) / agent_windows(w, reference)
    };
    let windows = reference.windows.len() as f64;
    let (bytes, messages) = reference.traffic();
    let blocks: usize = reference
        .reports()
        .map(|r| r.settlement.blocks_appended)
        .sum();

    let budget = Budget::from_events(events);
    let wall_ms = budget.per_window_ms(budget.wall_us);
    let ledger_ms = blocks as f64 * append_us / 1e3 / windows;
    let unattributed_ms = budget.per_window_ms(budget.remainder_us()) - ledger_ms;
    let sorted_wall = stats::sorted(&untraced.wall_ms);
    let tail = stats::tail_percentile(sorted_wall.len());
    let hit_rate = reference
        .reports()
        .last()
        .and_then(|r| r.pool)
        .map_or(0.0, |p| p.hit_rate());
    // Window k is the same work in both passes: the median of the
    // per-window ratios, each pass at its own machine speed.
    let ratios: Vec<f64> = reference
        .wall_ms
        .iter()
        .zip(&untraced.wall_ms)
        .map(|(traced, plain)| traced / plain)
        .collect();
    let overhead = stats::median(&ratios) * reference.to_nominal() / untraced.to_nominal() - 1.0;
    let m = Metric::new;
    metrics.extend([
        m(
            "bignum.modpow_per_agent_window",
            per_aw("crypto/modpow"),
            "count",
        ),
        m(
            "bignum.pow_mul_per_agent_window",
            per_aw("crypto/pow_mul"),
            "count",
        ),
        m(
            "bignum.multi_modpow_per_agent_window",
            per_aw("crypto/multi_modpow"),
            "count",
        ),
        m(
            "bignum.fixed_base_per_agent_window",
            per_aw("crypto/fixed_base_pow"),
            "count",
        ),
        m(
            "circuit.compare_share",
            budget.compare_all_lanes_us as f64 / budget.busy_all_lanes_us.max(1) as f64,
            "share",
        ),
        m("core.pool_hit_rate", hit_rate, "share"),
        m(
            "net.messages_per_agent_window",
            messages as f64 / agent_windows(w, reference),
            "count",
        ),
        m(
            "net.bytes_per_message",
            bytes as f64 / messages.max(1) as f64,
            "B",
        ),
        m(
            "net.critical_path_mean_ms",
            critical_path_mean_ms(reference),
            "ms",
        ),
        m(
            "fabric.polls_per_coalition_window",
            per_aw("fabric/polls") * w.coalition as f64,
            "count",
        ),
        m(
            "fabric.stalls_per_coalition_window",
            per_aw("fabric/stalls") * w.coalition as f64,
            "count",
        ),
        m("sched.form_shards_s", b.form_shards_s, "s"),
        m(
            "sched.worker_utilization",
            untraced.cpu_s / (WORKERS as f64 * untraced.busy_s()),
            "share",
        ),
        m("sched.overhead_ms_per_window", unattributed_ms, "ms"),
        m(
            "sched.window_tail_ms",
            stats::percentile(&sorted_wall, tail),
            "ms",
        ),
        m("sched.window_tail_pct", f64::from(tail), "pct"),
        m("sched.window_samples", sorted_wall.len() as f64, "count"),
        m("sched.calibration_x", 1.0 / untraced.to_nominal(), "x"),
        m("ledger.blocks_per_window", blocks as f64 / windows, "count"),
        m("data.trace_generate_ms", b.generate_s * 1e3, "ms"),
        m("telemetry.overhead_pct", overhead * 100.0, "pct"),
        // The layer budget: these rows sum to budget.window_wall_ms.
        m("budget.window_wall_ms", wall_ms, "ms"),
        m("budget.driver_ms", budget.row_ms("driver"), "ms"),
        m("budget.eval_agg_ms", budget.row_ms("eval_agg"), "ms"),
        m(
            "budget.eval_compare_ms",
            budget.row_ms("eval_compare"),
            "ms",
        ),
        m("budget.price_ms", budget.row_ms("price"), "ms"),
        m("budget.dist_ms", budget.row_ms("dist"), "ms"),
        m("budget.pool_refill_ms", budget.row_ms("pool_refill"), "ms"),
        m("budget.coupling_ms", budget.row_ms("coupling"), "ms"),
        m("budget.ledger_predicted_ms", ledger_ms, "ms"),
        m(
            "budget.unattributed_pct",
            unattributed_ms / wall_ms * 100.0,
            "pct",
        ),
    ]);
    metrics
}

pub fn run(opts: &Options) -> RunResult {
    let w = opts.workload;
    // One discarded toy-key window before any timing: thread spawn,
    // allocator and lazy statics are warm when the first set-up starts.
    {
        let toy = Workload::by_name("day100_threads_coupled").expect("toy workload");
        let mut warm = set_up(&Workload { homes: 24, ..toy }, opts.seed, Engine::Threads);
        let _ = run_pass(&mut warm, Stop::Windows(1), false);
    }

    let mut check = Checker {
        shards: w.shards() as u64,
        attempted: 0,
        failed: 0,
        correct: true,
    };

    // Only the single-thread engine meets the machine's fast mode.
    let calibrated = matches!(w.engine, Engine::Fabric { .. });

    // --- Untraced pass: the end-to-end timings. A traced run splits its
    // seconds between this pass and the traced one.
    let mut a = set_up(&w, opts.seed, w.engine);
    let untraced = run_pass(
        &mut a,
        Stop::Timed {
            seconds: if opts.trace {
                opts.seconds / 2.0
            } else {
                opts.seconds
            },
            min_windows: w.reference_windows(),
        },
        calibrated,
    );
    check.check_pass("untraced", &a.day, &untraced);

    // --- Traced pass on a fresh grid over the same schedule prefix: the
    // reference windows in an untraced run, every window in a traced one.
    let mut b = set_up(&w, opts.seed, w.engine);
    let prefix = if opts.trace {
        untraced.windows.len()
    } else {
        w.reference_windows()
    };
    let (reference, events, counters) =
        traced(|| run_pass(&mut b, Stop::Windows(prefix), calibrated));
    check.check_pass("traced", &b.day, &reference);
    if reference.fingerprints(prefix) != untraced.fingerprints(prefix) {
        check.problem("traced and untraced passes disagree on a window fingerprint".into());
    }

    let metrics = if opts.trace {
        per_layer(opts, (&a, &untraced), (&b, &reference), &events, &counters)
    } else {
        // --- More set-ups for the median; the third one runs the
        // engine's twin where that is cheap, and the engines must agree.
        let mut setups = vec![a.setup_s, b.setup_s];
        let mut c = set_up(&w, opts.seed, w.twin_engine().unwrap_or(w.engine));
        setups.push(c.setup_s);
        if w.twin_engine().is_some() {
            let n = w.reference_windows();
            let twin = run_pass(&mut c, Stop::Windows(n), false);
            if twin.fingerprints(n) != untraced.fingerprints(n) {
                check.problem("the two engines disagree on a window fingerprint".into());
            }
        }
        // Cheap set-ups are noisy ones: repeat them until they have had
        // two seconds or nine goes.
        while setups.len() < 9 && setups.iter().sum::<f64>() < 2.0 {
            setups.push(set_up(&w, opts.seed, w.engine).setup_s);
        }
        end_to_end(&w, &setups, &untraced, &reference)
    };

    RunResult {
        correct: check.correct,
        attempted: check.attempted,
        failed: check.failed,
        metrics,
    }
}
