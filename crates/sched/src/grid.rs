//! The grid orchestrator: sharded multi-coalition PEM windows on a
//! fixed worker pool, settled onto one ledger.

use pem_core::{KeyDirectory, Pem, PemConfig, PemError, PemWindowOutcome};
use pem_coupling::{CouplingConfig, CouplingCoordinator, Repartitioner, ShardPosition};
use pem_fabric::Executor;
use pem_ledger::{Ledger, SettlementContract, SettlementTx, TransferTx};
use pem_market::{AgentWindow, MarketKind};
use pem_net::{FaultKind, FaultPlan, NetStats};
use pem_telemetry::{Counter, Span};

use crate::error::SchedError;
use crate::partition::{PartitionStrategy, Partitioner, ShardPlan};
use crate::pool;
use crate::report::{
    phase_latencies, CoalitionStatus, GridDayReport, GridReport, PriceStats, SettlementSummary,
    ShardOutcome,
};

/// Coalition window re-executions across all grids (telemetry).
static RETRIES: Counter = Counter::new();
/// Coalitions quarantined (counted once per window they sit out).
static QUARANTINES: Counter = Counter::new();
/// Quarantined coalitions re-admitted by a successful probe.
static READMISSIONS: Counter = Counter::new();

fn register_fault_metrics() {
    static ONCE: std::sync::Once = std::sync::Once::new();
    ONCE.call_once(|| {
        pem_telemetry::register_counter("fault/retries", &RETRIES);
        pem_telemetry::register_counter("fault/quarantines", &QUARANTINES);
        pem_telemetry::register_counter("fault/readmissions", &READMISSIONS);
    });
}

/// The lane shape a window's coalition jobs run in. Every lane is the
/// same code: every attempt of each coalition's window is a poll-able
/// [`WindowTask`] on the lane's one deterministic [`Executor`]; the
/// engine only decides how coalitions are grouped into lanes.
///
/// [`WindowTask`]: pem_core::WindowTask
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum Engine {
    /// One single-coalition lane per shard, spread over the worker pool.
    #[default]
    Threads,
    /// One lane holding every coalition, on the calling thread. `batch`
    /// bounds how many coalitions are resident at once (`0` = all) — a
    /// memory ceiling, never an output change: fingerprints are
    /// bit-identical to the thread engine at every batch size.
    Fabric {
        /// Maximum resident tasks (`0` = admit everything).
        batch: usize,
    },
}

impl std::fmt::Display for Engine {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            Engine::Threads => write!(f, "threads"),
            Engine::Fabric { batch: 0 } => write!(f, "fabric"),
            Engine::Fabric { batch } => write!(f, "fabric:{batch}"),
        }
    }
}

impl std::str::FromStr for Engine {
    type Err = String;

    /// Parses `threads`, `fabric`, or `fabric:<batch>`.
    fn from_str(s: &str) -> Result<Engine, String> {
        match s {
            "threads" => Ok(Engine::Threads),
            "fabric" => Ok(Engine::Fabric { batch: 0 }),
            other => match other.strip_prefix("fabric:") {
                Some(batch) => batch
                    .parse()
                    .map(|batch| Engine::Fabric { batch })
                    .map_err(|_| format!("bad fabric batch size {batch:?}")),
                None => Err(format!(
                    "unknown engine {other:?} (expected threads, fabric or fabric:<batch>)"
                )),
            },
        }
    }
}

/// How the orchestrator treats a failed coalition window.
///
/// `max_attempts` counts *re-executions* after the initial run. A retry
/// is the same window run again on the lane's executor, continuing the
/// coalition's DRBG and randomizer streams past what the failed attempt
/// drew — no nonce or randomizer is ever put on the wire twice. Where an
/// attempt fails depends on the fault plan alone, so every attempt is
/// bit-reproducible at any worker count and on either engine. A
/// coalition that exhausts its attempts is quarantined: excluded from
/// settlement and coupling for the window and probed for re-admission
/// next window.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct RetryPolicy {
    /// Re-executions after the initial attempt (`0` = quarantine on the
    /// first failure).
    pub max_attempts: u32,
}

impl Default for RetryPolicy {
    fn default() -> RetryPolicy {
        RetryPolicy { max_attempts: 1 }
    }
}

/// A deterministic fault injected into one coalition's window fabric —
/// the chaos-testing hook of the orchestrator (attached with
/// [`GridOrchestrator::with_chaos`]).
#[derive(Debug, Clone, Copy)]
pub struct ChaosSpec {
    /// Target shard index.
    pub shard: usize,
    /// Message label the fault matches.
    pub label: &'static str,
    /// Which matching message (0-based) the fault hits.
    pub nth: u64,
    /// The fault applied.
    pub kind: FaultKind,
    /// `false`: transient — only the first attempt of a window is
    /// faulted, so a retry clears. `true`: persistent — every attempt
    /// (including re-admission probes) is faulted.
    pub persistent: bool,
    /// Restrict the fault to one grid window (`None` = every window).
    pub window: Option<u64>,
}

/// The fault plan a shard's `attempt` of grid `window` runs under
/// (empty when no spec matches).
fn chaos_plan(specs: &[ChaosSpec], shard: usize, window: u64, attempt: u32) -> FaultPlan {
    let mut plan = FaultPlan::new();
    for spec in specs {
        if spec.shard == shard
            && spec.window.is_none_or(|w| w == window)
            && (spec.persistent || attempt == 0)
        {
            plan = plan.inject(spec.label, spec.nth, spec.kind);
        }
    }
    plan
}

/// Configuration of a sharded grid.
#[derive(Debug, Clone)]
pub struct GridConfig {
    /// Per-coalition protocol configuration. `pem.seed` is the grid
    /// master seed: every home's key pair derives from it and the home's
    /// id, and every coalition derives independent protocol streams from
    /// it, so outcomes are deterministic at any worker count.
    pub pem: PemConfig,
    /// Maximum agents per coalition (the paper's evaluated regime is
    /// tens to low hundreds; protocol cost grows superlinearly).
    pub coalition_size: usize,
    /// Worker threads running coalition windows and key generation.
    /// Under [`Engine::Fabric`] the protocol phase runs on one thread;
    /// `workers` still parallelizes key generation, one home per job.
    pub workers: usize,
    /// Execution engine for the window's coalition jobs.
    pub engine: Engine,
    /// Partitioning strategy.
    pub strategy: PartitionStrategy,
    /// Cross-shard market coupling (and optional dispersion-driven
    /// re-partitioning). `None` disables the subsystem entirely — grid
    /// reports are then bit-identical to a coupling-unaware build.
    pub coupling: Option<CouplingConfig>,
    /// Recovery policy for failed coalition windows.
    pub retry: RetryPolicy,
}

impl GridConfig {
    /// Validates grid-level constraints (per-coalition constraints are
    /// validated by [`PemConfig::validate`] at shard construction).
    ///
    /// # Errors
    ///
    /// [`SchedError::Config`] describing the violation.
    pub fn validate(&self) -> Result<(), SchedError> {
        if self.coalition_size < 2 {
            return Err(SchedError::Config(
                "coalitions need at least 2 agents to trade".into(),
            ));
        }
        if self.workers == 0 {
            return Err(SchedError::Config("worker pool cannot be empty".into()));
        }
        if let PartitionStrategy::Feeder { feeders } = self.strategy {
            if feeders == 0 {
                return Err(SchedError::Config("feeder count cannot be zero".into()));
            }
        }
        if let Some(coupling) = &self.coupling {
            coupling.validate()?;
        }
        Ok(())
    }
}

/// One coalition's persistent state: membership plus its PEM instance,
/// which borrows its members' keys from the grid's directory and owns
/// the coalition's DRBG and randomizer streams.
struct Shard {
    members: Vec<usize>,
    pem: Pem,
}

/// Derives coalition `shard`'s seed from the grid master seed. `epoch`
/// counts re-partitions: coalitions rebuilt after a membership change
/// draw fresh, independent protocol and randomizer streams (their
/// members' keys are not re-made).
fn shard_seed(master: u64, shard: usize, epoch: u64) -> u64 {
    (master ^ 0x9E37_79B9_7F4A_7C15u64.wrapping_mul(shard as u64 + 1))
        .wrapping_add(epoch.wrapping_mul(0xD1B5_4A32_D192_ED03))
}

/// What one coalition's recovery-supervised window produced: the
/// outcome (absent when quarantined) and the status verdict.
type ShardRun = (Option<PemWindowOutcome>, CoalitionStatus);

/// `(shard index, probe?, shard, window data)`: one coalition's job.
type Job = (usize, bool, Shard, Vec<AgentWindow>);

/// Runs one lane of coalition windows under the recovery policy — the
/// one dispatcher both engines use. Round `k` opens attempt `k` of every
/// coalition still open as a poll-able task, and one executor
/// interleaves them message by message, isolating failures per task (a
/// coalition whose message never arrives ends in its typed error and is
/// evicted). Every coalition is open in round 0; after that, one whose
/// last attempt failed retryably stays open until the policy's budget
/// runs out, except a quarantined coalition's probe, which gets no
/// retries: one clean window re-admits it, one failure keeps it out.
/// Fatal errors quarantine at once.
fn run_lane(
    mut jobs: Vec<Job>,
    batch: usize,
    specs: &[ChaosSpec],
    window: u64,
    retry: RetryPolicy,
) -> Vec<(Shard, ShardRun)> {
    let executor = Executor::new(batch);
    // `(attempt, result)` of each coalition's latest attempt; every
    // coalition is opened in round 0, so the placeholder never survives.
    let mut last: Vec<(u32, Result<PemWindowOutcome, PemError>)> = jobs
        .iter()
        .map(|_| (0, Err(PemError::Protocol("window not attempted"))))
        .collect();
    for attempt in 0..=retry.max_attempts {
        let open: Vec<bool> = jobs
            .iter()
            .zip(&last)
            .map(|((_, probe, _, _), (_, result))| {
                attempt == 0 || (!probe && matches!(result, Err(e) if e.is_retryable()))
            })
            .collect();
        if !open.contains(&true) {
            break;
        }
        let _span = (attempt > 0).then(|| Span::enter("grid/retry", "fault"));
        let mut tasks = Vec::new();
        let mut task_pos = Vec::new();
        for (pos, ((idx, _, shard, data), _)) in jobs
            .iter_mut()
            .zip(open)
            .enumerate()
            .filter(|(_, (_, open))| *open)
        {
            if attempt > 0 {
                RETRIES.incr();
            }
            let plan = chaos_plan(specs, *idx, window, attempt);
            match shard.pem.fabric_window_with_faults(data, plan) {
                Ok(task) => {
                    tasks.push(task);
                    task_pos.push(pos);
                }
                Err(e) => last[pos] = (attempt, Err(e)),
            }
        }
        let (outs, _report) = executor.run_collect(tasks);
        for (pos, out) in task_pos.into_iter().zip(outs) {
            last[pos] = (attempt, out);
        }
    }
    jobs.into_iter()
        .zip(last)
        .map(|((_, probe, shard, _), (attempt, result))| {
            let status = match &result {
                Ok(_) if probe => {
                    READMISSIONS.incr();
                    CoalitionStatus::Recovered { attempts: 1 }
                }
                Ok(_) if attempt == 0 => CoalitionStatus::Cleared,
                Ok(_) => CoalitionStatus::Recovered { attempts: attempt },
                Err(e) => {
                    QUARANTINES.incr();
                    CoalitionStatus::Quarantined {
                        error: e.to_string(),
                    }
                }
            };
            (shard, (result.ok(), status))
        })
        .collect()
}

/// The sharded grid orchestrator.
///
/// Partitions the population once (on the first window), spins up one
/// [`Pem`] per coalition, then runs every subsequent window by
/// dispatching coalition jobs onto the worker pool and merging the
/// results into a [`GridReport`] — traffic onto global party ids,
/// trades onto the settlement chain, latencies into percentiles.
///
/// # Determinism
///
/// Given the same population stream and configuration (including
/// `pem.seed`), every run produces bit-identical [`GridReport`]
/// fingerprints regardless of `workers` or the engine: a home's key is
/// a function of the master seed and its id, coalitions own disjoint
/// RNG streams, each key's randomizers are one stream of its
/// coalition's, and results are folded in shard order, never completion
/// order.
pub struct GridOrchestrator {
    cfg: GridConfig,
    partitioner: Box<dyn Partitioner + Send + Sync>,
    /// Every home's key pair, made once by `form_shards`; coalitions
    /// borrow from it.
    keys: Option<KeyDirectory>,
    shards: Option<Vec<Shard>>,
    plan: Option<ShardPlan>,
    ledger: Ledger,
    population: Option<usize>,
    window: u64,
    coupling: Option<CouplingCoordinator>,
    repartitioner: Option<Repartitioner>,
    /// Re-partitions applied so far (also salts rebuilt shard seeds).
    epoch: u64,
    /// Deterministic fault injections (chaos testing).
    chaos: Vec<ChaosSpec>,
    /// Per-shard quarantine flags carried across windows; sized when
    /// shards form. A flagged shard runs a re-admission probe instead
    /// of a full retried window.
    quarantine: Vec<bool>,
}

impl GridOrchestrator {
    /// Creates an orchestrator with the strategy named in the config.
    ///
    /// # Errors
    ///
    /// [`SchedError::Config`] for invalid grid parameters.
    pub fn new(cfg: GridConfig) -> Result<GridOrchestrator, SchedError> {
        cfg.validate()?;
        let partitioner = cfg.strategy.build();
        let contract = SettlementContract::new(cfg.pem.band);
        let coupling = match &cfg.coupling {
            Some(c) => Some(CouplingCoordinator::new(
                c.clone(),
                cfg.pem.band,
                cfg.pem.seed,
            )?),
            None => None,
        };
        let repartitioner = cfg
            .coupling
            .as_ref()
            .and_then(|c| c.repartition.clone())
            .map(Repartitioner::new);
        Ok(GridOrchestrator {
            partitioner,
            ledger: Ledger::new(contract),
            cfg,
            keys: None,
            shards: None,
            plan: None,
            population: None,
            window: 0,
            coupling,
            repartitioner,
            epoch: 0,
            chaos: Vec::new(),
            quarantine: Vec::new(),
        })
    }

    /// Attaches deterministic fault injections: each spec faults one
    /// shard's window fabric. Chaos is orchestrator state, not
    /// configuration — a healthy grid's reports carry no trace of the
    /// machinery.
    #[must_use]
    pub fn with_chaos(mut self, specs: Vec<ChaosSpec>) -> GridOrchestrator {
        self.chaos = specs;
        self
    }

    /// Shards currently quarantined (empty before the first window).
    pub fn quarantined(&self) -> Vec<usize> {
        self.quarantine
            .iter()
            .enumerate()
            .filter_map(|(idx, &q)| q.then_some(idx))
            .collect()
    }

    /// The configuration in force.
    pub fn config(&self) -> &GridConfig {
        &self.cfg
    }

    /// The shard plan, once the first window has fixed it.
    pub fn plan(&self) -> Option<&ShardPlan> {
        self.plan.as_ref()
    }

    /// The settlement chain.
    pub fn ledger(&self) -> &Ledger {
        &self.ledger
    }

    /// Windows run so far.
    pub fn windows_run(&self) -> u64 {
        self.window
    }

    /// The key directory of every home (agent `i`'s pair at position
    /// `i`), once the first window has made it.
    pub fn keys(&self) -> Option<&KeyDirectory> {
        self.keys.as_ref()
    }

    /// Forms coalitions and generates key material for `population`
    /// agents: one key pair per home, from the master seed and the
    /// home's id (one home per job on the worker pool), then one
    /// coalition per shard borrowing its members' keys. Called implicitly
    /// by the first window; explicit calls let callers front-load setup.
    ///
    /// # Errors
    ///
    /// Per-coalition configuration failures.
    pub fn form_shards(&mut self, agents: &[AgentWindow]) -> Result<(), SchedError> {
        if self.shards.is_some() {
            return Ok(());
        }
        if agents.is_empty() {
            return Err(SchedError::Config("population must be non-empty".into()));
        }
        let plan = self.partitioner.partition(agents, self.cfg.coalition_size);
        // Refuse a configuration no coalition could run before paying
        // for a single key.
        for members in plan.shards() {
            self.cfg.pem.validate(members.len())?;
        }
        let (bits, master) = (self.cfg.pem.key_bits, self.cfg.pem.seed);
        let homes: Vec<usize> = (0..agents.len()).collect();
        let keypairs = pool::run_indexed(self.cfg.workers, homes, move |_, home| {
            KeyDirectory::agent_keypair(bits, master, home)
        });
        let keys = KeyDirectory::from_keypairs(keypairs)?;
        let jobs: Vec<(usize, Vec<usize>)> =
            plan.shards().to_vec().into_iter().enumerate().collect();
        let shards = self.build_shards(&keys, jobs)?;
        self.population = Some(agents.len());
        self.keys = Some(keys);
        self.plan = Some(plan);
        self.shards = Some(shards);
        Ok(())
    }

    /// Builds `(shard index, members)` coalitions over the members' keys
    /// in `keys`, seeding each coalition's DRBG and randomizer streams
    /// from the master seed, its index and the current re-partition
    /// epoch. No key is generated here.
    fn build_shards(
        &self,
        keys: &KeyDirectory,
        jobs: Vec<(usize, Vec<usize>)>,
    ) -> Result<Vec<Shard>, SchedError> {
        jobs.into_iter()
            .map(|(idx, members)| {
                let mut cfg = self.cfg.pem.clone();
                cfg.seed = shard_seed(self.cfg.pem.seed, idx, self.epoch);
                let pem = Pem::with_keys(cfg, keys.select(&members)?)?;
                Ok(Shard { members, pem })
            })
            .collect()
    }

    /// Applies a pending dispersion-driven re-partition, if the
    /// imbalance history warrants one. Coalitions whose membership
    /// changed are rebuilt over their new members' keys, with a fresh
    /// DRBG and randomizer streams under the new epoch; untouched coalitions
    /// keep their stream positions. No key is made: every home keeps its
    /// pair. Returns whether membership changed.
    fn maybe_repartition(&mut self, population: &[AgentWindow]) -> Result<bool, SchedError> {
        let Some(rep) = self.repartitioner.as_ref() else {
            return Ok(false);
        };
        let Some(plan) = self.plan.as_ref() else {
            return Ok(false);
        };
        let nets: Vec<f64> = population.iter().map(AgentWindow::net_energy).collect();
        let Some(new_shards) = rep.propose(&nets, plan.shards()) else {
            return Ok(false);
        };
        let old = plan.shards().to_vec();
        self.epoch += 1;
        let changed: Vec<(usize, Vec<usize>)> = new_shards
            .iter()
            .enumerate()
            .filter(|(i, members)| old[*i] != **members)
            .map(|(i, members)| (i, members.clone()))
            .collect();
        let changed_idx: Vec<usize> = changed.iter().map(|(i, _)| *i).collect();
        let keys = self
            .keys
            .as_ref()
            .ok_or(SchedError::State("keys made by form_shards"))?;
        let rebuilt = self.build_shards(keys, changed)?;
        let shards = self
            .shards
            .as_mut()
            .ok_or(SchedError::State("plan implies shards"))?;
        for (k, shard) in rebuilt.into_iter().enumerate() {
            shards[changed_idx[k]] = shard;
        }
        self.plan = Some(ShardPlan::new(
            new_shards,
            population.len(),
            self.cfg.coalition_size,
        ));
        self.repartitioner
            .as_mut()
            .ok_or(SchedError::State("repartitioner checked above"))?
            .reset();
        Ok(true)
    }

    /// Runs one grid-wide trading window over the whole population.
    ///
    /// Coalition failures no longer abort the window: each failed shard
    /// is retried under [`GridConfig::retry`] (on the lane's executor,
    /// its streams continuing past the failed attempt's draws) and
    /// quarantined when its attempts are exhausted — the window settles degraded, with only the cleared
    /// coalitions on the ledger and in the coupling round. Quarantined
    /// shards carry over and are probed for re-admission next window.
    ///
    /// # Errors
    ///
    /// [`SchedError::Config`] if `population` length changes between
    /// windows (coalition membership and keys are fixed after the first
    /// window); settlement-contract violations or orchestrator-state
    /// faults (coalition *protocol* failures surface as
    /// [`CoalitionStatus::Quarantined`] instead).
    pub fn run_window(&mut self, population: &[AgentWindow]) -> Result<GridReport, SchedError> {
        register_fault_metrics();
        self.form_shards(population)?;
        let expected = self
            .population
            .ok_or(SchedError::State("population recorded by form_shards"))?;
        if population.len() != expected {
            return Err(SchedError::Config(format!(
                "population size changed between windows: {} agents, expected {expected}",
                population.len()
            )));
        }
        // Persistent-imbalance feedback: re-carve chronically lopsided
        // coalitions before dispatching the window.
        let repartitioned = self.maybe_repartition(population)?;

        // --- Dispatch coalition windows onto the worker pool. ----------
        // Watermark the telemetry buffer so the report's profile covers
        // exactly this window's spans (including the coupling round,
        // which runs inside fold_window).
        let telemetry_mark = pem_telemetry::event_count();
        // A second watermark on the message-event buffer scopes the
        // causal critical-path attribution the same way.
        let msg_mark = pem_telemetry::msg_count();
        let shards = self
            .shards
            .take()
            .ok_or(SchedError::State("shards formed by form_shards"))?;
        if self.quarantine.len() != shards.len() {
            self.quarantine = vec![false; shards.len()];
        }
        let window = self.window;
        let retry = self.cfg.retry;
        let chaos = &self.chaos;
        let jobs: Vec<Job> = shards
            .into_iter()
            .enumerate()
            .map(|(idx, shard)| {
                let data: Vec<AgentWindow> = shard.members.iter().map(|&a| population[a]).collect();
                (idx, self.quarantine[idx], shard, data)
            })
            .collect();
        // The engine picks the lane shape, never the code path: lanes
        // return their coalitions in shard order, so the fold below is
        // the same under both.
        let settled: Vec<(Shard, ShardRun)> = match self.cfg.engine {
            Engine::Threads => pool::run_indexed(self.cfg.workers, jobs, |_, job| {
                run_lane(vec![job], 1, chaos, window, retry)
            })
            .into_iter()
            .flatten()
            .collect(),
            Engine::Fabric { batch } => run_lane(jobs, batch, chaos, window, retry),
        };
        let (shards, runs): (Vec<Shard>, Vec<ShardRun>) = settled.into_iter().unzip();

        self.shards = Some(shards);
        for (idx, (_, status)) in runs.iter().enumerate() {
            self.quarantine[idx] = matches!(status, CoalitionStatus::Quarantined { .. });
        }
        let (outcomes, statuses): (Vec<Option<PemWindowOutcome>>, Vec<CoalitionStatus>) =
            runs.into_iter().unzip();

        self.fold_window(
            population,
            outcomes,
            statuses,
            repartitioned,
            telemetry_mark,
            msg_mark,
        )
    }

    /// Runs a whole day: one grid window per entry of `day`, then
    /// validates the settlement chain end to end.
    ///
    /// # Errors
    ///
    /// The first window failure aborts the day.
    pub fn run_day(&mut self, day: &[Vec<AgentWindow>]) -> Result<GridDayReport, SchedError> {
        let mut windows = Vec::with_capacity(day.len());
        for population in day {
            windows.push(self.run_window(population)?);
        }
        let ledger_valid = self.ledger.validate().is_ok();
        Ok(GridDayReport::fold(windows, ledger_valid))
    }

    /// Merges per-shard outcomes into the window's [`GridReport`],
    /// running the cross-shard coupling round (when configured) between
    /// per-shard settlement and the final report. Quarantined shards
    /// (no outcome) are excluded from traffic, settlement and coupling;
    /// their status rides in the report's roster.
    fn fold_window(
        &mut self,
        population: &[AgentWindow],
        outcomes: Vec<Option<PemWindowOutcome>>,
        statuses: Vec<CoalitionStatus>,
        repartitioned: bool,
        telemetry_mark: usize,
        msg_mark: usize,
    ) -> Result<GridReport, SchedError> {
        let agents = population.len();
        let shards = self
            .shards
            .as_mut()
            .ok_or(SchedError::State("shards installed by run_window"))?;
        let window = self.window;
        self.window += 1;

        let mut net = NetStats::new(agents);
        let mut cleared = 0.0;
        let mut payments = 0.0;
        let mut regimes = [0usize; 3];
        let mut prices = Vec::new();
        let mut blocks_appended = 0;

        let shard_total = shards.len() as u64;
        // With coupling enabled each window may settle one extra block
        // (the transfer schedule), so block-window ids stride by S+1
        // instead of S; auditors recover (grid window, shard) by divmod
        // with the stride either way.
        let stride = if self.coupling.is_some() {
            shard_total + 1
        } else {
            shard_total
        };
        for (idx, (shard, outcome)) in shards.iter().zip(outcomes.iter()).enumerate() {
            let Some(outcome) = outcome else {
                // Quarantined: no traffic, no regime, no settlement.
                continue;
            };
            net.merge_mapped(&outcome.net, &shard.members);
            cleared += outcome.trades.iter().map(|t| t.energy).sum::<f64>();
            payments += outcome.trades.iter().map(|t| t.payment).sum::<f64>();
            regimes[outcome.kind as usize] += 1;
            if outcome.kind != MarketKind::NoMarket {
                prices.push(outcome.price);
            }
            // Trades already carry global agent ids (AgentWindow::id
            // survives sharding); settle one block per trading shard.
            // Dust below the chain's 1 µkWh resolution cannot be settled
            // (the contract rejects zero-energy transactions) and is
            // dropped here — at the default scale that is < 0.1 mWh per
            // trade.
            let txs: Vec<SettlementTx> = outcome
                .trades
                .iter()
                .map(SettlementTx::from_trade)
                .filter(|tx| tx.energy_ukwh > 0)
                .collect();
            if !txs.is_empty() {
                // Block window ids encode (grid window, shard) as
                // `window·stride + shard + 1`: strictly increasing (the
                // ledger's monotonicity rule) and recoverable.
                let block_window = window * stride + idx as u64 + 1;
                self.ledger
                    .append_window(block_window, outcome.price, &txs)?;
                blocks_appended += 1;
            }
        }

        // --- Cross-shard coupling round. -------------------------------
        // Message records up to here belong to the per-shard window
        // fabrics; everything after is the coupling fabric (which scopes
        // its own attribution inside run_round).
        let window_msg_end = pem_telemetry::msg_count();
        let coupling_summary = if let Some(coord) = self.coupling.as_mut() {
            // A quarantined coalition stands in with a neutral zero
            // position (the coupling fabric is shard-indexed, so every
            // slot must be filled): it neither exports nor imports, so
            // the corridor clears over the healthy residuals only.
            let positions: Vec<ShardPosition> = shards
                .iter()
                .zip(outcomes.iter())
                .enumerate()
                .map(|(idx, (shard, outcome))| {
                    let Some(outcome) = outcome.as_ref() else {
                        return ShardPosition {
                            shard: idx,
                            traded: false,
                            price: 0.0,
                            cleared_kwh: 0.0,
                            residual_kwh: 0.0,
                        };
                    };
                    // The representative publishes only coalition-level
                    // aggregates it already holds: the net position (what
                    // the coalition would otherwise settle with the
                    // utility) and its local clearing price/volume.
                    let residual: f64 = shard
                        .members
                        .iter()
                        .map(|&a| population[a].net_energy())
                        .sum();
                    ShardPosition {
                        shard: idx,
                        traded: outcome.kind != MarketKind::NoMarket,
                        price: outcome.price,
                        cleared_kwh: outcome.trades.iter().map(|t| t.energy).sum(),
                        residual_kwh: residual,
                    }
                })
                .collect();
            let round = coord.run_round(&positions)?;
            if round.summary.engaged {
                let corridor = round.summary.corridor_price;
                let transfers: Vec<TransferTx> = round
                    .transfers
                    .iter()
                    .map(|t| TransferTx::new(t.from_shard, t.to_shard, t.energy_kwh(), corridor))
                    .collect();
                // The coupling block takes the window's last id slot.
                let block_window = window * stride + shard_total + 1;
                self.ledger
                    .append_coupling(block_window, corridor, &transfers)?;
                blocks_appended += 1;
            }
            if let Some(rep) = self.repartitioner.as_mut() {
                // Shard-indexed observation vector; quarantined shards
                // observe their neutral 0.0 residual.
                let mut residuals = vec![0.0; shards.len()];
                for p in &positions {
                    residuals[p.shard] = p.residual_kwh;
                }
                rep.observe(&residuals);
            }
            let mut summary = round.summary;
            summary.repartitioned = repartitioned;
            Some(summary)
        } else {
            None
        };

        let outcome_refs: Vec<&PemWindowOutcome> = outcomes.iter().flatten().collect();
        let latency = phase_latencies(&outcome_refs);

        let tip_hash = self
            .ledger
            .blocks()
            .last()
            .ok_or(SchedError::State("genesis block always present"))?
            .hash;
        let shard_outcomes: Vec<ShardOutcome> = shards
            .iter()
            .zip(outcomes)
            .enumerate()
            .filter_map(|(idx, (shard, outcome))| {
                outcome.map(|outcome| ShardOutcome {
                    shard: idx,
                    members: shard.members.clone(),
                    outcome,
                })
            })
            .collect();

        // Capture this window's span profile (empty collector → None, so
        // the report is structurally identical with telemetry off).
        let profile = if pem_telemetry::enabled() {
            Some(pem_telemetry::ProfileSummary::from_events(
                &pem_telemetry::events_since(telemetry_mark),
            ))
        } else {
            None
        };
        // Causal attribution of the window's shard traffic: each shard
        // runs its own fabric, so take the *dominant* one (the longest
        // virtual critical path). None with the collector off or under
        // the zero-latency model (nothing to decompose).
        let causal = if pem_telemetry::enabled() {
            let msgs = pem_telemetry::msgs_since(msg_mark);
            let window_len = window_msg_end.saturating_sub(msg_mark).min(msgs.len());
            pem_telemetry::CriticalPathReport::dominant(&msgs[..window_len])
        } else {
            None
        };

        Ok(GridReport {
            window,
            agents,
            shard_outcomes,
            statuses,
            cleared_kwh: cleared,
            payments_cents: payments,
            regime_counts: regimes,
            prices: PriceStats::from_prices(&prices),
            net,
            latency,
            settlement: SettlementSummary {
                blocks_appended,
                chain_blocks: self.ledger.blocks().len(),
                tip_hash,
            },
            pool: None,
            coupling: coupling_summary,
            profile,
            causal,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn population(n: usize) -> Vec<AgentWindow> {
        (0..n)
            .map(|i| {
                if i % 2 == 0 {
                    AgentWindow::new(
                        i,
                        2.0 + (i % 5) as f64 * 0.3,
                        0.5,
                        0.0,
                        0.9,
                        22.0 + i as f64,
                    )
                } else {
                    AgentWindow::new(i, 0.0, 1.5 + (i % 3) as f64 * 0.5, 0.0, 0.9, 25.0)
                }
            })
            .collect()
    }

    fn config(workers: usize) -> GridConfig {
        GridConfig {
            pem: PemConfig::fast_test(),
            coalition_size: 6,
            workers,
            engine: Engine::Threads,
            strategy: PartitionStrategy::SurplusBalanced,
            coupling: None,
            retry: RetryPolicy::default(),
        }
    }

    #[test]
    fn grid_window_covers_population_and_settles() {
        let pop = population(20);
        let mut grid = GridOrchestrator::new(config(2)).expect("grid");
        let report = grid.run_window(&pop).expect("window");
        assert_eq!(report.agents, 20);
        assert_eq!(report.shard_outcomes.len(), 4);
        assert!(report.cleared_kwh > 0.0);
        assert!(report.payments_cents > 0.0);
        assert!(report.net.total_bytes > 0);
        assert_eq!(report.net.sent_bytes.len(), 20);
        assert!(report.settlement.blocks_appended > 0);
        assert!(grid.ledger().validate().is_ok());
        // Prices live inside the band for every trading shard.
        assert!(report.prices.min >= grid.config().pem.band.floor);
        assert!(report.prices.max <= grid.config().pem.band.ceiling);
    }

    #[test]
    fn day_settles_every_window_and_validates() {
        let day: Vec<Vec<AgentWindow>> = (0..3).map(|_| population(12)).collect();
        let mut grid = GridOrchestrator::new(config(3)).expect("grid");
        let report = grid.run_day(&day).expect("day");
        assert_eq!(report.windows.len(), 3);
        assert!(report.ledger_valid);
        assert!(report.cleared_kwh > 0.0);
        assert_eq!(
            grid.ledger().settled_windows(),
            report
                .windows
                .iter()
                .map(|w| w.settlement.blocks_appended)
                .sum::<usize>()
        );
    }

    #[test]
    fn membership_is_stable_across_windows() {
        let pop = population(12);
        let mut grid = GridOrchestrator::new(config(2)).expect("grid");
        let r1 = grid.run_window(&pop).expect("w1");
        let r2 = grid.run_window(&pop).expect("w2");
        for (a, b) in r1.shard_outcomes.iter().zip(r2.shard_outcomes.iter()) {
            assert_eq!(a.members, b.members);
        }
        assert_eq!(grid.windows_run(), 2);
    }

    #[test]
    fn rejects_bad_configs() {
        let mut cfg = config(1);
        cfg.coalition_size = 1;
        assert!(matches!(
            GridOrchestrator::new(cfg),
            Err(SchedError::Config(_))
        ));
        let mut cfg = config(1);
        cfg.workers = 0;
        assert!(GridOrchestrator::new(cfg).is_err());
        let mut cfg = config(1);
        cfg.strategy = PartitionStrategy::Feeder { feeders: 0 };
        assert!(GridOrchestrator::new(cfg).is_err());
    }

    fn coupled_config(workers: usize) -> GridConfig {
        let mut cfg = config(workers);
        cfg.coupling = Some(pem_coupling::CouplingConfig::fast_test());
        cfg
    }

    #[test]
    fn coupling_round_runs_and_settles_transfers() {
        // Feeder partitioning over an even/odd population puts sellers
        // and buyers in interleaved chunks; chunks end up imbalanced, so
        // the coupling round has residual on both sides.
        let pop = population(24);
        let mut cfg = coupled_config(2);
        cfg.strategy = PartitionStrategy::Feeder { feeders: 2 };
        let mut grid = GridOrchestrator::new(cfg).expect("grid");
        let report = grid.run_window(&pop).expect("window");
        let cs = report.coupling.as_ref().expect("coupling ran");
        assert_eq!(cs.shards, report.shard_outcomes.len());
        assert!(cs.net.total_messages > 0, "round always aggregates");
        assert!(cs.corridor_price >= grid.config().pem.band.floor);
        assert!(cs.corridor_price <= grid.config().pem.band.ceiling);
        if cs.engaged {
            assert!(cs.transferred_kwh > 0.0);
            assert!(cs.welfare_gain_cents > 0.0);
            assert_eq!(grid.ledger().coupling_blocks(), 1);
            assert!((grid.ledger().total_transfer_energy() - cs.transferred_kwh).abs() < 1e-6);
        }
        assert!(grid.ledger().validate().is_ok());
    }

    #[test]
    fn coupling_disabled_report_has_no_summary() {
        let pop = population(12);
        let mut grid = GridOrchestrator::new(config(1)).expect("grid");
        let report = grid.run_window(&pop).expect("window");
        assert!(report.coupling.is_none());
        assert_eq!(grid.ledger().coupling_blocks(), 0);
    }

    #[test]
    fn coupling_preserves_local_market_outcomes() {
        // The coupling round runs strictly after local clearing: per-
        // shard prices, trades and regimes must match the uncoupled run.
        let pop = population(20);
        let mut plain = GridOrchestrator::new(config(2)).expect("grid");
        let mut coupled = GridOrchestrator::new(coupled_config(2)).expect("grid");
        let a = plain.run_window(&pop).expect("plain");
        let b = coupled.run_window(&pop).expect("coupled");
        assert_eq!(a.regime_counts, b.regime_counts);
        assert_eq!(a.prices, b.prices);
        assert_eq!(a.cleared_kwh, b.cleared_kwh);
        for (x, y) in a.shard_outcomes.iter().zip(b.shard_outcomes.iter()) {
            assert_eq!(x.members, y.members);
            assert_eq!(x.outcome.trades, y.outcome.trades);
        }
    }

    /// Two one-sided coalitions of 8 with re-partitioning on: the third
    /// window re-carves them.
    fn lopsided_grid() -> (GridOrchestrator, Vec<AgentWindow>) {
        // Round-robin over the alternating population makes every shard
        // mixed; force lopsidedness with feeder chunks instead: sellers
        // are even indices, so contiguous chunks alternate surplus.
        let mut surpluses: Vec<AgentWindow> = Vec::new();
        for i in 0..8 {
            surpluses.push(AgentWindow::new(i, 3.0, 0.5, 0.0, 0.9, 25.0));
        }
        for i in 8..16 {
            surpluses.push(AgentWindow::new(i, 0.0, 2.5, 0.0, 0.9, 25.0));
        }
        let mut cfg = coupled_config(2);
        cfg.coalition_size = 8;
        cfg.strategy = PartitionStrategy::Feeder { feeders: 2 };
        cfg.coupling = Some(
            pem_coupling::CouplingConfig::fast_test()
                .with_repartition(pem_coupling::RepartitionConfig::fast_test()),
        );
        (GridOrchestrator::new(cfg).expect("grid"), surpluses)
    }

    /// Each agent's modulus as its coalition's market holds it, checked
    /// against the grid's directory: a coalition borrows its members'
    /// keys, it never makes its own.
    fn coalition_moduli(grid: &GridOrchestrator) -> Vec<Vec<u8>> {
        let keys = grid.keys().expect("keys made");
        let mut moduli = vec![None; keys.len()];
        for shard in grid.shards.as_ref().expect("formed") {
            for (pos, &agent) in shard.members.iter().enumerate() {
                let n = shard.pem.keys().public(pos).n();
                assert_eq!(n, keys.public(agent).n(), "agent {agent}'s key");
                moduli[agent] = Some(n.to_bytes_be());
            }
        }
        moduli
            .into_iter()
            .map(|n| n.expect("every agent placed"))
            .collect()
    }

    #[test]
    fn repartition_rebuilds_lopsided_coalitions() {
        let (mut grid, surpluses) = lopsided_grid();

        let r1 = grid.run_window(&surpluses).expect("w1");
        let r2 = grid.run_window(&surpluses).expect("w2");
        let before = coalition_moduli(&grid);
        // Two windows of persistent imbalance → the third re-partitions.
        let r3 = grid.run_window(&surpluses).expect("w3");
        // Every agent carries its key pair into its new coalition.
        assert_eq!(coalition_moduli(&grid), before);
        assert!(!r1.coupling.as_ref().expect("cs").repartitioned);
        assert!(!r2.coupling.as_ref().expect("cs").repartitioned);
        assert!(r3.coupling.as_ref().expect("cs").repartitioned);
        // Membership actually changed, but stays a valid partition of
        // the same sizes.
        assert_ne!(r2.shard_outcomes[0].members, r3.shard_outcomes[0].members);
        let mut all: Vec<usize> = r3
            .shard_outcomes
            .iter()
            .flat_map(|s| s.members.iter().copied())
            .collect();
        all.sort_unstable();
        assert_eq!(all, (0..16).collect::<Vec<_>>());
        // The swap mixed both sides: the rebuilt shards now clear trades
        // locally (previously one-sided => NoMarket).
        assert!(r3.regime_counts[2] < r2.regime_counts[2]);
        assert!(grid.ledger().validate().is_ok());
    }

    #[test]
    fn population_resize_is_a_config_error() {
        let mut grid = GridOrchestrator::new(config(1)).expect("grid");
        grid.run_window(&population(8)).expect("w1");
        let err = grid
            .run_window(&population(10))
            .expect_err("ten agents for eight");
        assert!(matches!(err, SchedError::Config(_)), "got {err:?}");
        // The rejected call left the orchestrator intact: a correctly
        // sized window still runs and settles.
        let report = grid.run_window(&population(8)).expect("w2");
        assert_eq!(report.agents, 8);
        assert!(grid.ledger().validate().is_ok());
    }
}
