//! The four grid-day workloads and the seeded generator behind them.
//!
//! Everything a workload needs is made here from `--seed`; the program
//! under test only ever receives the generated [`AgentWindow`]
//! populations and a [`GridConfig`].

use pem::core::{PemConfig, Topology};
use pem::coupling::{CouplingConfig, RepartitionConfig};
use pem::data::{TraceConfig, TraceGenerator};
use pem::market::{AgentId, AgentWindow, PriceBand};
use pem::net::LatencyModel;
use pem::sched::{Engine, GridConfig, PartitionStrategy, RetryPolicy};

/// Windows in `day100`: 07:00–18:40 at 7-minute spacing.
pub const DAY_WINDOWS: usize = 100;

/// Worker threads on every workload (`nproc` is 2 on the box of
/// record); the benchmark never runs more threads than this.
pub const WORKERS: usize = 2;

/// The wide retail/feed-in spread of `examples/grid_day.rs`, so
/// Stackelberg prices land inside the band instead of on its floor.
pub const BAND: PriceBand = PriceBand {
    grid_retail: 120.0,
    grid_feed_in: 20.0,
    floor: 30.0,
    ceiling: 110.0,
};

/// One workload: population, crypto profile, engine — and why it exists.
#[derive(Debug, Clone, Copy)]
pub struct Workload {
    pub name: &'static str,
    pub homes: usize,
    pub coalition: usize,
    /// `0` = `PemConfig::fast_test()` (128-bit keys, 192-bit OT group).
    pub key_bits: usize,
    pub pool: usize,
    pub tree: bool,
    pub engine: Engine,
    pub coupled: bool,
}

pub const WORKLOADS: [Workload; 4] = [
    Workload {
        name: "grid_k1024",
        homes: 48,
        coalition: 12,
        key_bits: 1024,
        pool: 0,
        tree: false,
        engine: Engine::Threads,
        coupled: false,
    },
    Workload {
        name: "bigcoal_k2048",
        homes: 80,
        coalition: 40,
        key_bits: 2048,
        pool: 0,
        tree: false,
        engine: Engine::Threads,
        coupled: false,
    },
    Workload {
        name: "day100_fabric",
        homes: 240,
        coalition: 12,
        key_bits: 0,
        pool: 8,
        tree: true,
        engine: Engine::Fabric { batch: 8 },
        coupled: false,
    },
    Workload {
        name: "day100_threads_coupled",
        homes: 240,
        coalition: 12,
        key_bits: 0,
        pool: 8,
        tree: true,
        engine: Engine::Threads,
        coupled: true,
    },
];

impl Workload {
    pub fn by_name(name: &str) -> Option<Workload> {
        WORKLOADS.iter().copied().find(|w| w.name == name)
    }

    pub fn toy_keys(&self) -> bool {
        self.key_bits == 0
    }

    /// Windows of the reference prefix: every run gets through at least
    /// these, the traced pass of an untraced run covers exactly these,
    /// and the exact metrics (bytes, critical path) and the fingerprint
    /// checks are taken over them — so none of that depends on how far
    /// the timed loop got. Five where windows are cheap, three otherwise.
    pub fn reference_windows(&self) -> usize {
        if self.toy_keys() {
            5
        } else {
            3
        }
    }

    pub fn shards(&self) -> usize {
        self.homes.div_ceil(self.coalition)
    }

    /// Per-coalition protocol configuration. `LatencyModel::lan()` on
    /// every workload: the virtual clock never touches wall time or
    /// market output, and it makes the critical path defined everywhere.
    pub fn pem_config(&self) -> PemConfig {
        let mut pem = if self.toy_keys() {
            PemConfig::fast_test()
        } else {
            PemConfig::paper(self.key_bits)
        }
        .with_randomizer_pool(self.pool)
        .with_latency(LatencyModel::lan());
        if self.tree {
            pem = pem.with_topology(Topology::tree());
        }
        pem.band = BAND;
        pem
    }

    /// The grid configuration on `engine` (the workload's own, or its
    /// twin for the engine-equivalence check).
    pub fn grid_config(&self, engine: Engine) -> GridConfig {
        GridConfig {
            pem: self.pem_config(),
            coalition_size: self.coalition,
            workers: WORKERS,
            engine,
            strategy: PartitionStrategy::SurplusBalanced,
            coupling: self.coupled.then(|| {
                CouplingConfig::fast_test()
                    .with_latency(LatencyModel::lan())
                    .with_repartition(RepartitionConfig::fast_test())
            }),
            retry: RetryPolicy::default(),
        }
    }

    /// The other engine, for workloads cheap enough to run twice.
    pub fn twin_engine(&self) -> Option<Engine> {
        self.toy_keys().then_some(match self.engine {
            Engine::Threads => Engine::Fabric { batch: 8 },
            Engine::Fabric { .. } => Engine::Threads,
        })
    }
}

/// One home in three has solar (the `grid_day` example's penetration).
pub const SOLAR_FRACTION: f64 = 0.35;

/// `day100` for `homes` homes: the paper's daylight geometry (from
/// 07:00) at 7-minute spacing. Entry `w` is window `w`'s population.
/// Dawn and dusk windows are one-sided (no market) and stay in — they
/// are part of a day.
///
/// The generator draws solar ownership per home as a coin flip, which at
/// 48 homes moves the seller count — and with it the window's cost — by
/// ±20% from seed to seed. A seed should vary the data, not the size of
/// the problem, so the population is *stratified*: homes are drawn from
/// a three-times larger generated pool, taking the first
/// `round(0.35·homes)` solar homes and the first non-solar homes for the
/// rest, in pool order, re-numbered `0..homes`.
pub fn day100(homes: usize, seed: u64) -> Vec<Vec<AgentWindow>> {
    let trace = TraceGenerator::new(TraceConfig {
        homes: homes * 3,
        windows: DAY_WINDOWS,
        window_minutes: 7,
        start_minute: 420,
        solar_fraction: SOLAR_FRACTION,
        seed,
        ..TraceConfig::default()
    })
    .generate();
    let mut solar_left = (SOLAR_FRACTION * homes as f64).round() as usize;
    let mut plain_left = homes - solar_left;
    let picked: Vec<usize> = trace
        .homes
        .iter()
        .filter(|h| {
            let left = if h.solar_capacity > 0.0 {
                &mut solar_left
            } else {
                &mut plain_left
            };
            let take = *left > 0;
            *left -= usize::from(take);
            take
        })
        .map(|h| h.id)
        .collect();
    assert_eq!(picked.len(), homes, "pool too small for seed {seed}");
    (0..DAY_WINDOWS)
        .map(|w| {
            let pool = trace.window_agents(w);
            picked
                .iter()
                .enumerate()
                .map(|(id, &p)| AgentWindow {
                    id: AgentId(id),
                    ..pool[p]
                })
                .collect()
        })
        .collect()
}

/// The trading day proper: windows 10–89 (08:10–17:30), where every
/// coalition is two-sided on every seed. The dawn and dusk windows
/// outside it stay in `day100` but are not run: how many coalitions
/// have a first or last seller there changes from seed to seed, and a
/// coalition with none is a no-market early exit that costs nothing —
/// in a run of a dozen windows one such window moves throughput by 5%.
pub const CORE: std::ops::Range<usize> = 10..90;

/// The order windows are run in: `45, 14, 63, 32, 81, 50, 19, …` — a
/// full-cycle stride of 49 ≈ 80/φ over [`CORE`], from mid-day. A run
/// measures for a fixed time, not a fixed window count, so it runs a
/// *prefix* of this order (and wraps when it finishes the day); the
/// golden-ratio stride keeps every prefix spread evenly over the day,
/// so a faster build that gets further does not drift into a cheaper
/// or dearer time of day. Starting at mid-day also means coalitions
/// form on a two-sided population.
///
/// The offset puts the first five windows — the reference prefix the
/// exact metrics are read from — in the settled stretches of the day:
/// mid-day (supply exceeds demand everywhere: the extreme market) and
/// morning/late afternoon (the general market), not in the hours
/// between, where the split between the two moves with the seed.
pub fn schedule(k: usize) -> usize {
    CORE.start + (35 + k * 49) % CORE.len()
}

#[cfg(test)]
mod tests {
    use super::*;
    use pem::market::{MarketEngine, MarketKind};

    #[test]
    fn schedule_is_a_permutation_of_the_core() {
        let mut seen: Vec<usize> = (0..CORE.len()).map(schedule).collect();
        assert_eq!(seen[..5], [45, 14, 63, 32, 81]);
        seen.sort_unstable();
        assert_eq!(seen, CORE.collect::<Vec<_>>());
        assert_eq!(schedule(CORE.len()), schedule(0), "wraps after the day");
    }

    #[test]
    fn schedule_prefixes_cover_the_day_evenly() {
        // Any 8 consecutive entries put a window in each quarter of the
        // trading day.
        for start in 0..CORE.len() {
            let mut quarters = [false; 4];
            for k in start..start + 8 {
                quarters[(schedule(k) - CORE.start) / 20] = true;
            }
            assert_eq!(quarters, [true; 4], "prefix at {start}");
        }
    }

    #[test]
    fn generator_is_deterministic_and_mostly_two_sided() {
        for seed in [2020, 7] {
            let a = day100(48, seed);
            let b = day100(48, seed);
            assert_eq!(a, b, "same seed, same populations");
            assert_eq!(a.len(), DAY_WINDOWS);
            let market = MarketEngine::new(BAND);
            let two_sided = a
                .iter()
                .filter(|pop| market.run_window(pop).kind != MarketKind::NoMarket)
                .count();
            assert!(two_sided >= 80, "seed {seed}: {two_sided} two-sided");
        }
        assert_ne!(day100(48, 2020), day100(48, 7));
    }

    #[test]
    fn workload_names_are_unique_and_resolvable() {
        for w in WORKLOADS {
            assert_eq!(Workload::by_name(w.name).map(|x| x.name), Some(w.name));
            w.grid_config(w.engine).validate().expect("valid grid");
            w.pem_config().validate(w.coalition).expect("valid pem");
        }
        assert!(Workload::by_name("nope").is_none());
    }
}
