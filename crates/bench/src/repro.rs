//! The paper's evaluation (§VII), section by section: the experiment
//! index. The `repro` bin runs the sections `--figure` names (one name
//! below, the group `fig5` or `fig6`, or `all`, the default) and prints
//! each as a `## <section>` header and a CSV block on stdout, then the
//! *shape* the paper reports as `# shape:` lines on stderr. A usage error
//! exits 2.
//!
//! | section | paper | flags (default) | CI size |
//! |---|---|---|---|
//! | `fig4` | Fig. 4, coalition sizes per window | `--homes` (300), `--windows` (720) | `--homes 30 --windows 20` |
//! | `fig5a` | Fig. 5(a), mean runtime per window as windows accrue, per population, at the largest key | `--agents`, `--keys`, `--sample` | `--sample 4 --agents 10,20` |
//! | `fig5b` | Fig. 5(b), total runtime against windows, per key, at the middle population | as `fig5a` | as `fig5a` |
//! | `fig5c` | Fig. 5(c), projected 720-window runtime per population and key | as `fig5a` | as `fig5a` |
//! | `fig6a` | Fig. 6(a), price against the grid prices and the band | `--homes` (200), `--windows` (720) | `--homes 60 --windows 120` |
//! | `fig6b` | Fig. 6(b), utility of two sellers (`k` = 20, 40) with and without PEM | as `fig6a` | as `fig6a` |
//! | `fig6c` | Fig. 6(c), buyer-coalition cost at 100 and 200 homes | `--windows` (720) | as `fig6a` |
//! | `fig6d` | Fig. 6(d), energy exchanged with the grid | as `fig6a` | as `fig6a` |
//! | `table1` | Table I, mean per-window traffic (MB) per key | `--homes` (24), `--keys`, `--sample` (10) | `--sample 4` |
//! | `mechanism` | ablation: the Stackelberg band against a uniform-price double auction | `--homes` (100), `--windows` (720) | `--homes 30 --windows 40` |
//!
//! Every section takes `--seed` (2020). Fig. 5 and Table I share one
//! crypto profile: keys of 128/192/256 bits on the 192-bit OT test group,
//! 10/20/30 homes and 16 sampled windows; `--paper` selects the paper's
//! 512/1024/2048-bit keys on edwards25519, 100/200/300 homes and all 720
//! windows (Table I: 200 homes, 48 windows), which takes hours of CPU.
//!
//! Each trace of an invocation is generated and cleared through
//! [`MarketEngine::run_window`] once; Fig. 4, Fig. 6 and the ablation read
//! those outcomes, as the encrypted protocols reach the same prices and
//! allocations (`pem-core`'s integration tests).

use std::collections::BTreeMap;
use std::fmt::Display;
use std::rc::Rc;

use pem_core::{OtProfile, Pem, PemConfig};
use pem_data::{SolarModel, Trace, TraceConfig, TraceGenerator};
use pem_market::{auction_window, baseline_seller_utility, seller_utility};
use pem_market::{AgentWindow, MarketEngine, MarketKind, PriceBand, WindowOutcome};

use crate::{fmt_f, sample_windows, Args};

/// The paper's trading day: 720 one-minute windows.
const DAY: usize = 720;

/// A section of the evaluation: its `--figure` name and what runs it.
type Section = (&'static str, fn(&mut Repro) -> Block);

/// Every section, in the order `all` runs them.
const SECTIONS: [Section; 10] = [
    ("fig4", Repro::fig4),
    ("fig5a", Repro::fig5a),
    ("fig5b", Repro::fig5b),
    ("fig5c", Repro::fig5c),
    ("fig6a", Repro::fig6a),
    ("fig6b", Repro::fig6b),
    ("fig6c", Repro::fig6c),
    ("fig6d", Repro::fig6d),
    ("table1", Repro::table1),
    ("mechanism", Repro::mechanism),
];

/// One section's output: its `## ` header, its CSV lines (column names
/// first) and its `# shape:` lines.
struct Block {
    header: String,
    csv: Vec<String>,
    shape: Vec<String>,
}

impl Block {
    fn new(header: impl Into<String>, columns: impl Into<String>) -> Block {
        let (header, csv, shape) = (header.into(), vec![columns.into()], Vec::new());
        Block { header, csv, shape }
    }

    /// Appends a CSV row: `label`, then each value as [`fmt_f`] prints it.
    fn row(&mut self, label: impl Display, values: impl IntoIterator<Item = f64>) {
        let line = label.to_string();
        let line = values.into_iter().fold(line, |l, v| l + "," + &fmt_f(v));
        self.csv.push(line);
    }

    fn print(&self) {
        println!("## {}", self.header);
        self.csv.iter().for_each(|line| println!("{line}"));
        self.shape.iter().for_each(|l| eprintln!("# shape: {l}"));
    }
}

/// `first`, then `prefix` and each of `over`: a CSV header line.
fn columns(first: &str, prefix: &str, over: &[usize]) -> String {
    let line = first.to_string();
    over.iter().fold(line, |l, x| format!("{l},{prefix}{x}"))
}

/// `minute` of the day as `HH:MM`.
fn clock(minute: u32) -> String {
    format!("{:02}:{:02}", minute / 60, minute % 60)
}

/// A trace and its market pass: each window's outcome beside the energy
/// its trades moved (kWh). `trades` itself is emptied, since a 300-home
/// window holds ~22,500 of them.
struct Day {
    trace: Trace,
    windows: Vec<(WindowOutcome, f64)>,
}

impl Day {
    /// The windows with both sellers and buyers, in order. A one-sided
    /// window runs no protocol and sends nothing, so Fig. 5 and Table I
    /// sample only these.
    fn two_sided(&self) -> Vec<usize> {
        (self.windows.iter().enumerate())
            .filter(|(_, (o, _))| o.seller_count > 0 && o.buyer_count > 0)
            .map(|(w, _)| w)
            .collect()
    }
}

/// One invocation: its flags and every [`Day`] it has built.
struct Repro {
    args: Args,
    seed: u64,
    days: BTreeMap<(usize, usize), Rc<Day>>,
}

impl Repro {
    /// Reads the flags and the sections `--figure` selects; a usage error
    /// is an unknown `--figure` or a Fig. 4 day that is empty or runs past
    /// 24:00.
    fn new(args: Args) -> Result<(Repro, Vec<Section>), String> {
        let figure = args.get_str("figure", "all");
        let picks = |(s, _): &Section| {
            figure == "all" || *s == figure || s.strip_suffix(['a', 'b', 'c', 'd']) == Some(&figure)
        };
        let sections: Vec<Section> = SECTIONS.into_iter().filter(picks).collect();
        if sections.is_empty() {
            return Err(format!("unknown --figure {figure:?}"));
        }
        let day = TraceConfig::default();
        let fit = ((24 * 60 - day.start_minute) / day.window_minutes) as usize;
        let windows = args.get_usize("windows", DAY);
        if sections.iter().any(|s| s.0 == "fig4") && !(1..=fit).contains(&windows) {
            let span = format!("the windows from {} to 24:00", clock(day.start_minute));
            let err = format!("fig4: --windows {windows} is outside 1..={fit}, {span}");
            return Err(err);
        }
        let (seed, days) = (args.get_u64("seed", 2020), BTreeMap::new());
        Ok((Repro { args, seed, days }, sections))
    }

    /// `paper` under `--paper`, else `toy`.
    fn pick<T>(&self, paper: T, toy: T) -> T {
        if self.args.get_flag("paper") {
            paper
        } else {
            toy
        }
    }

    /// The crypto profile's `--keys` and `--agents`.
    fn sizes(&self) -> (Vec<usize>, Vec<usize>) {
        let keys = self.pick([512, 1024, 2048], [128, 192, 256]);
        let agents = self.pick([100, 200, 300], [10, 20, 30]);
        let list = |name, default: [usize; 3]| self.args.get_usize_list(name, &default);
        (list("keys", keys), list("agents", agents))
    }

    /// The `homes` × `windows` day at this invocation's seed, built on
    /// first use.
    fn day(&mut self, homes: usize, windows: usize) -> Rc<Day> {
        let (seed, engine) = (self.seed, MarketEngine::new(PriceBand::paper_defaults()));
        let day = self.days.entry((homes, windows)).or_insert_with(|| {
            let config = TraceConfig {
                homes,
                windows,
                seed,
                ..TraceConfig::default()
            };
            let trace = TraceGenerator::new(config).generate();
            let clear = |w| {
                let mut outcome = engine.run_window(&trace.window_agents(w));
                let traded = outcome.trades.drain(..).map(|t| t.energy).sum();
                (outcome, traded)
            };
            let windows = (0..windows).map(clear).collect();
            Rc::new(Day { trace, windows })
        });
        Rc::clone(day)
    }

    /// A market section's day: `--homes` (else `homes`) × `--windows`.
    fn market_day(&mut self, homes: usize) -> (usize, Rc<Day>) {
        let homes = self.args.get_usize("homes", homes);
        (homes, self.day(homes, self.args.get_usize("windows", DAY)))
    }

    fn fig4(&mut self) -> Block {
        let (_, day) = self.market_day(300);
        let at = |w: usize| {
            let o = &day.windows[w].0;
            (day.trace.window_minute(w), o.seller_count, o.buyer_count)
        };
        let mut out = Block::new("fig4", "window,minute_of_day,sellers,buyers");
        let n = day.windows.len();
        for w in 0..n {
            let (minute, sellers, buyers) = at(w);
            out.csv.push(format!("{w},{minute},{sellers},{buyers}"));
        }
        for w in [0, n / 2, n - 1] {
            let (minute, sellers, buyers) = at(w);
            let line = format!("{} sellers/buyers = {sellers}/{buyers}", clock(minute));
            out.shape.push(line);
        }
        let peak = day.windows.iter().map(|(o, _)| o.seller_count).max();
        let line = format!("peak seller coalition = {}", peak.unwrap_or(0));
        out.shape.push(line);
        out
    }

    /// The Fig. 5 and Table I profile at `key_bits`.
    fn config(&self, key_bits: usize) -> PemConfig {
        let mut cfg = PemConfig::paper(key_bits);
        cfg.ot_profile = self.pick(OtProfile::Ed25519, OtProfile::Test192);
        cfg.seed = self.seed;
        cfg
    }

    /// Times an even sample of the two-sided windows of the `homes`-home
    /// day at `key_bits` (a one-sided window runs no protocol, so it
    /// would only dilute the per-window cost Fig. 5 reports): the running
    /// total after each sampled window (s).
    fn timed(&mut self, homes: usize, key_bits: usize) -> Vec<f64> {
        let day = self.day(homes, DAY);
        let mut pem = Pem::new(self.config(key_bits), homes).expect("pem setup");
        let windows = day.two_sided();
        assert!(!windows.is_empty(), "no two-sided window: raise --agents");
        let sample = self.args.get_usize("sample", self.pick(DAY, 16));
        let mut total = 0.0;
        let mut time = |i: usize| {
            let out = pem.run_window(&day.trace.window_agents(windows[i]));
            total += out.expect("window").metrics.total_elapsed().as_secs_f64();
            total
        };
        let picked = sample_windows(windows.len(), sample);
        picked.into_iter().map(&mut time).collect()
    }

    fn fig5a(&mut self) -> Block {
        let (keys, agents) = self.sizes();
        let key = *keys.last().expect("non-empty --keys");
        let totals: Vec<_> = agents.iter().map(|&n| self.timed(n, key)).collect();
        let columns = columns("windows_processed", "avg_runtime_s_n", &agents);
        let mut out = Block::new(format!("fig5a key_bits={key}"), columns);
        // A small population may have fewer two-sided windows to sample.
        let count = totals.iter().map(Vec::len).min().unwrap_or(0);
        for i in 0..count {
            let mut line = ((i + 1) * DAY / count).to_string();
            for t in &totals {
                line += &format!(",{:.6}", t[i] / (i + 1) as f64);
            }
            out.csv.push(line);
        }
        out
    }

    fn fig5b(&mut self) -> Block {
        let (keys, agents) = self.sizes();
        let n = agents[agents.len() / 2];
        let totals: Vec<_> = keys.iter().map(|&key| self.timed(n, key)).collect();
        let columns = columns("windows", "total_runtime_s_key", &keys);
        let mut out = Block::new(format!("fig5b agents={n}"), columns);
        let scale = DAY as f64 / totals[0].len() as f64; // extrapolate sampled → full day
        for i in 0..totals[0].len() {
            let label = ((i + 1) as f64 * scale) as usize;
            out.row(label, totals.iter().map(|t| t[i] * scale));
        }
        out
    }

    fn fig5c(&mut self) -> Block {
        let (keys, agents) = self.sizes();
        let columns = columns("agents", "runtime_720w_s_key", &keys);
        let mut out = Block::new("fig5c", columns);
        for n in agents {
            // The mean window, projected to a full-day total.
            let mut day_total = |key: &usize| {
                let totals = self.timed(n, *key);
                totals.last().unwrap_or(&0.0) / totals.len() as f64 * DAY as f64
            };
            out.row(n, keys.iter().map(&mut day_total));
        }
        out
    }

    fn fig6a(&mut self) -> Block {
        let (homes, day) = self.market_day(200);
        let b = PriceBand::paper_defaults();
        let columns = "window,price,grid_purchase,grid_retail,lower_bound,upper_bound";
        let mut out = Block::new(format!("fig6a_price homes={homes}"), columns);
        let (mut pinned_retail, mut at_floor) = (0, 0);
        for (w, (o, _)) in day.windows.iter().enumerate() {
            pinned_retail += usize::from(o.kind == MarketKind::NoMarket);
            at_floor += usize::from((o.price - b.floor).abs() < 1e-9);
            let prices = [o.price, b.grid_feed_in, b.grid_retail, b.floor, b.ceiling];
            out.row(w, prices);
        }
        out.shape.push(format!(
            "{pinned_retail} windows at retail (morning/evening), {at_floor} at the floor (midday)"
        ));
        out
    }

    fn fig6b(&mut self) -> Block {
        // Two tracked agents with the paper's k = 20 / 40 — microgrid-scale
        // rooftops (20 kW) with a steady 0.25 kWh window load, riding the
        // market price computed from the trace population. When an agent is a
        // net buyer (early morning / evening) it pays retail in both worlds,
        // so the curves coincide there and separate during selling hours.
        let (homes, day) = self.market_day(200);
        let band = PriceBand::paper_defaults();
        let columns = "window,k20_with_pem,k20_without_pem,k40_with_pem,k40_without_pem";
        let mut out = Block::new(format!("fig6b_utility homes={homes}"), columns);
        let n = day.windows.len() as f64;
        let (mut gains, mut means) = ([0.0f64; 2], [[0.0f64; 2]; 2]);
        for (w, (o, _)) in day.windows.iter().enumerate() {
            let minute = day.trace.window_minute(w) as f64;
            let sun = SolarModel::residential(20.0).clear_sky(minute);
            let gen = 20.0 * sun / 60.0 * day.trace.config.window_minutes as f64;
            let mut utilities = Vec::new();
            for (slot, k) in [20.0, 40.0].into_iter().enumerate() {
                let agent = AgentWindow::new(10_000 + slot, gen, 0.25, 0.0, 0.9, k);
                let selling = agent.net_energy() > 0.0 && o.kind != MarketKind::NoMarket;
                // With PEM a seller trades at the market price; without PEM it
                // feeds the grid at pb_g. In buyer windows both worlds buy at
                // retail, so the utility is evaluated at ps_g either way.
                let price = if selling { o.price } else { band.grid_retail };
                let u_pem = seller_utility(&agent, price);
                let baseline = baseline_seller_utility(&agent, &band);
                let u_nopem = if selling { baseline } else { u_pem };
                gains[slot] += u_pem - u_nopem;
                means[slot][0] += u_pem / n;
                means[slot][1] += u_nopem / n;
                utilities.extend([u_pem, u_nopem]);
            }
            out.row(w, utilities);
        }
        out.shape.push(format!(
            "mean utility k=20: {:.2} (PEM) vs {:.2} (grid); k=40: {:.2} vs {:.2}; \
             cumulative gains {:.1} / {:.1}",
            means[0][0], means[0][1], means[1][0], means[1][1], gains[0], gains[1]
        ));
        out
    }

    fn fig6c(&mut self) -> Block {
        let windows = self.args.get_usize("windows", DAY);
        let days = [100, 200].map(|n| (n, self.day(n, windows)));
        let columns = "window,cost_100_with_pem,cost_100_without_pem,\
                       cost_200_with_pem,cost_200_without_pem";
        let mut out = Block::new("fig6c_cost", columns);
        // Dollars, as in the paper's Fig. 6(c) axis.
        let costs = |o: &WindowOutcome| [o.buyer_coalition_cost, o.baseline.buyer_cost];
        for w in 0..windows {
            let outcomes = days.iter().map(|(_, day)| &day.windows[w].0);
            out.row(w, outcomes.flat_map(|o| costs(o).map(|c| c / 100.0)));
        }
        for (n, day) in &days {
            let (mut with, mut without) = (0.0, 0.0);
            for (o, _) in &day.windows {
                with += o.buyer_coalition_cost;
                without += o.baseline.buyer_cost;
            }
            let cut = (1.0 - with / without) * 100.0;
            let line = format!("n={n}: total cost reduced {cut:.1}% by PEM");
            out.shape.push(line);
        }
        out
    }

    fn fig6d(&mut self) -> Block {
        let (homes, day) = self.market_day(200);
        let columns = "window,with_pem_kwh,without_pem_kwh";
        let mut out = Block::new(format!("fig6d_grid homes={homes}"), columns);
        let (mut with, mut without) = (0.0, 0.0);
        for (w, (o, _)) in day.windows.iter().enumerate() {
            with += o.grid_interaction;
            without += o.baseline.grid_interaction;
            out.row(w, [o.grid_interaction, o.baseline.grid_interaction]);
        }
        let cut = (1.0 - with / without) * 100.0;
        out.shape.push(format!(
            "total grid interaction {with:.1} kWh with PEM vs {without:.1} kWh without ({cut:.1}% reduction)"
        ));
        out
    }

    /// Table I reports the mean over the first `m` windows; the
    /// per-window traffic is stationary, so every `m` column shows the
    /// same mean (the paper's rows are flat in `m` for the same reason).
    fn table1(&mut self) -> Block {
        const M: [usize; 8] = [300, 360, 420, 480, 540, 600, 660, 720];
        let (keys, _) = self.sizes();
        let homes = self.args.get_usize("homes", self.pick(200, 24));
        let day = self.day(homes, DAY);
        // An even sample of the day's two-sided windows, as Fig. 5 takes:
        // the market's composition moves through the morning, noon and
        // evening regimes, and a one-sided window sends nothing.
        let windows = day.two_sided();
        let picked = sample_windows(
            windows.len(),
            self.args.get_usize("sample", self.pick(48, 10)),
        );
        let sample: Vec<usize> = picked.into_iter().map(|i| windows[i]).collect();
        let header = format!("table1 average per-window bandwidth (MB), {homes} homes");
        let mut out = Block::new(header, columns("key \\ m", "", &M));
        if sample.is_empty() {
            let (n, day) = (windows.len(), format!("the {homes}-home day"));
            let line =
                format!("no two-sided window sampled ({n} in {day}): nothing sent, no ratio");
            out.shape.push(line);
            return out;
        }
        let mut mb = Vec::new();
        for key in &keys {
            let mut pem = Pem::new(self.config(*key), homes).expect("pem setup");
            let mut bytes = 0;
            for &w in &sample {
                let agents = day.trace.window_agents(w);
                bytes += pem.run_window(&agents).expect("window").net.total_bytes;
            }
            let per_window = bytes as f64 / sample.len() as f64 / 1e6;
            let row = format!(",{per_window:.6}").repeat(M.len());
            out.csv.push(format!("{key}-bit{row}"));
            let line = format!("{key}-bit → {per_window:.6} MB/window");
            out.shape.push(line);
            mb.push(per_window);
        }
        if let [first, .., last] = mb[..] {
            let line = format!("traffic ratio largest/smallest key = {:.2}x", last / first);
            out.shape.push(line);
        }
        out
    }

    /// The paper prices by a Stackelberg game rather than an auction
    /// (related work, ref. 34). The auction's midpoint floats *above*
    /// the band clamp — buyers bid retail, so it lands near
    /// `(ask + 120) / 2` — which makes the Stackelberg market cheaper
    /// for buyers; volume matches whenever both books cross, because
    /// supply is fully absorbed either way.
    fn mechanism(&mut self) -> Block {
        let (_, day) = self.market_day(100);
        let band = PriceBand::paper_defaults();
        let columns = "window,stackelberg_price,auction_price,stackelberg_kwh,auction_kwh";
        let mut out = Block::new("mechanism", columns);
        let (mut stk_spend, mut auc_spend, mut stk_vol, mut auc_vol) = (0.0, 0.0, 0.0, 0.0);
        for (w, (o, traded)) in day.windows.iter().enumerate() {
            if o.kind == MarketKind::NoMarket {
                continue;
            }
            let auction = auction_window(&day.trace.window_agents(w), &band);
            let a_price = auction.price.unwrap_or(f64::NAN);
            stk_vol += traded;
            auc_vol += auction.traded;
            stk_spend += o.price * traded;
            auc_spend += a_price * auction.traded;
            out.row(w, [o.price, a_price, *traded, auction.traded]);
        }
        let (stk_price, auc_price) = (stk_spend / stk_vol, auc_spend / auc_vol);
        let saving = (1.0 - stk_price / auc_price) * 100.0;
        out.shape = vec![
            format!("{} two-sided windows compared", out.csv.len() - 1),
            format!("mean price {stk_price:.2} (stackelberg) vs {auc_price:.2} (auction) ¢/kWh"),
            format!("volume {stk_vol:.1} kWh (stackelberg) vs {auc_vol:.1} kWh (auction)"),
            format!("buyers pay {saving:.1}% less under the Stackelberg band"),
        ];
        out
    }
}

/// Runs the sections the process arguments select.
pub fn main() {
    let (mut repro, sections) = Repro::new(Args::from_env()).unwrap_or_else(|e| {
        eprintln!("repro: {e}");
        std::process::exit(2)
    });
    for (name, run) in sections {
        eprintln!("# repro {name}");
        run(&mut repro).print();
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn repro(flags: &str) -> Result<(Repro, Vec<Section>), String> {
        Repro::new(Args::from_tokens(flags.split(' ').map(String::from)))
    }

    fn fig4_clocks(windows: usize) -> Vec<String> {
        let flags = format!("--figure fig4 --homes 30 --windows {windows}");
        let shape = repro(&flags).expect("a day that fits").0.fig4().shape;
        shape[..3].iter().map(|l| l[..5].to_string()).collect()
    }

    #[test]
    fn fig4_names_the_clock_time_of_each_quoted_window() {
        assert_eq!(fig4_clocks(20), ["07:00", "07:10", "07:19"]);
        assert_eq!(fig4_clocks(720), ["07:00", "13:00", "18:59"]);
    }

    #[test]
    fn figure_and_windows_are_checked() {
        for windows in [1440, 1021, 0] {
            let err = repro(&format!("--figure fig4 --windows {windows}")).err();
            assert!(err.expect("usage").contains("outside 1..=1020"));
        }
        assert!(repro("--figure fig4 --windows 1020").is_ok());
        // Only Fig. 4 quotes clock times.
        assert!(repro("--figure fig6 --windows 1440").is_ok());
        for bad in ["fig7", "fig", "fig4,fig6"] {
            assert!(repro(&format!("--figure {bad}")).is_err(), "{bad}");
        }
        let names = |figure: &str| -> Vec<&str> {
            let (_, sections) = repro(&format!("--figure {figure}")).expect(figure);
            sections.iter().map(|s| s.0).collect()
        };
        assert_eq!(names("all").len(), SECTIONS.len());
        assert_eq!(names("fig5"), ["fig5a", "fig5b", "fig5c"]);
        assert_eq!(names("fig6b"), ["fig6b"]);
    }

    #[test]
    fn table1_samples_two_sided_windows_and_says_when_there_are_none() {
        let flags = "--figure table1 --homes 12 --sample 3 --keys 128,192";
        let shape = repro(flags).expect("usage").0.table1().shape;
        assert!(shape.iter().all(|l| !l.contains("NaN")), "{shape:?}");
        assert!(!shape[0].contains(" 0.000000 MB"), "{shape:?}");
        let none = repro("--figure table1 --homes 1 --keys 128")
            .expect("usage")
            .0
            .table1();
        assert!(none.csv.len() == 1 && none.shape[0].starts_with("no two-sided window"));
    }

    #[test]
    fn each_trace_is_built_once_per_invocation() {
        let (mut r, sections) = repro("--homes 30 --windows 12").expect("usage");
        let market = sections
            .iter()
            .filter(|(s, _)| !s.starts_with("fig5") && *s != "table1");
        market.for_each(|(_, run)| drop(run(&mut r)));
        // 30 homes for Fig. 4, 6(a, b, d) and the ablation; 100 and 200 for 6(c).
        assert_eq!(r.days.len(), 3);
    }
}
