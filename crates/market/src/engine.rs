//! The end-to-end plaintext market engine (the reference PEM computes
//! under encryption).

use serde::{Deserialize, Serialize};

use crate::agent::{AgentWindow, Role};
use crate::allocation::{allocate, Trade};
use crate::baseline::GridOnlyBaseline;
use crate::price::{optimal_price, PriceBand};

/// Market regime for a window (Protocol 2's output).
///
/// The discriminant is the regime's index everywhere one is needed:
/// `[general, extreme, no-market]` counts (`kind as usize`) and the
/// byte a fingerprint folds (`kind as u8`).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub enum MarketKind {
    /// `E_s < E_b`: buyers lead, price from the Stackelberg equilibrium.
    General = 0,
    /// `E_s ≥ E_b`: price pinned at the floor `p_l` (§III-C).
    Extreme = 1,
    /// One side is empty — no peer-to-peer market this window; everyone
    /// falls back to the grid.
    NoMarket = 2,
}

/// The two coalitions of one trading window.
#[derive(Debug, Clone, Default, PartialEq, Serialize, Deserialize)]
pub struct Coalitions {
    /// Agents with positive net energy.
    pub sellers: Vec<AgentWindow>,
    /// Agents with negative net energy.
    pub buyers: Vec<AgentWindow>,
    /// Agents with exactly zero net energy (off market).
    pub off_market: Vec<AgentWindow>,
}

impl Coalitions {
    /// Partitions a population by role (Protocol 1, line 4).
    pub fn form(agents: &[AgentWindow]) -> Coalitions {
        let mut c = Coalitions::default();
        for a in agents {
            match a.role() {
                Role::Seller => c.sellers.push(*a),
                Role::Buyer => c.buyers.push(*a),
                Role::OffMarket => c.off_market.push(*a),
            }
        }
        c
    }

    /// Market supply `E_s` (Eq. 2).
    pub fn supply(&self) -> f64 {
        self.sellers.iter().map(|s| s.net_energy()).sum()
    }

    /// Market demand `E_b` (Eq. 2).
    pub fn demand(&self) -> f64 {
        self.buyers.iter().map(|b| -b.net_energy()).sum()
    }

    /// Market regime per §III-C.
    pub fn kind(&self) -> MarketKind {
        if self.sellers.is_empty() || self.buyers.is_empty() {
            MarketKind::NoMarket
        } else if self.supply() < self.demand() {
            MarketKind::General
        } else {
            MarketKind::Extreme
        }
    }
}

/// Everything a single trading window produces.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct WindowOutcome {
    /// Market regime.
    pub kind: MarketKind,
    /// The trading price (¢/kWh). In `NoMarket` windows this reports the
    /// grid retail price — the price buyers actually pay, matching how
    /// Fig. 6(a) plots those windows at `ps_g`.
    pub price: f64,
    /// All pairwise trades.
    pub trades: Vec<Trade>,
    /// `E_s`.
    pub supply: f64,
    /// `E_b`.
    pub demand: f64,
    /// Seller / buyer coalition sizes (Fig. 4's series).
    pub seller_count: usize,
    /// Number of buyers.
    pub buyer_count: usize,
    /// Energy exchanged with the main grid under PEM (kWh): the residual
    /// the market could not match internally.
    pub grid_interaction: f64,
    /// Buyer-coalition total cost Γ under PEM (cents).
    pub buyer_coalition_cost: f64,
    /// The grid-only baseline for the same window.
    pub baseline: GridOnlyBaseline,
}

impl WindowOutcome {
    /// Coalition-level saving vs the baseline (cents).
    pub fn buyer_saving(&self) -> f64 {
        self.baseline.buyer_cost - self.buyer_coalition_cost
    }
}

/// Runs complete trading windows in the clear.
#[derive(Debug, Clone)]
pub struct MarketEngine {
    band: PriceBand,
}

impl MarketEngine {
    /// Creates an engine with the given price structure.
    pub fn new(band: PriceBand) -> MarketEngine {
        MarketEngine { band }
    }

    /// The configured price band.
    pub fn band(&self) -> &PriceBand {
        &self.band
    }

    /// Executes one trading window: coalition formation, market
    /// evaluation, pricing, allocation, and bookkeeping of every quantity
    /// the paper's Fig. 4/6 plots.
    pub fn run_window(&self, agents: &[AgentWindow]) -> WindowOutcome {
        let coalitions = Coalitions::form(agents);
        let supply = coalitions.supply();
        let demand = coalitions.demand();
        let kind = coalitions.kind();
        let baseline = GridOnlyBaseline::evaluate(agents, &self.band);

        let price = match kind {
            MarketKind::General => optimal_price(&coalitions.sellers, &self.band),
            MarketKind::Extreme => self.band.floor,
            MarketKind::NoMarket => self.band.grid_retail,
        };

        let trades = match kind {
            MarketKind::NoMarket => Vec::new(),
            _ => allocate(&coalitions.sellers, &coalitions.buyers, price),
        };

        let traded: f64 = trades.iter().map(|t| t.energy).sum();
        // Whatever the market could not absorb crosses the grid boundary:
        // unmet demand (general) or unsold supply (extreme).
        let grid_interaction = (supply - traded) + (demand - traded);

        let buyer_coalition_cost = match kind {
            MarketKind::General => price * supply + self.band.grid_retail * (demand - supply),
            MarketKind::Extreme => price * demand,
            MarketKind::NoMarket => self.band.grid_retail * demand,
        };

        WindowOutcome {
            kind,
            price,
            trades,
            supply,
            demand,
            seller_count: coalitions.sellers.len(),
            buyer_count: coalitions.buyers.len(),
            grid_interaction,
            buyer_coalition_cost,
            baseline,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn engine() -> MarketEngine {
        MarketEngine::new(PriceBand::paper_defaults())
    }

    fn seller(id: usize, surplus: f64, k: f64) -> AgentWindow {
        AgentWindow::new(id, surplus + 1.0, 1.0, 0.0, 0.9, k)
    }

    fn buyer(id: usize, deficit: f64) -> AgentWindow {
        AgentWindow::new(id, 0.0, deficit, 0.0, 0.9, 20.0)
    }

    #[test]
    fn general_market_window() {
        let agents = vec![seller(0, 2.0, 20.0), buyer(1, 3.0), buyer(2, 4.0)];
        let o = engine().run_window(&agents);
        assert_eq!(o.kind, MarketKind::General);
        assert_eq!((o.seller_count, o.buyer_count), (1, 2));
        assert!((o.supply - 2.0).abs() < 1e-9);
        assert!((o.demand - 7.0).abs() < 1e-9);
        assert!(o.price >= 90.0 && o.price <= 110.0);
        // Unmet demand 5 kWh flows from the grid.
        assert!((o.grid_interaction - 5.0).abs() < 1e-9);
        // PEM strictly beats the baseline for the buyer coalition.
        assert!(o.buyer_saving() > 0.0);
    }

    #[test]
    fn extreme_market_window() {
        let agents = vec![seller(0, 5.0, 20.0), seller(1, 5.0, 20.0), buyer(2, 4.0)];
        let o = engine().run_window(&agents);
        assert_eq!(o.kind, MarketKind::Extreme);
        assert_eq!(o.price, 90.0);
        // Unsold supply 6 kWh flows to the grid.
        assert!((o.grid_interaction - 6.0).abs() < 1e-9);
        assert!((o.buyer_coalition_cost - 90.0 * 4.0).abs() < 1e-9);
    }

    #[test]
    fn no_market_window() {
        let only_buyers = vec![buyer(0, 1.0), buyer(1, 2.0)];
        let o = engine().run_window(&only_buyers);
        assert_eq!(o.kind, MarketKind::NoMarket);
        assert_eq!(o.price, 120.0);
        assert!(o.trades.is_empty());
        assert!((o.buyer_coalition_cost - 360.0).abs() < 1e-9);
        assert!((o.grid_interaction - 3.0).abs() < 1e-9);
        assert_eq!(o.buyer_saving(), 0.0);
    }

    #[test]
    fn grid_interaction_always_below_baseline() {
        let agents = vec![
            seller(0, 3.0, 25.0),
            seller(1, 1.0, 35.0),
            buyer(2, 2.5),
            buyer(3, 3.5),
        ];
        let o = engine().run_window(&agents);
        assert!(
            o.grid_interaction <= o.baseline.grid_interaction + 1e-9,
            "PEM must reduce grid interaction (Fig. 6d)"
        );
    }

    #[test]
    fn coalition_partition_is_total() {
        let agents = vec![
            seller(0, 1.0, 20.0),
            buyer(1, 1.0),
            AgentWindow::new(2, 2.0, 2.0, 0.0, 0.9, 20.0),
        ];
        let c = Coalitions::form(&agents);
        assert_eq!(
            c.sellers.len() + c.buyers.len() + c.off_market.len(),
            agents.len()
        );
        assert_eq!(c.off_market.len(), 1);
    }

    #[test]
    fn window_outcome_serializes() {
        let agents = vec![seller(0, 2.0, 20.0), buyer(1, 3.0)];
        let o = engine().run_window(&agents);
        // Round-trip through the serde data model (field-level sanity).
        let cloned = o.clone();
        assert_eq!(o, cloned);
    }
}
