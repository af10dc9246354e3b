//! A uniform-price double auction — the mechanism-design baseline.
//!
//! The paper's related work contrasts game-theoretic pricing with
//! auction-based markets (e.g. its reference 34, a double auction for
//! divisible resources). This module implements a textbook uniform-price
//! double auction over divisible energy so the Stackelberg mechanism can
//! be compared against it on identical populations (see the `repro`
//! bench binary's `mechanism` section).
//!
//! Bidding model used for the comparison: a buyer's outside option is the
//! grid retail price, so it bids `ps_g`; a seller's outside option is the
//! feed-in tariff plus its marginal self-consumption utility
//! `∂U/∂l = k/(1 + l + εb)` (Eq. 4), so it asks
//! `max(pb_g, min(k/(1+l+εb), ps_g))`.

use serde::{Deserialize, Serialize};

use crate::agent::{AgentId, AgentWindow, Role};
use crate::allocation::Trade;
use crate::price::PriceBand;

/// A limit order for divisible energy.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct Order {
    /// The agent behind the order.
    pub agent: AgentId,
    /// Quantity offered/requested (kWh, positive).
    pub quantity: f64,
    /// Limit price (¢/kWh): minimum for asks, maximum for bids.
    pub limit: f64,
}

/// Result of clearing a double auction.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct AuctionOutcome {
    /// Uniform clearing price (¢/kWh); `None` when no orders cross.
    pub price: Option<f64>,
    /// Total energy matched (kWh).
    pub traded: f64,
    /// Pairwise fills in matching order.
    pub trades: Vec<Trade>,
}

/// Clears a uniform-price double auction over divisible quantities.
///
/// Asks are served cheapest-first, bids richest-first; matching stops at
/// the marginal pair, and the clearing price is the midpoint of the
/// marginal ask/bid limits (the `k = ½` rule).
pub fn double_auction(mut asks: Vec<Order>, mut bids: Vec<Order>) -> AuctionOutcome {
    asks.retain(|o| o.quantity > 0.0);
    bids.retain(|o| o.quantity > 0.0);
    asks.sort_by(|a, b| a.limit.total_cmp(&b.limit).then(a.agent.cmp(&b.agent)));
    bids.sort_by(|a, b| b.limit.total_cmp(&a.limit).then(a.agent.cmp(&b.agent)));

    // Walk the two books, matching while the price cross holds.
    let mut trades_raw: Vec<(AgentId, AgentId, f64)> = Vec::new();
    let mut marginal: Option<(f64, f64)> = None;
    let (mut ai, mut bi) = (0usize, 0usize);
    let mut ask_left = asks.first().map(|o| o.quantity).unwrap_or(0.0);
    let mut bid_left = bids.first().map(|o| o.quantity).unwrap_or(0.0);
    while ai < asks.len() && bi < bids.len() {
        let ask = &asks[ai];
        let bid = &bids[bi];
        if ask.limit > bid.limit {
            break; // books no longer cross
        }
        let fill = ask_left.min(bid_left);
        if fill > 0.0 {
            trades_raw.push((ask.agent, bid.agent, fill));
            marginal = Some((ask.limit, bid.limit));
        }
        ask_left -= fill;
        bid_left -= fill;
        if ask_left <= 1e-12 {
            ai += 1;
            ask_left = asks.get(ai).map(|o| o.quantity).unwrap_or(0.0);
        }
        if bid_left <= 1e-12 {
            bi += 1;
            bid_left = bids.get(bi).map(|o| o.quantity).unwrap_or(0.0);
        }
    }

    let Some((m_ask, m_bid)) = marginal else {
        return AuctionOutcome {
            price: None,
            traded: 0.0,
            trades: Vec::new(),
        };
    };
    let price = (m_ask + m_bid) / 2.0;
    let trades: Vec<Trade> = trades_raw
        .into_iter()
        .map(|(seller, buyer, energy)| Trade {
            seller,
            buyer,
            energy,
            payment: price * energy,
        })
        .collect();
    let traded = trades.iter().map(|t| t.energy).sum();
    AuctionOutcome {
        price: Some(price),
        traded,
        trades,
    }
}

/// Derives the comparison bidding model from a window's population.
pub fn orders_from_agents(agents: &[AgentWindow], band: &PriceBand) -> (Vec<Order>, Vec<Order>) {
    let mut asks = Vec::new();
    let mut bids = Vec::new();
    for a in agents {
        match a.role() {
            Role::Seller => {
                let marginal_utility =
                    a.preference / (1.0 + a.load + a.battery_loss * a.battery).max(1e-9);
                let limit = marginal_utility.clamp(band.grid_feed_in, band.grid_retail);
                asks.push(Order {
                    agent: a.id,
                    quantity: a.net_energy(),
                    limit,
                });
            }
            Role::Buyer => bids.push(Order {
                agent: a.id,
                quantity: -a.net_energy(),
                limit: band.grid_retail,
            }),
            Role::OffMarket => {}
        }
    }
    (asks, bids)
}

/// Clears one window's population through the double auction.
pub fn auction_window(agents: &[AgentWindow], band: &PriceBand) -> AuctionOutcome {
    let (asks, bids) = orders_from_agents(agents, band);
    double_auction(asks, bids)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn ask(id: usize, q: f64, p: f64) -> Order {
        Order {
            agent: AgentId(id),
            quantity: q,
            limit: p,
        }
    }

    fn bid(id: usize, q: f64, p: f64) -> Order {
        ask(id, q, p)
    }

    #[test]
    fn simple_cross_clears_at_midpoint() {
        let out = double_auction(vec![ask(0, 2.0, 80.0)], vec![bid(1, 2.0, 120.0)]);
        assert_eq!(out.price, Some(100.0));
        assert!((out.traded - 2.0).abs() < 1e-12);
        assert_eq!(out.trades.len(), 1);
        assert!((out.trades[0].payment - 200.0).abs() < 1e-9);
    }

    #[test]
    fn no_cross_means_no_trade() {
        let out = double_auction(vec![ask(0, 2.0, 110.0)], vec![bid(1, 2.0, 90.0)]);
        assert_eq!(out.price, None);
        assert!(out.trades.is_empty());
    }

    #[test]
    fn cheapest_asks_fill_first() {
        let out = double_auction(
            vec![ask(0, 1.0, 100.0), ask(1, 1.0, 85.0)],
            vec![bid(2, 1.5, 120.0)],
        );
        // Agent 1 (85) fills fully, agent 0 (100) fills the remaining 0.5.
        assert_eq!(out.trades[0].seller, AgentId(1));
        assert!((out.trades[0].energy - 1.0).abs() < 1e-12);
        assert_eq!(out.trades[1].seller, AgentId(0));
        assert!((out.trades[1].energy - 0.5).abs() < 1e-12);
        // Marginal pair is (100, 120) → price 110.
        assert_eq!(out.price, Some(110.0));
    }

    #[test]
    fn partial_cross_stops_at_margin() {
        // The 115-ask never crosses the 110-bid: only the 90-ask trades.
        let out = double_auction(
            vec![ask(0, 1.0, 90.0), ask(1, 5.0, 115.0)],
            vec![bid(2, 3.0, 110.0)],
        );
        assert!((out.traded - 1.0).abs() < 1e-12);
        assert_eq!(out.price, Some(100.0)); // midpoint of (90, 110)
    }

    #[test]
    fn conservation_and_bounds() {
        let asks: Vec<Order> = (0..4)
            .map(|i| ask(i, 1.0 + i as f64 * 0.5, 82.0 + i as f64 * 5.0))
            .collect();
        let bids: Vec<Order> = (4..7)
            .map(|i| bid(i, 2.0, 118.0 - (i - 4) as f64 * 4.0))
            .collect();
        let out = double_auction(asks.clone(), bids.clone());
        let price = out.price.expect("books cross");
        // Price between best ask and best bid.
        assert!((82.0..=118.0).contains(&price));
        // No seller oversells, no buyer overbuys.
        for o in &asks {
            let sold: f64 = out
                .trades
                .iter()
                .filter(|t| t.seller == o.agent)
                .map(|t| t.energy)
                .sum();
            assert!(sold <= o.quantity + 1e-9);
        }
        for o in &bids {
            let bought: f64 = out
                .trades
                .iter()
                .filter(|t| t.buyer == o.agent)
                .map(|t| t.energy)
                .sum();
            assert!(bought <= o.quantity + 1e-9);
        }
    }

    #[test]
    fn population_bidding_model() {
        let band = PriceBand::paper_defaults();
        let agents = vec![
            AgentWindow::new(0, 5.0, 1.0, 0.0, 0.9, 30.0), // seller, mu = 15 → ask 80
            AgentWindow::new(1, 0.0, 3.0, 0.0, 0.9, 25.0), // buyer, bid 120
        ];
        let (asks, bids) = orders_from_agents(&agents, &band);
        assert_eq!(asks.len(), 1);
        assert_eq!(bids.len(), 1);
        assert_eq!(asks[0].limit, 80.0); // k/(1+l) = 15 clamps to feed-in
        assert_eq!(bids[0].limit, 120.0);
        let out = auction_window(&agents, &band);
        assert_eq!(out.price, Some(100.0));
    }

    #[test]
    fn zero_quantity_orders_ignored() {
        let out = double_auction(
            vec![ask(0, 0.0, 80.0), ask(1, 1.0, 85.0)],
            vec![bid(2, 1.0, 120.0)],
        );
        assert_eq!(out.trades.len(), 1);
        assert_eq!(out.trades[0].seller, AgentId(1));
    }
}
