//! `Topology::Tree` coverage: the f-ary aggregation tree must produce
//! **bit-identical** Protocol 3 results to the ring and the star at
//! every coalition size, and must respect its per-hop fan-in bound on
//! the wire — asserted through a counting wrapper over any `Transport`
//! (itself a demonstration that the trait composes).

use pem_core::block_on;
use pem_core::protocol3::{price, PricingOutcome, Topology};
use pem_core::{Coalition, Draws, KeyDirectory, PemConfig};
use pem_market::AgentWindow;
use pem_net::{Envelope, NetError, NetStats, PartyId, SimNetwork, Transport};
use proptest::prelude::*;

/// A transport decorator counting messages *received* per (party, label)
/// — the measurement the fan-in bound is stated over.
struct RecvCounting<T: Transport> {
    inner: T,
    received: Vec<u64>,
    label: &'static str,
}

impl<T: Transport> RecvCounting<T> {
    fn new(inner: T, label: &'static str) -> RecvCounting<T> {
        let parties = inner.party_count();
        RecvCounting {
            inner,
            received: vec![0; parties],
            label,
        }
    }

    fn observe(&mut self, env: &Envelope) {
        if env.label == self.label {
            self.received[env.to.0] += 1;
        }
    }
}

impl<T: Transport> Transport for RecvCounting<T> {
    fn party_count(&self) -> usize {
        self.inner.party_count()
    }

    fn send(
        &mut self,
        from: PartyId,
        to: PartyId,
        label: &'static str,
        payload: Vec<u8>,
    ) -> Result<(), NetError> {
        self.inner.send(from, to, label, payload)
    }

    fn recv(&mut self, to: PartyId) -> Option<Envelope> {
        let env = self.inner.recv(to)?;
        self.observe(&env);
        Some(env)
    }

    fn recv_expect(&mut self, to: PartyId, label: &'static str) -> Result<Envelope, NetError> {
        let env = self.inner.recv_expect(to, label)?;
        self.observe(&env);
        Ok(env)
    }

    fn stats(&self) -> NetStats {
        self.inner.stats()
    }

    fn now_us(&self) -> u64 {
        self.inner.now_us()
    }

    fn pending(&self) -> usize {
        self.inner.pending()
    }
}

/// A `fast_test` market under `seed` of `n_sellers` sellers and two
/// buyers: its configuration, keys and window data.
fn market(n_sellers: usize, seed: u64) -> (PemConfig, KeyDirectory, Vec<AgentWindow>) {
    let mut cfg = PemConfig::fast_test();
    cfg.seed = seed;
    let n = n_sellers + 2; // plus two buyers
    let keys = KeyDirectory::generate(n, cfg.key_bits, cfg.seed).expect("keys");
    let data = (0..n)
        .map(|i| {
            if i < n_sellers {
                let generation = 2.0 + (i % 7) as f64 * 0.75;
                AgentWindow::new(i, generation, 0.5, 0.0, 0.9, 18.0 + (i % 11) as f64)
            } else {
                AgentWindow::new(i, 0.0, 40.0 + n_sellers as f64 * 4.0, 0.0, 0.9, 25.0)
            }
        })
        .collect();
    (cfg, keys, data)
}

/// The market's coalition with every fold in `topology`, under one
/// attempt's draws in every topology: the aggregates do not depend on
/// the randomizers, so the outcomes must be bit-identical.
fn coalition<'a>(
    cfg: &'a PemConfig,
    keys: &'a KeyDirectory,
    data: &[AgentWindow],
) -> Coalition<'a> {
    let c = Coalition::new(cfg, keys, Draws::new(7, 0, 0), data).expect("coalition");
    assert_eq!(
        c.sellers.len(),
        data.len() - 2,
        "every seller must be on-market"
    );
    c
}

fn price_with(
    topology: Topology,
    (cfg, keys, data): &(PemConfig, KeyDirectory, Vec<AgentWindow>),
) -> (PricingOutcome, NetStats) {
    let cfg = cfg.clone().with_topology(topology);
    let mut net = SimNetwork::new(data.len());
    let out = block_on(price(&mut net, &coalition(&cfg, keys, data))).expect("pricing");
    assert_eq!(net.pending(), 0, "all messages consumed");
    (out, net.stats().clone())
}

#[test]
fn tree_matches_ring_and_star_bit_for_bit() {
    // The ISSUE's sweep: n ∈ {2, 3, 17, 64}, plus the degenerate 1.
    for n_sellers in [1usize, 2, 3, 17, 64] {
        let market = market(n_sellers, 2020);
        let (ring, ring_stats) = price_with(Topology::Ring, &market);
        for fanin in [2usize, 3, 8] {
            let (tree, tree_stats) = price_with(Topology::Tree { fanin }, &market);
            assert_eq!(
                ring.price.to_bits(),
                tree.price.to_bits(),
                "price at n={n_sellers} fanin={fanin}"
            );
            assert_eq!(ring.k_sum.to_bits(), tree.k_sum.to_bits());
            assert_eq!(
                ring.denominator_sum.to_bits(),
                tree.denominator_sum.to_bits()
            );
            assert_eq!(ring.hb, tree.hb, "same decryptor draw");
            // Same message count: every seller sends exactly once.
            assert_eq!(
                ring_stats.per_label["price/agg"].messages,
                tree_stats.per_label["price/agg"].messages
            );
        }
        let (star, _) = price_with(Topology::Star, &market);
        assert_eq!(ring.price.to_bits(), star.price.to_bits());
    }
}

#[test]
fn tree_respects_the_fanin_bound_at_every_hop() {
    for n_sellers in [2usize, 3, 17, 64] {
        for fanin in [2usize, 3, 4] {
            let (cfg, keys, data) = market(n_sellers, 99);
            let cfg = cfg.with_topology(Topology::Tree { fanin });
            let c = coalition(&cfg, &keys, &data);
            let mut net = RecvCounting::new(SimNetwork::new(data.len()), "price/agg");
            let out = block_on(price(&mut net, &c)).expect("pricing");
            for &s in &c.sellers {
                assert!(
                    net.received[s] <= fanin as u64,
                    "seller {s} received {} aggregation messages \
                     (fan-in bound {fanin}, n={n_sellers})",
                    net.received[s]
                );
            }
            // The decryptor hears exactly one message: the root's.
            assert_eq!(net.received[out.hb], 1, "H_b fan-in is the root hand-off");
            // Every seller sent exactly once (no hidden extra traffic).
            assert_eq!(
                Transport::stats(&net).per_label["price/agg"].messages,
                c.sellers.len() as u64
            );
        }
    }
}

#[test]
fn tree_critical_path_is_logarithmic() {
    use pem_net::LatencyModel;
    // At 64 sellers a binary tree is ~6 levels deep vs 64 sequential
    // ring hops: on the LAN model the measured critical path of the
    // aggregation must be several times shorter.
    let (cfg, keys, data) = market(64, 5);
    let run = |topology: Topology| -> u64 {
        let cfg = cfg.clone().with_topology(topology);
        let mut net = SimNetwork::with_latency(data.len(), LatencyModel::lan());
        block_on(price(&mut net, &coalition(&cfg, &keys, &data))).expect("pricing");
        net.now_us()
    };
    let ring = run(Topology::Ring);
    let tree = run(Topology::tree());
    assert!(
        tree * 4 < ring,
        "tree critical path {tree}µs must be well under ring {ring}µs at n=64"
    );
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(8))]

    /// Random coalition sizes, seeds and fan-ins: the tree must always
    /// reproduce the ring bit-for-bit and stay within the fan-in bound.
    #[test]
    fn tree_equals_ring_for_random_markets(
        n_sellers in 1usize..20,
        fanin in 2usize..6,
        seed in 0u64..1000,
    ) {
        let market = market(n_sellers, seed);
        let (ring, _) = price_with(Topology::Ring, &market);
        let (tree, _) = price_with(Topology::Tree { fanin }, &market);
        prop_assert_eq!(ring.price.to_bits(), tree.price.to_bits());
        prop_assert_eq!(ring.k_sum.to_bits(), tree.k_sum.to_bits());
        prop_assert_eq!(
            ring.denominator_sum.to_bits(),
            tree.denominator_sum.to_bits()
        );
    }
}

#[test]
fn every_shape_runs_the_ring_window_bit_for_bit() {
    // Protocols 2, 3 and 4 all fold on `cfg.topology`. A shape moves only
    // which party multiplies which ciphertexts, never a plaintext, a
    // decryptor or a draw: every window must be the ring's, bit for bit,
    // with the same messages under every label.
    use pem_core::{Pem, PemWindowOutcome};
    use pem_market::MarketKind;
    let window = |surpluses: &[f64]| -> Vec<AgentWindow> {
        (surpluses.iter().enumerate())
            .map(|(i, &s)| {
                let pref = 18.0 + (i % 5) as f64;
                if s >= 0.0 {
                    AgentWindow::new(i, s + 0.5, 0.5, 0.0, 0.9, pref)
                } else {
                    AgentWindow::new(i, 0.0, -s, 0.0, 0.9, pref)
                }
            })
            .collect()
    };
    let general = window(&[1.0, 0.5, 2.0, 1.5, -3.0, -2.5, -4.0, -1.0, -2.0, -3.5, -0.5]);
    let extreme = window(&[4.0, 3.0, 5.0, 2.5, 3.5, 6.0, 1.5, -1.0, -2.0, -0.5]);
    for (pop, kind) in [
        (general, MarketKind::General),
        (extreme, MarketKind::Extreme),
    ] {
        let run = |topology: Topology| -> PemWindowOutcome {
            let cfg = PemConfig::fast_test().with_topology(topology);
            Pem::new(cfg, pop.len())
                .expect("setup")
                .run_window(&pop)
                .expect("window")
        };
        let ring = run(Topology::Ring);
        assert_eq!(ring.kind, kind);
        for topology in [
            Topology::Star,
            Topology::Tree { fanin: 2 },
            Topology::Tree { fanin: 3 },
        ] {
            let out = run(topology);
            let case = format!("{kind:?} market, {topology}");
            assert_eq!(out.kind, ring.kind, "{case}: kind");
            assert_eq!(out.price.to_bits(), ring.price.to_bits(), "{case}: price");
            assert_eq!(out.trades, ring.trades, "{case}: trades");
            assert_eq!(out.revealed, ring.revealed, "{case}: revealed");
            let messages = |o: &PemWindowOutcome| {
                (o.net.per_label.iter())
                    .map(|(label, t)| (label.clone(), t.messages))
                    .collect::<Vec<_>>()
            };
            assert_eq!(messages(&out), messages(&ring), "{case}: messages");
        }
    }
}
