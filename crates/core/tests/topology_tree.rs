//! `Topology::Tree` coverage: the f-ary aggregation tree must produce
//! **bit-identical** Protocol 3 results to the ring and the star at
//! every coalition size, and must respect its per-hop fan-in bound on
//! the wire — asserted through a counting wrapper over any `Transport`
//! (itself a demonstration that the trait composes).

use pem_core::block_on;
use pem_core::protocol3::{price, PricingOutcome, Topology};
use pem_core::{AgentCtx, KeyDirectory, PemConfig, Quantizer, RandomizerStreams};
use pem_crypto::drbg::HashDrbg;
use pem_market::{AgentWindow, Role};
use pem_net::{Envelope, NetError, NetStats, PartyId, SimNetwork, Transport};
use proptest::prelude::*;
use rand::Rng;

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

#[allow(clippy::type_complexity)]
fn market(
    n_sellers: usize,
    seed: u64,
) -> (
    KeyDirectory,
    Vec<AgentCtx>,
    Vec<usize>,
    Vec<usize>,
    PemConfig,
) {
    let mut cfg = PemConfig::fast_test();
    cfg.seed = seed;
    let q = Quantizer::new();
    let n = n_sellers + 2; // plus two buyers
    let keys = KeyDirectory::generate(n, cfg.key_bits, cfg.seed).expect("keys");
    let mut rng = HashDrbg::from_seed_label(b"tree-test", seed);
    let mut agents = Vec::new();
    let mut sellers = Vec::new();
    let mut buyers = Vec::new();
    for i in 0..n {
        let data = if i < n_sellers {
            AgentWindow::new(
                i,
                2.0 + (i % 7) as f64 * 0.75,
                0.5,
                0.0,
                0.9,
                18.0 + (i % 11) as f64,
            )
        } else {
            AgentWindow::new(i, 0.0, 40.0 + n_sellers as f64 * 4.0, 0.0, 0.9, 25.0)
        };
        let ctx = AgentCtx::prepare(i, data, &q, rng.gen::<u64>() >> 24).expect("prepare");
        match ctx.role {
            Role::Seller => sellers.push(i),
            Role::Buyer => buyers.push(i),
            Role::OffMarket => {}
        }
        agents.push(ctx);
    }
    assert_eq!(sellers.len(), n_sellers, "every seller must be on-market");
    (keys, agents, sellers, buyers, cfg)
}

fn price_with(
    topology: Topology,
    keys: &KeyDirectory,
    agents: &[AgentCtx],
    sellers: &[usize],
    buyers: &[usize],
    cfg: &PemConfig,
) -> (PricingOutcome, NetStats) {
    let mut net = SimNetwork::new(agents.len());
    // A per-topology rng: the protocol draws the same number of values
    // from it in every topology, and the aggregates do not depend on the
    // randomizers, so the same seed must yield bit-identical outcomes.
    let mut rng = HashDrbg::from_seed_label(b"tree-run", 7);
    let out = block_on(price(
        &mut net,
        keys,
        agents,
        sellers,
        buyers,
        cfg,
        topology,
        &mut RandomizerStreams::new(keys.len(), 1),
        &mut rng,
    ))
    .expect("pricing");
    assert_eq!(net.pending(), 0, "all messages consumed");
    (out, net.stats().clone())
}

#[test]
fn tree_matches_ring_and_star_bit_for_bit() {
    // The ISSUE's sweep: n ∈ {2, 3, 17, 64}, plus the degenerate 1.
    for n_sellers in [1usize, 2, 3, 17, 64] {
        let (keys, agents, sellers, buyers, cfg) = market(n_sellers, 2020);
        let (ring, ring_stats) =
            price_with(Topology::Ring, &keys, &agents, &sellers, &buyers, &cfg);
        for fanin in [2usize, 3, 8] {
            let (tree, tree_stats) = price_with(
                Topology::Tree { fanin },
                &keys,
                &agents,
                &sellers,
                &buyers,
                &cfg,
            );
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
        let (star, _) = price_with(Topology::Star, &keys, &agents, &sellers, &buyers, &cfg);
        assert_eq!(ring.price.to_bits(), star.price.to_bits());
    }
}

#[test]
fn tree_respects_the_fanin_bound_at_every_hop() {
    for n_sellers in [2usize, 3, 17, 64] {
        for fanin in [2usize, 3, 4] {
            let (keys, agents, sellers, buyers, cfg) = market(n_sellers, 99);
            let mut net = RecvCounting::new(SimNetwork::new(agents.len()), "price/agg");
            let mut rng = HashDrbg::from_seed_label(b"tree-fanin", 3);
            let out = block_on(price(
                &mut net,
                &keys,
                &agents,
                &sellers,
                &buyers,
                &cfg,
                Topology::Tree { fanin },
                &mut RandomizerStreams::new(keys.len(), 1),
                &mut rng,
            ))
            .expect("pricing");
            for &s in &sellers {
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
                sellers.len() as u64
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
    let (keys, agents, sellers, buyers, cfg) = market(64, 5);
    let run = |topology: Topology| -> u64 {
        let mut net = SimNetwork::with_latency(agents.len(), LatencyModel::lan());
        let mut rng = HashDrbg::from_seed_label(b"tree-path", 1);
        block_on(price(
            &mut net,
            &keys,
            &agents,
            &sellers,
            &buyers,
            &cfg,
            topology,
            &mut RandomizerStreams::new(keys.len(), 1),
            &mut rng,
        ))
        .expect("pricing");
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
        let (keys, agents, sellers, buyers, cfg) = market(n_sellers, seed);
        let (ring, _) = price_with(Topology::Ring, &keys, &agents, &sellers, &buyers, &cfg);
        let (tree, _) = price_with(
            Topology::Tree { fanin }, &keys, &agents, &sellers, &buyers, &cfg,
        );
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
