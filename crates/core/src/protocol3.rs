//! **Protocol 3 — Private Pricing.**
//!
//! In a general market, a randomly chosen buyer `H_b` learns only the two
//! seller-coalition aggregates that Eq. 13 needs (Lemma 3):
//! `Σ k_i` and `Σ (g_i + 1 + ε_i·b_i − b_i)`. Both are collected by one
//! fold over the sellers ([`crate::fold`]: the paper's ring, or a star
//! or tree), carrying two Paillier ciphertexts under `H_b`'s key. `H_b`
//! then computes
//! `p̂ = sqrt( ps_g · Σk / Σ(…) )`, clamps it into `[p_l, p_h]` (Eq. 14)
//! and broadcasts `p*`.

use pem_crypto::drbg::HashDrbg;
use pem_crypto::paillier::Ciphertext;
use pem_fabric::{Outbound, ProtocolStateMachine, Transition};
use pem_net::wire::{WireReader, WireWriter};
use pem_net::{Envelope, PartyId};
use pem_telemetry::Span;
use rand::Rng;

use crate::agents::AgentCtx;
use crate::config::PemConfig;
use crate::error::PemError;
use crate::fold::FoldMachine;
pub use crate::fold::Topology;
use crate::keys::KeyDirectory;
use crate::randpool::{self, RandomizerPool};

/// Result of Private Pricing.
#[derive(Debug, Clone, PartialEq)]
pub struct PricingOutcome {
    /// The clamped equilibrium price `p*` (¢/kWh).
    pub price: f64,
    /// The raw (unclamped) equilibrium price `p̂`.
    pub p_hat: f64,
    /// The randomly selected buyer that performed the computation.
    pub hb: usize,
    /// `Σ k_i` revealed to `H_b` (the Lemma 3 audit surface).
    pub k_sum: f64,
    /// `Σ (g_i + 1 + ε_i·b_i − b_i)` revealed to `H_b`.
    pub denominator_sum: f64,
}

/// Where the pricing protocol currently stands.
enum PricingState<'a> {
    /// The sellers' `(k, d)` pairs are folding toward `H_b` (boxed: the
    /// fold is several times the size of the other states).
    Aggregate(Box<FoldMachine<'a, 2>>),
    /// Price broadcast out; parties from `next` on (skipping `H_b`)
    /// still to confirm consumption of `outcome.price`.
    Consume {
        next: usize,
        outcome: PricingOutcome,
    },
    Done,
}

/// Protocol 3 — Private Pricing — as a poll-able state machine: the
/// [`FoldMachine`] at `K = 2` in the configured topology, then `H_b`'s
/// decryption and the price broadcast.
///
/// All seller-term encryptions are performed at construction, in the
/// order the topology visits the sellers (ring/star: seller order; tree:
/// descending position), so RNG and randomizer-pool streams do not
/// depend on who polls the machine. A trading window runs it as one of
/// its stages; on its own, Protocol 3 is
/// `pem_fabric::drive(net, &mut PricingMachine::new(..)?)`.
pub struct PricingMachine<'a> {
    keys: &'a KeyDirectory,
    cfg: &'a PemConfig,
    /// Population size (for the broadcast consume loop).
    n: usize,
    hb: usize,
    state: PricingState<'a>,
    /// Open `price/agg` span (finished when the pair reaches `H_b`).
    agg_span: Option<Span>,
    /// Open `price/broadcast` span (finished on the last consumption).
    bc_span: Option<Span>,
}

impl<'a> PricingMachine<'a> {
    /// Builds the machine: selects `H_b`, encrypts every seller's terms
    /// under `H_b`'s key (in the topology's visit order) and opens the
    /// `price/agg` span at `start_vts` (the fabric's current virtual
    /// time).
    ///
    /// # Errors
    ///
    /// [`PemError::Protocol`] if either coalition is empty; otherwise
    /// quantization/encryption failures.
    #[allow(clippy::too_many_arguments)]
    pub fn new(
        keys: &'a KeyDirectory,
        agents: &[AgentCtx],
        sellers: &[usize],
        buyers: &[usize],
        cfg: &'a PemConfig,
        topology: Topology,
        pool: &mut Option<RandomizerPool>,
        rng: &mut HashDrbg,
        start_vts: u64,
    ) -> Result<PricingMachine<'a>, PemError> {
        if sellers.is_empty() || buyers.is_empty() {
            return Err(PemError::Protocol(
                "pricing requires both coalitions to be non-empty",
            ));
        }
        let hb = buyers[rng.gen_range(0..buyers.len())];
        let pk = keys.public(hb);
        let quantizer = cfg.quantizer();

        // Each seller's two pricing terms, encrypted under H_b's key. The
        // denominator term is signed in principle (deep battery
        // charging), so it uses the balanced encoding.
        let mut seller_terms = |idx: usize| -> Result<[Ciphertext; 2], PemError> {
            let a = &agents[idx];
            let k_q = quantizer.quantize_unsigned(a.data.preference, "preference")?;
            let d_q =
                quantizer.quantize(a.data.pricing_denominator_term(), "pricing denominator")?;
            let k_ct = randpool::encrypt_under(pk, hb, &pem_bignum::BigUint::from(k_q), pool, rng)?;
            let d_ct = randpool::encrypt_under(pk, hb, &pk.encode_i128(d_q as i128), pool, rng)?;
            Ok([k_ct, d_ct])
        };
        // The tree draws its sellers' randomizers in descending position
        // (the order its nodes are visited), ring and star ascending.
        let descending = matches!(topology, Topology::Tree { .. });
        let mut order: Vec<usize> = sellers.to_vec();
        if descending {
            order.reverse();
        }
        let mut terms = order
            .into_iter()
            .map(&mut seller_terms)
            .collect::<Result<Vec<_>, _>>()?;
        if descending {
            terms.reverse();
        }
        let fold = FoldMachine::new(pk, sellers, hb, "price/agg", topology, terms)?;

        Ok(PricingMachine {
            keys,
            cfg,
            n: agents.len(),
            hb,
            state: PricingState::Aggregate(Box::new(fold)),
            agg_span: Some(Span::enter_at("price/agg", "protocol", start_vts)),
            bc_span: None,
        })
    }

    /// `H_b` holds the final aggregate: decrypt, price, and fan the
    /// broadcast out. `vts` is the arrival time of the closing message
    /// (the end of the aggregation phase on the virtual clock).
    fn finish_aggregation(
        &mut self,
        k_ct: &Ciphertext,
        d_ct: &Ciphertext,
        vts: u64,
    ) -> Result<Transition<PricingOutcome>, PemError> {
        if let Some(span) = self.agg_span.take() {
            span.finish_at(vts);
        }

        // … who decrypts the two aggregates (and nothing else — Lemma 3).
        let quantizer = self.cfg.quantizer();
        let sk = self.keys.keypair(self.hb).private();
        let k_sum_q = sk
            .decrypt(k_ct)
            .to_u128()
            .ok_or(PemError::Protocol("k aggregate exceeded 128 bits"))?;
        let d_sum_q = sk.decrypt_i128(d_ct)?;
        let k_sum = quantizer.dequantize_u128(k_sum_q);
        let denominator_sum =
            quantizer.dequantize(i64::try_from(d_sum_q).map_err(|_| {
                PemError::Protocol("pricing denominator aggregate exceeded 64 bits")
            })?);

        // Eq. 13 with the Eq. 14 clamp; a non-positive denominator means
        // supply is so battery-starved the equilibrium diverges →
        // ceiling.
        let p_hat = if denominator_sum <= 0.0 {
            f64::INFINITY
        } else {
            (self.cfg.band.grid_retail * k_sum / denominator_sum).sqrt()
        };
        let price = self.cfg.band.clamp(p_hat);

        // H_b broadcasts p* to the whole market.
        self.bc_span = Some(Span::enter_at("price/broadcast", "protocol", vts));
        let mut w = WireWriter::new();
        w.put_f64(price);
        let bytes = w.finish();
        let outs: Vec<Outbound> = (0..self.n)
            .filter(|&i| i != self.hb)
            .map(|i| Outbound {
                from: PartyId(self.hb),
                to: PartyId(i),
                label: "price/broadcast",
                payload: bytes.clone(),
            })
            .collect();
        self.state = PricingState::Consume {
            next: usize::from(self.hb == 0),
            outcome: PricingOutcome {
                price,
                p_hat,
                hb: self.hb,
                k_sum,
                denominator_sum,
            },
        };
        Ok(Transition::Send(outs))
    }
}

impl ProtocolStateMachine for PricingMachine<'_> {
    type Output = PricingOutcome;
    type Error = PemError;

    fn initial_messages(&mut self) -> Result<Vec<Outbound>, PemError> {
        match &mut self.state {
            PricingState::Aggregate(fold) => fold.initial_messages(),
            _ => Ok(Vec::new()),
        }
    }

    fn expecting(&self) -> Option<(PartyId, &'static str)> {
        match &self.state {
            PricingState::Aggregate(fold) => fold.expecting(),
            PricingState::Consume { next, .. } => Some((PartyId(*next), "price/broadcast")),
            PricingState::Done => None,
        }
    }

    fn on_message(&mut self, env: Envelope) -> Result<Transition<PricingOutcome>, PemError> {
        if let PricingState::Aggregate(fold) = &mut self.state {
            return match fold.on_message(env)? {
                Transition::Continue => Ok(Transition::Continue),
                Transition::Send(outs) => Ok(Transition::Send(outs)),
                Transition::Done(([k_ct, d_ct], vts)) => self.finish_aggregation(&k_ct, &d_ct, vts),
            };
        }
        match std::mem::replace(&mut self.state, PricingState::Done) {
            PricingState::Consume { next, outcome } => {
                let mut r = WireReader::new(&env.payload);
                // Each party checks the broadcast against H_b's price bit
                // for bit: any other price is not this market's.
                if r.get_f64()?.to_bits() != outcome.price.to_bits() {
                    return Err(PemError::Protocol(
                        "price broadcast differs from H_b's price",
                    ));
                }
                let mut next = next + 1;
                if next == self.hb {
                    next += 1;
                }
                if next < self.n {
                    self.state = PricingState::Consume { next, outcome };
                    Ok(Transition::Continue)
                } else {
                    if let Some(span) = self.bc_span.take() {
                        span.finish_at(env.arrival_us);
                    }
                    Ok(Transition::Done(outcome))
                }
            }
            _ => Err(PemError::Protocol("fed a completed pricing machine")),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::quantize::Quantizer;
    use pem_market::{optimal_price, optimal_price_unclamped, AgentWindow, Role};
    use pem_net::{SimNetwork, Transport};

    /// Protocol 3 on its own: the machine driven to completion on `net`.
    #[allow(clippy::too_many_arguments)]
    fn price(
        net: &mut SimNetwork,
        keys: &KeyDirectory,
        agents: &[AgentCtx],
        sellers: &[usize],
        buyers: &[usize],
        cfg: &PemConfig,
        topology: Topology,
        rng: &mut HashDrbg,
    ) -> Result<PricingOutcome, PemError> {
        let mut machine = PricingMachine::new(
            keys,
            agents,
            sellers,
            buyers,
            cfg,
            topology,
            &mut None,
            rng,
            net.now_us(),
        )?;
        pem_fabric::drive(net, &mut machine)
    }

    fn setup(
        agents_data: Vec<AgentWindow>,
    ) -> (
        SimNetwork,
        KeyDirectory,
        Vec<AgentCtx>,
        Vec<usize>,
        Vec<usize>,
        PemConfig,
        HashDrbg,
    ) {
        let cfg = PemConfig::fast_test();
        let q = Quantizer::new(cfg.scale);
        let n = agents_data.len();
        let keys = KeyDirectory::generate(n, cfg.key_bits, cfg.seed).expect("keys");
        let mut rng = HashDrbg::from_seed_label(b"p3-test", 1);
        let mut agents = Vec::new();
        let mut sellers = Vec::new();
        let mut buyers = Vec::new();
        for (i, data) in agents_data.into_iter().enumerate() {
            let ctx = AgentCtx::prepare(i, data, &q, rng.gen::<u64>() >> 24).expect("prepare");
            match ctx.role {
                Role::Seller => sellers.push(i),
                Role::Buyer => buyers.push(i),
                Role::OffMarket => {}
            }
            agents.push(ctx);
        }
        (SimNetwork::new(n), keys, agents, sellers, buyers, cfg, rng)
    }

    fn paper_agents() -> Vec<AgentWindow> {
        vec![
            AgentWindow::new(0, 4.0, 1.0, 0.5, 0.9, 28.0),
            AgentWindow::new(1, 6.0, 0.5, -0.2, 0.85, 35.0),
            AgentWindow::new(2, 0.0, 3.0, 0.0, 0.9, 20.0),
            AgentWindow::new(3, 0.0, 9.0, 0.0, 0.9, 22.0),
        ]
    }

    #[test]
    fn matches_plaintext_formula() {
        let data = paper_agents();
        let seller_rows: Vec<AgentWindow> = data
            .iter()
            .filter(|a| a.net_energy() > 0.0)
            .copied()
            .collect();
        let (mut net, keys, agents, sellers, buyers, cfg, mut rng) = setup(data);
        let out = price(
            &mut net,
            &keys,
            &agents,
            &sellers,
            &buyers,
            &cfg,
            Topology::Ring,
            &mut rng,
        )
        .expect("protocol 3");
        let expected = optimal_price(&seller_rows, &cfg.band);
        assert!(
            (out.price - expected).abs() < 1e-6,
            "pem {} vs plaintext {expected}",
            out.price
        );
        let expected_raw = optimal_price_unclamped(&seller_rows, &cfg.band);
        assert!((out.p_hat - expected_raw).abs() < 1e-6);
    }

    #[test]
    fn reveals_only_the_aggregates() {
        let data = paper_agents();
        let (mut net, keys, agents, sellers, buyers, cfg, mut rng) = setup(data.clone());
        let out = price(
            &mut net,
            &keys,
            &agents,
            &sellers,
            &buyers,
            &cfg,
            Topology::Ring,
            &mut rng,
        )
        .expect("protocol 3");
        // The revealed sums match the Lemma 3 surface …
        let k_sum: f64 = data
            .iter()
            .filter(|a| a.net_energy() > 0.0)
            .map(|a| a.preference)
            .sum();
        assert!((out.k_sum - k_sum).abs() < 1e-6);
        // … and the chosen party is a buyer.
        assert!(buyers.contains(&out.hb));
    }

    #[test]
    fn price_is_clamped_into_band() {
        // Huge preferences: p̂ blows past the ceiling.
        let data = vec![
            AgentWindow::new(0, 0.5, 0.2, 0.0, 0.9, 10_000.0),
            AgentWindow::new(1, 0.0, 2.0, 0.0, 0.9, 20.0),
        ];
        let (mut net, keys, agents, sellers, buyers, cfg, mut rng) = setup(data);
        let out = price(
            &mut net,
            &keys,
            &agents,
            &sellers,
            &buyers,
            &cfg,
            Topology::Ring,
            &mut rng,
        )
        .expect("protocol 3");
        assert!(out.p_hat > cfg.band.ceiling);
        assert_eq!(out.price, cfg.band.ceiling);
    }

    #[test]
    fn single_seller_single_buyer() {
        let data = vec![
            AgentWindow::new(0, 2.0, 0.5, 0.0, 0.9, 30.0),
            AgentWindow::new(1, 0.0, 5.0, 0.0, 0.9, 25.0),
        ];
        let (mut net, keys, agents, sellers, buyers, cfg, mut rng) = setup(data);
        let out = price(
            &mut net,
            &keys,
            &agents,
            &sellers,
            &buyers,
            &cfg,
            Topology::Ring,
            &mut rng,
        )
        .expect("protocol 3");
        assert!(out.price >= cfg.band.floor && out.price <= cfg.band.ceiling);
        assert_eq!(net.pending(), 0);
    }

    #[test]
    fn empty_sellers_rejected() {
        let data = vec![AgentWindow::new(0, 0.0, 5.0, 0.0, 0.9, 25.0)];
        let (mut net, keys, agents, _sellers, buyers, cfg, mut rng) = setup(data);
        assert!(matches!(
            price(
                &mut net,
                &keys,
                &agents,
                &[],
                &buyers,
                &cfg,
                Topology::Ring,
                &mut rng
            ),
            Err(PemError::Protocol(_))
        ));
    }

    #[test]
    fn out_of_range_denominator_aggregate_is_a_typed_error() {
        use pem_bignum::BigUint;
        use pem_crypto::CryptoError;
        // Seller 1's `d` term is Enc(n/4) under H_b's 256-bit key: a
        // valid ciphertext whose signed decoding is ±2^254, far outside
        // i128. It folds into the aggregate H_b decrypts.
        let (mut net, _, _, sellers, buyers, cfg, mut rng) = setup(paper_agents());
        let keys = KeyDirectory::generate(net.party_count(), 256, cfg.seed).expect("keys");
        let hb = buyers[0];
        let pk = keys.public(hb);
        let mut enc = |m: &BigUint| pk.encrypt(m, &mut rng);
        let terms = vec![
            [enc(&BigUint::from(5u64)), enc(&pk.encode_i128(-3))],
            [enc(&BigUint::from(7u64)), enc(&(pk.n() >> 2))],
        ];
        let fold =
            FoldMachine::new(pk, &sellers, hb, "price/agg", Topology::Ring, terms).expect("fold");
        let mut machine = PricingMachine {
            keys: &keys,
            cfg: &cfg,
            n: net.party_count(),
            hb,
            state: PricingState::Aggregate(Box::new(fold)),
            agg_span: None,
            bc_span: None,
        };
        let err = pem_fabric::drive(&mut net, &mut machine)
            .expect_err("an out-of-range aggregate must abort pricing");
        assert!(
            matches!(err, PemError::Crypto(CryptoError::MessageTooLarge { .. })),
            "{err}"
        );
    }

    #[test]
    fn star_topology_matches_ring() {
        let data = paper_agents();
        let (mut net_r, keys, agents, sellers, buyers, cfg, mut rng) = setup(data.clone());
        let ring = price(
            &mut net_r,
            &keys,
            &agents,
            &sellers,
            &buyers,
            &cfg,
            Topology::Ring,
            &mut rng,
        )
        .expect("ring");
        let mut net_s = SimNetwork::new(agents.len());
        let star = price(
            &mut net_s,
            &keys,
            &agents,
            &sellers,
            &buyers,
            &cfg,
            Topology::Star,
            &mut rng,
        )
        .expect("star");
        assert!((ring.price - star.price).abs() < 1e-9);
        assert!((ring.k_sum - star.k_sum).abs() < 1e-9);
        // Same number of aggregation messages, same byte volume class.
        assert_eq!(
            net_r.stats().per_label["price/agg"].messages,
            net_s.stats().per_label["price/agg"].messages
        );
        let rb = net_r.stats().per_label["price/agg"].bytes as f64;
        let sb = net_s.stats().per_label["price/agg"].bytes as f64;
        assert!((rb / sb - 1.0).abs() < 0.2, "bytes ring {rb} vs star {sb}");
    }

    #[test]
    fn traffic_labelled_for_table1() {
        let (mut net, keys, agents, sellers, buyers, cfg, mut rng) = setup(paper_agents());
        price(
            &mut net,
            &keys,
            &agents,
            &sellers,
            &buyers,
            &cfg,
            Topology::Ring,
            &mut rng,
        )
        .expect("protocol 3");
        let s = net.stats();
        assert!(s.per_label.contains_key("price/agg"));
        assert!(s.per_label.contains_key("price/broadcast"));
        // Two ciphertexts per hop: each ~2·key_bits.
        let hops = sellers.len() as u64; // (ring) + final hand-off
        assert_eq!(s.per_label["price/agg"].messages, hops);
    }
}
