//! **Protocol 3 — Private Pricing.**
//!
//! In a general market, a randomly chosen buyer `H_b` learns only the two
//! seller-coalition aggregates that Eq. 13 needs (Lemma 3):
//! `Σ k_i` and `Σ (g_i + 1 + ε_i·b_i − b_i)`. Both are collected by one
//! fold over the sellers ([`crate::fold`]: the paper's ring, or a star
//! or tree), carrying two Paillier ciphertexts under `H_b`'s key. `H_b`
//! then computes
//! `p̂ = sqrt( ps_g · Σk / Σ(…) )`, clamps it into `[p_l, p_h]` (Eq. 14)
//! and announces `p*`, which every party checks bit for bit.
//!
//! [`price`] is the whole protocol as one `async fn` that yields before
//! each receive: a trading window awaits it, and
//! [`block_on`](pem_fabric::block_on) runs it on its own.

use pem_crypto::drbg::HashDrbg;
use pem_crypto::paillier::Ciphertext;
use pem_net::wire::WireWriter;
use pem_net::Transport;
use pem_telemetry::Span;
use rand::Rng;

use crate::agents::AgentCtx;
use crate::config::PemConfig;
use crate::error::PemError;
pub use crate::fold::Topology;
use crate::fold::{fold, Announcement};
use crate::keys::{encrypt_under, KeyDirectory, RandomizerStreams};
use crate::quantize::Quantizer;

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

/// Protocol 3 — Private Pricing — on `net`: the [`fold`] at `K = 2` in
/// `topology`, then `H_b`'s decryption and the price broadcast.
///
/// `H_b` is drawn first, then every seller's terms are encrypted under
/// its key in the order the topology visits the sellers (ring and star:
/// seller order; tree: descending position), all before the first send.
/// The RNG and randomizer streams therefore do not depend on who
/// polls the future. It yields before each receive. A trading window
/// awaits it as one of its stages; on its own, Protocol 3 is
/// `block_on(price(..))`.
///
/// # Errors
///
/// [`PemError::Protocol`] if either coalition is empty or a party hears
/// a different price; quantization, encryption, transport and decode
/// failures.
#[allow(clippy::too_many_arguments)]
pub async fn price<T: Transport>(
    net: &mut T,
    keys: &KeyDirectory,
    agents: &[AgentCtx],
    sellers: &[usize],
    buyers: &[usize],
    cfg: &PemConfig,
    topology: Topology,
    streams: &mut RandomizerStreams,
    rng: &mut HashDrbg,
) -> Result<PricingOutcome, PemError> {
    if sellers.is_empty() || buyers.is_empty() {
        return Err(PemError::Protocol(
            "pricing requires both coalitions to be non-empty",
        ));
    }
    let hb = buyers[rng.gen_range(0..buyers.len())];
    let pk = keys.public(hb);
    let quantizer = Quantizer::new();

    // Each seller's two pricing terms, encrypted under H_b's key. The
    // denominator term is signed in principle (deep battery charging),
    // so it uses the balanced encoding.
    let mut seller_terms = |idx: usize| -> Result<[Ciphertext; 2], PemError> {
        let a = &agents[idx];
        let k_q = quantizer.quantize_unsigned(a.data.preference, "preference")?;
        let d_q = quantizer.quantize(a.data.pricing_denominator_term(), "pricing denominator")?;
        let k_ct = encrypt_under(pk, hb, &pem_bignum::BigUint::from(k_q), streams)?;
        let d_ct = encrypt_under(pk, hb, &pk.encode_i128(d_q as i128), streams)?;
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
    price_terms(net, keys, cfg, agents.len(), sellers, hb, topology, terms).await
}

/// The rest of [`price`] once the sellers' `(k, d)` terms are encrypted
/// under `H_b`'s key: fold them to `H_b`, who decrypts the two sums,
/// prices and announces `p*` to the other `n − 1` parties; each checks
/// the price bit for bit.
#[allow(clippy::too_many_arguments)]
async fn price_terms<T: Transport>(
    net: &mut T,
    keys: &KeyDirectory,
    cfg: &PemConfig,
    n: usize,
    sellers: &[usize],
    hb: usize,
    topology: Topology,
    terms: Vec<[Ciphertext; 2]>,
) -> Result<PricingOutcome, PemError> {
    let agg_span = Span::enter_at("price/agg", "protocol", net.now_us());
    let pk = keys.public(hb);
    let ([k_ct, d_ct], vts) = fold(net, pk, sellers, hb, "price/agg", topology, terms).await?;
    agg_span.finish_at(vts);

    // … who decrypts the two aggregates (and nothing else — Lemma 3).
    let quantizer = Quantizer::new();
    let sk = keys.keypair(hb).private();
    let k_sum_q = sk
        .decrypt(&k_ct)
        .to_u128()
        .ok_or(PemError::Protocol("k aggregate exceeded 128 bits"))?;
    let d_sum_q = sk.decrypt_i128(&d_ct)?;
    let k_sum = quantizer.dequantize_u128(k_sum_q);
    let denominator_sum = quantizer.dequantize(
        i64::try_from(d_sum_q)
            .map_err(|_| PemError::Protocol("pricing denominator aggregate exceeded 64 bits"))?,
    );

    // Eq. 13 with the Eq. 14 clamp; a non-positive denominator means
    // supply is so battery-starved the equilibrium diverges → ceiling.
    let p_hat = if denominator_sum <= 0.0 {
        f64::INFINITY
    } else {
        (cfg.band.grid_retail * k_sum / denominator_sum).sqrt()
    };
    let price = cfg.band.clamp(p_hat);

    // H_b announces p* to the whole market, starting at the arrival of
    // the message that closed the fold. Each party checks the
    // announcement against H_b's price bit for bit: any other price is
    // not this market's.
    let bc_span = Span::enter_at("price/broadcast", "protocol", vts);
    let bytes = WireWriter::frame(|w| w.put_f64(price));
    let others = (0..n).filter(|&i| i != hb).map(|i| (i, bytes.clone()));
    let announced = Announcement::send(net, hb, "price/broadcast", others)?;
    let (_, last_arrival) = announced.hear(net, |r| Ok(r.get_f64()?)).await?;
    bc_span.finish_at(last_arrival.max(vts));
    Ok(PricingOutcome {
        price,
        p_hat,
        hb,
        k_sum,
        denominator_sum,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use pem_fabric::block_on;
    use pem_market::{optimal_price, optimal_price_unclamped, AgentWindow, Role};
    use pem_net::SimNetwork;

    /// Protocol 3 on its own, run to completion on `net`.
    #[allow(clippy::too_many_arguments)]
    fn run(
        net: &mut SimNetwork,
        keys: &KeyDirectory,
        agents: &[AgentCtx],
        sellers: &[usize],
        buyers: &[usize],
        cfg: &PemConfig,
        topology: Topology,
        rng: &mut HashDrbg,
    ) -> Result<PricingOutcome, PemError> {
        let streams = &mut RandomizerStreams::new(keys.len(), cfg.seed);
        block_on(price(
            net, keys, agents, sellers, buyers, cfg, topology, streams, rng,
        ))
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
        let q = Quantizer::new();
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
        let out = run(
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
        let out = run(
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
        let out = run(
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
        let out = run(
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
            run(
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
        let n = net.party_count();
        let pricing = price_terms(
            &mut net,
            &keys,
            &cfg,
            n,
            &sellers,
            hb,
            Topology::Ring,
            terms,
        );
        let err = block_on(pricing).expect_err("an out-of-range aggregate must abort pricing");
        assert!(
            matches!(err, PemError::Crypto(CryptoError::MessageTooLarge { .. })),
            "{err}"
        );
    }

    #[test]
    fn star_topology_matches_ring() {
        let data = paper_agents();
        let (mut net_r, keys, agents, sellers, buyers, cfg, mut rng) = setup(data.clone());
        let ring = run(
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
        let star = run(
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
        run(
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
