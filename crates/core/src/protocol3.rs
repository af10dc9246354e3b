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

use pem_bignum::BigUint;
use pem_crypto::paillier::{Ciphertext, PublicKey};
use pem_net::wire::WireWriter;
use pem_net::Transport;
use pem_telemetry::Span;

use crate::agents::{AgentCtx, Coalition};
use crate::draws::Draws;
use crate::error::PemError;
pub use crate::fold::Topology;
use crate::fold::{fold, Announcement};
use crate::quantize::{dequantize, dequantize_u128, quantize, quantize_unsigned};

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

/// Protocol 3 — Private Pricing — over `c` on `net`: the [`fold`] at
/// `K = 2` in `c.cfg.topology`, then `H_b`'s decryption and the price
/// broadcast.
///
/// `H_b` is the attempt's pick among the buyers, and every seller
/// encrypts its two terms under `H_b`'s key from its own stream, all
/// before the first send. It yields before each receive. A trading
/// window awaits it as one of its stages; on its own, Protocol 3 is
/// `block_on(price(&mut net, &coalition))`.
///
/// # Errors
///
/// [`PemError::Protocol`] if either coalition is empty or a party hears
/// a different price; quantization, encryption, transport and decode
/// failures.
pub async fn price<T: Transport>(
    net: &mut T,
    c: &Coalition<'_>,
) -> Result<PricingOutcome, PemError> {
    if c.sellers.is_empty() || c.buyers.is_empty() {
        return Err(PemError::Protocol(
            "pricing requires both coalitions to be non-empty",
        ));
    }
    let hb = c.draws.pick("H_b", &c.buyers);
    let pk = c.keys.public(hb);

    let terms = (c.sellers.iter())
        .map(|&seller| seller_terms(pk, &c.agents[seller], c.draws))
        .collect::<Result<Vec<_>, _>>()?;
    price_terms(net, c, hb, terms).await
}

/// A seller's two pricing terms `(k, d)`, encrypted under `H_b`'s key
/// `pk` from the seller's own stream. The denominator term is signed in
/// principle (deep battery charging), so it uses the balanced encoding.
pub(crate) fn seller_terms(
    pk: &PublicKey,
    seller: &AgentCtx,
    draws: Draws,
) -> Result<[Ciphertext; 2], PemError> {
    let k_q = quantize_unsigned(seller.data.preference, "preference")?;
    let d_q = quantize(
        seller.data.pricing_denominator_term(),
        "pricing denominator",
    )?;
    let mut stream = draws.randomizer(seller.index, "price/agg");
    let k_ct = pk.try_encrypt(&BigUint::from(k_q), &mut stream)?;
    let d_ct = pk.try_encrypt(&pk.encode_i128(d_q as i128), &mut stream)?;
    Ok([k_ct, d_ct])
}

/// The rest of [`price`] once the sellers' `(k, d)` terms are encrypted
/// under `H_b`'s key: fold them to `H_b`, who decrypts the two sums,
/// prices and announces `p*` to the other `n − 1` parties; each checks
/// the price bit for bit.
pub(crate) async fn price_terms<T: Transport>(
    net: &mut T,
    c: &Coalition<'_>,
    hb: usize,
    terms: Vec<[Ciphertext; 2]>,
) -> Result<PricingOutcome, PemError> {
    let agg_span = Span::enter_at("price/agg", "protocol", net.now_us());
    let pk = c.keys.public(hb);
    let topology = c.cfg.topology;
    let ([k_ct, d_ct], vts) = fold(net, pk, &c.sellers, hb, "price/agg", topology, terms).await?;
    agg_span.finish_at(vts);

    // … who decrypts the two aggregates (and nothing else — Lemma 3).
    let sk = c.keys.keypair(hb).private();
    let k_sum_q = sk
        .decrypt_u128(&k_ct)
        .map_err(|_| PemError::Protocol("k aggregate exceeded 128 bits"))?;
    let d_sum_q = sk.decrypt_i128(&d_ct)?;
    let k_sum = dequantize_u128(k_sum_q);
    let denominator_sum = dequantize(
        i64::try_from(d_sum_q)
            .map_err(|_| PemError::Protocol("pricing denominator aggregate exceeded 64 bits"))?,
    );

    // Eq. 13 with the Eq. 14 clamp; a non-positive denominator means
    // supply is so battery-starved the equilibrium diverges → ceiling.
    let p_hat = if denominator_sum <= 0.0 {
        f64::INFINITY
    } else {
        (c.cfg.band.grid_retail * k_sum / denominator_sum).sqrt()
    };
    let price = c.cfg.band.clamp(p_hat);

    // H_b announces p* to the whole market, starting at the arrival of
    // the message that closed the fold. Each party checks the
    // announcement against H_b's price bit for bit: any other price is
    // not this market's.
    let bc_span = Span::enter_at("price/broadcast", "protocol", vts);
    let bytes = WireWriter::frame(|w| w.put_f64(price));
    let others = (0..c.agents.len()).filter(|&i| i != hb);
    let others = others.map(|i| (i, bytes.clone()));
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
    use crate::agents::Market;
    use crate::keys::KeyDirectory;
    use pem_crypto::drbg::HashDrbg;
    use pem_fabric::block_on;
    use pem_market::{optimal_price, optimal_price_unclamped, AgentWindow};
    use pem_net::SimNetwork;

    /// Protocol 3 on its own over `c`, run to completion on a fresh
    /// fabric.
    fn run(c: &Coalition<'_>) -> (Result<PricingOutcome, PemError>, SimNetwork) {
        let mut net = SimNetwork::new(c.agents.len());
        (block_on(price(&mut net, c)), net)
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
        let m = Market::new(paper_agents());
        let seller_rows: Vec<AgentWindow> = (m.data.iter())
            .filter(|a| a.net_energy() > 0.0)
            .copied()
            .collect();
        let out = run(&m.coalition()).0.expect("protocol 3");
        let expected = optimal_price(&seller_rows, &m.cfg.band);
        assert!(
            (out.price - expected).abs() < 1e-6,
            "pem {} vs plaintext {expected}",
            out.price
        );
        let expected_raw = optimal_price_unclamped(&seller_rows, &m.cfg.band);
        assert!((out.p_hat - expected_raw).abs() < 1e-6);
    }

    #[test]
    fn reveals_only_the_aggregates() {
        let m = Market::new(paper_agents());
        let c = m.coalition();
        let out = run(&c).0.expect("protocol 3");
        // The revealed sums match the Lemma 3 surface …
        let k_sum: f64 = (m.data.iter())
            .filter(|a| a.net_energy() > 0.0)
            .map(|a| a.preference)
            .sum();
        assert!((out.k_sum - k_sum).abs() < 1e-6);
        // … and the chosen party is a buyer.
        assert!(c.buyers.contains(&out.hb));
    }

    #[test]
    fn price_is_clamped_into_band() {
        // Huge preferences: p̂ blows past the ceiling.
        let m = Market::new(vec![
            AgentWindow::new(0, 0.5, 0.2, 0.0, 0.9, 10_000.0),
            AgentWindow::new(1, 0.0, 2.0, 0.0, 0.9, 20.0),
        ]);
        let out = run(&m.coalition()).0.expect("protocol 3");
        assert!(out.p_hat > m.cfg.band.ceiling);
        assert_eq!(out.price, m.cfg.band.ceiling);
    }

    #[test]
    fn single_seller_single_buyer() {
        let m = Market::new(vec![
            AgentWindow::new(0, 2.0, 0.5, 0.0, 0.9, 30.0),
            AgentWindow::new(1, 0.0, 5.0, 0.0, 0.9, 25.0),
        ]);
        let (out, net) = run(&m.coalition());
        let out = out.expect("protocol 3");
        assert!(out.price >= m.cfg.band.floor && out.price <= m.cfg.band.ceiling);
        assert_eq!(net.pending(), 0);
    }

    #[test]
    fn empty_sellers_rejected() {
        let m = Market::new(vec![AgentWindow::new(0, 0.0, 5.0, 0.0, 0.9, 25.0)]);
        assert!(matches!(run(&m.coalition()).0, Err(PemError::Protocol(_))));
    }

    #[test]
    fn out_of_range_denominator_aggregate_is_a_typed_error() {
        use pem_crypto::CryptoError;
        // Seller 1's `d` term is Enc(n/4) under H_b's 256-bit key: a
        // valid ciphertext whose signed decoding is ±2^254, far outside
        // i128. It folds into the aggregate H_b decrypts.
        let m = Market::new(paper_agents());
        let mut rng = HashDrbg::new(b"p3-out-of-range");
        let keys = KeyDirectory::generate(m.data.len(), 256, m.cfg.seed).expect("keys");
        let draws = Draws::new(m.cfg.seed, 0, 0);
        let c = Coalition::new(&m.cfg, &keys, draws, &m.data).expect("coalition");
        let hb = c.buyers[0];
        let pk = keys.public(hb);
        let mut enc = |m: &BigUint| pk.encrypt(m, &mut rng);
        let terms = vec![
            [enc(&BigUint::from(5u64)), enc(&pk.encode_i128(-3))],
            [enc(&BigUint::from(7u64)), enc(&(pk.n() >> 2))],
        ];
        let mut net = SimNetwork::new(c.agents.len());
        let pricing = price_terms(&mut net, &c, hb, terms);
        let err = block_on(pricing).expect_err("an out-of-range aggregate must abort pricing");
        assert!(
            matches!(err, PemError::Crypto(CryptoError::MessageTooLarge { .. })),
            "{err}"
        );
    }

    #[test]
    fn star_topology_matches_ring() {
        let ring = Market::new(paper_agents());
        let mut star = Market::new(paper_agents());
        star.cfg.topology = Topology::Star;
        let (ring, net_r) = run(&ring.coalition());
        let (star, net_s) = run(&star.coalition());
        let (ring, star) = (ring.expect("ring"), star.expect("star"));
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
        let m = Market::new(paper_agents());
        let c = m.coalition();
        let (out, net) = run(&c);
        out.expect("protocol 3");
        let s = net.stats();
        assert!(s.per_label.contains_key("price/agg"));
        assert!(s.per_label.contains_key("price/broadcast"));
        // Two ciphertexts per hop: each ~2·key_bits.
        let hops = c.sellers.len() as u64; // (ring) + final hand-off
        assert_eq!(s.per_label["price/agg"].messages, hops);
    }
}
