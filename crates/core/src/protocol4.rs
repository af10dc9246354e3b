//! **Protocol 4 — Private Distribution.**
//!
//! Allocates pairwise amounts in proportion to each buyer's demand share
//! (general market) or each seller's supply share (extreme market),
//! revealing only the allocation *ratios* (Lemma 4):
//!
//! 1. A random member of the *opposite* coalition is chosen as the ratio
//!    decryptor (`H_s` = a seller in the general case).
//! 2. A fold on `cfg.topology` (the paper's ring by default) over the
//!    buyers aggregates `Enc_{pk_s}(E_b)` at the last buyer, who
//!    announces the ciphertext inside the buyer coalition.
//! 3. Paillier has no homomorphic division, so each buyer inverts its
//!    ratio *in the exponent*: it sends
//!    `Enc(E_b)^{round(K / |sn_j|)} = Enc(E_b · round(K / |sn_j|))`
//!    with a public precision constant `K = 2^48`.
//!    `H_s` decrypts `v_j ≈ K·E_b/|sn_j|` and recovers the demand ratio
//!    `|sn_j|/E_b = K/v_j` — learning the ratio but neither operand.
//!    Every `v_j` is below `2^w` for a slot width `w` of 98 bits, so
//!    `H_s` decrypts the fan-in packed
//!    ([`PrivateKey::decrypt_packed`](pem_crypto::paillier::PrivateKey::decrypt_packed)):
//!    it Horner-folds
//!    `⌊(|p| − 64)/w⌋` ciphertexts (9 at 2048-bit keys, 4 at 1024) into
//!    one on the p-leg of its CRT key, decrypts that once and splits it
//!    into slots. It learns exactly the `v_j` and nothing more; a
//!    plaintext that overflows its pack (a corrupted ciphertext) is a
//!    typed error.
//! 4. The decryptor announces the ratio vector inside its own coalition;
//!    each member checks its copy (one ratio per member of the ratio
//!    side, bit for bit) and routes `e = |sn| · ratio` from its own net
//!    energy and its own copy to each counterparty, who answers with the
//!    payment `p·e` — the O(n²) pairwise settlement of §III-D. In a
//!    general market the sellers route `sn_i · ratio_j` to the buyers; in
//!    an extreme one the buyers route `|sn_j| · ratio_i` to the sellers.
//!    The round-trips are independent, so they run as three sweeps: every
//!    router sends all its energy frames, every counterparty gathers its
//!    frames and answers each with a payment, every router gathers its
//!    payments and checks each bit for bit. On the virtual clock the
//!    settlement costs about two hops, not one round-trip per pair.
//!
//! [`run`] is an `async fn`, and every receive in it is a
//! [`gather`] that yields first: a replayed frame
//! is the retryable `Unread`, a stray one a typed protocol error.

use pem_bignum::BigUint;
use pem_crypto::paillier::Ciphertext;
use pem_market::{AgentId, Trade};
use pem_net::wire::{WireReader, WireWriter};
use pem_net::{PartyId, Transport};
use pem_telemetry::Span;

use crate::agents::Coalition;
use crate::config::{RATIO_PRECISION_BITS, RATIO_SLOT_BITS};
use crate::error::PemError;
use crate::fold::{fold, gather, read_ciphertext, Announcement};
use crate::quantize::dequantize;

/// Result of Private Distribution.
#[derive(Debug, Clone, PartialEq)]
pub struct DistributionOutcome {
    /// All pairwise trades (seller-major order, matching
    /// `pem_market::allocate`).
    pub trades: Vec<Trade>,
    /// The allocation ratios revealed to the decryptor (Lemma 4 surface),
    /// in coalition order.
    pub ratios: Vec<f64>,
    /// The party that decrypted the ratios.
    pub decryptor: usize,
}

/// Runs Protocol 4 over `c` at `price`.
///
/// `general_market` selects the §III-D variant: demand-proportional with
/// a seller decryptor, or supply-proportional with a buyer decryptor.
///
/// # Errors
///
/// [`PemError::Protocol`] if either coalition is empty; otherwise
/// crypto/network failures.
pub async fn run<T: Transport>(
    net: &mut T,
    c: &Coalition<'_>,
    price: f64,
    general_market: bool,
) -> Result<DistributionOutcome, PemError> {
    let Coalition {
        cfg,
        keys,
        draws,
        agents,
        sellers,
        buyers,
    } = c;
    if sellers.is_empty() || buyers.is_empty() {
        return Err(PemError::Protocol(
            "distribution requires both coalitions to be non-empty",
        ));
    }
    // Ratio side = the coalition whose shares are being computed;
    // decryptor side = the other coalition.
    let (ratio_side, other_side) = if general_market {
        (buyers, sellers)
    } else {
        (sellers, buyers)
    };
    let decryptor = draws.pick("decryptor", other_side);
    let pk = keys.public(decryptor);
    let k_const = 1u128 << RATIO_PRECISION_BITS;

    // --- Step 2: fold the ratio side's total under pk. -----------------
    // The fold ends at the coalition's last member, who multiplies in its
    // own contribution and announces Enc(total) inside the ratio
    // coalition. Each member encrypts its term from its own stream.
    let agg_span = Span::enter_at("dist/total-agg", "protocol", net.now_us());
    let (&last, members) = ratio_side
        .split_last()
        .ok_or(PemError::Protocol("empty ratio coalition"))?;
    let encrypt = |member: usize| {
        let mut stream = draws.randomizer(member, "dist/total-agg");
        pk.try_encrypt(&BigUint::from(agents[member].sn_abs_q), &mut stream)
    };
    let mut own = Vec::with_capacity(members.len());
    for &member in members {
        own.push([encrypt(member)?]);
    }
    let mut acc = encrypt(last)?;
    if !members.is_empty() {
        let fold = fold(net, pk, members, last, "dist/total-agg", cfg.topology, own);
        let ([received], _) = fold.await?;
        acc = pk.add_ciphertexts(&received, &acc);
    }

    // Every other member decodes and validates its copy of Enc(total),
    // checked against the last member's, and raises its own copy.
    let bytes = WireWriter::frame(|w| w.put_biguint(acc.as_biguint()));
    let to = members.iter().map(|&member| (member, bytes.clone()));
    let announced = Announcement::send(net, last, "dist/total-bcast", to)?;
    let (mut totals, _) = announced.hear(net, |r| read_ciphertext(pk, r)).await?;
    totals.push(acc);
    agg_span.finish_at(net.now_us());

    // --- Step 3: exponent-inverted ratio requests to the decryptor. ----
    let ratio_span = Span::enter_at("dist/ratios", "protocol", net.now_us());
    for (pos, &member) in ratio_side.iter().enumerate() {
        let sn = agents[member].sn_abs_q;
        debug_assert!(sn > 0, "market members have non-zero net energy");
        let exponent = (k_const + sn as u128 / 2) / sn as u128; // round(K / sn)

        // Enc(total) ↦ Enc(total · round(K/sn)): the b = 0 shape of the
        // fused affine update (exact `mul_plain`, one exponentiation —
        // power-of-two exponents collapse to a squaring chain).
        let ct = pk.affine(&totals[pos], &BigUint::from(exponent), &BigUint::zero());
        let frame = WireWriter::frame(|w| w.put_biguint(ct.as_biguint()));
        net.send(PartyId(member), PartyId(decryptor), "dist/ratio-req", frame)?;
    }

    // The decryptor gathers the whole fan-in first, each ciphertext at
    // its sender's position. Every v_j is below 2^RATIO_SLOT_BITS, so it
    // decrypts them packed: one p-leg decryption per slots_per_pack
    // ratios (both legs on toy keys). A plaintext above its slot (a
    // corrupted ciphertext) is a typed error.
    let decrypt_span = Span::enter_at("dist/decrypt", "protocol", net.now_us());
    let sk = keys.keypair(decryptor).private();
    let mut ratio_cts = vec![Ciphertext::from_biguint(BigUint::zero()); ratio_side.len()];
    let requests = ratio_side
        .iter()
        .enumerate()
        .map(|(pos, &member)| (member, pos));
    gather(net, decryptor, "dist/ratio-req", requests, |_, env, pos| {
        ratio_cts[pos] = WireReader::frame(&env.payload, |r| read_ciphertext(pk, r))?;
        Ok(())
    })
    .await?;
    let mut ratios = Vec::with_capacity(ratio_side.len());
    for m in sk.decrypt_packed(&ratio_cts, RATIO_SLOT_BITS)? {
        // Zero is degenerate. Above 2^128 is unreachable: the packed
        // decryption bounds v by its 98-bit slot.
        let v = m
            .to_u128()
            .filter(|&v| v != 0)
            .ok_or(PemError::Protocol("degenerate ratio"))?;
        // v ≈ K·total/sn_member ⇒ member share = K/v.
        ratios.push(k_const as f64 / v as f64);
    }
    decrypt_span.finish_at(net.now_us());
    ratio_span.finish_at(net.now_us());

    // --- Step 4: announce the ratios to the other coalition and settle.
    // Each recipient decodes the whole vector (exactly one ratio per
    // member of the ratio side), checked against the decryptor's bit for
    // bit, and settles from its own copy.
    let settle_span = Span::enter_at("dist/settle", "protocol", net.now_us());
    let bytes = WireWriter::frame(|w| {
        w.put_varint(ratios.len() as u64);
        ratios.iter().for_each(|&ratio| w.put_f64(ratio));
    });
    let recipients: Vec<usize> = other_side
        .iter()
        .copied()
        .filter(|&m| m != decryptor)
        .collect();
    let to = recipients.iter().map(|&member| (member, bytes.clone()));
    let announced = Announcement::send(net, decryptor, "dist/ratios", to)?;
    let (copies, _) = announced
        .hear(net, |r| {
            if r.get_varint()? != ratio_side.len() as u64 {
                return Err(PemError::Protocol(
                    "ratio count differs from the ratio side",
                ));
            }
            ratio_side
                .iter()
                .map(|_| Ok(r.get_f64()?))
                .collect::<Result<Vec<f64>, _>>()
        })
        .await?;
    let mut copy_of: Vec<&[f64]> = vec![&ratios; agents.len()];
    for (&member, copy) in recipients.iter().zip(&copies) {
        copy_of[member] = copy;
    }

    // Pairwise settlement. The side that heard the ratios routes each
    // e = |sn| · ratio from its own net energy and its own copy; the
    // ratio side answers with the payment. Every pair that trades,
    // seller-major: (seller, buyer, energy), and its (router,
    // counterparty).
    let mut pairs = Vec::with_capacity(sellers.len() * buyers.len());
    for (s_pos, &s) in sellers.iter().enumerate() {
        for (b_pos, &b) in buyers.iter().enumerate() {
            let (router, counterparty, pos) = if general_market {
                (s, b, b_pos)
            } else {
                (b, s, s_pos)
            };
            let sn = dequantize(agents[router].sn_q.abs());
            let energy = sn * copy_of[router][pos];
            if energy > 0.0 {
                pairs.push((s, b, energy, router, counterparty));
            }
        }
    }
    // The round-trips are independent, so they run as three sweeps
    // rather than one pair at a time: every router sends its energy …
    for &(_, _, energy, router, counterparty) in &pairs {
        let frame = WireWriter::frame(|w| w.put_f64(energy));
        net.send(PartyId(router), PartyId(counterparty), "dist/energy", frame)?;
    }
    // … every member of the ratio side gathers its frames and answers
    // each with the payment …
    for &member in ratio_side {
        let senders = pairs.iter().filter(|p| p.4 == member).map(|p| (p.3, ()));
        gather(net, member, "dist/energy", senders, |net, env, ()| {
            let routed = WireReader::frame(&env.payload, |r| r.get_f64())?;
            let payment = WireWriter::frame(|w| w.put_f64(price * routed));
            Ok(net.send(PartyId(member), env.from, "dist/payment", payment)?)
        })
        .await?;
    }
    // … and every router gathers its payments, checking each echo
    // against its own `price · energy` bit for bit: a payment for any
    // other amount is not this trade's.
    for &router in other_side {
        let senders = pairs
            .iter()
            .filter(|p| p.3 == router)
            .map(|p| (p.4, price * p.2));
        gather(net, router, "dist/payment", senders, |_, env, payment| {
            let echoed = WireReader::frame(&env.payload, |r| r.get_f64())?;
            if echoed.to_bits() != payment.to_bits() {
                return Err(PemError::Protocol(
                    "payment differs from price × routed energy",
                ));
            }
            Ok(())
        })
        .await?;
    }
    let trades = pairs
        .into_iter()
        .map(|(s, b, energy, ..)| Trade {
            seller: AgentId(agents[s].data.id.0),
            buyer: AgentId(agents[b].data.id.0),
            energy,
            payment: price * energy,
        })
        .collect();
    settle_span.finish_at(net.now_us());

    Ok(DistributionOutcome {
        trades,
        ratios,
        decryptor,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::agents::Market;
    use crate::fold::Topology;
    use pem_fabric::block_on;
    use pem_market::{allocate, AgentWindow, MarketKind};
    use pem_net::{Envelope, NetError, NetStats, SimNetwork};

    /// One agent per net surplus: sellers generate it, buyers load it.
    fn rows(surpluses: &[f64]) -> Vec<AgentWindow> {
        (surpluses.iter().enumerate())
            .map(|(i, &s)| {
                if s >= 0.0 {
                    AgentWindow::new(i, s, 0.0, 0.0, 0.9, 25.0)
                } else {
                    AgentWindow::new(i, 0.0, -s, 0.0, 0.9, 25.0)
                }
            })
            .collect()
    }

    impl Market {
        /// Protocol 4 at `price` on `net`.
        fn run_on(
            &self,
            net: &mut SimNetwork,
            price: f64,
            general_market: bool,
        ) -> Result<DistributionOutcome, PemError> {
            block_on(run(net, &self.coalition(), price, general_market))
        }

        /// Protocol 4 at `price` on a fresh fabric, which it must leave
        /// empty.
        fn settle(&self, price: f64, general_market: bool) -> DistributionOutcome {
            let mut net = SimNetwork::new(self.data.len());
            let out = self.run_on(&mut net, price, general_market);
            assert_eq!(net.pending(), 0);
            out.expect("protocol 4")
        }
    }

    fn plaintext_trades(surpluses: &[f64], price: f64) -> Vec<Trade> {
        let rows = rows(surpluses);
        let sellers: Vec<_> = (rows.iter())
            .filter(|a| a.net_energy() > 0.0)
            .copied()
            .collect();
        let buyers: Vec<_> = (rows.iter())
            .filter(|a| a.net_energy() < 0.0)
            .copied()
            .collect();
        allocate(&sellers, &buyers, price)
    }

    fn assert_trades_close(a: &[Trade], b: &[Trade], tol: f64) {
        assert_eq!(a.len(), b.len(), "trade counts differ");
        for (x, y) in a.iter().zip(b.iter()) {
            assert_eq!(x.seller, y.seller);
            assert_eq!(x.buyer, y.buyer);
            assert!(
                (x.energy - y.energy).abs() < tol,
                "energy {} vs {}",
                x.energy,
                y.energy
            );
            assert!(
                (x.payment - y.payment).abs() < tol * 200.0,
                "payment {} vs {}",
                x.payment,
                y.payment
            );
        }
    }

    #[test]
    fn general_market_matches_plaintext_allocation() {
        let surpluses = [2.0, 3.0, -4.0, -2.0, -2.0]; // E_s = 5 < E_b = 8
        let out = Market::new(rows(&surpluses)).settle(100.0, true);
        assert_trades_close(&out.trades, &plaintext_trades(&surpluses, 100.0), 1e-6);
    }

    #[test]
    fn extreme_market_matches_plaintext_allocation() {
        let surpluses = [6.0, 4.0, -1.5, -2.5]; // E_s = 10 ≥ E_b = 4
        let out = Market::new(rows(&surpluses)).settle(90.0, false);
        assert_trades_close(&out.trades, &plaintext_trades(&surpluses, 90.0), 1e-6);
    }

    #[test]
    fn ratios_sum_to_one() {
        let market = Market::new(rows(&[2.0, -1.0, -3.0, -4.0]));
        let out = market.settle(95.0, true);
        // Per-ratio relative error is bounded by sn_max/(2K) ≈ 2^-23.
        let total: f64 = out.ratios.iter().sum();
        assert!((total - 1.0).abs() < 1e-6, "ratio sum {total}");
        // The decryptor is a seller in the general market.
        assert!(market.coalition().sellers.contains(&out.decryptor));
    }

    #[test]
    fn conservation_of_energy_and_money() {
        let out = Market::new(rows(&[1.5, 2.5, -3.0, -5.0])).settle(100.0, true);
        let energy: f64 = out.trades.iter().map(|t| t.energy).sum();
        assert!((energy - 4.0).abs() < 1e-6, "all supply traded: {energy}");
        let money: f64 = out.trades.iter().map(|t| t.payment).sum();
        assert!(
            (money - 400.0).abs() < 1e-4,
            "payments match price: {money}"
        );
    }

    #[test]
    fn tiny_demands_survive_ratio_precision() {
        // A buyer at the quantization floor (1 µkWh) must not break the
        // exponent inversion. (E_s = 0.5 < E_b ≈ 0.75: general market.)
        let surpluses = [0.5, -1e-6, -0.75];
        let out = Market::new(rows(&surpluses)).settle(100.0, true);
        assert_trades_close(&out.trades, &plaintext_trades(&surpluses, 100.0), 1e-5);
    }

    #[test]
    fn empty_coalitions_rejected() {
        let market = Market::new(rows(&[1.0, 2.0]));
        assert!(matches!(
            market.run_on(&mut SimNetwork::new(2), 100.0, true),
            Err(PemError::Protocol(_))
        ));
    }

    #[test]
    fn traffic_labelled_for_table1() {
        let market = Market::new(rows(&[2.0, -1.0, -3.0]));
        let mut net = SimNetwork::new(3);
        market.run_on(&mut net, 100.0, true).expect("protocol 4");
        let s = net.stats();
        for label in [
            "dist/total-agg",
            "dist/ratio-req",
            "dist/energy",
            "dist/payment",
        ] {
            assert!(s.per_label.contains_key(label), "missing {label}");
        }
        // Pairwise settlement: |sellers| × |buyers| energy messages.
        assert_eq!(s.per_label["dist/energy"].messages, 2);
    }

    #[test]
    fn stray_settlement_frames_abort_with_a_protocol_error() {
        // Sellers 0, 1; buyers 2, 3; party 4 is off the market.
        let market = Market::new(rows(&[2.0, 3.0, -4.0, -2.0, 0.0]));
        let f64_frame = |v: f64| {
            let mut w = WireWriter::new();
            w.put_f64(v);
            w.finish()
        };
        // A replayed frame from an expected counterparty is the retryable
        // `Unread`, not a protocol error: the sender-rule test in
        // `fabric_window` pins it for every label.
        let cases = [
            ("energy from a buyer", (2, 3, "dist/energy", f64_frame(1.0))),
            (
                "energy from off the market",
                (4, 3, "dist/energy", f64_frame(1.0)),
            ),
            (
                "payment from a seller",
                (0, 1, "dist/payment", f64_frame(1.0)),
            ),
            (
                "payment of another amount",
                (3, 1, "dist/payment", f64_frame(1.0)),
            ),
        ];
        // Receives are addressed by label, so a stray queued before the
        // protocol starts waits for the sweep that reads its label.
        for (case, (from, to, label, payload)) in cases {
            let mut net = SimNetwork::new(5);
            net.send(PartyId(from), PartyId(to), label, payload)
                .expect("stray");
            let result = market.run_on(&mut net, 100.0, true);
            assert!(
                matches!(result, Err(PemError::Protocol(_))),
                "{case}: got {result:?}"
            );
        }
    }

    /// A [`SimNetwork`] that keeps a copy of every frame it is handed.
    struct Recording {
        net: SimNetwork,
        frames: Vec<(usize, usize, &'static str, Vec<u8>)>,
    }

    impl Transport for Recording {
        fn party_count(&self) -> usize {
            self.net.party_count()
        }

        fn send(
            &mut self,
            from: PartyId,
            to: PartyId,
            label: &'static str,
            payload: Vec<u8>,
        ) -> Result<(), NetError> {
            self.frames.push((from.0, to.0, label, payload.clone()));
            self.net.send(from, to, label, payload)
        }

        fn recv(&mut self, to: PartyId) -> Option<Envelope> {
            self.net.recv(to)
        }

        fn recv_expect(&mut self, to: PartyId, label: &'static str) -> Result<Envelope, NetError> {
            self.net.recv_expect(to, label)
        }

        fn stats(&self) -> NetStats {
            self.net.stats()
        }

        fn now_us(&self) -> u64 {
            self.net.now_us()
        }

        fn pending(&self) -> usize {
            self.net.pending()
        }
    }

    #[test]
    fn energy_is_routed_by_the_side_that_heard_the_ratios() {
        // Whole windows, ring and tree. In a general market the sellers
        // hear the ratios and every `dist/energy` frame goes seller →
        // buyer with sn_s · ratio_b; in an extreme market the buyers hear
        // them and every frame goes buyer → seller with |sn_b| · ratio_s.
        // Each value is the router's own net energy times the ratio in
        // the router's own copy: the `dist/ratios` frame it was sent, or
        // the vector it decrypted.
        for (surpluses, kind) in [
            (&[2.0, 3.0, -4.0, -2.0, -2.5][..], MarketKind::General),
            (&[5.0, 4.0, 3.5, -1.0, -2.5, -0.75][..], MarketKind::Extreme),
        ] {
            for topology in [Topology::Ring, Topology::tree()] {
                let case = format!("{kind:?} on the {topology}");
                let n = surpluses.len();
                let mut market = Market::new(rows(surpluses));
                market.cfg.topology = topology;
                let Coalition {
                    agents,
                    sellers,
                    buyers,
                    ..
                } = market.coalition();
                let mut net = Recording {
                    net: SimNetwork::new(n),
                    frames: Vec::new(),
                };
                let out = crate::Pem::new(market.cfg.clone(), n)
                    .expect("setup")
                    .run_window_on(&mut net, &market.data)
                    .expect("window");
                assert_eq!(out.kind, kind, "{case}");
                let (routers, ratio_side) = match kind {
                    MarketKind::General => (&sellers, &buyers),
                    _ => (&buyers, &sellers),
                };
                let copy_of = |router: usize| -> Vec<f64> {
                    let frame = net
                        .frames
                        .iter()
                        .find(|f| f.2 == "dist/ratios" && f.1 == router);
                    frame.map_or(out.revealed.allocation_ratios.clone(), |f| {
                        WireReader::frame(&f.3, |r| {
                            let count = r.get_varint()?;
                            (0..count)
                                .map(|_| r.get_f64())
                                .collect::<Result<_, NetError>>()
                        })
                        .expect("ratio announcement")
                    })
                };
                let mut routed = 0;
                for (from, to, _, payload) in net.frames.iter().filter(|f| f.2 == "dist/energy") {
                    let route = format!("{case}: P{from} → P{to}");
                    assert!(routers.contains(from), "{route}: not a router");
                    let pos = ratio_side.iter().position(|m| m == to).expect(&route);
                    let own_sn = super::dequantize(agents[*from].sn_q.abs());
                    let energy = WireReader::frame(payload, |r| r.get_f64()).expect("energy");
                    let expected = own_sn * copy_of(*from)[pos];
                    assert_eq!(energy.to_bits(), expected.to_bits(), "{route}");
                    routed += 1;
                }
                assert_eq!(routed, sellers.len() * buyers.len(), "{case}");
            }
        }
    }
}
