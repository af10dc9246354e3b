//! The coupling round: encrypted coalition positions, tree aggregation,
//! corridor pricing and inter-shard transfer scheduling.
//!
//! Wire protocol (all labels under the `couple/` namespace, all payloads
//! Paillier ciphertexts under the grid key or scalar schedule data —
//! never per-agent values):
//!
//! 1. `couple/up` — every shard representative sends **one** message up
//!    a binary aggregation tree: four ciphertexts (residual surplus,
//!    residual deficit, locally cleared volume, price·volume), each the
//!    homomorphic sum of its own position and its children's. The root
//!    forwards the grid totals to the coordinator.
//! 2. `couple/corridor` — the coordinator decrypts *only the grid
//!    totals*, derives the corridor price (volume-weighted average of
//!    coalition clearing prices, clamped into the PEM band) and
//!    announces it with the engage/skip decision.
//! 3. `couple/claim` — when engaged, **every** shard (constant traffic;
//!    message presence reveals nothing) sends its own residual, again
//!    encrypted under the grid key, directly to the coordinator.
//! 4. `couple/schedule` — the coordinator matches surplus against
//!    deficit coalitions greedily and notifies each involved shard of
//!    its transfer legs.
//!
//! Every receive is a [`gather`] under `pem-core`'s one rule (a stray
//! frame is a protocol error, a replay the retryable `Unread`). Each
//! shard reads and checks its corridor and schedule frames at the end
//! of the round, after the coordinator's last send, so no claim departs
//! later on the virtual clock; then the fabric must be empty.

use pem_bignum::BigUint;
use pem_core::fold::{expect_drained, fold, gather, read_ciphertext, Announcement, Topology};
use pem_core::{block_on, encrypt_under, KeyDirectory, PemError, RandomizerStreams};
use pem_crypto::paillier::Ciphertext;
use pem_market::PriceBand;
use pem_net::wire::{WireReader, WireWriter};
use pem_net::{NetStats, PartyId, SimNetwork, Transport};
use pem_telemetry::{CriticalPathReport, Span};
use serde::{Deserialize, Serialize};

use crate::config::CouplingConfig;
use crate::error::CouplingError;

/// Fixed-point energy scale: 1 unit = 1 µkWh (matches the ledger).
const ENERGY_SCALE: f64 = 1e6;
/// Fixed-point price scale: 1 unit = 1 milli-cent/kWh.
const PRICE_SCALE: f64 = 1e3;
/// Largest quantized residual or cleared volume one shard can publish:
/// the 1e9 kWh `quantize` admits, at [`ENERGY_SCALE`].
const MAX_QUANTITY_Q: u128 = 1_000_000_000_000_000;
/// Largest quantized price·volume one shard can publish: the 1e6 ¢/kWh
/// `quantize` admits, at [`PRICE_SCALE`], times [`MAX_QUANTITY_Q`].
const MAX_PV_Q: u128 = 1_000_000_000 * MAX_QUANTITY_Q;

const LABEL_UP: &str = "couple/up";
const LABEL_CORRIDOR: &str = "couple/corridor";
const LABEL_CLAIM: &str = "couple/claim";
const LABEL_SCHEDULE: &str = "couple/schedule";

/// One coalition's published position after its local clearing round —
/// everything here is a **coalition-level aggregate** its representative
/// already holds; no per-agent quantity appears.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct ShardPosition {
    /// Shard index (positions must be passed in shard order).
    pub shard: usize,
    /// `true` if the coalition cleared trades locally this window.
    pub traded: bool,
    /// Local clearing price (¢/kWh; ignored unless `traded`).
    pub price: f64,
    /// Locally cleared volume (kWh; ignored unless `traded`).
    pub cleared_kwh: f64,
    /// Net residual after local clearing (kWh): positive = exportable
    /// surplus, negative = unmet demand.
    pub residual_kwh: f64,
}

/// One scheduled inter-shard transfer at the corridor price.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub struct ShardTransfer {
    /// Exporting (surplus) coalition.
    pub from_shard: usize,
    /// Importing (deficit) coalition.
    pub to_shard: usize,
    /// Energy in µkWh.
    pub energy_ukwh: u64,
}

impl ShardTransfer {
    /// Energy in kWh.
    pub fn energy_kwh(&self) -> f64 {
        self.energy_ukwh as f64 / ENERGY_SCALE
    }
}

/// What a coupling round disclosed and achieved — the summary the grid
/// report carries.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct CouplingSummary {
    /// Number of coalitions in the round.
    pub shards: usize,
    /// `true` if transfers were actually scheduled (enough matched
    /// residual on both sides).
    pub engaged: bool,
    /// The corridor price (¢/kWh): volume-weighted average of coalition
    /// clearing prices, clamped into the PEM band.
    pub corridor_price: f64,
    /// Cross-shard price dispersion *before* coupling (stddev of local
    /// clearing prices over trading shards).
    pub pre_dispersion: f64,
    /// Dispersion of effective coalition prices *after* coupling
    /// (residual volume re-priced at the corridor).
    pub post_dispersion: f64,
    /// Transfers scheduled.
    pub transfer_count: usize,
    /// Total energy moved between coalitions (kWh).
    pub transferred_kwh: f64,
    /// Welfare recovered versus settling the same residuals with the
    /// utility (cents): every transferred kWh avoids the retail/feed-in
    /// spread.
    pub welfare_gain_cents: f64,
    /// Grid-wide residual surplus (kWh) — a decrypted *total*, the
    /// round's sanctioned disclosure.
    pub surplus_kwh: f64,
    /// Grid-wide residual deficit (kWh) — likewise a total.
    pub deficit_kwh: f64,
    /// Critical-path latency of the round on the fabric's virtual clock
    /// (µs): the binary aggregation tree's depth-wise hops plus the
    /// corridor/claim/schedule exchanges, under the configured
    /// [`LatencyModel`](pem_net::LatencyModel). Zero under the default
    /// zero-latency model.
    pub critical_path_us: u64,
    /// Causal decomposition of that critical path into hops and phases,
    /// built from the telemetry message log — present only when the
    /// collector was installed during the round (observation only:
    /// excluded from fingerprints, never fed back into the protocol).
    pub critical_path: Option<CriticalPathReport>,
    /// Traffic of the coupling fabric (parties = shard representatives
    /// plus the coordinator). Message and byte counts depend only on the
    /// shard count — the wire-level witness that nothing per-agent
    /// crossed a coalition boundary.
    pub net: NetStats,
    /// Set by the orchestrator when this window's imbalance history
    /// triggered a re-partition.
    pub repartitioned: bool,
}

/// Everything a coupling round produced.
#[derive(Debug, Clone, PartialEq)]
pub struct CouplingOutcome {
    /// Scheduled transfers (empty when not engaged).
    pub transfers: Vec<ShardTransfer>,
    /// The round summary.
    pub summary: CouplingSummary,
}

/// Population standard deviation over the finite entries of `prices` —
/// the dispersion figure both sides of the coupling comparison use.
pub fn price_dispersion(prices: &[f64]) -> f64 {
    let finite: Vec<f64> = prices.iter().copied().filter(|p| p.is_finite()).collect();
    if finite.is_empty() {
        return 0.0;
    }
    let n = finite.len() as f64;
    let mean = finite.iter().sum::<f64>() / n;
    let var = finite.iter().map(|p| (p - mean) * (p - mean)).sum::<f64>() / n;
    var.max(0.0).sqrt()
}

/// A shard's quantized position.
struct Quantized {
    pos: u64,
    neg: u64,
    vol: u64,
    pv: u128,
    res: i128,
}

/// The grid coupling coordinator: owns the grid Paillier key, its
/// randomizer stream and the round logic. One instance persists across
/// a day's windows (key setup runs once; the stream only moves
/// forward).
#[derive(Debug)]
pub struct CouplingCoordinator {
    cfg: CouplingConfig,
    band: PriceBand,
    keys: KeyDirectory,
    streams: RandomizerStreams,
}

impl CouplingCoordinator {
    /// Sets up the coordinator: validates the configuration and
    /// generates the grid key pair, deterministically from `seed`
    /// (domain-separated from every per-agent key stream).
    ///
    /// # Errors
    ///
    /// Configuration or key-generation failures.
    pub fn new(
        cfg: CouplingConfig,
        band: PriceBand,
        seed: u64,
    ) -> Result<CouplingCoordinator, CouplingError> {
        cfg.validate()?;
        let grid_seed = seed ^ 0xC0_0B_11_46_0C_0A_57_A1;
        let keys = KeyDirectory::generate(1, cfg.key_bits, grid_seed)?;
        let streams = RandomizerStreams::new(keys.len(), grid_seed);
        Ok(CouplingCoordinator {
            cfg,
            band,
            keys,
            streams,
        })
    }

    /// The configuration in force.
    pub fn config(&self) -> &CouplingConfig {
        &self.cfg
    }

    /// Runs one coupling round over the coalitions' published positions
    /// on the default fabric: a [`SimNetwork`] carrying the configured
    /// latency model.
    ///
    /// # Errors
    ///
    /// [`CouplingError::Config`] for malformed positions, crypto or
    /// fabric failures otherwise.
    pub fn run_round(
        &mut self,
        positions: &[ShardPosition],
    ) -> Result<CouplingOutcome, CouplingError> {
        let mut net = SimNetwork::with_latency(positions.len() + 1, self.cfg.latency);
        self.run_round_on(&mut net, positions)
    }

    /// Runs one coupling round on a caller-provided transport (any
    /// [`Transport`] with `positions.len() + 1` parties: one per shard
    /// representative plus the coordinator). The summary snapshots the
    /// fabric's traffic and critical-path clock, so pass a fresh
    /// transport per round.
    ///
    /// # Errors
    ///
    /// As [`run_round`](CouplingCoordinator::run_round).
    pub fn run_round_on<T: Transport>(
        &mut self,
        net: &mut T,
        positions: &[ShardPosition],
    ) -> Result<CouplingOutcome, CouplingError> {
        let s = positions.len();
        if s == 0 {
            return Err(CouplingError::Config(
                "coupling round needs at least one shard".into(),
            ));
        }
        if net.party_count() != s + 1 {
            return Err(CouplingError::Config(format!(
                "coupling fabric must have {} parties (shards + coordinator), has {}",
                s + 1,
                net.party_count()
            )));
        }
        // Watermark the telemetry message buffer so the summary can
        // attribute exactly this round's traffic (no-op when the
        // collector is off).
        let msg_mark = pem_telemetry::msg_count();
        let quantized = self.quantize(positions)?;
        let pre_prices: Vec<f64> = positions
            .iter()
            .filter(|p| p.traded)
            .map(|p| p.price)
            .collect();
        let pre_dispersion = price_dispersion(&pre_prices);

        let coordinator = PartyId(s);
        let pk = self.keys.public(0).clone();

        // --- Phase 1: tree aggregation of encrypted positions. ---------
        // Binary tree over shard indices under the coordinator; positions
        // are encrypted in descending index order, as the tree visits them.
        let round_span = Span::enter_at("couple/round", "coupling", net.now_us());
        let up_span = Span::enter_at("couple/up", "coupling", net.now_us());
        let mut own = Vec::with_capacity(s);
        for q in quantized.iter().rev() {
            let mut enc = |m: BigUint| encrypt_under(&pk, 0, &m, &mut self.streams);
            own.push([
                enc(BigUint::from(q.pos))?,
                enc(BigUint::from(q.neg))?,
                enc(BigUint::from(q.vol))?,
                enc(BigUint::from(q.pv))?,
            ]);
        }
        own.reverse();
        let shards: Vec<usize> = (0..s).collect();
        let up = fold(net, &pk, &shards, s, LABEL_UP, Topology::tree(), own);
        let (total_cts, _) = block_on(up)?;

        // --- Coordinator: decrypt the grid totals (and nothing else yet).
        // Each total is bounded by what `quantize` admits per shard; a
        // mangled ciphertext decrypts far outside that (≈2^-78 odds of
        // landing inside it at a 128-bit key).
        let sk = self.keys.keypair(0).private();
        let shards = s as u128;
        let limits = [MAX_QUANTITY_Q, MAX_QUANTITY_Q, MAX_QUANTITY_Q, MAX_PV_Q].map(|l| shards * l);
        let mut totals = [0u128; 4];
        for ((t, m), limit) in totals
            .iter_mut()
            .zip(sk.decrypt_batch(&total_cts))
            .zip(limits)
        {
            *t = m
                .to_u128()
                .filter(|&v| v <= limit)
                .ok_or(PemError::Protocol(
                    "coupling aggregate outside the quantized range",
                ))?;
        }
        up_span.finish_at(net.now_us());
        let [surplus_q, deficit_q, vol_q, pv] = totals;
        let surplus_kwh = surplus_q as f64 / ENERGY_SCALE;
        let deficit_kwh = deficit_q as f64 / ENERGY_SCALE;

        // Corridor price: volume-weighted average of the coalition
        // clearing prices, clamped into the band. With no local trades
        // anywhere, fall back to the band midpoint.
        let corridor = if vol_q > 0 {
            self.band.clamp(pv as f64 / (vol_q as f64 * PRICE_SCALE))
        } else {
            self.band.clamp((self.band.floor + self.band.ceiling) / 2.0)
        };
        // Settle at milli-cent precision: the broadcast, every transfer
        // payment and the ledger block all carry the *same* quantized
        // corridor, so chain re-validation can never disagree with the
        // price the round actually used.
        let corridor_mc = (corridor * PRICE_SCALE).round() as u64;
        let corridor = corridor_mc as f64 / PRICE_SCALE;

        let min_transfer_q = (self.cfg.min_transfer_kwh * ENERGY_SCALE).round() as u64;
        let transferable_q = surplus_q.min(deficit_q);
        let engaged = s >= 2 && transferable_q >= u128::from(min_transfer_q.max(1));

        // --- Phase 2: corridor announcement. ---------------------------
        // Sent now, read at the end of the round: a shard's claim departs
        // at its own clock, not at the corridor's arrival.
        let corridor_span = Span::enter_at("couple/corridor", "coupling", net.now_us());
        let bytes = WireWriter::frame(|w| {
            w.put_varint(corridor_mc);
            w.put_bool(engaged);
        });
        let to = (0..s).map(|shard| (shard, bytes.clone()));
        let corridor_frames = Announcement::send(net, s, LABEL_CORRIDOR, to)?;
        corridor_span.finish_at(net.now_us());

        // --- Phase 3: claims (constant traffic: every shard sends). ----
        let mut transfers = Vec::new();
        let mut schedule_frames = None;
        if engaged {
            let claim_span = Span::enter_at("couple/claim", "coupling", net.now_us());
            for (i, q) in quantized.iter().enumerate() {
                let m = pk.encode_i128(q.res);
                let c = encrypt_under(&pk, 0, &m, &mut self.streams)?;
                let frame = WireWriter::frame(|w| w.put_biguint(c.as_biguint()));
                net.send(PartyId(i), coordinator, LABEL_CLAIM, frame)?;
            }
            // Gather and validate one claim per shard first, each at its
            // shard's index, then decrypt them as one batch over the
            // shared CRT context.
            let mut claim_cts = vec![Ciphertext::from_biguint(BigUint::zero()); s];
            let claims = gather(net, s, LABEL_CLAIM, (0..s).map(|i| (i, i)), |_, env, i| {
                claim_cts[i] = WireReader::frame(&env.payload, |r| read_ciphertext(&pk, r))?;
                Ok(())
            });
            block_on(claims)?;
            let mut exporters: Vec<(usize, u64)> = Vec::new();
            let mut importers: Vec<(usize, u64)> = Vec::new();
            let (mut claimed_surplus, mut claimed_deficit) = (0u128, 0u128);
            let claims: Vec<i128> = (claim_cts.iter())
                .map(|c| sk.decrypt_i128(c))
                .collect::<Result<_, _>>()?;
            for (from, res) in claims.into_iter().enumerate() {
                let (side, sum) = match res.signum() {
                    1 => (&mut exporters, &mut claimed_surplus),
                    -1 => (&mut importers, &mut claimed_deficit),
                    _ => continue,
                };
                let q = res.unsigned_abs();
                if q > MAX_QUANTITY_Q {
                    return Err(
                        PemError::Protocol("coupling claim outside the quantized range").into(),
                    );
                }
                *sum += q;
                side.push((from, q as u64));
            }
            // The claims split exactly the totals the tree aggregated: a
            // mangled claim decrypts to something else.
            if (claimed_surplus, claimed_deficit) != (surplus_q, deficit_q) {
                return Err(PemError::Protocol("coupling claims disagree with the totals").into());
            }
            transfers = schedule(exporters, importers, min_transfer_q.max(1));
            claim_span.finish_at(net.now_us());

            // --- Phase 4: schedule notifications. ----------------------
            let schedule_span = Span::enter_at("couple/schedule", "coupling", net.now_us());
            let mut legs: Vec<Vec<(bool, usize, u64)>> = vec![Vec::new(); s];
            for t in &transfers {
                legs[t.from_shard].push((true, t.to_shard, t.energy_ukwh));
                legs[t.to_shard].push((false, t.from_shard, t.energy_ukwh));
            }
            let to = legs.iter().enumerate().filter(|(_, l)| !l.is_empty());
            let to = to.map(|(shard, shard_legs)| {
                let frame = WireWriter::frame(|w| {
                    w.put_varint(shard_legs.len() as u64);
                    for &(export, peer, q) in shard_legs {
                        w.put_bool(export);
                        w.put_varint(peer as u64);
                        w.put_varint(q);
                    }
                });
                (shard, frame)
            });
            schedule_frames = Some(Announcement::send(net, s, LABEL_SCHEDULE, to)?);
            schedule_span.finish_at(net.now_us());
        }
        // Each shard reads and checks its corridor frame, and a shard
        // with legs its schedule; then nothing may be left queued.
        let corridor_read = corridor_frames.hear(net, |r| Ok((r.get_varint()?, r.get_bool()?)));
        block_on(corridor_read)?;
        if let Some(frames) = schedule_frames {
            // A count, then `(export, peer, energy)` per leg.
            let legs = |r: &mut WireReader<'_>| -> Result<Vec<_>, PemError> {
                let count = r.get_varint()?;
                (0..count)
                    .map(|_| Ok((r.get_bool()?, r.get_varint()?, r.get_varint()?)))
                    .collect()
            };
            block_on(frames.hear(net, legs))?;
        }
        expect_drained(net)?;
        round_span.finish_at(net.now_us());

        let transferred_kwh: f64 = transfers.iter().map(ShardTransfer::energy_kwh).sum();
        let post_dispersion = post_coupling_dispersion(positions, &transfers, corridor);
        let critical_path = pem_telemetry::enabled()
            .then(|| {
                CriticalPathReport::for_fabric(
                    &pem_telemetry::msgs_since(msg_mark),
                    net.fabric_id(),
                )
            })
            .filter(|r| r.total_us > 0);
        let summary = CouplingSummary {
            shards: s,
            engaged: engaged && !transfers.is_empty(),
            corridor_price: corridor,
            pre_dispersion,
            post_dispersion,
            transfer_count: transfers.len(),
            transferred_kwh,
            welfare_gain_cents: transferred_kwh * (self.band.grid_retail - self.band.grid_feed_in),
            surplus_kwh,
            deficit_kwh,
            critical_path_us: net.now_us(),
            critical_path,
            net: net.stats(),
            repartitioned: false,
        };
        Ok(CouplingOutcome { transfers, summary })
    }

    /// Validates and quantizes the positions into the fixed-point grid.
    fn quantize(&self, positions: &[ShardPosition]) -> Result<Vec<Quantized>, CouplingError> {
        positions
            .iter()
            .enumerate()
            .map(|(i, p)| {
                if p.shard != i {
                    return Err(CouplingError::Config(format!(
                        "positions must be in shard order: expected {i}, got {}",
                        p.shard
                    )));
                }
                if !p.residual_kwh.is_finite() || p.residual_kwh.abs() > 1e9 {
                    return Err(CouplingError::Config(format!(
                        "shard {i}: residual {} outside the representable range",
                        p.residual_kwh
                    )));
                }
                // Upper bounds keep the `as u64` casts below off their
                // saturation points and the homomorphic aggregates well
                // inside the grid key's message space.
                if p.traded && !(p.price > 0.0 && p.price <= 1e6) {
                    return Err(CouplingError::Config(format!(
                        "shard {i}: clearing price {} outside (0, 1e6] ¢/kWh",
                        p.price
                    )));
                }
                if p.traded && !(p.cleared_kwh >= 0.0 && p.cleared_kwh <= 1e9) {
                    return Err(CouplingError::Config(format!(
                        "shard {i}: cleared volume {} outside [0, 1e9] kWh",
                        p.cleared_kwh
                    )));
                }
                let res = (p.residual_kwh * ENERGY_SCALE).round() as i128;
                let vol = if p.traded {
                    (p.cleared_kwh * ENERGY_SCALE).round() as u64
                } else {
                    0
                };
                let price_mc = if p.traded {
                    (p.price * PRICE_SCALE).round() as u64
                } else {
                    0
                };
                Ok(Quantized {
                    pos: res.max(0) as u64,
                    neg: (-res).max(0) as u64,
                    vol,
                    pv: u128::from(price_mc) * u128::from(vol),
                    res,
                })
            })
            .collect()
    }
}

/// Greedy largest-first matching of surplus against deficit coalitions.
/// Deterministic: both sides sort by quantity descending with shard
/// index as the tiebreak; legs below `min_q` are dropped as dust.
fn schedule(
    mut exporters: Vec<(usize, u64)>,
    mut importers: Vec<(usize, u64)>,
    min_q: u64,
) -> Vec<ShardTransfer> {
    let by_qty = |a: &(usize, u64), b: &(usize, u64)| b.1.cmp(&a.1).then(a.0.cmp(&b.0));
    exporters.sort_by(by_qty);
    importers.sort_by(by_qty);
    let mut out = Vec::new();
    let (mut e, mut i) = (0usize, 0usize);
    let mut e_rem = exporters.first().map_or(0, |x| x.1);
    let mut i_rem = importers.first().map_or(0, |x| x.1);
    while e < exporters.len() && i < importers.len() {
        let q = e_rem.min(i_rem);
        if q >= min_q {
            out.push(ShardTransfer {
                from_shard: exporters[e].0,
                to_shard: importers[i].0,
                energy_ukwh: q,
            });
        }
        e_rem -= q;
        i_rem -= q;
        if e_rem < min_q {
            e += 1;
            e_rem = exporters.get(e).map_or(0, |x| x.1);
        }
        if i_rem < min_q {
            i += 1;
            i_rem = importers.get(i).map_or(0, |x| x.1);
        }
    }
    out
}

/// Effective per-coalition prices after coupling: residual volume moved
/// at the corridor blends into the local clearing price; coalitions that
/// only participate through transfers enter at the corridor exactly.
fn post_coupling_dispersion(
    positions: &[ShardPosition],
    transfers: &[ShardTransfer],
    corridor: f64,
) -> f64 {
    let mut moved = vec![0u64; positions.len()];
    for t in transfers {
        moved[t.from_shard] += t.energy_ukwh;
        moved[t.to_shard] += t.energy_ukwh;
    }
    let mut post = Vec::new();
    for p in positions {
        let m = moved[p.shard] as f64 / ENERGY_SCALE;
        if p.traded && p.cleared_kwh > 0.0 {
            post.push((p.cleared_kwh * p.price + m * corridor) / (p.cleared_kwh + m));
        } else if m > 0.0 {
            post.push(corridor);
        }
    }
    price_dispersion(&post)
}

#[cfg(test)]
mod tests {
    use super::*;
    use pem_crypto::drbg::HashDrbg;

    fn coordinator() -> CouplingCoordinator {
        CouplingCoordinator::new(CouplingConfig::fast_test(), PriceBand::paper_defaults(), 11)
            .expect("coordinator")
    }

    fn position(shard: usize, price: f64, cleared: f64, residual: f64) -> ShardPosition {
        ShardPosition {
            shard,
            traded: cleared > 0.0,
            price,
            cleared_kwh: cleared,
            residual_kwh: residual,
        }
    }

    #[test]
    fn round_couples_surplus_and_deficit() {
        let mut c = coordinator();
        let positions = vec![
            position(0, 92.0, 3.0, 2.0),   // cheap, long
            position(1, 108.0, 2.0, -1.5), // expensive, short
            position(2, 100.0, 1.0, -0.25),
            position(3, 96.0, 2.0, 0.5),
        ];
        let out = c.run_round(&positions).expect("round");
        assert!(out.summary.engaged);
        assert!((out.summary.surplus_kwh - 2.5).abs() < 1e-9);
        assert!((out.summary.deficit_kwh - 1.75).abs() < 1e-9);
        // Everything matchable moves: min(2.5, 1.75).
        assert!((out.summary.transferred_kwh - 1.75).abs() < 1e-9);
        // Corridor is the volume-weighted mean, inside the band.
        let vwap = (92.0 * 3.0 + 108.0 * 2.0 + 100.0 * 1.0 + 96.0 * 2.0) / 8.0;
        assert!((out.summary.corridor_price - vwap).abs() < 1e-3);
        // Coupling must tighten the price spread.
        assert!(out.summary.post_dispersion < out.summary.pre_dispersion);
        assert!(out.summary.welfare_gain_cents > 0.0);
        // Largest exporter pairs with largest importer first.
        assert_eq!(out.transfers[0].from_shard, 0);
        assert_eq!(out.transfers[0].to_shard, 1);
        // No coalition appears on both sides.
        for t in &out.transfers {
            assert_ne!(t.from_shard, t.to_shard);
        }
    }

    #[test]
    fn one_sided_grid_does_not_engage() {
        let mut c = coordinator();
        let positions = vec![
            position(0, 95.0, 2.0, 1.0),
            position(1, 97.0, 1.0, 0.5), // everyone long: nothing to match
        ];
        let out = c.run_round(&positions).expect("round");
        assert!(!out.summary.engaged);
        assert!(out.transfers.is_empty());
        assert_eq!(out.summary.transferred_kwh, 0.0);
        // Aggregation + corridor broadcast still ran (2 up + 2 down).
        assert_eq!(out.summary.net.total_messages, 4);
    }

    #[test]
    fn round_is_deterministic() {
        let positions = vec![
            position(0, 92.0, 3.0, 2.0),
            position(1, 108.0, 2.0, -1.5),
            position(2, 100.0, 1.0, -0.25),
        ];
        let a = coordinator().run_round(&positions).expect("a");
        let b = coordinator().run_round(&positions).expect("b");
        assert_eq!(a, b);
    }

    #[test]
    fn traffic_depends_only_on_shard_count() {
        // The same shard count with wildly different coalition economics
        // must produce identical message counts — the wire-level privacy
        // argument (nothing per-agent, nothing data-dependent beyond the
        // engage bit and leg count).
        let mut c = coordinator();
        let small = vec![
            position(0, 92.0, 0.1, 0.05),
            position(1, 108.0, 0.1, -0.05),
            position(2, 100.0, 0.1, 0.01),
        ];
        let big = vec![
            position(0, 90.0, 500.0, 300.0),
            position(1, 110.0, 800.0, -250.0),
            position(2, 104.0, 200.0, 100.0),
        ];
        let a = c.run_round(&small).expect("small");
        let b = c.run_round(&big).expect("big");
        assert_eq!(a.summary.net.total_messages, b.summary.net.total_messages);
        assert_eq!(
            a.summary.net.label_totals("couple/up").messages,
            3,
            "one up-message per shard"
        );
        assert!(a
            .summary
            .net
            .per_label
            .keys()
            .all(|l| l.starts_with("couple/")));
    }

    #[test]
    fn untraded_shard_with_residual_joins_at_corridor() {
        let mut c = coordinator();
        // Shard 1 had no local market (all buyers) — its deficit still
        // couples, priced at the corridor.
        let positions = vec![position(0, 95.0, 4.0, 3.0), {
            let mut p = position(1, 0.0, 0.0, -2.0);
            p.traded = false;
            p
        }];
        let out = c.run_round(&positions).expect("round");
        assert!(out.summary.engaged);
        assert!((out.summary.transferred_kwh - 2.0).abs() < 1e-9);
        assert!((out.summary.corridor_price - 95.0).abs() < 1e-3);
    }

    #[test]
    fn dust_residuals_are_ignored() {
        let mut c = coordinator();
        let positions = vec![
            position(0, 95.0, 1.0, 1e-5), // below min_transfer_kwh
            position(1, 99.0, 1.0, -1e-5),
        ];
        let out = c.run_round(&positions).expect("round");
        assert!(!out.summary.engaged);
        assert!(out.transfers.is_empty());
    }

    #[test]
    fn rejects_malformed_positions() {
        let mut c = coordinator();
        assert!(c.run_round(&[]).is_err());
        let out_of_order = vec![position(1, 95.0, 1.0, 0.5)];
        assert!(c.run_round(&out_of_order).is_err());
        let mut nan = vec![position(0, 95.0, 1.0, 0.5)];
        nan[0].residual_kwh = f64::NAN;
        assert!(c.run_round(&nan).is_err());
    }

    #[test]
    fn hostile_up_frames_are_typed_errors() {
        use pem_crypto::CryptoError;
        // A forged frame from shard 1 reaches shard 0 ahead of the
        // honest ones; the round must abort, not fold it in.
        fn forged(mut net: SimNetwork, frame: &[BigUint]) -> CouplingError {
            let mut w = WireWriter::new();
            frame.iter().for_each(|c| w.put_biguint(c));
            net.send(PartyId(1), PartyId(0), LABEL_UP, w.finish())
                .expect("send");
            coordinator()
                .run_round_on(&mut net, &engaged_positions())
                .expect_err("a hostile frame must abort the round")
        }
        let zeroed = vec![BigUint::zero(); 4];
        let out_of_range = vec![BigUint::one() << 600; 4];
        let truncated = vec![BigUint::from(7u64)];
        for (frame, crypto) in [(zeroed, true), (out_of_range, true), (truncated, false)] {
            let e = forged(SimNetwork::new(4), &frame);
            let typed = match e {
                CouplingError::Crypto(CryptoError::InvalidCiphertext) => crypto,
                CouplingError::Net(_) => !crypto,
                _ => false,
            };
            assert!(typed, "{e}");
        }
        // Four valid ciphertexts of 2^100 in place of shard 2's frame
        // (queued ahead of the honest one, they would make shard 1's
        // honest frame a replay): the totals leave the range `quantize`
        // admits instead of pricing the corridor.
        let pk = coordinator().keys.public(0).clone();
        let mut rng = HashDrbg::new(b"forged-up");
        let mut huge = WireWriter::new();
        for _ in 0..4 {
            huge.put_biguint(pk.encrypt(&(BigUint::one() << 100), &mut rng).as_biguint());
        }
        let mut net = Forged::replacing(SimNetwork::new(4), LABEL_UP, huge.finish());
        let e = coordinator()
            .run_round_on(&mut net, &engaged_positions())
            .expect_err("out-of-range totals must abort the round");
        assert!(
            matches!(e, CouplingError::Pem(PemError::Protocol(_))),
            "{e}"
        );
    }

    /// A one-shot rewrite of a payload.
    type Edit = Box<dyn FnOnce(Vec<u8>) -> Vec<u8>>;

    /// A fabric that rewrites the payload of the first message sent under
    /// `label`: a peer lying on the wire.
    struct Forged {
        inner: SimNetwork,
        label: &'static str,
        edit: Option<Edit>,
    }

    impl Forged {
        /// The first `label` frame replaced by `payload`.
        fn replacing(inner: SimNetwork, label: &'static str, payload: Vec<u8>) -> Forged {
            Forged {
                inner,
                label,
                edit: Some(Box::new(move |_| payload)),
            }
        }
    }

    impl Transport for Forged {
        fn party_count(&self) -> usize {
            self.inner.party_count()
        }
        fn send(
            &mut self,
            from: PartyId,
            to: PartyId,
            label: &'static str,
            payload: Vec<u8>,
        ) -> Result<(), pem_net::NetError> {
            let payload = match self.edit.take() {
                Some(edit) if label == self.label => edit(payload),
                edit => {
                    self.edit = edit;
                    payload
                }
            };
            self.inner.send(from, to, label, payload)
        }
        fn recv(&mut self, to: PartyId) -> Option<pem_net::Envelope> {
            self.inner.recv(to)
        }
        fn recv_expect(
            &mut self,
            to: PartyId,
            label: &'static str,
        ) -> Result<pem_net::Envelope, pem_net::NetError> {
            self.inner.recv_expect(to, label)
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

    #[test]
    fn out_of_range_claim_is_a_typed_error() {
        use pem_crypto::CryptoError;
        // Under a 256-bit grid key, shard 0 claims Enc(n/4): a valid
        // ciphertext whose signed decoding is ±2^254, far outside i128.
        let cfg = CouplingConfig {
            key_bits: 256,
            ..CouplingConfig::fast_test()
        };
        let mut c =
            CouplingCoordinator::new(cfg, PriceBand::paper_defaults(), 11).expect("coordinator");
        let pk = c.keys.public(0).clone();
        let mut rng = HashDrbg::new(b"forged-claim");
        let mut w = WireWriter::new();
        w.put_biguint(pk.encrypt(&(pk.n() >> 2), &mut rng).as_biguint());
        let positions = engaged_positions();
        let mut net = Forged::replacing(
            SimNetwork::new(positions.len() + 1),
            LABEL_CLAIM,
            w.finish(),
        );
        let e = c
            .run_round_on(&mut net, &positions)
            .expect_err("an out-of-range claim must abort the round");
        assert!(
            matches!(
                e,
                CouplingError::Crypto(CryptoError::MessageTooLarge { .. })
            ),
            "{e}"
        );
    }

    #[test]
    fn forged_claims_are_typed_errors() {
        use pem_crypto::CryptoError;
        // Shard 0's claim (+2 kWh) replaced on the wire.
        let forged = |claim: &BigUint| {
            let mut w = WireWriter::new();
            w.put_biguint(claim);
            let mut net = Forged::replacing(SimNetwork::new(4), LABEL_CLAIM, w.finish());
            coordinator()
                .run_round_on(&mut net, &engaged_positions())
                .expect_err("a forged claim must abort the round")
        };
        // Zero and n share a factor with n²: decrypting either reached
        // the L function's subtraction and panicked on its underflow.
        let pk = coordinator().keys.public(0).clone();
        for claim in [BigUint::zero(), pk.n().clone()] {
            let e = forged(&claim);
            assert!(
                matches!(e, CouplingError::Crypto(CryptoError::InvalidCiphertext)),
                "claim {claim:?}: {e}"
            );
        }
        // A valid claim of +1 kWh: in range, but the claims no longer
        // split the aggregated 2 kWh surplus.
        let mut rng = HashDrbg::new(b"forged-claim");
        let one_kwh = pk.encrypt(&pk.encode_i128(1_000_000), &mut rng);
        let e = forged(one_kwh.as_biguint());
        assert!(
            matches!(e, CouplingError::Pem(PemError::Protocol(_))),
            "{e}"
        );
    }

    /// Three shards whose residuals engage the round (2.0 kWh surplus,
    /// 1.75 kWh deficit), so every phase and label runs.
    fn engaged_positions() -> [ShardPosition; 3] {
        [
            position(0, 92.0, 3.0, 2.0),
            position(1, 108.0, 2.0, -1.5),
            position(2, 100.0, 1.0, -0.25),
        ]
    }

    #[test]
    fn a_trailing_byte_on_a_read_label_is_a_decode_error() {
        // Every frame of the round is read and decoded in full — the
        // tree's, the claims, and each shard's corridor and schedule —
        // so one byte past a frame's last field is not the frame its
        // sender encoded.
        let positions = engaged_positions();
        for label in [LABEL_UP, LABEL_CLAIM, LABEL_CORRIDOR, LABEL_SCHEDULE] {
            let mut net = Forged {
                inner: SimNetwork::new(positions.len() + 1),
                label,
                edit: Some(Box::new(|mut payload| {
                    payload.push(0);
                    payload
                })),
            };
            let result = coordinator().run_round_on(&mut net, &positions);
            assert!(
                matches!(
                    result,
                    Err(CouplingError::Net(pem_net::NetError::Decode {
                        what: "trailing bytes",
                        ..
                    }))
                ),
                "{label}: {result:?}"
            );
        }
    }

    #[test]
    fn faults_on_every_coupling_label_complete_clean_or_fail_typed() {
        use pem_net::{FaultKind, FaultPlan};
        let positions = engaged_positions();
        let round = |plan: FaultPlan| {
            coordinator().run_round_on(&mut SimNetwork::new(4).with_faults(plan), &positions)
        };
        assert!(
            round(FaultPlan::new())
                .expect("clean round")
                .summary
                .engaged
        );
        let kinds = [
            FaultKind::Drop,
            FaultKind::Duplicate,
            FaultKind::Corrupt,
            FaultKind::Truncate,
        ];
        for label in [LABEL_UP, LABEL_CORRIDOR, LABEL_CLAIM, LABEL_SCHEDULE] {
            for kind in kinds {
                for nth in [0, 2] {
                    let case = format!("{label}#{nth}/{kind:?}");
                    // Every frame of the round is gathered and checked,
                    // the corridor and the schedule included, so every
                    // fault aborts — a duplicate as the retryable
                    // `Unread` — and none completes.
                    match round(FaultPlan::new().inject(label, nth, kind)) {
                        Ok(_) => panic!("{case}: completed"),
                        Err(
                            CouplingError::Net(_)
                            | CouplingError::Crypto(_)
                            | CouplingError::Pem(PemError::Protocol(_)),
                        ) => {}
                        Err(e) => panic!("{case}: unexpected error class {e}"),
                    }
                }
            }
        }
    }

    #[test]
    fn every_label_refuses_a_stranger_and_retries_a_replay() {
        use pem_net::{FaultKind, FaultPlan};
        // For each label of an engaged round, the first frame `from → to`
        // of that label in the clean round's message journal. A frame
        // queued to `to` under the label before the round, from a party
        // that never sends it there, is a protocol error; a duplicate of
        // the frame is the retryable `Unread`. Every shard claims to the
        // coordinator, so `couple/claim` has no stranger to try.
        let positions = engaged_positions();
        pem_telemetry::install();
        let mark = pem_telemetry::msg_count();
        let mut net = SimNetwork::new(4);
        coordinator()
            .run_round_on(&mut net, &positions)
            .expect("clean round");
        let journal: Vec<(usize, usize, &str)> = pem_telemetry::msgs_since(mark)
            .iter()
            .filter(|m| m.fabric == net.fabric_id())
            .map(|m| (m.from, m.to, m.label))
            .collect();
        for label in [LABEL_UP, LABEL_CORRIDOR, LABEL_CLAIM, LABEL_SCHEDULE] {
            let &(from, to, _) = journal.iter().find(|m| m.2 == label).expect("sent");
            let case = format!("{label} P{from}→P{to}");
            let stranger = (0..4).find(|&p| p != to && !journal.contains(&(p, to, label)));
            assert_eq!(stranger.is_none(), label == LABEL_CLAIM, "{case}");
            if let Some(stranger) = stranger {
                let mut net = SimNetwork::new(4);
                net.send(PartyId(stranger), PartyId(to), label, vec![0])
                    .expect("stray");
                let result = coordinator().run_round_on(&mut net, &positions);
                assert!(
                    matches!(result, Err(CouplingError::Pem(PemError::Protocol(_)))),
                    "{case}, stranger P{stranger}: {result:?}"
                );
            }
            let plan = FaultPlan::new().inject(label, 0, FaultKind::Duplicate);
            let mut net = SimNetwork::new(4).with_faults(plan);
            let result = coordinator().run_round_on(&mut net, &positions);
            assert!(
                matches!(
                    result,
                    Err(CouplingError::Net(pem_net::NetError::Unread { label: l, .. })) if l == label
                ),
                "{case}, replayed: {result:?}"
            );
        }
    }

    #[test]
    fn latency_model_reports_tree_critical_path() {
        use pem_net::LatencyModel;
        // 15 shards: a full binary aggregation tree of depth 4 (to the
        // coordinator). Under the LAN model the round must report a
        // non-zero critical path that reflects tree *depth*, not the
        // total message volume.
        let mut c = CouplingCoordinator::new(
            CouplingConfig::fast_test().with_latency(LatencyModel::lan()),
            PriceBand::paper_defaults(),
            11,
        )
        .expect("coordinator");
        let positions: Vec<ShardPosition> = (0..15)
            .map(|i| {
                let residual = if i % 2 == 0 { 1.0 } else { -1.0 };
                position(i, 90.0 + i as f64, 2.0, residual)
            })
            .collect();
        let out = c.run_round(&positions).expect("round");
        let cp = out.summary.critical_path_us;
        assert!(cp > 0, "LAN model must surface a critical path");
        // The volume figure (every message's charge summed) is far
        // larger than the depth-wise critical path on 15 shards.
        let per_msg_floor = LatencyModel::lan().charge_us(1);
        let volume_floor = out.summary.net.total_messages * per_msg_floor;
        assert!(
            cp < volume_floor,
            "critical path {cp}µs must beat the serial volume {volume_floor}µs"
        );

        // The zero-latency default reports zero.
        let mut z = coordinator();
        let out = z.run_round(&positions).expect("round");
        assert_eq!(out.summary.critical_path_us, 0);
    }

    #[test]
    fn collector_attributes_the_round_critical_path() {
        use pem_net::LatencyModel;
        // With the collector installed, the summary carries a causal
        // decomposition whose total is exactly the measured critical
        // path and whose phase shares tile it.
        pem_telemetry::install();
        let mut c = CouplingCoordinator::new(
            CouplingConfig::fast_test().with_latency(LatencyModel::lan()),
            PriceBand::paper_defaults(),
            11,
        )
        .expect("coordinator");
        let positions = vec![
            position(0, 92.0, 3.0, 2.0),
            position(1, 108.0, 2.0, -1.5),
            position(2, 100.0, 1.0, -0.25),
        ];
        let out = c.run_round(&positions).expect("round");
        let report = out.summary.critical_path.expect("collector on");
        assert_eq!(report.total_us, out.summary.critical_path_us);
        let phase_sum: u64 = report.phase_us.iter().map(|(_, us)| us).sum();
        assert_eq!(phase_sum, report.total_us);
        assert!(report.hops.iter().all(|h| h.label.starts_with("couple/")));
        // Zero-latency rounds (the default config) carry no report even
        // with the collector on: there is no path to decompose.
        let mut z = coordinator();
        let out = z.run_round(&positions).expect("round");
        assert_eq!(out.summary.critical_path, None);
    }

    #[test]
    fn dispersion_helper_is_degenerate_safe() {
        assert_eq!(price_dispersion(&[]), 0.0);
        assert_eq!(price_dispersion(&[101.5]), 0.0);
        assert_eq!(price_dispersion(&[100.0, 100.0, 100.0]), 0.0);
        assert_eq!(price_dispersion(&[f64::NAN, f64::INFINITY]), 0.0);
        assert!((price_dispersion(&[98.0, 102.0]) - 2.0).abs() < 1e-12);
    }

    #[test]
    fn schedule_matches_largest_first() {
        let exporters = vec![(0, 5_000_000), (2, 1_000_000)];
        let importers = vec![(1, 4_000_000), (3, 3_000_000)];
        let out = schedule(exporters, importers, 1);
        assert_eq!(
            out,
            vec![
                ShardTransfer {
                    from_shard: 0,
                    to_shard: 1,
                    energy_ukwh: 4_000_000
                },
                ShardTransfer {
                    from_shard: 0,
                    to_shard: 3,
                    energy_ukwh: 1_000_000
                },
                ShardTransfer {
                    from_shard: 2,
                    to_shard: 3,
                    energy_ukwh: 1_000_000
                },
            ]
        );
    }
}
