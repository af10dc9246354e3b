//! Per-layer probes: timed calls from outside into each crate's public
//! functions, at the workload's key width, OT group and coalition size.
//! A layer is a crate; a probe's name starts with it.

use std::hint::black_box;
use std::time::{Duration, Instant};

use pem::bignum::{BigUint, Montgomery};
use pem::circuit::garble::{eval_garbled, garble, select_input_labels};
use pem::circuit::{comparator_circuit, compare::secure_less_than_local, u128_to_bits};
use pem::core::{Pem, RandomizerPool};
use pem::coupling::{CouplingConfig, CouplingCoordinator, ShardPosition};
use pem::crypto::drbg::HashDrbg;
use pem::crypto::ot::run_local_ot;
use pem::crypto::paillier::{Ciphertext, Keypair};
use pem::fabric::{EventTransport, Executor, FabricTask, Poll};
use pem::ledger::{Block, Ledger, SettlementContract};
use pem::market::{AgentWindow, MarketEngine};
use pem::net::wire::{WireReader, WireWriter};
use pem::net::{LatencyModel, MeshTransport, PartyId, SimNetwork, Transport};
use pem::sched::{pool, PartitionStrategy};

use crate::output::Metric;
use crate::workload::{Workload, BAND, WORKERS};

/// Every probe runs at least this long (after one untimed warm-up call)
/// and at least twice; the mean per call is reported.
const MIN_TIME: Duration = Duration::from_millis(300);

/// Mean seconds per call of `op`.
fn per_call(mut op: impl FnMut()) -> f64 {
    op(); // warm-up: lazy tables, first-touch allocations
    let start = Instant::now();
    let mut calls = 0u32;
    while calls < 2 || start.elapsed() < MIN_TIME {
        op();
        calls += 1;
    }
    start.elapsed().as_secs_f64() / f64::from(calls)
}

fn us(seconds: f64) -> f64 {
    seconds * 1e6
}

fn ms(seconds: f64) -> f64 {
    seconds * 1e3
}

/// A no-op task that is ready `polls` times: what the executor costs per
/// poll when the task itself costs nothing.
struct Countdown(u32);

impl FabricTask for Countdown {
    type Output = ();
    type Error = std::convert::Infallible;

    fn poll(&mut self) -> Result<Poll<()>, Self::Error> {
        self.0 -= 1;
        Ok(if self.0 == 0 {
            Poll::Ready(())
        } else {
            Poll::Pending
        })
    }

    fn is_ready(&self) -> bool {
        true
    }
}

/// Replays `blocks` (genesis excluded) into a fresh ledger.
fn replay(blocks: &[Block]) -> Ledger {
    let mut ledger = Ledger::new(SettlementContract::new(BAND));
    for b in blocks {
        if b.transfers.is_empty() {
            ledger.append_window(b.window, b.price(), &b.txs)
        } else {
            ledger.append_coupling(b.window, b.price(), &b.transfers)
        }
        .expect("a block the chain accepted replays");
    }
    ledger
}

/// What the window-level probes need from the run around them.
pub struct ProbeInput<'a> {
    pub workload: Workload,
    pub seed: u64,
    /// One coalition's population in a general-market window.
    pub coalition: &'a [AgentWindow],
    /// The whole population of that window.
    pub population: &'a [AgentWindow],
    /// The untraced pass's settlement chain, genesis excluded.
    pub blocks: &'a [Block],
}

/// Runs every probe. Takes 15–40 s depending on key width.
pub fn run(input: &ProbeInput<'_>) -> Vec<Metric> {
    let w = input.workload;
    let cfg = {
        let mut cfg = w.pem_config();
        cfg.seed = input.seed;
        cfg
    };
    let mut out = Vec::new();
    let mut push = |name, value, unit| out.push(Metric::new(name, value, unit));
    let mut rng = HashDrbg::from_seed_label(b"benchmark-probes", input.seed);

    // --- bignum + crypto: one key pair at the workload's width. --------
    let kp = Keypair::generate(cfg.key_bits, &mut rng);
    push(
        "crypto.keygen_ms",
        ms(per_call(|| {
            black_box(Keypair::generate(cfg.key_bits, &mut rng));
        })),
        "ms",
    );
    let (pk, sk) = (kp.public(), kp.private());
    let mont = Montgomery::new(pk.n_squared().clone()).expect("n² is odd");
    let bases: Vec<BigUint> = (0..2)
        .map(|_| BigUint::random_below(pk.n_squared(), &mut rng))
        .collect();
    let exps: Vec<BigUint> = (0..8)
        .map(|_| BigUint::random_below(pk.n(), &mut rng))
        .collect();
    let mut i = 0usize;
    let mut next = move || {
        i += 1;
        i % 8
    };
    push(
        "bignum.modpow_us",
        us(per_call(|| {
            black_box(mont.modpow(&bases[0], &exps[next()]));
        })),
        "us",
    );
    let table = mont.fixed_base_table(&bases[0], pk.bits());
    push(
        "bignum.fixed_base_pow_us",
        us(per_call(|| {
            black_box(table.pow(&exps[next()]));
        })),
        "us",
    );
    push(
        "bignum.multi_modpow_us",
        us(per_call(|| {
            let (a, b) = (next(), next());
            black_box(mont.multi_modpow(&[(&bases[0], &exps[a]), (&bases[1], &exps[b])]));
        })),
        "us",
    );

    let messages: Vec<BigUint> = (1..=8u64).map(|k| BigUint::from(1_000_003 * k)).collect();
    let cts: Vec<Ciphertext> = messages.iter().map(|m| pk.encrypt(m, &mut rng)).collect();
    let randomizers = pk.precompute_randomizers(8, &mut rng);
    // A quantized market scalar (≈ 2^26), as Protocols 2 and 4 multiply by.
    let scalar = BigUint::from((1u64 << 26) + 12_345);
    push(
        "crypto.encrypt_us",
        us(per_call(|| {
            black_box(pk.encrypt(&messages[next()], &mut rng));
        })),
        "us",
    );
    push(
        "crypto.encrypt_pooled_us",
        us(per_call(|| {
            let k = next();
            black_box(pk.try_encrypt_with(&messages[k], &randomizers[k])).expect("in range");
        })),
        "us",
    );
    push(
        "crypto.precompute_us",
        us(per_call(|| {
            black_box(sk.precompute_randomizers_crt(4, &mut rng));
        })) / 4.0,
        "us",
    );
    push(
        "crypto.add_us",
        us(per_call(|| {
            black_box(pk.add_ciphertexts(&cts[next()], &cts[next()]));
        })),
        "us",
    );
    push(
        "crypto.mul_plain_us",
        us(per_call(|| {
            black_box(pk.mul_plain(&cts[next()], &scalar));
        })),
        "us",
    );
    push(
        "crypto.affine_us",
        us(per_call(|| {
            black_box(pk.affine(&cts[next()], &scalar, &messages[next()]));
        })),
        "us",
    );
    push(
        "crypto.decrypt_us",
        us(per_call(|| {
            black_box(sk.decrypt(&cts[next()]));
        })),
        "us",
    );
    push(
        "crypto.decrypt_batch_us",
        us(per_call(|| {
            black_box(sk.decrypt_batch(&cts));
        })) / cts.len() as f64,
        "us",
    );

    // --- circuit + OT: the comparison at the workload's OT group. ------
    let group = cfg.ot_profile.group();
    let width = cfg.compare_bits;
    push(
        "crypto.ot_batch_ms",
        ms(per_call(|| {
            for bit in 0..width {
                black_box(run_local_ot(
                    &group,
                    &[0u8; 16],
                    &[1u8; 16],
                    bit % 2 == 0,
                    &mut rng,
                ))
                .expect("ot");
            }
        })),
        "ms",
    );
    let circuit = comparator_circuit(width);
    push(
        "circuit.garble_us",
        us(per_call(|| {
            black_box(garble(&circuit, &mut rng));
        })),
        "us",
    );
    let (garbled, secrets) = garble(&circuit, &mut rng);
    let labels = select_input_labels(
        &secrets,
        &u128_to_bits(123_456_789, width),
        &u128_to_bits(987_654_321, width),
    );
    push(
        "circuit.eval_us",
        us(per_call(|| {
            black_box(eval_garbled(&garbled, &labels)).expect("eval");
        })),
        "us",
    );
    push(
        "circuit.compare_ms",
        ms(per_call(|| {
            black_box(secure_less_than_local(
                123_456_789,
                987_654_321,
                width,
                &group,
                &mut rng,
            ))
            .expect("compare");
        })),
        "ms",
    );

    // --- core: one coalition, one thread, both window drivers. ---------
    let n = input.coalition.len();
    let start = Instant::now();
    let mut pem = Pem::new(cfg.clone(), n).expect("probe coalition");
    push("core.pem_new_s", start.elapsed().as_secs_f64(), "s");
    let mut phases = [0.0f64; 3];
    let mut windows = 0u32;
    let window_s = per_call(|| {
        let m = pem.run_window(input.coalition).expect("window").metrics;
        phases[0] += m.market_evaluation.elapsed.as_secs_f64();
        phases[1] += m.pricing.elapsed.as_secs_f64();
        phases[2] += m.distribution.elapsed.as_secs_f64();
        windows += 1;
    });
    push("core.window_ms", ms(window_s), "ms");
    push("core.eval_ms", ms(phases[0]) / f64::from(windows), "ms");
    push("core.price_ms", ms(phases[1]) / f64::from(windows), "ms");
    push("core.dist_ms", ms(phases[2]) / f64::from(windows), "ms");
    push(
        "core.fabric_window_ms",
        ms(per_call(|| {
            let task = pem.fabric_window(input.coalition).expect("task");
            black_box(Executor::new(1).run(vec![task])).expect("fabric window");
        })),
        "ms",
    );
    // Refilling one drawn randomizer under every key of the coalition.
    let mut pool = RandomizerPool::generate(pem.keys(), 1, input.seed);
    push(
        "core.pool_refill_ms",
        ms(per_call(|| {
            for key in 0..n {
                black_box(pool.take(key));
            }
            black_box(pool.refill(pem.keys()));
        })),
        "ms",
    );

    // --- market: the same coalition in the clear. -----------------------
    let market = MarketEngine::new(BAND);
    let plain_s = per_call(|| {
        black_box(market.run_window(input.coalition));
    });
    push("market.plaintext_window_us", us(plain_s), "us");
    push("market.privacy_overhead_x", window_s / plain_s, "x");

    // --- net + fabric: ciphertext-sized payloads on each transport. ----
    let payload = vec![0xA5u8; pk.n_squared().bit_length().div_ceil(8)];
    let (a, b) = (PartyId(0), PartyId(1));
    let lan = LatencyModel::lan();
    let mut sim = SimNetwork::with_latency(2, lan);
    push(
        "net.sim_send_recv_us",
        us(per_call(|| {
            sim.send(a, b, "probe", payload.clone()).expect("send");
            black_box(sim.recv(b));
        })),
        "us",
    );
    let mut mesh = MeshTransport::with_latency(2, lan);
    push(
        "net.mesh_send_recv_us",
        us(per_call(|| {
            Transport::send(&mut mesh, a, b, "probe", payload.clone()).expect("send");
            black_box(Transport::recv(&mut mesh, b));
        })),
        "us",
    );
    let mut events = EventTransport::with_latency(2, lan);
    push(
        "fabric.event_send_pop_us",
        us(per_call(|| {
            events.send(a, b, "probe", payload.clone()).expect("send");
            black_box(events.pop_earliest());
        })),
        "us",
    );
    let ct = cts[0].as_biguint();
    push(
        "net.wire_biguint_roundtrip_us",
        us(per_call(|| {
            let mut writer = WireWriter::new();
            writer.put_biguint(ct);
            let bytes = writer.finish();
            black_box(WireReader::new(&bytes).get_biguint()).expect("decode");
        })),
        "us",
    );
    const TASKS: u32 = 64;
    const POLLS: u32 = 1_000;
    push(
        "fabric.poll_overhead_ns",
        per_call(|| {
            let tasks = (0..TASKS).map(|_| Countdown(POLLS)).collect();
            black_box(Executor::new(8).run(tasks)).expect("infallible");
        }) * 1e9
            / f64::from(TASKS * POLLS),
        "ns",
    );

    // --- sched: partitioning and an empty dispatch. --------------------
    let partitioner = PartitionStrategy::SurplusBalanced.build();
    push(
        "sched.partition_ms",
        ms(per_call(|| {
            black_box(partitioner.partition(input.population, w.coalition));
        })),
        "ms",
    );
    push(
        "sched.dispatch_us",
        us(per_call(|| {
            black_box(pool::run_indexed(
                WORKERS,
                (0..w.shards()).collect(),
                |_, job: usize| job,
            ));
        })),
        "us",
    );

    // --- coupling: one round over as many shards as the grid has. ------
    let positions: Vec<ShardPosition> = (0..w.shards())
        .map(|shard| ShardPosition {
            shard,
            traded: true,
            price: 60.0 + shard as f64,
            cleared_kwh: 4.0,
            residual_kwh: if shard % 2 == 0 { 1.5 } else { -1.25 },
        })
        .collect();
    let mut coordinator = CouplingCoordinator::new(
        CouplingConfig::fast_test().with_latency(lan),
        BAND,
        input.seed,
    )
    .expect("coordinator");
    let mut summary = None;
    push(
        "coupling.round_ms",
        ms(per_call(|| {
            summary = Some(coordinator.run_round(&positions).expect("round").summary);
        })),
        "ms",
    );
    let summary = summary.expect("per_call ran the round");
    push(
        "coupling.critical_path_us",
        summary.critical_path_us as f64,
        "us",
    );
    push(
        "coupling.bytes_per_round",
        summary.net.total_bytes as f64,
        "B",
    );

    // --- ledger: the untraced pass's chain, replayed and re-validated. -
    let blocks = input.blocks.len().max(1) as f64;
    push(
        "ledger.append_us_per_block",
        us(per_call(|| {
            black_box(replay(input.blocks));
        })) / blocks,
        "us",
    );
    let chain = replay(input.blocks);
    push(
        "ledger.validate_us_per_block",
        us(per_call(|| {
            black_box(chain.validate()).expect("valid chain");
        })) / blocks,
        "us",
    );
    out
}
