//! Failure injection: message-level faults must surface as typed errors,
//! never as silently wrong market outcomes — **on every transport**.
//!
//! Scope note: the paper assumes authenticated secure channels (§II-B),
//! so *byte-level tampering* is outside the threat model — Paillier is
//! homomorphic, hence malleable, and a flipped ciphertext bit is
//! indistinguishable from a different honest input without channel MACs.
//! What the implementation does guarantee, and what these tests pin, is
//! that transport-level faults (loss, duplication, truncation) make the
//! protocols abort with a descriptive error instead of producing trades.
//! The `Corrupt` sweep pins what tampering does today, case by case.
//!
//! The protocols are generic over the fabric, so the same fault plans
//! run against the deterministic `SimNetwork` and the channel-backed
//! `MeshTransport`; every case must produce identical protocol outcomes
//! (same result on success, same error class on abort) — the wire-level
//! witness that the trait is a real abstraction, not a rename of the
//! simulator.

use pem_circuit::CircuitError;
use pem_core::protocol2;
use pem_core::{AgentCtx, KeyDirectory, PemConfig, PemError, Quantizer};
use pem_crypto::drbg::HashDrbg;
use pem_market::{AgentWindow, Role};
use pem_net::wire::WireWriter;
use pem_net::{
    Envelope, FaultKind, FaultPlan, LatencyModel, MeshTransport, NetError, NetStats, PartyId,
    SimNetwork, Transport,
};
use rand::Rng;

/// Two sellers, two buyers: `E_s = 4.0 < E_b = 9.0`, a general market.
fn population() -> Vec<AgentWindow> {
    vec![
        AgentWindow::new(0, 3.0, 0.5, 0.0, 0.9, 25.0),
        AgentWindow::new(1, 2.0, 0.5, 0.0, 0.9, 30.0),
        AgentWindow::new(2, 0.0, 4.0, 0.0, 0.9, 22.0),
        AgentWindow::new(3, 0.0, 5.0, 0.0, 0.9, 28.0),
    ]
}

fn setup() -> (
    KeyDirectory,
    Vec<AgentCtx>,
    Vec<usize>,
    Vec<usize>,
    PemConfig,
    HashDrbg,
) {
    let cfg = PemConfig::fast_test();
    let q = Quantizer::new(cfg.scale);
    let data = population();
    let keys = KeyDirectory::generate(data.len(), cfg.key_bits, cfg.seed).expect("keys");
    let mut rng = HashDrbg::from_seed_label(b"fault-test", 1);
    let mut agents = Vec::new();
    let mut sellers = Vec::new();
    let mut buyers = Vec::new();
    for (i, d) in data.into_iter().enumerate() {
        let ctx = AgentCtx::prepare(i, d, &q, rng.gen::<u64>() >> 24).expect("prepare");
        match ctx.role {
            Role::Seller => sellers.push(i),
            Role::Buyer => buyers.push(i),
            Role::OffMarket => {}
        }
        agents.push(ctx);
    }
    (keys, agents, sellers, buyers, cfg, rng)
}

/// Runs Protocol 2 on a caller-built transport (same seeds, so the clean
/// outcome is identical on every fabric).
fn run_protocol2_on<T: Transport>(net: &mut T) -> Result<protocol2::EvalOutcome, PemError> {
    let (keys, agents, sellers, buyers, cfg, mut rng) = setup();
    protocol2::run(
        net, &keys, &agents, &sellers, &buyers, &cfg, &mut None, &mut rng,
    )
}

/// Asserts two runs ended the same way: the identical result, or the
/// same error class.
fn assert_same_ending<O: PartialEq + std::fmt::Debug>(
    sim: &Result<O, PemError>,
    mesh: &Result<O, PemError>,
) {
    match (sim, mesh) {
        (Ok(a), Ok(b)) => assert_eq!(a, b, "sim vs mesh: outcomes must agree"),
        (Err(a), Err(b)) => assert_eq!(
            std::mem::discriminant(a),
            std::mem::discriminant(b),
            "sim vs mesh: same error class expected: {a:?} vs {b:?}"
        ),
        (a, b) => panic!("transports diverged: sim {a:?} vs mesh {b:?}"),
    }
}

/// Runs the same fault plan against both transports and checks the
/// outcomes agree: both fabrics succeed with the identical result, or
/// both abort with the same error class.
fn run_protocol2_both(plan: FaultPlan) -> Result<protocol2::EvalOutcome, PemError> {
    let parties = setup().1.len();
    let mut sim = SimNetwork::new(parties).with_faults(plan.clone());
    let sim_result = run_protocol2_on(&mut sim);
    let mut mesh = MeshTransport::new(parties).with_faults(plan);
    let mesh_result = run_protocol2_on(&mut mesh);
    assert_same_ending(&sim_result, &mesh_result);
    sim_result
}

/// A fabric that rewrites every payload sent under one label — the
/// tampering `FaultKind` cannot express (a chosen offset, a hostile
/// count).
struct Tamper<T, F> {
    inner: T,
    label: &'static str,
    edit: F,
}

impl<T: Transport, F: Fn(&mut Vec<u8>)> Transport for Tamper<T, F> {
    fn party_count(&self) -> usize {
        self.inner.party_count()
    }
    fn send(
        &mut self,
        from: PartyId,
        to: PartyId,
        label: &'static str,
        mut payload: Vec<u8>,
    ) -> Result<(), NetError> {
        if label == self.label {
            (self.edit)(&mut payload);
        }
        self.inner.send(from, to, label, payload)
    }
    fn recv(&mut self, to: PartyId) -> Option<Envelope> {
        self.inner.recv(to)
    }
    fn recv_expect(&mut self, to: PartyId, label: &'static str) -> Result<Envelope, NetError> {
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

/// Runs Protocol 2 with `edit` applied to the `label` message on both
/// transports and checks they end the same way.
fn run_protocol2_tampered(
    label: &'static str,
    edit: impl Fn(&mut Vec<u8>) + Copy,
) -> Result<protocol2::EvalOutcome, PemError> {
    let parties = setup().1.len();
    let inner = SimNetwork::new(parties);
    let sim_result = run_protocol2_on(&mut Tamper { inner, label, edit });
    let inner = MeshTransport::new(parties);
    let mesh_result = run_protocol2_on(&mut Tamper { inner, label, edit });
    assert_same_ending(&sim_result, &mesh_result);
    sim_result
}

#[test]
fn baseline_without_faults_succeeds() {
    let out = run_protocol2_both(FaultPlan::new()).expect("clean run");
    assert!(out.general_market); // E_s = 4.0 < E_b = 9.0
}

#[test]
fn dropped_aggregation_message_aborts() {
    let err = run_protocol2_both(FaultPlan::new().inject("eval/demand-agg", 1, FaultKind::Drop))
        .expect_err("must abort");
    assert!(matches!(err, PemError::Net(_)), "got {err:?}");
}

#[test]
fn dropped_gc_offer_aborts() {
    let err = run_protocol2_both(FaultPlan::new().inject("eval/gc-offer", 0, FaultKind::Drop))
        .expect_err("must abort");
    assert!(matches!(err, PemError::Net(_)), "got {err:?}");
}

#[test]
fn duplicated_message_aborts_on_label_mismatch() {
    // The duplicate lingers in the recipient's mailbox; the next
    // recv_expect for a different label trips over it.
    let err =
        run_protocol2_both(FaultPlan::new().inject("eval/demand-agg", 0, FaultKind::Duplicate))
            .expect_err("must abort");
    assert!(matches!(err, PemError::Net(_)), "got {err:?}");
}

#[test]
fn truncated_ciphertext_fails_to_decode() {
    let err =
        run_protocol2_both(FaultPlan::new().inject("eval/supply-agg", 0, FaultKind::Truncate))
            .expect_err("must abort");
    assert!(
        matches!(err, PemError::Net(_)),
        "decode error expected, got {err:?}"
    );
}

#[test]
fn truncated_gc_transfer_fails_cleanly() {
    let err =
        run_protocol2_both(FaultPlan::new().inject("eval/gc-ot-transfer", 0, FaultKind::Truncate))
            .expect_err("must abort");
    // Truncation surfaces as a decode failure or a malformed-garbling
    // complaint, depending on where the cut lands — both are typed.
    assert!(
        matches!(
            err,
            PemError::Net(_) | PemError::Circuit(_) | PemError::Crypto(_)
        ),
        "got {err:?}"
    );
}

#[test]
fn faults_never_produce_trades() {
    // Sweep a fault across every protocol-2 label: any completed run must
    // equal the clean outcome, and any failed run must be a typed error —
    // with both transports agreeing case by case.
    let clean = run_protocol2_both(FaultPlan::new()).expect("clean run");
    for label in [
        "eval/demand-agg",
        "eval/supply-agg",
        "eval/gc-offer",
        "eval/gc-ot-request",
        "eval/gc-ot-transfer",
        "eval/result",
    ] {
        for kind in [FaultKind::Drop, FaultKind::Truncate, FaultKind::Duplicate] {
            let result = run_protocol2_both(FaultPlan::new().inject(label, 0, kind));
            match result {
                Ok(out) => assert_eq!(
                    out.general_market, clean.general_market,
                    "{label}/{kind:?} silently changed the outcome"
                ),
                Err(
                    PemError::Net(_)
                    | PemError::Circuit(_)
                    | PemError::Crypto(_)
                    | PemError::Protocol(_),
                ) => {}
                Err(other) => panic!("{label}/{kind:?}: unexpected error class {other:?}"),
            }
        }
    }
}

#[test]
fn corrupted_messages_never_panic_and_fabrics_agree() {
    // One flipped bit per label. Every run must *return* (no panic, no
    // hang) and both fabrics must agree; what it returns is pinned case
    // by case.
    let clean = run_protocol2_both(FaultPlan::new()).expect("clean run");
    let corrupt = |label| run_protocol2_both(FaultPlan::new().inject(label, 0, FaultKind::Corrupt));
    // A flipped ciphertext bit in a ring hop decrypts to garbage far
    // outside the masked-total range: too wide for the comparator
    // (today's seeds — re-derived on the fixed-base `h_s^x` ciphertexts:
    // both labels still end in `ValueTooWide`), for 128 bits, or invalid
    // outright — a typed abort either way.
    for label in ["eval/demand-agg", "eval/supply-agg"] {
        let err = corrupt(label).expect_err("mangled aggregate must abort");
        assert!(
            matches!(
                err,
                PemError::Circuit(_) | PemError::Protocol(_) | PemError::Crypto(_)
            ),
            "{label}: got {err:?}"
        );
    }
    // Byte layouts at `fast_test()` (width 64, 127 AND tables, 24-byte
    // group elements, 32 two-bit OT chunks):
    //
    // * `eval/gc-offer`, 9182 bytes: the middle byte 4591 is byte 13 of
    //   row 2 of AND table 71 — a row the evaluator's labels do not
    //   select (today's seeds), so it is never decrypted.
    // * `eval/gc-ot-transfer`, 4097 bytes: the middle byte 2048 is the
    //   last byte of branch 3 of chunk 15; the evaluator chose branch 1
    //   there (bits 30–31 of its masked total).
    // * `eval/result`: the one byte is never re-read by the recipients.
    //
    // All three complete with the clean outcome.
    for label in ["eval/gc-offer", "eval/gc-ot-transfer", "eval/result"] {
        let out = corrupt(label).unwrap_or_else(|e| panic!("{label}: completes today, got {e:?}"));
        assert_eq!(out, clean, "{label}: outcome unchanged");
    }
    // The out-of-threat-model malleability case from the header, three
    // times:
    //
    // * `eval/gc-ot-request`, 801 bytes (a count byte, then 32 × a
    //   length byte and 24 bytes of `B`): the middle byte 400 is the low
    //   byte of chunk 15's `B`, so the garbler seals that chunk's four
    //   label pairs under keys the evaluator cannot derive;
    // * the same flip in chunk 0's `B` (byte 25), which
    //   `FaultKind::Corrupt` cannot reach;
    // * a flipped bit inside the single `A` (the offer's last byte):
    //   the two sides then disagree on *every* chunk's key.
    //
    // Either way the evaluator still decodes *a* label per wire, the
    // garbage propagates to the output wire, and the comparison completes
    // on a coin flip per tampered byte. With today's seeds (re-derived
    // on the short OT exponents and the fixed-width key derivation: the
    // message sizes and the offsets above did not move, the pads did)
    // chunk 15 and `A` happen to land on the clean bit and chunk 0 flips
    // the market; over all 32 chunks' low bytes 14 flip it.
    // Authenticated channels (§II-B) are what rules this out in
    // deployment; pinned here so a change in either direction is noticed.
    let flipped_chunk_0 = run_protocol2_tampered("eval/gc-ot-request", |payload| {
        payload[1 + 24] ^= 1;
    });
    let flipped_a = run_protocol2_tampered("eval/gc-offer", |payload| {
        *payload.last_mut().expect("A closes the offer") ^= 1;
    });
    for (case, result, flips) in [
        ("eval/gc-ot-request", corrupt("eval/gc-ot-request"), false),
        ("flipped chunk 0", flipped_chunk_0, true),
        ("flipped A", flipped_a, false),
    ] {
        let out = result.unwrap_or_else(|e| panic!("{case}: completes today, got {e:?}"));
        assert_eq!(
            out.general_market,
            clean.general_market ^ flips,
            "{case}: GC malleability decides the market bit"
        );
        assert_eq!(
            (out.masked_demand, out.masked_supply),
            (clean.masked_demand, clean.masked_supply),
            "{case}: the masked totals are untouched"
        );
    }
}

#[test]
fn hostile_counts_are_rejected_before_allocating() {
    // Every count in the three comparison messages is implied by the
    // agreed width. A frame announcing 2^60 of anything must come back
    // as `MalformedGarbling` — not as a capacity-overflow panic or an
    // allocation — on both fabrics. Offsets: the offer is
    // `width | tables | 127·64 B | outputs | 1 B | labels | …`, the
    // other two messages open with their count.
    let cases: [(&'static str, usize); 6] = [
        ("eval/gc-offer", 0),
        ("eval/gc-offer", 1),
        ("eval/gc-offer", 2 + 127 * 64),
        ("eval/gc-offer", 2 + 127 * 64 + 2),
        ("eval/gc-ot-request", 0),
        ("eval/gc-ot-transfer", 0),
    ];
    for (label, offset) in cases {
        let err = run_protocol2_tampered(label, move |payload| {
            assert!(
                payload[offset] < 0x80,
                "{label}@{offset}: a one-byte varint"
            );
            let mut hostile = WireWriter::new();
            hostile.put_varint(1 << 60);
            payload.splice(offset..=offset, hostile.finish());
        })
        .expect_err("a hostile count must abort");
        assert!(
            matches!(err, PemError::Circuit(CircuitError::MalformedGarbling(_))),
            "{label}@{offset}: got {err:?}"
        );
    }
}

#[test]
fn fault_plans_leave_identical_message_logs() {
    // With the telemetry collector installed, both transports journal a
    // `MsgEvent` per send — *before* fault processing, so a dropped
    // message is still witnessed. Under the same fault plan the two
    // fabrics must therefore leave byte-identical logs (modulo fabric
    // id and global sequence number): the wire-level refinement of the
    // outcome-equivalence checks above.
    let plan = FaultPlan::new().inject("eval/gc-offer", 0, FaultKind::Drop);
    pem_telemetry::install();
    let mark = pem_telemetry::msg_count();

    let parties = setup().1.len();
    let mut sim = SimNetwork::with_latency(parties, LatencyModel::lan()).with_faults(plan.clone());
    let sim_result = run_protocol2_on(&mut sim);
    let mut mesh = MeshTransport::with_latency(parties, LatencyModel::lan()).with_faults(plan);
    let mesh_result = run_protocol2_on(&mut mesh);
    assert!(
        sim_result.is_err() && mesh_result.is_err(),
        "plan drops a message"
    );

    // Concurrent tests in this binary may record onto other fabrics;
    // scope by fabric id, then erase it (and seq) for the comparison.
    let msgs = pem_telemetry::msgs_since(mark);
    let log = |fabric: u64| -> Vec<(usize, usize, &str, u64, u64, u64)> {
        let mut out: Vec<_> = msgs
            .iter()
            .filter(|m| m.fabric == fabric)
            .map(|m| (m.from, m.to, m.label, m.bytes, m.depart_us, m.arrival_us))
            .collect();
        out.sort_unstable();
        out
    };
    let sim_log = log(sim.fabric_id());
    let mesh_log = log(mesh.fabric_id());
    assert!(
        !sim_log.is_empty(),
        "the run crosses the wire before aborting"
    );
    assert_eq!(
        sim_log, mesh_log,
        "same fault plan must leave the same message log on both fabrics"
    );
    pem_telemetry::uninstall();
}

#[test]
fn delayed_message_is_late_not_lost() {
    // A Delay fault shifts an envelope's arrival on the virtual clock;
    // blocking receives still find it, so both fabrics must
    // complete with the bit-identical clean outcome.
    let clean = run_protocol2_both(FaultPlan::new()).expect("clean run");
    for label in ["eval/demand-agg", "eval/gc-offer", "eval/result"] {
        let out =
            run_protocol2_both(FaultPlan::new().inject(label, 0, FaultKind::Delay { us: 5_000 }))
                .unwrap_or_else(|e| panic!("{label}: a delayed message is late, not lost: {e:?}"));
        assert_eq!(out, clean, "{label}: delay must not change the outcome");
    }
}

#[test]
fn stalled_message_aborts_with_one_error_class() {
    // A Stall swallows the envelope after it was journalled: every
    // fabric must abort (run_protocol2_both additionally pins the
    // error discriminants against each other).
    for label in ["eval/demand-agg", "eval/supply-agg", "eval/gc-offer"] {
        let err = run_protocol2_both(FaultPlan::new().inject(label, 0, FaultKind::Stall))
            .expect_err("a stalled message never arrives");
        assert!(matches!(err, PemError::Net(_)), "{label}: got {err:?}");
    }
}

#[test]
fn recv_deadline_times_out_on_every_transport() {
    use pem_net::{NetError, PartyId};
    // No traffic at all: a deadline-bounded receive must surface
    // `NetError::Timeout` (not `Empty`, not a hang) on both
    // fabrics, carrying the party and label it was waiting on.
    let check = |err: NetError, fabric: &str| match err {
        NetError::Timeout {
            party,
            expected,
            deadline_us,
        } => {
            assert_eq!((party, expected), (1, "eval/result"), "{fabric}");
            assert_eq!(deadline_us, 10, "{fabric}: virtual-clock deadline echoed");
        }
        other => panic!("{fabric}: expected Timeout, got {other:?}"),
    };
    let mut sim = SimNetwork::new(2);
    check(
        sim.recv_deadline(PartyId(1), "eval/result", 10)
            .expect_err("empty mailbox"),
        "sim",
    );
    let mut mesh = MeshTransport::new(2);
    check(
        Transport::recv_deadline(&mut mesh, PartyId(1), "eval/result", 10)
            .expect_err("empty mailbox"),
        "mesh",
    );
}

#[test]
fn delay_and_stall_leave_identical_message_logs() {
    // `record_msg` runs before fault processing on every transport, so
    // a delayed *or* stalled envelope is journalled identically across
    // fabrics — the wire-level witness that the new fault kinds are
    // transport-agnostic too.
    pem_telemetry::install();
    for plan in [
        FaultPlan::new().inject("eval/supply-agg", 0, FaultKind::Delay { us: 2_000 }),
        FaultPlan::new().inject("eval/supply-agg", 0, FaultKind::Stall),
    ] {
        let mark = pem_telemetry::msg_count();
        let parties = setup().1.len();
        let mut sim =
            SimNetwork::with_latency(parties, LatencyModel::lan()).with_faults(plan.clone());
        let _ = run_protocol2_on(&mut sim);
        let mut mesh = MeshTransport::with_latency(parties, LatencyModel::lan()).with_faults(plan);
        let _ = run_protocol2_on(&mut mesh);

        let msgs = pem_telemetry::msgs_since(mark);
        let log = |fabric: u64| -> Vec<(usize, usize, &str, u64, u64, u64)> {
            let mut out: Vec<_> = msgs
                .iter()
                .filter(|m| m.fabric == fabric)
                .map(|m| (m.from, m.to, m.label, m.bytes, m.depart_us, m.arrival_us))
                .collect();
            out.sort_unstable();
            out
        };
        let sim_log = log(sim.fabric_id());
        assert!(!sim_log.is_empty(), "the run crosses the wire");
        assert_eq!(sim_log, log(mesh.fabric_id()), "sim vs mesh journals");
    }
    pem_telemetry::uninstall();
}

#[test]
fn full_window_runs_on_the_mesh() {
    // Beyond Protocol 2: a whole PEM window (Protocols 2+3+4) driven over
    // the mesh transport must reproduce the SimNetwork outcome exactly —
    // no public protocol entry point is tied to the simulator any more.
    let data = population();
    let mut on_sim = pem_core::Pem::new(PemConfig::fast_test(), 4).expect("setup");
    let a = on_sim.run_window(&data).expect("sim window");
    let mut on_mesh = pem_core::Pem::new(PemConfig::fast_test(), 4).expect("setup");
    let mut mesh = MeshTransport::new(4);
    let b = on_mesh
        .run_window_on(&mut mesh, &data)
        .expect("mesh window");
    assert_eq!(a.kind, b.kind);
    assert_eq!(a.price.to_bits(), b.price.to_bits());
    assert_eq!(a.trades, b.trades);
    assert_eq!(a.revealed, b.revealed);
    assert_eq!(a.net, b.net, "identical traffic on both transports");

    // A mismatched fabric is rejected with a typed error.
    let mut small = MeshTransport::new(3);
    let mut pem = pem_core::Pem::new(PemConfig::fast_test(), 4).expect("setup");
    assert!(matches!(
        pem.run_window_on(&mut small, &data),
        Err(PemError::Protocol(_))
    ));
}

#[test]
fn whole_window_faults_end_the_same_on_both_fabrics() {
    // One dropped message per phase: the caller-provided mesh and the
    // default fabric poll the same window body, so they must end in the
    // same error class.
    let data = population();
    for label in ["eval/demand-agg", "price/agg", "dist/total-agg"] {
        let plan = FaultPlan::new().inject(label, 0, FaultKind::Drop);
        let mut on_mesh = pem_core::Pem::new(PemConfig::fast_test(), 4).expect("setup");
        let mut mesh = MeshTransport::new(4).with_faults(plan.clone());
        let mesh_result = on_mesh.run_window_on(&mut mesh, &data);
        let mut on_sim = pem_core::Pem::new(PemConfig::fast_test(), 4).expect("setup");
        let sim_result = on_sim.run_window_with_faults(&data, plan);
        assert!(sim_result.is_err(), "{label}: a dropped message aborts");
        assert_same_ending(&sim_result, &mesh_result);
    }
}
