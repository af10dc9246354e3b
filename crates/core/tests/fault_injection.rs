//! Failure injection: message-level faults must surface as typed errors,
//! never as silently wrong market outcomes.
//!
//! Scope note: the paper assumes authenticated secure channels (§II-B),
//! so *byte-level tampering* is outside the threat model — Paillier is
//! homomorphic, hence malleable, and a flipped ciphertext bit is
//! indistinguishable from a different honest input without channel MACs.
//! What the implementation does guarantee, and what these tests pin, is
//! that transport-level faults (loss, duplication, truncation) make the
//! protocols abort with a descriptive error instead of producing trades.
//! The `Corrupt` sweep pins what tampering does today, case by case; the
//! garbled comparison authenticates its output, so tampering with it
//! ends in a typed error or the clean outcome, never a flipped market.
//!
//! Every case drives a whole trading window — the one `Window` the grid
//! runs — through `Pem::run_window_on`, on `SimNetwork` with a
//! `FaultPlan` or under the `Tamper` double below for edits `FaultKind`
//! cannot express; the protocols only see the `Transport` trait either
//! way. Windows that lose a message also run on the `Executor`, where
//! the poll that wanted the lost message ends the window.

use pem_circuit::compare::CompareGarbler;
use pem_circuit::{wrapped_comparator_circuit, CircuitError};
use pem_core::quantize::compare_width;
use pem_core::{Pem, PemConfig, PemError, PemWindowOutcome};
use pem_crypto::drbg::HashDrbg;
use pem_crypto::ot::DhGroup;
use pem_crypto::CryptoError;
use pem_fabric::Executor;
use pem_market::{AgentWindow, MarketKind};
use pem_net::wire::WireWriter;
use pem_net::{
    Envelope, FaultKind, FaultPlan, LatencyModel, NetError, NetStats, PartyId, SimNetwork,
    Transport,
};

/// Two sellers, two buyers: `E_s = 4.0 < E_b = 9.0`, a general market.
fn population() -> Vec<AgentWindow> {
    vec![
        AgentWindow::new(0, 3.0, 0.5, 0.0, 0.9, 25.0),
        AgentWindow::new(1, 2.0, 0.5, 0.0, 0.9, 30.0),
        AgentWindow::new(2, 0.0, 4.0, 0.0, 0.9, 22.0),
        AgentWindow::new(3, 0.0, 5.0, 0.0, 0.9, 28.0),
    ]
}

/// A fresh `fast_test` market over [`population`] (same seed, so the
/// clean outcome is identical on every run).
fn market() -> Pem {
    Pem::new(PemConfig::fast_test(), population().len()).expect("setup")
}

/// Runs one window of a fresh market on a caller-built transport.
fn run_window_on<T: Transport>(net: &mut T) -> Result<PemWindowOutcome, PemError> {
    market().run_window_on(net, &population())
}

/// Runs one window under a fault plan.
fn run_faulted(plan: FaultPlan) -> Result<PemWindowOutcome, PemError> {
    run_window_on(&mut SimNetwork::new(population().len()).with_faults(plan))
}

/// Runs one window under a fault plan as a task on the executor: a
/// window whose message never arrives ends in its receive error at the
/// poll that wanted it.
fn run_on_executor(plan: FaultPlan) -> Result<PemWindowOutcome, PemError> {
    let pem = market();
    let task = pem.fabric_attempt(&population(), plan, 0, 0).expect("task");
    let (mut results, _) = Executor::new(0).run_collect(vec![task]);
    results.pop().expect("one task, one result")
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

/// Runs one window with `edit` applied to every `label` message.
fn run_tampered(
    label: &'static str,
    edit: impl Fn(&mut Vec<u8>),
) -> Result<PemWindowOutcome, PemError> {
    let inner = SimNetwork::new(population().len());
    run_window_on(&mut Tamper { inner, label, edit })
}

/// A faulted window that completed must be the clean one: same market
/// kind, price, trades and revealed surface (masked totals, pricing
/// aggregates, allocation ratios).
fn assert_clean(out: &PemWindowOutcome, clean: &PemWindowOutcome, case: &str) {
    assert_eq!(out.kind, clean.kind, "{case}: market kind");
    assert_eq!(out.price.to_bits(), clean.price.to_bits(), "{case}: price");
    assert_eq!(out.trades, clean.trades, "{case}: trades");
    assert_eq!(out.revealed, clean.revealed, "{case}: revealed surface");
}

/// Protocol 2's labels.
const EVAL_LABELS: [&str; 6] = [
    "eval/demand-agg",
    "eval/supply-agg",
    "eval/gc-offer",
    "eval/gc-ot-request",
    "eval/gc-ot-transfer",
    "eval/result",
];

/// Every label of Protocols 3 and 4.
const PRICE_AND_DIST_LABELS: [&str; 8] = [
    "price/agg",
    "price/broadcast",
    "dist/total-agg",
    "dist/total-bcast",
    "dist/ratio-req",
    "dist/ratios",
    "dist/energy",
    "dist/payment",
];

#[test]
fn baseline_without_faults_succeeds() {
    let out = run_faulted(FaultPlan::new()).expect("clean run");
    assert_eq!(out.kind, MarketKind::General); // E_s = 4.0 < E_b = 9.0
    assert!(!out.trades.is_empty());
}

#[test]
fn dropped_aggregation_message_aborts() {
    let err = run_faulted(FaultPlan::new().inject("eval/demand-agg", 1, FaultKind::Drop))
        .expect_err("must abort");
    assert!(matches!(err, PemError::Net(_)), "got {err:?}");
}

#[test]
fn dropped_gc_offer_aborts() {
    let err = run_faulted(FaultPlan::new().inject("eval/gc-offer", 0, FaultKind::Drop))
        .expect_err("must abort");
    assert!(matches!(err, PemError::Net(_)), "got {err:?}");
}

#[test]
fn duplicated_message_aborts_as_an_unread_frame() {
    // Every receive is addressed to its (party, label), so the duplicate
    // lingers in the recipient's mailbox without blocking anything; the
    // window's end-of-run check finds it there.
    let err = run_faulted(FaultPlan::new().inject("eval/demand-agg", 0, FaultKind::Duplicate))
        .expect_err("must abort");
    assert!(
        matches!(
            err,
            PemError::Net(NetError::Unread {
                label: "eval/demand-agg",
                ..
            })
        ),
        "got {err:?}"
    );
    assert!(
        err.is_retryable(),
        "a duplicated delivery can clear on a retry"
    );
}

#[test]
fn truncated_ciphertext_fails_to_decode() {
    let err = run_faulted(FaultPlan::new().inject("eval/supply-agg", 0, FaultKind::Truncate))
        .expect_err("must abort");
    assert!(
        matches!(err, PemError::Net(_)),
        "decode error expected, got {err:?}"
    );
}

#[test]
fn truncated_gc_transfer_fails_cleanly() {
    let err = run_faulted(FaultPlan::new().inject("eval/gc-ot-transfer", 0, FaultKind::Truncate))
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
    // Sweep faults across every label of Protocols 2–4: a window that
    // completes must be the clean one, a window that fails must return a
    // typed error — never a panic, never different trades. Every label
    // takes every kind, and `lost_message_aborts_with_one_error_class`
    // pins which error a `Drop` ends in; Protocol 2's `Corrupt` outcomes are also pinned one by one below, now that an
    // authenticated comparison output leaves no market bit to a coin
    // flip. A seller checks each echoed payment against its own
    // `price · energy`, and every party checks the price broadcast
    // against H_b's, so a corrupted or replayed amount aborts instead of
    // settling.
    let clean = run_faulted(FaultPlan::new()).expect("clean run");
    let cases = EVAL_LABELS
        .into_iter()
        .chain(PRICE_AND_DIST_LABELS)
        .flat_map(|label| {
            [
                FaultKind::Drop,
                FaultKind::Duplicate,
                FaultKind::Corrupt,
                FaultKind::Truncate,
            ]
            .map(|kind| (label, kind))
        });
    for (label, kind) in cases {
        let case = format!("{label}/{kind:?}");
        match run_faulted(FaultPlan::new().inject(label, 0, kind)) {
            Ok(out) => assert_clean(&out, &clean, &case),
            Err(
                PemError::Net(_)
                | PemError::Circuit(_)
                | PemError::Crypto(_)
                | PemError::Protocol(_),
            ) => {}
            Err(other) => panic!("{case}: unexpected error class {other:?}"),
        }
    }
}

#[test]
fn corrupted_messages_never_panic_and_fabrics_agree() {
    // One flipped bit per label. Every run must *return* (no panic, no
    // hang); what it returns is pinned case by case.
    let clean = run_faulted(FaultPlan::new()).expect("clean run");
    let corrupt = |label| run_faulted(FaultPlan::new().inject(label, 0, FaultKind::Corrupt));
    // A flipped ciphertext bit in a ring hop decrypts to garbage far
    // outside the masked-total range. The comparison takes only a total's
    // low bits, so its collector checks the whole total against the
    // public bound first and refuses it as too wide for the comparator,
    // instead of comparing its truncation.
    for label in ["eval/demand-agg", "eval/supply-agg"] {
        let err = corrupt(label).expect_err("mangled aggregate must abort");
        assert!(
            matches!(
                err,
                PemError::Circuit(CircuitError::ValueTooWide { width: 35 })
            ),
            "{label}: got {err:?}"
        );
    }
    // Byte layouts at `fast_test()` over the four-member population
    // (width `compare_width(4)` = 35, 34 two-row AND tables, 24-byte
    // group elements, 17 two-bit OT chunks and a one-bit tail):
    //
    // * `eval/gc-ot-transfer`, 2772 bytes (a width byte, a count byte,
    //   `offer_tables()`, a count byte, the 32-byte output hash pair, a
    //   count byte, then 17 × three two-label corrections and the tail's
    //   one label, from byte 1124): the middle byte 1386 is in chunk 2's
    //   correction for value 3, and byte 2180 the first of chunk 11's for
    //   value 1. The evaluator chose value 1 in chunk 2 (bits 4–5 of its
    //   masked total are 01), so it never reads the correction for 3,
    //   and value 1 in chunk 11 (bits 22–23 are 01). So the flip in
    //   chunk 11 gives it a garbage label and an unauthentic output,
    //   while the middle-byte flip, in a correction it never uses, leaves
    //   the window with the clean outcome.
    let chosen = run_tampered("eval/gc-ot-transfer", |payload| {
        payload[corrections_at(11)] ^= 1;
    });
    assert!(
        matches!(
            chosen,
            Err(PemError::Circuit(CircuitError::OutputNotAuthentic {
                output: 0
            }))
        ),
        "eval/gc-ot-transfer, chosen correction: got {chosen:?}"
    );
    let unchosen = corrupt("eval/gc-ot-transfer")
        .unwrap_or_else(|e| panic!("eval/gc-ot-transfer: completes, got {e:?}"));
    assert_clean(
        &unchosen,
        &clean,
        "eval/gc-ot-transfer, unchosen correction",
    );
    // `eval/result`: the one byte flips the general-market bit to a
    // well-formed `false`, which its first recipient decodes and checks
    // against `H_r1`'s bit.
    let err = corrupt("eval/result").expect_err("a flipped market bit must abort");
    assert!(matches!(err, PemError::Protocol(_)), "eval/result: {err:?}");
    // A decrypted table row is authenticated, two ways:
    //
    // * byte 1070 of `eval/gc-ot-transfer`, byte 12 of `T_G` of AND 33,
    //   the last. The evaluator's label on that gate's first input has
    //   its permute bit set (today's seeds), so it decrypts the flipped
    //   row;
    // * byte 0 of `T_G` flipped in every AND (at byte 2 + 32·k). The
    //   evaluator decrypts `T_G` wherever its first input's permute bit
    //   is set — some gate, whatever the seeds.
    //
    // Either way a carry turns to garbage and the output label matches
    // neither output hash: a typed error.
    let and_33 = run_tampered("eval/gc-ot-transfer", |payload| payload[1070] ^= 1);
    let every_t_g = run_tampered("eval/gc-ot-transfer", |payload| {
        for and in 0..offer_tables() / 32 {
            payload[2 + 32 * and] ^= 1;
        }
    });
    for (case, result) in [("T_G of AND 33", and_33), ("every T_G", every_t_g)] {
        assert!(
            matches!(
                result,
                Err(PemError::Circuit(CircuitError::OutputNotAuthentic {
                    output: 0
                }))
            ),
            "{case}: got {result:?}"
        );
    }
    // Tampering with the OT, three ways:
    //
    // * `eval/gc-ot-request`, 451 bytes (a count byte, then 18 × a
    //   length byte and 24 bytes of `B`): the middle byte 225 is the last
    //   byte of chunk 8's `B`, so the garbler derives that chunk's labels
    //   and corrections from keys the evaluator cannot derive;
    // * the same flip in chunk 0's `B` (byte 25), which
    //   `FaultKind::Corrupt` cannot reach;
    // * a flipped bit inside the single `A`: the offer's middle byte 13
    //   (the offer is a width byte, a length byte and `A`'s 24 bytes),
    //   and its last byte. The two sides then disagree on *every*
    //   chunk's key.
    //
    // Each time the evaluator decodes a garbage label for some input
    // wire, the garbage propagates along the carry chain to the output
    // wire, and the output label matches neither of the garbler's output
    // hashes. Before outputs were authenticated these windows completed
    // on a coin flip per tampered byte (14 of the 32 chunks of a 64-bit
    // comparison flipped the market bit); now every one is a typed
    // error.
    let flipped_chunk_0 = run_tampered("eval/gc-ot-request", |payload| {
        payload[1 + 24] ^= 1;
    });
    let flipped_a = run_tampered("eval/gc-offer", |payload| {
        *payload.last_mut().expect("A closes the offer") ^= 1;
    });
    for (case, result) in [
        ("eval/gc-ot-request", corrupt("eval/gc-ot-request")),
        ("flipped chunk 0", flipped_chunk_0),
        ("eval/gc-offer", corrupt("eval/gc-offer")),
        ("flipped A", flipped_a),
    ] {
        assert!(
            matches!(
                result,
                Err(PemError::Circuit(CircuitError::OutputNotAuthentic { .. }))
            ),
            "{case}: got {result:?}"
        );
    }
}

#[test]
fn a_tampered_ot_request_never_decides_the_market_bit() {
    // The low byte of every chunk's `B` (chunk `i`'s starts at byte
    // 1 + 25·i: a count byte, then a length byte and 24 bytes per `B`).
    // Whatever the flip does — an invalid group element or keys the
    // evaluator cannot derive — the window must end in a typed circuit
    // error, never complete with a flipped (or unflipped) market bit.
    let chunks = compare_width(population().len()).div_ceil(2);
    assert_eq!(chunks, 18);
    for chunk in 0..chunks {
        let result = run_tampered("eval/gc-ot-request", move |payload| {
            payload[1 + 25 * chunk + 24] ^= 1;
        });
        assert!(
            matches!(result, Err(PemError::Circuit(_))),
            "chunk {chunk}: got {result:?}"
        );
    }
}

#[test]
fn tampered_ratio_requests_abort_without_trades() {
    // Protocol 4's decryptor fan-in, at one slot per pack on both legs
    // (`fast_test`, 128-bit keys), at one slot per pack on the p-leg
    // (`paper(512)`) and at two slots of one p-leg pack (`paper(1024)`).
    // A flipped bit in a ratio ciphertext decrypts to a plaintext
    // uniform mod n (mod p on one leg), far above the 98-bit slot, so
    // the packed decryption refuses it. Before packing, a 128-bit key's
    // garbage fitted `u128` and settled as a wrong ratio. A truncated
    // request fails to decode.
    let data = population();
    for cfg in [
        PemConfig::fast_test(),
        PemConfig::paper(512),
        PemConfig::paper(1024),
    ] {
        let bits = cfg.key_bits;
        let clean = Pem::new(cfg.clone(), data.len())
            .expect("setup")
            .run_window(&data)
            .expect("clean window");
        assert!(!clean.trades.is_empty(), "{bits}: the clean window trades");
        for kind in [FaultKind::Corrupt, FaultKind::Truncate] {
            let plan = FaultPlan::new().inject("dist/ratio-req", 0, kind);
            let result = Pem::new(cfg.clone(), data.len())
                .expect("setup")
                .run_window_on(&mut SimNetwork::new(data.len()).with_faults(plan), &data);
            match (kind, &result) {
                (
                    FaultKind::Corrupt,
                    Err(PemError::Crypto(CryptoError::MessageTooLarge { .. })),
                )
                | (FaultKind::Truncate, Err(PemError::Net(NetError::Decode { .. }))) => {}
                _ => panic!("{bits}-bit keys, {kind:?}: got {result:?}"),
            }
        }
    }
}

#[test]
fn a_trailing_byte_on_any_read_label_is_a_decode_error() {
    // One byte past a frame's last field — an extra ciphertext's worth of
    // garbage — is not the frame its sender encoded: every decoder of
    // Protocols 2–4 ends its frame and refuses it, before any ciphertext
    // or value of it is used.
    for label in EVAL_LABELS.into_iter().chain(PRICE_AND_DIST_LABELS) {
        let result = run_tampered(label, |payload| payload.push(0));
        assert!(
            matches!(
                result,
                Err(PemError::Net(NetError::Decode {
                    what: "trailing bytes",
                    ..
                }))
            ),
            "{label}: got {result:?}"
        );
    }
}

#[test]
fn a_tampered_ratio_announcement_aborts_without_trades() {
    // `dist/ratios` carries a count, then one 8-byte ratio per buyer (two
    // here); the other seller decodes the whole vector and settles from
    // it. A flipped ratio bit is a well-formed vector that is not the
    // decryptor's, and a frame that announces and carries one ratio for
    // two buyers does not cover the ratio side: both are typed errors,
    // never a settlement.
    let flipped = run_tampered("dist/ratios", |payload| payload[1 + 3] ^= 1);
    let short = run_tampered("dist/ratios", |payload| {
        assert_eq!((payload.len(), payload[0]), (17, 2), "two ratios");
        payload.truncate(9);
        payload[0] = 1;
    });
    for (case, result) in [("flipped ratio bit", flipped), ("one ratio", short)] {
        assert!(
            matches!(result, Err(PemError::Protocol(_))),
            "{case}: got {result:?}"
        );
    }
}

/// Bytes of garbled tables in a [`population`] window's transfer: the
/// ANDs of its `compare_width(4)` = 35-bit wrapped comparator, 34 of
/// them, two 16-byte half-gates rows per AND.
fn offer_tables() -> usize {
    wrapped_comparator_circuit(compare_width(population().len())).and_count() * 2 * 16
}

/// Bytes of output hashes in a transfer: one output, two 16-byte hashes.
const OFFER_OUTPUT_HASHES: usize = 2 * 16;

/// Offset of chunk `chunk`'s first correction in a [`population`]
/// window's transfer: after the width, the table count, the tables, the
/// output count, the output hashes and the chunk count, 96 bytes per
/// 2-bit chunk.
fn corrections_at(chunk: usize) -> usize {
    2 + offer_tables() + 1 + OFFER_OUTPUT_HASHES + 1 + 96 * chunk
}

#[test]
fn hostile_counts_are_rejected_before_allocating() {
    // Every count in the three comparison messages is implied by the
    // agreed width. A frame announcing 2^60 of anything must come back
    // as `MalformedGarbling` — not as a capacity-overflow panic or an
    // allocation. Offsets: the transfer is
    // `width | tables | offer_tables() B | outputs | 32 B | chunks | …`,
    // the offer opens with its width and the requests with their count.
    let cases: [(&'static str, usize); 6] = [
        ("eval/gc-offer", 0),
        ("eval/gc-ot-transfer", 0),
        ("eval/gc-ot-transfer", 1),
        ("eval/gc-ot-transfer", 2 + offer_tables()),
        ("eval/gc-ot-transfer", corrections_at(0) - 1),
        ("eval/gc-ot-request", 0),
    ];
    for (label, offset) in cases {
        let err = run_tampered(label, move |payload| {
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
fn an_offer_at_the_ceiling_is_refused_at_the_agreed_width() {
    // Twelve members compare at `compare_width(12)` = 37 bits, below the
    // 64-bit ceiling of `fast_test()`. Both sides derive the width from
    // the public member count, so a well-formed offer at the ceiling —
    // a wider comparator, which would still hold the totals' difference
    // — is not the agreed one: the evaluator refuses it at its width
    // field, before reading any table, and the window never completes.
    let data: Vec<AgentWindow> = (0..12)
        .map(|i| {
            let e = 0.5 + i as f64 / 4.0;
            if i < 6 {
                AgentWindow::new(i, e, 0.0, 0.0, 0.9, 25.0)
            } else {
                AgentWindow::new(i, 0.0, e, 0.0, 0.9, 25.0)
            }
        })
        .collect();
    assert_eq!(compare_width(data.len()), 37);
    let cfg = PemConfig::fast_test();
    let mut rng = HashDrbg::new(b"ceiling-offer");
    let (_, setup) = CompareGarbler::start(cfg.compare_bits, &DhGroup::test_192(), &mut rng);
    // The offer's wire layout: the width, then `A`.
    let mut w = WireWriter::new();
    w.put_varint(setup.width as u64);
    w.put_biguint(&setup.ot_setup.big_a);
    let ceiling = w.finish();
    let mut net = Tamper {
        inner: SimNetwork::new(data.len()),
        label: "eval/gc-offer",
        edit: move |payload: &mut Vec<u8>| payload.clone_from(&ceiling),
    };
    let result = Pem::new(cfg, data.len())
        .expect("setup")
        .run_window_on(&mut net, &data);
    assert!(
        matches!(
            result,
            Err(PemError::Circuit(CircuitError::MalformedGarbling(
                "offer width is not the agreed width"
            )))
        ),
        "got {result:?}"
    );
}

type MsgLog = Vec<(usize, usize, &'static str, u64, u64, u64)>;

/// Serialises the tests that install the collector: `uninstall` clears the
/// global journal, which would empty a concurrent test's log mid-run.
static COLLECTOR: std::sync::Mutex<()> = std::sync::Mutex::new(());

/// Runs one window under `plan` on a fresh LAN fabric and returns whether
/// it succeeded, with the fabric's message journal in record order.
/// Concurrent tests in this binary may record onto other fabrics, so the
/// journal is scoped by fabric id. The collector must be installed by the
/// caller.
fn journal(plan: FaultPlan) -> (bool, MsgLog) {
    let mark = pem_telemetry::msg_count();
    let mut net =
        SimNetwork::with_latency(population().len(), LatencyModel::lan()).with_faults(plan);
    let result = run_window_on(&mut net);
    let log = pem_telemetry::msgs_since(mark)
        .iter()
        .filter(|m| m.fabric == net.fabric_id())
        .map(|m| (m.from, m.to, m.label, m.bytes, m.depart_us, m.arrival_us))
        .collect();
    (result.is_ok(), log)
}

/// Checks that the faulted send of `label` is journalled with its modelled
/// LAN latency and that the journal up to and including it is the clean
/// run's.
fn assert_journal_matches_clean_up_to(
    kind: FaultKind,
    label: &str,
    faulted: &MsgLog,
    clean: &MsgLog,
) {
    let at = faulted
        .iter()
        .position(|m| m.2 == label)
        .expect("the faulted send is journalled");
    let (from, to, _, bytes, depart_us, arrival_us) = faulted[at];
    assert!(
        arrival_us >= depart_us + LatencyModel::lan().charge_us(bytes as usize),
        "{kind:?}: P{from}→P{to} carries its modelled LAN latency"
    );
    assert_eq!(
        faulted[..=at],
        clean[..=at],
        "{kind:?}: the journal up to the faulted send is the clean run's"
    );
}

#[test]
fn fault_plans_leave_identical_message_logs() {
    // With the telemetry collector installed, the send pipeline journals
    // a `MsgEvent` per send *before* fault processing, so a dropped
    // message is still witnessed with the departure and arrival its link
    // modelled. Up to and including the faulted send, a faulted run's
    // journal is therefore exactly the clean run's.
    let _collector = COLLECTOR.lock().unwrap_or_else(|e| e.into_inner());
    pem_telemetry::install();
    let (clean_ok, clean) = journal(FaultPlan::new());
    assert!(clean_ok, "clean run");
    for label in ["eval/supply-agg", "eval/gc-offer"] {
        let (ok, faulted) = journal(FaultPlan::new().inject(label, 0, FaultKind::Drop));
        assert!(!ok, "{label}: the dropped message aborts the run");
        assert_journal_matches_clean_up_to(FaultKind::Drop, label, &faulted, &clean);
    }
    pem_telemetry::uninstall();
}

#[test]
fn delay_and_stall_leave_identical_message_logs() {
    // A stalled sender and a lossy link look the same to the recipient,
    // so both are a `Drop`: the envelope is journalled at its modelled
    // (delayed) departure and arrival, then withheld. Its journal up to
    // the withheld send is the clean run's, and two runs under the same
    // plan leave byte-identical journals.
    let _collector = COLLECTOR.lock().unwrap_or_else(|e| e.into_inner());
    pem_telemetry::install();
    let (clean_ok, clean) = journal(FaultPlan::new());
    assert!(clean_ok, "clean run");
    let plan = FaultPlan::new().inject("eval/supply-agg", 0, FaultKind::Drop);
    let (ok, withheld) = journal(plan.clone());
    assert!(!ok, "the withheld message aborts the run");
    assert_journal_matches_clean_up_to(FaultKind::Drop, "eval/supply-agg", &withheld, &clean);
    let (again_ok, again) = journal(plan);
    assert!(!again_ok, "the withheld message aborts the rerun");
    assert_eq!(withheld, again, "the same plan leaves the same journal");
    pem_telemetry::uninstall();
}

#[test]
fn lost_message_aborts_with_one_error_class() {
    // A Drop swallows the envelope after it was journalled, whichever
    // message of Protocols 2–4 was lost: polled in a loop, the
    // recipient's receive finds an empty mailbox. On the executor the
    // window meets the same error at the poll that wanted the message,
    // in a yielding stage (the rings, pricing) or not (the comparison,
    // Protocol 4). No poll budget exists anywhere.
    let labels = ["eval/demand-agg", "eval/supply-agg", "eval/gc-offer"]
        .into_iter()
        .chain(PRICE_AND_DIST_LABELS);
    for label in labels {
        let plan = FaultPlan::new().inject(label, 0, FaultKind::Drop);
        for (runner, result) in [
            ("polled", run_faulted(plan.clone())),
            ("executor", run_on_executor(plan)),
        ] {
            assert!(
                matches!(result, Err(PemError::Net(NetError::Empty { .. }))),
                "{label} ({runner}): got {result:?}"
            );
        }
    }
}

#[test]
fn full_window_runs_on_a_caller_built_fabric() {
    // A whole PEM window (Protocols 2+3+4) polled on a caller-built
    // fabric must reproduce `run_window` exactly — no public protocol
    // entry point owns its transport.
    let a = market().run_window(&population()).expect("default window");
    let mut net = SimNetwork::new(4);
    let b = run_window_on(&mut net).expect("caller-built window");
    assert_eq!(a.kind, b.kind);
    assert_eq!(a.price.to_bits(), b.price.to_bits());
    assert_eq!(a.trades, b.trades);
    assert_eq!(a.revealed, b.revealed);
    assert_eq!(a.net, b.net, "identical traffic");

    // A mismatched fabric is rejected with a typed error.
    let mut small = SimNetwork::new(3);
    assert!(matches!(
        run_window_on(&mut small),
        Err(PemError::Protocol(_))
    ));
}

#[test]
fn whole_window_faults_end_the_same_on_both_fabrics() {
    // One dropped message per phase: a caller-built faulted fabric and
    // the one `fabric_attempt` builds poll the same window body, so they
    // must end in the same error class.
    for label in ["eval/demand-agg", "price/agg", "dist/total-agg"] {
        let plan = FaultPlan::new().inject(label, 0, FaultKind::Drop);
        let caller_result = run_faulted(plan.clone());
        let own_result = run_on_executor(plan);
        match (&own_result, &caller_result) {
            (Err(a), Err(b)) => assert_eq!(
                std::mem::discriminant(a),
                std::mem::discriminant(b),
                "{label}: same error class expected: {a:?} vs {b:?}"
            ),
            (a, b) => panic!("{label}: a dropped message aborts both: {a:?} vs {b:?}"),
        }
    }
}
