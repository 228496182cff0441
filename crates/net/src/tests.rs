//! Wire-protocol robustness properties and TCP loopback integration
//! tests.
//!
//! The property half attacks the codec the way a hostile or broken peer
//! would: truncated frames, oversize length prefixes, garbage bytes, and
//! single-bit corruption must all come back as `Err`, never as a panic,
//! a wedge, or an unbounded allocation. The loopback half runs a real
//! `Server` on an ephemeral port and checks the end-to-end contracts:
//! verdict parity with known ground truth, exact submission-order
//! reassembly across shards, hot-tier promotion, and that one
//! misbehaving connection never takes the server down for others.

use crate::client::{outcome_of_wire, wire_query, Client};
use crate::service::NetCfg;
use crate::wire::{
    self, decode_msg, encode_msg, FrameReader, Msg, WireError, WireOutcome, WireQuery,
    WireVerdict, SHARD_HOT,
};
use crate::{Server, ServerCore};
use serval_check::prelude::*;
use serval_engine::form::{self, BackMap, Core, Node};
use serval_engine::solve::PortableModel;
use serval_engine::{Engine, EngineCfg, Query};
use serval_smt::solver::{SolverConfig, VerifyResult};
use serval_smt::term::{Op, Sort};
use serval_smt::{reset_ctx, Rephase, SBool, BV};

// ----------------------------------------------------------------------------
// Helpers
// ----------------------------------------------------------------------------

/// Deterministically builds one of each message shape from fuzz picks.
fn sample_msg(picks: &[u8]) -> Msg {
    let byte = |i: usize| picks.get(i).copied().unwrap_or(0);
    let word = |i: usize| u64::from_le_bytes([byte(i), byte(i + 1), byte(i + 2), 0, 0, 0, 0, 0]);
    match byte(0) % 6 {
        0 => Msg::Hello { version: wire::PROTO_VERSION },
        1 => Msg::HelloAck {
            version: wire::PROTO_VERSION,
            shards: u32::from(byte(1)) + 1,
            shard_jobs: u32::from(byte(2)) + 1,
            max_inflight: u32::from(byte(3)) + 1,
            hot_threshold: u32::from(byte(4)),
        },
        2 => Msg::Batch { id: word(1), queries: sample_queries(&picks[1..]) },
        3 => Msg::Ping { token: word(1) },
        4 => Msg::StatsReq,
        _ => Msg::Error { msg: format!("synthetic error {}", word(1)) },
    }
}

/// Real wire queries (the cores go through `wire_query`, so they are
/// exactly what a genuine client would send), each under its own
/// sampled solver config.
fn sample_queries(picks: &[u8]) -> Vec<WireQuery> {
    reset_ctx();
    let n = (picks.first().copied().unwrap_or(0) % 3) as usize + 1;
    (0..n)
        .map(|i| {
            let tail = &picks[i.min(picks.len().saturating_sub(1))..];
            let (assumptions, goals) = sample_obligation(tail, 1);
            let mut q = query(&format!("fuzz/{i}"), assumptions, goals[0]);
            q.cfg = sample_cfg(tail.get(8..).unwrap_or_default());
            wire_query(&q).0
        })
        .collect()
}

/// A solver config drawn from fuzz picks, so the codec round-trips
/// non-default values of every field it carries. `var_decay` stays in
/// the `(0, 1]` range the decoder admits.
fn sample_cfg(picks: &[u8]) -> SolverConfig {
    let byte = |i: usize| picks.get(i).copied().unwrap_or(0);
    SolverConfig {
        conflict_budget: (byte(0) % 2 == 1).then(|| u64::from(byte(1)) << 8 | u64::from(byte(2))),
        restart_base: u64::from(byte(3)) + 1,
        var_decay: (f64::from(byte(4)) + 1.0) / 256.0,
        default_phase: byte(5) % 2 == 1,
        restart_geometric: byte(6) % 2 == 1,
        rephase: match byte(7) % 3 {
            0 => Rephase::Off,
            1 => Rephase::Invert,
            _ => Rephase::Reset,
        },
    }
}

/// A small random obligation with `n_goals` goals over two shared 32-bit
/// variables. Shapes cover all the wire-interesting node kinds: vars,
/// constants, the boolean connectives, comparisons, extracts, and
/// extensions.
fn sample_obligation(picks: &[u8], n_goals: usize) -> (Vec<SBool>, Vec<SBool>) {
    let byte = |i: usize| picks.get(i).copied().unwrap_or(0);
    let x = BV::fresh(32, "x");
    let y = BV::fresh(32, "y");
    let tail = |g: usize| &picks[g.min(picks.len().saturating_sub(1))..];
    let goals = (0..n_goals).map(|g| sample_goal(x, y, tail(g))).collect();
    let assumptions = if byte(7) % 2 == 0 { vec![x.ule(y)] } else { vec![] };
    (assumptions, goals)
}

/// One goal over `x` and `y`, shaped by `picks`.
fn sample_goal(x: BV, y: BV, picks: &[u8]) -> SBool {
    let byte = |i: usize| picks.get(i).copied().unwrap_or(0);
    let k = BV::lit(32, u128::from(byte(1)));
    let mut acc = x;
    for step in 0..(byte(0) % 4) {
        acc = match byte(usize::from(step) + 2) % 6 {
            0 => acc + y,
            1 => acc & k,
            2 => acc | y,
            3 => acc ^ k,
            4 => acc.extract(15, 0).zext(32),
            _ => acc.extract(7, 0).sext(32),
        };
    }
    match byte(6) % 3 {
        0 => (acc & k).ule(acc),
        1 => acc.ult(k),
        _ => acc.eq_(y).implies(y.eq_(acc)),
    }
}

/// A test server config: single-worker shards, no disk cache, so tests
/// stay fast and hermetic.
fn test_cfg(shards: usize, hot_threshold: u32) -> NetCfg {
    let mut cfg = NetCfg::default();
    cfg.shards = shards;
    cfg.hot_threshold = hot_threshold;
    cfg.engine.jobs = 1;
    cfg.engine.disk_cache = None;
    cfg
}

fn query(label: &str, assumptions: Vec<SBool>, goal: SBool) -> Query {
    Query { label: label.to_string(), assumptions, goal, cfg: SolverConfig::default() }
}

// ----------------------------------------------------------------------------
// Codec properties
// ----------------------------------------------------------------------------

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// Every message survives encode → decode → encode byte-identically.
    #[test]
    fn prop_msg_reencode_fixpoint(picks in prop::collection::vec(any::<u8>(), 1..24)) {
        let payload = encode_msg(&sample_msg(&picks));
        let decoded = decode_msg(&payload).expect("own encoding must decode");
        prop_assert_eq!(encode_msg(&decoded), payload);
    }

    /// Any strict prefix of a valid payload is rejected — truncation can
    /// never produce a different valid message, and never panics.
    #[test]
    fn prop_truncated_payload_rejected(
        picks in prop::collection::vec(any::<u8>(), 1..24),
        cut in any::<u16>(),
    ) {
        let payload = encode_msg(&sample_msg(&picks));
        let cut = usize::from(cut) % payload.len();
        prop_assert!(decode_msg(&payload[..cut]).is_err());
    }

    /// Arbitrary garbage decodes to `Err`, never a panic — through both
    /// the message codec and the term-core deserializer.
    #[test]
    fn prop_garbage_never_panics(bytes in prop::collection::vec(any::<u8>(), 0..96)) {
        let _ = decode_msg(&bytes);
        let _ = Core::decode(&bytes);
    }

    /// A single flipped bit in a valid payload either still decodes (it
    /// hit a value field) or errors — and whatever decodes re-encodes
    /// without panicking.
    #[test]
    fn prop_bit_flip_never_panics(
        picks in prop::collection::vec(any::<u8>(), 1..24),
        at in any::<u16>(),
        bit in any::<u8>(),
    ) {
        let mut payload = encode_msg(&sample_msg(&picks));
        let at = usize::from(at) % payload.len();
        payload[at] ^= 1 << (bit % 8);
        if let Ok(m) = decode_msg(&payload) {
            let _ = encode_msg(&m);
        }
    }

    /// Frames split at arbitrary byte boundaries reassemble exactly, in
    /// order, through `FrameReader`.
    #[test]
    fn prop_frame_reader_reassembles(
        picks in prop::collection::vec(any::<u8>(), 1..24),
        chunks in prop::collection::vec(any::<u8>(), 1..16),
    ) {
        let payloads: Vec<Vec<u8>> = (0..3)
            .map(|i| encode_msg(&sample_msg(&picks[i.min(picks.len() - 1)..])))
            .collect();
        let mut stream = Vec::new();
        for p in &payloads {
            wire::write_frame(&mut stream, p).unwrap();
        }
        let mut reader = FrameReader::new(wire::DEFAULT_MAX_FRAME);
        let mut out = Vec::new();
        let mut at = 0;
        let mut pick = 0;
        while at < stream.len() {
            let step = usize::from(chunks[pick % chunks.len()]) % 7 + 1;
            pick += 1;
            let end = (at + step).min(stream.len());
            reader.push(&stream[at..end]);
            at = end;
            while let Some(frame) = reader.next_frame().unwrap() {
                out.push(frame);
            }
        }
        prop_assert_eq!(out, payloads);
    }

    /// `prepare` → `encode` → `decode` is lossless for cores of one to
    /// three goals (wire queries carry one, session tasks several), and
    /// rebuilding the core into a fresh term context then preparing
    /// again reproduces the same bytes (the format is a fixpoint).
    #[test]
    fn prop_core_roundtrip_fixpoint(
        picks in prop::collection::vec(any::<u8>(), 1..16),
        n_goals in 1usize..4,
    ) {
        reset_ctx();
        let (assumptions, goals) = sample_obligation(&picks, n_goals);
        let prepared = form::prepare(&assumptions, &goals);
        let bytes = prepared.core.encode();
        let core = Core::decode(&bytes).expect("own core bytes must decode");
        prop_assert_eq!(&core, &prepared.core);

        reset_ctx();
        let rebuilt = form::rebuild(&core);
        let again = form::prepare(&rebuilt.assumptions, &rebuilt.goals);
        prop_assert_eq!(again.core.encode(), bytes);
    }

    /// Truncated core bytes are always rejected.
    #[test]
    fn prop_core_truncation_rejected(
        picks in prop::collection::vec(any::<u8>(), 1..16),
        n_goals in 1usize..4,
        cut in any::<u16>(),
    ) {
        reset_ctx();
        let (assumptions, goals) = sample_obligation(&picks, n_goals);
        let bytes = form::prepare(&assumptions, &goals).core.encode();
        let cut = usize::from(cut) % bytes.len();
        prop_assert!(Core::decode(&bytes[..cut]).is_err());
    }

    /// A flipped bit in core bytes either errors or yields a core that
    /// still validates — in which case rebuilding it must not panic.
    #[test]
    fn prop_core_bit_flip_never_panics(
        picks in prop::collection::vec(any::<u8>(), 1..16),
        n_goals in 1usize..4,
        at in any::<u16>(),
        bit in any::<u8>(),
    ) {
        reset_ctx();
        let (assumptions, goals) = sample_obligation(&picks, n_goals);
        let mut bytes = form::prepare(&assumptions, &goals).core.encode();
        let at = usize::from(at) % bytes.len();
        bytes[at] ^= 1 << (bit % 8);
        if let Ok(core) = Core::decode(&bytes) {
            reset_ctx();
            let _ = form::rebuild(&core);
        }
    }
}

// ----------------------------------------------------------------------------
// Framing edge cases
// ----------------------------------------------------------------------------

/// An oversize length prefix is rejected before any allocation, both in
/// the blocking reader and the incremental one.
#[test]
fn oversize_prefix_rejected_without_allocation() {
    let mut frame = (u32::MAX).to_le_bytes().to_vec();
    frame.extend_from_slice(b"xx");
    let err = wire::read_frame(&mut frame.as_slice(), 1 << 20).unwrap_err();
    assert_eq!(err, WireError::Oversize { len: u64::from(u32::MAX), max: 1 << 20 });

    let mut reader = FrameReader::new(1 << 20);
    reader.push(&frame);
    assert!(reader.next_frame().is_err());
}

/// EOF cleanly between frames is `Ok(None)`; EOF inside a frame is
/// `Truncated`.
#[test]
fn eof_position_distinguishes_clean_close_from_truncation() {
    assert_eq!(wire::read_frame(&mut [].as_slice(), 1 << 20).unwrap(), None);

    let mut stream = Vec::new();
    wire::write_frame(&mut stream, b"hello").unwrap();
    stream.truncate(stream.len() - 2);
    assert_eq!(
        wire::read_frame(&mut stream.as_slice(), 1 << 20).unwrap_err(),
        WireError::Truncated
    );
}

/// `var_decay` outside `(0, 1]` is rejected at decode: the solver
/// asserts that range, so a config that got through would panic the
/// worker that solves it.
#[test]
fn var_decay_outside_unit_interval_rejected() {
    let batch = |var_decay: f64| {
        let mut queries = sample_queries(&[0]);
        queries[0].cfg.var_decay = var_decay;
        encode_msg(&Msg::Batch { id: 1, queries })
    };
    for bad in [0.0, -0.0, -0.5, 1.5, f64::NAN, f64::INFINITY] {
        assert_eq!(
            decode_msg(&batch(bad)).err(),
            Some(WireError::Garbage("var_decay out of range")),
            "var_decay {bad:?}"
        );
    }
    for good in [f64::MIN_POSITIVE, 0.95, 1.0] {
        assert!(decode_msg(&batch(good)).is_ok(), "var_decay {good:?}");
    }
}

// ----------------------------------------------------------------------------
// TCP loopback integration
// ----------------------------------------------------------------------------

/// Verdicts through the server match ground truth, and countermodels,
/// mapped back onto the caller's terms, genuinely refute the goal.
#[test]
fn loopback_verdicts_match_ground_truth() {
    let server = Server::bind("127.0.0.1:0", test_cfg(2, 0)).unwrap();
    let mut client = Client::connect(&server.local_addr().to_string()).unwrap();

    reset_ctx();
    let x = BV::fresh(32, "x");
    let m = BV::fresh(32, "m");
    let tauto = (x & m).ule(x);
    let refutable = x.ult(BV::lit(32, 10));
    let asm = x.uge(BV::lit(32, 3));
    let queries = vec![
        query("t/tauto", vec![], tauto),
        query("t/refutable", vec![asm], refutable),
    ];
    let outcomes = client.submit_batch(queries).unwrap();

    assert_eq!(outcomes.len(), 2);
    assert_eq!(outcomes[0].label, "t/tauto");
    assert!(matches!(outcomes[0].result, VerifyResult::Proved), "{:?}", outcomes[0].result);
    match &outcomes[1].result {
        VerifyResult::Counterexample(model) => {
            assert!(model.eval_bool(asm.0), "countermodel must satisfy the assumption");
            assert!(!model.eval_bool(refutable.0), "countermodel must falsify the goal");
        }
        other => panic!("expected a countermodel, got {other:?}"),
    }
    server.shutdown();
}

/// 24 queries across 4 shards: every outcome lands at its submission
/// slot even though shards answer independently, and the forced
/// countermodels prove slot `i` really holds query `i`'s answer.
#[test]
fn loopback_submission_order_across_shards() {
    let server = Server::bind("127.0.0.1:0", test_cfg(4, 0)).unwrap();
    let mut client = Client::connect(&server.local_addr().to_string()).unwrap();

    reset_ctx();
    let x = BV::fresh(32, "x");
    // Each query pins x = i and claims false, so its only countermodel
    // has x = i: a misplaced outcome is immediately visible.
    let queries: Vec<Query> = (0..24u128)
        .map(|i| {
            query(&format!("order/{i}"), vec![x.eq_(BV::lit(32, i))], SBool::lit(false))
        })
        .collect();
    let outcomes = client.submit_batch(queries).unwrap();

    assert_eq!(outcomes.len(), 24);
    for (i, out) in outcomes.iter().enumerate() {
        assert_eq!(out.label, format!("order/{i}"));
        match &out.result {
            VerifyResult::Counterexample(model) => {
                assert_eq!(model.eval_bv(x.0), i as u128, "slot {i} holds another query's model");
            }
            other => panic!("order/{i}: expected countermodel, got {other:?}"),
        }
    }
    let stats = client.last_stats.clone().expect("reply carries stats");
    let exercised = stats.shards.iter().filter(|row| row.queued > 0).count();
    assert!(exercised >= 2, "expected at least 2 shards exercised, got {exercised}");
    server.shutdown();
}

/// A repeated query crosses the hot threshold and later submissions are
/// served by the replicated hot tier with the same verdict.
#[test]
fn loopback_hot_tier_serves_repeats() {
    let server = Server::bind("127.0.0.1:0", test_cfg(2, 2)).unwrap();
    let mut client = Client::connect(&server.local_addr().to_string()).unwrap();

    for round in 0..3 {
        reset_ctx();
        let x = BV::fresh(32, "x");
        let m = BV::fresh(32, "m");
        let outcomes =
            client.submit_batch(vec![query("hot/tauto", vec![], (x & m).ule(x))]).unwrap();
        assert!(matches!(outcomes[0].result, VerifyResult::Proved), "round {round}");
    }
    let stats = client.server_stats().unwrap();
    assert!(stats.hot_entries >= 1, "threshold 2 crossed, nothing promoted: {stats:?}");
    assert!(stats.hot_hits >= 1, "third submission should hit the hot tier: {stats:?}");
    server.shutdown();
}

/// A garbage frame earns an `Error` reply and a close — and the server
/// keeps serving other clients afterwards.
#[test]
fn loopback_garbage_frame_gets_error_then_close() {
    let server = Server::bind("127.0.0.1:0", test_cfg(2, 0)).unwrap();
    let addr = server.local_addr().to_string();

    let mut raw = std::net::TcpStream::connect(&addr).unwrap();
    wire::write_frame(&mut raw, b"\xde\xad\xbe\xef not a message").unwrap();
    let reply = wire::read_frame(&mut raw, wire::DEFAULT_MAX_FRAME).unwrap().unwrap();
    assert!(matches!(decode_msg(&reply), Ok(Msg::Error { .. })));
    assert_eq!(wire::read_frame(&mut raw, wire::DEFAULT_MAX_FRAME).unwrap(), None);

    let mut client = Client::connect(&addr).unwrap();
    assert!(client.ping().is_ok(), "server must survive a hostile connection");
    let stats = client.server_stats().unwrap();
    assert!(stats.protocol_errors >= 1);
    server.shutdown();
}

/// A batch whose config the solver would refuse (`var_decay` of zero)
/// earns an `Error` reply and a close instead of a worker panic, and
/// the server keeps serving.
#[test]
fn loopback_zero_var_decay_gets_error_then_close() {
    let server = Server::bind("127.0.0.1:0", test_cfg(2, 0)).unwrap();
    let addr = server.local_addr().to_string();

    reset_ctx();
    let x = BV::fresh(32, "x");
    let goal = x.ult(BV::lit(32, 10));
    let (wq, _) = wire_query(&query("zero-decay", vec![], goal));
    for var_decay in [0.0, -0.0] {
        let mut raw = std::net::TcpStream::connect(&addr).unwrap();
        wire::write_frame(&mut raw, &encode_msg(&Msg::Hello { version: wire::PROTO_VERSION }))
            .unwrap();
        let _ = wire::read_frame(&mut raw, wire::DEFAULT_MAX_FRAME).unwrap();
        let batch = Msg::Batch {
            id: 1,
            queries: vec![WireQuery {
                cfg: SolverConfig { var_decay, ..SolverConfig::default() },
                ..wq.clone()
            }],
        };
        wire::write_frame(&mut raw, &encode_msg(&batch)).unwrap();
        let reply = wire::read_frame(&mut raw, wire::DEFAULT_MAX_FRAME).unwrap().unwrap();
        assert!(
            matches!(decode_msg(&reply), Ok(Msg::Error { .. })),
            "var_decay {var_decay:?} must be refused"
        );
        assert_eq!(wire::read_frame(&mut raw, wire::DEFAULT_MAX_FRAME).unwrap(), None);
    }

    let mut client = Client::connect(&addr).unwrap();
    let outcomes = client.submit_batch(vec![query("survivor", vec![], goal)]).unwrap();
    assert!(matches!(outcomes[0].result, VerifyResult::Counterexample(_)));
    let stats = client.server_stats().unwrap();
    assert!(stats.protocol_errors >= 2);
    server.shutdown();
}

/// A client that sends a batch and vanishes mid-exchange neither wedges
/// the server nor corrupts another client's concurrent work.
#[test]
fn loopback_mid_batch_disconnect_leaves_server_healthy() {
    let server = Server::bind("127.0.0.1:0", test_cfg(2, 0)).unwrap();
    let addr = server.local_addr().to_string();

    {
        let mut raw = std::net::TcpStream::connect(&addr).unwrap();
        wire::write_frame(&mut raw, &encode_msg(&Msg::Hello { version: wire::PROTO_VERSION }))
            .unwrap();
        let _ = wire::read_frame(&mut raw, wire::DEFAULT_MAX_FRAME).unwrap();
        reset_ctx();
        let x = BV::fresh(32, "x");
        let batch = Msg::Batch {
            id: 7,
            queries: vec![wire_query(&query("doomed", vec![], x.eq_(x))).0],
        };
        wire::write_frame(&mut raw, &encode_msg(&batch)).unwrap();
        // Drop without reading the reply: the write side sees a reset.
    }

    let mut client = Client::connect(&addr).unwrap();
    reset_ctx();
    let x = BV::fresh(32, "x");
    let outcomes = client.submit_batch(vec![query("survivor", vec![], x.eq_(x))]).unwrap();
    assert!(matches!(outcomes[0].result, VerifyResult::Proved));
    server.shutdown();
}

/// The first frame must be a versioned `Hello`; anything else (or a
/// version mismatch) is answered with `Error` and a close.
#[test]
fn loopback_handshake_is_mandatory() {
    let server = Server::bind("127.0.0.1:0", test_cfg(2, 0)).unwrap();
    let addr = server.local_addr().to_string();

    let mut raw = std::net::TcpStream::connect(&addr).unwrap();
    wire::write_frame(&mut raw, &encode_msg(&Msg::Ping { token: 1 })).unwrap();
    let reply = wire::read_frame(&mut raw, wire::DEFAULT_MAX_FRAME).unwrap().unwrap();
    assert!(matches!(decode_msg(&reply), Ok(Msg::Error { .. })));

    let mut raw = std::net::TcpStream::connect(&addr).unwrap();
    wire::write_frame(&mut raw, &encode_msg(&Msg::Hello { version: 999 })).unwrap();
    let reply = wire::read_frame(&mut raw, wire::DEFAULT_MAX_FRAME).unwrap().unwrap();
    assert!(matches!(decode_msg(&reply), Ok(Msg::Error { .. })));
    server.shutdown();
}

/// A malformed core inside an otherwise well-formed batch is rejected at
/// admission (`Error` + close), before any shard sees it.
#[test]
fn loopback_malformed_core_rejected_at_admission() {
    let server = Server::bind("127.0.0.1:0", test_cfg(2, 0)).unwrap();
    let addr = server.local_addr().to_string();

    let mut raw = std::net::TcpStream::connect(&addr).unwrap();
    wire::write_frame(&mut raw, &encode_msg(&Msg::Hello { version: wire::PROTO_VERSION }))
        .unwrap();
    let _ = wire::read_frame(&mut raw, wire::DEFAULT_MAX_FRAME).unwrap();
    let batch = Msg::Batch {
        id: 1,
        queries: vec![WireQuery {
            label: "bogus".to_string(),
            cfg: SolverConfig::default(),
            core_bytes: b"SQ2\0garbage".to_vec(),
        }],
    };
    wire::write_frame(&mut raw, &encode_msg(&batch)).unwrap();
    let reply = wire::read_frame(&mut raw, wire::DEFAULT_MAX_FRAME).unwrap().unwrap();
    match decode_msg(&reply) {
        Ok(Msg::Error { msg }) => assert!(msg.contains("bogus"), "error should name the query: {msg}"),
        other => panic!("expected Error frame, got {other:?}"),
    }
    server.shutdown();
}

/// Hot-tier hits report the `SHARD_HOT` sentinel so clients can tell
/// replicated answers from shard answers.
#[test]
fn loopback_hot_hits_report_sentinel_shard() {
    let server = Server::bind("127.0.0.1:0", test_cfg(2, 1)).unwrap();
    let core = server.core();

    reset_ctx();
    let x = BV::fresh(32, "x");
    let (wq, _) = wire_query(&query("hot", vec![], x.eq_(x)));
    let wq = || wq.clone();
    // Threshold 1: the first discharge promotes, the second must be a
    // hot-tier hit.
    let first = core.discharge(vec![wq()]);
    assert!(matches!(first[0].verdict, WireVerdict::Proved));
    let second = core.discharge(vec![wq()]);
    assert!(matches!(second[0].verdict, WireVerdict::Proved));
    assert_eq!(second[0].shard, SHARD_HOT);
    assert!(second[0].cache_hit);
    server.shutdown();
}

// ----------------------------------------------------------------------------
// One core format: cache key, hostile cores, remote countermodels
// ----------------------------------------------------------------------------

/// A query's cache key is exactly the `core_bytes` a client sends for
/// it: a local engine that solved the query, and a server that solved
/// the wire query, both hold the verdict under those very bytes.
#[test]
fn cache_key_is_the_wire_payload() {
    reset_ctx();
    let x = BV::fresh(32, "x");
    let y = BV::fresh(32, "y");
    let asm = x.ult(y);
    let goal = (x & y).ule(x);
    let (wq, _) = wire_query(&query("key", vec![asm], goal));

    let engine = Engine::new(EngineCfg { jobs: 1, disk_cache: None, ..EngineCfg::default() });
    assert!(engine.cache().probe(&wq.core_bytes).is_none());
    let out = engine.submit(query("key", vec![asm], goal));
    assert!(matches!(out.result, VerifyResult::Proved), "{:?}", out.result);
    assert!(engine.cache().probe(&wq.core_bytes).is_some(), "engine keys on the wire bytes");

    let server = ServerCore::new(test_cfg(1, 0));
    let replies = server.discharge(vec![wq.clone()]);
    assert!(matches!(replies[0].verdict, WireVerdict::Proved));
    let shard_cache = server.shards()[0].engine().cache();
    assert!(shard_cache.probe(&wq.core_bytes).is_some(), "server keys on the wire bytes");
}

fn node(op: Op, children: Vec<u32>, sort: Sort) -> Node {
    Node { op, children, sort }
}

/// Cores whose every node is well-formed but which do not describe the
/// query they seem to: `x = x` with `x` split across two var nodes
/// (which would rebuild as two distinct constants, making a tautology
/// refutable), and a declared var no node uses. Both must be refused by
/// the decoder and at admission; cores with zero or two goals decode
/// but are refused at admission, since a wire query has one goal.
#[test]
fn hostile_cores_rejected() {
    let bv = Sort::BitVec(32);
    let split_var = Core {
        nodes: vec![
            node(Op::Var(0), vec![], bv),
            node(Op::Var(0), vec![], bv),
            node(Op::Eq, vec![0, 1], Sort::Bool),
        ],
        asms: vec![],
        goals: vec![2],
        var_sorts: vec![bv],
        uf_sigs: vec![],
    };
    let unused_var = Core {
        nodes: vec![
            node(Op::Var(0), vec![], bv),
            node(Op::BvConst(5), vec![], bv),
            node(Op::Ult, vec![0, 1], Sort::Bool),
        ],
        asms: vec![],
        goals: vec![2],
        var_sorts: vec![bv, bv],
        uf_sigs: vec![],
    };
    for bad in [&split_var, &unused_var] {
        assert!(Core::decode(&bad.encode()).is_err(), "decoded {bad:?}");
    }
    reset_ctx();
    let x = BV::fresh(32, "x");
    let k = BV::lit(32, 9);
    let no_goal = form::prepare(&[x.ult(k)], &[]).core;
    let two_goals = form::prepare(&[], &[x.ult(k), x.ule(k)]).core;
    for ok in [&no_goal, &two_goals] {
        assert!(Core::decode(&ok.encode()).is_ok());
    }

    let server = ServerCore::new(test_cfg(1, 0));
    for (label, bad) in
        [("split", split_var), ("unused", unused_var), ("none", no_goal), ("two", two_goals)]
    {
        let wq = WireQuery {
            label: label.to_string(),
            cfg: SolverConfig::default(),
            core_bytes: bad.encode(),
        };
        let why = server.check_batch(&[wq]).expect_err(label);
        assert!(why.contains(label), "error should name the query: {why}");
    }
}

/// A `Refuted` reply carrying `model`.
fn refuted_reply(model: PortableModel) -> WireOutcome {
    WireOutcome {
        verdict: WireVerdict::Refuted(model),
        cert: 0,
        cache_hit: false,
        shard: 0,
        wall_micros: 0,
        stats: None,
        error: None,
    }
}

/// The client does not trust a server's countermodel: one naming a var
/// the query does not have, or one that does not refute the caller's
/// own query, degrades to `Unknown` with an error instead of panicking
/// or surfacing as a wrong `Refuted`. A genuine one passes.
#[test]
fn remote_countermodels_are_checked() {
    reset_ctx();
    let x = BV::fresh(32, "x");
    let asm = x.uge(BV::lit(32, 3));
    let goal = x.ult(BV::lit(32, 10));
    let (_, backmap) = wire_query(&query("q", vec![asm], goal));
    let with_x = |v: u128| PortableModel { bvs: vec![(0, v)], ..PortableModel::default() };

    let out_of_range = PortableModel { bvs: vec![(5, 1)], ..PortableModel::default() };
    let empty = BackMap::default();
    let o = outcome_of_wire("q".into(), refuted_reply(out_of_range), &empty, &[asm], goal);
    assert!(matches!(o.result, VerifyResult::Unknown), "{:?}", o.result);
    assert!(o.error.is_some());

    let o = outcome_of_wire("q".into(), refuted_reply(with_x(5)), &backmap, &[asm], goal);
    assert!(matches!(o.result, VerifyResult::Unknown), "x = 5 does not refute: {:?}", o.result);
    assert!(o.error.is_some());

    let o = outcome_of_wire("q".into(), refuted_reply(with_x(12)), &backmap, &[asm], goal);
    assert!(matches!(o.result, VerifyResult::Counterexample(_)), "{:?}", o.result);
    assert!(o.error.is_none());
}
