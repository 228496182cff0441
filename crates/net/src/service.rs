//! The transport-free server core: shards, routing, hot tier, stats.
//!
//! [`ServerCore`] is everything `servald` does *except* sockets: it
//! owns N [`Shard`]s (each a private [`serval_engine::Engine`] with its
//! own slice of the worker budget and its own verdict-cache partition),
//! routes each query to its home shard by FNV-64 of the alpha-invariant
//! normal-form bytes, answers repeat queries from the replicated hot
//! tier, and assembles submission-order outcomes. The TCP front end
//! ([`crate::server`]) layers connections and backpressure on top; the
//! deterministic simulator (`crates/sim`'s `net_batch` scenario) drives
//! this core directly through [`ServerCore::handle_payload`] with the
//! real codec, so the protocol logic is exercised under seeded hostile
//! schedules without real sockets.
//!
//! Shard discharge runs on a scratch thread per shard
//! (`std::thread::scope`), never on the caller's thread: rebuilding a
//! wire core calls `reset_ctx()`, and the dispatching thread (a
//! connection reader, or a sim scenario holding its own terms) must keep
//! its term context intact.

use crate::hot::HotTier;
use crate::wire::{
    self, Msg, ServerStats, ShardStatsRow, WireOutcome, WireQuery, WireVerdict, SHARD_HOT,
};
use crate::fnv64;
use serval_check::sim;
use serval_engine::form;
use serval_engine::{Engine, EngineCfg, Query};
use serval_smt::solver::VerifyResult;
use serval_smt::term::reset_ctx;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

/// Server configuration.
#[derive(Clone, Debug)]
pub struct NetCfg {
    /// Listen / connect address (`SERVAL_ADDR`).
    pub addr: String,
    /// Worker shard count (`SERVAL_SHARDS`, clamped to at least 1).
    pub shards: usize,
    /// Per-connection in-flight frame bound (`SERVAL_MAX_INFLIGHT`).
    pub max_inflight: usize,
    /// Hot-tier promotion threshold (`SERVAL_HOT_THRESHOLD`, 0 = off).
    pub hot_threshold: u32,
    /// Frame payload bound (`SERVAL_MAX_FRAME`).
    pub max_frame: usize,
    /// Engine template for the shards. `engine.jobs` is the *total*
    /// worker budget, divided evenly across shards; a per-shard disk
    /// cache partition is derived from `engine.disk_cache`.
    pub engine: EngineCfg,
}

impl Default for NetCfg {
    fn default() -> Self {
        NetCfg {
            addr: "127.0.0.1:7557".to_string(),
            shards: 2,
            max_inflight: 4,
            hot_threshold: 3,
            max_frame: wire::DEFAULT_MAX_FRAME,
            engine: EngineCfg::default(),
        }
    }
}

impl NetCfg {
    /// Reads `SERVAL_ADDR`, `SERVAL_SHARDS`, `SERVAL_MAX_INFLIGHT`,
    /// `SERVAL_HOT_THRESHOLD`, `SERVAL_MAX_FRAME`, and the engine knobs
    /// ([`EngineCfg::from_env`]).
    pub fn from_env() -> NetCfg {
        let d = NetCfg::default();
        let parse = |name: &str| -> Option<u64> {
            std::env::var(name).ok().and_then(|v| v.trim().parse().ok())
        };
        NetCfg {
            addr: std::env::var("SERVAL_ADDR").unwrap_or(d.addr),
            shards: parse("SERVAL_SHARDS").map_or(d.shards, |v| (v as usize).max(1)),
            max_inflight: parse("SERVAL_MAX_INFLIGHT")
                .map_or(d.max_inflight, |v| (v as usize).max(1)),
            hot_threshold: parse("SERVAL_HOT_THRESHOLD").map_or(d.hot_threshold, |v| v as u32),
            max_frame: parse("SERVAL_MAX_FRAME").map_or(d.max_frame, |v| (v as usize).max(1024)),
            engine: EngineCfg::from_env(),
        }
    }
}

/// A query routed to a shard, tagged with its slot in the batch.
pub struct RoutedQuery {
    /// Index into the submitting batch.
    pub slot: usize,
    /// The query.
    pub query: WireQuery,
    /// Whether the repeat counter crossed the hot threshold at
    /// submission (the shard promotes the verdict after solving).
    pub hot: bool,
}

#[derive(Default)]
struct ShardCounters {
    queued: AtomicU64,
    solved: AtomicU64,
    hits: AtomicU64,
}

/// One worker shard: a private engine plus its counters.
pub struct Shard {
    /// Shard index (also the routing bucket).
    pub index: usize,
    engine: Arc<Engine>,
    counters: ShardCounters,
    hot: Arc<HotTier>,
}

impl Shard {
    /// This shard's engine (benchmarks inspect cache counters).
    pub fn engine(&self) -> &Arc<Engine> {
        &self.engine
    }

    /// Current stats row.
    pub fn stats_row(&self) -> ShardStatsRow {
        let (mode_session, mode_fresh) = self.engine.mode_counts();
        ShardStatsRow {
            shard: self.index as u32,
            queued: self.counters.queued.load(Ordering::Relaxed),
            solved: self.counters.solved.load(Ordering::Relaxed),
            hits: self.counters.hits.load(Ordering::Relaxed),
            cert_checked: self.engine.cert_counts().0,
            mode_session,
            mode_fresh,
        }
    }

    /// Discharges a routed batch, returning `(slot, outcome)` pairs.
    ///
    /// Must run on a thread whose term context is disposable (the wire
    /// cores are rebuilt into a fresh context here). Panics anywhere in
    /// the pipeline are caught and reported as error outcomes — a
    /// hostile or buggy batch must never take the server down.
    pub fn discharge(&self, batch: Vec<RoutedQuery>) -> Vec<(usize, WireOutcome)> {
        let slots: Vec<usize> = batch.iter().map(|rq| rq.slot).collect();
        match std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
            self.discharge_inner(batch)
        })) {
            Ok(out) => out,
            Err(panic) => {
                let why = panic_message(&panic);
                slots
                    .into_iter()
                    .map(|slot| (slot, self.error_outcome(format!("shard panicked: {why}"))))
                    .collect()
            }
        }
    }

    fn discharge_inner(&self, batch: Vec<RoutedQuery>) -> Vec<(usize, WireOutcome)> {
        reset_ctx();
        self.counters.queued.fetch_add(batch.len() as u64, Ordering::Relaxed);
        let mut ready: Vec<(usize, WireOutcome)> = Vec::with_capacity(batch.len());
        let mut queries: Vec<Query> = Vec::new();
        let mut pending: Vec<(usize, form::BackMap, Vec<u8>, bool)> = Vec::new();
        for rq in batch {
            match decode_query(&rq.query.core_bytes) {
                Err(why) => {
                    // The front end validates cores before dispatch, so
                    // this is a second line of defense, not a code path
                    // clients can rely on.
                    ready.push((rq.slot, self.error_outcome(format!("malformed core: {why}"))));
                }
                Ok(core) => {
                    let rb = form::rebuild(&core);
                    queries.push(Query {
                        label: rq.query.label,
                        assumptions: rb.assumptions,
                        goal: rb.goals[0],
                        cfg: rq.query.cfg,
                    });
                    pending.push((rq.slot, rb.backmap, rq.query.core_bytes, rq.hot));
                }
            }
        }
        let outcomes = self.engine.submit_batch(queries);
        for (outcome, (slot, backmap, core_bytes, hot)) in outcomes.into_iter().zip(pending) {
            if outcome.cache_hit {
                self.counters.hits.fetch_add(1, Ordering::Relaxed);
            } else {
                self.counters.solved.fetch_add(1, Ordering::Relaxed);
            }
            let verdict = match outcome.result {
                VerifyResult::Proved => WireVerdict::Proved,
                VerifyResult::Counterexample(m) => WireVerdict::Refuted(
                    serval_engine::portable_of_caller_model(&m, &backmap),
                ),
                VerifyResult::Unknown => WireVerdict::Unknown,
                VerifyResult::Interrupted => WireVerdict::Interrupted,
            };
            let cert = outcome.cert.unwrap_or(0);
            if hot {
                self.hot.promote(&core_bytes, &verdict, cert);
            }
            ready.push((
                slot,
                WireOutcome {
                    verdict,
                    cert,
                    cache_hit: outcome.cache_hit,
                    shard: self.index as u32,
                    wall_micros: outcome.wall.as_micros() as u64,
                    stats: outcome.stats,
                    error: outcome.error,
                },
            ));
        }
        ready
    }

    fn error_outcome(&self, why: String) -> WireOutcome {
        WireOutcome {
            verdict: WireVerdict::Unknown,
            cert: 0,
            cache_hit: false,
            shard: self.index as u32,
            wall_micros: 0,
            stats: None,
            error: Some(why),
        }
    }
}

/// Decodes a wire query's core, which must carry exactly one goal.
fn decode_query(core_bytes: &[u8]) -> Result<form::Core, &'static str> {
    let core = form::Core::decode(core_bytes)?;
    if core.goals.len() != 1 {
        return Err("a wire query must carry exactly one goal");
    }
    Ok(core)
}

fn panic_message(panic: &(dyn std::any::Any + Send)) -> String {
    if let Some(s) = panic.downcast_ref::<&str>() {
        (*s).to_string()
    } else if let Some(s) = panic.downcast_ref::<String>() {
        s.clone()
    } else {
        "unknown panic".to_string()
    }
}

/// The sharded discharge service (everything but the sockets).
pub struct ServerCore {
    cfg: NetCfg,
    shards: Vec<Arc<Shard>>,
    hot: Arc<HotTier>,
    shard_jobs: usize,
    frames: AtomicU64,
    protocol_errors: AtomicU64,
}

impl ServerCore {
    /// Builds the shards: `cfg.engine.jobs` total workers divided evenly
    /// (ceiling) across `cfg.shards` engines, each with its own disk
    /// cache partition under `cfg.engine.disk_cache` (when set).
    pub fn new(cfg: NetCfg) -> ServerCore {
        let n = cfg.shards.max(1);
        let shard_jobs = cfg.engine.jobs.div_ceil(n).max(1);
        let hot = Arc::new(HotTier::new(cfg.hot_threshold));
        let shards = (0..n)
            .map(|index| {
                let mut ecfg = cfg.engine.clone();
                ecfg.jobs = shard_jobs;
                ecfg.disk_cache = cfg
                    .engine
                    .disk_cache
                    .as_ref()
                    .map(|p| p.join(format!("shard-{index}")));
                Arc::new(Shard {
                    index,
                    engine: Arc::new(Engine::new(ecfg)),
                    counters: ShardCounters::default(),
                    hot: Arc::clone(&hot),
                })
            })
            .collect();
        ServerCore { cfg, shards, hot, shard_jobs, frames: AtomicU64::new(0), protocol_errors: AtomicU64::new(0) }
    }

    /// The configuration the core was built with.
    pub fn cfg(&self) -> &NetCfg {
        &self.cfg
    }

    /// The shards.
    pub fn shards(&self) -> &[Arc<Shard>] {
        &self.shards
    }

    /// Workers per shard.
    pub fn shard_jobs(&self) -> usize {
        self.shard_jobs
    }

    /// A query's home shard: FNV-64 of its normal-form bytes mod the
    /// shard count. The `net-route-rehash` buggify point sends a query
    /// to a random shard instead — any shard can solve any query (its
    /// cache partition just misses), so misrouting degrades locality,
    /// never correctness.
    pub fn route(&self, core_bytes: &[u8]) -> usize {
        if sim::buggify("net-route-rehash") {
            return sim::choose(self.shards.len());
        }
        (fnv64(core_bytes) % self.shards.len() as u64) as usize
    }

    /// Validates every query core in a batch (front ends call this
    /// before dispatch so garbage becomes a protocol error, not a
    /// queued job).
    pub fn check_batch(&self, queries: &[WireQuery]) -> Result<(), String> {
        for (i, q) in queries.iter().enumerate() {
            decode_query(&q.core_bytes)
                .map_err(|why| format!("query {i} ({}): {why}", q.label))?;
        }
        Ok(())
    }

    /// Routes a batch: hot-tier hits are answered in place, the rest
    /// bucketed by home shard.
    pub fn place(
        &self,
        queries: Vec<WireQuery>,
    ) -> (Vec<Option<WireOutcome>>, Vec<Vec<RoutedQuery>>) {
        let mut slots: Vec<Option<WireOutcome>> = (0..queries.len()).map(|_| None).collect();
        let mut buckets: Vec<Vec<RoutedQuery>> =
            (0..self.shards.len()).map(|_| Vec::new()).collect();
        for (slot, query) in queries.into_iter().enumerate() {
            let hot = self.hot.note(&query.core_bytes);
            if let Some(entry) = self.hot.get(&query.core_bytes) {
                slots[slot] = Some(WireOutcome {
                    verdict: entry.verdict,
                    cert: entry.cert,
                    cache_hit: true,
                    shard: SHARD_HOT,
                    wall_micros: 0,
                    stats: None,
                    error: None,
                });
                continue;
            }
            let home = self.route(&query.core_bytes);
            buckets[home].push(RoutedQuery { slot, query, hot });
        }
        (slots, buckets)
    }

    /// Discharges a batch synchronously: shards run one after another,
    /// each on a scratch thread (the caller's term context survives).
    /// The TCP server uses long-lived shard threads instead; this path
    /// serves the simulator (deterministic by construction), tests, and
    /// `handle_payload`.
    pub fn discharge(&self, queries: Vec<WireQuery>) -> Vec<WireOutcome> {
        let (mut slots, buckets) = self.place(queries);
        for (home, bucket) in buckets.into_iter().enumerate() {
            if bucket.is_empty() {
                continue;
            }
            let shard = &self.shards[home];
            let results = std::thread::scope(|scope| {
                scope
                    .spawn(move || shard.discharge(bucket))
                    .join()
                    .unwrap_or_default()
            });
            for (slot, outcome) in results {
                slots[slot] = Some(outcome);
            }
        }
        slots
            .into_iter()
            .map(|s| {
                s.unwrap_or(WireOutcome {
                    verdict: WireVerdict::Unknown,
                    cert: 0,
                    cache_hit: false,
                    shard: SHARD_HOT,
                    wall_micros: 0,
                    stats: None,
                    error: Some("shard dropped the query".to_string()),
                })
            })
            .collect()
    }

    /// Current stats snapshot.
    pub fn stats(&self) -> ServerStats {
        ServerStats {
            shards: self.shards.iter().map(|s| s.stats_row()).collect(),
            hot_hits: self.hot.hits(),
            hot_entries: self.hot.len() as u64,
            frames: self.frames.load(Ordering::Relaxed),
            protocol_errors: self.protocol_errors.load(Ordering::Relaxed),
        }
    }

    /// Counts one accepted frame (front ends call this per frame).
    pub fn note_frame(&self) {
        self.frames.fetch_add(1, Ordering::Relaxed);
    }

    /// Counts one protocol error.
    pub fn note_protocol_error(&self) {
        self.protocol_errors.fetch_add(1, Ordering::Relaxed);
    }

    /// Handles one decoded frame payload end to end and returns the
    /// reply payload plus whether the connection must close. This is the
    /// whole request state machine minus sockets and threading — the sim
    /// scenario's in-memory connections and the loopback tests share it.
    pub fn handle_payload(&self, payload: &[u8]) -> (Vec<u8>, bool) {
        let msg = match wire::decode_msg(payload) {
            Ok(m) => m,
            Err(e) => {
                self.note_protocol_error();
                return (wire::encode_msg(&Msg::Error { msg: e.to_string() }), true);
            }
        };
        self.note_frame();
        match msg {
            Msg::Hello { version } if version == wire::PROTO_VERSION => {
                (wire::encode_msg(&self.hello_ack()), false)
            }
            Msg::Hello { version } => {
                self.note_protocol_error();
                (
                    wire::encode_msg(&Msg::Error {
                        msg: format!("unsupported protocol version {version}"),
                    }),
                    true,
                )
            }
            Msg::Batch { id, queries } => {
                if let Err(why) = self.check_batch(&queries) {
                    self.note_protocol_error();
                    return (wire::encode_msg(&Msg::Error { msg: why }), true);
                }
                let results = self.discharge(queries);
                (
                    wire::encode_msg(&Msg::BatchReply { id, results, stats: self.stats() }),
                    false,
                )
            }
            Msg::Ping { token } => (wire::encode_msg(&Msg::Pong { token }), false),
            Msg::StatsReq => {
                (wire::encode_msg(&Msg::StatsReply { stats: self.stats() }), false)
            }
            _ => {
                self.note_protocol_error();
                (
                    wire::encode_msg(&Msg::Error {
                        msg: "unexpected message direction".to_string(),
                    }),
                    true,
                )
            }
        }
    }

    /// The server's `HelloAck`.
    pub fn hello_ack(&self) -> Msg {
        Msg::HelloAck {
            version: wire::PROTO_VERSION,
            shards: self.shards.len() as u32,
            shard_jobs: self.shard_jobs as u32,
            max_inflight: self.cfg.max_inflight as u32,
            hot_threshold: self.cfg.hot_threshold,
        }
    }
}
