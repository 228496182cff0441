//! The serval client: serialize obligations, stream them to `servald`,
//! reassemble submission-order verdicts.
//!
//! [`Client`] is a blocking, single-connection client. Batches are cut
//! into bounded chunks (`SERVAL_NET_CHUNK` queries per frame) and
//! pipelined up to the server's advertised in-flight window: the client
//! keeps at most `max_inflight` unanswered frames, interleaving sends
//! and receives so neither side's socket buffers can deadlock the
//! exchange. Replies arrive in frame order; within each reply, outcomes
//! are already in submission order, and countermodels are mapped back
//! onto the caller's terms through the `BackMap` kept from
//! serialization — then re-checked against the caller's own query, since
//! the server is not trusted to have solved what was sent.
//!
//! [`RemoteEngine`] wraps a client in the [`Discharge`] seam, so
//! `serval_engine::install_discharger(Arc::new(remote))` redirects every
//! existing workload — the certikos refinement proof, the JIT checker
//! sweep — through the server without touching proof code.

use crate::wire::{self, Msg, ServerStats, WireOutcome, WireQuery, WireVerdict};
use serval_engine::form::{self, BackMap};
use serval_engine::{Discharge, Query, QueryOutcome};
use serval_smt::bv::SBool;
use serval_smt::solver::VerifyResult;
use std::net::TcpStream;
use std::sync::Mutex;
use std::time::{Duration, Instant};

/// Why a client call failed.
#[derive(Debug)]
pub enum NetError {
    /// Socket-level failure.
    Io(std::io::Error),
    /// The peer sent bytes that do not decode.
    Wire(wire::WireError),
    /// The peer sent a well-formed but protocol-violating message.
    Protocol(String),
    /// The server reported a fatal error frame.
    Server(String),
}

impl std::fmt::Display for NetError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            NetError::Io(e) => write!(f, "io: {e}"),
            NetError::Wire(e) => write!(f, "wire: {e}"),
            NetError::Protocol(why) => write!(f, "protocol: {why}"),
            NetError::Server(why) => write!(f, "server: {why}"),
        }
    }
}

impl std::error::Error for NetError {}

impl From<std::io::Error> for NetError {
    fn from(e: std::io::Error) -> Self {
        NetError::Io(e)
    }
}

impl From<wire::WireError> for NetError {
    fn from(e: wire::WireError) -> Self {
        NetError::Wire(e)
    }
}

/// The server's advertised shape, from its `HelloAck`.
#[derive(Clone, Copy, Debug)]
pub struct ServerInfo {
    /// Worker shard count.
    pub shards: u32,
    /// Pool workers per shard.
    pub shard_jobs: u32,
    /// Per-connection in-flight frame bound.
    pub max_inflight: u32,
    /// Hot-tier promotion threshold.
    pub hot_threshold: u32,
}

/// Default queries per `Batch` frame (`SERVAL_NET_CHUNK`).
const DEFAULT_CHUNK: usize = 64;

/// A blocking servald connection.
pub struct Client {
    stream: TcpStream,
    max_frame: usize,
    chunk: usize,
    next_id: u64,
    /// The server's shape.
    pub info: ServerInfo,
    /// Stats snapshot from the most recent reply.
    pub last_stats: Option<ServerStats>,
    /// Payload bytes sent / received (frames included).
    pub bytes_sent: u64,
    /// See `bytes_sent`.
    pub bytes_received: u64,
}

impl Client {
    /// Connects and completes the `Hello`/`HelloAck` handshake.
    pub fn connect(addr: &str) -> Result<Client, NetError> {
        let stream = TcpStream::connect(addr)?;
        let _ = stream.set_nodelay(true);
        let chunk = std::env::var("SERVAL_NET_CHUNK")
            .ok()
            .and_then(|v| v.trim().parse::<usize>().ok())
            .filter(|&c| c >= 1)
            .unwrap_or(DEFAULT_CHUNK);
        let mut client = Client {
            stream,
            max_frame: wire::DEFAULT_MAX_FRAME,
            chunk,
            next_id: 1,
            info: ServerInfo { shards: 0, shard_jobs: 0, max_inflight: 1, hot_threshold: 0 },
            last_stats: None,
            bytes_sent: 0,
            bytes_received: 0,
        };
        client.send(&Msg::Hello { version: wire::PROTO_VERSION })?;
        match client.recv()? {
            Msg::HelloAck { version, shards, shard_jobs, max_inflight, hot_threshold } => {
                if version != wire::PROTO_VERSION {
                    return Err(NetError::Wire(wire::WireError::BadVersion(version)));
                }
                client.info = ServerInfo { shards, shard_jobs, max_inflight, hot_threshold };
                Ok(client)
            }
            Msg::Error { msg } => Err(NetError::Server(msg)),
            _ => Err(NetError::Protocol("expected HelloAck".to_string())),
        }
    }

    fn send(&mut self, msg: &Msg) -> Result<(), NetError> {
        let payload = wire::encode_msg(msg);
        self.bytes_sent += 4 + payload.len() as u64;
        wire::write_frame(&mut self.stream, &payload)?;
        Ok(())
    }

    fn recv(&mut self) -> Result<Msg, NetError> {
        let payload = wire::read_frame(&mut self.stream, self.max_frame)?
            .ok_or(NetError::Protocol("server closed the connection".to_string()))?;
        self.bytes_received += 4 + payload.len() as u64;
        Ok(wire::decode_msg(&payload)?)
    }

    /// Round-trip liveness probe; returns the wall time.
    pub fn ping(&mut self) -> Result<Duration, NetError> {
        let token = 0x5e4a1 ^ self.next_id;
        self.next_id += 1;
        let t0 = Instant::now();
        self.send(&Msg::Ping { token })?;
        match self.recv()? {
            Msg::Pong { token: t } if t == token => Ok(t0.elapsed()),
            Msg::Error { msg } => Err(NetError::Server(msg)),
            _ => Err(NetError::Protocol("expected matching Pong".to_string())),
        }
    }

    /// Fetches the server's stats snapshot.
    pub fn server_stats(&mut self) -> Result<ServerStats, NetError> {
        self.send(&Msg::StatsReq)?;
        match self.recv()? {
            Msg::StatsReply { stats } => {
                self.last_stats = Some(stats.clone());
                Ok(stats)
            }
            Msg::Error { msg } => Err(NetError::Server(msg)),
            _ => Err(NetError::Protocol("expected StatsReply".to_string())),
        }
    }

    fn recv_batch_reply(&mut self, id: u64) -> Result<Vec<WireOutcome>, NetError> {
        match self.recv()? {
            Msg::BatchReply { id: rid, results, stats } => {
                if rid != id {
                    return Err(NetError::Protocol(format!(
                        "reply id {rid} does not match frame id {id}"
                    )));
                }
                self.last_stats = Some(stats);
                Ok(results)
            }
            Msg::Error { msg } => Err(NetError::Server(msg)),
            _ => Err(NetError::Protocol("expected BatchReply".to_string())),
        }
    }

    /// Discharges a batch remotely, returning outcomes in submission
    /// order. Must be called from the thread that owns the queries'
    /// terms (serialization and countermodel mapping both need them).
    pub fn submit_batch(&mut self, queries: Vec<Query>) -> Result<Vec<QueryOutcome>, NetError> {
        let total = queries.len();
        let mut backmaps = Vec::with_capacity(total);
        let mut wire_queries = Vec::with_capacity(total);
        for q in &queries {
            let (wq, backmap) = wire_query(q);
            wire_queries.push(wq);
            backmaps.push(backmap);
        }

        // Cut into bounded frames and pipeline them, keeping at most the
        // server's advertised window unanswered. Interleaving sends and
        // receives matters: if we wrote every frame before reading any
        // reply, a batch bigger than the combined socket buffers would
        // deadlock against the server's own backpressure.
        let mut chunks: Vec<Vec<WireQuery>> = Vec::new();
        let mut current = Vec::new();
        for q in wire_queries {
            current.push(q);
            if current.len() >= self.chunk {
                chunks.push(std::mem::take(&mut current));
            }
        }
        if !current.is_empty() {
            chunks.push(current);
        }
        let window = (self.info.max_inflight as usize).max(1);
        let mut pending: Vec<(u64, usize)> = Vec::with_capacity(chunks.len());
        let mut results: Vec<WireOutcome> = Vec::with_capacity(total);
        let mut sent = 0;
        let mut received = 0;
        while received < chunks.len() {
            if sent < chunks.len() && sent - received < window {
                let id = self.next_id;
                self.next_id += 1;
                let batch = std::mem::take(&mut chunks[sent]);
                pending.push((id, batch.len()));
                self.send(&Msg::Batch { id, queries: batch })?;
                sent += 1;
            } else {
                let (id, expected) = pending[received];
                let reply = self.recv_batch_reply(id)?;
                if reply.len() != expected {
                    return Err(NetError::Protocol(format!(
                        "reply has {} outcomes for {expected} queries",
                        reply.len()
                    )));
                }
                results.extend(reply);
                received += 1;
            }
        }

        Ok(queries
            .into_iter()
            .zip(results)
            .zip(&backmaps)
            .map(|((q, out), backmap)| {
                outcome_of_wire(q.label, out, backmap, &q.assumptions, q.goal)
            })
            .collect())
    }
}

/// Serializes one query for the wire: the bytes of its one-goal core
/// (which are also the engine's cache key for it) plus the back map that
/// translates the server's countermodel. Must run on the thread that owns
/// the query's terms.
pub fn wire_query(q: &Query) -> (WireQuery, BackMap) {
    let prepared = form::prepare(&q.assumptions, &[q.goal]);
    let wq = WireQuery { label: q.label.clone(), cfg: q.cfg, core_bytes: prepared.core.encode() };
    (wq, prepared.backmap)
}

/// Translates one wire outcome back into the caller's term context
/// (shared by [`Client`] and the sim scenario's in-memory client).
///
/// A `Refuted` reply is a claim by the server: its countermodel must fit
/// `backmap` and refute the caller's own `assumptions` and `goal`, or the
/// outcome is demoted to `Unknown` with the reason in `error`.
pub fn outcome_of_wire(
    label: String,
    out: WireOutcome,
    backmap: &BackMap,
    assumptions: &[SBool],
    goal: SBool,
) -> QueryOutcome {
    let mut error = out.error;
    let result = match out.verdict {
        WireVerdict::Proved => VerifyResult::Proved,
        WireVerdict::Refuted(pm) => match serval_engine::portable_to_model(&pm, backmap) {
            Some(m) if serval_engine::refutes(&m, assumptions, goal) => {
                VerifyResult::Counterexample(Box::new(m))
            }
            Some(_) => {
                error = Some("server countermodel does not refute the query".to_string());
                VerifyResult::Unknown
            }
            None => {
                error = Some("server countermodel names a var or UF the query lacks".to_string());
                VerifyResult::Unknown
            }
        },
        WireVerdict::Unknown => VerifyResult::Unknown,
        WireVerdict::Interrupted => VerifyResult::Interrupted,
    };
    QueryOutcome {
        label,
        result,
        stats: out.stats,
        wall: Duration::from_micros(out.wall_micros),
        cache_hit: out.cache_hit,
        variant: 0,
        cert: (out.cert != 0).then_some(out.cert),
        error,
    }
}

/// A [`Discharge`] implementation that forwards batches to a remote
/// servald. Install it with `serval_engine::install_discharger` and
/// every `serval_core::report::discharge*` call in the process goes over
/// the wire.
///
/// Network failures degrade to `Unknown` outcomes carrying the error —
/// a dead server can fail a proof run, never wedge or crash it.
pub struct RemoteEngine {
    client: Mutex<Client>,
}

impl RemoteEngine {
    /// Wraps an established connection.
    pub fn new(client: Client) -> RemoteEngine {
        RemoteEngine { client: Mutex::new(client) }
    }

    /// Connects to `addr` and wraps the client.
    pub fn connect(addr: &str) -> Result<RemoteEngine, NetError> {
        Ok(RemoteEngine::new(Client::connect(addr)?))
    }

    /// Stats snapshot from the most recent reply.
    pub fn last_stats(&self) -> Option<ServerStats> {
        self.client.lock().unwrap_or_else(|p| p.into_inner()).last_stats.clone()
    }

    /// (bytes sent, bytes received) so far.
    pub fn bytes(&self) -> (u64, u64) {
        let c = self.client.lock().unwrap_or_else(|p| p.into_inner());
        (c.bytes_sent, c.bytes_received)
    }

    /// The server's advertised shape.
    pub fn info(&self) -> ServerInfo {
        self.client.lock().unwrap_or_else(|p| p.into_inner()).info
    }
}

impl Discharge for RemoteEngine {
    fn submit_batch(&self, queries: Vec<Query>) -> Vec<QueryOutcome> {
        let labels: Vec<String> = queries.iter().map(|q| q.label.clone()).collect();
        let mut client = self.client.lock().unwrap_or_else(|p| p.into_inner());
        match client.submit_batch(queries) {
            Ok(outcomes) => outcomes,
            Err(e) => labels
                .into_iter()
                .map(|label| QueryOutcome {
                    label,
                    result: VerifyResult::Unknown,
                    stats: None,
                    wall: Duration::ZERO,
                    cache_hit: false,
                    variant: 0,
                    cert: None,
                    error: Some(format!("net: {e}")),
                })
                .collect(),
        }
    }

    fn describe(&self) -> String {
        let c = self.client.lock().unwrap_or_else(|p| p.into_inner());
        match c.stream.peer_addr() {
            Ok(addr) => format!("remote servald at {addr}"),
            Err(_) => "remote servald".to_string(),
        }
    }
}
