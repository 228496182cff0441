//! serval-engine: the parallel proof-discharge engine.
//!
//! Serval's workloads are embarrassingly parallel — split-cases factors a
//! monolithic verification condition into independent per-handler
//! queries, and the JIT checker emits one query per BPF opcode — but the
//! term DAG they are phrased over is *thread-local*. This crate bridges
//! the two: a [`Query`] (assumptions + goal + label) is re-serialized
//! into a portable, alpha-invariant [`form::Core`], solved on a
//! from-scratch work-stealing thread pool ([`pool`]), memoized in a
//! two-tier cache keyed on the bytes of its one-goal core ([`cache`]),
//! and optionally raced across several solver configurations with
//! cooperative cancellation ([`solve`]). The same core format carries a
//! whole assumption group (one core, k goals) to a session worker and a
//! query over the wire to `servald`.
//!
//! Every countermodel is a claim, not a fact: a cached `Refuted` hit is
//! re-evaluated against the query before it is served (and evicted on
//! mismatch), and every outgoing `Counterexample` is re-evaluated
//! against the query as submitted and demoted to `Unknown` on mismatch.
//!
//! Results stream back in deterministic submission order with identical
//! verdicts regardless of worker count, so `SERVAL_JOBS=1` and
//! `SERVAL_JOBS=32` differ only in wall time.
//!
//! Environment knobs (read once, at first use of the global engine):
//!
//! | Variable           | Meaning                                            |
//! |--------------------|----------------------------------------------------|
//! | `SERVAL_JOBS`      | Worker count (default: available parallelism)      |
//! | `SERVAL_CACHE`     | `1`/`on` → disk tier under `target/serval-cache/`; a path → disk tier there; unset/`0` → memory tier only |
//! | `SERVAL_PORTFOLIO` | `1`/`on` → race 3 solver configs per query (the pool shrinks to `jobs / 3` so total solver threads stay ≈ `SERVAL_JOBS`). Verdicts stay deterministic, but which variant's counterexample is reported is a timing race — see [`solve::solve_portfolio`]. |
//! | `SERVAL_SPLIT`     | `0`/`off` → disable goal conjunction splitting (on by default; see [`form::split_goal`]) |
//! | `SERVAL_MODE`      | `fresh` / `session` / `auto` — the discharge mode (default `session`: sub-queries sharing an assumption set are solved in one live session, see [`solve::solve_session`]; `fresh` gives each sub-query its own solver; `auto` decides per assumption group from predicted reuse, group size × shared-base cone ratio; see [`DischargeMode`]). Ignored when `SERVAL_PORTFOLIO` is on: a portfolio race needs independent solvers. |
//! | `SERVAL_PRESOLVE`  | `0`/`off` → disable word-level presolve, handing the solver the raw obligation DAG (on by default; each query's assumption base is otherwise simplified once — equality substitution, known-bits/interval folding, cone-of-influence reduction — and the cache keys on the *simplified* normal form; see [`serval_smt::presolve`]). |
//! | `SERVAL_CERT`      | `0`/`off` → disable proof certificates (on by default: every solver `Unsat` must present a DRAT-style proof accepted by the independent `serval-drat` checker before it becomes `Proved`; cached `Proved` entries carry the certificate fingerprint and uncertified disk records are ignored). |
//!
//! Below the engine, every solve runs one pipeline with no switches:
//! polarity-aware blasting, SAT inprocessing (plan-scoped variable
//! elimination inside sessions), and LRAT-hinted proof logging whenever
//! certificates are on (see [`serval_smt::solver`]).

pub mod cache;
pub mod form;
pub mod pool;
pub mod solve;

#[cfg(test)]
mod tests;

pub use form::Query;

use cache::{Cache, CachedVerdict};
use form::{prepare, BackMap, Prepared};
use pool::Pool;
use serval_sat::ProofStep;
use serval_smt::bv::SBool;
use serval_smt::model::Model;
use serval_smt::presolve;
use serval_smt::solver::{CheckResult, QueryStats, SolverConfig, VerifyResult};
use serval_smt::term::TermId;
use solve::{solve_one, solve_portfolio, solve_session, PortableModel, RawOutcome, RawVerdict};
use std::collections::HashMap;
use std::path::PathBuf;
use std::rc::Rc;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex, OnceLock};
use std::time::Duration;

/// How solver work is discharged for sub-queries that share an
/// assumption set.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum DischargeMode {
    /// One fresh solver per sub-query.
    Fresh,
    /// One live incremental session per assumption group (see
    /// [`solve::solve_session`]).
    Session,
    /// Pick per assumption group from predicted reuse. A group of `n`
    /// goals whose shared base is a fraction `r` of the group's whole
    /// encoding cone saves roughly `(n - 1) · r` of the work fresh
    /// discharge would redo; the group is sessioned when that score
    /// clears [`AUTO_SESSION_THRESHOLD`]. Small groups over thin bases
    /// (where session bookkeeping outweighs reuse) fall back to fresh
    /// solvers. The decision is a pure function of the batch's terms,
    /// so same batch ⇒ same mode choices.
    Auto,
}

/// Minimum predicted-reuse score (`(group size - 1) × shared-base cone
/// ratio`) for [`DischargeMode::Auto`] to discharge a group as a
/// session. `0.5` means: a two-goal group sessions only when at least
/// half its encoding cone is the shared base; single-goal groups
/// (score 0) always go fresh.
pub const AUTO_SESSION_THRESHOLD: f64 = 0.5;

/// Engine construction parameters.
#[derive(Clone, Debug)]
pub struct EngineCfg {
    /// Worker thread count (clamped to at least 1).
    pub jobs: usize,
    /// Race [`solve::portfolio_variants`] per query instead of solving
    /// each query once.
    pub portfolio: bool,
    /// Directory for the on-disk proved-key tier; `None` disables it.
    pub disk_cache: Option<PathBuf>,
    /// Split conjunction goals into per-conjunct sub-queries discharged
    /// in parallel (see [`form::split_goal`]). On by default: monitor
    /// refinement goals are monolithic conjunctions over the whole
    /// abstract state, and one such goal can otherwise dominate the
    /// batch's critical path.
    pub split: bool,
    /// Whether sub-queries sharing an assumption set are discharged in
    /// one live incremental session, one fresh solver each, or decided
    /// per group ([`DischargeMode::Auto`]). Defaults to `Session`, which
    /// beat `Fresh` on the CertiKOS^s refinement workload once
    /// inprocessing ran under live sessions (EXPERIMENTS.md, "Retired
    /// per-feature benches"). Has no effect when `portfolio` is on,
    /// since a portfolio races *independent* solvers per query.
    /// Verdicts are identical in every mode — the mode only changes how
    /// much encoding and search work is re-done.
    pub mode: DischargeMode,
    /// Run the word-level presolve pipeline ([`serval_smt::presolve`])
    /// on each query before normalization and blasting: the assumption
    /// base is simplified once per distinct assumption set, every goal
    /// is rewritten against it, and the verdict cache keys on the
    /// simplified normal form. On by default.
    pub presolve: bool,
    /// Require a checker-accepted DRAT proof certificate before any
    /// solver `Unsat` becomes `Proved`, and revalidate cached verdicts
    /// at hit time (see the `SERVAL_CERT` row above). On by default.
    pub cert: bool,
}

impl Default for EngineCfg {
    fn default() -> Self {
        EngineCfg {
            jobs: default_jobs(),
            portfolio: false,
            disk_cache: None,
            split: true,
            mode: DischargeMode::Session,
            presolve: true,
            cert: true,
        }
    }
}

impl EngineCfg {
    /// Reads `SERVAL_JOBS`, `SERVAL_PORTFOLIO`, `SERVAL_CACHE`,
    /// `SERVAL_SPLIT`, `SERVAL_MODE`, `SERVAL_PRESOLVE`, and
    /// `SERVAL_CERT`.
    pub fn from_env() -> EngineCfg {
        let jobs = std::env::var("SERVAL_JOBS")
            .ok()
            .and_then(|v| v.trim().parse::<usize>().ok())
            .filter(|&j| j >= 1)
            .unwrap_or_else(default_jobs);
        let portfolio = std::env::var("SERVAL_PORTFOLIO")
            .map(|v| matches!(v.trim(), "1" | "on" | "true"))
            .unwrap_or(false);
        let disk_cache = match std::env::var("SERVAL_CACHE") {
            Err(_) => None,
            Ok(v) => match v.trim() {
                "" | "0" | "off" | "false" => None,
                "1" | "on" | "true" => Some(PathBuf::from("target/serval-cache")),
                path => Some(PathBuf::from(path)),
            },
        };
        let split = std::env::var("SERVAL_SPLIT")
            .map(|v| !matches!(v.trim(), "0" | "off" | "false"))
            .unwrap_or(true);
        let mode = match std::env::var("SERVAL_MODE") {
            Ok(v) => match v.trim().to_ascii_lowercase().as_str() {
                "fresh" => DischargeMode::Fresh,
                "auto" => DischargeMode::Auto,
                _ => DischargeMode::Session,
            },
            Err(_) => DischargeMode::Session,
        };
        let presolve = serval_smt::presolve::env_enabled();
        let cert = std::env::var("SERVAL_CERT")
            .map(|v| !matches!(v.trim(), "0" | "off" | "false"))
            .unwrap_or(true);
        EngineCfg {
            jobs,
            portfolio,
            disk_cache,
            split,
            mode,
            presolve,
            cert,
        }
    }
}

fn default_jobs() -> usize {
    std::thread::available_parallelism()
        .map(|n| n.get())
        .unwrap_or(4)
}

/// Predicted-reuse score for one assumption group under
/// [`DischargeMode::Auto`]: `(group size - 1) × shared-base cone
/// ratio`. The base ratio is how much of the group's whole encoding
/// cone (assumptions + every goal, term-counted on the hash-consed DAG)
/// is the shared assumption base — the part a session encodes once and
/// fresh discharge re-encodes per goal. Deterministic: term counts are
/// a pure function of the batch.
fn session_score(asms: &[SBool], goals: &[SBool]) -> f64 {
    if goals.len() < 2 {
        return 0.0;
    }
    let base = presolve::measure(asms.iter().map(|a| a.0)).terms;
    let total =
        presolve::measure(asms.iter().map(|a| a.0).chain(goals.iter().map(|g| g.0))).terms;
    if total == 0 {
        return 0.0;
    }
    (goals.len() - 1) as f64 * (base as f64 / total as f64)
}

/// The outcome of one discharged query, in submission order.
#[derive(Debug)]
pub struct QueryOutcome {
    /// The label the query was submitted with.
    pub label: String,
    /// The verdict, with counterexample models translated back into the
    /// submitting thread's term context.
    pub result: VerifyResult,
    /// Solver statistics (absent for cache hits and trivial queries).
    pub stats: Option<QueryStats>,
    /// Wall time of the solve (zero for cache hits and trivial queries).
    pub wall: Duration,
    /// Whether the verdict came from the cache.
    pub cache_hit: bool,
    /// Which portfolio variant won (0 when portfolio is off).
    pub variant: usize,
    /// Fingerprint of the checker-accepted proof certificate backing a
    /// `Proved` verdict (for split queries: the chained fingerprint over
    /// the per-conjunct certificates). `None` when certification is off
    /// or the verdict is not `Proved`.
    pub cert: Option<u64>,
    /// Panic message if the query died on a worker, or the reason a
    /// certificate was rejected; the verdict is then `Unknown`.
    pub error: Option<String>,
}

/// Cap on conjuncts produced by goal splitting, to bound per-conjunct
/// preparation overhead on pathologically wide conjunctions.
const SPLIT_CAP: usize = 512;

/// The proof-discharge engine: pool + cache + portfolio switch.
pub struct Engine {
    pool: Pool,
    cache: Cache,
    portfolio: bool,
    split: bool,
    mode: DischargeMode,
    presolve: bool,
    cert: bool,
    /// Queries submitted (before trivial/cache short-circuits).
    submitted: AtomicU64,
    /// Queries answered `Proved` without solving *or* cache lookup
    /// because preparation found them trivially unsatisfiable. Cache
    /// accounting must exclude these: `hits + misses = submitted -
    /// trivial` on every warm rerun.
    trivial: AtomicU64,
    /// Certificates checked and accepted.
    certs_checked: AtomicU64,
    /// Certificates rejected (verdict demoted to `Unknown`).
    certs_rejected: AtomicU64,
    /// Assumption groups discharged as live sessions.
    groups_session: AtomicU64,
    /// Assumption groups `Auto` sent to fresh solvers instead.
    groups_fresh: AtomicU64,
}

impl Engine {
    /// Builds an engine (spawns the worker threads eagerly).
    ///
    /// With portfolio mode on, every pool task spawns one solver thread
    /// per [`solve::portfolio_variants`] variant, so the pool is shrunk
    /// by that width (rounding up): total solver threads stay ≈ `jobs`
    /// instead of oversubscribing the CPU 3x.
    pub fn new(cfg: EngineCfg) -> Engine {
        let jobs = if cfg.portfolio {
            let width = solve::portfolio_variants(SolverConfig::default()).len();
            (cfg.jobs + width - 1) / width
        } else {
            cfg.jobs
        };
        Engine {
            pool: Pool::new(jobs),
            cache: Cache::new(cfg.disk_cache, cfg.cert),
            portfolio: cfg.portfolio,
            split: cfg.split,
            mode: cfg.mode,
            presolve: cfg.presolve,
            cert: cfg.cert,
            submitted: AtomicU64::new(0),
            trivial: AtomicU64::new(0),
            certs_checked: AtomicU64::new(0),
            certs_rejected: AtomicU64::new(0),
            groups_session: AtomicU64::new(0),
            groups_fresh: AtomicU64::new(0),
        }
    }

    /// Worker thread count.
    pub fn jobs(&self) -> usize {
        self.pool.jobs()
    }

    /// Whether portfolio mode is on.
    pub fn portfolio(&self) -> bool {
        self.portfolio
    }

    /// Whether incremental discharge sessions are in use (mode is
    /// `Session` or `Auto` *and* not preempted by portfolio mode).
    pub fn incremental(&self) -> bool {
        self.mode != DischargeMode::Fresh && !self.portfolio
    }

    /// The effective discharge mode (portfolio preempts sessions, so it
    /// resolves to `Fresh` regardless of the configured mode).
    pub fn mode(&self) -> DischargeMode {
        if self.portfolio {
            DischargeMode::Fresh
        } else {
            self.mode
        }
    }

    /// (session-discharged, fresh-discharged) assumption-group counts
    /// since construction. Under `Session` mode every group counts as a
    /// session; under `Auto` the split shows what the reuse predictor
    /// actually chose.
    pub fn mode_counts(&self) -> (u64, u64) {
        (
            self.groups_session.load(Ordering::Relaxed),
            self.groups_fresh.load(Ordering::Relaxed),
        )
    }

    /// Whether word-level presolve is on.
    pub fn presolve(&self) -> bool {
        self.presolve
    }

    /// Whether proof certificates are required.
    pub fn cert(&self) -> bool {
        self.cert
    }

    /// Cache (hits, misses) since engine construction.
    pub fn cache_stats(&self) -> (u64, u64) {
        self.cache.stats()
    }

    /// The engine's verdict cache (sim scenarios and tests inspect it).
    pub fn cache(&self) -> &Cache {
        &self.cache
    }

    /// (submitted, trivially-proved) query counts since construction.
    /// Trivially-proved queries never consult the cache, so the warm-run
    /// invariant is `hits = submitted - trivial` (and `misses = 0`).
    pub fn query_counts(&self) -> (u64, u64) {
        (
            self.submitted.load(Ordering::Relaxed),
            self.trivial.load(Ordering::Relaxed),
        )
    }

    /// (accepted, rejected) certificate counts since construction.
    pub fn cert_counts(&self) -> (u64, u64) {
        (
            self.certs_checked.load(Ordering::Relaxed),
            self.certs_rejected.load(Ordering::Relaxed),
        )
    }

    /// Tallies one raw outcome's certificate fate.
    fn count_cert(&self, cert_hash: u64, cert_error: &Option<String>) {
        if cert_error.is_some() {
            self.certs_rejected.fetch_add(1, Ordering::Relaxed);
        } else if cert_hash != 0 {
            self.certs_checked.fetch_add(1, Ordering::Relaxed);
        }
    }

    /// Normalizes `assumptions ⊢ goal` into its one-goal core and asks
    /// the cache about it under the core's bytes. A trivially unsat core
    /// never consults the cache. `counted` picks a counted lookup or an
    /// uncounted probe (see [`Cache::probe`]).
    ///
    /// A `Refuted` hit is a claim, whether or not certificates are on:
    /// its stored countermodel is re-evaluated against `assumptions` and
    /// `goal`, and an entry that no longer refutes them is evicted and
    /// reported as a miss, so the query is solved afresh.
    fn resolve(&self, assumptions: &[SBool], goal: SBool, counted: bool) -> (Prepared, Found) {
        let prepared = prepare(assumptions, &[goal]);
        if prepared.core.trivially_unsat() {
            // Even this fast path's certificate is checker-backed: the
            // canonical two-step refutation of a formula containing the
            // empty clause.
            let cert = if self.cert { trivial_cert_hash() } else { 0 };
            return (prepared, Found::Ready { result: VerifyResult::Proved, cert, hit: false });
        }
        let key = prepared.core.encode();
        let cached = if counted { self.cache.lookup(&key) } else { self.cache.probe(&key) };
        let found = match cached {
            None => Found::Miss { key },
            Some(CachedVerdict::Proved { cert }) => {
                Found::Ready { result: VerifyResult::Proved, cert, hit: true }
            }
            Some(CachedVerdict::Refuted(pm)) => match portable_to_model(&pm, &prepared.backmap)
                .filter(|m| refutes(m, assumptions, goal))
            {
                Some(m) => Found::Ready {
                    result: VerifyResult::Counterexample(Box::new(m)),
                    cert: 0,
                    hit: true,
                },
                None => {
                    if counted {
                        self.cache.evict(&key);
                    } else {
                        self.cache.evict_uncounted(&key);
                    }
                    Found::Miss { key }
                }
            },
        };
        (prepared, found)
    }

    /// Discharges one query (see [`Engine::submit_batch`]).
    pub fn submit(&self, query: Query) -> QueryOutcome {
        self.submit_batch(vec![query])
            .pop()
            .expect("one query in, one outcome out")
    }

    /// Discharges a batch of independent queries, returning outcomes in
    /// submission order. Must be called from the thread that owns the
    /// queries' terms; solving itself happens on the pool workers (and
    /// never mutates the caller's term context).
    ///
    /// With goal splitting on (the default), a query whose goal is a
    /// conjunction is discharged as one sub-query per conjunct — all
    /// sub-queries across the whole batch share the pool, so a single
    /// monolithic goal no longer serializes the batch's critical path.
    /// The recombined outcome is equivalent: proved iff every conjunct
    /// proved; refuted with the first refuted conjunct's countermodel
    /// (which satisfies the shared assumptions, hence refutes the
    /// conjunction). For split queries `wall` is the parallel critical
    /// path (max over conjuncts) and `stats` the sum.
    pub fn submit_batch(&self, queries: Vec<Query>) -> Vec<QueryOutcome> {
        /// Where a sub-query's verdict will come from: its own fresh
        /// pool task, or one goal slot of a shared session task.
        #[derive(Clone, Copy)]
        enum Work {
            Fresh(usize),
            Session { group: usize, goal: usize },
        }
        enum Sub {
            /// Conjunct settled without solving (trivial, or cached).
            Ready { result: VerifyResult, cert: u64, hit: bool },
            /// Conjunct waiting on solver work.
            Wait { work: Work, backmap: BackMap, key: Vec<u8> },
        }
        enum Pending {
            /// Whole query waiting on solver work.
            Unit { slot: usize, work: Work, backmap: BackMap, key: Vec<u8> },
            /// Split query waiting on its conjuncts.
            Split { slot: usize, whole_key: Vec<u8>, subs: Vec<Sub> },
        }
        /// One incremental session under construction: sub-queries that
        /// share an assumption set (and solver config), accumulated
        /// during the batch walk and scheduled as a single pool task.
        struct Group {
            asms: Vec<SBool>,
            goals: Vec<SBool>,
            cfg: SolverConfig,
        }

        /// Presolve bookkeeping for one slot: what the finalization pass
        /// needs to fix up the outcome (counts onto stats, dropped-cone
        /// side-check and model completion onto counterexamples).
        struct PresolveInfo {
            base: Rc<presolve::BaseSimp>,
            /// Assumptions split off by cone-of-influence reduction
            /// (always empty in session mode — sessions key on the full
            /// base so grouping and cache keys stay consistent).
            dropped: Vec<SBool>,
            cfg: SolverConfig,
            pre: presolve::Counts,
            post: presolve::Counts,
        }

        let debug = std::env::var("SERVAL_ENGINE_DEBUG").is_ok();
        let t_prep = std::time::Instant::now();
        let n = queries.len();
        // The caller's own terms, against which every `Refuted` verdict
        // is checked before it leaves (presolve rewrites `queries`).
        let originals: Vec<(Vec<SBool>, SBool)> =
            queries.iter().map(|q| (q.assumptions.clone(), q.goal)).collect();
        self.submitted.fetch_add(n as u64, Ordering::Relaxed);
        let mut slots: Vec<Option<QueryOutcome>> = (0..n).map(|_| None).collect();

        // Raw-key warm layer (presolve mode only): the cache is *also*
        // keyed on the pre-presolve normal form, so a warm rerun
        // resolves on one normalization + one lookup and never pays the
        // presolve pipeline again. (Without this, warm runs re-derived
        // every binding and rewrite only to hit on the simplified key —
        // a 2.5× warm-path slowdown on the CertiKOS refinement cell.)
        // Raw-trivial queries short-circuit here exactly like the
        // presolve-off fast path; queries presolve later folds to
        // trivial are *not* counted trivial, because they did consult
        // the cache (and their raw key is inserted, so they hit warm).
        let mut raw_infos: Vec<Option<(Vec<u8>, BackMap)>> = (0..n).map(|_| None).collect();
        let queries: Vec<Query> = if self.presolve {
            let mut kept: Vec<Query> = Vec::with_capacity(n);
            for (i, q) in queries.into_iter().enumerate() {
                match self.resolve(&q.assumptions, q.goal, true) {
                    (raw, Found::Miss { key }) => {
                        raw_infos[i] = Some((key, raw.backmap));
                        kept.push(q);
                    }
                    (_, Found::Ready { result, cert, hit }) => {
                        if !hit {
                            self.trivial.fetch_add(1, Ordering::Relaxed);
                        }
                        slots[i] = Some(settled(q.label, result, cert, hit));
                    }
                }
            }
            kept
        } else {
            queries
        };
        // Indices (into `slots`) of the queries that survived the raw
        // layer, in the order `queries` now holds them.
        let live: Vec<usize> = if self.presolve {
            raw_infos
                .iter()
                .enumerate()
                .filter_map(|(i, r)| r.as_ref().map(|_| i))
                .collect()
        } else {
            (0..n).collect()
        };

        // Word-level presolve: simplify each query before normalization,
        // so everything downstream — cache keys, splitting, session
        // grouping, blasting — sees the shrunken form. The base is
        // presolved once per distinct assumption set and shared across
        // the batch (certikos-style batches phrase hundreds of queries
        // over a handful of invariant sets).
        let mut presolve_infos: Vec<Option<PresolveInfo>> = (0..n).map(|_| None).collect();
        let queries: Vec<Query> = if self.presolve {
            type BaseEntry = (Rc<presolve::BaseSimp>, presolve::GoalCache);
            let mut bases: HashMap<Vec<TermId>, BaseEntry> = HashMap::new();
            queries
                .into_iter()
                .enumerate()
                .map(|(k, mut q)| {
                    let i = live[k];
                    let pre = presolve::measure(
                        q.assumptions.iter().map(|a| a.0).chain([q.goal.0]),
                    );
                    let mut key: Vec<TermId> = q.assumptions.iter().map(|a| a.0).collect();
                    key.sort_unstable_by_key(|t| t.0);
                    key.dedup();
                    let entry = bases.entry(key).or_insert_with(|| {
                        (
                            Rc::new(presolve::presolve_base(&q.assumptions)),
                            presolve::GoalCache::default(),
                        )
                    });
                    let (base, cache) = (&entry.0, &mut entry.1);
                    let goal = presolve::simplify_goal_cached(base, q.goal, cache);
                    if debug {
                        let g_pre = presolve::measure([q.goal.0].into_iter());
                        let g_post = presolve::measure([goal.0].into_iter());
                        eprintln!(
                            "[presolve] {:<44} bindings={} goal terms {} -> {} changed={}",
                            q.label,
                            base.bindings.len(),
                            g_pre.terms,
                            g_post.terms,
                            goal.0 != q.goal.0
                        );
                    }
                    let (kept, dropped) = if self.incremental() {
                        // Sessions share one live solver across the whole
                        // base; dropping per-goal disconnected assumptions
                        // would fracture the grouping.
                        (base.roots.clone(), Vec::new())
                    } else {
                        presolve::cone_split(&base.roots, goal)
                    };
                    let post =
                        presolve::measure(kept.iter().map(|a| a.0).chain([goal.0]));
                    presolve_infos[i] = Some(PresolveInfo {
                        base: Rc::clone(base),
                        dropped,
                        cfg: q.cfg,
                        pre,
                        post,
                    });
                    q.assumptions = kept;
                    q.goal = goal;
                    q
                })
                .collect()
        } else {
            queries
        };
        let mut pending: Vec<Pending> = Vec::new();
        let mut tasks: Vec<Box<dyn FnOnce() -> Vec<RawOutcome> + Send + 'static>> = Vec::new();
        let push_task = |tasks: &mut Vec<Box<dyn FnOnce() -> Vec<RawOutcome> + Send + 'static>>,
                             core: form::Core,
                             cfg: SolverConfig|
         -> usize {
            let core = Arc::new(core);
            let portfolio = self.portfolio;
            let cert = self.cert;
            tasks.push(Box::new(move || {
                vec![if portfolio {
                    solve_portfolio(&core, cfg, None, cert)
                } else {
                    solve_one(&core, cfg, None, cert)
                }]
            }));
            tasks.len() - 1
        };

        // Sessions group sub-queries by their *exact* assumption set:
        // terms are hash-consed, so within one batch structural equality
        // of assumptions is `TermId` equality, and the sorted dedup'd id
        // vector identifies the set regardless of submission order.
        // (Alpha-equivalent-but-distinct sets stay in separate groups —
        // a missed grouping costs reuse, never correctness.) The solver
        // config is part of the key so a budgeted query is never solved
        // under another query's budget.
        let use_session = self.incremental();
        let mut groups: Vec<Group> = Vec::new();
        let mut group_index: HashMap<(Vec<TermId>, String), usize> = HashMap::new();
        let enqueue = |groups: &mut Vec<Group>,
                       group_index: &mut HashMap<(Vec<TermId>, String), usize>,
                       assumptions: &[SBool],
                       goal: SBool,
                       cfg: SolverConfig|
         -> Work {
            let mut ids: Vec<TermId> = Vec::with_capacity(assumptions.len());
            for a in assumptions {
                if !a.is_true() && !ids.contains(&a.0) {
                    ids.push(a.0);
                }
            }
            ids.sort_unstable_by_key(|t| t.0);
            let key = (ids, format!("{cfg:?}"));
            let g = match group_index.get(&key) {
                Some(&g) => g,
                None => {
                    let g = groups.len();
                    groups.push(Group {
                        asms: key.0.iter().map(|&t| SBool(t)).collect(),
                        goals: Vec::new(),
                        cfg,
                    });
                    group_index.insert(key, g);
                    g
                }
            };
            let goal_idx = groups[g].goals.len();
            groups[g].goals.push(goal);
            Work::Session { group: g, goal: goal_idx }
        };

        for (k, q) in queries.into_iter().enumerate() {
            let i = live[k];
            // In presolve mode every query reaching this loop already
            // missed under its raw key (hits and trivial short-circuits
            // resolved in the pre-pass above); its counted lookup is
            // spent, so this one probes uncounted.
            let raw_missed = raw_infos[i].is_some();
            let (prepared, key) = match self.resolve(&q.assumptions, q.goal, !raw_missed) {
                (prepared, Found::Miss { key }) => (prepared, key),
                (_, Found::Ready { result, cert, hit }) => {
                    // Only counted trivial if it never consulted the
                    // cache (see [`Engine::query_counts`]): a query that
                    // presolve *folded* to trivial did miss under its raw
                    // key, and gets that key recorded at finalization so
                    // warm reruns hit instead.
                    if !hit && !raw_missed {
                        self.trivial.fetch_add(1, Ordering::Relaxed);
                    }
                    slots[i] = Some(settled(q.label, result, cert, hit));
                    continue;
                }
            };
            let conjuncts = if self.split {
                form::split_goal(q.goal, SPLIT_CAP)
            } else {
                vec![q.goal]
            };
            if conjuncts.len() > 1 {
                let mut subs = Vec::with_capacity(conjuncts.len());
                for c in conjuncts {
                    subs.push(match self.resolve(&q.assumptions, c, true) {
                        (_, Found::Ready { result, cert, hit }) => Sub::Ready { result, cert, hit },
                        (sp, Found::Miss { key }) => {
                            let work = if use_session {
                                enqueue(&mut groups, &mut group_index, &q.assumptions, c, q.cfg)
                            } else {
                                Work::Fresh(push_task(&mut tasks, sp.core, q.cfg))
                            };
                            Sub::Wait { work, backmap: sp.backmap, key }
                        }
                    });
                }
                pending.push(Pending::Split { slot: i, whole_key: key, subs });
            } else {
                let work = if use_session {
                    enqueue(&mut groups, &mut group_index, &q.assumptions, q.goal, q.cfg)
                } else {
                    Work::Fresh(push_task(&mut tasks, prepared.core, q.cfg))
                };
                pending.push(Pending::Unit { slot: i, work, backmap: prepared.backmap, key });
            }
            slots[i] = Some(QueryOutcome {
                label: q.label,
                result: VerifyResult::Unknown,
                stats: None,
                wall: Duration::ZERO,
                cache_hit: false,
                variant: 0,
                cert: None,
                error: None,
            });
        }

        // Schedule pool work per assumption group. In `Session` mode
        // every group becomes one task: the group's k-goal core is
        // prepared caller-side (it owns the terms) and the worker
        // rebuilds it once, answering every goal on one live solver. In
        // `Auto` mode the reuse predictor decides per group — a group
        // whose predicted reuse is too thin is discharged as one fresh
        // solver task per goal instead (same verdicts, no session
        // bookkeeping). `group_tasks[g]` holds the single session task
        // or the per-goal fresh tasks; `group_backmaps[g]` the matching
        // backmap(s) for countermodel renumbering.
        let adaptive = self.mode() == DischargeMode::Auto;
        let mut group_tasks: Vec<Vec<usize>> = Vec::with_capacity(groups.len());
        let mut group_backmaps: Vec<Vec<BackMap>> = Vec::with_capacity(groups.len());
        let mut group_sessioned: Vec<bool> = Vec::with_capacity(groups.len());
        for g in &groups {
            let as_session =
                !adaptive || session_score(&g.asms, &g.goals) >= AUTO_SESSION_THRESHOLD;
            if as_session {
                let sp = prepare(&g.asms, &g.goals);
                group_backmaps.push(vec![sp.backmap]);
                let core = Arc::new(sp.core);
                let cfg = g.cfg;
                let cert = self.cert;
                tasks.push(Box::new(move || solve_session(&core, cfg, None, cert)));
                group_tasks.push(vec![tasks.len() - 1]);
                self.groups_session.fetch_add(1, Ordering::Relaxed);
            } else {
                let mut ts = Vec::with_capacity(g.goals.len());
                let mut bms = Vec::with_capacity(g.goals.len());
                for &goal in &g.goals {
                    let sp = prepare(&g.asms, &[goal]);
                    bms.push(sp.backmap);
                    ts.push(push_task(&mut tasks, sp.core, g.cfg));
                }
                group_tasks.push(ts);
                group_backmaps.push(bms);
                self.groups_fresh.fetch_add(1, Ordering::Relaxed);
            }
            group_sessioned.push(as_session);
        }

        let prep_wall = t_prep.elapsed();
        let n_tasks = tasks.len();
        let n_groups = groups.len();
        let t_pool = std::time::Instant::now();
        let raw: Vec<Result<Vec<RawOutcome>, String>> = self.pool.run_batch(tasks);
        if debug {
            let cpu: Duration = raw
                .iter()
                .filter_map(|r| r.as_ref().ok())
                .flatten()
                .map(|o| o.stats.wall)
                .sum();
            eprintln!(
                "[engine] batch of {n}: prepare {prep_wall:?}, {n_tasks} tasks ({n_groups} sessions) solved in {:?} (task wall sum {cpu:?})",
                t_pool.elapsed()
            );
        }
        // Maps a sub-query's `Work` onto (pool task, outcome index
        // within the task, group backmap if any — the numbering the
        // countermodel comes back in). A sessioned group is one task
        // answering every goal under the group backmap; a fresh-
        // discharged group is one single-outcome task per goal, each
        // with its own backmap.
        let locate = |work: Work| -> (usize, usize, Option<&BackMap>) {
            match work {
                Work::Fresh(t) => (t, 0, None),
                Work::Session { group, goal } => {
                    if group_sessioned[group] {
                        (group_tasks[group][0], goal, Some(&group_backmaps[group][0]))
                    } else {
                        (group_tasks[group][goal], 0, Some(&group_backmaps[group][goal]))
                    }
                }
            }
        };
        for p in pending {
            match p {
                Pending::Unit { slot, work, backmap, key } => {
                    let slot = slots[slot].as_mut().expect("pending slot was initialized");
                    let (task, idx, solved_map) = locate(work);
                    match &raw[task] {
                        Err(msg) => {
                            slot.result = VerifyResult::Unknown;
                            slot.error = Some(msg.clone());
                        }
                        Ok(outs) => {
                            let RawOutcome { verdict, stats, variant, cert_hash, cert_error } =
                                outs[idx].clone();
                            slot.stats = Some(stats);
                            slot.wall = stats.wall;
                            slot.variant = variant;
                            self.count_cert(cert_hash, &cert_error);
                            match verdict {
                                RawVerdict::Proved => {
                                    self.cache
                                        .insert(key, CachedVerdict::Proved { cert: cert_hash });
                                    slot.cert = (cert_hash != 0).then_some(cert_hash);
                                    slot.result = VerifyResult::Proved;
                                }
                                RawVerdict::Refuted(pm) => {
                                    let (pm, m) =
                                        rekey(&pm, solved_map.unwrap_or(&backmap), &backmap);
                                    slot.result = VerifyResult::Counterexample(m);
                                    self.cache.insert(key, CachedVerdict::Refuted(pm));
                                }
                                RawVerdict::Unknown => {
                                    slot.result = VerifyResult::Unknown;
                                    if slot.error.is_none() {
                                        slot.error = cert_error;
                                    }
                                }
                                RawVerdict::Interrupted => {
                                    slot.result = VerifyResult::Interrupted
                                }
                            }
                        }
                    }
                }
                Pending::Split { slot, whole_key, subs } => {
                    let mut agg = QueryStats::default();
                    let mut solved_any = false;
                    let mut wall = Duration::ZERO;
                    let mut all_hit = true;
                    let mut all_proved = true;
                    let mut refuted: Option<Box<Model>> = None;
                    let mut any_unknown = false;
                    let mut error: Option<String> = None;
                    let mut sub_certs: Vec<u64> = Vec::new();
                    for sub in subs {
                        match sub {
                            Sub::Ready { result, cert, hit } => {
                                all_hit &= hit;
                                match result {
                                    VerifyResult::Counterexample(m) => {
                                        all_proved = false;
                                        refuted.get_or_insert(m);
                                    }
                                    _ => sub_certs.push(cert),
                                }
                            }
                            Sub::Wait { work, backmap, key } => {
                                all_hit = false;
                                let (task, idx, solved_map) = locate(work);
                                match &raw[task] {
                                    Err(msg) => {
                                        all_proved = false;
                                        any_unknown = true;
                                        if error.is_none() {
                                            error = Some(msg.clone());
                                        }
                                    }
                                    Ok(outs) => {
                                        let RawOutcome {
                                            verdict,
                                            stats,
                                            cert_hash,
                                            cert_error,
                                            ..
                                        } = outs[idx].clone();
                                        solved_any = true;
                                        agg = add_stats(agg, stats);
                                        wall = wall.max(stats.wall);
                                        self.count_cert(cert_hash, &cert_error);
                                        match verdict {
                                            RawVerdict::Proved => {
                                                self.cache.insert(
                                                    key,
                                                    CachedVerdict::Proved { cert: cert_hash },
                                                );
                                                sub_certs.push(cert_hash);
                                            }
                                            RawVerdict::Refuted(pm) => {
                                                let (pm, m) = rekey(
                                                    &pm,
                                                    solved_map.unwrap_or(&backmap),
                                                    &backmap,
                                                );
                                                all_proved = false;
                                                refuted.get_or_insert(m);
                                                self.cache
                                                    .insert(key, CachedVerdict::Refuted(pm));
                                            }
                                            RawVerdict::Unknown => {
                                                all_proved = false;
                                                any_unknown = true;
                                                if error.is_none() {
                                                    error = cert_error;
                                                }
                                            }
                                            RawVerdict::Interrupted => {
                                                all_proved = false;
                                            }
                                        }
                                    }
                                }
                            }
                        }
                    }
                    let out = slots[slot].as_mut().expect("pending slot was initialized");
                    out.stats = solved_any.then_some(agg);
                    out.wall = wall;
                    out.cache_hit = all_hit;
                    out.error = error;
                    out.result = if let Some(model) = refuted {
                        VerifyResult::Counterexample(model)
                    } else if all_proved {
                        // The conjunction itself is now a proved key, so
                        // future runs hit on the whole goal directly. Its
                        // certificate is the chained fingerprint over the
                        // per-conjunct certificates — nonzero only when
                        // every conjunct was itself certified.
                        let combined = if self.cert && sub_certs.iter().all(|&h| h != 0) {
                            combine_cert_hashes(&sub_certs)
                        } else {
                            0
                        };
                        self.cache
                            .insert(whole_key, CachedVerdict::Proved { cert: combined });
                        out.cert = (combined != 0).then_some(combined);
                        VerifyResult::Proved
                    } else if any_unknown {
                        VerifyResult::Unknown
                    } else {
                        VerifyResult::Interrupted
                    };
                }
            }
        }
        // Presolve finalization: attach the shrink counts to whatever
        // stats the solve produced, and repair counterexamples. A
        // countermodel of the *reduced* query (solver result or cache
        // hit alike) only refutes the original once (a) the assumptions
        // cone-of-influence dropped are themselves satisfiable — their
        // model merges in over disjoint variables — and (b) the
        // variables presolve eliminated are re-derived from their
        // bindings. If the dropped partition is unsatisfiable the
        // original base is contradictory, so the verdict flips to
        // Proved no matter what the reduced query said.
        for (slot, info) in slots.iter_mut().zip(presolve_infos.iter()) {
            let Some(info) = info else { continue };
            let out = slot.as_mut().expect("every slot resolved");
            if let Some(stats) = &mut out.stats {
                stats.presolve_terms_in = info.pre.terms;
                stats.presolve_terms_out = info.post.terms;
                stats.presolve_vars_in = info.pre.vars;
                stats.presolve_vars_out = info.post.vars;
            }
            if !matches!(out.result, VerifyResult::Counterexample(_)) {
                continue;
            }
            if !info.dropped.is_empty() {
                match serval_smt::check_full(info.cfg, &info.dropped, None).result {
                    CheckResult::Sat(dm) => {
                        if let VerifyResult::Counterexample(m) = &mut out.result {
                            // Disjoint by construction: the partitions
                            // share no variables and no UFs.
                            m.bv_values.extend(dm.bv_values);
                            m.bool_values.extend(dm.bool_values);
                            m.uf_tables.extend(dm.uf_tables);
                        }
                    }
                    CheckResult::Unsat => {
                        out.result = VerifyResult::Proved;
                        continue;
                    }
                    CheckResult::Unknown | CheckResult::Interrupted => {
                        out.result = VerifyResult::Unknown;
                        continue;
                    }
                }
            }
            if let VerifyResult::Counterexample(m) = &mut out.result {
                presolve::complete_model(m, &info.base.bindings);
            }
        }

        // Every countermodel, solved or cached, must refute the query as
        // submitted; one that does not is demoted before the raw-key
        // write below could record it.
        for (slot, (assumptions, goal)) in slots.iter_mut().zip(&originals) {
            let out = slot.as_mut().expect("every slot resolved");
            check_refutation(out, assumptions, *goal);
        }

        // Raw-key write side: only now are the outcomes definitive and
        // their countermodels repaired (dropped-cone merge and binding
        // completion above), so each solved query is recorded under its
        // *pre-presolve* key too — next run's raw-layer lookup then
        // resolves it before ever entering the presolve pipeline, and a
        // stored countermodel already refutes the original query as-is.
        for (i, raw) in raw_infos.iter().enumerate() {
            let Some((raw_key, raw_backmap)) = raw else { continue };
            let out = slots[i].as_ref().expect("every slot resolved");
            match &out.result {
                VerifyResult::Proved => self.cache.insert(
                    raw_key.clone(),
                    CachedVerdict::Proved { cert: out.cert.unwrap_or(0) },
                ),
                VerifyResult::Counterexample(m) => self.cache.insert(
                    raw_key.clone(),
                    CachedVerdict::Refuted(portable_of_caller_model(m, raw_backmap)),
                ),
                VerifyResult::Unknown | VerifyResult::Interrupted => {}
            }
        }

        slots
            .into_iter()
            .map(|s| s.expect("every slot resolved"))
            .collect()
    }
}

/// What the cache layer made of one `assumptions ⊢ goal` pair (see
/// [`Engine::resolve`]).
enum Found {
    /// Settled without solving: trivially proved (`hit` false) or a
    /// revalidated cache hit. `cert` fingerprints the certificate behind
    /// a `Proved` (0 = none).
    Ready { result: VerifyResult, cert: u64, hit: bool },
    /// Not cached: solve it, then record the verdict under `key`.
    Miss { key: Vec<u8> },
}

/// The outcome of a query settled without solving.
fn settled(label: String, result: VerifyResult, cert: u64, hit: bool) -> QueryOutcome {
    QueryOutcome {
        label,
        result,
        stats: None,
        wall: Duration::ZERO,
        cache_hit: hit,
        variant: 0,
        cert: (cert != 0).then_some(cert),
        error: None,
    }
}

/// Component-wise sum of two stats blocks (used to aggregate split
/// sub-queries; `wall` is summed here, the outcome reports critical-path
/// wall separately).
fn add_stats(a: QueryStats, b: QueryStats) -> QueryStats {
    QueryStats {
        conflicts: a.conflicts + b.conflicts,
        decisions: a.decisions + b.decisions,
        propagations: a.propagations + b.propagations,
        restarts: a.restarts + b.restarts,
        learnts: a.learnts + b.learnts,
        clauses: a.clauses + b.clauses,
        vars: a.vars + b.vars,
        reused_clauses: a.reused_clauses + b.reused_clauses,
        reused_vars: a.reused_vars + b.reused_vars,
        reused_learnts: a.reused_learnts + b.reused_learnts,
        // Deepest session position among the aggregated sub-queries: a
        // rough "how incremental was this" indicator, not a sum.
        session_goals: a.session_goals.max(b.session_goals),
        presolve_terms_in: a.presolve_terms_in + b.presolve_terms_in,
        presolve_terms_out: a.presolve_terms_out + b.presolve_terms_out,
        presolve_vars_in: a.presolve_vars_in + b.presolve_vars_in,
        presolve_vars_out: a.presolve_vars_out + b.presolve_vars_out,
        eliminated_vars: a.eliminated_vars + b.eliminated_vars,
        subsumed: a.subsumed + b.subsumed,
        strengthened: a.strengthened + b.strengthened,
        resolvents: a.resolvents + b.resolvents,
        cert_steps: a.cert_steps + b.cert_steps,
        cert_wall: a.cert_wall + b.cert_wall,
        wall: a.wall + b.wall,
    }
}

/// Fingerprint of the canonical two-step refutation `[Input([]),
/// Derived([])]` attached to trivially-unsat fast-path verdicts. The
/// steps are run through the real checker once per process, so even the
/// fast path's certificate is checker-backed (and its hash agrees with
/// the solver layer's own const-false short-circuit).
fn trivial_cert_hash() -> u64 {
    static HASH: OnceLock<u64> = OnceLock::new();
    *HASH.get_or_init(|| {
        let steps = [ProofStep::Input(Vec::new()), ProofStep::Derived(Vec::new())];
        serval_drat::check_refutation(&steps, &[])
            .expect("the canonical trivial refutation always checks");
        serval_drat::hash_steps(&steps)
    })
}

/// Chains per-conjunct certificate fingerprints into one fingerprint for
/// the whole split goal (FNV-1a over the hashes in conjunct order; 0 is
/// reserved for "uncertified", so a zero digest is nudged to 1).
fn combine_cert_hashes(hashes: &[u64]) -> u64 {
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    for x in hashes {
        for b in x.to_le_bytes() {
            h = (h ^ b as u64).wrapping_mul(0x0000_0100_0000_01b3);
        }
    }
    if h == 0 {
        1
    } else {
        h
    }
}

/// Whether `m` refutes the query: every assumption evaluates true and
/// the goal false (variables `m` does not assign default like the
/// solver's don't-cares).
pub fn refutes(m: &Model, assumptions: &[SBool], goal: SBool) -> bool {
    assumptions.iter().all(|a| m.eval_bool(a.0)) && !m.eval_bool(goal.0)
}

/// Demotes a `Counterexample` outcome whose model does not refute the
/// caller's `assumptions` and `goal` to `Unknown`, with the reason in
/// `error`. A wrong countermodel means a layer between the caller and
/// the solver (presolve, normalization, session renumbering, the cache)
/// misbehaved, so no verdict is better than that one.
fn check_refutation(out: &mut QueryOutcome, assumptions: &[SBool], goal: SBool) {
    if let VerifyResult::Counterexample(m) = &out.result {
        if !refutes(m, assumptions, goal) {
            out.result = VerifyResult::Unknown;
            out.error = Some("countermodel does not refute the submitted query".to_string());
        }
    }
}

/// Translates a worker's countermodel, numbered by the core that was
/// solved (`from`), into the numbering of the sub-query's own core
/// (`to`, which its cache entry uses) and into the caller's terms.
///
/// A session core numbers vars across its base and *every* goal, so a
/// goal's own core usually numbers them differently. Vars of the session
/// not reachable from this sub-query are dropped; extra UF rows (from
/// sibling goals' applications) are kept — they come from one consistent
/// SAT model, so they agree with the sub-query's own applications.
fn rekey(pm: &PortableModel, from: &BackMap, to: &BackMap) -> (PortableModel, Box<Model>) {
    let whole = portable_to_model(pm, from).expect("a solved model fits the core it solved");
    let pm = portable_of_caller_model(&whole, to);
    let m = portable_to_model(&pm, to).expect("projected onto `to` just above");
    (pm, Box::new(m))
}

/// Projects a caller-context model onto a back map's canonical indices —
/// the inverse of [`portable_to_model`], used to record a finalized
/// countermodel under the query's *raw* (pre-presolve) cache key. Every
/// variable presolve eliminated or dropped was re-derived by
/// finalization, so the raw back map covers everything the model needs;
/// model entries the map doesn't reach are don't-cares and stay out. UF
/// rows are sorted so the portable form (and hence the cache bytes) is
/// deterministic.
pub fn portable_of_caller_model(m: &Model, backmap: &BackMap) -> PortableModel {
    let mut pm = PortableModel::default();
    for (k, origin) in backmap.vars.iter().enumerate() {
        if let Some(&v) = m.bv_values.get(&origin.term) {
            pm.bvs.push((k as u32, v));
        }
        if let Some(&b) = m.bool_values.get(&origin.term) {
            pm.bools.push((k as u32, b));
        }
    }
    for (k, uf) in backmap.ufs.iter().enumerate() {
        if let Some(rows) = m.uf_tables.get(uf) {
            let mut rows: Vec<(Vec<u128>, u128)> =
                rows.iter().map(|(a, r)| (a.clone(), *r)).collect();
            rows.sort();
            pm.ufs.push((k as u32, rows));
        }
    }
    pm
}

/// Maps a portable model onto the terms of `backmap`'s thread. `None`
/// when the model names a var or UF index the back map does not have,
/// as a hostile or broken peer's model might.
pub fn portable_to_model(pm: &PortableModel, backmap: &BackMap) -> Option<Model> {
    let mut m = Model::default();
    for &(k, v) in &pm.bvs {
        m.set_bv(backmap.vars.get(k as usize)?.term, v);
    }
    for &(k, b) in &pm.bools {
        m.set_bool(backmap.vars.get(k as usize)?.term, b);
    }
    for (k, rows) in &pm.ufs {
        m.uf_tables
            .insert(*backmap.ufs.get(*k as usize)?, rows.iter().cloned().collect());
    }
    Some(m)
}

static GLOBAL: OnceLock<Mutex<Option<Arc<Engine>>>> = OnceLock::new();

fn global_slot() -> &'static Mutex<Option<Arc<Engine>>> {
    GLOBAL.get_or_init(|| Mutex::new(None))
}

/// The process-wide engine, created from the environment on first use.
pub fn handle() -> Arc<Engine> {
    let mut slot = global_slot().lock().unwrap();
    if slot.is_none() {
        *slot = Some(Arc::new(Engine::new(EngineCfg::from_env())));
    }
    Arc::clone(slot.as_ref().unwrap())
}

/// Replaces the process-wide engine (benchmarks use this to compare
/// worker counts within one process). Returns the new engine.
pub fn install(cfg: EngineCfg) -> Arc<Engine> {
    let engine = Arc::new(Engine::new(cfg));
    *global_slot().lock().unwrap() = Some(Arc::clone(&engine));
    engine
}

/// The discharge seam: anything that can resolve a batch of queries into
/// submission-order outcomes. [`Engine`] is the in-process
/// implementation; `serval-net`'s `RemoteEngine` forwards the batch to a
/// `servald` server over TCP. Consumers (`serval_core::report`) go
/// through [`discharger`], so whole workloads can be redirected over the
/// network without touching the proof code.
pub trait Discharge: Send + Sync {
    /// Discharges a batch, returning outcomes in submission order. Must
    /// be called from the thread that owns the queries' terms.
    fn submit_batch(&self, queries: Vec<Query>) -> Vec<QueryOutcome>;

    /// Discharges one query.
    fn submit(&self, query: Query) -> QueryOutcome {
        self.submit_batch(vec![query])
            .pop()
            .expect("one query in, one outcome out")
    }

    /// Human-readable description for reports and diagnostics.
    fn describe(&self) -> String {
        "in-process engine".to_string()
    }
}

impl Discharge for Engine {
    fn submit_batch(&self, queries: Vec<Query>) -> Vec<QueryOutcome> {
        Engine::submit_batch(self, queries)
    }

    fn submit(&self, query: Query) -> QueryOutcome {
        Engine::submit(self, query)
    }
}

static DISCHARGER: OnceLock<Mutex<Option<Arc<dyn Discharge>>>> = OnceLock::new();

fn discharger_slot() -> &'static Mutex<Option<Arc<dyn Discharge>>> {
    DISCHARGER.get_or_init(|| Mutex::new(None))
}

/// The process-wide discharger: the installed override if any, otherwise
/// the global in-process engine ([`handle`]).
pub fn discharger() -> Arc<dyn Discharge> {
    if let Some(d) = discharger_slot().lock().unwrap().as_ref() {
        return Arc::clone(d);
    }
    handle()
}

/// Routes all subsequent [`discharger`] calls to `d` (e.g. a remote
/// engine). Returns the previous override, if any.
pub fn install_discharger(d: Arc<dyn Discharge>) -> Option<Arc<dyn Discharge>> {
    discharger_slot().lock().unwrap().replace(d)
}

/// Removes the discharger override; [`discharger`] falls back to the
/// in-process engine.
pub fn clear_discharger() -> Option<Arc<dyn Discharge>> {
    discharger_slot().lock().unwrap().take()
}
