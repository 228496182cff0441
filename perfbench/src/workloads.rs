//! The four workloads, their cells, and the discharger each runs on.

use crate::oracle::{jit_expect, Expect, Jit, Outcome};
use crate::trace::Counts;
use serval_core::report::{ProofReport, Verdict};
use serval_core::OptCfg;
use serval_engine::{Discharge, Engine, EngineCfg, Query};
use serval_ir::OptLevel;
use serval_jit::{sweep_rv64, sweep_x86, CheckRow, Rv64Jit, RvBug, X86Bug, X86Jit};
use serval_monitors::{certikos, komodo};
use serval_net::{NetCfg, RemoteEngine, Server};
use serval_smt::solver::{SolverConfig, VerifyResult};
use serval_smt::{reset_ctx, BV};
use std::sync::Arc;

/// A benchmark workload.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Workload {
    /// CertiKOS^s and Komodo^s refinement at `-O0`, `-O1`, `-O2`.
    Fig11Refinement,
    /// CertiKOS^s and Komodo^s noninterference, one cell per lemma.
    Fig11Safety,
    /// The section 7 JIT checker: fixed sweeps, then one per seeded bug.
    JitSweep,
    /// `jit-sweep` plus CertiKOS `-O1` refinement through a loopback
    /// `servald`.
    Service,
}

impl Workload {
    /// Every workload this benchmark can run.
    pub const ALL: [Workload; 4] = [
        Workload::Fig11Refinement,
        Workload::Fig11Safety,
        Workload::JitSweep,
        Workload::Service,
    ];

    /// The workload's command-line name.
    pub fn name(self) -> &'static str {
        match self {
            Workload::Fig11Refinement => "fig11-refinement",
            Workload::Fig11Safety => "fig11-safety",
            Workload::JitSweep => "jit-sweep",
            Workload::Service => "service",
        }
    }

    /// Looks a workload up by name.
    pub fn parse(name: &str) -> Option<Workload> {
        Workload::ALL.into_iter().find(|w| w.name() == name)
    }
}

/// A verified monitor.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Monitor {
    /// CertiKOS^s.
    CertiKos,
    /// Komodo^s.
    Komodo,
}

/// One noninterference lemma (a cell of `fig11-safety`).
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Lemma {
    /// CertiKOS: own-step consistency.
    CertiKosOwnStep,
    /// CertiKOS: other processes' steps are invisible.
    CertiKosOthersInvisible,
    /// CertiKOS: yield-to consistency.
    CertiKosYieldTo,
    /// CertiKOS: spawn-child consistency.
    CertiKosSpawnChild,
    /// Komodo: local respect.
    KomodoLocalRespect,
    /// Komodo: construction consistency.
    KomodoConstruction,
}

impl Lemma {
    const ALL: [Lemma; 6] = [
        Lemma::CertiKosOwnStep,
        Lemma::CertiKosOthersInvisible,
        Lemma::CertiKosYieldTo,
        Lemma::CertiKosSpawnChild,
        Lemma::KomodoLocalRespect,
        Lemma::KomodoConstruction,
    ];
}

/// Theorems one monitor's refinement proof reports at one level: one
/// per checked obligation of its compiled binary, so the count follows
/// the level.
fn refinement_theorems(m: Monitor, level: OptLevel) -> usize {
    match (m, level) {
        (Monitor::CertiKos, OptLevel::O0) => 1161,
        (Monitor::CertiKos, _) => 1179,
        (Monitor::Komodo, OptLevel::O0) => 3985,
        (Monitor::Komodo, _) => 4675,
    }
}

impl Lemma {
    /// Theorems the lemma's proof reports.
    fn theorems(self) -> usize {
        match self {
            Lemma::CertiKosOwnStep => 3,
            Lemma::CertiKosOthersInvisible => 2,
            Lemma::CertiKosYieldTo | Lemma::CertiKosSpawnChild => 1,
            Lemma::KomodoLocalRespect => 8,
            Lemma::KomodoConstruction => 1,
        }
    }
}

/// One proof call or one JIT sweep.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Cell {
    /// `prove_refinement` for one monitor at one level.
    Refinement(Monitor, OptLevel),
    /// One noninterference lemma.
    Safety(Lemma),
    /// One JIT sweep.
    Sweep(Jit),
}

impl Cell {
    /// The cell's name in traces and error messages.
    pub fn name(self) -> String {
        match self {
            Cell::Refinement(m, l) => format!("{m:?} refinement -{l:?}"),
            Cell::Safety(lemma) => format!("{lemma:?} noninterference"),
            Cell::Sweep(Jit::Rv64) => "rv64 fixed sweep".to_string(),
            Cell::Sweep(Jit::X86) => "x86-32 fixed sweep".to_string(),
            Cell::Sweep(Jit::Rv64Bug(b)) => format!("rv64 {b:?} sweep"),
            Cell::Sweep(Jit::X86Bug(b)) => format!("x86-32 {b:?} sweep"),
        }
    }

    /// The cell's known answer.
    pub fn expect(self) -> Expect {
        match self {
            Cell::Refinement(m, l) => Expect::all_proved(refinement_theorems(m, l)),
            Cell::Safety(lemma) => Expect::all_proved(lemma.theorems()),
            Cell::Sweep(jit) => jit_expect(jit),
        }
    }

    /// Runs the cell through the process-wide discharger and returns
    /// every theorem's outcome.
    pub fn run(self, cfg: SolverConfig) -> Vec<(String, Outcome)> {
        let opt = OptCfg::default();
        match self {
            Cell::Refinement(Monitor::CertiKos, l) => {
                theorems(certikos::proofs::prove_refinement(l, opt, cfg))
            }
            Cell::Refinement(Monitor::Komodo, l) => {
                theorems(komodo::proofs::prove_refinement(l, opt, cfg))
            }
            Cell::Safety(lemma) => theorems(match lemma {
                Lemma::CertiKosOwnStep => certikos::proofs::prove_own_step_consistency(cfg),
                Lemma::CertiKosOthersInvisible => certikos::proofs::prove_others_invisible(cfg),
                Lemma::CertiKosYieldTo => certikos::proofs::prove_yield_to_consistency(cfg),
                Lemma::CertiKosSpawnChild => {
                    certikos::proofs::prove_spawn_child_consistency(false, cfg)
                }
                Lemma::KomodoLocalRespect => komodo::proofs::prove_local_respect(cfg),
                Lemma::KomodoConstruction => komodo::proofs::prove_construction_consistency(cfg),
            }),
            Cell::Sweep(jit) => rows(match jit {
                Jit::Rv64 => sweep_rv64(&Rv64Jit::fixed(), cfg),
                Jit::X86 => sweep_x86(&X86Jit::fixed(), cfg),
                Jit::Rv64Bug(bug) => {
                    let mut j = Rv64Jit::fixed();
                    j.bugs.insert(bug);
                    sweep_rv64(&j, cfg)
                }
                Jit::X86Bug(bug) => {
                    let mut j = X86Jit::fixed();
                    j.bugs.insert(bug);
                    sweep_x86(&j, cfg)
                }
            }),
        }
    }
}

fn theorems(report: ProofReport) -> Vec<(String, Outcome)> {
    report
        .theorems
        .into_iter()
        .map(|t| {
            let outcome = match t.verdict {
                Verdict::Proved => Outcome::Proved,
                Verdict::Counterexample(..) => Outcome::Refuted,
                Verdict::Unknown | Verdict::Interrupted => Outcome::Failed,
            };
            (t.name, outcome)
        })
        .collect()
}

/// The checker folds `Unknown`, `Interrupted` and worker errors into
/// `ok = false` too; only a row carrying a countermodel is a refutation.
fn rows(rows: Vec<CheckRow>) -> Vec<(String, Outcome)> {
    rows.into_iter()
        .map(|r| {
            let outcome = if r.ok {
                Outcome::Proved
            } else if r
                .cex
                .as_deref()
                .is_some_and(|c| c.starts_with("counterexample"))
            {
                Outcome::Refuted
            } else {
                Outcome::Failed
            };
            (r.insn, outcome)
        })
        .collect()
}

/// A planned cell, and whether its wall time counts toward `cached_s`
/// (cells that can be served from what earlier cells of the same pass
/// put in the verdict cache).
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct Planned {
    /// The cell.
    pub cell: Cell,
    /// Counts toward `cached_s`.
    pub cached: bool,
}

/// SplitMix64: the seed's permutation source.
struct Rng(u64);

impl Rng {
    fn next(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9e37_79b9_7f4a_7c15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
        z ^ (z >> 31)
    }

    /// Fisher–Yates shuffle.
    fn shuffle<T>(&mut self, items: &mut [T]) {
        for i in (1..items.len()).rev() {
            let j = (self.next() % (i as u64 + 1)) as usize;
            items.swap(i, j);
        }
    }
}

/// The JIT cells: both fixed sweeps first (they fill the cache every
/// bug variant reuses), then one sweep per seeded bug in seed order.
fn jit_plan(rng: &mut Rng) -> Vec<Planned> {
    let mut bugs: Vec<Jit> = RvBug::ALL
        .into_iter()
        .map(Jit::Rv64Bug)
        .chain(X86Bug::ALL.into_iter().map(Jit::X86Bug))
        .collect();
    rng.shuffle(&mut bugs);
    [Jit::Rv64, Jit::X86]
        .into_iter()
        .map(|j| Planned {
            cell: Cell::Sweep(j),
            cached: false,
        })
        .chain(bugs.into_iter().map(|j| Planned {
            cell: Cell::Sweep(j),
            cached: true,
        }))
        .collect()
}

/// A workload's cells in the order `seed` gives them. The seed permutes
/// which monitor and which level run first, and the order of the bug
/// variants; the set of cells and their verdicts never change.
pub fn plan(w: Workload, seed: u64) -> Vec<Planned> {
    let mut rng = Rng(seed);
    match w {
        Workload::Fig11Refinement => {
            let mut monitors = [Monitor::CertiKos, Monitor::Komodo];
            rng.shuffle(&mut monitors);
            let mut cells = Vec::new();
            for m in monitors {
                let mut levels = OptLevel::ALL;
                rng.shuffle(&mut levels);
                for (i, l) in levels.into_iter().enumerate() {
                    cells.push(Planned {
                        cell: Cell::Refinement(m, l),
                        cached: i > 0,
                    });
                }
            }
            cells
        }
        Workload::Fig11Safety => {
            let mut lemmas = Lemma::ALL;
            rng.shuffle(&mut lemmas);
            lemmas
                .into_iter()
                .map(|l| Planned {
                    cell: Cell::Safety(l),
                    cached: false,
                })
                .collect()
        }
        Workload::JitSweep => jit_plan(&mut rng),
        Workload::Service => {
            let mut cells = jit_plan(&mut rng);
            cells.push(Planned {
                cell: Cell::Refinement(Monitor::CertiKos, OptLevel::O1),
                cached: false,
            });
            cells
        }
    }
}

/// The discharger a pass runs on: a freshly installed in-process engine,
/// or a fresh loopback server with one client connection.
pub enum Backend {
    /// The process-wide engine.
    Local(Arc<Engine>),
    /// An in-process `servald` and the client connected to it.
    Remote {
        /// The server (shut down by [`Backend::stop`]).
        server: Server,
        /// The single client connection.
        remote: Arc<RemoteEngine>,
    },
}

impl Backend {
    /// Starts the workload's discharger and waits until it has answered
    /// one query. An in-process engine becomes the process-wide engine
    /// the proof code reaches.
    pub fn start(w: Workload, ecfg: &EngineCfg, ncfg: &NetCfg) -> Backend {
        let backend = if w == Workload::Service {
            let server = Server::bind(&ncfg.addr, ncfg.clone()).expect("bind loopback server");
            let addr = server.local_addr().to_string();
            let remote =
                Arc::new(RemoteEngine::connect(&addr).expect("connect to loopback server"));
            Backend::Remote { server, remote }
        } else {
            Backend::Local(serval_engine::install(ecfg.clone()))
        };
        let ready = backend.discharger().submit(probe_query(0));
        assert!(
            matches!(ready.result, VerifyResult::Proved),
            "discharger failed its readiness query: {:?} {:?}",
            ready.result,
            ready.error
        );
        backend
    }

    /// The backend's own discharger (not the process-wide seam).
    pub fn discharger(&self) -> Arc<dyn Discharge> {
        match self {
            Backend::Local(e) => Arc::clone(e) as Arc<dyn Discharge>,
            Backend::Remote { remote, .. } => Arc::clone(remote) as Arc<dyn Discharge>,
        }
    }

    /// Whether batches cross the wire.
    pub fn remote(&self) -> bool {
        matches!(self, Backend::Remote { .. })
    }

    /// Solver workers behind the discharger.
    pub fn workers(&self) -> usize {
        match self {
            Backend::Local(e) => e.jobs(),
            Backend::Remote { server, .. } => server
                .core()
                .shards()
                .iter()
                .map(|s| s.engine().jobs())
                .sum(),
        }
    }

    /// The engines' and the wire's monotone counters.
    pub fn snapshot(&self) -> Counts {
        let mut c = Counts::default();
        let mut engine = |e: &Engine| {
            let (hits, misses) = e.cache_stats();
            let (queries, trivial) = e.query_counts();
            let (session, fresh) = e.mode_counts();
            let (accepted, rejected) = e.cert_counts();
            c.add("engine.cache_hits", hits as f64);
            c.add("engine.cache_misses", misses as f64);
            c.add("engine.queries", queries as f64);
            c.add("engine.trivial", trivial as f64);
            c.add("engine.session_groups", session as f64);
            c.add("engine.fresh_groups", fresh as f64);
            c.add("drat.accepted", accepted as f64);
            c.add("drat.rejected", rejected as f64);
        };
        match self {
            Backend::Local(e) => engine(e),
            Backend::Remote { server, remote } => {
                for shard in server.core().shards() {
                    engine(shard.engine());
                }
                let stats = server.core().stats();
                let (sent, received) = remote.bytes();
                c.add("net.bytes_sent", sent as f64);
                c.add("net.bytes_received", received as f64);
                c.add(
                    "net.shard_solved",
                    stats.shards.iter().map(|r| r.solved as f64).sum(),
                );
                c.add(
                    "net.shard_hits",
                    stats.shards.iter().map(|r| r.hits as f64).sum(),
                );
                c.add("net.hot_hits", stats.hot_hits as f64);
            }
        }
        c
    }

    /// Stops the server, if any, and waits for its threads.
    pub fn stop(self) {
        if let Backend::Remote { server, .. } = self {
            server.shutdown();
        }
    }
}

/// The `i`-th latency probe: a small tautology over a fresh term
/// context, distinct per `i` so that every probe is solved, not looked
/// up.
pub fn probe_query(i: u64) -> Query {
    reset_ctx();
    let x = BV::fresh(32, "x");
    let k = BV::lit(32, u128::from(i) + 1);
    Query {
        label: format!("probe/{i}"),
        assumptions: vec![],
        goal: (x & k).ule(x | k),
        cfg: SolverConfig::default(),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::oracle::{check, Tally};

    fn cells(w: Workload, seed: u64) -> Vec<Cell> {
        plan(w, seed).into_iter().map(|p| p.cell).collect()
    }

    #[test]
    fn seed_permutes_order_but_not_the_set_of_cells() {
        for w in Workload::ALL {
            let key = |c: &Cell| c.name();
            let mut base = cells(w, 0);
            base.sort_by_key(key);
            let mut orders = std::collections::BTreeSet::new();
            for seed in 0..16 {
                let mut c = cells(w, seed);
                orders.insert(c.iter().map(key).collect::<Vec<_>>());
                c.sort_by_key(key);
                assert_eq!(c, base, "{}: seed {seed} changed the cell set", w.name());
            }
            assert!(
                orders.len() > 1,
                "{}: seed never changed the order",
                w.name()
            );
            assert_eq!(cells(w, 7), cells(w, 7), "same seed, same order");
        }
    }

    #[test]
    fn jit_sweeps_start_with_the_fixed_jits_and_cover_every_bug() {
        let p = plan(Workload::JitSweep, 3);
        assert_eq!(p[0].cell, Cell::Sweep(Jit::Rv64));
        assert_eq!(p[1].cell, Cell::Sweep(Jit::X86));
        assert_eq!(p.len(), 2 + RvBug::ALL.len() + X86Bug::ALL.len());
        assert!(p[2..].iter().all(|c| c.cached) && !p[0].cached && !p[1].cached);
        let s = plan(Workload::Service, 3);
        assert_eq!(&s[..p.len()], &p[..], "service runs the same JIT cells");
        assert_eq!(
            s.last().map(|c| c.cell),
            Some(Cell::Refinement(Monitor::CertiKos, OptLevel::O1))
        );
    }

    #[test]
    fn refinement_caches_all_but_the_first_level_of_each_monitor() {
        let p = plan(Workload::Fig11Refinement, 11);
        assert_eq!(p.len(), 6);
        assert_eq!(p.iter().filter(|c| !c.cached).count(), 2);
        assert!(!p[0].cached && !p[3].cached);
    }

    /// The verdicts a correct run of `cell` gives, with theorem names
    /// that match the oracle's expectations.
    fn answered(cell: Cell) -> Vec<(String, Outcome)> {
        let expect = cell.expect();
        let proved = expect.theorems - expect.refuted.len();
        (0..proved)
            .map(|i| (format!("{} #{i}", cell.name()), Outcome::Proved))
            .chain(expect.refuted.into_iter().map(|n| (n, Outcome::Refuted)))
            .collect()
    }

    fn tally(verdicts: &[(Cell, Vec<(String, Outcome)>)]) -> Tally {
        let mut t = Tally::default();
        for (cell, v) in verdicts {
            t.add(&check(&cell.expect(), v));
        }
        t
    }

    #[test]
    fn oracle_catches_a_single_flipped_or_dropped_verdict_in_each_workload() {
        for w in Workload::ALL {
            let good: Vec<(Cell, Vec<(String, Outcome)>)> =
                cells(w, 5).into_iter().map(|c| (c, answered(c))).collect();
            assert_eq!(tally(&good).wrong, 0, "{}: correct run must pass", w.name());
            for ci in 0..good.len() {
                // Every theorem of a small cell; the first, middle and
                // last of a refinement cell's thousands (the expected
                // refutations come last).
                let n = good[ci].1.len();
                let picks: Vec<usize> = if n <= 64 {
                    (0..n).collect()
                } else {
                    vec![0, n / 2, n - 1]
                };
                for ti in picks {
                    let mut bad = good.clone();
                    let v = &mut bad[ci].1[ti].1;
                    *v = if *v == Outcome::Proved {
                        Outcome::Refuted
                    } else {
                        Outcome::Proved
                    };
                    let t = tally(&bad);
                    assert_eq!(t.wrong, 1, "{}: flip in cell {ci} theorem {ti}", w.name());
                    assert_eq!(t.failed, 0);
                    let mut bad = good.clone();
                    bad[ci].1.remove(ti);
                    let t = tally(&bad);
                    assert_eq!(t.wrong, 1, "{}: drop in cell {ci} theorem {ti}", w.name());
                }
            }
        }
    }
}
