//! Worker-side solving: rebuild the portable form in the worker's own
//! term context, discharge it, and translate any model into a portable
//! shape. Portfolio mode races several solver configurations for one
//! query and cancels the losers through the CDCL interrupt flag.

use crate::form::{rebuild, BackMap, Core};
use serval_check::sim;
use serval_smt::bv::SBool;
use serval_smt::model::Model;
use serval_smt::session::Session;
use serval_smt::solver::{check_full, check_full_proof, CheckResult, QueryStats, SolverConfig};
use serval_smt::term::reset_ctx;
use std::sync::atomic::{AtomicBool, AtomicUsize, Ordering};
use std::sync::{Arc, Mutex};
use std::time::{Duration, Instant};

/// A model expressed over canonical var/UF indices — valid on any
/// thread, for any query with the same normal form.
#[derive(Clone, Debug, Default)]
pub struct PortableModel {
    /// Canonical var index → bitvector value.
    pub bvs: Vec<(u32, u128)>,
    /// Canonical var index → boolean value.
    pub bools: Vec<(u32, bool)>,
    /// Canonical UF index → (argument tuple → result) graph.
    pub ufs: Vec<(u32, Vec<(Vec<u128>, u128)>)>,
}

/// Verdict of a worker-side solve, before caller-side translation.
#[derive(Clone, Debug)]
pub enum RawVerdict {
    /// Assertions unsatisfiable: the query's goal is proved.
    Proved,
    /// Assertions satisfiable: the goal is refuted by this model.
    Refuted(PortableModel),
    /// Budget exhausted.
    Unknown,
    /// Cancelled (only surfaces when every portfolio member was).
    Interrupted,
}

/// Worker-side solve result.
#[derive(Clone, Debug)]
pub struct RawOutcome {
    /// The verdict.
    pub verdict: RawVerdict,
    /// Solver statistics of the winning solve.
    pub stats: QueryStats,
    /// Which portfolio variant produced the verdict (0 = base config).
    pub variant: usize,
    /// Fingerprint of the checker-accepted proof certificate backing a
    /// `Proved` verdict (0 = uncertified).
    pub cert_hash: u64,
    /// Why certificate checking demoted a solver `Unsat` to `Unknown`,
    /// if it did.
    pub cert_error: Option<String>,
}

/// Solves a one-goal `core` (its assumptions plus the negated goal) under
/// one configuration in a fresh term context.
///
/// With `cert` on, the solver logs a DRAT-style proof and an `Unsat`
/// answer is upgraded to `Proved` only after the independent checker
/// (`serval-drat`) accepts the certificate; a rejected certificate
/// demotes the verdict to `Unknown` and reports why in `cert_error`.
///
/// Must run on a thread whose term context is disposable (a pool worker
/// or a portfolio thread): the context is reset first.
pub fn solve_one(
    core: &Core,
    cfg: SolverConfig,
    cancel: Option<Arc<AtomicBool>>,
    cert: bool,
) -> RawOutcome {
    debug_assert_eq!(core.goals.len(), 1, "a fresh solve answers one goal");
    reset_ctx();
    let rq = rebuild(core);
    let negated = rq.goals.iter().map(|&g| !g);
    let roots: Vec<SBool> = rq.assumptions.iter().copied().chain(negated).collect();
    let mut out = if cert {
        check_full_proof(cfg, &roots, cancel)
    } else {
        check_full(cfg, &roots, cancel)
    };
    // Buggify: hand the checker a truncated proof (as a flaky solver or
    // a torn proof log would). The only acceptable outcome is a rejected
    // certificate demoting the verdict to `Unknown` — never a `Proved`
    // without a checked proof, and never a panic.
    if matches!(out.result, CheckResult::Unsat) && sim::buggify("cert-corrupt-proof") {
        if let Some(proof) = &mut out.proof {
            proof.pop();
        }
    }
    let mut stats = out.stats;
    let mut cert_hash = 0u64;
    let mut cert_error: Option<String> = None;
    if let (CheckResult::Unsat, Some(proof)) = (&out.result, &out.proof) {
        let t0 = Instant::now();
        match serval_drat::check_refutation(proof, &[]) {
            Ok(()) => cert_hash = serval_drat::hash_steps(proof),
            Err(e) => cert_error = Some(e.to_string()),
        }
        stats.cert_steps = proof.len() as u64;
        stats.cert_wall = t0.elapsed();
    }
    let verdict = match out.result {
        CheckResult::Unsat if cert_error.is_some() => RawVerdict::Unknown,
        CheckResult::Unsat => RawVerdict::Proved,
        CheckResult::Unknown => RawVerdict::Unknown,
        CheckResult::Interrupted => RawVerdict::Interrupted,
        CheckResult::Sat(model) => refuted(&model, &rq.backmap),
    };
    RawOutcome { verdict, stats, variant: 0, cert_hash, cert_error }
}

/// Projects a worker-side countermodel onto the core's canonical var/UF
/// indices so it survives the trip back to the submitting thread.
///
/// Buggify: flip one value of the model, as a broken model
/// reconstruction would. The engine re-evaluates every countermodel
/// against the query as submitted, so the only acceptable outcome is a
/// demotion to `Unknown` with an error — never a wrong `Refuted`.
fn refuted(model: &Model, backmap: &BackMap) -> RawVerdict {
    let mut pm = crate::portable_of_caller_model(model, backmap);
    if !(pm.bvs.is_empty() && pm.bools.is_empty()) && sim::buggify("countermodel-corrupt") {
        match pm.bvs.first_mut() {
            Some((_, v)) => *v ^= 1,
            None => pm.bools[0].1 ^= true,
        }
    }
    RawVerdict::Refuted(pm)
}

/// Discharges a k-goal core on one live solver: the shared assumptions
/// are asserted (and blasted) once, then every goal is negated and
/// answered in submission order with per-goal activation literals (see
/// [`serval_smt::Session`]). Returns one outcome per goal, in order.
///
/// If a goal is interrupted, the remaining goals are reported
/// [`RawVerdict::Interrupted`] without solving: the cancel flag is
/// sticky, so re-asking the dead solver would only burn time.
///
/// With `cert` on, one live `serval-drat` checker consumes each goal's
/// proof-log delta in order: the checker's clause database mirrors the
/// session solver's (modulo clauses it keeps longer), so a goal's
/// `Unsat` is upgraded to `Proved` only if its delta checks out *and*
/// concludes in a clause over the goal's negated activation literal.
/// A single rejected step poisons certification for every later goal
/// (the databases have diverged) — their `Unsat` answers demote to
/// `Unknown` with the sticky error. Each goal's `cert_hash` chains over
/// all deltas so far, fingerprinting the whole prefix its proof rests on.
///
/// Must run on a thread whose term context is disposable (a pool
/// worker): the context is reset first.
pub fn solve_session(
    core: &Core,
    cfg: SolverConfig,
    cancel: Option<Arc<AtomicBool>>,
    cert: bool,
) -> Vec<RawOutcome> {
    reset_ctx();
    let rq = rebuild(core);
    let mut session = Session::new(cfg, cancel);
    // The engine presolves queries caller-side, before forming session
    // cores; presolving the rebuilt core again would be wasted work.
    session.set_presolve(false);
    session.set_proof_logging(cert);
    for &a in &rq.assumptions {
        session.assume(a);
    }
    let neg_goals: Vec<SBool> = rq.goals.iter().map(|&g| !g).collect();
    // Announcing the goal stream up front lets the session *retire*
    // terms after their last use — purging dead goals' gate clauses
    // keeps long sessions' watch lists near the live-cone size.
    session.plan_goals(&neg_goals);
    let mut checker = serval_drat::Checker::new();
    let mut checker_err: Option<String> = None;
    let mut running_hash = serval_drat::hash_steps(&[]);
    let mut out = Vec::with_capacity(neg_goals.len());
    let mut dead = false;
    for &ng in &neg_goals {
        if dead {
            out.push(RawOutcome {
                verdict: RawVerdict::Interrupted,
                stats: QueryStats::default(),
                variant: 0,
                cert_hash: 0,
                cert_error: None,
            });
            continue;
        }
        let so = session.solve_negated(ng);
        let mut stats = so.stats;
        let mut cert_hash = 0u64;
        let mut cert_error: Option<String> = None;
        if let Some(proof) = &so.proof {
            let t0 = Instant::now();
            if checker_err.is_none() {
                for st in &proof.steps {
                    if let Err(e) = checker.apply(st) {
                        checker_err = Some(e.to_string());
                        break;
                    }
                }
            }
            // Every goal drains the conclusion, so a goal that derives
            // nothing cannot inherit its predecessor's.
            let conclusion = checker.take_conclusion();
            running_hash = serval_drat::hash_steps_seeded(running_hash, &proof.steps);
            if matches!(so.result, CheckResult::Unsat) {
                match (&checker_err, proof.act) {
                    (Some(e), _) => cert_error = Some(e.clone()),
                    // Constant-false goal: no derived conclusion needed.
                    (None, None) => cert_hash = running_hash,
                    (None, Some(act)) => match conclusion {
                        Some(conc) if serval_drat::conclusion_covers(&conc, &[act]) => {
                            cert_hash = running_hash;
                        }
                        _ => {
                            cert_error =
                                Some("session goal concluded no clause over !act".to_string());
                        }
                    },
                }
            }
            stats.cert_steps = proof.steps.len() as u64;
            stats.cert_wall = t0.elapsed();
        }
        let verdict = match so.result {
            CheckResult::Unsat if cert_error.is_some() => RawVerdict::Unknown,
            CheckResult::Unsat => RawVerdict::Proved,
            CheckResult::Unknown => RawVerdict::Unknown,
            CheckResult::Interrupted => {
                dead = true;
                RawVerdict::Interrupted
            }
            CheckResult::Sat(model) => refuted(&model, &rq.backmap),
        };
        out.push(RawOutcome { verdict, stats, variant: 0, cert_hash, cert_error });
    }
    out
}

/// The portfolio: the base configuration (Luby restarts) plus two
/// variants diversifying the restart series, rephasing policy, activity
/// decay, and branching phase, so queries that stall one search strategy
/// still finish quickly.
pub fn portfolio_variants(base: SolverConfig) -> Vec<SolverConfig> {
    let geometric_inverting = SolverConfig {
        restart_geometric: true,
        rephase: serval_smt::Rephase::Invert,
        restart_base: 32,
        var_decay: 0.90,
        ..base
    };
    let positive_resetting = SolverConfig {
        default_phase: true,
        rephase: serval_smt::Rephase::Reset,
        var_decay: 0.99,
        ..base
    };
    vec![base, geometric_inverting, positive_resetting]
}

/// Races the portfolio over one query. The first *definitive* finisher
/// (proved/refuted) wins and cancels the rest; an `Unknown` (budget
/// exhausted) is kept as a fallback but does not cancel anyone, so a
/// slower variant can still deliver a proof.
///
/// An external `cancel` is relayed into the race flag for the whole
/// duration of the solve (not just sampled at the start), so a cancel
/// arriving mid-solve interrupts every running variant within a few
/// milliseconds.
///
/// Determinism note: when more than one variant reaches a definitive
/// verdict, which one wins is a timing race. The *verdict kind*
/// (proved vs. refuted) is identical across variants, but for refuted
/// queries the reported counterexample model — and the `variant` stat —
/// can differ run to run. `SERVAL_PORTFOLIO` therefore preserves
/// verdict determinism, not model determinism; see DESIGN.md.
pub fn solve_portfolio(
    core: &Core,
    base: SolverConfig,
    cancel: Option<Arc<AtomicBool>>,
    cert: bool,
) -> RawOutcome {
    let variants = portfolio_variants(base);
    if sim::active() {
        return solve_portfolio_sim(core, &variants, cert);
    }
    let done = Arc::new(AtomicBool::new(false));
    let live = AtomicUsize::new(variants.len());
    let winner: Mutex<Option<RawOutcome>> = Mutex::new(None);
    let fallback: Mutex<Option<RawOutcome>> = Mutex::new(None);
    std::thread::scope(|s| {
        // Relay: copy the parent's cancellation into the shared race
        // flag until the race is over (a winner set `done`, or every
        // variant finished). The solvers poll `done` at restart
        // boundaries, so an external cancel mid-solve stops the whole
        // portfolio, as the public contract promises.
        if let Some(parent) = cancel.clone() {
            let done = Arc::clone(&done);
            let live = &live;
            s.spawn(move || {
                while !done.load(Ordering::Relaxed) && live.load(Ordering::Relaxed) > 0 {
                    if parent.load(Ordering::Relaxed) {
                        done.store(true, Ordering::Relaxed);
                        break;
                    }
                    std::thread::sleep(Duration::from_millis(2));
                }
            });
        }
        for (vi, vcfg) in variants.iter().enumerate() {
            let done = Arc::clone(&done);
            let live = &live;
            let winner = &winner;
            let fallback = &fallback;
            let core = &core;
            let vcfg = *vcfg;
            s.spawn(move || {
                // Certificate checking runs inside solve_one, so a
                // variant only wins the race with a *checked* proof.
                let mut out = solve_one(core, vcfg, Some(Arc::clone(&done)), cert);
                out.variant = vi;
                match out.verdict {
                    RawVerdict::Proved | RawVerdict::Refuted(_) => {
                        let mut w = winner.lock().unwrap();
                        if w.is_none() {
                            *w = Some(out);
                            done.store(true, Ordering::Release);
                        }
                    }
                    RawVerdict::Unknown => {
                        let mut f = fallback.lock().unwrap();
                        if f.is_none() {
                            *f = Some(out);
                        }
                    }
                    RawVerdict::Interrupted => {}
                }
                live.fetch_sub(1, Ordering::Relaxed);
            });
        }
    });
    winner
        .into_inner()
        .unwrap()
        .or_else(|| fallback.into_inner().unwrap())
        .unwrap_or(RawOutcome {
            verdict: RawVerdict::Interrupted,
            stats: QueryStats::default(),
            variant: 0,
            cert_hash: 0,
            cert_error: None,
        })
}

/// The portfolio under simulation: no racing threads (the sim owns all
/// scheduling), so the variants run *sequentially* in a seed-chosen
/// order and the first definitive verdict wins. The contract is the
/// same as the threaded race's — the verdict *kind* is
/// variant-independent — but here the winning variant, its model, and
/// the schedule trace are pure functions of the seed. Buggify can
/// "cancel" a definitive finisher just before it claims the win,
/// exercising the fallback path the real race only hits under
/// contention.
fn solve_portfolio_sim(core: &Core, variants: &[SolverConfig], cert: bool) -> RawOutcome {
    let mut order: Vec<usize> = (0..variants.len()).collect();
    // Seeded Fisher–Yates: the visit order is part of the schedule.
    for i in (1..order.len()).rev() {
        order.swap(i, sim::choose(i + 1));
    }
    let mut fallback: Option<RawOutcome> = None;
    for &vi in &order {
        sim::mark(format!("portfolio-variant-{vi}"));
        let mut out = solve_one(core, variants[vi], None, cert);
        out.variant = vi;
        match out.verdict {
            RawVerdict::Proved | RawVerdict::Refuted(_) => {
                if sim::buggify("portfolio-drop-winner") {
                    // The simulated race lost this finisher (cancelled
                    // before it took the winner lock); another variant
                    // has to carry the query, or it degrades to the
                    // fallback — never to a wrong verdict.
                    continue;
                }
                return out;
            }
            RawVerdict::Unknown => {
                if fallback.is_none() {
                    fallback = Some(out);
                }
            }
            RawVerdict::Interrupted => {}
        }
    }
    fallback.unwrap_or(RawOutcome {
        verdict: RawVerdict::Interrupted,
        stats: QueryStats::default(),
        variant: 0,
        cert_hash: 0,
        cert_error: None,
    })
}
