//! A/B diagnostic for incremental-session performance: runs the
//! CertiKOS^s `-O1` split refinement twice (fresh solvers, then live
//! sessions) on one worker and prints solver totals plus the slowest
//! theorems with their per-goal stats and session position. Interleave
//! several invocations when comparing wall times — single runs on a
//! shared host are dominated by machine noise. The tracked benchmark
//! is `perfbench` (see `perfbench/README.md`); this binary adds the
//! per-theorem timings its traces do not record.

use serval_core::OptCfg;
use serval_engine::{DischargeMode, EngineCfg};
use serval_ir::OptLevel;
use serval_monitors::certikos;
use serval_smt::solver::SolverConfig;
use std::time::Instant;

fn main() {
    for incremental in [false, true] {
        serval_engine::install(EngineCfg {
            jobs: 1,
            portfolio: false,
            disk_cache: None,
            split: true,
            mode: if incremental { DischargeMode::Session } else { DischargeMode::Fresh },
            presolve: serval_smt::presolve::env_enabled(),
            cert: EngineCfg::from_env().cert,
        });
        let t0 = Instant::now();
        let report = certikos::proofs::prove_refinement(
            OptLevel::O1,
            OptCfg::default(),
            SolverConfig::default(),
        );
        let secs = t0.elapsed().as_secs_f64();
        let t = report.solver_totals();
        println!(
            "incremental={incremental}: {secs:.2}s conflicts={} decisions={} props={} restarts={} learnts={} vars={} clauses={} reused_clauses={} session={} elim={} res={}",
            t.conflicts,
            t.decisions,
            t.propagations,
            t.restarts,
            t.learnts,
            t.vars,
            t.clauses,
            t.reused_clauses,
            t.session_goals,
            t.eliminated_vars,
            t.resolvents
        );
        let mut rows: Vec<_> = report
            .theorems
            .iter()
            .filter(|th| th.stats.is_some())
            .map(|th| {
                let s = th.stats.as_ref().unwrap();
                (
                    th.name.clone(),
                    s.session_goals,
                    s.wall.as_secs_f64(),
                    s.conflicts,
                    s.propagations,
                )
            })
            .collect();
        rows.sort_by(|a, b| b.2.total_cmp(&a.2));
        let solve_total: f64 = rows.iter().map(|r| r.2).sum();
        println!("  total in-solver wall {solve_total:.2}s; slowest theorems:");
        for (name, pos, wall, confl, props) in rows.iter().take(8) {
            println!(
                "    pos={pos:>3} wall={wall:>7.3}s conflicts={confl} props={props} {name}"
            );
        }
    }
}
