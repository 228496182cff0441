//! Engine tests: canonicalization, pool determinism and poisoning,
//! cache behavior, and end-to-end agreement with direct `smt::verify`.

use crate::form::{prepare, split_goal, Query};
use crate::pool::Pool;
use crate::{DischargeMode, Engine, EngineCfg};
use serval_check::prelude::*;
use serval_smt::solver::{SolverConfig, VerifyResult};
use serval_smt::{reset_ctx, verify, SBool, BV};

fn local_engine(jobs: usize) -> Engine {
    Engine::new(EngineCfg {
        jobs,
        portfolio: false,
        disk_cache: None,
        split: true,
        mode: DischargeMode::Session,
        presolve: true,
        cert: true,
    })
}

/// Like [`local_engine`] but with incremental sessions off: one fresh
/// solver per sub-query, the pre-session behavior.
fn local_engine_fresh(jobs: usize) -> Engine {
    Engine::new(EngineCfg {
        jobs,
        portfolio: false,
        disk_cache: None,
        split: true,
        mode: DischargeMode::Fresh,
        presolve: true,
        cert: true,
    })
}

/// Like [`local_engine`] but with adaptive discharge: the engine picks
/// session vs fresh per assumption group from the predicted-reuse score.
fn local_engine_auto(jobs: usize) -> Engine {
    Engine::new(EngineCfg {
        jobs,
        portfolio: false,
        disk_cache: None,
        split: true,
        mode: DischargeMode::Auto,
        presolve: true,
        cert: true,
    })
}

fn q(label: &str, assumptions: Vec<SBool>, goal: SBool) -> Query {
    Query {
        label: label.to_string(),
        assumptions,
        goal,
        cfg: SolverConfig::default(),
    }
}

/// The cache key of `assumptions ⊢ goal`: its one-goal core's bytes.
fn key(assumptions: &[SBool], goal: SBool) -> Vec<u8> {
    prepare(assumptions, &[goal]).core.encode()
}

// -----------------------------------------------------------------
// Canonicalization
// -----------------------------------------------------------------

#[test]
fn alpha_renamed_queries_share_a_key() {
    // Same query built twice with different variable creation order and
    // different names must produce the same cache key.
    reset_ctx();
    let x = BV::fresh(32, "x");
    let y = BV::fresh(32, "y");
    let k1 = key(&[x.ult(y)], (x + y).eq_((y + x) & BV::lit(32, u128::MAX)));

    reset_ctx();
    let _decoy = BV::fresh(8, "decoy"); // shifts all ordinals
    let b = BV::fresh(32, "banana");
    let a = BV::fresh(32, "apple");
    let k2 = key(&[a.ult(b)], (a + b).eq_((b + a) & BV::lit(32, u128::MAX)));
    assert_eq!(k1, k2);
}

#[test]
fn assumption_order_does_not_change_the_key() {
    reset_ctx();
    let x = BV::fresh(16, "x");
    let y = BV::fresh(16, "y");
    let z = BV::fresh(16, "z");
    // Structurally distinct assumptions in both orders.
    let a1 = x.ult(y);
    let a2 = y.ule(z);
    let goal = x.ult(z);
    let k_fwd = key(&[a1, a2], goal);
    let k_rev = key(&[a2, a1], goal);
    assert_eq!(k_fwd, k_rev);
}

#[test]
fn duplicate_and_trivial_assumptions_normalize_away() {
    reset_ctx();
    let x = BV::fresh(16, "x");
    let y = BV::fresh(16, "y");
    let goal = (x + y).eq_(y + x);
    let plain = key(&[x.ult(y)], goal);
    let noisy = key(&[x.ult(y), SBool::lit(true), x.ult(y)], goal);
    assert_eq!(plain, noisy);
}

#[test]
fn distinct_queries_get_distinct_keys() {
    // A directed corpus of semantically different queries: all keys
    // must be pairwise distinct.
    reset_ctx();
    let x = BV::fresh(32, "x");
    let y = BV::fresh(32, "y");
    // Note: the term builder folds commutative identities like
    // `(x+y) == (y+x)` to `true` at construction, so the corpus sticks
    // to goals that survive as real structure.
    let queries: Vec<(Vec<SBool>, SBool)> = vec![
        (vec![], (x - y).eq_(y - x)),
        (vec![], (x & y).ule(x)),
        (vec![], (x | y).ule(x)),
        (vec![x.ult(y)], (x - y).eq_(y - x)),
        (vec![y.ult(x)], (x - y).eq_(y - x)),
        (vec![], (x + x).eq_(x.shl(BV::lit(32, 1)))),
        (vec![], x.eq_(y)),
        (vec![], x.ule(y)),
    ];
    let keys: Vec<Vec<u8>> = queries
        .iter()
        .map(|(a, g)| key(a, *g))
        .collect();
    for i in 0..keys.len() {
        for j in (i + 1)..keys.len() {
            assert_ne!(keys[i], keys[j], "queries {i} and {j} collided");
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// Random expression shapes, instantiated twice with shuffled
    /// variable creation order, alpha-renamed names, and reversed
    /// assumption order, always produce identical cache keys.
    #[test]
    fn prop_alpha_invariance_of_cache_keys(
        c0 in any::<u8>(),
        c1 in any::<u8>(),
        pick in any::<u8>(),
    ) {
        let build = |swap_vars: bool, tag: &str| -> Vec<u8> {
            reset_ctx();
            let (x, y) = if swap_vars {
                let y = BV::fresh(32, &format!("{tag}_y"));
                let x = BV::fresh(32, &format!("{tag}_x"));
                (x, y)
            } else {
                let x = BV::fresh(32, "x");
                let y = BV::fresh(32, "y");
                (x, y)
            };
            // Each assumption embeds a distinct constant so local keys
            // never tie (symmetric ties may legitimately change keys).
            let mut assumptions = vec![
                x.ult(y + BV::lit(32, 1 + c0 as u128)),
                (y ^ BV::lit(32, 258 + c1 as u128)).ule(x),
            ];
            if swap_vars {
                assumptions.reverse();
            }
            let goal = match pick % 4 {
                0 => (x + y).eq_(y + x),
                1 => (x & y).ule(x | y),
                2 => ((x | y) - (x & y)).eq_(x ^ y),
                _ => (x ^ y).eq_((x | y) & !(x & y)),
            };
            key(&assumptions, goal)
        };
        let k1 = build(false, "a");
        let k2 = build(true, "b");
        prop_assert_eq!(k1, k2);
    }
}

// -----------------------------------------------------------------
// Thread pool
// -----------------------------------------------------------------

#[test]
fn pool_returns_results_in_submission_order() {
    // Same batch, different worker counts: byte-identical result order.
    let batch = |jobs: usize| -> Vec<Result<u64, String>> {
        let pool = Pool::new(jobs);
        let tasks: Vec<Box<dyn FnOnce() -> u64 + Send>> = (0..64u64)
            .map(|i| {
                Box::new(move || {
                    // Uneven work so completion order scrambles.
                    let mut acc = i;
                    for _ in 0..(i % 7) * 1000 {
                        acc = acc.wrapping_mul(6364136223846793005).wrapping_add(1);
                    }
                    acc ^ (acc >> 33)
                }) as Box<dyn FnOnce() -> u64 + Send>
            })
            .collect();
        pool.run_batch(tasks)
    };
    let one = batch(1);
    let four = batch(4);
    let eight = batch(8);
    assert_eq!(one, four);
    assert_eq!(one, eight);
}

#[test]
fn poisoned_worker_fails_alone() {
    let pool = Pool::new(3);
    let tasks: Vec<Box<dyn FnOnce() -> usize + Send>> = (0..20usize)
        .map(|i| {
            Box::new(move || {
                if i == 7 {
                    panic!("query {i} is poisoned");
                }
                i * 10
            }) as Box<dyn FnOnce() -> usize + Send>
        })
        .collect();
    let results = pool.run_batch(tasks);
    for (i, r) in results.iter().enumerate() {
        if i == 7 {
            let msg = r.as_ref().unwrap_err();
            assert!(msg.contains("poisoned"), "got: {msg}");
        } else {
            assert_eq!(*r.as_ref().unwrap(), i * 10);
        }
    }
    // The pool survives and takes new work.
    let again = pool.run_batch(vec![
        Box::new(|| 1usize) as Box<dyn FnOnce() -> usize + Send>
    ]);
    assert_eq!(*again[0].as_ref().unwrap(), 1);
}

// -----------------------------------------------------------------
// Engine end-to-end
// -----------------------------------------------------------------

#[test]
fn engine_agrees_with_direct_verify() {
    reset_ctx();
    let x = BV::fresh(32, "x");
    let y = BV::fresh(32, "y");
    let proved_goal = (x + y).eq_(y + x);
    let refuted_goal = (x - y).eq_(y - x);
    assert!(verify(&[], proved_goal).is_proved());
    assert!(!verify(&[], refuted_goal).is_proved());

    let engine = local_engine(2);
    let outcomes = engine.submit_batch(vec![
        q("commutes", vec![], proved_goal),
        q("anticommutes", vec![], refuted_goal),
    ]);
    assert!(matches!(outcomes[0].result, VerifyResult::Proved));
    let VerifyResult::Counterexample(model) = &outcomes[1].result else {
        panic!("expected a counterexample, got {:?}", outcomes[1].result);
    };
    // The rehydrated model must be a real counterexample over the
    // *caller's* terms.
    assert!(!model.eval_bool(refuted_goal.0), "model must refute the goal");
    assert!(outcomes[1].stats.is_some());
    assert!(outcomes[1].stats.unwrap().vars > 0);
}

#[test]
fn engine_verdicts_identical_across_worker_counts() {
    let run = |jobs: usize| -> Vec<bool> {
        reset_ctx();
        let x = BV::fresh(16, "x");
        let y = BV::fresh(16, "y");
        let engine = local_engine(jobs);
        let queries = vec![
            q("p1", vec![], (x + y).eq_(y + x)),
            q("r1", vec![], x.eq_(y)),
            q("p2", vec![x.ult(y)], x.ule(y)),
            q("r2", vec![x.ule(y)], x.ult(y)),
            q("p3", vec![], (x ^ y).eq_((x | y) & !(x & y))),
        ];
        engine
            .submit_batch(queries)
            .into_iter()
            .map(|o| o.result.is_proved())
            .collect()
    };
    let expected = vec![true, false, true, false, true];
    assert_eq!(run(1), expected);
    assert_eq!(run(4), expected);
}

#[test]
fn warm_cache_hits_with_unchanged_verdicts() {
    reset_ctx();
    let x = BV::fresh(32, "x");
    let y = BV::fresh(32, "y");
    let engine = local_engine(2);
    let make = || {
        vec![
            q("p", vec![], ((x & y) + (x | y)).eq_(x + y)),
            q("r", vec![], x.ule(y)),
        ]
    };
    let cold = engine.submit_batch(make());
    assert!(cold.iter().all(|o| !o.cache_hit));
    let warm = engine.submit_batch(make());
    assert!(warm.iter().all(|o| o.cache_hit), "second run must hit");
    for (c, w) in cold.iter().zip(&warm) {
        assert_eq!(c.result.is_proved(), w.result.is_proved());
    }
    let (hits, misses) = engine.cache_stats();
    assert_eq!(hits, 2);
    assert_eq!(misses, 2);
    // The cached counterexample still refutes the caller's goal.
    let VerifyResult::Counterexample(m) = &warm[1].result else {
        panic!("expected counterexample");
    };
    assert!(!m.eval_bool(x.ule(y).0));
}

#[test]
fn disk_cache_survives_engine_restarts() {
    reset_ctx();
    let dir = std::env::temp_dir().join(format!(
        "serval-engine-test-{}-{:?}",
        std::process::id(),
        std::thread::current().id()
    ));
    let _ = std::fs::remove_dir_all(&dir);
    let x = BV::fresh(32, "x");
    let y = BV::fresh(32, "y");
    let mk_engine = || {
        Engine::new(EngineCfg {
            jobs: 2,
            portfolio: false,
            disk_cache: Some(dir.clone()),
            split: true,
            mode: DischargeMode::Session,
            presolve: true,
            cert: true,
        })
    };
    let first = mk_engine();
    let o = first.submit(q("p", vec![], (x & y).ule(x)));
    assert!(matches!(o.result, VerifyResult::Proved));
    assert!(!o.cache_hit);
    drop(first);

    let second = mk_engine();
    let o2 = second.submit(q("p", vec![], (x & y).ule(x)));
    assert!(matches!(o2.result, VerifyResult::Proved));
    assert!(o2.cache_hit, "proved key must be preloaded from disk");
    let _ = std::fs::remove_dir_all(&dir);
}

/// Unique scratch dir for a disk-cache test.
fn scratch_dir(tag: &str) -> std::path::PathBuf {
    let dir = std::env::temp_dir().join(format!(
        "serval-engine-test-{tag}-{}-{:?}",
        std::process::id(),
        std::thread::current().id()
    ));
    let _ = std::fs::remove_dir_all(&dir);
    dir
}

/// The unique segment file currently holding a record (older segments
/// are truncated back to their bare header by corruption recovery).
fn record_segment(dir: &std::path::Path) -> std::path::PathBuf {
    let mut candidates: Vec<std::path::PathBuf> = std::fs::read_dir(dir)
        .expect("cache dir exists")
        .flatten()
        .filter(|e| {
            let n = e.file_name();
            let n = n.to_string_lossy().to_string();
            n.starts_with("seg-")
                && n.ends_with(".bin")
                && e.metadata().map(|m| m.len() > 8).unwrap_or(false)
        })
        .map(|e| e.path())
        .collect();
    assert_eq!(candidates.len(), 1, "exactly one segment holds the record");
    candidates.pop().unwrap()
}

#[test]
fn corrupted_disk_cache_is_a_miss_not_a_panic() {
    reset_ctx();
    let dir = scratch_dir("corrupt");
    let x = BV::fresh(32, "x");
    let y = BV::fresh(32, "y");
    let mk_engine = || {
        Engine::new(EngineCfg {
            jobs: 1,
            portfolio: false,
            disk_cache: Some(dir.clone()),
            split: true,
            mode: DischargeMode::Session,
            presolve: true,
            cert: true,
        })
    };
    let goal = (x & y).ule(x);
    let o = mk_engine().submit(q("p", vec![], goal));
    assert!(matches!(o.result, VerifyResult::Proved));
    let path = record_segment(&dir);
    let pristine = std::fs::read(&path).expect("proved key persisted");
    assert!(pristine.len() > 8, "file must hold magic + a record");

    // Truncated record (crash mid-append): load must drop it and the
    // query must re-solve to the same verdict — never panic.
    std::fs::write(&path, &pristine[..pristine.len() - 3]).unwrap();
    let engine = mk_engine();
    let o = engine.submit(q("p", vec![], goal));
    assert!(matches!(o.result, VerifyResult::Proved));
    assert!(!o.cache_hit, "truncated record must be a miss");
    drop(engine); // its re-solve appended the record to a fresh segment

    // Bit-flipped record body: the checksum catches it, same outcome.
    let path = record_segment(&dir);
    let mut flipped = std::fs::read(&path).unwrap();
    let mid = 8 + (flipped.len() - 8) / 2;
    flipped[mid] ^= 0x40;
    std::fs::write(&path, &flipped).unwrap();
    let o = mk_engine().submit(q("p", vec![], goal));
    assert!(matches!(o.result, VerifyResult::Proved));
    assert!(!o.cache_hit, "bit-flipped record must be a miss");

    // Garbage header: not our file — deleted and rebuilt from scratch.
    let path = record_segment(&dir);
    std::fs::write(&path, b"not a serval cache file").unwrap();
    let o = mk_engine().submit(q("p", vec![], goal));
    assert!(matches!(o.result, VerifyResult::Proved));
    assert!(!o.cache_hit);
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn poisoned_cache_lock_fails_alone() {
    // A query that panics while holding the cache's memory-tier lock
    // must not take every later query down with it: the map is intact
    // (at worst missing one insert), so the lock is recovered, not
    // propagated. Before the fix, the `.unwrap()` on the poisoned lock
    // panicked *every* subsequent lookup on *every* worker.
    reset_ctx();
    let engine = local_engine(2);
    let x = BV::fresh(16, "x");
    let y = BV::fresh(16, "y");
    let o = engine.submit(q("warm", vec![], (x & y).ule(x)));
    assert!(matches!(o.result, VerifyResult::Proved));

    engine.cache().poison_mem_for_test();

    // Warm hit through the poisoned lock.
    let o = engine.submit(q("warm", vec![], (x & y).ule(x)));
    assert!(matches!(o.result, VerifyResult::Proved));
    assert!(o.cache_hit, "warm hit must survive a poisoned lock");
    // Fresh solve + insert through the poisoned lock.
    let cold = ((x & y) + (x | y)).eq_(x + y);
    let o = engine.submit(q("cold", vec![], cold));
    assert!(matches!(o.result, VerifyResult::Proved));
    let o = engine.submit(q("cold-again", vec![], cold));
    assert!(o.cache_hit, "insert must land despite the poisoned lock");
}

#[test]
fn uncertified_disk_records_are_ignored_by_certified_engines() {
    reset_ctx();
    let dir = scratch_dir("uncert");
    let x = BV::fresh(32, "x");
    let y = BV::fresh(32, "y");
    let mk_engine = |cert: bool| {
        Engine::new(EngineCfg {
            jobs: 1,
            portfolio: false,
            disk_cache: Some(dir.clone()),
            split: true,
            mode: DischargeMode::Session,
            presolve: true,
            cert,
        })
    };
    let goal = ((x & y) + (x | y)).eq_(x + y);
    let o = mk_engine(false).submit(q("p", vec![], goal));
    assert!(matches!(o.result, VerifyResult::Proved));
    assert!(o.cert.is_none(), "uncertified run carries no fingerprint");

    // A certified engine must not launder the unchecked record into a
    // certified verdict: the warm "hit" is dropped on load, the query
    // re-solves, and the outcome now carries a certificate.
    let o = mk_engine(true).submit(q("p", vec![], goal));
    assert!(matches!(o.result, VerifyResult::Proved));
    assert!(!o.cache_hit, "uncertified record must not hit a certified engine");
    assert!(o.cert.is_some(), "re-solve must produce a certificate");

    // And the certified re-append is visible to the next certified run.
    let o = mk_engine(true).submit(q("p", vec![], goal));
    assert!(o.cache_hit);
    assert!(o.cert.is_some());
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn poisoned_refuted_entry_is_evicted_and_resolved() {
    use crate::cache::CachedVerdict;
    use crate::form::prepare;
    use crate::solve::PortableModel;

    reset_ctx();
    let x = BV::fresh(16, "x");
    let y = BV::fresh(16, "y");
    // Presolve off so the key computed here matches the engine's (the
    // engine keys on the presolved form).
    let engine = local_engine_raw(1, true);
    // Provable goal; poison its cache slot with a bogus "countermodel".
    let goal = (x & y).ule(x);
    let prepared = prepare(&[], &[goal]);
    let mut bogus = PortableModel::default();
    for (i, _) in prepared.backmap.vars.iter().enumerate() {
        bogus.bvs.push((i as u32, 7));
    }
    engine
        .cache
        .insert(prepared.core.encode(), CachedVerdict::Refuted(bogus));
    // The hit revalidates the stored model against the term semantics,
    // finds it does not refute the goal, evicts, and re-solves.
    let o = engine.submit(q("p", vec![], goal));
    assert!(
        matches!(o.result, VerifyResult::Proved),
        "poisoned Refuted entry must not surface, got {:?}",
        o.result
    );
    assert!(!o.cache_hit, "the eviction reclassifies the hit as a miss");
    assert!(o.cert.is_some(), "the re-solve is certified");
    // The poisoned entry is gone: the slot now holds the proved verdict.
    let o = engine.submit(q("p", vec![], goal));
    assert!(o.cache_hit);
    assert!(matches!(o.result, VerifyResult::Proved));
}

#[test]
fn genuine_refuted_entries_survive_revalidation() {
    reset_ctx();
    let x = BV::fresh(16, "x");
    let y = BV::fresh(16, "y");
    let engine = local_engine(1);
    let goal = x.ule(y);
    let cold = engine.submit(q("r", vec![], goal));
    assert!(matches!(cold.result, VerifyResult::Counterexample(_)));
    // The genuine countermodel passes revalidation and hits.
    let warm = engine.submit(q("r", vec![], goal));
    assert!(warm.cache_hit, "a valid Refuted entry must still hit");
    let VerifyResult::Counterexample(m) = &warm.result else {
        panic!("expected counterexample, got {:?}", warm.result);
    };
    assert!(!m.eval_bool(goal.0));
}

#[test]
fn corrupted_countermodel_is_demoted_to_unknown() {
    reset_ctx();
    let x = BV::fresh(16, "x");
    let y = BV::fresh(16, "y");
    let asm = x.uge(BV::lit(16, 3));
    let goal = x.ule(y);
    let mut out = local_engine(1).submit(q("r", vec![asm], goal));
    // A genuine countermodel passes the check untouched.
    crate::check_refutation(&mut out, &[asm], goal);
    let VerifyResult::Counterexample(m) = &mut out.result else {
        panic!("expected counterexample, got {:?}", out.result);
    };
    assert!(out.error.is_none());
    // x = 0 breaks the assumption and satisfies the goal: no longer a
    // refutation, so the verdict must not leave as `Refuted`.
    m.set_bv(x.0, 0);
    crate::check_refutation(&mut out, &[asm], goal);
    assert!(matches!(out.result, VerifyResult::Unknown), "got {:?}", out.result);
    assert!(out.error.is_some());
}

#[test]
fn poisoned_refuted_entry_without_certificates_is_not_refuted() {
    use crate::cache::CachedVerdict;
    use crate::solve::PortableModel;

    reset_ctx();
    let x = BV::fresh(16, "x");
    let y = BV::fresh(16, "y");
    // Certificates off: a `Refuted` hit is revalidated all the same, so
    // the poisoned entry is evicted and the query re-solved, and later
    // hits serve the proved verdict.
    let engine = cert_matrix_engine(true, true, false, false);
    let goal = (x & y).ule(x);
    let prepared = prepare(&[], &[goal]);
    let mut bogus = PortableModel::default();
    for (i, _) in prepared.backmap.vars.iter().enumerate() {
        bogus.bvs.push((i as u32, 7));
    }
    engine.cache.insert(prepared.core.encode(), CachedVerdict::Refuted(bogus));
    let o = engine.submit(q("p", vec![], goal));
    assert!(!o.cache_hit, "the eviction reclassifies the hit as a miss");
    assert!(matches!(o.result, VerifyResult::Proved), "got {:?}", o.result);
    let o = engine.submit(q("p", vec![], goal));
    assert!(o.cache_hit, "the re-solve replaced the poisoned entry");
    assert!(matches!(o.result, VerifyResult::Proved), "got {:?}", o.result);
}

// -----------------------------------------------------------------
// Proof certificates
// -----------------------------------------------------------------

/// Engine over the full cfg matrix axis used by the cert tests.
fn cert_matrix_engine(incremental: bool, split: bool, presolve: bool, cert: bool) -> Engine {
    Engine::new(EngineCfg {
        jobs: 2,
        portfolio: false,
        disk_cache: None,
        split,
        mode: if incremental { DischargeMode::Session } else { DischargeMode::Fresh },
        presolve,
        cert,
    })
}

#[test]
fn proved_outcomes_carry_certificates() {
    reset_ctx();
    let x = BV::fresh(16, "x");
    let y = BV::fresh(16, "y");
    let engine = local_engine(2);
    // Presolve-resistant identities, so the proofs come from real solves.
    let unit = ((x & y) + (x | y)).eq_(x + y);
    let conj = unit & (x ^ y).eq_((x | y) & !(x & y));
    assert!(split_goal(conj, 512).len() >= 2);
    let out = engine.submit_batch(vec![
        q("unit", vec![], unit),
        q("conj", vec![], conj),
        q("refuted", vec![], x.eq_(y)),
    ]);
    assert!(matches!(out[0].result, VerifyResult::Proved));
    assert!(out[0].cert.is_some(), "unit proof must carry a certificate");
    assert!(matches!(out[1].result, VerifyResult::Proved));
    assert!(out[1].cert.is_some(), "split proof must carry a combined certificate");
    assert!(out[2].cert.is_none(), "refuted outcomes carry none");
    let (checked, rejected) = engine.cert_counts();
    assert!(checked > 0, "certificates must actually have been checked");
    assert_eq!(rejected, 0);
    // Checker work is visible in the stats.
    let s = out[0].stats.expect("solved query has stats");
    assert!(s.cert_steps > 0, "proof log must be non-empty");
}

#[test]
fn cert_on_and_off_verdicts_agree_across_the_matrix() {
    reset_ctx();
    let x = BV::fresh(16, "x");
    let y = BV::fresh(16, "y");
    let asms = vec![x.ult(BV::lit(16, 1000)), y.uge(BV::lit(16, 4))];
    let queries = || {
        vec![
            q("p-unit", asms.clone(), (x & y).ule(x)),
            q("r-unit", asms.clone(), x.ult(y)),
            q(
                "p-conj",
                asms.clone(),
                (x & y).ule(x) & x.ult(BV::lit(16, 1001)) & y.uge(BV::lit(16, 3)),
            ),
            q("r-conj", asms.clone(), (x | y).uge(x) & x.eq_(y)),
            q("p-alone", vec![y.ult(BV::lit(16, 9))], y.ule(BV::lit(16, 8))),
            q("p-trivial", vec![x.ult(BV::lit(16, 0))], x.eq_(y)),
        ]
    };
    for incremental in [false, true] {
        for split in [false, true] {
            for presolve in [false, true] {
                let on = cert_matrix_engine(incremental, split, presolve, true)
                    .submit_batch(queries());
                let off = cert_matrix_engine(incremental, split, presolve, false)
                    .submit_batch(queries());
                for (a, b) in on.iter().zip(&off) {
                    assert_eq!(
                        a.result.is_proved(),
                        b.result.is_proved(),
                        "cert on/off verdict mismatch on {} (incremental={incremental}, \
                         split={split}, presolve={presolve})",
                        a.label
                    );
                    assert!(
                        a.error.is_none(),
                        "certified {} unexpectedly errored: {:?}",
                        a.label,
                        a.error
                    );
                    if a.result.is_proved() {
                        assert!(a.cert.is_some(), "{} lacks a certificate", a.label);
                        assert!(b.cert.is_none(), "{} certified with cert off", b.label);
                    }
                }
            }
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(12))]

    /// Random query batches across the full discharge-mode matrix
    /// (session/fresh × split/unsplit × presolve on/off): certification
    /// must be invisible in verdicts — `SERVAL_CERT=1` and `=0` agree on
    /// every outcome — and every certified `Proved` must actually carry
    /// a checker-accepted certificate.
    #[test]
    fn prop_cert_on_off_verdicts_agree(
        c0 in any::<u8>(),
        c1 in any::<u8>(),
        picks in prop::collection::vec(any::<u8>(), 1..4),
    ) {
        reset_ctx();
        let x = BV::fresh(16, "x");
        let y = BV::fresh(16, "y");
        let asms = vec![
            x.ult(BV::lit(16, 1 + c0 as u128)),
            y.uge(BV::lit(16, (c1 % 16) as u128)),
        ];
        let menu = |p: u8| -> SBool {
            match p % 6 {
                0 => ((x & y) + (x | y)).eq_(x + y),
                1 => x.ult(y),
                2 => (x ^ y).eq_((x | y) & !(x & y)),
                3 => x.eq_(y),
                4 => (x & y).ule(x) & x.ule(x | y),
                _ => (x + y).uge(x),
            }
        };
        let queries = || -> Vec<Query> {
            picks
                .iter()
                .enumerate()
                .map(|(i, &p)| q(&format!("q{i}"), asms.clone(), menu(p)))
                .collect()
        };
        for incremental in [false, true] {
            for split in [false, true] {
                for presolve in [false, true] {
                    let on = cert_matrix_engine(incremental, split, presolve, true)
                        .submit_batch(queries());
                    let off = cert_matrix_engine(incremental, split, presolve, false)
                        .submit_batch(queries());
                    for (a, b) in on.iter().zip(&off) {
                        prop_assert_eq!(
                            a.result.is_proved(),
                            b.result.is_proved(),
                            "cert on/off mismatch on {} (incremental={}, split={}, presolve={})",
                            &a.label, incremental, split, presolve
                        );
                        prop_assert!(a.error.is_none());
                        if a.result.is_proved() {
                            prop_assert!(a.cert.is_some());
                        }
                    }
                }
            }
        }
    }
}

#[test]
fn portfolio_agrees_with_single_config() {
    reset_ctx();
    let x = BV::fresh(24, "x");
    let y = BV::fresh(24, "y");
    let single = local_engine(2);
    let racing = Engine::new(EngineCfg {
        jobs: 2,
        portfolio: true,
        disk_cache: None,
        split: true,
        mode: DischargeMode::Session,
        presolve: true,
        cert: true,
    });
    let make = || {
        vec![
            q("p", vec![], ((x & y) + (x | y)).eq_(x + y)),
            q("r", vec![], (x * y).eq_(x + y)),
        ]
    };
    let a = single.submit_batch(make());
    let b = racing.submit_batch(make());
    for (sa, sb) in a.iter().zip(&b) {
        assert_eq!(sa.result.is_proved(), sb.result.is_proved());
    }
    assert!(b[0].variant < 3);
}

#[test]
fn portfolio_external_cancel_interrupts_mid_solve() {
    use crate::solve::{solve_portfolio, RawVerdict};
    use std::sync::atomic::{AtomicBool, Ordering};
    use std::sync::Arc;
    use std::time::Duration;

    reset_ctx();
    let x = BV::fresh(16, "x");
    let y = BV::fresh(16, "y");
    let z = BV::fresh(16, "z");
    // 16-bit multiplicative distributivity is multiplier equivalence
    // checking: far too hard for the CDCL solver to finish within the
    // cancellation window (empirically >200k conflicts / >40s), so any
    // verdict other than Interrupted means the external cancel never
    // reached the running variants. (Commutativity identities cannot be
    // used here: the term builder folds them to `true` at construction.)
    let prepared = prepare(&[], &[(x * (y + z)).eq_(x * y + x * z)]);
    let cancel = Arc::new(AtomicBool::new(false));
    let killer = {
        let cancel = Arc::clone(&cancel);
        std::thread::spawn(move || {
            std::thread::sleep(Duration::from_millis(30));
            cancel.store(true, Ordering::Relaxed);
        })
    };
    let out = solve_portfolio(&prepared.core, SolverConfig::default(), Some(cancel), false);
    killer.join().unwrap();
    assert!(
        matches!(out.verdict, RawVerdict::Interrupted),
        "mid-solve cancel must interrupt the portfolio, got {:?}",
        out.verdict
    );
}

#[test]
fn poisoned_query_surfaces_as_error_not_crash() {
    // A query over a dangling TermId panics on the worker during
    // preparation... preparation happens caller-side, so instead poison
    // via the pool path: an engine query cannot easily be made to
    // panic, which is exactly the point — the pool-level test above
    // covers the panic path. Here we just check the error field stays
    // empty on healthy queries.
    reset_ctx();
    let x = BV::fresh(8, "x");
    let engine = local_engine(1);
    let o = engine.submit(q("healthy", vec![], x.eq_(x)));
    assert!(o.error.is_none());
    assert!(matches!(o.result, VerifyResult::Proved));
}

// -----------------------------------------------------------------
// Goal splitting
// -----------------------------------------------------------------

fn local_engine_unsplit(jobs: usize) -> Engine {
    Engine::new(EngineCfg {
        jobs,
        portfolio: false,
        disk_cache: None,
        split: false,
        mode: DischargeMode::Session,
        presolve: true,
        cert: true,
    })
}

#[test]
fn split_goal_flattens_nested_conjunctions() {
    reset_ctx();
    let a = SBool::fresh("a");
    let b = SBool::fresh("b");
    let c = SBool::fresh("c");
    let goal = (a & b) & c;
    assert_eq!(split_goal(goal, 512).len(), 3);
    // A goal that is not a conjunction stays whole.
    assert_eq!(split_goal(a, 512).len(), 1);
    // The cap stops expansion entirely when even the first level would
    // exceed it.
    assert_eq!(split_goal(goal, 1).len(), 1);
}

#[test]
fn split_and_unsplit_verdicts_agree() {
    reset_ctx();
    let x = BV::fresh(16, "x");
    let y = BV::fresh(16, "y");
    let proved = (x & y).ule(x) & (x | y).uge(x);
    let refuted = (x & y).ule(x) & x.ult(y);
    // Guard: the builder must not have folded these to non-conjunctions,
    // or the test would not exercise the split path at all.
    assert!(split_goal(proved, 512).len() >= 2);
    assert!(split_goal(refuted, 512).len() >= 2);
    for engine in [local_engine(2), local_engine_unsplit(2)] {
        let out = engine.submit_batch(vec![
            q("conj-proved", vec![], proved),
            q("conj-refuted", vec![], refuted),
        ]);
        assert!(matches!(out[0].result, VerifyResult::Proved));
        let VerifyResult::Counterexample(m) = &out[1].result else {
            panic!("expected counterexample, got {:?}", out[1].result);
        };
        // The model from the refuted conjunct must refute the *whole*
        // conjunction over the caller's terms.
        assert!(!m.eval_bool(refuted.0), "model must refute the conjunction");
    }
}

// -----------------------------------------------------------------
// Incremental discharge sessions
// -----------------------------------------------------------------

#[test]
fn incremental_and_fresh_engines_agree() {
    reset_ctx();
    let x = BV::fresh(16, "x");
    let y = BV::fresh(16, "y");
    let asms = vec![x.ult(BV::lit(16, 1000)), y.uge(BV::lit(16, 4))];
    let queries = || {
        vec![
            q("p-shared-1", asms.clone(), (x & y).ule(x)),
            q("r-shared", asms.clone(), x.ult(y)),
            q("p-shared-2", asms.clone(), x.ule(x | y)),
            q("p-alone", vec![y.ult(BV::lit(16, 9))], y.ule(BV::lit(16, 8))),
            q(
                "conj-shared",
                asms.clone(),
                (x & y).ule(x) & x.ult(BV::lit(16, 1001)) & y.uge(BV::lit(16, 3)),
            ),
            q("r-conj", asms.clone(), (x | y).uge(x) & x.eq_(y)),
        ]
    };
    let inc = local_engine(2).submit_batch(queries());
    let fresh = local_engine_fresh(2).submit_batch(queries());
    for (a, b) in inc.iter().zip(&fresh) {
        assert_eq!(
            a.result.is_proved(),
            b.result.is_proved(),
            "verdict mismatch on {}",
            a.label
        );
    }
    // Session countermodels must be real counterexamples over the
    // *caller's* terms: they refute the goal while satisfying every
    // shared assumption.
    let VerifyResult::Counterexample(m) = &inc[1].result else {
        panic!("expected counterexample, got {:?}", inc[1].result);
    };
    assert!(!m.eval_bool(x.ult(y).0), "model must refute the goal");
    for a in &asms {
        assert!(m.eval_bool(a.0), "model must satisfy the assumptions");
    }
}

#[test]
fn adaptive_mode_is_deterministic_and_splits_by_reuse() {
    reset_ctx();
    let x = BV::fresh(16, "x");
    let y = BV::fresh(16, "y");
    let z = BV::fresh(16, "z");
    // Rich group: a fat shared base (the assumption cone dominates the
    // group's whole encoding) amortized over three small goals, so the
    // predicted-reuse score `(3 - 1) × base/total` clears the auto
    // threshold and the group is sessioned.
    let rich_asms = vec![
        ((x * y) + (y * z)).ult((x | y | z) * BV::lit(16, 3)),
        ((x ^ y) & (y ^ z)).ule(x + y + z),
        x.ult(BV::lit(16, 500)),
    ];
    // Thin group: a single goal scores 0 and always goes fresh.
    let queries = || {
        vec![
            q("rich-1", rich_asms.clone(), x.ule(x | y)),
            q("rich-2", rich_asms.clone(), (x & y).ule(x)),
            q("rich-3", rich_asms.clone(), x.ult(y)),
            q("thin", vec![], z.ule(z | BV::lit(16, 1))),
        ]
    };
    let auto_a = local_engine_auto(2);
    let auto_b = local_engine_auto(2);
    let out_a = auto_a.submit_batch(queries());
    let out_b = auto_b.submit_batch(queries());
    // Same batch ⇒ same mode choices: the score is a pure function of
    // the batch's terms, independent of scheduling.
    assert_eq!(auto_a.mode_counts(), auto_b.mode_counts());
    let (sessions, fresh) = auto_a.mode_counts();
    assert_eq!(
        (sessions, fresh),
        (1, 1),
        "auto must session the rich group and fresh-solve the thin one"
    );
    // A pure Session engine counts every group as a session; verdicts
    // must nonetheless agree query-for-query with the adaptive runs.
    let session_engine = local_engine(2);
    let out_s = session_engine.submit_batch(queries());
    assert_eq!(session_engine.mode_counts(), (2, 0));
    for ((a, b), s) in out_a.iter().zip(&out_b).zip(&out_s) {
        assert_eq!(
            a.result.is_proved(),
            b.result.is_proved(),
            "auto runs disagree on {}",
            a.label
        );
        assert_eq!(
            a.result.is_proved(),
            s.result.is_proved(),
            "auto and session disagree on {}",
            a.label
        );
    }
    // The rich group's counterexample (x < y is refutable) must still be
    // a real countermodel over the caller's terms.
    let VerifyResult::Counterexample(m) = &out_a[2].result else {
        panic!("expected counterexample, got {:?}", out_a[2].result);
    };
    assert!(!m.eval_bool(x.ult(y).0), "model must refute the goal");
    for a in &rich_asms {
        assert!(m.eval_bool(a.0), "model must satisfy the assumptions");
    }
}

#[test]
fn session_countermodel_translation_handles_index_skew() {
    reset_ctx();
    let x = BV::fresh(16, "x");
    let y = BV::fresh(16, "y");
    let z = BV::fresh(16, "z");
    let asms = vec![x.ult(BV::lit(16, 50))];
    // The first goal drags `y` into the session's canonical numbering
    // before `z`; the second goal's own normal form contains only x and
    // z, so its canonical indices differ from the session's — exactly
    // the skew `rekey` has to fix.
    let g1 = (x + y).uge(x); // refuted by wraparound (large y)
    let g2 = x.ult(z); // refuted by z <= x
    let out = local_engine(1).submit_batch(vec![
        q("g1", asms.clone(), g1),
        q("g2", asms.clone(), g2),
    ]);
    let VerifyResult::Counterexample(m) = &out[1].result else {
        panic!("expected counterexample, got {:?}", out[1].result);
    };
    assert!(!m.eval_bool(g2.0), "translated model must refute g2");
    assert!(m.eval_bool(asms[0].0), "translated model must satisfy the base");
    // Both goals shared one session (same assumption set): the second
    // goal must report its position and carry reused encoding.
    let s2 = out[1].stats.expect("solved sub-query has stats");
    assert_eq!(s2.session_goals, 2, "g2 must be the session's second goal");
    assert!(s2.reused_vars > 0, "g2 must reuse the base encoding");
}

#[test]
fn incremental_warm_rerun_hits_cache() {
    reset_ctx();
    let x = BV::fresh(16, "x");
    let y = BV::fresh(16, "y");
    let asms = vec![x.ult(y)];
    let goal = (x & y).ule(x) & x.ule(y);
    assert!(split_goal(goal, 512).len() >= 2);
    let engine = local_engine(2);
    let cold = engine.submit_batch(vec![q("conj", asms.clone(), goal)]);
    assert!(matches!(cold[0].result, VerifyResult::Proved));
    assert!(!cold[0].cache_hit);
    // Each proved sub-query inserted its own key, so the rerun resolves
    // from the cache without building a session at all.
    let warm = engine.submit_batch(vec![q("conj", asms.clone(), goal)]);
    assert!(warm[0].cache_hit, "rerun must hit the cache");
    assert!(matches!(warm[0].result, VerifyResult::Proved));
    let (hits, _) = engine.cache_stats();
    assert!(hits > 0);
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    /// Random batches of queries over random shared assumption sets:
    /// the incremental engine and the fresh-per-query engine must agree
    /// on every verdict, and every incremental countermodel must refute
    /// its goal while satisfying the shared assumptions.
    #[test]
    fn prop_incremental_matches_fresh_engine(
        c0 in any::<u8>(),
        c1 in any::<u8>(),
        picks in prop::collection::vec(any::<u8>(), 1..5),
    ) {
        reset_ctx();
        let x = BV::fresh(16, "x");
        let y = BV::fresh(16, "y");
        // Always-satisfiable assumption set with random constants.
        let asms = vec![
            x.ult(BV::lit(16, 1 + c0 as u128)),
            y.uge(BV::lit(16, (c1 % 16) as u128)),
        ];
        let menu = |p: u8| -> SBool {
            match p % 6 {
                0 => (x & y).ule(x),
                1 => x.ult(y),
                2 => (x | y).uge(y),
                3 => x.eq_(y),
                4 => (x ^ y).eq_((x | y) & !(x & y)),
                _ => (x + y).uge(x),
            }
        };
        let queries = || -> Vec<Query> {
            picks
                .iter()
                .enumerate()
                .map(|(i, &p)| q(&format!("q{i}"), asms.clone(), menu(p)))
                .collect()
        };
        let inc = local_engine(2).submit_batch(queries());
        let fresh = local_engine_fresh(2).submit_batch(queries());
        for ((a, b), &p) in inc.iter().zip(&fresh).zip(&picks) {
            prop_assert_eq!(a.result.is_proved(), b.result.is_proved());
            if let VerifyResult::Counterexample(m) = &a.result {
                prop_assert!(!m.eval_bool(menu(p).0));
                for asm in &asms {
                    prop_assert!(m.eval_bool(asm.0));
                }
            }
        }
    }
}

#[test]
fn split_conjunction_caches_whole_goal() {
    reset_ctx();
    let x = BV::fresh(16, "x");
    let y = BV::fresh(16, "y");
    let goal = (x & y).ule(x) & (x | y).uge(x);
    let engine = local_engine(2);
    let cold = engine.submit_batch(vec![q("conj", vec![], goal)]);
    assert!(matches!(cold[0].result, VerifyResult::Proved));
    assert!(!cold[0].cache_hit);
    // All conjuncts proved → the whole-goal key is inserted, so a rerun
    // is a single cache hit rather than a re-split.
    let warm = engine.submit_batch(vec![q("conj", vec![], goal)]);
    assert!(warm[0].cache_hit, "whole conjunction must hit on rerun");
    assert!(matches!(warm[0].result, VerifyResult::Proved));
}

// -----------------------------------------------------------------
// Word-level presolve
// -----------------------------------------------------------------

/// Engine with presolve disabled, in either discharge mode.
fn local_engine_raw(jobs: usize, incremental: bool) -> Engine {
    Engine::new(EngineCfg {
        jobs,
        portfolio: false,
        disk_cache: None,
        split: true,
        mode: if incremental { DischargeMode::Session } else { DischargeMode::Fresh },
        presolve: false,
        cert: true,
    })
}

#[test]
fn presolve_terminates_on_substitution_cycles() {
    reset_ctx();
    let x = BV::fresh(16, "x");
    let y = BV::fresh(16, "y");
    let one = BV::lit(16, 1);
    // `x = y + 1` and `y = x + 1` form a substitution cycle; chasing it
    // naively never terminates. The set is contradictory mod 2^16
    // (subtracting gives 1 = -1), so any goal proves vacuously.
    let asms = vec![x.eq_(y + one), y.eq_(x + one)];
    let out = local_engine(1).submit_batch(vec![q("cycle", asms, x.ult(y))]);
    assert!(matches!(out[0].result, VerifyResult::Proved));

    // A benign cycle: `x = y` and `y = x`. The goal restates one of the
    // assumptions, so it must prove — and presolve must not loop while
    // orienting the equalities.
    reset_ctx();
    let x = BV::fresh(16, "x");
    let y = BV::fresh(16, "y");
    let asms = vec![x.eq_(y), y.eq_(x)];
    let out = local_engine(1).submit_batch(vec![q("benign", asms, x.eq_(y))]);
    assert!(matches!(out[0].result, VerifyResult::Proved));
}

#[test]
fn coi_keeps_uf_linked_assumptions() {
    reset_ctx();
    // The goal needs the assumption through a *function application*,
    // not a shared variable: cone-of-influence reduction must treat two
    // applications of the same UF as connected.
    let f = serval_smt::with_ctx(|c| c.declare_uf("f", vec![8], 8));
    let f0 = BV(serval_smt::build::uf_apply(f, &[BV::lit(8, 0).0]));
    let asms = vec![f0.eq_(BV::lit(8, 5))];
    let goal = f0.ult(BV::lit(8, 6));
    // Fresh mode exercises cone_split (sessions keep every root).
    let out = local_engine_fresh(1).submit_batch(vec![q("uf", asms, goal)]);
    assert!(
        matches!(out[0].result, VerifyResult::Proved),
        "f(0) = 5 must stay in the cone of f(0) < 6, got {:?}",
        out[0].result
    );
}

#[test]
fn dropped_contradictory_partition_flips_refuted() {
    reset_ctx();
    let x = BV::fresh(16, "x");
    let w = BV::fresh(16, "w");
    // `w = w + 1` is unsatisfiable but shares no variables with the
    // goal, so cone-of-influence reduction drops it. The raw query is
    // vacuously proved; the reduced query alone would refute. The
    // engine's dropped-partition side-solve must restore the verdict.
    let asms = vec![x.ult(BV::lit(16, 10)), w.eq_(w + BV::lit(16, 1))];
    let goal = x.ult(BV::lit(16, 5));
    let out = local_engine_fresh(1).submit_batch(vec![q("vacuous", asms.clone(), goal)]);
    assert!(
        matches!(out[0].result, VerifyResult::Proved),
        "contradictory dropped partition must flip Refuted to Proved, got {:?}",
        out[0].result
    );
    // Sanity: without the contradiction the same goal really refutes.
    let out = local_engine_fresh(1).submit_batch(vec![q(
        "refutes",
        vec![asms[0]],
        goal,
    )]);
    assert!(matches!(out[0].result, VerifyResult::Counterexample(_)));
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    /// Presolve must be invisible in verdicts: for random batches over
    /// random assumption sets, the presolving engine and the raw engine
    /// agree on every outcome in both discharge modes, and every
    /// countermodel from the presolving engine evaluates correctly over
    /// the *original* (unsimplified) terms.
    #[test]
    fn prop_presolve_matches_raw(
        c0 in any::<u8>(),
        c1 in any::<u8>(),
        picks in prop::collection::vec(any::<u8>(), 1..5),
    ) {
        reset_ctx();
        let x = BV::fresh(16, "x");
        let y = BV::fresh(16, "y");
        let z = BV::fresh(16, "z");
        let asms = vec![
            x.ult(BV::lit(16, 1 + c0 as u128)),
            y.eq_(x + BV::lit(16, (c1 % 16) as u128)),
        ];
        let menu = |p: u8| -> SBool {
            match p % 6 {
                0 => (x & y).ule(x),
                1 => x.ult(y),
                2 => y.uge(x),
                3 => x.eq_(z),
                4 => (x ^ y).eq_((x | y) & !(x & y)),
                _ => z.ult(BV::lit(16, 3)),
            }
        };
        let queries = || -> Vec<Query> {
            picks
                .iter()
                .enumerate()
                .map(|(i, &p)| q(&format!("q{i}"), asms.clone(), menu(p)))
                .collect()
        };
        for incremental in [false, true] {
            let on = if incremental {
                local_engine(2).submit_batch(queries())
            } else {
                local_engine_fresh(2).submit_batch(queries())
            };
            let raw = local_engine_raw(2, incremental).submit_batch(queries());
            for ((a, b), &p) in on.iter().zip(&raw).zip(&picks) {
                prop_assert_eq!(
                    a.result.is_proved(),
                    b.result.is_proved(),
                    "incremental={} goal {}",
                    incremental,
                    p % 6
                );
                if let VerifyResult::Counterexample(m) = &a.result {
                    prop_assert!(!m.eval_bool(menu(p).0));
                    for asm in &asms {
                        prop_assert!(m.eval_bool(asm.0));
                    }
                }
            }
        }
    }
}
