//! Query normal form: the one portable, validated serialization of a
//! verification query.
//!
//! Terms live in a *thread-local* hash-consed context (`smt::term`), so a
//! `TermId` means nothing on another thread or in another process.
//! [`prepare`] re-serializes the term DAG reachable from a query's roots
//! into a self-contained [`Core`]: nodes in deterministic postorder,
//! symbolic constants renumbered by first encounter, uninterpreted
//! functions likewise, assumption roots deduplicated and canonically
//! ordered, and goal roots (*not* negated) in submission order. The one
//! format serves every consumer:
//!
//! - the bytes of a one-goal core ([`Core::encode`]) are the engine's
//!   **cache key**;
//! - a k-goal core over a shared assumption set is the payload of one
//!   incremental **session** task;
//! - the bytes of a one-goal core are the **wire payload** a client sends
//!   to `servald`, which re-checks them through the validating
//!   [`Core::decode`]. The server's engine re-derives the same bytes as
//!   its cache key, so the wire payload *is* the key.
//!
//! Two queries that differ only in variable creation order, variable
//! names, or assumption order produce identical bytes, while any
//! structural difference changes them.
//!
//! Soundness: the key *is* the full serialization, so key equality
//! implies the queries are alpha-equivalent (same proof obligation). The
//! converse does not quite hold — assumption roots are ordered by a
//! per-root local key, and two distinct roots with identical local keys
//! keep their submission order, so symmetric queries may occasionally
//! miss the cache. A miss is only a wasted solve, never a wrong verdict.

use serval_smt::bv::SBool;
use serval_smt::solver::SolverConfig;
use serval_smt::term::{with_ctx, Op, Sort, Term, TermId, UfId};
use std::collections::HashMap;

/// A verification query: prove `goal` under `assumptions`.
///
/// Build it on the thread that owns the terms, then hand it to
/// [`crate::Engine::submit_batch`].
pub struct Query {
    /// Human-readable label (becomes the theorem name in reports).
    pub label: String,
    /// Assumptions (path conditions, invariants, ...).
    pub assumptions: Vec<SBool>,
    /// The goal to prove.
    pub goal: SBool,
    /// Solver configuration (budget + search parameters).
    pub cfg: SolverConfig,
}

/// One node of the portable term DAG. `children` index into
/// [`Core::nodes`]; `Op::Var`/`Op::UfApply` payloads are *canonical*
/// indices, not thread-local ordinals.
#[derive(Clone, Debug, PartialEq)]
pub struct Node {
    /// The operator (with canonicalized payload for vars and UFs).
    pub op: Op,
    /// Children as indices into the node array (always smaller than the
    /// node's own index: the array is in postorder).
    pub children: Vec<u32>,
    /// The node's sort.
    pub sort: Sort,
}

/// The portable normal form of `assumptions ⊢ goals`: everything a worker
/// thread or a remote server needs to rebuild the query in a fresh term
/// context.
#[derive(Clone, Debug, PartialEq)]
pub struct Core {
    /// Term DAG in deterministic postorder.
    pub nodes: Vec<Node>,
    /// Assumption roots, deduplicated and canonically ordered, as indices
    /// into `nodes`.
    pub asms: Vec<u32>,
    /// Goal roots, un-negated, in submission order.
    pub goals: Vec<u32>,
    /// Sort of each canonical symbolic constant.
    pub var_sorts: Vec<Sort>,
    /// Signature (argument widths, result width) of each canonical UF.
    pub uf_sigs: Vec<(Vec<u32>, u32)>,
}

/// Where a canonical symbolic constant came from in the submitting
/// thread, so counterexample models can be translated back.
#[derive(Clone, Debug)]
pub struct VarOrigin {
    /// The original term id (valid only on the submitting thread).
    pub term: TermId,
    /// Sort of the constant.
    pub sort: Sort,
}

/// Translation table from canonical indices to one thread's term
/// context: the submitting thread's (from [`prepare`]) or the rebuilding
/// thread's (from [`rebuild`]).
#[derive(Clone, Debug, Default)]
pub struct BackMap {
    /// Canonical var index → constant.
    pub vars: Vec<VarOrigin>,
    /// Canonical UF index → UF id.
    pub ufs: Vec<UfId>,
}

/// A query reduced to its normal form plus the caller-side back map.
pub struct Prepared {
    /// The portable core.
    pub core: Core,
    /// Canonical-index → caller-term translation, covering every var and
    /// UF reachable from any root.
    pub backmap: BackMap,
}

/// Postorder-normalization state: one global numbering across every
/// root fed in, with vars and UFs renumbered by first encounter.
#[derive(Default)]
struct Normalizer {
    node_of: HashMap<TermId, u32>,
    nodes: Vec<Node>,
    var_of: HashMap<u32, u32>,
    uf_of: HashMap<u32, u32>,
    backmap: BackMap,
    var_sorts: Vec<Sort>,
    uf_sigs: Vec<(Vec<u32>, u32)>,
}

impl Normalizer {
    /// Serializes the DAG under `root` (skipping already-numbered nodes)
    /// and returns the root's node index.
    fn add_root(&mut self, root: TermId) -> u32 {
        let mut stack = vec![root];
        while let Some(&t) = stack.last() {
            if self.node_of.contains_key(&t) {
                stack.pop();
                continue;
            }
            let (op, children, sort) = fetch(t);
            let pending: Vec<TermId> = children
                .iter()
                .copied()
                .filter(|c| !self.node_of.contains_key(c))
                .collect();
            if !pending.is_empty() {
                stack.extend(pending);
                continue;
            }
            let op = match op {
                Op::Var(ord) => {
                    let k = match self.var_of.get(&ord) {
                        Some(&k) => k,
                        None => {
                            let k = self.var_sorts.len() as u32;
                            self.backmap.vars.push(VarOrigin { term: t, sort });
                            self.var_sorts.push(sort);
                            self.var_of.insert(ord, k);
                            k
                        }
                    };
                    Op::Var(k)
                }
                Op::UfApply(uf) => {
                    let k = match self.uf_of.get(&uf.0) {
                        Some(&k) => k,
                        None => {
                            let k = self.uf_sigs.len() as u32;
                            let (args, result) =
                                with_ctx(|c| (c.uf_sig(uf).args.clone(), c.uf_sig(uf).result));
                            self.backmap.ufs.push(uf);
                            self.uf_sigs.push((args, result));
                            self.uf_of.insert(uf.0, k);
                            k
                        }
                    };
                    Op::UfApply(UfId(k))
                }
                other => other,
            };
            let children: Vec<u32> = children.iter().map(|c| self.node_of[c]).collect();
            self.node_of.insert(t, self.nodes.len() as u32);
            self.nodes.push(Node { op, children, sort });
            stack.pop();
        }
        self.node_of[&root]
    }
}

/// Deduplicates the non-trivial roots in `roots` and orders them by their
/// per-root alpha-invariant key, so submission order cannot influence the
/// normal form.
fn canonical_roots(roots: impl Iterator<Item = SBool>) -> Vec<TermId> {
    let mut uniq: Vec<TermId> = Vec::new();
    for a in roots {
        // Constant-true roots constrain nothing; drop them so queries
        // differing only in vacuous assumptions normalize identically.
        if !a.is_true() && !uniq.contains(&a.0) {
            uniq.push(a.0);
        }
    }
    let mut keyed: Vec<(Vec<u8>, TermId)> =
        uniq.into_iter().map(|r| (local_key(r), r)).collect();
    keyed.sort_by(|a, b| a.0.cmp(&b.0));
    keyed.into_iter().map(|(_, r)| r).collect()
}

/// Extracts the normal form of `assumptions ⊢ goals`: the assumption
/// roots canonically ordered first, then one root per goal in submission
/// order, all over one shared node array so every term is serialized
/// (and later rebuilt) exactly once.
///
/// Must run on the thread that owns the terms.
pub fn prepare(assumptions: &[SBool], goals: &[SBool]) -> Prepared {
    let mut nz = Normalizer::default();
    let asms: Vec<u32> = canonical_roots(assumptions.iter().copied())
        .into_iter()
        .map(|r| nz.add_root(r))
        .collect();
    let goals: Vec<u32> = goals.iter().map(|g| nz.add_root(g.0)).collect();
    Prepared {
        core: Core {
            nodes: nz.nodes,
            asms,
            goals,
            var_sorts: nz.var_sorts,
            uf_sigs: nz.uf_sigs,
        },
        backmap: nz.backmap,
    }
}

/// A [`Core`] rebuilt inside the current thread's term context.
pub struct Rebuilt {
    /// The assumptions, as real terms.
    pub assumptions: Vec<SBool>,
    /// The goals (un-negated), in core order.
    pub goals: Vec<SBool>,
    /// Canonical-index → this-thread translation, so solver models can be
    /// projected back onto the core's numbering.
    pub backmap: BackMap,
}

/// Materializes a core as real terms on the current thread, declaring
/// its canonical UFs and vars along the way.
pub fn rebuild(core: &Core) -> Rebuilt {
    with_ctx(|c| {
        let ufs: Vec<UfId> = core
            .uf_sigs
            .iter()
            .enumerate()
            .map(|(i, (args, result))| c.declare_uf(&format!("uf{i}"), args.clone(), *result))
            .collect();
        let mut vars: Vec<VarOrigin> = Vec::with_capacity(core.var_sorts.len());
        let mut ids: Vec<TermId> = Vec::with_capacity(core.nodes.len());
        for node in &core.nodes {
            let children: Vec<TermId> = node.children.iter().map(|&i| ids[i as usize]).collect();
            let id = match node.op {
                // The k-th var node carries index k (the decoder enforces
                // it), so pushing in node order fills `vars` by index.
                Op::Var(k) => {
                    let term = c.fresh_var(node.sort, &format!("q{k}"));
                    vars.push(VarOrigin { term, sort: node.sort });
                    term
                }
                Op::UfApply(UfId(k)) => c.intern(Term {
                    op: Op::UfApply(ufs[k as usize]),
                    children,
                    sort: node.sort,
                }),
                ref op => c.intern(Term {
                    op: op.clone(),
                    children,
                    sort: node.sort,
                }),
            };
            ids.push(id);
        }
        let roots = |rs: &[u32]| rs.iter().map(|&r| SBool(ids[r as usize])).collect();
        Rebuilt {
            assumptions: roots(&core.asms),
            goals: roots(&core.goals),
            backmap: BackMap { vars, ufs },
        }
    })
}

/// Per-root alpha-invariant key, used only to order assumption roots.
fn local_key(root: TermId) -> Vec<u8> {
    let mut local: HashMap<TermId, u32> = HashMap::new();
    let mut var_of: HashMap<u32, u32> = HashMap::new();
    let mut uf_of: HashMap<u32, u32> = HashMap::new();
    let mut out = Vec::new();
    let mut stack = vec![root];
    while let Some(&t) = stack.last() {
        if local.contains_key(&t) {
            stack.pop();
            continue;
        }
        let (op, children, sort) = fetch(t);
        let pending: Vec<TermId> = children
            .iter()
            .copied()
            .filter(|c| !local.contains_key(c))
            .collect();
        if !pending.is_empty() {
            stack.extend(pending);
            continue;
        }
        let op = match op {
            Op::Var(ord) => {
                let n = var_of.len() as u32;
                Op::Var(*var_of.entry(ord).or_insert(n))
            }
            Op::UfApply(uf) => {
                let n = uf_of.len() as u32;
                Op::UfApply(UfId(*uf_of.entry(uf.0).or_insert(n)))
            }
            other => other,
        };
        let ids: Vec<u32> = children.iter().map(|c| local[c]).collect();
        encode_node(&op, &ids, sort, &mut out);
        local.insert(t, local.len() as u32);
        stack.pop();
    }
    out
}

/// Flattens the top-level `And` structure of `goal` into its conjuncts,
/// in left-to-right order; returns `[goal]` when the goal is not a
/// conjunction. Splitting is the engine-side counterpart of the paper's
/// split-cases: proving every conjunct under the same assumptions proves
/// the conjunction, and a countermodel of any conjunct (which satisfies
/// the assumptions) refutes it, so the engine can discharge conjuncts as
/// independent parallel queries and recombine the verdicts.
///
/// `cap` bounds the number of conjuncts: once reached, remaining
/// subtrees are kept whole instead of being descended into.
///
/// Must run on the thread that owns the terms.
pub fn split_goal(goal: SBool, cap: usize) -> Vec<SBool> {
    let mut out: Vec<SBool> = Vec::new();
    let mut stack = vec![goal.0];
    while let Some(t) = stack.pop() {
        let (op, children, _) = fetch(t);
        if matches!(op, Op::And) && out.len() + stack.len() + children.len() <= cap {
            // Reversed push keeps the conjuncts in left-to-right order.
            for &ch in children.iter().rev() {
                stack.push(ch);
            }
        } else {
            out.push(SBool(t));
        }
    }
    out
}

/// Encoding version tag. Bump when the layout or the operator tags
/// change: the on-disk cache tier stores these bytes as keys.
const MAGIC: &[u8; 4] = b"SQ2\0";

impl Core {
    /// Whether the query is proved without solving: some assumption root
    /// is the constant `false`, or some goal root is the constant `true`
    /// (for a one-goal core, the `check` fast path).
    pub fn trivially_unsat(&self) -> bool {
        let is = |r: &u32, b: bool| self.nodes[*r as usize].op == Op::BoolConst(b);
        self.asms.iter().any(|r| is(r, false)) || self.goals.iter().any(|r| is(r, true))
    }

    /// The core's bytes. Layout (all integers little-endian): magic, var
    /// sorts, UF signatures, nodes, assumption roots, goal roots —
    /// declarations before nodes so [`Core::decode`] validates in one
    /// pass. The solver configuration is deliberately *not* part of the
    /// bytes: only definitive verdicts are cached, and those are
    /// independent of search parameters.
    pub fn encode(&self) -> Vec<u8> {
        let mut out = Vec::new();
        out.extend_from_slice(MAGIC);
        push_u32(&mut out, self.var_sorts.len() as u32);
        for &s in &self.var_sorts {
            encode_sort(s, &mut out);
        }
        push_u32(&mut out, self.uf_sigs.len() as u32);
        for (args, result) in &self.uf_sigs {
            push_u32(&mut out, args.len() as u32);
            for &a in args {
                push_u32(&mut out, a);
            }
            push_u32(&mut out, *result);
        }
        push_u32(&mut out, self.nodes.len() as u32);
        for n in &self.nodes {
            encode_node(&n.op, &n.children, n.sort, &mut out);
        }
        for roots in [&self.asms, &self.goals] {
            push_u32(&mut out, roots.len() as u32);
            for &r in roots {
                push_u32(&mut out, r);
            }
        }
        out
    }

    /// Decodes and fully validates a core from untrusted bytes.
    ///
    /// Success means the core satisfies every invariant [`rebuild`]
    /// assumes: postorder child indices, canonical var nodes (the k-th
    /// `Var` node carries index k, and every declared var has its node),
    /// in-range UF references, consistent sorts, builder-legal arities
    /// and widths, Bool roots. On any violation the *whole* core is
    /// rejected — no partial decode.
    pub fn decode(bytes: &[u8]) -> Result<Core, &'static str> {
        if bytes.len() < 4 || &bytes[..4] != MAGIC {
            return Err("bad core magic");
        }
        let mut rd = Rd { b: bytes, at: 4 };
        let n_vars = rd.count(1)?;
        let mut var_sorts = Vec::with_capacity(n_vars);
        for _ in 0..n_vars {
            var_sorts.push(rd.sort()?);
        }
        let n_ufs = rd.count(8)?;
        let mut uf_sigs = Vec::with_capacity(n_ufs);
        for _ in 0..n_ufs {
            let n_args = rd.count(4)?;
            let mut args = Vec::with_capacity(n_args);
            for _ in 0..n_args {
                let w = rd.u32()?;
                if !(1..=128).contains(&w) {
                    return Err("UF argument width out of range");
                }
                args.push(w);
            }
            let result = rd.u32()?;
            if !(1..=128).contains(&result) {
                return Err("UF result width out of range");
            }
            uf_sigs.push((args, result));
        }
        let n_nodes = rd.count(6)?;
        let mut nodes: Vec<Node> = Vec::with_capacity(n_nodes);
        let mut sorts: Vec<Sort> = Vec::with_capacity(n_nodes);
        let mut var_nodes = 0usize;
        for idx in 0..n_nodes {
            let op = match rd.u8()? {
                0 => match rd.u8()? {
                    0 => Op::BoolConst(false),
                    1 => Op::BoolConst(true),
                    _ => return Err("bool constant payload invalid"),
                },
                1 => Op::BvConst(rd.u128()?),
                2 => Op::Var(rd.u32()?),
                3 => Op::Not,
                4 => Op::And,
                5 => Op::Or,
                6 => Op::Xor,
                7 => Op::Iff,
                8 => Op::IteBool,
                9 => Op::Eq,
                10 => Op::Ult,
                11 => Op::Ule,
                12 => Op::Slt,
                13 => Op::Sle,
                14 => Op::BvNot,
                15 => Op::BvNeg,
                16 => Op::BvAnd,
                17 => Op::BvOr,
                18 => Op::BvXor,
                19 => Op::BvAdd,
                20 => Op::BvSub,
                21 => Op::BvMul,
                22 => Op::BvUdiv,
                23 => Op::BvUrem,
                24 => Op::BvShl,
                25 => Op::BvLshr,
                26 => Op::BvAshr,
                27 => Op::Concat,
                28 => {
                    let hi = rd.u32()?;
                    let lo = rd.u32()?;
                    Op::Extract(hi, lo)
                }
                29 => Op::ZeroExt,
                30 => Op::SignExt,
                31 => Op::IteBv,
                32 => Op::UfApply(UfId(rd.u32()?)),
                _ => return Err("unknown operator tag"),
            };
            let sort = rd.sort()?;
            let n_children = rd.count(4)?;
            let mut children = Vec::with_capacity(n_children);
            for _ in 0..n_children {
                let c = rd.u32()?;
                if c as usize >= idx {
                    return Err("child index breaks postorder");
                }
                children.push(c);
            }
            check_node(&op, &children, sort, &sorts, &var_sorts, &uf_sigs)?;
            if let Op::Var(k) = op {
                // One node per var, numbered by first encounter: a second
                // node for the same var would rebuild as a distinct constant.
                if k as usize != var_nodes {
                    return Err("var node out of canonical order");
                }
                var_nodes += 1;
            }
            sorts.push(sort);
            nodes.push(Node { op, children, sort });
        }
        if var_nodes != var_sorts.len() {
            return Err("declared var has no node");
        }
        let mut roots = || -> Result<Vec<u32>, &'static str> {
            let n = rd.count(4)?;
            let mut out = Vec::with_capacity(n);
            for _ in 0..n {
                let r = rd.u32()?;
                if sorts.get(r as usize) != Some(&Sort::Bool) {
                    return Err("root must be an in-range Bool node");
                }
                out.push(r);
            }
            Ok(out)
        };
        let asms = roots()?;
        let goals = roots()?;
        if rd.at != bytes.len() {
            return Err("trailing garbage after core");
        }
        Ok(Core { nodes, asms, goals, var_sorts, uf_sigs })
    }
}

/// Little-endian cursor over untrusted bytes. Every read is
/// bounds-checked; element counts are validated against the remaining
/// byte budget before any allocation, so a hostile length field cannot
/// force an oversized reservation.
struct Rd<'a> {
    b: &'a [u8],
    at: usize,
}

impl<'a> Rd<'a> {
    fn u8(&mut self) -> Result<u8, &'static str> {
        let v = *self.b.get(self.at).ok_or("truncated")?;
        self.at += 1;
        Ok(v)
    }
    fn u32(&mut self) -> Result<u32, &'static str> {
        let s = self.b.get(self.at..self.at + 4).ok_or("truncated")?;
        self.at += 4;
        Ok(u32::from_le_bytes(s.try_into().unwrap()))
    }
    fn u128(&mut self) -> Result<u128, &'static str> {
        let s = self.b.get(self.at..self.at + 16).ok_or("truncated")?;
        self.at += 16;
        Ok(u128::from_le_bytes(s.try_into().unwrap()))
    }
    /// Reads a count whose elements occupy at least `min_elem` bytes
    /// each, rejecting counts the remaining buffer cannot possibly hold.
    fn count(&mut self, min_elem: usize) -> Result<usize, &'static str> {
        let n = self.u32()? as usize;
        if n.saturating_mul(min_elem) > self.b.len() - self.at {
            return Err("count overruns buffer");
        }
        Ok(n)
    }
    fn sort(&mut self) -> Result<Sort, &'static str> {
        match self.u8()? {
            0 => Ok(Sort::Bool),
            1 => {
                let w = self.u32()?;
                if !(1..=128).contains(&w) {
                    return Err("bitvector width out of range");
                }
                Ok(Sort::BitVec(w))
            }
            _ => Err("unknown sort tag"),
        }
    }
}

fn bv_width(s: Sort) -> Result<u32, &'static str> {
    match s {
        Sort::BitVec(w) => Ok(w),
        Sort::Bool => Err("expected bitvector sort"),
    }
}

/// Checks one decoded node against the invariants the term builders
/// establish: arity, child sorts, and result sort per operator.
fn check_node(
    op: &Op,
    children: &[u32],
    sort: Sort,
    sorts: &[Sort],
    var_sorts: &[Sort],
    uf_sigs: &[(Vec<u32>, u32)],
) -> Result<(), &'static str> {
    let child = |i: usize| -> Sort { sorts[children[i] as usize] };
    let arity = |n: usize| -> Result<(), &'static str> {
        if children.len() == n {
            Ok(())
        } else {
            Err("operator arity mismatch")
        }
    };
    match op {
        Op::BoolConst(_) => {
            arity(0)?;
            if sort != Sort::Bool {
                return Err("bool constant must have Bool sort");
            }
        }
        Op::BvConst(v) => {
            arity(0)?;
            let w = bv_width(sort)?;
            if w < 128 && *v >> w != 0 {
                return Err("bitvector constant exceeds its width");
            }
        }
        Op::Var(k) => {
            arity(0)?;
            let vs = var_sorts.get(*k as usize).ok_or("var index out of range")?;
            if *vs != sort {
                return Err("var sort mismatch");
            }
        }
        Op::Not => {
            arity(1)?;
            if sort != Sort::Bool || child(0) != Sort::Bool {
                return Err("Not must be Bool over Bool");
            }
        }
        Op::And | Op::Or => {
            if children.len() < 2 {
                return Err("And/Or needs at least two children");
            }
            if sort != Sort::Bool || (0..children.len()).any(|i| child(i) != Sort::Bool) {
                return Err("And/Or must be Bool over Bools");
            }
        }
        Op::Xor | Op::Iff => {
            arity(2)?;
            if sort != Sort::Bool || child(0) != Sort::Bool || child(1) != Sort::Bool {
                return Err("Xor/Iff must be Bool over Bools");
            }
        }
        Op::IteBool => {
            arity(3)?;
            if sort != Sort::Bool
                || child(0) != Sort::Bool
                || child(1) != Sort::Bool
                || child(2) != Sort::Bool
            {
                return Err("IteBool must be Bool over Bools");
            }
        }
        Op::Eq | Op::Ult | Op::Ule | Op::Slt | Op::Sle => {
            arity(2)?;
            let w0 = bv_width(child(0))?;
            let w1 = bv_width(child(1))?;
            if sort != Sort::Bool || w0 != w1 {
                return Err("predicate needs same-width bitvector children");
            }
        }
        Op::BvNot | Op::BvNeg => {
            arity(1)?;
            if bv_width(sort)? != bv_width(child(0))? {
                return Err("unary bitvector op width mismatch");
            }
        }
        Op::BvAnd
        | Op::BvOr
        | Op::BvXor
        | Op::BvAdd
        | Op::BvSub
        | Op::BvMul
        | Op::BvUdiv
        | Op::BvUrem
        | Op::BvShl
        | Op::BvLshr
        | Op::BvAshr => {
            arity(2)?;
            let w = bv_width(sort)?;
            if bv_width(child(0))? != w || bv_width(child(1))? != w {
                return Err("binary bitvector op width mismatch");
            }
        }
        Op::Concat => {
            arity(2)?;
            let w = bv_width(child(0))?
                .checked_add(bv_width(child(1))?)
                .ok_or("concat width overflow")?;
            if w > 128 || bv_width(sort)? != w {
                return Err("concat width mismatch");
            }
        }
        Op::Extract(hi, lo) => {
            arity(1)?;
            let w = bv_width(child(0))?;
            if lo > hi || *hi >= w || bv_width(sort)? != hi - lo + 1 {
                return Err("extract range invalid");
            }
        }
        Op::ZeroExt | Op::SignExt => {
            arity(1)?;
            if bv_width(sort)? < bv_width(child(0))? {
                return Err("extension narrows its operand");
            }
        }
        Op::IteBv => {
            arity(3)?;
            let w = bv_width(sort)?;
            if child(0) != Sort::Bool || bv_width(child(1))? != w || bv_width(child(2))? != w {
                return Err("IteBv must be Bool-guarded same-width bitvectors");
            }
        }
        Op::UfApply(UfId(k)) => {
            let (args, result) =
                uf_sigs.get(*k as usize).ok_or("UF index out of range")?;
            if children.len() != args.len() {
                return Err("UF arity mismatch");
            }
            for (i, &aw) in args.iter().enumerate() {
                if bv_width(child(i))? != aw {
                    return Err("UF argument width mismatch");
                }
            }
            if bv_width(sort)? != *result {
                return Err("UF result width mismatch");
            }
        }
    }
    Ok(())
}

fn fetch(t: TermId) -> (Op, Vec<TermId>, Sort) {
    with_ctx(|c| {
        let n = c.term(t);
        (n.op.clone(), n.children.clone(), n.sort)
    })
}

fn push_u32(out: &mut Vec<u8>, v: u32) {
    out.extend_from_slice(&v.to_le_bytes());
}

fn push_u128(out: &mut Vec<u8>, v: u128) {
    out.extend_from_slice(&v.to_le_bytes());
}

/// Stable operator tags. Appending new operators is fine; renumbering
/// existing ones invalidates on-disk caches (bump [`MAGIC`]).
fn encode_node(op: &Op, children: &[u32], sort: Sort, out: &mut Vec<u8>) {
    match op {
        Op::BoolConst(b) => {
            out.push(0);
            out.push(*b as u8);
        }
        Op::BvConst(v) => {
            out.push(1);
            push_u128(out, *v);
        }
        Op::Var(k) => {
            out.push(2);
            push_u32(out, *k);
        }
        Op::Not => out.push(3),
        Op::And => out.push(4),
        Op::Or => out.push(5),
        Op::Xor => out.push(6),
        Op::Iff => out.push(7),
        Op::IteBool => out.push(8),
        Op::Eq => out.push(9),
        Op::Ult => out.push(10),
        Op::Ule => out.push(11),
        Op::Slt => out.push(12),
        Op::Sle => out.push(13),
        Op::BvNot => out.push(14),
        Op::BvNeg => out.push(15),
        Op::BvAnd => out.push(16),
        Op::BvOr => out.push(17),
        Op::BvXor => out.push(18),
        Op::BvAdd => out.push(19),
        Op::BvSub => out.push(20),
        Op::BvMul => out.push(21),
        Op::BvUdiv => out.push(22),
        Op::BvUrem => out.push(23),
        Op::BvShl => out.push(24),
        Op::BvLshr => out.push(25),
        Op::BvAshr => out.push(26),
        Op::Concat => out.push(27),
        Op::Extract(hi, lo) => {
            out.push(28);
            push_u32(out, *hi);
            push_u32(out, *lo);
        }
        Op::ZeroExt => out.push(29),
        Op::SignExt => out.push(30),
        Op::IteBv => out.push(31),
        Op::UfApply(UfId(k)) => {
            out.push(32);
            push_u32(out, *k);
        }
    }
    encode_sort(sort, out);
    push_u32(out, children.len() as u32);
    for &c in children {
        push_u32(out, c);
    }
}

fn encode_sort(s: Sort, out: &mut Vec<u8>) {
    match s {
        Sort::Bool => out.push(0),
        Sort::BitVec(w) => {
            out.push(1);
            push_u32(out, w);
        }
    }
}
