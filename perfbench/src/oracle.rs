//! Known answers for every cell, and the check of a cell's verdicts
//! against them.
//!
//! The answers are facts about the verified code, not about the solver:
//! the fixed monitors and the fixed JITs prove everywhere, and each
//! seeded JIT bug is refuted at exactly the instruction forms it breaks
//! (for an immediate-form group, the first failing immediate of
//! `serval_jit::checker::K_VALUES`). The `service` workload is checked
//! against the same table theorem by theorem, so its verdicts match the
//! in-process verdicts for the same proofs whenever both pass.

use serval_bpf::{AluOp, Insn, Src};
use serval_jit::{RvBug, X86Bug};

/// One theorem's outcome, as the oracle sees it.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Outcome {
    /// Proved valid.
    Proved,
    /// Refuted with a countermodel.
    Refuted,
    /// `Unknown`, `Interrupted`, or an error: no verdict.
    Failed,
}

/// What a cell must answer: how many theorems it reports, and which of
/// them are refuted (every other one proves).
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct Expect {
    /// Theorems (or report rows) the cell reports.
    pub theorems: usize,
    /// The theorems that must be refuted.
    pub refuted: Vec<String>,
}

impl Expect {
    /// `n` theorems, all proved.
    pub fn all_proved(n: usize) -> Expect {
        Expect {
            theorems: n,
            refuted: Vec::new(),
        }
    }
}

/// A cell's verdict tally.
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct Tally {
    /// Theorems the cell attempted.
    pub attempted: u64,
    /// Theorems without a verdict (`Outcome::Failed`).
    pub failed: u64,
    /// Verdicts that differ from the known answer, plus expected
    /// refutations the cell never reported.
    pub wrong: u64,
    /// Name of the first wrong theorem, for the error message.
    pub first_wrong: Option<String>,
}

impl Tally {
    /// Adds another tally into this one.
    pub fn add(&mut self, other: &Tally) {
        self.attempted += other.attempted;
        self.failed += other.failed;
        self.wrong += other.wrong;
        if self.first_wrong.is_none() {
            self.first_wrong = other.first_wrong.clone();
        }
    }
}

/// Checks one cell's `(theorem, outcome)` list against its known answer.
/// A theorem missing from the list, or one more than expected, counts as
/// a wrong verdict, as does an expected refutation that never appears.
pub fn check(expect: &Expect, theorems: &[(String, Outcome)]) -> Tally {
    let mut tally = Tally {
        attempted: theorems.len() as u64,
        ..Tally::default()
    };
    for (name, outcome) in theorems {
        match (outcome, expect.refuted.contains(name)) {
            (Outcome::Failed, _) => tally.failed += 1,
            (Outcome::Proved, false) | (Outcome::Refuted, true) => {}
            _ => note_wrong(&mut tally, name),
        }
    }
    let mut unreported = 0;
    for name in &expect.refuted {
        if !theorems.iter().any(|(n, _)| n == name) {
            note_wrong(&mut tally, name);
            unreported += 1;
        }
    }
    // Missing theorems beyond the unreported refutations counted above,
    // or surplus ones.
    let (got, want) = (theorems.len(), expect.theorems);
    let off = if got < want {
        (want - got).saturating_sub(unreported)
    } else {
        got - want
    };
    let what = format!("{got} theorems reported, {want} expected");
    for _ in 0..off {
        note_wrong(&mut tally, &what);
    }
    tally
}

fn note_wrong(tally: &mut Tally, name: &str) {
    tally.wrong += 1;
    if tally.first_wrong.is_none() {
        tally.first_wrong = Some(name.to_string());
    }
}

/// A JIT under test: fixed, or with one seeded historical bug.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Jit {
    /// The fixed RISC-V (rv64) JIT.
    Rv64,
    /// The fixed x86-32 JIT.
    X86,
    /// The rv64 JIT with one bug.
    Rv64Bug(RvBug),
    /// The x86-32 JIT with one bug.
    X86Bug(X86Bug),
}

fn alu(is32: bool, op: AluOp, src: Src, imm: i32) -> String {
    let (dst, srcr) = (1, 2);
    let insn = if is32 {
        Insn::Alu32 {
            op,
            src,
            dst,
            srcr,
            imm,
        }
    } else {
        Insn::Alu64 {
            op,
            src,
            dst,
            srcr,
            imm,
        }
    };
    format!("{insn:?}")
}

/// Report rows of one rv64 sweep, fixed or with a bug: one per
/// register-form check and one per immediate-form group.
pub const RV64_ROWS: usize = 52;

/// Report rows of one x86-32 sweep, fixed or with a bug.
pub const X86_ROWS: usize = 40;

/// The known answer for one JIT sweep.
pub fn jit_expect(jit: Jit) -> Expect {
    match jit {
        Jit::Rv64 => Expect::all_proved(RV64_ROWS),
        Jit::X86 => Expect::all_proved(X86_ROWS),
        Jit::Rv64Bug(bug) => {
            // Each 32-bit bug breaks the register form and the first
            // immediate of its group that exposes the missing
            // zero-extension (or the wrong shift width).
            let (op, k) = match bug {
                RvBug::ZextAdd32 => (AluOp::Add, 0),
                RvBug::ZextSub32 => (AluOp::Sub, 0),
                RvBug::ZextAnd32 => (AluOp::And, -1),
                RvBug::ZextOr32 => (AluOp::Or, 0),
                RvBug::ZextXor32 => (AluOp::Xor, 0),
                RvBug::ZextMov32 => (AluOp::Mov, -1),
                RvBug::Shift32Lsh => (AluOp::Lsh, 0),
                RvBug::Shift32Rsh => (AluOp::Rsh, 0),
                RvBug::Shift32Arsh => (AluOp::Arsh, 0),
            };
            Expect {
                theorems: RV64_ROWS,
                refuted: vec![alu(true, op, Src::X, 0), alu(true, op, Src::K, k)],
            }
        }
        Jit::X86Bug(bug) => {
            let row = match bug {
                X86Bug::LshK => alu(false, AluOp::Lsh, Src::K, 32),
                X86Bug::RshK => alu(false, AluOp::Rsh, Src::K, 32),
                X86Bug::ArshK => alu(false, AluOp::Arsh, Src::K, 32),
                X86Bug::LshX => alu(false, AluOp::Lsh, Src::X, 0),
                X86Bug::RshX => alu(false, AluOp::Rsh, Src::X, 0),
                X86Bug::ArshX => alu(false, AluOp::Arsh, Src::X, 0),
            };
            Expect {
                theorems: X86_ROWS,
                refuted: vec![row],
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// A correct verdict list for `expect`: its refutations in place and
    /// every other theorem proved.
    fn answered(expect: &Expect) -> Vec<(String, Outcome)> {
        let proved = expect.theorems - expect.refuted.len();
        (0..proved)
            .map(|i| (format!("theorem {i}"), Outcome::Proved))
            .chain(expect.refuted.iter().map(|n| (n.clone(), Outcome::Refuted)))
            .collect()
    }

    #[test]
    fn missing_refutation_is_wrong_and_failures_are_not() {
        let expect = jit_expect(Jit::X86Bug(X86Bug::LshK));
        assert_eq!(check(&expect, &answered(&expect)).wrong, 0);
        let mut verdicts = answered(&expect);
        verdicts.pop();
        assert_eq!(check(&expect, &verdicts).wrong, 1);
        let mut verdicts = answered(&expect);
        verdicts[0].1 = Outcome::Failed;
        let t = check(&expect, &verdicts);
        assert_eq!((t.wrong, t.failed, t.attempted), (0, 1, X86_ROWS as u64));
    }

    #[test]
    fn a_dropped_or_surplus_theorem_is_wrong() {
        for expect in [
            Expect::all_proved(6),
            jit_expect(Jit::Rv64),
            jit_expect(Jit::Rv64Bug(RvBug::ZextAdd32)),
        ] {
            let mut verdicts = answered(&expect);
            verdicts.remove(0);
            let t = check(&expect, &verdicts);
            assert_eq!((t.wrong, t.failed), (1, 0), "dropped one of {expect:?}");
            let mut verdicts = answered(&expect);
            verdicts.push(("extra".to_string(), Outcome::Proved));
            assert_eq!(
                check(&expect, &verdicts).wrong,
                1,
                "one more than {expect:?}"
            );
        }
        assert_eq!(check(&Expect::all_proved(3), &[]).wrong, 3);
    }

    #[test]
    fn bug_rows_are_named_like_the_checker_names_them() {
        assert_eq!(
            jit_expect(Jit::Rv64Bug(RvBug::ZextAnd32)).refuted,
            [
                "Alu32 { op: And, src: X, dst: 1, srcr: 2, imm: 0 }",
                "Alu32 { op: And, src: K, dst: 1, srcr: 2, imm: -1 }",
            ]
        );
    }
}
