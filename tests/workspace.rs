//! Workspace smoke test: pulls a cheap public self-check from every
//! member crate, so the tier-1 `cargo test -q` at the root exercises the
//! whole workspace even without `--workspace` (use
//! `cargo test -q --workspace` for every crate's full suite).

use serval_repro::smt::{reset_ctx, verify, BV};

#[test]
fn sat_solves() {
    use serval_repro::sat::{Lit, SolveResult, Solver};
    let mut s = Solver::new();
    let a = s.new_var();
    let b = s.new_var();
    s.add_clause(&[Lit::pos(a), Lit::pos(b)]);
    s.add_clause(&[Lit::neg(a)]);
    assert_eq!(s.solve(), SolveResult::Sat);
    assert_eq!(s.value(b), Some(true));
}

#[test]
fn smt_verifies() {
    reset_ctx();
    let x = BV::fresh(16, "x");
    assert!(verify(&[], (x ^ x).eq_(BV::lit(16, 0))).is_proved());
}

#[test]
fn sym_tracks_obligations() {
    use serval_repro::sym::SymCtx;
    let mut ctx = SymCtx::new();
    assert!(ctx.take_obligations().is_empty());
    assert_eq!(ctx.profiler.total_splits(), 0);
}

#[test]
fn core_memory_model_roundtrips() {
    use serval_repro::core_fw::{Layout, Mem, MemCfg, PathElem};
    reset_ctx();
    let mut mem = Mem::new(MemCfg::default());
    mem.add_region(
        "cell",
        0x1000,
        Layout::Struct(vec![("v".into(), Layout::Cell(8))]).instantiate_fresh("cell"),
    );
    mem.write_path("cell", &[PathElem::Field("v")], BV::lit(64, 7));
    let v = mem.read_path("cell", &[PathElem::Field("v")]);
    assert_eq!(v.as_const(), Some(7));
}

#[test]
fn toyrisc_walkthrough_proves() {
    use serval_repro::smt::solver::SolverConfig;
    reset_ctx();
    let report = serval_repro::toyrisc::prove_sign_refinement(SolverConfig::default());
    assert!(report.all_proved());
}

#[test]
fn riscv_encoder_decoder_agree() {
    use serval_repro::riscv::{decode, encode, Insn};
    let nop = Insn::OpImm {
        op: serval_repro::riscv::insn::IAluOp::Addi,
        rd: 0,
        rs1: 0,
        imm: 0,
    };
    assert_eq!(encode(nop), 0x0000_0013);
    assert_eq!(decode(0x0000_0013).unwrap(), nop);
}

#[test]
fn x86_encoder_decoder_agree() {
    use serval_repro::x86::{decode_validated, encode, Insn, Reg};
    let insn = Insn::MovRI { dst: Reg::Eax, imm: 0x1234_5678 };
    let bytes = encode(insn);
    let (back, n) = decode_validated(&bytes).unwrap();
    assert_eq!(back, insn);
    assert_eq!(n, bytes.len());
}

#[test]
fn bpf_encoder_decoder_agree() {
    use serval_repro::bpf::{decode_validated, encode, Insn};
    let insn = Insn::LdDw { dst: 3, imm: -1 };
    let slots = encode(insn);
    let (back, used) = decode_validated(&slots).unwrap();
    assert_eq!(back, insn);
    assert_eq!(used, slots.len());
}

#[test]
fn ir_compiles_to_riscv() {
    use serval_repro::ir::ir::{FuncBuilder, Term, Val};
    use serval_repro::ir::{compile, Module, OptLevel};
    use serval_repro::riscv::Asm;
    reset_ctx();
    let mut b = FuncBuilder::new("answer", 0);
    b.block("entry");
    b.term(Term::Ret(Val::Const(42)));
    let module = Module { funcs: vec![b.build()], globals: vec![] };
    let mut asm = Asm::new();
    compile(&module, OptLevel::O0, &mut asm);
    assert!(!asm.assemble(0x8000_0000).is_empty());
}

#[test]
fn monitors_prove_cheapest_call() {
    use serval_repro::core_fw::OptCfg;
    use serval_repro::ir::OptLevel;
    use serval_repro::monitors::certikos;
    use serval_repro::smt::solver::SolverConfig;
    let report = certikos::proofs::prove_op(
        certikos::sys::GET_QUOTA,
        OptLevel::O0,
        OptCfg::default(),
        SolverConfig::default(),
    );
    assert!(report.all_proved());
}

#[test]
fn jit_checker_accepts_fixed_jit() {
    use serval_repro::bpf::{AluOp, Insn, Src};
    use serval_repro::jit::{check_rv64, Rv64Jit};
    use serval_repro::smt::solver::SolverConfig;
    let insn = Insn::Alu64 { op: AluOp::Add, src: Src::X, dst: 1, srcr: 2, imm: 0 };
    let row = check_rv64(&Rv64Jit::fixed(), insn, SolverConfig::default()).unwrap();
    assert!(row.ok);
}

#[test]
fn check_substrate_works() {
    use serval_check::prelude::*;
    use serval_check::runner::run_property;
    let cfg = ProptestConfig::with_cases(64);
    run_property(&cfg, "smoke", &(0u32..100, any::<bool>()), |(x, _b)| {
        prop_assert!(x < 100);
    });
}
