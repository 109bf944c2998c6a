//! Loop strength reduction (`LoopStrengthReduce`).
//!
//! Rewrites in-loop multiplications of the induction variable by a
//! constant (`t = i * c`) into an accumulator updated by `c * step`
//! per iteration, trading a multiply for an add.
//!
//! Debug policy: the rewritten value itself stays available (its
//! defining copy remains), but under the gcc policy the *induction
//! variable's* in-loop bindings are dropped — after strength reduction
//! gcc tracks the derived accumulator, not `i`, which is the classic
//! "cannot print i inside the loop" symptom the paper measures for
//! this pass. clang salvages them.

use crate::manager::{ModuleFacts, PassConfig};
use crate::opt::util::{ensure_preheader, find_inductions};
use dt_ir::{BinOp, DbgLoc, DomTree, Function, Inst, LoopForest, Op, Value};

/// Runs strength reduction over every function.
pub fn run(f: &mut Function, _facts: &ModuleFacts, config: &PassConfig) -> bool {
    lsr_function(f, config.salvage)
}

fn lsr_function(f: &mut Function, salvage: bool) -> bool {
    let dom = DomTree::compute(f);
    let forest = LoopForest::compute(f, &dom);
    let mut changed = false;

    // Collect rewrites first (loop info borrows f).
    struct Rewrite {
        header: dt_ir::BlockId,
        latches: Vec<dt_ir::BlockId>,
        mul_at: (dt_ir::BlockId, usize),
        ind: crate::opt::util::Induction,
        factor: i64,
        blocks: Vec<dt_ir::BlockId>,
    }
    let mut rewrites: Vec<Rewrite> = Vec::new();
    let defs = crate::opt::util::def_counts(f);
    for l in &forest.loops {
        let inductions = find_inductions(f, &l.blocks);
        for ind in &inductions {
            for b in l.blocks.iter() {
                for (ii, inst) in f.block(b).insts.iter().enumerate() {
                    let (dst, factor) = match inst.op {
                        Op::Bin {
                            dst,
                            op: BinOp::Mul,
                            lhs: Value::Reg(r),
                            rhs: Value::Const(c),
                        } if r == ind.reg => (dst, c),
                        Op::Bin {
                            dst,
                            op: BinOp::Mul,
                            lhs: Value::Const(c),
                            rhs: Value::Reg(r),
                        } if r == ind.reg => (dst, c),
                        _ => continue,
                    };
                    if defs.get(dst.index()) != Some(&1) || dst == ind.reg {
                        continue;
                    }
                    rewrites.push(Rewrite {
                        header: l.header,
                        latches: l.latches.clone(),
                        mul_at: (b, ii),
                        ind: *ind,
                        factor,
                        blocks: l.blocks.iter().collect(),
                    });
                }
            }
        }
    }

    // Apply one rewrite per loop per run (positions go stale after the
    // first edit in a block).
    let mut touched: Vec<dt_ir::BlockId> = Vec::new();
    for rw in rewrites {
        if touched.contains(&rw.mul_at.0) || touched.contains(&rw.ind.incr_at.0) {
            continue;
        }
        apply(
            f,
            &rw.header,
            &rw.latches,
            rw.mul_at,
            &rw.ind,
            rw.factor,
            &rw.blocks,
            salvage,
        );
        touched.push(rw.mul_at.0);
        touched.push(rw.ind.incr_at.0);
        changed = true;
    }
    changed
}

#[allow(clippy::too_many_arguments)]
fn apply(
    f: &mut Function,
    header: &dt_ir::BlockId,
    latches: &[dt_ir::BlockId],
    mul_at: (dt_ir::BlockId, usize),
    ind: &crate::opt::util::Induction,
    factor: i64,
    loop_blocks: &[dt_ir::BlockId],
    salvage: bool,
) {
    let acc = f.new_vreg();

    // Preheader: acc = i * factor (i holds its initial value there).
    let ph = ensure_preheader(f, *header, latches);
    f.block_mut(ph).insts.push(Inst::synth(Op::Bin {
        dst: acc,
        op: BinOp::Mul,
        lhs: Value::Reg(ind.reg),
        rhs: Value::Const(factor),
    }));

    // Replace the multiply with a copy of the accumulator.
    let (mb, mi) = mul_at;
    let line = f.block(mb).insts[mi].line;
    let dst = f.block(mb).insts[mi].op.def().expect("mul defines");
    f.block_mut(mb).insts[mi] = Inst::new(
        Op::Copy {
            dst,
            src: Value::Reg(acc),
        },
        line,
    );

    // Bump the accumulator right after the induction increment.
    let (ib, ii) = ind.incr_at;
    f.block_mut(ib).insts.insert(
        ii + 1,
        Inst::synth(Op::Bin {
            dst: acc,
            op: BinOp::Add,
            lhs: Value::Reg(acc),
            rhs: Value::Const(factor.wrapping_mul(ind.step)),
        }),
    );

    // Debug policy: without salvaging, the induction variable's
    // in-loop bindings are dropped.
    if !salvage {
        for &b in loop_blocks {
            for inst in &mut f.block_mut(b).insts {
                if let Op::DbgValue { loc, .. } = &mut inst.op {
                    if *loc == DbgLoc::Value(Value::Reg(ind.reg)) {
                        *loc = DbgLoc::Undef;
                    }
                }
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::manager::run_whole_module;
    use crate::manager::PassConfig;
    use dt_ir::Module;

    fn pipeline(src: &str, salvage: bool) -> Module {
        let mut m = dt_frontend::lower_source(src).unwrap();
        let cfg = PassConfig {
            salvage,
            ..Default::default()
        };
        run_whole_module(&crate::opt::mem2reg::run, &mut m, &cfg);
        run_whole_module(&crate::opt::instcombine::run, &mut m, &cfg);
        run_whole_module(&crate::opt::copycoalesce::run_coalesce, &mut m, &cfg);
        run_whole_module(&run, &mut m, &cfg);
        dt_ir::verify_module(&m).unwrap();
        m
    }

    // Use a factor that is not a power of two so instcombine does not
    // turn the multiply into a shift first.
    const SRC: &str =
        "int f(int n) { int s = 0; for (int i = 0; i < n; i++) { s += i * 12; } return s; }";

    fn check(m: &Module, args: &[i64], expected: i64) -> u64 {
        let obj = dt_machine::run_backend(m, &dt_machine::BackendConfig::default());
        let r =
            dt_vm::Vm::run_to_completion(&obj, "f", args, &[], dt_vm::VmConfig::default()).unwrap();
        assert_eq!(r.ret, expected);
        r.cycles
    }

    #[test]
    fn multiply_leaves_the_loop() {
        let m = pipeline(SRC, false);
        check(&m, &[10], 12 * 45);
        let f = &m.funcs[0];
        let dom = dt_ir::DomTree::compute(f);
        let forest = dt_ir::LoopForest::compute(f, &dom);
        let l = &forest.loops[0];
        let muls_in_loop = l
            .blocks
            .iter()
            .flat_map(|b| &f.block(b).insts)
            .filter(|i| matches!(i.op, Op::Bin { op: BinOp::Mul, .. }))
            .count();
        assert_eq!(muls_in_loop, 0, "the induction multiply must be reduced");
    }

    #[test]
    fn strength_reduction_saves_cycles() {
        let src = SRC;
        let mut base = dt_frontend::lower_source(src).unwrap();
        let cfg = PassConfig::default();
        run_whole_module(&crate::opt::mem2reg::run, &mut base, &cfg);
        run_whole_module(&crate::opt::instcombine::run, &mut base, &cfg);
        run_whole_module(&crate::opt::copycoalesce::run_coalesce, &mut base, &cfg);
        let base_cycles = check(&base, &[50], 12 * 49 * 50 / 2);
        let reduced = pipeline(src, false);
        let red_cycles = check(&reduced, &[50], 12 * 49 * 50 / 2);
        assert!(
            red_cycles < base_cycles,
            "mul(3cy) -> add(1cy) per iteration ({red_cycles} vs {base_cycles})"
        );
    }

    #[test]
    fn gcc_policy_drops_induction_bindings() {
        let m = pipeline(SRC, false);
        let undef = m.funcs[0]
            .blocks
            .iter()
            .flat_map(|b| &b.insts)
            .filter(|i| {
                matches!(
                    i.op,
                    Op::DbgValue {
                        loc: DbgLoc::Undef,
                        ..
                    }
                )
            })
            .count();
        assert!(undef > 0, "i's in-loop bindings must be dropped");
    }

    #[test]
    fn clang_policy_keeps_induction_bindings() {
        let gcc = pipeline(SRC, false);
        let clang = pipeline(SRC, true);
        let undefs = |m: &Module| {
            m.funcs[0]
                .blocks
                .iter()
                .flat_map(|b| &b.insts)
                .filter(|i| {
                    matches!(
                        i.op,
                        Op::DbgValue {
                            loc: DbgLoc::Undef,
                            ..
                        }
                    )
                })
                .count()
        };
        assert!(undefs(&clang) < undefs(&gcc));
    }

    #[test]
    fn non_induction_multiplies_are_untouched() {
        let src = "int f(int n, int a) { int s = 0; for (int i = 0; i < n; i++) { s += a * 12; } return s; }";
        let m = pipeline(src, false);
        check(&m, &[5, 3], 5 * 36);
    }
}
