//! Superword-level parallelism vectorization (`tree-slp-vectorize`,
//! LLVM's `SLPVectorizer`), reduced to its VISA essence: adjacent
//! independent ALU operations with the same opcode are fused into one
//! dual-issue pair (the VM executes the second for free).
//!
//! Debug policy: a fused pair is one machine instruction standing for
//! two source locations; the second operation's line is dropped to 0
//! (a vector instruction carries a single location), which is the loss
//! the paper measures at gcc O3.

use crate::manager::{ModuleFacts, PassConfig};
use dt_ir::{Function, Op};

/// Runs pairwise fusion over every block.
pub fn run(f: &mut Function, _facts: &ModuleFacts, _config: &PassConfig) -> bool {
    let mut changed = false;
    for bi in 0..f.blocks.len() {
        if f.blocks[bi].dead {
            continue;
        }
        let insts = &mut f.blocks[bi].insts;
        let mut i = 0;
        while i + 1 < insts.len() {
            if insts[i].op.is_dbg() {
                i += 1;
                continue;
            }
            // The partner is the next real instruction (debug
            // pseudos between them are transparent — the VM skips
            // them without breaking the dual-issue pair).
            let Some(j) = (i + 1..insts.len()).find(|&k| !insts[k].op.is_dbg()) else {
                break;
            };
            let fusible = {
                let a = &insts[i];
                let b = &insts[j];
                match (&a.op, &b.op) {
                    (
                        Op::Bin {
                            op: op_a, dst: da, ..
                        },
                        Op::Bin {
                            op: op_b,
                            dst: db,
                            lhs,
                            rhs,
                            ..
                        },
                    ) if op_a == op_b
                        && !matches!(op_a, dt_ir::BinOp::Div | dt_ir::BinOp::Rem)
                        && da != db =>
                    {
                        // b must not consume a's result.
                        let uses_a = [lhs, rhs].iter().any(|v| v.as_reg() == Some(*da));
                        !uses_a && !a.fused && !b.fused
                    }
                    _ => false,
                }
            };
            if fusible {
                insts[i].fused = true;
                insts[j].line = 0;
                changed = true;
                i = j + 1;
            } else {
                i += 1;
            }
        }
    }
    changed
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::manager::run_whole_module;
    use crate::manager::PassConfig;
    use dt_ir::Module;

    fn pipeline(src: &str, slp: bool) -> Module {
        let mut m = dt_frontend::lower_source(src).unwrap();
        let cfg = PassConfig::default();
        run_whole_module(&crate::opt::mem2reg::run, &mut m, &cfg);
        run_whole_module(&crate::opt::instcombine::run, &mut m, &cfg);
        run_whole_module(&crate::opt::dce::run, &mut m, &cfg);
        run_whole_module(&crate::opt::copycoalesce::run_coalesce, &mut m, &cfg);
        run_whole_module(&crate::opt::dce::run, &mut m, &cfg);
        if slp {
            run_whole_module(&run, &mut m, &cfg);
        }
        dt_ir::verify_module(&m).unwrap();
        m
    }

    fn cycles(m: &Module, args: &[i64], expected: i64) -> u64 {
        let obj = dt_machine::run_backend(m, &dt_machine::BackendConfig::default());
        let r =
            dt_vm::Vm::run_to_completion(&obj, "f", args, &[], dt_vm::VmConfig::default()).unwrap();
        assert_eq!(r.ret, expected);
        r.cycles
    }

    // Four independent adds: two fusible pairs.
    const SRC: &str = "int f(int a, int b, int c, int d) {\n\
        int w = a + 1;\n\
        int x = b + 2;\n\
        int y = c + 3;\n\
        int z = d + 4;\n\
        return w + x + y + z;\n}";

    #[test]
    fn independent_pairs_fuse() {
        let m = pipeline(SRC, true);
        let fused = m.funcs[0]
            .blocks
            .iter()
            .flat_map(|b| &b.insts)
            .filter(|i| i.fused)
            .count();
        assert!(fused >= 1, "at least one pair must fuse");
        cycles(&m, &[1, 2, 3, 4], 20);
    }

    #[test]
    fn fusion_saves_cycles() {
        let plain = cycles(&pipeline(SRC, false), &[1, 2, 3, 4], 20);
        let fused = cycles(&pipeline(SRC, true), &[1, 2, 3, 4], 20);
        assert!(fused < plain, "{fused} vs {plain}");
    }

    #[test]
    fn dependent_ops_do_not_fuse() {
        let src = "int f(int a) { int x = a + 1; int y = x + 2; return y; }";
        let m = pipeline(src, true);
        let fused = m.funcs[0]
            .blocks
            .iter()
            .flat_map(|b| &b.insts)
            .filter(|i| i.fused)
            .count();
        assert_eq!(fused, 0);
        cycles(&m, &[5], 8);
    }

    #[test]
    fn second_of_pair_loses_its_line() {
        let m = pipeline(SRC, true);
        for f in &m.funcs {
            for b in &f.blocks {
                for (i, inst) in b.insts.iter().enumerate() {
                    if inst.fused {
                        // The partner is the next real instruction.
                        let partner = b.insts[i + 1..]
                            .iter()
                            .find(|x| !x.op.is_dbg())
                            .expect("fused instruction has a partner");
                        assert_eq!(partner.line, 0);
                    }
                }
            }
        }
    }
}
