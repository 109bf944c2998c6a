//! Dominator-scoped global value numbering.
//!
//! Registered as clang's `GVN` and gcc's `tree-dominator-opts`. Extends
//! [`crate::opt::cse`] across blocks: an expression computed in a
//! dominator is reused in every dominated block. Soundness in our
//! non-SSA IR comes from restricting the table to expressions whose
//! operands and destination each have a single definition in the
//! function (exactly the compiler-generated temporaries that carry
//! most redundancy after promotion).

use crate::manager::{ModuleFacts, PassConfig};
use crate::opt::util::{def_counts, key_operands};
use dt_ir::{BinOp, DomTree, Function, Op, UnOp, VReg, Value};
use std::collections::HashMap;

#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
enum Key {
    Un(UnOp, Value),
    Bin(BinOp, Value, Value),
}

/// Runs GVN over every function.
pub fn run(f: &mut Function, _facts: &ModuleFacts, _config: &PassConfig) -> bool {
    gvn_function(f)
}

fn gvn_function(f: &mut Function) -> bool {
    let defs = def_counts(f);
    let roots = crate::opt::util::copy_roots(f);
    let resolve = |v: Value| match v {
        Value::Reg(r) => Value::Reg(crate::opt::util::root_of(&roots, r)),
        c => c,
    };
    let nparams = f.params.len();
    let single = |v: Value| match v {
        Value::Const(_) => true,
        // A never-reassigned parameter (zero defining instructions) or
        // a single-def temporary holds one value for the whole
        // function; a *reassigned* parameter (one def) holds two.
        Value::Reg(r) => {
            let d = defs.get(r.index()).copied().unwrap_or(0);
            if r.index() < nparams {
                d == 0
            } else {
                d == 1
            }
        }
    };
    let dom = DomTree::compute(f);

    // Dominator-tree children.
    let mut children: Vec<Vec<u32>> = vec![Vec::new(); f.blocks.len()];
    for b in f.block_ids() {
        if b != f.entry {
            if let Some(idom) = dom.idom(b) {
                children[idom.index()].push(b.0);
            }
        }
    }

    let mut changed = false;
    // Iterative preorder walk with scope save/restore.
    let mut table: HashMap<Key, VReg> = HashMap::new();
    // (block, undo log of shadowed entries, next child index)
    type UndoLog = Vec<(Key, Option<VReg>)>;
    let mut stack: Vec<(u32, UndoLog, usize)> = vec![(f.entry.0, Vec::new(), 0)];
    while let Some((b, undo, child_idx)) = stack.last_mut() {
        let b = *b;
        if *child_idx == 0 {
            // First visit: process the block's instructions.
            let mut local_undo = Vec::new();
            for inst in &mut f.blocks[b as usize].insts {
                let key = match inst.op {
                    Op::Un { op, src, dst } if single(src) && defs[dst.index()] == 1 => {
                        Some((Key::Un(op, resolve(src)), dst))
                    }
                    Op::Bin { op, lhs, rhs, dst }
                        if single(lhs) && single(rhs) && defs[dst.index()] == 1 =>
                    {
                        let (lhs, rhs) = key_operands(op, resolve(lhs), resolve(rhs));
                        Some((Key::Bin(op, lhs, rhs), dst))
                    }
                    _ => None,
                };
                if let Some((key, dst)) = key {
                    if let Some(&prior) = table.get(&key) {
                        if prior != dst {
                            inst.op = Op::Copy {
                                dst,
                                src: Value::Reg(prior),
                            };
                            changed = true;
                        }
                    } else {
                        local_undo.push((key, table.insert(key, dst)));
                    }
                }
            }
            *undo = local_undo;
        }
        let ci = *child_idx;
        *child_idx += 1;
        if ci < children[b as usize].len() {
            let child = children[b as usize][ci];
            stack.push((child, Vec::new(), 0));
        } else {
            // Done with this subtree: restore the table.
            let (_, undo, _) = stack.pop().unwrap();
            for (key, old) in undo.into_iter().rev() {
                match old {
                    Some(v) => {
                        table.insert(key, v);
                    }
                    None => {
                        table.remove(&key);
                    }
                }
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

    fn pipeline(src: &str) -> Module {
        let mut m = dt_frontend::lower_source(src).unwrap();
        let cfg = PassConfig::default();
        run_whole_module(&crate::opt::mem2reg::run, &mut m, &cfg);
        run_whole_module(&crate::opt::instcombine::run, &mut m, &cfg);
        run_whole_module(&run, &mut m, &cfg);
        run_whole_module(&crate::opt::instcombine::run, &mut m, &cfg);
        run_whole_module(&crate::opt::dce::run, &mut m, &cfg);
        dt_ir::verify_module(&m).unwrap();
        m
    }

    fn count_mul(m: &Module) -> usize {
        m.funcs
            .iter()
            .flat_map(|f| f.blocks.iter())
            .flat_map(|b| b.insts.iter())
            .filter(|i| matches!(i.op, Op::Bin { op: BinOp::Mul, .. }))
            .count()
    }

    fn check(src: &str, args: &[i64], expected: i64) -> Module {
        let m = pipeline(src);
        let obj = dt_machine::run_backend(&m, &dt_machine::BackendConfig::default());
        let r =
            dt_vm::Vm::run_to_completion(&obj, "f", args, &[], dt_vm::VmConfig::default()).unwrap();
        assert_eq!(r.ret, expected);
        m
    }

    #[test]
    fn redundancy_across_blocks_is_eliminated() {
        // a*b computed before the branch and in both arms.
        let src = "int f(int a, int b) {\n\
                   int x = a * b;\n\
                   int y = 0;\n\
                   if (a > 0) { y = a * b + 1; } else { y = a * b - 1; }\n\
                   return x + y;\n}";
        let m = check(src, &[3, 4], 25);
        assert_eq!(count_mul(&m), 1, "one multiply must dominate all uses");
    }

    #[test]
    fn sibling_blocks_do_not_share() {
        // The arms do not dominate each other: each must keep its own
        // multiply when there is none in the dominator.
        let src = "int f(int a, int b) {\n\
                   int y = 0;\n\
                   if (a > 0) { y = a * b; } else { y = a * b; }\n\
                   return y;\n}";
        let m = check(src, &[3, 4], 12);
        assert_eq!(count_mul(&m), 2, "no dominating occurrence to reuse");
    }

    #[test]
    fn multi_def_operands_are_left_alone() {
        // `a` is reassigned between the two computations.
        let src = "int f(int a, int b) {\n\
                   int x = a + b;\n\
                   a = a * 2;\n\
                   int y = a + b;\n\
                   return x * 100 + y;\n}";
        check(src, &[1, 2], 304);
    }

    #[test]
    fn loop_invariant_redundancy() {
        let src = "int f(int a, int b) {\n\
                   int s = 0;\n\
                   for (int i = 0; i < 3; i++) { s += a * b; }\n\
                   return s + a * b;\n}";
        check(src, &[2, 5], 40);
    }
}
