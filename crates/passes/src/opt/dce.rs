//! Dead code elimination.
//!
//! Removes pure instructions (and loads, and calls to `pure_const`
//! functions) whose results are never used. This is the pass where the
//! leftovers of CSE/combining/coalescing actually disappear — and with
//! them their source lines and the variable bindings that referenced
//! them. Under both personalities a binding of a removed copy follows
//! the copied value (gcc's var-tracking propagates through copies just
//! like LLVM's salvaging), while a binding of a removed computed value
//! becomes undef ([`fixup_dbg_after_removal`]).

use crate::manager::{ModuleFacts, PassConfig};
use crate::opt::util::fixup_dbg_after_removal;
use dt_ir::{Function, Liveness, Op};

/// Runs DCE over every function until nothing more dies.
pub fn run(f: &mut Function, facts: &ModuleFacts, _config: &PassConfig) -> bool {
    let mut changed = false;
    while dce_function(f, &facts.pure_const) {
        changed = true;
    }
    changed
}

fn dce_function(f: &mut Function, pure_funcs: &[bool]) -> bool {
    let liveness = Liveness::compute(f);
    let mut changed = false;

    for bi in 0..f.blocks.len() {
        if f.blocks[bi].dead {
            continue;
        }
        let mut live = liveness.live_out.row(bi).to_set();
        // Also treat registers used by the terminator as live.
        f.blocks[bi].term.for_each_use(|v| {
            if let Some(r) = v.as_reg() {
                live.insert(r);
            }
        });

        // Backward walk, removing dead defs.
        let mut i = f.blocks[bi].insts.len();
        while i > 0 {
            i -= 1;
            let inst = &f.blocks[bi].insts[i];
            if inst.op.is_dbg() {
                continue;
            }
            let removable = match &inst.op {
                op if op.is_pure() => true,
                Op::LoadSlot { .. }
                | Op::LoadIdx { .. }
                | Op::LoadGlobal { .. }
                | Op::LoadGIdx { .. } => true,
                Op::Call { callee, .. } => pure_funcs.get(callee.index()).copied().unwrap_or(false),
                _ => false,
            };
            let def = inst.op.def();
            if removable && def.is_some_and(|d| !live.contains(d)) {
                let d = def.unwrap();
                let removed = f.blocks[bi].insts.remove(i);
                fixup_dbg_after_removal(&mut f.blocks[bi].insts, i, d, &removed.op);
                changed = true;
                continue;
            }
            // Standard backward liveness update.
            if let Some(d) = def {
                live.remove(d);
            }
            inst.op.for_each_use(|v| {
                if let Some(r) = v.as_reg() {
                    live.insert(r);
                }
            });
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
    use dt_ir::{DbgLoc, Value};

    fn pipeline(src: &str, salvage: bool) -> Module {
        let mut m = dt_frontend::lower_source(src).unwrap();
        let cfg = PassConfig {
            salvage,
            ..Default::default()
        };
        run_whole_module(&crate::opt::mem2reg::run, &mut m, &cfg);
        run_whole_module(&crate::opt::instcombine::run, &mut m, &cfg);
        run_whole_module(&run, &mut m, &cfg);
        dt_ir::verify_module(&m).unwrap();
        m
    }

    fn real_insts(m: &Module) -> usize {
        m.funcs
            .iter()
            .flat_map(|f| f.blocks.iter())
            .flat_map(|b| b.insts.iter())
            .filter(|i| !i.op.is_dbg())
            .count()
    }

    #[test]
    fn removes_unused_computations() {
        let with_dead = pipeline(
            "int f(int a) { int unused = a * 100; return a + 1; }",
            false,
        );
        let without = pipeline("int f(int a) { return a + 1; }", false);
        assert_eq!(
            real_insts(&with_dead),
            real_insts(&without),
            "the dead multiply chain must vanish entirely"
        );
    }

    #[test]
    fn removed_computations_drop_bindings_under_both_personalities() {
        for salvage in [false, true] {
            let m = pipeline(
                "int f(int a) { int unused = a * 100; return a + 1; }",
                salvage,
            );
            let undef_dbg = m.funcs[0].blocks.iter().flat_map(|b| &b.insts).any(|i| {
                matches!(
                    i.op,
                    Op::DbgValue {
                        loc: DbgLoc::Undef,
                        ..
                    }
                )
            });
            assert!(
                undef_dbg,
                "`unused` must become unavailable (salvage: {salvage})"
            );
        }
    }

    #[test]
    fn removed_copies_keep_constant_bindings_under_both_personalities() {
        for salvage in [false, true] {
            let m = pipeline("int f() { int x = 6 * 7; return 0; }", salvage);
            // x's copy is dead, but its binding follows the constant.
            let const_dbg = m.funcs[0].blocks.iter().flat_map(|b| &b.insts).any(|i| {
                matches!(
                    i.op,
                    Op::DbgValue {
                        loc: DbgLoc::Value(Value::Const(42)),
                        ..
                    }
                )
            });
            assert!(
                const_dbg,
                "the constant binding survives (salvage: {salvage})"
            );
        }
    }

    #[test]
    fn side_effects_are_never_removed() {
        let m = pipeline("int f() { out(1); in(0); return 0; }", false);
        let outs = m.funcs[0]
            .blocks
            .iter()
            .flat_map(|b| &b.insts)
            .filter(|i| matches!(i.op, Op::Out { .. }))
            .count();
        assert_eq!(outs, 1);
        // `in` has an observable effect model (input cursor semantics
        // are positional, so it is only removable when the result is
        // dead AND the op is effect-free — ours reads by index, but we
        // stay conservative and keep it).
        let ins = m.funcs[0]
            .blocks
            .iter()
            .flat_map(|b| &b.insts)
            .filter(|i| matches!(i.op, Op::In { .. }))
            .count();
        assert_eq!(ins, 1);
    }

    #[test]
    fn loop_carried_values_stay() {
        let src = "int f(int n) { int s = 0; for (int i = 0; i < n; i++) { s += i; } return s; }";
        let m = pipeline(src, false);
        let obj = dt_machine::run_backend(&m, &dt_machine::BackendConfig::default());
        let r = dt_vm::Vm::run_to_completion(&obj, "f", &[10], &[], dt_vm::VmConfig::default())
            .unwrap();
        assert_eq!(r.ret, 45);
    }

    #[test]
    fn dead_pure_const_calls_are_removed() {
        let src = "int sq(int x) { return x * x; }\nint f(int a) { sq(a); return a; }";
        let mut m = dt_frontend::lower_source(src).unwrap();
        let cfg = PassConfig::default();
        run_whole_module(&crate::opt::mem2reg::run, &mut m, &cfg);
        crate::opt::ipa_pure_const::run(&mut m, &cfg);
        run_whole_module(&run, &mut m, &cfg);
        let calls = m.funcs[1]
            .blocks
            .iter()
            .flat_map(|b| &b.insts)
            .filter(|i| matches!(i.op, Op::Call { .. }))
            .count();
        assert_eq!(calls, 0, "dead call to a pure-const function dies");
    }
}
