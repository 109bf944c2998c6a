//! Interprocedural pure/const discovery (`ipa-pure-const`).
//!
//! Marks functions whose body performs no stores, no I/O, and no reads
//! of mutable global state, and calls only other pure-const functions.
//! Downstream, DCE deletes dead calls to them and GVN/CSE may merge
//! repeated calls — each removal costing the call's source line.

use crate::manager::PassConfig;
use dt_ir::{MemEffect, Module, Op};

/// Runs the bottom-up fixpoint over the call graph.
pub fn run(module: &mut Module, _config: &PassConfig) -> bool {
    let n = module.funcs.len();
    let mut pure = vec![true; n];

    // Local screening: anything touching memory or I/O is impure.
    // (Slot accesses are function-local and fine.)
    for (i, f) in module.funcs.iter().enumerate() {
        'scan: for b in f.block_ids() {
            for inst in &f.block(b).insts {
                match inst.op.mem_effect() {
                    MemEffect::None | MemEffect::ReadSlot(_) | MemEffect::WriteSlot(_) => {}
                    MemEffect::Call(_) => {} // resolved by the fixpoint
                    _ => {
                        pure[i] = false;
                        break 'scan;
                    }
                }
            }
        }
    }

    // Propagate impurity through calls to fixpoint.
    let mut changed_any = true;
    while changed_any {
        changed_any = false;
        for i in 0..n {
            if !pure[i] {
                continue;
            }
            let f = &module.funcs[i];
            for b in f.block_ids() {
                for inst in &f.block(b).insts {
                    if let Op::Call { callee, .. } = &inst.op {
                        if !pure[callee.index()] {
                            pure[i] = false;
                            changed_any = true;
                        }
                    }
                }
            }
        }
    }

    let mut changed = false;
    for (f, pure) in module.funcs.iter_mut().zip(pure) {
        if f.attrs.pure_const != pure {
            std::sync::Arc::make_mut(f).attrs.pure_const = pure;
            changed = true;
        }
    }
    changed
}

#[cfg(test)]
mod tests {
    use super::*;

    fn analyze(src: &str) -> Module {
        let mut m = dt_frontend::lower_source(src).unwrap();
        run(&mut m, &PassConfig::default());
        m
    }

    #[test]
    fn arithmetic_function_is_pure() {
        let m = analyze("int sq(int x) { return x * x; }");
        assert!(m.funcs[0].attrs.pure_const);
    }

    #[test]
    fn io_makes_impure() {
        let m = analyze("int f(int x) { out(x); return x; }");
        assert!(!m.funcs[0].attrs.pure_const);
        let m = analyze("int f() { return in(0); }");
        assert!(!m.funcs[0].attrs.pure_const);
    }

    #[test]
    fn global_access_makes_impure() {
        let m = analyze("int g = 1;\nint f() { return g; }");
        assert!(!m.funcs[0].attrs.pure_const);
    }

    #[test]
    fn local_slots_are_fine() {
        let m = analyze("int f(int x) { int a[4]; a[0] = x; return a[0]; }");
        assert!(m.funcs[0].attrs.pure_const);
    }

    #[test]
    fn impurity_propagates_through_calls() {
        let m = analyze(
            "int leaf() { out(1); return 0; }\n\
             int mid(int x) { return leaf() + x; }\n\
             int top(int x) { return mid(x) * 2; }\n\
             int clean(int x) { return x + 1; }",
        );
        assert!(!m.func_by_name("leaf").unwrap().attrs.pure_const);
        assert!(!m.func_by_name("mid").unwrap().attrs.pure_const);
        assert!(!m.func_by_name("top").unwrap().attrs.pure_const);
        assert!(m.func_by_name("clean").unwrap().attrs.pure_const);
    }

    #[test]
    fn recursive_pure_function() {
        let m = analyze("int fib(int n) { if (n < 2) { return n; } return fib(n-1) + fib(n-2); }");
        assert!(m.funcs[0].attrs.pure_const);
    }
}
