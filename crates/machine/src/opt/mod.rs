//! Backend (machine-level) optimization passes.
//!
//! These model the `*`-annotated rows of the paper's Tables V and VI:
//! transformations applied to the low-level representation, each with
//! an explicit, documented effect on debug information.

pub mod cfopt;
pub mod crossjump;
pub mod layout;
pub mod mliveness;
pub mod msched;
pub mod msink;
pub mod shrinkwrap;

use crate::mir::MFunction;

/// `toplevel-reorder`: permutes the emission order of functions
/// (smallest first, as gcc clusters small functions for locality).
/// `sizes` holds each function's [`function_size`].
///
/// Performance model: the VM charges one extra cycle for "far" calls
/// (caller and callee entry more than 4 KiB apart), so packing small,
/// frequently-called helpers together pays off. Debug model: reordered
/// emission drops the per-function entry line row (see
/// [`crate::emit`]), costing one steppable line per function.
pub fn reorder_functions(order: &mut [u32], sizes: &[usize]) {
    order.sort_by_key(|&fi| (sizes[fi as usize], fi));
}

/// The size `toplevel-reorder` sorts by: non-debug instructions plus
/// one terminator per live block.
pub fn function_size(f: &MFunction) -> usize {
    f.blocks
        .iter()
        .filter(|b| !b.dead)
        .map(|b| b.insts.iter().filter(|i| !i.op.is_dbg()).count() + 1)
        .sum()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::lower::lower_module;

    #[test]
    fn reorder_puts_small_functions_first() {
        let src = "int big(int x) { int a = x + 1; int b = a * 2; int c = b - 3; \
                    int d = c / 2; out(a); out(b); out(c); out(d); return d; }\n\
                   int small() { return 1; }";
        let m = dt_frontend::lower_source(src).unwrap();
        let mut mm = lower_module(&m);
        assert_eq!(mm.order, vec![0, 1]);
        let sizes: Vec<usize> = mm.funcs.iter().map(function_size).collect();
        reorder_functions(&mut mm.order, &sizes);
        assert_eq!(mm.order, vec![1, 0], "small function must come first");
    }
}
