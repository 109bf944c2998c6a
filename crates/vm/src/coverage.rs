//! The numbering of edge-coverage points, for fuzzing and corpus
//! minimization.
//!
//! A run's coverage ([`ExecResult::coverage`](crate::ExecResult)) is a
//! [`dt_ir::BitSet`] of points: two per instruction index for a
//! conditional branch's outcomes (not taken / taken), then one per
//! function invoked. This matches what edge-coverage fuzzers observe
//! and is cheap enough to record on every branch.

use dt_machine::Object;

/// The point of the branch at `pc` going the way `taken` says.
pub(crate) fn branch(pc: usize, taken: bool) -> usize {
    pc * 2 + taken as usize
}

/// The point of invoking function `func` of `obj`.
pub(crate) fn call(obj: &Object, func: usize) -> usize {
    obj.code.len() * 2 + func
}

#[cfg(test)]
mod tests {
    use dt_ir::BitSet;

    #[test]
    fn set_get_count() {
        let mut m = BitSet::new();
        for i in [0, 63, 64, 199] {
            m.insert(i);
        }
        assert!(m.contains(0) && m.contains(63) && m.contains(64) && m.contains(199));
        assert!(!m.contains(1));
        assert_eq!(m.len(), 4);
    }

    #[test]
    fn merge_reports_new_points() {
        let mut a = BitSet::new();
        let mut b = BitSet::new();
        a.insert(1);
        b.insert(1);
        b.insert(2);
        assert!(b.adds_to(&a));
        assert_eq!(a.union_with(&b), 1);
        assert_eq!(a.union_with(&b), 0);
        assert!(!b.adds_to(&a));
    }

    #[test]
    fn iter_yields_sorted_indices() {
        let mut m = BitSet::new();
        for i in [7, 64, 130, 256] {
            m.insert(i);
        }
        let v: Vec<usize> = m.iter().collect();
        assert_eq!(v, vec![7, 64, 130, 256]);
    }
}
