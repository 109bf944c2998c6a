//! Compact edge-coverage maps for fuzzing and corpus minimization.
//!
//! Coverage is recorded per conditional branch *outcome* (two bits per
//! instruction index: taken / not-taken) plus one bit per function
//! invoked. This matches what edge-coverage fuzzers observe and is
//! cheap enough to record on every branch.

/// A bitset-based coverage map.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct CoverageMap {
    bits: Vec<u64>,
    nbits: usize,
}

impl CoverageMap {
    /// A map able to hold `nbits` coverage points.
    pub fn new(nbits: usize) -> Self {
        CoverageMap {
            bits: vec![0; nbits.div_ceil(64)],
            nbits,
        }
    }

    /// Sets coverage point `i`.
    pub fn set(&mut self, i: usize) {
        debug_assert!(i < self.nbits);
        self.bits[i / 64] |= 1u64 << (i % 64);
    }

    /// Whether point `i` is covered.
    pub fn get(&self, i: usize) -> bool {
        self.bits
            .get(i / 64)
            .is_some_and(|w| w & (1u64 << (i % 64)) != 0)
    }

    /// Number of covered points.
    pub fn count(&self) -> usize {
        self.bits.iter().map(|w| w.count_ones() as usize).sum()
    }

    /// Unions `other` into `self`; returns the number of newly covered
    /// points (0 means `other` added nothing).
    pub fn merge(&mut self, other: &CoverageMap) -> usize {
        let mut new = 0;
        for (a, b) in self.bits.iter_mut().zip(&other.bits) {
            new += (b & !*a).count_ones() as usize;
            *a |= b;
        }
        new
    }

    /// Whether `other` covers any point `self` does not.
    pub fn adds_to(&self, base: &CoverageMap) -> bool {
        self.bits.iter().zip(&base.bits).any(|(s, b)| s & !b != 0)
    }

    /// Iterates over covered point indices.
    pub fn iter(&self) -> impl Iterator<Item = usize> + '_ {
        self.bits.iter().enumerate().flat_map(|(wi, &w)| {
            (0..64)
                .filter(move |b| w & (1u64 << b) != 0)
                .map(move |b| wi * 64 + b)
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn set_get_count() {
        let mut m = CoverageMap::new(200);
        m.set(0);
        m.set(63);
        m.set(64);
        m.set(199);
        assert!(m.get(0) && m.get(63) && m.get(64) && m.get(199));
        assert!(!m.get(1));
        assert_eq!(m.count(), 4);
    }

    #[test]
    fn merge_reports_new_points() {
        let mut a = CoverageMap::new(100);
        let mut b = CoverageMap::new(100);
        a.set(1);
        b.set(1);
        b.set(2);
        assert!(b.adds_to(&a));
        assert_eq!(a.merge(&b), 1);
        assert_eq!(a.merge(&b), 0);
        assert!(!b.adds_to(&a));
    }

    #[test]
    fn iter_yields_sorted_indices() {
        let mut m = CoverageMap::new(300);
        for i in [7usize, 64, 130, 256] {
            m.set(i);
        }
        let v: Vec<usize> = m.iter().collect();
        assert_eq!(v, vec![7, 64, 130, 256]);
    }
}
