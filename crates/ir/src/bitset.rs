//! The one dense index set of the workspace: member `i` of a set is bit
//! `i % 64` of word `i / 64` (`word_bit`). [`BitSet`] owns and grows
//! its words, [`BitRow`] reads a borrowed slice of them (one row of a
//! flat matrix). Members iterate in ascending index order, so nothing
//! that walks a set depends on insertion order or a hasher.

use crate::module::{BlockId, VReg};
use std::fmt;
use std::marker::PhantomData;

/// An index type a [`BitSet`] can hold.
pub trait Idx: Copy {
    fn index(self) -> usize;
    fn from_index(i: usize) -> Self;
}

impl Idx for usize {
    fn index(self) -> usize {
        self
    }
    fn from_index(i: usize) -> Self {
        i
    }
}

macro_rules! id_idx {
    ($($id:ident),*) => {$(
        impl Idx for $id {
            fn index(self) -> usize {
                self.0 as usize
            }
            fn from_index(i: usize) -> Self {
                $id(i as u32)
            }
        }
    )*};
}
id_idx!(VReg, BlockId);

/// The word that holds index `i`, and `i`'s bit in it.
#[inline]
pub(crate) fn word_bit(i: usize) -> (usize, u64) {
    (i / 64, 1 << (i % 64))
}

/// The number of words that hold indices `0..n`.
pub(crate) fn words_for(n: usize) -> usize {
    n.div_ceil(64)
}

/// A read-only set over borrowed words; an index past the end is not a
/// member.
#[derive(Clone, Copy)]
pub struct BitRow<'a, I: Idx = usize> {
    words: &'a [u64],
    idx: PhantomData<fn() -> I>,
}

impl<'a, I: Idx> BitRow<'a, I> {
    pub fn new(words: &'a [u64]) -> Self {
        BitRow {
            words,
            idx: PhantomData,
        }
    }

    #[inline]
    pub fn contains(self, i: I) -> bool {
        let (w, bit) = word_bit(i.index());
        self.words.get(w).is_some_and(|x| x & bit != 0)
    }

    /// The members in ascending order.
    pub fn iter(self) -> impl Iterator<Item = I> + 'a {
        self.words.iter().enumerate().flat_map(|(wi, &w)| {
            let mut bits = w;
            std::iter::from_fn(move || {
                (bits != 0).then(|| {
                    let b = bits.trailing_zeros() as usize;
                    bits &= bits - 1;
                    I::from_index(wi * 64 + b)
                })
            })
        })
    }

    pub fn len(self) -> usize {
        self.words.iter().map(|w| w.count_ones() as usize).sum()
    }

    pub fn is_empty(self) -> bool {
        self.words.iter().all(|&w| w == 0)
    }

    /// An owned copy, for a caller that edits it.
    pub fn to_set(self) -> BitSet<I> {
        BitSet {
            words: self.words.to_vec(),
            idx: PhantomData,
        }
    }
}

/// A set of indices that grows on insert. Set operations and equality
/// take sets of any two lengths: trailing zero words hold no members.
#[derive(Clone)]
pub struct BitSet<I: Idx = usize> {
    words: Vec<u64>,
    idx: PhantomData<fn() -> I>,
}

impl<I: Idx> BitSet<I> {
    pub const fn new() -> Self {
        BitSet {
            words: Vec::new(),
            idx: PhantomData,
        }
    }

    /// An empty set with room for indices `0..n`.
    pub fn with_capacity(n: usize) -> Self {
        BitSet {
            words: vec![0; words_for(n)],
            idx: PhantomData,
        }
    }

    #[inline]
    pub fn row(&self) -> BitRow<'_, I> {
        BitRow::new(&self.words)
    }

    /// Inserts `i`, returning whether it was new.
    #[inline]
    pub fn insert(&mut self, i: I) -> bool {
        let (w, bit) = word_bit(i.index());
        if w >= self.words.len() {
            self.grow(w + 1);
        }
        let old = self.words[w];
        self.words[w] = old | bit;
        old & bit == 0
    }

    /// Widens the set to `n` words, out of line so that an inlined
    /// `insert` (the VM's coverage points) stays small.
    #[cold]
    #[inline(never)]
    fn grow(&mut self, n: usize) {
        self.words.resize(n, 0);
    }

    /// Removes `i`, returning whether it was a member.
    pub fn remove(&mut self, i: I) -> bool {
        let (w, bit) = word_bit(i.index());
        match self.words.get_mut(w) {
            Some(x) if *x & bit != 0 => {
                *x &= !bit;
                true
            }
            _ => false,
        }
    }

    #[inline]
    pub fn contains(&self, i: I) -> bool {
        self.row().contains(i)
    }

    /// Adds every member of `other`, returning how many were new.
    pub fn union_with(&mut self, other: &Self) -> usize {
        if other.words.len() > self.words.len() {
            self.grow(other.words.len());
        }
        let mut new = 0;
        for (a, &b) in self.words.iter_mut().zip(&other.words) {
            new += (b & !*a).count_ones() as usize;
            *a |= b;
        }
        new
    }

    /// Whether `self` has a member that `base` lacks.
    pub fn adds_to(&self, base: &Self) -> bool {
        let (shared, rest) = self.words.split_at(self.words.len().min(base.words.len()));
        shared.iter().zip(&base.words).any(|(s, b)| s & !b != 0) || rest.iter().any(|&w| w != 0)
    }

    pub fn iter(&self) -> impl Iterator<Item = I> + '_ {
        self.row().iter()
    }

    pub fn len(&self) -> usize {
        self.row().len()
    }

    pub fn is_empty(&self) -> bool {
        self.row().is_empty()
    }
}

impl<I: Idx> Default for BitSet<I> {
    fn default() -> Self {
        BitSet::new()
    }
}

impl<I: Idx> PartialEq for BitSet<I> {
    fn eq(&self, other: &Self) -> bool {
        let (a, b) = (&self.words, &other.words);
        let n = a.len().min(b.len());
        a[..n] == b[..n] && a[n..].iter().chain(&b[n..]).all(|&w| w == 0)
    }
}

impl<I: Idx> Eq for BitSet<I> {}

impl<I: Idx + fmt::Debug> fmt::Debug for BitSet<I> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_set().entries(self.iter()).finish()
    }
}

impl<I: Idx> FromIterator<I> for BitSet<I> {
    fn from_iter<T: IntoIterator<Item = I>>(iter: T) -> Self {
        let mut set = BitSet::new();
        iter.into_iter().for_each(|i| {
            set.insert(i);
        });
        set
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn remove_reports_membership() {
        let mut s: BitSet<VReg> = [VReg(3), VReg(70)].into_iter().collect();
        assert!(s.remove(VReg(70)));
        assert!(!s.remove(VReg(70)), "already removed");
        assert!(!s.remove(VReg(5)), "never a member");
        assert!(!s.remove(VReg(1000)), "past the end");
        assert!(s.iter().eq([VReg(3)]));
    }

    #[test]
    fn set_operations_take_sets_of_different_lengths() {
        let short: BitSet = [1, 5].into_iter().collect();
        let long: BitSet = [1, 300].into_iter().collect();
        assert!(long.adds_to(&short), "a member past the other's end");
        assert!(short.adds_to(&long));
        let mut a = short.clone();
        assert_eq!(a.union_with(&long), 1);
        assert_eq!(a.union_with(&long), 0, "second union adds nothing");
        assert!(a.iter().eq([1, 5, 300]));
        let mut b = long.clone();
        assert_eq!(b.union_with(&short), 1);
        assert_eq!(a, b);
        assert!(!short.adds_to(&a) && !long.adds_to(&a));
        // Trailing zero words are not members.
        let mut grown = short.clone();
        grown.insert(500);
        grown.remove(500);
        assert_eq!(grown, short);
        assert_eq!(short, grown);
        assert!(!grown.adds_to(&short));
        assert_eq!(BitSet::<usize>::with_capacity(1000), BitSet::new());
    }
}
