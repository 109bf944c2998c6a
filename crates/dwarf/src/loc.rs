//! Variable location lists (`.debug_loc` analogue).

/// Where a variable's value lives over some address range.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Location {
    /// A physical register.
    Reg(u8),
    /// A frame slot (word offset from the frame base).
    FrameSlot(u32),
    /// A word offset in the global data area.
    Global(u32),
    /// The value is a known constant (`DW_OP_const` location).
    Const(i64),
}

/// A half-open address range `[lo, hi)` with a location.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct LocRange {
    pub lo: u32,
    pub hi: u32,
    pub loc: Location,
}

/// A variable's location list: disjoint ranges sorted by `lo`. Gaps
/// mean the variable is unavailable there (the "holes" of the paper).
#[derive(Debug, Clone, Default, PartialEq, Eq, Hash)]
pub struct LocList {
    ranges: Vec<LocRange>,
}

impl LocList {
    /// An empty list (variable never available).
    pub fn new() -> Self {
        Self::default()
    }

    /// Appends a range. Ranges must be appended in address order and
    /// must not overlap; empty ranges are ignored. Adjacent ranges with
    /// the same location are merged.
    pub fn push(&mut self, r: LocRange) {
        if r.lo >= r.hi {
            return;
        }
        if let Some(last) = self.ranges.last_mut() {
            assert!(
                r.lo >= last.hi,
                "location ranges must be disjoint and ordered"
            );
            if last.hi == r.lo && last.loc == r.loc {
                last.hi = r.hi;
                return;
            }
        }
        self.ranges.push(r);
    }

    /// The ranges of the list.
    pub fn ranges(&self) -> &[LocRange] {
        &self.ranges
    }

    /// The location of the variable at `addr`, if covered.
    pub fn at(&self, addr: u32) -> Option<Location> {
        let idx = self.ranges.partition_point(|r| r.lo <= addr);
        if idx == 0 {
            return None;
        }
        let r = self.ranges[idx - 1];
        (addr < r.hi).then_some(r.loc)
    }

    /// Whether the list is empty.
    pub fn is_empty(&self) -> bool {
        self.ranges.is_empty()
    }

    /// Total number of addresses covered.
    pub fn covered_len(&self) -> u32 {
        self.ranges.iter().map(|r| r.hi - r.lo).sum()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn lookup_inside_and_outside_ranges() {
        let mut l = LocList::new();
        l.push(LocRange {
            lo: 0,
            hi: 8,
            loc: Location::Reg(3),
        });
        l.push(LocRange {
            lo: 16,
            hi: 24,
            loc: Location::FrameSlot(2),
        });
        assert_eq!(l.at(0), Some(Location::Reg(3)));
        assert_eq!(l.at(7), Some(Location::Reg(3)));
        assert_eq!(l.at(8), None, "hi is exclusive");
        assert_eq!(l.at(12), None, "hole");
        assert_eq!(l.at(16), Some(Location::FrameSlot(2)));
        assert_eq!(l.covered_len(), 16);
    }

    #[test]
    fn empty_ranges_dropped_and_adjacent_merged() {
        let mut l = LocList::new();
        l.push(LocRange {
            lo: 4,
            hi: 4,
            loc: Location::Reg(0),
        });
        assert!(l.is_empty());
        l.push(LocRange {
            lo: 0,
            hi: 4,
            loc: Location::Reg(1),
        });
        l.push(LocRange {
            lo: 4,
            hi: 8,
            loc: Location::Reg(1),
        });
        assert_eq!(l.ranges().len(), 1);
        assert_eq!(l.covered_len(), 8);
    }

    #[test]
    #[should_panic(expected = "disjoint")]
    fn overlapping_push_panics() {
        let mut l = LocList::new();
        l.push(LocRange {
            lo: 0,
            hi: 8,
            loc: Location::Reg(0),
        });
        l.push(LocRange {
            lo: 4,
            hi: 12,
            loc: Location::Reg(1),
        });
    }

    proptest::proptest! {
        #[test]
        fn at_agrees_with_linear_scan(parts in proptest::collection::vec((0u32..6, 1u32..10), 1..20), probe in 0u32..200) {
            let mut l = LocList::new();
            let mut cursor = 0u32;
            for (i, (gap, len)) in parts.iter().enumerate() {
                let lo = cursor + gap;
                let hi = lo + len;
                cursor = hi;
                l.push(LocRange { lo, hi, loc: Location::Reg((i % 16) as u8) });
            }
            let expect = l.ranges().iter().find(|r| r.lo <= probe && probe < r.hi).map(|r| r.loc);
            proptest::prop_assert_eq!(l.at(probe), expect);
        }
    }
}
