//! The line-number table (`.debug_line` analogue).

use std::collections::BTreeSet;

/// One row of the line table: from `addr` (inclusive) until the next
/// row's address, the code corresponds to source `line`.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct LineRow {
    pub addr: u32,
    /// 0 means "no source line" (compiler-generated or ambiguous code,
    /// DWARF's line-0 convention); such rows are not steppable.
    pub line: u32,
    /// Recommended breakpoint location for the line.
    pub is_stmt: bool,
}

/// A program-wide line-number table, rows sorted by address.
#[derive(Debug, Clone, Default, PartialEq, Eq, Hash)]
pub struct LineTable {
    rows: Vec<LineRow>,
}

impl LineTable {
    /// An empty table.
    pub fn new() -> Self {
        Self::default()
    }

    /// Appends a row. Rows must be appended in address order; a row at
    /// an existing address replaces the previous entry (last write
    /// wins, as when the assembler merges directives).
    pub fn push(&mut self, row: LineRow) {
        if let Some(last) = self.rows.last_mut() {
            assert!(
                row.addr >= last.addr,
                "line-table rows must be appended in address order"
            );
            if last.addr == row.addr {
                *last = row;
                return;
            }
            // Coalesce consecutive rows with identical line info.
            if last.line == row.line && last.is_stmt == row.is_stmt {
                return;
            }
        }
        self.rows.push(row);
    }

    /// All rows, in address order.
    pub fn rows(&self) -> &[LineRow] {
        &self.rows
    }

    /// The source line for `addr`: the attribution of the last row at
    /// or before it. Returns `None` when the address precedes the table
    /// or falls in a line-0 region.
    pub fn line_at(&self, addr: u32) -> Option<u32> {
        let idx = self.rows.partition_point(|r| r.addr <= addr);
        if idx == 0 {
            return None;
        }
        let line = self.rows[idx - 1].line;
        (line != 0).then_some(line)
    }

    /// The set of distinct (non-zero) lines present in the table —
    /// DWARF's notion of *steppable lines*.
    pub fn steppable_lines(&self) -> BTreeSet<u32> {
        self.rows
            .iter()
            .filter(|r| r.line != 0 && r.is_stmt)
            .map(|r| r.line)
            .collect()
    }

    /// Number of rows.
    pub fn len(&self) -> usize {
        self.rows.len()
    }

    /// Whether the table is empty.
    pub fn is_empty(&self) -> bool {
        self.rows.is_empty()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn table(rows: &[(u32, u32, bool)]) -> LineTable {
        let mut t = LineTable::new();
        for &(addr, line, is_stmt) in rows {
            t.push(LineRow {
                addr,
                line,
                is_stmt,
            });
        }
        t
    }

    #[test]
    fn line_lookup_uses_last_row_at_or_before() {
        let t = table(&[(0, 10, true), (8, 11, true), (20, 12, true)]);
        assert_eq!(t.line_at(0), Some(10));
        assert_eq!(t.line_at(7), Some(10));
        assert_eq!(t.line_at(8), Some(11));
        assert_eq!(t.line_at(100), Some(12));
    }

    #[test]
    fn line_zero_regions_yield_none() {
        let t = table(&[(0, 10, true), (8, 0, false), (16, 11, true)]);
        assert_eq!(t.line_at(9), None);
        assert_eq!(t.line_at(16), Some(11));
    }

    #[test]
    fn steppable_lines_exclude_zero_and_non_stmt() {
        let t = table(&[(0, 10, true), (4, 0, false), (8, 11, false), (12, 12, true)]);
        let lines = t.steppable_lines();
        assert!(lines.contains(&10));
        assert!(!lines.contains(&11), "non-is_stmt rows are not steppable");
        assert!(lines.contains(&12));
    }

    #[test]
    fn same_address_replaces() {
        let mut t = table(&[(0, 10, true)]);
        t.push(LineRow {
            addr: 0,
            line: 99,
            is_stmt: true,
        });
        assert_eq!(t.rows().len(), 1);
        assert_eq!(t.line_at(0), Some(99));
    }

    #[test]
    fn consecutive_identical_rows_coalesce() {
        let t = table(&[(0, 10, true), (4, 10, true), (8, 11, true)]);
        assert_eq!(t.len(), 2);
    }

    #[test]
    #[should_panic(expected = "address order")]
    fn out_of_order_push_panics() {
        let mut t = table(&[(8, 10, true)]);
        t.push(LineRow {
            addr: 0,
            line: 1,
            is_stmt: true,
        });
    }
}
