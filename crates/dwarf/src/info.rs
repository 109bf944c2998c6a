//! Variable and subprogram records plus the whole-binary `DebugInfo`.

use crate::line::LineTable;
use crate::loc::LocList;
use std::collections::BTreeSet;

/// A `DW_TAG_subprogram` analogue: one function's code extent.
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
pub struct SubprogramRecord {
    pub name: String,
    /// First code address (inclusive).
    pub low_pc: u32,
    /// One past the last code address.
    pub high_pc: u32,
    pub decl_line: u32,
    /// Frame size in words (locals + spills), for frame-slot locations.
    pub frame_size: u32,
}

/// A `DW_TAG_variable` / `DW_TAG_formal_parameter` analogue.
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
pub struct VarRecord {
    pub name: String,
    /// Index into [`DebugInfo::subprograms`] of the owning function.
    pub subprogram: u32,
    pub decl_line: u32,
    pub is_param: bool,
    pub loclist: LocList,
}

/// All debug information of one binary.
#[derive(Debug, Clone, Default, PartialEq, Eq, Hash)]
pub struct DebugInfo {
    pub subprograms: Vec<SubprogramRecord>,
    pub vars: Vec<VarRecord>,
    pub line_table: LineTable,
}

impl DebugInfo {
    /// The subprogram containing `addr`, if any.
    pub fn subprogram_at(&self, addr: u32) -> Option<(usize, &SubprogramRecord)> {
        self.subprograms
            .iter()
            .enumerate()
            .find(|(_, s)| s.low_pc <= addr && addr < s.high_pc)
    }

    /// The subprogram named `name`.
    pub fn subprogram(&self, name: &str) -> Option<(usize, &SubprogramRecord)> {
        self.subprograms
            .iter()
            .enumerate()
            .find(|(_, s)| s.name == name)
    }

    /// Iterates over the variables of subprogram index `sp`.
    pub fn vars_of(&self, sp: usize) -> impl Iterator<Item = &VarRecord> {
        self.vars
            .iter()
            .filter(move |v| v.subprogram as usize == sp)
    }

    /// The set of steppable lines (distinct non-zero `is_stmt` lines in
    /// the line table).
    pub fn steppable_lines(&self) -> BTreeSet<u32> {
        self.line_table.steppable_lines()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::line::LineRow;

    fn sample() -> DebugInfo {
        let mut line_table = LineTable::new();
        line_table.push(LineRow {
            addr: 0,
            line: 2,
            is_stmt: true,
        });
        line_table.push(LineRow {
            addr: 10,
            line: 3,
            is_stmt: true,
        });
        DebugInfo {
            subprograms: vec![
                SubprogramRecord {
                    name: "f".into(),
                    low_pc: 0,
                    high_pc: 20,
                    decl_line: 1,
                    frame_size: 2,
                },
                SubprogramRecord {
                    name: "g".into(),
                    low_pc: 20,
                    high_pc: 30,
                    decl_line: 8,
                    frame_size: 0,
                },
            ],
            vars: vec![VarRecord {
                name: "x".into(),
                subprogram: 0,
                decl_line: 2,
                is_param: false,
                loclist: LocList::new(),
            }],
            line_table,
        }
    }

    #[test]
    fn subprogram_lookup_by_addr() {
        let d = sample();
        assert_eq!(d.subprogram_at(5).unwrap().1.name, "f");
        assert_eq!(d.subprogram_at(20).unwrap().1.name, "g");
        assert!(d.subprogram_at(30).is_none());
    }

    #[test]
    fn vars_of_filters_by_subprogram() {
        let d = sample();
        assert_eq!(d.vars_of(0).count(), 1);
        assert_eq!(d.vars_of(1).count(), 0);
    }

    #[test]
    fn steppable_lines_from_table() {
        let d = sample();
        let lines = d.steppable_lines();
        assert_eq!(lines.into_iter().collect::<Vec<_>>(), vec![2, 3]);
    }
}
