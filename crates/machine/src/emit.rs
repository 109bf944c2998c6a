//! Object assembly: concatenation, address assignment, `.text`
//! encoding, and debug-section construction.
//!
//! The debug sections are *derived* from the final code stream:
//!
//! * **line table** — one row per change of line attribution along the
//!   address space. Instructions with `line == 0` open a line-0 region
//!   (not steppable), exactly like DWARF's line-0 convention for
//!   compiler-generated or ambiguous code.
//! * **location lists** — built by scanning the stream and tracking,
//!   per variable, the location asserted by the last `dbg.value`
//!   pseudo. A register location dies when the register is redefined
//!   or clobbered by a call; slot and constant locations survive until
//!   the next `dbg.value`. Holes in the resulting lists are precisely
//!   the availability loss the paper measures.

use crate::mir::{MFunction, MVarInfo};
use crate::object::{FDbgLoc, FInst, FOp, FuncInfo, Object};
use crate::regalloc::allocate;
use crate::BackendConfig;
use dt_dwarf::{
    DebugInfo, LineRow, LineTable, LocList, LocRange, Location, SubprogramRecord, VarRecord,
};

impl FOp {
    /// The physical register defined by this final op, if any.
    pub fn def_reg(&self) -> Option<u8> {
        match self {
            FOp::Imm { rd, .. }
            | FOp::Mov { rd, .. }
            | FOp::Un { rd, .. }
            | FOp::Bin { rd, .. }
            | FOp::BinImm { rd, .. }
            | FOp::Select { rd, .. }
            | FOp::LdSlot { rd, .. }
            | FOp::LdIdx { rd, .. }
            | FOp::LdG { rd, .. }
            | FOp::LdGIdx { rd, .. }
            | FOp::GetArg { rd, .. }
            | FOp::In { rd, .. }
            | FOp::InLen { rd } => Some(*rd),
            _ => None,
        }
    }
}

/// One function's finished code plus what assembly reads about it.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct FunctionCode {
    pub name: String,
    /// Allocated, linearized code; jump targets are function-local
    /// instruction indices.
    pub insts: Vec<FInst>,
    /// Frame size in words.
    pub frame_size: u32,
    pub nparams: u32,
    pub shrink_wrapped: bool,
    pub decl_line: u32,
    pub vars: Vec<MVarInfo>,
    /// What `toplevel-reorder` sorts by ([`crate::opt::function_size`]).
    pub size: usize,
}

impl FunctionCode {
    /// Allocates registers for an optimized machine function.
    pub fn allocate(f: &MFunction, share_spill_slots: bool) -> Self {
        let res = allocate(f, share_spill_slots);
        FunctionCode {
            name: f.name.clone(),
            insts: res.insts,
            frame_size: res.frame_size,
            nparams: f.nparams,
            shrink_wrapped: f.shrink_wrapped,
            decl_line: f.decl_line,
            vars: f.vars.clone(),
            size: crate::opt::function_size(f),
        }
    }

    /// Function `fi`'s code as assembly put it into `object`, given its
    /// `toplevel-reorder` size: the inverse of assembly for one
    /// function, so a build that keeps the object need not keep the
    /// code a second time.
    pub fn from_object(object: &Object, fi: usize, size: usize) -> Self {
        let info = &object.funcs[fi];
        let offset = info.start_index;
        let insts = object.code[info.start_index as usize..info.end_index as usize]
            .iter()
            .map(|inst| {
                let mut inst = inst.clone();
                match &mut inst.op {
                    FOp::Jmp { target } | FOp::JCond { target, .. } => *target -= offset,
                    _ => {}
                }
                inst
            })
            .collect();
        let vars = object
            .debug
            .vars_of(fi)
            .map(|v| MVarInfo {
                name: v.name.clone(),
                is_param: v.is_param,
                decl_line: v.decl_line,
            })
            .collect();
        FunctionCode {
            name: info.name.clone(),
            insts,
            frame_size: info.frame_size,
            nparams: info.nparams,
            shrink_wrapped: info.shrink_wrapped,
            decl_line: info.decl_line,
            vars,
            size,
        }
    }
}

/// Assembles the functions' code (indexed by function id) into an
/// [`Object`]: emission `order` (sorted by `toplevel-reorder` when the
/// configuration enables it), concatenation, address assignment,
/// `.text` encoding and the debug sections.
pub(crate) fn assemble(
    funcs: &[&FunctionCode],
    mut order: Vec<u32>,
    globals: Vec<(u32, u32, i64)>,
    globals_size: u32,
    config: &BackendConfig,
) -> Object {
    if config.toplevel_reorder {
        let sizes: Vec<usize> = funcs.iter().map(|f| f.size).collect();
        crate::opt::reorder_functions(&mut order, &sizes);
    }
    let total_insts = order.iter().map(|&fi| funcs[fi as usize].insts.len()).sum();
    let mut code: Vec<FInst> = Vec::with_capacity(total_insts);
    let mut func_infos: Vec<Option<FuncInfo>> = vec![None; funcs.len()];
    let mut func_ranges: Vec<(u32, usize, usize)> = Vec::new(); // (func id, start, end)

    for &fi in &order {
        let f = funcs[fi as usize];
        let offset = code.len() as u32;
        code.extend(f.insts.iter().map(|inst| {
            let mut inst = inst.clone();
            match &mut inst.op {
                FOp::Jmp { target } | FOp::JCond { target, .. } => *target += offset,
                _ => {}
            }
            inst
        }));
        let end = code.len();
        func_infos[fi as usize] = Some(FuncInfo {
            name: f.name.clone(),
            start_index: offset,
            end_index: end as u32,
            low_pc: 0,  // filled after address assignment
            high_pc: 0, // filled after address assignment
            frame_size: f.frame_size,
            nparams: f.nparams,
            shrink_wrapped: f.shrink_wrapped,
            decl_line: f.decl_line,
        });
        func_ranges.push((fi, offset as usize, end));
    }

    // Address assignment.
    let mut addrs = Vec::with_capacity(code.len());
    let mut addr = 0u32;
    for inst in &code {
        addrs.push(addr);
        addr += inst.encoded_size();
    }
    let total = addr;
    for (fi, start, end) in &func_ranges {
        let info = func_infos[*fi as usize].as_mut().unwrap();
        info.low_pc = addrs[*start];
        info.high_pc = if *end < addrs.len() {
            addrs[*end]
        } else {
            total
        };
    }

    // `.text` encoding.
    let mut text = Vec::with_capacity(total as usize);
    for inst in &code {
        let addrs_ref = &addrs;
        inst.encode(&mut text, &|idx: u32| addrs_ref[idx as usize]);
    }

    let infos: Vec<FuncInfo> = func_infos.into_iter().map(Option::unwrap).collect();
    let debug = build_debug_info(funcs, &code, &addrs, &infos, &func_ranges, config);

    Object {
        code,
        addrs,
        funcs: infos,
        text: text.into(),
        debug,
        globals,
        globals_size,
    }
}

fn build_debug_info(
    code_of: &[&FunctionCode],
    code: &[FInst],
    addrs: &[u32],
    funcs: &[FuncInfo],
    func_ranges: &[(u32, usize, usize)],
    config: &BackendConfig,
) -> DebugInfo {
    // Subprograms, indexed by module function id.
    let subprograms: Vec<SubprogramRecord> = funcs
        .iter()
        .map(|f| SubprogramRecord {
            name: f.name.clone(),
            low_pc: f.low_pc,
            high_pc: f.high_pc,
            decl_line: f.decl_line,
            frame_size: f.frame_size,
        })
        .collect();

    // Line table: walk the code stream in address order (= emission
    // order) and record attribution changes.
    let mut line_table = LineTable::new();
    for (fi, start, end) in func_ranges {
        let f = code_of[*fi as usize];
        let low_pc = funcs[*fi as usize].low_pc;
        // Function-entry row (the function's header line). The
        // `toplevel-reorder` pass drops these, losing one steppable
        // line per function (our model of its debug cost).
        if !config.toplevel_reorder {
            line_table.push(LineRow {
                addr: low_pc,
                line: f.decl_line,
                is_stmt: true,
            });
        } else {
            line_table.push(LineRow {
                addr: low_pc,
                line: 0,
                is_stmt: false,
            });
        }
        let mut prev: Option<(u32, bool)> = Some(if config.toplevel_reorder {
            (0, false)
        } else {
            (f.decl_line, true)
        });
        for i in *start..*end {
            if matches!(code[i].op, FOp::Dbg { .. }) {
                continue;
            }
            let attribution = (code[i].line, code[i].stmt && code[i].line != 0);
            // Synthetic code at the very top of the function keeps the
            // prologue's decl-line attribution (as real compilers do).
            if addrs[i] == low_pc && attribution.0 == 0 {
                continue;
            }
            if prev != Some(attribution) {
                line_table.push(LineRow {
                    addr: addrs[i],
                    line: attribution.0,
                    is_stmt: attribution.1,
                });
                prev = Some(attribution);
            }
        }
    }

    // Location lists: per function, track the open location of each
    // variable.
    let mut vars: Vec<VarRecord> = Vec::new();
    for (fi, start, end) in func_ranges {
        let f = code_of[*fi as usize];
        let nvars = f.vars.len();
        let mut lists: Vec<LocList> = vec![LocList::new(); nvars];
        // (location, open-start address) per variable.
        let mut open: Vec<Option<(Location, u32)>> = vec![None; nvars];
        let func_end = funcs[*fi as usize].high_pc;

        let close = |v: usize,
                     at: u32,
                     open: &mut Vec<Option<(Location, u32)>>,
                     lists: &mut Vec<LocList>| {
            if let Some((loc, lo)) = open[v].take() {
                lists[v].push(LocRange { lo, hi: at, loc });
            }
        };

        for i in *start..*end {
            let at = addrs[i];
            match &code[i].op {
                FOp::Dbg { var, loc } => {
                    let v = *var as usize;
                    if v >= nvars {
                        continue;
                    }
                    close(v, at, &mut open, &mut lists);
                    let new_loc = match loc {
                        FDbgLoc::Reg(p) => Some(Location::Reg(*p)),
                        FDbgLoc::Slot(off) => Some(Location::FrameSlot(*off)),
                        FDbgLoc::Const(c) => Some(Location::Const(*c)),
                        FDbgLoc::Undef => None,
                    };
                    if let Some(l) = new_loc {
                        open[v] = Some((l, at));
                    }
                }
                FOp::CallF { .. } => {
                    // All registers are caller-saved: register
                    // locations die across calls.
                    for v in 0..nvars {
                        if matches!(open[v], Some((Location::Reg(_), _))) {
                            close(v, at, &mut open, &mut lists);
                        }
                    }
                }
                op => {
                    if let Some(d) = op.def_reg() {
                        for v in 0..nvars {
                            if matches!(open[v], Some((Location::Reg(p), _)) if p == d) {
                                close(v, at, &mut open, &mut lists);
                            }
                        }
                    }
                }
            }
        }
        for v in 0..nvars {
            close(v, func_end, &mut open, &mut lists);
        }
        for (v, list) in lists.into_iter().enumerate() {
            vars.push(VarRecord {
                name: f.vars[v].name.clone(),
                subprogram: *fi,
                decl_line: f.vars[v].decl_line,
                is_param: f.vars[v].is_param,
                loclist: list,
            });
        }
    }

    DebugInfo {
        subprograms,
        vars,
        line_table,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::lower::lower_module;
    use crate::mir::MModule;

    /// Allocates every function of a lowered module and assembles it.
    fn emit_module(mmod: &MModule, config: &BackendConfig) -> Object {
        let code: Vec<FunctionCode> = mmod
            .funcs
            .iter()
            .map(|f| FunctionCode::allocate(f, config.share_spill_slots))
            .collect();
        let code: Vec<&FunctionCode> = code.iter().collect();
        assemble(
            &code,
            mmod.order.clone(),
            mmod.globals.clone(),
            mmod.globals_size,
            config,
        )
    }

    fn emit(src: &str) -> Object {
        let m = dt_frontend::lower_source(src).unwrap();
        let mm = lower_module(&m);
        emit_module(&mm, &BackendConfig::default())
    }

    #[test]
    fn addresses_are_monotone_and_match_sizes() {
        let obj = emit("int f(int x) { int y = x * 2; return y + 1; }");
        let mut expect = 0;
        for (i, inst) in obj.code.iter().enumerate() {
            assert_eq!(obj.addrs[i], expect);
            expect += inst.encoded_size();
        }
        assert_eq!(obj.text.len() as u32, expect);
    }

    #[test]
    fn functions_get_contiguous_pc_ranges() {
        let obj = emit("int f() { return 1; }\nint g() { return 2; }");
        let (_, f) = obj.func_by_name("f").unwrap();
        let (_, g) = obj.func_by_name("g").unwrap();
        assert_eq!(f.high_pc, g.low_pc);
        assert!(f.low_pc < f.high_pc);
        assert_eq!(g.high_pc as usize, obj.text.len());
    }

    #[test]
    fn line_table_covers_source_lines() {
        let obj = emit("int f() {\nint x = 1;\nint y = 2;\nout(x + y);\nreturn 0;\n}");
        let lines = obj.debug.line_table.steppable_lines();
        for l in [2u32, 3, 4, 5] {
            assert!(lines.contains(&l), "line {l} missing from {lines:?}");
        }
    }

    #[test]
    fn o0_variables_have_slot_locations_spanning_function() {
        let obj = emit("int f() {\nint x = 5;\nout(x);\nreturn x;\n}");
        let (idx, info) = obj.func_by_name("f").unwrap();
        let x = obj
            .debug
            .vars_of(idx as usize)
            .find(|v| v.name == "x")
            .expect("x has a record");
        // At O0 the variable lives in its home slot until function end.
        let covered = x.loclist.covered_len();
        let span = info.high_pc - info.low_pc;
        assert!(
            covered * 2 >= span,
            "O0 slot location should cover most of the function ({covered} of {span})"
        );
        assert!(matches!(
            x.loclist.ranges().last().unwrap().loc,
            Location::FrameSlot(_)
        ));
    }

    #[test]
    fn params_visible_from_function_start() {
        let obj = emit("int f(int a) {\nreturn a + 1;\n}");
        let (idx, info) = obj.func_by_name("f").unwrap();
        let a = obj
            .debug
            .vars_of(idx as usize)
            .find(|v| v.name == "a")
            .unwrap();
        assert!(a.is_param);
        let first = a.loclist.ranges()[0];
        assert!(first.lo <= info.low_pc + 16, "param available early");
    }

    #[test]
    fn text_comparison_detects_identical_builds() {
        let obj1 = emit("int f() { return 1; }");
        let obj2 = emit("int f() { return 1; }");
        assert!(obj1.text_eq(&obj2));
        let obj3 = emit("int f() { return 2; }");
        assert!(!obj1.text_eq(&obj3));
    }

    /// Reading a function's code back out of the object gives the code
    /// assembly put in, under every emission order.
    #[test]
    fn function_code_round_trips_through_the_object() {
        let src = "int g;\nint f(int x) { int s = 0; while (x > 0) { s += x; x -= 1; } g = s; return s; }\n\
                   int h(int a) { if (a > 1) { return f(a) + 1; } return 0; }\nint k() { return h(3); }";
        let m = dt_frontend::lower_source(src).unwrap();
        for config in [
            BackendConfig::default(),
            BackendConfig {
                toplevel_reorder: true,
                layout: true,
                ..BackendConfig::default()
            },
        ] {
            let code = crate::backend_code(&m, &config);
            let obj = crate::run_backend(&m, &config);
            for (fi, c) in code.iter().enumerate() {
                assert_eq!(&FunctionCode::from_object(&obj, fi, c.size), c);
            }
        }
    }

    #[test]
    fn index_of_addr_finds_instructions() {
        let obj = emit("int f() { int x = 1; return x; }");
        for (i, &a) in obj.addrs.iter().enumerate() {
            if matches!(obj.code[i].op, FOp::Dbg { .. }) {
                continue;
            }
            let found = obj.index_of_addr(a).unwrap();
            assert_eq!(obj.addrs[found], a);
            assert!(!matches!(obj.code[found].op, FOp::Dbg { .. }));
        }
        assert_eq!(obj.index_of_addr(0xffff_0000), None);
    }
}
