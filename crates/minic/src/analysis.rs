//! Static source analysis: variable definition ranges.
//!
//! This is the source-level half of the paper's *hybrid* measurement
//! method (Section II): for every function it computes, per variable,
//! the range of source lines on which the variable is in scope and can
//! hold a value. During metric computation these ranges are used to
//! refine the unoptimized baseline trace, discarding variables that a
//! debugger shows (because O0 DWARF gives them whole-function location
//! ranges) but that the *source* says are not yet defined or already
//! out of scope.
//!
//! Conventions:
//! * a variable's range starts at its declaration line if it has an
//!   initializer, otherwise at its first assignment line;
//! * the range ends at the last line of the lexical block that declares
//!   it (for parameters: the function's closing brace);
//! * global variables are not tracked — their debug information is
//!   position-independent and never degraded by the optimizations under
//!   study, so the paper's availability metric concerns locals and
//!   parameters only.

use crate::ast::*;
use std::collections::{BTreeSet, HashMap};

/// The definition range of one local variable or parameter.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct VarDef {
    pub name: String,
    /// Line of the declaration (`int x ...` or the parameter list line).
    pub decl_line: u32,
    /// First line at which the variable holds a value.
    pub defined_from: u32,
    /// Last line of the enclosing lexical scope.
    pub scope_end: u32,
    pub is_param: bool,
    pub is_array: bool,
}

impl VarDef {
    /// Whether the variable is defined and in scope at `line`.
    pub fn covers(&self, line: u32) -> bool {
        line >= self.defined_from && line <= self.scope_end
    }
}

/// Per-function results of the static source analysis.
#[derive(Debug, Clone)]
pub struct FuncAnalysis {
    pub name: String,
    /// Line of the function header.
    pub line: u32,
    /// Line of the closing brace.
    pub end_line: u32,
    pub vars: Vec<VarDef>,
    /// Lines that carry a statement (the static "lines with code" set).
    pub code_lines: BTreeSet<u32>,
}

impl FuncAnalysis {
    /// Returns the definition range of `var`, if it exists.
    pub fn var(&self, name: &str) -> Option<&VarDef> {
        self.vars.iter().find(|v| v.name == name)
    }

    /// Iterates over the variables defined and in scope at `line`.
    pub fn defined_at(&self, line: u32) -> impl Iterator<Item = &VarDef> {
        self.vars.iter().filter(move |v| v.covers(line))
    }
}

/// Whole-program static source analysis.
#[derive(Debug, Clone, Default)]
pub struct SourceAnalysis {
    funcs: HashMap<String, FuncAnalysis>,
}

impl SourceAnalysis {
    /// Analyzes `program`.
    pub fn of(program: &Program) -> Self {
        let funcs = program
            .functions()
            .map(|f| (f.name.clone(), analyze_function(f)))
            .collect();
        SourceAnalysis { funcs }
    }

    /// Returns the analysis for function `name`.
    pub fn function(&self, name: &str) -> Option<&FuncAnalysis> {
        self.funcs.get(name)
    }

    /// Iterates over all analyzed functions.
    pub fn functions(&self) -> impl Iterator<Item = &FuncAnalysis> {
        self.funcs.values()
    }

    /// Names of the variables defined and in scope at `line` of `func`.
    pub fn defined_at<'a>(&'a self, func: &str, line: u32) -> impl Iterator<Item = &'a str> + 'a {
        self.funcs
            .get(func)
            .into_iter()
            .flat_map(move |fa| fa.defined_at(line).map(|v| v.name.as_str()))
    }
}

fn analyze_function(f: &Function) -> FuncAnalysis {
    let mut vars: Vec<VarDef> = f
        .params
        .iter()
        .map(|p| VarDef {
            name: p.name.clone(),
            decl_line: p.line,
            defined_from: p.line,
            scope_end: f.end_line,
            is_param: true,
            is_array: false,
        })
        .collect();
    let mut code_lines = BTreeSet::new();
    collect_block(&f.body, f.end_line, &mut vars, &mut code_lines);

    // A variable declared without an initializer becomes defined at its
    // first assignment; find those assignment lines.
    let mut first_assign: HashMap<&str, u32> = HashMap::new();
    walk_stmts(&f.body, &mut |stmt| {
        if let StmtKind::Assign { name, .. } = &stmt.kind {
            let e = first_assign.entry(name).or_insert(stmt.line);
            *e = (*e).min(stmt.line);
        }
    });
    for v in &mut vars {
        if v.defined_from == u32::MAX {
            v.defined_from = match first_assign.get(v.name.as_str()) {
                // Defined from the first assignment (if it is inside the
                // scope); otherwise the variable never holds a value.
                Some(&l) if l >= v.decl_line && l <= v.scope_end => l,
                _ => v.scope_end + 1, // empty range
            };
        }
    }

    FuncAnalysis {
        name: f.name.clone(),
        line: f.line,
        end_line: f.end_line,
        vars,
        code_lines,
    }
}

/// Recursively collects declarations and code lines from a statement
/// list whose enclosing scope ends at `scope_end`.
fn collect_block(
    stmts: &[Stmt],
    scope_end: u32,
    vars: &mut Vec<VarDef>,
    code_lines: &mut BTreeSet<u32>,
) {
    // The lexical scope of a declaration in this list ends at the last
    // line occupied by the list itself (approximating the closing brace
    // of the block that contains it).
    let block_end = stmts
        .iter()
        .map(stmt_span_end)
        .max()
        .unwrap_or(0)
        .min(scope_end);
    let block_end = if block_end == 0 { scope_end } else { block_end };

    for stmt in stmts {
        code_lines.insert(stmt.line);
        match &stmt.kind {
            StmtKind::Decl { name, init } => {
                vars.push(VarDef {
                    name: name.clone(),
                    decl_line: stmt.line,
                    defined_from: if init.is_some() { stmt.line } else { u32::MAX },
                    scope_end: block_end,
                    is_param: false,
                    is_array: false,
                });
            }
            StmtKind::ArrayDecl { name, .. } => {
                vars.push(VarDef {
                    name: name.clone(),
                    decl_line: stmt.line,
                    // Arrays are usable (zero-initialized) immediately.
                    defined_from: stmt.line,
                    scope_end: block_end,
                    is_param: false,
                    is_array: true,
                });
            }
            StmtKind::If {
                then_branch,
                else_branch,
                ..
            } => {
                collect_block(then_branch, block_end, vars, code_lines);
                collect_block(else_branch, block_end, vars, code_lines);
            }
            StmtKind::While { body, .. } | StmtKind::DoWhile { body, .. } => {
                collect_block(body, block_end, vars, code_lines);
            }
            StmtKind::For {
                init, step, body, ..
            } => {
                let loop_end = stmt_span_end(stmt).min(block_end);
                if let Some(s) = init {
                    // A `for`-header declaration is scoped to the loop,
                    // not to the single-statement "block" it forms.
                    code_lines.insert(s.line);
                    match &s.kind {
                        StmtKind::Decl { name, init: ival } => vars.push(VarDef {
                            name: name.clone(),
                            decl_line: s.line,
                            defined_from: if ival.is_some() { s.line } else { u32::MAX },
                            scope_end: loop_end,
                            is_param: false,
                            is_array: false,
                        }),
                        StmtKind::ArrayDecl { name, .. } => vars.push(VarDef {
                            name: name.clone(),
                            decl_line: s.line,
                            defined_from: s.line,
                            scope_end: loop_end,
                            is_param: false,
                            is_array: true,
                        }),
                        _ => {}
                    }
                }
                if let Some(s) = step {
                    code_lines.insert(s.line);
                }
                collect_block(body, loop_end, vars, code_lines);
            }
            StmtKind::Block(body) => {
                collect_block(body, block_end, vars, code_lines);
            }
            _ => {}
        }
    }
}

/// The maximum source line occupied by `stmt`, including nested bodies.
fn stmt_span_end(stmt: &Stmt) -> u32 {
    let mut max = stmt.line;
    walk_stmts(std::slice::from_ref(stmt), &mut |s| {
        max = max.max(s.line);
    });
    max
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::parser::parse;

    fn analyze(src: &str) -> SourceAnalysis {
        SourceAnalysis::of(&parse(src).unwrap())
    }

    const SAMPLE: &str = "\
int f(int n) {
    int acc = 0;
    int tmp;
    if (n > 0) {
        tmp = n * 2;
        acc = acc + tmp;
    }
    return acc;
}";

    #[test]
    fn param_spans_whole_function() {
        let a = analyze(SAMPLE);
        let f = a.function("f").unwrap();
        let n = f.var("n").unwrap();
        assert!(n.is_param);
        assert_eq!(n.defined_from, 1);
        assert_eq!(n.scope_end, 9);
    }

    #[test]
    fn initialized_var_defined_from_decl() {
        let a = analyze(SAMPLE);
        let acc = a.function("f").unwrap().var("acc").unwrap();
        assert_eq!(acc.defined_from, 2);
        assert!(acc.covers(8));
        assert!(!acc.covers(1));
    }

    #[test]
    fn uninitialized_var_defined_from_first_assignment() {
        let a = analyze(SAMPLE);
        let tmp = a.function("f").unwrap().var("tmp").unwrap();
        assert_eq!(tmp.decl_line, 3);
        assert_eq!(tmp.defined_from, 5);
        assert!(!tmp.covers(4));
        assert!(tmp.covers(5));
    }

    #[test]
    fn never_assigned_var_has_empty_range() {
        let a = analyze("int f() {\nint dead;\nreturn 0;\n}");
        let dead = a.function("f").unwrap().var("dead").unwrap();
        assert!(!dead.covers(2));
        assert!(!dead.covers(3));
    }

    #[test]
    fn block_scoped_var_ends_with_block() {
        let a = analyze("int f() {\nint x = 1;\n{\nint y = 2;\nx = y;\n}\nreturn x;\n}");
        let f = a.function("f").unwrap();
        let y = f.var("y").unwrap();
        assert!(y.covers(5));
        assert!(!y.covers(7), "y must not cover the return line");
    }

    #[test]
    fn for_header_var_scoped_to_loop() {
        let a = analyze(
            "int f() {\nint s = 0;\nfor (int i = 0; i < 4; i++) {\ns += i;\n}\nreturn s;\n}",
        );
        let i = a.function("f").unwrap().var("i").unwrap();
        assert!(i.covers(4));
        assert!(!i.covers(6));
    }

    #[test]
    fn code_lines_collected() {
        let a = analyze(SAMPLE);
        let f = a.function("f").unwrap();
        assert!(f.code_lines.contains(&2));
        assert!(f.code_lines.contains(&5));
        assert!(f.code_lines.contains(&8));
        assert!(!f.code_lines.contains(&9)); // closing brace is not code
    }

    #[test]
    fn defined_at_queries() {
        let a = analyze(SAMPLE);
        let at5: Vec<_> = a.defined_at("f", 5).collect();
        assert!(at5.contains(&"n"));
        assert!(at5.contains(&"acc"));
        assert!(at5.contains(&"tmp"));
        let at2: Vec<_> = a.defined_at("f", 2).collect();
        assert!(!at2.contains(&"tmp"));
    }

    #[test]
    fn arrays_defined_from_declaration() {
        let a = analyze("int f() {\nint buf[8];\nbuf[0] = 1;\nreturn buf[0];\n}");
        let buf = a.function("f").unwrap().var("buf").unwrap();
        assert!(buf.is_array);
        assert!(buf.covers(2));
    }
}
