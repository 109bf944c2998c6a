//! Final linear code and the object-file container.
//!
//! After register allocation each function is a flat instruction
//! sequence over physical registers; [`crate::emit`] concatenates the
//! functions (in module emission order), assigns byte addresses,
//! encodes `.text`, and attaches the debug sections. The VM executes
//! the decoded [`FInst`] stream directly; the encoded bytes exist for
//! byte-level comparison (pruning no-op pass-disabled builds) and for
//! hashing.

use bytes::{BufMut, Bytes, BytesMut};
use dt_dwarf::DebugInfo;
use dt_ir::{BinOp, UnOp};
use std::hash::{Hash, Hasher};

/// Location payload of a final debug pseudo.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum FDbgLoc {
    Reg(u8),
    /// Frame word offset.
    Slot(u32),
    Const(i64),
    Undef,
}

/// A final VISA operation over physical registers. Jump/branch targets
/// are **global instruction indices** into [`Object::code`].
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum FOp {
    Imm {
        rd: u8,
        value: i64,
    },
    Mov {
        rd: u8,
        rs: u8,
    },
    Un {
        op: UnOp,
        rd: u8,
        rs: u8,
    },
    Bin {
        op: BinOp,
        rd: u8,
        ra: u8,
        rb: u8,
    },
    BinImm {
        op: BinOp,
        rd: u8,
        ra: u8,
        imm: i64,
    },
    Select {
        rd: u8,
        rc: u8,
        ra: u8,
        rb: u8,
    },
    /// `rd = frame[off]` (word offset within the frame).
    LdSlot {
        rd: u8,
        off: u32,
    },
    StSlot {
        off: u32,
        rs: u8,
    },
    LdIdx {
        rd: u8,
        off: u32,
        ri: u8,
        len: u32,
    },
    StIdx {
        off: u32,
        ri: u8,
        rs: u8,
        len: u32,
    },
    LdG {
        rd: u8,
        addr: u32,
    },
    StG {
        addr: u32,
        rs: u8,
    },
    LdGIdx {
        rd: u8,
        base: u32,
        ri: u8,
        len: u32,
    },
    StGIdx {
        base: u32,
        ri: u8,
        rs: u8,
        len: u32,
    },
    SetArg {
        k: u8,
        rs: u8,
    },
    GetArg {
        rd: u8,
        k: u8,
    },
    /// Call of module function `func` (index into [`Object::funcs`]).
    CallF {
        func: u32,
    },
    /// Return; the value (if any) is in `r0`.
    Ret,
    Jmp {
        target: u32,
    },
    JCond {
        rs: u8,
        if_nonzero: bool,
        target: u32,
    },
    In {
        rd: u8,
        ri: u8,
    },
    InLen {
        rd: u8,
    },
    Out {
        rs: u8,
    },
    /// Zero-size debug pseudo (`var` is function-local).
    Dbg {
        var: u32,
        loc: FDbgLoc,
    },
}

/// A final instruction with its debug metadata.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct FInst {
    pub op: FOp,
    pub line: u32,
    pub stmt: bool,
    pub fused: bool,
}

impl FInst {
    /// Encoded byte size (0 for debug pseudos).
    pub fn encoded_size(&self) -> u32 {
        use FOp::*;
        let body = match &self.op {
            Imm { .. } => 1 + 8,
            Mov { .. } | Un { .. } | SetArg { .. } | GetArg { .. } | In { .. } => 2,
            Bin { .. } => 3,
            BinImm { .. } => 2 + 8,
            Select { .. } => 4,
            LdSlot { .. } | StSlot { .. } | LdG { .. } | StG { .. } => 1 + 4,
            LdIdx { .. } | StIdx { .. } | LdGIdx { .. } | StGIdx { .. } => 2 + 8,
            CallF { .. } | Jmp { .. } => 4,
            Ret => 0,
            JCond { .. } => 2 + 4,
            InLen { .. } | Out { .. } => 1,
            Dbg { .. } => return 0,
        };
        1 + body // opcode byte + body
    }

    /// Encodes the instruction; `addr_of` resolves a global instruction
    /// index to its byte address.
    pub fn encode(&self, buf: &mut BytesMut, addr_of: &dyn Fn(u32) -> u32) {
        use FOp::*;
        let mut opcode: u8 = match &self.op {
            Imm { .. } => 0x01,
            Mov { .. } => 0x02,
            Un { op, .. } => 0x03 + unop_code(*op),
            Bin { op, .. } => 0x08 + binop_code(*op),
            BinImm { op, .. } => 0x20 + binop_code(*op),
            Select { .. } => 0x06,
            LdSlot { .. } => 0x40,
            StSlot { .. } => 0x41,
            LdIdx { .. } => 0x42,
            StIdx { .. } => 0x43,
            LdG { .. } => 0x44,
            StG { .. } => 0x45,
            LdGIdx { .. } => 0x46,
            StGIdx { .. } => 0x47,
            SetArg { .. } => 0x48,
            GetArg { .. } => 0x49,
            CallF { .. } => 0x4a,
            Ret => 0x4b,
            Jmp { .. } => 0x4c,
            JCond { .. } => 0x4d,
            In { .. } => 0x4e,
            InLen { .. } => 0x4f,
            Out { .. } => 0x50,
            Dbg { .. } => return, // not part of .text
        };
        if self.fused {
            opcode |= 0x80;
        }
        buf.put_u8(opcode);
        match &self.op {
            Imm { rd, value } => {
                buf.put_u8(*rd);
                buf.put_i64_le(*value);
            }
            Mov { rd, rs } | Un { rd, rs, .. } => {
                buf.put_u8(*rd);
                buf.put_u8(*rs);
            }
            Bin { rd, ra, rb, .. } => {
                buf.put_u8(*rd);
                buf.put_u8(*ra);
                buf.put_u8(*rb);
            }
            BinImm { rd, ra, imm, .. } => {
                buf.put_u8(*rd);
                buf.put_u8(*ra);
                buf.put_i64_le(*imm);
            }
            Select { rd, rc, ra, rb } => {
                buf.put_u8(*rd);
                buf.put_u8(*rc);
                buf.put_u8(*ra);
                buf.put_u8(*rb);
            }
            LdSlot { rd, off } => {
                buf.put_u8(*rd);
                buf.put_u32_le(*off);
            }
            StSlot { off, rs } => {
                buf.put_u8(*rs);
                buf.put_u32_le(*off);
            }
            LdIdx { rd, off, ri, len } => {
                buf.put_u8(*rd);
                buf.put_u8(*ri);
                buf.put_u32_le(*off);
                buf.put_u32_le(*len);
            }
            StIdx { off, ri, rs, len } => {
                buf.put_u8(*ri);
                buf.put_u8(*rs);
                buf.put_u32_le(*off);
                buf.put_u32_le(*len);
            }
            LdG { rd, addr } => {
                buf.put_u8(*rd);
                buf.put_u32_le(*addr);
            }
            StG { addr, rs } => {
                buf.put_u8(*rs);
                buf.put_u32_le(*addr);
            }
            LdGIdx { rd, base, ri, len } => {
                buf.put_u8(*rd);
                buf.put_u8(*ri);
                buf.put_u32_le(*base);
                buf.put_u32_le(*len);
            }
            StGIdx { base, ri, rs, len } => {
                buf.put_u8(*ri);
                buf.put_u8(*rs);
                buf.put_u32_le(*base);
                buf.put_u32_le(*len);
            }
            SetArg { k, rs } => {
                buf.put_u8(*k);
                buf.put_u8(*rs);
            }
            GetArg { rd, k } => {
                buf.put_u8(*rd);
                buf.put_u8(*k);
            }
            CallF { func } => buf.put_u32_le(*func),
            Ret => {}
            Jmp { target } => buf.put_u32_le(addr_of(*target)),
            JCond {
                rs,
                if_nonzero,
                target,
            } => {
                buf.put_u8(*rs);
                buf.put_u8(*if_nonzero as u8);
                buf.put_u32_le(addr_of(*target));
            }
            In { rd, ri } => {
                buf.put_u8(*rd);
                buf.put_u8(*ri);
            }
            InLen { rd } => buf.put_u8(*rd),
            Out { rs } => buf.put_u8(*rs),
            Dbg { .. } => unreachable!(),
        }
    }
}

fn binop_code(op: BinOp) -> u8 {
    use BinOp::*;
    match op {
        Add => 0,
        Sub => 1,
        Mul => 2,
        Div => 3,
        Rem => 4,
        And => 5,
        Or => 6,
        Xor => 7,
        Shl => 8,
        Shr => 9,
        Lt => 10,
        Le => 11,
        Gt => 12,
        Ge => 13,
        Eq => 14,
        Ne => 15,
    }
}

fn unop_code(op: UnOp) -> u8 {
    match op {
        UnOp::Neg => 0,
        UnOp::Not => 1,
        UnOp::BitNot => 2,
    }
}

/// Per-function metadata in the assembled object.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct FuncInfo {
    pub name: String,
    /// Global instruction index of the function's first instruction.
    pub start_index: u32,
    /// One past the function's last instruction.
    pub end_index: u32,
    pub low_pc: u32,
    pub high_pc: u32,
    /// Frame size in words (user slots + spills).
    pub frame_size: u32,
    pub nparams: u32,
    pub shrink_wrapped: bool,
    pub decl_line: u32,
}

/// An assembled binary.
#[derive(Debug, Clone)]
pub struct Object {
    /// All instructions, functions concatenated in emission order.
    pub code: Vec<FInst>,
    /// Byte address of each instruction (parallel to `code`).
    pub addrs: Vec<u32>,
    /// Function table indexed by module function id.
    pub funcs: Vec<FuncInfo>,
    /// Encoded `.text` section.
    pub text: Bytes,
    /// Debug sections.
    pub debug: DebugInfo,
    /// Global data area: (base, size, init-of-first-word) per global.
    pub globals: Vec<(u32, u32, i64)>,
    pub globals_size: u32,
}

impl Object {
    /// Function metadata by name.
    pub fn func_by_name(&self, name: &str) -> Option<(u32, &FuncInfo)> {
        self.funcs
            .iter()
            .enumerate()
            .find(|(_, f)| f.name == name)
            .map(|(i, f)| (i as u32, f))
    }

    /// The index in `code` of the first *encoded* (non-pseudo)
    /// instruction at byte address `addr`, if any.
    pub fn index_of_addr(&self, addr: u32) -> Option<usize> {
        let i = self.addrs.partition_point(|&a| a < addr);
        (i < self.addrs.len()
            && self.addrs[i] == addr
            && self.code[i..]
                .iter()
                .any(|c| !matches!(c.op, FOp::Dbg { .. })))
        .then(|| {
            let mut j = i;
            while matches!(self.code[j].op, FOp::Dbg { .. }) {
                j += 1;
            }
            j
        })
    }

    /// Whether two objects have identical machine code (the pruning
    /// check of Section III-A of the paper).
    pub fn text_eq(&self, other: &Object) -> bool {
        self.text == other.text
    }

    /// Content hash over everything that determines an object's
    /// observable behavior *and* its debug-session outcome: the encoded
    /// `.text` section, the debug records (through their derived
    /// `Hash`), the global data image, and the function table (names
    /// and frame metadata feed both execution and trace observations).
    /// Two objects with equal `content_hash` produce identical traces
    /// and metrics for the same inputs, so the hash can key a shared
    /// trace/metric cache across compilation variants. It is an
    /// in-process key only: never persisted, so its value may change
    /// between builds of this crate. Byte sections are length-prefixed
    /// to keep the hash unambiguous under concatenation.
    pub fn content_hash(&self) -> u64 {
        let mut h = Fnv1a::new();
        h.field(&self.text);
        self.debug.hash(&mut h);
        for &(base, size, init) in &self.globals {
            h.field(&base.to_le_bytes())
                .field(&size.to_le_bytes())
                .field(&init.to_le_bytes());
        }
        h.field(&self.globals_size.to_le_bytes());
        for f in &self.funcs {
            h.field(f.name.as_bytes())
                .field(&f.low_pc.to_le_bytes())
                .field(&f.high_pc.to_le_bytes())
                .field(&f.frame_size.to_le_bytes())
                .field(&f.nparams.to_le_bytes())
                .field(&[f.shrink_wrapped as u8])
                .field(&f.decl_line.to_le_bytes());
        }
        h.finish()
    }
}

/// 64-bit FNV-1a, the one content hash below the campaign layer:
/// [`Object::content_hash`], the compile session's stage fingerprints,
/// and the evaluation layer's content-keyed caches all fold through it.
#[derive(Debug, Clone, Copy)]
pub struct Fnv1a(u64);

impl Default for Fnv1a {
    fn default() -> Self {
        Self::new()
    }
}

impl Fnv1a {
    pub fn new() -> Self {
        Fnv1a(0xcbf29ce484222325)
    }

    /// Folds raw bytes.
    pub fn bytes(&mut self, bytes: &[u8]) -> &mut Self {
        for &b in bytes {
            self.0 ^= b as u64;
            self.0 = self.0.wrapping_mul(0x100000001b3);
        }
        self
    }

    /// Folds a length-prefixed field, so concatenated fields stay
    /// unambiguous.
    pub fn field(&mut self, bytes: &[u8]) -> &mut Self {
        self.bytes(&(bytes.len() as u64).to_le_bytes()).bytes(bytes)
    }

    pub fn finish(&self) -> u64 {
        self.0
    }
}

/// Lets derived `Hash` impls fold into the same FNV-1a state.
impl Hasher for Fnv1a {
    fn write(&mut self, bytes: &[u8]) {
        self.bytes(bytes);
    }

    fn finish(&self) -> u64 {
        self.0
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn inst(op: FOp) -> FInst {
        FInst {
            op,
            line: 0,
            stmt: false,
            fused: false,
        }
    }

    #[test]
    fn sizes_match_encoding() {
        let cases = vec![
            inst(FOp::Imm { rd: 1, value: -5 }),
            inst(FOp::Mov { rd: 1, rs: 2 }),
            inst(FOp::Bin {
                op: BinOp::Add,
                rd: 0,
                ra: 1,
                rb: 2,
            }),
            inst(FOp::BinImm {
                op: BinOp::Shl,
                rd: 0,
                ra: 1,
                imm: 3,
            }),
            inst(FOp::LdSlot { rd: 0, off: 12 }),
            inst(FOp::StIdx {
                off: 4,
                ri: 1,
                rs: 2,
                len: 16,
            }),
            inst(FOp::CallF { func: 3 }),
            inst(FOp::Ret),
            inst(FOp::Jmp { target: 0 }),
            inst(FOp::JCond {
                rs: 1,
                if_nonzero: true,
                target: 0,
            }),
            inst(FOp::Out { rs: 0 }),
        ];
        for c in cases {
            let mut buf = BytesMut::new();
            c.encode(&mut buf, &|_| 0x1234);
            assert_eq!(
                buf.len() as u32,
                c.encoded_size(),
                "size mismatch for {:?}",
                c.op
            );
        }
    }

    #[test]
    fn dbg_pseudo_is_zero_size() {
        let d = inst(FOp::Dbg {
            var: 0,
            loc: FDbgLoc::Undef,
        });
        assert_eq!(d.encoded_size(), 0);
        let mut buf = BytesMut::new();
        d.encode(&mut buf, &|_| 0);
        assert!(buf.is_empty());
    }

    #[test]
    fn fused_flag_changes_encoding() {
        let mut a = inst(FOp::Mov { rd: 0, rs: 1 });
        let mut buf1 = BytesMut::new();
        a.encode(&mut buf1, &|_| 0);
        a.fused = true;
        let mut buf2 = BytesMut::new();
        a.encode(&mut buf2, &|_| 0);
        assert_ne!(buf1, buf2);
        assert_eq!(buf1.len(), buf2.len());
    }

    #[test]
    fn distinct_binops_get_distinct_opcodes() {
        use std::collections::HashSet;
        let mut opcodes = HashSet::new();
        for op in [
            BinOp::Add,
            BinOp::Sub,
            BinOp::Mul,
            BinOp::Div,
            BinOp::Rem,
            BinOp::And,
            BinOp::Or,
            BinOp::Xor,
            BinOp::Shl,
            BinOp::Shr,
            BinOp::Lt,
            BinOp::Le,
            BinOp::Gt,
            BinOp::Ge,
            BinOp::Eq,
            BinOp::Ne,
        ] {
            let mut buf = BytesMut::new();
            inst(FOp::Bin {
                op,
                rd: 0,
                ra: 0,
                rb: 0,
            })
            .encode(&mut buf, &|_| 0);
            opcodes.insert(buf[0]);
        }
        assert_eq!(opcodes.len(), 16);
    }

    fn build(src: &str) -> Object {
        let m = dt_frontend::lower_source(src).unwrap();
        crate::run_backend(&m, &crate::BackendConfig::default())
    }

    #[test]
    fn content_hash_is_deterministic_and_content_addressed() {
        let a = build("int f(int x) { return x + 1; }");
        let b = build("int f(int x) { return x + 1; }");
        assert_eq!(a.content_hash(), b.content_hash(), "same source, same hash");
        let c = build("int f(int x) { return x + 2; }");
        assert_ne!(
            a.content_hash(),
            c.content_hash(),
            "different text, different hash"
        );
    }

    #[test]
    fn content_hash_covers_metadata_beyond_text() {
        let a = build("int f(int x) { return x + 1; }");
        // Identical `.text`, different function metadata: the debug
        // session observes frame metadata, so the cache key must too.
        let mut b = a.clone();
        b.funcs[0].decl_line += 1;
        assert_eq!(a.text, b.text);
        assert_ne!(a.content_hash(), b.content_hash());
        let mut c = a.clone();
        c.globals_size += 1;
        assert_ne!(a.content_hash(), c.content_hash());
    }

    /// Rebuilds a location list with its first range changed by `edit`.
    fn edit_first_range(
        list: &dt_dwarf::LocList,
        edit: fn(&mut dt_dwarf::LocRange),
    ) -> dt_dwarf::LocList {
        let mut out = dt_dwarf::LocList::new();
        for (i, r) in list.ranges().iter().enumerate() {
            let mut r = *r;
            if i == 0 {
                edit(&mut r);
            }
            out.push(r);
        }
        out
    }

    /// Rebuilds a line table with its first line-bearing row changed by
    /// `edit`.
    fn edit_first_line_row(
        table: &dt_dwarf::LineTable,
        edit: fn(&mut dt_dwarf::LineRow),
    ) -> dt_dwarf::LineTable {
        let target = table.rows().iter().position(|r| r.line != 0).unwrap();
        let mut out = dt_dwarf::LineTable::new();
        for (i, r) in table.rows().iter().enumerate() {
            let mut r = *r;
            if i == target {
                edit(&mut r);
            }
            out.push(r);
        }
        out
    }

    #[test]
    fn content_hash_covers_every_kind_of_debug_field() {
        let src = include_str!("../../testsuite/programs/zlib.mc");
        let options =
            dt_passes::CompileOptions::new(dt_passes::Personality::Gcc, dt_passes::OptLevel::O2);
        let obj = dt_passes::compile_source(src, &options).unwrap();
        let again = dt_passes::compile_source(src, &options).unwrap();
        assert_eq!(
            obj.content_hash(),
            again.content_hash(),
            "two compiles of one source"
        );

        let v = obj
            .debug
            .vars
            .iter()
            .position(|v| !v.loclist.is_empty())
            .unwrap();
        // Each edit gets the index of a variable with a location.
        type Edit = fn(&mut DebugInfo, usize);
        let edits: [(&str, Edit); 10] = [
            ("subprogram name", |d, _| d.subprograms[0].name.push('_')),
            ("subprogram low_pc", |d, _| d.subprograms[0].low_pc += 1),
            ("subprogram frame_size", |d, _| {
                d.subprograms[0].frame_size += 1
            }),
            ("variable name", |d, v| d.vars[v].name.push('_')),
            ("variable decl_line", |d, v| d.vars[v].decl_line += 1),
            ("variable is_param", |d, v| d.vars[v].is_param ^= true),
            ("location range bound", |d, v| {
                d.vars[v].loclist = edit_first_range(&d.vars[v].loclist, |r| r.hi -= 1)
            }),
            ("location", |d, v| {
                d.vars[v].loclist = edit_first_range(&d.vars[v].loclist, |r| {
                    r.loc = dt_dwarf::Location::Const(0x5eed)
                })
            }),
            ("line row line", |d, _| {
                d.line_table = edit_first_line_row(&d.line_table, |r| r.line += 1000)
            }),
            ("line row is_stmt", |d, _| {
                d.line_table = edit_first_line_row(&d.line_table, |r| r.is_stmt ^= true)
            }),
        ];
        for (what, edit) in edits {
            let mut changed = obj.clone();
            edit(&mut changed.debug, v);
            assert_ne!(
                changed.debug, obj.debug,
                "{what}: the edit must change the record"
            );
            assert_eq!(changed.text, obj.text);
            assert_ne!(changed.content_hash(), obj.content_hash(), "{what}");
        }
    }
}
