//! Csmith-like synthetic program generation (the population of the
//! paper's Table I).
//!
//! The generator mimics the characteristics the paper attributes to
//! Csmith output — and that make it *unlike* real-world code: many
//! variables per function, deep artificial expressions, dead and
//! constant-guarded branches, and heavy arithmetic that optimizers can
//! collapse wholesale. Programs are closed (input-independent except
//! for a couple of bytes), terminate by construction, and end by
//! emitting a checksum of all live variables, exactly as Csmith does.

use rand::rngs::SmallRng;
use rand::{Rng, SeedableRng};
use std::fmt::Write;

/// Generation knobs.
#[derive(Debug, Clone)]
pub struct SynthConfig {
    pub functions: usize,
    pub vars_per_function: usize,
    pub stmts_per_function: usize,
    pub max_expr_depth: usize,
}

impl Default for SynthConfig {
    fn default() -> Self {
        SynthConfig {
            functions: 3,
            vars_per_function: 8,
            stmts_per_function: 12,
            max_expr_depth: 4,
        }
    }
}

/// Generates one synthetic program from `seed`.
pub fn generate(seed: u64, config: &SynthConfig) -> String {
    let mut rng = SmallRng::seed_from_u64(seed);
    let mut out = String::new();
    let nfuncs = config.functions.max(1);

    // A couple of globals, Csmith-style.
    let nglobals = rng.gen_range(1..4usize);
    for g in 0..nglobals {
        let _ = writeln!(out, "int g{} = {};", g, rng.gen_range(-50..50));
    }

    for f in 0..nfuncs {
        gen_function(&mut out, f, nfuncs, nglobals, &mut rng, config);
    }

    // The entry: call every function, checksum the results.
    let _ = writeln!(out, "int fuzz_main() {{");
    let _ = writeln!(out, "    int crc = 0;");
    for f in 0..nfuncs {
        let a = rng.gen_range(-20..20);
        let b = rng.gen_range(-20..20);
        let _ = writeln!(out, "    crc = crc * 31 + f{f}({a} + in(0), {b});");
    }
    for g in 0..nglobals {
        let _ = writeln!(out, "    crc = crc * 31 + g{g};");
    }
    let _ = writeln!(out, "    out(crc);");
    let _ = writeln!(out, "    return crc;");
    let _ = writeln!(out, "}}");
    out
}

fn gen_function(
    out: &mut String,
    idx: usize,
    nfuncs: usize,
    nglobals: usize,
    rng: &mut SmallRng,
    config: &SynthConfig,
) {
    let nvars = rng
        .gen_range(config.vars_per_function / 2..=config.vars_per_function)
        .max(2);
    let _ = writeln!(out, "int f{idx}(int p0, int p1) {{");
    let mut ctx = Ctx {
        nvars,
        nglobals,
        callees: idx, // may call only earlier functions: no recursion
        rng,
        depth_limit: config.max_expr_depth,
    };
    let _ = nfuncs;
    for v in 0..nvars {
        // Initializers may only mention already-declared variables.
        ctx.nvars = v;
        let init = if v == 0 {
            format!("p0 * {} + p1", ctx.rng.gen_range(-9..10))
        } else {
            ctx.expr(1)
        };
        let _ = writeln!(out, "    int v{v} = {init};");
    }
    ctx.nvars = nvars;
    let stmts = ctx
        .rng
        .gen_range(config.stmts_per_function / 2..=config.stmts_per_function)
        .max(3);
    for _ in 0..stmts {
        gen_stmt(out, &mut ctx, 1);
    }
    // Csmith-style checksum return over all locals.
    let mut ret = String::from("0");
    for v in 0..nvars {
        ret = format!("({ret} * 17 + v{v})");
    }
    let _ = writeln!(out, "    return {ret} & 1048575;");
    let _ = writeln!(out, "}}");
}

struct Ctx<'a> {
    nvars: usize,
    nglobals: usize,
    callees: usize,
    rng: &'a mut SmallRng,
    depth_limit: usize,
}

impl Ctx<'_> {
    fn var(&mut self) -> String {
        let roll = self.rng.gen_range(0..10);
        if roll < 7 && self.nvars > 0 {
            format!("v{}", self.rng.gen_range(0..self.nvars))
        } else if roll < 9 && self.nglobals > 0 {
            format!("g{}", self.rng.gen_range(0..self.nglobals))
        } else {
            format!("p{}", self.rng.gen_range(0..2))
        }
    }

    fn expr(&mut self, depth: usize) -> String {
        if depth >= self.depth_limit || self.rng.gen_bool(0.3) {
            return match self.rng.gen_range(0..3) {
                0 => format!("{}", self.rng.gen_range(-99..100)),
                _ => self.var(),
            };
        }
        let a = self.expr(depth + 1);
        let b = self.expr(depth + 1);
        let op = ["+", "-", "*", "/", "%", "&", "|", "^", "<<", ">>"][self.rng.gen_range(0..10)];
        // Keep shifts small so results stay interesting.
        if op == "<<" || op == ">>" {
            let sh = self.rng.gen_range(0..8);
            return format!("(({a}) {op} {sh})");
        }
        format!("(({a}) {op} ({b}))")
    }

    fn cond(&mut self) -> String {
        let a = self.expr(self.depth_limit - 1);
        let b = self.expr(self.depth_limit - 1);
        let op = ["<", "<=", ">", ">=", "==", "!="][self.rng.gen_range(0..6)];
        format!("({a}) {op} ({b})")
    }
}

fn indent(out: &mut String, depth: usize) {
    for _ in 0..depth {
        out.push_str("    ");
    }
}

fn gen_stmt(out: &mut String, ctx: &mut Ctx<'_>, depth: usize) {
    let roll = ctx.rng.gen_range(0..12);
    match roll {
        // Plain assignments dominate, as in Csmith.
        0..=5 => {
            let v = format!("v{}", ctx.rng.gen_range(0..ctx.nvars));
            let e = ctx.expr(1);
            indent(out, depth);
            let _ = writeln!(out, "{v} = {e};");
        }
        6 | 7 => {
            // Branch; occasionally dead (constant-false guard).
            let cond = if ctx.rng.gen_bool(0.25) {
                "0".to_string() // dead code, Csmith's trademark
            } else {
                ctx.cond()
            };
            indent(out, depth);
            let _ = writeln!(out, "if ({cond}) {{");
            gen_stmt(out, ctx, depth + 1);
            if ctx.rng.gen_bool(0.5) && depth < 3 {
                gen_stmt(out, ctx, depth + 1);
            }
            indent(out, depth);
            if ctx.rng.gen_bool(0.4) {
                let _ = writeln!(out, "}} else {{");
                gen_stmt(out, ctx, depth + 1);
                indent(out, depth);
            }
            let _ = writeln!(out, "}}");
        }
        8 => {
            // Bounded counted loop.
            let trip = ctx.rng.gen_range(1..9);
            let v = format!("v{}", ctx.rng.gen_range(0..ctx.nvars));
            let e = ctx.expr(2);
            indent(out, depth);
            let _ = writeln!(out, "for (int it = 0; it < {trip}; it++) {{");
            indent(out, depth + 1);
            let _ = writeln!(out, "{v} = {v} + ({e});");
            indent(out, depth);
            let _ = writeln!(out, "}}");
        }
        9 if ctx.callees > 0 => {
            // Call an earlier function.
            let callee = ctx.rng.gen_range(0..ctx.callees);
            let v = format!("v{}", ctx.rng.gen_range(0..ctx.nvars));
            let a = ctx.expr(2);
            let b = ctx.expr(2);
            indent(out, depth);
            let _ = writeln!(out, "{v} = f{callee}({a}, {b});");
        }
        _ => {
            // Global side effect.
            if ctx.nglobals > 0 {
                let g = ctx.rng.gen_range(0..ctx.nglobals);
                let e = ctx.expr(2);
                indent(out, depth);
                let _ = writeln!(out, "g{g} = ({e}) & 65535;");
            } else {
                let v = format!("v{}", ctx.rng.gen_range(0..ctx.nvars));
                indent(out, depth);
                let _ = writeln!(out, "{v} = {v} ^ 1;");
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn generated_programs_parse_and_validate() {
        let cfg = SynthConfig::default();
        for seed in 0..40 {
            let src = generate(seed, &cfg);
            dt_minic::compile_check(&src).unwrap_or_else(|e| panic!("seed {seed}: {e}\n{src}"));
        }
    }

    #[test]
    fn generation_is_deterministic() {
        let cfg = SynthConfig::default();
        assert_eq!(generate(7, &cfg), generate(7, &cfg));
        assert_ne!(generate(7, &cfg), generate(8, &cfg));
    }

    #[test]
    fn generated_programs_terminate_and_match_across_levels() {
        use dt_passes::{compile_source, CompileOptions, OptLevel, Personality};
        let cfg = SynthConfig::default();
        for seed in 0..12 {
            let src = generate(seed, &cfg);
            let o0 = compile_source(&src, &CompileOptions::new(Personality::Gcc, OptLevel::O0))
                .unwrap_or_else(|e| panic!("seed {seed}: {e}"));
            let o3 = compile_source(&src, &CompileOptions::new(Personality::Gcc, OptLevel::O3))
                .unwrap_or_else(|e| panic!("seed {seed}: {e}"));
            let vm_cfg = dt_vm::VmConfig {
                max_steps: 10_000_000,
                ..Default::default()
            };
            let input = [seed as u8, 3];
            let run = |obj, cfg| {
                dt_vm::Vm::run_finished(obj, "fuzz_main", &[], &input, cfg)
                    .unwrap_or_else(|e| panic!("seed {seed}: {e}\n{src}"))
            };
            let (r0, r3) = (run(&o0, vm_cfg.clone()), run(&o3, vm_cfg));
            assert_eq!(r0.ret, r3.ret, "seed {seed} miscompiled:\n{src}");
            assert_eq!(r0.output, r3.output, "seed {seed}");
        }
    }

    #[test]
    fn synthetic_programs_have_many_vars_and_dead_code() {
        let cfg = SynthConfig::default();
        let mut saw_dead = false;
        for seed in 0..20 {
            let src = generate(seed, &cfg);
            saw_dead |= src.contains("if (0)");
        }
        assert!(saw_dead, "dead branches are part of the Csmith character");
    }
}
