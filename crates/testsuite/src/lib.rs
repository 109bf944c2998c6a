//! The test programs of the reproduction: the 13-program real-world
//! suite, the 8 SPEC-like benchmarks, the Csmith-like synthetic
//! generator, and the self-compilation workload.
//!
//! The real-world programs are hand-written MiniC re-creations of the
//! paper's OSS-Fuzz subjects — same names, same domains, same *shape*
//! (parsers, decoders, interpreters, state machines with conventional
//! control flow), sized so that a fuzzing campaign reaches most of the
//! code. Each exposes one or more `fuzz_*` harnesses that consume the
//! input byte stream, mirroring OSS-Fuzz harnesses.
//!
//! The SPEC-like benchmarks are compute kernels named after the
//! paper's intrate subset, each with a built-in deterministic workload
//! generator parameterized by a size argument (`test` vs `ref`).

pub mod spec;
pub mod synth;

use dt_minic::Program;

/// One real-world-shaped test program.
#[derive(Debug, Clone, Copy)]
pub struct TestProgram {
    /// The OSS-Fuzz-style project name.
    pub name: &'static str,
    /// MiniC source text.
    pub source: &'static str,
    /// Fuzz harness entry points.
    pub harnesses: &'static [&'static str],
    /// Seed inputs that exercise the happy path (the role OSS-Fuzz
    /// seed corpora play).
    pub seeds: &'static [&'static [u8]],
}

impl TestProgram {
    /// Parses and validates the program.
    pub fn parse(&self) -> Program {
        dt_minic::compile_check(self.source)
            .unwrap_or_else(|e| panic!("test program `{}` is invalid: {e}", self.name))
    }
}

macro_rules! program {
    ($name:literal, $file:literal, [$($h:literal),+], [$($seed:expr),+ $(,)?]) => {
        TestProgram {
            name: $name,
            source: include_str!(concat!("../programs/", $file)),
            harnesses: &[$($h),+],
            seeds: &[$($seed),+],
        }
    };
}

/// The 13-program real-world suite (Section IV, Table III).
pub fn real_world_suite() -> Vec<TestProgram> {
    vec![
        program!(
            "bzip2",
            "bzip2.mc",
            ["fuzz_compress"],
            [b"aaaabbbcccddddd", b"\x01\x02\x03"]
        ),
        program!(
            "libdwarf",
            "libdwarf.mc",
            ["fuzz_parse"],
            [b"\x01\x04abcd\x02\x02xy\x03\x01z\x00", b"\x01\x00\x00"]
        ),
        program!(
            "libexif",
            "libexif.mc",
            ["fuzz_exif"],
            [
                b"EX\x03\x01\x01\x10\x02\x02\x20\x00\x03\x03\x30\x00\x00",
                b"EX\x00"
            ]
        ),
        program!(
            "liblouis",
            "liblouis.mc",
            ["fuzz_translate"],
            [b"hello world", b"the cat and the hat"]
        ),
        program!(
            "libmpeg2",
            "libmpeg2.mc",
            ["fuzz_decode"],
            [
                b"\x00\x00\x01\xb3\x10\x20\x30\x40\x00\x00\x01\x00abcdefgh",
                b"\x00\x00\x01\x00"
            ]
        ),
        program!(
            "libpcap",
            "libpcap.mc",
            ["fuzz_packet"],
            [
                b"\x45\x00\x06\x11\x0a\x00\x00\x01\x0a\x00\x00\x02\x00\x50\x1f\x90payload",
                b"\x45\x00\x06\x06\x01\x02\x03\x04\x05\x06\x07\x08\x00\x16\x00\x50"
            ]
        ),
        program!(
            "libpng",
            "libpng.mc",
            ["fuzz_png"],
            [
                b"PN\x08\x02\x01\x04IDAT\x00\x01\x02\x03\x04\x05\x06\x07\x08end",
                b"PN\x04\x01\x01\x04IDAT\x01\x09\x08\x07\x06end"
            ]
        ),
        program!(
            "libssh",
            "libssh.mc",
            ["fuzz_handshake"],
            [b"\x05SSH2k\x10\x20\x30\x40\x01\x07datadata", b"\x05SSH2"]
        ),
        program!(
            "libyaml",
            "libyaml.mc",
            ["fuzz_yaml"],
            [b"key: 1\n  sub: 2\nnext: 3\n", b"a: 9\n"]
        ),
        program!(
            "lighttpd",
            "lighttpd.mc",
            ["fuzz_request"],
            [
                b"GET /index HTTP\nHost: x\nauth: 7\n\n",
                b"POST /api HTTP\nlen: 3\n\nabc"
            ]
        ),
        program!(
            "wasm3",
            "wasm3.mc",
            ["fuzz_exec"],
            [
                b"\x01\x05\x01\x03\x02\x01\x02\x03\x0b",
                b"\x01\x09\x01\x02\x04\x06\x08\x0b"
            ]
        ),
        program!(
            "zlib",
            "zlib.mc",
            ["fuzz_inflate"],
            [b"aaabcdbcdbcdeeeee", b"the quick brown fox"]
        ),
        program!(
            "zydis",
            "zydis.mc",
            ["fuzz_disasm"],
            [
                b"\x01\xc0\x05\x10\x20\x30\x40\x90\xc3",
                b"\x40\x01\xd8\xeb\x05\xc3"
            ]
        ),
    ]
}

/// Looks up one suite program by name.
pub fn program(name: &str) -> Option<TestProgram> {
    real_world_suite().into_iter().find(|p| p.name == name)
}

/// The large self-compilation-style workload (the paper's Figure 4
/// subject): a MiniC program that is itself a compiler for a toy
/// expression language, run over many generated source files.
pub fn self_compile_program() -> TestProgram {
    TestProgram {
        name: "cc",
        source: include_str!("../programs/cc.mc"),
        harnesses: &["compile_unit"],
        seeds: &[b"v0=5;v1=v0*3+2;out v1;"],
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn all_suite_programs_parse_and_validate() {
        for p in real_world_suite() {
            let prog = p.parse();
            for h in p.harnesses {
                assert!(
                    prog.function(h).is_some(),
                    "{}: missing harness `{h}`",
                    p.name
                );
            }
        }
        assert_eq!(real_world_suite().len(), 13);
    }

    #[test]
    fn self_compile_program_parses() {
        let p = self_compile_program();
        let prog = p.parse();
        assert!(prog.function("compile_unit").is_some());
    }

    #[test]
    fn lookup_by_name() {
        assert!(program("libpng").is_some());
        assert!(program("notreal").is_none());
    }

    #[test]
    fn suite_programs_run_on_their_seeds() {
        for p in real_world_suite() {
            let module =
                dt_frontend::lower_source(p.source).unwrap_or_else(|e| panic!("{}: {e}", p.name));
            let obj = dt_machine::run_backend(&module, &dt_machine::BackendConfig::default());
            for h in p.harnesses {
                for seed in p.seeds {
                    dt_vm::Vm::run_finished(
                        &obj,
                        h,
                        &[],
                        seed,
                        dt_vm::VmConfig {
                            max_steps: 3_000_000,
                            ..Default::default()
                        },
                    )
                    .unwrap_or_else(|e| panic!("{}::{h} must terminate on its seed: {e}", p.name));
                }
            }
        }
    }

    #[test]
    fn suite_programs_are_deterministic_across_levels() {
        use dt_passes::{compile_source, CompileOptions, OptLevel, Personality};
        for p in real_world_suite() {
            let o0 = compile_source(
                p.source,
                &CompileOptions::new(Personality::Gcc, OptLevel::O0),
            )
            .unwrap();
            let o3 = compile_source(
                p.source,
                &CompileOptions::new(Personality::Gcc, OptLevel::O3),
            )
            .unwrap();
            for h in p.harnesses {
                for seed in p.seeds {
                    let cfg = dt_vm::VmConfig {
                        max_steps: 3_000_000,
                        ..Default::default()
                    };
                    let run = |obj, cfg| {
                        dt_vm::Vm::run_finished(obj, h, &[], seed, cfg)
                            .unwrap_or_else(|e| panic!("{}::{h}: {e}", p.name))
                    };
                    let (r0, r3) = (run(&o0, cfg.clone()), run(&o3, cfg));
                    assert_eq!(r0.ret, r3.ret, "{}::{h} O0 vs O3 return", p.name);
                    assert_eq!(r0.output, r3.output, "{}::{h} O0 vs O3 output", p.name);
                }
            }
        }
    }
}
