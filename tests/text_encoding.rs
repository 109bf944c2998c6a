//! Pins the exact `.text` bytes the backend emits.
//!
//! Variant pruning (Section III-A of the paper) compares encoded
//! `.text`, so an encoding change silently changes which variants are
//! pruned. These tests fold every `.text` of a fixed set of builds
//! through [`Fnv1a`] into one digest and compare it with a constant:
//! any change to an opcode, operand order, width, endianness or the
//! fused-pair bit moves the digest.
//!
//! The tier-1 test covers two suite programs at every personality and
//! level; the ignored sweep covers the whole suite. Both add one clang
//! `O2` build whose SLP pass fuses a pair, so the fused-opcode bit is
//! pinned too. If the encoding changes on purpose, rerun with
//! `--include-ignored` and replace the constants with the printed
//! digests.

use dt_machine::{Fnv1a, Object};
use dt_passes::{compile_source, CompileOptions, OptLevel, Personality};

/// Four independent adds: clang's `SLPVectorizer` fuses them in pairs.
const SLP_SOURCE: &str = "int f(int a, int b, int c, int d) {
    int w = a + 1;
    int x = b + 2;
    int y = c + 3;
    int z = d + 4;
    return w + x + y + z;
}";

fn build(source: &str, personality: Personality, level: OptLevel) -> Object {
    compile_source(source, &CompileOptions::new(personality, level)).unwrap()
}

/// Folds the `.text` of every named suite program at `O0` and every
/// level of both personalities (allow-all gate), then the fused build.
fn text_digest(programs: &[&str]) -> u64 {
    let mut h = Fnv1a::new();
    for name in programs {
        let program = dt_testsuite::program(name).unwrap();
        for personality in [Personality::Gcc, Personality::Clang] {
            let levels = OptLevel::levels_for(personality);
            for &level in std::iter::once(&OptLevel::O0).chain(levels) {
                h.field(&build(program.source, personality, level).text);
            }
        }
    }
    let fused = build(SLP_SOURCE, Personality::Clang, OptLevel::O2);
    assert!(
        fused.code.iter().any(|inst| inst.fused),
        "clang O2 must fuse a pair in the SLP source"
    );
    h.field(&fused.text);
    h.finish()
}

fn assert_digest(programs: &[&str], expected: u64) {
    let digest = text_digest(programs);
    assert_eq!(
        digest, expected,
        ".text encoding changed: digest {digest:#018x}, pinned {expected:#018x}"
    );
}

#[test]
fn text_bytes_are_pinned_for_two_programs() {
    assert_digest(&["bzip2", "libexif"], 0x665f_dde3_c0d1_d55f);
}

#[test]
#[ignore = "whole-suite sweep; run with --include-ignored"]
fn text_bytes_are_pinned_for_the_whole_suite() {
    let names: Vec<&str> = dt_testsuite::real_world_suite()
        .iter()
        .map(|p| p.name)
        .collect();
    assert_digest(&names, 0xb557_f3b8_6017_feed);
}
