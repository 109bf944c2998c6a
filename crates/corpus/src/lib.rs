//! Test-input construction: coverage-guided fuzzing and corpus
//! minimization (Section IV of the paper).
//!
//! The paper leans on OSS-Fuzz for two things: harnesses, and queues of
//! inputs accumulating all coverage ever reached. This crate provides
//! the same pipeline over VISA binaries:
//!
//! 1. [`fuzz`] — a deterministic, mutation-based, edge-coverage-guided
//!    fuzzer builds a *queue* for a harness;
//! 2. [`cmin`] — coverage-preserving corpus minimization (afl-cmin):
//!    a greedy subset covering every edge the full queue covers;
//! 3. [`trace_min`] — the paper's second pruning step: a greedy set
//!    cover over *debugger-stepped lines*, since a line stepped once
//!    suffices for debug-information measurements.

pub mod fuzzer;
pub mod minimize;

pub use fuzzer::{fuzz, fuzz_with_oracle, run_with_coverage, FuzzConfig, FuzzReport};
pub use minimize::{cmin, trace_min};
