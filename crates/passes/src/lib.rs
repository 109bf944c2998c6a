//! The optimization pass library, pass manager, pass gate, and the
//! pipeline definitions of the two compiler personalities.
//!
//! This crate is where the paper's object of study lives: a pipeline
//! of individually toggleable passes, each of which transforms the IR
//! *and* is responsible for maintaining (or, realistically, degrading)
//! the debug metadata threaded through it. The [`PassGate`] is the
//! analogue of the authors' LLVM `OptPassGate` patch: it can skip any
//! named pass, including every repetition of it in the level
//! (Section III-A, footnote 2).
//!
//! The two [`Personality`] values model gcc and clang:
//!
//! * pipelines are composed differently per level (gcc's levels differ
//!   structurally; clang's are incremental),
//! * pass *names* match the respective compiler's flags (Tables V/VI),
//! * clang *salvages* debug values when CSE/DCE/LSR rewrite code
//!   (redirecting `dbg.value`s to equivalent values), gcc drops them —
//!   the policy difference behind the paper's observation that clang
//!   degrades more gently at O2/O3.
//!
//! [`compile`] runs the full pipeline (middle end, then the `dt-machine`
//! backend with its own gated passes) and returns the assembled object.
//! Both it and the checkpointed [`session::CompileSession`] (which
//! amortizes variant matrices by resuming from mid-pipeline snapshots)
//! execute stages through the same engine, so one-shot and
//! session-resumed builds are bit-identical.

pub mod manager;
pub mod opt;
pub mod pipeline;
pub mod session;

#[cfg(test)]
mod kernel_oracles;

pub use manager::{PassConfig, PassGate, PassInstance};
pub use pipeline::{backend_pass_names, pipeline_pass_names, Personality, Pipeline};
pub use session::{CompileSession, VariantBuild};

use dt_ir::{Module, Profile};
use dt_machine::Object;

/// Standard optimization levels.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub enum OptLevel {
    O0,
    /// Debug-friendly level (gcc only, per the paper).
    Og,
    O1,
    O2,
    O3,
}

impl OptLevel {
    /// All levels of a personality, in ascending aggressiveness.
    pub fn levels_for(p: Personality) -> &'static [OptLevel] {
        match p {
            Personality::Gcc => &[OptLevel::Og, OptLevel::O1, OptLevel::O2, OptLevel::O3],
            Personality::Clang => &[OptLevel::O1, OptLevel::O2, OptLevel::O3],
        }
    }

    /// The conventional flag spelling.
    pub fn name(self) -> &'static str {
        match self {
            OptLevel::O0 => "O0",
            OptLevel::Og => "Og",
            OptLevel::O1 => "O1",
            OptLevel::O2 => "O2",
            OptLevel::O3 => "O3",
        }
    }
}

impl std::fmt::Display for OptLevel {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(self.name())
    }
}

/// Everything needed to build one binary.
#[derive(Debug, Clone)]
pub struct CompileOptions {
    pub personality: Personality,
    pub level: OptLevel,
    pub gate: PassGate,
    /// AutoFDO profile guiding inlining/layout/unrolling decisions.
    pub profile: Option<Profile>,
}

impl CompileOptions {
    /// Plain options for a personality/level with nothing disabled.
    pub fn new(personality: Personality, level: OptLevel) -> Self {
        CompileOptions {
            personality,
            level,
            gate: PassGate::default(),
            profile: None,
        }
    }
}

/// Compiles an IR module to an object under the given options.
pub fn compile(module: &Module, options: &CompileOptions) -> Object {
    let mut module = module.clone();
    let pipeline = pipeline::build(options.personality, options.level);
    let config = PassConfig {
        salvage: options.personality == Personality::Clang,
        profile: options.profile.clone(),
        level: options.level,
    };
    manager::run_pipeline(&mut module, &pipeline, &options.gate, &config);
    let backend = pipeline.backend_config(&options.gate);
    dt_machine::run_backend(&module, &backend)
}

/// Parses, validates, lowers, and compiles MiniC source.
pub fn compile_source(src: &str, options: &CompileOptions) -> Result<Object, String> {
    let module = dt_frontend::lower_source(src)?;
    Ok(compile(&module, options))
}
