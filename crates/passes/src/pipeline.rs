//! Pipeline composition for the two compiler personalities.
//!
//! Pass names follow the respective compiler's flags so that the
//! rankings produced by DebugTuner read like the paper's Tables V and
//! VI. gcc levels are structurally different from each other (Og is a
//! hand-pruned O1; O2/O3 add backend scheduling, cross-jumping, the
//! `expensive-opts` group, and stronger inlining); clang levels are
//! incremental. The clang personality enables debug-value salvaging in
//! [`crate::manager::PassConfig`], which is set by [`crate::compile`].

use crate::manager::{Pass, PassConfig, PassInstance};
use crate::opt;
use crate::opt::inline::InlineParams;
use crate::OptLevel;
use dt_ir::Module;
use dt_machine::BackendConfig;

/// The modelled compiler.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Personality {
    Gcc,
    Clang,
}

impl Personality {
    pub fn name(self) -> &'static str {
        match self {
            Personality::Gcc => "gcc",
            Personality::Clang => "clang",
        }
    }
}

impl std::fmt::Display for Personality {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(self.name())
    }
}

/// A backend pass toggle: flag name plus the [`BackendConfig`] field it
/// drives.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum BackendToggle {
    Schedule,
    Sink,
    ShrinkWrap,
    CfgCleanup,
    Crossjump,
    Layout,
    ShareSpillSlots,
    ToplevelReorder,
}

/// A composed pipeline: gateable middle-end instances plus named
/// backend toggles.
pub struct Pipeline {
    pub mid: Vec<PassInstance>,
    pub backend: Vec<(&'static str, BackendToggle)>,
}

impl Pipeline {
    /// Materializes the backend configuration under a gate.
    pub fn backend_config(&self, gate: &crate::PassGate) -> BackendConfig {
        let mut cfg = BackendConfig::default();
        for (name, toggle) in &self.backend {
            if !gate.allows_name(name) {
                continue;
            }
            match toggle {
                BackendToggle::Schedule => cfg.schedule = true,
                BackendToggle::Sink => cfg.sink = true,
                BackendToggle::ShrinkWrap => cfg.shrink_wrap = true,
                BackendToggle::CfgCleanup => cfg.cfg_cleanup = true,
                BackendToggle::Crossjump => cfg.crossjump = true,
                BackendToggle::Layout => cfg.layout = true,
                BackendToggle::ShareSpillSlots => cfg.share_spill_slots = true,
                BackendToggle::ToplevelReorder => cfg.toplevel_reorder = true,
            }
        }
        cfg
    }

    /// All gateable pass names (middle-end + backend), deduplicated in
    /// pipeline order — the universe DebugTuner iterates over. Order
    /// is first occurrence in the pipeline (middle end, then backend).
    /// A level has a few dozen names, so a linear `contains` is the
    /// cheapest duplicate test.
    pub fn gateable_names(&self) -> Vec<&'static str> {
        let mid = self.mid.iter().flat_map(|inst| {
            let own = inst.gateable.then_some(inst.name);
            own.into_iter().chain(inst.also_gated_by.iter().copied())
        });
        let backend = self.backend.iter().map(|&(name, _)| name);
        let mut names: Vec<&'static str> = Vec::new();
        for name in mid.chain(backend) {
            if !names.contains(&name) {
                names.push(name);
            }
        }
        names
    }
}

/// Shorthand constructors for the pass instances.
mod p {
    use super::*;

    pub fn mem2reg_infra() -> PassInstance {
        PassInstance::infra("ssa-build", Pass::function(opt::mem2reg::run))
    }
    pub fn sroa() -> PassInstance {
        PassInstance::new("SROA", Pass::function(opt::mem2reg::run))
    }
    pub fn forwprop(name: &'static str) -> PassInstance {
        PassInstance::new(name, Pass::function(opt::instcombine::run))
    }
    pub fn fre(name: &'static str) -> PassInstance {
        PassInstance::new(name, Pass::function_reading_facts(opt::cse::run))
    }
    pub fn gvn(name: &'static str) -> PassInstance {
        PassInstance::new(name, Pass::function(opt::gvn::run))
    }
    pub fn gvn_grouped(name: &'static str, groups: &'static [&'static str]) -> PassInstance {
        PassInstance::grouped(name, groups, Pass::function(opt::gvn::run))
    }
    pub fn dce(name: &'static str) -> PassInstance {
        PassInstance::new(name, Pass::function_reading_facts(opt::dce::run))
    }
    pub fn dse(name: &'static str) -> PassInstance {
        PassInstance::new(name, Pass::function_reading_facts(opt::dse::run))
    }
    pub fn dse_preserving(name: &'static str) -> PassInstance {
        PassInstance::new(name, Pass::function_reading_facts(opt::dse::run_preserving))
    }
    pub fn simplifycfg(name: &'static str) -> PassInstance {
        PassInstance::new(name, Pass::function(opt::simplifycfg::run))
    }
    pub fn cfg_cleanup_infra() -> PassInstance {
        PassInstance::infra("cfg-cleanup", Pass::function(opt::simplifycfg::run_cleanup))
    }
    pub fn if_convert(name: &'static str) -> PassInstance {
        PassInstance::new(name, Pass::function(opt::simplifycfg::run_if_convert))
    }
    pub fn jump_threading(name: &'static str) -> PassInstance {
        PassInstance::new(name, Pass::function(opt::jump_threading::run))
    }
    pub fn licm(name: &'static str) -> PassInstance {
        PassInstance::new(name, Pass::function(opt::licm::run))
    }
    pub fn licm_grouped(name: &'static str, groups: &'static [&'static str]) -> PassInstance {
        PassInstance::grouped(name, groups, Pass::function(opt::licm::run))
    }
    pub fn rotate(name: &'static str) -> PassInstance {
        PassInstance::new(name, Pass::function(opt::loop_rotate::run))
    }
    pub fn unroll(name: &'static str) -> PassInstance {
        PassInstance::new(name, Pass::function(opt::loop_unroll::run))
    }
    pub fn unroll_grouped(name: &'static str, groups: &'static [&'static str]) -> PassInstance {
        PassInstance::grouped(name, groups, Pass::function(opt::loop_unroll::run))
    }
    pub fn lsr(name: &'static str) -> PassInstance {
        PassInstance::new(name, Pass::function(opt::lsr::run))
    }
    pub fn sink(name: &'static str) -> PassInstance {
        PassInstance::new(name, Pass::function(opt::sink::run))
    }
    pub fn ter() -> PassInstance {
        PassInstance::new("tree-ter", Pass::function(opt::copycoalesce::run_ter))
    }
    pub fn coalesce() -> PassInstance {
        PassInstance::new(
            "tree-coalesce-vars",
            Pass::function(opt::copycoalesce::run_coalesce),
        )
    }
    pub fn coalesce_infra() -> PassInstance {
        // clang's equivalent happens inside instruction selection and
        // is not a flag; run it ungated so codegen quality matches.
        PassInstance::infra("copy-coalesce", Pass::function(opt::copycoalesce::run_ter))
    }
    pub fn pure_const(name: &'static str) -> PassInstance {
        PassInstance::new(name, Pass::module(opt::ipa_pure_const::run))
    }
    pub fn branch_prob(name: &'static str) -> PassInstance {
        PassInstance::new(name, Pass::function(opt::branch_prob::run))
    }
    pub fn branch_prob_infra() -> PassInstance {
        // clang's BranchProbabilityInfo is an analysis, not a flag.
        PassInstance::infra(
            "branch-prob-analysis",
            Pass::function(opt::branch_prob::run),
        )
    }
    pub fn slp(name: &'static str) -> PassInstance {
        PassInstance::new(name, Pass::function(opt::slp::run))
    }
    pub fn inline(
        name: &'static str,
        groups: &'static [&'static str],
        params: InlineParams,
    ) -> PassInstance {
        let pass = move |m: &mut Module, c: &PassConfig| opt::inline::run_with(m, c, params);
        PassInstance::grouped(name, groups, Pass::module(pass))
    }
}

/// Builds the pipeline for a personality/level.
pub fn build(personality: Personality, level: OptLevel) -> Pipeline {
    match personality {
        Personality::Gcc => build_gcc(level),
        Personality::Clang => build_clang(level),
    }
}

fn build_gcc(level: OptLevel) -> Pipeline {
    use BackendToggle::*;
    let mut mid: Vec<PassInstance> = Vec::new();
    let mut backend: Vec<(&'static str, BackendToggle)> = Vec::new();
    if level == OptLevel::O0 {
        return Pipeline { mid, backend };
    }

    match level {
        OptLevel::Og => {
            mid.push(p::mem2reg_infra());
            mid.push(p::inline(
                "inline-fncs-called-once",
                &["inline"],
                InlineParams::called_once(),
            ));
            mid.push(p::forwprop("tree-forwprop"));
            mid.push(p::fre("tree-fre"));
            mid.push(p::coalesce());
            mid.push(p::dce("dce"));
            mid.push(p::dse_preserving("dse"));
            mid.push(p::pure_const("ipa-pure-const"));
            mid.push(p::branch_prob("guess-branch-probability"));
            mid.push(p::jump_threading("thread-jumps"));
            mid.push(p::cfg_cleanup_infra());
            mid.push(p::dce("dce"));
            backend.push(("reorder-blocks", Layout));
            backend.push(("shrink-wrap", ShrinkWrap));
            backend.push(("ira-share-spill-slots", ShareSpillSlots));
        }
        OptLevel::O1 => {
            mid.push(p::mem2reg_infra());
            mid.push(p::inline(
                "inline-fncs-called-once",
                &["inline"],
                InlineParams::called_once(),
            ));
            mid.push(p::inline(
                "inline-small-functions",
                &["inline"],
                InlineParams::small(),
            ));
            mid.push(p::forwprop("tree-forwprop"));
            mid.push(p::fre("tree-fre"));
            mid.push(p::ter());
            mid.push(p::coalesce());
            mid.push(p::gvn("tree-dominator-opts"));
            mid.push(p::dce("dce"));
            mid.push(p::dse("dse"));
            mid.push(p::sink("tree-sink"));
            mid.push(p::rotate("tree-ch"));
            mid.push(p::licm("tree-loop-optimize"));
            mid.push(p::pure_const("ipa-pure-const"));
            mid.push(p::branch_prob("guess-branch-probability"));
            mid.push(p::jump_threading("thread-jumps"));
            mid.push(p::cfg_cleanup_infra());
            mid.push(p::forwprop("tree-forwprop"));
            mid.push(p::dce("dce"));
            backend.push(("toplevel-reorder", ToplevelReorder));
            backend.push(("reorder-blocks", Layout));
            backend.push(("shrink-wrap", ShrinkWrap));
            backend.push(("ira-share-spill-slots", ShareSpillSlots));
        }
        OptLevel::O2 | OptLevel::O3 => {
            let o3 = level == OptLevel::O3;
            mid.push(p::mem2reg_infra());
            mid.push(p::inline(
                "inline-fncs-called-once",
                &["inline"],
                InlineParams::called_once(),
            ));
            mid.push(p::inline(
                "inline-small-functions",
                &["inline"],
                InlineParams::medium(),
            ));
            if o3 {
                mid.push(p::inline(
                    "inline-functions",
                    &["inline"],
                    InlineParams::aggressive(),
                ));
            } else {
                mid.push(p::inline(
                    "inline-functions",
                    &["inline"],
                    InlineParams {
                        threshold: 40,
                        ..InlineParams::aggressive()
                    },
                ));
            }
            mid.push(p::forwprop("tree-forwprop"));
            mid.push(p::fre("tree-fre"));
            mid.push(p::ter());
            mid.push(p::coalesce());
            mid.push(p::gvn("tree-dominator-opts"));
            mid.push(p::dce("dce"));
            mid.push(p::dse("dse"));
            mid.push(p::sink("tree-sink"));
            mid.push(p::rotate("tree-ch"));
            mid.push(p::licm("tree-loop-optimize"));
            mid.push(p::unroll_grouped("tree-loop-optimize", &[]));
            mid.push(p::lsr("tree-loop-ivopts"));
            mid.push(p::pure_const("ipa-pure-const"));
            mid.push(p::jump_threading("thread-jumps"));
            // The expensive-optimizations group: a second GVN+LICM
            // round, gated collectively (Section V-A's group toggle).
            mid.push(p::gvn_grouped("expensive-opts", &[]));
            mid.push(p::licm_grouped("expensive-opts", &[]));
            mid.push(p::if_convert("if-conversion"));
            if o3 {
                mid.push(p::slp("tree-slp-vectorize"));
                mid.push(p::forwprop("tree-forwprop"));
                mid.push(p::unroll("tree-loop-optimize"));
            }
            mid.push(p::branch_prob("guess-branch-probability"));
            mid.push(p::cfg_cleanup_infra());
            mid.push(p::forwprop("tree-forwprop"));
            mid.push(p::dce("dce"));
            backend.push(("toplevel-reorder", ToplevelReorder));
            backend.push(("schedule-insns2", Schedule));
            backend.push(("crossjumping", Crossjump));
            backend.push(("reorder-blocks", Layout));
            backend.push(("shrink-wrap", ShrinkWrap));
            backend.push(("ira-share-spill-slots", ShareSpillSlots));
        }
        OptLevel::O0 => unreachable!(),
    }
    Pipeline { mid, backend }
}

fn build_clang(level: OptLevel) -> Pipeline {
    use BackendToggle::*;
    let mut mid: Vec<PassInstance> = Vec::new();
    let mut backend: Vec<(&'static str, BackendToggle)> = Vec::new();
    if level == OptLevel::O0 {
        return Pipeline { mid, backend };
    }
    let o2plus = matches!(level, OptLevel::O2 | OptLevel::O3);
    let o3 = level == OptLevel::O3;

    mid.push(p::sroa());
    mid.push(p::fre("EarlyCSE"));
    mid.push(p::forwprop("InstCombine"));
    mid.push(p::simplifycfg("SimplifyCFG"));
    let inline_params = if o2plus {
        InlineParams::aggressive()
    } else {
        InlineParams::small()
    };
    mid.push(p::inline("Inliner", &[], inline_params));
    mid.push(p::coalesce_infra());
    mid.push(p::forwprop("InstCombine"));
    mid.push(p::fre("EarlyCSE"));
    if o2plus {
        mid.push(p::gvn("GVN"));
        mid.push(p::jump_threading("JumpThreading"));
    }
    mid.push(p::rotate("LoopRotate"));
    mid.push(p::licm("LICM"));
    if o2plus {
        mid.push(p::unroll("LoopUnroll"));
    }
    mid.push(p::lsr("LoopStrengthReduce"));
    mid.push(p::dse("DSE"));
    mid.push(p::sink("CodeSink"));
    mid.push(p::dce("ADCE"));
    if o2plus {
        mid.push(p::slp("SLPVectorizer"));
    }
    if o3 {
        mid.push(p::inline(
            "Inliner",
            &[],
            InlineParams {
                threshold: 90,
                ..InlineParams::aggressive()
            },
        ));
        mid.push(p::forwprop("InstCombine"));
        mid.push(p::gvn("GVN"));
        mid.push(p::unroll("LoopUnroll"));
    }
    mid.push(p::pure_const("FunctionAttrs"));
    // LLVM promotes allocas in several places beyond SROA (mem2reg
    // inside LICM's promotion, instcombine's store sinking, ...), so
    // gating "SROA" *delays* promotion rather than preventing it.
    // Model that with an ungated late promotion point: disabling SROA
    // still costs debug info less than it gains (the paper's ~2%
    // effect), instead of reverting the build to O0 shape.
    mid.push(PassInstance::infra(
        "late-mem2reg",
        Pass::function(opt::mem2reg::run),
    ));
    mid.push(p::fre("EarlyCSE"));
    mid.push(p::simplifycfg("SimplifyCFG"));
    mid.push(p::forwprop("InstCombine"));
    mid.push(p::dce("ADCE"));
    mid.push(p::branch_prob_infra());

    backend.push(("Machine code sinking", Sink));
    backend.push(("Control Flow Optimizer", CfgCleanup));
    backend.push(("Branch Prob BB Placement", Layout));
    if o2plus {
        backend.push(("Machine scheduling", Schedule));
    }
    Pipeline { mid, backend }
}

/// All gateable pass names for a personality/level (used by DebugTuner
/// to enumerate the toggles).
pub fn pipeline_pass_names(personality: Personality, level: OptLevel) -> Vec<&'static str> {
    build(personality, level).gateable_names()
}

/// The backend pass names of a personality/level.
pub fn backend_pass_names(personality: Personality, level: OptLevel) -> Vec<&'static str> {
    build(personality, level)
        .backend
        .iter()
        .map(|(n, _)| *n)
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{compile_source, CompileOptions, PassGate};

    fn run_obj(obj: &dt_machine::Object, entry: &str, args: &[i64], input: &[u8]) -> (i64, u64) {
        let r = dt_vm::Vm::run_to_completion(obj, entry, args, input, dt_vm::VmConfig::default())
            .unwrap();
        (r.ret, r.cycles)
    }

    const PROGRAM: &str = "\
int weight(int x) { return x * 3 + 1; }
int f(int n) {
    int total = 0;
    for (int i = 0; i < n; i++) {
        int w = weight(i);
        if (w % 2 == 0) { total += w; } else { total -= 1; }
    }
    return total;
}";

    fn reference(n: i64) -> i64 {
        let mut total = 0;
        for i in 0..n {
            let w = i * 3 + 1;
            if w % 2 == 0 {
                total += w;
            } else {
                total -= 1;
            }
        }
        total
    }

    #[test]
    fn every_level_is_semantically_correct() {
        for personality in [Personality::Gcc, Personality::Clang] {
            for &level in OptLevel::levels_for(personality) {
                let obj =
                    compile_source(PROGRAM, &CompileOptions::new(personality, level)).unwrap();
                let (ret, _) = run_obj(&obj, "f", &[25], &[]);
                assert_eq!(ret, reference(25), "{personality} {level}");
            }
        }
    }

    #[test]
    fn higher_levels_are_not_slower() {
        for personality in [Personality::Gcc, Personality::Clang] {
            let o0 =
                compile_source(PROGRAM, &CompileOptions::new(personality, OptLevel::O0)).unwrap();
            let (_, base) = run_obj(&o0, "f", &[200], &[]);
            let mut prev = base;
            for &level in OptLevel::levels_for(personality) {
                let obj =
                    compile_source(PROGRAM, &CompileOptions::new(personality, level)).unwrap();
                let (ret, cycles) = run_obj(&obj, "f", &[200], &[]);
                assert_eq!(ret, reference(200));
                assert!(
                    cycles <= base,
                    "{personality} {level}: {cycles} vs O0 {base}"
                );
                // Og..O3 should be broadly monotone (allow 10% slack
                // for heuristic interplay).
                assert!(
                    cycles as f64 <= prev as f64 * 1.10,
                    "{personality} {level}: {cycles} vs previous {prev}"
                );
                prev = cycles;
            }
        }
    }

    #[test]
    fn disabling_a_pass_changes_or_preserves_text_but_not_semantics() {
        for personality in [Personality::Gcc, Personality::Clang] {
            for &level in OptLevel::levels_for(personality) {
                for name in pipeline_pass_names(personality, level) {
                    let mut opts = CompileOptions::new(personality, level);
                    opts.gate = PassGate::disabling([name]);
                    let obj = compile_source(PROGRAM, &opts).unwrap();
                    let (ret, _) = run_obj(&obj, "f", &[25], &[]);
                    assert_eq!(ret, reference(25), "{personality} {level} -{name}");
                }
            }
        }
    }

    #[test]
    fn gate_on_master_inline_disables_all_variants() {
        let mut opts = CompileOptions::new(Personality::Gcc, OptLevel::O3);
        opts.gate = PassGate::disabling(["inline"]);
        let obj = compile_source(PROGRAM, &opts).unwrap();
        // `weight` must still be called.
        let f = obj.func_by_name("f").unwrap().1;
        let has_call = obj.code[f.start_index as usize..f.end_index as usize]
            .iter()
            .any(|i| matches!(i.op, dt_machine::FOp::CallF { .. }));
        assert!(has_call, "master inline switch must stop all inlining");

        let plain = compile_source(
            PROGRAM,
            &CompileOptions::new(Personality::Gcc, OptLevel::O3),
        )
        .unwrap();
        let f2 = plain.func_by_name("f").unwrap().1;
        let has_call2 = plain.code[f2.start_index as usize..f2.end_index as usize]
            .iter()
            .any(|i| matches!(i.op, dt_machine::FOp::CallF { .. }));
        assert!(!has_call2, "O3 inlines the small callee");
    }

    #[test]
    fn pass_name_universe_is_reasonable() {
        for personality in [Personality::Gcc, Personality::Clang] {
            for &level in OptLevel::levels_for(personality) {
                let names = pipeline_pass_names(personality, level);
                assert!(
                    names.len() >= 10,
                    "{personality} {level} exposes too few toggles: {names:?}"
                );
                // No duplicates.
                let mut sorted = names.clone();
                sorted.sort_unstable();
                sorted.dedup();
                assert_eq!(sorted.len(), names.len());
            }
        }
    }

    #[test]
    fn gateable_names_are_in_pipeline_order() {
        for personality in [Personality::Gcc, Personality::Clang] {
            for &level in OptLevel::levels_for(personality) {
                let pipeline = build(personality, level);
                // Reference: the naive quadratic first-occurrence scan.
                let mut expected: Vec<&'static str> = Vec::new();
                for inst in &pipeline.mid {
                    if inst.gateable && !expected.contains(&inst.name) {
                        expected.push(inst.name);
                    }
                    for g in inst.also_gated_by {
                        if !expected.contains(g) {
                            expected.push(g);
                        }
                    }
                }
                for (name, _) in &pipeline.backend {
                    if !expected.contains(name) {
                        expected.push(name);
                    }
                }
                assert_eq!(
                    pipeline.gateable_names(),
                    expected,
                    "{personality} {level}: names must come out in pipeline order"
                );
            }
        }
        // Spot-check a known ordering: gcc O2 runs the inliner family
        // before the loop passes, and backend toggles come last.
        let names = build(Personality::Gcc, OptLevel::O2).gateable_names();
        let pos = |n: &str| names.iter().position(|x| *x == n).unwrap();
        assert!(pos("inline-fncs-called-once") < pos("tree-loop-optimize"));
        assert!(pos("tree-loop-optimize") < pos("schedule-insns2"));
    }

    #[test]
    fn og_has_no_scheduling_but_o2_does() {
        let og = build(Personality::Gcc, OptLevel::Og);
        assert!(!og.backend.iter().any(|(n, _)| *n == "schedule-insns2"));
        let o2 = build(Personality::Gcc, OptLevel::O2);
        assert!(o2.backend.iter().any(|(n, _)| *n == "schedule-insns2"));
    }
}
