//! Branch probability estimation (`guess-branch-probability`).
//!
//! Annotates conditional branches with taken-probabilities that the
//! backend's block layout consumes. With an AutoFDO profile the
//! probabilities come from real sample counts; otherwise classic
//! static heuristics apply (back edges are taken, early-exit returns
//! are not).
//!
//! The pass writes no code and loses no debug information *directly* —
//! but disabling it starves `reorder-blocks`, changing `.text` and the
//! measured metrics, exactly the indirect coupling the paper observes
//! at gcc's Og.

use crate::manager::{ModuleFacts, PassConfig};
use dt_ir::{DomTree, Function, LoopForest, Profile, Terminator};

/// Annotates every branch of every function.
pub fn run(f: &mut Function, _facts: &ModuleFacts, config: &PassConfig) -> bool {
    annotate(f, config.profile.as_ref())
}

fn annotate(f: &mut Function, profile: Option<&Profile>) -> bool {
    let dom = DomTree::compute(f);
    let forest = LoopForest::compute(f, &dom);
    let mut changed = false;

    for b in f.block_ids().collect::<Vec<_>>() {
        let Terminator::Branch {
            then_bb, else_bb, ..
        } = f.block(b).term
        else {
            continue;
        };

        let prob = profile
            .and_then(|p| profile_prob(f, then_bb, else_bb, p))
            .or_else(|| static_prob(f, &forest, b, then_bb, else_bb));

        if let Terminator::Branch { prob_then, .. } = &mut f.block_mut(b).term {
            if *prob_then != prob {
                *prob_then = prob;
                changed = true;
            }
        }
    }
    changed
}

/// Profile-derived probability: relative weight of the successors'
/// line samples.
fn profile_prob(
    f: &Function,
    then_bb: dt_ir::BlockId,
    else_bb: dt_ir::BlockId,
    profile: &Profile,
) -> Option<u16> {
    let weight = |b: dt_ir::BlockId| -> u64 {
        f.block(b)
            .insts
            .iter()
            .filter(|i| i.line != 0)
            .map(|i| profile.at(i.line))
            .max()
            .unwrap_or(0)
    };
    let wt = weight(then_bb);
    let we = weight(else_bb);
    if wt + we == 0 {
        return None;
    }
    let p = (wt as f64 / (wt + we) as f64 * 1000.0) as u16;
    Some(p.clamp(50, 950))
}

/// Static heuristics.
fn static_prob(
    f: &Function,
    forest: &LoopForest,
    b: dt_ir::BlockId,
    then_bb: dt_ir::BlockId,
    else_bb: dt_ir::BlockId,
) -> Option<u16> {
    // Loop-exit heuristic: the edge staying in the innermost loop of
    // `b` is taken.
    if let Some(l) = forest.innermost_containing(b) {
        match (l.contains(then_bb), l.contains(else_bb)) {
            (true, false) => return Some(900),
            (false, true) => return Some(100),
            _ => {}
        }
    }
    // Return heuristic: branches to immediate-return blocks are cold.
    let is_ret = |bb: dt_ir::BlockId| {
        matches!(f.block(bb).term, Terminator::Ret(_)) && f.block(bb).insts.len() <= 2
    };
    match (is_ret(then_bb), is_ret(else_bb)) {
        (true, false) => Some(300),
        (false, true) => Some(700),
        _ => Some(500),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::manager::run_whole_module;
    use crate::manager::PassConfig;
    use dt_ir::Module;

    fn annotated(src: &str, profile: Option<Profile>) -> Module {
        let mut m = dt_frontend::lower_source(src).unwrap();
        let cfg = PassConfig {
            profile,
            ..Default::default()
        };
        run_whole_module(&crate::opt::mem2reg::run, &mut m, &cfg);
        run_whole_module(&run, &mut m, &cfg);
        m
    }

    fn probs(m: &Module) -> Vec<Option<u16>> {
        m.funcs[0]
            .blocks
            .iter()
            .filter(|b| !b.dead)
            .filter_map(|b| match b.term {
                Terminator::Branch { prob_then, .. } => Some(prob_then),
                _ => None,
            })
            .collect()
    }

    #[test]
    fn loop_backedges_are_likely() {
        let m = annotated(
            "int f(int n) { int s = 0; while (s < n) { s++; } return s; }",
            None,
        );
        let ps = probs(&m);
        assert!(
            ps.iter().any(|p| *p == Some(900) || *p == Some(100)),
            "the loop branch must be biased: {ps:?}"
        );
    }

    #[test]
    fn early_returns_are_cold() {
        let m = annotated(
            "int f(int a) { if (a < 0) { return -1; } out(a); out(a); return a; }",
            None,
        );
        let ps = probs(&m);
        assert!(ps.contains(&Some(300)), "early-return edge is cold: {ps:?}");
    }

    #[test]
    fn profile_overrides_heuristics() {
        let src = "int f(int a) {\nint r = 0;\nif (a) {\nr = 1;\n} else {\nr = 2;\n}\nreturn r;\n}";
        let mut p = Profile::new();
        p.add(6, 1000); // the else arm is hot (line 6: r = 2)
        p.add(4, 10);
        let m = annotated(src, Some(p));
        let ps = probs(&m);
        assert!(
            ps.iter().flatten().any(|&p| p < 200),
            "profile must bias toward the else arm: {ps:?}"
        );
    }

    #[test]
    fn all_branches_get_probabilities() {
        let m = annotated(
            "int f(int a, int b) { if (a) { out(1); } if (b) { out(2); } return 0; }",
            None,
        );
        assert!(probs(&m).iter().all(|p| p.is_some()));
    }
}
