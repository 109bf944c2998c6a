//! Block placement (`reorder-blocks` / `Branch Probability Basic Block
//! Placement`).
//!
//! With optimization enabled, blocks are laid out in greedy chains that
//! follow the most probable successor, so hot paths become fallthrough
//! (the VM charges taken branches one extra cycle and mispredictions
//! heavily). Branch probabilities come from `guess-branch-probability`
//! or an AutoFDO profile; without them the pass has little to work
//! with — exactly the coupling the paper observes between the two
//! passes.
//!
//! Debug model: blocks moved out of creation order lose their
//! terminator line (the synthesized jumps and flipped branch polarities
//! no longer correspond to one source branch), mirroring how gcc's
//! reorder-blocks degrades branch-line stepping.

use crate::mir::{MFunction, MTerm};

/// Computes the layout. `optimize == false` restores creation order.
pub fn run(f: &mut MFunction, optimize: bool) {
    f.default_layout();
    if !optimize {
        return;
    }
    let default_order = f.layout.clone();
    let mut visited = vec![false; f.blocks.len()];
    let mut order: Vec<u32> = Vec::with_capacity(default_order.len());

    let mut seeds = default_order.iter().copied();
    let mut seed = Some(f.entry);
    while let Some(start) = seed {
        let mut cur = start;
        // Grow a chain following the likeliest successor.
        while !visited[cur as usize] {
            visited[cur as usize] = true;
            order.push(cur);
            let next = match &f.blocks[cur as usize].term {
                MTerm::Jmp(t) => Some(*t),
                MTerm::JCond {
                    then_bb,
                    else_bb,
                    prob_then,
                    ..
                } => {
                    let p = prob_then.unwrap_or(500);
                    // Prefer the likely side as fallthrough; the
                    // linearizer will flip the branch if needed.
                    let (hot, cold) = if p >= 500 {
                        (*then_bb, *else_bb)
                    } else {
                        (*else_bb, *then_bb)
                    };
                    if !visited[hot as usize] {
                        Some(hot)
                    } else {
                        Some(cold)
                    }
                }
                MTerm::Ret(_) => None,
            };
            match next {
                Some(n) if !visited[n as usize] => cur = n,
                _ => break,
            }
        }
        seed = seeds.find(|&b| !visited[b as usize]);
    }

    // Debug cost: a block whose fallthrough changed (the linearizer
    // will flip its branch or synthesize a jump) loses its branch line.
    let default_next = |b: u32| -> Option<u32> {
        let p = default_order.iter().position(|&x| x == b)?;
        default_order.get(p + 1).copied()
    };
    for (pos, &b) in order.iter().enumerate() {
        let next = order.get(pos + 1).copied();
        if next != default_next(b)
            && matches!(
                f.blocks[b as usize].term,
                MTerm::Jmp(_) | MTerm::JCond { .. }
            )
        {
            f.blocks[b as usize].term_line = 0;
        }
    }
    f.layout = order;
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::lower::lower_module;
    use crate::mir::MModule;

    fn machine(src: &str) -> MModule {
        lower_module(&dt_frontend::lower_source(src).unwrap())
    }

    #[test]
    fn unoptimized_layout_is_creation_order() {
        let mut mm = machine("int f(int c) { if (c) { out(1); } else { out(2); } return 0; }");
        let f = &mut mm.funcs[0];
        run(f, false);
        let mut sorted = f.layout.clone();
        sorted.sort_unstable();
        assert_eq!(f.layout[0], f.entry);
        assert!(f.layout.windows(2).all(|w| w[0] < w[1]) || f.layout == sorted);
    }

    #[test]
    fn optimized_layout_follows_probabilities() {
        let mut mm = machine("int f(int c) { if (c) { out(1); } else { out(2); } return 0; }");
        let f = &mut mm.funcs[0];
        // Mark the else side as hot.
        for b in 0..f.blocks.len() {
            if let MTerm::JCond { prob_then, .. } = &mut f.blocks[b].term {
                *prob_then = Some(100); // then cold
            }
        }
        run(f, true);
        // The chain from the entry must go to the else block first.
        let entry_term = f.blocks[f.entry as usize].term.clone();
        if let MTerm::JCond { else_bb, .. } = entry_term {
            let pos_else = f.layout.iter().position(|&b| b == else_bb).unwrap();
            assert_eq!(pos_else, 1, "hot (else) block should follow entry");
        } else {
            panic!("entry should end in a conditional branch");
        }
    }

    #[test]
    fn displaced_blocks_lose_terminator_lines() {
        let mut mm =
            machine("int f(int c) {\nif (c) {\nout(1);\n} else {\nout(2);\n}\nreturn 0;\n}");
        let f = &mut mm.funcs[0];
        for b in 0..f.blocks.len() {
            if let MTerm::JCond { prob_then, .. } = &mut f.blocks[b].term {
                *prob_then = Some(100);
            }
        }
        let lines_before: Vec<u32> = f.blocks.iter().map(|b| b.term_line).collect();
        run(f, true);
        let lines_after: Vec<u32> = f.blocks.iter().map(|b| b.term_line).collect();
        let zeroed = lines_before
            .iter()
            .zip(&lines_after)
            .filter(|(b, a)| **b != 0 && **a == 0)
            .count();
        assert!(zeroed >= 1, "reordering must cost some terminator lines");
    }

    #[test]
    fn layout_covers_all_reachable_blocks() {
        let mut mm = machine(
            "int f(int n) { int s = 0; for (int i = 0; i < n; i++) { if (i % 2) { s += i; } } return s; }",
        );
        let f = &mut mm.funcs[0];
        run(f, false);
        let default_len = f.layout.len();
        run(f, true);
        assert_eq!(f.layout.len(), default_len);
        assert_eq!(f.layout[0], f.entry);
    }
}
