//! The cross-component causality lint (`PA003`).
//!
//! Each component's instantaneous dependency graph is already checked in
//! isolation; composition adds the channel edges: a channel signal is one
//! node shared by its producer (who defines it) and its consumers (whose
//! equations read it). An instantaneous cycle through such shared nodes is
//! invisible to the per-component check yet deadlocks the blocking `∥→,a`
//! composition — each side waits for the other's write before it can fire.
//! (After desynchronization the inserted FIFO's `pre` happens to break the
//! loop, but the design it came from still specifies an unschedulable
//! synchronous reaction; the lint reports it with the full path.)

use std::collections::{BTreeMap, BTreeSet};

use polysig_gals::ChannelSpec;
use polysig_lang::{DependencyGraph, Program};
use polysig_tagged::SigName;

use crate::diag::{Diagnostic, LintCode};

/// A node of the composed graph: channel signals (and external inputs) are
/// program-global, everything else is scoped to its component so identical
/// local names in different components stay distinct.
type Node = (Option<String>, SigName);

fn show(node: &Node) -> String {
    match &node.0 {
        Some(c) => format!("{c}.{}", node.1),
        None => node.1.to_string(),
    }
}

/// Builds the composed instantaneous-dependency graph and reports every
/// elementary cycle's path (one `PA003` per distinct cycle).
pub fn check(program: &Program, channels: &[ChannelSpec], out: &mut Vec<Diagnostic>) {
    let global: BTreeSet<&SigName> = channels.iter().map(|c| &c.signal).collect();
    let mut edges: BTreeMap<Node, BTreeSet<Node>> = BTreeMap::new();
    for component in &program.components {
        let g = DependencyGraph::of_component(component);
        let key = |s: &SigName| -> Node {
            if global.contains(s) {
                (None, s.clone())
            } else {
                (Some(component.name.clone()), s.clone())
            }
        };
        for node in g.nodes() {
            let entry = edges.entry(key(node)).or_default();
            entry.extend(g.deps_of(node).map(key));
        }
    }

    // iterative three-color DFS; each grey-node hit yields one cycle, cut at
    // its first occurrence on the trace, deduplicated by rotation-normalized
    // node set
    let mut color: BTreeMap<&Node, u8> = edges.keys().map(|k| (k, 0u8)).collect();
    let mut seen_cycles: BTreeSet<Vec<Node>> = BTreeSet::new();
    let roots: Vec<&Node> = edges.keys().collect();
    for root in roots {
        if color[root] != 0 {
            continue;
        }
        // stack of (node, next-dep-index); trace mirrors the grey path
        let mut stack: Vec<(&Node, usize)> = vec![(root, 0)];
        *color.get_mut(root).expect("seeded") = 1;
        let mut trace: Vec<&Node> = vec![root];
        while let Some((node, idx)) = stack.pop() {
            let deps: Vec<&Node> = edges[node].iter().collect();
            if idx < deps.len() {
                stack.push((node, idx + 1));
                let next = deps[idx];
                if !edges.contains_key(next) {
                    continue;
                }
                match color[next] {
                    0 => {
                        *color.get_mut(next).expect("known node") = 1;
                        trace.push(next);
                        stack.push((next, 0));
                    }
                    1 => {
                        let start =
                            trace.iter().position(|n| *n == next).expect("grey node is on trace");
                        let cycle: Vec<Node> =
                            trace[start..].iter().map(|n| (*n).clone()).collect();
                        let mut normalized = cycle.clone();
                        normalized.sort();
                        if seen_cycles.insert(normalized) {
                            report(&cycle, out);
                        }
                    }
                    _ => {}
                }
            } else {
                *color.get_mut(node).expect("known node") = 2;
                trace.pop();
            }
        }
    }
}

fn report(cycle: &[Node], out: &mut Vec<Diagnostic>) {
    let cross = cycle.iter().any(|n| n.0.is_none());
    let mut path: Vec<String> = cycle.iter().map(show).collect();
    path.push(show(&cycle[0]));
    let mut d = Diagnostic::new(
        LintCode::CausalityCycle,
        format!(
            "instantaneous dependency cycle {}: {}",
            if cross {
                "across components (the blocking composition deadlocks on it)"
            } else {
                "within one component (no constructive evaluation order exists)"
            },
            path.join(" → "),
        ),
    )
    .on_signal(cycle[0].1.clone())
    .suggest("break the cycle with a `pre` (a delayed read) on one of its edges");
    if let Some(c) = cycle.iter().find_map(|n| n.0.clone()) {
        d = d.in_component(c);
    }
    out.push(d);
}

#[cfg(test)]
mod tests {
    use super::*;
    use polysig_gals::channel_edges;
    use polysig_lang::parse_program;

    fn run(src: &str) -> Vec<Diagnostic> {
        let p = parse_program(src).unwrap();
        let (channels, _) = channel_edges(&p);
        let mut out = Vec::new();
        check(&p, &channels, &mut out);
        out
    }

    #[test]
    fn acyclic_pipeline_is_silent() {
        let out = run("process P { input a: int; output x: int; x := a + 1; } \
             process Q { input x: int; output y: int; y := x * 2; }");
        assert!(out.is_empty());
    }

    #[test]
    fn cross_component_cycle_is_reported_with_full_path() {
        // x flows A→B instantaneously, k flows B→A instantaneously: each
        // component is acyclic alone, the composition deadlocks
        let out = run("process A { input a: int, k: int; output x: int; x := a + k; } \
             process B { input x: int; output k: int; k := x * 2; }");
        assert_eq!(out.len(), 1);
        assert_eq!(out[0].code, LintCode::CausalityCycle);
        assert!(out[0].message.contains("across components"));
        assert!(out[0].message.contains('x') && out[0].message.contains('k'));
    }

    #[test]
    fn pre_on_the_back_edge_breaks_the_cycle() {
        let out = run("process A { input a: int, k: int; output x: int; x := a + (pre 0 k); } \
             process B { input x: int; output k: int; k := x * 2; }");
        assert!(out.is_empty());
    }

    #[test]
    fn intra_component_cycle_is_reported_once() {
        let out = run("process P { output a: int, b: int; a := b + 1; b := a - 1; }");
        assert_eq!(out.len(), 1);
        assert!(out[0].message.contains("within one component"));
        assert_eq!(out[0].component.as_deref(), Some("P"));
    }

    #[test]
    fn same_local_names_in_two_components_do_not_alias() {
        // both components have a local `t`; neither cycles, and the shared
        // name must not fuse them into a phantom cycle
        let out = run("process A { input a: int; output x: int; local t: int; t := a; x := t; } \
             process B { input x: int; output y: int; local t: int; t := x; y := t; }");
        assert!(out.is_empty());
    }

    #[test]
    fn three_component_ring_is_one_cycle() {
        let out = run("process A { input c: int; output x: int; x := c; } \
             process B { input x: int; output y: int; y := x; } \
             process C { input y: int; output c: int; c := y; }");
        assert_eq!(out.len(), 1);
        assert!(out[0].message.contains("x") && out[0].message.contains("y"));
    }
}
