//! The predicate dependency graph (PDG) — the substrate every
//! program-level analysis pass runs over.
//!
//! A [`Pdg`] is the engine's own [`DepGraph`] (edges `h → q` whenever a
//! rule with head `h` mentions IDB `q` in its body, condensed into SCCs in
//! topological order with dependencies first — the evaluation order a
//! forward dataflow analysis wants, and reversed the one a backward one
//! wants) plus the reverse indexes only the analyses need. Recursion
//! lives entirely inside the recursive SCCs, so per-SCC questions — is
//! this component recursive, how many same-component atoms does its
//! widest rule carry — localize the HP008/HP016 classifications the
//! paper's §7 reasons about.

use std::collections::BTreeSet;
use std::ops::Deref;

use hp_datalog::{DepGraph, PredRef};

use crate::facts::ProgramFacts;

/// The predicate dependency graph of a program: a [`DepGraph`] (every
/// graph query derefs to it) plus reverse edges and rule cross-indexes.
#[derive(Clone, Debug)]
pub struct Pdg {
    graph: DepGraph,
    /// Reverse edges: `dependents[q]` = heads whose rules mention `q`.
    dependents: Vec<BTreeSet<usize>>,
    /// `rules_using[q]` = indices of rules with an IDB-`q` body atom.
    rules_using: Vec<Vec<usize>>,
}

impl Deref for Pdg {
    type Target = DepGraph;

    fn deref(&self) -> &DepGraph {
        &self.graph
    }
}

impl Pdg {
    /// Build the graph and its condensation from program facts.
    /// Out-of-range IDB indices (possible in raw, unvalidated facts) are
    /// ignored, matching the robustness contract of [`ProgramFacts`].
    pub fn new(facts: &ProgramFacts) -> Pdg {
        let graph = DepGraph::new(facts.idbs.len(), &facts.rules);
        let n = graph.num_preds();
        let mut dependents = vec![BTreeSet::new(); n];
        let mut rules_using = vec![Vec::new(); n];
        for (ri, r) in facts.rules.iter().enumerate() {
            let PredRef::Idb(h) = r.head.pred else {
                continue;
            };
            if h >= n {
                continue;
            }
            let used_here: BTreeSet<usize> = r
                .body
                .iter()
                .filter_map(|a| match a.pred {
                    PredRef::Idb(q) if q < n => Some(q),
                    _ => None,
                })
                .collect();
            for q in used_here {
                dependents[q].insert(h);
                rules_using[q].push(ri);
            }
        }
        Pdg {
            graph,
            dependents,
            rules_using,
        }
    }

    /// IDB predicates whose rules mention `p` in a body.
    pub fn dependents(&self, p: usize) -> &BTreeSet<usize> {
        &self.dependents[p]
    }

    /// Indices of rules with an IDB-`p` body atom.
    pub fn rules_using(&self, p: usize) -> &[usize] {
        &self.rules_using[p]
    }

    /// The **recursion width** of an SCC: the maximum, over rules whose
    /// head lies in the SCC, of the number of body atoms whose predicate
    /// also lies in the SCC. Width 0 means nonrecursive, 1 linear
    /// recursion, ≥ 2 nonlinear (the doubly recursive transitive closure
    /// has width 2). Refines the whole-program HP008 class per component.
    pub fn scc_recursion_width(&self, facts: &ProgramFacts, s: usize) -> usize {
        let mut width = 0;
        for &p in self.scc_members(s) {
            for &ri in self.rules_of(p) {
                let w = facts.rules[ri]
                    .body
                    .iter()
                    .filter(|a| {
                        matches!(a.pred, PredRef::Idb(q) if q < self.num_preds() && self.scc_of(q) == s)
                    })
                    .count();
                width = width.max(w);
            }
        }
        width
    }

    /// Predicates reachable from `start` by following dependency edges
    /// (`backward = false`: what does `start` depend on?) or dependent
    /// edges (`backward = true`: what depends on `start`?). Includes the
    /// start set itself.
    pub fn reachable(
        &self,
        start: impl IntoIterator<Item = usize>,
        backward: bool,
    ) -> BTreeSet<usize> {
        let mut seen = BTreeSet::new();
        let mut stack: Vec<usize> = start
            .into_iter()
            .filter(|&p| p < self.num_preds())
            .collect();
        while let Some(p) = stack.pop() {
            if seen.insert(p) {
                let edges = if backward {
                    &self.dependents[p]
                } else {
                    self.deps(p)
                };
                stack.extend(edges.iter().copied());
            }
        }
        seen
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use hp_datalog::{gallery, Program};
    use hp_structures::Vocabulary;

    fn facts(text: &str) -> ProgramFacts {
        ProgramFacts::of_program(&Program::parse(text, &Vocabulary::digraph()).unwrap())
    }

    #[test]
    fn tc_is_one_recursive_scc() {
        let f = ProgramFacts::of_program(&gallery::transitive_closure());
        let g = Pdg::new(&f);
        assert_eq!(g.num_preds(), 1);
        assert_eq!(g.scc_count(), 1);
        assert!(g.is_recursive_scc(0));
        assert_eq!(g.scc_recursion_width(&f, 0), 1);
    }

    #[test]
    fn doubly_recursive_tc_has_width_two() {
        let f = facts("T(x,y) :- E(x,y).\nT(x,y) :- T(x,z), T(z,y).");
        let g = Pdg::new(&f);
        assert_eq!(g.scc_recursion_width(&f, g.scc_of(0)), 2);
    }

    #[test]
    fn condensation_is_topological() {
        // Goal -> U -> T, T recursive; Goal and U nonrecursive.
        let f =
            facts("T(x,y) :- E(x,y).\nT(x,y) :- E(x,z), T(z,y).\nU(x) :- T(x,x).\nGoal() :- U(x).");
        let g = Pdg::new(&f);
        assert_eq!(g.scc_count(), 3);
        let (t, u, goal) = (0, 1, 2);
        assert!(g.scc_of(t) < g.scc_of(u));
        assert!(g.scc_of(u) < g.scc_of(goal));
        assert!(g.is_recursive_scc(g.scc_of(t)));
        assert!(!g.is_recursive_scc(g.scc_of(u)));
        assert_eq!(g.scc_recursion_width(&f, g.scc_of(u)), 0);
    }

    #[test]
    fn mutual_recursion_is_one_scc() {
        let f = facts(
            "Even(x,y) :- E(x,z), Odd(z,y).\nOdd(x,y) :- E(x,y).\nOdd(x,y) :- E(x,z), Even(z,y).",
        );
        let g = Pdg::new(&f);
        assert_eq!(g.scc_count(), 1);
        assert_eq!(g.scc_members(0), &[0, 1]);
        assert!(g.is_recursive_scc(0));
        assert_eq!(g.scc_recursion_width(&f, 0), 1);
    }

    #[test]
    fn reachability_both_directions() {
        let f = facts("T(x,y) :- E(x,y).\nU(x) :- T(x,x).\nV(x) :- E(x,x).\nGoal() :- U(x).");
        let g = Pdg::new(&f);
        let (t, u, v, goal) = (0, 1, 2, 3);
        let fwd = g.reachable([goal], false);
        assert!(fwd.contains(&t) && fwd.contains(&u) && fwd.contains(&goal));
        assert!(!fwd.contains(&v));
        let bwd = g.reachable([t], true);
        assert_eq!(bwd, BTreeSet::from([t, u, goal]));
    }

    #[test]
    fn rule_cross_indexes() {
        let f = facts("T(x,y) :- E(x,y).\nT(x,y) :- E(x,z), T(z,y).\nGoal() :- T(x,x).");
        let g = Pdg::new(&f);
        assert_eq!(g.rules_of(0), &[0, 1]);
        assert_eq!(g.rules_of(1), &[2]);
        assert_eq!(g.rules_using(0), &[1, 2]);
        assert!(g.rules_using(1).is_empty());
        assert_eq!(g.dependents(0), &BTreeSet::from([0, 1]));
    }

    #[test]
    fn polarity_tracked_on_edges() {
        let f = ProgramFacts::of_program(&gallery::non_reachability());
        let g = Pdg::new(&f);
        let (t, nr) = (0, 1);
        assert!(g.has_negative_edge());
        assert!(g.deps(nr).contains(&t), "negated dep still a dep");
        assert_eq!(g.neg_deps(nr), &BTreeSet::from([t]));
        assert!(g.neg_deps(t).is_empty());
        // Both SCCs are negative-edge-free: the program is stratifiable.
        assert!((0..g.scc_count()).all(|s| !g.scc_has_negative_edge(s)));
        // A negated EDB guard adds no edge at all.
        let f = ProgramFacts::of_program(&gallery::set_difference());
        assert!(!Pdg::new(&f).has_negative_edge());
    }

    #[test]
    fn negative_edge_inside_scc_detected() {
        // Unstratifiable win/move: Win negates itself. Program::parse
        // rejects it, so build raw facts by hand.
        use hp_datalog::{DatalogAtom, Rule};
        let v = Vocabulary::from_pairs([("Move", 2)]);
        let m = v.lookup("Move").unwrap();
        let f = ProgramFacts::from_parts(
            v,
            vec![("Win".to_string(), 1)],
            vec![Rule {
                head: DatalogAtom::positive(PredRef::Idb(0), vec![0]),
                body: vec![
                    DatalogAtom::positive(PredRef::Edb(m), vec![0, 1]),
                    DatalogAtom {
                        pred: PredRef::Idb(0),
                        args: vec![1],
                        negated: true,
                    },
                ],
            }],
            vec!["x".to_string(), "y".to_string()],
        );
        let g = Pdg::new(&f);
        assert!(g.scc_has_negative_edge(g.scc_of(0)));
    }

    #[test]
    fn empty_program_graph() {
        let f = ProgramFacts::from_parts(Vocabulary::digraph(), vec![], vec![], vec![]);
        let g = Pdg::new(&f);
        assert_eq!(g.num_preds(), 0);
        assert_eq!(g.scc_count(), 0);
        assert!(g.reachable([], false).is_empty());
    }
}
