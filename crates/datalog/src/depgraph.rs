//! The IDB dependency graph and its SCC condensation — the one structure
//! behind stratification, stratum-ordered evaluation, incremental
//! maintenance, and the analyzer's program-level passes.
//!
//! Nodes are IDB predicates; there is an edge `h → q` whenever some rule
//! with head `h` mentions IDB `q` in its body ("`h` depends on `q`"),
//! labelled negative when some such occurrence is negated. An iterative
//! Tarjan walk condenses the graph into strongly connected components that
//! come out in **topological order with dependencies first**: every SCC
//! reads only itself and earlier SCCs. Recursion lives entirely inside
//! the recursive SCCs, and a program is stratifiable iff no SCC contains a
//! negative edge (Apt–Blair–Walker).

use std::collections::BTreeSet;

use crate::ast::{PredRef, Rule};

/// The IDB dependency graph of a rule set, with its condensation and
/// least strata precomputed.
#[derive(Clone, Debug)]
pub struct DepGraph {
    /// `deps[h]` = IDB indices occurring in bodies of rules with head `h`
    /// (positive *and* negated occurrences — a negated guard is still a
    /// dependency, both for demand and for evaluation order).
    deps: Vec<BTreeSet<usize>>,
    /// `neg_deps[h]` ⊆ `deps[h]` = IDB indices with a **negated**
    /// occurrence in some body of a rule with head `h`.
    neg_deps: Vec<BTreeSet<usize>>,
    /// `rules_of[h]` = indices of rules whose head is IDB `h`.
    rules_of: Vec<Vec<usize>>,
    /// SCC index of each predicate.
    scc_of: Vec<usize>,
    /// Members of each SCC (ascending), dependencies-first.
    sccs: Vec<Vec<usize>>,
    /// Least stratum of each predicate.
    strata: Vec<usize>,
}

impl DepGraph {
    /// Build the graph over `idb_count` IDB predicates. Rules whose head
    /// is not an in-range IDB, and out-of-range IDB body atoms (possible
    /// in raw, unvalidated rule sets), contribute no edges.
    pub fn new(idb_count: usize, rules: &[Rule]) -> DepGraph {
        let n = idb_count;
        let mut deps = vec![BTreeSet::new(); n];
        let mut neg_deps = vec![BTreeSet::new(); n];
        let mut rules_of = vec![Vec::new(); n];
        for (ri, r) in rules.iter().enumerate() {
            let PredRef::Idb(h) = r.head.pred else {
                continue;
            };
            if h >= n {
                continue;
            }
            rules_of[h].push(ri);
            for a in &r.body {
                if let PredRef::Idb(q) = a.pred {
                    if q < n {
                        deps[h].insert(q);
                        if a.negated {
                            neg_deps[h].insert(q);
                        }
                    }
                }
            }
        }
        let sccs = tarjan(&deps);
        let mut scc_of = vec![0usize; n];
        for (s, members) in sccs.iter().enumerate() {
            for &p in members {
                scc_of[p] = s;
            }
        }
        // Least strata in one pass over the condensation: an SCC sits at
        // the maximum over its outgoing edges of the target's stratum,
        // plus one through a negative edge. Edges inside an SCC force
        // equality, so they add nothing — and a negative one makes the
        // program unstratifiable, which callers detect separately.
        let mut strata = vec![0usize; n];
        for (s, members) in sccs.iter().enumerate() {
            let mut level = 0;
            for &p in members {
                for &q in deps[p].iter().filter(|&&q| scc_of[q] != s) {
                    level = level.max(strata[q] + usize::from(neg_deps[p].contains(&q)));
                }
            }
            for &p in members {
                strata[p] = level;
            }
        }
        DepGraph {
            deps,
            neg_deps,
            rules_of,
            scc_of,
            sccs,
            strata,
        }
    }

    /// Number of predicates (nodes).
    pub fn num_preds(&self) -> usize {
        self.deps.len()
    }

    /// IDB predicates the given predicate's rules depend on.
    pub fn deps(&self, p: usize) -> &BTreeSet<usize> {
        &self.deps[p]
    }

    /// IDB predicates with a **negated** occurrence in the bodies of
    /// `p`'s rules (a subset of [`deps`](DepGraph::deps)).
    pub fn neg_deps(&self, p: usize) -> &BTreeSet<usize> {
        &self.neg_deps[p]
    }

    /// True when some rule body negates an IDB predicate (negated EDB
    /// guards carry no dependency edge and do not count).
    pub fn has_negative_edge(&self) -> bool {
        self.neg_deps.iter().any(|s| !s.is_empty())
    }

    /// Indices of rules whose head is `p`, in rule order.
    pub fn rules_of(&self, p: usize) -> &[usize] {
        &self.rules_of[p]
    }

    /// Number of strongly connected components.
    pub fn scc_count(&self) -> usize {
        self.sccs.len()
    }

    /// SCC index of a predicate. Indices are topological: every
    /// dependency of `p` outside its own SCC has a strictly smaller SCC
    /// index.
    pub fn scc_of(&self, p: usize) -> usize {
        self.scc_of[p]
    }

    /// Members of an SCC (ascending predicate indices).
    pub fn scc_members(&self, s: usize) -> &[usize] {
        &self.sccs[s]
    }

    /// All SCCs in topological order, dependencies first.
    pub fn sccs(&self) -> impl Iterator<Item = &[usize]> {
        self.sccs.iter().map(|m| m.as_slice())
    }

    /// True when the SCC contains a cycle: more than one member, or a
    /// single member with a self-loop. Exactly the recursive components.
    pub fn is_recursive_scc(&self, s: usize) -> bool {
        let m = &self.sccs[s];
        m.len() > 1 || self.deps[m[0]].contains(&m[0])
    }

    /// True when predicate `p` is (transitively) recursive, i.e. lives in
    /// a recursive SCC.
    pub fn is_recursive_pred(&self, p: usize) -> bool {
        self.is_recursive_scc(self.scc_of[p])
    }

    /// True when SCC `s` contains a negative edge — some member's rules
    /// negate another member (or itself). A program is stratifiable iff
    /// **no** SCC has one.
    pub fn scc_has_negative_edge(&self, s: usize) -> bool {
        self.sccs[s]
            .iter()
            .any(|&p| self.neg_deps[p].iter().any(|&q| self.scc_of[q] == s))
    }

    /// The first negated IDB body atom of `rule` whose predicate shares an
    /// SCC with the rule's head — the edge that closes a cycle through
    /// negation — if any.
    pub fn negative_cycle_via(&self, rule: &Rule) -> Option<usize> {
        let n = self.num_preds();
        let PredRef::Idb(h) = rule.head.pred else {
            return None;
        };
        if h >= n {
            return None;
        }
        rule.body
            .iter()
            .filter(|a| a.negated)
            .find_map(|a| match a.pred {
                PredRef::Idb(q) if q < n && self.scc_of[q] == self.scc_of[h] => Some(q),
                _ => None,
            })
    }

    /// Least stratum of each predicate: the least assignment with every
    /// positive dependency in a stratum `≤` and every negated one in a
    /// stratum `<` the dependent's. All zero for positive programs.
    /// Meaningful only when no SCC has a negative edge.
    pub fn strata(&self) -> &[usize] {
        &self.strata
    }
}

/// Iterative Tarjan over `deps`, roots and edges visited in ascending
/// order. Tarjan finishes a component only after every component it can
/// reach, so the emission order is already dependencies-first.
fn tarjan(deps: &[BTreeSet<usize>]) -> Vec<Vec<usize>> {
    const UNSEEN: usize = usize::MAX;
    let n = deps.len();
    let mut index = vec![UNSEEN; n];
    let mut low = vec![0usize; n];
    let mut on_stack = vec![false; n];
    let mut stack: Vec<usize> = Vec::new();
    let mut next = 0usize;
    let mut sccs: Vec<Vec<usize>> = Vec::new();
    for root in 0..n {
        if index[root] != UNSEEN {
            continue;
        }
        let mut frames = vec![(root, deps[root].iter())];
        index[root] = next;
        low[root] = next;
        next += 1;
        stack.push(root);
        on_stack[root] = true;
        while let Some((v, edges)) = frames.last_mut() {
            let v = *v;
            if let Some(&w) = edges.next() {
                if index[w] == UNSEEN {
                    index[w] = next;
                    low[w] = next;
                    next += 1;
                    stack.push(w);
                    on_stack[w] = true;
                    frames.push((w, deps[w].iter()));
                } else if on_stack[w] {
                    low[v] = low[v].min(index[w]);
                }
                continue;
            }
            frames.pop();
            if let Some(&(parent, _)) = frames.last() {
                low[parent] = low[parent].min(low[v]);
            }
            if low[v] == index[v] {
                let mut members = Vec::new();
                loop {
                    let w = stack.pop().expect("Tarjan stack holds the root");
                    on_stack[w] = false;
                    members.push(w);
                    if w == v {
                        break;
                    }
                }
                members.sort_unstable();
                sccs.push(members);
            }
        }
    }
    sccs
}
