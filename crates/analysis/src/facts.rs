//! [`ProgramFacts`]: the view of a Datalog program that analysis passes
//! run over.
//!
//! Passes cannot take a validated [`Program`] directly — `Program::new`
//! already rejects unsafe rules, arity mismatches, and EDB heads, so the
//! validation passes (HP003–HP005) would never fire. `ProgramFacts` holds
//! the same parts *without* validation: build it [`from a
//! program`](ProgramFacts::of_program) to analyze accepted input, or
//! [`from raw parts`](ProgramFacts::from_parts) to diagnose input that
//! `Program::new` rejects.

use std::collections::BTreeSet;

use hp_datalog::{PredRef, Program, Rule};
use hp_structures::Vocabulary;

use crate::diag::Span;
use crate::pdg::Pdg;

/// The raw parts of a (possibly invalid) Datalog program, plus the
/// inferred goal predicate.
#[derive(Clone, Debug)]
pub struct ProgramFacts {
    /// EDB vocabulary.
    pub edb: Vocabulary,
    /// IDB predicates as `(name, arity)`.
    pub idbs: Vec<(String, usize)>,
    /// The rules, unvalidated.
    pub rules: Vec<Rule>,
    /// Variable display names, indexed by variable id.
    pub var_names: Vec<String>,
    /// 1-based source line of each rule, when known.
    pub rule_lines: Vec<Option<usize>>,
    /// Index of the goal IDB, when one is designated.
    pub goal: Option<usize>,
}

/// The IDB name treated as the program's goal when present.
pub const GOAL_NAME: &str = "Goal";

impl ProgramFacts {
    /// Extract facts from a validated program. The goal is the program's
    /// designated goal: the one named by a `# goal:` pragma when present,
    /// else the IDB named `Goal`, if any.
    pub fn of_program(p: &Program) -> ProgramFacts {
        let max_var = p
            .rules()
            .iter()
            .flat_map(|r| r.variables())
            .max()
            .map(|v| v as usize + 1)
            .unwrap_or(0);
        ProgramFacts {
            edb: p.edb().clone(),
            idbs: p.idbs().to_vec(),
            rules: p.rules().to_vec(),
            var_names: (0..max_var as u32).map(|v| p.var_name(v)).collect(),
            rule_lines: (0..p.rules().len()).map(|ri| p.rule_line(ri)).collect(),
            goal: p.goal_index(),
        }
    }

    /// Build facts from raw parts (for analyzing programs that
    /// `Program::new` rejects). The goal is inferred by name.
    pub fn from_parts(
        edb: Vocabulary,
        idbs: Vec<(String, usize)>,
        rules: Vec<Rule>,
        var_names: Vec<String>,
    ) -> ProgramFacts {
        let rule_lines = vec![None; rules.len()];
        let goal = idbs.iter().position(|(n, _)| n == GOAL_NAME);
        ProgramFacts {
            edb,
            idbs,
            rules,
            var_names,
            rule_lines,
            goal,
        }
    }

    /// The span for rule `ri`.
    pub fn rule_span(&self, ri: usize) -> Span {
        Span {
            line: self.rule_lines.get(ri).copied().flatten(),
            col: None,
            rule: Some(ri),
            atom: None,
        }
    }

    /// The span for body atom `ai` of rule `ri`.
    pub fn rule_atom_span(&self, ri: usize, ai: usize) -> Span {
        Span {
            atom: Some(ai),
            ..self.rule_span(ri)
        }
    }

    /// Display name of a variable.
    pub fn var_name(&self, v: u32) -> String {
        self.var_names
            .get(v as usize)
            .cloned()
            .unwrap_or_else(|| format!("v{v}"))
    }

    /// Display name of a predicate reference (robust to out-of-range IDB
    /// indices, which raw parts may contain).
    pub fn pred_name(&self, p: PredRef) -> String {
        match p {
            PredRef::Edb(s) => self.edb.symbol(s).name.clone(),
            PredRef::Idb(i) => self
                .idbs
                .get(i)
                .map(|(n, _)| n.clone())
                .unwrap_or_else(|| format!("Idb#{i}")),
        }
    }

    /// Declared arity of a predicate reference, if it resolves.
    pub fn arity(&self, p: PredRef) -> Option<usize> {
        match p {
            PredRef::Edb(s) => Some(self.edb.arity(s)),
            PredRef::Idb(i) => self.idbs.get(i).map(|&(_, a)| a),
        }
    }

    /// The IDBs the goal (transitively) depends on, including the goal
    /// itself — the set of *useful* predicates. `None` when no goal is
    /// designated.
    pub fn useful_idbs(&self) -> Option<BTreeSet<usize>> {
        let g = self.goal?;
        Some(Pdg::new(self).reachable([g], false))
    }

    /// Total number of distinct variables across all rules — the `k` of
    /// k-Datalog (§2.3).
    pub fn total_variable_count(&self) -> usize {
        let mut vars: BTreeSet<u32> = BTreeSet::new();
        for r in &self.rules {
            vars.extend(r.variables());
        }
        vars.len()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use hp_datalog::gallery;

    #[test]
    fn facts_of_gallery_reach_leaf() {
        let p = gallery::reach_leaf();
        let f = ProgramFacts::of_program(&p);
        assert_eq!(f.goal, p.idb_index("Goal"));
        assert!(f.goal.is_some());
        // Goal depends on Reach.
        let useful = f.useful_idbs().unwrap();
        assert!(useful.contains(&p.idb_index("Reach").unwrap()));
        assert!(useful.contains(&p.idb_index("Goal").unwrap()));
    }

    #[test]
    fn no_goal_means_no_useful_set() {
        let f = ProgramFacts::of_program(&gallery::transitive_closure());
        assert_eq!(f.goal, None);
        assert!(f.useful_idbs().is_none());
    }

    #[test]
    fn dependency_graph_of_tc() {
        let f = ProgramFacts::of_program(&gallery::transitive_closure());
        let g = Pdg::new(&f);
        // T depends on itself (recursive rule).
        assert_eq!(g.num_preds(), 1);
        assert!(g.deps(0).contains(&0));
    }

    #[test]
    fn variable_count_matches_program() {
        let p = gallery::transitive_closure();
        let f = ProgramFacts::of_program(&p);
        assert_eq!(f.total_variable_count(), p.total_variable_count());
        assert_eq!(f.total_variable_count(), 3);
    }
}
