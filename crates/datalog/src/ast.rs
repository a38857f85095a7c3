//! Datalog programs: rules, predicates, and variable accounting.

use std::collections::BTreeSet;
use std::sync::Arc;

use hp_structures::{SymbolId, Vocabulary};

use crate::depgraph::DepGraph;
use crate::error::{DatalogError, DatalogErrorKind, DatalogSpan};

/// Reference to a predicate: either an EDB symbol of the input vocabulary
/// or an IDB predicate of the program.
#[derive(Clone, Copy, PartialEq, Eq, Hash, Debug)]
pub enum PredRef {
    /// Extensional predicate (input relation).
    Edb(SymbolId),
    /// Intensional predicate (index into [`Program::idbs`]).
    Idb(usize),
}

/// An atom in a rule: predicate applied to variables (no constants — the
/// paper's Datalog is constant-free; constants are simulated by unary EDB
/// marks when needed). Body atoms may be negated (`not R(x,y)`); heads
/// never are.
#[derive(Clone, PartialEq, Eq, Hash, Debug)]
pub struct DatalogAtom {
    /// The predicate.
    pub pred: PredRef,
    /// Argument variables.
    pub args: Vec<u32>,
    /// True for a negated body literal `not R(..)`.
    pub negated: bool,
}

impl DatalogAtom {
    /// A positive atom.
    pub fn positive(pred: PredRef, args: Vec<u32>) -> DatalogAtom {
        DatalogAtom {
            pred,
            args,
            negated: false,
        }
    }
}

/// A rule `H ← B₁, …, B_m`. The head must be an IDB atom.
#[derive(Clone, PartialEq, Eq, Hash, Debug)]
pub struct Rule {
    /// Head atom (IDB).
    pub head: DatalogAtom,
    /// Body atoms (EDB or IDB). An empty body makes the head
    /// unconditionally true for all variable assignments.
    pub body: Vec<DatalogAtom>,
}

impl Rule {
    /// The set of distinct variables in the rule.
    pub fn variables(&self) -> BTreeSet<u32> {
        let mut out: BTreeSet<u32> = self.head.args.iter().copied().collect();
        for a in &self.body {
            out.extend(a.args.iter().copied());
        }
        out
    }

    /// The variables bound by positive body atoms — the only variables a
    /// head or a negated literal may legally use.
    pub fn positive_body_vars(&self) -> BTreeSet<u32> {
        self.body
            .iter()
            .filter(|a| !a.negated)
            .flat_map(|a| a.args.iter().copied())
            .collect()
    }

    /// True when every head variable occurs in a **positive** body atom
    /// (range restriction / safety). Zero-arity heads are always safe.
    /// For purely positive rules this is the classical §2.3 condition.
    pub fn is_safe(&self) -> bool {
        let body_vars = self.positive_body_vars();
        self.head.args.iter().all(|v| body_vars.contains(v))
    }

    /// The first variable of a negated body literal that no positive body
    /// atom binds, if any — the witness for an unsafe negation.
    pub fn unsafe_negation_var(&self) -> Option<u32> {
        let bound = self.positive_body_vars();
        self.body
            .iter()
            .filter(|a| a.negated)
            .flat_map(|a| a.args.iter())
            .find(|v| !bound.contains(v))
            .copied()
    }

    /// True when the rule body contains a negated literal.
    pub fn has_negation(&self) -> bool {
        self.body.iter().any(|a| a.negated)
    }
}

/// A Datalog program over an EDB vocabulary, positive or with stratified
/// negation (validated at construction).
#[derive(Clone, Debug)]
pub struct Program {
    edb: Vocabulary,
    idbs: Vec<(String, usize)>,
    rules: Vec<Rule>,
    /// Variable names, indexed by variable id (for display).
    var_names: Vec<String>,
    /// 1-based source line of each rule, when parsed from text.
    rule_lines: Vec<Option<usize>>,
    /// Index of the designated goal IDB, when one exists: set by a
    /// `# goal: Name` pragma when parsed from text, otherwise the IDB
    /// named [`DEFAULT_GOAL_NAME`] by convention.
    goal: Option<usize>,
    /// The IDB dependency graph, its condensation and least strata.
    /// Built (and stratifiability enforced) at construction; rule plans
    /// share it.
    pub(crate) graph: Arc<DepGraph>,
}

/// The IDB name treated as the goal when no `# goal:` pragma designates
/// one explicitly.
pub const DEFAULT_GOAL_NAME: &str = "Goal";

impl Program {
    /// Build a program from parts. Validates arities and head predicates.
    pub fn new(
        edb: Vocabulary,
        idbs: Vec<(String, usize)>,
        rules: Vec<Rule>,
        var_names: Vec<String>,
    ) -> Result<Program, DatalogError> {
        let lines = vec![None; rules.len()];
        Program::new_with_lines(edb, idbs, rules, var_names, lines)
    }

    /// Like [`Program::new`], but records the 1-based source line of each
    /// rule so validation errors (and later static-analysis diagnostics)
    /// can point back into the source text. `rule_lines` must be aligned
    /// with `rules`.
    pub fn new_with_lines(
        edb: Vocabulary,
        idbs: Vec<(String, usize)>,
        rules: Vec<Rule>,
        var_names: Vec<String>,
        rule_lines: Vec<Option<usize>>,
    ) -> Result<Program, DatalogError> {
        assert_eq!(rules.len(), rule_lines.len(), "rule_lines misaligned");
        let goal = idbs.iter().position(|(n, _)| n == DEFAULT_GOAL_NAME);
        let graph = Arc::new(DepGraph::new(idbs.len(), &rules));
        let p = Program {
            edb,
            idbs,
            rules,
            var_names,
            rule_lines,
            goal,
            graph,
        };
        for (ri, r) in p.rules.iter().enumerate() {
            let span = DatalogSpan {
                line: p.rule_lines[ri],
                rule: Some(ri),
            };
            if !matches!(r.head.pred, PredRef::Idb(_)) {
                return Err(DatalogError::new(DatalogErrorKind::HeadNotIdb, span));
            }
            if r.head.negated {
                return Err(DatalogError::new(DatalogErrorKind::NegatedHead, span));
            }
            if !r.is_safe() {
                let body_vars = r.positive_body_vars();
                let unbound = r
                    .head
                    .args
                    .iter()
                    .find(|v| !body_vars.contains(v))
                    .copied()
                    .unwrap_or(0);
                return Err(DatalogError::new(
                    DatalogErrorKind::UnsafeRule {
                        var: p.var_name(unbound),
                    },
                    span,
                ));
            }
            if let Some(v) = r.unsafe_negation_var() {
                return Err(DatalogError::new(
                    DatalogErrorKind::UnsafeNegation { var: p.var_name(v) },
                    span,
                ));
            }
            for a in std::iter::once(&r.head).chain(&r.body) {
                let want = p.arity(a.pred);
                if a.args.len() != want {
                    return Err(DatalogError::new(
                        DatalogErrorKind::ArityMismatch {
                            pred: p.pred_name(a.pred),
                            expected: want,
                            got: a.args.len(),
                        },
                        span,
                    ));
                }
            }
        }
        // A program is stratifiable iff no negated edge closes a cycle;
        // the error points at the first rule, in rule order, holding one.
        for (ri, r) in p.rules.iter().enumerate() {
            if let Some(q) = p.graph.negative_cycle_via(r) {
                return Err(DatalogError::new(
                    DatalogErrorKind::UnstratifiableNegation {
                        pred: p.pred_name(r.head.pred),
                        via: p.idbs[q].0.clone(),
                    },
                    DatalogSpan {
                        line: p.rule_lines[ri],
                        rule: Some(ri),
                    },
                ));
            }
        }
        Ok(p)
    }

    /// Parse a program text (grammar documented in the crate-level docs;
    /// rules like `T(x,y) :- E(x,z), T(z,y).`, `#` comments). Errors carry
    /// the 1-based source line they occurred on.
    pub fn parse(text: &str, edb: &Vocabulary) -> Result<Program, DatalogError> {
        crate::parser::parse_program(text, edb)
    }

    /// The EDB vocabulary.
    pub fn edb(&self) -> &Vocabulary {
        &self.edb
    }

    /// IDB predicates as `(name, arity)` pairs.
    pub fn idbs(&self) -> &[(String, usize)] {
        &self.idbs
    }

    /// The rules.
    pub fn rules(&self) -> &[Rule] {
        &self.rules
    }

    /// True when `self` and `other` agree on the EDB vocabulary, the IDB
    /// predicates and the rules: the identity a [`crate::MaterializedDb`]
    /// is maintained for. Variable names, source lines and the goal do not
    /// count.
    pub fn same_rules(&self, other: &Program) -> bool {
        self.edb == other.edb && self.idbs == other.idbs && self.rules == other.rules
    }

    /// Look up an IDB predicate index by name.
    pub fn idb_index(&self, name: &str) -> Option<usize> {
        self.idbs.iter().position(|(n, _)| n == name)
    }

    /// Index of the designated goal IDB: the predicate named by a
    /// `# goal:` pragma when the program was parsed from text, otherwise
    /// the IDB named `Goal` when one exists.
    pub fn goal_index(&self) -> Option<usize> {
        self.goal
    }

    /// Name of the designated goal IDB, when one exists.
    pub fn goal_name(&self) -> Option<&str> {
        self.goal.map(|g| self.idbs[g].0.as_str())
    }

    /// Designate the IDB named `name` as the program's goal (the API
    /// counterpart of the `# goal:` pragma). Errors when no IDB of that
    /// name exists.
    pub fn with_goal(mut self, name: &str) -> Result<Program, DatalogError> {
        match self.idb_index(name) {
            Some(i) => {
                self.goal = Some(i);
                Ok(self)
            }
            None => Err(DatalogError::new(
                DatalogErrorKind::UnknownGoal {
                    name: name.to_string(),
                },
                DatalogSpan::default(),
            )),
        }
    }

    /// Arity of any predicate reference.
    pub fn arity(&self, p: PredRef) -> usize {
        match p {
            PredRef::Edb(s) => self.edb.arity(s),
            PredRef::Idb(i) => self.idbs[i].1,
        }
    }

    /// Display name of any predicate reference.
    pub fn pred_name(&self, p: PredRef) -> String {
        match p {
            PredRef::Edb(s) => self.edb.symbol(s).name.clone(),
            PredRef::Idb(i) => self.idbs[i].0.clone(),
        }
    }

    /// 1-based source line of rule `ri`, when the program was parsed from
    /// text (`None` for API-built programs).
    pub fn rule_line(&self, ri: usize) -> Option<usize> {
        self.rule_lines.get(ri).copied().flatten()
    }

    /// The **total number of distinct variables** in the program — the `k`
    /// of k-Datalog (§2.3: the transitive-closure program is a 3-Datalog
    /// program because it uses `x, y, z` in total).
    pub fn total_variable_count(&self) -> usize {
        let mut vars: BTreeSet<u32> = BTreeSet::new();
        for r in &self.rules {
            vars.extend(r.variables());
        }
        vars.len()
    }

    /// Variable name for display.
    pub fn var_name(&self, v: u32) -> String {
        self.var_names
            .get(v as usize)
            .cloned()
            .unwrap_or_else(|| format!("v{v}"))
    }

    /// Rules whose head is the given IDB.
    pub fn rules_for(&self, idb: usize) -> impl Iterator<Item = &Rule> {
        self.rules
            .iter()
            .filter(move |r| r.head.pred == PredRef::Idb(idb))
    }

    /// True when any rule body contains a negated literal. Positive
    /// programs take every code path they took before negation existed.
    pub fn has_negation(&self) -> bool {
        self.rules.iter().any(Rule::has_negation)
    }

    /// Stratum of IDB `i` (its negation depth). All zero for positive
    /// programs.
    pub fn stratum_of(&self, i: usize) -> usize {
        self.graph.strata()[i]
    }

    /// Stratum of each IDB, aligned with [`Program::idbs`]: the least
    /// with every positive dependency in a stratum `≤` and every negated
    /// one in a stratum `<` the dependent's.
    pub fn strata(&self) -> &[usize] {
        self.graph.strata()
    }

    /// Number of strata (`1 + max stratum`; `1` for positive programs,
    /// including programs with no IDBs at all).
    pub fn num_strata(&self) -> usize {
        self.strata().iter().copied().max().unwrap_or(0) + 1
    }

    /// The IDB dependency graph and its SCC condensation.
    pub fn graph(&self) -> &DepGraph {
        &self.graph
    }

    /// Stratum a rule belongs to: the stratum of its head predicate.
    pub fn rule_stratum(&self, ri: usize) -> usize {
        match self.rules[ri].head.pred {
            PredRef::Idb(i) => self.strata()[i],
            PredRef::Edb(_) => 0,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn tc() -> Program {
        Program::parse(
            "T(x,y) :- E(x,y).\nT(x,y) :- E(x,z), T(z,y).",
            &Vocabulary::digraph(),
        )
        .unwrap()
    }

    #[test]
    fn same_rules_ignores_names_lines_and_goal() {
        let v = Vocabulary::digraph();
        let renamed = Program::parse(
            "# goal: T\n\nT(u,w) :- E(u,w).\nT(u,w) :- E(u,v), T(v,w).",
            &v,
        )
        .unwrap();
        assert!(tc().same_rules(&renamed) && renamed.same_rules(&tc()));
        let reversed = Program::parse("T(x,y) :- E(y,x).\nT(x,y) :- E(x,z), T(z,y).", &v);
        assert!(!tc().same_rules(&reversed.unwrap()));
        let other_edb = Program::parse(
            "T(x,y) :- E(x,y).\nT(x,y) :- E(x,z), T(z,y).",
            &Vocabulary::from_pairs([("E", 2), ("M", 1)]),
        );
        assert!(!tc().same_rules(&other_edb.unwrap()));
    }

    #[test]
    fn tc_program_shape() {
        let p = tc();
        assert_eq!(p.idbs(), &[("T".to_string(), 2)]);
        assert_eq!(p.rules().len(), 2);
        assert_eq!(p.total_variable_count(), 3);
        assert_eq!(p.idb_index("T"), Some(0));
        assert_eq!(p.idb_index("U"), None);
    }

    #[test]
    fn safety_enforced() {
        let err = Program::parse("T(x,y) :- E(x,x).", &Vocabulary::digraph()).unwrap_err();
        assert!(
            matches!(err.kind, DatalogErrorKind::UnsafeRule { ref var } if var == "y"),
            "{err}"
        );
        assert!(err.to_string().contains("unsafe"), "{err}");
        assert_eq!(err.span.rule, Some(0));
        assert_eq!(err.span.line, Some(1));
    }

    #[test]
    fn arity_checked() {
        let err = Program::parse("T(x) :- E(x).", &Vocabulary::digraph()).unwrap_err();
        assert!(
            matches!(
                err.kind,
                DatalogErrorKind::ArityMismatch {
                    expected: 2,
                    got: 1,
                    ..
                }
            ),
            "{err}"
        );
        assert!(err.to_string().contains("arity"), "{err}");
    }

    #[test]
    fn api_built_program_has_no_lines() {
        let p = tc();
        // tc() is parsed, so its rules do carry lines.
        assert_eq!(p.rule_line(0), Some(1));
        assert_eq!(p.rule_line(1), Some(2));
        // An API-built clone via Program::new has none.
        let q = Program::new(
            p.edb().clone(),
            p.idbs().to_vec(),
            p.rules().to_vec(),
            (0..3).map(|v| p.var_name(v)).collect(),
        )
        .unwrap();
        assert_eq!(q.rule_line(0), None);
        assert_eq!(q.rule_line(7), None);
    }

    #[test]
    fn rule_variables() {
        let p = tc();
        let vars = p.rules()[1].variables();
        assert_eq!(vars.len(), 3);
    }

    #[test]
    fn zero_arity_idb_allowed() {
        let p = Program::parse("Goal() :- E(x,x).", &Vocabulary::digraph()).unwrap();
        assert_eq!(p.idbs(), &[("Goal".to_string(), 0)]);
        assert!(p.rules()[0].is_safe());
    }

    #[test]
    fn positive_programs_are_single_stratum() {
        let p = tc();
        assert!(!p.has_negation());
        assert_eq!(p.strata(), &[0]);
        assert_eq!(p.num_strata(), 1);
        assert_eq!(p.rule_stratum(0), 0);
    }

    #[test]
    fn strata_follow_negation_depth() {
        let v = Vocabulary::from_pairs([("E", 2), ("Node", 1)]);
        let p = Program::parse(
            "T(x,y) :- E(x,y).\nT(x,y) :- E(x,z), T(z,y).\n\
             NR(x,y) :- Node(x), Node(y), not T(x,y).\nGoal() :- NR(x,x).",
            &v,
        )
        .unwrap();
        assert!(p.has_negation());
        assert_eq!(p.stratum_of(p.idb_index("T").unwrap()), 0);
        assert_eq!(p.stratum_of(p.idb_index("NR").unwrap()), 1);
        // Goal depends on NR only positively: same stratum.
        assert_eq!(p.stratum_of(p.idb_index("Goal").unwrap()), 1);
        assert_eq!(p.num_strata(), 2);
    }

    #[test]
    fn negated_edb_guard_stays_in_stratum_zero() {
        let v = Vocabulary::from_pairs([("R", 2), ("S", 2)]);
        let p = Program::parse("D(x,y) :- R(x,y), not S(x,y).", &v).unwrap();
        assert!(p.has_negation());
        assert_eq!(p.strata(), &[0]);
        assert_eq!(p.num_strata(), 1);
    }

    #[test]
    fn unsafe_negation_rejected_with_witness() {
        // y occurs only under the negation: not range-restricted.
        let e = Program::parse("A(x) :- E(x,x), not E(x,y).", &Vocabulary::digraph()).unwrap_err();
        assert!(
            matches!(e.kind, DatalogErrorKind::UnsafeNegation { ref var } if var == "y"),
            "{e}"
        );
        assert_eq!(e.span.rule, Some(0));
        // A head variable bound only by a negated atom is plain-unsafe.
        let e = Program::parse("A(y) :- E(x,x), not E(x,y).", &Vocabulary::digraph()).unwrap_err();
        assert!(matches!(e.kind, DatalogErrorKind::UnsafeRule { .. }), "{e}");
    }

    #[test]
    fn cycle_through_negation_is_rejected_with_span() {
        // The naive win/lose game: Win depends negatively on itself.
        let v = Vocabulary::from_pairs([("Move", 2)]);
        let e = Program::parse("Win(x) :- Move(x,y), not Win(y).", &v).unwrap_err();
        assert!(
            matches!(
                e.kind,
                DatalogErrorKind::UnstratifiableNegation { ref pred, ref via }
                    if pred == "Win" && via == "Win"
            ),
            "{e}"
        );
        assert_eq!(e.span.rule, Some(0));
        assert_eq!(e.span.line, Some(1));
        assert!(e.to_string().contains("not stratifiable"), "{e}");
        // A longer cycle through a positive intermediary is also caught.
        let e = Program::parse(
            "P(x) :- E(x,y), not Q(y).\nQ(x) :- E(x,y), P(y).",
            &Vocabulary::digraph(),
        )
        .unwrap_err();
        assert!(
            matches!(e.kind, DatalogErrorKind::UnstratifiableNegation { .. }),
            "{e}"
        );
    }

    #[test]
    fn negation_within_scc_positive_edges_ok() {
        // Negating a *lower* stratum inside a recursive definition is fine.
        let v = Vocabulary::from_pairs([("E", 2), ("M", 1)]);
        let p = Program::parse(
            "Bad(x) :- M(x).\nReach(x) :- E(x,y), not Bad(x), M(y).\n\
             Reach(x) :- E(x,y), Reach(y), not Bad(x).",
            &v,
        )
        .unwrap();
        assert_eq!(p.stratum_of(p.idb_index("Bad").unwrap()), 0);
        assert_eq!(p.stratum_of(p.idb_index("Reach").unwrap()), 1);
    }
}
