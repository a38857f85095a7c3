//! The analysis passes over Datalog programs.
//!
//! Validation passes (HP003–HP005) mirror `Program::new` exactly, but
//! report *every* violation instead of stopping at the first, and run over
//! raw [`ProgramFacts`] so rejected programs can be diagnosed too.
//! Hygiene passes (HP006, HP007, HP013, HP015) warn about
//! suspicious-but-valid programs; the demand- and derivability-based ones
//! are instances of the [dataflow framework](crate::dataflow) over the
//! [predicate dependency graph](crate::pdg). Classification passes
//! (HP008, HP009, HP012, HP016) emit notes connecting the program to the
//! paper's theory: recursion shape (per strongly connected component),
//! Datalog(k) membership, and the treewidth < k correspondence of
//! Theorem 7.1. The opt-in [`BoundednessPass`] (HP014) runs the certified
//! boundedness search of Theorem 7.5 under a stage/wall-clock budget.

use std::collections::BTreeSet;
use std::time::Duration;

use hp_datalog::{BoundednessVerdict, PredRef, Program};
use hp_guard::Budget;
use hp_structures::Graph;
use hp_tw::elimination::treewidth_upper_bound;

use crate::dataflow::{possibly_nonempty, relevant_preds};
use crate::diag::{Code, Diagnostic, Diagnostics, Severity};
use crate::facts::ProgramFacts;
use crate::pass::Pass;
use crate::pdg::Pdg;

/// HP005: every rule head must be an IDB atom.
pub struct HeadPass;

impl Pass for HeadPass {
    fn name(&self) -> &'static str {
        "head-is-idb"
    }
    fn codes(&self) -> &'static [Code] {
        &[Code::Hp005]
    }
    fn run(&self, facts: &ProgramFacts, out: &mut Diagnostics) {
        for (ri, r) in facts.rules.iter().enumerate() {
            if !matches!(r.head.pred, PredRef::Idb(_)) {
                out.push(Diagnostic::new(
                    Code::Hp005,
                    format!(
                        "rule head {} is an EDB predicate; heads must be IDBs",
                        facts.pred_name(r.head.pred)
                    ),
                    facts.rule_span(ri),
                ));
            }
        }
    }
}

/// HP004: range restriction (§2.3) — every head variable must occur in
/// a **positive** body atom. A variable that appears only under a
/// negation is not bound to anything: `not R(x,y)` restricts bindings,
/// it never produces them.
pub struct SafetyPass;

impl Pass for SafetyPass {
    fn name(&self) -> &'static str {
        "safety"
    }
    fn codes(&self) -> &'static [Code] {
        &[Code::Hp004]
    }
    fn run(&self, facts: &ProgramFacts, out: &mut Diagnostics) {
        for (ri, r) in facts.rules.iter().enumerate() {
            let body_vars: BTreeSet<u32> = r
                .body
                .iter()
                .filter(|a| !a.negated)
                .flat_map(|a| a.args.iter().copied())
                .collect();
            let negated_vars: BTreeSet<u32> = r
                .body
                .iter()
                .filter(|a| a.negated)
                .flat_map(|a| a.args.iter().copied())
                .collect();
            let unbound: Vec<String> = r
                .head
                .args
                .iter()
                .filter(|v| !body_vars.contains(v))
                .map(|&v| facts.var_name(v))
                .collect();
            if !unbound.is_empty() {
                let only_negated = r
                    .head
                    .args
                    .iter()
                    .filter(|v| !body_vars.contains(v))
                    .all(|v| negated_vars.contains(v));
                out.push(Diagnostic::new(
                    Code::Hp004,
                    format!(
                        "unsafe rule: head variable{} {} not bound by any positive body \
                         atom (range restriction, §2.3){}",
                        if unbound.len() == 1 { "" } else { "s" },
                        unbound.join(", "),
                        if only_negated {
                            " — a negated literal restricts bindings, it never produces them"
                        } else {
                            ""
                        }
                    ),
                    facts.rule_span(ri),
                ));
            }
        }
    }
}

/// HP022/HP023/HP024: polarity-aware stratification analysis.
///
/// HP023 is the negation-safety check (every variable of a negated
/// literal must be bound by a positive body atom; heads must not be
/// negated). HP022 fires when an IDB predicate depends on itself through
/// a negated occurrence — a negative edge inside an SCC of the
/// [`DepGraph`](hp_datalog::DepGraph) — in which case the stratified
/// semantics is undefined and `Program::parse` / evaluation refuse the
/// program. On stratifiable programs with negation, HP024 reports the
/// stratification depth and the graph's per-stratum predicate layering
/// (refining HP008/HP016, which classify only the positive dependency
/// structure).
pub struct StratificationPass;

impl Pass for StratificationPass {
    fn name(&self) -> &'static str {
        "stratification"
    }
    fn codes(&self) -> &'static [Code] {
        &[Code::Hp022, Code::Hp023, Code::Hp024]
    }
    fn run(&self, facts: &ProgramFacts, out: &mut Diagnostics) {
        let mut any_negation = false;
        for (ri, r) in facts.rules.iter().enumerate() {
            if r.head.negated {
                any_negation = true;
                out.push(Diagnostic::new(
                    Code::Hp023,
                    format!(
                        "rule head {} is negated; negation is only allowed on body literals",
                        facts.pred_name(r.head.pred)
                    ),
                    facts.rule_span(ri),
                ));
            }
            let pos_vars: BTreeSet<u32> = r
                .body
                .iter()
                .filter(|a| !a.negated)
                .flat_map(|a| a.args.iter().copied())
                .collect();
            for (ai, a) in r.body.iter().enumerate() {
                if !a.negated {
                    continue;
                }
                any_negation = true;
                let unbound: Vec<String> = a
                    .args
                    .iter()
                    .collect::<BTreeSet<_>>()
                    .into_iter()
                    .filter(|v| !pos_vars.contains(v))
                    .map(|&v| facts.var_name(v))
                    .collect();
                if !unbound.is_empty() {
                    out.push(Diagnostic::new(
                        Code::Hp023,
                        format!(
                            "unsafe negation: variable{} {} of negated atom {} not bound \
                             by any positive body atom",
                            if unbound.len() == 1 { "" } else { "s" },
                            unbound.join(", "),
                            facts.pred_name(a.pred),
                        ),
                        facts.rule_atom_span(ri, ai),
                    ));
                }
            }
        }
        if !any_negation {
            // Positive programs are trivially stratified (one stratum);
            // stay silent rather than restating HP008.
            return;
        }
        let pdg = Pdg::new(facts);
        // HP022: a negated edge inside a strongly connected component.
        // Report at each rule carrying such an edge.
        let mut unstratifiable = false;
        for (ri, r) in facts.rules.iter().enumerate() {
            if let Some(q) = pdg.negative_cycle_via(r) {
                unstratifiable = true;
                out.push(Diagnostic::new(
                    Code::Hp022,
                    format!(
                        "program is not stratifiable: {} depends on itself through \
                         a negated occurrence of {} — the stratified semantics is \
                         undefined and evaluation refuses the program",
                        facts.pred_name(r.head.pred),
                        facts.pred_name(PredRef::Idb(q)),
                    ),
                    facts.rule_span(ri),
                ));
            }
        }
        if unstratifiable {
            return;
        }
        // HP024: stratum report for stratifiable programs with negation.
        let strata = pdg.strata();
        let depth = strata.iter().copied().max().unwrap_or(0) + 1;
        let mut layers: Vec<Vec<&str>> = vec![Vec::new(); depth];
        for (i, &s) in strata.iter().enumerate() {
            layers[s].push(facts.idbs[i].0.as_str());
        }
        let layout: Vec<String> = layers
            .iter()
            .enumerate()
            .map(|(s, names)| format!("stratum {s} = {{{}}}", names.join(", ")))
            .collect();
        out.push(Diagnostic::new(
            Code::Hp024,
            format!(
                "stratified negation with {depth} strat{}: {} — each stratum is evaluated \
                 to its fixpoint before the next reads its negated guards",
                if depth == 1 { "um" } else { "a" },
                layout.join("; "),
            ),
            crate::diag::Span::default(),
        ));
    }
}

/// HP003: every atom's argument count must match its predicate's declared
/// arity.
pub struct ArityPass;

impl Pass for ArityPass {
    fn name(&self) -> &'static str {
        "arity"
    }
    fn codes(&self) -> &'static [Code] {
        &[Code::Hp003]
    }
    fn run(&self, facts: &ProgramFacts, out: &mut Diagnostics) {
        for (ri, r) in facts.rules.iter().enumerate() {
            for a in std::iter::once(&r.head).chain(&r.body) {
                let Some(want) = facts.arity(a.pred) else {
                    continue;
                };
                if a.args.len() != want {
                    out.push(Diagnostic::new(
                        Code::Hp003,
                        format!(
                            "predicate {} declared with arity {} but used with {} argument{}",
                            facts.pred_name(a.pred),
                            want,
                            a.args.len(),
                            if a.args.len() == 1 { "" } else { "s" }
                        ),
                        facts.rule_span(ri),
                    ));
                }
            }
        }
    }
}

/// HP006: an IDB the goal does not (transitively) depend on does no work.
/// Implemented as the backward [`Relevance`](crate::dataflow::Relevance)
/// demand analysis, so it also catches predicates that *are* referenced —
/// but only by other irrelevant rules. Only fires when a goal is
/// designated; without one, every IDB is treated as a program output.
pub struct UnusedIdbPass;

impl Pass for UnusedIdbPass {
    fn name(&self) -> &'static str {
        "unused-idb"
    }
    fn codes(&self) -> &'static [Code] {
        &[Code::Hp006]
    }
    fn run(&self, facts: &ProgramFacts, out: &mut Diagnostics) {
        let pdg = Pdg::new(facts);
        let Some(rel) = relevant_preds(facts, &pdg) else {
            return;
        };
        let goal = facts.goal.expect("relevance implies goal");
        for (i, (name, _)) in facts.idbs.iter().enumerate() {
            if !rel[i] {
                out.push(Diagnostic::new(
                    Code::Hp006,
                    format!(
                        "IDB {name} cannot influence the goal {}: it is unreachable \
                         in the predicate dependency graph",
                        facts.idbs[goal].0
                    ),
                    crate::diag::Span::default(),
                ));
            }
        }
    }
}

/// HP007: a rule whose head the goal does not (transitively) depend on
/// cannot change the goal relation — no derivation of the goal can use
/// such a rule. The demand analysis follows negated dependency edges
/// too: under stratified negation a goal can depend on a predicate
/// *only* through negated guards, and such predicates (and their rules)
/// are still live. These rules can be removed by
/// [`crate::dce::eliminate_dead_rules`] or `hompres-lint --fix`
/// ([`crate::fix`]) without changing the goal's fixpoint. The relevant
/// set comes from the same demand analysis as HP006.
pub struct DeadRulePass;

impl Pass for DeadRulePass {
    fn name(&self) -> &'static str {
        "dead-rule"
    }
    fn codes(&self) -> &'static [Code] {
        &[Code::Hp007]
    }
    fn run(&self, facts: &ProgramFacts, out: &mut Diagnostics) {
        let pdg = Pdg::new(facts);
        let Some(rel) = relevant_preds(facts, &pdg) else {
            return;
        };
        for (ri, r) in facts.rules.iter().enumerate() {
            let PredRef::Idb(h) = r.head.pred else {
                continue;
            };
            if h < facts.idbs.len() && !rel[h] {
                out.push(Diagnostic::new(
                    Code::Hp007,
                    format!(
                        "rule for {} cannot contribute to the goal {} and can be removed",
                        facts.pred_name(r.head.pred),
                        facts.idbs[facts.goal.expect("relevance implies goal")].0
                    ),
                    facts.rule_span(ri),
                ));
            }
        }
    }
}

/// HP015: an IDB that is empty on **every** input structure. The forward
/// [`PossiblyNonempty`](crate::dataflow::PossiblyNonempty) derivability
/// analysis is exact here: a predicate it cannot derive on the 1-element
/// structure with all EDB relations full is underivable everywhere, and
/// conversely. The classic instance is recursion with no base case.
pub struct EmptinessPass;

impl Pass for EmptinessPass {
    fn name(&self) -> &'static str {
        "guaranteed-empty"
    }
    fn codes(&self) -> &'static [Code] {
        &[Code::Hp015]
    }
    fn run(&self, facts: &ProgramFacts, out: &mut Diagnostics) {
        let pdg = Pdg::new(facts);
        let nonempty = possibly_nonempty(facts, &pdg);
        for (i, (name, _)) in facts.idbs.iter().enumerate() {
            if !nonempty[i] {
                let used_negated = facts.rules.iter().any(|r| {
                    r.body
                        .iter()
                        .any(|a| a.negated && a.pred == PredRef::Idb(i))
                });
                out.push(Diagnostic::new(
                    Code::Hp015,
                    format!(
                        "IDB {name} is empty on every input structure: its rules have \
                         no derivable base case{}",
                        if used_negated {
                            format!(
                                " — negated occurrences (`not {name}(..)`) are vacuously \
                                 true guards, so removing them is sound but removing the \
                                 rules they guard is not"
                            )
                        } else {
                            String::new()
                        }
                    ),
                    crate::diag::Span::default(),
                ));
            }
        }
    }
}

/// HP013: syntactically identical rules (same head and body atoms in the
/// same order) are redundant.
pub struct DuplicateRulePass;

impl Pass for DuplicateRulePass {
    fn name(&self) -> &'static str {
        "duplicate-rule"
    }
    fn codes(&self) -> &'static [Code] {
        &[Code::Hp013]
    }
    fn run(&self, facts: &ProgramFacts, out: &mut Diagnostics) {
        for ri in 0..facts.rules.len() {
            if let Some(prev) = facts.rules[..ri].iter().position(|r| *r == facts.rules[ri]) {
                out.push(Diagnostic::new(
                    Code::Hp013,
                    format!("rule duplicates rule {prev}"),
                    facts.rule_span(ri),
                ));
            }
        }
    }
}

/// HP008: recursion classification over the IDB dependency graph —
/// nonrecursive programs unfold into a single UCQ; linear recursion keeps
/// each rule to one recursive body atom; anything else is general.
pub struct RecursionPass;

/// The three recursion classes HP008 distinguishes.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum RecursionClass {
    /// No IDB depends on itself, even transitively.
    Nonrecursive,
    /// Recursive, but every rule body has at most one atom from the
    /// head's own recursive component.
    Linear,
    /// Some rule has two or more recursive body atoms.
    General,
}

/// Classify the recursion shape of a program from its [`Pdg`]: the
/// maximum [recursion width](Pdg::scc_recursion_width) over recursive
/// strongly connected components decides between linear (width 1) and
/// general (width ≥ 2) recursion.
pub fn recursion_class(facts: &ProgramFacts) -> RecursionClass {
    let pdg = Pdg::new(facts);
    let mut width = 0usize;
    for s in 0..pdg.scc_count() {
        if pdg.is_recursive_scc(s) {
            width = width.max(pdg.scc_recursion_width(facts, s));
        }
    }
    match width {
        0 => RecursionClass::Nonrecursive,
        1 => RecursionClass::Linear,
        _ => RecursionClass::General,
    }
}

impl Pass for RecursionPass {
    fn name(&self) -> &'static str {
        "recursion"
    }
    fn codes(&self) -> &'static [Code] {
        &[Code::Hp008]
    }
    fn run(&self, facts: &ProgramFacts, out: &mut Diagnostics) {
        if facts.rules.is_empty() {
            return;
        }
        let msg = match recursion_class(facts) {
            RecursionClass::Nonrecursive => format!(
                "nonrecursive program: the fixpoint is reached within {} stage{} and the \
                 goal unfolds into a single UCQ (stage_ucq)",
                facts.idbs.len(),
                if facts.idbs.len() == 1 { "" } else { "s" }
            ),
            RecursionClass::Linear => {
                "linear recursion: every rule has at most one recursive body atom".to_string()
            }
            RecursionClass::General => {
                "general recursion: some rule has two or more recursive body atoms".to_string()
            }
        };
        out.push(Diagnostic::new(
            Code::Hp008,
            msg,
            crate::diag::Span::default(),
        ));
    }
}

/// HP016: per-SCC recursion structure. Where HP008 gives one whole-program
/// verdict, this pass names each recursive component of the predicate
/// dependency graph and its [recursion width](Pdg::scc_recursion_width) —
/// the maximum number of same-component body atoms in any of its rules
/// (1 = linear, ≥ 2 = general).
pub struct SccWidthPass;

impl Pass for SccWidthPass {
    fn name(&self) -> &'static str {
        "scc-width"
    }
    fn codes(&self) -> &'static [Code] {
        &[Code::Hp016]
    }
    fn run(&self, facts: &ProgramFacts, out: &mut Diagnostics) {
        let pdg = Pdg::new(facts);
        for s in 0..pdg.scc_count() {
            if !pdg.is_recursive_scc(s) {
                continue;
            }
            let names: Vec<&str> = pdg
                .scc_members(s)
                .iter()
                .filter_map(|&p| facts.idbs.get(p).map(|(n, _)| n.as_str()))
                .collect();
            let w = pdg.scc_recursion_width(facts, s);
            out.push(Diagnostic::new(
                Code::Hp016,
                format!(
                    "recursive component {{{}}} has recursion width {w} ({})",
                    names.join(", "),
                    if w <= 1 { "linear" } else { "general" },
                ),
                crate::diag::Span::default(),
            ));
        }
    }
}

/// HP014 (opt-in): budgeted boundedness certification. Runs the certified
/// search of [`hp_datalog::certify_boundedness`] — `Θ^s ≡ Θ^{s+1}` by
/// Sagiv–Yannakakis UCQ equivalence — under a stage cap and wall-clock
/// limit. A *recursive* program certified bounded at stage `s` is, by
/// Theorem 7.5, equivalent to its stage-`s` UCQ unfolding: the recursion
/// is unnecessary, and the pass warns with the witnessing UCQ size.
///
/// Not part of [`Analyzer::default_pipeline`](crate::Analyzer): the
/// search is worst-case expensive (UCQ equivalence is a homomorphism
/// search per disjunct pair) and a *correctly* bounded recursive program
/// is a legitimate style, so the warning is reserved for
/// `hompres-lint --boundedness` and
/// [`Analyzer::with_boundedness`](crate::Analyzer::with_boundedness).
pub struct BoundednessPass {
    max_stage: usize,
    budget: Budget,
}

impl BoundednessPass {
    /// A pass with an explicit stage cap and shared resource budget
    /// (wall-clock, fuel, and/or cooperative interrupt).
    pub fn new(max_stage: usize, budget: Budget) -> BoundednessPass {
        BoundednessPass { max_stage, budget }
    }
}

impl Default for BoundednessPass {
    /// Stage cap 4, wall-clock limit 5 s — enough to certify every bounded
    /// gallery program while keeping the lint interactive.
    fn default() -> BoundednessPass {
        BoundednessPass::new(4, Budget::wall_clock(Duration::from_secs(5)))
    }
}

impl Pass for BoundednessPass {
    fn name(&self) -> &'static str {
        "boundedness"
    }
    fn codes(&self) -> &'static [Code] {
        &[Code::Hp014]
    }
    fn run(&self, facts: &ProgramFacts, out: &mut Diagnostics) {
        if recursion_class(facts) == RecursionClass::Nonrecursive {
            // Nonrecursive programs are trivially bounded; HP008 already
            // reports their UCQ unfolding.
            return;
        }
        // The certified search needs a validated program; raw facts that
        // fail validation already carry HP003–HP005 errors.
        let Ok(p) = Program::new(
            facts.edb.clone(),
            facts.idbs.clone(),
            facts.rules.clone(),
            facts.var_names.clone(),
        ) else {
            return;
        };
        let p = match facts.goal {
            Some(g) => match p.with_goal(&facts.idbs[g].0) {
                Ok(p) => p,
                Err(_) => return,
            },
            None => p,
        };
        match hp_datalog::certify_boundedness(&p, self.max_stage, &self.budget) {
            Ok(BoundednessVerdict::Certified {
                stage,
                ucq_disjuncts,
            }) => {
                out.push(Diagnostic::new(
                    Code::Hp014,
                    format!(
                        "certified bounded at stage {stage}: by Theorem 7.5 the program is \
                         equivalent to its stage-{stage} UCQ unfolding ({ucq_disjuncts} \
                         conjunctive quer{}) — the recursion is unnecessary",
                        if ucq_disjuncts == 1 { "y" } else { "ies" },
                    ),
                    crate::diag::Span::default(),
                ));
            }
            Ok(BoundednessVerdict::NotCertified { max_stage }) => {
                out.push(Diagnostic {
                    code: Code::Hp014,
                    severity: Severity::Note,
                    message: format!(
                        "not certified bounded within {max_stage} stage{}; the program may \
                         be unbounded (transitive closure never stabilizes) or the cap may \
                         be too low",
                        if max_stage == 1 { "" } else { "s" },
                    ),
                    span: crate::diag::Span::default(),
                });
            }
            Ok(BoundednessVerdict::BudgetExhausted {
                next_stage,
                resource,
                fuel_spent,
                elapsed,
            }) => {
                out.push(Diagnostic {
                    code: Code::Hp014,
                    severity: Severity::Note,
                    message: format!(
                        "boundedness search stopped before stage {next_stage} after \
                         {} ms ({resource} budget exhausted, {fuel_spent} fuel spent); \
                         no verdict",
                        elapsed.as_millis(),
                    ),
                    span: crate::diag::Span::default(),
                });
            }
            Err(_) => {}
        }
    }
}

/// HP009: the total distinct-variable count `k` makes this a k-Datalog
/// program; by Theorem 7.1 every stage of a k-Datalog program is a union
/// of `CQ^k` queries, whose canonical structures have treewidth < k.
pub struct VarCountPass;

impl Pass for VarCountPass {
    fn name(&self) -> &'static str {
        "var-count"
    }
    fn codes(&self) -> &'static [Code] {
        &[Code::Hp009]
    }
    fn run(&self, facts: &ProgramFacts, out: &mut Diagnostics) {
        if facts.rules.is_empty() {
            return;
        }
        let k = facts.total_variable_count();
        let max_rule = facts
            .rules
            .iter()
            .map(|r| r.variables().len())
            .max()
            .unwrap_or(0);
        out.push(Diagnostic::new(
            Code::Hp009,
            format!(
                "{k}-Datalog program ({k} distinct variables in total, at most {max_rule} \
                 per rule): every stage is a union of CQ^{k} queries, so stage canonical \
                 structures have treewidth < {k} (Theorem 7.1)"
            ),
            crate::diag::Span::default(),
        ));
    }
}

/// HP012: an upper bound on the treewidth of each rule body's Gaifman
/// graph (variables as vertices, co-occurrence in an atom as edges). The
/// maximum over rules lower-bounds how far the Theorem 7.1 budget
/// (treewidth < k) is actually used.
pub struct RuleTreewidthPass;

/// Treewidth upper bound of one rule's body Gaifman graph, or `None` for
/// empty bodies.
pub fn rule_body_treewidth(rule: &hp_datalog::Rule) -> Option<usize> {
    if rule.body.is_empty() {
        return None;
    }
    let vars: Vec<u32> = rule.variables().into_iter().collect();
    let pos = |v: u32| vars.binary_search(&v).expect("rule variable") as u32;
    let mut g = Graph::new(vars.len());
    for a in &rule.body {
        for (i, &u) in a.args.iter().enumerate() {
            for &v in &a.args[i + 1..] {
                if u != v {
                    g.add_edge(pos(u), pos(v));
                }
            }
        }
    }
    Some(treewidth_upper_bound(&g).0)
}

impl Pass for RuleTreewidthPass {
    fn name(&self) -> &'static str {
        "rule-treewidth"
    }
    fn codes(&self) -> &'static [Code] {
        &[Code::Hp012]
    }
    fn run(&self, facts: &ProgramFacts, out: &mut Diagnostics) {
        let best = facts
            .rules
            .iter()
            .enumerate()
            .filter_map(|(ri, r)| rule_body_treewidth(r).map(|w| (w, ri)))
            .max();
        let Some((w, ri)) = best else { return };
        let k = facts.total_variable_count();
        out.push(Diagnostic::new(
            Code::Hp012,
            format!(
                "maximum rule-body treewidth is at most {w} (rule {ri}); the k-Datalog \
                 budget allows treewidth up to {}",
                k.saturating_sub(1)
            ),
            crate::diag::Span::default(),
        ));
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::diag::Severity;
    use crate::pass::Analyzer;
    use hp_datalog::{gallery, DatalogAtom, Program, Rule};
    use hp_structures::Vocabulary;

    fn facts(text: &str) -> ProgramFacts {
        ProgramFacts::of_program(&Program::parse(text, &Vocabulary::digraph()).unwrap())
    }

    fn run(pass: &dyn Pass, f: &ProgramFacts) -> Diagnostics {
        let mut out = Diagnostics::new();
        pass.run(f, &mut out);
        out
    }

    // --- HP004 (safety) ---

    #[test]
    fn hp004_fires_on_unsafe_rule() {
        // Build raw facts directly: Program::parse would reject this.
        let edb = Vocabulary::digraph();
        let e = edb.lookup("E").unwrap();
        let f = ProgramFacts::from_parts(
            edb,
            vec![("T".to_string(), 2)],
            vec![Rule {
                head: DatalogAtom {
                    pred: PredRef::Idb(0),
                    args: vec![0, 1],
                    negated: false,
                },
                body: vec![DatalogAtom {
                    pred: PredRef::Edb(e),
                    args: vec![0, 0],
                    negated: false,
                }],
            }],
            vec!["x".to_string(), "y".to_string()],
        );
        let ds = run(&SafetyPass, &f);
        assert_eq!(ds.len(), 1);
        assert!(ds.contains(Code::Hp004));
        assert!(ds.iter().next().unwrap().message.contains('y'));
        assert_eq!(ds.iter().next().unwrap().span.rule, Some(0));
    }

    #[test]
    fn hp004_silent_on_safe_program() {
        assert!(run(&SafetyPass, &facts("T(x,y) :- E(x,y).")).is_empty());
    }

    // --- HP005 (head is IDB) ---

    #[test]
    fn hp005_fires_on_edb_head() {
        let edb = Vocabulary::digraph();
        let e = edb.lookup("E").unwrap();
        let f = ProgramFacts::from_parts(
            edb,
            vec![],
            vec![Rule {
                head: DatalogAtom {
                    pred: PredRef::Edb(e),
                    args: vec![0, 1],
                    negated: false,
                },
                body: vec![DatalogAtom {
                    pred: PredRef::Edb(e),
                    args: vec![0, 1],
                    negated: false,
                }],
            }],
            vec!["x".to_string(), "y".to_string()],
        );
        let ds = run(&HeadPass, &f);
        assert!(ds.contains(Code::Hp005));
    }

    #[test]
    fn hp005_silent_on_idb_heads() {
        assert!(run(&HeadPass, &facts("T(x,y) :- E(x,y).")).is_empty());
    }

    // --- HP003 (arity) ---

    #[test]
    fn hp003_fires_on_arity_mismatch() {
        let edb = Vocabulary::digraph();
        let e = edb.lookup("E").unwrap();
        let f = ProgramFacts::from_parts(
            edb,
            vec![("T".to_string(), 2)],
            vec![Rule {
                head: DatalogAtom {
                    pred: PredRef::Idb(0),
                    args: vec![0],
                    negated: false,
                },
                body: vec![DatalogAtom {
                    pred: PredRef::Edb(e),
                    args: vec![0, 1, 1],
                    negated: false,
                }],
            }],
            vec!["x".to_string(), "y".to_string()],
        );
        let ds = run(&ArityPass, &f);
        // Both the head (T/2 with 1 arg) and the body (E/2 with 3 args).
        assert_eq!(ds.len(), 2);
        assert!(ds.iter().all(|d| d.code == Code::Hp003));
    }

    #[test]
    fn hp003_silent_on_correct_arities() {
        assert!(run(&ArityPass, &facts("T(x,y) :- E(x,y), T(y,x).")).is_empty());
    }

    // --- HP006 (unused IDB) ---

    #[test]
    fn hp006_fires_on_unused_idb_with_goal() {
        let f = facts("T(x,y) :- E(x,y).\nU(x,y) :- E(y,x).\nGoal() :- T(x,x).");
        let ds = run(&UnusedIdbPass, &f);
        // T appears in Goal's body; U appears in no body and is not the goal.
        assert_eq!(ds.len(), 1, "{}", ds.render("t", None));
        assert!(ds.iter().next().unwrap().message.contains('U'));
        assert_eq!(ds.iter().next().unwrap().severity, Severity::Warning);
    }

    #[test]
    fn hp006_silent_without_goal() {
        // No Goal: T is an output, not unused.
        assert!(run(&UnusedIdbPass, &facts("T(x,y) :- E(x,y).")).is_empty());
    }

    // --- HP007 (dead rule) ---

    #[test]
    fn hp007_fires_on_goal_unreachable_rule() {
        let f = facts(
            "T(x,y) :- E(x,y).\nT(x,y) :- E(x,z), T(z,y).\nU(x) :- T(x,x).\nGoal() :- T(x,x).",
        );
        let ds = run(&DeadRulePass, &f);
        assert_eq!(ds.len(), 1, "{}", ds.render("t", None));
        let d = ds.iter().next().unwrap();
        assert_eq!(d.code, Code::Hp007);
        assert_eq!(d.span.rule, Some(2));
        assert_eq!(d.span.line, Some(3));
    }

    #[test]
    fn hp007_silent_when_all_rules_feed_goal() {
        let ds = run(
            &DeadRulePass,
            &facts("T(x,y) :- E(x,y).\nGoal() :- T(x,x)."),
        );
        assert!(ds.is_empty());
    }

    // --- HP013 (duplicate rule) ---

    #[test]
    fn hp013_fires_on_duplicate() {
        let f = facts("T(x,y) :- E(x,y).\nT(x,y) :- E(x,y).");
        let ds = run(&DuplicateRulePass, &f);
        assert_eq!(ds.len(), 1);
        assert_eq!(ds.iter().next().unwrap().span.rule, Some(1));
    }

    #[test]
    fn hp013_silent_on_distinct_rules() {
        assert!(run(
            &DuplicateRulePass,
            &facts("T(x,y) :- E(x,y).\nT(x,y) :- E(y,x).")
        )
        .is_empty());
    }

    // --- HP008 (recursion classification) ---

    #[test]
    fn hp008_classifies_gallery() {
        assert_eq!(
            recursion_class(&ProgramFacts::of_program(&gallery::transitive_closure())),
            RecursionClass::Linear
        );
        assert_eq!(
            recursion_class(&ProgramFacts::of_program(&gallery::two_hop())),
            RecursionClass::Nonrecursive
        );
        assert_eq!(
            recursion_class(&ProgramFacts::of_program(&gallery::same_generation())),
            RecursionClass::Linear
        );
    }

    #[test]
    fn hp008_general_recursion_detected() {
        // Doubly-recursive transitive closure.
        let f = facts("T(x,y) :- E(x,y).\nT(x,y) :- T(x,z), T(z,y).");
        assert_eq!(recursion_class(&f), RecursionClass::General);
        let ds = run(&RecursionPass, &f);
        assert!(ds.contains(Code::Hp008));
        assert!(ds.iter().next().unwrap().message.contains("general"));
    }

    #[test]
    fn hp008_nonrecursive_mentions_ucq_unfolding() {
        let ds = run(&RecursionPass, &facts("P2(x,y) :- E(x,z), E(z,y)."));
        assert!(ds.iter().next().unwrap().message.contains("UCQ"));
    }

    // --- HP009 (Datalog(k)) ---

    #[test]
    fn hp009_reports_k() {
        let ds = run(
            &VarCountPass,
            &ProgramFacts::of_program(&gallery::transitive_closure()),
        );
        let d = ds.iter().next().unwrap();
        assert_eq!(d.code, Code::Hp009);
        assert_eq!(d.severity, Severity::Note);
        assert!(d.message.contains("3-Datalog"), "{}", d.message);
        assert!(d.message.contains("treewidth < 3"), "{}", d.message);
    }

    #[test]
    fn hp009_silent_on_empty_program() {
        let f = ProgramFacts::from_parts(Vocabulary::digraph(), vec![], vec![], vec![]);
        assert!(run(&VarCountPass, &f).is_empty());
    }

    // --- HP012 (rule-body treewidth) ---

    #[test]
    fn hp012_bounds_rule_treewidth() {
        // Path-shaped body: treewidth 1.
        let f = facts("P2(x,y) :- E(x,z), E(z,y).");
        assert_eq!(rule_body_treewidth(&f.rules[0]), Some(1));
        let ds = run(&RuleTreewidthPass, &f);
        let d = ds.iter().next().unwrap();
        assert!(d.message.contains("at most 1"), "{}", d.message);
    }

    #[test]
    fn hp012_triangle_body_has_treewidth_2() {
        let f = facts("Tri() :- E(x,y), E(y,z), E(z,x).");
        assert_eq!(rule_body_treewidth(&f.rules[0]), Some(2));
    }

    // --- HP006 sharpening: transitive irrelevance ---

    #[test]
    fn hp006_fires_transitively() {
        // W is referenced — but only by the dead U, so demand analysis
        // flags both (the old body-usage check missed W).
        let f =
            facts("T(x,y) :- E(x,y).\nW(x) :- E(x,x).\nU(x) :- W(x), T(x,x).\nGoal() :- T(x,x).");
        let ds = run(&UnusedIdbPass, &f);
        assert_eq!(ds.len(), 2, "{}", ds.render("t", None));
        let msgs: Vec<&str> = ds.iter().map(|d| d.message.as_str()).collect();
        assert!(msgs.iter().any(|m| m.starts_with("IDB W")));
        assert!(msgs.iter().any(|m| m.starts_with("IDB U")));
    }

    // --- HP015 (guaranteed emptiness) ---

    #[test]
    fn hp015_fires_on_recursion_without_base_case() {
        // P and Q feed each other with no base case; Goal inherits their
        // emptiness.
        let f = facts("P(x) :- E(x,y), Q(y).\nQ(x) :- P(x).\nGoal() :- P(x).");
        let ds = run(&EmptinessPass, &f);
        assert_eq!(ds.len(), 3, "{}", ds.render("t", None));
        assert!(ds.iter().all(|d| d.code == Code::Hp015));
        assert!(ds.iter().all(|d| d.severity == Severity::Warning));
    }

    #[test]
    fn hp015_silent_when_every_idb_is_derivable() {
        let f = facts("T(x,y) :- E(x,y).\nT(x,y) :- E(x,z), T(z,y).\nGoal() :- T(x,x).");
        assert!(run(&EmptinessPass, &f).is_empty());
    }

    // --- HP016 (per-SCC recursion width) ---

    #[test]
    fn hp016_reports_each_recursive_component() {
        let f = facts(
            "Ev(x) :- E(x,x).\nEv(x) :- E(x,y), Od(y).\nOd(x) :- E(x,y), Ev(y).\n\
             D(x,y) :- E(x,y).\nD(x,y) :- D(x,z), D(z,y).",
        );
        let ds = run(&SccWidthPass, &f);
        assert_eq!(ds.len(), 2, "{}", ds.render("t", None));
        let msgs: Vec<&str> = ds.iter().map(|d| d.message.as_str()).collect();
        assert!(
            msgs.iter()
                .any(|m| m.contains("{Ev, Od}") && m.contains("width 1") && m.contains("linear")),
            "{msgs:?}"
        );
        assert!(
            msgs.iter()
                .any(|m| m.contains("{D}") && m.contains("width 2") && m.contains("general")),
            "{msgs:?}"
        );
        assert!(ds.iter().all(|d| d.severity == Severity::Note));
    }

    #[test]
    fn hp016_silent_on_nonrecursive_programs() {
        assert!(run(&SccWidthPass, &facts("P2(x,y) :- E(x,z), E(z,y).")).is_empty());
    }

    // --- HP014 (budgeted boundedness, opt-in) ---

    #[test]
    fn hp014_certifies_bounded_recursion_with_stage_and_ucq_size() {
        // Recursive but bounded: the recursive rule is absorbed (§7).
        let f = ProgramFacts::of_program(&gallery::absorbed_recursion());
        let pass = BoundednessPass::new(3, Budget::unlimited());
        let ds = run(&pass, &f);
        assert_eq!(ds.len(), 1, "{}", ds.render("t", None));
        let d = ds.iter().next().unwrap();
        assert_eq!(d.code, Code::Hp014);
        assert_eq!(d.severity, Severity::Warning);
        assert!(
            d.message.contains("certified bounded at stage"),
            "{}",
            d.message
        );
        assert!(d.message.contains("Theorem 7.5"), "{}", d.message);
        assert!(d.message.contains("UCQ unfolding"), "{}", d.message);
    }

    #[test]
    fn hp014_does_not_warn_on_unbounded_recursion() {
        // Transitive closure is unbounded: no warning, only the
        // not-certified note.
        let f = ProgramFacts::of_program(&gallery::transitive_closure());
        let pass = BoundednessPass::new(2, Budget::unlimited());
        let ds = run(&pass, &f);
        assert_eq!(ds.len(), 1);
        let d = ds.iter().next().unwrap();
        assert_eq!(d.severity, Severity::Note);
        assert!(d.message.contains("not certified"), "{}", d.message);
    }

    #[test]
    fn hp014_skips_nonrecursive_programs() {
        let f = ProgramFacts::of_program(&gallery::two_hop());
        let ds = run(&BoundednessPass::default(), &f);
        assert!(ds.is_empty(), "{}", ds.render("t", None));
    }

    #[test]
    fn hp014_respects_the_wall_clock_budget() {
        let f = ProgramFacts::of_program(&gallery::transitive_closure());
        let pass = BoundednessPass::new(64, Budget::wall_clock(std::time::Duration::ZERO));
        let ds = run(&pass, &f);
        assert_eq!(ds.len(), 1);
        let d = ds.iter().next().unwrap();
        assert_eq!(d.severity, Severity::Note);
        assert!(
            d.message.contains("wall-clock budget exhausted"),
            "{}",
            d.message
        );
    }

    #[test]
    fn hp014_reports_fuel_exhaustion_with_spend() {
        let f = ProgramFacts::of_program(&gallery::transitive_closure());
        let pass = BoundednessPass::new(64, Budget::fuel(1));
        let ds = run(&pass, &f);
        assert_eq!(ds.len(), 1);
        let d = ds.iter().next().unwrap();
        assert_eq!(d.severity, Severity::Note);
        assert!(d.message.contains("fuel budget exhausted"), "{}", d.message);
        assert!(d.message.contains("1 fuel spent"), "{}", d.message);
    }

    // --- pipeline smoke ---

    #[test]
    fn pipeline_is_ordered_by_source_position() {
        let a = Analyzer::default_pipeline();
        let f = facts("T(x,y) :- E(x,y).\nU(x) :- T(x,x).\nV(x) :- T(x,x).\nGoal() :- T(x,x).");
        let ds = a.run_on(&f);
        // Two dead rules (U, V) + two unused IDBs + notes.
        let dead: Vec<_> = ds.iter().filter(|d| d.code == Code::Hp007).collect();
        assert_eq!(dead.len(), 2);
        assert!(dead[0].span.rule < dead[1].span.rule);
    }
}
