//! Semantic query analysis: core-based rule minimization, containment
//! lints, and the canonical-core key.
//!
//! The syntactic passes ([`crate::datalog_passes`]) never look *inside* a
//! rule body. This module does, through the Chandra–Merlin lens
//! (Theorem 2.1): every rule body is the canonical conjunctive query of a
//! structure over the combined EDB ∪ IDB vocabulary, with the head
//! arguments as free positions. CQ containment, core minimization
//! (§6.2), and canonical labelling then yield four semantic lints:
//!
//! - **HP017 redundant atom** — the body folds onto itself without the
//!   atom, so deleting it preserves the rule's derivations *on every
//!   input and at every fixpoint stage* (the containment is over the
//!   combined vocabulary, treating IDBs as opaque relations, so it holds
//!   for arbitrary IDB values — valid even in recursive programs);
//! - **HP018 subsumed rule** — another rule for the same head contains
//!   this one, so this one derives nothing new (same stage-wise
//!   argument);
//! - **HP019 equivalent queries** — in a nonrecursive program, two IDB
//!   predicates whose unfolded UCQs are homomorphically equivalent
//!   (identical canonical cores). The pairwise check is keyed on per-IDB
//!   [`CanonicalCoreKey`]s: each predicate's core is computed once, and a
//!   pair pays for the homomorphism check only when the two 128-bit keys
//!   collide — distinct keys certify inequivalence;
//! - **HP020 cross join** — the body's variable-sharing graph is
//!   disconnected, so variable-disjoint atom groups multiply
//!   independently (a Cartesian product, usually a bug and always a
//!   blow-up risk).
//!
//! Rules carrying a negated literal are outside the Chandra–Merlin
//! fragment — their bodies are not conjunctive queries — so the scan
//! skips them (and never uses a negated rule as a subsumption witness)
//! rather than misread `not R(x)` as `R(x)`. The stratification-aware
//! lints for negation live in [`crate::datalog_passes`] (HP022–HP024).
//!
//! Every check charges an [`hp_guard`] budget. Exhaustion is graceful:
//! the scan stops inside a deterministic item and hands back a
//! [`SemanticCheckpoint`] with the findings confirmed so far (never a
//! wrong verdict) and the index of the item it was running.
//!
//! [`goal_core_key`] exposes the cache identity: the canonical-core key
//! of the goal's unfolded UCQ, stable across runs, machines, variable
//! renamings, redundant atoms, and disjunct order.
//!
//! Cores are compositional. Replacing a subquery by an equivalent one
//! keeps the query equivalent (Theorem 2.1), and cores are unique up to
//! isomorphism (§6.2), so an IDB's core is computed by unfolding its rules
//! one step over its children's memoised *cores* rather than their raw
//! unfoldings, and the key comes out identical. Each IDB is unfolded and
//! minimized once per scan.

use std::collections::{BTreeMap, BTreeSet};

use hp_datalog::{unfold_over, DatalogAtom, PredRef, Program, Rule};
use hp_guard::{Budget, Budgeted, Gauge, Stop};
use hp_logic::{CanonicalCoreKey, Cq, Ucq};
use hp_structures::{Elem, Structure, Vocabulary};

use crate::datalog_passes::{recursion_class, RecursionClass};
use crate::diag::{Code, Diagnostic, Diagnostics, Severity};
use crate::facts::ProgramFacts;
use crate::pass::Pass;

/// One unit of semantic work. The item list is a deterministic function
/// of the program, so the index a stopped scan reports names one item.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
enum Item {
    /// HP020 on rule `ri`.
    CrossJoin(usize),
    /// HP017 on body atom `ai` of rule `ri`.
    Redundant(usize, usize),
    /// HP018 on rule `ri`.
    Subsumed(usize),
    /// Core and canonical-core key of IDB `i`'s unfolded UCQ (feeds
    /// HP019).
    CoreKey(usize),
    /// HP019 on the IDB pair `(i, j)`, `i < j`.
    Equivalent(usize, usize),
}

impl Item {
    fn code(self) -> Code {
        match self {
            Item::CrossJoin(_) => Code::Hp020,
            Item::Redundant(_, _) => Code::Hp017,
            Item::Subsumed(_) => Code::Hp018,
            Item::CoreKey(_) | Item::Equivalent(_, _) => Code::Hp019,
        }
    }

    fn describe(self, facts: &ProgramFacts) -> String {
        let name = |i: usize| facts.idbs.get(i).map(|(n, _)| n.as_str()).unwrap_or("?");
        match self {
            Item::CrossJoin(ri) => format!("cross-join check on rule {ri}"),
            Item::Redundant(ri, ai) => format!("redundancy check on atom {ai} of rule {ri}"),
            Item::Subsumed(ri) => format!("subsumption check on rule {ri}"),
            Item::CoreKey(i) => format!("canonical-core key of {}", name(i)),
            Item::Equivalent(i, j) => {
                format!("equivalence check on {} and {}", name(i), name(j))
            }
        }
    }
}

/// True when the rule carries a negated literal: its body is not a
/// conjunctive query, so the Chandra–Merlin containment machinery does
/// not apply and the CQ-based items (HP017/HP018/HP020) skip it.
fn has_negation(r: &Rule) -> bool {
    r.head.negated || r.body.iter().any(|a| a.negated)
}

/// The deterministic item list: per-rule cross-join checks, per-atom
/// redundancy checks, per-rule subsumption checks, then (nonrecursive
/// programs only) per-IDB core keys followed by per-pair equivalence
/// checks. Rules with negated literals get no CQ items; for positive
/// programs the list is exactly what it was before negation existed.
fn items_of(facts: &ProgramFacts, nonrecursive: bool) -> Vec<Item> {
    let mut items = Vec::new();
    for (ri, r) in facts.rules.iter().enumerate() {
        if !has_negation(r) {
            items.push(Item::CrossJoin(ri));
        }
    }
    for (ri, r) in facts.rules.iter().enumerate() {
        if has_negation(r) {
            continue;
        }
        for ai in 0..r.body.len() {
            items.push(Item::Redundant(ri, ai));
        }
    }
    for (ri, r) in facts.rules.iter().enumerate() {
        if !has_negation(r) {
            items.push(Item::Subsumed(ri));
        }
    }
    if nonrecursive {
        // Key the pairwise hom-equivalence on per-IDB canonical-core
        // keys: one unfolding + canonical labelling per predicate (the
        // CoreKey items), then each pair is a 128-bit comparison —
        // distinct keys are definitely inequivalent, and only equal keys
        // (hash collisions included) pay for the authoritative
        // homomorphism check. This replaces the all-pairs unfolding that
        // made HP019 a quadratic cost cliff.
        let paired: Vec<bool> = (0..facts.idbs.len())
            .map(|i| (0..facts.idbs.len()).any(|j| j != i && facts.idbs[i].1 == facts.idbs[j].1))
            .collect();
        for (i, &p) in paired.iter().enumerate() {
            if p {
                items.push(Item::CoreKey(i));
            }
        }
        for i in 0..facts.idbs.len() {
            for j in i + 1..facts.idbs.len() {
                if facts.idbs[i].1 == facts.idbs[j].1 {
                    items.push(Item::Equivalent(i, j));
                }
            }
        }
    }
    items
}

/// Where a stopped semantic scan stopped: the index of the item it was
/// running and the findings confirmed before it.
#[derive(Clone, Debug)]
pub struct SemanticCheckpoint {
    next_item: usize,
    findings: Vec<Diagnostic>,
}

/// An IDB's irredundant union of cores and its canonical-core key; `None`
/// when the IDB has no UCQ unfolding (a negated literal in the program).
type CoreEntry = Option<(Ucq, CanonicalCoreKey)>;

impl SemanticCheckpoint {
    /// Findings confirmed before the budget ran out. Every one is final:
    /// exhaustion can truncate the list, never corrupt it.
    pub fn findings(&self) -> &[Diagnostic] {
        &self.findings
    }

    /// How many checks completed.
    pub fn items_done(&self) -> usize {
        self.next_item
    }
}

/// Make sure IDB `i`'s core is in `memo`, computing it and every missing
/// IDB below it. IDBs are visited in `p.graph()` SCC order, dependencies
/// first, and each is unfolded one step over its children's cores and
/// minimized (see the module docs), then written to `memo`. A child
/// without a core — negation, or a recursive SCC, where no child is
/// ready — leaves its parent without one. Charges one fuel unit per IDB,
/// one per disjunct of its unfolding, and the minimization.
fn core_of_idb(
    p: &Program,
    i: usize,
    memo: &mut BTreeMap<usize, CoreEntry>,
    gauge: &mut Gauge,
) -> Result<(), Stop> {
    let g = p.graph();
    let mut missing: BTreeSet<usize> = BTreeSet::new();
    let mut stack = vec![i];
    while let Some(q) = stack.pop() {
        if !memo.contains_key(&q) && missing.insert(q) {
            stack.extend(g.deps(q).iter().copied());
        }
    }
    let mut order: Vec<usize> = missing.into_iter().collect();
    order.sort_by_key(|&q| g.scc_of(q));
    for q in order {
        gauge.tick(1)?;
        let core = |c: usize| match memo.get(&c) {
            Some(Some((u, _))) => Some(u),
            _ => None,
        };
        let entry = if g.deps(q).iter().all(|&c| core(c).is_some()) {
            match unfold_over(p, q, |c| core(c).expect("children are ready")) {
                Ok(u) => {
                    gauge.tick(u.len() as u64)?;
                    Some(u.core_and_key_gauged(gauge)?)
                }
                Err(_) => None,
            }
        } else {
            None
        };
        memo.insert(q, entry);
    }
    Ok(())
}

/// The combined EDB ∪ IDB vocabulary rule bodies are interpreted over.
/// IDB symbols are prefixed `idb:` — EDB names are `[A-Za-z0-9_]+`, so
/// the prefix cannot collide even when an IDB shadows an EDB name.
fn combined_vocab(facts: &ProgramFacts) -> Vocabulary {
    let mut pairs: Vec<(String, usize)> = facts
        .edb
        .iter()
        .map(|(_, s)| (s.name.clone(), s.arity))
        .collect();
    for (n, a) in &facts.idbs {
        pairs.push((format!("idb:{n}"), *a));
    }
    Vocabulary::from_pairs(pairs.iter().map(|(n, a)| (n.as_str(), *a)))
}

/// The combined-vocabulary symbol index of a predicate reference.
fn symbol_index(facts: &ProgramFacts, vocab: &Vocabulary, pred: PredRef) -> Option<usize> {
    let name = match pred {
        PredRef::Edb(s) => facts.edb.symbol(s).name.clone(),
        PredRef::Idb(i) => format!("idb:{}", facts.idbs.get(i)?.0),
    };
    vocab.lookup(&name).map(|s| s.index())
}

/// Build the conjunctive query of a rule fragment: canonical structure
/// with one element per distinct variable of `head_args` ∪ `body`, one
/// tuple per body atom, free positions = the head arguments. Charges one
/// fuel unit per tuple. `None` when the fragment does not resolve (bad
/// arity or predicate in raw facts).
fn fragment_cq(
    facts: &ProgramFacts,
    vocab: &Vocabulary,
    head_args: &[u32],
    body: &[&DatalogAtom],
    gauge: &mut Gauge,
) -> Result<Option<Cq>, Stop> {
    let mut vars: BTreeSet<u32> = head_args.iter().copied().collect();
    for a in body {
        vars.extend(a.args.iter().copied());
    }
    let id: BTreeMap<u32, u32> = vars
        .iter()
        .enumerate()
        .map(|(i, &v)| (v, i as u32))
        .collect();
    let mut s = Structure::new(vocab.clone(), vars.len());
    for a in body {
        gauge.tick(1)?;
        let Some(sym) = symbol_index(facts, vocab, a.pred) else {
            return Ok(None);
        };
        let args: Vec<u32> = a.args.iter().map(|v| id[v]).collect();
        if s.add_tuple_ids(sym, &args).is_err() {
            return Ok(None);
        }
    }
    let free: Vec<Elem> = head_args.iter().map(|v| Elem(id[v])).collect();
    Ok(Some(Cq::with_free(&s, &free)))
}

/// The whole-rule CQ: body atoms as the body, head arguments free.
fn rule_cq(
    facts: &ProgramFacts,
    vocab: &Vocabulary,
    rule: &Rule,
    gauge: &mut Gauge,
) -> Result<Option<Cq>, Stop> {
    let body: Vec<&DatalogAtom> = rule.body.iter().collect();
    fragment_cq(facts, vocab, &rule.head.args, &body, gauge)
}

/// Number of connected components of the variable-sharing graph on the
/// body atoms that carry at least one variable (0-ary guard atoms are
/// scale factors 0 or 1, never a product blow-up, and are ignored).
fn body_components(rule: &Rule) -> usize {
    let atoms: Vec<usize> = rule
        .body
        .iter()
        .enumerate()
        .filter(|(_, a)| !a.args.is_empty())
        .map(|(i, _)| i)
        .collect();
    let mut parent: Vec<usize> = (0..atoms.len()).collect();
    fn find(parent: &mut [usize], mut x: usize) -> usize {
        while parent[x] != x {
            parent[x] = parent[parent[x]];
            x = parent[x];
        }
        x
    }
    let mut owner: BTreeMap<u32, usize> = BTreeMap::new();
    for (ai, &orig) in atoms.iter().enumerate() {
        for &v in &rule.body[orig].args {
            match owner.get(&v) {
                Some(&other) => {
                    let (a, b) = (find(&mut parent, ai), find(&mut parent, other));
                    parent[a] = b;
                }
                None => {
                    owner.insert(v, ai);
                }
            }
        }
    }
    (0..atoms.len())
        .map(|i| find(&mut parent, i))
        .collect::<BTreeSet<_>>()
        .len()
}

/// Render a body atom for messages, e.g. `E(x,z)`.
fn atom_text(facts: &ProgramFacts, a: &DatalogAtom) -> String {
    let args: Vec<String> = a.args.iter().map(|&v| facts.var_name(v)).collect();
    format!("{}({})", facts.pred_name(a.pred), args.join(","))
}

/// Scan context, built once per scan from the facts.
struct Ctx {
    vocab: Vocabulary,
    program: Option<Program>,
    nonrecursive: bool,
}

impl Ctx {
    fn new(facts: &ProgramFacts) -> Ctx {
        let program = Program::new(
            facts.edb.clone(),
            facts.idbs.clone(),
            facts.rules.clone(),
            facts.var_names.clone(),
        )
        .ok()
        .and_then(|p| match facts.goal {
            Some(g) => p.with_goal(&facts.idbs[g].0).ok(),
            None => Some(p),
        });
        Ctx {
            vocab: combined_vocab(facts),
            program,
            nonrecursive: recursion_class(facts) == RecursionClass::Nonrecursive,
        }
    }
}

/// Body-atom indices of rule `ri` already flagged HP017 in `findings`.
fn flagged_atoms(findings: &[Diagnostic], ri: usize) -> BTreeSet<usize> {
    findings
        .iter()
        .filter(|d| d.code == Code::Hp017 && d.span.rule == Some(ri))
        .filter_map(|d| d.span.atom)
        .collect()
}

/// Rule indices already flagged HP018 in `findings`.
fn flagged_rules(findings: &[Diagnostic]) -> BTreeSet<usize> {
    findings
        .iter()
        .filter(|d| d.code == Code::Hp018)
        .filter_map(|d| d.span.rule)
        .collect()
}

/// Run one item, appending at most one finding and/or recording a core
/// key in `keys`. Deterministic; every nontrivial step charges `gauge`.
fn run_item(
    facts: &ProgramFacts,
    ctx: &Ctx,
    item: Item,
    findings: &mut Vec<Diagnostic>,
    keys: &mut BTreeMap<usize, CoreEntry>,
    gauge: &mut Gauge,
) -> Result<(), Stop> {
    match item {
        Item::CrossJoin(ri) => {
            gauge.tick(1)?;
            let rule = &facts.rules[ri];
            let c = body_components(rule);
            if c >= 2 {
                findings.push(Diagnostic::new(
                    Code::Hp020,
                    format!(
                        "rule body is a cross join: {c} variable-disjoint atom groups \
                         multiply independently (Cartesian product); join them on a \
                         shared variable or split the rule"
                    ),
                    facts.rule_span(ri),
                ));
            }
        }
        Item::Redundant(ri, ai) => {
            gauge.tick(1)?;
            let rule = &facts.rules[ri];
            let flagged = flagged_atoms(findings, ri);
            // Base body: the atoms not already flagged this scan — the
            // set that remains when the flagged ones are deleted, so the
            // per-rule flag set is jointly removable.
            let base: Vec<usize> = (0..rule.body.len())
                .filter(|k| !flagged.contains(k))
                .collect();
            if !base.contains(&ai) || base.len() < 2 {
                return Ok(()); // deleting the last atom would unmake the rule
            }
            let minus: Vec<usize> = base.iter().copied().filter(|&k| k != ai).collect();
            // Deleting the atom must not unbind a head variable (the
            // rewritten rule must stay safe).
            let bound: BTreeSet<u32> = minus
                .iter()
                .flat_map(|&k| rule.body[k].args.iter().copied())
                .collect();
            if rule.head.args.iter().any(|v| !bound.contains(v)) {
                return Ok(());
            }
            let full_atoms: Vec<&DatalogAtom> = base.iter().map(|&k| &rule.body[k]).collect();
            let minus_atoms: Vec<&DatalogAtom> = minus.iter().map(|&k| &rule.body[k]).collect();
            let (Some(full), Some(minus)) = (
                fragment_cq(facts, &ctx.vocab, &rule.head.args, &full_atoms, gauge)?,
                fragment_cq(facts, &ctx.vocab, &rule.head.args, &minus_atoms, gauge)?,
            ) else {
                return Ok(());
            };
            // `full ⊑ minus` always (fewer atoms, weaker body); the atom
            // is redundant exactly when the converse holds too.
            if minus.is_contained_in_gauged(&full, gauge)? {
                findings.push(Diagnostic::new(
                    Code::Hp017,
                    format!(
                        "body atom {} is redundant: the body folds onto itself without it \
                         (core minimization, §6.2); deleting it preserves every derivation",
                        atom_text(facts, &rule.body[ai]),
                    ),
                    facts.rule_atom_span(ri, ai),
                ));
            }
        }
        Item::Subsumed(ri) => {
            let rule = &facts.rules[ri];
            let skip = flagged_rules(findings);
            if skip.contains(&ri) {
                return Ok(());
            }
            let Some(ci) = rule_cq(facts, &ctx.vocab, rule, gauge)? else {
                return Ok(());
            };
            for (rj, other) in facts.rules.iter().enumerate() {
                gauge.tick(1)?;
                if rj == ri || skip.contains(&rj) || other.head.pred != rule.head.pred {
                    continue;
                }
                if has_negation(other) {
                    // A negated body is not a CQ; treating its literals as
                    // positive would fabricate a subsumption witness.
                    continue;
                }
                if *other == *rule {
                    continue; // exact duplicates are HP013's finding
                }
                let Some(cj) = rule_cq(facts, &ctx.vocab, other, gauge)? else {
                    continue;
                };
                // Keep-earliest tie-break: on mutual containment, only
                // the later rule is flagged, so one copy always survives.
                if ci.is_contained_in_gauged(&cj, gauge)?
                    && (rj < ri || !cj.is_contained_in_gauged(&ci, gauge)?)
                {
                    findings.push(Diagnostic::new(
                        Code::Hp018,
                        format!(
                            "rule is subsumed by rule {rj}{}: everything it derives for {} \
                             that rule already derives, on every input and at every \
                             fixpoint stage",
                            other_line(facts, rj),
                            facts.pred_name(rule.head.pred),
                        ),
                        facts.rule_span(ri),
                    ));
                    return Ok(());
                }
            }
        }
        Item::CoreKey(i) => {
            gauge.tick(1)?;
            let Some(p) = &ctx.program else {
                return Ok(());
            };
            // One core per IDB, built over the memoised cores below it;
            // every Equivalent item involving `i` reads it instead of
            // redoing the unfolding. `None` (no unfolding, e.g. a negated
            // rule in the program) makes every pair with `i`
            // inconclusive, and inconclusive never flags.
            core_of_idb(p, i, keys, gauge)?;
        }
        Item::Equivalent(i, j) => {
            gauge.tick(1)?;
            let (Some(ei), Some(ej)) = (keys.get(&i), keys.get(&j)) else {
                return Ok(()); // raw facts: CoreKey items never ran
            };
            let (Some((ui, ki)), Some((uj, kj))) = (ei, ej) else {
                return Ok(()); // no unfolding for one side
            };
            // Canonical-core keys agree on every pair of equivalent
            // queries, so distinct keys certify inequivalence — the
            // common case costs one comparison, no homomorphisms.
            if ki != kj {
                return Ok(());
            }
            // Equal keys are only evidence (a 128-bit hash can collide):
            // confirm with the authoritative hom-equivalence check on the
            // memoised cores, which are equivalent to the unfoldings.
            gauge.tick((ui.len() + uj.len()) as u64)?;
            if ui.is_equivalent_to_gauged(uj, gauge)? {
                let span = facts
                    .rules
                    .iter()
                    .position(|r| r.head.pred == PredRef::Idb(j))
                    .map(|ri| facts.rule_span(ri))
                    .unwrap_or_default();
                findings.push(Diagnostic::new(
                    Code::Hp019,
                    format!(
                        "IDB predicates {} and {} compute homomorphically equivalent \
                         queries (identical canonical cores); one can replace the other",
                        facts.idbs[i].0, facts.idbs[j].0,
                    ),
                    span,
                ));
            }
        }
    }
    Ok(())
}

/// `" (line N)"` when rule `rj`'s source line is known.
fn other_line(facts: &ProgramFacts, rj: usize) -> String {
    facts
        .rule_lines
        .get(rj)
        .copied()
        .flatten()
        .map(|l| format!(" (line {l})"))
        .unwrap_or_default()
}

/// Run the full semantic scan under `budget`. On exhaustion the
/// [`hp_guard::Exhausted::partial`] is a [`SemanticCheckpoint`]: the
/// sound findings so far and the item the scan stopped in.
#[allow(clippy::result_large_err)]
pub fn semantic_scan(
    facts: &ProgramFacts,
    budget: &Budget,
) -> Budgeted<Vec<Diagnostic>, SemanticCheckpoint> {
    let ctx = Ctx::new(facts);
    let mut findings = Vec::new();
    if ctx.program.is_none() {
        // Raw facts that fail validation already carry HP003–HP005
        // errors; semantic claims about an invalid program are void.
        return Ok(findings);
    }
    let mut gauge = budget.gauge();
    let mut core_keys = BTreeMap::new();
    for (idx, &item) in items_of(facts, ctx.nonrecursive).iter().enumerate() {
        if let Err(stop) = run_item(facts, &ctx, item, &mut findings, &mut core_keys, &mut gauge) {
            return Err(stop.with_partial(SemanticCheckpoint {
                next_item: idx,
                findings,
            }));
        }
    }
    Ok(findings)
}

/// The [`Pass`] wrapper: run the scan under this pass's budget; on
/// exhaustion report the sound prefix of findings plus a note (never an
/// error, never a wrong verdict) naming the check that was in flight.
pub struct SemanticPass {
    budget: Budget,
}

impl SemanticPass {
    /// A semantic pass charging the given budget.
    pub fn new(budget: Budget) -> SemanticPass {
        SemanticPass { budget }
    }
}

impl Default for SemanticPass {
    /// Unlimited budget: rule bodies are small in practice, and the
    /// library default must be deterministic. The `hompres-lint` binary
    /// passes its `--budget-ms` / `--fuel` budget instead.
    fn default() -> SemanticPass {
        SemanticPass::new(Budget::unlimited())
    }
}

impl Pass for SemanticPass {
    fn name(&self) -> &'static str {
        "semantic"
    }
    fn codes(&self) -> &'static [Code] {
        &[Code::Hp017, Code::Hp018, Code::Hp019, Code::Hp020]
    }
    fn run(&self, facts: &ProgramFacts, out: &mut Diagnostics) {
        match semantic_scan(facts, &self.budget) {
            Ok(findings) => {
                for d in findings {
                    out.push(d);
                }
            }
            Err(ex) => {
                let items = items_of(
                    facts,
                    recursion_class(facts) == RecursionClass::Nonrecursive,
                );
                let in_flight = items[ex.partial.next_item];
                for d in ex.partial.findings.iter().cloned() {
                    out.push(d);
                }
                out.push(Diagnostic {
                    code: in_flight.code(),
                    severity: Severity::Note,
                    message: format!(
                        "semantic analysis stopped at the {} ({} of {} checks done; \
                         {} budget exhausted, {} fuel spent); findings so far are sound — \
                         rerun with a larger budget for the rest",
                        in_flight.describe(facts),
                        ex.partial.next_item,
                        items.len(),
                        ex.resource,
                        ex.spent,
                    ),
                    span: crate::diag::Span::default(),
                });
            }
        }
    }
}

/// The canonical-core key of the program's goal query: the unfolded UCQ
/// of the goal in a **nonrecursive** program, minimized to its
/// irredundant core union and canonically labelled. `None` for programs
/// with no designated goal, with recursion (a recursive goal is not a
/// UCQ; Theorem 7.5 boundedness certification is the escape hatch), or
/// with negation.
///
/// The key is what an answer cache should index on: programs equal up to
/// variable renaming, rule order, redundant atoms, and subsumed rules or
/// disjuncts map to the same key (Chandra–Merlin + §6.2 core uniqueness).
/// It is computed like the scan's core-key items (`Item::CoreKey`), over
/// the cores of the goal's dependencies.
#[allow(clippy::result_large_err)]
pub fn goal_core_key(p: &Program, budget: &Budget) -> Budgeted<Option<CanonicalCoreKey>, ()> {
    let g = p.graph();
    if (0..g.scc_count()).any(|s| g.is_recursive_scc(s)) {
        return Ok(None);
    }
    let Some(goal) = p.goal_index() else {
        return Ok(None);
    };
    let mut gauge = budget.gauge();
    let mut cores = BTreeMap::new();
    core_of_idb(p, goal, &mut cores, &mut gauge).map_err(|s| s.with_partial(()))?;
    Ok(cores[&goal].as_ref().map(|(_, key)| *key))
}

#[cfg(test)]
mod tests {
    use super::*;
    use hp_structures::Vocabulary;

    fn facts_of(text: &str) -> ProgramFacts {
        let p = Program::parse(text, &Vocabulary::digraph()).unwrap();
        ProgramFacts::of_program(&p)
    }

    fn scan(text: &str) -> Vec<Diagnostic> {
        semantic_scan(&facts_of(text), &Budget::unlimited()).unwrap()
    }

    fn codes(ds: &[Diagnostic]) -> Vec<Code> {
        ds.iter().map(|d| d.code).collect()
    }

    #[test]
    fn redundant_atom_is_flagged_with_its_index() {
        // E(x,z) folds onto E(x,y) via z ↦ y; the converse deletion is
        // not redundant (E(x,y) binds nothing else? it does — y is only
        // in E(x,y)… but both atoms fold mutually; greedy keeps earliest
        // viable flag order deterministic).
        let ds = scan("T(x,y) :- E(x,y), E(x,z).\nGoal() :- T(x,x).");
        let hits: Vec<&Diagnostic> = ds.iter().filter(|d| d.code == Code::Hp017).collect();
        assert_eq!(hits.len(), 1, "{ds:?}");
        assert_eq!(hits[0].span.rule, Some(0));
        // E(x,z) (atom 1) is the redundant one: deleting atom 0 would
        // unbind head variable y.
        assert_eq!(hits[0].span.atom, Some(1));
        assert!(hits[0].message.contains("E(x,z)"), "{}", hits[0].message);
    }

    #[test]
    fn boolean_rule_redundancy_respects_last_atom_guard() {
        // A single-atom body is never flagged, even when the head is
        // 0-ary (deleting the last atom would unmake the rule).
        let ds = scan("T(x,y) :- E(x,y).\nGoal() :- T(x,x).");
        assert!(!codes(&ds).contains(&Code::Hp017), "{ds:?}");
    }

    #[test]
    fn necessary_atoms_are_not_flagged() {
        let ds = scan("T(x,z) :- E(x,y), E(y,z).\nGoal() :- T(x,x).");
        assert!(!codes(&ds).contains(&Code::Hp017), "{ds:?}");
    }

    #[test]
    fn idb_atoms_stay_opaque_in_recursive_programs() {
        // The paper's transitive closure: nothing is redundant or
        // subsumed even though T ⊇ E semantically — rule-level
        // containment treats T as opaque, which is what keeps the lint
        // sound at every fixpoint stage.
        let ds = scan("T(x,y) :- E(x,y).\nT(x,y) :- E(x,z), T(z,y).");
        assert!(ds.is_empty(), "{ds:?}");
    }

    #[test]
    fn subsumed_rule_is_flagged_and_earliest_survives() {
        let ds = scan("T(x,y) :- E(x,y).\nT(x,y) :- E(x,y), E(y,y).\nGoal() :- T(x,x).");
        let hits: Vec<&Diagnostic> = ds.iter().filter(|d| d.code == Code::Hp018).collect();
        assert_eq!(hits.len(), 1, "{ds:?}");
        assert_eq!(hits[0].span.rule, Some(1));
        assert!(hits[0].message.contains("subsumed by rule 0"));
    }

    #[test]
    fn equivalent_rules_flag_only_the_later() {
        // Mutually containing (α-equivalent) rules: keep-earliest.
        let ds = scan("T(x,y) :- E(x,y).\nT(a,b) :- E(a,b).");
        // The second is also a HP013-style duplicate after variable
        // renaming — but not syntactically identical, so HP018 owns it.
        let hits: Vec<&Diagnostic> = ds.iter().filter(|d| d.code == Code::Hp018).collect();
        assert_eq!(hits.len(), 1, "{ds:?}");
        assert_eq!(hits[0].span.rule, Some(1));
    }

    #[test]
    fn exact_duplicates_are_left_to_hp013() {
        let ds = scan("T(x,y) :- E(x,y).\nT(x,y) :- E(x,y).");
        assert!(!codes(&ds).contains(&Code::Hp018), "{ds:?}");
    }

    #[test]
    fn cross_join_is_flagged() {
        let ds = scan("Big(x,y) :- E(x,x), E(y,y).\nGoal() :- Big(x,y).");
        let hits: Vec<&Diagnostic> = ds.iter().filter(|d| d.code == Code::Hp020).collect();
        assert_eq!(hits.len(), 1, "{ds:?}");
        assert_eq!(hits[0].span.rule, Some(0));
        assert!(hits[0].message.contains("2 variable-disjoint"));
    }

    #[test]
    fn connected_bodies_are_not_cross_joins() {
        let ds = scan("T(x,z) :- E(x,y), E(y,z).\nGoal() :- T(x,x).");
        assert!(!codes(&ds).contains(&Code::Hp020), "{ds:?}");
    }

    #[test]
    fn equivalent_idbs_are_flagged_in_nonrecursive_programs() {
        let text = "P(x,z) :- E(x,y), E(y,z).\nQ(a,c) :- E(a,b), E(b,c).\n\
                    Goal() :- P(x,x), Q(x,x).";
        let ds = scan(text);
        let hits: Vec<&Diagnostic> = ds.iter().filter(|d| d.code == Code::Hp019).collect();
        assert_eq!(hits.len(), 1, "{ds:?}");
        assert!(hits[0].message.contains('P') && hits[0].message.contains('Q'));
    }

    #[test]
    fn distinct_idbs_are_not_flagged() {
        let text = "P(x,z) :- E(x,y), E(y,z).\nQ(a,b) :- E(a,b).\nGoal() :- P(x,x), Q(x,x).";
        let ds = scan(text);
        assert!(!codes(&ds).contains(&Code::Hp019), "{ds:?}");
    }

    #[test]
    fn recursive_programs_skip_equivalence_items() {
        // P and Q are both transitive closure, but the program is
        // recursive, so no HP019 items exist at all.
        let text = "P(x,y) :- E(x,y).\nP(x,y) :- E(x,z), P(z,y).\n\
                    Q(x,y) :- E(x,y).\nQ(x,y) :- E(x,z), Q(z,y).";
        let ds = scan(text);
        assert!(!codes(&ds).contains(&Code::Hp019), "{ds:?}");
    }

    #[test]
    fn negated_rules_are_outside_the_cq_lints() {
        // Without the gate, `not E(y,x)` read as `E(y,x)` would make the
        // second rule look subsumed by the first and `not E(x,z)` look
        // like a redundant atom. Negation must make these rules opaque.
        let ds = scan(
            "T(x,y) :- E(x,y).\nT(x,y) :- E(x,y), not E(y,x).\n\
             S(x,y) :- E(x,y), not E(x,z), E(z,y).",
        );
        for d in &ds {
            assert!(
                !matches!(d.code, Code::Hp017 | Code::Hp018 | Code::Hp020),
                "{ds:?}"
            );
        }
        // And a negated rule is never used as a subsumption *witness*:
        // read positively, rule 0 would subsume rule 1 here.
        let ds = scan("T(x,y) :- E(x,y), not E(y,x).\nT(x,y) :- E(x,y), E(y,x).");
        assert!(!codes(&ds).contains(&Code::Hp018), "{ds:?}");
    }

    #[test]
    fn core_keys_gate_the_equivalence_check() {
        // Three same-arity IDBs: P ≡ Q (flagged via key collision +
        // confirmation), R distinct (rejected by key comparison alone).
        let facts = facts_of(
            "P(x,z) :- E(x,y), E(y,z).\nQ(a,c) :- E(a,b), E(b,c).\n\
             R(a,b) :- E(a,b).\nGoal() :- P(x,x), Q(x,x), R(x,x).",
        );
        let items = items_of(&facts, true);
        let n_keys = items
            .iter()
            .filter(|i| matches!(i, Item::CoreKey(_)))
            .count();
        assert_eq!(n_keys, 3, "one key item per paired IDB: {items:?}");
        let ds = semantic_scan(&facts, &Budget::unlimited()).unwrap();
        let hits: Vec<&Diagnostic> = ds.iter().filter(|d| d.code == Code::Hp019).collect();
        assert_eq!(hits.len(), 1, "{ds:?}");
        assert!(hits[0].message.contains('P') && hits[0].message.contains('Q'));
    }

    #[test]
    fn exhaustion_truncates_but_never_corrupts() {
        let facts = facts_of("T(x,y) :- E(x,y), E(x,z).\nGoal() :- T(x,x).");
        let full = semantic_scan(&facts, &Budget::unlimited()).unwrap();
        assert!(!full.is_empty());
        let ex = semantic_scan(&facts, &Budget::fuel(1)).unwrap_err();
        // The partial findings are a prefix of the full findings.
        assert!(ex.partial.findings.len() <= full.len());
        for (a, b) in ex.partial.findings.iter().zip(full.iter()) {
            assert_eq!(a, b);
        }
    }

    #[test]
    fn pass_reports_exhaustion_as_note() {
        let facts = facts_of("T(x,y) :- E(x,y), E(x,z).\nGoal() :- T(x,x).");
        let mut out = Diagnostics::new();
        SemanticPass::new(Budget::fuel(1)).run(&facts, &mut out);
        assert_eq!(out.count(Severity::Note), 1, "{}", out.render("t", None));
        assert!(!out.has_errors());
        let note = out.iter().find(|d| d.severity == Severity::Note).unwrap();
        assert!(
            note.message.contains("budget exhausted"),
            "{}",
            note.message
        );
        assert!(note.message.contains("sound"), "{}", note.message);

        // D's key item comes first and fills C, B and A on the way; every
        // fuel value that stops inside it names that item.
        let facts = facts_of(
            "D(x,y) :- E(x,z), C(z,y), E(x,w).\nC(x,y) :- E(x,z), B(z,y).\n\
             B(x,y) :- E(x,z), A(z,y), E(z,w).\nA(x,y) :- E(x,y), E(y,y).\n\
             Goal() :- D(x,x).",
        );
        let items = items_of(&facts, true);
        let d = facts.idbs.iter().position(|(n, _)| n == "D").unwrap();
        let at = items.iter().position(|&it| it == Item::CoreKey(d)).unwrap();
        assert!(
            !items[..at].iter().any(|it| matches!(it, Item::CoreKey(_))),
            "test premise: D's key item is the first: {items:?}"
        );
        let ctx = Ctx::new(&facts);
        let (mut fs, mut ks, mut g) = (Vec::new(), BTreeMap::new(), Budget::unlimited().gauge());
        let mut spent = Vec::new();
        for &it in &items[..=at] {
            run_item(&facts, &ctx, it, &mut fs, &mut ks, &mut g).unwrap();
            spent.push(g.spent());
        }
        assert_eq!(
            ks.len(),
            4,
            "test premise: the key item fills D, C, B and A"
        );
        let (start, end) = (spent[at - 1], spent[at]);
        assert!(end > start + 3, "test premise: the item costs real fuel");
        // A tick that reaches the limit stops, so fuel in start+1..=end
        // stops inside the item.
        for fuel in start + 1..=end {
            let mut out = Diagnostics::new();
            SemanticPass::new(Budget::fuel(fuel)).run(&facts, &mut out);
            let note = out.iter().find(|d| d.severity == Severity::Note).unwrap();
            assert!(
                note.message
                    .contains("stopped at the canonical-core key of D ("),
                "fuel {fuel}: {}",
                note.message
            );
        }
    }

    #[test]
    fn goal_core_key_is_renaming_and_redundancy_invariant() {
        let b = Budget::unlimited();
        let parse = |t: &str| Program::parse(t, &Vocabulary::digraph()).unwrap();
        let k1 = goal_core_key(&parse("T(x,z) :- E(x,y), E(y,z).\nGoal() :- T(x,x)."), &b)
            .unwrap()
            .unwrap();
        // Renamed variables, a redundant atom, and a subsumed extra rule.
        let k2 = goal_core_key(
            &parse(
                "T(a,c) :- E(a,b), E(b,c), E(a,d).\nT(a,c) :- E(a,b), E(b,c), E(c,c).\n\
                 Goal() :- T(u,u).",
            ),
            &b,
        )
        .unwrap()
        .unwrap();
        assert_eq!(k1, k2);
        // A genuinely different query gets a different key.
        let k3 = goal_core_key(&parse("T(x,y) :- E(x,y).\nGoal() :- T(x,x)."), &b)
            .unwrap()
            .unwrap();
        assert_ne!(k1, k3);
    }

    #[test]
    fn goal_core_key_is_none_for_recursion_and_goalless_programs() {
        let b = Budget::unlimited();
        let p = Program::parse(
            "T(x,y) :- E(x,y).\nT(x,y) :- E(x,z), T(z,y).\nGoal() :- T(x,x).",
            &Vocabulary::digraph(),
        )
        .unwrap();
        assert_eq!(goal_core_key(&p, &b).unwrap(), None);
        let q = Program::parse("T(x,y) :- E(x,y).", &Vocabulary::digraph()).unwrap();
        assert_eq!(goal_core_key(&q, &b).unwrap(), None);
    }

    #[test]
    fn goal_core_key_exhausts_gracefully() {
        let p = Program::parse(
            "T(x,z) :- E(x,y), E(y,z).\nGoal() :- T(x,x).",
            &Vocabulary::digraph(),
        )
        .unwrap();
        assert!(goal_core_key(&p, &Budget::fuel(1)).is_err());
    }
}
