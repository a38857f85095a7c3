//! Scan-based reference evaluation.
//!
//! This module preserves the original nested full-relation-scan join —
//! deliberately unindexed and single-threaded — for three jobs:
//!
//! 1. the **naive** operator Φ behind [`Program::apply_operator`] and
//!    [`Program::stages`], where oracle-grade simplicity matters more than
//!    speed (stage sequences are probed on small structures);
//! 2. [`Program::evaluate_reference`], the seed semi-naive evaluator that
//!    the differential tests compare the indexed/sharded engine against
//!    (an independent implementation, not a configuration of the new one);
//! 3. the `seed` rows of the E-scale benchmark table in EXPERIMENTS.md.
//!
//! Unlike the seed code, the scan join still runs off the precomputed
//! [`ProgramPlan`] dense variable numbering — `rule.variables()` and its
//! binary-search closure are no longer rebuilt per `rule_matches` call.

use hp_structures::{Elem, Row, Structure, TupleStore};

use crate::ast::{PredRef, Program};
use crate::eval::{FixpointResult, IdbRelation};
use crate::plan::{ProgramPlan, RulePlan};

/// All satisfying substitutions of a rule body, by exhaustive scans,
/// pushed (unsorted, possibly duplicated) into `out` — the caller seals.
/// `delta`, when set, restricts body atom `di` to the delta relations.
pub(crate) fn scan_matches(
    rp: &RulePlan,
    a: &Structure,
    idb: &[IdbRelation],
    delta: Option<(&[IdbRelation], usize)>,
    out: &mut TupleStore,
) {
    // Order body atoms: positive atoms first — delta atom in front when
    // present (cheap seed), source order otherwise, exactly the seed
    // evaluator's behaviour — then the negated literals as trailing
    // membership guards, by which point negation safety has bound every
    // one of their variables.
    let mut order: Vec<usize> = (0..rp.atoms.len())
        .filter(|&i| !rp.atoms[i].negated)
        .collect();
    if let Some((_, di)) = delta {
        let pos = order
            .iter()
            .position(|&i| i == di)
            .expect("delta atom is a positive IDB atom");
        order.swap(0, pos);
    }
    order.extend((0..rp.atoms.len()).filter(|&i| rp.atoms[i].negated));
    let mut asg: Vec<Option<Elem>> = vec![None; rp.var_count];
    scan_join(rp, a, idb, delta, &order, 0, &mut asg, out);
}

#[allow(clippy::too_many_arguments)]
fn scan_join(
    rp: &RulePlan,
    a: &Structure,
    idb: &[IdbRelation],
    delta: Option<(&[IdbRelation], usize)>,
    order: &[usize],
    depth: usize,
    asg: &mut Vec<Option<Elem>>,
    out: &mut TupleStore,
) {
    if depth == order.len() {
        out.push_with(|buf| {
            buf.extend(
                rp.head_args
                    .iter()
                    .map(|&s| asg[s].expect("safe rule binds head vars")),
            )
        });
        return;
    }
    let ai = order[depth];
    let atom = &rp.atoms[ai];
    if atom.negated {
        // Trailing guard: every argument is bound, so this is one
        // membership probe against the sealed relation.
        let key: Vec<Elem> = atom
            .args
            .iter()
            .map(|&s| asg[s].expect("negation safety binds guard vars"))
            .collect();
        let present = match atom.pred {
            PredRef::Edb(sym) => a.relation(sym).contains(&key),
            PredRef::Idb(i) => idb[i].contains(&key),
        };
        if !present {
            scan_join(rp, a, idb, delta, order, depth + 1, asg, out);
        }
        return;
    }
    match atom.pred {
        PredRef::Edb(sym) => {
            for t in a.relation(sym).iter() {
                scan_try(rp, a, idb, delta, order, depth, asg, out, t);
            }
        }
        PredRef::Idb(i) => {
            let rel: &IdbRelation = match delta {
                Some((d, di)) if di == ai => &d[i],
                _ => &idb[i],
            };
            for t in rel.iter() {
                scan_try(rp, a, idb, delta, order, depth, asg, out, t);
            }
        }
    }
}

/// Unify one candidate tuple against the current assignment, recursing on
/// success and rolling the touched slots back afterwards.
#[allow(clippy::too_many_arguments)]
fn scan_try<R: Row>(
    rp: &RulePlan,
    a: &Structure,
    idb: &[IdbRelation],
    delta: Option<(&[IdbRelation], usize)>,
    order: &[usize],
    depth: usize,
    asg: &mut Vec<Option<Elem>>,
    out: &mut TupleStore,
    t: R,
) {
    let atom = &rp.atoms[order[depth]];
    let mut touched: Vec<usize> = Vec::new();
    let mut ok = true;
    for (i, &s) in atom.args.iter().enumerate() {
        match asg[s] {
            Some(e) if e == t.at(i) => {}
            Some(_) => {
                ok = false;
                break;
            }
            None => {
                asg[s] = Some(t.at(i));
                touched.push(s);
            }
        }
    }
    if ok {
        scan_join(rp, a, idb, delta, order, depth + 1, asg, out);
    }
    for s in touched {
        asg[s] = None;
    }
}

impl Program {
    /// One application of Φ driven by a prebuilt plan (shared across the
    /// stages of [`Program::stages`]).
    pub(crate) fn apply_operator_with(
        &self,
        plan: &ProgramPlan,
        a: &Structure,
        idb: &[IdbRelation],
    ) -> Vec<IdbRelation> {
        let mut next: Vec<IdbRelation> = self.empty_idbs();
        for rp in &plan.rules {
            let mut out = TupleStore::new(rp.head_args.len());
            scan_matches(rp, a, idb, None, &mut out);
            out.seal();
            next[rp.head].merge_store(&out);
        }
        next
    }

    /// The seed scan-based semi-naive evaluator, retained as the
    /// independent reference implementation: no indexes, no sharding, whole
    /// relations scanned per join step.
    ///
    /// Use [`Program::evaluate`] (or [`Program::evaluate_with`]) for real
    /// workloads; this exists so differential tests and the E-scale
    /// benchmarks can compare the optimized engine against the algorithm it
    /// replaced. Always runs to the least fixpoint.
    pub fn evaluate_reference(&self, a: &Structure) -> FixpointResult {
        let plan = ProgramPlan::new(self);
        let strata = self.strata();
        let mut idb: Vec<IdbRelation> = self.empty_idbs();
        let mut stages = 0;
        // Strata in ascending order, mirroring the indexed engine: within
        // each stratum the classical semi-naive loop over that stratum's
        // rules; negated literals read the sealed lower strata via the
        // trailing guards in `scan_matches`. One stratum (and the exact
        // pre-negation rounds) for positive programs.
        for s in 0..self.num_strata() {
            let mut delta: Vec<IdbRelation> = self.empty_idbs();
            // Round 0 of the stratum: rules evaluated with this stratum's
            // own predicates still empty (EDB-only derivations, empty-body
            // facts, and joins over sealed lower strata).
            for (ri, rp) in plan.rules.iter().enumerate() {
                if self.rule_stratum(ri) != s {
                    continue;
                }
                let mut out = TupleStore::new(rp.head_args.len());
                scan_matches(rp, a, &idb, None, &mut out);
                out.seal();
                delta[rp.head].merge_store(&out);
            }
            while delta.iter().any(|d| !d.is_empty()) {
                stages += 1;
                for (acc, d) in idb.iter_mut().zip(&delta) {
                    acc.merge(d);
                }
                let mut next_delta: Vec<IdbRelation> = self.empty_idbs();
                for (ri, rp) in plan.rules.iter().enumerate() {
                    if self.rule_stratum(ri) != s {
                        continue;
                    }
                    // For each same-stratum positive IDB body atom, run with
                    // that atom restricted to the delta (standard semi-naive
                    // split); lower-stratum atoms have drained deltas.
                    for &bi in &rp.idb_atoms {
                        let in_stratum = match rp.atoms[bi].pred {
                            PredRef::Idb(p) => strata[p] == s,
                            PredRef::Edb(_) => false,
                        };
                        if !in_stratum {
                            continue;
                        }
                        let mut out = TupleStore::new(rp.head_args.len());
                        scan_matches(rp, a, &idb, Some((&delta, bi)), &mut out);
                        out.seal();
                        next_delta[rp.head].merge_store(&out.difference(idb[rp.head].store()));
                    }
                }
                delta = next_delta;
            }
        }
        FixpointResult {
            idb_names: self.idbs().iter().map(|(n, _)| n.clone()).collect(),
            goal: self.goal_index(),
            relations: idb,
            stages,
            diagnostics: Vec::new(),
            profile: Vec::new(),
        }
    }
}
