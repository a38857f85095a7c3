//! Incremental view maintenance on EDB updates.
//!
//! A [`MaterializedDb`] keeps a program's least fixpoint materialized next
//! to its input structure. [`Program::evaluate_incremental`] then folds a
//! batch of EDB insertions and deletions into that fixpoint, in place and
//! without recomputing it from scratch, and returns a
//! [`MaintenanceReport`]; the database itself is the result.
//!
//! Every SCC of the program's [`DepGraph`](crate::DepGraph), recursive or
//! not, dependencies first, is maintained by *DRed* (delete and
//! re-derive), in four steps:
//!
//! - **A**, an over-approximation `D` of the deleted tuples is propagated
//!   to a fixpoint;
//! - **B**, every over-deleted tuple with a surviving alternative
//!   derivation is revived;
//! - the confirmed deletions `D ∖ revived` are committed;
//! - **C**, insertions run through the evaluator's semi-naive driver,
//!   with the SCC as its round unit, over the committed relations and
//!   seeded by the external insertions.
//!
//! Maintained programs are positive, hence monotone, and monotonicity is
//! all DRed needs. In a non-recursive SCC no rule body mentions a member,
//! so each phase has at most one productive round.
//!
//! A database is built by evaluation: [`MaterializedDb::new`] runs the
//! program's semi-naive fixpoint, whose round hook keeps each recursive
//! member's stage deltas Φ^{m+1} ∖ Φ^m (§2.3) as sorted runs, one per
//! stage. A tuple's first stage is its derivation depth.
//!
//! Every phase plans and joins as the evaluator does, through its
//! [`ProgramPlan`] and its join: phases A and B read pre-batch and
//! mid-deletion views of the committed state through a [`PhaseView`],
//! phase C reads the committed state itself. Probes read the sorted
//! copies the relations own ([`Relation::copy`]), built on first use and
//! kept in step by every committed batch and insertion round.
//!
//! Maintenance is budgeted: the gauge is polled before every DRed round
//! and charged at SCC boundaries. A stop may land mid-SCC, so budgeted
//! maintenance ([`Program::evaluate_incremental_budgeted`]) takes the
//! database by value and returns it only on completion; a stopped run
//! reports the fuel it spent and leaves nothing to resume. A budgeted
//! build ([`MaterializedDb::new_budgeted`]) is budgeted as evaluation is,
//! round by round, and a stopped one is the stopped evaluation.

use std::borrow::Cow;

use hp_guard::{Budget, Budgeted, Gauge, Stop};
use hp_structures::{
    Elem, Relation, Row, RowRef, Structure, StructureError, SymbolId, TupleStore, Vocabulary,
};

use crate::ast::{PredRef, Program};
use crate::eval::{
    join, semi_naive, EvalCheckpoint, EvalConfig, EvalError, Item, JoinCtx, Reads, Rounds,
    StratumProfile, Workers,
};
use crate::plan::{ProbeScratch, ProgramPlan, ResolvedRow};

// ---------------------------------------------------------------------------
// Update batches
// ---------------------------------------------------------------------------

/// A batch of EDB tuples to insert or delete, one [`TupleStore`] per
/// vocabulary symbol. Build two of these (insertions and deletions) and hand
/// them to [`Program::evaluate_incremental`].
///
/// Batch semantics: a tuple listed in both the insertion and the deletion
/// batch is **kept** (insertions win); inserting a present tuple and
/// deleting an absent one are no-ops.
#[derive(Clone, Debug)]
pub struct EdbDelta {
    vocab: Vocabulary,
    stores: Vec<TupleStore>,
}

impl EdbDelta {
    /// An empty batch over `vocab`.
    pub fn new(vocab: &Vocabulary) -> EdbDelta {
        EdbDelta {
            vocab: vocab.clone(),
            stores: vocab
                .iter()
                .map(|(_, s)| TupleStore::new(s.arity))
                .collect(),
        }
    }

    /// Add one tuple for symbol `sym`.
    ///
    /// # Panics
    ///
    /// If `t.len()` differs from the symbol's arity. Element range is
    /// checked later, against the target database's universe, by
    /// [`Program::evaluate_incremental`].
    pub fn push(&mut self, sym: SymbolId, t: &[Elem]) {
        assert_eq!(
            t.len(),
            self.vocab.arity(sym),
            "tuple arity does not match symbol {}",
            self.vocab.symbol(sym).name
        );
        self.stores[sym.index()].push(t);
    }

    /// Add one tuple by raw element ids — convenience for tests and
    /// examples.
    ///
    /// # Panics
    ///
    /// As [`EdbDelta::push`].
    pub fn push_ids(&mut self, sym: usize, t: &[u32]) {
        let row: Vec<Elem> = t.iter().map(|&e| Elem(e)).collect();
        self.push(SymbolId::from(sym), &row);
    }

    /// True when no tuple was added to any symbol.
    pub fn is_empty(&self) -> bool {
        self.stores.iter().all(|s| s.is_empty())
    }

    /// Total number of tuples in the batch (duplicates included).
    pub fn len(&self) -> usize {
        self.stores.iter().map(|s| s.len() + s.pending_len()).sum()
    }

    /// The insertion and deletion batches that turn `old` into `new` (two
    /// structures over one vocabulary). Only relations the two do not
    /// [share](Structure::shares_relation) are diffed, so between
    /// copy-on-write versions of one database the cost is that of the
    /// relations written in between.
    pub fn between(old: &Structure, new: &Structure) -> (EdbDelta, EdbDelta) {
        let vocab = new.vocab();
        let (mut plus, mut minus) = (EdbDelta::new(vocab), EdbDelta::new(vocab));
        for (sym, rel) in new.relations() {
            if new.shares_relation(old, sym) {
                continue;
            }
            let before = old.relation(sym).store();
            plus.stores[sym.index()] = rel.store().difference(before);
            minus.stores[sym.index()] = before.difference(rel.store());
        }
        (plus, minus)
    }
}

// ---------------------------------------------------------------------------
// The materialized database
// ---------------------------------------------------------------------------

/// A program's input structure together with its materialized least
/// fixpoint and derivation depths for the recursive strata. The permuted
/// copies the maintenance joins probe belong to the relations, EDB and
/// IDB alike ([`Relation::copy`]).
///
/// Build one with [`MaterializedDb::new`], then apply update batches with
/// [`Program::evaluate_incremental`]. The database owns the structure; read
/// access goes through [`MaterializedDb::structure`] and
/// [`MaterializedDb::idb`].
#[derive(Clone, Debug)]
pub struct MaterializedDb {
    program: Program,
    /// The program's rule plans and dependency graph, as the evaluator
    /// plans them.
    plan: ProgramPlan,
    structure: Structure,
    idb: Vec<Relation>,
    /// Derivation depths as sorted runs, `Some` exactly for members of
    /// recursive SCCs: every tuple has a derivation whose in-SCC supporters
    /// all carry strictly smaller depths. DRed's deletion phase uses them
    /// to only cascade past tuples with no shallower alternative support.
    depths: Vec<Option<DepthRuns>>,
    /// Monotone upper bound over every assigned depth; fresh and revived
    /// tuples get depths above it, keeping the invariant without renumbering.
    depth_clock: u64,
}

impl MaterializedDb {
    /// Materialize `program`'s least fixpoint on `structure` for
    /// incremental maintenance, with the default [`EvalConfig`].
    pub fn new(program: &Program, structure: Structure) -> Result<MaterializedDb, EvalError> {
        MaterializedDb::new_with(program, structure, &EvalConfig::new())
    }

    /// As [`MaterializedDb::new`] with an explicit configuration (its
    /// worker threads).
    pub fn new_with(
        program: &Program,
        structure: Structure,
        cfg: &EvalConfig,
    ) -> Result<MaterializedDb, EvalError> {
        match MaterializedDb::new_budgeted(program, structure, cfg, &Budget::unlimited())? {
            Ok((db, _)) => Ok(db),
            Err(_) => unreachable!("an unlimited budget cannot exhaust"),
        }
    }

    /// As [`MaterializedDb::new_with`], charged against `budget`, with
    /// the build's [`MaintenanceReport`].
    ///
    /// A build is [`Program::evaluate_budgeted`]: the same rounds, fuel,
    /// stages and profile. Its round hook keeps each recursive member's
    /// stage delta as the run of that stage, the first `m` with its tuples
    /// in Φ^m, and the depth clock starts at the stage count plus one. The
    /// database keeps the permuted copies the evaluation's probes built. On exhaustion the partial is the evaluation's own
    /// [`EvalCheckpoint`], which [`Program::resume_budgeted`] continues to
    /// the fixpoint; no database is kept.
    #[allow(clippy::result_large_err)]
    pub fn new_budgeted(
        program: &Program,
        structure: Structure,
        cfg: &EvalConfig,
        budget: &Budget,
    ) -> Result<Budgeted<(MaterializedDb, MaintenanceReport), EvalCheckpoint>, EvalError> {
        if program.has_negation() {
            return Err(EvalError::NegationUnsupported {
                operation: "incremental view maintenance".to_string(),
            });
        }
        if structure.vocab() != program.edb() {
            return Err(EvalError::ProgramMismatch {
                detail: "structure vocabulary differs from the program's EDB".to_string(),
            });
        }
        let plan = ProgramPlan::new(program);
        let mut depths: Vec<Option<DepthRuns>> = (0..program.idbs().len())
            .map(|p| plan.graph.is_recursive_pred(p).then(DepthRuns::default))
            .collect();
        let gauge = budget.gauge();
        let run = match program.fixpoint(&plan, &structure, cfg, gauge, None, Some(&mut depths)) {
            Ok(run) => run,
            Err(stop) => return Ok(Err(stop)),
        };
        let db = MaterializedDb {
            program: program.clone(),
            plan,
            structure,
            idb: run.relations,
            depths,
            depth_clock: run.stages as u64 + 1,
        };
        let report = MaintenanceReport {
            stages: run.stages,
            diagnostics: run.diagnostics,
            profile: run.profile,
        };
        Ok(Ok((db, report)))
    }

    /// The current input structure (reflecting every committed batch).
    pub fn structure(&self) -> &Structure {
        &self.structure
    }

    /// The materialized relation of IDB `i`.
    pub fn idb(&self, i: usize) -> &Relation {
        &self.idb[i]
    }

    /// All materialized IDB relations, aligned with
    /// [`Program::idbs`](crate::Program::idbs).
    pub fn relations(&self) -> &[Relation] {
        &self.idb
    }

    /// Share `other`'s relation wherever its content equals this
    /// database's input relation: the two then hold one allocation, so a
    /// later [`Structure::shares_relation`] test against `other` (or a
    /// copy-on-write successor of it) is a pointer comparison. Relations
    /// that differ are left alone. Returns the number adopted.
    pub fn adopt_relations(&mut self, other: &Structure) -> usize {
        self.structure.adopt_equal_relations(other)
    }

    /// The committed relations, as the evaluator's join reads them.
    fn committed(&self) -> JoinCtx<'_> {
        JoinCtx {
            a: &self.structure,
            idb: &self.idb,
        }
    }

    /// Heap bytes this database holds beyond its input structure: the
    /// materialized IDB relations with their permuted copies, and the
    /// depth runs, which hold each recursive row once more. The copies of the input relations are counted
    /// in the structure ([`Structure::heap_bytes`]), which a view shares
    /// with the snapshots it follows.
    pub fn heap_bytes(&self) -> usize {
        let depths = self.depths.iter().flatten().map(DepthRuns::heap_bytes);
        self.idb.iter().map(Relation::heap_bytes).sum::<usize>() + depths.sum::<usize>()
    }
}

// ---------------------------------------------------------------------------
// Reports
// ---------------------------------------------------------------------------

/// What one maintenance run did — the `Ok` value of
/// [`Program::evaluate_incremental`] and its variants.
///
/// It carries no relations: the [`MaterializedDb`] the run updated *is*
/// the result, read through [`MaterializedDb::relations`] and
/// [`MaterializedDb::idb`], so a run costs no copy of the fixpoint.
#[derive(Clone, Debug)]
pub struct MaintenanceReport {
    /// Maintenance rounds (delta passes across all strata) — not the full
    /// evaluator's Φ rounds; an update nothing depends on reports 0, and a
    /// build reports its Φ stages.
    /// Every stratum reports the rounds its DRed phases ran, a
    /// non-recursive one included (up to one deletion, two rederivation
    /// and one insertion round), not a flat 1. An insertion round counts
    /// when something seeds it — an external insertion or last round's
    /// new tuples — even if every item it forms reads an empty relation
    /// and is skipped.
    pub stages: usize,
    /// Worker-panic recoveries, one note naming the round, as in
    /// [`FixpointResult::diagnostics`](crate::FixpointResult::diagnostics);
    /// after one, the rest of the run is single-threaded.
    pub diagnostics: Vec<String>,
    /// One [`StratumProfile`] for the run (maintained programs are
    /// positive, so there is one stratum): rounds, changed tuples, fuel
    /// and wall time of this call; for a build, its evaluation's.
    pub profile: Vec<StratumProfile>,
}

// ---------------------------------------------------------------------------
// Join driver
// ---------------------------------------------------------------------------

/// Which state of a relation an atom outside the maintained SCC reads in
/// DRed's deletion and rederivation phases. SCC members read [`Cur`]
/// there, except in phase A, where every atom reads `Old`.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
enum View {
    /// Post-update committed state (EDB after the batch, lower strata after
    /// their maintenance).
    New,
    /// Pre-update state, reconstructed as `committed ∖ plus ∪ minus` from
    /// the recorded per-predicate deltas.
    Old,
    /// Tuples present both before and after the batch: `committed ∖ plus`.
    /// The deletion-phase support check reads external atoms this way: a
    /// kept tuple's witness must exist in the `Old` state, because kills
    /// propagate through `Old` joins. A witness leaning on a tuple this
    /// batch inserted would not be found again when one of its members is
    /// killed later, and the kept tuple would outlive its last derivation
    /// (`support_witnesses_exist_before_the_batch`). The insertion phase
    /// re-derives whatever this over-deletes.
    Stable,
}

/// The derivation depths of one recursive SCC member, as sorted runs: one
/// sealed store per depth, holding every row of that depth, in ascending
/// depth. Each row sits in exactly one run and no run is empty. Any
/// assignment where every alive tuple has a derivation whose in-SCC
/// supporters all carry strictly smaller depths works; the maintenance
/// code keeps that invariant with a monotone clock, so a new run always
/// goes last.
#[derive(Clone, Debug, Default)]
pub(crate) struct DepthRuns(Vec<(u64, TupleStore)>);

impl DepthRuns {
    /// Append `rows` (sealed, in no run) as the run of `depth`, above
    /// every run's depth; an empty store adds no run.
    pub(crate) fn push(&mut self, depth: u64, rows: TupleStore) {
        debug_assert!(self.0.last().is_none_or(|&(d, _)| d < depth));
        if !rows.is_empty() {
            self.0.push((depth, rows));
        }
    }

    /// The depth of `t`: that of the one run holding it.
    fn get<R: Row + Copy>(&self, t: R) -> Option<u64> {
        let (d, _) = self.0.iter().rev().find(|(_, r)| r.contains(t))?;
        Some(*d)
    }

    /// True when `t` sits in a run below `limit`, searched from `limit`
    /// down: a witness mostly sits just below the examined tuple.
    fn below<R: Row + Copy>(&self, t: R, limit: u64) -> bool {
        (self.0.iter().rev())
            .skip_while(|&&(d, _)| d >= limit)
            .any(|(_, run)| run.contains(t))
    }

    /// Remove `rows` (sealed) from the runs, dropping the runs it empties.
    fn subtract(&mut self, rows: &TupleStore) {
        self.0.retain_mut(|(_, run)| {
            run.subtract(rows);
            !run.is_empty()
        });
    }

    /// Heap bytes: the run list and every run's planes.
    fn heap_bytes(&self) -> usize {
        let runs: usize = self.0.iter().map(|(_, run)| run.heap_bytes()).sum();
        self.0.capacity() * std::mem::size_of::<(u64, TupleStore)>() + runs
    }
}

/// Per-predicate effective deltas of one maintenance run: what actually
/// changed in the EDB, and what each already-processed stratum's
/// maintenance changed in its IDB.
struct Deltas {
    edb_plus: Vec<TupleStore>,
    edb_minus: Vec<TupleStore>,
    idb_plus: Vec<TupleStore>,
    idb_minus: Vec<TupleStore>,
}

impl Deltas {
    fn empty(p: &Program) -> Deltas {
        let edb: Vec<TupleStore> = p
            .edb()
            .iter()
            .map(|(_, s)| TupleStore::new(s.arity))
            .collect();
        let idb: Vec<TupleStore> = p.idbs().iter().map(|&(_, a)| TupleStore::new(a)).collect();
        Deltas {
            edb_plus: edb.clone(),
            edb_minus: edb,
            idb_plus: idb.clone(),
            idb_minus: idb,
        }
    }

    fn plus(&self, pred: PredRef) -> &TupleStore {
        match pred {
            PredRef::Edb(sym) => &self.edb_plus[sym.index()],
            PredRef::Idb(i) => &self.idb_plus[i],
        }
    }

    fn minus(&self, pred: PredRef) -> &TupleStore {
        match pred {
            PredRef::Edb(sym) => &self.edb_minus[sym.index()],
            PredRef::Idb(i) => &self.idb_minus[i],
        }
    }
}

/// The mid-DRed state SCC members read as `Cur`: committed rows that are
/// not over-deleted, or were revived. Both vectors are indexed by IDB id;
/// non-members stay empty.
struct Cur<'a> {
    scc: usize,
    /// The deletion over-approximation `D`.
    removed: &'a [TupleStore],
    /// Over-deleted tuples with a surviving alternative derivation.
    revived: &'a [Relation],
    /// The support check's depth gate: the members' depths, and the
    /// examined tuple's. A member row only counts as support when its
    /// depth is strictly below, so kills propagate strictly depth-upward
    /// and a kept tuple's witness can only be invalidated by a later kill
    /// that re-triggers its examination — no under-deletion. A row with
    /// no depth never supports (at worst an over-deletion, which phase B
    /// revives).
    gate: Option<(&'a [Option<DepthRuns>], u64)>,
}

/// What every atom reads in one DRed phase, by predicate: SCC members
/// read `cur` when it is set, every other atom reads `external`.
///
/// - phase A: everything reads `Old` (no `cur`);
/// - the support check: members read `Cur` under the depth gate,
///   externals read `Stable`;
/// - phase B: members read `Cur`, externals read `New`.
struct PhaseView<'a> {
    committed: JoinCtx<'a>,
    plan: &'a ProgramPlan,
    deltas: &'a Deltas,
    external: View,
    cur: Option<Cur<'a>>,
}

impl<'a> PhaseView<'a> {
    fn new(
        db: &'a MaterializedDb,
        deltas: &'a Deltas,
        external: View,
        cur: Option<Cur<'a>>,
    ) -> PhaseView<'a> {
        PhaseView {
            committed: db.committed(),
            plan: &db.plan,
            deltas,
            external,
            cur,
        }
    }

    /// The overlay of `pred` and its IDB index, when it reads `Cur`.
    fn cur(&self, pred: PredRef) -> Option<(&Cur<'a>, usize)> {
        match (pred, &self.cur) {
            (PredRef::Idb(p), Some(cur)) if self.plan.graph.scc_of(p) == cur.scc => Some((cur, p)),
            _ => None,
        }
    }
}

impl Reads for PhaseView<'_> {
    fn relation(&self, pred: PredRef) -> &Relation {
        self.committed.relation(pred)
    }

    /// `Old` and `Stable` hide the rows this batch inserted; `Cur` hides
    /// the over-deleted rows that were not revived, and under the depth
    /// gate every row it does not admit.
    fn hides(&self, pred: PredRef, t: ResolvedRow<'_>) -> bool {
        if let Some((cur, p)) = self.cur(pred) {
            let removed = &cur.removed[p];
            return (!removed.is_empty() && removed.contains(t) && !cur.revived[p].contains(t))
                || cur.gate.is_some_and(|(depths, limit)| {
                    !depths[p].as_ref().is_some_and(|runs| runs.below(t, limit))
                });
        }
        let plus = self.deltas.plus(pred);
        self.external != View::New && !plus.is_empty() && plus.contains(t)
    }

    /// `Old` also reads the rows this batch deleted.
    fn extra(&self, pred: PredRef) -> Option<&TupleStore> {
        (self.external == View::Old).then(|| self.deltas.minus(pred))
    }
}

/// True when head tuple `t` of IDB `p` has a derivation in `view`: some
/// rule's body matches along its rederivation order with the head slots
/// prebound to `t`. The walk stops at the first witness.
fn rederives(view: &PhaseView<'_>, p: usize, t: RowRef<'_>) -> bool {
    view.plan.graph.rules_of(p).iter().any(|&ri| {
        let rp = &view.plan.rules[ri];
        if rp.head_repeats.iter().any(|&(i, j)| t.get(i) != t.get(j)) {
            return false;
        }
        let mut asg = vec![Elem(0); rp.var_count];
        for (i, &s) in rp.head_args.iter().enumerate() {
            asg[s] = t.get(i);
        }
        let item = Item {
            rp,
            steps: rp.rederive_order(),
            seed: None,
            chunk: (0, 1),
        };
        let mut probes = ProbeScratch::new(item.steps.len());
        !join(view, &item, 0, &mut asg, &mut probes, &mut |_| false)
    })
}

/// The rows of the sealed store `rows` that `keep` holds for, tested on
/// the pool; sealed.
fn filter_pooled<F>(workers: &mut Workers, rows: &TupleStore, keep: F) -> TupleStore
where
    F: Fn(RowRef<'_>) -> bool + Sync,
{
    let kept = workers.map(workers.threads(), rows.len(), |i| keep(rows.row(i)));
    let mut out = TupleStore::new(rows.arity());
    for (t, _) in rows.iter().zip(kept).filter(|&(_, k)| k) {
        out.push(t);
    }
    out.seal();
    out
}

// ---------------------------------------------------------------------------
// Maintenance engine
// ---------------------------------------------------------------------------

/// Apply the update batch to the EDB: compute effective per-symbol deltas
/// against the committed structure, splice them into (and subtract them
/// from) the committed relations — and so their built permuted copies — in
/// place, `O(batch · log n)` plus a shift within each touched page of each
/// touched store, at most [`PAGE`](hp_structures::PAGE) rows per plane
/// whatever the store's length. A relation still shared with a snapshot is
/// copied once, by copy-on-write.
/// Validates every inserted tuple **before** any mutation so a bad batch
/// leaves the database untouched.
fn commit_edb(
    db: &mut MaterializedDb,
    plus: &EdbDelta,
    minus: &EdbDelta,
) -> Result<Deltas, EvalError> {
    let mut deltas = Deltas::empty(&db.program);
    let universe = db.structure.universe_size();
    let n_sym = db.program.edb().len();
    let mut plus_sealed: Vec<TupleStore> = Vec::with_capacity(n_sym);
    let mut minus_sealed: Vec<TupleStore> = Vec::with_capacity(n_sym);
    for i in 0..n_sym {
        let mut p = plus.stores[i].clone();
        p.seal();
        for t in p.iter() {
            for e in t.iter() {
                if e.index() >= universe {
                    return Err(EvalError::Structure(StructureError::ElementOutOfRange {
                        element: e.0,
                        universe,
                    }));
                }
            }
        }
        let mut m = minus.stores[i].clone();
        m.seal();
        plus_sealed.push(p);
        minus_sealed.push(m);
    }
    for i in 0..n_sym {
        let sym = SymbolId::from(i);
        if plus_sealed[i].is_empty() && minus_sealed[i].is_empty() {
            continue;
        }
        let (eff_plus, eff_minus) = {
            let committed = db.structure.relation(sym).store();
            // Insertions win over same-batch deletions; already-present
            // insertions and absent deletions are no-ops.
            let eff_plus = plus_sealed[i].difference(committed);
            let eff_minus = minus_sealed[i]
                .difference(&plus_sealed[i])
                .intersection(committed);
            (eff_plus, eff_minus)
        };
        db.structure
            .extend_tuples(sym, eff_plus.iter())
            .map_err(EvalError::Structure)?;
        db.structure.remove_tuples(sym, &eff_minus);
        deltas.edb_plus[i] = eff_plus;
        deltas.edb_minus[i] = eff_minus;
    }
    Ok(deltas)
}

/// Maintain one SCC by DRed: phase A (over-deletion) as the evaluator's
/// rounds over the `Old` view, phase B (rederivation) as its join from a
/// prebound head, the commit of the confirmed deletions, then phase C
/// (insertion) as the evaluator's [`semi_naive`] loop on the committed
/// relations. Records the SCC's net deltas for the SCCs above, adds its
/// rounds to `rounds`, and returns the number of tuples it changed. The
/// gauge is polled before every round of each phase; a stop leaves the SCC
/// half-maintained.
///
/// A non-recursive member carries no depth runs, and needs none: the depth
/// gate only filters `Cur` atoms, and none of its rule bodies mentions an
/// SCC member.
fn dred_scc(
    db: &mut MaterializedDb,
    workers: &mut Workers,
    gauge: &mut Gauge,
    deltas: &mut Deltas,
    scc: usize,
    rounds: &mut usize,
) -> Result<usize, Stop> {
    let n_idb = db.idb.len();
    let graph = &db.plan.graph;
    let members = graph.scc_members(scc);
    let arities: Vec<usize> = db.idb.iter().map(Relation::arity).collect();
    let arity_of = |p: usize| arities[p];
    let mut removed: Vec<TupleStore> = (0..n_idb).map(|p| TupleStore::new(arity_of(p))).collect();
    let mut revived: Vec<Relation> = (0..n_idb).map(|p| Relation::new(arity_of(p))).collect();
    let in_scc: Vec<bool> = (0..n_idb).map(|p| graph.scc_of(p) == scc).collect();
    let mut clock = db.depth_clock;

    // Phase A: propagate a deletion over-approximation `D` to a fixpoint.
    // Round 0 is seeded by the external deletions (EDB and lower strata);
    // later rounds by the tuples newly admitted to `D`, with every other
    // occurrence reading the pre-update state. A candidate only enters `D`
    // if it has no surviving support from strictly shallower members and
    // stable externals — kills propagate strictly depth-upward, so a kept
    // tuple is re-examined whenever a witness supporter dies later, and the
    // cascade stays local when alternative derivations abound. The poll
    // opens every round, the one that finds nothing to do included, so
    // every SCC is polled at least once.
    let mut frontier: Vec<TupleStore> = (0..n_idb).map(|p| TupleStore::new(arity_of(p))).collect();
    let mut first = true;
    loop {
        gauge.check()?;
        let mut cand: Vec<TupleStore> = (0..n_idb).map(|p| TupleStore::new(arity_of(p))).collect();
        {
            let mut items: Vec<Item<'_>> = Vec::new();
            for &p in members {
                for &ri in graph.rules_of(p) {
                    let rp = &db.plan.rules[ri];
                    for (ai, atom) in rp.atoms.iter().enumerate() {
                        let seed = match atom.pred {
                            PredRef::Idb(q) if in_scc[q] => {
                                if first {
                                    continue;
                                }
                                &frontier[q]
                            }
                            pred if first => deltas.minus(pred),
                            _ => continue,
                        };
                        if !seed.is_empty() {
                            items.push(Item::new(rp, Some((ai, seed))));
                        }
                    }
                }
            }
            if items.is_empty() {
                break;
            }
            *rounds += 1;
            workers.round = *rounds;
            let view = PhaseView::new(db, deltas, View::Old, None);
            for (h, out) in workers.round(&view, &items, workers.threads()) {
                debug_assert!(
                    out.difference(db.idb[h].store()).is_empty(),
                    "an `Old` derivation's head is committed"
                );
                cand[h].merge(&out.difference(&removed[h]));
            }
        }
        // The support check: a candidate with a witness among strictly
        // shallower members and stable externals is kept.
        let kills: Vec<TupleStore> = members
            .iter()
            .map(|&p| {
                filter_pooled(workers, &cand[p], |t| {
                    let limit = db.depths[p].as_ref().and_then(|r| r.get(t)).unwrap_or(0);
                    let cur = Cur {
                        scc,
                        removed: &removed,
                        revived: &revived,
                        gate: Some((&db.depths, limit)),
                    };
                    !rederives(&PhaseView::new(db, deltas, View::Stable, Some(cur)), p, t)
                })
            })
            .collect();
        let mut any = false;
        for (&p, kill) in members.iter().zip(kills) {
            any = any || !kill.is_empty();
            removed[p].merge(&kill);
            frontier[p] = kill;
        }
        first = false;
        if !any {
            break;
        }
    }

    // Phase B: revive every over-deleted tuple with a surviving alternative
    // derivation; revivals can support further revivals, so iterate.
    loop {
        let cands: Vec<TupleStore> = members
            .iter()
            .map(|&p| removed[p].difference(revived[p].store()))
            .collect();
        if cands.iter().all(TupleStore::is_empty) {
            break;
        }
        gauge.check()?;
        *rounds += 1;
        workers.round = *rounds;
        let hits: Vec<TupleStore> = {
            let cur = Cur {
                scc,
                removed: &removed,
                revived: &revived,
                gate: None,
            };
            let view = PhaseView::new(db, deltas, View::New, Some(cur));
            (members.iter().zip(&cands))
                .map(|(&p, c)| filter_pooled(workers, c, |t| rederives(&view, p, t)))
                .collect()
        };
        let mut any = false;
        clock += 1;
        for (&p, hit) in members.iter().zip(hits) {
            any = any || !hit.is_empty();
            revived[p].merge_store(&hit);
            if let Some(runs) = db.depths[p].as_mut() {
                runs.subtract(&hit);
                runs.push(clock, hit);
            }
        }
        if !any {
            break;
        }
    }

    // Commit the confirmed deletions `M = D ∖ revived`.
    for &p in members {
        let m = removed[p].difference(revived[p].store());
        if let Some(runs) = db.depths[p].as_mut() {
            runs.subtract(&m);
        }
        db.idb[p].remove_tuples(&m);
        removed[p] = m;
    }

    // Phase C: the evaluator's semi-naive rounds over the committed state,
    // with the SCC as the round unit. Round 0 is seeded by the external
    // insertions.
    let mut items: Vec<Item<'_>> = Vec::new();
    for rp in db.plan.rules.iter().filter(|rp| in_scc[rp.head]) {
        for (ai, atom) in rp.atoms.iter().enumerate() {
            let seed = deltas.plus(atom.pred);
            let external = !matches!(atom.pred, PredRef::Idb(q) if in_scc[q]);
            if external && !seed.is_empty() {
                items.push(Item::new(rp, Some((ai, seed))));
            }
        }
    }
    let seed_tuples = items
        .iter()
        .filter_map(|item| item.seed)
        .map(TupleStore::len)
        .sum();
    let clock_before_c = clock;
    let mut insertions = Insertions {
        depths: &mut db.depths,
        clock: &mut clock,
        rounds,
        gauge,
        added: vec![Vec::new(); n_idb],
    };
    let mut delta = db.program.empty_idbs();
    semi_naive(
        &db.plan,
        &in_scc,
        &db.structure,
        &mut db.idb,
        &mut delta,
        Some((items, seed_tuples)),
        workers,
        &mut insertions,
    )?;
    let mut added = insertions.added;

    // A tuple deleted and then derived again reaches the strata above as
    // neither a deletion nor an insertion. A recursive member's insertions
    // are the runs phase C appended.
    let mut changed = 0usize;
    for &p in members {
        let parts: Vec<Cow<'_, TupleStore>> = match &db.depths[p] {
            Some(runs) => (runs.0.iter().filter(|&&(d, _)| d > clock_before_c))
                .map(|(_, run)| Cow::Borrowed(run))
                .collect(),
            None => added[p].drain(..).map(Cow::Owned).collect(),
        };
        let mut plus = union_of(parts, arity_of(p));
        let minus = removed[p].difference(&plus);
        plus.subtract(&removed[p]);
        changed += minus.len() + plus.len();
        deltas.idb_minus[p] = minus;
        deltas.idb_plus[p] = plus;
    }
    db.depth_clock = clock;
    Ok(changed)
}

/// Phase C's round boundaries: the gauge is polled before every delta
/// round, and a round some item was seeded for counts and advances the
/// depth clock. Every merged delta is kept: a recursive member's as the
/// run of the clock its round set, any other's in `added`, per IDB and
/// round.
struct Insertions<'a> {
    depths: &'a mut [Option<DepthRuns>],
    clock: &'a mut u64,
    rounds: &'a mut usize,
    gauge: &'a mut Gauge,
    added: Vec<Vec<TupleStore>>,
}

impl Rounds for Insertions<'_> {
    /// A round is counted once it ran.
    fn round(&self) -> usize {
        *self.rounds + 1
    }

    fn before(&mut self) -> Result<(), Stop> {
        self.gauge.check()
    }

    fn after(&mut self, seeded: bool, _delta: &[Relation]) -> Result<(), Stop> {
        if seeded {
            *self.rounds += 1;
            *self.clock += 1;
        }
        Ok(())
    }

    /// A delta retires in the round after its own, before that round's
    /// [`Rounds::after`] moves the clock on.
    fn retire(&mut self, delta: Vec<Relation>) {
        let runs = self.depths.iter_mut().zip(&mut self.added);
        for ((runs, added), d) in runs.zip(delta) {
            match runs {
                Some(runs) => runs.push(*self.clock, d.into_store()),
                None => added.push(d.into_store()),
            }
        }
    }
}

/// The union of disjoint sealed stores of arity `arity`, built at its
/// final size: a store grown round by round would leave the allocator a
/// trail of freed prefixes. A lone owned part is moved, not copied.
fn union_of(parts: Vec<Cow<'_, TupleStore>>, arity: usize) -> TupleStore {
    let mut parts: Vec<Cow<'_, TupleStore>> = parts.into_iter().filter(|s| !s.is_empty()).collect();
    if parts.len() <= 1 {
        return parts
            .pop()
            .map_or_else(|| TupleStore::new(arity), Cow::into_owned);
    }
    let rows = parts.iter().map(|s| s.len()).sum();
    let mut out = TupleStore::with_capacity(arity, rows);
    for t in parts.iter().flat_map(|s| s.iter()) {
        out.push(t);
    }
    out.seal();
    out
}

/// Maintain every SCC, dependencies first, polling the gauge before every
/// DRed round ([`Gauge::check`] charges nothing) and charging it
/// `1 + changed_tuples` after each SCC commits, mirroring the per-round
/// charge of the full evaluator. A stop leaves `db` half-maintained.
fn maintain(
    db: &mut MaterializedDb,
    cfg: &EvalConfig,
    mut gauge: Gauge,
    mut deltas: Deltas,
) -> Result<MaintenanceReport, Stop> {
    // As in the full evaluator, a worker panic degrades the rest of the
    // batch to the calling thread.
    let mut workers = Workers::new(cfg, Vec::new());
    let started = std::time::Instant::now();
    let (mut stages, mut derived, mut fuel) = (0, 0u64, 0u64);
    for si in 0..db.plan.graph.scc_count() {
        let changed = dred_scc(db, &mut workers, &mut gauge, &mut deltas, si, &mut stages)? as u64;
        derived += changed;
        fuel += 1 + changed;
        gauge.tick(1 + changed)?;
    }
    Ok(MaintenanceReport {
        stages,
        diagnostics: workers.diagnostics,
        // Maintained programs are positive: one stratum.
        profile: vec![StratumProfile {
            stratum: 0,
            stages,
            derived,
            fuel,
            elapsed: started.elapsed(),
            peak_pending: workers.peak_pending,
        }],
    })
}

// ---------------------------------------------------------------------------
// Entry points
// ---------------------------------------------------------------------------

impl Program {
    /// Fold an EDB update batch into a materialized database, in place:
    /// afterwards [`MaterializedDb::relations`] are bit-identical to a
    /// from-scratch [`Program::evaluate`] on the updated structure. Returns
    /// a [`MaintenanceReport`], which holds no copy of the relations.
    ///
    /// [`MaintenanceReport::stages`] counts *maintenance rounds* (delta
    /// passes across all strata), not the full evaluator's Φ rounds; an
    /// update nothing depends on reports 0 stages. The batch is committed
    /// to the input structure and its permuted index copies in place, at
    /// `O(batch · log n)` plus a shift within each touched page, whatever
    /// the relations' length.
    pub fn evaluate_incremental(
        &self,
        db: &mut MaterializedDb,
        plus: &EdbDelta,
        minus: &EdbDelta,
    ) -> Result<MaintenanceReport, EvalError> {
        self.evaluate_incremental_with(db, plus, minus, &EvalConfig::new())
    }

    /// As [`Program::evaluate_incremental`] with an explicit configuration
    /// (worker threads for the per-round delta items; results are
    /// bit-identical for every thread count). A worker panic is recovered
    /// on the calling thread, recorded in
    /// [`MaintenanceReport::diagnostics`], and the rest of the batch runs
    /// single-threaded.
    pub fn evaluate_incremental_with(
        &self,
        db: &mut MaterializedDb,
        plus: &EdbDelta,
        minus: &EdbDelta,
        cfg: &EvalConfig,
    ) -> Result<MaintenanceReport, EvalError> {
        let run = self.fold_batch(db, plus, minus, cfg, &Budget::unlimited())?;
        Ok(run.expect("unlimited budgets cannot exhaust"))
    }

    /// As [`Program::evaluate_incremental_with`], charged against
    /// `budget`. The database is returned only on completion, with the
    /// report: a stop may land in any DRed round, mid-SCC, so a stopped
    /// run drops the half-maintained database and reports only the fuel
    /// it spent. Build a fresh [`MaterializedDb`] on the updated
    /// structure to go on.
    pub fn evaluate_incremental_budgeted(
        &self,
        mut db: MaterializedDb,
        plus: &EdbDelta,
        minus: &EdbDelta,
        cfg: &EvalConfig,
        budget: &Budget,
    ) -> Result<Budgeted<(MaterializedDb, MaintenanceReport), ()>, EvalError> {
        let run = self.fold_batch(&mut db, plus, minus, cfg, budget)?;
        Ok(run
            .map(|report| (db, report))
            .map_err(|stop| stop.with_partial(())))
    }

    /// Commit the batch to `db` and maintain its fixpoint under `budget`.
    /// A mismatched database or batch is refused before any mutation.
    fn fold_batch(
        &self,
        db: &mut MaterializedDb,
        plus: &EdbDelta,
        minus: &EdbDelta,
        cfg: &EvalConfig,
        budget: &Budget,
    ) -> Result<Result<MaintenanceReport, Stop>, EvalError> {
        // A database is only ever built for a positive program.
        if !self.same_rules(&db.program) {
            return Err(EvalError::ProgramMismatch {
                detail: "materialized database was built for a different program".to_string(),
            });
        }
        if plus.vocab != *self.edb() || minus.vocab != *self.edb() {
            return Err(EvalError::ProgramMismatch {
                detail: "update batch vocabulary differs from the program's EDB".to_string(),
            });
        }
        let deltas = commit_edb(db, plus, minus)?;
        Ok(maintain(db, cfg, budget.gauge(), deltas))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::gallery;
    use hp_structures::generators::directed_path;

    fn delta_pair(vocab: &Vocabulary) -> (EdbDelta, EdbDelta) {
        (EdbDelta::new(vocab), EdbDelta::new(vocab))
    }

    #[test]
    fn single_edge_insert_matches_full_eval() {
        let p = gallery::transitive_closure();
        let a = directed_path(5);
        let mut db = MaterializedDb::new(&p, a.clone()).unwrap();
        let (mut plus, minus) = delta_pair(p.edb());
        plus.push_ids(0, &[4, 0]); // close the cycle
        p.evaluate_incremental(&mut db, &plus, &minus).unwrap();
        let mut b = a;
        let _ = b.add_tuple_ids(0, &[4, 0]);
        let full = p.evaluate(&b);
        assert_eq!(db.relations(), &full.relations[..]);
    }

    #[test]
    fn single_edge_delete_matches_full_eval() {
        let p = gallery::transitive_closure();
        let a = directed_path(6);
        let mut db = MaterializedDb::new(&p, a.clone()).unwrap();
        let (plus, mut minus) = delta_pair(p.edb());
        minus.push_ids(0, &[2, 3]); // cut the path in the middle
        p.evaluate_incremental(&mut db, &plus, &minus).unwrap();
        let mut b = a;
        assert!(b.remove_tuple(SymbolId::from(0usize), &[Elem(2), Elem(3)]));
        let full = p.evaluate(&b);
        assert_eq!(db.relations(), &full.relations[..]);
    }

    #[test]
    fn delete_then_reinsert_restores_everything() {
        let p = gallery::transitive_closure();
        let a = directed_path(6);
        let mut db = MaterializedDb::new(&p, a.clone()).unwrap();
        let before: Vec<Relation> = db.relations().to_vec();
        let (plus0, mut minus0) = delta_pair(p.edb());
        minus0.push_ids(0, &[3, 4]);
        p.evaluate_incremental(&mut db, &plus0, &minus0).unwrap();
        let (mut plus1, minus1) = delta_pair(p.edb());
        plus1.push_ids(0, &[3, 4]);
        p.evaluate_incremental(&mut db, &plus1, &minus1).unwrap();
        assert_eq!(db.relations(), &before[..]);
        assert_eq!(db.structure().relation(SymbolId::from(0usize)).len(), 5);
    }

    #[test]
    fn nonrecursive_stratum_keeps_multiply_derived_tuples() {
        // two_hop is non-recursive: H(x,y) has one derivation per length-2
        // path. Deleting one of two parallel mid-edges must keep the pair.
        let p = gallery::two_hop();
        let mut a = Structure::new(Vocabulary::digraph(), 4);
        for (u, v) in [(0u32, 1), (0, 2), (1, 3), (2, 3)] {
            let _ = a.add_tuple_ids(0, &[u, v]);
        }
        let mut db = MaterializedDb::new(&p, a.clone()).unwrap();
        let (plus, mut minus) = delta_pair(p.edb());
        minus.push_ids(0, &[1, 3]);
        p.evaluate_incremental(&mut db, &plus, &minus).unwrap();
        // (0,3) survives via 0→2→3.
        assert!(db.idb(0).contains(&[Elem(0), Elem(3)]));
        let mut b = a;
        assert!(b.remove_tuple(SymbolId::from(0usize), &[Elem(1), Elem(3)]));
        assert_eq!(db.relations(), &p.evaluate(&b).relations[..]);
    }

    #[test]
    fn noop_batch_reports_zero_stages() {
        let p = gallery::transitive_closure();
        let a = directed_path(4);
        let mut db = MaterializedDb::new(&p, a).unwrap();
        let (mut plus, mut minus) = delta_pair(p.edb());
        plus.push_ids(0, &[0, 1]); // already present
        minus.push_ids(0, &[3, 0]); // absent
        let r = p.evaluate_incremental(&mut db, &plus, &minus).unwrap();
        assert_eq!(r.stages, 0);
    }

    #[test]
    fn mismatched_database_is_a_typed_error() {
        let p = gallery::transitive_closure();
        let q = gallery::cycle_detection();
        let mut db = MaterializedDb::new(&p, directed_path(3)).unwrap();
        let (plus, minus) = delta_pair(q.edb());
        let err = q.evaluate_incremental(&mut db, &plus, &minus).unwrap_err();
        assert!(matches!(err, EvalError::ProgramMismatch { .. }));
    }

    #[test]
    fn identity_indexes_probe_the_committed_relations() {
        // Reach from S: maintenance probes E and R on their first column
        // (the identity permutation, so no copy) and E on its second (the
        // rederivation probe, a permuted copy E builds on the first batch
        // that deletes).
        let vocab = Vocabulary::from_pairs([("E", 2), ("S", 1)]);
        let p = Program::parse("R(x) :- S(x).\nR(y) :- R(x), E(x,y).\n# goal: R", &vocab).unwrap();
        let mut a = Structure::new(vocab, 48);
        let mut x = 0x9e37_79b9_7f4a_7c15u64;
        for _ in 0..150 {
            x ^= x << 13;
            x ^= x >> 7;
            x ^= x << 17;
            let _ = a.add_tuple_ids(0, &[(x % 48) as u32, ((x >> 32) % 48) as u32]);
        }
        let _ = a.add_tuple_ids(1, &[0]);
        let mut db = MaterializedDb::new(&p, a).unwrap();
        let e = SymbolId::from(0usize);
        // Every copy built so far, as (relation, column order, bytes).
        let copies = |db: &MaterializedDb| -> Vec<(PredRef, Vec<usize>, usize)> {
            let idb = db
                .relations()
                .iter()
                .enumerate()
                .map(|(i, r)| (PredRef::Idb(i), r));
            let edb = db
                .structure()
                .relations()
                .map(|(sym, r)| (PredRef::Edb(sym), r));
            edb.chain(idb)
                .flat_map(|(pred, r)| {
                    r.copies()
                        .map(move |(order, c)| (pred, order.pos_of().to_vec(), c.heap_bytes()))
                })
                .collect()
        };
        // The build probes S, E and R on their first column only: the
        // stores themselves, a copy of each being what no one holds.
        assert!(copies(&db).is_empty());
        let depths: usize = db.depths.iter().flatten().map(DepthRuns::heap_bytes).sum();
        assert_eq!(db.heap_bytes(), db.idb(0).heap_bytes() + depths);
        assert_eq!(db.idb(0).heap_bytes(), db.idb(0).store().heap_bytes());

        // Maintenance over the shared stores stays bit-identical to a
        // full evaluation, batch after batch.
        for step in 0..40u32 {
            x ^= x << 13;
            x ^= x >> 7;
            x ^= x << 17;
            let (mut plus, mut minus) = delta_pair(p.edb());
            let (u, v) = ((x % 48) as u32, ((x >> 32) % 48) as u32);
            match step % 4 {
                0 => plus.push_ids(1, &[u]),
                1 => minus.push_ids(1, &[u]),
                2 => plus.push_ids(0, &[u, v]),
                _ => {
                    let victim = db.structure().relation(e).tuple(u as usize % 100).to_vec();
                    minus.push(e, &victim);
                }
            }
            p.evaluate_incremental(&mut db, &plus, &minus).unwrap();
            let full = p.evaluate(db.structure());
            assert_eq!(db.relations(), &full.relations[..], "step {step}");
        }
        // The one permuted copy is E's on its second column, counted in
        // the structure.
        let built = copies(&db);
        assert_eq!(built.len(), 1);
        assert_eq!((built[0].0, &built[0].1), (PredRef::Edb(e), &vec![1, 0]));
        let rel = db.structure().relation(e);
        assert_eq!(rel.heap_bytes(), rel.store().heap_bytes() + built[0].2);
    }

    #[test]
    fn in_place_commits_keep_the_index_copy_canonical() {
        // Reach from S over a 48-cycle plus random chords: maintenance
        // keeps one permuted copy, E keyed on its second column, whose
        // planes, capacity included, must match a fresh build's.
        let vocab = Vocabulary::from_pairs([("E", 2), ("S", 1)]);
        let p = Program::parse("R(x) :- S(x).\nR(y) :- R(x), E(x,y).\n# goal: R", &vocab).unwrap();
        let n = 48u32;
        let mut x = 0x2545_f491_4f6c_dd1du64;
        let mut next = move || {
            x ^= x << 13;
            x ^= x >> 7;
            x ^= x << 17;
            (x >> 16) as u32
        };
        let mut a = Structure::new(vocab, n as usize);
        for v in 0..n {
            a.add_tuple_ids(0, &[v, (v + 1) % n]).unwrap();
        }
        for _ in 0..100 {
            a.add_tuple_ids(0, &[next() % n, next() % n]).unwrap();
        }
        a.add_tuple_ids(1, &[0]).unwrap();
        let mut db = MaterializedDb::new(&p, a).unwrap();
        let e = SymbolId::from(0usize);
        let copies =
            |rel: &Relation| -> Vec<TupleStore> { rel.copies().map(|(_, s)| s.clone()).collect() };
        // Read on the stores themselves: a clone's planes are exact.
        let copy_bytes =
            |rel: &Relation| -> usize { rel.copies().map(|(_, s)| s.heap_bytes()).sum() };
        // The build reads no copy; the first batch that deletes builds E's.
        assert_eq!(copies(db.structure().relation(e)).len(), 0);
        let mut deleted = false;

        for step in 0..200 {
            let (u, v) = (next() % n, next() % n);
            let (mut plus, mut minus) = delta_pair(p.edb());
            match step % 4 {
                // Inserts, some of edges already present.
                0 | 1 => plus.push_ids(0, &[u, v]),
                // Deletes of a present chord, else of a chord that may be
                // absent (`u → u+2` is never a cycle edge).
                2 => {
                    let rel = db.structure().relation(e);
                    let t = rel.tuple(next() as usize % rel.len()).to_vec();
                    if t[1].0 != (t[0].0 + 1) % n {
                        minus.push(e, &t);
                    } else {
                        minus.push_ids(0, &[u, (u + 2) % n]);
                    }
                }
                _ if next() % 2 == 0 => plus.push_ids(1, &[u]),
                _ => minus.push_ids(1, &[u]),
            }
            let before = db.structure().clone();
            p.evaluate_incremental(&mut db, &plus, &minus).unwrap();
            let full = p.evaluate(db.structure());
            assert_eq!(db.relations(), &full.relations[..], "step {step}");
            deleted |= before
                .relations()
                .any(|(sym, r)| !r.is_subset(db.structure().relation(sym)));
            let rel = db.structure().relation(e);
            assert_eq!(copies(rel).len(), usize::from(deleted), "step {step}");
            // A copy built from an unshared relation with the same rows.
            let mut fresh = Relation::new(2);
            fresh.merge_store(rel.store());
            if deleted {
                fresh.copy(&[1]);
            }
            assert_eq!(copies(rel), copies(&fresh), "step {step}");
            assert_eq!(
                copy_bytes(rel),
                copy_bytes(&fresh),
                "step {step}: the in-place copy holds no spare capacity"
            );
        }
    }

    #[test]
    fn build_depths_are_naive_stages() {
        // For every positive program, every recursive member tuple's depth
        // is the first `m` with the tuple in Φ^m, non-recursive members
        // carry no depths, and the clock is the number of stages Φ^0 …
        // Φ^k. Coarser depths would stay correct but widen the deletion
        // cascade.
        use hp_structures::generators::random_digraph;
        let digraph = Vocabulary::digraph();
        let parse = |src: &str, vocab: &Vocabulary| Program::parse(src, vocab).unwrap();
        let reach_vocab = Vocabulary::from_pairs([("E", 2), ("S", 1)]);
        let e = SymbolId::from(0usize);
        let mut reach_input = Structure::new(reach_vocab.clone(), 40);
        for t in random_digraph(40, 70, 7).relation(e).iter() {
            reach_input.add_tuple(e, t).unwrap();
        }
        reach_input.add_tuple_ids(1, &[0]).unwrap();
        let left_tc = "T(x,y) :- E(x,y).\nT(x,z) :- T(x,y), E(y,z).";
        let nonlinear_tc = "T(x,y) :- E(x,y).\nT(x,z) :- T(x,y), T(y,z).";
        let even_odd =
            "Even(x,y) :- E(x,z), Odd(z,y).\nOdd(x,y) :- E(x,y).\nOdd(x,y) :- E(x,z), Even(z,y).";
        let reach_then_q = "R(x) :- S(x).\nR(y) :- R(x), E(x,y).\nQ(x) :- R(x), E(x,y).";
        let tc_under_u = "T(x,y) :- E(x,y).\nT(x,z) :- T(x,y), E(y,z).\n\
                          U(x,y) :- T(x,y).\nU(x,z) :- U(x,y), T(y,z).";
        let cases = [
            (
                parse("R(x) :- S(x).\nR(y) :- R(x), E(x,y).", &reach_vocab),
                reach_input.clone(),
            ),
            (parse(reach_then_q, &reach_vocab), reach_input),
            (parse(tc_under_u, &digraph), random_digraph(16, 24, 8)),
            (parse(left_tc, &digraph), random_digraph(24, 40, 3)),
            (gallery::transitive_closure(), random_digraph(24, 40, 4)),
            (parse(nonlinear_tc, &digraph), directed_path(20)),
            (parse(nonlinear_tc, &digraph), random_digraph(24, 40, 5)),
            (parse(even_odd, &digraph), random_digraph(16, 30, 6)),
        ];
        for (p, a) in cases {
            let db = MaterializedDb::new(&p, a.clone()).unwrap();
            let seq = p.stages(&a, usize::MAX);
            assert!(seq.converged);
            for (i, rel) in db.relations().iter().enumerate() {
                let recursive = db.plan.graph.is_recursive_pred(i);
                assert_eq!(db.depths[i].is_some(), recursive, "{p:?}: IDB {i}");
                let Some(depths) = &db.depths[i] else {
                    continue;
                };
                for t in rel.iter() {
                    let stage = seq.stages.iter().position(|s| s[i].contains(t));
                    assert_eq!(depths.get(t).map(|d| d as usize), stage, "{p:?}: {t:?}");
                }
            }
            assert_eq!(db.depth_clock, seq.stages.len() as u64);
        }
    }

    /// Every recursive member's runs partition its relation, in strictly
    /// ascending depth with no run empty, and each run is certified by its
    /// depth: one Φ application over the SCC's rows below it and every row
    /// of the other IDBs derives the whole run.
    fn assert_depths_certify(p: &Program, db: &MaterializedDb, at: &str) {
        let graph = &db.plan.graph;
        for (i, rel) in db.idb.iter().enumerate() {
            let Some(runs) = &db.depths[i] else { continue };
            let mut rows = Relation::new(rel.arity());
            for (k, (d, run)) in runs.0.iter().enumerate() {
                assert!(!run.is_empty(), "{at}: IDB {i} run {d} is empty");
                assert!(
                    k == 0 || runs.0[k - 1].0 < *d,
                    "{at}: IDB {i} depths ascend"
                );
                assert!(run.is_subset(rel.store()), "{at}: IDB {i} run {d} is live");
                assert_eq!(
                    rows.merge_store(run),
                    run.len(),
                    "{at}: IDB {i} runs overlap"
                );
            }
            assert_eq!(
                rows.len(),
                rel.len(),
                "{at}: IDB {i} runs cover the relation"
            );
            for (d, run) in &runs.0 {
                let below: Vec<Relation> = (db.idb.iter().zip(&db.depths).enumerate())
                    .map(|(q, (r, runs_q))| match runs_q {
                        Some(runs_q) if graph.scc_of(q) == graph.scc_of(i) => {
                            let mut shallower = Relation::new(r.arity());
                            for (_, s) in runs_q.0.iter().take_while(|(dq, _)| dq < d) {
                                shallower.merge_store(s);
                            }
                            shallower
                        }
                        _ => r.clone(),
                    })
                    .collect();
                let derived = p.apply_operator(db.structure(), &below);
                assert!(
                    run.is_subset(derived[i].store()),
                    "{at}: IDB {i} run {d} is not derived from shallower rows"
                );
            }
        }
    }

    #[test]
    fn depths_certify_every_row() {
        // Random insert/delete batches over small random digraphs: after
        // the build and after every batch, every run is certified by the
        // runs below it, which is the invariant the depth gate relies on.
        use hp_structures::generators::random_digraph;
        let digraph = Vocabulary::digraph();
        let programs = [
            "T(x,y) :- E(x,y).\nT(x,z) :- T(x,y), E(y,z).",
            "T(x,y) :- E(x,y).\nT(x,z) :- T(x,y), T(y,z).",
            "Even(x,y) :- E(x,z), Odd(z,y).\nOdd(x,y) :- E(x,y).\nOdd(x,y) :- E(x,z), Even(z,y).",
            "T(x,y) :- E(x,y).\nT(x,z) :- T(x,y), E(y,z).\n\
             U(x,y) :- T(x,y).\nU(x,z) :- U(x,y), T(y,z).",
        ];
        let (n, e) = (10u32, SymbolId::from(0usize));
        for (pi, src) in programs.iter().enumerate() {
            let p = Program::parse(src, &digraph).unwrap();
            for seed in 0..3u64 {
                let mut x = 0x2545_f491_4f6c_dd1du64 ^ (pi as u64) << 8 ^ seed;
                let mut next = move || {
                    x ^= x << 13;
                    x ^= x >> 7;
                    x ^= x << 17;
                    (x >> 16) as u32
                };
                let a = random_digraph(n as usize, 16, 11 * pi as u64 + seed);
                let mut db = MaterializedDb::new(&p, a).unwrap();
                assert_depths_certify(&p, &db, &format!("program {pi} seed {seed} build"));
                for step in 0..50 {
                    let (mut plus, mut minus) = delta_pair(p.edb());
                    for _ in 0..1 + next() % 3 {
                        let rel = db.structure().relation(e);
                        if !rel.is_empty() {
                            minus.push(e, &rel.tuple(next() as usize % rel.len()).to_vec());
                        }
                        plus.push_ids(0, &[next() % n, next() % n]);
                    }
                    p.evaluate_incremental(&mut db, &plus, &minus).unwrap();
                    let at = format!("program {pi} seed {seed} step {step}");
                    assert_eq!(
                        db.relations(),
                        &p.evaluate(db.structure()).relations[..],
                        "{at}"
                    );
                    assert_depths_certify(&p, &db, &at);
                }
            }
        }
    }

    /// One figure per maintained batch: `(stages, derived, fuel, depth
    /// clock, depth fingerprint)`.
    type Schedule = (usize, u64, u64, u64, u64);

    /// FNV-1a over every recursive member's tuples with their depths and
    /// its runs' row count, then the depth clock.
    fn depth_fingerprint(db: &MaterializedDb) -> u64 {
        let mut h = 0xcbf2_9ce4_8422_2325u64;
        let mut mix = |v: u64| h = (h ^ v).wrapping_mul(0x0100_0000_01b3);
        for (rel, map) in db.idb.iter().zip(&db.depths) {
            let Some(map) = map else { continue };
            mix(map.0.iter().map(|(_, run)| run.len()).sum::<usize>() as u64);
            for t in rel.iter() {
                t.iter().for_each(|e| mix(e.0 as u64));
                mix(map.get(t).unwrap_or(u64::MAX));
            }
        }
        mix(db.depth_clock);
        h
    }

    #[test]
    fn maintenance_schedule_is_pinned() {
        // Fixed streams of mixed insert+delete batches over four programs:
        // after each batch the relations equal a full evaluation, and the
        // report's rounds, changed tuples and fuel, the depth clock and the
        // depths themselves equal the figures recorded before the insertion
        // phase became the evaluator's round. A shifted depth or a deleted-
        // then-rederived tuple passed downstream as a change moves them.
        let reach_vocab = Vocabulary::from_pairs([("E", 2), ("S", 1)]);
        let digraph = Vocabulary::digraph();
        let reach = "R(x) :- S(x).\nR(y) :- R(x), E(x,y).";
        let cases: [(&str, &Vocabulary, &[Schedule]); 4] = [
            (
                reach,
                &reach_vocab,
                &[
                    (0, 0, 0, 3, 15466254919805782511),
                    (3, 3, 4, 5, 16072240613883579100),
                    (8, 3, 4, 10, 17578602663001410172),
                    (4, 0, 1, 12, 17948891545525048138),
                    (4, 1, 2, 14, 3396701693918532761),
                    (5, 3, 4, 18, 2848207980415164042),
                    (13, 3, 4, 26, 1456556379538518116),
                    (5, 2, 3, 28, 6965570492157194850),
                    (7, 6, 7, 33, 3667426253118168267),
                    (2, 0, 1, 34, 3667427352629796478),
                    (9, 3, 4, 39, 17630285332930283312),
                    (4, 1, 2, 41, 14332805699562997934),
                    (8, 5, 6, 46, 8118892623785363809),
                    (6, 1, 2, 49, 2376906326794652147),
                    (4, 1, 2, 51, 8449643810895659329),
                    (4, 0, 1, 53, 12413963408429489458),
                    (8, 0, 1, 57, 5479636732351414767),
                ],
            ),
            (
                "T(x,y) :- E(x,y).\nT(x,z) :- T(x,y), T(y,z).",
                &digraph,
                &[
                    (0, 0, 0, 5, 89506137013520142),
                    (10, 35, 36, 10, 12425211058065628720),
                    (7, 18, 19, 14, 10235202703533986345),
                    (13, 48, 49, 21, 2672640753904452656),
                    (10, 25, 26, 27, 6196393507271031169),
                    (7, 33, 34, 32, 18177363387429675951),
                    (11, 79, 80, 39, 16945782453105646958),
                    (11, 46, 47, 45, 11982345042549556192),
                    (11, 27, 28, 51, 7502339720225699906),
                    (8, 13, 14, 56, 9693753668955563221),
                    (7, 3, 4, 59, 12264997111324653448),
                    (11, 29, 30, 64, 1118493181430734158),
                    (5, 2, 3, 67, 15124336178241705963),
                    (4, 6, 7, 70, 9785165833250514693),
                    (12, 37, 38, 76, 4719035383262166918),
                    (9, 8, 9, 82, 11562836007675439167),
                    (10, 53, 54, 88, 16460720663223141200),
                ],
            ),
            (
                "T(x,y) :- E(x,y).\nT(x,z) :- T(x,y), S(y,z).\nS(x,y) :- T(x,y).",
                &digraph,
                &[
                    (0, 0, 0, 8, 7669396869153634172),
                    (13, 24, 25, 14, 1955690010576197480),
                    (18, 88, 89, 23, 3932506905423407669),
                    (15, 28, 29, 32, 13282447895657986266),
                    (18, 86, 87, 41, 10199955410765531764),
                    (12, 98, 99, 48, 6902991321977754246),
                    (15, 24, 25, 54, 176064053278460976),
                    (12, 4, 5, 61, 8038842604794515607),
                    (19, 74, 75, 69, 11735989405948223450),
                    (10, 42, 43, 76, 165598219458462994),
                    (14, 22, 23, 83, 15380592147993093188),
                    (12, 42, 43, 90, 15553044169533741854),
                    (12, 36, 37, 94, 17043501085709668316),
                    (21, 76, 77, 103, 14722324621298251861),
                    (16, 94, 95, 112, 3260623028427502907),
                    (19, 94, 95, 121, 14976457520617908709),
                    (13, 156, 157, 129, 10256868701647908071),
                ],
            ),
            // R and Q derive in the same stages: the build's clock is
            // its Φ stage count plus one, 2, not R's rounds plus Q's.
            (
                "R(x) :- S(x).\nR(y) :- R(x), E(x,y).\nQ(x) :- R(x), E(x,y).",
                &reach_vocab,
                &[
                    (0, 0, 0, 2, 12478962707327563559),
                    (4, 0, 2, 4, 12478960508304307137),
                    (15, 19, 21, 16, 124516261646697655),
                    (7, 3, 5, 20, 3824235723748487497),
                    (15, 19, 21, 25, 5676578083241922835),
                    (4, 0, 2, 27, 5676580282265179257),
                    (14, 25, 27, 39, 17096501621297140848),
                    (22, 4, 6, 53, 5287464515674420353),
                    (4, 0, 2, 55, 5287462316651163931),
                    (8, 4, 6, 59, 9769374211725273969),
                    (21, 2, 4, 69, 1338891482011985969),
                    (10, 4, 6, 74, 6499024583044601118),
                    (6, 4, 6, 78, 7348052083749133842),
                    (2, 0, 2, 78, 7348052083749133842),
                    (7, 6, 8, 81, 86454574975151183),
                    (7, 2, 4, 85, 11003705828909517291),
                    (6, 5, 7, 89, 2810718549141115736),
                ],
            ),
        ];
        let n = 14u32;
        for (ci, (src, vocab, pinned)) in cases.into_iter().enumerate() {
            let p = Program::parse(src, vocab).unwrap();
            let mut x = 0x9e37_79b9_7f4a_7c15u64 ^ ci as u64;
            let mut next = move || {
                x ^= x << 13;
                x ^= x >> 7;
                x ^= x << 17;
                (x >> 16) as u32
            };
            let mut a = Structure::new(vocab.clone(), n as usize);
            for _ in 0..24 {
                let _ = a.add_tuple_ids(0, &[next() % n, next() % n]);
            }
            if vocab.len() == 2 {
                let _ = a.add_tuple_ids(1, &[0]);
            }
            let mut db = MaterializedDb::new(&p, a).unwrap();
            let mut got: Vec<Schedule> = vec![(0, 0, 0, db.depth_clock, depth_fingerprint(&db))];
            for step in 0..16 {
                let (mut plus, mut minus) = delta_pair(p.edb());
                for _ in 0..1 + next() % 4 {
                    let e = db.structure().relation(SymbolId::from(0usize));
                    let victim = e.tuple(next() as usize % e.len()).to_vec();
                    minus.push(SymbolId::from(0usize), &victim);
                    plus.push_ids(0, &[next() % n, next() % n]);
                }
                // Now and then re-insert a deleted edge in the same batch
                // (insertions win), or move the reach source.
                if step % 3 == 0 {
                    let e = db.structure().relation(SymbolId::from(0usize));
                    let t = e.tuple(next() as usize % e.len()).to_vec();
                    minus.push(SymbolId::from(0usize), &t);
                    plus.push(SymbolId::from(0usize), &t);
                }
                if vocab.len() == 2 && step % 4 == 1 {
                    minus.push_ids(1, &[0]);
                    plus.push_ids(1, &[next() % n]);
                }
                if vocab.len() == 2 && step % 4 == 3 {
                    plus.push_ids(1, &[0]);
                }
                let r = p.evaluate_incremental(&mut db, &plus, &minus).unwrap();
                let full = p.evaluate(db.structure());
                assert_eq!(db.relations(), &full.relations[..], "case {ci} step {step}");
                let prof = &r.profile[0];
                got.push((
                    r.stages,
                    prof.derived,
                    prof.fuel,
                    db.depth_clock,
                    depth_fingerprint(&db),
                ));
            }
            assert_eq!(&got[..], pinned, "case {ci}");
        }
    }

    /// Recursive `T` under non-recursive `Q`, on a path with one back
    /// edge.
    fn two_scc_build() -> (Program, Structure) {
        let p = Program::parse(
            "T(x,y) :- E(x,y).\nT(x,z) :- T(x,y), E(y,z).\nQ(x) :- T(x,x).",
            &Vocabulary::digraph(),
        )
        .unwrap();
        let mut a = directed_path(6);
        a.add_tuple_ids(0, &[5, 3]).unwrap();
        (p, a)
    }

    #[test]
    fn a_stopped_build_resumes_to_the_full_build() {
        // A stopped build is a stopped evaluation: its checkpoint resumes
        // through `resume_budgeted` to the unbudgeted build's relations
        // and stages, the split charged as one run.
        let (p, a) = two_scc_build();
        let cfg = EvalConfig::new();
        let build = |budget: &Budget| MaterializedDb::new_budgeted(&p, a.clone(), &cfg, budget);
        let (full, report) = build(&Budget::unlimited()).unwrap().unwrap();
        let fuel = report.profile[0].fuel;
        for f in [0, 1, fuel / 2, fuel] {
            let Err(stop) = build(&Budget::fuel(f)).unwrap() else {
                panic!("{f} fuel cannot finish the build");
            };
            assert!(stop.spent >= f, "fuel {f}");
            let spent = stop.partial.fuel_spent();
            let rest = p
                .resume_budgeted(&a, &cfg, stop.partial, &Budget::unlimited())
                .unwrap()
                .unwrap();
            assert_eq!(&rest.relations[..], full.relations(), "fuel {f}");
            assert_eq!(rest.stages, report.stages, "fuel {f}");
            assert_eq!(spent + rest.profile[0].fuel, fuel, "fuel {f}");
        }
        assert!(build(&Budget::fuel(fuel + 1)).unwrap().is_ok());
    }

    #[test]
    fn a_stopped_build_is_the_stopped_evaluation() {
        // At each allowance the build stops in the round evaluation stops
        // in, with the same partial relations, pending delta and fuel.
        let (p, a) = two_scc_build();
        let cfg = EvalConfig::new();
        let t = p.evaluate(&a).relations[0].len() as u64;
        for fuel in [1, t, t + 1] {
            let budget = Budget::fuel(fuel);
            let Err(built) = MaterializedDb::new_budgeted(&p, a.clone(), &cfg, &budget).unwrap()
            else {
                panic!("{fuel} fuel cannot finish the build");
            };
            let Err(evaluated) = p.evaluate_budgeted(&a, &cfg, &budget) else {
                panic!("{fuel} fuel cannot finish the evaluation");
            };
            let (b, e) = (&built.partial, &evaluated.partial);
            assert_eq!(built.spent, evaluated.spent, "fuel {fuel}");
            assert_eq!(b.partial.stages, e.partial.stages, "fuel {fuel}");
            assert_eq!(b.partial.relations, e.partial.relations, "fuel {fuel}");
            assert_eq!(b.pending_delta(), e.pending_delta(), "fuel {fuel}");
            assert_eq!(b.fuel_spent(), e.fuel_spent(), "fuel {fuel}");
        }
    }

    #[test]
    fn a_deadline_stops_a_build_in_flight() {
        // One recursive SCC, hundreds of rounds: the deadline is polled
        // before every delta round, so it stops the build in flight, and
        // the stopped evaluation resumes to the build's relations.
        let p = gallery::transitive_closure();
        let a = directed_path(300);
        let cfg = EvalConfig::new();
        let budget = Budget::wall_clock(std::time::Duration::from_millis(1));
        let Err(stop) = MaterializedDb::new_budgeted(&p, a.clone(), &cfg, &budget).unwrap() else {
            panic!("the build outlasts its deadline");
        };
        assert_eq!(stop.resource, hp_guard::Resource::Time);
        let rest = p
            .resume_budgeted(&a, &cfg, stop.partial, &Budget::unlimited())
            .unwrap()
            .unwrap();
        let full = MaterializedDb::new(&p, a).unwrap();
        assert_eq!(&rest.relations[..], full.relations());
    }

    #[test]
    fn a_deadline_stops_a_catch_up_in_flight() {
        // One recursive SCC: the gallery's right-linear closure loses
        // T(x, 299) one x per deletion round once the path's last edge
        // goes, hundreds of rounds. The deadline is polled before every
        // DRed round, so it stops the catch-up in flight, and the stop
        // takes the half-maintained database with it.
        let p = gallery::transitive_closure();
        let db = MaterializedDb::new(&p, directed_path(300)).unwrap();
        let (plus, mut minus) = delta_pair(p.edb());
        minus.push_ids(0, &[298, 299]);
        let cfg = EvalConfig::new();
        let budget = Budget::wall_clock(std::time::Duration::from_millis(1));
        let Err(stop) = p
            .evaluate_incremental_budgeted(db, &plus, &minus, &cfg, &budget)
            .unwrap()
        else {
            panic!("the catch-up outlasts its deadline");
        };
        assert_eq!(stop.resource, hp_guard::Resource::Time);
    }

    #[test]
    fn support_witnesses_exist_before_the_batch() {
        // Even/Odd over E = {00, 01, 10}: every pair is in both. The batch
        // inserts 11 and deletes 10, after which 10 is in neither. Read
        // post-batch, the support check would keep Even(1,0) through the
        // inserted E(1,1) and a shallower Odd(1,0), whose later kill then
        // reaches Even(1,0) through no `Old` join: an under-deletion.
        let p = Program::parse(
            "Even(x,y) :- E(x,z), Odd(z,y).\nOdd(x,y) :- E(x,y).\nOdd(x,y) :- E(x,z), Even(z,y).",
            &Vocabulary::digraph(),
        )
        .unwrap();
        let mut a = Structure::new(Vocabulary::digraph(), 2);
        for (u, v) in [(0, 0), (0, 1), (1, 0)] {
            a.add_tuple_ids(0, &[u, v]).unwrap();
        }
        let mut db = MaterializedDb::new(&p, a).unwrap();
        let (mut plus, mut minus) = delta_pair(p.edb());
        plus.push_ids(0, &[1, 1]);
        minus.push_ids(0, &[1, 0]);
        p.evaluate_incremental(&mut db, &plus, &minus).unwrap();
        assert_eq!(db.relations(), &p.evaluate(db.structure()).relations[..]);
        for rel in db.relations() {
            assert!(!rel.contains(&[Elem(1), Elem(0)]));
        }
    }

    #[test]
    fn edb_delta_between_diffs_only_unshared_relations() {
        let p = gallery::transitive_closure();
        let a = directed_path(5);
        let mut b = a.clone();
        assert!(b.shares_relation(&a, SymbolId::from(0usize)));
        let (plus, minus) = EdbDelta::between(&a, &b);
        assert!(plus.is_empty() && minus.is_empty());
        let _ = b.add_tuple_ids(0, &[4, 0]);
        assert!(b.remove_tuple(SymbolId::from(0usize), &[Elem(1), Elem(2)]));
        let (plus, minus) = EdbDelta::between(&a, &b);
        assert_eq!((plus.len(), minus.len()), (1, 1));
        let mut db = MaterializedDb::new(&p, a).unwrap();
        p.evaluate_incremental(&mut db, &plus, &minus).unwrap();
        assert_eq!(db.relations(), &p.evaluate(&b).relations[..]);
        assert_eq!(db.adopt_relations(&b), 1);
        assert!(db.structure().shares_relation(&b, SymbolId::from(0usize)));
    }

    #[test]
    fn out_of_range_insert_is_rejected_before_mutation() {
        let p = gallery::transitive_closure();
        let a = directed_path(3);
        let mut db = MaterializedDb::new(&p, a.clone()).unwrap();
        let (mut plus, minus) = delta_pair(p.edb());
        plus.push_ids(0, &[0, 99]);
        let err = p.evaluate_incremental(&mut db, &plus, &minus).unwrap_err();
        assert!(matches!(err, EvalError::Structure(_)));
        // Untouched: a follow-up no-op batch still matches full eval.
        let (plus2, minus2) = delta_pair(p.edb());
        p.evaluate_incremental(&mut db, &plus2, &minus2).unwrap();
        assert_eq!(db.relations(), &p.evaluate(&a).relations[..]);
    }
}
