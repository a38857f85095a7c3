//! Bottom-up evaluation: naive stages and indexed, optionally sharded,
//! semi-naive fixpoints.
//!
//! The engine has two data paths:
//!
//! - **naive stages** ([`Program::stages`], [`Program::apply_operator`]) —
//!   scan-based recomputation of every stage, kept oracle-simple in
//!   [`crate::reference`]; returns a [`StageSequence`] that says whether
//!   the least fixpoint was actually verified within the cap;
//! - **semi-naive fixpoints** ([`Program::evaluate`] /
//!   [`Program::evaluate_with`]) — delta rounds driven through precomputed
//!   join plans ([`crate::plan`]) that probe the sorted stores, permuted
//!   copies and membership bitmaps the relations own. With
//!   [`EvalConfig::threads`] > 1 each round's
//!   `(rule × delta atom × delta shard)` work items run on the engine's
//!   [worker pool](crate::pool); rounds are barriers and every derived
//!   tuple lands in an ordered set, so the result — relations *and* stage
//!   counts — is bit-identical to the sequential evaluator for every
//!   thread count.
//!
//! The semi-naive round loop, [`semi_naive`], is the engine's only one:
//! evaluation runs it once per stratum, and incremental maintenance
//! ([`crate::incremental`]) runs it once per SCC for its insertion phase.
//! A [`MaterializedDb`](crate::MaterializedDb) is built by evaluation
//! itself, which keeps the recursive members' stage deltas as depth runs.

use std::fmt;

use hp_guard::{Budget, Budgeted, Gauge, GaugeState, Stop};
use hp_structures::{Elem, Relation, Row, Structure, StructureError, TupleStore};

use crate::ast::{PredRef, Program};
use crate::incremental::DepthRuns;
use crate::plan::{JoinStep, ProbeScratch, ProgramPlan, ResolvedRow, RulePlan};

/// User-reachable misuse of the evaluation APIs, reported as a typed error
/// instead of a panic.
///
/// The resumable entry points ([`Program::resume_budgeted`], the
/// incremental-maintenance APIs on [`crate::MaterializedDb`]) accept state
/// produced by earlier calls; handing them state from a *different* program
/// or database is a caller bug that the library can detect cheaply, so it
/// refuses with a descriptive error rather than corrupting the computation
/// or asserting.
#[derive(Clone, Debug, PartialEq, Eq)]
#[non_exhaustive]
pub enum EvalError {
    /// A checkpoint was handed to a program it did not come from (IDB
    /// count, names, or arities disagree).
    CheckpointMismatch {
        /// What disagreed between the checkpoint and the program.
        detail: String,
    },
    /// A materialized database was handed to a program it was not built
    /// from, or its vocabulary disagrees with the update batch.
    ProgramMismatch {
        /// What disagreed between the database and the program.
        detail: String,
    },
    /// An update batch contained invalid tuples (arity or element range).
    Structure(StructureError),
    /// The requested operation does not support programs with negated
    /// body literals (today: incremental view maintenance, whose DRed
    /// machinery is sound only for monotone programs).
    NegationUnsupported {
        /// The operation that was refused.
        operation: String,
    },
}

impl fmt::Display for EvalError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            EvalError::CheckpointMismatch { detail } => {
                write!(f, "checkpoint does not match this program: {detail}")
            }
            EvalError::ProgramMismatch { detail } => {
                write!(f, "database does not match this program: {detail}")
            }
            EvalError::Structure(e) => write!(f, "invalid update batch: {e}"),
            EvalError::NegationUnsupported { operation } => {
                write!(
                    f,
                    "{operation} does not support stratified negation; \
                     re-evaluate the program from scratch instead"
                )
            }
        }
    }
}

impl std::error::Error for EvalError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            EvalError::Structure(e) => Some(e),
            _ => None,
        }
    }
}

impl From<StructureError> for EvalError {
    fn from(e: StructureError) -> Self {
        EvalError::Structure(e)
    }
}

/// An IDB relation instance: a columnar, sorted set of tuples.
///
/// Since the arena-backed store landed this is [`hp_structures::Relation`]
/// itself — the evaluator's accumulated IDBs, deltas, and checkpoints share
/// one physical representation with EDB relations, and the per-round
/// delta-merge is a sorted-run merge instead of per-tuple set inserts.
pub type IdbRelation = Relation;

/// Configuration for [`Program::evaluate_with`].
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct EvalConfig {
    /// Worker threads for the sharded semi-naive rounds. `1` (the default)
    /// evaluates on the calling thread; `0` uses the machine's available
    /// parallelism. Rounds seeded by few tuples skip the pool (spawn cost
    /// would dominate). Results are **bit-identical** for every setting.
    pub threads: usize,
    /// Rounds seeded by fewer tuples than this run on the calling thread
    /// even when `threads > 1` (worker spawn would cost more than the
    /// round's joins). Set to `0` to force every round onto the pool —
    /// results are identical either way, only wall-clock changes.
    pub parallel_min_seed: usize,
}

impl Default for EvalConfig {
    fn default() -> EvalConfig {
        EvalConfig {
            threads: 1,
            parallel_min_seed: PARALLEL_MIN_SEED,
        }
    }
}

impl EvalConfig {
    /// The default configuration: sequential.
    pub fn new() -> EvalConfig {
        EvalConfig::default()
    }

    /// Set the worker-thread count (`0` = available parallelism).
    pub fn with_threads(mut self, threads: usize) -> EvalConfig {
        self.threads = threads;
        self
    }

    /// Set the minimum seed-tuple count below which a round stays on the
    /// calling thread (`0` forces every round onto the pool).
    pub fn with_parallel_min_seed(mut self, parallel_min_seed: usize) -> EvalConfig {
        self.parallel_min_seed = parallel_min_seed;
        self
    }
}

/// Measured cost of one stratum of a semi-naive evaluation.
///
/// Recorded by the budgeted and unbudgeted fixpoint entry points, one
/// entry per stratum *entered* (in ascending stratum order). Positive
/// programs have a single entry for stratum 0. The oracle-simple
/// reference evaluator does not profile; its results carry an empty
/// profile. Incremental maintenance (positive programs only) reports one
/// entry for stratum 0 covering every SCC: the rounds of all four DRed
/// steps, the IDB tuples they added or removed, the fuel charged
/// (`1 + changed` per SCC), and the peak pending rows of the deletion and
/// insertion rounds. A build reports its evaluation's entry.
#[derive(Clone, Debug, PartialEq)]
pub struct StratumProfile {
    /// The stratum index (ascending; 0 for positive programs).
    pub stratum: usize,
    /// Semi-naive delta rounds spent inside this stratum.
    pub stages: usize,
    /// Tuples derived by this stratum's rules (sum over rounds of the
    /// round's new-delta sizes — the same count the fuel charge uses).
    pub derived: u64,
    /// Fuel charged against the gauge while this stratum ran
    /// (`1 + derived` per round, matching the evaluator's tick schedule).
    pub fuel: u64,
    /// Wall-clock time spent inside this stratum. On a resumed run the
    /// interrupted stratum's entry covers only the post-resume work.
    pub elapsed: std::time::Duration,
    /// The most pending rows any one work item sealed in this stratum:
    /// its derivations, duplicates included, before the seal deduplicated
    /// them. Each worker holds one such batch at a time, so a round's
    /// transient memory follows it.
    pub peak_pending: usize,
}

/// The result of evaluating a program on a structure: the least fixpoint,
/// or, as the partial of an [`EvalCheckpoint`], the stage a budget stopped
/// at.
#[derive(Clone, Debug)]
pub struct FixpointResult {
    pub(crate) idb_names: Vec<String>,
    pub(crate) goal: Option<usize>,
    /// Final relations, one per IDB.
    pub relations: Vec<IdbRelation>,
    /// Number of iterations of the simultaneous operator Φ performed (the
    /// `m₀` of §2.3 for a fixpoint; 0 for the empty fixpoint).
    pub stages: usize,
    /// Human-readable notes about degraded-mode events during evaluation —
    /// today, worker-panic recoveries in the sharded pool (the round was
    /// recomputed on the calling thread and evaluation continued
    /// single-threaded). Empty on a clean run.
    pub diagnostics: Vec<String>,
    /// Per-stratum measured cost (rounds, derived tuples, fuel,
    /// wall-clock), one entry per stratum entered. Empty for the
    /// reference evaluator, which does not profile; see
    /// [`StratumProfile`] for the incremental-maintenance entry.
    pub profile: Vec<StratumProfile>,
}

impl FixpointResult {
    /// The relation computed for a named IDB.
    pub fn idb(&self, name: &str) -> Option<&IdbRelation> {
        self.idb_names
            .iter()
            .position(|n| n == name)
            .map(|i| &self.relations[i])
    }

    /// The relation of the program's designated goal IDB (`# goal:`
    /// pragma, or the IDB named `Goal` by convention), when one exists.
    pub fn goal(&self) -> Option<&IdbRelation> {
        self.goal.map(|g| &self.relations[g])
    }
}

/// The naive stage sequence `Φ⁰ ⊆ Φ¹ ⊆ ⋯` of [`Program::stages`], together
/// with whether the least fixpoint was verified.
///
/// The seed API returned a bare `Vec` that silently truncated at the cap —
/// a capped prefix was indistinguishable from a converged sequence, so a
/// wrong `m₀` could feed boundedness claims (Theorem 7.5 reasons about the
/// true least fixpoint). `converged` makes the distinction explicit; audit
/// any use of [`StageSequence::last`] against it.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct StageSequence {
    /// Element `m` is `Φ^m` (element 0 is all-empty), up to and including
    /// the last computed stage.
    pub stages: Vec<Vec<IdbRelation>>,
    /// True when `Φ^{m+1} = Φ^m` was **observed** for the final element —
    /// i.e. the sequence provably reached the least fixpoint. False when
    /// the cap stopped iteration first (the final element may or may not be
    /// the fixpoint; it was never checked).
    pub converged: bool,
}

impl StageSequence {
    /// The last computed stage — the least fixpoint iff
    /// [`StageSequence::converged`].
    pub fn last(&self) -> &[IdbRelation] {
        self.stages.last().expect("stage 0 always present")
    }

    /// Number of operator applications performed (the `m₀` of §2.3 when
    /// converged).
    pub fn applications(&self) -> usize {
        self.stages.len() - 1
    }
}

/// Default for [`EvalConfig::parallel_min_seed`]: below ~2k seed tuples a
/// round's joins are cheaper than spawning workers. The choice is a
/// function of deterministic state (the delta sizes), and both paths
/// compute identical ordered sets, so adaptivity cannot perturb results.
const PARALLEL_MIN_SEED: usize = 2048;

/// The committed state a round reads: the structure and the IDB
/// relations. It hides nothing and adds nothing, so its join compiles to
/// the plain probe-and-scan walk.
pub(crate) struct JoinCtx<'a> {
    pub a: &'a Structure,
    pub idb: &'a [IdbRelation],
}

/// What an atom over a predicate reads in [`join`]: the predicate's
/// committed relation, less the rows the reader hides, then extra rows
/// scanned whole. [`JoinCtx`] reads the committed state as it is (the
/// defaults); DRed's deletion and rederivation phases read pre-batch and
/// mid-deletion views of it. Each reader gets its own compiled join.
pub(crate) trait Reads: Sync {
    /// The committed relation of `pred`, every delta merged so far
    /// included; its store, a permuted copy or its membership bitmap
    /// answers each probe.
    fn relation(&self, pred: PredRef) -> &Relation;
    /// Whether an atom over `pred` skips committed row `t`.
    #[inline]
    fn hides(&self, _pred: PredRef, _t: ResolvedRow<'_>) -> bool {
        false
    }
    /// Rows an atom over `pred` reads after the committed ones, scanned
    /// whole.
    #[inline]
    fn extra(&self, _pred: PredRef) -> Option<&TupleStore> {
        None
    }
}

impl Reads for JoinCtx<'_> {
    #[inline]
    fn relation(&self, pred: PredRef) -> &Relation {
        match pred {
            PredRef::Edb(sym) => self.a.relation(sym),
            PredRef::Idb(p) => &self.idb[p],
        }
    }
}

/// A resumable snapshot of a budgeted semi-naive evaluation, returned as
/// the `partial` of an exhausted [`Program::evaluate_budgeted`] /
/// [`Program::resume_budgeted`] run.
///
/// The snapshot is taken at a **round boundary**: [`EvalCheckpoint::partial`]
/// holds the relations after `partial.stages` delta rounds, and the
/// pending delta plus the fuel position are kept privately so
/// [`Program::resume_budgeted`] can continue the very same computation.
/// Resuming with extra fuel `f2` after exhausting `f1` lands at exactly
/// the state of a single `f1 + f2` run (see [`hp_guard::Budget::resume`]).
#[derive(Clone, Debug)]
pub struct EvalCheckpoint {
    /// The best-effort partial result: for a positive program, the
    /// relations of stage Φ^{stages}.
    pub partial: FixpointResult,
    delta: Vec<IdbRelation>,
    /// The stratum whose delta rounds were interrupted (always 0 for
    /// positive programs).
    stratum: usize,
    fuel: GaugeState,
}

impl EvalCheckpoint {
    /// Cumulative fuel charged when the snapshot was taken (one unit per
    /// round plus one per tuple newly derived in it, across all runs of a
    /// resume chain).
    pub fn fuel_spent(&self) -> u64 {
        self.fuel.spent
    }

    /// The fuel position at the stop: cumulative spend and the limit then
    /// in force.
    pub fn fuel_state(&self) -> GaugeState {
        self.fuel
    }

    /// The delta the last completed round derived, one relation per IDB:
    /// the tuples a resumed run absorbs first.
    pub fn pending_delta(&self) -> &[IdbRelation] {
        &self.delta
    }
}

impl Program {
    /// Fresh all-empty IDB relations with the program's arities (stage Φ⁰).
    pub(crate) fn empty_idbs(&self) -> Vec<IdbRelation> {
        self.idbs()
            .iter()
            .map(|&(_, arity)| Relation::new(arity))
            .collect()
    }

    /// One application of the simultaneous monotone operator Φ (§2.3).
    pub fn apply_operator(&self, a: &Structure, idb: &[IdbRelation]) -> Vec<IdbRelation> {
        self.apply_operator_with(&ProgramPlan::new(self), a, idb)
    }

    /// The naive stage sequence `Φ⁰ ⊆ Φ¹ ⊆ ⋯`, capped at `cap`
    /// applications. The result says whether the least fixpoint was reached
    /// within the cap — a capped prefix no longer masquerades as `Φ^{m₀}`.
    pub fn stages(&self, a: &Structure, cap: usize) -> StageSequence {
        let plan = ProgramPlan::new(self);
        let mut stages = vec![self.empty_idbs()];
        let mut converged = false;
        for _ in 0..cap {
            let cur = stages.last().expect("non-empty");
            let next = self.apply_operator_with(&plan, a, cur);
            if &next == cur {
                converged = true;
                break;
            }
            stages.push(next);
        }
        StageSequence { stages, converged }
    }

    /// Semi-naive evaluation to the least fixpoint with the default
    /// configuration (sequential). Also records the stage count of the
    /// **naive** operator (which is what boundedness is about) by
    /// counting delta rounds — for Datalog the two coincide: the semi-naive
    /// rounds compute exactly the naive stages.
    pub fn evaluate(&self, a: &Structure) -> FixpointResult {
        self.evaluate_with(a, &EvalConfig::default())
    }

    /// Semi-naive evaluation through the indexed join core, with optional
    /// sharded parallel rounds. See [`EvalConfig`]; results are
    /// bit-identical across thread counts.
    pub fn evaluate_with(&self, a: &Structure, cfg: &EvalConfig) -> FixpointResult {
        self.evaluate_budgeted(a, cfg, &Budget::unlimited())
            .unwrap_or_else(|_| unreachable!("an unlimited budget cannot exhaust"))
    }

    /// Budgeted semi-naive evaluation: like [`Program::evaluate_with`] but
    /// charged against `budget` — one fuel unit per round plus one per
    /// tuple newly derived in it, checked at round boundaries (so fuel
    /// stops are deterministic and bit-identical across thread counts; the
    /// wall clock and interrupt token are also polled there). On
    /// exhaustion the [`EvalCheckpoint`] partial holds the relations of
    /// the last completed round and can be handed to
    /// [`Program::resume_budgeted`].
    // The large Err variants below are the point of the budgeted API:
    // exhaustion carries a full checkpoint so callers can resume.
    #[allow(clippy::result_large_err)]
    pub fn evaluate_budgeted(
        &self,
        a: &Structure,
        cfg: &EvalConfig,
        budget: &Budget,
    ) -> Budgeted<FixpointResult, EvalCheckpoint> {
        self.fixpoint(&ProgramPlan::new(self), a, cfg, budget.gauge(), None, None)
    }

    /// Continue an exhausted [`Program::evaluate_budgeted`] run from its
    /// checkpoint with a fresh allowance. The checkpoint must come from
    /// the same program and structure; a checkpoint whose IDB shape
    /// (count, names, or arities) disagrees with this program, or that
    /// holds an element outside `a`'s universe, is rejected with
    /// [`EvalError::CheckpointMismatch`] instead of corrupting the
    /// resumed run. Fuel accounting is cumulative (`budget`'s fuel is
    /// added on top of the prior limit), so a run split as `f1` then `f2`
    /// stops at exactly the same rounds — and reaches the same fixpoint —
    /// as a single `f1 + f2` run.
    #[allow(clippy::result_large_err)]
    pub fn resume_budgeted(
        &self,
        a: &Structure,
        cfg: &EvalConfig,
        checkpoint: EvalCheckpoint,
        budget: &Budget,
    ) -> Result<Budgeted<FixpointResult, EvalCheckpoint>, EvalError> {
        self.check_checkpoint(&checkpoint, a.universe_size())?;
        let gauge = budget.resume(checkpoint.fuel);
        let plan = ProgramPlan::new(self);
        Ok(self.fixpoint(&plan, a, cfg, gauge, Some(checkpoint), None))
    }

    /// Validate that a checkpoint's IDB shape matches this program and its
    /// elements lie in a universe of `universe` elements.
    fn check_checkpoint(&self, cp: &EvalCheckpoint, universe: usize) -> Result<(), EvalError> {
        let idbs = self.idbs();
        if cp.partial.relations.len() != idbs.len() {
            return Err(EvalError::CheckpointMismatch {
                detail: format!(
                    "checkpoint has {} IDB relations, program has {}",
                    cp.partial.relations.len(),
                    idbs.len()
                ),
            });
        }
        for (i, (name, arity)) in idbs.iter().enumerate() {
            if cp.partial.idb_names[i] != *name {
                return Err(EvalError::CheckpointMismatch {
                    detail: format!(
                        "IDB {i} is named {:?} in the checkpoint but {name:?} in the program",
                        cp.partial.idb_names[i]
                    ),
                });
            }
            if cp.partial.relations[i].arity() != *arity {
                return Err(EvalError::CheckpointMismatch {
                    detail: format!(
                        "IDB {name:?} has arity {} in the checkpoint but {arity} in the program",
                        cp.partial.relations[i].arity()
                    ),
                });
            }
        }
        if cp.stratum >= self.num_strata() {
            return Err(EvalError::CheckpointMismatch {
                detail: format!(
                    "checkpoint stopped in stratum {}, but the program has {} strata",
                    cp.stratum,
                    self.num_strata()
                ),
            });
        }
        // A checkpoint is outside input: an element beyond the universe
        // would leak into the result.
        if let Some(e) = cp
            .partial
            .relations
            .iter()
            .chain(&cp.delta)
            .flat_map(|r| r.iter())
            .flat_map(|t| t.iter())
            .find(|e| e.index() >= universe)
        {
            return Err(EvalError::CheckpointMismatch {
                detail: format!(
                    "checkpoint holds element {} but the structure has {universe} elements",
                    e.index()
                ),
            });
        }
        Ok(())
    }

    /// The engine behind the budgeted and unbudgeted entry points and
    /// [`MaterializedDb`](crate::MaterializedDb)'s build: [`semi_naive`]
    /// once per stratum of `plan`, in ascending order, charged against
    /// `gauge`, optionally continuing from a checkpoint taken at a round
    /// boundary.
    ///
    /// Round 0 of a stratum runs its exit rules (no positive atom over an
    /// IDB of the same stratum) against the IDBs accumulated so far; the
    /// stratum's own predicates are still empty, so a rule with a positive
    /// atom over one of them first runs in the delta rounds. A negated
    /// literal only ever reads a strictly lower stratum, which is sealed
    /// (its delta has drained) by the time the reading stratum starts, so
    /// negation-as-complement is sound. Positive programs collapse to the
    /// single stratum 0.
    ///
    /// A build passes the recursive members' `depths`: each merged delta
    /// of a member becomes the run of its stage, the first `m` with its
    /// tuples in Φ^m, and a completed run keeps the copies its probes built
    /// for maintenance to probe. Any other result holds rows only.
    #[allow(clippy::result_large_err)]
    pub(crate) fn fixpoint(
        &self,
        plan: &ProgramPlan,
        a: &Structure,
        cfg: &EvalConfig,
        mut gauge: Gauge,
        resume: Option<EvalCheckpoint>,
        mut depths: Option<&mut [Option<DepthRuns>]>,
    ) -> Budgeted<FixpointResult, EvalCheckpoint> {
        // The run's state is its result: relations, stages, notes and
        // profile, plus the pending delta. Completed-strata costs survive
        // an interruption; the resumed stratum's entry covers only
        // post-resume work.
        let (mut run, mut delta, start_stratum, mut mid_stratum) = match resume {
            Some(cp) => {
                // Shape validation happened in `check_checkpoint` before the
                // public entry points reached this engine.
                debug_assert_eq!(cp.partial.relations.len(), self.idbs().len());
                (cp.partial, cp.delta, cp.stratum, true)
            }
            None => {
                let run = FixpointResult {
                    idb_names: self.idbs().iter().map(|(n, _)| n.clone()).collect(),
                    goal: self.goal_index(),
                    relations: self.empty_idbs(),
                    stages: 0,
                    diagnostics: Vec::new(),
                    profile: Vec::new(),
                };
                (run, self.empty_idbs(), 0, false)
            }
        };
        let mut workers = Workers::new(cfg, std::mem::take(&mut run.diagnostics));
        let edb_tuples: usize = a.relations().map(|(_, r)| r.len()).sum();
        for s in start_stratum..self.num_strata() {
            let stratum_start = std::time::Instant::now();
            let (stages_entry, fuel_entry) = (run.stages, gauge.spent());
            let members: Vec<bool> = self.strata().iter().map(|&t| t == s).collect();
            let exit = |rp: &RulePlan| {
                rp.idb_atoms.iter().all(|&bi| match rp.atoms[bi].pred {
                    PredRef::Idb(q) => !members[q],
                    PredRef::Edb(_) => true,
                })
            };
            // A resumed run re-enters its interrupted stratum at the delta
            // rounds, pending delta in hand.
            let round0 = (!std::mem::take(&mut mid_stratum)).then(|| {
                let exits = (plan.rules.iter())
                    .filter(|rp| members[rp.head] && exit(rp))
                    .map(|rp| Item::new(rp, None))
                    .collect();
                (exits, edb_tuples)
            });
            let mut stages = Stages {
                stages: &mut run.stages,
                gauge: &mut gauge,
                derived: 0,
                depths: depths.as_deref_mut(),
            };
            if let Err(stop) = semi_naive(
                plan,
                &members,
                a,
                &mut run.relations,
                &mut delta,
                round0,
                &mut workers,
                &mut stages,
            ) {
                run.diagnostics = workers.diagnostics;
                let fuel = stop.state();
                return Err(stop.with_partial(EvalCheckpoint {
                    partial: run.finish(),
                    delta,
                    stratum: s,
                    fuel,
                }));
            }
            let derived = stages.derived;
            run.profile.push(StratumProfile {
                stratum: s,
                stages: run.stages - stages_entry,
                derived,
                fuel: gauge.spent() - fuel_entry,
                elapsed: stratum_start.elapsed(),
                peak_pending: std::mem::take(&mut workers.peak_pending),
            });
        }
        run.diagnostics = workers.diagnostics;
        Ok(match depths {
            Some(_) => run,
            None => run.finish(),
        })
    }
}

impl FixpointResult {
    /// The run's relations as a result, without the copies and bitmaps
    /// its probes built: results and cached answers hold rows only.
    fn finish(mut self) -> FixpointResult {
        self.relations.iter_mut().for_each(Relation::drop_copies);
        self
    }
}

/// Evaluation's round boundaries: each round charges `1 + derived` fuel,
/// and each delta round is a stage of Φ. A build also keeps the recursive
/// members' deltas as their depth runs.
struct Stages<'a> {
    stages: &'a mut usize,
    gauge: &'a mut Gauge,
    /// Tuples derived so far in this stratum.
    derived: u64,
    depths: Option<&'a mut [Option<DepthRuns>]>,
}

impl Rounds for Stages<'_> {
    /// A delta round is counted before it runs; round 0 is not counted.
    fn round(&self) -> usize {
        *self.stages
    }

    fn before(&mut self) -> Result<(), Stop> {
        self.gauge.check()?;
        *self.stages += 1;
        Ok(())
    }

    fn after(&mut self, _seeded: bool, delta: &[Relation]) -> Result<(), Stop> {
        let derived: u64 = delta.iter().map(|d| d.len() as u64).sum();
        self.derived += derived;
        self.gauge.tick(1 + derived)
    }

    /// Round 0 derives Φ¹, and delta round `m` derives Φ^{m+1} ∖ Φ^m,
    /// which retires in round `m + 1`: a build keeps each recursive
    /// member's retired delta as the run of its stage.
    fn retire(&mut self, delta: Vec<Relation>) {
        if let Some(depths) = self.depths.as_deref_mut() {
            let stage = *self.stages as u64;
            for (runs, d) in depths.iter_mut().zip(delta) {
                if let Some(runs) = runs {
                    runs.push(stage, d.into_store());
                }
            }
        }
    }
}

/// What a caller of [`semi_naive`] does at its round boundaries.
pub(crate) trait Rounds {
    /// The run's round count as the caller reports it, counting the round
    /// about to run ([`Workers::round`]).
    fn round(&self) -> usize;

    /// Before a round merges the pending delta: a stop ends the run
    /// there, the delta still pending.
    fn before(&mut self) -> Result<(), Stop>;

    /// After a round: `seeded` tells whether any item was formed for it,
    /// `delta` holds what it derived that the committed relations lack.
    fn after(&mut self, seeded: bool, delta: &[Relation]) -> Result<(), Stop>;

    /// A delta the run merged and no longer reads, handed over.
    fn retire(&mut self, _delta: Vec<Relation>) {}
}

/// The semi-naive round loop of evaluation and maintenance, over one
/// round unit — the IDBs flagged in `members`: a stratum, or an SCC — on
/// the committed relations `idb` of `a`.
///
/// Round 0 runs the caller's items, gated by its seed-tuple count; `None`
/// resumes with `delta` pending instead. Every later round merges the
/// pending delta into `idb` and is seeded by it: one item per rule with a
/// member head and positive body atom over a member whose delta is not
/// empty. Returns once the delta drains, or at the first stop a hook
/// returns.
#[allow(clippy::too_many_arguments)]
pub(crate) fn semi_naive<H: Rounds>(
    plan: &ProgramPlan,
    members: &[bool],
    a: &Structure,
    idb: &mut [Relation],
    delta: &mut Vec<Relation>,
    round0: Option<(Vec<Item<'_>>, usize)>,
    workers: &mut Workers,
    hooks: &mut H,
) -> Result<(), Stop> {
    if let Some((items, seed_tuples)) = round0 {
        workers.round = hooks.round();
        *delta = derive(a, idb, &items, seed_tuples, workers);
        hooks.after(!items.is_empty(), delta)?;
    }
    loop {
        if delta.iter().all(Relation::is_empty) {
            return Ok(());
        }
        hooks.before()?;
        for (acc, d) in idb.iter_mut().zip(delta.iter()) {
            acc.merge(d);
        }
        let pending: &[Relation] = delta;
        let items: Vec<Item<'_>> = (plan.rules.iter())
            .filter(|rp| members[rp.head])
            .flat_map(|rp| {
                rp.idb_atoms
                    .iter()
                    .filter_map(move |&ai| match rp.atoms[ai].pred {
                        PredRef::Idb(q) if members[q] && !pending[q].is_empty() => {
                            Some(Item::new(rp, Some((ai, pending[q].store()))))
                        }
                        _ => None,
                    })
            })
            .collect();
        let seed_tuples = pending.iter().map(Relation::len).sum();
        workers.round = hooks.round();
        let next = derive(a, idb, &items, seed_tuples, workers);
        let seeded = !items.is_empty();
        hooks.retire(std::mem::replace(delta, next));
        hooks.after(seeded, delta)?;
    }
}

/// One round of [`semi_naive`]: `items`, less those another of whose
/// positive atoms reads an empty relation (they derive nothing), each cut
/// into one shard per thread the round runs on. The pool sits out rounds
/// seeded by fewer tuples than its gate, which then run one shard per
/// item. Returns what they derived that `idb` lacks, one relation per
/// IDB.
fn derive(
    a: &Structure,
    idb: &[Relation],
    items: &[Item<'_>],
    seed_tuples: usize,
    workers: &mut Workers,
) -> Vec<Relation> {
    let ctx = JoinCtx { a, idb };
    let threads = if seed_tuples < workers.min_seed {
        1
    } else {
        workers.threads()
    };
    let shards: Vec<Item<'_>> = (items.iter())
        .filter(|item| {
            // A seeded order opens with its seed atom.
            let seeded = item.seed.map(|_| item.steps[0].atom);
            !item.rp.atoms.iter().enumerate().any(|(j, atom)| {
                seeded != Some(j) && !atom.negated && ctx.relation(atom.pred).is_empty()
            })
        })
        .flat_map(|item| {
            (0..threads).map(move |c| Item {
                chunk: (c, threads),
                ..*item
            })
        })
        .collect();
    let mut next: Vec<Relation> = idb.iter().map(|r| Relation::new(r.arity())).collect();
    for (h, out) in workers.round(&ctx, &shards, threads) {
        next[h].merge_store(&out.difference(idb[h].store()));
    }
    next
}

/// The worker side of a run: the pool's width, the seed gate, the round
/// a recovery note names, the notes of recovered worker panics, and the
/// largest batch an item sealed.
pub(crate) struct Workers {
    width: usize,
    min_seed: usize,
    /// The run's round count as its report gives it, the round in progress
    /// included: Φ's stages in evaluation, maintenance rounds in
    /// maintenance. The caller keeps it current; a recovery note names it.
    pub round: usize,
    /// Worker-panic recoveries so far; a non-empty list keeps every later
    /// batch on the calling thread.
    pub diagnostics: Vec<String>,
    /// The most pending rows any one work item sealed.
    pub peak_pending: usize,
}

impl Workers {
    /// The workers of `cfg`, for a run that already recorded
    /// `diagnostics`.
    pub(crate) fn new(cfg: &EvalConfig, diagnostics: Vec<String>) -> Workers {
        Workers {
            width: match cfg.threads {
                0 => std::thread::available_parallelism().map_or(1, |n| n.get()),
                n => n,
            },
            min_seed: cfg.parallel_min_seed,
            round: 0,
            diagnostics,
            peak_pending: 0,
        }
    }

    /// Threads a batch may use: the pool's width, or one once a worker
    /// panic was recovered.
    pub(crate) fn threads(&self) -> usize {
        if self.diagnostics.is_empty() {
            self.width
        } else {
            1
        }
    }

    /// Map `f` over `0..n` on `threads` workers of the
    /// [pool](crate::pool::run), results in index order. A worker panic is
    /// recovered on the calling thread and noted.
    pub(crate) fn map<T, F>(&mut self, threads: usize, n: usize, f: F) -> Vec<T>
    where
        T: Send,
        F: Fn(usize) -> T + Sync,
    {
        let (out, recovered) = crate::pool::run(threads, n, f);
        if recovered {
            self.diagnostics.push(format!(
                "round {}: a pool worker panicked; the parallel results were discarded \
                 and recomputed on the calling thread, and the run continued single-threaded",
                self.round
            ));
        }
        out
    }

    /// Run one round's work items on `threads` workers and return each
    /// item's `(head IDB, derived tuples)`, in item order. Each item yields
    /// every satisfying substitution of its rule along its join order,
    /// with the seed scan restricted to its shard. Items are pure
    /// functions of the immutable round context and the per-item outputs
    /// are ordered sets, so the merge is deterministic regardless of
    /// scheduling, and a recovered round is bit-identical to an
    /// all-sequential one.
    pub(crate) fn round<V: Reads + ?Sized>(
        &mut self,
        view: &V,
        items: &[Item<'_>],
        threads: usize,
    ) -> Vec<(usize, TupleStore)> {
        let outs = self.map(threads, items.len(), |i| {
            let item = &items[i];
            let rp = item.rp;
            // Derivations land in the store's pending delta (no per-tuple
            // ordering work); one seal per item sorts and dedups them.
            let mut out = TupleStore::new(rp.head_args.len());
            let mut asg = vec![Elem(0); rp.var_count];
            join(
                view,
                item,
                0,
                &mut asg,
                &mut ProbeScratch::new(item.steps.len()),
                &mut |asg: &[Elem]| {
                    out.push_with(|buf| buf.extend(rp.head_args.iter().map(|&s| asg[s])));
                    true
                },
            );
            let pending = out.pending_len();
            out.seal();
            (rp.head, out, pending)
        });
        let peak = outs.iter().map(|o| o.2).max().unwrap_or(0);
        self.peak_pending = self.peak_pending.max(peak);
        outs.into_iter().map(|(h, out, _)| (h, out)).collect()
    }
}

/// One work item's fixed inputs: the rule, the join order of its seeding
/// variant, the rows its seeded atom scans, and the item's `(shard, of)`
/// slice of the depth-0 scan.
pub(crate) struct Item<'a> {
    pub rp: &'a RulePlan,
    /// A join order of `rp`.
    pub steps: &'a [JoinStep],
    /// The rows the depth-0 step scans in place of its relation: a delta,
    /// or in maintenance an external insertion or deletion batch or the
    /// last deletion round's kills. `None` scans the relation.
    pub seed: Option<&'a TupleStore>,
    pub chunk: (usize, usize),
}

impl<'a> Item<'a> {
    /// Rule `rp`'s item seeded by `seed` — rows for one of its positive
    /// body atoms — or unseeded along its seed order, unsharded.
    pub(crate) fn new(rp: &'a RulePlan, seed: Option<(usize, &'a TupleStore)>) -> Item<'a> {
        let (steps, seed) = match seed {
            Some((atom, rows)) => (rp.seeded_order(atom), Some(rows)),
            None => (&rp.seed_order[..], None),
        };
        Item {
            rp,
            steps,
            seed,
            chunk: (0, 1),
        }
    }
}

/// Extend `asg` through `item.steps[depth..]`, reading each atom as
/// `view` does, and hand every complete assignment to `sink`. Returns
/// `false` iff `sink` stopped the walk.
pub(crate) fn join<'v, V: Reads + ?Sized, S: FnMut(&[Elem]) -> bool>(
    view: &'v V,
    item: &Item<'_>,
    depth: usize,
    asg: &mut [Elem],
    probes: &mut ProbeScratch<'v>,
    sink: &mut S,
) -> bool {
    let rp = item.rp;
    if depth == item.steps.len() {
        return sink(asg);
    }
    let step = &item.steps[depth];
    let atom = &rp.atoms[step.atom];
    let pred = atom.pred;
    if atom.negated {
        // Negated guard: the plan schedules it only once every argument is
        // bound, so the step filters one candidate tuple — the point lookup
        // of the sorted-store complement. Negated IDB atoms live in
        // strictly lower strata, whose deltas drained before this stratum
        // started, so their relations are final. A unary guard tests one
        // bit of the relation's membership bitmap, which the first test
        // builds (once per relation, so once per shared EDB snapshot). A
        // wider guard probes the sealed relation from this depth's cursor,
        // so guard keys arriving in ascending order sweep it once.
        let relation = view.relation(pred);
        let (key, cursor) = probes.key(step, depth, asg);
        let present = match *key {
            [e] => relation.holds(e),
            _ => {
                let store = relation.store();
                debug_assert!(store.is_sealed(), "a negated guard reads a sealed relation");
                store.prefix_rows(key, cursor).next().is_some()
            }
        };
        return present || join(view, item, depth + 1, asg, probes, sink);
    }
    if !step.bound.is_empty() {
        // Probe on exactly the bound positions, through the relation's
        // store or permuted copy for them; candidates satisfy the bound
        // equalities by construction of the key.
        let (store, pos_of) = probes.source(step, depth, || view.relation(pred));
        let (key, cursor) = probes.key(step, depth, asg);
        for t in store.prefix_rows(key, cursor) {
            let t = ResolvedRow::new(t, pos_of);
            if !view.hides(pred, t) && !advance(view, item, depth, asg, probes, sink, t, false) {
                return false;
            }
        }
    } else {
        // Scan path: the whole relation (nothing bound), or at depth 0 the
        // item's seed, which is read as it is. The depth-0 scan is the
        // sharding point: each work item visits only its own contiguous
        // slice of it.
        let (store, seeded) = match item.seed {
            Some(seed) if depth == 0 => (seed, true),
            _ => (view.relation(pred).store(), false),
        };
        let n = store.len();
        let rows = if depth == 0 {
            let (shard, of) = item.chunk;
            n * shard / of..n * (shard + 1) / of
        } else {
            0..n
        };
        for t in store.rows_in(rows) {
            if (seeded || !view.hides(pred, ResolvedRow::Direct(t)))
                && !advance(view, item, depth, asg, probes, sink, t, true)
            {
                return false;
            }
        }
        if seeded {
            return true;
        }
    }
    // The reader's extra rows (DRed's `Old` view: the rows this batch
    // deleted). Only unsharded items have any.
    for t in view.extra(pred).into_iter().flat_map(TupleStore::iter) {
        if !advance(view, item, depth, asg, probes, sink, t, true) {
            return false;
        }
    }
    true
}

/// Check one candidate tuple against the step's repeat (and, for scans,
/// bound) constraints, bind its fresh variables, and recurse. No rollback
/// is needed: the plan statically guarantees deeper steps only read slots
/// bound on their prefix. Returns `false` iff the sink stopped the walk.
#[allow(clippy::too_many_arguments)]
fn advance<'v, R: Row, V: Reads + ?Sized, S: FnMut(&[Elem]) -> bool>(
    view: &'v V,
    item: &Item<'_>,
    depth: usize,
    asg: &mut [Elem],
    probes: &mut ProbeScratch<'v>,
    sink: &mut S,
    t: R,
    check_bound: bool,
) -> bool {
    let step = &item.steps[depth];
    if check_bound {
        for &(i, s) in &step.bound {
            if t.at(i) != asg[s] {
                return true;
            }
        }
    }
    for &(i, j) in &step.repeats {
        if t.at(i) != t.at(j) {
            return true;
        }
    }
    for &(i, s) in &step.binds {
        asg[s] = t.at(i);
    }
    join(view, item, depth + 1, asg, probes, sink)
}

#[cfg(test)]
mod tests {
    use super::*;
    use hp_structures::generators::{directed_cycle, directed_path, down_tree, random_digraph};
    use hp_structures::Vocabulary;

    fn tc() -> Program {
        Program::parse(
            "T(x,y) :- E(x,y).\nT(x,y) :- E(x,z), T(z,y).",
            &Vocabulary::digraph(),
        )
        .unwrap()
    }

    #[test]
    fn tc_on_path() {
        let r = tc().evaluate(&directed_path(5));
        assert_eq!(r.idb("T").unwrap().len(), 10);
        assert!(r.idb("T").unwrap().contains(&[Elem(0), Elem(4)]));
        assert!(!r.idb("T").unwrap().contains(&[Elem(4), Elem(0)]));
        assert!(r.idb("U").is_none());
    }

    #[test]
    fn tc_on_cycle_is_complete() {
        let r = tc().evaluate(&directed_cycle(4));
        assert_eq!(r.idb("T").unwrap().len(), 16);
    }

    #[test]
    fn profile_covers_every_stratum_and_sums_to_totals() {
        // Positive program: one entry for stratum 0.
        let r = tc().evaluate(&directed_path(5));
        assert_eq!(r.profile.len(), 1);
        assert_eq!(r.profile[0].stratum, 0);
        assert_eq!(r.profile[0].stages, r.stages);
        assert_eq!(r.profile[0].derived, 10);

        // Stratified negation: one entry per stratum, entries partition
        // the stage count, and the fuel charges sum to the gauge's spend.
        let p = Program::parse(
            "T(x,y) :- E(x,y).\nT(x,y) :- E(x,z), T(z,y).\nN(x,y) :- E(x,z), E(z,y), not T(x,y).\n\
             Goal(x,y) :- N(x,y).",
            &Vocabulary::digraph(),
        )
        .unwrap();
        let r = p
            .evaluate_budgeted(
                &directed_path(5),
                &EvalConfig::default(),
                &Budget::unlimited(),
            )
            .unwrap();
        assert_eq!(r.profile.len(), p.num_strata());
        assert_eq!(r.profile.iter().map(|s| s.stages).sum::<usize>(), r.stages);
        let strata: Vec<usize> = r.profile.iter().map(|s| s.stratum).collect();
        assert_eq!(strata, (0..p.num_strata()).collect::<Vec<_>>());
    }

    #[test]
    fn naive_and_semi_naive_agree() {
        let p = tc();
        for seed in 0..8 {
            let a = random_digraph(7, 12, seed);
            let naive = p.stages(&a, 64);
            assert!(naive.converged, "seed {seed}");
            let semi = p.evaluate(&a);
            assert_eq!(&semi.relations[..], naive.last(), "seed {seed}");
            // Stage counts agree: stages() returns Φ^0..Φ^{m0}.
            assert_eq!(naive.applications(), semi.stages, "seed {seed}");
        }
    }

    #[test]
    fn stages_grow_monotonically() {
        let p = tc();
        let a = directed_path(6);
        let st = p.stages(&a, 64);
        for w in st.stages.windows(2) {
            for (r0, r1) in w[0].iter().zip(&w[1]) {
                assert!(r0.is_subset(r1));
            }
        }
        // Path of length 5: TC needs 5 stages, verified as the fixpoint.
        assert_eq!(st.applications(), 5);
        assert!(st.converged);
    }

    #[test]
    fn stage_cap_is_not_silent() {
        let p = tc();
        // The old failure shape: TC of a 9-edge path needs 9 stages; a cap
        // of 3 used to hand back Φ^0..Φ^3 looking exactly like a converged
        // sequence. Now the truncation is explicit.
        let st = p.stages(&directed_path(10), 3);
        assert_eq!(st.stages.len(), 4); // Φ^0..Φ^3
        assert!(!st.converged, "cap hit must not report convergence");
        // Exactly at the fixpoint the equality check still runs: cap 9
        // computes Φ^9 but cannot verify it, cap 10 proves it.
        assert!(!p.stages(&directed_path(10), 9).converged);
        let verified = p.stages(&directed_path(10), 10);
        assert!(verified.converged);
        assert_eq!(verified.applications(), 9);
    }

    #[test]
    fn multi_idb_reachability() {
        let v = Vocabulary::from_pairs([("Down", 2), ("Leaf", 1)]);
        let p = Program::parse(
            "Reach(x) :- Leaf(x).\nReach(x) :- Down(x,y), Reach(y).\nGoal() :- Reach(x).",
            &v,
        )
        .unwrap();
        let t = down_tree(3);
        let r = p.evaluate(&t);
        // Every node reaches a leaf in a complete tree.
        assert_eq!(r.idb("Reach").unwrap().len(), t.universe_size());
        assert_eq!(r.idb("Goal").unwrap().len(), 1); // the empty tuple
    }

    #[test]
    fn zero_ary_goal_false_when_unreachable() {
        let p = Program::parse("Goal() :- E(x,x).", &Vocabulary::digraph()).unwrap();
        let r = p.evaluate(&directed_path(4));
        assert!(r.idb("Goal").unwrap().is_empty());
        let r2 = p.evaluate(&directed_cycle(1));
        assert_eq!(r2.idb("Goal").unwrap().len(), 1);
    }

    #[test]
    fn empty_structure_evaluates() {
        let p = tc();
        let a = Structure::new(Vocabulary::digraph(), 0);
        let r = p.evaluate(&a);
        assert!(r.idb("T").unwrap().is_empty());
        assert_eq!(r.stages, 0);
    }

    #[test]
    fn repeated_variables_in_rule() {
        // Loop detection: L(x) :- E(x,x).
        let p = Program::parse("L(x) :- E(x,x).", &Vocabulary::digraph()).unwrap();
        let mut a = directed_path(3);
        a.add_tuple_ids(0, &[1, 1]).unwrap();
        let r = p.evaluate(&a);
        assert_eq!(r.idb("L").unwrap().len(), 1);
        assert!(r.idb("L").unwrap().contains(&[Elem(1)]));
    }

    #[test]
    fn nonlinear_rule_with_duplicate_idb_atoms() {
        // Nonlinear TC: both body atoms are the same IDB predicate, so each
        // round runs two delta variants of the same rule.
        let p = Program::parse(
            "T(x,y) :- E(x,y).\nT(x,y) :- T(x,z), T(z,y).",
            &Vocabulary::digraph(),
        )
        .unwrap();
        let a = directed_path(6);
        let r = p.evaluate(&a);
        assert_eq!(r.idb("T").unwrap().len(), 15);
        let naive = p.stages(&a, 16);
        assert!(naive.converged);
        assert_eq!(&r.relations[..], naive.last());
        // Nonlinear TC doubles the frontier distance per round: the 5-edge
        // path converges in 4 rounds, not 5 — and semi-naive delta rounds
        // count exactly the naive stages.
        assert_eq!(r.stages, naive.applications());
        assert_eq!(r.stages, 4);
    }

    #[test]
    fn parallel_evaluation_is_bit_identical() {
        let programs = [
            tc(),
            Program::parse(
                "T(x,y) :- E(x,y).\nT(x,y) :- T(x,z), T(z,y).",
                &Vocabulary::digraph(),
            )
            .unwrap(),
            Program::parse("Goal() :- E(x,y), E(y,x).", &Vocabulary::digraph()).unwrap(),
        ];
        for p in &programs {
            for seed in 0..4 {
                let a = random_digraph(12, 30, seed);
                let sequential = p.evaluate(&a);
                for threads in [2usize, 4, 0] {
                    // min_seed 0 forces every round onto the pool — the
                    // structures here are far below the adaptive threshold.
                    let cfg = EvalConfig::new()
                        .with_threads(threads)
                        .with_parallel_min_seed(0);
                    let par = p.evaluate_with(&a, &cfg);
                    assert_eq!(par.relations, sequential.relations, "threads {threads}");
                    assert_eq!(par.stages, sequential.stages, "threads {threads}");
                }
            }
        }
    }

    #[test]
    fn budgeted_exhaustion_checkpoints_and_resumes_to_fixpoint() {
        let p = tc();
        let a = directed_path(8);
        let full = p.evaluate(&a);
        let cfg = EvalConfig::new();
        let e = p
            .evaluate_budgeted(&a, &cfg, &Budget::fuel(3))
            .expect_err("3 fuel cannot finish TC on a 7-edge path");
        assert_eq!(e.resource, hp_guard::Resource::Fuel);
        assert!(e.partial.fuel_spent() >= 3);
        // Every checkpointed relation is a subset of the true fixpoint.
        for (partial, fixed) in e.partial.partial.relations.iter().zip(&full.relations) {
            assert!(partial.is_subset(fixed));
        }
        let r = p
            .resume_budgeted(&a, &cfg, e.partial, &Budget::unlimited())
            .expect("checkpoint comes from this program")
            .expect("unlimited resume reaches the fixpoint");
        assert_eq!(r.relations, full.relations);
        assert_eq!(r.stages, full.stages);
    }

    #[test]
    fn foreign_checkpoint_is_a_typed_error() {
        // A checkpoint from one program handed to another must come back as
        // `EvalError::CheckpointMismatch`, not a panic or a corrupted run.
        let p = tc();
        let a = directed_path(8);
        let cfg = EvalConfig::new();
        let e = p
            .evaluate_budgeted(&a, &cfg, &Budget::fuel(3))
            .expect_err("3 fuel cannot finish TC on a 7-edge path");

        // Different IDB count.
        let two_idbs =
            Program::parse("T(x,y) :- E(x,y).\nU(x) :- T(x,x).", &Vocabulary::digraph()).unwrap();
        let err = two_idbs
            .resume_budgeted(&a, &cfg, e.partial.clone(), &Budget::unlimited())
            .expect_err("IDB count differs");
        assert!(matches!(err, EvalError::CheckpointMismatch { .. }), "{err}");

        // Same count, different IDB name.
        let renamed = Program::parse(
            "U(x,y) :- E(x,y).\nU(x,y) :- E(x,z), U(z,y).",
            &Vocabulary::digraph(),
        )
        .unwrap();
        let err = renamed
            .resume_budgeted(&a, &cfg, e.partial.clone(), &Budget::unlimited())
            .expect_err("IDB name differs");
        assert!(matches!(err, EvalError::CheckpointMismatch { .. }), "{err}");
        assert!(err.to_string().contains("checkpoint"), "{err}");

        // Same count and name, different arity.
        let unary = Program::parse("T(x) :- E(x,x).", &Vocabulary::digraph()).unwrap();
        let err = unary
            .resume_budgeted(&a, &cfg, e.partial.clone(), &Budget::unlimited())
            .expect_err("IDB arity differs");
        assert!(matches!(err, EvalError::CheckpointMismatch { .. }), "{err}");

        // Same program, a structure too small for the checkpoint's tuples.
        let err = p
            .resume_budgeted(
                &directed_path(3),
                &cfg,
                e.partial.clone(),
                &Budget::unlimited(),
            )
            .expect_err("checkpoint elements exceed the universe");
        assert!(err.to_string().contains("3 elements"), "{err}");

        // The same checkpoint still resumes cleanly on its own program.
        let r = p
            .resume_budgeted(&a, &cfg, e.partial, &Budget::unlimited())
            .expect("own checkpoint matches")
            .expect("unlimited resume finishes");
        assert_eq!(r.relations, p.evaluate(&a).relations);
    }

    #[test]
    fn fuel_split_equals_straight_run() {
        // Budget monotonicity at the engine level: for every split point,
        // f1 then f2 lands exactly where a single f1+f2 run lands.
        // And a stop below the total holds exactly the naive stage Φ^m of
        // its stage count m.
        let p = tc();
        let a = directed_path(9);
        let cfg = EvalConfig::new();
        let total: u64 = p.evaluate(&a).profile.iter().map(|s| s.fuel).sum();
        for f1 in 1..total {
            for f2 in [1u64, 4, 17, 200] {
                let straight = p.evaluate_budgeted(&a, &cfg, &Budget::fuel(f1 + f2));
                let stop = p
                    .evaluate_budgeted(&a, &cfg, &Budget::fuel(f1))
                    .expect_err("fuel below the total stops");
                let m = stop.partial.partial.stages;
                assert_eq!(
                    &stop.partial.partial.relations[..],
                    p.stages(&a, m).last(),
                    "f1={f1}"
                );
                let split = p
                    .resume_budgeted(&a, &cfg, stop.partial, &Budget::fuel(f2))
                    .expect("checkpoint comes from this program");
                match (straight, split) {
                    (Ok(s), Ok(t)) => {
                        assert_eq!(s.relations, t.relations, "f1={f1} f2={f2}");
                        assert_eq!(s.stages, t.stages, "f1={f1} f2={f2}");
                    }
                    (Err(s), Err(t)) => {
                        let (s, t) = (s.partial, t.partial);
                        assert_eq!(s.partial.relations, t.partial.relations, "f1={f1} f2={f2}");
                        assert_eq!(s.partial.stages, t.partial.stages, "f1={f1} f2={f2}");
                        assert_eq!(s.delta, t.delta, "f1={f1} f2={f2}");
                        assert_eq!(s.fuel, t.fuel, "f1={f1} f2={f2}");
                    }
                    (s, t) => panic!(
                        "split and straight runs disagree on exhaustion for f1={f1} f2={f2}: \
                         straight ok={} split ok={}",
                        s.is_ok(),
                        t.is_ok()
                    ),
                }
            }
        }
    }

    #[test]
    fn budgeted_fuel_stops_are_thread_count_independent() {
        let p = tc();
        let a = random_digraph(12, 30, 1);
        let sequential_cfg = EvalConfig::new();
        let parallel_cfg = EvalConfig::new().with_threads(4).with_parallel_min_seed(0);
        for fuel in [1u64, 5, 20, 100] {
            let s = p.evaluate_budgeted(&a, &sequential_cfg, &Budget::fuel(fuel));
            let t = p.evaluate_budgeted(&a, &parallel_cfg, &Budget::fuel(fuel));
            match (s, t) {
                (Ok(s), Ok(t)) => assert_eq!(s.relations, t.relations, "fuel {fuel}"),
                (Err(s), Err(t)) => {
                    assert_eq!(
                        s.partial.partial.relations, t.partial.partial.relations,
                        "fuel {fuel}"
                    );
                    assert_eq!(
                        s.partial.fuel_spent(),
                        t.partial.fuel_spent(),
                        "fuel {fuel}"
                    );
                }
                _ => panic!("fuel stop depends on thread count at fuel {fuel}"),
            }
        }
    }

    /// A digraph's edges as `Move` of a `win_move` game, every element a
    /// `Pos`.
    fn game(n: usize, m: usize, seed: u64) -> Structure {
        let g = random_digraph(n, m, seed);
        let mut b = Structure::builder(crate::gallery::win_move(0).edb().clone(), n);
        for t in g.relation(g.vocab().lookup("E").unwrap()).iter() {
            b = b.tuple(0, &[t.get(0).0, t.get(1).0]);
        }
        for x in 0..n as u32 {
            b = b.tuple(1, &[x]);
        }
        b.build()
    }

    /// A digraph's edges as `E` of the reach program, source `S = {0}`.
    fn reach_input(n: usize, m: usize, seed: u64) -> Structure {
        let g = random_digraph(n, m, seed);
        let v = Vocabulary::from_pairs([("E", 2), ("S", 1)]);
        let mut b = Structure::builder(v, n);
        for t in g.relation(g.vocab().lookup("E").unwrap()).iter() {
            b = b.tuple(0, &[t.get(0).0, t.get(1).0]);
        }
        b.tuple(1, &[0]).build()
    }

    #[test]
    fn peak_pending_is_the_largest_item_batch() {
        // One thread, one item per round. Reach's delta item pends one
        // derivation per `E` edge leaving the round's delta, so its peak
        // follows from the naive stages; round 0 pends `S`.
        let reach = Program::parse(
            "R(x) :- S(x).\nR(y) :- R(x), E(x,y).",
            &Vocabulary::from_pairs([("E", 2), ("S", 1)]),
        )
        .unwrap();
        let a = reach_input(400, 1000, 3);
        let e = a.relation(a.vocab().lookup("E").unwrap()).store();
        let out_degree = |x: Elem| e.prefix_range(&[x]).len();
        let naive = reach.stages(&a, 64);
        let expect = naive
            .stages
            .windows(2)
            .map(|w| w[1][0].store().difference(w[0][0].store()))
            .map(|delta| delta.iter().map(|t| out_degree(t.get(0))).sum::<usize>())
            .fold(1, usize::max);
        let cfg = EvalConfig::new().with_threads(1);
        let r = reach.evaluate_with(&a, &cfg);
        assert_eq!(r.profile[0].peak_pending, expect);
        assert_eq!(expect, 256);
        // Nonlinear TC seeds two delta items per round; pinned.
        let nonlinear_tc = Program::parse(
            "T(x,y) :- E(x,y).\nT(x,z) :- T(x,y), T(y,z).",
            &Vocabulary::digraph(),
        )
        .unwrap();
        let r = nonlinear_tc.evaluate_with(&directed_path(64), &cfg);
        assert_eq!(r.relations[0].len(), 64 * 63 / 2);
        assert_eq!(r.profile[0].peak_pending, 11_776);
    }

    /// Two random digraphs over `n` elements as `E` (seed `seed`) and `F`
    /// (seed `seed + 1`).
    fn two_digraphs(n: usize, m: usize, seed: u64) -> Structure {
        let mut b = Structure::builder(Vocabulary::from_pairs([("E", 2), ("F", 2)]), n);
        for (sym, seed) in [(0, seed), (1, seed + 1)] {
            let g = random_digraph(n, m, seed);
            for t in g.relation(g.vocab().lookup("E").unwrap()).iter() {
                b = b.tuple(sym, &[t.get(0).0, t.get(1).0]);
            }
        }
        b.build()
    }

    /// `(len, hash of the row sequence)` per relation.
    fn fingerprint(rels: &[IdbRelation]) -> Vec<(usize, u64)> {
        rels.iter()
            .map(|rel| {
                let h = rel.iter().fold(0u64, |h, t| {
                    t.iter().fold(h, |h, e| {
                        h.wrapping_mul(0x100_0000_01b3)
                            .wrapping_add(u64::from(e.0) + 1)
                    })
                });
                (rel.len(), h)
            })
            .collect()
    }

    /// Per fuel cap: `(finished, stages, fuel spent)`.
    type FuelStops = &'static [(u64, (bool, usize, u64))];

    #[test]
    fn fuel_schedule_is_pinned() {
        // Relations, stage counts, per-stratum profiles and fuel stops of
        // four programs, at 1, 2 and 4 threads with every round on the
        // pool. The figures were recorded from the evaluator that still ran
        // every rule in round 0 and probed without cursors; restricting
        // round 0 to exit rules, sharding by contiguous ranges and
        // galloping probes must leave all of them unchanged.
        let reach = Program::parse(
            "R(x) :- S(x).\nR(y) :- R(x), E(x,y).",
            &Vocabulary::from_pairs([("E", 2), ("S", 1)]),
        )
        .unwrap();
        let win_fp: &[(usize, u64)] = &[
            (255, 9881877594153117429),
            (45, 3592193965482187297),
            (77, 3962541203839909045),
            (229, 13792242120987104487),
            (71, 2560579094187590057),
            (116, 9763340133274431948),
            (209, 5405153958236445887),
            (91, 15433725292103277751),
            (138, 6289843376023379193),
            (200, 10535811293564397560),
            (100, 4240805171779651316),
        ];
        let win_profile: &[(usize, u64, u64)] = &[
            (1, 255, 257),
            (2, 122, 125),
            (1, 229, 231),
            (2, 187, 190),
            (1, 209, 211),
            (2, 229, 232),
            (1, 200, 202),
            (1, 100, 102),
        ];
        let win_stops: FuelStops = &[
            (1, (false, 0, 256)),
            (40, (false, 0, 256)),
            (256, (false, 0, 256)),
            (257, (false, 1, 257)),
            (300, (false, 1, 303)),
            (700, (false, 5, 802)),
            (1100, (false, 7, 1106)),
            (1549, (false, 10, 1549)),
            (1550, (false, 11, 1550)),
            (1551, (true, 11, 1550)),
        ];
        let reach_stops: FuelStops = &[
            (1, (false, 0, 2)),
            (2, (false, 0, 2)),
            (3, (false, 1, 6)),
            (8, (false, 2, 13)),
            (40, (false, 4, 58)),
            (256, (false, 7, 328)),
            (382, (false, 11, 382)),
            (383, (false, 12, 383)),
            (384, (true, 12, 383)),
        ];
        // Nonlinear TC probes `T` on [0] (the accumulated relation itself)
        // and on [1] (a permuted copy that absorbs every delta); so does
        // the `A` rule of `late_right` on `A`, where, unlike in TC, the
        // copy's variant derives tuples no other variant does. Their
        // figures were recorded from the evaluator whose IDB probes still
        // read a hash index over absorbed row ids.
        let nonlinear_tc = Program::parse(
            "T(x,y) :- E(x,y).\nT(x,z) :- T(x,y), T(y,z).",
            &Vocabulary::digraph(),
        )
        .unwrap();
        let late_right = Program::parse(
            "A(x,y) :- E(x,y).\nB(x,y) :- F(x,y).\nB(x,z) :- B(x,y), E(y,z).\n\
             A(x,z) :- A(x,y), B(y,z).",
            &Vocabulary::from_pairs([("E", 2), ("F", 2)]),
        )
        .unwrap();
        let late_right_stops: FuelStops = &[
            (1, (false, 0, 141)),
            (100, (false, 0, 141)),
            (300, (false, 2, 566)),
            (962, (false, 3, 1030)),
            (1000, (false, 3, 1030)),
            (1924, (false, 8, 1924)),
            (1925, (false, 9, 1925)),
            (1926, (true, 9, 1925)),
        ];
        let nonlinear_stops: FuelStops = &[
            (1, (false, 0, 151)),
            (100, (false, 0, 151)),
            (300, (false, 1, 324)),
            (1000, (false, 3, 1734)),
            (1124, (false, 3, 1734)),
            (2247, (false, 5, 2247)),
            (2248, (false, 6, 2248)),
            (2249, (true, 6, 2248)),
            (3000, (true, 6, 2248)),
        ];
        let cases = [
            (
                crate::gallery::win_move(3),
                game(300, 600, 7),
                11,
                win_fp,
                win_profile,
                win_stops,
            ),
            (
                reach,
                reach_input(400, 1000, 3),
                12,
                &[(370, 13783079395887220828)][..],
                &[(12, 370, 383)][..],
                reach_stops,
            ),
            (
                nonlinear_tc,
                random_digraph(120, 150, 3),
                6,
                &[(2241, 10803259854939965657)][..],
                &[(6, 2241, 2248)][..],
                nonlinear_stops,
            ),
            (
                late_right,
                two_digraphs(60, 70, 3),
                9,
                &[(1561, 13913406589287665361), (354, 15035057078310420369)][..],
                &[(9, 1915, 1925)][..],
                late_right_stops,
            ),
        ];
        for (p, a, stages, fp, profile, stops) in &cases {
            for threads in [1usize, 2, 4] {
                let cfg = EvalConfig::new()
                    .with_threads(threads)
                    .with_parallel_min_seed(0);
                let r = p.evaluate_with(a, &cfg);
                assert_eq!(r.stages, *stages, "threads {threads}");
                assert_eq!(fingerprint(&r.relations), *fp, "threads {threads}");
                let got: Vec<(usize, u64, u64)> = r
                    .profile
                    .iter()
                    .map(|s| (s.stages, s.derived, s.fuel))
                    .collect();
                assert_eq!(got, *profile, "threads {threads}");
                for &(fuel, want) in *stops {
                    let got = match p.evaluate_budgeted(a, &cfg, &Budget::fuel(fuel)) {
                        Ok(r) => (true, r.stages, r.profile.iter().map(|s| s.fuel).sum()),
                        Err(e) => (false, e.partial.partial.stages, e.partial.fuel_spent()),
                    };
                    assert_eq!(got, want, "threads {threads}, fuel {fuel}");
                }
            }
        }
    }

    #[test]
    fn clean_runs_carry_no_diagnostics() {
        let r = tc().evaluate(&directed_path(5));
        assert!(r.diagnostics.is_empty());
    }

    #[test]
    fn reference_evaluator_agrees_with_indexed() {
        let p = tc();
        for seed in 0..6 {
            let a = random_digraph(9, 20, seed);
            let reference = p.evaluate_reference(&a);
            let indexed = p.evaluate(&a);
            assert_eq!(reference.relations, indexed.relations, "seed {seed}");
            assert_eq!(reference.stages, indexed.stages, "seed {seed}");
        }
    }

    #[test]
    fn concurrent_evaluations_build_one_shared_copy() {
        // Two threads evaluate win_move(2) on one structure whose `Move`
        // copy on its second column is not built yet: both race for it,
        // one builds it, and both read the same copy.
        let p = crate::gallery::win_move(2);
        let a = game(3000, 6000, 11);
        let mv = a.vocab().lookup("Move").unwrap();
        assert_eq!(a.relation(mv).copies().count(), 0);
        let barrier = std::sync::Barrier::new(2);
        let (r1, r2) = std::thread::scope(|s| {
            let run = || {
                barrier.wait();
                p.evaluate(&a)
            };
            let (h1, h2) = (s.spawn(run), s.spawn(run));
            (h1.join().unwrap(), h2.join().unwrap())
        });
        assert_eq!(r1.relations, r2.relations);
        assert_eq!(r1.stages, r2.stages);
        let copies: Vec<Vec<usize>> = a
            .relation(mv)
            .copies()
            .map(|(order, _)| order.pos_of().to_vec())
            .collect();
        assert_eq!(copies, vec![vec![1, 0]]);
        // The results carry no copies, nor the bitmaps of the IDB guards,
        // and equal a run on an unshared structure.
        assert!(r1
            .relations
            .iter()
            .all(|r| r.heap_bytes() == r.store().heap_bytes()));
        let fresh = p.evaluate(&game(3000, 6000, 11));
        assert_eq!(r1.relations, fresh.relations);
        assert_eq!(r1.stages, fresh.stages);
        // An EDB guard: both runs test the shared `Pos` relation, whose
        // membership bitmap the first test builds, once.
        let dead = Program::parse("Dead(x) :- Move(x,y), not Pos(y).", p.edb()).unwrap();
        let build = || {
            let mut b = Structure::builder(p.edb().clone(), 3000);
            for t in a.relation(mv).iter() {
                b = b.tuple(0, &[t.get(0).0, t.get(1).0]);
            }
            for x in (0..3000).filter(|x| x % 3 != 0) {
                b = b.tuple(1, &[x]);
            }
            b.build()
        };
        let b = build();
        let pos = b.relation(b.vocab().lookup("Pos").unwrap());
        let bitmap_bytes = |r: &Relation| r.heap_bytes() - r.store().heap_bytes();
        assert_eq!(bitmap_bytes(pos), 0);
        let (d1, d2) = std::thread::scope(|s| {
            let run = || {
                barrier.wait();
                dead.evaluate(&b)
            };
            let (h1, h2) = (s.spawn(run), s.spawn(run));
            (h1.join().unwrap(), h2.join().unwrap())
        });
        // 3000 values in one bit each, rounded up to whole words.
        assert_eq!(bitmap_bytes(pos), 3000usize.div_ceil(64) * 8);
        assert_eq!(d1.relations, d2.relations);
        assert!(!d1.relations[0].is_empty());
        let unshared = dead.evaluate(&build());
        assert_eq!(d1.relations, unshared.relations);
    }
}
