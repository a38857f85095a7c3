//! Maintained views: recursive positive programs answered from an
//! incrementally maintained fixpoint.
//!
//! A recursive Datalog program is a UCQ only when it is bounded (the
//! paper's Theorem 7.5), so it has no canonical-core key and the answer
//! cache cannot hold it. The service instead keeps, per program, a
//! [`MaterializedDb`] and the epoch it reflects, and brings it forward
//! lazily when a reader of a later epoch arrives:
//!
//! * **Key.** A hash of the parsed program's EDB vocabulary, IDBs and
//!   rules, confirmed by `==` on the same three. The key is exact: it
//!   claims no containment. The goal is not part of it; it only picks
//!   which maintained relation a reader gets.
//! * **Lifecycle.** A request for a program no view holds builds one
//!   ([`MaterializedDb::new_budgeted`]), under its own budget: the build
//!   is the program's budgeted evaluation, so the request computes one
//!   fixpoint and answers from it with the rows, stages and fuel the
//!   evaluation reports. A build the budget stops is that evaluation
//!   stopped, and the request returns its partial and resume token; a
//!   resume continues the evaluation and builds nothing. Every request
//!   after a build reads the view. At most [`MAX_VIEWS`] views are kept;
//!   the least recently used goes first.
//! * **Catch-up.** Epochs are copy-on-write, so a relation no write
//!   touched since the view's epoch is the same allocation in the
//!   reader's snapshot ([`Structure::shares_relation`]). Only the
//!   relations that differ are diffed into one insertion/deletion batch
//!   ([`EdbDelta::between`]), folded in by one budgeted maintenance run
//!   under the view's lock. The view then adopts the snapshot's relations,
//!   so the next catch-up again diffs only what was written since. No
//!   update log is kept.
//! * **Fallback.** A reader pinned before the view's epoch evaluates as
//!   it would without views and builds nothing. A snapshot whose universe
//!   grew, a catch-up that runs out of budget, and a lock poisoned by a
//!   panic drop the view; the same request then builds it again with the
//!   fuel and time it has left.
//!
//! [`Structure::shares_relation`]: hp_structures::Structure::shares_relation

use std::collections::hash_map::DefaultHasher;
use std::hash::{Hash, Hasher};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex, MutexGuard, PoisonError};

use hp_datalog::{EdbDelta, EvalCheckpoint, EvalConfig, MaterializedDb, Program};
use hp_guard::{Budget, Exhausted};

use crate::cache::CachedAnswer;
use crate::epoch::Snapshot;
use crate::service::goal_rows;

/// Most views held at once.
pub const MAX_VIEWS: usize = 16;

/// Why a view did not answer a reader.
pub(crate) enum Miss {
    /// The view reflects an epoch after the reader's: evaluate.
    Behind,
    /// No view holds the program, or its catch-up failed and dropped it
    /// after charging `spent` fuel: build.
    Absent { spent: u64 },
}

/// One program's maintained fixpoint.
struct View {
    hash: u64,
    program: Program,
    /// The epoch the database reflects, and the database. `None` once a
    /// failed catch-up retired the view: a reader that found it in the
    /// registry before its removal must not read the half-maintained
    /// database.
    state: Mutex<Option<(u64, MaterializedDb)>>,
}

impl View {
    fn is_for(&self, hash: u64, program: &Program) -> bool {
        self.hash == hash && self.program.same_rules(program)
    }
}

/// The service's maintained views. See the [module docs](self).
#[derive(Default)]
pub struct ViewRegistry {
    /// Built views, least recently used first.
    views: Mutex<Vec<Arc<View>>>,
    catchups: AtomicU64,
}

impl ViewRegistry {
    /// Views currently held.
    pub fn len(&self) -> usize {
        self.registry().len()
    }

    /// True when no view is held.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Catch-ups that brought a view forward to a reader's epoch, so far.
    pub fn catchups(&self) -> u64 {
        self.catchups.load(Ordering::Relaxed)
    }

    fn registry(&self) -> MutexGuard<'_, Vec<Arc<View>>> {
        // Registry updates are single pushes and removals: a panic cannot
        // leave it half-written, so a poisoned lock is safe to reuse.
        self.views.lock().unwrap_or_else(PoisonError::into_inner)
    }

    /// The answer to `program` on `snap` from its view, caught up to
    /// `snap`'s epoch under `budget` first; see the module docs for when
    /// it misses. `seq` is the request's sequence number (the
    /// `"serve.view"` fault site's counter).
    pub(crate) fn read(
        &self,
        program: &Program,
        snap: &Snapshot,
        cfg: &EvalConfig,
        budget: &Budget,
        seq: u64,
    ) -> Result<CachedAnswer, Miss> {
        let view = {
            let hash = program_hash(program);
            let mut reg = self.registry();
            let Some(i) = reg.iter().position(|v| v.is_for(hash, program)) else {
                return Err(Miss::Absent { spent: 0 });
            };
            let view = reg.remove(i);
            reg.push(view.clone());
            view
        };
        let Ok(mut guard) = view.state.lock() else {
            self.drop_view(&view);
            return Err(Miss::Absent { spent: 0 });
        };
        let Some(state) = guard.as_mut() else {
            return Err(Miss::Absent { spent: 0 });
        };
        if snap.epoch < state.0 {
            return Err(Miss::Behind);
        }
        let answer = self.catch_up(state, program, snap, cfg, budget, seq);
        if answer.is_err() {
            *guard = None;
            drop(guard);
            self.drop_view(&view);
        }
        answer.map_err(|spent| Miss::Absent { spent })
    }

    /// Bring a view's `(epoch, database)` forward to `snap` and read
    /// `program`'s goal rows from it. `Err` holds the fuel charged when
    /// the view cannot follow (the universe grew, or maintenance stopped
    /// or failed): the database may then be half-maintained and must be
    /// dropped.
    fn catch_up(
        &self,
        (epoch, db): &mut (u64, MaterializedDb),
        program: &Program,
        snap: &Snapshot,
        cfg: &EvalConfig,
        budget: &Budget,
        seq: u64,
    ) -> Result<CachedAnswer, u64> {
        if snap.structure.universe_size() != db.structure().universe_size() {
            return Err(0);
        }
        let (mut stages, mut fuel_spent) = (0, 0);
        if snap.epoch > *epoch {
            let (plus, minus) = EdbDelta::between(db.structure(), &snap.structure);
            let result = match program.evaluate_incremental_budgeted(db, &plus, &minus, cfg, budget)
            {
                Ok(Ok(result)) => result,
                Ok(Err(stopped)) => return Err(stopped.spent),
                Err(_) => return Err(0),
            };
            stages = result.stages;
            fuel_spent = result.profile.iter().map(|p| p.fuel).sum();
            // Between maintenance and the epoch stamp: a panic here leaves
            // the database ahead of its epoch, which the poisoned lock
            // keeps anyone from reading.
            fault_view(seq);
            db.adopt_relations(&snap.structure);
            *epoch = snap.epoch;
            self.catchups.fetch_add(1, Ordering::Relaxed);
        }
        let rows = goal_rows(program.goal_index().map(|g| db.idb(g)));
        Ok(CachedAnswer {
            rows,
            fuel_spent,
            stages,
        })
    }

    /// Build `program`'s view of `snap` under `budget` and answer from it.
    /// A build the budget stops is the evaluation stopped: `Err` holds its
    /// checkpoint, consumed at once on the partial-response path.
    #[allow(clippy::result_large_err)]
    pub(crate) fn build(
        &self,
        program: &Program,
        snap: &Snapshot,
        cfg: &EvalConfig,
        budget: &Budget,
    ) -> Result<CachedAnswer, Exhausted<EvalCheckpoint>> {
        // Materialize outside the registry lock: other programs' readers
        // are not held up by this one's build.
        let (db, report) =
            MaterializedDb::new_budgeted(program, snap.structure.clone(), cfg, budget)
                .expect("views hold positive programs over the snapshot's vocabulary")?;
        let answer = CachedAnswer {
            rows: goal_rows(program.goal_index().map(|g| db.idb(g))),
            fuel_spent: report.profile.iter().map(|p| p.fuel).sum(),
            stages: report.stages,
        };
        let hash = program_hash(program);
        let mut reg = self.registry();
        if reg.iter().any(|v| v.is_for(hash, program)) {
            return Ok(answer);
        }
        if reg.len() == MAX_VIEWS {
            reg.remove(0);
        }
        reg.push(Arc::new(View {
            hash,
            program: program.clone(),
            state: Mutex::new(Some((snap.epoch, db))),
        }));
        Ok(answer)
    }

    /// Drop `view`: the next request for its program builds it again.
    fn drop_view(&self, view: &Arc<View>) {
        self.registry().retain(|v| !Arc::ptr_eq(v, view));
    }
}

/// The view key: a hash of exactly what [`Program::same_rules`] compares,
/// the identity a view is maintained for.
fn program_hash(p: &Program) -> u64 {
    let mut h = DefaultHasher::new();
    p.edb().hash(&mut h);
    p.idbs().hash(&mut h);
    p.rules().hash(&mut h);
    h.finish()
}

/// Chaos-suite hook: panic at site `"serve.view"` in the middle of a
/// catch-up when the installed fault plan matches request `seq`.
#[cfg(any(test, feature = "fault-inject"))]
fn fault_view(seq: u64) {
    if hp_guard::fault::should_panic("serve.view", seq) {
        panic!("injected view catch-up fault at request {seq}");
    }
}

#[cfg(not(any(test, feature = "fault-inject")))]
fn fault_view(_seq: u64) {}
