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
//! * **Lifecycle.** The first completed evaluation of a program only
//!   records it. The second also builds a view
//!   ([`MaterializedDb::new_with`], which derives the fixpoint again by
//!   maintaining the empty database), so that request pays for two
//!   fixpoints; every later one reads the view. At most [`MAX_VIEWS`]
//!   views, and as many recorded programs, are kept; the least recently
//!   used goes first.
//! * **Catch-up.** Epochs are copy-on-write, so a relation no write
//!   touched since the view's epoch is the same allocation in the
//!   reader's snapshot ([`Structure::shares_relation`]). Only the
//!   relations that differ are diffed into one insertion/deletion batch
//!   ([`EdbDelta::between`]), folded in by one budgeted maintenance run
//!   under the view's lock. The view then adopts the snapshot's relations,
//!   so the next catch-up again diffs only what was written since. No
//!   update log is kept.
//! * **Fallback.** A reader pinned before the view's epoch, a snapshot
//!   whose universe grew, a catch-up that runs out of budget, and a lock
//!   poisoned by a panic all get `None`: the caller evaluates as it would
//!   without views, partials and resume tokens included. The last three
//!   also drop the view, and the next completed evaluation rebuilds it.
//!
//! [`Structure::shares_relation`]: hp_structures::Structure::shares_relation

use std::collections::hash_map::DefaultHasher;
use std::hash::{Hash, Hasher};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex, MutexGuard, PoisonError};

use hp_datalog::{EdbDelta, EvalConfig, FixpointResult, MaterializedDb, Program};
use hp_guard::Budget;
use hp_structures::Elem;

use crate::cache::CachedAnswer;
use crate::epoch::Snapshot;
use crate::service::goal_rows;

/// Most views held at once; as many programs with one completed
/// evaluation are remembered besides.
pub const MAX_VIEWS: usize = 16;

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

#[derive(Default)]
struct Registry {
    /// Programs with one completed evaluation and no view, oldest first.
    seen: Vec<(u64, Program)>,
    /// Built views, least recently used first.
    views: Vec<Arc<View>>,
}

/// The service's maintained views. See the [module docs](self).
#[derive(Default)]
pub struct ViewRegistry {
    inner: Mutex<Registry>,
    catchups: AtomicU64,
}

impl ViewRegistry {
    /// Views currently held.
    pub fn len(&self) -> usize {
        self.registry().views.len()
    }

    /// True when no view is held.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Catch-ups that brought a view forward to a reader's epoch, so far.
    pub fn catchups(&self) -> u64 {
        self.catchups.load(Ordering::Relaxed)
    }

    fn registry(&self) -> MutexGuard<'_, Registry> {
        // Registry updates are single pushes and removals: a panic cannot
        // leave it half-written, so a poisoned lock is safe to reuse.
        self.inner.lock().unwrap_or_else(PoisonError::into_inner)
    }

    /// The answer to `program` on `snap` from its view, caught up to
    /// `snap`'s epoch under `budget` first. `None` sends the caller down
    /// the evaluation path; see the module docs for when. `seq` is the
    /// request's sequence number (the `"serve.view"` fault site's
    /// counter).
    pub(crate) fn read(
        &self,
        program: &Program,
        snap: &Snapshot,
        cfg: &EvalConfig,
        budget: &Budget,
        seq: u64,
    ) -> Option<CachedAnswer> {
        let view = {
            let hash = program_hash(program);
            let mut reg = self.registry();
            let i = reg.views.iter().position(|v| v.is_for(hash, program))?;
            let view = reg.views.remove(i);
            reg.views.push(view.clone());
            view
        };
        let Ok(mut guard) = view.state.lock() else {
            self.drop_view(&view);
            return None;
        };
        let state = guard.as_mut()?;
        if snap.epoch < state.0 {
            return None;
        }
        let answer = self.catch_up(state, program, snap, cfg, budget, seq);
        if answer.is_none() {
            *guard = None;
            drop(guard);
            self.drop_view(&view);
        }
        answer
    }

    /// Bring a view's `(epoch, database)` forward to `snap` and read
    /// `program`'s goal rows from it. `None` when the view cannot follow
    /// (the universe grew, or maintenance stopped or failed): the
    /// database may then be half-maintained and must be dropped.
    fn catch_up(
        &self,
        (epoch, db): &mut (u64, MaterializedDb),
        program: &Program,
        snap: &Snapshot,
        cfg: &EvalConfig,
        budget: &Budget,
        seq: u64,
    ) -> Option<CachedAnswer> {
        if snap.structure.universe_size() != db.structure().universe_size() {
            return None;
        }
        let (mut stages, mut fuel_spent) = (0, 0);
        if snap.epoch > *epoch {
            let (plus, minus) = EdbDelta::between(db.structure(), &snap.structure);
            let result = program
                .evaluate_incremental_budgeted(db, &plus, &minus, cfg, budget)
                .ok()?
                .ok()?;
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
        Some(CachedAnswer {
            rows,
            fuel_spent,
            stages,
        })
    }

    /// Note a completed evaluation of `program` on `snap`, whose result is
    /// `result`. The first for a program only records it; the second
    /// builds a view under `cfg`. Returns the goal rows, read from the new
    /// view when this call built one and from `result` otherwise, with
    /// true when it built one.
    pub(crate) fn record(
        &self,
        program: &Program,
        snap: &Snapshot,
        result: FixpointResult,
        cfg: &EvalConfig,
    ) -> (Vec<Vec<Elem>>, bool) {
        match self.build(program, snap, cfg) {
            Some(rows) => (rows, true),
            None => (goal_rows(result.goal()), false),
        }
    }

    /// [`record`](Self::record)'s bookkeeping: the new view's goal rows,
    /// or `None` when no view was built.
    fn build(
        &self,
        program: &Program,
        snap: &Snapshot,
        cfg: &EvalConfig,
    ) -> Option<Vec<Vec<Elem>>> {
        let hash = program_hash(program);
        {
            let mut reg = self.registry();
            if reg.views.iter().any(|v| v.is_for(hash, program)) {
                return None;
            }
            match reg
                .seen
                .iter()
                .position(|(h, p)| *h == hash && p.same_rules(program))
            {
                Some(i) => {
                    reg.seen.remove(i);
                }
                None => {
                    reg.remember(hash, program.clone());
                    return None;
                }
            }
        }
        // Materialize outside the registry lock: other programs' readers
        // are not held up by this one's build.
        let db = MaterializedDb::new_with(program, snap.structure.clone(), cfg).ok()?;
        let rows = goal_rows(program.goal_index().map(|g| db.idb(g)));
        let view = Arc::new(View {
            hash,
            program: program.clone(),
            state: Mutex::new(Some((snap.epoch, db))),
        });
        let mut reg = self.registry();
        if reg.views.iter().any(|v| v.is_for(hash, program)) {
            return Some(rows);
        }
        if reg.views.len() == MAX_VIEWS {
            let evicted = reg.views.remove(0);
            reg.remember(evicted.hash, evicted.program.clone());
        }
        reg.views.push(view);
        Some(rows)
    }

    /// Drop `view`, remembering its program so the next completed
    /// evaluation rebuilds it.
    fn drop_view(&self, view: &Arc<View>) {
        let mut reg = self.registry();
        let before = reg.views.len();
        reg.views.retain(|v| !Arc::ptr_eq(v, view));
        if reg.views.len() < before {
            reg.remember(view.hash, view.program.clone());
        }
    }
}

impl Registry {
    fn remember(&mut self, hash: u64, program: Program) {
        if self.seen.len() == MAX_VIEWS {
            self.seen.remove(0);
        }
        self.seen.push((hash, program));
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
