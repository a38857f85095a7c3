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
//!   records it, with the fuel and time it cost. The next request for it
//!   takes the record. When the budget it has left covers that cost, it
//!   builds the view instead of evaluating
//!   ([`MaterializedDb::new_budgeted`], which derives the fixpoint by
//!   maintaining the empty database) under that budget, and answers from
//!   it: that request computes one fixpoint. Otherwise it evaluates as it
//!   would without views, and a completed evaluation records the program
//!   again. Every request after a build reads the view. At most
//!   [`MAX_VIEWS`] views, and as many recorded programs, are kept; the
//!   least recently used goes first.
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
//!   poisoned by a panic all miss: the caller evaluates as it would
//!   without views, partials and resume tokens included. The last three
//!   also drop the view and remember its program with its build's cost,
//!   so the same request rebuilds it when what its catch-up left of its
//!   budget covers that: after growth or a poisoned lock it usually
//!   does, after a catch-up that ran out it cannot, and evaluates. A
//!   build is polled after every round and stops there when its budget
//!   runs out; it is dropped, its program forgotten, and the request
//!   evaluates with the fuel and time it has left.
//!
//! [`Structure::shares_relation`]: hp_structures::Structure::shares_relation

use std::collections::hash_map::DefaultHasher;
use std::hash::{Hash, Hasher};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex, MutexGuard, PoisonError};
use std::time::{Duration, Instant};

use hp_datalog::{EdbDelta, EvalConfig, MaterializedDb, Program};
use hp_guard::Budget;

use crate::cache::CachedAnswer;
use crate::epoch::Snapshot;
use crate::service::goal_rows;

/// Most views held at once; as many programs with one completed
/// evaluation are remembered besides.
pub const MAX_VIEWS: usize = 16;

/// What one fixpoint of a program cost: the fuel charged and the time
/// taken. A recorded program is built only by a request whose budget
/// covers its cost.
#[derive(Clone, Copy, Debug)]
pub(crate) struct Cost {
    pub fuel: u64,
    pub time: Duration,
}

/// One program's maintained fixpoint.
struct View {
    hash: u64,
    program: Program,
    /// What its build cost.
    cost: Cost,
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
    /// Programs with one completed evaluation and no view, with what that
    /// fixpoint cost, oldest first.
    seen: Vec<(u64, Program, Cost)>,
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
    /// `snap`'s epoch under `budget` first. `Err` sends the caller down
    /// the evaluation path (see the module docs for when) with the fuel a
    /// failed catch-up charged, 0 when none ran. `seq` is the request's
    /// sequence number (the `"serve.view"` fault site's counter).
    pub(crate) fn read(
        &self,
        program: &Program,
        snap: &Snapshot,
        cfg: &EvalConfig,
        budget: &Budget,
        seq: u64,
    ) -> Result<CachedAnswer, u64> {
        let view = {
            let hash = program_hash(program);
            let mut reg = self.registry();
            let Some(i) = reg.views.iter().position(|v| v.is_for(hash, program)) else {
                return Err(0);
            };
            let view = reg.views.remove(i);
            reg.views.push(view.clone());
            view
        };
        let Ok(mut guard) = view.state.lock() else {
            self.drop_view(&view);
            return Err(0);
        };
        let Some(state) = guard.as_mut() else {
            return Err(0);
        };
        if snap.epoch < state.0 {
            return Err(0);
        }
        let answer = self.catch_up(state, program, snap, cfg, budget, seq);
        if answer.is_err() {
            *guard = None;
            drop(guard);
            self.drop_view(&view);
        }
        answer
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

    /// Note a completed evaluation of `program` that cost `cost`: the
    /// next request for it that can afford as much builds its view,
    /// unless one is held.
    pub(crate) fn record(&self, program: &Program, cost: Cost) {
        let hash = program_hash(program);
        let mut reg = self.registry();
        if !reg.has_view(hash, program) && reg.seen_at(hash, program).is_none() {
            reg.remember(hash, program.clone(), cost);
        }
    }

    /// What the fixpoint that recorded `program` cost, when one did and
    /// no view holds it. The record is taken: a request that does not
    /// build, or whose build stops, forgets the program.
    pub(crate) fn take_recorded(&self, program: &Program) -> Option<Cost> {
        let hash = program_hash(program);
        let mut reg = self.registry();
        if reg.has_view(hash, program) {
            return None;
        }
        let i = reg.seen_at(hash, program)?;
        Some(reg.seen.remove(i).2)
    }

    /// Build `program`'s view of `snap` under `budget` and answer from it.
    /// A build the budget stops is dropped; `Err` holds the fuel it spent.
    pub(crate) fn build(
        &self,
        program: &Program,
        snap: &Snapshot,
        cfg: &EvalConfig,
        budget: &Budget,
    ) -> Result<CachedAnswer, u64> {
        // Materialize outside the registry lock: other programs' readers
        // are not held up by this one's build.
        let started = Instant::now();
        let built = MaterializedDb::new_budgeted(program, snap.structure.clone(), cfg, budget);
        let (db, report) = match built {
            Ok(Ok(built)) => built,
            Ok(Err(stopped)) => return Err(stopped.spent),
            // Unreachable: views hold positive programs over the
            // snapshot's vocabulary.
            Err(_) => return Err(0),
        };
        let cost = Cost {
            fuel: report.profile.iter().map(|p| p.fuel).sum(),
            time: started.elapsed(),
        };
        let answer = CachedAnswer {
            rows: goal_rows(program.goal_index().map(|g| db.idb(g))),
            fuel_spent: cost.fuel,
            stages: report.stages,
        };
        let hash = program_hash(program);
        let view = Arc::new(View {
            hash,
            program: program.clone(),
            cost,
            state: Mutex::new(Some((snap.epoch, db))),
        });
        let mut reg = self.registry();
        if reg.has_view(hash, program) {
            return Ok(answer);
        }
        if reg.views.len() == MAX_VIEWS {
            let evicted = reg.views.remove(0);
            reg.remember(evicted.hash, evicted.program.clone(), evicted.cost);
        }
        reg.views.push(view);
        Ok(answer)
    }

    /// Drop `view`, remembering its program so the next request for it
    /// rebuilds it.
    fn drop_view(&self, view: &Arc<View>) {
        let mut reg = self.registry();
        let before = reg.views.len();
        reg.views.retain(|v| !Arc::ptr_eq(v, view));
        if reg.views.len() < before {
            reg.remember(view.hash, view.program.clone(), view.cost);
        }
    }
}

impl Registry {
    fn has_view(&self, hash: u64, program: &Program) -> bool {
        self.views.iter().any(|v| v.is_for(hash, program))
    }

    /// Where `program` sits among the recorded programs.
    fn seen_at(&self, hash: u64, program: &Program) -> Option<usize> {
        (self.seen.iter()).position(|(h, p, _)| *h == hash && p.same_rules(program))
    }

    fn remember(&mut self, hash: u64, program: Program, cost: Cost) {
        if self.seen.len() == MAX_VIEWS {
            self.seen.remove(0);
        }
        self.seen.push((hash, program, cost));
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
