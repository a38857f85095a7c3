//! The request pipeline: admission → budget → cache → epoch-pinned
//! evaluation, with bounded retry and typed degradation.
//!
//! [`QueryService::handle`] is the whole service minus the socket: the
//! binary wraps it in a Unix-socket front door, the bench drives it
//! in-process, and the chaos suite hammers it with injected faults. Every
//! path through `handle` terminates with a typed [`Response`]:
//!
//! * **full answer** — epoch-consistent rows, possibly from the cache
//!   (identical `CanonicalCoreKey` + identical epoch ⇒ identical answer
//!   set, by the Chandra–Merlin core argument), or, for a recursive
//!   positive program, from its maintained [view](crate::view) caught up
//!   to the pinned epoch;
//! * **budget partial** — the rows derived before fuel or the deadline
//!   ran out, a *sound lower bound* on the answer (semi-naive stages are
//!   monotone), plus a resume token that continues the very same
//!   computation on the very same pinned epoch;
//! * **overloaded / fault / error** — typed rejections.
//!
//! A worker panic (injected or real) is caught, the request retried once
//! after a short backoff, and only a second failure surfaces — as a typed
//! fault, never a hang or a poisoned lock.

use std::collections::HashMap;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex};
use std::time::{Duration, Instant};

use hp_analysis::goal_core_key;
use hp_datalog::{EvalCheckpoint, EvalConfig, FixpointResult, IdbRelation, PredRef, Program};
use hp_guard::{Budget, Interrupt, Resource};
use hp_logic::{parse_formula, ucq_of_existential_positive, Ucq};
use hp_structures::{Elem, Structure, SymbolId};

use crate::admission::AdmissionGate;
use crate::cache::{AnswerCache, CachedAnswer, Claim, Footprint};
use crate::epoch::{EpochStore, Snapshot, UpdateBatch, WriteError};
use crate::protocol::{CacheOutcome, QueryRequest, Request, Response};
use crate::view::{Miss, ViewRegistry};

/// Tuning knobs for a [`QueryService`].
#[derive(Clone, Debug)]
pub struct ServiceConfig {
    /// Deadline applied when a query carries no `timeout_ms`.
    pub default_timeout_ms: u64,
    /// Fuel applied when a query carries no `fuel`.
    pub default_fuel: u64,
    /// Admission: maximum requests in flight before shedding.
    pub max_depth: u64,
    /// Admission: maximum summed outstanding deadlines (ms) before
    /// shedding.
    pub max_debt_ms: u64,
    /// Fuel granted to canonical-core key computation; exhaustion here
    /// degrades to a cache bypass, not a failed request.
    pub key_fuel: u64,
}

/// Worker threads inside one evaluation (see [`EvalConfig::threads`]):
/// requests are already concurrent with each other.
const EVAL_THREADS: usize = 1;

/// Cap on outstanding resume tokens (oldest evicted first).
const MAX_RESUME_TOKENS: usize = 256;

impl Default for ServiceConfig {
    fn default() -> Self {
        ServiceConfig {
            default_timeout_ms: 2_000,
            default_fuel: 5_000_000,
            max_depth: 64,
            max_debt_ms: 120_000,
            key_fuel: 100_000,
        }
    }
}

/// A stashed budget-partial: enough to continue the exact computation.
/// Holding the snapshot `Arc` keeps the epoch alive until the client
/// resumes or the token is evicted.
struct ResumeSlot {
    program: Program,
    snapshot: Arc<Snapshot>,
    checkpoint: EvalCheckpoint,
}

#[derive(Default)]
struct ResumeStore {
    slots: HashMap<String, ResumeSlot>,
    order: Vec<String>,
}

/// An evaluation that stopped before completing: which resource ran out,
/// and (for Datalog fixpoints) the round-boundary checkpoint to resume
/// from. Formula queries have no stage structure to checkpoint.
struct Stopped {
    resource: Resource,
    checkpoint: Option<EvalCheckpoint>,
}

impl From<hp_guard::Exhausted<EvalCheckpoint>> for Stopped {
    fn from(exhausted: hp_guard::Exhausted<EvalCheckpoint>) -> Stopped {
        Stopped {
            resource: exhausted.resource,
            checkpoint: Some(exhausted.partial),
        }
    }
}

/// An evaluation outcome after cache resolution.
enum Outcome {
    Answer(CachedAnswer, CacheOutcome),
    Stopped(Stopped),
}

/// The concurrent query service. Share it behind an `Arc`.
pub struct QueryService {
    store: EpochStore,
    cache: AnswerCache,
    views: ViewRegistry,
    gate: AdmissionGate,
    cfg: ServiceConfig,
    resumes: Mutex<ResumeStore>,
    seq: AtomicU64,
    /// Full fixpoints computed: completed evaluations and view builds.
    fixpoints: AtomicU64,
}

impl QueryService {
    /// A service over `seed` as epoch 0.
    pub fn new(seed: Structure, cfg: ServiceConfig) -> Self {
        let cache = AnswerCache::new();
        QueryService {
            store: EpochStore::new(seed, cache.clone()),
            cache,
            views: ViewRegistry::default(),
            gate: AdmissionGate::new(cfg.max_depth, cfg.max_debt_ms),
            cfg,
            resumes: Mutex::new(ResumeStore::default()),
            seq: AtomicU64::new(0),
            fixpoints: AtomicU64::new(0),
        }
    }

    /// The admission gate (exposed for stats and tests).
    pub fn gate(&self) -> &AdmissionGate {
        &self.gate
    }

    /// The answer cache (exposed for stats and tests).
    pub fn cache(&self) -> &AnswerCache {
        &self.cache
    }

    /// The epoch store (exposed for tests and the bench).
    pub fn epochs(&self) -> &EpochStore {
        &self.store
    }

    /// The maintained views (exposed for stats and tests).
    pub fn views(&self) -> &ViewRegistry {
        &self.views
    }

    /// Handle one request to a typed response. `interrupt` is the
    /// caller's cancellation token (wired to connection drop and drain by
    /// the server); triggering it stops in-flight evaluation at the next
    /// gauge poll.
    pub fn handle(&self, req: &Request, interrupt: &Interrupt) -> Response {
        match req {
            Request::Query(q) => self.handle_query(q, None, interrupt),
            Request::Update(batch) => self.handle_update(batch),
            Request::Stats => self.handle_stats(),
            Request::Shutdown => Response::Bye,
        }
    }

    /// Answer `q` on `snap` instead of on the epoch current at admission:
    /// the request of a reader that pinned `snap` before later writes
    /// published, such as a client asking several queries of one epoch.
    /// Admission, budget, retry, cache and views apply as in
    /// [`handle`](Self::handle); a resume continues on its own epoch. An
    /// answer cached for an epoch the writer already retired stays until
    /// the next write retires it again.
    pub fn query_at(
        &self,
        q: &QueryRequest,
        snap: &Arc<Snapshot>,
        interrupt: &Interrupt,
    ) -> Response {
        self.handle_query(q, Some(snap), interrupt)
    }

    fn handle_stats(&self) -> Response {
        let (cache_hits, cache_misses, coalesced) = self.cache.stats();
        let snap = self.store.pin();
        Response::Stats {
            epoch: snap.epoch,
            cache_hits,
            cache_misses,
            coalesced,
            cache_carried: self.cache.carried(),
            views: self.views.len() as u64,
            view_catchups: self.views.catchups(),
            fixpoints: self.fixpoints.load(Ordering::Relaxed),
            admitted: self.gate.admitted_count(),
            shed: self.gate.shed_count(),
            depth: self.gate.depth(),
            snapshot_bytes: snap.structure.heap_bytes() as u64,
        }
    }

    fn handle_update(&self, batch: &UpdateBatch) -> Response {
        // The writer gets the same bounded-retry treatment as a query
        // worker: a transient panic (fault injection) is retried once —
        // the epoch store guarantees a failed batch published nothing, so
        // the retry is safe — and a second failure surfaces typed.
        let mut retried = false;
        loop {
            match self.store.apply(batch) {
                Ok(epoch) => {
                    // Keep cache entries for the new epoch and its
                    // predecessor (still-pinned readers), retire older.
                    self.cache.retire_before(epoch.saturating_sub(1));
                    return Response::Updated { epoch };
                }
                Err(WriteError::WriterPanic) if !retried => {
                    retried = true;
                    std::thread::sleep(Duration::from_millis(1));
                }
                Err(WriteError::WriterPanic) => {
                    return Response::Fault {
                        message: "writer panicked applying the batch".to_string(),
                        retried: true,
                    }
                }
                Err(e) => {
                    return Response::Error {
                        message: e.to_string(),
                    }
                }
            }
        }
    }

    fn handle_query(
        &self,
        q: &QueryRequest,
        pinned: Option<&Arc<Snapshot>>,
        interrupt: &Interrupt,
    ) -> Response {
        let timeout_ms = q.timeout_ms.unwrap_or(self.cfg.default_timeout_ms);
        let fuel = q.fuel.unwrap_or(self.cfg.default_fuel);
        let _permit = match self.gate.try_admit(timeout_ms) {
            Ok(p) => p,
            Err(over) => return Response::Overloaded(over),
        };
        let deadline = Instant::now() + Duration::from_millis(timeout_ms);
        let seq = self.seq.fetch_add(1, Ordering::Relaxed);

        // Bounded retry: a panicking attempt (worker fault) is retried
        // exactly once after a short backoff; a second panic is a typed
        // fault. The catch_unwind boundary also guarantees that cache
        // leadership held by the failing attempt is released by RAII
        // (LeaderGuard::drop), so followers re-claim instead of hanging.
        let mut retried = false;
        loop {
            let attempt = catch_unwind(AssertUnwindSafe(|| {
                self.attempt_query(q, pinned, interrupt, fuel, deadline, seq)
            }));
            match attempt {
                Ok(resp) => return resp,
                Err(_) if !retried && Instant::now() < deadline => {
                    retried = true;
                    std::thread::sleep(Duration::from_millis(1));
                }
                Err(_) => {
                    return Response::Fault {
                        message: format!("worker panicked evaluating request {seq}"),
                        retried,
                    }
                }
            }
        }
    }

    /// One evaluation attempt. May panic — the caller holds the retry
    /// boundary.
    fn attempt_query(
        &self,
        q: &QueryRequest,
        pinned: Option<&Arc<Snapshot>>,
        interrupt: &Interrupt,
        fuel: u64,
        deadline: Instant,
        seq: u64,
    ) -> Response {
        fault_worker(seq);

        if let Some(token) = &q.resume {
            return self.resume_query(token, fuel, deadline, interrupt);
        }

        let snap = pinned.cloned().unwrap_or_else(|| self.store.pin());
        let eval_budget = request_budget(fuel, deadline, interrupt);
        let remaining = deadline.saturating_duration_since(Instant::now());

        // Key computation gets its own small fuel allowance: exhaustion
        // degrades to a cache bypass (the request still runs), and the
        // request budget stays fully available for evaluation.
        let key_budget = Budget::fuel(self.cfg.key_fuel)
            .with_wall_clock(remaining)
            .with_interrupt(interrupt.clone());

        if let Some(formula) = &q.formula {
            return self.formula_query(
                formula,
                &snap,
                &key_budget,
                &eval_budget,
                deadline,
                q.no_cache,
            );
        }

        let program = match Program::parse(
            q.program.as_deref().expect("protocol validated"),
            snap.structure.vocab(),
        ) {
            Ok(p) => p,
            Err(e) => {
                return Response::Error {
                    message: format!("bad program: {e}"),
                }
            }
        };
        if program.goal_index().is_none() {
            return Response::Error {
                message: "program needs a goal (`# goal:` pragma or an IDB named Goal)".to_string(),
            };
        }

        // Recursive programs yield Ok(None): the positive ones are served
        // from a maintained view. Key-budget exhaustion yields Err and
        // degrades to a bypass.
        let key = if q.no_cache {
            None
        } else {
            match goal_core_key(&program, &key_budget) {
                Ok(None) if !program.has_negation() => {
                    return self.view_query(&program, &snap, fuel, deadline, interrupt, seq);
                }
                key => key.ok().flatten().map(|k| k.as_u128()),
            }
        };

        let eval_cfg = self.eval_config();
        // A stop carries its whole checkpoint by design: it is consumed
        // once, immediately, on the partial-response path — not stored.
        #[allow(clippy::result_large_err)]
        let evaluate = |budget: &Budget| -> Result<CachedAnswer, Stopped> {
            program
                .evaluate_budgeted(&snap.structure, &eval_cfg, budget)
                .map(|result| self.fixpoint_answer(&result))
                .map_err(Stopped::from)
        };

        let footprint = program_footprint(&program);
        let outcome = self.cached_eval(key, footprint, &snap, deadline, &eval_budget, evaluate);
        match outcome {
            Outcome::Answer(ans, cache) => answer(snap.epoch, ans, cache),
            Outcome::Stopped(stopped) => self.stash_partial(&program, &snap, stopped),
        }
    }

    /// A recursive positive program: read its maintained view, or build
    /// one under what the read left of the request's budget. A build the
    /// budget stops returns the evaluation's partial and resume token. A
    /// reader behind the view evaluates and builds nothing.
    fn view_query(
        &self,
        program: &Program,
        snap: &Arc<Snapshot>,
        fuel: u64,
        deadline: Instant,
        interrupt: &Interrupt,
        seq: u64,
    ) -> Response {
        let cfg = self.eval_config();
        let budget = request_budget(fuel, deadline, interrupt);
        let stopped = match self.views.read(program, snap, &cfg, &budget, seq) {
            Ok(ans) => return answer(snap.epoch, ans, CacheOutcome::View),
            Err(Miss::Behind) => match program.evaluate_budgeted(&snap.structure, &cfg, &budget) {
                Ok(result) => {
                    let ans = self.fixpoint_answer(&result);
                    return answer(snap.epoch, ans, CacheOutcome::Bypass);
                }
                Err(exhausted) => exhausted,
            },
            Err(Miss::Absent { spent }) => {
                let budget = request_budget(fuel.saturating_sub(spent), deadline, interrupt);
                match self.views.build(program, snap, &cfg, &budget) {
                    Ok(ans) => {
                        self.fixpoints.fetch_add(1, Ordering::Relaxed);
                        return answer(snap.epoch, ans, CacheOutcome::View);
                    }
                    Err(exhausted) => exhausted,
                }
            }
        };
        self.stash_partial(program, snap, Stopped::from(stopped))
    }

    fn eval_config(&self) -> EvalConfig {
        EvalConfig::new().with_threads(EVAL_THREADS)
    }

    /// The answer of a completed evaluation, counted as a fixpoint.
    fn fixpoint_answer(&self, result: &FixpointResult) -> CachedAnswer {
        self.fixpoints.fetch_add(1, Ordering::Relaxed);
        CachedAnswer {
            rows: goal_rows(result.goal()),
            fuel_spent: fixpoint_fuel(result),
            stages: result.stages,
        }
    }

    /// Run `evaluate` under the single-flight cache discipline for `key`
    /// (bypassing when `key` is `None`), publishing with `footprint`.
    fn cached_eval(
        &self,
        key: Option<u128>,
        footprint: Footprint,
        snap: &Arc<Snapshot>,
        deadline: Instant,
        eval_budget: &Budget,
        evaluate: impl Fn(&Budget) -> Result<CachedAnswer, Stopped>,
    ) -> Outcome {
        let Some(key) = key else {
            return match evaluate(eval_budget) {
                Ok(ans) => Outcome::Answer(ans, CacheOutcome::Bypass),
                Err(stopped) => Outcome::Stopped(stopped),
            };
        };

        // Losing the single-flight race (leader stuck past our wait) is
        // retried once with a fresh claim; a second loss degrades to a
        // direct, uncached evaluation — never a hang.
        let mut race_losses = 0;
        loop {
            let wait = deadline.saturating_duration_since(Instant::now());
            match self.cache.claim(key, snap.epoch, wait) {
                Claim::Hit { answer, waited } => {
                    let outcome = if waited {
                        CacheOutcome::Coalesced
                    } else {
                        CacheOutcome::Hit
                    };
                    return Outcome::Answer((*answer).clone(), outcome);
                }
                Claim::Leader(guard) => {
                    return match evaluate(eval_budget) {
                        Ok(ans) => {
                            let published = guard.publish(ans, footprint);
                            Outcome::Answer((*published).clone(), CacheOutcome::Miss)
                        }
                        Err(stopped) => {
                            // Abandon leadership (drop wakes followers)
                            // so a request with a bigger budget can take
                            // over; partials are never cached.
                            drop(guard);
                            Outcome::Stopped(stopped)
                        }
                    };
                }
                Claim::TimedOut if race_losses == 0 => {
                    race_losses += 1;
                    std::thread::sleep(Duration::from_millis(1));
                }
                Claim::TimedOut => {
                    return match evaluate(eval_budget) {
                        Ok(ans) => Outcome::Answer(ans, CacheOutcome::Bypass),
                        Err(stopped) => Outcome::Stopped(stopped),
                    };
                }
            }
        }
    }

    /// Turn an exhausted evaluation into a `partial` response, stashing a
    /// resume token when the stop is resumable. Interrupt stops get no
    /// token (the client is gone or the service is draining); neither do
    /// formula stops (no checkpoint exists).
    fn stash_partial(&self, program: &Program, snap: &Arc<Snapshot>, stopped: Stopped) -> Response {
        let Stopped {
            resource,
            checkpoint,
        } = stopped;
        let (rows, fuel_spent) = match &checkpoint {
            Some(cp) => (goal_rows(cp.partial.goal()), cp.fuel_spent()),
            None => (Vec::new(), 0),
        };
        let resume = match checkpoint {
            Some(cp) if resource != Resource::Interrupt => {
                let token = format!("r{:x}", self.seq.fetch_add(1, Ordering::Relaxed));
                let mut store = self.resumes.lock().unwrap_or_else(|e| e.into_inner());
                while store.order.len() >= MAX_RESUME_TOKENS {
                    let evict = store.order.remove(0);
                    store.slots.remove(&evict);
                }
                store.order.push(token.clone());
                store.slots.insert(
                    token.clone(),
                    ResumeSlot {
                        program: program.clone(),
                        snapshot: snap.clone(),
                        checkpoint: cp,
                    },
                );
                Some(token)
            }
            _ => None,
        };
        Response::Partial {
            epoch: snap.epoch,
            resource: resource.to_string(),
            rows,
            resume,
            fuel_spent,
        }
    }

    fn resume_query(
        &self,
        token: &str,
        fuel: u64,
        deadline: Instant,
        interrupt: &Interrupt,
    ) -> Response {
        let slot = {
            let mut store = self.resumes.lock().unwrap_or_else(|e| e.into_inner());
            match store.slots.remove(token) {
                Some(s) => {
                    store.order.retain(|t| t != token);
                    s
                }
                None => {
                    return Response::Error {
                        message: format!("unknown or expired resume token {token:?}"),
                    }
                }
            }
        };
        let budget = request_budget(fuel, deadline, interrupt);
        // The resumed run continues on the slot's pinned snapshot — the
        // epoch the partial was computed on — even if later epochs have
        // been published meanwhile: a resume chain is one computation.
        match slot.program.resume_budgeted(
            &slot.snapshot.structure,
            &self.eval_config(),
            slot.checkpoint,
            &budget,
        ) {
            Ok(Ok(result)) => answer(
                slot.snapshot.epoch,
                self.fixpoint_answer(&result),
                CacheOutcome::Bypass,
            ),
            Ok(Err(exhausted)) => {
                self.stash_partial(&slot.program, &slot.snapshot, Stopped::from(exhausted))
            }
            Err(e) => Response::Error {
                message: format!("resume rejected: {e}"),
            },
        }
    }

    fn formula_query(
        &self,
        formula: &str,
        snap: &Arc<Snapshot>,
        key_budget: &Budget,
        eval_budget: &Budget,
        deadline: Instant,
        no_cache: bool,
    ) -> Response {
        let vocab = snap.structure.vocab();
        let ucq = match parse_formula(formula, vocab)
            .map_err(|e| e.to_string())
            .and_then(|(f, _)| ucq_of_existential_positive(&f, vocab))
        {
            Ok(u) => u,
            Err(e) => {
                return Response::Error {
                    message: format!("bad formula: {e}"),
                }
            }
        };

        let key = if no_cache {
            None
        } else {
            let mut gauge = key_budget.gauge();
            ucq.canonical_core_key_gauged(&mut gauge)
                .ok()
                .map(|k| k.as_u128())
        };

        #[allow(clippy::result_large_err)]
        let evaluate = |budget: &Budget| -> Result<CachedAnswer, Stopped> {
            // UCQ answering is one polynomial pass with no stage
            // structure to checkpoint: honor deadline/interrupt at the
            // boundary and charge one fuel unit per answer row after the
            // fact. Going over fuel *after* the pass keeps the complete
            // answer (sound, and cheaper than discarding it).
            let mut gauge = budget.gauge();
            if let Err(stop) = gauge.check() {
                return Err(Stopped {
                    resource: stop.resource,
                    checkpoint: None,
                });
            }
            let rows = ucq.answers(&snap.structure);
            let _ = gauge.tick(1 + rows.len() as u64);
            Ok(CachedAnswer {
                fuel_spent: gauge.spent(),
                stages: 0,
                rows,
            })
        };

        let footprint = ucq_footprint(&ucq);
        match self.cached_eval(key, footprint, snap, deadline, eval_budget, evaluate) {
            Outcome::Answer(ans, cache) => answer(snap.epoch, ans, cache),
            Outcome::Stopped(stopped) => Response::Partial {
                epoch: snap.epoch,
                resource: stopped.resource.to_string(),
                rows: Vec::new(),
                resume: None,
                fuel_spent: 0,
            },
        }
    }
}

/// A program's read footprint: every EDB symbol of any body literal,
/// positive or negated.
fn program_footprint(program: &Program) -> Footprint {
    let syms = program
        .rules()
        .iter()
        .flat_map(|r| &r.body)
        .filter_map(|a| match a.pred {
            PredRef::Edb(s) => Some(s),
            PredRef::Idb(_) => None,
        });
    sorted(syms)
}

/// A UCQ's read footprint: every symbol with a tuple in some disjunct's
/// canonical structure.
fn ucq_footprint(ucq: &Ucq) -> Footprint {
    let syms = ucq.disjuncts().iter().flat_map(|cq| {
        cq.canonical()
            .relations()
            .filter(|(_, rel)| !rel.is_empty())
            .map(|(s, _)| s)
    });
    sorted(syms)
}

fn sorted(syms: impl Iterator<Item = SymbolId>) -> Arc<[SymbolId]> {
    let mut syms: Vec<SymbolId> = syms.collect();
    syms.sort_unstable();
    syms.dedup();
    syms.into()
}

pub(crate) fn goal_rows(goal: Option<&IdbRelation>) -> Vec<Vec<Elem>> {
    goal.map(|g| g.iter().map(|t| t.to_vec()).collect())
        .unwrap_or_default()
}

/// The budget of a request that has `fuel` to spend by `deadline`.
fn request_budget(fuel: u64, deadline: Instant, interrupt: &Interrupt) -> Budget {
    Budget::fuel(fuel)
        .with_wall_clock(deadline.saturating_duration_since(Instant::now()))
        .with_interrupt(interrupt.clone())
}

/// The fuel a completed evaluation was charged, mirroring the evaluator:
/// one unit per round, one per derived tuple, and one per stratum for the
/// round 0 that seeds it (once per stratum across a resume chain too).
fn fixpoint_fuel(result: &FixpointResult) -> u64 {
    let derived: u64 = result.relations.iter().map(|r| r.len() as u64).sum();
    (result.stages + result.profile.len()) as u64 + derived
}

fn answer(epoch: u64, ans: CachedAnswer, cache: CacheOutcome) -> Response {
    Response::Answer {
        epoch,
        rows: ans.rows,
        cache,
        stages: ans.stages,
        fuel_spent: ans.fuel_spent,
    }
}

/// Chaos-suite hook: panic at site `"serve.worker"` when the installed
/// fault plan matches this request's sequence number. Checked once per
/// *attempt*, so a one-shot `panic_at` kills the first attempt and the
/// retry succeeds, while a `panic_span` covering the sequence kills both.
#[cfg(any(test, feature = "fault-inject"))]
fn fault_worker(seq: u64) {
    if hp_guard::fault::should_panic("serve.worker", seq) {
        panic!("injected worker fault at request {seq}");
    }
}

#[cfg(not(any(test, feature = "fault-inject")))]
fn fault_worker(_seq: u64) {}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::protocol::parse_request;
    use hp_structures::Vocabulary;

    fn seed() -> Structure {
        // A 5-element path 0→1→2→3→4 over the digraph vocabulary.
        let mut s = Structure::new(Vocabulary::digraph(), 5);
        let e = s.vocab().lookup("E").unwrap();
        for i in 0..4u32 {
            s.add_tuple(e, &[Elem(i), Elem(i + 1)]).unwrap();
        }
        s
    }

    fn service() -> QueryService {
        QueryService::new(seed(), ServiceConfig::default())
    }

    fn query(svc: &QueryService, line: &str) -> Response {
        svc.handle(&parse_request(line).unwrap(), &Interrupt::new())
    }

    #[test]
    fn datalog_query_answers_and_caches() {
        let svc = service();
        let q = "{\"op\":\"query\",\"program\":\"Goal(x,y) :- E(x,y).\"}";
        match query(&svc, q) {
            Response::Answer {
                rows, cache, epoch, ..
            } => {
                assert_eq!(epoch, 0);
                assert_eq!(rows.len(), 4);
                assert_eq!(cache, CacheOutcome::Miss);
            }
            other => panic!("{other:?}"),
        }
        // A renamed-variable duplicate hits the same cache entry.
        let renamed = "{\"op\":\"query\",\"program\":\"Goal(u,v) :- E(u,v).\"}";
        match query(&svc, renamed) {
            Response::Answer { rows, cache, .. } => {
                assert_eq!(rows.len(), 4);
                assert_eq!(cache, CacheOutcome::Hit);
            }
            other => panic!("{other:?}"),
        }
    }

    #[test]
    fn update_publishes_new_epoch_and_answers_move() {
        let svc = service();
        let q = "{\"op\":\"query\",\"program\":\"Goal(x,y) :- E(x,y).\"}";
        assert!(matches!(query(&svc, q), Response::Answer { epoch: 0, .. }));

        match query(&svc, "{\"op\":\"update\",\"insert\":{\"E\":[[4,0]]}}") {
            Response::Updated { epoch } => assert_eq!(epoch, 1),
            other => panic!("{other:?}"),
        }
        match query(&svc, q) {
            Response::Answer {
                epoch, rows, cache, ..
            } => {
                assert_eq!(epoch, 1);
                assert_eq!(rows.len(), 5, "new tuple visible on the new epoch");
                assert_eq!(cache, CacheOutcome::Miss, "old epoch's entry not reused");
            }
            other => panic!("{other:?}"),
        }
    }

    #[test]
    fn answers_survive_writes_that_miss_their_footprint() {
        let vocab = Vocabulary::from_pairs([("E", 2), ("S", 1)]);
        let mut seed = Structure::new(vocab, 4);
        seed.add_tuple_ids(0, &[0, 1]).unwrap();
        let svc = QueryService::new(seed, ServiceConfig::default());
        let reads_e = "{\"op\":\"query\",\"program\":\"Goal(x,y) :- E(x,y).\"}";
        let reads_s = "{\"op\":\"query\",\"formula\":\"S(x)\"}";
        let outcome = |line: &str| match query(&svc, line) {
            Response::Answer { cache, epoch, .. } => (cache, epoch),
            other => panic!("{other:?}"),
        };
        assert_eq!(outcome(reads_e), (CacheOutcome::Miss, 0));
        assert_eq!(outcome(reads_s), (CacheOutcome::Miss, 0));

        query(&svc, "{\"op\":\"update\",\"insert\":{\"S\":[[2]]}}");
        assert_eq!(outcome(reads_e), (CacheOutcome::Hit, 1), "carried");
        assert_eq!(outcome(reads_s), (CacheOutcome::Miss, 1), "S was written");

        let stats = query(&svc, "{\"op\":\"stats\"}");
        assert!(
            matches!(
                stats,
                Response::Stats {
                    cache_carried: 1,
                    ..
                }
            ),
            "{stats:?}"
        );
        assert!(stats.render().contains("\"cache_carried\":1"));
    }

    #[test]
    fn formula_and_program_share_cache_entries() {
        let svc = service();
        let prog = "{\"op\":\"query\",\"program\":\"Goal(x) :- E(x,y).\"}";
        let rows1 = match query(&svc, prog) {
            Response::Answer {
                rows,
                cache: CacheOutcome::Miss,
                ..
            } => rows,
            other => panic!("{other:?}"),
        };
        // The hom-equivalent existential-positive formula hits the entry
        // the Datalog query published.
        let formula = "{\"op\":\"query\",\"formula\":\"exists y. E(x,y)\"}";
        match query(&svc, formula) {
            Response::Answer { rows, cache, .. } => {
                assert_eq!(cache, CacheOutcome::Hit, "same canonical core, same epoch");
                assert_eq!(rows, rows1, "bit-identical to the cached evaluation");
            }
            other => panic!("{other:?}"),
        }
    }

    #[test]
    fn fuel_exhaustion_yields_partial_with_working_resume() {
        let svc = service();
        // Transitive closure on the path; tiny fuel exhausts mid-run.
        let q = "{\"op\":\"query\",\"program\":\"T(x,y) :- E(x,y). T(x,z) :- T(x,y), E(y,z).\\n# goal: T\",\"fuel\":3}";
        let token = match query(&svc, q) {
            Response::Partial {
                resource, resume, ..
            } => {
                assert_eq!(resource, "fuel");
                resume.expect("fuel stops are resumable")
            }
            other => panic!("{other:?}"),
        };
        // Resume with ample fuel: the full transitive closure (10 pairs).
        let resume_line = format!("{{\"op\":\"query\",\"resume\":\"{token}\",\"fuel\":100000}}");
        match query(&svc, &resume_line) {
            Response::Answer { rows, .. } => assert_eq!(rows.len(), 10),
            other => panic!("{other:?}"),
        }
        // Tokens are single-use.
        assert!(matches!(query(&svc, &resume_line), Response::Error { .. }));
    }

    #[test]
    fn recursive_program_is_served_from_a_view_across_writes() {
        let svc = service();
        let text = "T(x,y) :- E(x,y). T(x,z) :- T(x,y), E(y,z).\n# goal: T";
        let q = format!(
            "{{\"op\":\"query\",\"program\":{}}}",
            crate::json::escape(text)
        );
        let expect = |svc: &QueryService| {
            let snap = svc.epochs().pin();
            let p = Program::parse(text, snap.structure.vocab()).unwrap();
            goal_rows(p.evaluate_reference(&snap.structure).goal())
        };
        let served = |svc: &QueryService| served_line(svc, &q);
        // The first request builds the view and answers from it, one
        // fixpoint; the second reads the view and computes none.
        assert_eq!(served(&svc), (CacheOutcome::View, expect(&svc)));
        assert_eq!(fixpoints(&svc), 1);
        assert_eq!(served(&svc), (CacheOutcome::View, expect(&svc)));
        assert_eq!(fixpoints(&svc), 1);
        assert_eq!(svc.views().len(), 1);
        assert_eq!(
            svc.cache().len(),
            0,
            "recursive programs have no cache entry"
        );

        // A write closing the path into a cycle; the view catches up.
        query(&svc, "{\"op\":\"update\",\"insert\":{\"E\":[[4,0]]}}");
        let (cache, rows) = served(&svc);
        assert_eq!(cache, CacheOutcome::View);
        assert_eq!(rows.len(), 25);
        assert_eq!(rows, expect(&svc));
        // ... and a deletion cutting it again.
        query(&svc, "{\"op\":\"update\",\"delete\":{\"E\":[[1,2]]}}");
        assert_eq!(served(&svc), (CacheOutcome::View, expect(&svc)));
        assert_eq!(svc.views().catchups(), 2);

        // `no_cache` and negation keep the plain path.
        let fresh = q.replacen('}', ",\"no_cache\":true}", 1);
        assert_eq!(served_line(&svc, &fresh).0, CacheOutcome::Bypass);
        let negated = "{\"op\":\"query\",\"program\":\"T(x,y) :- E(x,y). T(x,z) :- T(x,y), E(y,z). Goal(x) :- T(x,y), not E(x,y).\"}";
        assert_eq!(served_line(&svc, negated).0, CacheOutcome::Bypass);
        assert_eq!(served_line(&svc, negated).0, CacheOutcome::Bypass);
        let stats = query(&svc, "{\"op\":\"stats\"}").render();
        assert!(stats.contains("\"views\":1,\"view_catchups\":2"), "{stats}");
    }

    fn fixpoints(svc: &QueryService) -> u64 {
        match query(svc, "{\"op\":\"stats\"}") {
            Response::Stats { fixpoints, .. } => fixpoints,
            other => panic!("{other:?}"),
        }
    }

    /// A query line for the transitive closure over `E`, with `fuel`.
    fn tc_line(fuel: u64) -> String {
        let text = "T(x,y) :- E(x,y). T(x,z) :- T(x,y), E(y,z).\n# goal: T";
        format!(
            "{{\"op\":\"query\",\"program\":{},\"fuel\":{fuel}}}",
            crate::json::escape(text)
        )
    }

    fn cache_of(r: Response) -> CacheOutcome {
        match r {
            Response::Answer { cache, .. } => cache,
            other => panic!("{other:?}"),
        }
    }

    /// The resource a partial names, whether it carries a token, and the
    /// fuel it reports.
    fn partial_of(r: Response) -> (String, bool, u64) {
        match r {
            Response::Partial {
                resource,
                resume,
                fuel_spent,
                ..
            } => (resource, resume.is_some(), fuel_spent),
            other => panic!("{other:?}"),
        }
    }

    #[test]
    fn a_completed_evaluation_reports_the_fuel_it_was_charged() {
        let mut path = Structure::new(Vocabulary::digraph(), 16);
        let e = path.vocab().lookup("E").unwrap();
        for i in 0..15u32 {
            path.add_tuple(e, &[Elem(i), Elem(i + 1)]).unwrap();
        }
        let svc = QueryService::new(path, ServiceConfig::default());
        let ask = |fuel: u64| {
            let line = tc_line(fuel).replacen('}', ",\"no_cache\":true}", 1);
            query(&svc, &line)
        };
        // All 120 pairs cost 136: 15 rounds, 120 tuples, 1 stratum seeded.
        let (resource, _, spent) = partial_of(ask(136));
        assert_eq!((resource.as_str(), spent), ("fuel", 136));
        let fuel_of = |r: Response| match r {
            Response::Answer {
                rows, fuel_spent, ..
            } => (rows.len(), fuel_spent),
            other => panic!("{other:?}"),
        };
        assert_eq!(fuel_of(ask(137)), (120, 136));
        // A stop and its resumption are charged as one run.
        let token = match ask(50) {
            Response::Partial {
                resume: Some(token),
                ..
            } => token,
            other => panic!("{other:?}"),
        };
        let resume = format!("{{\"op\":\"query\",\"resume\":\"{token}\",\"fuel\":100000}}");
        assert_eq!(fuel_of(query(&svc, &resume)), (120, 136));
    }

    #[test]
    fn a_view_build_is_charged_to_its_request() {
        let svc = service();
        let ask = |fuel: u64| query(&svc, &tc_line(fuel));
        // 3 fuel cannot cover the build's 15 (five rounds, ten tuples):
        // it stops in its first delta round, resumably, and installs
        // nothing.
        let (resource, resumable, spent) = partial_of(ask(3));
        assert_eq!((resource.as_str(), resumable), ("fuel", true));
        assert!(
            spent <= 5,
            "stopped in the first round, not after the closure"
        );
        assert_eq!(svc.views().len(), 0);
        assert_eq!(fixpoints(&svc), 0);
        // 1000 fuel covers it: the build answers, charged 15.
        match ask(1000) {
            Response::Answer {
                cache,
                rows,
                fuel_spent,
                ..
            } => assert_eq!(
                (cache, rows.len(), fuel_spent),
                (CacheOutcome::View, 10, 15)
            ),
            other => panic!("{other:?}"),
        }
        assert_eq!(svc.views().len(), 1);
        assert_eq!(fixpoints(&svc), 1);
    }

    #[test]
    fn a_building_request_answers_as_a_no_cache_one() {
        let svc = service();
        query(&svc, "{\"op\":\"update\",\"insert\":{\"E\":[[4,0]]}}");
        let fresh = tc_line(1000).replacen('}', ",\"no_cache\":true}", 1);
        let plain = query(&svc, &fresh);
        let built = query(&svc, &tc_line(1000));
        let figures = |r: &Response| match r {
            Response::Answer {
                rows,
                stages,
                fuel_spent,
                ..
            } => (rows.clone(), *stages, *fuel_spent),
            other => panic!("{other:?}"),
        };
        assert_eq!(cache_of(built.clone()), CacheOutcome::View);
        assert_eq!(cache_of(plain.clone()), CacheOutcome::Bypass);
        assert_eq!(figures(&built), figures(&plain));
        assert_eq!(figures(&built).0.len(), 25);
    }

    #[test]
    fn a_build_the_budget_stops_is_dropped() {
        let svc = service();
        let ask = |fuel: u64| query(&svc, &tc_line(fuel));
        // The build's charge reaches its 15 fuel in its last round, so it
        // stops there; its partial resumes as an evaluation, and the
        // resume installs no view.
        let token = match ask(15) {
            Response::Partial {
                resource,
                resume: Some(token),
                ..
            } if resource == "fuel" => token,
            other => panic!("{other:?}"),
        };
        assert_eq!(svc.views().len(), 0);
        assert_eq!(fixpoints(&svc), 0, "no build completed");
        let resume = format!("{{\"op\":\"query\",\"resume\":\"{token}\",\"fuel\":1000}}");
        assert_eq!(cache_of(query(&svc, &resume)), CacheOutcome::Bypass);
        assert_eq!(svc.views().len(), 0, "a resume builds nothing");
        assert_eq!(fixpoints(&svc), 1);
        assert_eq!(cache_of(ask(1000)), CacheOutcome::View);
        assert_eq!(fixpoints(&svc), 2);
    }

    #[test]
    fn an_interrupt_stops_a_view_build() {
        let svc = service();
        let token = Interrupt::new();
        token.trigger();
        let req = parse_request(&tc_line(1000)).unwrap();
        // The build is an evaluation: it stops after its unpolled round 0
        // (1 + 4 fuel), with no token for a client that is gone.
        let (resource, resumable, spent) = partial_of(svc.handle(&req, &token));
        assert_eq!(
            (resource.as_str(), resumable, spent),
            ("interrupt", false, 5)
        );
        assert_eq!(svc.views().len(), 0);
        assert_eq!(fixpoints(&svc), 0);
    }

    #[test]
    fn a_catch_up_out_of_fuel_builds_nothing_in_its_request() {
        let svc = service();
        let ask = |fuel: u64| query(&svc, &tc_line(fuel));
        assert_eq!(cache_of(ask(1000)), CacheOutcome::View);
        query(&svc, "{\"op\":\"update\",\"insert\":{\"E\":[[4,0]]}}");
        // The catch-up overdraws 1 fuel and drops the view. The request
        // builds with what is left, nothing, and returns the stopped
        // build's resumable partial.
        let (resource, resumable, _) = partial_of(ask(1));
        assert_eq!((resource.as_str(), resumable), ("fuel", true));
        assert_eq!(svc.views().len(), 0);
        assert_eq!(fixpoints(&svc), 1);
        assert_eq!(cache_of(ask(1000)), CacheOutcome::View);
        assert_eq!(fixpoints(&svc), 2);
        assert_eq!(svc.views().catchups(), 0);
    }

    fn served_line(svc: &QueryService, line: &str) -> (CacheOutcome, Vec<Vec<Elem>>) {
        match query(svc, line) {
            Response::Answer { cache, rows, .. } => (cache, rows),
            other => panic!("{other:?}"),
        }
    }

    #[test]
    fn readers_behind_the_view_and_universe_growth_take_the_plain_path() {
        let svc = service();
        let text = "T(x,y) :- E(x,y). T(x,z) :- T(x,y), E(y,z).\n# goal: T";
        let q = QueryRequest {
            program: Some(text.to_string()),
            ..QueryRequest::default()
        };
        let ask = |snap: &Arc<Snapshot>| match svc.query_at(&q, snap, &Interrupt::new()) {
            Response::Answer {
                cache, rows, epoch, ..
            } => {
                assert_eq!(epoch, snap.epoch);
                let p = Program::parse(text, snap.structure.vocab()).unwrap();
                assert_eq!(
                    rows,
                    goal_rows(p.evaluate_reference(&snap.structure).goal())
                );
                cache
            }
            other => panic!("{other:?}"),
        };
        let old = svc.epochs().pin();
        ask(&old);
        assert_eq!(ask(&old), CacheOutcome::View, "built at epoch 0");
        query(&svc, "{\"op\":\"update\",\"insert\":{\"E\":[[4,0]]}}");
        assert_eq!(
            ask(&svc.epochs().pin()),
            CacheOutcome::View,
            "caught up to 1"
        );
        assert_eq!(
            ask(&old),
            CacheOutcome::Bypass,
            "epoch 0 is behind the view"
        );
        assert_eq!(svc.views().len(), 1, "a reader behind keeps the view");

        // Growth drops the view; the next completed evaluation rebuilds it.
        query(
            &svc,
            "{\"op\":\"update\",\"grow_universe\":1,\"insert\":{\"E\":[[4,5]]}}",
        );
        let grown = svc.epochs().pin();
        assert_eq!(ask(&grown), CacheOutcome::View, "dropped and rebuilt");
        assert_eq!(svc.views().len(), 1);
        assert_eq!(ask(&grown), CacheOutcome::View);
    }

    #[test]
    fn injected_worker_panic_is_retried_once_transparently() {
        let _serial = hp_guard::fault::exclusive();
        let svc = service();
        hp_guard::fault::install(hp_guard::fault::FaultPlan {
            exhaust_at: None,
            panic_at: Some(("serve.worker".to_string(), 0)),
            panic_span: None,
        });
        let r = query(
            &svc,
            "{\"op\":\"query\",\"program\":\"Goal(x,y) :- E(x,y).\"}",
        );
        hp_guard::fault::clear();
        match r {
            Response::Answer { rows, .. } => assert_eq!(rows.len(), 4),
            other => panic!("one panic must be absorbed by the retry: {other:?}"),
        }
        assert_eq!(svc.gate().depth(), 0, "no permit leaked");
    }

    #[test]
    fn persistent_worker_panic_surfaces_typed_fault() {
        let _serial = hp_guard::fault::exclusive();
        let svc = service();
        hp_guard::fault::install(hp_guard::fault::FaultPlan {
            exhaust_at: None,
            panic_at: None,
            panic_span: Some(("serve.worker".to_string(), 0, u64::MAX)),
        });
        let r = query(
            &svc,
            "{\"op\":\"query\",\"program\":\"Goal(x,y) :- E(x,y).\"}",
        );
        hp_guard::fault::clear();
        match r {
            Response::Fault { retried, .. } => assert!(retried),
            other => panic!("{other:?}"),
        }
        // The service is not poisoned: the next request succeeds.
        let r = query(
            &svc,
            "{\"op\":\"query\",\"program\":\"Goal(x,y) :- E(x,y).\"}",
        );
        assert!(matches!(r, Response::Answer { .. }));
    }

    #[test]
    fn overload_sheds_typed() {
        let svc = QueryService::new(
            seed(),
            ServiceConfig {
                max_depth: 0,
                ..ServiceConfig::default()
            },
        );
        match query(
            &svc,
            "{\"op\":\"query\",\"program\":\"Goal(x,y) :- E(x,y).\"}",
        ) {
            Response::Overloaded(o) => assert_eq!(o.max_depth, 0),
            other => panic!("{other:?}"),
        }
    }

    #[test]
    fn interrupt_stops_with_partial_and_no_token() {
        let svc = service();
        let token = Interrupt::new();
        token.trigger();
        let req = parse_request(
            "{\"op\":\"query\",\"program\":\"T(x,y) :- E(x,y). T(x,z) :- T(x,y), E(y,z).\\n# goal: T\"}",
        )
        .unwrap();
        match svc.handle(&req, &token) {
            Response::Partial {
                resource, resume, ..
            } => {
                assert_eq!(resource, "interrupt");
                assert!(resume.is_none(), "nothing will resume a dropped client");
            }
            other => panic!("{other:?}"),
        }
    }
}
