//! Resource governance for the deliberately exponential constructions of
//! the homomorphism-preservation workspace.
//!
//! The paper's algorithms — canonical CQs over `n^k` tuples, minimal-model
//! enumeration, Datalog unfoldings, scattered-set and treewidth searches —
//! are *effective* but not fast (Section 8), and worst-case witness sizes
//! blow up non-elementarily. This crate provides the shared vocabulary for
//! degrading gracefully exactly where the theory says we must be slow:
//!
//! * [`Budget`] — a declarative limit unifying **fuel** (deterministic step
//!   or tuple counts), a **wall-clock** deadline, and a cooperative
//!   [`Interrupt`] token;
//! * [`Gauge`] — the running meter an algorithm charges against, producing
//!   a typed [`Stop`] the moment any resource runs out;
//! * [`Exhausted`] — a `Stop` carrying a best-effort **partial result**
//!   with provenance (which resource, how much was spent), generalizing
//!   the `StageSequence::converged` pattern;
//! * [`Budgeted`] — the `Result<T, Exhausted<P>>` alias every
//!   `_with_budget` entry point in the workspace returns;
//! * [`fault`] — a fault-injection hook used by the robustness harness to
//!   force exhaustion and worker panics at chosen points.
//!
//! # Resumability
//!
//! Fuel accounting is designed so that *running with fuel `f1`, then
//! resuming the partial with fuel `f2`, lands in exactly the same state as
//! one uninterrupted run with fuel `f1 + f2`*. The rule that makes this
//! exact at any tick granularity: exhaustion is the condition
//! `spent >= limit` evaluated at the consumer's deterministic checkpoints,
//! and resuming preserves the cumulative `spent` while raising the limit
//! by the new allowance ([`Budget::resume`]). Consumers that support
//! resumption therefore persist a [`GaugeState`] (both `spent` and
//! `limit`) alongside their partial result.
//!
//! ```
//! use hp_guard::{Budget, Resource};
//!
//! let mut gauge = Budget::fuel(10).gauge();
//! assert!(gauge.tick(7).is_ok());
//! let stop = gauge.tick(7).unwrap_err(); // 14 >= 10
//! assert_eq!(stop.resource, Resource::Fuel);
//! assert_eq!(stop.spent, 14);
//!
//! // Resume with 10 more units of fuel: limit becomes 20, spent stays 14.
//! let mut gauge = Budget::fuel(10).resume(stop.state());
//! assert!(gauge.tick(5).is_ok()); // 19 < 20
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

use std::fmt;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

/// How many [`Gauge::tick`] calls may elapse between polls of the
/// wall-clock deadline and the interrupt token. Fuel is checked on every
/// tick; the clock is amortized because `Instant::now` is comparatively
/// expensive in tight search loops.
const POLL_STRIDE: u32 = 256;

/// Sentinel limit meaning "no fuel limit".
const UNLIMITED: u64 = u64::MAX;

/// The resource whose exhaustion stopped a computation.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub enum Resource {
    /// The deterministic step/tuple allowance ran out.
    Fuel,
    /// The wall-clock deadline passed.
    Time,
    /// The cooperative [`Interrupt`] token was triggered.
    Interrupt,
}

impl fmt::Display for Resource {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(match self {
            Resource::Fuel => "fuel",
            Resource::Time => "wall-clock",
            Resource::Interrupt => "interrupt",
        })
    }
}

/// A cooperative cancellation token.
///
/// Cloning shares the underlying flag: trigger any clone and every
/// [`Gauge`] holding one observes the cancellation at its next poll.
#[derive(Clone, Debug, Default)]
pub struct Interrupt(Arc<AtomicBool>);

impl Interrupt {
    /// A fresh, untriggered token.
    pub fn new() -> Self {
        Self::default()
    }

    /// Request cancellation. Idempotent; never blocks.
    pub fn trigger(&self) {
        self.0.store(true, Ordering::Relaxed);
    }

    /// Has cancellation been requested?
    pub fn is_triggered(&self) -> bool {
        self.0.load(Ordering::Relaxed)
    }
}

/// A declarative resource limit: any combination of fuel, wall-clock
/// deadline, and interrupt token. The default is [`Budget::unlimited`].
#[derive(Clone, Debug, Default)]
pub struct Budget {
    fuel: Option<u64>,
    wall_clock: Option<Duration>,
    interrupt: Option<Interrupt>,
}

impl Budget {
    /// No limits at all: every `_with_budget` API behaves like its
    /// unbudgeted counterpart under this budget.
    pub fn unlimited() -> Self {
        Self::default()
    }

    /// Limit only fuel (deterministic steps/tuples).
    pub fn fuel(units: u64) -> Self {
        Self::default().with_fuel(units)
    }

    /// Limit only wall-clock time.
    pub fn wall_clock(limit: Duration) -> Self {
        Self::default().with_wall_clock(limit)
    }

    /// Set the fuel allowance.
    pub fn with_fuel(mut self, units: u64) -> Self {
        self.fuel = Some(units);
        self
    }

    /// Set the wall-clock allowance, measured from [`Budget::gauge`].
    pub fn with_wall_clock(mut self, limit: Duration) -> Self {
        self.wall_clock = Some(limit);
        self
    }

    /// Attach a cooperative cancellation token.
    pub fn with_interrupt(mut self, interrupt: Interrupt) -> Self {
        self.interrupt = Some(interrupt);
        self
    }

    /// The fuel allowance, if any.
    pub fn fuel_limit(&self) -> Option<u64> {
        self.fuel
    }

    /// The wall-clock allowance, if any.
    pub fn wall_clock_limit(&self) -> Option<Duration> {
        self.wall_clock
    }

    /// Is this budget free of any limit?
    pub fn is_unlimited(&self) -> bool {
        self.fuel.is_none() && self.wall_clock.is_none() && self.interrupt.is_none()
    }

    /// Start metering against this budget from zero.
    pub fn gauge(&self) -> Gauge {
        self.start_from(GaugeState {
            spent: 0,
            limit: self.fuel.unwrap_or(UNLIMITED),
        })
    }

    /// Resume metering a computation that previously stopped in `state`:
    /// the cumulative `spent` is preserved and this budget's fuel is
    /// *added on top of the prior limit*, so `f1` fuel followed by a
    /// resume with `f2` stops at exactly the same checkpoints as a single
    /// `f1 + f2` run. The wall-clock allowance (if any) restarts now.
    pub fn resume(&self, state: GaugeState) -> Gauge {
        self.start_from(GaugeState {
            spent: state.spent,
            limit: match self.fuel {
                Some(extra) => state.limit.saturating_add(extra),
                None => UNLIMITED,
            },
        })
    }

    fn start_from(&self, state: GaugeState) -> Gauge {
        let started = Instant::now();
        Gauge {
            spent: state.spent,
            limit: state.limit,
            started,
            deadline: self.wall_clock.map(|d| started + d),
            interrupt: self.interrupt.clone(),
            polls_until: POLL_STRIDE,
        }
    }
}

/// The persistable fuel position of a [`Gauge`], stored by resumable
/// consumers alongside their partial results (see [`Budget::resume`]).
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct GaugeState {
    /// Cumulative fuel charged so far, across all prior runs.
    pub spent: u64,
    /// The fuel limit in force when the computation stopped
    /// (`u64::MAX` means unlimited).
    pub limit: u64,
}

/// A running meter charging against a [`Budget`].
///
/// Algorithms call [`Gauge::tick`] at their unit of work (a search node,
/// a derived tuple, a candidate structure) and [`Gauge::check`] at
/// natural checkpoints; either returns a [`Stop`] the moment the budget
/// is exhausted.
#[derive(Debug)]
pub struct Gauge {
    spent: u64,
    limit: u64,
    started: Instant,
    deadline: Option<Instant>,
    interrupt: Option<Interrupt>,
    polls_until: u32,
}

impl Gauge {
    /// Charge `units` of fuel, then report exhaustion if any resource is
    /// out. Fuel is compared on every call; the wall clock and interrupt
    /// token are polled every few hundred calls (and always by
    /// [`Gauge::check`]).
    pub fn tick(&mut self, units: u64) -> Result<(), Stop> {
        self.spent = self.spent.saturating_add(units);
        #[cfg(any(test, feature = "fault-inject"))]
        if fault::forced_exhaust(self.spent) {
            return Err(self.stop(Resource::Fuel));
        }
        if self.spent >= self.limit {
            return Err(self.stop(Resource::Fuel));
        }
        match self.polls_until.checked_sub(1) {
            Some(n) if self.deadline.is_some() || self.interrupt.is_some() => {
                self.polls_until = n;
                Ok(())
            }
            _ => self.check(),
        }
    }

    /// Poll every resource right now. Call at deterministic checkpoints
    /// (e.g. round boundaries) so time- and interrupt-based stops land at
    /// well-defined places even if no fuel was charged recently.
    pub fn check(&mut self) -> Result<(), Stop> {
        self.polls_until = POLL_STRIDE;
        if self.spent >= self.limit {
            return Err(self.stop(Resource::Fuel));
        }
        if let Some(i) = &self.interrupt {
            if i.is_triggered() {
                return Err(self.stop(Resource::Interrupt));
            }
        }
        if let Some(d) = self.deadline {
            if Instant::now() >= d {
                return Err(self.stop(Resource::Time));
            }
        }
        Ok(())
    }

    /// Cumulative fuel charged so far (including prior runs when resumed).
    pub fn spent(&self) -> u64 {
        self.spent
    }

    /// Wall-clock time elapsed since this gauge started.
    pub fn elapsed(&self) -> Duration {
        self.started.elapsed()
    }

    /// The persistable fuel position, for checkpointing (see
    /// [`Budget::resume`]).
    pub fn state(&self) -> GaugeState {
        GaugeState {
            spent: self.spent,
            limit: self.limit,
        }
    }

    /// Build a [`Stop`] for `resource` at the current meter reading.
    pub fn stop(&self, resource: Resource) -> Stop {
        Stop {
            resource,
            spent: self.spent,
            elapsed: self.started.elapsed(),
            state: self.state(),
        }
    }
}

/// Why and where a budgeted computation stopped, without a partial result
/// attached yet. Produced by [`Gauge`]; upgraded to an [`Exhausted`] via
/// [`Stop::with_partial`].
#[derive(Clone, Debug)]
pub struct Stop {
    /// Which resource ran out.
    pub resource: Resource,
    /// Cumulative fuel charged when the computation stopped.
    pub spent: u64,
    /// Wall-clock time elapsed in the stopping run.
    pub elapsed: Duration,
    state: GaugeState,
}

impl Stop {
    /// The fuel position to persist for a later [`Budget::resume`].
    pub fn state(&self) -> GaugeState {
        self.state
    }

    /// Attach the best-effort partial result.
    pub fn with_partial<P>(self, partial: P) -> Exhausted<P> {
        Exhausted {
            resource: self.resource,
            spent: self.spent,
            elapsed: self.elapsed,
            state: self.state,
            partial,
        }
    }
}

impl fmt::Display for Stop {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "{} budget exhausted after {} fuel ({} ms)",
            self.resource,
            self.spent,
            self.elapsed.as_millis()
        )
    }
}

impl std::error::Error for Stop {}

/// A budget ran out: which [`Resource`], how much fuel was spent, how
/// long it took, and the best-effort partial result produced so far.
#[derive(Clone, Debug)]
pub struct Exhausted<P> {
    /// Which resource ran out.
    pub resource: Resource,
    /// Cumulative fuel charged when the computation stopped.
    pub spent: u64,
    /// Wall-clock time elapsed in the stopping run.
    pub elapsed: Duration,
    /// The best-effort partial result (documented per entry point).
    pub partial: P,
    state: GaugeState,
}

impl<P> Exhausted<P> {
    /// The fuel position to persist for a later [`Budget::resume`].
    pub fn state(&self) -> GaugeState {
        self.state
    }

    /// Transform the partial result, keeping the provenance.
    pub fn map_partial<Q>(self, f: impl FnOnce(P) -> Q) -> Exhausted<Q> {
        Exhausted {
            resource: self.resource,
            spent: self.spent,
            elapsed: self.elapsed,
            state: self.state,
            partial: f(self.partial),
        }
    }

    /// Drop the partial result, keeping only the stop provenance.
    pub fn into_stop(self) -> Stop {
        Stop {
            resource: self.resource,
            spent: self.spent,
            elapsed: self.elapsed,
            state: self.state,
        }
    }
}

impl<P> fmt::Display for Exhausted<P> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "{} budget exhausted after {} fuel ({} ms); partial result available",
            self.resource,
            self.spent,
            self.elapsed.as_millis()
        )
    }
}

impl<P: fmt::Debug> std::error::Error for Exhausted<P> {}

/// The return type of every `_with_budget` entry point: the finished
/// result, or [`Exhausted`] carrying the best-effort partial (which has
/// the same type as the result unless the entry point documents
/// otherwise).
pub type Budgeted<T, P = T> = Result<T, Exhausted<P>>;

pub mod fault {
    //! Fault injection for the robustness harness.
    //!
    //! A [`FaultPlan`] installed here is observed by hooks compiled into
    //! this crate's [`Gauge`](crate::Gauge) under
    //! `cfg(any(test, feature = "fault-inject"))` and into downstream
    //! crates (e.g. the sharded Datalog evaluator's workers) under the
    //! same gate with the feature forwarded. Each trigger fires **once**
    //! and then disarms itself, so recovery paths re-running the same
    //! work (like the single-threaded fallback after a worker panic)
    //! complete normally.
    //!
    //! The plan is process-global; tests that install one must serialize
    //! through [`exclusive`].

    use std::sync::{Mutex, MutexGuard};

    /// Where and when to inject faults.
    #[derive(Clone, Debug, Default)]
    pub struct FaultPlan {
        /// Force fuel exhaustion in any [`Gauge`](crate::Gauge) once its
        /// cumulative `spent` reaches this value, regardless of the real
        /// limit. Fires once, then disarms.
        pub exhaust_at: Option<u64>,
        /// Panic at the named injection site when its caller-supplied
        /// counter matches (e.g. `("datalog.worker", 3)` panics the
        /// worker processing item 3). Fires once, then disarms.
        pub panic_at: Option<(String, u64)>,
        /// Panic at the named injection site on **every** call whose
        /// counter lies in the inclusive `[lo, hi]` range, disarming only
        /// once a call arrives past `hi`. Unlike [`panic_at`](Self::panic_at)
        /// this defeats one-shot recovery paths (retry-once pipelines),
        /// exercising the typed-fault surface behind them.
        pub panic_span: Option<(String, u64, u64)>,
    }

    static PLAN: Mutex<Option<FaultPlan>> = Mutex::new(None);
    static TEST_SERIAL: Mutex<()> = Mutex::new(());

    fn plan() -> MutexGuard<'static, Option<FaultPlan>> {
        // The plan mutex is touched from injected-panic unwinds, so
        // recover from poisoning rather than compounding the fault.
        PLAN.lock().unwrap_or_else(|e| e.into_inner())
    }

    /// Install a plan, replacing any previous one.
    pub fn install(p: FaultPlan) {
        *plan() = Some(p);
    }

    /// Remove the installed plan, if any.
    pub fn clear() {
        *plan() = None;
    }

    /// Serialize tests that use the process-global plan: hold the guard
    /// for the duration of the test body.
    pub fn exclusive() -> MutexGuard<'static, ()> {
        TEST_SERIAL.lock().unwrap_or_else(|e| e.into_inner())
    }

    /// Hook: should a gauge at cumulative fuel `spent` report forced
    /// exhaustion? Disarms the trigger when it fires.
    pub fn forced_exhaust(spent: u64) -> bool {
        let mut g = plan();
        if let Some(p) = g.as_mut() {
            if p.exhaust_at.is_some_and(|at| spent >= at) {
                p.exhaust_at = None;
                return true;
            }
        }
        false
    }

    /// Hook: should injection site `site` panic at call counter
    /// `counter`? Disarms the trigger when it fires (one-shot
    /// `panic_at`) or once the counter passes a `panic_span`. Call as
    /// `if hp_guard::fault::should_panic("site", i) { panic!(...) }`.
    pub fn should_panic(site: &str, counter: u64) -> bool {
        let mut g = plan();
        if let Some(p) = g.as_mut() {
            if p.panic_at
                .as_ref()
                .is_some_and(|(s, c)| s == site && *c == counter)
            {
                p.panic_at = None;
                return true;
            }
            if let Some((s, lo, hi)) = p.panic_span.as_ref() {
                if s == site {
                    if (*lo..=*hi).contains(&counter) {
                        return true;
                    }
                    if counter > *hi {
                        p.panic_span = None;
                    }
                }
            }
        }
        false
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    // `Gauge::tick` consults the process-global fault plan, which
    // `forced_exhaustion_fires_once` arms on another test thread: every
    // test that ticks a gauge holds the serial lock.
    #[test]
    fn unlimited_never_stops() {
        let _serial = fault::exclusive();
        let mut g = Budget::unlimited().gauge();
        for _ in 0..10_000 {
            g.tick(1).expect("unlimited budget never exhausts");
        }
        g.check().expect("unlimited budget passes checks");
        assert_eq!(g.spent(), 10_000);
    }

    #[test]
    fn fuel_stops_at_limit() {
        let _serial = fault::exclusive();
        let mut g = Budget::fuel(5).gauge();
        for _ in 0..4 {
            g.tick(1).expect("under the limit");
        }
        let stop = g.tick(1).unwrap_err();
        assert_eq!(stop.resource, Resource::Fuel);
        assert_eq!(stop.spent, 5);
    }

    #[test]
    fn resume_is_additive() {
        let _serial = fault::exclusive();
        // f1 then f2 stops exactly where a single f1+f2 run stops, for
        // coarse ticks that straddle the limits.
        let run = |budget: Budget, from: Option<GaugeState>| -> (u64, Option<Stop>) {
            let mut g = match from {
                Some(s) => budget.resume(s),
                None => budget.gauge(),
            };
            let mut ticks = 0u64;
            loop {
                if ticks >= 20 {
                    return (g.spent(), None);
                }
                ticks += 1;
                if let Err(stop) = g.tick(10) {
                    return (g.spent(), Some(stop));
                }
            }
        };
        let (_, stop1) = run(Budget::fuel(25), None);
        let stop1 = stop1.expect("25 fuel exhausts");
        assert_eq!(stop1.spent, 30); // rounds of 10, first >= 25
        let (_, stop2) = run(Budget::fuel(25), Some(stop1.state()));
        let stop2 = stop2.expect("50 total fuel exhausts");
        let (_, straight) = run(Budget::fuel(50), None);
        let straight = straight.expect("50 fuel exhausts");
        assert_eq!(stop2.spent, straight.spent);
        assert_eq!(stop2.state(), straight.state());
    }

    #[test]
    fn interrupt_observed_on_check() {
        let token = Interrupt::new();
        let mut g = Budget::unlimited().with_interrupt(token.clone()).gauge();
        g.check().expect("not yet triggered");
        token.trigger();
        let stop = g.check().unwrap_err();
        assert_eq!(stop.resource, Resource::Interrupt);
    }

    #[test]
    fn interrupt_observed_within_poll_stride_ticks() {
        let _serial = fault::exclusive();
        let token = Interrupt::new();
        let mut g = Budget::unlimited().with_interrupt(token.clone()).gauge();
        token.trigger();
        let mut stopped = false;
        for _ in 0..=POLL_STRIDE as usize {
            if g.tick(1).is_err() {
                stopped = true;
                break;
            }
        }
        assert!(stopped, "tick polls the interrupt at least every stride");
    }

    #[test]
    fn expired_deadline_stops() {
        let mut g = Budget::wall_clock(Duration::ZERO).gauge();
        let stop = g.check().unwrap_err();
        assert_eq!(stop.resource, Resource::Time);
    }

    #[test]
    fn exhausted_carries_partial_and_provenance() {
        let _serial = fault::exclusive();
        let mut g = Budget::fuel(1).gauge();
        let stop = g.tick(3).unwrap_err();
        let e = stop.with_partial(vec![1, 2]);
        assert_eq!(e.partial, vec![1, 2]);
        assert_eq!(e.resource, Resource::Fuel);
        assert_eq!(e.spent, 3);
        assert!(e.to_string().contains("fuel budget exhausted"));
        let e2 = e.map_partial(|v| v.len());
        assert_eq!(e2.partial, 2);
        assert_eq!(e2.state(), e2.clone().into_stop().state());
    }

    #[test]
    fn forced_exhaustion_fires_once() {
        let _serial = fault::exclusive();
        fault::install(fault::FaultPlan {
            exhaust_at: Some(3),
            panic_at: None,
            panic_span: None,
        });
        let mut g = Budget::unlimited().gauge();
        g.tick(2).expect("below the injected point");
        let stop = g.tick(2).unwrap_err();
        assert_eq!(stop.resource, Resource::Fuel);
        assert_eq!(stop.spent, 4);
        // Disarmed: the same gauge can continue past the point.
        g.tick(100).expect("trigger disarmed after firing");
        fault::clear();
    }

    #[test]
    fn injected_panic_matches_site_and_counter_once() {
        let _serial = fault::exclusive();
        fault::install(fault::FaultPlan {
            exhaust_at: None,
            panic_at: Some(("here".to_string(), 2)),
            panic_span: None,
        });
        assert!(!fault::should_panic("here", 1));
        assert!(!fault::should_panic("elsewhere", 2));
        assert!(fault::should_panic("here", 2));
        assert!(!fault::should_panic("here", 2), "fires once then disarms");
        fault::clear();
    }

    #[test]
    fn injected_panic_span_fires_across_range_then_disarms() {
        let _serial = fault::exclusive();
        fault::install(fault::FaultPlan {
            exhaust_at: None,
            panic_at: None,
            panic_span: Some(("worker".to_string(), 2, 3)),
        });
        assert!(!fault::should_panic("worker", 1));
        assert!(fault::should_panic("worker", 2));
        assert!(
            fault::should_panic("worker", 2),
            "span re-fires, unlike panic_at"
        );
        assert!(fault::should_panic("worker", 3));
        assert!(!fault::should_panic("elsewhere", 2));
        assert!(!fault::should_panic("worker", 4), "past the span: disarms");
        assert!(!fault::should_panic("worker", 2), "disarmed for good");
        fault::clear();
    }
}
