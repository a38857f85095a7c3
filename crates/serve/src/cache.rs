//! The `(CanonicalCoreKey, epoch)`-keyed answer cache with single-flight
//! deduplication and footprint carry-forward.
//!
//! The key is the canonical-core hash from `hp-logic` (PR 6): two queries
//! get the same key iff their canonical cores are isomorphic, i.e. they
//! are homomorphically equivalent — the Chandra–Merlin argument the paper
//! builds on. Pairing it with the epoch number means a hit is *provably*
//! the same answer set as a fresh evaluation on that snapshot: equivalent
//! query, identical database.
//!
//! **Footprint carry-forward:** every published answer records its read
//! *footprint*, the sorted EDB symbols the publishing query reads. By the
//! same core argument, a query's answer on a structure is its core's
//! answer, and the core's atoms are a homomorphic image of the query's,
//! so they use only footprint symbols. An answer therefore depends on
//! nothing but the footprint relations and the universe. When the epoch
//! store publishes epoch *t*, it calls [`AnswerCache::carry_forward`]
//! before any reader can pin *t*: every published entry of *t−1* whose
//! footprint misses the write's touched symbols is re-keyed onto
//! `(key, t)`, sharing the answer. A write that grows the universe touches
//! everything and carries nothing, and a `None` footprint is never
//! carried. An answer published for *t−1* after the carry stays on *t−1*:
//! that costs a miss on *t*, never a wrong answer.
//! [`AnswerCache::retire_before`] drops entries of epochs no longer asked
//! for.
//!
//! **Single-flight:** when N equivalent queries arrive concurrently, one
//! becomes the *leader* (evaluates), the rest block on the in-flight
//! slot's own condvar and receive the leader's answer; a publish or
//! abandon wakes only that slot's followers, never those of other keys.
//! The leader's claim is an RAII [`LeaderGuard`]: if the leader panics or
//! is shed mid-evaluation, the guard's `Drop` abandons the slot and wakes
//! its followers, who then re-claim (one becomes the new leader). No
//! follower can wait on a dead leader — chaos-suite property.

use std::collections::HashMap;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Condvar, Mutex};
use std::time::Duration;

use hp_structures::{Elem, SymbolId};

/// A cached answer: the sorted answer rows for the goal predicate on one
/// epoch, plus the evaluation cost that produced it.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct CachedAnswer {
    /// Answer rows, in the evaluator's deterministic order.
    pub rows: Vec<Vec<Elem>>,
    /// Fuel the original evaluation charged.
    pub fuel_spent: u64,
    /// Fixpoint stages the original evaluation took.
    pub stages: usize,
}

/// The sorted, deduplicated EDB symbols an answer reads. `None` reads
/// everything.
pub type Footprint = Option<Arc<[SymbolId]>>;

enum Slot {
    /// A leader holds the claim and is evaluating; its followers wait on
    /// the condvar (with the cache's one state mutex).
    InFlight(Arc<Condvar>),
    /// The answer is published, with the footprint it was computed from.
    Ready(Arc<CachedAnswer>, Footprint),
}

/// Outcome of [`AnswerCache::claim`].
pub enum Claim {
    /// Cache hit: the answer is published for this (key, epoch).
    /// `waited` is true when the caller blocked on an in-flight leader
    /// (a *coalesced* request rather than a plain hit).
    Hit {
        /// The published answer.
        answer: Arc<CachedAnswer>,
        /// Whether this caller waited for a concurrent evaluation.
        waited: bool,
    },
    /// This caller is the leader: evaluate, then [`LeaderGuard::publish`]
    /// (or drop the guard to abandon, waking followers to re-claim).
    Leader(LeaderGuard),
    /// The follower waited `wait_for` without the leader publishing or
    /// abandoning. The caller decides whether to retry or fail typed.
    TimedOut,
}

#[derive(Default)]
struct State {
    slots: HashMap<(u128, u64), Slot>,
}

struct Shared {
    state: Mutex<State>,
    hits: AtomicU64,
    misses: AtomicU64,
    coalesced: AtomicU64,
    carried: AtomicU64,
}

/// The shared answer cache. Cheap to clone.
#[derive(Clone)]
pub struct AnswerCache {
    shared: Arc<Shared>,
}

impl Default for AnswerCache {
    fn default() -> Self {
        Self::new()
    }
}

impl AnswerCache {
    /// An empty cache.
    pub fn new() -> Self {
        AnswerCache {
            shared: Arc::new(Shared {
                state: Mutex::new(State::default()),
                hits: AtomicU64::new(0),
                misses: AtomicU64::new(0),
                coalesced: AtomicU64::new(0),
                carried: AtomicU64::new(0),
            }),
        }
    }

    /// Claim `(key, epoch)`: a published answer is a [`Claim::Hit`]; an
    /// empty slot makes this caller the [`Claim::Leader`]; an in-flight
    /// slot blocks up to `wait_for` for the leader to publish or abandon
    /// (re-claiming on abandonment), returning [`Claim::TimedOut`] if
    /// neither happens in time.
    pub fn claim(&self, key: u128, epoch: u64, wait_for: Duration) -> Claim {
        let deadline = std::time::Instant::now() + wait_for;
        let mut waited = false;
        let mut state = self.lock();
        loop {
            match state.slots.get(&(key, epoch)) {
                Some(Slot::Ready(ans, _)) => {
                    self.shared.hits.fetch_add(1, Ordering::Relaxed);
                    return Claim::Hit {
                        answer: ans.clone(),
                        waited,
                    };
                }
                Some(Slot::InFlight(wake)) => {
                    let wake = Arc::clone(wake);
                    // One follower counts once, however often it wakes
                    // (a condvar may wake spuriously).
                    if !waited {
                        self.shared.coalesced.fetch_add(1, Ordering::Relaxed);
                        waited = true;
                    }
                    let now = std::time::Instant::now();
                    if now >= deadline {
                        return Claim::TimedOut;
                    }
                    let (s, timeout) = wake
                        .wait_timeout(state, deadline - now)
                        .unwrap_or_else(|e| e.into_inner());
                    state = s;
                    if timeout.timed_out() {
                        // Re-check once: the publish may have raced the
                        // timeout.
                        if let Some(Slot::Ready(ans, _)) = state.slots.get(&(key, epoch)) {
                            self.shared.hits.fetch_add(1, Ordering::Relaxed);
                            return Claim::Hit {
                                answer: ans.clone(),
                                waited,
                            };
                        }
                        return Claim::TimedOut;
                    }
                }
                None => {
                    self.shared.misses.fetch_add(1, Ordering::Relaxed);
                    state
                        .slots
                        .insert((key, epoch), Slot::InFlight(Arc::default()));
                    return Claim::Leader(LeaderGuard {
                        shared: self.shared.clone(),
                        key,
                        epoch,
                        done: false,
                    });
                }
            }
        }
    }

    /// A non-blocking read of a published answer (no leader claim, no
    /// statistics side effects beyond a hit count).
    pub fn peek(&self, key: u128, epoch: u64) -> Option<Arc<CachedAnswer>> {
        match self.lock().slots.get(&(key, epoch)) {
            Some(Slot::Ready(ans, _)) => Some(ans.clone()),
            _ => None,
        }
    }

    /// Drop every entry for epochs older than `epoch` (called on publish;
    /// pinned readers re-evaluate rather than consult retired entries).
    /// Followers of a dropped in-flight slot wake and re-claim.
    pub fn retire_before(&self, epoch: u64) {
        self.lock().slots.retain(|&(_, e), slot| {
            if let (true, Slot::InFlight(wake)) = (e < epoch, &*slot) {
                wake.notify_all();
            }
            e >= epoch
        });
    }

    /// Re-key every published entry of epoch `from` whose footprint is
    /// disjoint from `touched` onto `(key, from + 1)`, sharing its
    /// answer. `touched` holds the sorted symbols the write that made
    /// epoch `from + 1` changed, or is `None` when it grew the universe
    /// (which every answer reads), and then nothing is carried. Returns
    /// the number of entries carried.
    ///
    /// The epoch store calls this before it publishes `from + 1`, so no
    /// reader of the new epoch can miss a carried entry.
    pub fn carry_forward(&self, from: u64, touched: Option<&[SymbolId]>) -> usize {
        let Some(touched) = touched else { return 0 };
        let mut state = self.lock();
        let carried: Vec<(u128, Arc<CachedAnswer>, Arc<[SymbolId]>)> = state
            .slots
            .iter()
            .filter_map(|(&(key, epoch), slot)| match slot {
                Slot::Ready(ans, Some(reads))
                    if epoch == from && !reads.iter().any(|s| touched.binary_search(s).is_ok()) =>
                {
                    Some((key, ans.clone(), reads.clone()))
                }
                _ => None,
            })
            .collect();
        let n = carried.len();
        for (key, ans, reads) in carried {
            state
                .slots
                .entry((key, from + 1))
                .or_insert(Slot::Ready(ans, Some(reads)));
        }
        drop(state);
        self.shared.carried.fetch_add(n as u64, Ordering::Relaxed);
        n
    }

    /// Entries re-keyed onto a newer epoch by
    /// [`carry_forward`](AnswerCache::carry_forward) so far.
    pub fn carried(&self) -> u64 {
        self.shared.carried.load(Ordering::Relaxed)
    }

    /// `(hits, misses, coalesced followers)` so far.
    pub fn stats(&self) -> (u64, u64, u64) {
        (
            self.shared.hits.load(Ordering::Relaxed),
            self.shared.misses.load(Ordering::Relaxed),
            self.shared.coalesced.load(Ordering::Relaxed),
        )
    }

    /// Entries currently resident (published + in flight).
    pub fn len(&self) -> usize {
        self.lock().slots.len()
    }

    /// Is the cache empty?
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    fn lock(&self) -> std::sync::MutexGuard<'_, State> {
        // The map is only touched under this lock and every mutation
        // leaves it consistent, so a poisoned lock (leader panicked while
        // holding it) is recoverable.
        self.shared.state.lock().unwrap_or_else(|e| e.into_inner())
    }
}

/// The leader's claim on an in-flight slot. Publish the answer, or drop
/// to abandon (followers wake and re-claim).
pub struct LeaderGuard {
    shared: Arc<Shared>,
    key: u128,
    epoch: u64,
    done: bool,
}

impl LeaderGuard {
    /// Publish the evaluated answer, waking the slot's followers with a
    /// hit.
    /// `footprint` is the sorted EDB symbols the evaluation read (see
    /// [`Footprint`]); it decides which later writes the answer survives.
    pub fn publish(mut self, answer: CachedAnswer, footprint: Footprint) -> Arc<CachedAnswer> {
        let ans = Arc::new(answer);
        let prev = self
            .shared
            .state
            .lock()
            .unwrap_or_else(|e| e.into_inner())
            .slots
            .insert((self.key, self.epoch), Slot::Ready(ans.clone(), footprint));
        self.done = true;
        if let Some(Slot::InFlight(wake)) = prev {
            wake.notify_all();
        }
        ans
    }
}

impl Drop for LeaderGuard {
    fn drop(&mut self) {
        if self.done {
            return;
        }
        // Abandon: clear the in-flight slot and wake its followers so one
        // of them becomes the new leader. Runs on panic unwind too.
        let mut state = self.shared.state.lock().unwrap_or_else(|e| e.into_inner());
        let slot = (self.key, self.epoch);
        if let Some(Slot::InFlight(wake)) = state.slots.get(&slot) {
            wake.notify_all();
            state.slots.remove(&slot);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::thread;

    fn ans(n: u32) -> CachedAnswer {
        CachedAnswer {
            rows: vec![vec![Elem(n)]],
            fuel_spent: 1,
            stages: 1,
        }
    }

    #[test]
    fn leader_publishes_followers_hit() {
        let cache = AnswerCache::new();
        let leader = match cache.claim(7, 0, Duration::from_secs(1)) {
            Claim::Leader(g) => g,
            _ => panic!("first claim leads"),
        };

        let c2 = cache.clone();
        let follower = thread::spawn(move || match c2.claim(7, 0, Duration::from_secs(5)) {
            Claim::Hit { answer, .. } => answer.rows.clone(),
            _ => panic!("follower must receive the published answer"),
        });

        // Publish once the follower has counted itself, i.e. is blocked.
        while cache.stats().2 == 0 {
            thread::sleep(Duration::from_millis(1));
        }
        leader.publish(ans(42), None);
        assert_eq!(follower.join().unwrap(), vec![vec![Elem(42)]]);

        let (hits, misses, coalesced) = cache.stats();
        assert_eq!((hits, misses), (1, 1));
        assert_eq!(coalesced, 1);
    }

    #[test]
    fn follower_counts_once_while_other_keys_publish() {
        let cache = AnswerCache::new();
        let leader = match cache.claim(1, 0, Duration::from_secs(1)) {
            Claim::Leader(g) => g,
            _ => panic!("first claim leads"),
        };
        let c2 = cache.clone();
        let follower = thread::spawn(move || match c2.claim(1, 0, Duration::from_secs(10)) {
            Claim::Hit { waited, .. } => waited,
            _ => panic!("follower must receive the published answer"),
        });
        // The follower counts itself under the lock it releases only by
        // waiting, so once the count shows, it is blocked on the condvar.
        while cache.stats().2 == 0 {
            thread::sleep(Duration::from_millis(1));
        }
        // Publishes of other keys must not disturb the follower. The
        // pauses would let it re-check key 1 between wake-ups if it were
        // woken; the count must read 1 however many of them it sees.
        for key in 2..6 {
            publish_at(&cache, key, 0, None);
            thread::sleep(Duration::from_millis(20));
        }
        leader.publish(ans(1), None);
        assert!(follower.join().unwrap());
        assert_eq!(cache.stats().2, 1);
    }

    #[test]
    fn abandoned_leader_wakes_followers_to_reclaim() {
        let cache = AnswerCache::new();
        let leader = match cache.claim(9, 3, Duration::from_secs(1)) {
            Claim::Leader(g) => g,
            _ => panic!("first claim leads"),
        };

        let c2 = cache.clone();
        let follower = thread::spawn(move || c2.claim(9, 3, Duration::from_secs(5)));

        thread::sleep(Duration::from_millis(20));
        drop(leader); // abandon (stands in for a panicking worker)

        match follower.join().unwrap() {
            Claim::Leader(g) => {
                g.publish(ans(1), None);
            }
            _ => panic!("follower re-claims leadership after abandonment"),
        }
        assert!(cache.peek(9, 3).is_some());
    }

    #[test]
    fn retiring_an_in_flight_slot_wakes_its_followers() {
        let cache = AnswerCache::new();
        let _leader = match cache.claim(9, 0, Duration::from_secs(1)) {
            Claim::Leader(g) => g,
            _ => panic!("first claim leads"),
        };
        let c2 = cache.clone();
        let follower = thread::spawn(move || c2.claim(9, 0, Duration::from_secs(30)));
        while cache.stats().2 == 0 {
            thread::sleep(Duration::from_millis(1));
        }
        // The slot is gone, so the woken follower leads a fresh
        // evaluation instead of waiting out its 30 s.
        let t0 = std::time::Instant::now();
        cache.retire_before(1);
        assert!(matches!(follower.join().unwrap(), Claim::Leader(_)));
        assert!(t0.elapsed() < Duration::from_secs(10));
    }

    #[test]
    fn distinct_epochs_are_distinct_entries_and_retire() {
        let cache = AnswerCache::new();
        for epoch in 0..3u64 {
            match cache.claim(5, epoch, Duration::ZERO) {
                Claim::Leader(g) => {
                    g.publish(ans(epoch as u32), None);
                }
                _ => panic!("fresh (key, epoch) leads"),
            }
        }
        assert_eq!(cache.len(), 3);
        assert_eq!(cache.peek(5, 0).unwrap().rows, vec![vec![Elem(0)]]);

        cache.retire_before(2);
        assert_eq!(cache.len(), 1);
        assert!(cache.peek(5, 0).is_none());
        assert!(cache.peek(5, 2).is_some());
    }

    fn publish_at(cache: &AnswerCache, key: u128, epoch: u64, footprint: Footprint) {
        match cache.claim(key, epoch, Duration::ZERO) {
            Claim::Leader(g) => {
                g.publish(ans(key as u32), footprint);
            }
            _ => panic!("fresh (key, epoch) leads"),
        }
    }

    fn reads(syms: &[u16]) -> Footprint {
        Some(syms.iter().map(|&s| SymbolId(s)).collect())
    }

    #[test]
    fn carry_forward_keeps_only_disjoint_footprints() {
        let cache = AnswerCache::new();
        publish_at(&cache, 1, 4, reads(&[0])); // reads E only
        publish_at(&cache, 2, 4, reads(&[0, 1])); // reads E and S
        publish_at(&cache, 3, 4, reads(&[])); // reads no relation
        publish_at(&cache, 4, 3, reads(&[0])); // an older epoch

        // The write that made epoch 5 touched S.
        assert_eq!(cache.carry_forward(4, Some(&[SymbolId(1)])), 2);
        assert_eq!(cache.carried(), 2);
        let carried = cache.peek(1, 5).expect("disjoint entry is carried");
        assert!(Arc::ptr_eq(&carried, &cache.peek(1, 4).unwrap()), "shared");
        assert!(cache.peek(3, 5).is_some(), "empty footprint is carried");
        assert!(cache.peek(2, 5).is_none(), "touched entry is not carried");
        assert!(
            cache.peek(4, 5).is_none(),
            "only the preceding epoch carries"
        );

        // Carried entries carry again across the next disjoint write.
        assert_eq!(cache.carry_forward(5, Some(&[SymbolId(1)])), 2);
        assert!(cache.peek(1, 6).is_some());
    }

    #[test]
    fn universe_growth_and_none_footprints_carry_nothing() {
        let cache = AnswerCache::new();
        publish_at(&cache, 1, 0, reads(&[0]));
        publish_at(&cache, 2, 0, None);
        assert_eq!(cache.carry_forward(0, None), 0, "universe growth");
        assert!(cache.peek(1, 1).is_none());
        assert_eq!(cache.carry_forward(0, Some(&[])), 1, "nothing touched");
        assert!(cache.peek(1, 1).is_some());
        assert!(cache.peek(2, 1).is_none(), "None reads everything");
        assert_eq!(cache.carried(), 1);
    }

    #[test]
    fn late_publish_for_the_old_epoch_is_not_carried() {
        let cache = AnswerCache::new();
        let leader = match cache.claim(7, 0, Duration::ZERO) {
            Claim::Leader(g) => g,
            _ => panic!("leads"),
        };
        // The write publishes epoch 1 while the leader still evaluates.
        assert_eq!(cache.carry_forward(0, Some(&[])), 0, "in flight");
        leader.publish(ans(7), reads(&[0]));
        assert!(cache.peek(7, 0).is_some());
        assert!(cache.peek(7, 1).is_none(), "a miss on epoch 1, not stale");
        match cache.claim(7, 1, Duration::ZERO) {
            Claim::Leader(_) => {}
            _ => panic!("epoch 1 evaluates afresh"),
        }
    }

    #[test]
    fn follower_times_out_on_stuck_leader() {
        let cache = AnswerCache::new();
        let _stuck = match cache.claim(1, 0, Duration::ZERO) {
            Claim::Leader(g) => g,
            _ => panic!("leads"),
        };
        match cache.claim(1, 0, Duration::from_millis(30)) {
            Claim::TimedOut => {}
            _ => panic!("follower must time out, not hang"),
        }
    }
}
