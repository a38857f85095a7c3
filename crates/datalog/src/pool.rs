//! The engine's one worker pool: a deterministic, panic-isolated parallel
//! map shared by the sharded evaluator and incremental maintenance.

use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::atomic::{AtomicBool, AtomicUsize, Ordering};
use std::sync::Mutex;

/// Map `f` over `0..n` on up to `workers` scoped threads and return the
/// results in index order, plus whether a worker panic forced a
/// sequential recovery. `workers <= 1` (or a single item) runs inline on
/// the calling thread.
///
/// Workers pull indices from an atomic cursor (cheap dynamic load
/// balancing); results are re-ordered by index afterwards, so every fold
/// over them is deterministic regardless of scheduling.
///
/// Panic isolation: every item runs behind its own `catch_unwind`
/// boundary, so a panicking item can neither unwind through the scope
/// nor stall siblings — the remaining workers drain and join normally.
/// When any item panicked, the parallel results are discarded wholesale
/// and all of `0..n` is recomputed on the calling thread. Callers map a
/// shared immutable context to results, so the rerun observes no state
/// from the abandoned pass and returns exactly what a sequential run does.
pub(crate) fn run<T, F>(workers: usize, n: usize, f: F) -> (Vec<T>, bool)
where
    T: Send,
    F: Fn(usize) -> T + Sync,
{
    if workers <= 1 || n <= 1 {
        return ((0..n).map(f).collect(), false);
    }
    let cursor = AtomicUsize::new(0);
    let panicked = AtomicBool::new(false);
    let collected: Mutex<Vec<(usize, T)>> = Mutex::new(Vec::with_capacity(n));
    std::thread::scope(|s| {
        for _ in 0..workers.min(n) {
            s.spawn(|| {
                let mut local: Vec<(usize, T)> = Vec::new();
                loop {
                    let i = cursor.fetch_add(1, Ordering::Relaxed);
                    if i >= n {
                        break;
                    }
                    let result = catch_unwind(AssertUnwindSafe(|| {
                        #[cfg(feature = "fault-inject")]
                        if hp_guard::fault::should_panic("datalog.worker", i as u64) {
                            panic!("fault injection: forced worker panic at item {i}");
                        }
                        f(i)
                    }));
                    match result {
                        Ok(r) => local.push((i, r)),
                        Err(_) => {
                            // This batch is void; stop pulling work and let
                            // the caller's thread recompute it.
                            panicked.store(true, Ordering::Relaxed);
                            break;
                        }
                    }
                }
                // Tolerate a poisoned results lock: the Vec under it is
                // still well-formed, and on the recovery path it is
                // discarded anyway.
                collected
                    .lock()
                    .unwrap_or_else(|e| e.into_inner())
                    .extend(local);
            });
        }
    });
    if panicked.load(Ordering::Relaxed) {
        return ((0..n).map(f).collect(), true);
    }
    let mut results = collected.into_inner().unwrap_or_else(|e| e.into_inner());
    results.sort_unstable_by_key(|&(i, _)| i);
    (results.into_iter().map(|(_, r)| r).collect(), false)
}
