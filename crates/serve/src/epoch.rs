//! Epoch-based snapshot isolation for the query service.
//!
//! The writer is the only mutator. It validates every tuple of an update
//! batch before touching anything, then builds the successor structure
//! **copy-on-write**: the new structure starts as a clone of the current
//! one, which shares every relation by `Arc`, and only the relations the
//! batch writes are copied before they change. Universe growth copies
//! nothing (element ids are stable). The result is published as a new
//! immutable [`Snapshot`] behind an `Arc`, so an epoch costs what its
//! write touched, and untouched relations are one allocation shared by
//! every epoch that has them. Readers [`pin`](EpochStore::pin) the
//! current snapshot — a mutex-protected `Arc` clone taking a few
//! nanoseconds — and from then on never interact with the writer: a
//! pinned epoch stays fully readable while any number of later epochs are
//! published. An epoch retires (the relations only it holds are freed)
//! when the last reader drops its `Arc`; there is no epoch list to
//! garbage-collect and no reader registration, the `Arc` refcount *is*
//! the retirement protocol.
//!
//! Before it publishes epoch *t*, the writer carries the cached answers
//! of *t−1* that read none of the touched relations over to *t*
//! ([`AnswerCache::carry_forward`]), so no reader of *t* can miss one.
//!
//! Because a failed or panicking batch dies on the unpublished successor,
//! the published snapshot is never observed half-written: writer faults
//! are contained by construction, which the chaos suite verifies by
//! injecting a panic mid-batch (site `"serve.writer"`).

use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::{Arc, Mutex};

use hp_structures::{Elem, Structure, SymbolId, Vocabulary};

use crate::cache::AnswerCache;

/// One immutable published version of the database.
#[derive(Debug)]
pub struct Snapshot {
    /// Monotone version number, starting at 0 for the seed structure.
    pub epoch: u64,
    /// The sealed structure. Never mutated after publication; relations
    /// the writes since a neighbouring epoch left alone are shared with it.
    pub structure: Structure,
}

/// A validated EDB update batch: tuples to insert and delete by relation
/// name, plus an optional universe extension.
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct UpdateBatch {
    /// Add this many fresh elements to the universe before applying
    /// tuple changes (new elements take the next ids).
    pub grow_universe: u32,
    /// Tuples to insert, as `(relation name, tuple)`.
    pub inserts: Vec<(String, Vec<Elem>)>,
    /// Tuples to delete, as `(relation name, tuple)`.
    pub deletes: Vec<(String, Vec<Elem>)>,
}

/// Why an update batch was rejected. The published snapshot is untouched
/// in every case.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum WriteError {
    /// A relation name in the batch is not in the vocabulary.
    UnknownRelation(String),
    /// A tuple's length does not match its relation's arity.
    BadArity {
        /// The offending relation.
        relation: String,
        /// The relation's declared arity.
        expected: usize,
        /// The tuple length supplied.
        got: usize,
    },
    /// A tuple element is outside the (possibly grown) universe.
    ElementOutOfRange {
        /// The offending relation.
        relation: String,
        /// The out-of-range element id.
        element: u32,
        /// The universe size the batch would produce.
        universe: u32,
    },
    /// The writer panicked while applying the batch (only reachable with
    /// fault injection; a real batch is fully validated up front). The
    /// snapshot in force before the batch is still published.
    WriterPanic,
}

impl std::fmt::Display for WriteError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            WriteError::UnknownRelation(r) => write!(f, "unknown relation {r:?}"),
            WriteError::BadArity {
                relation,
                expected,
                got,
            } => write!(
                f,
                "relation {relation:?} has arity {expected}, tuple has {got}"
            ),
            WriteError::ElementOutOfRange {
                relation,
                element,
                universe,
            } => write!(
                f,
                "element {element} in {relation:?} outside universe of size {universe}"
            ),
            WriteError::WriterPanic => f.write_str("writer panicked mid-batch; epoch unchanged"),
        }
    }
}

impl std::error::Error for WriteError {}

/// The single-writer, multi-reader epoch store.
pub struct EpochStore {
    current: Mutex<Arc<Snapshot>>,
    // Serializes writers so validate→build→carry→publish is atomic with
    // respect to other writers; readers never take this lock.
    writer: Mutex<()>,
    cache: AnswerCache,
}

impl EpochStore {
    /// Seal `seed` as epoch 0; each publish carries `cache`'s answers
    /// that the write missed onto the new epoch.
    pub fn new(seed: Structure, cache: AnswerCache) -> Self {
        EpochStore {
            current: Mutex::new(Arc::new(Snapshot {
                epoch: 0,
                structure: seed,
            })),
            writer: Mutex::new(()),
            cache,
        }
    }

    /// Pin the current snapshot. The returned `Arc` keeps the whole epoch
    /// alive until dropped; the writer is never blocked by a pin, and the
    /// lock is held only for the duration of an `Arc` clone.
    pub fn pin(&self) -> Arc<Snapshot> {
        self.current
            .lock()
            .unwrap_or_else(|e| e.into_inner())
            .clone()
    }

    /// The currently published epoch number.
    pub fn current_epoch(&self) -> u64 {
        self.pin().epoch
    }

    /// Validate and apply an update batch, publishing a new epoch on
    /// success and leaving the published snapshot untouched on any
    /// failure. Returns the new epoch number.
    ///
    /// Writers are serialized; concurrent readers keep their pinned
    /// epochs throughout. An injected panic at site `"serve.writer"`
    /// (chaos suite) is caught here and surfaces as
    /// [`WriteError::WriterPanic`] — the panic happens on the unpublished
    /// successor, so isolation is preserved, which the caller can verify
    /// by re-pinning.
    pub fn apply(&self, batch: &UpdateBatch) -> Result<u64, WriteError> {
        let _writer = self.writer.lock().unwrap_or_else(|e| e.into_inner());
        let base = self.pin();
        let next_epoch = base.epoch + 1;

        let vocab = base.structure.vocab();
        let new_universe = base.structure.universe_size() as u32 + batch.grow_universe;
        validate(vocab, new_universe, &batch.inserts)?;
        validate(vocab, new_universe, &batch.deletes)?;

        // Everything is validated: build the successor structure on an
        // unpublished value. A panic beyond this point (fault injection)
        // unwinds out of the closure without having touched `current`.
        let built = catch_unwind(AssertUnwindSafe(|| {
            apply_validated(&base.structure, batch, next_epoch)
        }))
        .map_err(|_| WriteError::WriterPanic)?;

        // Carry before the swap: a reader that pins the new epoch finds
        // every carried answer already in place.
        let touched = (batch.grow_universe == 0).then(|| touched_symbols(vocab, batch));
        self.cache.carry_forward(base.epoch, touched.as_deref());

        *self.current.lock().unwrap_or_else(|e| e.into_inner()) = Arc::new(Snapshot {
            epoch: next_epoch,
            structure: built,
        });
        Ok(next_epoch)
    }
}

fn validate(
    vocab: &Vocabulary,
    universe: u32,
    tuples: &[(String, Vec<Elem>)],
) -> Result<(), WriteError> {
    for (name, tuple) in tuples {
        let sym = vocab
            .lookup(name)
            .ok_or_else(|| WriteError::UnknownRelation(name.clone()))?;
        let arity = vocab.arity(sym);
        if tuple.len() != arity {
            return Err(WriteError::BadArity {
                relation: name.clone(),
                expected: arity,
                got: tuple.len(),
            });
        }
        if let Some(e) = tuple.iter().find(|e| e.0 >= universe) {
            return Err(WriteError::ElementOutOfRange {
                relation: name.clone(),
                element: e.0,
                universe,
            });
        }
    }
    Ok(())
}

/// The sorted symbols `batch` names: the relations its epoch may differ
/// in from its predecessor (besides the universe).
fn touched_symbols(vocab: &Vocabulary, batch: &UpdateBatch) -> Vec<SymbolId> {
    let mut syms: Vec<SymbolId> = batch
        .inserts
        .iter()
        .chain(&batch.deletes)
        .map(|(name, _)| vocab.lookup(name).expect("validated"))
        .collect();
    syms.sort_unstable();
    syms.dedup();
    syms
}

/// The successor of `base` under a validated batch. The clone shares
/// every relation with `base`; each write copies its relation at most
/// once, on first touch.
fn apply_validated(base: &Structure, batch: &UpdateBatch, next_epoch: u64) -> Structure {
    let vocab = base.vocab();
    let mut next = base.clone();
    next.grow_universe(batch.grow_universe as usize);

    let mut step = 0u64;
    for (name, tuple) in &batch.deletes {
        fault_point(next_epoch, &mut step);
        let sym = vocab.lookup(name).expect("validated");
        next.remove_tuple(sym, tuple);
    }
    for (name, tuple) in &batch.inserts {
        fault_point(next_epoch, &mut step);
        let sym = vocab.lookup(name).expect("validated");
        next.add_tuple(sym, tuple).expect("validated");
    }
    next
}

/// Chaos-suite hook: panic mid-batch when the installed
/// [`hp_guard::fault::FaultPlan`] names site `"serve.writer"` with a
/// counter matching this batch's target epoch (so a test can kill, say,
/// exactly the third update).
#[cfg(any(test, feature = "fault-inject"))]
fn fault_point(next_epoch: u64, step: &mut u64) {
    *step += 1;
    if *step == 1 && hp_guard::fault::should_panic("serve.writer", next_epoch) {
        panic!("injected writer fault at epoch {next_epoch}");
    }
}

#[cfg(not(any(test, feature = "fault-inject")))]
fn fault_point(_next_epoch: u64, _step: &mut u64) {}

#[cfg(test)]
mod tests {
    use super::*;

    fn seed() -> Structure {
        // digraph vocabulary: E/2 over a 4-element universe with a path.
        let mut s = Structure::new(Vocabulary::digraph(), 4);
        let e = s.vocab().lookup("E").unwrap();
        s.add_tuple(e, &[Elem(0), Elem(1)]).unwrap();
        s.add_tuple(e, &[Elem(1), Elem(2)]).unwrap();
        s
    }

    #[test]
    fn pinned_epoch_survives_later_writes() {
        let store = EpochStore::new(seed(), AnswerCache::new());
        let pinned = store.pin();
        assert_eq!(pinned.epoch, 0);
        let before = pinned.structure.total_tuples();

        let e1 = store
            .apply(&UpdateBatch {
                inserts: vec![("E".into(), vec![Elem(2), Elem(3)])],
                ..Default::default()
            })
            .unwrap();
        assert_eq!(e1, 1);

        // The old pin still sees the old data, the new pin the new data.
        assert_eq!(pinned.structure.total_tuples(), before);
        assert_eq!(store.pin().structure.total_tuples(), before + 1);
        assert_eq!(store.current_epoch(), 1);
    }

    #[test]
    fn writes_copy_only_the_relations_they_touch() {
        let vocab = Vocabulary::from_pairs([("E", 2), ("S", 1)]);
        let (e, s) = (vocab.lookup("E").unwrap(), vocab.lookup("S").unwrap());
        let mut seed = Structure::new(vocab, 4);
        seed.add_tuple(e, &[Elem(0), Elem(1)]).unwrap();
        let store = EpochStore::new(seed, AnswerCache::new());
        let old = store.pin();
        store
            .apply(&UpdateBatch {
                inserts: vec![("S".into(), vec![Elem(2)])],
                ..Default::default()
            })
            .unwrap();
        let new = store.pin();
        assert!(std::ptr::eq(
            old.structure.relation(e),
            new.structure.relation(e)
        ));
        assert!(!std::ptr::eq(
            old.structure.relation(s),
            new.structure.relation(s)
        ));
        assert!(old.structure.relation(s).is_empty(), "old epoch unchanged");
        assert_eq!(new.structure.relation(s).len(), 1);

        // Universe growth copies no relation either.
        store
            .apply(&UpdateBatch {
                grow_universe: 1,
                ..Default::default()
            })
            .unwrap();
        let grown = store.pin();
        assert_eq!(grown.structure.universe_size(), 5);
        assert!(std::ptr::eq(
            new.structure.relation(s),
            grown.structure.relation(s)
        ));
    }

    #[test]
    fn snapshots_share_permuted_copies_until_a_write_splices_them() {
        let vocab = Vocabulary::from_pairs([("E", 2), ("S", 1)]);
        let e = vocab.lookup("E").unwrap();
        let mut seed = Structure::new(vocab, 6);
        for (u, v) in [(0, 1), (1, 2), (2, 0), (3, 2), (4, 5)] {
            seed.add_tuple(e, &[Elem(u), Elem(v)]).unwrap();
        }
        let store = EpochStore::new(seed, AnswerCache::new());
        let old = store.pin();
        let (built, _) = old.structure.relation(e).copy(&[1]);
        let write = |rel: &str, insert: Vec<Elem>, delete: Vec<Elem>| {
            store
                .apply(&UpdateBatch {
                    inserts: vec![(rel.into(), insert)],
                    deletes: vec![(rel.into(), delete)],
                    ..Default::default()
                })
                .unwrap();
            store.pin()
        };

        // A write to S carries E, copy and all, in the same allocation.
        let next = write("S", vec![Elem(2)], vec![Elem(4)]);
        let carried = next.structure.relation(e).copies().next().unwrap().1;
        assert!(std::ptr::eq(built, carried));
        assert!(std::ptr::eq(built, next.structure.relation(e).copy(&[1]).0));

        // A write to E splices the successor's carried copy, which then
        // equals a fresh build; the old epoch's copy is untouched.
        let before = built.clone();
        let after = write("E", vec![Elem(5), Elem(1)], vec![Elem(2), Elem(0)]);
        let rel = after.structure.relation(e);
        let carried = rel.copies().next().unwrap().1;
        let mut fresh = hp_structures::Relation::new(2);
        fresh.merge_store(rel.store());
        assert_eq!(carried, fresh.copy(&[1]).0);
        assert_eq!(carried.heap_bytes(), fresh.copy(&[1]).0.heap_bytes());
        assert_eq!(rel.copies().count(), 1);
        assert_eq!(old.structure.relation(e).copy(&[1]).0, &before);
    }

    #[test]
    fn invalid_batches_are_rejected_atomically() {
        let store = EpochStore::new(seed(), AnswerCache::new());
        let bad = UpdateBatch {
            inserts: vec![
                ("E".into(), vec![Elem(3), Elem(3)]),
                ("Q".into(), vec![Elem(0)]),
            ],
            ..Default::default()
        };
        assert_eq!(
            store.apply(&bad),
            Err(WriteError::UnknownRelation("Q".into()))
        );
        // Nothing applied — not even the valid first insert.
        assert_eq!(store.current_epoch(), 0);
        assert_eq!(store.pin().structure.total_tuples(), 2);

        let bad_arity = UpdateBatch {
            inserts: vec![("E".into(), vec![Elem(0)])],
            ..Default::default()
        };
        assert!(matches!(
            store.apply(&bad_arity),
            Err(WriteError::BadArity {
                expected: 2,
                got: 1,
                ..
            })
        ));

        let out_of_range = UpdateBatch {
            deletes: vec![("E".into(), vec![Elem(0), Elem(9)])],
            ..Default::default()
        };
        assert!(matches!(
            store.apply(&out_of_range),
            Err(WriteError::ElementOutOfRange {
                element: 9,
                universe: 4,
                ..
            })
        ));
    }

    #[test]
    fn universe_growth_preserves_existing_tuples() {
        let store = EpochStore::new(seed(), AnswerCache::new());
        store
            .apply(&UpdateBatch {
                grow_universe: 2,
                inserts: vec![("E".into(), vec![Elem(3), Elem(5)])],
                ..Default::default()
            })
            .unwrap();
        let snap = store.pin();
        assert_eq!(snap.structure.universe_size(), 6);
        assert_eq!(snap.structure.total_tuples(), 3);
        let e = snap.structure.vocab().lookup("E").unwrap();
        assert!(snap.structure.contains_tuple(e, &[Elem(0), Elem(1)]));
        assert!(snap.structure.contains_tuple(e, &[Elem(3), Elem(5)]));
    }

    #[test]
    fn injected_writer_panic_leaves_epoch_unchanged() {
        let _serial = hp_guard::fault::exclusive();
        let store = EpochStore::new(seed(), AnswerCache::new());
        hp_guard::fault::install(hp_guard::fault::FaultPlan {
            exhaust_at: None,
            panic_at: Some(("serve.writer".to_string(), 1)),
            panic_span: None,
        });
        let r = store.apply(&UpdateBatch {
            inserts: vec![("E".into(), vec![Elem(2), Elem(3)])],
            ..Default::default()
        });
        hp_guard::fault::clear();
        assert_eq!(r, Err(WriteError::WriterPanic));
        assert_eq!(store.current_epoch(), 0, "failed batch publishes nothing");
        assert_eq!(store.pin().structure.total_tuples(), 2);

        // The store is not poisoned: the same batch now succeeds.
        let e = store
            .apply(&UpdateBatch {
                inserts: vec![("E".into(), vec![Elem(2), Elem(3)])],
                ..Default::default()
            })
            .unwrap();
        assert_eq!(e, 1);
    }
}
