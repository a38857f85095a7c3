//! Served answers against the reference evaluator across writes.
//!
//! Random update batches (inserts and deletes on `E`, `S` and `T`, now
//! and then a universe extension) are interleaved with a pool of queries
//! that read different subsets of the vocabulary: cached conjunctive
//! queries and recursive programs served from maintained views. Every
//! answer — a miss, a hit on the epoch it was published for, a hit
//! carried over from an earlier epoch because the writes since missed
//! its footprint, or a view caught up to the reader's epoch — must equal
//! `evaluate_reference` on the structure of the epoch it reports. So must
//! the answers of readers pinned to an epoch the views have moved past.
//! The cache also stays bounded: at most one entry per key for the
//! current epoch and one for its predecessor.

use std::collections::HashSet;
use std::sync::Arc;

use proptest::prelude::*;

use hp_analysis::goal_core_key;
use hp_datalog::Program;
use hp_guard::{Budget, Interrupt};
use hp_logic::{parse_formula, ucq_of_existential_positive};
use hp_serve::protocol::{CacheOutcome, QueryRequest, Request, Response};
use hp_serve::service::{QueryService, ServiceConfig};
use hp_serve::{Snapshot, UpdateBatch};
use hp_structures::{Elem, Structure, Vocabulary};

/// How a pooled query's answer is computed independently of the service.
enum Oracle {
    /// `evaluate_reference` of this Datalog program's goal.
    Reference(&'static str),
    /// Every element of the universe, one per row.
    Universe,
}

/// A pooled query: the request text, whether it is a formula, and its
/// oracle.
struct Pooled {
    text: &'static str,
    formula: bool,
    oracle: Oracle,
}

const fn program(text: &'static str) -> Pooled {
    Pooled {
        text,
        formula: false,
        oracle: Oracle::Reference(text),
    }
}

const POOL: [Pooled; 16] = [
    program("Goal(x,y) :- E(x,y)."),
    // Renamed duplicate of the first (same canonical core key).
    program("Goal(u,v) :- E(u,v)."),
    program("Goal(x) :- S(x)."),
    program("Goal(x) :- E(x,y), T(y)."),
    // Renamed, reordered duplicate of the previous query.
    program("Goal(a) :- T(b), E(a,b)."),
    program("Goal(x) :- S(x), T(x)."),
    program("Goal(x,z) :- E(x,y), E(y,z)."),
    program("Goal(x) :- S(x).\nGoal(x) :- T(x)."),
    program("Goal(x) :- S(x), not T(x)."),
    // The empty-body rule: reads no relation at all.
    program("Goal()."),
    Pooled {
        text: "exists y. (E(x,y) & T(y))",
        formula: true,
        oracle: Oracle::Reference("Goal(x) :- E(x,y), T(y)."),
    },
    // Reads only the universe, so only its growth may change the answer.
    Pooled {
        text: "x = x",
        formula: true,
        oracle: Oracle::Universe,
    },
    // Recursive positive programs, served from maintained views.
    program("R(x) :- S(x).\nR(y) :- R(x), E(x,y).\n# goal: R"),
    program("T(x,y) :- E(x,y).\nT(x,z) :- T(x,y), E(y,z).\n# goal: T"),
    // Two IDBs in one recursive component: walks of odd and even length.
    program(
        "Odd(x,y) :- E(x,y).\nOdd(x,z) :- Even(x,y), E(y,z).\nEven(x,z) :- Odd(x,y), E(y,z).\n# goal: Even",
    ),
    // A recursive component below a non-recursive consumer.
    program("R(x) :- S(x).\nR(y) :- R(x), E(x,y).\nGoal(x) :- R(x), T(x)."),
];

/// The pool's recursive programs: no core key, so pinned readers can ask
/// them without publishing cache entries for a past epoch.
const RECURSIVE: std::ops::Range<usize> = 12..16;

fn vocab() -> Vocabulary {
    Vocabulary::from_pairs([("E", 2), ("S", 1), ("T", 1)])
}

const NAMES: [&str; 3] = ["E", "S", "T"];

/// One change of a batch: relation index, insert (else delete), and two
/// raw element picks taken modulo the universe.
type Change = (usize, u8, u32, u32);

/// One step: a kind roll (queries below 6, writes from 6), a pool pick,
/// the write's changes, and a growth roll (a write grows the universe
/// when it is 0).
type Step = (usize, usize, Vec<Change>, u32);

fn change(
    vocab: &Vocabulary,
    universe: u32,
    &(rel, insert, a, b): &Change,
) -> (bool, String, Vec<Elem>) {
    let name = NAMES[rel];
    let arity = vocab.arity(vocab.lookup(name).unwrap());
    let tuple = [a, b][..arity]
        .iter()
        .map(|&e| Elem(e % universe))
        .collect();
    (insert == 1, name.to_string(), tuple)
}

fn seed_structure(edges: &[(u32, u32)], marks: &[(usize, u32)]) -> Structure {
    let mut s = Structure::new(vocab(), 5);
    for &(a, b) in edges {
        s.add_tuple_ids(0, &[a % 5, b % 5]).unwrap();
    }
    for &(rel, a) in marks {
        s.add_tuple_ids(1 + rel % 2, &[a % 5]).unwrap();
    }
    s
}

fn key_of(q: &Pooled, vocab: &Vocabulary) -> Option<u128> {
    if q.formula {
        let (f, _) = parse_formula(q.text, vocab).expect("pooled formula parses");
        let ucq = ucq_of_existential_positive(&f, vocab).expect("existential positive");
        return Some(ucq.canonical_core_key().as_u128());
    }
    let p = Program::parse(q.text, vocab).expect("pooled program parses");
    goal_core_key(&p, &Budget::unlimited())
        .expect("unlimited budget")
        .map(|k| k.as_u128())
}

fn expected(q: &Pooled, a: &Structure) -> Vec<Vec<Elem>> {
    let mut rows: Vec<Vec<Elem>> = match q.oracle {
        Oracle::Reference(text) => {
            let p = Program::parse(text, a.vocab()).expect("oracle program parses");
            p.evaluate_reference(a)
                .goal()
                .map(|g| g.iter().map(|t| t.to_vec()).collect())
                .unwrap_or_default()
        }
        Oracle::Universe => a.elements().map(|e| vec![e]).collect(),
    };
    rows.sort();
    rows
}

fn request(q: &Pooled) -> Request {
    Request::Query(query_request(q))
}

fn query_request(q: &Pooled) -> QueryRequest {
    let text = Some(q.text.to_string());
    if q.formula {
        QueryRequest {
            formula: text,
            ..QueryRequest::default()
        }
    } else {
        QueryRequest {
            program: text,
            ..QueryRequest::default()
        }
    }
}

/// The rows of a full answer on `snap`, checked against the reference;
/// returns the cache outcome.
fn check_answer(
    resp: Response,
    q: &Pooled,
    snap: &Snapshot,
) -> Result<CacheOutcome, TestCaseError> {
    match resp {
        Response::Answer {
            epoch,
            mut rows,
            cache,
            ..
        } => {
            prop_assert_eq!(epoch, snap.epoch, "answer on the pinned epoch");
            rows.sort();
            prop_assert_eq!(
                rows,
                expected(q, &snap.structure),
                "{:?} answer to {:?} on epoch {}",
                cache,
                q.text,
                epoch
            );
            Ok(cache)
        }
        other => {
            prop_assert!(false, "{:?} not answered: {other:?}", q.text);
            unreachable!()
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    #[test]
    fn served_answers_match_the_reference_across_writes(
        edges in prop::collection::vec((0..64u32, 0..64u32), 0..8),
        marks in prop::collection::vec((0..2usize, 0..64u32), 0..6),
        steps in prop::collection::vec(
            (
                0..10usize,
                0..POOL.len(),
                prop::collection::vec((0..3usize, 0..2u8, 0..64u32, 0..64u32), 1..=3),
                0..8u32,
            ),
            1..60,
        ),
    ) {
        let vocab = vocab();
        let svc = QueryService::new(seed_structure(&edges, &marks), ServiceConfig::default());
        let mut keys: HashSet<u128> = HashSet::new();
        // An epoch some writes ago, still pinned by a reader.
        let mut behind: Option<Arc<Snapshot>> = None;
        let steps: Vec<Step> = steps;
        for (kind, pick, changes, grow) in &steps {
            if *kind >= 6 {
                if pick % 2 == 0 || behind.is_none() {
                    behind = Some(svc.epochs().pin());
                }
                let universe = svc.epochs().pin().structure.universe_size() as u32;
                let grow_universe = if *grow == 0 { 1 + *pick as u32 % 2 } else { 0 };
                let mut batch = UpdateBatch {
                    grow_universe,
                    ..UpdateBatch::default()
                };
                for c in changes {
                    let (insert, name, tuple) = change(&vocab, universe + grow_universe, c);
                    if insert {
                        batch.inserts.push((name, tuple));
                    } else {
                        batch.deletes.push((name, tuple));
                    }
                }
                let before = svc.epochs().current_epoch();
                match svc.handle(&Request::Update(batch), &Interrupt::new()) {
                    Response::Updated { epoch } => prop_assert_eq!(epoch, before + 1),
                    other => prop_assert!(false, "write failed: {other:?}"),
                }
                continue;
            }

            let q = &POOL[*pick];
            keys.extend(key_of(q, &vocab));
            match &behind {
                Some(old) if *kind == 5 && RECURSIVE.contains(pick) => {
                    let resp = svc.query_at(&query_request(q), old, &Interrupt::new());
                    check_answer(resp, q, old)?;
                }
                _ => {
                    let resp = svc.handle(&request(q), &Interrupt::new());
                    // Single client: the answer is on the current epoch.
                    check_answer(resp, q, &svc.epochs().pin())?;
                }
            }
            // Nothing is in flight between sequential requests.
            prop_assert!(
                svc.cache().len() <= 2 * keys.len(),
                "{} entries for {} keys",
                svc.cache().len(),
                keys.len()
            );
        }
    }
}

/// A fixed schedule through every view transition: record, build, catch up
/// across inserts and deletes, a reader pinned behind the view, universe
/// growth (drop and rebuild), and `no_cache`. Every answer is checked
/// against the reference, and the outcomes must show the view at work.
#[test]
fn views_follow_writes_readers_behind_and_growth() {
    let svc = QueryService::new(
        seed_structure(&[(0, 1), (1, 2), (2, 3), (3, 4)], &[(0, 0), (1, 3)]),
        ServiceConfig::default(),
    );
    let write = |inserts: &[(&str, Vec<u32>)], deletes: &[(&str, Vec<u32>)], grow: u32| {
        let tuples = |ts: &[(&str, Vec<u32>)]| {
            ts.iter()
                .map(|(r, t)| (r.to_string(), t.iter().map(|&e| Elem(e)).collect()))
                .collect()
        };
        let batch = UpdateBatch {
            grow_universe: grow,
            inserts: tuples(inserts),
            deletes: tuples(deletes),
        };
        assert!(matches!(
            svc.handle(&Request::Update(batch), &Interrupt::new()),
            Response::Updated { .. }
        ));
    };
    let ask_all = |snap: &Arc<Snapshot>| -> Vec<CacheOutcome> {
        POOL[RECURSIVE]
            .iter()
            .map(|q| {
                check_answer(
                    svc.query_at(&query_request(q), snap, &Interrupt::new()),
                    q,
                    snap,
                )
                .unwrap_or_else(|e| panic!("{e:?}"))
            })
            .collect()
    };
    let current = || svc.epochs().pin();
    let n = RECURSIVE.len();

    assert_eq!(
        ask_all(&current()),
        vec![CacheOutcome::View; n],
        "built by the first request"
    );
    assert_eq!(ask_all(&current()), vec![CacheOutcome::View; n], "built");
    let epoch0 = current();
    write(&[("E", vec![4, 0]), ("T", vec![2])], &[], 0);
    assert_eq!(
        ask_all(&current()),
        vec![CacheOutcome::View; n],
        "caught up"
    );
    write(&[("S", vec![4])], &[("E", vec![1, 2]), ("S", vec![0])], 0);
    assert_eq!(
        ask_all(&current()),
        vec![CacheOutcome::View; n],
        "caught up"
    );
    assert_eq!(
        ask_all(&epoch0),
        vec![CacheOutcome::Bypass; n],
        "behind the views"
    );
    assert_eq!(svc.views().len(), n);

    write(&[("E", vec![4, 5]), ("S", vec![5])], &[], 1);
    assert_eq!(
        ask_all(&current()),
        vec![CacheOutcome::View; n],
        "dropped and rebuilt"
    );
    write(&[("E", vec![5, 1])], &[("T", vec![2])], 0);
    assert_eq!(
        ask_all(&current()),
        vec![CacheOutcome::View; n],
        "caught up"
    );
    assert_eq!(svc.views().catchups(), 3 * n as u64);

    let fresh = |q: &Pooled| QueryRequest {
        no_cache: true,
        ..query_request(q)
    };
    for q in &POOL[RECURSIVE] {
        let snap = current();
        let resp = svc.query_at(&fresh(q), &snap, &Interrupt::new());
        let outcome = check_answer(resp, q, &snap).unwrap_or_else(|e| panic!("{e:?}"));
        assert_eq!(outcome, CacheOutcome::Bypass, "no_cache skips the view");
    }
}
