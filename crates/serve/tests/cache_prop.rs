//! Property tests for the answer cache (ISSUE 9 satellite 2).
//!
//! Over random nonrecursive UCQ programs the cache must be *exactly* as
//! sharp as the canonical-core key:
//!
//! * a cache hit happens **iff** the two programs have equal
//!   [`CanonicalCoreKey`](hp_analysis::CanonicalCoreKey)s — in
//!   particular under variable renaming and disjunct reordering, which
//!   never change the key;
//! * a cached answer is bit-identical to a fresh (`no_cache`) evaluation
//!   of the same program on the same epoch.

use proptest::prelude::*;

use hp_analysis::goal_core_key;
use hp_datalog::Program;
use hp_guard::{Budget, Interrupt};
use hp_serve::protocol::{CacheOutcome, QueryRequest, Request, Response};
use hp_serve::service::{QueryService, ServiceConfig};
use hp_structures::{Elem, Structure, Vocabulary};

/// One disjunct: `E`-atoms over a 4-variable pool, plus head-variable
/// picks (indices into the disjunct's distinct-variable list, mod its
/// length, so heads are always range-restricted).
type Disjunct = (Vec<(usize, usize)>, Vec<usize>);

/// A UCQ with a fixed goal arity shared by every disjunct.
#[derive(Clone, Debug)]
struct Ucq {
    arity: usize,
    disjuncts: Vec<Disjunct>,
}

impl Ucq {
    /// The same union as an `hp_logic` query built straight from the
    /// atoms — one tableau per disjunct, the head picks as its free
    /// elements — with no detour through the canonical form the cache key
    /// uses.
    fn to_logic(&self) -> hp_logic::Ucq {
        let disjuncts = self
            .disjuncts
            .iter()
            .map(|(atoms, picks)| {
                let mut seen: Vec<usize> = Vec::new();
                for &(a, b) in atoms {
                    for v in [a, b] {
                        if !seen.contains(&v) {
                            seen.push(v);
                        }
                    }
                }
                let slot = |v: usize| Elem(seen.iter().position(|&s| s == v).unwrap() as u32);
                let mut tableau = Structure::new(Vocabulary::digraph(), seen.len());
                let e = tableau.vocab().lookup("E").unwrap();
                for &(a, b) in atoms {
                    tableau.add_tuple(e, &[slot(a), slot(b)]).unwrap();
                }
                let free: Vec<Elem> = picks
                    .iter()
                    .take(self.arity)
                    .map(|&p| Elem((p % seen.len()) as u32))
                    .collect();
                hp_logic::Cq::with_free(&tableau, &free)
            })
            .collect();
        hp_logic::Ucq::new(disjuncts)
    }

    /// A variant of this union: disjunct 0 with the reverse of its first
    /// atom added (so it is contained in disjunct 0), either added as an
    /// extra disjunct (`replace` false: an equivalent union) or in place
    /// of disjunct 0 (`replace` true: equivalent or strictly smaller).
    fn tightened(&self, replace: bool) -> Ucq {
        let (atoms, picks) = &self.disjuncts[0];
        let mut tight = atoms.clone();
        tight.push((atoms[0].1, atoms[0].0));
        let mut out = self.clone();
        if replace {
            out.disjuncts[0] = (tight, picks.clone());
        } else {
            out.disjuncts.push((tight, picks.clone()));
        }
        out
    }

    /// Render as Datalog text, naming variable slot `i` as `names[i]`,
    /// with disjuncts rotated left by `rot`.
    fn render(&self, names: &[&str; 4], rot: usize) -> String {
        let n = self.disjuncts.len();
        let mut out = String::new();
        for i in 0..n {
            let (atoms, picks) = &self.disjuncts[(i + rot) % n];
            let mut seen: Vec<usize> = Vec::new();
            for &(a, b) in atoms {
                for v in [a, b] {
                    if !seen.contains(&v) {
                        seen.push(v);
                    }
                }
            }
            let head: Vec<&str> = picks
                .iter()
                .take(self.arity)
                .map(|&p| names[seen[p % seen.len()]])
                .collect();
            let body: Vec<String> = atoms
                .iter()
                .map(|&(a, b)| format!("E({},{})", names[a], names[b]))
                .collect();
            out.push_str(&format!(
                "Goal({}) :- {}.\n",
                head.join(","),
                body.join(", ")
            ));
        }
        out
    }
}

fn ucq_strategy() -> impl Strategy<Value = Ucq> {
    (1..=2usize)
        .prop_flat_map(|arity| {
            let disjunct = (
                prop::collection::vec((0..4usize, 0..4usize), 1..=3),
                prop::collection::vec(0..64usize, arity),
            );
            (Just(arity), prop::collection::vec(disjunct, 1..=3))
        })
        .prop_map(|(arity, disjuncts)| Ucq { arity, disjuncts })
}

/// The service structure: a 5-element path plus one back edge, so
/// two-hop joins and self-joins all have non-trivial answers.
fn seed_structure() -> Structure {
    let mut s = Structure::new(Vocabulary::digraph(), 5);
    let e = s.vocab().lookup("E").unwrap();
    for i in 0..4u32 {
        s.add_tuple(e, &[Elem(i), Elem(i + 1)]).unwrap();
    }
    s.add_tuple(e, &[Elem(3), Elem(1)]).unwrap();
    s
}

fn query(svc: &QueryService, text: &str, no_cache: bool) -> Response {
    let req = Request::Query(QueryRequest {
        program: Some(text.to_string()),
        no_cache,
        ..QueryRequest::default()
    });
    svc.handle(&req, &Interrupt::new())
}

fn answer(resp: Response) -> (Vec<Vec<Elem>>, CacheOutcome) {
    match resp {
        Response::Answer { rows, cache, .. } => (rows, cache),
        other => panic!("expected a full answer, got {other:?}"),
    }
}

fn key_of(text: &str) -> u128 {
    let p = Program::parse(text, &Vocabulary::digraph()).expect("generated program parses");
    goal_core_key(&p, &Budget::unlimited())
        .expect("unlimited budget")
        .expect("nonrecursive UCQ with a goal always has a key")
        .as_u128()
}

const ORIGINAL: [&str; 4] = ["x", "y", "z", "w"];
const RENAMED: [&str; 4] = ["v", "u", "r", "s"];

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// Renaming variables and reordering disjuncts never changes the
    /// canonical-core key, so the second request is a cache hit and its
    /// rows are bit-identical to both the cached and a fresh evaluation.
    #[test]
    fn renamed_reordered_ucq_hits_and_matches_fresh_eval(
        ucq in ucq_strategy(),
        rot in 0..3usize,
    ) {
        let original = ucq.render(&ORIGINAL, 0);
        let variant = ucq.render(&RENAMED, rot);
        prop_assert_eq!(key_of(&original), key_of(&variant));

        let svc = QueryService::new(seed_structure(), ServiceConfig::default());
        let (rows1, c1) = answer(query(&svc, &original, false));
        prop_assert_eq!(c1, CacheOutcome::Miss);

        let (rows2, c2) = answer(query(&svc, &variant, false));
        prop_assert_eq!(c2, CacheOutcome::Hit, "equal keys must share the cache entry");
        prop_assert_eq!(&rows2, &rows1, "cached answer must be bit-identical");

        let (fresh, c3) = answer(query(&svc, &variant, true));
        prop_assert_eq!(c3, CacheOutcome::Bypass);
        prop_assert_eq!(&fresh, &rows1, "cache must agree with a fresh evaluation");
    }

    /// The cache is no *sharper* than the key either: for two independent
    /// random UCQs, the second hits iff the keys are equal — and either
    /// way its rows equal a fresh evaluation on the same epoch.
    #[test]
    fn hit_iff_equal_canonical_core_key(p in ucq_strategy(), q in ucq_strategy()) {
        let p_text = p.render(&ORIGINAL, 0);
        let q_text = q.render(&ORIGINAL, 0);
        let equal_keys = key_of(&p_text) == key_of(&q_text);

        let svc = QueryService::new(seed_structure(), ServiceConfig::default());
        let (p_rows, c1) = answer(query(&svc, &p_text, false));
        prop_assert_eq!(c1, CacheOutcome::Miss);

        let (q_rows, c2) = answer(query(&svc, &q_text, false));
        if equal_keys {
            prop_assert_eq!(c2, CacheOutcome::Hit);
            prop_assert_eq!(&q_rows, &p_rows);
        } else {
            prop_assert_eq!(c2, CacheOutcome::Miss, "distinct keys must not collide");
        }

        let (fresh, _) = answer(query(&svc, &q_text, true));
        prop_assert_eq!(&q_rows, &fresh, "served answer must equal fresh evaluation");
    }

    /// An oracle independent of the key: the second of two UCQs hits iff
    /// the two are mutually contained, decided by Sagiv–Yannakakis
    /// containment (`hp_logic::Ucq::is_contained_in`, a homomorphism
    /// search per disjunct pair) both ways. Half the pairs are a union and
    /// a tightened variant of it, so both outcomes occur.
    #[test]
    fn hit_iff_mutually_contained(p in ucq_strategy(), q in ucq_strategy(), mode in 0..4usize) {
        let q = match mode {
            0 => p.tightened(false),
            1 => p.tightened(true),
            _ => q,
        };
        let (lp, lq) = (p.to_logic(), q.to_logic());
        let equivalent = lp.is_contained_in(&lq) && lq.is_contained_in(&lp);

        let svc = QueryService::new(seed_structure(), ServiceConfig::default());
        let (_, c1) = answer(query(&svc, &p.render(&ORIGINAL, 0), false));
        prop_assert_eq!(c1, CacheOutcome::Miss);
        let (_, c2) = answer(query(&svc, &q.render(&RENAMED, 1), false));
        let want = if equivalent { CacheOutcome::Hit } else { CacheOutcome::Miss };
        prop_assert_eq!(c2, want, "hit iff mutually contained (mode {})", mode);
    }
}
