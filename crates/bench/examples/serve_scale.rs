//! Closed-loop load generator behind the "Query service" table in
//! EXPERIMENTS.md: `T` client threads drive a shared in-process
//! [`QueryService`] as fast as it answers, over a 64-element random
//! digraph, with the ISSUE-9 request mix:
//!
//! * 60% cacheable conjunctive queries from a pool of eight distinct
//!   shapes (the steady-state cache-hit source),
//! * 15% renamed duplicates of pool queries (hit via the canonical core),
//! * 10% `no_cache` fresh evaluations (bit-identity spot checks ride on
//!   the chaos suite; here they are the cache-miss floor),
//! *  5% recursive transitive closure (no core key: answered from its
//!    maintained view once two evaluations completed, caught up after
//!    each update),
//! *  5% single-edge EDB updates (epoch churn: each one invalidates the
//!    cache's older epochs) — flips of a fixed 32-edge churn pool, so the
//!    graph's density stays bounded while epochs keep advancing,
//! *  5% 1-fuel queries (budget partials, the degradation ladder).
//!
//! Admission depth is capped at 4, so the 8-thread row exercises the
//! shed path under real contention. Per row the table reports throughput,
//! p50/p99 latency, cache hit rate (hits + coalesced waits over full
//! answers), and shed rate. A shed request counts as missing every
//! latency limit: it ranks above every served latency, and a percentile
//! that lands on one is `null`. Each row is run [`hp_bench::K`] times;
//! throughput is from the median run's wall time, everything else from
//! the last run.
//!
//! Usage: `serve_scale [REQS_PER_ROW] [--json PATH]` — rows for 1, 2, 4,
//! and 8 client threads (default 60000 requests per row; CI passes a
//! smaller count for the smoke run). With `--json
//! PATH` a machine-readable snapshot (the committed `BENCH_serve.json`)
//! is written alongside the table.

use std::time::Instant;

use hp_bench::{args, median_ms, write_json, Row, Table, XorShift};
use hp_preservation::prelude::*;
use hp_serve::epoch::UpdateBatch;
use hp_serve::json::Json;
use hp_serve::protocol::{CacheOutcome, QueryRequest, Request, Response};
use hp_serve::service::{QueryService, ServiceConfig};

/// 64 elements, 128 random edges over `{E/2}`.
fn serve_structure() -> Structure {
    let mut rng = XorShift(0xE5CA1E | 1);
    let mut b = Structure::builder(Vocabulary::digraph(), 64);
    for _ in 0..128 {
        let (u, w) = (rng.below(64), rng.below(64));
        b = b.tuple(0, &[u, w]);
    }
    b.build()
}

/// The cacheable pool: eight distinct join shapes with distinct cores.
const POOL: [&str; 8] = [
    "Goal(x,y) :- E(x,y).",
    "Goal(x) :- E(x,x).",
    "Goal(x,z) :- E(x,y), E(y,z).",
    "Goal(x) :- E(x,y), E(y,x).",
    "Goal(y) :- E(x,y), E(y,z).",
    "Goal(x,w) :- E(x,y), E(y,z), E(z,w).",
    "Goal(x,y) :- E(x,y), E(x,x).",
    "Goal(x) :- E(x,y), E(x,z), E(y,z).",
];

/// The same pool under a variable renaming: identical canonical cores.
const POOL_RENAMED: [&str; 8] = [
    "Goal(u,v) :- E(u,v).",
    "Goal(u) :- E(u,u).",
    "Goal(u,w) :- E(u,v), E(v,w).",
    "Goal(u) :- E(u,v), E(v,u).",
    "Goal(v) :- E(u,v), E(v,w).",
    "Goal(u,s) :- E(u,v), E(v,w), E(w,s).",
    "Goal(u,v) :- E(u,v), E(u,u).",
    "Goal(u) :- E(u,v), E(u,w), E(v,w).",
];

const TC: &str = "T(x,y) :- E(x,y). T(x,z) :- T(x,y), E(y,z).\n# goal: T";

/// The latency recorded for a shed request: above every served one.
const SHED: u64 = u64::MAX;

/// Per-thread tallies, merged after the run.
#[derive(Default)]
struct Tally {
    /// Nanoseconds per request, [`SHED`] for a shed one.
    latencies_ns: Vec<u64>,
    answers: u64,
    hits: u64,
    partials: u64,
    faults: u64,
}

fn client(svc: &QueryService, seed: u64, reqs: usize) -> Tally {
    let mut rng = XorShift(seed | 1);
    let mut t = Tally {
        latencies_ns: Vec::with_capacity(reqs),
        ..Tally::default()
    };
    let query = |program: &str, no_cache, fuel| {
        Request::Query(QueryRequest {
            program: Some(program.to_string()),
            no_cache,
            fuel,
            ..QueryRequest::default()
        })
    };
    for _ in 0..reqs {
        let req = match rng.below(100) {
            0..=59 => query(POOL[rng.below(8) as usize], false, None),
            60..=74 => query(POOL_RENAMED[rng.below(8) as usize], false, None),
            75..=84 => query(POOL[rng.below(8) as usize], true, None),
            85..=89 => query(TC, false, None),
            90..=94 => {
                // Flip one churn-pool edge: density stays bounded, the
                // epoch (and cache invalidation) still churns.
                let i = rng.below(32);
                let edge = vec![("E".to_string(), vec![Elem(i), Elem((i * 7 + 13) % 64)])];
                Request::Update(if rng.below(2) == 0 {
                    UpdateBatch {
                        inserts: edge,
                        ..UpdateBatch::default()
                    }
                } else {
                    UpdateBatch {
                        deletes: edge,
                        ..UpdateBatch::default()
                    }
                })
            }
            _ => query(POOL[rng.below(8) as usize], false, Some(1)),
        };
        let interrupt = Interrupt::new();
        let t0 = Instant::now();
        let resp = svc.handle(&req, &interrupt);
        let ns = t0.elapsed().as_nanos() as u64;
        t.latencies_ns
            .push(if matches!(resp, Response::Overloaded(_)) {
                SHED
            } else {
                ns
            });
        match resp {
            Response::Answer { cache, .. } => {
                t.answers += 1;
                if matches!(cache, CacheOutcome::Hit | CacheOutcome::Coalesced) {
                    t.hits += 1;
                }
            }
            Response::Partial { .. } => t.partials += 1,
            Response::Fault { .. } => t.faults += 1,
            Response::Overloaded(_) | Response::Updated { .. } | Response::Stats { .. } => {}
            other @ (Response::Error { .. } | Response::Bye) => {
                panic!("unexpected response in bench loop: {other:?}")
            }
        }
    }
    t
}

/// The `p`-quantile of `sorted_ns` in ms, `None` when it lands on a shed
/// request.
fn percentile(sorted_ns: &[u64], p: f64) -> Option<f64> {
    let idx = ((sorted_ns.len() - 1) as f64 * p).round() as usize;
    Some(sorted_ns[idx])
        .filter(|&ns| ns != SHED)
        .map(|ns| ns as f64 / 1e6)
}

/// Runs `threads` clients of `per_thread` requests each against a fresh
/// service and returns their tallies, checking that the service drained.
fn run(threads: usize, per_thread: usize) -> Vec<Tally> {
    let svc = QueryService::new(
        serve_structure(),
        ServiceConfig {
            max_depth: 4,
            ..ServiceConfig::default()
        },
    );
    let tallies = std::thread::scope(|s| {
        let handles: Vec<_> = (0..threads as u64)
            .map(|i| {
                let svc = &svc;
                s.spawn(move || client(svc, 0xBEEF + i * 0x9e37_79b9, per_thread))
            })
            .collect();
        handles
            .into_iter()
            .map(|h| h.join().expect("client thread"))
            .collect()
    });
    assert_eq!(svc.gate().depth(), 0, "admission permits must drain");
    tallies
}

fn main() {
    let (reqs_per_row, json) = args(60_000, 8..=usize::MAX);
    let mut table = Table::new();
    for threads in [1usize, 2, 4, 8] {
        let per_thread = reqs_per_row / threads;
        let (ms, tallies) = median_ms(|| run(threads, per_thread));
        let total = per_thread * threads;
        let mut latencies: Vec<u64> = tallies
            .iter()
            .flat_map(|t| t.latencies_ns.iter().copied())
            .collect();
        latencies.sort_unstable();
        let sum = |f: fn(&Tally) -> u64| tallies.iter().map(f).sum::<u64>();
        let (answers, hits) = (sum(|t| t.answers), sum(|t| t.hits));
        let sheds = latencies.iter().filter(|&&ns| ns == SHED).count();
        assert_eq!(
            sum(|t| t.faults),
            0,
            "no fault plan installed: the bench must be fault-free"
        );
        table.push(
            Row::new()
                .int("threads", threads)
                .int("requests", total)
                .num("req_per_s", total as f64 / ms * 1e3, 0)
                .num("p50_ms", percentile(&latencies, 0.50), 4)
                .num("p99_ms", percentile(&latencies, 0.99), 4)
                .num("cache_hit_rate", hits as f64 / answers.max(1) as f64, 4)
                .num("shed_rate", sheds as f64 / total as f64, 6)
                .int("sheds", sheds)
                .int("partials", sum(|t| t.partials) as usize),
        );
    }

    if let Some(path) = json {
        write_json(
            &path,
            "serve_scale",
            "closed-loop mixed request stream (60% pooled CQs, 15% renamed \
             duplicates, 10% no_cache, 5% recursive TC, 5% EDB updates, 5% \
             1-fuel partials) against an in-process QueryService, 64-element \
             random digraph, admission depth 4",
            vec![
                ("requests_per_row", Json::Num(reqs_per_row as f64)),
                ("rows", table.json()),
            ],
        );
    }
}
