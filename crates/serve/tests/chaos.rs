//! The chaos suite: randomized fault schedules against the full service.
//!
//! Requires `--features fault-inject` (the hooks compile to no-ops
//! otherwise, so the whole file is gated). Each schedule installs a
//! randomized [`hp_guard::fault::FaultPlan`] — worker panics, forced
//! budget exhaustion, writer failure — and drives a mixed batch of
//! concurrent queries, updates, renamed duplicates, interrupted requests,
//! and resume attempts at 1, 2, and 4 client threads. The assertions are
//! the robustness contract of ISSUE 9:
//!
//! * every request terminates with a typed response (completion itself is
//!   the no-hang proof; the CI job runs under a timeout),
//! * no poisoned lock: after the storm, the service still answers,
//! * no leaked admission permits: depth drains to zero,
//! * no stale- or mixed-epoch answers: all full answers observed for the
//!   same `(query, epoch)` pair — cache hits, misses, coalesced waits,
//!   maintained-view reads, and explicit `no_cache` fresh evaluations
//!   alike — are bit-identical.

#![cfg(feature = "fault-inject")]

use std::collections::HashMap;
use std::sync::{Arc, Mutex};

use hp_guard::{fault, Interrupt};
use hp_serve::protocol::{parse_request, CacheOutcome, Response};
use hp_serve::service::{QueryService, ServiceConfig};
use hp_structures::{Elem, Structure, Vocabulary};

/// Deterministic xorshift* so schedules are reproducible from their seed.
struct XorShift(u64);

impl XorShift {
    fn new(seed: u64) -> XorShift {
        XorShift(seed.wrapping_mul(0x9e37_79b9_7f4a_7c15) | 1)
    }
    fn next(&mut self) -> u64 {
        let mut x = self.0;
        x ^= x << 13;
        x ^= x >> 7;
        x ^= x << 17;
        self.0 = x;
        x.wrapping_mul(0x2545_f491_4f6c_dd1d)
    }
    fn below(&mut self, n: u64) -> u64 {
        self.next() % n
    }
}

fn seed_structure() -> Structure {
    // A 6-element path: transitive closure does real multi-stage work.
    let mut s = Structure::new(Vocabulary::digraph(), 6);
    let e = s.vocab().lookup("E").unwrap();
    for i in 0..5u32 {
        s.add_tuple(e, &[Elem(i), Elem(i + 1)]).unwrap();
    }
    s
}

/// The query mix. `BASE` and `RENAMED` share a canonical core (cache
/// sharing); `TC` is recursive (cache bypass, budget-sensitive).
const BASE: &str = "{\"op\":\"query\",\"program\":\"Goal(x,y) :- E(x,y).\"}";
const RENAMED: &str = "{\"op\":\"query\",\"program\":\"Goal(u,v) :- E(u,v).\"}";
const BASE_FRESH: &str =
    "{\"op\":\"query\",\"program\":\"Goal(x,y) :- E(x,y).\",\"no_cache\":true}";
const TWO_HOP: &str = "{\"op\":\"query\",\"program\":\"Goal(x,z) :- E(x,y), E(y,z).\"}";
const TC: &str =
    "{\"op\":\"query\",\"program\":\"T(x,y) :- E(x,y). T(x,z) :- T(x,y), E(y,z).\\n# goal: T\"}";

/// Answers observed per (query label, epoch), for bit-identity checks.
type Observed = Mutex<HashMap<(&'static str, u64), Vec<Vec<Elem>>>>;

fn record(observed: &Observed, label: &'static str, epoch: u64, rows: &[Vec<Elem>]) {
    let mut map = observed.lock().unwrap();
    match map.entry((label, epoch)) {
        std::collections::hash_map::Entry::Occupied(prev) => {
            assert_eq!(
                prev.get(),
                &rows.to_vec(),
                "answers for {label} diverged on epoch {epoch}: cached and fresh \
                 evaluations must be bit-identical"
            );
        }
        std::collections::hash_map::Entry::Vacant(slot) => {
            slot.insert(rows.to_vec());
        }
    }
}

/// One randomized fault plan. Roughly: half the schedules inject a
/// one-shot worker panic (absorbed by the retry), a quarter a persistent
/// worker panic span (surfaces as a typed fault), a quarter a writer
/// panic, some force budget exhaustion on top, and half of those left
/// without a panic get a one-shot panic in a view catch-up.
fn random_plan(rng: &mut XorShift) -> fault::FaultPlan {
    let panic_roll = rng.below(4);
    let (panic_at, panic_span) = match panic_roll {
        0 => (None, None),
        1 => (Some(("serve.worker".to_string(), rng.below(24))), None),
        2 => {
            let lo = rng.below(24);
            (
                None,
                Some(("serve.worker".to_string(), lo, lo + rng.below(6))),
            )
        }
        _ => (Some(("serve.writer".to_string(), 1 + rng.below(3))), None),
    };
    let exhaust_at = if rng.below(4) == 0 {
        Some(200 + rng.below(400))
    } else {
        None
    };
    // Drawn last, so the plans above stay what they were: some schedules
    // without a worker or writer panic panic a view catch-up instead.
    let panic_at = match panic_at {
        None if rng.below(2) == 0 => Some(("serve.view".to_string(), rng.below(24))),
        other => other,
    };
    fault::FaultPlan {
        exhaust_at,
        panic_at,
        panic_span,
    }
}

/// Drive one client's request stream. Returns the resume tokens it could
/// not spend (none should leak permits either way).
fn client(svc: &QueryService, schedule_seed: u64, id: u64, observed: &Observed) {
    let mut rng = XorShift::new(schedule_seed ^ (id.wrapping_mul(0xabcd_ef01)) ^ 0x5eed);
    let mut pending_resume: Option<String> = None;
    for step in 0..12 {
        let roll = rng.below(10);
        // `label` names the query actually sent, so full answers can be
        // checked for bit-identity per (query, epoch). Empty = unlabeled.
        let (line, label): (String, &'static str) = match roll {
            // Renamed duplicate and no_cache fresh eval answer the same
            // query as BASE: all three must agree bit-for-bit.
            0 | 1 => (BASE.to_string(), "base"),
            2 => (RENAMED.to_string(), "base"),
            3 => (BASE_FRESH.to_string(), "base"),
            4 => (TWO_HOP.to_string(), "two_hop"),
            5 => {
                // Tiny fuel: exercises the partial + resume ladder.
                let line = format!(
                    "{{\"op\":\"query\",\"program\":\"T(x,y) :- E(x,y). T(x,z) :- T(x,y), E(y,z).\\n# goal: T\",\"fuel\":{}}}",
                    1 + rng.below(6)
                );
                (line, "")
            }
            // Served from the maintained view once built; it must agree
            // with every other full TC answer on the same epoch.
            6 => (TC.to_string(), "tc"),
            7 => match pending_resume.take() {
                // A resume completes the TC query, possibly on an epoch
                // older than current — unlabeled, like TC itself.
                Some(t) => (
                    format!("{{\"op\":\"query\",\"resume\":\"{t}\",\"fuel\":100000}}"),
                    "",
                ),
                None => (BASE.to_string(), "base"),
            },
            8 => {
                let line = format!(
                    "{{\"op\":\"update\",\"insert\":{{\"E\":[[{},{}]]}}}}",
                    rng.below(6),
                    rng.below(6)
                );
                (line, "")
            }
            _ => ("{\"op\":\"stats\"}".to_string(), ""),
        };
        let interrupt = Interrupt::new();
        if rng.below(8) == 0 {
            // A client that vanished before its request ran.
            interrupt.trigger();
        }
        let req = parse_request(&line).unwrap_or_else(|e| panic!("bad test line {line}: {e}"));
        let resp = svc.handle(&req, &interrupt);
        // Every response is typed by construction; assert the *contract*
        // of each variant we can check locally.
        match resp {
            Response::Answer { epoch, rows, .. } => {
                if !label.is_empty() {
                    record(observed, label, epoch, &rows);
                }
            }
            Response::Partial { resume, .. } => {
                if let Some(t) = resume {
                    pending_resume = Some(t);
                }
            }
            Response::Overloaded(_)
            | Response::Fault { .. }
            | Response::Error { .. }
            | Response::Updated { .. }
            | Response::Stats { .. }
            | Response::Bye => {}
        }
        let _ = step;
    }
}

fn run_schedule(schedule: u64, threads: usize) {
    let mut rng = XorShift::new(schedule.wrapping_mul(1337).wrapping_add(threads as u64));
    let svc = Arc::new(QueryService::new(
        seed_structure(),
        ServiceConfig {
            default_timeout_ms: 5_000,
            ..ServiceConfig::default()
        },
    ));
    fault::install(random_plan(&mut rng));
    let observed = Arc::new(Mutex::new(HashMap::new()));
    let handles: Vec<_> = (0..threads as u64)
        .map(|id| {
            let svc = svc.clone();
            let observed = observed.clone();
            std::thread::spawn(move || client(&svc, schedule, id, &observed))
        })
        .collect();
    for h in handles {
        h.join()
            .expect("client threads never die: panics are absorbed by the service");
    }
    fault::clear();

    // No poisoned locks, no leaked permits: the post-storm service is
    // fully functional.
    assert_eq!(
        svc.gate().depth(),
        0,
        "schedule {schedule}: admission permit leaked"
    );
    let req = parse_request(BASE).unwrap();
    match svc.handle(&req, &Interrupt::new()) {
        Response::Answer { .. } => {}
        other => panic!("schedule {schedule}: post-storm request failed: {other:?}"),
    }
}

/// ≥ 100 randomized schedules across 1/2/4 client threads (36 × 3 = 108),
/// per the ISSUE 9 acceptance bar.
#[test]
fn randomized_fault_schedules_terminate_typed() {
    let _serial = fault::exclusive();
    for &threads in &[1usize, 2, 4] {
        for schedule in 0..36 {
            run_schedule(schedule, threads);
        }
    }
}

/// Satellite 3 regression, service level: a worker panic pinned to one
/// request's sequence number faults that request (both attempts) and only
/// that request; the next request on the same service succeeds and the
/// pool is not poisoned.
#[test]
fn pinned_worker_panic_faults_one_request_only() {
    let _serial = fault::exclusive();
    let svc = QueryService::new(seed_structure(), ServiceConfig::default());
    fault::install(fault::FaultPlan {
        exhaust_at: None,
        panic_at: None,
        // Span [0,0]: request seq 0 panics on the first attempt AND the
        // retry (same seq), then the span disarms.
        panic_span: Some(("serve.worker".to_string(), 0, 0)),
    });
    let req = parse_request(BASE).unwrap();
    match svc.handle(&req, &Interrupt::new()) {
        Response::Fault { retried, .. } => assert!(retried, "the one retry must have happened"),
        other => panic!("expected a typed fault, got {other:?}"),
    }
    let resp = svc.handle(&req, &Interrupt::new());
    fault::clear();
    match resp {
        Response::Answer { rows, .. } => assert_eq!(rows.len(), 5),
        other => panic!("next request must succeed, got {other:?}"),
    }
    assert_eq!(svc.gate().depth(), 0);
}

/// Satellite 3 regression, socket level: the same scenario through a
/// live Unix-socket connection. The mid-request worker panic neither
/// hangs the connection nor poisons the pool; the client reads a typed
/// `"status":"fault"` line and the *same connection*'s next request
/// succeeds, followed by a clean shutdown.
#[test]
fn socket_worker_panic_is_typed_and_connection_survives() {
    use std::io::{BufRead, BufReader, Write};
    use std::os::unix::net::UnixStream;

    let _serial = fault::exclusive();
    let path = std::env::temp_dir().join(format!("hp-serve-chaos-{}.sock", std::process::id()));
    let svc = Arc::new(QueryService::new(
        seed_structure(),
        ServiceConfig::default(),
    ));
    let server = hp_serve::server::Server::bind(&path, svc).unwrap();

    fault::install(fault::FaultPlan {
        exhaust_at: None,
        panic_at: None,
        panic_span: Some(("serve.worker".to_string(), 0, 0)),
    });

    let c = UnixStream::connect(&path).unwrap();
    let roundtrip = move |line: &str| -> String {
        let mut w = c.try_clone().unwrap();
        writeln!(w, "{line}").unwrap();
        w.flush().unwrap();
        let mut r = BufReader::new(c.try_clone().unwrap());
        let mut out = String::new();
        r.read_line(&mut out).unwrap();
        out.trim_end().to_string()
    };

    let faulted = roundtrip(BASE);
    assert!(faulted.contains("\"status\":\"fault\""), "{faulted}");
    assert!(faulted.contains("\"retried\":true"), "{faulted}");

    let ok = roundtrip(BASE);
    fault::clear();
    assert!(
        ok.contains("\"status\":\"ok\""),
        "same connection must recover: {ok}"
    );

    let bye = roundtrip("{\"op\":\"shutdown\"}");
    assert!(bye.contains("\"status\":\"bye\""), "{bye}");
    server.wait();
    assert!(!path.exists(), "socket removed on clean shutdown");
}

/// A panic in the middle of a view catch-up (site `"serve.view"`, after
/// maintenance, before the epoch stamp) poisons that view's lock. The
/// retry finds it poisoned, drops the view and evaluates; the answer is
/// correct, the next request rebuilds nothing stale, and no permit leaks.
#[test]
fn view_catchup_panic_is_retried_on_the_plain_path() {
    let _serial = fault::exclusive();
    let svc = QueryService::new(seed_structure(), ServiceConfig::default());
    let req = parse_request(TC).unwrap();
    let ask = |svc: &QueryService| match svc.handle(&req, &Interrupt::new()) {
        Response::Answer {
            rows, cache, epoch, ..
        } => {
            let snap = svc.epochs().pin();
            assert_eq!(epoch, snap.epoch);
            let p = hp_datalog::Program::parse(
                "T(x,y) :- E(x,y). T(x,z) :- T(x,y), E(y,z).\n# goal: T",
                snap.structure.vocab(),
            )
            .unwrap();
            let mut want: Vec<Vec<Elem>> = p
                .evaluate_reference(&snap.structure)
                .goal()
                .map(|g| g.iter().map(|t| t.to_vec()).collect())
                .unwrap_or_default();
            want.sort();
            let mut rows = rows;
            rows.sort();
            assert_eq!(rows, want, "{cache:?} answer on epoch {epoch}");
            cache
        }
        other => panic!("{other:?}"),
    };
    // Requests 0 and 1 record the program and build its view.
    ask(&svc);
    assert_eq!(ask(&svc), CacheOutcome::View);
    let update = parse_request("{\"op\":\"update\",\"insert\":{\"E\":[[5,0]]}}").unwrap();
    assert!(matches!(
        svc.handle(&update, &Interrupt::new()),
        Response::Updated { epoch: 1 }
    ));
    // Request 2's first attempt panics mid catch-up.
    fault::install(fault::FaultPlan {
        exhaust_at: None,
        panic_at: Some(("serve.view".to_string(), 2)),
        panic_span: None,
    });
    let outcome = ask(&svc);
    fault::clear();
    assert_eq!(outcome, CacheOutcome::View, "the retry rebuilt the view");
    assert_eq!(svc.views().len(), 1);
    assert_eq!(
        svc.views().catchups(),
        0,
        "the poisoned catch-up never counted"
    );
    assert_eq!(svc.gate().depth(), 0, "no permit leaked");

    // Nothing poisoned stays reachable: the rebuilt view catches up.
    svc.handle(
        &parse_request("{\"op\":\"update\",\"delete\":{\"E\":[[2,3]]}}").unwrap(),
        &Interrupt::new(),
    );
    assert_eq!(ask(&svc), CacheOutcome::View);
    assert_eq!(svc.views().catchups(), 1);
    assert_eq!(svc.gate().depth(), 0);
}

/// Mid-batch writer failure: a panic invalidates nothing — the published
/// epoch is unchanged, a reader pinned across the failure still sees its
/// snapshot, and the (retried) writer path stays usable.
#[test]
fn writer_panic_mid_batch_leaves_epochs_consistent() {
    let _serial = fault::exclusive();
    let svc = QueryService::new(seed_structure(), ServiceConfig::default());
    let pinned = svc.epochs().pin();
    // Persistent writer panic on epoch 1: the once-retry also fails.
    fault::install(fault::FaultPlan {
        exhaust_at: None,
        panic_at: None,
        panic_span: Some(("serve.writer".to_string(), 1, 1)),
    });
    let update = parse_request("{\"op\":\"update\",\"insert\":{\"E\":[[5,0]]}}").unwrap();
    match svc.handle(&update, &Interrupt::new()) {
        Response::Fault { retried, .. } => assert!(retried),
        other => panic!("expected a typed writer fault, got {other:?}"),
    }
    fault::clear();
    assert_eq!(
        svc.epochs().current_epoch(),
        0,
        "failed batch published nothing"
    );
    assert_eq!(pinned.epoch, 0);
    // The writer is not poisoned: the same batch now applies.
    match svc.handle(&update, &Interrupt::new()) {
        Response::Updated { epoch } => assert_eq!(epoch, 1),
        other => panic!("{other:?}"),
    }
}
