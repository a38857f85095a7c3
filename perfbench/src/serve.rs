//! The two query-service workloads, `serve_hot` and `serve_churn`.
//!
//! One client drives an in-process [`QueryService`] in a closed loop: each
//! request line is parsed, handled, and rendered before the next is sent,
//! and that whole span is the request's latency. Every answer is checked
//! against a fresh `Program::evaluate` on the pinned epoch's structure.

use std::collections::{BTreeMap, HashMap};
use std::time::{Duration, Instant};

use hp_analysis::goal_core_key;
use hp_datalog::{EvalConfig, Program};
use hp_guard::{Budget, Interrupt};
use hp_serve::json::escape;
use hp_serve::{parse_request, CacheOutcome, QueryService, Request, Response, ServiceConfig};
use hp_structures::{Elem, Structure, Vocabulary};

use crate::inputs::{self, XorShift};
use crate::{Ctx, Outcome};

/// Cacheable conjunctive queries of `serve_hot` over `{E/2}`.
const HOT_POOL: [&str; 10] = [
    "Goal(x,y) :- E(x,y).",
    "Goal(x) :- E(x,x).",
    "Goal(x,z) :- E(x,y), E(y,z).",
    "Goal(x) :- E(x,y), E(y,x).",
    "Goal(y) :- E(x,y), E(y,z).",
    "Goal(x,w) :- E(x,y), E(y,z), E(z,w).",
    "Goal(x,y) :- E(x,y), E(x,x).",
    "Goal(x) :- E(x,y), E(x,z), E(y,z).",
    "Goal(x) :- E(x,y), E(y,z), E(z,x).",
    "Goal(x,z) :- E(x,y), E(y,z), E(x,z).",
];

/// Cacheable conjunctive queries of `serve_churn` over `{E/2, S/1}`: three
/// read only `E` (which writes never touch), three read the sources `S`.
const CHURN_POOL: [&str; 6] = [
    "Goal(x) :- E(x,x).",
    "Goal(x) :- E(x,y), E(y,x).",
    "Goal(x) :- E(x,x), E(x,y), E(y,y).",
    "Goal(y) :- S(x), E(x,y).",
    "Goal(z) :- S(x), E(x,y), E(y,z).",
    "Goal(x,y) :- S(x), E(x,y), S(y).",
];

/// Recursive reach from the sources: never cacheable.
const REACH: &str = "R(x) :- S(x).\nR(y) :- R(x), E(x,y).\n# goal: R";

/// `serve_churn`'s shape index for [`REACH`].
const REACH_SHAPE: usize = CHURN_POOL.len();

/// Elements of the churn graph (before relabelling) whose `S` membership
/// the writes toggle; element 0 is the fixed source.
const TOGGLE_POOL: [u32; 4] = [1, 2, 3, 4];

/// One client operation.
#[derive(Clone)]
enum Op {
    /// A query of shape `shape` (index into the pool, or [`REACH_SHAPE`]),
    /// sent as `text`, timed into latency class `class` (0 = a, 1 = b,
    /// 2 = c).
    Query {
        shape: usize,
        text: String,
        no_cache: bool,
        class: usize,
    },
    /// Toggle `S` membership of toggle-pool member `member`.
    Toggle { member: usize },
}

/// Rename every variable of a one-rule conjunctive query and shuffle its
/// body atoms: a different program text with the same canonical core.
fn renamed(cq: &str, rng: &mut XorShift) -> String {
    let (head, body) = cq.split_once(" :- ").expect("pool queries are one rule");
    let body = body.trim_end_matches('.');
    let mut atoms: Vec<&str> = body.split("), ").collect();
    let last = atoms.len() - 1;
    atoms[last] = atoms[last].trim_end_matches(')');
    rng.shuffle(&mut atoms);
    let fresh = inputs::names(8, false, rng);
    let mut map: HashMap<String, String> = HashMap::new();
    let mut rename = |atom: &str| -> String {
        let (pred, args) = atom.split_once('(').expect("atom has arguments");
        let args: Vec<String> = args
            .trim_end_matches(')')
            .split(',')
            .map(|v| {
                let n = map.len();
                map.entry(v.to_string())
                    .or_insert_with(|| fresh[n].clone())
                    .clone()
            })
            .collect();
        format!("{pred}({})", args.join(","))
    };
    let head = rename(head);
    let body: Vec<String> = atoms.iter().map(|a| rename(a)).collect();
    format!("{head} :- {}.", body.join(", "))
}

/// The client's model of the service state, used to predict every answer.
struct Model {
    /// Expected epoch of the next answer.
    epoch: u64,
    /// Bit `i` set when toggle-pool member `i` is in `S`.
    mask: u64,
    /// Relabelled toggle-pool elements.
    toggles: Vec<u32>,
    /// Expected answers by `(shape, mask)`, as [`digest`]s.
    memo: HashMap<(usize, u64), (usize, u64)>,
}

/// Which of the two workloads.
#[derive(Clone, Copy, PartialEq)]
enum Kind {
    Hot,
    Churn,
}

struct Spec {
    kind: Kind,
    /// Shapes: the CQ pool, then (churn) the reach program.
    shapes: Vec<&'static str>,
    setups: usize,
    /// Requests in the traced replay.
    traced_ops: usize,
}

impl Spec {
    fn new(kind: Kind) -> Spec {
        match kind {
            Kind::Hot => Spec {
                kind,
                shapes: HOT_POOL.to_vec(),
                setups: 15,
                traced_ops: 4000,
            },
            Kind::Churn => {
                let mut shapes = CHURN_POOL.to_vec();
                shapes.push(REACH);
                Spec {
                    kind,
                    shapes,
                    setups: 3,
                    traced_ops: 300,
                }
            }
        }
    }

    /// The seeded input structure.
    fn structure(&self, seed: u64) -> (Structure, Vec<u32>) {
        let mut rng = inputs::rng(seed, 1);
        match self.kind {
            Kind::Hot => {
                // `serve_scale`'s graph: 64 elements, 128 random edges
                // (xorshift64* seeded 0xE5CA1E), relabelled.
                let perm = inputs::permutation(64, &mut rng);
                let mut g = XorShift(0xE5CA1E | 1);
                let mut b = Structure::builder(Vocabulary::digraph(), 64);
                for _ in 0..128 {
                    let u = g.below(64);
                    let w = g.below(64);
                    b = b.tuple(0, &[perm[u], perm[w]]);
                }
                (b.build(), Vec::new())
            }
            Kind::Churn => {
                // `columnar_scale`'s 10^5-edge reach graph, relabelled.
                let perm = inputs::permutation(25_000, &mut rng);
                let toggles = TOGGLE_POOL.iter().map(|&t| perm[t as usize]).collect();
                (inputs::reach_structure(100_000, &perm, &[0]), toggles)
            }
        }
    }

    /// One block of the seeded schedule: exact class proportions, shuffled.
    fn block(&self, rng: &mut XorShift) -> Vec<Op> {
        let mut ops = Vec::with_capacity(20);
        let query = |shape: usize, text: String, no_cache: bool, class: usize| Op::Query {
            shape,
            text,
            no_cache,
            class,
        };
        match self.kind {
            Kind::Hot => {
                // 70% pooled, 20% renamed duplicates, 10% no_cache.
                for _ in 0..14 {
                    let s = rng.below(HOT_POOL.len());
                    ops.push(query(s, HOT_POOL[s].to_string(), false, 0));
                }
                for _ in 0..4 {
                    let s = rng.below(HOT_POOL.len());
                    ops.push(query(s, renamed(HOT_POOL[s], rng), false, 2));
                }
                for _ in 0..2 {
                    let s = rng.below(HOT_POOL.len());
                    ops.push(query(s, HOT_POOL[s].to_string(), true, 1));
                }
            }
            Kind::Churn => {
                // 60% cacheable CQs (half over E only), 15% reach, 25%
                // source toggles. An epoch lasts 4 requests on average, so
                // most CQs miss the cache the last write retired; reach is
                // frequent enough for a steady median (NOTES.md).
                for i in 0..12 {
                    let s = if i % 2 == 0 {
                        rng.below(3)
                    } else {
                        3 + rng.below(3)
                    };
                    ops.push(query(s, CHURN_POOL[s].to_string(), false, 0));
                }
                for _ in 0..3 {
                    ops.push(query(REACH_SHAPE, REACH.to_string(), false, 1));
                }
                for _ in 0..5 {
                    ops.push(Op::Toggle {
                        member: rng.below(TOGGLE_POOL.len()),
                    });
                }
            }
        }
        rng.shuffle(&mut ops);
        ops
    }
}

/// A set-up service and the client's model of it.
struct Served {
    svc: QueryService,
    model: Model,
    vocab: Vocabulary,
}

fn setup(spec: &Spec, seed: u64) -> Served {
    let (structure, toggles) = spec.structure(seed);
    let vocab = structure.vocab().clone();
    let svc = QueryService::new(structure, ServiceConfig::default());
    // Warm-up: every shape once, so the loop starts from a warm cache.
    let interrupt = Interrupt::new();
    for text in &spec.shapes {
        let line = format!("{{\"op\":\"query\",\"program\":{}}}", escape(text));
        let req = parse_request(&line).expect("warm-up lines are well-formed");
        std::hint::black_box(svc.handle(&req, &interrupt).render());
    }
    Served {
        svc,
        model: Model {
            epoch: 0,
            mask: 0,
            toggles,
            memo: HashMap::new(),
        },
        vocab,
    }
}

/// The request line of `op` against the model (toggles read the model).
fn line_of(op: &Op, model: &Model) -> String {
    match op {
        Op::Toggle { member } => {
            let e = model.toggles[*member];
            let verb = if model.mask & (1 << member) != 0 {
                "delete"
            } else {
                "insert"
            };
            format!("{{\"op\":\"update\",\"{verb}\":{{\"S\":[[{e}]]}}}}")
        }
        Op::Query {
            text,
            no_cache: true,
            ..
        } => format!(
            "{{\"op\":\"query\",\"program\":{},\"no_cache\":true}}",
            escape(text)
        ),
        Op::Query { text, .. } => format!("{{\"op\":\"query\",\"program\":{}}}", escape(text)),
    }
}

/// Check `resp` to `op` against the model; advance the model on writes.
fn check(spec: &Spec, op: &Op, resp: &Response, s: &mut Served, out: &mut Outcome) {
    match (op, resp) {
        (Op::Query { shape, .. }, Response::Answer { epoch, rows, .. }) => {
            if *epoch != s.model.epoch {
                out.fail(format!(
                    "answer on epoch {epoch}, expected {}",
                    s.model.epoch
                ));
                return;
            }
            let snap = s.svc.epochs().pin();
            if snap.epoch != *epoch {
                out.fail(format!(
                    "pinned epoch {} != answer epoch {epoch}",
                    snap.epoch
                ));
                return;
            }
            let key = (*shape, s.model.mask);
            let expected = *s
                .model
                .memo
                .entry(key)
                .or_insert_with(|| fresh_answer(spec.shapes[*shape], &snap.structure));
            let got = digest(rows);
            if got != expected {
                out.fail(format!(
                    "shape {shape} on epoch {epoch}: {} rows, expected {} (or same count, other rows)",
                    got.0, expected.0
                ));
            }
        }
        (Op::Toggle { member }, Response::Updated { epoch }) => {
            if *epoch != s.model.epoch + 1 {
                out.fail(format!(
                    "update published epoch {epoch}, expected {}",
                    s.model.epoch + 1
                ));
            }
            s.model.epoch = *epoch;
            s.model.mask ^= 1 << member;
        }
        (_, other) => out.fail(format!("unexpected response {}", other.render())),
    }
}

/// Row count and FNV-1a hash of a row set, independent of row order.
fn digest<R: AsRef<[Elem]>>(rows: &[R]) -> (usize, u64) {
    let mut sorted: Vec<&[Elem]> = rows.iter().map(|r| r.as_ref()).collect();
    sorted.sort_unstable();
    let mut h = 0xcbf2_9ce4_8422_2325u64;
    for row in sorted {
        for e in row.iter().map(|e| e.0).chain([u32::MAX]) {
            for b in e.to_le_bytes() {
                h ^= b as u64;
                h = h.wrapping_mul(0x0100_0000_01b3);
            }
        }
    }
    (rows.len(), h)
}

/// [`digest`] of the goal rows of a fresh, uncached evaluation of `text`
/// on `a`.
fn fresh_answer(text: &str, a: &Structure) -> (usize, u64) {
    let p = Program::parse(text, a.vocab()).expect("pool programs parse");
    let fix = p.evaluate(a);
    let rows: Vec<Vec<Elem>> = fix
        .goal()
        .map(|g| g.iter().map(|t| t.to_vec()).collect())
        .unwrap_or_default();
    digest(&rows)
}

/// One untimed request (for the final checks).
fn send(s: &Served, line: &str) -> Response {
    let req = parse_request(line).expect("check lines are well-formed");
    s.svc.handle(&req, &Interrupt::new())
}

/// End-of-run checks: every shape answered on the final epoch equals a
/// fresh evaluation (no memo) of that epoch's structure; the service saw
/// no faults and no sheds, and admission drained.
fn final_checks(spec: &Spec, s: &Served, out: &mut Outcome) {
    let snap = s.svc.epochs().pin();
    for (shape, text) in spec.shapes.iter().enumerate() {
        let line = format!("{{\"op\":\"query\",\"program\":{}}}", escape(text));
        match send(s, &line) {
            Response::Answer { epoch, rows, .. } if epoch == snap.epoch => {
                if digest(&rows) != fresh_answer(text, &snap.structure) {
                    out.fail(format!(
                        "final epoch {epoch}: shape {shape} disagrees with a fresh evaluation"
                    ));
                }
            }
            other => out.fail(format!("final check of shape {shape}: {}", other.render())),
        }
    }
    if s.svc.gate().shed_count() != 0 {
        out.fail(format!(
            "{} requests shed by a single client",
            s.svc.gate().shed_count()
        ));
    }
    if s.svc.gate().depth() != 0 {
        out.fail(format!(
            "admission depth {} after the run",
            s.svc.gate().depth()
        ));
    }
}

/// The timed request: parse, handle, render.
fn timed_request(s: &Served, line: &str) -> (Result<Response, String>, Duration) {
    let interrupt = Interrupt::new();
    let t0 = Instant::now();
    let resp = parse_request(line).map(|req| s.svc.handle(&req, &interrupt));
    if let Ok(r) = &resp {
        std::hint::black_box(r.render());
    }
    (resp, t0.elapsed())
}

fn run_kind(ctx: &mut Ctx, out: &mut Outcome, kind: Kind, traced: bool) -> Result<(), String> {
    let spec = Spec::new(kind);
    let seed = ctx.seed;
    let mut s = ctx.setups(spec.setups, out, || setup(&spec, seed))?;

    // The untimed loop of a traced run is half as long; the rest of its
    // time goes to the traced replay.
    let seconds = if traced {
        ctx.seconds / 2.0
    } else {
        ctx.seconds
    };
    let mut sched = inputs::rng(seed, 2);
    // Cache hits among the `op_a` requests: what share of the query slot
    // is the hit path.
    let (mut a_hits, mut a_n) = (0u64, 0u64);
    ctx.timed_loop(seconds, |_| {
        for op in spec.block(&mut sched) {
            let line = line_of(&op, &s.model);
            let (resp, dt) = timed_request(&s, &line);
            out.attempted += 1;
            let resp = match resp {
                Ok(r) => r,
                Err(e) => {
                    out.fail(format!("request rejected: {e}"));
                    continue;
                }
            };
            out.ops += 1;
            out.busy.add(dt);
            match &op {
                Op::Query {
                    shape, class: 0, ..
                } => {
                    out.op_a.push(*shape, dt);
                    a_n += 1;
                    if let Response::Answer { cache, .. } = &resp {
                        a_hits += (*cache == CacheOutcome::Hit) as u64;
                    }
                }
                Op::Query {
                    shape, class: 1, ..
                } => out.op_b.push(*shape, dt),
                Op::Query { shape, .. } => out.op_c.push(*shape, dt),
                // An insert and a delete of one member are two shapes: the
                // model still holds the state before this write.
                Op::Toggle { member } => {
                    let deleting = s.model.mask & (1 << member) != 0;
                    out.op_c.push(2 * member + deleting as usize, dt)
                }
            }
            check(&spec, &op, &resp, &mut s, out);
        }
        Ok(())
    })?;
    final_checks(&spec, &s, out);
    let a_hit_ratio = a_hits as f64 / a_n.max(1) as f64;
    println!("# op_a cache hits: {a_hits} of {a_n} ({a_hit_ratio:.4})");

    if traced {
        let mut tails = vec![
            ("serve.cache.query_hit_ratio", a_hit_ratio),
            ("serve.tail.query_p99_ms", out.op_a.p99_ms(None)),
            ("serve.tail.query_n", out.op_a.len() as f64),
        ];
        if kind == Kind::Churn {
            tails.extend([
                ("serve.tail.reach_p99_ms", out.op_b.p99_ms(None)),
                ("serve.tail.reach_n", out.op_b.len() as f64),
                ("serve.tail.update_p99_ms", out.op_c.p99_ms(None)),
                ("serve.tail.update_n", out.op_c.len() as f64),
            ]);
        }
        out.layer.extend(tails);
        drop(s);
        out.replay_twice(|out| traced_replay(ctx, &spec, setup(&spec, seed), out))?;
    }
    Ok(())
}

/// The traced replay: the first `spec.traced_ops` requests of the seed's
/// schedule against a freshly set-up service. Returns the per-layer values. Before each `handle`, the
/// benchmark makes `handle`'s layer calls itself, in `handle`'s order,
/// each under its own span; `handle` then runs under its span. A write is
/// replayed as the two calls `handle` makes for it (`apply`, then
/// `retire_before`), without `handle`.
fn traced_replay(
    ctx: &mut Ctx,
    spec: &Spec,
    mut s: Served,
    out: &mut Outcome,
) -> Result<BTreeMap<&'static str, f64>, String> {
    let mut t = crate::trace::Tracer::new();
    let cfg = ServiceConfig::default();
    let eval_cfg = EvalConfig::new();
    let (hits0, misses0, _) = s.svc.cache().stats();
    let admitted0 = s.svc.gate().admitted_count();
    let mut sched = inputs::rng(ctx.seed, 2);
    let mut ops: Vec<Op> = Vec::new();
    while ops.len() < spec.traced_ops {
        ops.extend(spec.block(&mut sched));
    }
    ops.truncate(spec.traced_ops);

    let (mut bytes, mut bypass, mut evals, mut stages, mut derived) =
        (0u64, 0u64, 0u64, 0u64, 0u64);
    let mut unexplained = (0.0f64, 0u64);
    for (id, op) in ops.iter().enumerate() {
        let id = id as u64;
        let line = line_of(op, &s.model);
        let root = t.open("request", None, id);
        let (req, _) = t.span("serve.protocol.parse", Some(root), id, || {
            parse_request(&line)
        });
        let req = req.map_err(|e| format!("replayed request rejected: {e}"))?;
        let resp = match (&req, op) {
            (Request::Query(q), Op::Query { .. }) => {
                let text = q.program.as_deref().expect("pool requests carry a program");
                let (program, mut parts) = t.span("datalog.parser.parse", Some(root), id, || {
                    Program::parse(text, &s.vocab)
                });
                let program = program.map_err(|e| format!("replay parse: {e}"))?;
                let key = if q.no_cache {
                    None
                } else {
                    let (key, us) = t.span("analysis.key", Some(root), id, || {
                        goal_core_key(&program, &Budget::fuel(cfg.key_fuel))
                    });
                    parts += us;
                    key.ok().flatten().map(|k| k.as_u128())
                };
                bypass += key.is_none() as u64;
                let (snap, us) = t.span("serve.epoch.pin", Some(root), id, || s.svc.epochs().pin());
                parts += us;
                let hit = match key {
                    Some(k) => {
                        let (hit, us) = t.span("serve.cache.lookup", Some(root), id, || {
                            s.svc.cache().peek(k, snap.epoch).is_some()
                        });
                        parts += us;
                        hit
                    }
                    None => false,
                };
                if !hit {
                    let (fix, us) = t.span("datalog.eval", Some(root), id, || {
                        program
                            .evaluate_budgeted(
                                &snap.structure,
                                &eval_cfg,
                                &Budget::fuel(cfg.default_fuel),
                            )
                            .ok()
                    });
                    parts += us;
                    let fix = fix.ok_or("replayed evaluation ran out of fuel")?;
                    evals += 1;
                    stages += fix.stages as u64;
                    derived += fix.relations.iter().map(|r| r.len() as u64).sum::<u64>();
                }
                drop(snap);
                let interrupt = Interrupt::new();
                let (resp, us) = t.span("serve.handle", Some(root), id, || {
                    s.svc.handle(&req, &interrupt)
                });
                unexplained.0 += us - parts;
                unexplained.1 += 1;
                if let Response::Answer { cache, .. } = &resp {
                    if hit != (*cache == CacheOutcome::Hit) {
                        out.fail(format!(
                            "replayed lookup (hit = {hit}) disagrees with handle ({cache:?})"
                        ));
                    }
                }
                resp
            }
            (Request::Update(batch), Op::Toggle { .. }) => {
                let hid = t.open("serve.handle", Some(root), id);
                let (epoch, _) = t.span("serve.epoch.apply", Some(hid), id, || {
                    s.svc.epochs().apply(batch)
                });
                let epoch = epoch.map_err(|e| format!("replayed write rejected: {e}"))?;
                t.span("serve.cache.retire", Some(hid), id, || {
                    s.svc.cache().retire_before(epoch.saturating_sub(1))
                });
                t.close(hid);
                Response::Updated { epoch }
            }
            _ => return Err("replay: request and operation disagree".into()),
        };
        let (rendered, _) = t.span("serve.protocol.render", Some(root), id, || resp.render());
        t.close(root);
        bytes += rendered.len() as u64;
        out.traced_busy += Duration::from_secs_f64(t.us(root) / 1e6);
        out.traced_ops += 1;
        out.attempted += 1;
        check(spec, op, &resp, &mut s, out);
    }
    final_checks(spec, &s, out);

    let n = ops.len() as f64;
    let (hits, misses, _) = s.svc.cache().stats();
    let (hits, misses) = (hits - hits0, misses - misses0);
    let mean = |name: &str| t.mean_us(name);
    let evals_f = evals.max(1) as f64;
    let layer = BTreeMap::from([
        ("serve.protocol.parse_us", mean("serve.protocol.parse")),
        ("serve.protocol.render_us", mean("serve.protocol.render")),
        ("serve.protocol.response_bytes", bytes as f64 / n),
        ("datalog.parser.parse_us", mean("datalog.parser.parse")),
        ("analysis.key.key_us", mean("analysis.key")),
        ("analysis.key.bypass", bypass as f64),
        ("serve.cache.lookup_us", mean("serve.cache.lookup")),
        (
            "serve.cache.hit_ratio",
            hits as f64 / (hits + misses).max(1) as f64,
        ),
        ("serve.cache.entries", s.svc.cache().len() as f64),
        ("serve.epoch.pin_us", mean("serve.epoch.pin")),
        ("serve.epoch.apply_us", mean("serve.epoch.apply")),
        ("serve.cache.retire_us", mean("serve.cache.retire")),
        (
            "serve.epoch.snapshot_bytes",
            s.svc.epochs().pin().structure.heap_bytes() as f64,
        ),
        ("serve.handle.us", mean("serve.handle")),
        (
            "serve.handle.unexplained_us",
            unexplained.0 / unexplained.1.max(1) as f64,
        ),
        (
            "serve.admission.admitted",
            (s.svc.gate().admitted_count() - admitted0) as f64,
        ),
        ("serve.admission.shed", s.svc.gate().shed_count() as f64),
        ("datalog.eval.eval_us", mean("datalog.eval")),
        ("datalog.eval.stages", stages as f64 / evals_f),
        ("datalog.eval.derived", derived as f64 / evals_f),
    ]);
    ctx.tracer = Some(t);
    Ok(layer)
}

/// `serve_hot`: cache-hit dominated requests over a small static graph.
pub fn run_hot(ctx: &mut Ctx, out: &mut Outcome, traced: bool) -> Result<(), String> {
    run_kind(ctx, out, Kind::Hot, traced)
}

/// `serve_churn`: reads beside source toggles over a 10^5-edge graph.
pub fn run_churn(ctx: &mut Ctx, out: &mut Outcome, traced: bool) -> Result<(), String> {
    run_kind(ctx, out, Kind::Churn, traced)
}
