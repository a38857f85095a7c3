//! `engine_fixpoint`: the Datalog engine through library calls only.
//!
//! Three operations, one thread each: the full reach fixpoint at 10^6
//! edges, `win_move(2)` at 10^5 positions, and single-edge maintenance of
//! a `MaterializedDb` at 10^6 edges. The working set exceeds the CPU
//! caches; no serve layer runs.

use std::collections::BTreeMap;
use std::time::{Duration, Instant};

use hp_datalog::{gallery, EdbDelta, EvalConfig, MaterializedDb, Program};
use hp_structures::{Elem, Structure, TupleStore};

use crate::inputs::{self, XorShift};
use crate::trace::{timed, Traced, Tracer};
use crate::{Ctx, Outcome};

const EDGES: usize = 1_000_000;
const POSITIONS: usize = 100_000;
/// Fresh edges the maintenance operations insert and delete again.
const IVM_POOL: usize = 64;
/// Maintained edges per block (each inserted, then deleted).
const IVM_PER_BLOCK: usize = 4;
/// Blocks in the traced replay.
const TRACED_BLOCKS: usize = 2;

struct State {
    reach: Program,
    win_move: Program,
    a: Structure,
    game: Structure,
    db: MaterializedDb,
    /// Fresh edges (absent from `a`) for the maintenance operations.
    pool: Vec<[u32; 2]>,
    load: Duration,
    build: Duration,
}

fn setup(seed: u64) -> State {
    let mut rng = inputs::rng(seed, 3);
    let reach = Program::parse(
        "R(x) :- S(x).\nR(y) :- R(x), E(x,y).",
        &inputs::reach_vocab(),
    )
    .expect("reach program parses");
    let win_move = gallery::win_move(2);

    let t0 = Instant::now();
    let perm = inputs::permutation(EDGES / 4, &mut rng);
    let a = inputs::reach_structure(EDGES, &perm, &[0]);
    let load = t0.elapsed();
    let game = inputs::game_structure(POSITIONS, &inputs::permutation(POSITIONS, &mut rng));

    let t1 = Instant::now();
    let db = MaterializedDb::new(&reach, a.clone()).expect("reach program is positive");
    let build = t1.elapsed();

    // The same edges of the unlabelled graph on every seed, so the
    // maintenance work is identical up to relabelling.
    let e = a
        .relation(a.vocab().lookup("E").expect("E in vocab"))
        .store();
    let mut base = XorShift(0x1F4 | 1);
    let mut pool = Vec::new();
    while pool.len() < IVM_POOL {
        let edge = [perm[base.below(EDGES / 4)], perm[base.below(EDGES / 4)]];
        if !e.contains(&[Elem(edge[0]), Elem(edge[1])]) && !pool.contains(&edge) {
            pool.push(edge);
        }
    }
    State {
        reach,
        win_move,
        a,
        game,
        db,
        pool,
        load,
        build,
    }
}

/// Expected counts, from `BENCH_scale.json`.
struct Expected {
    reached: usize,
    lose_top: usize,
}

/// One maintenance call: insert (or delete) `edge`. Returns the
/// maintenance rounds.
fn maintain(st: &mut State, edge: [u32; 2], insert: bool) -> Result<usize, String> {
    let empty = EdbDelta::new(st.reach.edb());
    let mut d = EdbDelta::new(st.reach.edb());
    d.push_ids(0, &edge);
    let (plus, minus) = if insert { (&d, &empty) } else { (&empty, &d) };
    st.reach
        .evaluate_incremental(&mut st.db, plus, minus)
        .map(|r| r.stages)
        .map_err(|e| format!("maintenance failed: {e}"))
}

/// Per-operation results of the traced replay.
#[derive(Default)]
struct Tally {
    /// `(µs, stages, derived tuples)` per reach fixpoint.
    evals: Vec<(f64, usize, u64)>,
    /// Per-stratum ms of each `win_move(2)` evaluation.
    strata: Vec<Vec<f64>>,
    /// `(µs, rounds)` per maintenance call.
    maint: Vec<(f64, usize)>,
}

/// One block: a reach fixpoint, a `win_move(2)` evaluation, and
/// `IVM_PER_BLOCK` insert-then-delete maintenance pairs. Checks every
/// result. Untraced blocks record their latencies in `out`; traced ones
/// in `tally`.
fn block(
    st: &mut State,
    i: u64,
    exp: &Expected,
    out: &mut Outcome,
    mut tr: Traced<'_>,
    tally: &mut Tally,
) -> Result<(), String> {
    let cfg = EvalConfig::new().with_threads(1);
    let us = |d: Duration| d.as_secs_f64() * 1e6;

    let (fix, dt) = timed(&mut tr, "datalog.eval", || {
        st.reach.evaluate_with(&st.a, &cfg)
    });
    let reached = fix.relations[0].len();
    if reached != exp.reached {
        out.fail(format!(
            "reach: {reached} reached, BENCH_scale.json says {}",
            exp.reached
        ));
    }
    if tr.is_some() {
        let derived = fix.relations.iter().map(|r| r.len() as u64).sum();
        tally.evals.push((us(dt), fix.stages, derived));
    } else {
        out.op_a.push(0, dt);
    }
    out.attempted += 1;
    drop(fix);

    let (fix, dt) = timed(&mut tr, "datalog.eval.stratified", || {
        st.win_move.evaluate_with(&st.game, &cfg)
    });
    let lose_top = fix.relations.last().map_or(0, |r| r.len());
    if lose_top != exp.lose_top {
        out.fail(format!(
            "win_move: lose_top {lose_top}, BENCH_scale.json says {}",
            exp.lose_top
        ));
    }
    if tr.is_some() {
        let ms = fix.profile.iter().map(|p| p.elapsed.as_secs_f64() * 1e3);
        tally.strata.push(ms.collect());
    } else {
        out.op_b.push(0, dt);
    }
    out.attempted += 1;
    drop(fix);

    for k in 0..IVM_PER_BLOCK {
        let edge = st.pool[(i as usize * IVM_PER_BLOCK + k) % IVM_POOL];
        for insert in [true, false] {
            let (rounds, dt) = timed(&mut tr, "datalog.incremental.maint", || {
                maintain(st, edge, insert)
            });
            let rounds = rounds?;
            let r = st.db.idb(0).len();
            if (insert && r < exp.reached) || (!insert && r != exp.reached) {
                out.fail(format!(
                    "maintained R has {r} tuples after {} of {edge:?}",
                    if insert { "insert" } else { "delete" }
                ));
            }
            if tr.is_some() {
                tally.maint.push((us(dt), rounds));
            } else {
                out.op_c.push(!insert as usize, dt);
            }
            out.attempted += 1;
        }
    }
    Ok(())
}

/// ns per row of `TupleStore::{merge, contains, difference}` on halves of
/// the workload's own `E` relation.
fn store_kernels(a: &Structure) -> [f64; 3] {
    let e = a
        .relation(a.vocab().lookup("E").expect("E in vocab"))
        .store();
    let (mut even, mut odd) = (TupleStore::new(2), TupleStore::new(2));
    for i in 0..e.len() {
        if i % 2 == 0 {
            even.push(e.row(i));
        } else {
            odd.push(e.row(i));
        }
    }
    even.seal();
    odd.seal();

    let t0 = Instant::now();
    let mut merged = even.clone();
    merged.merge(&odd);
    let merge = t0.elapsed().as_secs_f64() * 1e9 / odd.len() as f64;
    assert_eq!(merged.len(), e.len(), "merging the halves restores E");

    let t0 = Instant::now();
    let found = (0..e.len()).filter(|&i| odd.contains(e.row(i))).count();
    let contains = t0.elapsed().as_secs_f64() * 1e9 / e.len() as f64;
    assert_eq!(found, odd.len(), "every odd row is found");

    let t0 = Instant::now();
    let diff = e.difference(&even);
    let difference = t0.elapsed().as_secs_f64() * 1e9 / e.len() as f64;
    assert_eq!(
        diff.len(),
        odd.len(),
        "E minus the even half is the odd half"
    );
    [merge, contains, difference]
}

/// One traced replay: `TRACED_BLOCKS` blocks on a freshly built
/// `MaterializedDb` (maintenance rounds depend on the view's history),
/// then the store kernels. Returns the per-layer values.
fn traced_pass(
    ctx: &mut Ctx,
    st: &mut State,
    exp: &Expected,
    out: &mut Outcome,
) -> Result<BTreeMap<&'static str, f64>, String> {
    st.db = MaterializedDb::new(&st.reach, st.a.clone()).expect("reach program is positive");
    let mut tally = Tally::default();
    let mut t = Tracer::new();
    for i in 0..TRACED_BLOCKS as u64 {
        let id = t.open("engine.block", None, i);
        block(st, i, exp, out, Some((&mut t, id, i)), &mut tally)?;
        t.close(id);
        out.traced_busy += Duration::from_secs_f64(t.us(id) / 1e6);
        out.traced_ops += 2 + 2 * IVM_PER_BLOCK as u64;
    }
    let n = tally.evals.len() as f64;
    let strata = tally.strata[0].len();
    let [merge, contains, difference] = store_kernels(&st.a);
    let fix = st.reach.evaluate(&st.a);
    let arena = st.a.heap_bytes() + fix.relations.iter().map(|r| r.heap_bytes()).sum::<usize>();
    let mut layer = BTreeMap::from([
        (
            "datalog.eval.eval_us",
            tally.evals.iter().map(|e| e.0).sum::<f64>() / n,
        ),
        (
            "datalog.eval.stages",
            tally.evals.iter().map(|e| e.1 as f64).sum::<f64>() / n,
        ),
        (
            "datalog.eval.derived",
            tally.evals.iter().map(|e| e.2 as f64).sum::<f64>() / n,
        ),
        ("datalog.eval.strata", strata as f64),
        ("structures.arena_bytes", arena as f64),
        ("structures.store.merge_ns_per_row", merge),
        ("structures.store.contains_ns_per_row", contains),
        ("structures.store.difference_ns_per_row", difference),
        (
            "datalog.incremental.maint_us",
            tally.maint.iter().map(|m| m.0).sum::<f64>() / tally.maint.len() as f64,
        ),
        (
            "datalog.incremental.rounds",
            tally.maint.iter().map(|m| m.1 as f64).sum::<f64>(),
        ),
    ]);
    const STRATUM: [&str; 6] = [
        "datalog.eval.stratum0_ms",
        "datalog.eval.stratum1_ms",
        "datalog.eval.stratum2_ms",
        "datalog.eval.stratum3_ms",
        "datalog.eval.stratum4_ms",
        "datalog.eval.stratum5_ms",
    ];
    for (k, name) in STRATUM.iter().enumerate().take(strata) {
        let mean = tally.strata.iter().map(|s| s[k]).sum::<f64>() / tally.strata.len() as f64;
        layer.insert(name, mean);
    }
    ctx.tracer = Some(t);
    Ok(layer)
}

/// Run the workload.
pub fn run(ctx: &mut Ctx, out: &mut Outcome, traced: bool) -> Result<(), String> {
    let exp = Expected {
        reached: inputs::count(
            &inputs::committed_row("BENCH_scale.json", &["rows"], "edges", EDGES as u64)?,
            "reached",
        )?,
        lose_top: inputs::count(
            &inputs::committed_row(
                "BENCH_scale.json",
                &["win_move", "rows"],
                "positions",
                POSITIONS as u64,
            )?,
            "lose_top",
        )?,
    };
    let seed = ctx.seed;
    let (mut loads, mut builds) = (Vec::new(), Vec::new());
    let mut st = ctx.setups(3, out, || {
        let st = setup(seed);
        loads.push(st.load.as_secs_f64() * 1e3);
        builds.push(st.build.as_secs_f64() * 1e3);
        st
    })?;

    let seconds = if traced {
        ctx.seconds / 2.0
    } else {
        ctx.seconds
    };
    let mut tally = Tally::default();
    ctx.timed_loop(seconds, |i| {
        let busy0 = Instant::now();
        block(&mut st, i, &exp, out, None, &mut tally)?;
        out.busy.add(busy0.elapsed());
        out.ops += 2 + 2 * IVM_PER_BLOCK as u64;
        Ok(())
    })?;

    if traced {
        out.layer.extend([
            ("structures.load_ms", crate::stats::median(&mut loads)),
            (
                "datalog.incremental.build_ms",
                crate::stats::median(&mut builds),
            ),
        ]);
        out.replay_twice(|out| traced_pass(ctx, &mut st, &exp, out))?;
    }

    // The maintained view must be bit-identical to a fresh evaluation of
    // the structure it maintains.
    let fresh = st.reach.evaluate(st.db.structure());
    if st.db.relations() != &fresh.relations[..] {
        out.fail("maintained IDB differs from a fresh evaluation".into());
    }
    Ok(())
}
