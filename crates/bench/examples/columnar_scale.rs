//! E-scale measurement behind the "Columnar tuple storage" table in
//! EXPERIMENTS.md: single-source reachability over random EDBs of
//! 10³–10⁷ edges, timing bulk load, the indexed semi-naive engine, and
//! (at the sizes where it is feasible) the scan-join reference evaluator,
//! plus the memory-footprint comparison of the arena layout against the
//! boxed-tuple model it replaced.
//!
//! The workload matches `benches/datalog.rs`: [`reach_program`] over
//! [`random_reach_structure`] with `n = m/4` elements and seed
//! `0xE5CA1E`.
//!
//! Usage: `columnar_scale [MAX_EXP] [--json PATH]` — rows for
//! 10³ … 10^MAX_EXP edges (default 6; CI passes 5 to keep the smoke run
//! short). With `--json PATH` a machine-readable snapshot (the committed
//! `BENCH_scale.json`) is written alongside the table. Every timing is
//! the median of [`hp_bench::K`] runs.
//!
//! A second table runs the stratified-negation family: `win_move(2)`
//! (six strata of game-value approximation over `{Move/2, Pos/1}`) on
//! random DAG move graphs of 10³–10⁵ positions, timing the stratum-
//! ordered engine at 1/2/4 threads — asserted bit-identical — and the
//! scan-join reference oracle at the sizes where it is feasible. Its
//! `cold_ms` column is the first evaluation of a freshly built structure,
//! which also builds the `Move` copy on its second column that the other
//! runs on the same structure reuse.
//!
//! A third table runs nonlinear transitive closure (`T(x,z) :- T(x,y),
//! T(y,z)`) on directed paths of 100–400 elements, whatever the size
//! argument: its delta orders probe `T` both through the accumulated
//! relation itself (key `[0]`) and through a permuted copy that absorbs
//! every round's delta (key `[1]`), a path no other family takes. Work
//! grows as n³, so 400 elements stay well under a second. Its
//! `peak_pending` column is the most derivations, duplicates included, one
//! work item held before its seal (`StratumProfile::peak_pending`).
//!
//! The "boxed" column is the analytic footprint of the seed
//! representation (`BTreeSet<Vec<Elem>>`, counted as one 24-byte
//! `(ptr, len, cap)` header plus a separate `arity × 4`-byte heap buffer
//! per tuple, ignoring allocator rounding and B-tree node overhead — a
//! lower bound on what the old layout actually used). The "arena" column
//! is the measured `heap_bytes()` of the columnar stores.

use std::time::Instant;

use hp_bench::{
    args, median_ms, random_game_structure, random_reach_structure, reach_program, write_json, Row,
    Table, K,
};
use hp_preservation::datalog::gallery;
use hp_preservation::prelude::*;
use hp_serve::json::Json;

/// Analytic bytes of `rows` tuples of the given arity in the seed
/// boxed-tuple representation.
fn boxed_bytes(rows: usize, arity: usize) -> usize {
    rows * (24 + 4 * arity)
}

fn main() {
    let (max_exp, json) = args(6, 3..=7);
    let p = reach_program();
    let mut reach = Table::new();
    for exp in 3..=max_exp as u32 {
        let m = 10usize.pow(exp);
        let n = m / 4;
        let (load_ms, a) = median_ms(|| random_reach_structure(n, m, 0xE5CA1E));
        let (eval_ms, fix) = median_ms(|| p.evaluate(&a));

        // The scan-join reference is quadratic in practice; keep it to the
        // sizes where a single run stays in seconds.
        let ref_ms = (m <= 100_000).then(|| {
            let (ms, r) = median_ms(|| p.evaluate_reference(&a));
            assert_eq!(r.relations, fix.relations, "engines disagree at m={m}");
            ms
        });

        let idb = &fix.relations;
        let arena = a.heap_bytes() + idb.iter().map(Relation::heap_bytes).sum::<usize>();
        let boxed = a
            .relations()
            .map(|(sym, rel)| boxed_bytes(rel.len(), a.vocab().arity(sym)))
            .chain(idb.iter().map(|r| boxed_bytes(r.len(), r.arity())))
            .sum::<usize>();
        reach.push(
            Row::new()
                .int("edges", m)
                .int("n", n)
                .num("load_ms", load_ms, 3)
                .num("eval_ms", eval_ms, 3)
                .num("ref_ms", ref_ms, 1)
                .int("reached", idb[0].len())
                .int("arena_bytes", arena)
                .int("boxed_bytes", boxed),
        );
    }

    // Stratified-negation family: win_move(2), each stratum evaluated to
    // its fixpoint before the next reads its negated unary guards as bit
    // tests against the lower strata's membership arenas.
    let wm = gallery::win_move(2);
    let workload = format!(
        "win_move(2), {} strata, random DAG move graphs, m = 2n",
        wm.num_strata()
    );
    let (t2, t4) = (
        EvalConfig::new().with_threads(2),
        EvalConfig::new().with_threads(4),
    );
    let mut win_move = Table::new();
    println!("\nstratified negation: {workload}");
    for exp in 3..=max_exp.min(5) as u32 {
        let n = 10usize.pow(exp);
        let m = 2 * n;
        // The first evaluation of a freshly built structure also builds
        // the permuted copies its probes read; later ones reuse them.
        let mut cold = [0.0; K];
        for ms in &mut cold {
            let fresh = random_game_structure(n, m, 0x5712A7);
            let t = Instant::now();
            let fix = wm.evaluate(&fresh);
            *ms = t.elapsed().as_secs_f64() * 1e3;
            drop(fix);
        }
        cold.sort_by(f64::total_cmp);
        let a = random_game_structure(n, m, 0x5712A7);
        let (eval1_ms, fix) = median_ms(|| wm.evaluate(&a));
        let (eval2_ms, fix2) = median_ms(|| wm.evaluate_with(&a, &t2));
        let (eval4_ms, fix4) = median_ms(|| wm.evaluate_with(&a, &t4));

        // Stratified evaluation is deterministic: the sharded engines
        // must agree bit-for-bit with the single-threaded run.
        assert_eq!(
            fix2.relations, fix.relations,
            "2-thread run diverged at n={n}"
        );
        assert_eq!(
            fix4.relations, fix.relations,
            "4-thread run diverged at n={n}"
        );
        let ref_ms = (n <= 10_000).then(|| {
            let (ms, r) = median_ms(|| wm.evaluate_reference(&a));
            assert_eq!(r.relations, fix.relations, "oracle disagrees at n={n}");
            ms
        });

        win_move.push(
            Row::new()
                .int("positions", n)
                .int("moves", m)
                .num("cold_ms", cold[K / 2], 3)
                .num("eval1_ms", eval1_ms, 3)
                .num("eval2_ms", eval2_ms, 3)
                .num("eval4_ms", eval4_ms, 3)
                .num("ref_ms", ref_ms, 1)
                .int(
                    "lose_top",
                    fix.relations.last().expect("win_move has IDBs").len(),
                ),
        );
    }

    // Nonlinear TC: `|T| = n(n-1)/2` on a path of `n` elements, reached
    // in ⌈log₂ n⌉ + 1 rounds.
    let nltc = Program::parse(
        "T(x,y) :- E(x,y).\nT(x,z) :- T(x,y), T(y,z).",
        &Vocabulary::digraph(),
    )
    .expect("nonlinear TC parses");
    let nltc_workload = "nonlinear transitive closure, directed paths";
    let mut nonlinear = Table::new();
    println!("\n{nltc_workload}");
    for n in [100usize, 200, 400] {
        let a = generators::directed_path(n);
        let (eval_ms, fix) = median_ms(|| nltc.evaluate(&a));
        nonlinear.push(
            Row::new()
                .int("path", n)
                .num("eval_ms", eval_ms, 3)
                .int("stages", fix.stages)
                .int("tc", fix.relations[0].len())
                .int("peak_pending", fix.profile[0].peak_pending),
        );
    }

    if let Some(path) = json {
        let nonlinear = Json::Obj(vec![
            ("workload".into(), Json::Str(nltc_workload.into())),
            ("rows".into(), nonlinear.json()),
        ]);
        let win_move = Json::Obj(vec![
            ("workload".into(), Json::Str(workload)),
            ("rows".into(), win_move.json()),
        ]);
        write_json(
            &path,
            "columnar_scale",
            "single-source reachability, xorshift64* edges, n = m/4",
            vec![
                ("rows", reach.json()),
                ("win_move", win_move),
                ("nonlinear_tc", nonlinear),
            ],
        );
    }
}
