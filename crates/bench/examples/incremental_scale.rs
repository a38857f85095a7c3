//! E-IVM measurement behind the "Incremental maintenance" table in
//! EXPERIMENTS.md: single-source reachability over random EDBs of
//! 10³–10⁶ edges, comparing a full from-scratch fixpoint against DRed
//! maintenance of a [`MaterializedDb`] under single-edge deltas.
//!
//! The workload matches `columnar_scale`: [`reach_program`] over
//! [`random_reach_structure`] with `n = m/4` elements and seed
//! `0xE5CA1E`.
//!
//! Per size, the materialized view is built; then `CYCLES = 20` cycles
//! each insert one fresh random edge and delete it again (two maintenance
//! calls per cycle, so `2 × CYCLES` single-edge deltas per run). The
//! incremental column is the per-delta time of the median run; the
//! full-eval column is a from-scratch `evaluate` on the same structure.
//! Every timing is the median of [`hp_bench::K`] runs. After the cycles
//! the maintained IDB is asserted bit-identical to a fresh evaluation.
//!
//! A second table builds a view of nonlinear transitive closure
//! (`T(x,z) :- T(x,y), T(y,z)`) on `directed_path(200)`, whatever the size
//! argument, beside a full evaluation of the same program: a build is that
//! evaluation, keeping each stage's delta as a depth run, and this is the
//! program whose rounds probe the rows earlier rounds added most.
//!
//! A third table builds a view of the non-recursive `two_hop`
//! (`H(x,y) :- E(x,z), E(z,y)`) on 10⁵ xorshift64* edges with `n = m/4`,
//! whatever the size argument, beside a full evaluation: one insertion
//! round and no recursion, so the build's overhead over the evaluator
//! shows undiluted.
//!
//! Usage: `incremental_scale [MAX_EXP] [--json PATH]` — rows for
//! 10³ … 10^MAX_EXP edges (default 6; CI passes 5 to keep the smoke run
//! short). With `--json PATH` a machine-readable snapshot (the committed
//! `BENCH_incremental.json`) is written alongside the table.

use hp_bench::{
    args, median_ms, random_reach_structure, reach_program, write_json, Row, Table, XorShift,
};
use hp_preservation::datalog::gallery;
use hp_preservation::prelude::*;
use hp_serve::json::Json;

const CYCLES: usize = 20;

fn main() {
    let (max_exp, json) = args(6, 3..=7);
    let p = reach_program();
    let mut table = Table::new();
    for exp in 3..=max_exp as u32 {
        let m = 10usize.pow(exp);
        let n = m / 4;
        let a = random_reach_structure(n, m, 0xE5CA1E);
        let (build_ms, mut db) =
            median_ms(|| MaterializedDb::new(&p, a.clone()).expect("vocab matches"));
        let (full_ms, full) = median_ms(|| p.evaluate(&a));

        let mut rng = XorShift(0xE5CA1E ^ m as u64);
        let edges: Vec<EdbDelta> = (0..CYCLES)
            .map(|_| {
                let mut edge = EdbDelta::new(p.edb());
                edge.push_ids(0, &[rng.below(n), rng.below(n)]);
                edge
            })
            .collect();
        let empty = EdbDelta::new(p.edb());
        let (cycles_ms, ()) = median_ms(|| {
            for edge in &edges {
                p.evaluate_incremental(&mut db, edge, &empty)
                    .expect("insert delta");
                p.evaluate_incremental(&mut db, &empty, edge)
                    .expect("delete delta");
            }
        });
        let inc_upd_ms = cycles_ms / (2 * CYCLES) as f64;

        // Insert-then-delete of the same edge is a round trip: the
        // maintained view must be bit-identical to a fresh fixpoint.
        assert_eq!(
            db.relations(),
            &full.relations[..],
            "maintained view diverged at m={m}"
        );
        table.push(
            Row::new()
                .int("edges", m)
                .int("n", n)
                .num("build_ms", build_ms, 3)
                .num("full_eval_ms", full_ms, 3)
                .num("inc_upd_ms", inc_upd_ms, 4)
                .num("speedup", full_ms / inc_upd_ms, 1)
                .int("reached", full.relations[0].len()),
        );
    }

    let nltc = Program::parse(
        "T(x,y) :- E(x,y).\nT(x,z) :- T(x,y), T(y,z).",
        &Vocabulary::digraph(),
    )
    .expect("nonlinear TC parses");
    let nltc_workload = "nonlinear transitive closure view build, directed path";
    println!("\n{nltc_workload}");
    let mut nonlinear = Table::new();
    let n = 200;
    let a = generators::directed_path(n);
    let (build_ms, db) =
        median_ms(|| MaterializedDb::new(&nltc, a.clone()).expect("vocab matches"));
    let (full_ms, full) = median_ms(|| nltc.evaluate(&a));
    assert_eq!(
        db.relations(),
        &full.relations[..],
        "nonlinear TC build diverged"
    );
    nonlinear.push(
        Row::new()
            .int("path", n)
            .num("build_ms", build_ms, 3)
            .num("full_eval_ms", full_ms, 3)
            .int("tc", full.relations[0].len()),
    );

    let two_hop = gallery::two_hop();
    let two_hop_workload = "two_hop view build, xorshift64* edges, n = m/4";
    println!("\n{two_hop_workload}");
    let mut two_hop_table = Table::new();
    let (m, n) = (100_000, 25_000);
    let mut rng = XorShift(0xE5CA1E);
    let mut b = Structure::builder(Vocabulary::digraph(), n);
    for _ in 0..m {
        b = b.tuple(0, &[rng.below(n), rng.below(n)]);
    }
    let a = b.build();
    let (build_ms, db) =
        median_ms(|| MaterializedDb::new(&two_hop, a.clone()).expect("vocab matches"));
    let (full_ms, full) = median_ms(|| two_hop.evaluate(&a));
    assert_eq!(
        db.relations(),
        &full.relations[..],
        "two_hop build diverged"
    );
    two_hop_table.push(
        Row::new()
            .int("edges", m)
            .num("build_ms", build_ms, 3)
            .num("full_eval_ms", full_ms, 3)
            .int("h", full.relations[0].len()),
    );

    if let Some(path) = json {
        let nonlinear = Json::Obj(vec![
            ("workload".into(), Json::Str(nltc_workload.into())),
            ("rows".into(), nonlinear.json()),
        ]);
        let two_hop = Json::Obj(vec![
            ("workload".into(), Json::Str(two_hop_workload.into())),
            ("rows".into(), two_hop_table.json()),
        ]);
        write_json(
            &path,
            "incremental_scale",
            "single-edge insert/delete maintenance vs full re-evaluation, \
             single-source reachability, xorshift64* edges, n = m/4",
            vec![
                ("cycles_per_size", Json::Num(CYCLES as f64)),
                ("rows", table.json()),
                ("nonlinear_tc", nonlinear),
                ("two_hop", two_hop),
            ],
        );
    }
}
