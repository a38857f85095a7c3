//! E10/E11/E-scale — Datalog: semi-naive evaluation scaling (seed scan
//! joins vs. indexed joins vs. sharded parallel rounds on large random
//! EDBs), Theorem 7.1 stage unfolding, and the Ajtai–Gurevich boundedness
//! series.

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use hp_bench::{random_game_structure, random_reach_structure, reach_program};
use hp_preservation::datalog::{stage_probe, stage_ucq};
use hp_preservation::prelude::*;

fn tc() -> Program {
    Program::parse(
        "T(x,y) :- E(x,y).\nT(x,y) :- E(x,z), T(z,y).",
        &Vocabulary::digraph(),
    )
    .unwrap()
}

fn tables() {
    let p = tc();
    println!("\n[E11] transitive-closure stage counts grow with diameter (unbounded)");
    println!("{:>8} {:>8}", "|path|", "stages");
    let paths: Vec<Structure> = [4usize, 8, 16, 32]
        .iter()
        .map(|&n| generators::directed_path(n))
        .collect();
    for row in stage_probe(&p, paths.iter()) {
        println!("{:>8} {:>8}", row.universe, row.stages);
    }
    println!("\n[E10] Theorem 7.1: stage-m unfolding sizes (TC program, k = 3)");
    println!(
        "{:>4} {:>10} {:>22}",
        "m", "disjuncts", "max disjunct tw (< 3)"
    );
    for m in 1..=5 {
        let u = stage_ucq(&p, 0, m).unwrap();
        let max_tw = u
            .disjuncts()
            .iter()
            .map(|d| elimination::treewidth_exact(&d.canonical().gaifman_graph()))
            .max()
            .unwrap_or(0);
        println!("{m:>4} {:>10} {max_tw:>22}", u.len());
        assert!(max_tw < 3);
    }
    println!("\n[E11] certified boundedness outcomes");
    let bounded = Program::parse("P2(x,y) :- E(x,z), E(z,y).", &Vocabulary::digraph()).unwrap();
    for (name, prog, cap) in [("two-hop", &bounded, 3usize), ("TC", &p, 3)] {
        match hp_preservation::datalog::certified_boundedness(prog, cap).unwrap() {
            Some(s) => println!("  {name}: bounded at stage {s}"),
            None => println!("  {name}: no certificate up to stage {cap} (unbounded)"),
        }
    }
}

fn bench_evaluation(c: &mut Criterion) {
    tables();
    let p = tc();
    let mut g = c.benchmark_group("datalog_eval");
    g.sample_size(20);
    for n in [20usize, 40, 80] {
        let a = generators::random_digraph(n, 3 * n, 9);
        g.bench_with_input(BenchmarkId::new("tc_semi_naive", n), &n, |b, _| {
            b.iter(|| std::hint::black_box(p.evaluate(&a).relations[0].len()))
        });
    }
    for n in [16usize, 32] {
        let a = generators::directed_path(n);
        g.bench_with_input(BenchmarkId::new("tc_path_naive_stages", n), &n, |b, _| {
            b.iter(|| std::hint::black_box(p.stages(&a, 64).stages.len()))
        });
    }
    g.finish();
}

/// E-scale: the seed scan evaluator vs. the indexed engine vs. sharded
/// parallel rounds, on path/cycle/random-digraph families from 10² to 10⁴
/// elements plus the stratified `win_move(2)` game family on random DAG
/// move graphs. All three paths are verified to produce identical
/// relations before timing.
fn bench_scale(c: &mut Criterion) {
    let sharded = EvalConfig::new().with_threads(4);
    let mut g = c.benchmark_group("datalog_scale");
    g.sample_size(10);

    let tc = tc();
    let tc_families: Vec<(&str, Vec<Structure>)> = vec![
        (
            "path_tc",
            [128usize, 512]
                .iter()
                .map(|&n| generators::directed_path(n))
                .collect(),
        ),
        (
            "cycle_tc",
            [64usize, 256]
                .iter()
                .map(|&n| generators::directed_cycle(n))
                .collect(),
        ),
    ];
    let reach = reach_program();
    let reach_inputs: Vec<Structure> = [100usize, 1_000, 10_000, 100_000]
        .iter()
        .map(|&n| random_reach_structure(n, 4 * n, 0xE5CA1E))
        .collect();
    // Stratified-negation family: win_move(2) evaluates six strata in
    // order, reading each stratum's negated unary guards as bit tests
    // against the lower strata's membership arenas. The generic loop below also gives
    // it the seed-oracle agreement assertion and all three engine rows.
    let wm = hp_preservation::datalog::gallery::win_move(2);
    let wm_inputs: Vec<Structure> = [1_000usize, 10_000]
        .iter()
        .map(|&n| random_game_structure(n, 2 * n, 0x5712A7))
        .collect();
    let all: Vec<(&str, &Program, Vec<Structure>)> = tc_families
        .iter()
        .map(|(name, f)| (*name, &tc, f.clone()))
        .chain(std::iter::once(("random_reach", &reach, reach_inputs)))
        .chain(std::iter::once(("win_move2", &wm, wm_inputs)))
        .collect();

    for (family, p, inputs) in all {
        for a in &inputs {
            let n = a.universe_size();
            // The scan-join reference is quadratic in practice; above 10⁴
            // elements only the indexed and sharded engines run (their
            // agreement at that scale is covered by the differential suite
            // and the 10⁴ assertion here).
            if n <= 10_000 {
                let expect = p.evaluate_reference(a);
                assert_eq!(p.evaluate(a).relations, expect.relations, "{family}/{n}");
                assert_eq!(
                    p.evaluate_with(a, &sharded).relations,
                    expect.relations,
                    "{family}/{n}"
                );
                g.bench_with_input(BenchmarkId::new(format!("{family}_seed"), n), &n, |b, _| {
                    b.iter(|| std::hint::black_box(p.evaluate_reference(a).relations[0].len()))
                });
            } else {
                assert_eq!(
                    p.evaluate_with(a, &sharded).relations,
                    p.evaluate(a).relations,
                    "{family}/{n}"
                );
            }
            g.bench_with_input(
                BenchmarkId::new(format!("{family}_indexed"), n),
                &n,
                |b, _| b.iter(|| std::hint::black_box(p.evaluate(a).relations[0].len())),
            );
            g.bench_with_input(
                BenchmarkId::new(format!("{family}_sharded4"), n),
                &n,
                |b, _| {
                    b.iter(|| std::hint::black_box(p.evaluate_with(a, &sharded).relations[0].len()))
                },
            );
        }
    }
    g.finish();
}

fn bench_unfold(c: &mut Criterion) {
    let p = tc();
    let mut g = c.benchmark_group("datalog_unfold");
    g.sample_size(10);
    for m in [2usize, 4, 6] {
        g.bench_with_input(BenchmarkId::new("stage_ucq", m), &m, |b, &m| {
            b.iter(|| std::hint::black_box(stage_ucq(&p, 0, m).unwrap().len()))
        });
    }
    g.bench_function("certified_boundedness_cap3", |b| {
        b.iter(|| {
            std::hint::black_box(hp_preservation::datalog::certified_boundedness(&p, 3).unwrap())
        })
    });
    g.finish();
}

criterion_group!(benches, bench_evaluation, bench_scale, bench_unfold);
criterion_main!(benches);
