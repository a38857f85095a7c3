//! `lint_semantic`: the semantic containment lints and the certified fix.
//!
//! Each block runs `semantic_scan` and `fix_source` on a size-16 chain
//! program (the `semantic_scale` family: one redundant atom per rule, one
//! subsumed rule), its `goal_core_key`, and `lint_datalog_source` over the
//! gallery programs. The seed renames predicates and variables and
//! shuffles rule order; the committed `BENCH_semantic.json` row of the
//! same size fixes the findings, the removals, and the core key.

use std::collections::BTreeMap;
use std::time::Duration;

use hp_analysis::{fix_source, goal_core_key, lint_datalog_source, semantic_scan, ProgramFacts};
use hp_datalog::Program;
use hp_guard::Budget;
use hp_structures::Vocabulary;

use crate::inputs::{self, XorShift};
use crate::trace::{timed, Traced, Tracer};
use crate::{Ctx, Outcome};

/// Chain length; the program has `CHAIN + 2` rules.
const CHAIN: usize = 16;
/// Blocks in the traced replay.
const TRACED_BLOCKS: usize = 6;

/// The gallery programs (`hp_datalog::gallery`) as lint sources.
const GALLERY: [&str; 10] = [
    "T(x,y) :- E(x,y).\nT(x,y) :- E(x,z), T(z,y).\n",
    "T(x,y) :- E(x,y).\nT(x,y) :- E(x,z), T(z,y).\nGoal() :- T(x,x).\n",
    "# edb: Down/2, Leaf/1\nReach(x) :- Leaf(x).\nReach(x) :- Down(x,y), Reach(y).\nGoal() :- Reach(x).\n",
    "# edb: Down/2, Leaf/1\nSG(x,y) :- Down(z,x), Down(z,y).\nSG(x,y) :- Down(u,x), SG(u,v), Down(v,y).\n",
    "P2(x,y) :- E(x,z), E(z,y).\n",
    "R(x) :- E(x,x).\nR(x) :- E(x,y), R(y), E(x,x).\n",
    "# edb: E/2, M/1\nR(x0) :- M(x0).\nR(x0) :- E(x0,x1), M(x1).\nR(x0) :- E(x0,x1), E(x1,x2), M(x2).\nR(x0) :- E(x0,x1), E(x1,x2), E(x2,x3), M(x3).\n",
    "# edb: E/2, Node/1\nT(x,y) :- E(x,y).\nT(x,y) :- E(x,z), T(z,y).\nNonReach(x,y) :- Node(x), Node(y), not T(x,y).\n",
    "# edb: R/2, S/2\nD(x,y) :- R(x,y), not S(x,y).\n",
    "# edb: Move/2, Pos/1\nEscape0(x) :- Move(x,y).\nLose0(x) :- Pos(x), not Escape0(x).\n\
     Win1(x) :- Move(x,y), Lose0(y).\nEscape1(x) :- Move(x,y), not Win1(y).\nLose1(x) :- Pos(x), not Escape1(x).\n\
     Win2(x) :- Move(x,y), Lose1(y).\nEscape2(x) :- Move(x,y), not Win2(y).\nLose2(x) :- Pos(x), not Escape2(x).\n",
];

/// The size-`n` chain program of `semantic_scale`, with seeded predicate
/// and variable names and rule order.
fn chain_text(n: usize, rng: &mut XorShift) -> String {
    let preds = inputs::names(n, true, rng);
    let v = inputs::names(4, false, rng);
    let (x, y, z, w) = (&v[0], &v[1], &v[2], &v[3]);
    let p = |i: usize| &preds[i - 1];
    let mut rules = vec![
        format!("{}({x},{y}) :- E({x},{y}), E({x},{w}).", p(1)),
        // Subsumed by the rule above: E(y,y) only restricts it.
        format!("{}({x},{y}) :- E({x},{y}), E({y},{y}).", p(1)),
    ];
    for i in 2..=n {
        rules.push(format!(
            "{}({x},{y}) :- E({x},{z}), {}({z},{y}), E({x},{w}).",
            p(i),
            p(i - 1)
        ));
    }
    rules.push(format!("Goal() :- {}({x},{y}).", p(n)));
    rng.shuffle(&mut rules);
    rules.join("\n") + "\n"
}

/// The committed `BENCH_semantic.json` row for `rules` rules:
/// `(findings, removed_rules, removed_atoms, core_key)`.
fn committed_row(rules: usize) -> Result<Expect, String> {
    let row = inputs::committed_row("BENCH_semantic.json", &["rows"], "rules", rules as u64)?;
    let key = row.get("core_key").and_then(|k| k.as_str());
    Ok((
        inputs::count(&row, "findings")?,
        inputs::count(&row, "removed_rules")?,
        inputs::count(&row, "removed_atoms")?,
        key.ok_or("BENCH_semantic.json row has no core_key")?
            .to_string(),
    ))
}

struct State {
    vocab: Vocabulary,
    text: String,
    program: Program,
    facts: ProgramFacts,
    gallery: Vec<usize>,
}

fn setup(seed: u64) -> State {
    let mut rng = inputs::rng(seed, 4);
    let vocab = Vocabulary::from_pairs([("E", 2)]);
    let text = chain_text(CHAIN, &mut rng);
    let program = Program::parse(&text, &vocab).expect("chain program parses");
    let facts = ProgramFacts::of_program(&program);
    let mut gallery: Vec<usize> = (0..GALLERY.len()).collect();
    rng.shuffle(&mut gallery);
    State {
        vocab,
        text,
        program,
        facts,
        gallery,
    }
}

/// Per-op results of the traced replay.
#[derive(Default)]
struct Tally {
    scan: Vec<f64>,
    fix: Vec<f64>,
    key: Vec<f64>,
    lint: Vec<f64>,
    findings: usize,
    removed_atoms: usize,
    diagnostics: usize,
}

type Expect = (usize, usize, usize, String);

/// One block: scan, fix, key, and the gallery lints, each checked. Untraced
/// blocks record their latencies in `out`; traced ones in `tally`.
fn block(
    st: &State,
    exp: &Expect,
    out: &mut Outcome,
    gallery_diags: &mut [Option<usize>],
    mut tr: Traced<'_>,
    tally: &mut Tally,
) {
    let (scan, d_scan) = timed(&mut tr, "analysis.semantic.scan", || {
        semantic_scan(&st.facts, &Budget::unlimited())
    });
    let findings = match scan {
        Ok(f) => f.len(),
        Err(_) => usize::MAX,
    };
    if findings != exp.0 {
        out.fail(format!(
            "scan: {findings} findings, BENCH_semantic.json says {}",
            exp.0
        ));
    }

    let (fix, d_fix) = timed(&mut tr, "analysis.fix", || {
        fix_source(&st.text, Some(&st.vocab))
    });
    let removed = fix.as_ref().map_or((usize::MAX, usize::MAX), |f| {
        (f.removed.len(), f.removed_atoms.len())
    });
    if removed != (exp.1, exp.2) {
        out.fail(format!(
            "fix removed {removed:?} (rules, atoms), BENCH_semantic.json says ({}, {})",
            exp.1, exp.2
        ));
    }

    let (key, d_key) = timed(&mut tr, "analysis.key", || {
        goal_core_key(&st.program, &Budget::unlimited())
    });
    let key = key.ok().flatten().map(|k| k.to_string());
    if key.as_deref() != Some(exp.3.as_str()) {
        out.fail(format!(
            "core key {key:?}, BENCH_semantic.json says {}",
            exp.3
        ));
    }

    let mut d_lint = Duration::ZERO;
    let mut diagnostics = 0;
    for &g in &st.gallery {
        let (ds, d) = timed(&mut tr, "analysis.lint", || {
            lint_datalog_source(GALLERY[g], None)
        });
        match gallery_diags[g] {
            Some(n) if n != ds.len() => out.fail(format!(
                "gallery program {g}: {} diagnostics, earlier {n}",
                ds.len()
            )),
            _ => gallery_diags[g] = Some(ds.len()),
        }
        diagnostics += ds.len();
        d_lint += d;
        if tr.is_none() {
            out.op_c.push(g, d);
        }
    }
    out.attempted += 3 + GALLERY.len() as u64;

    if tr.is_some() {
        let ms = |d: Duration| d.as_secs_f64() * 1e3;
        tally.scan.push(ms(d_scan));
        tally.fix.push(ms(d_fix));
        tally.key.push(ms(d_key));
        tally.lint.push(ms(d_lint) / GALLERY.len() as f64);
        tally.findings = findings;
        tally.removed_atoms = removed.1;
        tally.diagnostics = diagnostics;
    } else {
        out.op_a.push(0, d_scan);
        out.op_b.push(0, d_fix);
        out.busy.add(d_scan + d_fix + d_key + d_lint);
        out.ops += 3 + GALLERY.len() as u64;
    }
}

/// One traced replay of `TRACED_BLOCKS` blocks. Returns the per-layer
/// values.
fn traced_pass(
    ctx: &mut Ctx,
    st: &State,
    exp: &Expect,
    out: &mut Outcome,
    diags: &mut [Option<usize>],
) -> BTreeMap<&'static str, f64> {
    let mut tally = Tally::default();
    let mut t = Tracer::new();
    for i in 0..TRACED_BLOCKS as u64 {
        let id = t.open("lint.block", None, i);
        block(st, exp, out, diags, Some((&mut t, id, i)), &mut tally);
        t.close(id);
        out.traced_busy += Duration::from_secs_f64(t.us(id) / 1e6);
        out.traced_ops += 3 + GALLERY.len() as u64;
    }
    let mean = |v: &[f64]| v.iter().sum::<f64>() / v.len() as f64;
    ctx.tracer = Some(t);
    BTreeMap::from([
        ("analysis.semantic.scan_ms", mean(&tally.scan)),
        ("analysis.semantic.findings", tally.findings as f64),
        ("analysis.fix.fix_ms", mean(&tally.fix)),
        ("analysis.fix.removed_atoms", tally.removed_atoms as f64),
        ("analysis.key.core_ms", mean(&tally.key)),
        ("analysis.lint.pipeline_ms", mean(&tally.lint)),
        ("analysis.lint.diagnostics", tally.diagnostics as f64),
    ])
}

/// Run the workload.
pub fn run(ctx: &mut Ctx, out: &mut Outcome, traced: bool) -> Result<(), String> {
    let exp = committed_row(CHAIN + 2)?;
    let seed = ctx.seed;
    let st = ctx.setups(25, out, || setup(seed))?;
    let mut diags = vec![None; GALLERY.len()];
    let seconds = if traced {
        ctx.seconds / 2.0
    } else {
        ctx.seconds
    };
    let mut tally = Tally::default();
    ctx.timed_loop(seconds, |_| {
        block(&st, &exp, out, &mut diags, None, &mut tally);
        Ok(())
    })?;
    if traced {
        out.replay_twice(|out| Ok(traced_pass(ctx, &st, &exp, out, &mut diags)))?;
    }
    Ok(())
}
