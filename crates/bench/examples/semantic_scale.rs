//! Scaling measurement behind the "Core-based minimization" table in
//! EXPERIMENTS.md: synthetic nonrecursive chain programs of growing rule
//! count, timing the semantic containment scan (HP017–HP020), the
//! certified `--fix` rewrite, and the canonical-core cache key of the
//! goal query.
//!
//! Each size-`n` program is a composition chain `P1 … Pn` over `{E/2}`
//! where every rule carries one redundant body atom (`E(x,w)` folds onto
//! an existing atom, so HP017 fires on every rule) and `P1` has one
//! subsumed extra rule (HP018). The goal `Goal() :- Pn(x,y)` unfolds to
//! an `E`-path of length `n` decorated with pendant edges; its core is
//! the bare path, so the cache key exercises `core_of` on structures of
//! `~2n` elements.
//!
//! Usage: `semantic_scale [MAX_RULES] [--json PATH]` — rows for chain
//! lengths 4, 8, … up to `MAX_RULES` (default 64). The pairwise
//! hom-equivalence check HP019 is key-first: every same-arity IDB gets
//! one canonical-core key up front and a pair runs the authoritative hom
//! check only when the keys collide, so all-distinct chains (like this
//! family) pay the quadratic pair stage as `u128` compares. The keys are
//! compositional: each IDB's rules are unfolded over its children's
//! memoised cores, so the chain's `i`-th core is built from `~i`
//! elements rather than `~3i`, and cost is dominated by folding each
//! core once — a doubling costs roughly 8×. With `--json PATH` a
//! machine-readable snapshot (the committed `BENCH_semantic.json`) is
//! written alongside the table; CI compares its result columns with the
//! committed file.

use std::time::Instant;

use hp_preservation::analysis::{fix_source, goal_core_key, semantic_scan, ProgramFacts};
use hp_preservation::prelude::*;

/// The size-`n` chain program. Every rule has one redundant atom and the
/// base predicate one subsumed rule, so the scan finds `n + 1` issues
/// and the fix removes `n` atoms plus one rule.
fn chain_program_text(n: usize) -> String {
    let mut s = String::new();
    s.push_str("P1(x,y) :- E(x,y), E(x,w).\n");
    // Subsumed by the rule above: E(y,y) only restricts it.
    s.push_str("P1(x,y) :- E(x,y), E(y,y).\n");
    for i in 2..=n {
        s.push_str(&format!("P{i}(x,y) :- E(x,z), P{}(z,y), E(x,w).\n", i - 1));
    }
    s.push_str(&format!("Goal() :- P{n}(x,y).\n"));
    s
}

struct Row {
    rules: usize,
    scan_ms: f64,
    findings: usize,
    fix_ms: f64,
    removed_rules: usize,
    removed_atoms: usize,
    key_ms: f64,
    core_key: String,
}

fn measure(n: usize) -> Row {
    let vocab = Vocabulary::from_pairs([("E", 2)]);
    let text = chain_program_text(n);
    let p = Program::parse(&text, &vocab).expect("chain program parses");
    let facts = ProgramFacts::of_program(&p);

    let t0 = Instant::now();
    let findings = semantic_scan(&facts, &Budget::unlimited())
        .expect("unlimited scan cannot exhaust")
        .len();
    let scan_ms = t0.elapsed().as_secs_f64() * 1e3;

    let t1 = Instant::now();
    let fix = fix_source(&text, Some(&vocab)).expect("chain program fixes");
    let fix_ms = t1.elapsed().as_secs_f64() * 1e3;

    let t2 = Instant::now();
    let key = goal_core_key(&p, &Budget::unlimited())
        .expect("unlimited key cannot exhaust")
        .expect("chain program is nonrecursive with a goal");
    let key_ms = t2.elapsed().as_secs_f64() * 1e3;

    Row {
        rules: p.rules().len(),
        scan_ms,
        findings,
        fix_ms,
        removed_rules: fix.removed.len(),
        removed_atoms: fix.removed_atoms.len(),
        key_ms,
        core_key: key.to_string(),
    }
}

fn main() {
    let mut max_rules: usize = 64;
    let mut json_path: Option<String> = None;
    let mut args = std::env::args().skip(1);
    while let Some(a) = args.next() {
        if a == "--json" {
            json_path = Some(args.next().expect("--json needs a PATH"));
        } else {
            max_rules = a.parse().expect("MAX_RULES must be a small integer");
        }
    }
    assert!(
        (4..=512).contains(&max_rules),
        "MAX_RULES must be in 4..=512"
    );

    println!(
        "{:>6} {:>9} {:>9} {:>8} {:>8} {:>8} {:>9}  core_key",
        "rules", "scan_ms", "findings", "fix_ms", "-rules", "-atoms", "key_ms"
    );
    let mut rows = Vec::new();
    let mut n = 4;
    while n <= max_rules {
        let r = measure(n);
        println!(
            "{:>6} {:>9.2} {:>9} {:>8.2} {:>8} {:>8} {:>9.2}  {}",
            r.rules,
            r.scan_ms,
            r.findings,
            r.fix_ms,
            r.removed_rules,
            r.removed_atoms,
            r.key_ms,
            r.core_key
        );
        rows.push(r);
        n *= 2;
    }

    // Every chain length folds to a bare E-path of a different length, so
    // all keys must be distinct — a cheap end-to-end sanity check on the
    // canonical-core cache key.
    let mut keys: Vec<&str> = rows.iter().map(|r| r.core_key.as_str()).collect();
    keys.sort();
    keys.dedup();
    assert_eq!(
        keys.len(),
        rows.len(),
        "core keys must be pairwise distinct"
    );

    if let Some(path) = json_path {
        let body: Vec<String> = rows
            .iter()
            .map(|r| {
                format!(
                    "    {{\"rules\": {}, \"scan_ms\": {:.3}, \"findings\": {}, \
                     \"fix_ms\": {:.3}, \"removed_rules\": {}, \"removed_atoms\": {}, \
                     \"key_ms\": {:.3}, \"core_key\": \"{}\"}}",
                    r.rules,
                    r.scan_ms,
                    r.findings,
                    r.fix_ms,
                    r.removed_rules,
                    r.removed_atoms,
                    r.key_ms,
                    r.core_key
                )
            })
            .collect();
        let json = format!(
            "{{\n  \"bench\": \"semantic_scale\",\n  \"workload\": \
             \"chain program, one redundant atom per rule, one subsumed rule\",\n  \
             \"rows\": [\n{}\n  ]\n}}\n",
            body.join(",\n")
        );
        std::fs::write(&path, json).expect("write BENCH json");
        println!("wrote {path}");
    }
}
