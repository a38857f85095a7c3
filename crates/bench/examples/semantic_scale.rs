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
//! committed file. Every timing is the median of [`hp_bench::K`] runs.

use hp_bench::{args, median_ms, write_json, Row, Table};
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

/// The row for the size-`n` chain; its `core_key` is returned alongside.
fn measure(n: usize) -> (Row, String) {
    let vocab = Vocabulary::from_pairs([("E", 2)]);
    let text = chain_program_text(n);
    let p = Program::parse(&text, &vocab).expect("chain program parses");
    let facts = ProgramFacts::of_program(&p);
    let (scan_ms, findings) = median_ms(|| {
        semantic_scan(&facts, &Budget::unlimited()).expect("unlimited scan cannot exhaust")
    });
    let (fix_ms, fix) = median_ms(|| fix_source(&text, Some(&vocab)).expect("chain program fixes"));
    let (key_ms, key) = median_ms(|| {
        goal_core_key(&p, &Budget::unlimited())
            .expect("unlimited key cannot exhaust")
            .expect("chain program is nonrecursive with a goal")
    });
    let key = key.to_string();
    let row = Row::new()
        .int("rules", p.rules().len())
        .num("scan_ms", scan_ms, 3)
        .int("findings", findings.len())
        .num("fix_ms", fix_ms, 3)
        .int("removed_rules", fix.removed.len())
        .int("removed_atoms", fix.removed_atoms.len())
        .num("key_ms", key_ms, 3)
        .text("core_key", &key);
    (row, key)
}

fn main() {
    let (max_rules, json) = args(64, 4..=512);
    let mut table = Table::new();
    let mut keys = Vec::new();
    let mut n = 4;
    while n <= max_rules {
        let (row, key) = measure(n);
        table.push(row);
        keys.push(key);
        n *= 2;
    }

    // Every chain length folds to a bare E-path of a different length, so
    // all keys must be distinct — a cheap end-to-end sanity check on the
    // canonical-core cache key.
    let rows = keys.len();
    keys.sort();
    keys.dedup();
    assert_eq!(keys.len(), rows, "core keys must be pairwise distinct");

    if let Some(path) = json {
        write_json(
            &path,
            "semantic_scale",
            "chain program, one redundant atom per rule, one subsumed rule",
            vec![("rows", table.json())],
        );
    }
}
