//! `hompres-lint`: lint Datalog programs and first-order formulas with
//! the `hp-analysis` pass pipeline, and apply its certified rewrites.
//!
//! ```text
//! hompres-lint [OPTIONS] [FILE...]
//!
//!   FILE              .fo files are parsed as formulas, everything else
//!                     as Datalog. Vocabulary comes from a `# edb:` /
//!                     `# vocab:` pragma, then --edb, then {E/2}.
//!   --gallery         also lint every built-in gallery program
//!   --edb SPEC        default EDB vocabulary, e.g. "E/2, M/1"
//!   --deny-warnings   exit non-zero on warnings too
//!   --quiet           print only the per-input summary lines
//!   --list-passes     print the registered passes and their codes (to
//!                     stderr under `--format json`)
//!   --format FMT      "text" (default) or "json": one JSON array, one
//!                     object per input with code/severity/span/message
//!                     fields, in the workspace's pretty JSON layout
//!   --boundedness     opt in to the HP014 budgeted boundedness
//!                     certification (Theorem 7.5)
//!   --max-stage N     HP014 stage cap (default 4)
//!   --budget-ms N     wall-clock budget in milliseconds for the
//!                     budgeted checks — HP014 and the semantic pass
//!                     (default 5000; 0 means unlimited)
//!   --fuel N          fuel budget for the budgeted checks: containment
//!                     and equivalence tests attempted (default
//!                     unlimited; 0 means unlimited)
//!   --no-semantic     skip the semantic containment checks
//!                     (HP017–HP020); syntactic pipeline only
//!   --core-key        also print each input's canonical-core key — the
//!                     answer-cache identity of the goal query, stable
//!                     across renaming, redundancy, and disjunct order
//!                     (null for recursive or goal-less programs)
//!   --fix             rewrite .dl FILEs in place: remove dead rules
//!                     (HP007), duplicates (HP013), never-firing rules
//!                     (HP015), subsumed rules (HP018), and redundant
//!                     body atoms (HP017); certified to preserve the
//!                     goal fixpoint, and idempotent
//!   --fix=check       dry run: print a unified diff of what --fix would
//!                     rewrite, touch nothing, and exit non-zero when
//!                     changes are pending (for CI)
//! ```
//!
//! Inputs that earn an HP024 stratum note are additionally *profiled*:
//! the program is evaluated on a deterministic 16-element probe
//! structure and the note (and the JSON object's `strata` field) carries
//! each stratum's measured rounds, derived tuples, fuel, and wall-clock
//! cost, under the same `--budget-ms`/`--fuel` budget as the semantic
//! checks.
//!
//! Exit status: 0 when no input produced an error (or, with
//! `--deny-warnings`, a warning); 1 otherwise; 2 on usage errors.

use std::process::ExitCode;
use std::time::Duration;

use hp_analysis::json::{self, Json};
use hp_analysis::{
    datalog_core_key, datalog_stratum_profile, fix_check_source, fix_source, formula_core_key,
    lint_datalog_source_with, lint_formula_source_with, parse_vocab_spec, Analyzer, Code,
    Diagnostics, RemovedAtom, RemovedRule, Severity, StrataCost,
};
use hp_datalog::gallery;
use hp_guard::Budget;
use hp_structures::Vocabulary;

#[derive(Clone, Copy, PartialEq, Eq)]
enum Format {
    Text,
    Json,
}

/// What `--fix` should do with the pending rewrites.
#[derive(Clone, Copy, PartialEq, Eq)]
enum FixMode {
    /// Rewrite the files in place.
    Apply,
    /// Print a unified diff and exit non-zero when changes are pending.
    Check,
}

struct Options {
    gallery: bool,
    deny_warnings: bool,
    quiet: bool,
    list_passes: bool,
    format: Format,
    boundedness: bool,
    no_semantic: bool,
    core_key: bool,
    max_stage: usize,
    budget_ms: u64,
    fuel: u64,
    fix: Option<FixMode>,
    edb: Option<Vocabulary>,
    files: Vec<String>,
}

fn usage() -> &'static str {
    "usage: hompres-lint [--gallery] [--edb SPEC] [--deny-warnings] [--quiet] \
     [--list-passes] [--format text|json] [--boundedness] [--no-semantic] \
     [--core-key] [--max-stage N] [--budget-ms N] [--fuel N] \
     [--fix | --fix=check] [FILE...]"
}

fn parse_args(args: &[String]) -> Result<Options, String> {
    let mut o = Options {
        gallery: false,
        deny_warnings: false,
        quiet: false,
        list_passes: false,
        format: Format::Text,
        boundedness: false,
        no_semantic: false,
        core_key: false,
        max_stage: 4,
        budget_ms: 5000,
        fuel: 0,
        fix: None,
        edb: None,
        files: Vec::new(),
    };
    let mut i = 0;
    while i < args.len() {
        match args[i].as_str() {
            "--gallery" => o.gallery = true,
            "--deny-warnings" => o.deny_warnings = true,
            "--quiet" => o.quiet = true,
            "--list-passes" => o.list_passes = true,
            "--boundedness" => o.boundedness = true,
            "--no-semantic" => o.no_semantic = true,
            "--core-key" => o.core_key = true,
            "--fix" => o.fix = Some(FixMode::Apply),
            "--fix=check" => o.fix = Some(FixMode::Check),
            "--format" => {
                i += 1;
                o.format = match args.get(i).map(String::as_str) {
                    Some("text") => Format::Text,
                    Some("json") => Format::Json,
                    Some(f) => return Err(format!("unknown format {f} (want text or json)")),
                    None => return Err("--format needs an argument".to_string()),
                };
            }
            "--max-stage" => {
                i += 1;
                let n = args.get(i).ok_or("--max-stage needs an argument")?;
                o.max_stage = n.parse().map_err(|_| format!("bad stage cap {n:?}"))?;
            }
            "--budget-ms" => {
                i += 1;
                let n = args.get(i).ok_or("--budget-ms needs an argument")?;
                o.budget_ms = n.parse().map_err(|_| format!("bad budget {n:?}"))?;
            }
            "--fuel" => {
                i += 1;
                let n = args.get(i).ok_or("--fuel needs an argument")?;
                o.fuel = n.parse().map_err(|_| format!("bad fuel {n:?}"))?;
            }
            "--edb" => {
                i += 1;
                let spec = args.get(i).ok_or("--edb needs a SPEC argument")?;
                o.edb = Some(parse_vocab_spec(spec)?);
            }
            "--help" | "-h" => return Err(String::new()),
            f if f.starts_with("--") => return Err(format!("unknown flag {f}")),
            f => o.files.push(f.to_string()),
        }
        i += 1;
    }
    if o.fix.is_some() && o.gallery {
        return Err("--fix works on FILEs, not --gallery (gallery programs are built in)".into());
    }
    if o.fix.is_some() && o.files.iter().any(|f| f.ends_with(".fo")) {
        return Err("--fix applies to Datalog files only, not .fo formulas".into());
    }
    if o.core_key && o.fix.is_some() {
        return Err("--core-key does not combine with --fix".into());
    }
    if o.core_key && o.gallery {
        return Err("--core-key works on FILEs, not --gallery".into());
    }
    if !o.gallery && !o.list_passes && o.files.is_empty() {
        return Err("no inputs (give FILEs or --gallery)".to_string());
    }
    Ok(o)
}

/// Map the CLI flags onto the shared [`Budget`]: `--budget-ms` is the
/// wall-clock limit, `--fuel` the fuel limit (0 = unlimited for both).
fn budget(o: &Options) -> Budget {
    let mut b = Budget::unlimited();
    if o.budget_ms != 0 {
        b = b.with_wall_clock(Duration::from_millis(o.budget_ms));
    }
    if o.fuel != 0 {
        b = b.with_fuel(o.fuel);
    }
    b
}

/// Report one input's diagnostics; returns whether it fails the build.
/// `core_key` is the input's canonical-core key, or why it has none, when
/// `--core-key` is active; `strata` is the measured per-stratum cost when
/// the input carried an HP024 stratum note.
fn report(
    name: &str,
    source: Option<&str>,
    ds: &Diagnostics,
    core_key: Option<&Result<String, String>>,
    strata: Option<&StrataCost>,
    o: &Options,
    json: &mut Vec<Json>,
) -> bool {
    match o.format {
        Format::Text => {
            if !o.quiet && !ds.is_empty() {
                print!("{}", ds.render(name, source));
            }
            if let Some(Ok(k) | Err(k)) = core_key {
                println!("{name}: core-key {k}");
            }
            println!("{name}: {}", ds.totals());
        }
        Format::Json => {
            let mut fields = Vec::new();
            if let Some(k) = core_key {
                fields.push(("core_key".to_string(), k.as_deref().ok().into()));
            }
            if let Some(c) = strata {
                let costs = c.costs.iter().map(|s| {
                    Json::obj([
                        ("stratum", s.stratum.into()),
                        ("stages", s.stages.into()),
                        ("derived", Json::Num(s.derived as f64)),
                        ("fuel", Json::Num(s.fuel as f64)),
                        ("elapsed_ms", Json::fixed(s.elapsed.as_secs_f64() * 1e3, 3)),
                    ])
                });
                let strata = Json::obj([
                    ("universe", c.universe.into()),
                    ("exhausted", c.exhausted.as_deref().into()),
                    ("costs", Json::Arr(costs.collect())),
                ]);
                fields.push(("strata".to_string(), strata));
            }
            if let Json::Obj(diagnostics) = ds.to_json(name) {
                fields.extend(diagnostics);
            }
            json.push(Json::Obj(fields));
        }
    }
    ds.has_errors() || (o.deny_warnings && ds.count(Severity::Warning) > 0)
}

/// Render a measured stratum profile as the suffix appended to the HP024
/// note: cost per stratum on the deterministic probe structure.
fn strata_text(c: &StrataCost) -> String {
    let parts: Vec<String> = c
        .costs
        .iter()
        .map(|s| {
            format!(
                "stratum {}: {} stages, {} tuples, {} fuel, {:.2} ms",
                s.stratum,
                s.stages,
                s.derived,
                s.fuel,
                s.elapsed.as_secs_f64() * 1e3,
            )
        })
        .collect();
    let mut out = format!(
        " — measured on the {}-element probe: {}",
        c.universe,
        parts.join("; ")
    );
    if let Some(resource) = &c.exhausted {
        out.push_str(&format!(
            " ({resource} budget exhausted before the remaining strata)"
        ));
    }
    out
}

/// One input's canonical-core key under the shared budget, or why it has
/// none.
fn core_key(path: &str, text: &str, o: &Options) -> Result<String, String> {
    let r = if path.ends_with(".fo") {
        formula_core_key(text, o.edb.as_ref(), &budget(o))
    } else {
        datalog_core_key(text, o.edb.as_ref(), &budget(o))
    };
    match r {
        Ok(Ok(Some(k))) => Ok(k.to_string()),
        Ok(Ok(None)) => Err("none (recursive, goal-less, or not existential-positive)".into()),
        Ok(Err(e)) => Err(format!(
            "not computed ({} budget exhausted; rerun with more)",
            e.resource
        )),
        // The parse error itself is already reported by the lint run.
        Err(_) => Err("none (input does not parse)".into()),
    }
}

/// Apply the certified rewrites to one file in place; returns whether the
/// run failed (parse or I/O error).
fn fix_file(path: &str, o: &Options, json: &mut Vec<Json>) -> bool {
    let text = match std::fs::read_to_string(path) {
        Ok(t) => t,
        Err(e) => {
            eprintln!("hompres-lint: cannot read {path}: {e}");
            return true;
        }
    };
    let out = match fix_source(&text, o.edb.as_ref()) {
        Ok(out) => out,
        Err(e) => {
            eprintln!("hompres-lint: cannot fix {path}: {e}");
            return true;
        }
    };
    if out.changed() {
        if let Err(e) = std::fs::write(path, &out.fixed) {
            eprintln!("hompres-lint: cannot write {path}: {e}");
            return true;
        }
    }
    match o.format {
        Format::Text => {
            if !o.quiet {
                for r in &out.removed {
                    let at = r.line.map_or(String::new(), |l| format!(":{l}"));
                    println!(
                        "{path}{at}: removed rule {} for {} [{}]",
                        r.rule, r.head, r.code
                    );
                }
                for a in &out.removed_atoms {
                    let at = a.line.map_or(String::new(), |l| format!(":{l}"));
                    println!(
                        "{path}{at}: removed atom {} ({}) of rule {} [{}]",
                        a.atom, a.text, a.rule, a.code
                    );
                }
            }
            println!(
                "{path}: {}",
                if out.changed() {
                    format!(
                        "fixed ({} rule{}, {} atom{} removed)",
                        out.removed.len(),
                        if out.removed.len() == 1 { "" } else { "s" },
                        out.removed_atoms.len(),
                        if out.removed_atoms.len() == 1 {
                            ""
                        } else {
                            "s"
                        }
                    )
                } else {
                    "clean".to_string()
                }
            );
        }
        Format::Json => {
            let fields = fix_json(path, out.changed(), &out.removed, &out.removed_atoms);
            json.push(Json::obj(fields));
        }
    }
    false
}

/// The JSON fields `--fix` and `--fix=check` report for one file.
fn fix_json(
    path: &str,
    changed: bool,
    removed: &[RemovedRule],
    removed_atoms: &[RemovedAtom],
) -> Vec<(&'static str, Json)> {
    let removed = removed.iter().map(|r| {
        Json::obj([
            ("rule", r.rule.into()),
            ("line", r.line.into()),
            ("head", r.head.as_str().into()),
            ("code", r.code.as_str().into()),
        ])
    });
    let removed_atoms = removed_atoms.iter().map(|a| {
        Json::obj([
            ("rule", a.rule.into()),
            ("atom", a.atom.into()),
            ("line", a.line.into()),
            ("text", a.text.as_str().into()),
            ("code", a.code.as_str().into()),
        ])
    });
    vec![
        ("input", path.into()),
        ("changed", Json::Bool(changed)),
        ("removed", Json::Arr(removed.collect())),
        ("removed_atoms", Json::Arr(removed_atoms.collect())),
    ]
}

/// `--fix=check`: report what the certified rewrites would change without
/// touching the file. Returns whether the run fails the build — a parse
/// or I/O error, or pending changes (so CI can gate on a clean tree).
fn check_file(path: &str, o: &Options, json: &mut Vec<Json>) -> bool {
    let text = match std::fs::read_to_string(path) {
        Ok(t) => t,
        Err(e) => {
            eprintln!("hompres-lint: cannot read {path}: {e}");
            return true;
        }
    };
    let out = match fix_check_source(&text, o.edb.as_ref(), path) {
        Ok(out) => out,
        Err(e) => {
            eprintln!("hompres-lint: cannot fix {path}: {e}");
            return true;
        }
    };
    match o.format {
        Format::Text => {
            if !o.quiet && out.changed {
                print!("{}", out.diff);
            }
            println!(
                "{path}: {}",
                if out.changed {
                    format!(
                        "{} rule{} and {} atom{} pending (run --fix to apply)",
                        out.removed.len(),
                        if out.removed.len() == 1 { "" } else { "s" },
                        out.removed_atoms.len(),
                        if out.removed_atoms.len() == 1 {
                            ""
                        } else {
                            "s"
                        }
                    )
                } else {
                    "clean".to_string()
                }
            );
        }
        Format::Json => {
            let mut fields = fix_json(path, out.changed, &out.removed, &out.removed_atoms);
            fields.push(("diff", Json::Str(out.diff)));
            json.push(Json::obj(fields));
        }
    }
    out.changed
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let o = match parse_args(&args) {
        Ok(o) => o,
        Err(msg) => {
            if msg.is_empty() {
                println!("{}", usage());
                return ExitCode::SUCCESS;
            }
            eprintln!("hompres-lint: {msg}\n{}", usage());
            return ExitCode::from(2);
        }
    };

    let analyzer = if o.boundedness {
        Analyzer::with_boundedness(o.max_stage, budget(&o))
    } else if o.no_semantic {
        Analyzer::syntactic_pipeline()
    } else {
        Analyzer::with_semantic_budget(budget(&o))
    };

    if o.list_passes {
        for p in analyzer.passes() {
            let codes: Vec<&str> = p.codes().iter().map(|c| c.as_str()).collect();
            let line = format!("{:<16} {}", p.name(), codes.join(", "));
            // Under JSON, stdout holds the one JSON document.
            match o.format {
                Format::Text => println!("{line}"),
                Format::Json => eprintln!("{line}"),
            }
        }
        if o.files.is_empty() && !o.gallery && o.format == Format::Text {
            return ExitCode::SUCCESS;
        }
    }

    let mut failed = false;
    let mut json = Vec::new();

    for path in &o.files {
        if let Some(mode) = o.fix {
            failed |= match mode {
                FixMode::Apply => fix_file(path, &o, &mut json),
                FixMode::Check => check_file(path, &o, &mut json),
            };
            continue;
        }
        let text = match std::fs::read_to_string(path) {
            Ok(t) => t,
            Err(e) => {
                eprintln!("hompres-lint: cannot read {path}: {e}");
                failed = true;
                continue;
            }
        };
        let mut ds = if path.ends_with(".fo") {
            lint_formula_source_with(&text, o.edb.as_ref(), &budget(&o))
        } else {
            lint_datalog_source_with(&text, o.edb.as_ref(), &analyzer)
        };
        // When the input earned an HP024 stratum note, measure each
        // stratum's cost on the deterministic probe structure and append
        // the numbers to the note (and the JSON object).
        let strata = if ds.contains(Code::Hp024) {
            match datalog_stratum_profile(&text, o.edb.as_ref(), &budget(&o)) {
                Ok(Some(c)) => {
                    ds.amend(Code::Hp024, &strata_text(&c));
                    Some(c)
                }
                _ => None,
            }
        } else {
            None
        };
        let key = o.core_key.then(|| core_key(path, &text, &o));
        failed |= report(
            path,
            Some(&text),
            &ds,
            key.as_ref(),
            strata.as_ref(),
            &o,
            &mut json,
        );
    }

    if o.gallery {
        let programs = [
            ("gallery::transitive_closure", gallery::transitive_closure()),
            ("gallery::cycle_detection", gallery::cycle_detection()),
            ("gallery::reach_leaf", gallery::reach_leaf()),
            ("gallery::same_generation", gallery::same_generation()),
            ("gallery::two_hop", gallery::two_hop()),
            ("gallery::absorbed_recursion", gallery::absorbed_recursion()),
            ("gallery::bounded_reach(3)", gallery::bounded_reach(3)),
            ("gallery::non_reachability", gallery::non_reachability()),
            ("gallery::set_difference", gallery::set_difference()),
            ("gallery::win_move(2)", gallery::win_move(2)),
        ];
        for (name, p) in programs {
            let ds = analyzer.analyze_program(&p);
            failed |= report(name, None, &ds, None, None, &o, &mut json);
        }
    }

    if o.format == Format::Json {
        println!("{}", json::pretty(&Json::Arr(json)));
    }

    if failed {
        ExitCode::FAILURE
    } else {
        ExitCode::SUCCESS
    }
}
