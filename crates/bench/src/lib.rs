//! The benchmark harness shared by `benches/` and the `*_scale`
//! examples: the deterministic input generators, median-of-[`K`] timing,
//! the `[SIZE] [--json PATH]` command line, and [`Table`], whose rows
//! print as an aligned stdout table and write as a provenance-stamped
//! `BENCH_*.json` snapshot through [`hp_serve::json`].

#![forbid(unsafe_code)]
#![warn(missing_docs)]

use std::ops::RangeInclusive;
use std::path::Path;
use std::time::Instant;

use hp_preservation::prelude::*;
use hp_serve::json::{self, Json};

/// Deterministic xorshift64* stream, so the random families need no RNG
/// dependency and are identical on every run.
pub struct XorShift(pub u64);

impl XorShift {
    /// The stream's next value reduced into `0..n`.
    pub fn below(&mut self, n: usize) -> u32 {
        let mut x = self.0;
        x ^= x << 13;
        x ^= x >> 7;
        x ^= x << 17;
        self.0 = x;
        (x.wrapping_mul(0x2545_f491_4f6c_dd1d) % n as u64) as u32
    }
}

/// Single-source reachability over `{E/2, S/1}`: the linear-output
/// workload that scales to 10⁷ edges (transitive closure's quadratic
/// output would dominate the measurement there).
pub fn reach_program() -> Program {
    let v = Vocabulary::from_pairs([("E", 2), ("S", 1)]);
    Program::parse("R(x) :- S(x).\nR(y) :- R(x), E(x,y).", &v).expect("reach program parses")
}

/// `n` elements, `m` random directed edges (bulk-loaded through the
/// builder), element 0 marked as the source.
pub fn random_reach_structure(n: usize, m: usize, seed: u64) -> Structure {
    let v = Vocabulary::from_pairs([("E", 2), ("S", 1)]);
    let mut rng = XorShift(seed | 1);
    let mut b = Structure::builder(v, n).tuple(1, &[0]);
    for _ in 0..m {
        let (u, w) = (rng.below(n), rng.below(n));
        b = b.tuple(0, &[u, w]);
    }
    b.build()
}

/// Random DAG move graph over `{Move/2, Pos/1}` for the stratified
/// `win_move` family: every element is a position and each of `m` draws
/// adds a move oriented low → high id, so the game is well-founded and
/// `win_move(k)`'s top layer is the exact value on positions within `k`
/// moves of a sink.
pub fn random_game_structure(n: usize, m: usize, seed: u64) -> Structure {
    let v = Vocabulary::from_pairs([("Move", 2), ("Pos", 1)]);
    let mut rng = XorShift(seed | 1);
    let mut b = Structure::builder(v, n);
    for x in 0..n as u32 {
        b = b.tuple(1, &[x]);
    }
    for _ in 0..m {
        let (u, w) = (rng.below(n), rng.below(n));
        if u != w {
            b = b.tuple(0, &[u.min(w), u.max(w)]);
        }
    }
    b.build()
}

/// Runs per timed column.
pub const K: usize = 3;

/// Runs `f` [`K`] times; returns the median wall time in milliseconds
/// and the last run's result.
pub fn median_ms<T>(mut f: impl FnMut() -> T) -> (f64, T) {
    let mut ms = [0.0; K];
    let mut last = None;
    for m in &mut ms {
        let t = Instant::now();
        let r = f();
        *m = t.elapsed().as_secs_f64() * 1e3;
        // Drop the previous result outside the timed region.
        last = Some(r);
    }
    ms.sort_by(f64::total_cmp);
    (ms[K / 2], last.expect("K > 0"))
}

/// Parses the examples' `[SIZE] [--json PATH]` command line; `SIZE`
/// defaults to `default` and must lie in `range`. Exits with status 2 on
/// anything else.
pub fn args(default: usize, range: RangeInclusive<usize>) -> (usize, Option<String>) {
    let usage = |why: &str| -> ! {
        eprintln!("usage: [SIZE in {range:?}, default {default}] [--json PATH]: {why}");
        std::process::exit(2)
    };
    let (mut size, mut json) = (default, None);
    let mut it = std::env::args().skip(1);
    while let Some(a) = it.next() {
        if a == "--json" {
            json = Some(it.next().unwrap_or_else(|| usage("--json needs a PATH")));
        } else {
            size = a
                .parse()
                .unwrap_or_else(|_| usage(&format!("bad SIZE {a:?}")));
        }
    }
    if !range.contains(&size) {
        usage(&format!("SIZE {size} out of range"));
    }
    (size, json)
}

/// One table row: `(column, value)` pairs in column order. The stdout
/// table and the JSON snapshot are both read off it, so each column is
/// named once.
#[derive(Default)]
pub struct Row(Vec<(String, Json)>);

impl Row {
    /// An empty row.
    pub fn new() -> Row {
        Row::default()
    }

    /// Appends an exact count.
    pub fn int(mut self, key: &str, v: usize) -> Row {
        self.0.push((key.to_string(), Json::Num(v as f64)));
        self
    }

    /// Appends a measurement rounded to `digits` decimals, or `null` for
    /// `None` (not measured).
    pub fn num(mut self, key: &str, v: impl Into<Option<f64>>, digits: i32) -> Row {
        let v = v.into().map_or(Json::Null, |x| Json::fixed(x, digits));
        self.0.push((key.to_string(), v));
        self
    }

    /// Appends a string.
    pub fn text(mut self, key: &str, v: &str) -> Row {
        self.0.push((key.to_string(), Json::Str(v.to_string())));
        self
    }
}

/// Rows printed to stdout as they are pushed, kept for the JSON snapshot.
#[derive(Default)]
pub struct Table(Vec<Json>);

impl Table {
    /// An empty table.
    pub fn new() -> Table {
        Table::default()
    }

    /// Prints `row` (after the header line, for the first row) and keeps
    /// it. A column is right-aligned to its name or 10 characters,
    /// whichever is wider; a `null` cell prints as `-`.
    pub fn push(&mut self, row: Row) {
        let line = |cell: &dyn Fn(&(String, Json)) -> String| {
            let cells: Vec<String> = (row.0.iter())
                .map(|c| format!("{:>w$}", cell(c), w = c.0.len().max(10)))
                .collect();
            println!("{}", cells.join(" "));
        };
        if self.0.is_empty() {
            line(&|(k, _)| k.clone());
        }
        line(&|(_, v)| match v {
            Json::Null => "-".to_string(),
            Json::Str(s) => s.clone(),
            v => v.to_string(),
        });
        self.0.push(Json::Obj(row.0));
    }

    /// The rows as a JSON array.
    pub fn json(&self) -> Json {
        Json::Arr(self.0.clone())
    }
}

/// Writes the snapshot `{"bench", "workload", fields…, "provenance"}` to
/// `path` in the codec's [pretty](json::pretty) layout: one row per line,
/// every other value compact.
pub fn write_json(path: &str, bench: &str, workload: &str, fields: Vec<(&str, Json)>) {
    let mut doc = vec![
        ("bench".to_string(), Json::Str(bench.to_string())),
        ("workload".to_string(), Json::Str(workload.to_string())),
    ];
    doc.extend(fields.into_iter().map(|(k, v)| (k.to_string(), v)));
    doc.push(("provenance".to_string(), provenance()));
    let mut out = json::pretty(&Json::Obj(doc));
    out.push('\n');
    std::fs::write(path, out).unwrap_or_else(|e| panic!("write {path}: {e}"));
    println!("wrote {path}");
}

/// Where a snapshot was measured: host cores, checked-out commit, and
/// compiler.
fn provenance() -> Json {
    let nproc = std::thread::available_parallelism().map_or(0, |n| n.get());
    Json::Obj(vec![
        ("nproc".to_string(), Json::Num(nproc as f64)),
        ("commit".to_string(), Json::Str(commit())),
        (
            "rustc".to_string(),
            Json::Str(env!("HP_BENCH_RUSTC_VERSION").to_string()),
        ),
    ])
}

/// The workspace's checked-out commit when it is a git work tree, else
/// "none".
fn commit() -> String {
    let git = Path::new(env!("CARGO_MANIFEST_DIR")).join("../../.git");
    let head = std::fs::read_to_string(git.join("HEAD")).unwrap_or_default();
    let head = head.trim();
    match head.strip_prefix("ref: ") {
        Some(r) => std::fs::read_to_string(git.join(r))
            .map(|s| s.trim().to_string())
            .unwrap_or_else(|_| "none".into()),
        None if !head.is_empty() => head.to_string(),
        None => "none".into(),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use hp_preservation::datalog::gallery;
    use hp_serve::json::parse;

    #[test]
    fn generators_reproduce_the_committed_inputs() {
        let fix = reach_program().evaluate(&random_reach_structure(250, 1000, 0xE5CA1E));
        assert_eq!(fix.relations[0].len(), 244);
        let a = random_game_structure(1000, 2000, 0x5712A7);
        let fix = gallery::win_move(2).evaluate(&a);
        assert_eq!(fix.relations.last().expect("win_move has IDBs").len(), 407);
    }

    #[test]
    fn median_ms_returns_the_middle_sample() {
        let sleeps = [80u64, 1, 25];
        let mut i = 0;
        let (ms, last) = median_ms(|| {
            std::thread::sleep(std::time::Duration::from_millis(sleeps[i]));
            i += 1;
            i
        });
        assert_eq!(last, K);
        assert!(
            (25.0..80.0).contains(&ms),
            "median {ms} ms is not the 25 ms run"
        );
    }

    #[test]
    fn committed_snapshots_are_in_the_pretty_layout() {
        let root = Path::new(env!("CARGO_MANIFEST_DIR")).join("../..");
        let mut checked = 0;
        for entry in std::fs::read_dir(&root).expect("workspace root") {
            let name = entry.expect("dir entry").file_name();
            let name = name.to_str().expect("UTF-8 file name");
            if !(name.starts_with("BENCH_") && name.ends_with(".json")) {
                continue;
            }
            let text = std::fs::read_to_string(root.join(name)).expect("snapshot reads");
            let doc = parse(&text).unwrap_or_else(|e| panic!("{name}: {e}"));
            assert!(
                json::pretty(&doc) + "\n" == text,
                "{name} differs from the pretty rendering of its own parse"
            );
            checked += 1;
        }
        assert!(checked > 0, "no BENCH_*.json under {}", root.display());
    }

    #[test]
    fn a_written_row_parses_back_in_order_with_null() {
        let mut t = Table::new();
        t.push(
            Row::new()
                .int("edges", 1000)
                .num("ref_ms", None, 1)
                .num("eval_ms", 0.35012, 3)
                .text("key", "ck\"1"),
        );
        let path = std::env::temp_dir().join(format!("hp-bench-row-{}.json", std::process::id()));
        let path = path.to_str().expect("temp path is UTF-8");
        write_json(path, "t", "w", vec![("rows", t.json())]);
        let text = std::fs::read_to_string(path).expect("snapshot was written");
        std::fs::remove_file(path).expect("snapshot removed");
        let doc = parse(&text).expect("snapshot parses");
        let Some(Json::Obj(row)) = doc.get("rows").and_then(Json::as_arr).map(|r| &r[0]) else {
            panic!("no row in {text}");
        };
        let want = [
            ("edges", Json::Num(1000.0)),
            ("ref_ms", Json::Null),
            ("eval_ms", Json::Num(0.35)),
            ("key", Json::Str("ck\"1".into())),
        ];
        let want: Vec<(String, Json)> = want.into_iter().map(|(k, v)| (k.to_string(), v)).collect();
        assert_eq!(row, &want);
        let keys: Vec<&str> = match &doc {
            Json::Obj(f) => f.iter().map(|(k, _)| k.as_str()).collect(),
            _ => panic!("snapshot is not an object"),
        };
        assert_eq!(keys, ["bench", "workload", "rows", "provenance"]);
        let prov = doc.get("provenance").expect("provenance stamp");
        assert!(prov
            .get("nproc")
            .and_then(Json::as_u64)
            .is_some_and(|n| n > 0));
        assert!(prov.get("commit").and_then(Json::as_str).is_some());
        assert!(prov.get("rustc").and_then(Json::as_str).is_some());
        assert_eq!(
            text.lines()
                .filter(|l| l.contains("\"edges\":1000"))
                .count(),
            1,
            "{text}"
        );
    }
}
