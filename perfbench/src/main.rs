//! `hompres-perfbench` — single-client, closed-loop benchmark of hompres.
//!
//! Usage (from the repository root):
//!
//! ```text
//! cargo run --release --offline --manifest-path perfbench/Cargo.toml -- \
//!     --workload serve_hot --seed 1 --seconds 10 --trace 0
//! ```
//!
//! Every timing is host-normalised by the calibration kernel in
//! `calib.rs`. The last line of standard output is one JSON object:
//! `{"correct", "attempted", "failed", "metrics"}`, with the end-to-end
//! metrics under `--trace 0` and the per-layer metrics under `--trace 1`.
//! See `perfbench/NOTES.md` for the workloads, the metrics, and what each
//! layer metric should move.

mod calib;
mod engine;
mod inputs;
mod lint;
mod serve;
mod stats;
mod trace;

use std::collections::BTreeMap;
use std::fmt::Write as _;
use std::path::Path;
use std::process::ExitCode;
use std::time::{Duration, Instant};

use stats::{Busy, Calibration, Class};
use trace::Tracer;

/// The workloads, in `BENCHMARK.json` order.
const WORKLOADS: [&str; 4] = [
    "serve_hot",
    "serve_churn",
    "engine_fixpoint",
    "lint_semantic",
];

/// Per-layer metrics reported under `--trace 1`, for every workload. A
/// layer a workload does not reach reports 0.
pub const PER_LAYER: &[(&str, &str)] = &[
    ("serve.protocol.parse_us", "us"),
    ("serve.protocol.render_us", "us"),
    ("serve.protocol.response_bytes", "bytes"),
    ("datalog.parser.parse_us", "us"),
    ("analysis.key.key_us", "us"),
    ("analysis.key.bypass", "count"),
    ("serve.cache.lookup_us", "us"),
    ("serve.cache.hit_ratio", "ratio"),
    ("serve.cache.query_hit_ratio", "ratio"),
    ("serve.cache.entries", "count"),
    ("serve.epoch.pin_us", "us"),
    ("serve.epoch.apply_us", "us"),
    ("serve.cache.retire_us", "us"),
    ("serve.epoch.snapshot_bytes", "bytes"),
    ("serve.handle.us", "us"),
    ("serve.handle.unexplained_us", "us"),
    ("serve.admission.admitted", "count"),
    ("serve.admission.shed", "count"),
    ("serve.tail.query_p99_ms", "ms"),
    ("serve.tail.query_n", "count"),
    ("serve.tail.reach_p99_ms", "ms"),
    ("serve.tail.reach_n", "count"),
    ("serve.tail.update_p99_ms", "ms"),
    ("serve.tail.update_n", "count"),
    ("datalog.eval.eval_us", "us"),
    ("datalog.eval.stages", "count"),
    ("datalog.eval.derived", "count"),
    ("datalog.eval.strata", "count"),
    ("datalog.eval.stratum0_ms", "ms"),
    ("datalog.eval.stratum1_ms", "ms"),
    ("datalog.eval.stratum2_ms", "ms"),
    ("datalog.eval.stratum3_ms", "ms"),
    ("datalog.eval.stratum4_ms", "ms"),
    ("datalog.eval.stratum5_ms", "ms"),
    ("structures.load_ms", "ms"),
    ("structures.arena_bytes", "bytes"),
    ("structures.store.merge_ns_per_row", "ns"),
    ("structures.store.contains_ns_per_row", "ns"),
    ("structures.store.difference_ns_per_row", "ns"),
    ("datalog.incremental.build_ms", "ms"),
    ("datalog.incremental.maint_us", "us"),
    ("datalog.incremental.rounds", "count"),
    ("analysis.semantic.scan_ms", "ms"),
    ("analysis.semantic.findings", "count"),
    ("analysis.fix.fix_ms", "ms"),
    ("analysis.fix.removed_atoms", "count"),
    ("analysis.key.core_ms", "ms"),
    ("analysis.lint.pipeline_ms", "ms"),
    ("analysis.lint.diagnostics", "count"),
    ("host.calib_ms", "ms"),
    ("trace.ops_per_s", "1/s"),
    ("trace.overhead_pct", "%"),
    ("raw.setup_s", "s"),
    ("raw.ops_per_s", "1/s"),
    ("raw.op_a_p50_ms", "ms"),
    ("raw.op_b_p50_ms", "ms"),
    ("raw.op_c_p50_ms", "ms"),
];

/// Per-layer metrics that are exact counts: the two traced replays of one
/// seed in a run must reproduce them bit for bit.
const EXACT: &[&str] = &[
    "serve.protocol.response_bytes",
    "analysis.key.bypass",
    "serve.cache.hit_ratio",
    "serve.cache.entries",
    "serve.epoch.snapshot_bytes",
    "serve.admission.admitted",
    "serve.admission.shed",
    "datalog.eval.stages",
    "datalog.eval.derived",
    "datalog.eval.strata",
    "structures.arena_bytes",
    "datalog.incremental.rounds",
    "analysis.semantic.findings",
    "analysis.fix.removed_atoms",
    "analysis.lint.diagnostics",
];

/// Parsed command line.
struct Args {
    workload: String,
    seed: u64,
    seconds: u64,
    trace: bool,
}

fn parse_args() -> Result<Args, String> {
    let mut workload = None;
    let mut seed = None;
    let mut seconds = None;
    let mut trace = None;
    let mut it = std::env::args().skip(1);
    while let Some(flag) = it.next() {
        let value = it.next().ok_or_else(|| format!("{flag} needs a value"))?;
        match flag.as_str() {
            "--workload" => workload = Some(value),
            "--seed" => seed = Some(value.parse().map_err(|e| format!("--seed: {e}"))?),
            "--seconds" => seconds = Some(value.parse().map_err(|e| format!("--seconds: {e}"))?),
            "--trace" => {
                trace = Some(match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err("--trace takes 0 or 1".into()),
                })
            }
            _ => return Err(format!("unknown flag {flag}")),
        }
    }
    let workload = workload.ok_or("missing --workload")?;
    if !WORKLOADS.contains(&workload.as_str()) {
        return Err(format!(
            "unknown workload {workload:?} (one of {})",
            WORKLOADS.join(", ")
        ));
    }
    let seconds: u64 = seconds.unwrap_or(10);
    if !(1..=120).contains(&seconds) {
        return Err("--seconds must be in 1..=120".into());
    }
    Ok(Args {
        workload,
        seed: seed.unwrap_or(1),
        seconds,
        trace: trace.unwrap_or(false),
    })
}

/// What a workload hands back to the harness.
pub struct Outcome {
    /// Operations attempted in the timed loop (and the traced replay).
    pub attempted: u64,
    /// Operations that failed or returned a wrong answer.
    pub failed: u64,
    /// Correctness failures, for the log.
    pub errors: Vec<String>,
    /// Wall time of each set-up.
    pub setups: Class,
    /// Operations completed in the untraced timed loop.
    pub ops: u64,
    /// Busy time of those operations (calibration and checks excluded).
    pub busy: Busy,
    /// The three latency classes (see NOTES.md for each workload's).
    pub op_a: Class,
    /// Second latency class.
    pub op_b: Class,
    /// Third latency class.
    pub op_c: Class,
    /// Operations completed in the traced replay, and their busy time.
    pub traced_ops: u64,
    /// Busy time of the traced replay.
    pub traced_busy: Duration,
    /// Per-layer values; times raw (normalised by the harness).
    pub layer: BTreeMap<&'static str, f64>,
}

impl Default for Outcome {
    fn default() -> Outcome {
        let origin = Instant::now();
        Outcome {
            attempted: 0,
            failed: 0,
            errors: Vec::new(),
            setups: Class::new(origin),
            ops: 0,
            busy: Busy::new(),
            op_a: Class::new(origin),
            op_b: Class::new(origin),
            op_c: Class::new(origin),
            traced_ops: 0,
            traced_busy: Duration::ZERO,
            layer: BTreeMap::new(),
        }
    }
}

impl Outcome {
    /// Record a correctness failure.
    pub fn fail(&mut self, msg: String) {
        self.failed += 1;
        if self.errors.len() < 20 {
            self.errors.push(msg);
        }
    }

    /// Run a traced replay twice and keep the second's per-layer values.
    /// Each `pass` replays the same prefix of the seed's schedule from the
    /// same state, so the exact-count metrics of the two passes must be
    /// equal; any difference is a failed operation.
    pub fn replay_twice(
        &mut self,
        mut pass: impl FnMut(&mut Outcome) -> Result<BTreeMap<&'static str, f64>, String>,
    ) -> Result<(), String> {
        let first = pass(self)?;
        let second = pass(self)?;
        for name in EXACT {
            let (a, b) = (first.get(name), second.get(name));
            if a != b {
                self.fail(format!(
                    "exact-count metric {name} differs between two replays of one seed: {a:?} then {b:?}"
                ));
            }
        }
        self.layer.extend(second);
        Ok(())
    }
}

/// Shared run context: options, the run's clock, the calibration samples,
/// and (traced runs only) the span recorder.
pub struct Ctx {
    /// Workload seed.
    pub seed: u64,
    /// Length of the timed loop.
    pub seconds: f64,
    /// Calibration samples, taken between timed batches.
    pub calib: Calibration,
    /// Span recorder of the traced run.
    pub tracer: Option<Tracer>,
}

impl Ctx {
    /// Run a timed loop: call `batch` until `seconds` of wall time have
    /// passed, sampling the calibration kernel between batches about every
    /// `CALIB_EVERY_S` seconds.
    pub fn timed_loop(
        &mut self,
        seconds: f64,
        mut batch: impl FnMut(u64) -> Result<(), String>,
    ) -> Result<(), String> {
        const CALIB_EVERY_S: f64 = 0.3;
        let start = Instant::now();
        let mut last = Instant::now();
        let mut i = 0;
        while start.elapsed().as_secs_f64() < seconds {
            batch(i)?;
            if last.elapsed().as_secs_f64() >= CALIB_EVERY_S {
                self.calib.sample()?;
                last = Instant::now();
            }
            i += 1;
        }
        self.calib.sample()
    }

    /// Time `k` set-ups, sampling the kernel after each, and keep the last.
    pub fn setups<T>(
        &mut self,
        k: usize,
        out: &mut Outcome,
        mut f: impl FnMut() -> T,
    ) -> Result<T, String> {
        let mut last = None;
        for _ in 0..k {
            drop(last.take());
            let t0 = Instant::now();
            let state = std::hint::black_box(f());
            out.setups.push(0, t0.elapsed());
            self.calib.sample()?;
            last = Some(state);
        }
        Ok(last.expect("at least one set-up"))
    }
}

/// Peak resident set of this process so far (`VmHWM`), in MiB.
fn vm_hwm_mb() -> f64 {
    let status = std::fs::read_to_string("/proc/self/status").unwrap_or_default();
    status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        .map_or(f64::NAN, |kb| kb / 1024.0)
}

/// Provenance of a result: host, toolchain, and the measured sources.
fn provenance(calib_ms: f64) -> String {
    let nproc = std::thread::available_parallelism().map_or(0, |n| n.get());
    format!(
        "{{\"nproc\": {nproc}, \"commit\": \"{}\", \"sources_fnv\": \"{:016x}\", \
         \"rustc\": \"{}\", \"host.calib_ms\": {calib_ms:.4}, \"calib_ref_ms\": {}, \
         \"calib_checksum\": \"{:#x}\"}}",
        commit(),
        sources_fingerprint(),
        env!("PERFBENCH_RUSTC_VERSION"),
        calib::CALIB_REF_MS,
        calib::CHECKSUM,
    )
}

/// The checked-out commit when the tree is a git work tree, else "none".
fn commit() -> String {
    let head = std::fs::read_to_string(".git/HEAD").unwrap_or_default();
    let head = head.trim();
    match head.strip_prefix("ref: ") {
        Some(r) => std::fs::read_to_string(Path::new(".git").join(r))
            .map(|s| s.trim().to_string())
            .unwrap_or_else(|_| "none".into()),
        None if !head.is_empty() => head.to_string(),
        None => "none".into(),
    }
}

/// FNV-1a over the measured sources (`crates/`, the lock file, and this
/// benchmark), so a result names the exact code it measured even in a
/// checkout that is not a git work tree.
fn sources_fingerprint() -> u64 {
    fn walk(dir: &Path, files: &mut Vec<std::path::PathBuf>) {
        let Ok(rd) = std::fs::read_dir(dir) else {
            return;
        };
        for e in rd.flatten() {
            let p = e.path();
            if p.is_dir() {
                walk(&p, files);
            } else if p.extension().is_some_and(|x| x == "rs" || x == "toml") {
                files.push(p);
            }
        }
    }
    let mut files = Vec::new();
    walk(Path::new("crates"), &mut files);
    walk(Path::new("perfbench/src"), &mut files);
    files.push("Cargo.lock".into());
    files.sort();
    let mut h = 0xcbf2_9ce4_8422_2325u64;
    for f in files {
        for b in f
            .to_string_lossy()
            .bytes()
            .chain(std::fs::read(&f).unwrap_or_default())
        {
            h ^= b as u64;
            h = h.wrapping_mul(0x0100_0000_01b3);
        }
    }
    h
}

fn run(args: &Args) -> Result<(bool, u64, u64, String), String> {
    std::fs::create_dir_all(".bench_out").map_err(|e| format!("create .bench_out: {e}"))?;
    let mut ctx = Ctx {
        seed: args.seed,
        seconds: args.seconds as f64,
        calib: Calibration::new()?,
        tracer: None,
    };
    let mut out = Outcome::default();
    // The harness's own peak: the kernel has run twice and the latency
    // buffers are written, so from here on the harness adds (almost)
    // nothing, and the growth of the peak is the workload's.
    let hwm0 = vm_hwm_mb();
    match args.workload.as_str() {
        "serve_hot" => serve::run_hot(&mut ctx, &mut out, args.trace)?,
        "serve_churn" => serve::run_churn(&mut ctx, &mut out, args.trace)?,
        "engine_fixpoint" => engine::run(&mut ctx, &mut out, args.trace)?,
        "lint_semantic" => lint::run(&mut ctx, &mut out, args.trace)?,
        _ => unreachable!("workload validated"),
    }

    let calib_ms = ctx.calib.run_ms();
    let f = ctx.calib.factor();
    let cal = Some(&ctx.calib);
    let setup_raw = out.setups.p50_ms(None) / 1e3;
    let ops_raw = out.ops as f64 / out.busy.total_s(None);
    let (a, b, c) = (
        out.op_a.p50_ms(None),
        out.op_b.p50_ms(None),
        out.op_c.p50_ms(None),
    );
    let rss = vm_hwm_mb() - hwm0;

    let prov = provenance(calib_ms);
    println!("# provenance {prov}");
    println!("# harness peak resident set before the workload: {hwm0:.3} MiB");
    println!(
        "# {} seed {} trace {}: {} ops in {:.3} s busy; samples a/b/c = {}/{}/{}",
        args.workload,
        args.seed,
        args.trace as u8,
        out.ops,
        out.busy.total_s(None),
        out.op_a.len(),
        out.op_b.len(),
        out.op_c.len()
    );

    let mut metrics: Vec<(String, f64, &str)> = Vec::new();
    if args.trace {
        let mut layer = std::mem::take(&mut out.layer);
        layer.insert("host.calib_ms", calib_ms);
        layer.insert("raw.setup_s", setup_raw);
        layer.insert("raw.ops_per_s", ops_raw);
        layer.insert("raw.op_a_p50_ms", a);
        layer.insert("raw.op_b_p50_ms", b);
        layer.insert("raw.op_c_p50_ms", c);
        let traced_raw = out.traced_ops as f64 / out.traced_busy.as_secs_f64();
        layer.insert("trace.ops_per_s", traced_raw / f);
        layer.insert("trace.overhead_pct", 100.0 * (1.0 - traced_raw / ops_raw));
        for name in layer.keys() {
            assert!(
                PER_LAYER.iter().any(|(n, _)| n == name),
                "per-layer metric {name} is not declared"
            );
        }
        for &(name, unit) in PER_LAYER {
            let raw = layer.get(name).copied().unwrap_or(0.0);
            // Layer timings are normalised like the end-to-end ones; their
            // raw twins and the calibration itself are reported as measured.
            let normalised = !name.starts_with("raw.")
                && name != "host.calib_ms"
                && name != "trace.ops_per_s"
                && matches!(unit, "ms" | "us" | "ns");
            metrics.push((
                name.to_string(),
                if normalised { raw * f } else { raw },
                unit,
            ));
        }
        if let Some(t) = &ctx.tracer {
            let path = format!(".bench_out/trace-{}-seed{}.jsonl", args.workload, args.seed);
            std::fs::write(&path, t.to_jsonl()).map_err(|e| format!("write {path}: {e}"))?;
            println!("# spans written to {path}");
        }
    } else {
        println!(
            "# raw: calib_ms {calib_ms} setup_s {setup_raw} ops_per_s {ops_raw} op_a_p50_ms {a} op_b_p50_ms {b} op_c_p50_ms {c}"
        );
        metrics.push(("setup_s".into(), out.setups.p50_ms(cal) / 1e3, "s"));
        metrics.push((
            "ops_per_s".into(),
            out.ops as f64 / out.busy.total_s(cal),
            "1/s",
        ));
        metrics.push(("peak_rss_mb".into(), rss, "MiB"));
        metrics.push(("op_a_p50_ms".into(), out.op_a.p50_ms(cal), "ms"));
        metrics.push(("op_b_p50_ms".into(), out.op_b.p50_ms(cal), "ms"));
        metrics.push(("op_c_p50_ms".into(), out.op_c.p50_ms(cal), "ms"));
    }

    for e in &out.errors {
        eprintln!("FAILED: {e}");
    }
    let correct = out.errors.is_empty() && out.failed == 0;
    let mut json = String::from("{");
    for (i, (name, v, unit)) in metrics.iter().enumerate() {
        if i > 0 {
            json.push_str(", ");
        }
        println!("# {name} = {v} {unit}");
        if !v.is_finite() {
            return Err(format!("metric {name} is not a finite number ({v})"));
        }
        write!(json, "\"{name}\": {{\"value\": {v}, \"unit\": \"{unit}\"}}")
            .expect("writing to a String cannot fail");
    }
    json.push('}');

    let report = format!(
        "{{\"workload\": \"{}\", \"seed\": {}, \"trace\": {}, \"provenance\": {prov}, \
         \"correct\": {correct}, \"metrics\": {json}}}\n",
        args.workload, args.seed, args.trace
    );
    let path = format!(
        ".bench_out/result-{}-seed{}-trace{}.json",
        args.workload, args.seed, args.trace as u8
    );
    std::fs::write(&path, report).map_err(|e| format!("write {path}: {e}"))?;
    Ok((correct, out.attempted.max(1), out.failed, json))
}

fn main() -> ExitCode {
    let args = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("perfbench: {e}");
            eprintln!(
                "usage: perfbench --workload {{{}}} --seed N --seconds S --trace 0|1",
                WORKLOADS.join("|")
            );
            return ExitCode::from(2);
        }
    };
    match run(&args) {
        Ok((correct, attempted, failed, metrics)) => {
            println!(
                "{{\"correct\": {correct}, \"attempted\": {attempted}, \"failed\": {failed}, \"metrics\": {metrics}}}"
            );
            ExitCode::SUCCESS
        }
        Err(e) => {
            eprintln!("perfbench: {e}");
            ExitCode::FAILURE
        }
    }
}
