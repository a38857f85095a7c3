//! The line-delimited JSON wire protocol.
//!
//! One request per line, one response per line, always in order. Every
//! response carries a `"status"` discriminant; a malformed request gets a
//! `"status":"error"` response rather than closing the connection, so a
//! client bug cannot desynchronize the stream.
//!
//! Requests (`"op"` discriminant):
//!
//! ```text
//! {"op":"query","program":"...", "timeout_ms":500, "fuel":100000}
//! {"op":"query","formula":"exists x (E(x,y))"}
//! {"op":"query","resume":"r1","fuel":50000}
//! {"op":"update","insert":{"E":[[0,1],[1,2]]},"delete":{"E":[[2,0]]},"grow_universe":1}
//! {"op":"stats"}
//! {"op":"shutdown"}
//! ```
//!
//! Responses (`"status"` discriminant): `ok` (answer rows or update
//! epoch; an answer's `"cache"` says where it came from: `hit`, `miss`,
//! `coalesced`, `bypass`, or `view` for a recursive program read from its
//! maintained view), `partial` (budget ran out; rows so far plus an optional
//! `resume` token), `overloaded` (shed at the door), `fault` (worker
//! failure after the bounded retry), `error` (bad request), `bye`
//! (shutdown acknowledgement). See [`Response::render`] for exact shapes.

use hp_structures::Elem;

use crate::admission::Overloaded;
use crate::epoch::UpdateBatch;
use crate::json::{self, Json, ObjWriter};

/// A parsed client request.
#[derive(Clone, Debug, PartialEq)]
pub enum Request {
    /// Evaluate a query (Datalog program, FO formula, or resumption).
    Query(QueryRequest),
    /// Apply an EDB update batch, publishing a new epoch.
    Update(UpdateBatch),
    /// Report service counters.
    Stats,
    /// Begin graceful drain: finish in-flight work, then close.
    Shutdown,
}

/// The `"op":"query"` payload.
#[derive(Clone, Debug, Default, PartialEq)]
pub struct QueryRequest {
    /// Datalog source (mutually exclusive with `formula` and `resume`).
    pub program: Option<String>,
    /// Existential-positive FO formula source.
    pub formula: Option<String>,
    /// Resume token from a previous `partial` response.
    pub resume: Option<String>,
    /// Per-request deadline; the service default applies when absent.
    pub timeout_ms: Option<u64>,
    /// Per-request fuel; the service default applies when absent.
    pub fuel: Option<u64>,
    /// Skip the answer cache for this request.
    pub no_cache: bool,
}

/// How the answer cache participated in an `ok` answer.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum CacheOutcome {
    /// Served from a published cache entry.
    Hit,
    /// This request evaluated and published the entry.
    Miss,
    /// Waited for a concurrent equivalent request's evaluation.
    Coalesced,
    /// Not cacheable (recursive / goal-less / `no_cache` / key budget).
    Bypass,
    /// Read from the program's maintained view, caught up to the pinned
    /// epoch by incremental maintenance (recursive positive programs).
    View,
}

impl CacheOutcome {
    fn as_str(self) -> &'static str {
        match self {
            CacheOutcome::Hit => "hit",
            CacheOutcome::Miss => "miss",
            CacheOutcome::Coalesced => "coalesced",
            CacheOutcome::Bypass => "bypass",
            CacheOutcome::View => "view",
        }
    }
}

/// A serialized service response.
#[derive(Clone, Debug, PartialEq)]
pub enum Response {
    /// A complete, epoch-consistent answer.
    Answer {
        /// The epoch the answer was computed on.
        epoch: u64,
        /// Answer rows in the evaluator's deterministic order.
        rows: Vec<Vec<Elem>>,
        /// Cache participation.
        cache: CacheOutcome,
        /// Fixpoint stages the evaluation took (0 for formula queries).
        stages: usize,
        /// Fuel charged.
        fuel_spent: u64,
    },
    /// An update was applied and published.
    Updated {
        /// The newly published epoch.
        epoch: u64,
    },
    /// Shed at the admission gate.
    Overloaded(Overloaded),
    /// The budget ran out; `rows` are a sound lower bound on the answer.
    Partial {
        /// The epoch the partial was computed on.
        epoch: u64,
        /// Which resource ran out (`fuel` / `wall-clock` / `interrupt`).
        resource: String,
        /// Rows derived before the stop (subset of the true answer).
        rows: Vec<Vec<Elem>>,
        /// Token accepted by a follow-up `{"op":"query","resume":...}`;
        /// absent when the stop is not resumable (interrupt, key budget).
        resume: Option<String>,
        /// Fuel charged so far.
        fuel_spent: u64,
    },
    /// Worker failure survived the bounded retry.
    Fault {
        /// Human-readable description.
        message: String,
        /// Whether a retry was attempted before giving up.
        retried: bool,
    },
    /// The request itself was invalid.
    Error {
        /// Human-readable description.
        message: String,
    },
    /// Service counters.
    Stats {
        /// Currently published epoch.
        epoch: u64,
        /// Cache hits so far.
        cache_hits: u64,
        /// Cache misses (leader evaluations) so far.
        cache_misses: u64,
        /// Followers coalesced onto an in-flight evaluation.
        coalesced: u64,
        /// Cached answers re-keyed onto a newly published epoch because
        /// its write missed their footprint, so far.
        cache_carried: u64,
        /// Maintained views currently held.
        views: u64,
        /// Catch-ups that brought a view forward to a reader's epoch, so
        /// far.
        view_catchups: u64,
        /// Full fixpoints computed so far: completed evaluations of a
        /// Datalog program (resumes included) and view builds.
        fixpoints: u64,
        /// Requests admitted.
        admitted: u64,
        /// Requests shed.
        shed: u64,
        /// Requests in flight right now.
        depth: u64,
        /// Heap bytes held by the currently published snapshot's column
        /// planes and pending arenas (analytic
        /// [`heap_bytes`](hp_structures::Structure::heap_bytes)). Counts
        /// in full the relations the snapshot shares with neighbouring
        /// epochs, so summing it over epochs overstates resident memory.
        snapshot_bytes: u64,
    },
    /// Shutdown acknowledged; the connection closes after this line.
    Bye,
}

/// Parse one request line.
pub fn parse_request(line: &str) -> Result<Request, String> {
    let v = json::parse(line)?;
    let op = v
        .get("op")
        .and_then(Json::as_str)
        .ok_or("missing \"op\" field")?;
    match op {
        "query" => {
            let q = QueryRequest {
                program: v.get("program").and_then(Json::as_str).map(str::to_owned),
                formula: v.get("formula").and_then(Json::as_str).map(str::to_owned),
                resume: v.get("resume").and_then(Json::as_str).map(str::to_owned),
                timeout_ms: v.get("timeout_ms").and_then(Json::as_u64),
                fuel: v.get("fuel").and_then(Json::as_u64),
                no_cache: matches!(v.get("no_cache"), Some(Json::Bool(true))),
            };
            let sources =
                q.program.is_some() as u8 + q.formula.is_some() as u8 + q.resume.is_some() as u8;
            if sources != 1 {
                return Err(
                    "query needs exactly one of \"program\", \"formula\", \"resume\"".to_string(),
                );
            }
            Ok(Request::Query(q))
        }
        "update" => {
            let mut batch = UpdateBatch {
                grow_universe: v
                    .get("grow_universe")
                    .and_then(Json::as_u64)
                    .map(|n| u32::try_from(n).map_err(|_| "grow_universe out of range"))
                    .transpose()?
                    .unwrap_or(0),
                ..Default::default()
            };
            batch.inserts = tuple_map(v.get("insert"))?;
            batch.deletes = tuple_map(v.get("delete"))?;
            if batch.inserts.is_empty() && batch.deletes.is_empty() && batch.grow_universe == 0 {
                return Err("empty update".to_string());
            }
            Ok(Request::Update(batch))
        }
        "stats" => Ok(Request::Stats),
        "shutdown" => Ok(Request::Shutdown),
        other => Err(format!("unknown op {other:?}")),
    }
}

/// Decode `{"R":[[0,1],...], ...}` into `(relation, tuple)` pairs.
fn tuple_map(v: Option<&Json>) -> Result<Vec<(String, Vec<Elem>)>, String> {
    let mut out = Vec::new();
    let Some(v) = v else { return Ok(out) };
    let Json::Obj(fields) = v else {
        return Err("insert/delete must be an object of relation -> tuples".to_string());
    };
    for (name, tuples) in fields {
        let tuples = tuples
            .as_arr()
            .ok_or_else(|| format!("tuples of {name:?} must be an array"))?;
        for t in tuples {
            let t = t
                .as_arr()
                .ok_or_else(|| format!("each tuple of {name:?} must be an array"))?;
            let mut row = Vec::with_capacity(t.len());
            for e in t {
                let n = e
                    .as_u64()
                    .filter(|n| *n <= u32::MAX as u64)
                    .ok_or_else(|| format!("bad element in {name:?}"))?;
                row.push(Elem(n as u32));
            }
            out.push((name.clone(), row));
        }
    }
    Ok(out)
}

impl Response {
    /// Render as one JSON line (no trailing newline).
    pub fn render(&self) -> String {
        match self {
            Response::Answer {
                epoch,
                rows,
                cache,
                stages,
                fuel_spent,
            } => ObjWriter::new(96)
                .str("status", "ok")
                .num("epoch", *epoch)
                .rows("rows", rows)
                .str("cache", cache.as_str())
                .num("stages", *stages as u64)
                .num("fuel_spent", *fuel_spent),
            Response::Updated { epoch } => {
                ObjWriter::new(32).str("status", "ok").num("epoch", *epoch)
            }
            Response::Overloaded(o) => ObjWriter::new(96)
                .str("status", "overloaded")
                .num("depth", o.depth)
                .num("max_depth", o.max_depth)
                .num("debt_ms", o.debt_ms)
                .num("max_debt_ms", o.max_debt_ms),
            Response::Partial {
                epoch,
                resource,
                rows,
                resume,
                fuel_spent,
            } => ObjWriter::new(96)
                .str("status", "partial")
                .num("epoch", *epoch)
                .str("resource", resource)
                .rows("rows", rows)
                .value("resume", &resume.as_deref().into())
                .num("fuel_spent", *fuel_spent),
            Response::Fault { message, retried } => ObjWriter::new(64)
                .str("status", "fault")
                .str("message", message)
                .value("retried", &Json::Bool(*retried)),
            Response::Error { message } => ObjWriter::new(64)
                .str("status", "error")
                .str("message", message),
            Response::Stats {
                epoch,
                cache_hits,
                cache_misses,
                coalesced,
                cache_carried,
                views,
                view_catchups,
                fixpoints,
                admitted,
                shed,
                depth,
                snapshot_bytes,
            } => ObjWriter::new(256)
                .str("status", "ok")
                .num("epoch", *epoch)
                .num("cache_hits", *cache_hits)
                .num("cache_misses", *cache_misses)
                .num("cache_carried", *cache_carried)
                .num("coalesced", *coalesced)
                .num("views", *views)
                .num("view_catchups", *view_catchups)
                .num("fixpoints", *fixpoints)
                .num("admitted", *admitted)
                .num("shed", *shed)
                .num("depth", *depth)
                .num("snapshot_bytes", *snapshot_bytes),
            Response::Bye => ObjWriter::new(16).str("status", "bye"),
        }
        .finish()
    }

    /// The `"status"` discriminant of the rendered line.
    pub fn status(&self) -> &'static str {
        match self {
            Response::Answer { .. } | Response::Updated { .. } | Response::Stats { .. } => "ok",
            Response::Overloaded(_) => "overloaded",
            Response::Partial { .. } => "partial",
            Response::Fault { .. } => "fault",
            Response::Error { .. } => "error",
            Response::Bye => "bye",
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    /// The tree rendering the streamed writer replaces.
    fn tree_rendering(r: &Response) -> String {
        let rows_json = |rows: &[Vec<Elem>]| {
            Json::Arr(
                rows.iter()
                    .map(|r| Json::Arr(r.iter().map(|e| Json::Num(e.0 as f64)).collect()))
                    .collect(),
            )
        };
        let obj = match r {
            Response::Answer {
                epoch,
                rows,
                cache,
                stages,
                fuel_spent,
            } => Json::Obj(vec![
                ("status".into(), Json::Str("ok".into())),
                ("epoch".into(), Json::Num(*epoch as f64)),
                ("rows".into(), rows_json(rows)),
                ("cache".into(), Json::Str(cache.as_str().into())),
                ("stages".into(), Json::Num(*stages as f64)),
                ("fuel_spent".into(), Json::Num(*fuel_spent as f64)),
            ]),
            Response::Partial {
                epoch,
                resource,
                rows,
                resume,
                fuel_spent,
            } => Json::Obj(vec![
                ("status".into(), Json::Str("partial".into())),
                ("epoch".into(), Json::Num(*epoch as f64)),
                ("resource".into(), Json::Str(resource.clone())),
                ("rows".into(), rows_json(rows)),
                (
                    "resume".into(),
                    resume.clone().map_or(Json::Null, Json::Str),
                ),
                ("fuel_spent".into(), Json::Num(*fuel_spent as f64)),
            ]),
            other => unreachable!("{other:?}"),
        };
        obj.to_string()
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(128))]

        #[test]
        fn streamed_rows_match_the_json_tree(
            rows in prop::collection::vec(prop::collection::vec(any::<u32>(), 0..4), 0..24),
            epoch in 0..(1u64 << 53),
            fuel in 0..(1u64 << 53),
            stages in 0..100_000usize,
            pick in 0..6usize,
            resume in 0..3usize,
        ) {
            let resume = [None, Some("r1f"), Some("q\"u\\o\nte")][resume].map(str::to_string);
            let rows: Vec<Vec<Elem>> = rows
                .into_iter()
                .map(|r| r.into_iter().map(Elem).collect())
                .collect();
            let cache = [
                CacheOutcome::Hit,
                CacheOutcome::Miss,
                CacheOutcome::Coalesced,
                CacheOutcome::Bypass,
                CacheOutcome::View,
                CacheOutcome::Hit,
            ][pick];
            let answer = Response::Answer {
                epoch,
                rows: rows.clone(),
                cache,
                stages,
                fuel_spent: fuel,
            };
            prop_assert_eq!(answer.render(), tree_rendering(&answer));
            let partial = Response::Partial {
                epoch,
                resource: ["fuel", "wall-clock", "interrupt"][pick % 3].to_string(),
                rows,
                resume,
                fuel_spent: fuel,
            };
            prop_assert_eq!(partial.render(), tree_rendering(&partial));
        }
    }

    #[test]
    fn query_request_roundtrip() {
        let r = parse_request(
            "{\"op\":\"query\",\"program\":\"Goal(x) :- E(x,y).\",\"timeout_ms\":250,\"fuel\":1000}",
        )
        .unwrap();
        match r {
            Request::Query(q) => {
                assert_eq!(q.program.as_deref(), Some("Goal(x) :- E(x,y)."));
                assert_eq!(q.timeout_ms, Some(250));
                assert_eq!(q.fuel, Some(1000));
                assert!(!q.no_cache);
            }
            other => panic!("{other:?}"),
        }
    }

    #[test]
    fn query_requires_exactly_one_source() {
        assert!(parse_request("{\"op\":\"query\"}").is_err());
        assert!(parse_request("{\"op\":\"query\",\"program\":\"x\",\"formula\":\"y\"}").is_err());
        assert!(parse_request("{\"op\":\"query\",\"resume\":\"r1\"}").is_ok());
    }

    #[test]
    fn update_request_decodes_tuple_maps() {
        let r = parse_request(
            "{\"op\":\"update\",\"insert\":{\"E\":[[0,1],[1,2]]},\"delete\":{\"E\":[[2,0]]},\"grow_universe\":2}",
        )
        .unwrap();
        match r {
            Request::Update(b) => {
                assert_eq!(b.grow_universe, 2);
                assert_eq!(b.inserts.len(), 2);
                assert_eq!(b.inserts[0], ("E".into(), vec![Elem(0), Elem(1)]));
                assert_eq!(b.deletes, vec![("E".into(), vec![Elem(2), Elem(0)])]);
            }
            other => panic!("{other:?}"),
        }
        assert!(
            parse_request("{\"op\":\"update\"}").is_err(),
            "empty update"
        );
        assert!(
            parse_request("{\"op\":\"update\",\"insert\":{\"E\":[[0,-1]]}}").is_err(),
            "negative element"
        );
    }

    #[test]
    fn responses_render_parseable_json_with_status() {
        let rs = [
            Response::Answer {
                epoch: 3,
                rows: vec![vec![Elem(1), Elem(2)]],
                cache: CacheOutcome::Hit,
                stages: 2,
                fuel_spent: 17,
            },
            Response::Partial {
                epoch: 0,
                resource: "fuel".into(),
                rows: vec![],
                resume: Some("r1".into()),
                fuel_spent: 100,
            },
            Response::Fault {
                message: "boom \"quoted\"".into(),
                retried: true,
            },
            Response::Bye,
        ];
        for r in &rs {
            let line = r.render();
            let v = crate::json::parse(&line).expect("rendered line parses");
            assert_eq!(v.get("status").and_then(Json::as_str), Some(r.status()));
        }
    }
}
