//! `hp-serve` — the concurrent query service over the
//! homomorphism-preservation workspace.
//!
//! The library turns the paper's machinery into a front door that
//! survives production traffic:
//!
//! * [`epoch`] — snapshot isolation: immutable epochs behind `Arc`;
//!   readers pin, the writer publishes, retirement is the refcount. A
//!   write copies only the relations it touches; the rest are shared
//!   with the previous epoch.
//! * [`admission`] — bounded concurrency with typed [`Overloaded`]
//!   shedding on queue depth or deadline debt.
//! * [`cache`] — the `(CanonicalCoreKey, epoch)` answer cache with
//!   single-flight dedup: N hom-equivalent queries cost one evaluation,
//!   and a hit is *provably* the fresh answer (Chandra–Merlin cores).
//!   An answer whose read footprint a write misses is carried onto the
//!   new epoch, since it depends only on the core's relations.
//! * [`service`] — the request pipeline: admission → hp-guard budget
//!   (fuel + deadline + interrupt) → cache or view → epoch-pinned
//!   evaluation, with one bounded retry around worker panics and a
//!   degradation ladder of full answer → budget-partial with resume
//!   token → shed.
//! * [`view`] — maintained views: a recursive positive program, which
//!   has no core key, is answered from its materialized fixpoint,
//!   caught up to the reader's epoch by incremental maintenance.
//! * [`server`] — the line-delimited JSON protocol over a Unix socket,
//!   with per-connection interrupts and graceful drain.
//! * [`protocol`] — the wire format, written and parsed through
//!   [`json`], the workspace's JSON codec (re-exported from `hp-analysis`).
//!
//! Robustness claims are not aspirational: the chaos suite (tests under
//! `tests/`, `--features fault-inject`) injects worker panics, forced
//! exhaustion, writer failure, and connection drops across randomized
//! schedules and asserts every request terminates typed.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod admission;
pub mod cache;
pub mod epoch;
pub mod protocol;
pub mod server;
pub mod service;
pub mod view;

pub use hp_analysis::json;

pub use admission::{AdmissionGate, AdmissionPermit, Overloaded};
pub use cache::{AnswerCache, CachedAnswer, Claim, Footprint, LeaderGuard};
pub use epoch::{EpochStore, Snapshot, UpdateBatch, WriteError};
pub use protocol::{parse_request, CacheOutcome, QueryRequest, Request, Response};
pub use server::Server;
pub use service::{QueryService, ServiceConfig};
pub use view::ViewRegistry;
