//! # hp-datalog
//!
//! A Datalog engine (§2.3) with everything §7 of Atserias–Dawar–Kolaitis
//! needs:
//!
//! - Datalog programs with EDB/IDB predicates, a text parser, and the
//!   **total-distinct-variable count** that defines k-Datalog;
//! - **stratified negation**: `not R(x,y)` body literals, validated at
//!   construction (negation safety and stratifiability are
//!   [`DatalogError`]s, so every [`Program`] value is evaluable) and run
//!   by stratum-ordered semi-naive evaluation — positive programs take
//!   the single stratum 0 and behave exactly as before;
//! - bottom-up evaluation: **naive** stages `Φ⁰, Φ¹, …` (the monotone
//!   operator of §2.3, used for stage counting — with explicit convergence
//!   reporting, see [`StageSequence`]) and **semi-naive** fixpoints driven
//!   through precomputed join plans and sorted probes of the relations, with
//!   optional sharded parallel delta rounds ([`EvalConfig`]) that are
//!   bit-identical to sequential evaluation;
//! - **Theorem 7.1** made executable: one IDB's rules unfolded one step
//!   over given UCQs for its children ([`unfold_over`]), iterated from
//!   `Θ⁰ = ⊥` into the m-th stage of a k-Datalog program as a finite
//!   disjunction of `CQ^k` formulas ([`stage_ucq`]);
//! - **boundedness**: an empirical stage-count probe over structure
//!   families, and a *certified*, budgeted decision procedure
//!   ([`certify_boundedness`]) that unfolds each stage once and checks
//!   `Θ^s ≡ Θ^{s+1}` by Sagiv–Yannakakis UCQ equivalence — exactly the
//!   Ajtai–Gurevich criterion of Theorem 7.5.
//!
//! ```
//! use hp_structures::{Vocabulary, generators::directed_path};
//! use hp_datalog::Program;
//!
//! // Transitive closure — the paper's example 3-Datalog program.
//! let sigma = Vocabulary::digraph();
//! let tc = Program::parse(
//!     "T(x,y) :- E(x,y).\n\
//!      T(x,y) :- E(x,z), T(z,y).",
//!     &sigma,
//! ).unwrap();
//! assert_eq!(tc.total_variable_count(), 3);
//!
//! let result = tc.evaluate(&directed_path(5));
//! // Transitive closure of a 4-edge path has 4+3+2+1 = 10 pairs.
//! assert_eq!(result.idb("T").unwrap().len(), 10);
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod ast;
mod bounded;
mod depgraph;
mod error;
mod eval;
pub mod gallery;
mod incremental;
mod parser;
mod plan;
mod pool;
mod reference;
mod unfold;

pub use ast::{DatalogAtom, PredRef, Program, Rule, DEFAULT_GOAL_NAME};
pub use bounded::{
    certified_bounded_at, certified_boundedness, certify_boundedness, stage_probe,
    BoundednessProbe, BoundednessVerdict,
};
pub use depgraph::DepGraph;
pub use error::{DatalogError, DatalogErrorKind, DatalogSpan};
pub use eval::{
    EvalCheckpoint, EvalConfig, EvalError, FixpointResult, IdbRelation, StageSequence,
    StratumProfile,
};
pub use incremental::{EdbDelta, MaintenanceReport, MaterializedDb};
pub use parser::{body_atom_byte_ranges, rule_byte_ranges};
pub use unfold::{stage_ucq, stages_agree, unfold_over};
