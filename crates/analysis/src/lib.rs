//! # hp-analysis
//!
//! A diagnostics framework and static-analysis pass pipeline over the
//! workspace's three program representations: Datalog programs
//! (`hp-datalog`), first-order formulas (`hp-logic`), and the CQ/UCQ
//! intermediate representations.
//!
//! The crate has two layers:
//!
//! - a **diagnostics core** ([`diag`]): the [`Diagnostic`] type with
//!   stable `HP001`–`HP013` codes, three severities, source [`Span`]s fed
//!   by the line-tracking parsers, and a terminal renderer with source
//!   excerpts;
//! - **analysis passes** ([`datalog_passes`], [`formula`]) behind a
//!   [`Pass`] trait pipeline ([`Analyzer`]): rule safety and range
//!   restriction, arity consistency, unused-IDB and goal-unreachable-rule
//!   detection (with certified [dead-rule elimination](dce)), recursion
//!   classification, Datalog(k) membership with the treewidth < k
//!   correspondence of Theorem 7.1, syntactic existential-positivity
//!   (Theorem 2.2), and CQ treewidth upper bounds via `hp-tw`.
//!
//! The `hompres-lint` binary drives both layers over `.dl` / `.fo` files
//! and the built-in program gallery. Its JSON output, the query
//! service's wire protocol and the bench snapshots all go through one
//! codec, [`json`].
//!
//! ```
//! use hp_analysis::{Analyzer, Code};
//! use hp_structures::Vocabulary;
//!
//! let a = Analyzer::default_pipeline();
//! let (prog, ds) = a.analyze_source(
//!     "T(x,y) :- E(x,y).\nT(x,y) :- E(x,z), T(z,y).",
//!     &Vocabulary::digraph(),
//! );
//! assert!(prog.is_some() && !ds.has_errors());
//! // The classification notes identify this as the paper's 3-Datalog
//! // transitive-closure program.
//! assert!(ds.contains(Code::Hp009));
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod dataflow;
pub mod datalog_passes;
pub mod dce;
pub mod diag;
pub mod diff;
pub mod facts;
pub mod fix;
pub mod formula;
pub mod json;
pub mod lint;
pub mod pass;
pub mod pdg;
pub mod semantic;

pub use dataflow::{
    possibly_nonempty, relevant_preds, solve, stage_bounds, DataflowAnalysis, Direction,
    JoinSemiLattice, StageBound,
};
pub use dce::{eliminate_dead_rules, DeadRuleElimination};
pub use diag::{Code, Diagnostic, Diagnostics, Severity, Span};
pub use diff::unified_diff;
pub use facts::ProgramFacts;
pub use fix::{
    fix_check_source, fix_program, fix_source, FixCheck, FixOutcome, ProgramFix, RemovedAtom,
    RemovedRule,
};
pub use formula::{
    analyze_formula, analyze_formula_source, analyze_formula_source_with, analyze_formula_with,
};
pub use hp_logic::CanonicalCoreKey;
pub use lint::{
    datalog_core_key, datalog_stratum_profile, formula_core_key, lint_datalog_source,
    lint_datalog_source_with, lint_formula_source, lint_formula_source_with, parse_vocab_spec,
    StrataCost, PROFILE_UNIVERSE,
};
pub use pass::{Analyzer, Pass};
pub use pdg::Pdg;
pub use semantic::{
    goal_core_key, resume_semantic_scan, semantic_scan, SemanticCheckpoint, SemanticPass,
};
