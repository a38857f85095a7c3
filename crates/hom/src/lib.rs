//! # hp-hom
//!
//! Homomorphisms between finite relational structures: existence, search,
//! enumeration, isomorphism, retracts, and **cores** — the algorithmic heart
//! of the Chandra–Merlin correspondence (Theorem 2.1) and of §6.2 of
//! Atserias–Dawar–Kolaitis (PODS 2004).
//!
//! Homomorphism search is implemented as a constraint-satisfaction search:
//! variables are the elements of the source structure, domains are subsets
//! of the target universe, constraints are the source tuples. The solver
//! combines generalized arc consistency over tuple constraints with
//! minimum-remaining-values branching, and supports pinned variables
//! (constants, pebbles), restricted codomains, injectivity (for
//! isomorphism), and surjectivity (for the minimal-model arguments of §7).
//!
//! Cores come from one fold, [`core_of_pointed_gauged`]: it retracts a
//! structure element by element onto its core relative to a list of
//! points, which every retract fixes. [`core_of`] is the fold with no
//! points; Chandra–Merlin minimization of a query (`hp_logic::Cq`) is the
//! fold with the query's free elements as points.
//!
//! ```
//! use hp_structures::generators::{directed_cycle, directed_path};
//! use hp_hom::{hom_exists, core_of};
//!
//! // A path of length 3 maps into the directed 3-cycle (wrap around)…
//! assert!(hom_exists(&directed_path(4), &directed_cycle(3)));
//! // …but the cycle does not map into the path.
//! assert!(!hom_exists(&directed_cycle(3), &directed_path(4)));
//!
//! // The core of a structure that already is a core is itself.
//! let c3 = directed_cycle(3);
//! assert_eq!(core_of(&c3).structure.universe_size(), 3);
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod canon;
mod core_impl;
mod iso;
mod search;

pub use canon::{
    canonical_form, canonical_form_pointed, canonical_form_pointed_gauged,
    canonical_form_pointed_with_budget, CanonicalForm,
};
pub use core_impl::{
    core_of, core_of_pointed_gauged, core_of_with_budget, is_core, is_core_with_budget,
    retract_avoiding, Core,
};
pub use iso::{
    are_homomorphically_equivalent, are_isomorphic, are_isomorphic_pointed, canonical_invariant,
    endomorphism_count, is_rigid,
};
pub use search::{all_homs, find_hom, hom_exists, HomError, HomSearch};
