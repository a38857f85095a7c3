//! # hp-structures
//!
//! Finite relational structures, graphs, and Gaifman graphs — the universe of
//! discourse of *"On Preservation under Homomorphisms and Unions of
//! Conjunctive Queries"* (Atserias, Dawar, Kolaitis; PODS 2004).
//!
//! A **relational vocabulary** ([`Vocabulary`]) is a finite set of relation
//! symbols with arities. A **σ-structure** ([`Structure`]) is a finite
//! universe together with an interpretation of each symbol. **Graphs**
//! ([`Graph`]) are undirected, loopless, simple — exactly the convention of
//! the paper (§2.1) — and double as the representation of **Gaifman graphs**
//! of structures.
//!
//! The crate also ships generators for every structure family the paper
//! mentions (paths, cycles, cliques, complete bipartite graphs, stars, grids,
//! trees, wheels `W_n`, bicycles `B_n = W_n + K_4`, k-trees, random models),
//! plus structure-level operations: substructures, induced substructures,
//! disjoint unions, homomorphic images, and Gaifman neighborhoods.
//!
//! ## Quick tour
//!
//! ```
//! use hp_structures::{Vocabulary, Structure, Graph, generators};
//!
//! // A directed-graph vocabulary with one binary symbol E.
//! let sigma = Vocabulary::builder().symbol("E", 2).build();
//! let mut c3 = Structure::new(sigma.clone(), 3);
//! for i in 0..3 {
//!     c3.add_tuple_ids(0, &[i, (i + 1) % 3]).unwrap();
//! }
//! assert_eq!(c3.relation(0usize.into()).len(), 3);
//!
//! // The Gaifman graph of the directed triangle is the undirected triangle.
//! let g = c3.gaifman_graph();
//! assert_eq!(g.edge_count(), 3);
//! assert_eq!(g.max_degree(), 2);
//!
//! // Generators: the 4-wheel of §6.2 has 5 vertices and 8 edges.
//! let w4 = generators::wheel(4);
//! assert_eq!((w4.vertex_count(), w4.edge_count()), (5, 8));
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod bitset;
mod elem;
mod error;
mod fmt;
mod gaifman;
mod graph;
mod graph_algo;
mod ops;
mod row;
mod store;
mod structure;
mod vocab;

pub mod generators;

pub use bitset::BitSet;
pub use elem::Elem;
pub use error::StructureError;
pub use gaifman::{is_d_scattered, Neighborhoods};
pub use graph::Graph;
pub use ops::identity_map;
pub use row::{Row, RowElems, RowRef};
pub use store::{Cursor, Rows, TupleStore, PAGE};
pub use structure::{permuted_copy, KeyOrder, Relation, Structure, StructureBuilder};
pub use vocab::{Symbol, SymbolId, Vocabulary, VocabularyBuilder};
