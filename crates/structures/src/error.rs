//! Error type for structure construction and manipulation.

use std::fmt;

/// Errors raised when building or mutating structures.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum StructureError {
    /// A tuple's length does not match the arity of the symbol it was added to.
    ArityMismatch {
        /// Symbol name involved.
        symbol: String,
        /// Declared arity of the symbol.
        expected: usize,
        /// Length of the offending tuple.
        got: usize,
    },
    /// A tuple references an element outside the universe `0..n`.
    ElementOutOfRange {
        /// The offending element index.
        element: u32,
        /// Size of the universe.
        universe: usize,
    },
    /// A symbol id does not exist in the vocabulary.
    UnknownSymbol {
        /// The name or index that failed to resolve.
        name: String,
    },
    /// Two structures were combined but their vocabularies differ.
    VocabularyMismatch,
    /// A parse error in the text format.
    Parse {
        /// Human-readable description of the problem.
        message: String,
        /// 1-based line on which it occurred.
        line: usize,
    },
}

impl fmt::Display for StructureError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            StructureError::ArityMismatch {
                symbol,
                expected,
                got,
            } => write!(
                f,
                "arity mismatch for symbol {symbol}: expected {expected}, got {got}"
            ),
            StructureError::ElementOutOfRange { element, universe } => write!(
                f,
                "element {element} out of range for universe of size {universe}"
            ),
            StructureError::UnknownSymbol { name } => write!(f, "unknown relation symbol {name}"),
            StructureError::VocabularyMismatch => {
                write!(f, "structures are over different vocabularies")
            }
            StructureError::Parse { message, line } => {
                write!(f, "parse error on line {line}: {message}")
            }
        }
    }
}

impl std::error::Error for StructureError {}
