//! Error type shared across the workspace's substrate layer.

use std::fmt;

/// Result alias for core operations.
pub type CoreResult<T> = Result<T, CoreError>;

/// Errors raised by the relational engine.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum CoreError {
    /// A tuple's arity did not match its relation's schema.
    ArityMismatch {
        /// Table whose schema was violated.
        table: String,
        /// Arity declared by the schema.
        expected: usize,
        /// Arity of the offending tuple.
        actual: usize,
    },
    /// A referenced table does not exist in the database or catalog.
    UnknownTable(String),
    /// A referenced attribute does not exist in a table schema.
    UnknownAttribute {
        /// Table that was searched.
        table: String,
        /// Attribute that was not found.
        attribute: String,
    },
    /// A table was defined twice in the same catalog or database.
    DuplicateTable(String),
    /// An attribute name appears twice in one table schema.
    DuplicateAttribute {
        /// Table with the duplicate.
        table: String,
        /// The repeated attribute name.
        attribute: String,
    },
    /// A query nests deeper than [`MAX_NESTING`](crate::MAX_NESTING)
    /// levels (parser recursion, operator depth, or a Datalog IDB
    /// dependency chain).
    NestingTooDeep {
        /// The limit that was exceeded.
        limit: usize,
    },
    /// Generic invariant violation with a human-readable message.
    Invalid(String),
}

impl fmt::Display for CoreError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            CoreError::ArityMismatch {
                table,
                expected,
                actual,
            } => write!(
                f,
                "arity mismatch for table '{table}': schema has {expected} attributes, tuple has {actual}"
            ),
            CoreError::UnknownTable(t) => write!(f, "unknown table '{t}'"),
            CoreError::UnknownAttribute { table, attribute } => {
                write!(f, "table '{table}' has no attribute '{attribute}'")
            }
            CoreError::DuplicateTable(t) => write!(f, "table '{t}' defined twice"),
            CoreError::DuplicateAttribute { table, attribute } => {
                write!(f, "attribute '{attribute}' duplicated in table '{table}'")
            }
            CoreError::NestingTooDeep { limit } => {
                write!(f, "query nests deeper than the limit of {limit} levels")
            }
            CoreError::Invalid(msg) => write!(f, "{msg}"),
        }
    }
}

impl std::error::Error for CoreError {}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn display_is_informative() {
        let e = CoreError::ArityMismatch {
            table: "R".into(),
            expected: 2,
            actual: 3,
        };
        assert!(e.to_string().contains("'R'"));
        assert!(e.to_string().contains('2'));
        assert!(e.to_string().contains('3'));
        assert_eq!(
            CoreError::UnknownTable("S".into()).to_string(),
            "unknown table 'S'"
        );
        assert_eq!(
            CoreError::NestingTooDeep { limit: 128 }.to_string(),
            "query nests deeper than the limit of 128 levels"
        );
    }
}
