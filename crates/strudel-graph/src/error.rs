//! Error types for the data repository.

use crate::graph::NodeId;
use std::fmt;

/// Errors raised by graph and repository operations.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum GraphError {
    /// The oid does not exist in the universe.
    UnknownNode(NodeId),
    /// The node exists in the universe but is not a member of this graph.
    NotAMember(NodeId),
    /// A graph with this name already exists in the database.
    DuplicateGraph(String),
    /// No graph with this name exists in the database.
    UnknownGraph(String),
    /// A syntax error in the data-definition language.
    DdlParse {
        /// 1-based line of the error.
        line: usize,
        /// Description of what went wrong.
        message: String,
    },
    /// A storage-layer I/O failure (the operating system refused or lost a
    /// read/write; the data itself is not known to be bad).
    Storage {
        /// Description of what went wrong.
        message: String,
    },
    /// On-disk data failed validation: bad magic, checksum mismatch, an
    /// out-of-range count or index, truncation, or trailing garbage. The
    /// bytes cannot be trusted and were not loaded.
    StorageCorrupt {
        /// Description of what failed to validate, with context.
        message: String,
    },
    /// Crash recovery could not restore a consistent revision: the
    /// write-ahead log and the page file disagree (e.g. the log is ahead of
    /// the base snapshot), or a committed delta no longer applies. Nothing
    /// was loaded — recovery never yields a silently wrong graph.
    StorageRecovery {
        /// Description of the recovery invariant that failed.
        message: String,
    },
}

impl fmt::Display for GraphError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            GraphError::UnknownNode(n) => write!(f, "unknown node {n}"),
            GraphError::NotAMember(n) => write!(f, "node {n} is not a member of this graph"),
            GraphError::DuplicateGraph(name) => write!(f, "graph {name:?} already exists"),
            GraphError::UnknownGraph(name) => write!(f, "no graph named {name:?}"),
            GraphError::DdlParse { line, message } => {
                write!(f, "DDL parse error at line {line}: {message}")
            }
            GraphError::Storage { message } => write!(f, "storage error: {message}"),
            GraphError::StorageCorrupt { message } => {
                write!(f, "storage corruption: {message}")
            }
            GraphError::StorageRecovery { message } => {
                write!(f, "storage recovery failed: {message}")
            }
        }
    }
}

impl std::error::Error for GraphError {}

impl GraphError {
    /// On-disk bytes that failed validation.
    pub(crate) fn corrupt(message: impl Into<String>) -> Self {
        GraphError::StorageCorrupt {
            message: message.into(),
        }
    }

    /// A revision crash recovery could not restore.
    pub(crate) fn recovery(message: impl Into<String>) -> Self {
        GraphError::StorageRecovery {
            message: message.into(),
        }
    }
}

impl From<std::io::Error> for GraphError {
    fn from(e: std::io::Error) -> Self {
        GraphError::Storage {
            message: format!("I/O error: {e}"),
        }
    }
}

/// Result alias for repository operations.
pub type Result<T> = std::result::Result<T, GraphError>;
