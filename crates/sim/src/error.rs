//! Error type for hardware-model misuse.

use std::error::Error;
use std::fmt;

/// Error returned by the hardware models.
#[derive(Debug, Clone, PartialEq)]
#[non_exhaustive]
pub enum SimError {
    /// A configuration parameter was invalid (zero PEs, zero bandwidth, ...).
    InvalidConfig {
        /// Parameter name.
        param: &'static str,
        /// Human-readable explanation.
        reason: String,
    },
    /// A task referenced an unknown dependency or resource in the event
    /// engine.
    UnknownId {
        /// What kind of id was dangling ("task", "resource").
        kind: &'static str,
        /// The offending index.
        id: usize,
    },
    /// The event engine detected a dependency on a task submitted later
    /// (tasks must be submitted in topological order).
    ForwardDependency {
        /// The task that declared the dependency.
        task: usize,
        /// The not-yet-submitted dependency.
        dep: usize,
    },
}

impl fmt::Display for SimError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            SimError::InvalidConfig { param, reason } => {
                write!(f, "invalid configuration `{param}`: {reason}")
            }
            SimError::UnknownId { kind, id } => write!(f, "unknown {kind} id {id}"),
            SimError::ForwardDependency { task, dep } => {
                write!(f, "task {task} depends on not-yet-submitted task {dep}")
            }
        }
    }
}

impl Error for SimError {}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn display_nonempty() {
        let variants = [
            SimError::InvalidConfig { param: "pe", reason: "zero".into() },
            SimError::UnknownId { kind: "task", id: 3 },
            SimError::ForwardDependency { task: 1, dep: 2 },
        ];
        for v in variants {
            assert!(!v.to_string().is_empty());
        }
    }

    #[test]
    fn send_sync() {
        fn check<T: Send + Sync>() {}
        check::<SimError>();
    }
}
