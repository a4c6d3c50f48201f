//! Error types for the cluster simulator.

use std::fmt;

use crate::cluster::MachineId;

/// Which capacity budget a violation hit.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum CapacityKind {
    /// Resident machine state after a superstep.
    State,
    /// Total words received by a machine in one round.
    Inbox,
    /// Total words sent by a machine in one round.
    Outbox,
    /// Words forwarded by one machine in one hop of a broadcast tree.
    BroadcastHop,
    /// Words received by one machine in one hop of an aggregation tree.
    AggregateHop,
    /// Words gathered onto the central machine (input + resident state).
    CentralGather,
}

impl fmt::Display for CapacityKind {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let s = match self {
            CapacityKind::State => "machine state",
            CapacityKind::Inbox => "inbox",
            CapacityKind::Outbox => "outbox",
            CapacityKind::BroadcastHop => "broadcast hop",
            CapacityKind::AggregateHop => "aggregate hop",
            CapacityKind::CentralGather => "central gather",
        };
        f.write_str(s)
    }
}

/// Errors produced by the simulator or by algorithms running on it.
#[derive(Debug, Clone, PartialEq)]
pub enum MrError {
    /// A machine exceeded its word budget.
    CapacityExceeded {
        /// Round at which the violation occurred.
        round: usize,
        /// Offending machine.
        machine: MachineId,
        /// Budget that was violated.
        kind: CapacityKind,
        /// Words used.
        used: usize,
        /// Words allowed.
        capacity: usize,
    },
    /// An algorithm executed one of the paper's explicit `fail` branches
    /// (e.g. Algorithm 1 line 6: `|U'| > 6η`). These occur with probability
    /// `exp(-poly(n))` under the intended parameters, but are reachable by
    /// adversarial configuration and must be surfaced, never masked.
    AlgorithmFailed {
        /// Round at which the algorithm failed.
        round: usize,
        /// Human-readable description of the failed guard.
        reason: String,
    },
    /// The cluster or algorithm was configured inconsistently.
    BadConfig(String),
    /// The problem instance admits no feasible solution
    /// (e.g. an element of a set-cover instance contained in no set).
    Infeasible(String),
    /// The distributed transport failed unrecoverably (a worker died more
    /// times than the retry budget allows, a region digest mismatched, or
    /// the protocol was violated).
    Dist(String),
}

impl fmt::Display for MrError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            MrError::CapacityExceeded {
                round,
                machine,
                kind,
                used,
                capacity,
            } => write!(
                f,
                "round {round}: machine {machine} exceeded {kind} capacity ({used} > {capacity} words)"
            ),
            MrError::AlgorithmFailed { round, reason } => {
                write!(f, "round {round}: algorithm failed: {reason}")
            }
            MrError::BadConfig(msg) => write!(f, "bad configuration: {msg}"),
            MrError::Infeasible(msg) => write!(f, "infeasible instance: {msg}"),
            MrError::Dist(msg) => write!(f, "dist transport: {msg}"),
        }
    }
}

impl std::error::Error for MrError {}

/// A machine's flat state arena outgrew its offsets: the cluster shape
/// puts more than `u32::MAX` items on one machine.
impl From<crate::csr::CsrOverflow> for MrError {
    fn from(e: crate::csr::CsrOverflow) -> Self {
        MrError::BadConfig(format!("per-machine state: {e}"))
    }
}

/// Result alias used throughout the workspace.
pub type MrResult<T> = Result<T, MrError>;

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn display_is_informative() {
        let e = MrError::CapacityExceeded {
            round: 3,
            machine: 7,
            kind: CapacityKind::Inbox,
            used: 100,
            capacity: 50,
        };
        let s = e.to_string();
        assert!(s.contains("round 3"));
        assert!(s.contains("machine 7"));
        assert!(s.contains("inbox"));
        assert!(s.contains("100"));

        let e = MrError::AlgorithmFailed {
            round: 1,
            reason: "|U'| > 6eta".into(),
        };
        assert!(e.to_string().contains("|U'| > 6eta"));
    }
}
