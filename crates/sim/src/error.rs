//! Error types for simulation runs.

use std::error::Error;
use std::fmt;

use crate::message::{Filter, Tag, TagFilter};
use crate::time::SimTime;

/// A message sitting unconsumed in a mailbox, summarized for diagnostics.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct PendingMessage {
    /// Kernel-assigned message sequence number.
    pub seq: u64,
    /// Sender rank.
    pub src: usize,
    /// Message tag.
    pub tag: Tag,
    /// Declared wire bytes.
    pub wire_bytes: u64,
}

impl fmt::Display for PendingMessage {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "#{} from rank {} tag {} ({} B)",
            self.seq, self.src, self.tag, self.wire_bytes
        )
    }
}

/// Renders a receive filter compactly, e.g. `src=3 tag=internal+5`.
pub fn format_filter(filter: &Filter) -> String {
    let src = match filter.src {
        Some(p) => format!("src={}", p.0),
        None => "src=*".to_string(),
    };
    let tag = match &filter.tag {
        TagFilter::Any => "tag=*".to_string(),
        TagFilter::One(t) => format!("tag={t}"),
        TagFilter::Set(ts) => format!(
            "tag in {{{}}}",
            ts.as_slice()
                .iter()
                .map(|t| t.to_string())
                .collect::<Vec<_>>()
                .join(", ")
        ),
    };
    format!("{src} {tag}")
}

/// Why a process was idle when the simulation ground to a halt.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum WaitState {
    /// Blocked in `recv`; carries the posted filter and a snapshot of the
    /// messages sitting in the mailbox that the filter did *not* match.
    BlockedInRecv {
        /// The filter the process is waiting on.
        filter: Filter,
        /// Unconsumed mailbox contents at the time of the halt.
        mailbox: Vec<PendingMessage>,
    },
    /// Runnable (has a pending wake); never present in a true deadlock.
    Idle,
    /// Already exited normally.
    Exited,
}

impl fmt::Display for WaitState {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            WaitState::BlockedInRecv { filter, mailbox } => {
                write!(f, "blocked in recv({})", format_filter(filter))?;
                if mailbox.is_empty() {
                    write!(f, ", mailbox empty")
                } else {
                    write!(f, ", mailbox holds ")?;
                    for (i, m) in mailbox.iter().enumerate() {
                        if i > 0 {
                            write!(f, "; ")?;
                        }
                        write!(f, "{m}")?;
                    }
                    Ok(())
                }
            }
            WaitState::Idle => write!(f, "idle"),
            WaitState::Exited => write!(f, "exited"),
        }
    }
}

/// Why a rank failed to produce a result.
///
/// Carried in its [`crate::RunOutcome::results`] slot so a mid-run panic
/// yields a per-rank diagnostic instead of shifting its peers' results.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ProcFailure {
    /// Rank of the failed process.
    pub rank: usize,
    /// Rendered panic payload (or a placeholder for non-string payloads).
    pub message: String,
}

impl fmt::Display for ProcFailure {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "rank {} panicked: {}", self.rank, self.message)
    }
}

impl Error for ProcFailure {}

/// An error that aborted a simulation run.
#[derive(Debug)]
pub enum SimError {
    /// Every live process is blocked in `recv` and no events remain: the
    /// simulated program has deadlocked. Contains `(rank, wait state)` for
    /// every process and, when the blocked receives name specific senders,
    /// the cycle of the wait-for graph that closed the deadlock.
    Deadlock {
        /// Virtual time at which progress stopped.
        at: SimTime,
        /// Per-rank wait state.
        procs: Vec<(usize, WaitState)>,
        /// A cycle `r0 -> r1 -> .. -> r0` in the wait-for graph (each rank
        /// blocked on a message from the next), if one exists. Empty when
        /// the deadlock involves wildcard receives with no cyclic structure
        /// (e.g. everyone waiting on a message nobody sends).
        cycle: Vec<usize>,
    },
    /// The configured virtual-time limit was exceeded.
    TimeLimit {
        /// The limit that was hit.
        limit: SimTime,
    },
    /// A simulated process panicked; carries the rank and the panic message.
    ProcessPanicked {
        /// Rank of the panicking process.
        rank: usize,
        /// Rendered panic payload.
        message: String,
    },
}

impl fmt::Display for SimError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            SimError::Deadlock { at, procs, cycle } => {
                writeln!(f, "simulation deadlocked at {at}; process states:")?;
                for (rank, state) in procs {
                    writeln!(f, "  rank {rank}: {state}")?;
                }
                if !cycle.is_empty() {
                    let chain = cycle
                        .iter()
                        .chain(cycle.first())
                        .map(|r| format!("rank {r}"))
                        .collect::<Vec<_>>()
                        .join(" -> ");
                    writeln!(f, "wait-for cycle: {chain}")?;
                }
                Ok(())
            }
            SimError::TimeLimit { limit } => {
                write!(f, "virtual time limit of {limit} exceeded")
            }
            SimError::ProcessPanicked { rank, message } => {
                write!(f, "simulated process at rank {rank} panicked: {message}")
            }
        }
    }
}

impl Error for SimError {}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::ProcId;

    #[test]
    fn deadlock_display_lists_processes_and_cycle() {
        let e = SimError::Deadlock {
            at: SimTime::from_nanos(1_000),
            procs: vec![
                (
                    0,
                    WaitState::BlockedInRecv {
                        filter: Filter::tag(Tag::app(3)).from(ProcId(1)),
                        mailbox: vec![PendingMessage {
                            seq: 7,
                            src: 2,
                            tag: Tag::app(9),
                            wire_bytes: 128,
                        }],
                    },
                ),
                (1, WaitState::Exited),
            ],
            cycle: vec![0, 1],
        };
        let s = e.to_string();
        assert!(s.contains("rank 0: blocked in recv(src=1 tag=3)"), "{s}");
        assert!(
            s.contains("mailbox holds #7 from rank 2 tag 9 (128 B)"),
            "{s}"
        );
        assert!(s.contains("rank 1: exited"), "{s}");
        assert!(
            s.contains("wait-for cycle: rank 0 -> rank 1 -> rank 0"),
            "{s}"
        );
    }

    #[test]
    fn filter_formatting_covers_wildcards_and_sets() {
        assert_eq!(format_filter(&Filter::any()), "src=* tag=*");
        assert_eq!(
            format_filter(&Filter::one_of(&[Tag::app(1), Tag::app(2)])),
            "src=* tag in {1, 2}"
        );
    }

    #[test]
    fn panic_display_carries_message() {
        let e = SimError::ProcessPanicked {
            rank: 5,
            message: "boom".into(),
        };
        assert!(e.to_string().contains("rank 5"));
        assert!(e.to_string().contains("boom"));
    }

    #[test]
    fn time_limit_display() {
        let e = SimError::TimeLimit {
            limit: SimTime::from_nanos(5),
        };
        assert!(e.to_string().contains("limit"));
    }
}
