//! Runtime-level protocol lints.
//!
//! Some defects are invisible to the kernel event stream because they live
//! in runtime abstractions: a combining buffer dropped with items still
//! queued sends nothing (so no observer event exists to flag), and barrier
//! epoch skew is only meaningful when compared *across* ranks after the run.
//!
//! Each simulated process gets a sink, armed by [`crate::Machine`] around
//! the rank entry function. Runtime primitives report into it from their
//! `Drop` impls, which have no context to reach it through, so the sinks
//! live in a thread-local table keyed by the rank the simulator says is
//! running ([`numagap_sim::current_rank`]): ranks that share one thread as
//! fibers each see their own entry. The records come back per rank in
//! [`crate::RunReport::rank_lints`], where `numagap-analysis` turns them
//! into diagnostics.

use std::cell::RefCell;
use std::collections::BTreeMap;
use std::fmt;

use numagap_sim::{current_rank, Tag};

/// One runtime lint observation on one rank.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum LintRecord {
    /// A combining buffer was dropped while still holding unsent items.
    UnflushedCombiner {
        /// The tag batches would have been delivered under.
        data_tag: Tag,
        /// Items lost in the buffer.
        buffered: usize,
    },
    /// Final generation a [`crate::Barrier`] reached on this rank; compared
    /// across ranks to detect epoch mismatches.
    BarrierGeneration {
        /// The barrier id.
        id: u32,
        /// Generations completed when the barrier was dropped.
        generation: u64,
    },
    /// The reliable transport still held received-but-never-consumed
    /// messages when the rank finished: the application exited without
    /// receiving everything its peers sent it.
    TransportUndelivered {
        /// Messages left in the transport's delivery buffer and
        /// reorder stash.
        buffered: usize,
    },
}

impl fmt::Display for LintRecord {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            LintRecord::UnflushedCombiner { data_tag, buffered } => write!(
                f,
                "combiner for tag {data_tag} dropped with {buffered} unflushed item(s)"
            ),
            LintRecord::BarrierGeneration { id, generation } => {
                write!(f, "barrier {id} finished at generation {generation}")
            }
            LintRecord::TransportUndelivered { buffered } => write!(
                f,
                "rank finished with {buffered} transport-delivered message(s) never received"
            ),
        }
    }
}

thread_local! {
    /// The armed sinks of the ranks running on this thread, by rank (`None`:
    /// code outside any simulated process).
    static SINKS: RefCell<BTreeMap<Option<usize>, Vec<LintRecord>>> =
        const { RefCell::new(BTreeMap::new()) };
}

/// An armed sink; see [`arm`].
pub(crate) struct Armed {
    key: Option<usize>,
    /// The sink this one displaced: a machine run nested inside a rank body
    /// reuses the rank numbers of the run around it.
    outer: Option<Vec<LintRecord>>,
}

/// Arms collection for the current rank until the guard is taken or dropped
/// (a rank that unwinds leaves nothing behind).
pub(crate) fn arm() -> Armed {
    let key = current_rank();
    let outer = SINKS.with(|s| s.borrow_mut().insert(key, Vec::new()));
    Armed { key, outer }
}

impl Armed {
    /// Disarms collection and returns everything recorded since [`arm`].
    pub(crate) fn take(self) -> Vec<LintRecord> {
        SINKS
            .with(|s| s.borrow_mut().remove(&self.key))
            .unwrap_or_default()
    }
}

impl Drop for Armed {
    fn drop(&mut self) {
        SINKS.with(|s| {
            let mut sinks = s.borrow_mut();
            match self.outer.take() {
                Some(outer) => sinks.insert(self.key, outer),
                None => sinks.remove(&self.key),
            };
        });
    }
}

/// Records a lint if collection is armed for the current rank; a no-op
/// otherwise (so runtime types behave normally outside a [`crate::Machine`]
/// run).
pub fn report(record: LintRecord) {
    SINKS.with(|s| {
        if let Some(v) = s.borrow_mut().get_mut(&current_rank()) {
            v.push(record);
        }
    });
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn unarmed_reports_are_dropped() {
        report(LintRecord::BarrierGeneration {
            id: 0,
            generation: 1,
        });
        assert_eq!(arm().take(), Vec::new());
    }

    #[test]
    fn armed_reports_come_back_in_order() {
        let armed = arm();
        report(LintRecord::BarrierGeneration {
            id: 2,
            generation: 5,
        });
        report(LintRecord::UnflushedCombiner {
            data_tag: Tag::app(1),
            buffered: 3,
        });
        let got = armed.take();
        assert_eq!(got.len(), 2);
        assert!(matches!(
            got[0],
            LintRecord::BarrierGeneration { id: 2, .. }
        ));
        // Disarmed after take.
        report(LintRecord::BarrierGeneration {
            id: 0,
            generation: 0,
        });
        assert_eq!(arm().take(), Vec::new());
    }

    #[test]
    fn a_nested_arm_gives_the_outer_sink_back() {
        let generation = |generation| LintRecord::BarrierGeneration { id: 0, generation };
        let outer = arm();
        report(generation(1));
        let inner = arm();
        report(generation(2));
        assert_eq!(inner.take(), vec![generation(2)]);
        report(generation(3));
        // An inner sink dropped without `take` (its rank unwound) restores
        // the outer one just the same.
        drop(arm());
        assert_eq!(outer.take(), vec![generation(1), generation(3)]);
    }

    #[test]
    fn display_is_informative() {
        let s = LintRecord::UnflushedCombiner {
            data_tag: Tag::app(7),
            buffered: 4,
        }
        .to_string();
        assert!(s.contains("tag 7") && s.contains('4'), "{s}");
    }
}
