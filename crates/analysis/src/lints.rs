//! Turns the runtime's per-rank [`LintRecord`]s into diagnostics.
//!
//! The runtime collects these through its thread-local sink (see
//! `numagap_rt::lint`); they cover defects invisible to the kernel event
//! stream — an unflushed combiner sends nothing, and barrier epoch skew only
//! shows when generations are compared across ranks.

use std::collections::BTreeMap;

use numagap_rt::LintRecord;

use crate::diag::{Diagnostic, DiagnosticKind};

/// Checks the `rank_lints` of a `numagap_rt::RunReport`.
///
/// - Every [`LintRecord::UnflushedCombiner`] becomes a
///   [`DiagnosticKind::UnflushedCombiner`] finding on its rank.
/// - [`LintRecord::BarrierGeneration`] records are grouped by barrier id;
///   ranks that report the same id must agree on the (sorted) list of final
///   generations, otherwise a [`DiagnosticKind::BarrierEpochMismatch`] is
///   raised naming the disagreeing ranks.
pub fn check_rank_lints(rank_lints: &[Vec<LintRecord>]) -> Vec<Diagnostic> {
    let mut out = Vec::new();
    // barrier id -> rank -> sorted final generations.
    let mut barriers: BTreeMap<u32, BTreeMap<usize, Vec<u64>>> = BTreeMap::new();

    for (rank, lints) in rank_lints.iter().enumerate() {
        for lint in lints {
            match lint {
                LintRecord::UnflushedCombiner { data_tag, buffered } => {
                    out.push(Diagnostic {
                        kind: DiagnosticKind::UnflushedCombiner,
                        rank: Some(rank),
                        at: None,
                        detail: format!(
                            "combining buffer for tag {data_tag} was dropped with \
                             {buffered} item(s) never sent"
                        ),
                    });
                }
                LintRecord::BarrierGeneration { id, generation } => {
                    barriers
                        .entry(*id)
                        .or_default()
                        .entry(rank)
                        .or_default()
                        .push(*generation);
                }
            }
        }
    }

    for (id, per_rank) in &mut barriers {
        for gens in per_rank.values_mut() {
            gens.sort_unstable();
        }
        let mut groups: Vec<(&Vec<u64>, Vec<usize>)> = Vec::new();
        for (rank, gens) in per_rank.iter() {
            match groups.iter_mut().find(|(g, _)| *g == gens) {
                Some((_, ranks)) => ranks.push(*rank),
                None => groups.push((gens, vec![*rank])),
            }
        }
        if groups.len() > 1 {
            let rendered = groups
                .iter()
                .map(|(gens, ranks)| {
                    let ranks = ranks
                        .iter()
                        .map(ToString::to_string)
                        .collect::<Vec<_>>()
                        .join(",");
                    format!("ranks [{ranks}] reached generation(s) {gens:?}")
                })
                .collect::<Vec<_>>()
                .join("; ");
            out.push(Diagnostic {
                kind: DiagnosticKind::BarrierEpochMismatch,
                rank: None,
                at: None,
                detail: format!(
                    "barrier {id}: ranks disagree on completed generations — {rendered}"
                ),
            });
        }
    }

    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use numagap_sim::Tag;

    #[test]
    fn unflushed_combiner_maps_to_its_rank() {
        let lints = vec![
            vec![],
            vec![LintRecord::UnflushedCombiner {
                data_tag: Tag::app(4),
                buffered: 2,
            }],
        ];
        let diags = check_rank_lints(&lints);
        assert_eq!(diags.len(), 1);
        assert_eq!(diags[0].kind, DiagnosticKind::UnflushedCombiner);
        assert_eq!(diags[0].rank, Some(1));
        assert!(diags[0].detail.contains("tag 4"), "{}", diags[0].detail);
    }

    #[test]
    fn agreeing_barrier_generations_are_clean() {
        let rec = |generation| LintRecord::BarrierGeneration { id: 3, generation };
        let lints = vec![vec![rec(10)], vec![rec(10)], vec![rec(10)]];
        assert!(check_rank_lints(&lints).is_empty());
    }

    #[test]
    fn skewed_barrier_generations_are_flagged() {
        let rec = |id, generation| LintRecord::BarrierGeneration { id, generation };
        let lints = vec![
            vec![rec(0, 5), rec(1, 2)],
            vec![rec(0, 5), rec(1, 2)],
            vec![rec(0, 4), rec(1, 2)],
        ];
        let diags = check_rank_lints(&lints);
        assert_eq!(diags.len(), 1, "{diags:?}");
        assert_eq!(diags[0].kind, DiagnosticKind::BarrierEpochMismatch);
        assert!(diags[0].detail.contains("barrier 0"), "{}", diags[0].detail);
        assert!(diags[0].detail.contains("[0,1]"), "{}", diags[0].detail);
    }

    #[test]
    fn ranks_not_reporting_a_barrier_are_ignored() {
        // Rank 2 never constructed barrier 7; the others agree.
        let rec = |generation| LintRecord::BarrierGeneration { id: 7, generation };
        let lints = vec![vec![rec(1)], vec![rec(1)], vec![]];
        assert!(check_rank_lints(&lints).is_empty());
    }
}
