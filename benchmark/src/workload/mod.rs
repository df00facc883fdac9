//! The four end-to-end workloads. Each runs in a process of its own and
//! measures the repository's *default* configuration: no workload names a
//! scheduler mode, because the default is what ROADMAP item 1 will change.

use std::path::PathBuf;

use crate::probes::Probes;
use crate::report::Report;
use crate::trace::Tracer;

pub mod fig3;
pub mod scale;
pub mod whatif;

#[derive(Debug, Clone, Copy)]
pub enum Workload {
    Fig3,
    Scale,
    WhatIf(&'static whatif::WhatIf),
}

impl Workload {
    pub fn by_name(name: &str) -> Option<Self> {
        [
            (fig3::NAME, Workload::Fig3),
            (scale::NAME, Workload::Scale),
            (whatif::REPLAY_1K.name, Workload::WhatIf(&whatif::REPLAY_1K)),
            (
                whatif::ANALYTIC_10K.name,
                Workload::WhatIf(&whatif::ANALYTIC_10K),
            ),
        ]
        .into_iter()
        .find_map(|(n, w)| (n == name).then_some(w))
    }

    /// Measures the end-to-end metrics, tracing off.
    pub fn run(self, opts: &Opts, report: &mut Report) {
        match self {
            Workload::Fig3 => fig3::run(opts, report),
            Workload::Scale => scale::run(opts, report),
            Workload::WhatIf(w) => whatif::run(w, opts, report),
        }
    }

    /// Runs the workload once under spans and prints its estimated budget.
    pub fn run_traced(self, opts: &Opts, report: &mut Report, probes: &Probes) -> Tracer {
        match self {
            Workload::Fig3 => fig3::run_traced(opts, report, probes),
            Workload::Scale => scale::run_traced(opts, report, probes),
            Workload::WhatIf(w) => whatif::run_traced(w, opts, report, probes),
        }
    }
}

#[derive(Debug, Clone)]
pub struct Opts {
    pub seed: u64,
    /// How long the timed section measures, host seconds.
    pub seconds: f64,
    pub trace: bool,
    /// Reduced counts, same checks (`run.sh --smoke`).
    pub smoke: bool,
    /// Where sweep artifacts and trace files go; inside the checkout.
    pub out_dir: PathBuf,
}

impl Opts {
    /// How long the timed section may keep starting ops; a smoke run stops
    /// at each workload's minimum count.
    pub fn timed_seconds(&self) -> f64 {
        if self.smoke {
            0.0
        } else {
            self.seconds
        }
    }

    /// Set-up runs several times and reports its median: one cold start is
    /// the noisiest number a run produces.
    pub fn setup_reps(&self) -> usize {
        if self.smoke {
            1
        } else {
            3
        }
    }
}

/// An estimated cost budget for one traced pass: probe unit costs times
/// exact counts, measured harness spans, and the unexplained remainder as
/// its own row — so the rows always sum to the measured time.
#[derive(Debug, Default)]
pub struct Budget {
    rows: Vec<(String, f64)>,
}

impl Budget {
    pub fn row(&mut self, label: impl Into<String>, seconds: f64) {
        self.rows.push((label.into(), seconds));
    }

    pub fn print(self, report: &mut Report, what: &str, measured_s: f64) {
        let explained: f64 = self.rows.iter().map(|(_, s)| s).sum();
        report.note(&format!(
            "estimated budget of {what} ({measured_s:.6} s measured):"
        ));
        let rows = self
            .rows
            .into_iter()
            .chain([("unexplained".to_string(), measured_s - explained)]);
        for (label, s) in rows {
            report.note(&format!(
                "  {s:>12.6} s {:>6.1} %  {label}",
                100.0 * s / measured_s
            ));
        }
    }
}
