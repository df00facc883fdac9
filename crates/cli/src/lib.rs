//! # numagap-cli — command-line front end
//!
//! ```text
//! numagap run --app asp --variant opt --clusters 4 --procs 8 \
//!             --latency 10 --bandwidth 1.0 [--scale medium] [--verify] \
//!             [--jitter 0.2] [--trace out.json]
//! numagap suite [machine flags]          # all six apps, the paper's variants
//! numagap check [--app X] [--perturb] [machine flags]  # communication sanitizer
//! numagap audit [--root DIR] [--rules]   # determinism static analysis
//! numagap bench [--target T] [--jobs N]  # run experiments (the only way to)
//! numagap bench --compare OLD NEW        # diff two BENCH_*.json summaries
//! numagap serve [--port P] [--workers N] # batched what-if prediction server
//! numagap info [machine flags]           # print the machine and its gap
//! numagap help
//! ```
//!
//! The argument parser is hand-rolled (the project carries no CLI
//! dependency) and unit-tested; `main` is a thin wrapper. Every flag is one
//! row of the table in `flags.rs`, which `parse` and `numagap help` read;
//! each command reads the rows that name it, and any other flag is a usage
//! error. `parse` fills one `Values` from the rows, and the command's own
//! row of the command table names the function that runs on it. The other
//! modules are one per command, each reading from `Values` what it needs.
//!
//! Exit codes are uniform across commands: `0` clean, [`EXIT_FINDINGS`]
//! when the command ran and found failures (sanitizer diagnostics,
//! checksum mismatches), [`EXIT_ERROR`] for usage or
//! internal errors (bad flags, simulator aborts, I/O failures).

#![warn(missing_docs)]

mod audit;
mod bench;
mod check;
mod flags;
mod machine;
mod predict;
mod run;
mod serve;

pub use check::{check_app, waived};
pub use flags::{parse, section, usage, ParseError};
pub use machine::MachineArgs;

use flags::{CmdSpec, Values};

/// Exit code: the command ran to completion but found failures — sanitizer
/// diagnostics or checksum mismatches.
pub const EXIT_FINDINGS: i32 = 1;
/// Exit code: usage or internal error — unparseable flags, a simulator
/// abort, or an I/O failure.
pub const EXIT_ERROR: i32 = 2;

/// A parsed command line.
#[derive(Debug, Clone)]
pub enum Command {
    /// Print usage.
    Help,
    /// Run a command: its row of the command table, and what its flags set.
    Execute(&'static CmdSpec, Box<Values>),
}

/// Executes a parsed command; returns the process exit code.
pub fn execute(cmd: Command) -> i32 {
    match cmd {
        Command::Help => {
            println!("{}", usage());
            0
        }
        Command::Execute(spec, values) => (spec.execute)(&values),
    }
}

#[cfg(test)]
mod tests;
