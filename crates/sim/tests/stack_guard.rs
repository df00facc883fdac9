//! A rank that overflows its stack faults instead of writing past it.
//!
//! Every fiber stack is a mapping of its own with a `PROT_NONE` guard page
//! right below it, so a rank body that recurses past the end of its stack
//! ends the process with `SIGSEGV` at the first byte beyond it. The
//! overflowing run happens in a child process (this test binary, re-run with
//! [`CHILD`] set) so that the fault does not take the test harness down with
//! it. An unguarded stack often dies by `SIGSEGV` too, later, once the
//! overrun has corrupted something, so the rank that fits also reads
//! `/proc/self/maps` and finds the guard page under its own stack.
#![cfg(all(target_arch = "x86_64", target_os = "linux"))]

use std::hint::black_box;
use std::os::unix::process::ExitStatusExt;
use std::process::Command;

use numagap_sim::{IdealNetwork, RunOutcome, Sim, SimDuration, SimError};

/// Set in the child's environment: the child runs the overflowing rank.
const CHILD: &str = "NUMAGAP_STACK_GUARD_CHILD";
const SIGSEGV: i32 = 11;
const STACK_BYTES: usize = 64 * 1024;

/// Recurses, half a kilobyte of frame per level, until a frame lies `reach`
/// bytes below `top`; returns the number of levels.
fn descend(top: usize, reach: usize) -> u64 {
    let frame = black_box([1u8; 512]);
    if top - frame.as_ptr() as usize >= reach {
        return u64::from(frame[0]);
    }
    descend(top, reach) + u64::from(frame[511])
}

/// The length of the mapping that holds `addr`, if the mapping right below
/// it is a single `PROT_NONE` page.
fn guarded_mapping_len(addr: usize) -> Option<usize> {
    let maps = std::fs::read_to_string("/proc/self/maps").expect("procfs is mounted");
    let mappings: Vec<(usize, usize, bool)> = maps
        .lines()
        .map(|line| {
            let mut fields = line.split_whitespace();
            let (range, perms) = (fields.next().unwrap(), fields.next().unwrap());
            let (lo, hi) = range.split_once('-').unwrap();
            let hex = |s| usize::from_str_radix(s, 16).unwrap();
            (hex(lo), hex(hi), perms.starts_with("---"))
        })
        .collect();
    let &(lo, hi, _) = mappings
        .iter()
        .find(|(lo, hi, _)| (*lo..*hi).contains(&addr))?;
    let guarded = mappings
        .iter()
        .any(|&(g_lo, g_hi, none)| none && g_hi == lo && g_hi - g_lo == 4096);
    guarded.then_some(hi - lo)
}

/// One rank on a 64 KiB stack, recursing until its frames reach `reach`
/// bytes below its body's first local; the rank returns the levels and the
/// [`guarded_mapping_len`] of its stack.
fn run_rank_descending(reach: usize) -> Result<RunOutcome<IdealNetwork>, SimError> {
    let mut sim = Sim::new(IdealNetwork::new(1, SimDuration::from_micros(1)));
    sim.stack_size(STACK_BYTES);
    sim.spawn(move |_ctx| {
        let top = black_box(0u8);
        let top = &top as *const u8 as usize;
        (descend(top, reach), guarded_mapping_len(top))
    });
    sim.run()
}

#[test]
fn a_rank_that_recurses_past_its_stack_dies_by_sigsegv() {
    let exe = std::env::current_exe().expect("the test binary knows its path");
    let child = Command::new(exe)
        .args(["--exact", "overflowing_rank", "--nocapture"])
        .env(CHILD, "1")
        .output()
        .expect("the test binary re-runs as a child");
    assert_eq!(
        child.status.signal(),
        Some(SIGSEGV),
        "the overflowing child ended with {:?}; stderr:\n{}",
        child.status,
        String::from_utf8_lossy(&child.stderr)
    );
}

/// The child's half of the test above; does nothing unless [`CHILD`] is set.
#[test]
fn overflowing_rank() {
    if std::env::var_os(CHILD).is_some() {
        // The whole stack and a kilobyte more: faults at the guard page.
        let _ = run_rank_descending(STACK_BYTES + 1024);
    }
}

#[test]
fn a_rank_whose_recursion_fits_finishes_on_a_guarded_stack() {
    let out = run_rank_descending(STACK_BYTES / 2).expect("half the stack fits");
    let &(levels, stack_len) = out.results[0]
        .as_ref()
        .expect("the rank finished")
        .downcast_ref::<(u64, Option<usize>)>()
        .expect("the rank returns its levels and its stack");
    assert!(levels > 16, "{levels} levels");
    assert_eq!(
        stack_len,
        Some(STACK_BYTES),
        "the stack's own mapping, guarded"
    );
}
