//! The virtual-time oracle: expected simulated results kept in
//! `benchmark/expected/`, and the checks that turn any mismatch into a
//! failed op. A perf change that alters simulated results must fail the
//! benchmark, not pass it faster.

use numagap_bench::record::RunRecord;

const FIG3: &str = include_str!("../expected/fig3_quick_small.txt");
const SCALE: &str = include_str!("../expected/scale_c64x64.txt");
const WHATIF: &str = include_str!("../expected/whatif_seed0.txt");

/// The simulated ("virtual") fields of one run that must never move.
#[derive(Debug, Clone, PartialEq)]
pub struct Expected {
    pub key: String,
    pub virtual_s: f64,
    pub checksum: f64,
    pub events: u64,
    pub messages: u64,
}

fn data_lines(text: &str) -> impl Iterator<Item = &str> {
    text.lines()
        .map(str::trim)
        .filter(|l| !l.is_empty() && !l.starts_with('#'))
}

fn parse_expected(text: &str) -> Vec<Expected> {
    data_lines(text)
        .map(|line| {
            let f: Vec<&str> = line.split_whitespace().collect();
            assert_eq!(f.len(), 5, "expected/: malformed line '{line}'");
            let num = |i: usize| -> f64 {
                f[i].parse()
                    .unwrap_or_else(|_| panic!("expected/: bad number '{}' in '{line}'", f[i]))
            };
            Expected {
                key: f[0].to_string(),
                virtual_s: num(1),
                checksum: num(2),
                events: num(3) as u64,
                messages: num(4) as u64,
            }
        })
        .collect()
}

/// The 105 cells of the quick/small fig3 sweep, in sweep order.
pub fn fig3_cells() -> Vec<Expected> {
    parse_expected(FIG3)
}

/// The committed 64x64 (4096-rank) scale record.
pub fn scale_c64x64() -> Expected {
    parse_expected(SCALE).remove(0)
}

impl Expected {
    /// Compares bit for bit; the error names the cell and the field.
    pub fn check(
        &self,
        key: &str,
        virtual_s: f64,
        checksum: f64,
        events: u64,
        messages: u64,
    ) -> Result<(), String> {
        let mut wrong = Vec::new();
        if key != self.key {
            wrong.push(format!("key '{key}'"));
        }
        if virtual_s.to_bits() != self.virtual_s.to_bits() {
            wrong.push(format!("virtual_s {virtual_s} != {}", self.virtual_s));
        }
        if checksum.to_bits() != self.checksum.to_bits() {
            wrong.push(format!("checksum {checksum} != {}", self.checksum));
        }
        if events != self.events {
            wrong.push(format!("events {events} != {}", self.events));
        }
        if messages != self.messages {
            wrong.push(format!("messages {messages} != {}", self.messages));
        }
        if wrong.is_empty() {
            Ok(())
        } else {
            Err(format!("cell {}: {}", self.key, wrong.join(", ")))
        }
    }

    pub fn check_record(&self, r: &RunRecord) -> Result<(), String> {
        self.check(
            &r.key,
            r.virtual_s,
            r.checksum,
            r.kernel.events,
            r.kernel.messages,
        )
    }
}

/// One result per expected cell, in sweep order; a missing record fails its
/// cell, and surplus records fail once more.
pub fn check_fig3(expected: &[Expected], records: &[RunRecord]) -> Vec<Result<(), String>> {
    let mut out: Vec<Result<(), String>> = expected
        .iter()
        .enumerate()
        .map(|(i, e)| match records.get(i) {
            Some(r) => e.check_record(r),
            None => Err(format!("cell {}: missing from the sweep output", e.key)),
        })
        .collect();
    if records.len() > expected.len() {
        out.push(Err(format!(
            "sweep wrote {} records, expected {}",
            records.len(),
            expected.len()
        )));
    }
    out
}

/// FNV-1a, 64 bit. Defined here, not borrowed from `numagap-serve`: an
/// oracle must not depend on the code it checks.
pub fn fnv1a(bytes: &[u8]) -> u64 {
    bytes.iter().fold(0xcbf2_9ce4_8422_2325, |h, &b| {
        (h ^ u64::from(b)).wrapping_mul(0x0000_0100_0000_01b3)
    })
}

/// The digest of `workload`'s response body at `--seed 0`.
pub fn whatif_seed0_digest(workload: &str) -> u64 {
    data_lines(WHATIF)
        .find_map(|line| {
            let (name, hex) = line.split_once(' ')?;
            if name != workload {
                return None;
            }
            u64::from_str_radix(hex.trim(), 16).ok()
        })
        .unwrap_or_else(|| panic!("expected/whatif_seed0.txt has no digest for {workload}"))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn committed_oracle_files_parse() {
        let cells = fig3_cells();
        assert_eq!(cells.len(), 105);
        assert_eq!(cells[0].key, "baseline/Water");
        assert_eq!(cells.iter().map(|c| c.events).sum::<u64>(), 434_363);
        let scale = scale_c64x64();
        assert_eq!((scale.events, scale.messages), (36_862, 20_478));
        assert_eq!(scale.virtual_s, 0.15771632);
        whatif_seed0_digest("whatif_replay_1k");
        whatif_seed0_digest("whatif_analytic_10k");
    }

    #[test]
    fn a_mismatch_names_the_cell_and_the_field() {
        let e = scale_c64x64();
        assert_eq!(
            e.check("c64x64", 0.15771632, 34418467026.94399, 36_862, 20_478),
            Ok(())
        );
        let err = e
            .check("c64x64", 0.15771633, 34418467026.94399, 36_862, 20_479)
            .unwrap_err();
        assert!(err.contains("cell c64x64"), "{err}");
        assert!(
            err.contains("virtual_s") && err.contains("messages"),
            "{err}"
        );
        assert!(!err.contains("checksum"), "{err}");
    }

    #[test]
    fn fnv1a_matches_the_reference_vectors() {
        assert_eq!(fnv1a(b""), 0xcbf2_9ce4_8422_2325);
        assert_eq!(fnv1a(b"a"), 0xaf63_dc4c_8601_ec8c);
    }
}
