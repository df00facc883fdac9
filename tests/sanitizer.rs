//! End-to-end tests of the communication sanitizer: the six-application
//! suite must come out clean (modulo the documented waivers), and injected
//! defects — a wildcard message race, a lost message, a deadlock cycle —
//! must be detected.

use numagap_analysis::{Analysis, DiagnosticKind};
use numagap_apps::{AppId, Scale, SuiteConfig, Variant};
use numagap_cli::{check_app, waived};
use numagap_net::das_spec;
use numagap_rt::Machine;
use numagap_sim::{Filter, SimDuration, Tag, Tracer};
use proptest::prelude::*;

/// The six apps, both variants, on a single-cluster machine and on the
/// paper's wide-area 4x8 (10 ms, 1 MB/s) machine: no unwaived diagnostics.
/// Waivers (see `numagap_cli::waived`) cover only the wildcard-receive
/// patterns the applications use by design, with documented reasons.
#[test]
fn suite_is_sanitizer_clean_on_both_machines() {
    let cfg = SuiteConfig::at(Scale::Small);
    let machines = [
        ("1x8 local", Machine::new(das_spec(1, 8, 10.0, 1.0))),
        ("4x8 wan", Machine::new(das_spec(4, 8, 10.0, 1.0))),
    ];
    for (label, machine) in &machines {
        for app in AppId::ALL {
            for variant in [Variant::Unoptimized, Variant::Optimized] {
                let (diags, run_error) = check_app(app, &cfg, variant, machine);
                assert_eq!(run_error, None, "{app}/{variant} on {label} aborted");
                let unwaived: Vec<_> = diags
                    .iter()
                    .filter(|d| waived(app, variant, d.kind).is_none())
                    .collect();
                assert!(
                    unwaived.is_empty(),
                    "{app}/{variant} on {label}: {unwaived:#?}"
                );
            }
        }
    }
}

/// Two ranks race to satisfy one wildcard receive: the sanitizer must flag
/// it even though the run completes normally.
#[test]
fn injected_wildcard_race_is_detected() {
    let machine = Machine::new(das_spec(1, 3, 10.0, 1.0));
    let mut analysis = Analysis::new(3);
    machine
        .run_observed(
            |ctx| {
                match ctx.rank() {
                    0 => {
                        // Both peers' messages are causally unordered.
                        ctx.recv(Filter::tag(Tag::app(0)));
                        ctx.recv(Filter::tag(Tag::app(0)));
                    }
                    r => ctx.send(0, Tag::app(0), r as u64, 8),
                }
            },
            &mut analysis,
        )
        .unwrap();
    let diags = analysis.diagnostics();
    assert!(
        diags.iter().any(|d| d.kind == DiagnosticKind::MessageRace),
        "expected an injected race to be reported: {diags:?}"
    );
}

/// A message nobody ever receives must be reported at run end.
#[test]
fn injected_lost_message_is_detected() {
    let machine = Machine::new(das_spec(1, 2, 10.0, 1.0));
    let mut analysis = Analysis::new(2);
    machine
        .run_observed(
            |ctx| {
                if ctx.rank() == 0 {
                    ctx.send(1, Tag::app(9), 1u8, 1);
                }
                // Rank 1 exits without receiving.
            },
            &mut analysis,
        )
        .unwrap();
    let diags = analysis.diagnostics();
    assert_eq!(diags.len(), 1, "{diags:?}");
    assert_eq!(diags[0].kind, DiagnosticKind::LostMessage);
    assert_eq!(diags[0].rank, Some(1));
}

/// A receive ring with no sends deadlocks; the error itself must name the
/// wait-for cycle and the sanitizer must decompose it into diagnostics.
#[test]
fn deadlock_error_includes_wait_for_cycle() {
    let n = 4usize;
    let machine = Machine::new(das_spec(1, n, 10.0, 1.0));
    let mut analysis = Analysis::new(n);
    let err = machine
        .run_observed(
            move |ctx| {
                let from = (ctx.rank() + 1) % ctx.nprocs();
                ctx.recv_from(from, Tag::app(0));
            },
            &mut analysis,
        )
        .unwrap_err();
    let rendered = err.to_string();
    assert!(
        rendered.contains("wait-for cycle"),
        "deadlock must render its cycle: {rendered}"
    );
    assert!(rendered.contains("blocked in recv"), "{rendered}");
    let diags = analysis.diagnose_error(&err);
    let deadlock = diags
        .iter()
        .find(|d| d.kind == DiagnosticKind::Deadlock)
        .expect("deadlock diagnostic");
    assert!(
        deadlock.detail.contains("wait-for cycle"),
        "{}",
        deadlock.detail
    );
}

// --- property tests -------------------------------------------------------

proptest! {
    #![proptest_config(ProptestConfig::with_cases(12))]

    /// Whatever the machine shape and payload sizes, injecting two
    /// causally unordered candidate messages for one wildcard receive is
    /// always reported as a race.
    #[test]
    fn prop_injected_race_always_detected(
        procs in 3usize..6,
        latency_ms in 1u32..20,
        bytes in 1u64..4096,
    ) {
        let machine = Machine::new(das_spec(1, procs, f64::from(latency_ms), 1.0));
        let mut analysis = Analysis::new(procs);
        machine
            .run_observed(
                move |ctx| {
                    if ctx.rank() == 0 {
                        for _ in 1..ctx.nprocs() {
                            ctx.recv(Filter::tag(Tag::app(0)));
                        }
                    } else {
                        ctx.send(0, Tag::app(0), ctx.rank() as u64, bytes);
                    }
                },
                &mut analysis,
            )
            .unwrap();
        let diags = analysis.diagnostics();
        prop_assert!(
            diags.iter().any(|d| d.kind == DiagnosticKind::MessageRace),
            "race not detected with procs={} latency={} bytes={}: {:?}",
            procs, latency_ms, bytes, diags
        );
    }

    /// A fully source-addressed ring exchange is race-free by construction
    /// and must stay clean for any shape and message size.
    #[test]
    fn prop_clean_ring_stays_clean(
        procs in 2usize..6,
        rounds in 1usize..4,
        bytes in 1u64..4096,
    ) {
        let machine = Machine::new(das_spec(1, procs, 5.0, 1.0));
        let mut analysis = Analysis::new(procs);
        machine
            .run_observed(
                move |ctx| {
                    let me = ctx.rank();
                    let n = ctx.nprocs();
                    for round in 0..rounds {
                        let tag = Tag::app(round as u32);
                        ctx.send((me + 1) % n, tag, me as u64, bytes);
                        ctx.recv_from((me + n - 1) % n, tag);
                    }
                },
                &mut analysis,
            )
            .unwrap();
        prop_assert_eq!(analysis.diagnostics(), []);
    }
}

// --- Chrome trace JSON ----------------------------------------------------

/// Minimal recursive-descent JSON validator (no JSON crate is available in
/// this workspace): accepts exactly the RFC 8259 grammar, rejects trailing
/// garbage.
fn validate_json(s: &str) -> Result<(), String> {
    struct P<'a> {
        b: &'a [u8],
        i: usize,
    }
    impl P<'_> {
        fn ws(&mut self) {
            while matches!(self.b.get(self.i), Some(b' ' | b'\t' | b'\n' | b'\r')) {
                self.i += 1;
            }
        }
        fn eat(&mut self, c: u8) -> Result<(), String> {
            if self.b.get(self.i) == Some(&c) {
                self.i += 1;
                Ok(())
            } else {
                Err(format!("expected {:?} at byte {}", c as char, self.i))
            }
        }
        fn value(&mut self) -> Result<(), String> {
            self.ws();
            match self.b.get(self.i) {
                Some(b'{') => self.object(),
                Some(b'[') => self.array(),
                Some(b'"') => self.string(),
                Some(b't') => self.lit("true"),
                Some(b'f') => self.lit("false"),
                Some(b'n') => self.lit("null"),
                Some(c) if c.is_ascii_digit() || *c == b'-' => self.number(),
                other => Err(format!("unexpected {other:?} at byte {}", self.i)),
            }
        }
        fn lit(&mut self, word: &str) -> Result<(), String> {
            if self.b[self.i..].starts_with(word.as_bytes()) {
                self.i += word.len();
                Ok(())
            } else {
                Err(format!("bad literal at byte {}", self.i))
            }
        }
        fn number(&mut self) -> Result<(), String> {
            let start = self.i;
            if self.b.get(self.i) == Some(&b'-') {
                self.i += 1;
            }
            while matches!(self.b.get(self.i), Some(c) if c.is_ascii_digit()) {
                self.i += 1;
            }
            if self.b.get(self.i) == Some(&b'.') {
                self.i += 1;
                while matches!(self.b.get(self.i), Some(c) if c.is_ascii_digit()) {
                    self.i += 1;
                }
            }
            if matches!(self.b.get(self.i), Some(b'e' | b'E')) {
                self.i += 1;
                if matches!(self.b.get(self.i), Some(b'+' | b'-')) {
                    self.i += 1;
                }
                while matches!(self.b.get(self.i), Some(c) if c.is_ascii_digit()) {
                    self.i += 1;
                }
            }
            if self.i == start {
                Err(format!("bad number at byte {start}"))
            } else {
                Ok(())
            }
        }
        fn string(&mut self) -> Result<(), String> {
            self.eat(b'"')?;
            loop {
                match self.b.get(self.i) {
                    Some(b'"') => {
                        self.i += 1;
                        return Ok(());
                    }
                    Some(b'\\') => {
                        self.i += 1;
                        match self.b.get(self.i) {
                            Some(b'"' | b'\\' | b'/' | b'b' | b'f' | b'n' | b'r' | b't') => {
                                self.i += 1;
                            }
                            Some(b'u') => {
                                for k in 1..=4 {
                                    if !matches!(self.b.get(self.i + k),
                                                 Some(c) if c.is_ascii_hexdigit())
                                    {
                                        return Err(format!("bad \\u at byte {}", self.i));
                                    }
                                }
                                self.i += 5;
                            }
                            _ => return Err(format!("bad escape at byte {}", self.i)),
                        }
                    }
                    Some(c) if *c < 0x20 => {
                        return Err(format!("raw control char at byte {}", self.i));
                    }
                    Some(_) => self.i += 1,
                    None => return Err("unterminated string".into()),
                }
            }
        }
        fn array(&mut self) -> Result<(), String> {
            self.eat(b'[')?;
            self.ws();
            if self.b.get(self.i) == Some(&b']') {
                self.i += 1;
                return Ok(());
            }
            loop {
                self.value()?;
                self.ws();
                match self.b.get(self.i) {
                    Some(b',') => self.i += 1,
                    Some(b']') => {
                        self.i += 1;
                        return Ok(());
                    }
                    other => return Err(format!("bad array sep {other:?} at {}", self.i)),
                }
            }
        }
        fn object(&mut self) -> Result<(), String> {
            self.eat(b'{')?;
            self.ws();
            if self.b.get(self.i) == Some(&b'}') {
                self.i += 1;
                return Ok(());
            }
            loop {
                self.ws();
                self.string()?;
                self.ws();
                self.eat(b':')?;
                self.value()?;
                self.ws();
                match self.b.get(self.i) {
                    Some(b',') => self.i += 1,
                    Some(b'}') => {
                        self.i += 1;
                        return Ok(());
                    }
                    other => return Err(format!("bad object sep {other:?} at {}", self.i)),
                }
            }
        }
    }
    let mut p = P {
        b: s.as_bytes(),
        i: 0,
    };
    p.value()?;
    p.ws();
    if p.i != p.b.len() {
        return Err(format!("trailing garbage at byte {}", p.i));
    }
    Ok(())
}

/// Traces named after apps with quotes, backslashes, newlines and non-ASCII
/// must still render valid Chrome trace JSON.
#[test]
fn chrome_trace_json_survives_hostile_names() {
    let hostile = [
        "plain",
        "wyścig \"wild\" recv",
        "tabs\tand\nnewlines",
        "路径\\末端 №1",
    ];
    for name in hostile {
        let machine = Machine::new(das_spec(2, 2, 1.0, 1.0));
        let mut tracer = Tracer::new(4);
        machine
            .run_observed(
                |ctx| {
                    if ctx.rank() == 0 {
                        ctx.send(3, Tag::app(0), 5u8, 1);
                    }
                    if ctx.rank() == 3 {
                        ctx.recv_tag(Tag::app(0));
                    }
                    ctx.compute(SimDuration::from_micros(10));
                },
                &mut tracer,
            )
            .unwrap();
        let mut trace = tracer.finish();
        trace.set_name(name);
        let json = trace.to_chrome_json();
        validate_json(&json).unwrap_or_else(|e| panic!("invalid JSON for {name:?}: {e}\n{json}"));
        assert!(json.contains("process_name"), "{json}");
    }
}

/// The validator itself must reject malformed documents (otherwise the test
/// above proves nothing).
#[test]
fn json_validator_rejects_garbage() {
    for bad in [
        "",
        "{",
        "[1,]",
        "{\"a\":}",
        "\"unterminated",
        "[1] trailing",
        "{\"a\" 1}",
        "\"bad\\q escape\"",
        "\"raw\ncontrol\"",
    ] {
        assert!(validate_json(bad).is_err(), "accepted: {bad:?}");
    }
    for good in ["[]", "{}", "[1.5e-3, \"x\", null, {\"k\": [true, false]}]"] {
        validate_json(good).unwrap_or_else(|e| panic!("rejected {good:?}: {e}"));
    }
}
