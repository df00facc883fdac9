//! Number text in both directions, against `std`: [`json::push_f64`] must
//! append exactly the bytes `format!("{v}")` makes, and
//! [`json::Parser::number`] must read exactly the `f64` `str::parse` reads,
//! with the errors and offsets it reported when it called `str::parse` for
//! every token.
//!
//! The printer is Ryū, which settles every finite input: no case falls back
//! to `fmt`, so there is no fallback to count. A larger sample of the
//! printer is `#[ignore]`d here and run in release:
//! `cargo test --release -p numagap-bench --test number_text -- --ignored`.

use numagap_bench::json::{push_f64, push_u64, JsonError, Parser, MAX_NUMBER_LEN};

/// SplitMix64, so that every sample is a pure function of its seed.
struct Rng(u64);

impl Rng {
    fn next(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    fn below(&mut self, n: u64) -> u64 {
        self.next() % n
    }
}

fn printed(v: f64) -> String {
    let mut out = String::from("prefix ");
    push_f64(&mut out, v);
    out.split_off("prefix ".len())
}

/// Both signs of `v`, through the printer and through `fmt`.
fn assert_prints_as_fmt(v: f64) {
    for v in [v, -v] {
        assert_eq!(printed(v), format!("{v}"), "bits {:#018x}", v.to_bits());
    }
}

#[test]
fn edge_values_print_as_fmt_prints_them() {
    let mut edges = vec![
        0.0,
        f64::from_bits(1),
        f64::from_bits((1 << 52) - 1),
        f64::MIN_POSITIVE,
        f64::MAX,
        f64::EPSILON,
        0.1,
        0.2,
        0.3,
        0.1 + 0.2,
        0.3 - 0.1,
        1.0 - 0.9,
        0.1 * 3.0,
        1.0 / 3.0,
        2.0 / 3.0,
    ];
    // Every power of ten an `f64` comes near, and its two neighbours.
    for e in -323..=308 {
        let p: f64 = format!("1e{e}").parse().unwrap();
        edges.extend([p, p.next_up(), p.next_down()]);
    }
    // Every power of two, where the interval below is half as wide (not
    // below the subnormal ones).
    edges.extend((1..2047).map(|e| f64::from_bits(e << 52)));
    edges.extend((0..52).map(|k| f64::from_bits(1 << k)));
    // Integers around 2^53, where consecutive `f64`s stop being 1 apart.
    let two53 = (1u64 << 53) as f64;
    for k in 0..64 {
        edges.extend([
            two53 + k as f64,
            two53 - k as f64,
            (two53 * 2.0) + 2.0 * k as f64,
        ]);
    }
    // Exact ties between two shortest candidates, which round up: in
    // [2^50, 2^51) n + 1/4 lies midway between n.2 and n.3.
    for k in 0..1000 {
        let n = (1u64 << 50) as f64 + k as f64 * 7919.0;
        edges.extend([n + 0.25, n + 0.75]);
        let m = (1u64 << 47) as f64 + k as f64 * 7919.0;
        edges.extend([0.125, 0.375, 0.625, 0.875].map(|f| m + f));
    }
    assert_eq!(printed((1u64 << 50) as f64 + 0.25), "1125899906842624.3");
    assert_eq!(printed(-0.0), "-0");
    assert_eq!(printed(1e21), "1000000000000000000000");
    assert_eq!(printed(5e-324).len(), "0.".len() + 323 + 1);
    for v in edges {
        assert_prints_as_fmt(v);
    }
}

/// Finite `f64`s with uniformly random bit patterns: every exponent about
/// equally often.
fn assert_random_bits_print_as_fmt(seed: u64, samples: usize) {
    let mut rng = Rng(seed);
    let mut checked = 0;
    while checked < samples {
        let v = f64::from_bits(rng.next());
        if v.is_finite() {
            assert_eq!(printed(v), format!("{v}"), "bits {:#018x}", v.to_bits());
            checked += 1;
        }
    }
}

#[test]
fn a_million_random_bit_patterns_print_as_fmt_prints_them() {
    assert_random_bits_print_as_fmt(0x0005_EED0_FF64, 1_000_000);
}

#[test]
#[ignore = "fifty million samples: a minute in release, far longer in debug"]
fn fifty_million_random_bit_patterns_print_as_fmt_prints_them() {
    assert_random_bits_print_as_fmt(0x00B1_65A3_F1E0, 50_000_000);
}

#[test]
fn integers_print_as_fmt_prints_them() {
    let mut rng = Rng(7);
    let mut values = vec![0, 1, 9, 10, 99, 100, u64::MAX, u64::MAX / 10];
    values.extend((0..100_000).map(|_| rng.next() >> rng.below(64)));
    for v in values {
        let mut out = String::new();
        push_u64(&mut out, v);
        assert_eq!(out, v.to_string());
    }
}

/// `Parser::number` as it was when every token went through `str::parse`,
/// kept as its reference, on a document that starts with the number.
fn number_reference(doc: &str) -> Result<(&str, f64), JsonError> {
    let b = doc.as_bytes();
    let err = |at: usize, msg: String| JsonError { at, msg };
    let mut i = usize::from(b.first() == Some(&b'-'));
    let rest = &b[i..];
    let int = rest.iter().take_while(|c| c.is_ascii_digit()).count();
    let tail = &rest[int..];
    let others = |c: &u8| c.is_ascii_digit() || matches!(c, b'.' | b'e' | b'E' | b'+' | b'-');
    i += int + tail.iter().take_while(|c| others(c)).count();
    if i > MAX_NUMBER_LEN {
        let msg = format!("number longer than {MAX_NUMBER_LEN} bytes");
        return Err(err(MAX_NUMBER_LEN, msg));
    }
    let text = &doc[..i];
    let rfc = int > 0
        && (int == 1 || rest[0] != b'0')
        && (tail.first() != Some(&b'.') || tail.get(1).is_some_and(u8::is_ascii_digit));
    let n: f64 = rfc
        .then(|| text.parse().ok())
        .flatten()
        .ok_or_else(|| err(i, format!("invalid number '{text}'")))?;
    if !n.is_finite() {
        return Err(err(i, format!("number '{text}' does not fit a finite f64")));
    }
    Ok((text, n))
}

/// `n` random digits, the first of them not a zero when `lead` says so.
fn digits(rng: &mut Rng, n: usize, lead: bool) -> String {
    (0..n)
        .map(|k| {
            let low = u64::from(lead && k == 0);
            char::from(b'0' + (low + rng.below(10 - low)) as u8)
        })
        .collect()
}

/// A number token the way some client might spell one, now and then not a
/// JSON number at all.
fn token(rng: &mut Rng) -> String {
    let sign = if rng.below(4) == 0 { "-" } else { "" };
    let body = match rng.below(12) {
        // The benchmark's shape: 4 significant digits, no exponent.
        0..=2 => {
            let x = 10f64.powf(rng.below(1_000_000) as f64 / 1e6 * 5.0 - 2.0);
            let decimals = (3 - x.log10().floor() as i32).max(0) as usize;
            format!("{x:.decimals$}")
        }
        // 15 to 17 significant digits, the point anywhere.
        3 | 4 => {
            let n = 15 + rng.below(3) as usize;
            let mut text = digits(rng, n, true);
            let point = rng.below(n as u64 + 1) as usize;
            if point < n {
                text.insert(point.max(1), '.');
            }
            text
        }
        // Zero-padded: leading zeros after the point, trailing ones.
        5 => {
            let (lead, n, pad) = (rng.below(30), 1 + rng.below(17), rng.below(30));
            let significant = digits(rng, n as usize, true);
            format!(
                "0.{}{significant}{}",
                "0".repeat(lead as usize),
                "0".repeat(pad as usize)
            )
        }
        6 => format!(
            "{}.{}",
            digits(rng, 3, true),
            "0".repeat(rng.below(25) as usize + 1)
        ),
        // Around 2^53, and integers up to 20 digits.
        7 => format!("{}", (1u64 << 53) - 8 + rng.below(16)),
        8 => {
            let n = 1 + rng.below(20);
            digits(rng, n as usize, true)
        }
        // Exponents, subnormal and overflowing among them.
        9 => {
            let e = rng.below(700) as i64 - 350;
            let n = 1 + rng.below(17);
            let mantissa = digits(rng, n as usize, true);
            let mark = ["e", "E", "e+", "E-"][rng.below(4) as usize];
            format!("{}.{}{mark}{e}", &mantissa[..1], &mantissa[1..]).replace(".e", "e")
        }
        10 => {
            let (n, e) = (1 + rng.below(3), 300 + rng.below(30));
            format!("{}e-{e}", digits(rng, n as usize, true))
        }
        // Not JSON: what `str::parse` would take or a scanner would trip on.
        _ => [
            "01", "00.5", "1.", "1.e3", "1e", "1e+", "", "1.5.2", "1-2", "-", ".5", "1e2e3",
        ][rng.below(12) as usize]
            .to_string(),
    };
    format!("{sign}{body}")
}

#[test]
fn a_million_tokens_read_as_str_parse_reads_them() {
    let mut rng = Rng(0x0070_4E45);
    let (mut values, mut errors) = (0, 0);
    let mut tokens: Vec<String> = (0..1_000_000).map(|_| token(&mut rng)).collect();
    tokens.push("9".repeat(MAX_NUMBER_LEN + 1));
    tokens.push(format!("0.{}1", "0".repeat(MAX_NUMBER_LEN - 3)));
    for text in &tokens {
        // What follows a number in a document ends its scan.
        for after in ["", ",", "]"] {
            let doc = format!("{text}{after}");
            let mut p = Parser::new(&doc);
            let got = p.number();
            let want = number_reference(&doc);
            match (&got, &want) {
                (Ok((t, v)), Ok((u, w))) => {
                    assert_eq!((t, v.to_bits()), (u, w.to_bits()), "{doc:?}");
                    assert_eq!(p.offset(), t.len(), "{doc:?}");
                    values += 1;
                }
                _ => {
                    assert_eq!(got, want, "{doc:?}");
                    errors += 1;
                }
            }
        }
    }
    // Both sides are real: neither outcome is rare.
    assert!(
        values > 2_000_000 && errors > 100_000,
        "{values} values, {errors} errors"
    );
}
