//! A minimal JSON value, writer and parser for the benchmark pipeline.
//!
//! The workspace carries no serialization dependency, so `BENCH_*.json`
//! summaries are written and read through this hand-rolled module — the
//! same approach the tracing layer takes for Chrome trace JSON. The subset
//! implemented is full JSON minus non-finite numbers (which never occur in
//! bench records).
//!
//! The module owns number text in both directions. [`Parser::number`] reads
//! a token's value during its digit scan when that is exact (Clinger's fast
//! path) and asks `str::parse` otherwise; [`push_f64`] and [`push_u64`]
//! print numbers with the bytes `{}` would, without `fmt` (the what-if
//! service prints 10 000 floats per response through them).
//!
//! Since `numagap serve` feeds this parser raw network bytes, it is
//! hardened for untrusted input: nesting is capped at [`MAX_DEPTH`] (the
//! recursive-descent parser would otherwise overflow the stack), number
//! tokens are capped at [`MAX_NUMBER_LEN`] bytes, and numbers that do not
//! fit a finite `f64` (e.g. `1e400`) are rejected. Every violation is a
//! typed [`JsonError`] with a byte offset — never a panic.

use std::fmt::{self, Write as _};

mod shortest;

/// Maximum container nesting depth accepted by [`parse`]. Hand-written
/// bench artifacts nest 3 deep; 128 leaves generous headroom while keeping
/// adversarial documents (`[[[[…`) from exhausting the parser's stack.
pub const MAX_DEPTH: usize = 128;

/// Maximum accepted length of one number token, in bytes. The workspace's
/// writers print floats the way `{}` does ([`push_f64`] or `{}` itself:
/// plain decimal, never scientific), so a legitimate token can be long:
/// `f64::MAX` is 309 digits and the smallest denormal about 342
/// characters. 512 covers every finite `f64` spelling the workspace emits
/// while bounding what an adversarial document can make the scanner chew
/// on.
pub const MAX_NUMBER_LEN: usize = 512;

/// 10^0 ..= 10^22: every power of ten an `f64` holds exactly.
const EXACT_POW10: [f64; 23] = [
    1e0, 1e1, 1e2, 1e3, 1e4, 1e5, 1e6, 1e7, 1e8, 1e9, 1e10, 1e11, 1e12, 1e13, 1e14, 1e15, 1e16,
    1e17, 1e18, 1e19, 1e20, 1e21, 1e22,
];

/// "00" to "99", for printing two digits a step.
const DIGIT_PAIRS: [u8; 200] = {
    let mut t = [0; 200];
    let mut i = 0;
    while i < 200 {
        t[i] = b'0' + (i / 20) as u8;
        t[i + 1] = b'0' + (i / 2 % 10) as u8;
        i += 2;
    }
    t
};

/// `v` in decimal, written at the end of `buf`.
fn decimal(mut v: u64, buf: &mut [u8; 20]) -> &str {
    let mut at = buf.len();
    while v >= 100 {
        let pair = 2 * (v % 100) as usize;
        v /= 100;
        at -= 2;
        buf[at..at + 2].copy_from_slice(&DIGIT_PAIRS[pair..pair + 2]);
    }
    if v >= 10 {
        at -= 2;
        buf[at..at + 2].copy_from_slice(&DIGIT_PAIRS[2 * v as usize..][..2]);
    } else {
        at -= 1;
        buf[at] = b'0' + v as u8;
    }
    // SAFETY: `buf[at..]` holds only the ASCII digits written above, and
    // ASCII is UTF-8. (Checking them again was a tenth of `push_f64`.)
    unsafe { std::str::from_utf8_unchecked(&buf[at..]) }
}

/// A parsed JSON value.
#[derive(Debug, Clone, PartialEq)]
pub enum Json {
    /// `null`.
    Null,
    /// `true` / `false`.
    Bool(bool),
    /// Any number. Stored as `f64`; integers round-trip exactly up to
    /// 2^53, far above any counter the harness records.
    Num(f64),
    /// A string.
    Str(String),
    /// An array.
    Arr(Vec<Json>),
    /// An object, in insertion order.
    Obj(Vec<(String, Json)>),
}

impl Json {
    /// Member lookup on an object; `None` on missing key or non-object.
    pub fn get(&self, key: &str) -> Option<&Json> {
        match self {
            Json::Obj(members) => members.iter().find(|(k, _)| k == key).map(|(_, v)| v),
            _ => None,
        }
    }

    /// The number, if this is one.
    pub fn as_f64(&self) -> Option<f64> {
        match self {
            Json::Num(n) => Some(*n),
            _ => None,
        }
    }

    /// The number as an unsigned integer, if it is one no larger than 2^53:
    /// past that an `f64` no longer holds every integer (and `as u64`
    /// would saturate `1e300` to `u64::MAX`), so it is not one this type
    /// can vouch for.
    pub fn as_u64(&self) -> Option<u64> {
        const MAX_EXACT: f64 = (1u64 << 53) as f64;
        match self {
            Json::Num(n) if (0.0..=MAX_EXACT).contains(n) && n.fract() == 0.0 => Some(*n as u64),
            _ => None,
        }
    }

    /// The string, if this is one.
    pub fn as_str(&self) -> Option<&str> {
        match self {
            Json::Str(s) => Some(s),
            _ => None,
        }
    }

    /// The bool, if this is one.
    pub fn as_bool(&self) -> Option<bool> {
        match self {
            Json::Bool(b) => Some(*b),
            _ => None,
        }
    }

    /// The elements, if this is an array.
    pub fn as_array(&self) -> Option<&[Json]> {
        match self {
            Json::Arr(items) => Some(items),
            _ => None,
        }
    }
}

/// Escapes a string for embedding in JSON (quotes not included).
pub fn escape(s: &str) -> String {
    let mut out = String::with_capacity(s.len());
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '\r' => out.push_str("\\r"),
            '\t' => out.push_str("\\t"),
            c if (c as u32) < 0x20 => out.push_str(&format!("\\u{:04x}", c as u32)),
            c => out.push(c),
        }
    }
    out
}

/// Appends `v` in decimal.
pub fn push_u64(out: &mut String, v: u64) {
    out.push_str(decimal(v, &mut [0; 20]));
}

/// Appends `v` as `write!(out, "{v}")` would: the fewest digits that read
/// back as `v` (of those, the closest to it), in positional notation, with
/// no `.0` on an integer and `-0` for negative zero. A finite `v` is all a
/// JSON document can hold; a non-finite one is printed by `fmt`.
pub fn push_f64(out: &mut String, v: f64) {
    if !v.is_finite() {
        debug_assert!(false, "{v} is not a JSON number");
        let _ = write!(out, "{v}");
        return;
    }
    if v.is_sign_negative() {
        out.push('-');
    }
    if v == 0.0 {
        out.push('0');
        return;
    }
    let (digits, exp) = shortest::shortest(v.abs());
    let mut buf = [0; 20];
    let digits = decimal(digits, &mut buf);
    let n = digits.len() as i32;
    let zeros = |out: &mut String, n: i32| (0..n).for_each(|_| out.push('0'));
    // How many of the digits stand before the point.
    match n + exp {
        int @ 1.. if int < n => {
            let (whole, fraction) = digits.split_at(int as usize);
            out.push_str(whole);
            out.push('.');
            out.push_str(fraction);
        }
        int @ ..=0 => {
            out.push_str("0.");
            zeros(out, -int);
            out.push_str(digits);
        }
        _ => {
            out.push_str(digits);
            zeros(out, exp);
        }
    }
}

/// A parse failure: byte offset and message.
#[derive(Debug, Clone, PartialEq)]
pub struct JsonError {
    /// Byte offset of the failure in the input.
    pub at: usize,
    /// Human-readable description.
    pub msg: String,
}

impl fmt::Display for JsonError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "invalid JSON at byte {}: {}", self.at, self.msg)
    }
}

impl std::error::Error for JsonError {}

/// Parses a complete JSON document.
///
/// # Errors
///
/// Returns a [`JsonError`] with the byte offset of the first violation —
/// including trailing garbage after an otherwise valid document.
pub fn parse(input: &str) -> Result<Json, JsonError> {
    let mut p = Parser::new(input);
    let v = p.value()?;
    p.finish()?;
    Ok(v)
}

/// The pull parser [`parse`] is made of, for a caller that wants part of a
/// document as something other than a [`Json`] tree (the what-if service
/// reads 10 000 points straight into a vector). Between steps it rests on
/// the first byte of a value, which the caller consumes with exactly one of
/// [`Parser::value`], [`Parser::number`], [`Parser::members`] or
/// [`Parser::elements`]; every error is the one `parse` reports for the
/// same document.
#[derive(Debug)]
pub struct Parser<'a> {
    /// The input; `b` is the same bytes, for scanning.
    src: &'a str,
    b: &'a [u8],
    i: usize,
    /// Current container nesting depth, bounded by [`MAX_DEPTH`].
    depth: usize,
}

impl<'a> Parser<'a> {
    /// A parser resting on the document's first value.
    pub fn new(input: &'a str) -> Self {
        let mut p = Parser {
            src: input,
            b: input.as_bytes(),
            i: 0,
            depth: 0,
        };
        p.skip_ws();
        p
    }

    /// The byte at the parser's position (`None` at the end of the input).
    pub fn peek(&self) -> Option<u8> {
        self.b.get(self.i).copied()
    }

    /// The parser's position, in bytes of the input.
    pub fn offset(&self) -> usize {
        self.i
    }

    /// Ends the document: only whitespace may follow what was consumed.
    pub fn finish(&mut self) -> Result<(), JsonError> {
        self.skip_ws();
        if self.i != self.b.len() {
            return Err(self.err("trailing characters after document"));
        }
        Ok(())
    }

    fn err(&self, msg: &str) -> JsonError {
        JsonError {
            at: self.i,
            msg: msg.to_string(),
        }
    }

    fn skip_ws(&mut self) {
        while let Some(&c) = self.b.get(self.i) {
            if matches!(c, b' ' | b'\t' | b'\n' | b'\r') {
                self.i += 1;
            } else {
                break;
            }
        }
    }

    fn eat(&mut self, c: u8) -> bool {
        if self.b.get(self.i) == Some(&c) {
            self.i += 1;
            true
        } else {
            false
        }
    }

    fn expect(&mut self, c: u8) -> Result<(), JsonError> {
        if self.eat(c) {
            Ok(())
        } else {
            Err(self.err(&format!("expected '{}'", c as char)))
        }
    }

    fn literal(&mut self, word: &str, v: Json) -> Result<Json, JsonError> {
        if self.b[self.i..].starts_with(word.as_bytes()) {
            self.i += word.len();
            Ok(v)
        } else {
            Err(self.err(&format!("expected '{word}'")))
        }
    }

    /// Consumes the value the parser rests on, as a tree.
    pub fn value(&mut self) -> Result<Json, JsonError> {
        match self.b.get(self.i) {
            None => Err(self.err("unexpected end of input")),
            Some(b'n') => self.literal("null", Json::Null),
            Some(b't') => self.literal("true", Json::Bool(true)),
            Some(b'f') => self.literal("false", Json::Bool(false)),
            Some(b'"') => Ok(Json::Str(self.string()?)),
            Some(b'[') => {
                let mut items = Vec::new();
                self.elements(|p| p.value().map(|item| items.push(item)))?;
                Ok(Json::Arr(items))
            }
            Some(b'{') => {
                let mut members = Vec::new();
                self.members(|p, key| p.value().map(|value| members.push((key, value))))?;
                Ok(Json::Obj(members))
            }
            Some(c) if c.is_ascii_digit() || *c == b'-' => Ok(Json::Num(self.number()?.1)),
            Some(&c) => Err(self.err(&format!("unexpected character '{}'", c as char))),
        }
    }

    fn enter(&mut self) -> Result<(), JsonError> {
        if self.depth >= MAX_DEPTH {
            return Err(self.err(&format!("nesting deeper than {MAX_DEPTH} levels")));
        }
        self.depth += 1;
        Ok(())
    }

    /// `open`, `each` resting on every comma-separated item in turn, `close`.
    fn items(
        &mut self,
        (open, close): (u8, u8),
        mut each: impl FnMut(&mut Self) -> Result<(), JsonError>,
    ) -> Result<(), JsonError> {
        self.expect(open)?;
        self.enter()?;
        self.skip_ws();
        if !self.eat(close) {
            loop {
                self.skip_ws();
                each(self)?;
                self.skip_ws();
                if self.eat(close) {
                    break;
                }
                self.expect(b',')?;
            }
        }
        self.depth -= 1;
        Ok(())
    }

    /// Consumes the array the parser rests on: `each` is called resting on
    /// every element in turn and must consume it.
    pub fn elements(
        &mut self,
        each: impl FnMut(&mut Self) -> Result<(), JsonError>,
    ) -> Result<(), JsonError> {
        self.items((b'[', b']'), each)
    }

    /// Consumes the object the parser rests on: `each` is called with every
    /// key in turn (duplicates too, in document order), resting on the key's
    /// value, and must consume it.
    pub fn members(
        &mut self,
        mut each: impl FnMut(&mut Self, String) -> Result<(), JsonError>,
    ) -> Result<(), JsonError> {
        self.items((b'{', b'}'), |p| {
            let key = p.string()?;
            p.skip_ws();
            p.expect(b':')?;
            p.skip_ws();
            each(p, key)
        })
    }

    fn string(&mut self) -> Result<String, JsonError> {
        self.expect(b'"')?;
        let mut out = String::new();
        loop {
            match self.b.get(self.i) {
                None => return Err(self.err("unterminated string")),
                Some(b'"') => {
                    self.i += 1;
                    return Ok(out);
                }
                Some(b'\\') => {
                    self.i += 1;
                    match self.b.get(self.i) {
                        Some(b'"') => out.push('"'),
                        Some(b'\\') => out.push('\\'),
                        Some(b'/') => out.push('/'),
                        Some(b'b') => out.push('\u{8}'),
                        Some(b'f') => out.push('\u{c}'),
                        Some(b'n') => out.push('\n'),
                        Some(b'r') => out.push('\r'),
                        Some(b't') => out.push('\t'),
                        Some(b'u') => {
                            self.i += 1;
                            let hi = self.hex4()?;
                            let c = if (0xD800..0xDC00).contains(&hi) {
                                // Surrogate pair: require the low half.
                                if !(self.eat(b'\\') && self.eat(b'u')) {
                                    return Err(self.err("lone high surrogate"));
                                }
                                let lo = self.hex4()?;
                                if !(0xDC00..0xE000).contains(&lo) {
                                    return Err(self.err("invalid low surrogate"));
                                }
                                0x10000 + ((hi - 0xD800) << 10) + (lo - 0xDC00)
                            } else {
                                hi
                            };
                            out.push(
                                char::from_u32(c)
                                    .ok_or_else(|| self.err("invalid unicode escape"))?,
                            );
                            // hex4 leaves `i` one past the last digit;
                            // compensate for the += 1 below.
                            self.i -= 1;
                        }
                        _ => return Err(self.err("invalid escape sequence")),
                    }
                    self.i += 1;
                }
                Some(_) => {
                    // Consume the whole run of plain bytes in one step.
                    // `i` sits on a char boundary (everything consumed so
                    // far ended on one) and both delimiters are ASCII, so
                    // the run is a whole number of characters of `src`.
                    let run = self.b[self.i..]
                        .iter()
                        .position(|&c| c == b'"' || c == b'\\')
                        .unwrap_or(self.b.len() - self.i);
                    out.push_str(&self.src[self.i..self.i + run]);
                    self.i += run;
                }
            }
        }
    }

    fn hex4(&mut self) -> Result<u32, JsonError> {
        let end = self.i + 4;
        let digits = self
            .b
            .get(self.i..end)
            .and_then(|d| std::str::from_utf8(d).ok())
            .ok_or_else(|| self.err("truncated \\u escape"))?;
        let v = u32::from_str_radix(digits, 16).map_err(|_| self.err("bad \\u escape"))?;
        self.i = end;
        Ok(v)
    }

    /// Consumes the number the parser rests on: its token as written, and
    /// its value.
    pub fn number(&mut self) -> Result<(&'a str, f64), JsonError> {
        let start = self.i;
        let negative = self.eat(b'-');
        // The integer part and a fraction, their digits read into `m` on the
        // way, then whatever else a number can be made of.
        let rest = &self.b[self.i..];
        let mut m = 0u64;
        let mut digits = |run: &[u8]| {
            let mut n = 0;
            while let Some(c) = run.get(n).filter(|c| c.is_ascii_digit()) {
                m = m.saturating_mul(10).saturating_add(u64::from(c - b'0'));
                n += 1;
            }
            n
        };
        let int = digits(rest);
        let point = rest.get(int) == Some(&b'.');
        let fraction = if point { digits(&rest[int + 1..]) } else { 0 };
        let plain = int + usize::from(point) + fraction;
        let others = |c: &u8| c.is_ascii_digit() || matches!(c, b'.' | b'e' | b'E' | b'+' | b'-');
        let more = rest[plain..].iter().take_while(|c| others(c)).count();
        self.i += plain + more;
        if self.i - start > MAX_NUMBER_LEN {
            self.i = start + MAX_NUMBER_LEN;
            return Err(self.err(&format!("number longer than {MAX_NUMBER_LEN} bytes")));
        }
        // The run is ASCII, so it is whole characters of `src`.
        let text = &self.src[start..self.i];
        // RFC 8259 where `str::parse` is laxer: an integer part (`-.5`) with
        // no leading zero (`01`), and a digit after the point (`1.`, `1.e3`).
        let rfc = int > 0 && (int == 1 || rest[0] != b'0') && (!point || fraction > 0);
        // Clinger's fast path: with no exponent, digits worth at most 2^53
        // (so `m` never saturated) and at most 22 of them after the point,
        // `m` and 10^fraction are exact `f64`s and one correctly rounded
        // division is the token's value.
        let exact = more == 0 && m <= 1 << 53 && fraction <= 22;
        let n: f64 = if rfc && exact {
            let v = m as f64 / EXACT_POW10[fraction];
            if negative {
                -v
            } else {
                v
            }
        } else {
            rfc.then(|| text.parse().ok())
                .flatten()
                .ok_or_else(|| self.err(&format!("invalid number '{text}'")))?
        };
        // `str::parse` saturates huge exponents to infinity; JSON has no
        // non-finite numbers, so an overflowing token is a parse error,
        // not a silent `inf` handed to downstream arithmetic.
        if !n.is_finite() {
            return Err(self.err(&format!("number '{text}' does not fit a finite f64")));
        }
        Ok((text, n))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn parses_scalars() {
        assert_eq!(parse("null").unwrap(), Json::Null);
        assert_eq!(parse(" true ").unwrap(), Json::Bool(true));
        assert_eq!(parse("false").unwrap(), Json::Bool(false));
        assert_eq!(parse("-12.5e2").unwrap(), Json::Num(-1250.0));
        assert_eq!(parse("\"hi\"").unwrap(), Json::Str("hi".into()));
    }

    #[test]
    fn parses_nested_structures() {
        let doc = r#"{"a": [1, 2, {"b": null}], "c": "x\ny", "d": {}}"#;
        let v = parse(doc).unwrap();
        assert_eq!(v.get("a").unwrap().as_array().unwrap().len(), 3);
        assert_eq!(v.get("c").unwrap().as_str(), Some("x\ny"));
        assert_eq!(v.get("d").unwrap(), &Json::Obj(vec![]));
        assert_eq!(v.get("missing"), None);
    }

    #[test]
    fn escapes_round_trip() {
        let nasty = "quote\" slash\\ newline\n tab\t bell\u{7} unicode ✓";
        let doc = format!("\"{}\"", escape(nasty));
        assert_eq!(parse(&doc).unwrap().as_str(), Some(nasty));
    }

    #[test]
    fn surrogate_pairs_decode() {
        assert_eq!(
            parse("\"\\ud83d\\ude00\"").unwrap().as_str(),
            Some("\u{1F600}")
        );
        assert!(parse("\"\\ud83d\"").is_err(), "lone surrogate rejected");
    }

    #[test]
    fn floats_round_trip_exactly() {
        for x in [0.1, 1.0 / 3.0, 123456.789012345, f64::MIN_POSITIVE] {
            let doc = format!("{x}");
            assert_eq!(parse(&doc).unwrap().as_f64(), Some(x));
        }
        let big: u64 = 1 << 53;
        assert_eq!(parse(&format!("{big}")).unwrap().as_u64(), Some(big));
    }

    #[test]
    fn control_characters_round_trip() {
        // Every C0 control character must escape to an ASCII form and
        // parse back to itself.
        let all: String = (0u32..0x20).map(|c| char::from_u32(c).unwrap()).collect();
        let doc = format!("\"{}\"", escape(&all));
        assert!(doc.is_ascii(), "escaped form must stay ASCII: {doc}");
        assert_eq!(parse(&doc).unwrap().as_str(), Some(all.as_str()));
    }

    #[test]
    fn non_ascii_strings_round_trip() {
        for s in [
            "帯域幅と遅延",               // CJK
            "Δλ/Δβ ≤ 0.6",                // Greek + math
            "café naïve",                 // combining-free Latin-1
            "🚀✓\u{1F600}",               // astral-plane emoji
            "mixed ascii + 한국어 + \\n", // literal backslash-n, not a newline
        ] {
            let doc = format!("\"{}\"", escape(s));
            assert_eq!(parse(&doc).unwrap().as_str(), Some(s), "{s:?}");
        }
    }

    #[test]
    fn plain_runs_and_escapes_interleave() {
        // Multi-byte runs with an escape directly before and after them,
        // and back-to-back escapes with no run between.
        for (doc, want) in [
            (r#""\n帯域幅\t""#, "\n帯域幅\t"),
            (r#""é\\é\"é""#, "é\\é\"é"),
            (r#""é🚀\ud83d\ude00✓✓""#, "é🚀\u{1F600}✓✓"),
            (r#""\\\\""#, "\\\\"),
            (r#""a\/b""#, "a/b"),
        ] {
            assert_eq!(parse(doc).unwrap().as_str(), Some(want), "{doc}");
        }
        // An escape error after a multi-byte run reports the byte after
        // the backslash.
        let err = parse(r#""é\x""#).unwrap_err();
        assert_eq!((err.at, err.msg.as_str()), (4, "invalid escape sequence"));
    }

    #[test]
    fn unterminated_strings_report_the_end_of_input() {
        for doc in ["\"ab✓", "\"帯域幅", "{\"k\": \"v🚀"] {
            let err = parse(doc).unwrap_err();
            assert_eq!(
                (err.at, err.msg.as_str()),
                (doc.len(), "unterminated string"),
                "{doc:?}"
            );
        }
        assert_eq!(parse("\"abc").unwrap_err().at, 4);
    }

    #[test]
    fn extreme_numbers_round_trip() {
        let big = (1u64 << 53) as f64;
        for x in [
            big,
            -big,
            -1.0,
            -123456.789012345,
            1e-300,
            -2.5e300,
            f64::MAX,
            f64::MIN,
        ] {
            let doc = format!("{x}");
            assert_eq!(parse(&doc).unwrap().as_f64(), Some(x), "{doc}");
        }
        // Exponent spellings normalise to the same value.
        for (doc, want) in [("1e3", 1000.0), ("1E+3", 1000.0), ("-25e-1", -2.5)] {
            assert_eq!(parse(doc).unwrap().as_f64(), Some(want), "{doc}");
        }
        // Negative or fractional numbers are not integers.
        assert_eq!(parse("-1").unwrap().as_u64(), None);
        assert_eq!(parse("1.5").unwrap().as_u64(), None);
    }

    #[test]
    fn integers_an_f64_cannot_vouch_for_are_not_u64s() {
        let exact: u64 = 1 << 53;
        assert_eq!(parse("9007199254740992").unwrap().as_u64(), Some(exact));
        // `as u64` would turn each of these into 2^53 + 2, 2^64 - 1 (twice).
        for doc in ["9007199254740994", "18446744073709551616", "1e300"] {
            assert_eq!(parse(doc).unwrap().as_u64(), None, "{doc}");
        }
    }

    #[test]
    fn numbers_follow_the_rfc_8259_grammar() {
        for (doc, want) in [
            ("0", 0.0f64),
            ("-0", -0.0),
            ("10", 10.0),
            ("0.30", 0.3),
            ("-0.5", -0.5),
            ("1e1", 10.0),
            ("1E-2", 0.01),
            ("0e0", 0.0),
            ("1.25e+2", 125.0),
            ("123456789012345678901234567890", 1.2345678901234568e29),
        ] {
            let got = parse(doc).unwrap().as_f64().unwrap();
            assert_eq!(got.to_bits(), want.to_bits(), "{doc}");
        }
        // `str::parse` takes the first six.
        for doc in [
            "01", "-01", "00", "1.", "-.5", "1.e3", "1e", "1e+", "-", "1.5.2", "1e2e3", "1-2",
            "--1",
        ] {
            let err = parse(doc).unwrap_err();
            assert_eq!(err.msg, format!("invalid number '{doc}'"));
            assert_eq!(err.at, doc.len(), "{doc}");
        }
        // And a leading `+`, which never reaches the number scanner.
        assert_eq!(parse("+1").unwrap_err().msg, "unexpected character '+'");
    }

    #[test]
    fn committed_documents_are_rfc_8259() {
        // Every JSON file in the repository that is not a bench baseline
        // (`record.rs` loads those): the benchmark's declaration and the
        // what-if fixtures, requests and expected responses.
        let root = std::path::Path::new(env!("CARGO_MANIFEST_DIR")).join("../..");
        let mut files = vec![root.join("BENCHMARK.json")];
        for entry in std::fs::read_dir(root.join("crates/serve/fixtures")).unwrap() {
            files.push(entry.unwrap().path());
        }
        assert!(files.len() >= 7, "{files:?}");
        for path in files {
            let text = std::fs::read_to_string(&path).unwrap();
            parse(&text).unwrap_or_else(|e| panic!("{path:?}: {e}"));
        }
    }

    #[test]
    fn pull_steps_see_what_the_tree_holds() {
        let doc = r#" {"a": [1, 2.50, {"b": null}], "n": -3e2, "a": "again"} "#;
        let mut p = Parser::new(doc);
        assert_eq!(p.peek(), Some(b'{'));
        let (mut keys, mut tokens) = (Vec::new(), Vec::new());
        p.members(|p, key| {
            match (key.as_str(), p.peek()) {
                ("a", Some(b'[')) => p.elements(|p| {
                    if p.peek() == Some(b'{') {
                        assert_eq!(p.value()?, parse(r#"{"b": null}"#).unwrap());
                    } else {
                        let (token, value) = p.number()?;
                        assert_eq!(&doc[p.offset() - token.len()..p.offset()], token);
                        tokens.push((token, value));
                    }
                    Ok(())
                })?,
                ("n", _) => assert_eq!(p.number()?, ("-3e2", -300.0)),
                _ => assert_eq!(p.value()?, Json::Str("again".into())),
            }
            keys.push(key);
            Ok(())
        })
        .unwrap();
        p.finish().unwrap();
        assert_eq!(keys, ["a", "n", "a"]);
        assert_eq!(tokens, [("1", 1.0), ("2.50", 2.5)]);
        // The steps report what `parse` reports, where it reports it.
        for bad in [
            "[1, x]",
            "[1 2]",
            "[1,",
            "[",
            "{\"a\" 1}",
            "{\"a\": 1,}",
            "[1]]",
        ] {
            let mut p = Parser::new(bad);
            let walked = if bad.starts_with('[') {
                p.elements(|p| p.value().map(drop))
            } else {
                p.members(|p, _| p.value().map(drop))
            };
            assert_eq!(
                walked.and_then(|()| p.finish()).unwrap_err(),
                parse(bad).unwrap_err(),
                "{bad}"
            );
        }
    }

    #[test]
    fn rejects_garbage() {
        for bad in ["", "{", "[1,", "nul", "\"", "{\"a\" 1}", "1 2", "{'a':1}"] {
            assert!(parse(bad).is_err(), "{bad:?} must not parse");
        }
        let err = parse("[1, x]").unwrap_err();
        assert!(err.to_string().contains("byte 4"), "{err}");
    }

    #[test]
    fn trailing_garbage_is_a_typed_error() {
        for (doc, tail_at) in [("{} x", 3), ("[1]]", 3), ("1true", 1), ("null,", 4)] {
            let err = parse(doc).unwrap_err();
            assert_eq!(err.at, tail_at, "{doc:?}: {err}");
            assert!(err.msg.contains("trailing"), "{doc:?}: {err}");
        }
    }

    #[test]
    fn nesting_is_capped_not_stack_overflowed() {
        // One level under the cap parses; at the cap it is a typed error.
        let ok = format!("{}null{}", "[".repeat(MAX_DEPTH), "]".repeat(MAX_DEPTH));
        assert!(parse(&ok).is_ok());
        let deep = format!(
            "{}null{}",
            "[".repeat(MAX_DEPTH + 1),
            "]".repeat(MAX_DEPTH + 1)
        );
        let err = parse(&deep).unwrap_err();
        assert!(err.msg.contains("nesting"), "{err}");
        // An adversarial unterminated ramp (the classic parser-killer)
        // fails fast instead of recursing 100k frames deep.
        let ramp = "[".repeat(100_000);
        let err = parse(&ramp).unwrap_err();
        assert!(err.msg.contains("nesting"), "{err}");
        let objs = "{\"a\":".repeat(100_000);
        assert!(parse(&objs).is_err());
        // Mixed nesting counts both container kinds against one cap.
        let mixed = "[{\"k\":".repeat(MAX_DEPTH) + "null";
        assert!(parse(&mixed).unwrap_err().msg.contains("nesting"));
    }

    #[test]
    fn oversized_numbers_are_rejected() {
        // Exponent overflow saturates f64 to infinity; both signs rejected.
        for bad in ["1e400", "-1e400", "1e99999", "-2.5E+308999"] {
            let err = parse(bad).unwrap_err();
            assert!(err.msg.contains("finite"), "{bad}: {err}");
        }
        // Token-length bomb: a number longer than the cap errors instead of
        // scanning unboundedly.
        let long = "1".repeat(MAX_NUMBER_LEN + 1);
        let err = parse(&long).unwrap_err();
        assert!(err.msg.contains("longer"), "{err}");
        // The extremes of f64 still parse: the cap rejects only tokens no
        // finite double can need.
        assert_eq!(
            parse(&format!("{}", f64::MAX)).unwrap().as_f64(),
            Some(f64::MAX)
        );
        assert_eq!(parse("1e308").unwrap().as_f64(), Some(1e308));
        assert_eq!(parse("-4.9e-324").unwrap().as_f64(), Some(-4.9e-324));
    }

    /// Deterministic xorshift for the fuzz-style tests (no external RNG in
    /// the workspace, and tests must reproduce bit-identically).
    fn xorshift(state: &mut u64) -> u64 {
        *state ^= *state << 13;
        *state ^= *state >> 7;
        *state ^= *state << 17;
        *state
    }

    #[test]
    fn malformed_mutations_never_panic() {
        // Byte-level mutations of a valid document: every outcome must be
        // Ok or a typed error — a panic (or non-UTF-8 rejection reached
        // through the &str API) fails the test by unwinding.
        let seed_doc = r#"{"app":"asp","points":[[10.0,0.3],[0.5,6.3]],"mode":"analytic","n":-17}"#;
        let mut state = 0x243F_6A88_85A3_08D3u64;
        for _ in 0..2000 {
            let mut bytes = seed_doc.as_bytes().to_vec();
            let edits = 1 + (xorshift(&mut state) % 4) as usize;
            for _ in 0..edits {
                let pos = (xorshift(&mut state) as usize) % bytes.len();
                match xorshift(&mut state) % 3 {
                    0 => bytes[pos] = (xorshift(&mut state) % 128) as u8,
                    1 => {
                        bytes.remove(pos);
                        if bytes.is_empty() {
                            bytes.push(b'0');
                        }
                    }
                    _ => bytes.insert(pos, (xorshift(&mut state) % 128) as u8),
                }
            }
            if let Ok(s) = std::str::from_utf8(&bytes) {
                let _ = parse(s);
            }
        }
    }

    /// Serializes a [`Json`] value back to text the way the bench writers
    /// do (shortest-round-trip floats, escaped strings).
    fn unparse(v: &Json) -> String {
        match v {
            Json::Null => "null".to_string(),
            Json::Bool(b) => b.to_string(),
            Json::Num(n) => format!("{n}"),
            Json::Str(s) => format!("\"{}\"", escape(s)),
            Json::Arr(items) => {
                let inner: Vec<String> = items.iter().map(unparse).collect();
                format!("[{}]", inner.join(","))
            }
            Json::Obj(members) => {
                let inner: Vec<String> = members
                    .iter()
                    .map(|(k, v)| format!("\"{}\":{}", escape(k), unparse(v)))
                    .collect();
                format!("{{{}}}", inner.join(","))
            }
        }
    }

    /// Builds a pseudo-random document of bounded depth from the seed.
    fn gen_doc(state: &mut u64, depth: usize) -> Json {
        match if depth == 0 {
            xorshift(state) % 4
        } else {
            xorshift(state) % 6
        } {
            0 => Json::Null,
            1 => Json::Bool(xorshift(state).is_multiple_of(2)),
            2 => {
                // Integers and dyadic fractions round-trip exactly through
                // shortest-form printing.
                let n = (xorshift(state) % 2_000_000) as i64 - 1_000_000;
                Json::Num(n as f64 / 64.0)
            }
            3 => {
                let len = xorshift(state) % 12;
                Json::Str(
                    (0..len)
                        .map(|_| char::from_u32((xorshift(state) % 0xD7FF) as u32).unwrap_or('x'))
                        .collect(),
                )
            }
            4 => Json::Arr(
                (0..xorshift(state) % 5)
                    .map(|_| gen_doc(state, depth - 1))
                    .collect(),
            ),
            _ => Json::Obj(
                (0..xorshift(state) % 5)
                    .map(|i| (format!("k{i}"), gen_doc(state, depth - 1)))
                    .collect(),
            ),
        }
    }

    #[test]
    fn generated_documents_round_trip() {
        let mut state = 0x9E37_79B9_7F4A_7C15u64;
        for case in 0..500 {
            let doc = gen_doc(&mut state, 4);
            let text = unparse(&doc);
            let back = parse(&text).unwrap_or_else(|e| panic!("case {case}: {e}\n{text}"));
            assert_eq!(back, doc, "case {case}: {text}");
        }
    }
}
