//! Minimal JSON value type, writer, and parser.
//!
//! The build environment cannot reach crates.io, so the report subsystem
//! hand-rolls the slice of JSON it needs: a value tree with *insertion
//! ordered* objects (the bench schema guarantees stable key order, see
//! `bench/README.md`), a compact and a pretty writer, and a strict
//! recursive-descent parser for reading baselines back, bounded at
//! [`MAX_DEPTH`] levels of nesting so hostile input cannot overflow the
//! stack. Numbers are stored as `f64`; every counter in the schema is far
//! below 2⁵³, so the round-trip is exact.
//!
//! Strings and object keys are [`Cow<'static, str>`](Cow): a key or
//! value known at compile time is borrowed, so building a tree of
//! literal keys allocates only its vectors; the parser yields owned
//! text. The writers allocate nothing but the output: indentation is
//! copied from a constant run of spaces, integers are printed through a
//! stack buffer, and each unescaped run of a string is copied whole.
//!
//! A finite number prints by one of three routes. A whole number below
//! 9·10¹⁵ prints as an integer (`-0` as `0`). An exact thousandth, the
//! `f64` nearest to `m / 1000` for an integer `m` with `|x| < 2^43`
//! (every microsecond timestamp of a trace export), prints the digits
//! of `m / 1000` directly, which are the bytes `format!("{x}")` gives.
//! Everything else goes through `{x}`. A non-finite number prints as
//! `null`.
//!
//! The crate's other writers reuse these pieces: the Chrome trace
//! export writes its document from its events with the same quoting,
//! number printing and layout, and no value tree in between.
//!
//! # Examples
//!
//! ```
//! use gdr_system::json::Json;
//!
//! let v = Json::obj([("a", Json::from(1.5)), ("b", Json::from("x"))]);
//! let text = v.to_compact();
//! assert_eq!(text, r#"{"a":1.5,"b":"x"}"#);
//! assert_eq!(Json::parse(&text).unwrap(), v);
//! ```

use std::borrow::Cow;
use std::fmt::Write as _;

/// The deepest array/object nesting [`Json::parse`] accepts. The report
/// schemas nest five levels deep; anything past this bound is rejected
/// with an error instead of recursing until the stack overflows.
pub const MAX_DEPTH: usize = 128;

/// A JSON value. Object keys keep insertion order — the writer never
/// sorts, so serialization order is exactly construction order.
#[derive(Debug, Clone, PartialEq)]
pub enum Json {
    /// `null`.
    Null,
    /// `true` / `false`.
    Bool(bool),
    /// A number (always carried as `f64`).
    Num(f64),
    /// A string; a literal is borrowed, anything else owned.
    Str(Cow<'static, str>),
    /// An array.
    Arr(Vec<Json>),
    /// An object with insertion-ordered keys.
    Obj(Vec<(Cow<'static, str>, Json)>),
}

impl From<f64> for Json {
    fn from(x: f64) -> Self {
        Json::Num(x)
    }
}

impl From<u64> for Json {
    fn from(x: u64) -> Self {
        Json::Num(x as f64)
    }
}

impl From<usize> for Json {
    fn from(x: usize) -> Self {
        Json::Num(x as f64)
    }
}

impl From<bool> for Json {
    fn from(x: bool) -> Self {
        Json::Bool(x)
    }
}

impl From<&str> for Json {
    fn from(x: &str) -> Self {
        Json::Str(Cow::Owned(x.to_owned()))
    }
}

impl From<String> for Json {
    fn from(x: String) -> Self {
        Json::Str(Cow::Owned(x))
    }
}

impl<T: Into<Json>> From<Option<T>> for Json {
    fn from(x: Option<T>) -> Self {
        x.map_or(Json::Null, Into::into)
    }
}

impl Json {
    /// Builds an object from `(key, value)` pairs, preserving order. A
    /// `&'static str` key is borrowed, a `String` key moved in.
    pub fn obj<K: Into<Cow<'static, str>>, I: IntoIterator<Item = (K, Json)>>(pairs: I) -> Self {
        Json::Obj(pairs.into_iter().map(|(k, v)| (k.into(), v)).collect())
    }

    /// Builds an array from values.
    pub fn arr<I: IntoIterator<Item = Json>>(items: I) -> Self {
        Json::Arr(items.into_iter().collect())
    }

    /// Object field lookup (first match); `None` on non-objects.
    pub fn get(&self, key: &str) -> Option<&Json> {
        match self {
            Json::Obj(pairs) => pairs.iter().find(|(k, _)| k == key).map(|(_, v)| v),
            _ => None,
        }
    }

    /// The numeric value, if this is a number.
    pub fn as_f64(&self) -> Option<f64> {
        match self {
            Json::Num(x) => Some(*x),
            _ => None,
        }
    }

    /// The boolean value, if this is a boolean.
    pub fn as_bool(&self) -> Option<bool> {
        match self {
            Json::Bool(b) => Some(*b),
            _ => None,
        }
    }

    /// The string value, if this is a string.
    pub fn as_str(&self) -> Option<&str> {
        match self {
            Json::Str(s) => Some(s),
            _ => None,
        }
    }

    /// The element list, if this is an array.
    pub fn as_arr(&self) -> Option<&[Json]> {
        match self {
            Json::Arr(items) => Some(items),
            _ => None,
        }
    }

    /// The key/value pairs, if this is an object.
    pub fn as_obj(&self) -> Option<&[(Cow<'static, str>, Json)]> {
        match self {
            Json::Obj(pairs) => Some(pairs),
            _ => None,
        }
    }

    /// Serializes without whitespace.
    pub fn to_compact(&self) -> String {
        let mut out = String::new();
        self.write(&mut out, None, 0);
        out
    }

    /// Serializes with 2-space indentation and a trailing newline —
    /// the on-disk format of `bench.json` (diff- and VCS-friendly).
    pub fn to_pretty(&self) -> String {
        pretty(|out, indent| self.write(out, indent, 0))
    }

    /// Writes the value at nesting `depth`: compact when `indent` is
    /// `None`, else `indent` spaces per level.
    fn write(&self, out: &mut String, indent: Option<usize>, depth: usize) {
        match self {
            Json::Null => out.push_str("null"),
            Json::Bool(b) => out.push_str(if *b { "true" } else { "false" }),
            Json::Num(x) => write_num(out, *x),
            Json::Str(s) => write_str(out, s),
            Json::Arr(items) => {
                let mut arr = Seq::array(out, indent, depth);
                for v in items {
                    v.write(arr.item(), indent, depth + 1);
                }
                arr.end();
            }
            Json::Obj(pairs) => write_obj(out, pairs, indent, depth),
        }
    }

    /// Parses a JSON document (strict: one value, nothing but whitespace
    /// around it, at most [`MAX_DEPTH`] levels of nesting).
    ///
    /// # Errors
    ///
    /// Returns a human-readable message naming the byte offset of the
    /// first syntax error or of the first bracket past [`MAX_DEPTH`].
    pub fn parse(text: &str) -> Result<Json, String> {
        let mut p = Parser {
            bytes: text.as_bytes(),
            pos: 0,
            depth: 0,
        };
        p.skip_ws();
        let v = p.value()?;
        p.skip_ws();
        if p.pos != p.bytes.len() {
            return Err(format!("trailing characters at byte {}", p.pos));
        }
        Ok(v)
    }
}

/// A pretty-printed document: `write(out, indent)` writes its root
/// value at depth 0 with two spaces per level, and a newline ends it.
pub(crate) fn pretty(write: impl FnOnce(&mut String, Option<usize>)) -> String {
    let mut out = String::new();
    write(&mut out, Some(2));
    out.push('\n');
    out
}

/// Writes a number: integral values without a decimal point, exact
/// thousandths through [`thousandths`], everything else with Rust's
/// shortest round-trip float formatting. The last two print the text
/// `format!("{x}")` gives.
pub(crate) fn write_num(out: &mut String, x: f64) {
    if !x.is_finite() {
        // JSON has no Inf/NaN; reports only carry finite values, but a
        // defensive null beats an unparseable document.
        out.push_str("null");
    } else if x.fract() == 0.0 && x.abs() < 9.0e15 {
        write_int(out, x as i64);
    } else if let Some(m) = thousandths(x) {
        write_thousandths(out, m);
    } else {
        let _ = write!(out, "{x}");
    }
}

/// The integer `m` when `x` is the `f64` nearest to `m / 1000` and
/// `|x| < 2^43`. There one ulp of `x` is at most 2^-10, under 0.001, so
/// no other decimal of three or fewer places rounds to `x`, and the
/// shortest round-trip text of `x` is the digits of `m / 1000`.
fn thousandths(x: f64) -> Option<i64> {
    const LIMIT: f64 = (1u64 << 43) as f64;
    if x.abs() >= LIMIT {
        return None;
    }
    // |m| < 2^53, so `m` and the correctly rounded quotient are exact.
    let m = (x * 1_000.0).round();
    (m / 1_000.0 == x).then_some(m as i64)
}

/// Writes `m / 1000` for an `m` that is not a whole multiple of 1000:
/// the integer part, a point and the thousandths without their trailing
/// zeros.
fn write_thousandths(out: &mut String, m: i64) {
    if m < 0 {
        out.push('-');
    }
    let (whole, mut frac) = (m.unsigned_abs() / 1_000, m.unsigned_abs() % 1_000);
    write_digits(out, whole);
    out.push('.');
    let mut places = 3;
    while frac % 10 == 0 {
        frac /= 10;
        places -= 1;
    }
    let digits = [frac / 100, frac / 10 % 10, frac % 10].map(|d| b'0' + d as u8);
    out.push_str(std::str::from_utf8(&digits[3 - places..]).expect("digits are ASCII"));
}

/// Writes `n` in decimal, the text `format!("{n}")` gives.
fn write_int(out: &mut String, n: i64) {
    if n < 0 {
        out.push('-');
    }
    write_digits(out, n.unsigned_abs());
}

/// Writes `n` in decimal through a stack buffer instead of `fmt`.
/// Twenty bytes hold any `u64`.
fn write_digits(out: &mut String, mut n: u64) {
    let mut buf = [0u8; 20];
    let mut at = buf.len();
    loop {
        at -= 1;
        buf[at] = b'0' + (n % 10) as u8;
        n /= 10;
        if n == 0 {
            break;
        }
    }
    out.push_str(std::str::from_utf8(&buf[at..]).expect("digits are ASCII"));
}

/// Writes `s` quoted, copying each run of characters that need no
/// escape whole. Every escaped character is ASCII, so a run always
/// starts and ends on a character boundary.
pub(crate) fn write_str(out: &mut String, s: &str) {
    out.push('"');
    let mut run = 0;
    for (i, b) in s.bytes().enumerate() {
        if !matches!(b, b'"' | b'\\' | 0..=0x1f) {
            continue;
        }
        out.push_str(&s[run..i]);
        match b {
            b'"' => out.push_str("\\\""),
            b'\\' => out.push_str("\\\\"),
            b'\n' => out.push_str("\\n"),
            b'\r' => out.push_str("\\r"),
            b'\t' => out.push_str("\\t"),
            _ => {
                let _ = write!(out, "\\u{b:04x}");
            }
        }
        run = i + 1;
    }
    out.push_str(&s[run..]);
    out.push('"');
}

/// Writes an object of `pairs` at nesting `depth`, each value through
/// the value writer.
pub(crate) fn write_obj(
    out: &mut String,
    pairs: &[(Cow<'static, str>, Json)],
    indent: Option<usize>,
    depth: usize,
) {
    let mut obj = Seq::object(out, indent, depth);
    for (k, v) in pairs {
        v.write(obj.member(k), indent, depth + 1);
    }
    obj.end();
}

/// The run of spaces [`write_break`] copies from.
const SPACES: &str = "                                ";

/// When pretty-printing, starts a new line indented to `depth`, a slice
/// of [`SPACES`] at a time; compact output gets nothing.
fn write_break(out: &mut String, indent: Option<usize>, depth: usize) {
    let Some(w) = indent else { return };
    out.push('\n');
    let mut n = w * depth;
    while n > SPACES.len() {
        out.push_str(SPACES);
        n -= SPACES.len();
    }
    out.push_str(&SPACES[..n]);
}

/// An array or object being written at nesting `depth`: its items go one
/// level deeper, comma-separated, each on its own line when
/// pretty-printing. An empty one prints as `[]` or `{}`.
pub(crate) struct Seq<'a> {
    out: &'a mut String,
    indent: Option<usize>,
    depth: usize,
    close: char,
    empty: bool,
}

impl<'a> Seq<'a> {
    /// Opens an array.
    pub(crate) fn array(out: &'a mut String, indent: Option<usize>, depth: usize) -> Self {
        Self::open(out, indent, depth, '[', ']')
    }

    /// Opens an object.
    pub(crate) fn object(out: &'a mut String, indent: Option<usize>, depth: usize) -> Self {
        Self::open(out, indent, depth, '{', '}')
    }

    fn open(
        out: &'a mut String,
        indent: Option<usize>,
        depth: usize,
        open: char,
        close: char,
    ) -> Self {
        out.push(open);
        Seq {
            out,
            indent,
            depth,
            close,
            empty: true,
        }
    }

    /// Starts the next item and returns the output to write it to, at
    /// nesting `depth + 1`.
    pub(crate) fn item(&mut self) -> &mut String {
        if !self.empty {
            self.out.push(',');
        }
        self.empty = false;
        write_break(self.out, self.indent, self.depth + 1);
        self.out
    }

    /// Starts the next object member: the item, its quoted key, a colon,
    /// and a space when pretty-printing. Write the value next.
    pub(crate) fn member(&mut self, key: &str) -> &mut String {
        let pretty = self.indent.is_some();
        let out = self.item();
        write_str(out, key);
        out.push_str(if pretty { ": " } else { ":" });
        out
    }

    /// Closes the sequence, on its own line after any items.
    pub(crate) fn end(self) {
        if !self.empty {
            write_break(self.out, self.indent, self.depth);
        }
        self.out.push(self.close);
    }
}

struct Parser<'a> {
    bytes: &'a [u8],
    pos: usize,
    /// Arrays and objects currently open around `pos`.
    depth: usize,
}

impl Parser<'_> {
    fn skip_ws(&mut self) {
        while self
            .bytes
            .get(self.pos)
            .is_some_and(|b| matches!(b, b' ' | b'\t' | b'\n' | b'\r'))
        {
            self.pos += 1;
        }
    }

    fn peek(&self) -> Option<u8> {
        self.bytes.get(self.pos).copied()
    }

    fn expect(&mut self, b: u8) -> Result<(), String> {
        if self.peek() == Some(b) {
            self.pos += 1;
            Ok(())
        } else {
            Err(format!("expected '{}' at byte {}", b as char, self.pos))
        }
    }

    fn lit(&mut self, word: &str, v: Json) -> Result<Json, String> {
        if self.bytes[self.pos..].starts_with(word.as_bytes()) {
            self.pos += word.len();
            Ok(v)
        } else {
            Err(format!("invalid literal at byte {}", self.pos))
        }
    }

    fn value(&mut self) -> Result<Json, String> {
        match self.peek() {
            Some(b'n') => self.lit("null", Json::Null),
            Some(b't') => self.lit("true", Json::Bool(true)),
            Some(b'f') => self.lit("false", Json::Bool(false)),
            Some(b'"') => Ok(Json::Str(Cow::Owned(self.string()?))),
            Some(b'[') => self.nested(Self::array),
            Some(b'{') => self.nested(Self::object),
            Some(b'-' | b'0'..=b'9') => self.number(),
            _ => Err(format!("unexpected input at byte {}", self.pos)),
        }
    }

    /// Parses one array or object one level deeper, refusing to recurse
    /// past [`MAX_DEPTH`].
    fn nested(&mut self, parse: fn(&mut Self) -> Result<Json, String>) -> Result<Json, String> {
        if self.depth == MAX_DEPTH {
            return Err(format!(
                "nesting deeper than {MAX_DEPTH} levels at byte {}",
                self.pos
            ));
        }
        self.depth += 1;
        let v = parse(self);
        self.depth -= 1;
        v
    }

    fn array(&mut self) -> Result<Json, String> {
        self.expect(b'[')?;
        let mut items = Vec::new();
        self.skip_ws();
        if self.peek() == Some(b']') {
            self.pos += 1;
            return Ok(Json::Arr(items));
        }
        loop {
            self.skip_ws();
            items.push(self.value()?);
            self.skip_ws();
            match self.peek() {
                Some(b',') => self.pos += 1,
                Some(b']') => {
                    self.pos += 1;
                    return Ok(Json::Arr(items));
                }
                _ => return Err(format!("expected ',' or ']' at byte {}", self.pos)),
            }
        }
    }

    fn object(&mut self) -> Result<Json, String> {
        self.expect(b'{')?;
        let mut pairs = Vec::new();
        self.skip_ws();
        if self.peek() == Some(b'}') {
            self.pos += 1;
            return Ok(Json::Obj(pairs));
        }
        loop {
            self.skip_ws();
            let key = self.string()?;
            self.skip_ws();
            self.expect(b':')?;
            self.skip_ws();
            pairs.push((Cow::Owned(key), self.value()?));
            self.skip_ws();
            match self.peek() {
                Some(b',') => self.pos += 1,
                Some(b'}') => {
                    self.pos += 1;
                    return Ok(Json::Obj(pairs));
                }
                _ => return Err(format!("expected ',' or '}}' at byte {}", self.pos)),
            }
        }
    }

    fn string(&mut self) -> Result<String, String> {
        self.expect(b'"')?;
        let mut out = String::new();
        loop {
            let start = self.pos;
            while let Some(b) = self.peek() {
                match b {
                    b'"' | b'\\' => break,
                    0..=0x1f => {
                        return Err(format!("control character in string at byte {}", self.pos))
                    }
                    _ => self.pos += 1,
                }
            }
            out.push_str(
                std::str::from_utf8(&self.bytes[start..self.pos])
                    .map_err(|_| format!("invalid UTF-8 at byte {start}"))?,
            );
            match self.peek() {
                Some(b'"') => {
                    self.pos += 1;
                    return Ok(out);
                }
                Some(b'\\') => {
                    self.pos += 1;
                    match self.peek() {
                        Some(b'"') => out.push('"'),
                        Some(b'\\') => out.push('\\'),
                        Some(b'/') => out.push('/'),
                        Some(b'n') => out.push('\n'),
                        Some(b'r') => out.push('\r'),
                        Some(b't') => out.push('\t'),
                        Some(b'b') => out.push('\u{8}'),
                        Some(b'f') => out.push('\u{c}'),
                        Some(b'u') => {
                            let escape = self.pos - 1;
                            let mut code = self.hex4()?;
                            // A character past U+FFFF arrives as a UTF-16
                            // surrogate pair: a high escape, then a low one.
                            if (0xD800..0xDC00).contains(&code)
                                && self.bytes[self.pos + 1..].starts_with(b"\\u")
                            {
                                self.pos += 2;
                                let low = self.hex4()?;
                                if !(0xDC00..0xE000).contains(&low) {
                                    return Err(format!("lone surrogate at byte {escape}"));
                                }
                                code = 0x10000 + ((code - 0xD800) << 10) + (low - 0xDC00);
                            }
                            let c = char::from_u32(code)
                                .ok_or_else(|| format!("lone surrogate at byte {escape}"))?;
                            out.push(c);
                        }
                        _ => return Err(format!("bad escape at byte {}", self.pos)),
                    }
                    self.pos += 1;
                }
                _ => return Err("unterminated string".into()),
            }
        }
    }

    /// Reads the four hex digits after the `u` at `pos` and leaves `pos`
    /// on the last of them. Only ASCII hex digits count: no sign, no
    /// space.
    fn hex4(&mut self) -> Result<u32, String> {
        let at = self.pos;
        let code = self
            .bytes
            .get(at + 1..at + 5)
            .and_then(|digits| {
                digits
                    .iter()
                    .try_fold(0, |code, &b| Some(code * 16 + char::from(b).to_digit(16)?))
            })
            .ok_or_else(|| format!("bad \\u escape at byte {at}"))?;
        self.pos += 4;
        Ok(code)
    }

    /// Parses a number of exactly the JSON grammar:
    /// `-? (0 | [1-9][0-9]*) (. [0-9]+)? ([eE] [+-]? [0-9]+)?`.
    fn number(&mut self) -> Result<Json, String> {
        let start = self.pos;
        let invalid = || format!("invalid number at byte {start}");
        if self.peek() == Some(b'-') {
            self.pos += 1;
        }
        match self.peek() {
            Some(b'0') => self.pos += 1,
            Some(b'1'..=b'9') => self.digits(),
            _ => return Err(invalid()),
        }
        if self.peek() == Some(b'.') {
            self.pos += 1;
            if !self.peek().is_some_and(|b| b.is_ascii_digit()) {
                return Err(invalid());
            }
            self.digits();
        }
        if matches!(self.peek(), Some(b'e' | b'E')) {
            self.pos += 1;
            if matches!(self.peek(), Some(b'+' | b'-')) {
                self.pos += 1;
            }
            if !self.peek().is_some_and(|b| b.is_ascii_digit()) {
                return Err(invalid());
            }
            self.digits();
        }
        let x = std::str::from_utf8(&self.bytes[start..self.pos])
            .ok()
            .and_then(|s| s.parse::<f64>().ok())
            .ok_or_else(invalid)?;
        // A literal past the f64 range parses as ±∞, which the writer
        // prints as `null`: reject it so a parsed report writes back as
        // it was read.
        if x.is_infinite() {
            return Err(format!("number out of range at byte {start}"));
        }
        Ok(Json::Num(x))
    }

    /// Skips a run of ASCII digits.
    fn digits(&mut self) {
        while self.peek().is_some_and(|b| b.is_ascii_digit()) {
            self.pos += 1;
        }
    }
}

#[cfg(test)]
pub(crate) mod tests {
    use super::*;

    /// Deterministic case expansion (SplitMix64).
    pub(crate) fn mix(case: u64, salt: u64) -> u64 {
        let mut z = case
            .wrapping_mul(0x9E37_79B9_7F4A_7C15)
            .wrapping_add(salt.wrapping_mul(0xBF58_476D_1CE4_E5B9));
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    #[test]
    fn round_trips_nested_values() {
        let v = Json::obj([
            ("n", Json::Null),
            ("b", Json::from(true)),
            ("i", Json::from(42u64)),
            ("f", Json::from(1.25)),
            ("s", Json::from("a \"quoted\"\nline")),
            ("a", Json::arr([Json::from(1u64), Json::from("x")])),
            ("o", Json::obj([("k", Json::from(2.5))])),
        ]);
        for text in [v.to_compact(), v.to_pretty()] {
            assert_eq!(Json::parse(&text).unwrap(), v);
        }
    }

    #[test]
    fn objects_preserve_insertion_order() {
        let v = Json::obj([("z", Json::from(1u64)), ("a", Json::from(2u64))]);
        assert_eq!(v.to_compact(), r#"{"z":1,"a":2}"#);
        let back = Json::parse(&v.to_compact()).unwrap();
        let keys: Vec<&str> = back.as_obj().unwrap().iter().map(|(k, _)| &**k).collect();
        assert_eq!(keys, ["z", "a"]);
    }

    #[test]
    fn integers_render_without_decimal_point() {
        assert_eq!(Json::from(1_000_000_007u64).to_compact(), "1000000007");
        assert_eq!(Json::from(0.5).to_compact(), "0.5");
        assert_eq!(Json::Num(f64::NAN).to_compact(), "null");
    }

    #[test]
    fn accessors() {
        let v = Json::parse(r#"{"a": [1, "x"], "b": null}"#).unwrap();
        assert_eq!(v.get("a").unwrap().as_arr().unwrap().len(), 2);
        assert_eq!(v.get("a").unwrap().as_arr().unwrap()[1].as_str(), Some("x"));
        assert_eq!(v.get("b"), Some(&Json::Null));
        assert_eq!(v.get("missing"), None);
        assert_eq!(v.as_f64(), None);
    }

    #[test]
    fn integers_print_as_fmt_does() {
        for n in [0, 1, -1, 9, 10, -10, 4_294_967_296, i64::MAX, i64::MIN] {
            let mut out = String::new();
            write_int(&mut out, n);
            assert_eq!(out, n.to_string());
        }
        let mut n = 1i64;
        while let Some(next) = n.checked_mul(7) {
            for m in [n - 1, n, n + 1, -n] {
                let mut out = String::new();
                write_int(&mut out, m);
                assert_eq!(out, m.to_string());
            }
            n = next;
        }
    }

    /// How many of `xs` take `write_num`'s fast path, after checking
    /// that each of those prints as `{x}` does.
    fn fast_path_count(xs: impl Iterator<Item = f64>) -> usize {
        let (mut out, mut expected) = (String::new(), String::new());
        let mut fast = 0;
        for x in xs.filter(|&x| x.fract() != 0.0 && thousandths(x).is_some()) {
            out.clear();
            expected.clear();
            write_num(&mut out, x);
            let _ = write!(expected, "{x}");
            assert_eq!(out, expected, "{:#x}", x.to_bits());
            fast += 1;
        }
        fast
    }

    #[test]
    fn exact_thousandths_print_as_fmt_does() {
        // Dense thousandths around zero: every fractional one is exact.
        let dense = fast_path_count((-5_000_000i64..=5_000_000).map(|m| m as f64 / 1_000.0));
        assert_eq!(dense, 10_000_000 - 10_000);
        // Thousandths on both sides of the 2^43 bound: the path stops
        // there.
        let edge = (1i64 << 43) * 1_000;
        let below = fast_path_count((edge - 3_000_000..edge).map(|m| m as f64 / 1_000.0));
        let past = fast_path_count((edge..=edge + 3_000_000).map(|m| m as f64 / 1_000.0));
        assert!(
            below > 0 && past == 0,
            "{below} below the bound, {past} past it"
        );
        // Random thousandths below 2^53, both signs, and random bit
        // patterns.
        let random = fast_path_count((0..250_000).flat_map(|case| {
            let m = (mix(case, 1) % (1 << 53)) as f64 / 1_000.0;
            [m, -m, f64::from_bits(mix(case, 2))]
        }));
        assert!(random > 0, "random thousandths reach the fast path");
    }

    #[test]
    fn rejects_malformed_input() {
        for bad in [
            "",
            "{",
            "[1,]",
            "{\"a\":}",
            "tru",
            "1 2",
            "\"unterminated",
            // `from_str_radix` reads this as `A`: it accepts a sign.
            r#""\u+041""#,
            "\"raw\u{1}control\"",
            "\"raw\ttab\"",
            "01",
            "-01",
            "[01]",
            "1.",
            "1.e5",
            "-.5",
            "-",
            "1e",
            "1e+",
            ".5",
            "+1",
        ] {
            assert!(Json::parse(bad).is_err(), "{bad:?} should fail");
        }
    }

    #[test]
    fn surrogate_pairs_decode_and_lone_surrogates_fail() {
        // What Python's `json.dump` writes for 🚀 (U+1F680).
        let v = Json::parse(r#"["\ud83d\ude80", "a\uD83D\uDE80b"]"#).unwrap();
        assert_eq!(v.as_arr().unwrap()[0].as_str(), Some("🚀"));
        assert_eq!(v.as_arr().unwrap()[1].as_str(), Some("a🚀b"));
        for (lone, at) in [
            (r#""\ud83d""#, 1),
            (r#""x\ud83dy""#, 2),
            (r#""\ud83d\u0041""#, 1),
            (r#""\ud83d\ud83d""#, 1),
            (r#""\ude80""#, 1),
            (r#""ab\ude80\ud83d""#, 3),
        ] {
            let err = Json::parse(lone).unwrap_err();
            assert_eq!(err, format!("lone surrogate at byte {at}"), "{lone}");
        }
    }

    #[test]
    fn nesting_is_bounded() {
        let nest = |depth: usize| "[".repeat(depth) + &"]".repeat(depth);
        assert!(Json::parse(&nest(MAX_DEPTH)).is_ok());
        let err = Json::parse(&nest(MAX_DEPTH + 1)).unwrap_err();
        assert!(err.contains("nesting"), "{err}");
        // deep enough to overflow any thread stack if the parser recursed
        assert!(Json::parse(&nest(200_000)).is_err());
        assert!(Json::parse(&"{\"k\":".repeat(200_000)).is_err());
    }

    #[test]
    fn parses_escapes_and_numbers() {
        let v = Json::parse(r#"["A\t", -1.5e3, 0.125]"#).unwrap();
        let a = v.as_arr().unwrap();
        assert_eq!(a[0].as_str(), Some("A\t"));
        assert_eq!(a[1].as_f64(), Some(-1500.0));
        assert_eq!(a[2].as_f64(), Some(0.125));
        // Python's exponent forms, a zero with a fraction, a negative
        // zero and upper-case escapes are all JSON.
        let v = Json::parse(r#"[1e-07, 1e+16, 2E3, 0.5, -0, -0.0e0, "\u00E9\u00e9"]"#).unwrap();
        let a = v.as_arr().unwrap();
        let nums: Vec<f64> = a[..6].iter().map(|x| x.as_f64().unwrap()).collect();
        assert_eq!(nums, [1e-7, 1e16, 2000.0, 0.5, 0.0, 0.0]);
        assert_eq!(a[6].as_str(), Some("éé"));
    }

    #[test]
    fn numbers_past_the_f64_range_are_rejected() {
        for (text, at) in [("1e400", 0), ("-1e400", 0), (r#"{"scale": 1e400}"#, 10)] {
            let err = Json::parse(text).unwrap_err();
            assert_eq!(err, format!("number out of range at byte {at}"), "{text}");
        }
        let v = Json::parse("[1e308, -1e308, 1e-400]").unwrap();
        let nums: Vec<f64> = v
            .as_arr()
            .unwrap()
            .iter()
            .filter_map(Json::as_f64)
            .collect();
        assert_eq!(nums, [1e308, -1e308, 0.0]);
        assert_eq!(Json::parse(&v.to_compact()).unwrap(), v);
    }
}
