//! JSON for every machine-readable artifact: one [`Json`] value type
//! that renders and parses.
//!
//! The workspace's serde is an offline marker stub, so every emitter —
//! grid reports, the Chrome trace, the bench runs, `grid_doctor`'s
//! verdict — builds a [`Json`] tree and renders it with `Display`:
//! compact, keys sorted, one escaper, and one number rule (non-finite
//! renders as `null`; JSON has no literal for NaN). [`Json::parse`] is a
//! strict RFC 8259 parser that reads them back, with nesting bounded at
//! [`MAX_DEPTH`] so a hostile file is an error, not a stack overflow.
//! Numbers are `f64` (no artifact carries an integer above 2⁵³).

use std::collections::BTreeMap;
use std::fmt::{self, Write as _};

/// Deepest array/object nesting [`Json::parse`] accepts.
pub const MAX_DEPTH: usize = 128;

/// A JSON value.
#[derive(Debug, Clone, PartialEq)]
pub enum Json {
    /// `null`
    Null,
    /// `true` / `false`
    Bool(bool),
    /// Any number.
    Num(f64),
    /// A string (escapes decoded).
    Str(String),
    /// An array.
    Arr(Vec<Json>),
    /// An object, key-sorted (duplicate keys: last wins).
    Obj(BTreeMap<String, Json>),
}

/// A parse failure, with the byte offset it happened at.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct JsonError {
    /// What went wrong.
    pub message: String,
    /// Byte offset into the input.
    pub offset: usize,
}

impl fmt::Display for JsonError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "JSON error at byte {}: {}", self.offset, self.message)
    }
}

impl std::error::Error for JsonError {}

impl Json {
    /// Parses a complete JSON document (trailing whitespace allowed,
    /// trailing garbage rejected).
    ///
    /// # Errors
    ///
    /// [`JsonError`] on any grammar violation, a number outside `f64`,
    /// or nesting deeper than [`MAX_DEPTH`].
    pub fn parse(input: &str) -> Result<Json, JsonError> {
        let mut p = Parser {
            text: input,
            pos: 0,
            depth: 0,
        };
        p.skip_ws();
        let value = p.value()?;
        p.skip_ws();
        if p.pos != input.len() {
            return Err(p.err("trailing characters after the document"));
        }
        Ok(value)
    }

    /// An object from `(key, value)` members (a repeated key: last wins).
    pub fn obj<K: Into<String>>(members: impl IntoIterator<Item = (K, Json)>) -> Json {
        Json::Obj(members.into_iter().map(|(k, v)| (k.into(), v)).collect())
    }

    /// Member `key` of an object, if this is an object that has it.
    pub fn get(&self, key: &str) -> Option<&Json> {
        let Json::Obj(m) = self else { return None };
        m.get(key)
    }

    /// The number value, if this is a number.
    pub fn as_f64(&self) -> Option<f64> {
        let Json::Num(n) = self else { return None };
        Some(*n)
    }

    /// The string value, if this is a string.
    pub fn as_str(&self) -> Option<&str> {
        let Json::Str(s) = self else { return None };
        Some(s)
    }

    /// The boolean value, if this is a boolean.
    pub fn as_bool(&self) -> Option<bool> {
        let Json::Bool(b) = self else { return None };
        Some(*b)
    }

    /// The elements, if this is an array.
    pub fn as_array(&self) -> Option<&[Json]> {
        let Json::Arr(v) = self else { return None };
        Some(v)
    }

    /// The members, if this is an object.
    pub fn as_object(&self) -> Option<&BTreeMap<String, Json>> {
        let Json::Obj(m) = self else { return None };
        Some(m)
    }
}

/// A [`Json`] object from `"key": value` members, each value anything
/// with a `From` conversion to [`Json`] (`Option` renders `None` as
/// `null`):
///
/// ```
/// use pem_telemetry::json_object;
/// let row = json_object! { "name": "eval", "count": 3u64, "vts_us": None::<u64> };
/// assert_eq!(row.to_string(), r#"{"count":3,"name":"eval","vts_us":null}"#);
/// ```
#[macro_export]
macro_rules! json_object {
    ($($key:literal: $value:expr),+ $(,)?) => {
        $crate::json::Json::obj([$(($key, $crate::json::Json::from($value))),+])
    };
}

/// `From` for the scalars the emitters use.
macro_rules! from_scalar {
    ($($t:ty, $v:ident => $json:expr;)*) => {$(
        impl From<$t> for Json {
            fn from($v: $t) -> Json {
                $json
            }
        }
    )*};
}

from_scalar! {
    bool, b => Json::Bool(b);
    f64, n => Json::Num(n);
    u32, n => Json::Num(f64::from(n));
    u64, n => Json::Num(n as f64);
    usize, n => Json::Num(n as f64);
    &str, s => Json::Str(s.to_string());
    String, s => Json::Str(s);
}

/// `None` is `null`.
impl<T: Into<Json>> From<Option<T>> for Json {
    fn from(v: Option<T>) -> Json {
        v.map_or(Json::Null, Into::into)
    }
}

/// Collects into an array.
impl<T: Into<Json>> FromIterator<T> for Json {
    fn from_iter<I: IntoIterator<Item = T>>(items: I) -> Json {
        Json::Arr(items.into_iter().map(Into::into).collect())
    }
}

/// Compact rendering: no whitespace, object keys in sorted order.
impl fmt::Display for Json {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Json::Null => f.write_str("null"),
            Json::Bool(b) => write!(f, "{b}"),
            // `{}` on f64 is the shortest decimal that parses back to the
            // same value, never in exponent form.
            Json::Num(n) if n.is_finite() => write!(f, "{n}"),
            Json::Num(_) => f.write_str("null"),
            Json::Str(s) => write_escaped(f, s),
            Json::Arr(items) => {
                f.write_char('[')?;
                for (i, item) in items.iter().enumerate() {
                    if i > 0 {
                        f.write_char(',')?;
                    }
                    item.fmt(f)?;
                }
                f.write_char(']')
            }
            Json::Obj(members) => {
                f.write_char('{')?;
                for (i, (key, value)) in members.iter().enumerate() {
                    if i > 0 {
                        f.write_char(',')?;
                    }
                    write_escaped(f, key)?;
                    f.write_char(':')?;
                    value.fmt(f)?;
                }
                f.write_char('}')
            }
        }
    }
}

/// Writes `s` as a string literal: quote, backslash and the control
/// characters escaped, everything else (non-ASCII included) verbatim.
fn write_escaped(f: &mut fmt::Formatter<'_>, s: &str) -> fmt::Result {
    f.write_char('"')?;
    for c in s.chars() {
        match c {
            '"' => f.write_str("\\\"")?,
            '\\' => f.write_str("\\\\")?,
            '\n' => f.write_str("\\n")?,
            c if c < ' ' => write!(f, "\\u{:04x}", u32::from(c))?,
            c => f.write_char(c)?,
        }
    }
    f.write_char('"')
}

struct Parser<'a> {
    text: &'a str,
    pos: usize,
    /// Arrays and objects currently open.
    depth: usize,
}

impl Parser<'_> {
    fn err(&self, message: &str) -> JsonError {
        JsonError {
            message: message.to_string(),
            offset: self.pos,
        }
    }

    fn peek(&self) -> Option<u8> {
        self.text.as_bytes().get(self.pos).copied()
    }

    /// Consumes `b` if it is next.
    fn eat(&mut self, b: u8) -> bool {
        let hit = self.peek() == Some(b);
        self.pos += usize::from(hit);
        hit
    }

    /// Consumes bytes while `pred` holds, returning how many.
    fn eat_while(&mut self, pred: impl Fn(u8) -> bool) -> usize {
        let start = self.pos;
        while self.peek().is_some_and(&pred) {
            self.pos += 1;
        }
        self.pos - start
    }

    fn skip_ws(&mut self) {
        self.eat_while(|b| matches!(b, b' ' | b'\t' | b'\n' | b'\r'));
    }

    fn require(&mut self, b: u8) -> Result<(), JsonError> {
        if self.eat(b) {
            Ok(())
        } else {
            Err(self.err(&format!("expected '{}'", b as char)))
        }
    }

    fn literal(&mut self, word: &str, value: Json) -> Result<Json, JsonError> {
        if self.text[self.pos..].starts_with(word) {
            self.pos += word.len();
            Ok(value)
        } else {
            Err(self.err(&format!("expected '{word}'")))
        }
    }

    fn value(&mut self) -> Result<Json, JsonError> {
        match self.peek() {
            Some(b'n') => self.literal("null", Json::Null),
            Some(b't') => self.literal("true", Json::Bool(true)),
            Some(b'f') => self.literal("false", Json::Bool(false)),
            Some(b'"') => self.string().map(Json::Str),
            Some(b'[') => {
                let mut items = Vec::new();
                self.items(b']', |p| {
                    items.push(p.value()?);
                    Ok(())
                })?;
                Ok(Json::Arr(items))
            }
            Some(b'{') => {
                let mut members = BTreeMap::new();
                self.items(b'}', |p| {
                    let key = p.string()?;
                    p.skip_ws();
                    p.require(b':')?;
                    p.skip_ws();
                    members.insert(key, p.value()?);
                    Ok(())
                })?;
                Ok(Json::Obj(members))
            }
            Some(b'-' | b'0'..=b'9') => self.number(),
            Some(_) => Err(self.err("unexpected character")),
            None => Err(self.err("unexpected end of input")),
        }
    }

    /// The comma-separated items of an array or object, from its opening
    /// bracket through `close`, one nesting level deeper.
    fn items(
        &mut self,
        close: u8,
        mut item: impl FnMut(&mut Self) -> Result<(), JsonError>,
    ) -> Result<(), JsonError> {
        self.depth += 1;
        if self.depth > MAX_DEPTH {
            return Err(self.err(&format!("nesting deeper than {MAX_DEPTH} levels")));
        }
        self.pos += 1; // the opening bracket
        self.skip_ws();
        let mut first = true;
        while !self.eat(close) {
            if !std::mem::take(&mut first) {
                self.require(b',')?;
                self.skip_ws();
            }
            item(self)?;
            self.skip_ws();
        }
        self.depth -= 1;
        Ok(())
    }

    fn string(&mut self) -> Result<String, JsonError> {
        self.require(b'"')?;
        let mut out = String::new();
        loop {
            // A run of plain characters; it stops at an ASCII byte, so
            // on a char boundary.
            let start = self.pos;
            self.eat_while(|b| b >= 0x20 && b != b'"' && b != b'\\');
            out.push_str(&self.text[start..self.pos]);
            match self.peek() {
                Some(b'"') => {
                    self.pos += 1;
                    return Ok(out);
                }
                Some(b'\\') => {
                    self.pos += 1;
                    out.push(self.unescape()?);
                }
                Some(_) => return Err(self.err("raw control character in string")),
                None => return Err(self.err("unterminated string")),
            }
        }
    }

    /// The character the escape after a backslash stands for.
    fn unescape(&mut self) -> Result<char, JsonError> {
        let c = match self.peek() {
            Some(b'u') => {
                self.pos += 1;
                let mut units = vec![self.hex4()?];
                // A high surrogate takes its low half from the next escape.
                if (0xD800..0xDC00).contains(&units[0]) {
                    self.require(b'\\')?;
                    self.require(b'u')?;
                    units.push(self.hex4()?);
                }
                return char::decode_utf16(units)
                    .next()
                    .and_then(Result::ok)
                    .ok_or_else(|| self.err("unpaired surrogate"));
            }
            Some(b'"') => '"',
            Some(b'\\') => '\\',
            Some(b'/') => '/',
            Some(b'b') => '\u{8}',
            Some(b'f') => '\u{c}',
            Some(b'n') => '\n',
            Some(b'r') => '\r',
            Some(b't') => '\t',
            _ => return Err(self.err("invalid escape")),
        };
        self.pos += 1;
        Ok(c)
    }

    fn hex4(&mut self) -> Result<u16, JsonError> {
        let unit = self
            .text
            .get(self.pos..self.pos + 4)
            .filter(|digits| digits.bytes().all(|b| b.is_ascii_hexdigit()))
            .and_then(|digits| u16::from_str_radix(digits, 16).ok())
            .ok_or_else(|| self.err("invalid \\u escape"))?;
        self.pos += 4;
        Ok(unit)
    }

    /// `-? (0 | [1-9][0-9]*) (. [0-9]+)? ([eE] [+-]? [0-9]+)?` — RFC
    /// 8259's grammar, which `str::parse::<f64>` alone is looser than
    /// (it takes `01`, `1.` and `-.5`).
    fn number(&mut self) -> Result<Json, JsonError> {
        let start = self.pos;
        let digits = |b: u8| b.is_ascii_digit();
        self.eat(b'-');
        if !self.eat(b'0') && self.eat_while(digits) == 0 {
            return Err(self.err("expected a digit"));
        }
        if self.eat(b'.') && self.eat_while(digits) == 0 {
            return Err(self.err("expected a digit after '.'"));
        }
        if self.eat(b'e') || self.eat(b'E') {
            let _sign = self.eat(b'+') || self.eat(b'-');
            if self.eat_while(digits) == 0 {
                return Err(self.err("expected an exponent digit"));
            }
        }
        self.text[start..self.pos]
            .parse::<f64>()
            .ok()
            .filter(|n| n.is_finite())
            .map(Json::Num)
            .ok_or_else(|| self.err("number out of range"))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    #[test]
    fn parses_scalars() {
        assert_eq!(Json::parse("null").unwrap(), Json::Null);
        assert_eq!(Json::parse(" true ").unwrap(), Json::Bool(true));
        assert_eq!(Json::parse("false").unwrap(), Json::Bool(false));
        assert_eq!(Json::parse("-12.5e2").unwrap(), Json::Num(-1250.0));
        assert_eq!(Json::parse("0").unwrap(), Json::Num(0.0));
        assert_eq!(Json::parse("-0.5E+1").unwrap(), Json::Num(-5.0));
        assert_eq!(Json::parse("\"hi\"").unwrap(), Json::Str("hi".to_string()));
    }

    #[test]
    fn parses_structures_and_accessors() {
        let doc =
            Json::parse("{\"a\": [1, 2, {\"b\": \"x\"}], \"ok\": true, \"n\": null}").unwrap();
        assert_eq!(doc.get("ok").and_then(Json::as_bool), Some(true));
        assert_eq!(doc.get("n"), Some(&Json::Null));
        let arr = doc.get("a").and_then(Json::as_array).unwrap();
        assert_eq!(arr[0].as_f64(), Some(1.0));
        assert_eq!(arr[2].get("b").and_then(Json::as_str), Some("x"));
        assert!(doc.get("missing").is_none());
        assert!(doc.as_object().unwrap().contains_key("a"));
    }

    #[test]
    fn decodes_escapes_and_surrogates() {
        let s = Json::parse("\"a\\\"b\\\\c\\n\\u0041\\u00e9\"").unwrap();
        assert_eq!(s.as_str(), Some("a\"b\\c\nAé"));
        // 𝄞 (U+1D11E) as a surrogate pair.
        let clef = Json::parse("\"\\ud834\\udd1e\"").unwrap();
        assert_eq!(clef.as_str(), Some("\u{1D11E}"));
    }

    #[test]
    fn rejects_malformed_documents() {
        for bad in [
            "",
            "{",
            "[1,",
            "{\"a\":}",
            "tru",
            "\"\\u12\"",
            "\"\\ud834\"",
            "1 2",
            "\"\nraw\"",
            "{\"a\":1,}",
            // RFC 8259 numbers: no leading zeros, digits on both sides
            // of the point, no bare sign, and nothing past f64.
            "01",
            "1.",
            "-.5",
            ".5",
            "-",
            "1e",
            "1e+",
            "[01]",
            "1e400",
            "NaN",
        ] {
            assert!(Json::parse(bad).is_err(), "should reject {bad:?}");
        }
    }

    #[test]
    fn nesting_depth_is_bounded() {
        // A million open brackets: an error, not a stack overflow.
        let err = Json::parse(&"[".repeat(1_000_000)).expect_err("too deep");
        assert!(err.message.contains("nesting"), "{err}");
        assert_eq!(err.offset, MAX_DEPTH);
        let nest = |depth: usize| format!("{}{}", "[".repeat(depth), "]".repeat(depth));
        assert!(Json::parse(&nest(MAX_DEPTH)).is_ok());
        assert!(Json::parse(&nest(MAX_DEPTH + 1)).is_err());
        let objects = format!(
            "{}1{}",
            "{\"a\":".repeat(MAX_DEPTH + 1),
            "}".repeat(MAX_DEPTH + 1)
        );
        assert!(Json::parse(&objects).is_err());
    }

    #[test]
    fn roundtrips_a_report_shape() {
        // The shape grid_day --json emits (abridged).
        let doc = Json::parse(
            "{\"cleared_kwh\":12.5,\"ledger_valid\":true,\
             \"windows\":[{\"fingerprint\":\"ab01\",\"causal\":null}]}",
        )
        .unwrap();
        assert_eq!(doc.get("cleared_kwh").and_then(Json::as_f64), Some(12.5));
        let w = &doc.get("windows").and_then(Json::as_array).unwrap()[0];
        assert_eq!(w.get("fingerprint").and_then(Json::as_str), Some("ab01"));
        assert_eq!(w.get("causal"), Some(&Json::Null));
        // Rendering is compact and key-sorted.
        assert_eq!(
            doc.to_string(),
            "{\"cleared_kwh\":12.5,\"ledger_valid\":true,\
             \"windows\":[{\"causal\":null,\"fingerprint\":\"ab01\"}]}"
        );
    }

    #[test]
    fn escapes_and_formats() {
        let s = Json::from("a\"b\\c\n\t\u{1}é𝄞");
        assert_eq!(s.to_string(), "\"a\\\"b\\\\c\\n\\u0009\\u0001é𝄞\"");
        assert_eq!(Json::from(1.5).to_string(), "1.5");
        assert_eq!(Json::from(3u64).to_string(), "3");
        assert_eq!(Json::from(1e21).to_string(), "1000000000000000000000");
        // The one number rule: non-finite figures are null.
        assert_eq!(Json::from(f64::NAN).to_string(), "null");
        assert_eq!(Json::from(f64::INFINITY).to_string(), "null");
        assert_eq!(Json::from(f64::NEG_INFINITY).to_string(), "null");
        assert_eq!(Json::from(None::<u64>).to_string(), "null");
        let doc = Json::obj([
            ("b", [1u64, 2].into_iter().collect()),
            ("a", Json::obj(Vec::<(String, Json)>::new())),
            ("c", Json::Arr(Vec::new())),
        ]);
        assert_eq!(doc.to_string(), "{\"a\":{},\"b\":[1,2],\"c\":[]}");
    }

    /// SplitMix64: the seeded generator behind the round-trip property.
    struct Mix(u64);

    impl Mix {
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

        /// Strings over the characters an escaper can get wrong.
        fn string(&mut self) -> String {
            const CHARS: [char; 14] = [
                'a', 'Z', ' ', '"', '\\', '/', '\n', '\t', '\u{0}', '\u{1f}', '\u{7f}', 'é',
                '\u{FFFF}', '𝄞',
            ];
            (0..self.below(6))
                .map(|_| CHARS[self.below(CHARS.len() as u64) as usize])
                .collect()
        }

        /// Finite numbers of every shape: integers of every magnitude,
        /// short decimals, and arbitrary bit patterns (subnormals too).
        fn number(&mut self) -> f64 {
            match self.below(3) {
                0 => ((self.next() as i64) >> self.below(64)) as f64,
                1 => (self.below(2_000_001) as f64 - 1_000_000.0) / 1000.0,
                _ => loop {
                    let n = f64::from_bits(self.next());
                    if n.is_finite() {
                        break n;
                    }
                },
            }
        }

        fn tree(&mut self, depth: u32) -> Json {
            match self.below(if depth == 0 { 4 } else { 6 }) {
                0 => Json::Null,
                1 => Json::Bool(self.next() & 1 == 1),
                2 => Json::Num(self.number()),
                3 => Json::Str(self.string()),
                4 => (0..self.below(4)).map(|_| self.tree(depth - 1)).collect(),
                _ => Json::obj(
                    (0..self.below(4))
                        .map(|_| (self.string(), self.tree(depth - 1)))
                        .collect::<Vec<_>>(),
                ),
            }
        }
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(512))]

        #[test]
        fn rendered_trees_parse_back(seed in any::<u64>()) {
            let tree = Mix(seed).tree(4);
            prop_assert_eq!(Json::parse(&tree.to_string()), Ok(tree));
        }
    }
}
