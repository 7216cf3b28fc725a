//! A small JSON value model: parse, build, and deterministic rendering.
//!
//! The workspace's `serde` is an offline marker stand-in (no
//! `serde_json`), while the query service (`tradeoff::api`, the
//! `tradeoff-server` binary) needs a real wire format. This module is
//! the shared substrate: a [`Json`] tree with a recursive-descent
//! parser and a writer whose output is deterministic — object keys keep
//! insertion order, numbers render via Rust's shortest round-trip
//! `f64` formatting — so identical values always serialise to identical
//! bytes (the property the CLI/server byte-equality tests pin).
//! [`Fields`] is the one strict object reader every JSON input (query
//! requests, workload specs, the manifest) is read through.
//!
//! The dialect is standard JSON with two deliberate limits: numbers are
//! `f64` (every wire quantity fits: hit ratios, byte counts, latencies)
//! and parsing depth is bounded to keep hostile request bodies from
//! recursing the stack.

use std::fmt;

/// Maximum nesting depth [`Json::parse`] accepts.
const MAX_DEPTH: usize = 64;

/// A parsed JSON value.
#[derive(Debug, Clone, PartialEq)]
pub enum Json {
    /// `null`.
    Null,
    /// `true` / `false`.
    Bool(bool),
    /// Any number (always an `f64`).
    Num(f64),
    /// A string.
    Str(String),
    /// An array.
    Arr(Vec<Json>),
    /// An object; pairs keep insertion order so rendering is
    /// deterministic and round-trips byte-identically.
    Obj(Vec<(String, Json)>),
}

impl Json {
    /// Convenience: an object from key/value pairs.
    pub fn obj(pairs: Vec<(&str, Json)>) -> Json {
        Json::Obj(pairs.into_iter().map(|(k, v)| (k.to_string(), v)).collect())
    }

    /// Convenience: a string value.
    pub fn str(s: impl Into<String>) -> Json {
        Json::Str(s.into())
    }

    /// Convenience: a number from anything convertible to `f64`.
    pub fn num(n: impl Into<f64>) -> Json {
        Json::Num(n.into())
    }

    /// The value under `key`, when this is an object holding it.
    pub fn get(&self, key: &str) -> Option<&Json> {
        match self {
            Json::Obj(pairs) => pairs.iter().find(|(k, _)| k == key).map(|(_, v)| v),
            _ => None,
        }
    }

    /// The string payload, when this is a string.
    pub fn as_str(&self) -> Option<&str> {
        match self {
            Json::Str(s) => Some(s),
            _ => None,
        }
    }

    /// The numeric payload, when this is a number.
    pub fn as_f64(&self) -> Option<f64> {
        match self {
            Json::Num(n) => Some(*n),
            _ => None,
        }
    }

    /// The numeric payload as a `u64`, when it is one exactly
    /// (non-negative, integral, inside `u64`'s exact-`f64` range).
    pub fn as_u64(&self) -> Option<u64> {
        let n = self.as_f64()?;
        if n.fract() == 0.0 && (0.0..=9_007_199_254_740_992.0).contains(&n) {
            Some(n as u64)
        } else {
            None
        }
    }

    /// The boolean payload, when this is a bool.
    pub fn as_bool(&self) -> Option<bool> {
        match self {
            Json::Bool(b) => Some(*b),
            _ => None,
        }
    }

    /// The element list, when this is an array.
    pub fn as_arr(&self) -> Option<&[Json]> {
        match self {
            Json::Arr(items) => Some(items),
            _ => None,
        }
    }

    /// The key/value pairs, when this is an object.
    pub fn as_obj(&self) -> Option<&[(String, Json)]> {
        match self {
            Json::Obj(pairs) => Some(pairs),
            _ => None,
        }
    }

    /// Parses a JSON document (one value, surrounded by nothing but
    /// whitespace).
    ///
    /// # Errors
    ///
    /// Returns a message with the byte offset of the malformation.
    pub fn parse(text: &str) -> Result<Json, String> {
        let mut p = Parser {
            bytes: text.as_bytes(),
            pos: 0,
        };
        p.skip_ws();
        let value = p.value(0)?;
        p.skip_ws();
        if p.pos != p.bytes.len() {
            return Err(format!("trailing bytes at offset {}", p.pos));
        }
        Ok(value)
    }

    /// Renders the value compactly (`{"a":1,"b":[true,null]}`).
    pub fn render(&self) -> String {
        let mut out = String::new();
        self.write(&mut out);
        out
    }

    fn write(&self, out: &mut String) {
        match self {
            Json::Null => out.push_str("null"),
            Json::Bool(b) => out.push_str(if *b { "true" } else { "false" }),
            Json::Num(n) => write_num(*n, out),
            Json::Str(s) => write_str(s, out),
            Json::Arr(items) => {
                out.push('[');
                for (i, item) in items.iter().enumerate() {
                    if i > 0 {
                        out.push(',');
                    }
                    item.write(out);
                }
                out.push(']');
            }
            Json::Obj(pairs) => {
                out.push('{');
                for (i, (k, v)) in pairs.iter().enumerate() {
                    if i > 0 {
                        out.push(',');
                    }
                    write_str(k, out);
                    out.push(':');
                    v.write(out);
                }
                out.push('}');
            }
        }
    }
}

impl fmt::Display for Json {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(&self.render())
    }
}

/// A typed read of one JSON value, as [`Fields`] getters return it.
pub trait FromJson<'a>: Sized {
    /// The value as `Self`, or what it must be instead (`"must be a
    /// number"`).
    ///
    /// # Errors
    ///
    /// The static phrase a [`Fields`] error appends to the key.
    fn from_json(v: &'a Json) -> Result<Self, &'static str>;
}

impl<'a> FromJson<'a> for &'a Json {
    fn from_json(v: &'a Json) -> Result<Self, &'static str> {
        Ok(v)
    }
}

impl<'a> FromJson<'a> for &'a str {
    fn from_json(v: &'a Json) -> Result<Self, &'static str> {
        v.as_str().ok_or("must be a string")
    }
}

impl<'a> FromJson<'a> for &'a [Json] {
    fn from_json(v: &'a Json) -> Result<Self, &'static str> {
        v.as_arr().ok_or("must be an array")
    }
}

impl FromJson<'_> for f64 {
    fn from_json(v: &Json) -> Result<Self, &'static str> {
        v.as_f64()
            .filter(|n| n.is_finite())
            .ok_or("must be a number")
    }
}

impl FromJson<'_> for u64 {
    fn from_json(v: &Json) -> Result<Self, &'static str> {
        v.as_u64().ok_or("must be a non-negative integer")
    }
}

impl FromJson<'_> for u32 {
    fn from_json(v: &Json) -> Result<Self, &'static str> {
        u32::try_from(u64::from_json(v)?).map_err(|_| "must be at most 4294967295")
    }
}

impl FromJson<'_> for u8 {
    fn from_json(v: &Json) -> Result<Self, &'static str> {
        u8::try_from(u64::from_json(v)?).map_err(|_| "must be at most 255")
    }
}

/// The strict reader over one JSON object that query requests,
/// workload specs and the manifest are all read through: keys outside
/// an allowed list are rejected, and each typed getter's error reads
/// `{what}: "{key}" …`, so every message names its key. Checking a key
/// allocates nothing; only an error does.
#[derive(Debug, Clone, Copy)]
pub struct Fields<'a> {
    pairs: &'a [(String, Json)],
    what: &'a str,
}

impl<'a> Fields<'a> {
    /// Reads `value` as an object whose keys all appear in `allowed`;
    /// `what` names it in errors.
    ///
    /// # Errors
    ///
    /// When `value` is not an object or holds an unknown key.
    pub fn new(value: &'a Json, what: &'a str, allowed: &[&str]) -> Result<Fields<'a>, String> {
        let pairs = value
            .as_obj()
            .ok_or_else(|| format!("{what} must be a JSON object"))?;
        match pairs.iter().find(|(k, _)| !allowed.contains(&k.as_str())) {
            Some((key, _)) => Err(format!("{what}: {key:?} is an unknown key")),
            None => Ok(Fields { pairs, what }),
        }
    }

    /// Reads the string discriminator `key` of the object `value`, for
    /// objects whose allowed keys depend on it.
    ///
    /// # Errors
    ///
    /// When `value` is not an object or `key` is absent or not a string.
    pub fn kind(value: &'a Json, what: &'a str, key: &str) -> Result<&'a str, String> {
        let pairs = value
            .as_obj()
            .ok_or_else(|| format!("{what} must be a JSON object"))?;
        Fields { pairs, what }.need(key)
    }

    /// The value under `key` as a `T`, or `None` when the key is absent.
    ///
    /// # Errors
    ///
    /// When the value is present but not a `T`.
    pub fn opt<T: FromJson<'a>>(&self, key: &str) -> Result<Option<T>, String> {
        match self.pairs.iter().find(|(k, _)| k == key) {
            None => Ok(None),
            Some((_, v)) => T::from_json(v)
                .map(Some)
                .map_err(|want| format!("{}: {key:?} {want}", self.what)),
        }
    }

    /// The required value under `key` as a `T`.
    ///
    /// # Errors
    ///
    /// When the key is absent or its value is not a `T`.
    pub fn need<T: FromJson<'a>>(&self, key: &str) -> Result<T, String> {
        self.opt(key)?
            .ok_or_else(|| format!("{}: {key:?} is missing", self.what))
    }

    /// The value under `key` as a `T`, or `default` when it is absent.
    ///
    /// # Errors
    ///
    /// When the value is present but not a `T`.
    pub fn or<T: FromJson<'a>>(&self, key: &str, default: T) -> Result<T, String> {
        Ok(self.opt(key)?.unwrap_or(default))
    }
}

/// Writes a number the way JSON expects: integral values without a
/// fraction part, everything else via `f64`'s shortest round-trip form.
/// Non-finite values (which JSON cannot carry) render as `null`.
fn write_num(n: f64, out: &mut String) {
    if !n.is_finite() {
        out.push_str("null");
    } else if n.fract() == 0.0 && n.abs() < 9_007_199_254_740_992.0 {
        out.push_str(&format!("{}", n as i64));
    } else {
        out.push_str(&format!("{n}"));
    }
}

fn write_str(s: &str, out: &mut String) {
    out.push('"');
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
    out.push('"');
}

struct Parser<'a> {
    bytes: &'a [u8],
    pos: usize,
}

impl Parser<'_> {
    fn skip_ws(&mut self) {
        while let Some(&b) = self.bytes.get(self.pos) {
            if b == b' ' || b == b'\t' || b == b'\n' || b == b'\r' {
                self.pos += 1;
            } else {
                break;
            }
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
            Err(format!("expected {:?} at offset {}", b as char, self.pos))
        }
    }

    fn literal(&mut self, word: &str, value: Json) -> Result<Json, String> {
        if self.bytes[self.pos..].starts_with(word.as_bytes()) {
            self.pos += word.len();
            Ok(value)
        } else {
            Err(format!("bad literal at offset {}", self.pos))
        }
    }

    fn value(&mut self, depth: usize) -> Result<Json, String> {
        if depth > MAX_DEPTH {
            return Err(format!("nesting deeper than {MAX_DEPTH}"));
        }
        match self.peek() {
            Some(b'n') => self.literal("null", Json::Null),
            Some(b't') => self.literal("true", Json::Bool(true)),
            Some(b'f') => self.literal("false", Json::Bool(false)),
            Some(b'"') => Ok(Json::Str(self.string()?)),
            Some(b'[') => self.array(depth),
            Some(b'{') => self.object(depth),
            Some(b) if b == b'-' || b.is_ascii_digit() => self.number(),
            Some(b) => Err(format!("unexpected {:?} at offset {}", b as char, self.pos)),
            None => Err("unexpected end of input".to_string()),
        }
    }

    fn array(&mut self, depth: usize) -> Result<Json, String> {
        self.expect(b'[')?;
        let mut items = Vec::new();
        self.skip_ws();
        if self.peek() == Some(b']') {
            self.pos += 1;
            return Ok(Json::Arr(items));
        }
        loop {
            self.skip_ws();
            items.push(self.value(depth + 1)?);
            self.skip_ws();
            match self.peek() {
                Some(b',') => self.pos += 1,
                Some(b']') => {
                    self.pos += 1;
                    return Ok(Json::Arr(items));
                }
                _ => return Err(format!("expected ',' or ']' at offset {}", self.pos)),
            }
        }
    }

    fn object(&mut self, depth: usize) -> Result<Json, String> {
        self.expect(b'{')?;
        let mut pairs: Vec<(String, Json)> = Vec::new();
        self.skip_ws();
        if self.peek() == Some(b'}') {
            self.pos += 1;
            return Ok(Json::Obj(pairs));
        }
        loop {
            self.skip_ws();
            let key = self.string()?;
            if pairs.iter().any(|(k, _)| *k == key) {
                return Err(format!("duplicate key {key:?}"));
            }
            self.skip_ws();
            self.expect(b':')?;
            self.skip_ws();
            let value = self.value(depth + 1)?;
            pairs.push((key, value));
            self.skip_ws();
            match self.peek() {
                Some(b',') => self.pos += 1,
                Some(b'}') => {
                    self.pos += 1;
                    return Ok(Json::Obj(pairs));
                }
                _ => return Err(format!("expected ',' or '}}' at offset {}", self.pos)),
            }
        }
    }

    fn string(&mut self) -> Result<String, String> {
        self.expect(b'"')?;
        let mut out = String::new();
        loop {
            let start = self.pos;
            // Fast path: a run of plain bytes.
            while let Some(&b) = self.bytes.get(self.pos) {
                if b == b'"' || b == b'\\' || b < 0x20 {
                    break;
                }
                self.pos += 1;
            }
            out.push_str(
                std::str::from_utf8(&self.bytes[start..self.pos])
                    .map_err(|_| format!("invalid utf-8 near offset {start}"))?,
            );
            match self.peek() {
                Some(b'"') => {
                    self.pos += 1;
                    return Ok(out);
                }
                Some(b'\\') => {
                    self.pos += 1;
                    let esc = self
                        .peek()
                        .ok_or_else(|| "unterminated escape".to_string())?;
                    self.pos += 1;
                    match esc {
                        b'"' => out.push('"'),
                        b'\\' => out.push('\\'),
                        b'/' => out.push('/'),
                        b'b' => out.push('\u{0008}'),
                        b'f' => out.push('\u{000C}'),
                        b'n' => out.push('\n'),
                        b'r' => out.push('\r'),
                        b't' => out.push('\t'),
                        b'u' => {
                            let hex = self
                                .bytes
                                .get(self.pos..self.pos + 4)
                                .and_then(|h| std::str::from_utf8(h).ok())
                                .ok_or_else(|| "truncated \\u escape".to_string())?;
                            let code = u32::from_str_radix(hex, 16)
                                .map_err(|_| format!("bad \\u escape {hex:?}"))?;
                            self.pos += 4;
                            // Surrogate pairs are not reassembled; lone
                            // surrogates become the replacement char.
                            out.push(char::from_u32(code).unwrap_or('\u{FFFD}'));
                        }
                        other => {
                            return Err(format!("unknown escape \\{}", other as char));
                        }
                    }
                }
                Some(b) if b < 0x20 => {
                    return Err(format!("raw control byte in string at {}", self.pos))
                }
                _ => return Err("unterminated string".to_string()),
            }
        }
    }

    fn number(&mut self) -> Result<Json, String> {
        let start = self.pos;
        if self.peek() == Some(b'-') {
            self.pos += 1;
        }
        while let Some(&b) = self.bytes.get(self.pos) {
            if b.is_ascii_digit() || b == b'.' || b == b'e' || b == b'E' || b == b'+' || b == b'-' {
                self.pos += 1;
            } else {
                break;
            }
        }
        let text = std::str::from_utf8(&self.bytes[start..self.pos])
            .map_err(|_| format!("bad number at offset {start}"))?;
        let n: f64 = text
            .parse()
            .map_err(|_| format!("bad number {text:?} at offset {start}"))?;
        if !n.is_finite() {
            return Err(format!("non-finite number {text:?}"));
        }
        Ok(Json::Num(n))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn scalars_round_trip() {
        for text in ["null", "true", "false", "0", "-3", "2.5", "\"hi\""] {
            let v = Json::parse(text).unwrap();
            assert_eq!(v.render(), text, "round-trip of {text}");
        }
    }

    #[test]
    fn numbers_render_deterministically() {
        assert_eq!(Json::Num(1.0).render(), "1");
        assert_eq!(Json::Num(0.95).render(), "0.95");
        assert_eq!(Json::Num(-2.0).render(), "-2");
        assert_eq!(Json::Num(f64::NAN).render(), "null");
        // Shortest round-trip form re-parses to the same bits.
        let tricky = 0.1 + 0.2;
        let back = Json::parse(&Json::Num(tricky).render()).unwrap();
        assert_eq!(back.as_f64().unwrap().to_bits(), tricky.to_bits());
    }

    #[test]
    fn objects_keep_insertion_order() {
        let v = Json::obj(vec![
            ("zeta", Json::num(1.0)),
            ("alpha", Json::Arr(vec![Json::Bool(true), Json::Null])),
        ]);
        assert_eq!(v.render(), "{\"zeta\":1,\"alpha\":[true,null]}");
        let parsed = Json::parse(&v.render()).unwrap();
        assert_eq!(parsed, v);
    }

    #[test]
    fn accessors_navigate() {
        let v = Json::parse("{\"a\": {\"b\": [1, 2.5, \"x\"]}, \"ok\": true}").unwrap();
        let arr = v.get("a").unwrap().get("b").unwrap().as_arr().unwrap();
        assert_eq!(arr[0].as_u64(), Some(1));
        assert_eq!(arr[1].as_f64(), Some(2.5));
        assert_eq!(arr[1].as_u64(), None, "2.5 is not an exact u64");
        assert_eq!(arr[2].as_str(), Some("x"));
        assert_eq!(v.get("ok").unwrap().as_bool(), Some(true));
        assert_eq!(v.get("missing"), None);
    }

    #[test]
    fn strings_escape_and_unescape() {
        let s = "line\nquote\"back\\slash\ttab\u{1}";
        let rendered = Json::Str(s.to_string()).render();
        assert_eq!(rendered, "\"line\\nquote\\\"back\\\\slash\\ttab\\u0001\"");
        assert_eq!(Json::parse(&rendered).unwrap().as_str(), Some(s));
        assert_eq!(Json::parse("\"\\u00e9\\/\"").unwrap().as_str(), Some("é/"));
    }

    #[test]
    fn malformed_documents_error_not_panic() {
        for bad in [
            "",
            "{",
            "[1,",
            "{\"a\":}",
            "{\"a\":1,}",
            "nul",
            "1 2",
            "\"unterminated",
            "{\"a\":1,\"a\":2}",
            "01e",
            "--1",
            "\"\\q\"",
            "Infinity",
        ] {
            assert!(Json::parse(bad).is_err(), "accepted {bad:?}");
        }
    }

    #[test]
    fn depth_bound_rejects_hostile_nesting() {
        let deep = "[".repeat(100) + &"]".repeat(100);
        assert!(Json::parse(&deep).is_err());
        let fine = "[".repeat(30) + &"]".repeat(30);
        assert!(Json::parse(&fine).is_ok());
    }

    #[test]
    fn unicode_survives() {
        let v = Json::parse("\"φ ΔHR β_m\"").unwrap();
        assert_eq!(v.as_str(), Some("φ ΔHR β_m"));
        assert_eq!(Json::parse(&v.render()).unwrap(), v);
    }

    fn read(text: &str) -> Json {
        Json::parse(text).unwrap()
    }

    #[test]
    fn fields_reject_unknown_keys_and_non_objects() {
        let v = read(r#"{"a":1,"frob":2}"#);
        let err = Fields::new(&v, "thing", &["a"]).unwrap_err();
        assert_eq!(err, r#"thing: "frob" is an unknown key"#);
        assert!(Fields::new(&v, "thing", &["a", "frob"]).is_ok());
        let err = Fields::new(&read("[1]"), "thing", &["a"]).unwrap_err();
        assert_eq!(err, "thing must be a JSON object");
    }

    #[test]
    fn fields_name_missing_and_mistyped_keys() {
        let v = read(r#"{"n":"x","s":1.5,"arr":{}}"#);
        let f = Fields::new(&v, "thing", &["n", "s", "arr", "absent"]).unwrap();
        assert_eq!(
            f.need::<f64>("absent").unwrap_err(),
            r#"thing: "absent" is missing"#
        );
        assert_eq!(
            f.need::<f64>("n").unwrap_err(),
            r#"thing: "n" must be a number"#
        );
        assert_eq!(
            f.need::<u64>("s").unwrap_err(),
            r#"thing: "s" must be a non-negative integer"#
        );
        assert_eq!(
            f.need::<&str>("s").unwrap_err(),
            r#"thing: "s" must be a string"#
        );
        assert_eq!(
            f.need::<&[Json]>("arr").unwrap_err(),
            r#"thing: "arr" must be an array"#
        );
        assert_eq!(f.need::<&str>("n").unwrap(), "x");
        assert_eq!(f.need::<f64>("s").unwrap(), 1.5);
    }

    #[test]
    fn fields_refuse_narrow_overflow_instead_of_truncating() {
        let v = read(r#"{"w":4294967297,"b":256,"ok32":4294967295,"ok8":255}"#);
        let f = Fields::new(&v, "thing", &["w", "b", "ok32", "ok8"]).unwrap();
        assert_eq!(
            f.need::<u32>("w").unwrap_err(),
            r#"thing: "w" must be at most 4294967295"#
        );
        assert_eq!(
            f.need::<u8>("b").unwrap_err(),
            r#"thing: "b" must be at most 255"#
        );
        assert_eq!(f.need::<u64>("w").unwrap(), 4_294_967_297);
        assert_eq!(f.need::<u32>("ok32").unwrap(), u32::MAX);
        assert_eq!(f.need::<u8>("ok8").unwrap(), u8::MAX);
    }

    #[test]
    fn fields_fill_defaults_only_for_absent_keys() {
        let v = read(r#"{"q":3}"#);
        let f = Fields::new(&v, "thing", &["q", "alpha"]).unwrap();
        assert_eq!(f.or("alpha", 0.5).unwrap(), 0.5);
        assert_eq!(f.or("q", 2.0).unwrap(), 3.0);
        assert_eq!(f.opt::<u32>("alpha").unwrap(), None);
        // A present but mistyped key is an error, not the default.
        let v = read(r#"{"q":"three"}"#);
        let f = Fields::new(&v, "thing", &["q"]).unwrap();
        assert!(f.or("q", 2.0).unwrap_err().contains(r#""q""#));
    }
}
