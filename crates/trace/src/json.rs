//! The workspace's one JSON layer: how strings are escaped ([`Str`]),
//! how text is read ([`parse`] into a [`Value`]), and what an absent or
//! ill-typed field reads as ([`Fields`]).
//!
//! Every report, SARIF, explain, Chrome-trace and `BENCH_*.json` writer
//! escapes through [`Str`], and every reader takes fields through
//! [`Fields`]. It is just enough JSON for those files — the workspace
//! builds offline with no crates.io dependencies, so there is no serde —
//! not a general-purpose implementation: numbers are `f64` and object
//! keys come back sorted.

use std::collections::BTreeMap;
use std::fmt::{self, Write as _};

/// A parsed JSON value.
#[derive(Debug, Clone, PartialEq)]
pub enum Value {
    /// `null`.
    Null,
    /// `true` / `false`.
    Bool(bool),
    /// Any number (parsed as `f64`).
    Num(f64),
    /// String.
    Str(String),
    /// Array.
    Arr(Vec<Value>),
    /// Object (key order not preserved).
    Obj(BTreeMap<String, Value>),
}

impl Value {
    /// The string payload, if this is a string.
    pub fn as_str(&self) -> Option<&str> {
        match self {
            Value::Str(s) => Some(s),
            _ => None,
        }
    }

    /// The numeric payload, if this is a number.
    pub fn as_f64(&self) -> Option<f64> {
        match self {
            Value::Num(n) => Some(*n),
            _ => None,
        }
    }

    /// The boolean payload, if this is a boolean.
    pub fn as_bool(&self) -> Option<bool> {
        match self {
            Value::Bool(b) => Some(*b),
            _ => None,
        }
    }

    /// The elements, if this is an array.
    pub fn as_array(&self) -> Option<&[Value]> {
        match self {
            Value::Arr(a) => Some(a),
            _ => None,
        }
    }

    /// The members, if this is an object.
    pub fn as_object(&self) -> Option<&BTreeMap<String, Value>> {
        match self {
            Value::Obj(o) => Some(o),
            _ => None,
        }
    }
}

/// A string written as a JSON string literal, quotes included: `"`,
/// `\`, newline, tab and carriage return get their short escapes, other
/// characters below U+0020 are written `\u00XX`, and everything else
/// (non-ASCII included) is copied as is.
pub struct Str<'a>(pub &'a str);

impl fmt::Display for Str<'_> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let s = self.0;
        f.write_char('"')?;
        // Escaped bytes are all ASCII, so every cut is a char boundary
        // and unescaped runs are copied whole.
        let mut run = 0;
        for (i, b) in s.bytes().enumerate() {
            let short = match b {
                b'"' => "\\\"",
                b'\\' => "\\\\",
                b'\n' => "\\n",
                b'\t' => "\\t",
                b'\r' => "\\r",
                0..=0x1f => "",
                _ => continue,
            };
            f.write_str(&s[run..i])?;
            if short.is_empty() {
                write!(f, "\\u{b:04x}")?;
            } else {
                f.write_str(short)?;
            }
            run = i + 1;
        }
        f.write_str(&s[run..])?;
        f.write_char('"')
    }
}

/// Write each of `items` into `out` through `write`, with `sep` between
/// consecutive items.
pub fn join<T>(
    out: &mut String,
    sep: &str,
    items: impl IntoIterator<Item = T>,
    mut write: impl FnMut(&mut String, T),
) {
    for (i, item) in items.into_iter().enumerate() {
        if i > 0 {
            out.push_str(sep);
        }
        write(out, item);
    }
}

/// Typed access to the fields of one parsed JSON object, with the one
/// missing-field policy every reader shares. [`req`](Fields::req) and
/// [`str`](Fields::str) fail with `{what}: missing "key"` when the field
/// is absent or has the wrong type; every other accessor reads such a
/// field as empty: `None`, 0, or no items.
#[derive(Clone, Copy)]
pub struct Fields<'a> {
    obj: &'a BTreeMap<String, Value>,
    what: &'a str,
}

impl<'a> Fields<'a> {
    /// The fields of `v`, which must be an object; `what` names it in
    /// error messages.
    pub fn new(v: &'a Value, what: &'a str) -> Result<Fields<'a>, String> {
        match v {
            Value::Obj(obj) => Ok(Fields { obj, what }),
            _ => Err(format!("{what}: expected a JSON object")),
        }
    }

    /// The raw value of `key`, if present.
    pub fn get(&self, key: &str) -> Option<&'a Value> {
        self.obj.get(key)
    }

    /// A required field, converted by `read`; `None` from `read` counts
    /// as missing.
    pub fn req<T>(
        &self,
        key: &str,
        read: impl FnOnce(&'a Value) -> Option<T>,
    ) -> Result<T, String> {
        self.get(key)
            .and_then(read)
            .ok_or_else(|| format!("{}: missing \"{key}\"", self.what))
    }

    /// A required string field.
    pub fn str(&self, key: &str) -> Result<String, String> {
        self.req(key, |v| v.as_str().map(str::to_string))
    }

    /// An optional string field.
    pub fn opt_str(&self, key: &str) -> Option<&'a str> {
        self.get(key).and_then(Value::as_str)
    }

    /// A number field, 0 when absent.
    pub fn num(&self, key: &str) -> f64 {
        self.get(key).and_then(Value::as_f64).unwrap_or(0.0)
    }

    /// A `u64` written as a hex string (it would not survive the `f64`
    /// number path), 0 when absent.
    pub fn hex(&self, key: &str) -> u64 {
        self.opt_str(key)
            .and_then(|h| u64::from_str_radix(h, 16).ok())
            .unwrap_or(0)
    }

    /// An array field with every element converted by `read`; empty
    /// when absent.
    pub fn list<T>(
        &self,
        key: &str,
        read: impl FnMut(&'a Value) -> Result<T, String>,
    ) -> Result<Vec<T>, String> {
        let items = self.get(key).and_then(Value::as_array).unwrap_or(&[]);
        items.iter().map(read).collect()
    }

    /// The members of an object field, in key order; none when absent.
    pub fn members(&self, key: &str) -> impl Iterator<Item = (&'a String, &'a Value)> {
        self.get(key)
            .and_then(Value::as_object)
            .into_iter()
            .flatten()
    }
}

/// Deepest `[`/`{` nesting [`parse`] accepts. Reports nest a few
/// levels; the parser recurses once per level, so an untrusted
/// `--resume` file must not choose the stack depth.
pub const MAX_DEPTH: usize = 128;

/// Parse one JSON document.
pub fn parse(text: &str) -> Result<Value, String> {
    let bytes = text.as_bytes();
    let mut pos = 0usize;
    let v = parse_value(bytes, &mut pos, 0)?;
    skip_ws(bytes, &mut pos);
    if pos != bytes.len() {
        return Err(format!("json: trailing data at byte {pos}"));
    }
    Ok(v)
}

fn skip_ws(b: &[u8], pos: &mut usize) {
    while *pos < b.len() && matches!(b[*pos], b' ' | b'\t' | b'\n' | b'\r') {
        *pos += 1;
    }
}

fn expect(b: &[u8], pos: &mut usize, c: u8) -> Result<(), String> {
    skip_ws(b, pos);
    if *pos < b.len() && b[*pos] == c {
        *pos += 1;
        Ok(())
    } else {
        Err(format!("json: expected `{}` at byte {pos}", c as char))
    }
}

fn parse_value(b: &[u8], pos: &mut usize, depth: usize) -> Result<Value, String> {
    skip_ws(b, pos);
    if depth >= MAX_DEPTH && matches!(b.get(*pos), Some(b'{' | b'[')) {
        return Err(format!(
            "json: nesting deeper than {MAX_DEPTH} levels at byte {pos}"
        ));
    }
    match b.get(*pos) {
        None => Err("json: unexpected end of input".into()),
        Some(b'{') => {
            *pos += 1;
            let mut map = BTreeMap::new();
            skip_ws(b, pos);
            if b.get(*pos) == Some(&b'}') {
                *pos += 1;
                return Ok(Value::Obj(map));
            }
            loop {
                skip_ws(b, pos);
                let key = parse_string(b, pos)?;
                expect(b, pos, b':')?;
                let val = parse_value(b, pos, depth + 1)?;
                map.insert(key, val);
                skip_ws(b, pos);
                match b.get(*pos) {
                    Some(b',') => *pos += 1,
                    Some(b'}') => {
                        *pos += 1;
                        return Ok(Value::Obj(map));
                    }
                    _ => return Err(format!("json: expected `,` or `}}` at byte {pos}")),
                }
            }
        }
        Some(b'[') => {
            *pos += 1;
            let mut arr = Vec::new();
            skip_ws(b, pos);
            if b.get(*pos) == Some(&b']') {
                *pos += 1;
                return Ok(Value::Arr(arr));
            }
            loop {
                arr.push(parse_value(b, pos, depth + 1)?);
                skip_ws(b, pos);
                match b.get(*pos) {
                    Some(b',') => *pos += 1,
                    Some(b']') => {
                        *pos += 1;
                        return Ok(Value::Arr(arr));
                    }
                    _ => return Err(format!("json: expected `,` or `]` at byte {pos}")),
                }
            }
        }
        Some(b'"') => Ok(Value::Str(parse_string(b, pos)?)),
        Some(b't') if b[*pos..].starts_with(b"true") => {
            *pos += 4;
            Ok(Value::Bool(true))
        }
        Some(b'f') if b[*pos..].starts_with(b"false") => {
            *pos += 5;
            Ok(Value::Bool(false))
        }
        Some(b'n') if b[*pos..].starts_with(b"null") => {
            *pos += 4;
            Ok(Value::Null)
        }
        Some(_) => {
            let start = *pos;
            while *pos < b.len()
                && matches!(b[*pos], b'0'..=b'9' | b'-' | b'+' | b'.' | b'e' | b'E')
            {
                *pos += 1;
            }
            let s = std::str::from_utf8(&b[start..*pos]).map_err(|e| e.to_string())?;
            s.parse::<f64>()
                .map(Value::Num)
                .map_err(|_| format!("json: bad number `{s}` at byte {start}"))
        }
    }
}

/// The four hex digits of a `\u` escape starting at `at`.
fn hex4(b: &[u8], at: usize) -> Result<u32, String> {
    let digits = b.get(at..at + 4).ok_or("json: truncated \\u escape")?;
    digits
        .iter()
        .try_fold(0, |code, &d| match (d as char).to_digit(16) {
            Some(v) => Ok(code * 16 + v),
            None => Err(format!("json: bad \\u escape at byte {at}")),
        })
}

fn parse_string(b: &[u8], pos: &mut usize) -> Result<String, String> {
    if b.get(*pos) != Some(&b'"') {
        return Err(format!("json: expected string at byte {pos}"));
    }
    *pos += 1;
    let mut out = String::new();
    loop {
        match b.get(*pos) {
            None => return Err("json: unterminated string".into()),
            Some(b'"') => {
                *pos += 1;
                return Ok(out);
            }
            Some(b'\\') => {
                *pos += 1;
                match b.get(*pos) {
                    Some(b'"') => out.push('"'),
                    Some(b'\\') => out.push('\\'),
                    Some(b'/') => out.push('/'),
                    Some(b'n') => out.push('\n'),
                    Some(b't') => out.push('\t'),
                    Some(b'r') => out.push('\r'),
                    Some(b'b') => out.push('\u{8}'),
                    Some(b'f') => out.push('\u{c}'),
                    Some(b'u') => {
                        let mut code = hex4(b, *pos + 1)?;
                        *pos += 4;
                        // A high surrogate followed by a low-surrogate
                        // escape is one UTF-16 pair; a lone surrogate
                        // becomes U+FFFD below.
                        if (0xD800..0xDC00).contains(&code) && b[*pos + 1..].starts_with(b"\\u") {
                            if let Ok(low @ 0xDC00..=0xDFFF) = hex4(b, *pos + 3) {
                                code = 0x10000 + ((code - 0xD800) << 10) + (low - 0xDC00);
                                *pos += 6;
                            }
                        }
                        out.push(char::from_u32(code).unwrap_or('\u{fffd}'));
                    }
                    _ => return Err("json: bad escape".into()),
                }
                *pos += 1;
            }
            Some(_) => {
                // Copy one UTF-8 scalar (multi-byte safe).
                let start = *pos;
                *pos += 1;
                while *pos < b.len() && (b[*pos] & 0xC0) == 0x80 {
                    *pos += 1;
                }
                out.push_str(std::str::from_utf8(&b[start..*pos]).map_err(|e| e.to_string())?);
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn json_escaping() {
        let s = "plain \"q\" \\ \n \t \r \u{0} \u{1f} \u{7f} / é 😀";
        assert_eq!(
            Str(s).to_string(),
            "\"plain \\\"q\\\" \\\\ \\n \\t \\r \\u0000 \\u001f \u{7f} / é 😀\""
        );
        assert_eq!(Str("").to_string(), "\"\"");
        assert_eq!(parse(&Str(s).to_string()), Ok(Value::Str(s.to_string())));
    }

    #[test]
    fn unicode_escapes_decode_pairs_and_need_four_hex_digits() {
        let read = |text: &str| parse(text).map(|v| v.as_str().unwrap().to_string());
        assert_eq!(read(r#""\ud83d\ude00""#).unwrap(), "😀");
        assert_eq!(read(r#""\u00e9\u0041""#).unwrap(), "éA");
        // Lone surrogates, and a high surrogate before a non-surrogate
        // escape, each read as U+FFFD.
        assert_eq!(read(r#""\ud83d""#).unwrap(), "\u{fffd}");
        assert_eq!(read(r#""\ude00x""#).unwrap(), "\u{fffd}x");
        assert_eq!(read(r#""\ud83dA""#).unwrap(), "\u{fffd}A");
        assert_eq!(read(r#""\ud83d\ud83d\ude00""#).unwrap(), "\u{fffd}😀");
        for bad in [r#""\u+041""#, r#""\u00g1""#, r#""\u-041""#, r#""\u12""#] {
            assert!(read(bad).is_err(), "{bad}");
        }
        assert!(read(r#""\ud83d\u+041""#).is_err());
    }

    #[test]
    fn fields_share_one_missing_field_policy() {
        let v =
            parse(r#"{"s": "x", "n": 2.5, "h": "ff", "a": [1, 2], "o": {"k": 1}, "bad": true}"#)
                .unwrap();
        let f = Fields::new(&v, "thing").unwrap();
        assert_eq!(f.str("s").unwrap(), "x");
        assert_eq!(f.str("none").unwrap_err(), "thing: missing \"none\"");
        assert_eq!(f.str("bad").unwrap_err(), "thing: missing \"bad\"");
        assert_eq!(f.req("n", Value::as_f64), Ok(2.5));
        assert_eq!(
            f.req("s", Value::as_f64).unwrap_err(),
            "thing: missing \"s\""
        );
        assert_eq!(
            (f.opt_str("s"), f.opt_str("n"), f.opt_str("none")),
            (Some("x"), None, None)
        );
        assert_eq!((f.num("n"), f.num("s"), f.num("none")), (2.5, 0.0, 0.0));
        assert_eq!((f.hex("h"), f.hex("s"), f.hex("none")), (255, 0, 0));
        let nums = |v: &Value| v.as_f64().ok_or("not a number".to_string());
        assert_eq!(f.list("a", nums), Ok(vec![1.0, 2.0]));
        assert_eq!(f.list("none", nums), Ok(vec![]));
        assert_eq!(f.list("bad", nums), Ok(vec![]));
        assert_eq!(f.list("o", nums), Ok(vec![]));
        let keys: Vec<&String> = f.members("o").map(|(k, _)| k).collect();
        assert_eq!(keys, ["k"]);
        assert_eq!(f.members("a").count() + f.members("none").count(), 0);
        assert!(f.get("o").is_some());
        let err = Fields::new(&Value::Null, "thing").err().unwrap();
        assert_eq!(err, "thing: expected a JSON object");
    }
}
