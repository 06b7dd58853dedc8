//! A dependency-free JSON subset: enough to write and re-read run
//! reports. Supports objects, arrays, strings (with the standard
//! escapes), unsigned integers, and `null` — exactly what [`crate::RunReport`]
//! emits. Floats, booleans, and exotic escapes are out of scope.

use std::fmt::Write as _;

/// A parsed JSON value (subset: no floats or booleans).
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum JsonValue {
    /// `null`.
    Null,
    /// An unsigned integer.
    Num(u64),
    /// A string.
    Str(String),
    /// An array.
    Arr(Vec<JsonValue>),
    /// An object, in source order.
    Obj(Vec<(String, JsonValue)>),
}

/// A parse failure, with a byte offset into the input.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct JsonError {
    /// Byte offset where parsing failed.
    pub at: usize,
    /// What went wrong.
    pub msg: &'static str,
}

impl std::fmt::Display for JsonError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "json error at byte {}: {}", self.at, self.msg)
    }
}

impl std::error::Error for JsonError {}

/// Deepest nesting of arrays and objects [`JsonValue::parse`] accepts. The
/// parser recurses once per level and most of its input comes off a socket
/// (a 4 MiB request line holds four million `[`; ten thousand overflow a
/// worker's stack and abort the process), so the peer must not choose the
/// depth. The deepest document this system writes is the `patterns` reply
/// at five levels (object, array, object, code array, tuple).
const MAX_DEPTH: usize = 64;

impl JsonValue {
    /// Serializes with `\"`/`\\` and control-character escaping.
    pub fn to_json(&self) -> String {
        let mut out = String::new();
        self.write(&mut out);
        out
    }

    fn write(&self, out: &mut String) {
        match self {
            JsonValue::Null => out.push_str("null"),
            JsonValue::Num(n) => {
                let _ = write!(out, "{n}");
            }
            JsonValue::Str(s) => write_escaped(s, out),
            JsonValue::Arr(items) => {
                out.push('[');
                for (i, item) in items.iter().enumerate() {
                    if i > 0 {
                        out.push(',');
                    }
                    item.write(out);
                }
                out.push(']');
            }
            JsonValue::Obj(fields) => {
                out.push('{');
                for (i, (k, v)) in fields.iter().enumerate() {
                    if i > 0 {
                        out.push(',');
                    }
                    write_escaped(k, out);
                    out.push(':');
                    v.write(out);
                }
                out.push('}');
            }
        }
    }

    /// Parses a value, requiring the whole input to be consumed. Nesting
    /// deeper than `MAX_DEPTH` is an error.
    pub fn parse(input: &str) -> Result<JsonValue, JsonError> {
        let bytes = input.as_bytes();
        let mut pos = 0;
        let v = parse_value(bytes, &mut pos, 0)?;
        skip_ws(bytes, &mut pos);
        if pos != bytes.len() {
            return Err(JsonError { at: pos, msg: "trailing input" });
        }
        Ok(v)
    }

    /// The fields of an object, or `None` for other variants.
    pub fn as_obj(&self) -> Option<&[(String, JsonValue)]> {
        match self {
            JsonValue::Obj(fields) => Some(fields),
            _ => None,
        }
    }

    /// Looks a field up in an object by key.
    pub fn field(&self, key: &str) -> Option<&JsonValue> {
        self.as_obj()?.iter().find(|(k, _)| k == key).map(|(_, v)| v)
    }

    /// The items of an array, or `None` for other variants.
    pub fn as_arr(&self) -> Option<&[JsonValue]> {
        match self {
            JsonValue::Arr(items) => Some(items),
            _ => None,
        }
    }

    /// The integer value, or `None` for other variants.
    pub fn as_num(&self) -> Option<u64> {
        match self {
            JsonValue::Num(n) => Some(*n),
            _ => None,
        }
    }

    /// The string value, or `None` for other variants.
    pub fn as_str(&self) -> Option<&str> {
        match self {
            JsonValue::Str(s) => Some(s),
            _ => None,
        }
    }
}

fn write_escaped(s: &str, out: &mut String) {
    out.push('"');
    for ch in s.chars() {
        match ch {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '\t' => out.push_str("\\t"),
            '\r' => out.push_str("\\r"),
            c if (c as u32) < 0x20 => {
                let _ = write!(out, "\\u{:04x}", c as u32);
            }
            c => out.push(c),
        }
    }
    out.push('"');
}

fn skip_ws(bytes: &[u8], pos: &mut usize) {
    while *pos < bytes.len() && matches!(bytes[*pos], b' ' | b'\t' | b'\n' | b'\r') {
        *pos += 1;
    }
}

/// Parses one value that sits inside `depth` enclosing arrays and objects.
fn parse_value(bytes: &[u8], pos: &mut usize, depth: usize) -> Result<JsonValue, JsonError> {
    skip_ws(bytes, pos);
    match bytes.get(*pos) {
        None => Err(JsonError { at: *pos, msg: "unexpected end of input" }),
        Some(b'[' | b'{') if depth == MAX_DEPTH => {
            Err(JsonError { at: *pos, msg: "nesting too deep" })
        }
        Some(b'n') => {
            if bytes[*pos..].starts_with(b"null") {
                *pos += 4;
                Ok(JsonValue::Null)
            } else {
                Err(JsonError { at: *pos, msg: "expected null" })
            }
        }
        Some(b'"') => parse_string(bytes, pos).map(JsonValue::Str),
        Some(b'[') => {
            *pos += 1;
            let mut items = Vec::new();
            skip_ws(bytes, pos);
            if bytes.get(*pos) == Some(&b']') {
                *pos += 1;
                return Ok(JsonValue::Arr(items));
            }
            loop {
                items.push(parse_value(bytes, pos, depth + 1)?);
                skip_ws(bytes, pos);
                match bytes.get(*pos) {
                    Some(b',') => *pos += 1,
                    Some(b']') => {
                        *pos += 1;
                        return Ok(JsonValue::Arr(items));
                    }
                    _ => return Err(JsonError { at: *pos, msg: "expected , or ]" }),
                }
            }
        }
        Some(b'{') => {
            *pos += 1;
            let mut fields = Vec::new();
            skip_ws(bytes, pos);
            if bytes.get(*pos) == Some(&b'}') {
                *pos += 1;
                return Ok(JsonValue::Obj(fields));
            }
            loop {
                skip_ws(bytes, pos);
                let key = parse_string(bytes, pos)?;
                skip_ws(bytes, pos);
                if bytes.get(*pos) != Some(&b':') {
                    return Err(JsonError { at: *pos, msg: "expected :" });
                }
                *pos += 1;
                let value = parse_value(bytes, pos, depth + 1)?;
                fields.push((key, value));
                skip_ws(bytes, pos);
                match bytes.get(*pos) {
                    Some(b',') => *pos += 1,
                    Some(b'}') => {
                        *pos += 1;
                        return Ok(JsonValue::Obj(fields));
                    }
                    _ => return Err(JsonError { at: *pos, msg: "expected , or }" }),
                }
            }
        }
        Some(c) if c.is_ascii_digit() => {
            let start = *pos;
            let mut n: u64 = 0;
            while let Some(d) = bytes.get(*pos).filter(|b| b.is_ascii_digit()) {
                n = n
                    .checked_mul(10)
                    .and_then(|n| n.checked_add(u64::from(d - b'0')))
                    .ok_or(JsonError { at: start, msg: "integer overflow" })?;
                *pos += 1;
            }
            Ok(JsonValue::Num(n))
        }
        Some(_) => Err(JsonError { at: *pos, msg: "unexpected character" }),
    }
}

fn parse_string(bytes: &[u8], pos: &mut usize) -> Result<String, JsonError> {
    if bytes.get(*pos) != Some(&b'"') {
        return Err(JsonError { at: *pos, msg: "expected string" });
    }
    *pos += 1;
    let mut out = String::new();
    loop {
        match bytes.get(*pos) {
            None => return Err(JsonError { at: *pos, msg: "unterminated string" }),
            Some(b'"') => {
                *pos += 1;
                return Ok(out);
            }
            Some(b'\\') => {
                *pos += 1;
                match bytes.get(*pos) {
                    Some(b'"') => out.push('"'),
                    Some(b'\\') => out.push('\\'),
                    Some(b'/') => out.push('/'),
                    Some(b'n') => out.push('\n'),
                    Some(b't') => out.push('\t'),
                    Some(b'r') => out.push('\r'),
                    Some(b'u') => {
                        let hex = bytes
                            .get(*pos + 1..*pos + 5)
                            .and_then(|h| std::str::from_utf8(h).ok())
                            .ok_or(JsonError { at: *pos, msg: "bad \\u escape" })?;
                        let code = u32::from_str_radix(hex, 16)
                            .map_err(|_| JsonError { at: *pos, msg: "bad \\u escape" })?;
                        out.push(
                            char::from_u32(code)
                                .ok_or(JsonError { at: *pos, msg: "bad \\u escape" })?,
                        );
                        *pos += 4;
                    }
                    _ => return Err(JsonError { at: *pos, msg: "bad escape" }),
                }
                *pos += 1;
            }
            Some(_) => {
                // Copy the full UTF-8 character, not just one byte.
                let rest = std::str::from_utf8(&bytes[*pos..])
                    .map_err(|_| JsonError { at: *pos, msg: "invalid utf-8" })?;
                let ch = rest.chars().next().unwrap();
                out.push(ch);
                *pos += ch.len_utf8();
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn round_trips_nested_structure() {
        let v = JsonValue::Obj(vec![
            ("name".into(), JsonValue::Str("merge_join".into())),
            ("node".into(), JsonValue::Null),
            ("dur_ns".into(), JsonValue::Num(123456789)),
            ("children".into(), JsonValue::Arr(vec![JsonValue::Num(1), JsonValue::Num(2)])),
        ]);
        let text = v.to_json();
        assert_eq!(JsonValue::parse(&text).unwrap(), v);
    }

    #[test]
    fn escapes_round_trip() {
        let v = JsonValue::Str("quote \" slash \\ newline \n tab \t bell \u{7}".into());
        assert_eq!(JsonValue::parse(&v.to_json()).unwrap(), v);
    }

    #[test]
    fn accepts_whitespace_everywhere() {
        let v = JsonValue::parse(" { \"a\" : [ 1 , null ] } ").unwrap();
        assert_eq!(v.field("a").unwrap().as_arr().unwrap().len(), 2);
    }

    #[test]
    fn rejects_garbage() {
        assert!(JsonValue::parse("{").is_err());
        assert!(JsonValue::parse("[1,]").is_err());
        assert!(JsonValue::parse("12 34").is_err());
        assert!(JsonValue::parse("\"open").is_err());
        assert!(JsonValue::parse("99999999999999999999999").is_err());
    }

    #[test]
    fn nesting_is_capped() {
        for (open, leaf, close) in [("[", "", "]"), ("{\"a\":", "null", "}")] {
            let nested = |n: usize| format!("{}{leaf}{}", open.repeat(n), close.repeat(n));
            assert!(JsonValue::parse(&nested(MAX_DEPTH)).is_ok(), "{open} at the cap");
            // One level more, and a hostile prefix far past any stack.
            for doc in [nested(MAX_DEPTH + 1), open.repeat(100_000)] {
                let err = JsonValue::parse(&doc).unwrap_err();
                assert_eq!((err.at, err.msg), (open.len() * MAX_DEPTH, "nesting too deep"));
            }
        }
    }
}
