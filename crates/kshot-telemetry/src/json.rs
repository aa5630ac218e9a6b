//! A minimal recursive-descent JSON parser that builds a [`Value`] tree —
//! enough to read back this crate's own exporter output (JSON-lines
//! shards, Chrome traces, `BENCH_*.json`) without pulling in serde.
//! Numbers are parsed as `f64`; strings decode the standard escapes.
//! Shard lines are not read through it: [`crate::ShardLine::decode`]
//! scans a line without a tree and reads integers exactly. This parser
//! is kept apart from that reader as the reference the tests compare it
//! against, and it serves the BENCH and Chrome-trace checks.

/// A parsed JSON value.
#[derive(Debug, Clone, PartialEq)]
pub enum Value {
    /// `null`.
    Null,
    /// `true` / `false`.
    Bool(bool),
    /// Any JSON number, as `f64`: integer-exact only up to 2^53.
    Number(f64),
    /// A string with escapes decoded.
    String(String),
    /// `[...]`.
    Array(Vec<Value>),
    /// `{...}` as an ordered key/value list (duplicate keys preserved).
    Object(Vec<(String, Value)>),
}

impl Value {
    /// Member lookup on an object (first match), `None` otherwise.
    pub fn get(&self, key: &str) -> Option<&Value> {
        match self {
            Value::Object(items) => items.iter().find(|(k, _)| k == key).map(|(_, v)| v),
            _ => None,
        }
    }

    /// The value as a non-negative integer, if it is a whole number.
    pub fn as_u64(&self) -> Option<u64> {
        match self {
            Value::Number(n) if *n >= 0.0 && n.fract() == 0.0 => Some(*n as u64),
            _ => None,
        }
    }

    /// The value as a signed integer, if it is a whole number.
    pub fn as_i64(&self) -> Option<i64> {
        match self {
            Value::Number(n) if n.fract() == 0.0 => Some(*n as i64),
            _ => None,
        }
    }

    /// The value as a boolean, if it is one.
    pub fn as_bool(&self) -> Option<bool> {
        match self {
            Value::Bool(b) => Some(*b),
            _ => None,
        }
    }

    /// The value as a string slice, if it is a string.
    pub fn as_str(&self) -> Option<&str> {
        match self {
            Value::String(s) => Some(s.as_str()),
            _ => None,
        }
    }
}

/// Deepest array/object nesting [`parse`] accepts: 128. Shard lines nest
/// at most 3 levels (a `rollup` frontier node), Chrome traces 4 and
/// `BENCH_fleet.json` 5, so the limit only ever rejects corrupt or
/// hostile input — which would otherwise recurse once per `[` or `{`
/// until the thread's stack overflowed and the process aborted.
pub const MAX_DEPTH: usize = 128;

/// Parse one complete JSON document.
///
/// # Errors
///
/// A human-readable description with a byte offset on malformed input,
/// trailing data, or nesting deeper than [`MAX_DEPTH`].
pub fn parse(input: &str) -> Result<Value, String> {
    let mut p = Parser {
        bytes: input.as_bytes(),
        pos: 0,
        depth: 0,
    };
    p.skip_ws();
    let v = p.value()?;
    p.skip_ws();
    if p.pos != p.bytes.len() {
        return Err(format!("trailing data at byte {}", p.pos));
    }
    Ok(v)
}

struct Parser<'a> {
    bytes: &'a [u8],
    pos: usize,
    /// Arrays and objects currently open.
    depth: usize,
}

impl Parser<'_> {
    fn peek(&self) -> Option<u8> {
        self.bytes.get(self.pos).copied()
    }

    fn skip_ws(&mut self) {
        while matches!(self.peek(), Some(b' ' | b'\t' | b'\n' | b'\r')) {
            self.pos += 1;
        }
    }

    fn expect(&mut self, b: u8) -> Result<(), String> {
        if self.peek() == Some(b) {
            self.pos += 1;
            Ok(())
        } else {
            Err(format!(
                "expected {:?} at byte {}, found {:?}",
                b as char,
                self.pos,
                self.peek().map(|c| c as char)
            ))
        }
    }

    fn value(&mut self) -> Result<Value, String> {
        match self.peek() {
            Some(open @ (b'{' | b'[')) => {
                if self.depth == MAX_DEPTH {
                    return Err(format!(
                        "nesting deeper than {MAX_DEPTH} at byte {}",
                        self.pos
                    ));
                }
                self.depth += 1;
                let v = if open == b'{' {
                    self.object()
                } else {
                    self.array()
                };
                self.depth -= 1;
                v
            }
            Some(b'"') => Ok(Value::String(self.string()?)),
            Some(b't') => self.literal("true", Value::Bool(true)),
            Some(b'f') => self.literal("false", Value::Bool(false)),
            Some(b'n') => self.literal("null", Value::Null),
            Some(c) if c == b'-' || c.is_ascii_digit() => self.number(),
            other => Err(format!("unexpected {other:?} at byte {}", self.pos)),
        }
    }

    fn literal(&mut self, lit: &str, v: Value) -> Result<Value, String> {
        if self.bytes[self.pos..].starts_with(lit.as_bytes()) {
            self.pos += lit.len();
            Ok(v)
        } else {
            Err(format!("bad literal at byte {}", self.pos))
        }
    }

    fn number(&mut self) -> Result<Value, String> {
        let start = self.pos;
        if self.peek() == Some(b'-') {
            self.pos += 1;
        }
        while matches!(self.peek(), Some(c) if c.is_ascii_digit() || c == b'.' || c == b'e' || c == b'E' || c == b'+' || c == b'-')
        {
            self.pos += 1;
        }
        std::str::from_utf8(&self.bytes[start..self.pos])
            .map_err(|e| e.to_string())?
            .parse::<f64>()
            .map(Value::Number)
            .map_err(|e| format!("bad number at byte {start}: {e}"))
    }

    fn string(&mut self) -> Result<String, String> {
        self.expect(b'"')?;
        let mut out = String::new();
        loop {
            match self.peek() {
                None => return Err("unterminated string".to_string()),
                Some(b'"') => {
                    self.pos += 1;
                    return Ok(out);
                }
                Some(b'\\') => {
                    self.pos += 1;
                    let esc = self.peek().ok_or("unterminated escape")?;
                    self.pos += 1;
                    match esc {
                        b'"' => out.push('"'),
                        b'\\' => out.push('\\'),
                        b'/' => out.push('/'),
                        b'n' => out.push('\n'),
                        b'r' => out.push('\r'),
                        b't' => out.push('\t'),
                        b'b' => out.push('\u{8}'),
                        b'f' => out.push('\u{c}'),
                        b'u' => {
                            if self.pos + 4 > self.bytes.len() {
                                return Err("truncated \\u escape".to_string());
                            }
                            let hex = std::str::from_utf8(&self.bytes[self.pos..self.pos + 4])
                                .map_err(|e| e.to_string())?;
                            let code = u32::from_str_radix(hex, 16)
                                .map_err(|e| format!("bad \\u escape: {e}"))?;
                            out.push(char::from_u32(code).unwrap_or('\u{FFFD}'));
                            self.pos += 4;
                        }
                        other => return Err(format!("bad escape {:?}", other as char)),
                    }
                }
                Some(c) if c < 0x20 => return Err(format!("raw control byte {c:#04x} in string")),
                Some(_) => {
                    // Copy the run of plain bytes up to the next quote,
                    // backslash or control byte as one slice. Those are
                    // ASCII, so the run ends on a UTF-8 boundary of the
                    // &str input, and each byte is validated once.
                    let start = self.pos;
                    while matches!(self.peek(), Some(c) if c != b'"' && c != b'\\' && c >= 0x20) {
                        self.pos += 1;
                    }
                    let run = std::str::from_utf8(&self.bytes[start..self.pos])
                        .map_err(|e| e.to_string())?;
                    out.push_str(run);
                }
            }
        }
    }

    fn array(&mut self) -> Result<Value, String> {
        self.expect(b'[')?;
        let mut items = Vec::new();
        self.skip_ws();
        if self.peek() == Some(b']') {
            self.pos += 1;
            return Ok(Value::Array(items));
        }
        loop {
            self.skip_ws();
            items.push(self.value()?);
            self.skip_ws();
            match self.peek() {
                Some(b',') => self.pos += 1,
                Some(b']') => {
                    self.pos += 1;
                    return Ok(Value::Array(items));
                }
                other => return Err(format!("expected , or ] got {other:?}")),
            }
        }
    }

    fn object(&mut self) -> Result<Value, String> {
        self.expect(b'{')?;
        let mut items = Vec::new();
        self.skip_ws();
        if self.peek() == Some(b'}') {
            self.pos += 1;
            return Ok(Value::Object(items));
        }
        loop {
            self.skip_ws();
            let key = self.string()?;
            self.skip_ws();
            self.expect(b':')?;
            self.skip_ws();
            let val = self.value()?;
            items.push((key, val));
            self.skip_ws();
            match self.peek() {
                Some(b',') => self.pos += 1,
                Some(b'}') => {
                    self.pos += 1;
                    return Ok(Value::Object(items));
                }
                other => return Err(format!("expected , or }} got {other:?}")),
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn parses_exporter_shapes() {
        let v = parse(r#"{"type":"span","v":1,"name":"smm.decrypt","wall_dur_ns":42}"#).unwrap();
        assert_eq!(v.get("type").and_then(Value::as_str), Some("span"));
        assert_eq!(v.get("v").and_then(Value::as_u64), Some(1));
        assert_eq!(v.get("wall_dur_ns").and_then(Value::as_u64), Some(42));
        assert_eq!(v.get("missing"), None);
    }

    #[test]
    fn decodes_escapes_and_rejects_garbage() {
        let v = parse(r#""a\"b\\c\ndA""#).unwrap();
        assert_eq!(v.as_str(), Some("a\"b\\c\ndA"));
        assert!(parse("{").is_err());
        assert!(parse("{\"a\":1} trailing").is_err());
        assert!(parse("[1,2,]").is_err());
    }

    fn nested(depth: usize) -> String {
        "[".repeat(depth) + &"]".repeat(depth)
    }

    #[test]
    fn nesting_is_bounded_with_a_typed_error() {
        assert!(parse(&nested(MAX_DEPTH)).is_ok());
        let err = parse(&nested(MAX_DEPTH + 1)).unwrap_err();
        assert_eq!(
            err,
            format!("nesting deeper than {MAX_DEPTH} at byte {MAX_DEPTH}")
        );
        let err = parse(&format!("{{\"a\":{}}}", nested(MAX_DEPTH))).unwrap_err();
        assert!(err.contains(&format!("at byte {}", MAX_DEPTH + 4)), "{err}");
        // A hostile line far past the limit fails typed on a default
        // 2 MiB thread — the stack a campaign's health monitor gets —
        // instead of overflowing it and aborting the process.
        let deep = "[".repeat(200_000);
        let outcome = std::thread::Builder::new()
            .stack_size(2 << 20)
            .spawn(move || {
                (
                    parse(&deep).map(drop),
                    crate::ShardData::parse(&deep).map(drop),
                )
            })
            .unwrap()
            .join()
            .expect("the parser returns instead of overflowing the stack");
        assert!(outcome.0.unwrap_err().contains("nesting deeper than"));
        assert!(outcome.1.unwrap_err().contains("nesting deeper than"));
    }

    /// A string is decoded in one pass: each run of plain bytes is
    /// copied whole, so a long line costs time linear in its length and
    /// stays within these bounds even in the debug profile.
    #[test]
    fn long_strings_parse_in_linear_time() {
        for (len, bound_ms) in [(256 << 10, 250), (4 << 20, 1_000)] {
            let line = format!("{{\"name\":\"{}é\\n\"}}", "a".repeat(len));
            let started = std::time::Instant::now();
            let v = parse(&line).unwrap();
            let took = started.elapsed();
            assert_eq!(
                v.get("name").and_then(Value::as_str).map(str::len),
                Some(len + 3)
            );
            assert!(
                took < std::time::Duration::from_millis(bound_ms),
                "{len}-byte string took {took:?}"
            );
        }
    }

    #[test]
    fn numbers_and_nested_values() {
        let v = parse(r#"{"a":[-1,2.5,true,null],"b":{"c":3}}"#).unwrap();
        match v.get("a") {
            Some(Value::Array(items)) => {
                assert_eq!(items[0].as_i64(), Some(-1));
                assert_eq!(items[1], Value::Number(2.5));
                assert_eq!(items[1].as_u64(), None);
                assert_eq!(items[2], Value::Bool(true));
                assert_eq!(items[3], Value::Null);
            }
            other => panic!("expected array, got {other:?}"),
        }
        assert_eq!(
            v.get("b").and_then(|b| b.get("c")).and_then(Value::as_u64),
            Some(3)
        );
    }
}
