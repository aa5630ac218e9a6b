//! One declaration of each shard line type's keys, and the two things
//! derived from it: an appender that writes a line straight into a
//! caller's buffer, and a borrowed reader that scans a line without
//! building a tree.
//!
//! A declaration ([`line_keys!`]) names a line type and lists its keys
//! in the order they are written. From it:
//!
//! - [`Appender`] writes `{"type":"<type>","v":1`, then each key's
//!   pre-rendered `,"<key>":` and its value, then `}` and a newline.
//!   Integers are formatted in place, and a string is escaped only when
//!   it needs escaping, so a line costs no allocation of its own. Debug
//!   builds check that keys come in declaration order, so the
//!   declaration is the line's byte layout.
//! - [`Line::scan`] reads a line's `"v"` and `"type"`, and
//!   [`Line::fields`] then maps every member to its declared key, both
//!   checking the line's JSON syntax and nesting depth as they go. An undeclared key and a key given twice
//!   are errors. Values stay borrowed ([`Raw`]) until a decoder reads
//!   them: integers exactly as `u64`/`i64` (a fraction, an exponent or an
//!   overflow is not an integer), strings without a copy unless they
//!   carry escapes.
//!
//! Every error is a message without the line's number; the callers
//! ([`crate::ShardData::parse`], [`crate::HealthMonitor::poll`]) prefix
//! it.

use std::borrow::Cow;
use std::marker::PhantomData;

use crate::json::MAX_DEPTH;
use crate::SCHEMA_VERSION;

/// Most keys one line type declares (a machine line's 12).
const MAX_KEYS: usize = 12;

/// A line type's key declaration, as [`line_keys!`] derives it.
pub(crate) trait LineKeys: Copy + 'static {
    /// The line's `"type"`.
    const TYPE: &'static str;
    /// `{"type":"<type>","v":`, the bytes every line of the type opens with.
    const OPEN: &'static str;
    /// Every key, in declaration order.
    const ALL: &'static [Self];
    /// The key's name.
    fn name(self) -> &'static str;
    /// `,"<name>":`, the bytes written before the key's value.
    fn prefix(self) -> &'static str;
    /// Position in the declaration.
    fn index(self) -> usize;
    /// The declared key called `name`.
    fn lookup(name: &str) -> Option<Self>;
}

/// Declare a line type's keys, in the order its lines carry them.
macro_rules! line_keys {
    ($(#[$doc:meta])* $Keys:ident = $ty:literal { $($Key:ident = $name:literal,)+ }) => {
        $(#[$doc])*
        #[derive(Debug, Clone, Copy, PartialEq, Eq)]
        pub(crate) enum $Keys {
            $($Key,)+
        }

        const _: () = assert!([$($name),+].len() <= MAX_KEYS);

        impl LineKeys for $Keys {
            const TYPE: &'static str = $ty;
            const OPEN: &'static str = concat!("{\"type\":\"", $ty, "\",\"v\":");
            const ALL: &'static [Self] = &[$($Keys::$Key,)+];
            fn name(self) -> &'static str {
                match self {
                    $($Keys::$Key => $name,)+
                }
            }
            fn prefix(self) -> &'static str {
                match self {
                    $($Keys::$Key => concat!(",\"", $name, "\":"),)+
                }
            }
            fn index(self) -> usize {
                self as usize
            }
            fn lookup(name: &str) -> Option<Self> {
                match name {
                    $($name => Some($Keys::$Key),)+
                    _ => None,
                }
            }
        }
    };
}

line_keys! {
    /// A span record ([`crate::SpanRecord`]).
    SpanKey = "span" {
        Id = "id",
        Parent = "parent",
        Name = "name",
        Thread = "thread",
        WallStartNs = "wall_start_ns",
        WallDurNs = "wall_dur_ns",
        SimStartNs = "sim_start_ns",
        SimEndNs = "sim_end_ns",
        Fields = "fields",
    }
}

line_keys! {
    /// An event record ([`crate::EventRecord`]).
    EventKey = "event" {
        Parent = "parent",
        Name = "name",
        Thread = "thread",
        WallNs = "wall_ns",
        SimNs = "sim_ns",
        Fields = "fields",
    }
}

line_keys! {
    /// A counter total.
    CounterKey = "counter" {
        Name = "name",
        Value = "value",
    }
}

line_keys! {
    /// A gauge value.
    GaugeKey = "gauge" {
        Name = "name",
        Value = "value",
    }
}

line_keys! {
    /// A quantile-sketch total ([`crate::QuantileSketch`]).
    SketchKey = "sketch" {
        Name = "name",
        Count = "count",
        Sum = "sum",
        Zeros = "zeros",
        Min = "min",
        Max = "max",
        Idx = "idx",
        Counts = "counts",
    }
}

line_keys! {
    /// A fleet machine's outcome ([`crate::MachineLine`]).
    MachineKey = "machine" {
        Machine = "machine",
        Worker = "worker",
        Ok = "ok",
        Attempts = "attempts",
        Retries = "retries",
        FaultsInjected = "faults_injected",
        SimClockNs = "sim_clock_ns",
        SmmOverbudget = "smm_overbudget",
        MaxSmmDwellNs = "max_smm_dwell_ns",
        DwellWorstSmi = "dwell_worst_smi",
        DwellWorstCause = "dwell_worst_cause",
        LatencyNs = "latency_ns",
    }
}

line_keys! {
    /// One SMI flight record ([`crate::SmiLine`]).
    SmiKey = "smi" {
        Machine = "machine",
        Smi = "smi",
        Cause = "cause",
        Measurement = "measurement",
        Writes = "writes",
        WritesTruncated = "writes_truncated",
        Journal = "journal",
        JournalTruncated = "journal_truncated",
        DwellNs = "dwell_ns",
        Exit = "exit",
    }
}

line_keys! {
    /// A placement block's Merkle roll-up ([`crate::DigestRollup`]).
    RollupKey = "rollup" {
        Start = "start",
        Machines = "machines",
        Root = "root",
        Frontier = "frontier",
    }
}

// --- The appender -----------------------------------------------------

/// Append `v` in decimal.
#[inline]
pub(crate) fn push_u64(out: &mut String, mut v: u64) {
    let mut digits = [0u8; 20];
    let mut at = digits.len();
    loop {
        at -= 1;
        digits[at] = b'0' + (v % 10) as u8;
        v /= 10;
        if v == 0 {
            break;
        }
    }
    for &d in &digits[at..] {
        out.push(char::from(d));
    }
}

/// Append `v` in decimal.
pub(crate) fn push_i64(out: &mut String, v: i64) {
    if v < 0 {
        out.push('-');
    }
    push_u64(out, v.unsigned_abs());
}

/// Append `items` as a JSON array of integers.
pub(crate) fn push_u64_list(out: &mut String, items: impl IntoIterator<Item = u64>) {
    out.push('[');
    for (i, v) in items.into_iter().enumerate() {
        if i > 0 {
            out.push(',');
        }
        push_u64(out, v);
    }
    out.push(']');
}

/// Append `bytes` as lowercase hex, two digits each.
pub(crate) fn push_hex(out: &mut String, bytes: &[u8]) {
    const DIGITS: &[u8; 16] = b"0123456789abcdef";
    for &b in bytes {
        out.push(char::from(DIGITS[usize::from(b >> 4)]));
        out.push(char::from(DIGITS[usize::from(b & 0xF)]));
    }
}

/// Append `s` as a JSON string literal, quotes included. A string with
/// nothing to escape is copied whole.
#[inline]
pub(crate) fn push_escaped(out: &mut String, s: &str) {
    out.push('"');
    if s.bytes().all(|b| b >= 0x20 && b != b'"' && b != b'\\') {
        out.push_str(s);
    } else {
        for c in s.chars() {
            match c {
                '"' => out.push_str("\\\""),
                '\\' => out.push_str("\\\\"),
                '\n' => out.push_str("\\n"),
                '\r' => out.push_str("\\r"),
                '\t' => out.push_str("\\t"),
                c if (c as u32) < 0x20 => {
                    out.push_str("\\u00");
                    push_hex(out, &[c as u8]);
                }
                c => out.push(c),
            }
        }
    }
    out.push('"');
}

/// Writes one line of the type `K` into a caller's buffer: open with
/// [`Appender::open`], add keys in declaration order, end with
/// [`Appender::close`].
pub(crate) struct Appender<'o, K> {
    out: &'o mut String,
    /// Declaration index the next key may not precede.
    next: usize,
    keys: PhantomData<K>,
}

impl<'o, K: LineKeys> Appender<'o, K> {
    /// Write `{"type":"<type>","v":<version>`.
    pub(crate) fn open(out: &'o mut String) -> Self {
        out.push_str(K::OPEN);
        push_u64(out, u64::from(SCHEMA_VERSION));
        Appender {
            out,
            next: 0,
            keys: PhantomData,
        }
    }

    /// Write `key`'s prefix; the value follows in the returned buffer.
    #[inline]
    pub(crate) fn key(&mut self, key: K) -> &mut String {
        debug_assert!(
            key.index() >= self.next,
            "{} line: key {:?} written out of declaration order",
            K::TYPE,
            key.name()
        );
        self.next = key.index() + 1;
        self.out.push_str(key.prefix());
        self.out
    }

    #[inline]
    pub(crate) fn u64(&mut self, key: K, v: u64) {
        push_u64(self.key(key), v);
    }

    pub(crate) fn i64(&mut self, key: K, v: i64) {
        push_i64(self.key(key), v);
    }

    pub(crate) fn bool(&mut self, key: K, v: bool) {
        self.key(key).push_str(if v { "true" } else { "false" });
    }

    /// `v`, or `null` when absent.
    pub(crate) fn u64_or_null(&mut self, key: K, v: Option<u64>) {
        let out = self.key(key);
        match v {
            Some(v) => push_u64(out, v),
            None => out.push_str("null"),
        }
    }

    #[inline]
    pub(crate) fn str(&mut self, key: K, s: &str) {
        push_escaped(self.key(key), s);
    }

    /// Write `}` and the line's newline.
    pub(crate) fn close(self) {
        self.out.push_str("}\n");
    }
}

/// The line `append` writes, without its newline: what the
/// `to_json_line` wrappers return.
pub(crate) fn one_line(append: impl FnOnce(&mut String)) -> String {
    let mut out = String::new();
    append(&mut out);
    out.pop();
    out
}

// --- The reader -------------------------------------------------------

/// A value as the reader found it, still borrowed from the line. Its
/// syntax has been checked; its type is read by the accessors.
#[derive(Debug, Clone, Copy)]
pub(crate) enum Raw<'a> {
    Null,
    Bool(bool),
    /// A non-negative integer within `u64`, read while scanning.
    Uint(u64),
    /// Any other number's text, in JSON's grammar: negative, with a
    /// fraction or an exponent, or beyond `u64`.
    Num(&'a str),
    /// A string's text between its quotes, escapes still in place.
    Str {
        body: &'a str,
        escaped: bool,
    },
    /// An array's text, brackets included.
    Array(&'a str),
    /// An object, whose members no decoder reads.
    Object,
}

impl<'a> Raw<'a> {
    /// The value as an unsigned integer: digits only, at most `u64::MAX`.
    #[inline]
    pub(crate) fn u64(self) -> Option<u64> {
        match self {
            Raw::Uint(v) => Some(v),
            _ => None,
        }
    }

    /// The value as a signed integer: an optional `-` and digits, within
    /// `i64`'s range.
    #[inline]
    pub(crate) fn i64(self) -> Option<i64> {
        match self {
            Raw::Uint(v) => i64::try_from(v).ok(),
            Raw::Num(text) => text.parse().ok(),
            _ => None,
        }
    }

    #[inline]
    pub(crate) fn bool(self) -> Option<bool> {
        match self {
            Raw::Bool(b) => Some(b),
            _ => None,
        }
    }

    /// The value as a string, escapes decoded; borrowed when it has none.
    #[inline]
    pub(crate) fn str(self) -> Option<Cow<'a, str>> {
        match self {
            Raw::Str {
                body,
                escaped: false,
            } => Some(Cow::Borrowed(body)),
            Raw::Str {
                body,
                escaped: true,
            } => Some(Cow::Owned(unescape(body))),
            _ => None,
        }
    }

    /// An unsigned integer or `null`.
    #[inline]
    pub(crate) fn u64_or_null(self) -> Option<Option<u64>> {
        match self {
            Raw::Null => Some(None),
            other => other.u64().map(Some),
        }
    }

    /// The value's items, if it is an array.
    #[inline]
    pub(crate) fn items(self) -> Option<Items<'a>> {
        match self {
            Raw::Array(text) => Some(Items {
                cur: Cursor {
                    text,
                    pos: 1,
                    depth: 0,
                },
                first: true,
            }),
            _ => None,
        }
    }

    /// `Some(())` if the value is an object.
    pub(crate) fn object(self) -> Option<()> {
        matches!(self, Raw::Object).then_some(())
    }
}

/// Decode a string body's escapes. The body was checked by the scanner,
/// so every escape is complete; a `\u` code that is not a scalar value
/// (a lone surrogate) becomes U+FFFD.
fn unescape(body: &str) -> String {
    let mut out = String::with_capacity(body.len());
    let mut rest = body;
    while let Some(at) = rest.find('\\') {
        out.push_str(&rest[..at]);
        let esc = rest.as_bytes().get(at + 1).copied().unwrap_or(b'\\');
        rest = &rest[(at + 2).min(rest.len())..];
        out.push(match esc {
            b'n' => '\n',
            b'r' => '\r',
            b't' => '\t',
            b'b' => '\u{8}',
            b'f' => '\u{c}',
            b'u' => {
                let code = rest
                    .get(..4)
                    .and_then(|hex| u32::from_str_radix(hex, 16).ok())
                    .and_then(char::from_u32)
                    .unwrap_or('\u{FFFD}');
                rest = rest.get(4..).unwrap_or("");
                code
            }
            other => char::from(other),
        });
    }
    out.push_str(rest);
    out
}

/// A position in a line's text, and how many arrays and objects are open
/// around it.
struct Cursor<'a> {
    text: &'a str,
    pos: usize,
    depth: usize,
}

impl<'a> Cursor<'a> {
    #[inline]
    fn peek(&self) -> Option<u8> {
        self.text.as_bytes().get(self.pos).copied()
    }

    #[inline]
    fn ws(&mut self) {
        while matches!(self.peek(), Some(b' ' | b'\t' | b'\n' | b'\r')) {
            self.pos += 1;
        }
    }

    #[inline]
    fn eat(&mut self, b: u8) -> Result<(), String> {
        if self.peek() == Some(b) {
            self.pos += 1;
            Ok(())
        } else {
            Err(format!(
                "expected {:?} at byte {}, found {:?}",
                char::from(b),
                self.pos,
                self.peek().map(char::from)
            ))
        }
    }

    #[inline]
    fn value(&mut self) -> Result<Raw<'a>, String> {
        let start = self.pos;
        match self.peek() {
            Some(b'{') => {
                self.container(b'}')?;
                Ok(Raw::Object)
            }
            Some(b'[') => {
                self.container(b']')?;
                Ok(Raw::Array(&self.text[start..self.pos]))
            }
            Some(b'"') => self.string(),
            Some(b't') => self.literal("true", Raw::Bool(true)),
            Some(b'f') => self.literal("false", Raw::Bool(false)),
            Some(b'n') => self.literal("null", Raw::Null),
            Some(b'-' | b'0'..=b'9') => self.number(),
            other => Err(format!(
                "unexpected {:?} at byte {start}",
                other.map(char::from)
            )),
        }
    }

    fn literal(&mut self, lit: &str, v: Raw<'a>) -> Result<Raw<'a>, String> {
        if self.text.as_bytes()[self.pos..].starts_with(lit.as_bytes()) {
            self.pos += lit.len();
            Ok(v)
        } else {
            Err(format!("bad literal at byte {}", self.pos))
        }
    }

    #[inline]
    fn run_of_digits(&mut self) -> usize {
        let start = self.pos;
        while matches!(self.peek(), Some(b'0'..=b'9')) {
            self.pos += 1;
        }
        self.pos - start
    }

    /// A number in JSON's grammar: `-?(0|[1-9][0-9]*)(.[0-9]+)?([eE][+-]?[0-9]+)?`.
    /// A plain non-negative integer is read as it is scanned.
    #[inline]
    fn number(&mut self) -> Result<Raw<'a>, String> {
        let start = self.pos;
        let bad = || format!("bad number at byte {start}");
        let negative = self.peek() == Some(b'-');
        if negative {
            self.pos += 1;
        }
        let int_start = self.pos;
        let mut value = Some(0u64);
        while let Some(digit @ b'0'..=b'9') = self.peek() {
            value = value
                .and_then(|v| v.checked_mul(10))
                .and_then(|v| v.checked_add(u64::from(digit - b'0')));
            self.pos += 1;
        }
        let int_len = self.pos - int_start;
        if int_len == 0 || (int_len > 1 && self.text.as_bytes()[int_start] == b'0') {
            return Err(bad());
        }
        let mut plain = !negative;
        if self.peek() == Some(b'.') {
            plain = false;
            self.pos += 1;
            if self.run_of_digits() == 0 {
                return Err(bad());
            }
        }
        if matches!(self.peek(), Some(b'e' | b'E')) {
            plain = false;
            self.pos += 1;
            if matches!(self.peek(), Some(b'+' | b'-')) {
                self.pos += 1;
            }
            if self.run_of_digits() == 0 {
                return Err(bad());
            }
        }
        Ok(match value {
            Some(v) if plain => Raw::Uint(v),
            _ => Raw::Num(&self.text[start..self.pos]),
        })
    }

    /// A string, its escapes checked but not decoded.
    #[inline]
    fn string(&mut self) -> Result<Raw<'a>, String> {
        self.eat(b'"')?;
        let start = self.pos;
        let bytes = self.text.as_bytes();
        let mut escaped = false;
        loop {
            // Skip the run of plain bytes up to the next quote, backslash
            // or control byte in one tight loop.
            let run = bytes[self.pos..]
                .iter()
                .position(|&b| b == b'"' || b == b'\\' || b < 0x20)
                .ok_or("unterminated string")?;
            self.pos += run;
            match bytes[self.pos] {
                b'"' => {
                    let body = &self.text[start..self.pos];
                    self.pos += 1;
                    return Ok(Raw::Str { body, escaped });
                }
                b'\\' => {
                    escaped = true;
                    self.pos += 1;
                    match self.peek() {
                        Some(b'"' | b'\\' | b'/' | b'b' | b'f' | b'n' | b'r' | b't') => {
                            self.pos += 1;
                        }
                        Some(b'u') => {
                            let hex = bytes.get(self.pos + 1..self.pos + 5);
                            if !hex.is_some_and(|h| h.iter().all(u8::is_ascii_hexdigit)) {
                                return Err(format!("bad \\u escape at byte {}", self.pos));
                            }
                            self.pos += 5;
                        }
                        Some(other) => return Err(format!("bad escape {:?}", char::from(other))),
                        None => return Err("unterminated escape".to_string()),
                    }
                }
                c => return Err(format!("raw control byte {c:#04x} in string")),
            }
        }
    }

    /// Skip an array or object (at `[` or `{`) the scanner has already
    /// checked, by matching its brackets; strings are skipped whole.
    fn skip_checked(&mut self) -> &'a str {
        let bytes = self.text.as_bytes();
        let start = self.pos;
        let (mut depth, mut in_string) = (0usize, false);
        while let Some(&b) = bytes.get(self.pos) {
            self.pos += 1;
            match (in_string, b) {
                (true, b'\\') => self.pos += 1,
                (true, b'"') | (false, b'"') => in_string = !in_string,
                (false, b'[' | b'{') => depth += 1,
                (false, b']' | b'}') => {
                    depth -= 1;
                    if depth == 0 {
                        break;
                    }
                }
                _ => {}
            }
        }
        &self.text[start..self.pos]
    }

    /// Skip an array or object (at `[` or `{`), checking its syntax and
    /// that nesting stays within [`MAX_DEPTH`].
    fn container(&mut self, close: u8) -> Result<(), String> {
        if self.depth == MAX_DEPTH {
            return Err(format!(
                "nesting deeper than {MAX_DEPTH} at byte {}",
                self.pos
            ));
        }
        self.depth += 1;
        self.pos += 1;
        self.ws();
        if self.peek() == Some(close) {
            self.pos += 1;
            self.depth -= 1;
            return Ok(());
        }
        loop {
            self.ws();
            if close == b'}' {
                self.string()?;
                self.ws();
                self.eat(b':')?;
                self.ws();
            }
            self.value()?;
            self.ws();
            match self.peek() {
                Some(b',') => self.pos += 1,
                Some(c) if c == close => {
                    self.pos += 1;
                    self.depth -= 1;
                    return Ok(());
                }
                other => {
                    return Err(format!(
                        "expected , or {} at byte {}, found {:?}",
                        char::from(close),
                        self.pos,
                        other.map(char::from)
                    ))
                }
            }
        }
    }
}

/// An array's items, read from text the scanner has already checked.
pub(crate) struct Items<'a> {
    cur: Cursor<'a>,
    first: bool,
}

impl<'a> Iterator for Items<'a> {
    type Item = Raw<'a>;

    #[inline]
    fn next(&mut self) -> Option<Raw<'a>> {
        self.cur.ws();
        match self.cur.peek()? {
            b']' => return None,
            b',' if !self.first => {
                self.cur.pos += 1;
                self.cur.ws();
            }
            _ => {}
        }
        self.first = false;
        // The scanner accepted this array, so reading it again succeeds,
        // and a nested array or object is skipped by its brackets alone.
        match self.cur.peek()? {
            b'[' => Some(Raw::Array(self.cur.skip_checked())),
            b'{' => {
                self.cur.skip_checked();
                Some(Raw::Object)
            }
            _ => self.cur.value().ok(),
        }
    }
}

/// The members of a line's top-level object, in order.
struct Members<'a> {
    cur: Cursor<'a>,
    first: bool,
    done: bool,
}

impl<'a> Members<'a> {
    /// Members of the object `text` holds. Anything else is an error,
    /// after the value has been checked like a member would be, so a
    /// hostile non-object line fails on its own fault (nesting, say).
    fn of(text: &'a str) -> Result<Members<'a>, String> {
        let mut cur = Cursor {
            text,
            pos: 0,
            depth: 0,
        };
        cur.ws();
        if cur.peek() != Some(b'{') {
            cur.value()?;
            return Err("a shard line must be a JSON object".to_string());
        }
        cur.depth = 1;
        cur.pos += 1;
        Ok(Members {
            cur,
            first: true,
            done: false,
        })
    }

    /// The next member's key and value, or `None` after the closing
    /// brace, which only whitespace may follow.
    #[inline]
    fn next_member(&mut self) -> Result<Option<(Cow<'a, str>, Raw<'a>)>, String> {
        if self.done {
            return Ok(None);
        }
        let cur = &mut self.cur;
        cur.ws();
        match cur.peek() {
            Some(b'}') => {
                cur.pos += 1;
                cur.ws();
                self.done = true;
                return if cur.pos == cur.text.len() {
                    Ok(None)
                } else {
                    Err(format!("trailing data at byte {}", cur.pos))
                };
            }
            Some(b',') if !self.first => {
                cur.pos += 1;
                cur.ws();
            }
            other if !self.first => {
                return Err(format!(
                    "expected , or }} at byte {}, found {:?}",
                    cur.pos,
                    other.map(char::from)
                ))
            }
            _ => {}
        }
        self.first = false;
        let key = cur.string()?;
        cur.ws();
        cur.eat(b':')?;
        cur.ws();
        let value = cur.value()?;
        Ok(Some((key.str().unwrap_or_default(), value)))
    }
}

/// A shard line whose `"v"` and `"type"` have been read and checked.
pub(crate) struct Line<'a> {
    text: &'a str,
    /// The line's `"type"`.
    pub(crate) ty: Cow<'a, str>,
    /// When `"type"` and `"v"` lead the line, as every writer puts
    /// them, the members after them, read once by [`Line::fields`].
    /// Otherwise `None`, and the members are read again from the start.
    rest: Option<Members<'a>>,
}

impl<'a> Line<'a> {
    /// Read `text`'s `"v"` and `"type"`. When they lead the line, the
    /// members after them are checked by [`Line::fields`]; otherwise the
    /// whole line is checked here first.
    ///
    /// # Errors
    ///
    /// Malformed JSON, nesting deeper than [`MAX_DEPTH`], a line that is
    /// not an object, a `"v"` or `"type"` given twice, a `"v"` other than
    /// [`SCHEMA_VERSION`], or a missing or non-string `"type"`.
    pub(crate) fn scan(text: &'a str) -> Result<Line<'a>, String> {
        let mut members = Members::of(text)?;
        let lead = (members.next_member()?, members.next_member()?);
        let (version, ty, rest) = match lead {
            (Some((k1, v1)), Some((k2, v2))) if k1 == "type" && k2 == "v" => {
                (Some(v2), Some(v1), Some(members))
            }
            (Some((k1, v1)), Some((k2, v2))) if k1 == "v" && k2 == "type" => {
                (Some(v1), Some(v2), Some(members))
            }
            _ => {
                let mut members = Members::of(text)?;
                let (mut version, mut ty) = (None, None);
                while let Some((key, value)) = members.next_member()? {
                    let slot = match &*key {
                        "v" => &mut version,
                        "type" => &mut ty,
                        _ => continue,
                    };
                    if slot.replace(value).is_some() {
                        return Err(format!("duplicate key {key:?}"));
                    }
                }
                (version, ty, None)
            }
        };
        let version = version.and_then(Raw::u64);
        if version != Some(u64::from(SCHEMA_VERSION)) {
            return Err(format!(
                "schema version {version:?}, expected {SCHEMA_VERSION}"
            ));
        }
        let ty = ty
            .and_then(Raw::str)
            .ok_or_else(|| "missing/invalid \"type\"".to_string())?;
        Ok(Line { text, ty, rest })
    }

    /// Map every member but `"type"` and `"v"` to its key in `K`.
    ///
    /// # Errors
    ///
    /// Malformed JSON after a leading `"type"` and `"v"`, a key `K` does
    /// not declare, or a key given twice.
    pub(crate) fn fields<K: LineKeys>(self) -> Result<Fields<'a, K>, String> {
        let mut fields = Fields {
            slots: [None; MAX_KEYS],
            keys: PhantomData,
        };
        let led = self.rest.is_some();
        let mut members = match self.rest {
            Some(rest) => rest,
            None => Members::of(self.text)?,
        };
        // Writers put keys in declaration order, so the key after the
        // last one read is the first guess.
        let mut next = 0;
        while let Some((key, value)) = members.next_member()? {
            if key == "type" || key == "v" {
                if led {
                    return Err(format!("duplicate key {key:?}"));
                }
                continue;
            }
            let k = match K::ALL.get(next) {
                Some(&guess) if guess.name() == key => guess,
                _ => K::lookup(&key)
                    .ok_or_else(|| format!("unknown key {key:?} in a {} line", K::TYPE))?,
            };
            if fields.slots[k.index()].replace(value).is_some() {
                return Err(format!("duplicate key {key:?} in a {} line", K::TYPE));
            }
            next = k.index() + 1;
        }
        Ok(fields)
    }
}

/// A line's members by declared key.
pub(crate) struct Fields<'a, K> {
    slots: [Option<Raw<'a>>; MAX_KEYS],
    keys: PhantomData<K>,
}

impl<'a, K: LineKeys> Fields<'a, K> {
    /// `key`'s value, if the line has it.
    #[inline]
    pub(crate) fn get(&self, key: K) -> Option<Raw<'a>> {
        self.slots[key.index()]
    }

    /// `key`'s value read by `read`; missing or unreadable is an error.
    #[inline]
    pub(crate) fn req<T>(
        &self,
        key: K,
        read: impl FnOnce(Raw<'a>) -> Option<T>,
    ) -> Result<T, String> {
        self.get(key)
            .and_then(read)
            .ok_or_else(|| format!("missing/invalid {:?}", key.name()))
    }

    /// `key`'s value read by `read` if present; present and unreadable is
    /// an error.
    #[inline]
    pub(crate) fn opt<T>(
        &self,
        key: K,
        read: impl FnOnce(Raw<'a>) -> Option<T>,
    ) -> Result<Option<T>, String> {
        self.get(key)
            .map(|raw| read(raw).ok_or_else(|| format!("missing/invalid {:?}", key.name())))
            .transpose()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn scan_err(text: &str) -> String {
        crate::ShardLine::decode(text).expect_err("the line is rejected")
    }

    #[test]
    fn integers_are_exact_and_strict() {
        fn num(text: &str) -> Raw<'_> {
            let mut cur = Cursor {
                text,
                pos: 0,
                depth: 0,
            };
            let raw = cur.number().unwrap();
            assert_eq!(cur.pos, text.len());
            raw
        }
        assert_eq!(num("18446744073709551615").u64(), Some(u64::MAX));
        assert_eq!(num("18446744073709551616").u64(), None);
        assert_eq!(num("9007199254740993").u64(), Some((1 << 53) + 1));
        assert_eq!(num("1.0").u64(), None);
        assert_eq!(num("1e3").u64(), None);
        assert_eq!(num("-1").u64(), None);
        assert_eq!(num("-9223372036854775808").i64(), Some(i64::MIN));
        assert_eq!(num("-9223372036854775809").i64(), None);
        assert_eq!(num("9223372036854775807").i64(), Some(i64::MAX));
        assert_eq!(num("9223372036854775808").i64(), None);
        assert_eq!(num("-0").i64(), Some(0));
        assert_eq!(
            unescape("a\\\"b\\\\c\\n\\u0001\\u00e9\\/"),
            "a\"b\\c\n\u{1}é/"
        );
    }

    #[test]
    fn appended_integers_and_strings_match_the_formatter() {
        for v in [0, 1, 9, 10, 99, 100, 12_345, u64::MAX - 1, u64::MAX] {
            let mut out = String::new();
            push_u64(&mut out, v);
            assert_eq!(out, v.to_string());
        }
        for v in [i64::MIN, -1, 0, 7, i64::MAX] {
            let mut out = String::new();
            push_i64(&mut out, v);
            assert_eq!(out, v.to_string());
        }
        let mut out = String::new();
        push_escaped(&mut out, "a\"b\\c\n\r\t\u{1}\u{1f}é");
        assert_eq!(out, "\"a\\\"b\\\\c\\n\\r\\t\\u0001\\u001fé\"");
    }

    #[test]
    fn scanning_rejects_what_json_rejects() {
        for bad in [
            "",
            "{",
            "{\"type\":\"event\",\"v\":1,}",
            "{\"type\":\"event\",\"v\":1} x",
            "{\"type\":\"event\",\"v\":01}",
            "{\"type\":\"event\",\"v\":1.}",
            "{\"type\":\"event\",\"v\":1,\"name\":\"\\x\"}",
            "{\"type\":\"event\",\"v\":1,\"name\":\"\\u12\"}",
            "{\"type\":\"event\",\"v\":1,\"name\":\"a\u{1}\"}",
            "{\"type\":\"event\" \"v\":1}",
            "[1,2]",
        ] {
            assert!(crate::ShardLine::decode(bad).is_err(), "{bad:?} accepted");
        }
        assert_eq!(
            scan_err("{\"type\":\"event\",\"v\":1,\"type\":\"span\"}"),
            "duplicate key \"type\""
        );
        assert_eq!(
            scan_err(&format!("{{\"v\":1,\"a\":{}}}", "[".repeat(MAX_DEPTH))),
            format!("nesting deeper than {MAX_DEPTH} at byte {}", MAX_DEPTH + 10)
        );
    }
}
