//! The record types captured by the recorder.

use std::fmt::Write as _;

use crate::schema::{push_escaped, push_i64, push_u64};

/// A structured field value attached to a span or event.
#[derive(Debug, Clone, PartialEq)]
pub enum Value {
    U64(u64),
    I64(i64),
    F64(f64),
    Bool(bool),
    Str(String),
}

impl Value {
    /// Append as a JSON value fragment: a non-finite float is `null`.
    pub fn append_json(&self, out: &mut String) {
        match self {
            Value::U64(v) => push_u64(out, *v),
            Value::I64(v) => push_i64(out, *v),
            Value::F64(v) if v.is_finite() => {
                let _ = write!(out, "{v}");
            }
            Value::F64(_) => out.push_str("null"),
            Value::Bool(v) => out.push_str(if *v { "true" } else { "false" }),
            Value::Str(s) => push_escaped(out, s),
        }
    }
}

impl From<u64> for Value {
    fn from(v: u64) -> Self {
        Value::U64(v)
    }
}

impl From<usize> for Value {
    fn from(v: usize) -> Self {
        Value::U64(v as u64)
    }
}

impl From<u32> for Value {
    fn from(v: u32) -> Self {
        Value::U64(v as u64)
    }
}

impl From<i64> for Value {
    fn from(v: i64) -> Self {
        Value::I64(v)
    }
}

impl From<bool> for Value {
    fn from(v: bool) -> Self {
        Value::Bool(v)
    }
}

impl From<&str> for Value {
    fn from(v: &str) -> Self {
        Value::Str(v.to_string())
    }
}

impl From<String> for Value {
    fn from(v: String) -> Self {
        Value::Str(v)
    }
}

/// A key/value pair on a span or event.
pub type Field = (&'static str, Value);

/// A completed span: a named interval with dual timestamps.
///
/// Wall-clock nanoseconds are measured from the recorder's epoch
/// (`Instant` deltas, so monotonic). Simulated nanoseconds come from the
/// machine's [`SimTime`]-style cost model and are present only when the
/// instrumentation site passed them in.
#[derive(Debug, Clone, PartialEq)]
pub struct SpanRecord {
    /// Unique id within the process (monotonically assigned).
    pub id: u64,
    /// Enclosing span id on the same thread, if any.
    pub parent: Option<u64>,
    /// Static span name, e.g. `"smm.decrypt"`.
    pub name: &'static str,
    /// Small per-thread ordinal (not the OS tid).
    pub thread: u64,
    /// Wall-clock start, ns since the recorder epoch.
    pub wall_start_ns: u64,
    /// Wall-clock duration in ns.
    pub wall_dur_ns: u64,
    /// Simulated-clock start in ns, when supplied.
    pub sim_start_ns: Option<u64>,
    /// Simulated-clock end in ns, when supplied.
    pub sim_end_ns: Option<u64>,
    /// Structured fields attached while the span was open.
    pub fields: Vec<Field>,
}

impl SpanRecord {
    /// Simulated duration in ns, when both endpoints were supplied.
    pub fn sim_dur_ns(&self) -> Option<u64> {
        match (self.sim_start_ns, self.sim_end_ns) {
            (Some(s), Some(e)) => Some(e.saturating_sub(s)),
            _ => None,
        }
    }
}

/// A point-in-time occurrence (fault, violation, trampoline write, ...).
#[derive(Debug, Clone, PartialEq)]
pub struct EventRecord {
    /// Enclosing span id on the emitting thread, if any.
    pub parent: Option<u64>,
    /// Static event name, e.g. `"machine.smram_lock_fault"`.
    pub name: &'static str,
    /// Small per-thread ordinal (not the OS tid).
    pub thread: u64,
    /// Wall-clock timestamp, ns since the recorder epoch.
    pub wall_ns: u64,
    /// Simulated-clock timestamp in ns, when supplied.
    pub sim_ns: Option<u64>,
    /// Structured fields.
    pub fields: Vec<Field>,
}

/// Anything the recorder retains.
#[derive(Debug, Clone, PartialEq)]
pub enum Record {
    Span(SpanRecord),
    Event(EventRecord),
}

impl Record {
    /// The record's name, whichever variant it is.
    pub fn name(&self) -> &'static str {
        match self {
            Record::Span(s) => s.name,
            Record::Event(e) => e.name,
        }
    }
}

/// Escape `s` as a JSON string literal, including the quotes.
pub fn json_escape(s: &str) -> String {
    let mut out = String::with_capacity(s.len() + 2);
    push_escaped(&mut out, s);
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn escape_plain() {
        assert_eq!(json_escape("abc"), "\"abc\"");
    }

    #[test]
    fn escape_specials() {
        assert_eq!(json_escape("a\"b\\c"), r#""a\"b\\c""#);
        assert_eq!(json_escape("line1\nline2\t."), r#""line1\nline2\t.""#);
        assert_eq!(json_escape("\u{1}"), "\"\\u0001\"");
    }

    #[test]
    fn sim_duration_requires_both_endpoints() {
        let mut r = SpanRecord {
            id: 1,
            parent: None,
            name: "x",
            thread: 0,
            wall_start_ns: 0,
            wall_dur_ns: 10,
            sim_start_ns: Some(100),
            sim_end_ns: None,
            fields: Vec::new(),
        };
        assert_eq!(r.sim_dur_ns(), None);
        r.sim_end_ns = Some(250);
        assert_eq!(r.sim_dur_ns(), Some(150));
    }
}
