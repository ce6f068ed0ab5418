//! Chrome-trace-format export for span trees.
//!
//! Emits the `chrome://tracing` / Perfetto "JSON array" flavor: one
//! complete event (`"ph": "X"`) per finished span, with the span tree
//! recoverable from the `args.id` / `args.parent` pair. Timestamps are in
//! producer-chosen units (the format calls the field microseconds; any
//! unit renders the same relative ordering and nesting).

use std::fmt::Write as _;

use crate::json;

/// One finished span, as recorded by its producer.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct SpanRecord {
    /// Unique id within the producer (allocation order).
    pub id: u64,
    /// Id of the enclosing span, if any.
    pub parent: Option<u64>,
    /// Static span name.
    pub name: &'static str,
    /// Entry time, in producer-chosen units.
    pub start: u64,
    /// Exit time, in the same units as `start`.
    pub end: u64,
}

/// Encodes finished spans as a Chrome-trace JSON array.
///
/// # Examples
///
/// ```
/// use dynplat_obs::SpanRecord;
///
/// let spans = [
///     SpanRecord { id: 1, parent: Some(0), name: "fabric.pump", start: 1_200, end: 4_700 },
///     SpanRecord { id: 0, parent: None, name: "unit", start: 0, end: 9_000 },
/// ];
/// let trace = dynplat_obs::chrome::to_chrome_trace(&spans);
/// assert!(trace.starts_with('['));
/// assert!(trace.contains("\"ts\": 1200, \"dur\": 3500"));
/// ```
pub fn to_chrome_trace(records: &[SpanRecord]) -> String {
    let mut out = String::new();
    out.push('[');
    for (i, r) in records.iter().enumerate() {
        if i > 0 {
            out.push(',');
        }
        let _ = write!(
            out,
            "\n  {{\"name\": \"{}\", \"cat\": \"span\", \"ph\": \"X\", \
             \"ts\": {}, \"dur\": {}, \"pid\": 0, \"tid\": 0, \
             \"args\": {{\"id\": {}, \"parent\": {}}}}}",
            json::escape(r.name),
            r.start,
            r.end.saturating_sub(r.start),
            r.id,
            r.parent
                .map_or_else(|| "null".to_owned(), |p| p.to_string()),
        );
    }
    out.push_str(if records.is_empty() { "]\n" } else { "\n]\n" });
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::json::JsonValue;

    #[test]
    fn empty_trace_is_an_empty_array() {
        let trace = to_chrome_trace(&[]);
        assert_eq!(trace, "[]\n");
        let doc = json::parse(&trace).expect("valid json");
        assert_eq!(doc.as_array().map(<[JsonValue]>::len), Some(0));
    }

    /// Spans in the shape a wall-clock producer emits them: nanosecond
    /// stamps, children closing before their parent, ids in opening order.
    #[test]
    fn events_carry_span_tree_and_escape_names() {
        let records = vec![
            SpanRecord {
                id: 1,
                parent: Some(0),
                name: "comm.fabric",
                start: 1_250,
                end: 48_900,
            },
            SpanRecord {
                id: 2,
                parent: Some(0),
                name: "sched \"pick\"",
                start: 49_000,
                end: 49_000,
            },
            SpanRecord {
                id: 0,
                parent: None,
                name: "unit",
                start: 0,
                end: 1_000_000,
            },
        ];
        let doc = json::parse(&to_chrome_trace(&records)).expect("valid json");
        let events = doc.as_array().expect("array");
        assert_eq!(events.len(), 3);
        for (e, r) in events.iter().zip(&records) {
            assert_eq!(e.get("name").and_then(JsonValue::as_str), Some(r.name));
            assert_eq!(e.get("ph").and_then(JsonValue::as_str), Some("X"));
            assert_eq!(e.get("ts").and_then(JsonValue::as_u64), Some(r.start));
            assert_eq!(
                e.get("dur").and_then(JsonValue::as_u64),
                Some(r.end - r.start)
            );
            let args = e.get("args").expect("args");
            assert_eq!(args.get("id").and_then(JsonValue::as_u64), Some(r.id));
            match r.parent {
                Some(p) => assert_eq!(args.get("parent").and_then(JsonValue::as_u64), Some(p)),
                None => assert_eq!(args.get("parent"), Some(&JsonValue::Null)),
            }
        }
    }
}
