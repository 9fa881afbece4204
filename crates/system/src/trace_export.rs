//! Chrome-trace-event export: build Perfetto-loadable JSON traces.
//!
//! [`ChromeTrace`] is a small, dependency-free builder for the
//! [Chrome Trace Event Format] (the JSON flavour `chrome://tracing`
//! and [Perfetto](https://ui.perfetto.dev) both load): duration events
//! (`ph: "X"`), instant events (`ph: "i"`), and the `process_name` /
//! `thread_name` metadata that labels tracks. Timestamps are taken in
//! **nanoseconds** (virtual ns for serving traces, wall-clock offsets
//! for host-side lane timing) and serialized in the microseconds the
//! format specifies.
//!
//! The builder is deliberately generic — it knows nothing about
//! serving, replicas, or lanes. `gdr_serve::trace` folds simulation
//! events into it; the sweep executor feeds it wall-clock lane
//! sections. Serialization goes through [`Json`], so a trace built
//! from deterministic inputs serializes byte-identically.
//!
//! [Chrome Trace Event Format]:
//!     https://docs.google.com/document/d/1CvAClvFfyA5R-PhYUmn5OOQtYMH4h6I0nSsKchNAySU
//!
//! ```
//! use gdr_system::trace_export::ChromeTrace;
//!
//! let mut trace = ChromeTrace::new();
//! trace.process_name(1, "pool");
//! trace.thread_name(1, 1, "replica 0");
//! trace.duration(1, 1, 2_000, 1_500, "batch x4", "batch", vec![]);
//! trace.instant(1, 1, 3_500, "crash", "fault", vec![]);
//! let json = trace.to_json();
//! assert_eq!(json.get("traceEvents").unwrap().as_arr().unwrap().len(), 4);
//! ```

use crate::json::Json;

/// One trace event: a metadata record, a duration span, or an instant
/// marker. Constructed only through the [`ChromeTrace`] methods so the
/// phase/field combinations stay valid.
#[derive(Debug, Clone, PartialEq)]
struct ChromeEvent {
    name: String,
    cat: String,
    /// Phase: `'X'` duration, `'i'` instant, `'M'` metadata.
    ph: char,
    ts_ns: u64,
    dur_ns: Option<u64>,
    pid: u64,
    tid: u64,
    args: Vec<(String, Json)>,
}

/// A Chrome-trace-event document under construction.
///
/// `pid`/`tid` pairs name tracks: Perfetto renders one lane per
/// `(pid, tid)`, labeled by the [`process_name`](Self::process_name) /
/// [`thread_name`](Self::thread_name) metadata. Events are serialized
/// in insertion order, so feeding events in non-decreasing timestamp
/// order per track yields a trace that independent validators can
/// check for monotonicity.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct ChromeTrace {
    events: Vec<ChromeEvent>,
}

impl ChromeTrace {
    /// An empty trace.
    pub fn new() -> Self {
        Self::default()
    }

    /// Number of events recorded so far (metadata included).
    pub fn len(&self) -> usize {
        self.events.len()
    }

    /// True when no events have been recorded.
    pub fn is_empty(&self) -> bool {
        self.events.is_empty()
    }

    /// Names a process track group (`ph: "M"`, `process_name`).
    pub fn process_name(&mut self, pid: u64, name: &str) {
        self.metadata(pid, 0, "process_name", name);
    }

    /// Names one thread track within a process (`ph: "M"`,
    /// `thread_name`).
    pub fn thread_name(&mut self, pid: u64, tid: u64, name: &str) {
        self.metadata(pid, tid, "thread_name", name);
    }

    fn metadata(&mut self, pid: u64, tid: u64, kind: &str, name: &str) {
        self.events.push(ChromeEvent {
            name: kind.to_string(),
            cat: "__metadata".to_string(),
            ph: 'M',
            ts_ns: 0,
            dur_ns: None,
            pid,
            tid,
            args: vec![("name".to_string(), Json::from(name))],
        });
    }

    /// Records a complete duration event (`ph: "X"`) spanning
    /// `[ts_ns, ts_ns + dur_ns]` on track `(pid, tid)`.
    // The parameter list mirrors the trace-event field list one-to-one;
    // a builder or params struct would just rename the same eight
    // things.
    #[allow(clippy::too_many_arguments)]
    pub fn duration(
        &mut self,
        pid: u64,
        tid: u64,
        ts_ns: u64,
        dur_ns: u64,
        name: &str,
        cat: &str,
        args: Vec<(String, Json)>,
    ) {
        self.events.push(ChromeEvent {
            name: name.to_string(),
            cat: cat.to_string(),
            ph: 'X',
            ts_ns,
            dur_ns: Some(dur_ns),
            pid,
            tid,
            args,
        });
    }

    /// Records a thread-scoped instant event (`ph: "i"`, `s: "t"`) at
    /// `ts_ns` on track `(pid, tid)`.
    pub fn instant(
        &mut self,
        pid: u64,
        tid: u64,
        ts_ns: u64,
        name: &str,
        cat: &str,
        args: Vec<(String, Json)>,
    ) {
        self.events.push(ChromeEvent {
            name: name.to_string(),
            cat: cat.to_string(),
            ph: 'i',
            ts_ns,
            dur_ns: None,
            pid,
            tid,
            args,
        });
    }

    /// Serializes the trace as a Chrome-trace-event JSON object:
    /// `{"traceEvents": [...], "displayTimeUnit": "ms"}`.
    ///
    /// Timestamps and durations are converted from the builder's
    /// nanoseconds to the microseconds the format specifies (fractional
    /// `ts` values are valid and preserved by Perfetto). The conversion
    /// is a fixed function of the input, so identical traces serialize
    /// byte-identically.
    pub fn to_json(&self) -> Json {
        let events: Vec<Json> = self.events.iter().map(ChromeEvent::to_json).collect();
        Json::obj(vec![
            ("traceEvents", Json::arr(events)),
            ("displayTimeUnit", Json::from("ms")),
        ])
    }
}

impl ChromeEvent {
    fn to_json(&self) -> Json {
        let mut pairs = vec![
            ("name".to_string(), Json::from(self.name.as_str())),
            ("cat".to_string(), Json::from(self.cat.as_str())),
            ("ph".to_string(), Json::from(self.ph.to_string())),
            ("ts".to_string(), Json::Num(self.ts_ns as f64 / 1_000.0)),
        ];
        if let Some(dur) = self.dur_ns {
            pairs.push(("dur".to_string(), Json::Num(dur as f64 / 1_000.0)));
        }
        pairs.push(("pid".to_string(), Json::from(self.pid)));
        pairs.push(("tid".to_string(), Json::from(self.tid)));
        if self.ph == 'i' {
            // Instant scope: thread-local, the narrowest rendering.
            pairs.push(("s".to_string(), Json::from("t")));
        }
        if !self.args.is_empty() {
            pairs.push(("args".to_string(), Json::Obj(self.args.clone())));
        }
        Json::Obj(pairs)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample() -> ChromeTrace {
        let mut t = ChromeTrace::new();
        t.process_name(1, "pool");
        t.thread_name(1, 1, "replica 0");
        t.duration(
            1,
            1,
            2_500,
            1_000,
            "batch x4",
            "batch",
            vec![("size".to_string(), Json::from(4u64))],
        );
        t.instant(1, 1, 3_500, "crash", "fault", vec![]);
        t
    }

    #[test]
    fn events_serialize_with_microsecond_timestamps() {
        let json = sample().to_json();
        let events = json.get("traceEvents").unwrap().as_arr().unwrap();
        assert_eq!(events.len(), 4);
        let span = &events[2];
        assert_eq!(span.get("ph").unwrap().as_str(), Some("X"));
        assert_eq!(span.get("ts").unwrap().as_f64(), Some(2.5));
        assert_eq!(span.get("dur").unwrap().as_f64(), Some(1.0));
        assert_eq!(
            span.get("args").unwrap().get("size").unwrap().as_f64(),
            Some(4.0)
        );
        let instant = &events[3];
        assert_eq!(instant.get("ph").unwrap().as_str(), Some("i"));
        assert_eq!(instant.get("s").unwrap().as_str(), Some("t"));
        assert!(instant.get("dur").is_none(), "instants carry no duration");
        assert!(instant.get("args").is_none(), "empty args are omitted");
    }

    #[test]
    fn metadata_names_tracks() {
        let json = sample().to_json();
        let events = json.get("traceEvents").unwrap().as_arr().unwrap();
        assert_eq!(events[0].get("ph").unwrap().as_str(), Some("M"));
        assert_eq!(
            events[0].get("name").unwrap().as_str(),
            Some("process_name")
        );
        assert_eq!(
            events[0].get("args").unwrap().get("name").unwrap().as_str(),
            Some("pool")
        );
        assert_eq!(events[1].get("name").unwrap().as_str(), Some("thread_name"));
        assert_eq!(events[1].get("tid").unwrap().as_f64(), Some(1.0));
    }

    #[test]
    fn serialization_is_deterministic() {
        let a = sample().to_json().to_pretty();
        let b = sample().to_json().to_pretty();
        assert_eq!(a, b);
        assert!(a.starts_with("{\n  \"traceEvents\": ["));
    }
}
