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
//! sections. Serialization uses the quoting, number printing and layout
//! of [`json`], so a trace built from deterministic inputs
//! serializes byte-identically, and to the bytes [`Json::to_pretty`]
//! would give for the same document.
//!
//! Text known at compile time is kept by reference: a category is a
//! `&'static str`, and a literal event name ([`EventName`]) and a
//! literal arg key are borrowed. An event allocates only its name where
//! the name was formatted, and its args. The export,
//! [`ChromeTrace::to_json`], is a view that writes the text straight
//! from the events: it builds no value tree and allocates only its
//! output.
//!
//! [Chrome Trace Event Format]:
//!     https://docs.google.com/document/d/1CvAClvFfyA5R-PhYUmn5OOQtYMH4h6I0nSsKchNAySU
//!
//! ```
//! use gdr_system::json::Json;
//! use gdr_system::trace_export::ChromeTrace;
//!
//! let mut trace = ChromeTrace::new();
//! trace.process_name(1, "pool");
//! trace.thread_name(1, 1, "replica 0");
//! // A formatted name is moved in; the category and arg keys are
//! // literals, which the trace borrows.
//! let size = 4u64;
//! let args = vec![("size", Json::from(size))];
//! trace.duration(1, 1, 2_000, 1_500, format!("batch x{size}"), "batch", args);
//! trace.instant(1, 1, 3_500, "crash", "fault", vec![("replica", Json::from(0u64))]);
//! let json = Json::parse(&trace.to_json().to_pretty()).unwrap();
//! assert_eq!(json.get("traceEvents").unwrap().as_arr().unwrap().len(), 4);
//! ```

use std::borrow::Cow;

use crate::json::{self, Json, Seq};

/// The name of a duration or instant event. A string literal is kept by
/// reference for the life of the trace, a formatted `String` is moved
/// in, and a borrowed `String` is copied once.
pub trait EventName {
    /// The name as the trace stores it.
    fn into_name(self) -> Cow<'static, str>;
}

impl EventName for &'static str {
    fn into_name(self) -> Cow<'static, str> {
        Cow::Borrowed(self)
    }
}

impl EventName for String {
    fn into_name(self) -> Cow<'static, str> {
        Cow::Owned(self)
    }
}

impl EventName for &String {
    fn into_name(self) -> Cow<'static, str> {
        Cow::Owned(self.clone())
    }
}

/// One trace event: a metadata record, a duration span, or an instant
/// marker. Constructed only through the [`ChromeTrace`] methods so the
/// phase/field combinations stay valid.
#[derive(Debug, Clone, PartialEq)]
struct ChromeEvent {
    name: Cow<'static, str>,
    cat: &'static str,
    /// Phase: `"X"` duration, `"i"` instant, `"M"` metadata.
    ph: &'static str,
    ts_ns: u64,
    dur_ns: Option<u64>,
    pid: u64,
    tid: u64,
    args: Vec<(Cow<'static, str>, Json)>,
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

    fn metadata(&mut self, pid: u64, tid: u64, kind: &'static str, name: &str) {
        self.events.push(ChromeEvent {
            name: Cow::Borrowed(kind),
            cat: "__metadata",
            ph: "M",
            ts_ns: 0,
            dur_ns: None,
            pid,
            tid,
            args: vec![("name".into(), Json::from(name))],
        });
    }

    /// Records a complete duration event (`ph: "X"`) spanning
    /// `[ts_ns, ts_ns + dur_ns]` on track `(pid, tid)`. Arg keys are
    /// `&'static str` literals (borrowed), `String`s (moved in) or
    /// `Cow<'static, str>`s.
    // The parameter list mirrors the trace-event field list one-to-one;
    // a builder or params struct would just rename the same eight
    // things.
    #[allow(clippy::too_many_arguments)]
    pub fn duration<K: Into<Cow<'static, str>>>(
        &mut self,
        pid: u64,
        tid: u64,
        ts_ns: u64,
        dur_ns: u64,
        name: impl EventName,
        cat: &'static str,
        args: Vec<(K, Json)>,
    ) {
        self.events.push(ChromeEvent {
            name: name.into_name(),
            cat,
            ph: "X",
            ts_ns,
            dur_ns: Some(dur_ns),
            pid,
            tid,
            args: args_of(args),
        });
    }

    /// Records a thread-scoped instant event (`ph: "i"`, `s: "t"`) at
    /// `ts_ns` on track `(pid, tid)`. Arg keys as for
    /// [`duration`](Self::duration).
    pub fn instant<K: Into<Cow<'static, str>>>(
        &mut self,
        pid: u64,
        tid: u64,
        ts_ns: u64,
        name: impl EventName,
        cat: &'static str,
        args: Vec<(K, Json)>,
    ) {
        self.events.push(ChromeEvent {
            name: name.into_name(),
            cat,
            ph: "i",
            ts_ns,
            dur_ns: None,
            pid,
            tid,
            args: args_of(args),
        });
    }

    /// The trace as a Chrome-trace-event JSON document,
    /// `{"traceEvents": [...], "displayTimeUnit": "ms"}`: a view that
    /// borrows the events and writes their text when asked.
    ///
    /// Timestamps and durations are converted from the builder's
    /// nanoseconds to the microseconds the format specifies (fractional
    /// `ts` values are valid and preserved by Perfetto). The conversion
    /// is a fixed function of the input, so identical traces serialize
    /// byte-identically.
    pub fn to_json(&self) -> ChromeJson<'_> {
        ChromeJson {
            events: &self.events,
        }
    }
}

/// A [`ChromeTrace`] seen as its JSON document. It holds nothing but a
/// borrow of the events; [`to_pretty`](Self::to_pretty) writes the text
/// straight from them.
#[derive(Debug, Clone, Copy)]
pub struct ChromeJson<'a> {
    events: &'a [ChromeEvent],
}

impl ChromeJson<'_> {
    /// Writes the document with 2-space indentation and a trailing
    /// newline, the layout [`Json::to_pretty`] gives, allocating only
    /// the returned text.
    pub fn to_pretty(&self) -> String {
        json::pretty(|out, indent| {
            let mut doc = Seq::object(out, indent, 0);
            let mut events = Seq::array(doc.member("traceEvents"), indent, 1);
            for event in self.events {
                event.write(events.item(), indent, 2);
            }
            events.end();
            json::write_str(doc.member("displayTimeUnit"), "ms");
            doc.end();
        })
    }
}

/// An args list with its keys as the event stores them. A list of
/// `String` or `Cow` keys has the layout of the result, so collecting
/// reuses its allocation.
fn args_of<K: Into<Cow<'static, str>>>(args: Vec<(K, Json)>) -> Vec<(Cow<'static, str>, Json)> {
    args.into_iter().map(|(k, v)| (k.into(), v)).collect()
}

impl ChromeEvent {
    /// Writes the event as one object at nesting `depth`, its fields in
    /// the order name, cat, ph, ts, dur, pid, tid, s, args.
    fn write(&self, out: &mut String, indent: Option<usize>, depth: usize) {
        let micros = |ns: u64| ns as f64 / 1_000.0;
        let mut obj = Seq::object(out, indent, depth);
        json::write_str(obj.member("name"), &self.name);
        json::write_str(obj.member("cat"), self.cat);
        json::write_str(obj.member("ph"), self.ph);
        json::write_num(obj.member("ts"), micros(self.ts_ns));
        if let Some(dur) = self.dur_ns {
            json::write_num(obj.member("dur"), micros(dur));
        }
        json::write_num(obj.member("pid"), self.pid as f64);
        json::write_num(obj.member("tid"), self.tid as f64);
        if self.ph == "i" {
            // Instant scope: thread-local, the narrowest rendering.
            json::write_str(obj.member("s"), "t");
        }
        if !self.args.is_empty() {
            json::write_obj(obj.member("args"), &self.args, indent, depth + 1);
        }
        obj.end();
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::json::tests::mix;

    /// The export built as a value tree, one [`Json`] object per event:
    /// the reference whose [`Json::to_pretty`] bytes the writer must
    /// print.
    fn reference(trace: &ChromeTrace) -> Json {
        let events = trace.events.iter().map(|e| {
            // name, cat, ph, ts, dur, pid, tid, s, args
            let mut pairs = Vec::with_capacity(9);
            pairs.push(("name".into(), Json::Str(e.name.clone())));
            pairs.push(("cat".into(), Json::Str(e.cat.into())));
            pairs.push(("ph".into(), Json::Str(e.ph.into())));
            pairs.push(("ts".into(), Json::Num(e.ts_ns as f64 / 1_000.0)));
            if let Some(dur) = e.dur_ns {
                pairs.push(("dur".into(), Json::Num(dur as f64 / 1_000.0)));
            }
            pairs.push(("pid".into(), Json::from(e.pid)));
            pairs.push(("tid".into(), Json::from(e.tid)));
            if e.ph == "i" {
                pairs.push(("s".into(), Json::Str("t".into())));
            }
            if !e.args.is_empty() {
                pairs.push(("args".into(), Json::Obj(e.args.clone())));
            }
            Json::Obj(pairs)
        });
        Json::obj([
            ("traceEvents", Json::arr(events)),
            ("displayTimeUnit", Json::Str("ms".into())),
        ])
    }

    /// Text from pieces that need every kind of escape: quotes,
    /// backslashes, control bytes, and multi-byte characters.
    fn arb_text(seed: u64) -> String {
        const PIECES: &[&str] = &[
            "batch", " x", "8", "\"", "\\", "\n", "\t", "\u{1}", "\u{1f}", "é", "中", "🚀", "/",
        ];
        let len = mix(seed, 1) % 6;
        (0..len)
            .map(|i| PIECES[mix(seed, 2 + i) as usize % PIECES.len()])
            .collect()
    }

    /// A time in ns: under a millisecond, anywhere below 2^53, past 2^43
    /// µs (where the writer leaves the exact-thousandths path), or
    /// anywhere in `u64`.
    fn arb_ns(seed: u64) -> u64 {
        let r = mix(seed, 11);
        match mix(seed, 10) % 4 {
            0 => r % 1_000_000,
            1 => r % (1 << 53),
            2 => (1 << 43) * 1_000 + r % (1 << 50),
            _ => r,
        }
    }

    /// An arg value: every scalar kind, random float bit patterns
    /// (NaN, infinities, subnormals), strings needing escapes, and,
    /// above depth 0, nested arrays and objects.
    fn arb_value(seed: u64, depth: u64) -> Json {
        let kinds = if depth == 0 { 6 } else { 8 };
        let n = mix(seed, 21) % 3;
        match mix(seed, 20) % kinds {
            0 => Json::Null,
            1 => Json::from(n == 0),
            2 => Json::from(arb_ns(seed)),
            3 => Json::from(arb_ns(seed) as f64 / 1_000.0),
            4 => Json::Num(f64::from_bits(mix(seed, 22))),
            5 => Json::from(arb_text(seed)),
            6 => Json::arr((0..n).map(|i| arb_value(mix(seed, 30 + i), depth - 1))),
            _ => Json::Obj(arb_args(seed, depth - 1)),
        }
    }

    /// Zero to three args, keys borrowed or formatted.
    fn arb_args(seed: u64, depth: u64) -> Vec<(Cow<'static, str>, Json)> {
        (0..mix(seed, 40) % 4)
            .map(|i| {
                let s = mix(seed, 41 + i);
                let key = if s.is_multiple_of(2) {
                    Cow::Borrowed("size")
                } else {
                    Cow::Owned(arb_text(s))
                };
                (key, arb_value(s, depth))
            })
            .collect()
    }

    /// A trace of every phase, with ids up to `u64::MAX`.
    fn arb_trace(seed: u64) -> ChromeTrace {
        const CATS: [&str; 4] = ["batch", "fault", "request", "q\"uo\\te"];
        let mut t = ChromeTrace::new();
        for i in 0..mix(seed, 50) % 16 {
            let s = mix(seed, 51 + i);
            let id = |salt| match mix(s, salt) % 3 {
                0 => mix(s, salt + 1),
                _ => mix(s, salt + 1) % 8,
            };
            let (pid, tid, ts, dur) = (id(60), id(62), arb_ns(s), arb_ns(mix(s, 64)));
            let cat = CATS[mix(s, 65) as usize % CATS.len()];
            match mix(s, 66) % 5 {
                0 => t.process_name(pid, &arb_text(s)),
                1 => t.thread_name(pid, tid, &arb_text(s)),
                2 => t.duration(pid, tid, ts, dur, arb_text(s), cat, arb_args(s, 2)),
                3 => t.instant(pid, tid, ts, "crash", cat, arb_args(s, 2)),
                _ => t.instant(pid, tid, ts, arb_text(s), cat, arb_args(s, 2)),
            }
        }
        t
    }

    #[test]
    fn export_prints_the_reference_bytes() {
        assert_eq!(
            ChromeTrace::new().to_json().to_pretty(),
            reference(&ChromeTrace::new()).to_pretty()
        );
        assert_eq!(
            sample().to_json().to_pretty(),
            reference(&sample()).to_pretty()
        );
        for case in 0..512 {
            let t = arb_trace(case);
            assert_eq!(
                t.to_json().to_pretty(),
                reference(&t).to_pretty(),
                "case {case}"
            );
        }
    }

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
        t.instant(1, 1, 3_500, "crash", "fault", Vec::<(&str, Json)>::new());
        t
    }

    #[test]
    fn literal_formatted_and_borrowed_text_export_alike() {
        let x4 = String::from("x4");
        let n = || Json::from(4u64);
        let mut t = ChromeTrace::new();
        t.duration(0, 0, 0, 1, "x4", "b", vec![("k", n())]);
        t.duration(0, 0, 0, 1, x4.clone(), "b", vec![("k".to_string(), n())]);
        t.duration(0, 0, 0, 1, &x4, "b", vec![(Cow::from("k"), n())]);
        let json = Json::parse(&t.to_json().to_pretty()).unwrap();
        let events = json.get("traceEvents").unwrap().as_arr().unwrap();
        assert_eq!(events[0], events[1]);
        assert_eq!(events[0], events[2]);
    }

    #[test]
    fn events_serialize_with_microsecond_timestamps() {
        let json = Json::parse(&sample().to_json().to_pretty()).unwrap();
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
        let json = Json::parse(&sample().to_json().to_pretty()).unwrap();
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
