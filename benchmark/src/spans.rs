//! In-memory span recorder for the traced run.
//!
//! Spans are recorded from the benchmark's own code around each call
//! into a layer's public API. Each span has a name, a start and end
//! (wall-clock ns since the recorder was created), its parent span and
//! the pass it belongs to. Nothing is written until the run ends; then
//! [`Recorder::to_chrome`] hands the spans to the workspace's own
//! Perfetto exporter.

use std::collections::BTreeMap;
use std::time::Instant;

use gdr_system::json::Json;
use gdr_system::trace_export::ChromeTrace;

use crate::SPAN_KEYS;

/// One recorded call.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Span {
    /// Layer call name, e.g. `"core.matching"`.
    pub name: &'static str,
    /// Sub-key: dataset or platform index, when the name is split by one.
    pub key: Option<usize>,
    /// Start, ns since the recorder's epoch.
    pub start_ns: u64,
    /// End, ns since the recorder's epoch.
    pub end_ns: u64,
    /// Index of the enclosing span, if any.
    pub parent: Option<usize>,
    /// Pass id: 0 is set-up, 1.. are traced passes, then probes.
    pub pass: u32,
}

impl Span {
    /// Span length, ns.
    pub fn dur_ns(&self) -> u64 {
        self.end_ns - self.start_ns
    }
}

/// Records nested spans while enabled; every call is a no-op while
/// disabled, so the untraced run carries no recording cost.
#[derive(Debug)]
pub struct Recorder {
    enabled: bool,
    epoch: Instant,
    pass: u32,
    spans: Vec<Span>,
    stack: Vec<usize>,
}

impl Recorder {
    /// A recorder that records only when `enabled`.
    pub fn new(enabled: bool) -> Self {
        Self {
            enabled,
            epoch: Instant::now(),
            pass: 0,
            spans: Vec::new(),
            stack: Vec::new(),
        }
    }

    /// Whether spans are being recorded.
    pub fn enabled(&self) -> bool {
        self.enabled
    }

    /// Sets the pass id stamped on spans opened from now on.
    pub fn set_pass(&mut self, pass: u32) {
        self.pass = pass;
    }

    fn now_ns(&self) -> u64 {
        self.epoch.elapsed().as_nanos() as u64
    }

    /// Runs `f` inside a span named `name` (split by `key`).
    pub fn time<T>(
        &mut self,
        name: &'static str,
        key: Option<usize>,
        f: impl FnOnce(&mut Self) -> T,
    ) -> T {
        if !self.enabled {
            return f(self);
        }
        let id = self.spans.len();
        self.spans.push(Span {
            name,
            key,
            start_ns: 0,
            end_ns: 0,
            parent: self.stack.last().copied(),
            pass: self.pass,
        });
        self.stack.push(id);
        self.spans[id].start_ns = self.now_ns();
        let out = f(self);
        self.spans[id].end_ns = self.now_ns();
        self.stack.pop();
        out
    }

    /// Every recorded span, in opening order.
    pub fn spans(&self) -> &[Span] {
        &self.spans
    }

    /// Each span's self time: its length minus the length of its direct
    /// children (children never overlap: the benchmark is one thread).
    pub fn self_ns(&self) -> Vec<u64> {
        let mut child = vec![0u64; self.spans.len()];
        for s in &self.spans {
            if let Some(p) = s.parent {
                child[p] += s.dur_ns();
            }
        }
        self.spans
            .iter()
            .zip(child)
            .map(|(s, c)| s.dur_ns().saturating_sub(c))
            .collect()
    }

    /// Total self time per `(name, key)` over the spans `keep` accepts.
    pub fn self_ns_by(
        &self,
        keep: impl Fn(&Span) -> bool,
    ) -> BTreeMap<(&'static str, Option<usize>), u64> {
        let mut out = BTreeMap::new();
        for (s, ns) in self.spans.iter().zip(self.self_ns()) {
            if keep(s) {
                *out.entry((s.name, s.key)).or_insert(0) += ns;
            }
        }
        out
    }

    /// Total self time and count of the spans named `name` (any key)
    /// that `keep` accepts.
    pub fn sum(&self, name: &str, keep: impl Fn(&Span) -> bool) -> (u64, usize) {
        self.spans
            .iter()
            .zip(self.self_ns())
            .filter(|(s, _)| s.name == name && keep(s))
            .fold((0, 0), |(ns, n), (_, own)| (ns + own, n + 1))
    }

    /// Self time per layer (the span name up to its first `.`) over the
    /// spans `keep` accepts, sorted by layer.
    pub fn layer_self_ns(&self, keep: impl Fn(&Span) -> bool) -> BTreeMap<&'static str, u64> {
        let mut out = BTreeMap::new();
        for (s, ns) in self.spans.iter().zip(self.self_ns()) {
            if !keep(s) {
                continue;
            }
            let layer = s.name.split('.').next().unwrap_or(s.name);
            *out.entry(layer).or_insert(0) += ns;
        }
        out
    }

    /// The spans as a Chrome-trace-event document: one process, one
    /// track per pass, span id and parent id in each event's args, and
    /// each span's sub-key appended to its name (see [`SPAN_KEYS`]).
    pub fn to_chrome(&self, label: &str) -> ChromeTrace {
        let mut trace = ChromeTrace::new();
        trace.process_name(1, &format!("gdr-perfbench {label}"));
        let mut passes: Vec<u32> = self.spans.iter().map(|s| s.pass).collect();
        passes.sort_unstable();
        passes.dedup();
        for &p in &passes {
            let track = if p == 0 {
                "set-up".to_string()
            } else {
                format!("pass {p}")
            };
            trace.thread_name(1, u64::from(p), &track);
        }
        for (id, s) in self.spans.iter().enumerate() {
            let name = match s.key.and_then(|k| SPAN_KEYS.get(k)) {
                Some(k) => format!("{}.{k}", s.name),
                None => s.name.to_string(),
            };
            let mut args = vec![("span".to_string(), Json::from(id as u64))];
            if let Some(p) = s.parent {
                args.push(("parent".to_string(), Json::from(p as u64)));
            }
            let cat = s.name.split('.').next().unwrap_or(s.name);
            trace.duration(
                1,
                u64::from(s.pass),
                s.start_ns,
                s.dur_ns(),
                &name,
                cat,
                args,
            );
        }
        trace
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn self_time_subtracts_children() {
        let mut rec = Recorder::new(true);
        rec.time("outer.a", None, |rec| {
            rec.time("inner.b", Some(1), |_| {
                std::thread::sleep(std::time::Duration::from_millis(2))
            });
        });
        let spans = rec.spans();
        assert_eq!(spans.len(), 2);
        assert_eq!(spans[1].parent, Some(0));
        let own = rec.self_ns();
        assert!(own[0] < spans[0].dur_ns());
        assert_eq!(own[1], spans[1].dur_ns());
        assert!(rec.layer_self_ns(|_| true).contains_key("inner"));
    }

    #[test]
    fn disabled_recorder_records_nothing() {
        let mut rec = Recorder::new(false);
        let v = rec.time("x.y", None, |_| 3);
        assert_eq!(v, 3);
        assert!(rec.spans().is_empty());
    }
}
