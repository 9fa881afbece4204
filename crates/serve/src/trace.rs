//! Deterministic tracing for the virtual-time serving loop.
//!
//! A [`TraceSink`] attached to a
//! [`Simulator`](crate::scheduler::Simulator) receives one typed
//! [`TraceEvent`] per lifecycle step — request arrival, batch seal,
//! dispatch, service start (with the bind/service split and the
//! shard-miss flag), batch completion, drop — plus replica-scope events
//! (cold start, drain, crash, recover, view change, batch migration).
//! Every event is stamped in **virtual nanoseconds**, so a trace is as
//! byte-reproducible as the run itself: same scenario, same seed, same
//! bytes.
//!
//! Tracing is strictly opt-in and zero-cost when disabled: the
//! simulator holds an `Option<&mut dyn TraceSink>` that defaults to
//! `None` (mirroring the fault plan's lazily-created drop RNG), every
//! emission site is guarded on it, and a sink-free run produces a
//! [`SimResult`](crate::scheduler::SimResult) byte-identical to one
//! from a build without this module.
//!
//! [`chrome_trace`] folds a recorded event list into a
//! [`ChromeTrace`] — the Chrome-trace-event JSON that
//! <https://ui.perfetto.dev> loads directly: one track per replica,
//! batches as duration events, faults and control-plane activity as
//! instant events. `gdr-bench trace --out trace.json` wires it to the
//! CLI. The same list feeds the latency breakdown
//! ([`request_breakdowns`](crate::metrics::request_breakdowns)), the
//! replay log
//! ([`AssignmentLog::from_events`](crate::replay::AssignmentLog::from_events))
//! and the pool's active-replica count ([`active_replicas`]).

use std::borrow::Cow;
use std::cmp::Reverse;
use std::collections::BinaryHeap;

use gdr_system::json::Json;
use gdr_system::trace_export::ChromeTrace;

/// One typed event from the serving loop, stamped in virtual ns.
///
/// Request-lifecycle events carry the ids needed to reassemble a
/// request's full timeline (`arrival → seal → dispatch → start →
/// complete` or `→ drop`); replica-scope events mark pool state
/// changes. Batches are identified by the id of their first request
/// (`batch`), which is unique — a request belongs to exactly one batch.
#[derive(Debug, Clone, PartialEq)]
pub enum TraceEvent {
    /// A request entered the batcher.
    Arrival {
        /// Virtual time, ns.
        time_ns: u64,
        /// Request id.
        request: u64,
        /// Issuing client (closed-loop traffic).
        client: usize,
        /// Targeted grid cell, as a dense [`Cell::index`](crate::request::Cell::index).
        cell: usize,
    },
    /// The batcher sealed a batch (cap reached, deadline, or end-of-stream
    /// flush); `time_ns` equals the batch's `formed_ns`.
    BatchSealed {
        /// Virtual time, ns.
        time_ns: u64,
        /// Batch id (first request id).
        batch: u64,
        /// Targeted grid cell index.
        cell: usize,
        /// Ids of the sealed requests.
        requests: Vec<u64>,
    },
    /// The scheduler assigned a batch to a replica.
    Dispatched {
        /// Virtual time, ns.
        time_ns: u64,
        /// Batch id (first request id).
        batch: u64,
        /// Chosen replica slot.
        replica: usize,
        /// Whether the batch had to queue behind an in-flight batch
        /// (false = started immediately).
        queued: bool,
    },
    /// No live replica could take the batch (or the primary seat was
    /// empty); it parks until a recovery or view change.
    Parked {
        /// Virtual time, ns.
        time_ns: u64,
        /// Batch id (first request id).
        batch: u64,
        /// Requests riding in the parked batch.
        size: usize,
    },
    /// A replica began executing a batch. This is the span event the
    /// latency attribution folds: `bind_ns + service_ns` is the exact
    /// execution window, `stall_ns` the accumulated parked/orphaned
    /// time, and `requests` carries `(id, arrival_ns)` pairs so
    /// per-request components need no join against other events.
    BatchStarted {
        /// Virtual start time, ns.
        time_ns: u64,
        /// Batch id (first request id).
        batch: u64,
        /// Executing replica slot.
        replica: usize,
        /// Targeted grid cell index.
        cell: usize,
        /// When the batcher sealed the batch, ns.
        formed_ns: u64,
        /// Requests in the batch.
        size: usize,
        /// Dataset-warm (schedule-cache hit).
        warm: bool,
        /// Feature-cache hit.
        cache_hit: bool,
        /// Cold-bind of a dataset outside the replica's shard.
        shard_miss: bool,
        /// Bind component of the execution window, ns (0 unless
        /// `shard_miss`; straggler-stretched like the service).
        bind_ns: u64,
        /// Execution component, ns; completion lands at exactly
        /// `time_ns + bind_ns + service_ns`.
        service_ns: u64,
        /// Virtual time the batch spent parked or orphaned between seal
        /// and this start, ns.
        stall_ns: u64,
        /// `(request id, arrival_ns)` of every carried request.
        requests: Vec<(u64, u64)>,
    },
    /// A replica finished a batch; its requests completed.
    BatchCompleted {
        /// Virtual time, ns.
        time_ns: u64,
        /// Batch id (first request id).
        batch: u64,
        /// Executing replica slot.
        replica: usize,
        /// Requests that completed with the batch.
        size: usize,
    },
    /// A request was lost to the fault plan.
    RequestDropped {
        /// Virtual time, ns.
        time_ns: u64,
        /// Request id.
        request: u64,
        /// Replica the request died on, when attributable.
        replica: Option<usize>,
    },
    /// The autoscaler decided to activate a replica slot; it serves
    /// from `time_ns + delay_ns`.
    ColdStart {
        /// Decision time, ns.
        time_ns: u64,
        /// Activated replica slot.
        replica: usize,
        /// Cold-start delay, ns.
        delay_ns: u64,
    },
    /// A drained (or idle surplus) replica deactivated cold.
    ReplicaDrained {
        /// Virtual time, ns.
        time_ns: u64,
        /// Deactivated replica slot.
        replica: usize,
    },
    /// Fault plan: a replica crashed.
    Crash {
        /// Virtual time, ns.
        time_ns: u64,
        /// Crashed replica slot.
        replica: usize,
    },
    /// Fault plan: a replica rejoined, cold.
    Recover {
        /// Virtual time, ns.
        time_ns: u64,
        /// Recovered replica slot.
        replica: usize,
    },
    /// The control plane completed a view change.
    ViewChange {
        /// Completion time, ns.
        time_ns: u64,
    },
    /// A batch migrated off a crashed replica into the re-issue path
    /// (control plane only).
    BatchMigrated {
        /// Virtual time, ns.
        time_ns: u64,
        /// Batch id (first request id).
        batch: u64,
        /// The crashed replica the batch was torn off.
        from: usize,
        /// Requests riding in the migrated batch.
        size: usize,
    },
}

impl TraceEvent {
    /// The event's virtual timestamp, ns. The simulator emits events in
    /// non-decreasing virtual time, so a recorded list is sorted by
    /// this key.
    pub fn time_ns(&self) -> u64 {
        match *self {
            TraceEvent::Arrival { time_ns, .. }
            | TraceEvent::BatchSealed { time_ns, .. }
            | TraceEvent::Dispatched { time_ns, .. }
            | TraceEvent::Parked { time_ns, .. }
            | TraceEvent::BatchStarted { time_ns, .. }
            | TraceEvent::BatchCompleted { time_ns, .. }
            | TraceEvent::RequestDropped { time_ns, .. }
            | TraceEvent::ColdStart { time_ns, .. }
            | TraceEvent::ReplicaDrained { time_ns, .. }
            | TraceEvent::Crash { time_ns, .. }
            | TraceEvent::Recover { time_ns, .. }
            | TraceEvent::ViewChange { time_ns }
            | TraceEvent::BatchMigrated { time_ns, .. } => time_ns,
        }
    }
}

/// Receives the serving loop's trace events.
///
/// The simulator calls [`emit`](TraceSink::emit) once per event, in
/// non-decreasing virtual time. Implementations must not reorder or
/// sample if they want the byte-reproducibility guarantee to carry
/// through to their output.
pub trait TraceSink: std::fmt::Debug {
    /// Consumes one event.
    fn emit(&mut self, event: TraceEvent);
}

/// The standard sink: records every event in emission order.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct RecordingSink {
    /// Every emitted event, in emission (virtual-time) order.
    pub events: Vec<TraceEvent>,
}

impl TraceSink for RecordingSink {
    fn emit(&mut self, event: TraceEvent) {
        self.events.push(event);
    }
}

/// The pool's active-replica count after every change to it, folded
/// from a recorded event list as `(time_ns, count)` pairs from
/// `(0, initial)`. A slot counts while it is active and up, as
/// replica-seconds bill it: an initial slot from the start, an
/// autoscaled one from its cold start's `time_ns + delay_ns`, each until
/// it drains, and none between a crash and its recovery.
pub fn active_replicas(events: &[TraceEvent], initial: usize) -> Vec<(u64, usize)> {
    // Per slot: (active, up); autoscaled slots join inactive.
    let mut slots = vec![(true, true); initial];
    let mut steps = vec![(0, initial)];
    let mut change = |time_ns, r: usize, set: fn(&mut (bool, bool))| {
        if slots.len() <= r {
            slots.resize(r + 1, (false, true));
        }
        set(&mut slots[r]);
        let active = slots.iter().filter(|&&s| s == (true, true)).count();
        steps.push((time_ns, active));
    };
    // Cold starts not yet serving, earliest first.
    let mut pending = BinaryHeap::new();
    // A trailing `None` lets the cold starts still pending finish.
    for event in events.iter().map(Some).chain([None]) {
        let now = event.map_or(u64::MAX, TraceEvent::time_ns);
        while let Some(Reverse((ready_ns, r))) = pending.peek().copied() {
            if ready_ns > now {
                break;
            }
            pending.pop();
            change(ready_ns, r, |s| s.0 = true);
        }
        match event {
            Some(&TraceEvent::ColdStart {
                time_ns,
                replica,
                delay_ns,
            }) => pending.push(Reverse((time_ns + delay_ns, replica))),
            Some(&TraceEvent::ReplicaDrained { replica, .. }) => {
                change(now, replica, |s| s.0 = false)
            }
            Some(&TraceEvent::Crash { replica, .. }) => change(now, replica, |s| s.1 = false),
            Some(&TraceEvent::Recover { replica, .. }) => change(now, replica, |s| s.1 = true),
            _ => {}
        }
    }
    steps
}

/// Track layout of the exported trace: the scenario is one process
/// (`pid 1`), request-scope events ride on `tid 0`, and replica slot
/// `r` is thread `r + 1`.
const TRACE_PID: u64 = 1;
const REQUEST_TID: u64 = 0;

fn replica_tid(replica: usize) -> u64 {
    replica as u64 + 1
}

/// One event arg under a literal key, which the trace borrows.
fn arg(key: &'static str, value: impl Into<Json>) -> (Cow<'static, str>, Json) {
    (Cow::Borrowed(key), value.into())
}

/// The args of an event that carries none.
const NO_ARGS: Vec<(Cow<'static, str>, Json)> = Vec::new();

/// Folds a recorded event list into Chrome-trace-event JSON: replicas
/// as named tracks, batch executions as duration events (`ph: "X"`,
/// carrying the warm/cache/shard flags and the bind/stall split as
/// `args`), and everything else — arrivals, seals, faults, control
/// traffic — as instant events. The output is a pure function of the
/// inputs, so a deterministic run exports a byte-identical trace.
///
/// Event names, categories and arg keys are literals, which the trace
/// borrows; only a batch span's name (`batch b{id} x{size}`) and the
/// track names are formatted. So an event costs its args vector, and a
/// batch span its name too.
///
/// `replica_platforms` maps each replica slot to its cost-model
/// platform index ([`SimResult::replica_platforms`](crate::scheduler::SimResult::replica_platforms));
/// `platform_names` are the cost model's platform labels.
pub fn chrome_trace(
    scenario: &str,
    events: &[TraceEvent],
    replica_platforms: &[usize],
    platform_names: &[String],
) -> ChromeTrace {
    let mut trace = ChromeTrace::new();
    trace.process_name(TRACE_PID, &format!("gdr-serve {scenario}"));
    trace.thread_name(TRACE_PID, REQUEST_TID, "requests");
    for (r, &p) in replica_platforms.iter().enumerate() {
        let platform = platform_names.get(p).map_or("?", |name| name.as_str());
        trace.thread_name(
            TRACE_PID,
            replica_tid(r),
            &format!("replica {r} ({platform})"),
        );
    }
    for ev in events {
        match ev {
            TraceEvent::Arrival {
                time_ns,
                request,
                client,
                cell,
            } => trace.instant(
                TRACE_PID,
                REQUEST_TID,
                *time_ns,
                "arrival",
                "request",
                vec![
                    arg("request", *request),
                    arg("client", *client),
                    arg("cell", *cell),
                ],
            ),
            TraceEvent::BatchSealed {
                time_ns,
                batch,
                cell,
                requests,
            } => trace.instant(
                TRACE_PID,
                REQUEST_TID,
                *time_ns,
                "batch-sealed",
                "batch",
                vec![
                    arg("batch", *batch),
                    arg("cell", *cell),
                    arg("size", requests.len()),
                ],
            ),
            TraceEvent::Dispatched {
                time_ns,
                batch,
                replica,
                queued,
            } => trace.instant(
                TRACE_PID,
                replica_tid(*replica),
                *time_ns,
                "dispatch",
                "batch",
                vec![arg("batch", *batch), arg("queued", *queued)],
            ),
            TraceEvent::Parked {
                time_ns,
                batch,
                size,
            } => trace.instant(
                TRACE_PID,
                REQUEST_TID,
                *time_ns,
                "parked",
                "fault",
                vec![arg("batch", *batch), arg("size", *size)],
            ),
            TraceEvent::BatchStarted {
                time_ns,
                batch,
                replica,
                cell: _,
                formed_ns,
                size,
                warm,
                cache_hit,
                shard_miss,
                bind_ns,
                service_ns,
                stall_ns,
                requests,
            } => {
                let oldest_arrival_ns = requests.iter().map(|&(_, a)| a).min().unwrap_or(0);
                trace.duration(
                    TRACE_PID,
                    replica_tid(*replica),
                    *time_ns,
                    bind_ns + service_ns,
                    format!("batch b{batch} x{size}"),
                    "batch",
                    vec![
                        arg("batch", *batch),
                        arg("size", *size),
                        arg("warm", *warm),
                        arg("cache_hit", *cache_hit),
                        arg("shard_miss", *shard_miss),
                        arg("bind_ns", *bind_ns),
                        arg("service_ns", *service_ns),
                        arg("stall_ns", *stall_ns),
                        arg("formed_ns", *formed_ns),
                        arg("oldest_arrival_ns", oldest_arrival_ns),
                    ],
                );
            }
            TraceEvent::BatchCompleted {
                time_ns,
                batch,
                replica,
                size,
            } => trace.instant(
                TRACE_PID,
                replica_tid(*replica),
                *time_ns,
                "complete",
                "batch",
                vec![arg("batch", *batch), arg("size", *size)],
            ),
            TraceEvent::RequestDropped {
                time_ns,
                request,
                replica,
            } => trace.instant(
                TRACE_PID,
                replica.map_or(REQUEST_TID, replica_tid),
                *time_ns,
                "dropped",
                "fault",
                vec![arg("request", *request)],
            ),
            TraceEvent::ColdStart {
                time_ns,
                replica,
                delay_ns,
            } => trace.duration(
                TRACE_PID,
                replica_tid(*replica),
                *time_ns,
                *delay_ns,
                "cold-start",
                "autoscale",
                vec![arg("delay_ns", *delay_ns)],
            ),
            TraceEvent::ReplicaDrained { time_ns, replica } => trace.instant(
                TRACE_PID,
                replica_tid(*replica),
                *time_ns,
                "drained",
                "autoscale",
                NO_ARGS,
            ),
            TraceEvent::Crash { time_ns, replica } => trace.instant(
                TRACE_PID,
                replica_tid(*replica),
                *time_ns,
                "crash",
                "fault",
                NO_ARGS,
            ),
            TraceEvent::Recover { time_ns, replica } => trace.instant(
                TRACE_PID,
                replica_tid(*replica),
                *time_ns,
                "recover",
                "fault",
                NO_ARGS,
            ),
            TraceEvent::ViewChange { time_ns } => trace.instant(
                TRACE_PID,
                REQUEST_TID,
                *time_ns,
                "view-change",
                "control",
                NO_ARGS,
            ),
            TraceEvent::BatchMigrated {
                time_ns,
                batch,
                from,
                size,
            } => trace.instant(
                TRACE_PID,
                replica_tid(*from),
                *time_ns,
                "migrate",
                "fault",
                vec![arg("batch", *batch), arg("size", *size)],
            ),
        }
    }
    trace
}

#[cfg(test)]
mod tests {
    use super::*;

    fn started(time_ns: u64, batch: u64, replica: usize) -> TraceEvent {
        TraceEvent::BatchStarted {
            time_ns,
            batch,
            replica,
            cell: 0,
            formed_ns: time_ns.saturating_sub(10),
            size: 2,
            warm: false,
            cache_hit: false,
            shard_miss: false,
            bind_ns: 0,
            service_ns: 100,
            stall_ns: 0,
            requests: vec![
                (batch, time_ns.saturating_sub(25)),
                (batch + 1, time_ns - 12),
            ],
        }
    }

    #[test]
    fn recording_sink_preserves_emission_order() {
        let mut sink = RecordingSink::default();
        sink.emit(TraceEvent::Arrival {
            time_ns: 5,
            request: 0,
            client: 0,
            cell: 3,
        });
        sink.emit(started(40, 0, 1));
        assert_eq!(sink.events.len(), 2);
        assert_eq!(sink.events[0].time_ns(), 5);
        assert_eq!(sink.events[1].time_ns(), 40);
    }

    #[test]
    fn chrome_trace_lays_out_replica_tracks() {
        let events = vec![
            TraceEvent::Arrival {
                time_ns: 5,
                request: 0,
                client: 0,
                cell: 3,
            },
            started(40, 0, 1),
            TraceEvent::Crash {
                time_ns: 90,
                replica: 0,
            },
        ];
        let names = vec!["HiHGNN+GDR".to_string()];
        let trace = chrome_trace("unit", &events, &[0, 0], &names);
        let json = Json::parse(&trace.to_json().to_pretty()).unwrap();
        let items = json.get("traceEvents").unwrap().as_arr().unwrap();
        // 3 metadata (process + requests + 2 replicas = 4) then 3 events.
        assert_eq!(items.len(), 4 + 3);
        let meta: Vec<&str> = items
            .iter()
            .filter(|e| e.get("ph").unwrap().as_str() == Some("M"))
            .filter_map(|e| e.get("args").unwrap().get("name").unwrap().as_str())
            .collect();
        assert_eq!(
            meta,
            [
                "gdr-serve unit",
                "requests",
                "replica 0 (HiHGNN+GDR)",
                "replica 1 (HiHGNN+GDR)"
            ]
        );
        let span = items
            .iter()
            .find(|e| e.get("ph").unwrap().as_str() == Some("X"))
            .expect("the started batch exports as a duration event");
        assert_eq!(span.get("tid").unwrap().as_f64(), Some(2.0));
        assert_eq!(span.get("ts").unwrap().as_f64(), Some(0.04));
        assert_eq!(span.get("dur").unwrap().as_f64(), Some(0.1));
        let args = span.get("args").unwrap();
        assert_eq!(args.get("oldest_arrival_ns").unwrap().as_f64(), Some(15.0));
    }

    #[test]
    fn export_is_a_pure_function_of_the_events() {
        let events = vec![started(40, 0, 0), started(200, 2, 0)];
        let names = vec!["HiHGNN".to_string()];
        let a = chrome_trace("x", &events, &[0], &names)
            .to_json()
            .to_pretty();
        let b = chrome_trace("x", &events, &[0], &names)
            .to_json()
            .to_pretty();
        assert_eq!(a, b);
    }
}
