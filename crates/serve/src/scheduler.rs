//! Multi-replica dispatch and the virtual-time discrete-event loop.
//!
//! A scenario runs a pool of backend **replicas** (each backed by one
//! measured platform of the [`CostModel`]) behind
//! a [`Batcher`]. The simulator advances a
//! virtual clock event by event — arrivals, batch-formation deadlines,
//! replica completions, autoscale activations — with deterministic
//! `(time, sequence)` ordering, so the same inputs produce bit-identical
//! results on any machine and `std::time::Instant` never appears.
//!
//! Dispatch policies:
//!
//! * [`SchedPolicy::RoundRobin`] — rotate across available replicas;
//! * [`SchedPolicy::LeastLoaded`] — send each batch to the replica with
//!   the least outstanding work (in-flight remainder plus queued
//!   estimate), ties to the lowest id;
//! * [`SchedPolicy::ShardAffinity`] — pin each dataset to
//!   `dataset mod replicas`, maximizing dataset-warm hits on platforms
//!   whose frontend can reuse restructured schedules
//!   ([`Platform::reuses_schedules`](gdr_accel::platform::Platform::reuses_schedules));
//! * [`SchedPolicy::ShardAffinityPartial`] — route each batch to the
//!   least-loaded replica **holding** its dataset under the scenario's
//!   [`ShardMap`]; when no available replica holds it, fall back to the
//!   least-loaded replica, which pays the cold-bind **shard-miss
//!   penalty** ([`ServiceCost::bind_ns`](crate::cost::ServiceCost)).
//!
//! The pool itself is shaped by a [`PoolConfig`]: **partial replicas**
//! (each replica holds a dataset shard, misses priced as cold rebinds),
//! a per-replica cross-batch **feature cache**
//! ([`FeatureCache`]), and an **autoscaler** that adds replicas
//! (cold-start priced as a full session bind) and drains them back to
//! the initial pool size. Scale decisions come from one of two
//! controllers: the queue-depth thresholds of [`AutoscaleSpec`], or —
//! when the pool also carries an [`SloSpec`] — a predictive controller
//! that estimates the near-term p99 from the live backlog and the
//! measured service costs and scales against the SLO deadline instead
//! of raw depth. Either way, a scale-down hands the drained replica's
//! queued batches to the survivors (counted in
//! [`SimResult::requeued_batches`]) so they finish warm rather than
//! cold on a dying replica.
//!
//! Faults enter through [`Simulator::with_faults`]: a [`FaultSpec`]
//! turns crashes and recoveries into heap events, stretches a
//! straggler's service times, and drops batches in transit from a
//! dedicated seeded RNG. Without the control plane a crashed replica's
//! in-flight and queued batches die with it (their requests are counted
//! in [`SimResult::dropped`]); with the
//! [`ControlPlane`] enabled they migrate
//! to survivors, and a primary crash triggers a heartbeat-timeout view
//! change that re-issues everything the dead primary held — no accepted
//! request is silently lost. Batches that momentarily have no live
//! replica to run on park and are re-issued on the next recovery or
//! view change; only when the run drains with no live replica left are
//! they counted dropped.

use std::collections::{BinaryHeap, VecDeque};

use gdr_hetgraph::datasets::Dataset;
use rand::rngs::SmallRng;
use rand::{Rng, SeedableRng};

use crate::batcher::{Batch, Batcher};
use crate::cache::FeatureCache;
use crate::control::{ControlPlane, HEARTBEAT_INTERVAL_NS, HEARTBEAT_TIMEOUT_NS, VIEW_CHANGE_NS};
use crate::cost::CostModel;
use crate::fault::FaultSpec;
use crate::request::{Cell, Request};
use crate::trace::{TraceEvent, TraceSink};
use crate::workload::TrafficStream;

/// The batch-to-replica dispatch policy (see module docs).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum SchedPolicy {
    /// Rotate across available replicas in pool order.
    RoundRobin,
    /// Least outstanding estimated work, ties to the lowest replica id.
    LeastLoaded,
    /// Pin each dataset to `dataset_index mod replicas`.
    ShardAffinity,
    /// Least-loaded replica holding the batch's dataset shard; falls
    /// back to miss-penalty routing when no holder is available.
    ShardAffinityPartial,
}

impl SchedPolicy {
    /// Stable policy label serialized into serve records.
    pub fn name(&self) -> &'static str {
        match self {
            SchedPolicy::RoundRobin => "round-robin",
            SchedPolicy::LeastLoaded => "least-loaded",
            SchedPolicy::ShardAffinity => "shard-affinity",
            SchedPolicy::ShardAffinityPartial => "shard-affinity-partial",
        }
    }
}

/// Which datasets each replica of a pool holds locally.
///
/// A **full** map (every replica holds every dataset) reproduces the
/// classic replicated pool. A **strided** map models partial replicas:
/// with `shards` dataset shards, replica `r` holds dataset `d` iff
/// `d % shards == r % shards`, so every dataset is covered as long as
/// the pool has at least `shards` replicas. Serving a dataset a replica
/// does not hold is a *shard miss*: the replica pays the full cold
/// session bind ([`ServiceCost::bind_ns`](crate::cost::ServiceCost))
/// and neither its schedule cache nor its feature cache retain the
/// transient dataset.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ShardMap {
    /// `holds[replica][dataset]`.
    holds: Vec<Vec<bool>>,
}

impl ShardMap {
    /// Every replica holds every dataset (no sharding).
    pub fn full(replicas: usize) -> Self {
        Self {
            holds: vec![vec![true; Dataset::ALL.len()]; replicas],
        }
    }

    /// The strided partial-replica map described in the type docs.
    /// `shards` is clamped to at least 1; `shards <= 1` degenerates to
    /// [`ShardMap::full`].
    pub fn strided(replicas: usize, shards: usize) -> Self {
        let shards = shards.max(1);
        Self {
            holds: (0..replicas)
                .map(|r| {
                    (0..Dataset::ALL.len())
                        .map(|d| d % shards == r % shards)
                        .collect()
                })
                .collect(),
        }
    }

    /// Whether `replica` holds `dataset` (by [`Dataset::ALL`] index).
    ///
    /// # Panics
    ///
    /// Panics if either index is out of range.
    pub fn holds(&self, replica: usize, dataset: usize) -> bool {
        self.holds[replica][dataset]
    }

    /// Replica count the map was built for.
    pub fn replicas(&self) -> usize {
        self.holds.len()
    }

    /// Whether every dataset has at least one holder.
    pub fn covers_all_datasets(&self) -> bool {
        (0..Dataset::ALL.len()).all(|d| self.holds.iter().any(|row| row[d]))
    }
}

/// The queue-driven autoscaling policy: a virtual-time control loop
/// evaluated at every event. When the total queue depth (batcher plus
/// replica queues) exceeds `up_depth`, one inactive replica slot is
/// activated after a cold-start delay priced as the platform's
/// worst-case full session bind
/// ([`CostModel::cold_start_ns`]); when the depth falls below
/// `down_depth`, one surplus replica scales down — an idle one
/// deactivates immediately, otherwise the least-loaded one drains: its
/// queued batches migrate to the survivors and it deactivates cold once
/// its in-flight batch lands. At most one drain is in progress at a
/// time (a draining replica still occupies its surplus slot), and the
/// active count never leaves `[initial pool size, max_replicas]`.
///
/// When the pool also carries an [`SloSpec`], the depth thresholds are
/// ignored and the predictive SLO controller drives the same scale-up /
/// scale-down machinery; `max_replicas` stays the capacity cap.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct AutoscaleSpec {
    /// Upper bound on concurrently active replicas.
    pub max_replicas: usize,
    /// Scale up when total queued requests exceed this depth.
    pub up_depth: usize,
    /// Drain a surplus replica when total queued requests fall below
    /// this depth. Must be below `up_depth`. A value of 0 can never be
    /// undercut (queue depth is unsigned), so the pool scales up but
    /// never drains — use 1 to drain on an empty queue.
    pub down_depth: usize,
}

impl AutoscaleSpec {
    /// Stable label serialized into serve records
    /// (`"queue:32:2:max4"` = up at 32, down at 2, at most 4 replicas).
    pub fn label(&self) -> String {
        format!(
            "queue:{}:{}:max{}",
            self.up_depth, self.down_depth, self.max_replicas
        )
    }
}

/// The latency-SLO serving target: a p99 deadline the pool should meet,
/// and the headroom the controller keeps against it.
///
/// On its own (no [`AutoscaleSpec`]) an `SloSpec` is purely
/// observational: the run reports its `slo_violation_rate` — the
/// fraction of completions whose end-to-end latency exceeded
/// `p99_target_ns` — against a fixed pool. Combined with an
/// `AutoscaleSpec`, it **supersedes the queue-depth thresholds**: the
/// controller predicts the near-term p99 from the live backlog and the
/// measured service costs (see
/// [`Simulator`] docs) and scales up whenever the prediction exceeds
/// [`SloSpec::deadline_ns`], scaling down only when the pool minus one
/// replica would still clear the deadline with a 2x margin. The
/// prediction uses only virtual-time state, so SLO-controlled runs stay
/// byte-for-byte reproducible.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct SloSpec {
    /// The p99 end-to-end latency target, ns. Must be positive.
    pub p99_target_ns: u64,
    /// Fraction of the target the controller steers to, in `(0, 1]`:
    /// the effective deadline is `p99_target_ns * headroom`, so
    /// prediction error eats headroom before it eats the SLO. `1.0`
    /// steers straight at the target.
    pub headroom: f64,
}

impl SloSpec {
    /// The effective deadline the controller compares predictions to:
    /// `p99_target_ns * headroom`, never below 1 ns.
    pub fn deadline_ns(&self) -> u64 {
        ((self.p99_target_ns as f64) * self.headroom)
            .round()
            .max(1.0) as u64
    }

    /// Stable label serialized into serve records
    /// (`"slo:2000000:h0.8"` = 2 ms p99 target at 80% headroom).
    pub fn label(&self) -> String {
        format!("slo:{}:h{}", self.p99_target_ns, self.headroom)
    }
}

/// Pool shaping beyond the replica list: dataset sharding, the
/// per-replica feature cache, autoscaling, and the latency SLO.
/// [`PoolConfig::default`] reproduces the classic fixed pool of full
/// replicas with no cache.
#[derive(Debug, Clone, Copy, PartialEq, Default)]
pub struct PoolConfig {
    /// Dataset shards per replica (`0` or `1` = full replicas).
    pub shards: usize,
    /// Per-replica feature-cache capacity in bytes (`0` = disabled).
    pub cache_bytes: u64,
    /// Autoscaling policy (`None` = fixed pool).
    pub autoscale: Option<AutoscaleSpec>,
    /// Latency SLO (`None` = no target). With `autoscale` set, the SLO
    /// controller replaces the queue-depth thresholds; without it, the
    /// run just measures `slo_violation_rate` against a fixed pool.
    pub slo: Option<SloSpec>,
}

/// One served request: when it finished and which replica ran it.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct CompletedRequest {
    /// The original request.
    pub request: Request,
    /// Virtual completion time, ns.
    pub completed_ns: u64,
    /// Replica that executed the request's batch.
    pub replica: usize,
    /// Service time of the batch that carried the request, ns (the
    /// floor of the request's end-to-end latency).
    pub service_ns: u64,
}

impl CompletedRequest {
    /// End-to-end latency: batch-formation wait + queueing + service.
    pub fn latency_ns(&self) -> u64 {
        self.completed_ns - self.request.arrival_ns
    }
}

/// One executed batch, for batch-shape metrics.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct BatchRecord {
    /// Executing replica.
    pub replica: usize,
    /// Requests in the batch.
    pub size: usize,
    /// Whether the replica was dataset-warm (schedule-cache hit).
    pub warm: bool,
    /// Whether the cell's features were resident in the replica's
    /// feature cache.
    pub cache_hit: bool,
    /// Whether the replica had to cold-bind a dataset outside its shard.
    pub shard_miss: bool,
    /// DRAM traffic charged to the batch, bytes.
    pub dram_bytes: u64,
    /// Service time of the batch, ns.
    pub service_ns: u64,
}

/// One batch execution start — the replayable unit of the
/// virtual-time scheduler's decisions, folded from a trace's
/// [`TraceEvent::BatchStarted`] events by
/// [`AssignmentLog::from_events`](crate::replay::AssignmentLog::from_events)
/// in execution-start order (the order of [`SimResult::batches`]). The
/// replay executor (`crate::replay`) re-executes exactly this sequence
/// on real host threads, preserving per-replica order.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Assignment {
    /// Replica the batch started on.
    pub replica: usize,
    /// The (model, dataset) cell every request in the batch shares.
    pub cell: Cell,
    /// The ids of the requests riding in the batch, batch order.
    pub request_ids: Vec<u64>,
}

/// One autoscale activation: which replica came up and what its
/// cold start cost.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ColdStart {
    /// Activated replica slot.
    pub replica: usize,
    /// Cold-start delay paid before the replica could serve, ns.
    pub delay_ns: u64,
}

/// Queue depths observed at one event time (for time-weighted stats).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct QueueSample {
    /// Virtual time of the sample, ns.
    pub time_ns: u64,
    /// Requests waiting in the batcher (batch not yet formed).
    pub batcher_pending: usize,
    /// Requests queued at each replica (formed, waiting for service).
    pub per_replica: Vec<usize>,
    /// Replicas active (serving or draining) at the sample time.
    pub active_replicas: usize,
    /// Per-slot activity flags at the sample time (`active_replicas`
    /// counts the `true`s). This is what lets `replica_seconds` — the
    /// integral of active replicas over virtual time, the serving
    /// cost-of-goods metric — be split per platform.
    pub active_per_replica: Vec<bool>,
}

impl QueueSample {
    /// Total waiting requests across batcher and replica queues.
    pub fn total(&self) -> usize {
        self.batcher_pending + self.per_replica.iter().sum::<usize>()
    }
}

/// One request lost to a fault: a crashed replica's dying batch
/// (control plane off), an in-transit batch drop, or a drain with no
/// live replica left to serve it.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct DroppedRequest {
    /// The original request.
    pub request: Request,
    /// Virtual time the loss was recorded, ns.
    pub dropped_ns: u64,
    /// Replica the request died on, when attributable (`None` for
    /// in-transit drops and end-of-run force-drops).
    pub replica: Option<usize>,
}

/// The raw outcome of one scenario simulation: per-request and
/// per-batch outcomes plus run totals. Lifecycle detail — stall
/// episodes, migrations, each span's bind/service split, the dispatch
/// sequence replay executes — travels in the [`TraceEvent`] stream of a
/// sink attached with [`Simulator::with_trace`].
#[derive(Debug, Clone, PartialEq)]
pub struct SimResult {
    /// Every completed request (every generated request completes
    /// unless a fault plan drops it — see [`SimResult::dropped`]).
    pub completed: Vec<CompletedRequest>,
    /// Every executed batch, in execution-start order.
    pub batches: Vec<BatchRecord>,
    /// Queue depths sampled at every event.
    pub samples: Vec<QueueSample>,
    /// Virtual time of the last completion, ns.
    pub makespan_ns: u64,
    /// Platform index (into the cost model) of each replica **slot**,
    /// including autoscale slots that may never have activated.
    pub replica_platforms: Vec<usize>,
    /// Size of the initial (minimum) pool.
    pub initial_replicas: usize,
    /// Peak number of concurrently active replicas.
    pub replicas_max: usize,
    /// Every autoscale activation, in activation-decision order.
    pub cold_starts: Vec<ColdStart>,
    /// Every request lost to the fault plan, in loss order. Empty for
    /// fault-free runs.
    pub dropped: Vec<DroppedRequest>,
    /// Completed control-plane view changes.
    pub view_changes: u64,
    /// Total virtual time spent without an operating primary, ns.
    pub failover_ns: u64,
    /// Batches that migrated off crashed replicas for re-issue (control
    /// plane only).
    pub requeued_batches: u64,
}

#[derive(Debug)]
enum EventKind {
    Arrival(Request),
    Flush,
    Done {
        replica: usize,
        /// Crash-generation stamp: a `Done` from before a crash must not
        /// complete a batch started after the recovery.
        generation: u64,
    },
    ScaleUp(usize),
    /// Fault plan: replica fails.
    Crash(usize),
    /// Fault plan: replica rejoins, cold.
    Recover(usize),
    /// Control plane: the primary heartbeats its backups.
    CtrlTick,
    /// Control plane: drain due envelopes in a replica's mailbox.
    CtrlDeliver(usize),
    /// Control plane: a backup's heartbeat-timeout timer.
    CtrlCheck(usize),
    /// Control plane: an in-progress view change completes.
    ViewChange,
    /// Re-dispatch orphaned and parked batches onto live replicas.
    ReIssue,
}

#[derive(Debug)]
struct Event {
    time: u64,
    seq: u64,
    kind: EventKind,
}

// Min-heap order on (time, seq): BinaryHeap is a max-heap, so invert.
impl PartialEq for Event {
    fn eq(&self, other: &Self) -> bool {
        (self.time, self.seq) == (other.time, other.seq)
    }
}
impl Eq for Event {}
impl PartialOrd for Event {
    fn partial_cmp(&self, other: &Self) -> Option<std::cmp::Ordering> {
        Some(self.cmp(other))
    }
}
impl Ord for Event {
    fn cmp(&self, other: &Self) -> std::cmp::Ordering {
        (other.time, other.seq).cmp(&(self.time, self.seq))
    }
}

#[derive(Debug)]
struct Replica {
    platform: usize,
    queue: VecDeque<Batch>,
    /// The executing batch and its service time.
    in_flight: Option<(Batch, u64)>,
    busy_until: u64,
    last_dataset: Option<Dataset>,
    /// Cold-estimate ns of the queued (not yet started) batches.
    queued_est_ns: u64,
    cache: FeatureCache,
    /// Whether the replica currently serves traffic (or is draining).
    active: bool,
    /// Active but excluded from dispatch; deactivates once empty.
    draining: bool,
    /// A scale-up event is in flight for this slot.
    pending_up: bool,
    /// Whether the replica is alive (false between crash and recovery).
    up: bool,
    /// Bumped on every crash, stamped into `Done` events so completions
    /// from a previous life are void.
    generation: u64,
}

impl Replica {
    fn queued_requests(&self) -> usize {
        self.queue.iter().map(Batch::len).sum()
    }

    fn outstanding_ns(&self, now: u64) -> u64 {
        let in_flight = if self.in_flight.is_some() {
            self.busy_until.saturating_sub(now)
        } else {
            0
        };
        in_flight + self.queued_est_ns
    }

    fn idle(&self) -> bool {
        self.in_flight.is_none() && self.queue.is_empty()
    }
}

/// The discrete-event simulator for one scenario. [`Simulator::run`]
/// returns the [`SimResult`]; an attached [`TraceSink`] receives the
/// lifecycle events, which the latency breakdown, the replay log and
/// the Perfetto export fold.
#[derive(Debug)]
pub struct Simulator<'c> {
    cost: &'c CostModel,
    sched: SchedPolicy,
    shards: ShardMap,
    autoscale: Option<AutoscaleSpec>,
    /// Latency SLO driving the predictive controller, if any.
    slo: Option<SloSpec>,
    /// Running totals of executed batch service time, requests, and
    /// batches — the measured means behind the SLO controller's p99
    /// prediction. Maintained unconditionally (cheap), read only when
    /// `slo` is set.
    served_service_ns: u64,
    served_requests: u64,
    served_batches: u64,
    replicas: Vec<Replica>,
    events: BinaryHeap<Event>,
    seq: u64,
    rr_next: usize,
    flush_at: Option<u64>,
    /// Scale-up events scheduled but not yet fired.
    pending_ups: usize,
    /// The injected fault plan (empty by default).
    faults: FaultSpec,
    /// Per-slot service-time multipliers from the fault plan's
    /// slowdowns (1.0 = healthy).
    slow: Vec<f64>,
    /// In-transit batch-loss RNG; present only when `drop_prob > 0`, so
    /// fault-free runs draw nothing and stay byte-identical.
    drop_rng: Option<SmallRng>,
    /// The replicated control plane, when enabled.
    control: Option<ControlPlane>,
    /// Batches collected off crashed replicas, awaiting re-issue.
    orphans: VecDeque<Batch>,
    /// Batches with no live replica to run on (or dispatched while the
    /// primary is down), awaiting a recovery or view change.
    parked: VecDeque<Batch>,
    /// Closed-loop clients whose request was dropped: they think and
    /// re-issue just as if the response had arrived.
    followups: Vec<(usize, u64)>,
    /// The attached trace sink, if any. `None` (the default) keeps the
    /// loop on the exact pre-tracing path — every emission site is
    /// guarded, mirroring the lazily-created `drop_rng`.
    trace: Option<&'c mut dyn TraceSink>,
    result: SimResult,
}

impl<'c> Simulator<'c> {
    /// Builds a simulator over `replica_platforms` (one cost-model
    /// platform index per initial replica), shaped by `pool`: dataset
    /// shards, per-replica feature cache, and the autoscaler. Autoscale
    /// slots beyond the initial pool cycle over the initial platform
    /// list and extend the shard stride.
    ///
    /// # Panics
    ///
    /// Panics if `replica_platforms` is empty, names a platform index
    /// outside the cost model, `pool.autoscale` is inconsistent
    /// (`max_replicas` below the pool size, or
    /// `down_depth >= up_depth`), or `pool.slo` is inconsistent (a zero
    /// target, or headroom outside `(0, 1]`).
    pub fn new(
        cost: &'c CostModel,
        sched: SchedPolicy,
        replica_platforms: &[usize],
        pool: &PoolConfig,
    ) -> Self {
        Self::with_faults(
            cost,
            sched,
            replica_platforms,
            pool,
            &FaultSpec::default(),
            false,
            0,
        )
    }

    /// [`Simulator::new`] plus a deterministic fault plan and (when
    /// `control` is set) the replicated
    /// [`ControlPlane`]. `seed` feeds the
    /// in-transit drop RNG only (crashes and slowdowns are scheduled,
    /// not sampled); the empty plan with `control` off is exactly
    /// [`Simulator::new`].
    ///
    /// # Panics
    ///
    /// Panics on everything [`Simulator::new`] panics on, plus any
    /// [`FaultSpec::validate`] inconsistency against the slot count.
    pub fn with_faults(
        cost: &'c CostModel,
        sched: SchedPolicy,
        replica_platforms: &[usize],
        pool: &PoolConfig,
        faults: &FaultSpec,
        control: bool,
        seed: u64,
    ) -> Self {
        assert!(!replica_platforms.is_empty(), "need at least one replica");
        assert!(
            replica_platforms
                .iter()
                .all(|&p| p < cost.platforms().len()),
            "replica platform index out of range"
        );
        let initial = replica_platforms.len();
        let slots = match &pool.autoscale {
            Some(spec) => {
                assert!(
                    spec.max_replicas >= initial,
                    "autoscale max_replicas below the initial pool size"
                );
                assert!(
                    spec.down_depth < spec.up_depth,
                    "autoscale down_depth must be below up_depth"
                );
                spec.max_replicas
            }
            None => initial,
        };
        let shards = if pool.shards > 1 {
            ShardMap::strided(slots, pool.shards)
        } else {
            ShardMap::full(slots)
        };
        if let Err(msg) = faults.validate(slots) {
            panic!("inconsistent fault plan: {msg}");
        }
        if let Some(slo) = &pool.slo {
            assert!(slo.p99_target_ns > 0, "slo p99 target must be positive");
            assert!(
                slo.headroom > 0.0 && slo.headroom <= 1.0,
                "slo headroom must be in (0, 1]"
            );
        }
        let mut slow = vec![1.0; slots];
        for s in &faults.slowdowns {
            slow[s.replica] = s.factor;
        }
        Self {
            cost,
            sched,
            shards,
            autoscale: pool.autoscale,
            slo: pool.slo,
            served_service_ns: 0,
            served_requests: 0,
            served_batches: 0,
            replicas: (0..slots)
                .map(|i| Replica {
                    platform: replica_platforms[i % initial],
                    queue: VecDeque::new(),
                    in_flight: None,
                    busy_until: 0,
                    last_dataset: None,
                    queued_est_ns: 0,
                    cache: FeatureCache::new(pool.cache_bytes),
                    active: i < initial,
                    draining: false,
                    pending_up: false,
                    up: true,
                    generation: 0,
                })
                .collect(),
            events: BinaryHeap::new(),
            seq: 0,
            rr_next: 0,
            flush_at: None,
            pending_ups: 0,
            faults: faults.clone(),
            slow,
            drop_rng: (faults.drop_prob > 0.0)
                .then(|| SmallRng::seed_from_u64(seed ^ 0xD60F_AB1E_5EED_FA17)),
            control: control.then(|| ControlPlane::new(slots)),
            orphans: VecDeque::new(),
            parked: VecDeque::new(),
            followups: Vec::new(),
            trace: None,
            result: SimResult {
                completed: Vec::new(),
                batches: Vec::new(),
                samples: Vec::new(),
                makespan_ns: 0,
                replica_platforms: (0..slots).map(|i| replica_platforms[i % initial]).collect(),
                initial_replicas: initial,
                replicas_max: initial,
                cold_starts: Vec::new(),
                dropped: Vec::new(),
                view_changes: 0,
                failover_ns: 0,
                requeued_batches: 0,
            },
        }
    }

    /// The shard map in force (full when the pool is unsharded).
    pub fn shard_map(&self) -> &ShardMap {
        &self.shards
    }

    /// Attaches a [`TraceSink`] that will receive one
    /// [`TraceEvent`] per lifecycle step, in virtual-time order.
    /// Tracing never alters the simulation: a traced run's
    /// [`SimResult`] is byte-identical to an untraced one.
    pub fn with_trace(mut self, sink: &'c mut dyn TraceSink) -> Self {
        self.trace = Some(sink);
        self
    }

    /// Emits `event` if a sink is attached. Call sites that would
    /// allocate to build their event guard on
    /// [`tracing`](Self::tracing) first.
    fn emit(&mut self, event: TraceEvent) {
        if let Some(sink) = self.trace.as_deref_mut() {
            sink.emit(event);
        }
    }

    /// Whether a trace sink is attached (the zero-cost-when-disabled
    /// guard).
    fn tracing(&self) -> bool {
        self.trace.is_some()
    }

    /// Batch identity in the trace: the id of the first request, which
    /// is unique because a request rides in exactly one batch.
    fn batch_key(batch: &Batch) -> u64 {
        batch.requests.first().map_or(u64::MAX, |req| req.id)
    }

    /// Emits the seal event for a freshly formed batch and dispatches
    /// it. Re-issued batches skip this and call `dispatch` directly —
    /// they were sealed once already.
    fn seal_and_dispatch(&mut self, batch: Batch, now: u64) {
        if self.tracing() {
            let event = TraceEvent::BatchSealed {
                time_ns: batch.formed_ns,
                batch: Self::batch_key(&batch),
                cell: batch.cell.index(),
                requests: batch.requests.iter().map(|req| req.id).collect(),
            };
            self.emit(event);
        }
        self.dispatch(batch, now);
    }

    /// Runs `stream` through `batcher` to completion and returns the raw
    /// results. Every generated request completes *or is counted
    /// dropped, never both*: when the event queue drains with requests
    /// still gathering in the batcher (stream over, cap not reached),
    /// the leftovers are flushed as partial batches; batches still
    /// parked or orphaned at the drain with no live replica to serve
    /// them are recorded in [`SimResult::dropped`].
    pub fn run(mut self, mut stream: TrafficStream, mut batcher: Batcher) -> SimResult {
        for c in self.faults.crashes.clone() {
            self.push(c.crash_at_ns, EventKind::Crash(c.replica));
            if let Some(at) = c.recover_at_ns() {
                self.push(at, EventKind::Recover(c.replica));
            }
        }
        if self.control.is_some() {
            self.push(HEARTBEAT_INTERVAL_NS, EventKind::CtrlTick);
        }
        for req in stream.initial_arrivals() {
            self.push(req.arrival_ns, EventKind::Arrival(req));
        }
        let mut now = 0u64;
        loop {
            let Some(ev) = self.events.pop() else {
                if batcher.pending_len() > 0 {
                    // End of stream: flush the partial batches.
                    for batch in batcher.flush_all(now) {
                        self.seal_and_dispatch(batch, now);
                    }
                } else if !self.orphans.is_empty() || !self.parked.is_empty() {
                    // Leftover batches with no event left to revive a
                    // replica: either every survivor can take them now,
                    // or no accepted request will ever complete — count
                    // them dropped rather than hang.
                    let stranded: Vec<Batch> = self
                        .orphans
                        .drain(..)
                        .chain(self.parked.drain(..))
                        .collect();
                    let dead_end = self.available().is_empty()
                        || self
                            .control
                            .as_ref()
                            .is_some_and(ControlPlane::primary_down);
                    for batch in stranded {
                        if dead_end {
                            self.drop_batch(batch, now, None);
                        } else {
                            self.dispatch(batch, now);
                        }
                    }
                } else {
                    break;
                }
                self.drain_followups(&mut stream);
                self.sample(now, &batcher);
                continue;
            };
            now = ev.time;
            match ev.kind {
                EventKind::Arrival(req) => {
                    self.emit(TraceEvent::Arrival {
                        time_ns: now,
                        request: req.id,
                        client: req.client,
                        cell: req.cell.index(),
                    });
                    if let Some(batch) = batcher.push(req, now) {
                        self.seal_and_dispatch(batch, now);
                    }
                    self.schedule_flush(&batcher);
                }
                EventKind::Flush => {
                    if self.flush_at == Some(now) {
                        self.flush_at = None;
                    }
                    for batch in batcher.flush_due(now) {
                        self.seal_and_dispatch(batch, now);
                    }
                    self.schedule_flush(&batcher);
                }
                EventKind::Done {
                    replica: r,
                    generation,
                } => {
                    if self.replicas[r].generation == generation {
                        self.complete(r, now, &mut stream);
                    }
                    // else: a completion from before the crash — void.
                }
                EventKind::ScaleUp(r) => {
                    self.pending_ups -= 1;
                    let replica = &mut self.replicas[r];
                    replica.pending_up = false;
                    replica.active = true;
                    self.result.replicas_max = self.result.replicas_max.max(self.active_count());
                }
                EventKind::Crash(r) => self.crash(r, now),
                EventKind::Recover(r) => self.recover(r, now),
                EventKind::CtrlTick => {
                    // Decide liveness of the tick *before* enqueueing
                    // control traffic, and look only at the heap: every
                    // kind of pending work is itself an event, while
                    // batcher leftovers can only flush once the heap
                    // drains — a tick chain that re-armed on them would
                    // keep the heap non-empty forever.
                    let work_remains = !self.events.is_empty();
                    if work_remains {
                        let beats = match self.control.as_mut() {
                            Some(cp) if cp.primary_live() => cp.heartbeat(now),
                            _ => Vec::new(),
                        };
                        for (r, at) in beats {
                            self.push(at, EventKind::CtrlDeliver(r));
                        }
                        self.push(now + HEARTBEAT_INTERVAL_NS, EventKind::CtrlTick);
                    }
                }
                EventKind::CtrlDeliver(r) => {
                    let follow = match self.control.as_mut() {
                        Some(cp) => cp.deliver(r, now),
                        None => Vec::new(),
                    };
                    for (r2, at) in follow {
                        self.push(at, EventKind::CtrlDeliver(r2));
                    }
                }
                EventKind::CtrlCheck(r) => {
                    let verdict = self.control.as_mut().map(|cp| {
                        (
                            cp.check_heartbeat(r, now),
                            cp.primary_down() && cp.is_live(r),
                        )
                    });
                    match verdict {
                        Some((true, _)) => self.push(now + VIEW_CHANGE_NS, EventKind::ViewChange),
                        // The primary is still dead but this timer fired
                        // early (a beat was in flight at the crash):
                        // re-arm until detection lands. A dead checker's
                        // timer dies with it.
                        Some((false, true)) => {
                            self.push(now + HEARTBEAT_INTERVAL_NS, EventKind::CtrlCheck(r))
                        }
                        _ => {}
                    }
                }
                EventKind::ViewChange => {
                    if self.control.is_some() {
                        self.emit(TraceEvent::ViewChange { time_ns: now });
                        let announcements = self
                            .control
                            .as_mut()
                            .map(|cp| cp.complete_view_change(now))
                            .unwrap_or_default();
                        for (r, at) in announcements {
                            self.push(at, EventKind::CtrlDeliver(r));
                        }
                        // The heartbeat tick chain keeps running through
                        // the outage, so the new primary resumes beats
                        // on the next tick without a fresh chain.
                        if !self
                            .control
                            .as_ref()
                            .is_some_and(ControlPlane::primary_down)
                        {
                            self.reissue(now);
                        }
                    }
                }
                EventKind::ReIssue => {
                    if !self
                        .control
                        .as_ref()
                        .is_some_and(ControlPlane::primary_down)
                    {
                        self.reissue(now);
                    }
                }
            }
            self.drain_followups(&mut stream);
            self.autoscale_step(now, &batcher);
            self.sample(now, &batcher);
        }
        if let Some(cp) = &self.control {
            self.result.view_changes = cp.stats.view_changes;
            self.result.failover_ns = cp.stats.failover_ns;
        }
        self.result
    }

    /// Replica `r`'s in-flight batch finished at `now`.
    fn complete(&mut self, r: usize, now: u64, stream: &mut TrafficStream) {
        let (batch, service_ns) = self.replicas[r]
            .in_flight
            .take()
            .expect("Done fires only while a batch is in flight");
        self.emit(TraceEvent::BatchCompleted {
            time_ns: now,
            batch: Self::batch_key(&batch),
            replica: r,
            size: batch.len(),
        });
        for req in &batch.requests {
            self.result.completed.push(CompletedRequest {
                request: *req,
                completed_ns: now,
                replica: r,
                service_ns,
            });
            if let Some(next) = stream.next_closed_loop(req.client, now) {
                self.push(next.arrival_ns, EventKind::Arrival(next));
            }
        }
        self.result.makespan_ns = self.result.makespan_ns.max(now);
        if let Some(next) = self.replicas[r].queue.pop_front() {
            let est = self.cold_estimate(r, &next);
            self.replicas[r].queued_est_ns -= est;
            self.start(r, next, now);
        } else if self.replicas[r].draining {
            self.deactivate(r, now);
        }
    }

    /// Replica `r` fails at `now`: its in-flight and queued batches are
    /// torn off it — migrated to the control plane's re-issue path when
    /// enabled, dropped otherwise — and its caches die with it.
    fn crash(&mut self, r: usize, now: u64) {
        self.emit(TraceEvent::Crash {
            time_ns: now,
            replica: r,
        });
        let replica = &mut self.replicas[r];
        replica.up = false;
        replica.generation += 1;
        replica.busy_until = now;
        replica.queued_est_ns = 0;
        replica.last_dataset = None;
        replica.draining = false;
        replica.cache.clear();
        let mut dead: Vec<Batch> = Vec::new();
        if let Some((batch, _)) = replica.in_flight.take() {
            dead.push(batch);
        }
        dead.extend(replica.queue.drain(..));
        if self.control.is_some() {
            // Orphans stall until the re-issue path places them.
            for batch in &mut dead {
                batch.stalled_since.get_or_insert(now);
            }
            let was_primary = {
                let cp = self.control.as_mut().expect("checked above");
                let wp = cp.primary() == r;
                cp.on_crash(r, now);
                wp
            };
            let had_work = !dead.is_empty();
            self.result.requeued_batches += dead.len() as u64;
            if self.tracing() {
                for batch in &dead {
                    self.emit(TraceEvent::BatchMigrated {
                        time_ns: now,
                        batch: Self::batch_key(batch),
                        from: r,
                        size: batch.len(),
                    });
                }
            }
            self.orphans.extend(dead);
            if was_primary {
                // Guarantee detection even if the crash beat every
                // heartbeat: the lowest live backup's local timer.
                if let Some(b) = self.first_live_replica() {
                    self.push(now + HEARTBEAT_TIMEOUT_NS, EventKind::CtrlCheck(b));
                }
            } else if had_work {
                // A backup died with assigned work: the primary notices
                // the missing acks after a timeout and re-issues.
                self.push(now + HEARTBEAT_TIMEOUT_NS, EventKind::ReIssue);
            }
        } else {
            for batch in dead {
                self.drop_batch(batch, now, Some(r));
            }
        }
    }

    /// Replica `r` rejoins at `now`, cold: caches were dropped at the
    /// crash, and parked work gets a fresh chance to run.
    fn recover(&mut self, r: usize, now: u64) {
        self.emit(TraceEvent::Recover {
            time_ns: now,
            replica: r,
        });
        self.replicas[r].up = true;
        let primary_still_down = self.control.as_mut().map(|cp| {
            cp.on_recover(r, now);
            cp.primary_down()
        });
        if primary_still_down == Some(true) {
            // The recovered backup's own timer restarts detection
            // (every earlier elector may have died mid-election).
            self.push(now + HEARTBEAT_TIMEOUT_NS, EventKind::CtrlCheck(r));
        }
        if !self.orphans.is_empty() || !self.parked.is_empty() {
            self.push(now, EventKind::ReIssue);
        }
    }

    /// Lowest-indexed live replica slot, if any.
    fn first_live_replica(&self) -> Option<usize> {
        (0..self.replicas.len()).find(|&r| self.replicas[r].up)
    }

    /// Re-dispatches every orphaned (crashed-replica) and parked
    /// (no-live-replica) batch, oldest assignment first. Batches that
    /// still find no live replica simply park again.
    fn reissue(&mut self, now: u64) {
        let pending: Vec<Batch> = self
            .orphans
            .drain(..)
            .chain(self.parked.drain(..))
            .collect();
        for batch in pending {
            self.dispatch(batch, now);
        }
    }

    /// Records a whole batch as lost; closed-loop clients think and
    /// re-issue just as if the response had arrived, so the request
    /// budget is conserved.
    fn drop_batch(&mut self, batch: Batch, now: u64, replica: Option<usize>) {
        for req in &batch.requests {
            self.emit(TraceEvent::RequestDropped {
                time_ns: now,
                request: req.id,
                replica,
            });
            self.result.dropped.push(DroppedRequest {
                request: *req,
                dropped_ns: now,
                replica,
            });
            self.followups.push((req.client, now));
        }
    }

    /// Issues the closed-loop follow-ups queued by dropped requests.
    fn drain_followups(&mut self, stream: &mut TrafficStream) {
        for (client, at) in std::mem::take(&mut self.followups) {
            if let Some(next) = stream.next_closed_loop(client, at) {
                self.push(next.arrival_ns, EventKind::Arrival(next));
            }
        }
    }

    fn push(&mut self, time: u64, kind: EventKind) {
        let seq = self.seq;
        self.seq += 1;
        self.events.push(Event { time, seq, kind });
    }

    /// Keeps exactly one pending flush event at the batcher's earliest
    /// deadline (deadline policy only).
    fn schedule_flush(&mut self, batcher: &Batcher) {
        if let Some(deadline) = batcher.next_deadline() {
            if self.flush_at.is_none_or(|t| deadline < t) {
                self.flush_at = Some(deadline);
                self.push(deadline, EventKind::Flush);
            }
        }
    }

    fn cold_estimate(&self, replica: usize, batch: &Batch) -> u64 {
        self.cost
            .cost(self.replicas[replica].platform, batch.cell)
            .batch_ns(batch.len(), false, false)
    }

    /// Replicas eligible for dispatch: up, active, and not draining.
    /// The autoscaler never drains below the initial pool, so without a
    /// fault plan this is never empty; crashes can empty it, in which
    /// case batches park until a recovery.
    fn available(&self) -> Vec<usize> {
        (0..self.replicas.len())
            .filter(|&r| {
                self.replicas[r].up && self.replicas[r].active && !self.replicas[r].draining
            })
            .collect()
    }

    fn active_count(&self) -> usize {
        self.replicas.iter().filter(|r| r.active && r.up).count()
    }

    fn dataset_index(batch: &Batch) -> usize {
        Dataset::ALL
            .iter()
            .position(|&d| d == batch.cell.dataset)
            .expect("Dataset::ALL is exhaustive")
    }

    fn dispatch(&mut self, mut batch: Batch, now: u64) {
        // In-transit loss: drawn only when the fault plan asks for it,
        // so fault-free runs never touch the RNG.
        if let Some(rng) = self.drop_rng.as_mut() {
            if rng.gen_range(0.0..1.0) < self.faults.drop_prob {
                self.drop_batch(batch, now, None);
                return;
            }
        }
        let avail = self.available();
        // No live replica to run on, or assignment ordering suspended
        // while the primary seat is empty: park for the next recovery
        // or view change.
        if avail.is_empty()
            || self
                .control
                .as_ref()
                .is_some_and(ControlPlane::primary_down)
        {
            self.emit(TraceEvent::Parked {
                time_ns: now,
                batch: Self::batch_key(&batch),
                size: batch.len(),
            });
            batch.stalled_since.get_or_insert(now);
            self.parked.push_back(batch);
            return;
        }
        let least_loaded = |sim: &Self, among: &[usize]| {
            among
                .iter()
                .copied()
                .min_by_key(|&r| (sim.replicas[r].outstanding_ns(now), r))
                .expect("candidate set is non-empty")
        };
        let r = match self.sched {
            SchedPolicy::RoundRobin => {
                let r = avail[self.rr_next % avail.len()];
                self.rr_next = self.rr_next.wrapping_add(1);
                r
            }
            SchedPolicy::LeastLoaded => least_loaded(self, &avail),
            SchedPolicy::ShardAffinity => {
                // Classic pinning over the whole slot range; an
                // unavailable pin (possible only while autoscaled)
                // spills to the least-loaded available replica.
                let pin = Self::dataset_index(&batch) % self.replicas.len();
                if avail.contains(&pin) {
                    pin
                } else {
                    least_loaded(self, &avail)
                }
            }
            SchedPolicy::ShardAffinityPartial => {
                let d = Self::dataset_index(&batch);
                let holders: Vec<usize> = avail
                    .iter()
                    .copied()
                    .filter(|&r| self.shards.holds(r, d))
                    .collect();
                if holders.is_empty() {
                    // Miss-penalty routing: no available holder, so the
                    // least-loaded replica cold-binds the dataset.
                    least_loaded(self, &avail)
                } else {
                    least_loaded(self, &holders)
                }
            }
        };
        // The primary orders every assignment through the control plane
        // before it reaches the replica.
        let prepares = match self.control.as_mut() {
            Some(cp) => cp.on_dispatch(now),
            None => Vec::new(),
        };
        for (b, at) in prepares {
            self.push(at, EventKind::CtrlDeliver(b));
        }
        if let Some(since) = batch.stalled_since.take() {
            batch.stall_ns += now - since;
        }
        self.emit(TraceEvent::Dispatched {
            time_ns: now,
            batch: Self::batch_key(&batch),
            replica: r,
            queued: self.replicas[r].in_flight.is_some(),
        });
        if self.replicas[r].in_flight.is_none() {
            self.start(r, batch, now);
        } else {
            let est = self.cold_estimate(r, &batch);
            self.replicas[r].queued_est_ns += est;
            self.replicas[r].queue.push_back(batch);
        }
    }

    fn start(&mut self, r: usize, batch: Batch, now: u64) {
        let cost = self.cost.cost(self.replicas[r].platform, batch.cell);
        let shard_miss = !self.shards.holds(r, Self::dataset_index(&batch));
        let replica = &mut self.replicas[r];
        let (warm, cache_hit, exec, service, dram_bytes);
        if shard_miss {
            // The replica does not hold this dataset: it cold-binds a
            // transient session (full restructuring plus one streaming
            // pass over the working set) and retains nothing — the
            // schedule cache is clobbered and the feature cache never
            // sees the transient features.
            warm = false;
            cache_hit = false;
            exec = cost.batch_ns(batch.len(), false, false);
            service = exec + cost.bind_ns;
            dram_bytes = cost.batch_dram_bytes(batch.len(), false) + cost.footprint_bytes;
            replica.last_dataset = None;
        } else {
            warm = replica.last_dataset == Some(batch.cell.dataset);
            cache_hit = replica
                .cache
                .access(batch.cell.index(), cost.footprint_bytes);
            exec = cost.batch_ns(batch.len(), warm, cache_hit);
            service = exec;
            dram_bytes = cost.batch_dram_bytes(batch.len(), cache_hit);
            replica.last_dataset = Some(batch.cell.dataset);
        }
        // A straggling replica stretches the whole service (bind
        // included). Guarded on 1.0 so healthy runs never round-trip
        // through f64.
        let stretch = |ns: u64| {
            if self.slow[r] != 1.0 {
                ((ns as f64) * self.slow[r]).round().max(1.0) as u64
            } else {
                ns
            }
        };
        let service = stretch(service);
        if self.tracing() {
            // The trace splits the span into a pure-execute component
            // and the bind remainder (the shard-miss cold-bind penalty,
            // stretched alongside). `stretch` is monotone, so the bind
            // component is never negative and the two parts sum to
            // `service` exactly — which is what makes the breakdown's
            // components sum to end-to-end latency.
            let exec_stretched = stretch(exec);
            let event = TraceEvent::BatchStarted {
                time_ns: now,
                batch: Self::batch_key(&batch),
                replica: r,
                cell: batch.cell.index(),
                formed_ns: batch.formed_ns,
                size: batch.len(),
                warm,
                cache_hit,
                shard_miss,
                bind_ns: service - exec_stretched,
                service_ns: exec_stretched,
                stall_ns: batch.stall_ns,
                requests: batch
                    .requests
                    .iter()
                    .map(|req| (req.id, req.arrival_ns))
                    .collect(),
            };
            self.emit(event);
        }
        self.served_service_ns += service;
        self.served_requests += batch.len() as u64;
        self.served_batches += 1;
        let replica = &mut self.replicas[r];
        replica.busy_until = now + service;
        self.result.batches.push(BatchRecord {
            replica: r,
            size: batch.len(),
            warm,
            cache_hit,
            shard_miss,
            dram_bytes,
            service_ns: service,
        });
        replica.in_flight = Some((batch, service));
        let generation = replica.generation;
        self.push(
            now + service,
            EventKind::Done {
                replica: r,
                generation,
            },
        );
    }

    /// Deterministic near-term p99 estimate for a pool of `serving`
    /// dispatchable replicas: the bound backlog (in-flight remainders
    /// plus queued cold estimates) spread evenly over the pool, plus
    /// the unbound work (batcher, parked, orphaned requests) priced at
    /// the measured per-request mean, plus one mean batch service —
    /// roughly what the last request in the backlog would wait. Before
    /// the first batch executes the measured means are zero and the
    /// estimate reduces to the bound-backlog spread. Uses only
    /// virtual-time state, so it replays byte-identically.
    fn predicted_p99_ns(&self, now: u64, batcher: &Batcher, serving: usize) -> u64 {
        if serving == 0 {
            return u64::MAX;
        }
        let bound: u64 = self
            .replicas
            .iter()
            .filter(|r| r.up && r.active)
            .map(|r| r.outstanding_ns(now))
            .sum();
        let unbound = (batcher.pending_len()
            + self.orphans.iter().map(Batch::len).sum::<usize>()
            + self.parked.iter().map(Batch::len).sum::<usize>()) as u64;
        let per_request = self
            .served_service_ns
            .checked_div(self.served_requests)
            .unwrap_or(0);
        let per_batch = self
            .served_service_ns
            .checked_div(self.served_batches)
            .unwrap_or(0);
        (bound + unbound * per_request) / serving as u64 + per_batch
    }

    /// The autoscaling control loop, evaluated after every event:
    /// either the queue-depth thresholds of [`AutoscaleSpec`] or, when
    /// an [`SloSpec`] is present, the predicted-p99-vs-deadline
    /// controller. Both share the scale-up and drain machinery.
    fn autoscale_step(&mut self, now: u64, batcher: &Batcher) {
        let Some(spec) = self.autoscale else {
            return;
        };
        let (want_up, want_down) = match self.slo {
            Some(slo) => {
                let serving = self.available().len();
                let deadline = slo.deadline_ns();
                let up = self.predicted_p99_ns(now, batcher, serving) > deadline;
                // Scale down only when one replica fewer would still
                // clear the deadline with a 2x margin — the hysteresis
                // that keeps the controller from flapping around it.
                let down = !up
                    && serving > 1
                    && self
                        .predicted_p99_ns(now, batcher, serving - 1)
                        .saturating_mul(2)
                        <= deadline;
                (up, down)
            }
            None => {
                let depth = batcher.pending_len()
                    + self
                        .replicas
                        .iter()
                        .filter(|r| r.active)
                        .map(Replica::queued_requests)
                        .sum::<usize>();
                (depth > spec.up_depth, depth < spec.down_depth)
            }
        };
        if want_up && self.active_count() + self.pending_ups < spec.max_replicas {
            // One activation per event keeps the loop smooth; a deep
            // queue keeps producing events, so growth stays exponential
            // in wall (virtual) time, not instantaneous.
            if let Some(r) = (0..self.replicas.len()).find(|&r| {
                !self.replicas[r].active && !self.replicas[r].pending_up && self.replicas[r].up
            }) {
                let delay_ns = self.cost.cold_start_ns(self.replicas[r].platform).max(1);
                self.replicas[r].pending_up = true;
                self.pending_ups += 1;
                self.emit(TraceEvent::ColdStart {
                    time_ns: now,
                    replica: r,
                    delay_ns,
                });
                self.result.cold_starts.push(ColdStart {
                    replica: r,
                    delay_ns,
                });
                self.push(now + delay_ns, EventKind::ScaleUp(r));
            }
        } else if want_down && self.pending_ups == 0 {
            let serving: Vec<usize> = self.available();
            let draining = self.replicas.iter().filter(|r| r.draining && r.up).count();
            // A draining replica still occupies its surplus slot: a new
            // drain starts only when none is in progress, survivors stay
            // at or above the initial floor, and at least one replica
            // keeps serving (so migrated batches never strand).
            if draining == 0 && serving.len() > self.result.initial_replicas && serving.len() > 1 {
                let r = self.drain_target(&serving, now);
                if self.replicas[r].idle() {
                    self.deactivate(r, now);
                } else {
                    self.drain_with_migration(r, now);
                }
            }
        }
    }

    /// Picks the replica to scale down: an idle one deactivates for
    /// free, so prefer the highest-indexed idle replica (the
    /// most-recently-added slots go first, keeping the warmed initial
    /// pool); otherwise drain the one with the least outstanding work —
    /// the quickest to empty.
    fn drain_target(&self, serving: &[usize], now: u64) -> usize {
        serving
            .iter()
            .rev()
            .copied()
            .find(|&r| self.replicas[r].idle())
            .unwrap_or_else(|| {
                serving
                    .iter()
                    .copied()
                    .min_by_key(|&r| (self.replicas[r].outstanding_ns(now), r))
                    .expect("serving set is non-empty")
            })
    }

    /// Marks `r` draining and hands its queued (not yet bound) batches
    /// to the survivors — the scale-down twin of the crash-migration
    /// path, counted in [`SimResult::requeued_batches`] — so they
    /// finish warm instead of cold on a dying replica. The in-flight
    /// batch is already bound and runs to completion, after which the
    /// replica deactivates ([`Simulator::complete`]).
    fn drain_with_migration(&mut self, r: usize, now: u64) {
        self.replicas[r].draining = true;
        let moved: Vec<Batch> = self.replicas[r].queue.drain(..).collect();
        self.replicas[r].queued_est_ns = 0;
        self.result.requeued_batches += moved.len() as u64;
        if self.tracing() {
            for batch in &moved {
                self.emit(TraceEvent::BatchMigrated {
                    time_ns: now,
                    batch: Self::batch_key(batch),
                    from: r,
                    size: batch.len(),
                });
            }
        }
        for batch in moved {
            self.dispatch(batch, now);
        }
        if self.replicas[r].idle() {
            self.deactivate(r, now);
        }
    }

    /// Takes a drained replica out of service, cold: its schedule and
    /// feature caches are dropped, so a later re-activation pays full
    /// cold costs again.
    fn deactivate(&mut self, r: usize, now: u64) {
        self.emit(TraceEvent::ReplicaDrained {
            time_ns: now,
            replica: r,
        });
        let replica = &mut self.replicas[r];
        debug_assert!(replica.idle(), "only idle replicas deactivate");
        replica.active = false;
        replica.draining = false;
        replica.last_dataset = None;
        replica.cache.clear();
    }

    fn sample(&mut self, now: u64, batcher: &Batcher) {
        self.result.samples.push(QueueSample {
            time_ns: now,
            batcher_pending: batcher.pending_len(),
            per_replica: self.replicas.iter().map(Replica::queued_requests).collect(),
            active_replicas: self.active_count(),
            // A crashed replica is not serving and does not bill
            // replica-seconds, whatever its autoscale state.
            active_per_replica: self.replicas.iter().map(|r| r.active && r.up).collect(),
        });
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::batcher::BatchPolicy;
    use crate::cost::{CostModel, ServiceCost};
    use crate::request::CELL_COUNT;
    use crate::workload::{ArrivalProcess, Traffic, TrafficStream};

    /// A synthetic single-platform cost model (no simulation needed).
    fn flat_cost(fixed_ns: u64, per_request_ns: u64, warm_save_ns: u64) -> CostModel {
        CostModel::synthetic(
            vec!["X".into()],
            vec![
                [ServiceCost {
                    fixed_ns,
                    per_request_ns,
                    warm_save_ns,
                    hit_per_request_ns: per_request_ns,
                    dram_bytes_per_request: 64,
                    footprint_bytes: 2048,
                    bind_ns: 10 * fixed_ns,
                }; CELL_COUNT],
            ],
        )
    }

    fn poisson(rate_rps: f64, requests: usize, seed: u64) -> TrafficStream {
        TrafficStream::new(Traffic {
            process: ArrivalProcess::Poisson { rate_rps },
            requests,
            seed,
        })
    }

    fn run(
        cost: &CostModel,
        sched: SchedPolicy,
        replicas: &[usize],
        policy: BatchPolicy,
        stream: TrafficStream,
    ) -> SimResult {
        run_pool(
            cost,
            sched,
            replicas,
            &PoolConfig::default(),
            policy,
            stream,
        )
    }

    fn run_pool(
        cost: &CostModel,
        sched: SchedPolicy,
        replicas: &[usize],
        pool: &PoolConfig,
        policy: BatchPolicy,
        stream: TrafficStream,
    ) -> SimResult {
        Simulator::new(cost, sched, replicas, pool).run(stream, Batcher::new(policy))
    }

    #[test]
    fn every_request_completes_exactly_once() {
        let cost = flat_cost(10_000, 1_000, 0);
        for policy in [
            BatchPolicy::Immediate,
            BatchPolicy::SizeCapped { cap: 8 },
            BatchPolicy::Deadline {
                cap: 8,
                timeout_ns: 50_000,
            },
        ] {
            let r = run(
                &cost,
                SchedPolicy::RoundRobin,
                &[0, 0],
                policy,
                poisson(5_000.0, 200, 7),
            );
            assert_eq!(r.completed.len(), 200, "{policy:?}");
            let mut ids: Vec<u64> = r.completed.iter().map(|c| c.request.id).collect();
            ids.sort_unstable();
            assert_eq!(ids, (0..200).collect::<Vec<_>>(), "{policy:?}");
            assert!(r
                .completed
                .iter()
                .all(|c| c.completed_ns > c.request.arrival_ns));
            assert_eq!(
                r.batches.iter().map(|b| b.size).sum::<usize>(),
                200,
                "{policy:?}"
            );
            assert!(r.makespan_ns > 0);
        }
    }

    #[test]
    fn simulation_is_deterministic() {
        let cost = flat_cost(20_000, 2_000, 0);
        let a = run(
            &cost,
            SchedPolicy::LeastLoaded,
            &[0, 0, 0],
            BatchPolicy::SizeCapped { cap: 4 },
            poisson(20_000.0, 300, 42),
        );
        let b = run(
            &cost,
            SchedPolicy::LeastLoaded,
            &[0, 0, 0],
            BatchPolicy::SizeCapped { cap: 4 },
            poisson(20_000.0, 300, 42),
        );
        assert_eq!(a.completed, b.completed);
        assert_eq!(a.batches, b.batches);
        assert_eq!(a.samples, b.samples);
    }

    #[test]
    fn round_robin_rotates_and_least_loaded_balances() {
        let cost = flat_cost(10_000, 1_000, 0);
        let rr = run(
            &cost,
            SchedPolicy::RoundRobin,
            &[0, 0],
            BatchPolicy::Immediate,
            poisson(1_000.0, 50, 1),
        );
        let hits =
            |r: &SimResult, replica| r.batches.iter().filter(|b| b.replica == replica).count();
        assert_eq!(hits(&rr, 0), 25);
        assert_eq!(hits(&rr, 1), 25);
        let ll = run(
            &cost,
            SchedPolicy::LeastLoaded,
            &[0, 0],
            BatchPolicy::Immediate,
            poisson(200_000.0, 50, 1),
        );
        assert!(hits(&ll, 0) > 0 && hits(&ll, 1) > 0, "overload spills over");
    }

    #[test]
    fn shard_affinity_pins_datasets_and_reaps_warm_hits() {
        let cost = flat_cost(50_000, 1_000, 40_000);
        let r = run(
            &cost,
            SchedPolicy::ShardAffinity,
            &[0, 0, 0],
            BatchPolicy::Immediate,
            poisson(4_000.0, 120, 9),
        );
        // each dataset lands on exactly one replica
        for c in &r.completed {
            let d = c.request.cell.index() % 3;
            assert_eq!(c.replica, d % 3);
        }
        // pinned replicas are dataset-warm after their first batch
        let warm = r.batches.iter().filter(|b| b.warm).count();
        assert!(
            warm > r.batches.len() / 2,
            "{warm}/{} warm batches",
            r.batches.len()
        );
        // round-robin over the same traffic is mostly cold
        let rr = run(
            &cost,
            SchedPolicy::RoundRobin,
            &[0, 0, 0],
            BatchPolicy::Immediate,
            poisson(4_000.0, 120, 9),
        );
        let rr_warm = rr.batches.iter().filter(|b| b.warm).count();
        assert!(rr_warm < warm, "affinity beats round-robin on warm hits");
    }

    #[test]
    fn batching_beats_immediate_on_overhead_dominated_service() {
        let cost = flat_cost(100_000, 1_000, 0);
        // offered load beyond the immediate-mode capacity of 2 replicas
        // (~2 / 101µs ≈ 19.8k rps), well within batched capacity
        let stream = || poisson(40_000.0, 400, 11);
        let imm = run(
            &cost,
            SchedPolicy::LeastLoaded,
            &[0, 0],
            BatchPolicy::Immediate,
            stream(),
        );
        let cap = run(
            &cost,
            SchedPolicy::LeastLoaded,
            &[0, 0],
            BatchPolicy::SizeCapped { cap: 8 },
            stream(),
        );
        assert!(
            cap.makespan_ns < imm.makespan_ns,
            "batched {} vs immediate {} ns makespan",
            cap.makespan_ns,
            imm.makespan_ns
        );
        let p99 = |r: &SimResult| {
            let mut l: Vec<u64> = r.completed.iter().map(|c| c.latency_ns()).collect();
            l.sort_unstable();
            l[(l.len() * 99).div_ceil(100) - 1]
        };
        assert!(p99(&cap) < p99(&imm), "batching also tames the tail");
    }

    #[test]
    fn closed_loop_self_limits() {
        let cost = flat_cost(10_000, 5_000, 0);
        let stream = TrafficStream::new(Traffic {
            process: ArrivalProcess::ClosedLoop {
                clients: 4,
                think_ns: 100_000,
            },
            requests: 100,
            seed: 3,
        });
        let r = run(
            &cost,
            SchedPolicy::LeastLoaded,
            &[0],
            BatchPolicy::Immediate,
            stream,
        );
        assert_eq!(r.completed.len(), 100);
        // at most `clients` requests are ever outstanding
        for s in &r.samples {
            assert!(s.total() <= 4, "closed loop bounds the queue");
        }
    }

    #[test]
    fn shard_map_covers_and_strides() {
        let full = ShardMap::full(2);
        assert!(full.covers_all_datasets());
        assert!((0..2).all(|r| (0..3).all(|d| full.holds(r, d))));
        let strided = ShardMap::strided(3, 3);
        assert!(strided.covers_all_datasets());
        for r in 0..3 {
            for d in 0..3 {
                assert_eq!(strided.holds(r, d), d % 3 == r % 3);
            }
        }
        // fewer replicas than shards: dataset 2 has no holder
        let uncovered = ShardMap::strided(2, 3);
        assert!(!uncovered.covers_all_datasets());
        assert_eq!(uncovered.replicas(), 2);
        // shards <= 1 degenerates to full replicas
        assert_eq!(ShardMap::strided(4, 0), ShardMap::full(4));
        assert_eq!(ShardMap::strided(4, 1), ShardMap::full(4));
    }

    #[test]
    fn partial_affinity_routes_to_holders_without_misses() {
        let cost = flat_cost(50_000, 1_000, 40_000);
        let pool = PoolConfig {
            shards: 3,
            cache_bytes: 64 * 2048,
            ..PoolConfig::default()
        };
        let r = run_pool(
            &cost,
            SchedPolicy::ShardAffinityPartial,
            &[0, 0, 0],
            &pool,
            BatchPolicy::Immediate,
            poisson(4_000.0, 120, 9),
        );
        assert_eq!(r.completed.len(), 120);
        assert!(
            r.batches.iter().all(|b| !b.shard_miss),
            "full coverage + partial affinity never misses"
        );
        // each replica only ever serves its own shard
        for c in &r.completed {
            let d = c.request.cell.index() % 3;
            assert_eq!(c.replica % 3, d % 3);
        }
        // the per-replica cache warms: later batches hit
        assert!(
            r.batches.iter().filter(|b| b.cache_hit).count() > r.batches.len() / 2,
            "cross-batch feature cache warms up"
        );
    }

    #[test]
    fn shard_misses_pay_the_cold_bind_penalty() {
        let cost = flat_cost(10_000, 1_000, 0);
        let sharded = PoolConfig {
            shards: 3,
            ..PoolConfig::default()
        };
        // Round-robin over partial replicas ignores the shard map, so
        // roughly 2/3 of batches land on non-holders.
        let r = run_pool(
            &cost,
            SchedPolicy::RoundRobin,
            &[0, 0, 0],
            &sharded,
            BatchPolicy::Immediate,
            poisson(1_000.0, 90, 5),
        );
        let misses = r.batches.iter().filter(|b| b.shard_miss).count();
        assert!(misses > 0, "blind routing over shards must miss");
        let bind = cost.cost(0, crate::request::Cell::from_index(0)).bind_ns;
        for b in &r.batches {
            if b.shard_miss {
                assert!(b.service_ns >= bind, "miss pays the full bind");
                assert!(!b.warm && !b.cache_hit, "a transient bind retains nothing");
            }
        }
        // the same traffic with partial affinity avoids every miss
        let affine = run_pool(
            &cost,
            SchedPolicy::ShardAffinityPartial,
            &[0, 0, 0],
            &sharded,
            BatchPolicy::Immediate,
            poisson(1_000.0, 90, 5),
        );
        assert_eq!(affine.batches.iter().filter(|b| b.shard_miss).count(), 0);
        let dram = |r: &SimResult| r.batches.iter().map(|b| b.dram_bytes).sum::<u64>();
        assert!(
            dram(&affine) < dram(&r),
            "miss binds stream the working set again"
        );
    }

    #[test]
    fn uncovered_dataset_always_misses_but_still_serves() {
        let cost = flat_cost(10_000, 1_000, 0);
        // 2 replicas, 3 shards: dataset 2 has no holder anywhere.
        let pool = PoolConfig {
            shards: 3,
            ..PoolConfig::default()
        };
        let r = run_pool(
            &cost,
            SchedPolicy::ShardAffinityPartial,
            &[0, 0],
            &pool,
            BatchPolicy::Immediate,
            poisson(1_000.0, 60, 2),
        );
        assert_eq!(r.completed.len(), 60, "missing coverage still serves");
        let misses = r.batches.iter().filter(|b| b.shard_miss).count();
        assert!(misses > 0, "the uncovered dataset pays its way");
    }

    #[test]
    fn feature_cache_discounts_service_and_dram() {
        let mut costs = [ServiceCost {
            fixed_ns: 1_000,
            per_request_ns: 1_000,
            warm_save_ns: 0,
            hit_per_request_ns: 100,
            dram_bytes_per_request: 1_000,
            footprint_bytes: 10_000,
            bind_ns: 1,
        }; CELL_COUNT];
        // make footprints distinguishable per cell
        for (i, c) in costs.iter_mut().enumerate() {
            c.footprint_bytes = 10_000 + i as u64;
        }
        let cost = CostModel::synthetic(vec!["X".into()], vec![costs]);
        let cached = PoolConfig {
            cache_bytes: 200_000, // all nine cells fit
            ..PoolConfig::default()
        };
        let warm = run_pool(
            &cost,
            SchedPolicy::LeastLoaded,
            &[0],
            &cached,
            BatchPolicy::SizeCapped { cap: 4 },
            poisson(2_000.0, 120, 13),
        );
        let cold = run(
            &cost,
            SchedPolicy::LeastLoaded,
            &[0],
            BatchPolicy::SizeCapped { cap: 4 },
            poisson(2_000.0, 120, 13),
        );
        let hits = warm.batches.iter().filter(|b| b.cache_hit).count();
        assert!(hits > 0, "the cache warms from batch composition");
        assert_eq!(
            cold.batches.iter().filter(|b| b.cache_hit).count(),
            0,
            "no cache, no hits"
        );
        let dram = |r: &SimResult| r.batches.iter().map(|b| b.dram_bytes).sum::<u64>();
        let service = |r: &SimResult| r.batches.iter().map(|b| b.service_ns).sum::<u64>();
        assert!(dram(&warm) < dram(&cold), "hits discount DRAM traffic");
        assert!(service(&warm) < service(&cold), "hits discount service");
    }

    #[test]
    fn autoscaler_grows_under_load_and_drains_back() {
        let cost = flat_cost(100_000, 10_000, 0);
        let pool = PoolConfig {
            autoscale: Some(AutoscaleSpec {
                max_replicas: 4,
                up_depth: 8,
                down_depth: 1,
            }),
            ..PoolConfig::default()
        };
        // A short overload burst, then silence long enough to drain.
        let stream = TrafficStream::new(Traffic {
            process: ArrivalProcess::Bursty {
                rate_rps: 200_000.0,
                period_ns: 40_000_000,
                duty: 0.05,
            },
            requests: 300,
            seed: 21,
        });
        let r = run_pool(
            &cost,
            SchedPolicy::LeastLoaded,
            &[0],
            &pool,
            BatchPolicy::SizeCapped { cap: 8 },
            stream,
        );
        assert_eq!(r.completed.len(), 300);
        assert_eq!(r.initial_replicas, 1);
        assert!(
            r.replicas_max > 1 && r.replicas_max <= 4,
            "spike forces scale-up within the cap (got {})",
            r.replicas_max
        );
        assert!(!r.cold_starts.is_empty(), "every activation cold-starts");
        for cs in &r.cold_starts {
            assert_eq!(cs.delay_ns, cost.cold_start_ns(0));
        }
        // replica count stays within [min, max] at every sample…
        for s in &r.samples {
            assert!((1..=4).contains(&s.active_replicas));
        }
        // …and the pool drains back to the minimum by the end
        assert_eq!(
            r.samples.last().unwrap().active_replicas,
            1,
            "surplus replicas drain once the burst passes"
        );
        // scaled-up slots actually served traffic
        assert!(r.batches.iter().any(|b| b.replica > 0));
    }

    #[test]
    fn fixed_pool_never_scales() {
        let cost = flat_cost(100_000, 10_000, 0);
        let r = run(
            &cost,
            SchedPolicy::LeastLoaded,
            &[0, 0],
            BatchPolicy::SizeCapped { cap: 8 },
            poisson(100_000.0, 200, 3),
        );
        assert_eq!(r.replicas_max, 2);
        assert!(r.cold_starts.is_empty());
        assert!(r.samples.iter().all(|s| s.active_replicas == 2));
    }

    #[test]
    #[should_panic(expected = "down_depth must be below up_depth")]
    fn autoscale_rejects_inverted_thresholds() {
        let cost = flat_cost(1, 1, 0);
        let pool = PoolConfig {
            autoscale: Some(AutoscaleSpec {
                max_replicas: 2,
                up_depth: 4,
                down_depth: 4,
            }),
            ..PoolConfig::default()
        };
        let _ = Simulator::new(&cost, SchedPolicy::LeastLoaded, &[0], &pool);
    }

    #[test]
    #[should_panic(expected = "below the initial pool size")]
    fn autoscale_rejects_max_below_pool() {
        let cost = flat_cost(1, 1, 0);
        let pool = PoolConfig {
            autoscale: Some(AutoscaleSpec {
                max_replicas: 1,
                up_depth: 4,
                down_depth: 1,
            }),
            ..PoolConfig::default()
        };
        let _ = Simulator::new(&cost, SchedPolicy::LeastLoaded, &[0, 0], &pool);
    }

    // ---- autoscale scale-down + SLO controller ----

    /// A one-request batch for direct replica-state manipulation.
    fn test_batch(id: u64) -> Batch {
        let cell = crate::request::Cell::from_index(0);
        let request = Request {
            id,
            client: id as usize,
            arrival_ns: 0,
            cell,
        };
        Batch::new(cell, vec![request], 0)
    }

    fn autoscaled_sim(cost: &CostModel, initial: usize, max: usize) -> Simulator<'_> {
        let pool = PoolConfig {
            autoscale: Some(AutoscaleSpec {
                max_replicas: max,
                up_depth: 8,
                down_depth: 4,
            }),
            ..PoolConfig::default()
        };
        Simulator::new(cost, SchedPolicy::LeastLoaded, &vec![0; initial], &pool)
    }

    #[test]
    fn scale_down_starts_at_most_one_drain_at_a_time() {
        // Regression: the old guard compared `available().len()` (which
        // excludes draining replicas) against the floor, so every
        // subsequent low-depth event marked another busy replica
        // draining while the first drain was still in progress.
        let cost = flat_cost(10_000, 1_000, 0);
        let mut sim = autoscaled_sim(&cost, 1, 4);
        for r in 0..4 {
            sim.replicas[r].active = true;
            sim.replicas[r].in_flight = Some((test_batch(r as u64), 1_000_000));
            sim.replicas[r].busy_until = 1_000_000;
        }
        let batcher = Batcher::new(BatchPolicy::Immediate);
        let draining = |sim: &Simulator| sim.replicas.iter().filter(|r| r.draining).count();
        sim.autoscale_step(0, &batcher);
        assert_eq!(draining(&sim), 1, "one busy replica starts draining");
        // Further low-depth events while the drain is in progress must
        // not start another one: the draining replica counts as still
        // occupying its surplus slot.
        sim.autoscale_step(1, &batcher);
        sim.autoscale_step(2, &batcher);
        assert_eq!(draining(&sim), 1, "at most one drain in flight");
        assert!(
            sim.available().len() >= sim.result.initial_replicas,
            "dispatchable replicas never dip below the initial pool"
        );
    }

    #[test]
    fn scale_down_deactivates_an_idle_replica_before_draining_a_busy_one() {
        // Regression: the old controller always picked `serving.last()`
        // and marked it draining even when another replica was idle and
        // could deactivate immediately for free.
        let cost = flat_cost(10_000, 1_000, 0);
        let mut sim = autoscaled_sim(&cost, 1, 4);
        // Slot 1 scaled up and busy; slot 2 scaled up and idle. The old
        // code would pick slot 2 (`serving.last()`) only by accident of
        // ordering — rearrange so the busy one is last.
        sim.replicas[1].active = true;
        sim.replicas[2].active = true;
        sim.replicas[2].in_flight = Some((test_batch(0), 1_000_000));
        sim.replicas[2].busy_until = 1_000_000;
        let batcher = Batcher::new(BatchPolicy::Immediate);
        sim.autoscale_step(0, &batcher);
        assert!(
            !sim.replicas[1].active,
            "the idle surplus replica deactivates immediately"
        );
        assert!(
            sim.replicas.iter().all(|r| !r.draining),
            "no busy replica starts draining while an idle one exists"
        );
        assert!(
            sim.replicas[2].in_flight.is_some() && sim.replicas[2].active,
            "the busy replica keeps serving"
        );
    }

    #[test]
    fn draining_replica_hands_queued_batches_to_survivors() {
        let cost = flat_cost(10_000, 1_000, 0);
        let mut sim = autoscaled_sim(&cost, 1, 2);
        // Replica 0 busy but cheap to finish; replica 1 busy with two
        // queued batches. Everything is busy, so the drain target is the
        // least-loaded replica — and its queue must migrate, not die.
        sim.replicas[0].active = true;
        sim.replicas[0].in_flight = Some((test_batch(0), 5_000_000));
        sim.replicas[0].busy_until = 5_000_000;
        sim.replicas[1].active = true;
        sim.replicas[1].in_flight = Some((test_batch(1), 1_000_000));
        sim.replicas[1].busy_until = 1_000_000;
        sim.replicas[1].queue.push_back(test_batch(2));
        sim.replicas[1].queue.push_back(test_batch(3));
        sim.replicas[1].queued_est_ns = 2 * 11_000;
        let batcher = Batcher::new(BatchPolicy::Immediate);
        sim.autoscale_step(0, &batcher);
        assert!(sim.replicas[1].draining, "the least-loaded replica drains");
        assert!(
            sim.replicas[1].queue.is_empty(),
            "its queued batches left with the drain"
        );
        assert_eq!(
            sim.replicas[0].queue.len(),
            2,
            "the survivor inherited the queued batches"
        );
        assert_eq!(
            sim.result.requeued_batches, 2,
            "drain migration is counted like crash migration"
        );
        assert!(
            sim.replicas[1].in_flight.is_some(),
            "the bound in-flight batch still runs to completion"
        );
    }

    #[test]
    fn slo_controller_scales_through_the_burst_and_drains_back() {
        let cost = flat_cost(100_000, 10_000, 0);
        let pool = PoolConfig {
            autoscale: Some(AutoscaleSpec {
                max_replicas: 4,
                up_depth: 8,
                down_depth: 1,
            }),
            slo: Some(SloSpec {
                p99_target_ns: 2_000_000,
                headroom: 0.8,
            }),
            ..PoolConfig::default()
        };
        let stream = || {
            TrafficStream::new(Traffic {
                process: ArrivalProcess::Bursty {
                    rate_rps: 200_000.0,
                    period_ns: 40_000_000,
                    duty: 0.05,
                },
                requests: 300,
                seed: 21,
            })
        };
        let run_once = || {
            run_pool(
                &cost,
                SchedPolicy::LeastLoaded,
                &[0],
                &pool,
                BatchPolicy::SizeCapped { cap: 8 },
                stream(),
            )
        };
        let r = run_once();
        assert_eq!(r.completed.len(), 300);
        assert!(
            r.replicas_max > 1 && r.replicas_max <= 4,
            "the predicted tail forces scale-up within the cap (got {})",
            r.replicas_max
        );
        for s in &r.samples {
            assert!((1..=4).contains(&s.active_replicas));
        }
        assert_eq!(
            r.samples.last().unwrap().active_replicas,
            1,
            "the pool drains back once the burst passes"
        );
        // SLO-controlled runs replay byte-identically.
        assert_eq!(r, run_once());
    }

    #[test]
    #[should_panic(expected = "headroom must be in (0, 1]")]
    fn slo_rejects_out_of_range_headroom() {
        let cost = flat_cost(1, 1, 0);
        let pool = PoolConfig {
            slo: Some(SloSpec {
                p99_target_ns: 1_000,
                headroom: 1.5,
            }),
            ..PoolConfig::default()
        };
        let _ = Simulator::new(&cost, SchedPolicy::LeastLoaded, &[0], &pool);
    }

    // ---- fault injection + control plane ----

    use crate::fault::{CrashWindow, Slowdown};

    fn run_faulty(
        cost: &CostModel,
        replicas: &[usize],
        faults: &FaultSpec,
        control: bool,
        stream: TrafficStream,
    ) -> SimResult {
        Simulator::with_faults(
            cost,
            SchedPolicy::LeastLoaded,
            replicas,
            &PoolConfig::default(),
            faults,
            control,
            stream.budget(), // any deterministic seed works
        )
        .run(stream, Batcher::new(BatchPolicy::SizeCapped { cap: 4 }))
    }

    /// Unique sorted request ids across completions and drops.
    fn account(r: &SimResult) -> (Vec<u64>, Vec<u64>) {
        let mut done: Vec<u64> = r.completed.iter().map(|c| c.request.id).collect();
        let mut lost: Vec<u64> = r.dropped.iter().map(|d| d.request.id).collect();
        done.sort_unstable();
        lost.sort_unstable();
        (done, lost)
    }

    #[test]
    fn empty_fault_plan_is_byte_identical_to_plain_simulator() {
        let cost = flat_cost(20_000, 2_000, 0);
        let pool = PoolConfig::default();
        let plain = Simulator::new(&cost, SchedPolicy::LeastLoaded, &[0, 0], &pool).run(
            poisson(30_000.0, 250, 9),
            Batcher::new(BatchPolicy::SizeCapped { cap: 4 }),
        );
        let faulty = Simulator::with_faults(
            &cost,
            SchedPolicy::LeastLoaded,
            &[0, 0],
            &pool,
            &FaultSpec::default(),
            false,
            123, // unused: no drop probability, so the RNG never exists
        )
        .run(
            poisson(30_000.0, 250, 9),
            Batcher::new(BatchPolicy::SizeCapped { cap: 4 }),
        );
        assert_eq!(plain, faulty, "the empty plan must be the identity");
    }

    #[test]
    fn crash_without_control_drops_the_dead_replicas_work() {
        let cost = flat_cost(100_000, 2_000, 0);
        let faults = FaultSpec {
            crashes: vec![CrashWindow {
                replica: 0,
                crash_at_ns: 1_000_000,
                recover_after_ns: 0,
            }],
            ..FaultSpec::default()
        };
        let r = run_faulty(&cost, &[0, 0], &faults, false, poisson(50_000.0, 200, 11));
        assert!(!r.dropped.is_empty(), "the dead replica held work");
        assert!(r.dropped.iter().all(|d| d.replica == Some(0)));
        assert!(r.dropped.iter().all(|d| d.dropped_ns == 1_000_000));
        let (done, lost) = account(&r);
        assert_eq!(done.len() + lost.len(), 200, "conservation");
        let mut all: Vec<u64> = done.iter().chain(lost.iter()).copied().collect();
        all.sort_unstable();
        assert_eq!(
            all,
            (0..200).collect::<Vec<_>>(),
            "never both, never neither"
        );
        assert_eq!(r.view_changes, 0);
        assert_eq!(r.requeued_batches, 0);
        // the survivor keeps serving: completions continue past the crash
        assert!(r.completed.iter().any(|c| c.completed_ns > 1_000_000));
    }

    #[test]
    fn crash_with_control_migrates_work_and_fails_over() {
        let cost = flat_cost(100_000, 2_000, 0);
        let faults = FaultSpec {
            crashes: vec![CrashWindow {
                replica: 0, // the initial primary
                crash_at_ns: 1_000_000,
                recover_after_ns: 0,
            }],
            ..FaultSpec::default()
        };
        // Overdrive the pool so every replica holds queued work when the
        // primary dies — the migration path must have something to move.
        let r = run_faulty(
            &cost,
            &[0, 0, 0],
            &faults,
            true,
            poisson(150_000.0, 200, 11),
        );
        assert_eq!(r.completed.len(), 200, "no accepted request is lost");
        assert!(r.dropped.is_empty());
        assert_eq!(r.view_changes, 1, "the primary crash elects a new view");
        assert!(r.failover_ns > 0, "failover time is accounted");
        assert!(
            r.requeued_batches > 0,
            "the dead primary's batches migrated"
        );
        assert!(
            r.completed
                .iter()
                .all(|c| c.completed_ns <= 1_000_000 || c.replica != 0),
            "nothing completes on the dead replica after the crash"
        );
    }

    #[test]
    fn recovered_replica_rejoins_cold_and_serves_again() {
        let cost = flat_cost(50_000, 2_000, 0);
        let faults = FaultSpec {
            crashes: vec![CrashWindow {
                replica: 0,
                crash_at_ns: 500_000,
                recover_after_ns: 1_000_000,
            }],
            ..FaultSpec::default()
        };
        // A single replica: during the outage everything parks, after
        // recovery the backlog drains. Only the in-flight batch at the
        // crash instant is lost (no control plane).
        let r = run_faulty(&cost, &[0], &faults, false, poisson(30_000.0, 120, 3));
        let (done, lost) = account(&r);
        assert_eq!(
            done.len() + lost.len(),
            120,
            "conservation through the outage"
        );
        assert!(lost.len() <= 4, "at most the one in-flight batch dies");
        assert!(
            r.completed.iter().any(|c| c.completed_ns > 1_500_000),
            "the recovered replica serves the parked backlog"
        );
        assert!(
            !r.completed
                .iter()
                .any(|c| (500_000..1_500_000).contains(&c.completed_ns)),
            "nothing completes during the outage"
        );
    }

    #[test]
    fn straggler_stretches_service_and_the_tail() {
        let cost = flat_cost(20_000, 2_000, 0);
        let healthy = run_faulty(
            &cost,
            &[0, 0],
            &FaultSpec::default(),
            false,
            poisson(30_000.0, 150, 5),
        );
        let slow = FaultSpec {
            slowdowns: vec![Slowdown {
                replica: 1,
                factor: 8.0,
            }],
            ..FaultSpec::default()
        };
        let straggling = run_faulty(&cost, &[0, 0], &slow, false, poisson(30_000.0, 150, 5));
        assert_eq!(straggling.completed.len(), 150, "slow is not lost");
        let min_service = |r: &SimResult, replica: usize| {
            r.batches
                .iter()
                .filter(|b| b.replica == replica)
                .map(|b| b.service_ns)
                .min()
                .unwrap()
        };
        assert!(
            min_service(&straggling, 1) >= 8 * min_service(&healthy, 0),
            "every batch on the straggler pays the multiplier"
        );
        assert!(straggling.makespan_ns > healthy.makespan_ns);
    }

    #[test]
    fn in_transit_drops_are_seeded_and_conserved() {
        let cost = flat_cost(20_000, 2_000, 0);
        let lossy = FaultSpec {
            drop_prob: 0.25,
            ..FaultSpec::default()
        };
        let a = run_faulty(&cost, &[0, 0], &lossy, false, poisson(30_000.0, 200, 13));
        let b = run_faulty(&cost, &[0, 0], &lossy, false, poisson(30_000.0, 200, 13));
        assert_eq!(a, b, "drops replay identically from the seed");
        assert!(!a.dropped.is_empty(), "a quarter of batches vanish");
        assert!(a.dropped.iter().all(|d| d.replica.is_none()));
        let (done, lost) = account(&a);
        assert_eq!(done.len() + lost.len(), 200);
        let mut all: Vec<u64> = done.iter().chain(lost.iter()).copied().collect();
        all.sort_unstable();
        assert_eq!(all, (0..200).collect::<Vec<_>>());
    }

    #[test]
    fn closed_loop_clients_reissue_after_drops() {
        // Dropped responses must not strand closed-loop clients: the
        // full request budget is still issued and accounted.
        let cost = flat_cost(20_000, 2_000, 0);
        let lossy = FaultSpec {
            drop_prob: 0.3,
            ..FaultSpec::default()
        };
        let stream = TrafficStream::new(Traffic {
            process: ArrivalProcess::ClosedLoop {
                clients: 4,
                think_ns: 50_000,
            },
            requests: 80,
            seed: 21,
        });
        let r = run_faulty(&cost, &[0, 0], &lossy, false, stream);
        let (done, lost) = account(&r);
        assert!(!lost.is_empty());
        assert_eq!(done.len() + lost.len(), 80, "the whole budget resolves");
    }

    #[test]
    #[should_panic(expected = "inconsistent fault plan")]
    fn fault_plan_replica_indices_are_validated() {
        let cost = flat_cost(1, 1, 0);
        let faults = FaultSpec {
            crashes: vec![CrashWindow {
                replica: 5,
                crash_at_ns: 1,
                recover_after_ns: 0,
            }],
            ..FaultSpec::default()
        };
        let _ = Simulator::with_faults(
            &cost,
            SchedPolicy::LeastLoaded,
            &[0, 0],
            &PoolConfig::default(),
            &faults,
            false,
            0,
        );
    }
}
