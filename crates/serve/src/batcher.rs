//! Dynamic batching: grouping single requests into per-cell batches.
//!
//! A batch is the unit the backend executes — one frontend `Session` +
//! accelerator pass over one cell's semantic graphs serves every request
//! in the batch, paying the fixed per-execution cost (kernel launch,
//! pipeline fill, frontend restructuring exposure) **once**. The policy
//! trades batch-formation delay against that amortization:
//!
//! * [`BatchPolicy::Immediate`] — no coalescing; every request becomes a
//!   singleton batch (lowest formation delay, highest fixed-cost load);
//! * [`BatchPolicy::SizeCapped`] — dispatch when `cap` same-cell
//!   requests have gathered (best amortization; stragglers wait for the
//!   stream to end);
//! * [`BatchPolicy::Deadline`] — dispatch at `cap` **or** when the
//!   oldest queued request has waited `timeout_ns` (bounded formation
//!   delay — the latency-SLO compromise).

use crate::request::{Cell, Request, CELL_COUNT};

/// The batching policy (see module docs).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum BatchPolicy {
    /// Dispatch every request as a singleton batch.
    Immediate,
    /// Dispatch when `cap` same-cell requests have gathered.
    SizeCapped {
        /// Maximum (and target) batch size.
        cap: usize,
    },
    /// Dispatch at `cap` requests or after the oldest has waited
    /// `timeout_ns`, whichever comes first.
    Deadline {
        /// Maximum batch size.
        cap: usize,
        /// Formation-delay bound for the oldest queued request, ns.
        timeout_ns: u64,
    },
}

impl BatchPolicy {
    /// Stable policy label serialized into serve records
    /// (`"immediate"`, `"size-capped:8"`, `"deadline:8:100000"`).
    pub fn label(&self) -> String {
        match *self {
            BatchPolicy::Immediate => "immediate".into(),
            BatchPolicy::SizeCapped { cap } => format!("size-capped:{cap}"),
            BatchPolicy::Deadline { cap, timeout_ns } => format!("deadline:{cap}:{timeout_ns}"),
        }
    }

    fn cap(&self) -> usize {
        match *self {
            BatchPolicy::Immediate => 1,
            BatchPolicy::SizeCapped { cap } | BatchPolicy::Deadline { cap, .. } => cap.max(1),
        }
    }
}

/// A dispatched batch: same-cell requests executed as one backend pass.
#[derive(Debug, Clone, PartialEq)]
pub struct Batch {
    /// The cell every request in the batch targets.
    pub cell: Cell,
    /// The batched requests, in arrival order.
    pub requests: Vec<Request>,
    /// Virtual time the batch was formed (dispatched to the scheduler).
    pub formed_ns: u64,
    /// Start of the open stall episode, while the batch is parked or
    /// orphaned off a crashed replica (`None` otherwise).
    pub(crate) stalled_since: Option<u64>,
    /// Total time of the closed stall episodes, ns — the `stall_ns`
    /// the trace reports when the batch starts.
    pub(crate) stall_ns: u64,
}

impl Batch {
    /// A freshly sealed batch that has never stalled.
    pub(crate) fn new(cell: Cell, requests: Vec<Request>, formed_ns: u64) -> Self {
        Self {
            cell,
            requests,
            formed_ns,
            stalled_since: None,
            stall_ns: 0,
        }
    }

    /// Number of requests in the batch.
    pub fn len(&self) -> usize {
        self.requests.len()
    }

    /// Whether the batch is empty (never true for dispatched batches).
    pub fn is_empty(&self) -> bool {
        self.requests.is_empty()
    }
}

/// Per-cell request coalescing under one [`BatchPolicy`].
#[derive(Debug, Clone)]
pub struct Batcher {
    policy: BatchPolicy,
    /// Pending requests, one buffer per grid cell.
    pending: [Vec<Request>; CELL_COUNT],
}

impl Batcher {
    /// An empty batcher under `policy`.
    pub fn new(policy: BatchPolicy) -> Self {
        Self {
            policy,
            pending: std::array::from_fn(|_| Vec::new()),
        }
    }

    /// The policy in force.
    pub fn policy(&self) -> BatchPolicy {
        self.policy
    }

    /// Accepts one arrival at virtual time `now`; returns a batch when
    /// the policy triggers on the request's cell.
    pub fn push(&mut self, req: Request, now: u64) -> Option<Batch> {
        let cell = req.cell;
        let buf = &mut self.pending[cell.index()];
        buf.push(req);
        if buf.len() >= self.policy.cap() {
            return Some(Batch::new(cell, std::mem::take(buf), now));
        }
        None
    }

    /// The earliest pending flush deadline under a
    /// [`BatchPolicy::Deadline`] policy (`None` for other policies or
    /// when nothing is pending). The event loop schedules a flush event
    /// at this time.
    pub fn next_deadline(&self) -> Option<u64> {
        let BatchPolicy::Deadline { timeout_ns, .. } = self.policy else {
            return None;
        };
        self.pending
            .iter()
            .filter_map(|buf| buf.first().map(|r| r.arrival_ns + timeout_ns))
            .min()
    }

    /// Flushes every cell whose oldest request has reached its deadline
    /// at `now`, in cell order.
    pub fn flush_due(&mut self, now: u64) -> Vec<Batch> {
        let BatchPolicy::Deadline { timeout_ns, .. } = self.policy else {
            return Vec::new();
        };
        let mut out = Vec::new();
        for i in 0..CELL_COUNT {
            let due = self.pending[i]
                .first()
                .is_some_and(|r| r.arrival_ns + timeout_ns <= now);
            if due {
                out.push(Batch::new(
                    Cell::from_index(i),
                    std::mem::take(&mut self.pending[i]),
                    now,
                ));
            }
        }
        out
    }

    /// Flushes every non-empty cell (end of the request stream), in cell
    /// order.
    pub fn flush_all(&mut self, now: u64) -> Vec<Batch> {
        let mut out = Vec::new();
        for i in 0..CELL_COUNT {
            if !self.pending[i].is_empty() {
                out.push(Batch::new(
                    Cell::from_index(i),
                    std::mem::take(&mut self.pending[i]),
                    now,
                ));
            }
        }
        out
    }

    /// Total requests currently waiting for batch formation.
    pub fn pending_len(&self) -> usize {
        self.pending.iter().map(Vec::len).sum()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn req(id: u64, cell: usize, arrival_ns: u64) -> Request {
        Request {
            id,
            client: id as usize,
            arrival_ns,
            cell: Cell::from_index(cell),
        }
    }

    #[test]
    fn immediate_dispatches_singletons() {
        let mut b = Batcher::new(BatchPolicy::Immediate);
        let batch = b.push(req(0, 3, 10), 10).expect("immediate dispatch");
        assert_eq!(batch.len(), 1);
        assert_eq!(batch.cell, Cell::from_index(3));
        assert_eq!(b.pending_len(), 0);
        assert_eq!(BatchPolicy::Immediate.label(), "immediate");
    }

    #[test]
    fn size_capped_waits_for_cap_per_cell() {
        let mut b = Batcher::new(BatchPolicy::SizeCapped { cap: 3 });
        assert!(b.push(req(0, 0, 1), 1).is_none());
        assert!(b.push(req(1, 1, 2), 2).is_none(), "other cell, own buffer");
        assert!(b.push(req(2, 0, 3), 3).is_none());
        let batch = b.push(req(3, 0, 4), 4).expect("third same-cell request");
        assert_eq!(batch.len(), 3);
        assert_eq!(
            batch.requests.iter().map(|r| r.id).collect::<Vec<_>>(),
            [0, 2, 3]
        );
        assert_eq!(b.pending_len(), 1, "cell 1 still gathering");
        let tail = b.flush_all(9);
        assert_eq!(tail.len(), 1);
        assert_eq!(tail[0].formed_ns, 9);
        assert_eq!(BatchPolicy::SizeCapped { cap: 3 }.label(), "size-capped:3");
    }

    #[test]
    fn deadline_flushes_the_oldest_waiter() {
        let policy = BatchPolicy::Deadline {
            cap: 8,
            timeout_ns: 100,
        };
        let mut b = Batcher::new(policy);
        assert!(b.next_deadline().is_none());
        assert!(b.push(req(0, 2, 50), 50).is_none());
        assert!(b.push(req(1, 2, 90), 90).is_none());
        assert_eq!(b.next_deadline(), Some(150), "oldest arrival + timeout");
        assert!(b.flush_due(149).is_empty());
        let due = b.flush_due(150);
        assert_eq!(due.len(), 1);
        assert_eq!(due[0].len(), 2);
        assert_eq!(b.next_deadline(), None);
        assert_eq!(policy.label(), "deadline:8:100");
    }

    #[test]
    fn zero_cap_clamps_to_one() {
        let mut b = Batcher::new(BatchPolicy::SizeCapped { cap: 0 });
        assert!(b.push(req(0, 0, 1), 1).is_some(), "cap 0 behaves as 1");
    }
}
