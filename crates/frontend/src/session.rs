//! The streaming frontend session: lazy, per-graph restructuring.
//!
//! A [`Session`] drives the [`FrontendPipeline`] over a borrowed set of
//! semantic graphs. It restructures on demand ([`Session::iter`]
//! streams one [`GraphResult`] per graph, in input order), eagerly
//! ([`Session::process`] collects the batch totals into a
//! [`FrontendRun`]), or fanned out across cores
//! ([`Session::par_process`]) with no extra cloning.
//!
//! Parallelism uses `std::thread::scope` with an atomic work queue
//! rather than an external thread pool, so the crate stays
//! dependency-free; semantic graphs vary widely in size, and the
//! work-stealing index keeps lanes busy despite that skew.

use std::sync::atomic::{AtomicUsize, Ordering};

use gdr_core::workspace::Workspace;
use gdr_hetgraph::BipartiteGraph;

use crate::config::FrontendConfig;
use crate::pipeline::{FrontendPipeline, FrontendRun, GraphResult};

/// A lazy frontend run over a borrowed set of semantic graphs.
///
/// # Examples
///
/// Stream results one graph at a time:
///
/// ```
/// use gdr_hetgraph::datasets::Dataset;
/// use gdr_frontend::config::FrontendConfig;
/// use gdr_frontend::session::Session;
///
/// let het = Dataset::Acm.build_scaled(1, 0.03);
/// let graphs = het.all_semantic_graphs();
/// let session = Session::new(FrontendConfig::default(), &graphs);
/// for (g, r) in graphs.iter().zip(session.iter()) {
///     assert!(r.schedule.is_permutation_of(g));
/// }
/// ```
///
/// Restructure all graphs in parallel, then aggregate:
///
/// ```
/// use gdr_hetgraph::datasets::Dataset;
/// use gdr_frontend::config::FrontendConfig;
/// use gdr_frontend::session::Session;
///
/// let het = Dataset::Acm.build_scaled(1, 0.03);
/// let graphs = het.all_semantic_graphs();
/// let run = Session::new(FrontendConfig::default(), &graphs).par_process();
/// assert_eq!(run.per_graph().len(), graphs.len());
/// assert!(run.total_cycles() > 0);
/// ```
#[derive(Debug, Clone)]
pub struct Session<'g> {
    pipeline: FrontendPipeline,
    graphs: &'g [BipartiteGraph],
}

impl<'g> Session<'g> {
    /// Opens a session over `graphs` with the given hardware
    /// configuration. No work happens until results are pulled.
    pub fn new(cfg: FrontendConfig, graphs: &'g [BipartiteGraph]) -> Self {
        Self {
            pipeline: FrontendPipeline::new(cfg),
            graphs,
        }
    }

    /// Re-binds the session's configured pipeline to a different set of
    /// semantic graphs. This is the serving hook: an online server keeps
    /// one warm pipeline per replica and points it at each incoming
    /// request batch instead of rebuilding Decoupler/Recoupler state —
    /// results are identical to a fresh [`Session::new`] with the same
    /// configuration.
    pub fn rebind<'h>(&self, graphs: &'h [BipartiteGraph]) -> Session<'h> {
        Session {
            pipeline: self.pipeline.clone(),
            graphs,
        }
    }

    /// The semantic graphs this session is bound to.
    pub fn graphs(&self) -> &'g [BipartiteGraph] {
        self.graphs
    }

    /// Number of semantic graphs in the session.
    pub fn len(&self) -> usize {
        self.graphs.len()
    }

    /// Whether the session holds no graphs.
    pub fn is_empty(&self) -> bool {
        self.graphs.is_empty()
    }

    /// Lazily streams one [`GraphResult`] per semantic graph, in input
    /// order. Each result is computed when the iterator is advanced —
    /// nothing is buffered, so a consumer that stops early (or feeds an
    /// accelerator graph-by-graph, as the §4.3 overlap pipeline does)
    /// never pays for the tail. The iterator owns one restructuring
    /// [`Workspace`] and reuses it across every graph it yields, so the
    /// workspace's buffers stop growing once they reach the largest
    /// graph's size.
    pub fn iter(&self) -> impl ExactSizeIterator<Item = GraphResult> + '_ {
        let mut ws = Workspace::new();
        self.graphs
            .iter()
            .map(move |g| self.pipeline.process_with(&mut ws, g))
    }

    /// Restructures every graph sequentially, through one transient
    /// [`Workspace`], and aggregates the results in input order.
    pub fn process(&self) -> FrontendRun {
        self.process_with(&mut Workspace::new())
    }

    /// [`Session::process`] through a caller-held [`Workspace`] — the
    /// serving hook's hot path: an online server keeps one workspace per
    /// replica next to its warm pipeline and replays rebinds through it,
    /// so back-to-back cost measurements and cold binds stop paying
    /// allocator traffic. Results are identical to [`Session::process`].
    pub fn process_with(&self, ws: &mut Workspace) -> FrontendRun {
        FrontendRun::from_results(
            self.graphs
                .iter()
                .map(|g| self.pipeline.process_with(ws, g))
                .collect(),
        )
    }

    /// Restructures every graph in parallel across the machine's cores
    /// and aggregates the results in input order.
    ///
    /// Semantic graphs are independent restructuring problems, so this
    /// is an embarrassingly-parallel fan-out: worker threads pull graph
    /// indices from a shared atomic counter (cheap work stealing — graph
    /// sizes are heavily skewed) and write results back slot-for-slot.
    /// Each worker lane owns one restructuring [`Workspace`] for the
    /// whole run, so the fan-out allocates per *lane*, not per graph.
    /// The output is bit-identical to [`Session::process`].
    pub fn par_process(&self) -> FrontendRun {
        self.par_process_with(available_workers())
    }

    /// [`Session::par_process`] with an explicit worker count. The count
    /// is clamped to `1..=len()`: `workers == 0` (and `workers == 1`)
    /// degrade to the sequential path, and oversubscription beyond one
    /// worker per graph is pointless, so no caller discipline is needed.
    pub fn par_process_with(&self, workers: usize) -> FrontendRun {
        let n = self.graphs.len();
        let workers = workers.clamp(1, n.max(1));
        if workers <= 1 || n <= 1 {
            return self.process();
        }
        let next = AtomicUsize::new(0);
        let mut indexed: Vec<(usize, GraphResult)> = std::thread::scope(|scope| {
            let handles: Vec<_> = (0..workers)
                .map(|_| {
                    scope.spawn(|| {
                        let mut ws = Workspace::new();
                        let mut local = Vec::new();
                        loop {
                            let i = next.fetch_add(1, Ordering::Relaxed);
                            if i >= n {
                                break;
                            }
                            local.push((i, self.pipeline.process_with(&mut ws, &self.graphs[i])));
                        }
                        local
                    })
                })
                .collect();
            handles
                .into_iter()
                .flat_map(|h| h.join().expect("frontend worker panicked"))
                .collect()
        });
        indexed.sort_unstable_by_key(|&(i, _)| i);
        FrontendRun::from_results(indexed.into_iter().map(|(_, r)| r).collect())
    }
}

/// Worker count for [`Session::par_process`]: one per available core.
fn available_workers() -> usize {
    std::thread::available_parallelism()
        .map(|n| n.get())
        .unwrap_or(1)
}

#[cfg(test)]
mod tests {
    use super::*;
    use gdr_hetgraph::datasets::Dataset;

    fn graphs() -> Vec<BipartiteGraph> {
        Dataset::Imdb.build_scaled(1, 0.05).all_semantic_graphs()
    }

    #[test]
    fn streaming_matches_batch_graph_for_graph() {
        let graphs = graphs();
        let cfg = FrontendConfig::default();
        let session = Session::new(cfg, &graphs);
        let batch = session.process();
        let mut streamed = 0;
        for (b, s) in batch.per_graph().iter().zip(session.iter()) {
            assert_eq!(b.schedule, s.schedule);
            assert_eq!(b.cycles, s.cycles);
            assert_eq!(b.matching_size, s.matching_size);
            assert_eq!(b.backbone_size, s.backbone_size);
            streamed += 1;
        }
        assert_eq!(streamed, graphs.len());
    }

    #[test]
    fn parallel_equals_sequential() {
        let graphs = graphs();
        let session = Session::new(FrontendConfig::default(), &graphs);
        let seq = session.process();
        // 0 must clamp up to sequential, 64 and usize::MAX clamp down to
        // one worker per graph — no caller discipline required.
        for workers in [0, 1, 2, 7, 64, usize::MAX] {
            let par = session.par_process_with(workers);
            assert_eq!(seq.per_graph().len(), par.per_graph().len());
            for (a, b) in seq.per_graph().iter().zip(par.per_graph()) {
                assert_eq!(a.schedule, b.schedule, "workers={workers}");
                assert_eq!(a.cycles, b.cycles, "workers={workers}");
                assert_eq!(a.requests, b.requests, "workers={workers}");
            }
        }
    }

    #[test]
    fn iter_is_lazy_and_sized() {
        let graphs = graphs();
        let session = Session::new(FrontendConfig::default(), &graphs);
        let mut it = session.iter();
        assert_eq!(it.len(), graphs.len());
        // pulling one result must not require the rest
        let first = it.next().expect("non-empty dataset");
        assert!(first.schedule.is_permutation_of(&graphs[0]));
        assert_eq!(it.len(), graphs.len() - 1);
    }

    #[test]
    fn empty_session() {
        let session = Session::new(FrontendConfig::default(), &[]);
        assert!(session.is_empty());
        assert_eq!(session.par_process().per_graph().len(), 0);
        assert_eq!(session.process().total_cycles(), 0);
        // the worker clamp must also hold with no graphs at all
        assert_eq!(session.par_process_with(0).per_graph().len(), 0);
        assert_eq!(session.par_process_with(8).per_graph().len(), 0);
    }

    #[test]
    fn rebind_reuses_pipeline_and_matches_fresh_session() {
        let graphs = graphs();
        let other = Dataset::Acm.build_scaled(2, 0.05).all_semantic_graphs();
        let session = Session::new(FrontendConfig::default(), &graphs);
        let rebound = session.rebind(&other);
        assert_eq!(rebound.len(), other.len());
        let fresh = Session::new(FrontendConfig::default(), &other);
        for (a, b) in rebound.iter().zip(fresh.iter()) {
            assert_eq!(a.schedule, b.schedule);
            assert_eq!(a.cycles, b.cycles);
        }
        // the original session is untouched
        assert_eq!(session.len(), graphs.len());
    }
}
