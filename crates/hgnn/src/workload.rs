//! Workload characterization: the per-stage work an HGNN inference
//! presents to a hardware platform.
//!
//! The accelerator and GPU models never execute features — they charge
//! compute and memory traffic from these descriptors plus the access
//! traces the graph topology induces.

use gdr_hetgraph::{BipartiteGraph, HeteroGraph};

use crate::model::ModelConfig;

/// Static description of one semantic graph's workload.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct SgWork {
    /// Semantic graph label.
    pub name: String,
    /// Source-space size.
    pub src_count: usize,
    /// Destination-space size.
    pub dst_count: usize,
    /// Edge count.
    pub edges: usize,
    /// Sources with at least one out-edge (the set FP must project).
    pub touched_src: usize,
    /// Destinations with at least one in-edge.
    pub touched_dst: usize,
    /// Raw feature dimension of the source type (0 = featureless).
    pub src_in_dim: usize,
    /// Raw feature dimension of the destination type.
    pub dst_in_dim: usize,
    /// Source vertex type index (for cross-graph reuse analysis).
    pub src_ty: usize,
    /// Destination vertex type index.
    pub dst_ty: usize,
}

impl SgWork {
    /// Extracts the descriptor from a semantic graph and its schema
    /// context.
    pub fn from_graph(g: &BipartiteGraph, src_in_dim: usize, dst_in_dim: usize) -> Self {
        Self {
            name: g.name().to_string(),
            src_count: g.src_count(),
            dst_count: g.dst_count(),
            edges: g.edge_count(),
            touched_src: (0..g.src_count()).filter(|&s| g.out_degree(s) > 0).count(),
            touched_dst: (0..g.dst_count()).filter(|&d| g.in_degree(d) > 0).count(),
            src_in_dim,
            dst_in_dim,
            src_ty: g.src_ty().map(|t| t.index()).unwrap_or(usize::MAX),
            dst_ty: g.dst_ty().map(|t| t.index()).unwrap_or(usize::MAX),
        }
    }
}

/// The full workload of one (model, dataset) pair.
///
/// # Examples
///
/// ```
/// use gdr_hetgraph::datasets::Dataset;
/// use gdr_hgnn::model::{ModelConfig, ModelKind};
/// use gdr_hgnn::workload::Workload;
///
/// let het = Dataset::Acm.build_scaled(1, 0.05);
/// let w = Workload::from_hetero(ModelConfig::paper(ModelKind::Rgcn), &het);
/// assert_eq!(w.graphs().len(), 8); // ACM has 8 relations
/// assert!(w.graphs().iter().all(|g| w.na_ops(g) > 0));
/// ```
#[derive(Debug, Clone, PartialEq)]
pub struct Workload {
    model: ModelConfig,
    dataset: String,
    graphs: Vec<SgWork>,
}

impl Workload {
    /// Builds the workload of every relation's semantic graph.
    pub fn from_hetero(model: ModelConfig, het: &HeteroGraph) -> Self {
        let schema = het.schema();
        let graphs = het
            .all_semantic_graphs()
            .iter()
            .map(|sg| {
                let sd = schema
                    .vertex_type(sg.src_ty().expect("provenance"))
                    .expect("schema type")
                    .feature_dim();
                let dd = schema
                    .vertex_type(sg.dst_ty().expect("provenance"))
                    .expect("schema type")
                    .feature_dim();
                SgWork::from_graph(sg, sd, dd)
            })
            .collect();
        Self {
            model,
            dataset: het.name().to_string(),
            graphs,
        }
    }

    /// Model configuration of this workload.
    pub fn model(&self) -> &ModelConfig {
        &self.model
    }

    /// Dataset name.
    pub fn dataset(&self) -> &str {
        &self.dataset
    }

    /// Per-semantic-graph descriptors, in SGB order.
    pub fn graphs(&self) -> &[SgWork] {
        &self.graphs
    }

    /// NA MAC-equivalent ops for one semantic graph.
    pub fn na_ops(&self, sg: &SgWork) -> u64 {
        sg.edges as u64 * self.model.na_ops_per_edge()
    }

    /// SF MAC-equivalent ops for one semantic graph's contribution.
    pub fn sf_ops(&self, sg: &SgWork) -> u64 {
        sg.touched_dst as u64 * self.model.sf_ops_per_vertex()
    }

    /// Total edges across semantic graphs.
    pub fn total_edges(&self) -> usize {
        self.graphs.iter().map(|g| g.edges).sum()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::model::ModelKind;
    use gdr_hetgraph::datasets::Dataset;

    fn workload(kind: ModelKind) -> Workload {
        let het = Dataset::Dblp.build_scaled(2, 0.05);
        Workload::from_hetero(ModelConfig::paper(kind), &het)
    }

    #[test]
    fn descriptors_cover_all_relations() {
        let w = workload(ModelKind::Rgcn);
        assert_eq!(w.graphs().len(), 6);
        assert_eq!(w.dataset(), "DBLP");
        for sg in w.graphs() {
            assert!(sg.touched_src <= sg.src_count);
            assert!(sg.touched_dst <= sg.dst_count);
            assert!(sg.edges > 0);
        }
    }

    #[test]
    fn na_work_scales_with_model() {
        let [rgcn, rgat, shgn] =
            [ModelKind::Rgcn, ModelKind::Rgat, ModelKind::SimpleHgn].map(|kind| {
                let w = workload(kind);
                w.graphs().iter().map(|g| w.na_ops(g)).collect::<Vec<_>>()
            });
        // per semantic graph, since HiHGNN charges NA compute per graph
        for ((a, b), c) in rgcn.iter().zip(&rgat).zip(&shgn) {
            assert!(a < b && b < c, "{a} {b} {c}");
        }
    }

    #[test]
    fn fp_bytes_track_feature_dims() {
        let het = Dataset::Dblp.build_scaled(2, 0.05);
        let w = Workload::from_hetero(ModelConfig::paper(ModelKind::Rgcn), &het);
        // the P->A graph reads paper(4231-dim) sources and author(334-dim) dsts
        let pa = w.graphs().iter().find(|g| g.name == "P->A").unwrap();
        assert_eq!(pa.src_in_dim, 4231);
        assert_eq!(pa.dst_in_dim, 334);
        // every descriptor carries its endpoint types' raw feature widths
        let types = het.schema().vertex_types();
        for sg in w.graphs() {
            assert_eq!(sg.src_in_dim, types[sg.src_ty].feature_dim());
            assert_eq!(sg.dst_in_dim, types[sg.dst_ty].feature_dim());
        }
    }

    #[test]
    fn totals_are_sums() {
        let w = workload(ModelKind::Rgat);
        let edges: usize = w.graphs().iter().map(|g| g.edges).sum();
        assert_eq!(edges, w.total_edges());
        assert!(w.graphs().iter().all(|g| w.sf_ops(g) > 0));
    }
}
