//! HGNN model descriptions: RGCN, RGAT and Simple-HGN.
//!
//! The paper evaluates three models (§5.1), configured as in HiHGNN:
//! hidden dimension 64, 8 attention heads for the attention models. A
//! [`ModelConfig`] fully determines both the functional reference
//! semantics and the per-stage work the accelerator models charge.

/// The three evaluated HGNN models.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub enum ModelKind {
    /// Relational GCN: degree-normalized mean aggregation per relation.
    Rgcn,
    /// Relational GAT: per-relation additive attention.
    Rgat,
    /// Simple-HGN: GAT plus learned edge-type embeddings in the attention
    /// logits and a residual connection.
    SimpleHgn,
}

impl ModelKind {
    /// All models in the paper's presentation order.
    pub const ALL: [ModelKind; 3] = [ModelKind::Rgcn, ModelKind::Rgat, ModelKind::SimpleHgn];

    /// Display name as used in the paper's figures.
    pub fn name(self) -> &'static str {
        match self {
            ModelKind::Rgcn => "RGCN",
            ModelKind::Rgat => "RGAT",
            ModelKind::SimpleHgn => "Simple-HGN",
        }
    }

    /// Whether the NA stage computes attention coefficients.
    pub fn uses_attention(self) -> bool {
        !matches!(self, ModelKind::Rgcn)
    }
}

impl std::fmt::Display for ModelKind {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(self.name())
    }
}

/// Full model configuration.
///
/// # Examples
///
/// ```
/// use gdr_hgnn::model::{ModelConfig, ModelKind};
/// let cfg = ModelConfig::paper(ModelKind::Rgat);
/// assert_eq!(cfg.hidden_dim, 64);
/// assert_eq!(cfg.heads, 8);
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct ModelConfig {
    /// Which model.
    pub kind: ModelKind,
    /// Hidden (projected) dimension per head-group.
    pub hidden_dim: usize,
    /// Attention heads (1 for RGCN).
    pub heads: usize,
    /// Edge-type embedding dimension (Simple-HGN only, 0 otherwise).
    pub edge_dim: usize,
    /// Network depth. Layer 1 projects from the raw feature dimensions;
    /// deeper layers project from `hidden_dim` and repeat NA + SF over
    /// the same topology (this is why the NA stage dominates inference,
    /// the paper's §3 motivation).
    pub layers: usize,
}

impl ModelConfig {
    /// The configuration used throughout the paper's evaluation
    /// (following HiHGNN: hidden 64, 8 heads for attention models,
    /// edge-type embedding 64 for Simple-HGN).
    pub fn paper(kind: ModelKind) -> Self {
        match kind {
            ModelKind::Rgcn => Self {
                kind,
                hidden_dim: 64,
                heads: 1,
                edge_dim: 0,
                layers: 2,
            },
            ModelKind::Rgat => Self {
                kind,
                hidden_dim: 64,
                heads: 8,
                edge_dim: 0,
                layers: 2,
            },
            ModelKind::SimpleHgn => Self {
                kind,
                hidden_dim: 64,
                heads: 8,
                edge_dim: 64,
                layers: 2,
            },
        }
    }

    /// MAC-equivalent operations the NA stage spends per edge.
    pub fn na_ops_per_edge(&self) -> u64 {
        let h = self.hidden_dim as u64;
        match self.kind {
            // scale + accumulate
            ModelKind::Rgcn => 2 * h,
            // per-edge attention logit (2 dots over hidden) + softmax share
            // + weighted accumulate, across heads sharing the hidden dim
            ModelKind::Rgat => 4 * h + 2 * self.heads as u64,
            // RGAT plus the edge-type embedding term in the logit
            ModelKind::SimpleHgn => 5 * h + 3 * self.heads as u64,
        }
    }

    /// MAC-equivalent operations the SF stage spends per destination
    /// vertex per contributing semantic graph (elementwise fuse, plus a
    /// semantic-attention dot for the attention models).
    pub fn sf_ops_per_vertex(&self) -> u64 {
        let h = self.hidden_dim as u64;
        match self.kind {
            ModelKind::Rgcn => h,
            ModelKind::Rgat | ModelKind::SimpleHgn => 2 * h,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn paper_configs() {
        let rgcn = ModelConfig::paper(ModelKind::Rgcn);
        assert_eq!(rgcn.heads, 1);
        assert_eq!(rgcn.layers, 2);
        assert!(!rgcn.kind.uses_attention());
        let rgat = ModelConfig::paper(ModelKind::Rgat);
        assert!(rgat.kind.uses_attention());
        assert_eq!(rgat.edge_dim, 0);
        let shgn = ModelConfig::paper(ModelKind::SimpleHgn);
        assert_eq!(shgn.edge_dim, 64);
    }

    #[test]
    fn work_ordering_matches_model_complexity() {
        let ops: Vec<u64> = ModelKind::ALL
            .iter()
            .map(|&k| ModelConfig::paper(k).na_ops_per_edge())
            .collect();
        assert!(ops[0] < ops[1] && ops[1] < ops[2], "{ops:?}");
    }

    #[test]
    fn names_and_order() {
        assert_eq!(ModelKind::Rgcn.to_string(), "RGCN");
        assert_eq!(ModelKind::SimpleHgn.name(), "Simple-HGN");
        assert_eq!(ModelKind::ALL[1], ModelKind::Rgat);
    }
}
