//! Semantic graph similarity and HiHGNN's reuse-aware execution order.
//!
//! HiHGNN "strategically schedules the execution order of semantic graphs
//! based on their similarity to exploit data reusability": consecutive
//! semantic graphs sharing vertex types reuse projected features and
//! per-type FP weights still resident on chip. This module scores that
//! similarity and produces the greedy similarity-chained order.

use crate::workload::SgWork;

/// Similarity of two semantic graphs in `[0, 1]`: Jaccard overlap of
/// their endpoint vertex-type sets, weighted toward shared *source* types
/// (whose projected features dominate NA-stage traffic).
///
/// # Examples
///
/// ```
/// use gdr_hgnn::similarity::similarity;
/// use gdr_hgnn::workload::SgWork;
/// # fn sg(src_ty: usize, dst_ty: usize) -> SgWork {
/// #     SgWork { name: String::new(), src_count: 1, dst_count: 1, edges: 1,
/// #              touched_src: 1, touched_dst: 1, src_in_dim: 8, dst_in_dim: 8,
/// #              src_ty, dst_ty }
/// # }
/// let a = sg(0, 1);
/// let b = sg(1, 0); // reverse relation: same type set
/// assert_eq!(similarity(&a, &b), 1.0);
/// let c = sg(2, 3);
/// assert_eq!(similarity(&a, &c), 0.0);
/// ```
pub fn similarity(a: &SgWork, b: &SgWork) -> f64 {
    let set_a = [a.src_ty, a.dst_ty];
    let set_b = [b.src_ty, b.dst_ty];
    let mut inter = 0usize;
    let mut types_a: Vec<usize> = set_a.to_vec();
    types_a.dedup();
    let mut types_b: Vec<usize> = set_b.to_vec();
    types_b.dedup();
    for t in &types_a {
        if types_b.contains(t) {
            inter += 1;
        }
    }
    let union = types_a.len() + types_b.len() - inter;
    if union == 0 {
        return 0.0;
    }
    let jaccard = inter as f64 / union as f64;
    // bonus when the shared type sits on the source side of both (direct
    // projected-feature reuse)
    let src_bonus = if a.src_ty == b.src_ty { 0.25 } else { 0.0 };
    (jaccard + src_bonus).min(1.0)
}

/// HiHGNN's scheduling: greedy chain starting from the largest semantic
/// graph, each step picking the unscheduled graph most similar to the
/// previously scheduled one. Returns the execution order as indices into
/// `graphs`.
pub fn similarity_order(graphs: &[SgWork]) -> Vec<usize> {
    let n = graphs.len();
    if n == 0 {
        return Vec::new();
    }
    let mut remaining: Vec<usize> = (0..n).collect();
    // start from the graph with the most edges (longest to process, so its
    // reuse window matters most)
    let start_pos = remaining
        .iter()
        .enumerate()
        .max_by_key(|&(_, &i)| graphs[i].edges)
        .map(|(p, _)| p)
        .expect("non-empty");
    let mut order = vec![remaining.swap_remove(start_pos)];
    while !remaining.is_empty() {
        let last = *order.last().expect("order non-empty");
        let (pos, _) = remaining
            .iter()
            .enumerate()
            .max_by(|&(_, &a), &(_, &b)| {
                similarity(&graphs[last], &graphs[a])
                    .partial_cmp(&similarity(&graphs[last], &graphs[b]))
                    .expect("similarities are finite")
                    .then(graphs[a].edges.cmp(&graphs[b].edges))
            })
            .expect("remaining non-empty");
        order.push(remaining.swap_remove(pos));
    }
    order
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::model::{ModelConfig, ModelKind};
    use crate::workload::Workload;
    use gdr_hetgraph::datasets::Dataset;

    fn sg(name: &str, src_ty: usize, dst_ty: usize, edges: usize) -> SgWork {
        SgWork {
            name: name.into(),
            src_count: 10,
            dst_count: 10,
            edges,
            touched_src: 10,
            touched_dst: 10,
            src_in_dim: 8,
            dst_in_dim: 8,
            src_ty,
            dst_ty,
        }
    }

    #[test]
    fn similarity_bounds() {
        let a = sg("a", 0, 1, 5);
        assert_eq!(similarity(&a, &a), 1.0);
        let d = sg("d", 2, 3, 5);
        assert_eq!(similarity(&a, &d), 0.0);
        let half = sg("h", 0, 2, 5);
        assert!(similarity(&a, &half) > 0.0 && similarity(&a, &half) < 1.0);
    }

    #[test]
    fn order_is_a_permutation() {
        let het = Dataset::Acm.build_scaled(1, 0.05);
        let w = Workload::from_hetero(ModelConfig::paper(ModelKind::Rgcn), &het);
        let order = similarity_order(w.graphs());
        let mut sorted = order.clone();
        sorted.sort_unstable();
        assert_eq!(sorted, (0..w.graphs().len()).collect::<Vec<_>>());
    }

    #[test]
    fn chained_order_beats_scrambled_order_on_reuse() {
        // Pairs at positions 2k and 2k+1 that are a relation and its
        // reverse: the second graph reuses both projected types.
        let reverse_pairs = |w: &Workload, order: &[usize]| {
            order
                .chunks(2)
                .filter(|p| {
                    let (a, b) = (&w.graphs()[p[0]], &w.graphs()[p[1]]);
                    (a.src_ty, a.dst_ty) == (b.dst_ty, b.src_ty)
                })
                .count()
        };
        for dataset in Dataset::ALL {
            let het = dataset.build_scaled(1, 0.05);
            let w = Workload::from_hetero(ModelConfig::paper(ModelKind::Rgcn), &het);
            let chained = similarity_order(w.graphs());
            let pairs = chained.len() / 2;
            assert_eq!(reverse_pairs(&w, &chained), pairs, "{dataset:?}");
            if dataset == Dataset::Imdb {
                // deliberately split the fwd/rev relation pairs apart
                assert_eq!(reverse_pairs(&w, &[0, 2, 4, 1, 3, 5]), 0);
            }
        }
    }

    #[test]
    fn empty_input() {
        assert!(similarity_order(&[]).is_empty());
    }

    #[test]
    fn starts_with_largest_graph() {
        let graphs = vec![sg("s", 0, 1, 3), sg("m", 1, 2, 50), sg("l", 2, 3, 9)];
        let order = similarity_order(&graphs);
        assert_eq!(order[0], 1);
    }
}
