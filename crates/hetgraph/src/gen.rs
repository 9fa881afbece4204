//! Seeded random bipartite graph generators.
//!
//! Real HGB datasets are replaced by synthetic graphs with matching size
//! statistics. The generators here are deterministic in their seed, so
//! every experiment in the workspace is reproducible bit-for-bit.

use rand::rngs::SmallRng;
use rand::{Rng, SeedableRng};

use crate::bipartite::BipartiteGraph;

/// Configuration for a power-law (Zipf-popularity) bipartite generator.
///
/// Each edge picks its source uniformly at random weighted by a Zipf
/// distribution with exponent `src_alpha` over a hidden popularity ranking,
/// and likewise for destinations with `dst_alpha`. `alpha = 0` degenerates
/// to the uniform distribution; `alpha ≈ 1` matches the heavy skew of
/// citation / authorship relations.
///
/// # Examples
///
/// ```
/// use gdr_hetgraph::gen::PowerLawConfig;
/// let g = PowerLawConfig::new(100, 80, 400)
///     .src_alpha(0.8)
///     .dst_alpha(0.6)
///     .generate("toy", 7);
/// assert_eq!(g.edge_count(), 400);
/// assert_eq!(g.src_count(), 100);
/// ```
#[derive(Debug, Clone, PartialEq)]
pub struct PowerLawConfig {
    src_count: usize,
    dst_count: usize,
    edge_count: usize,
    src_alpha: f64,
    dst_alpha: f64,
    dedup: bool,
}

impl PowerLawConfig {
    /// Creates a generator for `edge_count` edges between `src_count`
    /// sources and `dst_count` destinations.
    pub fn new(src_count: usize, dst_count: usize, edge_count: usize) -> Self {
        Self {
            src_count,
            dst_count,
            edge_count,
            src_alpha: 0.0,
            dst_alpha: 0.0,
            dedup: false,
        }
    }

    /// Sets the source-side Zipf exponent (0 = uniform).
    pub fn src_alpha(mut self, alpha: f64) -> Self {
        self.src_alpha = alpha;
        self
    }

    /// Sets the destination-side Zipf exponent (0 = uniform).
    pub fn dst_alpha(mut self, alpha: f64) -> Self {
        self.dst_alpha = alpha;
        self
    }

    /// Removes duplicate `(src, dst)` pairs after sampling. The resulting
    /// edge count may then be below the requested one.
    pub fn dedup(mut self, dedup: bool) -> Self {
        self.dedup = dedup;
        self
    }

    /// Generates the semantic graph deterministically from `seed`.
    ///
    /// # Panics
    ///
    /// Panics if `edge_count > 0` while either side has zero vertices.
    pub fn generate(&self, name: &str, seed: u64) -> BipartiteGraph {
        assert!(
            self.edge_count == 0 || (self.src_count > 0 && self.dst_count > 0),
            "cannot place edges into an empty vertex space"
        );
        let mut rng = SmallRng::seed_from_u64(seed);
        let src_sampler = ZipfSampler::new(self.src_count, self.src_alpha, &mut rng);
        let dst_sampler = ZipfSampler::new(self.dst_count, self.dst_alpha, &mut rng);
        let mut pairs = Vec::with_capacity(self.edge_count);
        for _ in 0..self.edge_count {
            let s = src_sampler.sample(&mut rng);
            let d = dst_sampler.sample(&mut rng);
            pairs.push((s, d));
        }
        if self.dedup {
            pairs.sort_unstable();
            pairs.dedup();
        }
        BipartiteGraph::from_pairs(name, self.src_count, self.dst_count, &pairs)
            .expect("sampled endpoints are in range by construction")
    }
}

/// Zipf sampler over `0..n` with a hidden random permutation so that
/// popularity is uncorrelated with vertex id (as in real datasets, where id
/// order carries no locality — this is exactly what makes the NA stage's
/// accesses irregular).
#[derive(Debug, Clone)]
struct ZipfSampler {
    cumulative: Vec<f64>,
    permutation: Vec<u32>,
}

impl ZipfSampler {
    fn new(n: usize, alpha: f64, rng: &mut SmallRng) -> Self {
        let mut cumulative = Vec::with_capacity(n);
        let mut acc = 0.0f64;
        for i in 0..n {
            acc += 1.0 / ((i + 1) as f64).powf(alpha);
            cumulative.push(acc);
        }
        let mut permutation: Vec<u32> = (0..n as u32).collect();
        // Fisher-Yates
        for i in (1..n).rev() {
            let j = rng.gen_range(0..=i);
            permutation.swap(i, j);
        }
        Self {
            cumulative,
            permutation,
        }
    }

    fn sample(&self, rng: &mut SmallRng) -> u32 {
        let total = *self
            .cumulative
            .last()
            .expect("sampler over non-empty space");
        let x = rng.gen_range(0.0..total);
        let idx = self.cumulative.partition_point(|&c| c <= x);
        self.permutation[idx.min(self.permutation.len() - 1)]
    }
}

/// Generates a bipartite graph where every source has exactly `degree`
/// out-edges to distinct destinations chosen with Zipf popularity.
///
/// Models relations like `M -> D` in IMDB (every movie has exactly one
/// director) or `P -> V` in DBLP (every paper appears in one venue).
///
/// # Panics
///
/// Panics if `degree > dst_count`.
///
/// # Examples
///
/// ```
/// use gdr_hetgraph::gen::fixed_out_degree;
/// let g = fixed_out_degree("M->D", 100, 30, 1, 0.7, 3);
/// assert_eq!(g.edge_count(), 100);
/// assert!((0..100).all(|s| g.out_degree(s) == 1));
/// ```
pub fn fixed_out_degree(
    name: &str,
    src_count: usize,
    dst_count: usize,
    degree: usize,
    dst_alpha: f64,
    seed: u64,
) -> BipartiteGraph {
    assert!(
        degree <= dst_count,
        "fixed degree exceeds destination count"
    );
    let mut rng = SmallRng::seed_from_u64(seed);
    let sampler = ZipfSampler::new(dst_count, dst_alpha, &mut rng);
    let mut pairs = Vec::with_capacity(src_count * degree);
    let mut seen = Vec::with_capacity(degree);
    for s in 0..src_count as u32 {
        seen.clear();
        while seen.len() < degree {
            let d = sampler.sample(&mut rng);
            if !seen.contains(&d) {
                seen.push(d);
                pairs.push((s, d));
            }
        }
    }
    BipartiteGraph::from_pairs(name, src_count, dst_count, &pairs)
        .expect("sampled endpoints are in range by construction")
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn power_law_is_deterministic() {
        let c = PowerLawConfig::new(50, 40, 200)
            .src_alpha(0.9)
            .dst_alpha(0.9);
        let g1 = c.generate("g", 11);
        let g2 = c.generate("g", 11);
        assert_eq!(g1, g2);
        let g3 = c.generate("g", 12);
        assert_ne!(g1, g3);
    }

    #[test]
    fn power_law_skews_degrees() {
        let skewed = PowerLawConfig::new(2000, 2000, 20000)
            .dst_alpha(1.1)
            .generate("s", 3);
        let uniform = PowerLawConfig::new(2000, 2000, 20000).generate("u", 3);
        let max_skew = (0..2000).map(|d| skewed.in_degree(d)).max().unwrap();
        let max_uni = (0..2000).map(|d| uniform.in_degree(d)).max().unwrap();
        assert!(
            max_skew > 2 * max_uni,
            "zipf max in-degree {max_skew} should dominate uniform {max_uni}"
        );
    }

    #[test]
    fn dedup_removes_duplicates() {
        let g = PowerLawConfig::new(3, 3, 500).dedup(true).generate("d", 5);
        assert!(g.edge_count() <= 9);
        let mut edges: Vec<_> = g.iter_edges().collect();
        let before = edges.len();
        edges.dedup();
        assert_eq!(edges.len(), before);
    }

    #[test]
    fn fixed_out_degree_exact() {
        let g = fixed_out_degree("f", 40, 10, 3, 0.5, 9);
        assert_eq!(g.edge_count(), 120);
        for s in 0..40 {
            assert_eq!(g.out_degree(s), 3);
            // distinct destinations
            let n = g.out_neighbors(s);
            let mut v = n.to_vec();
            v.dedup();
            assert_eq!(v.len(), 3);
        }
    }

    #[test]
    #[should_panic(expected = "fixed degree exceeds")]
    fn fixed_out_degree_rejects_impossible() {
        let _ = fixed_out_degree("f", 4, 2, 3, 0.0, 0);
    }

    #[test]
    fn zero_edges_is_fine() {
        let g = PowerLawConfig::new(5, 5, 0).generate("z", 0);
        assert!(g.is_empty());
    }
}
