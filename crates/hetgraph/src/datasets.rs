//! Synthetic HGB-style datasets matching Table 2 of the paper.
//!
//! The paper evaluates on IMDB, ACM and DBLP from the HGB benchmark. This
//! module synthesizes graphs with **exactly** the per-type vertex counts,
//! feature dimensions and relation sets of Table 2, and edge counts that
//! match the published HGB statistics, using seeded power-law generators
//! (buffer-thrashing behaviour depends on these aggregate statistics, not
//! on exact edge identity).

use crate::error::Result;
use crate::gen::{fixed_out_degree, PowerLawConfig};
use crate::hetero::HeteroGraph;
use crate::ids::RelationId;
use crate::schema::Schema;

/// The three HetG datasets of the paper's evaluation (Table 2).
///
/// # Examples
///
/// ```
/// use gdr_hetgraph::datasets::Dataset;
/// let g = Dataset::Acm.build(42);
/// assert_eq!(g.name(), "ACM");
/// assert_eq!(g.schema().vertex_type_by_name("paper").map(|t| {
///     g.schema().vertex_type(t).unwrap().count()
/// }), Some(3025));
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub enum Dataset {
    /// IMDB: movies, directors, actors, keywords.
    Imdb,
    /// ACM: papers, authors, subjects, terms (with self citations).
    Acm,
    /// DBLP: authors, papers, terms, venues (largest; thrashes hardest).
    Dblp,
}

impl Dataset {
    /// All datasets in the paper's presentation order.
    pub const ALL: [Dataset; 3] = [Dataset::Acm, Dataset::Imdb, Dataset::Dblp];

    /// Dataset display name as used in the paper's figures.
    pub fn name(self) -> &'static str {
        match self {
            Dataset::Imdb => "IMDB",
            Dataset::Acm => "ACM",
            Dataset::Dblp => "DBLP",
        }
    }

    /// Builds the full-size dataset deterministically from `seed`.
    pub fn build(self, seed: u64) -> HeteroGraph {
        self.build_scaled(seed, 1.0)
    }

    /// Builds a size-scaled variant (vertex and edge counts multiplied by
    /// `scale`, minimum 1 vertex per type). `scale = 1.0` reproduces
    /// Table 2 exactly; small scales keep unit tests fast.
    ///
    /// # Panics
    ///
    /// Panics if `scale` is not finite and positive.
    pub fn build_scaled(self, seed: u64, scale: f64) -> HeteroGraph {
        assert!(scale.is_finite() && scale > 0.0, "scale must be positive");
        match self {
            Dataset::Imdb => build_imdb(seed, scale),
            Dataset::Acm => build_acm(seed, scale),
            Dataset::Dblp => build_dblp(seed, scale),
        }
        .expect("dataset construction uses validated static schemas")
    }
}

impl std::fmt::Display for Dataset {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(self.name())
    }
}

fn scaled(n: usize, scale: f64) -> usize {
    ((n as f64 * scale).round() as usize).max(1)
}

/// Adds `fwd` edges under relation `fwd_rel` and their mirrors under
/// `rev_rel`, mirroring how HGB datasets carry both relation directions.
fn add_bidirectional(
    g: &mut HeteroGraph,
    fwd_rel: RelationId,
    rev_rel: RelationId,
    pairs: &[(u32, u32)],
) -> Result<()> {
    g.add_edges(fwd_rel, pairs)?;
    let rev: Vec<(u32, u32)> = pairs.iter().map(|&(s, d)| (d, s)).collect();
    g.add_edges(rev_rel, &rev)?;
    Ok(())
}

fn build_imdb(seed: u64, sc: f64) -> Result<HeteroGraph> {
    let (n_m, n_d, n_a, n_k) = (
        scaled(4932, sc),
        scaled(2393, sc),
        scaled(6124, sc),
        scaled(7971, sc),
    );
    let mut schema = Schema::new();
    let m = schema.add_vertex_type("movie", n_m, 3489)?;
    let d = schema.add_vertex_type("director", n_d, 3341)?;
    let a = schema.add_vertex_type("actor", n_a, 3341)?;
    let k = schema.add_vertex_type("keyword", n_k, 0)?;
    let am = schema.add_relation("A->M", a, m)?;
    let ma = schema.add_relation("M->A", m, a)?;
    let km = schema.add_relation("K->M", k, m)?;
    let mk = schema.add_relation("M->K", m, k)?;
    let dm = schema.add_relation("D->M", d, m)?;
    let md = schema.add_relation("M->D", m, d)?;
    let mut g = HeteroGraph::new(schema).with_name("IMDB");

    // M->A: ~3 actors per movie, popular actors star more (HGB: 14,779).
    let m_a = PowerLawConfig::new(n_m, n_a, scaled(14_779, sc))
        .dst_alpha(0.85)
        .dedup(true)
        .generate("M->A", seed ^ 0x01);
    let pairs: Vec<_> = m_a
        .iter_edges()
        .map(|e| (e.src.raw(), e.dst.raw()))
        .collect();
    add_bidirectional(&mut g, ma, am, &pairs)?;

    // M->K: ~4.8 keywords per movie, keywords heavily skewed (HGB: 23,610).
    let m_k = PowerLawConfig::new(n_m, n_k, scaled(23_610, sc))
        .dst_alpha(1.0)
        .dedup(true)
        .generate("M->K", seed ^ 0x02);
    let pairs: Vec<_> = m_k
        .iter_edges()
        .map(|e| (e.src.raw(), e.dst.raw()))
        .collect();
    add_bidirectional(&mut g, mk, km, &pairs)?;

    // M->D: exactly one director per movie, prolific directors skewed.
    let m_d = fixed_out_degree("M->D", n_m, n_d, 1, 0.75, seed ^ 0x03);
    let pairs: Vec<_> = m_d
        .iter_edges()
        .map(|e| (e.src.raw(), e.dst.raw()))
        .collect();
    add_bidirectional(&mut g, md, dm, &pairs)?;

    Ok(g)
}

fn build_acm(seed: u64, sc: f64) -> Result<HeteroGraph> {
    let (n_p, n_a, n_s, n_t) = (
        scaled(3025, sc),
        scaled(5959, sc),
        scaled(56, sc),
        scaled(1902, sc),
    );
    let mut schema = Schema::new();
    let p = schema.add_vertex_type("paper", n_p, 1902)?;
    let a = schema.add_vertex_type("author", n_a, 1902)?;
    let s = schema.add_vertex_type("subject", n_s, 1902)?;
    let t = schema.add_vertex_type("term", n_t, 0)?;
    let tp = schema.add_relation("T->P", t, p)?;
    let pt = schema.add_relation("P->T", p, t)?;
    let sp = schema.add_relation("S->P", s, p)?;
    let ps = schema.add_relation("P->S", p, s)?;
    let pp = schema.add_relation("P->P", p, p)?;
    let pp_rev = schema.add_relation("-P->P", p, p)?;
    let ap = schema.add_relation("A->P", a, p)?;
    let pa = schema.add_relation("P->A", p, a)?;
    let mut g = HeteroGraph::new(schema).with_name("ACM");

    // P->T: dense bag-of-terms relation (HGB: 255,619 edges).
    let p_t = PowerLawConfig::new(n_p, n_t, scaled(255_619, sc))
        .dst_alpha(1.05)
        .dedup(true)
        .generate("P->T", seed ^ 0x11);
    let pairs: Vec<_> = p_t
        .iter_edges()
        .map(|e| (e.src.raw(), e.dst.raw()))
        .collect();
    add_bidirectional(&mut g, pt, tp, &pairs)?;

    // P->S: one subject per paper.
    let p_s = fixed_out_degree("P->S", n_p, n_s, 1, 0.6, seed ^ 0x12);
    let pairs: Vec<_> = p_s
        .iter_edges()
        .map(|e| (e.src.raw(), e.dst.raw()))
        .collect();
    add_bidirectional(&mut g, ps, sp, &pairs)?;

    // P->P: citations (HGB: 5,343), cited papers skewed.
    let p_p = PowerLawConfig::new(n_p, n_p, scaled(5_343, sc))
        .dst_alpha(0.9)
        .dedup(true)
        .generate("P->P", seed ^ 0x13);
    let pairs: Vec<_> = p_p
        .iter_edges()
        .map(|e| (e.src.raw(), e.dst.raw()))
        .collect();
    add_bidirectional(&mut g, pp, pp_rev, &pairs)?;

    // P->A: authorship (HGB: 9,949).
    let p_a = PowerLawConfig::new(n_p, n_a, scaled(9_949, sc))
        .dst_alpha(0.8)
        .dedup(true)
        .generate("P->A", seed ^ 0x14);
    let pairs: Vec<_> = p_a
        .iter_edges()
        .map(|e| (e.src.raw(), e.dst.raw()))
        .collect();
    add_bidirectional(&mut g, pa, ap, &pairs)?;

    Ok(g)
}

fn build_dblp(seed: u64, sc: f64) -> Result<HeteroGraph> {
    let (n_a, n_p, n_t, n_v) = (
        scaled(4057, sc),
        scaled(14_328, sc),
        scaled(7723, sc),
        scaled(20, sc),
    );
    let mut schema = Schema::new();
    let a = schema.add_vertex_type("author", n_a, 334)?;
    let p = schema.add_vertex_type("paper", n_p, 4231)?;
    let t = schema.add_vertex_type("term", n_t, 50)?;
    let v = schema.add_vertex_type("venue", n_v, 0)?;
    let ap = schema.add_relation("A->P", a, p)?;
    let pa = schema.add_relation("P->A", p, a)?;
    let vp = schema.add_relation("V->P", v, p)?;
    let pv = schema.add_relation("P->V", p, v)?;
    let tp = schema.add_relation("T->P", t, p)?;
    let pt = schema.add_relation("P->T", p, t)?;
    let mut g = HeteroGraph::new(schema).with_name("DBLP");

    // P->A: authorship (HGB: 19,645), prolific authors skewed.
    let p_a = PowerLawConfig::new(n_p, n_a, scaled(19_645, sc))
        .dst_alpha(0.9)
        .dedup(true)
        .generate("P->A", seed ^ 0x21);
    let pairs: Vec<_> = p_a
        .iter_edges()
        .map(|e| (e.src.raw(), e.dst.raw()))
        .collect();
    add_bidirectional(&mut g, pa, ap, &pairs)?;

    // P->V: one venue per paper, top venues publish most papers.
    let p_v = fixed_out_degree("P->V", n_p, n_v, 1, 0.5, seed ^ 0x22);
    let pairs: Vec<_> = p_v
        .iter_edges()
        .map(|e| (e.src.raw(), e.dst.raw()))
        .collect();
    add_bidirectional(&mut g, pv, vp, &pairs)?;

    // P->T: title terms (HGB: 85,810), stop-word-like skew.
    let p_t = PowerLawConfig::new(n_p, n_t, scaled(85_810, sc))
        .dst_alpha(1.05)
        .dedup(true)
        .generate("P->T", seed ^ 0x23);
    let pairs: Vec<_> = p_t
        .iter_edges()
        .map(|e| (e.src.raw(), e.dst.raw()))
        .collect();
    add_bidirectional(&mut g, pt, tp, &pairs)?;

    Ok(g)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn table2_vertex_counts_exact() {
        let imdb = Dataset::Imdb.build(1);
        let s = imdb.schema();
        let count = |n: &str| {
            s.vertex_type(s.vertex_type_by_name(n).unwrap())
                .unwrap()
                .count()
        };
        assert_eq!(count("movie"), 4932);
        assert_eq!(count("director"), 2393);
        assert_eq!(count("actor"), 6124);
        assert_eq!(count("keyword"), 7971);

        let acm = Dataset::Acm.build(1);
        let s = acm.schema();
        let count = |n: &str| {
            s.vertex_type(s.vertex_type_by_name(n).unwrap())
                .unwrap()
                .count()
        };
        assert_eq!(count("paper"), 3025);
        assert_eq!(count("author"), 5959);
        assert_eq!(count("subject"), 56);
        assert_eq!(count("term"), 1902);

        let dblp = Dataset::Dblp.build(1);
        let s = dblp.schema();
        let count = |n: &str| {
            s.vertex_type(s.vertex_type_by_name(n).unwrap())
                .unwrap()
                .count()
        };
        assert_eq!(count("author"), 4057);
        assert_eq!(count("paper"), 14328);
        assert_eq!(count("term"), 7723);
        assert_eq!(count("venue"), 20);
    }

    #[test]
    fn table2_feature_dims_exact() {
        let dblp = Dataset::Dblp.build(1);
        let s = dblp.schema();
        let dim = |n: &str| {
            s.vertex_type(s.vertex_type_by_name(n).unwrap())
                .unwrap()
                .feature_dim()
        };
        assert_eq!(dim("author"), 334);
        assert_eq!(dim("paper"), 4231);
        assert_eq!(dim("term"), 50);
        assert_eq!(dim("venue"), 0);
    }

    #[test]
    fn table2_relation_sets() {
        let names = |d: Dataset| -> Vec<String> {
            d.build_scaled(1, 0.02)
                .schema()
                .relations()
                .iter()
                .map(|r| r.name().to_string())
                .collect()
        };
        assert_eq!(
            names(Dataset::Imdb),
            vec!["A->M", "M->A", "K->M", "M->K", "D->M", "M->D"]
        );
        assert_eq!(
            names(Dataset::Acm),
            vec!["T->P", "P->T", "S->P", "P->S", "P->P", "-P->P", "A->P", "P->A"]
        );
        assert_eq!(
            names(Dataset::Dblp),
            vec!["A->P", "P->A", "V->P", "P->V", "T->P", "P->T"]
        );
    }

    #[test]
    fn forward_and_reverse_relations_mirror() {
        let g = Dataset::Dblp.build_scaled(3, 0.05);
        let s = g.schema();
        let pa = s.relation_by_name("P->A").unwrap();
        let ap = s.relation_by_name("A->P").unwrap();
        let fwd = g.semantic_graph(pa).unwrap();
        let rev = g.semantic_graph(ap).unwrap();
        assert_eq!(fwd.edge_count(), rev.edge_count());
        for e in fwd.iter_edges().take(100) {
            assert!(rev.out_csr().contains(e.dst.raw(), e.src.raw()));
        }
    }

    #[test]
    fn deterministic_in_seed() {
        let a = Dataset::Imdb.build_scaled(9, 0.05);
        let b = Dataset::Imdb.build_scaled(9, 0.05);
        assert_eq!(a, b);
        let c = Dataset::Imdb.build_scaled(10, 0.05);
        assert_ne!(a, c);
    }

    #[test]
    fn dblp_is_largest() {
        let sizes: Vec<usize> = Dataset::ALL
            .iter()
            .map(|d| d.build_scaled(1, 0.05).schema().total_vertices())
            .collect();
        // presentation order: ACM, IMDB, DBLP
        assert!(sizes[2] > sizes[1] && sizes[1] > sizes[0]);
    }

    #[test]
    #[should_panic(expected = "scale must be positive")]
    fn rejects_bad_scale() {
        let _ = Dataset::Acm.build_scaled(1, 0.0);
    }
}
