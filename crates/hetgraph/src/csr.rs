//! Compressed sparse row adjacency storage.
//!
//! [`Csr`] is the workhorse adjacency structure used by every simulator in
//! the workspace: semantic graphs keep one `Csr` per direction, and the
//! hardware models walk it the same way an accelerator's edge engine walks
//! an adjacency list in DRAM.

use crate::error::{GraphError, Result};
use crate::ids::Edge;

/// Compressed sparse row adjacency: `offsets.len() == rows + 1`, and the
/// neighbors of row `r` are `cols[offsets[r]..offsets[r+1]]`.
///
/// # Examples
///
/// ```
/// use gdr_hetgraph::Csr;
/// // 3 rows; row 0 -> {1, 2}, row 1 -> {}, row 2 -> {0}
/// let csr = Csr::from_pairs(3, 3, &[(0, 1), (0, 2), (2, 0)])?;
/// assert_eq!(csr.degree(0), 2);
/// assert_eq!(csr.neighbors(2), &[0]);
/// # Ok::<(), gdr_hetgraph::GraphError>(())
/// ```
#[derive(Debug, Clone, PartialEq, Eq, Default)]
pub struct Csr {
    rows: usize,
    cols_len: usize,
    offsets: Vec<u32>,
    cols: Vec<u32>,
}

impl Csr {
    /// Builds a CSR from `(row, col)` pairs.
    ///
    /// Pairs may arrive in any order; neighbors of each row are stored in
    /// ascending column order. Duplicate pairs are preserved (multi-edges
    /// are legal in semantic graphs composed from metapaths).
    ///
    /// # Errors
    ///
    /// Returns [`GraphError::VertexOutOfRange`] if any endpoint exceeds
    /// `rows`/`cols`.
    pub fn from_pairs(rows: usize, cols: usize, pairs: &[(u32, u32)]) -> Result<Self> {
        for &(r, c) in pairs {
            if r as usize >= rows {
                return Err(GraphError::VertexOutOfRange {
                    what: "source",
                    index: r as usize,
                    len: rows,
                });
            }
            if c as usize >= cols {
                return Err(GraphError::VertexOutOfRange {
                    what: "destination",
                    index: c as usize,
                    len: cols,
                });
            }
        }
        // Counting sort by row, then sort each row's slice by column.
        let mut counts = vec![0u32; rows + 1];
        for &(r, _) in pairs {
            counts[r as usize + 1] += 1;
        }
        for i in 0..rows {
            counts[i + 1] += counts[i];
        }
        let offsets = counts.clone();
        let mut cursor = counts;
        let mut col_store = vec![0u32; pairs.len()];
        for &(r, c) in pairs {
            let at = cursor[r as usize] as usize;
            col_store[at] = c;
            cursor[r as usize] += 1;
        }
        for r in 0..rows {
            let (a, b) = (offsets[r] as usize, offsets[r + 1] as usize);
            col_store[a..b].sort_unstable();
        }
        Ok(Self {
            rows,
            cols_len: cols,
            offsets,
            cols: col_store,
        })
    }

    /// Number of rows (source-side vertices).
    pub fn rows(&self) -> usize {
        self.rows
    }

    /// Size of the column id space (destination-side vertices).
    pub fn cols(&self) -> usize {
        self.cols_len
    }

    /// Total number of stored edges.
    pub fn edge_count(&self) -> usize {
        self.cols.len()
    }

    /// Out-degree of row `r`.
    ///
    /// # Panics
    ///
    /// Panics if `r >= self.rows()`.
    pub fn degree(&self, r: usize) -> usize {
        (self.offsets[r + 1] - self.offsets[r]) as usize
    }

    /// Neighbor slice of row `r`, in ascending column order.
    ///
    /// # Panics
    ///
    /// Panics if `r >= self.rows()`.
    pub fn neighbors(&self, r: usize) -> &[u32] {
        &self.cols[self.offsets[r] as usize..self.offsets[r + 1] as usize]
    }

    /// Raw offsets array (length `rows + 1`).
    pub fn offsets(&self) -> &[u32] {
        &self.offsets
    }

    /// Raw column array.
    pub fn col_indices(&self) -> &[u32] {
        &self.cols
    }

    /// Iterates all edges as `(row, col)` pairs in row-major order.
    pub fn iter_pairs(&self) -> impl Iterator<Item = (u32, u32)> + '_ {
        (0..self.rows).flat_map(move |r| self.neighbors(r).iter().map(move |&c| (r as u32, c)))
    }

    /// Iterates all edges as [`Edge`] values in row-major order.
    pub fn iter_edges(&self) -> impl Iterator<Item = Edge> + '_ {
        self.iter_pairs().map(|(r, c)| Edge::new(r, c))
    }

    /// Empties this CSR into `rows` rows over `cols` columns, keeping its
    /// storage, for a refill in row order: each row's columns are
    /// appended with [`Csr::push_col`] or [`Csr::extend_cols`], then
    /// [`Csr::end_row`] closes it. The caller closes every row, keeps each
    /// row ascending and every column below `cols`.
    pub(crate) fn clear_rows(&mut self, rows: usize, cols: usize) {
        self.rows = rows;
        self.cols_len = cols;
        self.offsets.clear();
        self.offsets.resize(rows + 1, 0);
        self.cols.clear();
    }

    /// Appends `c` to the row being refilled.
    pub(crate) fn push_col(&mut self, c: u32) {
        self.cols.push(c);
    }

    /// Appends a run of columns to the row being refilled.
    pub(crate) fn extend_cols(&mut self, cols: &[u32]) {
        self.cols.extend_from_slice(cols);
    }

    /// Closes row `r`: it holds every column appended since row `r - 1`
    /// was closed.
    pub(crate) fn end_row(&mut self, r: usize) {
        self.offsets[r + 1] = self.cols.len() as u32;
    }

    /// Returns the transpose (column-major adjacency) of this CSR.
    ///
    /// # Examples
    ///
    /// ```
    /// use gdr_hetgraph::Csr;
    /// let csr = Csr::from_pairs(2, 3, &[(0, 2), (1, 2), (1, 0)])?;
    /// let t = csr.transpose();
    /// assert_eq!(t.neighbors(2), &[0, 1]);
    /// # Ok::<(), gdr_hetgraph::GraphError>(())
    /// ```
    pub fn transpose(&self) -> Csr {
        let pairs: Vec<(u32, u32)> = self.iter_pairs().map(|(r, c)| (c, r)).collect();
        Csr::from_pairs(self.cols_len, self.rows, &pairs)
            .expect("transposed pairs are in range by construction")
    }

    /// Returns `true` if the edge `(r, c)` is present.
    pub fn contains(&self, r: u32, c: u32) -> bool {
        (r as usize) < self.rows && self.neighbors(r as usize).binary_search(&c).is_ok()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample() -> Csr {
        Csr::from_pairs(4, 3, &[(0, 1), (0, 0), (2, 2), (2, 1), (2, 0), (3, 1)]).unwrap()
    }

    #[test]
    fn builds_and_sorts_neighbors() {
        let c = sample();
        assert_eq!(c.rows(), 4);
        assert_eq!(c.cols(), 3);
        assert_eq!(c.edge_count(), 6);
        assert_eq!(c.neighbors(0), &[0, 1]);
        assert_eq!(c.neighbors(1), &[] as &[u32]);
        assert_eq!(c.neighbors(2), &[0, 1, 2]);
        assert_eq!(c.degree(3), 1);
    }

    #[test]
    fn rejects_out_of_range() {
        let err = Csr::from_pairs(2, 2, &[(2, 0)]).unwrap_err();
        assert!(matches!(
            err,
            GraphError::VertexOutOfRange { what: "source", .. }
        ));
        let err = Csr::from_pairs(2, 2, &[(0, 5)]).unwrap_err();
        assert!(matches!(
            err,
            GraphError::VertexOutOfRange {
                what: "destination",
                ..
            }
        ));
    }

    #[test]
    fn transpose_roundtrip() {
        let c = sample();
        let t = c.transpose();
        assert_eq!(t.rows(), 3);
        assert_eq!(t.cols(), 4);
        assert_eq!(t.edge_count(), c.edge_count());
        assert_eq!(t.transpose(), c);
    }

    #[test]
    fn contains_and_iterators() {
        let c = sample();
        assert!(c.contains(2, 1));
        assert!(!c.contains(1, 1));
        assert!(!c.contains(99, 0));
        let pairs: Vec<_> = c.iter_pairs().collect();
        assert_eq!(pairs.len(), 6);
        assert_eq!(pairs[0], (0, 0));
        let edges: Vec<_> = c.iter_edges().collect();
        assert_eq!(edges[5], Edge::new(3, 1));
    }

    #[test]
    fn rebuild_matches_from_pairs_and_reuses_storage() {
        // Refill `csr` row by row from another CSR's rows.
        fn refill(csr: &mut Csr, from: &Csr) {
            csr.clear_rows(from.rows(), from.cols());
            for r in 0..from.rows() {
                for &c in from.neighbors(r) {
                    csr.push_col(c);
                }
                csr.end_row(r);
            }
        }
        let mut csr = sample();
        // shrink, grow and transpose through the same storage
        let small = Csr::from_pairs(2, 2, &[(0, 1), (1, 0)]).unwrap();
        refill(&mut csr, &small);
        assert_eq!(csr, small);
        let cap = csr.cols.capacity();
        refill(&mut csr, &sample().transpose());
        assert_eq!(csr, sample().transpose());
        assert_eq!(csr.cols.capacity(), cap, "refill reuses the column storage");
        // whole rows copy the same way
        csr.clear_rows(4, 3);
        for r in 0..4 {
            csr.extend_cols(sample().neighbors(r));
            csr.end_row(r);
        }
        assert_eq!(csr, sample());
        // and a refill of empty rows is the edgeless CSR of that shape
        csr.clear_rows(3, 5);
        (0..3).for_each(|r| csr.end_row(r));
        assert_eq!(csr, Csr::from_pairs(3, 5, &[]).unwrap());
    }

    #[test]
    fn empty_and_duplicate_edges() {
        let empty = Csr::from_pairs(0, 0, &[]).unwrap();
        assert_eq!(empty.edge_count(), 0);
        let dup = Csr::from_pairs(1, 1, &[(0, 0), (0, 0)]).unwrap();
        assert_eq!(dup.edge_count(), 2);
        assert_eq!(dup.neighbors(0), &[0, 0]);
    }
}
