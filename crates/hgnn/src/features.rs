//! Deterministic synthetic feature tables.
//!
//! Real HGB node features are replaced by seeded pseudo-random tables with
//! the exact dimensionalities of Table 2 (the evaluation measures data
//! movement and compute, never accuracy, so feature *values* only need to
//! be deterministic and well-scaled).

use crate::tensor::Matrix;

/// Generates the raw feature table of one vertex type: `count × dim`,
/// entries in `[-1, 1]`, fully determined by `(seed, type_tag)`.
///
/// A featureless type (`dim == 0`) yields a `count × 0` matrix; feature
/// projection substitutes a learned embedding for it (see
/// [`crate::reference::HgnnReference`]).
///
/// # Examples
///
/// ```
/// use gdr_hgnn::features::raw_features;
/// let f = raw_features(10, 16, 42, 0);
/// assert_eq!((f.rows(), f.cols()), (10, 16));
/// assert_eq!(f, raw_features(10, 16, 42, 0));
/// ```
pub fn raw_features(count: usize, dim: usize, seed: u64, type_tag: u64) -> Matrix {
    if dim == 0 {
        return Matrix::zeros(count, 0);
    }
    Matrix::random(count, dim, 1.0, seed ^ type_tag.wrapping_mul(0x9E37_79B9))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn deterministic_per_type() {
        let a = raw_features(5, 8, 1, 0);
        let b = raw_features(5, 8, 1, 1);
        assert_ne!(a, b, "type tags must decorrelate tables");
        assert_eq!(a, raw_features(5, 8, 1, 0));
    }

    #[test]
    fn featureless_types_are_empty() {
        let f = raw_features(7, 0, 1, 2);
        assert_eq!((f.rows(), f.cols()), (7, 0));
    }

    #[test]
    fn values_bounded() {
        let f = raw_features(20, 20, 3, 3);
        assert!(f.data().iter().all(|&x| x.abs() <= 1.0));
    }
}
