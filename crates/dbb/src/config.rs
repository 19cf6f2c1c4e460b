//! DBB configuration: the `NNZ/BZ` density bound.

use std::error::Error;
use std::fmt;

/// Maximum supported block size (mask fits a `u16`).
pub const MAX_BZ: usize = 16;

/// A Density Bound Block configuration: at most `nnz` non-zeros per block
/// of `bz` elements, written `NNZ/BZ` (the paper's notation, e.g. `4/8`).
///
/// `nnz == bz` is the dense configuration (the paper's "8/8" fall-back for
/// unpruned layers).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct DbbConfig {
    // Bytes, not `usize`s: both are at most `MAX_BZ`, and every
    // compressed block carries a copy.
    nnz: u8,
    bz: u8,
}

impl DbbConfig {
    /// Creates an `nnz/bz` configuration.
    ///
    /// # Panics
    ///
    /// Panics if `nnz == 0`, `nnz > bz`, or `bz > 16`.
    pub fn new(nnz: usize, bz: usize) -> Self {
        assert!(nnz > 0, "NNZ must be positive");
        assert!(nnz <= bz, "NNZ {nnz} exceeds block size {bz}");
        assert!(bz <= MAX_BZ, "block size {bz} exceeds max {MAX_BZ}");
        Self { nnz: nnz as u8, bz: bz as u8 }
    }

    /// The paper's default weight configuration, 4/8 (Sec. 8.1: "4/8 DBB
    /// density level is a good compromise").
    pub fn w_default() -> Self {
        Self::new(4, 8)
    }

    /// Dense `bz/bz` configuration.
    pub fn dense(bz: usize) -> Self {
        Self::new(bz, bz)
    }

    /// Maximum non-zeros per block.
    pub fn nnz(&self) -> usize {
        self.nnz as usize
    }

    /// Block size.
    pub fn bz(&self) -> usize {
        self.bz as usize
    }

    /// Whether this is the dense (no-bound) configuration.
    pub fn is_dense(&self) -> bool {
        self.nnz == self.bz
    }

    /// Density as a fraction: `nnz / bz`.
    pub fn density(&self) -> f64 {
        self.nnz() as f64 / self.bz() as f64
    }

    /// Sparsity bound as a fraction: `1 - nnz/bz`.
    pub fn sparsity(&self) -> f64 {
        1.0 - self.density()
    }

    /// Bytes to store one compressed block: `nnz` value bytes plus
    /// `ceil(bz / 8)` mask bytes. Dense blocks store no mask.
    pub fn block_bytes(&self) -> usize {
        if self.is_dense() {
            self.bz()
        } else {
            self.nnz() + self.bz().div_ceil(8)
        }
    }

    /// Compression ratio versus dense storage (e.g. 4/8 -> 8/5 = 1.6x).
    pub fn compression_ratio(&self) -> f64 {
        self.bz() as f64 / self.block_bytes() as f64
    }
}

impl fmt::Display for DbbConfig {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}/{}", self.nnz, self.bz)
    }
}

/// Errors produced when data violates a DBB bound.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum DbbError {
    /// A block contained more non-zeros than the configured bound allows.
    BoundExceeded {
        /// Index of the offending block.
        block: usize,
        /// Non-zeros found in the block.
        found: usize,
        /// The configured bound.
        bound: usize,
    },
}

impl fmt::Display for DbbError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            DbbError::BoundExceeded { block, found, bound } => {
                write!(f, "block {block} has {found} non-zeros, exceeding the DBB bound of {bound}")
            }
        }
    }
}

impl Error for DbbError {}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn ratio_display() {
        assert_eq!(DbbConfig::new(4, 8).to_string(), "4/8");
        assert_eq!(DbbConfig::dense(8).to_string(), "8/8");
    }

    #[test]
    fn storage_accounting() {
        // 4/8: 4 values + 1 mask byte = 5 bytes; dense: 8 bytes, no mask.
        assert_eq!(DbbConfig::new(4, 8).block_bytes(), 5);
        assert_eq!(DbbConfig::dense(8).block_bytes(), 8);
        assert_eq!(DbbConfig::new(2, 16).block_bytes(), 4);
        // 4/8 weight bandwidth reduction: 37.5% (paper Sec. 4).
        let reduction = 1.0 - 5.0 / 8.0;
        assert!((DbbConfig::new(4, 8).compression_ratio() - 1.0 / (1.0 - reduction)).abs() < 1e-12);
    }

    #[test]
    fn density_and_sparsity() {
        let c = DbbConfig::new(2, 8);
        assert!((c.density() - 0.25).abs() < 1e-12);
        assert!((c.sparsity() - 0.75).abs() < 1e-12);
        assert!(!c.is_dense());
        assert!(DbbConfig::dense(4).is_dense());
    }

    #[test]
    #[should_panic(expected = "exceeds block size")]
    fn nnz_bounded_by_bz() {
        let _ = DbbConfig::new(9, 8);
    }

    #[test]
    fn error_display() {
        let e = DbbError::BoundExceeded { block: 3, found: 6, bound: 4 };
        assert!(e.to_string().contains("block 3"));
    }
}
