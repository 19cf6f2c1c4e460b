//! Compressed DBB vectors and matrices.

use crate::{DbbBlock, DbbConfig, DbbError};
use s2ta_tensor::Matrix;

/// A reduction vector compressed as a sequence of DBB blocks.
///
/// The final block is zero-padded when the vector length is not a multiple
/// of `BZ` (the hardware reads a whole block regardless).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct DbbVector {
    blocks: Vec<DbbBlock>,
    len: usize,
    config: DbbConfig,
}

impl DbbVector {
    /// Compresses a dense reduction vector.
    ///
    /// # Errors
    ///
    /// Returns [`DbbError::BoundExceeded`] naming the first offending
    /// block if any block has more than `config.nnz()` non-zeros.
    ///
    /// # Panics
    ///
    /// Panics if `data` is empty.
    pub fn compress(data: &[i8], config: DbbConfig) -> Result<Self, DbbError> {
        assert!(!data.is_empty(), "cannot compress an empty vector");
        let blocks = data
            .chunks(config.bz())
            .enumerate()
            .map(|(bi, chunk)| {
                DbbBlock::pack(chunk, config).map_err(|e| match e {
                    DbbError::BoundExceeded { found, bound, .. } => {
                        DbbError::BoundExceeded { block: bi, found, bound }
                    }
                })
            })
            .collect::<Result<Vec<_>, _>>()?;
        Ok(Self::from_blocks(blocks, data.len(), config))
    }

    /// Wraps already-compressed blocks covering a `len`-element vector.
    pub(crate) fn from_blocks(blocks: Vec<DbbBlock>, len: usize, config: DbbConfig) -> Self {
        debug_assert_eq!(blocks.len(), len.div_ceil(config.bz()));
        Self { blocks, len, config }
    }

    /// The compressed blocks, in reduction order.
    pub fn blocks(&self) -> &[DbbBlock] {
        &self.blocks
    }

    /// Length of the original (expanded) vector.
    pub fn len(&self) -> usize {
        self.len
    }

    /// Whether the original vector was empty (never — compression rejects it).
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    /// The configuration all blocks share.
    pub fn config(&self) -> DbbConfig {
        self.config
    }

    /// Expands back to the dense vector (original length, padding dropped).
    pub fn decompress(&self) -> Vec<i8> {
        let mut out = vec![0i8; self.len];
        self.decompress_into(&mut out);
        out
    }

    /// Expands into `out` (zeroed, exactly `len` elements).
    fn decompress_into(&self, out: &mut [i8]) {
        for (block, chunk) in self.blocks.iter().zip(out.chunks_mut(self.config.bz())) {
            block.scatter_into(chunk);
        }
    }

    /// Total compressed storage in bytes (values + masks).
    pub fn storage_bytes(&self) -> usize {
        self.blocks.len() * self.config.block_bytes()
    }

    /// Total non-zeros actually stored.
    pub fn nnz(&self) -> usize {
        self.blocks.iter().map(|b| b.nnz()).sum()
    }
}

/// How a matrix maps to reduction vectors for DBB blocking.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum BlockAxis {
    /// Each row is a reduction vector (weight matrices: `M x K`).
    Rows,
    /// Each column is a reduction vector (im2col activations: `K x N`).
    Cols,
}

/// A matrix whose reduction vectors are DBB-compressed.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct DbbMatrix {
    vectors: Vec<DbbVector>,
    axis: BlockAxis,
    rows: usize,
    cols: usize,
    config: DbbConfig,
}

/// The row-major `cols x rows` transpose of `m`, copied in square tiles
/// so both the reads and the writes stay within a few cache lines.
fn transpose(m: &Matrix) -> Vec<i8> {
    const TILE: usize = 32;
    let (rows, cols) = (m.rows(), m.cols());
    let mut t = vec![0i8; rows * cols];
    for r0 in (0..rows).step_by(TILE) {
        for c0 in (0..cols).step_by(TILE) {
            for r in r0..(r0 + TILE).min(rows) {
                let row = &m.row(r)[c0..(c0 + TILE).min(cols)];
                for (c, &v) in (c0..).zip(row) {
                    t[c * rows + r] = v;
                }
            }
        }
    }
    t
}

impl DbbMatrix {
    /// Compresses `m` along `axis`. Column blocking transposes `m` once
    /// and compresses the rows of the transpose.
    ///
    /// # Errors
    ///
    /// Returns the first DBB bound violation encountered.
    pub fn compress(m: &Matrix, axis: BlockAxis, config: DbbConfig) -> Result<Self, DbbError> {
        let compress_rows = |data: &[i8], len: usize| {
            data.chunks(len).map(|v| DbbVector::compress(v, config)).collect::<Result<Vec<_>, _>>()
        };
        let vectors = match axis {
            BlockAxis::Rows => compress_rows(m.data(), m.cols())?,
            BlockAxis::Cols => compress_rows(&transpose(m), m.rows())?,
        };
        Ok(Self::from_vectors(vectors, axis, m.rows(), m.cols(), config))
    }

    /// Wraps already-compressed reduction vectors of a `rows x cols`
    /// matrix.
    pub(crate) fn from_vectors(
        vectors: Vec<DbbVector>,
        axis: BlockAxis,
        rows: usize,
        cols: usize,
        config: DbbConfig,
    ) -> Self {
        debug_assert_eq!(
            vectors.len(),
            match axis {
                BlockAxis::Rows => rows,
                BlockAxis::Cols => cols,
            }
        );
        Self { vectors, axis, rows, cols, config }
    }

    /// The compressed reduction vectors (rows or columns, per `axis`).
    pub fn vectors(&self) -> &[DbbVector] {
        &self.vectors
    }

    /// Blocking orientation.
    pub fn axis(&self) -> BlockAxis {
        self.axis
    }

    /// The shared configuration.
    pub fn config(&self) -> DbbConfig {
        self.config
    }

    /// Original matrix shape `(rows, cols)`.
    pub fn shape(&self) -> (usize, usize) {
        (self.rows, self.cols)
    }

    /// Expands back to the dense matrix.
    pub fn decompress(&self) -> Matrix {
        let mut m = Matrix::zeros(self.rows, self.cols);
        match self.axis {
            BlockAxis::Rows => {
                for (v, row) in self.vectors.iter().zip(m.data_mut().chunks_mut(self.cols)) {
                    v.decompress_into(row);
                }
            }
            BlockAxis::Cols => {
                for (c, v) in self.vectors.iter().enumerate() {
                    for (r, val) in v.decompress().into_iter().enumerate() {
                        m.set(r, c, val);
                    }
                }
            }
        }
        m
    }

    /// Total compressed storage in bytes.
    pub fn storage_bytes(&self) -> usize {
        self.vectors.iter().map(DbbVector::storage_bytes).sum()
    }

    /// Dense storage the compression replaces, in bytes.
    pub fn dense_bytes(&self) -> usize {
        self.rows * self.cols
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;
    use s2ta_tensor::sparsity::SparseSpec;

    #[test]
    fn vector_roundtrip_with_tail_padding() {
        let cfg = DbbConfig::new(4, 8);
        let data: Vec<i8> = vec![1, 0, 0, 2, 0, 0, 0, 3, 4, 0, 5]; // len 11
        let v = DbbVector::compress(&data, cfg).unwrap();
        assert_eq!(v.blocks().len(), 2);
        assert_eq!(v.decompress(), data);
        assert_eq!(v.nnz(), 5);
        assert_eq!(v.storage_bytes(), 10);
    }

    #[test]
    fn vector_violation_names_block() {
        let cfg = DbbConfig::new(2, 8);
        let mut data = vec![0i8; 16];
        data[8..12].copy_from_slice(&[1, 2, 3, 0]);
        let err = DbbVector::compress(&data, cfg).unwrap_err();
        assert_eq!(err, DbbError::BoundExceeded { block: 1, found: 3, bound: 2 });
    }

    #[test]
    fn matrix_roundtrip_both_axes() {
        let mut rng = rand::rngs::mock::StepRng::new(12345, 98765);
        let m = SparseSpec::random(0.6).matrix(12, 20, &mut rng);
        let cfg = DbbConfig::dense(8); // dense bound always satisfiable
        for axis in [BlockAxis::Rows, BlockAxis::Cols] {
            let dm = DbbMatrix::compress(&m, axis, cfg).unwrap();
            assert_eq!(dm.decompress(), m);
            assert_eq!(dm.shape(), (12, 20));
        }
    }

    #[test]
    fn column_blocking_names_the_offending_block_of_its_column() {
        // Column 1 of a 16 x 3 matrix holds three non-zeros in its
        // second block; the transpose must not shift that block index.
        let mut m = Matrix::zeros(16, 3);
        for r in [9, 10, 12] {
            m.set(r, 1, 7);
        }
        let err = DbbMatrix::compress(&m, BlockAxis::Cols, DbbConfig::new(2, 8)).unwrap_err();
        assert_eq!(err, DbbError::BoundExceeded { block: 1, found: 3, bound: 2 });
    }

    #[test]
    fn transpose_crosses_tile_edges() {
        let data: Vec<i8> = (0..37 * 70).map(|i| (i % 251) as i8).collect();
        let m = Matrix::from_vec(37, 70, data);
        let t = transpose(&m);
        for r in 0..37 {
            for c in 0..70 {
                assert_eq!(t[c * 37 + r], m.get(r, c));
            }
        }
    }

    #[test]
    fn compression_saves_bytes() {
        // 4/8-satisfying matrix: alternate zero / non-zero.
        let data: Vec<i8> = (0..64).map(|i| if i % 2 == 0 { 0 } else { 1 }).collect();
        let m = Matrix::from_vec(8, 8, data);
        let dm = DbbMatrix::compress(&m, BlockAxis::Rows, DbbConfig::new(4, 8)).unwrap();
        assert_eq!(dm.storage_bytes(), 8 * 5);
        assert_eq!(dm.dense_bytes(), 64);
    }

    proptest! {
        #[test]
        fn prop_vector_roundtrip_dense_bound(data in prop::collection::vec(any::<i8>(), 1..120)) {
            // With the dense bound every vector compresses and round-trips.
            let v = DbbVector::compress(&data, DbbConfig::dense(8)).unwrap();
            prop_assert_eq!(v.decompress(), data);
        }

        #[test]
        fn prop_storage_never_exceeds_dense_plus_mask(
            data in prop::collection::vec(any::<i8>(), 1..120),
            nnz in 1usize..8,
        ) {
            let cfg = DbbConfig::new(nnz, 8);
            if let Ok(v) = DbbVector::compress(&data, cfg) {
                let blocks = data.len().div_ceil(8);
                prop_assert_eq!(v.storage_bytes(), blocks * (nnz + 1));
                prop_assert!(v.nnz() <= blocks * nnz);
            }
        }
    }
}
