//! Sparsity statistics and deterministic synthetic sparse data generation.
//!
//! The paper's microbenchmarks (Sec. 8.2) sweep weight/activation sparsity
//! on synthetic layers; full-model runs use per-layer activation sparsity
//! profiles. Both need reproducible sparse tensors with controlled zero
//! fractions — random (unstructured) zeros for the baselines, and
//! DBB-prunable distributions for S2TA (the DBB pruning itself lives in
//! `s2ta-dbb`).

use crate::{Matrix, Tensor4};
use rand::Rng;

/// A specification for generating synthetic sparse INT8 data.
///
/// Values are drawn uniformly from `[-127, 127] \ {0}` and then zeroed
/// independently with probability `sparsity` (unstructured/random sparsity,
/// as produced by ReLU activations and unstructured pruning).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct SparseSpec {
    sparsity: f64,
}

impl SparseSpec {
    /// Random (unstructured) sparsity with the given zero fraction.
    ///
    /// # Panics
    ///
    /// Panics unless `0.0 <= sparsity <= 1.0`.
    pub fn random(sparsity: f64) -> Self {
        assert!((0.0..=1.0).contains(&sparsity), "sparsity must be in [0,1], got {sparsity}");
        Self { sparsity }
    }

    /// Fully dense data (no zeros).
    pub fn dense() -> Self {
        Self::random(0.0)
    }

    /// The configured zero fraction.
    pub fn sparsity(&self) -> f64 {
        self.sparsity
    }

    /// Generates a tensor with this sparsity.
    pub fn tensor<R: Rng + Clone>(&self, dims: [usize; 4], rng: &mut R) -> Tensor4 {
        let len = dims.iter().product();
        Tensor4::from_vec(dims, self.values(len, rng))
    }

    /// Generates a matrix with this sparsity.
    pub fn matrix<R: Rng + Clone>(&self, rows: usize, cols: usize, rng: &mut R) -> Matrix {
        Matrix::from_vec(rows, cols, self.values(rows * cols, rng))
    }

    /// Generates a matrix with this sparsity into recycled storage:
    /// `buf` (typically a previous matrix's
    /// [`Matrix::into_data`]) backs the result, so a warm buffer of
    /// sufficient capacity makes the generation allocation-free. Draw
    /// order is identical to [`SparseSpec::matrix`], so the same RNG
    /// state yields a bit-identical matrix.
    pub fn matrix_into<R: Rng + Clone>(
        &self,
        rows: usize,
        cols: usize,
        rng: &mut R,
        mut buf: Vec<i8>,
    ) -> Matrix {
        buf.clear();
        self.values_into(rows * cols, rng, &mut buf);
        Matrix::from_vec(rows, cols, buf)
    }

    fn values<R: Rng + Clone>(&self, len: usize, rng: &mut R) -> Vec<i8> {
        let mut out = Vec::with_capacity(len);
        self.values_into(len, rng, &mut out);
        out
    }

    /// Appends `len` values, drawing exactly what one `gen_bool(sparsity)`
    /// per element plus, for a non-zero, `Uniform::new_inclusive(-127,
    /// 127)` samples until one is non-zero would draw (a zero re-draws,
    /// so the realized sparsity tracks the spec) — the same stream and
    /// the same values, with integer arithmetic only:
    ///
    /// * `gen_bool(p)` is `(bits >> 11) * 2^-53 < p`; scaling both sides
    ///   by `2^53` is exact, so it is the integer test
    ///   `(bits >> 11) < ceil(p * 2^53)`.
    /// * The uniform draw over 255 values rejects `bits >= zone` and maps
    ///   the rest to `bits % 255 - 127`; a zero (`bits % 255 == 127`)
    ///   re-draws too. Only such a rejection (about 1 draw in 255) takes
    ///   the re-draw loop.
    /// * Each element computes both successor generator states — past
    ///   the decision draw, and past the value draw too — and keeps one.
    ///   The compiler is left to pick branch or select: on x86-64 a
    ///   forced select (`std::hint::select_unpredictable`) measured
    ///   slower, since the choice then waits on the decision draw's
    ///   output multiply.
    fn values_into<R: Rng + Clone>(&self, len: usize, rng: &mut R, out: &mut Vec<i8>) {
        const SPAN: u64 = 255;
        let zone = (u64::MAX / SPAN) * SPAN;
        let zero_below = (self.sparsity * (1u64 << 53) as f64).ceil() as u64;
        let accept = |bits: u64| bits < zone && bits % SPAN != 127;
        out.extend((0..len).map(|_| {
            let zero = (rng.next_u64() >> 11) < zero_below;
            let mut drawn = rng.clone();
            let mut bits = drawn.next_u64();
            if !zero && !accept(bits) {
                bits = loop {
                    let b = drawn.next_u64();
                    if accept(b) {
                        break b;
                    }
                };
            }
            if zero {
                0
            } else {
                *rng = drawn;
                ((bits % SPAN) as i16 - 127) as i8
            }
        }));
    }
}

/// Density statistics of a channel-blocked tensor: for each block of `bz`
/// consecutive reduction elements, how many are non-zero.
///
/// This is the quantity DBB bounds; the histogram drives the analytic
/// cycle model for time-unrolled execution (cycles per block = NNZ).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct BlockDensity {
    /// `histogram[i]` = number of blocks with exactly `i` non-zeros.
    pub histogram: Vec<u64>,
    /// Block size the histogram was computed for.
    pub bz: usize,
}

impl BlockDensity {
    /// Computes the per-block non-zero histogram of a matrix whose rows are
    /// reduction vectors (length padded up to a multiple of `bz` with
    /// zeros, matching the hardware's zero-padded final block).
    ///
    /// # Panics
    ///
    /// Panics if `bz == 0`.
    pub fn of_rows(m: &Matrix, bz: usize) -> Self {
        assert!(bz > 0, "block size must be non-zero");
        let mut histogram = vec![0u64; bz + 1];
        for r in 0..m.rows() {
            let row = m.row(r);
            for chunk in row.chunks(bz) {
                let nnz = chunk.iter().filter(|&&v| v != 0).count();
                histogram[nnz] += 1;
            }
        }
        Self { histogram, bz }
    }

    /// Computes the histogram over columns (each column is a reduction
    /// vector), the orientation of im2col activation matrices.
    ///
    /// # Panics
    ///
    /// Panics if `bz == 0`.
    pub fn of_cols(m: &Matrix, bz: usize) -> Self {
        assert!(bz > 0, "block size must be non-zero");
        let mut histogram = vec![0u64; bz + 1];
        for c in 0..m.cols() {
            let mut r = 0;
            while r < m.rows() {
                let end = (r + bz).min(m.rows());
                let nnz = (r..end).filter(|&i| m.get(i, c) != 0).count();
                histogram[nnz] += 1;
                r = end;
            }
        }
        Self { histogram, bz }
    }

    /// Total number of blocks.
    pub fn blocks(&self) -> u64 {
        self.histogram.iter().sum()
    }

    /// Mean non-zeros per block.
    pub fn mean_nnz(&self) -> f64 {
        let total: u64 =
            self.histogram.iter().enumerate().map(|(nnz, &count)| nnz as u64 * count).sum();
        total as f64 / self.blocks() as f64
    }

    /// Fraction of blocks whose NNZ exceeds `bound` — i.e. the blocks DAP
    /// would have to prune to satisfy a `bound/bz` DBB constraint.
    pub fn violation_rate(&self, bound: usize) -> f64 {
        let over: u64 = self.histogram.iter().skip(bound + 1).sum();
        over as f64 / self.blocks() as f64
    }
}

/// Summary sparsity statistics for an operand matrix.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct SparsityStats {
    /// Fraction of zero elements.
    pub zero_fraction: f64,
    /// Total elements.
    pub elements: usize,
}

impl SparsityStats {
    /// Computes stats for a matrix.
    pub fn of(m: &Matrix) -> Self {
        Self { zero_fraction: m.sparsity(), elements: m.len() }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;
    use rand::distributions::{Distribution, Uniform};
    use rand::rngs::mock::StepRng;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    #[test]
    fn realized_sparsity_tracks_spec() {
        let mut rng = StdRng::seed_from_u64(42);
        for target in [0.0, 0.25, 0.5, 0.8] {
            let m = SparseSpec::random(target).matrix(64, 256, &mut rng);
            assert!((m.sparsity() - target).abs() < 0.02, "target {target}, got {}", m.sparsity());
        }
    }

    #[test]
    fn dense_spec_has_no_zeros() {
        let mut rng = StdRng::seed_from_u64(1);
        let m = SparseSpec::dense().matrix(16, 16, &mut rng);
        assert_eq!(m.count_zeros(), 0);
    }

    #[test]
    fn block_density_row_histogram() {
        // Row of 8 with 3 non-zeros + row of 8 with 8 non-zeros.
        let mut data = vec![0i8; 8];
        data[0] = 1;
        data[3] = 2;
        data[7] = -1;
        data.extend_from_slice(&[1; 8]);
        let m = Matrix::from_vec(2, 8, data);
        let d = BlockDensity::of_rows(&m, 8);
        assert_eq!(d.blocks(), 2);
        assert_eq!(d.histogram[3], 1);
        assert_eq!(d.histogram[8], 1);
        assert!((d.mean_nnz() - 5.5).abs() < 1e-12);
        assert!((d.violation_rate(4) - 0.5).abs() < 1e-12);
    }

    #[test]
    fn block_density_cols_partial_final_block() {
        // 10 rows, bz 8 -> blocks of 8 and 2 per column.
        let m = Matrix::from_vec(10, 1, vec![1, 0, 0, 0, 0, 0, 0, 0, 1, 1]);
        let d = BlockDensity::of_cols(&m, 8);
        assert_eq!(d.blocks(), 2);
        assert_eq!(d.histogram[1], 1); // first block: one non-zero
        assert_eq!(d.histogram[2], 1); // tail block: two non-zeros
    }

    #[test]
    fn mean_nnz_of_random_matches_density() {
        let mut rng = StdRng::seed_from_u64(3);
        let m = SparseSpec::random(0.5).matrix(128, 128, &mut rng);
        let d = BlockDensity::of_cols(&m, 8);
        assert!((d.mean_nnz() - 4.0).abs() < 0.2, "mean {}", d.mean_nnz());
    }

    /// The draw-by-draw generator `values_into` replaces: one
    /// `gen_bool` per element, then uniform draws until a non-zero.
    fn oracle_values<R: Rng>(sparsity: f64, len: usize, rng: &mut R) -> Vec<i8> {
        let dist = Uniform::new_inclusive(-127i8, 127i8);
        (0..len)
            .map(|_| {
                if rng.gen_bool(sparsity) {
                    0
                } else {
                    loop {
                        let v = dist.sample(rng);
                        if v != 0 {
                            break v;
                        }
                    }
                }
            })
            .collect()
    }

    /// A sparsity from one of four families: exactly 0, exactly 1, a
    /// multiple of `2^-53` (so `p * 2^53` is an integer) and a random
    /// `[0, 1)` float (almost never such a multiple).
    fn sparsity_case(family: u8, steps: u64, raw: f64) -> f64 {
        match family {
            0 => 0.0,
            1 => 1.0,
            2 => steps as f64 / (1u64 << 53) as f64,
            _ => raw,
        }
    }

    #[test]
    fn generator_matches_oracle_at_the_threshold() {
        // A counter generator walks the decision draws across the
        // threshold `ceil(p * 2^53)`: the draw one below it must give a
        // zero, the draw equal to it a non-zero. `p = k * 2^-53` puts
        // the threshold on k itself; `p = (k + 1/2) * 2^-53` just above.
        let unit = (1u64 << 53) as f64;
        for k in [1u64, 3, 1 << 52, (1 << 53) - 2] {
            for (p, threshold) in [(k as f64 / unit, k), ((k as f64 + 0.5) / unit, k + 1)] {
                for start in [threshold - 1, threshold] {
                    let mut rng = StepRng::new(start << 11, 1 << 11);
                    let mut oracle_rng = rng.clone();
                    let got = SparseSpec::random(p).values(16, &mut rng);
                    assert_eq!(got, oracle_values(p, 16, &mut oracle_rng), "p = {p:e}");
                    assert_eq!(rng, oracle_rng, "p = {p:e} left the streams apart");
                }
            }
        }
    }

    proptest! {
        #[test]
        fn prop_generator_matches_oracle(
            family in 0u8..4,
            steps in 0u64..=(1u64 << 53),
            raw in 0.0f64..1.0,
            len in 0usize..300,
            seed in any::<u64>(),
        ) {
            let p = sparsity_case(family, steps, raw);
            let spec = SparseSpec::random(p);
            let mut rng = StdRng::seed_from_u64(seed);
            let mut oracle_rng = rng.clone();
            let mut out = vec![5i8; 3];
            spec.values_into(len, &mut rng, &mut out);
            let mut expect = vec![5i8; 3];
            expect.extend(oracle_values(p, len, &mut oracle_rng));
            prop_assert_eq!(out, expect);
            // Both leave the generator in the same state, so later draws
            // from it agree too.
            prop_assert_eq!(rng, oracle_rng);
        }
    }

    #[test]
    fn deterministic_given_seed() {
        let a = SparseSpec::random(0.5).matrix(8, 8, &mut StdRng::seed_from_u64(9));
        let b = SparseSpec::random(0.5).matrix(8, 8, &mut StdRng::seed_from_u64(9));
        assert_eq!(a, b);
    }
}
