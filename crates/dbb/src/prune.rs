//! W-DBB weight pruning: in-block magnitude pruning (paper Sec. 4, 8.1).
//!
//! Weight sparsity is static, so the DBB bound is enforced offline:
//! within every block, only the `NNZ` largest-magnitude elements are kept.
//! The paper prunes *progressively* during fine-tuning ("typically runs
//! for 20-50 epochs, progressively pruning small-magnitude weights") —
//! the progressive schedule lives in `s2ta-nn`; this module provides the
//! per-block Top-NNZ primitive for both `i8` (deployment) and the
//! magnitude-selection helper shared with the trainer.

use crate::block::nonzero_mask;
use crate::config::MAX_BZ;
use crate::{BlockAxis, DbbBlock, DbbConfig, DbbMatrix, DbbVector};
use s2ta_tensor::Matrix;

/// Returns the indices of the `keep` largest-magnitude elements of
/// `block`, ties broken toward the lower index (matching the deterministic
/// comparator-tree order of the DAP hardware, Fig. 8).
///
/// The returned indices are in ascending order.
pub fn top_magnitude_indices(block: &[f64], keep: usize) -> Vec<usize> {
    let mut order: Vec<usize> = (0..block.len()).collect();
    // Sort by descending magnitude, ascending index on ties.
    order.sort_by(|&a, &b| {
        block[b]
            .abs()
            .partial_cmp(&block[a].abs())
            .expect("magnitudes must be comparable (no NaN)")
            .then(a.cmp(&b))
    });
    let mut kept: Vec<usize> = order.into_iter().take(keep).collect();
    kept.sort_unstable();
    kept
}

/// The magnitude rank of each element of an integer block of at most
/// `MAX_BZ` elements: `ranks[i]` counts the elements that outrank
/// element `i` — a larger magnitude, or an equal one at a lower index —
/// so the `keep` largest are exactly those ranked below `keep`, in the
/// order [`top_magnitude_indices`] picks them. Slots past
/// `block.len()` are meaningless.
///
/// Each element's sort key packs its magnitude (`|-128|` is 128) above
/// its reversed index, so keys are distinct and one compare decides
/// both the magnitude and the tie. Every key is counted against a whole
/// fixed-width key row, which compiles to a few vector compares.
///
/// # Panics
///
/// Panics if `block` has more than `MAX_BZ` elements.
pub(crate) fn magnitude_ranks(block: &[i8]) -> [u16; MAX_BZ] {
    assert!(block.len() <= MAX_BZ, "blocks hold at most {MAX_BZ} elements");
    let mut keys = [0u16; MAX_BZ];
    for (i, (key, &v)) in keys.iter_mut().zip(block).enumerate() {
        *key = (v.unsigned_abs() as u16) << 4 | (MAX_BZ - 1 - i) as u16;
    }
    let mut ranks = [0u16; MAX_BZ];
    for &other in &keys[..block.len()] {
        for (rank, &key) in ranks.iter_mut().zip(&keys) {
            *rank += (other > key) as u16;
        }
    }
    ranks
}

/// Positional mask of the `keep` largest-magnitude elements of `block`
/// (at most `MAX_BZ` elements), ties to the lower index.
pub(crate) fn top_magnitude_mask(block: &[i8], keep: usize) -> u16 {
    let ranks = magnitude_ranks(block);
    ranks[..block.len()]
        .iter()
        .enumerate()
        .fold(0, |mask, (i, &rank)| mask | (((rank as usize) < keep) as u16) << i)
}

/// Positional mask of what pruning a block of at most `MAX_BZ` elements
/// to `nnz` keeps: all its non-zeros when they fit the bound, else the
/// `nnz` largest magnitudes.
fn pruned_mask(block: &[i8], nnz: usize) -> u16 {
    let mask = nonzero_mask(block);
    if mask.count_ones() as usize <= nnz {
        mask
    } else {
        top_magnitude_mask(block, nnz)
    }
}

/// Prunes a dense `i8` reduction vector to satisfy `config`, keeping the
/// largest-magnitude `NNZ` elements of each `BZ` block and zeroing the
/// rest. Blocks already satisfying the bound are untouched.
pub fn prune_vector(data: &mut [i8], config: DbbConfig) {
    for chunk in data.chunks_mut(config.bz()) {
        let keep = pruned_mask(chunk, config.nnz());
        for (i, v) in chunk.iter_mut().enumerate() {
            if keep & (1 << i) == 0 {
                *v = 0;
            }
        }
    }
}

/// Prunes a matrix along `axis` to satisfy `config`, returning the pruned
/// dense matrix. The result is guaranteed to compress without error.
pub fn prune_matrix(m: &Matrix, axis: BlockAxis, config: DbbConfig) -> Matrix {
    let mut out = m.clone();
    match axis {
        BlockAxis::Rows => {
            let cols = out.cols();
            for row in out.data_mut().chunks_mut(cols) {
                prune_vector(row, config);
            }
        }
        BlockAxis::Cols => {
            let mut block = [0i8; MAX_BZ];
            for r0 in (0..out.rows()).step_by(config.bz()) {
                let rows = r0..(r0 + config.bz()).min(out.rows());
                for c in 0..out.cols() {
                    let block = &mut block[..rows.len()];
                    for (v, r) in block.iter_mut().zip(rows.clone()) {
                        *v = out.get(r, c);
                    }
                    prune_vector(block, config);
                    for (&v, r) in block.iter().zip(rows.clone()) {
                        out.set(r, c, v);
                    }
                }
            }
        }
    }
    out
}

/// Prunes and compresses a weight matrix in one step (rows = reduction
/// vectors, the weight orientation): each block is compressed straight
/// from the positions pruning keeps, with no pruned copy of `m`.
/// Identical to compressing [`prune_matrix`]'s output.
pub fn prune_and_compress(m: &Matrix, config: DbbConfig) -> DbbMatrix {
    let vectors = m
        .data()
        .chunks(m.cols())
        .map(|row| {
            let blocks = row
                .chunks(config.bz())
                .map(|chunk| DbbBlock::from_mask(chunk, pruned_mask(chunk, config.nnz()), config))
                .collect();
            DbbVector::from_blocks(blocks, row.len(), config)
        })
        .collect();
    DbbMatrix::from_vectors(vectors, BlockAxis::Rows, m.rows(), m.cols(), config)
}

/// Fraction of the L1 weight magnitude preserved by pruning `m` (rows) to
/// `config` — the quality proxy used to pick per-model W-DBB ratios.
pub fn magnitude_retention(m: &Matrix, axis: BlockAxis, config: DbbConfig) -> f64 {
    let total: f64 = m.data().iter().map(|&v| (v as f64).abs()).sum();
    if total == 0.0 {
        return 1.0;
    }
    let pruned = prune_matrix(m, axis, config);
    let kept: f64 = pruned.data().iter().map(|&v| (v as f64).abs()).sum();
    kept / total
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;
    use rand::rngs::StdRng;
    use rand::SeedableRng;
    use s2ta_tensor::sparsity::SparseSpec;

    #[test]
    fn keeps_largest_magnitudes() {
        let mut v = [1i8, -8, 3, 7, -2, 6, 0, 5];
        prune_vector(&mut v, DbbConfig::new(4, 8));
        assert_eq!(v, [0, -8, 0, 7, 0, 6, 0, 5]);
    }

    #[test]
    fn already_satisfying_block_untouched() {
        let mut v = [0i8, 9, 0, 0, 0, -3, 0, 0];
        let orig = v;
        prune_vector(&mut v, DbbConfig::new(4, 8));
        assert_eq!(v, orig);
    }

    #[test]
    fn tie_break_prefers_lower_index() {
        let mut v = [5i8, 5, 5, 5, 5, 5, 5, 5];
        prune_vector(&mut v, DbbConfig::new(2, 8));
        assert_eq!(v, [5, 5, 0, 0, 0, 0, 0, 0]);
    }

    #[test]
    fn pruned_matrix_compresses_cleanly() {
        let mut rng = StdRng::seed_from_u64(11);
        let m = SparseSpec::random(0.2).matrix(16, 40, &mut rng);
        let dm = prune_and_compress(&m, DbbConfig::new(4, 8));
        // Every block satisfies the bound by construction.
        assert_eq!(dm.decompress().rows(), 16);
    }

    #[test]
    fn retention_is_one_for_satisfying_data() {
        let m = Matrix::from_vec(1, 8, vec![1, 0, 2, 0, 3, 0, 4, 0]);
        let r = magnitude_retention(&m, BlockAxis::Rows, DbbConfig::new(4, 8));
        assert!((r - 1.0).abs() < 1e-12);
    }

    #[test]
    fn retention_decreases_with_tighter_bound() {
        let mut rng = StdRng::seed_from_u64(5);
        let m = SparseSpec::dense().matrix(8, 64, &mut rng);
        let r4 = magnitude_retention(&m, BlockAxis::Rows, DbbConfig::new(4, 8));
        let r2 = magnitude_retention(&m, BlockAxis::Rows, DbbConfig::new(2, 8));
        let r1 = magnitude_retention(&m, BlockAxis::Rows, DbbConfig::new(1, 8));
        assert!(r4 > r2 && r2 > r1, "retention {r4} {r2} {r1}");
    }

    #[test]
    fn fused_prune_and_compress_equals_prune_then_compress() {
        let mut rng = StdRng::seed_from_u64(17);
        let m = SparseSpec::random(0.3).matrix(9, 45, &mut rng);
        for nnz in 1..=8 {
            let cfg = DbbConfig::new(nnz, 8);
            let staged =
                DbbMatrix::compress(&prune_matrix(&m, BlockAxis::Rows, cfg), BlockAxis::Rows, cfg)
                    .unwrap();
            assert_eq!(prune_and_compress(&m, cfg), staged, "{cfg}");
        }
    }

    #[test]
    fn column_pruning_prunes_each_column_vector() {
        let mut rng = StdRng::seed_from_u64(19);
        let m = SparseSpec::random(0.2).matrix(21, 6, &mut rng);
        let cfg = DbbConfig::new(3, 8);
        let pruned = prune_matrix(&m, BlockAxis::Cols, cfg);
        for c in 0..m.cols() {
            let mut col: Vec<i8> = (0..m.rows()).map(|r| m.get(r, c)).collect();
            prune_vector(&mut col, cfg);
            let got: Vec<i8> = (0..m.rows()).map(|r| pruned.get(r, c)).collect();
            assert_eq!(got, col, "column {c}");
        }
    }

    /// `prune_vector` as it was: rank each over-full block's magnitudes
    /// as `f64`s through [`top_magnitude_indices`].
    fn oracle_prune_vector(data: &mut [i8], config: DbbConfig) {
        for chunk in data.chunks_mut(config.bz()) {
            if chunk.iter().filter(|&&v| v != 0).count() <= config.nnz() {
                continue;
            }
            let mags: Vec<f64> = chunk.iter().map(|&v| (v as f64).abs()).collect();
            let keep = top_magnitude_indices(&mags, config.nnz());
            for (i, v) in chunk.iter_mut().enumerate() {
                if !keep.contains(&i) {
                    *v = 0;
                }
            }
        }
    }

    proptest! {
        #[test]
        fn prop_prune_vector_matches_f64_ranking(
            data in prop::collection::vec(any::<i8>(), 1..80),
            narrow in prop::collection::vec(-3i8..=3, 1..80),
            extreme in any::<bool>(),
            use_narrow in any::<bool>(),
            bz_pick in 0usize..3,
            nnz_pick in any::<usize>(),
        ) {
            // Narrow values force magnitude ties; the extreme flag seeds
            // -128 and 127, whose magnitudes differ by one.
            let mut data = if use_narrow { narrow } else { data };
            if extreme {
                data[0] = -128;
                let last = data.len() - 1;
                data[last] = 127;
            }
            let bz = [4, 8, 16][bz_pick];
            let cfg = DbbConfig::new(1 + nnz_pick % bz, bz);
            let mut got = data.clone();
            prune_vector(&mut got, cfg);
            let mut expect = data;
            oracle_prune_vector(&mut expect, cfg);
            prop_assert_eq!(got, expect);
        }

        #[test]
        fn prop_pruned_satisfies_bound(
            data in prop::collection::vec(any::<i8>(), 8..96),
            nnz in 1usize..=8,
        ) {
            let cfg = DbbConfig::new(nnz, 8);
            let mut v = data;
            prune_vector(&mut v, cfg);
            for chunk in v.chunks(8) {
                prop_assert!(chunk.iter().filter(|&&x| x != 0).count() <= nnz);
            }
        }

        #[test]
        fn prop_pruning_is_idempotent(
            data in prop::collection::vec(any::<i8>(), 8..64),
            nnz in 1usize..=8,
        ) {
            let cfg = DbbConfig::new(nnz, 8);
            let mut once = data;
            prune_vector(&mut once, cfg);
            let mut twice = once.clone();
            prune_vector(&mut twice, cfg);
            prop_assert_eq!(once, twice);
        }

        #[test]
        fn prop_kept_values_are_subset(
            data in prop::collection::vec(any::<i8>(), 8..64),
            nnz in 1usize..=8,
        ) {
            let cfg = DbbConfig::new(nnz, 8);
            let mut pruned = data.clone();
            prune_vector(&mut pruned, cfg);
            for (orig, kept) in data.iter().zip(&pruned) {
                prop_assert!(*kept == 0 || kept == orig);
            }
        }
    }
}
