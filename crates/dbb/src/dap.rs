//! Dynamic Activation Pruning (paper Sec. 5.1, 6.2, Fig. 8).
//!
//! Activations are computed at runtime, so their DBB bound must be
//! enforced *online*: DAP keeps the Top-NNZ largest-magnitude elements of
//! each activation block. The hardware is a cascade of magnitude-maxpool
//! stages — each stage finds the largest remaining magnitude with `BZ-1`
//! comparators and removes it from consideration — capped at **5 stages**
//! (Sec. 6.2: higher NNZ "would usually not lead to significant
//! efficiency gains"); layers needing more run dense.
//!
//! This module provides:
//!
//! * [`dap_block`] — the software Top-NNZ reference.
//! * [`DapUnit`] — a stage-by-stage model of the cascaded-maxpool
//!   hardware, producing identical selections plus the per-stage event
//!   counts consumed by the energy model.
//! * [`LayerNnz`] / [`choose_layer_nnz`] — the per-layer variable density
//!   selection (Sec. 5.2: per-layer tuned A-DBB from 8/8 down to 2/8).

use crate::config::MAX_BZ;
use crate::prune::{magnitude_ranks, top_magnitude_mask};
use crate::{BlockAxis, DbbBlock, DbbConfig, DbbMatrix, DbbVector};
use s2ta_tensor::Matrix;
use std::ops::Range;

/// Maximum number of cascaded maxpool stages the DAP hardware implements.
pub const MAX_DAP_STAGES: usize = 5;

/// Software reference for DAP on one block: keeps the `nnz`
/// largest-magnitude elements (ties to the lower index), zeroes the rest.
///
/// # Panics
///
/// Panics if `block` has more than 16 elements (the widest DBB block).
pub fn dap_block(block: &mut [i8], nnz: usize) {
    let found = block.iter().filter(|&&v| v != 0).count();
    if found <= nnz {
        return;
    }
    let keep = top_magnitude_mask(block, nnz);
    for (i, v) in block.iter_mut().enumerate() {
        if keep & (1 << i) == 0 {
            *v = 0;
        }
    }
}

/// Event counts from one hardware DAP invocation, for energy accounting.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct DapEvents {
    /// Maxpool stages that actually evaluated (≤ `MAX_DAP_STAGES`).
    pub stages: u64,
    /// Binary magnitude comparisons performed (`BZ - 1` per stage).
    pub comparisons: u64,
}

/// A model of the cascaded magnitude-maxpool DAP hardware (Fig. 8).
///
/// Functionally identical to [`dap_block`] (asserted by tests and
/// property tests) but structured as the hardware is: one maxpool stage
/// per kept element, each scanning the not-yet-selected positions.
#[derive(Debug, Clone, Copy)]
pub struct DapUnit {
    bz: usize,
}

impl DapUnit {
    /// Creates a DAP unit for blocks of `bz` elements.
    ///
    /// # Panics
    ///
    /// Panics if `bz` is 0 or exceeds 16.
    pub fn new(bz: usize) -> Self {
        assert!(bz > 0 && bz <= crate::config::MAX_BZ, "unsupported block size {bz}");
        Self { bz }
    }

    /// Runs the cascade on `block`, keeping at most `nnz` elements and
    /// returning the positional mask plus event counts.
    ///
    /// # Panics
    ///
    /// Panics if `nnz > MAX_DAP_STAGES` (the hardware physically has 5
    /// stages; callers wanting denser output must bypass DAP), or if
    /// `block.len() != bz`.
    pub fn prune(&self, block: &mut [i8], nnz: usize) -> (u16, DapEvents) {
        assert_eq!(block.len(), self.bz, "block length must equal BZ");
        assert!(
            nnz <= MAX_DAP_STAGES,
            "DAP hardware has {MAX_DAP_STAGES} stages; nnz {nnz} requires bypass"
        );
        let mut selected: u16 = 0;
        let mut events = DapEvents::default();
        for _stage in 0..nnz {
            // One magnitude maxpool over the not-yet-selected elements.
            let mut best: Option<(usize, i32)> = None;
            for (i, &v) in block.iter().enumerate() {
                if selected & (1 << i) != 0 {
                    continue;
                }
                let mag = (v as i32).abs();
                match best {
                    // Strict '>' keeps the earliest index on ties, matching
                    // the comparator tree's left-to-right priority.
                    Some((_, bm)) if mag <= bm => {}
                    _ => best = Some((i, mag)),
                }
            }
            events.stages += 1;
            events.comparisons += (self.bz - 1) as u64;
            match best {
                Some((i, mag)) if mag > 0 => selected |= 1 << i,
                // All remaining elements are zero: later stages would
                // select zeros; stop early (the hardware bypasses unused
                // stages, Sec. 6.2).
                _ => break,
            }
        }
        for (i, v) in block.iter_mut().enumerate() {
            if selected & (1 << i) == 0 {
                *v = 0;
            }
        }
        (selected, events)
    }
}

/// The A-DBB density decision for one layer.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum LayerNnz {
    /// Prune activations to `nnz` per block via DAP (1..=5).
    Prune(usize),
    /// Run the layer with dense activations (DAP bypassed) — used when
    /// the layer needs more than 5/8 density to preserve accuracy.
    Dense,
}

impl LayerNnz {
    /// Cycles the time-unrolled datapath spends per activation block for
    /// this density (paper Sec. 5.2: one element per cycle; dense = BZ).
    pub fn cycles_per_block(&self, bz: usize) -> usize {
        match self {
            LayerNnz::Prune(n) => *n,
            LayerNnz::Dense => bz,
        }
    }

    /// The effective NNZ bound (BZ when dense).
    pub fn bound(&self, bz: usize) -> usize {
        match self {
            LayerNnz::Prune(n) => *n,
            LayerNnz::Dense => bz,
        }
    }
}

/// Chooses the per-layer activation NNZ: the smallest `nnz <= 5` whose
/// Top-NNZ pruning retains at least `coverage` of the layer's L1
/// activation magnitude; falls back to [`LayerNnz::Dense`] if even 5/8
/// retains less.
///
/// This mirrors the paper's per-layer tuning (Sec. 5.2: optimal A-DBB
/// "ranges from 8/8 (dense) in early layers down to 2/8 towards the
/// end"): early layers have dense, high-information activations and get
/// large NNZ; late ReLU-sparse layers prune aggressively.
///
/// # Panics
///
/// Panics unless `0.0 < coverage <= 1.0` and `0 < bz <= 16`.
pub fn choose_layer_nnz(activations: &Matrix, bz: usize, coverage: f64) -> LayerNnz {
    assert!(coverage > 0.0 && coverage <= 1.0, "coverage must be in (0,1]");
    let total: f64 = activations.data().iter().map(|&v| (v as f64).abs()).sum();
    if total == 0.0 {
        return LayerNnz::Prune(1);
    }
    let kept = retained_magnitudes(activations, bz);
    // The sums are integers far below 2^53, so each `f64` is exact.
    match kept.iter().position(|&k| k as f64 / total >= coverage) {
        Some(i) => LayerNnz::Prune(i + 1),
        None => LayerNnz::Dense,
    }
}

/// `kept[n - 1]` = the L1 magnitude that Top-`n` pruning of every column
/// block retains, for `n` in `1..=MAX_DAP_STAGES`, from one ranking per
/// block.
fn retained_magnitudes(m: &Matrix, bz: usize) -> [u64; MAX_DAP_STAGES] {
    assert!(bz > 0 && bz <= MAX_BZ, "unsupported block size {bz}");
    let mut by_rank = [0u64; MAX_DAP_STAGES];
    let mut block = [0i8; MAX_BZ];
    for rows in bands(m.rows(), bz) {
        let block = &mut block[..rows.len()];
        for c in 0..m.cols() {
            for (v, r) in block.iter_mut().zip(rows.clone()) {
                *v = m.get(r, c);
            }
            for (&v, &rank) in block.iter().zip(&magnitude_ranks(block)) {
                if let Some(slot) = by_rank.get_mut(rank as usize) {
                    *slot += v.unsigned_abs() as u64;
                }
            }
        }
    }
    let mut kept = by_rank;
    for n in 1..MAX_DAP_STAGES {
        kept[n] += kept[n - 1];
    }
    kept
}

/// The row ranges of the DBB blocks along a `k`-element column: bands
/// of `bz` rows, the last one shorter when `bz` does not divide `k`.
fn bands(k: usize, bz: usize) -> impl Iterator<Item = Range<usize>> {
    (0..k).step_by(bz).map(move |r0| r0..(r0 + bz).min(k))
}

/// The DBB configuration DAP compresses under at `(bz, nnz)`, and the
/// per-block bound it prunes to — `None` when nothing is pruned
/// ([`LayerNnz::Dense`], or a bound at or above `bz`).
fn dap_scope(bz: usize, nnz: LayerNnz) -> (DbbConfig, Option<usize>) {
    match nnz {
        LayerNnz::Prune(n) if n < bz => (DbbConfig::new(n, bz), Some(n)),
        _ => (DbbConfig::dense(bz), None),
    }
}

/// Columns per panel of the DAP pass: a panel's band masks and blocks
/// live in fixed buffers on the stack.
const PANEL_COLS: usize = 512;

/// The one DAP pass behind [`dap_matrix`] and [`dap_col_profile`]. It
/// walks `m` in panels of `PANEL_COLS` columns and, within a panel, in
/// bands of `bz` rows, reading each row segment in order. For every
/// band of a panel it computes each column block's non-zero mask,
/// copies the blocks out column-contiguous (column `cols.start + j`'s
/// block at `blocks[j * bz..]`), prunes every block to `n` and hands the
/// band's rows, the panel's columns, the survivor masks and the blocks
/// to `visit`. Returns the DAP hardware events: none above the 5-stage
/// cap.
///
/// The cascade needs no stage-by-stage replay. Stage `s` selects the
/// `s`-th largest magnitude while a non-zero remains, and the first
/// stage that finds only zeros ends it (Sec. 6.2), so a block with
/// `found` non-zeros runs `min(found + 1, n)` stages of `bz - 1`
/// comparisons, and it keeps all its non-zeros unless `found > n`. Only
/// those over-full blocks are ranked; the survivors are the Top-`n`
/// that [`DapUnit::prune`] and [`dap_block`] select.
fn dap_bands(
    m: &Matrix,
    bz: usize,
    n: usize,
    mut visit: impl FnMut(Range<usize>, Range<usize>, &[u16], &[i8]),
) -> DapEvents {
    assert!(bz > 0 && bz <= MAX_BZ, "unsupported block size {bz}");
    let mut stages = 0u64;
    let mut masks = [0u16; PANEL_COLS];
    let mut blocks = [0i8; PANEL_COLS * MAX_BZ];
    for c0 in (0..m.cols()).step_by(PANEL_COLS) {
        let cols = c0..(c0 + PANEL_COLS).min(m.cols());
        let masks = &mut masks[..cols.len()];
        let blocks = &mut blocks[..cols.len() * bz];
        for rows in bands(m.rows(), bz) {
            masks.fill(0);
            for (i, r) in rows.clone().enumerate() {
                let segment = &m.row(r)[cols.clone()];
                for (mask, &v) in masks.iter_mut().zip(segment) {
                    *mask |= ((v != 0) as u16) << i;
                }
                for (block, &v) in blocks.chunks_exact_mut(bz).zip(segment) {
                    block[i] = v;
                }
            }
            for (mask, block) in masks.iter_mut().zip(blocks.chunks_exact(bz)) {
                let found = mask.count_ones() as usize;
                stages += (found + 1).min(n) as u64;
                if found > n {
                    *mask = top_magnitude_mask(&block[..rows.len()], n);
                }
            }
            visit(rows, cols.clone(), masks, blocks);
        }
    }
    if n <= MAX_DAP_STAGES {
        DapEvents { stages, comparisons: stages * (bz - 1) as u64 }
    } else {
        DapEvents::default()
    }
}

/// Applies DAP to an entire im2col activation matrix (columns are
/// reduction vectors) and compresses the result, returning the compressed
/// matrix and aggregate hardware events.
///
/// For [`LayerNnz::Dense`] the matrix is compressed with the dense `bz/bz`
/// bound (no pruning, no DAP events). Bounds of `1..=5` run through the
/// hardware DAP cascade; bounds **above** the 5-stage cap cannot be
/// runtime-pruned (Sec. 6.2), so they are enforced in software here —
/// representing activations already bounded by DAP-aware *training* —
/// and contribute no DAP hardware events.
pub fn dap_matrix(m: &Matrix, bz: usize, nnz: LayerNnz) -> (DbbMatrix, DapEvents) {
    let (config, bound) = dap_scope(bz, nnz);
    let Some(n) = bound else {
        let compressed =
            DbbMatrix::compress(m, BlockAxis::Cols, config).expect("the dense bound always holds");
        return (compressed, DapEvents::default());
    };
    let (k, cols) = (m.rows(), m.cols());
    let mut columns: Vec<Vec<DbbBlock>> =
        (0..cols).map(|_| Vec::with_capacity(k.div_ceil(bz))).collect();
    let events = dap_bands(m, bz, n, |_, cols, masks, blocks| {
        let panel = masks.iter().zip(blocks.chunks_exact(bz));
        for ((&mask, block), column) in panel.zip(&mut columns[cols]) {
            column.push(DbbBlock::from_mask(block, mask, config));
        }
    });
    let vectors = columns.into_iter().map(|blocks| DbbVector::from_blocks(blocks, k, config));
    (DbbMatrix::from_vectors(vectors.collect(), BlockAxis::Cols, k, cols, config), events)
}

/// The column-strip non-zero profile of a DAP-pruned activation matrix,
/// derived **without materializing** the pruned matrix or its
/// compressed form — the operand the matrix-free `S2TA-AW` event path
/// (`s2ta_sim::tpe::run_aw_perf_profiled`) consumes.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct DapColProfile {
    /// Flat strip-major SoA tallies: `counts[s*k + p]` = surviving
    /// non-zeros among strip `s`'s columns at reduction position `p`,
    /// for column strips of the requested width (`k` = `m.rows()`).
    /// Identical to profiling `dap_matrix(m, bz, nnz).0.decompress()`
    /// (asserted by tests); the layout matches
    /// `s2ta_sim::profile::ColStripProfile::from_flat`.
    pub counts: Vec<u32>,
    /// Number of column strips.
    pub strips: usize,
    /// Reduction length (`m.rows()`).
    pub k: usize,
    /// Aggregate DAP hardware events, identical to [`dap_matrix`]'s.
    pub events: DapEvents,
    /// The compression configuration [`dap_matrix`] would choose for
    /// this `(bz, nnz)` (dense for [`LayerNnz::Dense`] and for bounds
    /// at or above `bz`).
    pub config: DbbConfig,
}

impl DapColProfile {
    /// The per-position tallies of strip `s`.
    pub fn strip(&self, s: usize) -> &[u32] {
        &self.counts[s * self.k..(s + 1) * self.k]
    }
}

/// Runs the DAP decision of [`dap_matrix`] over `m` but keeps only the
/// per-column-strip non-zero counts of the surviving elements (plus the
/// hardware events), skipping the pruned-matrix materialization and
/// compression entirely. For each strip `s` of `strip_cols` columns,
/// `counts[s*k + p]` equals the number of columns in the strip whose
/// post-DAP element at reduction position `p` is non-zero — exactly the
/// column-strip profile of `dap_matrix(m, bz, nnz).0.decompress()`.
///
/// Pruned scopes run the band pass [`dap_matrix`] runs and tally each
/// band's survivor masks per strip; unpruned scopes tally the raw
/// non-zeros row by row. Either way `m` is read in row order, and the
/// only allocation is the returned `counts`.
///
/// # Panics
///
/// Panics if `strip_cols` is zero.
pub fn dap_col_profile(m: &Matrix, bz: usize, nnz: LayerNnz, strip_cols: usize) -> DapColProfile {
    assert!(strip_cols > 0, "strip width must be non-zero");
    let strips = m.cols().div_ceil(strip_cols);
    let k = m.rows();
    let mut counts = vec![0u32; strips * k];
    let (config, bound) = dap_scope(bz, nnz);
    let events = match bound {
        Some(n) => dap_bands(m, bz, n, |rows, cols, masks, _| {
            // The panel's columns, cut at strip boundaries.
            let mut c = cols.start;
            while c < cols.end {
                let s = c / strip_cols;
                let end = ((s + 1) * strip_cols).min(cols.end);
                let chunk = &masks[c - cols.start..end - cols.start];
                let strip = &mut counts[s * k + rows.start..s * k + rows.end];
                for (i, slot) in strip.iter_mut().enumerate() {
                    *slot += chunk.iter().map(|&mask| (mask >> i & 1) as u32).sum::<u32>();
                }
                c = end;
            }
        }),
        None => {
            for p in 0..k {
                for (s, chunk) in m.row(p).chunks(strip_cols).enumerate() {
                    counts[s * k + p] += chunk.iter().filter(|&&v| v != 0).count() as u32;
                }
            }
            DapEvents::default()
        }
    };
    DapColProfile { counts, strips, k, events, config }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;
    use rand::rngs::StdRng;
    use rand::SeedableRng;
    use s2ta_tensor::sparsity::SparseSpec;

    #[test]
    fn software_dap_keeps_top_magnitudes() {
        let mut b = [0i8, 4, 1, 5, 2, 6, -1, -7];
        dap_block(&mut b, 4);
        // Top-4 magnitudes: -7, 6, 5, 4.
        assert_eq!(b, [0, 4, 0, 5, 0, 6, 0, -7]);
    }

    #[test]
    fn hardware_matches_software() {
        let unit = DapUnit::new(8);
        let mut rng = StdRng::seed_from_u64(2);
        for nnz in 1..=5usize {
            for _ in 0..200 {
                let m = SparseSpec::random(0.4).matrix(1, 8, &mut rng);
                let mut hw: Vec<i8> = m.data().to_vec();
                let mut sw = hw.clone();
                unit.prune(&mut hw, nnz);
                dap_block(&mut sw, nnz);
                assert_eq!(hw, sw, "nnz={nnz}");
            }
        }
    }

    #[test]
    fn hardware_mask_matches_survivors() {
        let unit = DapUnit::new(8);
        let mut b = [0i8, 4, 1, 5, 2, 6, -1, -7];
        let (mask, events) = unit.prune(&mut b, 4);
        assert_eq!(mask, (1 << 1) | (1 << 3) | (1 << 5) | (1 << 7));
        assert_eq!(events.stages, 4);
        assert_eq!(events.comparisons, 4 * 7);
    }

    #[test]
    fn cascade_stops_early_on_zeros() {
        let unit = DapUnit::new(8);
        let mut b = [0i8, 0, 3, 0, 0, 0, 0, 0];
        let (mask, events) = unit.prune(&mut b, 5);
        assert_eq!(mask, 1 << 2);
        // One productive stage plus the stage that found only zeros.
        assert_eq!(events.stages, 2);
    }

    #[test]
    #[should_panic(expected = "stages")]
    fn nnz_above_stage_cap_rejected() {
        let unit = DapUnit::new(8);
        let mut b = [0i8; 8];
        let _ = unit.prune(&mut b, 6);
    }

    #[test]
    fn layer_nnz_cycles() {
        assert_eq!(LayerNnz::Prune(3).cycles_per_block(8), 3);
        assert_eq!(LayerNnz::Dense.cycles_per_block(8), 8);
        assert_eq!(LayerNnz::Prune(2).bound(8), 2);
        assert_eq!(LayerNnz::Dense.bound(8), 8);
    }

    #[test]
    fn sparse_layers_get_small_nnz() {
        let mut rng = StdRng::seed_from_u64(9);
        let sparse = SparseSpec::random(0.85).matrix(64, 64, &mut rng);
        let dense = SparseSpec::random(0.05).matrix(64, 64, &mut rng);
        let n_sparse = choose_layer_nnz(&sparse, 8, 0.98);
        let n_dense = choose_layer_nnz(&dense, 8, 0.98);
        match (n_sparse, n_dense) {
            (LayerNnz::Prune(a), LayerNnz::Dense) => assert!(a <= 3, "sparse nnz {a}"),
            (LayerNnz::Prune(a), LayerNnz::Prune(b)) => {
                assert!(a < b, "sparse {a} should need fewer than dense {b}")
            }
            other => panic!("unexpected choices {other:?}"),
        }
    }

    #[test]
    fn dap_matrix_satisfies_bound_and_counts_events() {
        let mut rng = StdRng::seed_from_u64(4);
        let m = SparseSpec::random(0.3).matrix(16, 10, &mut rng);
        let (dm, events) = dap_matrix(&m, 8, LayerNnz::Prune(3));
        assert_eq!(dm.config(), DbbConfig::new(3, 8));
        // 10 columns x 2 blocks each = 20 blocks, each ran >= 1 stage.
        assert!(events.stages >= 20);
        // Every decompressed column block has <= 3 non-zeros.
        let dec = dm.decompress();
        for c in 0..dec.cols() {
            for blk in 0..2 {
                let nnz = (blk * 8..(blk + 1) * 8).filter(|&r| dec.get(r, c) != 0).count();
                assert!(nnz <= 3);
            }
        }
    }

    #[test]
    fn dap_matrix_dense_is_lossless() {
        let mut rng = StdRng::seed_from_u64(6);
        let m = SparseSpec::random(0.5).matrix(24, 6, &mut rng);
        let (dm, events) = dap_matrix(&m, 8, LayerNnz::Dense);
        assert_eq!(dm.decompress(), m);
        assert_eq!(events, DapEvents::default());
    }

    /// Reference: profile of the materialized post-DAP matrix, as the
    /// dense path computes it (dap_matrix -> decompress -> count per
    /// column strip).
    fn materialized_profile(
        m: &Matrix,
        bz: usize,
        nnz: LayerNnz,
        strip_cols: usize,
    ) -> (Vec<u32>, DapEvents) {
        let (dm, events) = dap_matrix(m, bz, nnz);
        let dense = dm.decompress();
        let strips = dense.cols().div_ceil(strip_cols);
        let k = dense.rows();
        let mut counts = vec![0u32; strips * k];
        for c in 0..dense.cols() {
            let base = (c / strip_cols) * k;
            let strip = &mut counts[base..base + k];
            for (r, slot) in strip.iter_mut().enumerate() {
                if dense.get(r, c) != 0 {
                    *slot += 1;
                }
            }
        }
        (counts, events)
    }

    #[test]
    fn col_profile_matches_materialize_then_profile() {
        let mut rng = StdRng::seed_from_u64(11);
        // Includes a tail row block (rows 19 not a multiple of 8) and a
        // tail column strip (10 cols over strips of 4).
        let m = SparseSpec::random(0.4).matrix(19, 10, &mut rng);
        for nnz in [
            LayerNnz::Dense,
            LayerNnz::Prune(1),
            LayerNnz::Prune(3),
            LayerNnz::Prune(5),
            LayerNnz::Prune(7), // software-enforced (above the 5-stage cap)
            LayerNnz::Prune(8), // at BZ: dense fall-back
        ] {
            let direct = dap_col_profile(&m, 8, nnz, 4);
            let (counts, events) = materialized_profile(&m, 8, nnz, 4);
            assert_eq!(direct.counts, counts, "{nnz:?}");
            assert_eq!(direct.events, events, "{nnz:?}");
        }
    }

    #[test]
    fn col_profile_config_matches_dap_matrix() {
        let mut rng = StdRng::seed_from_u64(12);
        let m = SparseSpec::random(0.3).matrix(16, 6, &mut rng);
        for nnz in [LayerNnz::Dense, LayerNnz::Prune(2), LayerNnz::Prune(8)] {
            let direct = dap_col_profile(&m, 8, nnz, 8);
            assert_eq!(direct.config, dap_matrix(&m, 8, nnz).0.config(), "{nnz:?}");
        }
    }

    /// DAP applied the way the hardware sees it: every column cut into
    /// zero-padded `bz` blocks, each pruned by [`DapUnit::prune`] within
    /// the 5-stage cap and by [`dap_block`] above it. Returns the pruned
    /// matrix and the summed events.
    fn per_block_oracle(m: &Matrix, bz: usize, n: usize) -> (Matrix, DapEvents) {
        let mut out = m.clone();
        let mut events = DapEvents::default();
        let unit = DapUnit::new(bz);
        for c in 0..m.cols() {
            for r0 in (0..m.rows()).step_by(bz) {
                let rows = r0..(r0 + bz).min(m.rows());
                let mut block = vec![0i8; bz];
                for (v, r) in block.iter_mut().zip(rows.clone()) {
                    *v = m.get(r, c);
                }
                if n <= MAX_DAP_STAGES {
                    let (mask, ev) = unit.prune(&mut block, n);
                    assert_eq!(mask, crate::block::nonzero_mask(&block), "mask marks survivors");
                    events.stages += ev.stages;
                    events.comparisons += ev.comparisons;
                } else {
                    dap_block(&mut block, n);
                }
                for (&v, r) in block.iter().zip(rows) {
                    out.set(r, c, v);
                }
            }
        }
        (out, events)
    }

    #[test]
    fn band_pass_matches_per_block_oracle_on_extremes() {
        // Every magnitude tie and both ends of the i8 range in one
        // column block, a tail block of three rows, and a column that
        // is entirely -128.
        let mut data = vec![0i8; 19 * 3];
        let col0 = [5, -5, 5, 0, -128, 127, -127, 5, 1, -1, 1, 0, 0, 0, 0, 0, -128, 2, -2];
        for (r, &v) in col0.iter().enumerate() {
            data[r * 3] = v;
            data[r * 3 + 1] = -128;
            data[r * 3 + 2] = (r % 3) as i8;
        }
        let m = Matrix::from_vec(19, 3, data);
        for bz in [4, 8, 16] {
            for n in 1..bz {
                let (expect, expect_events) = per_block_oracle(&m, bz, n);
                let (dm, events) = dap_matrix(&m, bz, LayerNnz::Prune(n));
                assert_eq!(dm.decompress(), expect, "bz {bz} n {n}");
                assert_eq!(events, expect_events, "bz {bz} n {n}");
            }
        }
    }

    /// The retained magnitude as it was computed: sort each column
    /// block's `f64` magnitudes and sum the largest `nnz`.
    fn oracle_retained(m: &Matrix, bz: usize, nnz: usize) -> f64 {
        let mut kept = 0.0;
        for c in 0..m.cols() {
            for r0 in (0..m.rows()).step_by(bz) {
                let end = (r0 + bz).min(m.rows());
                let mut mags: Vec<f64> = (r0..end).map(|r| (m.get(r, c) as f64).abs()).collect();
                mags.sort_by(|a, b| b.partial_cmp(a).unwrap());
                kept += mags.iter().take(nnz).sum::<f64>();
            }
        }
        kept
    }

    proptest! {
        #[test]
        fn prop_retained_magnitudes_match_sorted_f64(
            rows in 1usize..30,
            cols in 1usize..8,
            data in prop::collection::vec(any::<i8>(), 240),
            bz_pick in 0usize..3,
        ) {
            let m = Matrix::from_vec(rows, cols, data[..rows * cols].to_vec());
            let bz = [4, 8, 16][bz_pick];
            let kept = retained_magnitudes(&m, bz);
            for nnz in 1..=MAX_DAP_STAGES {
                prop_assert_eq!(kept[nnz - 1] as f64, oracle_retained(&m, bz, nnz));
            }
        }

        #[test]
        fn prop_band_pass_matches_per_block_oracle(
            rows in 1usize..40,
            cols in 1usize..10,
            wide in prop::collection::vec(any::<i8>(), 400),
            narrow in prop::collection::vec(-2i8..=2, 400),
            use_narrow in any::<bool>(),
            bz_pick in 0usize..3,
            n_pick in any::<usize>(),
            strip_cols in 1usize..6,
        ) {
            // Narrow values are mostly magnitude ties; wide ones cover
            // the whole i8 range, -128 included.
            let pool = if use_narrow { narrow } else { wide };
            let m = Matrix::from_vec(rows, cols, pool[..rows * cols].to_vec());
            let bz = [4, 8, 16][bz_pick];
            let n = 1 + n_pick % (bz - 1);
            let (expect, expect_events) = per_block_oracle(&m, bz, n);

            let (dm, events) = dap_matrix(&m, bz, LayerNnz::Prune(n));
            prop_assert_eq!(dm.decompress(), expect.clone());
            prop_assert_eq!(events, expect_events);
            prop_assert_eq!(dm.config(), DbbConfig::new(n, bz));

            let profile = dap_col_profile(&m, bz, LayerNnz::Prune(n), strip_cols);
            let mut counts = vec![0u32; cols.div_ceil(strip_cols) * rows];
            for r in 0..rows {
                for c in 0..cols {
                    counts[(c / strip_cols) * rows + r] += (expect.get(r, c) != 0) as u32;
                }
            }
            prop_assert_eq!(profile.counts, counts);
            prop_assert_eq!(profile.events, expect_events);
        }

        #[test]
        fn prop_dap_col_profile_equals_materialized(
            rows in 1usize..24,
            cols in 1usize..12,
            sp in 0.0f64..0.95,
            nnz in 1usize..=8,
            strip_cols in 1usize..8,
            seed in any::<u64>(),
        ) {
            let mut rng = StdRng::seed_from_u64(seed);
            let m = SparseSpec::random(sp).matrix(rows, cols, &mut rng);
            let direct = dap_col_profile(&m, 8, LayerNnz::Prune(nnz), strip_cols);
            let (counts, events) = materialized_profile(&m, 8, LayerNnz::Prune(nnz), strip_cols);
            prop_assert_eq!(&direct.counts, &counts);
            prop_assert_eq!(direct.events, events);
        }

        #[test]
        fn prop_hw_sw_equivalence(
            data in prop::collection::vec(any::<i8>(), 8),
            nnz in 1usize..=5,
        ) {
            let unit = DapUnit::new(8);
            let mut hw = data.clone();
            let mut sw = data;
            unit.prune(&mut hw, nnz);
            dap_block(&mut sw, nnz);
            prop_assert_eq!(hw, sw);
        }

        #[test]
        fn prop_dap_never_increases_magnitude(
            data in prop::collection::vec(any::<i8>(), 8),
            nnz in 1usize..=5,
        ) {
            let mut pruned = data.clone();
            dap_block(&mut pruned, nnz);
            let before: i64 = data.iter().map(|&v| (v as i64).abs()).sum();
            let after: i64 = pruned.iter().map(|&v| (v as i64).abs()).sum();
            prop_assert!(after <= before);
            prop_assert!(pruned.iter().filter(|&&v| v != 0).count() <= nnz);
        }
    }
}
