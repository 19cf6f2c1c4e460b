//! A single compressed DBB block: values plus positional bitmask (Fig. 5).

use crate::config::MAX_BZ;
use crate::{DbbConfig, DbbError};

/// One compressed DBB block.
///
/// Stores exactly `config.nnz()` value bytes — zero-padded at the tail if
/// the source block had fewer non-zeros — and a `BZ`-bit positional mask
/// whose set bits mark the expanded positions of the stored values, in
/// ascending position order. This mirrors the hardware storage layout, so
/// [`DbbBlock::storage_bytes`] is exactly the SRAM footprint.
///
/// The values live inline in a fixed `MAX_BZ`-byte array (the slots past
/// `nnz` stay zero), so a block is a 20-byte `Copy` value with no heap
/// storage of its own: a compressed vector is one contiguous run of
/// blocks.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct DbbBlock {
    values: [i8; MAX_BZ],
    mask: u16,
    config: DbbConfig,
}

/// Positional mask of the non-zeros of a block of at most `MAX_BZ`
/// elements: bit `i` set iff `data[i] != 0`.
pub(crate) fn nonzero_mask(data: &[i8]) -> u16 {
    data.iter().enumerate().fold(0, |mask, (i, &v)| mask | ((v != 0) as u16) << i)
}

impl DbbBlock {
    /// Compresses one expanded block of exactly `config.bz()` elements.
    ///
    /// # Errors
    ///
    /// Returns [`DbbError::BoundExceeded`] (with `block == 0`) if the data
    /// has more non-zeros than `config.nnz()`.
    ///
    /// # Panics
    ///
    /// Panics if `data.len() != config.bz()`.
    pub fn compress(data: &[i8], config: DbbConfig) -> Result<Self, DbbError> {
        assert_eq!(data.len(), config.bz(), "block data must be exactly BZ elements");
        Self::pack(data, config)
    }

    /// [`DbbBlock::compress`] for a block of at most `config.bz()`
    /// elements: a shorter (tail) block reads as zero-padded.
    pub(crate) fn pack(data: &[i8], config: DbbConfig) -> Result<Self, DbbError> {
        debug_assert!(data.len() <= config.bz());
        let mask = nonzero_mask(data);
        let found = mask.count_ones() as usize;
        if found > config.nnz() {
            return Err(DbbError::BoundExceeded { block: 0, found, bound: config.nnz() });
        }
        Ok(Self::from_mask(data, mask, config))
    }

    /// The block storing `data[i]` for each set bit `i` of `mask`, where
    /// `data` is an expanded block of at most `config.bz()` elements. The
    /// caller guarantees that those are exactly the non-zeros it keeps:
    /// at most `config.nnz()` of them, none zero.
    pub(crate) fn from_mask(data: &[i8], mask: u16, config: DbbConfig) -> Self {
        debug_assert!(mask.count_ones() as usize <= config.nnz());
        let mut values = [0i8; MAX_BZ];
        let mut bits = mask;
        for slot in values.iter_mut().take(mask.count_ones() as usize) {
            *slot = data[bits.trailing_zeros() as usize];
            bits &= bits - 1;
        }
        debug_assert!(values.iter().take(mask.count_ones() as usize).all(|&v| v != 0));
        Self { values, mask, config }
    }

    /// The stored (compressed) values, length exactly `config.nnz()`.
    pub fn values(&self) -> &[i8] {
        &self.values[..self.config.nnz()]
    }

    /// The positional bitmask `M`: bit `i` set iff expanded position `i`
    /// holds a non-zero.
    pub fn mask(&self) -> u16 {
        self.mask
    }

    /// The block's configuration.
    pub fn config(&self) -> DbbConfig {
        self.config
    }

    /// Number of genuinely non-zero values stored (mask population count).
    pub fn nnz(&self) -> usize {
        self.mask.count_ones() as usize
    }

    /// Expands back to the dense `BZ`-element block.
    pub fn decompress(&self) -> Vec<i8> {
        let mut out = vec![0i8; self.config.bz()];
        self.scatter_into(&mut out);
        out
    }

    /// Writes the stored non-zeros to their expanded positions in `out`
    /// (which the caller has zeroed); positions past `out.len()` — a
    /// tail block's padding — never hold one.
    pub(crate) fn scatter_into(&self, out: &mut [i8]) {
        for (i, v) in self.nonzeros() {
            out[i] = v;
        }
    }

    /// The value at expanded position `pos`, resolved through the mask —
    /// what the hardware's `M`-controlled mux (Fig. 6c/6e) steers to a MAC.
    ///
    /// # Panics
    ///
    /// Panics if `pos >= config.bz()`.
    pub fn value_at(&self, pos: usize) -> i8 {
        assert!(pos < self.config.bz(), "position {pos} out of block");
        if self.mask & (1 << pos) == 0 {
            0
        } else {
            // Index into compressed storage = number of set mask bits
            // below `pos` (the mux select logic).
            let below = (self.mask & ((1 << pos) - 1)).count_ones() as usize;
            self.values[below]
        }
    }

    /// Iterator over `(expanded_position, value)` of the stored non-zeros,
    /// in ascending position order — the serialization order of the
    /// time-unrolled datapath (Fig. 6e).
    pub fn nonzeros(&self) -> impl Iterator<Item = (usize, i8)> + '_ {
        let mut bits = self.mask;
        self.values.iter().map_while(move |&v| {
            (bits != 0).then(|| {
                let pos = bits.trailing_zeros() as usize;
                bits &= bits - 1;
                (pos, v)
            })
        })
    }

    /// Storage footprint in bytes: `NNZ` values + mask bytes.
    pub fn storage_bytes(&self) -> usize {
        self.config.block_bytes()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn cfg48() -> DbbConfig {
        DbbConfig::new(4, 8)
    }

    #[test]
    fn paper_fig5_example() {
        // Fig. 5: a 4/8 block keeps the non-zeros and a bitmask.
        let data = [0, 9, 0, 4, 3, 0, 5, 0];
        let b = DbbBlock::compress(&data, cfg48()).unwrap();
        assert_eq!(b.values(), &[9, 4, 3, 5]);
        assert_eq!(b.mask(), 0b0101_1010);
        assert_eq!(b.decompress(), data);
        assert_eq!(b.nnz(), 4);
        assert_eq!(b.storage_bytes(), 5);
    }

    #[test]
    fn underfull_block_zero_pads() {
        let data = [0, 0, -3, 0, 0, 0, 0, 0];
        let b = DbbBlock::compress(&data, cfg48()).unwrap();
        assert_eq!(b.values(), &[-3, 0, 0, 0]);
        assert_eq!(b.nnz(), 1);
        assert_eq!(b.decompress(), data);
    }

    #[test]
    fn bound_violation_detected() {
        let data = [1, 2, 3, 4, 5, 0, 0, 0];
        let err = DbbBlock::compress(&data, cfg48()).unwrap_err();
        assert_eq!(err, DbbError::BoundExceeded { block: 0, found: 5, bound: 4 });
    }

    #[test]
    fn value_at_mux_semantics() {
        let data = [0, 9, 0, 4, 3, 0, 5, 0];
        let b = DbbBlock::compress(&data, cfg48()).unwrap();
        for (i, &expect) in data.iter().enumerate() {
            assert_eq!(b.value_at(i), expect, "position {i}");
        }
    }

    #[test]
    fn nonzeros_in_position_order() {
        let data = [0, 9, 0, 4, 3, 0, 5, 0];
        let b = DbbBlock::compress(&data, cfg48()).unwrap();
        let nz: Vec<_> = b.nonzeros().collect();
        assert_eq!(nz, vec![(1, 9), (3, 4), (4, 3), (6, 5)]);
    }

    #[test]
    fn dense_config_roundtrip() {
        let data = [1, 2, 3, 4, 5, 6, 7, 8];
        let b = DbbBlock::compress(&data, DbbConfig::dense(8)).unwrap();
        assert_eq!(b.decompress(), data);
        assert_eq!(b.storage_bytes(), 8);
    }

    #[test]
    fn block_is_a_small_inline_value() {
        assert_eq!(std::mem::size_of::<DbbBlock>(), 20);
    }

    #[test]
    fn all_zero_block() {
        let data = [0i8; 8];
        let b = DbbBlock::compress(&data, cfg48()).unwrap();
        assert_eq!(b.nnz(), 0);
        assert_eq!(b.mask(), 0);
        assert_eq!(b.decompress(), data);
        assert!(b.nonzeros().next().is_none());
    }
}
