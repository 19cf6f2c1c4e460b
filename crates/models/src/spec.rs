//! Layer and model specifications.

use rand::rngs::StdRng;
use rand::SeedableRng;
use s2ta_dbb::dap::{LayerNnz, MAX_DAP_STAGES};
use s2ta_tensor::sparsity::SparseSpec;
use s2ta_tensor::{GemmShape, LayerKind, Matrix};
use std::fmt;

/// One layer of a CNN workload, already lowered to its GEMM form.
#[derive(Debug, Clone, PartialEq)]
pub struct LayerSpec {
    /// Layer name (e.g. `"conv2"`).
    pub name: String,
    /// Layer kind (conv / depthwise / fully-connected).
    pub kind: LayerKind,
    /// The GEMM the layer lowers to (`M` = output channels, `K` =
    /// reduction, `N` = output pixels; depthwise layers are modelled as
    /// an `M = channels, K = R*S` GEMM with the same MAC count).
    pub gemm: GemmShape,
    /// Fraction of zero weights after pruning.
    pub weight_sparsity: f64,
    /// Fraction of zero input activations (ReLU-induced).
    pub act_sparsity: f64,
}

impl LayerSpec {
    /// Creates a layer spec.
    ///
    /// # Panics
    ///
    /// Panics if a sparsity is outside `[0, 1]`.
    pub fn new(
        name: impl Into<String>,
        kind: LayerKind,
        gemm: GemmShape,
        weight_sparsity: f64,
        act_sparsity: f64,
    ) -> Self {
        assert!((0.0..=1.0).contains(&weight_sparsity), "weight sparsity out of range");
        assert!((0.0..=1.0).contains(&act_sparsity), "act sparsity out of range");
        Self { name: name.into(), kind, gemm, weight_sparsity, act_sparsity }
    }

    /// Total MAC operations of the layer.
    pub fn macs(&self) -> u64 {
        self.gemm.macs()
    }

    /// Generates the layer's synthetic weight matrix (`M x K`) with the
    /// profiled sparsity. Deterministic in `(layer, seed)`.
    pub fn gen_weights(&self, seed: u64) -> Matrix {
        let mut rng = StdRng::seed_from_u64(seed ^ self.name_hash() ^ 0x5745_4947);
        SparseSpec::random(self.weight_sparsity).matrix(self.gemm.m, self.gemm.k, &mut rng)
    }

    /// Generates the layer's synthetic input activation matrix (`K x N`)
    /// with the profiled sparsity. Deterministic in `(layer, seed)`.
    pub fn gen_acts(&self, seed: u64) -> Matrix {
        let mut rng = StdRng::seed_from_u64(seed ^ self.name_hash() ^ 0x4143_5453);
        SparseSpec::random(self.act_sparsity).matrix(self.gemm.k, self.gemm.n, &mut rng)
    }

    /// [`LayerSpec::gen_acts`] into recycled storage: bit-identical to
    /// `gen_acts(seed)` but backed by `buf` (a previous matrix's
    /// `into_data`), so a warm per-lane arena regenerates activations
    /// without allocating.
    pub fn gen_acts_into(&self, seed: u64, buf: Vec<i8>) -> Matrix {
        let mut rng = StdRng::seed_from_u64(seed ^ self.name_hash() ^ 0x4143_5453);
        SparseSpec::random(self.act_sparsity).matrix_into(self.gemm.k, self.gemm.n, &mut rng, buf)
    }

    fn name_hash(&self) -> u64 {
        // FNV-1a over the name: stable, dependency-free.
        self.name.bytes().fold(0xcbf2_9ce4_8422_2325u64, |h, b| {
            (h ^ b as u64).wrapping_mul(0x0000_0100_0000_01b3)
        })
    }

    /// The per-layer A-DBB density the paper's tuning would assign
    /// (Sec. 5.2): the expected non-zeros per BZ=8 block rounded up,
    /// clamped to the 5-stage DAP cap — above it the layer runs dense.
    /// The first (image-input) layer is dense by construction.
    pub fn suggested_adbb(&self) -> LayerNnz {
        let expected = 8.0 * (1.0 - self.act_sparsity);
        // DAP-aware fine-tuning tolerates pruning at the *expected*
        // block density (rounded), not the worst case — the paper's
        // per-layer tuned AlexNet averages 3.9/8.
        let nnz = (expected.round() as usize).max(1);
        if nnz > MAX_DAP_STAGES {
            LayerNnz::Dense
        } else {
            LayerNnz::Prune(nnz)
        }
    }

    /// Whether an output-stationary systolic accelerator is memory-bound
    /// on this layer (paper Sec. 8.3: FC and depthwise layers at batch 1).
    pub fn is_memory_bound(&self) -> bool {
        matches!(self.kind, LayerKind::FullyConnected | LayerKind::Depthwise)
    }
}

impl fmt::Display for LayerSpec {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "{} [{}] {} (w {:.0}%, a {:.0}% zero)",
            self.name,
            self.kind,
            self.gemm,
            self.weight_sparsity * 100.0,
            self.act_sparsity * 100.0
        )
    }
}

/// A whole network: an ordered list of layers.
#[derive(Debug, Clone, PartialEq)]
pub struct ModelSpec {
    /// Model name (e.g. `"AlexNet"`).
    pub name: &'static str,
    /// Layers in execution order.
    pub layers: Vec<LayerSpec>,
}

impl ModelSpec {
    /// Total MACs over all layers.
    pub fn total_macs(&self) -> u64 {
        self.layers.iter().map(LayerSpec::macs).sum()
    }

    /// Total MACs over convolution layers only (the paper's "Conv only"
    /// rows in Table 4).
    pub fn conv_macs(&self) -> u64 {
        self.conv_layers().map(LayerSpec::macs).sum()
    }

    /// Iterator over the convolution layers (excluding FC/depthwise).
    pub fn conv_layers(&self) -> impl Iterator<Item = &LayerSpec> {
        self.layers.iter().filter(|l| l.kind == LayerKind::Conv)
    }
}

impl fmt::Display for ModelSpec {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "{} ({} layers, {:.2} GMAC)",
            self.name,
            self.layers.len(),
            self.total_macs() as f64 / 1e9
        )
    }
}

/// The sparsity ramp used to profile a network's layers.
///
/// Mirrors the paper's qualitative description: the image-input layer is
/// nearly dense; ReLU sparsity grows with depth towards ~80%; pruned
/// weights sit at ~50% everywhere except the unpruned first layer.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct SparsityProfile {
    /// Activation sparsity of the first layer's input (image).
    pub first_act: f64,
    /// Activation sparsity at depth fraction 0 (after the first ReLU).
    pub early_act: f64,
    /// Activation sparsity at depth fraction 1 (deepest layers).
    pub late_act: f64,
    /// Weight sparsity of the (unpruned) first layer.
    pub first_weight: f64,
    /// Weight sparsity of pruned layers (4/8 W-DBB -> ~50%).
    pub pruned_weight: f64,
}

impl Default for SparsityProfile {
    fn default() -> Self {
        Self {
            first_act: 0.05,
            early_act: 0.50,
            late_act: 0.80,
            first_weight: 0.10,
            pruned_weight: 0.52,
        }
    }
}

impl SparsityProfile {
    /// Sparsities `(weight, act)` for layer `idx` of `count`.
    pub fn layer(&self, idx: usize, count: usize) -> (f64, f64) {
        if idx == 0 {
            return (self.first_weight, self.first_act);
        }
        let frac = if count <= 2 { 1.0 } else { (idx - 1) as f64 / (count - 2).max(1) as f64 };
        let act = self.early_act + (self.late_act - self.early_act) * frac;
        (self.pruned_weight, act)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn layer(ws: f64, asp: f64) -> LayerSpec {
        LayerSpec::new("t", LayerKind::Conv, GemmShape::new(8, 64, 16), ws, asp)
    }

    #[test]
    fn generation_is_deterministic_and_profiled() {
        let l = layer(0.5, 0.7);
        let w1 = l.gen_weights(9);
        let w2 = l.gen_weights(9);
        assert_eq!(w1, w2);
        assert!((w1.sparsity() - 0.5).abs() < 0.1);
        let a = l.gen_acts(9);
        assert!((a.sparsity() - 0.7).abs() < 0.1);
        // Different streams for weights vs acts.
        assert_ne!(w1.data()[..16], a.data()[..16]);
    }

    /// FNV-1a over a matrix's shape and row-major bytes.
    fn digest(m: &Matrix) -> u64 {
        let shape = [m.rows() as u64, m.cols() as u64];
        let bytes =
            shape.iter().flat_map(|d| d.to_le_bytes()).chain(m.data().iter().map(|&v| v as u8));
        bytes.fold(0xcbf2_9ce4_8422_2325u64, |h, b| {
            (h ^ b as u64).wrapping_mul(0x0000_0100_0000_01b3)
        })
    }

    #[test]
    fn synthesis_digests_are_pinned() {
        // Pinned when the generator was still a `gen_bool` + uniform
        // re-draw loop: any change to what a seed synthesizes — and so
        // to every simulated number downstream — shows up here.
        let resnet = crate::resnet50_v1();
        let vgg = crate::vgg16();
        let got: Vec<(&str, u64, u64)> = [&resnet.layers[10], &vgg.layers[7]]
            .into_iter()
            .map(|l| (l.name.as_str(), digest(&l.gen_weights(42)), digest(&l.gen_acts(42))))
            .collect();
        assert_eq!(
            got,
            [
                ("res2c_1x1b", 0xa75e_f1c4_10ba_5de7, 0x9012_3158_25c3_ddc1),
                ("conv4_1", 0xbc0a_e6b7_71f9_8629, 0xe0f2_29a6_82df_6586),
            ]
        );
    }

    #[test]
    fn adbb_suggestion_follows_sparsity() {
        assert_eq!(layer(0.5, 0.05).suggested_adbb(), LayerNnz::Dense); // 7.6 -> dense
        assert_eq!(layer(0.5, 0.5).suggested_adbb(), LayerNnz::Prune(4));
        assert_eq!(layer(0.5, 0.75).suggested_adbb(), LayerNnz::Prune(2));
        assert_eq!(layer(0.5, 0.99).suggested_adbb(), LayerNnz::Prune(1));
    }

    #[test]
    fn profile_ramps_monotonically() {
        let p = SparsityProfile::default();
        let n = 10;
        let mut prev = 0.0;
        for i in 1..n {
            let (w, a) = p.layer(i, n);
            assert!((w - p.pruned_weight).abs() < 1e-12);
            assert!(a >= prev, "ramp must be non-decreasing");
            prev = a;
        }
        let (w0, a0) = p.layer(0, n);
        assert_eq!((w0, a0), (p.first_weight, p.first_act));
    }

    #[test]
    fn memory_bound_classification() {
        let fc =
            LayerSpec::new("fc", LayerKind::FullyConnected, GemmShape::new(10, 10, 1), 0.5, 0.5);
        assert!(fc.is_memory_bound());
        assert!(!layer(0.5, 0.5).is_memory_bound());
    }

    #[test]
    fn display_includes_shape() {
        let l = layer(0.5, 0.5);
        assert!(l.to_string().contains("8x64x16"));
    }
}
