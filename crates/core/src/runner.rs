//! The accelerator runner: layers and models through the simulated
//! datapaths, with the DBB toolchain applied where configured.

use crate::plan::ActProfile;
use crate::plan::{ActProfileCache, LayerPlan, PlannedWeights, WeightPlanCache, WeightResidency};
use crate::scratch::Scratch;
use crate::{ArchConfig, ArchKind, LayerReport, ModelReport};
use s2ta_dbb::dap::{dap_matrix, LayerNnz};
use s2ta_dbb::{prune, BlockAxis, DbbConfig, DbbMatrix};
use s2ta_models::{LayerSpec, ModelSpec};
use s2ta_sim::{smt, systolic, tpe, EventCounts};
use s2ta_tensor::Matrix;
use std::sync::Arc;

/// Which host-side execution path planned runs
/// ([`Accelerator::run_stage`] and everything built on it) take.
///
/// Both paths produce **byte-identical** [`EventCounts`] (golden- and
/// property-tested per architecture); they differ only in host work.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum ExecPath {
    /// Materialize the dense activation operands per call and re-derive
    /// their sparsity structure (the original path, kept as the golden
    /// reference and for one-off runs where caching cannot pay off).
    Reference,
    /// Replay precompiled strip profiles — the weight profile baked
    /// into the [`LayerPlan`], the activation profile memoized in the
    /// shared [`ActProfileCache`] — so a repeated `(layer, act seed)`
    /// simulation is an `O(K)`-per-tile profile dot product with no
    /// matrix materialization (the serving hot loop).
    #[default]
    Profiled,
}

/// A configured accelerator instance.
///
/// Construction is cheap; per-run state lives in the inputs, so one
/// instance can be reused across layers, models and seeds. The instance
/// additionally carries a shared [`WeightPlanCache`] (so repeated model
/// runs compile each model's weights — W-DBB pruning + compression —
/// exactly once) and a shared [`ActProfileCache`] (so repeated
/// simulations of one `(layer, act seed)` reuse its strip profiles);
/// clones share both caches. Equality compares the configuration only.
#[derive(Debug, Clone)]
pub struct Accelerator {
    config: ArchConfig,
    plans: WeightPlanCache,
    act_profiles: ActProfileCache,
    exec_path: ExecPath,
}

/// Borrowed view of weights in either datapath format, so the unplanned
/// `run_gemm` path avoids cloning dense operands.
#[derive(Debug, Clone, Copy)]
enum WeightsRef<'a> {
    Dense(&'a Matrix),
    Dbb(&'a DbbMatrix),
}

impl PartialEq for Accelerator {
    fn eq(&self, other: &Self) -> bool {
        self.config == other.config
    }
}

impl Accelerator {
    /// Creates an accelerator from an explicit configuration.
    pub fn new(config: ArchConfig) -> Self {
        Self {
            config,
            plans: WeightPlanCache::new(),
            act_profiles: ActProfileCache::new(),
            exec_path: ExecPath::default(),
        }
    }

    /// Creates the paper's preset design point for `kind`.
    pub fn preset(kind: ArchKind) -> Self {
        Self::new(ArchConfig::preset(kind))
    }

    /// The configuration.
    pub fn config(&self) -> &ArchConfig {
        &self.config
    }

    /// The shared weight-plan cache.
    pub fn plans(&self) -> &WeightPlanCache {
        &self.plans
    }

    /// Replaces this accelerator's plan cache with `plans`, so a set of
    /// accelerators — possibly of **different** architectures, such as
    /// the lanes of a heterogeneous serving fleet — share one memo
    /// table. The cache is keyed by `(arch, model, seed)`, so sharing
    /// across kinds can never serve a mismatched plan.
    pub fn sharing_plans(mut self, plans: WeightPlanCache) -> Self {
        self.plans = plans;
        self
    }

    /// The shared activation-profile cache.
    pub fn act_profiles(&self) -> &ActProfileCache {
        &self.act_profiles
    }

    /// Replaces this accelerator's activation-profile cache, so a set
    /// of accelerators (e.g. a fleet's lanes) share one memo table.
    /// Entries are keyed by `(layer, act seed, strip width, bz, adbb)`,
    /// so sharing across architecture kinds can never serve a
    /// mismatched profile — kinds whose geometries agree simply reuse
    /// each other's work.
    pub fn sharing_act_profiles(mut self, act_profiles: ActProfileCache) -> Self {
        self.act_profiles = act_profiles;
        self
    }

    /// The host-side execution path planned runs take (default:
    /// [`ExecPath::Profiled`]).
    pub fn exec_path(&self) -> ExecPath {
        self.exec_path
    }

    /// Selects the host-side execution path for planned runs. Simulated
    /// results are byte-identical either way; [`ExecPath::Reference`]
    /// re-materializes operands per call and exists as the golden
    /// oracle (and baseline for host-throughput benchmarking).
    pub fn with_exec_path(mut self, path: ExecPath) -> Self {
        self.exec_path = path;
        self
    }

    /// Runs one GEMM with explicit operands and an explicit A-DBB
    /// decision. `first_layer` selects the dense weight fall-back (the
    /// paper leaves layer 1 unpruned, Table 3 note 2).
    ///
    /// Returns the event counts (fast path — no functional result).
    ///
    /// # Panics
    ///
    /// Panics if operand dimensions disagree with each other.
    pub fn run_gemm(
        &self,
        w: &Matrix,
        a: &Matrix,
        adbb: LayerNnz,
        first_layer: bool,
    ) -> EventCounts {
        if self.config.kind.uses_wdbb() {
            let wdbb = self.compress_weights(w, first_layer);
            self.run_gemm_planned(&PlannedWeights::Dbb(wdbb), a, adbb)
        } else {
            self.dispatch(WeightsRef::Dense(w), a, adbb)
        }
    }

    /// Runs one GEMM with weights already compiled to the datapath
    /// format (see [`crate::plan`]). This is the hot path the plan
    /// cache amortizes: no pruning or compression happens here.
    pub fn run_gemm_planned(&self, w: &PlannedWeights, a: &Matrix, adbb: LayerNnz) -> EventCounts {
        let w = match w {
            PlannedWeights::Dense(m) => WeightsRef::Dense(m),
            PlannedWeights::Dbb(d) => WeightsRef::Dbb(d),
        };
        self.dispatch(w, a, adbb)
    }

    /// Dispatches compiled operands to the architecture's datapath.
    ///
    /// # Panics
    ///
    /// Panics if the weight format does not match the architecture
    /// (dense weights on a TPE datapath or vice versa).
    fn dispatch(&self, w: WeightsRef<'_>, a: &Matrix, adbb: LayerNnz) -> EventCounts {
        let geom = &self.config.geometry;
        match (self.config.kind, w) {
            (ArchKind::Sa, WeightsRef::Dense(w)) => systolic::run_perf(geom, false, w, a),
            (ArchKind::SaZvcg, WeightsRef::Dense(w)) => systolic::run_perf(geom, true, w, a),
            (ArchKind::SaSmtT2Q2 | ArchKind::SaSmtT2Q4, WeightsRef::Dense(w)) => {
                smt::run_sampled(geom, self.config.smt, w, a, self.config.smt_sample_tiles).events
            }
            (ArchKind::S2taW, WeightsRef::Dbb(wdbb)) => tpe::run_wdbb_perf(geom, wdbb, a),
            (ArchKind::S2taAw, WeightsRef::Dbb(wdbb)) => {
                let (adbb_m, dap_events) = dap_matrix(a, geom.bz, adbb);
                let mut events = tpe::run_aw_perf(geom, wdbb, &adbb_m);
                events.dap_stages += dap_events.stages;
                events.dap_comparisons += dap_events.comparisons;
                events
            }
            (kind, _) => panic!("weight plan format does not match architecture {kind}"),
        }
    }

    /// Runs one layer from its compiled plan on activation inputs drawn
    /// from `act_seed`, **without materializing the activation matrix**
    /// for the profile-factorizable datapaths: the weight strip profile
    /// comes baked into the [`LayerPlan`], the activation strip profile
    /// from the shared [`ActProfileCache`], and the per-tile event
    /// counts from the `O(K)` profile dot product. Byte-identical to
    /// [`Accelerator::run_layer_planned`] (golden- and property-tested
    /// per architecture).
    ///
    /// The SMT architectures are the one exception: their FIFO
    /// backpressure timing depends on the joint non-zero *positions* of
    /// both operands, which no per-strip profile determines, so their
    /// sampled tiles still regenerate the activation matrix — the
    /// event counting is profile-driven regardless.
    ///
    /// # Panics
    ///
    /// Panics if `plan` was not compiled for this architecture.
    pub fn run_layer_profiled(
        &self,
        plan: &LayerPlan,
        layer: &LayerSpec,
        act_seed: u64,
        residency: WeightResidency,
    ) -> LayerReport {
        let geom = &self.config.geometry;
        let prof = self.act_profile(plan, layer, act_seed);
        let (k, n) = prof.shape();
        let wp = plan.weight_profile();
        let mut events = match (self.config.kind, plan.weights()) {
            (ArchKind::Sa, PlannedWeights::Dense(w)) => {
                systolic::run_perf_profiled(geom, false, w.rows(), k, n, wp, prof.dense())
            }
            (ArchKind::SaZvcg, PlannedWeights::Dense(w)) => {
                systolic::run_perf_profiled(geom, true, w.rows(), k, n, wp, prof.dense())
            }
            (ArchKind::SaSmtT2Q2 | ArchKind::SaSmtT2Q4, PlannedWeights::Dense(w)) => {
                let a = layer.gen_acts(act_seed);
                smt::run_sampled_profiled(
                    geom,
                    self.config.smt,
                    w,
                    &a,
                    self.config.smt_sample_tiles,
                    wp,
                    prof.dense_from(&a),
                )
            }
            (ArchKind::S2taW, PlannedWeights::Dbb(wdbb)) => {
                tpe::run_wdbb_perf_profiled(geom, wdbb, n, wp, prof.dense())
            }
            (ArchKind::S2taAw, PlannedWeights::Dbb(wdbb)) => {
                let postdap = prof.postdap_side();
                let mut events =
                    tpe::run_aw_perf_profiled(geom, wdbb, n, postdap.config, wp, &postdap.profile);
                events.dap_stages += postdap.events.stages;
                events.dap_comparisons += postdap.events.comparisons;
                events
            }
            (kind, _) => panic!("weight plan format does not match architecture {kind}"),
        };
        if layer.is_memory_bound() {
            let clamp = self.dma_clamp_cycles(plan, (k * n) as u64, residency);
            events.cycles = events.cycles.max(clamp);
        }
        LayerReport { name: layer.name.clone(), macs: layer.macs(), events }
    }

    /// Prunes+compresses weights to the configured W-DBB bound, or
    /// compresses densely for the unpruned first layer.
    pub(crate) fn compress_weights(&self, w: &Matrix, first_layer: bool) -> DbbMatrix {
        if first_layer {
            DbbMatrix::compress(w, BlockAxis::Rows, DbbConfig::dense(self.config.geometry.bz))
                .expect("dense bound always satisfiable")
        } else {
            prune::prune_and_compress(w, self.config.wdbb)
        }
    }

    /// Runs one layer: generates the profiled synthetic operands and
    /// dispatches to the datapath. `layer_index` 0 selects the
    /// unpruned-weights fall-back.
    ///
    /// FC and depthwise layers are **memory bound** at batch 1 (paper
    /// Sec. 8.3): their weights stream from DRAM without reuse, so the
    /// layer latency is clamped to the DMA transfer time of the
    /// (possibly compressed) operands. DBB architectures still gain on
    /// these layers — from bandwidth compression, not compute.
    pub fn run_layer(&self, layer: &LayerSpec, layer_index: usize, seed: u64) -> LayerReport {
        let plan = self.plan_layer(layer, layer_index, seed);
        self.run_layer_planned(&plan, layer, seed, WeightResidency::Streamed)
    }

    /// Runs a whole model (all layers, including memory-bound FC and
    /// depthwise layers, as in the paper's full-model results).
    ///
    /// Weights are compiled through the shared [`WeightPlanCache`], so
    /// repeated invocations for the same `(model, seed)` skip the
    /// W-DBB pruning/compression work entirely.
    pub fn run_model(&self, model: &ModelSpec, seed: u64) -> ModelReport {
        let plan = self.plan_model(model, seed);
        self.run_model_planned(&plan, model, seed)
    }

    /// Runs a whole model from a compiled plan on activation inputs
    /// drawn from `act_seed` (which may differ from the plan's weight
    /// seed: one set of weights, many inputs).
    ///
    /// # Panics
    ///
    /// Panics if `plan` was not compiled from this `model`.
    pub fn run_model_planned(
        &self,
        plan: &crate::plan::ModelPlan,
        model: &ModelSpec,
        act_seed: u64,
    ) -> ModelReport {
        let layers =
            self.run_stage(plan, model, 0..model.layers.len(), act_seed, WeightResidency::Streamed);
        ModelReport::from_layers(model.name, self.config.kind.to_string(), layers)
    }

    /// Runs a **contiguous layer range** of a compiled plan — one
    /// pipeline stage — on activation inputs drawn from `act_seed`,
    /// returning the per-layer reports in execution order.
    ///
    /// The stage hands its intermediate activations forward implicitly:
    /// activations are a pure function of `(layer, act_seed)`, so the
    /// next stage resumes from the same seed at `layers.end` and the
    /// cross-stage boundary carries no extra state (the *bytes* a real
    /// handoff would move are priced by
    /// [`crate::plan::stage_handoff_bytes`]). Concatenating the reports
    /// of any partition of `0..model.layers.len()` is **byte-identical**
    /// to [`Accelerator::run_model_planned`], which is itself the
    /// single-stage special case.
    ///
    /// `residency` is the weight residency of every layer in the stage:
    /// [`WeightResidency::Streamed`] for a cold stage,
    /// [`WeightResidency::Resident`] when the executing lane just ran
    /// the same stage of the same plan and the stage's weights are
    /// still in its weight SRAM (the pinned-stage reuse a layer
    /// pipeline exists to harvest).
    ///
    /// # Panics
    ///
    /// Panics if `plan` was not compiled from this `model`, or the
    /// range exceeds the model's layer list.
    pub fn run_stage(
        &self,
        plan: &crate::plan::ModelPlan,
        model: &ModelSpec,
        layers: std::ops::Range<usize>,
        act_seed: u64,
        residency: WeightResidency,
    ) -> Vec<LayerReport> {
        assert!(
            plan.matches(model),
            "plan was compiled for '{}', not for '{}' (or the model structure changed)",
            plan.model(),
            model.name
        );
        assert!(
            layers.end <= model.layers.len(),
            "stage {layers:?} exceeds the model's {} layers",
            model.layers.len()
        );
        model.layers[layers.clone()]
            .iter()
            .zip(&plan.layers[layers])
            .map(|(l, lp)| match self.exec_path {
                ExecPath::Reference => self.run_layer_planned(lp, l, act_seed, residency),
                ExecPath::Profiled => self.run_layer_profiled(lp, l, act_seed, residency),
            })
            .collect()
    }

    /// Runs a contiguous layer range of a compiled plan and returns the
    /// stage's **summed** [`EventCounts`] — the allocation-free serving
    /// hot loop.
    ///
    /// Semantically `run_stage(..).iter().map(|l| l.events).sum()`
    /// (byte-identical on the profiled path, which this always takes),
    /// but without building the per-layer report vector or cloning
    /// layer names, and with every transient buffer (the SMT path's
    /// regenerated activation matrix and FIFO-timing buffers, the
    /// activations of cold profile compiles) drawn from `scratch`. After
    /// the caches and the arena are warm, a call allocates nothing; a
    /// cold profile side allocates only its output profile.
    ///
    /// # Panics
    ///
    /// Panics if `plan` was not compiled from this `model`, the range
    /// exceeds the model's layer list, or the plan's weight format does
    /// not match the architecture.
    pub fn run_stage_events(
        &self,
        plan: &crate::plan::ModelPlan,
        model: &ModelSpec,
        layers: std::ops::Range<usize>,
        act_seed: u64,
        residency: WeightResidency,
        scratch: &mut Scratch,
    ) -> EventCounts {
        assert!(
            plan.matches(model),
            "plan was compiled for '{}', not for '{}' (or the model structure changed)",
            plan.model(),
            model.name
        );
        assert!(
            layers.end <= model.layers.len(),
            "stage {layers:?} exceeds the model's {} layers",
            model.layers.len()
        );
        let mut total = EventCounts::default();
        for (l, lp) in model.layers[layers.clone()].iter().zip(&plan.layers[layers]) {
            total += self.layer_events_profiled(lp, l, act_seed, residency, scratch);
        }
        total
    }

    /// Compiles the activation profiles a profiled run of `model` on
    /// `act_seed` reads (each layer's [`ActProfileCache`] entry, with the
    /// side this architecture consumes) and simulates nothing. The
    /// reference path reads no profiles, so there this does nothing.
    pub fn warm_act_profiles(
        &self,
        plan: &crate::plan::ModelPlan,
        model: &ModelSpec,
        act_seed: u64,
        scratch: &mut Scratch,
    ) {
        if self.exec_path == ExecPath::Reference {
            return;
        }
        for (l, lp) in model.layers.iter().zip(&plan.layers) {
            let prof = self.act_profile(lp, l, act_seed);
            match self.config.kind {
                ArchKind::S2taAw => _ = prof.postdap_side_with(scratch),
                _ => _ = prof.dense_with(scratch),
            }
        }
    }

    /// The shared-cache entry of layer `l`'s activations on `seed`
    /// under this array's strip width and DAP scope.
    fn act_profile(&self, lp: &LayerPlan, l: &LayerSpec, seed: u64) -> Arc<ActProfile> {
        let geom = &self.config.geometry;
        self.act_profiles.get_or_profile(l, seed, geom.tile_cols(), geom.bz, lp.adbb())
    }

    /// One layer of [`Accelerator::run_stage_events`]: the profiled
    /// event derivation of [`Accelerator::run_layer_profiled`], routed
    /// through the `_into` datapath entry points and the caller's
    /// [`Scratch`] arena instead of per-call allocations.
    fn layer_events_profiled(
        &self,
        plan: &LayerPlan,
        layer: &LayerSpec,
        act_seed: u64,
        residency: WeightResidency,
        scratch: &mut Scratch,
    ) -> EventCounts {
        let geom = &self.config.geometry;
        let prof = self.act_profile(plan, layer, act_seed);
        let (k, n) = prof.shape();
        let wp = plan.weight_profile();
        let mut events = EventCounts::default();
        match (self.config.kind, plan.weights()) {
            (ArchKind::Sa, PlannedWeights::Dense(w)) => systolic::run_perf_profiled_into(
                geom,
                false,
                w.rows(),
                k,
                n,
                wp,
                prof.dense_with(scratch),
                &mut events,
            ),
            (ArchKind::SaZvcg, PlannedWeights::Dense(w)) => systolic::run_perf_profiled_into(
                geom,
                true,
                w.rows(),
                k,
                n,
                wp,
                prof.dense_with(scratch),
                &mut events,
            ),
            (ArchKind::SaSmtT2Q2 | ArchKind::SaSmtT2Q4, PlannedWeights::Dense(w)) => {
                let a = layer.gen_acts_into(act_seed, std::mem::take(&mut scratch.acts));
                smt::run_sampled_profiled_into(
                    geom,
                    self.config.smt,
                    w,
                    &a,
                    self.config.smt_sample_tiles,
                    wp,
                    prof.dense_from(&a),
                    &mut events,
                    &mut scratch.smt,
                );
                scratch.acts = a.into_data();
            }
            (ArchKind::S2taW, PlannedWeights::Dbb(wdbb)) => tpe::run_wdbb_perf_profiled_into(
                geom,
                wdbb,
                n,
                wp,
                prof.dense_with(scratch),
                &mut events,
            ),
            (ArchKind::S2taAw, PlannedWeights::Dbb(wdbb)) => {
                let postdap = prof.postdap_side_with(scratch);
                tpe::run_aw_perf_profiled_into(
                    geom,
                    wdbb,
                    n,
                    postdap.config,
                    wp,
                    &postdap.profile,
                    &mut events,
                );
                events.dap_stages += postdap.events.stages;
                events.dap_comparisons += postdap.events.comparisons;
            }
            (kind, _) => panic!("weight plan format does not match architecture {kind}"),
        }
        if layer.is_memory_bound() {
            let clamp = self.dma_clamp_cycles(plan, (k * n) as u64, residency);
            events.cycles = events.cycles.max(clamp);
        }
        events
    }

    /// Runs only the convolution layers (the paper's "Conv only" rows).
    ///
    /// Plans per layer without touching the model cache: a cached
    /// full-model plan would compile the (often enormous) FC weights
    /// this path deliberately skips.
    pub fn run_model_conv_only(&self, model: &ModelSpec, seed: u64) -> ModelReport {
        let layers = model
            .layers
            .iter()
            .enumerate()
            .filter(|(_, l)| l.kind == s2ta_tensor::LayerKind::Conv)
            .map(|(i, l)| {
                let plan = self.plan_layer(l, i, seed);
                self.run_layer_planned(&plan, l, seed, WeightResidency::Streamed)
            })
            .collect();
        ModelReport::from_layers(
            format!("{} (conv)", model.name),
            self.config.kind.to_string(),
            layers,
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::StdRng;
    use rand::SeedableRng;
    use s2ta_models::lenet5;
    use s2ta_tensor::sparsity::SparseSpec;

    fn typical_operands(seed: u64, wsp: f64, asp: f64) -> (Matrix, Matrix) {
        let mut rng = StdRng::seed_from_u64(seed);
        (
            SparseSpec::random(wsp).matrix(64, 144, &mut rng),
            SparseSpec::random(asp).matrix(144, 100, &mut rng),
        )
    }

    #[test]
    fn all_archs_run_a_gemm() {
        let (w, a) = typical_operands(1, 0.5, 0.5);
        for kind in ArchKind::ALL {
            let acc = Accelerator::preset(kind);
            let ev = acc.run_gemm(&w, &a, LayerNnz::Prune(4), false);
            assert!(ev.cycles > 0, "{kind} produced no cycles");
            assert!(ev.macs_active > 0, "{kind} produced no active MACs");
        }
    }

    #[test]
    fn s2ta_aw_is_fastest_on_sparse_work() {
        let (w, a) = typical_operands(2, 0.5, 0.625);
        let zvcg = Accelerator::preset(ArchKind::SaZvcg).run_gemm(&w, &a, LayerNnz::Dense, false);
        let aw = Accelerator::preset(ArchKind::S2taAw).run_gemm(&w, &a, LayerNnz::Prune(3), false);
        let speedup = zvcg.cycles as f64 / aw.cycles as f64;
        // 3/8 activations: ~8/3 = 2.67x (paper Fig. 9d), minus skew.
        assert!(speedup > 2.0, "expected >2x, got {speedup:.2}");
    }

    #[test]
    fn zvcg_matches_sa_cycles() {
        let (w, a) = typical_operands(3, 0.5, 0.5);
        let sa = Accelerator::preset(ArchKind::Sa).run_gemm(&w, &a, LayerNnz::Dense, false);
        let zv = Accelerator::preset(ArchKind::SaZvcg).run_gemm(&w, &a, LayerNnz::Dense, false);
        assert_eq!(sa.cycles, zv.cycles);
    }

    #[test]
    fn model_run_aggregates_layers() {
        let acc = Accelerator::preset(ArchKind::SaZvcg);
        let m = lenet5();
        let r = acc.run_model(&m, 11);
        assert_eq!(r.layers.len(), m.layers.len());
        assert_eq!(r.total_cycles, r.layers.iter().map(|l| l.events.cycles).sum::<u64>());
        let conv = acc.run_model_conv_only(&m, 11);
        assert_eq!(conv.layers.len(), 2);
    }

    #[test]
    fn deterministic_across_runs() {
        let acc = Accelerator::preset(ArchKind::S2taAw);
        let m = lenet5();
        assert_eq!(acc.run_model(&m, 5), acc.run_model(&m, 5));
    }

    /// The allocation-free summed-events hot loop is byte-identical to
    /// summing the per-layer report path, on every architecture, for
    /// both residencies, cold and warm arenas alike.
    #[test]
    fn stage_events_match_summed_reports_on_all_archs() {
        let m = lenet5();
        let pool = crate::scratch::ScratchPool::new();
        for kind in ArchKind::ALL {
            let acc = Accelerator::preset(kind);
            let plan = acc.plan_model(&m, 23);
            let n = m.layers.len();
            for residency in [WeightResidency::Streamed, WeightResidency::Resident] {
                for range in [0..n, 1..n.min(3), 0..1] {
                    let reports = acc.run_stage(&plan, &m, range.clone(), 7, residency);
                    let expected =
                        reports.iter().fold(EventCounts::default(), |acc, l| acc + l.events);
                    let mut scratch = pool.checkout();
                    let got =
                        acc.run_stage_events(&plan, &m, range.clone(), 7, residency, &mut scratch);
                    pool.restore(scratch);
                    assert_eq!(got, expected, "{kind} {residency:?} {range:?}");
                }
            }
        }
    }

    #[test]
    fn first_layer_uses_dense_weights() {
        // On layer 0, S2TA-W falls back to dense weight blocks: cycles
        // per block double vs a pruned layer of the same shape.
        let (w, a) = typical_operands(4, 0.1, 0.1);
        let acc = Accelerator::preset(ArchKind::S2taW);
        let first = acc.run_gemm(&w, &a, LayerNnz::Dense, true);
        let pruned = acc.run_gemm(&w, &a, LayerNnz::Dense, false);
        assert!(first.cycles > pruned.cycles);
    }
}
