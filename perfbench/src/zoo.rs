//! `paper-zoo`: the paper's own Fig. 11 experiment — conv layers of
//! ResNet50V1, VGG16, MobileNetV1 and AlexNet on fresh SA-ZVCG, S2TA-W
//! and S2TA-AW accelerators through the reference datapath, with no
//! serving layer at all. SA-SMT is left out: it costs most of the full
//! sweep's host time and no serving path uses it.

use crate::{median, peak_rss_mb, repeat_setup, sample_note, set_fig11, timed, trace_totals, Run};
use s2ta_core::pool::Executor;
use s2ta_core::{Accelerator, ArchConfig, ArchKind, ModelReport};
use s2ta_dbb::dap::{dap_matrix, LayerNnz};
use s2ta_dbb::{prune, BlockAxis, DbbConfig, DbbMatrix};
use s2ta_energy::TechParams;
use s2ta_models::{alexnet, mobilenet_v1, resnet50_v1, vgg16, ModelSpec};
use s2ta_serve::LatencyHistogram;
use s2ta_sim::{systolic, tpe, EventCounts};
use s2ta_tensor::LayerKind;
use std::time::{Duration, Instant};

/// Swept architectures; SA-ZVCG is the Fig. 11 baseline.
const ARCHS: [ArchKind; 3] = [ArchKind::SaZvcg, ArchKind::S2taW, ArchKind::S2taAw];

/// The `fig11_models` bench's floors on the S2TA-AW averages.
const FLOOR_ENERGY_X: f64 = 1.5;
const FLOOR_SPEEDUP: f64 = 1.6;

/// The sweep's inputs: the model zoo, its `(model index, arch)` units,
/// and one fresh accelerator per unit.
struct Zoo {
    models: [ModelSpec; 4],
    units: Vec<(usize, ArchKind)>,
    accelerators: Vec<Accelerator>,
}

/// The set-up: builds the model zoo and the accelerators. Units run
/// largest first so the two-worker executor is not left waiting on
/// VGG16 at the end.
fn build() -> Zoo {
    let models = [resnet50_v1(), vgg16(), mobilenet_v1(), alexnet()];
    let mut units: Vec<(usize, ArchKind)> =
        (0..models.len()).flat_map(|m| ARCHS.iter().rev().map(move |&k| (m, k))).collect();
    units.sort_by_key(|&(m, _)| std::cmp::Reverse(models[m].conv_macs()));
    let accelerators = units.iter().map(|&(_, k)| Accelerator::preset(k)).collect();
    Zoo { models, units, accelerators }
}

/// One sweep on the global executor. `run_model_conv_only` plans every
/// layer uncached, so the accelerators stay as fresh as at set-up.
fn sweep(zoo: &Zoo, seed: u64) -> Vec<ModelReport> {
    let jobs: Vec<usize> = (0..zoo.units.len()).collect();
    Executor::global()
        .map(&jobs, |&u| zoo.accelerators[u].run_model_conv_only(&zoo.models[zoo.units[u].0], seed))
}

pub fn run(run: &mut Run) {
    let tech = TechParams::tsmc16();
    let (setup, zoo) = repeat_setup(build);
    run.set("setup_s", setup);
    let (models, units) = (&zoo.models, &zoo.units);
    let sweep_macs: u64 = units.iter().map(|&(m, _)| models[m].conv_macs()).sum();

    // Timed phase: whole sweeps on the global executor, for at least
    // `--seconds` seconds.
    let phase = Instant::now();
    let mut rates = Vec::new();
    let mut walls = Vec::new();
    let mut reference: Option<Vec<ModelReport>> = None;
    while rates.is_empty() || phase.elapsed().as_secs_f64() < run.seconds {
        let (reports, wall) = timed(|| sweep(&zoo, run.seed));
        if rates.is_empty() {
            run.set("peak_rss_mb", peak_rss_mb());
        }
        rates.push(sweep_macs as f64 / wall.as_secs_f64() / 1e9);
        walls.push(wall.as_secs_f64());
        run.requests(units.len(), reports.len());
        match &reference {
            None => reference = Some(reports),
            Some(r) => run.check(*r == reports, "paper-zoo sweep repeats exactly"),
        }
    }
    let reports = reference.expect("at least one sweep");
    run.check(
        zoo.accelerators.iter().all(|a| a.plans().is_empty() && a.act_profiles().is_empty()),
        "sweeps leave their accelerators' caches empty (every sweep runs on fresh accelerators)",
    );
    run.set_noted(
        "sim_gmac_per_host_s",
        median(&rates),
        sample_note(&rates, &format!("sweeps of {:.3} GMAC", sweep_macs as f64 / 1e9)),
    );

    // Simulated metrics: each (model, arch) run is one batch-1
    // inference.
    let hist = LatencyHistogram::collect(reports.iter().map(|r| r.total_cycles));
    let n = reports.len();
    run.set_noted("p50_cycles", hist.percentile(50.0) as f64, format!("n={n}"));
    run.set_noted("p99_cycles", hist.percentile(99.0) as f64, format!("n={n}"));
    let sim_seconds: f64 = reports.iter().map(|r| r.seconds(&tech)).sum();
    run.set("goodput_ips", n as f64 / sim_seconds);
    let energy_uj: f64 = reports.iter().map(|r| r.energy(&tech).total_uj()).sum();
    run.set("uj_per_inf", energy_uj / n as f64);

    let of = |m: usize, k: ArchKind| {
        let i = units.iter().position(|&u| u == (m, k)).expect("unit swept");
        &reports[i]
    };
    let mut speedups = Vec::new();
    let mut energy_xs = Vec::new();
    let mut w_energy_xs = Vec::new();
    for (m, model) in models.iter().enumerate() {
        let key = model.name.to_lowercase();
        let base = of(m, ArchKind::SaZvcg);
        let aw = of(m, ArchKind::S2taAw);
        speedups.push(aw.speedup_vs(base));
        energy_xs.push(aw.energy_reduction_vs(base, &tech));
        w_energy_xs.push(of(m, ArchKind::S2taW).energy_reduction_vs(base, &tech));
        run.set(&format!("zoo.{key}.aw_speedup"), speedups[m]);
        run.set(&format!("zoo.{key}.aw_energy_x"), energy_xs[m]);
    }
    let (speedup, energy_x) = set_fig11(run, &speedups, &energy_xs, "S2TA-AW");
    let w_energy_x = w_energy_xs.iter().sum::<f64>() / w_energy_xs.len() as f64;
    run.check(energy_x > FLOOR_ENERGY_X, "Fig. 11 floor: S2TA-AW energy > 1.5x SA-ZVCG");
    run.check(speedup > FLOOR_SPEEDUP, "Fig. 11 floor: S2TA-AW speed > 1.6x SA-ZVCG");
    run.check(energy_x > w_energy_x, "Fig. 11: joint sparsity beats weight-only");

    if run.trace {
        traced(run, models, units, &reports, median(&walls));
    }
}

/// Per-layer pass: a one-worker untraced twin of the sweep, then the
/// same sweep replayed step by step through the public datapath calls
/// with a span around each, checked against the twin's events.
fn traced(
    run: &mut Run,
    models: &[ModelSpec],
    units: &[(usize, ArchKind)],
    reports: &[ModelReport],
    parallel_wall: f64,
) {
    run.set("pool.workers", Executor::global().workers() as f64);
    let (twin, twin_wall) = timed(|| {
        units
            .iter()
            .map(|&(m, k)| Accelerator::preset(k).run_model_conv_only(&models[m], run.seed))
            .collect::<Vec<_>>()
    });
    run.check(twin == reports, "one-worker sweep equals the executor sweep");
    run.set("pool.parallel_speedup", twin_wall.as_secs_f64() / parallel_wall);

    let mut spans = Spans::default();
    let mut compiles = 0u64;
    let (replay, replay_wall) = timed(|| {
        units
            .iter()
            .map(|&(m, k)| {
                let model = &models[m];
                let events: Vec<EventCounts> = model
                    .layers
                    .iter()
                    .enumerate()
                    .filter(|(_, l)| l.kind == LayerKind::Conv)
                    .map(|(i, l)| {
                        compiles += 1;
                        replay_layer(&mut spans, k, l, i, run.seed)
                    })
                    .collect();
                events
            })
            .collect::<Vec<_>>()
    });
    let same = replay.iter().zip(reports).all(|(events, r)| {
        events.len() == r.layers.len() && events.iter().zip(&r.layers).all(|(e, l)| *e == l.events)
    });
    run.check(same, "step-by-step replay gives run_model_conv_only's EventCounts");

    let s = |d: Duration| d.as_secs_f64();
    run.set("zoo.gen_weights_s", s(spans.gen_weights));
    run.set("zoo.prune_s", s(spans.prune));
    run.set("zoo.gen_acts_s", s(spans.gen_acts));
    run.set("zoo.dap_s", s(spans.dap));
    for (k, d) in ARCHS.iter().zip(spans.kernel) {
        run.set(&format!("zoo.kernel_s.{}", k.to_string().to_lowercase()), s(d));
    }
    // The reference path plans every conv layer per run, uncached.
    run.set("plan.weights.compiles", compiles as f64);
    run.set("plan.weights.compile_s", s(spans.gen_weights + spans.prune));
    let layer_sum = spans.gen_weights
        + spans.prune
        + spans.gen_acts
        + spans.dap
        + spans.kernel.iter().sum::<Duration>();
    trace_totals(run, s(layer_sum), s(replay_wall), s(replay_wall) / s(twin_wall) - 1.0, true);
}

/// Host time of each reference-path step, summed over the replay.
#[derive(Default)]
struct Spans {
    gen_weights: Duration,
    prune: Duration,
    gen_acts: Duration,
    dap: Duration,
    /// Datapath kernel time per [`ARCHS`] entry.
    kernel: [Duration; 3],
}

/// One conv layer through the same public steps
/// `Accelerator::run_model_conv_only` takes: weight synthesis, W-DBB
/// compression (dense blocks on the unpruned first layer), activation
/// synthesis, DAP for S2TA-AW, and the datapath kernel.
fn replay_layer(
    spans: &mut Spans,
    kind: ArchKind,
    layer: &s2ta_models::LayerSpec,
    layer_index: usize,
    seed: u64,
) -> EventCounts {
    let config = ArchConfig::preset(kind);
    let geom = &config.geometry;
    let first_layer = layer_index == 0;
    let (w, d) = timed(|| layer.gen_weights(seed));
    spans.gen_weights += d;
    let wdbb = kind.uses_wdbb().then(|| {
        let (wdbb, d) = timed(|| {
            if first_layer {
                DbbMatrix::compress(&w, BlockAxis::Rows, DbbConfig::dense(geom.bz))
                    .expect("dense bound always satisfiable")
            } else {
                prune::prune_and_compress(&w, config.wdbb)
            }
        });
        spans.prune += d;
        wdbb
    });
    let (a, d) = timed(|| layer.gen_acts(seed));
    spans.gen_acts += d;
    let arch = ARCHS.iter().position(|&k| k == kind).expect("swept arch");
    match (kind, wdbb) {
        (ArchKind::SaZvcg, None) => {
            let (events, d) = timed(|| systolic::run_perf(geom, true, &w, &a));
            spans.kernel[arch] += d;
            events
        }
        (ArchKind::S2taW, Some(wdbb)) => {
            let (events, d) = timed(|| tpe::run_wdbb_perf(geom, &wdbb, &a));
            spans.kernel[arch] += d;
            events
        }
        (ArchKind::S2taAw, Some(wdbb)) => {
            let adbb = if first_layer { LayerNnz::Dense } else { layer.suggested_adbb() };
            let ((pruned, dap_events), d) = timed(|| dap_matrix(&a, geom.bz, adbb));
            spans.dap += d;
            let (mut events, d) = timed(|| tpe::run_aw_perf(geom, &wdbb, &pruned));
            spans.kernel[arch] += d;
            events.dap_stages += dap_events.stages;
            events.dap_comparisons += dap_events.comparisons;
            events
        }
        (k, _) => unreachable!("{k} is not swept"),
    }
}
