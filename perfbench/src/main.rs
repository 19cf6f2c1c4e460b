//! Layered performance benchmark for the S2TA workspace.
//!
//! One workload per process: `s2ta-perfbench --workload <name> --seed
//! <n> --seconds <s> --trace <0|1>`. The last stdout line is one JSON
//! object `{"correct", "attempted", "failed", "metrics"}`; the lines
//! before it are a host manifest and a human-readable table. With
//! `--trace 0` the metrics are the end-to-end set, measured untraced;
//! with `--trace 1` they are the per-layer set, which additionally
//! needs a one-worker untraced twin and a traced pass. Any failed
//! output check makes the result `correct: false` and the exit code 1.
//!
//! See `perfbench/README.md` for the workloads, the metric
//! definitions and the per-layer prediction table.

mod serving;
mod zoo;

use std::collections::BTreeMap;
use std::process::ExitCode;
use std::time::{Duration, Instant};

/// Set-up samples per run. A sample is one set-up, or for a set-up
/// shorter than [`SETUP_SAMPLE_SECONDS`] a batch of back-to-back
/// set-ups lasting about that long. Host speed on a shared machine
/// shifts for seconds at a time; a sample that long averages over those
/// shifts, so a set-up of microseconds is timed as steadily as one of
/// seconds. `setup_s` is the median sample per set-up.
const MIN_SETUPS: usize = 3;
const SETUP_SAMPLE_SECONDS: f64 = 1.0;

/// End-to-end metrics, printed with `--trace 0` (names and units match
/// `BENCHMARK.json`).
const END_TO_END: &[(&str, &str)] = &[
    ("setup_s", "s"),
    ("sim_gmac_per_host_s", "GMAC/s"),
    ("peak_rss_mb", "MiB"),
    ("p50_cycles", "cycles"),
    ("p99_cycles", "cycles"),
    ("goodput_ips", "inf/s"),
    ("uj_per_inf", "uJ"),
    ("fig11_speedup_err", "ratio"),
    ("fig11_energy_err", "ratio"),
];

/// Per-layer metrics, printed with `--trace 1`. A layer a workload does
/// not exercise reports 0 (the "flat on" column of the prediction
/// table).
const PER_LAYER: &[(&str, &str)] = &[
    ("workload.generate_s", "s"),
    ("plan.weights.compiles", "count"),
    ("plan.weights.hits", "count"),
    ("plan.weights.compile_s", "s"),
    ("plan.acts.misses", "count"),
    ("plan.acts.hits", "count"),
    ("plan.acts.cold_us_per_entry", "us"),
    ("plan.acts.resident_mb", "MiB"),
    ("zoo.gen_acts_s", "s"),
    ("zoo.gen_weights_s", "s"),
    ("zoo.prune_s", "s"),
    ("zoo.dap_s", "s"),
    ("zoo.kernel_s.sa-zvcg", "s"),
    ("zoo.kernel_s.s2ta-w", "s"),
    ("zoo.kernel_s.s2ta-aw", "s"),
    ("runner.stage_events_ns", "ns"),
    ("runner.calls", "count"),
    ("fleet.lane.execute_s", "s"),
    ("fleet.lane.share", "ratio"),
    ("fleet.lane.batches", "count"),
    ("fleet.lane.mean_batch", "count"),
    ("fleet.lane.utilization", "ratio"),
    ("fleet.engine.self_s", "s"),
    ("fleet.engine.advances", "count"),
    ("scheduler.form_s", "s"),
    ("scheduler.place_s", "s"),
    ("scheduler.batches", "count"),
    ("scheduler.vectorized_over_engine", "ratio"),
    ("cluster.route_self_s", "s"),
    ("cluster.route_ns_per_arrival", "ns"),
    ("cluster.routed_max_share", "ratio"),
    ("pool.workers", "count"),
    ("pool.parallel_speedup", "ratio"),
    ("report.rollup_s", "s"),
    ("report.drop_s", "s"),
    ("zoo.resnet50v1.aw_speedup", "x"),
    ("zoo.resnet50v1.aw_energy_x", "x"),
    ("zoo.vgg16.aw_speedup", "x"),
    ("zoo.vgg16.aw_energy_x", "x"),
    ("zoo.mobilenetv1.aw_speedup", "x"),
    ("zoo.mobilenetv1.aw_energy_x", "x"),
    ("zoo.alexnet.aw_speedup", "x"),
    ("zoo.alexnet.aw_energy_x", "x"),
    ("trace.wall_s", "s"),
    ("trace.layer_sum_share", "ratio"),
    ("trace.overhead", "ratio"),
];

/// The workloads. `BENCHMARK.json` lists all but `day-cold-random`,
/// which runs by name only: its cold profile fill is also paid in
/// `day-warm-p2c`'s set-up, and a fourth workload does not fit the
/// benchmark's time budget at a run length long enough to be steady.
const WORKLOADS: &[&str] = &["paper-zoo", "day-cold-random", "day-warm-p2c", "fleet-warm"];

/// The paper's Fig. 11 averages for S2TA-AW over SA-ZVCG.
const PAPER_SPEEDUP: f64 = 2.11;
const PAPER_ENERGY_X: f64 = 2.08;

/// One benchmark run: its settings, the metrics it recorded, and the
/// output checks and request outcomes that make up `failed`.
pub struct Run {
    pub seed: u64,
    pub seconds: f64,
    pub trace: bool,
    metrics: BTreeMap<String, f64>,
    /// Extra human-readable annotations per metric (sample counts).
    notes: BTreeMap<String, String>,
    requests: u64,
    unserved: u64,
    checks: u64,
    checks_failed: u64,
}

impl Run {
    /// Records one output check; a failure is reported on stderr and
    /// counts toward `failed`.
    pub fn check(&mut self, ok: bool, what: &str) {
        self.checks += 1;
        if !ok {
            self.checks_failed += 1;
            eprintln!("CHECK FAILED: {what}");
        }
    }

    /// Records `attempted` requests of which `served` were served.
    pub fn requests(&mut self, attempted: usize, served: usize) {
        self.requests += attempted as u64;
        self.unserved += attempted.saturating_sub(served) as u64;
    }

    /// Records a metric value (end-to-end or per-layer, by name).
    pub fn set(&mut self, name: &str, value: f64) {
        assert!(
            END_TO_END.iter().chain(PER_LAYER).any(|(n, _)| *n == name),
            "unknown metric {name}"
        );
        self.metrics.insert(name.to_string(), value);
    }

    /// Records a metric value with a note printed beside it.
    pub fn set_noted(&mut self, name: &str, value: f64, note: String) {
        self.set(name, value);
        self.notes.insert(name.to_string(), note);
    }
}

/// Median of a non-empty sample (mean of the middle pair when even).
pub fn median(values: &[f64]) -> f64 {
    assert!(!values.is_empty(), "median of an empty sample");
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    let mid = v.len() / 2;
    if v.len() % 2 == 1 {
        v[mid]
    } else {
        (v[mid - 1] + v[mid]) / 2.0
    }
}

/// Runs `setup` repeatedly (see [`MIN_SETUPS`]), dropping each result
/// before the next set-up starts; within a batched sample that drop is
/// part of the sample. Returns the median set-up time in seconds and
/// the last result.
pub fn repeat_setup<T>(mut setup: impl FnMut() -> T) -> (f64, T) {
    let mut times = Vec::new();
    let mut last = None;
    while times.len() < MIN_SETUPS {
        drop(last.take());
        let t = Instant::now();
        let mut value = setup();
        let mut count = 1;
        while t.elapsed().as_secs_f64() < SETUP_SAMPLE_SECONDS {
            drop(value);
            value = setup();
            count += 1;
        }
        times.push(t.elapsed().as_secs_f64() / count as f64);
        last = Some(value);
    }
    (median(&times), last.expect("at least one set-up"))
}

/// "median of N <units>, range min..max" for a metric's note.
pub fn sample_note(values: &[f64], units: &str) -> String {
    let min = values.iter().copied().fold(f64::INFINITY, f64::min);
    let max = values.iter().copied().fold(f64::NEG_INFINITY, f64::max);
    format!("median of {} {units}, range {min:.4}..{max:.4}", values.len())
}

/// Records `fig11_*`: the mean S2TA-AW speed-up and energy reduction
/// over SA-ZVCG, each as its relative distance from the paper's
/// average. Returns the two means.
pub fn set_fig11(run: &mut Run, speedups: &[f64], energy_xs: &[f64], what: &str) -> (f64, f64) {
    let mean = |v: &[f64]| v.iter().sum::<f64>() / v.len() as f64;
    let (speedup, energy_x) = (mean(speedups), mean(energy_xs));
    run.set_noted(
        "fig11_speedup_err",
        (speedup - PAPER_SPEEDUP).abs() / PAPER_SPEEDUP,
        format!("{what} {speedup:.3}x vs paper {PAPER_SPEEDUP}x"),
    );
    run.set_noted(
        "fig11_energy_err",
        (energy_x - PAPER_ENERGY_X).abs() / PAPER_ENERGY_X,
        format!("{what} {energy_x:.3}x vs paper {PAPER_ENERGY_X}x"),
    );
    (speedup, energy_x)
}

/// Records the traced pass's wall time, the share of it the measured
/// layer self times cover, and the tracing overhead over the untraced
/// one-worker twin.
///
/// With `every_layer_measured`, the share is checked to be within 10% of
/// the whole. Without it, one layer is the wall's residual, so the
/// measured layers cannot be checked against the wall they are cut from.
pub fn trace_totals(
    run: &mut Run,
    measured_sum: f64,
    wall: f64,
    overhead: f64,
    every_layer_measured: bool,
) {
    let share = measured_sum / wall;
    run.set("trace.wall_s", wall);
    run.set("trace.layer_sum_share", share);
    run.set("trace.overhead", overhead);
    if every_layer_measured {
        run.check(
            (share - 1.0).abs() <= 0.10,
            "layer self times sum to the traced wall within 10%",
        );
    }
}

/// Times one call.
pub fn timed<T>(f: impl FnOnce() -> T) -> (T, Duration) {
    let t = Instant::now();
    let out = f();
    (out, t.elapsed())
}

/// Peak resident set of this process (`VmHWM`) in MiB. Workloads read
/// it after set-up and their first timed unit, so it does not grow with
/// the number of units a fast host fits into `--seconds`.
pub fn peak_rss_mb() -> f64 {
    let status = std::fs::read_to_string("/proc/self/status").unwrap_or_default();
    status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        .map_or(0.0, |kb| kb / 1024.0)
}

/// Output of a short external command, or `"unavailable"`.
fn command_output(program: &str, args: &[&str]) -> String {
    std::process::Command::new(program)
        .args(args)
        .stderr(std::process::Stdio::null())
        .output()
        .ok()
        .filter(|o| o.status.success())
        .map(|o| String::from_utf8_lossy(&o.stdout).trim().to_string())
        .unwrap_or_else(|| "unavailable".to_string())
}

fn json_str(s: &str) -> String {
    format!("\"{}\"", s.replace('\\', "\\\\").replace('"', "\\\""))
}

/// The host manifest recorded with every result, so runs on different
/// hosts (core counts, executor widths, toolchains) are comparable.
fn manifest(workload: &str, run: &Run) -> String {
    let nproc = std::thread::available_parallelism().map_or(0, |n| n.get());
    format!(
        "{{\"workload\":{},\"seed\":{},\"seconds\":{},\"trace\":{},\"nproc\":{},\
         \"executor_workers\":{},\"rustc\":{},\"git_commit\":{},\"profile\":{}}}",
        json_str(workload),
        run.seed,
        run.seconds,
        u8::from(run.trace),
        nproc,
        s2ta_core::pool::Executor::global().workers(),
        json_str(&command_output("rustc", &["-V"])),
        json_str(&command_output("git", &["rev-parse", "HEAD"])),
        json_str(if cfg!(debug_assertions) { "debug" } else { "release" }),
    )
}

fn parse_args() -> Result<(String, u64, f64, bool), String> {
    let mut workload = None;
    let mut seed = s2ta_bench::SEED;
    let mut seconds = 30.0;
    let mut trace = false;
    let mut args = std::env::args().skip(1);
    while let Some(flag) = args.next() {
        let value = args.next().ok_or(format!("{flag} needs a value"))?;
        match flag.as_str() {
            "--workload" => workload = Some(value),
            "--seed" => seed = value.parse().map_err(|e| format!("--seed: {e}"))?,
            "--seconds" => {
                seconds = value.parse().map_err(|e| format!("--seconds: {e}"))?;
                if !(seconds > 0.0 && seconds <= 600.0) {
                    return Err("--seconds must be in (0, 600]".into());
                }
            }
            "--trace" => {
                trace = match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err("--trace must be 0 or 1".into()),
                }
            }
            _ => return Err(format!("unknown flag {flag}")),
        }
    }
    let workload = workload.ok_or("--workload is required")?;
    if !WORKLOADS.contains(&workload.as_str()) {
        return Err(format!("unknown workload {workload}; expected one of {WORKLOADS:?}"));
    }
    Ok((workload, seed, seconds, trace))
}

fn main() -> ExitCode {
    let (workload, seed, seconds, trace) = match parse_args() {
        Ok(args) => args,
        Err(e) => {
            eprintln!("s2ta-perfbench: {e}");
            return ExitCode::from(2);
        }
    };
    let mut run = Run {
        seed,
        seconds,
        trace,
        metrics: BTreeMap::new(),
        notes: BTreeMap::new(),
        requests: 0,
        unserved: 0,
        checks: 0,
        checks_failed: 0,
    };
    println!("manifest {}", manifest(&workload, &run));
    match workload.as_str() {
        "paper-zoo" => zoo::run(&mut run),
        "day-cold-random" => serving::run(&mut run, serving::Kind::DayColdRandom),
        "day-warm-p2c" => serving::run(&mut run, serving::Kind::DayWarmP2c),
        "fleet-warm" => serving::run(&mut run, serving::Kind::FleetWarm),
        _ => unreachable!("validated in parse_args"),
    }

    let failed = run.unserved + run.checks_failed;
    let attempted = run.requests + run.checks;
    let selected = if trace { PER_LAYER } else { END_TO_END };
    let mut fields = Vec::with_capacity(selected.len());
    for (name, unit) in selected {
        let value = match run.metrics.get(*name) {
            Some(v) => *v,
            None if trace => 0.0,
            None => panic!("workload {workload} did not record end-to-end metric {name}"),
        };
        assert!(value.is_finite(), "metric {name} is not finite: {value}");
        let note = run.notes.get(*name).map_or(String::new(), |n| format!("  ({n})"));
        println!("{name:<36} {value:>16.6} {unit}{note}");
        fields.push(format!(
            "{}:{{\"value\":{value},\"unit\":{}}}",
            json_str(name),
            json_str(unit)
        ));
    }
    println!(
        "failed_frac {} ({failed} of {attempted}: {} requests not served, {} of {} checks failed)",
        failed as f64 / attempted.max(1) as f64,
        run.unserved,
        run.checks_failed,
        run.checks
    );
    println!(
        "{{\"correct\":{},\"attempted\":{attempted},\"failed\":{failed},\"metrics\":{{{}}}}}",
        failed == 0,
        fields.join(",")
    );
    if failed == 0 {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}
