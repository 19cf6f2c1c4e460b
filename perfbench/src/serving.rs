//! The serving workloads: the canonical diurnal day of
//! `s2ta_bench::cluster_scenario`, served cold by a randomly routed
//! cluster, warm by a power-of-two-choices cluster, and warm by a
//! single heterogeneous fleet through the vectorized `Fleet::serve`.
//!
//! The day is scaled down so a run fits its time budget: 50k requests
//! (the canonical day has 1M) drawing activations from 128 seeds (the
//! canonical pool has 512), which keeps the cold activation-profile
//! compile pass — the set-up cost of the warm workloads — near two
//! seconds while it still dominates a cold serve.

use crate::{median, peak_rss_mb, repeat_setup, sample_note, set_fig11, timed, trace_totals, Run};
use s2ta_bench::{cluster_scenario, hetero_scenario};
use s2ta_core::pool::Executor;
use s2ta_core::{
    Accelerator, ActProfileCache, ArchKind, CacheStats, ModelPlan, Scratch, WeightResidency,
};
use s2ta_energy::{EnergyBreakdown, TechParams};
use s2ta_models::ModelSpec;
use s2ta_serve::{
    Cluster, ClusterReport, DiurnalSpec, Fleet, RateSegment, Request, RoutingPolicy, Scheduler,
    ServeReport, TraceConfig,
};
use s2ta_sim::EventCounts;
use std::collections::HashSet;
use std::sync::Arc;
use std::time::{Duration, Instant};

/// Requests in the benchmark's day.
const DAY_REQUESTS: usize = 50_000;
/// Distinct activation seeds in the benchmark's day.
const ACT_SEED_POOL: usize = 128;
/// Leading requests of the stream replayed through the layer runner
/// (per-call cost, and the served-mix Fig. 11 ratios).
const REPLAY_SAMPLE: usize = 4096;
/// Distinct `(model, act seed)` pairs replayed against a fresh
/// activation-profile cache to price one cold entry.
const KEY_SAMPLE: usize = 256;
/// The weight seed `Fleet::from_spec` compiles plans under.
const FLEET_WEIGHT_SEED: u64 = 42;
/// Alternating warm `Fleet::serve` / `serve_adaptive` pairs timed for
/// `scheduler.vectorized_over_engine`.
const ENGINE_PAIRS: usize = 3;

#[derive(Clone, Copy, PartialEq, Eq)]
pub enum Kind {
    DayColdRandom,
    DayWarmP2c,
    FleetWarm,
}

impl Kind {
    /// Whether the timed phase serves from caches filled in set-up.
    fn warm(self) -> bool {
        self != Kind::DayColdRandom
    }

    fn spec(self, seed: u64) -> DiurnalSpec {
        let mut spec = cluster_scenario::workload();
        spec.seed = seed;
        spec.requests = DAY_REQUESTS;
        spec.act_seed_pool = ACT_SEED_POOL;
        if self == Kind::FleetWarm {
            // One 4-lane fleet instead of the cluster's 8 lanes: the
            // same day at half the arrival rate, so it runs as loaded.
            for s in &mut spec.segments {
                *s = RateSegment {
                    duration_cycles: s.duration_cycles * 2,
                    mean_interarrival_cycles: s.mean_interarrival_cycles * 2.0,
                };
            }
        }
        spec
    }

    /// A fresh target with cold caches.
    fn build(self, seed: u64) -> Target {
        match self {
            Kind::DayColdRandom => Target::Cluster(
                cluster_scenario::cluster(RoutingPolicy::Random).with_router_seed(seed),
            ),
            Kind::DayWarmP2c => Target::Cluster(
                cluster_scenario::cluster(RoutingPolicy::PowerOfTwo).with_router_seed(seed),
            ),
            Kind::FleetWarm => Target::Fleet(
                Fleet::from_spec(hetero_scenario::fleet_spec())
                    .with_policy(cluster_scenario::policy()),
            ),
        }
    }
}

/// What a workload serves with.
enum Target {
    Cluster(Cluster),
    Fleet(Fleet),
}

/// What one serve produced.
// A run holds at most a few of these; boxing the larger report would
// only add indirection.
#[allow(clippy::large_enum_variant)]
#[derive(Clone, PartialEq)]
enum Served {
    Cluster(ClusterReport),
    Fleet(ServeReport),
}

/// The report rollup a user reads after a serve.
struct Rollup {
    p50: u64,
    p99: u64,
    samples: u64,
    goodput_ips: f64,
    uj_per_inf: f64,
}

/// One lane scope — a distinct lane architecture — with its warm
/// plans for every served model. Shares the target's caches.
struct Scope {
    acc: Accelerator,
    plans: Vec<Arc<ModelPlan>>,
}

impl Target {
    fn serve(&self, models: &[ModelSpec], requests: &[Request]) -> Served {
        match self {
            Target::Cluster(c) => Served::Cluster(c.serve(models, requests)),
            Target::Fleet(f) => Served::Fleet(f.serve(models, requests)),
        }
    }

    /// Serves on a one-worker executor (the fleet variant is pinned to
    /// one host worker by [`Target::one_worker`]).
    fn serve_one_worker(&self, models: &[ModelSpec], requests: &[Request]) -> Served {
        match self {
            Target::Cluster(c) => Served::Cluster(c.serve_on(&Executor::new(1), models, requests)),
            Target::Fleet(f) => Served::Fleet(f.serve(models, requests)),
        }
    }

    /// The same target with every fleet pinned to one host worker,
    /// sharing this target's caches (warm if this one is).
    fn one_worker(&self, seed: u64) -> Target {
        match self {
            Target::Cluster(c) => Target::Cluster(
                Cluster::new(
                    c.shards().iter().map(|f| f.clone().with_host_parallelism(1)).collect(),
                )
                .with_routing(c.routing())
                .with_router_seed(seed),
            ),
            Target::Fleet(f) => Target::Fleet(f.clone().with_host_parallelism(1)),
        }
    }

    /// The lanes of one fleet (the first shard of a cluster).
    fn lanes(&self) -> &[s2ta_serve::Lane] {
        match self {
            Target::Cluster(c) => c.shards()[0].lanes(),
            Target::Fleet(f) => f.lanes(),
        }
    }

    /// Weight-plan and activation-profile cache counters (all lanes
    /// share one of each).
    fn cache_stats(&self) -> (CacheStats, CacheStats) {
        let acc = self.lanes()[0].accelerator();
        (acc.plans().stats(), acc.act_profiles().stats())
    }

    /// The lane scopes a batch is simulated on, in lane order.
    fn scopes(&self, models: &[ModelSpec]) -> Vec<Scope> {
        let mut scopes: Vec<Scope> = Vec::new();
        for lane in self.lanes() {
            if !scopes.iter().any(|s| s.acc.config().kind == lane.arch()) {
                let acc = lane.accelerator().clone();
                let plans = models.iter().map(|m| acc.plan_model(m, FLEET_WEIGHT_SEED)).collect();
                scopes.push(Scope { acc, plans });
            }
        }
        scopes
    }
}

/// Index of the scope simulating `kind`.
fn scope_of(scopes: &[Scope], kind: ArchKind) -> usize {
    scopes.iter().position(|s| s.acc.config().kind == kind).expect("a lane of this arch")
}

impl Served {
    fn shards(&self) -> &[ServeReport] {
        match self {
            Served::Cluster(r) => &r.shards,
            Served::Fleet(r) => std::slice::from_ref(r),
        }
    }

    fn rollup(&self, tech: &TechParams) -> Rollup {
        match self {
            Served::Cluster(r) => Rollup {
                p50: r.p50_cycles(),
                p99: r.p99_cycles(),
                samples: r.latency_histogram().total(),
                goodput_ips: r.goodput_ips(tech),
                uj_per_inf: r.energy(tech).total_uj() / r.served_count().max(1) as f64,
            },
            Served::Fleet(r) => Rollup {
                p50: r.p50_cycles(),
                p99: r.p99_cycles(),
                samples: r.latency_histogram().total(),
                goodput_ips: r.goodput_ips(tech),
                uj_per_inf: r.uj_per_inference(tech),
            },
        }
    }

    fn served(&self) -> usize {
        self.shards().iter().map(ServeReport::served_count).sum()
    }

    /// Simulated MACs of every served request.
    fn served_macs(&self, models: &[ModelSpec]) -> u64 {
        let macs =
            |name: &str| models.iter().find(|m| m.name == name).map_or(0, ModelSpec::total_macs);
        self.shards().iter().flat_map(|s| s.served_outcomes()).map(|o| macs(&o.model)).sum()
    }

    /// Request conservation: every request of the stream has exactly
    /// one outcome, and (for a cluster) the router assigned each
    /// exactly once.
    fn conserves(&self, requests: &[Request]) -> bool {
        let mut seen = vec![false; requests.len()];
        let mut outcomes = 0usize;
        for shard in self.shards() {
            for o in &shard.outcomes {
                let id = o.id() as usize;
                if id >= seen.len() || seen[id] {
                    return false;
                }
                seen[id] = true;
                outcomes += 1;
            }
            if shard.served_count() + shard.dropped_count() + shard.failed_count()
                != shard.outcomes.len()
            {
                return false;
            }
        }
        let routed_ok = match self {
            Served::Cluster(r) => r.routed.iter().sum::<usize>() == requests.len(),
            Served::Fleet(_) => true,
        };
        outcomes == requests.len() && routed_ok
    }
}

pub fn run(run: &mut Run, kind: Kind) {
    let tech = TechParams::tsmc16();
    let models = cluster_scenario::models();
    let spec = kind.spec(run.seed);

    // Set-up: stream generation, construction, and for warm workloads
    // the untimed cache-filling serve, whose report is the reference
    // the timed serves must reproduce. `first_serve` keeps the cache
    // activity of the first serve on a fresh target: the fill of a
    // warm workload, a timed cold serve otherwise.
    let mut generate = Vec::new();
    let (setup, (requests, warm_target, mut reference, mut first_serve)) = repeat_setup(|| {
        let (requests, d) = timed(|| spec.generate());
        generate.push(d.as_secs_f64());
        let target = kind.build(run.seed);
        let fill = kind.warm().then(|| target.serve(&models, &requests));
        let stats = kind.warm().then(|| target.cache_stats());
        (requests, target, fill, stats)
    });
    run.set("setup_s", setup);
    run.set("workload.generate_s", median(&generate));
    let n = requests.len();

    // Timed phase: serve + report rollup + report drop, for at least
    // `--seconds` seconds. A cold workload serves from a fresh target
    // each time (built untimed).
    let phase = Instant::now();
    let mut rates = Vec::new();
    let mut serve_walls = Vec::new();
    let mut cold_target: Option<Target> = None;
    while rates.is_empty() || phase.elapsed().as_secs_f64() < run.seconds {
        if !kind.warm() {
            cold_target = Some(kind.build(run.seed));
        }
        let target = cold_target.as_ref().unwrap_or(&warm_target);
        let t = Instant::now();
        let served = target.serve(&models, &requests);
        let serve_wall = t.elapsed();
        std::hint::black_box(served.rollup(&tech));
        let busy = t.elapsed();
        if first_serve.is_none() {
            first_serve = Some(target.cache_stats());
        }

        run.requests(n, served.served());
        run.check(served.conserves(&requests), "request conservation");
        let macs = served.served_macs(&models);
        match &reference {
            Some(r) => run
                .check(*r == served, "timed report equals the reference report (caches are pure)"),
            None => reference = Some(served.clone()),
        }
        let (_, drop_time) = timed(move || drop(served));
        if rates.is_empty() {
            run.set("peak_rss_mb", peak_rss_mb());
        }
        rates.push(macs as f64 / (busy + drop_time).as_secs_f64() / 1e9);
        serve_walls.push(serve_wall.as_secs_f64());
    }
    let reference = reference.expect("at least one serve");
    let target = cold_target.as_ref().unwrap_or(&warm_target);
    run.set_noted(
        "sim_gmac_per_host_s",
        median(&rates),
        sample_note(&rates, &format!("serves of {n} requests")),
    );
    let rollup = reference.rollup(&tech);
    run.set_noted("p50_cycles", rollup.p50 as f64, format!("n={}", rollup.samples));
    run.set_noted("p99_cycles", rollup.p99 as f64, format!("n={}", rollup.samples));
    run.set("goodput_ips", rollup.goodput_ips);
    run.set("uj_per_inf", rollup.uj_per_inf);

    if let (Target::Fleet(fleet), Served::Fleet(vectorized)) = (target, &reference) {
        let engine = fleet.serve_adaptive(&models, &requests, &mut cluster_scenario::policy());
        run.check(engine == *vectorized, "vectorized Fleet::serve equals the engine report");
    }

    let scopes = target.scopes(&models);
    let sample = runner_replay(&scopes, &models, &requests, &tech);
    fig11_served(run, &scopes, &sample);

    if run.trace {
        let (weights, acts) = first_serve.expect("at least one serve");
        run.set("plan.weights.compiles", (weights.misses + weights.bypasses) as f64);
        run.set("plan.weights.hits", weights.hits as f64);
        run.set("plan.acts.misses", acts.misses as f64);
        run.set("plan.acts.hits", acts.hits as f64);
        run.set("runner.calls", sample.calls as f64);
        run.set("runner.stage_events_ns", sample.nanos / sample.calls as f64);
        run.set("plan.acts.cold_us_per_entry", cold_profile_us(&scopes, &models, &requests));
        run.set(
            "plan.acts.resident_mb",
            scopes[0].acc.act_profiles().resident_bytes() as f64 / (1024.0 * 1024.0),
        );
        let ((), compile) = timed(|| {
            for s in &scopes {
                for m in &models {
                    Accelerator::preset(s.acc.config().kind).plan_model(m, FLEET_WEIGHT_SEED);
                }
            }
        });
        run.set("plan.weights.compile_s", compile.as_secs_f64());
        traced(run, kind, target, &scopes, &reference, &requests, &models, median(&serve_walls));
    }
}

/// Batch-1 runs of the stream's leading requests on every lane scope,
/// through `Accelerator::run_stage_events` with a warm `Scratch`.
struct RunnerSample {
    /// `[model][scope]` summed cycles and energy (pJ).
    cycles: Vec<Vec<u64>>,
    energy_pj: Vec<Vec<f64>>,
    calls: u64,
    nanos: f64,
}

fn runner_replay(
    scopes: &[Scope],
    models: &[ModelSpec],
    requests: &[Request],
    tech: &TechParams,
) -> RunnerSample {
    let sample = &requests[..requests.len().min(REPLAY_SAMPLE)];
    let mut scratch = Scratch::new();
    let mut out = RunnerSample {
        cycles: vec![vec![0; scopes.len()]; models.len()],
        energy_pj: vec![vec![0.0; scopes.len()]; models.len()],
        calls: 0,
        nanos: 0.0,
    };
    // The first pass warms the scratch arena and records the events;
    // the second is the timed one.
    for pass in 0..2 {
        let t = Instant::now();
        for r in sample {
            let model = &models[r.model];
            for (s, scope) in scopes.iter().enumerate() {
                let events = scope.acc.run_stage_events(
                    &scope.plans[r.model],
                    model,
                    0..model.layers.len(),
                    r.act_seed,
                    WeightResidency::Streamed,
                    &mut scratch,
                );
                if pass == 0 {
                    out.cycles[r.model][s] += events.cycles;
                    out.energy_pj[r.model][s] += EnergyBreakdown::of(&events, tech).total_pj();
                } else {
                    std::hint::black_box(events);
                    out.calls += 1;
                }
            }
        }
        if pass == 1 {
            out.nanos = t.elapsed().as_nanos() as f64;
        }
    }
    out
}

/// Fig. 11 on the served mix: per model, batch-1 S2TA-AW over SA-ZVCG
/// on the replay sample, averaged over the models the sample holds.
fn fig11_served(run: &mut Run, scopes: &[Scope], sample: &RunnerSample) {
    let (aw, zvcg) = (scope_of(scopes, ArchKind::S2taAw), scope_of(scopes, ArchKind::SaZvcg));
    let mut speedups = Vec::new();
    let mut energy_xs = Vec::new();
    for (cycles, energy) in sample.cycles.iter().zip(&sample.energy_pj) {
        if cycles[aw] > 0 {
            speedups.push(cycles[zvcg] as f64 / cycles[aw] as f64);
            energy_xs.push(energy[zvcg] / energy[aw]);
        }
    }
    set_fig11(run, &speedups, &energy_xs, "served-mix S2TA-AW");
}

/// Microseconds per activation-profile entry compiled cold: the
/// stream's first [`KEY_SAMPLE`] distinct `(model, act seed)` pairs,
/// every layer, on every lane scope (the side each scope reads), into
/// a fresh cache.
fn cold_profile_us(scopes: &[Scope], models: &[ModelSpec], requests: &[Request]) -> f64 {
    let mut seen = HashSet::new();
    let keys: Vec<(usize, u64)> = requests
        .iter()
        .map(|r| (r.model, r.act_seed))
        .filter(|k| seen.insert(*k))
        .take(KEY_SAMPLE)
        .collect();
    let cache = ActProfileCache::new();
    let ((), d) = timed(|| {
        for &(m, act_seed) in &keys {
            for (i, layer) in models[m].layers.iter().enumerate() {
                for scope in scopes {
                    let config = scope.acc.config();
                    let geom = &config.geometry;
                    let adbb = scope.plans[m].layers()[i].adbb();
                    let profile =
                        cache.get_or_profile(layer, act_seed, geom.tile_cols(), geom.bz, adbb);
                    if config.kind.uses_adbb() {
                        profile.postdap();
                    } else {
                        profile.dense();
                    }
                }
            }
        }
    });
    d.as_secs_f64() * 1e6 / cache.len().max(1) as f64
}

/// Per-layer pass of a serving workload: a one-worker untraced twin,
/// then the traced pass.
#[allow(clippy::too_many_arguments)]
fn traced(
    run: &mut Run,
    kind: Kind,
    target: &Target,
    scopes: &[Scope],
    reference: &Served,
    requests: &[Request],
    models: &[ModelSpec],
    parallel_wall: f64,
) {
    run.set("pool.workers", Executor::global().workers() as f64);
    // One-worker targets with the caches the timed serves saw: shared
    // with the warm target, or fresh for the cold workload.
    let seed = run.seed;
    let one_worker = || {
        if kind.warm() {
            target.one_worker(seed)
        } else {
            kind.build(seed).one_worker(seed)
        }
    };
    let twin = one_worker();
    let (served, twin_wall) = timed(|| twin.serve_one_worker(models, requests));
    run.check(served == *reference, "one-worker serve equals the reference report");
    run.set("pool.parallel_speedup", twin_wall.as_secs_f64() / parallel_wall);
    drop(served);
    drop(twin);

    match (target, one_worker()) {
        (Target::Fleet(fleet), _) => {
            traced_fleet(run, fleet, scopes, reference, requests, models, twin_wall)
        }
        (Target::Cluster(_), Target::Cluster(cluster)) => {
            traced_cluster(run, cluster, reference, requests, models, twin_wall)
        }
        _ => unreachable!("one_worker keeps the target kind"),
    }
    let lanes: Vec<f64> = reference
        .shards()
        .iter()
        .flat_map(|s| s.workers.iter().map(|w| w.utilization(s.makespan_cycles)))
        .collect();
    let batches: usize = reference.shards().iter().map(|s| s.batches).sum();
    run.set("fleet.lane.batches", batches as f64);
    run.set("fleet.lane.mean_batch", reference.served() as f64 / batches.max(1) as f64);
    run.set("fleet.lane.utilization", lanes.iter().sum::<f64>() / lanes.len() as f64);
}

/// The traced cluster pass: `Cluster::with_trace` on one worker, so the
/// shards' recorded host spans (`shard-advance`, and `batch-execute`
/// mostly inside it) do not overlap; the router/driver self time is the
/// rest of the serve call.
fn traced_cluster(
    run: &mut Run,
    cluster: Cluster,
    reference: &Served,
    requests: &[Request],
    models: &[ModelSpec],
    twin_wall: Duration,
) {
    let tech = TechParams::tsmc16();
    let n = requests.len() as f64;
    let traced = cluster.with_trace(TraceConfig::default());
    let (report, serve_wall) = timed(|| traced.serve_on(&Executor::new(1), models, requests));
    let report = Served::Cluster(report);
    let (_, rollup) = timed(|| std::hint::black_box(report.rollup(&tech)));
    run.check(report == *reference, "traced report equals the untraced report");
    let Served::Cluster(cr) = &report else { unreachable!("cluster serve") };
    let trace = cr.merged_trace().expect("every shard traced");
    let span = |label: &str| {
        trace
            .host_spans()
            .iter()
            .find(|s| s.label == label)
            .map_or((0.0, 0), |s| (s.nanos as f64 / 1e9, s.calls))
    };
    let (execute, _) = span("batch-execute");
    let (advance, advances) = span("shard-advance");
    let routed_max = cr.routed.iter().copied().max().unwrap_or(0) as f64;
    drop(trace);
    let (_, drop_time) = timed(move || drop(report));

    let wall = serve_wall.as_secs_f64();
    // A batch sealed full at an arrival executes inside the router's
    // inject call, outside `shard-advance`: engine self time can
    // undercount by that execution, and route self time overcounts.
    let engine_self = advance - execute;
    let route_self = wall - advance;
    run.check(execute <= wall && advance <= wall, "recorded host spans fit inside the serve call");
    run.set("fleet.lane.execute_s", execute);
    run.set("fleet.lane.share", execute / wall);
    run.set("fleet.engine.self_s", engine_self);
    run.set("fleet.engine.advances", advances as f64);
    run.set("cluster.route_self_s", route_self);
    run.set("cluster.route_ns_per_arrival", route_self * 1e9 / n);
    run.set("cluster.routed_max_share", routed_max / n);
    run.set("report.rollup_s", rollup.as_secs_f64());
    run.set("report.drop_s", drop_time.as_secs_f64());
    let (rollup, drop_time) = (rollup.as_secs_f64(), drop_time.as_secs_f64());
    // The router/driver layer is the serve call's residual, so only the
    // span-measured layers and the timed rollup and drop count as
    // measured.
    trace_totals(
        run,
        advance + rollup + drop_time,
        wall + rollup + drop_time,
        wall / twin_wall.as_secs_f64() - 1.0,
        false,
    );
}

/// The traced fleet pass. `Fleet::with_trace` would move `Fleet::serve`
/// onto the engine, so the vectorized path is replayed from outside
/// instead: batch formation, every batch on every lane scope through
/// the layer runner, then placement — each call timed — and checked
/// against the fleet's own report.
fn traced_fleet(
    run: &mut Run,
    fleet: &Fleet,
    scopes: &[Scope],
    reference: &Served,
    requests: &[Request],
    models: &[ModelSpec],
    twin_wall: Duration,
) {
    let tech = TechParams::tsmc16();
    let Served::Fleet(report) = reference else { unreachable!("fleet serve") };
    let scheduler = Scheduler::new(cluster_scenario::policy());
    let lane_scope: Vec<usize> = fleet.lanes().iter().map(|l| scope_of(scopes, l.arch())).collect();

    let start = Instant::now();
    let (formation, form) = timed(|| scheduler.form_batches_bounded(requests, models.len(), None));
    let (executions, execute) = timed(|| {
        let mut scratch = Scratch::new();
        formation
            .batches
            .iter()
            .map(|b| {
                let model = &models[b.model];
                scopes
                    .iter()
                    .map(|scope| {
                        let mut events = EventCounts::default();
                        // The first member streams the weights; the
                        // rest of the batch finds them resident.
                        for (i, r) in b.requests.iter().enumerate() {
                            let residency = if i == 0 {
                                WeightResidency::Streamed
                            } else {
                                WeightResidency::Resident
                            };
                            events += scope.acc.run_stage_events(
                                &scope.plans[b.model],
                                model,
                                0..model.layers.len(),
                                r.act_seed,
                                residency,
                                &mut scratch,
                            );
                        }
                        events
                    })
                    .collect::<Vec<_>>()
            })
            .collect::<Vec<_>>()
    });
    let (placements, place) = timed(|| {
        scheduler.place_on_lanes(
            &formation.batches,
            |b, lane| executions[b][lane_scope[lane]].cycles,
            lane_scope.len(),
        )
    });
    let replay_wall = start.elapsed();

    let makespan = placements.iter().map(|p| p.completion).max().unwrap_or(0);
    let mut events = EventCounts::default();
    for p in &placements {
        events += executions[p.batch][lane_scope[p.worker]];
    }
    run.check(
        makespan == report.makespan_cycles && events == report.total_events,
        "outside replay of the vectorized path matches Fleet::serve",
    );

    // Rollup and drop, timed on a copy of the report.
    let copy = reference.clone();
    let (_, rollup) = timed(|| std::hint::black_box(copy.rollup(&tech)));
    let (_, drop_time) = timed(move || drop(copy));

    let mut vectorized = Vec::new();
    let mut engine = Vec::new();
    for _ in 0..ENGINE_PAIRS {
        vectorized.push(timed(|| fleet.serve(models, requests)).1.as_secs_f64());
        let mut policy = cluster_scenario::policy();
        engine.push(timed(|| fleet.serve_adaptive(models, requests, &mut policy)).1.as_secs_f64());
    }

    let s = |d: Duration| d.as_secs_f64();
    run.set("scheduler.form_s", s(form));
    run.set("scheduler.place_s", s(place));
    run.set("scheduler.batches", formation.batches.len() as f64);
    run.set("scheduler.vectorized_over_engine", median(&vectorized) / median(&engine));
    run.set("fleet.lane.execute_s", s(execute));
    run.set("fleet.lane.share", s(execute) / s(replay_wall));
    run.set("report.rollup_s", s(rollup));
    run.set("report.drop_s", s(drop_time));
    trace_totals(
        run,
        s(form + execute + place),
        s(replay_wall),
        s(replay_wall) / s(twin_wall) - 1.0,
        true,
    );
}
