//! Cross-crate cluster tests: router conservation invariants,
//! single-shard degeneration to a bare fleet, determinism of sharded
//! runs, merged-percentile rollup, and lane autoscaling.

use proptest::{prop_assert, prop_assert_eq};
use s2ta::core::pool::Executor;
use s2ta::core::ArchKind;
use s2ta::energy::TechParams;
use s2ta::models::{lenet5, ModelSpec};
use s2ta::serve::{
    AutoscalePolicy, Cluster, DiurnalSpec, FaultConfig, FaultSpec, FixedPolicy, Fleet, FleetSpec,
    RateSegment, Request, RoutingPolicy, TraceConfig, TraceEventKind, WorkloadSpec,
};
use std::collections::HashMap;

fn models() -> Vec<ModelSpec> {
    vec![lenet5()]
}

fn stream(seed: u64, n: usize) -> Vec<Request> {
    WorkloadSpec::uniform(seed, n, 2_000.0, 1).generate()
}

fn shards(count: usize, lanes: usize) -> Vec<Fleet> {
    (0..count).map(|_| Fleet::new(ArchKind::S2taAw, lanes)).collect()
}

/// Every input request must land on exactly one shard — no loss, no
/// duplication — under every routing policy, and the router's own
/// per-shard tallies must agree with the shard reports.
#[test]
fn router_conserves_requests_under_every_policy() {
    let models = models();
    let requests = stream(5, 200);
    for routing in
        [RoutingPolicy::Random, RoutingPolicy::JoinShortestQueue, RoutingPolicy::PowerOfTwo]
    {
        let report = Cluster::new(shards(3, 2))
            .with_routing(routing)
            .with_router_seed(11)
            .serve(&models, &requests);
        assert_eq!(report.total_requests(), 200, "{routing:?}");
        assert_eq!(report.routed.iter().sum::<usize>(), 200, "{routing:?}");
        let mut ids: Vec<u64> =
            report.shards.iter().flat_map(|s| s.outcomes.iter().map(|o| o.id())).collect();
        ids.sort_unstable();
        assert_eq!(
            ids,
            (0..200).collect::<Vec<u64>>(),
            "{routing:?}: every id exactly once across shards"
        );
        for (i, shard) in report.shards.iter().enumerate() {
            assert_eq!(shard.outcomes.len(), report.routed[i], "{routing:?} shard {i} tally");
        }
    }
}

/// Conservation must survive admission drops: a bounded shard queue
/// tail-drops requests, but every id still appears exactly once in the
/// union of served + dropped outcomes.
#[test]
fn conservation_holds_under_admission_drops() {
    let models = models();
    // A hot stream against queues bounded below `max_batch` forces
    // drops: each shard's queue fills long before the timeout can
    // close a batch (~250-cycle global gaps → ~500 per shard).
    let requests = WorkloadSpec::uniform(9, 300, 250.0, 1).generate();
    let fleets = (0..2)
        .map(|_| {
            Fleet::new(ArchKind::S2taAw, 2)
                .with_policy(FixedPolicy { max_batch: 8, max_wait_cycles: 10_000 })
                .with_queue_capacity(3)
        })
        .collect();
    let report =
        Cluster::new(fleets).with_routing(RoutingPolicy::PowerOfTwo).serve(&models, &requests);
    assert!(report.dropped_count() > 0, "scenario must actually drop");
    assert!(report.served_count() > 0);
    assert_eq!(report.served_count() + report.dropped_count(), 300);
    let mut ids: Vec<u64> =
        report.shards.iter().flat_map(|s| s.outcomes.iter().map(|o| o.id())).collect();
    ids.sort_unstable();
    assert_eq!(ids, (0..300).collect::<Vec<u64>>());
    assert!(report.drop_rate() > 0.0 && report.drop_rate() < 1.0);
}

/// A single-shard cluster is the degenerate case: whatever the routing
/// policy, every request goes to shard 0, and the shard's report must
/// be **identical** to serving the same stream on the bare fleet.
#[test]
fn single_shard_cluster_matches_bare_fleet_exactly() {
    let models = models();
    let requests = stream(13, 150);
    let bare = Fleet::new(ArchKind::S2taAw, 3).serve(&models, &requests);
    for routing in
        [RoutingPolicy::Random, RoutingPolicy::JoinShortestQueue, RoutingPolicy::PowerOfTwo]
    {
        let cluster = Cluster::new(shards(1, 3)).with_routing(routing).serve(&models, &requests);
        assert_eq!(cluster.shards.len(), 1);
        assert_eq!(
            cluster.shards[0], bare,
            "{routing:?}: routing through a 1-shard cluster must not perturb the simulation"
        );
        assert_eq!(cluster.p99_cycles(), bare.p99_cycles());
        assert_eq!(cluster.makespan_cycles(), bare.makespan_cycles);
    }
}

/// The same cluster spec must reproduce the identical report, and the
/// router seed is the only randomness: a different seed reroutes a
/// random-policy run.
#[test]
fn cluster_runs_are_deterministic_in_the_router_seed() {
    let models = models();
    let requests = stream(21, 180);
    let run = |seed: u64| {
        Cluster::new(shards(4, 1))
            .with_routing(RoutingPolicy::Random)
            .with_router_seed(seed)
            .serve(&models, &requests)
    };
    let a = run(3);
    let b = run(3);
    assert_eq!(a, b, "same seed must reproduce the identical cluster report");
    let c = run(4);
    assert_ne!(a.routed, c.routed, "a different router seed must reroute");
    // JSQ consumes no randomness, so its runs ignore the seed entirely.
    let jsq = |seed: u64| {
        Cluster::new(shards(4, 1))
            .with_routing(RoutingPolicy::JoinShortestQueue)
            .with_router_seed(seed)
            .serve(&models, &requests)
    };
    assert_eq!(jsq(3), jsq(999));
}

/// Global percentiles are taken over the merged per-request samples:
/// the cluster p99 must be a latency some shard actually observed, and
/// must sit within the range of per-shard extremes (an averaged
/// percentile generally is neither).
#[test]
fn global_percentiles_come_from_merged_samples() {
    let models = models();
    let requests = stream(31, 240);
    let report = Cluster::new(shards(3, 2))
        .with_routing(RoutingPolicy::PowerOfTwo)
        .serve(&models, &requests);
    let mut all: Vec<u64> = report
        .shards
        .iter()
        .flat_map(|s| s.served_outcomes().map(|r| r.latency_cycles()))
        .collect();
    all.sort_unstable();
    for pct in [50.0, 95.0, 99.0] {
        let global = report.latency_percentile_cycles(pct);
        assert!(all.contains(&global), "p{pct} {global} is not an observed sample");
    }
    assert!(report.p50_cycles() <= report.p95_cycles());
    assert!(report.p95_cycles() <= report.p99_cycles());
    assert!(report.goodput_ips(&TechParams::tsmc16()) > 0.0);
}

/// On a diurnal profile the autoscaler must both grow lanes into the
/// peak and shed them in the valley, and scaling must not break
/// request conservation.
#[test]
fn autoscaler_tracks_the_diurnal_load_curve() {
    let models = models();
    // Two full day cycles: shards start at full width, shed lanes
    // through the first valley, and must re-grow into the second peak.
    let requests = DiurnalSpec {
        seed: 17,
        requests: 620,
        segments: vec![
            RateSegment { duration_cycles: 60_000, mean_interarrival_cycles: 200.0 },
            RateSegment { duration_cycles: 240_000, mean_interarrival_cycles: 24_000.0 },
        ],
        mix: vec![1.0],
        act_seed_pool: 32,
    }
    .generate();
    let fleets = (0..2)
        .map(|_| {
            Fleet::from_spec(FleetSpec::homogeneous(ArchKind::S2taAw, 4))
                .with_policy(FixedPolicy { max_batch: 16, max_wait_cycles: 30_000 })
        })
        .collect();
    let report = Cluster::new(fleets)
        .with_routing(RoutingPolicy::PowerOfTwo)
        .with_autoscale(AutoscalePolicy {
            eval_interval_cycles: 15_000,
            scale_up_depth: 3,
            scale_down_depth: 0,
            min_lanes: 1,
        })
        .serve(&models, &requests);
    assert_eq!(report.total_requests(), 620);
    let ups = report.scale_events.iter().filter(|e| e.to_lanes > e.from_lanes).count();
    let downs = report.scale_events.iter().filter(|e| e.to_lanes < e.from_lanes).count();
    assert!(ups > 0, "peak load must trigger scale-ups: {:?}", report.scale_events);
    assert!(downs > 0, "valley must trigger scale-downs: {:?}", report.scale_events);
    for e in &report.scale_events {
        assert!(e.to_lanes >= 1 && e.to_lanes <= 4, "lane count out of bounds: {e:?}");
        assert_eq!(e.to_lanes.abs_diff(e.from_lanes), 1, "scaling moves one lane at a time");
    }
    // Events are in simulated-time order.
    for w in report.scale_events.windows(2) {
        assert!(w[0].time <= w[1].time);
    }
    let mut ids: Vec<u64> =
        report.shards.iter().flat_map(|s| s.outcomes.iter().map(|o| o.id())).collect();
    ids.sort_unstable();
    assert_eq!(ids, (0..620).collect::<Vec<u64>>());
}

/// A cold pre-routed (`Random`) cluster on one shared plan cache
/// compiles every weight plan exactly once, at any executor width: the
/// driver compiles each shard's routed models before fanning the shards
/// out, so no two shard threads race the same cold compile. (One model
/// makes every shard's first batch want the same plans at once.)
#[test]
fn cold_prerouted_cluster_compiles_each_plan_once() {
    let models = models();
    let requests = stream(17, 32);
    let spec = FleetSpec::mixed(&[(ArchKind::S2taAw, 1), (ArchKind::SaZvcg, 1)]);
    for workers in [1, 2, 7] {
        let cluster = Cluster::new((0..4).map(|_| Fleet::from_spec(spec.clone())).collect())
            .with_routing(RoutingPolicy::Random)
            .with_shared_caches();
        cluster.serve_on(&Executor::new(workers), &models, &requests);
        let plans = cluster.shards()[0].accelerator().plans().stats();
        // One DBB arch (S2TA-AW) and one dense arch (SA-ZVCG).
        assert_eq!(plans.misses, 1, "workers {workers}: one compile per (DBB arch, model)");
        assert_eq!(plans.bypasses, 1, "workers {workers}: one dense compile per model");
    }
}

/// Without shared caches every shard of a cold pre-routed cluster owns
/// its plan cache, so no two shard threads can race a compile: each
/// shard compiles its own plans on its own thread, inside its engine's
/// lifetime, and its report counts every compile its cache made.
#[test]
fn cold_prerouted_shards_compile_their_own_plans() {
    let models = models();
    let requests = stream(17, 32);
    let spec = FleetSpec::mixed(&[(ArchKind::S2taAw, 1), (ArchKind::SaZvcg, 1)]);
    for workers in [1, 2, 7] {
        let cluster = Cluster::new((0..4).map(|_| Fleet::from_spec(spec.clone())).collect())
            .with_routing(RoutingPolicy::Random);
        let report = cluster.serve_on(&Executor::new(workers), &models, &requests);
        for (shard, fleet) in cluster.shards().iter().enumerate() {
            let plans = fleet.accelerator().plans().stats();
            assert_eq!(plans.misses, 1, "workers {workers}, shard {shard}: one DBB compile");
            assert_eq!(report.shards[shard].plan_cache.misses, plans.misses);
            assert_eq!(report.shards[shard].plan_cache.bypasses, plans.bypasses);
        }
    }
}

proptest::proptest! {
    #![proptest_config(proptest::test_runner::ProptestConfig::with_cases(5))]

    /// `Cluster::serve` must reproduce the serial driver
    /// **byte-identically** — full `ClusterReport` equality, covering
    /// outcomes, routed tallies, per-shard reports, and scale events —
    /// across routing policies and shard counts. For `Random`, the one
    /// policy with a shard-parallel driver, that holds at every executor
    /// worker count (including a serial 1-worker executor and the global
    /// pool); the backlog-probing policies run the serial driver itself,
    /// because fanning their per-arrival advance out measured slower.
    #[test]
    fn prop_parallel_cluster_is_byte_identical_to_serial(
        seed in 1u64..1_000,
        n in 60usize..110,
        policy_idx in 0usize..3,
        autoscale in proptest::arbitrary::any::<bool>(),
    ) {
        let models = models();
        let requests = stream(seed, n);
        let routing = [
            RoutingPolicy::Random,
            RoutingPolicy::JoinShortestQueue,
            RoutingPolicy::PowerOfTwo,
        ][policy_idx];
        for shard_count in [1usize, 2, 4] {
            let mut cluster = Cluster::new(shards(shard_count, 2))
                .with_routing(routing)
                .with_router_seed(seed ^ 0x5eed);
            if autoscale {
                cluster = cluster.with_autoscale(AutoscalePolicy {
                    eval_interval_cycles: 20_000,
                    scale_up_depth: 2,
                    scale_down_depth: 0,
                    min_lanes: 1,
                });
            }
            let serial = cluster.serve_serial(&models, &requests);
            let worker_counts: &[Option<usize>] = if routing == RoutingPolicy::Random {
                &[Some(1), Some(2), Some(7), None]
            } else {
                &[None]
            };
            for &workers in worker_counts {
                let parallel = match workers {
                    Some(w) => cluster.serve_on(&Executor::new(w), &models, &requests),
                    None => cluster.serve(&models, &requests),
                };
                prop_assert_eq!(
                    &parallel,
                    &serial,
                    "policy {:?}, {} shards, workers {:?}",
                    routing,
                    shard_count,
                    workers
                );
                prop_assert_eq!(&parallel.scale_events, &serial.scale_events);
                prop_assert_eq!(&parallel.routed, &serial.routed);
            }
        }
    }
}

/// A chaos schedule dense enough to guarantee crash, slowdown and
/// outage activity inside the arrival span.
fn chaos_spec(seed: u64, horizon: u64) -> FaultSpec {
    FaultSpec {
        seed,
        lane_crashes: 3,
        lane_slowdowns: 2,
        shard_outages: 1,
        horizon_cycles: horizon.max(1),
        mean_down_cycles: horizon / 8 + 1,
        mean_outage_cycles: 0,
        slowdown_factor: 3,
    }
}

proptest::proptest! {
    #![proptest_config(proptest::test_runner::ProptestConfig::with_cases(4))]

    /// Chaos property: under random seeded fault schedules, every
    /// routing policy and shard count must (a) conserve requests —
    /// served + dropped + failed covers the offered stream exactly
    /// once, (b) never execute a served batch inside its lane's crash
    /// window, and (c) stay byte-identical between `Cluster::serve` and
    /// the serial driver, **including the merged trace** — at every
    /// executor worker count for `Random`, the one policy whose driver
    /// runs shards in parallel.
    #[test]
    fn prop_chaos_conserves_and_stays_byte_identical(
        seed in 1u64..500,
        fault_seed in 1u64..500,
        policy_idx in 0usize..3,
    ) {
        let models = models();
        let requests = stream(seed, 80);
        let offered = requests.len();
        let horizon = requests.last().map_or(1, |r| r.arrival.max(1));
        let routing = [
            RoutingPolicy::Random,
            RoutingPolicy::JoinShortestQueue,
            RoutingPolicy::PowerOfTwo,
        ][policy_idx];
        for shard_count in [1usize, 2, 4] {
            let config = FaultConfig::protected(chaos_spec(fault_seed, horizon));
            let cluster = Cluster::new(shards(shard_count, 2))
                .with_routing(routing)
                .with_router_seed(seed ^ 0xc4a05)
                .with_trace(TraceConfig::default())
                .with_faults(config.clone());
            let serial = cluster.serve_serial(&models, &requests);

            // (a) Conservation, by count and by id.
            prop_assert_eq!(
                serial.served_count() + serial.dropped_count() + serial.failed_count(),
                offered,
                "{:?} x{}: served+dropped+failed must cover the stream",
                routing, shard_count
            );
            let mut ids: Vec<u64> = serial
                .shards
                .iter()
                .flat_map(|s| s.outcomes.iter().map(|o| o.id()))
                .collect();
            ids.sort_unstable();
            prop_assert_eq!(ids, (0..offered as u64).collect::<Vec<u64>>());
            prop_assert!(serial.fault_stats().lane_crashes > 0, "schedule must crash");
            prop_assert!(serial.availability() > 0.0 && serial.availability() <= 1.0);

            // (b) No served batch executes inside its lane's crash
            // window (windows recomputed from the pure schedule).
            let plan = config.spec.schedule(&vec![2usize; shard_count]);
            let trace = serial.merged_trace().expect("every shard is traced");
            let mut starts: HashMap<(u32, u32, u64), u64> = HashMap::new();
            for e in trace.events() {
                match e.kind {
                    TraceEventKind::BatchStarted => {
                        starts.insert((e.shard, e.lane, e.a), e.cycle);
                    }
                    TraceEventKind::BatchCompleted => {
                        let start = starts[&(e.shard, e.lane, e.a)];
                        let timeline = plan.shard_timeline(e.shard as usize);
                        for &(ws, we) in timeline.lane_down_windows(e.lane as usize) {
                            prop_assert!(
                                !(start < we && ws < e.cycle),
                                "batch [{start}, {}) on shard {} lane {} overlaps \
                                 crash window [{ws}, {we})",
                                e.cycle, e.shard, e.lane
                            );
                        }
                    }
                    _ => {}
                }
            }

            // (c) Serial vs `serve` byte-identity, merged trace
            // included.
            let worker_counts: &[Option<usize>] = if routing == RoutingPolicy::Random {
                &[Some(1), Some(3), None]
            } else {
                &[None]
            };
            for &workers in worker_counts {
                let parallel = match workers {
                    Some(w) => cluster.serve_on(&Executor::new(w), &models, &requests),
                    None => cluster.serve(&models, &requests),
                };
                prop_assert_eq!(
                    &parallel, &serial,
                    "{:?} x{} workers {:?}", routing, shard_count, workers
                );
                let parallel_trace = parallel.merged_trace().expect("traced");
                prop_assert_eq!(
                    parallel_trace.events(),
                    trace.events(),
                    "merged traces must be byte-identical"
                );
            }
        }
    }
}

/// Deterministic autoscale differential: on the diurnal scenario the
/// serial driver and the pre-routed parallel driver (`Random`) must
/// emit the identical (non-empty) scale-event log at every worker
/// count. Each pre-routed shard sees only its own arrivals, so it must
/// replay every autoscaler evaluation up to the global stream's last
/// arrival to match the serial loop.
#[test]
fn parallel_driver_reproduces_serial_autoscale_run() {
    let models = models();
    let requests = DiurnalSpec {
        seed: 17,
        requests: 620,
        segments: vec![
            RateSegment { duration_cycles: 60_000, mean_interarrival_cycles: 200.0 },
            RateSegment { duration_cycles: 240_000, mean_interarrival_cycles: 24_000.0 },
        ],
        mix: vec![1.0],
        act_seed_pool: 32,
    }
    .generate();
    let build = || {
        let fleets = (0..2)
            .map(|_| {
                Fleet::from_spec(FleetSpec::homogeneous(ArchKind::S2taAw, 4))
                    .with_policy(FixedPolicy { max_batch: 16, max_wait_cycles: 30_000 })
            })
            .collect();
        Cluster::new(fleets).with_routing(RoutingPolicy::Random).with_autoscale(AutoscalePolicy {
            eval_interval_cycles: 15_000,
            scale_up_depth: 3,
            scale_down_depth: 0,
            min_lanes: 1,
        })
    };
    let serial = build().serve_serial(&models, &requests);
    assert!(!serial.scale_events.is_empty(), "scenario must actually scale");
    for workers in [1usize, 2, 7] {
        let parallel = build().serve_on(&Executor::new(workers), &models, &requests);
        assert_eq!(parallel, serial, "{workers} workers");
    }
    assert_eq!(build().serve(&models, &requests), serial, "global executor");
}
