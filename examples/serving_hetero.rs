//! Heterogeneous-fleet serving demo: a mixed 2×S2TA-AW + 2×SA-ZVCG
//! lane fleet serving one traffic stream, comparing arch-blind
//! earliest-free placement against affinity-aware placement (the
//! cost-model path that routes each batch to the lane minimizing its
//! predicted completion time, with per-`(arch, model)` service
//! estimates bootstrapped from the run's own completed batches).
//!
//! Run with:
//!
//! ```sh
//! cargo run --release --example serving_hetero
//! ```
//!
//! The run is fully deterministic, and the asserts at the bottom are
//! the CI smoke gate for heterogeneous serving: affinity must beat
//! earliest-free on both p99 latency and energy per inference on this
//! workload, and the host-pool parallelism must never leak into
//! simulated results.

use s2ta::energy::TechParams;
use s2ta::serve::{DiurnalSpec, Fleet, PlacementStrategy, RateSegment, ServeReport};
use s2ta_bench::hetero_scenario;

fn main() {
    let tech = TechParams::tsmc16();
    // The canonical scenario shared with the serving bench and the
    // acceptance test in tests/serving.rs — retune it in one place.
    let models = hetero_scenario::models();
    let spec = hetero_scenario::workload();
    let requests = spec.generate();
    let fleet_spec = hetero_scenario::fleet_spec();
    let policy = hetero_scenario::policy();

    println!("== s2ta-serve heterogeneous fleet demo ==");
    println!("workload: {spec}");
    println!("fleet: {} ({} lanes, shared plan cache)", fleet_spec.label(), fleet_spec.lanes());
    println!();

    let mk = || Fleet::from_spec(fleet_spec.clone()).with_policy(policy);
    let earliest_free = mk().serve(&models, &requests);
    let affinity = mk().with_placement(PlacementStrategy::Affinity).serve(&models, &requests);

    for (name, report) in [("earliest-free", &earliest_free), ("affinity", &affinity)] {
        println!("placement: {name}");
        print!("{}", report.summary(&tech));
        print!("{}", report.lane_breakdown(&tech));
        println!();
    }

    println!(
        "affinity vs earliest-free: {:.2}x lower p99, {:.2}x less energy/inf, {:.2}x makespan",
        earliest_free.p99_cycles() as f64 / affinity.p99_cycles() as f64,
        earliest_free.uj_per_inference(&tech) / affinity.uj_per_inference(&tech),
        affinity.makespan_cycles as f64 / earliest_free.makespan_cycles as f64,
    );

    // Determinism across host-pool sizes: the speculative parallel
    // execution is byte-identical to a serial engine.
    let serial = Fleet::from_spec(fleet_spec.clone())
        .with_policy(policy)
        .with_placement(PlacementStrategy::Affinity)
        .with_host_parallelism(1)
        .serve(&models, &requests);
    assert_eq!(affinity, serial, "host parallelism must never change simulated results");
    println!("re-served with a serial host pool: reports identical");

    // The CI smoke gate: the cost model must actually pay off here.
    assert!(
        affinity.p99_cycles() < earliest_free.p99_cycles(),
        "affinity p99 {} must beat earliest-free {}",
        affinity.p99_cycles(),
        earliest_free.p99_cycles()
    );
    assert!(
        affinity.uj_per_inference(&tech) < earliest_free.uj_per_inference(&tech),
        "affinity energy must beat earliest-free"
    );
    let _ = ServeReport::cycles_to_ms(&tech, affinity.p99_cycles());
    println!("affinity placement beats earliest-free on p99 and energy: OK");

    // Plan-cache effectiveness must be visible on the report: the one
    // DBB architecture (S2TA-AW) compiles each of the two models
    // exactly once (a miss each), every later execution hits the
    // shared memo, and the dense SA-ZVCG lanes are memoized too —
    // their compiles count as bypasses (no DBB pruning pipeline ran)
    // and their warm lookups as hits, so the bypass counter freezes
    // once the fleet is warm. The activation-profile cache (the
    // matrix-free event path's operand memo) rides alongside. Every
    // request of this stream has its own input, so the cold fill leaves
    // it alone and each profile compiles where the run first needs it;
    // its reuse shows in the steady-state re-serve below.
    for (name, report) in [("earliest-free", &earliest_free), ("affinity", &affinity)] {
        let cache = report.plan_cache;
        println!(
            "{name}: plan cache {} hits / {} misses / {} bypasses ({:.0}% hit rate); \
             act profiles {} hits / {} misses",
            cache.hits,
            cache.misses,
            cache.bypasses,
            cache.hit_rate() * 100.0,
            cache.acts.hits,
            cache.acts.misses,
        );
        assert_eq!(cache.misses, 2, "{name}: one compile per (DBB arch, model)");
        assert!(cache.hits > cache.misses, "{name}: the memo must be doing real work");
        assert!(cache.bypasses > 0, "{name}: cold dense-lane plans compile as bypasses");
        assert!(cache.acts.misses > 0, "{name}: cold run compiles act profiles");
        assert_eq!(cache.acts.bypasses, 0, "{name}: every act lookup is memoized");
    }
    println!("fleet-wide weight-plan cache is effective: OK");

    // Steady state: re-serving the same traffic on the same fleet hits
    // both caches on every lookup — zero compiles, hits > misses, and
    // the bypass counter has stopped moving: the dense plans compiled
    // on the first batch are warm, so every dense lookup is now a hit.
    let warm_fleet = mk();
    let cold = warm_fleet.serve(&models, &requests);
    assert!(cold.plan_cache.bypasses > 0, "cold serve compiles the dense plans");
    let steady = warm_fleet.serve(&models, &requests);
    let cache = steady.plan_cache;
    println!(
        "steady-state re-serve: plan cache {} hits / {} misses / {} bypasses; \
         act profiles {} hits / {} misses",
        cache.hits, cache.misses, cache.bypasses, cache.acts.hits, cache.acts.misses,
    );
    assert_eq!(cache.misses, 0, "steady: no new weight-plan compiles");
    assert_eq!(cache.bypasses, 0, "steady: dense lookups are cache hits, not recompiles");
    assert_eq!(cache.acts.misses, 0, "steady: no new act-profile compiles");
    assert!(cache.acts.hits > cache.acts.misses, "steady: act cache is all hits");
    assert!(cache.hits > cache.misses, "steady: plan cache is all hits");
    println!("fleet-wide plan + activation-profile caches are effective: OK");

    // Bounded caches: serving under byte budgets smaller than the
    // zoo's cached footprint, so both LRUs must evict. The traffic
    // here is production-shaped — a bounded pool of recurring inputs
    // with an 8:1 model skew — so LeNet's act profiles stay hot and
    // resident while the rare CIFAR visits cycle through the leftover
    // budget. Since dense plans are memoized too, the plan budget is
    // sized to the hot model's plans (both arch scopes, ~118 KB) plus
    // change: LeNet's plans keep hitting while the CIFAR visits force
    // recompiles and evictions.
    // Evicted entries recompile byte-identically on next use: a
    // budget changes host time and the cache counters, never
    // simulated results (`ServeReport` equality excludes the cache
    // diagnostics precisely so this assert is exact). The bounded
    // fleet runs a serial host pool so the LRU touch order, and with
    // it the counters themselves, are deterministic.
    let zoo_requests = DiurnalSpec {
        seed: 77,
        requests: 400,
        segments: vec![RateSegment { duration_cycles: 100_000, mean_interarrival_cycles: 2_500.0 }],
        mix: vec![8.0, 1.0],
        act_seed_pool: 24,
    }
    .generate();
    let unbounded = Fleet::from_spec(fleet_spec.clone())
        .with_policy(policy)
        .with_host_parallelism(1)
        .serve(&models, &zoo_requests);
    let bounded_fleet = Fleet::from_spec(fleet_spec.clone())
        .with_policy(policy)
        .with_cache_budgets(160 << 10, 1 << 18)
        .with_host_parallelism(1);
    let _warm = bounded_fleet.serve(&models, &zoo_requests);
    let bounded = bounded_fleet.serve(&models, &zoo_requests);
    assert_eq!(bounded, unbounded, "a cache budget must never change simulated results");
    let cache = bounded.plan_cache;
    println!(
        "steady-state under budget: plan cache {} hits / {} misses / {} evictions; \
         act profiles {} hits / {} misses / {} evictions ({} bytes evicted)",
        cache.hits,
        cache.misses,
        cache.evictions,
        cache.acts.hits,
        cache.acts.misses,
        cache.acts.evictions,
        cache.acts.bytes_evicted,
    );
    assert!(cache.evictions > 0, "a plan budget below the two-plan zoo must evict");
    assert!(cache.hits > 0, "runs of same-model batches still reuse the resident plan");
    assert!(cache.acts.evictions > 0, "an act budget below the zoo must evict act profiles");
    assert!(cache.acts.bytes_evicted > 0, "evictions must release bytes");
    assert!(cache.acts.hits > cache.acts.misses, "hot-model act profiles must stay resident");
    assert!(
        cache.hits + cache.acts.hits > cache.misses + cache.acts.misses,
        "bounded steady state: hits must dominate misses across the caches"
    );
    println!("bounded caches evict under pressure and stay byte-identical: OK");
}
