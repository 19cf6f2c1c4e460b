//! Test oracle for open-loop serving under a fixed policy and
//! earliest-free placement, built from public calls only:
//! [`Scheduler::form_batches_bounded`] forms the batches (and the drop
//! set), every batch runs on every lane through
//! [`s2ta_core::Accelerator::run_stage_events`], and
//! [`Scheduler::place_on_lanes`] places them. This is the up-front
//! formation-then-placement computation `Fleet::serve` is checked
//! against; the engine must reproduce it in event order.
//!
//! The file is compiled into the serve crate's unit tests and, by path,
//! into the workspace's integration tests, so it names the serve crate
//! `s2ta_serve` in both.

use s2ta_core::{Scratch, WeightResidency};
use s2ta_models::ModelSpec;
use s2ta_serve::{
    BatchPolicy, DroppedRequest, FaultStats, FixedPolicy, Fleet, ModelServeStats,
    PipelineStageStats, Request, RequestOutcome, Scheduler, ServeReport, ServedRequest,
    WorkerStats,
};
use s2ta_sim::EventCounts;

/// Every field of a [`ServeReport`] that report equality compares.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Replay {
    /// The fleet's composition label.
    pub arch: String,
    /// The batching policy's name.
    pub policy: String,
    /// Outcomes in request-id order.
    pub outcomes: Vec<RequestOutcome>,
    /// Number of batches formed.
    pub batches: usize,
    /// Per-lane occupancy.
    pub workers: Vec<WorkerStats>,
    /// Events summed over every batch.
    pub total_events: EventCounts,
    /// Completion of the last batch.
    pub makespan_cycles: u64,
    /// Pipeline stage rows (empty: the oracle is monolithic).
    pub pipeline_stages: Vec<PipelineStageStats>,
    /// Per-model drops and deadline misses.
    pub per_model: Vec<ModelServeStats>,
    /// Fault accounting (all zero: the oracle injects no faults).
    pub fault: FaultStats,
}

impl Replay {
    /// The equality-carrying fields of `report`.
    pub fn of(report: &ServeReport) -> Self {
        Self {
            arch: report.arch.clone(),
            policy: report.policy.clone(),
            outcomes: report.outcomes.clone(),
            batches: report.batches,
            workers: report.workers.clone(),
            total_events: report.total_events,
            makespan_cycles: report.makespan_cycles,
            pipeline_stages: report.pipeline_stages.clone(),
            per_model: report.per_model.clone(),
            fault: report.fault.clone(),
        }
    }
}

/// What `fleet` serving `requests` under `policy` with earliest-free
/// placement must report. `policy` and `weight_seed` must be the
/// fleet's own; the fleet's queue capacity bounds admission.
pub fn replay(
    fleet: &Fleet,
    policy: FixedPolicy,
    weight_seed: u64,
    models: &[ModelSpec],
    requests: &[Request],
) -> Replay {
    let scheduler = Scheduler::new(policy);
    let formation = scheduler.form_batches_bounded(requests, models.len(), fleet.queue_capacity());
    // `executions[batch][lane]`: the first member streams the weights,
    // the rest of the batch finds them resident.
    let mut scratch = Scratch::new();
    let executions: Vec<Vec<EventCounts>> = formation
        .batches
        .iter()
        .map(|batch| {
            let model = &models[batch.model];
            fleet
                .lanes()
                .iter()
                .map(|lane| {
                    let acc = lane.accelerator();
                    let plan = acc.plan_model(model, weight_seed);
                    let mut events = EventCounts::default();
                    for (i, r) in batch.requests.iter().enumerate() {
                        let residency = if i == 0 {
                            WeightResidency::Streamed
                        } else {
                            WeightResidency::Resident
                        };
                        events += acc.run_stage_events(
                            &plan,
                            model,
                            0..model.layers.len(),
                            r.act_seed,
                            residency,
                            &mut scratch,
                        );
                    }
                    events
                })
                .collect()
        })
        .collect();
    let placements = scheduler.place_on_lanes(
        &formation.batches,
        |batch, lane| executions[batch][lane].cycles,
        fleet.workers(),
    );

    let mut workers: Vec<WorkerStats> =
        fleet.lanes().iter().map(|lane| WorkerStats::new(lane.arch())).collect();
    let mut total_events = EventCounts::default();
    let mut outcomes: Vec<RequestOutcome> = Vec::with_capacity(requests.len());
    for (batch, p) in formation.batches.iter().zip(&placements) {
        let events = executions[batch.id][p.worker];
        total_events += events;
        let lane = &mut workers[p.worker];
        lane.busy_cycles += events.cycles;
        lane.batches += 1;
        lane.requests += batch.requests.len();
        lane.events += events;
        outcomes.extend(batch.requests.iter().map(|r| {
            RequestOutcome::Served(ServedRequest {
                id: r.id,
                model: models[batch.model].name.to_string(),
                arrival: r.arrival,
                start: p.start,
                completion: p.completion,
                batch: batch.id,
                worker: p.worker,
            })
        }));
    }
    outcomes.extend(formation.dropped.iter().map(|r| {
        RequestOutcome::Dropped(DroppedRequest {
            id: r.id,
            model: models[r.model].name.to_string(),
            arrival: r.arrival,
        })
    }));
    outcomes.sort_by_key(RequestOutcome::id);

    // A drop charges its model; a timeout-sealed batch charges every
    // member as a deadline miss.
    let mut per_model: Vec<ModelServeStats> = models
        .iter()
        .map(|m| ModelServeStats {
            model: m.name.to_string(),
            dropped: 0,
            deadline_misses: 0,
            failed: 0,
        })
        .collect();
    for r in &formation.dropped {
        per_model[r.model].dropped += 1;
    }
    for (batch, &timed_out) in formation.batches.iter().zip(&formation.timeout_sealed) {
        if timed_out {
            per_model[batch.model].deadline_misses += batch.requests.len() as u64;
        }
    }

    Replay {
        arch: fleet.arch_label(),
        policy: policy.name().to_string(),
        outcomes,
        batches: formation.batches.len(),
        workers,
        total_events,
        makespan_cycles: placements.iter().map(|p| p.completion).max().unwrap_or(0),
        pipeline_stages: Vec::new(),
        per_model,
        fault: FaultStats::default(),
    }
}
