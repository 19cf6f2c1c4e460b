//! The batching scheduler: groups compatible requests into batches and
//! places batches onto simulated-time worker lanes.
//!
//! [`crate::Fleet`] serves through its event-driven engine, one event
//! at a time. The up-front form here is the **reference** a
//! fixed-policy, earliest-free engine run must reproduce (the serving
//! tests and the `perfbench` fleet workload replay it). It is split
//! into two deterministic stages so that *what* is computed never
//! depends on *where* it runs:
//!
//! 1. **Batch formation** ([`Scheduler::form_batches`]) folds the
//!    arrival stream through a [`RequestQueue`], closing a batch when it
//!    reaches [`BatchLimits::max_batch`] requests or when its oldest
//!    member has waited [`BatchLimits::max_wait_cycles`]. Formation
//!    depends only on the arrival stream — never on worker availability
//!    — so the batch set (and therefore every simulated event count) is
//!    identical for every fleet size.
//! 2. **Placement** ([`Scheduler::place`] /
//!    [`Scheduler::place_on_lanes`]) assigns the formed batches, in
//!    ready order, to the earliest-free worker lane (lowest index on
//!    ties); `place_on_lanes` additionally lets the service time depend
//!    on the lane, which is what a heterogeneous (mixed-architecture)
//!    fleet needs. Given the per-batch service times this reproduces
//!    the latency/throughput behaviour of an N-lane fleet exactly. The
//!    *affinity* dispatch rule ([`PlacementStrategy::Affinity`], backed
//!    by a per-`(arch, model)` [`ServiceEstimator`]) lives only in the
//!    event-driven engine, which learns service estimates as the run
//!    progresses.
//!
//! Timeout closure is tracked with a deadline-ordered min-heap
//! ([`DeadlineHeap`]) instead of scanning every model lane per arrival:
//! each lane's *front* request defines its deadline, entries are pushed
//! when a lane front changes and invalidated lazily on pop, so an
//! arrival costs O(log models) amortized instead of O(models).
//!
//! **Deadline boundary semantics:** a batch closes only when its
//! deadline is *strictly* before the current time (`deadline < now`).
//! A request arriving exactly at the deadline of its lane's open batch
//! still joins that batch; the batch closes (at `ready == deadline`)
//! the moment any strictly later event is processed.
//!
//! The serving engine re-queries a [`crate::BatchPolicy`] for fresh
//! limits as it runs; this module's stream-fold path deliberately takes
//! a fixed [`BatchLimits`] so the independence property above is
//! structural.

use crate::policy::{BatchLimits, FixedPolicy};
use crate::queue::RequestQueue;
use crate::timewheel::TimerWheel;
use crate::workload::Request;
use s2ta_core::ArchKind;
use std::collections::HashMap;
use std::ops::Range;

/// A group of same-model requests dispatched together.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Batch {
    /// Dense id in dispatch order.
    pub id: usize,
    /// Model index every member shares.
    pub model: usize,
    /// Members in arrival order.
    pub requests: Vec<Request>,
    /// Cycle at which the batch became ready to dispatch.
    pub ready: u64,
}

/// A batch placed on a worker lane in simulated time.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Placement {
    /// The batch this placement is for (index into the batch list).
    pub batch: usize,
    /// Worker lane the batch ran on.
    pub worker: usize,
    /// Cycle the batch started executing.
    pub start: u64,
    /// Cycle the batch finished.
    pub completion: u64,
}

/// Deadline-ordered min-heap over lane fronts.
///
/// An entry `(deadline, model, front_id)` is pushed whenever a lane
/// gains a new front request. Entries are invalidated lazily: a popped
/// entry whose `front_id` no longer matches the lane's current front is
/// stale (the front already left in an earlier batch) and is discarded.
/// At most one entry per lane is live at any time, and each request
/// pushes at most one entry over its lifetime, so the heap stays
/// O(pending) with O(log models) amortized cost per arrival.
#[derive(Debug, Clone, Default)]
pub(crate) struct DeadlineHeap {
    /// Deadline-ordered timer wheel keyed by `(model, front_id)` — the
    /// same `(deadline, model, front_id)` pop order as the binary heap
    /// it replaced, at O(1) amortized per event.
    wheel: TimerWheel<(usize, u64)>,
    /// Compaction staging buffer; persistent so steady-state compaction
    /// allocates nothing once grown to its high-water mark.
    scratch: Vec<(u64, (usize, u64))>,
}

impl DeadlineHeap {
    pub(crate) fn new() -> Self {
        Self::default()
    }

    /// Records `model`'s new front request and its wait deadline.
    pub(crate) fn arm(
        &mut self,
        model: usize,
        front: &Request,
        max_wait_cycles: u64,
        queue: &RequestQueue,
    ) {
        let deadline = front.arrival.saturating_add(max_wait_cycles);
        self.arm_at(deadline, model, front.id, queue);
    }

    /// Records `model`'s new front request by id with an explicit
    /// deadline — used when the wait budget anchors to the re-queue
    /// instant of a retried request rather than its original arrival.
    pub(crate) fn arm_at(
        &mut self,
        deadline: u64,
        model: usize,
        front_id: u64,
        queue: &RequestQueue,
    ) {
        self.wheel.push(deadline, (model, front_id));
        self.maybe_compact(queue);
    }

    /// Rebuilds the wheel from its live entries once stale ones
    /// dominate. Lazy invalidation keeps the wheel O(pending) only
    /// while each request arms at most once; retry and timeout churn
    /// re-arms the same lane's front repeatedly, which would otherwise
    /// grow the wheel O(events processed). At most one entry per lane
    /// is live (matches the lane's current front), so live ≤ models and
    /// a `4 × models` bound means stale entries outnumber live at least
    /// 3:1 before a rebuild. The wheel pops in exact `(deadline, key)`
    /// order even for past deadlines, so popping everything and
    /// re-pushing the surviving subset preserves the exact pop order —
    /// compaction is behaviourally invisible.
    fn maybe_compact(&mut self, queue: &RequestQueue) {
        let live_bound = queue.models().max(1);
        if self.wheel.len() < 64 || self.wheel.len() <= 4 * live_bound {
            return;
        }
        self.scratch.clear();
        while let Some((deadline, key)) = self.wheel.pop() {
            let (model, front_id) = key;
            if queue.front(model).is_some_and(|front| front.id == front_id) {
                self.scratch.push((deadline, key));
            }
        }
        for &(deadline, key) in &self.scratch {
            self.wheel.push(deadline, key);
        }
    }

    /// Number of entries (live + stale) currently held.
    #[cfg(test)]
    pub(crate) fn len(&self) -> usize {
        self.wheel.len()
    }

    /// The earliest live `(deadline, model)` pair, discarding stale
    /// entries against the queue's current lane fronts.
    pub(crate) fn peek_live(&mut self, queue: &RequestQueue) -> Option<(u64, usize)> {
        while let Some((deadline, (model, front_id))) = self.wheel.peek() {
            match queue.front(model) {
                Some(front) if front.id == front_id => return Some((deadline, model)),
                _ => {
                    self.wheel.pop();
                }
            }
        }
        None
    }

    /// Drops the current top entry (after a `peek_live` hit was acted
    /// on).
    pub(crate) fn pop(&mut self) {
        self.wheel.pop();
    }
}

/// How the fleet routes a sealed batch onto a lane.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub enum PlacementStrategy {
    /// Dispatch to the lane that frees up first (lowest index on ties)
    /// — arch-blind, the PR 1 behaviour and the default.
    #[default]
    EarliestFree,
    /// Dispatch to the lane minimizing the *predicted completion time*
    /// `max(free, ready) + estimated service`, where the estimate comes
    /// from a per-`(arch, model)` [`ServiceEstimator`] bootstrapped
    /// from the run's own completed batches. Lanes whose `(arch,
    /// model)` pair has no estimate yet predict zero service
    /// (optimistic), which both explores unknown lanes and makes the
    /// rule collapse to earliest-free before any evidence exists — and
    /// **always** collapse to earliest-free on homogeneous fleets,
    /// where every lane predicts the same service.
    Affinity,
    /// Layer-pipelined execution (SCNN-style stage dataflow): every
    /// model is partitioned into contiguous layer **stages** by a
    /// [`crate::PipelinePlan`], each stage is pinned to a distinct
    /// lane, and a batch flows through the stage lanes in order — so
    /// stage `s` of batch `b` overlaps stage `s+1` of batch `b-1`, and
    /// a deep model no longer serializes a whole lane per batch.
    /// Configure with [`crate::Fleet::with_pipeline`].
    Pipelined,
}

/// The layer scope of a service estimate: a whole model, or one
/// contiguous layer range of it (a pipeline stage).
type StageKey = (usize, usize);

/// Sentinel stage key for whole-model estimates.
const WHOLE_MODEL: StageKey = (0, usize::MAX);

/// Per-`(arch, model, stage)` service-cycle estimates, bootstrapped
/// from the batches a serving run has executed. Whole-model estimates
/// (the affinity cost model) and per-stage estimates (the pipeline
/// partitioner and its lane assignment) live in one table, keyed apart
/// by the stage's layer range.
///
/// The estimate is the running mean of observed service cycles *per
/// request* on that architecture for that scope, scaled by the
/// candidate batch size. Integer arithmetic keeps predictions exactly
/// reproducible for a fixed observation sequence.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct ServiceEstimator {
    /// `(arch, model, stage) -> (requests observed, service cycles
    /// observed)`.
    stats: HashMap<(ArchKind, usize, StageKey), (u64, u64)>,
}

impl ServiceEstimator {
    /// An empty estimator (every prediction is `None`).
    pub fn new() -> Self {
        Self::default()
    }

    /// Records one executed whole-model batch: `requests` requests of
    /// `model` took `service_cycles` on an `arch` lane.
    pub fn record(&mut self, arch: ArchKind, model: usize, requests: usize, service_cycles: u64) {
        self.record_key(arch, model, WHOLE_MODEL, requests, service_cycles);
    }

    /// Records one executed **stage**: `requests` requests of `model`'s
    /// layers `stage` took `service_cycles` on an `arch` lane.
    pub fn record_stage(
        &mut self,
        arch: ArchKind,
        model: usize,
        stage: &Range<usize>,
        requests: usize,
        service_cycles: u64,
    ) {
        self.record_key(arch, model, (stage.start, stage.end), requests, service_cycles);
    }

    fn record_key(
        &mut self,
        arch: ArchKind,
        model: usize,
        stage: StageKey,
        requests: usize,
        service_cycles: u64,
    ) {
        let entry = self.stats.entry((arch, model, stage)).or_insert((0, 0));
        entry.0 += requests as u64;
        entry.1 += service_cycles;
    }

    /// Predicted service cycles of a `batch_size`-request whole-model
    /// batch of `model` on an `arch` lane, or `None` before any batch
    /// of that `(arch, model)` pair has executed.
    pub fn predict(&self, arch: ArchKind, model: usize, batch_size: usize) -> Option<u64> {
        self.predict_key(arch, model, WHOLE_MODEL, batch_size)
    }

    /// Predicted service cycles of a `batch_size`-request batch of
    /// `model`'s layers `stage` on an `arch` lane, or `None` before any
    /// execution of that exact `(arch, model, stage)` scope.
    pub fn predict_stage(
        &self,
        arch: ArchKind,
        model: usize,
        stage: &Range<usize>,
        batch_size: usize,
    ) -> Option<u64> {
        self.predict_key(arch, model, (stage.start, stage.end), batch_size)
    }

    fn predict_key(
        &self,
        arch: ArchKind,
        model: usize,
        stage: StageKey,
        batch_size: usize,
    ) -> Option<u64> {
        let &(requests, cycles) = self.stats.get(&(arch, model, stage))?;
        if requests == 0 {
            return None;
        }
        Some((cycles as u128 * batch_size as u128 / requests as u128) as u64)
    }

    /// Number of `(arch, model, stage)` scopes with at least one
    /// observation.
    pub fn len(&self) -> usize {
        self.stats.len()
    }

    /// `true` before the first observation.
    pub fn is_empty(&self) -> bool {
        self.stats.is_empty()
    }
}

/// The earliest-free lane: minimum `free_at`, ties to the lowest index.
///
/// # Panics
///
/// Panics if `free_at` is empty.
pub(crate) fn earliest_free_lane(free_at: &[u64]) -> usize {
    free_at
        .iter()
        .enumerate()
        .min_by_key(|&(idx, &t)| (t, idx))
        .expect("a fleet needs at least one lane")
        .0
}

/// The affinity choice: minimum predicted completion `max(free, ready)
/// + predicted_service[lane]`, ties broken by `free_at` then index.
///
/// The tie-break order matters: when every lane predicts the same
/// service (a homogeneous fleet, or no estimates yet), the choice
/// reduces exactly to [`earliest_free_lane`] — predicted completions
/// tie whenever the batch's `ready` dominates, and the `free_at`
/// tie-break then picks the same lane the earliest-free rule would.
pub(crate) fn affinity_lane(free_at: &[u64], ready: u64, predicted_service: &[u64]) -> usize {
    debug_assert_eq!(free_at.len(), predicted_service.len());
    free_at
        .iter()
        .zip(predicted_service)
        .enumerate()
        .min_by_key(|&(idx, (&free, &svc))| (free.max(ready).saturating_add(svc), free, idx))
        .expect("a fleet needs at least one lane")
        .0
}

/// The deterministic batching scheduler.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct Scheduler {
    policy: FixedPolicy,
}

/// Everything open-loop batch formation produced: the sealed batches
/// plus the requests refused at admission (empty for unbounded queues).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Formation {
    /// Sealed batches in dispatch order.
    pub batches: Vec<Batch>,
    /// Requests tail-dropped because their lane was at capacity, in
    /// arrival order.
    pub dropped: Vec<Request>,
    /// `timeout_sealed[i]` is whether `batches[i]` was sealed by its
    /// wait deadline expiring (a deadline miss for every member)
    /// rather than by reaching `max_batch`. Parallel to `batches`.
    pub timeout_sealed: Vec<bool>,
}

impl Scheduler {
    /// A scheduler with the given fixed policy.
    pub fn new(policy: FixedPolicy) -> Self {
        Self { policy }
    }

    /// The batching policy.
    pub fn policy(&self) -> FixedPolicy {
        self.policy
    }

    /// The policy's closure bounds.
    fn limits(&self) -> BatchLimits {
        self.policy.into()
    }

    /// Folds a sorted arrival stream into batches (unbounded lanes —
    /// every request is admitted).
    ///
    /// Every request appears in exactly one batch; batches hold one
    /// model's requests in arrival order; no batch exceeds
    /// `max_batch` members; and a batch's `ready` time never exceeds
    /// its first member's arrival plus `max_wait_cycles`.
    ///
    /// # Panics
    ///
    /// Panics if `max_batch` is zero, a request names a model `>=
    /// models`, or arrivals are not sorted.
    pub fn form_batches(&self, requests: &[Request], models: usize) -> Vec<Batch> {
        let formation = self.form_batches_bounded(requests, models, None);
        debug_assert!(formation.dropped.is_empty(), "unbounded lanes cannot drop");
        formation.batches
    }

    /// Folds a sorted arrival stream into batches with optional
    /// per-lane admission bounds: a request arriving while its model's
    /// lane already holds `capacity` pending requests is tail-dropped
    /// instead of queued.
    ///
    /// Drop decisions depend only on the arrival stream and the closure
    /// history — never on worker availability — so bounded formation is
    /// exactly as fleet-size independent as the unbounded path.
    ///
    /// # Panics
    ///
    /// Same conditions as [`Scheduler::form_batches`].
    pub fn form_batches_bounded(
        &self,
        requests: &[Request],
        models: usize,
        capacity: Option<usize>,
    ) -> Formation {
        let limits = self.limits();
        assert!(limits.max_batch > 0, "max_batch must be non-zero");
        let mut queue = match capacity {
            Some(cap) => RequestQueue::bounded(models, cap),
            None => RequestQueue::new(models),
        };
        let mut deadlines = DeadlineHeap::new();
        let mut batches: Vec<Batch> = Vec::new();
        let mut timeout_sealed: Vec<bool> = Vec::new();
        let mut dropped: Vec<Request> = Vec::new();
        let mut last_arrival = 0u64;
        for r in requests {
            assert!(r.arrival >= last_arrival, "arrival stream must be sorted");
            last_arrival = r.arrival;
            // Lazily close any open batch whose oldest member timed out
            // before this arrival. Only r's own lane can be affected by
            // the push below, but timeouts on other lanes must also
            // fire in time order to keep batch ids chronological.
            self.close_timed_out(
                &mut queue,
                r.arrival,
                &mut batches,
                &mut timeout_sealed,
                &mut deadlines,
            );
            let lane = r.model;
            let was_empty = queue.pending(lane) == 0;
            if !queue.try_push(*r) {
                dropped.push(*r);
                continue;
            }
            if was_empty {
                deadlines.arm(lane, r, limits.max_wait_cycles, &queue);
            }
            if queue.pending(lane) == limits.max_batch {
                let members = queue.pop_batch(lane, limits.max_batch);
                batches.push(Self::sealed(batches.len(), lane, members, r.arrival));
                timeout_sealed.push(false);
            }
        }
        // End of stream: remaining open batches dispatch at their
        // timeout (no later arrival can extend them).
        self.close_timed_out(
            &mut queue,
            u64::MAX,
            &mut batches,
            &mut timeout_sealed,
            &mut deadlines,
        );
        Formation { batches, dropped, timeout_sealed }
    }

    /// Closes every open batch whose oldest member would exceed its
    /// wait bound at time `now` (strictly: `deadline < now`; an arrival
    /// exactly at the deadline still joins), in deadline order with
    /// ties broken by model index. Every batch sealed here is a
    /// timeout seal (its members all missed the wait deadline).
    fn close_timed_out(
        &self,
        queue: &mut RequestQueue,
        now: u64,
        batches: &mut Vec<Batch>,
        timeout_sealed: &mut Vec<bool>,
        deadlines: &mut DeadlineHeap,
    ) {
        let limits = self.limits();
        while let Some((deadline, model)) = deadlines.peek_live(queue) {
            if deadline < now || now == u64::MAX {
                deadlines.pop();
                let members = queue.pop_batch(model, limits.max_batch);
                batches.push(Self::sealed(batches.len(), model, members, deadline));
                timeout_sealed.push(true);
                if let Some(front) = queue.front(model) {
                    let front = *front;
                    deadlines.arm(model, &front, limits.max_wait_cycles, queue);
                }
            } else {
                return;
            }
        }
    }

    fn sealed(id: usize, model: usize, requests: Vec<Request>, ready: u64) -> Batch {
        debug_assert!(!requests.is_empty());
        Batch { id, model, requests, ready }
    }

    /// Places batches onto `workers` **identical** simulated lanes:
    /// batches dispatch in ready order (ties by id) to the
    /// earliest-free lane (ties to the lowest index).
    /// `service_cycles[i]` is batch `i`'s execution time, the same on
    /// every lane. The heterogeneous generalization is
    /// [`Scheduler::place_on_lanes`], of which this is the
    /// lane-independent special case.
    ///
    /// # Panics
    ///
    /// Panics if `workers` is zero or `service_cycles` is shorter than
    /// the batch list.
    pub fn place(
        &self,
        batches: &[Batch],
        service_cycles: &[u64],
        workers: usize,
    ) -> Vec<Placement> {
        assert!(service_cycles.len() >= batches.len(), "missing service times");
        self.place_on_lanes(batches, |batch, _lane| service_cycles[batch], workers)
    }

    /// Places batches onto `lanes` simulated lanes whose service time
    /// may differ per lane (a heterogeneous fleet): batches dispatch in
    /// ready order (ties by id) to the earliest-free lane (ties to the
    /// lowest index), and `service_cycles(batch, lane)` answers how
    /// long `batch` runs on the chosen lane.
    ///
    /// The dispatch rule stays arch-blind (earliest-free); only the
    /// *measured* service time depends on the lane. Affinity-aware
    /// routing lives in the event-driven engine, which can grow its
    /// estimates as the run progresses.
    ///
    /// # Panics
    ///
    /// Panics if `lanes` is zero.
    pub fn place_on_lanes(
        &self,
        batches: &[Batch],
        service_cycles: impl Fn(usize, usize) -> u64,
        lanes: usize,
    ) -> Vec<Placement> {
        assert!(lanes > 0, "a fleet needs at least one worker");
        let mut order: Vec<usize> = (0..batches.len()).collect();
        order.sort_by_key(|&i| (batches[i].ready, batches[i].id));
        let mut free_at = vec![0u64; lanes];
        let mut placements =
            vec![Placement { batch: 0, worker: 0, start: 0, completion: 0 }; batches.len()];
        for i in order {
            let worker = earliest_free_lane(&free_at);
            let start = free_at[worker].max(batches[i].ready);
            let completion = start + service_cycles(i, worker);
            free_at[worker] = completion;
            placements[i] = Placement { batch: i, worker, start, completion };
        }
        placements
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::workload::WorkloadSpec;

    fn req(id: u64, model: usize, arrival: u64) -> Request {
        Request { id, model, arrival, act_seed: id }
    }

    fn ids(b: &Batch) -> Vec<u64> {
        b.requests.iter().map(|r| r.id).collect()
    }

    /// The pre-heap O(models)-scan implementation, kept verbatim as the
    /// reference the heap path must match byte-for-byte.
    fn form_batches_reference(s: &Scheduler, requests: &[Request], models: usize) -> Vec<Batch> {
        let policy = s.policy();
        assert!(policy.max_batch > 0, "max_batch must be non-zero");
        let mut queue = RequestQueue::new(models);
        let mut batches: Vec<Batch> = Vec::new();
        let close_timed_out = |queue: &mut RequestQueue, now: u64, batches: &mut Vec<Batch>| loop {
            let next = (0..queue.models())
                .filter_map(|m| {
                    queue.front(m).map(|r| (r.arrival.saturating_add(policy.max_wait_cycles), m))
                })
                .min();
            match next {
                Some((deadline, model)) if deadline < now || now == u64::MAX => {
                    let members = queue.pop_batch(model, policy.max_batch);
                    batches.push(Scheduler::sealed(batches.len(), model, members, deadline));
                }
                _ => return,
            }
        };
        let mut last_arrival = 0u64;
        for r in requests {
            assert!(r.arrival >= last_arrival, "arrival stream must be sorted");
            last_arrival = r.arrival;
            close_timed_out(&mut queue, r.arrival, &mut batches);
            queue.push(*r);
            let lane = r.model;
            if queue.pending(lane) == policy.max_batch {
                let members = queue.pop_batch(lane, policy.max_batch);
                batches.push(Scheduler::sealed(batches.len(), lane, members, r.arrival));
            }
        }
        close_timed_out(&mut queue, u64::MAX, &mut batches);
        batches
    }

    #[test]
    fn heap_path_is_byte_identical_to_scan_reference() {
        for seed in 0..20u64 {
            let models = 1 + (seed as usize % 4);
            let reqs = WorkloadSpec::uniform(seed, 400, 700.0, models).generate();
            for (max_batch, max_wait) in [(1, 0), (3, 500), (8, 5_000), (4, u64::MAX)] {
                let s = Scheduler::new(FixedPolicy { max_batch, max_wait_cycles: max_wait });
                assert_eq!(
                    s.form_batches(&reqs, models),
                    form_batches_reference(&s, &reqs, models),
                    "seed {seed}, max_batch {max_batch}, max_wait {max_wait}"
                );
            }
        }
    }

    /// A retry/timeout storm re-arms the same lane's front thousands of
    /// times; lazy invalidation alone would let the wheel grow
    /// O(events). Compaction must pin it O(live) — bounded by a small
    /// constant times the model count — without changing what
    /// `peek_live` reports.
    #[test]
    fn deadline_heap_compacts_under_rearm_churn() {
        let models = 3;
        let mut queue = RequestQueue::new(models);
        let mut heap = DeadlineHeap::new();
        for m in 0..models {
            queue.push(req(m as u64, m, 10));
        }
        for round in 0..10_000u64 {
            let m = (round % models as u64) as usize;
            // Retire the lane's current front and replace it: each
            // replacement arms a fresh entry while the retired front's
            // entry goes stale only lazily — exactly the churn a retry
            // storm produces.
            queue.pop_batch(m, 1);
            let next = req(models as u64 + round, m, 10 + round);
            queue.push(next);
            heap.arm(m, &next, 100, &queue);
        }
        assert!(
            heap.len() <= 64.max(4 * models),
            "wheel grew to {} entries across the storm; compaction must \
             keep it O(live)",
            heap.len()
        );
        // The storm must not have disturbed liveness: every lane's
        // current front is still discoverable in deadline order.
        let (_, model) = heap.peek_live(&queue).expect("live fronts remain");
        assert!(model < models);
    }

    #[test]
    fn size_closure() {
        let s = Scheduler::new(FixedPolicy { max_batch: 2, max_wait_cycles: 1_000_000 });
        let reqs: Vec<Request> = (0..5).map(|i| req(i, 0, i * 10)).collect();
        let batches = s.form_batches(&reqs, 1);
        assert_eq!(batches.len(), 3);
        assert_eq!(ids(&batches[0]), vec![0, 1]);
        assert_eq!(batches[0].ready, 10, "ready at the arrival that filled the batch");
        assert_eq!(ids(&batches[1]), vec![2, 3]);
        // The trailing singleton dispatches at its timeout.
        assert_eq!(ids(&batches[2]), vec![4]);
        assert_eq!(batches[2].ready, 40 + 1_000_000);
    }

    #[test]
    fn timeout_closure_bounds_waiting() {
        let s = Scheduler::new(FixedPolicy { max_batch: 8, max_wait_cycles: 100 });
        let reqs = vec![req(0, 0, 0), req(1, 0, 50), req(2, 0, 200), req(3, 0, 220)];
        let batches = s.form_batches(&reqs, 1);
        assert_eq!(batches.len(), 2);
        assert_eq!(ids(&batches[0]), vec![0, 1]);
        assert_eq!(batches[0].ready, 100, "oldest member waited exactly max_wait");
        assert_eq!(ids(&batches[1]), vec![2, 3]);
        assert_eq!(batches[1].ready, 300);
    }

    /// Pins the `deadline < now` boundary: an arrival *exactly at* the
    /// open batch's deadline joins it; one cycle later it does not.
    #[test]
    fn arrival_exactly_at_deadline_joins_the_batch() {
        let s = Scheduler::new(FixedPolicy { max_batch: 8, max_wait_cycles: 100 });
        // Second request lands exactly at 0 + 100.
        let at = s.form_batches(&[req(0, 0, 0), req(1, 0, 100)], 1);
        assert_eq!(at.len(), 1, "deadline == now must not close the batch early");
        assert_eq!(ids(&at[0]), vec![0, 1]);
        assert_eq!(at[0].ready, 100, "joined batch still seals at the deadline");

        // One cycle past the deadline: the batch has already closed.
        let past = s.form_batches(&[req(0, 0, 0), req(1, 0, 101)], 1);
        assert_eq!(past.len(), 2, "deadline < now must close the batch");
        assert_eq!(ids(&past[0]), vec![0]);
        assert_eq!(past[0].ready, 100);
        assert_eq!(ids(&past[1]), vec![1]);
    }

    /// A cross-lane arrival strictly after another lane's deadline
    /// seals that lane's batch first, keeping batch ids chronological.
    #[test]
    fn cross_lane_timeouts_fire_in_deadline_order() {
        let s = Scheduler::new(FixedPolicy { max_batch: 8, max_wait_cycles: 10 });
        let reqs = vec![req(0, 0, 0), req(1, 1, 5), req(2, 2, 100)];
        let batches = s.form_batches(&reqs, 3);
        assert_eq!(batches.len(), 3);
        assert_eq!((batches[0].model, batches[0].ready), (0, 10));
        assert_eq!((batches[1].model, batches[1].ready), (1, 15));
        assert_eq!((batches[2].model, batches[2].ready), (2, 110));
    }

    #[test]
    fn batches_never_mix_models_and_lose_nothing() {
        let s = Scheduler::new(FixedPolicy { max_batch: 3, max_wait_cycles: 500 });
        let reqs: Vec<Request> = (0..40).map(|i| req(i, (i % 3) as usize, i * 37)).collect();
        let batches = s.form_batches(&reqs, 3);
        let mut seen: Vec<u64> = Vec::new();
        for b in &batches {
            assert!(!b.requests.is_empty());
            assert!(b.requests.len() <= 3);
            for r in &b.requests {
                assert_eq!(r.model, b.model, "mixed-model batch");
                assert!(b.ready <= r.arrival + 500, "request waited past the bound");
                seen.push(r.id);
            }
            let first = b.requests[0];
            assert!(b.ready >= first.arrival);
        }
        seen.sort_unstable();
        assert_eq!(seen, (0..40).collect::<Vec<_>>(), "dropped or duplicated requests");
    }

    #[test]
    fn fifo_within_and_across_batches_per_model() {
        let s = Scheduler::new(FixedPolicy { max_batch: 4, max_wait_cycles: 100 });
        let reqs: Vec<Request> = (0..30).map(|i| req(i, (i % 2) as usize, i * 9)).collect();
        let batches = s.form_batches(&reqs, 2);
        for model in 0..2 {
            let order: Vec<u64> =
                batches.iter().filter(|b| b.model == model).flat_map(ids).collect();
            let mut sorted = order.clone();
            sorted.sort_unstable();
            assert_eq!(order, sorted, "model {model} not FIFO");
        }
    }

    #[test]
    fn bounded_formation_tail_drops_and_reopens() {
        let s = Scheduler::new(FixedPolicy { max_batch: 4, max_wait_cycles: 1_000 });
        // Five rapid arrivals against a lane capacity of 2: the first
        // two queue, the next three drop, until the size/timeout
        // closure drains the lane.
        let reqs: Vec<Request> = (0..5).map(|i| req(i, 0, i)).collect();
        let Formation { batches, dropped, .. } = s.form_batches_bounded(&reqs, 1, Some(2));
        let dropped_ids: Vec<u64> = dropped.iter().map(|r| r.id).collect();
        assert_eq!(dropped_ids, vec![2, 3, 4], "tail drop must refuse the newest arrivals");
        assert_eq!(batches.len(), 1);
        assert_eq!(ids(&batches[0]), vec![0, 1]);
        // Admitted + dropped partition the stream.
        let admitted: usize = batches.iter().map(|b| b.requests.len()).sum();
        assert_eq!(admitted + dropped.len(), reqs.len());
    }

    #[test]
    fn unbounded_capacity_matches_plain_formation() {
        let reqs = WorkloadSpec::uniform(13, 200, 300.0, 2).generate();
        let s = Scheduler::new(FixedPolicy { max_batch: 4, max_wait_cycles: 2_000 });
        let bounded = s.form_batches_bounded(&reqs, 2, Some(usize::MAX));
        assert!(bounded.dropped.is_empty());
        assert_eq!(bounded.batches, s.form_batches(&reqs, 2));
    }

    #[test]
    fn placement_is_earliest_free_worker() {
        let s = Scheduler::new(FixedPolicy::default());
        let batches: Vec<Batch> = (0..4)
            .map(|i| Batch { id: i, model: 0, requests: vec![req(i as u64, 0, 0)], ready: 0 })
            .collect();
        let placements = s.place(&batches, &[100, 100, 10, 10], 2);
        // Batches 0 and 1 occupy both workers; batch 2 waits for the
        // first free worker (worker 0 at cycle 100 — ties go low).
        assert_eq!(placements[0].worker, 0);
        assert_eq!(placements[1].worker, 1);
        assert_eq!(placements[2].start, 100);
        assert_eq!(placements[3].start, 100);
        assert_eq!(placements[2].completion, 110);
        // Lanes never overlap.
        for w in 0..2 {
            let mut spans: Vec<(u64, u64)> = placements
                .iter()
                .filter(|p| p.worker == w)
                .map(|p| (p.start, p.completion))
                .collect();
            spans.sort_unstable();
            for pair in spans.windows(2) {
                assert!(pair[0].1 <= pair[1].0, "worker {w} overlapped");
            }
        }
    }

    #[test]
    fn place_on_lanes_uses_per_lane_service_times() {
        let s = Scheduler::default();
        let batches: Vec<Batch> = (0..2)
            .map(|i| Batch { id: i, model: 0, requests: vec![req(i as u64, 0, 0)], ready: 0 })
            .collect();
        // Lane 0 is 10x slower: dispatch stays earliest-free (batch 0
        // -> lane 0, batch 1 -> lane 1) but the completions reflect
        // each lane's own speed.
        let svc = |_batch: usize, lane: usize| if lane == 0 { 1_000 } else { 100 };
        let p = s.place_on_lanes(&batches, svc, 2);
        assert_eq!((p[0].worker, p[0].completion), (0, 1_000));
        assert_eq!((p[1].worker, p[1].completion), (1, 100));
    }

    #[test]
    fn estimator_predicts_mean_per_request_scaled_by_batch_size() {
        let mut e = ServiceEstimator::new();
        assert!(e.is_empty());
        assert_eq!(e.predict(ArchKind::S2taAw, 0, 4), None, "no evidence, no estimate");
        e.record(ArchKind::S2taAw, 0, 2, 2_000);
        e.record(ArchKind::S2taAw, 0, 4, 4_600);
        // Mean per request = 6600 / 6 = 1100.
        assert_eq!(e.predict(ArchKind::S2taAw, 0, 3), Some(3_300));
        assert_eq!(e.predict(ArchKind::S2taAw, 1, 3), None, "models do not share estimates");
        assert_eq!(e.predict(ArchKind::SaZvcg, 0, 3), None, "archs do not share estimates");
        assert_eq!(e.len(), 1);
    }

    #[test]
    fn estimator_keys_stages_apart_from_whole_models() {
        let mut e = ServiceEstimator::new();
        e.record(ArchKind::S2taAw, 0, 2, 2_000);
        e.record_stage(ArchKind::S2taAw, 0, &(0..3), 2, 400);
        e.record_stage(ArchKind::S2taAw, 0, &(3..5), 2, 1_600);
        assert_eq!(e.len(), 3, "whole-model and stage scopes are distinct keys");
        assert_eq!(e.predict(ArchKind::S2taAw, 0, 1), Some(1_000));
        assert_eq!(e.predict_stage(ArchKind::S2taAw, 0, &(0..3), 1), Some(200));
        assert_eq!(e.predict_stage(ArchKind::S2taAw, 0, &(3..5), 4), Some(3_200));
        assert_eq!(
            e.predict_stage(ArchKind::S2taAw, 0, &(0..5), 1),
            None,
            "an unobserved range has no estimate, even if sub-ranges do"
        );
        assert_eq!(e.predict_stage(ArchKind::SaZvcg, 0, &(0..3), 1), None);
    }

    #[test]
    fn affinity_lane_reduces_to_earliest_free_on_equal_predictions() {
        // Exhaustive tie-break check over a few free/ready shapes: with
        // lane-independent predictions, affinity must pick exactly the
        // earliest-free lane.
        for free_at in [vec![0, 0, 0], vec![10, 5, 20], vec![7, 7, 3], vec![100, 2, 2]] {
            for ready in [0u64, 4, 50, 1_000] {
                for svc in [0u64, 123] {
                    let pred = vec![svc; free_at.len()];
                    assert_eq!(
                        affinity_lane(&free_at, ready, &pred),
                        earliest_free_lane(&free_at),
                        "free {free_at:?} ready {ready} svc {svc}"
                    );
                }
            }
        }
    }

    #[test]
    fn affinity_lane_prefers_the_faster_lane_even_when_busy() {
        // Lane 0 frees at 100 but is predicted 10x faster than lane 1
        // (free now): completion 100+50=150 vs 0+500=500.
        assert_eq!(affinity_lane(&[100, 0], 0, &[50, 500]), 0);
        // If the fast lane is backed up far enough, the slow lane wins.
        assert_eq!(affinity_lane(&[600, 0], 0, &[50, 500]), 1);
    }

    #[test]
    fn placement_respects_ready_times() {
        let s = Scheduler::new(FixedPolicy::default());
        let batches: Vec<Batch> = (0..3)
            .map(|i| Batch {
                id: i,
                model: 0,
                requests: vec![req(i as u64, 0, 0)],
                ready: 1000 * i as u64,
            })
            .collect();
        let placements = s.place(&batches, &[10, 10, 10], 4);
        for (p, b) in placements.iter().zip(&batches) {
            assert!(p.start >= b.ready);
        }
    }
}
