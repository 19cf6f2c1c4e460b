//! Order-preserving parallel fan-out.
//!
//! Both the design-space sweep ([`crate::sweep`]) and the serving fleet
//! (`s2ta-serve`) need the same primitive: run an embarrassingly
//! parallel batch of jobs on N OS threads and get the results back **in
//! input order**, so parallel output is byte-identical to the serial
//! path.
//!
//! [`Executor`] is that primitive: a **persistent** work-stealing pool
//! (std threads over the in-tree `crossbeam` injector/steal deques)
//! whose workers are spawned once and reused by every burst, so
//! steady-state fan-out performs no thread spawns and no channel
//! allocation. [`Executor::global`] is the process-wide instance shared
//! by `Fleet`, `Cluster`, and the bench fan-outs. Workers pull job
//! indices from a shared cursor (self-balancing for uneven job costs)
//! and write results into per-index slots, so the output order is fixed
//! by construction at every worker count; the tests compare it against
//! a serial `iter().map(..)`.

use std::sync::{Mutex, OnceLock};
use std::thread;

/// The number of workers to use when the caller has no preference: the
/// machine's available parallelism (1 if it cannot be queried).
pub fn default_workers() -> usize {
    thread::available_parallelism().map(|n| n.get()).unwrap_or(1)
}

/// The worker count for a fan-out over `jobs` jobs: `cap` (or the
/// machine's parallelism when `cap` is `None`), never more workers
/// than jobs, and **at least one** — a tick that formed zero jobs must
/// not request a zero-worker pool.
pub fn worker_count_for(jobs: usize, cap: Option<usize>) -> usize {
    cap.unwrap_or_else(default_workers).min(jobs).max(1)
}

/// A persistent work-stealing executor for order-preserving fan-outs.
///
/// Worker threads are spawned once (at construction, or lazily for
/// [`Executor::global`]) and parked between bursts; each
/// [`Executor::map`] call publishes one batch to the shared injector
/// and the calling thread works alongside the stolen-in helpers. The
/// result vector is assembled by index, so output is byte-identical to
/// a serial `iter().map(..)` at every worker count.
pub struct Executor {
    pool: crossbeam::pool::Pool,
}

impl Executor {
    /// An executor with `workers` total parallelism: the calling thread
    /// plus `workers - 1` persistent helper threads. `workers <= 1`
    /// spawns no threads at all and every map runs serially.
    pub fn new(workers: usize) -> Self {
        Self { pool: crossbeam::pool::Pool::new(workers.saturating_sub(1)) }
    }

    /// The process-wide executor, sized to [`default_workers`] and
    /// spawned on first use. `Fleet`, `Cluster`, the sweep, and the
    /// bench fan-outs all share it, so the whole process keeps one set
    /// of persistent workers no matter how many fleets exist.
    pub fn global() -> &'static Executor {
        static GLOBAL: OnceLock<Executor> = OnceLock::new();
        GLOBAL.get_or_init(|| Executor::new(default_workers()))
    }

    /// Total parallelism (helper threads + the calling thread).
    pub fn workers(&self) -> usize {
        self.pool.threads() + 1
    }

    /// Applies `f` to every item using all available workers; results
    /// in input order. See [`Executor::map_capped`].
    pub fn map<T, U, F>(&self, items: &[T], f: F) -> Vec<U>
    where
        T: Sync,
        U: Send,
        F: Fn(&T) -> U + Sync,
    {
        self.map_capped(items, None, f)
    }

    /// Applies `f` to every item on at most `cap` workers (`None` =
    /// all) and returns the results in input order.
    ///
    /// An effective worker count of one — `cap == Some(1)`, a batch of
    /// one, or a one-worker executor — runs serially inline on the
    /// calling thread, touching no locks and waking no threads, so
    /// serial fleets keep deterministic side-effect order (e.g. LRU
    /// counters) and the serial path stays thread-free.
    pub fn map_capped<T, U, F>(&self, items: &[T], cap: Option<usize>, f: F) -> Vec<U>
    where
        T: Sync,
        U: Send,
        F: Fn(&T) -> U + Sync,
    {
        let workers = worker_count_for(items.len(), cap).min(self.workers());
        if workers <= 1 || items.len() <= 1 {
            return items.iter().map(&f).collect();
        }
        let slots: Vec<Mutex<Option<U>>> = (0..items.len()).map(|_| Mutex::new(None)).collect();
        self.pool.run(items.len(), workers - 1, &|i| {
            let u = f(&items[i]);
            *slots[i].lock().expect("executor result slot poisoned") = Some(u);
        });
        slots
            .into_iter()
            .map(|s| {
                s.into_inner()
                    .expect("executor result slot poisoned")
                    .expect("executor produced every index")
            })
            .collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::atomic::{AtomicUsize, Ordering};

    #[test]
    fn runs_every_item_exactly_once() {
        let counter = AtomicUsize::new(0);
        let items: Vec<usize> = (0..137).collect();
        let out = Executor::new(7).map(&items, |&i| {
            counter.fetch_add(1, Ordering::Relaxed);
            i
        });
        assert_eq!(counter.load(Ordering::Relaxed), items.len());
        assert_eq!(out, items);
    }

    #[test]
    fn default_workers_is_positive() {
        assert!(default_workers() >= 1);
    }

    #[test]
    fn executor_matches_serial() {
        let items: Vec<u64> = (0..300).collect();
        let serial: Vec<u64> = items.iter().map(|x| x * 3 + 1).collect();
        for workers in [1, 2, 3, 7, 8, 64, default_workers()] {
            let ex = Executor::new(workers);
            assert_eq!(ex.map(&items, |&x| x * 3 + 1), serial, "{workers} workers");
            assert_eq!(
                ex.map_capped(&items, Some(2), |&x| x * 3 + 1),
                serial,
                "{workers} workers capped at 2"
            );
        }
    }

    #[test]
    fn executor_guards_zero_and_single_job() {
        let ex = Executor::new(4);
        let none: Vec<u32> = Vec::new();
        assert!(ex.map(&none, |&x| x).is_empty());
        assert_eq!(ex.map(&[7u32], |&x| x + 1), vec![8]);
        assert_eq!(ex.map_capped(&[1u32, 2, 3], Some(1), |&x| x * 2), vec![2, 4, 6]);
    }

    #[test]
    fn executor_is_reusable_and_global_is_shared() {
        let ex = Executor::new(3);
        for _ in 0..20 {
            let items: Vec<usize> = (0..50).collect();
            assert_eq!(ex.map(&items, |&i| i + 1), (1..=50).collect::<Vec<_>>());
        }
        let a = Executor::global() as *const Executor;
        let b = Executor::global() as *const Executor;
        assert_eq!(a, b);
        assert!(Executor::global().workers() >= 1);
    }

    proptest::proptest! {
        #![proptest_config(proptest::test_runner::ProptestConfig::with_cases(32))]
        /// [`Executor::map`] is byte-identical to a serial `iter().map`
        /// at every interesting worker count — including the empty and
        /// single-job batches the executor short-circuits serially.
        #[test]
        fn prop_executor_map_is_order_and_value_identical(
            items in proptest::collection::vec(proptest::arbitrary::any::<u64>(), 0..200),
        ) {
            let f = |x: &u64| x.wrapping_mul(0x9e37_79b9_7f4a_7c15).rotate_left(7);
            let serial: Vec<u64> = items.iter().map(f).collect();
            for workers in [1, 2, 7, default_workers()] {
                let ex = Executor::new(workers);
                proptest::prop_assert_eq!(&ex.map(&items, f), &serial, "{} workers", workers);
            }
        }
    }

    /// Regression guard for the fleet's sizing expression: an empty
    /// batch list used to compute `default_workers().min(0) == 0`
    /// workers. The helper must never return zero, and an executor
    /// built with zero workers must still run (serial fall-back).
    #[test]
    fn worker_count_never_zero_and_zero_workers_still_run() {
        assert_eq!(worker_count_for(0, None), 1);
        assert_eq!(worker_count_for(0, Some(8)), 1);
        assert_eq!(worker_count_for(3, Some(8)), 3);
        assert_eq!(worker_count_for(100, Some(4)), 4);
        assert!(worker_count_for(100, None) >= 1);
        let ex = Executor::new(0);
        let none: Vec<u32> = Vec::new();
        assert!(ex.map(&none, |&x| x).is_empty());
        assert_eq!(ex.map(&[1u32, 2], |&x| x * 2), vec![2, 4]);
    }
}
