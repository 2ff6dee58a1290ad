//! # csn-parallel — a hand-rolled work-stealing thread pool
//!
//! The workspace is dependency-restricted (no rayon/crossbeam), so this
//! crate implements the small scheduler shared by the parallel algorithm
//! kernels in `csn-graph` and the experiment runner in `csn-bench`:
//! a fixed task set, one deque per worker, and stealing from the busiest
//! victim when a worker runs dry. Tasks never spawn tasks, which keeps
//! termination trivial — once every deque is empty the run is over.
//!
//! The calling thread is worker 0: a call on `jobs` workers spawns
//! `jobs − 1` scoped threads, and the caller drains its own deque (then
//! steals) instead of blocking in the join. Callers that submit many small
//! batches, such as the query-serving layer, pay one thread start fewer
//! per call.
//!
//! Results come back in task order regardless of which worker ran what, so
//! callers (the byte-identical text guarantee of the experiment runner and
//! the bit-identical merge guarantee of the parallel kernels) never
//! observe scheduling.
//!
//! # Examples
//!
//! ```
//! let (squares, stats) = csn_parallel::run_indexed(4, 2, |i, _worker| i * i);
//! assert_eq!(squares, vec![0, 1, 4, 9]);
//! assert_eq!(stats.tasks_run, 4);
//! ```

use std::collections::VecDeque;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Mutex;

/// Counters describing one pool run.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct PoolStats {
    /// Workers that ran, the calling thread included.
    pub workers: usize,
    /// Tasks executed (equals the task count on success).
    pub tasks_run: usize,
    /// Tasks a worker stole from another worker's deque.
    pub steals: usize,
}

/// The number of hardware threads the runtime reports, falling back to 1
/// when detection fails (the same convention the `experiments` binary and
/// the perf smoke use for their default `--jobs`).
pub fn available_parallelism() -> usize {
    std::thread::available_parallelism().map(std::num::NonZeroUsize::get).unwrap_or(1)
}

/// Runs `task(i, worker)` for `i in 0..n_tasks` on `jobs` workers and
/// returns the results in task order, plus scheduling counters. The second
/// closure argument is the index of the worker that executed the task
/// (always 0 on the serial path), for scheduling attribution.
///
/// `jobs == 1` (or a single task) degenerates to an inline serial loop on
/// the calling thread — no threads, no locks, deterministic timing.
///
/// # Panics
///
/// If a task panics the panic is propagated to the caller after the scope
/// joins; remaining queued tasks may or may not have run.
pub fn run_indexed<T, F>(n_tasks: usize, jobs: usize, task: F) -> (Vec<T>, PoolStats)
where
    T: Send,
    F: Fn(usize, usize) -> T + Sync,
{
    run_core(n_tasks, jobs, |_| (), |i, w, ()| task(i, w))
}

/// [`run_indexed`] with **per-worker mutable state**: `init(worker)` builds
/// one `S` on each worker thread before it drains tasks, and every task that
/// worker executes (its own or stolen) receives `&mut S`. This is the batch
/// submit path of the query-serving layer: each worker owns one scratch
/// arena, batches run as tasks, and because results return in task order the
/// output is bit-identical at any `jobs` count — provided `task` is a pure
/// function of its index (state reuse must be observationally invisible,
/// the same contract as `csn_graph::scratch`).
///
/// `jobs == 1` degenerates to one inline state on the calling thread.
///
/// # Examples
///
/// ```
/// // Each worker reuses one buffer across the tasks it runs.
/// let (sums, _) = csn_parallel::run_indexed_stateful(
///     5,
///     2,
///     |_worker| Vec::new(),
///     |i, buf: &mut Vec<usize>| {
///         buf.clear();
///         buf.extend(0..=i);
///         buf.iter().sum::<usize>()
///     },
/// );
/// assert_eq!(sums, vec![0, 1, 3, 6, 10]);
/// ```
pub fn run_indexed_stateful<T, S, I, F>(
    n_tasks: usize,
    jobs: usize,
    init: I,
    task: F,
) -> (Vec<T>, PoolStats)
where
    T: Send,
    I: Fn(usize) -> S + Sync,
    F: Fn(usize, &mut S) -> T + Sync,
{
    run_core(n_tasks, jobs, init, |i, _w, state| task(i, state))
}

/// [`run_indexed_stateful`] with the executing worker's index exposed to the
/// task as well: `task(i, worker, &mut state)`. This is the shape the
/// deterministic distsim stepper needs — each worker owns one outbox arena
/// (selected by `worker`), tasks are node-index waves, and the caller merges
/// the per-worker arenas in wave order afterwards so the result is
/// bit-identical to serial at any job count (the wave-ordered merge of the
/// Brandes source sweep in `csn_graph::centrality`).
///
/// `jobs == 1` degenerates to one inline state on the calling thread with
/// `worker == 0`.
///
/// # Examples
///
/// ```
/// let hits = std::sync::Mutex::new(vec![0usize; 2]);
/// let (out, stats) = csn_parallel::run_indexed_stateful_with_worker(
///     6,
///     2,
///     |_worker| (),
///     |i, worker, ()| {
///         hits.lock().unwrap()[worker] += 1;
///         i + 1
///     },
/// );
/// assert_eq!(out, vec![1, 2, 3, 4, 5, 6]);
/// assert_eq!(hits.into_inner().unwrap().iter().sum::<usize>(), stats.tasks_run);
/// ```
pub fn run_indexed_stateful_with_worker<T, S, I, F>(
    n_tasks: usize,
    jobs: usize,
    init: I,
    task: F,
) -> (Vec<T>, PoolStats)
where
    T: Send,
    I: Fn(usize) -> S + Sync,
    F: Fn(usize, usize, &mut S) -> T + Sync,
{
    run_core(n_tasks, jobs, init, task)
}

/// The shared scheduler: deques, stealing, and in-order result collection.
/// The calling thread is worker 0 and `workers − 1` scoped threads run the
/// rest. `init` runs once per worker on that worker's thread (worker 0's
/// on the caller); its state never crosses threads, so `S` needs neither
/// `Send` nor `Sync`.
fn run_core<T, S, I, F>(n_tasks: usize, jobs: usize, init: I, task: F) -> (Vec<T>, PoolStats)
where
    T: Send,
    I: Fn(usize) -> S + Sync,
    F: Fn(usize, usize, &mut S) -> T + Sync,
{
    let workers = jobs.clamp(1, n_tasks.max(1));
    if workers <= 1 {
        let mut state = init(0);
        let results = (0..n_tasks).map(|i| task(i, 0, &mut state)).collect();
        return (results, PoolStats { workers: 1, tasks_run: n_tasks, steals: 0 });
    }

    // Deal tasks round-robin so every worker starts with local work.
    let deques: Vec<Mutex<VecDeque<usize>>> = (0..workers)
        .map(|w| Mutex::new((0..n_tasks).skip(w).step_by(workers).collect::<VecDeque<usize>>()))
        .collect();
    let slots: Vec<Mutex<Option<T>>> = (0..n_tasks).map(|_| Mutex::new(None)).collect();
    let steals = AtomicUsize::new(0);
    let tasks_run = AtomicUsize::new(0);

    let worker = |w: usize| {
        let mut state = init(w);
        loop {
            // Own work first: LIFO pop keeps the working set warm.
            let mut next = deques[w].lock().expect("deque lock").pop_back();
            if next.is_none() {
                // Steal from the victim with the most queued work, FIFO end,
                // to balance the tail of the run.
                let victim = (0..workers)
                    .filter(|&v| v != w)
                    .max_by_key(|&v| deques[v].lock().expect("deque lock").len());
                if let Some(v) = victim {
                    next = deques[v].lock().expect("deque lock").pop_front();
                    if next.is_some() {
                        steals.fetch_add(1, Ordering::Relaxed);
                    }
                }
            }
            match next {
                Some(i) => {
                    let out = task(i, w, &mut state);
                    *slots[i].lock().expect("slot lock") = Some(out);
                    tasks_run.fetch_add(1, Ordering::Relaxed);
                }
                // Tasks never spawn tasks, so empty deques everywhere means
                // the run is complete.
                None => break,
            }
        }
    };
    // The scope joins the spawned workers, and re-raises a panic from any
    // of them or from worker 0, only after all have stopped.
    std::thread::scope(|scope| {
        for w in 1..workers {
            let worker = &worker;
            scope.spawn(move || worker(w));
        }
        worker(0);
    });

    let results = slots
        .into_iter()
        .map(|s| s.into_inner().expect("slot lock").expect("every task ran"))
        .collect();
    let stats =
        PoolStats { workers, tasks_run: tasks_run.into_inner(), steals: steals.into_inner() };
    (results, stats)
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::atomic::{AtomicUsize, Ordering};

    #[test]
    fn serial_path_preserves_order() {
        let (out, stats) = run_indexed(8, 1, |i, w| {
            assert_eq!(w, 0);
            i * i
        });
        assert_eq!(out, vec![0, 1, 4, 9, 16, 25, 36, 49]);
        assert_eq!(stats.workers, 1);
        assert_eq!(stats.tasks_run, 8);
    }

    #[test]
    fn parallel_runs_every_task_exactly_once_in_order() {
        let counter = AtomicUsize::new(0);
        let (out, stats) = run_indexed(50, 4, |i, w| {
            assert!(w < 4);
            counter.fetch_add(1, Ordering::Relaxed);
            i * 2
        });
        assert_eq!(counter.into_inner(), 50);
        assert_eq!(stats.tasks_run, 50);
        assert_eq!(stats.workers, 4);
        assert_eq!(out, (0..50).map(|i| i * 2).collect::<Vec<_>>());
    }

    #[test]
    fn workers_capped_by_task_count() {
        let (out, stats) = run_indexed(2, 16, |i, _| i);
        assert_eq!(out, vec![0, 1]);
        assert_eq!(stats.workers, 2);
    }

    #[test]
    fn uneven_task_durations_still_complete() {
        let (out, _) = run_indexed(12, 3, |i, _| {
            if i % 5 == 0 {
                std::thread::sleep(std::time::Duration::from_millis(5));
            }
            i + 1
        });
        assert_eq!(out, (1..=12).collect::<Vec<_>>());
    }

    #[test]
    fn zero_tasks_is_a_no_op() {
        let (out, stats) = run_indexed(0, 4, |i, _| i);
        assert!(out.is_empty());
        assert_eq!(stats.tasks_run, 0);
    }

    #[test]
    fn available_parallelism_is_positive() {
        assert!(available_parallelism() >= 1);
    }

    #[test]
    fn stateful_results_identical_at_any_jobs() {
        // A task that *uses* its per-worker state but whose result does not
        // depend on it — the scratch-arena contract. Output must match the
        // serial run at every worker count.
        let run = |jobs| {
            run_indexed_stateful(
                33,
                jobs,
                |_w| Vec::<usize>::new(),
                |i, buf| {
                    buf.push(i); // state accumulates across this worker's tasks
                    i * 3 + 1
                },
            )
            .0
        };
        let serial = run(1);
        assert_eq!(serial, (0..33).map(|i| i * 3 + 1).collect::<Vec<_>>());
        for jobs in [2, 4, 7] {
            assert_eq!(run(jobs), serial, "jobs={jobs}");
        }
    }

    #[test]
    fn stateful_with_worker_sees_consistent_worker_index() {
        // Whatever worker runs a task, the index it reports must address the
        // state that `init` built for that worker — the per-worker outbox
        // arena contract of the distsim stepper.
        let (out, stats) = run_indexed_stateful_with_worker(
            40,
            3,
            |w| w,
            |i, w, state| {
                assert_eq!(*state, w, "task {i} ran with a foreign worker's state");
                i * 2
            },
        );
        assert_eq!(out, (0..40).map(|i| i * 2).collect::<Vec<_>>());
        assert_eq!(stats.tasks_run, 40);
    }

    #[test]
    fn stateful_init_runs_once_per_worker() {
        let inits = AtomicUsize::new(0);
        let (_, stats) = run_indexed_stateful(
            20,
            3,
            |_w| {
                inits.fetch_add(1, Ordering::Relaxed);
            },
            |i, ()| i,
        );
        assert_eq!(inits.into_inner(), stats.workers);
    }

    #[test]
    fn the_caller_is_worker_zero() {
        // Three tasks: jobs = 2 runs two workers, jobs = 4 is capped at three.
        let caller = std::thread::current().id();
        for jobs in [2, 4] {
            let threads = Mutex::new(Vec::new());
            let (out, stats) = run_indexed_stateful(
                3,
                jobs,
                |w| threads.lock().expect("lock").push((w, std::thread::current().id())),
                |i, ()| i,
            );
            assert_eq!(out, vec![0, 1, 2]);
            assert_eq!(stats.workers, jobs.min(3), "jobs={jobs}");
            let mut threads = threads.into_inner().expect("lock");
            threads.sort_unstable_by_key(|&(w, _)| w);
            let workers: Vec<usize> = threads.iter().map(|&(w, _)| w).collect();
            assert_eq!(workers, (0..stats.workers).collect::<Vec<_>>(), "one init per worker");
            for &(w, id) in &threads {
                assert_eq!(id == caller, w == 0, "jobs={jobs}: init({w}) on the wrong thread");
            }
            let distinct: std::collections::HashSet<_> =
                threads.iter().map(|&(_, id)| id).collect();
            assert_eq!(distinct.len(), stats.workers, "jobs={jobs}: one thread per worker");
        }
    }

    #[test]
    #[should_panic]
    fn a_task_panic_reaches_the_caller() {
        run_indexed(8, 2, |i, _| assert_ne!(i, 5, "task 5 fails"));
    }
}
