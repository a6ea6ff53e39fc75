//! # spasm-exec — a deterministic parallel experiment executor
//!
//! The figure sweeps of the paper are embarrassingly parallel — every
//! (application × machine × processor-count) point is an independent
//! simulation — yet each *simulation* is internally sequential by design
//! (the engine's determinism depends on a single event loop). This crate
//! supplies the missing layer: a bounded OS-thread worker pool that runs
//! many independent simulations at once while keeping every observable
//! output **byte-identical** to a serial run.
//!
//! Determinism contract:
//!
//! * results come back in **submission order**, one slot per job,
//!   regardless of completion order ([`ExecReport::results`]);
//! * with `jobs <= 1` the pool degenerates to an inline loop on the
//!   calling thread with the *same* code path and event stream, so a
//!   serial run is the trivial case of a parallel one, not a fork.
//!
//! Every job starts and runs to completion: the pool never cancels one,
//! and never catches a panic. A job that must survive its own failure
//! fences it itself (the experiment layer does); a panic that escapes a
//! job is a bug, and it unwinds to [`execute`]'s caller once every worker
//! has joined. The submitting thread hears each finished job's wall
//! time.
//!
//! The crate is hermetic: `std` only.
//!
//! # Example
//!
//! ```
//! use spasm_exec::{execute, ExecConfig, JobOutput};
//!
//! let report = execute(
//!     ExecConfig::with_jobs(4),
//!     (0u64..32).collect(),
//!     |_ctx, n| JobOutput::plain(n * n),
//!     |_event| {},
//! );
//! assert_eq!(report.results[7], 49); // submission order, whatever the schedule
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::mpsc;
use std::sync::Mutex;
use std::time::{Duration, Instant};

/// Pool configuration.
#[derive(Debug, Clone, Default)]
pub struct ExecConfig {
    /// Worker count: `0` means auto (host parallelism), `1` runs inline
    /// on the calling thread, `n > 1` spawns `min(n, jobs)` workers.
    pub jobs: usize,
}

impl ExecConfig {
    /// A pool of exactly `jobs` workers (`0` = auto).
    pub fn with_jobs(jobs: usize) -> Self {
        ExecConfig { jobs }
    }

    /// The worker count this config resolves to for `n_jobs` jobs.
    pub fn resolved_workers(&self, n_jobs: usize) -> usize {
        let requested = if self.jobs == 0 {
            available_parallelism()
        } else {
            self.jobs
        };
        requested.min(n_jobs).max(1)
    }
}

/// The host's available parallelism, defaulting to 1 when unknown.
pub fn available_parallelism() -> usize {
    std::thread::available_parallelism()
        .map(std::num::NonZeroUsize::get)
        .unwrap_or(1)
}

/// Per-job context handed to the job closure.
#[derive(Debug)]
pub struct JobCtx {
    /// Submission index of this job.
    pub job: usize,
}

/// What one job hands back.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct JobOutput<R> {
    /// The job's result value.
    pub value: R,
}

impl<R> JobOutput<R> {
    /// Wraps a job's result value.
    pub fn plain(value: R) -> Self {
        JobOutput { value }
    }
}

/// The outcome of one batch: per-job results in **submission order**.
#[derive(Debug)]
pub struct ExecReport<R> {
    /// One slot per submitted job, index-aligned with the input vector.
    pub results: Vec<R>,
}

/// Runs `run` over every item of `items` on a bounded worker pool and
/// returns the results in submission order. `observe` hears the wall
/// time of every job's closure as it finishes, on the calling thread,
/// serialized (it is `FnMut`, never called concurrently).
///
/// # Panics
///
/// If `run` panics: inline, at once; on workers, after every worker has
/// joined.
pub fn execute<T, R, F, O>(
    config: ExecConfig,
    items: Vec<T>,
    run: F,
    mut observe: O,
) -> ExecReport<R>
where
    T: Send,
    R: Send,
    F: Fn(&JobCtx, T) -> JobOutput<R> + Sync,
    O: FnMut(Duration),
{
    let n = items.len();
    let workers = config.resolved_workers(n);

    let pool = Pool {
        run: &run,
        next: AtomicUsize::new(0),
        cells: items.into_iter().map(|t| Mutex::new(Some(t))).collect(),
        slots: (0..n).map(|_| Mutex::new(None)).collect(),
    };

    if workers <= 1 {
        // Inline serial path: same pool code, synchronous event
        // delivery.
        while pool.run_next(&mut observe) {}
    } else {
        let (tx, rx) = mpsc::channel::<Duration>();
        std::thread::scope(|s| {
            for _ in 0..workers {
                let tx = tx.clone();
                let pool = &pool;
                s.spawn(move || {
                    let mut emit = |wall: Duration| {
                        // A dropped receiver means the observer side is
                        // gone; the results vector is still filled in.
                        let _ = tx.send(wall);
                    };
                    while pool.run_next(&mut emit) {}
                });
            }
            drop(tx);
            // Drain events on the submitting thread until every worker
            // sender is gone.
            for wall in rx {
                observe(wall);
            }
        });
    }

    let results = pool
        .slots
        .into_iter()
        .map(|slot| {
            slot.into_inner()
                .expect("no worker panics while holding a slot lock")
                .expect("every job slot is filled before the pool drains")
        })
        .collect();
    ExecReport { results }
}

/// The shared state of one batch, borrowed by every worker.
struct Pool<'a, T, R, F> {
    run: &'a F,
    /// Submission-order job cursor; `fetch_add` hands each worker the
    /// next unclaimed job, so starts follow submission order.
    next: AtomicUsize,
    /// One take-once cell per input item.
    cells: Vec<Mutex<Option<T>>>,
    /// One write-once result slot per job, in submission order.
    slots: Vec<Mutex<Option<R>>>,
}

impl<T, R, F> Pool<'_, T, R, F>
where
    T: Send,
    R: Send,
    F: Fn(&JobCtx, T) -> JobOutput<R> + Sync,
{
    /// Claims and runs the next queued job. Returns `false` once the
    /// queue is empty (the worker's signal to exit).
    fn run_next(&self, emit: &mut impl FnMut(Duration)) -> bool {
        let job = self.next.fetch_add(1, Ordering::Relaxed);
        if job >= self.cells.len() {
            return false;
        }
        let item = self.cells[job]
            .lock()
            .expect("item cell poisoned")
            .take()
            .expect("each job claimed exactly once");
        let started = Instant::now();
        let JobOutput { value } = (self.run)(&JobCtx { job }, item);
        *self.slots[job].lock().expect("result slot poisoned") = Some(value);
        emit(started.elapsed());
        true
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// `n` squares on `jobs` workers, each taking at least `NAP`, and how
    /// many jobs the observer heard finish. Their summed wall time is
    /// checked both ways: every job's nap is in it, and the workers cannot
    /// each have been busy for longer than the batch took.
    fn squares(jobs: usize, n: u64) -> (ExecReport<u64>, usize) {
        const NAP: Duration = Duration::from_micros(50);
        let (mut finished, mut busy) = (0, Duration::ZERO);
        let t = Instant::now();
        let report = execute(
            ExecConfig::with_jobs(jobs),
            (0..n).collect(),
            |_ctx, v| {
                std::thread::sleep(NAP);
                JobOutput::plain(v * v)
            },
            |wall| {
                finished += 1;
                busy += wall;
            },
        );
        let workers = ExecConfig::with_jobs(jobs).resolved_workers(n as usize) as u32;
        assert!(busy >= NAP * n as u32, "jobs={jobs}: {busy:?}");
        assert!(busy <= t.elapsed() * workers + Duration::from_millis(1));
        (report, finished)
    }

    #[test]
    fn results_are_in_submission_order_for_any_worker_count() {
        for jobs in [1, 2, 3, 8, 64] {
            let (report, finished) = squares(jobs, 50);
            assert_eq!(finished, 50);
            for (i, r) in report.results.iter().enumerate() {
                assert_eq!(*r, (i * i) as u64, "jobs={jobs}");
            }
        }
    }

    #[test]
    fn serial_and_parallel_agree_exactly() {
        let serial: Vec<_> = squares(1, 40).0.results;
        let parallel: Vec<_> = squares(4, 40).0.results;
        assert_eq!(serial, parallel);
    }

    #[test]
    fn empty_batch_is_fine() {
        let (report, finished) = squares(4, 0);
        assert!(report.results.is_empty());
        assert_eq!(finished, 0);
    }

    #[test]
    fn worker_count_resolution() {
        assert_eq!(ExecConfig::with_jobs(8).resolved_workers(3), 3);
        assert_eq!(ExecConfig::with_jobs(2).resolved_workers(100), 2);
        assert_eq!(ExecConfig::with_jobs(1).resolved_workers(100), 1);
        let auto = ExecConfig::with_jobs(0).resolved_workers(1000);
        assert!(auto >= 1);
        assert_eq!(ExecConfig::with_jobs(8).resolved_workers(0), 1);
    }
}
