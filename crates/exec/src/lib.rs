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
//! * a panicking job is caught at the job boundary ([`JobError::Panicked`])
//!   and the worker continues — one bad point cannot poison a batch;
//! * with `jobs <= 1` the pool degenerates to an inline loop on the
//!   calling thread with the *same* code path and event stream, so a
//!   serial run is the trivial case of a parallel one, not a fork.
//!
//! Every job starts and runs to completion: the pool never cancels one.
//! Progress and metrics flow to the submitting thread as an
//! [`ExecEvent`] stream (queued/started/finished, per-job wall time,
//! cost and injected-fault counters).
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
//! let squares: Vec<u64> = report.results.into_iter().map(Result::unwrap).collect();
//! assert_eq!(squares[7], 49); // submission order, whatever the schedule
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod events;

pub use events::{ExecEvent, ExecReport};

use std::fmt;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::mpsc;
use std::sync::Mutex;
use std::time::Instant;

/// Why one job produced no result.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum JobError {
    /// The job's closure panicked; the payload is the rendered message.
    Panicked(String),
}

impl fmt::Display for JobError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            JobError::Panicked(msg) => write!(f, "job panicked: {msg}"),
        }
    }
}

impl std::error::Error for JobError {}

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

/// What one job hands back: its value plus metered cost and fault counts
/// for the event stream.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct JobOutput<R> {
    /// The job's result value.
    pub value: R,
    /// Cost units consumed (simulator events, by convention).
    pub cost: u64,
    /// Faults injected during the job, for the metrics stream.
    pub faults: u64,
}

impl<R> JobOutput<R> {
    /// A result with no metered cost or faults.
    pub fn plain(value: R) -> Self {
        JobOutput {
            value,
            cost: 0,
            faults: 0,
        }
    }
}

/// Runs `run` over every item of `items` on a bounded worker pool and
/// returns the results in submission order. `observe` sees every
/// [`ExecEvent`] on the calling thread, serialized.
///
/// Panics inside `run` are caught per job ([`JobError::Panicked`]).
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
    O: FnMut(&ExecEvent),
{
    let n = items.len();
    let workers = config.resolved_workers(n);

    let pool = Pool {
        run: &run,
        next: AtomicUsize::new(0),
        cells: items.into_iter().map(|t| Mutex::new(Some(t))).collect(),
        slots: (0..n).map(|_| Mutex::new(None)).collect(),
    };

    for job in 0..n {
        observe(&ExecEvent::Queued { job });
    }

    if workers <= 1 {
        // Inline serial path: same pool code, synchronous event
        // delivery.
        while pool.run_next(0, &mut |ev| observe(&ev)) {}
    } else {
        let (tx, rx) = mpsc::channel::<ExecEvent>();
        std::thread::scope(|s| {
            for worker in 0..workers {
                let tx = tx.clone();
                let pool = &pool;
                s.spawn(move || {
                    let mut emit = |ev: ExecEvent| {
                        // A dropped receiver means the observer side is
                        // gone; the results vector is still filled in.
                        let _ = tx.send(ev);
                    };
                    while pool.run_next(worker, &mut emit) {}
                });
            }
            drop(tx);
            // Drain events on the submitting thread until every worker
            // sender is gone.
            for ev in rx {
                observe(&ev);
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
    slots: Vec<Mutex<Option<Result<R, JobError>>>>,
}

impl<T, R, F> Pool<'_, T, R, F>
where
    T: Send,
    R: Send,
    F: Fn(&JobCtx, T) -> JobOutput<R> + Sync,
{
    /// Claims and runs the next queued job. Returns `false` once the
    /// queue is empty (the worker's signal to exit).
    fn run_next(&self, worker: usize, emit: &mut impl FnMut(ExecEvent)) -> bool {
        let job = self.next.fetch_add(1, Ordering::Relaxed);
        if job >= self.cells.len() {
            return false;
        }
        let item = self.cells[job]
            .lock()
            .expect("item cell poisoned")
            .take()
            .expect("each job claimed exactly once");
        emit(ExecEvent::Started { job, worker });
        let started = Instant::now();
        match catch_unwind(AssertUnwindSafe(|| (self.run)(&JobCtx { job }, item))) {
            Ok(JobOutput {
                value,
                cost,
                faults,
            }) => {
                self.fill(job, Ok(value));
                emit(ExecEvent::Finished {
                    job,
                    worker,
                    wall: started.elapsed(),
                    cost,
                    faults,
                });
            }
            Err(payload) => {
                let message = panic_message(payload.as_ref());
                self.fill(job, Err(JobError::Panicked(message.clone())));
                emit(ExecEvent::Panicked {
                    job,
                    worker,
                    wall: started.elapsed(),
                    message,
                });
            }
        }
        true
    }

    fn fill(&self, job: usize, result: Result<R, JobError>) {
        *self.slots[job].lock().expect("result slot poisoned") = Some(result);
    }
}

/// Renders a caught panic payload (same policy as the experiment layer:
/// `&str` and `String` pass through, anything else is described).
fn panic_message(payload: &(dyn std::any::Any + Send)) -> String {
    if let Some(s) = payload.downcast_ref::<&str>() {
        (*s).to_string()
    } else if let Some(s) = payload.downcast_ref::<String>() {
        s.clone()
    } else {
        "non-string panic payload".to_string()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::time::Duration;

    /// Events of each kind, counted off the stream.
    #[derive(Debug, Default)]
    struct Tally {
        queued: usize,
        finished: usize,
        panicked: usize,
    }

    impl Tally {
        fn see(&mut self, ev: &ExecEvent) {
            match ev {
                ExecEvent::Queued { .. } => self.queued += 1,
                ExecEvent::Started { .. } => {}
                ExecEvent::Finished { .. } => self.finished += 1,
                ExecEvent::Panicked { .. } => self.panicked += 1,
            }
        }
    }

    fn squares(jobs: usize, n: u64) -> (ExecReport<u64>, Tally) {
        let mut tally = Tally::default();
        let report = execute(
            ExecConfig::with_jobs(jobs),
            (0..n).collect(),
            |_ctx, v| JobOutput::plain(v * v),
            |ev| tally.see(ev),
        );
        (report, tally)
    }

    #[test]
    fn results_are_in_submission_order_for_any_worker_count() {
        for jobs in [1, 2, 3, 8, 64] {
            let (report, tally) = squares(jobs, 50);
            assert_eq!(tally.queued, 50);
            assert_eq!(tally.finished, 50);
            for (i, r) in report.results.iter().enumerate() {
                assert_eq!(*r.as_ref().unwrap(), (i * i) as u64, "jobs={jobs}");
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
        let (report, tally) = squares(4, 0);
        assert!(report.results.is_empty());
        assert_eq!((tally.queued, tally.finished), (0, 0));
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

    #[test]
    fn panicking_job_is_isolated_and_reported() {
        let mut tally = Tally::default();
        let report = execute(
            ExecConfig::with_jobs(4),
            (0u64..16).collect(),
            |_ctx, v| {
                if v == 5 {
                    panic!("boom at {v}");
                }
                JobOutput::plain(v)
            },
            |ev| tally.see(ev),
        );
        assert_eq!(tally.panicked, 1);
        assert_eq!(tally.finished, 15);
        match &report.results[5] {
            Err(JobError::Panicked(msg)) => assert!(msg.contains("boom at 5"), "{msg}"),
            other => panic!("expected panic error, got {other:?}"),
        }
        assert!(report.results[4].is_ok() && report.results[6].is_ok());
    }

    #[test]
    fn events_cover_every_job_and_carry_cost_and_faults() {
        let mut seen_started = [false; 12];
        let mut seen_done = [false; 12];
        let (mut cost_spent, mut faults_injected, mut busy) = (0, 0, Duration::ZERO);
        let t = Instant::now();
        execute(
            ExecConfig::with_jobs(3),
            (0u64..12).collect(),
            |_ctx, v| JobOutput {
                value: v,
                cost: 2,
                faults: 1,
            },
            |ev| match *ev {
                ExecEvent::Started { job, .. } => seen_started[job] = true,
                ExecEvent::Finished {
                    job,
                    wall,
                    cost,
                    faults,
                    ..
                } => {
                    seen_done[job] = true;
                    cost_spent += cost;
                    faults_injected += faults;
                    busy += wall;
                }
                _ => {}
            },
        );
        let wall = t.elapsed();
        assert!(seen_started.iter().all(|&b| b));
        assert!(seen_done.iter().all(|&b| b));
        assert_eq!(cost_spent, 24);
        assert_eq!(faults_injected, 12);
        assert!(busy <= wall * 3 + Duration::from_millis(1));
    }
}
