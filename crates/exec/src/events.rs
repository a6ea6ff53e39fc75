//! Progress and metrics events emitted by the executor.
//!
//! Every state transition of every job produces one [`ExecEvent`], in a
//! single serialized stream observed on the *submitting* thread (the
//! observer closure is `FnMut`, never called concurrently). The events
//! double as the executor's metrics feed: per-job wall time, cost
//! (simulator events) and injected-fault counts ride on
//! [`ExecEvent::Finished`], and [`ExecStats`] is the fold of the stream.

use std::time::Duration;

use crate::JobError;

/// One job state transition, as seen by the observer.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum ExecEvent {
    /// The job entered the queue (emitted for every job, in submission
    /// order, before any job starts).
    Queued {
        /// Submission index of the job.
        job: usize,
    },
    /// A worker picked the job up.
    Started {
        /// Submission index of the job.
        job: usize,
        /// Index of the worker running it (`0..workers`).
        worker: usize,
    },
    /// The job's closure returned normally.
    Finished {
        /// Submission index of the job.
        job: usize,
        /// Worker that ran it.
        worker: usize,
        /// Wall-clock time the job's closure took.
        wall: Duration,
        /// Cost units the job reported (simulator events, by convention).
        cost: u64,
        /// Faults the job reported as injected during its run.
        faults: u64,
    },
    /// The job's closure panicked; the panic was caught at the job
    /// boundary and the worker kept going.
    Panicked {
        /// Submission index of the job.
        job: usize,
        /// Worker that ran it.
        worker: usize,
        /// Wall-clock time until the panic.
        wall: Duration,
        /// Rendered panic payload.
        message: String,
    },
    /// The job ran past its per-job wall-clock deadline: it was
    /// cancelled while still running, and when its closure eventually
    /// returned the result was discarded as
    /// [`JobError::Deadline`](crate::JobError::Deadline).
    Deadlined {
        /// Submission index of the job.
        job: usize,
        /// Worker that ran it.
        worker: usize,
        /// Wall-clock time the job actually took before returning.
        wall: Duration,
        /// The deadline it overran.
        limit: Duration,
    },
}

impl ExecEvent {
    /// The submission index of the job this event concerns.
    pub fn job(&self) -> usize {
        match *self {
            ExecEvent::Queued { job }
            | ExecEvent::Started { job, .. }
            | ExecEvent::Finished { job, .. }
            | ExecEvent::Panicked { job, .. }
            | ExecEvent::Deadlined { job, .. } => job,
        }
    }
}

/// Aggregate statistics of one [`crate::execute`] call — the fold of its
/// event stream plus pool-level facts.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct ExecStats {
    /// Jobs submitted.
    pub jobs: usize,
    /// Workers the pool actually ran (`min(requested, jobs)`, at least 1).
    pub workers: usize,
    /// Jobs whose closure returned normally.
    pub finished: usize,
    /// Jobs whose closure panicked.
    pub panicked: usize,
    /// Jobs cancelled mid-run by the per-job deadline.
    pub deadlined: usize,
    /// Wall-clock time of the whole batch (queue to last completion).
    pub wall: Duration,
    /// Sum of per-job wall times — the "busy" time; `busy / wall`
    /// approximates realized parallelism.
    pub busy: Duration,
    /// Total cost units charged by finished jobs.
    pub cost_spent: u64,
    /// Total faults reported injected by finished jobs.
    pub faults_injected: u64,
}

impl ExecStats {
    /// Folds one event into the totals (pool-level fields are set by the
    /// executor, not here).
    pub(crate) fn absorb(&mut self, ev: &ExecEvent) {
        match ev {
            ExecEvent::Queued { .. } | ExecEvent::Started { .. } => {}
            ExecEvent::Finished {
                wall, cost, faults, ..
            } => {
                self.finished += 1;
                self.busy += *wall;
                self.cost_spent += cost;
                self.faults_injected += faults;
            }
            ExecEvent::Panicked { wall, .. } => {
                self.panicked += 1;
                self.busy += *wall;
            }
            ExecEvent::Deadlined { wall, .. } => {
                self.deadlined += 1;
                self.busy += *wall;
            }
        }
    }

    /// Realized speedup proxy: busy time over wall time (1.0 on a serial
    /// pool, approaching the worker count under perfect scaling).
    pub fn parallelism(&self) -> f64 {
        if self.wall.is_zero() {
            return 1.0;
        }
        self.busy.as_secs_f64() / self.wall.as_secs_f64()
    }
}

/// The outcome of one batch: per-job results in **submission order** plus
/// the aggregate stats.
#[derive(Debug)]
pub struct ExecReport<R> {
    /// One slot per submitted job, index-aligned with the input vector.
    pub results: Vec<Result<R, JobError>>,
    /// Aggregate counters and timings.
    pub stats: ExecStats,
}

impl<R> ExecReport<R> {
    /// True if every job finished normally.
    pub fn all_ok(&self) -> bool {
        self.results.iter().all(|r| r.is_ok())
    }
}
