//! Progress and metrics events emitted by the executor.
//!
//! Every state transition of every job produces one [`ExecEvent`], in a
//! single serialized stream observed on the *submitting* thread (the
//! observer closure is `FnMut`, never called concurrently). The events
//! double as the executor's metrics feed: per-job wall time, cost
//! (simulator events) and injected-fault counts ride on
//! [`ExecEvent::Finished`], and an observer folds whatever it needs.

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
}

/// The outcome of one batch: per-job results in **submission order**.
#[derive(Debug)]
pub struct ExecReport<R> {
    /// One slot per submitted job, index-aligned with the input vector.
    pub results: Vec<Result<R, JobError>>,
}
