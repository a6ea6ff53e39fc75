//! # spasm-core — the SPASM experiment framework
//!
//! The paper's contribution, packaged as a library: run any of the five
//! applications on any of the four machine characterizations over any of
//! the three networks, separate the overheads SPASM-style, and regenerate
//! every figure of the evaluation section.
//!
//! * [`Experiment`] — one (application, machine, network, processor-count)
//!   simulation with verification, producing [`RunMetrics`];
//! * [`figures`] — the declarative specs for Figures 1–20 plus the §7
//!   simulation-speed study (S1) and the gap-policy ablation (A1);
//! * [`sweep`] — [`sweep::Sweep`], one figure's processor sweep as a
//!   value: run it (resiliently, in parallel, under an optional
//!   [`journal`], sharing points with other figures through a
//!   [`sweep::PointCache`]), shard it across worker processes
//!   ([`shard`]), and render aligned tables / CSV;
//! * [`chaos`] — the journal's recovery oracle over journaled sweeps,
//!   driven by the `chaos_consistency` integration tests.
//!
//! # Example
//!
//! ```
//! use spasm_core::{Experiment, Machine, Net};
//! use spasm_apps::{AppId, SizeClass};
//!
//! let metrics = Experiment {
//!     app: AppId::Fft,
//!     size: SizeClass::Test,
//!     net: Net::Full,
//!     machine: Machine::CLogP,
//!     procs: 4,
//!     seed: 7,
//! }
//! .run()
//! .unwrap();
//! assert!(metrics.exec_us > 0.0);
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod ablation;
pub mod chaos;
mod experiment;
pub mod figures;
pub mod journal;
pub mod shard;
pub mod sweep;

pub use experiment::{run_bodies, Experiment, ExperimentError, Machine, Net, RunMetrics};
pub use spasm_machine::{IntervalRecord, TelemetryConfig};
