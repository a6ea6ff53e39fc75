//! # spasm-check — online invariant checking for the simulator
//!
//! The paper's whole argument rests on the LogP/CLogP abstractions
//! *agreeing* with the target CC-NUMA machine: the Berkeley cache state
//! must stay coherent, the abstract network must honour its own L and g
//! parameters, and the engine must deliver exactly what the machine
//! models price. End-result numerics (`tests/verification.rs`) cannot
//! see a silent violation of those properties that happens to cancel
//! out — so this crate checks them *inside* the simulation, on every
//! event, the way an always-on assertion layer catches silent
//! corruption in a training stack.
//!
//! Three checkers and one check, all zero-cost when disabled (the
//! machine layer holds the checkers as `Option` and never constructs
//! them under [`CheckMode::Off`]):
//!
//! * [`CoherenceChecker`] — a global observer over the
//!   `spasm-cache` controller asserting single-writer, directory–cache
//!   agreement, and legal Berkeley state transitions after every
//!   access;
//! * [`NetChecker`] — an independent re-derivation of the LogP gap/L
//!   rules, checked against what the abstract network actually granted;
//! * [`network_conformance`] — the target network's per-message timing
//!   and routing, checked against the wormhole model's own definition;
//! * [`EngineChecker`] — event-time monotonicity, message conservation
//!   (every send matched by exactly the scheduled deliveries), event
//!   accounting, and — under [`CheckMode::Strict`] — conformance of
//!   every scheduled time to the machine model's price, which is how
//!   injected faults (delays, duplicates, stalls) are *provably
//!   detected*.
//!
//! This crate is the one place a violation is made. A failed check
//! returns a [`CheckViolation`] as the `Err` of the call that detected
//! it: a typed value naming the invariant, with a ring buffer of the
//! last few events for post-mortem reading. Violations never panic; the
//! machine layer surfaces them as a typed run error.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod coherence;
mod net;
mod timing;

use std::fmt;

pub use coherence::CoherenceChecker;
pub use net::{network_conformance, NetChecker};
pub use timing::EngineChecker;

/// How much invariant checking a run performs.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Default)]
pub enum CheckMode {
    /// No checking, no checker state, no per-event cost (the default).
    #[default]
    Off,
    /// Full invariant checking. Perturbations from an active fault plan
    /// are *tolerated*: injected delays/duplicates are credited against
    /// the conservation ledger instead of reported.
    On,
    /// Invariant checking plus strict model conformance: any deviation
    /// between what the machine model priced and what the engine
    /// scheduled is a violation. Under an active fault plan this is the
    /// fault-negative mode — the checker must fire.
    Strict,
}

impl CheckMode {
    /// Whether any checking is performed.
    pub fn enabled(self) -> bool {
        self != CheckMode::Off
    }

    /// Whether model-conformance deviations (injected faults) are
    /// violations.
    pub fn strict(self) -> bool {
        self == CheckMode::Strict
    }
}

impl fmt::Display for CheckMode {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(match self {
            CheckMode::Off => "off",
            CheckMode::On => "on",
            CheckMode::Strict => "strict",
        })
    }
}

/// Number of recent events a checker retains for the violation dump.
pub const RING_CAPACITY: usize = 16;

/// A detected invariant violation: which invariant, what went wrong,
/// and the last few events leading up to it.
///
/// This is a *value*, not a panic: the machine layer converts it into a
/// typed run error so sweeps record the point as failed instead of
/// aborting the process.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct CheckViolation {
    /// Stable name of the violated invariant (e.g. `"single-writer"`,
    /// `"message-conservation"`).
    pub invariant: &'static str,
    /// Human-readable description of the specific violation.
    pub message: String,
    /// The checker's ring buffer at the time of the violation, oldest
    /// event first. Empty if the checker records no events.
    pub recent: Vec<String>,
}

impl CheckViolation {
    /// Builds a violation with the given ring dump.
    pub(crate) fn new<E: fmt::Display>(
        invariant: &'static str,
        message: String,
        ring: &EventRing<E>,
    ) -> Self {
        CheckViolation {
            invariant,
            message,
            recent: ring.dump(),
        }
    }
}

impl fmt::Display for CheckViolation {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "invariant '{}' violated: {}",
            self.invariant, self.message
        )?;
        if !self.recent.is_empty() {
            write!(f, "; last {} event(s), oldest first:", self.recent.len())?;
            for e in &self.recent {
                write!(f, "\n    {e}")?;
            }
        }
        Ok(())
    }
}

impl std::error::Error for CheckViolation {}

/// The last [`RING_CAPACITY`] events a checker saw, dumped oldest first
/// into every [`CheckViolation`]. Events are kept as values and rendered
/// only by [`EventRing::dump`], so a clean checked run formats nothing.
#[derive(Debug, Clone)]
pub(crate) struct EventRing<E> {
    buf: Vec<E>,
    /// Once `buf` is full, the slot of the oldest event: the next to go.
    head: usize,
}

impl<E: fmt::Display> EventRing<E> {
    /// An empty ring holding up to [`RING_CAPACITY`] events.
    pub(crate) fn new() -> Self {
        EventRing {
            buf: Vec::with_capacity(RING_CAPACITY),
            head: 0,
        }
    }

    /// Records one event, overwriting the oldest in place when full.
    pub(crate) fn record(&mut self, event: E) {
        if self.buf.len() < RING_CAPACITY {
            self.buf.push(event);
        } else {
            self.buf[self.head] = event;
            self.head = (self.head + 1) % RING_CAPACITY;
        }
    }

    /// The retained events rendered, oldest first.
    pub(crate) fn dump(&self) -> Vec<String> {
        let (newest, oldest) = self.buf.split_at(self.head);
        oldest.iter().chain(newest).map(E::to_string).collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn mode_parsing_and_predicates() {
        assert!(!CheckMode::Off.enabled());
        assert!(CheckMode::On.enabled() && !CheckMode::On.strict());
        assert!(CheckMode::Strict.enabled() && CheckMode::Strict.strict());
        assert_eq!(CheckMode::default(), CheckMode::Off);
        let names = [CheckMode::Off, CheckMode::On, CheckMode::Strict].map(|m| m.to_string());
        assert_eq!(names, ["off", "on", "strict"]);
    }

    #[test]
    fn ring_keeps_the_newest_events() {
        let names =
            |range: std::ops::Range<usize>| range.map(|i| format!("e{i}")).collect::<Vec<_>>();
        let mut r = EventRing::<String>::new();
        assert!(r.dump().is_empty());
        // Below capacity: everything recorded, oldest first.
        for i in 0..RING_CAPACITY - 3 {
            r.record(format!("e{i}"));
        }
        assert_eq!(r.dump(), names(0..RING_CAPACITY - 3));
        // Exactly full, then wrapped more than twice: the newest
        // RING_CAPACITY events, oldest first, after every record.
        for i in RING_CAPACITY - 3..3 * RING_CAPACITY + 5 {
            r.record(format!("e{i}"));
            let first = (i + 1).saturating_sub(RING_CAPACITY);
            assert_eq!(r.dump(), names(first..i + 1), "after e{i}");
        }
    }

    #[test]
    fn violation_display_names_invariant_and_history() {
        let mut ring = EventRing::<String>::new();
        ring.record("t=0 read".into());
        ring.record("t=30 write".into());
        let v = CheckViolation::new("single-writer", "two owners of block 7".into(), &ring);
        let s = v.to_string();
        assert!(s.contains("single-writer"), "{s}");
        assert!(s.contains("two owners of block 7"), "{s}");
        assert!(s.contains("t=0 read"), "{s}");
        assert!(s.contains("t=30 write"), "{s}");
    }
}
