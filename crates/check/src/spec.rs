//! Speculation accounting for the optimistic (Time Warp) engine mode.
//!
//! The optimistic engine delivers some responses to processes
//! *speculatively* — before the event that justifies them has committed.
//! Every such delivery must later be resolved exactly one of two ways:
//!
//! * **committed** — the commit confirmed the predicted response was
//!   exact, so the speculative execution stands; or
//! * **annihilated** — the commit refuted the prediction, an
//!   anti-message cancelled the speculative execution, and the process
//!   was rolled back and replayed.
//!
//! [`SpecLedger`] is the conservation ledger over those three counters
//! (plus the rollback count, which must match annihilations one-for-one:
//! speculation depth is one per process, so each rollback cancels exactly
//! one in-flight speculation). A speculative delivery that is neither
//! committed nor annihilated is a *lost anti-message* — mis-speculated
//! state would silently leak into committed history — and the ledger
//! reports it under the `speculation-annihilation` invariant.

use spasm_desim::SimTime;

use crate::{CheckViolation, EventRing};

/// Rollback-aware speculation ledger (see the module docs).
///
/// Like the other checkers, this never panics: imbalances surface as a
/// typed [`CheckViolation`] from [`SpecLedger::on_run_end`].
#[derive(Debug, Clone, Default)]
pub struct SpecLedger {
    speculated: u64,
    committed: u64,
    annihilated: u64,
    rollbacks: u64,
    ring: EventRing,
}

impl SpecLedger {
    /// A fresh ledger with all counters zero.
    pub fn new() -> Self {
        SpecLedger::default()
    }

    /// Records a speculative response delivery to `proc` at sim-time `at`.
    pub fn on_speculate(&mut self, proc: usize, at: SimTime) {
        self.speculated += 1;
        self.ring.record(format!("t={at} speculate proc {proc}"));
    }

    /// Records that `proc`'s in-flight speculation was confirmed exact at
    /// commit time.
    pub fn on_commit(&mut self, proc: usize) {
        self.committed += 1;
        self.ring.record(format!("commit proc {proc}"));
    }

    /// Records the anti-message that cancelled `proc`'s mis-speculated
    /// execution.
    pub fn on_annihilate(&mut self, proc: usize) {
        self.annihilated += 1;
        self.ring.record(format!("annihilate proc {proc}"));
    }

    /// Records one completed rollback (kill + replay) of `proc`.
    pub fn on_rollback(&mut self, proc: usize) {
        self.rollbacks += 1;
        self.ring.record(format!("rollback proc {proc}"));
    }

    /// Speculative deliveries recorded so far.
    pub fn speculated(&self) -> u64 {
        self.speculated
    }

    /// Rollbacks recorded so far.
    pub fn rollbacks(&self) -> u64 {
        self.rollbacks
    }

    /// End-of-run conservation check: every speculation must have been
    /// committed or annihilated, and annihilations must match rollbacks
    /// exactly. `credited_losses` is the number of anti-messages a fault
    /// plan admits to having forged away (lenient mode credits them like
    /// the timing checker credits injected duplicates); strict mode
    /// passes 0 so a forged loss is a violation.
    ///
    /// # Errors
    ///
    /// A `speculation-annihilation` [`CheckViolation`] naming the
    /// imbalance.
    pub fn on_run_end(&self, credited_losses: u64) -> Result<(), CheckViolation> {
        if self.committed + self.annihilated + credited_losses != self.speculated {
            return Err(CheckViolation::new(
                "speculation-annihilation",
                format!(
                    "{} speculative deliveries but {} committed + {} annihilated \
                     (a lost anti-message leaks mis-speculated state)",
                    self.speculated, self.committed, self.annihilated
                ),
                &self.ring,
            ));
        }
        if self.annihilated + credited_losses != self.rollbacks {
            return Err(CheckViolation::new(
                "speculation-annihilation",
                format!(
                    "{} annihilations but {} rollbacks: every anti-message must \
                     cancel exactly one speculative execution",
                    self.annihilated, self.rollbacks
                ),
                &self.ring,
            ));
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn balanced_ledger_passes() {
        let mut l = SpecLedger::new();
        for i in 0..5 {
            l.on_speculate(i, SimTime::from_ns(30 * i as u64));
        }
        for i in 0..4 {
            l.on_commit(i);
        }
        l.on_annihilate(4);
        l.on_rollback(4);
        assert!(l.on_run_end(0).is_ok());
        assert_eq!(l.speculated(), 5);
        assert_eq!(l.rollbacks(), 1);
    }

    #[test]
    fn empty_ledger_passes() {
        assert!(SpecLedger::new().on_run_end(0).is_ok());
    }

    #[test]
    fn lost_anti_message_is_reported() {
        let mut l = SpecLedger::new();
        l.on_speculate(0, SimTime::ZERO);
        l.on_speculate(1, SimTime::from_ns(30));
        l.on_commit(0);
        // Speculation 1 was refuted but never annihilated.
        l.on_rollback(1);
        let v = l.on_run_end(0).expect_err("imbalance must be reported");
        assert_eq!(v.invariant, "speculation-annihilation");
        assert!(v.message.contains("lost anti-message"), "{}", v.message);
        assert!(!v.recent.is_empty());
    }

    #[test]
    fn credited_losses_balance_a_lenient_ledger() {
        let mut l = SpecLedger::new();
        l.on_speculate(0, SimTime::ZERO);
        // The rollback ran but its anti-message record was forged away
        // by the fault plan; lenient mode credits the admitted loss,
        // strict mode (credit 0) reports it.
        l.on_rollback(0);
        assert!(l.on_run_end(1).is_ok());
        assert!(l.on_run_end(0).is_err());
    }

    #[test]
    fn rollback_annihilation_mismatch_is_reported() {
        let mut l = SpecLedger::new();
        l.on_speculate(0, SimTime::ZERO);
        l.on_annihilate(0);
        // The annihilation was recorded but the rollback never ran.
        let v = l.on_run_end(0).expect_err("imbalance must be reported");
        assert_eq!(v.invariant, "speculation-annihilation");
        assert!(v.message.contains("rollback"), "{}", v.message);
    }
}
