//! Deterministic fault injection and run budgets.
//!
//! A [`FaultPlan`] describes *adversity* to inject into a simulation,
//! one species per invariant the strict checker watches: delays on the
//! network path (messages and network-touching accesses), message
//! duplications, and per-node stall windows (a node that briefly stops
//! dispatching, as if its OS took an interrupt). All decisions are drawn
//! from one in-tree [`SplitMix64`] stream seeded by the plan, and the
//! engine processes events in a deterministic order, so a given
//! `(experiment, plan)` pair always injects the *same* faults at the same
//! points — failures reproduce bit-identically.
//!
//! A [`RunBudget`] bounds a run's event count so that livelock (e.g. a
//! polling spin loop whose flag never flips) becomes a typed
//! [`crate::RunError::BudgetExceeded`] instead of an endless loop.

use spasm_desim::SimTime;
use spasm_prng::{Rng, SplitMix64};

/// Upper bound on a single simulation run.
///
/// `None` means unlimited. The engine checks the budget each time it pops
/// an event; exceeding it aborts the run with
/// [`crate::RunError::BudgetExceeded`].
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct RunBudget {
    /// Maximum number of simulator events to process.
    pub max_events: Option<u64>,
}

impl RunBudget {
    /// No bound: the run may take as long as it needs.
    pub const UNLIMITED: RunBudget = RunBudget { max_events: None };

    /// A budget bounded by event count.
    pub fn events(max: u64) -> Self {
        RunBudget {
            max_events: Some(max),
        }
    }

    /// The text sweep and machine fingerprints absorb for this budget:
    /// the `Debug` rendering of the earlier two-field budget, whose
    /// simulated-time bound was never set, so journals already on disk
    /// keep resuming.
    pub fn fingerprint_text(&self) -> String {
        format!(
            "RunBudget {{ max_events: {:?}, max_sim_time: None }}",
            self.max_events
        )
    }
}

/// A deterministic, seeded plan of faults to inject into a run.
///
/// Probabilities are in `[0, 1]`; a plan with all probabilities zero
/// injects nothing (see [`FaultPlan::is_active`]). Magnitudes are in
/// nanoseconds of simulated time.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct FaultPlan {
    /// Seed for the fault decision stream. Two runs with the same seed
    /// (and the same workload) inject identical faults.
    pub seed: u64,
    /// Probability that a network message or network-touching access is
    /// delayed in flight.
    pub delay_prob: f64,
    /// Maximum extra in-flight delay, drawn uniformly from `[1, max]` ns.
    pub max_delay_ns: u64,
    /// Probability that an explicit message is duplicated (the copy
    /// arrives after the original; receivers must tolerate it).
    pub dup_prob: f64,
    /// Probability that a processor stalls before its next operation.
    pub stall_prob: f64,
    /// Stall window length in nanoseconds.
    pub stall_ns: u64,
}

impl FaultPlan {
    /// A quiet plan: seeded but injecting nothing. Useful as a base for
    /// struct-update syntax.
    pub fn quiet(seed: u64) -> Self {
        FaultPlan {
            seed,
            delay_prob: 0.0,
            max_delay_ns: 0,
            dup_prob: 0.0,
            stall_prob: 0.0,
            stall_ns: 0,
        }
    }

    /// An adversarial plan exercising every fault species at once: 10%
    /// delay (up to 2 µs), 5% duplication, and 2% stalls of 5 µs.
    pub fn adversarial(seed: u64) -> Self {
        FaultPlan {
            seed,
            delay_prob: 0.10,
            max_delay_ns: 2_000,
            dup_prob: 0.05,
            stall_prob: 0.02,
            stall_ns: 5_000,
        }
    }

    /// Whether any fault species has a non-zero probability.
    pub fn is_active(&self) -> bool {
        self.delay_prob > 0.0 || self.dup_prob > 0.0 || self.stall_prob > 0.0
    }
}

/// Counts of faults actually injected during a run (for reporting).
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct FaultCounters {
    /// Messages and network-touching accesses delayed in flight.
    pub delayed: u64,
    /// Messages duplicated.
    pub duplicated: u64,
    /// Processor stall windows inserted.
    pub stalls: u64,
}

impl FaultCounters {
    /// Total faults of all species.
    pub fn total(&self) -> u64 {
        self.delayed + self.duplicated + self.stalls
    }
}

/// The engine-side fault roller: owns the decision stream and counters.
#[derive(Debug)]
pub(crate) struct FaultInjector {
    plan: FaultPlan,
    rng: SplitMix64,
    pub(crate) counters: FaultCounters,
}

impl FaultInjector {
    pub(crate) fn new(plan: FaultPlan) -> Self {
        FaultInjector {
            plan,
            rng: SplitMix64::new(plan.seed),
            counters: FaultCounters::default(),
        }
    }

    fn roll(&mut self, prob: f64) -> bool {
        prob > 0.0 && self.rng.gen_f64() < prob
    }

    /// Extra in-flight delay for a network message, if one is injected.
    pub(crate) fn message_delay(&mut self) -> Option<SimTime> {
        if self.roll(self.plan.delay_prob) && self.plan.max_delay_ns > 0 {
            self.counters.delayed += 1;
            let ns = 1 + self.rng.gen_u64_below(self.plan.max_delay_ns);
            Some(SimTime::from_ns(ns))
        } else {
            None
        }
    }

    /// Whether to duplicate an explicit message delivery.
    pub(crate) fn duplicate(&mut self) -> bool {
        let dup = self.roll(self.plan.dup_prob);
        if dup {
            self.counters.duplicated += 1;
        }
        dup
    }

    /// Stall window to insert before a processor's next operation.
    pub(crate) fn stall(&mut self) -> Option<SimTime> {
        if self.roll(self.plan.stall_prob) && self.plan.stall_ns > 0 {
            self.counters.stalls += 1;
            Some(SimTime::from_ns(self.plan.stall_ns))
        } else {
            None
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn quiet_plan_injects_nothing() {
        let mut inj = FaultInjector::new(FaultPlan::quiet(7));
        for _ in 0..1000 {
            assert!(inj.message_delay().is_none());
            assert!(!inj.duplicate());
            assert!(inj.stall().is_none());
        }
        assert_eq!(inj.counters.total(), 0);
        assert!(!FaultPlan::quiet(7).is_active());
    }

    #[test]
    fn adversarial_plan_injects_every_class() {
        let mut inj = FaultInjector::new(FaultPlan::adversarial(42));
        for _ in 0..10_000 {
            inj.message_delay();
            inj.duplicate();
            inj.stall();
        }
        let c = inj.counters;
        assert!(c.delayed > 0, "no delays in 10k rolls");
        assert!(c.duplicated > 0, "no dups in 10k rolls");
        assert!(c.stalls > 0, "no stalls in 10k rolls");
    }

    #[test]
    fn same_seed_same_decisions() {
        let decisions = |seed| {
            let mut inj = FaultInjector::new(FaultPlan::adversarial(seed));
            (0..256)
                .map(|_| (inj.message_delay(), inj.duplicate(), inj.stall()))
                .collect::<Vec<_>>()
        };
        assert_eq!(decisions(9), decisions(9));
        assert_ne!(decisions(9), decisions(10));
    }

    #[test]
    fn delays_are_bounded_and_positive() {
        let plan = FaultPlan {
            delay_prob: 1.0,
            max_delay_ns: 10,
            ..FaultPlan::quiet(3)
        };
        let mut inj = FaultInjector::new(plan);
        for _ in 0..1000 {
            let d = inj.message_delay().unwrap();
            assert!(d >= SimTime::from_ns(1) && d <= SimTime::from_ns(10));
        }
    }

    #[test]
    fn budget_constructors() {
        assert_eq!(RunBudget::default(), RunBudget::UNLIMITED);
        assert_eq!(RunBudget::events(10).max_events, Some(10));
        // The unlimited text is pinned through the sweep fingerprint
        // (`journal::tests`); a bounded one only here.
        let text = RunBudget::events(50_000_000).fingerprint_text();
        assert!(
            text.starts_with("RunBudget { max_events: Some(50000000), "),
            "{text}"
        );
    }
}
