//! Declarative specifications of every figure in the paper's evaluation.
//!
//! Each [`FigureSpec`] names the application, network, metric, and machine
//! series of one figure; [`crate::sweep::Sweep::run`] executes the
//! processor sweep. The qualitative expectation recorded in `expect` is
//! what EXPERIMENTS.md checks the reproduction against.

use spasm_apps::AppId;

use crate::{Machine, Net};

/// Which quantity a figure plots against processor count.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Metric {
    /// Mean per-processor latency overhead (µs).
    Latency,
    /// Mean per-processor contention overhead (µs).
    Contention,
    /// Total execution time (µs).
    ExecTime,
    /// Simulator events processed — the deterministic side of §7 "Speed
    /// of Simulation".
    Events,
}

impl std::fmt::Display for Metric {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        let s = match self {
            Metric::Latency => "latency (us)",
            Metric::Contention => "contention (us)",
            Metric::ExecTime => "execution time (us)",
            Metric::Events => "simulator events",
        };
        f.write_str(s)
    }
}

/// One figure of the evaluation section.
#[derive(Debug, Clone, Copy)]
pub struct FigureSpec {
    /// Identifier: "F1".."F20", "S1", "A1".
    pub id: &'static str,
    /// Application under test.
    pub app: AppId,
    /// Interconnect.
    pub net: Net,
    /// Plotted metric.
    pub metric: Metric,
    /// One simulated series per machine.
    pub machines: &'static [Machine],
    /// The paper's qualitative claim about this figure.
    pub expect: &'static str,
}

/// The three main-series machines.
const TLC: &[Machine] = &[Machine::Target, Machine::LogP, Machine::CLogP];
/// Target vs the abstractions' contention (LogP included to expose the
/// cache-less blow-up on the dynamic apps, as in Figures 19/20).
const TC: &[Machine] = &[Machine::Target, Machine::CLogP];
const TCL: &[Machine] = &[Machine::Target, Machine::CLogP, Machine::LogP];
/// A1 ablation series.
const GAP_ABLATION: &[Machine] = &[Machine::Target, Machine::CLogP, Machine::CLogPPerEventGap];

/// Every table/figure of the evaluation, in paper order.
pub const FIGURES: &[FigureSpec] = &[
    FigureSpec {
        id: "F1",
        app: AppId::Fft,
        net: Net::Full,
        metric: Metric::Latency,
        machines: TLC,
        expect: "CLogP tracks target; LogP ~4x higher (spatial locality lost)",
    },
    FigureSpec {
        id: "F2",
        app: AppId::Cg,
        net: Net::Full,
        metric: Metric::Latency,
        machines: TLC,
        expect: "CLogP slightly pessimistic vs target; LogP far higher",
    },
    FigureSpec {
        id: "F3",
        app: AppId::Ep,
        net: Net::Full,
        metric: Metric::Latency,
        machines: TLC,
        expect: "LogP much higher (condition-variable polling); CLogP ~ target",
    },
    FigureSpec {
        id: "F4",
        app: AppId::Is,
        net: Net::Full,
        metric: Metric::Latency,
        machines: TLC,
        expect: "CLogP slightly optimistic (coherence traffic unmodeled)",
    },
    FigureSpec {
        id: "F5",
        app: AppId::Cholesky,
        net: Net::Full,
        metric: Metric::Latency,
        machines: TLC,
        expect: "CLogP slightly optimistic, same trend as target",
    },
    FigureSpec {
        id: "F6",
        app: AppId::Is,
        net: Net::Full,
        metric: Metric::Contention,
        machines: TC,
        expect: "CLogP (g-model) pessimistic vs target, same trend",
    },
    FigureSpec {
        id: "F7",
        app: AppId::Is,
        net: Net::Mesh,
        metric: Metric::Contention,
        machines: TC,
        expect: "pessimism amplified on the lower-connectivity mesh",
    },
    FigureSpec {
        id: "F8",
        app: AppId::Fft,
        net: Net::Cube,
        metric: Metric::Contention,
        machines: TC,
        expect: "g-model pessimistic; see A1 for the per-event-type fix",
    },
    FigureSpec {
        id: "F9",
        app: AppId::Cholesky,
        net: Net::Full,
        metric: Metric::Contention,
        machines: TC,
        expect: "pessimistic, same trend",
    },
    FigureSpec {
        id: "F10",
        app: AppId::Ep,
        net: Net::Full,
        metric: Metric::Contention,
        machines: TC,
        expect: "amplified pessimism; trend differs from target",
    },
    FigureSpec {
        id: "F11",
        app: AppId::Ep,
        net: Net::Mesh,
        metric: Metric::Contention,
        machines: TC,
        expect: "worst case: g-model contention shape departs from target",
    },
    FigureSpec {
        id: "F12",
        app: AppId::Ep,
        net: Net::Full,
        metric: Metric::ExecTime,
        machines: TLC,
        expect: "all three agree (computation dominates)",
    },
    FigureSpec {
        id: "F13",
        app: AppId::Fft,
        net: Net::Mesh,
        metric: Metric::ExecTime,
        machines: TLC,
        expect: "LogP diverges on the mesh; CLogP ~ target",
    },
    FigureSpec {
        id: "F14",
        app: AppId::Is,
        net: Net::Full,
        metric: Metric::ExecTime,
        machines: TLC,
        expect: "LogP clearly above; CLogP ~ target",
    },
    FigureSpec {
        id: "F15",
        app: AppId::Cg,
        net: Net::Full,
        metric: Metric::ExecTime,
        machines: TLC,
        expect: "LogP far above; CLogP ~ target",
    },
    FigureSpec {
        id: "F16",
        app: AppId::Cholesky,
        net: Net::Full,
        metric: Metric::ExecTime,
        machines: TLC,
        expect: "LogP far above; CLogP ~ target",
    },
    FigureSpec {
        id: "F17",
        app: AppId::Cg,
        net: Net::Mesh,
        metric: Metric::ExecTime,
        machines: TLC,
        expect: "LogP execution shape departs from target on the mesh",
    },
    FigureSpec {
        id: "F18",
        app: AppId::Cholesky,
        net: Net::Mesh,
        metric: Metric::ExecTime,
        machines: TLC,
        expect: "LogP execution shape departs from target on the mesh",
    },
    FigureSpec {
        id: "F19",
        app: AppId::Cg,
        net: Net::Mesh,
        metric: Metric::Contention,
        machines: TCL,
        expect: "LogP contention explodes (no cache, low connectivity)",
    },
    FigureSpec {
        id: "F20",
        app: AppId::Cholesky,
        net: Net::Mesh,
        metric: Metric::Contention,
        machines: TCL,
        expect: "LogP contention explodes",
    },
    FigureSpec {
        id: "S1",
        app: AppId::Cholesky,
        net: Net::Full,
        metric: Metric::Events,
        machines: TLC,
        expect: "LogP processes the most events; host-time R5 in EXPERIMENTS S1",
    },
    FigureSpec {
        id: "A1",
        app: AppId::Fft,
        net: Net::Cube,
        metric: Metric::Contention,
        machines: GAP_ABLATION,
        expect: "per-event-type gap contention much closer to the target",
    },
];

/// Looks up a figure by id (case-insensitive).
pub fn by_id(id: &str) -> Option<&'static FigureSpec> {
    FIGURES.iter().find(|f| f.id.eq_ignore_ascii_case(id))
}

/// The default processor sweep: the paper restricts processor counts to
/// powers of two and reports up to 32.
pub const PROC_SWEEP: &[usize] = &[2, 4, 8, 16, 32];

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn twenty_two_specs_with_unique_ids() {
        assert_eq!(FIGURES.len(), 22);
        let mut ids: Vec<&str> = FIGURES.iter().map(|f| f.id).collect();
        ids.sort_unstable();
        ids.dedup();
        assert_eq!(ids.len(), 22);
    }

    /// The census the cross-figure `PointCache` rests on (EXPERIMENTS.md
    /// quotes it): the figures name 60 (app, net, machine) series, 31 of
    /// them distinct, so a whole-paper sweep of 300 points learns 155.
    #[test]
    fn sixty_series_of_which_thirty_one_are_distinct() {
        let series: Vec<(AppId, Net, Machine)> = FIGURES
            .iter()
            .flat_map(|f| f.machines.iter().map(|&m| (f.app, f.net, m)))
            .collect();
        assert_eq!(series.len(), 60);
        let distinct: std::collections::HashSet<_> = series.iter().collect();
        assert_eq!(distinct.len(), 31);
        assert_eq!(series.len() * PROC_SWEEP.len(), 300);
        assert_eq!(distinct.len() * PROC_SWEEP.len(), 155);
    }

    #[test]
    fn lookup_by_id() {
        assert_eq!(by_id("f8").unwrap().id, "F8");
        assert_eq!(by_id("A1").unwrap().metric, Metric::Contention);
        assert!(by_id("F99").is_none());
    }

    #[test]
    fn every_app_and_net_appears() {
        for app in AppId::ALL {
            assert!(FIGURES.iter().any(|f| f.app == app), "{app} missing");
        }
        for net in Net::ALL {
            assert!(FIGURES.iter().any(|f| f.net == net), "{net} missing");
        }
    }

    #[test]
    fn latency_figures_cover_all_five_apps_on_full() {
        let latency_apps: Vec<AppId> = FIGURES
            .iter()
            .filter(|f| f.metric == Metric::Latency && f.net == Net::Full)
            .map(|f| f.app)
            .collect();
        assert_eq!(latency_apps.len(), 5);
    }
}
