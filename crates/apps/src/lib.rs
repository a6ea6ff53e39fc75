//! # spasm-apps — the paper's application suite, execution-driven
//!
//! Five parallel kernels with the communication and locality structure of
//! the paper's §4 suite:
//!
//! * [`Ep`] — NAS *Embarrassingly Parallel*: random-number statistics;
//!   highest computation-to-communication ratio; a lock-protected global
//!   accumulation and a spin condition variable at the end (whose network
//!   behaviour drives the paper's Figure 3 observation);
//! * [`Fft`] — radix-2 decimation-in-frequency FFT, block-distributed,
//!   statically-known partner reads with strong spatial locality (four
//!   8-byte words per 32-byte cache block → the ≈4× LogP latency factor);
//! * [`Is`] — NAS *Integer Sort*: bucket histogram sort; regular but
//!   communication-heavy, lock-protected global histogram merges and
//!   atomically-claimed ranks;
//! * [`Cg`] — NAS *Conjugate Gradient*: sparse SPD mat-vec iterations with
//!   statically scheduled rows but data-dependent (irregular) vector reads;
//! * [`Cholesky`] — SPLASH-style sparse Cholesky factorization with a
//!   **dynamic task queue**: scheduling, and therefore communication, is
//!   decided at run time by simulated-time ordering.
//!
//! Every kernel computes real values on the simulated shared memory and
//! ships a verifier that checks the numerical result after the run —
//! whatever machine it ran on. Computation executes natively (in Rust) and
//! is charged with explicit cycle counts, exactly how SPASM executes
//! non-shared instructions natively and simulates only shared references.
//!
//! # Example
//!
//! ```
//! use spasm_apps::{App, Ep, SizeClass};
//! use spasm_machine::{Engine, MachineKind, SetupCtx};
//! use spasm_topology::Topology;
//!
//! let app = Ep::new(SizeClass::Test);
//! let topo = Topology::full(2);
//! let mut setup = SetupCtx::new(2);
//! let built = app.build(&mut setup, 42);
//! let report = Engine::new(MachineKind::CLogP, &topo, setup, built.bodies)
//!     .run()
//!     .unwrap();
//! (built.verify)(&report.final_store).unwrap();
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod cg;
mod cholesky;
mod common;
mod ep;
mod fft;
mod is;
pub mod sparse;

pub use cg::Cg;
pub use cholesky::Cholesky;
pub use ep::Ep;
pub use fft::Fft;
pub use is::Is;

use spasm_machine::{ProcBody, SetupCtx, ValueStore};

/// Checks an application's numerical result against an independently
/// computed reference.
pub type Verifier = Box<dyn FnOnce(&ValueStore) -> Result<(), String> + Send>;

/// A constructed application instance: one body per processor plus the
/// result verifier.
pub struct BuiltApp {
    /// Per-processor program closures.
    pub bodies: Vec<ProcBody>,
    /// Post-run result check.
    pub verify: Verifier,
}

impl std::fmt::Debug for BuiltApp {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("BuiltApp")
            .field("bodies", &self.bodies.len())
            .finish_non_exhaustive()
    }
}

/// An application that can be instantiated on any processor count.
pub trait App: Send + Sync {
    /// Short lowercase name ("ep", "fft", ...).
    fn name(&self) -> &'static str;

    /// Allocates shared state in `setup` (whose node count fixes `p`) and
    /// returns the processor bodies and verifier. `seed` makes the
    /// workload deterministic.
    fn build(&self, setup: &mut SetupCtx, seed: u64) -> BuiltApp;
}

/// Problem-size presets.
///
/// The paper ran full-size inputs for 8–10 hours per data point; the
/// reproduction uses scaled inputs (`Small` for figure sweeps, `Test` for
/// the test suite, `Full` for longer validation runs). Curves are plotted
/// against processor count, so input scale shifts absolute values only.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Default)]
pub enum SizeClass {
    /// Smallest: unit/integration tests.
    Test,
    /// Figure-sweep size.
    #[default]
    Small,
    /// Longer validation runs.
    Full,
}

/// An application defined at run time (a compiled scenario): its name,
/// the canonical definition text that pins what it computes, and a
/// factory instantiating it per size class.
///
/// Its identity is its content: two values are equal, and hash alike,
/// exactly when name and text are. The factory is derived from the text,
/// so it takes no part — two compiles of one definition are the same app,
/// and an edited definition under a reused name is a different one.
pub struct CustomApp {
    name: &'static str,
    canon: String,
    factory: Box<dyn Fn(SizeClass) -> Box<dyn App> + Send + Sync>,
}

impl CustomApp {
    /// An app named `name` whose canonical definition text is `canon`
    /// (what sweep fingerprints absorb), instantiated by `factory`.
    pub fn new(
        name: &'static str,
        canon: String,
        factory: impl Fn(SizeClass) -> Box<dyn App> + Send + Sync + 'static,
    ) -> Self {
        CustomApp {
            name,
            canon,
            factory: Box::new(factory),
        }
    }
}

impl PartialEq for CustomApp {
    fn eq(&self, other: &Self) -> bool {
        (self.name, &self.canon) == (other.name, &other.canon)
    }
}

impl Eq for CustomApp {}

impl std::hash::Hash for CustomApp {
    fn hash<H: std::hash::Hasher>(&self, state: &mut H) {
        (self.name, &self.canon).hash(state);
    }
}

impl std::fmt::Debug for CustomApp {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("CustomApp")
            .field("name", &self.name)
            .finish_non_exhaustive()
    }
}

/// Identifier for an application: the five built-in kernels (figure
/// specs, CLI) plus run-time defined workloads ([`CustomApp`]).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum AppId {
    /// NAS EP.
    Ep,
    /// Radix-2 FFT.
    Fft,
    /// NAS IS.
    Is,
    /// NAS CG.
    Cg,
    /// SPLASH CHOLESKY.
    Cholesky,
    /// A run-time defined application (a compiled scenario), compared
    /// by its name and canonical definition text.
    Custom(&'static CustomApp),
}

impl AppId {
    /// The five built-ins, in the paper's order of introduction.
    pub const ALL: [AppId; 5] = [AppId::Ep, AppId::Is, AppId::Cg, AppId::Cholesky, AppId::Fft];

    /// Instantiates the application at `size`.
    pub fn instantiate(self, size: SizeClass) -> Box<dyn App> {
        match self {
            AppId::Ep => Box::new(Ep::new(size)),
            AppId::Fft => Box::new(Fft::new(size)),
            AppId::Is => Box::new(Is::new(size)),
            AppId::Cg => Box::new(Cg::new(size)),
            AppId::Cholesky => Box::new(Cholesky::new(size)),
            AppId::Custom(app) => (app.factory)(size),
        }
    }

    /// Parses a built-in's name as printed by [`AppId::name`].
    pub fn from_name(name: &str) -> Option<AppId> {
        AppId::ALL.into_iter().find(|id| id.name() == name)
    }

    /// The short lowercase name.
    pub fn name(self) -> &'static str {
        match self {
            AppId::Ep => "ep",
            AppId::Fft => "fft",
            AppId::Is => "is",
            AppId::Cg => "cg",
            AppId::Cholesky => "cholesky",
            AppId::Custom(app) => app.name,
        }
    }

    /// Content that pins this app's identity beyond its name: a custom
    /// app's canonical definition text, `None` for the built-ins (their
    /// behaviour is fixed by the binary). Sweep fingerprints absorb this,
    /// so journals written under one scenario definition refuse to resume
    /// under another even if the name is reused.
    pub fn fingerprint_detail(self) -> Option<&'static str> {
        match self {
            AppId::Custom(app) => Some(&app.canon),
            _ => None,
        }
    }
}

impl std::fmt::Display for AppId {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(self.name())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn app_id_name_roundtrip() {
        for id in AppId::ALL {
            assert_eq!(AppId::from_name(id.name()), Some(id));
        }
        assert_eq!(AppId::from_name("nope"), None);
    }

    #[test]
    fn instantiation_produces_named_apps() {
        for id in AppId::ALL {
            let app = id.instantiate(SizeClass::Test);
            assert_eq!(app.name(), id.name());
            assert_eq!(id.fingerprint_detail(), None);
        }
    }

    #[test]
    fn a_custom_app_is_its_name_and_text() {
        let leak = |canon: &str| -> AppId {
            let app = CustomApp::new("custom", canon.to_string(), |size| Box::new(Ep::new(size)));
            AppId::Custom(Box::leak(Box::new(app)))
        };
        let id = leak("v1");
        assert_eq!(
            (id.name(), id.to_string()),
            ("custom", "custom".to_string())
        );
        assert_eq!(id.fingerprint_detail(), Some("v1"));
        assert_eq!(id.instantiate(SizeClass::Test).name(), "ep");
        // A second value of the same definition is the same app; an
        // edited one is not; neither is found by name.
        assert_eq!(leak("v1"), id);
        assert_ne!(leak("v2"), id);
        assert_eq!(AppId::from_name("custom"), None);
    }
}
