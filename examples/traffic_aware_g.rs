//! The paper's §7 proposal, implemented: derive the LogP g parameter from
//! the application's *measured* communication locality instead of assuming
//! every message crosses the bisection.
//!
//! For each application on the mesh (where the naive g is most
//! pessimistic), this runs the target once to measure the fraction of
//! bisection-crossing messages, re-derives `g' = g·f`, and compares the
//! contention estimates.
//!
//! ```text
//! cargo run --release --example traffic_aware_g [procs]
//! ```

use spasm::apps::{AppId, SizeClass};
use spasm::core::ablation::traffic_aware_g;
use spasm::core::Net;

fn main() {
    let procs: usize = std::env::args()
        .nth(1)
        .map(|s| s.parse().expect("procs must be a power of two"))
        .unwrap_or(8);

    println!("Traffic-aware g on the {procs}-processor mesh\n");
    println!(
        "{:>9} {:>10} {:>12} {:>12} {:>12} {:>14}",
        "app", "crossing", "target (us)", "naive g", "aware g", "error removed"
    );
    for app in AppId::ALL {
        let s = traffic_aware_g(app, SizeClass::Test, Net::Mesh, procs, 1995, 1)
            .expect("verified runs");
        let removed = if s.naive_error() > 0.0 {
            100.0 * (1.0 - s.aware_error() / s.naive_error())
        } else {
            0.0
        };
        println!(
            "{:>9} {:>9.0}% {:>12.1} {:>12.1} {:>12.1} {:>13.0}%",
            app.to_string(),
            100.0 * s.crossing_fraction,
            s.target.contention_us,
            s.naive.contention_us,
            s.aware.contention_us,
            removed,
        );
    }
    println!(
        "\n'crossing' is the share of target-machine messages that actually\n\
         traversed the bisection; the paper's g derivation assumes 100%. The\n\
         last column is how much of the naive estimate's contention error the\n\
         measured-locality correction removes (negative = overcorrection)."
    );
}
