//! Cache working-set study: sweep the target machine's cache capacity and
//! watch the execution time and traffic flatten once the application's
//! working set fits — the Rothberg/Singh/Gupta observation (cited in the
//! paper's §2) that ~64 KB captures the important working set of many
//! scientific applications, which is why the paper fixes a 64 KB cache.
//!
//! ```text
//! cargo run --release --example working_set [app] [procs]
//! ```

use spasm::apps::{AppId, SizeClass};
use spasm::core::ablation::{cache_working_set, CACHE_SWEEP};
use spasm::core::Net;

fn main() {
    let mut args = std::env::args().skip(1);
    let app = args
        .next()
        .map(|s| AppId::from_name(&s).expect("app: ep|fft|is|cg|cholesky"))
        .unwrap_or(AppId::Cg);
    let procs: usize = args
        .next()
        .map(|s| s.parse().expect("procs must be a power of two"))
        .unwrap_or(8);

    println!("Working-set curve: {app} on the {procs}-processor fully connected target\n");
    println!(
        "{:>10} {:>12} {:>12} {:>12} {:>10}",
        "cache", "exec (us)", "latency", "contention", "msgs"
    );
    let points = cache_working_set(app, SizeClass::Test, Net::Full, procs, 1995, CACHE_SWEEP, 1)
        .expect("verified runs");
    for p in points {
        println!(
            "{:>7}KiB {:>12.1} {:>12.1} {:>12.1} {:>10}",
            p.size_bytes / 1024,
            p.metrics.exec_us,
            p.metrics.latency_us,
            p.metrics.contention_us,
            p.metrics.messages,
        );
    }
    println!(
        "\nOnce the curve flattens the working set fits; growing the cache\n\
         further cannot reduce the *communication* misses (coherence), which\n\
         is exactly the traffic the CLogP ideal cache models."
    );
}
