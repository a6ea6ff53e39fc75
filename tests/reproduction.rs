//! Integration tests pinning the paper's qualitative results (R1–R6 in
//! DESIGN.md) at test scale. These are the claims EXPERIMENTS.md reports
//! at figure scale; here they are asserted on every `cargo test`.

use spasm::apps::{AppId, SizeClass};
use spasm::core::{Experiment, Machine, Net, RunMetrics};

fn run(app: AppId, net: Net, machine: Machine, procs: usize) -> RunMetrics {
    run_sized(SizeClass::Test, app, net, machine, procs)
}

fn run_sized(size: SizeClass, app: AppId, net: Net, machine: Machine, procs: usize) -> RunMetrics {
    Experiment {
        app,
        size,
        net,
        machine,
        procs,
        seed: 1995,
    }
    .run()
    .unwrap_or_else(|e| panic!("{app} on {machine}/{net}/{procs}: {e}"))
}

/// R1 — the latency overhead of the CLogP abstraction tracks the target
/// machine closely for every application.
#[test]
fn r1_clogp_latency_tracks_target() {
    for app in AppId::ALL {
        let target = run(app, Net::Full, Machine::Target, 8);
        let clogp = run(app, Net::Full, Machine::CLogP, 8);
        let ratio = clogp.latency_us / target.latency_us.max(1e-9);
        assert!(
            (0.5..=1.6).contains(&ratio),
            "{app}: CLogP latency {:.1}us vs target {:.1}us (ratio {ratio:.2})",
            clogp.latency_us,
            target.latency_us
        );
    }
}

/// R1 (detail) — for FFT, the cache-less LogP machine's latency overhead
/// is roughly 4x the target's (one 4-word cache block per fetch).
#[test]
fn r1_fft_logp_latency_is_about_4x() {
    let target = run(AppId::Fft, Net::Full, Machine::Target, 8);
    let logp = run(AppId::Fft, Net::Full, Machine::LogP, 8);
    let ratio = logp.latency_us / target.latency_us;
    assert!(
        (2.5..=5.5).contains(&ratio),
        "FFT LogP/target latency ratio {ratio:.2}, expected ~4"
    );
}

/// R2 — the bisection-derived g parameter makes the abstracted machines'
/// contention pessimistic relative to the target, and the pessimism grows
/// as connectivity drops (full -> mesh).
#[test]
fn r2_g_contention_is_pessimistic_and_grows_with_lower_connectivity() {
    for app in [AppId::Fft, AppId::Cg, AppId::Is] {
        let gap = |net| {
            let t = run(app, net, Machine::Target, 8);
            let c = run(app, net, Machine::CLogP, 8);
            c.contention_us - t.contention_us
        };
        let (g_full, g_cube, g_mesh) = (gap(Net::Full), gap(Net::Cube), gap(Net::Mesh));
        assert!(
            g_full < g_cube && g_cube < g_mesh,
            "{app}: pessimism gap should grow full->cube->mesh \
             ({g_full:.1} -> {g_cube:.1} -> {g_mesh:.1} us)"
        );
        assert!(
            g_mesh > 0.0,
            "{app}: mesh contention must be pessimistic ({g_mesh:.1} us)"
        );
    }
}

/// R2 (locality) — with communication locality the one variable, the
/// g-model's pessimism is largest for the local patterns on the networks
/// of lower connectivity. Twelve generated scenarios (3 networks x 4
/// locality patterns) run target and CLogP at p = 32, small size; the
/// table printed is CLogP/target contention.
///
/// On the fully connected network neighbor traffic reads *optimistic*
/// (below 1), F10's sign (EXPERIMENTS.md, known deviation 2). It is
/// pinned as observed. The suspected cause is the full network's g =
/// 3.2/p us, only 0.1 us at p = 32, which charges almost nothing for
/// traffic the target's coherence protocol still contends for.
#[test]
fn r2_locality_pessimism_is_largest_for_local_patterns_below_full_connectivity() {
    const LOCALITIES: [&str; 4] = ["neighbor", "ring", "uniform", "hotspot"];
    let ratio = |net: &str, locality: &str| {
        let text = format!(
            "[scenario]\nname = r2-{net}-{locality}\nclients = 2\nrounds = 4\n\
             working-set = 64\nsharing = 0.5\nwrites = 0.5\nlocality = {locality}\n\
             net = {net}\nmetric = contention\n\
             [phase]\nkind = mem\nops = 16\n\
             [phase]\nkind = compute\ncycles = 100\n\
             [phase]\nkind = barrier\n"
        );
        let sc = spasm::scenario::parse(&text).expect("scenario parses");
        let spec = spasm::scenario::compile(&sc).expect("scenario compiles");
        let contention =
            |machine| run_sized(SizeClass::Small, spec.app, spec.net, machine, 32).contention_us;
        contention(Machine::CLogP) / contention(Machine::Target)
    };
    println!("| net | {} |", LOCALITIES.join(" | "));
    println!("|---|---|---|---|---|");
    for net in ["full", "cube", "mesh"] {
        let row = LOCALITIES.map(|locality| ratio(net, locality));
        let cells = row.map(|r| format!("{r:.2}"));
        println!("| {net} | {} |", cells.join(" | "));
        let [neighbor, ring, uniform, hotspot] = row;
        if net == "full" {
            assert!(
                neighbor < 1.0,
                "full/neighbor reads {neighbor:.2}: no longer optimistic, re-pin deviation 2"
            );
        } else {
            for (locality, r) in [("neighbor", neighbor), ("ring", ring), ("hotspot", hotspot)] {
                assert!(
                    r > uniform,
                    "{net}: {locality} pessimism {r:.2} should exceed uniform's {uniform:.2}"
                );
            }
        }
    }
}

/// R3 — ignoring locality entirely is wrong: the LogP machine's execution
/// time is far above the target for the communication-heavy applications.
#[test]
fn r3_logp_execution_diverges_for_communication_heavy_apps() {
    for app in [AppId::Is, AppId::Cg, AppId::Cholesky] {
        let target = run(app, Net::Full, Machine::Target, 8);
        let logp = run(app, Net::Full, Machine::LogP, 8);
        let ratio = logp.exec_us / target.exec_us;
        assert!(
            ratio > 1.5,
            "{app}: LogP exec {:.0}us vs target {:.0}us (ratio {ratio:.2})",
            logp.exec_us,
            target.exec_us
        );
    }
}

/// R3 (contrast) — EP computes so much that all machines agree on its
/// execution time (paper Figure 12).
#[test]
fn r3_ep_execution_agrees_across_machines() {
    let target = run(AppId::Ep, Net::Full, Machine::Target, 8);
    for machine in [Machine::LogP, Machine::CLogP] {
        let m = run(AppId::Ep, Net::Full, machine, 8);
        let ratio = m.exec_us / target.exec_us;
        assert!(
            (0.8..=1.4).contains(&ratio),
            "EP on {machine}: exec ratio {ratio:.2}, expected ~1"
        );
    }
}

/// R4 — the ideal coherent cache (CLogP) closely models the target's
/// execution time across the suite on the fully connected network.
#[test]
fn r4_clogp_execution_tracks_target_on_full() {
    for app in AppId::ALL {
        let target = run(app, Net::Full, Machine::Target, 8);
        let clogp = run(app, Net::Full, Machine::CLogP, 8);
        let ratio = clogp.exec_us / target.exec_us;
        assert!(
            (0.6..=2.1).contains(&ratio),
            "{app}: CLogP exec {:.0}us vs target {:.0}us (ratio {ratio:.2})",
            clogp.exec_us,
            target.exec_us
        );
    }
}

/// R4 (traffic) — CLogP's message count is a *lower bound* on the
/// target's (it is the minimum any invalidation protocol could achieve),
/// and not wildly below it.
#[test]
fn r4_clogp_messages_lower_bound_target() {
    for app in AppId::ALL {
        let target = run(app, Net::Full, Machine::Target, 8);
        let clogp = run(app, Net::Full, Machine::CLogP, 8);
        assert!(
            clogp.messages <= target.messages,
            "{app}: CLogP sent more messages ({}) than the full protocol ({})",
            clogp.messages,
            target.messages
        );
        assert!(
            clogp.messages * 8 >= target.messages,
            "{app}: CLogP traffic implausibly low ({} vs {})",
            clogp.messages,
            target.messages
        );
    }
}

/// R5 — simulation cost ordering by simulator events: abstracting
/// locality away (LogP) makes the simulation *more* expensive than the
/// target's, while the ideal cache (CLogP) makes it cheaper.
#[test]
fn r5_event_counts_order_logp_heaviest() {
    for app in [AppId::Ep, AppId::Cg, AppId::Cholesky] {
        let target = run(app, Net::Full, Machine::Target, 8);
        let logp = run(app, Net::Full, Machine::LogP, 8);
        let clogp = run(app, Net::Full, Machine::CLogP, 8);
        assert!(
            logp.events > target.events,
            "{app}: LogP events {} must exceed target {}",
            logp.events,
            target.events
        );
        assert!(
            clogp.events <= target.events,
            "{app}: CLogP events {} must not exceed target {}",
            clogp.events,
            target.events
        );
    }
}

/// R5 at Small size, read off S1's rows in the committed golden (which
/// `scripts/ci.sh` regenerates byte for byte): cholesky on the full
/// network, every p of the sweep. LogP processes the most events at
/// every p. CLogP processes fewer than the target from p = 8 on; at
/// p = 2 and p = 4 it processes slightly more, by under 0.1 %.
#[test]
fn s1_golden_event_counts_order_the_machines_at_every_p() {
    let mut events = std::collections::HashMap::new();
    let rows = include_str!("../figures_small.csv").lines();
    for row in rows.filter(|r| r.starts_with("S1,")) {
        let cells: Vec<&str> = row.split(',').collect();
        let procs: usize = cells[4].parse().unwrap();
        events.insert((procs, cells[5]), cells[6].parse::<u64>().unwrap());
    }
    assert_eq!(events.len(), 15, "S1 golden holds 3 machines x 5 p");
    for p in [2, 4, 8, 16, 32] {
        let [target, logp, clogp] = ["target", "logp", "clogp"].map(|m| events[&(p, m)]);
        assert!(
            logp > target && logp > clogp,
            "p={p}: LogP {logp} must exceed target {target} and CLogP {clogp}"
        );
        if p >= 8 {
            assert!(clogp < target, "p={p}: CLogP {clogp} vs target {target}");
        } else {
            assert!(
                clogp > target && (clogp - target) * 1000 < target,
                "p={p}: CLogP {clogp} must sit above target {target} by under 0.1 %"
            );
        }
    }
}

/// R5 in host time — the paper's own form of the claim: simulating the
/// CLogP machine is 25–30 % cheaper than simulating the target, and the
/// LogP machine is dearer. Measured over the benchmark's 41-point grid
/// (`benchmark/src/grid.rs`) at the small size. Each of five rounds runs
/// one machine's 41 points as a block, target then LogP then CLogP, so a
/// slow spell can fall on one machine alone; interference only ever adds
/// time, so each point counts its fastest of the five. The central
/// `clogp/target` sits near the bound, and the gate fails some runs:
/// EXPERIMENTS.md S1 keeps the readings and pass counts, each beside the
/// A/A control of [`r5_ratios`].
///
/// R5 is a measurement, not a veto: the test prints both ratios and
/// hard-asserts only the paper's qualitative claim, that CLogP simulates
/// clearly faster than the target (`≤ 0.90`). The magnitudes may move
/// either way with any change that keeps every simulated byte — a change
/// is never chosen or refused for where it moves them. "LogP is the
/// heaviest to simulate" is asserted in its deterministic form by
/// [`r5_event_counts_order_logp_heaviest`], not in host time.
#[test]
#[ignore = "host time: release build, run by scripts/ci.sh"]
fn r5_host_time_clogp_beats_target() {
    let mut points = Vec::new();
    for app in [AppId::Ep, AppId::Is, AppId::Cg, AppId::Fft] {
        for net in [Net::Full, Net::Mesh] {
            for procs in [2, 4, 8, 16, 32] {
                points.push((app, net, procs));
            }
        }
    }
    points.push((AppId::Cholesky, Net::Full, 4));
    assert_eq!(points.len(), 41);

    let machines = [Machine::Target, Machine::LogP, Machine::CLogP];
    let mut best = vec![[f64::INFINITY; 3]; points.len()];
    for _ in 0..5 {
        for (slot, &machine) in machines.iter().enumerate() {
            for (best, &(app, net, procs)) in best.iter_mut().zip(&points) {
                let started = std::time::Instant::now();
                run_sized(SizeClass::Small, app, net, machine, procs);
                best[slot] = best[slot].min(started.elapsed().as_secs_f64());
            }
        }
    }
    let total = |slot: usize| best.iter().map(|b| b[slot]).sum::<f64>();
    let (target, logp, clogp) = (total(0), total(1), total(2));
    println!(
        "R5 host time: target {target:.3}s, logp {logp:.3}s ({:.2}x), clogp {clogp:.3}s ({:.2}x)",
        logp / target,
        clogp / target
    );
    assert!(
        clogp / target <= 0.90,
        "CLogP must simulate clearly faster than the target: {clogp:.3}s vs {target:.3}s"
    );
}

/// R5 in host time as a report: the same 41-point grid as
/// [`r5_host_time_clogp_beats_target`], but each point runs its slots
/// back to back — target, logp, clogp, and target again as an A/A
/// control — in a balanced order rotated by round and point, each timed in
/// this thread's on-CPU ns (`/proc/thread-self/schedstat`). A slot's
/// figure is the median over 9 rounds of its per-round sum. Prints the
/// A/A, clogp/target and logp/target ratios and the host's steal ticks
/// over the run (`/proc/stat`); asserts nothing.
#[test]
#[ignore = "host time: release build, a report"]
fn r5_ratios() {
    let mut points = Vec::new();
    for app in [AppId::Ep, AppId::Is, AppId::Cg, AppId::Fft] {
        for net in [Net::Full, Net::Mesh] {
            for procs in [2, 4, 8, 16, 32] {
                points.push((app, net, procs));
            }
        }
    }
    points.push((AppId::Cholesky, Net::Full, 4));
    let rounds = 9;

    let on_cpu_ns = || -> u64 {
        let stat = std::fs::read_to_string("/proc/thread-self/schedstat").expect("schedstat");
        stat.split_whitespace()
            .next()
            .and_then(|f| f.parse().ok())
            .expect("on-CPU ns")
    };
    // The aggregate `cpu` line: (user + nice + system, steal) ticks.
    let cpu_ticks = || -> (u64, u64) {
        let stat = std::fs::read_to_string("/proc/stat").expect("/proc/stat");
        let f: Vec<u64> = stat
            .lines()
            .next()
            .expect("cpu line")
            .split_whitespace()
            .skip(1)
            .map(|v| v.parse().expect("tick count"))
            .collect();
        (f[0] + f[1] + f[2], f[7])
    };

    let slots = [
        Machine::Target,
        Machine::LogP,
        Machine::CLogP,
        Machine::Target,
    ];
    let (busy0, steal0) = cpu_ticks();
    let mut sums = vec![[0u64; 4]; rounds];
    for (round, sum) in sums.iter_mut().enumerate() {
        for (i, &(app, net, procs)) in points.iter().enumerate() {
            // A balanced Latin square (Williams): over four rotations each
            // slot runs once in each position and once after each other
            // slot, so no slot always follows its own machine's run.
            for k in [0, 1, 3, 2] {
                let slot = (round + i + k) % 4;
                let started = on_cpu_ns();
                run_sized(SizeClass::Small, app, net, slots[slot], procs);
                sum[slot] += on_cpu_ns() - started;
            }
        }
    }
    let (busy1, steal1) = cpu_ticks();
    let median = |slot: usize| {
        let mut v: Vec<u64> = sums.iter().map(|s| s[slot]).collect();
        v.sort_unstable();
        v[rounds / 2] as f64
    };
    let target = median(0);
    println!(
        "R5 ratios (median of {rounds} per-round on-CPU sums, target {:.3}s): \
         A/A {:.3}, clogp/target {:.3}, logp/target {:.3}; \
         steal {} ticks against {} busy",
        target / 1e9,
        median(3) / target,
        median(2) / target,
        median(1) / target,
        steal1 - steal0,
        busy1 - busy0
    );
}

/// R6 — enforcing the gap only between identical communication events
/// (the paper's §7 experiment) brings FFT-on-cube contention much closer
/// to the target than the unified LogP definition.
#[test]
fn r6_per_event_type_gap_reduces_pessimism() {
    let target = run(AppId::Fft, Net::Cube, Machine::Target, 8);
    let unified = run(AppId::Fft, Net::Cube, Machine::CLogP, 8);
    let per_type = run(AppId::Fft, Net::Cube, Machine::CLogPPerEventGap, 8);
    let err_unified = (unified.contention_us - target.contention_us).abs();
    let err_per_type = (per_type.contention_us - target.contention_us).abs();
    assert!(
        err_per_type < err_unified,
        "per-event-type gap should be closer to the target: |{:.1}-{:.1}| vs |{:.1}-{:.1}|",
        per_type.contention_us,
        target.contention_us,
        unified.contention_us,
        target.contention_us
    );
}

/// The latency overhead is essentially topology-independent on the target
/// (transmission dominates hop count — paper §6.1).
#[test]
fn latency_is_topology_insensitive_on_target() {
    let full = run(AppId::Cg, Net::Full, Machine::Target, 8);
    let cube = run(AppId::Cg, Net::Cube, Machine::Target, 8);
    let mesh = run(AppId::Cg, Net::Mesh, Machine::Target, 8);
    for (name, m) in [("cube", &cube), ("mesh", &mesh)] {
        let ratio = m.latency_us / full.latency_us;
        assert!(
            (0.85..=1.25).contains(&ratio),
            "latency should barely depend on topology; full vs {name}: {ratio:.2}"
        );
    }
}

/// Contention, by contrast, grows as connectivity drops.
#[test]
fn contention_grows_with_lower_connectivity_on_target() {
    let full = run(AppId::Is, Net::Full, Machine::Target, 16);
    let mesh = run(AppId::Is, Net::Mesh, Machine::Target, 16);
    assert!(
        mesh.contention_us > full.contention_us,
        "mesh contention {:.1} should exceed full {:.1}",
        mesh.contention_us,
        full.contention_us
    );
}
