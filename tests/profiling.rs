//! SPASM-style profiling: per-processor overhead separation and
//! per-data-structure traffic attribution, end to end.

use spasm::apps::{App, Cg, Cholesky};
use spasm::machine::{Engine, MachineKind, SetupCtx};
use spasm::topology::Topology;

#[test]
fn cg_traffic_attributes_to_named_structures() {
    let topo = Topology::full(4);
    let mut setup = SetupCtx::new(4);
    let built = Cg::with_params(64, 3, 3).build(&mut setup, 7);
    let r = Engine::new(MachineKind::Target, &topo, setup, built.bodies)
        .run()
        .unwrap();
    (built.verify)(&r.final_store).unwrap();

    let labels: Vec<&str> = r.region_traffic.iter().map(|&(l, _)| l).collect();
    for expected in ["barrier", "p-vec", "q-vec", "r-vec", "reduction", "x-vec"] {
        assert!(
            labels.contains(&expected),
            "missing region {expected}: {labels:?}"
        );
    }
    // The mat-vec's irregular reads make p-vec the top message source
    // among the data vectors.
    let msgs = |label: &str| {
        r.region_traffic
            .iter()
            .find(|&&(l, _)| l == label)
            .map(|&(_, b)| b.msgs)
            .unwrap()
    };
    assert!(msgs("p-vec") > msgs("x-vec"), "p-vec should dominate x-vec");
    // Attribution is a partition: labeled messages never exceed the total.
    let labeled: u64 = r.region_traffic.iter().map(|&(_, b)| b.msgs).sum();
    assert!(labeled <= r.totals.msgs);

    // And the rendered profile carries the table.
    let profile = r.profile();
    assert!(profile.contains("per-structure traffic"));
    assert!(profile.contains("p-vec"));
}

#[test]
fn cholesky_queue_traffic_is_visible() {
    let topo = Topology::mesh(4);
    let mut setup = SetupCtx::new(4);
    let built = Cholesky::with_params(24, 2).build(&mut setup, 3);
    let r = Engine::new(MachineKind::Target, &topo, setup, built.bodies)
        .run()
        .unwrap();
    (built.verify)(&r.final_store).unwrap();
    let get = |label: &str| {
        r.region_traffic
            .iter()
            .find(|&&(l, _)| l == label)
            .map(|&(_, b)| b)
            .unwrap_or_else(|| panic!("missing region {label}"))
    };
    assert!(get("task-queue").msgs > 0, "queue must generate traffic");
    assert!(get("columns").msgs > 0, "column data must generate traffic");
}

#[test]
fn unlabeled_runs_have_empty_region_table() {
    let topo = Topology::full(2);
    let mut setup = SetupCtx::new(2);
    let a = setup.alloc(1, 4);
    let bodies: Vec<spasm::machine::ProcBody> = vec![
        Box::new(move |_, ctx| {
            spasm::machine::MemCtx::new(ctx).read(a);
        }),
        Box::new(|_, _| {}),
    ];
    let r = Engine::new(MachineKind::Target, &topo, setup, bodies)
        .run()
        .unwrap();
    assert!(r.region_traffic.is_empty());
    assert!(!r.profile().contains("per-structure"));
}

/// The region table has one row per label *text* that was accessed,
/// sorted by label — whatever the accesses cost.
#[test]
fn region_rows_follow_label_text_and_touch() {
    // Equal text at two addresses, as two crates' string constants are.
    let (twin_a, twin_b) = "twintwin".split_at(4);
    assert!(!std::ptr::eq(twin_a, twin_b));
    for kind in [MachineKind::Target, MachineKind::Pram] {
        let topo = Topology::full(2);
        let mut setup = SetupCtx::new(2);
        let zeta = setup.alloc_labeled(1, 4, "zeta");
        let near = setup.alloc_labeled(0, 1, twin_a);
        setup.alloc_labeled(0, 4, "idle");
        let far = setup.alloc_labeled(1, 1, twin_b);
        let alpha = setup.alloc_labeled(1, 1, "alpha");
        let bodies: Vec<spasm::machine::ProcBody> = vec![
            Box::new(move |_, ctx| {
                let mem = spasm::machine::MemCtx::new(ctx);
                for addr in [zeta, near, far, alpha] {
                    mem.read(addr);
                }
            }),
            Box::new(|_, _| {}),
        ];
        let r = Engine::new(kind, &topo, setup, bodies).run().unwrap();
        let labels: Vec<&str> = r.region_traffic.iter().map(|&(l, _)| l).collect();
        assert_eq!(labels, ["alpha", "twin", "zeta"], "{kind}");
        let msgs: Vec<u64> = r.region_traffic.iter().map(|&(_, b)| b.msgs).collect();
        if kind == MachineKind::Pram {
            assert_eq!(msgs, [0, 0, 0], "a PRAM has no network to load");
        } else {
            // `near` is a local miss, `far` a remote one like the others.
            assert!(
                msgs[0] > 0 && msgs[1] == msgs[0] && msgs[2] == msgs[0],
                "{msgs:?}"
            );
            assert_eq!(msgs.iter().sum::<u64>(), r.totals.msgs);
        }
    }
}
