//! Property-based certification of what the target model's pricing rests
//! on: an access changes only the caches its [`Outcome`] names, plus the
//! directory. The model sends messages to exactly the nodes the outcome
//! lists (supplier, invalidated sharers, downgraded owner), so a cache
//! that changed without being named would be state the model moved for
//! free.
//!
//! Checked over testkit-generated access sequences under both coherence
//! protocols. Failures shrink (testkit halves and drops ops from the
//! generated sequence), and state is compared per component, so a shrunk
//! counterexample names the field that moved — `cache[n]` or `directory`.

use spasm_cache::{AccessKind, CacheConfig, CoherenceController, Outcome, ProtocolKind, Supplier};
use spasm_testkit::{check_with, gens, prop_assert, Config, Gen};

/// Nodes in the generated machine.
const NODES: usize = 4;
/// Block-address universe: small enough that generated sequences collide
/// in sets and evict (the cache below holds 8 lines), large enough to
/// exercise the directory's growth path.
const BLOCKS: u64 = 24;

/// A deliberately tiny cache — 4 sets × 2 ways — so short generated
/// sequences reach the interesting transitions: evictions, writebacks,
/// cache-to-cache supply, invalidation storms.
fn tiny_cache() -> CacheConfig {
    CacheConfig {
        size_bytes: 256,
        assoc: 2,
        block_bytes: 32,
    }
}

/// One generated access: (node, block, write?).
type RawOp = (u32, u64, u32);

fn decode(op: RawOp) -> (usize, u64, AccessKind) {
    let (node, block, kind) = op;
    let kind = if kind == 0 {
        AccessKind::Read
    } else {
        AccessKind::Write
    };
    (node as usize % NODES, block % BLOCKS, kind)
}

fn protocol_of(flag: u32) -> ProtocolKind {
    if flag == 0 {
        ProtocolKind::Berkeley
    } else {
        ProtocolKind::WriteBackOnRead
    }
}

/// A mutation sequence plus a protocol selector.
fn sequences() -> Gen<(Vec<RawOp>, u32)> {
    let op = gens::tuple3(
        gens::u32s(0..NODES as u32),
        gens::u64s(0..BLOCKS),
        gens::u32s(0..2),
    );
    gens::tuple2(gens::vecs(op, 1..48), gens::u32s(0..2))
}

fn apply(c: &mut CoherenceController, ops: &[RawOp]) -> Vec<Outcome> {
    ops.iter()
        .map(|&op| {
            let (node, block, kind) = decode(op);
            c.access(node, block, kind)
        })
        .collect()
}

/// Per-component digests: one per cache, one for the directory. Named so
/// a failure localizes to a field.
fn component_hashes(c: &CoherenceController) -> Vec<(String, u64)> {
    let mut v: Vec<(String, u64)> = (0..c.nodes())
        .map(|n| (format!("cache[{n}]"), c.cache(n).state_hash()))
        .collect();
    v.push(("directory".to_string(), c.directory().state_hash()));
    v
}

/// An access perturbs only the components its outcome names — the
/// accessor's cache, the caches the outcome says were invalidated or
/// supplied/downgraded from, and the directory. Anything outside that set
/// must hash identically before and after: there is no hidden
/// cross-component coupling.
#[test]
fn access_perturbs_only_named_components() {
    let gen = gens::tuple2(
        sequences(),
        gens::tuple3(
            gens::u32s(0..NODES as u32),
            gens::u64s(0..BLOCKS),
            gens::u32s(0..2),
        ),
    );
    check_with(
        Config::default(),
        "access_perturbs_only_named_components",
        &gen,
        |((ops, proto), probe)| {
            let mut c =
                CoherenceController::with_protocol(NODES, tiny_cache(), protocol_of(*proto));
            apply(&mut c, ops);
            let before = component_hashes(&c);
            let (node, block, kind) = decode(*probe);
            let outcome = c.access(node, block, kind);
            let after = component_hashes(&c);

            // Upper bound on what this outcome is allowed to touch.
            let mut allowed = vec![format!("cache[{node}]"), "directory".to_string()];
            match &outcome {
                Outcome::Hit => {}
                Outcome::UpgradeHit { invalidated } => {
                    allowed.extend(invalidated.iter().map(|n| format!("cache[{n}]")));
                }
                Outcome::Miss {
                    supplier,
                    invalidated,
                    downgrade_writeback,
                    ..
                } => {
                    allowed.extend(invalidated.iter().map(|n| format!("cache[{n}]")));
                    if let Supplier::Owner(o) = supplier {
                        allowed.push(format!("cache[{o}]"));
                    }
                    if let Some(wb) = downgrade_writeback {
                        allowed.push(format!("cache[{}]", wb.from));
                    }
                }
            }
            for ((name, ha), (_, hb)) in before.iter().zip(&after) {
                if ha != hb {
                    prop_assert!(
                        allowed.contains(name),
                        "{name} changed but outcome {outcome:?} does not name it"
                    );
                }
            }
            // The accessor's own cache always records the access (at
            // minimum its hit/miss counters move).
            prop_assert!(
                before[node].1 != after[node].1,
                "cache[{node}] made an access yet its state hash is unchanged"
            );
            Ok(())
        },
    );
}
