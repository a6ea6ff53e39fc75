//! Bitset-directory unit and parity tests.
//!
//! [`DirEntry`] packs the presence set into one `u64` word and the
//! [`Directory`] map is an insert-only open-addressing table. Both are
//! checked here against a transparent reference model — a `Vec<bool>`
//! presence set and a `Vec<(u64, Entry)>` association list — across
//! random operation streams at every system size the paper sweeps
//! (1..=64 processors) plus the word-width boundary itself.

use spasm_cache::{DirEntry, Directory};
use spasm_testkit::{check, gens, prop_assert, prop_assert_eq};

/// Reference presence set: one bool per node plus an explicit owner.
#[derive(Default, Clone)]
struct RefEntry {
    present: Vec<bool>,
    owner: Option<usize>,
}

impl RefEntry {
    fn with_nodes(n: usize) -> Self {
        RefEntry {
            present: vec![false; n],
            owner: None,
        }
    }

    fn add_sharer(&mut self, node: usize) {
        self.present[node] = true;
    }

    fn remove_sharer(&mut self, node: usize) {
        self.present[node] = false;
        if self.owner == Some(node) {
            self.owner = None;
        }
    }

    fn sharers(&self) -> Vec<usize> {
        (0..self.present.len())
            .filter(|&i| self.present[i])
            .collect()
    }
}

/// Drives one `DirEntry` and the reference in lock step.
fn entry_parity(nodes: usize, ops: &[(u64, u64)]) -> Result<(), String> {
    let mut real = DirEntry::default();
    let mut model = RefEntry::with_nodes(nodes);
    for &(sel, who) in ops {
        let node = (who % nodes as u64) as usize;
        match sel % 4 {
            0 | 1 => {
                real.add_sharer(node);
                model.add_sharer(node);
            }
            2 => {
                real.remove_sharer(node);
                model.remove_sharer(node);
            }
            _ => {
                // Ownership may only be granted to a current sharer.
                if real.is_sharer(node) {
                    real.set_owner(Some(node));
                    model.owner = Some(node);
                }
            }
        }
        prop_assert_eq!(
            real.sharers().collect::<Vec<_>>(),
            model.sharers(),
            "sharer sets diverged (nodes={nodes})"
        );
        prop_assert_eq!(real.owner(), model.owner, "owner diverged");
        prop_assert_eq!(
            real.sharer_count() as usize,
            model.sharers().len(),
            "sharer_count diverged"
        );
        prop_assert_eq!(
            real.is_uncached(),
            model.sharers().is_empty(),
            "is_uncached diverged"
        );
        for n in 0..nodes {
            prop_assert_eq!(
                real.is_sharer(n),
                model.present[n],
                "is_sharer({n}) diverged"
            );
        }
    }
    Ok(())
}

#[test]
fn entry_matches_reference_at_paper_system_sizes() {
    for nodes in [1usize, 2, 4, 8, 64] {
        let raw = gens::vecs(gens::tuple2(gens::u64s(0..4), gens::u64s(0..64)), 1..200);
        check(&format!("directory_bitset/entry_p{nodes}"), &raw, |ops| {
            entry_parity(nodes, ops)
        });
    }
}

#[test]
fn popcount_iteration_yields_ascending_ids() {
    let raw = gens::vecs(gens::u64s(0..64), 0..40);
    check("directory_bitset/ascending", &raw, |nodes| {
        let mut e = DirEntry::default();
        for &n in nodes {
            e.add_sharer(n as usize);
        }
        let order: Vec<usize> = e.sharers().collect();
        let mut sorted = order.clone();
        sorted.sort_unstable();
        sorted.dedup();
        prop_assert_eq!(order, sorted, "sharers() not ascending+deduped");
        Ok(())
    });
}

/// `sharer_bits()` is the presence set as a `Copy` value: it names the
/// reference's sharers, and `DirEntry::sharers()`, at every system size
/// from 1 to 64 nodes, and renders with `{:?}` exactly as the
/// `Vec<usize>` of the same ids does (the checker's ring text relies on
/// it).
#[test]
fn node_set_names_the_reference_sharers_at_every_size() {
    for nodes in 1usize..=64 {
        let raw = gens::vecs(gens::tuple2(gens::u64s(0..3), gens::u64s(0..64)), 0..40);
        check(
            &format!("directory_bitset/node_set_p{nodes}"),
            &raw,
            |ops| {
                let mut real = DirEntry::default();
                let mut model = RefEntry::with_nodes(nodes);
                for &(sel, who) in ops {
                    let node = (who % nodes as u64) as usize;
                    if sel == 2 {
                        real.remove_sharer(node);
                        model.remove_sharer(node);
                    } else {
                        real.add_sharer(node);
                        model.add_sharer(node);
                    }
                }
                let set = real.sharer_bits();
                let want = model.sharers();
                prop_assert_eq!(
                    set.iter().collect::<Vec<_>>(),
                    want.clone(),
                    "iter (nodes={nodes})"
                );
                prop_assert_eq!(
                    set.iter().collect::<Vec<_>>(),
                    real.sharers().collect::<Vec<_>>()
                );
                prop_assert_eq!(format!("{set:?}"), format!("{want:?}"), "Debug rendering");
                prop_assert_eq!(
                    format!("{set:#?}"),
                    format!("{want:#?}"),
                    "pretty Debug rendering"
                );
                prop_assert_eq!((set.len(), set.is_empty()), (want.len(), want.is_empty()));
                for n in 0..nodes {
                    prop_assert_eq!(set.contains(n), model.present[n], "contains({n})");
                    let rest: Vec<usize> = want.iter().copied().filter(|&s| s != n).collect();
                    prop_assert_eq!(
                        set.without(n).iter().collect::<Vec<_>>(),
                        rest,
                        "without({n})"
                    );
                }
                Ok(())
            },
        );
    }
}

#[test]
fn word_width_boundary() {
    // Node 63 is the last representable id; 64 must be rejected loudly.
    let mut e = DirEntry::default();
    e.add_sharer(63);
    assert!(e.is_sharer(63));
    assert_eq!(e.sharers().collect::<Vec<_>>(), vec![63]);
    e.set_owner(Some(63));
    assert_eq!(e.owner(), Some(63));
    e.remove_sharer(63);
    assert!(e.is_uncached());
    assert_eq!(e.owner(), None);
}

#[test]
#[should_panic(expected = "up to 64 nodes")]
fn node_64_is_out_of_range() {
    DirEntry::default().add_sharer(64);
}

/// Drives the open-addressing `Directory` against an association list,
/// exercising growth, colliding keys, and every read-side accessor.
#[test]
fn directory_map_matches_association_list() {
    let raw = gens::tuple2(
        // Key palette mixing small, aligned, low-bit-colliding, and
        // extreme block numbers; `u64s` tweaks pick within it.
        gens::vecs(
            gens::tuple3(gens::u64s(0..6), gens::u64s(0..1_000), gens::u64s(0..64)),
            1..300,
        ),
        gens::u64s(0..64),
    );
    check("directory_bitset/map_parity", &raw, |(ops, _)| {
        let mut real = Directory::new();
        let mut model: Vec<(u64, Vec<usize>)> = Vec::new();
        for &(ksel, tweak, who) in ops {
            let block = match ksel % 6 {
                0 => tweak,                                     // dense small blocks
                1 => tweak * 64,                                // same low bits, spread high
                2 => tweak << 32,                               // collide in the low word
                3 => u64::MAX - tweak,                          // top of the space
                4 => 0,                                         // repeated single block
                _ => tweak.wrapping_mul(0x9E37_79B9_7F4A_7C15), // scattered
            };
            let node = (who % 64) as usize;
            real.entry(block).add_sharer(node);
            match model.iter_mut().find(|(k, _)| *k == block) {
                Some((_, sharers)) => {
                    if !sharers.contains(&node) {
                        sharers.push(node);
                        sharers.sort_unstable();
                    }
                }
                None => model.push((block, vec![node])),
            }
            prop_assert_eq!(real.len(), model.len(), "len diverged");
        }
        // Full read-side comparison after the stream.
        for (block, sharers) in &model {
            let e = real
                .get(*block)
                .ok_or_else(|| format!("block {block} missing from directory"))?;
            prop_assert_eq!(
                &e.sharers().collect::<Vec<_>>(),
                sharers,
                "sharers diverged for block {block}"
            );
        }
        let mut real_blocks: Vec<u64> = real.blocks().collect();
        real_blocks.sort_unstable();
        let mut model_blocks: Vec<u64> = model.iter().map(|(k, _)| *k).collect();
        model_blocks.sort_unstable();
        prop_assert_eq!(real_blocks, model_blocks, "block sets diverged");
        // Untouched keys must not resolve.
        prop_assert!(
            real.get(0xDEAD_BEEF_0000_0001).is_none()
                || model.iter().any(|(k, _)| *k == 0xDEAD_BEEF_0000_0001),
            "phantom block resolved"
        );
        Ok(())
    });
}

#[test]
fn directory_growth_preserves_entries() {
    // Push well past the initial 64-slot table through several doublings.
    let mut d = Directory::new();
    for block in 0..10_000u64 {
        d.entry(block * 7).add_sharer((block % 64) as usize);
    }
    assert_eq!(d.len(), 10_000);
    for block in 0..10_000u64 {
        let e = d.get(block * 7).expect("entry survived growth");
        assert!(e.is_sharer((block % 64) as usize));
    }
    assert!(d.get(3).is_none()); // 3 is not a multiple of 7
}
