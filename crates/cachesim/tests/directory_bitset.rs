//! Bitset-directory unit and parity tests.
//!
//! [`DirEntry`] packs the presence set into one `u64` word and the
//! [`Directory`] is a table indexed by block id that grows on first
//! touch. Both are checked here against a transparent reference model —
//! a `Vec<bool>` presence set and a `Vec` of entries sized up front —
//! across random operation streams at every system size the paper sweeps
//! (1..=64 processors) plus the word-width boundary itself.

use spasm_cache::{DirEntry, Directory};
use spasm_testkit::{check, gens, prop_assert_eq};

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
            real.sharer_bits().len(),
            model.sharers().len(),
            "sharer_bits().len() diverged"
        );
        prop_assert_eq!(
            real.sharer_bits().is_empty(),
            model.sharers().is_empty(),
            "sharer_bits().is_empty() diverged"
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
    assert!(e.sharer_bits().is_empty());
    assert_eq!(e.owner(), None);
}

#[test]
#[should_panic(expected = "up to 64 nodes")]
fn node_64_is_out_of_range() {
    DirEntry::default().add_sharer(64);
}

/// Drives the `Directory` against a reference `Vec` of entries sized up
/// front to the largest block the stream touches. Blocks are mostly
/// below 4096, with an occasional one up to `1 << 20` to grow the table
/// far past its contents. Every block below the high-water mark reads as
/// the reference entry (an untouched one as the empty entry); the first
/// block above it, and the top of the block space, read `None`.
#[test]
fn directory_matches_a_dense_reference() {
    let raw = gens::vecs(
        gens::tuple3(gens::u64s(0..64), gens::u64s(0..1 << 20), gens::u64s(0..64)),
        1..200,
    );
    check("directory_bitset/dense_parity", &raw, |ops| {
        let block = |sel: u64, tweak: u64| if sel == 0 { tweak } else { tweak % 4096 };
        let top = ops.iter().map(|&(sel, tweak, _)| block(sel, tweak)).max();
        let mut model = vec![DirEntry::default(); top.map_or(0, |t| t as usize + 1)];
        let mut real = Directory::new();
        for &(sel, tweak, who) in ops {
            let b = block(sel, tweak);
            let node = (who % 64) as usize;
            for e in [real.entry(b), &mut model[b as usize]] {
                match sel % 3 {
                    0 | 1 => e.add_sharer(node),
                    _ => e.remove_sharer(node),
                }
            }
        }
        for (b, want) in model.iter().enumerate() {
            prop_assert_eq!(real.get(b as u64), Some(want), "block {b} diverged");
        }
        let above = [model.len() as u64, u64::MAX].map(|b| real.get(b));
        prop_assert_eq!(above, [None; 2], "an entry above the mark");
        Ok(())
    });
}
