//! Global observer over the Berkeley coherence state machine.

use std::fmt;

use spasm_cache::{AccessKind, BState, CoherenceController, NodeSet, Outcome, ProtocolKind};
use spasm_desim::SimTime;

use crate::{CheckViolation, EventRing};

/// Checks the coherence substrate after every access:
///
/// * **single-writer** — at most one owned (`Dirty`/`SharedDirty`) copy
///   of a block; a `Dirty` copy is the *only* copy;
/// * **directory–cache agreement** — every directory sharer holds the
///   block, every cache holding the block is a directory sharer, and
///   an owned copy belongs to the directory's owner;
/// * **legal transitions** — each node's per-block state moves only
///   along edges the configured protocol permits (e.g. a clean `Valid`
///   copy never silently becomes `SharedDirty`; `Dirty → Valid` only
///   exists under write-back-on-read).
///
/// The checker keeps a *mirror* of per-block states, refreshed from the
/// real caches whenever a block is touched, so each access yields an
/// observed `(old, new)` transition per node. Block ids are dense, so the
/// mirror is one slot per `(block, node)`, sized up front. Clean victims
/// are evicted silently by the controller, so a mirror entry may be
/// stale-`Valid`; every transition out of `Valid` is legal precisely
/// because of that, while stale owned states are impossible (owned
/// victims always surface as writebacks, which the checker observes).
#[derive(Debug)]
pub struct CoherenceChecker {
    p: usize,
    protocol: ProtocolKind,
    /// Mirrored state of `block` at `node` in slot `block * p + node`
    /// (`None` = not resident).
    mirror: Vec<Option<BState>>,
    ring: EventRing<Access>,
}

/// Who holds a block, who owns it, and its first `Dirty` holder, as its
/// mirror refresh saw them.
type Holders = (NodeSet, NodeSet, Option<usize>);

/// One ring entry, rendered only into a violation: an access at `.0` by
/// node `.1` to block `.2`, and its outcome (a `Copy` value, so recording
/// an access allocates nothing).
#[derive(Debug, Clone, Copy)]
struct Access(SimTime, usize, u64, AccessKind, Outcome);

impl fmt::Display for Access {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let Access(at, node, block, kind, outcome) = self;
        let kind = match kind {
            AccessKind::Read => 'R',
            AccessKind::Write => 'W',
        };
        write!(f, "t={at} n={node} {kind}{block} -> ")?;
        match outcome {
            Outcome::Hit => f.write_str("Hit"),
            Outcome::UpgradeHit { invalidated } => write!(f, "Upgrade(inv={invalidated:?})"),
            Outcome::Miss {
                supplier,
                invalidated,
                writeback,
                downgrade_writeback,
            } => write!(
                f,
                "Miss(sup={supplier:?}, inv={invalidated:?}, wb={:?}, dwb={:?})",
                writeback.map(|w| w.block),
                downgrade_writeback.map(|w| w.block),
            ),
        }
    }
}

fn state_label(s: Option<BState>) -> &'static str {
    match s {
        None => "I",
        Some(BState::Valid) => "V",
        Some(BState::SharedDirty) => "SD",
        Some(BState::Dirty) => "D",
    }
}

/// Whether the protocol permits a node's per-block state to move from
/// `old` to `new` across one access to that block.
fn legal_transition(protocol: ProtocolKind, old: Option<BState>, new: Option<BState>) -> bool {
    use BState::{Dirty, SharedDirty, Valid};
    match (old, new) {
        // Fills are born Valid (read) or Dirty (write), never owned-shared.
        (None, None | Some(Valid) | Some(Dirty)) => true,
        (None, Some(SharedDirty)) => false,
        // A clean copy may be re-read, upgraded by a write, invalidated,
        // or silently evicted — but never granted shared ownership.
        (Some(Valid), None | Some(Valid) | Some(Dirty)) => true,
        (Some(Valid), Some(SharedDirty)) => false,
        // An owned-shared copy may persist, upgrade, or be invalidated;
        // it relinquishes ownership only under write-back-on-read.
        (Some(SharedDirty), None | Some(SharedDirty) | Some(Dirty)) => true,
        (Some(SharedDirty), Some(Valid)) => protocol == ProtocolKind::WriteBackOnRead,
        // An exclusive copy downgrades on a remote read: Berkeley keeps
        // ownership (SharedDirty), write-back-on-read drops it (Valid).
        (Some(Dirty), None | Some(Dirty)) => true,
        (Some(Dirty), Some(SharedDirty)) => protocol == ProtocolKind::Berkeley,
        (Some(Dirty), Some(Valid)) => protocol == ProtocolKind::WriteBackOnRead,
    }
}

impl CoherenceChecker {
    /// A checker for a `p`-node controller running `protocol` over block
    /// ids `0..blocks`.
    pub fn new(p: usize, blocks: usize, protocol: ProtocolKind) -> Self {
        CoherenceChecker {
            p,
            protocol,
            mirror: vec![None; blocks * p],
            ring: EventRing::new(),
        }
    }

    /// Observes one completed access and checks every invariant on the
    /// touched block (and any victim the outcome names).
    ///
    /// # Errors
    ///
    /// The first violated invariant, with the event ring attached.
    pub fn after_access(
        &mut self,
        cc: &CoherenceController,
        at: SimTime,
        node: usize,
        block: u64,
        kind: AccessKind,
        outcome: &Outcome,
    ) -> Result<(), CheckViolation> {
        self.ring.record(Access(at, node, block, kind, *outcome));
        self.check_outcome_consistency(node, block, kind, outcome)?;
        // Refresh the block and any eviction victim once each (a
        // downgrade names the block itself), then check their structure.
        let (holders, moved) = self.refresh(cc, block);
        moved?;
        if let Outcome::Miss {
            writeback: Some(victim),
            ..
        } = *outcome
        {
            let (victim_holders, moved) = self.refresh(cc, victim.block);
            moved?;
            self.check_structure(cc, victim.block, victim_holders)?;
        }
        self.check_structure(cc, block, holders)
    }

    /// Full-state sweep at end of run: refreshes every block id the
    /// checker was sized for and checks its structure and transitions.
    ///
    /// # Errors
    ///
    /// The first structural violation in ascending block order, so a
    /// given corrupted state always reports the same one; failing that,
    /// the first illegal transition.
    pub fn verify_all(&mut self, cc: &CoherenceController) -> Result<(), CheckViolation> {
        let blocks = self.mirror.len() / self.p;
        let mut transitions = Ok(());
        for b in 0..blocks as u64 {
            let (holders, moved) = self.refresh(cc, b);
            self.check_structure(cc, b, holders)?;
            transitions = transitions.and(moved);
        }
        transitions
    }

    /// Structural invariants on one block, read from the holders its
    /// refresh collected and the directory.
    fn check_structure(
        &self,
        cc: &CoherenceController,
        block: u64,
        (holders, owned, dirty): Holders,
    ) -> Result<(), CheckViolation> {
        // Single-writer: at most one owned copy; Dirty means sole copy.
        if owned.len() > 1 {
            return Err(self.violation(
                "single-writer",
                format!(
                    "block {block} has {} owned copies at nodes {owned:?}",
                    owned.len()
                ),
            ));
        }
        if let Some(n) = dirty {
            if holders.len() > 1 {
                return Err(self.violation(
                    "single-writer",
                    format!(
                        "block {block} is Dirty at node {n} but also held by {:?}",
                        holders.without(n)
                    ),
                ));
            }
        }

        // Directory-cache agreement, both directions, plus ownership.
        let entry = cc.directory().get(block).copied().unwrap_or_default();
        for s in entry.sharers() {
            if !holders.contains(s) {
                return Err(self.violation(
                    "directory-agreement",
                    format!("directory lists node {s} as sharer of block {block} but its cache does not hold it"),
                ));
            }
        }
        for n in holders.iter() {
            if !entry.is_sharer(n) {
                return Err(self.violation(
                    "directory-agreement",
                    format!(
                        "node {n} caches block {block} but is not in the directory's presence set"
                    ),
                ));
            }
        }
        match (entry.owner(), owned.iter().next()) {
            (Some(o), _) if !owned.contains(o) => Err(self.violation(
                "directory-agreement",
                format!("directory owner {o} of block {block} holds no owned copy"),
            )),
            (None, Some(n)) => Err(self.violation(
                "directory-agreement",
                format!(
                    "node {n} holds block {block} as {} but the directory records no owner",
                    state_label(self.mirror[block as usize * self.p + n])
                ),
            )),
            _ => Ok(()),
        }
    }

    /// Checks that the reported outcome is consistent with the mirror's
    /// previous view of the requesting node.
    fn check_outcome_consistency(
        &self,
        node: usize,
        block: u64,
        kind: AccessKind,
        outcome: &Outcome,
    ) -> Result<(), CheckViolation> {
        let prev = self.mirror[block as usize * self.p + node];
        match outcome {
            Outcome::Hit => {
                if prev.is_none() {
                    return Err(self.violation(
                        "outcome-consistency",
                        format!("node {node} hit on block {block} the checker never saw it fill"),
                    ));
                }
                if kind == AccessKind::Write && prev != Some(BState::Dirty) {
                    return Err(self.violation(
                        "outcome-consistency",
                        format!(
                            "node {node} write-hit block {block} while holding it {}",
                            state_label(prev)
                        ),
                    ));
                }
            }
            Outcome::UpgradeHit { .. } => {
                if !matches!(prev, Some(BState::Valid) | Some(BState::SharedDirty)) {
                    return Err(self.violation(
                        "outcome-consistency",
                        format!(
                            "node {node} upgraded block {block} from {}, expected V or SD",
                            state_label(prev)
                        ),
                    ));
                }
            }
            Outcome::Miss { .. } => {
                // A stale-Valid mirror entry is fine (silent clean
                // eviction), but a miss while the mirror still shows an
                // owned copy is impossible: owned victims write back.
                if prev.is_some_and(BState::is_owned) {
                    return Err(self.violation(
                        "outcome-consistency",
                        format!(
                            "node {node} missed on block {block} it still owns ({})",
                            state_label(prev)
                        ),
                    ));
                }
            }
        }
        Ok(())
    }

    /// Refreshes `block`'s mirror slots from the real caches, the checker's
    /// one read of cache state: who holds it, and the first node whose
    /// observed `(old, new)` transition the protocol forbids.
    fn refresh(
        &mut self,
        cc: &CoherenceController,
        block: u64,
    ) -> (Holders, Result<(), CheckViolation>) {
        let first = block as usize * self.p;
        let (mut holders, mut owned, mut dirty) = (NodeSet::default(), NodeSet::default(), None);
        let mut moved = Ok(());
        for (n, old) in self.mirror[first..first + self.p].iter_mut().enumerate() {
            let new = cc.cache(n).peek(block);
            if moved.is_ok() && !legal_transition(self.protocol, *old, new) {
                moved = Err(CheckViolation::new(
                    "legal-transition",
                    format!(
                        "node {n}, block {block}: {} -> {} is not a legal {:?} transition",
                        state_label(*old),
                        state_label(new),
                        self.protocol
                    ),
                    &self.ring,
                ));
            }
            *old = new;
            let Some(s) = new else { continue };
            holders.insert(n);
            if s.is_owned() {
                owned.insert(n);
            }
            if s == BState::Dirty && dirty.is_none() {
                dirty = Some(n);
            }
        }
        ((holders, owned, dirty), moved)
    }

    fn violation(&self, invariant: &'static str, message: String) -> CheckViolation {
        CheckViolation::new(invariant, message, &self.ring)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use spasm_cache::CacheConfig;

    /// Every test's blocks lie below this.
    const BLOCKS: usize = 16;

    fn tiny_config() -> CacheConfig {
        CacheConfig {
            size_bytes: 256,
            assoc: 2,
            block_bytes: 32,
        }
    }

    /// Drives accesses through the controller with the checker watching.
    fn drive(
        cc: &mut CoherenceController,
        chk: &mut CoherenceChecker,
        stream: &[(usize, u64, AccessKind)],
    ) -> Result<(), CheckViolation> {
        for (i, &(node, block, kind)) in stream.iter().enumerate() {
            let outcome = cc.access(node, block, kind);
            chk.after_access(
                cc,
                SimTime::from_ns(i as u64 * 30),
                node,
                block,
                kind,
                &outcome,
            )?;
        }
        Ok(())
    }

    #[test]
    fn healthy_berkeley_stream_is_clean() {
        let mut cc = CoherenceController::new(4, tiny_config());
        let mut chk = CoherenceChecker::new(4, BLOCKS, ProtocolKind::Berkeley);
        drive(
            &mut cc,
            &mut chk,
            &[
                (0, 10, AccessKind::Write), // cold write miss, Dirty
                (1, 10, AccessKind::Read),  // downgrade to SharedDirty
                (2, 10, AccessKind::Read),  // owner supplies
                (1, 10, AccessKind::Write), // write miss path w/ invalidations
                (3, 12, AccessKind::Read),
                (0, 10, AccessKind::Read),
                // Evictions: set count 4, blocks 0/4/8 share set 0 at node 3.
                (3, 0, AccessKind::Write),
                (3, 4, AccessKind::Read),
                (3, 8, AccessKind::Read), // evicts dirty block 0, writeback
            ],
        )
        .unwrap();
        chk.verify_all(&cc).unwrap();
    }

    #[test]
    fn healthy_write_back_on_read_stream_is_clean() {
        let mut cc =
            CoherenceController::with_protocol(3, tiny_config(), ProtocolKind::WriteBackOnRead);
        let mut chk = CoherenceChecker::new(3, BLOCKS, ProtocolKind::WriteBackOnRead);
        drive(
            &mut cc,
            &mut chk,
            &[
                (0, 10, AccessKind::Write),
                (1, 10, AccessKind::Read), // owner writes back, downgrades to Valid
                (2, 10, AccessKind::Read), // memory supplies
                (2, 10, AccessKind::Write),
            ],
        )
        .unwrap();
        chk.verify_all(&cc).unwrap();
    }

    #[test]
    fn corrupted_second_dirty_copy_is_a_single_writer_violation() {
        let mut cc = CoherenceController::new(2, tiny_config());
        let mut chk = CoherenceChecker::new(2, BLOCKS, ProtocolKind::Berkeley);
        cc.access(0, 10, AccessKind::Write);
        // Corrupt: a second cache conjures an exclusive copy.
        cc.cache_mut(1).insert(10, BState::Dirty);
        let v = chk.verify_all(&cc).unwrap_err();
        assert_eq!(v.invariant, "single-writer", "{v}");
    }

    #[test]
    fn corrupted_unowned_dirty_line_is_an_agreement_violation() {
        let mut cc = CoherenceController::new(2, tiny_config());
        let mut chk = CoherenceChecker::new(2, BLOCKS, ProtocolKind::Berkeley);
        cc.access(0, 10, AccessKind::Read); // Valid, no owner
        cc.cache_mut(0).set_state(10, BState::Dirty);
        let v = chk.verify_all(&cc).unwrap_err();
        assert_eq!(v.invariant, "directory-agreement", "{v}");
        assert!(v.message.contains("no owner"), "{v}");
    }

    #[test]
    fn corrupted_stale_sharer_is_an_agreement_violation() {
        let mut cc = CoherenceController::new(2, tiny_config());
        let mut chk = CoherenceChecker::new(2, BLOCKS, ProtocolKind::Berkeley);
        cc.access(0, 10, AccessKind::Read);
        cc.access(1, 10, AccessKind::Read);
        // Corrupt: node 1's line vanishes without directory bookkeeping.
        cc.cache_mut(1).invalidate(10);
        let v = chk.verify_all(&cc).unwrap_err();
        assert_eq!(v.invariant, "directory-agreement", "{v}");
        assert!(v.message.contains("does not hold"), "{v}");
    }

    #[test]
    fn verify_all_finds_corruption_on_untouched_blocks() {
        let mut cc = CoherenceController::new(2, tiny_config());
        let mut chk = CoherenceChecker::new(2, BLOCKS, ProtocolKind::Berkeley);
        cc.access(0, 10, AccessKind::Read);
        cc.access(0, 12, AccessKind::Read);
        cc.cache_mut(0).set_state(12, BState::SharedDirty);
        let v = chk.verify_all(&cc).unwrap_err();
        assert_eq!(v.invariant, "directory-agreement", "{v}");
        assert!(v.message.contains("block 12"), "{v}");
    }

    #[test]
    fn verify_all_finds_a_line_above_the_directory_table() {
        let mut cc = CoherenceController::new(2, tiny_config());
        let mut chk = CoherenceChecker::new(2, BLOCKS, ProtocolKind::Berkeley);
        cc.access(0, 3, AccessKind::Read);
        // Corrupt: a cache conjures a block the directory never grew to.
        cc.cache_mut(1).insert(12, BState::Valid);
        assert!(cc.directory().get(12).is_none());
        let v = chk.verify_all(&cc).unwrap_err();
        assert_eq!(v.invariant, "directory-agreement", "{v}");
        assert!(v.message.contains("node 1 caches block 12"), "{v}");
    }

    #[test]
    fn illegal_transition_valid_to_shared_dirty_is_caught() {
        let mut cc = CoherenceController::new(2, tiny_config());
        let mut chk = CoherenceChecker::new(2, BLOCKS, ProtocolKind::Berkeley);
        let o = cc.access(0, 10, AccessKind::Read);
        chk.after_access(&cc, SimTime::ZERO, 0, 10, AccessKind::Read, &o)
            .unwrap();
        // Corrupt the state, then observe the block again via a benign
        // access: the checker sees V -> SD, which Berkeley forbids.
        cc.cache_mut(0).set_state(10, BState::SharedDirty);
        cc.directory_mut().entry(10).set_owner(Some(0));
        let o = cc.access(1, 10, AccessKind::Read);
        let v = chk
            .after_access(&cc, SimTime::from_ns(30), 1, 10, AccessKind::Read, &o)
            .unwrap_err();
        assert_eq!(v.invariant, "legal-transition", "{v}");
        assert!(v.message.contains("not a legal"), "{v}");
    }

    #[test]
    fn dirty_to_valid_is_legal_only_under_write_back_on_read() {
        use BState::{Dirty, SharedDirty, Valid};
        let b = ProtocolKind::Berkeley;
        let w = ProtocolKind::WriteBackOnRead;
        assert!(!legal_transition(b, Some(Dirty), Some(Valid)));
        assert!(legal_transition(w, Some(Dirty), Some(Valid)));
        assert!(legal_transition(b, Some(Dirty), Some(SharedDirty)));
        assert!(!legal_transition(w, Some(Dirty), Some(SharedDirty)));
        for p in [b, w] {
            assert!(!legal_transition(p, None, Some(SharedDirty)));
            assert!(!legal_transition(p, Some(Valid), Some(SharedDirty)));
            assert!(legal_transition(p, Some(Valid), None));
            assert!(legal_transition(p, None, Some(Dirty)));
        }
    }

    #[test]
    fn violation_carries_the_event_ring() {
        let mut cc = CoherenceController::new(2, tiny_config());
        let mut chk = CoherenceChecker::new(2, BLOCKS, ProtocolKind::Berkeley);
        // Every outcome shape: a memory fill, an owner forward, an
        // upgrade that invalidates, and a fill that writes back an owned
        // victim (blocks 3, 7 and 11 share set 3 of node 1's 2-way cache).
        drive(
            &mut cc,
            &mut chk,
            &[
                (0, 10, AccessKind::Write),
                (1, 10, AccessKind::Read),
                (0, 10, AccessKind::Write),
                (1, 3, AccessKind::Write),
                (1, 7, AccessKind::Write),
                (1, 11, AccessKind::Write),
            ],
        )
        .unwrap();
        cc.cache_mut(1).insert(10, BState::Dirty);
        let o = cc.access(0, 10, AccessKind::Read);
        let v = chk
            .after_access(
                &cc,
                SimTime::from_ns(1_234_567),
                0,
                10,
                AccessKind::Read,
                &o,
            )
            .unwrap_err();
        assert!(!v.recent.is_empty());
        assert!(v.recent[0].contains("W10"), "{:?}", v.recent);
        assert_eq!(
            v.recent,
            [
                "t=0ns n=0 W10 -> Miss(sup=Memory, inv=[], wb=None, dwb=None)",
                "t=30ns n=1 R10 -> Miss(sup=Owner(0), inv=[], wb=None, dwb=None)",
                "t=60ns n=0 W10 -> Upgrade(inv=[1])",
                "t=90ns n=1 W3 -> Miss(sup=Memory, inv=[], wb=None, dwb=None)",
                "t=120ns n=1 W7 -> Miss(sup=Memory, inv=[], wb=None, dwb=None)",
                "t=150ns n=1 W11 -> Miss(sup=Memory, inv=[], wb=Some(3), dwb=None)",
                "t=1.235ms n=0 R10 -> Hit",
            ]
        );
    }
}
