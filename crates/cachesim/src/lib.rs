//! # spasm-cache — caches, Berkeley coherence, fully-mapped directory
//!
//! The locality substrate of the reproduction. The paper's target machine
//! (§5) gives each node a private **64 KB, 2-way set-associative cache with
//! 32-byte blocks**, kept sequentially consistent by an invalidation-based
//! **Berkeley protocol** with a **fully-mapped directory**. The CLogP
//! machine reuses the *same* coherence state machine but charges nothing
//! for coherence actions — an "ideal coherent cache" that captures the
//! application's inherent data locality (§3.2).
//!
//! This crate therefore provides:
//!
//! * [`Cache`] — a set-associative cache array with LRU replacement and
//!   Berkeley line states;
//! * [`Directory`] — the fully-mapped directory, one entry (presence set +
//!   owner) per block in a table indexed by block id, the presence set a
//!   `Copy` [`NodeSet`];
//! * [`CoherenceController`] — the pure protocol state machine. An access
//!   mutates cache/directory state and returns an [`Outcome`] describing
//!   *what happened* (hit, upgrade, miss with supplier / invalidations /
//!   writeback). The machine models translate outcomes into time and
//!   messages: the target prices every action; CLogP prices only true data
//!   transfers. Keeping the state machine shared guarantees both machines
//!   see *identical* miss/traffic structure, which is exactly the
//!   comparison the paper makes.
//!
//! # Example
//!
//! ```
//! use spasm_cache::{AccessKind, CacheConfig, CoherenceController, Outcome, Supplier};
//!
//! let mut cc = CoherenceController::new(2, CacheConfig::paper());
//! // Node 0 reads block 5 (homed wherever the machine says; the controller
//! // only needs to know the requester): cold miss, memory supplies.
//! match cc.access(0, 5, AccessKind::Read) {
//!     Outcome::Miss { supplier: Supplier::Memory, .. } => {}
//!     other => panic!("{other:?}"),
//! }
//! // Second read hits.
//! assert!(matches!(cc.access(0, 5, AccessKind::Read), Outcome::Hit));
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod cache;
mod controller;
mod directory;

pub use cache::{Cache, CacheConfig, CacheStats, Evicted};
pub use controller::{AccessKind, CoherenceController, Outcome, ProtocolKind, Supplier, Writeback};
pub use directory::{DirEntry, Directory, NodeSet};

/// Berkeley-protocol cache line states.
///
/// Absence from the cache is the Invalid state. `Valid` is an unowned,
/// possibly-shared clean copy; `SharedDirty` is an owned copy that other
/// caches may also hold (memory is stale — the owner supplies data);
/// `Dirty` is an exclusive owned copy.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum BState {
    /// Unowned readable copy (may be shared; memory may also be stale if
    /// another cache owns the block).
    Valid,
    /// Owned but possibly shared: this cache must supply the block and
    /// write it back on eviction.
    SharedDirty,
    /// Owned exclusively: writable without any network transaction.
    Dirty,
}

impl BState {
    /// Whether this state carries ownership (write-back responsibility).
    #[inline]
    pub fn is_owned(self) -> bool {
        matches!(self, BState::SharedDirty | BState::Dirty)
    }
}
