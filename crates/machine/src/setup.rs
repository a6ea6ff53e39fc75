//! Pre-simulation workspace construction.

use crate::{Addr, AddressMap, ValueStore};

/// Builds the simulated address space before timing starts.
///
/// Applications allocate their shared data structures and write initial
/// values here at zero simulated cost — the paper measures the parallel
/// computation, not data-set loading. Caches start cold regardless.
///
/// # Example
///
/// ```
/// use spasm_machine::SetupCtx;
///
/// let mut setup = SetupCtx::new(4);
/// let vec = setup.alloc(2, 8); // eight words homed at node 2
/// setup.init_f64(vec, 1.5);
/// assert_eq!(setup.store().read_f64(vec), 1.5);
/// ```
#[derive(Debug)]
pub struct SetupCtx {
    amap: AddressMap,
    store: ValueStore,
}

impl SetupCtx {
    /// Creates an empty address space for `p` nodes.
    pub fn new(p: usize) -> Self {
        SetupCtx {
            amap: AddressMap::new(p),
            store: ValueStore::new(),
        }
    }

    /// Allocates in the map and extends the store's dense range over the
    /// new region, so every allocated word is array-indexed.
    fn alloc_region(&mut self, home: usize, words: u64, label: Option<&'static str>) -> Addr {
        let base = self.amap.alloc_labeled(home, words, label);
        self.store.cover(self.amap.allocated_bytes());
        base
    }

    /// Allocates `words` words homed at node `home`.
    pub fn alloc(&mut self, home: usize, words: u64) -> Addr {
        self.alloc_region(home, words, None)
    }

    /// Allocates `words` words homed at `home`, attributing the region's
    /// traffic to `label` in the run report's per-structure profile.
    pub fn alloc_labeled(&mut self, home: usize, words: u64, label: &'static str) -> Addr {
        self.alloc_region(home, words, Some(label))
    }

    /// Allocates and fills a word array homed at `home`.
    pub fn alloc_init(&mut self, home: usize, values: &[u64]) -> Addr {
        let base = self.alloc(home, values.len() as u64);
        for (i, &v) in values.iter().enumerate() {
            self.store.write_word(base.offset_words(i as u64), v);
        }
        base
    }

    /// Allocates and fills an `f64` array homed at `home`.
    pub fn alloc_init_f64(&mut self, home: usize, values: &[f64]) -> Addr {
        let base = self.alloc(home, values.len() as u64);
        for (i, &v) in values.iter().enumerate() {
            self.store.write_f64(base.offset_words(i as u64), v);
        }
        base
    }

    /// Writes an initial word value.
    pub fn init(&mut self, addr: Addr, value: u64) {
        self.store.write_word(addr, value);
    }

    /// Writes an initial `f64` value.
    pub fn init_f64(&mut self, addr: Addr, value: f64) {
        self.store.write_f64(addr, value);
    }

    /// Number of nodes.
    pub fn nodes(&self) -> usize {
        self.amap.nodes()
    }

    /// Read access to the store (verification helpers, tests).
    pub fn store(&self) -> &ValueStore {
        &self.store
    }

    /// Decomposes into the map and store the engine takes over.
    pub(crate) fn into_parts(self) -> (AddressMap, ValueStore) {
        (self.amap, self.store)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn alloc_init_roundtrip() {
        let mut s = SetupCtx::new(2);
        let a = s.alloc_init(1, &[10, 20, 30]);
        assert_eq!(s.store().read_word(a.offset_words(2)), 30);
        let b = s.alloc_init_f64(0, &[0.5, -0.25]);
        assert_eq!(s.store().read_f64(b.offset_words(1)), -0.25);
        assert_eq!(s.nodes(), 2);
    }
}
