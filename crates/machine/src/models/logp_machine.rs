//! The LogP machine: no caches, L/g network abstraction.

use spasm_check::CheckViolation;
use spasm_desim::SimTime;
use spasm_topology::Topology;

use crate::{Buckets, MEM_NS};

use super::{AbstractNet, Cost, MachineConfig};

/// The paper's §3.1 machine: "a collection of processors, each with a piece
/// of the globally shared memory, connected by a network which is abstracted
/// by the L and g parameters. Due to the absence of caches, any non-local
/// memory reference would need to traverse the network as in a NUMA machine
/// like the Butterfly GP-1000."
///
/// Every operation on a remotely-homed word is a request/response round
/// trip through the abstract network; local words cost a memory access.
/// Reads, writes, and atomics all behave identically (sequential
/// consistency blocks the processor either way).
#[derive(Debug)]
pub struct LogPModel {
    net: AbstractNet,
}

impl LogPModel {
    /// Builds the machine over the *abstracted* topology (only P and the
    /// bisection-derived g survive the abstraction).
    pub fn new(topo: &Topology, config: MachineConfig) -> Self {
        LogPModel {
            net: AbstractNet::new(topo, &config),
        }
    }

    /// Prices one access to a word homed at `home` (kind-independent on
    /// this machine).
    ///
    /// # Errors
    ///
    /// The violation, when checking is on and the network breaks the LogP
    /// rules.
    pub fn access(
        &mut self,
        at: SimTime,
        proc: usize,
        home: usize,
    ) -> Result<Cost, CheckViolation> {
        let mut buckets = Buckets::default();
        let finish = if home == proc {
            buckets.mem += SimTime::from_ns(MEM_NS);
            at + SimTime::from_ns(MEM_NS)
        } else {
            self.net.round_trip(at, proc, home, &mut buckets)?
        };
        Ok(Cost { finish, buckets })
    }

    /// Mutable access to the abstract network (explicit messaging).
    pub(crate) fn net_mut(&mut self) -> &mut AbstractNet {
        &mut self.net
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn setup() -> LogPModel {
        LogPModel::new(&Topology::hypercube(4), MachineConfig::default())
    }

    #[test]
    fn local_access_costs_memory_time() {
        let mut m = setup();
        let c = m.access(SimTime::ZERO, 0, 0).unwrap();
        assert_eq!(c.finish, SimTime::from_ns(300));
        assert_eq!(c.buckets.msgs, 0);
    }

    #[test]
    fn remote_access_is_a_round_trip() {
        let mut m = setup();
        let c = m.access(SimTime::ZERO, 0, 1).unwrap();
        assert_eq!(c.buckets.msgs, 2);
        assert_eq!(c.buckets.latency, SimTime::from_ns(3200));
        assert!(c.finish >= SimTime::from_ns(3200));
    }

    #[test]
    fn repeated_remote_reads_always_pay() {
        // No cache: the same word costs the same every time — the essence
        // of what CLogP fixes.
        let mut m = setup();
        let c1 = m.access(SimTime::ZERO, 0, 1).unwrap();
        let c2 = m.access(c1.finish, 0, 1).unwrap();
        assert_eq!(c2.buckets.msgs, 2);
        assert!(c2.finish > c1.finish);
    }
}
