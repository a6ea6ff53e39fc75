//! CSIM-style FCFS single-server facility with wait accounting.

use crate::SimTime;

/// A first-come-first-served single-server resource.
///
/// Requests are granted in arrival order; each request holds the facility
/// for a caller-supplied service duration. The facility tracks, per request,
/// how long it had to wait behind earlier requests — the raw material for
/// the "contention" style overheads the SPASM framework separates out.
///
/// This models things like a memory module or a directory controller that
/// serializes transactions.
///
/// # Example
///
/// ```
/// use spasm_desim::{Facility, SimTime};
///
/// let mut mem = Facility::new();
/// // Two back-to-back requests at t=0, each needing 300ns of service.
/// let g0 = mem.reserve(SimTime::ZERO, SimTime::from_ns(300));
/// let g1 = mem.reserve(SimTime::ZERO, SimTime::from_ns(300));
/// assert_eq!(g0.start, SimTime::ZERO);
/// assert_eq!(g1.start, SimTime::from_ns(300));
/// assert_eq!(g1.waited, SimTime::from_ns(300));
/// ```
#[derive(Debug, Clone, Default)]
pub struct Facility {
    free_at: SimTime,
}

/// A granted reservation on a [`Facility`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Grant {
    /// When service begins (≥ the request time).
    pub start: SimTime,
    /// When service completes and the facility becomes free again.
    pub end: SimTime,
    /// Time spent queued behind earlier requests (`start - request`).
    pub waited: SimTime,
}

impl Facility {
    /// Creates an idle facility, free from time zero.
    pub fn new() -> Self {
        Facility::default()
    }

    /// Reserves the facility at or after `at` for `service` time, FCFS.
    ///
    /// Returns the grant describing when service starts/ends and how long
    /// the request waited. Reservations must be made in simulation-event
    /// order; the facility serializes overlapping requests.
    pub fn reserve(&mut self, at: SimTime, service: SimTime) -> Grant {
        let start = at.max(self.free_at);
        let end = start + service;
        self.free_at = end;
        Grant {
            start,
            end,
            waited: start - at,
        }
    }

    /// The earliest time a new request could begin service.
    pub fn free_at(&self) -> SimTime {
        self.free_at
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn idle_facility_grants_immediately() {
        let mut f = Facility::new();
        let g = f.reserve(SimTime::from_ns(50), SimTime::from_ns(10));
        assert_eq!(g.start, SimTime::from_ns(50));
        assert_eq!(g.end, SimTime::from_ns(60));
        assert_eq!(g.waited, SimTime::ZERO);
    }

    #[test]
    fn overlapping_requests_serialize_fcfs() {
        let mut f = Facility::new();
        let g0 = f.reserve(SimTime::from_ns(0), SimTime::from_ns(100));
        let g1 = f.reserve(SimTime::from_ns(40), SimTime::from_ns(100));
        let g2 = f.reserve(SimTime::from_ns(40), SimTime::from_ns(100));
        assert_eq!(g0.end, SimTime::from_ns(100));
        assert_eq!(g1.start, SimTime::from_ns(100));
        assert_eq!(g1.waited, SimTime::from_ns(60));
        assert_eq!(g2.start, SimTime::from_ns(200));
        assert_eq!(g2.waited, SimTime::from_ns(160));
    }

    #[test]
    fn gap_between_requests_leaves_facility_idle() {
        let mut f = Facility::new();
        f.reserve(SimTime::ZERO, SimTime::from_ns(10));
        let g = f.reserve(SimTime::from_ns(100), SimTime::from_ns(10));
        assert_eq!(g.start, SimTime::from_ns(100));
        assert_eq!(g.waited, SimTime::ZERO);
    }

    #[test]
    fn zero_service_time_is_allowed() {
        let mut f = Facility::new();
        let g = f.reserve(SimTime::from_ns(5), SimTime::ZERO);
        assert_eq!(g.start, g.end);
        assert_eq!(f.free_at(), SimTime::from_ns(5));
    }
}
