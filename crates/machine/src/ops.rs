//! The request/response protocol between application code and the engine,
//! plus the typed convenience wrapper application kernels actually use.

use spasm_desim::CoroCtx;

use crate::Addr;

/// An atomic read-modify-write operation (coherence-wise, a write).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum RmwOp {
    /// Sets the word to 1; returns the old value. The building block of
    /// test-and-set locks.
    TestAndSet,
    /// Adds the operand; returns the old value.
    FetchAdd(u64),
    /// Stores the operand; returns the old value.
    Swap(u64),
}

impl RmwOp {
    /// The value stored after applying this operation to `old`.
    #[inline]
    pub fn apply(self, old: u64) -> u64 {
        match self {
            RmwOp::TestAndSet => 1,
            RmwOp::FetchAdd(n) => old.wrapping_add(n),
            RmwOp::Swap(n) => n,
        }
    }
}

/// A predicate over a word's value, for [`MemReq::WaitUntil`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Pred {
    /// Value equals the operand.
    Eq(u64),
    /// Value differs from the operand.
    Ne(u64),
    /// Value is `>=` the operand.
    Ge(u64),
}

impl Pred {
    /// Evaluates the predicate.
    #[inline]
    pub fn eval(self, value: u64) -> bool {
        match self {
            Pred::Eq(x) => value == x,
            Pred::Ne(x) => value != x,
            Pred::Ge(x) => value >= x,
        }
    }
}

/// A simulated operation issued by application code.
///
/// Everything an application does that costs simulated time goes through
/// one of these; pure Rust computation between requests is free (its cost
/// is accounted explicitly with [`MemReq::Compute`], mirroring how SPASM
/// executes non-shared instructions natively and charges cycle counts).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum MemReq {
    /// Local computation of the given number of CPU cycles.
    Compute {
        /// Cycles at 30 ns each.
        cycles: u64,
    },
    /// Shared-memory load; responds with the value.
    Read {
        /// Word-aligned address.
        addr: Addr,
    },
    /// Shared-memory store; responds with an ack.
    Write {
        /// Word-aligned address.
        addr: Addr,
        /// Value to store.
        value: u64,
    },
    /// Atomic read-modify-write; responds with the *old* value.
    Rmw {
        /// Word-aligned address.
        addr: Addr,
        /// The operation.
        op: RmwOp,
    },
    /// Spin on `addr` until `pred` holds; responds with the satisfying
    /// value. On cached machines the spin idles in-cache between changes;
    /// on the LogP machine every poll is a network round trip.
    WaitUntil {
        /// Word-aligned address.
        addr: Addr,
        /// Release condition.
        pred: Pred,
    },
    /// Explicit message send (the message-passing platform SPASM also
    /// supports). The sender blocks until the message is injected; the
    /// payload becomes receivable at `dst` once it arrives.
    Send {
        /// Destination processor.
        dst: usize,
        /// Message size in bytes (1..=32; the paper's maximum).
        bytes: u64,
        /// Matching tag.
        tag: u64,
        /// One word of payload.
        value: u64,
    },
    /// Blocking receive of the oldest arrived message with `tag`;
    /// responds with its payload.
    Recv {
        /// Matching tag.
        tag: u64,
    },
}

/// The engine's response to a [`MemReq`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum MemResp {
    /// Initial resume delivered when a processor starts.
    Start,
    /// The value produced by a read, RMW (old value), or satisfied wait.
    Value(u64),
    /// Completion of a compute or write.
    Ack,
}

impl MemResp {
    #[inline]
    fn value(self) -> u64 {
        match self {
            MemResp::Value(v) => v,
            other => panic!("expected value response, got {other:?}"),
        }
    }
}

/// Typed convenience wrapper around the raw coroutine channel.
///
/// Application kernels receive a `&CoroCtx` and wrap it in a `MemCtx` to
/// get ergonomic `read`/`write`/`compute`/... methods. The wrapper is free:
/// it owns nothing and adds no simulation semantics.
#[derive(Debug, Clone, Copy)]
pub struct MemCtx<'a> {
    ctx: &'a CoroCtx<MemReq, MemResp>,
}

impl<'a> MemCtx<'a> {
    /// Wraps a coroutine context.
    pub fn new(ctx: &'a CoroCtx<MemReq, MemResp>) -> Self {
        MemCtx { ctx }
    }

    /// This processor's id.
    #[inline]
    pub fn id(&self) -> usize {
        self.ctx.id()
    }

    /// Charges `cycles` cycles of local computation. Posted: the body runs
    /// on at once, and the engine charges the cycles before the next
    /// operation, exactly as if the body had waited.
    #[inline]
    pub fn compute(&self, cycles: u64) {
        if cycles == 0 {
            return;
        }
        self.ctx.post(MemReq::Compute { cycles });
    }

    /// Loads the word at `addr`.
    #[inline]
    pub fn read(&self, addr: Addr) -> u64 {
        self.ctx.call(MemReq::Read { addr }).value()
    }

    /// Stores `value` at `addr`. Posted, like [`MemCtx::compute`]: the
    /// store commits, in simulated time, before the next operation starts.
    #[inline]
    pub fn write(&self, addr: Addr, value: u64) {
        self.ctx.post(MemReq::Write { addr, value });
    }

    /// Loads the word at `addr` as an `f64`.
    #[inline]
    pub fn read_f64(&self, addr: Addr) -> f64 {
        f64::from_bits(self.read(addr))
    }

    /// Loads the words at `addrs`, in order, as `f64`s into `out`, which
    /// is cleared first. The engine sees the same reads in the same order
    /// as from one [`MemCtx::read_f64`] each, but the body suspends once
    /// per 16 of them rather than once per read, so no address may depend
    /// on a value read in the same call.
    #[inline]
    pub fn read_f64_many(&self, addrs: impl IntoIterator<Item = Addr>, out: &mut Vec<f64>) {
        out.clear();
        self.ctx
            .call_many(addrs.into_iter().map(|addr| MemReq::Read { addr }), |r| {
                out.push(f64::from_bits(r.value()));
            });
    }

    /// Stores `value` at `addr` as its bit pattern.
    #[inline]
    pub fn write_f64(&self, addr: Addr, value: f64) {
        self.write(addr, value.to_bits());
    }

    /// Atomic test-and-set; returns the old value.
    #[inline]
    pub fn test_and_set(&self, addr: Addr) -> u64 {
        self.ctx
            .call(MemReq::Rmw {
                addr,
                op: RmwOp::TestAndSet,
            })
            .value()
    }

    /// Atomic fetch-and-add; returns the old value.
    #[inline]
    pub fn fetch_add(&self, addr: Addr, n: u64) -> u64 {
        self.ctx
            .call(MemReq::Rmw {
                addr,
                op: RmwOp::FetchAdd(n),
            })
            .value()
    }

    /// Atomic swap; returns the old value.
    #[inline]
    pub fn swap(&self, addr: Addr, value: u64) -> u64 {
        self.ctx
            .call(MemReq::Rmw {
                addr,
                op: RmwOp::Swap(value),
            })
            .value()
    }

    /// Spins until the word at `addr` satisfies `pred`; returns the
    /// satisfying value.
    #[inline]
    pub fn wait_until(&self, addr: Addr, pred: Pred) -> u64 {
        self.ctx.call(MemReq::WaitUntil { addr, pred }).value()
    }

    /// Sends one word of payload to `dst` in a `bytes`-byte message with
    /// the given `tag`. Posted, like [`MemCtx::compute`]: in simulated
    /// time the sender still blocks until the message is injected.
    ///
    /// # Panics
    ///
    /// The engine rejects `bytes` outside `1..=32` (the paper's message
    /// size limit) or a destination out of range.
    #[inline]
    pub fn send(&self, dst: usize, bytes: u64, tag: u64, value: u64) {
        self.ctx.post(MemReq::Send {
            dst,
            bytes,
            tag,
            value,
        });
    }

    /// Receives the oldest arrived message with `tag`, blocking until one
    /// is available. Returns its payload.
    #[inline]
    pub fn recv(&self, tag: u64) -> u64 {
        self.ctx.call(MemReq::Recv { tag }).value()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn rmw_semantics() {
        assert_eq!(RmwOp::TestAndSet.apply(0), 1);
        assert_eq!(RmwOp::TestAndSet.apply(1), 1);
        assert_eq!(RmwOp::FetchAdd(5).apply(7), 12);
        assert_eq!(RmwOp::FetchAdd(1).apply(u64::MAX), 0); // wraps
        assert_eq!(RmwOp::Swap(9).apply(7), 9);
    }

    #[test]
    fn pred_semantics() {
        assert!(Pred::Eq(3).eval(3));
        assert!(!Pred::Eq(3).eval(4));
        assert!(Pred::Ne(3).eval(4));
        assert!(!Pred::Ne(3).eval(3));
        assert!(Pred::Ge(3).eval(3));
        assert!(Pred::Ge(3).eval(7));
        assert!(!Pred::Ge(3).eval(2));
    }

    #[test]
    #[should_panic(expected = "expected value response")]
    fn value_extraction_guards() {
        MemResp::Ack.value();
    }
}
