//! The event loop, pricing, and effects.
//!
//! Everything here runs in strict virtual-time order and mutates
//! engine-side state (model, store, stats, queue, checkers, telemetry)
//! only at event pops.

use std::time::Instant;

use spasm_cache::AccessKind;
use spasm_desim::{SimTime, Step};

use crate::ops::{MemReq, MemResp};
use crate::stats::Buckets;
use crate::{Addr, CYCLE_NS};

use super::{Engine, Ev, RunError, RunReport, Wait};

impl Engine {
    /// Runs the simulation to completion.
    ///
    /// # Errors
    ///
    /// Returns [`RunError::Panicked`] if application code panics,
    /// [`RunError::Deadlock`] if all remaining processors are blocked on
    /// waits that can never be satisfied, [`RunError::BudgetExceeded`]
    /// when a configured [`crate::RunBudget`] trips (the only way a
    /// *livelock* — e.g. a polling spin whose flag never flips —
    /// terminates), and the remaining variants for malformed requests.
    pub fn run(&mut self) -> Result<RunReport, RunError> {
        let wall_start = Instant::now();
        let p = self.stats.len();
        for proc in 0..p {
            self.resume(proc, MemResp::Start)?;
        }
        while let Some((t, ev)) = self.events.pop() {
            debug_assert!(t >= self.now, "time went backwards");
            self.now = t;
            if let Some(mut tele) = self.telemetry.take() {
                if tele.boundary_crossed(t) {
                    let snapshot = self.telemetry_snapshot();
                    tele.advance(t, self.events.len() as u64, snapshot);
                }
                tele.count_event();
                self.telemetry = Some(tele);
            }
            if self
                .budget
                .max_events
                .is_some_and(|max| self.events.popped() > max)
            {
                return Err(RunError::BudgetExceeded {
                    at: self.now,
                    events: self.events.popped(),
                });
            }
            if let Some(chk) = &mut self.checker {
                chk.on_event(t, ev)?;
                if let Ev::Deliver { dst, tag, .. } = ev {
                    chk.on_deliver(dst, tag, t)?;
                }
            }
            match ev {
                Ev::Dispatch(proc, req) => self.dispatch(proc as usize, req)?,
                Ev::Commit(proc, req) => self.commit(proc as usize, req)?,
                Ev::Deliver { dst, tag, value } => self.deliver(dst, tag, value),
            }
        }
        if self.live > 0 {
            let mut waiting: Vec<usize> = self.blocked.iter().map(|&(p, _)| p).collect();
            waiting.sort_unstable();
            return Err(RunError::Deadlock {
                at: self.now,
                waiting,
            });
        }
        if let Some(chk) = &mut self.checker {
            let duplicates = self.injector.as_ref().map_or(0, |i| i.counters.duplicated);
            chk.on_run_end(duplicates, self.events.popped(), self.events.pushed())?;
            self.model.final_check()?;
        }
        let telemetry = match self.telemetry.take() {
            Some(mut tele) => {
                // Close the final partial bucket; the queue is drained.
                let snapshot = self.telemetry_snapshot();
                tele.flush(0, snapshot);
                tele.into_records()
            }
            None => Vec::new(),
        };
        let mut totals = Buckets::default();
        let mut exec_time = SimTime::ZERO;
        for s in &self.stats {
            totals.add(&s.buckets);
            exec_time = exec_time.max(s.finish);
        }
        // The buckets are the one traffic ledger; the summary reads it.
        let mut summary = self.model.summary(p);
        summary.net_messages = totals.msgs;
        summary.net_bytes = totals.bytes;
        let mut region_traffic: Vec<(&'static str, Buckets)> = self
            .amap
            .labels()
            .iter()
            .zip(&self.region_traffic)
            .filter_map(|(&label, &touched)| Some((label, touched?)))
            .collect();
        region_traffic.sort_by_key(|&(label, _)| label);
        Ok(RunReport {
            kind: self.model.kind(),
            exec_time,
            // The pool is finished, so this engine cannot run again and
            // the report may take the stats and the store with it.
            per_proc: std::mem::take(&mut self.stats),
            totals,
            events: self.events.pushed(),
            summary,
            region_traffic,
            final_store: std::mem::take(&mut self.store),
            faults: self
                .injector
                .as_ref()
                .map(|i| i.counters)
                .unwrap_or_default(),
            telemetry,
            wall: wall_start.elapsed(),
        })
    }

    fn dispatch(&mut self, proc: usize, req: MemReq) -> Result<(), RunError> {
        self.stats[proc].ops += 1;
        let now = self.now;
        let finish = match req {
            MemReq::Compute { cycles } => {
                let dur = SimTime::from_ns(cycles * CYCLE_NS);
                self.stats[proc].buckets.busy += dur;
                now + dur
            }
            MemReq::Read { addr } | MemReq::WaitUntil { addr, .. } => {
                self.priced_access(proc, addr, AccessKind::Read)?
            }
            MemReq::Write { addr, .. } | MemReq::Rmw { addr, .. } => {
                self.priced_access(proc, addr, AccessKind::Write)?
            }
            MemReq::Send {
                dst,
                bytes,
                tag,
                value,
            } => {
                if !(1..=32).contains(&bytes) {
                    return Err(RunError::BadRequest {
                        proc,
                        message: format!("message size {bytes} outside 1..=32 bytes"),
                    });
                }
                if dst >= self.stats.len() {
                    return Err(RunError::BadRequest {
                        proc,
                        message: format!("destination {dst} out of range"),
                    });
                }
                let cost = self.model.msg_send(now, proc, dst, bytes)?;
                self.stats[proc].buckets.add(&cost.buckets);
                let mut delivered = cost.delivered;
                let mut copies = 1u64;
                if let Some(inj) = &mut self.injector {
                    if let Some(delay) = inj.message_delay() {
                        delivered += delay;
                    }
                    if inj.duplicate() {
                        // The copy trails the original on the same tag;
                        // FIFO mailboxes keep the order deterministic.
                        copies = 2;
                    }
                }
                if let Some(chk) = &mut self.checker {
                    chk.on_send(dst, tag, cost.delivered, delivered, copies)?;
                }
                self.events
                    .push(cost.sender_free, Ev::Commit(proc as u32, req));
                for _ in 0..copies {
                    self.events.push(delivered, Ev::Deliver { dst, tag, value });
                }
                return Ok(());
            }
            MemReq::Recv { tag } => {
                if self.mailboxes[proc].iter().any(|&(t, _)| t == tag) {
                    // Message already arrived: charge the receive handoff.
                    // Only this processor consumes the mailbox, so the
                    // commit takes the message seen here.
                    now + SimTime::from_ns(CYCLE_NS)
                } else {
                    if self
                        .blocked
                        .iter()
                        .any(|&(p, wait)| p == proc && matches!(wait, Wait::Tag(_)))
                    {
                        return Err(RunError::BadRequest {
                            proc,
                            message: format!("processor {proc} already blocked in recv"),
                        });
                    }
                    self.blocked.push((proc, Wait::Tag(tag)));
                    if self.wait_start[proc].is_none() {
                        self.wait_start[proc] = Some(now);
                    }
                    return Ok(());
                }
            }
        };
        self.events.push(finish, Ev::Commit(proc as u32, req));
        Ok(())
    }

    fn priced_access(
        &mut self,
        proc: usize,
        addr: Addr,
        kind: AccessKind,
    ) -> Result<SimTime, RunError> {
        if !addr.is_word_aligned() {
            return Err(RunError::BadRequest {
                proc,
                message: format!("unaligned access at {addr}"),
            });
        }
        // The one lookup of this request's address: it refuses an
        // unallocated address on every machine, the PRAM's included, and
        // places an allocated one for both pricing and attribution.
        let region = self.amap.region(addr)?;
        let mut cost =
            self.model
                .access(self.now, proc, addr.block(), region.home, &self.amap, kind)?;
        let model_finish = cost.finish;
        // An injected delay on a network-touching transaction models a
        // slow link, charged to contention — time spent waiting on the
        // network, not using it.
        if cost.buckets.msgs > 0 {
            if let Some(delay) = self.injector.as_mut().and_then(|inj| inj.message_delay()) {
                cost.finish += delay;
                cost.buckets.contention += delay;
            }
        }
        if let Some(chk) = &mut self.checker {
            chk.on_access(proc, model_finish, cost.finish)?;
        }
        self.stats[proc].buckets.add(&cost.buckets);
        if let Some(label) = region.label {
            self.region_traffic[label]
                .get_or_insert_with(Buckets::default)
                .add(&cost.buckets);
        }
        Ok(cost.finish)
    }

    fn commit(&mut self, proc: usize, req: MemReq) -> Result<(), RunError> {
        match req {
            MemReq::Compute { .. } | MemReq::Send { .. } => self.resume(proc, MemResp::Ack),
            MemReq::Read { addr } => {
                let v = self.store.read_word(addr);
                self.resume(proc, MemResp::Value(v))
            }
            MemReq::Write { addr, value } => {
                self.store.write_word(addr, value);
                self.wake_spinners(addr);
                self.resume(proc, MemResp::Ack)
            }
            MemReq::Rmw { addr, op } => {
                let old = self.store.read_word(addr);
                self.store.write_word(addr, op.apply(old));
                self.wake_spinners(addr);
                self.resume(proc, MemResp::Value(old))
            }
            MemReq::Recv { tag } => {
                let mailbox = &mut self.mailboxes[proc];
                let value = mailbox
                    .iter()
                    .position(|&(t, _)| t == tag)
                    .and_then(|i| mailbox.remove(i))
                    .map(|(_, value)| value)
                    .expect("a committed receive finds the message its dispatch saw");
                if let Some(start) = self.wait_start[proc].take() {
                    self.stats[proc].buckets.sync += self.now - start;
                }
                self.resume(proc, MemResp::Value(value))
            }
            MemReq::WaitUntil { addr, pred } => {
                let v = self.store.read_word(addr);
                if pred.eval(v) {
                    if let Some(start) = self.wait_start[proc].take() {
                        self.stats[proc].buckets.sync += self.now - start;
                    }
                    self.resume(proc, MemResp::Value(v))
                } else {
                    if self.wait_start[proc].is_none() {
                        self.wait_start[proc] = Some(self.now);
                    }
                    if self.model.is_polling() {
                        // Cache-less machine: each poll really re-reads
                        // over the network. Re-dispatch immediately; the
                        // read itself advances time, so this terminates.
                        self.events.push(self.now, Ev::Dispatch(proc as u32, req));
                    } else {
                        // Spin in-cache: idle until the word is written.
                        self.blocked.push((proc, Wait::Word(addr, pred)));
                    }
                    Ok(())
                }
            }
        }
    }

    fn wake_spinners(&mut self, addr: Addr) {
        // Most writes find nobody blocked (on a polling machine, every one).
        if self.blocked.is_empty() {
            return;
        }
        let now = self.now;
        let events = &mut self.events;
        self.blocked.retain(|&(proc, wait)| match wait {
            Wait::Word(word, pred) if word == addr => {
                // Each waiter re-reads the (just-invalidated) word and
                // re-checks — the paper's "first and last accesses use the
                // network" spin behaviour.
                events.push(
                    now,
                    Ev::Dispatch(proc as u32, MemReq::WaitUntil { addr, pred }),
                );
                false
            }
            _ => true,
        });
    }

    fn deliver(&mut self, dst: usize, tag: u64, value: u64) {
        self.mailboxes[dst].push_back((tag, value));
        if let Some(i) = self
            .blocked
            .iter()
            .position(|&(p, wait)| p == dst && matches!(wait, Wait::Tag(t) if t == tag))
        {
            self.blocked.remove(i);
            // Re-dispatch the receive; it will find the message.
            self.events
                .push(self.now, Ev::Dispatch(dst as u32, MemReq::Recv { tag }));
        }
    }

    /// Delivers `resp` to the processor and consumes its next step:
    /// dispatches the next request, retires a finished processor, or
    /// surfaces a panic.
    fn resume(&mut self, proc: usize, resp: MemResp) -> Result<(), RunError> {
        match self.pool.resume(proc, resp) {
            Step::Request(req) => {
                // Injected stall window: the node pauses (an OS interrupt,
                // a slow board) before its next operation dispatches. The
                // wait is charged as synchronization-like idle time.
                let mut at = self.now;
                if let Some(inj) = &mut self.injector {
                    if let Some(stall) = inj.stall() {
                        self.stats[proc].buckets.sync += stall;
                        at += stall;
                    }
                }
                if let Some(chk) = &mut self.checker {
                    chk.on_dispatch(proc, self.now, at)?;
                }
                self.events.push(at, Ev::Dispatch(proc as u32, req));
                Ok(())
            }
            Step::Done => {
                self.stats[proc].finish = self.now;
                self.live -= 1;
                Ok(())
            }
            Step::Panicked(message) => Err(RunError::Panicked { proc, message }),
        }
    }
}
