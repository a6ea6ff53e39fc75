//! In-memory span recorder for the traced pass.
//!
//! Spans are recorded from the benchmark's own files, around the calls
//! into each layer; nothing inside the simulator is instrumented. A
//! *replay* span times a layer's public entry point fed with a point's
//! exact operation counts — an estimate of that layer's share, never
//! self time of the real run, so replay spans are excluded from their
//! parent's self-time arithmetic.

use std::fmt::Write as _;
use std::time::Instant;

#[derive(Debug, Clone)]
pub struct Span {
    pub id: u32,
    /// 0 for a root span.
    pub parent: u32,
    pub name: String,
    pub start_ns: u64,
    pub end_ns: u64,
    /// For replay spans: operations pushed through the layer and the
    /// exact count of the real run they stand for. `(0, 0)` otherwise.
    pub replayed: u64,
    pub exact: u64,
}

impl Span {
    pub fn dur_ns(&self) -> u64 {
        self.end_ns - self.start_ns
    }

    pub fn is_replay(&self) -> bool {
        self.replayed > 0
    }

    /// A replay span's duration scaled from the operations replayed to
    /// the exact count of the real run.
    pub fn estimated_ns(&self) -> f64 {
        if self.replayed == 0 {
            return 0.0;
        }
        self.dur_ns() as f64 * self.exact as f64 / self.replayed as f64
    }
}

#[derive(Debug)]
pub struct Recorder {
    epoch: Instant,
    spans: Vec<Span>,
}

impl Recorder {
    pub fn new() -> Recorder {
        Recorder {
            epoch: Instant::now(),
            spans: Vec::new(),
        }
    }

    fn now_ns(&self) -> u64 {
        self.epoch.elapsed().as_nanos() as u64
    }

    /// Opens a span; the returned id closes it and parents children.
    pub fn open(&mut self, parent: u32, name: &str) -> u32 {
        let id = self.spans.len() as u32 + 1;
        let start_ns = self.now_ns();
        self.spans.push(Span {
            id,
            parent,
            name: name.to_string(),
            start_ns,
            end_ns: start_ns,
            replayed: 0,
            exact: 0,
        });
        id
    }

    pub fn close(&mut self, id: u32) {
        let end = self.now_ns();
        self.spans[id as usize - 1].end_ns = end;
    }

    /// Times `f` as a child span of `parent`.
    pub fn span<T>(&mut self, parent: u32, name: &str, f: impl FnOnce() -> T) -> T {
        let id = self.open(parent, name);
        let out = f();
        self.close(id);
        out
    }

    /// Times `f` as a layer-replay span: `f` pushes `replayed` operations
    /// through the layer, standing for `exact` operations of the real run.
    pub fn replay<T>(
        &mut self,
        parent: u32,
        name: &str,
        replayed: u64,
        exact: u64,
        f: impl FnOnce() -> T,
    ) -> T {
        let id = self.open(parent, name);
        let out = f();
        self.close(id);
        let s = &mut self.spans[id as usize - 1];
        s.replayed = replayed;
        s.exact = exact;
        out
    }

    pub fn spans(&self) -> &[Span] {
        &self.spans
    }

    /// Sum of the estimated times of every replay span called `name`.
    pub fn estimated_total_ns(&self, name: &str) -> f64 {
        self.spans
            .iter()
            .filter(|s| s.name == name)
            .map(Span::estimated_ns)
            .fold(0.0, |a, b| a + b) // an empty f64 `sum()` is -0.0
    }

    /// Sum of the durations of every span called `name`.
    pub fn total_ns(&self, name: &str) -> u64 {
        self.spans
            .iter()
            .filter(|s| s.name == name)
            .map(Span::dur_ns)
            .sum()
    }

    /// One JSON object per span, in open order.
    pub fn to_jsonl(&self) -> String {
        let selfs = self_times(&self.spans);
        let mut out = String::new();
        for (s, self_ns) in self.spans.iter().zip(selfs) {
            let _ = write!(
                out,
                "{{\"id\":{},\"parent\":{},\"name\":\"{}\",\"start_ns\":{},\"end_ns\":{},\"self_ns\":{}",
                s.id, s.parent, s.name, s.start_ns, s.end_ns, self_ns
            );
            if s.is_replay() {
                let _ = write!(
                    out,
                    ",\"replayed\":{},\"exact\":{},\"estimated_ns\":{:.0}",
                    s.replayed,
                    s.exact,
                    s.estimated_ns()
                );
            }
            out.push_str("}\n");
        }
        out
    }
}

/// Self time per span: its duration minus the part its non-replay child
/// spans cover. Children of one parent never overlap here (the recorder
/// is single-threaded), so covered time is the plain sum, clamped so a
/// clock hiccup cannot produce a negative self time.
pub fn self_times(spans: &[Span]) -> Vec<u64> {
    let mut covered = vec![0u64; spans.len()];
    for s in spans {
        if s.parent != 0 && !s.is_replay() {
            covered[s.parent as usize - 1] += s.dur_ns();
        }
    }
    spans
        .iter()
        .zip(covered)
        .map(|(s, c)| s.dur_ns().saturating_sub(c))
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    fn span(id: u32, parent: u32, start_ns: u64, end_ns: u64, replayed: u64, exact: u64) -> Span {
        Span {
            id,
            parent,
            name: format!("s{id}"),
            start_ns,
            end_ns,
            replayed,
            exact,
        }
    }

    #[test]
    fn self_time_subtracts_real_children_only() {
        let spans = vec![
            span(1, 0, 0, 100, 0, 0),    // workload
            span(2, 1, 10, 60, 0, 0),    // point
            span(3, 2, 10, 20, 0, 0),    // build
            span(4, 2, 20, 55, 0, 0),    // run
            span(5, 2, 60, 90, 50, 500), // replay: outside the point's wall
            span(6, 1, 90, 95, 0, 0),    // second child of the workload
        ];
        assert_eq!(self_times(&spans), vec![45, 5, 10, 35, 30, 5]);
        assert_eq!(spans[4].estimated_ns(), 300.0);
        assert_eq!(spans[1].estimated_ns(), 0.0);
    }

    #[test]
    fn self_time_never_goes_negative() {
        let spans = vec![span(1, 0, 0, 10, 0, 0), span(2, 1, 0, 15, 0, 0)];
        assert_eq!(self_times(&spans), vec![0, 15]);
    }

    #[test]
    fn recorder_nests_and_renders() {
        let mut r = Recorder::new();
        let root = r.open(0, "workload");
        let v = r.span(root, "point", || 7);
        r.replay(root, "desim.rendezvous", 10, 100, || ());
        r.close(root);
        assert_eq!(v, 7);
        let spans = r.spans();
        assert_eq!(spans.len(), 3);
        assert!(spans[0].end_ns >= spans[2].end_ns);
        assert_eq!(spans[1].parent, root);
        assert_eq!(
            r.estimated_total_ns("desim.rendezvous"),
            spans[2].estimated_ns()
        );
        let text = r.to_jsonl();
        assert_eq!(text.lines().count(), 3);
        assert!(text.lines().nth(2).unwrap().contains("\"exact\":100"));
    }
}
