//! Benchmark-side spans around the calls into the program's public
//! functions. Spans live in memory until the run ends; nothing is
//! recorded inside the program.

use std::collections::BTreeMap;
use std::time::Instant;

/// One recorded interval.
#[derive(Clone, Debug)]
pub struct Span {
    pub name: &'static str,
    /// Index of the enclosing span in the same tracer, if any.
    pub parent: Option<usize>,
    /// The operation (round, revocation, wave, bundle…) this call
    /// served; spans of one operation share it.
    pub op: u64,
    /// 0 for the thread that owns the run, 1 for an absorbed helper.
    pub thread: u8,
    pub start_ns: u64,
    pub end_ns: u64,
}

/// A single thread's span recorder. Off, it costs one branch per call.
pub struct Tracer {
    on: bool,
    epoch: Instant,
    spans: Vec<Span>,
    open: Vec<usize>,
}

impl Tracer {
    pub fn new(on: bool, epoch: Instant) -> Tracer {
        Tracer {
            on,
            epoch,
            spans: Vec::new(),
            open: Vec::new(),
        }
    }

    pub fn enabled(&self) -> bool {
        self.on
    }

    /// A recorder for a helper thread, on the same clock.
    pub fn sibling(&self) -> Tracer {
        Tracer::new(self.on, self.epoch)
    }

    fn now(&self) -> u64 {
        self.epoch.elapsed().as_nanos() as u64
    }

    /// Opens a span that [`Tracer::exit`] closes; spans opened in
    /// between become its children.
    pub fn enter(&mut self, name: &'static str, op: u64) {
        if !self.on {
            return;
        }
        let start_ns = self.now();
        self.open.push(self.spans.len());
        self.spans.push(Span {
            name,
            parent: self.open.iter().rev().nth(1).copied(),
            op,
            thread: 0,
            start_ns,
            end_ns: start_ns,
        });
    }

    /// Closes the innermost open span.
    pub fn exit(&mut self) {
        if !self.on {
            return;
        }
        let end_ns = self.now();
        let idx = self.open.pop().expect("exit without enter");
        self.spans[idx].end_ns = end_ns;
    }

    /// Records `f` as one span.
    pub fn call<T>(&mut self, name: &'static str, op: u64, f: impl FnOnce() -> T) -> T {
        self.enter(name, op);
        let out = f();
        self.exit();
        out
    }

    pub fn spans(&self) -> &[Span] {
        &self.spans
    }

    /// Appends a helper thread's spans (parents re-based).
    pub fn absorb(&mut self, other: Tracer) {
        let base = self.spans.len();
        self.spans.extend(other.spans.into_iter().map(|mut s| {
            s.parent = s.parent.map(|p| p + base);
            s.thread = 1;
            s
        }));
    }
}

/// Self time per span name, in seconds: each span's duration minus the
/// part its children cover.
pub fn self_times(spans: &[Span]) -> BTreeMap<&'static str, f64> {
    let mut child_ns = vec![0u64; spans.len()];
    for s in spans {
        if let Some(p) = s.parent {
            child_ns[p] += s.end_ns - s.start_ns;
        }
    }
    let mut out = BTreeMap::new();
    for (s, covered) in spans.iter().zip(child_ns) {
        let own = (s.end_ns - s.start_ns).saturating_sub(covered);
        *out.entry(s.name).or_insert(0.0) += own as f64 / 1e9;
    }
    out
}

/// Seconds the run's own thread spent inside spans that have no parent.
pub fn top_level_seconds(spans: &[Span]) -> f64 {
    spans
        .iter()
        .filter(|s| s.parent.is_none() && s.thread == 0)
        .map(|s| (s.end_ns - s.start_ns) as f64 / 1e9)
        .sum()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn self_time_subtracts_children() {
        let spans = vec![
            Span {
                name: "outer",
                parent: None,
                op: 1,
                thread: 0,
                start_ns: 0,
                end_ns: 1_000_000_000,
            },
            Span {
                name: "inner",
                parent: Some(0),
                op: 1,
                thread: 0,
                start_ns: 100_000_000,
                end_ns: 400_000_000,
            },
        ];
        let own = self_times(&spans);
        assert!((own["outer"] - 0.7).abs() < 1e-9);
        assert!((own["inner"] - 0.3).abs() < 1e-9);
        assert!((top_level_seconds(&spans) - 1.0).abs() < 1e-9);
    }

    #[test]
    fn nesting_and_off_switch() {
        let mut t = Tracer::new(true, Instant::now());
        t.enter("a", 1);
        t.call("b", 1, || ());
        t.exit();
        assert_eq!(t.spans()[1].parent, Some(0));
        assert_eq!(t.spans()[0].parent, None);
        let mut off = Tracer::new(false, Instant::now());
        off.call("b", 1, || ());
        assert!(off.spans().is_empty());
    }
}
