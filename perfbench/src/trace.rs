//! Spans recorded by the benchmark around each public call it makes.
//!
//! A span has a name, the crate it enters (its layer), a start, an end, a
//! parent and the operation it belongs to. Spans stay in memory and are
//! written out when the run ends. When a layer itemises a call itself
//! (`StartupBreakdown`, `StepTimings`), those durations become *derived*
//! child spans, laid out back to back from the parent's start: their
//! lengths are measured, their positions inside the parent are not.
//!
//! A disabled tracer records nothing; `begin` returns `None` and `end`
//! ignores it, so untraced operations pay one branch per call site.

use std::collections::BTreeMap;
use std::io::Write;
use std::time::{Duration, Instant};

/// Index of a span in its tracer.
pub type SpanId = Option<usize>;

/// One recorded span.
#[derive(Debug, Clone)]
pub struct Span {
    /// The public call (or phase) the span covers.
    pub name: &'static str,
    /// The crate the call enters; `bench` for the benchmark's own code.
    pub layer: &'static str,
    /// Nanoseconds since the run's epoch.
    pub start_ns: u64,
    /// Nanoseconds since the run's epoch.
    pub end_ns: u64,
    /// The enclosing span.
    pub parent: Option<usize>,
    /// The operation the span belongs to.
    pub op: u64,
    /// Length reported by the layer, position laid out by the tracer.
    pub derived: bool,
}

impl Span {
    /// The span's length in nanoseconds.
    #[must_use]
    pub fn duration_ns(&self) -> u64 {
        self.end_ns.saturating_sub(self.start_ns)
    }
}

/// An in-memory span recorder for one thread.
#[derive(Debug)]
pub struct Tracer {
    on: bool,
    epoch: Instant,
    spans: Vec<Span>,
    stack: Vec<usize>,
    op: u64,
}

impl Tracer {
    /// A tracer timing from `epoch`; records only while enabled.
    #[must_use]
    pub fn new(epoch: Instant) -> Self {
        Tracer {
            on: false,
            epoch,
            spans: Vec::new(),
            stack: Vec::new(),
            op: 0,
        }
    }

    /// Turns recording on or off (between operations).
    pub fn set_enabled(&mut self, on: bool) {
        self.on = on;
    }

    /// Sets the operation id new spans carry.
    pub fn set_op(&mut self, op: u64) {
        self.op = op;
    }

    fn now_ns(&self) -> u64 {
        u64::try_from(self.epoch.elapsed().as_nanos()).unwrap_or(u64::MAX)
    }

    /// Opens a span inside the innermost open one.
    pub fn begin(&mut self, layer: &'static str, name: &'static str) -> SpanId {
        if !self.on {
            return None;
        }
        let id = self.spans.len();
        self.spans.push(Span {
            name,
            layer,
            start_ns: self.now_ns(),
            end_ns: 0,
            parent: self.stack.last().copied(),
            op: self.op,
            derived: false,
        });
        self.stack.push(id);
        Some(id)
    }

    /// Closes a span opened by [`Tracer::begin`] (and any left open
    /// inside it).
    pub fn end(&mut self, id: SpanId) {
        let Some(id) = id else { return };
        let now = self.now_ns();
        while let Some(top) = self.stack.pop() {
            self.spans[top].end_ns = now;
            if top == id {
                break;
            }
        }
    }

    /// Records `phases` as derived children of the closed span `parent`,
    /// back to back from its start and clipped to its end.
    pub fn phases(&mut self, parent: SpanId, phases: &[(&'static str, &'static str, Duration)]) {
        let Some(p) = parent else { return };
        let (mut at, end, op) = {
            let s = &self.spans[p];
            (s.start_ns, s.end_ns, s.op)
        };
        for &(layer, name, d) in phases {
            let len = u64::try_from(d.as_nanos()).unwrap_or(u64::MAX);
            let stop = at.saturating_add(len).min(end);
            self.spans.push(Span {
                name,
                layer,
                start_ns: at,
                end_ns: stop,
                parent: Some(p),
                op,
                derived: true,
            });
            at = stop;
        }
    }

    /// Moves another thread's spans into this tracer.
    pub fn absorb(&mut self, other: Tracer) {
        let base = self.spans.len();
        self.spans.extend(other.spans.into_iter().map(|mut s| {
            s.parent = s.parent.map(|p| p + base);
            s
        }));
    }

    /// The recorded spans.
    #[must_use]
    pub fn spans(&self) -> &[Span] {
        &self.spans
    }

    /// Writes the spans as JSON lines.
    ///
    /// # Errors
    ///
    /// Any I/O error.
    pub fn write_jsonl(&self, path: &std::path::Path) -> std::io::Result<()> {
        let mut out = std::io::BufWriter::new(std::fs::File::create(path)?);
        for (i, s) in self.spans.iter().enumerate() {
            writeln!(
                out,
                "{{\"id\": {i}, \"op\": {}, \"layer\": \"{}\", \"name\": \"{}\", \"start_ns\": {}, \"end_ns\": {}, \"parent\": {}, \"derived\": {}}}",
                s.op,
                s.layer,
                s.name,
                s.start_ns,
                s.end_ns,
                s.parent.map_or_else(|| "null".to_string(), |p| p.to_string()),
                s.derived
            )?;
        }
        out.flush()
    }
}

/// Self time per layer, derived from spans.
#[derive(Debug, Clone, Default)]
pub struct SelfTimes {
    /// Per layer: span time not covered by the span's children, in ns.
    pub by_layer: BTreeMap<&'static str, u64>,
    /// Root (operation) spans.
    pub roots: usize,
    /// Total length of the root spans, in ns.
    pub root_ns: u64,
}

impl SelfTimes {
    /// Self time of `layer` per operation, in µs.
    #[must_use]
    pub fn per_op_us(&self, layer: &str) -> f64 {
        if self.roots == 0 {
            return 0.0;
        }
        self.by_layer.get(layer).copied().unwrap_or(0) as f64 / 1e3 / self.roots as f64
    }

    /// Share of root-span time that no layer span covers, in %.
    #[must_use]
    pub fn unattributed_pct(&self) -> f64 {
        if self.root_ns == 0 {
            return 0.0;
        }
        100.0 * self.by_layer.get("bench").copied().unwrap_or(0) as f64 / self.root_ns as f64
    }
}

/// Self time of every span (its length minus its children's), summed per
/// layer, over the trees whose root span is named `root` (the benchmark's
/// operations, layer `bench`).
#[must_use]
pub fn self_times(spans: &[Span], root: &str) -> SelfTimes {
    // Parents are recorded before their children, so one forward pass
    // finds every span's root.
    let mut root_of = vec![0usize; spans.len()];
    let mut child_ns = vec![0u64; spans.len()];
    for (i, s) in spans.iter().enumerate() {
        root_of[i] = s.parent.map_or(i, |p| root_of[p]);
        if let Some(p) = s.parent {
            child_ns[p] += s.duration_ns();
        }
    }
    let mut out = SelfTimes::default();
    for (i, s) in spans.iter().enumerate() {
        if spans[root_of[i]].name != root {
            continue;
        }
        let own = s.duration_ns().saturating_sub(child_ns[i]);
        *out.by_layer.entry(s.layer).or_default() += own;
        if s.parent.is_none() {
            out.roots += 1;
            out.root_ns += s.duration_ns();
        }
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn self_time_subtracts_children_and_disabled_records_nothing() {
        let mut t = Tracer::new(Instant::now());
        assert!(t.begin("bench", "off").is_none());
        t.set_enabled(true);
        let op = t.begin("bench", "op");
        let call = t.begin("watz-runtime", "load");
        std::thread::sleep(Duration::from_millis(2));
        t.end(call);
        t.phases(
            call,
            &[("watz-crypto", "hashing", Duration::from_micros(500))],
        );
        t.end(op);
        let st = self_times(t.spans(), "op");
        assert_eq!(st.roots, 1);
        assert_eq!(t.spans().len(), 3);
        let load = t.spans()[1].duration_ns();
        assert_eq!(st.by_layer["watz-crypto"], 500_000);
        assert_eq!(st.by_layer["watz-runtime"], load - 500_000);
        assert!(st.unattributed_pct() < 50.0);
    }

    #[test]
    fn absorb_rebases_parents() {
        let epoch = Instant::now();
        let mut a = Tracer::new(epoch);
        a.set_enabled(true);
        let s = a.begin("bench", "a");
        a.end(s);
        let mut b = Tracer::new(epoch);
        b.set_enabled(true);
        let op = b.begin("bench", "b");
        let c = b.begin("optee-sim", "c");
        b.end(c);
        b.end(op);
        a.absorb(b);
        assert_eq!(a.spans()[2].parent, Some(1));
    }
}
