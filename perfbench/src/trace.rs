//! The benchmark's own spans, recorded around each call it makes into a
//! layer's public API (never inside the program), and the self-time
//! attribution computed from them.
//!
//! Spans go to a telemetry handle the benchmark owns, separate from the
//! handle attached to the program under test, and are recorded with
//! explicit parents so the two never mix.

use std::collections::{BTreeMap, HashMap};
use std::time::Instant;

use photofourier::telemetry::{self, SpanEvent, Telemetry};

/// Records spans when tracing is on; every method is a branch when off.
#[derive(Clone)]
pub struct Tracer {
    tel: Telemetry,
}

impl Tracer {
    /// Span ring large enough for the longest run (about 40k spans); a
    /// run that overflows it reports the drops and fails its check.
    const CAPACITY: usize = 1 << 20;

    pub fn new(on: bool) -> Self {
        Self {
            tel: if on {
                Telemetry::with_span_capacity(Self::CAPACITY)
            } else {
                Telemetry::disabled()
            },
        }
    }

    pub fn is_on(&self) -> bool {
        self.tel.is_enabled()
    }

    /// A fresh request id (0 when off).
    pub fn request_id(&self) -> u64 {
        self.tel.next_request_id()
    }

    /// Runs `f` inside a span on the calling thread's track. `f` receives
    /// the span id, to parent its own child spans.
    pub fn span<R>(
        &self,
        name: &'static str,
        parent: u64,
        req: u64,
        f: impl FnOnce(u64) -> R,
    ) -> R {
        if !self.is_on() {
            return f(0);
        }
        let id = self.tel.alloc_span_id();
        let start = Instant::now();
        let out = f(id);
        self.tel.record_span(
            id,
            name,
            "bench",
            telemetry::thread_track(),
            start,
            Instant::now(),
            parent,
            req,
        );
        out
    }

    /// Allocates the id of a span whose interval is recorded later with
    /// [`Tracer::record`] (0 when off).
    pub fn alloc(&self) -> u64 {
        self.tel.alloc_span_id()
    }

    /// Records an interval observed elsewhere, on request `req`'s lane.
    #[allow(clippy::too_many_arguments)]
    pub fn record(
        &self,
        id: u64,
        name: &'static str,
        start: Instant,
        end: Instant,
        parent: u64,
        req: u64,
    ) {
        if id == 0 {
            return;
        }
        let track = telemetry::request_track(req);
        self.tel
            .record_span(id, name, "bench", track, start, end, parent, req);
    }

    pub fn spans(&self) -> Vec<SpanEvent> {
        self.tel.spans()
    }

    pub fn dropped(&self) -> u64 {
        self.tel.dropped_spans()
    }

    /// Writes the spans as a Chrome trace to `path` and validates the file
    /// with the program's own validator.
    pub fn write_chrome_trace(
        &self,
        path: &std::path::Path,
    ) -> Result<telemetry::TraceStats, String> {
        let json = self.tel.chrome_trace_json();
        let stats = telemetry::validate_chrome_trace(&json)?;
        if let Some(dir) = path.parent() {
            std::fs::create_dir_all(dir).map_err(|e| format!("{}: {e}", dir.display()))?;
        }
        std::fs::write(path, json).map_err(|e| format!("{}: {e}", path.display()))?;
        Ok(stats)
    }
}

/// Where the traced wall time went: self time per span name, and the
/// remainder no child span covers.
#[derive(Debug, Default)]
pub struct Attribution {
    /// Sum of root-span durations.
    pub wall_ns: u64,
    /// Root self time: wall time no named layer span covers.
    pub unattributed_ns: u64,
    /// Self time of every non-root span, by name.
    pub self_ns: BTreeMap<&'static str, u64>,
    /// Span count by name.
    pub count: BTreeMap<&'static str, u64>,
}

impl Attribution {
    /// Self time of a span = its duration minus the union of its children's
    /// intervals (clipped to it). With nested, non-overlapping children the
    /// self times of a tree add up to its root's duration exactly.
    pub fn from_spans(spans: &[SpanEvent]) -> Self {
        let ids: HashMap<u64, usize> = spans.iter().enumerate().map(|(i, s)| (s.id, i)).collect();
        let mut children: HashMap<u64, Vec<(u64, u64)>> = HashMap::new();
        for s in spans {
            if s.parent != 0 && ids.contains_key(&s.parent) {
                children
                    .entry(s.parent)
                    .or_default()
                    .push((s.start_ns, s.start_ns + s.dur_ns));
            }
        }
        let mut out = Attribution::default();
        for s in spans {
            let (start, end) = (s.start_ns, s.start_ns + s.dur_ns);
            let covered = children
                .get_mut(&s.id)
                .map_or(0, |kids| union_len(kids, start, end));
            let own = s.dur_ns - covered;
            if s.parent == 0 || !ids.contains_key(&s.parent) {
                out.wall_ns += s.dur_ns;
                out.unattributed_ns += own;
            } else {
                *out.self_ns.entry(s.name).or_default() += own;
                *out.count.entry(s.name).or_default() += 1;
            }
        }
        out
    }

    pub fn attributed_ns(&self) -> u64 {
        self.self_ns.values().sum()
    }

    /// `attributed + unattributed − wall`: 0 when the spans nest cleanly.
    pub fn closure_ns(&self) -> i128 {
        (self.attributed_ns() + self.unattributed_ns) as i128 - self.wall_ns as i128
    }

    /// One report line per layer span plus the unattributed remainder.
    pub fn lines(&self) -> Vec<String> {
        let wall = self.wall_ns.max(1) as f64;
        let mut lines = vec![format!(
            "trace: wall {:.3} ms = attributed {:.3} ms + unattributed {:.3} ms (closure {} ns)",
            self.wall_ns as f64 / 1e6,
            self.attributed_ns() as f64 / 1e6,
            self.unattributed_ns as f64 / 1e6,
            self.closure_ns()
        )];
        for (name, ns) in &self.self_ns {
            lines.push(format!(
                "trace:   {:<28} self {:>10.3} ms {:>6.2}%  spans {}",
                name,
                *ns as f64 / 1e6,
                *ns as f64 / wall * 100.0,
                self.count[name]
            ));
        }
        lines.push(format!(
            "trace:   {:<28} self {:>10.3} ms {:>6.2}%",
            "unattributed",
            self.unattributed_ns as f64 / 1e6,
            self.unattributed_ns as f64 / wall * 100.0
        ));
        lines
    }
}

/// Length of the union of `intervals` clipped to `[lo, hi)`.
fn union_len(intervals: &mut [(u64, u64)], lo: u64, hi: u64) -> u64 {
    intervals.sort_unstable();
    let mut total = 0;
    let mut cursor = lo;
    for &(s, e) in intervals.iter() {
        let (s, e) = (s.max(cursor), e.min(hi));
        if e > s {
            total += e - s;
            cursor = e;
        }
    }
    total
}

#[cfg(test)]
mod tests {
    use super::*;

    fn span(id: u64, parent: u64, name: &'static str, start: u64, dur: u64) -> SpanEvent {
        SpanEvent {
            name,
            cat: "bench",
            track: 1,
            start_ns: start,
            dur_ns: dur,
            id,
            parent,
            req: 0,
        }
    }

    #[test]
    fn self_times_close_on_the_wall() {
        let spans = [
            span(1, 0, "window", 0, 100),
            span(2, 1, "call", 10, 30),
            span(3, 2, "inner", 15, 10),
            span(4, 1, "call", 50, 40),
        ];
        let a = Attribution::from_spans(&spans);
        assert_eq!(a.wall_ns, 100);
        assert_eq!(a.unattributed_ns, 30);
        assert_eq!(a.self_ns["call"], 60);
        assert_eq!(a.self_ns["inner"], 10);
        assert_eq!(a.closure_ns(), 0);
    }

    #[test]
    fn overlapping_children_are_counted_once_in_the_parent() {
        let mut iv = [(0, 10), (5, 20), (30, 40)];
        assert_eq!(union_len(&mut iv, 0, 35), 25);
    }
}
