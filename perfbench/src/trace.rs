//! The traced run's span recorder.
//!
//! One span per call into a layer, recorded from the benchmark side of
//! the call: name, start, end, parent span, and a run id shared by every
//! span of one workload run. Spans stay in memory until the run ends and
//! are then written out as JSON lines. With tracing off, [`Tracer::span`]
//! only calls through, so the untraced run pays one branch per call.

use std::collections::BTreeMap;
use std::fmt::Write as _;
use std::path::Path;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Mutex;
use std::time::Instant;

/// One recorded layer call.
#[derive(Debug, Clone, PartialEq)]
pub struct Span {
    pub id: u64,
    pub parent: Option<u64>,
    pub name: &'static str,
    /// Nanoseconds since the tracer's origin.
    pub start_ns: u64,
    pub end_ns: u64,
}

impl Span {
    fn dur_ns(&self) -> u64 {
        self.end_ns - self.start_ns
    }
}

/// Per-layer totals from [`Tracer::rollup`].
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct LayerTime {
    pub calls: u64,
    pub total_s: f64,
    /// Span time not covered by the span's children.
    pub self_s: f64,
}

#[derive(Debug)]
pub struct Tracer {
    enabled: bool,
    run_id: u64,
    origin: Instant,
    next_id: AtomicU64,
    spans: Mutex<Vec<Span>>,
}

impl Tracer {
    pub fn new(enabled: bool, run_id: u64) -> Tracer {
        Tracer {
            enabled,
            run_id,
            origin: Instant::now(),
            next_id: AtomicU64::new(1),
            spans: Mutex::new(Vec::new()),
        }
    }

    pub fn enabled(&self) -> bool {
        self.enabled
    }

    fn now_ns(&self) -> u64 {
        self.origin.elapsed().as_nanos() as u64
    }

    /// Run `f` inside a span named `name` under `parent`. `f` receives the
    /// new span's id, to parent the spans of the calls it makes (0 when
    /// tracing is off).
    pub fn span<T>(&self, name: &'static str, parent: Option<u64>, f: impl FnOnce(u64) -> T) -> T {
        if !self.enabled {
            return f(0);
        }
        let id = self.next_id.fetch_add(1, Ordering::Relaxed);
        let start_ns = self.now_ns();
        let out = f(id);
        let end_ns = self.now_ns();
        self.spans.lock().expect("span store poisoned").push(Span {
            id,
            parent,
            name,
            start_ns,
            end_ns,
        });
        out
    }

    /// Record an already-timed interval as a span (for calls timed on
    /// another thread or across a network round trip).
    pub fn record(&self, name: &'static str, parent: Option<u64>, start: Instant, end: Instant) {
        if !self.enabled {
            return;
        }
        let id = self.next_id.fetch_add(1, Ordering::Relaxed);
        let at = |t: Instant| t.saturating_duration_since(self.origin).as_nanos() as u64;
        self.spans.lock().expect("span store poisoned").push(Span {
            id,
            parent,
            name,
            start_ns: at(start),
            end_ns: at(end).max(at(start)),
        });
    }

    pub fn spans(&self) -> Vec<Span> {
        self.spans.lock().expect("span store poisoned").clone()
    }

    /// Per-layer call count, total time and self time.
    pub fn rollup(&self) -> BTreeMap<&'static str, LayerTime> {
        rollup(&self.spans())
    }

    /// Write every span as one JSON object per line.
    pub fn write_jsonl(&self, path: &Path) -> std::io::Result<()> {
        let mut out = String::new();
        for s in self.spans() {
            let parent = s.parent.map_or("null".to_string(), |p| p.to_string());
            let _ = writeln!(
                out,
                "{{\"run\":{},\"id\":{},\"parent\":{},\"name\":\"{}\",\"start_ns\":{},\"end_ns\":{}}}",
                self.run_id, s.id, parent, s.name, s.start_ns, s.end_ns
            );
        }
        if let Some(dir) = path.parent() {
            std::fs::create_dir_all(dir)?;
        }
        std::fs::write(path, out)
    }
}

/// Roll spans up by name. A span's self time is its duration minus the
/// part of its interval covered by the union of its children, so
/// children that ran in parallel are not subtracted twice.
pub fn rollup(spans: &[Span]) -> BTreeMap<&'static str, LayerTime> {
    let mut children: BTreeMap<u64, Vec<(u64, u64)>> = BTreeMap::new();
    for s in spans {
        if let Some(p) = s.parent {
            children.entry(p).or_default().push((s.start_ns, s.end_ns));
        }
    }
    let mut out: BTreeMap<&'static str, LayerTime> = BTreeMap::new();
    for s in spans {
        let covered = children
            .get(&s.id)
            .map_or(0, |c| covered_ns(c, s.start_ns, s.end_ns));
        let t = out.entry(s.name).or_default();
        t.calls += 1;
        t.total_s += s.dur_ns() as f64 * 1e-9;
        t.self_s += (s.dur_ns() - covered) as f64 * 1e-9;
    }
    out
}

/// Length of the union of `intervals`, clipped to `[lo, hi]`.
fn covered_ns(intervals: &[(u64, u64)], lo: u64, hi: u64) -> u64 {
    let mut v: Vec<(u64, u64)> = intervals
        .iter()
        .map(|&(a, b)| (a.max(lo), b.min(hi)))
        .filter(|(a, b)| a < b)
        .collect();
    v.sort_unstable();
    let mut total = 0;
    let mut cur: Option<(u64, u64)> = None;
    for (a, b) in v {
        cur = match cur {
            Some((ca, cb)) if a <= cb => Some((ca, cb.max(b))),
            Some((ca, cb)) => {
                total += cb - ca;
                Some((a, b))
            }
            None => Some((a, b)),
        };
    }
    total + cur.map_or(0, |(a, b)| b - a)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn span(id: u64, parent: Option<u64>, name: &'static str, start_ns: u64, end_ns: u64) -> Span {
        Span {
            id,
            parent,
            name,
            start_ns,
            end_ns,
        }
    }

    #[test]
    fn self_time_subtracts_the_union_of_children() {
        let spans = [
            span(1, None, "job", 0, 100),
            // Two overlapping children (parallel workers) and one that
            // spills past the parent's end.
            span(2, Some(1), "unit", 10, 50),
            span(3, Some(1), "unit", 30, 60),
            span(4, Some(1), "unit", 90, 120),
        ];
        let r = rollup(&spans);
        let job = r["job"];
        assert_eq!(job.calls, 1);
        assert!((job.total_s - 100e-9).abs() < 1e-15);
        // Covered: [10, 60) and [90, 100) = 60 ns.
        assert!((job.self_s - 40e-9).abs() < 1e-15);
        assert_eq!(r["unit"].calls, 3);
        assert!((r["unit"].self_s - r["unit"].total_s).abs() < 1e-15);
    }

    #[test]
    fn disabled_tracer_records_nothing() {
        let t = Tracer::new(false, 7);
        assert_eq!(t.span("x", None, |id| id), 0);
        assert!(t.spans().is_empty());
        let t = Tracer::new(true, 7);
        let outer = t.span("outer", None, |id| t.span("inner", Some(id), |_| id));
        let spans = t.spans();
        assert_eq!(spans.len(), 2);
        assert_eq!(spans[0].parent, Some(outer));
    }
}
