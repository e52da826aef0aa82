//! The unified metrics registry: counters, log2 histograms, and the
//! [`Snapshot`] trait that absorbs every statistics struct in the
//! workspace behind one interface.

use std::collections::BTreeMap;
use std::fmt::Write as _;

use crate::event::EventKind;
use crate::recorder::Trace;

/// A point-in-time view of some subsystem's counters. Implemented by
/// `RunStats` (janus-core), `DetectorStats` (janus-detect), `FrozenCacheStats`
/// (janus-train) and [`janus_sat::SolverStats`], so one registry absorbs
/// the whole stack.
pub trait Snapshot {
    /// The subsystem prefix ("run", "detector", "cache", "solver").
    fn source(&self) -> &'static str;

    /// The counters at this instant, as (name, value) pairs.
    fn counters(&self) -> Vec<(String, u64)>;
}

impl Snapshot for janus_sat::SolverStats {
    fn source(&self) -> &'static str {
        "solver"
    }

    fn counters(&self) -> Vec<(String, u64)> {
        vec![
            ("decisions".into(), self.decisions),
            ("conflicts".into(), self.conflicts),
            ("propagations".into(), self.propagations),
            ("restarts".into(), self.restarts),
        ]
    }
}

/// A log2-bucketed histogram of `u64` samples: bucket `i` holds samples
/// whose bit length is `i` (bucket 0 is the zero sample), so 65 buckets
/// cover the full range with constant memory and O(1) observation.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Histogram {
    buckets: [u64; 65],
    count: u64,
    sum: u64,
    max: u64,
}

impl Default for Histogram {
    fn default() -> Self {
        Histogram {
            buckets: [0; 65],
            count: 0,
            sum: 0,
            max: 0,
        }
    }
}

impl Histogram {
    /// Records one sample.
    pub fn observe(&mut self, v: u64) {
        self.buckets[(64 - v.leading_zeros()) as usize] += 1;
        self.count += 1;
        self.sum = self.sum.saturating_add(v);
        self.max = self.max.max(v);
    }

    /// Rebuilds a histogram from externally accumulated log2 buckets
    /// (e.g. a bank of atomics updated concurrently and drained once at
    /// run exit). The count is derived from the buckets.
    pub fn from_log2_buckets(buckets: [u64; 65], sum: u64, max: u64) -> Self {
        Histogram {
            buckets,
            count: buckets.iter().sum(),
            sum,
            max,
        }
    }

    /// Folds another histogram's samples into this one. Log2 buckets
    /// merge losslessly: bucket-wise addition.
    pub fn merge(&mut self, other: &Histogram) {
        for (b, o) in self.buckets.iter_mut().zip(other.buckets.iter()) {
            *b += o;
        }
        self.count += other.count;
        self.sum = self.sum.saturating_add(other.sum);
        self.max = self.max.max(other.max);
    }

    /// Number of samples recorded.
    pub fn count(&self) -> u64 {
        self.count
    }

    /// Sum of all samples (saturating).
    pub fn sum(&self) -> u64 {
        self.sum
    }

    /// The largest sample.
    pub fn max(&self) -> u64 {
        self.max
    }

    /// The mean sample, or 0 with no samples.
    pub fn mean(&self) -> f64 {
        if self.count == 0 {
            0.0
        } else {
            self.sum as f64 / self.count as f64
        }
    }

    /// An upper bound on the `p`-th percentile (0..=100): the upper edge
    /// of the log2 bucket the percentile falls into.
    pub fn percentile(&self, p: f64) -> u64 {
        if self.count == 0 {
            return 0;
        }
        let rank = ((p / 100.0) * self.count as f64).ceil().max(1.0) as u64;
        let mut seen = 0;
        for (i, &n) in self.buckets.iter().enumerate() {
            seen += n;
            if seen >= rank {
                // Bucket i holds samples in [2^(i-1), 2^i).
                return match i {
                    0 => 0,
                    64 => u64::MAX,
                    _ => (1u64 << i) - 1,
                };
            }
        }
        self.max
    }

    /// A one-line rendering: count, mean, p50/p99 bounds, max.
    pub fn render(&self) -> String {
        format!(
            "n={} mean={:.1} p50<={} p99<={} max={}",
            self.count,
            self.mean(),
            self.percentile(50.0),
            self.percentile(99.0),
            self.max
        )
    }
}

/// The unified registry: named monotone counters plus named log2
/// histograms, populated from [`Snapshot`]s and recorded traces.
#[derive(Debug, Default)]
pub struct MetricsRegistry {
    counters: BTreeMap<String, u64>,
    histograms: BTreeMap<String, Histogram>,
}

impl MetricsRegistry {
    /// An empty registry.
    pub fn new() -> Self {
        MetricsRegistry::default()
    }

    /// Adds to a named counter.
    pub fn add(&mut self, name: &str, v: u64) {
        *self.counters.entry(name.to_string()).or_insert(0) += v;
    }

    /// Records a sample into a named histogram.
    pub fn observe(&mut self, name: &str, v: u64) {
        self.histograms
            .entry(name.to_string())
            .or_default()
            .observe(v);
    }

    /// A counter's value (0 if never touched).
    pub fn counter(&self, name: &str) -> u64 {
        self.counters.get(name).copied().unwrap_or(0)
    }

    /// A histogram, if any sample was recorded under the name.
    pub fn histogram(&self, name: &str) -> Option<&Histogram> {
        self.histograms.get(name)
    }

    /// Folds a pre-aggregated histogram into the named one (how the
    /// sharded runtime's per-shard lock-wait banks reach the registry).
    pub fn merge_histogram(&mut self, name: &str, h: &Histogram) {
        self.histograms
            .entry(name.to_string())
            .or_default()
            .merge(h);
    }

    /// Absorbs a subsystem snapshot: every counter lands under
    /// `<source>.<name>`.
    pub fn absorb(&mut self, snap: &dyn Snapshot) {
        let source = snap.source();
        for (name, v) in snap.counters() {
            self.add(&format!("{source}.{name}"), v);
        }
    }

    /// Absorbs a recorded trace: per-kind event counts under
    /// `trace.<kind>`, plus the derived histograms
    ///
    /// * `validation_latency_ns` — first validation to commit/abort,
    ///   per attempt;
    /// * `window_segments` — committed segments per fetched window;
    /// * `ops_scanned_per_attempt` — operations scanned by per-cell
    ///   checks, summed over each attempt;
    /// * `backoff_steps` — scheduler backoff wait lengths.
    ///
    /// Aborts additionally count under `trace.abort.<reason>`.
    pub fn absorb_trace(&mut self, trace: &Trace) {
        for t in &trace.threads {
            let mut validate_open_ts: Option<u64> = None;
            let mut attempt_ops: u64 = 0;
            for e in &t.events {
                self.add(&format!("trace.{}", e.kind.label()), 1);
                match &e.kind {
                    EventKind::Begin { .. } => {
                        validate_open_ts = None;
                        attempt_ops = 0;
                    }
                    EventKind::ValidateOpen { window_segments } => {
                        validate_open_ts.get_or_insert(e.ts_ns);
                        self.observe("window_segments", *window_segments);
                    }
                    EventKind::DeltaRevalidate { window_segments } => {
                        self.observe("window_segments", *window_segments);
                    }
                    EventKind::PerCellCheck { ops_scanned, .. } => {
                        attempt_ops += ops_scanned;
                    }
                    EventKind::Commit { .. } | EventKind::Abort { .. } => {
                        if let EventKind::Abort { reason, .. } = &e.kind {
                            self.add(&format!("trace.abort.{}", reason.label()), 1);
                        }
                        if let Some(t0) = validate_open_ts.take() {
                            self.observe("validation_latency_ns", e.ts_ns.saturating_sub(t0));
                        }
                        self.observe("ops_scanned_per_attempt", attempt_ops);
                        attempt_ops = 0;
                    }
                    EventKind::SchedBackoff { steps, .. } => {
                        self.observe("backoff_steps", *steps);
                    }
                    EventKind::GcReclaim { reclaimed } => {
                        self.add("trace.gc_reclaimed_entries", *reclaimed);
                    }
                }
            }
        }
        self.add("trace.dropped_events", trace.dropped());
    }

    /// Renders the registry as an aligned text block.
    pub fn render(&self) -> String {
        let mut out = String::new();
        let width = self
            .counters
            .keys()
            .chain(self.histograms.keys())
            .map(String::len)
            .max()
            .unwrap_or(0);
        for (name, v) in &self.counters {
            let _ = writeln!(out, "{name:<width$}  {v}");
        }
        for (name, h) in &self.histograms {
            let _ = writeln!(out, "{name:<width$}  {}", h.render());
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn histogram_buckets_and_percentiles() {
        let mut h = Histogram::default();
        for v in [0, 1, 2, 3, 4, 1000] {
            h.observe(v);
        }
        assert_eq!(h.count(), 6);
        assert_eq!(h.max(), 1000);
        assert_eq!(h.sum(), 1010);
        assert!(h.percentile(50.0) <= 3, "median bound within small buckets");
        assert_eq!(h.percentile(100.0), 1023, "top bucket upper edge");
        assert_eq!(Histogram::default().percentile(99.0), 0);
    }

    #[test]
    fn registry_counters_and_render() {
        let mut m = MetricsRegistry::new();
        m.add("run.commits", 5);
        m.add("run.commits", 2);
        m.observe("lat", 8);
        assert_eq!(m.counter("run.commits"), 7);
        assert_eq!(m.counter("absent"), 0);
        assert_eq!(m.histogram("lat").unwrap().count(), 1);
        let text = m.render();
        assert!(text.contains("run.commits") && text.contains('7'));
        assert!(text.contains("lat"));
    }

    #[test]
    fn solver_stats_snapshot() {
        let stats = janus_sat::SolverStats {
            decisions: 3,
            conflicts: 1,
            propagations: 9,
            restarts: 0,
        };
        let mut m = MetricsRegistry::new();
        m.absorb(&stats);
        assert_eq!(m.counter("solver.decisions"), 3);
        assert_eq!(m.counter("solver.propagations"), 9);
    }
}
