//! The human text report: lifecycle totals plus abort attribution —
//! which location classes, locations and check rules caused the aborts.

use std::collections::BTreeMap;
use std::fmt::Write as _;

use janus_log::LocId;

use crate::event::{AbortReason, EventKind, Verdict};
use crate::recorder::Trace;

/// Aggregated abort attribution extracted from a trace: conflicting
/// per-cell checks grouped by class, location and deciding rule, each
/// sorted most-conflicted first.
#[derive(Debug, Clone, Default)]
pub struct AbortAttribution {
    /// Conflicting cells per location class.
    pub by_class: Vec<(String, u64)>,
    /// Conflicting cells per location.
    pub by_loc: Vec<(LocId, u64)>,
    /// Conflicting cells per deciding rule ("sameread", ...).
    pub by_reason: Vec<(&'static str, u64)>,
}

/// Attributes every conflicting per-cell check in the trace.
pub fn attribution(trace: &Trace) -> AbortAttribution {
    let mut by_class: BTreeMap<String, u64> = BTreeMap::new();
    let mut by_loc: BTreeMap<LocId, u64> = BTreeMap::new();
    let mut by_reason: BTreeMap<&'static str, u64> = BTreeMap::new();
    for e in trace.events() {
        if let EventKind::PerCellCheck {
            loc,
            class,
            verdict: Verdict::Conflict,
            reason,
            ..
        } = &e.kind
        {
            *by_class.entry(class.label().to_string()).or_insert(0) += 1;
            *by_loc.entry(*loc).or_insert(0) += 1;
            *by_reason.entry(reason.label()).or_insert(0) += 1;
        }
    }
    fn sort<K: Ord>(m: BTreeMap<K, u64>) -> Vec<(K, u64)> {
        let mut v: Vec<_> = m.into_iter().collect();
        v.sort_by(|a, b| b.1.cmp(&a.1).then_with(|| a.0.cmp(&b.0)));
        v
    }
    AbortAttribution {
        by_class: sort(by_class),
        by_loc: sort(by_loc),
        by_reason: sort(by_reason),
    }
}

/// Renders the trace as a human report: per-kind event totals, then the
/// top-`top_k` abort-causing classes and locations with their deciding
/// rules.
pub fn text_report(trace: &Trace, top_k: usize) -> String {
    let mut out = String::new();
    let commits = trace.count("commit");
    let aborts = trace.count("abort");
    let _ = writeln!(
        out,
        "trace: {} events on {} threads ({} dropped)",
        trace.len(),
        trace.threads.len(),
        trace.dropped()
    );
    let _ = writeln!(
        out,
        "lifecycle: {} begin  {} commit  {} abort  {} validate_open  \
         {} delta_revalidate  {} per_cell_check  {} gc_reclaim",
        trace.count("begin"),
        commits,
        aborts,
        trace.count("validate_open"),
        trace.count("delta_revalidate"),
        trace.count("per_cell_check"),
        trace.count("gc_reclaim"),
    );
    if commits > 0 {
        let _ = writeln!(out, "retry ratio: {:.3}", aborts as f64 / commits as f64);
    }
    if aborts > 0 {
        let _ = writeln!(
            out,
            "aborts by reason: {} conflict  {} poisoned  {} failed",
            trace.aborts_with_reason(AbortReason::Conflict),
            trace.aborts_with_reason(AbortReason::Poisoned),
            trace.aborts_with_reason(AbortReason::Failed),
        );
    }
    let backoffs = trace.count("sched_backoff");
    if backoffs > 0 {
        let _ = writeln!(out, "scheduler: {backoffs} backoff waits");
    }
    let attr = attribution(trace);
    if attr.by_class.is_empty() {
        let _ = writeln!(out, "no conflicting cells recorded");
        return out;
    }
    let _ = writeln!(out, "top abort-causing classes:");
    for (class, n) in attr.by_class.iter().take(top_k) {
        let _ = writeln!(out, "  {class:<24} {n}");
    }
    let _ = writeln!(out, "top abort-causing locations:");
    for (loc, n) in attr.by_loc.iter().take(top_k) {
        let _ = writeln!(out, "  {loc:<24} {n}");
    }
    let _ = writeln!(out, "conflicts by deciding rule:");
    for (reason, n) in &attr.by_reason {
        let _ = writeln!(out, "  {reason:<24} {n}");
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::event::CheckReason;
    use crate::recorder::Recorder;
    use janus_log::ClassId;

    #[test]
    fn attribution_ranks_classes() {
        let rec = Recorder::new();
        {
            let h = rec.register("w0");
            h.record(EventKind::Begin { task: 1 });
            for (i, class) in [(0u64, "hot"), (1, "hot"), (2, "cold")] {
                h.record(EventKind::PerCellCheck {
                    loc: LocId(i),
                    class: ClassId::new(class),
                    verdict: Verdict::Conflict,
                    reason: CheckReason::Commute,
                    ops_scanned: 2,
                });
            }
            h.record(EventKind::PerCellCheck {
                loc: LocId(9),
                class: ClassId::new("benign"),
                verdict: Verdict::Pass,
                reason: CheckReason::Commute,
                ops_scanned: 2,
            });
            h.record(EventKind::Abort {
                task: 1,
                reason: AbortReason::Conflict,
            });
            h.record(EventKind::SchedBackoff { task: 1, steps: 2 });
            h.record(EventKind::Begin { task: 1 });
            h.record(EventKind::Commit { task: 1 });
        }
        let trace = rec.finish();
        let attr = attribution(&trace);
        assert_eq!(attr.by_class[0], ("hot".to_string(), 2));
        assert_eq!(attr.by_class.len(), 2, "passing checks are not attributed");
        assert_eq!(attr.by_reason, vec![("commute", 3)]);
        let report = text_report(&trace, 5);
        assert!(report.contains("top abort-causing classes"));
        assert!(report.contains("hot"));
        assert!(report.contains("retry ratio: 1.000"));
        assert!(report.contains("aborts by reason: 1 conflict  0 poisoned  0 failed"));
        assert!(report.contains("scheduler: 1 backoff waits"));
    }
}
