//! Chrome-trace JSON export: one track per worker thread, loadable in
//! `chrome://tracing` (or Perfetto's legacy importer).
//!
//! The workspace deliberately carries no serde; events are flat and the
//! emitter below writes the Trace Event Format by hand, escaping every
//! dynamic string.

use std::fmt::Write as _;

use crate::event::EventKind;
use crate::recorder::Trace;

/// Escapes a string for embedding in a JSON string literal.
fn escape(s: &str, out: &mut String) {
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '\r' => out.push_str("\\r"),
            '\t' => out.push_str("\\t"),
            c if (c as u32) < 0x20 => {
                let _ = write!(out, "\\u{:04x}", c as u32);
            }
            c => out.push(c),
        }
    }
}

/// Microsecond timestamp with nanosecond precision, as Chrome expects.
fn us(ts_ns: u64) -> String {
    format!("{}.{:03}", ts_ns / 1_000, ts_ns % 1_000)
}

fn push_event(out: &mut String, first: &mut bool, body: &str) {
    if !*first {
        out.push_str(",\n");
    }
    *first = false;
    out.push_str("    ");
    out.push_str(body);
}

/// Renders a trace in the Chrome Trace Event Format.
///
/// Tracks: one per worker thread (named after the thread's label).
/// Attempts appear as complete (`"ph":"X"`) spans named
/// `txn <task> (commit|abort)`; validation opens, delta re-validations,
/// conflicting per-cell checks and GC passes appear as thread-scoped
/// instant events with their payload in `args`.
pub fn chrome_trace_json(trace: &Trace) -> String {
    let mut out = String::from("{\"displayTimeUnit\":\"ms\",\"traceEvents\":[\n");
    let mut first = true;
    for t in &trace.threads {
        let mut name = String::new();
        escape(&t.label, &mut name);
        push_event(
            &mut out,
            &mut first,
            &format!(
                "{{\"name\":\"thread_name\",\"ph\":\"M\",\"pid\":1,\"tid\":{},\
                 \"args\":{{\"name\":\"{name}\"}}}}",
                t.tid
            ),
        );
        let mut open: Option<(u64, u64, u64)> = None; // (task, ts_ns, clock)
        for e in &t.events {
            match &e.kind {
                EventKind::Begin { task } => open = Some((*task, e.ts_ns, e.clock)),
                EventKind::Commit { task } | EventKind::Abort { task, .. } => {
                    let (outcome, reason_arg) = match &e.kind {
                        EventKind::Abort { reason, .. } => {
                            ("abort", format!(",\"reason\":\"{}\"", reason.label()))
                        }
                        _ => ("commit", String::new()),
                    };
                    let (_, t0, begin_clock) = open.take().unwrap_or((*task, e.ts_ns, e.clock));
                    push_event(
                        &mut out,
                        &mut first,
                        &format!(
                            "{{\"name\":\"txn {task} {outcome}\",\"cat\":\"txn\",\
                             \"ph\":\"X\",\"pid\":1,\"tid\":{},\"ts\":{},\"dur\":{},\
                             \"args\":{{\"task\":{task},\"outcome\":\"{outcome}\",\
                             \"begin_clock\":{begin_clock},\"end_clock\":{}{reason_arg}}}}}",
                            t.tid,
                            us(t0),
                            us(e.ts_ns.saturating_sub(t0)),
                            e.clock
                        ),
                    );
                }
                EventKind::SchedBackoff { task, steps } => {
                    push_event(
                        &mut out,
                        &mut first,
                        &format!(
                            "{{\"name\":\"sched_backoff\",\"cat\":\"sched\",\"ph\":\"i\",\
                             \"s\":\"t\",\"pid\":1,\"tid\":{},\"ts\":{},\
                             \"args\":{{\"task\":{task},\"steps\":{steps},\"clock\":{}}}}}",
                            t.tid,
                            us(e.ts_ns),
                            e.clock
                        ),
                    );
                }
                EventKind::ValidateOpen { window_segments }
                | EventKind::DeltaRevalidate { window_segments } => {
                    push_event(
                        &mut out,
                        &mut first,
                        &format!(
                            "{{\"name\":\"{}\",\"cat\":\"validate\",\"ph\":\"i\",\"s\":\"t\",\
                             \"pid\":1,\"tid\":{},\"ts\":{},\
                             \"args\":{{\"window_segments\":{window_segments},\"clock\":{}}}}}",
                            e.kind.label(),
                            t.tid,
                            us(e.ts_ns),
                            e.clock
                        ),
                    );
                }
                EventKind::PerCellCheck {
                    loc,
                    class,
                    verdict,
                    reason,
                    ops_scanned,
                } => {
                    // Passing checks are summarized by the metrics layer;
                    // only conflicts become trace instants, keeping the
                    // JSON loadable for contended runs.
                    if *verdict == crate::event::Verdict::Conflict {
                        let mut label = String::new();
                        escape(class.label(), &mut label);
                        push_event(
                            &mut out,
                            &mut first,
                            &format!(
                                "{{\"name\":\"conflict {label}\",\"cat\":\"conflict\",\
                                 \"ph\":\"i\",\"s\":\"t\",\"pid\":1,\"tid\":{},\"ts\":{},\
                                 \"args\":{{\"loc\":\"{loc}\",\"class\":\"{label}\",\
                                 \"reason\":\"{}\",\"ops_scanned\":{ops_scanned},\
                                 \"clock\":{}}}}}",
                                t.tid,
                                us(e.ts_ns),
                                reason.label(),
                                e.clock
                            ),
                        );
                    }
                }
                EventKind::GcReclaim { reclaimed } => {
                    push_event(
                        &mut out,
                        &mut first,
                        &format!(
                            "{{\"name\":\"gc_reclaim\",\"cat\":\"gc\",\"ph\":\"i\",\"s\":\"t\",\
                             \"pid\":1,\"tid\":{},\"ts\":{},\
                             \"args\":{{\"reclaimed\":{reclaimed},\"clock\":{}}}}}",
                            t.tid,
                            us(e.ts_ns),
                            e.clock
                        ),
                    );
                }
            }
        }
    }
    out.push_str("\n]}\n");
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::event::{AbortReason, CheckReason, Verdict};
    use crate::recorder::Recorder;
    use janus_log::{ClassId, LocId};

    #[test]
    fn escaping_handles_quotes_and_control_chars() {
        let mut s = String::new();
        escape("a\"b\\c\nd\u{1}", &mut s);
        assert_eq!(s, "a\\\"b\\\\c\\nd\\u0001");
    }

    #[test]
    fn export_contains_spans_and_instants() {
        let rec = Recorder::new();
        {
            let h = rec.register("worker-0");
            h.set_clock(1);
            h.record(EventKind::Begin { task: 1 });
            h.record(EventKind::ValidateOpen { window_segments: 0 });
            h.record(EventKind::PerCellCheck {
                loc: LocId(3),
                class: ClassId::new("hot\"spot"),
                verdict: Verdict::Conflict,
                reason: CheckReason::WritesetOverlap,
                ops_scanned: 4,
            });
            h.record(EventKind::Abort {
                task: 1,
                reason: AbortReason::Conflict,
            });
            h.record(EventKind::SchedBackoff { task: 1, steps: 5 });
            h.record(EventKind::Begin { task: 1 });
            h.set_clock(2);
            h.record(EventKind::Commit { task: 1 });
        }
        let json = chrome_trace_json(&rec.finish());
        assert!(json.contains("\"thread_name\""));
        assert!(json.contains("txn 1 abort"));
        assert!(json.contains("\"reason\":\"conflict\""));
        assert!(json.contains("txn 1 commit"));
        assert!(json.contains("conflict hot\\\"spot"));
        assert!(json.contains("\"reason\":\"writeset-overlap\""));
        assert!(json.contains("\"name\":\"sched_backoff\""));
        assert!(json.contains("\"steps\":5"));
        assert!(json.starts_with('{') && json.trim_end().ends_with('}'));
        // Balanced braces outside string literals is a decent smoke test
        // for hand-rolled JSON.
        let mut depth = 0i64;
        let mut in_str = false;
        let mut esc = false;
        for c in json.chars() {
            match (in_str, esc, c) {
                (true, true, _) => esc = false,
                (true, false, '\\') => esc = true,
                (true, false, '"') => in_str = false,
                (false, _, '"') => in_str = true,
                (false, _, '{') => depth += 1,
                (false, _, '}') => depth -= 1,
                _ => {}
            }
        }
        assert_eq!(depth, 0);
        assert!(!in_str);
    }
}
