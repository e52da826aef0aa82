//! Serialization of trained commutativity caches.
//!
//! The offline/production split of Figure 6 implies the cache outlives
//! the training process — and a file that outlives its writer can rot.
//! This module round-trips a [`CommutativityCache`] through a versioned
//! line-based text format with a trailing integrity checksum:
//!
//! ```text
//! janus-cache v2 abstraction=true
//! entry\t<class>\t<shape>\t<pattern-a>\t<pattern-b>\t<condition>
//! checksum\t<fnv1a-64 of every preceding byte, 16 hex digits>
//! ```
//!
//! Patterns use the display syntax (`{aa}+r`); class labels escape
//! backslash, tab and newline. [`CommutativityCache::from_text`] rejects
//! other versions, truncation, and checksum mismatches with an error
//! naming the offending line.

use std::fmt;

use janus_log::wire::checksum;
use janus_log::ClassId;

use crate::abstraction::{AbstractOp, Element, Pattern};
use crate::cache::{CellShape, CommutativityCache};
use crate::condition::Condition;

/// An error while parsing a serialized cache.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ParseCacheError {
    /// 1-based line the error was found on.
    pub line: usize,
    /// What went wrong.
    pub message: String,
}

impl fmt::Display for ParseCacheError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "line {}: {}", self.line, self.message)
    }
}

impl std::error::Error for ParseCacheError {}

fn escape(s: &str) -> String {
    s.replace('\\', "\\\\")
        .replace('\t', "\\t")
        .replace('\n', "\\n")
}

fn unescape(s: &str) -> String {
    let mut out = String::with_capacity(s.len());
    let mut chars = s.chars();
    while let Some(c) = chars.next() {
        if c == '\\' {
            match chars.next() {
                Some('t') => out.push('\t'),
                Some('n') => out.push('\n'),
                Some('\\') => out.push('\\'),
                Some(other) => {
                    out.push('\\');
                    out.push(other);
                }
                None => out.push('\\'),
            }
        } else {
            out.push(c);
        }
    }
    out
}

fn char_op(c: char) -> Option<AbstractOp> {
    Some(match c {
        'r' => AbstractOp::Read,
        'a' => AbstractOp::Add,
        'm' => AbstractOp::Max,
        'w' => AbstractOp::Write,
        'i' => AbstractOp::Insert,
        'd' => AbstractOp::Remove,
        'k' => AbstractOp::RemoveKey,
        's' => AbstractOp::SelectPinned,
        'S' => AbstractOp::SelectAll,
        'C' => AbstractOp::Clear,
        _ => return None,
    })
}

/// Parses the display syntax of a [`Pattern`] (`{aa}+r`, nesting
/// allowed).
pub fn parse_pattern(s: &str) -> Result<Pattern, String> {
    // Stack of element lists: the top is the block being built.
    let mut stack: Vec<Vec<Element>> = vec![Vec::new()];
    let mut chars = s.chars().peekable();
    while let Some(c) = chars.next() {
        match c {
            '{' => stack.push(Vec::new()),
            '}' => {
                if chars.next() != Some('+') {
                    return Err("'}' must be followed by '+'".to_string());
                }
                let block = stack.pop().expect("non-empty stack");
                if stack.is_empty() {
                    return Err("unbalanced '}'".to_string());
                }
                if block.is_empty() {
                    return Err("empty '+' block".to_string());
                }
                stack
                    .last_mut()
                    .expect("stack has a frame")
                    .push(Element::Plus(block));
            }
            c => match char_op(c) {
                Some(op) => stack
                    .last_mut()
                    .expect("stack has a frame")
                    .push(Element::Atom(op)),
                None => return Err(format!("unknown abstract op {c:?}")),
            },
        }
    }
    if stack.len() != 1 {
        return Err("unbalanced '{'".to_string());
    }
    Ok(Pattern(stack.pop().expect("single frame")))
}

impl CommutativityCache {
    /// Serializes the cache to the current (v2) text format, ending with
    /// the integrity checksum line.
    pub fn to_text(&self) -> String {
        let mut out = format!("janus-cache v2 abstraction={}\n", self.uses_abstraction());
        for (class, shape, pat_a, pat_b, condition) in self.entries_iter() {
            let shape = match shape {
                CellShape::Whole => "whole",
                CellShape::Keyed => "keyed",
            };
            let cond = match condition {
                Condition::CommutesAlways => "always",
                Condition::InputDependent => "input",
            };
            out.push_str(&format!(
                "entry\t{}\t{shape}\t{pat_a}\t{pat_b}\t{cond}\n",
                escape(class.label()),
            ));
        }
        // FNV-1a 64 over every preceding byte (header and entries, each
        // including its trailing newline).
        out.push_str(&format!("checksum\t{:016x}\n", checksum(out.as_bytes())));
        out
    }

    /// Parses a cache from the v2 text format.
    ///
    /// # Errors
    ///
    /// Returns a [`ParseCacheError`] naming the offending line on any
    /// unsupported version, malformed header, field count, shape,
    /// pattern or condition, and on a missing, malformed or mismatching
    /// checksum line (truncation and bit rot both land here).
    pub fn from_text(text: &str) -> Result<CommutativityCache, ParseCacheError> {
        let err = |line: usize, message: String| ParseCacheError { line, message };
        let header = text
            .lines()
            .next()
            .ok_or_else(|| err(1, "empty input".to_string()))?;
        let abstraction = match header {
            "janus-cache v2 abstraction=true" => true,
            "janus-cache v2 abstraction=false" => false,
            other if other.starts_with("janus-cache v") => {
                return Err(err(
                    1,
                    format!("unsupported cache format version: {other:?} (this build reads v2)"),
                ));
            }
            other => return Err(err(1, format!("bad header {other:?}"))),
        };
        // Locate and verify the trailing checksum, then parse only the
        // body before it. The checksum line starts its own line, so an
        // escaped "checksum" inside a class label cannot shadow it.
        let nl = text.rfind("\nchecksum\t").ok_or_else(|| {
            err(
                text.lines().count().max(1),
                "missing checksum line (truncated cache?)".to_string(),
            )
        })?;
        let body = &text[..nl + 1];
        let lineno = body.lines().count() + 1;
        let tail = &text[nl + 1..];
        let line = tail.lines().next().expect("found above");
        if tail.len() > line.len() + 1 {
            return Err(err(
                lineno + 1,
                "content after the checksum line".to_string(),
            ));
        }
        let hex = line.strip_prefix("checksum\t").expect("found above");
        let stated = u64::from_str_radix(hex, 16)
            .map_err(|_| err(lineno, format!("bad checksum field {hex:?}")))?;
        let computed = checksum(body.as_bytes());
        if stated != computed {
            return Err(err(
                lineno,
                format!(
                    "checksum mismatch: file says {stated:016x}, contents hash to \
                     {computed:016x} (corrupt or hand-edited cache)"
                ),
            ));
        }
        let mut cache = CommutativityCache::new(abstraction);
        for (i, line) in body.lines().enumerate().skip(1) {
            let lineno = i + 1;
            if line.is_empty() {
                continue;
            }
            let fields: Vec<&str> = line.split('\t').collect();
            if fields.len() != 6 || fields[0] != "entry" {
                return Err(err(lineno, "expected 6 tab-separated fields".to_string()));
            }
            let class = ClassId::new(unescape(fields[1]));
            let shape = match fields[2] {
                "whole" => CellShape::Whole,
                "keyed" => CellShape::Keyed,
                other => return Err(err(lineno, format!("bad shape {other:?}"))),
            };
            let pat_a =
                parse_pattern(fields[3]).map_err(|m| err(lineno, format!("pattern a: {m}")))?;
            let pat_b =
                parse_pattern(fields[4]).map_err(|m| err(lineno, format!("pattern b: {m}")))?;
            let condition = match fields[5] {
                "always" => Condition::CommutesAlways,
                "input" => Condition::InputDependent,
                other => return Err(err(lineno, format!("bad condition {other:?}"))),
            };
            cache.insert(class, shape, pat_a, pat_b, condition);
        }
        Ok(cache)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{train, TrainConfig, TrainingRun};
    use janus_detect::MapState;
    use janus_log::{LocId, Op, OpKind, ScalarOp};
    use janus_relational::Value;

    fn trained() -> CommutativityCache {
        let mut initial = MapState::default();
        initial.0.insert(LocId(0), Value::int(0));
        let mk = |deltas: Vec<i64>| -> Vec<Op> {
            let mut v = Value::int(0);
            deltas
                .into_iter()
                .map(|d| {
                    Op::execute(
                        LocId(0),
                        ClassId::new("work\ttab"),
                        OpKind::Scalar(ScalarOp::Add(d)),
                        &mut v,
                    )
                    .0
                })
                .collect()
        };
        let run = TrainingRun {
            initial,
            task_logs: vec![mk(vec![2, -2]), mk(vec![3, -3])],
        };
        train(&[run], TrainConfig::default()).0
    }

    #[test]
    fn roundtrip_preserves_entries_and_answers() {
        let cache = trained();
        let text = cache.to_text();
        let parsed = CommutativityCache::from_text(&text).expect("parse");
        assert_eq!(parsed.len(), cache.len());
        assert_eq!(parsed.uses_abstraction(), cache.uses_abstraction());
        assert_eq!(parsed.to_text(), text, "serialization is canonical");
    }

    #[test]
    fn pattern_parse_roundtrip() {
        for src in [
            "",
            "r",
            "{aa}+",
            "{ {r}+w }+".replace(' ', "").as_str(),
            "rw{id}+C",
            "{{is}+{k}+}+",
        ] {
            let p = parse_pattern(src).expect("parse");
            assert_eq!(format!("{p}"), src);
        }
    }

    #[test]
    fn pattern_parse_errors() {
        assert!(parse_pattern("{a").is_err(), "unbalanced open");
        assert!(parse_pattern("a}+").is_err(), "unbalanced close");
        assert!(parse_pattern("{a}x").is_err(), "missing +");
        assert!(parse_pattern("{}+").is_err(), "empty block");
        assert!(parse_pattern("z").is_err(), "unknown op");
    }

    /// A v2 cache of one entry line, with a valid checksum line.
    fn v2_with_entry(entry: &str) -> String {
        let body = format!("janus-cache v2 abstraction=true\n{entry}\n");
        format!("{body}checksum\t{:016x}\n", checksum(body.as_bytes()))
    }

    #[test]
    fn header_and_field_errors() {
        assert!(CommutativityCache::from_text("").is_err());
        assert!(CommutativityCache::from_text("nope\n").is_err());
        let bad = v2_with_entry("entry\tc\twhole\ta");
        let e = CommutativityCache::from_text(&bad).expect_err("field count");
        assert_eq!(e.line, 2);
        let bad = v2_with_entry("entry\tc\tnope\ta\ta\talways");
        let e = CommutativityCache::from_text(&bad).expect_err("shape");
        assert!(e.message.contains("bad shape"), "{}", e.message);
        let bad = v2_with_entry("entry\tc\twhole\ta\ta\tmaybe");
        let e = CommutativityCache::from_text(&bad).expect_err("condition");
        assert!(e.message.contains("bad condition"), "{}", e.message);
        let good = v2_with_entry("entry\tc\twhole\ta\ta\talways");
        assert_eq!(
            CommutativityCache::from_text(&good).expect("parse").len(),
            1
        );
    }

    #[test]
    fn unknown_version_is_rejected_with_a_version_error() {
        for header in [
            "janus-cache v3 abstraction=true",
            "janus-cache v1 abstraction=true",
        ] {
            let e = CommutativityCache::from_text(&format!("{header}\n"))
                .expect_err("unsupported version");
            assert_eq!(e.line, 1);
            assert!(
                e.message.contains("unsupported cache format version"),
                "message: {}",
                e.message
            );
        }
    }

    #[test]
    fn checksum_mismatch_is_detected_and_located() {
        let good = trained().to_text();
        assert!(good
            .lines()
            .last()
            .expect("non-empty")
            .starts_with("checksum\t"));
        // Corrupt one entry byte without touching the checksum line.
        let corrupt = good.replacen("whole", "keyed", 1);
        assert_ne!(corrupt, good, "the fixture must contain a whole-cell entry");
        let e = CommutativityCache::from_text(&corrupt).expect_err("corruption");
        assert_eq!(e.line, good.lines().count());
        assert!(e.message.contains("checksum mismatch"), "{}", e.message);
    }

    #[test]
    fn truncated_v2_cache_is_rejected() {
        let good = trained().to_text();
        let truncated: String = good
            .lines()
            .filter(|l| !l.starts_with("checksum\t"))
            .map(|l| format!("{l}\n"))
            .collect();
        let e = CommutativityCache::from_text(&truncated).expect_err("truncation");
        assert!(e.message.contains("missing checksum"), "{}", e.message);
    }

    #[test]
    fn malformed_checksum_and_trailing_content_are_rejected() {
        let good = trained().to_text();
        let bad_hex = good.replace("checksum\t", "checksum\tzz");
        let e = CommutativityCache::from_text(&bad_hex).expect_err("bad hex");
        assert!(e.message.contains("bad checksum field"), "{}", e.message);

        let mut trailing = good.clone();
        trailing.push_str("entry\tc\twhole\ta\ta\talways\n");
        let e = CommutativityCache::from_text(&trailing).expect_err("trailing");
        assert!(
            e.message.contains("content after the checksum"),
            "{}",
            e.message
        );
    }

    #[test]
    fn escaped_class_labels_roundtrip() {
        let cache = trained();
        let text = cache.to_text();
        assert!(text.contains("work\\ttab"), "tab must be escaped");
        let parsed = CommutativityCache::from_text(&text).expect("parse");
        let labels: Vec<String> = parsed
            .entries_iter()
            .map(|(c, _, _, _, _)| c.label().to_string())
            .collect();
        assert!(labels.iter().all(|l| l == "work\ttab"));
    }
}
