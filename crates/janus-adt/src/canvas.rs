//! A drawing surface modelling Weka's `Graphics2D` usage (Figure 5).

use std::sync::Arc;

use janus_core::{Store, TxView};
use janus_log::{LocId, OpResult};
use janus_relational::{Fd, Formula, RelOp, Relation, Scalar, Schema, Tuple, Value};

/// A shared canvas: a brush-color cell plus a pixel relation
/// `{(x, y, color)}` with the functional dependency `(x, y) → color`.
///
/// `set_color` blind-writes the brush; drawing primitives read the brush
/// (covered — every Weka iteration sets the color before drawing) and
/// insert one tuple per pixel. Two transactions painting an overlapping
/// pixel conflict only if they paint it *different* colors — the
/// equal-writes pattern.
#[derive(Debug, Clone)]
pub struct Canvas {
    brush: LocId,
    pixels: LocId,
    schema: Arc<Schema>,
}

impl Canvas {
    /// Allocates a canvas with a default black (0) brush.
    pub fn alloc(store: &mut Store, class: &str) -> Self {
        let schema = Schema::with_fd(&["x", "y", "color"], Fd::new(&[0, 1], &[2]));
        let pixels = store.alloc(
            format!("{class}.pixels").as_str(),
            Value::Rel(Relation::empty(Arc::clone(&schema))),
        );
        let brush = store.alloc(format!("{class}.brush").as_str(), Value::int(0));
        Canvas {
            brush,
            pixels,
            schema,
        }
    }

    /// Sets the brush color (`g.setColor(c)`).
    pub fn set_color(&self, tx: &mut TxView, color: i64) {
        tx.write(self.brush, color);
    }

    /// The current brush color (observing; covered if `set_color` was
    /// called earlier in the same transaction).
    pub fn color(&self, tx: &mut TxView) -> i64 {
        tx.read_int(self.brush)
    }

    /// Paints one pixel with the current brush color.
    pub fn plot(&self, tx: &mut TxView, x: i64, y: i64) {
        let c = self.color(tx);
        tx.rel(
            self.pixels,
            RelOp::insert(Tuple::new(vec![
                Scalar::Int(x),
                Scalar::Int(y),
                Scalar::Int(c),
            ])),
        );
    }

    /// Draws an axis-aligned line (`g.drawLine`), painting every pixel on
    /// the segment with the brush color.
    pub fn draw_line(&self, tx: &mut TxView, x1: i64, y1: i64, x2: i64, y2: i64) {
        let steps = (x2 - x1).abs().max((y2 - y1).abs());
        if steps == 0 {
            self.plot(tx, x1, y1);
            return;
        }
        for i in 0..=steps {
            let x = x1 + (x2 - x1) * i / steps;
            let y = y1 + (y2 - y1) * i / steps;
            self.plot(tx, x, y);
        }
    }

    /// Fills an axis-aligned rectangle (`g.fillOval`'s stand-in),
    /// painting every covered pixel.
    pub fn fill_rect(&self, tx: &mut TxView, x: i64, y: i64, w: i64, h: i64) {
        for dx in 0..w {
            for dy in 0..h {
                self.plot(tx, x + dx, y + dy);
            }
        }
    }

    /// Reads one pixel's color, if painted (observing).
    pub fn pixel(&self, tx: &mut TxView, x: i64, y: i64) -> Option<i64> {
        let f = Formula::eq(0, x).and(Formula::eq(1, y));
        match tx.rel(self.pixels, RelOp::select(f)) {
            OpResult::Tuples(ts) => ts.first().and_then(|t| t.get(2).as_int()),
            _ => None,
        }
    }

    /// The number of painted pixels in a store (outside any transaction).
    pub fn painted(&self, store: &Store) -> usize {
        store
            .value(self.pixels)
            .and_then(Value::as_rel)
            .map(Relation::len)
            .expect("pixels location holds a relation")
    }

    /// The schema (exposed for tests and specs).
    pub fn schema(&self) -> &Arc<Schema> {
        &self.schema
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use janus_core::{Janus, Task};
    use janus_detect::SequenceDetector;

    #[test]
    fn drawing_primitives() {
        let mut store = Store::new();
        let cv = Canvas::alloc(&mut store, "graph");
        let h = cv.clone();
        let tasks = vec![Task::new(move |tx: &mut TxView| {
            h.set_color(tx, 7);
            h.plot(tx, 1, 1);
            h.draw_line(tx, 0, 0, 3, 0);
            h.fill_rect(tx, 10, 10, 2, 2);
            assert_eq!(h.pixel(tx, 1, 1), Some(7));
            assert_eq!(h.pixel(tx, 2, 0), Some(7));
            assert_eq!(h.pixel(tx, 11, 11), Some(7));
            assert_eq!(h.pixel(tx, 50, 50), None);
        })];
        let (final_store, _) = Janus::run_sequential(store, &tasks);
        // plot(1,1) + 4 line pixels + 4 rect pixels
        assert_eq!(cv.painted(&final_store), 9);
    }

    #[test]
    fn equal_color_overlap_does_not_conflict() {
        // Two tasks painting the same pixel the same color: the
        // equal-writes pattern admits them concurrently.
        let mut store = Store::new();
        let cv = Canvas::alloc(&mut store, "graph");
        let tasks: Vec<Task> = (0..6)
            .map(|_| {
                let h = cv.clone();
                Task::new(move |tx: &mut TxView| {
                    h.set_color(tx, 3);
                    h.plot(tx, 5, 5);
                })
            })
            .collect();
        let janus = Janus::new(std::sync::Arc::new(SequenceDetector::new())).threads(3);
        let outcome = janus.run(store, tasks);
        assert_eq!(cv.painted(&outcome.store), 1);
        assert_eq!(outcome.stats.retries, 0, "equal writes must not conflict");
    }

    #[test]
    fn different_color_overlap_conflicts() {
        let mut store = Store::new();
        let cv = Canvas::alloc(&mut store, "graph");
        let tasks: Vec<Task> = (0..4)
            .map(|i| {
                let h = cv.clone();
                Task::new(move |tx: &mut TxView| {
                    h.set_color(tx, i as i64);
                    h.plot(tx, 5, 5);
                })
            })
            .collect();
        let janus = Janus::new(std::sync::Arc::new(SequenceDetector::new())).threads(4);
        let outcome = janus.run(store, tasks);
        assert_eq!(cv.painted(&outcome.store), 1);
        // Some serialization had to happen; the run still terminates with
        // one of the colors winning.
        assert_eq!(outcome.stats.commits, 4);
    }
}
