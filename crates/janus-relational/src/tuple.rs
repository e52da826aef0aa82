//! Tuples: mappings from columns to scalar values.

use std::fmt;
use std::sync::Arc;

use crate::{Key, Scalar};

/// A tuple `t = (c1 : v1, ..., ck : vk)` over the columns of a
/// [`crate::Schema`], stored positionally.
///
/// Column names live in the schema; the tuple stores only the valuation.
/// `t.get(c)` is the paper's `t_c`. The valuation is shared, so cloning a
/// tuple — into a relation, a log entry or a select result — is O(1).
#[derive(Debug, Clone, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct Tuple(Arc<[Scalar]>);

impl Tuple {
    /// Creates a tuple from a column valuation.
    pub fn new(values: impl Into<Arc<[Scalar]>>) -> Self {
        Tuple(values.into())
    }

    /// The number of columns.
    pub fn arity(&self) -> usize {
        self.0.len()
    }

    /// The valuation of column `c` (`t_c`).
    ///
    /// # Panics
    ///
    /// Panics if `c` is out of bounds for this tuple's arity.
    pub fn get(&self, c: usize) -> &Scalar {
        &self.0[c]
    }

    /// The valuation of column `c`, or `None` if out of bounds.
    pub fn try_get(&self, c: usize) -> Option<&Scalar> {
        self.0.get(c)
    }

    /// Returns the projection of this tuple onto the given columns.
    ///
    /// # Panics
    ///
    /// Panics if any column index is out of bounds.
    pub fn project(&self, columns: &[usize]) -> Vec<Scalar> {
        columns.iter().map(|&c| self.0[c].clone()).collect()
    }

    /// The projection onto the given columns as a [`Key`]. Projecting
    /// onto every column in order shares the tuple's valuation instead of
    /// copying it.
    ///
    /// # Panics
    ///
    /// Panics if any column index is out of bounds.
    pub fn key(&self, columns: &[usize]) -> Key {
        if columns.len() == self.0.len() && columns.iter().enumerate().all(|(i, &c)| i == c) {
            Key::new(Arc::clone(&self.0))
        } else {
            Key::new(
                columns
                    .iter()
                    .map(|&c| self.0[c].clone())
                    .collect::<Arc<[_]>>(),
            )
        }
    }

    /// Whether two tuples agree on all the given columns.
    pub fn agrees_on(&self, other: &Tuple, columns: &[usize]) -> bool {
        columns
            .iter()
            .all(|&c| self.try_get(c).is_some() && self.try_get(c) == other.try_get(c))
    }

    /// Iterates over the scalar components in column order.
    pub fn iter(&self) -> std::slice::Iter<'_, Scalar> {
        self.0.iter()
    }
}

impl fmt::Display for Tuple {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "(")?;
        for (i, s) in self.0.iter().enumerate() {
            if i > 0 {
                write!(f, ", ")?;
            }
            write!(f, "{s}")?;
        }
        write!(f, ")")
    }
}

impl From<Vec<Scalar>> for Tuple {
    fn from(values: Vec<Scalar>) -> Self {
        Tuple::new(values)
    }
}

impl<'a> IntoIterator for &'a Tuple {
    type Item = &'a Scalar;
    type IntoIter = std::slice::Iter<'a, Scalar>;

    fn into_iter(self) -> Self::IntoIter {
        self.0.iter()
    }
}

/// Builds a tuple from scalar-convertible components.
///
/// ```
/// use janus_relational::{Tuple, Scalar};
/// let t = janus_relational::tuple![1, true, "x"];
/// assert_eq!(t.get(0), &Scalar::Int(1));
/// ```
#[macro_export]
macro_rules! tuple {
    ($($v:expr),* $(,)?) => {
        $crate::Tuple::new(vec![$($crate::Scalar::from($v)),*])
    };
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn projection_and_agreement() {
        let t1 = tuple![1, true, "a"];
        let t2 = tuple![1, false, "a"];
        assert!(t1.agrees_on(&t2, &[0, 2]));
        assert!(!t1.agrees_on(&t2, &[1]));
        assert_eq!(t1.project(&[2, 0]), vec![Scalar::str("a"), Scalar::Int(1)]);
    }

    #[test]
    fn agreement_is_false_out_of_bounds() {
        let t1 = tuple![1];
        let t2 = tuple![1];
        assert!(!t1.agrees_on(&t2, &[3]));
    }

    #[test]
    fn display_roundtrip_shape() {
        let t = tuple![1, true];
        assert_eq!(format!("{t}"), "(1, true)");
    }

    #[test]
    fn iteration_order_is_columnar() {
        let t = tuple![1, 2, 3];
        let ints: Vec<i64> = t.iter().filter_map(Scalar::as_int).collect();
        assert_eq!(ints, vec![1, 2, 3]);
    }
}
