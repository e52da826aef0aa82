//! Relation schemas and functional dependencies.

use std::fmt;
use std::sync::Arc;

/// A functional dependency `C1 -> C2` (§6.1).
///
/// Each relation has at most one FD, and when present its domain and range
/// partition the relation's columns — specializing the relation as a
/// function mapping "locations" (domain valuations) to "values" (range
/// valuations).
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
pub struct Fd {
    domain: Vec<usize>,
    range: Vec<usize>,
}

impl Fd {
    /// Creates a functional dependency with the given domain and range
    /// column indices.
    ///
    /// # Panics
    ///
    /// Panics if the domain is empty or if the domain and range overlap.
    pub fn new(domain: &[usize], range: &[usize]) -> Self {
        assert!(!domain.is_empty(), "FD domain must not be empty");
        assert!(
            domain.iter().all(|d| !range.contains(d)),
            "FD domain and range must be disjoint"
        );
        Fd {
            domain: domain.to_vec(),
            range: range.to_vec(),
        }
    }

    /// The domain column indices (`C1`).
    pub fn domain(&self) -> &[usize] {
        &self.domain
    }

    /// The range column indices (`C2`).
    pub fn range(&self) -> &[usize] {
        &self.range
    }
}

/// The schema of a [`crate::Relation`]: named columns plus an optional
/// functional dependency whose domain and range partition the columns.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Schema {
    columns: Vec<String>,
    fd: Option<Fd>,
    /// [`Schema::key_columns`], computed once.
    key_columns: Vec<usize>,
}

impl Schema {
    /// Creates a schema without a functional dependency.
    pub fn new(columns: &[&str]) -> Arc<Self> {
        Arc::new(Schema {
            columns: columns.iter().map(|c| c.to_string()).collect(),
            fd: None,
            key_columns: (0..columns.len()).collect(),
        })
    }

    /// Creates a schema with a functional dependency.
    ///
    /// # Panics
    ///
    /// Panics if the FD's domain and range do not partition the columns.
    pub fn with_fd(columns: &[&str], fd: Fd) -> Arc<Self> {
        let n = columns.len();
        let mut seen = vec![false; n];
        for &c in fd.domain().iter().chain(fd.range()) {
            assert!(c < n, "FD column {c} out of bounds for {n} columns");
            assert!(!seen[c], "FD mentions column {c} twice");
            seen[c] = true;
        }
        assert!(
            seen.iter().all(|&s| s),
            "FD domain and range must partition the columns"
        );
        Arc::new(Schema {
            columns: columns.iter().map(|c| c.to_string()).collect(),
            key_columns: fd.domain().to_vec(),
            fd: Some(fd),
        })
    }

    /// The number of columns.
    pub fn arity(&self) -> usize {
        self.columns.len()
    }

    /// The column names, in positional order.
    pub fn columns(&self) -> &[String] {
        &self.columns
    }

    /// The functional dependency, if any.
    pub fn fd(&self) -> Option<&Fd> {
        self.fd.as_ref()
    }

    /// The columns that identify a tuple for matching purposes: the FD
    /// domain when an FD is present, otherwise all columns.
    pub fn key_columns(&self) -> &[usize] {
        &self.key_columns
    }
}

impl fmt::Display for Schema {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "[{}]", self.columns.join(", "))?;
        if let Some(fd) = &self.fd {
            write!(f, " fd {:?}->{:?}", fd.domain(), fd.range())?;
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn fd_partition_is_validated() {
        let s = Schema::with_fd(&["k", "v"], Fd::new(&[0], &[1]));
        assert_eq!(s.key_columns(), &[0]);
    }

    #[test]
    #[should_panic(expected = "partition")]
    fn fd_must_cover_all_columns() {
        let _ = Schema::with_fd(&["a", "b", "c"], Fd::new(&[0], &[1]));
    }

    #[test]
    #[should_panic(expected = "disjoint")]
    fn fd_domain_range_disjoint() {
        let _ = Fd::new(&[0, 1], &[1]);
    }

    #[test]
    fn no_fd_keys_are_all_columns() {
        let s = Schema::new(&["a", "b"]);
        assert_eq!(s.key_columns(), &[0, 1]);
        assert!(s.fd().is_none());
    }

    #[test]
    fn multi_column_fd() {
        let s = Schema::with_fd(&["x", "y", "color"], Fd::new(&[0, 1], &[2]));
        assert_eq!(s.key_columns(), &[0, 1]);
        assert_eq!(s.arity(), 3);
    }
}
