//! Input generation (Table 6).
//!
//! Inputs for the training and production runs are synthesized from
//! seeded RNGs, at the scales the paper reports: random directory-pair
//! lists of length 5/10 (training) and 25/100 (production) for JFileSync;
//! random simple graphs with 100 nodes of average degree 5/10 (training)
//! and 1000 nodes of degree 5/10 (production) for the JGraphT
//! algorithms; and analogous scales for PMD's source-file lists and
//! Weka's random Bayesian networks.

use rand::rngs::SmallRng;
use rand::{Rng, SeedableRng};

/// A sized, seeded input specification; each workload interprets `scale`
/// and `degree` per its Table 6 row.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct InputSpec {
    /// The primary size knob: list length for JFileSync/PMD, node count
    /// for the graph workloads.
    pub scale: usize,
    /// The secondary knob: average degree for graphs, subtree size for
    /// directory trees, file size for PMD.
    pub degree: usize,
    /// RNG seed (all generation is deterministic given the spec).
    pub seed: u64,
}

impl InputSpec {
    /// Creates a specification.
    pub fn new(scale: usize, degree: usize, seed: u64) -> Self {
        InputSpec {
            scale,
            degree,
            seed,
        }
    }

    /// The seeded RNG for this input.
    pub fn rng(&self) -> SmallRng {
        SmallRng::seed_from_u64(self.seed ^ (self.scale as u64) << 32 ^ self.degree as u64)
    }
}

/// A synthetic directory tree (a JFileSync directory-pair side).
#[derive(Debug, Clone)]
pub struct DirTree {
    /// Number of files directly in this directory.
    pub files: usize,
    /// Total comparison weight of the subtree.
    pub weight: u64,
    /// Subdirectories.
    pub children: Vec<DirTree>,
}

impl DirTree {
    /// Generates a random tree with roughly `degree` entries per level
    /// and bounded depth.
    pub fn generate(rng: &mut SmallRng, degree: usize, depth: usize) -> DirTree {
        let files = rng.gen_range(1..=degree.max(1));
        let children = if depth == 0 {
            Vec::new()
        } else {
            (0..rng.gen_range(0..=degree.min(3)))
                .map(|_| DirTree::generate(rng, degree, depth - 1))
                .collect()
        };
        let weight = files as u64 + children.iter().map(|c| c.weight).sum::<u64>();
        DirTree {
            files,
            weight,
            children,
        }
    }

    /// Total number of directories in the subtree (including this one).
    pub fn dir_count(&self) -> usize {
        1 + self.children.iter().map(DirTree::dir_count).sum::<usize>()
    }
}

/// A random simple undirected graph in adjacency-list form.
#[derive(Debug, Clone)]
pub struct Graph {
    /// `neighbors[v]` = the adjacency list of node `v`.
    pub neighbors: Vec<Vec<usize>>,
}

impl Graph {
    /// Generates a random simple graph with `nodes` nodes and expected
    /// average degree `degree`.
    pub fn generate(rng: &mut SmallRng, nodes: usize, degree: usize) -> Graph {
        let mut neighbors = vec![Vec::new(); nodes];
        if nodes < 2 {
            return Graph { neighbors };
        }
        let edges = nodes * degree / 2;
        let mut seen = std::collections::BTreeSet::new();
        for _ in 0..edges {
            let a = rng.gen_range(0..nodes);
            let b = rng.gen_range(0..nodes);
            if a == b {
                continue;
            }
            let key = (a.min(b), a.max(b));
            if seen.insert(key) {
                neighbors[a].push(b);
                neighbors[b].push(a);
            }
        }
        Graph { neighbors }
    }

    /// Number of nodes.
    pub fn len(&self) -> usize {
        self.neighbors.len()
    }

    /// Whether the graph has no nodes.
    pub fn is_empty(&self) -> bool {
        self.neighbors.is_empty()
    }
}

/// A synthetic Java source file for PMD: a stream of token codes.
#[derive(Debug, Clone)]
pub struct SourceFile {
    /// A display name.
    pub name: String,
    /// Token codes (0..64); rule analysis scans these.
    pub tokens: Vec<u8>,
}

impl SourceFile {
    /// Generates a file of roughly `size` tokens.
    pub fn generate(rng: &mut SmallRng, index: usize, size: usize) -> SourceFile {
        let len = rng.gen_range(size / 2..=size.max(2));
        SourceFile {
            name: format!("src/File{index}.java"),
            tokens: (0..len).map(|_| rng.gen_range(0..64u8)).collect(),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn generation_is_deterministic() {
        let spec = InputSpec::new(10, 5, 42);
        let g1 = Graph::generate(&mut spec.rng(), 50, 4);
        let g2 = Graph::generate(&mut spec.rng(), 50, 4);
        assert_eq!(g1.neighbors, g2.neighbors);
        let t1 = DirTree::generate(&mut spec.rng(), 3, 2);
        let t2 = DirTree::generate(&mut spec.rng(), 3, 2);
        assert_eq!(t1.weight, t2.weight);
    }

    #[test]
    fn graph_is_simple_and_undirected() {
        let spec = InputSpec::new(100, 6, 7);
        let g = Graph::generate(&mut spec.rng(), 100, 6);
        assert_eq!(g.len(), 100);
        for (v, ns) in g.neighbors.iter().enumerate() {
            let mut sorted = ns.clone();
            sorted.sort_unstable();
            sorted.dedup();
            assert_eq!(sorted.len(), ns.len(), "no multi-edges at {v}");
            assert!(!ns.contains(&v), "no self loops at {v}");
            for &u in ns {
                assert!(g.neighbors[u].contains(&v), "undirected edge {v}-{u}");
            }
        }
        // Average degree in the right ballpark.
        assert!(g.neighbors.iter().map(Vec::len).sum::<usize>() > 200);
    }

    #[test]
    fn dir_tree_weight_is_consistent() {
        let spec = InputSpec::new(5, 4, 1);
        let t = DirTree::generate(&mut spec.rng(), 4, 3);
        fn total(t: &DirTree) -> u64 {
            t.files as u64 + t.children.iter().map(total).sum::<u64>()
        }
        assert_eq!(t.weight, total(&t));
        assert!(t.dir_count() >= 1);
    }

    #[test]
    fn source_files_have_tokens() {
        let spec = InputSpec::new(5, 100, 3);
        let f = SourceFile::generate(&mut spec.rng(), 2, 100);
        assert!(f.tokens.len() >= 50);
        assert!(f.name.contains("File2"));
        assert!(f.tokens.iter().all(|&t| t < 64));
    }
}
