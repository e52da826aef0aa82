//! A fully persistent ordered map for cheap state privatization.
//!
//! §4 of the JANUS paper ("Versioning") prescribes (fully) persistent data
//! structures in the sense of Driscoll et al. to reduce the cost of state
//! privatization: a persistent structure preserves the previous version of
//! itself when modified, so every transaction can snapshot the shared
//! state in O(1) and modify its private copy without copying the whole
//! store.
//!
//! [`PersistentMap`] is a path-copying AVL tree: `get` is O(log n),
//! [`PersistentMap::clone`] — the snapshot operation — is O(1), and
//! `insert`/`remove` are O(log n). Updates go through
//! [`Arc::make_mut`](std::sync::Arc::make_mut): a node on the rewritten
//! path is mutated in place when this version owns it alone and copied
//! only while another version (a snapshot) still shares it. A private
//! copy therefore pays for each shared path once; later updates along
//! the same path are in place.
//!
//! # Example
//!
//! ```
//! use janus_persist::PersistentMap;
//!
//! let mut shared = PersistentMap::new();
//! shared.insert(1, "a");
//! let snapshot = shared.clone();      // O(1) privatization
//! shared.insert(1, "b");              // does not disturb the snapshot
//! assert_eq!(snapshot.get(&1), Some(&"a"));
//! assert_eq!(shared.get(&1), Some(&"b"));
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

use std::borrow::Borrow;
use std::fmt;
use std::sync::Arc;

#[derive(Debug, Clone)]
struct Node<K, V> {
    key: K,
    value: V,
    height: u8,
    size: usize,
    left: Link<K, V>,
    right: Link<K, V>,
}

type Link<K, V> = Option<Arc<Node<K, V>>>;

fn height<K, V>(link: &Link<K, V>) -> u8 {
    link.as_ref().map_or(0, |n| n.height)
}

fn size<K, V>(link: &Link<K, V>) -> usize {
    link.as_ref().map_or(0, |n| n.size)
}

impl<K, V> Node<K, V> {
    /// Recomputes the cached height and size from the children.
    fn refresh(&mut self) {
        self.height = 1 + height(&self.left).max(height(&self.right));
        self.size = 1 + size(&self.left) + size(&self.right);
    }
}

/// A fully persistent ordered map with O(1) snapshots (via `clone`) and
/// O(log n) updates that copy a node only while it is shared.
pub struct PersistentMap<K, V> {
    root: Link<K, V>,
}

impl<K, V> Clone for PersistentMap<K, V> {
    /// O(1): shares the entire tree with the source version.
    fn clone(&self) -> Self {
        PersistentMap {
            root: self.root.clone(),
        }
    }
}

impl<K, V> Default for PersistentMap<K, V> {
    fn default() -> Self {
        PersistentMap::new()
    }
}

impl<K, V> PersistentMap<K, V> {
    /// The empty map.
    pub fn new() -> Self {
        PersistentMap { root: None }
    }

    /// Number of entries.
    pub fn len(&self) -> usize {
        size(&self.root)
    }

    /// Whether the map is empty.
    pub fn is_empty(&self) -> bool {
        self.root.is_none()
    }
}

impl<K: Ord + Clone, V: Clone> PersistentMap<K, V> {
    /// Looks up a key.
    pub fn get<Q>(&self, key: &Q) -> Option<&V>
    where
        K: Borrow<Q>,
        Q: Ord + ?Sized,
    {
        find(&self.root, key)
    }

    /// Whether the key is present.
    pub fn contains_key<Q>(&self, key: &Q) -> bool
    where
        K: Borrow<Q>,
        Q: Ord + ?Sized,
    {
        self.get(key).is_some()
    }

    /// Inserts a key/value pair, returning the previous value if any.
    /// O(log n). Nodes on the path are mutated in place when this map is
    /// their only owner and copied only while another version still
    /// shares them.
    pub fn insert(&mut self, key: K, value: V) -> Option<V> {
        Self::insert_at(&mut self.root, key, value)
    }

    fn insert_at(link: &mut Link<K, V>, key: K, value: V) -> Option<V> {
        let Some(arc) = link else {
            *link = Some(Arc::new(Node {
                key,
                value,
                height: 1,
                size: 1,
                left: None,
                right: None,
            }));
            return None;
        };
        let node = Arc::make_mut(arc);
        let replaced = match key.cmp(&node.key) {
            std::cmp::Ordering::Equal => return Some(std::mem::replace(&mut node.value, value)),
            std::cmp::Ordering::Less => Self::insert_at(&mut node.left, key, value),
            std::cmp::Ordering::Greater => Self::insert_at(&mut node.right, key, value),
        };
        // A replaced value leaves the shape alone; only a new node does not.
        if replaced.is_none() {
            Self::rebalance(link);
        }
        replaced
    }

    /// Removes a key, returning its value if present. O(log n); as for
    /// [`PersistentMap::insert`], only shared nodes are copied, and an
    /// absent key copies nothing.
    pub fn remove<Q>(&mut self, key: &Q) -> Option<V>
    where
        K: Borrow<Q>,
        Q: Ord + ?Sized,
    {
        Self::remove_at(&mut self.root, key, false)
    }

    /// Removes `key` from below `link`. A node this map owns alone is
    /// mutated in place whether or not the key turns up; the first shared
    /// node on the path is copied only after a read-only search below it
    /// has found the key (`found` records that the search passed, so it
    /// runs at most once per removal).
    fn remove_at<Q>(link: &mut Link<K, V>, key: &Q, mut found: bool) -> Option<V>
    where
        K: Borrow<Q>,
        Q: Ord + ?Sized,
    {
        if !found && Arc::get_mut(link.as_mut()?).is_none() {
            find(link, key)?;
            found = true;
        }
        let arc = link.as_mut().expect("checked above");
        let old = match key.cmp(arc.key.borrow()) {
            std::cmp::Ordering::Less => Self::remove_at(&mut Arc::make_mut(arc).left, key, found)?,
            std::cmp::Ordering::Greater => {
                Self::remove_at(&mut Arc::make_mut(arc).right, key, found)?
            }
            std::cmp::Ordering::Equal if arc.left.is_none() || arc.right.is_none() => {
                let node = Arc::unwrap_or_clone(link.take().expect("matched node"));
                *link = node.left.or(node.right);
                return Some(node.value);
            }
            std::cmp::Ordering::Equal => {
                // Replace the entry with its successor (min of right).
                let node = Arc::make_mut(arc);
                let (key, value) = Self::remove_min(&mut node.right);
                node.key = key;
                std::mem::replace(&mut node.value, value)
            }
        };
        Self::rebalance(link);
        Some(old)
    }

    /// Removes and returns the smallest entry of a non-empty subtree.
    fn remove_min(link: &mut Link<K, V>) -> (K, V) {
        let arc = link.as_mut().expect("min of non-empty subtree");
        if arc.left.is_none() {
            let node = Arc::unwrap_or_clone(link.take().expect("min node"));
            *link = node.right;
            return (node.key, node.value);
        }
        let entry = Self::remove_min(&mut Arc::make_mut(arc).left);
        Self::rebalance(link);
        entry
    }

    /// Refreshes the cached height and size of a node whose subtrees
    /// changed, rotating only when their heights differ by more than 1.
    /// The node itself must already be uniquely owned.
    fn rebalance(link: &mut Link<K, V>) {
        let node = Arc::make_mut(link.as_mut().expect("rebalance a node"));
        node.refresh();
        let (hl, hr) = (height(&node.left), height(&node.right));
        if hl > hr + 1 {
            let left = node.left.as_ref().expect("left-heavy implies left child");
            if height(&left.left) < height(&left.right) {
                // Left-right case: straighten the left subtree first.
                Self::rotate_left(&mut node.left);
            }
            Self::rotate_right(link);
        } else if hr > hl + 1 {
            let right = node
                .right
                .as_ref()
                .expect("right-heavy implies right child");
            if height(&right.right) < height(&right.left) {
                Self::rotate_right(&mut node.right);
            }
            Self::rotate_left(link);
        }
    }

    fn rotate_right(link: &mut Link<K, V>) {
        let mut top = link.take().expect("rotation root");
        let top_node = Arc::make_mut(&mut top);
        let mut pivot = top_node.left.take().expect("right rotation pivot");
        let pivot_node = Arc::make_mut(&mut pivot);
        top_node.left = pivot_node.right.take();
        top_node.refresh();
        pivot_node.right = Some(top);
        pivot_node.refresh();
        *link = Some(pivot);
    }

    fn rotate_left(link: &mut Link<K, V>) {
        let mut top = link.take().expect("rotation root");
        let top_node = Arc::make_mut(&mut top);
        let mut pivot = top_node.right.take().expect("left rotation pivot");
        let pivot_node = Arc::make_mut(&mut pivot);
        top_node.right = pivot_node.left.take();
        top_node.refresh();
        pivot_node.left = Some(top);
        pivot_node.refresh();
        *link = Some(pivot);
    }

    /// Iterates over entries in ascending key order.
    pub fn iter(&self) -> Iter<'_, K, V> {
        let mut stack = Vec::new();
        push_left(&self.root, &mut stack);
        Iter { stack }
    }

    /// The keys, in ascending order.
    pub fn keys(&self) -> impl Iterator<Item = &K> {
        self.iter().map(|(k, _)| k)
    }

    /// The values, in ascending key order.
    pub fn values(&self) -> impl Iterator<Item = &V> {
        self.iter().map(|(_, v)| v)
    }
}

/// Looks up `key` in the subtree below `link`.
fn find<'a, K, V, Q>(mut link: &'a Link<K, V>, key: &Q) -> Option<&'a V>
where
    K: Borrow<Q>,
    Q: Ord + ?Sized,
{
    while let Some(node) = link {
        match key.cmp(node.key.borrow()) {
            std::cmp::Ordering::Less => link = &node.left,
            std::cmp::Ordering::Greater => link = &node.right,
            std::cmp::Ordering::Equal => return Some(&node.value),
        }
    }
    None
}

fn push_left<'a, K, V>(mut link: &'a Link<K, V>, stack: &mut Vec<&'a Node<K, V>>) {
    while let Some(node) = link {
        stack.push(node);
        link = &node.left;
    }
}

/// In-order iterator over a [`PersistentMap`], created by
/// [`PersistentMap::iter`].
pub struct Iter<'a, K, V> {
    stack: Vec<&'a Node<K, V>>,
}

impl<'a, K, V> Iterator for Iter<'a, K, V> {
    type Item = (&'a K, &'a V);

    fn next(&mut self) -> Option<Self::Item> {
        let node = self.stack.pop()?;
        push_left(&node.right, &mut self.stack);
        Some((&node.key, &node.value))
    }
}

impl<K: Ord + Clone, V: Clone> FromIterator<(K, V)> for PersistentMap<K, V> {
    fn from_iter<I: IntoIterator<Item = (K, V)>>(iter: I) -> Self {
        let mut m = PersistentMap::new();
        for (k, v) in iter {
            m.insert(k, v);
        }
        m
    }
}

impl<K: Ord + Clone, V: Clone> Extend<(K, V)> for PersistentMap<K, V> {
    fn extend<I: IntoIterator<Item = (K, V)>>(&mut self, iter: I) {
        for (k, v) in iter {
            self.insert(k, v);
        }
    }
}

impl<K: Ord + Clone + fmt::Debug, V: Clone + fmt::Debug> fmt::Debug for PersistentMap<K, V> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_map().entries(self.iter()).finish()
    }
}

impl<K: Ord + Clone, V: Clone + PartialEq> PartialEq for PersistentMap<K, V> {
    fn eq(&self, other: &Self) -> bool {
        self.len() == other.len() && self.iter().zip(other.iter()).all(|(a, b)| a == b)
    }
}

impl<K: Ord + Clone, V: Clone + Eq> Eq for PersistentMap<K, V> {}

#[cfg(test)]
mod tests {
    use super::*;

    fn check_avl<K: Ord + Clone, V: Clone>(link: &Link<K, V>) -> u8 {
        match link {
            None => 0,
            Some(n) => {
                let hl = check_avl(&n.left);
                let hr = check_avl(&n.right);
                assert!(hl.abs_diff(hr) <= 1, "AVL invariant violated");
                assert_eq!(n.height, 1 + hl.max(hr), "height cache wrong");
                assert_eq!(
                    n.size,
                    1 + size(&n.left) + size(&n.right),
                    "size cache wrong"
                );
                n.height
            }
        }
    }

    #[test]
    fn insert_get_remove() {
        let mut m = PersistentMap::new();
        assert!(m.is_empty());
        assert_eq!(m.insert(2, "b"), None);
        assert_eq!(m.insert(1, "a"), None);
        assert_eq!(m.insert(3, "c"), None);
        assert_eq!(m.insert(2, "B"), Some("b"));
        assert_eq!(m.len(), 3);
        assert_eq!(m.get(&2), Some(&"B"));
        assert_eq!(m.remove(&2), Some("B"));
        assert_eq!(m.remove(&2), None);
        assert_eq!(m.len(), 2);
        check_avl(&m.root);
    }

    #[test]
    fn snapshot_isolation() {
        let mut m: PersistentMap<i32, i32> = (0..100).map(|i| (i, i)).collect();
        let snap = m.clone();
        for i in 0..100 {
            m.insert(i, i * 10);
        }
        m.remove(&50);
        for i in 0..100 {
            assert_eq!(snap.get(&i), Some(&i), "snapshot must be unchanged");
        }
        assert_eq!(m.get(&50), None);
        assert_eq!(m.get(&3), Some(&30));
    }

    #[test]
    fn balance_under_ascending_inserts() {
        let m: PersistentMap<i32, ()> = (0..1000).map(|i| (i, ())).collect();
        check_avl(&m.root);
        assert!(height(&m.root) <= 15, "AVL height must be logarithmic");
        assert_eq!(m.len(), 1000);
    }

    #[test]
    fn balance_under_descending_inserts_and_removes() {
        let mut m: PersistentMap<i32, ()> = (0..1000).rev().map(|i| (i, ())).collect();
        check_avl(&m.root);
        for i in (0..1000).step_by(2) {
            assert_eq!(m.remove(&i), Some(()));
        }
        check_avl(&m.root);
        assert_eq!(m.len(), 500);
        for i in 0..1000 {
            assert_eq!(m.contains_key(&i), i % 2 == 1);
        }
    }

    #[test]
    fn balance_under_one_sided_removal() {
        let mut m: PersistentMap<i32, ()> = (0..1000).map(|i| (i, ())).collect();
        let snap = m.clone();
        for i in 0..900 {
            assert_eq!(m.remove(&i), Some(()));
            check_avl(&m.root);
        }
        assert_eq!(
            m.keys().copied().collect::<Vec<_>>(),
            (900..1000).collect::<Vec<_>>()
        );
        check_avl(&snap.root);
        assert_eq!(snap.len(), 1000);
    }

    #[test]
    fn in_place_updates_keep_invariants_and_spare_snapshots() {
        let mut m: PersistentMap<i32, i32> = PersistentMap::new();
        let mut versions = Vec::new();
        for round in 0..6 {
            for i in 0..300 {
                let k = (i * 7919 + round * 31) % 500;
                if (i + round) % 3 == 0 {
                    m.remove(&k);
                } else {
                    m.insert(k, round);
                }
            }
            check_avl(&m.root);
            let frozen: Vec<(i32, i32)> = m.iter().map(|(k, v)| (*k, *v)).collect();
            versions.push((m.clone(), frozen));
        }
        for (snap, frozen) in &versions {
            check_avl(&snap.root);
            assert!(snap
                .iter()
                .map(|(k, v)| (*k, *v))
                .eq(frozen.iter().copied()));
        }
    }

    #[test]
    fn unshared_insert_mutates_in_place() {
        let mut m: PersistentMap<i32, i32> = (0..64).map(|i| (i, i)).collect();
        let root = Arc::as_ptr(m.root.as_ref().unwrap());
        m.insert(5, 50);
        assert_eq!(
            Arc::as_ptr(m.root.as_ref().unwrap()),
            root,
            "unique root reused"
        );
        let snap = m.clone();
        m.insert(6, 60);
        assert_ne!(
            Arc::as_ptr(m.root.as_ref().unwrap()),
            root,
            "shared root copied"
        );
        assert_eq!(snap.get(&6), Some(&6));
        assert_eq!(m.get(&6), Some(&60));
    }

    #[test]
    fn remove_copies_only_once_the_key_is_found() {
        let mut m: PersistentMap<i32, i32> = (0..64).map(|i| (i, i)).collect();
        let snap = m.clone();
        assert_eq!(m.remove(&100), None);
        assert!(
            Arc::ptr_eq(m.root.as_ref().unwrap(), snap.root.as_ref().unwrap()),
            "absent key: shared root kept"
        );
        assert_eq!(m.remove(&5), Some(5));
        assert!(!Arc::ptr_eq(
            m.root.as_ref().unwrap(),
            snap.root.as_ref().unwrap()
        ));
        let root = Arc::as_ptr(m.root.as_ref().unwrap());
        assert_eq!(m.remove(&100), None);
        assert_eq!(m.remove(&6), Some(6));
        assert_eq!(
            Arc::as_ptr(m.root.as_ref().unwrap()),
            root,
            "unique root reused"
        );
        check_avl(&m.root);
        assert_eq!(snap.len(), 64);
        assert_eq!(m.len(), 62);
    }

    #[test]
    fn iteration_is_sorted() {
        let m: PersistentMap<i32, i32> = [(5, 50), (1, 10), (3, 30), (2, 20), (4, 40)]
            .into_iter()
            .collect();
        let keys: Vec<i32> = m.keys().copied().collect();
        assert_eq!(keys, vec![1, 2, 3, 4, 5]);
        let values: Vec<i32> = m.values().copied().collect();
        assert_eq!(values, vec![10, 20, 30, 40, 50]);
    }

    #[test]
    fn borrowed_key_lookup() {
        let mut m = PersistentMap::new();
        m.insert(String::from("alpha"), 1);
        assert_eq!(m.get("alpha"), Some(&1));
        assert_eq!(m.remove("alpha"), Some(1));
    }

    #[test]
    fn equality_is_structural() {
        let a: PersistentMap<i32, i32> = [(1, 1), (2, 2)].into_iter().collect();
        let b: PersistentMap<i32, i32> = [(2, 2), (1, 1)].into_iter().collect();
        assert_eq!(a, b);
        let mut c = b.clone();
        c.insert(3, 3);
        assert_ne!(a, c);
    }

    #[test]
    fn remove_from_empty() {
        let mut m: PersistentMap<i32, i32> = PersistentMap::new();
        assert_eq!(m.remove(&1), None);
    }

    #[test]
    fn many_versions_coexist() {
        let mut versions = Vec::new();
        let mut m = PersistentMap::new();
        for i in 0..50 {
            m.insert(i, i);
            versions.push(m.clone());
        }
        for (i, v) in versions.iter().enumerate() {
            assert_eq!(v.len(), i + 1);
            assert_eq!(v.get(&(i as i32)), Some(&(i as i32)));
            assert_eq!(v.get(&(i as i32 + 1)), None);
        }
    }

    #[test]
    fn debug_format() {
        let m: PersistentMap<i32, i32> = [(1, 10)].into_iter().collect();
        assert_eq!(format!("{m:?}"), "{1: 10}");
    }
}
