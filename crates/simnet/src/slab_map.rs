//! [`SortedSlab`] — a flat ordered map for hashable protocol state.
//!
//! The deduplicating explorer ([`explore`](mod@crate::explore)) encodes
//! protocol state through `std::hash::Hash` after every dispatch; a `BTreeMap`
//! there means the hasher pointer-chases tree nodes on every
//! canonicalization. `SortedSlab` keeps the same canonical semantics —
//! entries ordered by key, order-independent equality and hashing — in
//! one contiguous `Vec<(K, V)>`, so the encoder walks (and hashes)
//! adjacent words instead of a tree. Protocol maps are tiny (per-peer
//! sequence counters, a handful of in-flight frames), which makes the
//! `O(n)` shifts of sorted-vector insertion cheaper in practice than
//! tree rebalancing, and lookups a branch-predictable binary search.
//!
//! Serde encodes a slab exactly like the `BTreeMap` it replaces — a
//! JSON object keyed by the stringified keys in ascending order — so
//! wire tags and golden traces are byte-identical across the swap.

use serde::{Deserialize, Error, MapKey, Serialize, Value};

/// An ordered map stored as a key-sorted `Vec<(K, V)>`.
///
/// Drop-in for the `BTreeMap` patterns protocol state uses: `Hash`,
/// `Eq` and iteration all follow ascending key order, so any two slabs
/// holding the same entries are indistinguishable — the property the
/// explorer's configuration dedup relies on.
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
pub struct SortedSlab<K, V> {
    entries: Vec<(K, V)>,
}

impl<K, V> Default for SortedSlab<K, V> {
    fn default() -> Self {
        SortedSlab {
            entries: Vec::new(),
        }
    }
}

impl<K: Ord, V> SortedSlab<K, V> {
    /// An empty map.
    pub fn new() -> Self {
        SortedSlab::default()
    }

    /// Number of entries.
    pub fn len(&self) -> usize {
        self.entries.len()
    }

    /// Whether the map is empty.
    pub fn is_empty(&self) -> bool {
        self.entries.is_empty()
    }

    fn position(&self, key: &K) -> Result<usize, usize> {
        self.entries.binary_search_by(|(k, _)| k.cmp(key))
    }

    /// Looks up `key`.
    pub fn get(&self, key: &K) -> Option<&V> {
        self.position(key).ok().map(|i| &self.entries[i].1)
    }

    /// Mutable lookup of `key`.
    pub fn get_mut(&mut self, key: &K) -> Option<&mut V> {
        match self.position(key) {
            Ok(i) => Some(&mut self.entries[i].1),
            Err(_) => None,
        }
    }

    /// Inserts `key → value`, returning the previous value if any.
    pub fn insert(&mut self, key: K, value: V) -> Option<V> {
        match self.position(&key) {
            Ok(i) => Some(std::mem::replace(&mut self.entries[i].1, value)),
            Err(i) => {
                self.entries.insert(i, (key, value));
                None
            }
        }
    }

    /// Removes `key`, returning its value if present.
    pub fn remove(&mut self, key: &K) -> Option<V> {
        match self.position(key) {
            Ok(i) => Some(self.entries.remove(i).1),
            Err(_) => None,
        }
    }

    /// The value under `key`, inserting `make()` first if absent — the
    /// `entry(k).or_insert_with(make)` pattern.
    pub fn get_or_insert_with(&mut self, key: K, make: impl FnOnce() -> V) -> &mut V {
        let i = match self.position(&key) {
            Ok(i) => i,
            Err(i) => {
                self.entries.insert(i, (key, make()));
                i
            }
        };
        &mut self.entries[i].1
    }

    /// Entries in ascending key order.
    pub fn iter(&self) -> impl Iterator<Item = (&K, &V)> {
        self.entries.iter().map(|(k, v)| (k, v))
    }
}

impl<K: Ord, V> FromIterator<(K, V)> for SortedSlab<K, V> {
    fn from_iter<I: IntoIterator<Item = (K, V)>>(iter: I) -> Self {
        let mut m = SortedSlab::new();
        for (k, v) in iter {
            m.insert(k, v);
        }
        m
    }
}

impl<'a, K, V> IntoIterator for &'a SortedSlab<K, V> {
    type Item = &'a (K, V);
    type IntoIter = std::slice::Iter<'a, (K, V)>;

    fn into_iter(self) -> Self::IntoIter {
        self.entries.iter()
    }
}

impl<K: MapKey + Ord, V: Serialize> Serialize for SortedSlab<K, V> {
    fn to_json_value(&self) -> Value {
        let mut m = serde::Map::new();
        for (k, v) in &self.entries {
            m.insert(k.to_key(), v.to_json_value());
        }
        Value::Object(m)
    }
}

impl<K: MapKey + Ord, V: Deserialize> Deserialize for SortedSlab<K, V> {
    fn from_json_value(v: &Value) -> Result<Self, Error> {
        match v {
            Value::Object(m) => m
                .iter()
                .map(|(k, v)| Ok((K::from_key(k)?, V::from_json_value(v)?)))
                .collect(),
            other => Err(Error::new(format!("expected object, got {other:?}"))),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::collections::hash_map::DefaultHasher;
    use std::collections::BTreeMap;
    use std::hash::{Hash, Hasher};

    #[test]
    fn insert_get_remove_roundtrip() {
        let mut m = SortedSlab::new();
        assert!(m.is_empty());
        assert_eq!(m.insert(3u64, "c"), None);
        assert_eq!(m.insert(1, "a"), None);
        assert_eq!(m.insert(2, "b"), None);
        assert_eq!(m.insert(2, "B"), Some("b"));
        assert_eq!(m.len(), 3);
        assert_eq!(m.get(&2), Some(&"B"));
        assert_eq!(m.get(&9), None);
        *m.get_mut(&1).unwrap() = "A";
        assert_eq!(m.remove(&1), Some("A"));
        assert_eq!(m.remove(&1), None);
        let keys: Vec<u64> = m.iter().map(|(k, _)| *k).collect();
        assert_eq!(keys, vec![2, 3], "ascending key order");
    }

    #[test]
    fn get_or_insert_with_matches_entry_semantics() {
        let mut m: SortedSlab<usize, u64> = SortedSlab::new();
        *m.get_or_insert_with(7, || 0) += 1;
        *m.get_or_insert_with(7, || 100) += 1;
        assert_eq!(m.get(&7), Some(&2));
    }

    /// Equal contents hash equal regardless of insertion order — the
    /// canonical-digest property the explorer dedup requires.
    #[test]
    fn hash_is_insertion_order_independent() {
        let a: SortedSlab<usize, u64> = [(1, 10), (2, 20), (3, 30)].into_iter().collect();
        let b: SortedSlab<usize, u64> = [(3, 30), (1, 10), (2, 20)].into_iter().collect();
        assert_eq!(a, b);
        let digest = |m: &SortedSlab<usize, u64>| {
            let mut h = DefaultHasher::new();
            m.hash(&mut h);
            h.finish()
        };
        assert_eq!(digest(&a), digest(&b));
    }

    /// The serde encoding is byte-identical to the `BTreeMap` this type
    /// replaces, keeping wire tags and golden traces stable.
    #[test]
    fn serializes_like_btreemap() {
        let slab: SortedSlab<usize, Vec<u64>> =
            [(2, vec![5, 6]), (0, vec![1])].into_iter().collect();
        let tree: BTreeMap<usize, Vec<u64>> = [(2, vec![5, 6]), (0, vec![1])].into_iter().collect();
        let a = serde_json::to_vec(&slab).unwrap();
        let b = serde_json::to_vec(&tree).unwrap();
        assert_eq!(a, b);
        let back: SortedSlab<usize, Vec<u64>> = serde_json::from_slice(&a).unwrap();
        assert_eq!(back, slab);
    }
}
