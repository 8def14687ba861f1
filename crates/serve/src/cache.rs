//! Content-addressed LRU result cache.
//!
//! Entries are keyed by the request's FNV-1a 64 content hash; the
//! canonical request text is stored alongside and compared on lookup,
//! so a (vanishingly unlikely) hash collision degrades to a miss rather
//! than serving the wrong response. Recency is a plain vector —
//! most-recently-used at the back — which keeps iteration order (and
//! therefore every test and metric derived from it) fully
//! deterministic.

use pvc_core::Json;

#[derive(Debug, Clone)]
struct Entry {
    key: u64,
    text: String,
    value: Json,
}

/// A bounded LRU cache of response bodies.
#[derive(Debug)]
pub struct ResultCache {
    cap: usize,
    /// LRU order: index 0 is the eviction candidate.
    entries: Vec<Entry>,
}

impl ResultCache {
    /// A cache holding at most `cap` entries. `cap == 0` disables
    /// caching entirely (every insert is an immediate no-op).
    pub fn new(cap: usize) -> Self {
        ResultCache { cap, entries: Vec::new() }
    }

    /// Looks up `key`, verifying `text` to guard against collisions.
    /// A hit refreshes the entry's recency.
    pub fn get(&mut self, key: u64, text: &str) -> Option<Json> {
        let i = self
            .entries
            .iter()
            .position(|e| e.key == key && e.text == text)?;
        let e = self.entries.remove(i);
        let v = e.value.clone();
        self.entries.push(e);
        Some(v)
    }

    /// Inserts (or refreshes) an entry; returns the number of entries
    /// evicted to make room (0 or 1).
    pub fn insert(&mut self, key: u64, text: &str, value: Json) -> usize {
        if self.cap == 0 {
            return 0;
        }
        if let Some(i) = self
            .entries
            .iter()
            .position(|e| e.key == key && e.text == text)
        {
            self.entries.remove(i);
        }
        let mut evicted = 0;
        while self.entries.len() >= self.cap {
            self.entries.remove(0);
            evicted += 1;
        }
        self.entries.push(Entry { key, text: text.to_string(), value });
        evicted
    }

    /// Number of live entries.
    pub fn len(&self) -> usize {
        self.entries.len()
    }

    /// True when nothing is cached.
    pub fn is_empty(&self) -> bool {
        self.entries.is_empty()
    }

    /// Keys in LRU order (front = next eviction candidate).
    #[cfg(test)]
    fn keys_lru_order(&self) -> Vec<u64> {
        self.entries.iter().map(|e| e.key).collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn v(i: i64) -> Json {
        Json::Int(i)
    }

    #[test]
    fn eviction_is_lru_not_fifo() {
        let mut c = ResultCache::new(2);
        assert_eq!(c.insert(1, "a", v(1)), 0);
        assert_eq!(c.insert(2, "b", v(2)), 0);
        // Touch 1: it becomes most-recent, so inserting 3 evicts 2.
        assert_eq!(c.get(1, "a"), Some(v(1)));
        assert_eq!(c.insert(3, "c", v(3)), 1);
        assert_eq!(c.keys_lru_order(), vec![1, 3]);
        assert_eq!(c.get(2, "b"), None, "2 was the LRU victim");
    }

    #[test]
    fn reinsert_refreshes_without_growing() {
        let mut c = ResultCache::new(2);
        c.insert(1, "a", v(1));
        c.insert(2, "b", v(2));
        assert_eq!(c.insert(1, "a", v(10)), 0, "refresh evicts nothing");
        assert_eq!(c.len(), 2);
        assert_eq!(c.get(1, "a"), Some(v(10)));
        assert_eq!(c.keys_lru_order(), vec![2, 1]);
    }

    #[test]
    fn collision_with_different_text_misses() {
        let mut c = ResultCache::new(4);
        c.insert(42, "request A", v(1));
        assert_eq!(c.get(42, "request B"), None, "text guard must hold");
        assert_eq!(c.get(42, "request A"), Some(v(1)));
    }

    #[test]
    fn zero_capacity_disables_caching() {
        let mut c = ResultCache::new(0);
        assert_eq!(c.insert(1, "a", v(1)), 0);
        assert!(c.is_empty());
        assert_eq!(c.get(1, "a"), None);
    }
}
