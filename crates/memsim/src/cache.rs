//! Set-associative LRU cache simulation.
//!
//! [`CacheSim`] models one cache level; [`Hierarchy`] stacks levels in
//! front of device memory and reports, per access, the level that
//! serviced it. Latencies are attached by the caller (they live in
//! [`pvc_arch::CacheLevel`]), keeping this module a pure hit/miss engine.

use pvc_arch::{CacheLevel, Partition};

/// Where lines land in one set-associative cache. [`CacheSim`] indexes
/// its tags with it, and the counted pointer chase
/// ([`ChaseCycle::chase`](crate::ChaseCycle::chase)) its per-set
/// counters, so the two cannot disagree about a line's set.
#[derive(Debug, Clone, Copy)]
pub(crate) struct SetGeometry {
    line_bytes: u64,
    /// A power of two, so a line's set is its low index bits.
    sets: u64,
    ways: usize,
}

impl SetGeometry {
    /// The geometry of the cache [`CacheSim::new`] builds.
    pub(crate) fn new(size_bytes: u64, line_bytes: u32, associativity: u32) -> Self {
        assert!(line_bytes > 0 && associativity > 0 && size_bytes > 0);
        let raw_sets = size_bytes / (line_bytes as u64 * associativity as u64);
        assert!(raw_sets > 0, "cache smaller than one set");
        SetGeometry {
            line_bytes: line_bytes as u64,
            sets: 1u64 << (63 - raw_sets.leading_zeros()),
            ways: associativity as usize,
        }
    }

    /// The geometry of one level of a partition's hierarchy.
    pub(crate) fn of(c: &CacheLevel) -> Self {
        Self::new(c.size_bytes, c.line_bytes, c.associativity)
    }

    pub(crate) fn sets(&self) -> usize {
        self.sets as usize
    }

    pub(crate) fn ways(&self) -> usize {
        self.ways
    }

    /// The set holding line number `line` (the address divided by the
    /// line size).
    pub(crate) fn set_of(&self, line: u64) -> usize {
        (line & (self.sets - 1)) as usize
    }
}

/// One set-associative cache with true-LRU replacement.
#[derive(Debug, Clone)]
pub struct CacheSim {
    geometry: SetGeometry,
    /// `tags[set * ways..][..ways]` holds one set's tags ordered from
    /// MRU to LRU; `u64::MAX` marks an empty way.
    tags: Vec<u64>,
    hits: u64,
    misses: u64,
}

impl CacheSim {
    /// Builds a cache of `size_bytes` with the given geometry. Set count
    /// is derived as `size / (line * assoc)` and rounded down to a power
    /// of two (hardware indexes with address bits).
    ///
    /// # Panics
    /// Panics if the geometry is degenerate (zero lines or ways).
    pub fn new(size_bytes: u64, line_bytes: u32, associativity: u32) -> Self {
        let geometry = SetGeometry::new(size_bytes, line_bytes, associativity);
        CacheSim {
            geometry,
            tags: vec![u64::MAX; geometry.sets() * geometry.ways()],
            hits: 0,
            misses: 0,
        }
    }

    /// Effective capacity in bytes after power-of-two rounding of the
    /// set count.
    pub fn capacity(&self) -> u64 {
        let g = &self.geometry;
        g.sets * g.ways as u64 * g.line_bytes
    }

    /// Accesses the line containing `addr`; returns true on hit. Misses
    /// fill the line (allocate-on-miss) evicting the LRU way.
    pub fn access(&mut self, addr: u64) -> bool {
        let g = &self.geometry;
        let line = addr / g.line_bytes;
        let tag = line / g.sets;
        let base = g.set_of(line) * g.ways;
        let ways = &mut self.tags[base..base + g.ways];

        if let Some(pos) = ways.iter().position(|&t| t == tag) {
            ways[..=pos].rotate_right(1);
            self.hits += 1;
            true
        } else {
            ways.rotate_right(1);
            ways[0] = tag;
            self.misses += 1;
            false
        }
    }

    /// (hits, misses) counters since construction.
    pub fn stats(&self) -> (u64, u64) {
        (self.hits, self.misses)
    }

    /// Resets counters (not contents).
    pub fn reset_stats(&mut self) {
        self.hits = 0;
        self.misses = 0;
    }
}

/// A multi-level hierarchy backed by device memory.
///
/// Built from a [`Partition`]: *private* levels use their per-compute-unit
/// capacity (a pointer chase runs on a single sub-group, which lives on a
/// single Xe-Core/SM/CU and sees only that unit's private cache), shared
/// levels their full capacity.
#[derive(Debug, Clone)]
pub struct Hierarchy {
    levels: Vec<CacheSim>,
    latencies: Vec<f64>,
    mem_latency: f64,
}

impl Hierarchy {
    /// Builds the hierarchy seen by one sub-group on `partition`.
    pub fn for_partition(partition: &Partition) -> Self {
        let mut levels = Vec::new();
        let mut latencies = Vec::new();
        for c in &partition.caches {
            levels.push(Self::level_sim(c));
            latencies.push(c.latency_cycles);
        }
        Hierarchy {
            levels,
            latencies,
            mem_latency: partition.memory.latency_cycles,
        }
    }

    fn level_sim(c: &CacheLevel) -> CacheSim {
        CacheSim::new(c.size_bytes, c.line_bytes, c.associativity)
    }

    /// Number of cache levels (excluding memory).
    pub fn depth(&self) -> usize {
        self.levels.len()
    }

    /// Accesses `addr`, returning the latency in cycles of the level that
    /// serviced it. All levels above the hit level allocate the line
    /// (inclusive fill).
    pub fn access(&mut self, addr: u64) -> f64 {
        for (i, level) in self.levels.iter_mut().enumerate() {
            if level.access(addr) {
                return self.latencies[i];
            }
        }
        self.mem_latency
    }

    /// Accesses `addr`, returning the index of the level that serviced it
    /// (`depth()` means device memory).
    pub fn access_level(&mut self, addr: u64) -> usize {
        for (i, level) in self.levels.iter_mut().enumerate() {
            if level.access(addr) {
                return i;
            }
        }
        self.levels.len()
    }

    /// Latency in cycles of level `i` (`depth()` = memory).
    pub fn level_latency(&self, i: usize) -> f64 {
        if i < self.latencies.len() {
            self.latencies[i]
        } else {
            self.mem_latency
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use pvc_arch::systems::pvc_aurora_gpu;
    use pvc_core::check::check;
    use pvc_core::ensure;

    #[test]
    fn repeated_access_hits() {
        let mut c = CacheSim::new(1024, 64, 4);
        assert!(!c.access(0));
        assert!(c.access(0));
        assert!(c.access(63)); // same line
        assert!(!c.access(64)); // next line
        assert_eq!(c.stats(), (2, 2));
    }

    #[test]
    fn capacity_working_set_fits() {
        // 4 KiB cache, 64 B lines, 4-way: chase 4 KiB repeatedly — after
        // the first pass everything hits.
        let mut c = CacheSim::new(4096, 64, 4);
        for addr in (0..4096u64).step_by(64) {
            c.access(addr);
        }
        c.reset_stats();
        for _ in 0..3 {
            for addr in (0..4096u64).step_by(64) {
                assert!(c.access(addr));
            }
        }
        assert_eq!(c.stats().1, 0);
    }

    #[test]
    fn oversized_working_set_thrashes_lru() {
        // Working set 2x the cache with sequential cyclic access: LRU
        // evicts each line just before reuse, so every access misses.
        let mut c = CacheSim::new(4096, 64, 4);
        for _ in 0..4 {
            for addr in (0..8192u64).step_by(64) {
                c.access(addr);
            }
        }
        let (hits, _) = c.stats();
        assert_eq!(hits, 0);
    }

    #[test]
    fn lru_prefers_recent_lines() {
        // 1 set of 2 ways (128 B cache, 64 B lines, 2-way).
        let mut c = CacheSim::new(128, 64, 2);
        c.access(0); // A miss
        c.access(128); // B miss (same set)
        c.access(0); // A hit, becomes MRU
        c.access(256); // C miss, evicts B
        assert!(c.access(0), "A should still be cached");
        assert!(!c.access(128), "B was the LRU victim");
    }

    #[test]
    fn set_count_rounds_to_power_of_two() {
        // 192 MiB, 64 B lines, 16-way => raw sets = 196608 -> 131072.
        let c = CacheSim::new(192 * 1024 * 1024, 64, 16);
        assert_eq!(c.capacity(), 128 * 1024 * 1024);
    }

    #[test]
    fn hierarchy_levels_service_in_order() {
        let gpu = pvc_aurora_gpu();
        let mut h = Hierarchy::for_partition(&gpu.partition);
        assert_eq!(h.depth(), 2);
        // Cold access: memory latency.
        assert_eq!(h.access(0), 860.0);
        // Now resident in both levels: L1 latency.
        assert_eq!(h.access(0), 64.0);
    }

    #[test]
    fn hierarchy_l2_hit_after_l1_eviction() {
        let gpu = pvc_aurora_gpu();
        let mut h = Hierarchy::for_partition(&gpu.partition);
        // Touch a working set of 2 MiB: far beyond the 512 KiB L1 but
        // tiny inside the 192 MiB L2.
        let lines: Vec<u64> = (0..(2 * 1024 * 1024u64)).step_by(64).collect();
        for &a in &lines {
            h.access(a);
        }
        // Second pass: every access must come from L2 (L1 thrashes at
        // this footprint under LRU, L2 holds everything).
        for &a in &lines {
            let lat = h.access(a);
            assert_eq!(lat, 390.0, "expected L2 service at addr {a}");
        }
    }

    /// A minimal true-LRU reference, written independently of
    /// [`CacheSim`]: per set, its tags from MRU to LRU, at most `ways`
    /// of them. The set count rounds down to a power of two, as
    /// documented on [`CacheSim::new`].
    struct ReferenceLru {
        line_bytes: u64,
        sets: u64,
        ways: usize,
        stacks: Vec<Vec<u64>>,
    }

    impl ReferenceLru {
        fn new(size_bytes: u64, line_bytes: u32, ways: u32) -> Self {
            let raw_sets = size_bytes / (line_bytes as u64 * ways as u64);
            let sets = 1u64 << (63 - raw_sets.leading_zeros());
            ReferenceLru {
                line_bytes: line_bytes as u64,
                sets,
                ways: ways as usize,
                stacks: vec![Vec::new(); sets as usize],
            }
        }

        fn access(&mut self, addr: u64) -> bool {
            let line = addr / self.line_bytes;
            let stack = &mut self.stacks[(line % self.sets) as usize];
            let tag = line / self.sets;
            let hit = match stack.iter().position(|&t| t == tag) {
                Some(pos) => {
                    stack.remove(pos);
                    true
                }
                None => {
                    stack.truncate(self.ways - 1);
                    false
                }
            };
            stack.insert(0, tag);
            hit
        }
    }

    /// True when [`CacheSim`] and the reference agree on every access.
    fn lru_matches_reference(size: u64, line: u32, assoc: u32, addrs: &[u64]) -> bool {
        let mut a = ReferenceLru::new(size, line, assoc);
        let mut b = CacheSim::new(size, line, assoc);
        addrs.iter().all(|&x| a.access(x) == b.access(x))
    }

    #[test]
    fn lru_policy_cache_equals_production_lru() {
        let addrs: Vec<u64> = (0..4000u64).map(|i| (i * 7919) % 16384).collect();
        assert!(lru_matches_reference(4096, 64, 4, &addrs));
    }

    /// LRU equivalence over random geometries (1 to 16 ways, 1 to 64 sets,
    /// 64/128 B lines, sizes that round down to the set count) on
    /// stack-distance streams: each access re-touches the line at a
    /// random LRU depth of its set, or a fresh line. Under true LRU a
    /// depth-`d` reuse hits way position `d`, so every stream must hit
    /// every position, and each set fills its empty ways first.
    #[test]
    fn lru_policy_cache_equals_production_lru_over_geometries() {
        check("cache::lru_equivalence_over_geometries", 48, |g| {
            let assoc = g.usize_in(1..17);
            let sets = *g.choose(&[1u64, 2, 8, 64]);
            let line = *g.choose(&[64u64, 128]);
            let set_bytes = sets * assoc as u64 * line;
            let size = set_bytes + g.u64_in(0..set_bytes);
            let active = g.subset(sets as usize, 1..5);
            // Per active set, its lines from MRU to LRU.
            let mut stacks = vec![Vec::<u64>::new(); active.len()];
            let mut fresh = 0u64;
            let mut hit_at = vec![false; assoc];
            let mut addrs = Vec::new();
            for _ in 0..64 * assoc {
                let s = g.usize_in(0..active.len());
                let stack = &mut stacks[s];
                let depth = g.usize_in(0..assoc + 3);
                let tag = if depth < stack.len() {
                    if depth < assoc {
                        hit_at[depth] = true;
                    }
                    stack.remove(depth)
                } else {
                    fresh += 1;
                    fresh
                };
                stack.insert(0, tag);
                let line_no = tag * sets + active[s] as u64;
                addrs.push(line_no * line + g.u64_in(0..line));
            }
            ensure!(hit_at.iter().all(|&h| h), "a way position was never hit");
            let (line, assoc) = (line as u32, assoc as u32);
            ensure!(lru_matches_reference(size, line, assoc, &addrs));
            Ok(())
        });
    }

    /// LRU equivalence on random traces.
    #[test]
    fn prop_lru_equivalence() {
        check("cache::prop_lru_equivalence", 32, |g| {
            let addrs = g.vec_u64(1..500, 0..32768);
            ensure!(lru_matches_reference(2048, 64, 4, &addrs));
            Ok(())
        });
    }
}
