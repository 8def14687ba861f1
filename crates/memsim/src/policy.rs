//! Replacement-policy exploration.
//!
//! §VII: "This work provides a starting point for more in-depth
//! benchmarking of Intel GPUs at a micro-architectural level in the
//! future." Replacement policy is the first micro-architectural unknown
//! a pointer-chase probe can expose: true LRU produces a sharp latency
//! cliff exactly at the capacity boundary, FIFO and random soften and
//! shift it. This module provides policy-parameterised caches and a
//! miss-curve probe for comparing the modelled staircase against such
//! hypotheses.

use crate::cache::CacheSim;

/// Replacement policy of a set-associative cache.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Replacement {
    /// True least-recently-used (the default model).
    Lru,
    /// First-in-first-out per set.
    Fifo,
    /// Pseudo-random victim (xorshift, deterministic per seed).
    Random(u64),
}

/// A policy-parameterised set-associative cache.
#[derive(Debug, Clone)]
pub struct PolicyCache {
    line_bytes: u64,
    sets: u64,
    assoc: usize,
    tags: Vec<u64>,
    /// Per-set FIFO cursor (FIFO) or unused (others).
    cursor: Vec<u8>,
    /// LRU order per set (LRU only).
    order: Vec<Vec<u8>>,
    policy: Replacement,
    rng_state: u64,
    hits: u64,
    misses: u64,
}

impl PolicyCache {
    /// Builds a cache; geometry semantics match [`CacheSim::new`].
    pub fn new(size_bytes: u64, line_bytes: u32, associativity: u32, policy: Replacement) -> Self {
        assert!(line_bytes > 0 && associativity > 0 && size_bytes > 0);
        let raw_sets = size_bytes / (line_bytes as u64 * associativity as u64);
        assert!(raw_sets > 0, "cache smaller than one set");
        let sets = 1u64 << (63 - raw_sets.leading_zeros());
        let assoc = associativity as usize;
        let seed = match policy {
            Replacement::Random(s) => s | 1,
            _ => 1,
        };
        PolicyCache {
            line_bytes: line_bytes as u64,
            sets,
            assoc,
            tags: vec![u64::MAX; sets as usize * assoc],
            cursor: vec![0; sets as usize],
            order: vec![(0..assoc as u8).collect(); sets as usize],
            policy,
            rng_state: seed,
            hits: 0,
            misses: 0,
        }
    }

    /// Accesses the line containing `addr`; returns true on hit.
    pub fn access(&mut self, addr: u64) -> bool {
        let line = addr / self.line_bytes;
        let set = (line % self.sets) as usize;
        let tag = line / self.sets;
        let base = set * self.assoc;

        if let Some(way) = self.tags[base..base + self.assoc]
            .iter()
            .position(|&t| t == tag)
        {
            self.hits += 1;
            if self.policy == Replacement::Lru {
                let order = &mut self.order[set];
                let pos = order.iter().position(|&w| w as usize == way).unwrap();
                let w = order.remove(pos);
                order.insert(0, w);
            }
            return true;
        }
        self.misses += 1;
        // Hardware fills invalid ways before evicting valid lines; only
        // a full set consults the policy.
        let invalid = self.tags[base..base + self.assoc]
            .iter()
            .position(|&t| t == u64::MAX);
        let victim = if let Some(way) = invalid {
            if self.policy == Replacement::Fifo {
                self.cursor[set] = ((way + 1) % self.assoc) as u8;
            }
            way
        } else {
            match self.policy {
                Replacement::Lru => *self.order[set].last().unwrap() as usize,
                Replacement::Fifo => {
                    let v = self.cursor[set] as usize;
                    self.cursor[set] = ((v + 1) % self.assoc) as u8;
                    v
                }
                Replacement::Random(_) => {
                    self.rng_state ^= self.rng_state << 13;
                    self.rng_state ^= self.rng_state >> 7;
                    self.rng_state ^= self.rng_state << 17;
                    (self.rng_state % self.assoc as u64) as usize
                }
            }
        };
        self.tags[base + victim] = tag;
        if self.policy == Replacement::Lru {
            let order = &mut self.order[set];
            let pos = order.iter().position(|&w| w as usize == victim).unwrap();
            let w = order.remove(pos);
            order.insert(0, w);
        }
        false
    }

    /// Miss ratio since construction.
    pub fn miss_ratio(&self) -> f64 {
        let total = self.hits + self.misses;
        if total == 0 {
            0.0
        } else {
            self.misses as f64 / total as f64
        }
    }

    /// Effective capacity in bytes.
    pub fn capacity(&self) -> u64 {
        self.sets * self.assoc as u64 * self.line_bytes
    }
}

/// Miss-ratio curve of a cyclic line-stride sweep over `footprints`, for
/// a cache of the given geometry/policy: the classic probe separating
/// LRU's all-or-nothing cliff from FIFO/random's gradual rolloff.
pub fn miss_curve(
    size_bytes: u64,
    line_bytes: u32,
    assoc: u32,
    policy: Replacement,
    footprints: &[u64],
    passes: usize,
) -> Vec<(u64, f64)> {
    footprints
        .iter()
        .map(|&fp| {
            let mut c = PolicyCache::new(size_bytes, line_bytes, assoc, policy);
            let lines = (fp / line_bytes as u64).max(1);
            // Warm pass (uncounted).
            for l in 0..lines {
                c.access(l * line_bytes as u64);
            }
            let warm_misses = c.miss_ratio();
            let _ = warm_misses;
            let (h0, m0) = (c.hits, c.misses);
            for _ in 0..passes {
                for l in 0..lines {
                    c.access(l * line_bytes as u64);
                }
            }
            let misses = c.misses - m0;
            let total = (c.hits - h0) + misses;
            (fp, misses as f64 / total as f64)
        })
        .collect()
}

/// Equivalence check used in tests: the policy cache at LRU must mirror
/// the production [`CacheSim`] exactly.
pub fn lru_matches_cachesim(size: u64, line: u32, assoc: u32, addrs: &[u64]) -> bool {
    let mut a = PolicyCache::new(size, line, assoc, Replacement::Lru);
    let mut b = CacheSim::new(size, line, assoc);
    addrs.iter().all(|&x| a.access(x) == b.access(x))
}

#[cfg(test)]
mod tests {
    use super::*;
    use pvc_core::check::check;
    use pvc_core::ensure;

    #[test]
    fn lru_policy_cache_equals_production_lru() {
        let addrs: Vec<u64> = (0..4000u64).map(|i| (i * 7919) % 16384).collect();
        assert!(lru_matches_cachesim(4096, 64, 4, &addrs));
    }

    /// LRU equivalence over random geometries (1 to 16 ways, 1 to 64 sets,
    /// 64/128 B lines, sizes that round down to the set count) on
    /// stack-distance streams: each access re-touches the line at a
    /// random LRU depth of its set, or a fresh line. Under true LRU a
    /// depth-`d` reuse hits way position `d`, so every stream must hit
    /// every position, and each set fills its empty ways first.
    #[test]
    fn lru_policy_cache_equals_production_lru_over_geometries() {
        check("policy::lru_equivalence_over_geometries", 48, |g| {
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
            ensure!(lru_matches_cachesim(size, line as u32, assoc as u32, &addrs));
            Ok(())
        });
    }

    #[test]
    fn lru_cliff_vs_fifo_rolloff() {
        // Cyclic sweep at 2x capacity: LRU misses everything; FIFO also
        // thrashes on a pure cyclic pattern; random keeps some hits.
        let size = 64 * 1024u64;
        let over = 2 * size;
        let lru = miss_curve(size, 64, 8, Replacement::Lru, &[over], 4)[0].1;
        let rnd = miss_curve(size, 64, 8, Replacement::Random(3), &[over], 4)[0].1;
        assert!(lru > 0.999, "LRU thrashes: {lru}");
        assert!(rnd < 0.95, "random retains some lines: {rnd}");
    }

    #[test]
    fn all_policies_hit_when_working_set_fits() {
        let size = 64 * 1024u64;
        for policy in [
            Replacement::Lru,
            Replacement::Fifo,
            Replacement::Random(1),
        ] {
            let mr = miss_curve(size, 64, 8, policy, &[size / 2], 3)[0].1;
            assert!(mr < 1e-9, "{policy:?}: {mr}");
        }
    }

    /// LRU equivalence on random traces.
    #[test]
    fn prop_lru_equivalence() {
        check("policy::prop_lru_equivalence", 32, |g| {
            let addrs = g.vec_u64(1..500, 0..32768);
            ensure!(lru_matches_cachesim(2048, 64, 4, &addrs));
            Ok(())
        });
    }

    /// Miss ratio is always in [0, 1] and 0 for fitting sets.
    #[test]
    fn prop_miss_ratio_bounds() {
        check("policy::prop_miss_ratio_bounds", 32, |g| {
            let fp = g.u64_in(64..1_000_000);
            let seed = g.u64_in(0..100);
            let curve = miss_curve(64 * 1024, 64, 8, Replacement::Random(seed), &[fp], 2);
            let (_, mr) = curve[0];
            ensure!((0.0..=1.0).contains(&mr));
            Ok(())
        });
    }
}
