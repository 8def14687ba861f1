//! Stream-prefetcher model — why `lats` chases a *random* ring.
//!
//! The original `lats` (and the paper's §IV-A7 port) deliberately builds
//! a randomised pointer ring: a sequential chase would trigger the
//! hardware stride prefetcher and measure the prefetch pipeline, not the
//! load-to-use latency. This module adds a simple N-stream, stride-
//! detecting prefetcher in front of a [`Hierarchy`] and demonstrates
//! exactly that effect: sequential footprints appear "fast" with the
//! prefetcher on, while Sattolo rings measure the same latency with it
//! on or off — validating the benchmark design the paper inherited.

use crate::cache::Hierarchy;
use crate::lats::{chase_line_bytes, sattolo};
use pvc_arch::Partition;

/// A stride prefetcher tracking up to `streams` concurrent access
/// streams; on the second hit of a constant stride it begins issuing
/// `depth` prefetches ahead.
#[derive(Debug, Clone)]
pub struct StridePrefetcher {
    streams: usize,
    depth: u32,
    /// (last_line, stride, confidence) per tracked stream.
    table: Vec<(u64, i64, u32)>,
}

impl StridePrefetcher {
    /// A typical L1 prefetcher: 8 streams, 4 lines deep.
    pub fn typical() -> Self {
        StridePrefetcher {
            streams: 8,
            depth: 4,
            table: Vec::new(),
        }
    }

    /// Observes an access to `line`; returns the lines to prefetch.
    pub fn observe(&mut self, line: u64) -> Vec<u64> {
        // Find a stream whose last line is near this one.
        for entry in self.table.iter_mut() {
            let (last, stride, confidence) = *entry;
            let new_stride = line as i64 - last as i64;
            if new_stride != 0 && new_stride.abs() <= 8 {
                if new_stride == stride {
                    *entry = (line, stride, confidence + 1);
                    if confidence + 1 >= 2 {
                        // Confident: issue prefetches ahead.
                        return (1..=self.depth)
                            .filter_map(|k| {
                                let target = line as i64 + stride * k as i64;
                                (target >= 0).then_some(target as u64)
                            })
                            .collect();
                    }
                } else {
                    *entry = (line, new_stride, 1);
                }
                return Vec::new();
            }
        }
        // New stream (LRU-ish: drop the oldest).
        if self.table.len() >= self.streams {
            self.table.remove(0);
        }
        self.table.push((line, 0, 0));
        Vec::new()
    }
}

/// Mean chase latency over `footprint_bytes` with an optional
/// prefetcher, for `sequential` or Sattolo-ring order.
pub fn chase_with_prefetcher(
    partition: &Partition,
    footprint_bytes: u64,
    sequential: bool,
    prefetcher: bool,
) -> f64 {
    let line = chase_line_bytes(partition);
    let slots = (footprint_bytes / line).max(2);
    let order: Vec<u64> = if sequential {
        (0..slots).collect()
    } else {
        // Sattolo ring flattened to a visit order.
        sattolo(slots).into_iter().map(u64::from).collect()
    };

    let mut h = Hierarchy::for_partition(partition);
    let mut pf = StridePrefetcher::typical();
    // Warm-up pass.
    for &slot in &order {
        let addr = slot * line;
        let _ = h.access(addr);
        if prefetcher {
            for target in pf.observe(slot) {
                let _ = h.access(target * line); // fill on prefetch
            }
        }
    }
    // Measured pass: prefetches are free (they overlap the demand
    // stream); demand accesses pay their hierarchy latency.
    let mut total = 0.0;
    for &slot in &order {
        let addr = slot * line;
        total += h.access(addr);
        if prefetcher {
            for target in pf.observe(slot) {
                let _ = h.access(target * line);
            }
        }
    }
    total / order.len() as f64
}

#[cfg(test)]
mod tests {
    use super::*;
    use pvc_arch::systems::pvc_aurora_gpu;

    /// 8 MiB footprint: past L1, inside L2 — the region where prefetch
    /// matters most.
    const FOOTPRINT: u64 = 8 << 20;

    #[test]
    fn prefetcher_detects_constant_strides() {
        let mut pf = StridePrefetcher::typical();
        assert!(pf.observe(10).is_empty());
        assert!(pf.observe(11).is_empty()); // stride learned, low confidence
        let p = pf.observe(12); // confident
        assert_eq!(p, vec![13, 14, 15, 16]);
    }

    #[test]
    fn random_streams_never_gain_confidence() {
        let mut pf = StridePrefetcher::typical();
        let mut state = 12345u64;
        for _ in 0..200 {
            state ^= state << 13;
            state ^= state >> 7;
            state ^= state << 17;
            let issued = pf.observe(state % 100_000);
            assert!(issued.is_empty(), "random walk must not trigger prefetch");
        }
    }

    #[test]
    fn sequential_chase_is_flattered_by_prefetch() {
        let gpu = pvc_aurora_gpu();
        let with = chase_with_prefetcher(&gpu.partition, FOOTPRINT, true, true);
        let without = chase_with_prefetcher(&gpu.partition, FOOTPRINT, true, false);
        assert!(
            with < without * 0.55,
            "prefetch must hide most sequential latency: {with:.0} vs {without:.0}"
        );
    }

    #[test]
    fn random_ring_defeats_the_prefetcher() {
        // The paper's benchmark design: with the randomised ring, the
        // measured latency is the same with the prefetcher on or off.
        let gpu = pvc_aurora_gpu();
        let with = chase_with_prefetcher(&gpu.partition, FOOTPRINT, false, true);
        let without = chase_with_prefetcher(&gpu.partition, FOOTPRINT, false, false);
        assert!(
            (with - without).abs() / without < 0.02,
            "{with:.1} vs {without:.1}"
        );
        // And it reports the true L2 latency.
        assert!((without - 390.0).abs() < 30.0, "L2 region: {without:.0}");
    }
}
