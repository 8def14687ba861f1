//! The `lats` pointer-chase latency benchmark (§IV-A7, Figure 1).
//!
//! Chases pointers around a ring laid out at cache-line stride across an
//! array of a given footprint, exactly like the original benchmark the
//! paper modified: dependent loads, one outstanding access, measured in
//! core cycles. Sweeping the footprint walks the working set across L1,
//! L2 and HBM, producing the staircase of Figure 1.
//!
//! A serial ring at line stride defeats spatial locality; the dependent
//! chain defeats memory-level parallelism. The paper's 16-work-item
//! coalesced variant maps all 16 lanes into the same cache line, so a
//! chase step is one line access (see crate docs).
//!
//! The ring is a single Sattolo cycle over the footprint's line slots.
//! The simulator only needs the order in which the chase visits them, so
//! a [`ChaseCycle`] stores that order flat and is walked front to back:
//! the host reads it sequentially instead of following a dependent
//! successor load per step, and the simulated caches see the same
//! address sequence. One cycle depends only on the slot count, so it can
//! be chased through every hierarchy whose footprint has that many
//! slots, whatever its line size.

use crate::cache::{Hierarchy, SetGeometry};
use pvc_arch::{GpuModel, Partition};

/// Configuration of a latency sweep.
#[derive(Debug, Clone)]
pub struct LatsConfig {
    /// Smallest footprint in bytes (default 16 KiB).
    pub min_bytes: u64,
    /// Upper bound on the footprint in bytes (default 1 GiB). The sweep
    /// stops at the last point not above it, see
    /// [`footprints`](Self::footprints).
    pub max_bytes: u64,
    /// Sweep points per octave (default 2: ×√2 spacing like the
    /// original benchmark's plot).
    pub points_per_octave: u32,
    /// Chase steps measured per footprint after the warm-up pass.
    pub steps: u64,
}

impl Default for LatsConfig {
    fn default() -> Self {
        LatsConfig {
            min_bytes: 16 * 1024,
            max_bytes: 1 << 30,
            points_per_octave: 2,
            steps: 1 << 16,
        }
    }
}

impl LatsConfig {
    /// The swept footprints in bytes: `min_bytes` multiplied up by
    /// `2^(1/points_per_octave)` in `f64` while not above `max_bytes`.
    /// Rounding in the float walk can push a point that should land on
    /// `max_bytes` just above it, and that point is dropped: the default
    /// sweep runs 16 KiB … 759 250 124 B and has no 1 GiB point.
    pub fn footprints(&self) -> Vec<u64> {
        let step = 2f64.powf(1.0 / self.points_per_octave as f64);
        let mut out = Vec::new();
        let mut footprint = self.min_bytes as f64;
        while footprint <= self.max_bytes as f64 {
            out.push(footprint as u64);
            footprint *= step;
        }
        out
    }
}

/// One point of the Figure 1 curve.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct LatencyPoint {
    /// Array footprint in bytes.
    pub footprint_bytes: u64,
    /// Mean access latency in core cycles.
    pub cycles: f64,
    /// Mean access latency in nanoseconds at the device's max clock.
    pub nanos: f64,
}

impl LatencyPoint {
    /// The point for `cycles` measured at `footprint_bytes` on a device
    /// clocked at `clock_hz`.
    pub fn new(footprint_bytes: u64, cycles: f64, clock_hz: f64) -> Self {
        LatencyPoint {
            footprint_bytes,
            cycles,
            nanos: cycles / clock_hz * 1e9,
        }
    }
}

/// Runs the pointer-chase sweep on one partition of `gpu`.
///
/// # Example
/// ```
/// use pvc_memsim::{latency_profile, LatsConfig};
/// use pvc_arch::systems::pvc_aurora_gpu;
///
/// let cfg = LatsConfig { min_bytes: 64 << 10, max_bytes: 256 << 10,
///                        points_per_octave: 1, steps: 1 << 12 };
/// let curve = latency_profile(&pvc_aurora_gpu(), &cfg);
/// // Inside the 512 KiB L1: every point sits at the L1 latency.
/// assert!(curve.iter().all(|p| (p.cycles - 64.0).abs() < 5.0));
/// ```
///
/// Returns one [`LatencyPoint`] per footprint. The ring is a fixed
/// pseudo-random permutation of line-aligned slots (seeded by the slot
/// count, so footprints with the same number of slots share a ring),
/// matching the original `lats`' randomized ring that defeats hardware
/// prefetch.
pub fn latency_profile(gpu: &GpuModel, cfg: &LatsConfig) -> Vec<LatencyPoint> {
    let clock_hz = gpu.clock.max_hz();
    cfg.footprints()
        .into_iter()
        .map(|bytes| LatencyPoint::new(bytes, chase(gpu, bytes, cfg.steps), clock_hz))
        .collect()
}

/// Mean per-access latency (cycles) chasing a ring of `footprint_bytes`.
pub fn chase(gpu: &GpuModel, footprint_bytes: u64, steps: u64) -> f64 {
    let slots = chase_slots(&gpu.partition, footprint_bytes);
    ChaseCycle::new(slots).chase(&gpu.partition, steps)
}

/// The line slots (at least one) of a chase over `footprint_bytes` on
/// `partition`: one per stride.
pub fn chase_slots(partition: &Partition, footprint_bytes: u64) -> u64 {
    (footprint_bytes / chase_line_bytes(partition)).max(1)
}

/// The stride of a chase on `partition`: its innermost cache's line
/// size (64 B when it has no cache).
pub fn chase_line_bytes(partition: &Partition) -> u64 {
    partition.caches.first().map_or(64, |c| c.line_bytes) as u64
}

/// Everything [`ChaseCycle::chase`] reads from a partition: each cache
/// level's size, line size, associativity and latency, plus the memory
/// latency. Partitions with equal keys chase to the same bits, so a
/// sweep over several systems needs one chase per distinct key.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ChaseKey {
    /// `(size_bytes, line_bytes, associativity, latency_cycles bits)`
    /// per level, inner to outer.
    levels: Vec<(u64, u32, u32, u64)>,
    memory_latency_bits: u64,
}

impl ChaseKey {
    /// The key of `partition`.
    pub fn of(partition: &Partition) -> Self {
        ChaseKey {
            levels: partition
                .caches
                .iter()
                .map(|c| {
                    let latency = c.latency_cycles.to_bits();
                    (c.size_bytes, c.line_bytes, c.associativity, latency)
                })
                .collect(),
            memory_latency_bits: partition.memory.latency_cycles.to_bits(),
        }
    }
}

/// The order in which a chase visits the line slots of one footprint:
/// a deterministic pseudo-random single cycle over `0..slots`. Chased on
/// a partition, slot `s` is the line at `s` times its
/// [`chase_line_bytes`].
#[derive(Debug, Clone)]
pub struct ChaseCycle {
    /// Slots in visit order. The cycle starts from slot 0, so this is
    /// slot 0's successor first and slot 0 last.
    order: Vec<u32>,
}

impl ChaseCycle {
    /// The cycle over `slots` line slots (see [`chase_slots`]).
    ///
    /// # Panics
    /// Panics if `slots` is 0 or 2^32 or more.
    pub fn new(slots: u64) -> Self {
        let mut order = sattolo(slots);
        let zero = order.iter().position(|&s| s == 0).expect("slot 0 in cycle");
        let len = order.len();
        order.rotate_left((zero + 1) % len);
        ChaseCycle { order }
    }

    /// Mean per-access latency (cycles) of chasing this cycle through a
    /// cold hierarchy of `partition`, measuring up to `steps` accesses
    /// after one warm-up traversal.
    ///
    /// The result is the mean of a [`Hierarchy`] of LRU caches serving
    /// every access. When the measured steps re-walk a prefix of the
    /// warm-up and every level's line is the chase stride, the hits are
    /// counted per set instead, to the same bits (see
    /// [`count`](Self::count)); that is the case from about 4 MiB at the
    /// default 2^16 steps with 64 B lines. Otherwise (small footprints
    /// that wrap around the cycle, levels with lines wider than the
    /// stride) the hierarchy is simulated access by access.
    pub fn chase(&self, partition: &Partition, steps: u64) -> f64 {
        let (warmup, measured) = self.phases(partition, steps);
        let stride = chase_line_bytes(partition);
        let stride_lines = partition.caches.iter().all(|c| u64::from(c.line_bytes) == stride);
        if measured <= warmup && stride_lines {
            self.count(partition, warmup, measured)
        } else {
            self.walk(partition, steps)
        }
    }

    /// The warm-up and measured access counts of a chase of `steps`.
    fn phases(&self, partition: &Partition, steps: u64) -> (usize, usize) {
        let slots = self.order.len() as u64;
        // Warm-up: one full traversal fills whatever fits. For footprints
        // far beyond the outermost cache a partial traversal is
        // statistically identical (almost every measured access misses
        // anyway), so the warm-up is capped to bound simulation cost.
        let outer_lines = partition
            .caches
            .iter()
            .map(|c| c.size_bytes / c.line_bytes as u64)
            .max()
            .unwrap_or(0);
        let warmup = slots.min(outer_lines.saturating_mul(3).max(1 << 20));
        // Measured phase: restarts from slot 0 and wraps around the cycle
        // for small footprints.
        let measured = steps.min(slots.saturating_mul(4));
        (warmup as usize, measured as usize)
    }

    /// [`chase`](Self::chase) by counting, for `measured <= warmup` and
    /// a line per slot at every level.
    ///
    /// The warm-up is at most one lap, so each warm-up access is the
    /// first touch of its line: it misses at, and fills, every level.
    /// Measured access `j` touches the line of warm-up access `j` again.
    /// Its LRU stack distance at a level (Mattson et al., IBM Sys. J.
    /// 1970) is the number of distinct lines touched in its set there
    /// since: the warm-up accesses after `j`, plus the earlier measured
    /// accesses that reached the level (missed every level above it).
    /// It hits at the first level where that distance is below the
    /// ways. Latencies are summed in access order, as the walk sums them.
    fn count(&self, partition: &Partition, warmup: usize, measured: usize) -> f64 {
        let levels: Vec<(SetGeometry, f64)> = partition
            .caches
            .iter()
            .map(|c| (SetGeometry::of(c), c.latency_cycles))
            .collect();
        // Per level and set, before measured access j: warm-up accesses
        // from j on plus measured accesses before j that reached the
        // level. A slot's line number is the slot: lines are the stride.
        let mut touched: Vec<Vec<u32>> = levels.iter().map(|(g, _)| vec![0; g.sets()]).collect();
        for &slot in &self.order[..warmup] {
            for ((g, _), sets) in levels.iter().zip(&mut touched) {
                sets[g.set_of(u64::from(slot))] += 1;
            }
        }
        let mut total = 0.0;
        for &slot in &self.order[..measured] {
            let mut served = None;
            for ((g, cycles), sets) in levels.iter().zip(&mut touched) {
                let n = &mut sets[g.set_of(u64::from(slot))];
                if served.is_some() {
                    // Not reached: only the warm-up touch at j leaves.
                    *n -= 1;
                } else if *n as usize <= g.ways() {
                    // Distance n - 1 < ways. Reached, so j's warm-up
                    // touch leaves and its measured touch joins.
                    served = Some(*cycles);
                }
            }
            total += served.unwrap_or(partition.memory.latency_cycles);
        }
        total / measured as f64
    }

    /// [`chase`](Self::chase) by simulating every access through a
    /// [`Hierarchy`].
    fn walk(&self, partition: &Partition, steps: u64) -> f64 {
        let (warmup, measured) = self.phases(partition, steps);
        let mut h = Hierarchy::for_partition(partition);
        let stride = chase_line_bytes(partition);
        let addr = |slot: &u32| u64::from(*slot) * stride;
        for slot in &self.order[..warmup] {
            let _ = h.access(addr(slot));
        }
        let mut total = 0.0;
        for slot in self.order.iter().cycle().take(measured) {
            total += h.access(addr(slot));
        }
        total / measured as f64
    }
}

/// A deterministic pseudo-random cyclic ordering of `0..slots` built by
/// Sattolo's algorithm with an xorshift generator, seeded by the slot
/// count. Each slot's successor is the next entry (the last wraps to the
/// first), and the permutation is a single cycle, so a chase visits every
/// slot.
pub(crate) fn sattolo(slots: u64) -> Vec<u32> {
    let n = u32::try_from(slots).expect("chase ring beyond 2^32 slots");
    let mut items: Vec<u32> = (0..n).collect();
    let mut state = 0x9E3779B97F4A7C15u64 ^ slots;
    let mut rng = move || {
        state ^= state << 13;
        state ^= state >> 7;
        state ^= state << 17;
        state
    };
    let mut i = n as usize;
    while i > 1 {
        i -= 1;
        let j = (rng() % i as u64) as usize;
        items.swap(i, j);
    }
    items
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::cache::CacheSim;
    use pvc_arch::systems::{h100_gpu, mi250_gpu, pvc_aurora_gpu, pvc_dawn_gpu};
    use pvc_arch::CacheLevel;
    use pvc_core::check::check;
    use pvc_core::ensure;

    fn level_at(gpu: &GpuModel, footprint: u64) -> f64 {
        chase(gpu, footprint, 1 << 14)
    }

    /// The successor-table walk `chase` replaced, kept as its oracle:
    /// a `u64` Sattolo ring turned into a successor table, chased by a
    /// dependent load per step from slot 0.
    fn chase_reference(gpu: &GpuModel, footprint_bytes: u64, steps: u64) -> f64 {
        let line = gpu.partition.caches.first().map_or(64, |c| c.line_bytes) as u64;
        let slots = (footprint_bytes / line).max(1);
        let ring = permutation_ring(slots);

        let mut h = Hierarchy::for_partition(&gpu.partition);
        let outer_lines = gpu
            .partition
            .caches
            .iter()
            .map(|c| c.size_bytes / c.line_bytes as u64)
            .max()
            .unwrap_or(0);
        let warmup = slots.min(outer_lines.saturating_mul(3).max(1 << 20));
        let mut idx = 0u64;
        for _ in 0..warmup {
            let _ = h.access(ring[idx as usize] * line);
            idx = ring[idx as usize];
        }
        let mut total = 0.0;
        let mut idx = 0u64;
        let measured = steps.min(slots.saturating_mul(4)).max(slots.min(steps));
        for _ in 0..measured {
            total += h.access(ring[idx as usize] * line);
            idx = ring[idx as usize];
        }
        total / measured as f64
    }

    fn permutation_ring(slots: u64) -> Vec<u64> {
        let n = slots as usize;
        let mut items: Vec<u64> = (0..slots).collect();
        let mut state = 0x9E3779B97F4A7C15u64 ^ slots;
        let mut rng = move || {
            state ^= state << 13;
            state ^= state >> 7;
            state ^= state << 17;
            state
        };
        let mut i = n;
        while i > 1 {
            i -= 1;
            let j = (rng() % i as u64) as usize;
            items.swap(i, j);
        }
        let mut next = vec![0u64; n];
        for k in 0..n {
            next[items[k] as usize] = items[(k + 1) % n];
        }
        next
    }

    #[test]
    fn permutation_is_single_cycle() {
        for slots in [1u64, 2, 7, 64, 1000] {
            let cycle = ChaseCycle::new(slots);
            assert_eq!(cycle.order.len() as u64, slots);
            let mut seen = vec![false; slots as usize];
            for &slot in &cycle.order {
                assert!(!seen[slot as usize], "slot {slot} visited twice");
                seen[slot as usize] = true;
            }
            // Every slot once, ending at slot 0: the walk wraps to slot
            // 0's successor, which is where it started.
            assert_eq!(cycle.order.last(), Some(&0));
            let ring = permutation_ring(slots);
            assert_eq!(cycle.order[0] as u64, ring[0], "starts at slot 0's successor");
        }
    }

    #[test]
    fn chase_matches_successor_walk_bitwise() {
        // Per system: a wrapping 8 KiB ring, then footprints in L1, L2
        // and past the outer cache. 256 MiB on MI250 (4M slots) is past
        // the warm-up cap of max(3 * 131072 L2 lines, 2^20).
        let fixed = [8u64 << 10, 128 << 10, 4 << 20, 256 << 20];
        for gpu in [pvc_aurora_gpu(), pvc_dawn_gpu(), h100_gpu(), mi250_gpu()] {
            let line = chase_line_bytes(&gpu.partition);
            let capacities: Vec<u64> = gpu
                .partition
                .caches
                .iter()
                .map(|c| CacheSim::new(c.size_bytes, c.line_bytes, c.associativity).capacity())
                .collect();
            let cases = fixed
                .iter()
                .map(|&fp| (fp, 1 << 14))
                // 1/16 past each level's capacity only some sets
                // overflow, so the mean depends on which slots the
                // measured steps visit.
                .chain(capacities.iter().map(|&cap| (cap + cap / 16, 1 << 14)))
                // The served sweep's 2^16 steps, one line either side of
                // each capacity: the first and last sets to overflow.
                .chain(
                    capacities
                        .iter()
                        .flat_map(|&cap| [cap - line, cap + line].map(|fp| (fp, 1 << 16))),
                );
            for (fp, steps) in cases {
                let got = chase(&gpu, fp, steps).to_bits();
                let want = chase_reference(&gpu, fp, steps).to_bits();
                let name = gpu.name;
                assert_eq!(got, want, "{name} at {fp} B, {steps} steps");
            }
        }
    }

    /// `partition` of PVC with its caches and memory latency replaced.
    fn partition_with(caches: Vec<CacheLevel>, memory_latency: f64) -> Partition {
        let mut partition = pvc_aurora_gpu().partition;
        partition.caches = caches;
        partition.memory.latency_cycles = memory_latency;
        partition
    }

    fn level(size_bytes: u64, line_bytes: u32, associativity: u32, latency: f64) -> CacheLevel {
        CacheLevel {
            name: "L",
            size_bytes,
            per_compute_unit: false,
            line_bytes,
            associativity,
            latency_cycles: latency,
        }
    }

    #[test]
    fn counted_chase_equals_the_walk_on_random_geometries() {
        let mut counted = 0;
        check("lats-counted-chase-equals-walk", 400, |g| {
            // 1-3 levels of 64 B lines and 1-16 ways, within a factor of
            // two of a common line count so that a footprint can sit at
            // several levels' capacities at once. 1 to 3072 sets, sized
            // off a power of two so that the set count rounds down.
            let base_lines = g.u64_in(1..1537) as f64;
            let caches: Vec<CacheLevel> = (0..g.usize_in(1..4))
                .map(|_| {
                    let ways = g.u32_in(1..17);
                    let sets = (base_lines * g.f64_in(0.5..2.0)) as u64 / u64::from(ways);
                    let set_bytes = 64 * u64::from(ways);
                    let size = sets.max(1) * set_bytes + g.u64_in(0..set_bytes);
                    level(size, 64, ways, g.f64_in(1.0..400.0))
                })
                .collect();
            let slots = if g.usize_in(0..10) == 0 {
                // Past 2^20 slots behind caches of at most ~3100 lines:
                // the warm-up is capped at 2^20 accesses.
                (1 << 20) + g.u64_in(1..1 << 18)
            } else {
                // At a level's effective capacity, 1-4 lines either
                // side of it, or half again as large.
                let c = g.choose(&caches);
                let cap = CacheSim::new(c.size_bytes, 64, c.associativity).capacity() / 64;
                match g.usize_in(0..4) {
                    0 => cap,
                    1 => cap.saturating_sub(g.u64_in(1..5)).max(1),
                    2 => cap + g.u64_in(1..5),
                    _ => cap * 3 / 2,
                }
            };
            // 2^6 to 2^16 steps: a power of two, or one full lap.
            let steps = if g.bool() {
                1u64 << g.u32_in(6..17)
            } else {
                slots.clamp(1 << 6, 1 << 16)
            };
            let partition = partition_with(caches, g.f64_in(400.0..1000.0));
            let cycle = ChaseCycle::new(slots);
            let (warmup, measured) = cycle.phases(&partition, steps);
            counted += usize::from(measured <= warmup);
            let got = cycle.chase(&partition, steps);
            let want = cycle.walk(&partition, steps);
            ensure!(
                got.to_bits() == want.to_bits(),
                "{slots} slots, {steps} steps: chase {got} != walk {want}"
            );
            Ok(())
        });
        assert!(counted >= 200, "only {counted} of 400 cases counted");
    }

    #[test]
    fn lines_wider_than_the_stride_take_the_walk() {
        // Two 64 B slots share each 128 B L2 line, so a warm-up access
        // can hit in L2 and counting would be wrong; `chase` must walk.
        // The 256 KiB footprint fills the L2 exactly in 128 B lines but
        // overflows it twice over in 64 B ones.
        let caches = vec![
            level(16 << 10, 64, 4, 30.0),
            level(256 << 10, 128, 4, 200.0),
        ];
        let partition = partition_with(caches, 700.0);
        let cycle = ChaseCycle::new((256 << 10) / 64);
        let (warmup, measured) = cycle.phases(&partition, 1 << 10);
        assert!(measured <= warmup, "counted but for the line sizes");
        let got = cycle.chase(&partition, 1 << 10);
        assert_eq!(got.to_bits(), cycle.walk(&partition, 1 << 10).to_bits());
    }

    #[test]
    fn chase_past_the_warmup_cap_matches_successor_walk() {
        let gpu = mi250_gpu();
        let line = chase_line_bytes(&gpu.partition);
        let outer_lines = gpu.partition.caches.iter().map(|c| c.size_bytes / line).max().unwrap();
        let fp = 128u64 << 20;
        assert!(fp / line > (3 * outer_lines).max(1 << 20), "warm-up must be capped");
        let got = chase(&gpu, fp, 1 << 16);
        assert_eq!(got.to_bits(), chase_reference(&gpu, fp, 1 << 16).to_bits());
    }

    #[test]
    fn default_sweep_ends_below_one_gib() {
        let fps = LatsConfig::default().footprints();
        assert_eq!(fps.first(), Some(&(16 << 10)));
        assert_eq!(fps.last(), Some(&759_250_124));
    }

    #[test]
    fn pvc_staircase_matches_cache_levels() {
        let gpu = pvc_aurora_gpu();
        // 128 KiB: inside the 512 KiB L1.
        assert!((level_at(&gpu, 128 * 1024) - 64.0).abs() < 5.0);
        // 8 MiB: beyond L1, inside the 192 MiB L2.
        assert!((level_at(&gpu, 8 << 20) - 390.0).abs() < 20.0);
        // 1 GiB: beyond L2 -> HBM latency.
        assert!((level_at(&gpu, 1 << 30) - 860.0).abs() < 40.0);
    }

    #[test]
    fn h100_l1_transition_is_earlier_than_pvc() {
        // Figure 1: PVC's 512 KiB L1 "is larger than the other GPUs in
        // this study". At 384 KiB PVC still hits L1 while H100 (256 KiB)
        // has fallen to L2.
        let pvc = pvc_aurora_gpu();
        let h100 = h100_gpu();
        let fp = 384 * 1024;
        let pvc_lat = level_at(&pvc, fp);
        let h_lat = level_at(&h100, fp);
        assert!(pvc_lat < 100.0, "PVC should still be in L1: {pvc_lat}");
        assert!(h_lat > 200.0, "H100 should be in L2: {h_lat}");
    }

    #[test]
    fn mi250_hbm_latency_lowest_in_cycles() {
        // §IV-B6: PVC HBM latency is 44% higher than MI250's.
        let pvc = level_at(&pvc_aurora_gpu(), 1 << 30);
        let mi = level_at(&mi250_gpu(), 1 << 30);
        assert!((pvc / mi - 1.44).abs() < 0.1, "ratio {}", pvc / mi);
    }

    #[test]
    fn dawn_and_aurora_within_two_percent() {
        // §IV-B6: "both Dawn and Aurora consistently perform within 1-2%
        // of each other" — identical silicon, identical hierarchy.
        for fp in [64 * 1024u64, 16 << 20, 1 << 30] {
            let a = level_at(&pvc_aurora_gpu(), fp);
            let d = level_at(&pvc_dawn_gpu(), fp);
            assert!((a - d).abs() / d < 0.02, "fp={fp}: {a} vs {d}");
        }
    }

    #[test]
    fn profile_is_monotonically_nondecreasing_in_plateaus() {
        let gpu = pvc_aurora_gpu();
        let cfg = LatsConfig {
            min_bytes: 64 * 1024,
            max_bytes: 1 << 28,
            points_per_octave: 1,
            steps: 1 << 13,
        };
        let pts = latency_profile(&gpu, &cfg);
        assert!(pts.len() > 8);
        for w in pts.windows(2) {
            assert!(
                w[1].cycles >= w[0].cycles - 1.0,
                "latency dropped with footprint: {:?} -> {:?}",
                w[0],
                w[1]
            );
        }
    }

    #[test]
    fn nanos_consistent_with_clock() {
        let gpu = pvc_aurora_gpu();
        let pts = latency_profile(
            &gpu,
            &LatsConfig {
                min_bytes: 64 * 1024,
                max_bytes: 64 * 1024,
                points_per_octave: 1,
                steps: 1 << 12,
            },
        );
        let p = pts[0];
        assert!((p.nanos - p.cycles / 1.6).abs() < 1e-9);
    }
}
