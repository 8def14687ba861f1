//! `lats` memory-latency microbenchmark (§IV-A7, Figure 1).
//!
//! Sweeps pointer-chase footprints across the simulated cache hierarchy
//! of each GPU and reports the latency staircase. The chase walks a
//! [`ChaseCycle`]: a single dependent chain over a Sattolo ring.

use pvc_arch::{GpuModel, System};
use pvc_memsim::lats::chase_slots;
use pvc_memsim::{latency_profile, ChaseCycle, ChaseKey, LatencyPoint, LatsConfig};

/// One architecture's Figure 1 series.
#[derive(Debug, Clone)]
pub struct LatsSeries {
    /// Label used in the figure legend.
    pub label: &'static str,
    /// The swept curve.
    pub points: Vec<LatencyPoint>,
    /// Plateau latencies (cycles) detected for reporting: L1, L2 (when
    /// present) and device memory.
    pub plateaus: Vec<f64>,
}

/// GPU model for a figure series.
fn gpu_for(system: System) -> GpuModel {
    system.node().gpu
}

/// Runs the sweep for one system.
pub fn run(system: System, cfg: &LatsConfig) -> LatsSeries {
    let gpu = gpu_for(system);
    let points = latency_profile(&gpu, cfg);
    series(system, &gpu, points)
}

fn series(system: System, gpu: &GpuModel, points: Vec<LatencyPoint>) -> LatsSeries {
    let mut plateaus: Vec<f64> = gpu
        .partition
        .caches
        .iter()
        .map(|c| c.latency_cycles)
        .collect();
    plateaus.push(gpu.partition.memory.latency_cycles);
    LatsSeries {
        label: system.label(),
        points,
        plateaus,
    }
}

/// All four Figure 1 series (Aurora, Dawn, H100, MI250), each equal to
/// [`run`] on its system.
///
/// Systems whose hierarchies have the same [`ChaseKey`] (Aurora and Dawn
/// differ only in compute units) are chased once. A [`ChaseCycle`]
/// depends only on its slot count, and the 128 B-line H100 meets most
/// of the 64 B-line slot counts one octave further up the sweep. So the
/// work fans out over `pvc_core::par` as one task per distinct slot
/// count, largest first: each task builds that count's cycle once and
/// chases every (hierarchy, footprint) with that count through it.
/// Results are merged by index, so the legend order, the points and the
/// CSV do not depend on the thread count.
pub fn figure1(cfg: &LatsConfig) -> Vec<LatsSeries> {
    let gpus: Vec<GpuModel> = System::ALL.iter().map(|&s| gpu_for(s)).collect();
    // One representative system per distinct hierarchy.
    let mut hierarchies: Vec<(ChaseKey, &GpuModel)> = Vec::new();
    let hierarchy_of: Vec<usize> = gpus
        .iter()
        .map(|gpu| {
            let key = ChaseKey::of(&gpu.partition);
            hierarchies.iter().position(|(k, _)| *k == key).unwrap_or_else(|| {
                hierarchies.push((key, gpu));
                hierarchies.len() - 1
            })
        })
        .collect();

    let footprints = cfg.footprints();
    // (slots, hierarchy, footprint index), largest cycles first.
    let mut chases: Vec<(u64, usize, usize)> = hierarchies
        .iter()
        .enumerate()
        .flat_map(|(h, (_, gpu))| {
            let slots = |&fp| chase_slots(&gpu.partition, fp);
            footprints.iter().map(slots).enumerate().map(move |(f, n)| (n, h, f))
        })
        .collect();
    chases.sort_unstable_by(|a, b| b.cmp(a));
    let tasks: Vec<&[(u64, usize, usize)]> = chases.chunk_by(|a, b| a.0 == b.0).collect();
    let chased = pvc_core::par::map_collect(tasks.len(), |t| {
        let cycle = ChaseCycle::new(tasks[t][0].0);
        tasks[t]
            .iter()
            .map(|&(_, h, _)| cycle.chase(&hierarchies[h].1.partition, cfg.steps))
            .collect::<Vec<_>>()
    });
    let mut cycles = vec![vec![0.0; footprints.len()]; hierarchies.len()];
    for (task, results) in tasks.iter().zip(chased) {
        for (&(_, h, f), c) in task.iter().zip(results) {
            cycles[h][f] = c;
        }
    }

    System::ALL
        .iter()
        .zip(&gpus)
        .zip(hierarchy_of)
        .map(|((&system, gpu), h)| {
            let clock_hz = gpu.clock.max_hz();
            let points = footprints
                .iter()
                .zip(&cycles[h])
                .map(|(&bytes, &c)| LatencyPoint::new(bytes, c, clock_hz))
                .collect();
            series(system, gpu, points)
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::collections::BTreeSet;

    fn quick_cfg() -> LatsConfig {
        LatsConfig {
            min_bytes: 64 * 1024,
            max_bytes: 1 << 29,
            points_per_octave: 1,
            steps: 1 << 13,
        }
    }

    #[test]
    fn four_series_for_figure_1() {
        let series = figure1(&quick_cfg());
        assert_eq!(series.len(), 4);
        assert!(series.iter().all(|s| !s.points.is_empty()));
    }

    /// Every series of `figure1(cfg)` equals its system's own sweep,
    /// to the bit.
    fn assert_figure1_equals_per_system_runs(cfg: &LatsConfig) {
        for (series, system) in figure1(cfg).iter().zip(System::ALL) {
            let alone = run(system, cfg);
            assert_eq!(series.label, alone.label);
            assert_eq!(series.plateaus, alone.plateaus);
            assert_eq!(series.points.len(), alone.points.len());
            for (a, b) in series.points.iter().zip(&alone.points) {
                assert_eq!(a.footprint_bytes, b.footprint_bytes);
                assert_eq!(a.cycles.to_bits(), b.cycles.to_bits(), "{}", series.label);
                assert_eq!(a.nanos.to_bits(), b.nanos.to_bits(), "{}", series.label);
            }
        }
    }

    #[test]
    fn figure1_equals_per_system_runs_bitwise() {
        // Deduplicated hierarchies and the slot-count fan-out are
        // invisible: every series equals its system's own sweep.
        assert_figure1_equals_per_system_runs(&quick_cfg());
    }

    #[test]
    fn figure1_equals_per_system_runs_where_slot_counts_partly_coincide() {
        // Three points per octave from a footprint that is not a power
        // of two: the 128 B sweep shares most of its slot counts with
        // the 64 B one, but not all, and each shared cycle serves
        // footprints of both line sizes.
        let cfg = LatsConfig {
            min_bytes: 50_000,
            max_bytes: 1 << 25,
            points_per_octave: 3,
            steps: 1 << 12,
        };
        let slots = |line: u64| -> BTreeSet<u64> {
            cfg.footprints().iter().map(|fp| fp / line).collect()
        };
        let (narrow, wide) = (slots(64), slots(128));
        let shared = wide.intersection(&narrow).count();
        assert!(0 < shared && shared < wide.len(), "{shared} of {} shared", wide.len());
        assert_figure1_equals_per_system_runs(&cfg);
    }

    #[test]
    fn pvc_l1_plateau_is_widest() {
        // Figure 1: "the Xe-Core on Dawn and Aurora has a L1 cache of
        // 512KiB … larger than the other GPUs in this study". Count sweep
        // points at the L1 plateau.
        let cfg = quick_cfg();
        let pvc = run(System::Aurora, &cfg);
        let h100 = run(System::JlseH100, &cfg);
        let at_l1 = |s: &LatsSeries, l1: f64| {
            s.points
                .iter()
                .filter(|p| (p.cycles - l1).abs() < l1 * 0.15)
                .count()
        };
        assert!(at_l1(&pvc, 64.0) > at_l1(&h100, 34.0));
    }

    #[test]
    fn staircase_orders_by_hierarchy() {
        let s = run(System::Aurora, &quick_cfg());
        let first = s.points.first().unwrap().cycles;
        let last = s.points.last().unwrap().cycles;
        assert!(first < 100.0, "small footprints in L1: {first}");
        assert!(last > 700.0, "large footprints in HBM: {last}");
    }

    #[test]
    fn plateaus_reported_per_level() {
        let s = run(System::JlseMi250, &quick_cfg());
        assert_eq!(s.plateaus, vec![130.0, 219.0, 597.0]);
    }
}
