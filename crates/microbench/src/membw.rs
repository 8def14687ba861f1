//! Device-memory-bandwidth microbenchmark (§IV-A2, Table II row 3).

use crate::ScaleTriplet;
use pvc_arch::System;
use pvc_engine::Engine;

/// Result of the triad bandwidth benchmark.
#[derive(Debug, Clone, Copy)]
pub struct MemBandwidth {
    pub system: System,
    /// Aggregate bytes/s at the three scaling levels.
    pub bandwidth: ScaleTriplet,
}

/// Runs the benchmark: the bandwidth model at the three scaling levels.
/// The triad kernel it models is `pvc_kernels::triad`, verified by that
/// crate's tests.
pub fn run(system: System) -> MemBandwidth {
    let engine = Engine::new(system);
    let bandwidth = ScaleTriplet::from_rate(system, |active| engine.stream_bandwidth(active));
    MemBandwidth { system, bandwidth }
}

#[cfg(test)]
mod tests {
    use super::*;
    use pvc_arch::units::rel_err;

    #[test]
    fn triad_bandwidth_matches_table_ii() {
        // Row 3: 1/2/12 TB/s on Aurora, 1/2/8 on Dawn.
        let a = run(System::Aurora).bandwidth;
        assert!(rel_err(a.one_stack, 1e12) < 0.02);
        assert!(rel_err(a.one_pvc, 2e12) < 0.02);
        assert!(rel_err(a.full_node, 12e12) < 0.02);
        let d = run(System::Dawn).bandwidth;
        assert!(rel_err(d.full_node, 8e12) < 0.02);
    }

    #[test]
    fn memory_scales_perfectly_with_stacks() {
        // §IV-B1: "perfect scaling of main memory bandwidth with Stack
        // count" — each stack owns its HBM.
        for sys in System::PVC {
            let b = run(sys).bandwidth;
            let n = sys.node().partitions();
            assert!((b.node_efficiency(n) - 1.0).abs() < 1e-9);
        }
    }

    #[test]
    fn memory_bound_equal_on_aurora_and_dawn() {
        // §VII: "the memory-bound ones performed the same on both
        // systems" — per-stack bandwidth identical.
        let a = run(System::Aurora).bandwidth.one_stack;
        let d = run(System::Dawn).bandwidth.one_stack;
        assert!((a - d).abs() / d < 1e-9);
    }

    #[test]
    fn paper_pass_takes_about_2_4_ms() {
        // 3 x 805 MB at 1 TB/s ≈ 2.4 ms per pass.
        use pvc_kernels::triad;
        let pass_bytes = triad::triad_bytes(triad::PAPER_ARRAY_BYTES / 8, 8) as f64;
        let one_stack = run(System::Aurora).bandwidth.one_stack;
        assert!(rel_err(pass_bytes / one_stack, 2.4e-3) < 0.05);
    }
}
