//! GEMM microbenchmark (§IV-A5, Table II rows 7–12).
//!
//! The library throughput model for the paper's N = 20480 runs across
//! six precisions. The blocked GEMM it models is `pvc_kernels::gemm`,
//! verified against a naive oracle by that crate's tests.

use crate::ScaleTriplet;
use pvc_arch::{Precision, System};
use pvc_engine::gemm::gemm_rate;

/// Result of the GEMM benchmark for one system and precision.
#[derive(Debug, Clone, Copy)]
pub struct GemmResult {
    pub system: System,
    pub precision: Precision,
    /// Aggregate op/s at the three scaling levels.
    pub rates: ScaleTriplet,
}

/// Runs the benchmark.
pub fn run(system: System, precision: Precision) -> GemmResult {
    let rates = ScaleTriplet::from_rate(system, |active| gemm_rate(system, precision, active));
    GemmResult {
        system,
        precision,
        rates,
    }
}

/// All six Table II GEMM rows for one system.
pub fn run_all(system: System) -> Vec<GemmResult> {
    Precision::GEMM_ORDER
        .iter()
        .map(|&p| run(system, p))
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use pvc_arch::units::rel_err;

    #[test]
    fn six_rows_in_table_order() {
        let rows = run_all(System::Aurora);
        assert_eq!(rows.len(), 6);
        assert_eq!(rows[0].precision, Precision::Fp64);
        assert_eq!(rows[5].precision, Precision::Int8);
    }

    #[test]
    fn hgemm_node_reaches_petaflops() {
        // Table II: HGEMM full node = 2.3 PFlop/s on Aurora.
        let r = run(System::Aurora, Precision::Fp16);
        assert!(rel_err(r.rates.full_node / 1e15, 2.3) < 0.05);
    }

    #[test]
    fn i8_node_rates() {
        // 5.0 PIop/s Aurora, 4.1 PIop/s Dawn.
        let a = run(System::Aurora, Precision::Int8);
        let d = run(System::Dawn, Precision::Int8);
        assert!(rel_err(a.rates.full_node / 1e15, 5.0) < 0.05);
        assert!(rel_err(d.rates.full_node / 1e15, 4.1) < 0.05);
    }

    #[test]
    fn paper_gemm_time_is_plausible() {
        // 2 x 20480^3 = 17.2 Tflop at 13 TFlop/s ≈ 1.3 s per DGEMM call
        // on one Aurora stack.
        use pvc_engine::gemm::saturation_fraction;
        let (sys, p, n) = (System::Aurora, Precision::Fp64, pvc_kernels::gemm::PAPER_N);
        let rate = run(sys, p).rates.one_stack * saturation_fraction(sys, p, n);
        let time = 2.0 * (n as f64).powi(3) / rate;
        assert!(rel_err(time, 17.18e12 / 13e12) < 0.05);
    }
}
