//! oneMKL-style FFT throughput model (§IV-A6; Table II FFT rows).
//!
//! The paper reports single-precision C2C rates of 3.1/3.4 TFlop/s per
//! Aurora stack (1D/2D) and 3.6 TFlop/s per Dawn stack. Those rates are
//! an almost constant fraction of each system's FP32 vector peak
//! (3.1/22.9 ≈ 0.135, 3.6/26.2 ≈ 0.137) — the transforms are
//! cache-resident at the benchmark sizes, so they track compute, not
//! HBM, which is also why Aurora/Dawn ≈ the 0.875 Xe-Core ratio. The
//! model is therefore `fp32 theoretical peak × library fraction ×
//! multi-partition scaling`.

use pvc_arch::governor::ScaleCurve;
use pvc_arch::{Precision, System};

/// Transform dimensionality benchmarked in Table II.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum FftDim {
    /// Batched 1D transforms.
    OneD,
    /// 2D transforms.
    TwoD,
}

/// (library fraction of FP32 theoretical peak, multi-partition scaling)
/// fitted to the Table II FFT rows.
fn calib(system: System, dim: FftDim) -> (f64, ScaleCurve) {
    match (system, dim) {
        // Aurora: 3.1/5.9/33 (1D), 3.4/6.0/34 (2D) over FP32 peak 22.9.
        (System::Aurora, FftDim::OneD) => (
            0.1354,
            ScaleCurve::new(vec![(1, 1.0), (2, 0.952), (12, 0.887)]),
        ),
        (System::Aurora, FftDim::TwoD) => (
            0.1485,
            ScaleCurve::new(vec![(1, 1.0), (2, 0.882), (12, 0.833)]),
        ),
        // Dawn: 3.6/6.6/26 (1D), 3.6/6.5/25 (2D) over FP32 peak 26.2.
        (System::Dawn, FftDim::OneD) => (
            0.1374,
            ScaleCurve::new(vec![(1, 1.0), (2, 0.917), (8, 0.903)]),
        ),
        (System::Dawn, FftDim::TwoD) => (
            0.1374,
            ScaleCurve::new(vec![(1, 1.0), (2, 0.903), (8, 0.868)]),
        ),
        // Comparison systems: cuFFT/rocFFT sit in the same ~12-15% band
        // of FP32 peak for cache-resident sizes; not used by any paper
        // table, provided for completeness.
        (System::JlseH100, _) => (0.13, ScaleCurve::flat()),
        (System::JlseMi250, _) => (0.13, ScaleCurve::flat()),
    }
}

/// Achieved single-precision C2C FFT rate (flop/s, using the 5·N·log2 N
/// convention) on one partition with `active` partitions busy.
pub fn fft_rate(system: System, dim: FftDim, active: u32) -> f64 {
    let gpu = system.node().gpu;
    let peak = gpu.partition.vector_engines() as f64
        * gpu.partition.vector_ops_per_engine_clock.get(Precision::Fp32)
        * gpu.clock.vector_clock_hz(Precision::Fp32);
    let (frac, scale) = calib(system, dim);
    peak * frac * scale.at(active)
}

#[cfg(test)]
mod tests {
    use super::*;
    use pvc_arch::units::rel_err;

    #[test]
    fn fft_rates_match_table_ii() {
        let cases = [
            (System::Aurora, FftDim::OneD, [1u32, 2, 12], [3.1, 5.9, 33.0]),
            (System::Aurora, FftDim::TwoD, [1, 2, 12], [3.4, 6.0, 34.0]),
            (System::Dawn, FftDim::OneD, [1, 2, 8], [3.6, 6.6, 26.0]),
            (System::Dawn, FftDim::TwoD, [1, 2, 8], [3.6, 6.5, 25.0]),
        ];
        for (sys, dim, counts, cells) in cases {
            for (active, published) in counts.iter().zip(cells.iter()) {
                let got = fft_rate(sys, dim, *active) * *active as f64 / 1e12;
                assert!(
                    rel_err(got, *published) < 0.05,
                    "{sys:?} {dim:?} x{active}: {got:.2} vs {published}"
                );
            }
        }
    }

    #[test]
    fn aurora_dawn_ratio_tracks_core_count() {
        // FFT is compute-tracking: Aurora/Dawn ≈ 0.875 × (clock-noise).
        let r = fft_rate(System::Aurora, FftDim::OneD, 1) / fft_rate(System::Dawn, FftDim::OneD, 1);
        assert!((r - 0.86).abs() < 0.03, "ratio {r:.3}");
    }
}
