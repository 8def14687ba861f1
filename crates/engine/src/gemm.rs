//! oneMKL-style GEMM throughput model (§IV-A5, §IV-B5; Table II GEMM
//! rows).
//!
//! Achieved GEMM rate = theoretical unit peak at the sustained clock
//! × library efficiency × multi-partition scaling factor.
//!
//! The efficiencies are the paper's measurements expressed as fractions:
//! "SGEMM reaches nearly 95% of the peak, and DGEMM reaches nearly 80%
//! of the measured peak" on PVC; matrix-unit (XMX) precisions sustain
//! ≈56–63% of their theoretical rate; MI250x reaches 50% of its matrix
//! FP64 peak (Table IV discussion). Every scalar below cites the Table II
//! cell(s) it was fitted to.

use pvc_arch::governor::ScaleCurve;
use pvc_arch::{Precision, System};

/// Calibration of one system × precision: library efficiency vs the
/// un-derated theoretical unit peak, plus the multi-partition scaling
/// curve observed across the three Table II columns.
#[derive(Debug, Clone)]
pub struct GemmCalib {
    /// Fraction of the theoretical (max-clock for FP32/matrix, sustained
    /// FP64 clock for DGEMM) unit peak the library sustains on one
    /// partition.
    pub efficiency: f64,
    /// Scaling factor vs active partitions.
    pub scale: ScaleCurve,
}

/// Calibration lookup. Panics for precisions a system's library does not
/// expose (TF32/FP8 on MI250).
pub fn calib(system: System, p: Precision) -> GemmCalib {
    use Precision::*;
    use System::*;
    let (eff, pts): (f64, Vec<(u32, f64)>) = match (system, p) {
        // ---- Aurora (Table II cols 1-3): 13/26/151, 21/42/242,
        //      207/411/2300, 216/434/2400, 107/208/1200, 448/864/5000.
        (Aurora, Fp64) => (0.756, vec![(1, 1.0), (2, 1.0), (12, 0.968)]),
        (Aurora, Fp32) => (0.917, vec![(1, 1.0), (2, 1.0), (12, 0.960)]),
        (Aurora, Fp16) => (0.564, vec![(1, 1.0), (2, 0.993), (12, 0.926)]),
        (Aurora, Bf16) => (0.589, vec![(1, 1.0), (2, 1.0), (12, 0.926)]),
        (Aurora, Tf32) => (0.583, vec![(1, 1.0), (2, 0.972), (12, 0.934)]),
        (Aurora, Int8 | Fp8) => (0.610, vec![(1, 1.0), (2, 0.964), (12, 0.930)]),
        // ---- Dawn (Table II cols 4-6): 17/30/120, 25/48/188,
        //      246/509/1900, 254/501/2000, 118/200/850, 525/1100/4100.
        (Dawn, Fp64) => (0.865, vec![(1, 1.0), (2, 0.882), (8, 0.882)]),
        (Dawn, Fp32) => (0.954, vec![(1, 1.0), (2, 0.960), (8, 0.940)]),
        (Dawn, Fp16) => (0.587, vec![(1, 1.0), (2, 1.0), (8, 0.965)]),
        (Dawn, Bf16) => (0.606, vec![(1, 1.0), (2, 0.986), (8, 0.984)]),
        (Dawn, Tf32) => (0.563, vec![(1, 1.0), (2, 0.847), (8, 0.900)]),
        (Dawn, Int8 | Fp8) => (0.626, vec![(1, 1.0), (2, 1.0), (8, 0.976)]),
        // ---- H100: cuBLAS sustains ~99% of the quoted 34 TF FP64 (the
        //      FP64 tensor path gives headroom over the vector pipes)
        //      and ~93% of FP32; tensor precisions ~70% of dense peak.
        (JlseH100, Fp64) => (0.99, vec![(1, 1.0)]),
        (JlseH100, Fp32) => (0.93, vec![(1, 1.0)]),
        (JlseH100, Fp16 | Bf16 | Tf32 | Fp8 | Int8) => (0.70, vec![(1, 1.0)]),
        // ---- MI250: Table IV's measured MI250x GCD rates — DGEMM 24.1
        //      of the 48 TF matrix peak (50%, §IV-B5), SGEMM 33.8 of
        //      45.2 (75%).
        (JlseMi250, Fp64) => (0.533, vec![(1, 1.0)]),
        (JlseMi250, Fp32) => (0.748, vec![(1, 1.0)]),
        (JlseMi250, Fp16 | Bf16) => (0.65, vec![(1, 1.0)]),
        (JlseMi250, Int8) => (0.65, vec![(1, 1.0)]),
        (JlseMi250, Tf32 | Fp8) => {
            panic!("CDNA2 has no {p} path (the paper reports no such cell)")
        }
    };
    GemmCalib {
        efficiency: eff,
        scale: ScaleCurve::new(pts),
    }
}

/// Theoretical un-derated unit peak for GEMM at precision `p` on one
/// partition of `system`: matrix-unit rate for matrix precisions, vector
/// rate (at the sustained FP64 clock for DGEMM) otherwise.
pub fn theoretical_unit_peak(system: System, p: Precision) -> f64 {
    let gpu = system.node().gpu;
    let part = &gpu.partition;
    if p.uses_matrix_unit() || part.matrix_ops_per_engine_clock.get(p) > 0.0 {
        let m = part.matrix_engines() as f64
            * part.matrix_ops_per_engine_clock.get(p)
            * gpu.clock.matrix_clock_hz(p);
        let v = part.vector_engines() as f64
            * part.vector_ops_per_engine_clock.get(p)
            * gpu.clock.vector_clock_hz(p);
        m.max(v)
    } else {
        part.vector_engines() as f64
            * part.vector_ops_per_engine_clock.get(p)
            * gpu.clock.vector_clock_hz(p)
    }
}

/// Achieved GEMM rate (flop/s or Iop/s) on one partition of `system`
/// with `active` partitions busy.
pub fn gemm_rate(system: System, p: Precision, active: u32) -> f64 {
    let c = calib(system, p);
    theoretical_unit_peak(system, p) * c.efficiency * c.scale.at(active)
}

/// Saturation fraction of the asymptotic GEMM rate at matrix dimension
/// `n`: small problems cannot fill the device (launch overhead, tile
/// quantisation, too few work-groups). Modelled as
/// `n³ / (n³ + n_half³)`, where `n_half` — the half-saturation
/// dimension — grows with the unit's op rate (faster units need more
/// work to fill; that is why §IV-A5 chooses N = 20480: "large enough
/// such that even the smallest data size (I8) still saturates the PVC's
/// compute throughput").
pub fn saturation_fraction(system: System, p: Precision, n: usize) -> f64 {
    let peak = theoretical_unit_peak(system, p);
    // Calibrated anchor: FP64 vector GEMM half-saturates near n≈1500 on
    // a PVC stack (≈17 TFlop/s); n_half scales with the cube root of
    // the unit rate (time-to-fill argument).
    let n_half = 1500.0 * (peak / 17e12).cbrt();
    let n3 = (n as f64).powi(3);
    n3 / (n3 + n_half.powi(3))
}

#[cfg(test)]
mod tests {
    use super::*;
    use pvc_arch::units::rel_err;

    /// Table II GEMM rows, all 36 published cells (per-partition rates in
    /// T(F/I)op/s; node columns divided by partition count).
    #[test]
    fn gemm_rates_match_table_ii() {
        use Precision::*;
        let aurora: &[(Precision, [f64; 3])] = &[
            (Fp64, [13.0, 26.0, 151.0]),
            (Fp32, [21.0, 42.0, 242.0]),
            (Fp16, [207.0, 411.0, 2300.0]),
            (Bf16, [216.0, 434.0, 2400.0]),
            (Tf32, [107.0, 208.0, 1200.0]),
            (Int8, [448.0, 864.0, 5000.0]),
        ];
        let dawn: &[(Precision, [f64; 3])] = &[
            (Fp64, [17.0, 30.0, 120.0]),
            (Fp32, [25.0, 48.0, 188.0]),
            (Fp16, [246.0, 509.0, 1900.0]),
            (Bf16, [254.0, 501.0, 2000.0]),
            (Tf32, [118.0, 200.0, 850.0]),
            (Int8, [525.0, 1100.0, 4100.0]),
        ];
        for (sys, rows, counts) in [
            (System::Aurora, aurora, [1u32, 2, 12]),
            (System::Dawn, dawn, [1u32, 2, 8]),
        ] {
            for (p, cells) in rows {
                for (col, &published) in cells.iter().enumerate() {
                    let active = counts[col];
                    let got = gemm_rate(sys, *p, active) * active as f64 / 1e12;
                    assert!(
                        rel_err(got, published) < 0.05,
                        "{sys:?} {p} x{active}: model {got:.1} vs paper {published}"
                    );
                }
            }
        }
    }

    #[test]
    fn dgemm_efficiency_is_about_80_percent_of_measured_peak() {
        // §IV-B5: "DGEMM reaches nearly 80% of the measured peak".
        let rate = gemm_rate(System::Aurora, Precision::Fp64, 1);
        let measured_peak = System::Aurora
            .node()
            .gpu
            .vector_peak_per_partition(Precision::Fp64, 1);
        let frac = rate / measured_peak;
        assert!((0.70..0.85).contains(&frac), "DGEMM/peak = {frac:.2}");
    }

    #[test]
    fn sgemm_efficiency_is_about_95_percent() {
        let rate = gemm_rate(System::Dawn, Precision::Fp32, 1);
        let measured_peak = System::Dawn
            .node()
            .gpu
            .vector_peak_per_partition(Precision::Fp32, 1);
        let frac = rate / measured_peak;
        assert!((0.90..1.0).contains(&frac), "SGEMM/peak = {frac:.2}");
    }

    #[test]
    fn mi250_gcd_matches_table_iv_measurements() {
        let d = gemm_rate(System::JlseMi250, Precision::Fp64, 1) / 1e12;
        let s = gemm_rate(System::JlseMi250, Precision::Fp32, 1) / 1e12;
        assert!(rel_err(d, 24.1) < 0.02, "MI250x GCD DGEMM {d:.1}");
        assert!(rel_err(s, 33.8) < 0.02, "MI250x GCD SGEMM {s:.1}");
    }

    #[test]
    fn gemm_time_grows_superlinearly_below_saturation() {
        // Below saturation the rate also rises with n, so time grows
        // slower than 8x per doubling; at large n it approaches 8x.
        // Time is 2n³ over the asymptotic rate scaled by the saturation
        // fraction.
        let (sys, p) = (System::Aurora, Precision::Fp64);
        let time = |n: usize| {
            2.0 * (n as f64).powi(3) / (gemm_rate(sys, p, 1) * saturation_fraction(sys, p, n))
        };
        let (t1, t2) = (time(1024), time(2048));
        assert!(t2 / t1 < 8.0);
        let (t3, t4) = (time(16384), time(32768));
        assert!((t4 / t3 - 8.0).abs() < 0.1);
    }

    #[test]
    fn paper_dimension_saturates_even_i8() {
        // §IV-A5: N = 20480 "is large enough such that even the smallest
        // data size (I8) still saturates the PVC's compute throughput".
        for sys in System::PVC {
            let s = saturation_fraction(sys, Precision::Int8, 20480);
            assert!(s > 0.95, "{sys:?} I8 saturation at N=20480: {s:.3}");
        }
        // …while a 2048³ I8 GEMM would not saturate the matrix units.
        let small = saturation_fraction(System::Aurora, Precision::Int8, 2048);
        assert!(small < 0.7, "small I8 GEMM must under-fill: {small:.3}");
    }

    #[test]
    fn saturation_is_monotone_in_n_and_inverse_in_rate() {
        let f = |n| saturation_fraction(System::Dawn, Precision::Fp16, n);
        assert!(f(512) < f(2048));
        assert!(f(2048) < f(20480));
        // A faster unit saturates later at fixed n.
        let slow = saturation_fraction(System::Dawn, Precision::Fp64, 4096);
        let fast = saturation_fraction(System::Dawn, Precision::Int8, 4096);
        assert!(fast < slow);
    }

    #[test]
    #[should_panic(expected = "CDNA2 has no")]
    fn missing_precision_panics() {
        let _ = calib(System::JlseMi250, Precision::Tf32);
    }
}
