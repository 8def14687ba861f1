//! Chain-of-FMA peak-compute kernel (§IV-A1).
//!
//! "This OpenMP microbenchmark performs a chain of Fused Multiply Add
//! instructions (similar to clpeak). Each kernel performs 16 × 128 FMA
//! operations using single and double precision floating point values."
//!
//! The chain is dependent within a lane (preventing the compiler from
//! collapsing it) and independent across lanes (exposing the parallelism
//! a GPU would exploit). Coefficients are chosen so the fixed point is
//! non-trivial and finite.

use crate::scalar::Scalar;
use pvc_core::par;

/// The paper's per-work-item FMA count: 16 × 128.
pub const FMA_PER_WORK_ITEM: u64 = 16 * 128;

/// Result of an FMA-chain run.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct FmaResult {
    /// Total floating point operations performed (2 per FMA).
    pub flops: u64,
    /// Checksum of lane results (defeats dead-code elimination and
    /// verifies determinism).
    pub checksum: f64,
}

/// Runs `lanes` independent dependent-FMA chains of `fma_per_lane`
/// operations each; every lane starts from a distinct seed value.
pub fn fma_chain<T: Scalar>(lanes: usize, fma_per_lane: u64) -> FmaResult {
    // x <- a*x + b with |a| < 1 converges toward b/(1-a): bounded chains
    // of any length.
    let a = T::from_f64(0.5);
    let b = T::from_f64(1.0);
    let checksum: f64 = par::map_sum(lanes, |lane| {
        let mut x = T::from_f64(lane as f64 / lanes.max(1) as f64);
        for _ in 0..fma_per_lane {
            x = x.mul_add(a, b);
        }
        x.to_f64()
    });
    FmaResult {
        flops: 2 * lanes as u64 * fma_per_lane,
        checksum,
    }
}

/// The paper's kernel shape: `work_items` work items, each chaining
/// 16 × 128 FMAs.
pub fn paper_kernel<T: Scalar>(work_items: usize) -> FmaResult {
    fma_chain::<T>(work_items, FMA_PER_WORK_ITEM)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn flop_count_is_two_per_fma() {
        let r = fma_chain::<f64>(8, 100);
        assert_eq!(r.flops, 2 * 8 * 100);
    }

    #[test]
    fn chain_converges_to_fixed_point() {
        // x <- 0.5x + 1 converges to 2 for any start in [0,1).
        let r = fma_chain::<f64>(4, 200);
        assert!((r.checksum - 8.0).abs() < 1e-9, "checksum {}", r.checksum);
    }

    #[test]
    fn deterministic_across_runs_and_parallelism() {
        let a = fma_chain::<f64>(1000, FMA_PER_WORK_ITEM);
        let b = fma_chain::<f64>(1000, FMA_PER_WORK_ITEM);
        assert_eq!(a, b);
    }

    #[test]
    fn single_precision_matches_double_at_fixed_point() {
        let d = paper_kernel::<f64>(64).checksum;
        let s = paper_kernel::<f32>(64).checksum;
        assert!((d - s).abs() < 1e-3);
    }

    /// The paper kernel at 4096 work items (a scaled-down launch): every
    /// lane of the single-precision chain reaches the fixed point 2.
    #[test]
    fn paper_kernel_reaches_fixed_point_at_4096_work_items() {
        let err = (paper_kernel::<f32>(4096).checksum - 2.0 * 4096.0).abs();
        assert!(err < 1e-2, "checksum off by {err}");
    }

    #[test]
    fn paper_kernel_op_count() {
        let r = paper_kernel::<f32>(1);
        assert_eq!(r.flops, 2 * FMA_PER_WORK_ITEM);
    }
}
