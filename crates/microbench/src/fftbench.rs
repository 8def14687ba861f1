//! FFT microbenchmark (§IV-A6, Table II rows 13–14).
//!
//! The library model produces the Table II rates. The transforms it
//! models (the paper's 1D sizes 4096 and 20 000 — the latter on the
//! Bluestein path — and 2D grids) are `pvc_kernels::fft`, whose tests
//! check their round-trips.

use crate::ScaleTriplet;
use pvc_arch::System;
use pvc_engine::fft_model::{fft_rate, FftDim};

/// Result of the FFT benchmark for one system and dimensionality.
#[derive(Debug, Clone, Copy)]
pub struct FftResult {
    pub system: System,
    pub dim: FftDim,
    /// Aggregate flop/s (5·N·log2 N convention) at the three scaling
    /// levels.
    pub rates: ScaleTriplet,
}

/// Runs the benchmark.
pub fn run(system: System, dim: FftDim) -> FftResult {
    let rates = ScaleTriplet::from_rate(system, |active| fft_rate(system, dim, active));
    FftResult { system, dim, rates }
}

#[cfg(test)]
mod tests {
    use super::*;
    use pvc_arch::units::rel_err;

    #[test]
    fn rates_match_table_ii_row_13() {
        let a = run(System::Aurora, FftDim::OneD).rates;
        assert!(rel_err(a.one_stack / 1e12, 3.1) < 0.05);
        assert!(rel_err(a.one_pvc / 1e12, 5.9) < 0.05);
        assert!(rel_err(a.full_node / 1e12, 33.0) < 0.05);
    }

    #[test]
    fn rates_match_table_ii_row_14() {
        let d = run(System::Dawn, FftDim::TwoD).rates;
        assert!(rel_err(d.one_stack / 1e12, 3.6) < 0.05);
        assert!(rel_err(d.full_node / 1e12, 25.0) < 0.05);
    }
}
