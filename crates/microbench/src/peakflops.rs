//! Peak-flops microbenchmark (§IV-A1, Table II rows 1–2).
//!
//! Evaluates the governed peak model at the three scaling levels. The
//! chain-of-FMA kernel it models (2 flops per FMA, converging to a known
//! fixed point) is `pvc_kernels::fma`, verified by that crate's tests.

use crate::ScaleTriplet;
use pvc_arch::{Precision, System};
use pvc_engine::Engine;
use pvc_obs::{Layer, Tracer};

/// Result of the peak-flops benchmark for one system and precision.
#[derive(Debug, Clone, Copy)]
pub struct PeakFlops {
    pub system: System,
    pub precision: Precision,
    /// Aggregate flop/s at the three scaling levels.
    pub rates: ScaleTriplet,
}

/// Runs the benchmark.
pub fn run(system: System, precision: Precision) -> PeakFlops {
    run_traced(system, precision, &Tracer::disabled())
}

/// Nominal virtual duration of one scaling-level measurement in the
/// profile timeline. The FMA chain is a fixed-length rate measurement,
/// so levels are laid out as equal-length spans.
const LEVEL_SECS: f64 = 1.0;

/// Like [`run`], recording each scaling level as a workload-lane span
/// and the governor's throttle decision (clock × precision × derate) as
/// an arch-lane `governor.clock` instant at each level boundary.
pub fn run_traced(system: System, precision: Precision, tracer: &Tracer) -> PeakFlops {
    let engine = Engine::new(system);
    let node = system.node();
    let levels = [
        ("peakflops.one_stack", 1u32),
        ("peakflops.one_pvc", node.gpu.partitions),
        ("peakflops.full_node", node.partitions()),
    ];
    let rate = |active: u32| engine.vector_peak(precision, active);
    if tracer.enabled() {
        for (i, &(name, active)) in levels.iter().enumerate() {
            let t0 = i as f64 * LEVEL_SECS;
            node.gpu
                .clock
                .observe_vector_clock(precision, active, tracer, t0);
            let agg = rate(active) * active as f64;
            tracer.span(
                Layer::Workload,
                name,
                t0,
                t0 + LEVEL_SECS,
                vec![
                    ("precision", format!("{precision}").into()),
                    ("active", (active as i64).into()),
                    ("aggregate_tflops", (agg / 1e12).into()),
                ],
            );
        }
    }
    let rates = ScaleTriplet::from_rate(system, rate);
    PeakFlops {
        system,
        precision,
        rates,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use pvc_arch::units::rel_err;

    /// Table II rows 1–2, all 12 cells.
    #[test]
    fn peak_flops_match_table_ii() {
        let cases = [
            (System::Aurora, Precision::Fp64, [17.0, 33.0, 195.0]),
            (System::Aurora, Precision::Fp32, [23.0, 45.0, 268.0]),
            (System::Dawn, Precision::Fp64, [20.0, 37.0, 140.0]),
            (System::Dawn, Precision::Fp32, [26.0, 52.0, 207.0]),
        ];
        for (sys, p, cells) in cases {
            let r = run(sys, p).rates;
            for (got, published) in [
                (r.one_stack / 1e12, cells[0]),
                (r.one_pvc / 1e12, cells[1]),
                (r.full_node / 1e12, cells[2]),
            ] {
                assert!(
                    rel_err(got, published) < 0.03,
                    "{sys:?} {p}: {got:.1} vs {published}"
                );
            }
        }
    }

    #[test]
    fn fp32_to_fp64_ratio_is_1_3x() {
        // §IV-B2: "the ratio between single and double precision Flops is
        // 1.3x (23/17) on a single Stack on Aurora".
        let d = run(System::Aurora, Precision::Fp64).rates.one_stack;
        let s = run(System::Aurora, Precision::Fp32).rates.one_stack;
        assert!((s / d - 23.0 / 17.0).abs() < 0.05, "ratio {}", s / d);
    }

    #[test]
    fn scaling_efficiencies_match_section_iv_b1() {
        // "97% scaling efficiency for two Stacks, and 95% for the full
        // node" on Aurora (FP64; quoted against the rounded 17).
        let r = run(System::Aurora, Precision::Fp64).rates;
        let eff2 = r.one_pvc / (2.0 * r.one_stack);
        let eff12 = r.node_efficiency(12);
        assert!((0.94..=0.99).contains(&eff2), "two-stack eff {eff2:.3}");
        assert!((0.92..=0.97).contains(&eff12), "node eff {eff12:.3}");
    }

    #[test]
    fn traced_run_records_governor_transitions() {
        let tracer = Tracer::recording();
        let traced = run_traced(System::Aurora, Precision::Fp64, &tracer);
        let plain = run(System::Aurora, Precision::Fp64);
        assert_eq!(
            traced.rates.full_node.to_bits(),
            plain.rates.full_node.to_bits()
        );
        let governor: Vec<_> = tracer
            .records()
            .iter()
            .filter(|r| r.name() == "governor.clock")
            .map(|r| r.start())
            .collect();
        assert_eq!(governor, vec![0.0, 1.0, 2.0]);
        let workload = tracer
            .records()
            .iter()
            .filter(|r| r.layer() == pvc_obs::Layer::Workload)
            .count();
        assert_eq!(workload, 3);
    }
}
