//! Cross-crate substrate integration: shared types and models must
//! agree across the crates that use them, not just pass their unit
//! tests.

use pvc_arch::{Precision, System};
use pvc_miniapps::decomposition::Decomposition;

/// Decomposition halo traffic feeds the fabric's halo-exchange time and
/// stays negligible at paper scale — the quantitative form of §V-A2's
/// problem-size claim.
#[test]
fn halo_traffic_is_negligible_at_paper_scale() {
    use pvc_fabric::Comm;
    let sys = System::Aurora;
    let comm = Comm::new(sys, 12);
    let d = Decomposition::most_square(12, 15_360, 2);
    let halo_bytes = d.halo_bytes_per_field(4) * 15; // 15 exchanged fields
    let ranks = comm.all_stacks();
    let t_halo = comm.halo_exchange_time(&ranks, halo_bytes as f64);
    // Step compute time: 15360^2 cells x 480 B at 1 TB/s.
    let t_step = 15_360.0f64 * 15_360.0 * 480.0 / 1e12;
    assert!(
        t_halo < 0.05 * t_step,
        "halo {t_halo:.2e} s vs step {t_step:.2e} s"
    );
}

/// `Precision` is one type across crates: the engine's peak and the
/// predictor's bound metric agree (regression guard for the facade).
#[test]
fn precision_enum_is_shared_across_crates() {
    let p = Precision::Fp32;
    let engine = pvc_engine::Engine::new(System::Dawn);
    let peak = engine.vector_peak(p, 1);
    let metric = pvc_predict::bound_metric(
        System::Dawn,
        pvc_engine::BoundKind::Compute(p),
        pvc_miniapps::ScaleLevel::OneStack,
    )
    .unwrap();
    assert_eq!(peak, metric);
}
