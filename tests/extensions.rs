//! Integration tests for the future-work extensions (§VII) that are
//! still in the tree: the power model, collectives and the sparse/ML
//! projection — everything beyond the paper's published elements still
//! has to be self-consistent with the core models.

use pvc_arch::{power, Precision, System};
use pvc_fabric::collectives::{ring_allreduce, tree_broadcast};
use pvc_fabric::StackId;
use pvc_kernels::spmv::synthetic_sparse;

/// The power model, the governor and the Table II peaks must agree:
/// flops/W ordering at FP64 follows peak/cap.
#[test]
fn power_model_consistent_with_peaks() {
    for sys in System::ALL {
        let node = sys.node();
        let fpw = power::flops_per_watt(&node, Precision::Fp64);
        // Sanity band: real HPC GPUs sit between 5 and 160 GF/W FP64.
        assert!(
            (5e9..160e9).contains(&fpw),
            "{sys:?}: {fpw:.2e} flop/W out of band"
        );
        // Energy for a fixed workload is inversely proportional to
        // efficiency.
        let e = power::kernel_energy(&node, Precision::Fp64, 1e15);
        assert!((e - 1e15 / fpw).abs() / e < 1e-9);
    }
}

/// Collectives built on the flow network agree with the analytic
/// allreduce estimate used by mini-GAMESS within the latency budget.
#[test]
fn collective_simulation_matches_analytic_estimate() {
    let sys = System::Aurora;
    let node = sys.node();
    let comm = pvc_fabric::Comm::new(sys, 12);
    let ranks: Vec<StackId> = comm.all_stacks();
    let bytes = 1e9;
    let analytic = comm.allreduce_time(&ranks, bytes);
    let simulated = ring_allreduce(&node, &ranks, bytes).time;
    // The simulated rounds serialise on the slowest link like the
    // analytic model; they differ by per-round latency and fair-share
    // detail only.
    let ratio = simulated / analytic;
    assert!((0.5..2.0).contains(&ratio), "ratio {ratio:.2}");
}

/// Tree broadcast (log n rounds of the full payload) beats the ring
/// allgather (n−1 rounds of the full payload); the chunked ring
/// allreduce beats the naive full-payload tree despite doing 2(n−1)
/// rounds — the classic bandwidth-optimality result, reproduced by the
/// flow simulation.
#[test]
fn collective_algorithm_ordering() {
    use pvc_fabric::collectives::ring_allgather;
    let node = System::Dawn.node();
    let ranks: Vec<StackId> = (0..4)
        .flat_map(|g| (0..2).map(move |s| StackId::new(g, s)))
        .collect();
    let bcast = tree_broadcast(&node, &ranks, 1e9);
    let gather = ring_allgather(&node, &ranks, 1e9);
    let reduce = ring_allreduce(&node, &ranks, 1e9);
    assert!(bcast.time < gather.time, "{} vs {}", bcast.time, gather.time);
    assert!(reduce.time < bcast.time * 2.0, "chunked ring is competitive");
    assert!(bcast.bytes_moved < reduce.bytes_moved);
}

/// SpMV projection endpoints: perfect gather = streaming bound; zero
/// gather = latency bound; both finite and ordered.
#[test]
fn spmv_projection_endpoints() {
    let m = synthetic_sparse::<f64>(50_000, 12, 4);
    for sys in System::ALL {
        let hi = pvc_apps::sparse::spmv_nnz_rate(sys, &m, 1.0);
        let lo = pvc_apps::sparse::spmv_nnz_rate(sys, &m, 0.0);
        assert!(hi > lo, "{sys:?}");
        assert!(lo > 0.0 && hi.is_finite());
    }
}
