//! Ablation benches for the design choices DESIGN.md calls out
//! (E11–E14): each group compares the model with a mechanism enabled
//! against a variant with it turned off, so the performance *and* the
//! printed summary quantify what the mechanism contributes.

use pvc_bench::{criterion_group, criterion_main, Criterion};
use pvc_arch::{Precision, System};
use pvc_fabric::{Comm, NodeFabric, RouteVia, StackId};
use pvc_fabric::comm::Transfer;
use pvc_miniapps::congestion::HostCongestion;
use pvc_miniapps::miniqmc;
use std::hint::black_box;

/// E11 — FP64 TDP downclock (§IV-B2): governed peaks with and without
/// the 1.2 GHz FP64 clock cliff.
fn ablation_governor(c: &mut Criterion) {
    let mut g = c.benchmark_group("ablation_governor");
    g.bench_function("with_downclock", |b| {
        let node = System::Aurora.node();
        b.iter(|| {
            black_box(
                node.gpu.vector_peak_per_partition(Precision::Fp64, 1)
                    / node.gpu.vector_peak_per_partition(Precision::Fp32, 1),
            )
        })
    });
    g.bench_function("without_downclock", |b| {
        let mut node = System::Aurora.node();
        node.gpu.clock.fp64_vector_ghz = node.gpu.clock.max_ghz;
        b.iter(|| {
            black_box(
                node.gpu.vector_peak_per_partition(Precision::Fp64, 1)
                    / node.gpu.vector_peak_per_partition(Precision::Fp32, 1),
            )
        })
    });
    g.finish();
}

/// E12 — PCIe root-complex contention (§IV-B4): full-node D2H with the
/// per-socket pools at their calibrated size vs effectively unlimited.
fn ablation_pcie(c: &mut Criterion) {
    let mut g = c.benchmark_group("ablation_pcie_contention");
    g.sample_size(20);
    let run = |node: &pvc_arch::NodeModel| {
        let comm = Comm::new(node.system, node.partitions());
        // Rebuild transfers against the given node: all-stack D2H.
        let ts: Vec<Transfer> = (0..node.gpus)
            .flat_map(|gg| {
                (0..node.gpu.partitions).map(move |s| Transfer::D2h(StackId::new(gg, s)))
            })
            .collect();
        comm.run_transfers(&ts, 500e6).aggregate_bandwidth()
    };
    g.bench_function("with_rc_pools", |b| {
        let node = System::Aurora.node();
        b.iter(|| black_box(run(&node)))
    });
    g.bench_function("without_rc_pools", |b| {
        let mut node = System::Aurora.node();
        node.cpu.rc_h2d = 1e15;
        node.cpu.rc_d2h = 1e15;
        node.cpu.rc_duplex = 1e15;
        // Comm::new() rebuilds from System presets, so route through the
        // fabric directly for the modified node.
        b.iter(|| {
            let fabric = NodeFabric::with_active(&node, node.partitions());
            let mut net = fabric.net.clone_resources();
            let ids: Vec<_> = (0..node.gpus)
                .flat_map(|gg| {
                    (0..node.gpu.partitions).map(move |s| StackId::new(gg, s))
                })
                .map(|s| {
                    net.add_flow(pvc_simrt::FlowSpec {
                        start: pvc_simrt::Time::ZERO,
                        bytes: 500e6,
                        path: fabric.d2h_path(s),
                        latency: 0.0,
                    })
                })
                .collect();
            let done = net.run();
            let agg: f64 = ids.iter().map(|id| done[id].bandwidth()).sum();
            black_box(agg)
        })
    });
    g.finish();
}

/// E13 — miniQMC host congestion (§V-B1): full-node FOM with the fitted
/// congestion model vs an ideal (c_host = 0) host.
fn ablation_congestion(c: &mut Criterion) {
    let mut g = c.benchmark_group("ablation_congestion");
    g.bench_function("with_congestion", |b| {
        let m = miniqmc::congestion_model(System::Aurora);
        b.iter(|| black_box(m.throughput(12, 6)))
    });
    g.bench_function("ideal_host", |b| {
        let m = miniqmc::congestion_model(System::Aurora);
        let ideal = HostCongestion {
            t_gpu: m.t_gpu,
            c_host: 0.0,
            alpha: m.alpha,
        };
        b.iter(|| black_box(ideal.throughput(12, 6)))
    });
    g.finish();
}

/// E14 — Xe-Link plane routing (§IV-A4): the two candidate two-hop
/// routes for a cross-plane transfer, plus the one-hop same-plane case.
fn ablation_planes(c: &mut Criterion) {
    let node = System::Aurora.node();
    let fabric = NodeFabric::new(&node);
    let mut g = c.benchmark_group("ablation_planes");
    for (name, from, to, via) in [
        ("cross_plane_via_source", StackId::new(0, 0), StackId::new(1, 0), RouteVia::SourceSibling),
        ("cross_plane_via_dest", StackId::new(0, 0), StackId::new(1, 0), RouteVia::DestSibling),
        ("same_plane_one_hop", StackId::new(0, 0), StackId::new(1, 1), RouteVia::Auto),
    ] {
        g.bench_function(name, |b| {
            b.iter(|| {
                black_box(fabric.isolated_bandwidth(fabric.d2d_path(from, to, via)))
            })
        });
    }
    g.finish();
}

criterion_group!(
    ablations,
    ablation_governor,
    ablation_pcie,
    ablation_congestion,
    ablation_planes
);
criterion_main!(ablations);
