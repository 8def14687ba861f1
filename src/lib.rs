//! # pvc-repro — facade for the PVC single-node benchmarking reproduction
//!
//! One-stop public API for the reproduction of *"Ponte Vecchio Across the
//! Atlantic: Single-Node Benchmarking of Two Intel GPU Systems"* (SC 2024).
//!
//! ```
//! use pvc_repro::prelude::*;
//!
//! // Pick a system and ask the models anything the paper measures:
//! let aurora = System::Aurora.node();
//! assert_eq!(aurora.partitions(), 12);
//!
//! // Peak FP64 flops of one stack (Table II row 1, col 1): ~17 TFlop/s.
//! let peak = aurora.gpu.vector_peak_per_partition(Precision::Fp64, 1);
//! assert!((peak / 1e12 - 17.0).abs() < 0.5);
//!
//! // A full Table VI cell:
//! let fom = pvc_repro::predict::fom(AppKind::CloverLeaf, System::Dawn, ScaleLevel::OneStack);
//! assert!((fom.unwrap() - 22.46).abs() < 0.5);
//! ```
//!
//! The subsystem crates are re-exported under their short names:
//!
//! | module | crate | contents |
//! |---|---|---|
//! | [`core`] | pvc-core | hermetic substrate: rng / par / json / check |
//! | [`arch`] | pvc-arch | machine models (§II, §III, Table IV) |
//! | [`simrt`] | pvc-simrt | discrete-event runtime, max–min flows |
//! | [`memsim`] | pvc-memsim | cache simulation, `lats` (Figure 1) |
//! | [`fabric`] | pvc-fabric | PCIe/MDFI/Xe-Link graph, MPI-like Comm |
//! | [`kernels`] | pvc-kernels | real FMA/triad/GEMM/FFT kernels |
//! | [`engine`] | pvc-engine | kernel-to-time performance engine |
//! | [`microbench`] | pvc-microbench | the seven benchmarks (Tables I–III) |
//! | [`miniapps`] | pvc-miniapps | miniBUDE, CloverLeaf, miniQMC, mini-GAMESS |
//! | [`apps`] | pvc-apps | OpenMC-like transport, CRK-HACC-like N-body |
//! | [`predict`] | pvc-predict | expected-ratio model (Figures 2–4) |
//! | [`scenario`] | pvc-scenario | typed workload × system registry |
//! | [`report`] | pvc-report | table/figure regeneration |
//! | [`serve`] | pvc-serve | batching/caching query service core |
//! | [`store`] | pvc-store | persistent content-addressed result store |
//! | [`validate`] | pvc-validate | golden conformance + metamorphic suites |

pub use pvc_apps as apps;
pub use pvc_arch as arch;
pub use pvc_core as core;
pub use pvc_engine as engine;
pub use pvc_fabric as fabric;
pub use pvc_kernels as kernels;
pub use pvc_memsim as memsim;
pub use pvc_microbench as microbench;
pub use pvc_miniapps as miniapps;
pub use pvc_predict as predict;
pub use pvc_report as report;
pub use pvc_scenario as scenario;
pub use pvc_serve as serve;
pub use pvc_simrt as simrt;
pub use pvc_store as store;
pub use pvc_validate as validate;

/// The most commonly used types, one `use` away.
pub mod prelude {
    pub use pvc_arch::{GpuModel, NodeModel, Precision, System};
    pub use pvc_core::SimRng;
    pub use pvc_engine::{BoundKind, Engine, KernelProfile};
    pub use pvc_fabric::{Comm, NodeFabric, StackId};
    pub use pvc_miniapps::ScaleLevel;
    pub use pvc_predict::{fom, AppKind};
    pub use pvc_scenario::{Fom, Registry, Scenario, ScenarioId, Workload};
    pub use pvc_simrt::{EventSim, FlowNetwork, FlowSpec, Time};
}

#[cfg(test)]
mod tests {
    use super::prelude::*;

    #[test]
    fn facade_exposes_the_pipeline_end_to_end() {
        // microbenchmark -> prediction -> mini-app FOM, all reachable
        // through the facade.
        let engine = Engine::new(System::Aurora);
        let bw = engine.stream_bandwidth(1);
        assert!((bw / 1e12 - 1.0).abs() < 0.05);

        let bar = pvc_predict::figure2()
            .into_iter()
            .find(|b| b.app == AppKind::MiniBude && b.level == ScaleLevel::OneStack)
            .unwrap();
        assert!(bar.measured.is_some() && bar.expected.is_some());
    }

    #[test]
    fn facade_exposes_the_scenario_registry() {
        // The same dispatch layer the tables, profiles, serve executor
        // and conformance use, reachable from the prelude.
        let reg = Registry::standard();
        let out = reg.run("stream-triad", System::Aurora).unwrap();
        // Table II row 3, Aurora 6 PVC: ~12 TB/s.
        assert!((out.fom.value() / 1e3 - 12.0).abs() < 1.0, "{}", out.fom);
    }
}
