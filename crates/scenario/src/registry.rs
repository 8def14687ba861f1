//! The global scenario registry: every workload × system pair the paper
//! runs, registered once and dispatched everywhere (tables, figures,
//! profiles, serving, conformance, CLI).

use crate::error::ScenarioError;
use crate::fom::{Fom, FomKind};
use crate::id::{Params, ScenarioId, Workload};
use crate::scenario::{Ctx, Outcome, Scenario};
use pvc_arch::{Precision, System};
use pvc_engine::fft_model::FftDim;
use pvc_fabric::comm::{Comm, Transfer};
use pvc_fabric::{RouteVia, StackId};
use pvc_microbench::p2p::{self, PairKind};
use pvc_microbench::pcie::{self, PcieMode};
use pvc_microbench::{fftbench, gemmbench, latsbench, membw, peakflops};
use pvc_miniapps::profile as miniprof;
use pvc_miniapps::ScaleLevel;
use pvc_obs::Tracer;
use pvc_predict::fomsource::{fom, has_fom, AppKind};

/// The payload a scenario run produces: headline figure of merit plus
/// named detail values (scaling levels, plateaus, pair counts).
type RunResult = (Fom, Vec<(&'static str, f64)>);

/// A registry-owned scenario implemented by a function pointer over its
/// own [`ScenarioId`]. All 61 built-in grid cells use this shape; crates
/// higher in the stack (e.g. `pvc-report`'s figure pipeline) register
/// their own [`Scenario`] impls on top.
pub struct Builtin {
    id: ScenarioId,
    kind: FomKind,
    unit: &'static str,
    citation: &'static str,
    description: &'static str,
    profile: Option<&'static str>,
    runner: fn(&ScenarioId, &Tracer) -> RunResult,
}

impl Scenario for Builtin {
    fn id(&self) -> ScenarioId {
        self.id
    }
    fn fom_kind(&self) -> FomKind {
        self.kind
    }
    fn unit(&self) -> &'static str {
        self.unit
    }
    fn citation(&self) -> &'static str {
        self.citation
    }
    fn description(&self) -> &'static str {
        self.description
    }
    fn profile_name(&self) -> Option<&'static str> {
        self.profile
    }
    fn run(&self, ctx: &mut Ctx) -> Outcome {
        let (fom, detail) = ctx.observe(|| (self.runner)(&self.id, &ctx.tracer));
        Outcome {
            id: self.id,
            fom,
            detail,
        }
    }
}

/// The one dispatch layer. Holds every registered scenario in
/// registration order (table order of the paper).
#[derive(Default)]
pub struct Registry {
    scenarios: Vec<Box<dyn Scenario>>,
}

impl Registry {
    /// An empty registry.
    pub fn new() -> Self {
        Registry::default()
    }

    /// The standard grid: every workload × system pair the paper runs
    /// (Tables I–III, VI; Figures 1–4), minus report-layer extensions
    /// like the figure-render pipeline which register themselves on top.
    ///
    /// Building it runs no model: which app cells exist is read from
    /// the declared Table VI availability ([`has_fom`]), never from a
    /// computed value.
    pub fn standard() -> Self {
        let mut r = Registry::new();
        register_microbenchmarks(&mut r);
        register_fabric(&mut r);
        register_apps(&mut r);
        r
    }

    /// Registers one scenario. Panics if its id is already taken — a
    /// duplicate registration is a programming error, not a runtime
    /// condition.
    pub fn register(&mut self, s: Box<dyn Scenario>) {
        let id = s.id();
        assert!(
            !self.scenarios.iter().any(|e| e.id() == id),
            "duplicate scenario registration: {id}"
        );
        self.scenarios.push(s);
    }

    /// Every scenario, registration order.
    pub fn iter(&self) -> impl Iterator<Item = &dyn Scenario> {
        self.scenarios.iter().map(|s| s.as_ref())
    }

    /// Number of registered scenarios (the grid size).
    pub fn len(&self) -> usize {
        self.scenarios.len()
    }

    /// True when nothing is registered.
    pub fn is_empty(&self) -> bool {
        self.scenarios.is_empty()
    }

    /// Unique workload slugs, registration order.
    pub fn slugs(&self) -> Vec<String> {
        let mut out: Vec<String> = Vec::new();
        for s in self.iter() {
            let slug = s.id().slug();
            if !out.contains(&slug) {
                out.push(slug);
            }
        }
        out
    }

    /// Unique profile workload names, registration order.
    pub fn profile_names(&self) -> Vec<&'static str> {
        let mut out: Vec<&'static str> = Vec::new();
        for s in self.iter() {
            if let Some(name) = s.profile_name() {
                if !out.contains(&name) {
                    out.push(name);
                }
            }
        }
        out
    }

    /// Looks up the scenario for `slug` on `system`. Distinguishes "no
    /// such workload" (carries the slug catalog) from "workload exists
    /// but not on this system" (carries the systems it IS on).
    pub fn get(&self, slug: &str, system: System) -> Result<&dyn Scenario, ScenarioError> {
        let mut available: Vec<&'static str> = Vec::new();
        for s in self.iter() {
            let id = s.id();
            if id.slug() == slug {
                if id.system == system {
                    return Ok(s);
                }
                available.push(id.system.cli_name());
            }
        }
        if available.is_empty() {
            Err(ScenarioError::UnknownWorkload {
                got: slug.to_string(),
                catalog: self.slugs(),
            })
        } else {
            Err(ScenarioError::Unregistered {
                workload: slug.to_string(),
                system: system.cli_name().to_string(),
                available,
            })
        }
    }

    /// Looks up a profile workload by catalog name on `system`.
    pub fn profile(&self, name: &str, system: System) -> Result<&dyn Scenario, ScenarioError> {
        let mut available: Vec<&'static str> = Vec::new();
        for s in self.iter() {
            if s.profile_name() == Some(name) {
                if s.id().system == system {
                    return Ok(s);
                }
                available.push(s.id().system.cli_name());
            }
        }
        if available.is_empty() {
            Err(ScenarioError::UnknownProfile {
                got: name.to_string(),
                catalog: self.profile_names().iter().map(|n| n.to_string()).collect(),
            })
        } else {
            Err(ScenarioError::Unregistered {
                workload: name.to_string(),
                system: system.cli_name().to_string(),
                available,
            })
        }
    }

    /// Every profile workload registered on `system`, catalog order.
    pub fn profiles(&self, system: System) -> Vec<&dyn Scenario> {
        self.iter()
            .filter(|s| s.profile_name().is_some() && s.id().system == system)
            .collect()
    }

    /// Resolves and runs `slug` on `system` with tracing off.
    pub fn run(&self, slug: &str, system: System) -> Result<Outcome, ScenarioError> {
        Ok(self.get(slug, system)?.run(&mut Ctx::quiet()))
    }
}

/// Triplet detail entries shared by every Table II scenario.
fn triplet_detail(t: pvc_microbench::ScaleTriplet) -> Vec<(&'static str, f64)> {
    vec![
        ("one_stack", t.one_stack),
        ("one_pvc", t.one_pvc),
        ("full_node", t.full_node),
    ]
}

fn run_peakflops(id: &ScenarioId, tracer: &Tracer) -> (Fom, Vec<(&'static str, f64)>) {
    let Params::Prec(prec) = id.params else {
        unreachable!("peakflops registered with a precision")
    };
    let r = peakflops::run_traced(id.system, prec, tracer);
    (Fom::Throughput(r.rates.full_node), triplet_detail(r.rates))
}

fn run_stream_triad(id: &ScenarioId, _tracer: &Tracer) -> (Fom, Vec<(&'static str, f64)>) {
    let r = membw::run(id.system);
    (
        Fom::Bandwidth(r.bandwidth.full_node),
        triplet_detail(r.bandwidth),
    )
}

fn run_pcie(id: &ScenarioId, tracer: &Tracer) -> (Fom, Vec<(&'static str, f64)>) {
    let Params::Mode(mode) = id.params else {
        unreachable!("pcie registered with a mode")
    };
    let r = pcie::run_traced(id.system, mode, tracer);
    (
        Fom::Bandwidth(r.bandwidth.full_node),
        triplet_detail(r.bandwidth),
    )
}

fn run_gemm(id: &ScenarioId, _tracer: &Tracer) -> (Fom, Vec<(&'static str, f64)>) {
    let Params::Prec(prec) = id.params else {
        unreachable!("gemm registered with a precision")
    };
    let r = gemmbench::run(id.system, prec);
    (Fom::Throughput(r.rates.full_node), triplet_detail(r.rates))
}

fn run_fft(id: &ScenarioId, _tracer: &Tracer) -> (Fom, Vec<(&'static str, f64)>) {
    let Params::Dim(dim) = id.params else {
        unreachable!("fft registered with a dimension")
    };
    let r = fftbench::run(id.system, dim);
    (Fom::Throughput(r.rates.full_node), triplet_detail(r.rates))
}

fn run_p2p(id: &ScenarioId, tracer: &Tracer) -> (Fom, Vec<(&'static str, f64)>) {
    let Params::Pair(kind) = id.params else {
        unreachable!("p2p registered with a pair kind")
    };
    let r = p2p::run(id.system, kind);
    if tracer.enabled() {
        // The profile view traces one representative 500 MB transfer
        // through the flow network (same call `reproduce profile` always
        // made); the Table III numbers above come from the untraced
        // sweep and are unaffected.
        let comm = Comm::new(id.system, 2);
        let dst = match kind {
            PairKind::LocalStack => StackId::new(0, 1),
            PairKind::RemoteStack => StackId::new(1, 1),
        };
        comm.run_transfers_traced(
            &[Transfer::D2d(StackId::new(0, 0), dst, RouteVia::Auto)],
            500e6,
            tracer,
            0.0,
        );
    }
    (
        Fom::Bandwidth(r.all_pairs_bidi),
        vec![
            ("one_pair_uni", r.one_pair_uni),
            ("one_pair_bidi", r.one_pair_bidi),
            ("all_pairs_uni", r.all_pairs_uni),
            ("all_pairs_bidi", r.all_pairs_bidi),
            ("pair_count", r.pair_count as f64),
        ],
    )
}

/// Quick `lats` sweep: enough footprints to cross every cache level
/// without paying for the full Figure 1 curve. The reported plateaus are
/// properties of the hierarchy, independent of the sweep config.
fn lats_quick_config() -> pvc_memsim::LatsConfig {
    pvc_memsim::LatsConfig {
        min_bytes: 64 * 1024,
        max_bytes: 16 << 20,
        points_per_octave: 1,
        steps: 1 << 12,
    }
}

fn run_lats(id: &ScenarioId, _tracer: &Tracer) -> (Fom, Vec<(&'static str, f64)>) {
    let series = latsbench::run(id.system, &lats_quick_config());
    let gpu = id.system.node().gpu;
    let clock_hz = gpu.clock.max_hz();
    let mut detail: Vec<(&'static str, f64)> = gpu
        .partition
        .caches
        .iter()
        .zip(&series.plateaus)
        .map(|(c, &cycles)| (c.name, cycles))
        .collect();
    let hbm_cycles = *series.plateaus.last().expect("memory plateau");
    detail.push(("HBM", hbm_cycles));
    // Headline: device-memory access latency in seconds at max clock.
    (Fom::Latency(hbm_cycles / clock_hz), detail)
}

fn run_allreduce(id: &ScenarioId, tracer: &Tracer) -> (Fom, Vec<(&'static str, f64)>) {
    let node = id.system.node();
    let comm = Comm::new(id.system, node.partitions());
    let bytes = 1e9;
    let secs = comm.allreduce_time_traced(&comm.all_stacks(), bytes, tracer, 0.0);
    (
        Fom::Latency(secs),
        vec![("bytes", bytes), ("ranks", comm.all_stacks().len() as f64)],
    )
}

/// The [`AppKind`] behind an app workload, if any.
pub fn app_kind(workload: Workload) -> Option<AppKind> {
    match workload {
        Workload::MiniBude => Some(AppKind::MiniBude),
        Workload::CloverLeaf => Some(AppKind::CloverLeaf),
        Workload::MiniQmc => Some(AppKind::MiniQmc),
        Workload::MiniGamess => Some(AppKind::MiniGamess),
        Workload::OpenMc => Some(AppKind::OpenMc),
        Workload::Hacc => Some(AppKind::Hacc),
        _ => None,
    }
}

fn run_app(id: &ScenarioId, tracer: &Tracer) -> (Fom, Vec<(&'static str, f64)>) {
    let app = app_kind(id.workload).expect("app workload");
    let Params::Level(headline) = id.params else {
        unreachable!("apps registered with a headline level")
    };
    if tracer.enabled() {
        // The two profiled apps trace their step pipelines exactly as
        // `reproduce profile` always did.
        match app {
            AppKind::CloverLeaf => {
                miniprof::cloverleaf_profile(id.system, tracer);
            }
            AppKind::MiniQmc => {
                miniprof::miniqmc_profile(id.system, tracer);
            }
            _ => {}
        }
    }
    let mut detail = Vec::new();
    for (key, level) in [
        ("stack", ScaleLevel::OneStack),
        ("gpu", ScaleLevel::OneGpu),
        ("node", ScaleLevel::FullNode),
    ] {
        if let Some(v) = fom(app, id.system, level) {
            detail.push((key, v));
        }
    }
    let headline_fom = fom(app, id.system, headline)
        .unwrap_or_else(|| panic!("{id}: headline level has no FOM"));
    (Fom::FomRate(headline_fom), detail)
}

fn register_microbenchmarks(r: &mut Registry) {
    for sys in System::PVC {
        for prec in [Precision::Fp64, Precision::Fp32] {
            r.register(Box::new(Builtin {
                id: ScenarioId::new(Workload::PeakFlops, Params::Prec(prec), sys),
                kind: FomKind::Throughput,
                unit: FomKind::Throughput.unit(),
                citation: "Table II, §IV-B2",
                description: "chain-of-FMA peak compute sweep with governor throttling",
                profile: (prec == Precision::Fp64).then_some("peakflops"),
                runner: run_peakflops,
            }));
        }
    }
    for sys in System::PVC {
        r.register(Box::new(Builtin {
            id: ScenarioId::new(Workload::StreamTriad, Params::None, sys),
            kind: FomKind::Bandwidth,
            unit: FomKind::Bandwidth.unit(),
            citation: "Table II, §IV-B3",
            description: "STREAM triad HBM bandwidth at the three scaling levels",
            profile: None,
            runner: run_stream_triad,
        }));
    }
    for sys in System::PVC {
        for (mode, profile, desc) in [
            (
                PcieMode::H2d,
                "pcie-h2d",
                "host-to-device PCIe sweep over the three scaling levels",
            ),
            (
                PcieMode::D2h,
                "pcie-d2h",
                "device-to-host PCIe sweep over the three scaling levels",
            ),
            (
                PcieMode::Bidirectional,
                "pcie-bidir",
                "bidirectional PCIe sweep (1.4x duplex factor)",
            ),
        ] {
            r.register(Box::new(Builtin {
                id: ScenarioId::new(Workload::Pcie, Params::Mode(mode), sys),
                kind: FomKind::Bandwidth,
                unit: FomKind::Bandwidth.unit(),
                citation: "Table II, §IV-B4",
                description: desc,
                profile: Some(profile),
                runner: run_pcie,
            }));
        }
    }
    for sys in System::PVC {
        for (kind, profile, desc) in [
            (
                PairKind::LocalStack,
                "p2p-local",
                "MDFI stack-to-stack transfer inside one card",
            ),
            (
                PairKind::RemoteStack,
                "p2p-remote",
                "Xe-Link stack-to-stack transfer between cards",
            ),
        ] {
            r.register(Box::new(Builtin {
                id: ScenarioId::new(Workload::P2p, Params::Pair(kind), sys),
                kind: FomKind::Bandwidth,
                unit: FomKind::Bandwidth.unit(),
                citation: "Table III, §IV-B7",
                description: desc,
                profile: Some(profile),
                runner: run_p2p,
            }));
        }
    }
    for sys in System::PVC {
        for prec in Precision::GEMM_ORDER {
            r.register(Box::new(Builtin {
                id: ScenarioId::new(Workload::Gemm, Params::Prec(prec), sys),
                kind: FomKind::Throughput,
                unit: prec.throughput_unit(),
                citation: "Table II, §IV-B5",
                description: "oneMKL-style N=20480 GEMM throughput",
                profile: None,
                runner: run_gemm,
            }));
        }
    }
    for sys in System::PVC {
        for dim in [FftDim::OneD, FftDim::TwoD] {
            r.register(Box::new(Builtin {
                id: ScenarioId::new(Workload::Fft, Params::Dim(dim), sys),
                kind: FomKind::Throughput,
                unit: FomKind::Throughput.unit(),
                citation: "Table II, §IV-B5",
                description: "oneMKL-style complex FFT throughput (5 N log2 N)",
                profile: None,
                runner: run_fft,
            }));
        }
    }
    // `lats` runs on all four systems: Figure 1 compares the hierarchies.
    for sys in System::ALL {
        r.register(Box::new(Builtin {
            id: ScenarioId::new(Workload::Lats, Params::None, sys),
            kind: FomKind::Latency,
            unit: FomKind::Latency.unit(),
            citation: "Figure 1, §IV-B6",
            description: "pointer-chase latency staircase; headline is the HBM plateau",
            profile: None,
            runner: run_lats,
        }));
    }
}

fn register_fabric(r: &mut Registry) {
    for sys in System::PVC {
        r.register(Box::new(Builtin {
            id: ScenarioId::new(Workload::Allreduce, Params::None, sys),
            kind: FomKind::Latency,
            unit: FomKind::Latency.unit(),
            citation: "§IV-A4",
            description: "full-node 1 GB ring allreduce (reduce-scatter + allgather)",
            profile: Some("allreduce"),
            runner: run_allreduce,
        }));
    }
}

/// Headline scaling level for an app on a system: the widest level
/// Table VI has a value for.
fn headline_level(app: AppKind, sys: System) -> Option<ScaleLevel> {
    [ScaleLevel::FullNode, ScaleLevel::OneGpu, ScaleLevel::OneStack]
        .into_iter()
        .find(|&l| has_fom(app, sys, l))
}

/// Registers one cell per app and system that Table VI has any value
/// for, at its headline level. Registration reads the declared
/// availability ([`has_fom`]) and never computes a FOM.
fn register_apps(r: &mut Registry) {
    for (workload, desc) in [
        (
            Workload::MiniBude,
            "miniBUDE molecular docking FOM (GFInst/s-style rate)",
        ),
        (
            Workload::CloverLeaf,
            "CloverLeaf weak-scaled hydro steps: compute + halo + reduction",
        ),
        (
            Workload::MiniQmc,
            "miniQMC DMC steps with H2D/compute/D2H overlap and host congestion",
        ),
        (Workload::MiniGamess, "mini-GAMESS RI-MP2 correlation energy rate"),
        (Workload::OpenMc, "OpenMC depleted-fuel inactive-batch neutron rate"),
        (Workload::Hacc, "CRK-HACC particle-mesh + short-range force steps"),
    ] {
        let app = app_kind(workload).expect("app table");
        let profile = match workload {
            Workload::CloverLeaf => Some("cloverleaf"),
            Workload::MiniQmc => Some("miniqmc"),
            _ => None,
        };
        for sys in System::ALL {
            // Register only cells Table VI has any value for —
            // mini-GAMESS never built on MI250 (§V-B3), so that cell is
            // absent from the grid just as it is dashed in Table VI.
            let Some(level) = headline_level(app, sys) else {
                continue;
            };
            r.register(Box::new(Builtin {
                id: ScenarioId::new(workload, Params::Level(level), sys),
                kind: FomKind::FomRate,
                unit: FomKind::FomRate.unit(),
                citation: "Table VI, §V-B",
                description: desc,
                profile,
                runner: run_app,
            }));
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn standard_grid_has_the_expected_size() {
        let r = Registry::standard();
        // 4 peakflops + 2 triad + 6 pcie + 4 p2p + 12 gemm + 4 fft
        // + 4 lats + 2 allreduce + 23 app cells (minigamess skips MI250).
        assert_eq!(r.len(), 61);
    }

    #[test]
    fn lookups_distinguish_unknown_from_unregistered() {
        let r = Registry::standard();
        assert!(r.get("stream-triad", System::Aurora).is_ok());
        match r.get("bogus", System::Aurora) {
            Err(ScenarioError::UnknownWorkload { got, catalog }) => {
                assert_eq!(got, "bogus");
                assert!(catalog.iter().any(|s| s == "stream-triad"));
            }
            other => panic!("expected UnknownWorkload, got {other:?}", other = other.err()),
        }
        match r.get("stream-triad", System::JlseH100) {
            Err(ScenarioError::Unregistered { available, .. }) => {
                assert_eq!(available, vec!["aurora", "dawn"]);
            }
            other => panic!("expected Unregistered, got {other:?}", other = other.err()),
        }
    }

    #[test]
    fn minigamess_is_dashed_on_mi250() {
        let r = Registry::standard();
        assert!(r.get("minigamess", System::JlseMi250).is_err());
        assert!(r.get("minigamess", System::JlseH100).is_ok());
    }

    #[test]
    fn duplicate_registration_panics() {
        let mut r = Registry::standard();
        let result = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
            register_fabric(&mut r);
        }));
        assert!(result.is_err(), "duplicate allreduce must panic");
    }

    #[test]
    fn outcomes_are_deterministic_and_typed() {
        let r = Registry::standard();
        let a = r.run("stream-triad", System::Aurora).unwrap();
        let b = r.run("stream-triad", System::Aurora).unwrap();
        assert_eq!(a.fom, b.fom);
        assert_eq!(a.detail, b.detail);
        assert!(matches!(a.fom, Fom::Bandwidth(v) if v > 0.0));
        assert!(a.detail("one_stack").unwrap() <= a.detail("full_node").unwrap());
    }

    #[test]
    fn runs_attribute_simrt_work_to_the_context_metrics() {
        let r = Registry::standard();
        let s = r.get("allreduce", System::Aurora).unwrap();
        let mut ctx = Ctx::quiet();
        let a = s.run(&mut ctx);
        // The ring allreduce drives the flow solver, so its work lands
        // in this context's registry via the ambient sink.
        assert!(ctx.metrics.counter("simrt.flow.runs") > 0);
        assert!(ctx.metrics.counter("simrt.flow.segments") > 0);
        // Attribution is observation only: outcome is bit-identical to
        // an unobserved run.
        let b = r.run("allreduce", System::Aurora).unwrap();
        assert_eq!(a.fom, b.fom);
        assert_eq!(a.detail, b.detail);
    }

    #[test]
    fn lats_headline_is_lower_on_h100_than_aurora() {
        // Figure 1 / §IV-B6: PVC HBM latency is ~23% higher than H100's.
        let r = Registry::standard();
        let pvc = r.run("lats", System::Aurora).unwrap();
        let h100 = r.run("lats", System::JlseH100).unwrap();
        assert!(!pvc.fom.kind().higher_is_better());
        assert!(pvc.fom.value() > h100.fom.value());
    }
}
