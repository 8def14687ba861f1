//! The report-layer view of the scenario registry: the standard grid
//! from `pvc-scenario` plus the figure-render pipeline, which lives up
//! here because it draws on the report's renderers.

use pvc_arch::System;
use pvc_scenario::{Ctx, Fom, FomKind, Outcome, Params, Registry, Scenario, ScenarioId, Workload};
use std::sync::OnceLock;

/// The Figures 2–4 render pipeline as a scenario: runs every bar chart
/// (tracing missing-FOM bars when recording) and reports the mean
/// Aurora-vs-Dawn ratio of Figure 2 as its headline.
struct FiguresScenario {
    system: System,
}

impl Scenario for FiguresScenario {
    fn id(&self) -> ScenarioId {
        ScenarioId::new(Workload::Figures, Params::None, self.system)
    }

    fn fom_kind(&self) -> FomKind {
        FomKind::Ratio
    }

    fn citation(&self) -> &'static str {
        "Figures 2-4, §V-A"
    }

    fn description(&self) -> &'static str {
        "figure renders, tracing bars with missing FOM sources"
    }

    fn profile_name(&self) -> Option<&'static str> {
        Some("figures")
    }

    fn run(&self, ctx: &mut Ctx) -> Outcome {
        let bars = ctx.observe(|| {
            crate::figdata::render_figure2_traced(&ctx.tracer);
            crate::figdata::render_figure3_traced(&ctx.tracer);
            crate::figdata::render_figure4_traced(&ctx.tracer);
            pvc_predict::figure2()
        });
        let measured: Vec<f64> = bars.iter().filter_map(|b| b.measured).collect();
        let mean = measured.iter().sum::<f64>() / measured.len().max(1) as f64;
        Outcome {
            id: self.id(),
            fom: Fom::Ratio(mean),
            detail: vec![
                ("figure2_bars", bars.len() as f64),
                ("figure2_measured", measured.len() as f64),
            ],
        }
    }
}

/// The process-wide registry every report frontend dispatches through:
/// tables, figures, profiles, the serve executor and the `reproduce`
/// CLI all resolve (workload, system) here. Built once, by
/// [`build_registry`].
pub fn registry() -> &'static Registry {
    static REG: OnceLock<Registry> = OnceLock::new();
    REG.get_or_init(build_registry)
}

/// A fresh report-layer grid: [`Registry::standard`] plus the figure
/// pipeline on both PVC systems. Like the standard grid, building it
/// runs no model.
pub fn build_registry() -> Registry {
    let mut r = Registry::standard();
    for system in System::PVC {
        r.register(Box::new(FiguresScenario { system }));
    }
    r
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn report_registry_extends_the_standard_grid() {
        let r = registry();
        assert_eq!(r.len(), Registry::standard().len() + 2);
        assert!(r.get("figures", System::Aurora).is_ok());
        assert!(r.get("figures", System::JlseH100).is_err());
    }

    #[test]
    fn figures_headline_matches_the_paper_mean() {
        // Figure 2's bars sit near the 0.88 peak-ratio expectation
        // (§V-A): Aurora's 56 Xe-Core stacks vs Dawn's 64.
        let out = registry().run("figures", System::Aurora).unwrap();
        assert!(matches!(out.fom, Fom::Ratio(_)));
        let v = out.fom.value();
        assert!((0.80..=1.0).contains(&v), "mean figure-2 ratio {v}");
    }

    #[test]
    fn profile_catalog_has_the_ten_workloads() {
        let names: Vec<&str> = registry()
            .profiles(System::Aurora)
            .iter()
            .map(|s| s.profile_name().unwrap())
            .collect();
        assert_eq!(names.len(), 10, "{names:?}");
        for want in [
            "pcie-h2d",
            "pcie-d2h",
            "pcie-bidir",
            "p2p-local",
            "p2p-remote",
            "allreduce",
            "peakflops",
            "cloverleaf",
            "miniqmc",
            "figures",
        ] {
            assert!(names.contains(&want), "{want} missing from {names:?}");
        }
    }
}
