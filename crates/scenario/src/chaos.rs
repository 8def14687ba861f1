//! Running scenarios under chaos overlays: degraded execution, the
//! baseline/degraded delta, and bottleneck attribution from the trace.
//!
//! The overlay mechanism lives in [`pvc_arch::chaos`]; this module binds
//! it to the registry so any [`ScenarioId`] cell — microbenchmark,
//! mini-app, figure pipeline — runs degraded through the exact code path
//! a healthy run uses. Bottleneck attribution reads the per-resource
//! `util:{label}` gauges the flow network already records, so the report
//! needs no new instrumentation.

use crate::error::ScenarioError;
use crate::registry::Registry;
use crate::scenario::{Ctx, Outcome};
use pvc_arch::chaos::{with_overlay, ChaosSpec};
use pvc_arch::System;
use pvc_obs::trace::Record;

/// Runs one cell under `spec` with tracing off — the serve-atom and
/// property-suite path. Lookup failures and invalid specs both surface
/// as typed [`ScenarioError`]s.
pub fn run_overlaid(
    reg: &Registry,
    slug: &str,
    system: System,
    spec: &ChaosSpec,
) -> Result<Outcome, ScenarioError> {
    let scenario = reg.get(slug, system)?;
    with_overlay(system, spec, || scenario.run(&mut Ctx::quiet())).map_err(|e| {
        ScenarioError::bad_request(format!(
            "chaos spec '{}' rejected for {slug}@{}: {e}",
            spec.canonical(),
            system.cli_name()
        ))
    })
}

/// A baseline/degraded pair for one cell, with the busiest resource of
/// each run (from the trace's utilization gauges).
#[derive(Debug, Clone)]
pub struct ChaosRun {
    /// The overlay that produced `degraded`.
    pub spec: ChaosSpec,
    /// The healthy run.
    pub baseline: Outcome,
    /// The run under `spec`.
    pub degraded: Outcome,
    /// Busiest resource label of the healthy run, if the scenario
    /// touched the flow network.
    pub baseline_bottleneck: Option<String>,
    /// Busiest resource label of the degraded run.
    pub degraded_bottleneck: Option<String>,
}

impl ChaosRun {
    /// Signed relative FOM change `(degraded - baseline) / baseline`,
    /// or `None` when the ratio is undefined (zero or non-finite
    /// endpoints — e.g. a killed link driving a latency to infinity).
    pub fn delta_fraction(&self) -> Option<f64> {
        let b = self.baseline.fom.raw();
        let d = self.degraded.fom.raw();
        (b != 0.0 && b.is_finite() && d.is_finite()).then(|| (d - b) / b)
    }

    /// Direction-aware monotonicity: true when the degraded FOM is no
    /// better than the baseline (higher-is-better FOMs may only drop,
    /// latencies may only rise).
    pub fn degraded_no_better(&self) -> bool {
        let b = self.baseline.fom.raw();
        let d = self.degraded.fom.raw();
        if self.baseline.fom.kind().higher_is_better() {
            d <= b
        } else {
            d >= b
        }
    }

    /// The delta report `reproduce chaos` prints: both FOMs with their
    /// bottlenecks, the signed delta and whether the bottleneck moved.
    pub fn report(&self) -> String {
        let dir = if self.baseline.fom.kind().higher_is_better() {
            "higher is better"
        } else {
            "lower is better"
        };
        let mut out = format!(
            "chaos report: {} under '{}'\n",
            self.baseline.id,
            self.spec.canonical()
        );
        let side = |label: &str, o: &Outcome, b: &Option<String>| {
            let bn = b.as_deref().unwrap_or("none traced");
            format!("  {label:<9} {} ({dir})  [bottleneck: {bn}]\n", o.fom)
        };
        out.push_str(&side("baseline:", &self.baseline, &self.baseline_bottleneck));
        out.push_str(&side("degraded:", &self.degraded, &self.degraded_bottleneck));
        match self.delta_fraction() {
            Some(d) => out.push_str(&format!("  delta:    {:+.1}%\n", d * 100.0)),
            None => out.push_str(
                "  delta:    n/a (zero or non-finite endpoint — e.g. stranded transfers)\n",
            ),
        }
        if self.baseline_bottleneck != self.degraded_bottleneck {
            out.push_str(&format!(
                "  bottleneck shifted: {} -> {}\n",
                self.baseline_bottleneck.as_deref().unwrap_or("none"),
                self.degraded_bottleneck.as_deref().unwrap_or("none")
            ));
        } else {
            out.push_str("  bottleneck unchanged\n");
        }
        out
    }
}

/// Runs one cell twice — healthy, then under `spec` — with recording
/// tracers, and attributes the bottleneck of each run. The delta-report
/// path behind `reproduce chaos`.
pub fn run_with_chaos(
    reg: &Registry,
    slug: &str,
    system: System,
    spec: &ChaosSpec,
) -> Result<ChaosRun, ScenarioError> {
    let scenario = reg.get(slug, system)?;
    let mut base_ctx = Ctx::recording();
    let baseline = scenario.run(&mut base_ctx);
    let baseline_bottleneck = bottleneck(&base_ctx.tracer.records());
    let mut deg_ctx = Ctx::recording();
    let degraded = with_overlay(system, spec, || scenario.run(&mut deg_ctx)).map_err(|e| {
        ScenarioError::bad_request(format!(
            "chaos spec '{}' rejected for {slug}@{}: {e}",
            spec.canonical(),
            system.cli_name()
        ))
    })?;
    let degraded_bottleneck = bottleneck(&deg_ctx.tracer.records());
    Ok(ChaosRun {
        spec: spec.clone(),
        baseline,
        degraded,
        baseline_bottleneck,
        degraded_bottleneck,
    })
}

/// The label of the highest-valued `util:{label}` gauge in `records`.
/// Ties keep the first maximum, so attribution is deterministic.
fn bottleneck(records: &[Record]) -> Option<String> {
    let mut best: Option<(String, f64)> = None;
    for rec in records {
        if let Record::Sample { name, value, .. } = rec {
            if let Some(label) = name.strip_prefix("util:") {
                let beats = best.as_ref().is_none_or(|(_, v)| *value > *v);
                if beats {
                    best = Some((label.to_string(), *value));
                }
            }
        }
    }
    best.map(|(label, _)| label)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::fom::Fom;
    use crate::registry::Registry;

    #[test]
    fn bottleneck_picks_first_maximum() {
        let tracer = pvc_obs::Tracer::recording();
        tracer.sample(pvc_obs::Layer::Simrt, "util:pcie.h2d[g0]", 0.0, 0.9);
        tracer.sample(pvc_obs::Layer::Simrt, "util:rc.h2d[s0]", 0.0, 0.4);
        tracer.sample(pvc_obs::Layer::Simrt, "util:pcie.h2d[g1]", 0.0, 0.9);
        assert_eq!(bottleneck(&tracer.records()).as_deref(), Some("pcie.h2d[g0]"));
        assert_eq!(bottleneck(&[]), None);
    }

    #[test]
    fn run_overlaid_empty_spec_matches_plain_run() {
        let reg = Registry::standard();
        let plain = reg.run("stream-triad", System::Aurora).unwrap();
        let overlaid =
            run_overlaid(&reg, "stream-triad", System::Aurora, &ChaosSpec::empty()).unwrap();
        assert_eq!(plain.fom.raw().to_bits(), overlaid.fom.raw().to_bits());
        assert_eq!(plain.detail, overlaid.detail);
    }

    #[test]
    fn run_overlaid_rejects_bad_spec_with_typed_error() {
        let reg = Registry::standard();
        let spec = ChaosSpec::parse("stackdown:12").unwrap();
        let err = run_overlaid(&reg, "stream-triad", System::Aurora, &spec).unwrap_err();
        assert!(
            matches!(err, ScenarioError::BadRequest(ref m) if m.contains("stackdown")),
            "{err:?}"
        );
        let missing = run_overlaid(&reg, "no-such", System::Aurora, &spec).unwrap_err();
        assert!(matches!(missing, ScenarioError::UnknownWorkload { .. }));
    }

    #[test]
    fn chaos_run_reports_direction_aware_delta() {
        let reg = Registry::standard();
        let spec = ChaosSpec::parse("hbm:0.5").unwrap();
        let run = run_with_chaos(&reg, "stream-triad", System::Aurora, &spec).unwrap();
        assert!(run.degraded_no_better());
        let delta = run.delta_fraction().unwrap();
        assert!((delta + 0.5).abs() < 1e-9, "triad tracks HBM: {delta}");
        let report = run.report();
        assert!(report.starts_with("chaos report: stream-triad@aurora under 'hbm:0.5'\n"));
        assert!(report.contains("  delta:    -50.0%\n"), "{report}");
        // Latency direction: a clock cap slows the pointer chase, the
        // latency rises, and that still counts as "no better".
        let cap = ChaosSpec::parse("clock:0.8").unwrap();
        let lat = run_with_chaos(&reg, "lats", System::Aurora, &cap).unwrap();
        assert!(matches!(lat.degraded.fom, Fom::Latency(_)));
        assert!(lat.degraded.fom.raw() > lat.baseline.fom.raw());
        assert!(lat.degraded_no_better());
    }

    #[test]
    fn delta_fraction_none_on_infinite_degradation() {
        let reg = Registry::standard();
        let spec = ChaosSpec::parse("xelink:0:0+xelink:1:0").unwrap();
        let run = run_with_chaos(&reg, "allreduce", System::Aurora, &spec).unwrap();
        assert!(run.degraded.fom.raw().is_infinite(), "{:?}", run.degraded.fom);
        assert!(run.degraded_no_better());
        assert_eq!(run.delta_fraction(), None);
    }
}
