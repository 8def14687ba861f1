//! The golden conformance gate: every printed cell of Tables II, III
//! and VI and every non-table fact must be reproduced within its
//! bound, and the whole pipeline must be bit-reproducible run-to-run.

use pvc_report::conformance;

/// The headline acceptance test: the full report is conformant. On
/// failure the panic message carries every offending citation so the
/// report reads like an erratum, not a stack trace.
#[test]
fn every_published_value_is_reproduced_within_tolerance() {
    let report = conformance::run();
    assert_eq!(report.total(), 139, "135 table cells plus 4 facts");
    let failures: Vec<String> = report
        .failures()
        .iter()
        .map(|c| {
            format!(
                "{}: published {:.4e}, simulated {:.4e} ({:.2}% > {:.2}%)",
                c.source,
                c.published,
                c.simulated,
                c.rel_err() * 100.0,
                c.rel_tol * 100.0
            )
        })
        .collect();
    assert!(
        report.pass(),
        "{} of {} conformance checks failed:\n{}",
        failures.len(),
        report.total(),
        failures.join("\n")
    );
}

/// Two independent end-to-end invocations render byte-identical
/// markdown and JSON — the determinism contract of the hermetic
/// substrate (no wall clock, no ambient randomness anywhere in the
/// producer pipeline).
#[test]
fn conformance_report_is_byte_reproducible() {
    let a = conformance::run();
    let b = conformance::run();
    assert_eq!(a.markdown(), b.markdown(), "markdown differs run-to-run");
    assert_eq!(a.json(), b.json(), "JSON differs run-to-run");
    // Bit-level, not just display-level: every simulated f64 matches.
    for (ea, eb) in a.elements.iter().zip(&b.elements) {
        for (ca, cb) in ea.checks.iter().zip(&eb.checks) {
            assert_eq!(
                ca.simulated.to_bits(),
                cb.simulated.to_bits(),
                "{} is not bit-reproducible",
                ca.id
            );
        }
    }
}

/// The renderings carry the per-element verdicts and each citation.
#[test]
fn renderings_carry_citations_and_verdicts() {
    let report = conformance::run();
    let md = report.markdown();
    for element in ["Table II", "Table III", "Table VI", "Figure 2"] {
        assert!(md.contains(&format!("## {element}")), "missing {element}");
    }
    assert!(md.contains("CONFORMANT"));
    assert!(
        md.contains("| Table II row 1 (Double Precision Peak Flops), Aurora 1 Stack: 17 TFlop/s |")
    );
    let js = report.json();
    for c in report.elements.iter().flat_map(|e| &e.checks) {
        assert!(
            js.contains(&format!("\"{}\"", c.id)),
            "JSON missing check {}",
            c.id
        );
        assert!(md.contains(&c.source), "markdown missing {}", c.source);
    }
}
