//! Conformance section of the report: renders the `pvc-validate`
//! golden-expectation run next to the experiment records, so one
//! document answers both "what do we simulate?" (EXPERIMENTS.md) and
//! "is it still the paper?" (this section).

use pvc_validate::conformance::{self, ConformanceReport};

/// Markdown of the full conformance run (per-element pass/fail tables),
/// from one run; `Err(rendered failures)` when any check fails.
pub fn markdown() -> Result<String, String> {
    let r = conformance::run();
    passes(&r)?;
    Ok(r.markdown())
}

/// One-line verdict for CLI gating: `Ok(summary)` when every check
/// passes, `Err(rendered failures)` otherwise.
pub fn verdict() -> Result<String, String> {
    let r = conformance::run();
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

    #[test]
    fn verdict_is_green_and_counts_the_catalog() {
        let v = verdict().expect("conformance must pass");
        assert!(v.contains("published values reproduced"));
    }

    #[test]
    fn markdown_has_all_elements() {
        let md = markdown().expect("conformance must pass");
        for e in ["Table II", "Table III", "Table VI"] {
            assert!(md.contains(&format!("## {e}")));
        }
    }
}
