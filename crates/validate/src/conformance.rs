//! The conformance runner: takes the table-cell checks its caller
//! pairs, evaluates the non-table facts against the simulation crates,
//! and groups the outcomes per paper element, so a report reads like
//! the paper's own table of contents ("Table II: 84/84", "Figure 2:
//! 1/1", …).

use crate::expectations::{facts, Expectation};
use pvc_core::json::{Json, ToJson};

/// One evaluated check of a published value.
#[derive(Debug, Clone)]
pub struct Conformance {
    /// Stable machine-readable key.
    pub id: String,
    /// Paper element ("Table II", …).
    pub element: &'static str,
    /// Citation of the published value.
    pub source: String,
    /// The published value.
    pub published: f64,
    /// The recomputed value.
    pub simulated: f64,
    /// Allowed relative error.
    pub rel_tol: f64,
}

impl Conformance {
    /// Relative error of the simulated value against the published one.
    pub fn rel_err(&self) -> f64 {
        if self.published == 0.0 {
            self.simulated.abs()
        } else {
            (self.simulated - self.published).abs() / self.published.abs()
        }
    }

    /// Whether the simulated value is inside the tolerance band.
    pub fn pass(&self) -> bool {
        self.simulated.is_finite() && self.rel_err() <= self.rel_tol
    }
}

/// All evaluated expectations of one paper element.
#[derive(Debug, Clone)]
pub struct ElementReport {
    /// The element ("Table II", "Figure 2", …).
    pub element: &'static str,
    /// Evaluated checks, in the order [`run`] received them.
    pub checks: Vec<Conformance>,
}

impl ElementReport {
    /// Number of passing checks.
    pub fn passed(&self) -> usize {
        self.checks.iter().filter(|c| c.pass()).count()
    }

    /// Whether every check of this element passes.
    pub fn pass(&self) -> bool {
        self.passed() == self.checks.len()
    }
}

/// The full conformance report: one [`ElementReport`] per paper element,
/// in the order the elements first appear.
#[derive(Debug, Clone)]
pub struct ConformanceReport {
    pub elements: Vec<ElementReport>,
}

impl ConformanceReport {
    /// Total number of checks.
    pub fn total(&self) -> usize {
        self.elements.iter().map(|e| e.checks.len()).sum()
    }

    /// Total number of passing checks.
    pub fn passed(&self) -> usize {
        self.elements.iter().map(|e| e.passed()).sum()
    }

    /// Whether every check passes.
    pub fn pass(&self) -> bool {
        self.passed() == self.total()
    }

    /// Every failing check, flattened.
    pub fn failures(&self) -> Vec<&Conformance> {
        self.elements
            .iter()
            .flat_map(|e| e.checks.iter())
            .filter(|c| !c.pass())
            .collect()
    }

    /// Markdown rendering: one section per element with a per-check
    /// table, then a one-line verdict.
    pub fn markdown(&self) -> String {
        let mut out = String::from("# Conformance report\n");
        for e in &self.elements {
            out.push_str(&format!(
                "\n## {} \u{2014} {}/{} {}\n\n",
                e.element,
                e.passed(),
                e.checks.len(),
                if e.pass() { "PASS" } else { "FAIL" }
            ));
            out.push_str("| Check | Published | Simulated | Rel. err | Tol | Status |\n");
            out.push_str("|---|---|---|---|---|---|\n");
            for c in &e.checks {
                out.push_str(&format!(
                    "| {} | {} | {} | {:.2}% | {:.2}% | {} |\n",
                    c.source,
                    fmt_value(c.published),
                    fmt_value(c.simulated),
                    c.rel_err() * 100.0,
                    c.rel_tol * 100.0,
                    if c.pass() { "pass" } else { "FAIL" }
                ));
            }
        }
        out.push_str(&format!(
            "\n{}/{} checks pass \u{2014} {}\n",
            self.passed(),
            self.total(),
            if self.pass() { "CONFORMANT" } else { "NON-CONFORMANT" }
        ));
        out
    }

    /// JSON rendering (via the hermetic `pvc_core::json` encoder).
    pub fn json(&self) -> String {
        self.to_json().pretty()
    }
}

fn fmt_value(v: f64) -> String {
    if v.abs() >= 1e9 {
        format!("{v:.3e}")
    } else {
        format!("{v:.2}")
    }
}

impl ToJson for Conformance {
    fn to_json(&self) -> Json {
        Json::obj(vec![
            ("id", Json::str(self.id.clone())),
            ("element", Json::str(self.element)),
            ("source", Json::str(self.source.clone())),
            ("published", self.published.to_json()),
            ("simulated", self.simulated.to_json()),
            ("rel_err", self.rel_err().to_json()),
            ("rel_tol", self.rel_tol.to_json()),
            ("pass", self.pass().to_json()),
        ])
    }
}

impl ToJson for ConformanceReport {
    fn to_json(&self) -> Json {
        Json::obj(vec![
            ("total", Json::Int(self.total() as i64)),
            ("passed", Json::Int(self.passed() as i64)),
            ("pass", self.pass().to_json()),
            (
                "elements",
                Json::Arr(
                    self.elements
                        .iter()
                        .map(|e| {
                            Json::obj(vec![
                                ("element", Json::str(e.element)),
                                ("passed", Json::Int(e.passed() as i64)),
                                ("total", Json::Int(e.checks.len() as i64)),
                                (
                                    "checks",
                                    Json::Arr(
                                        e.checks.iter().map(|c| c.to_json()).collect(),
                                    ),
                                ),
                            ])
                        })
                        .collect(),
                ),
            ),
        ])
    }
}

/// Evaluates one expectation.
pub fn evaluate(e: &Expectation) -> Conformance {
    Conformance {
        id: e.id.to_string(),
        element: e.element,
        source: e.source.to_string(),
        published: e.value,
        simulated: (e.produce)(),
        rel_tol: e.rel_tol,
    }
}

/// The report over `table_checks` followed by the evaluated [`facts`],
/// grouped per element; the order of both elements and checks is the
/// order they arrive in.
pub fn run(table_checks: Vec<Conformance>) -> ConformanceReport {
    let mut elements: Vec<ElementReport> = Vec::new();
    let fact_checks: Vec<Conformance> = facts().iter().map(evaluate).collect();
    for c in table_checks.into_iter().chain(fact_checks) {
        match elements.iter_mut().find(|e| e.element == c.element) {
            Some(e) => e.checks.push(c),
            None => elements.push(ElementReport {
                element: c.element,
                checks: vec![c],
            }),
        }
    }
    ConformanceReport { elements }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn pass_logic_uses_the_band() {
        let mut c = Conformance {
            id: "x".to_string(),
            element: "Table II",
            source: "row 1".to_string(),
            published: 100.0,
            simulated: 104.0,
            rel_tol: 0.05,
        };
        assert!(c.pass());
        c.simulated = 106.0;
        assert!(!c.pass());
        c.simulated = f64::NAN;
        assert!(!c.pass());
    }

    #[test]
    fn grouping_preserves_catalog_order() {
        let cell = |element: &'static str| Conformance {
            id: format!("{element} cell"),
            element,
            source: String::new(),
            published: 1.0,
            simulated: 1.0,
            rel_tol: 0.05,
        };
        let tables = ["Table II", "Table III", "Table II", "Table VI"].map(cell);
        let r = run(tables.to_vec());
        let names: Vec<&str> = r.elements.iter().map(|e| e.element).collect();
        assert_eq!(
            names,
            ["Table II", "Table III", "Table VI", "Section II", "Section III", "Figure 2"]
        );
        assert_eq!(r.elements[0].checks.len(), 2);
        assert_eq!(r.total(), tables.len() + facts().len());
    }
}
