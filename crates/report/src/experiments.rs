//! Paper-vs-measured experiment records — the data behind EXPERIMENTS.md.

use crate::tables;
use pvc_core::json::{Json, ToJson};

/// One compared cell.
#[derive(Debug, Clone)]
pub struct ExperimentRecord {
    /// Paper element ("Table II", …).
    pub element: &'static str,
    /// Row label.
    pub row: String,
    /// Row number as printed, from 1.
    pub row_no: usize,
    /// Column label.
    pub column: String,
    /// The paper's value (SI units), if printed.
    pub published: Option<f64>,
    /// Our simulated value (SI units), if modelled.
    pub simulated: Option<f64>,
    /// Relative error where both exist.
    pub rel_err: Option<f64>,
}

const T2_COLS: [&str; 6] = [
    "Aurora 1 Stack",
    "Aurora 1 PVC",
    "Aurora 6 PVC",
    "Dawn 1 Stack",
    "Dawn 1 PVC",
    "Dawn 4 PVC",
];
const T3_COLS: [&str; 4] = [
    "Aurora 1 pair",
    "Aurora 6 pairs",
    "Dawn 1 pair",
    "Dawn 4 pairs",
];
const T6_COLS: [&str; 10] = [
    "Aurora 1 Stack",
    "Aurora 1 GPU",
    "Aurora node",
    "Dawn 1 Stack",
    "Dawn 1 GPU",
    "Dawn node",
    "H100 1 GPU",
    "H100 node",
    "MI250 1 GCD",
    "MI250 node",
];

/// Collects every compared cell of Tables II, III and VI.
pub fn collect() -> Vec<ExperimentRecord> {
    let mut out = Vec::new();
    for (element, rows, cols) in [
        ("Table II", tables::table2(), &T2_COLS[..]),
        ("Table III", tables::table3(), &T3_COLS[..]),
        ("Table VI", tables::table6(), &T6_COLS[..]),
    ] {
        for (i, row) in rows.into_iter().enumerate() {
            for (cell, col) in row.cells.iter().zip(cols.iter()) {
                out.push(ExperimentRecord {
                    element,
                    row: row.label.clone(),
                    row_no: i + 1,
                    column: col.to_string(),
                    published: cell.published,
                    simulated: cell.simulated,
                    rel_err: cell.rel_err(),
                });
            }
        }
    }
    out
}

/// Markdown report of every compared cell (the EXPERIMENTS.md body).
pub fn markdown() -> String {
    let records = collect();
    let mut out = String::new();
    out.push_str("| Element | Row | Column | Paper | Simulated | Rel. err |\n");
    out.push_str("|---|---|---|---|---|---|\n");
    for r in &records {
        let fmt = |v: Option<f64>| match v {
            Some(x) if x.abs() >= 1e9 => format!("{:.3e}", x),
            Some(x) => format!("{x:.3}"),
            None => "—".to_string(),
        };
        out.push_str(&format!(
            "| {} | {} | {} | {} | {} | {} |\n",
            r.element,
            r.row,
            r.column,
            fmt(r.published),
            fmt(r.simulated),
            r.rel_err
                .map(|e| format!("{:.1}%", e * 100.0))
                .unwrap_or_else(|| "—".to_string()),
        ));
    }
    let compared: Vec<&ExperimentRecord> = records.iter().filter(|r| r.rel_err.is_some()).collect();
    let max = compared
        .iter()
        .filter_map(|r| r.rel_err)
        .fold(0.0f64, f64::max);
    let mean = compared.iter().filter_map(|r| r.rel_err).sum::<f64>() / compared.len() as f64;
    out.push_str(&format!(
        "\n{} compared cells; mean relative error {:.1}%, max {:.1}%.\n",
        compared.len(),
        mean * 100.0,
        max * 100.0
    ));
    out
}

impl ToJson for ExperimentRecord {
    fn to_json(&self) -> Json {
        Json::obj(vec![
            ("element", Json::str(self.element)),
            ("row", Json::str(self.row.clone())),
            ("column", Json::str(self.column.clone())),
            ("published", self.published.to_json()),
            ("simulated", self.simulated.to_json()),
            ("rel_err", self.rel_err.to_json()),
        ])
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn collects_all_three_tables() {
        let r = collect();
        assert_eq!(
            r.len(),
            14 * 6 + 4 * 4 + 6 * 10,
            "every cell of Tables II, III, VI"
        );
    }

    #[test]
    fn every_compared_cell_is_within_eight_percent() {
        for r in collect() {
            if let Some(e) = r.rel_err {
                assert!(
                    e < 0.08,
                    "{} / {} / {}: {:.1}%",
                    r.element,
                    r.row,
                    r.column,
                    e * 100.0
                );
            }
        }
    }

    #[test]
    fn markdown_and_json_render() {
        let md = markdown();
        assert!(md.contains("| Table II |"));
        assert!(md.contains("compared cells"));
        let js = collect().to_json().pretty();
        assert!(js.contains("\"element\""));
    }
}
