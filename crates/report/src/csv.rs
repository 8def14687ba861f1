//! CSV emitters: machine-readable artifacts for every numeric table,
//! suitable for plotting Figure 1 and re-deriving Figures 2–4 exactly
//! as the paper's artifact appendix describes.

use crate::serve::{serve_artifacts, verb_rows};
use crate::tables::{table2, table3, table6, ComparisonRow};

fn rows_to_csv(header: &[&str], rows: &[ComparisonRow]) -> String {
    let mut out = String::from("row");
    for h in header {
        out.push_str(&format!(",{h}_simulated,{h}_published"));
    }
    out.push('\n');
    for row in rows {
        out.push_str(&row.label.replace(',', ";"));
        for cell in &row.cells {
            let fmt = |v: Option<f64>| v.map(|x| format!("{x:e}")).unwrap_or_default();
            out.push_str(&format!(",{},{}", fmt(cell.simulated), fmt(cell.published)));
        }
        out.push('\n');
    }
    out
}

/// Table II as CSV (SI units).
pub fn table2_csv() -> String {
    rows_to_csv(
        &[
            "aurora_1stack",
            "aurora_1pvc",
            "aurora_node",
            "dawn_1stack",
            "dawn_1pvc",
            "dawn_node",
        ],
        &table2(),
    )
}

/// Table III as CSV (SI units).
pub fn table3_csv() -> String {
    rows_to_csv(
        &["aurora_1pair", "aurora_allpairs", "dawn_1pair", "dawn_allpairs"],
        &table3(),
    )
}

/// Table VI as CSV.
pub fn table6_csv() -> String {
    rows_to_csv(
        &[
            "aurora_1stack",
            "aurora_1gpu",
            "aurora_node",
            "dawn_1stack",
            "dawn_1gpu",
            "dawn_node",
            "h100_1gpu",
            "h100_node",
            "mi250_1gcd",
            "mi250_node",
        ],
        &table6(),
    )
}

/// Figure 1 as the `fig1` artifact row serves it: the bytes
/// `reproduce fig1` prints.
fn figure1_csv() -> std::io::Result<String> {
    let mut served = serve_artifacts(&verb_rows("fig1")).map_err(std::io::Error::other)?;
    Ok(served.remove(0))
}

/// Writes every CSV artifact (tables II/III/VI + Figure 1) into `dir`;
/// returns the written paths.
pub fn write_artifacts(dir: &std::path::Path) -> std::io::Result<Vec<std::path::PathBuf>> {
    std::fs::create_dir_all(dir)?;
    let fig1 = figure1_csv()?;
    let files = [
        ("table2.csv", table2_csv()),
        ("table3.csv", table3_csv()),
        ("table6.csv", table6_csv()),
        ("figure1.csv", fig1),
    ];
    let mut written = Vec::new();
    for (name, contents) in files {
        let path = dir.join(name);
        std::fs::write(&path, contents)?;
        written.push(path);
    }
    Ok(written)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn table_csvs_have_expected_shape() {
        let t2 = table2_csv();
        let lines: Vec<&str> = t2.lines().collect();
        assert_eq!(lines.len(), 15, "header + 14 rows");
        assert_eq!(lines[0].split(',').count(), 13, "row + 6 x 2 columns");
        let t6 = table6_csv();
        assert_eq!(t6.lines().count(), 7);
        // Dashes are empty fields.
        assert!(t6.contains(",,"));
    }

    #[test]
    fn artifacts_written_to_disk() {
        let dir = std::env::temp_dir().join("pvc_csv_artifacts_test");
        let _ = std::fs::remove_dir_all(&dir);
        let written = write_artifacts(&dir).expect("write artifacts");
        assert_eq!(written.len(), 4);
        for p in &written {
            let meta = std::fs::metadata(p).expect("file exists");
            assert!(meta.len() > 100, "{p:?} is non-trivial");
        }
        // The `fig1` row's bytes, whose digest
        // `figdata::tests::default_figure1_csv_bytes_are_pinned` pins.
        let fig1 = std::fs::read_to_string(dir.join("figure1.csv")).expect("read figure1.csv");
        assert_eq!(fig1, figure1_csv().expect("fig1 serves"));
        let _ = std::fs::remove_dir_all(&dir);
    }
}
