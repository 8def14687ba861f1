//! The published values that are not cells of Tables II, III and VI:
//! the §II partition counts, the §III power cap and the §V-A Figure 2
//! expected ratio, each typed with a tolerance band, a citation, and a
//! producer closure that recomputes the quantity from the simulation
//! crates.
//!
//! The table cells are not typed here: `pvc-report` pairs every printed
//! cell with its simulated value and hands those checks to
//! [`crate::conformance::run`], which appends these facts.

use pvc_arch::System;
use pvc_predict::figure2;

/// One published value with its provenance and tolerance band.
#[derive(Debug, Clone, Copy)]
pub struct Expectation {
    /// Stable machine-readable key (`sec2_aurora_partitions`, …).
    pub id: &'static str,
    /// Paper element the value belongs to — the grouping key of the
    /// conformance report ("Section II", "Figure 2", …).
    pub element: &'static str,
    /// Citation of the printed number.
    pub source: &'static str,
    /// The published value.
    pub value: f64,
    /// Allowed relative error `|sim - value| / |value|`.
    pub rel_tol: f64,
    /// Recomputes the quantity from the simulation crates.
    pub produce: fn() -> f64,
}

macro_rules! expect {
    ($id:ident, $element:expr, $source:expr, $value:expr, $tol:expr, $body:expr) => {{
        fn $id() -> f64 {
            $body
        }
        Expectation {
            id: stringify!($id),
            element: $element,
            source: $source,
            value: $value,
            rel_tol: $tol,
            produce: $id,
        }
    }};
}

/// The four non-table facts: the §II machine facts, the §III power cap
/// and the §V-A expected-ratio quote.
pub fn facts() -> Vec<Expectation> {
    vec![
        expect!(
            sec2_aurora_partitions,
            "Section II",
            "\u{a7}II-A: an Aurora node has 6 PVC cards \u{d7} 2 stacks = 12 partitions",
            12.0,
            1e-12,
            System::Aurora.node().partitions() as f64
        ),
        expect!(
            sec2_dawn_partitions,
            "Section II",
            "\u{a7}II-B: a Dawn node has 4 PVC cards \u{d7} 2 stacks = 8 partitions",
            8.0,
            1e-12,
            System::Dawn.node().partitions() as f64
        ),
        expect!(
            sec3_aurora_power_cap,
            "Section III",
            "\u{a7}III: each Aurora PVC card is power-capped to 500 W",
            500.0,
            1e-12,
            System::Aurora.node().gpu_power_cap_w
        ),
        expect!(
            fig2_minibude_expected_ratio,
            "Figure 2",
            "\u{a7}V-A: miniBUDE expected Aurora/Dawn ratio 0.88\u{d7} (23 / 26 TFlop/s)",
            0.88,
            0.02,
            figure2()
                .into_iter()
                .find(|b| {
                    b.app == pvc_predict::AppKind::MiniBude
                        && b.level == pvc_miniapps::ScaleLevel::OneStack
                })
                .and_then(|b| b.expected)
                .unwrap()
        ),
    ]
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn catalog_meets_the_size_floor() {
        // The table cells are checked by the caller, one per printed
        // cell; the typed catalog here is exactly the four facts.
        let elements: Vec<&str> = facts().iter().map(|e| e.element).collect();
        assert_eq!(
            elements,
            ["Section II", "Section II", "Section III", "Figure 2"]
        );
    }

    #[test]
    fn ids_are_unique_and_sources_cite_rows() {
        let cat = facts();
        let mut ids: Vec<&str> = cat.iter().map(|e| e.id).collect();
        ids.sort_unstable();
        ids.dedup();
        assert_eq!(ids.len(), cat.len(), "duplicate expectation id");
        for e in &cat {
            assert!(
                e.source.contains("row") || e.source.contains('\u{a7}'),
                "{}: source must cite a row or section, got {:?}",
                e.id,
                e.source
            );
            assert!(e.rel_tol >= 0.0 && e.value.is_finite());
        }
    }
}
