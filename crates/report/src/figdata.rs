//! Figure data: the Figure 1 latency series (CSV-ready) and the
//! Figures 2–4 bar charts (text rendering).

use crate::render::{opt, TextTable};
use pvc_memsim::LatsConfig;
use pvc_microbench::latsbench;
use pvc_miniapps::ScaleLevel;
use pvc_obs::{Layer, Tracer};
use pvc_predict::{figure2, figure3, figure4, FigureBar};

/// Figure 1 as CSV: `footprint_bytes` then one cycles column per system.
pub fn figure1_csv(cfg: &LatsConfig) -> String {
    let series = latsbench::figure1(cfg);
    let mut out = String::from("footprint_bytes");
    for s in &series {
        out.push_str(&format!(",{}", s.label.replace(' ', "_")));
    }
    out.push('\n');
    let npoints = series[0].points.len();
    for i in 0..npoints {
        out.push_str(&series[0].points[i].footprint_bytes.to_string());
        for s in &series {
            out.push_str(&format!(",{:.1}", s.points[i].cycles));
        }
        out.push('\n');
    }
    out
}

fn level_tag(level: ScaleLevel) -> &'static str {
    match level {
        ScaleLevel::OneStack => "1 Stack",
        ScaleLevel::OneGpu => "1 GPU",
        ScaleLevel::FullNode => "Node",
    }
}

/// Accounts for bars with no FOM source instead of letting them vanish
/// silently: one stderr summary line per affected figure, plus (when
/// `tracer` records) a report-lane `figure.missing_fom` instant per
/// missing bar so profiles show exactly which cells are dashes and why.
/// Returns the number of missing bars.
pub fn report_missing_foms(figure: &str, bars: &[FigureBar], tracer: &Tracer) -> usize {
    let missing: Vec<&FigureBar> = bars.iter().filter(|b| b.measured.is_none()).collect();
    if missing.is_empty() {
        return 0;
    }
    eprintln!(
        "warning: {figure}: {} of {} bars have no FOM source (printed as '-')",
        missing.len(),
        bars.len()
    );
    if tracer.enabled() {
        for (i, b) in missing.iter().enumerate() {
            tracer.instant(
                Layer::Report,
                "figure.missing_fom",
                i as f64,
                vec![
                    ("figure", figure.into()),
                    ("app", b.app.label().into()),
                    ("system", b.system.label().into()),
                    ("level", level_tag(b.level).into()),
                ],
            );
        }
    }
    missing.len()
}

fn render_bars(title: &str, bars: &[FigureBar], tracer: &Tracer) -> String {
    report_missing_foms(title, bars, tracer);
    let mut t = TextTable::new(title).header(vec![
        "Mini-app".into(),
        "System".into(),
        "Level".into(),
        "Measured ratio".into(),
        "Expected (black bar)".into(),
    ]);
    for b in bars {
        t.push_row(vec![
            b.app.label().into(),
            b.system.label().into(),
            level_tag(b.level).into(),
            opt(b.measured, 2),
            opt(b.expected, 2),
        ]);
    }
    t.render()
}

/// ASCII bar chart of a relative-performance figure: one `█`-bar per
/// measured ratio with a `|` marker at the expected (black-bar) value —
/// the closest a terminal gets to the paper's Figures 2–4.
pub fn render_bars_ascii(title: &str, bars: &[FigureBar], unity_note: &str) -> String {
    report_missing_foms(title, bars, &Tracer::disabled());
    let max = bars
        .iter()
        .filter_map(|b| b.measured)
        .fold(1.0f64, f64::max);
    let width = 48usize;
    let scale = width as f64 / max;
    let mut out = format!("{title}\n");
    out.push_str(&format!(
        "{:<38} {:>6}  {}\n",
        "", "ratio", "0"
    ));
    for b in bars {
        let label = format!(
            "{} / {} / {}",
            b.app.label(),
            b.system.label().split(' ').next().unwrap_or(""),
            level_tag(b.level)
        );
        match b.measured {
            Some(m) => {
                let mut row: Vec<char> = vec![' '; width + 1];
                let fill = ((m * scale) as usize).min(width);
                for c in row.iter_mut().take(fill) {
                    *c = '█';
                }
                if let Some(e) = b.expected {
                    let pos = ((e * scale) as usize).min(width);
                    row[pos] = '|';
                }
                // Unity marker for orientation.
                let one = ((1.0 * scale) as usize).min(width);
                if row[one] == ' ' {
                    row[one] = '·';
                }
                out.push_str(&format!(
                    "{label:<38} {m:>6.2}  {}\n",
                    row.into_iter().collect::<String>()
                ));
            }
            None => out.push_str(&format!("{label:<38} {:>6}\n", "-")),
        }
    }
    out.push_str(&format!(
        "(█ measured ratio, | expected/black bar, · = 1.0; {unity_note})\n"
    ));
    out
}

/// Renders Figure 2's data.
pub fn render_figure2() -> String {
    render_figure2_traced(&Tracer::disabled())
}

/// Renders Figure 3's data.
pub fn render_figure3() -> String {
    render_figure3_traced(&Tracer::disabled())
}

/// Renders Figure 4's data.
pub fn render_figure4() -> String {
    render_figure4_traced(&Tracer::disabled())
}

/// [`render_figure2`] with missing-FOM instants recorded into `tracer`.
pub fn render_figure2_traced(tracer: &Tracer) -> String {
    render_bars(
        "Figure 2: FOMs on Aurora relative to Dawn (simulated)",
        &figure2(),
        tracer,
    )
}

/// [`render_figure3`] with missing-FOM instants recorded into `tracer`.
pub fn render_figure3_traced(tracer: &Tracer) -> String {
    render_bars(
        "Figure 3: FOMs on Aurora and Dawn relative to JLSE-H100 (simulated)",
        &figure3(),
        tracer,
    )
}

/// [`render_figure4`] with missing-FOM instants recorded into `tracer`.
pub fn render_figure4_traced(tracer: &Tracer) -> String {
    render_bars(
        "Figure 4: FOMs on Aurora and Dawn relative to JLSE-MI250 (simulated)",
        &figure4(),
        tracer,
    )
}

/// Renders all three relative-performance figures as ASCII bar charts.
pub fn render_figures_ascii() -> String {
    let mut out = String::new();
    out.push_str(&render_bars_ascii(
        "Figure 2 (chart): Aurora relative to Dawn",
        &figure2(),
        "bars near 1.0 = parity with Dawn",
    ));
    out.push('\n');
    out.push_str(&render_bars_ascii(
        "Figure 3 (chart): Aurora and Dawn relative to JLSE-H100",
        &figure3(),
        "bars near 1.0 = parity with one H100",
    ));
    out.push('\n');
    out.push_str(&render_bars_ascii(
        "Figure 4 (chart): Aurora and Dawn relative to JLSE-MI250",
        &figure4(),
        "bars near 1.0 = parity with MI250",
    ));
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    fn quick_cfg() -> LatsConfig {
        LatsConfig {
            min_bytes: 64 * 1024,
            max_bytes: 16 << 20,
            points_per_octave: 1,
            steps: 1 << 12,
        }
    }

    #[test]
    fn figure1_csv_has_four_series() {
        let csv = figure1_csv(&quick_cfg());
        let header = csv.lines().next().unwrap();
        assert_eq!(header.split(',').count(), 5);
        assert!(csv.lines().count() > 5);
    }

    /// Pins the default Figure 1 CSV (`reproduce fig1`, the `figure`
    /// request's payload) to its bytes from before the chase walked a
    /// flat cycle order and `figure1` deduplicated hierarchies: the
    /// digest and length were taken from the output of the successor-
    /// table implementation. Any change to the simulated cycles shows
    /// up here.
    #[test]
    fn default_figure1_csv_bytes_are_pinned() {
        let csv = figure1_csv(&LatsConfig::default());
        assert_eq!(csv.len(), 1059);
        assert_eq!(pvc_store::fnv1a64(csv.as_bytes()), 0x05b2_bcde_d80f_996a);
    }

    #[test]
    fn ascii_charts_render_with_markers() {
        let s = render_figures_ascii();
        assert!(s.contains('█'), "measured bars drawn");
        assert!(s.contains('|'), "expected markers drawn");
        assert!(s.contains("Figure 4 (chart)"));
    }

    #[test]
    fn missing_fom_bars_are_reported_not_dropped() {
        use pvc_predict::AppKind;
        use pvc_arch::System;
        let bars = vec![
            FigureBar {
                app: AppKind::MiniQmc,
                system: System::Aurora,
                level: ScaleLevel::OneStack,
                measured: None,
                expected: None,
            },
            FigureBar {
                app: AppKind::MiniBude,
                system: System::Aurora,
                level: ScaleLevel::OneStack,
                measured: Some(1.0),
                expected: Some(1.0),
            },
        ];
        let tracer = Tracer::recording();
        assert_eq!(report_missing_foms("test figure", &bars, &tracer), 1);
        let recs = tracer.records();
        assert_eq!(recs.len(), 1);
        assert_eq!(recs[0].layer(), Layer::Report);
        assert_eq!(recs[0].name(), "figure.missing_fom");
        // Fully-populated figures stay silent.
        let t2 = Tracer::recording();
        assert_eq!(report_missing_foms("ok figure", &bars[1..], &t2), 0);
        assert!(t2.records().is_empty());
    }

    #[test]
    fn figure_renders_contain_expected_anchors() {
        let f2 = render_figure2();
        assert!(f2.contains("miniBUDE"));
        assert!(f2.contains("0.88") || f2.contains("0.87") || f2.contains("0.89"));
        let f3 = render_figure3();
        assert!(f3.contains("JLSE-H100") || f3.contains("Aurora"));
        let f4 = render_figure4();
        assert!(f4.contains("mini-GAMESS"));
    }
}
