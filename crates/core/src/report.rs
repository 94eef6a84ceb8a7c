//! Table rendering for experiment output.
//!
//! Every experiment binary prints plain-text tables (and optionally writes
//! JSON) so `EXPERIMENTS.md` can be assembled by copy-paste. The renderer
//! is deliberately dependency-free: fixed-width columns, markdown-ish
//! separators.

use crate::scenario::ScenarioResult;
use std::fmt::Write as _;

/// A simple column-aligned text table.
#[derive(Debug, Clone, Default)]
pub struct Table {
    header: Vec<String>,
    rows: Vec<Vec<String>>,
}

impl Table {
    /// Creates a table with the given column headers.
    pub fn new(header: &[&str]) -> Self {
        Table {
            header: header.iter().map(|s| s.to_string()).collect(),
            rows: Vec::new(),
        }
    }

    /// Appends a row.
    ///
    /// # Panics
    ///
    /// Panics when the row width differs from the header.
    pub fn row(&mut self, cells: Vec<String>) -> &mut Self {
        assert_eq!(cells.len(), self.header.len(), "row width mismatch");
        self.rows.push(cells);
        self
    }

    /// Number of data rows.
    pub fn len(&self) -> usize {
        self.rows.len()
    }

    /// `true` when the table has no data rows.
    pub fn is_empty(&self) -> bool {
        self.rows.is_empty()
    }

    /// Renders as aligned plain text.
    pub fn render(&self) -> String {
        let mut widths: Vec<usize> = self.header.iter().map(String::len).collect();
        for row in &self.rows {
            for (w, cell) in widths.iter_mut().zip(row) {
                *w = (*w).max(cell.len());
            }
        }
        let mut out = String::new();
        let fmt_row = |cells: &[String], widths: &[usize]| -> String {
            let padded: Vec<String> = cells
                .iter()
                .zip(widths)
                .map(|(c, w)| format!("{c:<w$}"))
                .collect();
            format!("| {} |", padded.join(" | "))
        };
        let _ = writeln!(out, "{}", fmt_row(&self.header, &widths));
        let sep: Vec<String> = widths.iter().map(|w| "-".repeat(*w)).collect();
        let _ = writeln!(out, "{}", fmt_row(&sep, &widths));
        for row in &self.rows {
            let _ = writeln!(out, "{}", fmt_row(row, &widths));
        }
        out
    }
}

/// Summary statistics over repeated-seed samples of one metric: mean,
/// sample standard deviation and the half-width of the 95% confidence
/// interval (Student's t for small n). This is the canonical multi-seed
/// aggregate — experiment binaries fold per-seed results into `Stats` via
/// `riot-harness` instead of hand-rolling averages.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Stats {
    /// Number of samples aggregated.
    pub n: usize,
    /// Arithmetic mean (NaN when `n == 0`).
    pub mean: f64,
    /// Sample standard deviation (0 when `n < 2`).
    pub stddev: f64,
    /// Half-width of the 95% confidence interval for the mean
    /// (`t_{0.975, n-1} · s / √n`; 0 when `n < 2`).
    pub ci95: f64,
}

/// Two-sided 97.5th-percentile Student-t critical values for df 1..=30;
/// beyond that the normal approximation (1.96) is within 1%.
const T95: [f64; 30] = [
    12.706, 4.303, 3.182, 2.776, 2.571, 2.447, 2.365, 2.306, 2.262, 2.228, 2.201, 2.179, 2.160,
    2.145, 2.131, 2.120, 2.110, 2.101, 2.093, 2.086, 2.080, 2.074, 2.069, 2.064, 2.060, 2.056,
    2.052, 2.048, 2.045, 2.042,
];

impl Stats {
    /// Aggregates a sample set. Empty input yields `n = 0` with NaN mean;
    /// a single sample yields its value with zero spread.
    pub fn from_samples(samples: &[f64]) -> Stats {
        let n = samples.len();
        if n == 0 {
            return Stats {
                n,
                mean: f64::NAN,
                stddev: 0.0,
                ci95: 0.0,
            };
        }
        let mean = samples.iter().sum::<f64>() / n as f64;
        if n == 1 {
            return Stats {
                n,
                mean,
                stddev: 0.0,
                ci95: 0.0,
            };
        }
        let var = samples.iter().map(|x| (x - mean).powi(2)).sum::<f64>() / (n - 1) as f64;
        let stddev = var.sqrt();
        let df = n - 1;
        let t = T95.get(df - 1).copied().unwrap_or(1.96);
        Stats {
            n,
            mean,
            stddev,
            ci95: t * stddev / (n as f64).sqrt(),
        }
    }

    /// `mean ±ci95` with three decimals — the standard table cell.
    pub fn display3(&self) -> String {
        format!("{:.3} ±{:.3}", self.mean, self.ci95)
    }
}

riot_sim::impl_to_json_struct!(Stats {
    n,
    mean,
    stddev,
    ci95
});

/// Formats a fraction as a percentage with two decimals.
pub(crate) fn pct(x: f64) -> String {
    format!("{:.2}%", x * 100.0)
}

/// Formats an optional seconds value.
pub fn secs(x: Option<f64>) -> String {
    match x {
        Some(v) => format!("{v:.1}s"),
        None => "-".to_owned(),
    }
}

/// Builds the standard per-scenario comparison table (one row per result):
/// overall resilience, per-requirement resilience, MTTR and counters.
pub fn resilience_table(results: &[ScenarioResult]) -> Table {
    let mut t = Table::new(&[
        "scenario",
        "level",
        "overall R",
        "latency R",
        "avail R",
        "coverage R",
        "freshness R",
        "privacy R",
        "MTTR(avail)",
        "failovers",
        "restarts",
    ]);
    for r in results {
        let req = |name: &str| {
            r.report
                .requirements
                .get(name)
                .map(|o| pct(o.resilience))
                .unwrap_or_else(|| "-".to_owned())
        };
        let mttr = r
            .report
            .requirements
            .get("availability")
            .and_then(|o| o.mttr_s);
        t.row(vec![
            r.name.clone(),
            r.level.to_string(),
            pct(r.report.overall_resilience),
            req("latency"),
            req("availability"),
            req("coverage"),
            req("freshness"),
            req("privacy"),
            secs(mttr),
            r.failovers.to_string(),
            r.restarts.to_string(),
        ]);
    }
    t
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn table_renders_aligned() {
        let mut t = Table::new(&["a", "long-header"]);
        t.row(vec!["x".into(), "1".into()]);
        t.row(vec!["longer-cell".into(), "2".into()]);
        let s = t.render();
        let lines: Vec<&str> = s.lines().collect();
        assert_eq!(lines.len(), 4);
        let widths: Vec<usize> = lines.iter().map(|l| l.len()).collect();
        assert!(
            widths.windows(2).all(|w| w[0] == w[1]),
            "all lines same width: {widths:?}"
        );
        assert!(lines[0].contains("long-header"));
        assert!(!t.is_empty());
        assert_eq!(t.len(), 2);
    }

    #[test]
    #[should_panic(expected = "row width mismatch")]
    fn ragged_row_panics() {
        let mut t = Table::new(&["a", "b"]);
        t.row(vec!["only-one".into()]);
    }

    #[test]
    fn formatting_helpers() {
        assert_eq!(pct(0.5), "50.00%");
        assert_eq!(pct(1.0), "100.00%");
        assert_eq!(secs(Some(12.34)), "12.3s");
        assert_eq!(secs(None), "-");
    }

    #[test]
    fn stats_edge_cases() {
        let empty = Stats::from_samples(&[]);
        assert_eq!(empty.n, 0);
        assert!(empty.mean.is_nan());
        assert_eq!(empty.ci95, 0.0);
        let one = Stats::from_samples(&[0.5]);
        assert_eq!((one.n, one.mean, one.stddev, one.ci95), (1, 0.5, 0.0, 0.0));
    }

    #[test]
    fn stats_matches_hand_computation() {
        // samples 1,2,3: mean 2, s = 1, t(df=2) = 4.303, ci = 4.303/sqrt(3)
        let s = Stats::from_samples(&[1.0, 2.0, 3.0]);
        assert_eq!(s.n, 3);
        assert!((s.mean - 2.0).abs() < 1e-12);
        assert!((s.stddev - 1.0).abs() < 1e-12);
        assert!((s.ci95 - 4.303 / 3f64.sqrt()).abs() < 1e-9);
        assert_eq!(s.display3(), "2.000 ±2.484");
        // Large n falls back to the normal approximation.
        let big: Vec<f64> = (0..100).map(|i| i as f64).collect();
        let b = Stats::from_samples(&big);
        assert!((b.ci95 - 1.96 * b.stddev / 10.0).abs() < 1e-9);
    }

    #[test]
    fn stats_serializes_deterministically() {
        use riot_sim::ToJson as _;
        let s = Stats::from_samples(&[1.0, 1.0]);
        assert_eq!(
            s.to_json().render(),
            r#"{"n":2,"mean":1.0,"stddev":0.0,"ci95":0.0}"#
        );
    }
}
