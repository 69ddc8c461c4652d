//! Metrics as the benchmark reports them: a human-readable table, and the
//! one-line JSON object the driver reads.

use std::fmt::Write as _;

/// One reported number.
#[derive(Debug, Clone, PartialEq)]
pub struct Metric {
    /// Name, as in `BENCHMARK.json`.
    pub name: String,
    /// The value, as measured.
    pub value: f64,
    /// Unit.
    pub unit: &'static str,
    /// Samples behind the value.
    pub samples: usize,
    /// How the samples became the value.
    pub estimator: &'static str,
}

impl Metric {
    /// A metric.
    pub fn new(
        name: impl Into<String>,
        value: f64,
        unit: &'static str,
        samples: usize,
        estimator: &'static str,
    ) -> Self {
        Metric {
            name: name.into(),
            value,
            unit,
            samples,
            estimator,
        }
    }
}

/// Renders the metrics as an aligned table.
pub fn table(title: &str, metrics: &[Metric]) -> String {
    let width = metrics.iter().map(|m| m.name.len()).max().unwrap_or(0);
    let mut out = format!("== {title} ==\n");
    for m in metrics {
        let _ = writeln!(
            out,
            "{:<width$}  {:>16.6} {:<6} n={:<6} {}",
            m.name, m.value, m.unit, m.samples, m.estimator
        );
    }
    out
}

/// The driver's result line: `correct`, `attempted`, `failed`, `metrics`.
pub fn result_json(correct: bool, attempted: u64, failed: u64, metrics: &[Metric]) -> String {
    let mut out = format!(
        "{{\"correct\": {correct}, \"attempted\": {attempted}, \"failed\": {failed}, \"metrics\": {{"
    );
    for (i, m) in metrics.iter().enumerate() {
        if i > 0 {
            out.push_str(", ");
        }
        // Names and units are ASCII identifiers chosen in this crate, so no
        // escaping is needed; `{:?}` prints every digit of an f64.
        let value = if m.value.is_finite() { m.value } else { 0.0 };
        let _ = write!(
            out,
            "\"{}\": {{\"value\": {:?}, \"unit\": \"{}\"}}",
            m.name, value, m.unit
        );
    }
    out.push_str("}}");
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn json_line_has_the_contract_shape() {
        let metrics = vec![
            Metric::new("setup_s", 0.0731234567, "s", 15, "min"),
            Metric::new("msgs_per_unit", 298236.0, "count", 4, "mean"),
        ];
        let line = result_json(true, 1122, 0, &metrics);
        assert_eq!(
            line,
            "{\"correct\": true, \"attempted\": 1122, \"failed\": 0, \"metrics\": {\
             \"setup_s\": {\"value\": 0.0731234567, \"unit\": \"s\"}, \
             \"msgs_per_unit\": {\"value\": 298236.0, \"unit\": \"count\"}}}"
        );
        assert!(!line.contains('\n'));
    }

    #[test]
    fn table_lists_every_metric_with_count_and_estimator() {
        let t = table(
            "x",
            &[Metric::new(
                "refresh_s",
                4.1,
                "s",
                4,
                "sum of per-round minima",
            )],
        );
        assert!(t.contains("refresh_s"));
        assert!(t.contains("n=4"));
        assert!(t.contains("sum of per-round minima"));
    }
}
