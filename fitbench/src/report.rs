//! The run's result: named metrics with units, operation counts and output
//! checks, printed as JSON.

use crate::stats::Summary;
use std::fmt::Write;

/// Whether `name` is a valid metric or workload name: it starts with a
/// letter or digit and is at most 64 characters of `[A-Za-z0-9_.-]`.
pub fn valid_name(name: &str) -> bool {
    let mut chars = name.chars();
    matches!(chars.next(), Some(c) if c.is_ascii_alphanumeric())
        && name.len() <= 64
        && chars.all(|c| c.is_ascii_alphanumeric() || matches!(c, '_' | '.' | '-'))
}

/// Whether `unit` is a valid unit: at most 16 characters of
/// `[A-Za-z0-9_/%.-]`.
pub fn valid_unit(unit: &str) -> bool {
    !unit.is_empty()
        && unit.len() <= 16
        && unit
            .chars()
            .all(|c| c.is_ascii_alphanumeric() || matches!(c, '_' | '/' | '%' | '.' | '-'))
}

#[derive(Debug, Clone)]
struct Metric {
    name: String,
    unit: &'static str,
    value: f64,
    summary: Option<Summary>,
}

/// Everything one run reports.
#[derive(Debug, Default)]
pub struct Report {
    metrics: Vec<Metric>,
    pub attempted: u64,
    pub failed: u64,
    checks: Vec<(String, bool)>,
}

impl Report {
    /// Records a single measured value.
    pub fn value(&mut self, name: &str, unit: &'static str, value: f64) {
        self.push(name, unit, value, None);
    }

    /// Records the median of repeated measurements, keeping the quartiles
    /// and sample count for the detail line. Records NaN (which fails the
    /// run) when there are no finite samples.
    pub fn median(&mut self, name: &str, unit: &'static str, samples: &[f64]) {
        let summary = Summary::of(samples);
        self.push(name, unit, summary.map_or(f64::NAN, |s| s.median), summary);
    }

    /// Records the mean of repeated runs of identical work — their total
    /// over their count — keeping the quartiles and sample count for the
    /// detail line. Records NaN (which fails the run) when there are no
    /// finite samples.
    pub fn mean(&mut self, name: &str, unit: &'static str, samples: &[f64]) {
        let summary = Summary::of(samples);
        let value = summary.map_or(f64::NAN, |s| samples.iter().sum::<f64>() / s.n as f64);
        self.push(name, unit, value, summary);
    }

    fn push(&mut self, name: &str, unit: &'static str, value: f64, summary: Option<Summary>) {
        assert!(valid_name(name), "invalid metric name {name:?}");
        assert!(valid_unit(unit), "invalid unit {unit:?}");
        assert!(
            self.metrics.iter().all(|m| m.name != name),
            "metric {name} reported twice"
        );
        self.metrics.push(Metric {
            name: name.to_owned(),
            unit,
            value,
            summary,
        });
    }

    /// Records an output check; a failed check is a failed operation.
    /// A check made more than once passes only if every instance passed.
    pub fn check(&mut self, name: &str, passed: bool) {
        self.attempted += 1;
        if !passed {
            self.failed += 1;
            eprintln!("fitbench: CHECK FAILED: {name}");
        }
        match self.checks.iter_mut().find(|(n, _)| n == name) {
            Some((_, ok)) => *ok &= passed,
            None => self.checks.push((name.to_owned(), passed)),
        }
    }

    pub fn correct(&self) -> bool {
        self.checks.iter().all(|(_, ok)| *ok)
    }

    /// Metrics whose value is not a finite number.
    pub fn non_finite(&self) -> Vec<&str> {
        self.metrics
            .iter()
            .filter(|m| !m.value.is_finite())
            .map(|m| m.name.as_str())
            .collect()
    }

    /// The detail line: quartiles, sample counts and every check, with the
    /// host fingerprint passed in as a ready JSON object.
    pub fn detail_json(&self, host_json: &str) -> String {
        let mut out = format!("{{\"fitbench_detail\":{{\"host\":{host_json},\"summaries\":{{");
        let with_summary = self
            .metrics
            .iter()
            .filter_map(|m| m.summary.map(|s| (m, s)));
        for (i, (metric, s)) in with_summary.enumerate() {
            let sep = if i == 0 { "" } else { "," };
            let _ = write!(
                out,
                "{sep}\"{}\":{{\"median\":{},\"q1\":{},\"q3\":{},\"n\":{}}}",
                metric.name, s.median, s.q1, s.q3, s.n
            );
        }
        out.push_str("},\"checks\":{");
        for (i, (name, ok)) in self.checks.iter().enumerate() {
            let sep = if i == 0 { "" } else { "," };
            let _ = write!(out, "{sep}\"{name}\":{ok}");
        }
        out.push_str("}}}");
        out
    }

    /// The result line: exactly `correct`, `attempted`, `failed`, `metrics`.
    pub fn result_json(&self) -> String {
        let mut out = format!(
            "{{\"correct\":{},\"attempted\":{},\"failed\":{},\"metrics\":{{",
            self.correct(),
            self.attempted.max(1),
            self.failed
        );
        for (i, m) in self.metrics.iter().enumerate() {
            let sep = if i == 0 { "" } else { "," };
            let _ = write!(
                out,
                "{sep}\"{}\":{{\"value\":{},\"unit\":\"{}\"}}",
                m.name, m.value, m.unit
            );
        }
        out.push_str("}}");
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn metric_names_use_the_allowed_charset() {
        for name in [
            "campaign_trials_per_s.sparse",
            "setup_s",
            "nn.conv.forward_ms.b32",
            "0-start.is_fine",
            &"x".repeat(64),
        ] {
            assert!(valid_name(name), "{name}");
        }
        for name in [
            "",
            ".leading_dot",
            "_leading_underscore",
            "has space",
            "slash/inside",
            "brace{",
            "ünicode",
            &"x".repeat(65),
        ] {
            assert!(!valid_name(name), "{name}");
        }
        assert!(valid_unit("trials/s") && valid_unit("%") && valid_unit("MiB"));
        assert!(!valid_unit("") && !valid_unit("per second") && !valid_unit(&"u".repeat(17)));
    }

    #[test]
    #[should_panic(expected = "invalid metric name")]
    fn invalid_names_are_refused() {
        Report::default().value("bad name", "s", 1.0);
    }

    #[test]
    fn result_line_has_exactly_the_contract_keys() {
        let mut report = Report::default();
        report.median("latency_ms", "ms", &[3.0, 1.0, 2.0]);
        report.value("setup_s", "s", 0.5);
        report.check("bit_identical", true);
        report.attempted += 9;
        let line = report.result_json();
        let parsed = fitact_io::JsonValue::parse(&line).unwrap();
        let fitact_io::JsonValue::Object(fields) = &parsed else {
            panic!("not an object: {line}");
        };
        let keys: Vec<&str> = fields.iter().map(|(k, _)| k.as_str()).collect();
        assert_eq!(keys, ["correct", "attempted", "failed", "metrics"]);
        assert_eq!(parsed.get("attempted").and_then(|v| v.as_f64()), Some(10.0));
        assert_eq!(
            parsed
                .path(&["metrics", "latency_ms", "value"])
                .and_then(|v| v.as_f64()),
            Some(2.0)
        );
        report.median("odd_s", "s", &[3.0, 1.5, 2.0]);
        report.median("even_s", "s", &[4.0, 1.0, 3.0, 2.0]);
        report.mean("mean_s", "s", &[4.0, 1.0, 3.0, 8.0]);
        let line = report.result_json();
        let parsed = fitact_io::JsonValue::parse(&line).unwrap();
        assert_eq!(
            parsed
                .path(&["metrics", "odd_s", "value"])
                .and_then(|v| v.as_f64()),
            Some(2.0)
        );
        assert_eq!(
            parsed
                .path(&["metrics", "even_s", "value"])
                .and_then(|v| v.as_f64()),
            Some(2.5)
        );
        assert_eq!(
            parsed
                .path(&["metrics", "mean_s", "value"])
                .and_then(|v| v.as_f64()),
            Some(4.0)
        );
        report.check("other", false);
        assert!(!report.correct());
        assert_eq!(report.failed, 1);
        assert!(report.detail_json("{}").contains("\"other\":false"));
    }
}
