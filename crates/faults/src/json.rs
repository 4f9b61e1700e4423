//! Machine-readable JSON renderings of campaign outcomes.
//!
//! The `fitact` CLI and the CI regression gates consume campaign results as
//! JSON; this module builds them as [`JsonValue`] trees. Numbers use Rust's
//! shortest-round-trip float formatting, so a value parsed back from the
//! JSON compares bit-equal to the original (`f32` values are widened to
//! `f64` first, which is exact). Non-finite values — illegal in JSON — are
//! emitted as `null`.

use crate::campaign::{CampaignReport, CampaignResult, StratumReport};
use crate::stats::WilsonInterval;
use fitact_tensor::json::JsonValue;

impl WilsonInterval {
    /// Renders the interval as a JSON object
    /// (`{"successes":…,"trials":…,"point":…,"low":…,"high":…}`).
    pub fn to_json(&self) -> JsonValue {
        JsonValue::object([
            ("successes", self.successes.into()),
            ("trials", self.trials.into()),
            ("point", self.point().into()),
            ("low", self.low.into()),
            ("high", self.high.into()),
        ])
    }
}

impl StratumReport {
    /// Renders the stratum's outcome counts and intervals as a JSON object.
    pub fn to_json(&self) -> JsonValue {
        JsonValue::object([
            ("label", self.label.as_str().into()),
            ("population_bits", self.population_bits.into()),
            ("weight", self.weight.into()),
            ("trials", self.trials().into()),
            ("masked", self.masked.into()),
            ("tolerable", self.tolerable.into()),
            ("critical", self.critical.into()),
            ("total_faults", self.total_faults.into()),
            ("mean_accuracy", self.mean_accuracy().into()),
            ("critical_ci", self.critical_ci.to_json()),
            ("sdc_ci", self.sdc_ci.to_json()),
        ])
    }
}

impl CampaignReport {
    /// Renders the full statistical-campaign report as a JSON object.
    ///
    /// Layout (consumed by `fitact campaign` / `fitact diff-report`):
    ///
    /// ```json
    /// {
    ///   "fault_free_accuracy": 0.97, "fault_rate": 1e-6, "model": "bitflip",
    ///   "confidence": 0.95, "epsilon": 0.02, "critical_threshold": 0.05,
    ///   "allocation": "equal",
    ///   "rounds": 4, "converged": true, "total_trials": 96, "total_faults": 12,
    ///   "pooled_critical": {"successes":1,"trials":96,"point":…,"low":…,"high":…},
    ///   "pooled_sdc": {…},
    ///   "stratified_critical_half_width": 0.0312,
    ///   "population_weighted_critical_rate": 0.0104,
    ///   "strata": [ {…}, … ]
    /// }
    /// ```
    pub fn to_json(&self) -> JsonValue {
        JsonValue::object([
            ("fault_free_accuracy", self.fault_free_accuracy.into()),
            ("fault_rate", self.fault_rate.into()),
            ("model", self.model.as_str().into()),
            ("confidence", self.confidence.into()),
            ("epsilon", self.epsilon.into()),
            ("critical_threshold", self.critical_threshold.into()),
            ("allocation", self.allocation.name().into()),
            ("rounds", self.rounds.into()),
            ("converged", self.converged.into()),
            ("total_trials", self.total_trials().into()),
            ("total_faults", self.total_faults().into()),
            ("pooled_critical", self.pooled_critical().to_json()),
            ("pooled_sdc", self.pooled_sdc().to_json()),
            (
                "stratified_critical_half_width",
                self.stratified_critical_half_width().into(),
            ),
            (
                "population_weighted_critical_rate",
                self.population_weighted_critical_rate().into(),
            ),
            (
                "strata",
                JsonValue::Array(self.strata.iter().map(StratumReport::to_json).collect()),
            ),
        ])
    }
}

impl CampaignResult {
    /// Renders the fixed-trial-count campaign result as a JSON object.
    pub fn to_json(&self) -> JsonValue {
        JsonValue::object([
            ("fault_free_accuracy", self.fault_free_accuracy.into()),
            ("fault_rate", self.fault_rate.into()),
            ("trials", self.stats.count.into()),
            ("total_faults", self.total_faults.into()),
            ("mean_accuracy", self.mean_accuracy().into()),
            ("min_accuracy", self.stats.min.into()),
            ("max_accuracy", self.stats.max.into()),
            (
                "accuracies",
                JsonValue::Array(self.accuracies.iter().map(|&a| a.into()).collect()),
            ),
        ])
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn wilson_interval_json_shape() {
        let json = WilsonInterval::new(3, 10, 1.96).to_json().to_string();
        assert!(json.starts_with("{\"successes\":3,\"trials\":10,"));
        assert!(json.contains("\"low\":"));
        assert!(json.contains("\"high\":"));
    }

    fn stratum(label: &str, bits: u64, weight: f64, accuracies: Vec<f32>) -> StratumReport {
        let trials = accuracies.len() as u64;
        let critical = accuracies.iter().filter(|&&a| a < 0.5).count();
        let tolerable = accuracies
            .iter()
            .filter(|&&a| (0.5..0.9).contains(&a))
            .count();
        StratumReport {
            label: label.into(),
            population_bits: bits,
            weight,
            masked: accuracies.len() - critical - tolerable,
            tolerable,
            critical,
            total_faults: 3 * trials,
            critical_ci: WilsonInterval::new(critical as u64, trials, 1.96),
            sdc_ci: WilsonInterval::new((critical + tolerable) as u64, trials, 1.96),
            accuracies,
        }
    }

    /// A hand-built report: several strata, a label that needs escaping and
    /// a zero-trial stratum.
    fn sample_report() -> CampaignReport {
        CampaignReport {
            fault_free_accuracy: 0.96875,
            fault_rate: 1e-3,
            model: "bitflip".into(),
            confidence: 0.95,
            epsilon: 0.06,
            critical_threshold: 0.05,
            rounds: 3,
            converged: false,
            allocation: crate::AllocationPolicy::Neyman,
            strata: vec![
                stratum(
                    "fc1/exponent",
                    8192,
                    0.25,
                    vec![0.96875, 0.40625, 0.875, 0.1],
                ),
                stratum("conv \"a\"\\b\n\u{1}é", 24576, 0.75, vec![0.96875, 0.9]),
                stratum("empty", 0, 0.0, Vec::new()),
            ],
        }
    }

    /// `sample_report().to_json()`, as the string-template encoder this
    /// module replaced rendered it.
    const GOLDEN_REPORT: &str = r#"{"fault_free_accuracy":0.96875,"fault_rate":0.001,"model":"bitflip","confidence":0.95,"epsilon":0.06,"critical_threshold":0.05000000074505806,"allocation":"neyman","rounds":3,"converged":false,"total_trials":6,"total_faults":18,"pooled_critical":{"successes":2,"trials":6,"point":0.3333333333333333,"low":0.0967714110145852,"high":0.7000066850807075},"pooled_sdc":{"successes":3,"trials":6,"point":0.5,"low":0.1876163063291083,"high":0.8123836936708917},"stratified_critical_half_width":0.5,"population_weighted_critical_rate":0.125,"strata":[{"label":"fc1/exponent","population_bits":8192,"weight":0.25,"trials":4,"masked":1,"tolerable":1,"critical":2,"total_faults":12,"mean_accuracy":0.5874999761581421,"critical_ci":{"successes":2,"trials":4,"point":0.5,"low":0.15003570882017148,"high":0.8499642911798285},"sdc_ci":{"successes":3,"trials":4,"point":0.75,"low":0.3006360524426366,"high":0.9544139373553637}},{"label":"conv \"a\"\\b\n\u0001é","population_bits":24576,"weight":0.75,"trials":2,"masked":2,"tolerable":0,"critical":0,"total_faults":6,"mean_accuracy":0.934374988079071,"critical_ci":{"successes":0,"trials":2,"point":0,"low":0,"high":0.6576280471103807},"sdc_ci":{"successes":0,"trials":2,"point":0,"low":0,"high":0.6576280471103807}},{"label":"empty","population_bits":0,"weight":0,"trials":0,"masked":0,"tolerable":0,"critical":0,"total_faults":0,"mean_accuracy":0,"critical_ci":{"successes":0,"trials":0,"point":0,"low":0,"high":1},"sdc_ci":{"successes":0,"trials":0,"point":0,"low":0,"high":1}}]}"#;

    /// The fixed-count result in the test below, as the replaced encoder
    /// rendered it (the NaN accuracy is `null`).
    const GOLDEN_RESULT: &str = r#"{"fault_free_accuracy":0.96875,"fault_rate":0.0000025,"trials":3,"total_faults":7,"mean_accuracy":0.5299999713897705,"min_accuracy":0.10000000149011612,"max_accuracy":0.96875,"accuracies":[0.96875,null,0.10000000149011612]}"#;

    #[test]
    fn reports_render_byte_identically_to_the_template_encoder() {
        assert_eq!(sample_report().to_json().to_string(), GOLDEN_REPORT);
        let result = CampaignResult {
            accuracies: vec![0.96875, f32::NAN, 0.1],
            stats: fitact_nn::metrics::SampleStats {
                min: 0.1,
                q1: 0.1,
                median: 0.5,
                q3: 0.96875,
                max: 0.96875,
                mean: 0.53,
                count: 3,
            },
            fault_free_accuracy: 0.96875,
            total_faults: 7,
            fault_rate: 2.5e-6,
        };
        assert_eq!(result.to_json().to_string(), GOLDEN_RESULT);
    }
}
