//! What one benchmark run prints: every number as a
//! `workload metric value unit` line, labels describing what ran, and
//! as the last line one JSON object with `correct`, `attempted`, `failed`
//! and `metrics`.

use std::fmt::Display;

/// Collects a run's metrics, labels and output-check outcomes.
#[derive(Debug)]
pub struct Report {
    workload: &'static str,
    metrics: Vec<(String, f64, &'static str)>,
    /// Operations attempted in the measured loop.
    pub attempted: u64,
    /// Operations that failed, including output-check mismatches.
    pub failed: u64,
    mismatches: Vec<String>,
}

impl Report {
    /// An empty report for `workload`.
    pub fn new(workload: &'static str) -> Self {
        Report {
            workload,
            metrics: Vec::new(),
            attempted: 0,
            failed: 0,
            mismatches: Vec::new(),
        }
    }

    /// Records a metric of the result object and prints its line.
    pub fn metric(&mut self, name: &str, value: f64, unit: &'static str) {
        println!("{} {name} {value} {unit}", self.workload);
        self.metrics.push((name.to_string(), value, unit));
    }

    /// Prints a number or label that is not part of the result object.
    pub fn info(&self, name: &str, value: impl Display, unit: &str) {
        println!("{} {name} {value} {unit}", self.workload);
    }

    /// Records an output check. A mismatch counts as a failed operation
    /// and makes the run incorrect.
    pub fn check(&mut self, ok: bool, what: impl FnOnce() -> String) {
        if !ok {
            let what = what();
            eprintln!("{}: check failed: {what}", self.workload);
            self.mismatches.push(what);
            self.failed += 1;
        }
    }

    /// Verifies the metric set is exactly `expected`, prints the JSON
    /// result line, and returns whether the run is correct.
    pub fn finish(mut self, expected: &[(&str, &str)]) -> bool {
        let names: Vec<&str> = self.metrics.iter().map(|(n, _, _)| n.as_str()).collect();
        let want: Vec<&str> = expected.iter().map(|(n, _)| *n).collect();
        if names != want {
            let what = format!("reported metrics {names:?}, expected {want:?}");
            self.check(false, || what);
        }
        for (name, value, unit) in &self.metrics {
            let declared = expected.iter().find(|(n, _)| n == name).map(|(_, u)| *u);
            if !value.is_finite() || declared != Some(*unit) {
                let what = format!("metric {name} = {value} {unit} is not finite or misdeclared");
                self.mismatches.push(what);
            }
        }
        self.attempted = self.attempted.max(1);
        let body: Vec<String> = self
            .metrics
            .iter()
            .map(|(name, value, unit)| {
                let value = if value.is_finite() { *value } else { 0.0 };
                format!("\"{name}\": {{\"value\": {value}, \"unit\": \"{unit}\"}}")
            })
            .collect();
        let correct = self.mismatches.is_empty();
        println!(
            "{{\"correct\": {correct}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
            self.attempted,
            self.failed,
            body.join(", ")
        );
        correct
    }
}
