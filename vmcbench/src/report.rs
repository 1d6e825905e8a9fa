//! Metric names, units and the one-line JSON result.
//!
//! Every workload prints every metric of its mode: all of
//! [`END_TO_END`] in an untraced run, all of [`PER_LAYER`] in a traced
//! run. A per-layer metric of a layer the workload never calls reads 0
//! (a sum over no spans), so the set of names is the same on every
//! workload.

use std::collections::BTreeMap;
use std::fmt::Write as _;

/// End-to-end metrics, measured with tracing off.
pub const END_TO_END: &[(&str, &str)] = &[
    ("setup_s", "s"),
    ("peak_rss_mb", "MB"),
    ("moves_per_s", "1/s"),
    ("onemove_us", "us"),
    ("block_us", "us"),
    ("ok_frac", "1"),
];

/// Per-layer metrics, measured in a separate traced run.
pub const PER_LAYER: &[(&str, &str)] = &[
    ("distance.propose_ns", "ns"),
    ("distance.accept_ns", "ns"),
    ("distance.rebuild_us", "us"),
    ("determinant.ratio_ns", "ns"),
    ("determinant.accept_ns", "ns"),
    ("determinant.derivs_ns", "ns"),
    ("determinant.build_ms", "ms"),
    ("jastrow.ratio_ns", "ns"),
    ("jastrow.accept_ns", "ns"),
    ("jastrow.evaluate_log_us", "us"),
    ("bspline.v_one_ns", "ns"),
    ("bspline.vgl_one_ns", "ns"),
    ("spo.v_one_self_ns", "ns"),
    ("spo.vgl_one_self_ns", "ns"),
    ("bspline.vgh_batch_ns_per_pos", "ns"),
    ("spo.vgl_batch_self_ns_per_pos", "ns"),
    ("bspline.gbps_computed", "GB/s"),
    ("bspline.v_one_bytes_computed", "B"),
    ("bspline.v_one_flop_computed", "flop"),
    ("bspline.v_one_gbps_computed", "GB/s"),
    ("bspline.v_one_gflops_computed", "GFLOP/s"),
    ("bspline.vgl_one_bytes_computed", "B"),
    ("bspline.vgl_one_flop_computed", "flop"),
    ("bspline.vgl_one_gbps_computed", "GB/s"),
    ("bspline.vgl_one_gflops_computed", "GFLOP/s"),
    ("bspline.vgh_batch_bytes_per_pos_computed", "B"),
    ("bspline.vgh_batch_flop_per_pos_computed", "flop"),
    ("bspline.vgh_batch_gbps_computed", "GB/s"),
    ("bspline.vgh_batch_gflops_computed", "GFLOP/s"),
    ("wavefunction.ratio_ns", "ns"),
    ("wavefunction.accept_ns", "ns"),
    ("wavefunction.log_derivs_ms", "ms"),
    ("wavefunction.self_frac", "1"),
    ("drivers.acceptance", "1"),
    ("drivers.sweep_ms_p50", "ms"),
    ("drivers.sweep_ms_p99", "ms"),
    ("drivers.share.bspline", "1"),
    ("drivers.share.spo", "1"),
    ("drivers.share.distance", "1"),
    ("drivers.share.jastrow", "1"),
    ("drivers.share.determinant", "1"),
    ("drivers.share.wavefunction", "1"),
    ("drivers.share.drivers", "1"),
    ("drivers.share.unattributed", "1"),
    ("service.turnaround_us_p50", "us"),
    ("service.turnaround_us_p99", "us"),
    ("service.onemove_us_p99", "us"),
    ("service.block_us_p99", "us"),
    ("service.direct_v_us_p50", "us"),
    ("service.hop_overhead_us", "us"),
    ("service.capacity_moves_per_s", "1/s"),
    ("service.submit_us_p99", "us"),
    ("service.mean_batch_positions", "count"),
    ("service.coalesced_frac", "1"),
    ("service.generator_late_ms_p99", "ms"),
    ("service.generator_late_ms_max", "ms"),
    ("service.sent", "count"),
    ("service.succeeded", "count"),
    ("service.shed", "count"),
    ("service.lost", "count"),
    ("service.mismatched", "count"),
    ("service.failed", "count"),
    ("setup.table_mb", "MB"),
    ("setup.llc_mb", "MB"),
    ("setup.table_fill_s", "s"),
    ("setup.wavefunction_build_s", "s"),
    ("setup.service_start_s", "s"),
    ("trace.overhead_frac", "1"),
    ("trace.share_max_abs_diff", "1"),
    ("trace.spans", "count"),
];

/// One run's outcome: the correctness verdict, the work counts and the
/// metric values by name.
#[derive(Debug, Default)]
pub struct Report {
    /// Names of correctness checks that failed.
    pub failed_checks: Vec<String>,
    pub attempted: u64,
    pub failed: u64,
    values: BTreeMap<&'static str, f64>,
}

impl Report {
    /// Record a correctness check; a failing one is printed and kept.
    pub fn check(&mut self, name: &str, ok: bool, detail: String) {
        println!(
            "check {:<40} {}  {detail}",
            name,
            if ok { "ok" } else { "FAILED" }
        );
        if !ok {
            self.failed_checks.push(name.to_string());
        }
    }

    /// Set metric `name`, which must be one of [`END_TO_END`] or
    /// [`PER_LAYER`].
    pub fn set(&mut self, name: &'static str, value: f64) {
        assert!(
            unit_of(name).is_some(),
            "metric {name} is not declared in the metric tables"
        );
        self.values.insert(name, value);
    }

    /// The final JSON line for `metrics` (one of the two tables). A
    /// metric that was never set reads 0; a non-finite value is a
    /// failed check, since JSON cannot carry it. A run with a failed
    /// check counts every attempted operation as failed: its outputs
    /// cannot be trusted. `ok_frac` is derived here from the final
    /// counts.
    pub fn finish(&mut self, metrics: &[(&'static str, &'static str)]) -> String {
        for &(name, _) in metrics {
            if self.values.get(name).is_some_and(|v| !v.is_finite()) {
                self.failed_checks.push(format!("finite {name}"));
            }
        }
        let correct = self.failed_checks.is_empty();
        let attempted = self.attempted.max(1);
        let failed = if correct {
            self.failed.min(attempted)
        } else {
            attempted
        };
        self.values
            .insert("ok_frac", 1.0 - failed as f64 / attempted as f64);
        let mut body = String::new();
        for (i, &(name, unit)) in metrics.iter().enumerate() {
            let v = self
                .values
                .get(name)
                .copied()
                .filter(|v| v.is_finite())
                .unwrap_or(0.0);
            let sep = if i == 0 { "" } else { ", " };
            let _ = write!(
                body,
                "{sep}\"{name}\": {{\"value\": {v:?}, \"unit\": \"{unit}\"}}"
            );
        }
        format!(
            "{{\"correct\": {correct}, \"attempted\": {attempted}, \"failed\": {failed}, \"metrics\": {{{body}}}}}"
        )
    }
}

fn unit_of(name: &str) -> Option<&'static str> {
    END_TO_END
        .iter()
        .chain(PER_LAYER)
        .find(|(n, _)| *n == name)
        .map(|(_, u)| *u)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn names_are_unique_and_well_formed() {
        let mut seen = std::collections::HashSet::new();
        for &(name, unit) in END_TO_END.iter().chain(PER_LAYER) {
            assert!(seen.insert(name), "duplicate metric {name}");
            assert!(name.len() <= 64 && name.chars().next().unwrap().is_ascii_alphanumeric());
            assert!(name
                .chars()
                .all(|c| c.is_ascii_alphanumeric() || "_.-".contains(c)));
            assert!(unit.len() <= 16);
            assert!(unit
                .chars()
                .all(|c| c.is_ascii_alphanumeric() || "_/%.-".contains(c)));
        }
    }

    /// The metric tables here and in `BENCHMARK.json` must name the same
    /// metrics with the same units, in the same order.
    #[test]
    fn tables_match_benchmark_json() {
        let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
        let json = std::fs::read_to_string(path).expect("BENCHMARK.json beside the benchmark");
        let section = |key: &str| -> Vec<(String, String)> {
            let start = json.find(&format!("\"{key}\"")).expect("section");
            let rest = &json[start..];
            let end = rest.find(']').expect("section end");
            rest[..end]
                .split('{')
                .skip(1)
                .map(|entry| {
                    let field = |f: &str| {
                        let at = entry.find(&format!("\"{f}\"")).expect("field") + f.len() + 2;
                        let from = entry[at..].find('"').unwrap() + at + 1;
                        let to = entry[from..].find('"').unwrap() + from;
                        entry[from..to].to_string()
                    };
                    (field("name"), field("unit"))
                })
                .collect()
        };
        let own = |t: &[(&str, &str)]| -> Vec<(String, String)> {
            t.iter()
                .map(|(n, u)| (n.to_string(), u.to_string()))
                .collect()
        };
        assert_eq!(section("end_to_end"), own(END_TO_END));
        assert_eq!(section("per_layer"), own(PER_LAYER));
    }

    #[test]
    fn json_line_has_every_metric_and_defaults_to_zero() {
        let mut r = Report {
            attempted: 10,
            ..Report::default()
        };
        r.set("setup_s", 0.25);
        let line = r.finish(END_TO_END);
        assert!(line.starts_with("{\"correct\": true, \"attempted\": 10, \"failed\": 0"));
        assert!(line.contains("\"setup_s\": {\"value\": 0.25, \"unit\": \"s\"}"));
        assert!(line.contains("\"ok_frac\": {\"value\": 1.0, \"unit\": \"1\"}"));
        assert!(line.contains("\"moves_per_s\": {\"value\": 0.0, \"unit\": \"1/s\"}"));
        assert_eq!(line.matches("\"unit\"").count(), END_TO_END.len());
    }

    #[test]
    fn non_finite_values_fail_the_run() {
        let mut r = Report {
            attempted: 4,
            ..Report::default()
        };
        r.set("moves_per_s", f64::NAN);
        let line = r.finish(END_TO_END);
        assert!(line.starts_with("{\"correct\": false, \"attempted\": 4, \"failed\": 4"));
        assert!(line.contains("\"ok_frac\": {\"value\": 0.0"));
    }

    #[test]
    fn failed_operations_lower_ok_frac() {
        let mut r = Report {
            attempted: 8,
            failed: 2,
            ..Report::default()
        };
        let line = r.finish(END_TO_END);
        assert!(line.starts_with("{\"correct\": true, \"attempted\": 8, \"failed\": 2"));
        assert!(line.contains("\"ok_frac\": {\"value\": 0.75"));
    }

    #[test]
    #[should_panic(expected = "not declared")]
    fn undeclared_metrics_are_rejected() {
        Report::default().set("no_such_metric", 1.0);
    }
}
