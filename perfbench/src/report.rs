//! Metric declarations and the result the benchmark prints.
//!
//! Every run reports every metric of its set — the end-to-end set
//! untraced, the per-layer set traced — so that results of different
//! workloads and commits line up column for column. A per-layer metric
//! whose layer the workload does not exercise reads 0 and carries a
//! printed reason.

use std::collections::BTreeMap;
use std::fmt::Write as _;

/// End-to-end metrics: `(name, unit)`. Each reads as the user of the
/// workload sees it; `README.md` gives the per-workload meaning.
pub const END_TO_END: &[(&str, &str)] = &[
    ("setup_s", "s"),
    ("peak_rss_mib", "MiB"),
    ("throughput_per_s", "1/s"),
    ("latency_p50_ms", "ms"),
    ("cpu_ms_per_1k", "ms"),
];

/// Per-layer metrics: `(name, unit)`, grouped by layer.
pub const PER_LAYER: &[(&str, &str)] = &[
    ("sim.events", "count"),
    ("sim.events_per_sim_s", "1/s"),
    ("sim.queue_depth_p50", "count"),
    ("sim.queue_depth_max", "count"),
    ("sim.queue_op_ns", "ns"),
    ("sim.phased_rounds", "count"),
    ("sim.round_us", "us"),
    ("sim.barrier_share", "share"),
    ("shard.k1_wall_s", "s"),
    ("shard.speedup", "x"),
    ("device.frames", "count"),
    ("device.offloads", "count"),
    ("device.offload_success_share", "share"),
    ("device.timeouts_network", "count"),
    ("device.timeouts_load", "count"),
    ("device.route_ns", "ns"),
    ("device.tracker_cycle_ns", "ns"),
    ("device.run_setup_ms", "ms"),
    ("core.updates", "count"),
    ("core.update_ns", "ns"),
    ("net.packets_sent", "count"),
    ("net.packets_lost", "count"),
    ("net.retx_share", "share"),
    ("net.send_ns", "ns"),
    ("server.requests", "count"),
    ("server.completions", "count"),
    ("server.rejections", "count"),
    ("server.admission_rejections", "count"),
    ("server.batches", "count"),
    ("server.mean_batch", "count"),
    ("server.queue_depth_p50", "count"),
    ("server.tier_submit_ns", "ns"),
    ("sweep.cells", "count"),
    ("sweep.steals", "count"),
    ("sweep.cell_ms_p50", "ms"),
    ("sweep.cell_ms_max", "ms"),
    ("sweep.parallel_eff", "share"),
    ("reactor.requests", "count"),
    ("reactor.completions", "count"),
    ("reactor.rejections", "count"),
    ("reactor.batches", "count"),
    ("reactor.mean_batch", "count"),
    ("reactor.server_ready_events", "count"),
    ("reactor.client_ready_events", "count"),
    ("reactor.ready_per_offload", "1/op"),
    ("reactor.coalesced_writes", "count"),
    ("reactor.writer_drops", "count"),
    ("reactor.late_backpressure", "count"),
    ("reactor.paced_drops", "count"),
    ("reactor.reconnects", "count"),
    ("reactor.miss_share", "share"),
    ("reactor.server_cpu_ms_per_1k", "ms"),
    ("reactor.client_cpu_ms_per_1k", "ms"),
    ("reactor.rtt_floor_ms", "ms"),
    ("reactor.rtt_over_floor_p50_ms", "ms"),
    ("reactor.rtt_p99_ms", "ms"),
    ("reactor.encode_ns", "ns"),
    ("reactor.decode_ns", "ns"),
    ("reactor.wire_bytes_per_offload", "B"),
    ("reactor.timer_ns", "ns"),
    ("reactor.gen_shortfall", "share"),
    ("telemetry.overhead_share", "share"),
];

/// The per-layer metrics of a layer prefix (`"reactor."` etc.).
fn layer(prefix: &str) -> impl Iterator<Item = &'static str> + '_ {
    PER_LAYER
        .iter()
        .map(|&(name, _)| name)
        .filter(move |name| name.starts_with(prefix))
}

/// Whether `name` is a legal metric name: `[A-Za-z0-9_.-]+`, starting
/// with a letter or digit, at most 64 characters.
pub fn valid_name(name: &str) -> bool {
    !name.is_empty()
        && name.len() <= 64
        && name.starts_with(|c: char| c.is_ascii_alphanumeric())
        && name
            .chars()
            .all(|c| c.is_ascii_alphanumeric() || matches!(c, '_' | '.' | '-'))
}

/// Everything one invocation measured and checked.
#[derive(Debug, Default)]
pub struct Report {
    /// Operations attempted (runs, cells or offloads).
    pub attempted: u64,
    /// Operations that failed (panicked, failed a check, or missed the
    /// deadline).
    pub failed: u64,
    /// Failed output checks; any makes the invocation exit non-zero.
    pub errors: Vec<String>,
    values: BTreeMap<&'static str, (f64, String)>,
}

impl Report {
    /// Record `name = value`, with a human-readable detail (sample count,
    /// definition) for the printed table.
    pub fn set(&mut self, name: &'static str, value: f64, detail: impl Into<String>) {
        self.values.insert(name, (value, detail.into()));
    }

    /// Record a metric whose layer this workload does not exercise.
    pub fn not_exercised(&mut self, name: &'static str, why: &str) {
        self.set(name, 0.0, format!("not exercised: {why}"));
    }

    /// Fill every still-unset metric of `prefix` as not exercised.
    pub fn layer_not_exercised(&mut self, prefix: &str, why: &str) {
        for name in layer(prefix) {
            if !self.values.contains_key(name) {
                self.not_exercised(name, why);
            }
        }
    }

    /// Record a failed output check (and the operation it failed).
    pub fn fail(&mut self, message: String) {
        self.failed += 1;
        self.errors.push(message);
    }

    /// Whether every output check passed.
    pub fn correct(&self) -> bool {
        self.errors.is_empty()
    }

    /// The human-readable table of `set`, one metric per line.
    pub fn table(&self, set: &[(&str, &str)]) -> String {
        let mut out = String::new();
        for &(name, unit) in set {
            if let Some((value, detail)) = self.values.get(name) {
                let _ = writeln!(out, "  {name:<32} {value:>16.6} {unit:<6} {detail}");
            }
        }
        out
    }

    /// The result line: one JSON object with exactly the keys `correct`,
    /// `attempted`, `failed` and `metrics`, the last holding every metric
    /// of `set`. Errors when a metric of `set` is missing or not finite —
    /// a defect of the benchmark itself.
    pub fn result_line(&self, set: &[(&str, &str)]) -> Result<String, String> {
        let mut metrics = Vec::with_capacity(set.len());
        for &(name, unit) in set {
            if !valid_name(name) {
                return Err(format!("metric name {name:?} is not [A-Za-z0-9_.-]+"));
            }
            let (value, _) = self
                .values
                .get(name)
                .ok_or_else(|| format!("metric {name} was not measured"))?;
            if !value.is_finite() {
                return Err(format!("metric {name} is not finite ({value})"));
            }
            metrics.push(format!(
                "\"{name}\": {{\"value\": {}, \"unit\": \"{unit}\"}}",
                json_number(*value)
            ));
        }
        Ok(format!(
            "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
            self.correct(),
            self.attempted.max(1),
            self.failed,
            metrics.join(", ")
        ))
    }
}

/// A finite `f64` as a JSON number with every digit Rust's shortest
/// round-trip formatting keeps.
fn json_number(v: f64) -> String {
    let s = format!("{v}");
    if s.contains(['.', 'e', 'E']) {
        s
    } else {
        format!("{s}.0")
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn metric_names_are_legal_and_unique() {
        let mut seen = std::collections::BTreeSet::new();
        for &(name, unit) in END_TO_END.iter().chain(PER_LAYER) {
            assert!(valid_name(name), "illegal metric name {name}");
            assert!(seen.insert(name), "duplicate metric name {name}");
            assert!(!unit.is_empty() && unit.len() <= 16, "bad unit for {name}");
        }
        assert!(!valid_name("sim events"));
        assert!(!valid_name("_leading"));
        assert!(!valid_name("p99/ms"));
        assert!(!valid_name(""));
    }

    #[test]
    fn benchmark_json_declares_exactly_these_metrics() {
        let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
        let json = std::fs::read_to_string(path).expect("BENCHMARK.json at the repo root");
        let declared: Vec<&str> = json
            .split("\"name\": \"")
            .skip(1)
            .filter_map(|s| s.split('"').next())
            .collect();
        for &(name, _) in END_TO_END.iter().chain(PER_LAYER) {
            assert!(
                declared.contains(&name),
                "{name} missing from BENCHMARK.json"
            );
        }
        let workloads = ["des-fleet", "des-sweep", "live-offload"];
        for name in declared {
            assert!(
                workloads.contains(&name)
                    || END_TO_END.iter().chain(PER_LAYER).any(|&(n, _)| n == name),
                "BENCHMARK.json declares {name}, which the benchmark never reports"
            );
        }
    }

    #[test]
    fn result_line_has_the_contract_shape() {
        let mut r = Report::default();
        let set = &[("a_ms", "ms"), ("b", "count")];
        assert!(r.result_line(set).is_err(), "missing metrics are an error");
        r.attempted = 3;
        r.set("a_ms", 1.25, "");
        r.set("b", 7.0, "");
        assert_eq!(
            r.result_line(set).unwrap(),
            "{\"correct\": true, \"attempted\": 3, \"failed\": 0, \"metrics\": \
             {\"a_ms\": {\"value\": 1.25, \"unit\": \"ms\"}, \
             \"b\": {\"value\": 7.0, \"unit\": \"count\"}}}"
        );
        r.set("b", f64::NAN, "");
        assert!(
            r.result_line(set).is_err(),
            "non-finite values are an error"
        );
        r.set("b", 7.0, "");
        r.fail("digest mismatch".into());
        assert!(r
            .result_line(set)
            .unwrap()
            .starts_with("{\"correct\": false"));
    }
}
