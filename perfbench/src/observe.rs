//! The traced run's view of the `ff-telemetry` pipeline: a sink that
//! keeps the gauge series and counter totals of the shared scopes
//! (engine, server, sweep, reactor) and skips the per-device scopes,
//! whose volume at fleet scale would dominate the process.

use ff_telemetry::{Sink, Snapshot, Telemetry};
use std::collections::BTreeMap;
use std::sync::{Arc, Mutex};

/// What the traced run saw through telemetry.
#[derive(Debug, Default)]
pub struct Observed {
    /// One value per snapshot window, keyed by `(scope, metric)`.
    pub gauges: BTreeMap<(String, String), Vec<f64>>,
    /// Final cumulative value, keyed by `(scope, metric)`.
    pub counters: BTreeMap<(String, String), u64>,
    /// Events the pipeline dropped because a ring overflowed.
    pub dropped_events: u64,
}

impl Observed {
    /// The gauge series of `metric` under `scope` (empty when never set).
    pub fn gauge(&self, scope: &str, metric: &str) -> &[f64] {
        self.gauges
            .get(&(scope.to_string(), metric.to_string()))
            .map_or(&[], Vec::as_slice)
    }

    /// Sum of `metric` over every scope whose name starts with `prefix`.
    pub fn counter_sum(&self, prefix: &str, metric: &str) -> u64 {
        self.counters
            .iter()
            .filter(|((s, m), _)| s.starts_with(prefix) && m == metric)
            .map(|(_, v)| v)
            .sum()
    }
}

struct SharedScopes(Arc<Mutex<Observed>>);

impl Sink for SharedScopes {
    fn emit(&mut self, snapshot: &Snapshot) {
        let mut seen = self.0.lock().expect("telemetry sink lock poisoned");
        for scope in &snapshot.scopes {
            if scope.scope.starts_with("device/") {
                continue;
            }
            for g in &scope.gauges {
                seen.gauges
                    .entry((scope.scope.clone(), g.metric.clone()))
                    .or_default()
                    .push(g.value);
            }
            for c in &scope.counters {
                let slot = seen
                    .counters
                    .entry((scope.scope.clone(), c.metric.clone()))
                    .or_default();
                *slot = (*slot).max(c.value);
            }
        }
    }
}

/// Run `f` with an enabled telemetry pipeline and return its result with
/// what the pipeline observed.
pub fn traced<T>(f: impl FnOnce(&Telemetry) -> T) -> (T, Observed) {
    let telemetry = Telemetry::enabled();
    let seen = Arc::new(Mutex::new(Observed::default()));
    telemetry.add_sink(Box::new(SharedScopes(Arc::clone(&seen))));
    let out = f(&telemetry);
    telemetry.finish();
    let dropped = telemetry.dropped_events();
    drop(telemetry);
    let mut observed = std::mem::take(&mut *seen.lock().expect("telemetry sink lock poisoned"));
    observed.dropped_events = dropped;
    (out, observed)
}
