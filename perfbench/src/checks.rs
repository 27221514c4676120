//! Output checks run on every invocation: result digests, conservation
//! laws and the live tier's drain conditions.
//!
//! Digests use the `content_inert.rs` scheme: FNV-1a over little-endian
//! bytes, with every `f64` entering as its raw bit pattern, so one
//! flipped mantissa bit anywhere in a QoS record changes the digest.

use ff_device::{ExperimentResult, FleetResult};
use ff_metrics::QosRecord;
use ff_reactor::ReactorDeviceSummary;
use ff_server::ServerStats;
use ff_sweep::SweepReport;

/// FNV-1a, 64-bit.
pub struct Fnv(u64);

impl Default for Fnv {
    fn default() -> Self {
        Fnv(0xcbf2_9ce4_8422_2325)
    }
}

impl Fnv {
    fn bytes(&mut self, bytes: &[u8]) {
        for &b in bytes {
            self.0 ^= b as u64;
            self.0 = self.0.wrapping_mul(0x100_0000_01b3);
        }
    }

    pub fn u64(&mut self, v: u64) {
        self.bytes(&v.to_le_bytes());
    }

    pub fn f64(&mut self, v: f64) {
        self.u64(v.to_bits());
    }

    pub fn str(&mut self, s: &str) {
        self.u64(s.len() as u64);
        self.bytes(s.as_bytes());
    }

    /// Every field of every record, in declaration order.
    pub fn records(&mut self, records: &[QosRecord]) {
        self.u64(records.len() as u64);
        for r in records {
            for v in [
                r.t_secs,
                r.pl,
                r.po,
                r.timeouts,
                r.timeouts_network,
                r.timeouts_load,
                r.po_target,
                r.accuracy_weighted_throughput,
            ] {
                self.f64(v);
            }
        }
    }

    pub fn server_stats(&mut self, s: &ServerStats) {
        for v in [
            s.requests_received,
            s.completions,
            s.rejections,
            s.batches_executed,
            s.batched_frames,
            s.full_batches,
        ] {
            self.u64(v);
        }
    }

    pub fn finish(&self) -> u64 {
        self.0
    }
}

/// Digest of everything a fleet run reports.
pub fn fleet_digest(r: &FleetResult) -> u64 {
    let mut h = Fnv::default();
    h.u64(r.devices.len() as u64);
    for d in &r.devices {
        h.str(&d.controller);
        h.str(&d.device);
        h.str(&d.model);
        h.records(d.qos.records());
        for v in [
            d.frames_offloaded,
            d.frames_local,
            d.offload_successes,
            d.offload_timeouts,
        ] {
            h.u64(v);
        }
        h.f64(d.mean_throughput);
        h.f64(d.mean_accuracy_weighted_throughput);
    }
    h.server_stats(&r.server_stats);
    for s in &r.per_server_stats {
        h.server_stats(s);
    }
    h.u64(r.admission_rejections);
    h.f64(r.offload_fairness);
    h.f64(r.total_mean_throughput);
    for &v in &r.rejections_by_device {
        h.u64(v);
    }
    h.u64(r.events_handled);
    h.finish()
}

/// Fold one experiment's QoS records and counters into `h`.
pub fn experiment_into(h: &mut Fnv, r: &ExperimentResult) {
    h.str(&r.controller);
    h.records(r.qos.records());
    for v in [
        r.frames_generated,
        r.frames_offloaded,
        r.frames_local,
        r.offload_successes,
        r.offload_timeouts,
        r.admission_rejections,
        r.link_stats.frames_offered,
        r.link_stats.frames_delivered,
        r.link_stats.frames_dropped_overflow,
        r.link_stats.frames_dropped_loss,
        r.link_stats.packets_sent,
        r.link_stats.packets_lost,
    ] {
        h.u64(v);
    }
    h.server_stats(&r.server_stats);
    for v in [
        r.cpu_usage_pct,
        r.local_busy_fraction,
        r.mean_throughput,
        r.mean_accuracy_weighted_throughput,
    ] {
        h.f64(v);
    }
}

/// Digest of a whole sweep report, cells in grid order.
pub fn sweep_digest(report: &SweepReport) -> u64 {
    let mut h = Fnv::default();
    h.u64(report.cells.len() as u64);
    for c in &report.cells {
        h.str(&c.key.scenario);
        h.u64(c.key.seed);
        h.str(&c.key.controller);
        experiment_into(&mut h, &c.result);
    }
    h.finish()
}

/// Compare a digest against its recorded golden value.
pub fn check_digest(what: &str, got: u64, want: u64) -> Result<(), String> {
    if got == want {
        Ok(())
    } else {
        Err(format!(
            "{what}: digest {got:#018x} differs from the expected {want:#018x}"
        ))
    }
}

/// `T == T_n + T_l` (to rounding) and finite values, per record.
fn check_records(what: &str, records: &[QosRecord]) -> Result<(), String> {
    for (i, r) in records.iter().enumerate() {
        let fields = [
            r.t_secs,
            r.pl,
            r.po,
            r.timeouts,
            r.timeouts_network,
            r.timeouts_load,
            r.po_target,
        ];
        if fields.iter().any(|v| !v.is_finite()) {
            return Err(format!("{what}: record {i} has a non-finite field"));
        }
        let split = r.timeouts_network + r.timeouts_load;
        if (r.timeouts - split).abs() > 1e-9 * r.timeouts.abs().max(1.0) {
            return Err(format!(
                "{what}: record {i}: T = {} but T_n + T_l = {split}",
                r.timeouts
            ));
        }
    }
    Ok(())
}

/// The offload and routing conservation laws of one device.
fn check_counts(
    what: &str,
    frames: u64,
    offloaded: u64,
    local: u64,
    successes: u64,
    timeouts: u64,
) -> Result<(), String> {
    if offloaded != successes + timeouts {
        return Err(format!(
            "{what}: offloaded {offloaded} != successes {successes} + timeouts {timeouts}"
        ));
    }
    if frames != offloaded + local {
        return Err(format!(
            "{what}: frames {frames} != offloaded {offloaded} + local {local}"
        ));
    }
    Ok(())
}

/// Conservation checks over a fleet run of `frames` frames per device.
pub fn check_fleet(r: &FleetResult, frames: u64) -> Result<(), String> {
    for (i, d) in r.devices.iter().enumerate() {
        let what = format!("device {i}");
        check_counts(
            &what,
            frames,
            d.frames_offloaded,
            d.frames_local,
            d.offload_successes,
            d.offload_timeouts,
        )?;
        check_records(&what, d.qos.records())?;
    }
    let s = &r.server_stats;
    if s.completions + s.rejections > s.requests_received {
        return Err(format!(
            "tier: {} completions + {} rejections exceed {} requests",
            s.completions, s.rejections, s.requests_received
        ));
    }
    Ok(())
}

/// Conservation checks over one experiment (a sweep cell).
pub fn check_experiment(what: &str, r: &ExperimentResult) -> Result<(), String> {
    check_counts(
        what,
        r.frames_generated,
        r.frames_offloaded,
        r.frames_local,
        r.offload_successes,
        r.offload_timeouts,
    )?;
    check_records(what, r.qos.records())
}

/// Conservation checks over one live device: nothing in flight at exit,
/// every offload resolved, and every captured frame routed once. A
/// local-routed frame is completed, skipped, or still held by the local
/// engine at exit (at most one running plus one pending).
pub fn check_live_device(what: &str, d: &ReactorDeviceSummary) -> Result<(), String> {
    if d.in_flight_at_end != 0 {
        return Err(format!(
            "{what}: {} offloads in flight at exit",
            d.in_flight_at_end
        ));
    }
    if d.offloaded != d.successes + d.timeouts {
        return Err(format!(
            "{what}: offloaded {} != successes {} + timeouts {}",
            d.offloaded, d.successes, d.timeouts
        ));
    }
    let routed = d.offloaded + d.local_completed + d.local_skipped;
    if routed > d.frames || d.frames - routed > 2 {
        return Err(format!(
            "{what}: {} frames captured but {routed} routed (offload + local + skipped)",
            d.frames
        ));
    }
    check_records(what, d.qos.records())
}

#[cfg(test)]
mod tests {
    use super::*;
    use ff_metrics::{LogHistogram, QosLog};

    fn record(t: f64) -> QosRecord {
        QosRecord {
            t_secs: t,
            pl: 12.5,
            po: 14.25,
            timeouts: 1.5,
            timeouts_network: 1.0,
            timeouts_load: 0.5,
            po_target: 15.0,
            accuracy_weighted_throughput: 20.0,
        }
    }

    #[test]
    fn one_flipped_mantissa_bit_is_rejected() {
        let records: Vec<QosRecord> = (0..30).map(|t| record(t as f64)).collect();
        let mut h = Fnv::default();
        h.records(&records);
        let golden = h.finish();

        let mut flipped = records.clone();
        flipped[17].po = f64::from_bits(flipped[17].po.to_bits() ^ 1);
        let mut h = Fnv::default();
        h.records(&flipped);
        assert!(check_digest("flipped", h.finish(), golden).is_err());

        let mut h = Fnv::default();
        h.records(&records);
        assert!(check_digest("same", h.finish(), golden).is_ok());
    }

    #[test]
    fn timeout_split_must_add_up() {
        let mut r = record(1.0);
        assert!(check_records("ok", &[r]).is_ok());
        r.timeouts_load = 0.75;
        assert!(check_records("split", &[r]).is_err());
        r.timeouts_load = f64::NAN;
        assert!(check_records("nan", &[r]).is_err());
    }

    fn live_device(frames: u64, offloaded: u64, local: u64) -> ReactorDeviceSummary {
        ReactorDeviceSummary {
            qos: QosLog::new(),
            frames,
            offloaded,
            successes: offloaded - 3,
            timeouts: 3,
            instant_failures: 0,
            local_completed: local,
            local_skipped: 0,
            paced_drops: 0,
            late_backpressure: 0,
            reconnects: 0,
            dial_failures: 0,
            latency_ms: LogHistogram::for_latency_ms(),
            in_flight_at_end: 0,
        }
    }

    #[test]
    fn a_device_that_loses_frames_is_rejected() {
        assert!(check_live_device("ok", &live_device(1_000, 900, 100)).is_ok());
        // One local frame still held by the engine at exit is allowed.
        assert!(check_live_device("held", &live_device(1_000, 900, 99)).is_ok());
        // Ten captured frames that went nowhere are not.
        assert!(check_live_device("lost", &live_device(1_000, 890, 100)).is_err());
        // More routed than captured.
        assert!(check_live_device("extra", &live_device(1_000, 950, 100)).is_err());
        let mut stuck = live_device(1_000, 900, 100);
        stuck.in_flight_at_end = 1;
        assert!(check_live_device("stuck", &stuck).is_err());
        let mut leaky = live_device(1_000, 900, 100);
        leaky.successes -= 1;
        assert!(check_live_device("leaky", &leaky).is_err());
    }

    #[test]
    fn fleet_style_counts_must_conserve() {
        assert!(check_counts("ok", 100, 60, 40, 50, 10).is_ok());
        assert!(check_counts("routing", 100, 60, 39, 50, 10).is_err());
        assert!(check_counts("offload", 100, 60, 40, 50, 9).is_err());
    }
}
