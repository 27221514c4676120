//! `des-fleet`: one large sharded fleet run after another.
//!
//! 1024 devices (round-robin over the three Table II Pis, MobileNetV3
//! Small) on the Table V network schedule, sharing a 64-server tier with
//! power-of-two-choices routing. Every other engine option is the user
//! default. One operation is one `run_fleet` call on a fresh seed.
//!
//! The untraced run times the fleet on [`TIMED_SHARDS`] shard; the
//! traced run adds the [`SHARDS`]-shard twins that `shard.speedup`
//! compares.

use crate::checks::{check_digest, check_fleet, fleet_digest};
use crate::layers;
use crate::observe::{traced, Observed};
use crate::report::Report;
use crate::stats::{max, median, ratio};
use crate::{derive_seed, goldens, sys, Args};
use ff_core::{Controller, FrameFeedback};
use ff_device::{run_fleet, FleetConfig, FleetDeviceConfig, FleetResult};
use ff_models::{DeviceKind, ModelKind};
use ff_server::{RoutingPolicy, ServerSpec, TierConfig};
use ff_telemetry::Telemetry;
use ff_workload::table_v;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::time::Instant;

const DEVICES: usize = 1024;
const FRAMES: u64 = 4_000;
const SERVERS: usize = 64;
/// Shard count of the traced run's parallel twins.
const SHARDS: usize = 2;
/// Shard count of the timed runs. A sharded run is one coordinator plus
/// one thread per shard handing off through a barrier twice per 5 ms
/// window; at K = 2 that is three threads on a 2-core host, and the
/// wall time of one run then swung 2.6–6.8 s with the host's load
/// (K = 1 on the same seed, interleaved: 2.6–3.3 s). K = 1 still runs
/// the whole shard machinery, barrier rounds included, and results are
/// bit-identical at any K.
const TIMED_SHARDS: usize = 1;
/// Set-ups timed per run; one takes a few milliseconds.
const SETUP_SAMPLES: u64 = 31;

/// The workload's fleet for one seed.
fn config(seed: u64, frames: u64, shards: usize, telemetry: &Telemetry) -> FleetConfig {
    let pis = [
        DeviceKind::Pi3BRev12,
        DeviceKind::Pi4BRev12,
        DeviceKind::Pi4BRev14,
    ];
    let mut c = FleetConfig::default();
    c.seed = seed;
    c.devices = (0..DEVICES)
        .map(|i| FleetDeviceConfig {
            device: pis[i % pis.len()],
            model: ModelKind::MobileNetV3Small,
        })
        .collect();
    c.stream.total_frames = frames;
    c.network = table_v();
    c.tier = Some(TierConfig {
        routing: RoutingPolicy::PowerOfTwoChoices,
        ..TierConfig::uniform(SERVERS, ServerSpec::default())
    });
    c.engine.shards = shards;
    c.telemetry = telemetry.clone();
    c
}

fn controllers() -> Vec<Box<dyn Controller>> {
    (0..DEVICES)
        .map(|_| Box::new(FrameFeedback::new()) as Box<dyn Controller>)
        .collect()
}

/// One timed `run_fleet` call; a panic becomes an error.
fn run(config: FleetConfig) -> Result<(f64, FleetResult), String> {
    let t = Instant::now();
    let result = catch_unwind(AssertUnwindSafe(|| run_fleet(config, controllers())))
        .map_err(|_| "run_fleet panicked".to_string())?;
    Ok((t.elapsed().as_secs_f64(), result))
}

/// Run and check one operation: conservation always, the recorded
/// digest when this is operation 0 of a seed with a golden.
fn checked_op(
    report: &mut Report,
    args: &Args,
    op: u64,
    config: FleetConfig,
) -> Option<(f64, FleetResult)> {
    report.attempted += 1;
    let frames = config.stream.total_frames;
    let outcome = run(config).and_then(|(wall, result)| {
        check_fleet(&result, frames)?;
        if op == 0 {
            if let Some(want) = goldens::lookup(goldens::FLEET, args.seed) {
                check_digest("des-fleet", fleet_digest(&result), want)?;
            }
        }
        Ok((wall, result))
    });
    match outcome {
        Ok(ok) => Some(ok),
        Err(e) => {
            report.fail(format!("des-fleet op {op}: {e}"));
            None
        }
    }
}

/// Set-up time: a one-frame run of the workload's fleet (config build,
/// fleet state, tier, shard threads), median of [`SETUP_SAMPLES`].
fn setup_s(seed: u64) -> f64 {
    let samples: Vec<f64> = (0..SETUP_SAMPLES)
        .map(|k| {
            let t = Instant::now();
            let c = config(
                derive_seed(seed, 1_000 + k),
                1,
                TIMED_SHARDS,
                &Telemetry::disabled(),
            );
            std::hint::black_box(run_fleet(c, controllers()));
            t.elapsed().as_secs_f64()
        })
        .collect();
    median(&samples)
}

/// Operation 0's digest for `seed` (used to record goldens).
pub fn digest(seed: u64) -> u64 {
    let c = config(derive_seed(seed, 0), FRAMES, SHARDS, &Telemetry::disabled());
    fleet_digest(&run_fleet(c, controllers()))
}

pub fn untraced(args: &Args, report: &mut Report) {
    let setup = setup_s(args.seed);
    let op_config = |op| {
        config(
            derive_seed(args.seed, op),
            FRAMES,
            TIMED_SHARDS,
            &Telemetry::disabled(),
        )
    };
    // Operation 0 carries the digest check and warms the allocator and
    // caches; it is not timed.
    checked_op(report, args, 0, op_config(0));
    let cpu0 = sys::process_cpu_ms();
    let start = Instant::now();
    let (mut walls, mut rates) = (Vec::new(), Vec::new());
    let mut device_s = 0.0;
    let mut op = 1;
    while op == 1 || start.elapsed().as_secs_f64() < args.seconds {
        let c = op_config(op);
        // Simulated device-seconds this run covers.
        let ds = c.devices.len() as f64 * c.stream.stream_duration().as_secs_f64();
        if let Some((wall, _)) = checked_op(report, args, op, c) {
            walls.push(wall);
            rates.push(ds / wall);
            device_s += ds;
        }
        op += 1;
    }
    let cpu = sys::process_cpu_ms() - cpu0;
    let n = walls.len();
    report.set(
        "setup_s",
        setup,
        format!("one-frame fleet run, median of {SETUP_SAMPLES}"),
    );
    report.set("peak_rss_mib", sys::peak_rss_mib(), "VmHWM");
    report.set(
        "throughput_per_s",
        median(&rates),
        format!("simulated device-seconds per wall-second, median of {n} runs"),
    );
    let walls_ms: Vec<f64> = walls.iter().map(|w| w * 1e3).collect();
    println!("# run walls (ms): {walls_ms:.0?}");
    report.set(
        "latency_p50_ms",
        median(&walls_ms),
        format!("wall time of one {DEVICES}-device run at K={TIMED_SHARDS}, median of {n}"),
    );
    report.set(
        "cpu_ms_per_1k",
        ratio(cpu, device_s / 1_000.0),
        format!("process CPU per 1000 simulated device-seconds ({cpu:.0} ms total)"),
    );
}

pub fn traced_run(args: &Args, report: &mut Report) {
    let seed = derive_seed(args.seed, 0);
    let off = Telemetry::disabled();
    let Some((wall, result)) = checked_op(report, args, 0, config(seed, FRAMES, SHARDS, &off))
    else {
        return;
    };
    let want = fleet_digest(&result);

    // Twins of the same run, interleaved so a slow stretch of the host
    // hits both shard counts: with telemetry on at K = 2 (tier gauges)
    // and K = 1 (engine gauges: the sharded driver has no single event
    // queue), and plain at both. Every twin must reproduce the digest.
    let (mut k2_walls, mut k1_walls, mut wall_on) = (vec![wall], Vec::new(), 0.0);
    let (mut tier_seen, mut engine_seen) = (Observed::default(), Observed::default());
    for (shards, telemetry_on) in [
        (1, false),
        (SHARDS, true),
        (1, true),
        (SHARDS, false),
        (1, false),
    ] {
        let (outcome, seen) = if telemetry_on {
            traced(|t| run(config(seed, FRAMES, shards, t)))
        } else {
            (run(config(seed, FRAMES, shards, &off)), Observed::default())
        };
        report.attempted += 1;
        let what = format!(
            "K={shards}{} twin",
            if telemetry_on { " telemetry on" } else { "" }
        );
        let checked =
            outcome.and_then(|(w, r)| check_digest(&what, fleet_digest(&r), want).map(|()| w));
        let w = match checked {
            Ok(w) => w,
            Err(e) => return report.fail(format!("des-fleet {e}")),
        };
        match (shards == SHARDS, telemetry_on) {
            (true, true) => (wall_on, tier_seen) = (w, seen),
            (false, true) => engine_seen = seen,
            (true, false) => k2_walls.push(w),
            (false, false) => k1_walls.push(w),
        }
    }
    let (wall, wall_k1) = (median(&k2_walls), median(&k1_walls));

    let c = config(seed, FRAMES, SHARDS, &off);
    let end_s = c.stream.stream_duration().as_secs_f64() + c.deadline.as_secs_f64();
    let depth = engine_seen.gauge("engine", "pending_events");
    let depth_p50 = median(depth);
    report.set(
        "sim.events",
        result.events_handled as f64,
        "events dispatched in one run",
    );
    report.set(
        "sim.events_per_sim_s",
        result.events_handled as f64 / end_s,
        "fleet-wide events per simulated second",
    );
    report.set(
        "sim.queue_depth_p50",
        depth_p50,
        format!("pending events, {} ticks (K=1)", depth.len()),
    );
    report.set("sim.queue_depth_max", max(depth), "pending events (K=1)");
    report.set(
        "sim.queue_op_ns",
        layers::queue_op_ns(depth_p50 as usize, 1_000_000),
        "push+pop at the p50 depth",
    );
    let w_us = c.link.propagation.as_micros();
    let rounds = ((end_s * 1e6) as u64 / w_us + 1) as f64;
    let round_us = layers::phased_round_us(SHARDS);
    report.set("sim.phased_rounds", rounds, format!("{w_us} µs windows"));
    report.set(
        "sim.round_us",
        round_us,
        format!("run_phased, {SHARDS} no-op workers"),
    );
    report.set(
        "sim.barrier_share",
        rounds * round_us / (wall * 1e6),
        "rounds × round_us ÷ wall",
    );
    report.set(
        "shard.k1_wall_s",
        wall_k1,
        "same seed, K=1, digest equal, median of 2",
    );
    report.set(
        "shard.speedup",
        wall_k1 / wall,
        format!("K=1 wall ÷ K={SHARDS} wall, medians of 2"),
    );

    let mut totals = layers::DeviceTotals::default();
    let period = c.controller_period.as_secs_f64();
    for d in &result.devices {
        let frames = d.frames_offloaded + d.frames_local;
        totals.add(
            frames,
            d.frames_offloaded,
            d.offload_successes,
            d.qos.records(),
            period,
        );
    }
    // Fleet results carry no latency; an offload lives at most a deadline.
    totals.report(report, c.stream.fps, c.deadline, c.deadline);
    report.set(
        "net.send_ns",
        layers::send_ns(
            &c.network
                .steps()
                .iter()
                .map(|&(_, n)| n)
                .collect::<Vec<_>>(),
            c.stream.compression.mean_frame_bytes(),
            c.stream.fps,
        ),
        "Link::send, mean over the Table V steps",
    );
    for name in ["net.packets_sent", "net.packets_lost", "net.retx_share"] {
        report.set(
            name,
            0.0,
            "unavailable: FleetResult carries no link counters",
        );
    }

    let s = &result.server_stats;
    report.set("server.requests", s.requests_received as f64, "tier total");
    report.set("server.completions", s.completions as f64, "tier total");
    report.set("server.rejections", s.rejections as f64, "tier total");
    report.set(
        "server.admission_rejections",
        result.admission_rejections as f64,
        "AdmitAll",
    );
    report.set("server.batches", s.batches_executed as f64, "tier total");
    report.set("server.mean_batch", s.mean_batch_size(), "frames per batch");
    let q = tier_seen.gauge("server", "server_queue_depth");
    report.set(
        "server.queue_depth_p50",
        median(q),
        format!("tier queue depth, {} ticks", q.len()),
    );
    report.set(
        "server.tier_submit_ns",
        layers::tier_submit_ns(
            &c.tier_config(),
            s.requests_received as f64 / c.stream.stream_duration().as_secs_f64(),
            DEVICES as u32,
        ),
        format!("{SERVERS}-server po2c tier at the run's request rate"),
    );
    report.set(
        "telemetry.overhead_share",
        (wall_on - wall) / wall,
        format!(
            "K={SHARDS} wall with telemetry on vs off; {} events dropped",
            tier_seen.dropped_events
        ),
    );
    report.not_exercised("device.run_setup_ms", "fleets do not call run_experiment");
    report.layer_not_exercised("sweep.", "no sweep executor");
    report.layer_not_exercised("reactor.", "no live tier");
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn different_seeds_give_different_fleets_that_both_pass() {
        let small = |seed| {
            let mut c = config(seed, 90, SHARDS, &Telemetry::disabled());
            c.devices.truncate(12);
            c
        };
        let (a, b) = (small(derive_seed(1, 0)), small(derive_seed(2, 0)));
        assert_ne!(a.seed, b.seed);
        let mut digests = Vec::new();
        for c in [a, b] {
            let n = c.devices.len();
            let r = run_fleet(
                c,
                (0..n)
                    .map(|_| Box::new(FrameFeedback::new()) as _)
                    .collect(),
            );
            check_fleet(&r, 90).expect("conservation holds");
            digests.push(fleet_digest(&r));
        }
        assert_ne!(
            digests[0], digests[1],
            "different inputs, different results"
        );
    }
}
