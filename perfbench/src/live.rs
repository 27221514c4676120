//! `live-offload`: two high-rate camera gateways against one reactor
//! server over loopback.
//!
//! One `run_reactor_fleet` client thread drives [`DEVICES`] devices (one
//! connection each) against one `ReactorServer` thread. Capture is open
//! loop at [`FS`] frames/s per device with the paper's mean compressed
//! frame; the pacer's bandwidth sits far above the offered bytes and the
//! server's simulated GPU is small, so offloads succeed and the
//! transport — `FFLP` framing, `FramedConn` buffers, both epoll loops,
//! the deadline wheel and the pacer — carries the time. One operation is
//! one offload attempt; a miss fails it.

use crate::checks::check_live_device;
use crate::layers;
use crate::observe::traced;
use crate::report::Report;
use crate::stats::{median, ratio, supported_tail};
use crate::{derive_seed, sys, Args};
use ff_core::{Controller, FrameFeedback};
use ff_metrics::LogHistogram;
use ff_models::{DeviceKind, ModelKind};
use ff_reactor::{
    run_reactor_fleet, FleetClientConfig, FleetSummary, PacerConditions, ReactorDeviceConfig,
    ReactorServer, ReactorServerConfig, ReactorServerStats,
};
use ff_sim::SimDuration;
use ff_telemetry::Telemetry;
use ff_workload::StreamConfig;
use std::net::{TcpListener, TcpStream};
use std::sync::atomic::Ordering;
use std::time::{Duration, Instant};

const DEVICES: usize = 2;
/// Camera rate per device, frames/s.
const FS: f64 = 1_000.0;
/// The paper's controller ticks once per 30 frames at 30 fps; at this
/// rate a 250 ms tick still sees 250 frames, and the ramp the Table IV
/// clamps impose (about 10 ticks) takes 2.5 s of a session, not 10.
const TICK: Duration = Duration::from_millis(250);
/// Client sessions per untraced run; each starts its own server. The
/// reactor's poll timeouts round up to whole milliseconds, and a session
/// can settle into a cycle that adds about a millisecond to every round
/// trip; the median over five sessions keeps up to two such sessions
/// from setting the run's figures, and steadies the per-session peak
/// memory, which one stall of the server thread can raise.
const SESSIONS: u64 = 5;
/// Largest tolerated share of scheduled captures the generator missed.
const MAX_GEN_SHORTFALL: f64 = 0.05;
/// Set-ups timed per run; one takes about a millisecond.
const SETUP_SAMPLES: u64 = 61;
/// Name of the reactor server's event-loop thread.
const SERVER_THREAD: &str = "ff-reactor-server";

fn server_config(seed: u64) -> ReactorServerConfig {
    ReactorServerConfig {
        batch_limit: 256,
        batch_base: Duration::from_micros(500),
        per_frame: Duration::from_micros(5),
        chaos_seed: derive_seed(seed, 1),
        ..ReactorServerConfig::default()
    }
}

/// The client configuration for a run of `secs` seconds.
fn client_config(seed: u64, secs: f64, telemetry: &Telemetry) -> FleetClientConfig {
    let pi = DeviceKind::Pi4BRev14;
    FleetClientConfig {
        device: ReactorDeviceConfig {
            fs: FS,
            duration: Duration::from_secs_f64(secs),
            deadline: Duration::from_millis(250),
            frame_bytes: StreamConfig::default().compression.mean_frame_bytes(),
            // The local engine scales with the camera so the split has
            // the shape it has at 30 fps.
            local_rate_fps: pi.local_rate_fps(ModelKind::MobileNetV3Small) * FS / 30.0,
            tick: TICK,
            timeout_window: TICK * 3,
            pacer: PacerConditions {
                bandwidth_mbps: 100_000.0,
                loss_pct: 0.0,
            },
            ..ReactorDeviceConfig::default()
        },
        seed: derive_seed(seed, 0),
        telemetry: telemetry.clone(),
        ..FleetClientConfig::default()
    }
}

fn controllers() -> Vec<Box<dyn Controller>> {
    (0..DEVICES)
        .map(|_| Box::new(FrameFeedback::new()) as Box<dyn Controller>)
        .collect()
}

/// A histogram percentile interpolated inside its 2% bucket (the
/// histogram's own `percentile` returns bucket midpoints, which would
/// make a steady latency read the same on every run). Uses the bucket
/// state the histogram serializes.
fn interpolated_percentile(h: &LogHistogram, q: f64) -> f64 {
    let v = serde_json::to_value(h).expect("histogram serializes");
    let num = |key: &str| match v.get(key) {
        Some(serde::Value::F64(x)) => *x,
        Some(serde::Value::U64(x)) => *x as f64,
        _ => 0.0,
    };
    let (min_value, growth, underflow) = (num("min_value"), num("growth"), num("underflow"));
    let counts: Vec<f64> = v
        .get("counts")
        .and_then(|c| c.as_arr())
        .map(|c| {
            c.iter()
                .map(|x| match x {
                    serde::Value::U64(n) => *n as f64,
                    _ => 0.0,
                })
                .collect()
        })
        .unwrap_or_default();
    let total = h.count() as f64;
    if total == 0.0 || counts.is_empty() {
        return 0.0;
    }
    let rank = q * (total - 1.0);
    let mut seen = underflow;
    if rank < seen {
        return min_value / 2.0;
    }
    for (i, &c) in counts.iter().enumerate() {
        if rank < seen + c {
            let frac = (rank - seen + 0.5) / c;
            let value = min_value * growth.powf(i as f64 + frac);
            return value.min(h.max().unwrap_or(value));
        }
        seen += c;
    }
    h.max().unwrap_or(0.0)
}

/// What one live run produced.
struct LiveRun {
    summary: FleetSummary,
    server: ServerCounts,
    secs: f64,
    process_cpu_ms: f64,
    server_cpu_ms: f64,
    client_cpu_ms: f64,
}

/// A plain copy of the server's counters, read after the drain.
struct ServerCounts {
    requests: u64,
    completions: u64,
    rejections: u64,
    batches: u64,
    ready_events: u64,
    coalesced_writes: u64,
    writer_drops: u64,
    open_connections: u64,
}

impl ServerCounts {
    fn read(s: &ReactorServerStats) -> Self {
        let r = |a: &std::sync::atomic::AtomicU64| a.load(Ordering::Relaxed);
        ServerCounts {
            requests: r(&s.requests),
            completions: r(&s.completions),
            rejections: r(&s.rejections),
            batches: r(&s.batches),
            ready_events: r(&s.ready_events),
            coalesced_writes: r(&s.coalesced_writes),
            writer_drops: r(&s.writer_drops),
            open_connections: r(&s.open_connections),
        }
    }
}

/// Start a server, drive the client fleet on this thread, wait for the
/// server to see every connection close, stop the server.
fn run(seed: u64, secs: f64, telemetry: &Telemetry) -> Result<LiveRun, String> {
    let listener = TcpListener::bind("127.0.0.1:0").map_err(|e| format!("bind: {e}"))?;
    let server = ReactorServer::start_instrumented(listener, server_config(seed), telemetry)
        .map_err(|e| format!("server start: {e}"))?;
    // Live threads only (the client and the server loop), read while
    // the server still runs: per-session figures need finer than the
    // 10 ms ticks of the process total.
    let cpu0 = sys::live_threads_cpu_ms();
    let client0 = sys::main_thread_cpu_ms();
    let summary = run_reactor_fleet(
        server.addr(),
        &client_config(seed, secs, telemetry),
        controllers(),
    )
    .map_err(|e| format!("client fleet: {e}"));
    let client_cpu_ms = sys::main_thread_cpu_ms() - client0;
    // Drain: the server closes its side once it reads the client's FIN.
    let drain = Instant::now();
    while server.stats().open_connections.load(Ordering::Relaxed) > 0
        && drain.elapsed() < Duration::from_secs(2)
    {
        std::thread::sleep(Duration::from_millis(5));
    }
    let server_cpu_ms = sys::named_thread_cpu_ms(SERVER_THREAD);
    let process_cpu_ms = sys::live_threads_cpu_ms() - cpu0;
    let counts = ServerCounts::read(server.stats());
    server.shutdown();
    Ok(LiveRun {
        summary: summary?,
        server: counts,
        secs,
        process_cpu_ms,
        server_cpu_ms,
        client_cpu_ms,
    })
}

/// Account one run's offloads and check its output; returns the merged
/// latency histogram and success count.
fn account(report: &mut Report, run: &LiveRun) -> (LogHistogram, u64) {
    let mut latency = LogHistogram::for_latency_ms();
    let mut successes = 0;
    for (i, d) in run.summary.devices.iter().enumerate() {
        report.attempted += d.offloaded;
        report.failed += d.timeouts;
        successes += d.successes;
        latency.merge(&d.latency_ms);
        if let Err(e) = check_live_device(&format!("live device {i}"), d) {
            report.fail(e);
        }
    }
    if run.server.open_connections != 0 {
        report.fail(format!(
            "live: {} server connections still open after the drain",
            run.server.open_connections
        ));
    }
    let shortfall = gen_shortfall(run);
    if shortfall > MAX_GEN_SHORTFALL {
        report.fail(format!(
            "live: the capture generator fell {:.1}% behind its schedule (limit {:.0}%)",
            shortfall * 100.0,
            MAX_GEN_SHORTFALL * 100.0
        ));
    }
    (latency, successes)
}

fn gen_shortfall(run: &LiveRun) -> f64 {
    let captured: u64 = run.summary.devices.iter().map(|d| d.frames).sum();
    1.0 - captured as f64 / (DEVICES as f64 * FS * run.secs)
}

/// Set-up time: start the server and dial every device's connection
/// until the server has accepted them all, median of several.
fn setup_s(seed: u64) -> Result<f64, String> {
    let mut samples = Vec::new();
    for k in 0..SETUP_SAMPLES {
        let t = Instant::now();
        let server = ReactorServer::start("127.0.0.1:0", server_config(derive_seed(seed, 100 + k)))
            .map_err(|e| format!("server start: {e}"))?;
        let conns: Vec<TcpStream> = (0..DEVICES)
            .map(|_| TcpStream::connect(server.addr()))
            .collect::<Result<_, _>>()
            .map_err(|e| format!("dial: {e}"))?;
        while server.stats().connections.load(Ordering::Relaxed) < DEVICES as u64 {
            if t.elapsed() > Duration::from_secs(5) {
                return Err("server never accepted the dials".into());
            }
            std::thread::yield_now();
        }
        samples.push(t.elapsed().as_secs_f64());
        drop(conns);
        server.shutdown();
    }
    Ok(median(&samples))
}

pub fn untraced(args: &Args, report: &mut Report) {
    let setup = match setup_s(args.seed) {
        Ok(s) => s,
        Err(e) => return report.fail(format!("live setup: {e}")),
    };
    let secs = args.seconds / SESSIONS as f64;
    let (mut goodput, mut p50, mut cpu, mut rss) = (Vec::new(), Vec::new(), Vec::new(), Vec::new());
    let mut samples = 0;
    let mut per_session_rss = true;
    for k in 0..SESSIONS {
        per_session_rss &= sys::reset_peak_rss();
        let run = match run(derive_seed(args.seed, k), secs, &Telemetry::disabled()) {
            Ok(r) => r,
            Err(e) => return report.fail(format!("live session {k}: {e}")),
        };
        let (latency, successes) = account(report, &run);
        samples += latency.count();
        goodput.push(successes as f64 / run.summary.elapsed.as_secs_f64());
        p50.push(interpolated_percentile(&latency, 0.5));
        cpu.push(ratio(run.process_cpu_ms, successes as f64 / 1_000.0));
        rss.push(sys::peak_rss_mib());
    }
    report.set(
        "setup_s",
        setup,
        format!("server start + dials accepted, median of {SETUP_SAMPLES}"),
    );
    // The server reads a connection until it would block, so a stall
    // of its thread leaves a backlog in its read buffer; one stall can
    // set a whole run's peak. Each session's own peak, and their median,
    // keeps that from deciding the figure.
    if per_session_rss {
        report.set(
            "peak_rss_mib",
            median(&rss),
            format!(
                "VmHWM per session (reset through /proc/self/clear_refs), median of {SESSIONS}"
            ),
        );
    } else {
        report.set(
            "peak_rss_mib",
            sys::peak_rss_mib(),
            "VmHWM of the run (no per-session reset here)",
        );
    }
    report.set(
        "throughput_per_s",
        median(&goodput),
        format!(
            "offloads answered within the deadline per wall-second of a client run, \
             median of {SESSIONS} sessions of {secs:.1} s"
        ),
    );
    report.set(
        "latency_p50_ms",
        median(&p50),
        format!("offload round trip, median of {SESSIONS} session p50s ({samples} samples)"),
    );
    report.set(
        "cpu_ms_per_1k",
        median(&cpu),
        format!(
            "CPU of the client and server threads per 1000 successful offloads, \
             median of {SESSIONS} sessions"
        ),
    );
}

pub fn traced_run(args: &Args, report: &mut Report) {
    // Two sessions: one plain, one with telemetry on.
    let secs = args.seconds / 2.0;
    let plain = match run(derive_seed(args.seed, 0), secs, &Telemetry::disabled()) {
        Ok(r) => r,
        Err(e) => return report.fail(format!("live run: {e}")),
    };
    let (latency, successes) = account(report, &plain);
    let (on, _) = traced(|t| run(derive_seed(args.seed, 0), secs, t));
    let on = match on {
        Ok(r) => r,
        Err(e) => return report.fail(format!("live traced run: {e}")),
    };
    let (_, successes_on) = account(report, &on);

    let s = &plain.server;
    let devices = &plain.summary.devices;
    let sum =
        |f: &dyn Fn(&ff_reactor::ReactorDeviceSummary) -> u64| devices.iter().map(f).sum::<u64>();
    let offloads = sum(&|d| d.offloaded);
    let per_1k = successes as f64 / 1_000.0;
    let mean_batch = ratio(s.completions as f64, s.batches as f64);
    let cfg = server_config(args.seed);
    let floor_ms = (cfg.batch_base.as_secs_f64() + cfg.per_frame.as_secs_f64() * mean_batch) * 1e3;
    let p50 = interpolated_percentile(&latency, 0.5);
    let frame_bytes = StreamConfig::default().compression.mean_frame_bytes();

    report.set("reactor.requests", s.requests as f64, "server");
    report.set("reactor.completions", s.completions as f64, "server");
    report.set("reactor.rejections", s.rejections as f64, "server");
    report.set("reactor.batches", s.batches as f64, "server");
    report.set("reactor.mean_batch", mean_batch, "completions per batch");
    report.set(
        "reactor.server_ready_events",
        s.ready_events as f64,
        "server epoll",
    );
    report.set(
        "reactor.client_ready_events",
        plain.summary.ready_events as f64,
        "client epoll",
    );
    report.set(
        "reactor.ready_per_offload",
        ratio(
            (s.ready_events + plain.summary.ready_events) as f64,
            offloads as f64,
        ),
        "readiness events per offload attempt, both loops",
    );
    report.set(
        "reactor.coalesced_writes",
        s.coalesced_writes as f64,
        "server",
    );
    report.set("reactor.writer_drops", s.writer_drops as f64, "server");
    report.set(
        "reactor.late_backpressure",
        sum(&|d| d.late_backpressure) as f64,
        "client",
    );
    report.set(
        "reactor.paced_drops",
        sum(&|d| d.paced_drops) as f64,
        "client",
    );
    report.set(
        "reactor.reconnects",
        sum(&|d| d.reconnects) as f64,
        "client",
    );
    report.set(
        "reactor.miss_share",
        ratio(sum(&|d| d.timeouts) as f64, offloads as f64),
        "timeouts (instant failures included) ÷ offload attempts",
    );
    report.set(
        "reactor.server_cpu_ms_per_1k",
        ratio(plain.server_cpu_ms, per_1k),
        format!("thread {SERVER_THREAD}"),
    );
    report.set(
        "reactor.client_cpu_ms_per_1k",
        ratio(plain.client_cpu_ms, per_1k),
        "client thread",
    );
    report.set(
        "reactor.rtt_floor_ms",
        floor_ms,
        "batch_base + per_frame × mean_batch",
    );
    report.set(
        "reactor.rtt_over_floor_p50_ms",
        p50 - floor_ms,
        "p50 round trip above the floor",
    );
    let n = latency.count();
    let tail = match supported_tail(n) {
        Some(q) if q >= 0.99 => format!("{n} samples, {} beyond", n / 100),
        _ => format!("only {n} samples: fewer than 10 beyond the p99"),
    };
    report.set(
        "reactor.rtt_p99_ms",
        interpolated_percentile(&latency, 0.99),
        tail,
    );
    let (encode, decode, wire) = layers::codec_ns(frame_bytes as usize);
    report.set(
        "reactor.encode_ns",
        encode,
        format!("encode_request_into, {frame_bytes} B"),
    );
    report.set(
        "reactor.decode_ns",
        decode,
        format!("decode_frame, {frame_bytes} B"),
    );
    report.set(
        "reactor.wire_bytes_per_offload",
        wire,
        "request + response frames",
    );
    let depth = (DEVICES as f64 * FS * 0.25) as usize;
    report.set(
        "reactor.timer_ns",
        layers::timer_ns(depth, 250_000),
        format!("DeadlineWheel schedule + pop_due at {depth} pending"),
    );
    report.set(
        "reactor.gen_shortfall",
        gen_shortfall(&plain),
        "1 − captured ÷ scheduled",
    );

    let mut totals = layers::DeviceTotals::default();
    for d in devices {
        let records = d.qos.records();
        totals.add(
            d.frames,
            d.offloaded,
            d.successes,
            records,
            TICK.as_secs_f64(),
        );
    }
    let rtt = SimDuration::from_secs_f64(p50 / 1e3);
    totals.report(report, FS, SimDuration::from_millis(250), rtt);
    report.not_exercised(
        "device.run_setup_ms",
        "the live tier does not call run_experiment",
    );

    let cost = |r: &LiveRun, ok: u64| ratio(r.process_cpu_ms, ok as f64);
    report.set(
        "telemetry.overhead_share",
        (cost(&on, successes_on) - cost(&plain, successes)) / cost(&plain, successes),
        "CPU per successful offload with telemetry on vs off (wall is fixed by the camera)",
    );
    report.layer_not_exercised("sim.", "the reactor has no DES event queue");
    report.layer_not_exercised("shard.", "no sharded engine");
    report.layer_not_exercised("net.", "the pacer stands in for the link model");
    report.layer_not_exercised("server.", "the reactor batches with its own server loop");
    report.layer_not_exercised("sweep.", "no sweep executor");
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn interpolation_stays_inside_the_bucket() {
        let mut h = LogHistogram::for_latency_ms();
        for i in 0..1_000 {
            h.record(1.0 + i as f64 * 1e-4);
        }
        let p = interpolated_percentile(&h, 0.5);
        let coarse = h.percentile(0.5).unwrap();
        assert!((p - coarse).abs() / coarse < 0.02, "{p} vs {coarse}");
        assert!((1.0..=1.1).contains(&p));
    }

    #[test]
    fn different_seeds_give_different_inputs_that_both_pass() {
        let (a, b) = (
            client_config(1, 1.0, &Telemetry::disabled()),
            client_config(2, 1.0, &Telemetry::disabled()),
        );
        assert_ne!(a.seed, b.seed);
        assert_ne!(server_config(1).chaos_seed, server_config(2).chaos_seed);
        for seed in [1, 2] {
            let run = run(seed, 1.5, &Telemetry::disabled()).expect("loopback run");
            let mut report = Report::default();
            account(&mut report, &run);
            assert!(report.correct(), "{:?}", report.errors);
            assert!(report.attempted > 0);
        }
    }
}
