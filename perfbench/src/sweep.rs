//! `des-sweep`: the paper's evaluation grid through `run_sweep`.
//!
//! Five scenarios (ideal network, Table V, Table VI background load,
//! Table V × VI combined, Fig. 2 loss injection) crossed with the four
//! §IV-B controllers and [`SEEDS_PER_GRID`] seeds, run by 2 workers with
//! no cache. One operation is one grid cell; grids repeat on fresh seeds
//! until the run's time is up.

use crate::checks::{check_digest, check_experiment, experiment_into, sweep_digest, Fnv};
use crate::layers;
use crate::observe::traced;
use crate::report::Report;
use crate::stats::{max, median, ratio};
use crate::{derive_seed, goldens, sys, Args};
use ff_device::{
    run_experiment, run_experiment_with_telemetry, ExperimentConfig, ExperimentResult,
};
use ff_models::GpuProfile;
use ff_server::{OverflowPolicy, TierConfig};
use ff_sim::SimDuration;
use ff_sweep::{run_sweep, Cell, ControllerSpec, SweepOptions, SweepReport, SweepSpec};
use ff_telemetry::Telemetry;
use ff_workload::{fig2_loss_injection, table_v, table_vi};
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::time::Instant;

const SEEDS_PER_GRID: u64 = 8;
const WORKERS: usize = 2;
/// Set-ups timed per run; one takes a few milliseconds.
const SETUP_SAMPLES: u64 = 31;

/// The five evaluation scenarios, at full paper length.
fn scenarios() -> Vec<(String, ExperimentConfig)> {
    let base = ExperimentConfig::default;
    let mut v = base();
    v.network = table_v();
    let mut vi = base();
    vi.background = table_vi();
    let mut both = v.clone();
    both.background = table_vi();
    let mut loss = base();
    loss.network = fig2_loss_injection();
    vec![
        ("ideal".into(), base()),
        ("table-v".into(), v),
        ("table-vi".into(), vi),
        ("table-v-x-vi".into(), both),
        ("fig2-loss".into(), loss),
    ]
}

/// Grid `k` of a run: the scenarios × controllers on seeds derived from
/// the run seed and `k`, with every cell cut to `frames` frames when set.
fn grid(seed: u64, k: u64, frames: Option<u64>) -> SweepSpec {
    let grid_seed = derive_seed(seed, k);
    let mut scenarios = scenarios();
    if let Some(frames) = frames {
        for (_, c) in &mut scenarios {
            c.stream.total_frames = frames;
        }
    }
    SweepSpec {
        name: format!("des-sweep-{k}"),
        scenarios,
        seeds: (0..SEEDS_PER_GRID)
            .map(|j| derive_seed(grid_seed, j))
            .collect(),
        routings: Vec::new(),
        admissions: Vec::new(),
        controllers: ControllerSpec::lineup(),
    }
}

fn options(telemetry: &Telemetry) -> SweepOptions {
    SweepOptions {
        workers: WORKERS,
        cache_dir: None,
        telemetry: telemetry.clone(),
    }
}

/// Run and check one grid: conservation per cell, and the recorded
/// digest when this is grid 0 of a seed with a golden. Returns the
/// grid's wall time and report.
fn checked_grid(
    report: &mut Report,
    args: &Args,
    k: u64,
    spec: &SweepSpec,
    telemetry: &Telemetry,
) -> Option<(f64, SweepReport)> {
    let cells = spec.cell_count() as u64;
    report.attempted += cells;
    let t = Instant::now();
    let Ok(out) = catch_unwind(AssertUnwindSafe(|| run_sweep(spec, &options(telemetry)))) else {
        report.failed += cells;
        report
            .errors
            .push(format!("des-sweep grid {k}: run_sweep panicked"));
        return None;
    };
    let wall = t.elapsed().as_secs_f64();
    let mut ok = true;
    for c in &out.cells {
        let what = format!("{}/{}/{}", c.key.scenario, c.key.seed, c.key.controller);
        if let Err(e) = check_experiment(&what, &c.result) {
            report.fail(format!("des-sweep grid {k}: {e}"));
            ok = false;
        }
    }
    if k == 0 {
        if let Some(want) = goldens::lookup(goldens::SWEEP, args.seed) {
            if let Err(e) = check_digest("des-sweep", sweep_digest(&out), want) {
                report.fail(e);
                ok = false;
            }
        }
    }
    ok.then_some((wall, out))
}

/// Set-up time: build the grid and run it with every cell cut to one
/// frame — the per-grid and per-cell fixed costs — median of several.
fn setup_s(seed: u64) -> f64 {
    let samples: Vec<f64> = (0..SETUP_SAMPLES)
        .map(|k| {
            let t = Instant::now();
            let spec = grid(seed, 1_000 + k, Some(1));
            std::hint::black_box(run_sweep(&spec, &options(&Telemetry::disabled())));
            t.elapsed().as_secs_f64()
        })
        .collect();
    median(&samples)
}

/// Grid 0's digest for `seed` (used to record goldens).
pub fn digest(seed: u64) -> u64 {
    sweep_digest(&run_sweep(
        &grid(seed, 0, None),
        &options(&Telemetry::disabled()),
    ))
}

pub fn untraced(args: &Args, report: &mut Report) {
    let setup = setup_s(args.seed);
    let off = Telemetry::disabled();
    // One untimed grid first: worker threads, allocator arenas and
    // caches warm up before anything is measured.
    let warm = grid(args.seed, u64::MAX, None);
    std::hint::black_box(run_sweep(&warm, &options(&off)));
    let cpu0 = sys::process_cpu_ms();
    let start = Instant::now();
    let (mut walls, mut rates) = (Vec::new(), Vec::new());
    let mut cells = 0.0;
    let mut k = 0;
    while k == 0 || start.elapsed().as_secs_f64() < args.seconds {
        let spec = grid(args.seed, k, None);
        if let Some((wall, out)) = checked_grid(report, args, k, &spec, &off) {
            let n = out.cells.len() as f64;
            walls.push(wall * 1e3);
            rates.push(n / wall);
            cells += n;
        }
        k += 1;
    }
    let cpu = sys::process_cpu_ms() - cpu0;
    let n = walls.len();
    let per_grid = grid(args.seed, 0, None).cell_count();
    report.set(
        "setup_s",
        setup,
        format!("one-frame grid, median of {SETUP_SAMPLES}"),
    );
    report.set("peak_rss_mib", sys::peak_rss_mib(), "VmHWM");
    report.set(
        "throughput_per_s",
        median(&rates),
        format!("grid cells per wall-second, median of {n} grids of {per_grid}"),
    );
    report.set(
        "latency_p50_ms",
        median(&walls),
        format!("wall time of one {per_grid}-cell grid, median of {n}"),
    );
    report.set(
        "cpu_ms_per_1k",
        ratio(cpu, cells / 1_000.0),
        format!("process CPU per 1000 cells ({cpu:.0} ms total)"),
    );
}

pub fn traced_run(args: &Args, report: &mut Report) {
    let spec = grid(args.seed, 0, None);
    let off = Telemetry::disabled();
    let Some((wall, out)) = checked_grid(report, args, 0, &spec, &off) else {
        return;
    };
    let want = sweep_digest(&out);
    // The executor's own telemetry (cells done, steals).
    let (_, executor_seen) = traced(|t| run_sweep(&spec, &options(t)));

    // Parallel grids and serial passes over the same cells, interleaved
    // so a slow stretch of the host hits both sides; every pass must
    // reproduce the sweep's digest.
    let cells = spec.cells();
    let (mut parallel, mut serial, mut serial_on) = (vec![wall], Vec::new(), Vec::new());
    let mut cell_ms = Vec::new();
    let mut seen = SerialPass::default();
    for rep in 0..3 {
        if rep > 0 {
            let t = Instant::now();
            let again = run_sweep(&spec, &options(&off));
            parallel.push(t.elapsed().as_secs_f64());
            report.attempted += 1;
            if let Err(e) = check_digest("des-sweep parallel twin", sweep_digest(&again), want) {
                report.fail(e);
            }
        }
        for telemetry_on in [false, true] {
            let pass = serial_pass(&cells, telemetry_on);
            report.attempted += 1;
            let what = if telemetry_on {
                "serial telemetry on"
            } else {
                "serial"
            };
            if let Err(e) = check_digest(&format!("des-sweep {what} twin"), pass.digest, want) {
                report.fail(e);
            }
            if telemetry_on {
                serial_on.push(pass.wall);
                seen = pass;
            } else {
                serial.push(pass.wall);
                cell_ms.extend(pass.cell_ms);
            }
        }
    }
    let (wall, serial_wall, traced_wall) = (median(&parallel), median(&serial), median(&serial_on));
    let SerialPass {
        events,
        depth,
        server_q,
        ..
    } = seen;

    let sim_s: f64 = cells
        .iter()
        .map(|c| (c.config.stream.stream_duration() + c.config.deadline).as_secs_f64())
        .sum();
    let depth_p50 = median(&depth);
    report.set(
        "sim.events",
        events,
        format!("summed over {} cells", cells.len()),
    );
    report.set(
        "sim.events_per_sim_s",
        events / sim_s,
        "per simulated second of a cell",
    );
    report.set(
        "sim.queue_depth_p50",
        depth_p50,
        format!("pending events, {} ticks", depth.len()),
    );
    report.set("sim.queue_depth_max", max(&depth), "pending events");
    report.set(
        "sim.queue_op_ns",
        layers::queue_op_ns(depth_p50 as usize, 1_000_000),
        "push+pop at the p50 depth",
    );
    for name in ["sim.phased_rounds", "sim.round_us", "sim.barrier_share"] {
        report.not_exercised(name, "single-device runs are not phased");
    }
    report.layer_not_exercised("shard.", "the bypass case: no shards");

    let results: Vec<&ExperimentResult> = out.cells.iter().map(|c| &c.result).collect();
    device_layers(report, &results);
    let conditions: Vec<_> = cells
        .iter()
        .flat_map(|c| c.config.network.steps().iter().map(|&(_, n)| n))
        .fold(Vec::new(), |mut v, n| {
            if !v.contains(&n) {
                v.push(n);
            }
            v
        });
    let base = ExperimentConfig::default();
    report.set(
        "net.send_ns",
        layers::send_ns(
            &conditions,
            base.stream.compression.mean_frame_bytes(),
            base.stream.fps,
        ),
        format!(
            "Link::send, mean over the grid's {} network conditions",
            conditions.len()
        ),
    );

    let sum =
        |f: &dyn Fn(&ExperimentResult) -> u64| results.iter().map(|r| f(r)).sum::<u64>() as f64;
    let requests = sum(&|r| r.server_stats.requests_received);
    let batches = sum(&|r| r.server_stats.batches_executed);
    report.set("server.requests", requests, "summed over cells");
    report.set(
        "server.completions",
        sum(&|r| r.server_stats.completions),
        "summed over cells",
    );
    report.set(
        "server.rejections",
        sum(&|r| r.server_stats.rejections),
        "summed over cells",
    );
    report.set(
        "server.admission_rejections",
        sum(&|r| r.admission_rejections),
        "AdmitAll",
    );
    report.set("server.batches", batches, "summed over cells");
    report.set(
        "server.mean_batch",
        ratio(sum(&|r| r.server_stats.batched_frames), batches),
        "frames per batch",
    );
    report.set(
        "server.queue_depth_p50",
        median(&server_q),
        format!("{} ticks", server_q.len()),
    );
    let tier =
        cells[0].config.tier.clone().unwrap_or_else(|| {
            TierConfig::single(GpuProfile::default(), OverflowPolicy::default())
        });
    report.set(
        "server.tier_submit_ns",
        layers::tier_submit_ns(&tier, requests / sim_s, 3),
        "single-server tier at the grid's mean request rate",
    );

    report.set("sweep.cells", cells.len() as f64, "one grid");
    report.set(
        "sweep.steals",
        executor_seen.counter_sum("sweep/worker/", "steals") as f64,
        "telemetry, one grid",
    );
    report.set(
        "sweep.cell_ms_p50",
        median(&cell_ms),
        "serial, per cell, 3 passes",
    );
    report.set(
        "sweep.cell_ms_max",
        max(&cell_ms),
        "serial, per cell, 3 passes",
    );
    report.set(
        "sweep.parallel_eff",
        serial_wall / (WORKERS as f64 * wall),
        format!("serial wall ÷ ({WORKERS} × parallel wall), medians of 3"),
    );
    report.set(
        "telemetry.overhead_share",
        (traced_wall - serial_wall) / serial_wall,
        "serial grid wall with per-cell telemetry on vs off, medians of 3",
    );
    report.layer_not_exercised("reactor.", "no live tier");
}

/// One serial pass over a grid's cells, each timed; with telemetry on,
/// also what each cell's engine and server reported.
#[derive(Default)]
struct SerialPass {
    wall: f64,
    digest: u64,
    cell_ms: Vec<f64>,
    events: f64,
    depth: Vec<f64>,
    server_q: Vec<f64>,
}

fn serial_pass(cells: &[Cell], telemetry_on: bool) -> SerialPass {
    let mut pass = SerialPass::default();
    let mut h = Fnv::default();
    h.u64(cells.len() as u64);
    let start = Instant::now();
    for c in cells {
        let t = Instant::now();
        let r = if telemetry_on {
            let (r, seen) = traced(|tel| {
                run_experiment_with_telemetry(c.config.clone(), c.controller.build(), tel)
            });
            let events = seen.gauge("engine", "events_handled");
            pass.events += events.last().copied().unwrap_or(0.0);
            pass.depth
                .extend_from_slice(seen.gauge("engine", "pending_events"));
            pass.server_q
                .extend_from_slice(seen.gauge("server", "server_queue_depth"));
            r
        } else {
            run_experiment(c.config.clone(), c.controller.build())
        };
        pass.cell_ms.push(t.elapsed().as_secs_f64() * 1e3);
        h.str(&c.key.scenario);
        h.u64(c.key.seed);
        h.str(&c.key.controller);
        experiment_into(&mut h, &r);
    }
    pass.wall = start.elapsed().as_secs_f64();
    pass.digest = h.finish();
    pass
}

/// The `device.`, `core.` and `net.` metrics of a set of cells.
fn device_layers(report: &mut Report, results: &[&ExperimentResult]) {
    let base = ExperimentConfig::default();
    let period = base.controller_period.as_secs_f64();
    let mut totals = layers::DeviceTotals::default();
    let (mut sent, mut lost, mut rtt_p50s) = (0u64, 0u64, Vec::new());
    for r in results {
        let records = r.qos.records();
        totals.add(
            r.frames_generated,
            r.frames_offloaded,
            r.offload_successes,
            records,
            period,
        );
        sent += r.link_stats.packets_sent;
        lost += r.link_stats.packets_lost;
        rtt_p50s.extend(r.offload_latency.as_ref().map(|l| l.p50_ms));
    }
    let rtt = SimDuration::from_secs_f64(median(&rtt_p50s) / 1e3);
    totals.report(report, base.stream.fps, base.deadline, rtt);
    report.set(
        "device.run_setup_ms",
        layers::run_setup_ms(&base),
        "one-frame run_experiment, median of 41",
    );
    report.set("net.packets_sent", sent as f64, "summed over cells");
    report.set("net.packets_lost", lost as f64, "summed over cells");
    report.set(
        "net.retx_share",
        ratio(lost as f64, sent as f64),
        "lost (hence resent) packets ÷ packets sent",
    );
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn different_seeds_give_different_grids_that_both_pass() {
        let (a, b) = (grid(1, 0, Some(300)), grid(2, 0, Some(300)));
        assert_ne!(a.seeds, b.seeds);
        assert_eq!(a.cell_count(), 5 * 4 * SEEDS_PER_GRID as usize);
        let digests: Vec<u64> = [a, b]
            .iter()
            .map(|spec| {
                let out = run_sweep(spec, &options(&Telemetry::disabled()));
                for c in &out.cells {
                    check_experiment(&c.key.scenario, &c.result).expect("conservation holds");
                }
                sweep_digest(&out)
            })
            .collect();
        assert_ne!(
            digests[0], digests[1],
            "different inputs, different results"
        );
    }
}
