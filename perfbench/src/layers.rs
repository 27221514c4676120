//! Per-layer microbenchmarks: each times one layer's public function on
//! the inputs a workload feeds it (same depth, frame size, rate and
//! conditions), so a regression can be pinned to its layer.

use crate::report::Report;
use crate::stats::{median, ratio, time_ns_per_op};
use ff_core::{Controller, FrameFeedback, Measurement};
use ff_device::{run_experiment, ExperimentConfig, FrameSplitter, OffloadTracker};
use ff_metrics::QosRecord;
use ff_models::ModelKind;
use ff_net::{Link, LinkConfig, NetworkConditions};
use ff_reactor::{decode_frame, encode_request_into, encode_response_into, DeadlineWheel};
use ff_server::{BatchOutput, Request, ServerTier, TenantId, TierConfig, TierSubmit};
use ff_sim::{run_phased, EventQueue, QueueBackend, RngFactory, SimDuration, SimTime};
use std::cmp::Reverse;
use std::collections::BinaryHeap;
use std::hint::black_box;
use std::time::{Duration, Instant};

/// Time budget of one microbenchmark.
const BUDGET: Duration = Duration::from_millis(150);

/// A cheap deterministic stream of offsets for the queue benchmarks
/// (xorshift64*), so the measured cost is the queue's, not an RNG's.
struct Offsets(u64);

impl Offsets {
    fn next_below(&mut self, bound: u64) -> u64 {
        self.0 ^= self.0 >> 12;
        self.0 ^= self.0 << 25;
        self.0 ^= self.0 >> 27;
        self.0.wrapping_mul(0x2545_f491_4f6c_dd1d) % bound
    }
}

/// One push+pop pair on the default event queue held at `depth` pending
/// events, with event times spread over `horizon_us` (the hold model).
pub fn queue_op_ns(depth: usize, horizon_us: u64) -> f64 {
    let mut q: EventQueue<u64> = EventQueue::with_backend(QueueBackend::default());
    let mut off = Offsets(0x9e37_79b9_7f4a_7c15);
    for i in 0..depth as u64 {
        q.push(SimTime::from_micros(off.next_below(horizon_us)), i);
    }
    let mut now = SimTime::ZERO;
    time_ns_per_op(BUDGET, 4096, |i| {
        q.push(
            now + SimDuration::from_micros(1 + off.next_below(horizon_us)),
            i,
        );
        let (at, e) = q.pop().expect("queue holds the event just pushed");
        now = at;
        black_box(e);
    })
}

/// Wall time of one round of `ff_sim::run_phased` with `workers` no-op
/// workers, in microseconds: the barrier cost a sharded fleet pays per
/// conservative window.
pub fn phased_round_us(workers: usize) -> f64 {
    let rounds = 2_000u64;
    let samples: Vec<f64> = (0..5)
        .map(|_| {
            let t = Instant::now();
            let states = run_phased(
                vec![0u64; workers],
                rounds,
                |r| {
                    black_box(r);
                },
                |_, r, s: &mut u64| {
                    *s = s.wrapping_add(black_box(r));
                },
            );
            black_box(states);
            t.elapsed().as_secs_f64() * 1e6 / rounds as f64
        })
        .collect();
    median(&samples)
}

/// One `FrameSplitter::route` call at the given offload target.
pub fn route_ns(po_target: f64, fs: f64) -> f64 {
    let mut s = FrameSplitter::new();
    time_ns_per_op(BUDGET, 8192, |_| {
        black_box(s.route(black_box(po_target), black_box(fs)));
    })
}

/// One offload's tracker life cycle: sent, arrived at the server, and
/// answered `rtt` later, with `in_flight` other offloads outstanding.
pub fn tracker_cycle_ns(deadline: SimDuration, rtt: SimDuration, in_flight: u64) -> f64 {
    let mut t = OffloadTracker::new(deadline);
    for tag in 0..in_flight {
        t.sent(u64::MAX - tag, SimTime::ZERO);
    }
    time_ns_per_op(BUDGET, 4096, |i| {
        let at = SimTime::from_micros(i * 1_000);
        t.sent(i, at);
        t.arrived_at_server(i, at + rtt / 2);
        black_box(t.response_arrived(i, at + rtt));
    })
}

/// `run_experiment` on a one-frame copy of `config`: the fixed cost
/// every sweep cell pays before its first simulated event, in ms.
pub fn run_setup_ms(config: &ExperimentConfig) -> f64 {
    let mut one = config.clone();
    one.stream.total_frames = 1;
    let samples: Vec<f64> = (0..41)
        .map(|_| {
            let t = Instant::now();
            black_box(run_experiment(one.clone(), Box::new(FrameFeedback::new())));
            t.elapsed().as_secs_f64() * 1e3
        })
        .collect();
    median(&samples)
}

/// One `Controller::update` of the paper's controller at source rate
/// `fs`, on measurements that wander around the set point.
pub fn update_ns(fs: f64) -> f64 {
    let mut c = FrameFeedback::new();
    time_ns_per_op(BUDGET, 4096, |i| {
        let wobble = (i % 7) as f64 / 7.0;
        let m = Measurement {
            fs,
            po_achieved: fs * (0.4 + 0.2 * wobble),
            pl_achieved: fs * 0.3,
            timeout_rate: fs * 0.02 * wobble,
            heartbeat_ok: true,
            dt_secs: 1.0,
        };
        black_box(c.update(black_box(&m)));
    })
}

/// One `Link::send` of a `bytes`-byte frame at `fps`, averaged over the
/// given network conditions (one link per condition).
pub fn send_ns(conditions: &[NetworkConditions], bytes: u64, fps: f64) -> f64 {
    let gap = SimDuration::from_secs_f64(1.0 / fps);
    let per: Vec<f64> = conditions
        .iter()
        .enumerate()
        .map(|(k, &c)| {
            let rng = RngFactory::new(k as u64).stream("perfbench-link");
            let mut link = Link::new(LinkConfig::default(), c, rng);
            let mut now = SimTime::ZERO;
            time_ns_per_op(BUDGET / conditions.len() as u32, 1024, |_| {
                now += gap;
                black_box(link.send(now, bytes));
            })
        })
        .collect();
    per.iter().sum::<f64>() / per.len().max(1) as f64
}

/// Submit and batch formation on a tier: requests from `tenants`
/// devices arrive every `1 / rate_rps` simulated seconds; due batch
/// completions run before each arrival. Time per request.
pub fn tier_submit_ns(config: &TierConfig, rate_rps: f64, tenants: u32) -> f64 {
    let mut tier = ServerTier::new(config);
    let mut rng = RngFactory::new(7).stream("perfbench-routing");
    let mut out = BatchOutput::default();
    let mut due: BinaryHeap<Reverse<(SimTime, usize)>> = BinaryHeap::new();
    let gap = SimDuration::from_secs_f64(1.0 / rate_rps.max(1.0));
    time_ns_per_op(BUDGET, 4096, |i| {
        let now = SimTime::ZERO + gap.mul_f64(i as f64);
        while let Some(&Reverse((at, server))) = due.peek() {
            if at > now {
                break;
            }
            due.pop();
            tier.batch_done_into(server, at, &mut out);
            if let Some(next) = out.next_done {
                due.push(Reverse((next, server)));
            }
        }
        let request = Request {
            tenant: TenantId((i % tenants as u64) as u32),
            model: ModelKind::MobileNetV3Small,
            submitted_at: now,
            tag: i,
        };
        if let TierSubmit::BatchStarted { server, done_at } =
            tier.submit(now, request, true, &mut rng)
        {
            due.push(Reverse((done_at, server)));
        }
    })
}

/// `encode_request_into` and `decode_frame` of one `bytes`-byte
/// request, each in ns, plus the wire bytes of one request and its
/// response.
pub fn codec_ns(bytes: usize) -> (f64, f64, f64) {
    let payload = vec![0xa5u8; bytes];
    let mut buf = Vec::with_capacity(bytes + 32);
    let encode = time_ns_per_op(BUDGET, 256, |i| {
        buf.clear();
        encode_request_into(i, black_box(&payload), &mut buf);
        black_box(&buf);
    });
    buf.clear();
    encode_request_into(1, &payload, &mut buf);
    let request_bytes = buf.len();
    let decode = time_ns_per_op(BUDGET, 256, |_| {
        black_box(decode_frame(black_box(&buf)).expect("request decodes"));
    });
    let mut reply = Vec::new();
    encode_response_into(1, true, &mut reply);
    (encode, decode, (request_bytes + reply.len()) as f64)
}

/// One `DeadlineWheel` schedule + `pop_due` pair with `depth` pending
/// timers spread over `horizon_us`.
pub fn timer_ns(depth: usize, horizon_us: u64) -> f64 {
    let mut w: DeadlineWheel<u64> = DeadlineWheel::new();
    let mut off = Offsets(0x2545_f491_4f6c_dd1d);
    for i in 0..depth as u64 {
        w.schedule(SimTime::from_micros(1 + off.next_below(horizon_us)), i);
    }
    let mut now = SimTime::ZERO;
    time_ns_per_op(BUDGET, 4096, |i| {
        w.schedule(
            now + SimDuration::from_micros(1 + off.next_below(horizon_us)),
            i,
        );
        // Advance the clock to the earliest timer and fire it.
        if let Some(at) = w.next_deadline() {
            now = now.max(at);
        }
        black_box(w.pop_due(now));
    })
}

/// What a workload's devices did, summed over devices, cells or runs.
#[derive(Debug, Default)]
pub struct DeviceTotals {
    frames: u64,
    offloads: u64,
    successes: u64,
    timeouts_network: f64,
    timeouts_load: f64,
    po_target_sum: f64,
    updates: u64,
}

impl DeviceTotals {
    /// Add one device's counters and its QoS records, whose rates each
    /// cover one controller period of `period_s` seconds.
    pub fn add(
        &mut self,
        frames: u64,
        offloads: u64,
        successes: u64,
        records: &[QosRecord],
        period_s: f64,
    ) {
        self.frames += frames;
        self.offloads += offloads;
        self.successes += successes;
        for r in records {
            self.timeouts_network += r.timeouts_network * period_s;
            self.timeouts_load += r.timeouts_load * period_s;
            self.po_target_sum += r.po_target;
            self.updates += 1;
        }
    }

    /// Report the `device.` counters and the `device.` and `core.`
    /// microbenchmarks at the workload's rate `fs`, deadline and typical
    /// offload round trip `rtt`.
    pub fn report(&self, report: &mut Report, fs: f64, deadline: SimDuration, rtt: SimDuration) {
        let po_target = ratio(self.po_target_sum, self.updates as f64).min(fs);
        report.set("device.frames", self.frames as f64, "captured");
        report.set("device.offloads", self.offloads as f64, "offload attempts");
        report.set(
            "device.offload_success_share",
            ratio(self.successes as f64, self.offloads as f64),
            "successes ÷ offloads",
        );
        report.set(
            "device.timeouts_network",
            self.timeouts_network.round(),
            "T_n summed over ticks",
        );
        report.set(
            "device.timeouts_load",
            self.timeouts_load.round(),
            "T_l summed over ticks",
        );
        report.set(
            "device.route_ns",
            route_ns(po_target, fs),
            format!("FrameSplitter::route at the mean target {po_target:.1} of {fs} fps"),
        );
        let in_flight = (po_target * rtt.as_secs_f64()).ceil() as u64;
        report.set(
            "device.tracker_cycle_ns",
            tracker_cycle_ns(deadline, rtt, in_flight),
            format!("sent→arrived→response with {in_flight} in flight"),
        );
        report.set("core.updates", self.updates as f64, "controller ticks");
        report.set("core.update_ns", update_ns(fs), "FrameFeedback::update");
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn microbenchmarks_measure_positive_times() {
        assert!(queue_op_ns(100, 1_000_000) > 0.0);
        assert!(route_ns(15.0, 30.0) > 0.0);
        assert!(timer_ns(100, 250_000) > 0.0);
        let (enc, dec, wire) = codec_ns(30_959);
        assert!(enc > 0.0 && dec > 0.0);
        assert!(wire > 30_959.0);
    }
}
