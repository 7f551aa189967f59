//! `serve-sim`: open loop in simulated time. Seeded Poisson arrivals at
//! fixed rates, one fault-burst phase and a capacity search go through
//! `ServeRuntime` serving candidate 2 on the simulated RTX A5500, with the
//! IOS schedule planned at the batch cap. No host tensor code runs.
//!
//! Every phase runs on a fresh runtime whose arrivals start after the
//! simulated context's one-time set-up (`cuLibraryLoadData` and the weight
//! upload), so no request queues behind the cold start, and no simulator
//! trace outlives its phase.

use crate::host;
use crate::report::{self, Outcome};
use crate::spans::Spans;
use crate::Args;
use dcd_core::RetryPolicy;
use dcd_gpusim::{DeviceSpec, FaultPlan, Gpu};
use dcd_ios::{
    ios_schedule, lower_sppnet, sequential_schedule, Graph, IosOptions, Schedule, StageCostModel,
};
use dcd_nn::SppNetConfig;
use dcd_serve::{
    ArrivalConfig, ArrivalProfile, BreakerConfig, BrownoutConfig, Request, ServeConfig,
    ServeReport, ServeRuntime,
};
use std::time::Instant;

/// Level-0 batch cap the runtime batches up to and IOS schedules at.
const BATCH_CAP: usize = 8;
/// Simulated length of each fixed-rate phase.
const PHASE_NS: u64 = 1_000_000_000;
/// Simulated length of each capacity probe.
const PROBE_NS: u64 = 500_000_000;
/// Per-request deadline.
const DEADLINE_NS: u64 = 20_000_000;
/// Fixed-rate phases (`low`, `mid`, `nominal`), req/s. `nominal` is about
/// two thirds of capacity.
const RATES: [f64; 3] = [500.0, 2500.0, 5000.0];
/// Fault-burst phase: rate, length, and the fault window measured from the
/// end of the cold start.
const BURST_RATE: f64 = 2000.0;
const BURST_NS: u64 = 200_000_000;
const BURST_WINDOW_NS: (u64, u64) = (50_000_000, 100_000_000);
/// Capacity: the highest rate whose simulated p99 stays within this limit
/// with nothing shed, dropped, late or unserved, bisected to `CAP_RES`.
const P99_LIMIT_NS: u64 = 5_000_000;
const CAP_LO: f64 = 1000.0;
const CAP_HI: f64 = 20_000.0;
const CAP_RES: f64 = 10.0;
/// Set-ups per run; `setup_s` is their median.
const SETUPS: usize = 9;

struct Plan {
    graph: Graph,
    primary: Schedule,
    fallback: Schedule,
    plan_ms: f64,
    sim_batch_ms: f64,
    cold_ns: u64,
}

fn plan() -> Plan {
    let t = Instant::now();
    let graph = lower_sppnet(&SppNetConfig::candidate2(), (host::PATCH, host::PATCH));
    let mut cost = StageCostModel::new(&graph, DeviceSpec::rtx_a5500(), BATCH_CAP);
    let primary = ios_schedule(&graph, &mut cost, IosOptions::default());
    let plan_ms = report::ms(t.elapsed());
    let sim_batch_ms = cost.schedule_latency(&primary) / 1e6;
    drop(cost);
    let fallback = sequential_schedule(&graph);
    let mut p = Plan {
        graph,
        primary,
        fallback,
        plan_ms,
        sim_batch_ms,
        cold_ns: 0,
    };
    p.cold_ns = cold_start_ns(&p);
    p
}

/// The chaos catalog's base tuning at batch cap 8.
fn serve_config(seed: u64) -> ServeConfig {
    ServeConfig::new()
        .with_queue_capacity(64)
        .with_batch_cap(BATCH_CAP)
        .with_batch_timeout_ns(1_000_000)
        .with_breaker(
            BreakerConfig::new()
                .with_failure_threshold(3)
                .with_open_ns(2_000_000),
        )
        .with_brownout(
            BrownoutConfig::new()
                .with_enter_pressure(0.75)
                .with_exit_pressure(0.25)
                .with_dwell_ns(5_000_000),
        )
        .with_drain_grace_ns(50_000_000)
        .with_retry(RetryPolicy::new().with_jitter_seed(seed))
}

/// One phase's outcome.
#[derive(Clone, PartialEq, Debug)]
struct Phase {
    report: ServeReport,
    records: usize,
}

fn runtime(p: &Plan, gpu: Gpu, seed: u64) -> ServeRuntime<'_> {
    ServeRuntime::new(
        &p.graph,
        p.primary.clone(),
        p.fallback.clone(),
        gpu,
        serve_config(seed),
    )
    .expect("candidate 2 fits the A5500 at the batch cap")
}

/// Simulated time before a fresh runtime can serve its first request: the
/// end of an empty load.
fn cold_start_ns(p: &Plan) -> u64 {
    runtime(p, Gpu::new(DeviceSpec::rtx_a5500()), 0)
        .run(&[])
        .end_ns
}

/// Serves one seeded Poisson phase on a fresh runtime. `faults` is a fault
/// window relative to the end of the cold start.
fn run_phase(p: &Plan, seed: u64, rate: f64, len_ns: u64, faults: Option<(u64, u64)>) -> Phase {
    let mut gpu = Gpu::new(DeviceSpec::rtx_a5500());
    if let Some((from, to)) = faults {
        gpu.set_fault_plan(FaultPlan {
            seed,
            launch_failure_rate: 0.35,
            memcpy_failure_rate: 0.2,
            fault_window_ns: Some((p.cold_ns + from, p.cold_ns + to)),
            ..FaultPlan::none()
        });
    }
    let mut rt = runtime(p, gpu, seed);
    let warm_ns = rt.run(&[]).end_ns;
    let offered: Vec<Request> = ArrivalConfig::new(seed)
        .with_profile(ArrivalProfile::Poisson { rate_per_sec: rate })
        .with_duration_ns(len_ns)
        .with_deadline_ns(DEADLINE_NS)
        .generate()
        .into_iter()
        .map(|r| Request {
            arrival_ns: r.arrival_ns + warm_ns,
            deadline_ns: r.deadline_ns + warm_ns,
            ..r
        })
        .collect();
    let report = rt.run(&offered);
    let records = rt.into_trace().records.len();
    Phase { report, records }
}

fn meets_slo(r: &ServeReport) -> bool {
    r.p99_latency_ns <= P99_LIMIT_NS
        && r.late + r.shed_capacity + r.shed_brownout + r.dropped + r.unserved == 0
}

/// Every phase of one replay, in order: the fixed rates, the fault burst,
/// then the capacity probes.
struct Pass {
    phases: Vec<Phase>,
    capacity_rps: f64,
}

impl Pass {
    fn offered(&self) -> u64 {
        self.phases.iter().map(|ph| ph.report.offered).sum()
    }

    fn rate_phase(&self, i: usize) -> &ServeReport {
        &self.phases[i].report
    }

    fn burst(&self) -> &ServeReport {
        &self.phases[RATES.len()].report
    }
}

fn replay(p: &Plan, seed: u64) -> Pass {
    let mut phases: Vec<Phase> = RATES
        .iter()
        .map(|&rate| run_phase(p, seed, rate, PHASE_NS, None))
        .collect();
    phases.push(run_phase(
        p,
        seed,
        BURST_RATE,
        BURST_NS,
        Some(BURST_WINDOW_NS),
    ));
    let (mut lo, mut hi) = (CAP_LO, CAP_HI);
    let probe = |rate: f64, phases: &mut Vec<Phase>| {
        let ph = run_phase(p, seed, rate, PROBE_NS, None);
        let ok = meets_slo(&ph.report);
        phases.push(ph);
        ok
    };
    let capacity_rps = if !probe(lo, &mut phases) {
        0.0
    } else if probe(hi, &mut phases) {
        hi
    } else {
        while hi - lo > CAP_RES {
            let mid = (lo + hi) / 2.0;
            if probe(mid, &mut phases) {
                lo = mid;
            } else {
                hi = mid;
            }
        }
        lo
    };
    Pass {
        phases,
        capacity_rps,
    }
}

/// Replays passes until `seconds` have passed, calling `after_pass` after
/// each. Every pass must balance its ledger and equal `reference`. Returns
/// each pass's wall time, seconds.
fn replay_window(
    p: &Plan,
    seed: u64,
    seconds: f64,
    reference: &Pass,
    out: &mut Outcome,
    mut after_pass: impl FnMut(),
) -> Vec<f64> {
    let start = Instant::now();
    let mut pass_s = Vec::new();
    while pass_s.is_empty() || start.elapsed().as_secs_f64() < seconds {
        let t = Instant::now();
        let pass = replay(p, seed);
        pass_s.push(t.elapsed().as_secs_f64());
        after_pass();
        out.attempted += pass.phases.len() as u64;
        for (i, ph) in pass.phases.iter().enumerate() {
            out.check(ph.report.conserved(), || {
                format!("phase {i}: ledger does not balance")
            });
        }
        out.check(pass.phases == reference.phases, || {
            "a replayed pass gave another report".into()
        });
    }
    pass_s
}

pub fn run(args: &Args) -> Outcome {
    let mut out = Outcome::default();
    // Peak memory of the first set-up, which serves every phase twice.
    // Later passes repeat the same work; over them the high-water mark only
    // creeps by allocator fragmentation.
    let mut first_rss = None;
    let mut setup = || {
        let p = plan();
        // Warm-up: two full replays. The second is the reference every
        // replay in the window must reproduce; the first must equal it.
        let first = replay(&p, args.seed);
        let reference = replay(&p, args.seed);
        let replayed = first.phases == reference.phases;
        first_rss = first_rss.or_else(report::peak_rss_mb);
        (p, reference, replayed)
    };
    let ((p, reference, replayed), setup_s) = if args.trace {
        (setup(), f64::NAN)
    } else {
        report::repeated_setup(SETUPS, setup)
    };
    out.check(replayed, || "the warm-up replays differ".into());
    let nominal = reference.rate_phase(2);
    let burst = reference.burst();
    out.check(reference.capacity_rps > 0.0, || {
        format!("no capacity: {CAP_LO} req/s misses the SLO")
    });
    out.note("serve_p99_ms", nominal.p99_latency_ns as f64 / 1e6, "ms");
    out.note("serve_capacity_rps", reference.capacity_rps, "1/s");
    out.note("serve_goodput_frac", burst.served_fraction(), "frac");

    let pass_s = replay_window(&p, args.seed, args.seconds, &reference, &mut out, || {});
    let per_pass = reference.offered() as f64;
    let replay_req_per_s = per_pass / report::median(&pass_s);
    out.note("passes", pass_s.len() as f64, "count");
    out.note("replay_req_per_s", replay_req_per_s, "1/s");

    if args.trace {
        let shed = |r: &ServeReport| {
            (r.shed_capacity + r.shed_brownout + r.dropped + r.unserved) as f64 / r.offered as f64
        };
        out.set("ios.plan_ms", p.plan_ms);
        out.set("ios.stages", p.primary.num_stages() as f64);
        out.set("ios.sim_batch_ms", p.sim_batch_ms);
        let records: usize = reference.phases.iter().map(|ph| ph.records).sum();
        out.set(
            "gpusim.records_per_req",
            records as f64 / reference.offered() as f64,
        );
        out.set(
            "serve.batch_mean",
            (nominal.served + nominal.late) as f64 / nominal.batches as f64,
        );
        out.set("serve.shed_frac.low", shed(reference.rate_phase(0)));
        out.set("serve.shed_frac.mid", shed(reference.rate_phase(1)));
        out.set("serve.shed_frac.nominal", shed(nominal));
        out.set("serve.shed_frac.burst", shed(burst));
        out.set(
            "serve.futile_frac",
            burst.failed_batches as f64 / (burst.batches + burst.failed_batches) as f64,
        );
        out.set("serve.retries", burst.health.retries as f64);
        out.set("serve.breaker_open_ms", burst.breaker_open_ns as f64 / 1e6);
        out.set("serve.cold_start_ms", p.cold_ns as f64 / 1e6);
        out.set("serve.capacity_rps", reference.capacity_rps);
        out.set("serve.goodput_frac", burst.served_fraction());

        // Traced replay, drained after every pass so the span buffers hold
        // one pass at a time.
        let (mut loop_ns, mut batch_ns, mut batches, mut dropped) = (0u64, 0u64, 0usize, 0u64);
        let mut inner = Outcome::default();
        let t = host::traced(
            &mut out,
            &mut (),
            |_| drop(replay(&p, args.seed)),
            |_| {
                replay_window(&p, args.seed, args.seconds, &reference, &mut inner, || {
                    dropped += dcd_obs::dropped_spans();
                    let spans = Spans::drain();
                    loop_ns += spans.self_ns("serve.run", |_| true);
                    batch_ns += spans.busy_ns(&["serve.batch"]);
                    batches += spans.count("serve.batch");
                })
            },
        );
        out.absorb(inner);
        out.check(dropped == 0, || {
            format!("{dropped} span(s) dropped: buffers too small")
        });
        let t_pass_s = t.value;
        out.set(
            "serve.loop_us_per_req",
            loop_ns as f64 / 1e3 / (per_pass * t_pass_s.len() as f64),
        );
        out.set(
            "gpusim.wall_us_per_batch",
            batch_ns as f64 / 1e3 / batches as f64,
        );
        out.set(
            "obs.trace_overhead_pct",
            host::overhead_pct(report::median(&pass_s), report::median(&t_pass_s)),
        );
    } else {
        out.set("setup_s", setup_s);
        out.set("throughput_per_s", replay_req_per_s);
        out.set("latency_p50_ms", nominal.p50_latency_ns as f64 / 1e6);
        report::record_peak_rss(&mut out, first_rss);
    }
    out
}
