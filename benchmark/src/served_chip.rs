//! `served_chip`: open-loop served runs forked from warm sessions.
//!
//! Set-up builds one session per served paper workload (DPDK, JVM,
//! RocksDB). A round then forks one `RunMode::Served` run per session ×
//! backend × chip size × write share, at one of three arrival rates in
//! turn; an op is one served run. The seed drives each run's arrival
//! stream.

use crate::measure::{
    finish, fnv, image_mb, mean, measure, ms, Checks, Outcome, Round, Workload, FNV_OFFSET,
};
use crate::spans::Tracer;
use crate::Args;
use qei_config::{Cycles, LoadSpec, MachineConfig, SimRng};
use qei_core::FaultCode;
use qei_experiments::{load_sweep, suite, Scale};
use qei_serve::QueryBackend;
use qei_sim::{ConfigOverrides, RunMode, SimSession};
use std::collections::BTreeMap;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::time::{Duration, Instant};

/// Sessions served: the suite's first three (DPDK, JVM, RocksDB).
const SESSIONS: usize = 3;
const CORES: [u32; 4] = [1, 2, 4, 8];
const WRITE_PCT: [u32; 2] = [0, 30];
/// Mean inter-arrival cycles per tenant: three of `load_sweep::RATES`,
/// from light to heavy. They are fixed, not drawn from the seed: the run
/// time of a served run depends on its rate, and a seeded rate mix moved
/// `op_p50_ms` by up to 13 % between seeds.
const RATES: [u64; 3] = [1_200, 400, 150];
/// Arrivals per tenant: `load_sweep`'s paper-scale traffic, with tenants
/// scaling as 4 per lane like its chip sweep. At this size the serve loop,
/// not the per-run image clones and cache construction, takes most of a
/// QEI run (see NOTES.md).
const ARRIVALS_PER_TENANT: u32 = 128;

/// One served run of a round.
#[derive(Clone, Copy)]
struct Point {
    session: usize,
    backend: usize,
    load: LoadSpec,
}

/// The round's points; `seed` draws each run's arrival stream.
fn points(seed: u64, sessions: usize) -> Vec<Point> {
    let mut rng = SimRng::seed_from_u64(seed ^ 0x5e7e_d0c4);
    let mut out = Vec::new();
    for session in 0..sessions {
        for (backend, &(_, _, blocking)) in load_sweep::BACKENDS.iter().enumerate() {
            for &cores in &CORES {
                for &write_pct in &WRITE_PCT {
                    // Rates rotate over the combinations, so every rate
                    // meets every chip size and write share.
                    let rate = RATES[out.len() % RATES.len()];
                    out.push(Point {
                        session,
                        backend,
                        load: LoadSpec {
                            tenants: 4 * cores,
                            cores,
                            mean_interarrival: rate,
                            arrivals_per_tenant: ARRIVALS_PER_TENANT,
                            queue_depth: 32,
                            blocking,
                            write_pct,
                            seed: rng.next_u64(),
                            ..LoadSpec::default()
                        },
                    });
                }
            }
        }
    }
    out
}

/// The warm sessions the runs fork from, and the round's points.
struct ServedChip {
    sessions: Vec<SimSession>,
    points: Vec<Point>,
}

impl Workload for ServedChip {
    type Extra = Served;

    /// Builds the DPDK, JVM and RocksDB paper-scale sessions.
    fn setup(&mut self, tracer: &mut Tracer, _: &mut Checks) -> Duration {
        self.sessions.clear();
        let started = Instant::now();
        self.sessions = suite::suite_specs(Scale::Paper)
            .into_iter()
            .take(SESSIONS)
            .map(|spec| {
                tracer.time("build", "SimSession::build", 0, || {
                    SimSession::build(MachineConfig::skylake_sp_24(), spec)
                })
            })
            .collect();
        started.elapsed()
    }

    fn round(&mut self, tracer: &mut Tracer, checks: &mut Checks, index: u64) -> Round<Served> {
        round(tracer, checks, &self.sessions, &self.points, index)
    }
}

/// A round's per-layer records.
#[derive(Default)]
struct Served {
    /// Summed exact serve counters over the round's reports.
    counts: BTreeMap<&'static str, f64>,
    /// Run times, ms, by `chip.*`/`served.*` metric.
    by_metric: BTreeMap<&'static str, Vec<f64>>,
}

const SERVE_COUNTS: [(&str, &str); 8] = [
    ("serve.offered", "offered"),
    ("serve.completed", "completed"),
    ("serve.rejects", "rejects"),
    ("serve.retries", "retries"),
    ("serve.writes", "writes"),
    ("serve.stale_faults", "stale_faults"),
    ("serve.contention_cycles", "contention_cycles"),
    ("serve.horizon_cycles", "horizon_cycles"),
];

fn round(
    tracer: &mut Tracer,
    checks: &mut Checks,
    sessions: &[SimSession],
    points: &[Point],
    request: u64,
) -> Round<Served> {
    let mut r = Round {
        ops: Vec::with_capacity(points.len()),
        digest: FNV_OFFSET,
        extra: Served::default(),
    };
    for p in points {
        let (_, scheme, _) = load_sweep::BACKENDS[p.backend];
        let session = &sessions[p.session];
        let id = tracer.open("chip", "SimSession::run(served)", request);
        let started = Instant::now();
        let report = catch_unwind(AssertUnwindSafe(|| {
            session.run(
                RunMode::Served { load: p.load },
                scheme,
                ConfigOverrides::none(),
                "bench",
            )
        }));
        let took = started.elapsed();
        tracer.close(id);
        r.ops.push((started, took));
        let Ok(report) = report else {
            checks.op(false);
            checks.violate(format!("served run panicked: {:?}", p.load));
            continue;
        };
        checks.op(report.correct);
        if !report.correct {
            checks.violate(format!("served run not correct: {:?}", p.load));
        }
        let json = tracer.time("report", "RunReport::to_json", request, || report.to_json());
        r.digest = fnv(r.digest, json.as_bytes());
        for (metric, key) in SERVE_COUNTS {
            *r.extra.counts.entry(metric).or_insert(0.0) += report.stats.count("serve", key) as f64;
        }
        let mut tag = |m: &'static str| r.extra.by_metric.entry(m).or_default().push(ms(took));
        match p.load.cores {
            1 => tag("chip.c1_run_ms"),
            8 => tag("chip.c8_run_ms"),
            _ => {}
        }
        tag(if p.load.write_pct == 0 {
            "served.w0_run_ms"
        } else {
            "served.w30_run_ms"
        });
        if scheme.is_none() {
            tag("served.sw_run_ms");
        }
    }
    r
}

/// A fixed-service backend: isolates the admission loop from the
/// accelerator, so `serve.loop_ns_per_arrival` is the queue's own cost.
struct FixedService;

impl QueryBackend for FixedService {
    fn execute(&mut self, start: Cycles, job: u32) -> (Cycles, Result<u64, FaultCode>) {
        (Cycles(start.as_u64() + 180), Ok(u64::from(job)))
    }
}

/// Passes over the loads in [`serve_loop`].
const SERVE_LOOP_PASSES: usize = 2;

/// Host ns per arrival of `run_load_lane` over [`FixedService`], for every
/// load of one session's points and every lane of its chip.
fn serve_loop(tracer: &mut Tracer, points: &[Point]) -> f64 {
    let mut arrivals = 0u64;
    let started = Instant::now();
    let loads = points.iter().filter(|p| p.session == 0);
    for p in loads
        .cycle()
        .take(SERVE_LOOP_PASSES * points.len() / SESSIONS)
    {
        for lane in 0..p.load.cores {
            let stats = tracer.time("serve", "run_load_lane", 0, || {
                qei_serve::run_load_lane(
                    &p.load,
                    64,
                    lane,
                    &mut FixedService,
                    &mut qei_trace::EventBuf::new(),
                )
            });
            arrivals += stats.offered();
        }
    }
    started.elapsed().as_nanos() as f64 / arrivals.max(1) as f64
}

pub fn run(args: &Args) -> Outcome {
    let mut checks = Checks::default();
    let mut tracer = Tracer::new(args.trace);
    let mut w = ServedChip {
        sessions: Vec::new(),
        points: points(args.seed, SESSIONS),
    };
    let mut m = measure(args, &mut w, &mut tracer, &mut checks);
    if let Some(last) = m.traced.last() {
        m.values
            .extend(last.extra.counts.iter().map(|(&k, &v)| (k, v)));
        for &k in last.extra.by_metric.keys() {
            let all: Vec<f64> = m
                .traced
                .iter()
                .flat_map(|r| r.extra.by_metric.get(k).into_iter().flatten().copied())
                .collect();
            m.values.insert(k, mean(&all));
        }
        // The software runs also generate and price the baseline trace to
        // calibrate their service time, so part of their share of the run
        // time moves with trace generation and pricing, not serving.
        let sw: f64 = m
            .traced
            .iter()
            .flat_map(|r| {
                r.extra
                    .by_metric
                    .get("served.sw_run_ms")
                    .into_iter()
                    .flatten()
            })
            .sum();
        let all: f64 = m
            .traced
            .iter()
            .flat_map(|r| &r.ops)
            .map(|&(_, took)| ms(took))
            .sum();
        m.values.insert("served.sw_time_pct", 100.0 * sw / all);
        let specs = suite::suite_specs(Scale::Paper);
        m.values
            .insert("mem.image_mb", image_mb(&mut tracer, &specs[..SESSIONS]));
        m.values.insert(
            "serve.loop_ns_per_arrival",
            serve_loop(&mut tracer, &w.points),
        );
    }
    finish(args, &tracer, &checks, m.digest, m.values)
}
