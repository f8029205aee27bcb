//! Measurement plumbing shared by the workloads: the metric catalogue,
//! host-time statistics, output checks, and the result line.

use crate::meter::{Meter, Speed};
use crate::spans::Tracer;
use crate::Args;
use std::collections::BTreeMap;
use std::time::{Duration, Instant};

/// End-to-end metrics, printed by every untraced run (`--trace 0`). The
/// names and units must match `BENCHMARK.json`.
pub const END_TO_END: &[(&str, &str)] = &[
    ("setup_s", "s"),
    ("wall_s", "s"),
    ("peak_heap_mb", "MB"),
    ("ops_per_s", "1/s"),
    ("op_p50_ms", "ms"),
    ("op_p99_ms", "ms"),
];

/// Per-layer metrics, printed by every traced run (`--trace 1`). A layer a
/// workload never calls reads 0 on that workload.
pub const PER_LAYER: &[(&str, &str)] = &[
    // build (qei-workloads, qei-datastructs, qei-mem)
    ("workloads.build_s", "s"),
    ("mem.image_mb", "MB"),
    // trace generation (qei-cpu)
    ("cpu.trace_gen_ms", "ms"),
    ("cpu.trace_uops", "count"),
    // pricing (qei-sim over qei-cpu/qei-cache/qei-noc/qei-core)
    ("sim.baseline_run_ms", "ms"),
    ("sim.qei_blocking_run_ms", "ms"),
    ("sim.qei_nonblocking_run_ms", "ms"),
    ("sim.host_ns_per_uop", "ns/uop"),
    ("core.uops", "count"),
    ("run.cycles", "cycles"),
    ("mem.l1_accesses", "count"),
    ("mem.l2_accesses", "count"),
    ("mem.llc_accesses", "count"),
    ("mem.dram_accesses", "count"),
    ("core.stlb_misses", "count"),
    ("accel.queries", "count"),
    ("accel.mem_ops", "count"),
    ("accel.lines_fetched", "count"),
    ("accel.tlb_misses", "count"),
    ("noc.hops", "count"),
    ("noc.bytes", "bytes"),
    // experiments (qei-experiments)
    ("exp.suite_s", "s"),
    ("exp.fig8_s", "s"),
    ("exp.fig10_s", "s"),
    ("exp.ablations_s", "s"),
    ("exp.load_sweep_s", "s"),
    ("exp.smoke_s", "s"),
    ("exp.render_s", "s"),
    // serve loop (qei-serve)
    ("serve.loop_ns_per_arrival", "ns"),
    ("serve.offered", "count"),
    ("serve.completed", "count"),
    ("serve.rejects", "count"),
    ("serve.retries", "count"),
    ("serve.writes", "count"),
    ("serve.stale_faults", "count"),
    ("serve.contention_cycles", "cycles"),
    ("serve.horizon_cycles", "cycles"),
    // chip (qei-sim served path)
    ("chip.c1_run_ms", "ms"),
    ("chip.c8_run_ms", "ms"),
    ("served.w0_run_ms", "ms"),
    ("served.w30_run_ms", "ms"),
    ("served.sw_run_ms", "ms"),
    ("served.sw_time_pct", "%"),
    // session (qei-sim::session)
    ("session.digest_ms", "ms"),
    ("session.snapshot_ms", "ms"),
    ("session.restore_ms", "ms"),
    ("session.query_us", "us"),
    ("session.mutate_us", "us"),
    // report (qei-sim::report)
    ("report.to_json_ms", "ms"),
    // daemon (qei-served)
    ("daemon.parse_us", "us"),
    ("daemon.handle_query_us", "us"),
    ("daemon.handle_mutate_us", "us"),
    ("daemon.handle_revert_us", "us"),
    ("daemon.handle_digest_us", "us"),
    ("daemon.handle_run_us", "us"),
    ("daemon.rtt_query_us", "us"),
    ("daemon.rtt_mutate_us", "us"),
    ("daemon.rtt_revert_us", "us"),
    ("daemon.rtt_digest_us", "us"),
    ("daemon.rtt_run_us", "us"),
    ("daemon.socket_us", "us"),
    ("daemon.resp_kb", "kB"),
    // self time per layer over the traced run's spans
    ("self.bench_ms", "ms"),
    ("self.build_ms", "ms"),
    ("self.cpu_ms", "ms"),
    ("self.sim_ms", "ms"),
    ("self.exp_ms", "ms"),
    ("self.serve_ms", "ms"),
    ("self.chip_ms", "ms"),
    ("self.session_ms", "ms"),
    ("self.report_ms", "ms"),
    ("self.daemon_ms", "ms"),
    // the host's speed (see meter.rs)
    ("host.meter_us", "us"),
    ("host.raw_wall_s", "s"),
    // tracing cost and output checks
    ("trace.spans", "count"),
    ("trace.overhead_s", "s"),
    ("check.output_fnv", "fnv32"),
    ("check.ops", "count"),
    ("check.ops_failed", "count"),
];

/// What one run reports: the result line's fields.
pub struct Outcome {
    pub correct: bool,
    pub attempted: u64,
    pub failed: u64,
    /// Metric values by name; the catalogue gives units and order.
    pub values: BTreeMap<&'static str, f64>,
}

impl Outcome {
    /// Renders the result line for `catalogue`. Every catalogued metric
    /// appears; one the workload never measured reads 0.
    pub fn to_json(&self, catalogue: &[(&'static str, &'static str)]) -> String {
        let metrics: Vec<String> = catalogue
            .iter()
            .map(|&(name, unit)| {
                let v = self.values.get(name).copied().unwrap_or(0.0);
                let v = if v.is_finite() { v } else { 0.0 };
                format!("\"{name}\": {{\"value\": {v}, \"unit\": \"{unit}\"}}")
            })
            .collect();
        format!(
            "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
            self.correct,
            self.attempted,
            self.failed,
            metrics.join(", ")
        )
    }
}

/// Tallies ops and output checks for one run.
#[derive(Default)]
pub struct Checks {
    pub attempted: u64,
    pub failed: u64,
    /// Output-check failures (wrong result, mismatched repetition).
    pub violations: Vec<String>,
}

impl Checks {
    /// Counts one op; `ok == false` counts it as failed.
    pub fn op(&mut self, ok: bool) {
        self.attempted += 1;
        if !ok {
            self.failed += 1;
        }
    }

    /// Records a failed output check (first few kept for stderr).
    pub fn violate(&mut self, what: String) {
        if self.violations.len() < 8 {
            eprintln!("[bench] check failed: {what}");
        }
        self.violations.push(what);
    }

    /// Checks that every repetition produced the same output digest.
    pub fn same_output(&mut self, digests: &[u64]) {
        if let Some(first) = digests.first() {
            if digests.iter().any(|d| d != first) {
                self.violate(format!(
                    "output digest differs across repetitions: {digests:x?}"
                ));
            }
        }
    }

    pub fn correct(&self) -> bool {
        self.violations.is_empty() && self.failed == 0
    }
}

/// FNV-1a over bytes, continuing from `h`.
pub fn fnv(mut h: u64, bytes: &[u8]) -> u64 {
    for &b in bytes {
        h ^= u64::from(b);
        h = h.wrapping_mul(0x100_0000_01b3);
    }
    h
}

pub const FNV_OFFSET: u64 = 0xcbf2_9ce4_8422_2325;

/// Folds a 64-bit digest to 32 bits so it prints exactly as a JSON number.
pub fn fold32(h: u64) -> f64 {
    f64::from((h ^ (h >> 32)) as u32)
}

/// Median of `xs` (0 when empty).
pub fn median(xs: &[f64]) -> f64 {
    if xs.is_empty() {
        return 0.0;
    }
    let mut v = xs.to_vec();
    v.sort_by(f64::total_cmp);
    let n = v.len();
    if n % 2 == 1 {
        v[n / 2]
    } else {
        (v[n / 2 - 1] + v[n / 2]) / 2.0
    }
}

/// Nearest-rank percentile `q` (0–100) of `xs` and the number of samples
/// strictly beyond its rank.
pub fn percentile(xs: &[f64], q: f64) -> (f64, usize) {
    if xs.is_empty() {
        return (0.0, 0);
    }
    let mut v = xs.to_vec();
    v.sort_by(f64::total_cmp);
    let rank = ((q / 100.0) * v.len() as f64).ceil().max(1.0) as usize;
    (v[rank - 1], v.len() - rank)
}

/// Mean of `xs` (0 when empty).
pub fn mean(xs: &[f64]) -> f64 {
    if xs.is_empty() {
        0.0
    } else {
        xs.iter().sum::<f64>() / xs.len() as f64
    }
}

pub fn ms(d: Duration) -> f64 {
    d.as_secs_f64() * 1e3
}

pub fn us(d: Duration) -> f64 {
    d.as_secs_f64() * 1e6
}

/// Runs `round` (given its index) at least once, then until `budget` has
/// passed and at least `min_ops` ops were timed. The op floor gives a tail
/// percentile ten samples beyond it; it may stretch a run to three budgets,
/// no further. A round that timed no op ends the loop: the system under
/// test stopped answering.
pub fn repeat<R>(
    budget: Duration,
    min_ops: usize,
    ops: impl Fn(&R) -> usize,
    mut round: impl FnMut(u64) -> R,
) -> Vec<R> {
    let started = Instant::now();
    let mut out: Vec<R> = Vec::new();
    let mut timed = 0;
    loop {
        let r = round(out.len() as u64);
        let n = ops(&r);
        timed += n;
        out.push(r);
        let elapsed = started.elapsed();
        if n == 0 || elapsed >= budget && (timed >= min_ops || elapsed >= budget * 3) {
            return out;
        }
    }
}

/// One pass over a workload's fixed work.
pub struct Round<X> {
    /// When each op started and its raw latency.
    pub ops: Vec<(Instant, Duration)>,
    /// FNV over the round's outputs; every round must match.
    pub digest: u64,
    /// The workload's per-layer records.
    pub extra: X,
}

/// A workload the benchmark drives.
pub trait Workload {
    /// Per-layer records a round keeps.
    type Extra;
    /// Ops to time at least in an untraced run (see [`repeat`]).
    const MIN_OPS: usize = 0;
    /// (Re)builds the state rounds run against and returns the time of the
    /// build work alone. The work should end shortly before the call
    /// returns: the meter dates it back from there.
    fn setup(&mut self, tracer: &mut Tracer, checks: &mut Checks) -> Duration;
    /// One pass over the workload's fixed work.
    fn round(&mut self, tracer: &mut Tracer, checks: &mut Checks, index: u64)
        -> Round<Self::Extra>;
}

/// A round and its wall-clock time: every op plus the work between them
/// (output checks, digests, bookkeeping), set-up excluded.
struct Timed<X> {
    started: Instant,
    wall: Duration,
    round: Round<X>,
}

/// A round's times at the reference speed (see [`Speed::adjust`]).
struct Adjusted {
    /// Wall-clock time, s.
    wall: f64,
    /// Each op's latency, ms.
    op_ms: Vec<f64>,
}

fn adjust<X>(speed: &Speed, rounds: &[Timed<X>]) -> Vec<Adjusted> {
    rounds
        .iter()
        .map(|t| Adjusted {
            wall: speed.adjust(t.started, t.wall),
            op_ms: t
                .round
                .ops
                .iter()
                .map(|&(at, took)| 1e3 * speed.adjust(at, took))
                .collect(),
        })
        .collect()
}

/// The median round's wall-clock time. A median, not a mean: one round
/// the meter tracked badly should not move the run's figure.
fn median_wall(rounds: &[Adjusted]) -> f64 {
    median(&rounds.iter().map(|a| a.wall).collect::<Vec<_>>())
}

/// The median over rounds of ops per second of op time (rounds that timed
/// no op left out).
fn median_rate(rounds: &[Adjusted]) -> f64 {
    median(
        &rounds
            .iter()
            .filter(|a| !a.op_ms.is_empty())
            .map(|a| a.op_ms.len() as f64 * 1e3 / a.op_ms.iter().sum::<f64>())
            .collect::<Vec<_>>(),
    )
}

/// The measured phase's results.
pub struct Measured<X> {
    pub values: BTreeMap<&'static str, f64>,
    /// The traced rounds (traced runs only), for per-layer metrics.
    pub traced: Vec<Round<X>>,
    /// The first round's output digest.
    pub digest: u64,
}

/// Set-ups before the first round; one more follows every round.
const FIRST_SETUPS: usize = 2;

/// Sets the workload up, then runs its rounds, each under a `bench` span.
///
/// The set-up is repeated after every round so its samples spread over the
/// run like the rounds do; `setup_s` is their median. Untraced, rounds fill
/// the budget (and at least `W::MIN_OPS` ops) and give the end-to-end
/// metrics: `wall_s` is the median round's wall-clock time, `ops_per_s`
/// the median over rounds of ops over their summed latencies (the work
/// between ops and the set-ups excluded), and the op latency percentiles
/// are over every op of the run. Traced, the first half of the budget runs
/// untraced and the second half traced; the difference of their median
/// rounds is the tracing overhead. Either way every round must produce the
/// same output digest.
///
/// A [`Meter`] runs throughout, and every time above is scaled to the
/// reference speed over its own interval. Stderr states the raw figures
/// beside the scaled ones.
pub fn measure<W: Workload>(
    args: &Args,
    w: &mut W,
    tracer: &mut Tracer,
    checks: &mut Checks,
) -> Measured<W::Extra> {
    let meter = Meter::start();
    let setup = |w: &mut W, tracer: &mut Tracer, checks: &mut Checks| {
        let took = w.setup(tracer, checks);
        (Instant::now() - took, took)
    };
    let mut setups: Vec<(Instant, Duration)> = (0..FIRST_SETUPS)
        .map(|_| setup(w, tracer, checks))
        .collect();
    let mut run = |tracer: &mut Tracer, checks: &mut Checks, budget: Duration, min_ops: usize| {
        repeat(
            budget,
            min_ops,
            |t: &Timed<W::Extra>| t.round.ops.len(),
            |i| {
                let id = tracer.open("bench", "round", i);
                let started = Instant::now();
                let round = w.round(tracer, checks, i);
                let wall = started.elapsed();
                tracer.close(id);
                setups.push(setup(w, tracer, checks));
                Timed {
                    started,
                    wall,
                    round,
                }
            },
        )
    };
    let (plain, traced) = if args.trace {
        let plain = run(&mut Tracer::new(false), checks, args.budget / 2, 0);
        (plain, run(tracer, checks, args.budget / 2, 0))
    } else {
        (run(tracer, checks, args.budget, W::MIN_OPS), Vec::new())
    };
    let speed = meter.finish();
    let raw_wall = median(
        &plain
            .iter()
            .map(|t| t.wall.as_secs_f64())
            .collect::<Vec<_>>(),
    );
    let raw_setup = median(&setups.iter().map(|s| s.1.as_secs_f64()).collect::<Vec<_>>());
    let setup_s = median(
        &setups
            .iter()
            .map(|&(at, took)| speed.adjust(at, took))
            .collect::<Vec<_>>(),
    );
    let mut values = BTreeMap::new();
    let (adj_plain, adj_traced) = (adjust(&speed, &plain), adjust(&speed, &traced));
    if args.trace {
        values.extend([
            (
                "trace.overhead_s",
                median_wall(&adj_traced) - median_wall(&adj_plain),
            ),
            ("host.meter_us", speed.median_us()),
            ("host.raw_wall_s", raw_wall),
        ]);
    } else {
        let op_ms: Vec<f64> = adj_plain
            .iter()
            .flat_map(|a| a.op_ms.iter().copied())
            .collect();
        let (p99, beyond) = percentile(&op_ms, 99.0);
        eprintln!(
            "[bench] {} rounds, {} op samples; p99 has {beyond} samples beyond it",
            plain.len(),
            op_ms.len()
        );
        values.extend([
            ("wall_s", median_wall(&adj_plain)),
            ("peak_heap_mb", crate::heap::peak_mb()),
            ("ops_per_s", median_rate(&adj_plain)),
            ("op_p50_ms", percentile(&op_ms, 50.0).0),
            ("op_p99_ms", p99),
        ]);
    }
    eprintln!(
        "[bench] host meter: median kernel {:.1} us over {} runs (nominal {:.1} us); \
         raw median round {raw_wall:.3} s, raw set-up {raw_setup:.3} s",
        speed.median_us(),
        speed.len(),
        crate::meter::NOMINAL_S * 1e6,
    );
    let plain: Vec<Round<W::Extra>> = plain.into_iter().map(|t| t.round).collect();
    let traced: Vec<Round<W::Extra>> = traced.into_iter().map(|t| t.round).collect();
    eprintln!("[bench] set-up {setup_s:.3} s (median of {})", setups.len());
    values.insert(
        if args.trace {
            "workloads.build_s"
        } else {
            "setup_s"
        },
        setup_s,
    );
    let digests: Vec<u64> = plain.iter().chain(&traced).map(|r| r.digest).collect();
    checks.same_output(&digests);
    Measured {
        values,
        traced,
        digest: digests[0],
    }
}

/// Guest heap of freshly built images of `specs`, in MB (`mem.image_mb`).
pub fn image_mb(tracer: &mut Tracer, specs: &[qei_sim::WorkloadSpec]) -> f64 {
    specs
        .iter()
        .map(|spec| {
            let (guest, _) = tracer.time("build", "WorkloadSpec::build_image", 0, || {
                spec.build_image()
            });
            guest.heap_used() as f64 / 1e6
        })
        .sum()
}

/// Adds the checks, span self times, and span count, writes the spans,
/// and builds the outcome.
pub fn finish(
    args: &Args,
    tracer: &Tracer,
    checks: &Checks,
    digest: u64,
    mut values: BTreeMap<&'static str, f64>,
) -> Outcome {
    if tracer.enabled() {
        for (layer, v) in tracer.self_ms() {
            let key = format!("self.{layer}_ms");
            if let Some(&(name, _)) = PER_LAYER.iter().find(|(n, _)| *n == key) {
                values.insert(name, v);
            }
        }
        values.insert("trace.spans", tracer.len() as f64);
        values.insert("check.output_fnv", fold32(digest));
        values.insert("check.ops", checks.attempted as f64);
        values.insert("check.ops_failed", checks.failed as f64);
        let path =
            crate::out_dir().join(format!("spans-{}-seed{}.jsonl", args.workload, args.seed));
        match tracer.write(&path) {
            Ok(()) => eprintln!("[bench] wrote {} spans to {}", tracer.len(), path.display()),
            Err(e) => eprintln!("[bench] cannot write spans to {}: {e}", path.display()),
        }
    }
    eprintln!(
        "[bench] {}: {} ops, {} failed, output digest {:08x}",
        args.workload,
        checks.attempted,
        checks.failed,
        fold32(digest) as u32
    );
    Outcome {
        correct: checks.correct(),
        attempted: checks.attempted.max(1),
        failed: checks.failed,
        values,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn percentile_is_nearest_rank_with_the_tail_count() {
        let xs: Vec<f64> = (1..=1000).map(f64::from).collect();
        assert_eq!(percentile(&xs, 50.0), (500.0, 500));
        assert_eq!(percentile(&xs, 99.0), (990.0, 10));
        assert_eq!(percentile(&[3.0], 99.0), (3.0, 0));
        assert_eq!(median(&[4.0, 1.0, 3.0, 2.0]), 2.5);
    }

    #[test]
    fn every_catalogued_metric_is_printed_with_its_unit() {
        let outcome = Outcome {
            correct: true,
            attempted: 3,
            failed: 0,
            values: BTreeMap::from([("wall_s", 1.5)]),
        };
        let line = outcome.to_json(END_TO_END);
        assert!(line.starts_with("{\"correct\": true, \"attempted\": 3, \"failed\": 0, "));
        for (name, unit) in END_TO_END {
            assert!(
                line.contains(&format!("\"{name}\": {{\"value\": ")),
                "{name}"
            );
            assert!(line.contains(&format!("\"unit\": \"{unit}\"")), "{unit}");
        }
        assert!(line.contains("\"wall_s\": {\"value\": 1.5, \"unit\": \"s\"}"));
    }

    #[test]
    fn repeat_runs_past_the_budget_until_the_op_floor() {
        // 50 ms buys about ten 5 ms rounds; the floor asks for twenty,
        // which the 150 ms cap allows.
        let rounds = repeat(
            Duration::from_millis(50),
            20,
            |n: &usize| *n,
            |_| {
                std::thread::sleep(Duration::from_millis(5));
                1
            },
        );
        assert_eq!(rounds.len(), 20);
    }
}
