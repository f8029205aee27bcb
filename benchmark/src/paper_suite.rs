//! `paper_suite`: the experiment calls of `repro all`, in its order, at
//! paper scale and in-process. One round is one full pass; an op is one
//! experiment call. The plan set is the paper's, so the seed is unused.

use crate::measure::{finish, fnv, measure, ms, Checks, Outcome, Round, Workload, FNV_OFFSET};
use crate::spans::Tracer;
use crate::Args;
use qei_config::{MachineConfig, Scheme};
use qei_experiments::{
    ablations, fig1, fig10, fig11, fig12, fig7, fig8, fig9, load_sweep, smoke, suite, tab1, tab2,
    tab3, Scale, SuiteData,
};
use qei_sim::{ConfigOverrides, RunMode, RunReport, SimSession, NB_BATCH};
use std::collections::BTreeMap;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::time::{Duration, Instant};

/// Seconds per `exp.*` metric in one round.
type ExpSeconds = BTreeMap<&'static str, f64>;

struct PaperSuite;

impl Workload for PaperSuite {
    type Extra = ExpSeconds;

    /// A warm session per suite workload, built from seeds (the rounds
    /// build their own inside the experiment calls, as `repro all` does).
    fn setup(&mut self, tracer: &mut Tracer, _: &mut Checks) -> Duration {
        let started = Instant::now();
        let sessions: Vec<SimSession> = suite::suite_specs(Scale::Paper)
            .into_iter()
            .map(|spec| {
                tracer.time("build", "SimSession::build", 0, || {
                    SimSession::build(MachineConfig::skylake_sp_24(), spec)
                })
            })
            .collect();
        let took = started.elapsed();
        drop(sessions);
        took
    }

    fn round(&mut self, tracer: &mut Tracer, checks: &mut Checks, index: u64) -> Round<ExpSeconds> {
        round(tracer, checks, index)
    }
}

/// The QST-occupancy table `repro all` prints between tab3 and ablations.
fn occupancy(data: &SuiteData) -> String {
    let mut body =
        String::from("QST occupancy under Core-integrated (paper: 50%~90% at 10 entries)\n");
    for b in &data.benches {
        let r = b.report(Scheme::CoreIntegrated);
        body.push_str(&format!("  {:8} {:.0}%\n", b.name, r.qst_occupancy * 100.0));
    }
    body
}

fn suite_reports(data: &SuiteData) -> impl Iterator<Item = &RunReport> {
    data.benches
        .iter()
        .flat_map(|b| std::iter::once(&b.baseline).chain(b.per_scheme.iter().map(|(_, r)| r)))
}

/// One pass over `repro all`'s experiment calls. The digest covers every
/// rendered table and every suite report's JSON.
fn round(tracer: &mut Tracer, checks: &mut Checks, request: u64) -> Round<ExpSeconds> {
    let mut r = Round {
        ops: Vec::new(),
        digest: FNV_OFFSET,
        extra: ExpSeconds::new(),
    };
    let mut rendered: Vec<String> = Vec::new();
    let mut call = |tracer: &mut Tracer,
                    checks: &mut Checks,
                    metric: &'static str,
                    name: &str,
                    f: &mut dyn FnMut() -> String| {
        let id = tracer.open("exp", name, request);
        let started = Instant::now();
        let out = catch_unwind(AssertUnwindSafe(&mut *f));
        let took = started.elapsed();
        tracer.close(id);
        r.ops.push((started, took));
        *r.extra.entry(metric).or_insert(0.0) += took.as_secs_f64();
        match out {
            Ok(body) if !body.trim().is_empty() => {
                checks.op(true);
                rendered.push(body);
            }
            _ => {
                checks.op(false);
                checks.violate(format!("{name} failed or rendered nothing"));
            }
        }
    };

    let mut data: Option<SuiteData> = None;
    call(tracer, checks, "exp.suite_s", "suite::collect", &mut || {
        let d = suite::collect(Scale::Paper);
        let n = suite_reports(&d).count();
        data = Some(d);
        format!("{n} suite reports")
    });
    let Some(data) = data else {
        r.digest = 0;
        return r;
    };
    for report in suite_reports(&data) {
        if !report.correct {
            checks.violate(format!("suite report {} is not correct", report.workload));
        }
    }
    let render = "exp.render_s";
    call(tracer, checks, render, "fig1::render", &mut || {
        fig1::render(&data)
    });
    call(tracer, checks, render, "tab1::render", &mut tab1::render);
    call(tracer, checks, render, "tab2::render", &mut tab2::render);
    call(tracer, checks, render, "fig7::render", &mut || {
        fig7::render(&data)
    });
    call(tracer, checks, "exp.fig8_s", "fig8::render", &mut || {
        fig8::render(Scale::Paper)
    });
    call(tracer, checks, render, "fig9::render", &mut || {
        fig9::render(&data)
    });
    call(tracer, checks, "exp.fig10_s", "fig10::render", &mut || {
        fig10::render(fig10::Fig10Scale::paper())
    });
    call(tracer, checks, render, "fig11::render", &mut || {
        fig11::render(&data)
    });
    call(tracer, checks, render, "fig12::render", &mut || {
        fig12::render(&data)
    });
    call(tracer, checks, render, "tab3::render", &mut tab3::render);
    call(tracer, checks, render, "occupancy", &mut || {
        occupancy(&data)
    });
    call(
        tracer,
        checks,
        "exp.ablations_s",
        "ablations::render",
        &mut ablations::render,
    );
    call(
        tracer,
        checks,
        "exp.load_sweep_s",
        "load_sweep::render",
        &mut || load_sweep::render(Scale::Paper),
    );
    call(tracer, checks, "exp.smoke_s", "smoke::render", &mut || {
        smoke::render(Scale::Paper)
    });

    let id = tracer.open("report", "RunReport::to_json", request);
    let mut h = FNV_OFFSET;
    for body in &rendered {
        h = fnv(h, body.as_bytes());
    }
    for report in suite_reports(&data) {
        h = fnv(h, report.to_json().as_bytes());
    }
    tracer.close(id);
    r.digest = h;
    r
}

/// Isolated calls into the layers `repro all` reaches only internally:
/// image builds, trace generation, and the three pricing passes, over the
/// suite workloads.
fn layer_calls(tracer: &mut Tracer, values: &mut BTreeMap<&'static str, f64>) {
    let mut add = |k: &'static str, v: f64| *values.entry(k).or_insert(0.0) += v;
    let config = MachineConfig::skylake_sp_24();
    let mut pricing = Duration::ZERO;
    for spec in suite::suite_specs(Scale::Paper) {
        let (guest, workload) = tracer.time("build", "WorkloadSpec::build_image", 0, || {
            spec.build_image()
        });
        add("mem.image_mb", guest.heap_used() as f64 / 1e6);

        let started = Instant::now();
        let id = tracer.open("cpu", "Workload::baseline_trace", 0);
        let mut trace = qei_cpu::Trace::new();
        let _ = workload.baseline_trace(&guest, &mut trace);
        tracer.close(id);
        let blocking = tracer.time("cpu", "build_qei_trace_blocking", 0, || {
            qei_sim::build_qei_trace_blocking(workload.as_ref())
        });
        let nonblocking = tracer.time("cpu", "build_qei_trace_nonblocking", 0, || {
            qei_sim::build_qei_trace_nonblocking(workload.as_ref(), NB_BATCH)
        });
        add("cpu.trace_gen_ms", ms(started.elapsed()));
        add(
            "cpu.trace_uops",
            (trace.len() + blocking.len() + nonblocking.len()) as f64,
        );

        let session = tracer.time("build", "SimSession::build", 0, || {
            SimSession::build(config.clone(), spec)
        });
        for (metric, mode, scheme) in [
            ("sim.baseline_run_ms", RunMode::Baseline, None),
            (
                "sim.qei_blocking_run_ms",
                RunMode::QeiBlocking,
                Some(Scheme::CoreIntegrated),
            ),
            (
                "sim.qei_nonblocking_run_ms",
                RunMode::QeiNonblocking { batch: NB_BATCH },
                Some(Scheme::CoreIntegrated),
            ),
        ] {
            let started = Instant::now();
            let report = tracer.time("sim", "SimSession::run", 0, || {
                session.run(mode, scheme, ConfigOverrides::none(), "bench")
            });
            let took = started.elapsed();
            pricing += took;
            add(metric, ms(took));
            add("core.uops", report.uops as f64);
            add("run.cycles", report.cycles as f64);
            add("mem.l1_accesses", report.mem.l1_accesses as f64);
            add("mem.l2_accesses", report.mem.l2_accesses as f64);
            add("mem.llc_accesses", report.mem.llc_accesses as f64);
            add("mem.dram_accesses", report.mem.dram_accesses as f64);
            add("core.stlb_misses", report.run.stlb_misses as f64);
            if let Some(a) = &report.accel {
                add("accel.queries", a.queries as f64);
                add("accel.mem_ops", a.mem_ops as f64);
                add("accel.lines_fetched", a.lines_fetched as f64);
                add("accel.tlb_misses", a.tlb_misses as f64);
            }
            add("noc.hops", report.stats.count("noc", "hops") as f64);
            add("noc.bytes", report.noc_bytes as f64);
        }
    }
    let uops = values.get("core.uops").copied().unwrap_or(0.0);
    values.insert(
        "sim.host_ns_per_uop",
        pricing.as_nanos() as f64 / uops.max(1.0),
    );
}

pub fn run(args: &Args) -> Outcome {
    let mut checks = Checks::default();
    let mut tracer = Tracer::new(args.trace);
    let mut m = measure(args, &mut PaperSuite, &mut tracer, &mut checks);
    if args.trace {
        for &k in m.traced[0].extra.keys() {
            let total: f64 = m.traced.iter().map(|r| r.extra[k]).sum();
            m.values.insert(k, total / m.traced.len() as f64);
        }
        layer_calls(&mut tracer, &mut m.values);
    }
    finish(args, &tracer, &checks, m.digest, m.values)
}
