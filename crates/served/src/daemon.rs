//! The daemon: named warm sessions behind a Unix domain socket.
//!
//! All protocol behaviour lives in [`handle_line`], a pure
//! line-in/line-out state machine over [`DaemonState`], so every op is
//! testable (and fuzzable) without a socket. [`serve`] is the thin accept
//! loop around it.
//!
//! Robustness rules: every request is validated *before* any simulator
//! state is touched — build sizes are clamped, load specs and overridden
//! machine configurations run their validators, lane counts are checked
//! against the LLC geometry — so malformed or oversized requests yield an
//! `"ok":false` line and leave every session exactly as it was. The
//! handler contains no panicking extractors.

use crate::protocol::{parse_request, Request, Response};
use qei_config::{AdmissionPolicy, LoadSpec, MachineConfig, Scheme};
use qei_sim::{
    cores_divide_llc, ConfigOverrides, RunMode, SimSession, SimSnapshot, WorkloadKind, WorkloadSpec,
};
use std::collections::BTreeMap;
use std::io::{BufRead, BufReader, Write};
use std::os::unix::net::UnixListener;
use std::path::Path;

/// Ceiling on any single build-sizing parameter: big enough for every
/// experiment in the tree, small enough that an interactive daemon stays
/// interactive.
const MAX_BUILD_PARAM: u64 = 1_000_000;

/// One named session: the warm [`SimSession`] plus its named snapshots and
/// the last run's report tree.
struct SessionEntry {
    session: SimSession,
    snapshots: BTreeMap<String, SimSnapshot>,
    last_report: Option<String>,
    runs: u64,
}

/// Daemon state: the base machine configuration and the named sessions.
pub struct DaemonState {
    base: MachineConfig,
    sessions: BTreeMap<String, SessionEntry>,
}

/// What the accept loop should do with a handled line.
#[derive(Debug, PartialEq, Eq)]
pub enum Step {
    /// Write this response and keep serving.
    Reply(String),
    /// Write this response, then shut the daemon down.
    Shutdown(String),
}

impl Step {
    /// The response line, whichever variant.
    pub fn line(&self) -> &str {
        match self {
            Step::Reply(l) | Step::Shutdown(l) => l,
        }
    }
}

impl DaemonState {
    /// Fresh state over `base` (the configuration sessions start from;
    /// per-run overrides still apply on top).
    pub fn new(base: MachineConfig) -> DaemonState {
        DaemonState {
            base,
            sessions: BTreeMap::new(),
        }
    }

    fn entry(&mut self, req: &mut Request) -> Result<(String, &mut SessionEntry), String> {
        let name = req.req_str("session")?;
        match self.sessions.get_mut(&name) {
            Some(entry) => Ok((name, entry)),
            None => Err(format!("unknown session \"{name}\" (build one first)")),
        }
    }
}

fn parse_kind(
    kind: &str,
    p0: Option<u64>,
    p1: Option<u64>,
    p2: Option<u64>,
) -> Result<WorkloadKind, String> {
    for (name, p) in [("p0", p0), ("p1", p1), ("p2", p2)] {
        if let Some(v) = p {
            if v == 0 || v > MAX_BUILD_PARAM {
                return Err(format!(
                    "build parameter \"{name}\"={v} out of range (1..={MAX_BUILD_PARAM})"
                ));
            }
        }
    }
    let kind = match kind {
        "dpdk-fib" => WorkloadKind::DpdkFib {
            flows: p0.unwrap_or(512),
            queries: p1.unwrap_or(100) as usize,
        },
        "tuple-space" => WorkloadKind::TupleSpace {
            tuples: p0.unwrap_or(5) as usize,
            flows_per_table: p1.unwrap_or(128),
            packets: p2.unwrap_or(20) as usize,
        },
        "jvm-gc" => WorkloadKind::JvmGc {
            objects: p0.unwrap_or(5_000),
            queries: p1.unwrap_or(120) as usize,
        },
        "rocksdb-mem" => WorkloadKind::RocksDbMem {
            items: p0.unwrap_or(500),
            queries: p1.unwrap_or(50) as usize,
        },
        "snort-ac" => WorkloadKind::SnortAc {
            keywords: p0.unwrap_or(50) as usize,
            scans: p1.unwrap_or(10) as usize,
            text_len: p2.unwrap_or(256) as usize,
        },
        "flann-lsh" => WorkloadKind::FlannLsh {
            tables: p0.unwrap_or(4) as usize,
            items: p1.unwrap_or(256),
            searches: p2.unwrap_or(20) as usize,
        },
        other => {
            return Err(format!(
                "unknown workload kind \"{other}\" (expected dpdk-fib, tuple-space, \
                 jvm-gc, rocksdb-mem, snort-ac, or flann-lsh)"
            ))
        }
    };
    Ok(kind)
}

fn parse_scheme(s: &str) -> Result<Scheme, String> {
    Ok(match s {
        "cha-tlb" => Scheme::ChaTlb,
        "cha-notlb" => Scheme::ChaNoTlb,
        "device-direct" => Scheme::DeviceDirect,
        "device-indirect" => Scheme::DeviceIndirect,
        "core-integrated" => Scheme::CoreIntegrated,
        other => {
            return Err(format!(
                "unknown scheme \"{other}\" (expected cha-tlb, cha-notlb, device-direct, \
                 device-indirect, or core-integrated)"
            ))
        }
    })
}

fn parse_policy(s: &str) -> Result<AdmissionPolicy, String> {
    Ok(match s {
        "reject" => AdmissionPolicy::Reject,
        "stall" => AdmissionPolicy::Stall,
        "taildrop" => AdmissionPolicy::TailDrop,
        other => {
            return Err(format!(
                "unknown admission policy \"{other}\" (expected reject, stall, or taildrop)"
            ))
        }
    })
}

fn u64_to_u32(key: &str, v: u64) -> Result<u32, String> {
    u32::try_from(v).map_err(|_| format!("field \"{key}\"={v} exceeds 32 bits"))
}

fn op_build(state: &mut DaemonState, req: &mut Request) -> Result<String, String> {
    let name = req.req_str("session")?;
    if state.sessions.contains_key(&name) {
        return Err(format!(
            "session \"{name}\" already exists (close it first)"
        ));
    }
    let kind = req.req_str("kind")?;
    let guest_seed = req.opt_u64("guest_seed")?.unwrap_or(7);
    let build_seed = req.opt_u64("build_seed")?.unwrap_or(2);
    let p0 = req.opt_u64("p0")?;
    let p1 = req.opt_u64("p1")?;
    let p2 = req.opt_u64("p2")?;
    req.finish()?;
    let kind = parse_kind(&kind, p0, p1, p2)?;
    let spec = WorkloadSpec::new(guest_seed, build_seed, kind);
    let session = SimSession::build(state.base.clone(), spec);
    let response = Response::new(true)
        .str("op", "build")
        .str("session", &name)
        .str("workload", session.workload().name())
        .u64("jobs", session.workload().jobs().len() as u64)
        .u64("digest", session.state_digest())
        .u64("build_us", session.build_time().as_micros() as u64)
        .finish();
    state.sessions.insert(
        name,
        SessionEntry {
            session,
            snapshots: BTreeMap::new(),
            last_report: None,
            runs: 0,
        },
    );
    Ok(response)
}

/// Collects the run op's mode, scheme, load, and overrides — rejecting
/// served-only fields on non-served modes so a typo'd batch request cannot
/// silently measure something else.
fn parse_run(
    req: &mut Request,
    base: &MachineConfig,
) -> Result<(RunMode, Option<Scheme>, ConfigOverrides, String), String> {
    let mode_name = req.req_str("mode")?;
    let scheme = match req.opt_str("scheme")? {
        Some(s) => Some(parse_scheme(&s)?),
        None => None,
    };
    let batch = req.opt_u64("batch")?;
    let tag = req.opt_str("tag")?.unwrap_or_else(|| "daemon".to_string());

    let mut load = LoadSpec::default();
    let mut load_touched = false;
    if let Some(v) = req.opt_u64("tenants")? {
        load.tenants = u64_to_u32("tenants", v)?;
        load_touched = true;
    }
    if let Some(v) = req.opt_u64("interarrival")? {
        load.mean_interarrival = v;
        load_touched = true;
    }
    if let Some(v) = req.opt_u64("arrivals")? {
        load.arrivals_per_tenant = u64_to_u32("arrivals", v)?;
        load_touched = true;
    }
    if let Some(v) = req.opt_u64("queue_depth")? {
        load.queue_depth = u64_to_u32("queue_depth", v)?;
        load_touched = true;
    }
    if let Some(s) = req.opt_str("policy")? {
        load.policy = parse_policy(&s)?;
        load_touched = true;
    }
    if let Some(b) = req.opt_bool("blocking")? {
        load.blocking = b;
        load_touched = true;
    }
    if let Some(v) = req.opt_u64("load_seed")? {
        load.seed = v;
        load_touched = true;
    }
    if let Some(v) = req.opt_u64("cores")? {
        load.cores = u64_to_u32("cores", v)?;
        load_touched = true;
    }
    if let Some(v) = req.opt_u64("write_pct")? {
        load.write_pct = u64_to_u32("write_pct", v)?;
        load_touched = true;
    }

    let mut overrides = ConfigOverrides::none();
    if let Some(v) = req.opt_u64("device_latency")? {
        overrides.device_data_latency = Some(v);
    }
    if let Some(v) = req.opt_u64("qst_entries")? {
        overrides.qst_entries = Some(u64_to_u32("qst_entries", v)?);
    }
    if let Some(v) = req.opt_u64("comparators")? {
        overrides.comparators_per_cha = Some(u64_to_u32("comparators", v)?);
    }
    if let Some(v) = req.opt_u64("accel_tlb")? {
        overrides.accel_tlb_entries = Some(u64_to_u32("accel_tlb", v)?);
    }
    req.finish()?;

    let mode = match mode_name.as_str() {
        "baseline" => RunMode::Baseline,
        "qei-blocking" => RunMode::QeiBlocking,
        "qei-local-compare" => RunMode::LocalCompareAblation,
        "qei-nonblocking" => RunMode::QeiNonblocking {
            batch: batch.unwrap_or(qei_sim::NB_BATCH as u64) as usize,
        },
        "served" => RunMode::Served { load },
        other => {
            return Err(format!(
                "unknown mode \"{other}\" (expected baseline, qei-blocking, \
                 qei-nonblocking, qei-local-compare, or served)"
            ))
        }
    };

    // Cross-field validation, all before anything executes.
    if matches!(mode, RunMode::Baseline) && scheme.is_some() {
        return Err("mode \"baseline\" takes no scheme".to_string());
    }
    if matches!(
        mode,
        RunMode::QeiBlocking | RunMode::QeiNonblocking { .. } | RunMode::LocalCompareAblation
    ) && scheme.is_none()
    {
        return Err(format!("mode \"{mode_name}\" requires a scheme"));
    }
    if batch.is_some() && !matches!(mode, RunMode::QeiNonblocking { .. }) {
        return Err("field \"batch\" only applies to mode \"qei-nonblocking\"".to_string());
    }
    if let RunMode::QeiNonblocking { batch } = mode {
        if batch == 0 || batch > 4096 {
            return Err(format!("batch={batch} out of range (1..=4096)"));
        }
    }
    if load_touched && !matches!(mode, RunMode::Served { .. }) {
        return Err(
            "load fields (tenants, interarrival, …) only apply to mode \"served\"".to_string(),
        );
    }
    if let RunMode::Served { load } = &mode {
        load.validate().map_err(|e| e.to_string())?;
        let mut priced = base.clone();
        overrides.apply(&mut priced);
        if !cores_divide_llc(&priced, load.cores) {
            return Err(format!(
                "cores={} does not divide the LLC geometry evenly (use a power of two)",
                load.cores
            ));
        }
    }
    let mut overridden = base.clone();
    overrides.apply(&mut overridden);
    let violations = overridden.validate();
    if !violations.is_empty() {
        return Err(format!(
            "overrides produce an invalid machine: {}",
            violations.join("; ")
        ));
    }
    Ok((mode, scheme, overrides, tag))
}

fn op_run(state: &mut DaemonState, req: &mut Request) -> Result<String, String> {
    let (name, entry) = state.entry(req)?;
    let base = entry.session.config().clone();
    let (mode, scheme, overrides, tag) = parse_run(req, &base)?;
    let report = entry.session.run(mode, scheme, overrides, &tag);
    entry.runs += 1;
    let response = Response::new(true)
        .str("op", "run")
        .str("session", &name)
        .str("workload", report.workload)
        .str("mode", &mode.to_string())
        .u64("cycles", report.cycles)
        .u64("queries", report.queries)
        .bool("correct", report.correct)
        .u64("digest", entry.session.state_digest())
        .str("report", &report.to_json())
        .finish();
    entry.last_report = Some(report.to_json());
    Ok(response)
}

fn op_query(state: &mut DaemonState, req: &mut Request) -> Result<String, String> {
    let (name, entry) = state.entry(req)?;
    let scheme = parse_scheme(&req.req_str("scheme")?)?;
    let job = req.req_u64("job")?;
    req.finish()?;
    let jobs = entry.session.workload().jobs().len() as u64;
    if job >= jobs {
        return Err(format!("job {job} out of range (session has {jobs} jobs)"));
    }
    let Some((completion, result)) = entry.session.query(scheme, job as usize) else {
        return Err(format!("job {job} out of range (session has {jobs} jobs)"));
    };
    let r = Response::new(true)
        .str("op", "query")
        .str("session", &name)
        .u64("job", job)
        .u64("completion", completion.as_u64());
    Ok(match result {
        Ok(v) => r.u64("result", v),
        Err(f) => r.str("fault", &format!("{f:?}")),
    }
    .finish())
}

fn op_mutate(state: &mut DaemonState, req: &mut Request) -> Result<String, String> {
    let (name, entry) = state.entry(req)?;
    let action = req.req_str("action")?;
    let key = req.req_str("key")?;
    let value = req.opt_u64("value")?;
    req.finish()?;
    let key_len = entry.session.workload().key_len();
    if key.len() > key_len {
        return Err(format!(
            "key is {} bytes but the workload's keys are {key_len} (shorter keys are \
             zero-padded)",
            key.len()
        ));
    }
    let mut padded = key.into_bytes();
    padded.resize(key_len, 0);
    let r = Response::new(true)
        .str("op", "mutate")
        .str("session", &name)
        .str("action", &action);
    let r = match action.as_str() {
        "insert" => {
            let value =
                value.ok_or_else(|| "action \"insert\" requires field \"value\"".to_string())?;
            entry.session.mutate_insert(&padded, value)?;
            r
        }
        "remove" => {
            if value.is_some() {
                return Err("action \"remove\" takes no \"value\"".to_string());
            }
            let previous = entry.session.mutate_remove(&padded)?;
            r.u64("previous", previous)
        }
        other => {
            return Err(format!(
                "unknown mutate action \"{other}\" (expected insert or remove)"
            ))
        }
    };
    Ok(r.u64("digest", entry.session.state_digest()).finish())
}

fn op_snapshot(state: &mut DaemonState, req: &mut Request) -> Result<String, String> {
    let (name, entry) = state.entry(req)?;
    let snap_name = req.req_str("name")?;
    req.finish()?;
    let snapshot = entry.session.snapshot();
    let digest = snapshot.digest();
    entry.snapshots.insert(snap_name.clone(), snapshot);
    Ok(Response::new(true)
        .str("op", "snapshot")
        .str("session", &name)
        .str("name", &snap_name)
        .u64("digest", digest)
        .finish())
}

fn op_revert(state: &mut DaemonState, req: &mut Request) -> Result<String, String> {
    let (name, entry) = state.entry(req)?;
    let snap_name = req.req_str("name")?;
    req.finish()?;
    let Some(snapshot) = entry.snapshots.get(&snap_name) else {
        return Err(format!(
            "unknown snapshot \"{snap_name}\" for session \"{name}\""
        ));
    };
    entry.session.restore(snapshot);
    Ok(Response::new(true)
        .str("op", "revert")
        .str("session", &name)
        .str("name", &snap_name)
        .u64("digest", entry.session.state_digest())
        .finish())
}

fn op_digest(state: &mut DaemonState, req: &mut Request) -> Result<String, String> {
    let (name, entry) = state.entry(req)?;
    req.finish()?;
    Ok(Response::new(true)
        .str("op", "digest")
        .str("session", &name)
        .u64("digest", entry.session.state_digest())
        .u64("snapshots", entry.snapshots.len() as u64)
        .finish())
}

fn op_stats(state: &mut DaemonState, req: &mut Request) -> Result<String, String> {
    let (name, entry) = state.entry(req)?;
    req.finish()?;
    let Some(report) = &entry.last_report else {
        return Err(format!("session \"{name}\" has no completed run yet"));
    };
    Ok(Response::new(true)
        .str("op", "stats")
        .str("session", &name)
        .u64("runs", entry.runs)
        .str("report", report)
        .finish())
}

fn op_close(state: &mut DaemonState, req: &mut Request) -> Result<String, String> {
    let name = req.req_str("session")?;
    req.finish()?;
    if state.sessions.remove(&name).is_none() {
        return Err(format!("unknown session \"{name}\" (build one first)"));
    }
    Ok(Response::new(true)
        .str("op", "close")
        .str("session", &name)
        .finish())
}

/// Handles one request line against the daemon state. Never panics on any
/// input; malformed or invalid requests produce an `"ok":false` line and
/// leave all sessions untouched.
pub fn handle_line(state: &mut DaemonState, line: &str) -> Step {
    let mut req = match parse_request(line) {
        Ok(r) => r,
        Err(e) => return Step::Reply(Response::error(&e)),
    };
    let result = match req.op() {
        "ping" => req.finish().map(|()| {
            Response::new(true)
                .str("op", "ping")
                .u64("sessions", state.sessions.len() as u64)
                .finish()
        }),
        "shutdown" => match req.finish() {
            Ok(()) => {
                return Step::Shutdown(Response::new(true).str("op", "shutdown").finish());
            }
            Err(e) => Err(e),
        },
        "build" => op_build(state, &mut req),
        "run" => op_run(state, &mut req),
        "query" => op_query(state, &mut req),
        "mutate" => op_mutate(state, &mut req),
        "snapshot" => op_snapshot(state, &mut req),
        "revert" => op_revert(state, &mut req),
        "digest" => op_digest(state, &mut req),
        "stats" => op_stats(state, &mut req),
        "close" => op_close(state, &mut req),
        other => Err(format!(
            "unknown op \"{other}\" (expected ping, build, run, query, mutate, snapshot, \
             revert, digest, stats, close, or shutdown)"
        )),
    };
    match result {
        Ok(line) => Step::Reply(line),
        Err(e) => Step::Reply(Response::error(&e)),
    }
}

/// Binds `socket` and serves connections until a `shutdown` request.
/// Connections are handled one at a time, in order — the daemon is a
/// deterministic state machine, not a throughput server.
///
/// # Errors
///
/// On socket-level failures (bind, write). Protocol-level problems never
/// surface here; they become `"ok":false` response lines.
pub fn serve(socket: &Path, base: MachineConfig) -> Result<(), String> {
    if socket.exists() {
        std::fs::remove_file(socket)
            .map_err(|e| format!("cannot remove stale socket {}: {e}", socket.display()))?;
    }
    let listener =
        UnixListener::bind(socket).map_err(|e| format!("cannot bind {}: {e}", socket.display()))?;
    let mut state = DaemonState::new(base);
    loop {
        let (stream, _) = match listener.accept() {
            Ok(pair) => pair,
            Err(e) => return Err(format!("accept failed: {e}")),
        };
        let reader = BufReader::new(&stream);
        let mut writer = &stream;
        for line in reader.lines() {
            let Ok(line) = line else { break };
            if line.trim().is_empty() {
                continue;
            }
            let step = handle_line(&mut state, &line);
            let write = writeln!(writer, "{}", step.line()).and_then(|()| writer.flush());
            if write.is_err() {
                break; // Client went away; its session state stays warm.
            }
            if let Step::Shutdown(_) = step {
                let _ = std::fs::remove_file(socket);
                return Ok(());
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::protocol::SCHEMA;
    use qei_config::SimRng;

    fn state() -> DaemonState {
        DaemonState::new(MachineConfig::skylake_sp_24())
    }

    fn req(fields: &str) -> String {
        format!("{{\"schema\":\"{SCHEMA}\",{fields}}}")
    }

    fn ok_line(state: &mut DaemonState, fields: &str) -> String {
        let step = handle_line(state, &req(fields));
        let line = step.line().to_string();
        assert!(
            line.contains("\"ok\":true"),
            "expected success for {fields}: {line}"
        );
        line
    }

    fn err_line(state: &mut DaemonState, fields: &str) -> String {
        let step = handle_line(state, &req(fields));
        let line = step.line().to_string();
        assert!(
            line.contains("\"ok\":false"),
            "expected failure for {fields}: {line}"
        );
        line
    }

    fn field_u64(line: &str, key: &str) -> u64 {
        let tag = format!("\"{key}\":");
        let at = line
            .find(&tag)
            .unwrap_or_else(|| panic!("no {key} in {line}"));
        line[at + tag.len()..]
            .chars()
            .take_while(char::is_ascii_digit)
            .collect::<String>()
            .parse()
            .unwrap()
    }

    #[test]
    fn ping_and_unknown_ops() {
        let mut s = state();
        let pong = ok_line(&mut s, "\"op\":\"ping\"");
        assert!(pong.contains("\"sessions\":0"));
        let e = err_line(&mut s, "\"op\":\"frobnicate\"");
        assert!(e.contains("unknown op"));
        let e = err_line(&mut s, "\"op\":\"ping\",\"extra\":1");
        assert!(e.contains("unknown field"));
    }

    #[test]
    fn scripted_session_snapshot_mutate_revert_run() {
        let mut s = state();
        let built = ok_line(
            &mut s,
            "\"op\":\"build\",\"session\":\"a\",\"kind\":\"jvm-gc\",\"p0\":2000,\"p1\":60",
        );
        let digest0 = field_u64(&built, "digest");
        let snap = ok_line(
            &mut s,
            "\"op\":\"snapshot\",\"session\":\"a\",\"name\":\"warm\"",
        );
        assert_eq!(field_u64(&snap, "digest"), digest0);

        let run1 = ok_line(
            &mut s,
            "\"op\":\"run\",\"session\":\"a\",\"mode\":\"qei-blocking\",\"scheme\":\"core-integrated\"",
        );
        assert!(run1.contains("\"correct\":true"));

        // Mutate: the image digest moves.
        let m = ok_line(
            &mut s,
            "\"op\":\"mutate\",\"session\":\"a\",\"action\":\"insert\",\"key\":\"k\",\"value\":9",
        );
        assert_ne!(field_u64(&m, "digest"), digest0);

        // Revert: digest restored, and the same run reproduces byte-for-byte.
        let rv = ok_line(
            &mut s,
            "\"op\":\"revert\",\"session\":\"a\",\"name\":\"warm\"",
        );
        assert_eq!(field_u64(&rv, "digest"), digest0);
        let run2 = ok_line(
            &mut s,
            "\"op\":\"run\",\"session\":\"a\",\"mode\":\"qei-blocking\",\"scheme\":\"core-integrated\"",
        );
        assert_eq!(run1, run2, "post-revert run must be byte-identical");

        let st = ok_line(&mut s, "\"op\":\"stats\",\"session\":\"a\"");
        assert!(st.contains("\"runs\":2"));
        ok_line(&mut s, "\"op\":\"close\",\"session\":\"a\"");
        err_line(&mut s, "\"op\":\"digest\",\"session\":\"a\"");
    }

    #[test]
    fn queries_answer_ground_truth_over_the_protocol() {
        let mut s = state();
        ok_line(
            &mut s,
            "\"op\":\"build\",\"session\":\"q\",\"kind\":\"dpdk-fib\",\"p0\":256,\"p1\":20",
        );
        for job in 0..3 {
            let q = ok_line(
                &mut s,
                &format!("\"op\":\"query\",\"session\":\"q\",\"scheme\":\"cha-tlb\",\"job\":{job}"),
            );
            assert!(q.contains("\"result\":") || q.contains("\"fault\":"), "{q}");
        }
        let e = err_line(
            &mut s,
            "\"op\":\"query\",\"session\":\"q\",\"scheme\":\"cha-tlb\",\"job\":99999",
        );
        assert!(e.contains("out of range"));
    }

    #[test]
    fn validation_happens_before_execution() {
        let mut s = state();
        ok_line(
            &mut s,
            "\"op\":\"build\",\"session\":\"v\",\"kind\":\"jvm-gc\",\"p0\":500,\"p1\":20",
        );
        // Oversized build.
        let e = err_line(
            &mut s,
            "\"op\":\"build\",\"session\":\"big\",\"kind\":\"jvm-gc\",\"p0\":99999999",
        );
        assert!(e.contains("out of range"));
        // Duplicate session name.
        err_line(
            &mut s,
            "\"op\":\"build\",\"session\":\"v\",\"kind\":\"jvm-gc\"",
        );
        // QEI mode without a scheme.
        let e = err_line(
            &mut s,
            "\"op\":\"run\",\"session\":\"v\",\"mode\":\"qei-blocking\"",
        );
        assert!(e.contains("requires a scheme"));
        // Baseline with a scheme.
        err_line(
            &mut s,
            "\"op\":\"run\",\"session\":\"v\",\"mode\":\"baseline\",\"scheme\":\"cha-tlb\"",
        );
        // Load fields on a batch mode.
        let e = err_line(
            &mut s,
            "\"op\":\"run\",\"session\":\"v\",\"mode\":\"baseline\",\"tenants\":4",
        );
        assert!(e.contains("served"));
        // Indivisible lane count for a served run.
        let e = err_line(
            &mut s,
            "\"op\":\"run\",\"session\":\"v\",\"mode\":\"served\",\"scheme\":\"cha-tlb\",\"cores\":3",
        );
        assert!(e.contains("LLC"));
        // Degenerate load spec.
        let e = err_line(
            &mut s,
            "\"op\":\"run\",\"session\":\"v\",\"mode\":\"served\",\"scheme\":\"cha-tlb\",\"tenants\":0",
        );
        assert!(e.contains("tenant"));
        // Batch on a blocking mode.
        err_line(
            &mut s,
            "\"op\":\"run\",\"session\":\"v\",\"mode\":\"qei-blocking\",\"scheme\":\"cha-tlb\",\"batch\":8",
        );
        // Mutation on a workload with no mutable structure.
        ok_line(
            &mut s,
            "\"op\":\"build\",\"session\":\"ac\",\"kind\":\"snort-ac\",\"p0\":20,\"p1\":5,\"p2\":128",
        );
        let e = err_line(
            &mut s,
            "\"op\":\"mutate\",\"session\":\"ac\",\"action\":\"insert\",\"key\":\"x\",\"value\":1",
        );
        assert!(e.contains("no mutable structure"));
        // The session is still usable after every rejection above.
        ok_line(&mut s, "\"op\":\"digest\",\"session\":\"v\"");
    }

    #[test]
    fn zero_value_insert_is_rejected_and_the_daemon_keeps_serving() {
        let mut s = state();
        let built = ok_line(
            &mut s,
            "\"op\":\"build\",\"session\":\"z\",\"kind\":\"jvm-gc\",\"p0\":500,\"p1\":20",
        );
        let e = err_line(
            &mut s,
            "\"op\":\"mutate\",\"session\":\"z\",\"action\":\"insert\",\"key\":\"k\",\"value\":0",
        );
        assert!(e.contains("value 0 is reserved"), "{e}");
        ok_line(&mut s, "\"op\":\"ping\"");
        let d = ok_line(&mut s, "\"op\":\"digest\",\"session\":\"z\"");
        assert_eq!(field_u64(&d, "digest"), field_u64(&built, "digest"));
    }

    #[test]
    fn served_runs_work_over_the_protocol() {
        let mut s = state();
        ok_line(
            &mut s,
            "\"op\":\"build\",\"session\":\"sv\",\"kind\":\"jvm-gc\",\"p0\":1000,\"p1\":40",
        );
        let r1 = ok_line(
            &mut s,
            "\"op\":\"run\",\"session\":\"sv\",\"mode\":\"served\",\"scheme\":\"cha-tlb\",\
             \"tenants\":2,\"interarrival\":2000,\"arrivals\":24,\"queue_depth\":8",
        );
        assert!(r1.contains("\"mode\":\"served("));
        let r2 = ok_line(
            &mut s,
            "\"op\":\"run\",\"session\":\"sv\",\"mode\":\"served\",\"scheme\":\"cha-tlb\",\
             \"tenants\":2,\"interarrival\":2000,\"arrivals\":24,\"queue_depth\":8",
        );
        assert_eq!(r1, r2, "served runs fork the image; repeats are identical");
    }

    #[test]
    fn shutdown_is_a_terminal_step() {
        let mut s = state();
        let step = handle_line(&mut s, &req("\"op\":\"shutdown\""));
        assert!(matches!(step, Step::Shutdown(_)));
        assert!(step.line().contains("\"ok\":true"));
    }

    /// Satellite: SimRng-driven malformed-request fuzzing. Truncations,
    /// byte substitutions, and field mutations of valid requests must all
    /// produce a structured error (or a valid success), never a panic, and
    /// must leave the daemon responsive.
    #[test]
    fn fuzzed_requests_never_panic_or_wedge() {
        let mut s = state();
        ok_line(
            &mut s,
            "\"op\":\"build\",\"session\":\"f\",\"kind\":\"jvm-gc\",\"p0\":200,\"p1\":10",
        );
        let seeds: Vec<String> = vec![
            req("\"op\":\"ping\""),
            req("\"op\":\"build\",\"session\":\"g\",\"kind\":\"jvm-gc\",\"p0\":200,\"p1\":10"),
            req("\"op\":\"run\",\"session\":\"f\",\"mode\":\"qei-blocking\",\"scheme\":\"cha-tlb\""),
            req("\"op\":\"query\",\"session\":\"f\",\"scheme\":\"cha-tlb\",\"job\":0"),
            req("\"op\":\"mutate\",\"session\":\"f\",\"action\":\"insert\",\"key\":\"k\",\"value\":1"),
            req("\"op\":\"snapshot\",\"session\":\"f\",\"name\":\"s\""),
            req("\"op\":\"revert\",\"session\":\"f\",\"name\":\"s\""),
        ];
        let mut rng = SimRng::seed_from_u64(0xF0_55ED);
        let printable: Vec<u8> = (0x20u8..0x7F).collect();
        for round in 0..400 {
            let seed = &seeds[(rng.below(seeds.len() as u64)) as usize];
            let mut bytes = seed.clone().into_bytes();
            match rng.below(4) {
                // Truncate at a random point.
                0 => {
                    let cut = rng.below(bytes.len() as u64) as usize;
                    bytes.truncate(cut);
                }
                // Substitute a random printable byte.
                1 => {
                    let at = rng.below(bytes.len() as u64) as usize;
                    bytes[at] = printable[rng.below(printable.len() as u64) as usize];
                }
                // Insert a random printable byte.
                2 => {
                    let at = rng.below(bytes.len() as u64 + 1) as usize;
                    bytes.insert(at, printable[rng.below(printable.len() as u64) as usize]);
                }
                // Delete a random byte.
                _ => {
                    let at = rng.below(bytes.len() as u64) as usize;
                    bytes.remove(at);
                }
            }
            let Ok(mutated) = String::from_utf8(bytes) else {
                continue;
            };
            let step = handle_line(&mut s, &mutated);
            let line = step.line();
            assert!(
                line.contains("\"ok\":true") || line.contains("\"ok\":false"),
                "round {round}: unstructured response {line} for {mutated}"
            );
            // A fuzzed line must never shut the daemon down by accident
            // unless it literally still is the shutdown op (not seeded).
            assert!(matches!(step, Step::Reply(_)), "round {round}: {mutated}");
        }
        // Still alive and serving after 400 rounds of abuse.
        let pong = ok_line(&mut s, "\"op\":\"ping\"");
        assert!(pong.contains("\"ok\":true"));
        ok_line(&mut s, "\"op\":\"digest\",\"session\":\"f\"");
    }
}
