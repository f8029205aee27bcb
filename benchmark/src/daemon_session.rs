//! `daemon_session`: `qei_served::serve` on a Unix socket in a second
//! thread, driven by one closed-loop client with a seeded request stream.
//!
//! Set-up builds paper-scale `jvm-gc` and `rocksdb-mem` sessions through
//! the daemon and snapshots them. A round reverts both to their snapshot,
//! then sends the seeded stream: mostly `query`, about a fifth `mutate`,
//! and some `revert`, `digest` and forked `run`. An op is one request; its
//! latency is the client-observed round trip.

use crate::measure::{
    finish, fnv, image_mb, mean, measure, median, us, Checks, Outcome, Round, Workload, FNV_OFFSET,
};
use crate::spans::Tracer;
use crate::Args;
use qei_config::{MachineConfig, Scheme, SimRng};
use qei_experiments::{suite, Scale};
use qei_served::{handle_line, parse_request, DaemonState, SCHEMA};
use qei_sim::{ConfigOverrides, RunMode, SimSession, WorkloadKind, WorkloadSpec};
use std::collections::BTreeMap;
use std::io::{BufRead, BufReader, Write};
use std::os::unix::net::UnixStream;
use std::path::{Path, PathBuf};
use std::time::{Duration, Instant};

/// Requests to time at least, so `op_p99_ms` has ten samples beyond it.
const MIN_OPS: usize = 1_000;
/// How long the client waits for a reply before it gives the daemon up.
const READ_TIMEOUT: Duration = Duration::from_secs(60);

/// A daemon session: its name, the suite spec it is built from, and the
/// scheme its interactive queries use.
struct SessionDef {
    name: &'static str,
    scheme: &'static str,
    spec: WorkloadSpec,
}

impl SessionDef {
    /// The `build` request's kind and sizing fields, and the query count.
    fn kind(&self) -> (&'static str, u64, u64) {
        match self.spec.kind {
            WorkloadKind::JvmGc { objects, queries } => ("jvm-gc", objects, queries as u64),
            WorkloadKind::RocksDbMem { items, queries } => ("rocksdb-mem", items, queries as u64),
            _ => unreachable!("the daemon serves the JVM and RocksDB suite specs"),
        }
    }
}

/// The paper-scale JVM and RocksDB specs of the suite.
fn sessions() -> [SessionDef; 2] {
    let specs = suite::suite_specs(Scale::Paper);
    [
        SessionDef {
            name: "jvm",
            scheme: "core-integrated",
            spec: specs[1],
        },
        SessionDef {
            name: "rocks",
            scheme: "cha-tlb",
            spec: specs[2],
        },
    ]
}

fn req(fields: &str) -> String {
    format!("{{\"schema\":\"{SCHEMA}\",{fields}}}")
}

/// Reads a `"key":<u64>` field out of a response line.
fn field_u64(line: &str, key: &str) -> Option<u64> {
    let pat = format!("\"{key}\":");
    let rest = &line[line.find(&pat)? + pat.len()..];
    let end = rest
        .find(|c: char| !c.is_ascii_digit())
        .unwrap_or(rest.len());
    rest[..end].parse().ok()
}

/// One request of the stream.
struct Op {
    kind: &'static str,
    line: String,
    /// Session whose base snapshot a revert must restore.
    revert_of: Option<usize>,
}

/// Requests of each kind per round (after the two opening reverts). The
/// mix and the order of kinds are the same for every seed, so `op_p50_ms`
/// falls among the queries, `op_p99_ms` among the runs, and every seed
/// allocates alike; the seed draws the jobs, keys and values.
const MIX: [(&str, usize); 6] = [
    ("query", 356),
    ("insert", 60),
    ("remove", 40),
    ("run", 16),
    ("digest", 14),
    ("revert", 14),
];

/// Fixes the interleaving of kinds (see [`MIX`]).
const KIND_ORDER_SEED: u64 = 0x0dae_0002;

/// The seeded round stream: two opening reverts, then the [`MIX`].
///
/// Every insert adds a fresh key, and every remove takes back a key
/// inserted since the session's last revert (or misses when there is none),
/// so the structures grow alike under every seed. Values are nonzero: 0
/// means "absent" in every structure, and a zero insert on `jvm-gc` panics
/// the daemon (see NOTES.md).
fn stream(seed: u64, defs: &[SessionDef]) -> Vec<Op> {
    let mut rng = SimRng::seed_from_u64(seed ^ 0xdae_0001);
    let revert = |s: usize| Op {
        kind: "revert",
        line: req(&format!(
            "\"op\":\"revert\",\"session\":\"{}\",\"name\":\"base\"",
            defs[s].name
        )),
        revert_of: Some(s),
    };
    let mut kinds: Vec<(&str, usize)> = Vec::new();
    for (kind, n) in MIX {
        // Sessions alternate within each kind, so both see the same mix.
        kinds.extend((0..n).map(|i| (kind, i % defs.len())));
    }
    SimRng::seed_from_u64(KIND_ORDER_SEED).shuffle(&mut kinds);
    let mut inserted: Vec<Vec<String>> = vec![Vec::new(); defs.len()];
    let mut ops: Vec<Op> = (0..defs.len()).map(revert).collect();
    for (kind, s) in kinds {
        let d = &defs[s];
        let plain = |kind: &'static str, line: String| Op {
            kind,
            line: req(&line),
            revert_of: None,
        };
        ops.push(match kind {
            "query" => plain(
                "query",
                format!(
                    "\"op\":\"query\",\"session\":\"{}\",\"scheme\":\"{}\",\"job\":{}",
                    d.name,
                    d.scheme,
                    rng.below(d.kind().2)
                ),
            ),
            "insert" => {
                // Seven digits fit the JVM's 8-byte keys.
                let key = format!("k{}", rng.below(10_000_000));
                let value = 1 + rng.below(u64::from(u32::MAX));
                inserted[s].push(key.clone());
                plain(
                    "mutate",
                    format!("\"op\":\"mutate\",\"session\":\"{}\",\"action\":\"insert\",\"key\":\"{key}\",\"value\":{value}", d.name),
                )
            }
            "remove" => {
                let key = if inserted[s].is_empty() {
                    "absent".to_string()
                } else {
                    let i = rng.below(inserted[s].len() as u64) as usize;
                    inserted[s].swap_remove(i)
                };
                plain(
                    "mutate",
                    format!("\"op\":\"mutate\",\"session\":\"{}\",\"action\":\"remove\",\"key\":\"{key}\"", d.name),
                )
            }
            "run" => plain(
                "run",
                format!(
                    "\"op\":\"run\",\"session\":\"{}\",\"mode\":\"qei-blocking\",\"scheme\":\"{}\"",
                    d.name, d.scheme
                ),
            ),
            "digest" => plain(
                "digest",
                format!("\"op\":\"digest\",\"session\":\"{}\"", d.name),
            ),
            _ => {
                inserted[s].clear();
                revert(s)
            }
        });
    }
    ops
}

/// A closed-loop client with a read timeout, so a daemon that dies or
/// stops replying cannot hang the benchmark. (`qei_served::Client` has no
/// timeout.)
struct TimedClient {
    reader: BufReader<UnixStream>,
    writer: UnixStream,
}

impl TimedClient {
    fn connect(socket: &Path) -> Result<TimedClient, String> {
        let mut last = String::new();
        for _ in 0..100 {
            match UnixStream::connect(socket) {
                Ok(stream) => {
                    stream
                        .set_read_timeout(Some(READ_TIMEOUT))
                        .map_err(|e| e.to_string())?;
                    let reader = stream.try_clone().map_err(|e| e.to_string())?;
                    return Ok(TimedClient {
                        reader: BufReader::new(reader),
                        writer: stream,
                    });
                }
                Err(e) => last = e.to_string(),
            }
            std::thread::sleep(Duration::from_millis(50));
        }
        Err(format!("cannot connect to {}: {last}", socket.display()))
    }

    fn request(&mut self, line: &str) -> Result<String, String> {
        // One write per request: `writeln!` on the raw stream sends the
        // newline separately, and the daemon may wake for each part.
        self.writer
            .write_all(format!("{line}\n").as_bytes())
            .map_err(|e| format!("write failed: {e}"))?;
        let mut response = String::new();
        match self.reader.read_line(&mut response) {
            Ok(0) => Err("daemon closed the connection".to_string()),
            Ok(_) => Ok(response.trim_end().to_string()),
            Err(e) => Err(format!("no reply: {e}")),
        }
    }
}

/// The client side of a run: the connection, the base digests, and whether
/// the daemon is still answering.
struct Conn {
    client: TimedClient,
    base_digest: Vec<u64>,
    alive: bool,
}

impl Conn {
    /// Sends one request, counts it, and checks its reply. Once the daemon
    /// stops answering every later op counts as failed.
    fn send(
        &mut self,
        tracer: &mut Tracer,
        checks: &mut Checks,
        op: &Op,
        request: u64,
    ) -> Option<(String, Duration)> {
        if !self.alive {
            checks.op(false);
            return None;
        }
        let id = tracer.open("daemon", op.kind, request);
        let started = Instant::now();
        let reply = self.client.request(&op.line);
        let took = started.elapsed();
        tracer.close(id);
        let reply = match reply {
            Ok(r) => r,
            Err(e) => {
                self.alive = false;
                checks.op(false);
                checks.violate(format!("{} request failed: {e}", op.kind));
                return None;
            }
        };
        let ok = reply.contains("\"ok\":true");
        checks.op(ok);
        if !ok {
            checks.violate(format!("{} replied {reply}", op.kind));
        }
        if let Some(s) = op.revert_of {
            if field_u64(&reply, "digest") != self.base_digest.get(s).copied() {
                checks.violate(format!(
                    "revert did not restore the snapshot digest: {reply}"
                ));
            }
        }
        Some((reply, took))
    }
}

/// The set-up requests: build both sessions, then snapshot each as "base".
fn build_ops(defs: &[SessionDef]) -> Vec<Op> {
    let build = defs.iter().map(|d| Op {
        kind: "build",
        line: req(&format!(
            "\"op\":\"build\",\"session\":\"{}\",\"kind\":\"{}\",\"guest_seed\":{},\"build_seed\":{},\"p0\":{},\"p1\":{}",
            d.name, d.kind().0, d.spec.guest_seed, d.spec.build_seed, d.kind().1, d.kind().2
        )),
        revert_of: None,
    });
    let snapshot = defs.iter().map(|d| Op {
        kind: "snapshot",
        line: req(&format!(
            "\"op\":\"snapshot\",\"session\":\"{}\",\"name\":\"base\"",
            d.name
        )),
        revert_of: None,
    });
    build.chain(snapshot).collect()
}

/// The client's side of the run.
struct DaemonSession {
    conn: Conn,
    defs: [SessionDef; 2],
    ops: Vec<Op>,
    built: bool,
}

impl Workload for DaemonSession {
    type Extra = Replies;
    const MIN_OPS: usize = MIN_OPS;

    /// Builds and snapshots both sessions through the daemon. Closing the
    /// previous pair first is not timed.
    fn setup(&mut self, tracer: &mut Tracer, checks: &mut Checks) -> Duration {
        if self.built {
            for d in &self.defs {
                let close = Op {
                    kind: "close",
                    line: req(&format!("\"op\":\"close\",\"session\":\"{}\"", d.name)),
                    revert_of: None,
                };
                let _ = self.conn.send(tracer, checks, &close, 0);
            }
        }
        let started = Instant::now();
        let mut digests = Vec::new();
        for op in build_ops(&self.defs) {
            if let Some((reply, _)) = self.conn.send(tracer, checks, &op, 0) {
                if op.kind == "snapshot" {
                    digests.push(field_u64(&reply, "digest").unwrap_or(0));
                }
            }
        }
        let took = started.elapsed();
        self.built = true;
        self.conn.base_digest = digests;
        took
    }

    fn round(&mut self, tracer: &mut Tracer, checks: &mut Checks, index: u64) -> Round<Replies> {
        round(tracer, checks, &mut self.conn, &self.ops, index)
    }
}

/// (kind, round trip µs, response bytes) per request of a round.
type Replies = Vec<(&'static str, f64, usize)>;

/// One pass over the stream; the digest covers every reply.
fn round(
    tracer: &mut Tracer,
    checks: &mut Checks,
    conn: &mut Conn,
    ops: &[Op],
    request: u64,
) -> Round<Replies> {
    let mut r = Round {
        ops: Vec::new(),
        digest: FNV_OFFSET,
        extra: Replies::new(),
    };
    for (i, op) in ops.iter().enumerate() {
        let Some((reply, took)) = conn.send(tracer, checks, op, request * 1_000_000 + i as u64)
        else {
            continue;
        };
        r.ops.push((Instant::now() - took, took));
        r.digest = fnv(r.digest, reply.as_bytes());
        r.extra.push((op.kind, us(took), reply.len()));
    }
    r
}

fn socket_path() -> PathBuf {
    let name = format!("daemon-{}.sock", std::process::id());
    let path = crate::out_dir().join(&name);
    // Socket paths are limited to ~100 bytes; fall back to the working
    // directory when the build directory is deep.
    if path.as_os_str().len() < 100 {
        path
    } else {
        PathBuf::from(format!(".qei-benchmark-{name}"))
    }
}

/// Isolated calls into `qei-sim::session` and `qei-sim::report` on an
/// in-process copy of the JVM session.
fn session_calls(
    tracer: &mut Tracer,
    spec: WorkloadSpec,
    values: &mut BTreeMap<&'static str, f64>,
) {
    let mut session = tracer.time("build", "SimSession::build", 0, || {
        SimSession::build(MachineConfig::skylake_sp_24(), spec)
    });
    let time_each = |tracer: &mut Tracer, name: &str, n: usize, f: &mut dyn FnMut()| {
        let mut t = Vec::with_capacity(n);
        for _ in 0..n {
            let started = Instant::now();
            tracer.time("session", name, 0, &mut *f);
            t.push(started.elapsed());
        }
        t
    };
    let digest = time_each(tracer, "state_digest", 5, &mut || {
        std::hint::black_box(session.state_digest());
    });
    let mut snap = None;
    let snapshot = time_each(tracer, "snapshot", 5, &mut || {
        snap = Some(session.snapshot())
    });
    let Some(snap) = snap else {
        unreachable!("time_each ran the snapshot")
    };
    let restore = time_each(tracer, "restore", 5, &mut || session.restore(&snap));
    let jobs = session.workload().jobs().len();
    let mut job = 0;
    let query = time_each(tracer, "query", 200, &mut || {
        std::hint::black_box(session.query(Scheme::CoreIntegrated, job % jobs));
        job += 7;
    });
    let mut key = 0u64;
    let mutate = time_each(tracer, "mutate_insert", 100, &mut || {
        key += 1;
        let _ = session.mutate_insert(&key.to_be_bytes(), key);
    });
    let avg = |t: &[Duration]| mean(&t.iter().map(|d| d.as_secs_f64()).collect::<Vec<_>>());
    values.insert("session.digest_ms", avg(&digest) * 1e3);
    values.insert("session.snapshot_ms", avg(&snapshot) * 1e3);
    values.insert("session.restore_ms", avg(&restore) * 1e3);
    values.insert("session.query_us", avg(&query) * 1e6);
    values.insert("session.mutate_us", avg(&mutate) * 1e6);

    let report = tracer.time("sim", "SimSession::run", 0, || {
        session.run(
            RunMode::QeiBlocking,
            Some(Scheme::CoreIntegrated),
            ConfigOverrides::none(),
            "bench",
        )
    });
    let json = time_each(tracer, "RunReport::to_json", 5, &mut || {
        std::hint::black_box(report.to_json());
    });
    values.insert("report.to_json_ms", avg(&json) * 1e3);
}

/// Replays the setup and one round through `handle_line` in-process,
/// timing `parse_request` and `handle_line` per op kind; checks every
/// replayed reply against the one the socket returned.
fn replay(
    tracer: &mut Tracer,
    checks: &mut Checks,
    defs: &[SessionDef],
    ops: &[Op],
    socket_round: &Round<Replies>,
    values: &mut BTreeMap<&'static str, f64>,
) {
    let mut state = DaemonState::new(MachineConfig::skylake_sp_24());
    for op in build_ops(defs) {
        tracer.time("daemon", "handle_line(setup)", 0, || {
            handle_line(&mut state, &op.line)
        });
    }
    let mut parse = Vec::new();
    let mut handle: BTreeMap<&str, Vec<f64>> = BTreeMap::new();
    let mut digest = FNV_OFFSET;
    let mut socket_us = Vec::new();
    for (i, op) in ops.iter().enumerate() {
        let started = Instant::now();
        let parsed = tracer.time("daemon", "parse_request", i as u64, || {
            parse_request(&op.line)
        });
        parse.push(us(started.elapsed()));
        if parsed.is_err() {
            checks.violate(format!("stream line does not parse: {}", op.line));
        }
        let started = Instant::now();
        let step = tracer.time("daemon", "handle_line", i as u64, || {
            handle_line(&mut state, &op.line)
        });
        let took = us(started.elapsed());
        handle.entry(op.kind).or_default().push(took);
        digest = fnv(digest, step.line().as_bytes());
        if let Some(&(_, rtt, _)) = socket_round.extra.get(i) {
            socket_us.push(rtt - took);
        }
    }
    if digest != socket_round.digest {
        checks.violate("in-process replay replies differ from the socket's".to_string());
    }
    values.insert("daemon.parse_us", mean(&parse));
    for (kind, metric) in [
        ("query", "daemon.handle_query_us"),
        ("mutate", "daemon.handle_mutate_us"),
        ("revert", "daemon.handle_revert_us"),
        ("digest", "daemon.handle_digest_us"),
        ("run", "daemon.handle_run_us"),
    ] {
        values.insert(
            metric,
            mean(handle.get(kind).map_or(&[][..], Vec::as_slice)),
        );
    }
    // The median of per-request differences: the socket's cost is about the
    // same for every request, while the difference of two timings of a
    // 10 ms request is mostly noise.
    values.insert("daemon.socket_us", median(&socket_us));
}

pub fn run(args: &Args) -> Outcome {
    let mut checks = Checks::default();
    let mut tracer = Tracer::new(args.trace);
    let defs = sessions();
    let ops = stream(args.seed, &defs);

    let socket = socket_path();
    if let Some(dir) = socket.parent().filter(|d| !d.as_os_str().is_empty()) {
        let _ = std::fs::create_dir_all(dir);
    }
    let daemon = {
        let socket = socket.clone();
        std::thread::spawn(move || qei_served::serve(&socket, MachineConfig::skylake_sp_24()))
    };
    let client = match TimedClient::connect(&socket) {
        Ok(c) => c,
        Err(e) => {
            eprintln!("[bench] {e}");
            std::process::exit(1);
        }
    };
    let mut w = DaemonSession {
        conn: Conn {
            client,
            base_digest: Vec::new(),
            alive: true,
        },
        defs,
        ops,
        built: false,
    };
    let mut m = measure(args, &mut w, &mut tracer, &mut checks);
    if !m.traced.is_empty() {
        let mut rtt: BTreeMap<&str, Vec<f64>> = BTreeMap::new();
        let mut kb = Vec::new();
        for &(kind, t, bytes) in m.traced.iter().flat_map(|r| &r.extra) {
            rtt.entry(kind).or_default().push(t);
            kb.push(bytes as f64 / 1e3);
        }
        for (kind, metric) in [
            ("query", "daemon.rtt_query_us"),
            ("mutate", "daemon.rtt_mutate_us"),
            ("revert", "daemon.rtt_revert_us"),
            ("digest", "daemon.rtt_digest_us"),
            ("run", "daemon.rtt_run_us"),
        ] {
            m.values
                .insert(metric, mean(rtt.get(kind).map_or(&[][..], Vec::as_slice)));
        }
        m.values.insert("daemon.resp_kb", mean(&kb));
        replay(
            &mut tracer,
            &mut checks,
            &w.defs,
            &w.ops,
            &m.traced[0],
            &mut m.values,
        );
        let specs: Vec<WorkloadSpec> = w.defs.iter().map(|d| d.spec).collect();
        m.values
            .insert("mem.image_mb", image_mb(&mut tracer, &specs));
        session_calls(&mut tracer, w.defs[0].spec, &mut m.values);
    }

    // Stop the daemon and wait for it, unless it stopped answering, even to
    // the shutdown (then the process exit ends it).
    if w.conn.alive {
        let bye = Op {
            kind: "shutdown",
            line: req("\"op\":\"shutdown\""),
            revert_of: None,
        };
        let _ = w.conn.send(&mut tracer, &mut checks, &bye, 0);
        // The shutdown request is bookkeeping, not an op.
        checks.attempted -= 1;
        if w.conn.alive {
            match daemon.join() {
                Ok(Ok(())) => {}
                Ok(Err(e)) => checks.violate(format!("daemon exited with an error: {e}")),
                Err(_) => checks.violate("daemon thread panicked".to_string()),
            }
        }
    }
    finish(args, &tracer, &checks, m.digest, m.values)
}
