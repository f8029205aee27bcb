//! The QEI accelerator timing model and the five integration schemes.
//!
//! [`QeiAccelerator`] co-simulates queries against the shared substrate: it
//! walks the same CFAs over the same guest bytes as the functional engine
//! ([`crate::exec`]), but prices every micro-op on shared hardware resources:
//!
//! * **QST slots** bound in-flight queries (backpressure on submit);
//! * the **CEE issue port** processes one ready entry per cycle per instance;
//! * **memory micro-ops** pay address translation (scheme-dependent) plus the
//!   scheme's data-access path through the cache/NoC substrate;
//! * **comparisons** queue on the comparator pools — in the line's home CHA
//!   for CHA-compare schemes (a *remote micro-op* across the NoC), or local
//!   to the device for Device-based schemes;
//! * **hash/ALU** micro-ops run on the instance's DPU.
//!
//! Scheme placement (paper §V / Table I):
//!
//! | scheme | instances | translation | data path |
//! |---|---|---|---|
//! | CHA-TLB | one per CHA | dedicated 1024-entry TLB | LLC slice direct |
//! | CHA-noTLB | one per CHA | round trip to core MMU | LLC slice direct |
//! | Device-direct | one, own NoC stop | dedicated TLB | NoC to home slice |
//! | Device-indirect | one, behind device interface | dedicated TLB | NoC + interface latency each access |
//! | Core-integrated | control at the core's L2 | shared L2-TLB | L2 → LLC; compares remote in CHAs |

use crate::contract;
use crate::ctx::QueryCtx;
use crate::dpu;
use crate::fault::{FaultCode, QueryError};
use crate::firmware::{FirmwareStore, STEP_LIMIT};
use crate::header::Header;
use crate::qst::QueryStateTable;
use crate::uop::{MicroOp, OpOutcome};
use qei_cache::{AccessResult, HitLevel, MemoryHierarchy};
use qei_config::{Cycles, Log2Histogram, MachineConfig, Scheme, TlbParams};
use qei_mem::{GuestMem, Tlb, VirtAddr};
use qei_noc::Tile;
use qei_trace::{qst_track, Event, EventBuf, EventKind, TRACK_ISSUE};

/// Fixed cost of parsing the header and initializing a QST entry.
const HEADER_PARSE_CYCLES: u64 = 2;
/// Cost of enqueueing a request into the Query Queue.
const ENQUEUE_CYCLES: u64 = 2;
/// Pipelined extra-line cost for multi-line reads (beyond the first line).
const EXTRA_LINE_CYCLES: u64 = 8;

/// A typed query submission: the structure's header, the staged key, and —
/// for non-blocking `QUERY_NB` — the address the result is stored to.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct QueryRequest {
    /// Address of the 64-byte data-structure header.
    pub header: VirtAddr,
    /// Address of the staged key bytes.
    pub key: VirtAddr,
    /// `Some(addr)` selects non-blocking `QUERY_NB` (the result is written
    /// to `addr` on completion); `None` selects blocking `QUERY_B`.
    pub result: Option<VirtAddr>,
}

impl QueryRequest {
    /// A blocking `QUERY_B` request.
    pub fn blocking(header: VirtAddr, key: VirtAddr) -> Self {
        QueryRequest {
            header,
            key,
            result: None,
        }
    }

    /// A non-blocking `QUERY_NB` request storing its result to `result`.
    pub fn nonblocking(header: VirtAddr, key: VirtAddr, result: VirtAddr) -> Self {
        QueryRequest {
            header,
            key,
            result: Some(result),
        }
    }
}

/// Everything a submission needs from the surrounding simulation, bundled so
/// [`QeiAccelerator::submit`] keeps a two-argument signature.
#[derive(Debug)]
pub struct SubmitCtx<'a> {
    /// Cycle at which the core dispatches the query instruction.
    pub now: Cycles,
    /// The guest address space the query walks.
    pub guest: &'a mut GuestMem,
    /// The shared cache/NoC substrate the walk is priced on.
    pub mem: &'a mut MemoryHierarchy,
}

impl<'a> SubmitCtx<'a> {
    /// Bundles a submission context.
    pub fn new(now: Cycles, guest: &'a mut GuestMem, mem: &'a mut MemoryHierarchy) -> Self {
        SubmitCtx { now, guest, mem }
    }
}

/// Unified outcome of a query submission.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum QueryOutcome {
    /// A blocking query ran to completion: when the result reached the core
    /// through the Result Queue, and what it was (checked against the
    /// software baseline in tests) or the delivered exception.
    Completed {
        /// Cycle at which the core's query instruction can complete.
        completion: Cycles,
        /// The functional result or the delivered exception.
        result: Result<u64, FaultCode>,
    },
    /// A non-blocking query was accepted into the Query Queue; the core
    /// resumes at `accept`, and the result store lands in memory at `done`.
    Accepted {
        /// Cycle the instruction retires (request enqueued).
        accept: Cycles,
        /// Cycle the result (or fault code) store reaches memory.
        done: Cycles,
    },
    /// An admission layer refused the submission. The accelerator itself
    /// never rejects — the QST applies backpressure instead — but the
    /// serving layer's bounded admission queue does (`qei-serve`).
    Rejected {
        /// Earliest cycle the client may retry.
        retry_at: Cycles,
    },
}

impl QueryOutcome {
    /// The cycle at which the submitting core resumes execution.
    pub fn resume_at(&self) -> Cycles {
        match *self {
            QueryOutcome::Completed { completion, .. } => completion,
            QueryOutcome::Accepted { accept, .. } => accept,
            QueryOutcome::Rejected { retry_at } => retry_at,
        }
    }

    /// Blocking completion parts, if this outcome is `Completed`.
    pub fn completed(self) -> Option<(Cycles, Result<u64, FaultCode>)> {
        match self {
            QueryOutcome::Completed { completion, result } => Some((completion, result)),
            _ => None,
        }
    }

    /// The error classification, if the query produced no usable result.
    /// `Accepted` is not an error: the result materializes at `done`.
    pub fn error(&self) -> Option<QueryError> {
        match *self {
            QueryOutcome::Completed {
                result: Err(code), ..
            } => Some(QueryError::Fault(code)),
            QueryOutcome::Rejected { .. } => Some(QueryError::Rejected),
            _ => None,
        }
    }
}

/// Aggregate accelerator statistics (inputs to the power model and the
/// occupancy analysis).
#[derive(Debug, Clone, Copy, Default)]
pub struct AccelStats {
    /// Queries completed (including faulted ones).
    pub queries: u64,
    /// Queries that faulted.
    pub faults: u64,
    /// Memory micro-ops issued.
    pub mem_ops: u64,
    /// Cache lines fetched by memory micro-ops.
    pub lines_fetched: u64,
    /// Comparison micro-ops issued.
    pub compares: u64,
    /// Bytes compared.
    pub compare_bytes: u64,
    /// Hash micro-ops issued.
    pub hashes: u64,
    /// ALU micro-ops issued.
    pub alu_ops: u64,
    /// Remote (cross-NoC) comparator invocations.
    pub remote_compares: u64,
    /// TLB lookups performed by the accelerator path.
    pub tlb_lookups: u64,
    /// TLB misses (page walks) on the accelerator path.
    pub tlb_misses: u64,
    /// Sum of per-query latencies of *successful* queries (submit →
    /// completion), cycles. Faulted queries accumulate into
    /// `fault_latency_sum` instead, so a faulting workload no longer skews
    /// the success mean.
    pub latency_sum: u64,
    /// Sum of per-query latencies of faulted queries, cycles.
    pub fault_latency_sum: u64,
    /// Latency distribution of successful queries (log2 buckets).
    pub latency_hist: Log2Histogram,
    /// Latency distribution of faulted queries (log2 buckets).
    pub fault_latency_hist: Log2Histogram,
    /// Non-blocking queries aborted by flushes.
    pub nb_aborts: u64,
}

impl AccelStats {
    /// Mean per-query latency of successful completions only (0 when every
    /// query faulted or none ran).
    pub fn mean_latency(&self) -> f64 {
        let ok = self.queries - self.faults;
        if ok == 0 {
            0.0
        } else {
            self.latency_sum as f64 / ok as f64
        }
    }

    /// Adds another accelerator instance's counters (the chip's per-lane
    /// aggregate): plain sums plus histogram merges, so the merged stats
    /// are order-independent across lanes.
    pub fn merge(&mut self, other: &AccelStats) {
        self.queries += other.queries;
        self.faults += other.faults;
        self.mem_ops += other.mem_ops;
        self.lines_fetched += other.lines_fetched;
        self.compares += other.compares;
        self.compare_bytes += other.compare_bytes;
        self.hashes += other.hashes;
        self.alu_ops += other.alu_ops;
        self.remote_compares += other.remote_compares;
        self.tlb_lookups += other.tlb_lookups;
        self.tlb_misses += other.tlb_misses;
        self.latency_sum += other.latency_sum;
        self.fault_latency_sum += other.fault_latency_sum;
        self.latency_hist.merge(&other.latency_hist);
        self.fault_latency_hist.merge(&other.fault_latency_hist);
        self.nb_aborts += other.nb_aborts;
    }

    /// Records one completed query's latency into the per-outcome sum and
    /// histogram, keyed on the typed fault (if any) so fault accounting can
    /// never be conflated with the serving layer's reject/timeout keys
    /// (those live in `qei-serve`, under the `serve` registry group).
    fn record_latency(&mut self, latency: u64, fault: Option<FaultCode>) {
        if fault.is_some() {
            self.fault_latency_sum += latency;
            self.fault_latency_hist.record(latency);
        } else {
            self.latency_sum += latency;
            self.latency_hist.record(latency);
        }
    }

    /// Exports the accelerator counters into the run's central registry
    /// under the `accel` group.
    pub fn export_stats(&self, reg: &mut qei_config::StatsRegistry) {
        reg.set("accel", "queries", self.queries);
        reg.set("accel", "faults", self.faults);
        reg.set("accel", "mem_ops", self.mem_ops);
        reg.set("accel", "lines_fetched", self.lines_fetched);
        reg.set("accel", "compares", self.compares);
        reg.set("accel", "compare_bytes", self.compare_bytes);
        reg.set("accel", "hashes", self.hashes);
        reg.set("accel", "alu_ops", self.alu_ops);
        reg.set("accel", "remote_compares", self.remote_compares);
        reg.set("accel", "tlb_lookups", self.tlb_lookups);
        reg.set("accel", "tlb_misses", self.tlb_misses);
        reg.set("accel", "latency_sum", self.latency_sum);
        reg.set("accel", "latency_p50", self.latency_hist.p50());
        reg.set("accel", "latency_p90", self.latency_hist.p90());
        reg.set("accel", "latency_p99", self.latency_hist.p99());
        reg.set("accel", "latency_max", self.latency_hist.max());
        reg.set("accel", "latency_hist", &self.latency_hist);
        reg.set("accel", "fault_latency_sum", self.fault_latency_sum);
        reg.set("accel", "fault_latency_p99", self.fault_latency_hist.p99());
        reg.set("accel", "fault_latency_max", self.fault_latency_hist.max());
        reg.set("accel", "fault_latency_hist", &self.fault_latency_hist);
        reg.set("accel", "nb_aborts", self.nb_aborts);
        reg.set("accel", "mean_latency", self.mean_latency());
    }
}

/// The `MemAccess` event's level payload.
fn level_code(level: HitLevel) -> u64 {
    match level {
        HitLevel::L1 => 1,
        HitLevel::L2 => 2,
        HitLevel::Llc => 3,
        HitLevel::Dram => 4,
    }
}

/// Where a firmware-walk step executes: the serving instance and the walk's
/// current time. Bundled so the per-op pricing helpers stay at a readable
/// arity.
#[derive(Debug, Clone, Copy)]
struct WalkPos {
    inst: usize,
    slot: usize,
    t: Cycles,
}

/// One accelerator deployment for a single issuing core (the paper evaluates
/// single-threaded benchmarks; the instance layout still follows the scheme).
#[derive(Debug)]
pub struct QeiAccelerator {
    scheme: Scheme,
    config: MachineConfig,
    core_id: u32,
    firmware: FirmwareStore,
    /// One QST per instance (per CHA for CHA-based, one for the others).
    qsts: Vec<QueryStateTable>,
    /// CEE issue-port cumulative op count per instance. The CEE processes
    /// one ready entry per cycle, so op `n` cannot issue before cycle `n` —
    /// a throughput bound that is independent of simulation (submit) order.
    cee_issued: Vec<u64>,
    /// Per-instance translation TLB (empty vec for CHA-noTLB).
    tlbs: Vec<Tlb>,
    /// Comparator pools: (comparator count, cumulative busy cycles) per CHA
    /// for CHA-compare schemes, a single device pool otherwise. Cumulative
    /// busy time over pool width bounds throughput.
    comparators: Vec<(u32, u64)>,
    /// Device interface latency added to every data access (Device-indirect);
    /// the Fig. 8 sweep overrides this.
    device_data_latency: u64,
    /// Ablation switch: force comparisons to run locally in the accelerator
    /// (fetch the line, compare in the DPU) even under CHA-compare schemes.
    force_local_compare: bool,
    /// Latest non-blocking completion (drain point).
    nb_drain: Cycles,
    /// Pending non-blocking completions not yet polled.
    nb_outstanding: Vec<(VirtAddr, Cycles)>,
    stats: AccelStats,
    /// Query-lifecycle event ring (no-op unless tracing is enabled).
    trace: EventBuf,
}

impl QeiAccelerator {
    /// Builds the accelerator for `scheme`, issuing from core `core_id`.
    pub fn new(config: &MachineConfig, scheme: Scheme, core_id: u32) -> Self {
        let cores = config.cores as usize;
        let qst_entries = config.qei.qst_entries;
        let (instances, entries_per) = match scheme {
            Scheme::ChaTlb | Scheme::ChaNoTlb => (cores, qst_entries),
            Scheme::CoreIntegrated => (1, qst_entries),
            // Device schemes: one centralized accelerator sized for the chip
            // (10 × cores entries, paper §VI-A).
            Scheme::DeviceDirect | Scheme::DeviceIndirect => (1, qst_entries * config.cores),
        };
        let tlb_params = |entries: u32| TlbParams {
            entries,
            ways: 4,
            hit_latency: 1,
        };
        let accel_tlb = config.qei.accel_tlb_entries;
        let tlbs = match scheme {
            Scheme::ChaTlb => (0..instances)
                .map(|_| Tlb::new(tlb_params(accel_tlb)))
                .collect(),
            Scheme::ChaNoTlb => Vec::new(),
            // Core-integrated shares the core's L2-TLB: same geometry, and
            // its area is *not* charged to QEI (see `qei-power`).
            Scheme::CoreIntegrated => vec![Tlb::new(config.l2_tlb)],
            Scheme::DeviceDirect | Scheme::DeviceIndirect => {
                vec![Tlb::new(tlb_params(accel_tlb))]
            }
        };
        let comparators = if scheme.comparators_in_cha() {
            vec![(config.qei.comparators_per_cha, 0u64); cores]
        } else {
            vec![(config.qei.comparators_per_dpu_device, 0u64)]
        };
        QeiAccelerator {
            scheme,
            config: config.clone(),
            core_id,
            firmware: FirmwareStore::with_builtins(),
            qsts: (0..instances)
                .map(|_| QueryStateTable::new(entries_per))
                .collect(),
            cee_issued: vec![0; instances],
            tlbs,
            comparators,
            device_data_latency: config
                .qei
                .device_data_latency
                .unwrap_or(scheme.params().accel_data_latency),
            force_local_compare: false,
            nb_drain: Cycles::ZERO,
            nb_outstanding: Vec::new(),
            stats: AccelStats::default(),
            trace: EventBuf::new(),
        }
    }

    /// The integration scheme.
    pub fn scheme(&self) -> Scheme {
        self.scheme
    }

    /// Replaces the firmware store (to exercise firmware updates).
    pub fn firmware_mut(&mut self) -> &mut FirmwareStore {
        &mut self.firmware
    }

    /// Overrides the Device-indirect per-access interface latency
    /// (the paper's Fig. 8 sweep: 50–2000 cycles).
    pub fn set_device_data_latency(&mut self, cycles: u64) {
        self.device_data_latency = cycles;
    }

    /// Ablation: disable the near-data (in-CHA) comparison path — every
    /// comparison fetches its line to the accelerator and runs in a local
    /// comparator instead. Quantifies what the distributed comparators buy.
    pub fn set_force_local_compare(&mut self, force: bool) {
        self.force_local_compare = force;
    }

    /// Accumulated statistics.
    pub fn stats(&self) -> AccelStats {
        self.stats
    }

    /// Starts a new measurement epoch: clears every busy-until clock
    /// (QST slots, CEE port, comparators), pending non-blocking state, and
    /// statistics, while keeping the translation TLBs warm. Used between a
    /// warm-up pass and the measured pass.
    pub fn reset_epoch(&mut self) {
        for q in &mut self.qsts {
            q.reset();
        }
        self.cee_issued.fill(0);
        for pool in &mut self.comparators {
            pool.1 = 0;
        }
        self.nb_drain = Cycles::ZERO;
        self.nb_outstanding.clear();
        self.stats = AccelStats::default();
        self.trace.clear();
    }

    /// Takes the buffered trace events (chronological) plus the overwrite
    /// count, leaving the buffer empty.
    pub fn drain_trace(&mut self) -> (Vec<Event>, u64) {
        self.trace.drain()
    }

    /// QST occupancy over a window (paper: 50–90% at 10 entries).
    pub fn qst_occupancy(&self, window: Cycles) -> f64 {
        let total: f64 = self
            .qsts
            .iter()
            .map(|q| q.stats().occupancy(q.entries(), window))
            .sum();
        total / self.qsts.len() as f64
    }

    /// Earliest time all issued non-blocking results are in memory.
    pub fn nb_drain_time(&self) -> Cycles {
        self.nb_drain
    }

    // ------------------------------------------------------------------
    // Submission
    // ------------------------------------------------------------------

    /// Submits a query. `req.result` selects the instruction flavor:
    /// `None` dispatches a blocking `QUERY_B` (the outcome is
    /// [`QueryOutcome::Completed`]); `Some(addr)` dispatches a non-blocking
    /// `QUERY_NB` whose result is written to `addr` when the query completes
    /// (the outcome is [`QueryOutcome::Accepted`]). The accelerator never
    /// returns [`QueryOutcome::Rejected`] — a full QST shows up as
    /// backpressure folded into the completion time instead.
    pub fn submit(&mut self, req: QueryRequest, ctx: SubmitCtx<'_>) -> QueryOutcome {
        match req.result {
            None => self.submit_blocking(req, ctx),
            Some(result_addr) => self.submit_nonblocking(req, result_addr, ctx),
        }
    }

    /// Blocking `QUERY_B` path.
    fn submit_blocking(&mut self, req: QueryRequest, ctx: SubmitCtx<'_>) -> QueryOutcome {
        let SubmitCtx { now, guest, mem } = ctx;
        let qid = self.stats.queries;
        self.trace
            .emit(now.as_u64(), TRACK_ISSUE, EventKind::QueryIssue, qid, 1);
        let (done, result) = self.run_one(now, req.header, req.key, guest, mem);
        // Result returns to the core through the Result Queue.
        let completion = done + Cycles(self.request_latency(mem, req.header));
        self.stats
            .record_latency((completion - now).as_u64(), result.err());
        self.trace.emit(
            completion.as_u64(),
            TRACK_ISSUE,
            EventKind::QueryDone,
            result.err().map_or(0, |c| c.encode() & 0xFF),
            qid,
        );
        QueryOutcome::Completed { completion, result }
    }

    /// Non-blocking `QUERY_NB` path: the instruction retires at `accept`;
    /// the result is written to `result_addr` when the query completes.
    fn submit_nonblocking(
        &mut self,
        req: QueryRequest,
        result_addr: VirtAddr,
        ctx: SubmitCtx<'_>,
    ) -> QueryOutcome {
        let SubmitCtx { now, guest, mem } = ctx;
        let qid = self.stats.queries;
        self.trace
            .emit(now.as_u64(), TRACK_ISSUE, EventKind::QueryIssue, qid, 0);
        let (done, result) = self.run_one(now, req.header, req.key, guest, mem);
        // Write the result (or fault code) to the designated address.
        let wire = match result {
            Ok(v) => v.max(1), // completed-but-missing still sets a flag bit
            Err(code) => code.encode(),
        };
        let _ = guest.write_u64(result_addr, wire);
        let store_done = {
            let pa = guest.translate(result_addr);
            match pa {
                Ok(pa) => {
                    let r = self.data_access(mem, pa, true, done).latency;
                    done + r
                }
                Err(_) => done,
            }
        };
        self.nb_drain = self.nb_drain.max(store_done);
        self.nb_outstanding.push((result_addr, store_done));
        self.stats
            .record_latency((store_done - now).as_u64(), result.err());
        self.trace.emit(
            store_done.as_u64(),
            TRACK_ISSUE,
            EventKind::QueryDone,
            result.err().map_or(0, |c| c.encode() & 0xFF),
            qid,
        );
        // Accept = request enqueued in the Query Queue; backpressure shows up
        // when the QST was full (claim waited), which run_one folded into
        // `done`; approximating accept as enqueue + request flight.
        QueryOutcome::Accepted {
            accept: now + Cycles(ENQUEUE_CYCLES),
            done: store_done,
        }
    }

    /// Flushes the accelerator (interrupt/context switch, §IV-D). Abort codes
    /// are written with coalesced non-temporal stores for non-blocking
    /// entries; returns the cycle the flush completes (the core cannot start
    /// the interrupt handler before this).
    pub fn flush(&mut self, now: Cycles, guest: &mut GuestMem) -> Cycles {
        let mut aborted_nb = 0u32;
        for q in &mut self.qsts {
            q.flush(now);
        }
        let pending: Vec<(VirtAddr, Cycles)> = self
            .nb_outstanding
            .drain(..)
            .filter(|&(_, done)| done > now)
            .collect();
        for (addr, _) in &pending {
            let _ = guest.write_u64(*addr, FaultCode::Aborted.encode());
            aborted_nb += 1;
        }
        self.stats.nb_aborts += aborted_nb as u64;
        // Coalesced non-temporal stores: ~1 store per cacheline of results,
        // after address translation (already translated at submit).
        let lines = aborted_nb
            .div_ceil(8)
            .max(if aborted_nb > 0 { 1 } else { 0 });
        let flush_done = now + Cycles(lines as u64 * 4);
        self.nb_drain = flush_done;
        flush_done
    }

    // ------------------------------------------------------------------
    // The per-query timing walk
    // ------------------------------------------------------------------

    fn run_one(
        &mut self,
        now: Cycles,
        header_addr: VirtAddr,
        key_addr: VirtAddr,
        guest: &mut GuestMem,
        mem: &mut MemoryHierarchy,
    ) -> (Cycles, Result<u64, FaultCode>) {
        let qid = self.stats.queries;
        self.stats.queries += 1;

        // Functional header fetch to learn the instance placement.
        let header = match Header::read_from(guest, header_addr) {
            Ok(h) if h.stale() => {
                // Seqlock epoch gate (mutation in flight): fault before any
                // structure bytes are walked, mirroring `exec::run_query`.
                self.stats.faults += 1;
                return (
                    now + Cycles(self.request_latency(mem, header_addr)),
                    Err(FaultCode::StaleStructure),
                );
            }
            Ok(h) => h,
            Err(code) => {
                self.stats.faults += 1;
                return (
                    now + Cycles(self.request_latency(mem, header_addr)),
                    Err(code),
                );
            }
        };

        let inst = self.instance_of(mem, guest, key_addr);

        // Request flight + QST claim (backpressure if full).
        let arrive = now + Cycles(ENQUEUE_CYCLES + self.request_latency(mem, header_addr));
        let (start, slot) = self.qsts[inst].claim(arrive);
        let track = qst_track(inst, slot);
        self.trace
            .emit(start.as_u64(), track, EventKind::QstClaim, qid, slot as u64);
        let mut t = start;

        // Header fetch + parse (one line).
        t = t + self.mem_op(
            mem,
            guest,
            WalkPos { inst, slot, t },
            header_addr,
            64,
            false,
        );
        t += Cycles(HEADER_PARSE_CYCLES);

        // Key fetch (MEM.K).
        let key = match guest.bytes(key_addr, header.key_len as usize) {
            Ok(k) => k.into_owned(),
            Err(e) => {
                self.stats.faults += 1;
                self.qsts[inst].complete(slot, start, t);
                self.trace
                    .emit(t.as_u64(), track, EventKind::QstRelease, qid, slot as u64);
                return (t, Err(FaultCode::from(e)));
            }
        };
        t = t + self.mem_op(
            mem,
            guest,
            WalkPos { inst, slot, t },
            key_addr,
            header.key_len as u32,
            false,
        );

        let program = match self.firmware.lookup(header.dtype.to_byte(), header.subtype) {
            Some(p) => p.clone(),
            None => {
                self.stats.faults += 1;
                self.qsts[inst].complete(slot, start, t);
                self.trace
                    .emit(t.as_u64(), track, EventKind::QstRelease, qid, slot as u64);
                return (t, Err(FaultCode::UnknownType));
            }
        };

        let mut ctx = QueryCtx::new(header, key);
        let mut outcome = OpOutcome::Start;
        // The staged intermediate data: when a Compare targets bytes inside
        // the most recently fetched region, the comparison runs locally in
        // the DPU on the staged line instead of as a remote micro-op
        // (paper §V-A: "a small key comparison can be done in one of the
        // DPUs if the key is part of the fetched cacheline").
        let mut staged: Option<(u64, u64)> = None;
        let result = loop {
            // CEE issue port: one ready entry processed per cycle. The
            // cumulative op count is a lower bound on this op's issue time.
            t = t.max(Cycles(self.cee_issued[inst])) + Cycles(1);
            self.cee_issued[inst] += 1;

            let op = program.step(&mut ctx, outcome);
            match op {
                MicroOp::Done { result } => {
                    contract::check_completed(&ctx);
                    break Ok(result);
                }
                MicroOp::Fault { code } => break Err(code),
                other => {
                    if ctx.steps >= STEP_LIMIT {
                        break Err(FaultCode::StepLimit);
                    }
                    let class = match other {
                        MicroOp::Read { .. } => 0,
                        MicroOp::Compare { .. } => 1,
                        MicroOp::Hash { .. } => 2,
                        _ => 3,
                    };
                    self.trace
                        .emit(t.as_u64(), track, EventKind::UopIssue, class, qid);
                    // Price the op, then execute it functionally.
                    t = t + self.price_op(
                        mem,
                        guest,
                        WalkPos { inst, slot, t },
                        &ctx,
                        other,
                        staged,
                    );
                    if let MicroOp::Read { addr, len } = other {
                        staged = Some((addr.0, addr.0 + len as u64));
                    }
                    match dpu::execute(guest, &mut ctx, other) {
                        Ok(o) => outcome = o,
                        Err(code) => break Err(code),
                    }
                }
            }
        };

        if result.is_err() {
            self.stats.faults += 1;
        }
        self.qsts[inst].complete(slot, start, t);
        self.trace
            .emit(t.as_u64(), track, EventKind::QstRelease, qid, slot as u64);
        (t, result)
    }

    /// Which instance serves a query. CHA-based schemes distribute requests
    /// across the CHAs with the NUCA hash (HALO-style); we key it on the
    /// query key's line, which is what spreads lookups into one shared
    /// structure over all slices.
    fn instance_of(&self, mem: &MemoryHierarchy, guest: &GuestMem, key_addr: VirtAddr) -> usize {
        if self.qsts.len() == 1 {
            return 0;
        }
        match guest.translate(key_addr) {
            Ok(pa) => mem.home_slice(pa) as usize,
            Err(_) => 0,
        }
    }

    /// One-way core ↔ accelerator request latency for this scheme.
    fn request_latency(&self, mem: &mut MemoryHierarchy, _header_addr: VirtAddr) -> u64 {
        let base = match self.scheme {
            // Core-integrated: the Query Queue lives beside the L2.
            Scheme::CoreIntegrated => self.scheme.params().core_accel_latency,
            // CHA-based: distance from the issuing core to the serving CHA;
            // Table I's 40–60 cycle midpoint covers the mesh traversal.
            Scheme::ChaTlb | Scheme::ChaNoTlb => self.scheme.params().core_accel_latency,
            // Device-direct: real mesh hops to the device stop plus the
            // heterogeneous-core interface machinery.
            Scheme::DeviceDirect => {
                let dev = mem.noc().device_tile();
                let hops = mem.noc().hops(Tile(self.core_id), dev) as u64;
                hops * self.config.noc_hop_latency + 60
            }
            // Device-indirect: the standard device interface dominates.
            Scheme::DeviceIndirect => self.scheme.params().core_accel_latency,
        };
        base.max(self.config.l2.latency)
    }

    /// Prices a micro-op without executing it functionally.
    fn price_op(
        &mut self,
        mem: &mut MemoryHierarchy,
        guest: &GuestMem,
        pos: WalkPos,
        ctx: &QueryCtx,
        op: MicroOp,
        staged: Option<(u64, u64)>,
    ) -> Cycles {
        match op {
            MicroOp::Read { addr, len } => self.mem_op(mem, guest, pos, addr, len, false),
            MicroOp::Compare { addr, len, .. } => {
                let inline = staged.is_some_and(|(s, e)| addr.0 >= s && addr.0 + len as u64 <= e);
                self.compare_op(mem, guest, pos, addr, len, inline)
            }
            MicroOp::Hash { .. } => {
                self.stats.hashes += 1;
                // Hash unit latency scales with key length (8 B per cycle
                // through the pipeline) plus the fixed pipeline depth.
                let chunks = (ctx.key.len() as u64).div_ceil(8);
                Cycles(self.config.qei.hash_latency + chunks)
            }
            MicroOp::Alu { n } => {
                self.stats.alu_ops += n as u64;
                // `alus_per_dpu` ALU ops complete per cycle.
                Cycles((n as u64).div_ceil(self.config.qei.alus_per_dpu as u64))
            }
            MicroOp::Done { .. } | MicroOp::Fault { .. } => Cycles::ZERO,
        }
    }

    /// Translation latency on the accelerator path for this scheme.
    fn translate(
        &mut self,
        mem: &mut MemoryHierarchy,
        inst: usize,
        addr: VirtAddr,
        _now: u64,
    ) -> u64 {
        self.stats.tlb_lookups += 1;
        match self.scheme {
            Scheme::ChaNoTlb => {
                // Translation round-trips to the owning core's MMU. The
                // request/response messages are tiny and pipelined on a
                // dedicated virtual channel, so the cost is one traversal's
                // worth of hops plus the MMU lookup (the core's L2-TLB is
                // warm for the structure being queried).
                let hops = mem.noc().hops(Tile(inst as u32), Tile(self.core_id)) as u64;
                hops * self.config.noc_hop_latency + self.config.l2_tlb.hit_latency + 4
            }
            _ => {
                let idx = inst.min(self.tlbs.len() - 1);
                let tlb = &mut self.tlbs[idx];
                if tlb.access(addr.vpn()) {
                    1
                } else {
                    self.stats.tlb_misses += 1;
                    1 + self.config.page_walk_latency
                }
            }
        }
    }

    /// A data access (line-granular) from the accelerator's position. The
    /// returned latency folds in the scheme's path (NoC hops, interface
    /// latency); the level is the cache level that serviced the line.
    fn data_access(
        &mut self,
        mem: &mut MemoryHierarchy,
        pa: qei_mem::PhysAddr,
        write: bool,
        t: Cycles,
    ) -> AccessResult {
        let now = t.as_u64();
        match self.scheme {
            Scheme::ChaTlb | Scheme::ChaNoTlb => {
                // Served at the home slice; the instance *is* a CHA. The
                // instance→home hop is inside access_cha.
                let home = mem.home_slice(pa);
                mem.access_cha(home, pa, write, now)
            }
            Scheme::CoreIntegrated => mem.access_l2_read_through(self.core_id, pa, write, now),
            Scheme::DeviceDirect => {
                let dev = mem.noc().device_tile();
                let home = mem.home_slice(pa);
                let hop = mem.noc_mut().transfer(dev, Tile(home), 64, now);
                let inner = mem.access_cha(home, pa, write, now);
                AccessResult {
                    latency: hop + inner.latency,
                    level: inner.level,
                }
            }
            Scheme::DeviceIndirect => {
                let dev = mem.noc().device_tile();
                let home = mem.home_slice(pa);
                let hop = mem.noc_mut().transfer(dev, Tile(home), 64, now);
                let inner = mem.access_cha(home, pa, write, now);
                AccessResult {
                    latency: hop + inner.latency + Cycles(self.device_data_latency),
                    level: inner.level,
                }
            }
        }
    }

    /// A memory micro-op: translation + line fetch(es).
    fn mem_op(
        &mut self,
        mem: &mut MemoryHierarchy,
        guest: &GuestMem,
        pos: WalkPos,
        addr: VirtAddr,
        len: u32,
        write: bool,
    ) -> Cycles {
        let WalkPos { inst, slot, t } = pos;
        self.stats.mem_ops += 1;
        let lines = MicroOp::Read { addr, len }.lines_touched().max(1);
        self.stats.lines_fetched += lines as u64;
        let tlb = self.translate(mem, inst, addr, t.as_u64());
        let pa = match guest.translate(addr) {
            Ok(pa) => pa,
            Err(_) => {
                // The fault will surface in the functional step; charge the
                // walk that discovered it.
                return Cycles(tlb + self.config.page_walk_latency);
            }
        };
        let first = self.data_access(mem, pa, write, t + Cycles(tlb));
        self.trace.emit(
            t.as_u64(),
            qst_track(inst, slot),
            EventKind::MemAccess,
            level_code(first.level),
            lines as u64,
        );
        // Subsequent lines pipeline behind the first.
        Cycles(tlb) + first.latency + Cycles((lines as u64 - 1) * EXTRA_LINE_CYCLES)
    }

    /// A comparison micro-op. `inline` compares run on the staged line in a
    /// local DPU comparator; others are remote micro-ops to the home CHA.
    fn compare_op(
        &mut self,
        mem: &mut MemoryHierarchy,
        guest: &GuestMem,
        pos: WalkPos,
        addr: VirtAddr,
        len: u32,
        inline: bool,
    ) -> Cycles {
        let WalkPos { inst, slot: _, t } = pos;
        self.stats.compares += 1;
        self.stats.compare_bytes += len as u64;
        if inline {
            // Already staged: no translation, no data movement. The local
            // comparator pool is per instance; contention is negligible at
            // one compare per staged line, so charge the compare itself.
            return Cycles(
                (len as u64).div_ceil(self.config.qei.comparator_bytes_per_cycle as u64),
            );
        }
        let tlb = self.translate(mem, inst, addr, t.as_u64());
        let pa = match guest.translate(addr) {
            Ok(pa) => pa,
            Err(_) => return Cycles(tlb + self.config.page_walk_latency),
        };
        let cmp_cycles = (len as u64).div_ceil(self.config.qei.comparator_bytes_per_cycle as u64);
        let after_tlb = t + Cycles(tlb);

        if self.scheme.comparators_in_cha() && !self.force_local_compare {
            // Remote micro-op: travel to the home CHA, read the line there,
            // run on one of its comparators, return the verdict.
            let home = mem.home_slice(pa) as usize;
            let origin = match self.scheme {
                Scheme::CoreIntegrated => Tile(self.core_id),
                _ => Tile(inst as u32),
            };
            let mut travel = Cycles::ZERO;
            if origin != Tile(home as u32) {
                self.stats.remote_compares += 1;
                // Request there + verdict back (16 B messages).
                travel += mem
                    .noc_mut()
                    .transfer(origin, Tile(home as u32), 16, after_tlb.as_u64());
                travel += mem
                    .noc_mut()
                    .transfer(Tile(home as u32), origin, 16, after_tlb.as_u64());
            }
            let data = mem
                .access_cha(home as u32, pa, false, after_tlb.as_u64())
                .latency;
            let queue = self.comparator_queue(home, cmp_cycles, after_tlb + data);
            (after_tlb + data + queue + Cycles(cmp_cycles) + travel) - t
        } else {
            // Device: fetch the line to the device, compare locally.
            let data = self.data_access(mem, pa, false, after_tlb).latency;
            let queue = self.comparator_queue(0, cmp_cycles, after_tlb + data);
            (after_tlb + data + queue + Cycles(cmp_cycles)) - t
        }
    }

    /// Throughput-based comparator queueing: the pool's cumulative busy time
    /// divided by its width bounds when a new comparison can begin.
    fn comparator_queue(&mut self, pool: usize, cmp_cycles: u64, ready: Cycles) -> Cycles {
        let (width, busy) = &mut self.comparators[pool];
        let earliest = Cycles(*busy / *width as u64);
        *busy += cmp_cycles;
        earliest.saturating_sub(ready)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::exec::run_query;
    use crate::header::{DsType, HEADER_BYTES};

    /// Builds a linked list of `n` nodes with 8-byte keys k0..k(n-1).
    fn build_list(mem: &mut GuestMem, n: u64) -> VirtAddr {
        let mut head = 0u64;
        for i in (0..n).rev() {
            let key = format!("k{i:07}");
            let kb = mem.alloc(8, 8).unwrap();
            mem.write(kb, key.as_bytes()).unwrap();
            let node = mem.alloc(24, 8).unwrap();
            mem.write_u64(node, head).unwrap();
            mem.write_u64(node + 8, kb.0).unwrap();
            mem.write_u64(node + 16, 100 + i).unwrap();
            head = node.0;
        }
        let header = Header {
            ds_ptr: VirtAddr(head),
            dtype: DsType::LinkedList,
            subtype: 0,
            key_len: 8,
            flags: 0,
            capacity: 0,
            aux0: 0,
            aux1: 0,
            aux2: 0,
            epoch: 0,
        };
        let ha = mem.alloc(HEADER_BYTES, 64).unwrap();
        header.write_to(mem, ha).unwrap();
        ha
    }

    fn key_at(mem: &mut GuestMem, i: u64) -> VirtAddr {
        let kb = mem.alloc(8, 8).unwrap();
        mem.write(kb, format!("k{i:07}").as_bytes()).unwrap();
        kb
    }

    /// Blocking submit through the typed API; panics unless it completed.
    fn submit_b(
        accel: &mut QeiAccelerator,
        now: Cycles,
        ha: VirtAddr,
        ka: VirtAddr,
        guest: &mut GuestMem,
        hier: &mut MemoryHierarchy,
    ) -> (Cycles, Result<u64, FaultCode>) {
        accel
            .submit(
                QueryRequest::blocking(ha, ka),
                SubmitCtx::new(now, guest, hier),
            )
            .completed()
            .unwrap()
    }

    /// Non-blocking submit through the typed API; returns (accept, done).
    fn submit_nb(
        accel: &mut QeiAccelerator,
        now: Cycles,
        ha: VirtAddr,
        ka: VirtAddr,
        ra: VirtAddr,
        guest: &mut GuestMem,
        hier: &mut MemoryHierarchy,
    ) -> (Cycles, Cycles) {
        match accel.submit(
            QueryRequest::nonblocking(ha, ka, ra),
            SubmitCtx::new(now, guest, hier),
        ) {
            QueryOutcome::Accepted { accept, done } => (accept, done),
            other => panic!("nonblocking submit must be accepted: {other:?}"),
        }
    }

    #[test]
    fn timing_result_matches_functional_result() {
        let config = MachineConfig::skylake_sp_24();
        for scheme in Scheme::ALL {
            let mut guest = GuestMem::new(31);
            let mut hier = MemoryHierarchy::new(&config);
            let mut accel = QeiAccelerator::new(&config, scheme, 0);
            let fw = FirmwareStore::with_builtins();
            let ha = build_list(&mut guest, 16);
            for i in [0u64, 7, 15, 99] {
                let ka = key_at(&mut guest, i);
                let functional = run_query(&fw, &guest, ha, ka);
                let (completion, result) =
                    submit_b(&mut accel, Cycles(0), ha, ka, &mut guest, &mut hier);
                assert_eq!(result, functional, "{scheme}: key {i}");
                assert!(completion > Cycles(0));
            }
        }
    }

    #[test]
    fn overlapped_queries_beat_serial_sum() {
        let config = MachineConfig::skylake_sp_24();
        let mut guest = GuestMem::new(32);
        let mut hier = MemoryHierarchy::new(&config);
        let mut accel = QeiAccelerator::new(&config, Scheme::CoreIntegrated, 0);
        let ha = build_list(&mut guest, 12);

        // Serial: each submitted after the previous completes.
        let mut t = Cycles(0);
        let mut serial_span = 0u64;
        for i in 0..8u64 {
            let ka = key_at(&mut guest, i % 12);
            let (completion, _) = submit_b(&mut accel, t, ha, ka, &mut guest, &mut hier);
            serial_span += (completion - t).as_u64();
            t = completion;
        }

        // Overlapped: all submitted at once (fresh accelerator, same data).
        let mut hier2 = MemoryHierarchy::new(&config);
        let mut accel2 = QeiAccelerator::new(&config, Scheme::CoreIntegrated, 0);
        let mut last = Cycles(0);
        for i in 0..8u64 {
            let ka = key_at(&mut guest, i % 12);
            let (completion, _) = submit_b(&mut accel2, Cycles(0), ha, ka, &mut guest, &mut hier2);
            last = last.max(completion);
        }
        assert!(
            last.as_u64() < serial_span,
            "overlapped {last} should beat serial {serial_span}"
        );
    }

    #[test]
    fn qst_capacity_creates_backpressure() {
        let config = MachineConfig::skylake_sp_24();
        let mut guest = GuestMem::new(33);
        let mut hier = MemoryHierarchy::new(&config);
        let mut accel = QeiAccelerator::new(&config, Scheme::CoreIntegrated, 0);
        let ha = build_list(&mut guest, 64);
        // Far more simultaneous queries than the 10-entry QST.
        let mut completions = Vec::new();
        for i in 0..40u64 {
            let ka = key_at(&mut guest, 63 - (i % 64));
            let (completion, _) = submit_b(&mut accel, Cycles(0), ha, ka, &mut guest, &mut hier);
            completions.push(completion.as_u64());
        }
        let max = *completions.iter().max().unwrap();
        let min = *completions.iter().min().unwrap();
        // With only 10 slots, the last queries must wait for earlier ones.
        assert!(max > min * 2, "no backpressure observed: {min}..{max}");
    }

    #[test]
    fn device_indirect_latency_sweep_monotone() {
        let config = MachineConfig::skylake_sp_24();
        let mut spans = Vec::new();
        for lat in [50u64, 500, 2000] {
            let mut guest = GuestMem::new(34);
            let mut hier = MemoryHierarchy::new(&config);
            let mut accel = QeiAccelerator::new(&config, Scheme::DeviceIndirect, 0);
            accel.set_device_data_latency(lat);
            let ha = build_list(&mut guest, 8);
            let ka = key_at(&mut guest, 7);
            let (completion, _) = submit_b(&mut accel, Cycles(0), ha, ka, &mut guest, &mut hier);
            spans.push(completion.as_u64());
        }
        assert!(spans[0] < spans[1] && spans[1] < spans[2], "{spans:?}");
    }

    #[test]
    fn nonblocking_writes_result_and_drains() {
        let config = MachineConfig::skylake_sp_24();
        let mut guest = GuestMem::new(35);
        let mut hier = MemoryHierarchy::new(&config);
        let mut accel = QeiAccelerator::new(&config, Scheme::CoreIntegrated, 0);
        let ha = build_list(&mut guest, 8);
        let ka = key_at(&mut guest, 3);
        let ra = guest.alloc(8, 8).unwrap();
        let (accept, done) = submit_nb(&mut accel, Cycles(5), ha, ka, ra, &mut guest, &mut hier);
        assert!(accept >= Cycles(5));
        assert!(done > accept);
        assert!(accel.nb_drain_time() > accept);
        assert_eq!(guest.read_u64(ra).unwrap(), 103);
    }

    #[test]
    fn nonblocking_fault_is_encoded_at_result_address() {
        let config = MachineConfig::skylake_sp_24();
        let mut guest = GuestMem::new(36);
        let mut hier = MemoryHierarchy::new(&config);
        let mut accel = QeiAccelerator::new(&config, Scheme::ChaTlb, 0);
        // Header points at unmapped memory.
        let header = Header {
            ds_ptr: VirtAddr(0xbad0_0000),
            dtype: DsType::LinkedList,
            subtype: 0,
            key_len: 8,
            flags: 0,
            capacity: 0,
            aux0: 0,
            aux1: 0,
            aux2: 0,
            epoch: 0,
        };
        let ha = guest.alloc(HEADER_BYTES, 64).unwrap();
        header.write_to(&mut guest, ha).unwrap();
        let ka = key_at(&mut guest, 0);
        let ra = guest.alloc(8, 8).unwrap();
        submit_nb(&mut accel, Cycles(0), ha, ka, ra, &mut guest, &mut hier);
        let wire = guest.read_u64(ra).unwrap();
        assert_eq!(FaultCode::decode(wire), Some(FaultCode::PageFault));
    }

    #[test]
    fn flush_aborts_outstanding_nonblocking() {
        let config = MachineConfig::skylake_sp_24();
        let mut guest = GuestMem::new(37);
        let mut hier = MemoryHierarchy::new(&config);
        let mut accel = QeiAccelerator::new(&config, Scheme::CoreIntegrated, 0);
        let ha = build_list(&mut guest, 32);
        let ra = guest.alloc(8 * 4, 8).unwrap();
        for i in 0..4u64 {
            let ka = key_at(&mut guest, 31 - i);
            submit_nb(
                &mut accel,
                Cycles(0),
                ha,
                ka,
                ra + i * 8,
                &mut guest,
                &mut hier,
            );
        }
        // Flush *before* any completion time: everything outstanding aborts.
        let done = accel.flush(Cycles(1), &mut guest);
        assert!(done > Cycles(1));
        assert_eq!(accel.stats().nb_aborts, 4);
        for i in 0..4u64 {
            let wire = guest.read_u64(ra + i * 8).unwrap();
            assert_eq!(FaultCode::decode(wire), Some(FaultCode::Aborted));
        }
    }

    #[test]
    fn core_integrated_issues_remote_compares_for_out_of_line_keys() {
        let config = MachineConfig::skylake_sp_24();
        let mut guest = GuestMem::new(39);
        let mut hier = MemoryHierarchy::new(&config);
        let mut accel = QeiAccelerator::new(&config, Scheme::CoreIntegrated, 0);
        let ha = build_list(&mut guest, 12);
        for i in 0..12u64 {
            let ka = key_at(&mut guest, i);
            let _ = submit_b(&mut accel, Cycles(0), ha, ka, &mut guest, &mut hier);
        }
        let s = accel.stats();
        // Linked-list keys live out of line; most comparisons travel to a
        // remote CHA (only lines homed at the issuing core's slice stay
        // local).
        assert!(
            s.remote_compares > s.compares / 2,
            "remote {} of {}",
            s.remote_compares,
            s.compares
        );
    }

    #[test]
    fn tiny_accel_tlb_misses_show_up() {
        let mut config = MachineConfig::skylake_sp_24();
        config.qei.accel_tlb_entries = 8;
        let mut guest = GuestMem::new(40);
        let mut hier = MemoryHierarchy::new(&config);
        let mut accel = QeiAccelerator::new(&config, Scheme::DeviceDirect, 0);
        // The bump allocator packs nodes densely (~48 B per item including
        // the key buffer), so 400 items span a handful of pages; the first
        // walk must still take compulsory misses on each of them.
        let ha = build_list(&mut guest, 400);
        let ka = key_at(&mut guest, 399);
        let _ = submit_b(&mut accel, Cycles(0), ha, ka, &mut guest, &mut hier);
        let s = accel.stats();
        assert!(s.tlb_misses >= 3, "misses {}", s.tlb_misses);
        assert!(s.tlb_lookups > 100 * s.tlb_misses, "dense pages amortize");
    }

    #[test]
    fn occupancy_reflects_submitted_work() {
        let config = MachineConfig::skylake_sp_24();
        let mut guest = GuestMem::new(41);
        let mut hier = MemoryHierarchy::new(&config);
        let mut accel = QeiAccelerator::new(&config, Scheme::CoreIntegrated, 0);
        let ha = build_list(&mut guest, 32);
        let mut last = Cycles(0);
        for i in 0..20u64 {
            let ka = key_at(&mut guest, 31 - (i % 32));
            let (completion, _) = submit_b(&mut accel, Cycles(0), ha, ka, &mut guest, &mut hier);
            last = last.max(completion);
        }
        let occ = accel.qst_occupancy(last);
        assert!(occ > 0.2 && occ <= 1.0, "occupancy {occ}");
    }

    #[test]
    fn reset_epoch_clears_clocks_but_keeps_tlb_warm() {
        let config = MachineConfig::skylake_sp_24();
        let mut guest = GuestMem::new(42);
        let mut hier = MemoryHierarchy::new(&config);
        let mut accel = QeiAccelerator::new(&config, Scheme::ChaTlb, 0);
        let ha = build_list(&mut guest, 8);
        let ka = key_at(&mut guest, 7);
        let _ = submit_b(&mut accel, Cycles(0), ha, ka, &mut guest, &mut hier);
        let warm_misses = accel.stats().tlb_misses;
        assert!(warm_misses > 0);
        accel.reset_epoch();
        assert_eq!(accel.stats().queries, 0);
        // Same query again: the TLB stayed warm across the epoch.
        let _ = submit_b(&mut accel, Cycles(0), ha, ka, &mut guest, &mut hier);
        assert_eq!(accel.stats().tlb_misses, 0, "TLB must stay warm");
    }

    #[test]
    fn stats_accumulate() {
        let config = MachineConfig::skylake_sp_24();
        let mut guest = GuestMem::new(38);
        let mut hier = MemoryHierarchy::new(&config);
        let mut accel = QeiAccelerator::new(&config, Scheme::ChaTlb, 0);
        let ha = build_list(&mut guest, 10);
        for i in 0..10u64 {
            let ka = key_at(&mut guest, i);
            let _ = submit_b(&mut accel, Cycles(0), ha, ka, &mut guest, &mut hier);
        }
        let s = accel.stats();
        assert_eq!(s.queries, 10);
        assert!(s.mem_ops > 20);
        assert!(s.compares >= 10);
        assert!(s.tlb_lookups > 0);
        assert!(s.mean_latency() > 0.0);
        assert_eq!(s.faults, 0);
        assert_eq!(s.latency_hist.count(), 10);
        assert_eq!(s.fault_latency_hist.count(), 0);
        assert_eq!(s.fault_latency_sum, 0);
        assert!(s.latency_hist.p50() <= s.latency_hist.p99());
    }

    #[test]
    fn injected_faults_fill_only_the_fault_histogram() {
        let config = MachineConfig::skylake_sp_24();
        let mut guest = GuestMem::new(43);
        let mut hier = MemoryHierarchy::new(&config);
        let mut accel = QeiAccelerator::new(&config, Scheme::ChaTlb, 0);
        let ha = build_list(&mut guest, 8);
        for i in 0..5u64 {
            let ka = key_at(&mut guest, i);
            let _ = submit_b(&mut accel, Cycles(0), ha, ka, &mut guest, &mut hier);
        }
        let before = accel.stats();
        assert_eq!(before.faults, 0);

        // A header whose data pointer walks into unmapped memory: the
        // firmware's first node read page-faults.
        let bad = Header {
            ds_ptr: VirtAddr(0xbad0_0000),
            dtype: DsType::LinkedList,
            subtype: 0,
            key_len: 8,
            flags: 0,
            capacity: 0,
            aux0: 0,
            aux1: 0,
            aux2: 0,
            epoch: 0,
        };
        let bha = guest.alloc(HEADER_BYTES, 64).unwrap();
        bad.write_to(&mut guest, bha).unwrap();
        for i in 0..3u64 {
            let ka = key_at(&mut guest, i);
            let (_, result) = submit_b(&mut accel, Cycles(0), bha, ka, &mut guest, &mut hier);
            assert!(result.is_err());
        }

        let after = accel.stats();
        assert_eq!(after.faults, 3);
        // Faults land in the fault histogram; the success histogram and its
        // mean are untouched.
        assert_eq!(after.fault_latency_hist.count(), 3);
        assert!(after.fault_latency_sum > 0);
        assert_eq!(after.latency_hist, before.latency_hist);
        assert_eq!(after.latency_sum, before.latency_sum);
        assert_eq!(after.mean_latency(), before.mean_latency());

        // The registry gains the per-outcome keys.
        let mut reg = qei_config::StatsRegistry::new();
        after.export_stats(&mut reg);
        assert!(reg.count("accel", "fault_latency_sum") > 0);
        assert!(reg.count("accel", "latency_p99") >= reg.count("accel", "latency_p50"));
        assert!(matches!(
            reg.get("accel", "fault_latency_hist"),
            Some(qei_config::StatValue::Hist(b)) if !b.is_empty()
        ));
    }
}
