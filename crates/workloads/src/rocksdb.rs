//! RocksDB workload: memtable point lookups on the skip list.
//!
//! Following the paper's `db_bench` setup: 10 k items inserted, then random
//! queries with 100-byte keys (values are records the node points at; we
//! allocate 900-byte payloads so the footprint matches). The defining
//! characteristic the paper calls out is the *large seek loop*: each request
//! does substantial non-query work (key preprocessing, memcpy, thread
//! management), so the core's ROB fills with that work behind a blocking
//! query and limits the accelerator's usable parallelism.

use crate::{numbered_key, query_indices, QueryJob, StructureMutator, Workload};
use qei_cpu::Trace;
use qei_datastructs::{stage_key, QueryDs, SkipList};
use qei_mem::{GuestMem, VirtAddr};

/// Key length: 100 bytes (the paper's db_bench configuration).
pub const KEY_LEN: usize = 100;
/// Value payload size: 900 bytes.
pub const VALUE_LEN: u64 = 900;

fn db_key(i: u64) -> [u8; KEY_LEN] {
    numbered_key(b"user", i, 16, b'0')
}

fn absent_key(i: u64) -> [u8; KEY_LEN] {
    numbered_key(b"zzzz", i, 16, b'9')
}

/// The memtable-lookup benchmark.
#[derive(Debug)]
pub struct RocksDbMem {
    memtable: SkipList,
    jobs: Vec<QueryJob>,
    expected: Vec<u64>,
}

impl RocksDbMem {
    /// Inserts `items` records then builds a stream of `queries` random
    /// point lookups (~90% hit rate).
    ///
    /// # Panics
    ///
    /// Panics if guest allocation fails.
    pub fn build(mem: &mut GuestMem, items: u64, queries: usize, seed: u64) -> Self {
        let mut memtable = SkipList::new(mem, 12, KEY_LEN as u16, seed).expect("guest alloc");
        for i in 0..items {
            // The 900-byte value body lives on the heap; the node's value
            // field is its address.
            let payload = mem.alloc(VALUE_LEN, 8).expect("guest alloc");
            memtable
                .insert(mem, &db_key(i), payload.0)
                .expect("guest alloc");
        }
        let mut jobs = Vec::with_capacity(queries);
        let mut expected = Vec::with_capacity(queries);
        for (qi, pick) in query_indices(seed ^ 0x22, queries, items, 0.9)
            .into_iter()
            .enumerate()
        {
            let key = match pick {
                Some(i) => db_key(i),
                None => absent_key(qi as u64),
            };
            let ka = stage_key(mem, &key);
            jobs.push(QueryJob {
                header_addr: memtable.header_addr(),
                key_addr: ka,
            });
            expected.push(memtable.query_software(mem, &key));
        }
        RocksDbMem {
            memtable,
            jobs,
            expected,
        }
    }

    /// The underlying memtable.
    pub fn memtable(&self) -> &SkipList {
        &self.memtable
    }
}

impl Workload for RocksDbMem {
    fn name(&self) -> &'static str {
        "RocksDB"
    }

    fn jobs(&self) -> &[QueryJob] {
        &self.jobs
    }

    fn expected(&self) -> &[u64] {
        &self.expected
    }

    fn baseline_trace(&self, mem: &GuestMem, trace: &mut Trace) -> Vec<u64> {
        let mut results = Vec::with_capacity(self.jobs.len());
        for (i, job) in self.jobs.iter().enumerate() {
            // The seek loop's surrounding work: key preprocessing (internal
            // key building, sequence-number packing), memcpy of the user
            // buffer, read-options handling. Includes stores (buffer
            // copies) and branches, not just ALU ops.
            trace.alu_block(self.other_work_per_query() - 30);
            for c in 0..13u64 {
                trace.store(job.key_addr + c * 8, None);
            }
            let b = trace.alu1(None);
            trace.branch(0x200, true, Some(b));
            trace.alu_block(16);
            let r = self.memtable.query_traced(mem, job.key_addr, trace);
            // db_bench copies the 900-byte value into the user buffer: line
            // loads from the value body plus the copy's ALU/store work. This
            // streams ~900 B per Get through the private caches — the
            // self-pollution a core-resident query loop cannot avoid.
            self.emit_value_copy(trace, i, None);
            results.push(r);
        }
        results
    }

    fn other_work_per_query(&self) -> u32 {
        // The paper: "RocksDB executes many other operations (key
        // pre-processing, memcpy, thread management) besides looking up".
        250
    }

    fn emit_qei_surrounding(&self, trace: &mut Trace, job_index: usize, prev_query: Option<u32>) {
        trace.alu_block(self.other_work_per_query());
        // The previous Get's value copy happens here, consuming the pointer
        // the previous QUERY_B returned.
        if job_index > 0 {
            self.emit_value_copy(trace, job_index - 1, prev_query);
        }
    }

    fn non_roi_work_per_query(&self) -> u32 {
        // WAL, version set, statistics, allocator outside the ROI
        // (calibrated to the paper's Fig. 1 query-time band).
        9_000
    }

    fn key_len(&self) -> usize {
        KEY_LEN
    }

    fn mutator(&self) -> Option<Box<dyn StructureMutator>> {
        Some(Box::new(self.memtable.clone()))
    }
}

impl RocksDbMem {
    /// Emits the value copy for job `i` (hits only): one load per value
    /// cache line plus the memcpy's register work.
    fn emit_value_copy(&self, trace: &mut Trace, i: usize, dep: Option<u32>) {
        let value_ptr = self.expected[i];
        if value_ptr == 0 {
            return;
        }
        let lines = VALUE_LEN.div_ceil(64);
        let mut d = dep;
        for l in 0..lines {
            // Sequential streaming loads; each line's use depends on the
            // pointer (first) then flows independently.
            let ld = trace.load(VirtAddr(value_ptr + l * 64), d);
            trace.store(VirtAddr(value_ptr + l * 64), Some(ld));
            d = None;
            trace.alu(1, Some(ld), None);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use qei_core::{run_query, FirmwareStore};

    #[test]
    fn builds_and_baseline_matches() {
        let mut mem = GuestMem::new(220);
        let w = RocksDbMem::build(&mut mem, 500, 50, 11);
        assert_eq!(w.memtable().len(), 500);
        let mut t = Trace::new();
        let results = w.baseline_trace(&mem, &mut t);
        assert_eq!(&results, w.expected());
        // Heavy per-request software: > 300 uops per query.
        assert!(
            t.len() as f64 / 50.0 > 300.0,
            "uops/query {}",
            t.len() as f64 / 50.0
        );
    }

    #[test]
    fn firmware_agrees() {
        let mut mem = GuestMem::new(221);
        let w = RocksDbMem::build(&mut mem, 300, 25, 12);
        let fw = FirmwareStore::with_builtins();
        for (job, &exp) in w.jobs().iter().zip(w.expected()) {
            assert_eq!(
                run_query(&fw, &mem, job.header_addr, job.key_addr).unwrap(),
                exp
            );
        }
    }

    #[test]
    fn values_are_payload_pointers() {
        let mut mem = GuestMem::new(222);
        let w = RocksDbMem::build(&mut mem, 100, 20, 13);
        for &v in w.expected().iter().filter(|&&v| v != 0) {
            // Payload addresses are mapped guest heap pointers.
            assert!(mem.read_u64(qei_mem::VirtAddr(v)).is_ok());
        }
    }
}
