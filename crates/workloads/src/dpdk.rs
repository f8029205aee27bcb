//! DPDK workload: L3 Forwarding Information Base lookups on the cuckoo hash
//! table, plus tuple-space search across several tables (Fig. 10).
//!
//! Keys are 16 bytes (the paper's "regular TCP/IP packet header" tuple).
//! Each query is a packet classification: a small amount of packet-parsing
//! work around one hash lookup.

use crate::{numbered_key, query_indices, QueryJob, StructureMutator, Workload};
use qei_cpu::Trace;
use qei_datastructs::{stage_key, CuckooHash, QueryDs};
use qei_mem::GuestMem;

/// Key length: 16 bytes (IPv4 5-tuple padded).
pub const KEY_LEN: usize = 16;

fn flow_key(i: u64) -> [u8; KEY_LEN] {
    numbered_key(b"flow:", i, 11, 0)
}

fn miss_key(i: u64) -> [u8; KEY_LEN] {
    numbered_key(b"miss:", i, 11, 0)
}

/// The FIB lookup benchmark.
#[derive(Debug)]
pub struct DpdkFib {
    table: CuckooHash,
    jobs: Vec<QueryJob>,
    expected: Vec<u64>,
    /// The staged query keys (kept for inspection and trace re-generation).
    keys: Vec<Vec<u8>>,
}

impl DpdkFib {
    /// Builds a FIB with `flows` entries and a stream of `queries` lookups
    /// (~95% hit rate, as forwarding tables see).
    ///
    /// # Panics
    ///
    /// Panics if the guest heap is exhausted or the table cannot absorb the
    /// flows (sized at 50% load, it always can).
    pub fn build(mem: &mut GuestMem, flows: u64, queries: usize, seed: u64) -> Self {
        let capacity = (flows / 4).next_power_of_two().max(8);
        let mut table =
            CuckooHash::new(mem, capacity, 8, KEY_LEN as u16, (seed ^ 0xA5, seed ^ 0x5A))
                .expect("guest alloc");
        for i in 0..flows {
            table
                .insert(mem, &flow_key(i), 1 + i)
                .expect("table sized for 50% load");
        }
        let mut jobs = Vec::with_capacity(queries);
        let mut expected = Vec::with_capacity(queries);
        let mut keys = Vec::with_capacity(queries);
        for (qi, pick) in query_indices(seed, queries, flows, 0.95)
            .into_iter()
            .enumerate()
        {
            let key = match pick {
                Some(i) => flow_key(i),
                None => miss_key(qi as u64),
            };
            let ka = stage_key(mem, &key);
            jobs.push(QueryJob {
                header_addr: table.header_addr(),
                key_addr: ka,
            });
            expected.push(table.query_software(mem, &key));
            keys.push(key.to_vec());
        }
        DpdkFib {
            table,
            jobs,
            expected,
            keys,
        }
    }

    /// The underlying table (for direct experimentation).
    pub fn table(&self) -> &CuckooHash {
        &self.table
    }

    /// The staged query keys, in job order.
    pub fn query_keys(&self) -> &[Vec<u8>] {
        &self.keys
    }
}

impl Workload for DpdkFib {
    fn name(&self) -> &'static str {
        "DPDK"
    }

    fn jobs(&self) -> &[QueryJob] {
        &self.jobs
    }

    fn expected(&self) -> &[u64] {
        &self.expected
    }

    fn baseline_trace(&self, mem: &GuestMem, trace: &mut Trace) -> Vec<u64> {
        let mut results = Vec::with_capacity(self.jobs.len());
        for job in &self.jobs {
            // Packet parse / header extraction before the lookup.
            trace.alu_block(self.other_work_per_query());
            let r = self.table.query_traced(mem, job.key_addr, trace);
            results.push(r);
        }
        results
    }

    fn other_work_per_query(&self) -> u32 {
        // Packet header parse + action dispatch around each FIB lookup.
        24
    }

    fn non_roi_work_per_query(&self) -> u32 {
        // RX/TX ring handling, mbuf management: the rest of l3fwd
        // (calibrated so the query-time share lands in the paper's Fig. 1
        // band of 23%~44%).
        400
    }

    fn key_len(&self) -> usize {
        KEY_LEN
    }

    fn mutator(&self) -> Option<Box<dyn StructureMutator>> {
        Some(Box::new(self.table.clone()))
    }
}

/// Tuple-space search: `tuples` independent hash tables, every key probed in
/// all of them (the OVS-style classifier of Fig. 10).
#[derive(Debug)]
pub struct TupleSpace {
    tables: Vec<CuckooHash>,
    jobs: Vec<QueryJob>,
    expected: Vec<u64>,
}

impl TupleSpace {
    /// Builds `tuples` tables of `flows_per_table` entries and a stream of
    /// `packets` classifications; each packet queries every table.
    ///
    /// # Panics
    ///
    /// Panics if guest allocation fails.
    pub fn build(
        mem: &mut GuestMem,
        tuples: usize,
        flows_per_table: u64,
        packets: usize,
        seed: u64,
    ) -> Self {
        let capacity = (flows_per_table / 4).next_power_of_two().max(8);
        let mut tables = Vec::with_capacity(tuples);
        for t in 0..tuples as u64 {
            let mut table = CuckooHash::new(
                mem,
                capacity,
                8,
                KEY_LEN as u16,
                (seed ^ (t * 2 + 1), seed ^ (t * 2 + 2)),
            )
            .expect("guest alloc");
            for i in 0..flows_per_table {
                table
                    .insert(mem, &flow_key(t * flows_per_table + i), 1 + i)
                    .expect("table sized for 50% load");
            }
            tables.push(table);
        }
        let mut jobs = Vec::new();
        let mut expected = Vec::new();
        for (qi, pick) in query_indices(seed, packets, flows_per_table * tuples as u64, 0.9)
            .into_iter()
            .enumerate()
        {
            let key = match pick {
                Some(i) => flow_key(i),
                None => miss_key(qi as u64),
            };
            let ka = stage_key(mem, &key);
            // The packet probes every tuple table with the same staged key.
            for table in &tables {
                jobs.push(QueryJob {
                    header_addr: table.header_addr(),
                    key_addr: ka,
                });
                expected.push(table.query_software(mem, &key));
            }
        }
        TupleSpace {
            tables,
            jobs,
            expected,
        }
    }

    /// Number of tuple tables.
    pub fn tuples(&self) -> usize {
        self.tables.len()
    }
}

impl Workload for TupleSpace {
    fn name(&self) -> &'static str {
        "DPDK-TSS"
    }

    fn jobs(&self) -> &[QueryJob] {
        &self.jobs
    }

    fn expected(&self) -> &[u64] {
        &self.expected
    }

    fn baseline_trace(&self, mem: &GuestMem, trace: &mut Trace) -> Vec<u64> {
        let mut results = Vec::with_capacity(self.jobs.len());
        let per_packet = self.tables.len();
        for (j, job) in self.jobs.iter().enumerate() {
            if j % per_packet == 0 {
                trace.alu_block(self.other_work_per_query());
            }
            // Which table this job belongs to.
            let table = &self.tables[j % per_packet];
            let r = table.query_traced(mem, job.key_addr, trace);
            results.push(r);
        }
        results
    }

    fn other_work_per_query(&self) -> u32 {
        24
    }

    fn emit_qei_surrounding(
        &self,
        trace: &mut qei_cpu::Trace,
        job_index: usize,
        _prev: Option<u32>,
    ) {
        // One packet = `tuples` jobs; parse work happens once per packet.
        if job_index.is_multiple_of(self.tables.len()) {
            trace.alu_block(self.other_work_per_query());
        }
    }

    fn non_roi_work_per_query(&self) -> u32 {
        400
    }

    fn key_len(&self) -> usize {
        KEY_LEN
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use qei_core::{run_query, FirmwareStore};

    #[test]
    fn fib_builds_and_baseline_matches_expected() {
        let mut mem = GuestMem::new(201);
        let w = DpdkFib::build(&mut mem, 512, 100, 3);
        assert_eq!(w.jobs().len(), 100);
        let mut t = Trace::new();
        let results = w.baseline_trace(&mem, &mut t);
        assert_eq!(&results, w.expected());
        // 100 queries of ~100 micro-ops each.
        assert!(t.len() > 4_000, "trace {}", t.len());
        let hits = w.expected().iter().filter(|&&v| v != 0).count();
        assert!(hits > 80, "hit rate too low: {hits}");
    }

    #[test]
    fn fib_firmware_agrees() {
        let mut mem = GuestMem::new(202);
        let w = DpdkFib::build(&mut mem, 256, 40, 4);
        let fw = FirmwareStore::with_builtins();
        for (job, &exp) in w.jobs().iter().zip(w.expected()) {
            assert_eq!(
                run_query(&fw, &mem, job.header_addr, job.key_addr).unwrap(),
                exp
            );
        }
        assert_eq!(w.query_keys().len(), 40);
    }

    #[test]
    fn tuple_space_probes_every_table() {
        let mut mem = GuestMem::new(203);
        let w = TupleSpace::build(&mut mem, 5, 128, 20, 5);
        assert_eq!(w.tuples(), 5);
        assert_eq!(w.jobs().len(), 100); // 20 packets × 5 tables
        let mut t = Trace::new();
        let results = w.baseline_trace(&mem, &mut t);
        assert_eq!(&results, w.expected());
        // A key that hits does so in at most one table.
        for packet in w.expected().chunks(5) {
            assert!(packet.iter().filter(|&&v| v != 0).count() <= 1);
        }
    }
}
