//! FLANN workload: Locality-Sensitive-Hashing similarity search.
//!
//! The paper runs FLANN's LSH with default parameters: 12 hash tables,
//! 20-byte keys, over a 100 K-item dataset. Each similarity search hashes
//! the query descriptor into every table and collects candidates — so one
//! search issues 12 independent table lookups, a naturally parallel pattern
//! (like tuple-space search) that also benefits from `QUERY_NB`.
//!
//! We use the chained-hash structure for the LSH buckets (FLANN's tables are
//! bucketed with chaining) and 20-byte binary descriptors as keys.

use crate::{numbered_key, query_indices, QueryJob, Workload};
use qei_cpu::Trace;
use qei_datastructs::{stage_key, ChainedHash, QueryDs};
use qei_mem::GuestMem;

/// Key length: 20-byte LSH descriptor.
pub const KEY_LEN: usize = 20;

fn descriptor(i: u64) -> [u8; KEY_LEN] {
    numbered_key(b"desc", i, 12, b'#')
}

fn absent_descriptor(i: u64) -> [u8; KEY_LEN] {
    numbered_key(b"none", i, 12, b'?')
}

/// The LSH similarity-search benchmark.
#[derive(Debug)]
pub struct FlannLsh {
    tables: Vec<ChainedHash>,
    jobs: Vec<QueryJob>,
    expected: Vec<u64>,
}

impl FlannLsh {
    /// Builds `tables` LSH tables over an `items`-descriptor dataset and a
    /// stream of `searches`; each search probes every table.
    ///
    /// # Panics
    ///
    /// Panics if guest allocation fails or `tables` is zero.
    pub fn build(
        mem: &mut GuestMem,
        tables: usize,
        items: u64,
        searches: usize,
        seed: u64,
    ) -> Self {
        assert!(tables > 0);
        // Each LSH table indexes the full dataset under a different hash
        // seed (a different projection).
        let capacity = (items / 4).next_power_of_two().max(16);
        let mut bank = Vec::with_capacity(tables);
        for t in 0..tables as u64 {
            let mut table = ChainedHash::new(mem, capacity, KEY_LEN as u16, seed ^ (0x1000 + t))
                .expect("guest alloc");
            for i in 0..items {
                table
                    .insert(mem, &descriptor(i), 1 + i)
                    .expect("guest alloc");
            }
            bank.push(table);
        }
        let mut jobs = Vec::new();
        let mut expected = Vec::new();
        for (qi, pick) in query_indices(seed ^ 0x33, searches, items, 0.8)
            .into_iter()
            .enumerate()
        {
            let key = match pick {
                Some(i) => descriptor(i),
                None => absent_descriptor(qi as u64),
            };
            let ka = stage_key(mem, &key);
            for table in &bank {
                jobs.push(QueryJob {
                    header_addr: table.header_addr(),
                    key_addr: ka,
                });
                expected.push(table.query_software(mem, &key));
            }
        }
        FlannLsh {
            tables: bank,
            jobs,
            expected,
        }
    }

    /// Number of LSH tables.
    pub fn tables(&self) -> usize {
        self.tables.len()
    }
}

impl Workload for FlannLsh {
    fn name(&self) -> &'static str {
        "FLANN"
    }

    fn jobs(&self) -> &[QueryJob] {
        &self.jobs
    }

    fn expected(&self) -> &[u64] {
        &self.expected
    }

    fn baseline_trace(&self, mem: &GuestMem, trace: &mut Trace) -> Vec<u64> {
        let mut results = Vec::with_capacity(self.jobs.len());
        let per_search = self.tables.len();
        for (j, job) in self.jobs.iter().enumerate() {
            if j % per_search == 0 {
                // Descriptor preparation / result-set setup per search.
                trace.alu_block(self.other_work_per_query());
            }
            let table = &self.tables[j % per_search];
            results.push(table.query_traced(mem, job.key_addr, trace));
        }
        results
    }

    fn other_work_per_query(&self) -> u32 {
        // Projection computation and candidate-set bookkeeping.
        40
    }

    fn emit_qei_surrounding(
        &self,
        trace: &mut qei_cpu::Trace,
        job_index: usize,
        _prev: Option<u32>,
    ) {
        // One search = `tables` jobs; the surrounding work happens once per
        // search, not per table probe.
        if job_index.is_multiple_of(self.tables.len()) {
            trace.alu_block(self.other_work_per_query());
        }
    }

    fn non_roi_work_per_query(&self) -> u32 {
        // Distance refinement over candidates outside the table probes
        // (calibrated so the query-time share lands in the paper's Fig. 1
        // band of 23%~44%).
        450
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
    fn builds_and_baseline_matches() {
        let mut mem = GuestMem::new(240);
        let w = FlannLsh::build(&mut mem, 4, 300, 10, 19);
        assert_eq!(w.tables(), 4);
        assert_eq!(w.jobs().len(), 40);
        let mut t = Trace::new();
        let results = w.baseline_trace(&mem, &mut t);
        assert_eq!(&results, w.expected());
        // A present descriptor hits in *every* table (each indexes the full
        // dataset).
        for search in w.expected().chunks(4) {
            let hits = search.iter().filter(|&&v| v != 0).count();
            assert!(hits == 0 || hits == 4, "hits {hits}");
        }
    }

    #[test]
    fn firmware_agrees() {
        let mut mem = GuestMem::new(241);
        let w = FlannLsh::build(&mut mem, 3, 200, 8, 20);
        let fw = FirmwareStore::with_builtins();
        for (job, &exp) in w.jobs().iter().zip(w.expected()) {
            assert_eq!(
                run_query(&fw, &mem, job.header_addr, job.key_addr).unwrap(),
                exp
            );
        }
    }
}
