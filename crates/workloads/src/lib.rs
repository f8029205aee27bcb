//! The five cloud-workload benchmarks the paper evaluates (§VI-B), rebuilt
//! over the guest data structures:
//!
//! * [`dpdk`] — an L3 forwarding table on the DPDK-style cuckoo hash
//!   (16-byte keys ≈ a TCP/IP 5-tuple), plus tuple-space search over several
//!   tables for the non-blocking evaluation (Fig. 10);
//! * [`jvm`] — the garbage collector's live-object tree (BST of object ids),
//!   queried densely as the mark phase does;
//! * [`rocksdb`] — memtable point lookups on a skip list (100-byte keys),
//!   with the large per-request "seek loop" software overhead the paper
//!   calls out (key preprocessing, memcpy, thread management);
//! * [`snort`] — Aho–Corasick literal matching of packet payloads against a
//!   keyword dictionary;
//! * [`flann`] — Locality-Sensitive-Hashing similarity search probing a bank
//!   of hash tables (12 tables, 20-byte keys).
//!
//! Every workload yields a [`Workload`]: the query stream (header/key
//! address pairs), the ground-truth results, the software-baseline trace,
//! and the amount of non-query application work surrounding each query —
//! the knob that reproduces the paper's observation that RocksDB's speedup
//! is core-bound while JVM's is accelerator-bound.
//!
//! Scale note: dataset sizes default to LLC-resident scales (bigger than the
//! 1 MB L2, well under the 33 MB LLC) so runs finish quickly; constructors
//! take explicit sizes for full-scale runs. EXPERIMENTS.md records the
//! parameters used for each reproduced figure.

#![forbid(unsafe_code)]
pub mod dpdk;
pub mod flann;
pub mod jvm;
pub mod rocksdb;
pub mod snort;

use qei_cpu::Trace;
use qei_datastructs::{MutableDs, MutateError, QueryDs};
use qei_mem::{GuestMem, VirtAddr};

/// One query of the stream: the operands of a `QUERY` instruction.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct QueryJob {
    /// Address of the structure's 64-byte header.
    pub header_addr: VirtAddr,
    /// Address of the staged query key.
    pub key_addr: VirtAddr,
}

/// A cloneable mutable handle onto a workload's primary structure — the
/// surface a long-lived [`qei_sim`-style session] mutates through. The
/// handle owns the builder-side cached state (header copy, level RNG for
/// skip lists, …) while the structure's bytes live in the session's guest
/// memory; cloning the handle alongside a guest snapshot captures the
/// *complete* mutation state, so `snapshot → mutate → revert → mutate`
/// replays byte-identically to never having mutated at all.
///
/// Blanket-implemented for every `MutableDs + Clone` structure, so
/// workloads expose one with a single `Box::new(self.table.clone())`.
pub trait StructureMutator: Send {
    /// Address of the structure's 64-byte header. (Named to avoid
    /// colliding with `QueryDs::header_addr` under the blanket impl.)
    fn ds_header_addr(&self) -> VirtAddr;

    /// Inserts (or overwrites) `key` → `value` under the epoch discipline.
    ///
    /// # Errors
    ///
    /// Propagates [`MutateError`] from the underlying structure.
    fn insert(&mut self, mem: &mut GuestMem, key: &[u8], value: u64) -> Result<(), MutateError>;

    /// Removes `key`, returning its value (0 if absent).
    ///
    /// # Errors
    ///
    /// Propagates [`MutateError`] from the underlying structure.
    fn remove(&mut self, mem: &mut GuestMem, key: &[u8]) -> Result<u64, MutateError>;

    /// Functional software lookup (the ground truth for `key`).
    fn lookup(&self, mem: &GuestMem, key: &[u8]) -> u64;

    /// Clones the handle — snapshot/revert machinery captures the mutation
    /// state (cached header, RNG position) alongside the guest image.
    fn clone_box(&self) -> Box<dyn StructureMutator>;
}

impl<T> StructureMutator for T
where
    T: MutableDs + Clone + Send + 'static,
{
    fn ds_header_addr(&self) -> VirtAddr {
        QueryDs::header_addr(self)
    }

    fn insert(&mut self, mem: &mut GuestMem, key: &[u8], value: u64) -> Result<(), MutateError> {
        self.ds_insert(mem, key, value)
    }

    fn remove(&mut self, mem: &mut GuestMem, key: &[u8]) -> Result<u64, MutateError> {
        self.ds_remove(mem, key)
    }

    fn lookup(&self, mem: &GuestMem, key: &[u8]) -> u64 {
        self.query_software(mem, key)
    }

    fn clone_box(&self) -> Box<dyn StructureMutator> {
        Box::new(self.clone())
    }
}

/// A benchmark: a built data set plus a query stream and its baseline.
///
/// Workloads are plain built data (query stream, ground truth, sizing), so
/// they are `Send + Sync` by construction; the bound lets one built instance
/// be shared immutably across parallel sweep plans.
pub trait Workload: Send + Sync {
    /// Workload name as used in the paper's figures.
    fn name(&self) -> &'static str;

    /// The query stream, in issue order.
    fn jobs(&self) -> &[QueryJob];

    /// Ground-truth result per job (0 = not found).
    fn expected(&self) -> &[u64];

    /// Emits the software-baseline ROI trace (all queries, with surrounding
    /// application work) and returns the functional results.
    fn baseline_trace(&self, mem: &GuestMem, trace: &mut Trace) -> Vec<u64>;

    /// Non-query application micro-ops surrounding each query (packet
    /// handling, key preprocessing…). Present in both the baseline and the
    /// QEI traces — QEI only removes the query itself.
    fn other_work_per_query(&self) -> u32;

    /// Emits the application work surrounding one query in the QEI-rewritten
    /// ROI. The default is `other_work_per_query` ALU operations;
    /// workloads that touch memory around each query (e.g. RocksDB's value
    /// copy) override this. `prev_query` is the trace index of the previous
    /// `QUERY` micro-op, for work that consumes the previous result.
    fn emit_qei_surrounding(&self, trace: &mut Trace, job_index: usize, prev_query: Option<u32>) {
        let _ = (job_index, prev_query);
        trace.alu_block(self.other_work_per_query());
    }

    /// Application micro-ops *outside* the ROI per query — the rest of the
    /// program, used for the end-to-end improvement figure (Fig. 9).
    fn non_roi_work_per_query(&self) -> u32;

    /// Key length in bytes.
    fn key_len(&self) -> usize;

    /// A fresh mutable handle onto the workload's primary structure, for
    /// sessions that mutate between runs (insert/remove/revert). `None` for
    /// workloads whose structure does not implement `MutableDs` (automata,
    /// multi-table banks).
    fn mutator(&self) -> Option<Box<dyn StructureMutator>> {
        None
    }
}

/// Shared helper: deterministically pick query indices with a given hit
/// rate. Indices `< population` query existing items; others are misses.
pub(crate) fn query_indices(
    seed: u64,
    queries: usize,
    population: u64,
    hit_rate: f64,
) -> Vec<Option<u64>> {
    use qei_config::SimRng;
    let mut rng = SimRng::seed_from_u64(seed);
    (0..queries)
        .map(|_| {
            if rng.gen_bool(hit_rate) {
                Some(rng.below(population))
            } else {
                None
            }
        })
        .collect()
}

/// Shared helper: the `N`-byte key spelled `prefix`, then `i` as `digits`
/// zero-padded decimal digits, then `pad` bytes up to `N` — the bytes of
/// `format!("{prefix}{i:0digits$}")` resized to `N`, built on the stack.
///
/// # Panics
///
/// Panics if `i` needs more than `digits` digits or the label does not fit
/// in `N` bytes.
pub(crate) fn numbered_key<const N: usize>(
    prefix: &[u8],
    i: u64,
    digits: usize,
    pad: u8,
) -> [u8; N] {
    let mut k = [pad; N];
    let (label, rest) = k.split_at_mut(prefix.len());
    label.copy_from_slice(prefix);
    let mut n = i;
    for d in rest[..digits].iter_mut().rev() {
        *d = b'0' + (n % 10) as u8;
        n /= 10;
    }
    assert_eq!(n, 0, "{i} has more than {digits} digits");
    k
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn numbered_keys_spell_the_formatted_label() {
        for i in [0, 7, 42, 99_999, 123_456_789_012] {
            let mut want = format!("desc{i:012}").into_bytes();
            want.resize(20, b'#');
            assert_eq!(numbered_key::<20>(b"desc", i, 12, b'#'), *want);
        }
        assert_eq!(numbered_key::<16>(b"flow:", 5, 11, 0), *b"flow:00000000005");
    }

    #[test]
    fn query_indices_respect_hit_rate() {
        let idx = query_indices(1, 10_000, 100, 0.9);
        let hits = idx.iter().filter(|i| i.is_some()).count();
        assert!((8_500..=9_500).contains(&hits), "hits {hits}");
        assert!(idx.iter().flatten().all(|&i| i < 100));
    }

    #[test]
    fn query_indices_deterministic() {
        assert_eq!(
            query_indices(7, 100, 50, 0.5),
            query_indices(7, 100, 50, 0.5)
        );
        assert_ne!(
            query_indices(7, 100, 50, 0.5),
            query_indices(8, 100, 50, 0.5)
        );
    }
}
