//! Guest-memory skip list (RocksDB-memtable-style).
//!
//! Node layout matches `qei_core::firmware::skip_list`: `{levels: u16, pad,
//! key_ptr: u64, value: u64, next: [u64; levels]}`. Keys are kept sorted in
//! memcmp (bytewise) order; the head sentinel has the maximum level and a
//! null `key_ptr`. Tower heights are geometric with p = 1/2, from a seeded
//! RNG so layouts are reproducible.

use crate::baseline::{self, sites};
use crate::{epoch_bump, MutableDs, MutateError, QueryDs};
use qei_config::SimRng;
use qei_core::firmware::skip_list::{
    node_bytes, NODE_KEY_PTR_OFF, NODE_LEVELS_OFF, NODE_NEXT_BASE_OFF, NODE_VALUE_OFF,
};
use qei_core::header::{DsType, Header, HEADER_BYTES};
use qei_cpu::Trace;
use qei_mem::{GuestMem, MemError, VirtAddr};
use std::borrow::Cow;

/// A skip list living in guest memory.
#[derive(Debug, Clone)]
pub struct SkipList {
    header_addr: VirtAddr,
    header: Header,
    rng: SimRng,
    len: usize,
}

impl SkipList {
    /// Builds an empty skip list with towers up to `max_level`.
    ///
    /// # Errors
    ///
    /// Propagates guest allocation failures.
    ///
    /// # Panics
    ///
    /// Panics if `max_level` is outside `1..=32`.
    pub fn new(
        mem: &mut GuestMem,
        max_level: u64,
        key_len: u16,
        seed: u64,
    ) -> Result<Self, MemError> {
        assert!((1..=32).contains(&max_level));
        // Head sentinel: max_level forward pointers, null key.
        let head = mem.alloc(node_bytes(max_level), 8)?;
        mem.write_u16(head + NODE_LEVELS_OFF, max_level as u16)?;
        let header = Header {
            ds_ptr: head,
            dtype: DsType::SkipList,
            subtype: 0,
            key_len,
            flags: 0,
            capacity: 0,
            aux0: max_level,
            aux1: 0,
            aux2: 0,
            epoch: 0,
        };
        let header_addr = mem.alloc(HEADER_BYTES, 64)?;
        header.write_to(mem, header_addr)?;
        Ok(SkipList {
            header_addr,
            header,
            rng: SimRng::seed_from_u64(seed),
            len: 0,
        })
    }

    fn random_level(&mut self) -> u64 {
        let mut level = 1u64;
        while level < self.header.aux0 && self.rng.gen_bool(0.5) {
            level += 1;
        }
        level
    }

    /// The `len`-byte key of `node`, borrowed from guest memory.
    fn node_key(mem: &GuestMem, node: u64, len: usize) -> Cow<'_, [u8]> {
        let kp = baseline::guest_u64(mem, VirtAddr(node + NODE_KEY_PTR_OFF));
        mem.bytes(VirtAddr(kp), len).expect("node key readable")
    }

    /// Finds the predecessor of `key` at every level. Returns the pred
    /// array and, if the key is present, its node address.
    fn find_preds(&self, mem: &GuestMem, key: &[u8]) -> (Vec<u64>, Option<u64>) {
        let key_len = key.len();
        let max_level = self.header.aux0;
        let head = self.header.ds_ptr.0;
        let mut preds = vec![head; max_level as usize];
        let mut found = None;
        let mut cur = head;
        for level in (0..max_level).rev() {
            loop {
                let nxt = baseline::guest_u64(mem, VirtAddr(cur + NODE_NEXT_BASE_OFF + 8 * level));
                if nxt == 0 {
                    break;
                }
                match Self::node_key(mem, nxt, key_len).as_ref().cmp(key) {
                    std::cmp::Ordering::Less => cur = nxt,
                    std::cmp::Ordering::Equal => {
                        found = Some(nxt);
                        break;
                    }
                    std::cmp::Ordering::Greater => break,
                }
            }
            preds[level as usize] = cur;
        }
        (preds, found)
    }

    /// Inserts a key-value pair, or overwrites the value in place if the
    /// key is present (upsert — the software update path).
    ///
    /// # Errors
    ///
    /// Propagates guest allocation failures.
    ///
    /// # Panics
    ///
    /// Panics on key-length mismatch or zero value.
    pub fn insert(&mut self, mem: &mut GuestMem, key: &[u8], value: u64) -> Result<(), MemError> {
        assert_eq!(key.len(), self.header.key_len as usize, "key length");
        assert_ne!(value, 0, "zero is the not-found sentinel");
        let key_len = key.len();
        let (preds, found) = self.find_preds(mem, key);

        epoch_bump(mem, &mut self.header, self.header_addr)?;
        if let Some(node) = found {
            mem.write_u64(VirtAddr(node + NODE_VALUE_OFF), value)?;
        } else {
            let levels = self.random_level();
            let key_buf = mem.alloc(key_len as u64, 8)?;
            mem.write(key_buf, key)?;
            let node = mem.alloc(node_bytes(levels), 8)?;
            mem.write_u16(node + NODE_LEVELS_OFF, levels as u16)?;
            mem.write_u64(node + NODE_KEY_PTR_OFF, key_buf.0)?;
            mem.write_u64(node + NODE_VALUE_OFF, value)?;
            for level in 0..levels {
                let pred = preds[level as usize];
                let pred_next = VirtAddr(pred + NODE_NEXT_BASE_OFF + 8 * level);
                let old = mem.read_u64(pred_next)?;
                mem.write_u64(node + NODE_NEXT_BASE_OFF + 8 * level, old)?;
                mem.write_u64(pred_next, node.0)?;
            }
            self.len += 1;
        }
        epoch_bump(mem, &mut self.header, self.header_addr)?;
        Ok(())
    }

    /// Unlinks `key`'s tower from every level it occupies, returning its
    /// value (0 if absent).
    ///
    /// # Errors
    ///
    /// Propagates guest memory failures.
    ///
    /// # Panics
    ///
    /// Panics on key-length mismatch.
    pub fn remove(&mut self, mem: &mut GuestMem, key: &[u8]) -> Result<u64, MemError> {
        assert_eq!(key.len(), self.header.key_len as usize, "key length");
        let (preds, found) = self.find_preds(mem, key);
        let Some(node) = found else {
            return Ok(0);
        };
        let value = mem.read_u64(VirtAddr(node + NODE_VALUE_OFF))?;
        let levels = mem.read_u16(VirtAddr(node + NODE_LEVELS_OFF))? as u64;
        epoch_bump(mem, &mut self.header, self.header_addr)?;
        for level in 0..levels {
            let pred_next = VirtAddr(preds[level as usize] + NODE_NEXT_BASE_OFF + 8 * level);
            // The pred's next at this level is the node itself only if the
            // tower reaches the level (it does, by construction); guard
            // anyway so a corrupt tower cannot splice the wrong node.
            if mem.read_u64(pred_next)? == node {
                let succ = mem.read_u64(VirtAddr(node + NODE_NEXT_BASE_OFF + 8 * level))?;
                mem.write_u64(pred_next, succ)?;
            }
        }
        epoch_bump(mem, &mut self.header, self.header_addr)?;
        self.len -= 1;
        Ok(value)
    }

    /// Number of items.
    pub fn len(&self) -> usize {
        self.len
    }

    /// Whether the list is empty.
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }
}

impl MutableDs for SkipList {
    fn ds_insert(&mut self, mem: &mut GuestMem, key: &[u8], value: u64) -> Result<(), MutateError> {
        self.insert(mem, key, value).map_err(MutateError::from)
    }

    fn ds_remove(&mut self, mem: &mut GuestMem, key: &[u8]) -> Result<u64, MutateError> {
        self.remove(mem, key).map_err(MutateError::from)
    }
}

impl QueryDs for SkipList {
    fn header_addr(&self) -> VirtAddr {
        self.header_addr
    }

    fn query_software(&self, mem: &GuestMem, key: &[u8]) -> u64 {
        let mut cur = self.header.ds_ptr.0;
        for level in (0..self.header.aux0).rev() {
            loop {
                let nxt = baseline::guest_u64(mem, VirtAddr(cur + NODE_NEXT_BASE_OFF + 8 * level));
                if nxt == 0 {
                    break;
                }
                match Self::node_key(mem, nxt, key.len()).as_ref().cmp(key) {
                    std::cmp::Ordering::Less => cur = nxt,
                    std::cmp::Ordering::Equal => {
                        return baseline::guest_u64(mem, VirtAddr(nxt + NODE_VALUE_OFF))
                    }
                    std::cmp::Ordering::Greater => break,
                }
            }
        }
        0
    }

    fn query_traced(&self, mem: &GuestMem, key_addr: VirtAddr, trace: &mut Trace) -> u64 {
        let key_len = self.header.key_len as usize;
        let key = mem.bytes(key_addr, key_len).expect("query key readable");

        baseline::emit_call_overhead(trace);
        baseline::emit_key_stage(trace, key_addr, key_len);
        let head_load = trace.load(self.header_addr, None);

        let mut cur = self.header.ds_ptr.0;
        let mut cur_dep = head_load;
        for level in (0..self.header.aux0).rev() {
            // Level bookkeeping.
            let lvl_op = trace.alu1(Some(cur_dep));
            trace.branch(sites::LEVEL, level > 0, Some(lvl_op));
            loop {
                let next_addr = VirtAddr(cur + NODE_NEXT_BASE_OFF + 8 * level);
                let next_load = trace.load(next_addr, Some(cur_dep));
                let nxt = baseline::guest_u64(mem, next_addr);
                trace.branch(sites::WALK_LOOP, nxt != 0, Some(next_load));
                if nxt == 0 {
                    break;
                }
                // Load the successor's node header, then compare its key.
                let node_load = trace.load(VirtAddr(nxt), Some(next_load));
                // Length-prefixed slice decode + virtual comparator dispatch
                // (RocksDB's InternalKeyComparator indirection), per visit.
                let decode = trace.alu(2, Some(node_load), None);
                trace.alu_block(8);
                trace.branch(sites::MATCH + 8, true, Some(decode));
                let kp = baseline::guest_u64(mem, VirtAddr(nxt + NODE_KEY_PTR_OFF));
                let nk = mem.bytes(VirtAddr(kp), key_len).expect("key readable");
                let cmp =
                    baseline::emit_memcmp(trace, VirtAddr(kp), Some(node_load), &nk, &key, key_len);
                match nk.cmp(&key) {
                    std::cmp::Ordering::Less => {
                        trace.branch(sites::MATCH, false, Some(cmp));
                        cur = nxt;
                        cur_dep = node_load;
                    }
                    std::cmp::Ordering::Equal => {
                        trace.branch(sites::MATCH, true, Some(cmp));
                        let v = trace.load(VirtAddr(nxt + NODE_VALUE_OFF), Some(node_load));
                        trace.alu1(Some(v));
                        return baseline::guest_u64(mem, VirtAddr(nxt + NODE_VALUE_OFF));
                    }
                    std::cmp::Ordering::Greater => {
                        trace.branch(sites::MATCH, false, Some(cmp));
                        break;
                    }
                }
            }
        }
        0
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::stage_key;
    use qei_core::{run_query, FirmwareStore};

    fn sample(mem: &mut GuestMem, n: u64) -> SkipList {
        let mut s = SkipList::new(mem, 12, 16, 99).unwrap();
        // Insert in shuffled order to exercise linkage.
        let mut order: Vec<u64> = (0..n).collect();
        SimRng::seed_from_u64(5).shuffle(&mut order);
        for &i in &order {
            s.insert(mem, format!("memkey-{i:09}").as_bytes(), i + 1)
                .unwrap();
        }
        s
    }

    #[test]
    fn software_hits_and_misses() {
        let mut mem = GuestMem::new(80);
        let s = sample(&mut mem, 300);
        assert_eq!(s.len(), 300);
        for i in [0u64, 150, 299] {
            let k = format!("memkey-{i:09}");
            assert_eq!(s.query_software(&mem, k.as_bytes()), i + 1, "key {i}");
        }
        assert_eq!(s.query_software(&mem, b"memkey-999999999"), 0);
        // A key between two present keys also misses.
        assert_eq!(s.query_software(&mem, b"memkey-00000000x"), 0);
    }

    #[test]
    fn firmware_agrees_with_software() {
        let mut mem = GuestMem::new(81);
        let s = sample(&mut mem, 200);
        let fw = FirmwareStore::with_builtins();
        for i in (0..200u64).step_by(23) {
            let k = format!("memkey-{i:09}");
            let ka = stage_key(&mut mem, k.as_bytes());
            assert_eq!(
                run_query(&fw, &mem, s.header_addr(), ka).unwrap(),
                s.query_software(&mem, k.as_bytes()),
                "key {i}"
            );
        }
        let ka = stage_key(&mut mem, b"memkey-777777777");
        assert_eq!(run_query(&fw, &mem, s.header_addr(), ka).unwrap(), 0);
    }

    #[test]
    fn traced_matches_and_walks() {
        let mut mem = GuestMem::new(82);
        let s = sample(&mut mem, 200);
        let ka = stage_key(&mut mem, b"memkey-000000123");
        let mut t = Trace::new();
        let r = s.query_traced(&mem, ka, &mut t);
        assert_eq!(r, 124);
        assert!(t.len() > 40, "trace len {}", t.len());
        assert!(t.stats().loads > 10);
    }

    #[test]
    fn empty_list_misses() {
        let mut mem = GuestMem::new(83);
        let s = SkipList::new(&mut mem, 8, 8, 1).unwrap();
        assert!(s.is_empty());
        assert_eq!(s.query_software(&mem, b"whatever"), 0);
    }

    #[test]
    fn duplicate_insert_upserts_value() {
        let mut mem = GuestMem::new(84);
        let mut s = SkipList::new(&mut mem, 8, 8, 1).unwrap();
        s.insert(&mut mem, b"samekey!", 1).unwrap();
        s.insert(&mut mem, b"samekey!", 2).unwrap();
        assert_eq!(s.len(), 1);
        assert_eq!(s.query_software(&mem, b"samekey!"), 2);
    }

    #[test]
    fn remove_unlinks_all_tower_levels() {
        let mut mem = GuestMem::new(86);
        let mut s = sample(&mut mem, 100);
        // Remove a third of the keys (every i % 3 == 0).
        for i in (0..100u64).step_by(3) {
            let k = format!("memkey-{i:09}");
            assert_eq!(s.remove(&mut mem, k.as_bytes()).unwrap(), i + 1, "{i}");
        }
        assert_eq!(s.len(), 100 - 34);
        // Removed keys miss, survivors hit — in software AND firmware (a
        // stale tower pointer at an upper level would derail the CFA walk).
        let fw = FirmwareStore::with_builtins();
        for i in 0..100u64 {
            let k = format!("memkey-{i:09}");
            let want = if i % 3 == 0 { 0 } else { i + 1 };
            assert_eq!(s.query_software(&mem, k.as_bytes()), want, "sw {i}");
            let ka = stage_key(&mut mem, k.as_bytes());
            assert_eq!(
                run_query(&fw, &mem, s.header_addr(), ka).unwrap(),
                want,
                "fw {i}"
            );
        }
        // Epoch balanced after the churn.
        let hd = qei_core::Header::read_from(&mem, s.header_addr()).unwrap();
        assert!(!hd.stale());
        // Absent-key removal is a no-op.
        assert_eq!(s.remove(&mut mem, b"memkey-999999999").unwrap(), 0);
    }

    #[test]
    fn iteration_order_is_sorted() {
        let mut mem = GuestMem::new(85);
        let s = sample(&mut mem, 50);
        // Walk level 0 and confirm sorted order.
        let mut cur = baseline::guest_u64(&mem, VirtAddr(s.header.ds_ptr.0 + NODE_NEXT_BASE_OFF));
        let mut prev: Option<Vec<u8>> = None;
        let mut count = 0;
        while cur != 0 {
            let k = SkipList::node_key(&mem, cur, 16).into_owned();
            if let Some(p) = &prev {
                assert!(p < &k, "order violated");
            }
            prev = Some(k);
            cur = baseline::guest_u64(&mem, VirtAddr(cur + NODE_NEXT_BASE_OFF));
            count += 1;
        }
        assert_eq!(count, 50);
    }
}
