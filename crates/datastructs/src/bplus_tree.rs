//! Guest-memory B+-tree — an in-memory database index queried through the
//! *loadable* B+-tree firmware (`qei_core::firmware::btree`, not part of the
//! built-in CFA set).
//!
//! Built bottom-up from sorted `(key, value)` pairs into the 128-byte node
//! layout the CFA expects: sorted big-endian keys, child pointers or values,
//! leaf chaining. Keys are `u64`s (index keys); values are non-zero `u64`s.

use crate::baseline::{self, sites};
use crate::{epoch_bump, MutableDs, MutateError, QueryDs};
use qei_core::firmware::btree::{
    BTREE_TYPE, FANOUT, NODE_BYTES, NODE_COUNT_OFF, NODE_IS_LEAF_OFF, NODE_KEYS_OFF, NODE_PTRS_OFF,
};
use qei_core::header::{DsType, Header, HEADER_BYTES};
use qei_cpu::Trace;
use qei_mem::bytes::be_u64;
use qei_mem::{GuestMem, MemError, VirtAddr};

/// A B+-tree index living in guest memory.
#[derive(Debug, Clone)]
pub struct BPlusTree {
    header_addr: VirtAddr,
    header: Header,
    len: usize,
    height: usize,
}

impl BPlusTree {
    /// Bulk-builds the index from strictly ascending `(key, value)` pairs.
    ///
    /// # Errors
    ///
    /// Propagates guest allocation failures.
    ///
    /// # Panics
    ///
    /// Panics if `items` is empty, unsorted, contains duplicates, or any
    /// value is zero.
    pub fn build(mem: &mut GuestMem, items: &[(u64, u64)]) -> Result<Self, MemError> {
        assert!(!items.is_empty(), "empty index");
        for w in items.windows(2) {
            assert!(w[0].0 < w[1].0, "items must be strictly ascending");
        }
        assert!(items.iter().all(|&(_, v)| v != 0), "zero value sentinel");

        let per_leaf = FANOUT - 1;
        // --- leaves ---------------------------------------------------
        let mut level: Vec<(u64, u64)> = Vec::new(); // (first key, node addr)
        let mut prev_leaf: Option<VirtAddr> = None;
        for chunk in items.chunks(per_leaf) {
            let node = mem.alloc(NODE_BYTES, 64)?;
            mem.write_u16(node + NODE_IS_LEAF_OFF, 1)?;
            mem.write_u16(node + NODE_COUNT_OFF, chunk.len() as u16)?;
            for (i, &(k, v)) in chunk.iter().enumerate() {
                mem.write(node + NODE_KEYS_OFF + (i as u64) * 8, &k.to_be_bytes())?;
                mem.write_u64(node + NODE_PTRS_OFF + (i as u64) * 8, v)?;
            }
            if let Some(prev) = prev_leaf {
                // Leaf chaining in the last pointer slot.
                mem.write_u64(prev + NODE_PTRS_OFF + (per_leaf as u64) * 8, node.0)?;
            }
            prev_leaf = Some(node);
            level.push((chunk[0].0, node.0));
        }
        let mut height = 1;

        // --- internal levels -----------------------------------------
        while level.len() > 1 {
            let mut next: Vec<(u64, u64)> = Vec::new();
            for group in level.chunks(FANOUT) {
                let node = mem.alloc(NODE_BYTES, 64)?;
                mem.write_u16(node + NODE_IS_LEAF_OFF, 0)?;
                mem.write_u16(node + NODE_COUNT_OFF, (group.len() - 1) as u16)?;
                // Separator keys = first keys of children 1..; child ptrs.
                for (i, &(first_key, child)) in group.iter().enumerate() {
                    if i > 0 {
                        mem.write(
                            node + NODE_KEYS_OFF + ((i - 1) as u64) * 8,
                            &first_key.to_be_bytes(),
                        )?;
                    }
                    mem.write_u64(node + NODE_PTRS_OFF + (i as u64) * 8, child)?;
                }
                next.push((group[0].0, node.0));
            }
            level = next;
            height += 1;
        }

        let header = Header {
            ds_ptr: VirtAddr(level[0].1),
            dtype: DsType::Custom(BTREE_TYPE),
            subtype: 0,
            key_len: 8,
            flags: 0,
            capacity: items.len() as u64,
            aux0: FANOUT as u64,
            aux1: 0,
            aux2: 0,
            epoch: 0,
        };
        let header_addr = mem.alloc(HEADER_BYTES, 64)?;
        header.write_to(mem, header_addr)?;
        Ok(BPlusTree {
            header_addr,
            header,
            len: items.len(),
            height,
        })
    }

    /// Number of indexed items.
    pub fn len(&self) -> usize {
        self.len
    }

    /// Whether the index is empty (never: `build` rejects empty input).
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    /// Tree height (levels).
    pub fn height(&self) -> usize {
        self.height
    }

    fn node_u16(&self, mem: &GuestMem, node: u64, off: u64) -> u16 {
        mem.read_u16(VirtAddr(node + off)).expect("node readable")
    }

    fn node_key(&self, mem: &GuestMem, node: u64, i: usize) -> u64 {
        let b = mem
            .bytes(VirtAddr(node + NODE_KEYS_OFF + (i as u64) * 8), 8)
            .expect("node readable");
        be_u64(&b, 0)
    }

    fn node_ptr(&self, mem: &GuestMem, node: u64, i: usize) -> u64 {
        baseline::guest_u64(mem, VirtAddr(node + NODE_PTRS_OFF + (i as u64) * 8))
    }

    fn write_key(mem: &mut GuestMem, node: u64, i: usize, key: u64) -> Result<(), MemError> {
        mem.write(
            VirtAddr(node + NODE_KEYS_OFF + (i as u64) * 8),
            &key.to_be_bytes(),
        )
    }

    fn write_ptr(mem: &mut GuestMem, node: u64, i: usize, v: u64) -> Result<(), MemError> {
        mem.write_u64(VirtAddr(node + NODE_PTRS_OFF + (i as u64) * 8), v)
    }

    /// Descends to the leaf covering `key`, recording `(node, child idx)`
    /// for every internal node on the way.
    fn descend(&self, mem: &GuestMem, key: u64) -> (u64, Vec<(u64, usize)>) {
        let mut path = Vec::new();
        let mut node = self.header.ds_ptr.0;
        loop {
            if self.node_u16(mem, node, NODE_IS_LEAF_OFF) != 0 {
                return (node, path);
            }
            let count = self.node_u16(mem, node, NODE_COUNT_OFF) as usize;
            let mut idx = 0;
            while idx < count && self.node_key(mem, node, idx) <= key {
                idx += 1;
            }
            path.push((node, idx));
            node = self.node_ptr(mem, node, idx);
        }
    }

    /// Inserts `key` → `value` post-build, splitting leaves (and internal
    /// nodes, up to a root split that grows the tree) as needed. Inserting
    /// an existing key overwrites its value in place (upsert).
    ///
    /// # Errors
    ///
    /// Propagates guest allocation failures.
    ///
    /// # Panics
    ///
    /// Panics on zero value.
    pub fn insert(&mut self, mem: &mut GuestMem, key: u64, value: u64) -> Result<(), MemError> {
        assert_ne!(value, 0, "zero is the not-found sentinel");
        let per_leaf = FANOUT - 1;
        let (leaf, mut path) = self.descend(mem, key);
        let count = self.node_u16(mem, leaf, NODE_COUNT_OFF) as usize;
        let mut pos = 0;
        while pos < count && self.node_key(mem, leaf, pos) < key {
            pos += 1;
        }
        if pos < count && self.node_key(mem, leaf, pos) == key {
            epoch_bump(mem, &mut self.header, self.header_addr)?;
            Self::write_ptr(mem, leaf, pos, value)?;
            epoch_bump(mem, &mut self.header, self.header_addr)?;
            return Ok(());
        }

        epoch_bump(mem, &mut self.header, self.header_addr)?;
        if count < per_leaf {
            // Room in the leaf: shift the tail right and slot the entry in.
            for i in (pos..count).rev() {
                let k = self.node_key(mem, leaf, i);
                let v = self.node_ptr(mem, leaf, i);
                Self::write_key(mem, leaf, i + 1, k)?;
                Self::write_ptr(mem, leaf, i + 1, v)?;
            }
            Self::write_key(mem, leaf, pos, key)?;
            Self::write_ptr(mem, leaf, pos, value)?;
            mem.write_u16(VirtAddr(leaf + NODE_COUNT_OFF), (count + 1) as u16)?;
        } else {
            // Leaf split: 7 resident entries + the new one = 8, split 4/4.
            let mut items: Vec<(u64, u64)> = (0..count)
                .map(|i| (self.node_key(mem, leaf, i), self.node_ptr(mem, leaf, i)))
                .collect();
            items.insert(pos, (key, value));
            let right = mem.alloc(NODE_BYTES, 64)?;
            mem.write_u16(VirtAddr(right.0 + NODE_IS_LEAF_OFF), 1)?;
            let half = items.len() / 2;
            for (i, &(k, v)) in items[..half].iter().enumerate() {
                Self::write_key(mem, leaf, i, k)?;
                Self::write_ptr(mem, leaf, i, v)?;
            }
            mem.write_u16(VirtAddr(leaf + NODE_COUNT_OFF), half as u16)?;
            for (i, &(k, v)) in items[half..].iter().enumerate() {
                Self::write_key(mem, right.0, i, k)?;
                Self::write_ptr(mem, right.0, i, v)?;
            }
            mem.write_u16(
                VirtAddr(right.0 + NODE_COUNT_OFF),
                (items.len() - half) as u16,
            )?;
            // Leaf chain: right inherits left's successor.
            let chain_off = NODE_PTRS_OFF + (per_leaf as u64) * 8;
            let old_next = mem.read_u64(VirtAddr(leaf + chain_off))?;
            mem.write_u64(VirtAddr(right.0 + chain_off), old_next)?;
            mem.write_u64(VirtAddr(leaf + chain_off), right.0)?;
            // Promote the right leaf's first key as the separator.
            self.insert_into_parent(mem, &mut path, items[half].0, right.0)?;
        }
        epoch_bump(mem, &mut self.header, self.header_addr)?;
        self.len += 1;
        Ok(())
    }

    /// Inserts a promoted `(separator, right child)` into the parent chain,
    /// splitting internal nodes upward; an exhausted path splits the root.
    fn insert_into_parent(
        &mut self,
        mem: &mut GuestMem,
        path: &mut Vec<(u64, usize)>,
        mut sep: u64,
        mut child: u64,
    ) -> Result<(), MemError> {
        let max_seps = FANOUT - 1;
        loop {
            let Some((node, idx)) = path.pop() else {
                // Root split: a fresh root with one separator, two children.
                let root = mem.alloc(NODE_BYTES, 64)?;
                mem.write_u16(VirtAddr(root.0 + NODE_IS_LEAF_OFF), 0)?;
                mem.write_u16(VirtAddr(root.0 + NODE_COUNT_OFF), 1)?;
                Self::write_key(mem, root.0, 0, sep)?;
                Self::write_ptr(mem, root.0, 0, self.header.ds_ptr.0)?;
                Self::write_ptr(mem, root.0, 1, child)?;
                self.header.ds_ptr = root;
                self.header.write_to(mem, self.header_addr)?;
                self.height += 1;
                return Ok(());
            };
            let count = self.node_u16(mem, node, NODE_COUNT_OFF) as usize;
            if count < max_seps {
                // Room: shift separators and children right of idx.
                for i in (idx..count).rev() {
                    let k = self.node_key(mem, node, i);
                    Self::write_key(mem, node, i + 1, k)?;
                }
                for i in (idx + 1..=count).rev() {
                    let p = self.node_ptr(mem, node, i);
                    Self::write_ptr(mem, node, i + 1, p)?;
                }
                Self::write_key(mem, node, idx, sep)?;
                Self::write_ptr(mem, node, idx + 1, child)?;
                mem.write_u16(VirtAddr(node + NODE_COUNT_OFF), (count + 1) as u16)?;
                return Ok(());
            }
            // Internal split: 7 separators + 1 = 8, 9 children. The median
            // separator promotes; left keeps 4 seps / 5 kids, right 3 / 4.
            let mut seps: Vec<u64> = (0..count).map(|i| self.node_key(mem, node, i)).collect();
            let mut kids: Vec<u64> = (0..=count).map(|i| self.node_ptr(mem, node, i)).collect();
            seps.insert(idx, sep);
            kids.insert(idx + 1, child);
            let mid = seps.len() / 2;
            let promote = seps[mid];
            let right = mem.alloc(NODE_BYTES, 64)?;
            mem.write_u16(VirtAddr(right.0 + NODE_IS_LEAF_OFF), 0)?;
            for (i, &k) in seps[..mid].iter().enumerate() {
                Self::write_key(mem, node, i, k)?;
            }
            for (i, &p) in kids[..=mid].iter().enumerate() {
                Self::write_ptr(mem, node, i, p)?;
            }
            mem.write_u16(VirtAddr(node + NODE_COUNT_OFF), mid as u16)?;
            for (i, &k) in seps[mid + 1..].iter().enumerate() {
                Self::write_key(mem, right.0, i, k)?;
            }
            for (i, &p) in kids[mid + 1..].iter().enumerate() {
                Self::write_ptr(mem, right.0, i, p)?;
            }
            mem.write_u16(
                VirtAddr(right.0 + NODE_COUNT_OFF),
                (seps.len() - mid - 1) as u16,
            )?;
            sep = promote;
            child = right.0;
        }
    }

    /// Deletes `key` from its leaf, returning its value (0 if absent).
    /// Leaves may underflow (no merging): queries stay correct because node
    /// scans are count-driven, matching what real engines defer to
    /// compaction.
    ///
    /// # Errors
    ///
    /// Propagates guest memory failures.
    pub fn remove(&mut self, mem: &mut GuestMem, key: u64) -> Result<u64, MemError> {
        let (leaf, _) = self.descend(mem, key);
        let count = self.node_u16(mem, leaf, NODE_COUNT_OFF) as usize;
        let Some(pos) = (0..count).find(|&i| self.node_key(mem, leaf, i) == key) else {
            return Ok(0);
        };
        let value = self.node_ptr(mem, leaf, pos);
        epoch_bump(mem, &mut self.header, self.header_addr)?;
        for i in pos + 1..count {
            let k = self.node_key(mem, leaf, i);
            let v = self.node_ptr(mem, leaf, i);
            Self::write_key(mem, leaf, i - 1, k)?;
            Self::write_ptr(mem, leaf, i - 1, v)?;
        }
        mem.write_u16(VirtAddr(leaf + NODE_COUNT_OFF), (count - 1) as u16)?;
        epoch_bump(mem, &mut self.header, self.header_addr)?;
        self.len -= 1;
        Ok(value)
    }
}

impl MutableDs for BPlusTree {
    fn ds_insert(&mut self, mem: &mut GuestMem, key: &[u8], value: u64) -> Result<(), MutateError> {
        let key = u64::from_be_bytes(key.try_into().expect("B+-tree keys are 8 bytes"));
        self.insert(mem, key, value).map_err(MutateError::from)
    }

    fn ds_remove(&mut self, mem: &mut GuestMem, key: &[u8]) -> Result<u64, MutateError> {
        let key = u64::from_be_bytes(key.try_into().expect("B+-tree keys are 8 bytes"));
        self.remove(mem, key).map_err(MutateError::from)
    }
}

impl QueryDs for BPlusTree {
    fn header_addr(&self) -> VirtAddr {
        self.header_addr
    }

    fn query_software(&self, mem: &GuestMem, key: &[u8]) -> u64 {
        let query = u64::from_be_bytes(key.try_into().expect("8-byte key"));
        let mut node = self.header.ds_ptr.0;
        loop {
            let is_leaf = self.node_u16(mem, node, NODE_IS_LEAF_OFF) != 0;
            let count = self.node_u16(mem, node, NODE_COUNT_OFF) as usize;
            if is_leaf {
                for i in 0..count {
                    if self.node_key(mem, node, i) == query {
                        return self.node_ptr(mem, node, i);
                    }
                }
                return 0;
            }
            let mut idx = 0;
            while idx < count && self.node_key(mem, node, idx) <= query {
                idx += 1;
            }
            node = self.node_ptr(mem, node, idx);
            if node == 0 {
                return 0;
            }
        }
    }

    fn query_traced(&self, mem: &GuestMem, key_addr: VirtAddr, trace: &mut Trace) -> u64 {
        let query = be_u64(&mem.bytes(key_addr, 8).expect("key readable"), 0);
        baseline::emit_call_overhead(trace);
        let key_dep = baseline::emit_key_stage(trace, key_addr, 8);
        let mut cur_dep = trace.load(self.header_addr, Some(key_dep));

        let mut node = self.header.ds_ptr.0;
        loop {
            // Two lines per node.
            let n1 = trace.load(VirtAddr(node), Some(cur_dep));
            trace.load(VirtAddr(node + 64), Some(n1));
            let is_leaf = self.node_u16(mem, node, NODE_IS_LEAF_OFF) != 0;
            let count = self.node_u16(mem, node, NODE_COUNT_OFF) as usize;
            // Binary search: compare + branch per probed key.
            let mut idx = 0;
            for i in 0..count {
                let k = self.node_key(mem, node, i);
                let cmp = trace.alu(1, Some(n1), None);
                let go_on = k <= query;
                trace.branch(sites::WALK_LOOP, go_on, Some(cmp));
                if is_leaf {
                    if k == query {
                        let v =
                            trace.load(VirtAddr(node + NODE_PTRS_OFF + (i as u64) * 8), Some(n1));
                        trace.alu1(Some(v));
                        return self.node_ptr(mem, node, i);
                    }
                    if k > query {
                        return 0;
                    }
                } else if go_on {
                    idx = i + 1;
                } else {
                    break;
                }
            }
            if is_leaf {
                return 0;
            }
            node = self.node_ptr(mem, node, idx);
            let adv = trace.alu1(Some(n1));
            if node == 0 {
                return 0;
            }
            cur_dep = adv;
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::stage_key;
    use qei_core::firmware::btree::BPlusTreeCfa;
    use qei_core::{run_query, FaultCode, FirmwareStore};
    use std::sync::Arc;

    fn items(n: u64) -> Vec<(u64, u64)> {
        (0..n).map(|i| (i * 5 + 3, i + 1)).collect()
    }

    fn firmware() -> FirmwareStore {
        let mut fw = FirmwareStore::with_builtins();
        fw.register(BTREE_TYPE, 0, Arc::new(BPlusTreeCfa));
        fw
    }

    #[test]
    fn software_hits_and_misses() {
        let mut mem = GuestMem::new(120);
        let t = BPlusTree::build(&mut mem, &items(500)).unwrap();
        assert_eq!(t.len(), 500);
        assert!(t.height() >= 3);
        for i in [0u64, 250, 499] {
            let k = (i * 5 + 3).to_be_bytes();
            assert_eq!(t.query_software(&mem, &k), i + 1, "item {i}");
        }
        assert_eq!(t.query_software(&mem, &4u64.to_be_bytes()), 0);
        assert_eq!(t.query_software(&mem, &100_000u64.to_be_bytes()), 0);
    }

    #[test]
    fn loadable_firmware_agrees_with_software() {
        let mut mem = GuestMem::new(121);
        let t = BPlusTree::build(&mut mem, &items(300)).unwrap();
        let fw = firmware();
        for probe in [3u64, 8, 1498, 4, 7, 9_999] {
            let ka = stage_key(&mut mem, &probe.to_be_bytes());
            assert_eq!(
                run_query(&fw, &mem, t.header_addr(), ka).unwrap(),
                t.query_software(&mem, &probe.to_be_bytes()),
                "probe {probe}"
            );
        }
    }

    #[test]
    fn query_without_loaded_firmware_faults() {
        let mut mem = GuestMem::new(122);
        let t = BPlusTree::build(&mut mem, &items(50)).unwrap();
        let fw = FirmwareStore::with_builtins(); // B+-tree NOT loaded
        let ka = stage_key(&mut mem, &3u64.to_be_bytes());
        assert_eq!(
            run_query(&fw, &mem, t.header_addr(), ka),
            Err(FaultCode::UnknownType)
        );
    }

    #[test]
    fn traced_matches_and_is_shallow() {
        let mut mem = GuestMem::new(123);
        let t = BPlusTree::build(&mut mem, &items(1_000)).unwrap();
        let ka = stage_key(&mut mem, &(700u64 * 5 + 3).to_be_bytes());
        let mut tr = Trace::new();
        let r = t.query_traced(&mem, ka, &mut tr);
        assert_eq!(r, 701);
        // Height ~ log8(1000/7) + 1: far fewer loads than a BST.
        assert!(
            tr.stats().loads < 40,
            "B+-tree walk too deep: {} loads",
            tr.stats().loads
        );
    }

    #[test]
    fn single_leaf_tree() {
        let mut mem = GuestMem::new(124);
        let t = BPlusTree::build(&mut mem, &items(3)).unwrap();
        assert_eq!(t.height(), 1);
        let fw = firmware();
        let ka = stage_key(&mut mem, &8u64.to_be_bytes());
        assert_eq!(run_query(&fw, &mem, t.header_addr(), ka).unwrap(), 2);
    }

    #[test]
    #[should_panic(expected = "strictly ascending")]
    fn unsorted_input_rejected() {
        let mut mem = GuestMem::new(125);
        let _ = BPlusTree::build(&mut mem, &[(5, 1), (3, 2)]);
    }

    #[test]
    fn post_build_insert_splits_leaves_and_grows_root() {
        let mut mem = GuestMem::new(126);
        // Start from a single leaf and insert enough to force leaf splits,
        // internal splits, and at least two root splits (height 1 → 3).
        let mut t = BPlusTree::build(&mut mem, &[(1, 101)]).unwrap();
        assert_eq!(t.height(), 1);
        let fw = firmware();
        // Interleave ascending/descending/middle keys to hit all shift paths.
        let keys: Vec<u64> = (2..=400u64).collect();
        for &k in &keys {
            t.insert(&mut mem, k, k + 100).unwrap();
        }
        assert!(t.height() >= 3, "height {}", t.height());
        assert_eq!(t.len(), 400);
        // Every key findable by software AND firmware; gaps miss.
        for k in (1..=400u64).step_by(13) {
            assert_eq!(t.query_software(&mem, &k.to_be_bytes()), k + 100, "sw {k}");
            let ka = stage_key(&mut mem, &k.to_be_bytes());
            assert_eq!(
                run_query(&fw, &mem, t.header_addr(), ka).unwrap(),
                k + 100,
                "fw {k}"
            );
        }
        assert_eq!(t.query_software(&mem, &999u64.to_be_bytes()), 0);
        // Leaf chain still sorted and complete after all the splits.
        assert_leaf_chain(&mem, &t, 400);
    }

    #[test]
    fn insert_descending_and_upsert() {
        let mut mem = GuestMem::new(127);
        let mut t = BPlusTree::build(&mut mem, &[(1_000, 1)]).unwrap();
        for k in (1..=100u64).rev() {
            t.insert(&mut mem, k * 7, k).unwrap();
        }
        assert_eq!(t.len(), 101);
        t.insert(&mut mem, 70, 9_999).unwrap(); // upsert existing
        assert_eq!(t.len(), 101, "upsert must not grow the index");
        assert_eq!(t.query_software(&mem, &70u64.to_be_bytes()), 9_999);
        for k in [7u64, 350, 700, 1_000] {
            let want = if k == 70 {
                9_999
            } else if k == 1_000 {
                1
            } else {
                k / 7
            };
            assert_eq!(t.query_software(&mem, &k.to_be_bytes()), want, "{k}");
        }
    }

    #[test]
    fn remove_then_query_misses_and_firmware_agrees() {
        let mut mem = GuestMem::new(128);
        let t_items = items(200);
        let mut t = BPlusTree::build(&mut mem, &t_items).unwrap();
        let fw = firmware();
        // Remove every fourth key, draining some leaves completely.
        for (i, &(k, v)) in t_items.iter().enumerate() {
            if i % 4 == 0 {
                assert_eq!(t.remove(&mut mem, k).unwrap(), v, "{k}");
            }
        }
        assert_eq!(t.len(), 150);
        assert_eq!(t.remove(&mut mem, 4).unwrap(), 0, "absent key");
        for (i, &(k, v)) in t_items.iter().enumerate() {
            let want = if i % 4 == 0 { 0 } else { v };
            assert_eq!(t.query_software(&mem, &k.to_be_bytes()), want, "sw {k}");
            let ka = stage_key(&mut mem, &k.to_be_bytes());
            assert_eq!(
                run_query(&fw, &mem, t.header_addr(), ka).unwrap(),
                want,
                "fw {k}"
            );
        }
        // Epoch closed after churn.
        let hd = qei_core::Header::read_from(&mem, t.header_addr()).unwrap();
        assert!(!hd.stale());
    }

    /// Walks the leaf chain asserting the keys come out sorted and complete.
    fn assert_leaf_chain(mem: &GuestMem, t: &BPlusTree, expect: usize) {
        // Find the leftmost leaf.
        let mut node = t.header.ds_ptr.0;
        while t.node_u16(mem, node, NODE_IS_LEAF_OFF) == 0 {
            node = t.node_ptr(mem, node, 0);
        }
        let chain_slot = FANOUT - 1;
        let mut seen = 0usize;
        let mut prev: Option<u64> = None;
        while node != 0 {
            let count = t.node_u16(mem, node, NODE_COUNT_OFF) as usize;
            for i in 0..count {
                let k = t.node_key(mem, node, i);
                if let Some(p) = prev {
                    assert!(p < k, "leaf chain order violated: {p} !< {k}");
                }
                prev = Some(k);
                seen += 1;
            }
            node = t.node_ptr(mem, node, chain_slot);
        }
        assert_eq!(seen, expect, "leaf chain lost items");
    }
}
