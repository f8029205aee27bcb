//! Guest-memory singly linked list (the paper's running example).
//!
//! Node layout matches `qei_core::firmware::linked_list`: `{next: u64,
//! key_ptr: u64, value: u64}` with out-of-line key bytes.

use crate::baseline::{self, sites};
use crate::{epoch_bump, MutableDs, MutateError, QueryDs};
use qei_core::firmware::linked_list::{
    NODE_BYTES, NODE_KEY_PTR_OFF, NODE_NEXT_OFF, NODE_VALUE_OFF,
};
use qei_core::header::{DsType, Header, HEADER_BYTES};
use qei_cpu::Trace;
use qei_mem::{GuestMem, MemError, VirtAddr};

/// A linked list living in guest memory.
#[derive(Debug, Clone)]
pub struct LinkedList {
    header_addr: VirtAddr,
    header: Header,
    len: usize,
}

impl LinkedList {
    /// Builds an empty list with the given key length.
    ///
    /// # Errors
    ///
    /// Propagates guest allocation failures.
    pub fn new(mem: &mut GuestMem, key_len: u16) -> Result<Self, MemError> {
        let header = Header {
            ds_ptr: VirtAddr::NULL,
            dtype: DsType::LinkedList,
            subtype: 0,
            key_len,
            flags: 0,
            capacity: 0,
            aux0: 0,
            aux1: 0,
            aux2: 0,
            epoch: 0,
        };
        let header_addr = mem.alloc(HEADER_BYTES, 64)?;
        header.write_to(mem, header_addr)?;
        Ok(LinkedList {
            header_addr,
            header,
            len: 0,
        })
    }

    /// Inserts at the head, or overwrites the value in place if the key is
    /// already present (upsert — the software update path; updates stay on
    /// the CPU per the paper's usage model).
    ///
    /// # Errors
    ///
    /// Propagates guest allocation failures.
    ///
    /// # Panics
    ///
    /// Panics if `key` length differs from the header's key length or
    /// `value` is zero (zero encodes "not found").
    pub fn insert(&mut self, mem: &mut GuestMem, key: &[u8], value: u64) -> Result<(), MemError> {
        assert_eq!(key.len(), self.header.key_len as usize, "key length");
        assert_ne!(value, 0, "zero is the not-found sentinel");
        let existing = self.find_node(mem, key);
        epoch_bump(mem, &mut self.header, self.header_addr)?;
        if let Some(node) = existing {
            mem.write_u64(VirtAddr(node + NODE_VALUE_OFF), value)?;
        } else {
            let key_buf = mem.alloc(key.len() as u64, 8)?;
            mem.write(key_buf, key)?;
            let node = mem.alloc(NODE_BYTES, 8)?;
            mem.write_u64(node + NODE_NEXT_OFF, self.header.ds_ptr.0)?;
            mem.write_u64(node + NODE_KEY_PTR_OFF, key_buf.0)?;
            mem.write_u64(node + NODE_VALUE_OFF, value)?;
            self.header.ds_ptr = node;
            self.header.write_to(mem, self.header_addr)?;
            self.len += 1;
        }
        epoch_bump(mem, &mut self.header, self.header_addr)?;
        Ok(())
    }

    /// Unlinks `key`'s node, returning its value (0 if absent).
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
        let mut prev: Option<u64> = None;
        let mut cur = self.header.ds_ptr.0;
        while cur != 0 {
            let key_ptr = mem.read_u64(VirtAddr(cur + NODE_KEY_PTR_OFF))?;
            if mem.bytes_equal(VirtAddr(key_ptr), key)? {
                let value = mem.read_u64(VirtAddr(cur + NODE_VALUE_OFF))?;
                let next = mem.read_u64(VirtAddr(cur + NODE_NEXT_OFF))?;
                epoch_bump(mem, &mut self.header, self.header_addr)?;
                match prev {
                    Some(p) => mem.write_u64(VirtAddr(p + NODE_NEXT_OFF), next)?,
                    None => {
                        self.header.ds_ptr = VirtAddr(next);
                        self.header.write_to(mem, self.header_addr)?;
                    }
                }
                epoch_bump(mem, &mut self.header, self.header_addr)?;
                self.len -= 1;
                return Ok(value);
            }
            prev = Some(cur);
            cur = mem.read_u64(VirtAddr(cur + NODE_NEXT_OFF))?;
        }
        Ok(0)
    }

    fn find_node(&self, mem: &GuestMem, key: &[u8]) -> Option<u64> {
        let mut cur = self.header.ds_ptr.0;
        while cur != 0 {
            let key_ptr = baseline::guest_u64(mem, VirtAddr(cur + NODE_KEY_PTR_OFF));
            if mem
                .bytes_equal(VirtAddr(key_ptr), key)
                .expect("list key readable")
            {
                return Some(cur);
            }
            cur = baseline::guest_u64(mem, VirtAddr(cur + NODE_NEXT_OFF));
        }
        None
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

impl MutableDs for LinkedList {
    fn ds_insert(&mut self, mem: &mut GuestMem, key: &[u8], value: u64) -> Result<(), MutateError> {
        self.insert(mem, key, value).map_err(MutateError::from)
    }

    fn ds_remove(&mut self, mem: &mut GuestMem, key: &[u8]) -> Result<u64, MutateError> {
        self.remove(mem, key).map_err(MutateError::from)
    }
}

impl QueryDs for LinkedList {
    fn header_addr(&self) -> VirtAddr {
        self.header_addr
    }

    fn query_software(&self, mem: &GuestMem, key: &[u8]) -> u64 {
        let mut cur = self.header.ds_ptr.0;
        while cur != 0 {
            let key_ptr = baseline::guest_u64(mem, VirtAddr(cur + NODE_KEY_PTR_OFF));
            if mem
                .bytes_equal(VirtAddr(key_ptr), key)
                .expect("list key readable")
            {
                return baseline::guest_u64(mem, VirtAddr(cur + NODE_VALUE_OFF));
            }
            cur = baseline::guest_u64(mem, VirtAddr(cur + NODE_NEXT_OFF));
        }
        0
    }

    fn query_traced(&self, mem: &GuestMem, key_addr: VirtAddr, trace: &mut Trace) -> u64 {
        let key_len = self.header.key_len as usize;
        let key = mem.bytes(key_addr, key_len).expect("query key readable");

        baseline::emit_call_overhead(trace);
        let key_dep = baseline::emit_key_stage(trace, key_addr, key_len);
        // Load the root pointer (the caller passes &header; routine reads it).
        let root_load = trace.load(self.header_addr, None);

        let mut cur = self.header.ds_ptr.0;
        let mut cur_dep = root_load;
        while cur != 0 {
            // Load the node: next/key_ptr/value (24 B — one or two lines).
            let node_load = trace.load(VirtAddr(cur), Some(cur_dep));
            trace.load(VirtAddr(cur + 16), Some(node_load));
            let key_ptr = baseline::guest_u64(mem, VirtAddr(cur + NODE_KEY_PTR_OFF));
            let stored = mem
                .bytes(VirtAddr(key_ptr), key_len)
                .expect("list key readable");
            let cmp = baseline::emit_memcmp(
                trace,
                VirtAddr(key_ptr),
                Some(node_load),
                &stored,
                &key,
                key_len,
            );
            let matched = stored == key;
            trace.branch(sites::MATCH, matched, Some(cmp));
            let _ = key_dep;
            if matched {
                let v = trace.load(VirtAddr(cur + NODE_VALUE_OFF), Some(node_load));
                trace.alu1(Some(v));
                return baseline::guest_u64(mem, VirtAddr(cur + NODE_VALUE_OFF));
            }
            // Advance: next pointer already in the loaded node.
            cur = baseline::guest_u64(mem, VirtAddr(cur + NODE_NEXT_OFF));
            let advance = trace.alu1(Some(node_load));
            trace.branch(sites::WALK_LOOP, cur != 0, Some(advance));
            cur_dep = node_load;
        }
        0
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::stage_key;
    use qei_core::{run_query, FirmwareStore};

    fn sample(mem: &mut GuestMem) -> LinkedList {
        let mut l = LinkedList::new(mem, 8).unwrap();
        for i in 0..20u64 {
            l.insert(mem, format!("k{i:07}").as_bytes(), 100 + i)
                .unwrap();
        }
        l
    }

    #[test]
    fn software_query_hits_and_misses() {
        let mut mem = GuestMem::new(50);
        let l = sample(&mut mem);
        assert_eq!(l.len(), 20);
        assert_eq!(l.query_software(&mem, b"k0000007"), 107);
        assert_eq!(l.query_software(&mem, b"k0000019"), 119);
        assert_eq!(l.query_software(&mem, b"k9999999"), 0);
    }

    #[test]
    fn firmware_agrees_with_software() {
        let mut mem = GuestMem::new(51);
        let l = sample(&mut mem);
        let fw = FirmwareStore::with_builtins();
        for i in [0u64, 5, 19, 77] {
            let key = format!("k{i:07}");
            let ka = stage_key(&mut mem, key.as_bytes());
            assert_eq!(
                run_query(&fw, &mem, l.header_addr(), ka).unwrap(),
                l.query_software(&mem, key.as_bytes()),
                "key {i}"
            );
        }
    }

    #[test]
    fn traced_query_returns_same_result_and_emits_work() {
        let mut mem = GuestMem::new(52);
        let l = sample(&mut mem);
        let ka = stage_key(&mut mem, b"k0000000"); // deepest node (head-insert)
        let mut t = Trace::new();
        let r = l.query_traced(&mem, ka, &mut t);
        assert_eq!(r, l.query_software(&mem, b"k0000000"));
        // The walk visits many nodes: dozens of micro-ops.
        assert!(t.len() > 50, "trace too small: {}", t.len());
        assert!(t.stats().branches > 10);
    }

    #[test]
    fn empty_list_misses() {
        let mut mem = GuestMem::new(53);
        let l = LinkedList::new(&mut mem, 8).unwrap();
        assert!(l.is_empty());
        assert_eq!(l.query_software(&mem, b"whatever"), 0);
        let ka = stage_key(&mut mem, b"whatever");
        let mut t = Trace::new();
        assert_eq!(l.query_traced(&mem, ka, &mut t), 0);
    }

    #[test]
    fn upsert_overwrites_in_place_without_growing() {
        let mut mem = GuestMem::new(55);
        let mut l = sample(&mut mem);
        l.insert(&mut mem, b"k0000007", 777).unwrap();
        assert_eq!(l.len(), 20, "upsert must not add a node");
        assert_eq!(l.query_software(&mem, b"k0000007"), 777);
    }

    #[test]
    fn remove_unlinks_and_queries_miss() {
        let mut mem = GuestMem::new(56);
        let mut l = sample(&mut mem);
        assert_eq!(l.remove(&mut mem, b"k0000007").unwrap(), 107);
        assert_eq!(l.len(), 19);
        assert_eq!(l.query_software(&mem, b"k0000007"), 0);
        // Other keys survive; firmware agrees.
        let fw = FirmwareStore::with_builtins();
        for i in [0u64, 6, 8, 19] {
            let key = format!("k{i:07}");
            let ka = stage_key(&mut mem, key.as_bytes());
            assert_eq!(run_query(&fw, &mem, l.header_addr(), ka).unwrap(), 100 + i);
        }
        // Removing the head (most recent insert) rewrites ds_ptr.
        assert_eq!(l.remove(&mut mem, b"k0000019").unwrap(), 119);
        assert_eq!(l.query_software(&mem, b"k0000019"), 0);
        // Absent key removes as 0.
        assert_eq!(l.remove(&mut mem, b"k0000007").unwrap(), 0);
    }

    #[test]
    fn mutations_leave_epoch_even_and_queries_dispatchable() {
        let mut mem = GuestMem::new(57);
        let mut l = sample(&mut mem);
        l.insert(&mut mem, b"k0000099", 1).unwrap();
        l.remove(&mut mem, b"k0000099").unwrap();
        let h = Header::read_from(&mem, l.header_addr()).unwrap();
        assert!(!h.stale(), "epoch left odd: {}", h.epoch);
        assert!(h.epoch >= 4, "both mutations must bump twice");
        let fw = FirmwareStore::with_builtins();
        let ka = stage_key(&mut mem, b"k0000003");
        assert_eq!(run_query(&fw, &mem, l.header_addr(), ka).unwrap(), 103);
    }

    #[test]
    #[should_panic(expected = "not-found sentinel")]
    fn zero_value_rejected() {
        let mut mem = GuestMem::new(54);
        let mut l = LinkedList::new(&mut mem, 4).unwrap();
        let _ = l.insert(&mut mem, b"abcd", 0);
    }
}
