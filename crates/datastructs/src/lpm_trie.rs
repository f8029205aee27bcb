//! Guest-memory longest-prefix-match routing trie (trie subtype 1).
//!
//! A byte-granular LPM table for IPv4-style addresses: routes are prefixes
//! whose lengths are multiples of 8 bits (/8, /16, /24, /32 — the common
//! granularities of multibit tries like Poptrie's direct-pointing levels),
//! each mapping to a non-zero next-hop id. Lookups walk address bytes
//! through the trie and return the next-hop of the longest matching prefix.
//!
//! Node layout reuses `qei_core::firmware::trie`: `out` = next-hop id at
//! this node (0 = no route ends here), `fail` unused, sorted child array.

use crate::baseline::{self, sites};
use crate::QueryDs;
use qei_core::firmware::lpm::SUBTYPE_LPM;
use qei_core::firmware::trie::{
    CHILD_ENTRY_BYTES, NODE_CHILDREN_OFF, NODE_CHILD_COUNT_OFF, NODE_OUT_OFF,
};
use qei_core::header::{DsType, Header, HEADER_BYTES};
use qei_cpu::Trace;
use qei_mem::{GuestMem, MemError, VirtAddr};

/// Address length in bytes (IPv4).
pub const ADDR_LEN: usize = 4;

/// Host-side node used during construction.
#[derive(Debug, Default, Clone)]
struct BuildNode {
    children: Vec<(u8, usize)>,
    next_hop: u64,
}

/// A routing table living in guest memory.
#[derive(Debug)]
pub struct LpmTrie {
    header_addr: VirtAddr,
    header: Header,
    routes: usize,
    mirror: Vec<BuildNode>,
}

impl LpmTrie {
    /// Builds the trie from `(prefix bytes, next_hop)` routes, where a
    /// prefix's length in bytes is `prefix.len()` (1–4) and `next_hop` is a
    /// non-zero id, then serializes it into guest memory.
    ///
    /// # Errors
    ///
    /// Propagates guest allocation failures.
    ///
    /// # Panics
    ///
    /// Panics on an empty/overlong prefix, a zero next-hop, or duplicate
    /// routes for the same prefix.
    pub fn build(mem: &mut GuestMem, routes: &[(Vec<u8>, u64)]) -> Result<Self, MemError> {
        let mut nodes: Vec<BuildNode> = vec![BuildNode::default()];
        for (prefix, hop) in routes {
            assert!(
                !prefix.is_empty() && prefix.len() <= ADDR_LEN,
                "prefix length must be 1..={ADDR_LEN} bytes"
            );
            assert_ne!(*hop, 0, "zero is the no-route sentinel");
            let mut cur = 0usize;
            for &b in prefix {
                cur = match nodes[cur].children.binary_search_by_key(&b, |&(c, _)| c) {
                    Ok(pos) => nodes[cur].children[pos].1,
                    Err(pos) => {
                        let id = nodes.len();
                        nodes.push(BuildNode::default());
                        nodes[cur].children.insert(pos, (b, id));
                        id
                    }
                };
            }
            assert_eq!(nodes[cur].next_hop, 0, "duplicate route");
            nodes[cur].next_hop = *hop;
        }

        let mut addrs = Vec::with_capacity(nodes.len());
        for n in &nodes {
            let bytes = NODE_CHILDREN_OFF + n.children.len() as u64 * CHILD_ENTRY_BYTES;
            addrs.push(mem.alloc(bytes, 8)?);
        }
        for (i, n) in nodes.iter().enumerate() {
            let a = addrs[i];
            mem.write_u64(a + NODE_OUT_OFF, n.next_hop)?;
            mem.write_u16(a + NODE_CHILD_COUNT_OFF, n.children.len() as u16)?;
            for (j, &(b, c)) in n.children.iter().enumerate() {
                let ea = a + NODE_CHILDREN_OFF + j as u64 * CHILD_ENTRY_BYTES;
                mem.write_u8(ea, b)?;
                mem.write_u64(ea + 8, addrs[c].0)?;
            }
        }

        let header = Header {
            ds_ptr: addrs[0],
            dtype: DsType::Trie,
            subtype: SUBTYPE_LPM,
            key_len: ADDR_LEN as u16,
            flags: 0,
            capacity: nodes.len() as u64,
            aux0: 0,
            aux1: 0,
            aux2: 0,
            epoch: 0,
        };
        let header_addr = mem.alloc(HEADER_BYTES, 64)?;
        header.write_to(mem, header_addr)?;
        Ok(LpmTrie {
            header_addr,
            header,
            routes: routes.len(),
            mirror: nodes,
        })
    }

    /// Number of installed routes.
    pub fn routes(&self) -> usize {
        self.routes
    }

    /// Host-side oracle: the longest-prefix next-hop for `addr`.
    pub fn lookup_host(&self, addr: &[u8; ADDR_LEN]) -> u64 {
        let mut cur = 0usize;
        let mut best = 0u64;
        for &b in addr {
            if self.mirror[cur].next_hop != 0 {
                best = self.mirror[cur].next_hop;
            }
            match self.mirror[cur]
                .children
                .binary_search_by_key(&b, |&(c, _)| c)
            {
                Ok(pos) => cur = self.mirror[cur].children[pos].1,
                Err(_) => return best,
            }
        }
        if self.mirror[cur].next_hop != 0 {
            best = self.mirror[cur].next_hop;
        }
        best
    }
}

impl QueryDs for LpmTrie {
    fn header_addr(&self) -> VirtAddr {
        self.header_addr
    }

    fn query_software(&self, mem: &GuestMem, key: &[u8]) -> u64 {
        let mut cur = self.header.ds_ptr.0;
        let mut best = 0u64;
        for &b in key {
            let hop = baseline::guest_u64(mem, VirtAddr(cur + NODE_OUT_OFF));
            if hop != 0 {
                best = hop;
            }
            let count = mem
                .read_u16(VirtAddr(cur + NODE_CHILD_COUNT_OFF))
                .expect("node") as u64;
            let mut child = 0u64;
            for j in 0..count {
                let ea = cur + NODE_CHILDREN_OFF + j * CHILD_ENTRY_BYTES;
                if mem.read_u8(VirtAddr(ea)).expect("entry") == b {
                    child = baseline::guest_u64(mem, VirtAddr(ea + 8));
                    break;
                }
            }
            if child == 0 {
                return best;
            }
            cur = child;
        }
        let hop = baseline::guest_u64(mem, VirtAddr(cur + NODE_OUT_OFF));
        if hop != 0 {
            best = hop;
        }
        best
    }

    fn query_traced(&self, mem: &GuestMem, key_addr: VirtAddr, trace: &mut Trace) -> u64 {
        let key = mem.bytes(key_addr, ADDR_LEN).expect("address readable");
        baseline::emit_call_overhead(trace);
        let key_dep = baseline::emit_key_stage(trace, key_addr, ADDR_LEN);

        let mut cur = self.header.ds_ptr.0;
        let mut cur_dep = trace.load(self.header_addr, Some(key_dep));
        let mut best = 0u64;
        for &b in key.iter() {
            let node_load = trace.load(VirtAddr(cur), Some(cur_dep));
            let hop = baseline::guest_u64(mem, VirtAddr(cur + NODE_OUT_OFF));
            let check = trace.alu(1, Some(node_load), None);
            trace.branch(sites::MATCH, hop != 0, Some(check));
            if hop != 0 {
                best = hop;
            }
            let count = mem
                .read_u16(VirtAddr(cur + NODE_CHILD_COUNT_OFF))
                .expect("node") as u64;
            // Binary search of the sorted child array.
            let (mut lo, mut hi) = (0u64, count);
            let mut child = 0u64;
            while lo < hi {
                let mid = (lo + hi) / 2;
                let ea = cur + NODE_CHILDREN_OFF + mid * CHILD_ENTRY_BYTES;
                let probe = trace.load(VirtAddr(ea), Some(node_load));
                let cb = mem.read_u8(VirtAddr(ea)).expect("entry");
                let cmp = trace.alu(1, Some(probe), None);
                match cb.cmp(&b) {
                    std::cmp::Ordering::Equal => {
                        trace.branch(sites::TRIE_SEARCH, true, Some(cmp));
                        child = baseline::guest_u64(mem, VirtAddr(ea + 8));
                        break;
                    }
                    std::cmp::Ordering::Less => {
                        trace.branch(sites::TRIE_SEARCH, false, Some(cmp));
                        lo = mid + 1;
                    }
                    std::cmp::Ordering::Greater => {
                        trace.branch(sites::TRIE_SEARCH, false, Some(cmp));
                        hi = mid;
                    }
                }
            }
            if child == 0 {
                return best;
            }
            cur = child;
            cur_dep = node_load;
        }
        // Terminal node's route.
        let node_load = trace.load(VirtAddr(cur), Some(cur_dep));
        trace.alu1(Some(node_load));
        let hop = baseline::guest_u64(mem, VirtAddr(cur + NODE_OUT_OFF));
        if hop != 0 {
            best = hop;
        }
        best
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::stage_key;
    use qei_core::{run_query, FirmwareStore};

    fn table(mem: &mut GuestMem) -> LpmTrie {
        // 10.0.0.0/8 -> 1; 10.1.0.0/16 -> 2; 10.1.2.0/24 -> 3;
        // 10.1.2.3/32 -> 4; 192.168.0.0/16 -> 5.
        LpmTrie::build(
            mem,
            &[
                (vec![10], 1),
                (vec![10, 1], 2),
                (vec![10, 1, 2], 3),
                (vec![10, 1, 2, 3], 4),
                (vec![192, 168], 5),
            ],
        )
        .unwrap()
    }

    #[test]
    fn longest_prefix_wins() {
        let mut mem = GuestMem::new(110);
        let t = table(&mut mem);
        assert_eq!(t.routes(), 5);
        assert_eq!(t.lookup_host(&[10, 9, 9, 9]), 1);
        assert_eq!(t.lookup_host(&[10, 1, 9, 9]), 2);
        assert_eq!(t.lookup_host(&[10, 1, 2, 9]), 3);
        assert_eq!(t.lookup_host(&[10, 1, 2, 3]), 4);
        assert_eq!(t.lookup_host(&[192, 168, 1, 1]), 5);
        assert_eq!(t.lookup_host(&[8, 8, 8, 8]), 0);
    }

    #[test]
    fn guest_walk_matches_host_oracle() {
        let mut mem = GuestMem::new(111);
        let t = table(&mut mem);
        for addr in [
            [10, 9, 9, 9],
            [10, 1, 9, 9],
            [10, 1, 2, 9],
            [10, 1, 2, 3],
            [192, 168, 1, 1],
            [8, 8, 8, 8],
        ] {
            assert_eq!(
                t.query_software(&mem, &addr),
                t.lookup_host(&addr),
                "{addr:?}"
            );
        }
    }

    #[test]
    fn firmware_agrees_with_software() {
        let mut mem = GuestMem::new(112);
        let t = table(&mut mem);
        let fw = FirmwareStore::with_builtins();
        for addr in [
            [10u8, 9, 9, 9],
            [10, 1, 2, 3],
            [192, 168, 0, 0],
            [1, 2, 3, 4],
        ] {
            let ka = stage_key(&mut mem, &addr);
            assert_eq!(
                run_query(&fw, &mem, t.header_addr(), ka).unwrap(),
                t.query_software(&mem, &addr),
                "{addr:?}"
            );
        }
    }

    #[test]
    fn traced_matches_software() {
        let mut mem = GuestMem::new(113);
        let t = table(&mut mem);
        let ka = stage_key(&mut mem, &[10, 1, 2, 3]);
        let mut tr = Trace::new();
        assert_eq!(t.query_traced(&mem, ka, &mut tr), 4);
        assert!(tr.len() > 20);
    }

    #[test]
    #[should_panic(expected = "duplicate route")]
    fn duplicate_route_panics() {
        let mut mem = GuestMem::new(114);
        let _ = LpmTrie::build(&mut mem, &[(vec![10], 1), (vec![10], 2)]);
    }
}
