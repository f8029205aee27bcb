//! Guest-memory Aho–Corasick trie — the Snort literal-matching substrate.
//!
//! The automaton is built host-side from a keyword dictionary (trie insert,
//! BFS failure links, output counts precomputed along failure chains) and
//! serialized into guest memory with the node layout
//! `qei_core::firmware::trie` expects: `{out: u64, fail: u64,
//! child_count: u16, pad, children: [{byte, pad7, ptr}; n] sorted}`.
//!
//! A *query* scans an input text through the automaton and returns the total
//! number of keyword occurrences — one query is one packet/content scan.

use crate::baseline::{self, sites};
use crate::QueryDs;
use qei_core::firmware::trie::{
    CHILD_ENTRY_BYTES, NODE_CHILDREN_OFF, NODE_CHILD_COUNT_OFF, NODE_FAIL_OFF, NODE_HEADER_BYTES,
    NODE_OUT_OFF,
};
use qei_core::header::{DsType, Header, HEADER_BYTES};
use qei_cpu::Trace;
use qei_mem::{GuestMem, MemError, VirtAddr};
use std::collections::VecDeque;

/// Host-side automaton node used during construction.
#[derive(Debug, Default, Clone)]
struct BuildNode {
    children: Vec<(u8, usize)>, // sorted by byte
    fail: usize,
    out: u64, // keywords ending exactly here
    out_sum: u64,
}

/// An Aho–Corasick automaton living in guest memory.
#[derive(Debug)]
pub struct AcTrie {
    header_addr: VirtAddr,
    header: Header,
    keywords: usize,
    nodes: usize,
    /// Host mirror of the automaton (an independent oracle for tests).
    mirror: Vec<BuildNode>,
}

impl AcTrie {
    /// Builds the automaton from `keywords` and serializes it into guest
    /// memory. `text_len` fixes the query key length the header advertises
    /// (all scans use same-length texts, padded by the caller).
    ///
    /// # Errors
    ///
    /// Propagates guest allocation failures.
    ///
    /// # Panics
    ///
    /// Panics if a keyword is empty or `text_len` is zero.
    pub fn build(
        mem: &mut GuestMem,
        keywords: &[Vec<u8>],
        text_len: u16,
    ) -> Result<Self, MemError> {
        assert!(text_len > 0, "text length must be nonzero");
        // --- host-side trie ------------------------------------------------
        let mut nodes: Vec<BuildNode> = vec![BuildNode::default()];
        for kw in keywords {
            assert!(!kw.is_empty(), "empty keyword");
            let mut cur = 0usize;
            for &b in kw {
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
            nodes[cur].out += 1;
        }
        // --- BFS failure links + output sums -------------------------------
        let mut queue = VecDeque::new();
        let root_children = nodes[0].children.clone();
        for &(_, c) in &root_children {
            nodes[c].fail = 0;
            queue.push_back(c);
        }
        nodes[0].out_sum = nodes[0].out;
        for &(_, c) in &root_children {
            nodes[c].out_sum = nodes[c].out + nodes[0].out_sum;
        }
        while let Some(v) = queue.pop_front() {
            let v_children = nodes[v].children.clone();
            for (b, c) in v_children {
                // Find fail(c): deepest proper suffix state with child b.
                let mut f = nodes[v].fail;
                loop {
                    if let Ok(pos) = nodes[f].children.binary_search_by_key(&b, |&(cb, _)| cb) {
                        let t = nodes[f].children[pos].1;
                        if t != c {
                            nodes[c].fail = t;
                            break;
                        }
                    }
                    if f == 0 {
                        nodes[c].fail = 0;
                        break;
                    }
                    f = nodes[f].fail;
                }
                nodes[c].out_sum = nodes[c].out + nodes[nodes[c].fail].out_sum;
                queue.push_back(c);
            }
        }

        // --- serialize to guest memory -------------------------------------
        let mut node_addrs = Vec::with_capacity(nodes.len());
        for n in &nodes {
            let bytes = NODE_HEADER_BYTES + n.children.len() as u64 * CHILD_ENTRY_BYTES;
            node_addrs.push(mem.alloc(bytes, 8)?);
        }
        for (i, n) in nodes.iter().enumerate() {
            let a = node_addrs[i];
            mem.write_u64(a + NODE_OUT_OFF, n.out_sum)?;
            let fail_addr = if i == 0 { 0 } else { node_addrs[n.fail].0 };
            mem.write_u64(a + NODE_FAIL_OFF, fail_addr)?;
            mem.write_u16(a + NODE_CHILD_COUNT_OFF, n.children.len() as u16)?;
            for (j, &(b, c)) in n.children.iter().enumerate() {
                let ea = a + NODE_CHILDREN_OFF + j as u64 * CHILD_ENTRY_BYTES;
                mem.write_u8(ea, b)?;
                mem.write_u64(ea + 8, node_addrs[c].0)?;
            }
        }

        let header = Header {
            ds_ptr: node_addrs[0],
            dtype: DsType::Trie,
            subtype: 0,
            key_len: text_len,
            flags: 0,
            capacity: nodes.len() as u64,
            aux0: 0,
            aux1: 0,
            aux2: 0,
            epoch: 0,
        };
        let header_addr = mem.alloc(HEADER_BYTES, 64)?;
        header.write_to(mem, header_addr)?;
        Ok(AcTrie {
            header_addr,
            header,
            keywords: keywords.len(),
            nodes: nodes.len(),
            mirror: nodes,
        })
    }

    /// Number of keywords in the dictionary.
    pub fn keywords(&self) -> usize {
        self.keywords
    }

    /// Number of automaton states.
    pub fn nodes(&self) -> usize {
        self.nodes
    }

    /// The text length queries must use.
    pub fn text_len(&self) -> usize {
        self.header.key_len as usize
    }

    /// Pure host-side match count (no guest memory) — an independent oracle
    /// for tests.
    pub fn count_matches_host(&self, text: &[u8]) -> u64 {
        let mut cur = 0usize;
        let mut acc = 0u64;
        for &b in text {
            loop {
                if let Ok(pos) = self.mirror[cur]
                    .children
                    .binary_search_by_key(&b, |&(cb, _)| cb)
                {
                    cur = self.mirror[cur].children[pos].1;
                    acc += self.mirror[cur].out_sum;
                    break;
                }
                if cur == 0 {
                    break;
                }
                cur = self.mirror[cur].fail;
            }
        }
        acc
    }
}

impl QueryDs for AcTrie {
    fn header_addr(&self) -> VirtAddr {
        self.header_addr
    }

    fn query_software(&self, mem: &GuestMem, key: &[u8]) -> u64 {
        // Walk the *guest* automaton (validates serialization).
        let mut cur = self.header.ds_ptr.0;
        let root = cur;
        let mut acc = 0u64;
        for &b in key {
            loop {
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
                if child != 0 {
                    cur = child;
                    acc += baseline::guest_u64(mem, VirtAddr(cur + NODE_OUT_OFF));
                    break;
                }
                if cur == root {
                    break;
                }
                cur = baseline::guest_u64(mem, VirtAddr(cur + NODE_FAIL_OFF));
            }
        }
        acc
    }

    fn query_traced(&self, mem: &GuestMem, key_addr: VirtAddr, trace: &mut Trace) -> u64 {
        let text = mem.bytes(key_addr, self.text_len()).expect("text readable");

        baseline::emit_call_overhead(trace);
        // The scanner streams the text; model as loads per 64 B chunk, issued
        // as the scan reaches them.
        let root = self.header.ds_ptr.0;
        let mut cur = root;
        let mut acc = 0u64;
        let mut cur_dep = trace.load(self.header_addr, None);
        let mut last_chunk = u64::MAX;
        for (i, &b) in text.iter().enumerate() {
            let chunk = (i / 64) as u64;
            if chunk != last_chunk {
                cur_dep = trace.load(key_addr + chunk * 64, Some(cur_dep));
                last_chunk = chunk;
            }
            loop {
                // Load node header.
                let node_load = trace.load(VirtAddr(cur), Some(cur_dep));
                let count = mem
                    .read_u16(VirtAddr(cur + NODE_CHILD_COUNT_OFF))
                    .expect("node") as u64;
                // Binary search over children: ~log2(n)+1 probes, each a load
                // + compare + branch.
                let mut child = 0u64;
                let (mut lo, mut hi) = (0u64, count);
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
                if child != 0 {
                    cur = child;
                    let out_load = trace.load(VirtAddr(cur + NODE_OUT_OFF), Some(node_load));
                    trace.alu1(Some(out_load));
                    acc += baseline::guest_u64(mem, VirtAddr(cur + NODE_OUT_OFF));
                    trace.branch(sites::TRIE_FAIL, false, Some(out_load));
                    cur_dep = out_load;
                    break;
                }
                if cur == root {
                    trace.branch(sites::TRIE_FAIL, false, Some(node_load));
                    cur_dep = node_load;
                    break;
                }
                // Follow the failure link.
                let fail_load = trace.load(VirtAddr(cur + NODE_FAIL_OFF), Some(node_load));
                trace.branch(sites::TRIE_FAIL, true, Some(fail_load));
                cur = baseline::guest_u64(mem, VirtAddr(cur + NODE_FAIL_OFF));
                cur_dep = fail_load;
            }
        }
        acc
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::stage_key;
    use qei_core::{run_query, FirmwareStore};

    fn keywords() -> Vec<Vec<u8>> {
        ["he", "she", "his", "hers", "attack", "att"]
            .iter()
            .map(|s| s.as_bytes().to_vec())
            .collect()
    }

    fn pad(text: &[u8], len: usize) -> Vec<u8> {
        let mut v = text.to_vec();
        v.resize(len, b'.');
        v
    }

    #[test]
    fn classic_ac_counts() {
        let mut mem = GuestMem::new(100);
        let t = AcTrie::build(&mut mem, &keywords(), 32).unwrap();
        assert_eq!(t.keywords(), 6);
        // "ushers" contains: she, he, hers.
        let text = pad(b"ushers", 32);
        assert_eq!(t.count_matches_host(&text), 3);
        assert_eq!(t.query_software(&mem, &text), 3);
        // "attack" contains att + attack.
        let text2 = pad(b"attack", 32);
        assert_eq!(t.query_software(&mem, &text2), 2);
        // No matches.
        let text3 = pad(b"zzzzzz", 32);
        assert_eq!(t.query_software(&mem, &text3), 0);
    }

    #[test]
    fn overlapping_occurrences_counted() {
        let mut mem = GuestMem::new(101);
        let t = AcTrie::build(&mut mem, &[b"aa".to_vec()], 16).unwrap();
        // "aaaa............" has 3 occurrences of "aa".
        let text = pad(b"aaaa", 16);
        assert_eq!(t.query_software(&mem, &text), 3);
        assert_eq!(t.count_matches_host(&text), 3);
    }

    #[test]
    fn firmware_agrees_with_software() {
        let mut mem = GuestMem::new(102);
        let t = AcTrie::build(&mut mem, &keywords(), 64).unwrap();
        let fw = FirmwareStore::with_builtins();
        for text in [
            &b"ushers and his attackers she said"[..],
            &b"nothing to see"[..],
            &b"attattattack hehehe"[..],
        ] {
            let padded = pad(text, 64);
            let ka = stage_key(&mut mem, &padded);
            assert_eq!(
                run_query(&fw, &mem, t.header_addr(), ka).unwrap(),
                t.query_software(&mem, &padded),
                "text {:?}",
                String::from_utf8_lossy(text)
            );
        }
    }

    #[test]
    fn traced_matches_and_is_instruction_heavy() {
        let mut mem = GuestMem::new(103);
        let t = AcTrie::build(&mut mem, &keywords(), 128).unwrap();
        let text = pad(b"she sells seashells and he hears hers", 128);
        let ka = stage_key(&mut mem, &text);
        let mut tr = Trace::new();
        let r = t.query_traced(&mem, ka, &mut tr);
        assert_eq!(r, t.query_software(&mem, &text));
        // Per-byte node walk: hundreds of micro-ops for a 128-byte scan.
        assert!(tr.len() > 300, "trace len {}", tr.len());
        assert!(tr.stats().branches > 100);
    }

    #[test]
    fn guest_walk_equals_host_oracle_on_random_text() {
        let mut mem = GuestMem::new(104);
        let t = AcTrie::build(&mut mem, &keywords(), 256).unwrap();
        let mut x = 0x1234_5678u64;
        let text: Vec<u8> = (0..256)
            .map(|_| {
                x ^= x << 13;
                x ^= x >> 7;
                x ^= x << 17;
                b"ahestrk. "[(x % 9) as usize]
            })
            .collect();
        assert_eq!(t.query_software(&mem, &text), t.count_matches_host(&text));
    }
}
