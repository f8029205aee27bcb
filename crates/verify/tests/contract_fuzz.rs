//! Cost-contract soundness property test (SimRng-driven).
//!
//! The static analyzer promises: for any *successfully completing* query
//! against an in-envelope header, every observed dynamic resource counter is
//! `<=` the contract's static bound. This test hammers that promise with the
//! same two attack shapes as the header fuzz — honest queries over real
//! structures, and single-byte header corruptions — through all eight
//! shipped CFAs. A violation means the abstract interpretation is unsound
//! (or a firmware walk got deeper than its widening bound) and must fail the
//! build, not ship a wrong contract to admission control.
//!
//! `install_contracts()` also arms the `qei-core` debug assertion, so in
//! debug builds the runtime checker independently audits every completion;
//! the manual asserts below keep the property enforced in release too.

use qei_config::{CostContract, SimRng};
use qei_core::firmware::btree::{BPlusTreeCfa, BTREE_TYPE};
use qei_core::{run_query_counted, FirmwareStore, Header, HEADER_BYTES};
use qei_datastructs::{
    stage_key, AcTrie, BPlusTree, Bst, ChainedHash, CuckooHash, LinkedList, LpmTrie, QueryDs,
    SkipList,
};
use qei_mem::{GuestMem, VirtAddr};
use qei_verify::ContractSet;
use std::sync::Arc;

fn firmware() -> FirmwareStore {
    let mut fw = FirmwareStore::with_builtins();
    fw.register(BTREE_TYPE, 0, Arc::new(BPlusTreeCfa));
    fw
}

/// Runs one query and, when it completes successfully against an in-envelope
/// header, asserts every observed counter against the static bound. Faulting
/// queries are exempt (the `STEP_LIMIT` watchdog bounds them), as are
/// headers outside the widening envelope (only reachable via corruption).
fn assert_sound(
    set: &ContractSet,
    fw: &FirmwareStore,
    mem: &GuestMem,
    header_addr: VirtAddr,
    key_addr: VirtAddr,
) {
    let (result, cost, steps) = run_query_counted(fw, mem, header_addr, key_addr);
    if result.is_err() {
        return;
    }
    let Ok(h) = Header::read_from(mem, header_addr) else {
        return;
    };
    let Some(c) = set
        .contracts
        .iter()
        .find(|c| c.dtype == h.dtype.to_byte() && c.subtype == h.subtype)
    else {
        return;
    };
    if !c.covers(h.key_len, h.aux0) {
        return;
    }
    let checks: [(&str, u64, u64); 8] = [
        ("states", steps, c.states),
        ("read_ops", cost.read_ops, c.read_ops),
        ("read_bytes", cost.read_bytes, c.read_bytes),
        ("compare_ops", cost.compare_ops, c.compare_ops),
        ("compare_bytes", cost.compare_bytes, c.compare_bytes),
        ("hash_ops", cost.hash_ops, c.hash_ops),
        ("alu_ops", cost.alu_ops, c.alu_ops),
        ("mem_lines", cost.mem_lines, c.mem_lines),
    ];
    for (metric, observed, bound) in checks {
        assert!(
            observed <= bound,
            "CFA {} ({}/{}): observed {metric} = {observed} exceeds the static bound {bound}",
            c.cfa,
            c.dtype,
            c.subtype
        );
    }
}

struct Fixture {
    mem: GuestMem,
    /// `(header_addr, honest key addrs)` per structure, in build order.
    structures: Vec<(VirtAddr, Vec<VirtAddr>)>,
}

/// Builds all eight structures (the header-fuzz fixture) plus staged keys.
fn build_fixture() -> Fixture {
    let mut mem = GuestMem::new(0xC0_47AC7);

    let mut list = LinkedList::new(&mut mem, 8).expect("guest alloc");
    let mut chained = ChainedHash::new(&mut mem, 16, 8, 0x1234).expect("guest alloc");
    let mut cuckoo = CuckooHash::new(&mut mem, 16, 4, 8, (0xA5, 0x5A)).expect("guest alloc");
    let mut skip = SkipList::new(&mut mem, 12, 8, 0x5EED).expect("guest alloc");
    let mut bst = Bst::new(&mut mem).expect("guest alloc");
    for i in 0u64..24 {
        let key = (i * 7 + 1).to_be_bytes();
        list.insert(&mut mem, &key, 100 + i).expect("guest alloc");
        chained
            .insert(&mut mem, &key, 200 + i)
            .expect("guest alloc");
        cuckoo
            .insert(&mut mem, &key, 300 + i)
            .expect("table has room");
        skip.insert(&mut mem, &key, 400 + i).expect("guest alloc");
        bst.insert(&mut mem, i * 7 + 1, 500 + i)
            .expect("guest alloc");
    }
    let dict: Vec<Vec<u8>> = vec![b"he".to_vec(), b"she".to_vec(), b"hers".to_vec()];
    let trie = AcTrie::build(&mut mem, &dict, 8).expect("guest alloc");
    let routes: Vec<(Vec<u8>, u64)> = vec![
        (vec![10], 1),
        (vec![10, 0], 2),
        (vec![192, 168], 3),
        (vec![192, 168, 1], 4),
    ];
    let lpm = LpmTrie::build(&mut mem, &routes).expect("guest alloc");
    let items: Vec<(u64, u64)> = (0u64..40).map(|i| (i * 3 + 1, 900 + i)).collect();
    let btree = BPlusTree::build(&mut mem, &items).expect("guest alloc");

    let int_keys: Vec<VirtAddr> = (0u64..4)
        .map(|i| stage_key(&mut mem, &(i * 7 + 1).to_be_bytes()))
        .collect();
    let text_keys: Vec<VirtAddr> = [b"ushershe".as_slice(), b"xxxxxxxx".as_slice()]
        .iter()
        .map(|k| stage_key(&mut mem, k))
        .collect();
    let route_keys: Vec<VirtAddr> = [[10u8, 0, 0, 1].as_slice(), [192u8, 168, 1, 7].as_slice()]
        .iter()
        .map(|k| stage_key(&mut mem, k))
        .collect();

    let structures = vec![
        (list.header_addr(), int_keys.clone()),
        (chained.header_addr(), int_keys.clone()),
        (cuckoo.header_addr(), int_keys.clone()),
        (skip.header_addr(), int_keys.clone()),
        (bst.header_addr(), int_keys.clone()),
        (trie.header_addr(), text_keys),
        (lpm.header_addr(), route_keys),
        (btree.header_addr(), int_keys),
    ];
    Fixture { mem, structures }
}

/// Honest queries through all eight structures stay within their bounds.
#[test]
fn honest_queries_respect_the_static_bounds() {
    qei_verify::install_contracts();
    let set = qei_verify::contracts_all();
    let fw = firmware();
    let f = build_fixture();
    for (header_addr, keys) in &f.structures {
        for &key_addr in keys {
            assert_sound(&set, &fw, &f.mem, *header_addr, key_addr);
        }
    }
}

/// Bit-flipped headers: every query that still *completes* against a header
/// the contract covers must stay within the bounds.
#[test]
fn corrupted_headers_respect_the_static_bounds() {
    qei_verify::install_contracts();
    let set = qei_verify::contracts_all();
    let fw = firmware();
    let mut f = build_fixture();
    let mut rng = SimRng::seed_from_u64(0xC057_F122);

    for (header_addr, keys) in f.structures.clone() {
        let pristine = f
            .mem
            .bytes(header_addr, HEADER_BYTES as usize)
            .expect("header is mapped")
            .into_owned();
        for _ in 0..200 {
            let off = (rng.next_u64() % HEADER_BYTES) as usize;
            let flip = (rng.next_u64() % 0xFF) as u8 + 1;
            let mut corrupted = pristine.clone();
            corrupted[off] ^= flip;
            f.mem
                .write(header_addr, &corrupted)
                .expect("header is mapped");
            let key_addr = keys[(rng.next_u64() as usize) % keys.len()];
            assert_sound(&set, &fw, &f.mem, header_addr, key_addr);
        }
        f.mem
            .write(header_addr, &pristine)
            .expect("header is mapped");
    }
}

/// Pinned tightness: the bounds are conservative by design, but they must
/// stay *finite and usable* — within a pinned factor of the deepest honest
/// walk. Catches both unsound shrinkage (ratio < 1 fails the soundness
/// tests above) and runaway widening (ratio blowing past the pin here).
#[test]
fn bound_tightness_is_pinned() {
    let set = qei_verify::contracts_all();
    let fw = firmware();
    let f = build_fixture();

    // Deepest observed step count per structure over the honest keys.
    let mut worst: Vec<(CostContract, u64)> = Vec::new();
    for (header_addr, keys) in &f.structures {
        let h = Header::read_from(&f.mem, *header_addr).expect("pristine header parses");
        let c = set
            .contracts
            .iter()
            .find(|c| c.dtype == h.dtype.to_byte() && c.subtype == h.subtype)
            .expect("every shipped structure has a contract")
            .clone();
        let mut deepest = 0u64;
        for &key_addr in keys {
            let (result, _, steps) = run_query_counted(&fw, &f.mem, *header_addr, key_addr);
            assert!(result.is_ok(), "honest query through {} faulted", c.cfa);
            deepest = deepest.max(steps);
        }
        worst.push((c, deepest));
    }

    for (c, deepest) in &worst {
        assert!(*deepest > 0, "{} walked zero steps", c.cfa);
        let tightness = c.states / deepest;
        assert!(
            tightness >= 1,
            "{}: bound {} below observed {deepest}",
            c.cfa,
            c.states
        );
        // The widening factors are structure-specific; the loosest (tries,
        // whose envelope covers 4 KB texts against our 8-byte probes) still
        // stays under this pin. Raising a widening bound past the pin is a
        // deliberate contract change and should be reviewed.
        assert!(
            tightness <= 2_000_000,
            "{}: bound {} is {tightness}x the observed walk ({deepest}) — widening ran away",
            c.cfa,
            c.states
        );
    }
}
