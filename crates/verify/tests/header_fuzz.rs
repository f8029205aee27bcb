//! Header-corruption property test (SimRng-driven).
//!
//! The accelerator reads the 64-byte structure header straight out of guest
//! memory, so a hostile or buggy guest can hand it *anything*. The safety
//! property: `run_query` never panics — every outcome is `Ok(value)` or a
//! typed `FaultCode`. Two attack shapes:
//!
//! 1. fully random 64-byte headers on otherwise empty guest memory;
//! 2. single-byte corruptions of *real* headers over *real* built
//!    structures, which exercise much deeper CFA walks before the
//!    corruption bites.

use qei_config::SimRng;
use qei_core::firmware::btree::{BPlusTreeCfa, BTREE_TYPE};
use qei_core::{run_query, FirmwareStore, HEADER_BYTES};
use qei_datastructs::{
    stage_key, AcTrie, BPlusTree, Bst, ChainedHash, CuckooHash, LinkedList, LpmTrie, QueryDs,
    SkipList,
};
use qei_mem::{GuestMem, VirtAddr};
use std::sync::Arc;

fn firmware() -> FirmwareStore {
    let mut fw = FirmwareStore::with_builtins();
    fw.register(BTREE_TYPE, 0, Arc::new(BPlusTreeCfa));
    fw
}

/// Fully random headers: 300 of them, each paired with a staged key, must
/// all resolve to `Ok` or a typed fault.
#[test]
fn random_headers_never_panic() {
    let fw = firmware();
    let mut mem = GuestMem::new(0xF00D);
    let mut rng = SimRng::seed_from_u64(0x04EA_DE44);

    let header_addr = mem.alloc(HEADER_BYTES, 64).expect("guest alloc");
    let key_addr = stage_key(&mut mem, b"fuzzkey_");

    for _ in 0..300 {
        let mut bytes = [0u8; HEADER_BYTES as usize];
        for chunk in bytes.chunks_mut(8) {
            let v = rng.next_u64().to_le_bytes();
            chunk.copy_from_slice(&v[..chunk.len()]);
        }
        mem.write(header_addr, &bytes).expect("header is mapped");
        // The property *is* "does not panic": a panic aborts the test.
        let _ = run_query(&fw, &mem, header_addr, key_addr);
    }
}

/// Builds each of the eight structures, then flips random header bytes and
/// queries through the corrupted header. Restores the byte between rounds so
/// corruptions stay independent.
fn flip_and_query(mem: &mut GuestMem, fw: &FirmwareStore, ds: &dyn QueryDs, keys: &[&[u8]]) {
    let mut rng = SimRng::seed_from_u64(0xB17F_11B5);
    let header_addr = ds.header_addr();
    let pristine = mem
        .bytes(header_addr, HEADER_BYTES as usize)
        .expect("header is mapped")
        .into_owned();
    let key_addrs: Vec<VirtAddr> = keys.iter().map(|k| stage_key(mem, k)).collect();

    for _ in 0..200 {
        let off = (rng.next_u64() % HEADER_BYTES) as usize;
        let flip = (rng.next_u64() % 0xFF) as u8 + 1; // nonzero: always a real change
        let mut corrupted = pristine.clone();
        corrupted[off] ^= flip;
        mem.write(header_addr, &corrupted)
            .expect("header is mapped");

        let key_addr = key_addrs[(rng.next_u64() as usize) % key_addrs.len()];
        let _ = run_query(fw, mem, header_addr, key_addr);
    }
    mem.write(header_addr, &pristine).expect("header is mapped");
}

#[test]
fn corrupted_real_headers_never_panic() {
    let fw = firmware();
    let mut mem = GuestMem::new(0xBEEF);

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

    let int_keys: Vec<[u8; 8]> = (0u64..4).map(|i| (i * 7 + 1).to_be_bytes()).collect();
    let int_key_refs: Vec<&[u8]> = int_keys.iter().map(|k| k.as_slice()).collect();
    let text_keys: [&[u8]; 2] = [b"ushershe", b"xxxxxxxx"];
    let route_keys: [&[u8]; 2] = [&[10, 0, 0, 1], &[192, 168, 1, 7]];

    flip_and_query(&mut mem, &fw, &list, &int_key_refs);
    flip_and_query(&mut mem, &fw, &chained, &int_key_refs);
    flip_and_query(&mut mem, &fw, &cuckoo, &int_key_refs);
    flip_and_query(&mut mem, &fw, &skip, &int_key_refs);
    flip_and_query(&mut mem, &fw, &bst, &int_key_refs);
    flip_and_query(&mut mem, &fw, &trie, &text_keys);
    flip_and_query(&mut mem, &fw, &lpm, &route_keys);
    flip_and_query(&mut mem, &fw, &btree, &int_key_refs);

    // With the pristine headers restored, the structures still answer.
    let probe = stage_key(&mut mem, &8u64.to_be_bytes());
    assert_eq!(
        run_query(&fw, &mem, list.header_addr(), probe),
        Ok(101),
        "restored header must answer as before"
    );
}
