//! Property-style tests on the repo's central invariants, driven by the
//! workspace's own deterministic [`SimRng`] (the build environment is
//! offline, so no external property-testing framework).
//!
//! The load-bearing one: for any structure contents and any query key, the
//! QEI firmware (functional engine *and* every integration scheme's timing
//! walk) returns exactly what the software routine returns.

use qei::cache::MemoryHierarchy;
use qei::config::SimRng;
use qei::prelude::*;

/// Number of randomized cases per property (each case gets its own seed, so
/// any failure reproduces from the case index alone).
const CASES: u64 = 24;

fn key8(seed: u64) -> Vec<u8> {
    format!("k{seed:07}").into_bytes()
}

#[test]
fn linked_list_firmware_matches_software() {
    for case in 0..CASES {
        let mut rng = SimRng::seed_from_u64(0x11 * 1000 + case);
        let mut mem = GuestMem::new(case);
        let mut list = LinkedList::new(&mut mem, 8).unwrap();
        let n = rng.range_inclusive(1, 39);
        for i in 0..n {
            let v = rng.range_inclusive(1, 1_000_000);
            list.insert(&mut mem, &key8(i), v).unwrap();
        }
        let fw = FirmwareStore::with_builtins();
        for _ in 0..rng.range_inclusive(1, 11) {
            let key = key8(rng.below(60));
            let ka = stage_key(&mut mem, &key);
            let sw = list.query_software(&mem, &key);
            let hw = run_query(&fw, &mem, list.header_addr(), ka).unwrap();
            assert_eq!(sw, hw, "case {case}");
        }
    }
}

#[test]
fn cuckoo_hash_firmware_matches_software() {
    for case in 0..CASES {
        let mut rng = SimRng::seed_from_u64(0x22 * 1000 + case);
        let mut mem = GuestMem::new(case);
        let n = rng.range_inclusive(1, 199);
        let capacity = (n / 2).next_power_of_two().max(8);
        let mut table = CuckooHash::new(&mut mem, capacity, 8, 16, (case ^ 1, case ^ 2)).unwrap();
        let mut inserted = 0;
        for i in 0..n {
            let key = format!("flow:{i:011}");
            if table.insert(&mut mem, key.as_bytes(), i + 1).is_ok() {
                inserted += 1;
            }
        }
        assert!(inserted > 0, "case {case}");
        let fw = FirmwareStore::with_builtins();
        for _ in 0..rng.range_inclusive(1, 9) {
            let key = format!("flow:{:011}", rng.below(300));
            let ka = stage_key(&mut mem, key.as_bytes());
            let sw = table.query_software(&mem, key.as_bytes());
            let hw = run_query(&fw, &mem, table.header_addr(), ka).unwrap();
            assert_eq!(sw, hw, "case {case}");
        }
    }
}

#[test]
fn skip_list_firmware_matches_software() {
    for case in 0..CASES {
        let mut rng = SimRng::seed_from_u64(0x33 * 1000 + case);
        let mut mem = GuestMem::new(case);
        let mut sl = SkipList::new(&mut mem, 8, 16, case).unwrap();
        let n = rng.range_inclusive(1, 149);
        for i in 0..n {
            let key = format!("memkey-{i:09}");
            sl.insert(&mut mem, key.as_bytes(), i + 1).unwrap();
        }
        let fw = FirmwareStore::with_builtins();
        for _ in 0..rng.range_inclusive(1, 9) {
            let key = format!("memkey-{:09}", rng.below(250));
            let ka = stage_key(&mut mem, key.as_bytes());
            let sw = sl.query_software(&mem, key.as_bytes());
            let hw = run_query(&fw, &mem, sl.header_addr(), ka).unwrap();
            assert_eq!(sw, hw, "case {case}");
        }
    }
}

#[test]
fn bst_firmware_matches_software() {
    for case in 0..CASES {
        let mut rng = SimRng::seed_from_u64(0x44 * 1000 + case);
        let mut mem = GuestMem::new(case);
        let mut tree = Bst::new(&mut mem).unwrap();
        let mut uniq: Vec<u64> = (0..rng.range_inclusive(1, 119))
            .map(|_| rng.range_inclusive(1, 100_000))
            .collect();
        uniq.sort_unstable();
        uniq.dedup();
        for &k in &uniq {
            tree.insert(&mut mem, k, k + 7).unwrap();
        }
        let fw = FirmwareStore::with_builtins();
        for _ in 0..rng.range_inclusive(1, 11) {
            let p = rng.range_inclusive(1, 100_000);
            let ka = stage_key(&mut mem, &p.to_be_bytes());
            let sw = tree.query_software(&mem, &p.to_be_bytes());
            let hw = run_query(&fw, &mem, tree.header_addr(), ka).unwrap();
            assert_eq!(sw, hw, "case {case}");
        }
    }
}

#[test]
fn trie_firmware_matches_software_and_host_oracle() {
    for case in 0..CASES {
        let mut rng = SimRng::seed_from_u64(0x55 * 1000 + case);
        let mut mem = GuestMem::new(case);
        // Random words over a tiny alphabet so matches actually occur.
        let mut dict: Vec<Vec<u8>> = (0..rng.range_inclusive(1, 24))
            .map(|_| {
                (0..rng.range_inclusive(1, 6))
                    .map(|_| b'a' + rng.below(4) as u8)
                    .collect()
            })
            .collect();
        dict.sort();
        dict.dedup();
        let mut padded: Vec<u8> = (0..rng.range_inclusive(1, 120))
            .map(|_| match rng.below(5) {
                4 => b' ',
                c => b'a' + c as u8,
            })
            .collect();
        padded.resize(128, b'.');
        let trie = AcTrie::build(&mut mem, &dict, 128).unwrap();
        let ka = stage_key(&mut mem, &padded);
        let fw = FirmwareStore::with_builtins();
        let host = trie.count_matches_host(&padded);
        let sw = trie.query_software(&mem, &padded);
        let hw = run_query(&fw, &mem, trie.header_addr(), ka).unwrap();
        assert_eq!(host, sw, "case {case}");
        assert_eq!(sw, hw, "case {case}");
    }
}

#[test]
fn timing_walk_matches_functional_engine_across_schemes() {
    for case in 0..CASES {
        let mut rng = SimRng::seed_from_u64(0x66 * 1000 + case);
        let config = MachineConfig::skylake_sp_24();
        let mut mem = GuestMem::new(case);
        let mut table = ChainedHash::new(&mut mem, 16, 8, case ^ 0xC0FFEE).unwrap();
        for i in 0..rng.range_inclusive(1, 39) {
            table.insert(&mut mem, &key8(i), i + 1).unwrap();
        }
        let probes: Vec<u64> = (0..rng.range_inclusive(1, 5))
            .map(|_| rng.below(60))
            .collect();
        let fw = FirmwareStore::with_builtins();
        for scheme in Scheme::ALL {
            let mut hier = MemoryHierarchy::new(&config);
            let mut accel = QeiAccelerator::new(&config, scheme, 0);
            for &p in &probes {
                let key = key8(p);
                let ka = stage_key(&mut mem, &key);
                let expected = run_query(&fw, &mem, table.header_addr(), ka);
                let (_, result) = accel
                    .submit(
                        QueryRequest::blocking(table.header_addr(), ka),
                        SubmitCtx::new(Cycles(0), &mut mem, &mut hier),
                    )
                    .completed()
                    .unwrap();
                assert_eq!(result, expected, "case {case}, scheme {scheme:?}");
            }
        }
    }
}

#[test]
fn lpm_trie_matches_host_oracle() {
    for case in 0..CASES {
        let mut rng = SimRng::seed_from_u64(0x77 * 1000 + case);
        let mut mem = GuestMem::new(case);
        // Random prefixes, deduped (duplicate routes panic by contract).
        let mut seen = std::collections::HashSet::new();
        let routes: Vec<(Vec<u8>, u64)> = (0..rng.range_inclusive(1, 29))
            .map(|_| {
                let prefix: Vec<u8> = (0..rng.range_inclusive(1, 4))
                    .map(|_| rng.below(256) as u8)
                    .collect();
                (prefix, rng.range_inclusive(1, 999))
            })
            .filter(|(p, _)| seen.insert(p.clone()))
            .collect();
        let trie = LpmTrie::build(&mut mem, &routes).unwrap();
        let fw = FirmwareStore::with_builtins();
        for _ in 0..rng.range_inclusive(1, 15) {
            let addr = [
                rng.below(256) as u8,
                rng.below(256) as u8,
                rng.below(256) as u8,
                rng.below(256) as u8,
            ];
            let host = trie.lookup_host(&addr);
            let sw = trie.query_software(&mem, &addr);
            let ka = stage_key(&mut mem, &addr);
            let hw = run_query(&fw, &mem, trie.header_addr(), ka).unwrap();
            assert_eq!(host, sw, "case {case}");
            assert_eq!(sw, hw, "case {case}");
        }
    }
}

#[test]
fn header_wire_round_trip() {
    for case in 0..200u64 {
        let mut rng = SimRng::seed_from_u64(0x88 * 1000 + case);
        let dtype_byte = rng.range_inclusive(1, 5) as u8;
        let dtype = DsType::from_byte(dtype_byte).unwrap();
        let key_len = rng.range_inclusive(1, 255) as u16;
        let header = Header {
            ds_ptr: VirtAddr(rng.range_inclusive(1, u64::MAX / 2)),
            dtype,
            subtype: rng.below(2) as u8,
            key_len: if dtype == DsType::Bst { 8 } else { key_len },
            flags: 0,
            capacity: rng.range_inclusive(1, 1_000_000),
            aux0: rng.range_inclusive(1, 7),
            aux1: rng.next_u64(),
            aux2: rng.next_u64(),
            epoch: 0,
        };
        if header.validate().is_ok() {
            let rt = Header::from_bytes(&header.to_bytes()).unwrap();
            assert_eq!(rt, header, "case {case}");
        }
    }
}

#[test]
fn guest_memory_read_write_round_trip() {
    for case in 0..CASES {
        let mut rng = SimRng::seed_from_u64(0x99 * 1000 + case);
        let mut mem = GuestMem::new(case);
        let data: Vec<u8> = (0..rng.range_inclusive(1, 1_999))
            .map(|_| rng.below(256) as u8)
            .collect();
        let offset = rng.below(5_000);
        let base = mem.alloc(8_192, 8).unwrap();
        mem.write(base + offset, &data).unwrap();
        let got = mem.bytes(base + offset, data.len()).unwrap();
        assert_eq!(got, data, "case {case}");
    }
}
