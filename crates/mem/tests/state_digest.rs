//! Property tests for the incrementally maintained page-hash state digest.
//!
//! Seeded random write sequences — writes straddling a frame boundary,
//! first touches of fresh frames, digests taken between writes, clones
//! followed by divergent writes — are checked against three properties:
//!
//! * the incremental digest equals the digest of a fresh guest holding the
//!   same final content, written in a different order with no digest in
//!   between (so every frame hash is computed from scratch);
//! * flipping any single byte moves the digest, and flipping it back
//!   restores it;
//! * a clone digests equal to its source, and each side's later writes
//!   move only its own digest;
//! * copying a clone back over its source with `clone_from` (snapshot
//!   restore, which copies only the frames either side wrote once both
//!   derive from the same clone) reproduces the clone exactly.

use qei_config::SimRng;
use qei_mem::{GuestMem, VirtAddr, PAGE_BYTES};
use std::collections::BTreeSet;

/// Pages in the heap region the writes land in.
const PAGES: u64 = 12;
/// Guest layout seed; the content rebuild uses the same one.
const GUEST_SEED: u64 = 5;
/// Seeds of the write sequences.
const SEEDS: u64 = 12;

/// A guest with a freshly allocated [`PAGES`]-page heap region, and the
/// region's base.
fn fresh_guest() -> (GuestMem, VirtAddr) {
    let mut mem = GuestMem::new(GUEST_SEED);
    let base = mem.alloc(PAGES * PAGE_BYTES, PAGE_BYTES).unwrap();
    (mem, base)
}

/// A guest plus a byte-exact shadow of the region and the set of pages
/// written so far.
#[derive(Clone)]
struct Model {
    mem: GuestMem,
    base: VirtAddr,
    shadow: Vec<u8>,
    touched: BTreeSet<u64>,
}

impl Model {
    fn new() -> Model {
        let (mem, base) = fresh_guest();
        Model {
            mem,
            base,
            shadow: vec![0; (PAGES * PAGE_BYTES) as usize],
            touched: BTreeSet::new(),
        }
    }

    fn write(&mut self, off: u64, bytes: &[u8]) {
        self.mem.write(self.base + off, bytes).unwrap();
        let at = off as usize;
        self.shadow[at..at + bytes.len()].copy_from_slice(bytes);
        let last = off + bytes.len() as u64 - 1;
        self.touched.extend(off / PAGE_BYTES..=last / PAGE_BYTES);
    }

    /// One random write: straddling a frame boundary, landing in a page
    /// never written before, or anywhere in the region.
    fn random_write(&mut self, rng: &mut SimRng) {
        let len = 2 + rng.below(47);
        let region = PAGES * PAGE_BYTES;
        let off = match rng.below(3) {
            0 => PAGE_BYTES * (1 + rng.below(PAGES - 1)) - rng.range_inclusive(1, len - 1),
            1 => {
                let fresh: Vec<u64> = (0..PAGES).filter(|p| !self.touched.contains(p)).collect();
                match fresh.get(rng.below(fresh.len().max(1) as u64) as usize) {
                    Some(&page) => page * PAGE_BYTES + rng.below(PAGE_BYTES - len),
                    None => rng.below(region - len),
                }
            }
            _ => rng.below(region - len),
        };
        let bytes: Vec<u8> = (0..len).map(|_| rng.below(256) as u8).collect();
        self.write(off, &bytes);
    }

    /// `n` random writes, with a digest taken between some of them so the
    /// frame-hash cache goes stale and warm again along the way.
    fn random_writes(&mut self, rng: &mut SimRng, n: usize) {
        for _ in 0..n {
            self.random_write(rng);
            if rng.below(8) == 0 {
                let _ = self.mem.state_digest();
            }
        }
    }

    /// The digest of a fresh guest holding this model's final content: every
    /// touched page written in full, in shuffled pieces, with no digest in
    /// between.
    fn rebuilt_digest(&self, rng: &mut SimRng) -> u64 {
        let (mut mem, base) = fresh_guest();
        let mut pieces = Vec::new();
        for &page in &self.touched {
            let mut start = page * PAGE_BYTES;
            let end = start + PAGE_BYTES;
            while start < end {
                let stop = (start + 1 + rng.below(PAGE_BYTES / 2)).min(end);
                pieces.push((start, stop));
                start = stop;
            }
        }
        rng.shuffle(&mut pieces);
        for (start, stop) in pieces {
            let bytes = &self.shadow[start as usize..stop as usize];
            mem.write(base + start, bytes).unwrap();
        }
        mem.state_digest()
    }
}

#[test]
fn incremental_digest_matches_a_fresh_rebuild() {
    for seed in 0..SEEDS {
        let mut rng = SimRng::seed_from_u64(0xd16e_0000 + seed);
        let mut model = Model::new();
        model.random_writes(&mut rng, 300);
        let digest = model.mem.state_digest();
        assert_eq!(digest, model.rebuilt_digest(&mut rng), "seed {seed}");
        // Overwriting with identical bytes marks frames stale but changes
        // nothing.
        let same = model.shadow[..64].to_vec();
        model.write(0, &same);
        assert_eq!(model.mem.state_digest(), digest, "seed {seed}");
    }
}

#[test]
fn flipping_any_single_byte_moves_the_digest() {
    for seed in 0..SEEDS {
        let mut rng = SimRng::seed_from_u64(0xf11b_0000 + seed);
        let mut model = Model::new();
        model.random_writes(&mut rng, 120);
        let digest = model.mem.state_digest();
        // Every byte of one touched page, then random bytes of the others.
        let touched: Vec<u64> = model.touched.iter().copied().collect();
        let page = touched[0];
        let offsets: Vec<u64> = (page * PAGE_BYTES..(page + 1) * PAGE_BYTES)
            .chain((0..64).map(|_| {
                let page = touched[rng.below(touched.len() as u64) as usize];
                page * PAGE_BYTES + rng.below(PAGE_BYTES)
            }))
            .collect();
        for off in offsets {
            let old = model.shadow[off as usize];
            let mask = 1 + rng.below(255) as u8;
            model.write(off, &[old ^ mask]);
            assert_ne!(
                model.mem.state_digest(),
                digest,
                "seed {seed}: flip at {off:#x}"
            );
            model.write(off, &[old]);
            assert_eq!(
                model.mem.state_digest(),
                digest,
                "seed {seed}: unflip at {off:#x}"
            );
        }
        // A nonzero byte in a page never written first-touches its frame.
        if let Some(page) = (0..PAGES).find(|p| !model.touched.contains(p)) {
            model.write(page * PAGE_BYTES + rng.below(PAGE_BYTES), &[0x5a]);
            assert_ne!(model.mem.state_digest(), digest, "seed {seed}");
        }
    }
}

#[test]
fn clones_digest_equal_and_diverge_independently() {
    for seed in 0..SEEDS {
        let mut rng = SimRng::seed_from_u64(0xc10e_0000 + seed);
        let mut source = Model::new();
        source.random_writes(&mut rng, 150);
        // Half the seeds clone with a warm hash cache, half with stale hashes.
        if seed % 2 == 0 {
            let _ = source.mem.state_digest();
        }
        let mut clone = source.clone();
        let digest = source.mem.state_digest();
        assert_eq!(clone.mem.state_digest(), digest, "seed {seed}");

        clone.random_writes(&mut rng, 60);
        assert_eq!(
            source.mem.state_digest(),
            digest,
            "seed {seed}: the clone's writes leaked into the source"
        );
        source.random_writes(&mut rng, 60);
        for (side, model) in [("source", &source), ("clone", &clone)] {
            assert_eq!(
                model.mem.state_digest(),
                model.rebuilt_digest(&mut rng),
                "seed {seed}: {side} after divergent writes"
            );
        }
        assert_ne!(source.mem.state_digest(), clone.mem.state_digest());
    }
}

#[test]
fn restoring_a_clone_reproduces_it_exactly() {
    let region = (PAGES * PAGE_BYTES) as usize;
    for seed in 0..SEEDS {
        let mut rng = SimRng::seed_from_u64(0x4e57_0000 + seed);
        let mut live = Model::new();
        live.random_writes(&mut rng, 40);
        let mut snap = live.clone();
        for step in 0..6 {
            live.random_writes(&mut rng, 30);
            // Mostly an untouched snapshot; sometimes one written (and
            // grown) after the restore point too.
            if step % 3 == 2 {
                snap.random_writes(&mut rng, 10);
            }
            live.mem.clone_from(&snap.mem);
            live.shadow.clone_from(&snap.shadow);
            live.touched.clone_from(&snap.touched);
            assert_eq!(
                *live.mem.bytes(live.base, region).unwrap(),
                *snap.shadow,
                "seed {seed} step {step}"
            );
            let digest = live.mem.state_digest();
            assert_eq!(digest, snap.mem.state_digest(), "seed {seed} step {step}");
            assert_eq!(
                digest,
                live.rebuilt_digest(&mut rng),
                "seed {seed} step {step}"
            );
        }
    }
}
