//! Simulated physical memory: 4 KB frames in one flat arena.
//!
//! Frames are materialized on first write into a single contiguous byte
//! arena, with a flat `pfn → arena slot` table in front of it. [`FrameAlloc`]
//! hands out frame numbers densely from 1 upward (in shuffled windows), so
//! the table stays small and an access is two array indexes — no hashing on
//! the functional read/write path.
//!
//! Every materialized frame also carries a cached content hash. Writes only
//! mark it stale; [`PhysMem::digest`] rehashes the stale frames and folds
//! the cached ones, so a digest costs the frames written since the last one
//! plus one multiply per resident frame — not a pass over the whole image.
//! Writes also set the frame's dirty bit, which lets a snapshot restore
//! copy only the frames written since the previous restore.
//!
//! In-frame spans are borrowed in place: an access that stays inside one
//! frame copies nothing and allocates nothing.
//!
//! [`FrameAlloc`]: crate::FrameAlloc

use crate::addr::{PhysAddr, PAGE_BYTES, PAGE_SHIFT};
use std::cell::Cell;
use std::sync::Arc;

/// Marker for a frame that has never been written.
const NO_FRAME: u32 = u32::MAX;

/// What every untouched frame reads as.
static ZERO_FRAME: [u8; PAGE_BYTES as usize] = [0; PAGE_BYTES as usize];

/// Marker for a cached frame hash that no longer describes the frame. A
/// frame whose content really hashes to this value caches
/// [`STALE_ALIAS`] instead.
const STALE: u64 = 0;

/// What a frame hash equal to [`STALE`] is cached (and folded) as.
const STALE_ALIAS: u64 = 0x5bd1_e995_5bd1_e995;

/// Odd multiplier of the word mix (the 64-bit golden ratio).
const MIX_K: u64 = 0x9e37_79b9_7f4a_7c15;

/// One step of the word hash: a bijection of `h` for every fixed `w`, so
/// changing any single word of a sequence always changes the result.
#[inline]
fn mix(h: u64, w: u64) -> u64 {
    (h ^ w).wrapping_mul(MIX_K).rotate_left(29)
}

/// Hash of one frame over its little-endian `u64` words — the same value
/// on every host. Four independent lanes keep the multiplies pipelined;
/// each word feeds exactly one lane, and the lanes fold in a fixed order.
fn frame_hash(frame: &[u8]) -> u64 {
    let mut lanes = [
        0x243f_6a88_85a3_08d3_u64,
        0x1319_8a2e_0370_7344,
        0xa409_3822_299f_31d0,
        0x082e_fa98_ec4e_6c89,
    ];
    for block in frame.chunks_exact(32) {
        for (lane, word) in lanes.iter_mut().zip(block.chunks_exact(8)) {
            let mut w = [0u8; 8];
            w.copy_from_slice(word);
            *lane = mix(*lane, u64::from_le_bytes(w));
        }
    }
    let h = lanes.into_iter().fold(frame.len() as u64, mix);
    if h == STALE {
        STALE_ALIAS
    } else {
        h
    }
}

/// Upper bound on the frame-number space (256 GB of simulated physical
/// memory) — a guard against a stray huge physical address turning the flat
/// table into an allocation bomb.
const MAX_FRAMES: u64 = 1 << 26;

/// Sparse guest physical memory. Frames are materialized on first touch.
///
/// All reads/writes take *physical* addresses; translation happens in
/// [`crate::AddressSpace`] / [`crate::GuestMem`]. Accesses may straddle frame
/// boundaries. A [`Clone`] copies the cached frame hashes with the bytes, so
/// a clone of a freshly digested image digests without rehashing anything.
///
/// Every clone also starts a *version*: the clone and every image later
/// copied from it with [`Clone::clone_from`] share the version and track
/// which frames they wrote since. Copying between two images of the same
/// version — a snapshot restored over the image it was restored into
/// before — copies only the frames either side wrote.
#[derive(Debug, Default)]
pub struct PhysMem {
    /// `pfn → index of the frame in `data``, [`NO_FRAME`] when untouched.
    slots: Vec<u32>,
    /// Frame storage: [`PAGE_BYTES`] bytes per materialized frame, in
    /// materialization order.
    data: Vec<u8>,
    /// Cached [`frame_hash`] per materialized frame, indexed like the frames
    /// in `data`; [`STALE`] once the frame is written.
    hashes: Vec<Cell<u64>>,
    /// Frames the most recent [`PhysMem::digest`] had to rehash.
    rehashed: Cell<usize>,
    /// The version this image derives from (`None` for an image built from
    /// scratch): it equals that version in every frame not marked `dirty`.
    /// Versions are compared by allocation, so no two ever collide.
    base: Option<Arc<()>>,
    /// One bit per arena slot: the frame was written or materialized since
    /// the image equalled `base`.
    dirty: Vec<u64>,
}

impl Clone for PhysMem {
    fn clone(&self) -> Self {
        PhysMem {
            slots: self.slots.clone(),
            data: self.data.clone(),
            hashes: self.hashes.clone(),
            rehashed: self.rehashed.clone(),
            base: Some(Arc::new(())),
            dirty: vec![0; self.dirty.len()],
        }
    }

    /// Makes `self` equal to `source` in `self`'s existing allocations. When
    /// both derive from the same version, every frame neither side wrote
    /// is already equal, so only the written ones are copied; otherwise the
    /// whole image is.
    fn clone_from(&mut self, source: &Self) {
        let same_version = match (&self.base, &source.base) {
            (Some(a), Some(b)) => Arc::ptr_eq(a, b),
            _ => false,
        };
        if same_version {
            let frames = source.hashes.len();
            self.data.resize(frames * PAGE_BYTES as usize, 0);
            self.hashes.resize(frames, Cell::new(STALE));
            for (word, &theirs) in source.dirty.iter().enumerate() {
                let mut bits = theirs | self.dirty.get(word).copied().unwrap_or(0);
                while bits != 0 {
                    let slot = word * 64 + bits.trailing_zeros() as usize;
                    bits &= bits - 1;
                    if slot >= frames {
                        break;
                    }
                    let off = slot * PAGE_BYTES as usize;
                    let end = off + PAGE_BYTES as usize;
                    self.data[off..end].copy_from_slice(&source.data[off..end]);
                    self.hashes[slot].set(source.hashes[slot].get());
                }
            }
        } else {
            self.data.clone_from(&source.data);
            self.hashes.clone_from(&source.hashes);
            self.base.clone_from(&source.base);
        }
        self.slots.clone_from(&source.slots);
        self.dirty.clone_from(&source.dirty);
        self.rehashed.set(source.rehashed.get());
    }
}

impl PhysMem {
    /// Creates an empty physical memory.
    pub fn new() -> Self {
        Self::default()
    }

    /// Number of frames that have been touched.
    pub fn resident_frames(&self) -> usize {
        self.data.len() / PAGE_BYTES as usize
    }

    /// The frame backing `pfn`, if it has been materialized.
    #[inline]
    fn frame(&self, pfn: u64) -> Option<&[u8]> {
        let slot = *self.slots.get(usize::try_from(pfn).ok()?)?;
        if slot == NO_FRAME {
            return None;
        }
        Some(self.slot_frame(slot))
    }

    /// The frame in arena slot `slot`.
    #[inline]
    fn slot_frame(&self, slot: u32) -> &[u8] {
        let off = slot as usize * PAGE_BYTES as usize;
        &self.data[off..off + PAGE_BYTES as usize]
    }

    /// The frame backing `pfn` for writing, materialized if needed. The one
    /// write path into guest memory: it marks the frame's hash stale and the
    /// frame dirty.
    fn frame_mut(&mut self, pfn: u64) -> &mut [u8] {
        assert!(pfn < MAX_FRAMES, "physical frame {pfn:#x} out of range");
        let pfn = pfn as usize;
        if pfn >= self.slots.len() {
            self.slots.resize(pfn + 1, NO_FRAME);
        }
        if self.slots[pfn] == NO_FRAME {
            let slot = self.hashes.len();
            self.slots[pfn] = slot as u32;
            self.data.resize(self.data.len() + PAGE_BYTES as usize, 0);
            self.hashes.push(Cell::new(STALE));
            if slot / 64 == self.dirty.len() {
                self.dirty.push(0);
            }
        }
        let slot = self.slots[pfn] as usize;
        self.hashes[slot].set(STALE);
        self.dirty[slot / 64] |= 1 << (slot % 64);
        let off = slot * PAGE_BYTES as usize;
        &mut self.data[off..off + PAGE_BYTES as usize]
    }

    /// The `len` bytes at `pa`, borrowed in place: from the frame arena, or
    /// from a static zero frame when the frame is untouched.
    ///
    /// # Panics
    ///
    /// Panics if the span leaves the frame `pa` lies in.
    #[inline]
    pub(crate) fn frame_bytes(&self, pa: PhysAddr, len: usize) -> &[u8] {
        let off = pa.page_offset() as usize;
        let frame = self.frame(pa.0 >> PAGE_SHIFT).unwrap_or(&ZERO_FRAME);
        &frame[off..off + len]
    }

    /// The `len` bytes at `pa` for writing, materializing the frame if
    /// needed (through the one write path, so the frame goes stale and
    /// dirty).
    ///
    /// # Panics
    ///
    /// Panics if the span leaves the frame `pa` lies in.
    #[inline]
    pub(crate) fn frame_bytes_mut(&mut self, pa: PhysAddr, len: usize) -> &mut [u8] {
        let off = pa.page_offset() as usize;
        &mut self.frame_mut(pa.0 >> PAGE_SHIFT)[off..off + len]
    }

    /// Reads `buf.len()` bytes starting at `pa`. Untouched memory reads as 0.
    pub fn read(&self, pa: PhysAddr, buf: &mut [u8]) {
        let mut addr = pa;
        let mut done = 0usize;
        while done < buf.len() {
            let n = ((PAGE_BYTES - addr.page_offset()) as usize).min(buf.len() - done);
            buf[done..done + n].copy_from_slice(self.frame_bytes(addr, n));
            done += n;
            addr = addr + n as u64;
        }
    }

    /// Writes `buf` starting at `pa`, materializing frames as needed.
    pub fn write(&mut self, pa: PhysAddr, buf: &[u8]) {
        let mut addr = pa;
        let mut done = 0usize;
        while done < buf.len() {
            let n = ((PAGE_BYTES - addr.page_offset()) as usize).min(buf.len() - done);
            self.frame_bytes_mut(addr, n)
                .copy_from_slice(&buf[done..done + n]);
            done += n;
            addr = addr + n as u64;
        }
    }

    /// Page-hash digest of the materialized image: each touched frame
    /// contributes its PFN and its content hash, folded in frame-number
    /// order onto `h`. Frames written since they were last hashed are
    /// rehashed first; every other frame's hash comes from the cache. The
    /// digest is a pure function of the *content* — two images that read
    /// identically at every physical address and touched the same frames
    /// digest identically, regardless of the order those frames were
    /// materialized or written in.
    pub fn digest(&self, mut h: u64) -> u64 {
        let mut rehashed = 0;
        for (pfn, &slot) in self.slots.iter().enumerate() {
            if slot == NO_FRAME {
                continue;
            }
            let cached = &self.hashes[slot as usize];
            let mut fh = cached.get();
            if fh == STALE {
                fh = frame_hash(self.slot_frame(slot));
                cached.set(fh);
                rehashed += 1;
            }
            h = mix(mix(h, pfn as u64), fh);
        }
        self.rehashed.set(rehashed);
        h
    }

    /// How many frames the most recent [`PhysMem::digest`] rehashed (the
    /// rest came from the hash cache). A work counter: it is exact and the
    /// same on every host.
    pub fn last_digest_rehashed(&self) -> usize {
        self.rehashed.get()
    }

    /// Reads a little-endian `u64` at `pa`.
    pub fn read_u64(&self, pa: PhysAddr) -> u64 {
        let mut b = [0u8; 8];
        self.read(pa, &mut b);
        u64::from_le_bytes(b)
    }

    /// Writes a little-endian `u64` at `pa`.
    pub fn write_u64(&mut self, pa: PhysAddr, v: u64) {
        self.write(pa, &v.to_le_bytes());
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn zero_fill_semantics() {
        let m = PhysMem::new();
        let mut b = [0xffu8; 16];
        m.read(PhysAddr(0x5000), &mut b);
        assert_eq!(b, [0u8; 16]);
        assert_eq!(m.resident_frames(), 0);
    }

    #[test]
    fn round_trip_within_frame() {
        let mut m = PhysMem::new();
        m.write(PhysAddr(0x100), b"hello");
        let mut b = [0u8; 5];
        m.read(PhysAddr(0x100), &mut b);
        assert_eq!(&b, b"hello");
        assert_eq!(m.resident_frames(), 1);
    }

    #[test]
    fn straddles_frame_boundary() {
        let mut m = PhysMem::new();
        let pa = PhysAddr(PAGE_BYTES - 3);
        m.write(pa, b"abcdef");
        let mut b = [0u8; 6];
        m.read(pa, &mut b);
        assert_eq!(&b, b"abcdef");
        assert_eq!(m.resident_frames(), 2);
    }

    #[test]
    fn u64_round_trip() {
        let mut m = PhysMem::new();
        m.write_u64(PhysAddr(0x2FFC), 0x0123_4567_89ab_cdef);
        assert_eq!(m.read_u64(PhysAddr(0x2FFC)), 0x0123_4567_89ab_cdef);
    }

    #[test]
    fn frames_written_out_of_order_stay_distinct() {
        let mut m = PhysMem::new();
        m.write(PhysAddr(9 * PAGE_BYTES), b"nine");
        m.write(PhysAddr(2 * PAGE_BYTES), b"two");
        m.write(PhysAddr(5 * PAGE_BYTES), b"five");
        let mut b = [0u8; 4];
        m.read(PhysAddr(9 * PAGE_BYTES), &mut b);
        assert_eq!(&b, b"nine");
        m.read(PhysAddr(2 * PAGE_BYTES), &mut b[..3]);
        assert_eq!(&b[..3], b"two");
        assert_eq!(m.resident_frames(), 3);
    }

    #[test]
    fn clone_is_independent() {
        let mut a = PhysMem::new();
        a.write(PhysAddr(0x1000), b"orig");
        let b = a.clone();
        a.write(PhysAddr(0x1000), b"edit");
        let mut buf = [0u8; 4];
        b.read(PhysAddr(0x1000), &mut buf);
        assert_eq!(&buf, b"orig");
    }
}
