//! The Data Processing Unit: functional execution of micro-operations.
//!
//! The DPU holds the ALUs, the key comparators (capable of `<`/`=`/`>` on
//! 64-bit chunks per cycle), and the hash unit. This module implements their
//! *functional* semantics against guest memory; the timing model in
//! [`crate::accel`] prices the same operations on shared hardware resources.

use crate::ctx::QueryCtx;
use crate::fault::FaultCode;
use crate::uop::{MicroOp, OpOutcome};
use qei_mem::GuestMem;
use std::cmp::Ordering;

/// The hash function implemented by the hash unit: a 64-bit mix over the key
/// bytes, parameterized by a seed. Both the software baselines and the CFAs
/// use this same function, as software and accelerator must agree on bucket
/// placement.
pub fn hash_bytes(seed: u64, bytes: &[u8]) -> u64 {
    // An xorshift-multiply construction (splitmix-like), processed in
    // 8-byte chunks — the shape of work a hardware hash unit pipelines.
    let mut h = seed ^ 0x51_7c_c1_b7_27_22_0a_95u64.wrapping_mul(bytes.len() as u64 + 1);
    let mut chunks = bytes.chunks_exact(8);
    for c in &mut chunks {
        let v = qei_mem::bytes::le_u64(c, 0);
        h ^= v;
        h = h.wrapping_mul(0x9e37_79b9_7f4a_7c15);
        h = h.rotate_left(31);
    }
    let mut tail = 0u64;
    for (i, &b) in chunks.remainder().iter().enumerate() {
        tail |= (b as u64) << (8 * i);
    }
    h ^= tail;
    h = h.wrapping_mul(0xbf58_476d_1ce4_e5b9);
    h ^= h >> 29;
    h = h.wrapping_mul(0x94d0_49bb_1331_11eb);
    h ^= h >> 32;
    h
}

/// Functionally executes one micro-op against guest memory, staging results
/// into the query context.
///
/// # Errors
///
/// Returns the [`FaultCode`] for guest memory faults — the hardware's
/// EXCEPTION transition.
///
/// # Panics
///
/// Panics if called with a terminal micro-op ([`MicroOp::Done`] /
/// [`MicroOp::Fault`]); the driver must not execute those.
pub fn execute(mem: &GuestMem, ctx: &mut QueryCtx, op: MicroOp) -> Result<OpOutcome, FaultCode> {
    ctx.steps += 1;
    match op {
        MicroOp::Read { addr, len } => {
            ctx.cost.read_ops += 1;
            ctx.cost.read_bytes += len as u64;
            ctx.cost.mem_lines += span_lines(addr.0, len);
            // Refill the staged line in its existing buffer.
            let bytes = mem.bytes(addr, len as usize).map_err(FaultCode::from)?;
            ctx.line.clear();
            ctx.line.extend_from_slice(&bytes);
            Ok(OpOutcome::Data)
        }
        MicroOp::Compare { addr, len, key_off } => {
            ctx.cost.compare_ops += 1;
            ctx.cost.compare_bytes += len as u64;
            ctx.cost.mem_lines += span_lines(addr.0, len);
            let stored = mem.bytes(addr, len as usize).map_err(FaultCode::from)?;
            // Clamp the key window like the comparator's mux would: an
            // out-of-range offset compares against an empty slice rather
            // than tripping machine checks.
            let start = (key_off as usize).min(ctx.key.len());
            let end = (key_off as usize)
                .saturating_add(len as usize)
                .min(ctx.key.len());
            let query = &ctx.key[start..end];
            Ok(OpOutcome::Cmp(compare_bytes(&stored, query)))
        }
        MicroOp::Hash { seed } => {
            ctx.cost.hash_ops += 1;
            Ok(OpOutcome::Hashed(hash_bytes(seed, &ctx.key)))
        }
        MicroOp::Alu { n } => {
            ctx.cost.alu_ops += n as u64;
            Ok(OpOutcome::AluDone)
        }
        MicroOp::Done { .. } | MicroOp::Fault { .. } => {
            panic!("terminal micro-op reached the DPU")
        }
    }
}

/// 64-byte lines a `[addr, addr+len)` span touches, tolerant of the corrupt
/// operands a fuzzed header can produce (`len == 0`, spans wrapping the
/// address space) — the fetch itself faults on those, but the counter
/// update runs first and must not trip overflow checks.
fn span_lines(addr: u64, len: u32) -> u64 {
    if len == 0 {
        return 0;
    }
    let start = addr >> 6;
    let end = addr.saturating_add(len as u64 - 1) >> 6;
    end - start + 1
}

/// Comparator semantics: lexicographic (memcmp) ordering of stored bytes
/// against the query slice, processed 8 bytes per comparator cycle.
pub fn compare_bytes(stored: &[u8], query: &[u8]) -> Ordering {
    stored.cmp(query)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::header::{DsType, Header};
    use qei_mem::VirtAddr;

    fn ctx_with_key(key: &[u8]) -> QueryCtx {
        let header = Header {
            ds_ptr: VirtAddr(0x1000),
            dtype: DsType::LinkedList,
            subtype: 0,
            key_len: key.len() as u16,
            flags: 0,
            capacity: 0,
            aux0: 0,
            aux1: 0,
            aux2: 0,
            epoch: 0,
        };
        QueryCtx::new(header, key.to_vec())
    }

    #[test]
    fn hash_is_deterministic_and_seed_sensitive() {
        let a = hash_bytes(1, b"0123456789abcdef");
        assert_eq!(a, hash_bytes(1, b"0123456789abcdef"));
        assert_ne!(a, hash_bytes(2, b"0123456789abcdef"));
        assert_ne!(a, hash_bytes(1, b"0123456789abcdeg"));
        // Tails shorter than 8 bytes still contribute.
        assert_ne!(hash_bytes(1, b"abc"), hash_bytes(1, b"abd"));
        assert_ne!(hash_bytes(1, b""), hash_bytes(1, b"\0"));
    }

    #[test]
    fn hash_spreads_buckets() {
        let n = 4096u64;
        let mut counts = vec![0u32; 64];
        for i in 0..n {
            let h = hash_bytes(7, &i.to_le_bytes());
            counts[(h % 64) as usize] += 1;
        }
        for &c in &counts {
            assert!(c > 20 && c < 160, "bucket count {c} badly skewed");
        }
    }

    #[test]
    fn read_stages_line() {
        let mut mem = GuestMem::new(4);
        let p = mem.alloc(64, 64).unwrap();
        mem.write(p, b"node-bytes").unwrap();
        let mut ctx = ctx_with_key(b"key");
        let out = execute(&mem, &mut ctx, MicroOp::Read { addr: p, len: 10 }).unwrap();
        assert_eq!(out, OpOutcome::Data);
        assert_eq!(&ctx.line, b"node-bytes");
        assert_eq!(ctx.steps, 1);
    }

    #[test]
    fn compare_orders_like_memcmp() {
        let mut mem = GuestMem::new(4);
        let p = mem.alloc(16, 8).unwrap();
        mem.write(p, b"banana").unwrap();
        let mut ctx = ctx_with_key(b"cherry");
        let out = execute(
            &mem,
            &mut ctx,
            MicroOp::Compare {
                addr: p,
                len: 6,
                key_off: 0,
            },
        )
        .unwrap();
        assert_eq!(out, OpOutcome::Cmp(Ordering::Less)); // "banana" < "cherry"

        let mut ctx2 = ctx_with_key(b"banana");
        let out2 = execute(
            &mem,
            &mut ctx2,
            MicroOp::Compare {
                addr: p,
                len: 6,
                key_off: 0,
            },
        )
        .unwrap();
        assert_eq!(out2, OpOutcome::Cmp(Ordering::Equal));
    }

    #[test]
    fn faults_propagate() {
        let mem = GuestMem::new(4);
        let mut ctx = ctx_with_key(b"key");
        let err = execute(
            &mem,
            &mut ctx,
            MicroOp::Read {
                addr: VirtAddr(0xdead_0000),
                len: 8,
            },
        )
        .unwrap_err();
        assert_eq!(err, FaultCode::PageFault);
        let err = execute(
            &mem,
            &mut ctx,
            MicroOp::Read {
                addr: VirtAddr::NULL,
                len: 8,
            },
        )
        .unwrap_err();
        assert_eq!(err, FaultCode::NullPointer);
    }

    #[test]
    fn hash_outcome_uses_query_key() {
        let mem = GuestMem::new(4);
        let mut ctx = ctx_with_key(b"the-key");
        let out = execute(&mem, &mut ctx, MicroOp::Hash { seed: 99 }).unwrap();
        assert_eq!(out, OpOutcome::Hashed(hash_bytes(99, b"the-key")));
    }
}
