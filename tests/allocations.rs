//! Exact allocation gates for the functional hot paths.
//!
//! Guest-memory accessors borrow from the frame arena, DPU micro-ops reuse
//! the query context's buffers and NoC transfers walk their route in place,
//! so none of them touches the heap once warm. A counting global allocator
//! pins that exactly: a regression that reintroduces a per-access `Vec` turns
//! a zero here into thousands.
//!
//! Counts are kept per thread, so tests running in parallel never see each
//! other's allocations.

use qei::accel::{dpu, Header, MicroOp, OpOutcome, QueryCtx};
use qei::config::MachineConfig;
use qei::datastructs::{stage_key, ChainedHash, QueryDs};
use qei::experiments::suite::{suite_specs, Scale};
use qei::mem::{GuestMem, PAGE_BYTES};
use qei::noc::{Mesh, Tile};
use qei::sim::WorkloadKind;
use std::alloc::{GlobalAlloc, Layout, System};
use std::borrow::Cow;
use std::cell::Cell;

thread_local! {
    /// Allocations (including reallocations) made by this thread.
    static ALLOCATIONS: Cell<u64> = const { Cell::new(0) };
}

/// The system allocator, counting every allocation per thread.
struct Counting;

fn count_one() {
    // `try_with`: the allocator may run while this thread's locals are torn
    // down; those allocations are simply not counted.
    let _ = ALLOCATIONS.try_with(|n| n.set(n.get() + 1));
}

// SAFETY: every method forwards unchanged to `System`; counting only touches
// a const-initialized thread-local `Cell`, which never allocates.
unsafe impl GlobalAlloc for Counting {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        count_one();
        // SAFETY: the caller's contract for `alloc` is passed through.
        unsafe { System.alloc(layout) }
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        count_one();
        // SAFETY: the caller's contract for `alloc_zeroed` is passed through.
        unsafe { System.alloc_zeroed(layout) }
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        count_one();
        // SAFETY: the caller's contract for `realloc` is passed through.
        unsafe { System.realloc(ptr, layout, new_size) }
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        // SAFETY: the caller's contract for `dealloc` is passed through.
        unsafe { System.dealloc(ptr, layout) }
    }
}

#[global_allocator]
static COUNTING: Counting = Counting;

/// Runs `f` and returns its result with the allocations this thread made
/// inside it (dropping the result is not counted either way).
fn allocations<R>(f: impl FnOnce() -> R) -> (R, u64) {
    let before = ALLOCATIONS.with(Cell::get);
    let r = f();
    (r, ALLOCATIONS.with(Cell::get) - before)
}

#[test]
fn in_page_guest_accessors_do_not_allocate() {
    let mut mem = GuestMem::new(3);
    let base = mem.alloc(4 * PAGE_BYTES, 4096).unwrap();
    // Materialize the first two frames; the third stays untouched.
    mem.write_u64(base, 1).unwrap();
    mem.write_u64(base + PAGE_BYTES, 2).unwrap();
    let untouched = base + 2 * PAGE_BYTES;

    let (sum, n) = allocations(|| {
        let mut sum = 0u64;
        for i in 0..1_000u64 {
            let va = base + (i % 500) * 8;
            mem.write_u64(va, i).unwrap();
            sum += mem.read_u64(va).unwrap();
            mem.write_u32(va + PAGE_BYTES, i as u32).unwrap();
            sum += u64::from(mem.read_u32(va + PAGE_BYTES).unwrap());
            mem.write_u16(va, i as u16).unwrap();
            sum += u64::from(mem.read_u16(va).unwrap());
            let line = mem.bytes(va.line_base(), 64).unwrap();
            assert!(matches!(line, Cow::Borrowed(_)));
            sum += u64::from(line[0]);
            let zeros = mem.bytes(untouched, 64).unwrap();
            assert!(matches!(zeros, Cow::Borrowed(_)));
            sum += u64::from(zeros[63]);
            sum += u64::from(mem.bytes_equal(va, &[0u8; 16]).unwrap());
        }
        sum
    });
    assert!(sum > 0);
    assert_eq!(n, 0, "in-page guest accesses allocated {n} times");
}

#[test]
fn dpu_read_and_compare_do_not_allocate_on_a_warm_context() {
    let mut mem = GuestMem::new(4);
    let mut table = ChainedHash::new(&mut mem, 16, 8, 0xFEED).unwrap();
    table.insert(&mut mem, b"dpu-key!", 7).unwrap();
    let stored = stage_key(&mut mem, b"dpu-key!");
    let header = Header::read_from(&mem, table.header_addr()).unwrap();
    let mut ctx = QueryCtx::new(header, b"dpu-key!".to_vec());
    let read = MicroOp::Read {
        addr: stored.line_base(),
        len: 64,
    };
    let compare = MicroOp::Compare {
        addr: stored,
        len: 8,
        key_off: 0,
    };
    // The first Read sizes the staged line buffer.
    dpu::execute(&mem, &mut ctx, read).unwrap();

    let (equal, n) = allocations(|| {
        let mut equal = 0;
        for _ in 0..1_000 {
            assert!(matches!(
                dpu::execute(&mem, &mut ctx, read),
                Ok(OpOutcome::Data)
            ));
            if let Ok(OpOutcome::Cmp(std::cmp::Ordering::Equal)) =
                dpu::execute(&mem, &mut ctx, compare)
            {
                equal += 1;
            }
        }
        equal
    });
    assert_eq!(equal, 1_000);
    assert_eq!(ctx.line.len(), 64);
    assert_eq!(n, 0, "warm DPU Read/Compare allocated {n} times");
}

#[test]
fn mesh_transfers_do_not_allocate() {
    let mut noc = Mesh::new(&MachineConfig::skylake_sp_24());
    let device = noc.device_tile();
    let (cycles, n) = allocations(|| {
        let mut cycles = 0u64;
        for i in 0..1_000u32 {
            let (a, b) = (Tile(i % 24), Tile((i * 7 + 5) % 24));
            cycles += noc.transfer(a, b, 64, 100 + u64::from(i)).as_u64();
            cycles += noc.transfer(a, device, 64, 100 + u64::from(i)).as_u64();
        }
        cycles
    });
    assert!(cycles > 0);
    assert_eq!(n, 0, "NoC transfers allocated {n} times");
}

/// Building the paper-scale JVM image inserts 150 000 objects and stages
/// 1 500 queries; the allocations left are the containers that grow with
/// the image (frame arena, page table, job lists), not one per access.
#[test]
fn paper_jvm_image_builds_in_under_a_thousand_allocations() {
    let spec = suite_specs(Scale::Paper)
        .into_iter()
        .find(|s| matches!(s.kind, WorkloadKind::JvmGc { .. }))
        .unwrap();
    let ((guest, workload), n) = allocations(|| spec.build_image());
    assert_eq!(workload.jobs().len(), 1_500);
    assert!(guest.heap_used() > 150_000 * 32);
    assert!(n <= 1_000, "paper JVM image build made {n} allocations");
}
