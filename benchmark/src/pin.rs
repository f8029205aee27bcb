//! Pins the process to one CPU. On a 2-vCPU VM the daemon workload's round
//! trip otherwise includes waking the other thread on the other vCPU, whose
//! latency swung by half between runs; on one CPU the hand-over is a local
//! context switch. Threads spawned after the call inherit the mask.

#![allow(unsafe_code)]

/// `cpu_set_t`: a 1024-bit CPU mask.
type CpuSet = [u64; 16];

#[cfg(target_os = "linux")]
extern "C" {
    fn sched_getaffinity(pid: i32, size: usize, mask: *mut CpuSet) -> i32;
    fn sched_setaffinity(pid: i32, size: usize, mask: *const CpuSet) -> i32;
}

/// Restricts the calling thread, and every thread it spawns later, to the
/// lowest-numbered CPU it may run on. Returns that CPU, or `None` when the
/// mask cannot be read or set (the run then goes on unpinned).
#[cfg(target_os = "linux")]
pub fn to_one_cpu() -> Option<usize> {
    let size = std::mem::size_of::<CpuSet>();
    let mut allowed: CpuSet = [0; 16];
    // SAFETY: pid 0 names the calling thread, and `size` is the size of
    // the mask the kernel writes into.
    if unsafe { sched_getaffinity(0, size, &mut allowed) } != 0 {
        return None;
    }
    let cpu = (0..size * 8).find(|&c| allowed[c / 64] >> (c % 64) & 1 == 1)?;
    let mut one: CpuSet = [0; 16];
    one[cpu / 64] = 1 << (cpu % 64);
    // SAFETY: as above; the kernel only reads the mask.
    (unsafe { sched_setaffinity(0, size, &one) } == 0).then_some(cpu)
}

#[cfg(not(target_os = "linux"))]
pub fn to_one_cpu() -> Option<usize> {
    None
}
