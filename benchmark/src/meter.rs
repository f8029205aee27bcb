//! Host-speed meter.
//!
//! On a shared 2-vCPU VM the speed of the vCPU the benchmark runs on
//! swings in steps: a paper-scale `suite::collect` took 1.2 s in one
//! stretch and 2.6 s in the next, with no steal time and no hardware
//! counters the guest could read. The steps last from seconds to minutes,
//! longer than a run can average out. So a thread on the workload's own
//! CPU wakes every [`PERIOD`] and times a fixed reference kernel; an
//! interval's time is then scaled by the host's measured speed over it,
//! relative to the kernel's nominal time. A change to the program moves
//! the scaled time as much as the raw one, since the kernel is part of the
//! benchmark, not of the program; a change in the host's speed moves the
//! kernel too and cancels.
//!
//! The kernel is hash-map updates and a multiply chain, like the
//! simulator's own inner loops. A random-access table kernel was tried
//! first and tracked the simulator's speed much worse (see NOTES.md).

use std::collections::hash_map::DefaultHasher;
use std::collections::HashMap;
use std::hash::BuildHasherDefault;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{Arc, Mutex};
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

/// Time between two kernel runs.
const PERIOD: Duration = Duration::from_millis(20);
/// Kernel runs this close to an interval's ends count for it, so that an
/// interval shorter than [`PERIOD`] still has samples.
const WINDOW: Duration = Duration::from_millis(100);
/// The kernel's time at the reference speed, in seconds: about its time
/// on the development host in a fast stretch, so scaled times read close
/// to raw ones there. Changing it or the kernel rescales every timing
/// metric, so both stay fixed.
pub const NOMINAL_S: f64 = 250e-6;

/// The reference kernel: 20 000 updates of a 1024-key hash map under an
/// FNV multiply chain (a fixed hasher, so every run does the same work).
fn kernel() -> u64 {
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    let mut counts: HashMap<u64, u64, BuildHasherDefault<DefaultHasher>> = HashMap::default();
    for i in 0..20_000u64 {
        h = (h ^ std::hint::black_box(i)).wrapping_mul(0x100_0000_01b3);
        *counts.entry(h & 1023).or_insert(0) += 1;
    }
    h ^ counts.len() as u64
}

/// (middle of a kernel run, its time in seconds), in time order.
type Samples = Vec<(Instant, f64)>;

/// The running meter thread.
pub struct Meter {
    samples: Arc<Mutex<Samples>>,
    stop: Arc<AtomicBool>,
    thread: JoinHandle<()>,
}

impl Meter {
    /// Starts the meter on the calling thread's CPUs (a spawned thread
    /// inherits the affinity mask).
    pub fn start() -> Meter {
        let samples = Arc::new(Mutex::new(Samples::new()));
        let stop = Arc::new(AtomicBool::new(false));
        let thread = {
            let (samples, stop) = (Arc::clone(&samples), Arc::clone(&stop));
            std::thread::spawn(move || {
                while !stop.load(Ordering::Relaxed) {
                    std::thread::sleep(PERIOD);
                    let started = Instant::now();
                    std::hint::black_box(kernel());
                    let took = started.elapsed();
                    if let Ok(mut s) = samples.lock() {
                        s.push((started + took / 2, took.as_secs_f64()));
                    }
                }
            })
        };
        Meter {
            samples,
            stop,
            thread,
        }
    }

    /// Stops the thread, waits for it to end, and returns its samples.
    pub fn finish(self) -> Speed {
        self.stop.store(true, Ordering::Relaxed);
        let _ = self.thread.join();
        let samples = match Arc::try_unwrap(self.samples) {
            Ok(m) => m.into_inner().unwrap_or_default(),
            Err(shared) => shared.lock().map(|s| s.clone()).unwrap_or_default(),
        };
        Speed { samples }
    }
}

/// The host's speed over a run, as the meter saw it.
pub struct Speed {
    samples: Samples,
}

impl Speed {
    /// `took`, begun at `start`, in seconds at the reference speed: the raw
    /// time times the host's mean speed over the interval (and
    /// [`WINDOW`] either side), relative to the nominal one. Without a
    /// sample the raw time is returned.
    pub fn adjust(&self, start: Instant, took: Duration) -> f64 {
        let lo = start.checked_sub(WINDOW).unwrap_or(start);
        let hi = start + took + WINDOW;
        let from = self.samples.partition_point(|&(t, _)| t < lo);
        let to = self.samples.partition_point(|&(t, _)| t <= hi);
        let near = if from < to {
            &self.samples[from..to]
        } else {
            // No run inside the window: the next one, or the last.
            let i = from.min(self.samples.len().saturating_sub(1));
            match self.samples.get(i..=i) {
                Some(s) => s,
                None => return took.as_secs_f64(),
            }
        };
        // Speed is inverse to the kernel's time; its mean over the
        // interval is the mean of the inverses.
        let speed = near.iter().map(|&(_, k)| NOMINAL_S / k).sum::<f64>() / near.len() as f64;
        took.as_secs_f64() * speed
    }

    /// Median kernel time over the run, µs (`host.meter_us`).
    pub fn median_us(&self) -> f64 {
        let times: Vec<f64> = self.samples.iter().map(|&(_, k)| k * 1e6).collect();
        crate::measure::median(&times)
    }

    pub fn len(&self) -> usize {
        self.samples.len()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn speed(kernel_s: &[f64]) -> (Instant, Speed) {
        let t0 = Instant::now();
        let samples = kernel_s
            .iter()
            .enumerate()
            .map(|(i, &k)| (t0 + PERIOD * (i as u32 + 1), k))
            .collect();
        (t0, Speed { samples })
    }

    #[test]
    fn a_slower_host_scales_time_down() {
        // The kernel took twice its nominal time: the host ran at half
        // speed, so one raw second is half a second at the reference speed.
        let (t0, s) = speed(&[2.0 * NOMINAL_S; 40]);
        let adjusted = s.adjust(t0 + PERIOD * 10, Duration::from_secs(1));
        assert!((adjusted - 0.5).abs() < 1e-9, "{adjusted}");
    }

    #[test]
    fn short_intervals_use_the_window_and_the_nearest_sample() {
        let (t0, s) = speed(&[NOMINAL_S, NOMINAL_S / 2.0]);
        let d = Duration::from_micros(100);
        // Both samples are within the window of an interval at t0.
        assert!((s.adjust(t0, d) - 1.5e-4).abs() < 1e-12);
        // Far past the last sample: that sample alone.
        assert!((s.adjust(t0 + Duration::from_secs(5), d) - 2e-4).abs() < 1e-12);
        // No samples: the raw time.
        assert_eq!(Speed { samples: vec![] }.adjust(t0, d), 1e-4);
    }
}
