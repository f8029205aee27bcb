//! The repository's end-to-end benchmark.
//!
//! ```text
//! cargo run --release --offline --manifest-path benchmark/Cargo.toml -- \
//!     --workload paper_suite|served_chip|daemon_session --seed N --seconds S --trace 0|1
//! ```
//!
//! Each workload runs in its own process, on one CPU, with at most two
//! working threads and a host-speed meter (`meter.rs`) that end-to-end
//! times are scaled by. The untraced run (`--trace 0`) prints the end-to-end metrics;
//! the traced run (`--trace 1`) prints the per-layer metrics and writes its
//! spans under the build directory. The last line of stdout is the JSON result. See
//! `NOTES.md` for why each workload and metric was chosen.

#![deny(unsafe_code)]

mod daemon_session;
mod heap;
mod measure;
mod meter;
mod paper_suite;
mod pin;
mod served_chip;
mod spans;

use measure::{Outcome, END_TO_END, PER_LAYER};
use std::path::PathBuf;
use std::time::Duration;

#[global_allocator]
static ALLOCATOR: heap::Counting = heap::Counting;

/// Parsed command line.
pub struct Args {
    pub workload: String,
    pub seed: u64,
    pub budget: Duration,
    pub trace: bool,
}

const USAGE: &str = "usage: qei-benchmark --workload paper_suite|served_chip|daemon_session \
                     --seed N --seconds S --trace 0|1";

fn parse_args(argv: &[String]) -> Result<Args, String> {
    let mut workload = None;
    let mut seed = None;
    let mut seconds = None;
    let mut trace = None;
    let mut it = argv.iter();
    while let Some(flag) = it.next() {
        let value = it
            .next()
            .ok_or_else(|| format!("flag {flag} needs a value"))?;
        let number = || {
            value
                .parse::<u64>()
                .map_err(|_| format!("flag {flag} needs a whole number, got {value:?}"))
        };
        match flag.as_str() {
            "--workload" => workload = Some(value.clone()),
            "--seed" => seed = Some(number()?),
            "--seconds" => seconds = Some(number()?),
            "--trace" => trace = Some(number()?),
            other => return Err(format!("unknown flag {other}")),
        }
    }
    let workload = workload.ok_or("missing --workload")?;
    if !["paper_suite", "served_chip", "daemon_session"].contains(&workload.as_str()) {
        return Err(format!("unknown workload {workload:?}"));
    }
    let seconds = seconds.ok_or("missing --seconds")?;
    if seconds == 0 {
        return Err("--seconds must be at least 1".to_string());
    }
    let trace = match trace.ok_or("missing --trace")? {
        0 => false,
        1 => true,
        t => return Err(format!("--trace takes 0 or 1, got {t}")),
    };
    Ok(Args {
        workload,
        seed: seed.ok_or("missing --seed")?,
        budget: Duration::from_secs(seconds),
        trace,
    })
}

/// Where a run leaves its artifacts (spans, the daemon socket): the build
/// directory Cargo was given, so nothing lands outside it.
pub fn out_dir() -> PathBuf {
    let base = std::env::var_os("CARGO_TARGET_DIR")
        .map_or_else(|| PathBuf::from("benchmark/target"), PathBuf::from);
    base.join("qei-benchmark")
}

fn main() {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    let args = match parse_args(&argv) {
        Ok(a) => a,
        Err(e) => {
            eprintln!("qei-benchmark: {e}\n{USAGE}");
            std::process::exit(2);
        }
    };
    // One plan worker and one chip lane at a time, on one CPU: the daemon
    // workload's second thread is the daemon itself, and it shares the CPU
    // with its client and the meter.
    qei_sim::engine::set_default_threads(1);
    match pin::to_one_cpu() {
        Some(cpu) => eprintln!("[bench] pinned to CPU {cpu}"),
        None => eprintln!("[bench] cannot pin to one CPU; running unpinned"),
    }
    let outcome: Outcome = match args.workload.as_str() {
        "paper_suite" => paper_suite::run(&args),
        "served_chip" => served_chip::run(&args),
        _ => daemon_session::run(&args),
    };
    let catalogue: &[(&str, &str)] = if args.trace { PER_LAYER } else { END_TO_END };
    println!("{}", outcome.to_json(catalogue));
}

#[cfg(test)]
mod tests {
    use super::*;

    fn args(s: &str) -> Result<Args, String> {
        parse_args(&s.split_whitespace().map(String::from).collect::<Vec<_>>())
    }

    #[test]
    fn parses_a_full_command_line() {
        let a = args("--workload served_chip --seed 7 --seconds 3 --trace 1").unwrap();
        assert_eq!(a.workload, "served_chip");
        assert_eq!(a.seed, 7);
        assert_eq!(a.budget, Duration::from_secs(3));
        assert!(a.trace);
    }

    #[test]
    fn rejects_bad_command_lines() {
        for bad in [
            "--workload nope --seed 1 --seconds 1 --trace 0",
            "--workload paper_suite --seed 1 --seconds 0 --trace 0",
            "--workload paper_suite --seed x --seconds 1 --trace 0",
            "--workload paper_suite --seed 1 --seconds 1 --trace 2",
            "--workload paper_suite --seed 1 --seconds 1",
            "--workload paper_suite --seed 1 --seconds 1 --trace",
        ] {
            assert!(args(bad).is_err(), "{bad}");
        }
    }
}
