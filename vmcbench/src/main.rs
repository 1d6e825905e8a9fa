//! End-to-end benchmark of the VMC driver and the evaluation service.
//!
//! ```text
//! cargo run --release -q --manifest-path vmcbench/Cargo.toml -- \
//!     --workload <vmc_n128_lowacc|vmc_n512_hiacc|service_mixed> \
//!     --seed <u64> --seconds <measure> --trace <0|1>
//! ```
//!
//! Every input — coefficient tables, electron starts, proposals, the
//! arrival schedule and request positions — is generated from `--seed`.
//! `--trace 0` measures the end-to-end metrics; `--trace 1` runs the
//! per-layer traced measurement. Human-readable progress and check
//! lines go to standard output first; the last line is one JSON object
//! with the verdict and every metric of the mode. See `NOTES.md`.

mod report;
mod service;
mod stats;
mod trace;
mod vmc;

use report::{Report, END_TO_END, PER_LAYER};
use std::process::ExitCode;
use std::time::Duration;

/// Command-line options.
#[derive(Clone, Debug)]
pub struct Opts {
    pub workload: String,
    pub seed: u64,
    pub seconds: Duration,
    pub trace: bool,
}

fn parse(args: &[String]) -> Result<Opts, String> {
    let mut workload = None;
    let mut seed = None;
    let mut seconds = None;
    let mut trace = None;
    let mut it = args.iter();
    while let Some(flag) = it.next() {
        let value = it.next().ok_or(format!("{flag} needs a value"))?;
        match flag.as_str() {
            "--workload" => workload = Some(value.clone()),
            "--seed" => seed = Some(value.parse::<u64>().map_err(|e| format!("--seed: {e}"))?),
            "--seconds" => {
                let s = value
                    .parse::<f64>()
                    .map_err(|e| format!("--seconds: {e}"))?;
                if !(s > 0.0 && s.is_finite()) {
                    return Err("--seconds must be positive".into());
                }
                seconds = Some(Duration::from_secs_f64(s));
            }
            "--trace" => {
                trace = Some(match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err("--trace takes 0 or 1".into()),
                })
            }
            _ => return Err(format!("unknown option {flag}")),
        }
    }
    Ok(Opts {
        workload: workload.ok_or("--workload is required")?,
        seed: seed.ok_or("--seed is required")?,
        seconds: seconds.unwrap_or(Duration::from_secs(10)),
        trace: trace.unwrap_or(false),
    })
}

/// A sub-seed for one input stream of the workload (SplitMix64 of the
/// workload seed and a stream tag), so that streams are independent
/// and all derive from the one `--seed`.
pub fn derive_seed(seed: u64, stream: u64) -> u64 {
    let mut z = seed ^ stream.wrapping_mul(0x9e37_79b9_7f4a_7c15);
    z = z.wrapping_add(0x9e37_79b9_7f4a_7c15);
    z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
    z ^ (z >> 31)
}

/// Set-ups timed before the measurement, and again after it.
pub const SETUP_REPS: usize = 4;

/// Fastest-of-several timing of a workload's set-up. Every set-up does
/// the same work, so a slower one measures the host's contention for
/// memory bandwidth, which comes in phases lasting seconds to minutes
/// (see NOTES.md). Timing set-ups both before and after the measurement
/// spreads them over the whole run, and the fastest is the figure least
/// moved by those phases.
#[derive(Default)]
pub struct SetupTimes {
    /// Seconds of each set-up: total, first stage, second stage.
    seconds: [Vec<f64>; 3],
}

impl SetupTimes {
    /// Run `build` [`SETUP_REPS`] times, one at a time so that memory
    /// holds one instance, and keep the last instance. `build` returns
    /// the instance and the seconds of its two stages.
    pub fn repeat<T>(&mut self, mut build: impl FnMut() -> (T, f64, f64)) -> T {
        let mut last = None;
        for _ in 0..SETUP_REPS {
            drop(last.take());
            let (x, a, b) = build();
            for (v, s) in self.seconds.iter_mut().zip([a + b, a, b]) {
                v.push(s);
            }
            last = Some(x);
        }
        last.expect("SETUP_REPS >= 1")
    }

    /// The fastest total and the fastest time of each stage.
    pub fn fastest(&self) -> [f64; 3] {
        println!(
            "setup: {:.3} s fastest of {} ({:.3?})",
            stats::percentile(&self.seconds[0], 0.0),
            self.seconds[0].len(),
            self.seconds[0]
        );
        self.seconds.each_ref().map(|v| stats::percentile(v, 0.0))
    }
}

/// Peak resident memory of this process in MB (`VmHWM`).
pub fn peak_rss_mb() -> f64 {
    std::fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|s| {
            s.lines()
                .find(|l| l.starts_with("VmHWM:"))
                .and_then(|l| l.split_whitespace().nth(1))
                .and_then(|kb| kb.parse::<f64>().ok())
        })
        .map_or(f64::NAN, |kb| kb * 1024.0 / 1e6)
}

/// Size of the last-level cache in MB, from sysfs (0 if unknown).
pub fn llc_mb() -> f64 {
    let mut best = 0.0f64;
    for idx in 0..8 {
        let dir = format!("/sys/devices/system/cpu/cpu0/cache/index{idx}");
        let Ok(size) = std::fs::read_to_string(format!("{dir}/size")) else {
            break;
        };
        let size = size.trim();
        let (digits, scale) = match size.chars().last() {
            Some('K') => (&size[..size.len() - 1], 1024.0),
            Some('M') => (&size[..size.len() - 1], 1024.0 * 1024.0),
            _ => (size, 1.0),
        };
        if let Ok(v) = digits.parse::<f64>() {
            best = best.max(v * scale / 1e6);
        }
    }
    best
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let opts = match parse(&args) {
        Ok(o) => o,
        Err(e) => {
            eprintln!("vmcbench: {e}");
            return ExitCode::from(2);
        }
    };
    let mut report = Report::default();
    match opts.workload.as_str() {
        "vmc_n128_lowacc" => vmc::run(&vmc::N128_LOWACC, &opts, &mut report),
        "vmc_n512_hiacc" => vmc::run(&vmc::N512_HIACC, &opts, &mut report),
        "service_mixed" => service::run(&opts, &mut report),
        other => {
            eprintln!("vmcbench: unknown workload {other}");
            return ExitCode::from(2);
        }
    }
    let line = report.finish(if opts.trace { PER_LAYER } else { END_TO_END });
    println!("{line}");
    ExitCode::SUCCESS
}

#[cfg(test)]
mod tests {
    use super::*;

    fn args(s: &str) -> Vec<String> {
        s.split_whitespace().map(String::from).collect()
    }

    #[test]
    fn parses_the_benchmark_command_line() {
        let o = parse(&args(
            "--workload vmc_n128_lowacc --seed 7 --seconds 12 --trace 1",
        ))
        .unwrap();
        assert_eq!(o.workload, "vmc_n128_lowacc");
        assert_eq!(o.seed, 7);
        assert_eq!(o.seconds, Duration::from_secs(12));
        assert!(o.trace);
    }

    #[test]
    fn rejects_bad_command_lines() {
        assert!(parse(&args("--seed 1")).is_err());
        assert!(parse(&args("--workload x --seed -1")).is_err());
        assert!(parse(&args("--workload x --seed 1 --trace 2")).is_err());
        assert!(parse(&args("--workload x --seed 1 --seconds 0")).is_err());
        assert!(parse(&args("--workload x --seed")).is_err());
    }

    #[test]
    fn derived_seeds_differ_by_stream_and_seed() {
        assert_eq!(derive_seed(1, 2), derive_seed(1, 2));
        assert_ne!(derive_seed(1, 2), derive_seed(1, 3));
        assert_ne!(derive_seed(1, 2), derive_seed(2, 2));
    }
}
