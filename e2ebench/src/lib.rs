//! End-to-end benchmark for frodo.
//!
//! Two workloads drive frodo's public API the way `frodo compile` does
//! (`frodo_slx::read_slx`, then `CompileService::compile` or
//! `CompileSession::compile`) and time the emitted C natively:
//!
//! - `table1-compile`: the ten Table-1 models in four styles, as `.slx`
//!   bytes: cold compiles, one-`Gain` edits through a warm session, and
//!   cache hits;
//! - `table1-run`: the emitted C of the Table-1 models, built with
//!   `gcc -O3 -march=native` and run in separate processes, every
//!   checksum checked against `frodo_sim::ReferenceSimulator`.
//!
//! Every run prints every metric; the metrics a workload does not focus
//! on come from a shorter companion pass (see `main.rs`). `--trace 1`
//! replaces the end-to-end metrics with per-layer ones: benchmark-side
//! timings around each public stage function, counts, one native row per
//! program, and the same compile sequence on one seed-chosen synthetic
//! model of ~8k requested blocks.

pub mod compile;
pub mod jobs;
pub mod json;
pub mod native;
pub mod stats;

use std::time::Instant;

/// Counts checked operations and failed ones; every failure is reported
/// on stderr.
#[derive(Debug, Default)]
pub struct Tally {
    /// Operations checked.
    pub attempted: u64,
    /// Operations that failed or gave a wrong result.
    pub failed: u64,
}

impl Tally {
    /// Records one operation; `ok == false` counts it as failed and
    /// prints `what()`. Returns `ok`.
    pub fn check(&mut self, ok: bool, what: impl FnOnce() -> String) -> bool {
        self.attempted += 1;
        if !ok {
            self.failed += 1;
            eprintln!("FAILED: {}", what());
        }
        ok
    }

    /// Records a fallible operation: `Some` of its value on success,
    /// `None` (counted and printed as a failure) on error.
    pub fn ok<T>(&mut self, result: Result<T, String>) -> Option<T> {
        match result {
            Ok(v) => {
                self.check(true, String::new);
                Some(v)
            }
            Err(e) => {
                self.check(false, || e);
                None
            }
        }
    }
}

/// Runs `f`, returning its value and the elapsed wall time in
/// microseconds.
pub fn timed_us<T>(f: impl FnOnce() -> T) -> (T, f64) {
    let t = Instant::now();
    let v = f();
    (v, t.elapsed().as_secs_f64() * 1e6)
}

/// The process's peak resident set size in MiB (`VmHWM`).
pub fn peak_rss_mb() -> Option<f64> {
    let status = std::fs::read_to_string("/proc/self/status").ok()?;
    let kb: f64 = status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))?
        .trim()
        .trim_end_matches("kB")
        .trim()
        .parse()
        .ok()?;
    Some(kb / 1024.0)
}
