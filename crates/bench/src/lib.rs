//! Shared rendering/timing utilities for the `ssm` benchmark binaries.
//!
//! Sweep execution (cell enumeration, parallelism, caching, the common
//! command line) lives in [`ssm_sweep`]; the binaries in `src/bin/` only
//! enumerate cells and render figures/tables from the sweep's results.
//! This crate keeps the few pieces that are about *presentation* and the
//! std-only timing loop the `benches/` targets use (the hermetic build has
//! no Criterion).
//!
//! Run e.g. `cargo run --release -p ssm-bench --bin figure3 -- --jobs 8`.

use std::time::Instant;

/// Formats a speedup cell.
pub fn fmt_speedup(s: f64) -> String {
    format!("{s:.2}")
}

/// Formats an optional speedup cell (`-` for a failed/missing cell).
pub fn fmt_speedup_opt(s: Option<f64>) -> String {
    s.map_or_else(|| "-".to_string(), fmt_speedup)
}

/// Prints a progress note to stderr (kept out of the table output).
pub fn note(msg: &str) {
    eprintln!("[ssm-bench] {msg}");
}

/// Reports every failed, timed-out or unverified cell of a sweep to
/// stderr, so a `-` in a rendered table is always explained.
pub fn report_failures(run: &ssm_sweep::SweepRun) {
    use ssm_sweep::CellStatus;
    for o in &run.outcomes {
        let tries = if o.attempts > 1 {
            format!(" (after {} attempts)", o.attempts)
        } else {
            String::new()
        };
        match &o.status {
            CellStatus::Done(rec) if !rec.verified => note(&format!(
                "{}: verification FAILED: {}",
                o.cell.label(),
                rec.verify_error.as_deref().unwrap_or("unknown")
            )),
            CellStatus::Failed(e) => note(&format!("{}: FAILED{tries}: {e}", o.cell.label())),
            CellStatus::TimedOut(d) => {
                note(&format!("{}: timed out after {d:?}{tries}", o.cell.label()));
            }
            CellStatus::Done(_) => {}
        }
    }
    if run.abandoned_threads > 0 {
        note(&format!(
            "{} abandoned simulation thread(s) from timed-out cells are still running in this process",
            run.abandoned_threads
        ));
    }
}

/// A measured timing sample from [`bench()`].
#[derive(Debug, Clone, Copy)]
pub struct Sample {
    /// Iterations per sample batch.
    pub iters: u32,
    /// Best (minimum) nanoseconds per iteration across batches.
    pub best_ns: f64,
    /// Mean nanoseconds per iteration across batches.
    pub mean_ns: f64,
}

/// Measures `f` and prints one `name: <best>/iter (best), <mean>/iter
/// (mean)` line — a dependency-free stand-in for a micro-benchmark
/// harness. The workload's result is returned through a volatile sink so
/// the optimizer cannot delete it.
///
/// Calibrates the iteration count so one batch takes roughly
/// `SSM_BENCH_MS` milliseconds (default 50), then times `SSM_BENCH_BATCHES`
/// batches (default 5).
pub fn bench<R>(name: &str, mut f: impl FnMut() -> R) -> Sample {
    let target_ms: u64 = std::env::var("SSM_BENCH_MS")
        .ok()
        .and_then(|v| v.parse().ok())
        .unwrap_or(50);
    let batches: u32 = std::env::var("SSM_BENCH_BATCHES")
        .ok()
        .and_then(|v| v.parse().ok())
        .unwrap_or(5)
        .max(1);

    // Calibrate: double the batch size until it costs >= target/4.
    let mut iters: u32 = 1;
    loop {
        let t = Instant::now();
        for _ in 0..iters {
            std::hint::black_box(f());
        }
        let elapsed = t.elapsed();
        if elapsed.as_millis() as u64 * 4 >= target_ms || iters >= 1 << 20 {
            let per = (elapsed.as_nanos() as f64 / f64::from(iters)).max(1.0);
            let want = (target_ms as f64 * 1e6 / per).clamp(1.0, f64::from(1u32 << 20));
            iters = want as u32;
            break;
        }
        iters = iters.saturating_mul(2);
    }

    let mut best = f64::INFINITY;
    let mut sum = 0.0f64;
    for _ in 0..batches {
        let t = Instant::now();
        for _ in 0..iters {
            std::hint::black_box(f());
        }
        let per = t.elapsed().as_nanos() as f64 / f64::from(iters);
        best = best.min(per);
        sum += per;
    }
    let sample = Sample {
        iters,
        best_ns: best,
        mean_ns: sum / f64::from(batches),
    };
    println!(
        "{name}: {:>10}/iter (best), {:>10}/iter (mean), {} iters x {batches}",
        format_ns(sample.best_ns),
        format_ns(sample.mean_ns),
        iters
    );
    sample
}

fn format_ns(ns: f64) -> String {
    if ns >= 1e6 {
        format!("{:.2}ms", ns / 1e6)
    } else if ns >= 1e3 {
        format!("{:.2}us", ns / 1e3)
    } else {
        format!("{ns:.0}ns")
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn fmt_speedup_renders() {
        assert_eq!(fmt_speedup(12.3456), "12.35");
        assert_eq!(fmt_speedup_opt(Some(2.0)), "2.00");
        assert_eq!(fmt_speedup_opt(None), "-");
    }

    #[test]
    fn bench_measures_and_returns() {
        std::env::set_var("SSM_BENCH_MS", "1");
        std::env::set_var("SSM_BENCH_BATCHES", "2");
        let s = bench("test/noop", || 1 + 1);
        assert!(s.iters >= 1);
        assert!(s.best_ns > 0.0);
        assert!(s.mean_ns >= s.best_ns);
    }
}
