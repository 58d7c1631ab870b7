//! The shared command line for every sweep binary.
//!
//! All figure/table binaries accept the same flags:
//!
//! * `--procs N` — simulated processors (default 16, the paper's scale);
//! * `--scale test|bench|full` — problem sizes (default `bench`);
//! * `--app NAME` — restrict to applications whose name contains `NAME`;
//! * `--jobs N` — host worker threads (default: available parallelism);
//! * `--no-cache` — ignore and don't write `results/sweep_cache.jsonl`;
//! * `--no-batching` — one baton handoff per simulated operation (the
//!   pre-batching engine behavior; results are byte-identical, only the
//!   host-side handoff counters and wall time change);
//! * `--timeout SECS` — per-cell wall-time limit, a positive number of
//!   seconds (default: none);
//! * `--retries N` — rerun panicked/timed-out cells up to N extra times
//!   (default 0);
//! * `--results DIR` — results directory (default `results/`);
//! * `--quiet` — suppress stderr progress;
//! * `--shards N` — coordinator mode: run the sweep as N worker
//!   subprocesses and merge their caches (requires the cache);
//! * `--shard i/N` — restrict to the cells whose hash lands on shard `i`
//!   of an N-way partition;
//! * `--worker` — run the `--shard` slice into `--results` and exit
//!   (used by the coordinator; composable by hand for multi-machine
//!   sharding);
//! * `--shard-retries N` — worker relaunches for incomplete shards
//!   (default 2).
//!
//! Binaries with extra flags use [`SweepCli::parse_with`] and handle their
//! own in the callback.

use std::path::PathBuf;
use std::time::Duration;

use ssm_apps::catalog::{suite, AppSpec, Scale};

use crate::builder::Mode;
use crate::cell::{scale_from_label, scale_label};
use crate::exec::SweepOpts;
use crate::shard::ShardSpec;

/// Prints a usage error and exits with status 2 (no panic backtrace).
fn die(msg: &str) -> ! {
    eprintln!("error: {msg}");
    std::process::exit(2);
}

/// Parsed common flags.
#[derive(Debug, Clone)]
pub struct SweepCli {
    /// Simulated processor count.
    pub procs: usize,
    /// Problem-size scale.
    pub scale: Scale,
    /// Substring filter on application names (empty = all).
    pub filter: String,
    /// Executor options: `--jobs`, `--no-cache`, `--no-batching`,
    /// `--timeout`, `--retries`, `--results` and `--quiet`.
    pub opts: SweepOpts,
    /// Execution mode: `--shards`, `--shard`, `--worker` and
    /// `--shard-retries`.
    pub mode: Mode,
}

impl Default for SweepCli {
    fn default() -> Self {
        SweepCli {
            procs: 16,
            scale: Scale::Bench,
            filter: String::new(),
            opts: SweepOpts::default(),
            mode: Mode::default(),
        }
    }
}

impl SweepCli {
    /// Parses the common flags from `std::env::args`, rejecting unknown
    /// ones. Malformed or unknown arguments print a usage error and exit
    /// with status 2.
    pub fn parse() -> Self {
        Self::parse_with(|flag, _| {
            die(&format!(
                "unknown flag {flag}; use --procs/--scale/--app/--jobs/--no-cache/--no-batching/--timeout/--retries/--results/--quiet/--shards/--shard/--worker/--shard-retries"
            ))
        })
    }

    /// Parses the common flags; each unknown flag is handed to `extra`
    /// together with the argument iterator so binaries can consume a
    /// value for it. Malformed arguments print a usage error and exit
    /// with status 2.
    pub fn parse_with(mut extra: impl FnMut(&str, &mut dyn Iterator<Item = String>)) -> Self {
        let mut cli = SweepCli::default();
        let (mut shards, mut shard, mut worker, mut shard_retries) = (None, None, false, 2);
        let mut args = std::env::args().skip(1);
        while let Some(a) = args.next() {
            match a.as_str() {
                "--procs" => {
                    cli.procs = args
                        .next()
                        .and_then(|v| v.parse().ok())
                        .unwrap_or_else(|| die("--procs needs a number"));
                }
                "--scale" => {
                    let v = args
                        .next()
                        .unwrap_or_else(|| die("--scale test|bench|full"));
                    cli.scale = scale_from_label(&v)
                        .unwrap_or_else(|_| die(&format!("--scale test|bench|full, got {v:?}")));
                }
                "--app" => {
                    cli.filter = args.next().unwrap_or_else(|| die("--app needs a name"));
                }
                "--jobs" => {
                    cli.opts.jobs = args
                        .next()
                        .and_then(|v| v.parse().ok())
                        .filter(|&n: &usize| n > 0)
                        .unwrap_or_else(|| die("--jobs needs a positive number"));
                }
                "--no-cache" => cli.opts.cache = false,
                "--no-batching" => cli.opts.batching = false,
                "--timeout" => {
                    let secs = args
                        .next()
                        .and_then(|v| v.parse().ok())
                        .filter(|&n: &u64| n > 0)
                        .unwrap_or_else(|| die("--timeout needs a positive number of seconds"));
                    cli.opts.timeout = Some(Duration::from_secs(secs));
                }
                "--retries" => {
                    cli.opts.retries = args
                        .next()
                        .and_then(|v| v.parse().ok())
                        .unwrap_or_else(|| die("--retries needs a number"));
                }
                "--results" => {
                    cli.opts.results_dir =
                        PathBuf::from(args.next().unwrap_or_else(|| die("--results needs a dir")));
                }
                "--quiet" => cli.opts.progress = false,
                "--shards" => {
                    shards = Some(
                        args.next()
                            .and_then(|v| v.parse().ok())
                            .filter(|&n: &usize| n > 0)
                            .unwrap_or_else(|| die("--shards needs a positive number")),
                    );
                }
                "--shard" => {
                    let v = args.next().unwrap_or_else(|| die("--shard needs i/N"));
                    shard = Some(
                        ShardSpec::parse(&v).unwrap_or_else(|e| die(&format!("--shard: {e}"))),
                    );
                }
                "--worker" => worker = true,
                "--shard-retries" => {
                    shard_retries = args
                        .next()
                        .and_then(|v| v.parse().ok())
                        .unwrap_or_else(|| die("--shard-retries needs a number"));
                }
                other => extra(other, &mut args),
            }
        }
        cli.mode = match (shards, shard, worker) {
            (_, None, true) => die("--worker requires --shard i/N"),
            (Some(_), Some(_), _) => {
                die("--shards (coordinator mode) conflicts with --shard/--worker")
            }
            (Some(_), None, false) if !cli.opts.cache => {
                die("--shards needs the cache to collect worker results; drop --no-cache")
            }
            (Some(shards), None, false) => Mode::Coordinator {
                shards,
                retries: shard_retries,
            },
            (None, Some(spec), true) => Mode::Worker(spec),
            (None, shard, false) => Mode::Local(shard),
        };
        cli
    }

    /// A CLI with explicit settings (used by tests).
    pub fn fixed(procs: usize, scale: Scale) -> Self {
        SweepCli {
            procs,
            scale,
            ..SweepCli::default()
        }
    }

    /// The selected applications.
    pub fn apps(&self) -> Vec<AppSpec> {
        suite()
            .into_iter()
            .filter(|a| self.filter.is_empty() || a.name.contains(&self.filter))
            .collect()
    }

    /// One-line run description for table headers.
    pub fn describe(&self) -> String {
        format!(
            "{} processors, scale {}",
            self.procs,
            scale_label(self.scale)
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn defaults_match_paper_scale() {
        let cli = SweepCli::default();
        assert_eq!(cli.procs, 16);
        assert_eq!(cli.scale, Scale::Bench);
        assert!(cli.opts.jobs >= 1);
        assert!(cli.opts.cache);
        assert_eq!(cli.mode, Mode::Local(None));
    }

    #[test]
    fn filter_selects_apps() {
        let mut cli = SweepCli::fixed(2, Scale::Test);
        cli.filter = "Water".to_string();
        let apps = cli.apps();
        assert_eq!(apps.len(), 2);
        assert!(apps.iter().all(|a| a.name.contains("Water")));
    }
}
