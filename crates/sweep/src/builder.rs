//! The `Sweep` builder: the one front door to sweep execution.
//!
//! Every bench binary builds its cell enumeration, then runs it through
//! this builder — which runs the cells in-process, as a worker slice, or
//! as the shard coordinator, depending on its [`Mode`] (typically taken
//! straight from the shared CLI via [`Sweep::configure`]):
//!
//! ```no_run
//! use ssm_sweep::prelude::*;
//! # let cells: Vec<Cell> = Vec::new();
//! let run = Sweep::enumerate(&cells)
//!     .options(SweepOpts {
//!         jobs: 4,
//!         retries: 1,
//!         ..SweepOpts::default()
//!     })
//!     .run();
//! # let _ = run;
//! ```

use crate::cell::Cell;
use crate::cli::SweepCli;
use crate::coordinator::run_coordinator;
use crate::exec::{run_local, SweepOpts, SweepRun};
use crate::shard::ShardSpec;

/// How [`Sweep::run`] executes its cells.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Mode {
    /// Run the cells in-process — only the ones the shard owns, if one is
    /// given (`--shard i/N`). The default, with no shard.
    Local(Option<ShardSpec>),
    /// Run the shard's slice into the results directory, then exit the
    /// process (`--worker --shard i/N`). Forces the cache on: the cache
    /// *is* the worker's output channel.
    Worker(ShardSpec),
    /// Re-invoke the current binary as `shards` worker subprocesses,
    /// relaunch incomplete shards up to `retries` times, and merge their
    /// caches into the main one (`--shards N --shard-retries K`).
    Coordinator {
        /// Worker subprocesses (partition size).
        shards: usize,
        /// Extra relaunches for shards that come back incomplete.
        retries: u32,
    },
}

impl Default for Mode {
    fn default() -> Self {
        Mode::Local(None)
    }
}

/// A configured sweep over an explicit cell enumeration.
#[derive(Debug)]
pub struct Sweep {
    cells: Vec<Cell>,
    opts: SweepOpts,
    mode: Mode,
}

impl Sweep {
    /// Starts a local sweep over `cells` with default options (cache on
    /// under `results/`, all host cores, progress and summary enabled).
    pub fn enumerate(cells: &[Cell]) -> Self {
        Sweep {
            cells: cells.to_vec(),
            opts: SweepOpts::default(),
            mode: Mode::default(),
        }
    }

    /// Applies everything the shared command line selected: executor
    /// options and execution mode.
    pub fn configure(mut self, cli: &SweepCli) -> Self {
        self.opts = cli.opts.clone();
        self.mode = cli.mode;
        self
    }

    /// Replaces the executor options wholesale (tests and embedders;
    /// binaries should prefer [`Sweep::configure`]).
    pub fn options(mut self, opts: SweepOpts) -> Self {
        self.opts = opts;
        self
    }

    /// Runs the sweep in the configured mode.
    ///
    /// In worker mode this **never returns**: the process exits 0 when
    /// every owned cell completed, 1 otherwise, before the calling binary
    /// gets a chance to render anything.
    pub fn run(self) -> SweepRun {
        match self.mode {
            Mode::Local(None) => run_local(&self.cells, &self.opts),
            Mode::Local(Some(spec)) => run_local(&owned(&self.cells, spec), &self.opts),
            Mode::Worker(spec) => {
                let opts = SweepOpts {
                    cache: true,
                    summary: true,
                    ..self.opts
                };
                let run = run_local(&owned(&self.cells, spec), &opts);
                std::process::exit(if run.failed == 0 { 0 } else { 1 });
            }
            Mode::Coordinator { shards, retries } => {
                run_coordinator(&self.cells, &self.opts, shards, retries)
            }
        }
    }
}

/// The cells of `cells` that shard `spec` owns, in enumeration order.
fn owned(cells: &[Cell], spec: ShardSpec) -> Vec<Cell> {
    cells.iter().filter(|c| spec.owns(c)).cloned().collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use ssm_apps::catalog::Scale;

    fn cells() -> Vec<Cell> {
        (1..=4)
            .map(|p| Cell::ideal("FFT", p, Scale::Test))
            .collect()
    }

    #[test]
    fn configure_copies_the_cli_mode_flags() {
        let mut cli = SweepCli::fixed(2, Scale::Test);
        cli.opts.jobs = 2;
        cli.opts.progress = false;
        cli.mode = Mode::Worker(ShardSpec::new(1, 3).expect("spec"));
        let sweep = Sweep::enumerate(&cells()).configure(&cli);
        assert_eq!(sweep.mode, Mode::Worker(ShardSpec { index: 1, count: 3 }));
        assert_eq!(sweep.opts.jobs, 2);
        assert!(!sweep.opts.progress);

        cli.mode = Mode::Coordinator {
            shards: 4,
            retries: 5,
        };
        let sweep = Sweep::enumerate(&cells()).configure(&cli);
        assert_eq!(
            sweep.mode,
            Mode::Coordinator {
                shards: 4,
                retries: 5
            }
        );
    }

    #[test]
    fn shard_slice_runs_only_owned_cells() {
        let all = cells();
        let spec = ShardSpec::new(0, 2).expect("spec");
        let mut cli = SweepCli::fixed(2, Scale::Test);
        cli.opts.cache = false;
        cli.opts.progress = false;
        cli.opts.summary = false;
        cli.mode = Mode::Local(Some(spec));
        let run = Sweep::enumerate(&all).configure(&cli).run();
        let owned = all.iter().filter(|c| spec.owns(c)).count();
        assert_eq!(run.outcomes.len(), owned);
        assert!(run.outcomes.iter().all(|o| spec.owns(&o.cell)));
    }
}
