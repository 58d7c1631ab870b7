//! `sweepdemo` — a minimal, fast bench binary used by the shard
//! integration tests and the CI `shard-smoke` job.
//!
//! It enumerates a handful of test-scale cells (FFT and Radix baselines
//! plus HLRC/SC at the base layer configuration), runs them through the
//! standard [`Sweep`] pipeline — so `--shards`, `--shard`, and `--worker`
//! all work exactly as in the real figure/table binaries — and prints a
//! deterministic cycles table (no host timing on stdout).
//!
//! Test hook: when `SSM_SWEEPDEMO_FAIL_ONCE` names a path, a worker for
//! shard 0 exits with status 7 *before sweeping* if that path does not
//! exist yet (creating it first). The next launch of the same shard finds
//! the marker and proceeds — which is exactly the shard-retry scenario.

use ssm_core::{LayerConfig, Protocol};
use ssm_sweep::prelude::*;

fn main() {
    let cli = SweepCli::parse();

    if let Ok(marker) = std::env::var("SSM_SWEEPDEMO_FAIL_ONCE") {
        let first_shard = matches!(cli.mode, Mode::Worker(s) if s.index == 0);
        if first_shard && !std::path::Path::new(&marker).exists() {
            std::fs::write(&marker, b"failed once\n").expect("write fail-once marker");
            eprintln!("[sweepdemo] injected worker failure (fail-once hook)");
            std::process::exit(7);
        }
    }

    let mut cells = Vec::new();
    for app in ["FFT", "Radix"] {
        cells.push(Cell::baseline(app, cli.scale));
        for protocol in [Protocol::Hlrc, Protocol::Sc] {
            cells.push(Cell::new(
                app,
                protocol,
                LayerConfig::base(),
                cli.procs,
                cli.scale,
            ));
        }
    }

    let run = Sweep::enumerate(&cells).configure(&cli).run();

    println!("sweepdemo ({})", cli.describe());
    for outcome in &run.outcomes {
        match &outcome.status {
            CellStatus::Done(rec) => {
                println!(
                    "{:<24} {:>12} cycles",
                    outcome.cell.label(),
                    rec.total_cycles
                );
            }
            other => println!("{:<24} {other:?}", outcome.cell.label()),
        }
    }
    if run.failed > 0 {
        std::process::exit(1);
    }
}
