//! Cross-layer invariants of the sweep's result schema:
//!
//! * the six Figure-4 buckets stored per processor account for the
//!   simulator's per-processor time *exactly* — for every protocol and
//!   layer configuration, the serialized rows reproduce the engine's
//!   breakdowns bucket-for-bucket and sum to the same totals (nothing is
//!   dropped or double-counted by the record projection);
//! * bucket sums stay within the documented handler-slip bound of wall
//!   time (see the driver docs: coverage may exceed wall time by <= 1.25x);
//! * a record round-trips through its JSON cache line unchanged.

use ssm_apps::catalog::{by_name, Scale};
use ssm_core::{LayerConfig, Protocol, SimBuilder};
use ssm_stats::Bucket;
use ssm_sweep::{execute_with, Cell, CellRecord, Json};

const APP: &str = "FFT";
const PROCS: usize = 4;

/// Protocol x config points covering every protocol and, for HLRC, every
/// Figure-3 configuration.
fn points() -> Vec<(Protocol, LayerConfig)> {
    let mut pts = Vec::new();
    for cfg in LayerConfig::figure3() {
        pts.push((Protocol::Hlrc, cfg));
    }
    let bb = *LayerConfig::figure3().first().expect("figure3 nonempty");
    for proto in [
        Protocol::Aurc,
        Protocol::Sc,
        Protocol::ScDelayed,
        Protocol::Ideal,
    ] {
        pts.push((proto, LayerConfig::base()));
        pts.push((proto, bb));
    }
    pts
}

/// Runs the same point directly on the simulator, the way `execute_with` does.
fn direct_run(cell: &Cell) -> ssm_core::RunResult {
    let spec = by_name(&cell.app).expect("known app");
    let w = spec.build(cell.scale);
    let mut b = SimBuilder::new(cell.protocol)
        .procs(cell.procs)
        .sc_block(spec.sc_block)
        .home_policy(cell.homes);
    if cell.protocol != Protocol::Ideal {
        b = b.comm(cell.comm.params()).proto(cell.proto.costs());
    }
    b.run(w.as_ref())
}

#[test]
fn six_buckets_sum_to_per_processor_totals_for_every_protocol_and_config() {
    for (protocol, cfg) in points() {
        let cell = Cell::new(APP, protocol, cfg, PROCS, Scale::Test);
        let rec = execute_with(&cell, None, true).expect("cell executes");
        let r = direct_run(&cell);
        let label = cell.label();

        assert_eq!(rec.total_cycles, r.total_cycles, "{label}: wall time");
        assert_eq!(rec.per_proc.len(), PROCS, "{label}: row count");
        for (p, engine) in r.per_proc.iter().enumerate() {
            let row = rec.breakdown(p);
            // Bucket-for-bucket: the record keeps exactly what the engine
            // measured.
            for k in Bucket::ALL {
                assert_eq!(row.get(k), engine.get(k), "{label}: P{p} {}", k.label());
            }
            // The six stored buckets sum exactly to the processor's total
            // accounted time...
            let stored_sum: u64 = (0..Bucket::ALL.len()).map(|i| rec.per_proc[p][i]).sum();
            assert_eq!(stored_sum, engine.total(), "{label}: P{p} total");
            // ...and stay within the documented handler-slip bound of the
            // parallel wall time.
            assert!(
                stored_sum as f64 <= r.total_cycles as f64 * 1.25,
                "{label}: P{p} buckets {stored_sum} exceed 1.25x wall {}",
                r.total_cycles
            );
        }
    }
}

#[test]
fn records_round_trip_through_cache_lines_unchanged() {
    for (protocol, cfg) in points() {
        let cell = Cell::new(APP, protocol, cfg, PROCS, Scale::Test);
        let rec = execute_with(&cell, None, true).expect("cell executes");
        let line = rec.to_json().render();
        assert!(!line.contains('\n'), "cache lines are single-line");
        let back = CellRecord::from_json(&Json::parse(&line).expect("parse")).expect("deserialize");
        assert_eq!(back, rec, "{}: round trip", cell.label());
        assert_eq!(back.cell.hash(), cell.hash(), "{}: hash", cell.label());
    }
}
