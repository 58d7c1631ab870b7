//! The metric catalogue and the report that fills it.
//!
//! Every metric the benchmark prints is declared once here, with its unit,
//! its provenance (measured on this **host**, or **simulated** cycles of
//! the modelled cluster) and whether it is a raw **count** or **derived**
//! from other numbers. A run fills values by name; printing walks the
//! catalogue, so a metric can never silently go missing from the output.

use std::collections::BTreeMap;

/// Where a number comes from.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Origin {
    /// Wall time, memory or host-side counts on the machine running the
    /// benchmark.
    Host,
    /// Cycles or events of the simulated cluster (deterministic; the model
    /// is unvalidated against hardware).
    Simulated,
}

/// Whether a number is counted directly or computed from others.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Kind {
    /// Counted (or timed) directly.
    Count,
    /// Computed from other numbers; its base is printed next to it.
    Derived,
}

/// One catalogue entry.
#[derive(Debug, Clone, Copy)]
pub struct Spec {
    pub name: &'static str,
    pub unit: &'static str,
    pub origin: Origin,
    pub kind: Kind,
}

const fn spec(name: &'static str, unit: &'static str, origin: Origin, kind: Kind) -> Spec {
    Spec {
        name,
        unit,
        origin,
        kind,
    }
}

use Kind::{Count, Derived};
use Origin::{Host, Simulated};

/// End-to-end metrics: printed with `--trace 0` on every workload, each
/// with a regression bound in `BENCHMARK.json`.
pub const END_TO_END: &[Spec] = &[
    spec("setup_s", "s", Host, Count),
    spec("cells_per_s", "1/s", Host, Derived),
    spec("rerun_ms_p50", "ms", Host, Derived),
    spec("peak_rss_mb", "MB", Host, Count),
];

/// End-to-end numbers printed for the reader but kept out of the JSON
/// result line, because they do not exist on every workload, can read
/// zero, or are deterministic (see `perfbench/README.md`).
pub const END_TO_END_INFO: &[Spec] = &[
    spec("rerun_ms_p95", "ms", Host, Derived),
    spec("failed_frac", "ratio", Host, Derived),
    spec("sim_speedup_geomean", "x", Simulated, Derived),
];

/// Per-layer metrics: printed with `--trace 1` on every workload.
pub const PER_LAYER: &[Spec] = &[
    // sweep
    spec("sweep.run_s", "s", Host, Count),
    spec("sweep.busy_frac", "ratio", Host, Derived),
    spec("sweep.cells_executed", "count", Host, Count),
    spec("sweep.cells_cached", "count", Host, Count),
    spec("sweep.cells_failed", "count", Host, Count),
    spec("sweep.cache_bytes", "bytes", Host, Count),
    spec("sweep.hash_us", "us", Host, Derived),
    spec("sweep.store_open_ms", "ms", Host, Derived),
    spec("sweep.store_get_us", "us", Host, Derived),
    spec("sweep.store_append_us", "us", Host, Derived),
    spec("sweep.record_encode_us", "us", Host, Derived),
    spec("sweep.record_decode_us", "us", Host, Derived),
    spec("sweep.summary_ms", "ms", Host, Derived),
    // apps
    spec("apps.build_ms", "ms", Host, Count),
    spec("apps.verified_frac", "ratio", Simulated, Derived),
    // core
    spec("core.run_s", "s", Host, Count),
    spec("core.run_ms_p50", "ms", Host, Derived),
    spec("core.baseline_s", "s", Host, Count),
    spec("core.ns_per_sim_op", "ns", Host, Derived),
    // engine
    spec("engine.handoffs", "count", Simulated, Count),
    spec("engine.sim_ops", "count", Simulated, Count),
    spec("engine.batched_op_ratio", "ratio", Simulated, Derived),
    spec("engine.flush_sync", "count", Simulated, Count),
    spec("engine.flush_miss", "count", Simulated, Count),
    spec("engine.flush_cap", "count", Simulated, Count),
    spec("engine.threads_spawned", "count", Host, Count),
    spec("engine.threads_reused", "count", Host, Count),
    spec("engine.us_per_handoff", "us", Host, Derived),
    // net
    spec("net.messages", "count", Simulated, Count),
    spec("net.bytes", "bytes", Simulated, Count),
    spec("net.retransmissions", "count", Simulated, Count),
    spec("net.dup_suppressed", "count", Simulated, Count),
    spec("net.faults_injected", "count", Simulated, Count),
    spec("net.delivery_ratio", "ratio", Simulated, Derived),
    spec("net.data_wait_cycles", "cycles", Simulated, Count),
    // mem
    spec("mem.cache_stall_cycles", "cycles", Simulated, Count),
    spec("mem.local_accesses", "count", Simulated, Count),
    // proto
    spec("proto.lock_wait_cycles", "cycles", Simulated, Count),
    spec("proto.barrier_wait_cycles", "cycles", Simulated, Count),
    spec("proto.lock_acquires", "count", Simulated, Count),
    spec("proto.barriers", "count", Simulated, Count),
    spec("proto.remote_reads", "count", Simulated, Count),
    spec("proto.remote_writes", "count", Simulated, Count),
    // hlrc
    spec("hlrc.run_s", "s", Host, Count),
    spec("hlrc.proto_cycles", "cycles", Simulated, Count),
    spec("hlrc.fetches", "count", Simulated, Count),
    spec("hlrc.invalidations", "count", Simulated, Count),
    spec("hlrc.diffs", "count", Simulated, Count),
    spec("hlrc.diff_words", "count", Simulated, Count),
    spec("hlrc.twins", "count", Simulated, Count),
    spec("hlrc.write_notices", "count", Simulated, Count),
    spec("hlrc.diff_cycles", "cycles", Simulated, Count),
    spec("hlrc.mprotect_cycles", "cycles", Simulated, Count),
    // sc
    spec("sc.run_s", "s", Host, Count),
    spec("sc.proto_cycles", "cycles", Simulated, Count),
    spec("sc.fetches", "count", Simulated, Count),
    spec("sc.invalidations", "count", Simulated, Count),
    // rdma
    spec("rdma.run_s", "s", Host, Count),
    spec("rdma.proto_cycles", "cycles", Simulated, Count),
    spec("rdma.fetches", "count", Simulated, Count),
    spec("rdma.invalidations", "count", Simulated, Count),
    // stats
    spec("stats.render_ms", "ms", Host, Derived),
    // the traced run itself
    spec("trace.wall_s", "s", Host, Count),
    spec("trace.untraced_wall_s", "s", Host, Count),
    spec("trace.gap_frac", "ratio", Host, Derived),
];

/// Values measured by one run, keyed by metric name, each with a note
/// (sample count, base of a ratio, or why it reads zero).
#[derive(Debug, Default)]
pub struct Report {
    values: BTreeMap<&'static str, (f64, String)>,
}

impl Report {
    /// Records `name` (which must be in a catalogue) with a note.
    pub fn set(&mut self, name: &'static str, value: f64, note: impl Into<String>) {
        assert!(
            lookup(name).is_some(),
            "metric {name} is not in the catalogue"
        );
        let value = if value.is_finite() { value } else { 0.0 };
        self.values.insert(name, (value, note.into()));
    }

    /// Prints one human-readable line per metric of `specs`, in catalogue
    /// order: value, unit, provenance, kind and note.
    pub fn print(&self, specs: &[Spec]) {
        for s in specs {
            if let Some((v, note)) = self.values.get(s.name) {
                let origin = match s.origin {
                    Origin::Host => "host",
                    Origin::Simulated => "simulated",
                };
                let kind = match s.kind {
                    Kind::Count => "count",
                    Kind::Derived => "derived",
                };
                let note = if note.is_empty() {
                    String::new()
                } else {
                    format!("  ({note})")
                };
                println!(
                    "metric {:<28} {:>18} {:<6} [{origin}, {kind}]{note}",
                    s.name,
                    fmt_value(*v),
                    s.unit
                );
            }
        }
    }

    /// The final result line: exactly the metrics of `specs`, each as
    /// `{"value": v, "unit": u}`.
    ///
    /// # Panics
    /// If a metric of `specs` was never recorded (a bug in the run).
    pub fn json_line(&self, specs: &[Spec], correct: bool, attempted: u64, failed: u64) -> String {
        let metrics: Vec<String> = specs
            .iter()
            .map(|s| {
                let (v, _) = self
                    .values
                    .get(s.name)
                    .unwrap_or_else(|| panic!("metric {} was not measured", s.name));
                format!(
                    "\"{}\":{{\"value\":{},\"unit\":\"{}\"}}",
                    s.name,
                    fmt_value(*v),
                    s.unit
                )
            })
            .collect();
        format!(
            "{{\"correct\":{correct},\"attempted\":{attempted},\"failed\":{failed},\"metrics\":{{{}}}}}",
            metrics.join(",")
        )
    }
}

/// Every digit of `v` (Rust's shortest round-trip form).
fn fmt_value(v: f64) -> String {
    format!("{v}")
}

fn lookup(name: &str) -> Option<&'static Spec> {
    END_TO_END
        .iter()
        .chain(END_TO_END_INFO)
        .chain(PER_LAYER)
        .find(|s| s.name == name)
}

#[cfg(test)]
mod tests {
    use super::*;
    use ssm_sweep::Json;

    fn names(v: &Json, key: &str) -> Vec<(String, String)> {
        v.get(key)
            .and_then(Json::as_arr)
            .expect("metric list")
            .iter()
            .map(|m| {
                (
                    m.get("name")
                        .and_then(Json::as_str)
                        .expect("name")
                        .to_string(),
                    m.get("unit")
                        .and_then(Json::as_str)
                        .expect("unit")
                        .to_string(),
                )
            })
            .collect()
    }

    fn catalogue(specs: &[Spec]) -> Vec<(String, String)> {
        specs
            .iter()
            .map(|s| (s.name.to_string(), s.unit.to_string()))
            .collect()
    }

    /// `BENCHMARK.json` and the catalogue name the same metrics, in the
    /// same order, with the same units.
    #[test]
    fn benchmark_manifest_matches_catalogue() {
        let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
        let text = std::fs::read_to_string(path).expect("BENCHMARK.json");
        let manifest = Json::parse(&text).expect("valid JSON");
        assert_eq!(names(&manifest, "end_to_end"), catalogue(END_TO_END));
        assert_eq!(names(&manifest, "per_layer"), catalogue(PER_LAYER));
    }

    #[test]
    fn json_line_holds_exactly_the_requested_metrics() {
        let mut r = Report::default();
        for s in END_TO_END {
            r.set(s.name, 1.5, "");
        }
        r.set("failed_frac", 0.0, "");
        let line = r.json_line(END_TO_END, true, 3, 0);
        let v = Json::parse(&line).expect("valid JSON");
        let Some(Json::Obj(m)) = v.get("metrics") else {
            panic!("metrics object");
        };
        assert_eq!(m.len(), END_TO_END.len());
        assert_eq!(v.get("attempted").and_then(Json::as_u64), Some(3));
    }

    #[test]
    fn names_are_unique() {
        let mut all: Vec<&str> = END_TO_END
            .iter()
            .chain(END_TO_END_INFO)
            .chain(PER_LAYER)
            .map(|s| s.name)
            .collect();
        let n = all.len();
        all.sort_unstable();
        all.dedup();
        assert_eq!(all.len(), n);
    }
}
