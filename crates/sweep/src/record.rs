//! The measured outcome of one cell, in the machine-readable schema that
//! both the on-disk cache (`results/sweep_cache.jsonl`) and the benchmark
//! trajectory (`results/bench_summary.json`) use.
//!
//! A record is self-contained: everything any figure/table binary renders
//! (speedups via the baseline cell, Figure-4 bucket breakdowns, Table-4
//! protocol activity, raw counters, per-processor views) reconstructs from
//! it without re-running the simulator.

use ssm_core::RunResult;
use ssm_stats::{Breakdown, Bucket, Counters, ProtoActivity};

use crate::cell::Cell;
use crate::json::Json;

/// Current record schema version; bump when the schema changes shape so
/// stale cache lines are skipped rather than misread.
pub const SCHEMA_VERSION: u64 = 1;

/// Everything measured for one cell.
#[derive(Debug, Clone, PartialEq)]
pub struct CellRecord {
    /// The cell this record measures.
    pub cell: Cell,
    /// Parallel execution time (last processor's finish), cycles.
    pub total_cycles: u64,
    /// Per-processor Figure-4 buckets, in [`Bucket::ALL`] order.
    pub per_proc: Vec<[u64; 6]>,
    /// Protocol-activity detail summed over processors (Table 4).
    pub activity: ProtoActivity,
    /// Event counters summed over processors.
    pub counters: Counters,
    /// Whether the workload's self-verification passed.
    pub verified: bool,
    /// The verification failure message, if any.
    pub verify_error: Option<String>,
    /// Host (real) wall time spent simulating this cell, milliseconds.
    pub host_ms: u64,
    /// How many execution attempts this result took (1 = first try; >1
    /// means `--retries` re-ran the cell after a panic or timeout).
    pub attempts: u64,
    /// Execution contexts freshly created for this cell's application
    /// threads — stack mappings on x86_64 Linux, OS threads elsewhere
    /// (host-side, depends on worker-pool warmth — zeroed in
    /// [`CellRecord::canonical`] like `host_ms`).
    pub threads_spawned: u64,
    /// Execution contexts (stacks, or OS threads off x86_64 Linux)
    /// recycled from the sweep's worker pool for this cell
    /// (host-side, zeroed in canonical form).
    pub threads_reused: u64,
}

impl CellRecord {
    /// Builds a record from a completed simulation.
    pub fn from_run(cell: Cell, r: &RunResult, host_ms: u64) -> Self {
        let per_proc = r
            .per_proc
            .iter()
            .map(|b| {
                let mut row = [0u64; 6];
                for (i, k) in Bucket::ALL.iter().enumerate() {
                    row[i] = b.get(*k);
                }
                row
            })
            .collect();
        CellRecord {
            cell,
            total_cycles: r.total_cycles,
            per_proc,
            activity: r.activity,
            counters: r.counters,
            verified: r.verify_error.is_none(),
            verify_error: r.verify_error.clone(),
            host_ms,
            attempts: 1,
            threads_spawned: r.threads_spawned,
            threads_reused: r.threads_reused,
        }
    }

    /// A copy with the nondeterministic fields (`host_ms` and the
    /// pool-warmth-dependent thread stats) zeroed — the form the shard
    /// merge writes, so merged caches come out byte-identical across
    /// reruns and shard counts.
    pub fn canonical(&self) -> Self {
        CellRecord {
            host_ms: 0,
            threads_spawned: 0,
            threads_reused: 0,
            ..self.clone()
        }
    }

    /// Processor `p`'s breakdown.
    pub fn breakdown(&self, p: usize) -> Breakdown {
        let mut b = Breakdown::new();
        for (i, k) in Bucket::ALL.iter().enumerate() {
            b.add(*k, self.per_proc[p][i]);
        }
        b
    }

    /// The all-processor average breakdown (Figure 4's bars).
    pub fn avg_breakdown(&self) -> Breakdown {
        let rows: Vec<Breakdown> = (0..self.per_proc.len())
            .map(|p| self.breakdown(p))
            .collect();
        Breakdown::average(rows.iter())
    }

    /// Serializes to the cache-line schema.
    pub fn to_json(&self) -> Json {
        let a = &self.activity;
        let c = &self.counters;
        Json::Obj(vec![
            ("v".to_string(), Json::Int(SCHEMA_VERSION)),
            ("hash".to_string(), Json::Str(self.cell.hash())),
            ("cell".to_string(), self.cell.to_json()),
            ("total_cycles".to_string(), Json::Int(self.total_cycles)),
            (
                "per_proc".to_string(),
                Json::Arr(
                    self.per_proc
                        .iter()
                        .map(|row| Json::Arr(row.iter().map(|&x| Json::Int(x)).collect()))
                        .collect(),
                ),
            ),
            (
                "activity".to_string(),
                Json::Obj(vec![
                    ("handler".to_string(), Json::Int(a.handler)),
                    ("diff_create".to_string(), Json::Int(a.diff_create)),
                    ("diff_apply".to_string(), Json::Int(a.diff_apply)),
                    ("twin".to_string(), Json::Int(a.twin)),
                    ("mprotect".to_string(), Json::Int(a.mprotect)),
                ]),
            ),
            (
                "counters".to_string(),
                Json::Obj(vec![
                    ("messages".to_string(), Json::Int(c.messages)),
                    ("bytes".to_string(), Json::Int(c.bytes)),
                    ("remote_reads".to_string(), Json::Int(c.remote_reads)),
                    ("remote_writes".to_string(), Json::Int(c.remote_writes)),
                    ("fetches".to_string(), Json::Int(c.fetches)),
                    ("diffs".to_string(), Json::Int(c.diffs)),
                    ("diff_words".to_string(), Json::Int(c.diff_words)),
                    ("twins".to_string(), Json::Int(c.twins)),
                    ("write_notices".to_string(), Json::Int(c.write_notices)),
                    ("invalidations".to_string(), Json::Int(c.invalidations)),
                    ("lock_acquires".to_string(), Json::Int(c.lock_acquires)),
                    ("barriers".to_string(), Json::Int(c.barriers)),
                    ("local_accesses".to_string(), Json::Int(c.local_accesses)),
                    ("auto_updates".to_string(), Json::Int(c.auto_updates)),
                    ("retransmissions".to_string(), Json::Int(c.retransmissions)),
                    ("dup_suppressed".to_string(), Json::Int(c.dup_suppressed)),
                    ("faults_dropped".to_string(), Json::Int(c.faults_dropped)),
                    (
                        "faults_duplicated".to_string(),
                        Json::Int(c.faults_duplicated),
                    ),
                    ("faults_delayed".to_string(), Json::Int(c.faults_delayed)),
                    ("faults_stalled".to_string(), Json::Int(c.faults_stalled)),
                    ("handoffs".to_string(), Json::Int(c.handoffs)),
                    ("sim_ops".to_string(), Json::Int(c.sim_ops)),
                    ("ops_batched".to_string(), Json::Int(c.ops_batched)),
                    ("flush_sync".to_string(), Json::Int(c.flush_sync)),
                    ("flush_miss".to_string(), Json::Int(c.flush_miss)),
                    ("flush_cap".to_string(), Json::Int(c.flush_cap)),
                    ("flush_end".to_string(), Json::Int(c.flush_end)),
                ]),
            ),
            ("verified".to_string(), Json::Bool(self.verified)),
            (
                "verify_error".to_string(),
                match &self.verify_error {
                    Some(e) => Json::Str(e.clone()),
                    None => Json::Null,
                },
            ),
            ("host_ms".to_string(), Json::Int(self.host_ms)),
            ("attempts".to_string(), Json::Int(self.attempts)),
            (
                "threads_spawned".to_string(),
                Json::Int(self.threads_spawned),
            ),
            ("threads_reused".to_string(), Json::Int(self.threads_reused)),
        ])
    }

    /// Deserializes a cache line; rejects other schema versions.
    pub fn from_json(v: &Json) -> Result<Self, String> {
        match v.get("v").and_then(Json::as_u64) {
            Some(SCHEMA_VERSION) => {}
            other => return Err(format!("schema version {other:?} != {SCHEMA_VERSION}")),
        }
        let cell = Cell::from_json(v.get("cell").ok_or("record missing cell")?)?;
        let per_proc = v
            .get("per_proc")
            .and_then(Json::as_arr)
            .ok_or("record missing per_proc")?
            .iter()
            .map(|row| {
                let row = row.as_arr().ok_or("per_proc row not an array")?;
                if row.len() != 6 {
                    return Err(format!("per_proc row has {} buckets", row.len()));
                }
                let mut out = [0u64; 6];
                for (i, x) in row.iter().enumerate() {
                    out[i] = x.as_u64().ok_or("per_proc bucket not a u64")?;
                }
                Ok(out)
            })
            .collect::<Result<Vec<_>, String>>()?;
        let section = |name: &str| v.get(name).ok_or_else(|| format!("record missing {name}"));
        let field = |obj: &Json, key: &str| {
            obj.get(key)
                .and_then(Json::as_u64)
                .ok_or_else(|| format!("record missing {key}"))
        };
        let opt = |obj: &Json, key: &str| obj.get(key).and_then(Json::as_u64).unwrap_or(0);
        let a = section("activity")?;
        let activity = ProtoActivity {
            handler: field(a, "handler")?,
            diff_create: field(a, "diff_create")?,
            diff_apply: field(a, "diff_apply")?,
            twin: field(a, "twin")?,
            mprotect: field(a, "mprotect")?,
        };
        let c = section("counters")?;
        let counters = Counters {
            messages: field(c, "messages")?,
            bytes: field(c, "bytes")?,
            remote_reads: field(c, "remote_reads")?,
            remote_writes: field(c, "remote_writes")?,
            fetches: field(c, "fetches")?,
            diffs: field(c, "diffs")?,
            diff_words: field(c, "diff_words")?,
            twins: field(c, "twins")?,
            write_notices: field(c, "write_notices")?,
            invalidations: field(c, "invalidations")?,
            lock_acquires: field(c, "lock_acquires")?,
            barriers: field(c, "barriers")?,
            local_accesses: field(c, "local_accesses")?,
            auto_updates: field(c, "auto_updates")?,
            // Absent in records written before fault injection existed.
            retransmissions: opt(c, "retransmissions"),
            dup_suppressed: opt(c, "dup_suppressed"),
            faults_dropped: opt(c, "faults_dropped"),
            faults_duplicated: opt(c, "faults_duplicated"),
            faults_delayed: opt(c, "faults_delayed"),
            faults_stalled: opt(c, "faults_stalled"),
            // Absent in records written before batched handoffs existed.
            handoffs: opt(c, "handoffs"),
            sim_ops: opt(c, "sim_ops"),
            ops_batched: opt(c, "ops_batched"),
            flush_sync: opt(c, "flush_sync"),
            flush_miss: opt(c, "flush_miss"),
            flush_cap: opt(c, "flush_cap"),
            flush_end: opt(c, "flush_end"),
        };
        Ok(CellRecord {
            cell,
            total_cycles: v
                .get("total_cycles")
                .and_then(Json::as_u64)
                .ok_or("record missing total_cycles")?,
            per_proc,
            activity,
            counters,
            verified: v
                .get("verified")
                .and_then(Json::as_bool)
                .ok_or("record missing verified")?,
            verify_error: match v.get("verify_error") {
                Some(Json::Str(e)) => Some(e.clone()),
                _ => None,
            },
            host_ms: v.get("host_ms").and_then(Json::as_u64).unwrap_or(0),
            attempts: v.get("attempts").and_then(Json::as_u64).unwrap_or(1),
            threads_spawned: v.get("threads_spawned").and_then(Json::as_u64).unwrap_or(0),
            threads_reused: v.get("threads_reused").and_then(Json::as_u64).unwrap_or(0),
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use ssm_apps::catalog::Scale;
    use ssm_core::{LayerConfig, Protocol};

    fn record() -> CellRecord {
        CellRecord {
            cell: Cell::new("FFT", Protocol::Hlrc, LayerConfig::base(), 2, Scale::Test),
            total_cycles: 123_456,
            per_proc: vec![[1, 2, 3, 4, 5, 6], [60, 50, 40, 30, 20, 10]],
            activity: ProtoActivity {
                handler: 9,
                diff_create: 8,
                diff_apply: 7,
                twin: 6,
                mprotect: 5,
            },
            counters: Counters {
                messages: 100,
                bytes: 1 << 40,
                ..Counters::default()
            },
            verified: false,
            verify_error: Some("sum: got 3, want \"4\"\n(line two)".to_string()),
            host_ms: 42,
            attempts: 1,
            threads_spawned: 3,
            threads_reused: 0,
        }
    }

    #[test]
    fn json_round_trip_is_exact() {
        let r = record();
        let line = r.to_json().render();
        assert!(!line.contains('\n'), "cache lines must be single-line");
        let back = CellRecord::from_json(&Json::parse(&line).expect("parse")).expect("record");
        assert_eq!(back, r);
    }

    #[test]
    fn breakdown_views_match_buckets() {
        let r = record();
        assert_eq!(r.breakdown(0).total(), 21);
        assert_eq!(r.breakdown(1).get(Bucket::Busy), 60);
        assert_eq!(r.avg_breakdown().get(Bucket::Protocol), 8);
    }

    #[test]
    fn pre_fault_records_parse_with_defaults() {
        // A cache line written before the fault/retry fields existed must
        // still load: counters default to 0, attempts to 1.
        let mut j = record().to_json();
        if let Json::Obj(fields) = &mut j {
            fields.retain(|(k, _)| k != "attempts");
            for (k, v) in fields.iter_mut() {
                if k == "counters" {
                    if let Json::Obj(cs) = v {
                        cs.retain(|(ck, _)| !ck.starts_with("faults_") && ck != "retransmissions");
                        cs.retain(|(ck, _)| ck != "dup_suppressed");
                    }
                }
            }
        }
        let back = CellRecord::from_json(&j).expect("old record");
        assert_eq!(back.attempts, 1);
        assert_eq!(back.counters.retransmissions, 0);
        assert_eq!(back.counters.faults_injected(), 0);
    }

    #[test]
    fn future_schema_versions_are_rejected() {
        let mut j = record().to_json();
        if let Json::Obj(fields) = &mut j {
            fields[0].1 = Json::Int(SCHEMA_VERSION + 1);
        }
        assert!(CellRecord::from_json(&j).is_err());
    }
}
