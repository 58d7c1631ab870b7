//! The three workloads: which cells each sweeps, why it was chosen, and
//! the checks its outputs must pass.

use std::collections::{BTreeMap, HashMap};
use std::path::Path;

use ssm_apps::catalog::{suite, Scale};
use ssm_core::{LayerConfig, Protocol};
use ssm_stats::Table;
use ssm_sweep::{Cell, CellRecord};

/// Fault-injection rates (ppm per class) of `sweep-small`'s fault cells.
pub const FAULT_RATES_PPM: [u32; 3] = [2_000, 10_000, 50_000];

/// The protocols every workload sweeps.
pub const PROTOCOLS: [Protocol; 3] = [Protocol::Hlrc, Protocol::Sc, Protocol::Rdma];

/// A named workload.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Workload {
    GridBench,
    SweepSmall,
    CacheWarm,
}

impl Workload {
    pub const ALL: [Workload; 3] = [
        Workload::GridBench,
        Workload::SweepSmall,
        Workload::CacheWarm,
    ];

    pub fn name(self) -> &'static str {
        match self {
            Workload::GridBench => "grid-bench",
            Workload::SweepSmall => "sweep-small",
            Workload::CacheWarm => "cache-warm",
        }
    }

    pub fn parse(s: &str) -> Option<Workload> {
        Workload::ALL.into_iter().find(|w| w.name() == s)
    }

    /// Why the workload is in the benchmark (printed with every run).
    pub fn why(self) -> &'static str {
        match self {
            Workload::GridBench => {
                "simulation-bound: 13 apps x {HLRC,SC,RDMA} at AO, 16 procs, bench scale, \
                 plus baselines, cold and uncached; engine, core and the protocol crates do \
                 nearly all the work, sweep almost none, and the fault path is off"
            }
            Workload::SweepSmall => {
                "per-cell fixed costs: ~1,300 test-scale cells of 1-10 ms (full layer grid, \
                 procs 4 and 16, fault cells at 2000/10000/50000 ppm) into a fresh cache, so \
                 hashing, thread leases, store appends, the summary and the net \
                 retransmission path weigh heavily"
            }
            Workload::CacheWarm => {
                "the result store read path: reruns of sweep-small's cells against a filled \
                 cache, rendering a Figure-3-style table each time; it simulates almost \
                 nothing, so an engine gain should not move it and a store change that \
                 trades reads for writes shows up against sweep-small"
            }
        }
    }

    /// Sweeps a `--trace 0` run makes at least, however short `--seconds`:
    /// enough for a median, and a fixed count on a host of any speed in
    /// the range the benchmark was tuned on, because the process keeps
    /// memory from every sweep it ran and `peak_rss_mb` grows with them.
    pub fn min_sweeps(self) -> usize {
        match self {
            Workload::GridBench => 2,
            Workload::SweepSmall => 3,
            Workload::CacheWarm => 50,
        }
    }

    /// The workload's cells, in enumeration order. `seed` is the fault
    /// seed of the fault cells (the only input it changes).
    pub fn cells(self, seed: u64) -> Vec<Cell> {
        let ao = LayerConfig::parse("AO").expect("AO is a known label");
        let mut cells = Vec::new();
        match self {
            Workload::GridBench => {
                for app in suite() {
                    cells.push(Cell::baseline(app.name, Scale::Bench));
                    for p in PROTOCOLS {
                        cells.push(Cell::new(app.name, p, ao, 16, Scale::Bench));
                    }
                }
            }
            Workload::SweepSmall | Workload::CacheWarm => {
                for app in suite() {
                    cells.push(Cell::baseline(app.name, Scale::Test));
                    for procs in [4, 16] {
                        for p in PROTOCOLS {
                            for cfg in LayerConfig::full_grid() {
                                cells.push(Cell::new(app.name, p, cfg, procs, Scale::Test));
                            }
                        }
                    }
                    for rate in FAULT_RATES_PPM {
                        for p in PROTOCOLS {
                            cells.push(
                                Cell::new(app.name, p, ao, 4, Scale::Test).with_faults(rate, seed),
                            );
                        }
                    }
                }
            }
        }
        cells
    }
}

/// The warm-up sweep every set-up runs, uncached: FFT's test-scale
/// baseline and its 16-processor AO cells under each protocol. It pays the
/// executor's first-use costs (worker threads, allocator arenas, cold code)
/// before timing starts, so the timed loop measures steady state and work
/// moved to first use shows in `setup_s`.
pub fn warmup_cells() -> Vec<Cell> {
    let mut cells = vec![Cell::baseline("FFT", Scale::Test)];
    for p in PROTOCOLS {
        cells.push(Cell::new("FFT", p, LayerConfig::base(), 16, Scale::Test));
    }
    cells
}

/// The known defect this benchmark counts instead of hiding: Barnes-Spatial
/// at test scale on 16 processors runs out of its tree-cell pool.
pub fn is_known_defect(cell: &Cell, error: &str) -> bool {
    cell.app == "Barnes-Spatial"
        && cell.scale == Scale::Test
        && cell.procs == 16
        && error.contains("cell pool exhausted")
}

/// Whether `cell` is its application's sequential baseline.
pub fn is_baseline(cell: &Cell) -> bool {
    *cell == Cell::baseline(&cell.app, cell.scale)
}

/// The committed AO speedups of `results/rdma.txt`, as printed (two
/// decimals), keyed by `(application, protocol label)`.
#[derive(Debug)]
pub struct Reference {
    speedups: HashMap<(String, String), String>,
}

impl Reference {
    /// Reads the speedup table at the top of `rdma.txt`.
    pub fn load(path: &Path) -> Result<Reference, String> {
        let text = std::fs::read_to_string(path)
            .map_err(|e| format!("cannot read reference {}: {e}", path.display()))?;
        let mut lines = text.lines().skip_while(|l| !l.starts_with("Application"));
        let header: Vec<&str> = lines
            .next()
            .ok_or("reference has no speedup table")?
            .split("  ")
            .map(str::trim)
            .filter(|s| !s.is_empty())
            .collect();
        let mut speedups = HashMap::new();
        for line in lines.skip(1).take_while(|l| !l.trim().is_empty()) {
            let row: Vec<&str> = line.split_whitespace().collect();
            if row.len() != header.len() {
                return Err(format!("reference row has {} columns: {line}", row.len()));
            }
            for p in PROTOCOLS {
                let col = format!("{} AO", p.label());
                let i = header
                    .iter()
                    .position(|h| *h == col)
                    .ok_or_else(|| format!("reference has no {col} column"))?;
                speedups.insert(
                    (row[0].to_string(), p.label().to_string()),
                    row[i].to_string(),
                );
            }
        }
        if speedups.len() != suite().len() * PROTOCOLS.len() {
            return Err(format!(
                "reference holds {} AO speedups, expected {}",
                speedups.len(),
                suite().len() * PROTOCOLS.len()
            ));
        }
        Ok(Reference { speedups })
    }

    fn expected(&self, cell: &Cell) -> Option<&str> {
        self.speedups
            .get(&(cell.app.clone(), cell.protocol.label().to_string()))
            .map(String::as_str)
    }
}

/// One cell's result as the checks see it, from the sweep executor or the
/// traced runner alike.
pub type Outcome<'a> = (&'a Cell, Result<&'a CellRecord, &'a str>);

/// What the output checks found, accumulated over every sweep of a run.
#[derive(Debug, Default)]
pub struct Tally {
    pub attempted: u64,
    pub ok: u64,
    /// Failure label → (count, reason, whether it is the known defect).
    pub failures: BTreeMap<String, (u64, String, bool)>,
}

impl Tally {
    fn fail(&mut self, cell: &Cell, reason: String, known: bool) {
        let e = self
            .failures
            .entry(cell.label())
            .or_insert((0, reason, known));
        e.0 += 1;
    }

    pub fn failed(&self) -> u64 {
        self.failures.values().map(|f| f.0).sum()
    }

    /// Failures other than the known defect.
    pub fn unexpected(&self) -> u64 {
        self.failures.values().filter(|f| !f.2).map(|f| f.0).sum()
    }

    pub fn correct(&self) -> bool {
        self.ok > 0 && self.unexpected() == 0
    }

    /// Prints every failed cell by label.
    pub fn print(&self) {
        for (label, (n, reason, known)) in &self.failures {
            let tag = if *known { "known defect" } else { "UNEXPECTED" };
            println!("failed {label} x{n} [{tag}]: {reason}");
        }
    }
}

/// Checks one sweep's outcomes: every cell completed and verified; on
/// `grid-bench` every parallel speedup equals the committed reference; on
/// `cache-warm` every record equals the cold fill's in canonical form.
pub fn check(
    outcomes: &[Outcome],
    reference: Option<&Reference>,
    fill: Option<&HashMap<String, CellRecord>>,
    tally: &mut Tally,
) {
    let speedups = if reference.is_some() {
        speedups(outcomes)
    } else {
        HashMap::new()
    };
    for (cell, result) in outcomes {
        tally.attempted += 1;
        let rec = match result {
            Ok(rec) => rec,
            Err(e) => {
                tally.fail(cell, e.to_string(), is_known_defect(cell, e));
                continue;
            }
        };
        if !rec.verified {
            let why = rec.verify_error.as_deref().unwrap_or("unknown");
            tally.fail(cell, format!("verification failed: {why}"), false);
            continue;
        }
        if let Some(reference) = reference.filter(|_| !is_baseline(cell)) {
            let got = speedups.get(&cell.label()).map(|s| format!("{s:.2}"));
            let want = reference.expected(cell);
            if got.is_none() || got.as_deref() != want {
                tally.fail(
                    cell,
                    format!("speedup {got:?} differs from reference {want:?}"),
                    false,
                );
                continue;
            }
        }
        if let Some(fill) = fill {
            match fill.get(&cell.hash()) {
                Some(want) if *want == rec.canonical() => {}
                Some(_) => {
                    tally.fail(cell, "record differs from the cold fill".into(), false);
                    continue;
                }
                None => {
                    tally.fail(cell, "no cold-fill record to compare".into(), false);
                    continue;
                }
            }
        }
        tally.ok += 1;
    }
}

/// Geometric mean of baseline cycles / cell cycles over the parallel
/// cells that completed.
pub fn speedup_geomean(outcomes: &[Outcome]) -> Option<f64> {
    let speedups = speedups(outcomes);
    let logs: Vec<f64> = outcomes
        .iter()
        .filter_map(|(c, _)| speedups.get(&c.label()))
        .map(|s| s.ln())
        .collect();
    if logs.is_empty() {
        return None;
    }
    Some((logs.iter().sum::<f64>() / logs.len() as f64).exp())
}

/// Speedup of every completed parallel cell, keyed by cell label.
pub fn speedups(outcomes: &[Outcome]) -> HashMap<String, f64> {
    let baselines: HashMap<&str, u64> = outcomes
        .iter()
        .filter(|(c, _)| is_baseline(c))
        .filter_map(|(c, r)| r.ok().map(|rec| (c.app.as_str(), rec.total_cycles)))
        .collect();
    outcomes
        .iter()
        .filter(|(c, _)| !is_baseline(c))
        .filter_map(|(c, r)| {
            let rec = r.ok().filter(|rec| rec.total_cycles > 0)?;
            let base = baselines.get(c.app.as_str())?;
            Some((c.label(), *base as f64 / rec.total_cycles as f64))
        })
        .collect()
}

/// A Figure-3-style speedup table: one row per application, one column
/// per parallel configuration, `-` for a cell without a result.
pub fn figure_table(cells: &[Cell], speedup: impl Fn(&Cell) -> Option<f64>) -> Table {
    let mut columns: Vec<String> = Vec::new();
    let mut rows: Vec<(String, Vec<String>)> = Vec::new();
    for cell in cells.iter().filter(|c| !is_baseline(c)) {
        let column = cell.label()[cell.app.len() + 1..].to_string();
        if !columns.contains(&column) {
            columns.push(column);
        }
        if rows.last().map(|(app, _)| app != &cell.app).unwrap_or(true) {
            rows.push((cell.app.clone(), Vec::new()));
        }
        let text = speedup(cell).map_or_else(|| "-".to_string(), |s| format!("{s:.2}"));
        rows.last_mut().expect("row pushed above").1.push(text);
    }
    let mut head = vec!["Application".to_string()];
    head.extend(columns);
    let mut t = Table::new(head);
    for (app, values) in rows {
        let mut row = vec![app];
        row.extend(values);
        t.row(row);
    }
    t
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn workload_sizes() {
        let grid = Workload::GridBench.cells(7);
        assert_eq!(grid.len(), 52);
        assert_eq!(grid.iter().filter(|c| is_baseline(c)).count(), 13);
        let small = Workload::SweepSmall.cells(7);
        assert_eq!(small.len(), 13 * (1 + 2 * 3 * 15 + 3 * 3));
        assert_eq!(small, Workload::CacheWarm.cells(7));
    }

    #[test]
    fn seed_changes_only_the_fault_cells() {
        let a = Workload::SweepSmall.cells(1);
        let b = Workload::SweepSmall.cells(2);
        for (x, y) in a.iter().zip(&b) {
            assert_eq!(x == y, !x.has_faults(), "{}", x.label());
        }
        assert_eq!(Workload::GridBench.cells(1), Workload::GridBench.cells(2));
    }

    #[test]
    fn reference_parses_the_committed_table() {
        let path = Path::new(env!("CARGO_MANIFEST_DIR")).join("../results/rdma.txt");
        let r = Reference::load(&path).expect("reference");
        let fft = Cell::new("FFT", Protocol::Rdma, LayerConfig::base(), 16, Scale::Bench);
        assert_eq!(r.expected(&fft), Some("2.78"));
    }
}
