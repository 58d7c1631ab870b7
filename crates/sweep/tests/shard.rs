//! End-to-end tests of sharded sweep execution, driving the `sweepdemo`
//! binary the way CI and a user would: coordinator runs (`--shards N`),
//! hand-launched workers (`--worker --shard i/N`), merge determinism
//! across shard counts, conflict detection, and worker retry.

use std::path::{Path, PathBuf};
use std::process::{Command, Output};

use ssm_sweep::{CACHE_FILE, SUMMARY_FILE};

const DEMO: &str = env!("CARGO_BIN_EXE_sweepdemo");
/// Cells sweepdemo enumerates: 2 apps x (baseline + HLRC + SC).
const DEMO_CELLS: usize = 6;

fn tmpdir(tag: &str) -> PathBuf {
    let d = std::env::temp_dir().join(format!("ssm-sweep-shard-{tag}-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&d);
    std::fs::create_dir_all(&d).expect("mkdir");
    d
}

fn demo(args: &[&str], envs: &[(&str, &str)]) -> Output {
    let mut cmd = Command::new(DEMO);
    cmd.args(["--procs", "2", "--scale", "test", "--jobs", "2"])
        .args(args);
    for (k, v) in envs {
        cmd.env(k, v);
    }
    cmd.output().expect("run sweepdemo")
}

fn read(path: &Path) -> String {
    std::fs::read_to_string(path).unwrap_or_else(|e| panic!("read {}: {e}", path.display()))
}

fn cache_lines(dir: &Path) -> usize {
    read(&dir.join(CACHE_FILE)).lines().count()
}

#[test]
fn shard_counts_one_two_seven_merge_byte_identically() {
    let root = tmpdir("counts");
    let mut outputs = Vec::new();
    for shards in ["1", "2", "7"] {
        let dir = root.join(format!("n{shards}"));
        let out = demo(
            &["--shards", shards, "--results", dir.to_str().unwrap()],
            &[],
        );
        assert!(
            out.status.success(),
            "--shards {shards} failed:\n{}",
            String::from_utf8_lossy(&out.stderr)
        );
        outputs.push((shards, dir, out));
    }
    let (_, ref_dir, ref_out) = &outputs[0];
    let ref_cache = read(&ref_dir.join(CACHE_FILE));
    let ref_summary = read(&ref_dir.join(SUMMARY_FILE));
    assert_eq!(ref_cache.lines().count(), DEMO_CELLS);
    // Canonical merged lines carry no wall time.
    assert!(!ref_summary.contains("\"host_ms\":1"), "host time leaked");
    for (shards, dir, out) in &outputs[1..] {
        assert_eq!(
            read(&dir.join(CACHE_FILE)),
            ref_cache,
            "cache differs for --shards {shards}"
        );
        assert_eq!(
            read(&dir.join(SUMMARY_FILE)),
            ref_summary,
            "summary differs for --shards {shards}"
        );
        assert_eq!(
            String::from_utf8_lossy(&out.stdout),
            String::from_utf8_lossy(&ref_out.stdout),
            "stdout differs for --shards {shards}"
        );
    }
    let _ = std::fs::remove_dir_all(&root);
}

#[test]
fn sharded_run_renders_the_same_table_as_a_plain_run() {
    let root = tmpdir("vs-plain");
    let plain_dir = root.join("plain");
    let plain = demo(
        &["--no-cache", "--results", plain_dir.to_str().unwrap()],
        &[],
    );
    assert!(plain.status.success());
    let dir = root.join("sharded");
    let sharded = demo(&["--shards", "3", "--results", dir.to_str().unwrap()], &[]);
    assert!(
        sharded.status.success(),
        "{}",
        String::from_utf8_lossy(&sharded.stderr)
    );
    assert_eq!(
        String::from_utf8_lossy(&plain.stdout),
        String::from_utf8_lossy(&sharded.stdout),
        "a sharded sweep must render exactly what a local sweep renders"
    );
    let _ = std::fs::remove_dir_all(&root);
}

#[test]
fn warm_coordinator_rerun_executes_nothing() {
    let root = tmpdir("warm");
    let dir = root.join("results");
    let cold = demo(&["--shards", "3", "--results", dir.to_str().unwrap()], &[]);
    assert!(cold.status.success());
    let cache_before = read(&dir.join(CACHE_FILE));

    let warm = demo(&["--shards", "3", "--results", dir.to_str().unwrap()], &[]);
    assert!(warm.status.success());
    let stderr = String::from_utf8_lossy(&warm.stderr);
    assert!(stderr.contains("0 executed"), "not all cached:\n{stderr}");
    assert_eq!(
        read(&dir.join(CACHE_FILE)),
        cache_before,
        "a warm rerun must not grow the cache"
    );
    // The same cells re-sharded differently still come entirely from the
    // main cache (the coordinator seeds shard caches from it).
    let resharded = demo(&["--shards", "2", "--results", dir.to_str().unwrap()], &[]);
    assert!(resharded.status.success());
    let stderr = String::from_utf8_lossy(&resharded.stderr);
    assert!(
        stderr.contains("0 executed"),
        "reshard re-executed:\n{stderr}"
    );
    let _ = std::fs::remove_dir_all(&root);
}

#[test]
fn crashed_worker_is_relaunched_and_the_sweep_completes() {
    let root = tmpdir("retry");
    let dir = root.join("results");
    let marker = root.join("fail-once.marker");
    let out = demo(
        &[
            "--shards",
            "2",
            "--shard-retries",
            "2",
            "--results",
            dir.to_str().unwrap(),
        ],
        &[("SSM_SWEEPDEMO_FAIL_ONCE", marker.to_str().unwrap())],
    );
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert!(out.status.success(), "{stderr}");
    assert!(
        marker.exists(),
        "the fail-once hook never fired; shard 0 of 2 owns no cells?"
    );
    assert!(
        stderr.contains("retrying") && stderr.contains("incomplete"),
        "no retry reported:\n{stderr}"
    );
    assert_eq!(cache_lines(&dir), DEMO_CELLS);
    let _ = std::fs::remove_dir_all(&root);
}

#[test]
fn zero_retries_surfaces_the_missing_cells_as_failures() {
    let root = tmpdir("no-retry");
    let dir = root.join("results");
    let marker = root.join("fail-once.marker");
    let out = demo(
        &[
            "--shards",
            "2",
            "--shard-retries",
            "0",
            "--results",
            dir.to_str().unwrap(),
        ],
        &[("SSM_SWEEPDEMO_FAIL_ONCE", marker.to_str().unwrap())],
    );
    // The crashed shard's cells are missing; sweepdemo exits nonzero and
    // the coordinator reports them failed rather than hanging or lying.
    assert!(marker.exists());
    assert!(!out.status.success());
    let summary = read(&dir.join(SUMMARY_FILE));
    assert!(summary.contains("\"status\":\"failed\""), "{summary}");
    let _ = std::fs::remove_dir_all(&root);
}

#[test]
fn conflicting_shard_records_abort_the_merge() {
    let root = tmpdir("conflict");
    let dir = root.join("results");
    let cold = demo(&["--shards", "2", "--results", dir.to_str().unwrap()], &[]);
    assert!(cold.status.success());

    // Corrupt one shard record's measured cycles: now the shard cache
    // disagrees with the merged main cache for that hash.
    let shards_root = dir.join("shards");
    let mut tampered = false;
    for entry in std::fs::read_dir(&shards_root).expect("shard dirs") {
        let cache = entry.expect("entry").path().join(CACHE_FILE);
        if !cache.exists() || tampered {
            continue;
        }
        let text = read(&cache);
        if let Some(pos) = text.find("\"total_cycles\":") {
            let mutated = format!(
                "{}\"total_cycles\":9{}",
                &text[..pos],
                &text[pos + "\"total_cycles\":".len()..]
            );
            std::fs::write(&cache, mutated).expect("tamper");
            tampered = true;
        }
    }
    assert!(tampered, "no shard cache line to tamper with");

    let warm = demo(&["--shards", "2", "--results", dir.to_str().unwrap()], &[]);
    assert!(!warm.status.success(), "merge accepted conflicting records");
    let stderr = String::from_utf8_lossy(&warm.stderr);
    assert!(
        stderr.contains("conflicting records"),
        "unclear conflict error:\n{stderr}"
    );
    let _ = std::fs::remove_dir_all(&root);
}

#[test]
fn hand_launched_workers_compose_with_a_merging_coordinator() {
    // The multi-machine pattern from EXPERIMENTS.md: run each shard's
    // worker yourself (in real life: one per machine, rsync the shard
    // dirs back), then let a coordinator run merge without executing.
    let root = tmpdir("rsync");
    let dir = root.join("results");
    for shard in ["0/2", "1/2"] {
        let shard_dir = dir
            .join("shards")
            .join(format!("{}-of-2", shard.split('/').next().unwrap()));
        let out = demo(
            &[
                "--worker",
                "--shard",
                shard,
                "--results",
                shard_dir.to_str().unwrap(),
                "--quiet",
            ],
            &[],
        );
        assert!(
            out.status.success(),
            "worker {shard} failed:\n{}",
            String::from_utf8_lossy(&out.stderr)
        );
        // Workers write records and a summary, but never render a table.
        assert!(out.stdout.is_empty(), "worker printed to stdout");
        assert!(shard_dir.join(SUMMARY_FILE).exists());
    }
    let merge = demo(&["--shards", "2", "--results", dir.to_str().unwrap()], &[]);
    assert!(merge.status.success());
    let stderr = String::from_utf8_lossy(&merge.stderr);
    assert!(
        stderr.contains("0 executed"),
        "coordinator re-executed hand-worked cells:\n{stderr}"
    );
    assert_eq!(cache_lines(&dir), DEMO_CELLS);
    let _ = std::fs::remove_dir_all(&root);
}

#[test]
fn invalid_mode_and_timeout_flags_exit_2_without_sweeping() {
    let root = tmpdir("usage");
    let cases: [(&[&str], &str); 5] = [
        (
            &["--timeout", "0"],
            "error: --timeout needs a positive number of seconds",
        ),
        (&["--worker"], "error: --worker requires --shard i/N"),
        (
            &["--shards", "2", "--shard", "0/2"],
            "error: --shards (coordinator mode) conflicts with --shard/--worker",
        ),
        (
            &["--shards", "2", "--worker", "--shard", "0/2"],
            "error: --shards (coordinator mode) conflicts with --shard/--worker",
        ),
        (
            &["--shards", "2", "--no-cache"],
            "error: --shards needs the cache to collect worker results; drop --no-cache",
        ),
    ];
    for (i, (flags, error)) in cases.iter().enumerate() {
        let dir = root.join(format!("case{i}"));
        let mut args = flags.to_vec();
        args.extend(["--results", dir.to_str().unwrap()]);
        let out = demo(&args, &[]);
        let stderr = String::from_utf8_lossy(&out.stderr);
        assert_eq!(out.status.code(), Some(2), "{flags:?}:\n{stderr}");
        assert!(stderr.contains(error), "{flags:?}:\n{stderr}");
        assert!(
            !dir.join(CACHE_FILE).exists(),
            "{flags:?} wrote a cache before rejecting its flags"
        );
    }
    let _ = std::fs::remove_dir_all(&root);
}
