//! Process-level tests of the multi-process sweep fabric: real `distill-cli`
//! binaries sharing one on-disk lease queue across OS process boundaries.
//!
//! These complement the in-crate worker tests (which use an injected clock)
//! and the CI `cluster-crash` job (which uses literal `kill -9`): here,
//! worker loss is injected deterministically with `--fail-after-trials`, a
//! hook that makes the worker process exit mid-lease exactly as a SIGKILL
//! would — no checkpoint of the in-flight chunk, a dangling lease left in
//! the queue.

use std::path::{Path, PathBuf};
use std::process::Command;

fn bin() -> &'static str {
    env!("CARGO_BIN_EXE_distill-cli")
}

fn tmp_dir(name: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!(
        "distill-fabric-process-{name}-{}",
        std::process::id()
    ));
    std::fs::remove_dir_all(&dir).ok();
    std::fs::create_dir_all(&dir).unwrap();
    dir
}

const SPEC: &[&str] = &[
    "--n", "16", "--honest", "14", "--trials", "10", "--seed", "21",
];

fn run_ok(args: &[&str]) -> String {
    let out = Command::new(bin()).args(args).output().unwrap();
    assert!(
        out.status.success(),
        "{args:?} failed ({}):\n{}{}",
        out.status,
        String::from_utf8_lossy(&out.stdout),
        String::from_utf8_lossy(&out.stderr)
    );
    String::from_utf8_lossy(&out.stdout).into_owned()
}

fn reference_digests(dir: &Path) -> String {
    let out = dir.join("reference.digests");
    let mut args = vec!["sweep"];
    args.extend_from_slice(SPEC);
    let out_s = out.display().to_string();
    args.extend_from_slice(&["--out", &out_s]);
    run_ok(&args);
    std::fs::read_to_string(&out).unwrap()
}

/// The headline robustness property, across real process boundaries: every
/// worker of the first fleet dies mid-lease, the supervisor's restart
/// budget is already spent (so it exits incomplete, like a killed
/// supervisor would), and a second supervisor invocation resumes from the
/// files alone to a merged result set bit-identical to the uninterrupted
/// single-process reference.
#[test]
fn killed_workers_and_supervisor_restart_converge_bit_identically() {
    let dir = tmp_dir("crash");
    let reference = reference_digests(&dir);
    let queue = dir.join("sweep.queue");
    let queue_s = queue.display().to_string();
    let digests = dir.join("cluster.digests");
    let digests_s = digests.display().to_string();

    let supervise = |extra: &[&str]| -> std::process::Output {
        let mut args = vec!["sweep-supervise", "--queue", &queue_s];
        args.extend_from_slice(SPEC);
        args.extend_from_slice(&[
            "--workers",
            "2",
            "--chunk",
            "2",
            "--lease-ttl",
            "1",
            "--poll-ms",
            "10",
        ]);
        args.extend_from_slice(extra);
        Command::new(bin()).args(&args).output().unwrap()
    };

    // Round 1: every worker dies after 3 trials (mid-lease, no final
    // checkpoint for the in-flight chunk), and the zero restart budget
    // forces the supervisor to give up — the fabric is now a pile of
    // files: a queue with dangling leases and partial worker checkpoints.
    let round1 = supervise(&["--fail-after-trials", "3", "--max-restarts", "0"]);
    assert_eq!(
        round1.status.code(),
        Some(3),
        "an incomplete fabric must exit 3:\n{}{}",
        String::from_utf8_lossy(&round1.stdout),
        String::from_utf8_lossy(&round1.stderr)
    );

    // Round 2: a fresh supervisor (the "restarted" one) resumes from the
    // files. Workers wait out the ~1s dangling leases, reclaim, and drain
    // the queue.
    let round2 = supervise(&["--out", &digests_s]);
    assert!(
        round2.status.success(),
        "the resumed fabric must complete:\n{}{}",
        String::from_utf8_lossy(&round2.stdout),
        String::from_utf8_lossy(&round2.stderr)
    );
    let stdout = String::from_utf8_lossy(&round2.stdout);
    assert!(stdout.contains("10/10"), "all trials merged: {stdout}");

    assert_eq!(
        std::fs::read_to_string(&digests).unwrap(),
        reference,
        "kill + resume must reproduce the single-process digests bit-for-bit"
    );
    std::fs::remove_dir_all(&dir).ok();
}

/// A healthy fleet (no injected failures) completes in one supervise call
/// and also matches the reference digests.
#[test]
fn healthy_fleet_matches_reference() {
    let dir = tmp_dir("healthy");
    let reference = reference_digests(&dir);
    let queue = dir.join("sweep.queue");
    let queue_s = queue.display().to_string();
    let digests = dir.join("cluster.digests");
    let digests_s = digests.display().to_string();
    let mut args = vec!["sweep-supervise", "--queue", &queue_s];
    args.extend_from_slice(SPEC);
    args.extend_from_slice(&[
        "--workers",
        "3",
        "--chunk",
        "2",
        "--poll-ms",
        "10",
        "--out",
        &digests_s,
    ]);
    let out = run_ok(&args);
    assert!(out.contains("10/10"), "{out}");
    assert_eq!(std::fs::read_to_string(&digests).unwrap(), reference);
    std::fs::remove_dir_all(&dir).ok();
}

/// A lone `sweep-worker` process on a fresh queue drains it end to end —
/// the fabric degrades gracefully to single-process operation.
#[test]
fn single_worker_process_drains_the_queue() {
    let dir = tmp_dir("solo");
    let queue = dir.join("sweep.queue");
    let queue_s = queue.display().to_string();
    let mut args = vec!["sweep-worker", "--queue", &queue_s];
    args.extend_from_slice(SPEC);
    args.extend_from_slice(&["--chunk", "4"]);
    let out = run_ok(&args);
    assert!(out.contains("queue fully done"), "{out}");
    assert!(out.contains("true"), "{out}");
    std::fs::remove_dir_all(&dir).ok();
}

/// A supervisor pointed at the files of another sweep refuses them instead
/// of reporting that sweep's results as its own: a queue another seed
/// drained would otherwise read as done at once, and worker checkpoints
/// left without their queue would otherwise be merged.
#[test]
fn supervisor_refuses_another_sweeps_queue_and_checkpoints() {
    let dir = tmp_dir("stale");
    let queue = dir.join("sweep.queue");
    let queue_s = queue.display().to_string();
    let digests = dir.join("cluster.digests");
    let digests_s = digests.display().to_string();
    let supervise = |seed: &str| {
        let args = [
            "sweep-supervise",
            "--queue",
            &queue_s,
            "--n",
            "16",
            "--honest",
            "14",
            "--trials",
            "8",
            "--seed",
            seed,
            "--workers",
            "2",
            "--poll-ms",
            "10",
            "--max-restarts",
            "0",
            "--out",
            &digests_s,
        ];
        Command::new(bin()).args(args).output().unwrap()
    };
    let first = supervise("1");
    assert!(first.status.success(), "{first:?}");
    std::fs::remove_file(&digests).unwrap();

    let stale_queue = supervise("2");
    assert_eq!(stale_queue.status.code(), Some(1), "{stale_queue:?}");
    assert!(
        String::from_utf8_lossy(&stale_queue.stderr).contains("different sweep"),
        "{stale_queue:?}"
    );
    assert!(!digests.exists(), "a refused sweep must write no digests");

    // Without the queue, the workers refuse their own stale checkpoints and
    // the merge must refuse them too.
    std::fs::remove_file(&queue).unwrap();
    let stale_checkpoints = supervise("2");
    assert_eq!(
        stale_checkpoints.status.code(),
        Some(1),
        "{stale_checkpoints:?}"
    );
    assert!(!digests.exists(), "a refused merge must write no digests");
    std::fs::remove_dir_all(&dir).ok();
}

/// `sweep-supervise` hands every spec flag on to its workers as given: with
/// a non-default value for each, the merged digests equal a single-process
/// `sweep` of the same spec.
#[test]
fn supervisor_forwards_every_spec_flag() {
    let dir = tmp_dir("forward");
    let spec = [
        "--n",
        "24",
        "--m",
        "30",
        "--honest",
        "20",
        "--goods",
        "2",
        "--trials",
        "6",
        "--seed",
        "5",
        "--f",
        "2",
        "--error-rate",
        "0.05",
        "--max-rounds",
        "300",
        "--drop-rate",
        "0.1",
        "--view-lag",
        "1",
        "--crash-rate",
        "0.25",
        "--crash-window",
        "6",
        "--recovery-rate",
        "0.2",
        "--algorithm",
        "balance",
        "--adversary",
        "collusive",
    ];
    let reference = dir.join("reference.digests");
    let reference_s = reference.display().to_string();
    run_ok(&[&["sweep"], &spec[..], &["--out", &reference_s]].concat());

    let queue_s = dir.join("sweep.queue").display().to_string();
    let digests = dir.join("cluster.digests");
    let digests_s = digests.display().to_string();
    let fabric = [
        "--queue",
        &queue_s,
        "--workers",
        "2",
        "--chunk",
        "2",
        "--poll-ms",
        "10",
        "--out",
        &digests_s,
    ];
    let out = run_ok(&[&["sweep-supervise"], &spec[..], &fabric[..]].concat());
    assert!(out.contains("6/6"), "{out}");
    assert_eq!(
        std::fs::read_to_string(&digests).unwrap(),
        std::fs::read_to_string(&reference).unwrap()
    );
    std::fs::remove_dir_all(&dir).ok();
}
