//! The checkpoint as an append-only frame log.
//!
//! A durable sweep appends one `DSTLCKPT` frame per cadence point holding
//! only the trials completed since the last one, so its file grows
//! linearly in the trial count. These tests pin what that must not cost:
//! a multi-frame log decodes to exactly the one-frame checkpoint of the
//! same set; a log torn anywhere inside its last frame (a kill in the
//! middle of an append) resumes to bit-identical results and is left
//! strictly decodable; frames that disagree are typed errors, not a
//! silent pick; and the bytes on disk stay within a fixed per-frame
//! overhead of the one-frame encode.

use distill::prelude::*;
use distill_harness::checkpoint::encode_sim_result;
use distill_harness::{
    fingerprint_of, run_sweep, run_worker, worker_checkpoint_path, Checkpoint, CheckpointError,
    CheckpointLog, ClockFn, MergeError, SupervisorPolicy, SweepConfig, TrialSpec, WorkerConfig,
    Writer,
};
use std::path::{Path, PathBuf};
use std::sync::Arc;
use std::time::Duration;

/// The paper's standard configuration shrunk for test speed: binary world,
/// DISTILL cohort, uniform-bad adversary.
struct DistillSpec {
    base_seed: u64,
}

const N: u32 = 12;
const HONEST: u32 = 10;
const M: u32 = 24;
const GOODS: u32 = 3;

impl TrialSpec for DistillSpec {
    fn run_trial(&self, trial: u64) -> SimResult {
        let world = World::binary(M, GOODS, self.base_seed ^ 0x106).expect("valid world");
        let alpha = f64::from(HONEST) / f64::from(N);
        let params = DistillParams::new(N, M, alpha, world.beta()).expect("valid params");
        let config =
            SimConfig::new(N, HONEST, self.seed(trial)).with_stop(StopRule::all_satisfied(50_000));
        Engine::new(
            config,
            &world,
            Box::new(Distill::new(params)),
            Box::new(UniformBad::new()),
        )
        .expect("valid engine")
        .run()
        .expect("engine run")
    }

    fn seed(&self, trial: u64) -> u64 {
        self.base_seed.wrapping_add(trial)
    }

    fn describe(&self) -> String {
        format!(
            "checkpoint-log n={N} honest={HONEST} m={M} goods={GOODS} seed={}",
            self.base_seed
        )
    }
}

fn spec() -> Arc<DistillSpec> {
    Arc::new(DistillSpec { base_seed: 0x1065 })
}

/// A fresh scratch directory for one test.
fn scratch(name: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("distill-ckpt-log-{name}-{}", std::process::id()));
    std::fs::remove_dir_all(&dir).ok();
    std::fs::create_dir_all(&dir).expect("scratch dir");
    dir
}

fn quick_policy() -> SupervisorPolicy {
    SupervisorPolicy {
        max_retries: 1,
        backoff_base: Duration::from_millis(1),
        ..SupervisorPolicy::default()
    }
}

/// A checkpointing sweep config appending one frame per completed trial.
fn cadence_one(trials: u64, path: &Path, threads: usize) -> SweepConfig {
    let mut config = SweepConfig::new(trials);
    config.policy = quick_policy();
    config.threads = threads;
    config.checkpoint = Some(path.to_path_buf());
    config.checkpoint_every = 1;
    config
}

/// Byte-level digest of a result set: the bit-identity oracle.
fn digest(results: &[(u64, SimResult)]) -> Vec<u8> {
    let mut w = Writer::new();
    for (t, r) in results {
        w.put_u64(*t);
        encode_sim_result(&mut w, r);
    }
    w.into_bytes()
}

/// The uninterrupted in-memory reference sweep.
fn reference(trials: u64) -> Vec<(u64, SimResult)> {
    let mut config = SweepConfig::new(trials);
    config.policy = quick_policy();
    run_sweep(spec(), &config).expect("reference sweep").results
}

fn checkpoint_of(fingerprint: u64, total: u64, results: &[(u64, SimResult)]) -> Checkpoint {
    Checkpoint {
        fingerprint,
        total_trials: total,
        completed: results.to_vec(),
    }
}

/// Byte offset where the last frame of a well-formed log starts.
fn last_frame_start(bytes: &[u8]) -> usize {
    let mut at = 0;
    loop {
        let len_field: [u8; 8] = bytes[at + 12..at + 20].try_into().expect("length field");
        let end = at + 28 + usize::try_from(u64::from_le_bytes(len_field)).expect("fits");
        if end == bytes.len() {
            return at;
        }
        at = end;
    }
}

#[test]
fn multi_frame_log_decodes_like_the_one_frame_encode() {
    let dir = scratch("union");
    let path = dir.join("sweep.ckpt");
    let trials = 16;
    // Two threads: frames land in completion order, not trial order.
    let report = run_sweep(spec(), &cadence_one(trials, &path, 2)).expect("sweep");
    assert_eq!(report.checkpoints_written, trials);

    let log = Checkpoint::load(&path).expect("multi-frame log decodes");
    let one_frame = checkpoint_of(report.fingerprint, trials, &report.results);
    assert_eq!(log.encode(), one_frame.encode());
    assert_eq!(
        Checkpoint::decode(&one_frame.encode())
            .expect("one frame decodes")
            .encode(),
        log.encode()
    );

    // Hand-built frames, interleaved and with identical duplicates, union
    // to the same set.
    let results = &report.results;
    let frames: Vec<Vec<u8>> = [&[1usize, 5, 9][..], &[0, 2, 5], &[3, 4, 6, 7, 8, 9, 10]]
        .iter()
        .map(|picks| {
            let part: Vec<(u64, SimResult)> = picks.iter().map(|&i| results[i].clone()).collect();
            checkpoint_of(report.fingerprint, trials, &part).encode()
        })
        .collect();
    let union = Checkpoint::decode(&frames.concat()).expect("interleaved frames decode");
    assert_eq!(
        union.encode(),
        checkpoint_of(report.fingerprint, trials, &results[..11]).encode()
    );
    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn torn_last_frame_resumes_bit_identically_at_every_offset() {
    let dir = scratch("torn");
    let path = dir.join("sweep.ckpt");
    let trials = 8;
    let expected = digest(&reference(trials));

    // One thread and cadence 1: every frame holds exactly one trial.
    let full = run_sweep(spec(), &cadence_one(trials, &path, 1)).expect("sweep");
    assert_eq!(digest(&full.results), expected);
    let log = std::fs::read(&path).expect("log");
    let last = last_frame_start(&log);
    assert!(last > 0, "a cadence-1 sweep writes more than one frame");

    let mut resume = cadence_one(trials, &path, 1);
    resume.resume = true;
    for cut in last..log.len() {
        std::fs::write(&path, &log[..cut]).expect("write torn log");
        let resumed = run_sweep(spec(), &resume)
            .unwrap_or_else(|e| panic!("resume after a cut at byte {cut}: {e}"));
        assert_eq!(resumed.resumed, trials - 1, "cut at byte {cut}");
        assert_eq!(digest(&resumed.results), expected, "cut at byte {cut}");
        let reloaded = Checkpoint::load(&path)
            .unwrap_or_else(|e| panic!("log after resuming a cut at byte {cut}: {e}"));
        assert_eq!(digest(&reloaded.completed), expected, "cut at byte {cut}");
    }
    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn damage_that_is_not_a_torn_tail_stays_a_hard_error() {
    let dir = scratch("damage");
    let path = dir.join("sweep.ckpt");
    let trials = 6;
    run_sweep(spec(), &cadence_one(trials, &path, 1)).expect("sweep");
    let log = std::fs::read(&path).expect("log");
    let mut resume = cadence_one(trials, &path, 1);
    resume.resume = true;

    // A bit flip in a complete middle frame: bytes present but wrong.
    let mut flipped = log.clone();
    let mid = last_frame_start(&log) - 1;
    flipped[mid] ^= 0x10;
    std::fs::write(&path, &flipped).expect("write");
    let err = run_sweep(spec(), &resume).expect_err("bit rot must not be salvaged");
    assert!(
        err.to_string().contains("checksum"),
        "unexpected error: {err}"
    );

    // A torn *first* frame: never produced by the atomic first write.
    std::fs::write(&path, &log[..20]).expect("write");
    assert_eq!(
        CheckpointLog::resume(&path, 0, trials).map(|_| ()),
        Err(CheckpointError::TooShort { len: 20 })
    );

    // Another sweep's log is refused, torn tail or not.
    std::fs::write(&path, &log[..log.len() - 3]).expect("write");
    let fingerprint = fingerprint_of(spec().as_ref());
    assert!(matches!(
        CheckpointLog::resume(&path, fingerprint ^ 1, trials),
        Err(CheckpointError::ConfigMismatch { .. })
    ));
    assert!(matches!(
        CheckpointLog::resume(&path, fingerprint, trials + 1),
        Err(CheckpointError::TrialCountMismatch { .. })
    ));
    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn disagreeing_frames_are_typed_errors() {
    let results = reference(4);
    let frame = |fingerprint: u64, total: u64, part: &[(u64, SimResult)]| {
        checkpoint_of(fingerprint, total, part).encode()
    };
    let first = frame(7, 4, &results[..2]);
    let at = first.len();

    // Trial 1 again, with different bytes.
    let mut other = results[1].clone();
    other.1.rounds += 1;
    let conflicting = [first.clone(), frame(7, 4, &[other])].concat();
    let expect = CheckpointError::InconsistentFrames {
        at,
        cause: MergeError::Conflict { trial: 1 },
    };
    assert_eq!(Checkpoint::decode(&conflicting), Err(expect.clone()));
    assert_eq!(Checkpoint::decode_salvage(&conflicting), Err(expect));

    // The identical duplicate is fine.
    let duplicate = [first.clone(), frame(7, 4, &results[1..3])].concat();
    assert_eq!(
        Checkpoint::decode(&duplicate)
            .expect("identical duplicate")
            .encode(),
        frame(7, 4, &results[..3])
    );

    let mixed_fingerprints = [first.clone(), frame(8, 4, &results[2..])].concat();
    assert_eq!(
        Checkpoint::decode(&mixed_fingerprints),
        Err(CheckpointError::InconsistentFrames {
            at,
            cause: MergeError::ConfigMismatch { first: 7, other: 8 },
        })
    );

    let mixed_counts = [first, frame(7, 5, &results[2..])].concat();
    assert_eq!(
        Checkpoint::decode(&mixed_counts),
        Err(CheckpointError::InconsistentFrames {
            at,
            cause: MergeError::TrialCountMismatch { first: 4, other: 5 },
        })
    );
}

#[test]
fn log_grows_linearly_in_trials() {
    let dir = scratch("linear");
    let path = dir.join("sweep.ckpt");
    let trials = 64;
    let report = run_sweep(spec(), &cadence_one(trials, &path, 2)).expect("sweep");
    assert_eq!(report.checkpoints_written, trials);
    let on_disk = std::fs::metadata(&path).expect("log").len();
    let one_frame = checkpoint_of(report.fingerprint, trials, &report.results)
        .encode()
        .len() as u64;
    // Each extra frame costs a 28-byte header plus fingerprint, trial
    // count and entry count (24 bytes): 52 < 64 bytes per trial.
    assert!(
        on_disk <= one_frame + trials * 64,
        "log is {on_disk} bytes, one frame is {one_frame}"
    );
    assert_eq!(on_disk, one_frame + (trials - 1) * 52);
    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn worker_resume_cuts_a_torn_tail_and_keeps_the_rest() {
    let dir = scratch("worker");
    let queue = dir.join("sweep.queue");
    let trials = 8;
    let clock: ClockFn = Arc::new(|| 0);
    let mut config = WorkerConfig::new(queue.clone(), 0, trials);
    config.checkpoint_every = 1;
    config.policy = quick_policy();
    config.clock = clock;
    config.poll = Duration::from_millis(1);
    run_worker(spec(), &config).expect("first worker run");

    let path = worker_checkpoint_path(&queue, 0);
    let log = std::fs::read(&path).expect("worker log");
    std::fs::write(&path, &log[..log.len() - 5]).expect("tear the last frame");
    std::fs::remove_file(&queue).expect("drop the queue so the work is redone");

    let report = run_worker(spec(), &config).expect("resumed worker");
    assert!(!report.checkpoint_rebuilt, "a torn tail is not corruption");
    assert_eq!(report.trials_skipped, trials - 1);
    assert_eq!(report.trials_run, 1);
    let merged = Checkpoint::load(&path).expect("strictly decodable after resume");
    assert_eq!(digest(&merged.completed), digest(&reference(trials)));
    std::fs::remove_dir_all(&dir).ok();
}
