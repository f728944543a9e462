//! `distill-trace` — the benchmark's outside-in layer tracer.
//!
//! Each mode mirrors one benchmark workload's CLI command through the
//! library's public layer functions (`World::binary`, `Engine::new` /
//! `step` / `run_mut`, `run_sweep`, `supervise_workers` +
//! `Checkpoint::load` + `merge_checkpoints`) and records a span around every
//! call. The program itself is not instrumented: all spans are taken here,
//! from outside. After the mirrored command ends, the persistence layers are
//! replayed on the command's own results (`Checkpoint::encode` +
//! `write_atomic` at each cadence point, `Checkpoint::load`,
//! `merge_checkpoints`, `LeaseQueue` updates) so every workload reports
//! every layer.
//!
//! Spans are kept in memory and written as one JSON document at exit; the
//! per-trial result digests are written in the CLI's `--out` format so the
//! benchmark can diff the traced path against the timed one.
//!
//! ```text
//! distill-trace run    --n 1000000 --seed 7 --work DIR --out T.json --digests D
//! distill-trace sweep  --n 1000 --trials 4096 --threads 2 --seed 7 [--checkpoint P] ...
//! distill-trace fabric --n 1000 --trials 256 --workers 2 --seed 7 --queue Q ...
//! ```

use distill_adversary::UniformBad;
use distill_analysis::{fmt_f, Summary};
use distill_core::{Distill, DistillParams};
use distill_harness::{
    checkpoint::encode_sim_result, fnv1a64, merge_checkpoints, run_sweep, run_worker,
    supervise_workers, worker_checkpoint_path, write_atomic, Checkpoint, ChunkState, FleetConfig,
    LeaseQueue, SupervisorPolicy, SweepConfig, TrialSpec, WorkerConfig, Writer,
};
use distill_sim::{Engine, FaultPlan, SimConfig, SimResult, StopRule, VotePolicy, World};
use std::collections::HashMap;
use std::fmt::Write as _;
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex};
use std::time::{Duration, Instant, SystemTime, UNIX_EPOCH};

/// The CLI's defaults for everything the benchmark does not set.
const MAX_ROUNDS: u64 = 1_000_000;
const CHECKPOINT_EVERY: u64 = 8;
const CHUNK: u64 = 16;
const MAX_CLAIMS: u32 = 2;
const POLL: Duration = Duration::from_millis(50);
const MAX_RESTARTS: u64 = 16;
/// Lease updates replayed per workload (claim + complete per chunk).
const LEASE_REPLAY_CHUNKS: u64 = 64;

// ---------------------------------------------------------------------------
// Spans.
// ---------------------------------------------------------------------------

struct Span {
    name: &'static str,
    parent: Option<usize>,
    start_ns: u64,
    end_ns: u64,
    count: u64,
    thread: u64,
}

/// In-memory span recorder. Timestamps are nanoseconds since the Unix
/// epoch (one wall-clock anchor per process plus a monotonic offset), so
/// spans from worker processes line up with the supervisor's.
struct Tracer {
    epoch: Instant,
    anchor_ns: u64,
    spans: Mutex<Vec<Span>>,
}

static NEXT_THREAD: AtomicU64 = AtomicU64::new(0);
thread_local! {
    static THREAD: u64 = NEXT_THREAD.fetch_add(1, Ordering::Relaxed);
}

impl Tracer {
    fn new() -> Self {
        let anchor_ns = SystemTime::now()
            .duration_since(UNIX_EPOCH)
            .map_or(0, |d| u64::try_from(d.as_nanos()).unwrap_or(u64::MAX));
        Tracer {
            epoch: Instant::now(),
            anchor_ns,
            spans: Mutex::new(Vec::new()),
        }
    }

    fn now(&self) -> u64 {
        self.anchor_ns + u64::try_from(self.epoch.elapsed().as_nanos()).unwrap_or(u64::MAX)
    }

    fn open(&self, name: &'static str, parent: Option<usize>) -> usize {
        let start_ns = self.now();
        let thread = THREAD.with(|t| *t);
        let mut spans = self
            .spans
            .lock()
            .expect("span lock poisoned by a panicking trial");
        spans.push(Span {
            name,
            parent,
            start_ns,
            end_ns: start_ns,
            count: 0,
            thread,
        });
        spans.len() - 1
    }

    fn close(&self, id: usize, count: u64) {
        let end_ns = self.now();
        let mut spans = self
            .spans
            .lock()
            .expect("span lock poisoned by a panicking trial");
        spans[id].end_ns = end_ns;
        spans[id].count = count;
    }

    fn span<T>(&self, name: &'static str, parent: usize, f: impl FnOnce() -> T) -> T {
        let id = self.open(name, Some(parent));
        let out = f();
        self.close(id, 0);
        out
    }

    /// `(end_ns, count)` of every span named `name` under `parent`.
    fn ends_of(&self, name: &str, parent: usize) -> Vec<(u64, u64)> {
        let spans = self
            .spans
            .lock()
            .expect("span lock poisoned by a panicking trial");
        spans
            .iter()
            .filter(|s| s.name == name && s.parent == Some(parent))
            .map(|s| (s.end_ns, s.count))
            .collect()
    }

    fn spans_json(&self) -> String {
        let spans = self
            .spans
            .lock()
            .expect("span lock poisoned by a panicking trial");
        let mut out = String::from("[");
        for (i, s) in spans.iter().enumerate() {
            if i > 0 {
                out.push(',');
            }
            let parent = s.parent.map_or(-1, |p| i64::try_from(p).unwrap_or(-1));
            let _ = write!(
                out,
                "\n[\"{}\",{parent},{},{},{},{}]",
                s.name, s.start_ns, s.end_ns, s.count, s.thread
            );
        }
        out.push_str("\n]");
        out
    }
}

// ---------------------------------------------------------------------------
// The benchmark's trial spec: the E1 shape, with the CLI's seed derivation.
// ---------------------------------------------------------------------------

/// `distill` vs `uniform-bad`, α = 0.9, one good object, m = n.
#[derive(Clone, Copy)]
struct Spec {
    n: u32,
    honest: u32,
    seed: u64,
    faults: FaultPlan,
}

impl Spec {
    fn new(n: u32, seed: u64) -> Self {
        // The CLI's `--honest` default: 90% of n, rounded.
        let honest = (f64::from(n) * 0.9).round() as u32;
        let faults = FaultPlan::none()
            .with_drop_rate(0.0)
            .with_view_lag(0)
            .with_crash_rate(0.0)
            .with_crash_window(64)
            .with_recovery_rate(0.0);
        Spec {
            n,
            honest,
            seed,
            faults,
        }
    }

    fn world(&self, trial: u64) -> World {
        World::binary(
            self.n,
            1,
            self.seed.wrapping_add(1_000_003).wrapping_add(trial),
        )
        .expect("valid world parameters")
    }

    fn trial_seed(&self, trial: u64) -> u64 {
        self.seed.wrapping_add(trial)
    }

    /// The CLI's canonical sweep description, so checkpoints and queues
    /// carry the same fingerprint as the CLI's.
    fn describe(&self) -> String {
        let error_rate = 0.0f64;
        let inject_panic: Option<u64> = None;
        format!(
            "sweep v1 n={} m={} honest={} goods=1 algorithm=distill adversary=uniform-bad seed={} \
             f=1 error-rate={error_rate} max-rounds={MAX_ROUNDS} faults={:?} \
             inject-panic={inject_panic:?}",
            self.n, self.n, self.honest, self.seed, self.faults,
        )
    }
}

/// One engine execution, stepped from outside with a span per call:
/// `Engine::new`, each `Engine::step` (count = probes that round), then
/// `run_mut` once the all-satisfied stop rule holds (finalize).
fn run_engine(tracer: &Tracer, parent: usize, spec: &Spec, world: &World, seed: u64) -> SimResult {
    let alpha = f64::from(spec.honest) / f64::from(spec.n);
    let params =
        DistillParams::new(spec.n, spec.n, alpha, world.beta()).expect("valid DISTILL parameters");
    let config = SimConfig::new(spec.n, spec.honest, seed)
        .with_policy(VotePolicy::multi_vote(1))
        .with_honest_error_rate(0.0)
        .with_faults(spec.faults)
        .with_stop(StopRule::all_satisfied(MAX_ROUNDS));
    let mut engine = tracer
        .span("sim.engine.new", parent, || {
            Engine::new(
                config,
                world,
                Box::new(Distill::new(params)),
                Box::new(UniformBad::new()),
            )
        })
        .expect("valid engine configuration");
    let honest = spec.honest as usize;
    let mut rounds = 0u64;
    // Without faults the stop rule is "every honest player satisfied, or
    // the round cap": step exactly while it does not hold.
    while engine.satisfied_count() < honest && rounds < MAX_ROUNDS {
        let probes = (honest - engine.satisfied_count()) as u64;
        let id = tracer.open("sim.engine.step", Some(parent));
        engine.step().expect("engine step on validated inputs");
        tracer.close(id, probes);
        rounds += 1;
    }
    let id = tracer.open("sim.engine.finalize", Some(parent));
    let result = engine.run_mut().expect("engine run on validated inputs");
    tracer.close(id, 0);
    result
}

/// A [`TrialSpec`] whose trials run through [`run_engine`], each under a
/// `trial` span (count = trial index) attached to `parent`.
struct TracedSpec {
    spec: Spec,
    tracer: Arc<Tracer>,
    parent: usize,
}

impl TrialSpec for TracedSpec {
    fn run_trial(&self, trial: u64) -> SimResult {
        let id = self.tracer.open("trial", Some(self.parent));
        let world = self
            .tracer
            .span("sim.world.build", id, || self.spec.world(trial));
        let result = run_engine(
            &self.tracer,
            id,
            &self.spec,
            &world,
            self.spec.trial_seed(trial),
        );
        self.tracer.close(id, trial);
        result
    }

    fn seed(&self, trial: u64) -> u64 {
        self.spec.trial_seed(trial)
    }

    fn describe(&self) -> String {
        self.spec.describe()
    }
}

// ---------------------------------------------------------------------------
// What every mode reports besides its spans.
// ---------------------------------------------------------------------------

#[derive(Default)]
struct Facts {
    entries: Vec<(&'static str, String)>,
}

impl Facts {
    fn num(&mut self, key: &'static str, v: impl std::fmt::Display) {
        self.entries.push((key, v.to_string()));
    }

    fn text(&mut self, key: &'static str, v: &str) {
        self.entries.push((key, format!("\"{v}\"")));
    }

    fn json(&self) -> String {
        let body: Vec<String> = self
            .entries
            .iter()
            .map(|(k, v)| format!("\"{k}\": {v}"))
            .collect();
        format!("{{{}}}", body.join(", "))
    }
}

/// Digests in the CLI's `--out` format, one encode span per result (count
/// = encoded bytes).
fn digests_of(tracer: &Tracer, parent: usize, results: &[(u64, SimResult)]) -> String {
    let mut digests = String::new();
    for (trial, result) in results {
        let id = tracer.open("sim.result.encode", Some(parent));
        let mut w = Writer::new();
        encode_sim_result(&mut w, result);
        let bytes = w.into_bytes();
        let digest = fnv1a64(&bytes);
        tracer.close(id, bytes.len() as u64);
        let _ = writeln!(digests, "trial {trial} {digest:016x}");
    }
    digests
}

/// The summary the CLI prints (`Summary::of` under a span) and the result
/// counters the per-layer counts come from.
fn summarize(
    tracer: &Tracer,
    parent: usize,
    results: &[(u64, SimResult)],
    trials: u64,
    facts: &mut Facts,
) {
    let costs: Vec<f64> = results.iter().map(|(_, r)| r.mean_probes()).collect();
    let rounds: Vec<f64> = results.iter().map(|(_, r)| r.rounds as f64).collect();
    let (cost, rds) = tracer.span("analysis.summary", parent, || {
        (Summary::of(&costs), Summary::of(&rounds))
    });
    let mean = |s: Option<Summary>| fmt_f(s.map_or(f64::NAN, |s| s.mean));
    facts.num("trials", trials);
    facts.num("completed", results.len());
    facts.num(
        "satisfied",
        results.iter().filter(|(_, r)| r.all_satisfied).count(),
    );
    facts.text("mean_cost", &mean(cost));
    facts.text("rounds_mean", &mean(rds));
    let sum = |f: &dyn Fn(&SimResult) -> u64| results.iter().map(|(_, r)| f(r)).sum::<u64>();
    facts.num("rounds_total", sum(&|r| r.rounds));
    facts.num("probes_total", sum(&|r| r.total_probes()));
    facts.num(
        "advice_total",
        sum(&|r| r.players.iter().map(|p| p.advice_probes).sum()),
    );
    facts.num("posts_total", sum(&|r| r.posts_total as u64));
}

// ---------------------------------------------------------------------------
// Persistence replays on the command's own results.
// ---------------------------------------------------------------------------

/// Replays the checkpoint writes a durable sweep makes: after every
/// `CHECKPOINT_EVERY` completions in `order`, and once more for a
/// remainder, encode + `write_atomic` a checkpoint of everything completed
/// so far. Returns (writes, bytes).
fn replay_writes(
    tracer: &Tracer,
    parent: usize,
    path: &Path,
    fingerprint: u64,
    trials: u64,
    results: &HashMap<u64, &SimResult>,
    order: &[u64],
) -> (u64, u64) {
    let every = CHECKPOINT_EVERY as usize;
    let mut ends: Vec<usize> = (every..=order.len()).step_by(every).collect();
    // A final write for a remainder short of the cadence.
    if !order.is_empty() && ends.last() != Some(&order.len()) {
        ends.push(order.len());
    }
    let (mut writes, mut bytes) = (0u64, 0u64);
    for end in ends {
        let mut completed: Vec<(u64, SimResult)> = order[..end]
            .iter()
            .map(|t| (*t, results[t].clone()))
            .collect();
        completed.sort_by_key(|(t, _)| *t);
        let ck = Checkpoint {
            fingerprint,
            total_trials: trials,
            completed,
        };
        let id = tracer.open("replay.checkpoint.write", Some(parent));
        let encoded = ck.encode();
        write_atomic(path, &encoded).expect("replay checkpoint write");
        tracer.close(id, encoded.len() as u64);
        writes += 1;
        bytes += encoded.len() as u64;
    }
    (writes, bytes)
}

/// `Checkpoint::load` of `path` (count = file bytes).
fn traced_load(tracer: &Tracer, name: &'static str, parent: usize, path: &Path) -> Checkpoint {
    let id = tracer.open(name, Some(parent));
    let ck = Checkpoint::load(path).expect("checkpoint written by this run loads");
    let size = std::fs::metadata(path).map_or(0, |m| m.len());
    tracer.close(id, size);
    ck
}

/// `merge_checkpoints` over `parts` (count = their encoded bytes).
fn traced_merge(
    tracer: &Tracer,
    name: &'static str,
    parent: usize,
    parts: &[Checkpoint],
    bytes: u64,
) -> Checkpoint {
    let id = tracer.open(name, Some(parent));
    let merged = merge_checkpoints(parts).expect("worker checkpoints merge");
    tracer.close(id, bytes);
    merged
}

/// Lease-queue updates as the fabric makes them (load, mutate,
/// `write_atomic`), on a queue of this sweep's geometry: claim and complete
/// for each of the first `LEASE_REPLAY_CHUNKS` chunks.
fn replay_lease(tracer: &Tracer, parent: usize, path: &Path, fingerprint: u64, trials: u64) {
    LeaseQueue::new(fingerprint, trials, CHUNK, MAX_CLAIMS)
        .expect("valid lease geometry")
        .write_atomic(path)
        .expect("replay queue write");
    let chunks = trials.div_ceil(CHUNK).min(LEASE_REPLAY_CHUNKS);
    for _ in 0..chunks {
        let id = tracer.open("replay.lease.update", Some(parent));
        let mut q = LeaseQueue::load(path).expect("replay queue loads");
        let chunk = q.claim(0, 0, 30_000).expect("a chunk is available");
        q.write_atomic(path).expect("replay queue write");
        tracer.close(id, 0);
        let id = tracer.open("replay.lease.update", Some(parent));
        let mut q = LeaseQueue::load(path).expect("replay queue loads");
        q.complete(chunk, 0);
        q.write_atomic(path).expect("replay queue write");
        tracer.close(id, 0);
    }
}

/// The replays for the modes whose command keeps its results in one place:
/// checkpoint writes (at the cadence points of `cadence_order` when the
/// command checkpoints, else one checkpoint of every result), a load of the
/// final checkpoint, a merge of it, and the lease updates.
#[allow(clippy::too_many_arguments)]
fn replay_single(
    tracer: &Tracer,
    parent: usize,
    work: &Path,
    spec: &Spec,
    trials: u64,
    results: &[(u64, SimResult)],
    cadence_order: Option<Vec<u64>>,
    final_checkpoint: Option<&Path>,
    facts: &mut Facts,
) {
    let fingerprint = fnv1a64(spec.describe().as_bytes());
    let replay_path = work.join("replay.ckpt");
    let (writes, bytes) = match cadence_order {
        Some(order) => {
            let by_trial: HashMap<u64, &SimResult> = results.iter().map(|(t, r)| (*t, r)).collect();
            replay_writes(
                tracer,
                parent,
                &replay_path,
                fingerprint,
                trials,
                &by_trial,
                &order,
            )
        }
        None => {
            let id = tracer.open("replay.checkpoint.write", Some(parent));
            let encoded = Checkpoint {
                fingerprint,
                total_trials: trials,
                completed: results.to_vec(),
            }
            .encode();
            write_atomic(&replay_path, &encoded).expect("replay checkpoint write");
            tracer.close(id, encoded.len() as u64);
            // The command itself wrote no checkpoint.
            (0, 0)
        }
    };
    facts.num("checkpoint_writes", writes);
    facts.num("checkpoint_bytes", bytes);
    let load_from = final_checkpoint.unwrap_or(&replay_path);
    let size = std::fs::metadata(load_from).map_or(0, |m| m.len());
    let loaded = traced_load(tracer, "replay.checkpoint.load", parent, load_from);
    traced_merge(tracer, "replay.merge", parent, &[loaded], size);
    replay_lease(
        tracer,
        parent,
        &work.join("replay.queue"),
        fingerprint,
        trials,
    );
    facts.num("lease_transitions", 0);
}

// ---------------------------------------------------------------------------
// Modes.
// ---------------------------------------------------------------------------

struct Flags(HashMap<String, String>);

impl Flags {
    fn parse(args: &[String]) -> Self {
        let mut map = HashMap::new();
        let mut it = args.iter();
        while let Some(flag) = it.next() {
            let key = flag
                .strip_prefix("--")
                .unwrap_or_else(|| usage(&format!("unexpected argument {flag:?}")));
            let value = it
                .next()
                .unwrap_or_else(|| usage(&format!("--{key} needs a value")));
            map.insert(key.to_string(), value.clone());
        }
        Flags(map)
    }

    fn str(&self, key: &str) -> &str {
        self.0
            .get(key)
            .map_or_else(|| usage(&format!("missing --{key}")), String::as_str)
    }

    fn num<T: std::str::FromStr>(&self, key: &str) -> T {
        self.str(key)
            .parse()
            .unwrap_or_else(|_| usage(&format!("--{key} is not a number")))
    }

    fn path(&self, key: &str) -> PathBuf {
        PathBuf::from(self.str(key))
    }
}

fn usage(msg: &str) -> ! {
    eprintln!("distill-trace: {msg}");
    eprintln!(
        "usage: distill-trace run|sweep|fabric|worker --n N --seed S --out TRACE.json \
         [--digests FILE] [--work DIR] [--trials T] [--threads K] [--checkpoint P] \
         [--workers W] [--queue Q] [--worker-id I]"
    );
    std::process::exit(2);
}

fn write_output(
    tracer: &Tracer,
    flags: &Flags,
    mode: &str,
    facts: &Facts,
    digests: &str,
    extra: &str,
) {
    if let Some(path) = flags.0.get("digests") {
        std::fs::write(path, digests).expect("write digests");
    }
    let doc = format!(
        "{{\"mode\": \"{mode}\", \"pid\": {}, \"facts\": {}, {extra}\"spans\": {}}}\n",
        std::process::id(),
        facts.json(),
        tracer.spans_json()
    );
    std::fs::write(flags.path("out"), doc).expect("write trace");
}

/// `distill run --n N --trials 1`: worlds first, then the one trial.
fn mode_run(flags: &Flags) {
    let spec = Spec::new(flags.num("n"), flags.num("seed"));
    let tracer = Tracer::new();
    let mut facts = Facts::default();
    let root = tracer.open("command", None);
    let world = tracer.span("sim.world.build", root, || spec.world(0));
    let trial = tracer.open("trial", Some(root));
    let result = run_engine(&tracer, trial, &spec, &world, spec.trial_seed(0));
    tracer.close(trial, 0);
    let results = vec![(0u64, result)];
    summarize(&tracer, root, &results, 1, &mut facts);
    tracer.close(root, 0);
    // `run` prints no digests: they are taken outside the command's span.
    let verify = tracer.open("verify", None);
    let digests = digests_of(&tracer, verify, &results);
    tracer.close(verify, 0);
    let parallelism = std::thread::available_parallelism().map_or(1, |p| p.get());
    facts.num("parallelism", parallelism);
    let replay = tracer.open("replay", None);
    let work = flags.path("work");
    replay_single(
        &tracer, replay, &work, &spec, 1, &results, None, None, &mut facts,
    );
    tracer.close(replay, 0);
    write_output(&tracer, flags, "run", &facts, &digests, "");
}

/// `distill sweep --n N --trials T --threads K [--checkpoint P]`.
fn mode_sweep(flags: &Flags) {
    let spec = Spec::new(flags.num("n"), flags.num("seed"));
    let trials: u64 = flags.num("trials");
    let threads: usize = flags.num("threads");
    let checkpoint = flags.0.get("checkpoint").map(PathBuf::from);
    let tracer = Arc::new(Tracer::new());
    let mut facts = Facts::default();
    let root = tracer.open("command", None);
    let sweep = tracer.open("harness.run_sweep", Some(root));
    let traced = Arc::new(TracedSpec {
        spec,
        tracer: Arc::clone(&tracer),
        parent: sweep,
    });
    let config = SweepConfig {
        trials,
        threads,
        checkpoint: checkpoint.clone(),
        checkpoint_every: CHECKPOINT_EVERY,
        resume: false,
        quarantine: checkpoint.as_ref().map(|p| {
            let mut q = p.as_os_str().to_owned();
            q.push(".quarantine.jsonl");
            PathBuf::from(q)
        }),
        policy: SupervisorPolicy::default(),
        stop_after: None,
        retain_results: true,
    };
    let report = run_sweep(traced, &config).expect("sweep runs");
    tracer.close(sweep, report.checkpoints_written);
    let digests = digests_of(&tracer, root, &report.results);
    summarize(&tracer, root, &report.results, trials, &mut facts);
    tracer.close(root, 0);
    facts.num("parallelism", threads);
    facts.num("quarantined", report.quarantined.len());
    facts.num("command_checkpoint_writes", report.checkpoints_written);
    // Completion order, for replaying the writes at the cadence points.
    let cadence = checkpoint.as_ref().map(|_| {
        let mut ends = tracer.ends_of("trial", sweep);
        ends.sort_unstable();
        ends.into_iter()
            .map(|(_, trial)| trial)
            .collect::<Vec<u64>>()
    });
    let replay = tracer.open("replay", None);
    let work = flags.path("work");
    replay_single(
        &tracer,
        replay,
        &work,
        &spec,
        trials,
        &report.results,
        cadence,
        checkpoint.as_deref(),
        &mut facts,
    );
    tracer.close(replay, 0);
    write_output(&tracer, flags, "sweep", &facts, &digests, "");
}

/// `distill sweep-supervise --workers W --queue Q`: the same supervisor
/// loop, worker processes running [`mode_worker`], then the loads and the
/// merge the CLI does.
fn mode_fabric(flags: &Flags) {
    let spec = Spec::new(flags.num("n"), flags.num("seed"));
    let trials: u64 = flags.num("trials");
    let workers: u64 = flags.num("workers");
    let queue = flags.path("queue");
    let exe = std::env::current_exe().expect("locate the tracer binary");
    let tracer = Tracer::new();
    let mut facts = Facts::default();
    let root = tracer.open("command", None);
    let sup = tracer.open("harness.supervise_workers", Some(root));
    let trace_of = |slot: u64| {
        let mut s = queue.as_os_str().to_owned();
        s.push(format!(".worker{slot}.trace.json"));
        PathBuf::from(s)
    };
    let fleet = FleetConfig {
        workers,
        max_restarts: MAX_RESTARTS,
        poll: POLL,
    };
    let fleet_report = supervise_workers(
        &fleet,
        |slot| {
            std::process::Command::new(&exe)
                .arg("worker")
                .args(["--n", &spec.n.to_string()])
                .args(["--seed", &spec.seed.to_string()])
                .args(["--trials", &trials.to_string()])
                .arg("--queue")
                .arg(&queue)
                .args(["--worker-id", &slot.to_string()])
                .arg("--out")
                .arg(trace_of(slot))
                .stdout(std::process::Stdio::null())
                .spawn()
        },
        || {
            std::fs::read(&queue)
                .ok()
                .and_then(|bytes| LeaseQueue::decode(&bytes).ok())
                .is_some_and(|q| q.all_done())
        },
    )
    .expect("workers spawn");
    tracer.close(sup, 0);
    let mut parts = Vec::new();
    let mut bytes = 0u64;
    for id in 0..workers {
        let path = worker_checkpoint_path(&queue, id);
        if path.exists() {
            bytes += std::fs::metadata(&path).map_or(0, |m| m.len());
            parts.push(traced_load(&tracer, "harness.checkpoint.load", root, &path));
        }
    }
    let merged = traced_merge(&tracer, "harness.merge", root, &parts, bytes);
    let digests = digests_of(&tracer, root, &merged.completed);
    summarize(&tracer, root, &merged.completed, trials, &mut facts);
    tracer.close(root, 0);
    facts.num("parallelism", workers);
    facts.num("restarts", fleet_report.restarts);
    facts.text("queue_done", &fleet_report.done.to_string());

    // Each worker runs its chunks in claim order, trials ascending within
    // a chunk; claims take the lowest available chunk, so a worker's
    // completion order is its trials ascending.
    let replay = tracer.open("replay", None);
    let fingerprint = fnv1a64(spec.describe().as_bytes());
    let work = flags.path("work");
    let replay_path = work.join("replay.ckpt");
    let (mut writes, mut written) = (0u64, 0u64);
    let mut shares = Vec::new();
    for part in &parts {
        let by_trial: HashMap<u64, &SimResult> =
            part.completed.iter().map(|(t, r)| (*t, r)).collect();
        let order: Vec<u64> = part.completed.iter().map(|(t, _)| *t).collect();
        shares.push(order.len().to_string());
        let (w, b) = replay_writes(
            &tracer,
            replay,
            &replay_path,
            fingerprint,
            trials,
            &by_trial,
            &order,
        );
        writes += w;
        written += b;
    }
    facts.num("checkpoint_writes", writes);
    facts.num("checkpoint_bytes", written);
    replay_lease(
        &tracer,
        replay,
        &work.join("replay.queue"),
        fingerprint,
        trials,
    );
    tracer.close(replay, 0);
    // Lease state transitions the run made, read from the drained queue:
    // one per claim (reclaims included) and one per chunk marked done.
    // Renewals and the polls of a worker waiting on the other's last chunk
    // also write the queue but leave no trace in it, so they are not
    // counted.
    let q = LeaseQueue::load(&queue).expect("the drained queue loads");
    let claims: u64 = q.entries().iter().map(|e| u64::from(e.claims)).sum();
    let done = q
        .entries()
        .iter()
        .filter(|e| matches!(e.state, ChunkState::Done))
        .count() as u64;
    facts.num("lease_transitions", claims + done);
    facts.num("worker_trials", format!("[{}]", shares.join(", ")));
    let traces: Vec<String> = (0..workers)
        .map(|slot| format!("\"{}\"", trace_of(slot).display()))
        .collect();
    let extra = format!("\"worker_traces\": [{}], ", traces.join(", "));
    write_output(&tracer, flags, "fabric", &facts, &digests, &extra);
}

/// One fabric worker: `run_worker` with the CLI's defaults, trials traced.
fn mode_worker(flags: &Flags) {
    let spec = Spec::new(flags.num("n"), flags.num("seed"));
    let trials: u64 = flags.num("trials");
    let queue = flags.path("queue");
    let worker_id: u64 = flags.num("worker-id");
    let tracer = Arc::new(Tracer::new());
    let root = tracer.open("worker", None);
    let traced = Arc::new(TracedSpec {
        spec,
        tracer: Arc::clone(&tracer),
        parent: root,
    });
    let mut config = WorkerConfig::new(queue.clone(), worker_id, trials);
    config.chunk_size = CHUNK;
    config.max_claims = MAX_CLAIMS;
    config.checkpoint_every = CHECKPOINT_EVERY;
    config.poll = POLL;
    let mut q = queue.as_os_str().to_owned();
    q.push(format!(".worker{worker_id}.quarantine.jsonl"));
    config.quarantine = Some(PathBuf::from(q));
    let report = run_worker(traced, &config).expect("worker runs");
    tracer.close(root, report.trials_run);
    let mut facts = Facts::default();
    facts.num("worker_id", worker_id);
    facts.num("trials_run", report.trials_run);
    write_output(&tracer, flags, "worker", &facts, "", "");
}

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let Some((mode, rest)) = args.split_first() else {
        usage("missing mode")
    };
    let flags = Flags::parse(rest);
    match mode.as_str() {
        "run" => mode_run(&flags),
        "sweep" => mode_sweep(&flags),
        "fabric" => mode_fabric(&flags),
        "worker" => mode_worker(&flags),
        other => usage(&format!("unknown mode {other:?}")),
    }
}
