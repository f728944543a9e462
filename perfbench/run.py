#!/usr/bin/env python3
"""Repository benchmark for the `distill` CLI.

Run from the root of a checkout:

    python3 perfbench/run.py --workload sweep_n1k --seed 3 --seconds 25 --trace 0

builds the CLI (and, for `--trace 1`, the layer tracer in
`perfbench/tracer`) into `$CARGO_TARGET_DIR` (default `.bench_build`),
times the workload's command, checks its outputs against a reference and
prints one JSON object as the last line of standard output. `--trace 0`
reports the end-to-end metrics, `--trace 1` the per-layer metrics.

    python3 perfbench/run.py --steadiness 10 --workload all --seconds 25

repeats the benchmark on seeds 1..10 and prints, per metric, the median,
the quartiles and (q3 - q1) / median beside the bound in BENCHMARK.json;
`--sets 2` runs two such sets and also prints how far apart the sets'
medians are, read in the worse direction (largest / smallest - 1), and
flags each metric whose drift is beyond its bound. See perfbench/README.md
for the workloads and the metrics.
"""

import argparse
import json
import os
import shutil
import statistics
import subprocess
import sys
import time

sys.dont_write_bytecode = True  # leave no __pycache__ in the checkout
import perflib  # noqa: E402

THREADS = 2  # threads and fabric workers, fixed so runs compare
# setup_s launches and speed probes: each kind is repeated, spread over the
# run, until this many seconds are spent, within these counts.
SAMPLE_SECONDS = 2.0
SETUP_LAUNCHES = (15, 200)
PROBES = (10, 200)
# The speed probe's median time on the reference machine (see README.md,
# "Machine speed"). Times are reported as if measured at that speed.
PROBE_REFERENCE_S = 0.040
MIN_REPS = 3
RUN_SEEDS = 3  # run_n1m cycles through this many seeds per run


class Workload:
    def __init__(self, name, kind, n, trials):
        self.name, self.kind, self.n, self.trials = name, kind, n, trials

    def seed_of(self, seed, rep):
        """The program seed for timed repetition `rep` (the warm-up is
        rep 0). One n = 10^6 trial's cost depends on its seed, so `run`
        cycles through a few seeds and reports the median; the sweeps
        average over hundreds of trial seeds already."""
        if self.kind == "run":
            return RUN_SEEDS * seed + rep % RUN_SEEDS
        return seed

    def argv(self, cli, seed, workdir, setup=False):
        trials = 1 if setup else self.trials
        spec = ["--n", str(self.n), "--trials", str(trials), "--seed", str(seed)]
        if setup:
            spec += ["--max-rounds", "0"]
        out = ["--out", os.path.join(workdir, "out.digests")]
        if self.kind == "run":
            return [cli, "run"] + spec
        if self.kind == "fabric":
            queue = ["--queue", os.path.join(workdir, "queue")]
            return [cli, "sweep-supervise", "--workers", str(THREADS)] + spec + queue + out
        sweep = [cli, "sweep", "--threads", str(THREADS)] + spec + out
        if self.kind == "ckpt":
            sweep += ["--checkpoint", os.path.join(workdir, "sweep.ckpt")]
        return sweep


WORKLOADS = {
    w.name: w
    for w in [
        Workload("run_n1m", "run", 1_000_000, 1),
        Workload("sweep_n1k", "sweep", 1000, 4096),
        Workload("ckpt_n1k", "ckpt", 1000, 256),
        Workload("fabric_n1k", "fabric", 1000, 256),
    ]
}


class BenchError(Exception):
    pass


# ---------------------------------------------------------------------------
# Processes and their accounting.
# ---------------------------------------------------------------------------


def written_bytes():
    """Bytes this process and its reaped descendants passed to write
    syscalls (Linux per-process I/O accounting)."""
    with open("/proc/self/io") as f:
        for line in f:
            if line.startswith("wchar:"):
                return int(line.split()[1])
    raise BenchError("/proc/self/io has no wchar line")


class Launch:
    """One timed launch: wall time, peak RSS of the largest process in the
    tree, bytes written by the tree, exit code and captured output."""

    def __init__(self, argv, workdir):
        os.makedirs(workdir, exist_ok=True)
        stdout_path = os.path.join(workdir, "stdout")
        stderr_path = os.path.join(workdir, "stderr")
        with open(stdout_path, "wb") as out, open(stderr_path, "wb") as err:
            before = written_bytes()
            start = time.perf_counter()
            proc = subprocess.Popen(argv, stdout=out, stderr=err)
            _, status, usage = os.wait4(proc.pid, 0)
            self.wall_s = time.perf_counter() - start
            self.written = written_bytes() - before
        proc.returncode = os.waitstatus_to_exitcode(status)
        self.code = proc.returncode
        self.peak_rss_mb = usage.ru_maxrss / 1024.0
        self.cpu_s = usage.ru_utime + usage.ru_stime
        with open(stdout_path) as f:
            self.stdout = f.read()
        with open(stderr_path) as f:
            self.stderr = f.read()
        self.workdir = workdir

    def digests(self):
        with open(os.path.join(self.workdir, "out.digests")) as f:
            return perflib.parse_digests(f.read())


def build(target):
    """Builds the CLI and the tracer; prints cargo's output to stderr if a
    build fails."""
    env = dict(os.environ, CARGO_TARGET_DIR=target)
    for argv in (
        ["cargo", "build", "--release", "--offline", "-p", "distill-cli"],
        ["cargo", "build", "--release", "--offline",
         "--manifest-path", os.path.join("perfbench", "tracer", "Cargo.toml")],
    ):
        done = subprocess.run(argv, env=env, capture_output=True, text=True)
        if done.returncode != 0:
            sys.stderr.write(done.stdout + done.stderr)
            raise BenchError(f"build failed: {' '.join(argv)}")


def context(workdir):
    fs = subprocess.run(["stat", "-f", "-c", "%T", workdir],
                        capture_output=True, text=True).stdout.strip() or "unknown"
    load = ",".join(f"{x:.2f}" for x in os.getloadavg())
    return f"nproc={os.cpu_count()} loadavg={load} fs={fs}"


# ---------------------------------------------------------------------------
# Output checks.
# ---------------------------------------------------------------------------


def summary_of(workload, launch):
    """The summary rows the command printed, checked for shape. Returns the
    fields that must match the reference."""
    if launch.code != 0:
        raise BenchError(f"exit code {launch.code}: {launch.stderr.strip()[:300]}")
    tables = perflib.parse_tables(launch.stdout)
    if len(tables) != 1:
        raise BenchError(f"expected one table, found {len(tables)}")
    rows = perflib.table_values(tables[0])
    t = workload.trials
    if workload.kind == "run":
        cost, rounds = rows["individual cost (probes)"][0], rows["rounds"][0]
        if rows["trials fully satisfied"][0] != "1/1":
            raise BenchError("the trial did not satisfy every honest player")
        # Each unsatisfied player probes once per round.
        if not 0 < float(cost) <= float(rounds):
            raise BenchError(f"individual cost {cost} outside (0, rounds={rounds}]")
        return {"completed": "1/1", "cost": cost}
    if workload.kind == "fabric":
        expect = {"completed (merged)": f"{t}/{t}", "queue fully done": "true",
                  "worker restarts": "0", "worker checkpoints merged": str(THREADS)}
    else:
        writes = t // 8 if workload.kind == "ckpt" else 0
        expect = {"completed": f"{t}/{t}", "quarantined": "0",
                  "trials fully satisfied": f"{t}/{t}",
                  "checkpoints written": str(writes)}
    for key, want in expect.items():
        if rows.get(key) != want:
            raise BenchError(f"{key!r} is {rows.get(key)!r}, expected {want!r}")
    return {"completed": f"{t}/{t}", "cost": rows["mean individual cost"]}


def failed_trials(workload, launch, reference):
    """Trials of one launch that count as failed: all of them when the
    command failed or its summary differs from the reference's, else those
    whose digest is missing or differs from the reference's."""
    try:
        summary = summary_of(workload, launch)
        if summary != reference["summary"]:
            raise BenchError(f"summary {summary} differs from reference {reference['summary']}")
        if workload.kind == "run":
            return 0
        return perflib.count_failed(launch.digests(), reference["digests"], workload.trials)
    except (BenchError, KeyError, ValueError, OSError) as e:
        print(f"check failed: {workload.name}: {e}", file=sys.stderr)
        return workload.trials


# ---------------------------------------------------------------------------
# The untraced benchmark.
# ---------------------------------------------------------------------------


class Runner:
    def __init__(self, workload, seed, target):
        self.w = workload
        self.seed = seed
        self.cli = os.path.join(target, "release", "distill-cli")
        self.tracer = os.path.join(target, "release", "distill-trace")
        self.probe = os.path.join(target, "release", "distill-probe")
        self.work = os.path.join(target, "perfbench-work", f"{workload.name}-{os.getpid()}")
        shutil.rmtree(self.work, ignore_errors=True)
        os.makedirs(self.work)
        self.launches = 0
        self.references = {}

    def fresh_dir(self):
        self.launches += 1
        d = os.path.join(self.work, f"launch{self.launches}")
        os.makedirs(d)
        return d

    def launch(self, argv_of):
        d = self.fresh_dir()
        return Launch(argv_of(d), d)

    def discard(self, launch):
        shutil.rmtree(launch.workdir, ignore_errors=True)

    def reference(self, program_seed):
        """Reference digests and summary for `program_seed`: a plain
        in-memory sweep of the same spec. For `run` it is a one-trial sweep,
        which reproduces `run` exactly."""
        if program_seed in self.references:
            return self.references[program_seed]
        plain = Workload(self.w.name, "sweep", self.w.n, self.w.trials)
        launch = self.launch(lambda d: plain.argv(self.cli, program_seed, d))
        ref = {"summary": summary_of(plain, launch), "digests": launch.digests()}
        self.discard(launch)
        self.references[program_seed] = ref
        return ref

    def timed(self, rep):
        """One checked launch of the workload. Returns (launch, failed)."""
        seed = self.w.seed_of(self.seed, rep)
        ref = self.reference(seed)
        launch = self.launch(lambda d: self.w.argv(self.cli, seed, d))
        failed = failed_trials(self.w, launch, ref)
        self.discard(launch)
        return launch, failed

    def warm_up(self):
        """Computes the references of every program seed the run uses, then
        makes one checked, untimed launch where a reference launch is not
        already one (the durable workloads). Returns (attempted, failed)
        trials of that launch; its time is discarded."""
        for rep in range(RUN_SEEDS if self.w.kind == "run" else 1):
            self.reference(self.w.seed_of(self.seed, rep))
        if self.w.kind in ("sweep", "run"):
            return 0, 0
        _, failed = self.timed(0)
        return self.w.trials, failed

    def setup_wall(self, i):
        """Wall time of one set-up launch: the command with one trial and no
        rounds."""
        seed = self.w.seed_of(self.seed, i)
        launch = self.launch(lambda d: self.w.argv(self.cli, seed, d, setup=True))
        if launch.code != 0:
            raise BenchError(f"set-up launch exited {launch.code}: {launch.stderr[:300]}")
        self.discard(launch)
        return launch.wall_s

    def probe_s(self, _):
        """Kernel time of one speed probe."""
        done = subprocess.run([self.probe], capture_output=True, text=True)
        if done.returncode != 0:
            raise BenchError(f"speed probe exited {done.returncode}: {done.stderr[:300]}")
        return float(done.stdout.split()[0])

    @staticmethod
    def top_up(samples, sample, share, counts):
        """Appends `sample(i)` to `samples` until they hold `share` of their
        budget: SAMPLE_SECONDS of sampled time or the most samples that
        `counts` = (least, most) allows, whichever comes first. Cheap samples
        thus reach their count cap in step with the run, not in its first
        seconds. At share 1, the end of the run, there are at least `least`."""
        least, most = counts
        while True:
            n = len(samples)
            full = n >= most * share or sum(samples) >= SAMPLE_SECONDS * share
            if full and not (share >= 1 and n < least):
                return
            samples.append(sample(n))

    def measure(self, seconds):
        """Timed launches until `seconds` are spent, with the set-up
        launches and the speed probes spread between them so that a change
        in the machine's speed hits all three alike."""
        warm_attempted, failed = self.warm_up()
        launches, setups, probes = [], [], []
        start = time.perf_counter()
        while True:
            launch, bad = self.timed(len(launches) + 1)
            launches.append(launch)
            failed += bad
            share = min(1.0, (time.perf_counter() - start) / seconds)
            self.top_up(setups, self.setup_wall, share, SETUP_LAUNCHES)
            self.top_up(probes, self.probe_s, share, PROBES)
            elapsed = time.perf_counter() - start
            typical = statistics.median(l.wall_s for l in launches)
            if len(launches) >= MIN_REPS and elapsed + typical > seconds:
                break
        self.top_up(setups, self.setup_wall, 1.0, SETUP_LAUNCHES)
        self.top_up(probes, self.probe_s, 1.0, PROBES)
        # Times measured while the machine ran slower than the reference
        # are scaled down by the same factor, and faster ones up.
        speed = PROBE_REFERENCE_S / statistics.median(probes)
        raw_wall = statistics.median(l.wall_s for l in launches)
        raw_setup = statistics.median(setups)
        wall = raw_wall * speed
        attempted = warm_attempted + len(launches) * self.w.trials
        metrics = {
            "wall_s": (wall, "s"),
            "trials_per_s": (self.w.trials / wall, "1/s"),
            "setup_s": (raw_setup * speed, "s"),
            "peak_rss_mb": (statistics.median(l.peak_rss_mb for l in launches), "MB"),
            "disk_write_mb": (statistics.median(l.written for l in launches) / 1e6, "MB"),
            "success_frac": ((attempted - failed) / attempted, "frac"),
        }
        print(f"{self.w.name}: {len(launches)} timed launches, {len(setups)} set-up launches, "
              f"{len(probes)} speed probes")
        print(f"  measured: wall_s {raw_wall:.6f} setup_s {raw_setup:.6f} "
              f"probe_s {statistics.median(probes):.6f} speed {speed:.4f}")
        print(f"  walls {' '.join(f'{l.wall_s:.4f}' for l in launches)}")
        print(f"  cpus {' '.join(f'{l.cpu_s:.4f}' for l in launches)}")
        print(f"  probes {' '.join(f'{p:.4f}' for p in probes)}")
        return metrics, attempted, failed

    def cleanup(self):
        shutil.rmtree(self.work, ignore_errors=True)


# ---------------------------------------------------------------------------
# The traced benchmark.
# ---------------------------------------------------------------------------


def load_trace(path):
    with open(path) as f:
        return json.load(f)


def layer_metrics(spans, facts, durable):
    """Per-layer metrics of one traced command (see README.md). `durable`:
    the loads and the merge are the command's own (the fabric), not
    replays."""
    kids = perflib.children(spans)
    durs, counts = {}, {}
    for name, _, start, end, count, _ in spans:
        durs.setdefault(name, []).append(end - start)
        counts.setdefault(name, []).append(count)
    trials, rounds0, later, runs, executors = [], [], [], [], {}
    for i, (name, _, start, end, _, thread) in enumerate(spans):
        if name != "trial":
            continue
        trials.append(end - start)
        executors[thread] = executors.get(thread, 0) + 1
        steps = sorted((spans[k] for k in kids[i] if spans[k][0] == "sim.engine.step"),
                       key=lambda s: s[2])
        rounds0.append(steps[0][3] - steps[0][2])
        later.extend(s[3] - s[2] for s in steps[1:])
        runs.append(sum(spans[k][3] - spans[k][2] for k in kids[i]
                        if spans[k][0] in ("sim.engine.step", "sim.engine.finalize")))
    probes, step_ns = sum(counts["sim.engine.step"]), sum(durs["sim.engine.step"])
    if probes != facts["probes_total"] or len(durs["sim.engine.step"]) != facts["rounds_total"]:
        raise BenchError("traced steps do not account for the result's probes and rounds")

    def per_mb(name):
        return (sum(durs[name]) / 1e6) / (sum(counts[name]) / 1e6)

    exec_span = next(s for s in spans if s[0] in ("harness.run_sweep", "harness.supervise_workers",
                                                   "command"))
    med = statistics.median
    return {
        "sim.world.build_ms": (sum(durs["sim.world.build"]) / 1e6, "ms"),
        "sim.world.build_us_p50": (med(durs["sim.world.build"]) / 1e3, "us"),
        "sim.engine.new_ms": (sum(durs["sim.engine.new"]) / 1e6, "ms"),
        "sim.engine.new_us_p50": (med(durs["sim.engine.new"]) / 1e3, "us"),
        "sim.engine.round0_ms": (med(rounds0) / 1e6, "ms"),
        "sim.engine.round_ms_p50": (med(later or rounds0) / 1e6, "ms"),
        "sim.engine.finalize_ms": (med(durs["sim.engine.finalize"]) / 1e6, "ms"),
        "sim.engine.run_us_p50": (med(runs) / 1e3, "us"),
        "sim.engine.ns_per_probe": (step_ns / probes, "ns"),
        "sim.engine.probes_per_s": (probes / (step_ns / 1e9), "1/s"),
        "sim.engine.rounds": (facts["rounds_total"], "count"),
        "sim.engine.advice_share": (facts["advice_total"] / facts["probes_total"], "frac"),
        "billboard.posts": (facts["posts_total"], "count"),
        "sim.result.bytes": (statistics.mean(counts["sim.result.encode"]), "bytes"),
        "harness.sweep.trial_ms_p50": (med(trials) / 1e6, "ms"),
        "harness.sweep.trial_ms_p99": (perflib.percentile(trials, 0.99) / 1e6, "ms"),
        "harness.sweep.busy_frac": (
            sum(trials) / (facts["parallelism"] * (exec_span[3] - exec_span[2])), "frac"),
        "analysis.summary_ms": (sum(durs["analysis.summary"]) / 1e6, "ms"),
        "harness.checkpoint.writes": (facts["checkpoint_writes"], "count"),
        "harness.checkpoint.bytes_mb": (facts["checkpoint_bytes"] / 1e6, "MB"),
        "harness.checkpoint.write_ms_per_mb": (per_mb("replay.checkpoint.write"), "ms/MB"),
        "harness.checkpoint.load_ms_per_mb": (
            per_mb("harness.checkpoint.load" if durable else "replay.checkpoint.load"), "ms/MB"),
        "harness.lease.update_us_p50": (med(durs["replay.lease.update"]) / 1e3, "us"),
        "harness.lease.transitions": (facts["lease_transitions"], "count"),
        "harness.worker.trial_share_max": (max(executors.values()) / facts["trials"], "frac"),
        "harness.merge.ms_per_mb": (per_mb("harness.merge" if durable else "replay.merge"), "ms/MB"),
        "trace.coverage_frac": (perflib.coverage(spans, 0), "frac"),
    }


class TracedRunner(Runner):
    def traced(self, rep):
        """One tracer launch mirroring the workload's command. Returns
        (root span seconds, layer metrics, failed trials, self-time table)."""
        seed = self.w.seed_of(self.seed, rep)
        d = self.fresh_dir()
        trace = os.path.join(d, "trace.json")
        argv = [self.tracer, {"ckpt": "sweep"}.get(self.w.kind, self.w.kind),
                "--n", str(self.w.n), "--seed", str(seed), "--work", d,
                "--out", trace, "--digests", os.path.join(d, "out.digests")]
        if self.w.kind != "run":
            argv += ["--trials", str(self.w.trials)]
        if self.w.kind in ("sweep", "ckpt"):
            argv += ["--threads", str(THREADS)]
        if self.w.kind == "ckpt":
            argv += ["--checkpoint", os.path.join(d, "sweep.ckpt")]
        if self.w.kind == "fabric":
            argv += ["--workers", str(THREADS), "--queue", os.path.join(d, "queue")]
        done = subprocess.run(argv, capture_output=True, text=True)
        if done.returncode != 0:
            raise BenchError(f"tracer exited {done.returncode}: {done.stderr[:300]}")
        doc = load_trace(trace)
        workers = [load_trace(p) for p in doc.get("worker_traces", [])]
        facts = doc["facts"]
        ref = self.reference(seed)
        with open(os.path.join(d, "out.digests")) as f:
            failed = perflib.count_failed(perflib.parse_digests(f.read()),
                                          ref["digests"], self.w.trials)
        summary = {"completed": f"{facts['completed']}/{self.w.trials}",
                   "cost": facts["mean_cost"]}
        if summary != ref["summary"] or facts["satisfied"] != self.w.trials:
            failed = self.w.trials
        if self.w.kind == "ckpt" and facts["checkpoint_writes"] != facts["command_checkpoint_writes"]:
            raise BenchError("replayed checkpoint writes differ from the sweep's")
        spans = perflib.merge_traces(doc["spans"], [w["spans"] for w in workers],
                                     "harness.supervise_workers")
        metrics = layer_metrics(spans, facts, durable=self.w.kind == "fabric")
        shutil.rmtree(d, ignore_errors=True)
        root = spans[0]
        return (root[3] - root[2]) / 1e9, metrics, failed, perflib.self_time_table(spans)

    def measure(self, seconds):
        """Alternates an untraced launch with a traced one of the same seed;
        per-layer metrics are medians over the traced launches, and the
        overhead compares each pair."""
        attempted, failed = self.warm_up()
        pairs = []
        start = time.perf_counter()
        while True:
            rep = len(pairs)
            launch, bad = self.timed(rep)
            traced_s, metrics, bad_traced, table = self.traced(rep)
            pairs.append((launch.wall_s, traced_s, metrics))
            failed += bad + bad_traced
            attempted += 2 * self.w.trials
            elapsed = time.perf_counter() - start
            if len(pairs) >= 2 and elapsed * (len(pairs) + 1) / len(pairs) > seconds:
                break
        out = {}
        for name in pairs[0][2]:
            out[name] = (statistics.median(p[2][name][0] for p in pairs), pairs[0][2][name][1])
        out["trace.overhead_frac"] = (statistics.median(t / u - 1 for u, t, _ in pairs), "frac")
        print(f"{self.w.name}: {len(pairs)} traced/untraced pairs; layer table of the last:")
        print(f"{'span':32} {'calls':>8} {'total_ms':>12} {'self_ms':>12}")
        for name, (calls, total, own) in sorted(table.items(), key=lambda kv: -kv[1][2]):
            print(f"{name:32} {calls:8d} {total / 1e6:12.3f} {own / 1e6:12.3f}")
        return out, attempted, failed


# ---------------------------------------------------------------------------
# Entry points.
# ---------------------------------------------------------------------------


def bench(args):
    if not (os.path.isfile("Cargo.toml") and os.path.isfile(os.path.join("crates", "cli", "Cargo.toml"))):
        raise BenchError("run from the root of a distill checkout (no Cargo.toml / crates/cli here)")
    workload = WORKLOADS.get(args.workload)
    if workload is None:
        raise BenchError(f"unknown workload {args.workload!r} (one of {', '.join(WORKLOADS)})")
    target = os.environ.get("CARGO_TARGET_DIR", ".bench_build")
    build(target)
    runner = (TracedRunner if args.trace else Runner)(workload, args.seed, target)
    try:
        print(f"context: {context(runner.work)} workload={workload.name} seed={args.seed}")
        metrics, attempted, failed = runner.measure(args.seconds)
    finally:
        runner.cleanup()
    with open("BENCHMARK.json") as f:
        declared = json.load(f)["per_layer" if args.trace else "end_to_end"]
    if {m["name"]: m["unit"] for m in declared} != {k: u for k, (_, u) in metrics.items()}:
        raise BenchError("the metrics measured differ from those BENCHMARK.json declares")
    for name, (value, unit) in metrics.items():
        print(f"  {name:36} {value:16.6f} {unit}")
    result = {
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }
    print(json.dumps(result))


def steadiness(args):
    """Repeats the benchmark on consecutive seeds and prints, per metric,
    the run-to-run spread of each set and the drift between the sets'
    medians, read in the worse direction (see `perflib.drift`)."""
    with open("BENCHMARK.json") as f:
        spec = json.load(f)
    bounds = {m["name"]: m.get("bound") for m in spec["end_to_end"]}
    names = list(WORKLOADS) if args.workload == "all" else [args.workload]
    for name in names:
        sets = []
        run_s = []
        for s in range(args.sets):
            values = {}
            for i in range(args.steadiness):
                seed = args.seed + s * args.steadiness + i
                argv = [sys.executable, os.path.abspath(__file__), "--workload", name,
                        "--seed", str(seed), "--seconds", str(args.seconds),
                        "--trace", str(args.trace)]
                start = time.perf_counter()
                done = subprocess.run(argv, capture_output=True, text=True)
                run_s.append(time.perf_counter() - start)
                if done.returncode != 0:
                    sys.stderr.write(done.stderr)
                    raise BenchError(f"{name} seed {seed} exited {done.returncode}")
                result = json.loads(done.stdout.strip().splitlines()[-1])
                if not result["correct"]:
                    raise BenchError(f"{name} seed {seed}: outputs incorrect")
                for metric, v in result["metrics"].items():
                    values.setdefault(metric, []).append(v["value"])
            sets.append(values)
        print(f"== {name}: {args.sets} set(s) of {args.steadiness} runs, {args.seconds} s each; "
              f"a run took {statistics.median(run_s):.1f} s (median), {max(run_s):.1f} s (most) ==")
        print(f"{'metric':36} {'median':>12} {'q1':>12} {'q3':>12} {'spread':>8}"
              + "".join(f" {f'set {i + 1}':>8}" for i in range(1, args.sets))
              + f" {'bound':>6}" + ("  drift" if args.sets > 1 else ""))
        for metric in sets[0]:
            med, q1, q3, rel = perflib.spread(sets[0][metric])
            line = f"{metric:36} {med:12.6g} {q1:12.6g} {q3:12.6g} {rel:8.4f}"
            line += "".join(f" {perflib.spread(v[metric])[3]:8.4f}" for v in sets[1:])
            line += f" {str(bounds.get(metric, '-')):>6}"
            if args.sets > 1:
                meds = [statistics.median(v[metric]) for v in sets]
                drift = perflib.drift(meds)
                bound = bounds.get(metric)
                line += f"  {drift:.4f}"
                if bound is not None and drift > bound:
                    line += "  OVER BOUND"
            print(line)
        for metric in sets[0]:
            for i, values in enumerate(sets):
                print(f"  {metric} set {i + 1}: {' '.join(f'{v:.6g}' for v in values[metric])}")
        sys.stdout.flush()


def main():
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workload", required=True)
    p.add_argument("--seed", type=int, default=1)
    p.add_argument("--seconds", type=int, default=25)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--steadiness", type=int, default=0, metavar="RUNS",
                   help="repeat on RUNS seeds and print the spreads")
    p.add_argument("--sets", type=int, default=1)
    args = p.parse_args()
    try:
        if args.steadiness:
            steadiness(args)
        else:
            bench(args)
    except BenchError as e:
        print(f"perfbench: {e}", file=sys.stderr)
        sys.exit(1)


if __name__ == "__main__":
    main()
