"""Self-tests of the benchmark's pure helpers.

    python3 -m unittest discover -s perfbench -p 'test_*.py'
"""

import json
import os
import statistics
import unittest

import perflib

HERE = os.path.dirname(os.path.abspath(__file__))


def span(name, parent, start, end, count=0, thread=0):
    return [name, parent, start, end, count, thread]


class SelfTime(unittest.TestCase):
    def test_leaf_self_time_is_its_duration(self):
        self.assertEqual(perflib.self_times([span("a", -1, 10, 25)]), [15])

    def test_children_are_subtracted(self):
        spans = [span("root", -1, 0, 100), span("a", 0, 10, 30), span("b", 0, 50, 60)]
        self.assertEqual(perflib.self_times(spans), [70, 20, 10])

    def test_parallel_children_are_counted_once(self):
        # Two worker threads' trials overlap inside one sweep span.
        spans = [span("sweep", -1, 0, 100), span("trial", 0, 10, 60, thread=1),
                 span("trial", 0, 40, 90, thread=2)]
        self.assertEqual(perflib.self_times(spans)[0], 100 - 80)

    def test_children_outside_the_parent_are_clipped(self):
        spans = [span("root", -1, 0, 100), span("late", 0, 90, 130), span("after", 0, 150, 160)]
        self.assertEqual(perflib.self_times(spans)[0], 90)

    def test_grandchildren_only_reduce_their_own_parent(self):
        spans = [span("root", -1, 0, 100), span("trial", 0, 0, 50), span("step", 1, 0, 40)]
        self.assertEqual(perflib.self_times(spans), [50, 10, 40])

    def test_coverage_of_the_root(self):
        spans = [span("command", -1, 0, 200), span("a", 0, 0, 50), span("b", 0, 40, 150),
                 span("replay", -1, 200, 400), span("r", 3, 200, 400)]
        self.assertAlmostEqual(perflib.coverage(spans, 0), 150 / 200)

    def test_self_time_table_sums_by_name(self):
        spans = [span("root", -1, 0, 100), span("a", 0, 0, 10), span("a", 0, 20, 40)]
        table = perflib.self_time_table(spans)
        self.assertEqual(table["a"], (2, 30, 30))
        self.assertEqual(table["root"], (1, 100, 70))

    def test_worker_traces_attach_under_the_supervisor(self):
        main = [span("command", -1, 0, 100), span("harness.supervise_workers", 0, 0, 80)]
        worker = [span("worker", -1, 5, 75, thread=0), span("trial", 0, 10, 20, thread=0)]
        merged = perflib.merge_traces(main, [worker, worker], "harness.supervise_workers")
        self.assertEqual([s[1] for s in merged], [-1, 0, 1, 2, 1, 4])
        # Same thread id in two processes: two executors after the merge.
        self.assertEqual(len({s[5] for s in merged if s[0] == "trial"}), 2)
        self.assertEqual(perflib.self_times(merged)[1], 80 - 70)


class Statistics(unittest.TestCase):
    def test_percentile_interpolates(self):
        self.assertEqual(perflib.percentile([4, 1, 3, 2], 0.5), 2.5)
        self.assertEqual(perflib.percentile([7], 0.99), 7)
        self.assertAlmostEqual(perflib.percentile(list(range(101)), 0.99), 99)

    def test_spread_matches_the_acceptance_rule(self):
        values = [1.0, 1.1, 0.9, 1.05, 0.95, 1.2, 1.0, 0.98, 1.02, 1.01]
        q1, _, q3 = statistics.quantiles(values, n=4)
        med, lo, hi, rel = perflib.spread(values)
        self.assertEqual((lo, hi), (q1, q3))
        self.assertAlmostEqual(rel, (q3 - q1) / statistics.median(values))
        self.assertEqual(med, statistics.median(values))

    def test_drift_reads_either_direction(self):
        self.assertAlmostEqual(perflib.drift([2.39, 1.90]), 2.39 / 1.90 - 1)
        self.assertAlmostEqual(perflib.drift([1.90, 2.39]), 2.39 / 1.90 - 1)
        self.assertEqual(perflib.drift([3.0, 3.0]), 0.0)
        self.assertEqual(perflib.drift([0.0, 0.0]), 0.0)
        self.assertEqual(perflib.drift([0.0, 1.0]), float("inf"))

    def test_union_merges_overlaps_and_gaps(self):
        self.assertEqual(perflib.union_ns([(0, 10), (5, 15), (20, 30)]), 25)
        self.assertEqual(perflib.union_ns([]), 0)


class Names(unittest.TestCase):
    def test_metric_names(self):
        for good in ["wall_s", "sim.engine.round0_ms", "harness.sweep.trial_ms_p99",
                     "trace.overhead_frac", "9lives", "a-b"]:
            self.assertTrue(perflib.valid_metric_name(good), good)
        for bad in ["", "_x", ".x", "has space", "ünïcode", "a/b", "x" * 65, None]:
            self.assertFalse(perflib.valid_metric_name(bad), bad)

    def test_units(self):
        for good in ["s", "ms", "1/s", "%", "ms/MB", "count"]:
            self.assertTrue(perflib.valid_unit(good), good)
        for bad in ["", "m s", "x" * 17]:
            self.assertFalse(perflib.valid_unit(bad), bad)

    def test_benchmark_json_names_and_units(self):
        with open(os.path.join(HERE, "..", "BENCHMARK.json")) as f:
            spec = json.load(f)
        names = [w["name"] for w in spec["workloads"]]
        names += [m["name"] for m in spec["end_to_end"] + spec["per_layer"]]
        self.assertEqual(len(names), len(set(names)))
        for name in names:
            self.assertTrue(perflib.valid_metric_name(name), name)
        for m in spec["end_to_end"] + spec["per_layer"]:
            self.assertTrue(perflib.valid_unit(m["unit"]), m["unit"])


RUN_OUTPUT = """\
== distill vs uniform-bad — n=1000000 m=1000000 honest=900000 (alpha=0.900) goods=1 f=1 trials=1 ==
                  metric  mean   min   max
------------------------------------------
individual cost (probes)  15.0  15.0  15.0
                  rounds  15.0  15.0  15.0
  trials fully satisfied   1/1     -     -

Theorem 4 shape for these parameters: 5.953 (measured/bound = 2.519)

"""

SWEEP_OUTPUT = """\
== sweep: distill vs uniform-bad — n=1000 m=1000 honest=900 (alpha=0.900) goods=1 f=1 trials=8192 ==
                 metric      value
----------------------------------
              completed  8192/8192
resumed from checkpoint          0
    checkpoints written          0
            quarantined          0
   mean individual cost       13.3
 trials fully satisfied  8192/8192
"""

FABRIC_OUTPUT = """\
== sweep-supervise — queue q (2 workers, 512 trials) ==
                   metric    value
----------------------------------
       completed (merged)  512/512
          worker restarts        0
         queue fully done     true
worker checkpoints merged        2
     mean individual cost     13.3
"""


class CliTables(unittest.TestCase):
    def test_run_table(self):
        (table,) = perflib.parse_tables(RUN_OUTPUT)
        self.assertEqual(table["columns"], ["metric", "mean", "min", "max"])
        rows = perflib.table_values(table)
        self.assertEqual(rows["individual cost (probes)"], ["15.0", "15.0", "15.0"])
        self.assertEqual(rows["trials fully satisfied"], ["1/1", "-", "-"])

    def test_sweep_table(self):
        (table,) = perflib.parse_tables(SWEEP_OUTPUT)
        self.assertTrue(table["title"].startswith("sweep: distill vs uniform-bad"))
        rows = perflib.table_values(table)
        self.assertEqual(rows["completed"], "8192/8192")
        self.assertEqual(rows["mean individual cost"], "13.3")
        self.assertEqual(len(rows), 6)

    def test_fabric_table(self):
        rows = perflib.table_values(perflib.parse_tables(FABRIC_OUTPUT)[0])
        self.assertEqual(rows["completed (merged)"], "512/512")
        self.assertEqual(rows["queue fully done"], "true")

    def test_cells_with_double_spaces_stay_whole(self):
        text = "== t ==\n   a        b\n-------------\n   x  y  z  w\n"
        (table,) = perflib.parse_tables(text)
        self.assertEqual(table["rows"], [["x", "y  z  w"]])

    def test_no_table(self):
        self.assertEqual(perflib.parse_tables("error: nope\n"), [])

    def test_digests(self):
        text = "trial 0 00ff00ff00ff00ff\ntrial 2 0123456789abcdef\n"
        digests = perflib.parse_digests(text)
        self.assertEqual(digests, [(0, "00ff00ff00ff00ff"), (2, "0123456789abcdef")])
        reference = [(0, "00ff00ff00ff00ff"), (1, "1111111111111111"), (2, "ffffffffffffffff")]
        # Trial 1 missing, trial 2 differs.
        self.assertEqual(perflib.count_failed(digests, reference, 3), 2)
        with self.assertRaises(ValueError):
            perflib.parse_digests("trial x 00\n")


if __name__ == "__main__":
    unittest.main()
