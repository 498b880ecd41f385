#!/usr/bin/env python3
"""The benchmark's own tests.

    python3 perfbench/test_perfbench.py

Builds the benchmark (as run.py does), then checks that bad flags exit 2
without aborting, runs the span self-time unit test, and makes one short
traced run that exercises the trace writer and the correctness checks.
"""
import contextlib
import io
import json
import os
import re
import subprocess
import sys
import unittest
from unittest import mock

sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))
import run  # noqa: E402

OUT = run.build_dir()


def setUpModule():
    run.build(OUT)


def call(cmd):
    return subprocess.run(cmd, stdout=subprocess.PIPE, stderr=subprocess.PIPE,
                          text=True, timeout=170, cwd=run.ROOT)


class Flags(unittest.TestCase):
    RUN_PY = [sys.executable, os.path.join(run.HERE, "run.py")]
    GOOD = ["--workload", "link_down_fleet", "--seed", "1", "--seconds", "1",
            "--trace", "0"]

    def assertUsageError(self, cmd):
        proc = call(cmd)
        self.assertEqual(proc.returncode, 2, (cmd, proc.stderr))
        self.assertEqual(proc.stdout, "", cmd)

    def test_run_py_rejects_bad_flags(self):
        cases = [
            [],
            self.GOOD + ["--bogus"],
            self.GOOD[:-1],  # --trace without its value
            ["--workload", "nope"] + self.GOOD[2:],
            self.GOOD[:3] + ["x1"] + self.GOOD[4:],
            self.GOOD[:3] + ["-1"] + self.GOOD[4:],
            self.GOOD[:3] + [str(2 ** 64)] + self.GOOD[4:],
            self.GOOD[:5] + ["0"] + self.GOOD[6:],
            self.GOOD[:5] + ["1.5"] + self.GOOD[6:],
            self.GOOD[:7] + ["2"],
            ["--work", "link_down_fleet"] + self.GOOD[2:],  # no abbreviations
        ]
        for args in cases:
            self.assertUsageError(self.RUN_PY + args)

    def test_binaries_reject_bad_flags(self):
        good = ["--seed", "1", "--sessions", "12"]
        cases = [
            [],
            ["--seed", "1"],
            ["--sessions", "12"],
            good + ["--bogus", "1"],
            good + ["--seconds"],
            ["--seed", "1x", "--sessions", "12"],
            ["--seed", "-3", "--sessions", "12"],
            ["--seed", "99999999999999999999", "--sessions", "12"],
            good + ["--seconds", "-1"],
            good + ["--seconds", "nan"],
            ["--seed", "1", "--sessions", "0"],
            good + ["--threads", "0"],
            good + ["--shard-size", "0"],
            good + ["--min-reps", ""],
            good + ["--faults", "drop=x"],
            good + ["--faults", "|bogus=1"],
            good + ["--impairments", "sro=50|nope"],
        ]
        for binary in ("wl_perfbench", "wl_perfbench_traced"):
            for args in cases:
                self.assertUsageError([os.path.join(OUT, binary)] + args)


class SpanArithmetic(unittest.TestCase):
    def test_selftest_binary(self):
        proc = call([os.path.join(OUT, "perfbench_selftest")])
        self.assertEqual(proc.returncode, 0, proc.stderr)


class CorrectnessCheck(unittest.TestCase):
    def test_wilson_matches_the_rollup(self):
        # Values the repo's obs::WilsonScore writes into rollups.
        low, _, high = run.wilson(0, 167)
        self.assertAlmostEqual(high, 0.022486326515321793, places=12)
        self.assertEqual(low, 0.0)
        low, centre, high = run.wilson(7, 8)
        self.assertTrue(low < 7 / 8 < high)
        self.assertAlmostEqual(centre, (7 + 1.96 ** 2 / 2) / (8 + 1.96 ** 2))

    def test_leaves_uses_the_nearer_end_of_the_interval(self):
        reference = run.wilson(240, 240)  # a 240/240 cohort: [0.984, 1]
        alpha = 1e-4
        self.assertFalse(run.leaves(10, 10, reference, alpha))
        self.assertFalse(run.leaves(7, 10, reference, alpha))
        self.assertTrue(run.leaves(6, 10, reference, alpha))
        self.assertFalse(run.leaves(0, 0, reference, alpha))
        low, upper = run.binomial_tails(3, 10, 0.5)
        self.assertAlmostEqual(low, 176 / 1024)
        self.assertAlmostEqual(upper, 968 / 1024)
        self.assertEqual(run.binomial_tails(0, 4, 0.0), (1.0, 1.0))
        self.assertEqual(run.binomial_tails(2, 4, 1.0), (0.0, 1.0))

    def reference_run(self, workload):
        """(cohort counts of the named seed's reference rollup, pooled)."""
        seed = run.WORKLOADS[workload]["seed"]
        with open(os.path.join(run.REFERENCE_DIR, "%s-%d.json" % (
                workload, seed))) as f:
            counts = run.cohort_counts(json.load(f))
        return counts, run.load_reference(workload, seed)[1]

    def test_reference_rollups_pass(self):
        for workload in sorted(run.WORKLOADS):
            counts, pooled = self.reference_run(workload)
            self.assertEqual(run.check_cohorts(counts, pooled), {}, workload)

    def test_false_accepts_in_every_cohort_fail(self):
        # Real cohort sizes: 2 impostors per clean_fleet cohort that has
        # any, 3 or 4 on crowded_fleet.
        for workload in ("clean_fleet", "crowded_fleet"):
            counts, pooled = self.reference_run(workload)
            self.assertLessEqual(max(c[3] for c in counts.values()), 4)
            forged = {k: (u, g, imp, imp, n)
                      for k, (u, g, _, imp, n) in counts.items()}
            bad = run.check_cohorts(forged, pooled)
            self.assertIn("false-accept", bad["*"], workload)
            self.assertEqual(run.failed_sessions(forged, bad),
                             run.WORKLOADS[workload]["sessions"])

    def test_an_unlock_drop_in_one_small_cohort_fails(self):
        counts, pooled = self.reference_run("clean_fleet")
        key = "config=config1;dist=0.25-0.50;env=Quiet Room;faults="
        self.assertEqual(pooled["cohorts"][key][:2], [240, 240])
        self.assertEqual(counts[key][:2], (10, 10))
        counts[key] = (6, 10, 0, 0, 10)  # four misses: within chance
        self.assertEqual(run.check_cohorts(counts, pooled), {})
        counts[key] = (5, 10, 0, 0, 10)
        bad = run.check_cohorts(counts, pooled)
        self.assertEqual(sorted(bad), [key])
        self.assertIn("unlock", bad[key])
        self.assertEqual(run.failed_sessions(counts, bad), 10)

    def test_one_miss_more_in_every_cohort_fails_the_campaign(self):
        counts, pooled = self.reference_run("clean_fleet")
        worse = {k: (u - 1, g, fa, imp, n)
                 for k, (u, g, fa, imp, n) in counts.items()}
        bad = run.check_cohorts(worse, pooled)
        self.assertEqual(sorted(bad), ["*"])
        self.assertIn("unlock", bad["*"])
        self.assertEqual(run.failed_sessions(worse, bad), 240)

    def test_a_missing_or_unknown_cohort_fails(self):
        counts, pooled = self.reference_run("link_down_fleet")
        key = sorted(counts)[0]
        counts["config=config9"] = counts.pop(key)
        bad = run.check_cohorts(counts, pooled)
        self.assertIn(key, bad)
        self.assertIn("config=config9", bad)


class CampaignThatThrows(unittest.TestCase):
    def test_a_throw_during_setup_is_a_correctness_failure(self):
        threw = ({"error": "campaign threw", "sessions": 4800}, 3)
        out = io.StringIO()
        with mock.patch.object(run, "build"), \
                mock.patch.object(run, "run_binary", return_value=threw), \
                contextlib.redirect_stdout(out):
            rc = run.main(["--workload", "link_down_fleet", "--seed", "1",
                           "--seconds", "1", "--trace", "0"])
        self.assertEqual(rc, 0)
        result = json.loads(out.getvalue().strip().splitlines()[-1])
        self.assertEqual(result, {"correct": False, "attempted": 4800,
                                  "failed": 4800, "metrics": {}})


class ProbeScaling(unittest.TestCase):
    NOMINAL = 25000.0

    def test_scaled_time_follows_the_program_not_the_host(self):
        # One campaign, 2 s on an undisturbed host: 2.2 s while the host
        # runs 10% slow, 4 s while it runs at half speed.
        res = {"probe_nominal_ns": self.NOMINAL, "rep_wall_s": [2.0, 2.2, 4.0],
               "rep_probe_ns": [25000.0, 27500.0, 50000.0]}
        for scaled in run.scaled_rep_s(res):
            self.assertAlmostEqual(scaled, 2.0)
        self.assertAlmostEqual(run.host_speed(res), 25000.0 / 27500.0)

    def test_a_repetition_without_probe_samples_keeps_its_wall_time(self):
        res = {"probe_nominal_ns": self.NOMINAL, "rep_wall_s": [0.5],
               "rep_probe_ns": [0.0]}
        self.assertEqual(run.scaled_rep_s(res), [0.5])
        self.assertEqual(run.host_speed(res), 1.0)


class WorkloadDefinitions(unittest.TestCase):
    def test_benchmark_json_names_the_same_seeds(self):
        with open(os.path.join(run.ROOT, "BENCHMARK.json")) as f:
            whys = {w["name"]: w["why"] for w in json.load(f)["workloads"]}
        self.assertEqual(sorted(whys), sorted(run.WORKLOADS))
        for name, spec in run.WORKLOADS.items():
            seeds = re.search(r"Seed (\d+), held-out (\d+)", whys[name])
            self.assertEqual(
                (int(seeds.group(1)), int(seeds.group(2))),
                (spec["seed"], spec["held_out_seed"]), name)


class ShortTracedRun(unittest.TestCase):
    def test_trace_writer_and_checks(self):
        workload = "link_down_fleet"
        seed = run.WORKLOADS[workload]["seed"]
        proc = call([sys.executable, os.path.join(run.HERE, "run.py"),
                     "--workload", workload, "--seed", str(seed),
                     "--seconds", "2", "--trace", "1"])
        self.assertEqual(proc.returncode, 0, proc.stderr)
        result = json.loads(proc.stdout.strip().splitlines()[-1])
        self.assertEqual(sorted(result),
                         ["attempted", "correct", "failed", "metrics"])
        self.assertTrue(result["correct"], proc.stdout)
        self.assertEqual(result["failed"], 0)
        self.assertGreater(result["attempted"], 0)
        self.assertIn("trace.overhead", result["metrics"])

        run_dir = os.path.join(OUT, "runs", "%s-s%d-t1" % (workload, seed))
        with open(os.path.join(run_dir, "result.json")) as f:
            record = json.load(f)
        self.assertTrue(all(record["checks"].values()), record["checks"])
        self.assertTrue(record["flags"]["rollup_matches_reference"])
        self.assertTrue(record["flags"]["counts_match_reference"])
        self.assertTrue(record["flags"]["named_layers_cover_85pct"])
        self.assertTrue(all(b["linked"] for b in record["traced"]["boundaries"]))
        for binary in ("untraced", "traced"):
            self.assertTrue(all(p > 0 for p in record[binary]["rep_probe_ns"]),
                            (binary, record[binary]["rep_probe_ns"]))

        with open(os.path.join(run_dir, "traced", "spans.tsv")) as f:
            header = f.readline().rstrip("\n").split("\t")
            rows = [line.rstrip("\n").split("\t") for line in f]
        self.assertEqual(header, ["id", "parent", "thread", "shard", "name",
                                  "start_ns", "end_ns", "self_ns"])
        names = {row[4] for row in rows}
        self.assertTrue({"protocol.setup", "protocol.machine", "sensors.motion",
                         "obs.ingest", "sim.executor.shard"} <= names, names)
        ids = {row[0] for row in rows}
        for row in rows:
            self.assertTrue(row[1] == "-1" or row[1] in ids)
            self.assertGreaterEqual(int(row[7]), 0)


if __name__ == "__main__":
    unittest.main()
