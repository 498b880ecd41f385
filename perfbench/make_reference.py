#!/usr/bin/env python3
"""Regenerate perfbench/reference/ from the current program.

    python3 perfbench/make_reference.py

Writes, for every workload in workloads.json:
  <workload>-<seed>.json         rollup of the named and the held-out seed
                                 (run.py reports an exact byte match);
  <workload>-<seed>.counts.json  traced work counts of the named seed;
  <workload>.pooled.json         per-cohort counts summed over seeds
                                 1..POOL_SEEDS, the reference rates of
                                 run.py's Wilson check.
Only run it for a change that is meant to alter simulated results, and
say so where the change is recorded.
"""
import json
import os
import sys

sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))
import run  # noqa: E402

POOL_SEEDS = 24


def campaign(binary, spec, seed, out_dir):
    os.makedirs(out_dir, exist_ok=True)
    res = run.run_campaign(binary, run.campaign_args(spec, seed) + [
        "--seconds", "0", "--out", out_dir])
    return res, run.read_bytes(os.path.join(out_dir, "rollup.json"))


def main():
    out = run.build_dir()
    run.build(out)
    binary = os.path.join(out, "wl_perfbench")
    traced = os.path.join(out, "wl_perfbench_traced")
    scratch = os.path.join(out, "reference_runs")
    os.makedirs(run.REFERENCE_DIR, exist_ok=True)
    for workload, spec in sorted(run.WORKLOADS.items()):
        for seed in (spec["seed"], spec["held_out_seed"]):
            _, rollup = campaign(binary, spec, seed, scratch)
            with open(os.path.join(run.REFERENCE_DIR,
                                   "%s-%d.json" % (workload, seed)), "wb") as f:
                f.write(rollup)
        res, _ = campaign(traced, spec, spec["seed"], scratch)
        with open(os.path.join(run.REFERENCE_DIR, "%s-%d.counts.json" % (
                workload, spec["seed"])), "w") as f:
            json.dump(res["counts"], f, indent=1, sort_keys=True)
            f.write("\n")
        pooled = {}
        seeds = list(range(1, POOL_SEEDS + 1))
        for seed in seeds:
            _, rollup = campaign(binary, spec, seed, scratch)
            for key, counts in run.cohort_counts(json.loads(rollup)).items():
                prev = pooled.get(key, [0, 0, 0, 0, 0])
                pooled[key] = [a + b for a, b in zip(prev, counts)]
        with open(os.path.join(run.REFERENCE_DIR, workload + ".pooled.json"),
                  "w") as f:
            json.dump({"seeds": seeds,
                       "columns": ["genuine_unlocked", "genuine",
                                   "false_accepts", "impostor", "sessions"],
                       "cohorts": pooled}, f, indent=1, sort_keys=True)
            f.write("\n")
        sys.stderr.write("reference: %s done\n" % workload)
    return 0


if __name__ == "__main__":
    try:
        sys.exit(main())
    except (run.BenchError, run.CampaignThrew) as e:
        sys.stderr.write("make_reference: %s\n" % e)
        sys.exit(1)
