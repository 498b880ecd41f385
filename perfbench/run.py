#!/usr/bin/env python3
"""Fleet benchmark: one workload, one seed, one JSON result line.

    python3 perfbench/run.py --workload clean_fleet --seed 20260808 \
        --seconds 20 --trace 0

Run from the root of a checkout. Builds perfbench/CMakeLists.txt (the
repo's src/ libraries plus the benchmark binaries) into
$CARGO_TARGET_DIR/perfbench (default .bench_build/perfbench), then:

  --trace 0  runs the untraced binary for --seconds and reports the
             end-to-end metrics (sessions_per_s, setup_s, peak_rss_mb,
             unlock_rate_wilson, false_accept_rate_wilson);
             sessions_per_s is probe-scaled (see scaled_rep_s) so that
             it follows the program, not the load of a shared host;
  --trace 1  splits --seconds between the untraced and the traced
             binary and reports the per-layer metrics (self time per
             session and share of worker time per layer, deterministic
             work counts, executor busy share, tracing overhead).

Every run checks the outputs (the "checks" in main and the reference
test in check_cohorts) and prints, as the last stdout line, {"correct",
"attempted", "failed", "metrics"}. A campaign that throws gives
correct false, with every session of it failed. The
lines before it are a human-readable report of every metric, including
the simulated ones that are not bounded (virtual-clock unlock latency
percentiles). The full record of a run, spans included for --trace 1,
is left in the run directory named on stderr.

Exit codes: 0 result printed; 1 the program could not be built or run;
2 bad flags.
"""
import argparse
import json
import math
import os
import shutil
import statistics
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
WORKLOADS = json.load(open(os.path.join(HERE, "workloads.json")))["workloads"]
REFERENCE_DIR = os.path.join(HERE, "reference")

# Fresh processes whose set-up time is measured per run (median reported).
SETUP_SAMPLES = 9
WILSON_Z = 1.96
# Chance that a run of the unchanged program fails the reference test,
# at most: split evenly (Bonferroni) over its one-sided tests, two rates
# x two sides for every cohort and for the whole campaign.
FAMILY_ALPHA = 0.001
# Work counts that depend on scheduling at more than one thread: each
# executor worker grows its own workspace, and PlanCache::Get builds a
# missing plan outside its lock, so racing workers can each count a miss
# (hits + misses, "dsp.plan_cache.lookups", stays exact).
SCHEDULE_DEPENDENT = {"dsp.workspace.growths", "dsp.plan_cache.hits",
                      "dsp.plan_cache.misses"}


def comparable(counts, threads):
    """The counts that must repeat exactly at this thread count."""
    return {k: v for k, v in counts.items()
            if threads == 1 or k not in SCHEDULE_DEPENDENT}

TIMED_LAYERS = [
    "audio.transmit", "audio.ambient", "sim.rng.gaussian", "dsp.fft",
    "dsp.warp", "dsp.convolve", "modem.probe", "modem.demod",
    "sensors.motion", "sensors.dtw", "protocol.setup", "protocol.teardown",
    "protocol.start", "protocol.machine", "protocol.ambient_filter",
    "obs.ingest", "obs.merge",
]
COUNT_METRICS = [
    "audio.transmit.calls", "audio.ambient.calls", "audio.samples",
    "sim.rng.gaussian.draws", "sim.queue.events", "dsp.fft.calls",
    "dsp.fft.points", "dsp.warp.calls", "dsp.convolve.calls",
    "dsp.plan_cache.lookups", "dsp.plan_cache.hits", "dsp.plan_cache.misses",
    "dsp.workspace.growths",
    "sensors.motion.pairs", "sensors.dtw.calls",
]


class BenchError(Exception):
    """The program could not be built or run: exit 1, no result line."""


class CampaignThrew(Exception):
    """The campaign threw: a correctness failure of every session."""

    def __init__(self, sessions):
        super().__init__("campaign threw")
        self.sessions = sessions


def parse_args(argv):
    def seed(text):
        value = int(text, 10)
        if not 0 <= value < 2 ** 64:
            raise ValueError(text)
        return value

    def seconds(text):
        value = int(text, 10)
        if not 1 <= value <= 600:
            raise ValueError(text)
        return value

    parser = argparse.ArgumentParser(
        prog="perfbench/run.py", allow_abbrev=False,
        description="WearLock fleet benchmark (see module docstring)")
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", required=True, type=seed)
    parser.add_argument("--seconds", required=True, type=seconds)
    parser.add_argument("--trace", required=True, type=int, choices=[0, 1])
    return parser.parse_args(argv)


# ---- build -----------------------------------------------------------

def build_dir():
    base = os.environ.get("CARGO_TARGET_DIR") or ".bench_build"
    return os.path.join(ROOT, base, "perfbench")


def build(out):
    if not os.path.isfile(os.path.join(ROOT, "src", "CMakeLists.txt")):
        raise BenchError("no WearLock sources next to perfbench/ (src/ missing)")
    os.makedirs(out, exist_ok=True)
    log_path = os.path.join(out, "build.log")
    steps = []
    if not os.path.isfile(os.path.join(out, "CMakeCache.txt")):
        steps.append(["cmake", "-S", HERE, "-B", out,
                      "-DCMAKE_BUILD_TYPE=RelWithDebInfo"])
    steps.append(["cmake", "--build", out, "-j", str(os.cpu_count() or 1)])
    with open(log_path, "w") as log:
        for cmd in steps:
            if subprocess.run(cmd, stdout=log, stderr=subprocess.STDOUT).returncode:
                raise BenchError("build failed, see " + log_path)


# ---- running the binaries ---------------------------------------------

def campaign_args(spec, seed, sessions=None, threads=None):
    """Binary flags for one campaign of a workloads.json entry."""
    return ["--seed", str(seed),
            "--sessions", str(sessions or spec["sessions"]),
            "--threads", str(threads or spec["threads"]),
            "--shard-size", str(spec["sessions_per_shard"]),
            "--faults", "|".join(spec["faults"]),
            "--impairments", "|".join(spec["impairments"])]


def run_campaign(binary, args):
    """The binary's result; CampaignThrew if the campaign threw."""
    res, rc = run_binary(binary, args)
    if rc == 3:
        raise CampaignThrew(res["sessions"] if res else 0)
    if rc != 0 or res is None:
        raise BenchError("%s exited %d" % (os.path.basename(binary), rc))
    return res


def run_binary(binary, args):
    """(parsed last stdout line or None, exit code)."""
    proc = subprocess.run([binary] + args, stdout=subprocess.PIPE,
                          stderr=subprocess.PIPE, text=True, timeout=170)
    sys.stderr.write(proc.stderr)
    lines = proc.stdout.strip().splitlines()
    try:
        return (json.loads(lines[-1]) if lines else None), proc.returncode
    except ValueError:
        return None, proc.returncode


def wilson(successes, trials, z=WILSON_Z):
    """Wilson score interval (low, centre, high); trials == 0 is vacuous."""
    if trials == 0:
        return 0.0, 0.5, 1.0
    p = successes / trials
    z2 = z * z
    denom = 1.0 + z2 / trials
    centre = (p + z2 / (2 * trials)) / denom
    half = z * math.sqrt(p * (1 - p) / trials + z2 / (4 * trials * trials)) / denom
    return max(0.0, centre - half), centre, min(1.0, centre + half)


def cohort_counts(rollup):
    return {key: (c["genuine_unlocked"], c["genuine"], c["false_accepts"],
                  c["impostor"], c["sessions"])
            for key, c in rollup["cohorts"].items()}


def load_reference(workload, seed):
    """(rollup bytes of this seed's reference or None, pooled reference)."""
    exact = os.path.join(REFERENCE_DIR, "%s-%d.json" % (workload, seed))
    data = read_bytes(exact) if os.path.isfile(exact) else None
    with open(os.path.join(REFERENCE_DIR, workload + ".pooled.json")) as f:
        return data, json.load(f)


def read_bytes(path):
    with open(path, "rb") as f:
        return f.read()


def binomial_tails(x, n, p):
    """(P(X <= x), P(X >= x)) for X ~ Binomial(n, p)."""
    if p <= 0.0 or p >= 1.0:
        pmf = [float(k == (n if p >= 1.0 else 0)) for k in range(n + 1)]
    else:
        pmf = [math.exp(math.lgamma(n + 1) - math.lgamma(k + 1)
                        - math.lgamma(n - k + 1) + k * math.log(p)
                        + (n - k) * math.log1p(-p)) for k in range(n + 1)]
    return sum(pmf[:x + 1]), sum(pmf[x:])


def leaves(x, n, reference, alpha):
    """Whether x successes in n trials leave the reference's 95% Wilson
    interval by more than chance allows: a one-sided binomial tail below
    alpha at the nearer end of the interval, so at every rate in it."""
    if n == 0:
        return False
    low, _, high = reference
    return (binomial_tails(x, n, low)[0] < alpha
            or binomial_tails(x, n, high)[1] < alpha)


def check_cohorts(run, pooled):
    """Cohorts whose unlock or false-accept rate leaves the pooled
    reference's 95% Wilson interval (see leaves), and "*" when the whole
    campaign's rates do. The whole-campaign test is the one that can see
    a false-accept change: a cohort has at most four impostors. A single
    false accept is not a failure; fresh seeds outside the pooled ones
    give one now and then. Returns {cohort key: reason}."""
    reference = pooled["cohorts"]
    alpha = FAMILY_ALPHA / (4 * (len(reference) + 1))
    cohorts = dict(run)
    cohorts["*"] = tuple(map(sum, zip(*run.values()))) if run else (0,) * 5
    ref = dict(reference)
    ref["*"] = tuple(map(sum, zip(*reference.values())))
    bad = {}
    for key, (unlocked, genuine, fa, impostor, _) in cohorts.items():
        if key not in ref:
            bad[key] = "cohort missing from the reference"
            continue
        r_unlocked, r_genuine, r_fa, r_impostor, _ = ref[key]
        if leaves(unlocked, genuine, wilson(r_unlocked, r_genuine), alpha):
            bad[key] = "unlock rate %d/%d vs reference %d/%d" % (
                unlocked, genuine, r_unlocked, r_genuine)
        elif leaves(fa, impostor, wilson(r_fa, r_impostor), alpha):
            bad[key] = "false-accept rate %d/%d vs reference %d/%d" % (
                fa, impostor, r_fa, r_impostor)
    for key in reference:
        if key not in run:
            bad[key] = "reference cohort missing from the run"
    return bad


def failed_sessions(run, bad):
    """Sessions in cohorts that failed the reference test (all of them
    when the whole campaign did)."""
    if "*" in bad:
        return sum(c[4] for c in run.values())
    return sum(run[k][4] for k in bad if k in run)


def latency_percentile(unlock_ms):
    """Highest of p99/p95/p90/p50 with at least ten samples beyond it."""
    n = unlock_ms["count"]
    for q, name in ((0.99, "p99"), (0.95, "p95"), (0.90, "p90")):
        if n * (1 - q) >= 10:
            return name, unlock_ms[name]
    return "p50", unlock_ms["p50"]


# ---- metrics ---------------------------------------------------------

def scaled_rep_s(res):
    """Each repetition's wall time divided by the host speed the
    binary's SIGPROF probe saw during it (main.cpp): probe-scaled
    seconds, which read as seconds on an undisturbed host and do not
    follow a shared host's load."""
    nominal = res["probe_nominal_ns"]
    return [w * nominal / p if p > 0 else w
            for w, p in zip(res["rep_wall_s"], res["rep_probe_ns"])]


def host_speed(res):
    """The host's speed over a whole run, relative to the probe's
    nominal: the median of the repetitions' probe medians."""
    return res["probe_nominal_ns"] / statistics.median(
        [p for p in res["rep_probe_ns"] if p > 0] or [res["probe_nominal_ns"]])


def end_to_end(untraced, setup_samples):
    rates = [untraced["sessions"] / s for s in scaled_rep_s(untraced)]
    return {
        "sessions_per_s": (statistics.median(rates), "sessions/s"),
        "setup_s": (statistics.median(setup_samples), "s"),
        "peak_rss_mb": (untraced["peak_rss_mb"], "MiB"),
        "unlock_rate_wilson": (
            wilson(untraced["genuine_unlocked"], untraced["genuine"])[1], "ratio"),
        "false_accept_rate_wilson": (
            wilson(untraced["false_accepts"], untraced["impostor"])[1], "ratio"),
    }


def per_layer(untraced, traced):
    reps = len(traced["rep_wall_s"])
    sessions = traced["sessions"] * reps
    worker_ns = traced["threads"] * sum(traced["rep_wall_s"]) * 1e9
    layers = traced["layers"]
    m = {}
    for name in TIMED_LAYERS:
        self_ns = layers[name]["self_ns"]
        m[name + ".self_ms"] = (self_ns / 1e6 / sessions, "ms/session")
        m[name + ".share"] = (self_ns / worker_ns, "ratio")
    counts = traced["counts"]
    for name in COUNT_METRICS:
        m[name] = (counts[name], "count")
    unattributed = traced["top_level_ns"] - traced["named_self_ns"]
    m["unattributed.self_ms"] = (unattributed / 1e6 / sessions, "ms/session")
    m["unattributed.share"] = (unattributed / worker_ns, "ratio")
    m["sim.executor.busy_share"] = (
        layers["sim.executor.shard"]["total_ns"] / worker_ns, "ratio")
    pairs = counts["sensors.motion.pairs"]
    m["sensors.motion.useful_ratio"] = (
        counts["sensors.dtw.calls"] / pairs if pairs else 0.0, "ratio")
    m["trace.named_share"] = (
        traced["named_self_ns"] / traced["top_level_ns"], "ratio")
    m["trace.overhead"] = (
        statistics.median(scaled_rep_s(traced))
        / statistics.median(scaled_rep_s(untraced)) - 1.0, "ratio")
    m["obs.rollup.ms"] = (untraced["rollup_ms"], "ms")
    return m


# ---- the run ---------------------------------------------------------

def main(argv):
    args = parse_args(argv)
    spec = WORKLOADS[args.workload]
    out = build_dir()
    build(out)
    run_dir = os.path.join(out, "runs", "%s-s%d-t%d" % (
        args.workload, args.seed, args.trace))
    shutil.rmtree(run_dir, ignore_errors=True)
    os.makedirs(os.path.join(run_dir, "untraced"))
    try:
        return measure(args, spec, out, run_dir)
    except CampaignThrew as e:
        print(json.dumps({"correct": False, "attempted": max(1, e.sessions),
                          "failed": max(1, e.sessions), "metrics": {}}))
        return 0


def measure(args, spec, out, run_dir):
    binary = os.path.join(out, "wl_perfbench")
    traced_binary = os.path.join(out, "wl_perfbench_traced")
    base = campaign_args(spec, args.seed)

    # setup_s is reported by --trace 0 only.
    setup_samples = [] if args.trace else [
        run_campaign(binary, base + ["--setup-only"])["setup_s"]
        for _ in range(SETUP_SAMPLES)]

    seconds = args.seconds / 2 if args.trace else args.seconds
    untraced = run_campaign(binary, base + [
        "--seconds", str(seconds), "--min-reps", "2",
        "--out", os.path.join(run_dir, "untraced")])
    setup_samples.append(untraced["setup_s"])
    reps = len(untraced["rep_wall_s"])
    attempted = untraced["sessions"] * reps
    failed = 0
    checks = {
        "rollup_repeats": untraced["rollup_repeats"],
        "counts_repeat": untraced["counts_repeat"],
        "every_session_recorded": untraced["records"] == untraced["sessions"],
    }
    failed += (untraced["sessions"] - untraced["records"]) * reps

    rollup_bytes = read_bytes(os.path.join(run_dir, "untraced", "rollup.json"))
    rollup = json.loads(rollup_bytes)
    ref_bytes, pooled = load_reference(args.workload, args.seed)
    run_counts = cohort_counts(rollup)
    bad = check_cohorts(run_counts, pooled)
    failed += failed_sessions(run_counts, bad) * reps
    flags = {
        "rollup_matches_reference": (None if ref_bytes is None
                                     else ref_bytes == rollup_bytes),
        "cohorts_outside_reference": bad,
    }

    traced = None
    if args.trace:
        os.makedirs(os.path.join(run_dir, "traced"))
        traced = run_campaign(traced_binary, base + [
            "--seconds", str(seconds), "--min-reps", "1",
            "--out", os.path.join(run_dir, "traced")])
        traced_bytes = read_bytes(os.path.join(run_dir, "traced", "rollup.json"))
        checks["traced_rollup_identical"] = traced_bytes == rollup_bytes
        checks["traced_counts_repeat"] = traced["counts_repeat"]
        checks["traced_counts_match_untraced"] = all(
            traced["counts"][k] == v for k, v in
            comparable(untraced["counts"], traced["threads"]).items())
        flags["named_layers_cover_85pct"] = (
            traced["named_self_ns"] >= 0.85 * traced["top_level_ns"])
        ref_counts_path = os.path.join(
            REFERENCE_DIR, "%s-%d.counts.json" % (args.workload, args.seed))
        if os.path.isfile(ref_counts_path):
            ref = json.load(open(ref_counts_path))
            flags["counts_match_reference"] = all(
                traced["counts"].get(k) == v for k, v in
                comparable(ref, traced["threads"]).items())
        if traced["threads"] > 1:
            checks["counts_thread_invariant"] = thread_invariance(
                traced_binary, spec, args.seed, traced["threads"], run_dir)

    correct = all(checks.values()) and failed == 0
    metrics = per_layer(untraced, traced) if args.trace else end_to_end(
        untraced, setup_samples)

    percentile, latency = latency_percentile(untraced["unlock_ms"])
    report = {
        "workload": args.workload, "seed": args.seed, "trace": args.trace,
        "threads": untraced["threads"], "sessions_per_campaign": untraced["sessions"],
        "timed_reps": reps, "rep_wall_s": untraced["rep_wall_s"],
        "rep_scaled_s": scaled_rep_s(untraced),
        "host_speed": host_speed(untraced),
        "wall_sessions_per_s": statistics.median(
            untraced["sessions"] / w for w in untraced["rep_wall_s"]),
        "setup_samples_s": setup_samples,
        "unlock_rate": untraced["genuine_unlocked"] / max(1, untraced["genuine"]),
        "false_accept_rate": untraced["false_accepts"] / max(1, untraced["impostor"]),
        "genuine": untraced["genuine"], "impostor": untraced["impostor"],
        "unlock_ms_p50": untraced["unlock_ms"]["p50"],
        "unlock_ms_tail": {"percentile": percentile, "value": latency,
                           "sessions": untraced["unlock_ms"]["count"]},
        "provenance": provenance(out, untraced),
        "checks": checks, "flags": flags,
        "untraced": untraced, "traced": traced,
    }
    with open(os.path.join(run_dir, "result.json"), "w") as f:
        json.dump(report, f, indent=1)

    print("workload %s  seed %d  threads %d  sessions/campaign %d  reps %d" % (
        args.workload, args.seed, untraced["threads"], untraced["sessions"], reps))
    print("  host speed %.3f of the probe's nominal; unscaled %.6g sessions/s" % (
        report["host_speed"], report["wall_sessions_per_s"]))
    print("  unlock_rate %.4f (%d/%d)  false_accept_rate %.4f (%d/%d)" % (
        report["unlock_rate"], untraced["genuine_unlocked"], untraced["genuine"],
        report["false_accept_rate"], untraced["false_accepts"], untraced["impostor"]))
    print("  unlock_ms_p50 %.1f ms  unlock_ms_%s %.1f ms (virtual clock, %d sessions)" % (
        report["unlock_ms_p50"], percentile, latency, untraced["unlock_ms"]["count"]))
    for name, ok in sorted(checks.items()):
        print("  check %-30s %s" % (name, "ok" if ok else "FAILED"))
    print("  rollup byte-identical to this seed's reference: %s" % (
        "no reference for this seed" if ref_bytes is None
        else flags["rollup_matches_reference"]))
    print("  cohorts outside the reference Wilson intervals: %d" % len(bad))
    for key, reason in sorted(bad.items()):
        print("    %s: %s" % (key, reason))
    for name, (value, unit) in sorted(metrics.items()):
        print("  %-36s %.6g %s" % (name, value, unit))
    sys.stderr.write("perfbench: run record in %s\n" % run_dir)

    print(json.dumps({
        "correct": bool(correct), "attempted": int(attempted), "failed": int(failed),
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }))
    return 0


def provenance(out, untraced):
    cache = {}
    for line in open(os.path.join(out, "CMakeCache.txt")):
        key, sep, value = line.strip().partition("=")
        if sep and not key.startswith(("#", "//")):
            cache[key.split(":")[0]] = value
    compiler = cache.get("CMAKE_CXX_COMPILER", "c++")
    version = subprocess.run([compiler, "--version"], stdout=subprocess.PIPE,
                             stderr=subprocess.DEVNULL, text=True).stdout
    return {
        "nproc": os.cpu_count(),
        "hardware_concurrency": untraced["hardware_concurrency"],
        "build_type": cache.get("CMAKE_BUILD_TYPE"),
        "compiler": version.splitlines()[0] if version else compiler,
        "fixed_host_timing_ms": untraced["fixed_host_timing_ms"],
    }


def thread_invariance(traced_binary, spec, seed, threads_max, run_dir):
    """Work counts of a short campaign must not depend on thread count."""
    counts = []
    for threads in (1, threads_max):
        res = run_campaign(traced_binary, campaign_args(
            spec, seed, spec["invariance_sessions"], threads) + ["--seconds", "0"])
        counts.append(comparable(res["counts"], threads_max))
    with open(os.path.join(run_dir, "thread_invariance.json"), "w") as f:
        json.dump(counts, f, indent=1)
    return counts[0] == counts[1]


if __name__ == "__main__":
    try:
        sys.exit(main(sys.argv[1:]))
    except BenchError as e:
        sys.stderr.write("perfbench: %s\n" % e)
        sys.exit(1)
