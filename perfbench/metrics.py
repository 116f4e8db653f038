"""Pure metric logic for perfbench: quantiles, schedules, aggregation.

Nothing here starts a process or reads a clock, so test_metrics.py can
pin every rule the benchmark reports by. run.py measures; this module
turns raw samples into the named metrics.
"""

import json
import math
import os
import random
from collections import Counter

BENCHMARK_JSON = os.path.join(os.path.dirname(os.path.abspath(__file__)),
                              os.pardir, "BENCHMARK.json")


def quantile(values, q):
    """Exact quantile of raw samples, linear between closest ranks.

    The rule of statistics.quantiles(..., method="inclusive"): rank
    q*(n-1), interpolated. No histogram buckets are involved.
    """
    if not values:
        raise ValueError("quantile of no samples")
    if not 0.0 <= q <= 1.0:
        raise ValueError("q outside [0, 1]")
    xs = sorted(values)
    pos = q * (len(xs) - 1)
    lo = math.floor(pos)
    hi = min(lo + 1, len(xs) - 1)
    return xs[lo] + (xs[hi] - xs[lo]) * (pos - lo)


def median(values):
    return quantile(values, 0.5)


def poisson_schedule(seed, rate, count):
    """Send offsets (s) of `count` Poisson arrivals at `rate` per second.

    Exponential gaps from a private generator, so one seed always gives
    the same schedule whatever else the process draws.
    """
    rng = random.Random(seed)
    t = 0.0
    out = []
    for _ in range(count):
        t += rng.expovariate(rate)
        out.append(t)
    return out


# ----------------------------------------------------------- algo1_qkp200

# About the calibration chunk's time between steps on the development box
# (4-vCPU Xeon VM, 0.46 ms). Times are reported as if every chunk had
# taken this long.
CAL_REF_MS = 0.5


def window_reference(cal_ms, window):
    """Median of the calibration chunks around one window of steps.

    Chunk w runs before window w and chunk w+1 after it; taking the six
    chunks from w-2 to w+3 keeps one stalled chunk from skewing a window.
    """
    return median(cal_ms[max(0, window - 2):window + 4])


def reference_steps(inst):
    """Step times (ms) scaled to the reference host speed."""
    every, cal = inst["calibrate_every"], inst["cal_ms"]
    return [s * CAL_REF_MS / window_reference(cal, k // every)
            for k, s in enumerate(inst["step_ms"])]


def censored_first_feasible(inst):
    """(ttff_s, mcs) for one instance record from perfbench_algo1.

    An instance that never produced a feasible sample is charged its
    whole solve: all of its step time and K x MCS-per-run sweeps. Making
    it feasible therefore lowers both sums.
    """
    if inst["first_feasible_iter"] >= 0:
        return inst["ttff_ms"] / 1e3, inst["sweeps_to_feasible"]
    return (sum(inst["step_ms"]) / 1e3,
            inst["iterations"] * inst["mcs_per_run"])


def gap_pct(inst):
    """100 * (best - ref) / |ref| against the greedy_qkp cost.

    The reference is fixed by the instance, not by any solver result, so
    it cannot drift with the solver it judges. Costs are negative
    profits: a negative gap beats greedy. Never feasible counts as 100.
    """
    if not inst["found_feasible"]:
        return 100.0
    ref = inst["greedy_cost"]
    return 100.0 * (inst["best_cost"] - ref) / abs(ref)


def algo1_summary(instances):
    """Aggregates over the instance records of one perfbench_algo1 run.

    Quality, the *_s sums and cpu_s use raw times; p50_ms, p99_ms and
    instance_ms use reference-speed times.
    """
    steps = [s for inst in instances for s in inst["step_ms"]]
    ref = [reference_steps(i) for i in instances]
    ttff = [censored_first_feasible(i) for i in instances]
    runs = sum(i["total_runs"] for i in instances)
    return {
        "solve_s": sum(steps) / 1e3,
        "ttff_s": sum(t for t, _ in ttff),
        "mcs_to_feasible": sum(mcs for _, mcs in ttff),
        "gap_pct": sum(gap_pct(i) for i in instances) / len(instances),
        "feasible_pct": 100.0 * sum(i["feasible_count"]
                                    for i in instances) / runs,
        "never_feasible": sum(1 for i in instances
                              if i["first_feasible_iter"] < 0),
        "samples": len(steps),
        "p50_ms": median([s for r in ref for s in r]),
        "p99_ms": quantile([s for r in ref for s in r], 0.99),
        "instance_ms": [sum(r) for r in ref],
        "cpu_s": sum(i["cpu_s"] for i in instances),
    }


def check_matches(check):
    """True when the stepped solve equals SaimSolver::solve (same seed)."""
    keys = ("found_feasible", "best_cost", "feasible_count", "total_sweeps")
    return all(check["stepped"][k] == check["solve"][k] for k in keys)


def algo1_e2e(setups, summary):
    """End-to-end metrics; a job is one outer iteration (one sample).

    Set-up is scaled like the steps, by the chunks that followed it.
    """
    scale = CAL_REF_MS / median([x["cal_ms"] for x in setups])
    return {
        "setup_s": scale * median([x["total_ms"] for x in setups]) / 1e3,
        "p50_ms": summary["p50_ms"],
    }


def algo1_layers(setups, traced, untraced_p50_ms):
    """Per-layer metrics and table rows from a --trace 1 driver run."""
    t = algo1_summary(traced)
    steps = t["samples"]
    step_total = 1e3 * t["solve_s"]
    run_ms = [x for i in traced for x in i["run_ms"]]
    run_total = sum(run_ms)
    fields = sum(i["fields_updated_ms"] for i in traced)
    judge = sum(i["judge_ms"] for i in traced)
    mcs = sum(i["traced_mcs"] for i in traced)
    layers = {
        "job.setup_ms": median([(x["build_ms"] + x["bind_ms"]) / len(traced)
                                for x in setups]),
        "job.solve_ms": median(t["instance_ms"]),
        "solve.mcs_per_s": 1e3 * mcs / sum(t["instance_ms"]),
        "client.p99_ms": t["p99_ms"],
        "trace.overhead_pct": 100.0 * (t["p50_ms"] / untraced_p50_ms - 1.0),
        "proc.cpu_ms_per_job": 1e3 * t["cpu_s"] / steps,
    }
    rows = [(name, median([x[key] for x in setups]), "ms", "8 instances")
            for key, name in (("map_ms", "problems.map_ms"),
                              ("build_ms", "lagrange.build_ms"),
                              ("bind_ms", "anneal.bind_ms"))]
    rows += [
        ("anneal.run_ms", median(run_ms), "ms", "median inner run"),
        ("anneal.mcs_per_s", mcs / (run_total / 1e3), "1/s", "inside run"),
        ("anneal.run_share_pct", 100.0 * run_total / step_total, "%", ""),
        ("anneal.fields_updated_us", 1e3 * fields / steps, "us", "per step"),
        ("core.judge_us", 1e3 * judge / steps, "us", "per step"),
        ("core.step_self_us",
         1e3 * (step_total - run_total - fields - judge) / steps, "us",
         "per step"),
    ]
    return layers, rows


# ----------------------------------------------------------- server runs

def delivery_failures(sent_ids, replies):
    """Number of jobs not answered exactly once, completed, in sequence.

    `replies` holds the parsed result lines of one session. A job fails
    when it has no reply or several, when its status is not `completed`,
    or when its `seq` is missing, repeated or outside 0..n-1; with every
    job passing, the seqs are exactly 0..n-1. Replies to ids never sent
    count as failures too.
    """
    sent = set(sent_ids)
    ids = Counter(r.get("id") for r in replies)
    seqs = Counter(r.get("seq") for r in replies)
    by_id = {r.get("id"): r for r in replies}
    failed = 0
    for job_id in sent:
        r = by_id.get(job_id)
        seq = r.get("seq") if r else None
        if (ids[job_id] != 1 or r.get("status") != "completed"
                or not isinstance(seq, int) or not 0 <= seq < len(sent)
                or seqs[seq] != 1):
            failed += 1
    return failed + sum(c for i, c in ids.items() if i not in sent)


def echo_stage(replies, stage):
    """Per-job values of one `timing` stage echoed by traced jobs."""
    return [r["timing"][stage] for r in replies if "timing" in r]


# About the time run.py takes to spawn and reap `true` on the development
# box (1.2 ms). Server set-up is reported as if every spawn had taken this
# long.
SPAWN_REF_MS = 1.2


def server_e2e(session):
    """End-to-end metrics of one server session.

    Set-up is scaled by the spawns of `true` timed before each set-up,
    which follow the host's process start-up speed (README.md). Latency is
    as measured: no probe was found that tracks it.
    """
    return {
        "setup_s": median(session["setups"]) * SPAWN_REF_MS
                   / median(session["spawn_ms"]),
        "p50_ms": median(session["lat_ms"]),
    }


def server_layers(session, untraced_p50_ms):
    """Per-layer metrics of a traced server session."""
    replies = [x for x in session["replies"] if "timing" in x]
    solve_ms = sum(x["timing"]["solve_ms"] for x in replies)
    traced_p50_ms = server_e2e(session)["p50_ms"]
    return {
        "job.setup_ms": median(echo_stage(replies, "setup_ms")),
        "job.solve_ms": median(echo_stage(replies, "solve_ms")),
        "solve.mcs_per_s": 1e3 * sum(x["total_sweeps"] for x in replies)
                           / solve_ms,
        "client.p99_ms": quantile(session["lat_ms"], 0.99),
        "trace.overhead_pct": 100.0 * (traced_p50_ms / untraced_p50_ms - 1.0),
        "proc.cpu_ms_per_job": 1e3 * session["cpu"] / session["n"],
    }


def batch_size_mean(replies):
    """Jobs per batch execution: a batch of b jobs reports b on each."""
    sizes = [r["batch_size"] for r in replies if "batch_size" in r]
    return len(sizes) / sum(1.0 / b for b in sizes)


# ----------------------------------------------------------- the contract

def load_contract():
    with open(BENCHMARK_JSON, encoding="utf-8") as f:
        return json.load(f)


def result_line(correct, attempted, failed, values, trace, contract):
    """The last stdout line: every metric of the traced or untraced set.

    Raises if `values` does not hold exactly the names the contract lists
    for this mode, so a renamed metric fails loudly instead of silently
    dropping out of the comparison.
    """
    specs = contract["per_layer" if trace else "end_to_end"]
    names = {s["name"] for s in specs}
    if set(values) != names:
        raise ValueError("metrics %s do not match the contract %s"
                         % (sorted(values), sorted(names)))
    metrics = {s["name"]: {"value": values[s["name"]], "unit": s["unit"]}
               for s in specs}
    return json.dumps({"correct": bool(correct), "attempted": int(attempted),
                       "failed": int(failed), "metrics": metrics})
