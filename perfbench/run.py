#!/usr/bin/env python3
"""The flow's benchmark: build, run one workload, check, report.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a source checkout. It builds the benchmark program
(perfbench/bench.ml) and the mamps_flow binary with dune, times the
workload's set-up from outside, runs the workload for S seconds, checks
every output, scales wall times by the host reference timed between ops
(host.ml), and prints the metrics named in BENCHMARK.json: the
end-to-end ones with --trace 0, the per-layer ones with --trace 1. The
last line of standard output is one JSON object with the keys correct,
attempted, failed and metrics. The exit code is 0 when every output was
correct, 1 when one was wrong, 2 when the run could not be made.
README.md next to this file documents the workloads and the metrics.
"""

import argparse
import json
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
BENCH_EXE = ROOT / "_build" / "default" / "perfbench" / "bench.exe"
DAEMON_EXE = ROOT / "_build" / "default" / "bin" / "mamps_flow.exe"
WORK = HERE / "_work"

WORKLOADS = ("mjpeg_map", "dse_sweep", "conformance_seeds", "serve_jobs")

# how many cold starts the set-up time is the median of
SETUP_RUNS = 21

# the paper's case study: 1/43249 MCU per cycle (23.121922 MCU/MHz/s, as
# in figure6a.csv) on FSL and on the NoC, reached at buffer scale 4
MJPEG_GUARANTEE = [1, 43249]
MJPEG_BUFFER_SCALE = 4

# the seeds one pass of conformance_seeds checks (range_size in bench.ml)
CONFORMANCE_PASS = 400

# the Pareto front of the tiles 1..5 x {fsl, noc} sweep of the case study
DSE_FRONT = [
    ["fsl", 1, [1, 77765], 1760],
    ["fsl", 2, [1, 43814], 3460],
    ["fsl", 3, [1, 43249], 5060],
]

# The nominal host is one on which the host reference (host.ml) takes
# this long, about what it takes on the 2-core x86-64 VM at 2.0 GHz the
# baseline in README.md was measured on. Timing metrics are wall times
# scaled by this over the reference's median time in the same run, so
# they read as seconds on the nominal host, whatever other tenants of the
# machine do to its speed while it runs.
NOMINAL_REF_S = 0.008


class RunError(Exception):
    """The run could not be made (build failure, program crash)."""


def load_spec():
    with open(ROOT / "BENCHMARK.json") as f:
        return json.load(f)


def tail(samples):
    """The highest percentile with at least ten samples beyond it, never
    below the median. Returns (value, percentile, sample count)."""
    s = sorted(samples)
    n = len(s)
    k = max(n - 10, n // 2 + 1)  # 1-based rank
    return s[k - 1], 100.0 * k / n, n


def host_scale(raw):
    """Nominal over measured time of the host reference in this run."""
    if not raw.get("host_ref_s"):
        raise RunError("the run took no sample of the host reference")
    return NOMINAL_REF_S / statistics.median(raw["host_ref_s"])


def per_mhz_s(g):
    """Iterations per cycle as [num, den] -> iterations per MHz per second."""
    return g[0] * 1e6 / g[1]


def evaluate(workload, raw):
    """Checks every output and derives the end-to-end figures.

    Returns (attempted, failed, end-to-end metric values, notes), where a
    note is a line of text printed beside the metrics. Times are in
    nominal-host seconds (see NOMINAL_REF_S); the notes give the raw
    ones."""
    notes = []
    extra_failures = 0
    tail_times = None
    if workload == "mjpeg_map":
        ops = raw["ops"]
        ok = [
            o["guarantee"] == MJPEG_GUARANTEE
            and o["buffer_scale"] == MJPEG_BUFFER_SCALE
            for o in ops
        ]
        times = [o["s"] for o in ops]
        # FSL and NoC ops differ by about a fifth: the median is taken
        # over FSL+NoC pairs, not over a two-humped mix
        rounds = [statistics.mean(times[i:i + 2])
                  for i in range(0, len(times) - 1, 2)]
        units = [(2, 2 * r) for r in rounds]
        guarantee = statistics.median(
            per_mhz_s(o["guarantee"]) for o in ops if o["guarantee"])
        buffers = statistics.median(o["buffer_bytes"] for o in ops)
    elif workload == "dse_sweep":
        ops, ok = [], []
        for sweep in raw["ops"]:
            good = sweep["front"] == DSE_FRONT and sweep["failures"] == 0
            ops += sweep["points"]
            ok += [good] * len(sweep["points"])
            ok += [False] * sweep["failures"]
        times = [p["s"] for p in ops]
        # the ten design points take 1 ms to 1.3 s: the median is taken
        # over whole sweeps
        rounds = [statistics.mean(p["s"] for p in sweep["points"])
                  for sweep in raw["ops"] if sweep["points"]]
        units = [(len(sweep["points"]), sweep["wall"]) for sweep in raw["ops"]]
        best = [s["best_guarantee"] for s in raw["ops"] if s["best_guarantee"]]
        guarantee = statistics.median(per_mhz_s(g) for g in best)
        buffers = statistics.median(s["best_buffer_bytes"] for s in raw["ops"])
    elif workload == "conformance_seeds":
        ops = raw["ops"]
        rounds = None
        units = [(CONFORMANCE_PASS, sum(o["s"] for o in ops[i:i + CONFORMANCE_PASS]))
                 for i in range(0, len(ops), CONFORMANCE_PASS)]
        ok = [o["passed"] and o["violations"] == 0 and o["cases"] == 1
              for o in ops]
        times = [o["s"] for o in ops]
        # the tail is taken over each seed's median time: every pass runs
        # the same seeds, and a few of them take hundreds of times the
        # median seed, so over single ops the tail rank would move from one
        # slow seed to the next with the number of passes a run fits in
        by_seed = {}
        for o in ops:
            by_seed.setdefault(o["seed"], []).append(o["s"])
        tail_times = [statistics.median(v) for v in by_seed.values()]
        guarantee = statistics.median(
            per_mhz_s(o["guarantee"]) for o in ops if o["guarantee"])
        buffers = statistics.median(o["buffer_bytes"] for o in ops)
    elif workload == "serve_jobs":
        ops = raw["ops"]
        rounds = None
        # one phase, the clients' requests interleaved
        units = [(len(ops), raw["measured_s"])]
        ok = [
            o["http"] == 200 and o["status"] == "completed"
            and o["guarantee"] != [] and o["guarantee"] == o["expected"]
            for o in ops
        ]
        times = [o["s"] for o in ops]
        guarantee = statistics.median(
            per_mhz_s(o["guarantee"]) for o in ops if o["guarantee"])
        buffers = statistics.median(o["buffer_bytes"] for o in ops)
        if raw["executed"] != raw["distinct"]:
            extra_failures = 1
            notes.append("serve.jobs.executed %d != %d distinct graphs"
                         % (raw["executed"], raw["distinct"]))
    else:
        raise RunError("unknown workload %r" % workload)
    attempted = len(ok)
    failed = min(attempted, ok.count(False) + extra_failures)
    scale = host_scale(raw)
    tail_value, pct, n = tail(tail_times or times)
    p50 = statistics.median(rounds or times)
    # the median unit, not the run's sum: a unit the host stalled does not
    # move it
    ops_per_s = statistics.median(k / s for k, s in units if s > 0)
    notes.append("op_tail_s is p%.1f of %d %s" % (
        pct, n, "seed medians" if tail_times else "samples"))
    notes.append("host reference %.6g s against %.6g s nominal (median of"
                 " %d), so wall times are scaled by %.4f; unscaled:"
                 " op_p50_s %.6g, op_tail_s %.6g, ops_per_s %.6g"
                 % (NOMINAL_REF_S / scale, NOMINAL_REF_S,
                    len(raw["host_ref_s"]), scale, p50, tail_value,
                    ops_per_s))
    values = {
        "op_p50_s": p50 * scale,
        "op_tail_s": tail_value * scale,
        "ops_per_s": ops_per_s / scale,
        "ok_ratio": 1.0 - failed / attempted,
        "peak_rss_mb": raw["peak_rss_kb"] / 1024.0,
        "guarantee_mcu_per_mhz_s": guarantee,
        "buffer_bytes": float(buffers),
    }
    return attempted, failed, values, notes


def metrics_for(spec, trace, values, layers):
    """The metrics BENCHMARK.json names for this kind of run, with their
    units. A per-layer figure the program did not record (a layer the
    workload does not reach) reads 0."""
    if trace:
        unknown = sorted(set(layers) - {m["name"] for m in spec["per_layer"]})
        if unknown:
            raise RunError("per-layer figures missing from BENCHMARK.json: %s"
                           % ", ".join(unknown))
        return {m["name"]: {"value": layers.get(m["name"], 0.0),
                            "unit": m["unit"]}
                for m in spec["per_layer"]}
    return {m["name"]: {"value": values[m["name"]], "unit": m["unit"]}
            for m in spec["end_to_end"]}


def build():
    if not (ROOT / "dune-project").is_file():
        raise RunError("no dune-project at %s: not a source checkout" % ROOT)
    cmd = ["dune", "build", "--root", str(ROOT), "--display", "quiet",
           "--cache", "disabled",
           "./perfbench/bench.exe", "./bin/mamps_flow.exe"]
    p = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True,
                       timeout=850)
    if p.returncode != 0:
        raise RunError("build failed:\n" + p.stderr[-4000:])


def bench_cmd(workload, seed, seconds, trace):
    return [str(BENCH_EXE), "--workload", workload, "--seed", str(seed),
            "--seconds", str(seconds), "--trace", str(trace),
            "--daemon", str(DAEMON_EXE), "--work", str(WORK)]


def setup_seconds(workload):
    """Median wall time of cold starts that stop where the first op
    would begin."""
    times = []
    for _ in range(SETUP_RUNS):
        t0 = time.perf_counter()
        p = subprocess.run(bench_cmd(workload, 0, 0, 0) + ["--setup-only"],
                           cwd=ROOT, capture_output=True, text=True,
                           timeout=60)
        times.append(time.perf_counter() - t0)
        if p.returncode != 0:
            raise RunError("set-up failed:\n" + p.stderr[-4000:])
    return statistics.median(times)


def run_workload(workload, seed, seconds, trace):
    p = subprocess.run(bench_cmd(workload, seed, seconds, trace), cwd=ROOT,
                       capture_output=True, text=True, timeout=170)
    if p.returncode != 0:
        raise RunError("bench.exe exited %d:\n%s"
                       % (p.returncode, p.stderr[-4000:]))
    lines = p.stdout.strip().splitlines()
    if not lines:
        raise RunError("bench.exe printed nothing")
    # one line per op, then the summary
    raw = json.loads(lines[-1])
    raw["ops"] = [json.loads(line) for line in lines[:-1]]
    return raw


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    try:
        spec = load_spec()
        build()
        WORK.mkdir(exist_ok=True)
        setup = None if args.trace else setup_seconds(args.workload)
        raw = run_workload(args.workload, args.seed, args.seconds, args.trace)
        attempted, failed, values, notes = evaluate(args.workload, raw)
        if setup is not None:
            # the cold starts ran just before, on the same host
            values["setup_s"] = setup * host_scale(raw)
            notes.append("unscaled setup_s %.6g" % setup)
        metrics = metrics_for(spec, args.trace, values, raw.get("layers", {}))
    except (RunError, OSError, ValueError, KeyError,
            subprocess.TimeoutExpired) as e:
        print("benchmark run failed: %s" % e, file=sys.stderr)
        return 2
    for note in notes:
        print(note)
    for name, m in metrics.items():
        print("%-34s %16.6g %s" % (name, m["value"], m["unit"]))
    correct = failed == 0
    print(json.dumps({"correct": correct, "attempted": attempted,
                      "failed": failed, "metrics": metrics}))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
