#!/usr/bin/env python3
"""A/A mode: run each workload repeatedly on the same code and report, for
every metric, its median, quartiles and spread against the bound
BENCHMARK.json fixes.

    python3 tripsbench/aa.py [--runs 10] [--sets 2] [--workloads a,b]
                             [--seconds S] [--trace] [--out FILE]

Run from the repository root. Set k uses seeds k*1000+1 .. k*1000+runs.
Spread is (Q3 - Q1) / median, with quartiles from
`statistics.quantiles(values, n=4)`. With two sets, the second set's median
is compared with the first's ("drift", positive = worse). With --trace the
runs are traced and the per-layer metrics are summarised instead (no
bounds). Every run must print `correct: true` and `failed: 0`.
"""

import argparse
import json
import statistics
import subprocess
import sys
import time


def run_once(command, workload, seed, seconds, trace):
    args = command + ["--workload", workload, "--seed", str(seed),
                      "--seconds", str(seconds), "--trace", "1" if trace else "0"]
    start = time.monotonic()
    proc = subprocess.run(args, capture_output=True, text=True, timeout=900)
    took = time.monotonic() - start
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        sys.exit(f"{workload} seed {seed}: exit {proc.returncode}\n{proc.stderr[-2000:]}")
    result = json.loads(lines[-1])
    report = json.loads(lines[-2]).get("report", {}) if len(lines) > 1 else {}
    if not result["correct"] or result["failed"] != 0:
        sys.exit(f"{workload} seed {seed}: incorrect output: {report}")
    return result, took, report.get("steal_share")


def summarise(values):
    q1, med, q3 = statistics.quantiles(values, n=4)
    return {"median": med, "q1": q1, "q3": q3,
            "spread": (q3 - q1) / abs(med) if med else float("inf")}


def main():
    ap = argparse.ArgumentParser()
    ap.add_argument("--runs", type=int, default=10)
    ap.add_argument("--sets", type=int, default=1)
    ap.add_argument("--workloads", default="")
    ap.add_argument("--seconds", type=int, default=0)
    ap.add_argument("--trace", action="store_true")
    ap.add_argument("--out", default="")
    opts = ap.parse_args()

    with open("BENCHMARK.json") as f:
        bench = json.load(f)
    workloads = opts.workloads.split(",") if opts.workloads else [w["name"] for w in bench["workloads"]]
    seconds = opts.seconds or bench["run_seconds"]
    metrics = {m["name"]: m for m in bench["end_to_end"]}

    values = {}  # (set, workload, metric) -> [values]
    took = {}
    steal = {}  # set -> [each run's host steal share]
    for k in range(1, opts.sets + 1):
        # Workloads interleave, so host drift spreads over all of them.
        for i in range(opts.runs):
            seed = k * 1000 + i + 1
            for w in workloads:
                result, t, s = run_once(bench["command"], w, seed, seconds, opts.trace)
                took.setdefault(w, []).append(t)
                if s is not None:
                    steal.setdefault(k, []).append(s)
                for name, m in result["metrics"].items():
                    values.setdefault((k, w, name), []).append(m["value"])
                print(f"set {k} {w} seed {seed}: {t:.1f}s", file=sys.stderr, flush=True)

    out = {"runs": opts.runs, "sets": opts.sets, "seconds": seconds, "trace": opts.trace,
           "wall_s_per_run": {w: statistics.median(v) for w, v in took.items()},
           "values": {f"{k}/{w}/{n}": v for (k, w, n), v in values.items()},
           "steal_share": {str(k): v for k, v in steal.items()},
           "summary": []}
    header = f"{'workload':15} {'metric':38} {'set':>3} {'median':>14} {'q1':>14} {'q3':>14} {'spread':>7} {'bound':>6} {'drift':>7}  verdict"
    print(header)
    worst = 0.0
    for w in workloads:
        names = sorted({n for (_, ww, n) in values if ww == w}, key=lambda n: (n not in metrics, n))
        for n in names:
            first = None
            for k in range(1, opts.sets + 1):
                s = summarise(values[(k, w, n)])
                bound = metrics.get(n, {}).get("bound")
                drift = None
                if first is not None and n in metrics:
                    sign = 1 if metrics[n]["better"] == "lower" else -1
                    drift = sign * (s["median"] - first["median"]) / abs(first["median"])
                verdict = ""
                if bound is not None:
                    ok_spread = s["spread"] <= bound
                    ok_drift = drift is None or drift <= bound
                    verdict = "ok" if ok_spread and ok_drift else "FAIL"
                    worst = max(worst, s["spread"] / bound)
                    if s["spread"] > bound / 3:
                        verdict += " (spread > bound/3)"
                first = first or s
                out["summary"].append({"workload": w, "metric": n, "set": k, **s,
                                       "bound": bound, "drift": drift, "verdict": verdict})
                print(f"{w:15} {n:38} {k:>3} {s['median']:>14.6g} {s['q1']:>14.6g} {s['q3']:>14.6g} "
                      f"{s['spread']:>7.4f} {bound if bound is not None else '':>6} "
                      f"{'' if drift is None else format(drift, '.4f'):>7}  {verdict}")
    if not opts.trace:
        print(f"largest spread / bound: {worst:.3f}")
    print("host steal share per set (median, max): " +
          ", ".join(f"set {k} {statistics.median(v):.3f} {max(v):.3f}" for k, v in steal.items()))
    print("wall seconds per run (median): " +
          ", ".join(f"{w} {t:.1f}" for w, t in out["wall_s_per_run"].items()))
    if opts.out:
        with open(opts.out, "w") as f:
            json.dump(out, f, indent=1)


if __name__ == "__main__":
    main()
