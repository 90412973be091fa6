"""Run every workload over several seeds and summarize each metric.

    python3 perfbench/suite.py --out perfbench/baseline.json
    python3 perfbench/suite.py --first-seed 11    # a second set, other seeds

Run from the repository root.  Each workload gets ``RUNS`` untraced and
``TRACE_RUNS`` traced ``run.py`` runs of ``run_seconds`` from
``BENCHMARK.json``, one seed each, counting up from ``--first-seed``.  For
every metric the table gives the median, the quartiles
(``statistics.quantiles(n=4)``), the sample count and the spread
(interquartile distance over the median) against the metric's bound.  Exits
non-zero if any output check failed.
"""

import argparse
import json
import os
import statistics
import subprocess
import sys

import workloads

HERE = os.path.dirname(os.path.abspath(__file__))
RUNS = 10
TRACE_RUNS = 3


def one_run(workload, seed, seconds, trace):
    cmd = [sys.executable, os.path.join(HERE, "run.py"), "--workload", workload,
           "--seed", str(seed), "--seconds", str(seconds), "--trace", str(trace)]
    proc = subprocess.run(cmd, capture_output=True, text=True, timeout=600)
    if proc.returncode != 0:
        sys.exit(f"{' '.join(cmd)} failed:\n{proc.stderr[-2000:]}")
    lines = proc.stdout.strip().splitlines()
    with open(json.loads(lines[-2])["result_file"]) as fh:
        record = json.load(fh)
    return json.loads(lines[-1]), record


def summarize(values):
    q1, q2, q3 = statistics.quantiles(values, n=4) if len(values) > 1 else values * 3
    return {"median": statistics.median(values), "q1": q1, "q3": q3, "n": len(values)}


def collect(workload, seeds, seconds, trace):
    per_metric, attempted, failed = {}, 0, 0
    for seed in seeds:
        result, record = one_run(workload, seed, seconds, trace)
        attempted += result["attempted"]
        failed += result["failed"]
        metrics = dict(result["metrics"])
        if not trace:  # raw seconds beside the normalized ones, unbounded, to show the drift
            metrics["wall_s"] = {"unit": "s", "value": statistics.median(
                s["wall_s"] for s in record["samples"])}
            metrics["setup_raw_s"] = {"unit": "s", "value": statistics.median(
                record["setup_samples"]["setup_raw_s"])}
        for name, m in metrics.items():
            per_metric.setdefault(name, (m["unit"], []))[1].append(m["value"])
        print(f"  {workload} seed {seed} trace {trace}: failed {result['failed']}/"
              f"{result['attempted']}", file=sys.stderr)
    table = {name: {"unit": unit, **summarize(vals)} for name, (unit, vals) in per_metric.items()}
    return table, attempted, failed, record["env"]


def print_table(workload, table, bounds):
    print(f"\n{workload}")
    print(f"  {'metric':50s} {'unit':6s} {'median':>12s} {'q1':>12s} {'q3':>12s} {'n':>3s}"
          f" {'spread':>7s} {'bound':>6s}")
    for name, s in table.items():
        spread = (s["q3"] - s["q1"]) / s["median"] if s["median"] else float("nan")
        bound = bounds.get(name)
        print(f"  {name:50s} {s['unit']:6s} {s['median']:12.6g} {s['q1']:12.6g} {s['q3']:12.6g}"
              f" {s['n']:3d} {spread:7.4f} {bound if bound is not None else '':>6}")


def main():
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--first-seed", type=int, default=1)
    parser.add_argument("--out", default=None, help="write the summary here as JSON")
    args = parser.parse_args()

    with open("BENCHMARK.json") as fh:
        spec = json.load(fh)
    seconds = spec["run_seconds"]
    bounds = {m["name"]: m["bound"] for m in spec["end_to_end"]}
    summary = {"run_seconds": seconds, "workloads": {}}
    any_failed = False
    for workload in workloads.WORKLOADS:
        entry = summary["workloads"].setdefault(workload, {})
        seeds = list(range(args.first_seed, args.first_seed + RUNS))
        table, attempted, failed, summary["env"] = collect(workload, seeds, seconds, 0)
        entry.update(seeds=seeds, ops=attempted, ops_failed=failed, end_to_end=table)
        print_table(workload, table, bounds)
        print(f"  ops {attempted}  ops_failed {failed}")
        seeds = list(range(args.first_seed, args.first_seed + TRACE_RUNS))
        table, attempted, t_failed, _ = collect(workload, seeds, seconds, 1)
        entry.update(trace_seeds=seeds, per_layer=table)
        print_table(f"{workload} (traced)", table, {})
        failed += t_failed
        any_failed |= failed > 0
    if args.out:
        with open(args.out, "w") as fh:
            json.dump(summary, fh, indent=1, sort_keys=True)
            fh.write("\n")
    sys.exit(1 if any_failed else 0)


if __name__ == "__main__":
    main()
