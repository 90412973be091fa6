"""Benchmark entry point: one workload, one seed, a fixed measuring time.

    python3 perfbench/run.py --workload ring5-gap --seed 1 --seconds 20 --trace 0

Run from the root of a qrex checkout; the program is imported from ``src/``.
The run is a closed loop with one client: it starts one fresh interpreter
per pass (``child.py``), each running the workload's ``qrex.cli.main`` calls
once, serially, with one BLAS thread, and starts passes until ``--seconds``
have gone by.  Metrics are medians over the passes.  When the passes give
fewer than ``SETUP_SAMPLES`` set-up times, set-up-only children (which stop
at the first ``main`` call) add the rest, so ``setup_s`` is always a median
of several.

``--trace 0`` reports the end-to-end metrics of ``BENCHMARK.json``.
``--trace 1`` alternates untraced and traced passes and reports the
per-layer metrics from the traced ones, plus the raw ``cli.main.wall_s`` of
the untraced ones and ``trace.overhead_s`` (traced minus untraced median
``wall_s``).  Traced passes never feed end-to-end metrics.  The last line of
stdout is the result JSON; the full record (samples, environment, failures)
goes to ``.bench_build/perfbench/``.
"""

import argparse
import json
import os
import statistics
import subprocess
import sys
import time

import workloads

HERE = os.path.dirname(os.path.abspath(__file__))
RUN_LIMIT_S = 170.0  # every run ends well inside three minutes
# One BLAS thread (never more than nproc).  With two threads on two shared
# cores, a pass swings by 15% or more depending on what else is scheduled.
BLAS_THREADS = 1
SETUP_SAMPLES = 7  # set-up times per run, at least


def run_pass(args, workdir, trace, env, deadline, setup_only=False):
    cmd = [sys.executable, os.path.join(HERE, "child.py"), "--workload", args.workload,
           "--seed", str(args.seed), "--size", args.size, "--trace", str(trace),
           "--workdir", workdir]
    if setup_only:
        cmd.append("--setup-only")
    cmd += ["--spawned", repr(time.monotonic())]
    try:
        proc = subprocess.run(cmd, capture_output=True, text=True, env=env,
                              timeout=max(1.0, deadline - time.monotonic()))
    except subprocess.TimeoutExpired:
        print(f"pass timed out: {args.workload}", file=sys.stderr)
        return None
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        print(f"pass failed (exit {proc.returncode}):\n{proc.stderr[-2000:]}", file=sys.stderr)
        return None
    return json.loads(lines[-1])


def median_of(results, key):
    return statistics.median(r[key] for r in results)


def main():
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=workloads.WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--size", choices=tuple(workloads.SIZES), default="full",
                        help="smoke runs the same calls at n = 3")
    args = parser.parse_args()

    root = os.getcwd()
    if not os.path.isfile(os.path.join(root, "src", "qrex", "cli.py")):
        sys.exit("run.py: no qrex source under ./src; run from the root of a qrex checkout")
    with open(os.path.join(root, "BENCHMARK.json")) as fh:
        spec = json.load(fh)
    metric_specs = spec["per_layer"] if args.trace else spec["end_to_end"]

    env = dict(os.environ)
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        env[var] = str(min(BLAS_THREADS, len(os.sched_getaffinity(0))))
    workdir = os.path.join(root, ".bench_build", "perfbench",
                           f"{args.workload}-{args.size}-seed{args.seed}-trace{args.trace}")
    os.makedirs(workdir, exist_ok=True)

    start = time.monotonic()
    deadline = start + RUN_LIMIT_S
    plain, traced, lost = [], [], 0
    while time.monotonic() < deadline:
        trace = 1 if args.trace and len(plain) > len(traced) else 0
        res = run_pass(args, workdir, trace, env, deadline)
        if res is None:
            lost += 1
        else:
            (traced if trace else plain).append(res)
        enough = plain and (traced or not args.trace)
        if (enough or lost) and time.monotonic() - start >= args.seconds:
            break
    attempted = sum(r["ops"] for r in plain + traced) + lost
    failed = sum(r["failed"] for r in plain + traced) + lost
    if not plain or (args.trace and not traced):
        # every pass crashed: still report the lost passes as failed ops
        print(json.dumps({"correct": False, "attempted": attempted, "failed": failed,
                          "metrics": {}}))
        sys.exit(f"run.py: no pass of {args.workload} completed")
    setups = [r["setup_s"] for r in plain]
    setups_raw = [r["setup_raw_s"] for r in plain]
    for _ in range(0 if args.trace else SETUP_SAMPLES - len(setups)):
        res = run_pass(args, workdir, 0, env, deadline, setup_only=True)
        if res is not None:
            setups.append(res["setup_s"])
            setups_raw.append(res["setup_raw_s"])
    if args.trace:
        values = {"cli.main.wall_s": median_of(plain, "wall_s"),
                  "trace.overhead_s": median_of(traced, "wall_s") - median_of(plain, "wall_s")}
        for m in metric_specs:
            if m["name"] not in values:
                values[m["name"]] = statistics.median(
                    r["layers"].get(m["name"], 0) for r in traced)
    else:
        values = {m["name"]: median_of(plain, m["name"]) for m in metric_specs}
        values["setup_s"] = statistics.median(setups)
    metrics = {m["name"]: {"value": values[m["name"]], "unit": m["unit"]} for m in metric_specs}

    record = {"workload": args.workload, "seed": args.seed, "size": args.size,
              "seconds": args.seconds, "trace": args.trace, "env": plain[0]["env"],
              "passes": {"plain": len(plain), "traced": len(traced), "lost": lost},
              "samples": [{k: r.get(k) for k in ("wall_s", "wall_ref", "setup_s", "setup_raw_s",
                                                  "peak_rss_mb")} for r in plain],
              "setup_samples": {"setup_s": setups, "setup_raw_s": setups_raw},
              "failures": sorted({f for r in plain + traced for f in r["failures"]}),
              "metrics": metrics}
    result_file = os.path.join(workdir, "result.json")
    with open(result_file, "w") as fh:
        json.dump(record, fh, indent=1)
    for failure in record["failures"]:
        print(f"output check failed: {failure}", file=sys.stderr)
    print(json.dumps({"result_file": os.path.relpath(result_file, root)}))
    print(json.dumps({"correct": failed == 0, "attempted": attempted, "failed": failed,
                      "metrics": metrics}))


if __name__ == "__main__":
    main()
