"""Quick self-check of the benchmark: every workload at n = 3, one short run each.

    python3 perfbench/smoke.py

Run from the repository root (about a minute).  For each workload it runs
``run.py --size smoke`` untraced and traced, and fails unless every metric
named in ``BENCHMARK.json`` is emitted with its unit and no output check
failed.
"""

import json
import os
import subprocess
import sys

import workloads

HERE = os.path.dirname(os.path.abspath(__file__))


def main():
    with open("BENCHMARK.json") as fh:
        spec = json.load(fh)
    problems = []
    for workload in workloads.WORKLOADS:
        for trace, key in ((0, "end_to_end"), (1, "per_layer")):
            cmd = [sys.executable, os.path.join(HERE, "run.py"), "--workload", workload,
                   "--seed", "1", "--seconds", "1", "--trace", str(trace), "--size", "smoke"]
            proc = subprocess.run(cmd, capture_output=True, text=True, timeout=300)
            label = f"{workload} trace {trace}"
            if proc.returncode != 0:
                problems.append(f"{label}: exit {proc.returncode}: {proc.stderr[-500:]}")
                continue
            result = json.loads(proc.stdout.strip().splitlines()[-1])
            expected = {m["name"]: m["unit"] for m in spec[key]}
            emitted = {name: m["unit"] for name, m in result["metrics"].items()}
            if emitted != expected:
                problems.append(f"{label}: metrics {sorted(emitted)} != {sorted(expected)}")
            if set(result) != {"correct", "attempted", "failed", "metrics"}:
                problems.append(f"{label}: result keys {sorted(result)}")
            if not result["correct"] or result["failed"] != 0 or result["attempted"] < 1:
                problems.append(f"{label}: failed {result['failed']} of {result['attempted']}")
            print(f"{label}: {len(emitted)} metrics, ops {result['attempted']}, "
                  f"ops_failed {result['failed']}")
    for problem in problems:
        print(f"FAIL {problem}", file=sys.stderr)
    sys.exit(1 if problems else 0)


if __name__ == "__main__":
    main()
