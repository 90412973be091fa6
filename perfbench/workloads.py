"""Workloads: the configs each one hands to ``qrex.cli.main`` and the output checks.

A workload is a fixed list of CLI calls, each a scenario name plus a JSON
config.  The benchmark seed becomes the config ``seed`` and is the only input
that varies between runs.  ``full`` is the size the benchmark measures;
``smoke`` runs the same calls at n = 3 for the quick self-check.

Outputs are checked against ``reference.json``, recorded from the seed commit
with ``python3 perfbench/workloads.py --record`` (run from the repository
root).  Seed-independent numbers are compared to the reference; outputs that
depend on the seed are checked by invariant (recorded as ``true``).
"""

import json
import math
import os
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
REFERENCE = os.path.join(HERE, "reference.json")

# Tolerance on reference floats.  The eigensolver resolves a gap to about
# 1e-16 * ||L_hat||, i.e. 1e-11 relative for the smallest gap here, so this
# is well above the method's own accuracy.
RTOL = 1e-6
ATOL = 1e-12
# Crossing times come from bisection to this relative width; the program's
# own value is used when it is looser.
BISECTION_RTOL = 1e-3

SIZES = {"full": {"ring5-gap": 5, "ring3-sweep": 3, "ring5-mixing": 5},
         "smoke": {"ring5-gap": 3, "ring3-sweep": 3, "ring5-mixing": 3}}
WORKLOADS = ("ring5-gap", "ring3-sweep", "ring5-mixing", "verify-n3")
MIXING_JS = (1.0, 3.0, 5.0)
SWEEP_JS = (1.0, 5.0)
REF_ITERATIONS = 200_000  # about 17 ms per repetition of the reference loop
# Nominal time of one repetition of the reference loop, its median on the
# 2-vCPU Xeon guest the baseline was recorded on.  ``setup_s`` is the set-up
# time rescaled to a host on which the loop takes exactly this long.
REF_SECONDS = 0.0175


def _ring(n, J, seed, **extra):
    return {"system": {"model": "defected_ising", "n": n, "J": J}, "beta": 1.0,
            "weight": "metropolis", "replica": {"mode": "none"}, "seed": seed,
            "output": {"format": "json"}, **extra}


def calls(workload, seed, size="full"):
    """The (scenario, config) pairs one pass of ``workload`` runs, in order."""
    if workload == "verify-n3":
        return [("verify", {"beta": 1.0, "seed": seed, "output": {"format": "json"}})]
    n = SIZES[size][workload]
    if workload == "ring5-gap":
        return [("gap", _ring(n, 3.0, seed))]
    if workload == "ring3-sweep":
        replica = {"mode": "local_A", "weight": "gaussian", "swap_weight": "metropolis"}
        return [("sweep", _ring(n, 3.0, seed, replica=replica,
                                sweep={"param": "J", "values": list(SWEEP_JS)}))]
    if workload == "ring5-mixing":
        return [("mixing", _ring(n, J, seed, epsilon=1e-2)) for J in MIXING_JS]
    raise KeyError(workload)


def reference_loop(reps=3):
    """Median time of a fixed pure-Python loop: the unit of ``wall_ref``.

    The host this was tuned on drifts between speeds about 1.6x apart over
    tens of seconds.  Timing this loop right before and after each ``main``
    call and dividing takes most of that drift out.  It tracked both the
    BLAS-bound and the Python-bound workloads better than a BLAS kernel or a
    loop of small NumPy operations did.
    """
    times = []
    for _ in range(reps):
        t0 = time.perf_counter()
        acc = 0
        for i in range(REF_ITERATIONS):
            acc += i * i
        times.append(time.perf_counter() - t0)
    return sorted(times)[reps // 2]


def normalized_setup(setup_raw_s, ref_s):
    """Set-up time in seconds of a host whose reference loop takes ``REF_SECONDS``.

    ``ref_s`` is ``reference_loop()`` timed right after the set-up.  Set-up
    is interpreter start and imports, CPU-bound Python like the loop, so the
    quotient removes the host's speed drift the way ``wall_ref`` does.
    """
    return setup_raw_s * REF_SECONDS / ref_s


def run_calls(cli, workload, seed, size, workdir, on_first_call=None, reference=None):
    """Run one pass through ``cli.main``; returns (durations, refs, reports, errors).

    Configs are written before timing starts.  ``durations`` holds each
    ``main`` call's time.  ``refs`` holds ``reference()`` timed before the
    first call and after each call (empty without ``reference``).  A call
    that raises or exits non-zero with no report leaves ``None`` in
    ``reports`` and a message in ``errors``.
    """
    argvs = []
    for k, (scenario, config) in enumerate(calls(workload, seed, size)):
        cfg_path = os.path.join(workdir, f"config-{k}.json")
        out_path = os.path.join(workdir, f"out-{k}.json")
        with open(cfg_path, "w") as fh:
            json.dump(config, fh)
        if os.path.exists(out_path):
            os.remove(out_path)
        argvs.append(([scenario, "--config", cfg_path, "--out", out_path, "--parallel", "1"],
                      out_path))
    if on_first_call is not None:
        on_first_call()
    refs = [reference()] if reference is not None else []
    durations, codes, errors = [], [], []
    for argv, _ in argvs:
        t0 = time.perf_counter()
        try:
            codes.append(cli.main(argv))
        except Exception as exc:  # a failing call is counted, not fatal
            codes.append(None)
            errors.append(f"{argv[0]}: {type(exc).__name__}: {exc}")
        durations.append(time.perf_counter() - t0)
        if reference is not None:
            refs.append(reference())
    reports = []
    for (argv, out_path), code in zip(argvs, codes):
        if code is not None and os.path.exists(out_path):
            with open(out_path) as fh:
                reports.append(json.load(fh))
        else:
            reports.append(None)
            if code is not None:
                errors.append(f"{argv[0]}: exit code {code} and no report")
    return durations, refs, reports, errors


def extract(workload, reports, bisection_rtol=BISECTION_RTOL):
    """Flatten the reports into named outputs; invariants become booleans."""
    out = {}
    if workload == "ring5-gap":
        rep = reports[0]
        if rep is not None:
            rec = rep["records"][0]
            out["gap"] = rec["gap"]
            out["kernel_dim"] = rec["kernel_dim"]
    elif workload == "ring3-sweep":
        rep = reports[0]
        for rec in (rep["records"] if rep is not None else []):
            for key in ("gap_single", "gap_re", "g_B"):
                out[f"J={rec['J']}/{key}"] = rec[key]
    elif workload == "ring5-mixing":
        for J, rep in zip(MIXING_JS, reports):
            if rep is None:
                continue
            s = rep["summary"]
            for key in ("gap", "t_lower", "t_upper"):
                out[f"J={J}/{key}"] = s[key]
            lo = s["t_lower"] * (1.0 - bisection_rtol)
            hi = s["t_upper"] * (1.0 + bisection_rtol)
            out[f"J={J}/t_measured_in_bracket"] = lo <= s["t_measured"] <= hi
    elif workload == "verify-n3":
        rep = reports[0]
        for rec in (rep["records"] if rep is not None else []):
            out[rec["check"]] = rec["passed"]
    return out


def _matches(value, ref):
    if isinstance(ref, bool) or isinstance(ref, int):
        return type(value) is type(ref) and value == ref
    return (isinstance(value, (int, float)) and math.isfinite(value)
            and abs(value - ref) <= RTOL * abs(ref) + ATOL)


def check(outputs, reference):
    """Compare outputs to the reference; returns (attempted, failure messages)."""
    failures = []
    for key, ref in reference.items():
        if key not in outputs:
            failures.append(f"{key}: missing")
        elif not _matches(outputs[key], ref):
            failures.append(f"{key}: got {outputs[key]!r}, reference {ref!r}")
    return len(reference), failures


def load_reference(workload, size):
    with open(REFERENCE) as fh:
        return json.load(fh)[f"{workload}/{size}"]


def record(root, seed=1):
    """Run every workload once at each size and write the reference file."""
    sys.path.insert(0, os.path.join(root, "src"))
    from qrex import cli

    workdir = os.path.join(root, ".bench_build", "perfbench", "record")
    os.makedirs(workdir, exist_ok=True)
    reference = {}
    for size in SIZES:
        for workload in WORKLOADS:
            _, _, reports, errors = run_calls(cli, workload, seed, size, workdir)
            if errors:
                raise RuntimeError(f"{workload}/{size}: {errors}")
            outputs = extract(workload, reports)
            false = [k for k, v in outputs.items() if v is False and workload != "verify-n3"]
            if false:
                raise RuntimeError(f"{workload}/{size}: invariants fail: {false}")
            reference[f"{workload}/{size}"] = outputs
            print(f"{workload}/{size}: {len(outputs)} outputs", file=sys.stderr)
    with open(REFERENCE, "w") as fh:
        json.dump(reference, fh, indent=1, sort_keys=True)
        fh.write("\n")


if __name__ == "__main__":
    if sys.argv[1:] != ["--record"]:
        sys.exit("usage: python3 perfbench/workloads.py --record  (from the repository root)")
    record(os.getcwd())
