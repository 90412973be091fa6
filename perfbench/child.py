"""One benchmark pass in a fresh interpreter.

Started by ``run.py`` from the repository root with the monotonic time of its
spawn.  Imports ``qrex`` from ``src/``, runs the workload's CLI calls once,
checks the outputs and prints one JSON line: set-up time (spawn to the first
``main`` call), summed ``main`` time (also in reference-loop units when
untraced), peak RSS, checked-output counts, the environment and, when
traced, the per-layer figures.  With ``--setup-only`` it stops at the first
``main`` call and prints only the set-up time.
"""

import argparse
import ctypes
import json
import os
import platform
import resource
import sys
import time


def blas_threads():
    """Thread count of each OpenBLAS library loaded in this process."""
    with open("/proc/self/maps") as fh:
        libs = {line.split()[-1] for line in fh
                if "openblas" in line.lower() and ".so" in line.split()[-1]}
    counts = {}
    for path in sorted(libs):
        lib = ctypes.CDLL(path)
        for symbol in ("scipy_openblas_get_num_threads64_", "openblas_get_num_threads64_",
                       "openblas_get_num_threads"):
            fn = getattr(lib, symbol, None)
            if fn is not None:
                fn.restype = ctypes.c_int
                counts[os.path.basename(path)] = fn()
                break
    return counts


def cpu_model():
    try:
        with open("/proc/cpuinfo") as fh:
            for line in fh:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor()


def environment():
    import numpy
    import scipy

    blas = numpy.show_config(mode="dicts").get("Build Dependencies", {}).get("blas", {})
    return {"nproc": len(os.sched_getaffinity(0)), "cpu": cpu_model(),
            "blas": blas.get("name"), "blas_version": blas.get("version"),
            "blas_threads": blas_threads(), "numpy": numpy.__version__,
            "scipy": scipy.__version__, "python": platform.python_version()}


def main():
    parser = argparse.ArgumentParser()
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--size", default="full")
    parser.add_argument("--trace", type=int, default=0)
    parser.add_argument("--spawned", type=float, required=True,
                        help="time.monotonic() in the parent just before the spawn")
    parser.add_argument("--workdir", required=True)
    parser.add_argument("--setup-only", action="store_true")
    args = parser.parse_args()

    sys.path.insert(0, os.path.join(os.getcwd(), "src"))
    import workloads
    from qrex import cli, mixing

    if args.setup_only:
        setup_raw_s = time.monotonic() - args.spawned
        print(json.dumps({"setup_raw_s": setup_raw_s,
                          "setup_s": workloads.normalized_setup(setup_raw_s,
                                                                workloads.reference_loop())}))
        return

    tracer = None
    if args.trace:
        from tracer import Tracer

        tracer = Tracer()
        tracer.install()
    setup = []
    durations, refs, reports, errors = workloads.run_calls(
        cli, args.workload, args.seed, args.size, args.workdir,
        on_first_call=lambda: setup.append(time.monotonic() - args.spawned),
        reference=None if tracer else workloads.reference_loop)
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    result = {"wall_s": sum(durations), "setup_raw_s": setup[0], "peak_rss_mb": peak_rss_mb}
    if refs:
        # each call in units of the reference loop timed on either side of it
        result["wall_ref"] = sum(d / (0.5 * (a + b)) for d, a, b in zip(durations, refs, refs[1:]))
        result["setup_s"] = workloads.normalized_setup(setup[0], refs[0])
    if tracer is not None:
        tracer.uninstall()
        tracer.write(os.path.join(args.workdir, "spans.json"))
        result["layers"] = tracer.layer_metrics()

    rtol = max(workloads.BISECTION_RTOL, getattr(mixing, "BISECTION_RTOL", 0.0))
    outputs = workloads.extract(args.workload, reports, bisection_rtol=rtol)
    ops, failures = workloads.check(outputs, workloads.load_reference(args.workload, args.size))
    result.update(ops=ops, failed=len(failures), failures=errors + failures,
                  env=environment())
    print(json.dumps(result))


if __name__ == "__main__":
    main()
