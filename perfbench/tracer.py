"""Spans around the public functions of the ``qrex`` modules, for the traced run.

``Tracer.install`` wraps every public function defined in a ``qrex`` module
and rebinds the wrapper in each ``qrex`` module namespace that holds it, so a
call made through ``from .spectral import spectral_gap`` is seen as well.  A
few methods are wrapped on their class.  ``uninstall`` puts the originals
back.  A function that the program no longer defines simply drops out.

Spans stay in memory, each with a link to its parent, and ``write`` saves
them when the pass ends.  A span's self time is its duration minus that of
its child spans (calls are serial, so children never overlap).  ``peak_mb`` is
the tracemalloc peak above the span's starting allocation: it covers Python
objects and NumPy buffers, not BLAS/LAPACK workspaces.
"""

import functools
import importlib
import inspect
import json
import time
import tracemalloc

MODULES = ("pauli", "hamiltonians", "lindblad", "replica", "spectral", "mixing",
           "classical", "verify", "harness", "cli")
METHODS = {("mixing", "SpectralPropagator", "__init__"): "mixing.SpectralPropagator",
           ("mixing", "SpectralPropagator", "state_at"): "mixing.state_at"}
MB = 2.0**20

# Work counts computed from array sizes when a span returns:
# span name -> (metric, value of (args, result), how values combine)
COMPUTED = {
    "lindblad.eigensystem": ("lindblad.bohr_groups", lambda args, out: out.bohr.size, sum),
    "lindblad.build_ckg_generator": (
        "lindblad.generator_mb", lambda args, out: sum(op.matrix.nbytes for op in out) / MB, sum),
    "spectral.symmetrize": ("spectral.superop_dim", lambda args, out: out.shape[0], max),
}


class Tracer:
    def __init__(self):
        self.spans = []  # [name, parent index, start, end, peak bytes]
        self.computed = {}
        self._open = []  # (span index, highest traced bytes seen) per open span
        self._patches = []  # (owner, attribute, original)

    def install(self):
        tracemalloc.start()
        modules = {name: importlib.import_module(f"qrex.{name}") for name in MODULES}
        wrappers = {}
        for module in modules.values():
            for attr, obj in list(vars(module).items()):
                if (attr.startswith("_") or not inspect.isfunction(obj)
                        or not obj.__module__.startswith("qrex.")):
                    continue
                if obj not in wrappers:
                    wrappers[obj] = self._wrap(f"{obj.__module__[5:]}.{obj.__name__}", obj)
                self._patch(module, attr, wrappers[obj])
        for (module, cls, method), name in METHODS.items():
            owner = getattr(modules[module], cls, None)
            if owner is not None and method in vars(owner):
                self._patch(owner, method, self._wrap(name, vars(owner)[method]))

    def uninstall(self):
        for owner, attr, original in reversed(self._patches):
            setattr(owner, attr, original)
        self._patches.clear()
        tracemalloc.stop()

    def _patch(self, owner, attr, value):
        self._patches.append((owner, attr, getattr(owner, attr)))
        setattr(owner, attr, value)

    def _wrap(self, name, fn):
        computed = COMPUTED.get(name)

        @functools.wraps(fn)
        def span(*args, **kwargs):
            index = self._enter(name)
            try:
                out = fn(*args, **kwargs)
            finally:
                self._exit(index)
            if computed is not None:
                self._count(computed, args, out)
            return out

        return span

    def _enter(self, name):
        _, peak = tracemalloc.get_traced_memory()
        if self._open:
            parent, seen = self._open[-1]
            self._open[-1] = (parent, max(seen, peak))
        tracemalloc.reset_peak()
        current, _ = tracemalloc.get_traced_memory()
        index = len(self.spans)
        parent = self._open[-1][0] if self._open else None
        self.spans.append([name, parent, time.perf_counter(), None, current])
        self._open.append((index, current))
        return index

    def _exit(self, index):
        end = time.perf_counter()
        _, peak = tracemalloc.get_traced_memory()
        _, seen = self._open.pop()
        seen = max(seen, peak)
        span = self.spans[index]
        span[3] = end
        span[4] = seen - span[4]
        if self._open:
            parent, parent_seen = self._open[-1]
            self._open[-1] = (parent, max(parent_seen, seen))
        tracemalloc.reset_peak()

    def _count(self, computed, args, out):
        metric, value, combine = computed
        try:
            v = value(args, out)
        except (AttributeError, TypeError):  # the program changed shape; skip the count
            return
        self.computed[metric] = combine((self.computed.get(metric, 0), v))

    def layer_metrics(self):
        """Per span name: call count, summed self time and largest peak_mb."""
        child_s = [0.0] * len(self.spans)
        for name, parent, start, end, _ in self.spans:
            if parent is not None:
                child_s[parent] += end - start
        metrics = dict(self.computed)
        for (name, _, start, end, peak), nested in zip(self.spans, child_s):
            metrics[f"{name}.calls"] = metrics.get(f"{name}.calls", 0) + 1
            metrics[f"{name}.self_s"] = metrics.get(f"{name}.self_s", 0.0) + (end - start - nested)
            metrics[f"{name}.peak_mb"] = max(metrics.get(f"{name}.peak_mb", 0.0), peak / MB)
        return metrics

    def write(self, path):
        with open(path, "w") as fh:
            json.dump({"fields": ["name", "parent", "start_s", "end_s", "peak_mb"],
                       "spans": [[n, p, s, e, b / MB] for n, p, s, e, b in self.spans]}, fh)
