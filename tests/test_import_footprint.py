"""What a fresh interpreter loads to run the scenarios, and how the CLI ends an unresolvable gap."""

import ast
import json
import os
import pathlib
import subprocess
import sys

import pytest

import qrex

# packages that no scenario needs, with their submodules: the package imports
# no scipy (checked in the source too), and only ``--parallel`` above 1
# starts a process pool
UNNEEDED = ("scipy", "concurrent.futures.process")
# numpy packages that no scenario uses: numpy 2 loads them on first use only
# (numpy.ma for np.unique's masked-array check, numpy.polynomial for leggauss),
# numpy 1.x with numpy itself, so a run may load only those a bare ``import numpy`` did
UNUSED_NUMPY = ("numpy.ma", "numpy.polynomial")

RUN_ALL = """
import contextlib, io, json, sys
unneeded = json.loads(sys.argv[2])
def loaded():
    return sorted(m for m in sys.modules if any(m == u or m.startswith(u + ".") for u in unneeded))
if len(sys.argv) > 3:
    class Refuse:
        # a meta path finder that makes every unneeded package unimportable
        def find_spec(self, name, path=None, target=None):
            if any(name == u or name.startswith(u + ".") for u in unneeded):
                raise ImportError(f"{name} is refused")
    sys.meta_path.insert(0, Refuse())
import numpy
baseline = loaded()
from qrex.cli import main
codes = []
for argv in json.loads(sys.argv[1]):
    with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(io.StringIO()):
        codes.append(main(argv))
print(json.dumps({"codes": codes, "baseline": baseline, "loaded": loaded()}))
"""


def run_qrex(args, **kwargs):
    """A fresh interpreter on the qrex package the tests import."""
    env = {**os.environ, "PYTHONPATH": os.path.dirname(os.path.dirname(qrex.__file__))}
    return subprocess.run([sys.executable, *args], capture_output=True, text=True, env=env,
                          timeout=300, **kwargs)


def write_config(tmp_path, name, payload):
    path = tmp_path / f"{name}.json"
    path.write_text(json.dumps(payload))
    return str(path)


def scenario_runs(tmp_path):
    """CLI argument lists for every scenario: the sweep in local_A and global mode and on
    the 2x3 Heisenberg grid, the gap also as the default local_A CSV."""
    ring = {"model": "defected_ising", "n": 3, "J": 3.0}
    grid = {"model": "defected_heisenberg", "rows": 2, "cols": 3, "A": [0, 3],
            "defect_edge": [0, 3], "J": 3.0}
    single = write_config(tmp_path, "single", {"system": ring, "replica": {"mode": "none"}})
    sweeps = [write_config(tmp_path, f"sweep_{mode}", {
        "system": ring, "replica": {"mode": mode, "beta2": 0.5},
        "sweep": {"param": "J", "values": [1.0, 5.0]}}) for mode in ("local_A", "global")]
    grid_sweep = write_config(tmp_path, "grid_sweep", {
        "system": grid, "beta": 0.05, "replica": {"mode": "local_A"},
        "sweep": {"param": "J", "values": [1.0, 5.0]}})
    return [["gap", "--config", single], ["gap", "--format", "csv"],
            ["sweep", "--config", sweeps[0]], ["sweep", "--config", sweeps[1]],
            ["sweep", "--config", grid_sweep, "--max-dim", "65536"],
            ["mixing", "--config", single], ["verify"], ["theta"], ["classical"]]


def test_scenarios_leave_unneeded_modules_unloaded(tmp_path):
    runs = scenario_runs(tmp_path)
    proc = run_qrex(["-c", RUN_ALL, json.dumps(runs), json.dumps(UNNEEDED)])
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout)
    assert result["codes"] == [0] * len(runs)
    assert result["loaded"] == []


def test_scenarios_run_with_scipy_unimportable(tmp_path):
    runs = scenario_runs(tmp_path)
    proc = run_qrex(["-c", RUN_ALL, json.dumps(runs), json.dumps(["scipy"]), "refuse"])
    assert proc.returncode == 0, proc.stderr
    assert json.loads(proc.stdout) == {"codes": [0] * len(runs), "baseline": [], "loaded": []}


def test_scenarios_load_no_unused_numpy_package_that_numpy_left_unloaded(tmp_path):
    runs = scenario_runs(tmp_path)
    proc = run_qrex(["-c", RUN_ALL, json.dumps(runs), json.dumps(UNUSED_NUMPY)])
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout)
    assert result["codes"] == [0] * len(runs)
    unloaded = [p for p in UNUSED_NUMPY if p not in result["baseline"]]
    assert [m for m in result["loaded"]
            if any(m == p or m.startswith(p + ".") for p in unloaded)] == []


def test_import_loads_the_lazy_modules_a_first_call_uses():
    # argparse loads locale, and numpy numpy.random, on first use: the package imports
    # them itself so that set-up, not the first call, pays.  The unused numpy packages
    # stay as a bare ``import numpy`` left them
    modules = ["locale", "numpy.random", *UNUSED_NUMPY]
    code = (f"import json, sys, numpy; bare = [m in sys.modules for m in {modules!r}]; "
            f"import qrex.cli; print(json.dumps([bare, [m in sys.modules for m in {modules!r}]]))")
    proc = run_qrex(["-c", code])
    assert proc.returncode == 0, proc.stderr
    bare, imported = json.loads(proc.stdout)
    assert imported == [True, True, *bare[2:]]


def test_unresolvable_gap_exits_four_without_traceback(tmp_path):
    # at beta = 2 the local_A joint gap of the n = 3 ring sits within 10x of
    # the kernel threshold: the sweep keeps that point, reports the others and exits 4
    def sweep(name, betas):
        cfg = write_config(tmp_path, name, {
            "system": {"model": "defected_ising", "n": 3, "J": 3.0},
            "replica": {"mode": "local_A"},
            "sweep": {"param": "beta", "values": betas},
        })
        return run_qrex(["-m", "qrex.cli", "sweep", "--config", cfg])

    proc = sweep("beta_sweep", [0.5, 1.0, 2.0])
    assert proc.returncode == 4
    header, *rows = proc.stdout.splitlines()
    resolved = sweep("resolved_sweep", [0.5, 1.0])
    assert resolved.returncode == 0 and resolved.stderr == ""
    assert [header] + rows[:2] == resolved.stdout.splitlines()
    assert header.endswith(",status,error")
    assert rows[2].startswith("3.0,2.0,nan,nan,nan,nan,unresolved,ambiguous kernel cluster: gap ")
    assert proc.stderr.startswith("numerical error: ambiguous kernel cluster: gap ")
    assert proc.stderr.count("\n") == 1 and "Traceback" not in proc.stderr


def scipy_linalg_imports(tree, package="scipy.linalg"):
    """Line numbers of the imports of ``package`` (or a submodule) in a parsed module."""
    lines = []
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            names = [alias.name for alias in node.names]
        elif isinstance(node, ast.ImportFrom) and node.level == 0 and node.module:
            names = [node.module] + [f"{node.module}.{alias.name}" for alias in node.names]
        else:
            continue
        if any(name == package or name.startswith(package + ".") for name in names):
            lines.append(node.lineno)
    return lines


def test_package_source_never_imports_scipy_linalg():
    sources = sorted(pathlib.Path(qrex.__file__).parent.glob("*.py"))
    assert sources
    found = {path.name: scipy_linalg_imports(ast.parse(path.read_text(), str(path)))
             for path in sources}
    assert {name: lines for name, lines in found.items() if lines} == {}


def test_package_source_never_imports_scipy():
    sources = sorted(pathlib.Path(qrex.__file__).parent.glob("*.py"))
    found = {path.name: scipy_linalg_imports(ast.parse(path.read_text(), str(path)), "scipy")
             for path in sources}
    assert {name: lines for name, lines in found.items() if lines} == {}
    assert scipy_linalg_imports(ast.parse("from scipy import sparse"), "scipy") == [1]


@pytest.mark.parametrize("source", ["import scipy.linalg", "import scipy.linalg as sl",
                                    "from scipy import linalg", "from scipy.linalg import expm",
                                    "def f():\n    from scipy.linalg import expm"])
def test_scipy_linalg_import_detected(source):
    assert scipy_linalg_imports(ast.parse(source)) != []


def test_other_scipy_imports_pass():
    assert scipy_linalg_imports(ast.parse("import scipy.sparse\nfrom scipy import sparse\n"
                                          "from .linalg import x\nimport numpy.linalg")) == []
