"""What a fresh interpreter loads to run the scenarios, and how the CLI ends an unresolvable gap."""

import json
import os
import subprocess
import sys

import qrex

# modules that no scenario needs: the dense-expm fallback of ``mixing.evolve``
# loads scipy.linalg, and only ``--parallel`` above 1 starts a process pool
UNNEEDED = ("scipy.linalg", "scipy.sparse.linalg", "scipy.sparse.csgraph",
            "concurrent.futures.process")

RUN_ALL = """
import contextlib, io, json, sys
from qrex.cli import main
codes = []
for argv in json.loads(sys.argv[1]):
    with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(io.StringIO()):
        codes.append(main(argv))
print(json.dumps({"codes": codes, "loaded": sorted(set(json.loads(sys.argv[2])) & set(sys.modules))}))
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


def test_scenarios_leave_unneeded_modules_unloaded(tmp_path):
    ring = {"model": "defected_ising", "n": 3, "J": 3.0}
    single = write_config(tmp_path, "single", {"system": ring, "replica": {"mode": "none"}})
    sweep = write_config(tmp_path, "sweep", {"system": ring, "replica": {"mode": "local_A"},
                                             "sweep": {"param": "J", "values": [1.0, 5.0]}})
    runs = [["gap", "--config", single], ["sweep", "--config", sweep],
            ["mixing", "--config", single], ["verify"], ["theta"], ["classical"]]
    proc = run_qrex(["-c", RUN_ALL, json.dumps(runs), json.dumps(UNNEEDED)])
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout)
    assert result["codes"] == [0] * len(runs)
    assert result["loaded"] == []


def test_unresolvable_gap_exits_four_without_traceback(tmp_path):
    # at beta = 2 the local_A joint gap of the n = 3 ring sits within 10x of
    # the kernel threshold
    cfg = write_config(tmp_path, "beta_sweep", {
        "system": {"model": "defected_ising", "n": 3, "J": 3.0},
        "replica": {"mode": "local_A"},
        "sweep": {"param": "beta", "values": [0.5, 1.0, 2.0]},
    })
    proc = run_qrex(["-m", "qrex.cli", "sweep", "--config", cfg])
    assert proc.returncode == 4
    assert proc.stdout == ""
    assert proc.stderr.startswith("numerical error: ambiguous kernel cluster: gap ")
    assert proc.stderr.count("\n") == 1 and "Traceback" not in proc.stderr
