"""A sweep's symbolic phase (``qrex.lindblad.Plan``): it runs once per generator per sweep, and
every point that reuses it is bitwise the point built on its own."""

import json

import numpy as np
import pytest

import qrex.harness
import qrex.lindblad
import qrex.spectral
from qrex.harness import run_scenario, validate_config
from qrex.lindblad import Plan, Triplets, canonical
from qrex.spectral import block_eigvalsh


def ring(n):
    return {"model": "defected_ising", "n": n, "J": 3.0}


GRID = {"model": "defected_heisenberg", "rows": 2, "cols": 3, "A": [0, 3], "defect_edge": [0, 3],
        "J": 3.0}
LOCAL_A = {"replica": {"mode": "local_A"}}
# (system, param, values, other config fields)
CASES = {f"ring{n}-{w}": (ring(n), "J", [1.0, 2.0, 5.0],
                          {"replica": {"mode": "local_A", "weight": w}})
         for n in (3, 4, 5) for w in ("gaussian", "metropolis")}
CASES["grid2x3"] = (GRID, "J", [1.0, 5.0], {"beta": 0.05, **LOCAL_A})
CASES["ring4-beta"] = (ring(4), "beta", [0.5, 1.0, 2.0], LOCAL_A)
CASES["ring3-J0"] = (ring(3), "J", [1.0, 0.0, 2.0], LOCAL_A)  # J = 0 moves the cut's labels
CASES["global3"] = (ring(3), "J", [1.0, 5.0], {"replica": {"mode": "global", "beta2": 0.5}})


def sweep(system, param, values, extra):
    config = validate_config({"scenario": "sweep", "system": system, "max_dim": 2**20,
                              "sweep": {"param": param, "values": values}, **extra})
    return run_scenario(config).records


@pytest.mark.parametrize("case", CASES)
def test_each_point_is_bitwise_the_point_swept_alone(case):
    system, param, values, extra = CASES[case]
    records = sweep(system, param, values, extra)
    assert [r["status"] for r in records].count("ok") >= 1
    for rec, value in zip(records, values):
        assert json.dumps(rec) == json.dumps(sweep(system, param, [value], extra)[0])


@pytest.fixture
def symbolic_calls(monkeypatch):
    """The sides that ``canonical``'s sort and ``_blocks``'s component labels run on."""
    calls = []
    runs, labels = qrex.lindblad._runs, qrex.spectral._component_labels

    def spy_runs(row, col, side):
        calls.append(("sort", side))
        return runs(row, col, side)

    def spy_labels(n, rows, cols):
        calls.append(("labels", n))
        return labels(n, rows, cols)

    monkeypatch.setattr(qrex.lindblad, "_runs", spy_runs)
    monkeypatch.setattr(qrex.spectral, "_component_labels", spy_labels)
    return calls


@pytest.mark.parametrize("system, extra", [(ring(3), LOCAL_A), (GRID, {"beta": 0.05, **LOCAL_A})],
                         ids=["ring3", "grid2x3"])
def test_symbolic_phase_runs_once_per_generator_per_sweep(symbolic_calls, system, extra):
    def generator_calls(values):
        symbolic_calls.clear()
        sweep(system, "J", values, extra)
        # H itself (side 2^n) is assembled, and the grid's diagonalized, at each point
        return sorted(c for c in symbolic_calls if c[1] != 2 ** (6 if system is GRID else 3))

    one = generator_calls([2.0])
    # single system, joint system, auxiliary A, joint pair and B restriction; the coupling
    # rotation of each of the four CKG builds; the joint pair's product basis; three L_hat
    assert [kind for kind, _ in one].count("sort") == 5 + 4 + 1
    assert [kind for kind, _ in one].count("labels") == 3
    assert generator_calls([1.0, 2.0, 3.0, 5.0]) == one


def test_a_beta_sweep_shares_the_eigensystem_and_cut_labels(monkeypatch):
    counts = {"eigensystem": 0, "joint_structure": 0}
    for name in counts:
        original = getattr(qrex.harness, name)

        def spy(*args, original=original, name=name):
            counts[name] += 1
            return original(*args)

        monkeypatch.setattr(qrex.harness, name, spy)
    records = sweep(ring(4), "beta", [0.5, 1.0, 2.0], LOCAL_A)
    assert [r["beta"] for r in records] == [0.5, 1.0, 2.0]
    assert counts == {"eigensystem": 1, "joint_structure": 1}


def same(a: Triplets, b: Triplets):
    return all(x.dtype == y.dtype and x.tobytes() == y.tobytes()
               for x, y in ((a.row, b.row), (a.col, b.col), (a.val, b.val))) and a.side == b.side


def test_changed_positions_are_analysed_afresh(symbolic_calls):
    row, col = np.array([0, 1, 0, 1], np.int32), np.array([1, 1, 1, 0], np.int32)
    plan = Plan()
    for k, (r, c) in enumerate([(row, col), (row, col), (row, col[::-1].copy()), (row, col)]):
        plan.start()
        val = np.arange(1.0, 5.0) * (k + 1)
        assert same(canonical(r, c, val, 2, plan), canonical(r, c, val, 2))
    # one sort per call without a plan; with it the first, the moved and the moved-back calls
    assert [kind for kind, _ in symbolic_calls].count("sort") == 4 + 3


def test_a_run_summing_to_zero_is_dropped_as_a_fresh_build_drops_it(symbolic_calls):
    # a 4 x 4 symmetric pattern: the block {0, 1} splits when its (0, 1) and (1, 0) runs cancel
    row = np.array([0, 1, 2, 3, 0, 0, 1, 1, 2, 3], np.int32)
    col = np.array([0, 1, 2, 3, 1, 1, 0, 0, 3, 2], np.int32)
    plan, kinds = Plan(), []
    for couple in (0.5, 0.0):
        plan.start()
        symbolic_calls.clear()
        val = np.array([2.0, 3.0, 4.0, 5.0, 1.0, couple - 1.0, 1.0, couple - 1.0, 0.5, 0.5])
        A = canonical(row, col, val, 4, plan)
        fresh = canonical(row, col, val, 4)
        assert block_eigvalsh(A, plan).tobytes() == block_eigvalsh(fresh).tobytes()
        assert same(A, fresh)
        assert A.nnz == (8 if couple else 6)
        kinds.append([kind for kind, _ in symbolic_calls])
    # the second point reuses the planned sort, and the blocks of its smaller pattern are laid
    # out afresh; the calls without a plan sort and label each time
    assert kinds == [["sort", "sort", "labels", "labels"], ["sort", "labels", "labels"]]
