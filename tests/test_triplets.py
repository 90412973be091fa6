"""The numpy replacements of the scipy routines, against scipy kept as a test oracle.

``qrex.lindblad.canonical`` against ``coo_array(...).tocsr()``,
``qrex.replica.lift`` against the relabeled ``sparse.kron``,
the Hermitian part that ``qrex.spectral.block_eigh`` takes of each block,
and its Hermiticity residual, against ``(A + A^dag) / 2`` of a CSR array,
and ``erfc`` and ``theta`` against ``scipy.special``.
"""

import math

import mpmath
import numpy as np
import pytest
import scipy.sparse
from hypothesis import given, settings, strategies as st
from scipy.special import erfc as scipy_erfc, erfcx as scipy_erfcx

from qrex.lindblad import (
    Superoperator,
    Triplets,
    add,
    canonical,
    eigensystem,
    erfc,
    gibbs_state,
    theta,
)
from qrex.replica import lift

from oracles import assert_gate_at, csr_entries, hermitian_part_csr, hermitian_stacks, lift_kron

# dyadic values, whose sums are exact in any order, with exact cancellations
# (1 and -1, 1j and -1j) and explicit zeros
VALUES = st.sampled_from([0.0, 1.0, -1.0, 1j, -1j, 0.5 - 0.25j, 3.0 + 4.0j])


@st.composite
def entry_lists(draw, max_side=6, max_size=40):
    side = draw(st.integers(1, max_side))
    entries = draw(st.lists(st.tuples(st.integers(0, side - 1), st.integers(0, side - 1), VALUES),
                            max_size=max_size))
    row = np.array([r for r, _, _ in entries], dtype=np.int32)
    col = np.array([c for _, c, _ in entries], dtype=np.int32)
    val = np.array([v for _, _, v in entries], dtype=complex)
    return row, col, val, side


def dense_of(row, col, val, side):
    out = np.zeros((side, side), dtype=complex)
    np.add.at(out, (row, col), val)
    return out


@settings(max_examples=300, deadline=None)
@given(entry_lists())
def test_canonical_matches_scipy_tocsr(entries):
    row, col, val, side = entries
    A = canonical(row, col, val, side)
    ref_row, ref_col, ref_val = csr_entries(row, col, val, side)
    assert np.array_equal(A.row, ref_row) and np.array_equal(A.col, ref_col)
    assert np.array_equal(A.val, ref_val)
    assert A.shape == (side, side) and A.nnz == ref_val.size
    assert np.all(A.val != 0)


def test_canonical_of_nothing_is_empty():
    A = canonical(np.zeros(0, np.int32), np.zeros(0, np.int32), np.zeros(0, complex), 4)
    assert A.nnz == 0 and A.shape == (4, 4)
    assert np.array_equal(A.toarray(), np.zeros((4, 4)))


def test_exact_cancellation_is_dropped():
    A = canonical(np.array([1, 1, 0]), np.array([2, 2, 0]), np.array([1j, -1j, 0.0]), 3)
    assert A.nnz == 0


@settings(max_examples=60, deadline=None)
@given(entry_lists())
def test_triplet_arithmetic_matches_dense(entries):
    row, col, val, side = entries
    A = canonical(row, col, val, side)
    B = canonical(col, row, val.conj(), side)
    D = dense_of(row, col, val, side)
    x = np.arange(side) + 1j * np.arange(side)[::-1]
    assert np.allclose(A.toarray(), D)
    assert np.allclose(A @ x, D @ x)
    assert np.allclose(add(A, -B, A).toarray(), 2 * D - D.conj().T)
    assert np.allclose((-A).toarray(), -D)
    T = Triplets.of(D)
    assert np.array_equal(T.toarray(), D) and np.all(T.val != 0)


def test_of_rejects_a_non_square_matrix():
    with pytest.raises(ValueError, match="not square"):
        Triplets.of(np.zeros((2, 3)))


def test_apply_adjoint_is_the_conjugate_transpose_action():
    rng = np.random.default_rng(4)
    d = 3
    M = rng.standard_normal((d * d, d * d)) + 1j * rng.standard_normal((d * d, d * d))
    M[rng.random(M.shape) < 0.5] = 0.0
    sigma = gibbs_state(eigensystem(np.diag([0.0, 1.0, 2.0])), 1.0)
    L = Superoperator(M, sigma)
    rho = rng.standard_normal((d, d)) + 1j * rng.standard_normal((d, d))
    expected = (M.conj().T @ rho.reshape(-1, order="F")).reshape(d, d, order="F")
    assert np.allclose(L.apply_adjoint(rho), expected)


@settings(max_examples=60, deadline=None)
@given(st.integers(1, 3), st.integers(1, 3), st.sampled_from([0, 1]), st.integers(0, 2**32 - 1))
def test_lift_matches_relabeled_sparse_kron(d1, d2, factor, seed):
    rng = np.random.default_rng(seed)
    m = (d1, d2)[factor] ** 2
    M = rng.standard_normal((m, m)) + 1j * rng.standard_normal((m, m))
    M[rng.random((m, m)) < 0.6] = 0.0
    side = (d1 * d2) ** 2
    row, col, val = lift(Triplets.of(M), (d1, d2), factor)
    ours = canonical(row, col, val, side)
    assert np.array_equal(ours.toarray(), lift_kron(scipy.sparse.csr_array(M), (d1, d2), factor))
    # each position once and no zero, so one canonical sort of several parts sums them in order
    assert np.unique(row.astype(np.int64) * side + col).size == val.size == ours.nnz


@settings(max_examples=300, deadline=None)
@given(entry_lists())
def test_hermitian_part_matches_csr_expression(entries):
    row, col, val, side = entries
    A = canonical(row, col, val, side)
    ref, ref_resid = hermitian_part_csr(scipy.sparse.csr_array(dense_of(row, col, val, side)))
    H = hermitian_stacks(A)
    assert np.array_equal(H, ref)
    assert np.array_equal(H, H.conj().T)
    assert_gate_at(A, ref_resid, rel=1e-14)


def test_hermitian_part_of_a_lone_entry_adds_its_mirror():
    A = canonical(np.array([0]), np.array([1]), np.array([2.0 + 2.0j]), 2)
    ref, ref_resid = hermitian_part_csr(scipy.sparse.csr_array(A.toarray()))
    assert np.array_equal(hermitian_stacks(A), [[0, 1 + 1j], [1 - 1j, 0]])
    assert np.array_equal(hermitian_stacks(A), ref)
    assert ref_resid == pytest.approx(np.sqrt(2) * abs(2 + 2j) / abs(2 + 2j))
    assert_gate_at(A, ref_resid, rel=1e-14)


GRID = np.linspace(-60.0, 60.0, 24001)


def test_erfc_matches_scipy_where_scipy_is_accurate():
    x = GRID[GRID <= 10.0]
    assert np.max(np.abs(erfc(x) - scipy_erfc(x)) / scipy_erfc(x)) <= 1e-14


def test_erfc_matches_mpmath_on_the_whole_grid():
    # scipy.special.erfc itself is off by up to 6e-14 relative near x = 24
    # (against 40-digit mpmath), so the far tail is checked against mpmath;
    # both underflow to exactly zero beyond x = 27.3
    x = GRID[::40]
    with mpmath.workdps(40):
        ref = np.array([float(mpmath.erfc(v)) for v in x])
    normal = ref > np.finfo(float).tiny
    assert np.max(np.abs(erfc(x[normal]) - ref[normal]) / ref[normal]) <= 1e-14
    assert np.array_equal(erfc(x) == 0.0, ref == 0.0)
    assert erfc(1.5) == math.erfc(1.5) and erfc(np.array(1.5)).shape == ()


def test_theta_matches_the_scipy_special_formula():
    x = GRID
    v = (1.0 + 2.0 * x) / (2.0 * np.sqrt(2.0))
    u = (1.0 - 2.0 * x) / (2.0 * np.sqrt(2.0))
    upos = np.maximum(u, 0.0)
    with np.errstate(over="ignore", invalid="ignore"):
        second = np.where(u >= 0.0, np.exp(-((upos - 1.0 / np.sqrt(2.0)) ** 2)) * scipy_erfcx(upos),
                          np.exp(-x) * scipy_erfc(u))
    ref = 0.5 * (scipy_erfc(v) + second)
    assert np.any(u > 26.6)  # where erfc(u) underflows
    with np.errstate(over="raise", invalid="raise"):
        assert np.max(np.abs(theta(x) - ref) / ref) <= 1e-14
    assert theta(0.25) == pytest.approx(float(theta(np.array([0.25]))[0]), rel=0, abs=0)
