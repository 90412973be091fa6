"""Block eigensolves along the exact zero pattern of a Hermitian matrix."""

import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from qrex.hamiltonians import assemble_dense, defected_ising_1d
from qrex.lindblad import WeightFunction, build_ckg_generator, eigensystem, gibbs_state
from qrex.pauli import single_site_paulis
from qrex.replica import (
    build_replica_exchange_generator,
    joint_gibbs,
    joint_structure,
    swap_generator_closed_form,
)
from qrex.spectral import block_eigh, block_eigvalsh, spectral_gap, spectral_norm, symmetrize

GM = WeightFunction("metropolis", 1.0)
GG = WeightFunction("gaussian", 1.0)


def permuted_block_diagonal(sizes, seed):
    """Hermitian matrix with one connected block per size, rows and columns permuted.

    Each block is chained (every superdiagonal entry is nonzero), so its
    indices form exactly one component; other in-block entries are zeroed at
    random.  Returns the matrix and the set of components.
    """
    rng = np.random.default_rng(seed)
    n = sum(sizes)
    A = np.zeros((n, n), dtype=complex)
    start = 0
    for b in sizes:
        B = rng.standard_normal((b, b)) + 1j * rng.standard_normal((b, b))
        B *= rng.random((b, b)) < 0.5
        B[np.arange(b - 1), np.arange(1, b)] = 1.0 + rng.random(b - 1)
        A[start:start + b, start:start + b] = np.triu(B) + np.triu(B, 1).conj().T
        A[np.arange(start, start + b), np.arange(start, start + b)] = rng.standard_normal(b)
        start += b
    perm = rng.permutation(n)
    inv = np.argsort(perm)
    offsets = np.cumsum([0] + list(sizes))
    comps = {frozenset(inv[offsets[k]:offsets[k + 1]].tolist()) for k in range(len(sizes))}
    return A[np.ix_(perm, perm)], comps


@settings(max_examples=60, deadline=None)
@given(st.lists(st.integers(1, 7), min_size=1, max_size=8), st.integers(0, 2**32 - 1))
def test_components_and_spectrum_of_permuted_block_diagonal(sizes, seed):
    A, comps = permuted_block_diagonal(sizes, seed)
    groups = block_eigh(A)
    found = {frozenset(row.tolist()) for idx, _, _ in groups for row in idx}
    assert found == comps
    dense = np.linalg.eigvalsh(A)
    scale = max(1.0, np.abs(dense).max())
    assert np.abs(block_eigvalsh(A) - dense).max() <= 1e-12 * scale
    for idx, w, V in groups:
        sub = A[idx[:, :, None], idx[:, None, :]]
        assert np.abs(sub @ V - V * w[:, None, :]).max() <= 1e-12 * scale


def test_matrix_without_zeros_is_one_block():
    rng = np.random.default_rng(0)
    A = rng.standard_normal((12, 12))
    A += A.T + 1.0
    (idx, w, V), = block_eigh(A)
    assert idx.shape == (1, 12)
    assert np.allclose(w[0], np.linalg.eigvalsh(A), rtol=0, atol=1e-12)


def test_zero_matrix_splits_into_singletons():
    (idx, w, _), = block_eigh(np.zeros((5, 5)), vectors=False)
    assert idx.shape == (5, 1)
    assert np.all(w == 0.0)


def block_counts(A):
    idx = [i for i, _, _ in block_eigh(A, vectors=False)]
    return sum(i.shape[0] for i in idx), max(i.shape[1] for i in idx)


def test_ring_n5_lhat_block_count():
    # a change that fills the structural zeros of L_hat (for example roundoff
    # in symmetrize) fails here instead of making every eigensolve dense
    H = assemble_dense(defected_ising_1d(5, 3.0))
    es = eigensystem(H)
    L = build_ckg_generator(es, single_site_paulis(5), GM)
    assert block_counts(symmetrize(L, gibbs_state(es, 1.0))) == (243, 32)


def test_closed_form_swap_block_count():
    spec = defected_ising_1d(3, 3.0)
    js = joint_structure(spec)
    S = swap_generator_closed_form(js, 1.0)
    assert block_counts(symmetrize(S, joint_gibbs(js, 1.0))) == (544, 2)


def test_labeled_joint_block_count():
    spec = defected_ising_1d(3, 3.0)
    js = joint_structure(spec)
    L = build_replica_exchange_generator(js, GG)
    assert block_counts(symmetrize(L, joint_gibbs(js, 1.0))) == (135, 32)


@pytest.mark.parametrize("structured", [False, True])
def test_spectral_norm_matches_svd(structured):
    rng = np.random.default_rng(7)
    if structured:
        X, comps = permuted_block_diagonal([3, 5, 1, 4], 11)
        X[np.triu_indices(13, 1)] *= 2.0  # no longer Hermitian, same pattern
        # one entry above or below the diagonal alone joins two blocks
        (i, *_), (j, *_) = sorted(sorted(c) for c in comps)[:2]
        X[i, j] = 3.0
    else:
        X = rng.standard_normal((20, 20)) + 1j * rng.standard_normal((20, 20))
    assert spectral_norm(X) == pytest.approx(np.linalg.norm(X, 2), rel=1e-12)


def test_ring_n7_fits_the_sparse_route():
    # the dense d^2 x d^2 route needs 4.3 GB per full-size array at n = 7
    tracemalloc.start()
    try:
        start = tracemalloc.get_traced_memory()[0]
        tracemalloc.reset_peak()
        H = assemble_dense(defected_ising_1d(7, 3.0))
        es = eigensystem(H)
        L = build_ckg_generator(es, single_site_paulis(7), GM)
        sigma = gibbs_state(es, 1.0)
        rep = spectral_gap(L, sigma)
        peak = tracemalloc.get_traced_memory()[1] - start
    finally:
        tracemalloc.stop()
    assert peak < 2**30
    assert L.local.nnz == 73728
    assert rep.kernel_dim == 1
    assert block_counts(symmetrize(L, sigma)) == (2187, 128)
