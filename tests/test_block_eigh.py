"""Block eigensolves along the exact zero pattern of a Hermitian matrix."""

import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from qrex.hamiltonians import assemble_dense, defected_ising_1d
from qrex.lindblad import (
    Superoperator,
    Triplets,
    WeightFunction,
    build_ckg_generator,
    eigensystem,
)
from qrex.pauli import single_site_paulis
from qrex.replica import (
    build_replica_exchange_generator,
    joint_structure,
    swap_generator_closed_form,
)
from qrex.spectral import (
    HERMITICITY_TOL,
    _blocks,
    _component_labels,
    block_eigh,
    block_eigvalsh,
    spectral_gap,
    spectral_norm,
    symmetrize,
    transpose_map,
)

from oracles import (
    assert_gate_at,
    blocks_csgraph,
    component_labels_csgraph,
    no_eigensolve,
    unpaired,
)
from test_spectral import COMPLEX_CHAIN, REAL_GENERATORS

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
    found = {frozenset(row.tolist()) for idx, _, _, _ in groups for row in idx}
    assert found == comps
    dense = np.linalg.eigvalsh(A)
    scale = max(1.0, np.abs(dense).max())
    assert np.abs(block_eigvalsh(A) - dense).max() <= 1e-12 * scale
    for idx, w, V, twin in groups:
        assert not twin.any()  # a dense matrix is not paired
        sub = A[idx[:, :, None], idx[:, None, :]]
        assert np.abs(sub @ V - V * w[:, None, :]).max() <= 1e-12 * scale


def test_matrix_without_zeros_is_one_block():
    rng = np.random.default_rng(0)
    A = rng.standard_normal((12, 12))
    A += A.T + 1.0
    (idx, w, V, _), = block_eigh(A)
    assert idx.shape == (1, 12)
    assert np.allclose(w[0], np.linalg.eigvalsh(A), rtol=0, atol=1e-12)


def test_zero_matrix_splits_into_singletons():
    (idx, w, _, _), = block_eigh(np.zeros((5, 5)), vectors=False)
    assert idx.shape == (5, 1)
    assert np.all(w == 0.0)


def block_counts(A):
    """(blocks, blocks solved, side of the largest) of the block eigensolve of A."""
    groups = block_eigh(A, vectors=False)
    return (sum(idx.shape[0] + int(twin.sum()) for idx, _, _, twin in groups),
            sum(idx.shape[0] for idx, _, _, _ in groups),
            max(idx.shape[1] for idx, _, _, _ in groups))


def test_ring_n5_lhat_block_count():
    # a change that fills the structural zeros of L_hat (for example roundoff
    # in symmetrize) fails here instead of making every eigensolve dense
    H = assemble_dense(defected_ising_1d(5, 3.0))
    es = eigensystem(H)
    L = build_ckg_generator(es, single_site_paulis(5), GM)
    # one block of each conjugate pair is solved; the population block pairs with itself
    assert block_counts(symmetrize(L)) == (243, 122, 32)


def test_closed_form_swap_block_count():
    spec = defected_ising_1d(3, 3.0)
    js = joint_structure(spec)
    S = swap_generator_closed_form(js, 1.0)
    assert block_counts(symmetrize(S)) == (544, 288, 2)


def test_labeled_joint_block_count():
    spec = defected_ising_1d(3, 3.0)
    js = joint_structure(spec)
    L = build_replica_exchange_generator(js, GG)
    assert block_counts(symmetrize(L)) == (135, 70, 32)


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
        rep = spectral_gap(L)
        peak = tracemalloc.get_traced_memory()[1] - start
    finally:
        tracemalloc.stop()
    assert peak < 2**30
    assert L.local.nnz == 73728
    assert rep.kernel_dim == 1
    assert block_counts(symmetrize(L)) == (2187, 1094, 128)


@st.composite
def edge_lists(draw):
    """(n, rows, cols): up to 3n edges on n vertices, self-loops and repeats included.

    ``upper``/``lower`` orient every edge into one triangle, so each link
    appears as (i, j) or (j, i) only.
    """
    n = draw(st.integers(1, 40))
    vertex = st.integers(0, n - 1)
    edges = np.array(draw(st.lists(st.tuples(vertex, vertex), max_size=3 * n)),
                     dtype=np.int64).reshape(-1, 2)
    rows, cols = edges.T
    side = draw(st.sampled_from(["any", "upper", "lower"]))
    if side != "any":
        rows, cols = np.minimum(rows, cols), np.maximum(rows, cols)
        if side == "lower":
            rows, cols = cols, rows
    return n, rows, cols


@settings(max_examples=200, deadline=None)
@given(edge_lists())
def test_component_labels_match_csgraph(case):
    n, rows, cols = case
    label = _component_labels(n, rows, cols)
    assert label.dtype == np.intp
    assert np.array_equal(label, component_labels_csgraph(n, rows, cols))


@pytest.mark.parametrize("loops", [False, True])
def test_vertices_without_links_are_their_own_components(loops):
    rows = cols = np.arange(6) if loops else np.arange(0)
    assert np.array_equal(_component_labels(6, rows, cols), np.arange(6))


@pytest.mark.parametrize("order", ["ascending", "descending", "shuffled"])
def test_long_path_is_one_component(order):
    # a path in index order hooks into one chain of n - 1 links, the longest
    # that pointer jumping has to shorten
    n = 5000
    path = {"ascending": np.arange(n), "descending": np.arange(n)[::-1],
            "shuffled": np.random.default_rng(3).permutation(n)}[order]
    rows, cols = path[:-1], path[1:]
    label = _component_labels(n + 2, rows, cols)  # two vertices off the path
    assert np.array_equal(label, component_labels_csgraph(n + 2, rows, cols))
    assert np.array_equal(label[[0, n - 1, n, n + 1]], [0, 0, 1, 2])


def assert_blocks_match_csgraph(A):
    ours, ref = _blocks(A), blocks_csgraph(A)
    assert len(ours) == len(ref)
    for (idx, sub, twin), (ref_idx, ref_sub, ref_twin) in zip(ours, ref):
        assert np.array_equal(idx, ref_idx)
        assert sub.dtype == ref_sub.dtype and np.array_equal(sub, ref_sub)
        assert np.array_equal(twin, ref_twin)


# the real generator families, and the complex -X0 Y1 - Z1 Z2 - 0.5 X2 chain
BLOCK_GENERATORS = {**REAL_GENERATORS, "complex3": lambda: build_ckg_generator(
    eigensystem(assemble_dense(COMPLEX_CHAIN)), single_site_paulis(3), GM)}


@pytest.mark.parametrize("paired", [True, False], ids=["paired", "unpaired"])
@pytest.mark.parametrize("name", BLOCK_GENERATORS)
def test_blocks_match_csgraph(name, paired):
    Lhat = symmetrize(BLOCK_GENERATORS[name]())
    assert Lhat.val.dtype == (np.complex128 if name == "complex3" else np.float64)
    assert_blocks_match_csgraph(Lhat if paired else unpaired(Lhat))


def test_blocks_temporaries_stay_within_an_allowance_per_entry():
    # ring n = 8: 327,680 entries and 6.98 MB of stacks.  The peak beyond the
    # stacks was 32.2 bytes per entry with one buffer scattered once, against
    # 46.9 with a counting sort of the entries by stack
    es = eigensystem(assemble_dense(defected_ising_1d(8, 3.0)))
    Lhat = symmetrize(build_ckg_generator(es, single_site_paulis(8), GM))
    tracemalloc.start()
    try:
        start = tracemalloc.get_traced_memory()[0]
        tracemalloc.reset_peak()
        blocks = _blocks(Lhat)
        peak = tracemalloc.get_traced_memory()[1] - start
    finally:
        tracemalloc.stop()
    stacks = sum(sub.nbytes for _, sub, _ in blocks)
    assert Lhat.nnz == 327680 and stacks == 6980608
    assert peak < stacks + 40 * Lhat.nnz


def generic_generator(n, w, seed):
    """The generator of a random Hermitian H: its L_hat has no structural zero."""
    rng = np.random.default_rng(seed)
    R = rng.standard_normal((2**n, 2**n)) + 1j * rng.standard_normal((2**n, 2**n))
    return build_ckg_generator(eigensystem((R + R.conj().T) / 4), single_site_paulis(n), w)


def assert_routes_agree(Lhat):
    paired, general = block_eigvalsh(Lhat), block_eigvalsh(unpaired(Lhat))
    assert np.abs(paired - general).max() <= 1e-12 * np.abs(general).max()  # ||L_hat||_2


@pytest.mark.parametrize("w", [GM, GG], ids=["metropolis", "gaussian"])
@pytest.mark.parametrize("n", [1, 2, 3])
def test_paired_route_matches_general_route_on_generic_generators(n, w):
    for seed in range(3):
        assert_routes_agree(symmetrize(generic_generator(n, w, seed)))


@pytest.mark.parametrize("w", [GM, GG], ids=["metropolis", "gaussian"])
def test_paired_route_matches_general_route_on_joint_generator(w):
    js = joint_structure(defected_ising_1d(3, 3.0))
    assert_routes_agree(symmetrize(build_replica_exchange_generator(js, w)))


@pytest.mark.parametrize("seed", range(4))
def test_matrix_without_the_pairing_takes_the_general_route(seed):
    # blocks of sizes 3, 5, 1, 4, 3 on 16 = 4^2 indices, permuted at random:
    # the transpose map does not carry them onto blocks
    dense, _ = permuted_block_diagonal([3, 5, 1, 4, 3], seed)
    A = Triplets.of(dense)
    assert np.abs(block_eigvalsh(A) - np.linalg.eigvalsh(dense)).max() \
        <= 1e-12 * max(1.0, np.linalg.norm(dense, 2))
    with pytest.raises(ValueError, match="not paired by the transpose map"):
        block_eigh(Triplets(A.row, A.col, A.val, A.side, paired=True))


def test_pairing_residual_is_named():
    # the ring's L_hat with one entry of a partner block moved by 1e-6 of the largest
    es = eigensystem(assemble_dense(defected_ising_1d(3, 3.0)))
    Lhat = symmetrize(build_ckg_generator(es, single_site_paulis(3), GM))
    solved = np.concatenate([idx.ravel() for idx, _, _ in blocks_csgraph(Lhat)])
    e = np.flatnonzero(~np.isin(Lhat.row, solved))[0]
    val = Lhat.val.copy()
    val[e] += 1e-6 * np.abs(Lhat.val).max()
    with pytest.raises(ValueError, match=r"pairing residual \d\.\d\de-07"):
        block_eigh(Triplets(Lhat.row, Lhat.col, val, Lhat.side, paired=True))


def test_solved_entry_without_a_mirror_counts_whole():
    # a diagonal entry of a partner block removed: the blocks still pair, but the
    # T-image of that entry in the solved block has no mirror
    es = eigensystem(assemble_dense(defected_ising_1d(3, 3.0)))
    Lhat = symmetrize(build_ckg_generator(es, single_site_paulis(3), GM))
    solved = np.concatenate([idx.ravel() for idx, _, _ in blocks_csgraph(Lhat)])
    keep = np.ones(Lhat.nnz, dtype=bool)
    keep[np.flatnonzero((Lhat.row == Lhat.col) & ~np.isin(Lhat.row, solved))[0]] = False
    bad = Triplets(Lhat.row[keep], Lhat.col[keep], Lhat.val[keep], Lhat.side, paired=True)
    assert np.array_equal(_component_labels(bad.side, bad.row, bad.col),
                          _component_labels(Lhat.side, Lhat.row, Lhat.col))
    with pytest.raises(ValueError, match="pairing residual"):
        block_eigh(bad)


def ring_generator():
    es = eigensystem(assemble_dense(defected_ising_1d(3, 3.0)))
    return build_ckg_generator(es, single_site_paulis(3), GM)


def test_perturbation_inside_a_solved_twin_block_is_refused():
    # an off-diagonal entry of a solved twin block and its T-image in the partner
    # block moved alike: the pair stays conjugate, so only the Hermiticity gate
    # sees it, and its residual counts the partner block as well
    Lhat = symmetrize(ring_generator())
    twin_idx = np.concatenate([idx[twin].ravel() for idx, _, twin in blocks_csgraph(Lhat)])
    e = np.flatnonzero(np.isin(Lhat.row, twin_idx) & (Lhat.row != Lhat.col))[0]
    t = transpose_map(Lhat.side)
    key = Lhat.row.astype(np.int64) * Lhat.side + Lhat.col
    image = np.searchsorted(key, t[Lhat.row[e]] * Lhat.side + t[Lhat.col[e]])
    val = Lhat.val.copy()
    val[e] += 1e-6 * np.abs(Lhat.val).max()
    val[image] = np.conj(val[e])
    bad = Triplets(Lhat.row, Lhat.col, val, Lhat.side, paired=True)
    D = bad.toarray()
    resid = np.linalg.norm(D - D.conj().T) / max(1.0, np.linalg.norm(D))
    assert resid > HERMITICITY_TOL
    assert_gate_at(bad, resid, rel=1e-12)
    with pytest.raises(ValueError, match="not detailed balanced"):
        block_eigh(bad)


def test_perturbation_inside_a_partner_block_is_refused_by_the_mirror_check():
    # the generator itself perturbed, on one entry of a partner block of its L_hat
    L = ring_generator()
    Lhat = symmetrize(L)
    solved = np.concatenate([idx.ravel() for idx, _, _ in blocks_csgraph(Lhat)])
    partner = np.flatnonzero(~np.isin(Lhat.row, solved))
    e = partner[np.argmax(np.abs(Lhat.val[partner]))]
    val = L.local.val.copy()
    val[e] *= 1.0 + 1e-4
    bad = Superoperator(Triplets(L.local.row, L.local.col, val, L.local.side), L.sigma)
    with no_eigensolve(), pytest.raises(ValueError, match="pairing residual"):
        spectral_gap(bad)
