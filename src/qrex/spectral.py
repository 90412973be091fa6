"""KMS geometry: symmetrization, spectral gaps, norms, and gap-composition checks.

A detailed-balanced generator L is self-adjoint in the KMS inner product
<X, Y>_sigma = Tr[sigma^(1/2) X^dag sigma^(1/2) Y].  The isometry
Phi(X) = sigma^(1/4) X sigma^(1/4) carries that geometry to Hilbert-Schmidt,
so L_hat = Phi o L o Phi^(-1) is an honest Hermitian matrix whose spectrum
is the KMS spectrum of L.  Every builder stores its generator in a basis
where its Gibbs state is diagonal: ``build_ckg_generator`` (with
``gibbs_state``) in the energy eigenbasis, the closed-form swap and local_A
joint generators (with ``replica.joint_gibbs``) in the labeled product basis,
the global generator in U (x) U.  There Phi is the diagonal scaling
diag(phi) L diag(1/phi) of the sparse stored matrix (Chen-Kastoryano-Gilyen,
arXiv:2311.09207), so L_hat is a CSR array with the pattern of L, and it is
only ever formed there: ``symmetrize`` rejects a generator stored in any
other basis.  L is detailed balanced exactly when L_hat is Hermitian, so that
residual is the detailed-balance check.

Every eigensolve of L_hat goes through ``block_eigh``: single-site jumps in
a basis where H is diagonal leave most entries of L_hat exactly zero, and
the connected components of that zero pattern (``scipy.sparse.csgraph``)
are blocks solved on their own.  The spectrum of a matrix with exact zeros
outside its blocks is the union of the block spectra, so this is exact; a
matrix without zeros is one block.

The bound g_B of the main theorem, the smallest gap of the pinned B
generators, is read off one generator: ``a_diagonal_restriction_gap``.
"""

from dataclasses import dataclass

import numpy as np
from scipy import sparse
from scipy.sparse.csgraph import connected_components

from .lindblad import (
    Superoperator,
    WeightFunction,
    build_ckg_generator,
    gibbs_state,
)
from .pauli import single_site_paulis

KERNEL_TOL = 1e-9
# relative Frobenius residual ||L_hat - L_hat^dag|| / max(1, ||L_hat||) above
# which a generator is rejected as not detailed balanced
HERMITICITY_TOL = 1e-9


@dataclass
class GapReport:
    gap: float
    kernel_dim: int
    kms_norm: float
    eigenvalue_tail: list
    tolerance: float

    def to_json_dict(self):
        return {
            "gap": self.gap,
            "kernel_dim": self.kernel_dim,
            "kms_norm": self.kms_norm,
            "eigs": list(self.eigenvalue_tail),
            "tol": self.tolerance,
        }


def kms_scaling(sigma):
    """Diagonal of Phi in the vec coordinates of sigma.basis: kron(q, q), q = weights^(1/4)."""
    q = sigma.weights**0.25
    return np.kron(q, q)  # q_j q_i at vec index i + d*j


def symmetrize(L: Superoperator, sigma):
    """Hermitian matrix of Phi o L o Phi^(-1), as CSR in the basis L is stored in.

    L must be stored in the basis sigma is diagonal in (``GibbsState.basis``);
    there Phi is the diagonal scaling diag(phi) L diag(1/phi) with
    phi = kms_scaling(sigma).  Raises ValueError when L is stored in another
    basis, or when the Hermiticity residual of L_hat exceeds HERMITICITY_TOL
    (L is not detailed balanced).
    """
    if not np.array_equal(L.basis, sigma.basis):
        raise ValueError("basis mismatch: the generator is not stored in the basis its Gibbs "
                         "state is diagonal in")
    phi = kms_scaling(sigma)
    Lhat = sparse.diags_array(phi) @ L.local @ sparse.diags_array(1.0 / phi)
    Lhat, herm = _hermitian_part(Lhat)
    if herm > HERMITICITY_TOL:
        raise ValueError(f"generator is not detailed balanced (Hermiticity residual of "
                         f"L_hat {herm:.2e})")
    return Lhat


def _hermitian_part(A):
    """(A + A^dag) / 2 of the sparse square A, and ||A - A^dag|| / max(1, ||A||).

    Entry (i, j) of the result is (a_ij + conj(a_ji)) / 2 and entry (j, i)
    its conjugate, so the result is exactly Hermitian.
    """
    Ah = A.conj().T
    resid = np.linalg.norm((A - Ah).data) / max(1.0, np.linalg.norm(A.data))
    H = A + Ah
    H *= 0.5
    return H, float(resid)


def _blocks(A):
    """Diagonal blocks of the square A along the connected components of its nonzero pattern.

    Entry (i, j) links i and j whichever triangle it sits in (weak
    connectivity), so the blocks are those of one simultaneous row/column
    permutation, also for a non-Hermitian A.  A is dense or sparse.  Returns
    one (idx, sub) pair per distinct component size b: ``idx`` is the (k, b)
    array of the indices of k components, ascending within a row, and
    ``sub`` the dense (k, b, b) stack of the blocks A[i][:, i], i = idx[c].
    """
    A = sparse.coo_array(A)
    A.sum_duplicates()
    nz = A.data != 0
    rows, cols, vals = A.row[nz], A.col[nz], A.data[nz]
    n = A.shape[0]
    graph = sparse.coo_array((np.ones(rows.size), (rows, cols)), shape=(n, n))
    _, label = connected_components(graph, directed=True, connection="weak")
    sizes = np.bincount(label)
    order = np.argsort(label, kind="stable")
    starts = np.cumsum(sizes) - sizes
    pos = np.empty(n, dtype=np.int64)  # place of each index within its component
    pos[order] = np.arange(n) - starts[label[order]]
    out = []
    for b in np.unique(sizes):
        comps = np.nonzero(sizes == b)[0]
        slot = np.empty(sizes.size, dtype=np.int64)
        slot[comps] = np.arange(comps.size)
        sub = np.zeros((comps.size, b, b), dtype=A.dtype)
        mine = sizes[label[rows]] == b
        r, c = rows[mine], cols[mine]
        sub[slot[label[r]], pos[r], pos[c]] = vals[mine]
        out.append((order[starts[comps][:, None] + np.arange(b)], sub))
    return out


def block_eigh(A, vectors=True):
    """Eigendecomposition of the Hermitian A (dense or sparse), one batched eigh per block size.

    Returns a list of (idx, w, V), one per distinct block size b: ``idx`` is
    the (k, b) array of the indices of k blocks, ``w`` their (k, b) ascending
    eigenvalues and ``V`` their (k, b, b) eigenvectors (None without
    ``vectors``), so that A[i][:, i] @ V[c] = V[c] * w[c] with i = idx[c].
    """
    groups = []
    for idx, sub in _blocks(A):
        if vectors:
            w, V = np.linalg.eigh(sub)
        else:
            w, V = np.linalg.eigvalsh(sub), None
        groups.append((idx, w, V))
    return groups


def block_eigvalsh(A):
    """Ascending eigenvalues of the Hermitian A, solved block by block."""
    return np.sort(np.concatenate([w.ravel() for _, w, _ in block_eigh(A, vectors=False)]))


def spectral_norm(X):
    """Largest singular value of the square X: sqrt of the top eigenvalue of X^dag X per block."""
    top = 0.0
    for _, sub in _blocks(X):
        top = max(top, float(np.linalg.eigvalsh(sub.conj().transpose(0, 2, 1) @ sub)[:, -1].max()))
    return float(np.sqrt(top))


def gap_from_eigenvalues(evals, tol=KERNEL_TOL) -> GapReport:
    """Kernel dimension and gap from the ascending eigenvalues of -L_hat.

    Errors out if the kernel threshold would split a near-degenerate cluster
    (first above-threshold eigenvalue within 10x of the threshold).
    """
    scale = max(np.abs(evals).max(), 1e-300)
    threshold = tol * scale
    kernel_dim = int(np.sum(evals <= threshold))
    if kernel_dim == evals.size:
        raise ValueError("generator has no spectrum above the kernel threshold")
    gap = float(evals[kernel_dim])
    if gap < 10 * threshold:
        raise ValueError(
            f"ambiguous kernel cluster: gap {gap:.3e} within 10x of threshold {threshold:.3e}"
        )
    return GapReport(
        gap=gap,
        kernel_dim=kernel_dim,
        kms_norm=float(evals[-1]),
        eigenvalue_tail=[float(v) for v in evals[:8]],
        tolerance=float(threshold),
    )


def spectral_gap(L: Superoperator, sigma, tol=KERNEL_TOL) -> GapReport:
    """Kernel dimension and smallest nonzero eigenvalue of -L_hat."""
    return gap_from_eigenvalues(block_eigvalsh(-symmetrize(L, sigma)), tol)


def kms_operator_norm(L: Superoperator, sigma) -> float:
    """Largest eigenvalue of -L_hat (the KMS operator norm of -L)."""
    return float(block_eigvalsh(-symmetrize(L, sigma))[-1])


def _gap_of_psd(M, tol=1e-10):
    """Smallest eigenvalue above tol * max |eigenvalue| of each PSD matrix in the (..., d, d) M.

    0.0 where there is none (the zero matrix); a float for one matrix.
    """
    evals = np.linalg.eigvalsh(M)
    scale = np.maximum(np.abs(evals).max(axis=-1), 1e-300)
    pos = evals > tol * scale[..., None]
    # eigenvalues ascend, so the first one above the cut is the gap
    first = np.take_along_axis(evals, pos.argmax(axis=-1)[..., None], axis=-1)[..., 0]
    gap = np.where(pos.any(axis=-1), first, 0.0)
    return float(gap) if gap.ndim == 0 else gap


def _dag(X):
    return X.conj().swapaxes(-1, -2)


def _random_psd(rng, count, dim, rank=None):
    """(count, dim, dim) stack of C C^dag with complex Gaussian C of rank ``rank`` (per instance)."""
    C = rng.standard_normal((count, dim, dim)) + 1j * rng.standard_normal((count, dim, dim))
    if rank is not None:
        C *= np.arange(dim) < np.asarray(rank)[:, None, None]  # keep the first rank columns
    return C @ _dag(C)


def _tally(margins):
    """Violation count and worst (non-positive) margin of one case."""
    return {"violations": int(np.sum(margins < -1e-10)),
            "worst_margin": float(min(0.0, margins.min()))}


def gap_composition_suite(seed=42, n_instances=200, dim=6):
    """Randomized checks of the PSD gap-composition facts used downstream.

    Cases: (1) ker(A+B) = ker(B) forces Gap(A+B) >= Gap(B); (2) commuting
    PSD pairs give Gap(A+B) >= min of the gaps; (3) the g_A g_B/(g_A+||B||)
    operator lower bound; (4) the scalar ratio inequality.  Each case draws
    its n_instances instances as one (n_instances, dim, dim) stack and
    decides them with stacked eigh/eigvalsh/qr.  Returns a report with
    per-case violation counts and worst margins.
    """
    rng = np.random.default_rng(seed)
    n = n_instances
    cases = {}

    # case 1: ker(A+B) = ker(B) by construction, B of rank dim - {1, 2}
    B = _random_psd(rng, n, dim, rank=dim - rng.integers(1, 3, size=n))
    evals, V = np.linalg.eigh(B)
    keep = evals > 1e-10 * evals[:, -1:]
    P = (V * keep[:, None, :]) @ _dag(V)  # projectors onto ker(B)^perp
    A = P @ _random_psd(rng, n, dim) @ P
    cases["kernel_agreement"] = _tally(_gap_of_psd(A + B) - _gap_of_psd(B))

    # case 2: commuting pairs via a shared eigenbasis, with one shared zero
    # eigenvalue and one further zero each
    Q, _ = np.linalg.qr(rng.standard_normal((n, dim, dim))
                        + 1j * rng.standard_normal((n, dim, dim)))
    a = np.abs(rng.standard_normal((n, dim)))
    b = np.abs(rng.standard_normal((n, dim)))
    inst = np.arange(n)
    shared_zero = rng.integers(0, dim, size=n)
    a[inst, shared_zero] = b[inst, shared_zero] = 0.0
    a[inst, rng.integers(0, dim, size=n)] = 0.0
    b[inst, rng.integers(0, dim, size=n)] = 0.0
    A = (Q * a[:, None, :]) @ _dag(Q)
    B = (Q * b[:, None, :]) @ _dag(Q)
    cases["commuting_min"] = _tally(
        _gap_of_psd(A + B) - np.minimum(_gap_of_psd(A), _gap_of_psd(B)))

    # case 3: A + B >= g_A g_B / (g_A + ||B||) when B has energy >= g_B on ker(A),
    # A of rank dim - {1, 2}
    A = _random_psd(rng, n, dim, rank=dim - rng.integers(1, 3, size=n))
    evals, V = np.linalg.eigh(A)
    kernel_dim = np.sum(evals <= 1e-10 * np.maximum(evals[:, -1:], 1.0), axis=1)
    B = _random_psd(rng, n, dim)
    g_b = np.empty(n)
    for kd in np.unique(kernel_dim):  # the kernel is the leading kd eigenvectors
        sel = kernel_dim == kd
        K = V[sel][:, :, :kd]
        g_b[sel] = np.linalg.eigvalsh(_dag(K) @ B[sel] @ K)[:, 0]
    g_a = _gap_of_psd(A)
    bound = g_a * g_b / (g_a + np.linalg.norm(B, 2, axis=(1, 2)))
    cases["kernel_energy_bound"] = _tally(np.linalg.eigvalsh(A + B)[:, 0] - bound)

    # case 4: scalar ratio inequality on random positive tuples
    a1, a2, b1, b2 = (np.abs(rng.standard_normal((n, 4))) + 1e-3).T
    cases["ratio_inequality"] = _tally((a1 + b1) / (a2 + b2) - np.minimum(a1 / a2, b1 / b2))

    return {"cases": cases, "passed": all(c["violations"] == 0 for c in cases.values())}


def a_diagonal_restriction_gap(js, w: WeightFunction):
    """g_B: gap of the B-site generator restricted to the A-diagonal sector.

    Zeroing the A-off-diagonal sector block-diagonalizes the generator over
    the A labels, so this equals min_i Gap of the pinned generators, the g_B
    of the main theorem, at the temperature ``w.beta``.  The generator is
    built in the product labels |i_A j_B> of the caller's
    replica.JointStructure ``js``, which diagonalize H, so L_hat is a sparse
    scaling and the A-diagonal rows and columns are gathered from it
    directly.
    """
    es = js.system_es
    couplings = single_site_paulis(js.n, sites=js.cut.perm_order[js.n_a:])
    Lhat = symmetrize(build_ckg_generator(es, couplings, w), gibbs_state(es, w.beta))
    d = es.dim
    a_label = np.arange(d) // js.d_b  # A label of each stored basis index
    r = np.arange(d * d)  # vec index r = i + d*j
    keep = np.nonzero(a_label[r % d] == a_label[r // d])[0]
    return gap_from_eigenvalues(block_eigvalsh(-Lhat[keep][:, keep])).gap
