"""KMS geometry: symmetrization, spectral gaps, norms, and gap-composition checks.

A detailed-balanced generator L is self-adjoint in the KMS inner product
<X, Y>_sigma = Tr[sigma^(1/2) X^dag sigma^(1/2) Y].  The isometry
Phi(X) = sigma^(1/4) X sigma^(1/4) carries that geometry to Hilbert-Schmidt,
so L_hat = Phi o L o Phi^(-1) is an honest Hermitian matrix whose spectrum
is the KMS spectrum of L.  Gaps, operator norms and kernel dimensions are
read off the eigendecomposition of -L_hat, formed in the basis the generator
is stored in.  ``build_ckg_generator`` (with ``gibbs_state``) and the
closed-form swap and local_A joint generators (with ``replica.joint_gibbs``)
are stored in a basis where sigma is diagonal, and there Phi is an
elementwise scaling; any other pairing, among them the generic swap and the
global-mode generator, takes the leg-wise basis change ``congruence``.  L is
detailed balanced exactly when L_hat is Hermitian, so that residual is the
detailed-balance check.

Every eigensolve of L_hat goes through ``block_eigh``: single-site jumps in
a basis where H is diagonal leave most entries of L_hat exactly zero, and
the connected components of that zero pattern are blocks solved on their
own.  The spectrum of a matrix with exact zeros outside its blocks is the
union of the block spectra, so this is exact; a matrix without zeros is one
block.
"""

from dataclasses import dataclass

import numpy as np

from .hamiltonians import (
    a_side_eigenbasis,
    assemble_dense,
    check_commuting_cut,
    compress_onto,
)
from .lindblad import (
    Superoperator,
    WeightFunction,
    build_ckg_generator,
    congruence,
    eigensystem,
    gibbs_state,
    kms_inner,
)
from .pauli import qubit_permutation, single_site_paulis

KERNEL_TOL = 1e-9
_STRIP = 64  # rows per strip in symmetrize: temporaries of _STRIP x d^2, not d^2 x d^2
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


def symmetrize(L: Superoperator, sigma, basis=None) -> np.ndarray:
    """Hermitian matrix of Phi o L o Phi^(-1); requires a detailed-balanced L.

    The matrix is taken in the operator basis of the unitary ``basis`` (see
    Superoperator; None: the computational basis).  When that basis is the
    one L is stored in and sigma is diagonal in it (GibbsState.basis), Phi is
    the diagonal scaling L_hat[(i,j),(k,l)] = L[(i,j),(k,l)] (s_i s_j /
    (s_k s_l))^(1/4) of the stored matrix, O(d^4); any other basis goes
    through the O(d^5) kernel ``congruence``.  Raises ValueError when the
    Hermiticity residual of L_hat exceeds HERMITICITY_TOL.
    """
    if (basis is not None and L.basis is not None and np.array_equal(basis, L.basis)
            and np.array_equal(L.basis, sigma.basis)):
        q = sigma.weights**0.25
        phi = np.kron(q, q)  # q_j q_i at vec index i + d*j
        Lhat = np.empty_like(L.local)
        for k in range(0, phi.size, _STRIP):
            np.multiply(L.local[k:k + _STRIP], phi[k:k + _STRIP, None] / phi[None, :],
                        out=Lhat[k:k + _STRIP])
    else:
        # X -> P^dag L(R^dag X R) P with P = U^dag s4 V and R = V^dag s4i U
        P, R = sigma.power(0.25), sigma.power(-0.25)
        if L.basis is not None:
            P, R = L.basis.conj().T @ P, R @ L.basis
        if basis is not None:
            P, R = P @ basis, basis.conj().T @ R
        Lhat = congruence(L.local, P, R)
    herm = _hermitian_average(Lhat)
    if herm > HERMITICITY_TOL:
        raise ValueError(f"generator is not detailed balanced (Hermiticity residual of "
                         f"L_hat {herm:.2e})")
    return Lhat


def _hermitian_average(A):
    """Overwrite the square A with (A + A^dag) / 2; return ||A - A^dag|| / max(1, ||A||).

    The norms are those of the input.  Works on mirrored strips, rows
    k:k+_STRIP from column k on against columns k:k+_STRIP from row k on, so
    no full-size temporary is formed.  Entry (i, j), i < j, becomes
    (a_ij + conj(a_ji)) / 2 and entry (j, i) its conjugate, so the result is
    exactly Hermitian.
    """
    n = A.shape[0]
    sq_resid = sq_norm = 0.0
    for k in range(0, n, _STRIP):
        e = min(k + _STRIP, n)
        row = A[k:e, k:]
        col_h = np.conjugate(A[k:, k:e].T, order="C")
        s = row + col_h
        d = np.subtract(row, col_h, out=col_h)
        # |s|^2 + |d|^2 = 2 (|a_ij|^2 + |a_ji|^2), and the diagonal tile
        # (the first e - k columns) holds each of its pairs twice
        ss, dd = _sq_norm(s), _sq_norm(d)
        ss_t, dd_t = _sq_norm(s[:, :e - k]), _sq_norm(d[:, :e - k])
        sq_norm += 0.5 * (ss + dd) - 0.25 * (ss_t + dd_t)
        sq_resid += 2.0 * dd - dd_t
        s *= 0.5
        row[...] = s
        A[e:, k:e] = s[:, e - k:].conj().T
    return float(np.sqrt(sq_resid)) / max(1.0, float(np.sqrt(sq_norm)))


def _sq_norm(x):
    return float(np.vdot(x, x).real)


def _block_indices(A):
    """Connected components of the nonzero pattern of the square A, grouped by size.

    Entry (i, j) links i and j whichever triangle it sits in, so the blocks
    are those of one simultaneous row/column permutation, also for a
    non-Hermitian A.  Min-label propagation over the nonzero entries with
    pointer jumping: every index ends labeled by the smallest index of its
    component.  Returns one (k, b) index array per distinct component size
    b, a row per component, indices ascending.
    """
    n = A.shape[0]
    pattern = A != 0
    if pattern.all():
        return [np.arange(n)[None, :]]
    rows, cols = np.nonzero(pattern)
    label = np.arange(n)
    while True:
        new = label.copy()
        np.minimum.at(new, rows, label[cols])
        np.minimum.at(new, cols, label[rows])
        while not np.array_equal(jumped := new[new], new):
            new = jumped
        if np.array_equal(new, label):
            break
        label = new
    sizes = np.bincount(label, minlength=n)
    sizes = sizes[sizes > 0]  # component sizes, in the order of their smallest index
    order = np.argsort(label, kind="stable")
    starts = np.cumsum(sizes) - sizes
    return [order[starts[sizes == b][:, None] + np.arange(b)] for b in np.unique(sizes)]


def block_eigh(A, vectors=True):
    """Eigendecomposition of the Hermitian A, one batched eigh per block size.

    Returns a list of (idx, w, V), one per distinct block size b: ``idx`` is
    the (k, b) array of the indices of k blocks, ``w`` their (k, b) ascending
    eigenvalues and ``V`` their (k, b, b) eigenvectors (None without
    ``vectors``), so that A[i][:, i] @ V[c] = V[c] * w[c] with i = idx[c].
    """
    groups = []
    for idx in _block_indices(A):
        sub = A[None] if idx.shape[1] == A.shape[0] else A[idx[:, :, None], idx[:, None, :]]
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
    for idx in _block_indices(X):
        sub = X[idx[:, :, None], idx[:, None, :]]
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
    Lhat = symmetrize(L, sigma, L.basis)
    np.negative(Lhat, out=Lhat)
    return gap_from_eigenvalues(block_eigvalsh(Lhat), tol)


def kms_operator_norm(L: Superoperator, sigma) -> float:
    """Largest eigenvalue of -L_hat (the KMS operator norm of -L)."""
    Lhat = symmetrize(L, sigma, L.basis)
    if np.linalg.norm(Lhat) == 0.0:
        return 0.0
    np.negative(Lhat, out=Lhat)
    return float(block_eigvalsh(Lhat)[-1])


def _gap_of_psd(M, tol=1e-10):
    evals = np.linalg.eigvalsh(M)
    scale = max(np.abs(evals).max(), 1e-300)
    pos = evals[evals > tol * scale]
    return float(pos[0]) if pos.size else 0.0


def gap_composition_suite(seed=42, n_instances=200, dim=6):
    """Randomized checks of the PSD gap-composition facts used downstream.

    Cases: (1) ker(A+B) = ker(B) forces Gap(A+B) >= Gap(B); (2) commuting
    PSD pairs give Gap(A+B) >= min of the gaps; (3) the g_A g_B/(g_A+||B||)
    operator lower bound; (4) the scalar ratio inequality.  Returns a report
    with per-case violation counts and worst margins.
    """
    rng = np.random.default_rng(seed)
    report = {"cases": {}, "passed": True}

    def _random_psd(d, rank=None):
        r = rank if rank is not None else d
        C = rng.standard_normal((d, r)) + 1j * rng.standard_normal((d, r))
        return C @ C.conj().T

    # case 1: ker(A+B) = ker(B) by construction
    viol1, worst1 = 0, 0.0
    for _ in range(n_instances):
        B = _random_psd(dim, rank=dim - rng.integers(1, 3))
        evals, V = np.linalg.eigh(B)
        keep = evals > 1e-10 * evals.max()
        P = V[:, keep] @ V[:, keep].conj().T  # projector onto ker(B)^perp
        A = P @ _random_psd(dim) @ P
        margin = _gap_of_psd(A + B) - _gap_of_psd(B)
        worst1 = min(worst1, margin)
        if margin < -1e-10:
            viol1 += 1
    report["cases"]["kernel_agreement"] = {"violations": viol1, "worst_margin": worst1}

    # case 2: commuting pairs via a shared eigenbasis
    viol2, worst2 = 0, 0.0
    for _ in range(n_instances):
        Q, _ = np.linalg.qr(rng.standard_normal((dim, dim)) + 1j * rng.standard_normal((dim, dim)))
        a = np.abs(rng.standard_normal(dim))
        b = np.abs(rng.standard_normal(dim))
        shared_zero = rng.integers(0, dim)
        a[shared_zero] = b[shared_zero] = 0.0
        a[rng.integers(0, dim)] = 0.0
        b[rng.integers(0, dim)] = 0.0
        A = Q @ np.diag(a) @ Q.conj().T
        B = Q @ np.diag(b) @ Q.conj().T
        margin = _gap_of_psd(A + B) - min(_gap_of_psd(A), _gap_of_psd(B))
        worst2 = min(worst2, margin)
        if margin < -1e-10:
            viol2 += 1
    report["cases"]["commuting_min"] = {"violations": viol2, "worst_margin": worst2}

    # case 3: A + B >= g_A g_B / (g_A + ||B||) when B has energy >= g_B on ker(A)
    viol3, worst3 = 0, 0.0
    for _ in range(n_instances):
        k = int(rng.integers(1, 3))
        A = _random_psd(dim, rank=dim - k)
        evals, V = np.linalg.eigh(A)
        kernel = V[:, evals <= 1e-10 * max(evals.max(), 1.0)]
        B = _random_psd(dim)
        g_a = _gap_of_psd(A)
        g_b = float(np.linalg.eigvalsh(kernel.conj().T @ B @ kernel)[0])
        bound = g_a * g_b / (g_a + np.linalg.norm(B, 2))
        margin = float(np.linalg.eigvalsh(A + B)[0]) - bound
        worst3 = min(worst3, margin)
        if margin < -1e-10:
            viol3 += 1
    report["cases"]["kernel_energy_bound"] = {"violations": viol3, "worst_margin": worst3}

    # case 4: scalar ratio inequality on random positive tuples
    viol4, worst4 = 0, 0.0
    for _ in range(n_instances):
        a1, a2, b1, b2 = np.abs(rng.standard_normal(4)) + 1e-3
        margin = (a1 + b1) / (a2 + b2) - min(a1 / a2, b1 / b2)
        worst4 = min(worst4, margin)
        if margin < -1e-10:
            viol4 += 1
    report["cases"]["ratio_inequality"] = {"violations": viol4, "worst_margin": worst4}

    report["passed"] = all(c["violations"] == 0 for c in report["cases"].values())
    return report


def _b_position_couplings(n_a, n_b):
    """Single-site Paulis on the B positions of an A-first ordered register."""
    return single_site_paulis(n_a + n_b, sites=range(n_a, n_a + n_b))


def partial_lindbladian_check(spec, beta, w: WeightFunction, n_random=10, seed=77, js=None):
    """Factorization, fixed point, and gap of the pinned-A generators.

    For every A-eigenvector the generator built from B-site couplings must
    factor through the compressed Hamiltonian <i_A|H|i_A>, its fixed point
    must match the compressed Gibbs state, and the per-block gaps give g_B.
    ``js`` is the replica.JointStructure of spec, computed here when not
    given; it supplies the A-side eigenbasis and the site permutation.
    """
    if js is None:
        from .replica import joint_structure  # replica imports this module

        js = joint_structure(spec)
    basis, P = js.basis_a, js.perm
    n = spec.n
    n_a = len(spec.partition[0])
    n_b = n - n_a
    d_a, d_b = 2**n_a, 2**n_b
    H_perm = P @ assemble_dense(spec) @ P.conj().T
    es_full = eigensystem(H_perm)
    L_b = build_ckg_generator(H_perm, _b_position_couplings(n_a, n_b), w, es=es_full)
    # unnormalized exp(-beta H) for the compressed-Gibbs comparison
    shift = es_full.eigenvalues.min()
    expH = (es_full.eigenvectors * np.exp(-beta * (es_full.eigenvalues - shift))) @ \
        es_full.eigenvectors.conj().T

    rng = np.random.default_rng(seed)
    rows = []
    for i in range(d_a):
        v = basis.vectors[:, i]
        proj = np.outer(v, v.conj())
        H_i = compress_onto(H_perm, v, ((tuple(range(n_a))), tuple(range(n_a, n))), n)
        es_i = eigensystem(H_i)
        L_i = build_ckg_generator(H_i, single_site_paulis(n_b), w, es=es_i)
        resid = 0.0
        for _ in range(n_random):
            O = rng.standard_normal((d_b, d_b)) + 1j * rng.standard_normal((d_b, d_b))
            lhs = L_b.apply(np.kron(proj, O))
            rhs = np.kron(proj, L_i.apply(O))
            resid = max(resid, np.linalg.norm(lhs - rhs) / max(1.0, np.linalg.norm(lhs)))
        sigma_i = gibbs_state(es_i, beta)
        comp = compress_onto(expH, v, ((tuple(range(n_a))), tuple(range(n_a, n))), n)
        comp = comp / np.trace(comp)
        sv = np.linalg.svd(sigma_i.sigma - comp, compute_uv=False)
        fixed_point_mismatch = float(np.sum(sv))
        gap_i = spectral_gap(L_i, sigma_i).gap
        rows.append(
            {
                "i_a": i,
                "factorization_residual": float(resid),
                "fixed_point_mismatch": fixed_point_mismatch,
                "gap": gap_i,
            }
        )
    return {
        "rows": rows,
        "g_b": min(r["gap"] for r in rows),
        "max_factorization_residual": max(r["factorization_residual"] for r in rows),
        "max_fixed_point_mismatch": max(r["fixed_point_mismatch"] for r in rows),
    }


def a_diagonal_restriction_gap(spec, beta, w: WeightFunction):
    """Gap of the B-site generator restricted to the A-diagonal sector.

    Zeroing the A-off-diagonal sector block-diagonalizes the generator over
    the A labels, so this equals min_i Gap of the pinned generators.
    """
    cut = check_commuting_cut(spec)
    if not cut.holds:
        raise ValueError("commuting cut does not hold")
    n = spec.n
    n_a = len(spec.partition[0])
    n_b = n - n_a
    d_a, d_b = 2**n_a, 2**n_b
    d = d_a * d_b
    basis = a_side_eigenbasis(cut)
    P = qubit_permutation(n, list(cut.perm_order))
    H_perm = P @ assemble_dense(spec) @ P.conj().T
    es = eigensystem(H_perm)
    L = build_ckg_generator(H_perm, _b_position_couplings(n_a, n_b), w, es=es)
    sigma = gibbs_state(es, beta)
    # L_hat in a basis whose A factor is labeled by |i_A>
    Lhat_w = symmetrize(L, sigma, np.kron(basis.vectors, np.eye(d_b)))
    a_label = np.repeat(np.arange(d_a), d_b)  # A label of each Hilbert index
    row_a = np.tile(a_label, d)  # vec index = i + d*j, i minor
    col_a = np.repeat(a_label, d)
    keep = np.nonzero(row_a == col_a)[0]
    sub = Lhat_w[np.ix_(keep, keep)]
    np.negative(sub, out=sub)
    return gap_from_eigenvalues(block_eigvalsh(sub)).gap
