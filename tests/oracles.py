"""Independent reference checks that the library's own routes replace.

These re-derive numbers the library computes another way, so they live here
as test oracles only:

* ``partial_lindbladian_check`` builds one pinned-A generator per
  A-eigenvector from the compressed Hamiltonian <i_A|H|i_A> and checks its
  factorization and fixed point; the smallest of their gaps is g_B, which
  ``qrex.spectral.a_diagonal_restriction_gap`` reads off one generator.
* ``detailed_balance_residual`` probes KMS self-adjointness with random
  operator pairs; the library's detailed-balance check is the Hermiticity
  residual of L_hat in ``qrex.spectral.symmetrize``.
* ``kms_inner`` and ``sigma_power`` form the KMS inner product and the
  fractional powers of sigma densely, from ``GibbsState.basis`` and
  ``GibbsState.weights``.
* ``first_crossing_time`` bisects one state at a time, its distance the
  eigenvalues of rho(t) - sigma rotated out of sigma.basis;
  ``qrex.mixing.first_crossing_times`` runs the same rule for a whole family
  at once in sigma.basis, deciding by a trace-norm sandwich first.
  ``trace_distance`` takes the distance from singular values.

* ``kron_all`` builds a Pauli string as a product of Kronecker factors;
  ``qrex.pauli.pauli_string_matrix`` scatters its d phases directly.
* ``trace_norm_bounds`` forms the sandwich sum_i |Y_ii| <= ||Y||_1 <=
  sum_ij |Y_ij| from whole matrices; ``qrex.mixing.SupportBounds`` takes
  it from the entries on a support.
* ``jump_components`` splits a coupling into its energy-resolved
  components and ``coherent_term`` sums the coherent part G over Bohr pairs,
  both loop-based and in the computational basis;
  ``qrex.lindblad.build_ckg_generator`` assembles the same terms entry-wise
  in the eigenbasis.

Helpers that only the tests use live here too: ``gap_mode_state`` and the
Pauli decomposition ``pauli_decompose``/``pauli_support``.
"""

from functools import reduce
from itertools import product

import numpy as np

from qrex.hamiltonians import assemble_dense, compress_onto
from qrex.lindblad import (
    Eigensystem,
    WeightFunction,
    alpha_coeff,
    build_ckg_generator,
    eigensystem,
    eigensystem_from_pairs,
    gibbs_state,
)
from qrex.mixing import BISECTION_RTOL, _gap_and_mode
from qrex.pauli import PAULIS, single_site_paulis
from qrex.replica import joint_structure
from qrex.spectral import spectral_gap


def sigma_power(sigma, p):
    """sigma^p as a dense matrix: U diag(weights^p) U^dag."""
    return (sigma.basis * sigma.weights**p) @ sigma.basis.conj().T


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
        js = joint_structure(spec)
    basis, P = js.basis_a, js.perm
    n = spec.n
    n_a = len(spec.partition[0])
    n_b = n - n_a
    d_a, d_b = 2**n_a, 2**n_b
    H_perm = P @ assemble_dense(spec) @ P.conj().T
    # H_perm is diagonal in the product labels |i_A j_B> with eigenvalues lam2
    lam, W = js.lam2.reshape(-1), np.kron(basis.vectors, js.basis_b.vectors)
    es_full = eigensystem_from_pairs(lam, W)
    L_b = build_ckg_generator(H_perm, _b_position_couplings(n_a, n_b), w, es=es_full)
    # unnormalized exp(-beta H) for the compressed-Gibbs comparison
    expH = (W * np.exp(-beta * (lam - lam.min()))) @ W.conj().T

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


def _superop_norm_estimate(M, iters=40, seed=123):
    """Power-iteration estimate of the spectral norm (deterministic seed)."""
    rng = np.random.default_rng(seed)
    v = rng.standard_normal(M.shape[1]) + 1j * rng.standard_normal(M.shape[1])
    v /= np.linalg.norm(v)
    Mh = M.conj().T
    s = 0.0
    for _ in range(iters):
        u = M @ v
        v = Mh @ u
        s = np.linalg.norm(v) ** 0.5
        nv = np.linalg.norm(v)
        if nv == 0:
            return 0.0
        v /= nv
    return float(s)


def kms_inner(X, Y, sigma):
    """KMS inner product Tr[sigma^{1/2} X^dag sigma^{1/2} Y]."""
    s = sigma_power(sigma, 0.5)
    return complex(np.trace(s @ X.conj().T @ s @ Y))


def detailed_balance_residual(L, sigma, n_pairs=20, seed=2024):
    """Max KMS self-adjointness violation over a seeded batch of operator pairs.

    Normalized by the KMS norms of the pair and a power-iteration estimate of
    ||L||; zero maps return 0.
    """
    if sigma.lambda_min <= 0:
        raise ValueError("sigma must be full rank")
    d = L.dim
    norm_est = _superop_norm_estimate(L.local)  # the basis change is unitary
    if norm_est == 0.0:
        return 0.0
    rng = np.random.default_rng(seed)
    worst = 0.0
    for _ in range(n_pairs):
        Xr = rng.standard_normal((d, d)) + 1j * rng.standard_normal((d, d))
        Yr = rng.standard_normal((d, d)) + 1j * rng.standard_normal((d, d))
        lhs = kms_inner(Xr, L.apply(Yr), sigma)
        rhs = kms_inner(L.apply(Xr), Yr, sigma)
        nx = np.sqrt(abs(kms_inner(Xr, Xr, sigma)))
        ny = np.sqrt(abs(kms_inner(Yr, Yr, sigma)))
        worst = max(worst, abs(lhs - rhs) / (nx * ny * norm_est))
    return float(worst)


def trace_distance(rho, sigma_mat):
    """||rho - sigma||_1 from the singular values of the difference."""
    return float(np.sum(np.linalg.svd(rho - sigma_mat, compute_uv=False)))


def trace_norm_bounds(Y):
    """Exact bounds sum_i |Y_ii| <= ||Y||_1 <= sum_ij |Y_ij| for each matrix of a stack.

    The trace norm dominates the diagonal's l1 norm, and is at most the sum
    of the trace norms |Y_ij| of the rank-one pieces Y_ij e_i e_j^T.
    """
    A = np.abs(Y)
    return np.trace(A, axis1=-2, axis2=-1), A.sum(axis=(-2, -1))


def first_crossing_time(prop, rho0, epsilon, t_cap):
    """Earliest t with ||rho(t) - sigma||_Tr <= epsilon for one state, by bisection.

    The per-state rule that ``qrex.mixing.first_crossing_times`` runs for a
    whole family at once: the distance is the sum of |eigenvalues| of the
    Hermitian rho(t) - sigma, rotated out of sigma.basis, with no sandwich.
    """
    sig = prop.sigma.sigma
    coeffs = prop.coefficients(np.asarray(rho0, dtype=complex)[None])

    def dist(t):
        return float(np.abs(np.linalg.eigvalsh(prop.state_at(coeffs, t)[0] - sig)).sum())

    if dist(0.0) <= epsilon:
        return 0.0
    hi = t_cap
    grow = 0
    while dist(hi) > epsilon:
        hi *= 2.0
        grow += 1
        if grow > 6:
            raise RuntimeError("bisection bracket failed; state not converging")
    lo = 0.0
    while hi - lo > BISECTION_RTOL * hi:
        mid = 0.5 * (lo + hi)
        if dist(mid) <= epsilon:
            hi = mid
        else:
            lo = mid
    return float(hi)


def gap_mode_state(L, sigma):
    """The slow-mode perturbed state sigma + alpha Y used for lower bounds.

    Y is the gap eigenoperator carried to the Schrodinger side and scaled so
    sigma + alpha Y is a valid state (alpha = lambda_min / 2).
    """
    return _gap_and_mode(L, sigma)[1]


def kron_all(mats):
    """Kronecker product of a sequence of matrices, left factor most significant."""
    mats = list(mats)
    if not mats:
        return np.eye(1, dtype=complex)
    return reduce(np.kron, mats)


def pauli_decompose(M, n, tol=1e-12):
    """Decompose a 2^n-dim matrix into Pauli strings: {label_tuple: coeff}.

    Keys are tuples like ((site, 'X'), ...) listing only non-identity factors.
    Exponential in n; intended for small diagnostics (n <= 6 or so).
    """
    dim = 2**n
    if M.shape != (dim, dim):
        raise ValueError("matrix dimension does not match qubit count")
    coeffs = {}
    for labels in product("IXYZ", repeat=n):
        P = kron_all(PAULIS[c] for c in labels)
        c = np.trace(P.conj().T @ M) / dim
        if abs(c) > tol:
            key = tuple((s, lab) for s, lab in enumerate(labels) if lab != "I")
            coeffs[key] = c
    return coeffs


def pauli_support(M, n, tol=1e-10):
    """Set of sites on which M acts non-trivially, via Pauli decomposition."""
    supp = set()
    for key in pauli_decompose(M, n, tol=tol):
        supp.update(s for s, _ in key)
    return supp


def jump_components(S, es: Eigensystem):
    """Energy-resolved components {nu: S_nu} with sum_nu S_nu = S exactly.

    Keys are the Bohr group representatives; components are returned in the
    original (computational) basis.
    """
    U = es.eigenvectors
    St = U.conj().T @ np.asarray(S, dtype=complex) @ U
    out = {}
    for g, nu in enumerate(es.bohr):
        mask = es.gid == g
        if not mask.any():
            continue
        comp = np.where(mask, St, 0.0)
        out[float(nu)] = U @ comp @ U.conj().T
    return out


def coherent_term(jumps_list, es: Eigensystem, w: WeightFunction) -> np.ndarray:
    """Coherent part G = sum_a sum_{v1,v2} tanh(-beta(v1-v2)/4)/(2i) alpha S_{v2}^dag S_{v1}.

    ``jumps_list`` holds one {nu: S_nu} dict per coupling, as returned by
    jump_components (components in the computational basis).
    """
    d = es.dim
    G = np.zeros((d, d), dtype=complex)
    for comps in jumps_list:
        for nu1, S1 in comps.items():
            for nu2, S2 in comps.items():
                t = np.tanh(-w.beta * (nu1 - nu2) / 4.0)
                if t == 0.0:
                    continue
                G += (t / 2.0j) * alpha_coeff(nu1, nu2, w) * (S2.conj().T @ S1)
    herm_err = np.linalg.norm(G - G.conj().T)
    if herm_err > 1e-10 * max(1.0, np.linalg.norm(G)):
        raise ValueError(f"coherent term failed hermiticity check ({herm_err:.2e})")
    return 0.5 * (G + G.conj().T)
