"""Semigroup propagation, trace-norm mixing times, and the chi-square sandwich.

For a detailed-balanced generator the Schrodinger flow factors through the
symmetrized matrix: e^{t L^dag}(rho) = Phi(e^{t L_hat}(Phi^{-1}(rho))) with
Phi(X) = sigma^{1/4} X sigma^{1/4}, so one Hermitian eigendecomposition
serves every initial state and every time.  L_hat is taken in the basis the
generator is stored in, whose unitary is folded into the Phi factors, and is
decomposed block by block along its exact zero pattern (``block_eigh``).
Non-detailed-balanced input falls back to a dense matrix exponential.
"""

import warnings
from dataclasses import dataclass

import numpy as np
from scipy.linalg import expm

from .hamiltonians import assemble_dense
from .lindblad import (
    Superoperator,
    build_ckg_generator,
    eigensystem,
    gibbs_state,
    unvec,
    vec,
)
from .pauli import pauli_string_matrix, single_site_paulis
from .spectral import block_eigh, gap_from_eigenvalues, spectral_gap, symmetrize

BISECTION_RTOL = 1e-3


def trace_norm(M):
    return float(np.sum(np.linalg.svd(M, compute_uv=False)))


def trace_distance(rho, sigma_mat):
    return trace_norm(rho - sigma_mat)


@dataclass
class MixingReport:
    epsilon: float
    t_measured: float
    t_lower: float
    t_upper: float
    family: str
    crossings: list  # (state_id, t_cross)
    gap: float
    lambda_min: float
    method: str  # "spectral" | "expm"

    def to_json_dict(self):
        return {
            "epsilon": self.epsilon,
            "t_measured": self.t_measured,
            "t_lower": self.t_lower,
            "t_upper": self.t_upper,
            "family": self.family,
            "crossings": [[sid, t] for sid, t in self.crossings],
            "gap": self.gap,
            "lambda_min": self.lambda_min,
            "method": self.method,
        }


def _phi_factors(sigma, U):
    """(a, b) with Phi(U Y U^dag) = a Y b, for Y in the basis of the unitary U (None: identity)."""
    s4 = sigma.power(0.25)
    return (s4, s4) if U is None else (s4 @ U, U.conj().T @ s4)


class SpectralPropagator:
    """Evolution e^{t L^dag} through the block eigendecomposition of L_hat.

    ``blocks`` holds (idx, w, V) for each block size (see ``block_eigh``);
    ``evals`` is the whole spectrum of L_hat, ascending.  Coefficients are a
    list with one (k, b) array per block size.
    """

    def __init__(self, L: Superoperator, sigma):
        self.sigma = sigma
        U = L.basis
        self.blocks = block_eigh(symmetrize(L, sigma, U))
        self.evals = np.sort(np.concatenate([w.ravel() for _, w, _ in self.blocks]))
        self._phi = _phi_factors(sigma, U)
        s4i = sigma.power(-0.25)
        self._phi_inv = (s4i, s4i) if U is None else (U.conj().T @ s4i, s4i @ U)

    def coefficients(self, rho0):
        a, b = self._phi_inv
        v = vec(a @ rho0 @ b).conj()
        # V^dag x per block, as conj(conj(x) V) so no conjugate of V is formed
        return [np.conj(v[idx][:, None, :] @ V)[:, 0, :] for idx, _, V in self.blocks]

    def state_at(self, coeffs, t):
        v = np.empty(self.evals.size, dtype=complex)
        for (idx, w, V), c in zip(self.blocks, coeffs):
            v[idx] = (V @ (np.exp(t * w) * c)[:, :, None])[:, :, 0]
        a, b = self._phi
        rho = a @ unvec(v) @ b
        return 0.5 * (rho + rho.conj().T)


def evolve(L: Superoperator, rho0, t, sigma=None):
    """Propagate a density matrix to time t under the Schrodinger flow e^{t L^dag}.

    Uses the spectral route when ``sigma`` is supplied and L is detailed
    balanced; otherwise falls back to a dense matrix exponential (with a
    warning, since that path scales poorly).
    """
    rho0 = np.asarray(rho0, dtype=complex)
    if abs(np.trace(rho0) - 1.0) > 1e-10:
        raise ValueError("rho0 must have unit trace")
    if np.linalg.eigvalsh(0.5 * (rho0 + rho0.conj().T)).min() < -1e-10:
        raise ValueError("rho0 must be positive semidefinite")
    if sigma is not None:
        try:
            prop = SpectralPropagator(L, sigma)
        except ValueError:  # not detailed balanced
            pass
        else:
            return prop.state_at(prop.coefficients(rho0), t)
    warnings.warn("generator not detailed balanced; using dense matrix exponential")
    rho = _expm_flow(L, rho0, t)
    return 0.5 * (rho + rho.conj().T)


def _expm_flow(L: Superoperator, rho0, t):
    """e^{t L^dag}(rho0) by a dense matrix exponential in the generator's own basis."""
    return L.from_basis(unvec(expm(t * L.local.conj().T) @ vec(L.to_basis(rho0))))


def mixing_bounds_from_gap(gap, lambda_min, epsilon):
    """Two-sided mixing-time bracket implied by the spectral gap.

    t_lower = log(lambda_min / 2 eps) / gap (clamped at 0) and
    t_upper = log(1 / (lambda_min eps^2)) / (2 gap).
    """
    if not 0 < epsilon < 1:
        raise ValueError("epsilon must lie in (0, 1)")
    t_lower = max(0.0, np.log(lambda_min / (2.0 * epsilon)) / gap)
    t_upper = np.log(1.0 / (lambda_min * epsilon**2)) / (2.0 * gap)
    return float(t_lower), float(t_upper)


def chi_square(rho, sigma):
    """KMS chi-square divergence Tr[(rho-sigma) sigma^{-1/2} (rho-sigma) sigma^{-1/2}]."""
    delta = np.asarray(rho, dtype=complex) - sigma.sigma
    si = sigma.power(-0.5)
    return float(np.real(np.trace(delta @ si @ delta @ si)))


def _initial_family(sigma, n_haar=20, seed=314):
    """Computational and sigma-eigenbasis pure states plus seeded Haar states."""
    d = sigma.dim
    states = []
    for k in range(d):
        v = np.zeros(d, dtype=complex)
        v[k] = 1.0
        states.append((f"comp_{k}", np.outer(v, v.conj())))
    V = sigma.eigenvectors
    for k in range(d):
        v = V[:, k]
        states.append((f"eig_{k}", np.outer(v, v.conj())))
    rng = np.random.default_rng(seed)
    for k in range(n_haar):
        v = rng.standard_normal(d) + 1j * rng.standard_normal(d)
        v /= np.linalg.norm(v)
        states.append((f"haar_{k}", np.outer(v, v.conj())))
    return states


def first_crossing_time(prop: SpectralPropagator, rho0, epsilon, t_cap):
    """Earliest t with ||rho(t) - sigma||_Tr <= epsilon, by bisection.

    Trace distance to the fixed point is non-increasing along a CPTP
    semigroup, so the crossing is unique.  The propagated state is Hermitian,
    so its distance is the sum of |eigenvalues| of rho(t) - sigma.
    """
    sig = prop.sigma.sigma
    coeffs = prop.coefficients(rho0)

    def dist(t):
        return float(np.abs(np.linalg.eigvalsh(prop.state_at(coeffs, t) - sig)).sum())

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


def mixing_time_estimate(L: Superoperator, sigma, epsilon, family=None, n_haar=20,
                         seed=314) -> MixingReport:
    """Max first-crossing time over a fixed state family, with gap bounds.

    The measured time is a lower estimate of the true worst case over all
    states; the chi-square upper bound t_upper is the rigorous cap.
    """
    if not 0 < epsilon < 1:
        raise ValueError("epsilon must lie in (0, 1)")
    prop = SpectralPropagator(L, sigma)
    rep = gap_from_eigenvalues(-prop.evals[::-1])  # spectrum of -L_hat, ascending
    t_lower, t_upper = mixing_bounds_from_gap(rep.gap, sigma.lambda_min, epsilon)
    states = family if family is not None else _initial_family(sigma, n_haar=n_haar, seed=seed)
    crossings = []
    for sid, rho0 in states:
        crossings.append((sid, first_crossing_time(prop, rho0, epsilon, max(t_upper, 1e-9))))
    t_measured = max(t for _, t in crossings)
    return MixingReport(
        epsilon=float(epsilon),
        t_measured=t_measured,
        t_lower=t_lower,
        t_upper=t_upper,
        family="computational+sigma_eigen+haar" if family is None else "custom",
        crossings=crossings,
        gap=rep.gap,
        lambda_min=sigma.lambda_min,
        method="spectral",
    )


def _gap_and_mode(L: Superoperator, sigma):
    """Spectral gap and gap_mode_state from one eigendecomposition of -L_hat."""
    Lhat = symmetrize(L, sigma, L.basis)
    np.negative(Lhat, out=Lhat)
    blocks = block_eigh(Lhat)
    evals = np.concatenate([w.ravel() for _, w, _ in blocks])
    order = np.argsort(evals, kind="stable")
    rep = gap_from_eigenvalues(evals[order])
    # the eigenvector of the kernel_dim-th eigenvalue, taken from its block
    k = order[rep.kernel_dim]
    x = np.zeros(evals.size, dtype=complex)
    for idx, w, V in blocks:
        if k < w.size:
            c, j = divmod(k, w.shape[1])
            x[idx[c]] = V[c, :, j]
            break
        k -= w.size
    a, b = _phi_factors(sigma, L.basis)
    X = unvec(x)
    Y = a @ X @ b  # sigma^{1/2} X sigma^{1/2} for the KMS eigenoperator X
    Y = Y + Y.conj().T
    if np.linalg.norm(Y) < 1e-12:
        Y = a @ X @ b
        Y = 1j * (Y - Y.conj().T)
    Y /= np.linalg.norm(Y, 2)
    alpha = sigma.lambda_min / 2.0
    return rep.gap, sigma.sigma + alpha * Y


def gap_mode_state(L: Superoperator, sigma):
    """The slow-mode perturbed state sigma + alpha Y used for lower bounds.

    Y is the gap eigenoperator carried to the Schrodinger side and scaled so
    sigma + alpha Y is a valid state (alpha = lambda_min / 2).
    """
    return _gap_and_mode(L, sigma)[1]


def chi_square_rate_fit(L: Superoperator, sigma, rho0=None, window=(1.0, 3.0), npts=8):
    """Exponential decay rate of chi-square along the flow, via dense expm.

    Returns the fitted rate of chi^2(t); for a detailed-balanced generator
    started in the gap mode this equals twice the spectral gap.  The expm
    propagation keeps this route independent of the eigendecomposition.
    """
    if rho0 is None:
        gap, rho0 = _gap_and_mode(L, sigma)
    else:
        gap = spectral_gap(L, sigma).gap
    ts = np.linspace(window[0] / gap, window[1] / gap, npts)
    logs = [np.log(chi_square(_expm_flow(L, rho0, t), sigma)) for t in ts]
    slope = np.polyfit(ts, logs, 1)[0]
    return float(-slope)


def bottleneck_witness(spec, sites, beta, L: Superoperator | None = None,
                       weight_kind="metropolis"):
    """Sector weights and jump containment for a -J Z_i Z_j defect bond.

    Projectors split the space by the (z_i, z_j) alignment pattern; with
    single-site couplings one jump cannot cross from the misaligned sector
    straight between the two aligned ones, so Pi_A L(Pi_C) must vanish.
    """
    i, j = sites
    n = spec.n
    defect_terms = [
        t for t in spec.terms
        if t.support == {i, j} and all(lab == "Z" for _, lab in t.factors)
    ]
    if not defect_terms:
        raise ValueError(f"no ZZ bond on sites {sites}")
    J = -sum(t.coefficient for t in defect_terms)
    H = assemble_dense(spec)
    bond = pauli_string_matrix(n, [(i, "Z"), (j, "Z")], -J)
    H_rest = H - bond
    for s in (i, j):
        Zs = pauli_string_matrix(n, [(s, "Z")])
        comm = H_rest @ Zs - Zs @ H_rest
        if np.linalg.norm(comm) > 1e-10 * max(1.0, np.linalg.norm(H_rest)):
            raise ValueError(f"rest Hamiltonian does not commute with Z on site {s}")

    dim = 2**n
    idx = np.arange(dim)
    z_i = 1 - 2 * ((idx >> (n - 1 - i)) & 1)
    z_j = 1 - 2 * ((idx >> (n - 1 - j)) & 1)
    pi_a = np.diag(((z_i == 1) & (z_j == 1)).astype(float))
    pi_c = np.diag(((z_i == -1) & (z_j == -1)).astype(float))
    pi_b = np.eye(dim) - pi_a - pi_c

    es = eigensystem(H)
    sg = gibbs_state(es, beta)
    if L is None:
        from .lindblad import WeightFunction

        L = build_ckg_generator(H, single_site_paulis(n),
                                WeightFunction(weight_kind, beta), es=es)
    out = L.apply(pi_c)
    scale = max(1.0, np.linalg.norm(out))
    containment = (np.linalg.norm(pi_a @ out) + np.linalg.norm(out @ pi_a)) / scale
    return {
        "J": float(J),
        "weights": {
            "A": float(np.real(np.trace(pi_a @ sg.sigma))),
            "B": float(np.real(np.trace(pi_b @ sg.sigma))),
            "C": float(np.real(np.trace(pi_c @ sg.sigma))),
        },
        "containment_residual": float(containment),
    }
