"""Semigroup propagation, trace-norm mixing times, and the chi-square sandwich.

For a detailed-balanced generator the Schrodinger flow factors through the
symmetrized matrix: e^{t L^dag}(rho) = Phi(e^{t L_hat}(Phi^{-1}(rho))) with
Phi(X) = sigma^{1/4} X sigma^{1/4}, so one Hermitian eigendecomposition
serves every initial state and every time.  L_hat is taken in the basis
U = sigma.basis that the generator is stored in and sigma is diagonal in
(``symmetrize``).  There Phi is the elementwise scaling by
phi = kron(q, q), q = weights^(1/4), so a state only needs the rotation
U^dag rho U and that scaling; L_hat is a sparse CSR matrix, decomposed block
by block along the connected components of its zero pattern
(``block_eigh``), so only the dense blocks are ever formed.

Trace distances are taken in sigma.basis too: the trace norm is unitarily
invariant, so ||rho(t) - sigma||_1 is that of the Hermitian part of
U^dag rho(t) U - diag(weights), with no rotation back.  The mixing-time
search ``first_crossing_times`` bisects a family of initial states
together, each state by its own rule, with one matmul per block size and
round for all of them.  Each distance test is first decided by the exact sandwich
sum_i |Y_ii| <= ||Y||_1 <= sum_ij |Y_ij| (``trace_norm_bounds``); the
eigenvalues are computed only for the states that fall between the bounds.

A generator that ``symmetrize`` rejects (stored in another basis, or not
detailed balanced) is propagated by ``evolve`` through a dense matrix
exponential of the stored matrix.
"""

import warnings
from dataclasses import dataclass
from itertools import islice

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
from .spectral import block_eigh, gap_from_eigenvalues, kms_scaling, spectral_gap, symmetrize

BISECTION_RTOL = 1e-3
# Size in bytes of the (states x d^2) complex stack of the states that
# ``first_crossing_times`` bisects together; a round holds a few such stacks
CROSSING_STACK_BYTES = 2**18
# exp(x) < 1e-304 below this exponent, far under the resolution of any
# distance, and is taken as 0: np.exp is about 20x slower where its result
# is subnormal or underflows
EXP_FLOOR = -700.0


def trace_norm(M):
    return float(np.sum(np.linalg.svd(M, compute_uv=False)))


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


class SpectralPropagator:
    """Evolution e^{t L^dag} through the block eigendecomposition of L_hat.

    ``blocks`` holds (idx, w, V) for each block size (see ``block_eigh``),
    with Phi folded into the eigenvectors: column j of V[c] is
    phi[idx[c]] times the eigenvector of L_hat.  ``evals`` is the whole
    spectrum of L_hat, ascending.  The coefficients of a stack of S states
    are a list with one (k, b, S) array per block size, one column per state,
    so propagating is one matmul per block size for the whole stack.
    """

    def __init__(self, L: Superoperator, sigma):
        self.sigma = sigma
        phi = kms_scaling(sigma)
        self.blocks = block_eigh(symmetrize(L, sigma))
        for idx, _, V in self.blocks:
            V *= phi[idx][:, :, None]
        self._w = np.concatenate([w.ravel() for _, w, _ in self.blocks])  # block order
        self.evals = np.sort(self._w)
        self._phi_sq = phi * phi
        # the place of each vec index in the concatenated block order
        self._unblock = np.argsort(np.concatenate([idx.ravel() for idx, _, _ in self.blocks]))
        self._U, self._Uh = sigma.basis, sigma.basis.conj().T

    def coefficients(self, states):
        """V^dag Phi^(-1)(rho) per block for each rho of the (S, d, d) stack ``states``.

        The stored stack is diag(phi) V, so this is its adjoint applied to
        vec(U^dag rho U) / phi^2.
        """
        # row s is vec(U^dag rho_s U) = (U^T rho_s^T conj(U)) raveled
        v = self._U.T @ np.asarray(states).transpose(0, 2, 1) @ self._U.conj()
        v = v.reshape(v.shape[0], -1)
        v /= self._phi_sq
        np.conj(v, out=v)
        out = []
        for idx, _, V in self.blocks:
            # conj(V^T conj(x)), so no conjugate of the stack is formed
            c = V.transpose(0, 2, 1) @ v[:, idx].transpose(1, 2, 0)  # (k, b, S)
            out.append(np.conj(c, out=c))
        return out

    def _propagate(self, coeffs, t):
        """U^dag rho_s(t_s) U for each column s, as an (S, d, d) stack.

        ``t`` is one time for every column or one per column; coefficients
        of one state (a single column) may be taken at several times.
        """
        growth = np.multiply.outer(self._w, np.atleast_1d(np.asarray(t, dtype=float)))
        np.exp(growth, out=growth, where=growth > EXP_FLOOR)
        growth[growth <= EXP_FLOOR] = 0.0
        S = max(coeffs[0].shape[-1], growth.shape[1])
        v = np.empty((self._w.size, S), dtype=complex)
        start = 0
        for (_, w, V), c in zip(self.blocks, coeffs):
            stop = start + w.size
            z = c * growth[start:stop].reshape(w.shape + (-1,))
            np.matmul(V, z, out=v[start:stop].reshape(z.shape))
            start = stop
        del growth  # freed before the gather below
        d = self.sigma.dim
        # column s of v[unblock] is vec(X_s); the reshape is X_s^T, swapped back
        return v[self._unblock].T.reshape(S, d, d).swapaxes(1, 2)

    def state_at(self, coeffs, t):
        """The propagated states rho_s(t), an (S, d, d) stack (see ``_propagate``)."""
        rho = self._U @ self._propagate(coeffs, t) @ self._Uh
        return 0.5 * (rho + rho.conj().swapaxes(1, 2))

    def deviations(self, coeffs, t):
        """Hermitian U^dag (rho_s(t) - sigma) U for each column, in sigma.basis.

        The trace norm is unitarily invariant, so these carry the trace
        distances to sigma without rotating out of sigma.basis, where sigma
        is diag(weights).
        """
        X = self._propagate(coeffs, t)
        Y = X.conj().swapaxes(1, 2)
        Y += X
        Y *= 0.5
        diag = np.arange(self.sigma.dim)
        Y[:, diag, diag] -= self.sigma.weights
        return Y

    def distances(self, coeffs, t):
        """Exact trace distances ||rho_s(t) - sigma||_1, from the eigenvalues of ``deviations``."""
        return np.abs(np.linalg.eigvalsh(self.deviations(coeffs, t))).sum(axis=-1)


def evolve(L: Superoperator, rho0, t, sigma=None):
    """Propagate a density matrix to time t under the Schrodinger flow e^{t L^dag}.

    Uses the spectral route when ``sigma`` is supplied and ``symmetrize``
    accepts L; otherwise falls back to a dense matrix exponential, with a
    warning that carries the reason, since that path scales poorly.
    """
    rho0 = np.asarray(rho0, dtype=complex)
    if abs(np.trace(rho0) - 1.0) > 1e-10:
        raise ValueError("rho0 must have unit trace")
    if np.linalg.eigvalsh(0.5 * (rho0 + rho0.conj().T)).min() < -1e-10:
        raise ValueError("rho0 must be positive semidefinite")
    reason = "no Gibbs state given"
    if sigma is not None:
        try:
            prop = SpectralPropagator(L, sigma)
        except ValueError as exc:  # rejected by symmetrize
            reason = str(exc)
        else:
            return prop.state_at(prop.coefficients(rho0[None]), t)[0]
    warnings.warn(f"{reason}; using dense matrix exponential")
    rho = _expm_flow(L, rho0, t)
    return 0.5 * (rho + rho.conj().T)


def _expm_flow(L: Superoperator, rho0, t):
    """e^{t L^dag}(rho0) by a dense matrix exponential in the generator's own basis."""
    return L.from_basis(unvec(expm(t * L.local.toarray().conj().T) @ vec(L.to_basis(rho0))))


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
    U = sigma.basis
    delta = U.conj().T @ (np.asarray(rho, dtype=complex) - sigma.sigma) @ U
    r = sigma.weights**-0.5  # sigma^(-1/2) is diag(r) in sigma.basis
    return float(np.real(np.sum(delta * delta.T * np.outer(r, r))))


def _initial_family(sigma, n_haar=20, seed=314):
    """Computational and sigma-eigenbasis pure states plus seeded Haar states.

    Yields (state_id, rho) pairs one at a time, so a search that takes them
    in chunks never holds the whole family (148 dense states at n = 6).
    """
    d = sigma.dim
    for k in range(d):
        v = np.zeros(d, dtype=complex)
        v[k] = 1.0
        yield f"comp_{k}", np.outer(v, v.conj())
    V = sigma.eigenvectors
    for k in range(d):
        v = V[:, k]
        yield f"eig_{k}", np.outer(v, v.conj())
    rng = np.random.default_rng(seed)
    for k in range(n_haar):
        v = rng.standard_normal(d) + 1j * rng.standard_normal(d)
        v /= np.linalg.norm(v)
        yield f"haar_{k}", np.outer(v, v.conj())


def trace_norm_bounds(Y):
    """Exact bounds sum_i |Y_ii| <= ||Y||_1 <= sum_ij |Y_ij| for each matrix of a stack.

    The trace norm dominates the diagonal's l1 norm, and is at most the sum
    of the trace norms |Y_ij| of the rank-one pieces Y_ij e_i e_j^T.
    """
    A = np.abs(Y)
    return np.trace(A, axis1=-2, axis2=-1), A.sum(axis=(-2, -1))


def _within(prop, coeffs, t, epsilon):
    """||rho_s(t_s) - sigma||_1 <= epsilon for each coefficient column s.

    The sandwich decides every state it can; the eigenvalues are taken only
    for the states that fall between its two bounds.
    """
    Y = prop.deviations(coeffs, t)
    lower, upper = trace_norm_bounds(Y)
    inside = upper <= epsilon
    open_ = (lower <= epsilon) & ~inside
    if open_.any():
        inside[open_] = np.abs(np.linalg.eigvalsh(Y[open_])).sum(axis=-1) <= epsilon
    return inside


def first_crossing_times(prop: SpectralPropagator, states, epsilon, t_cap):
    """Earliest t with ||rho(t) - sigma||_Tr <= epsilon for each of the ``states``, by bisection.

    Trace distance to the fixed point is non-increasing along a CPTP
    semigroup, so each crossing is unique.  Every state follows its own
    bisection: 0 if it starts within epsilon; else ``hi`` doubles from
    ``t_cap`` until it is within (RuntimeError after 6 doublings), and
    [lo, hi] is halved until hi - lo <= BISECTION_RTOL * hi; the result is
    hi.  The states (any iterable of density matrices) are taken and
    bisected together a chunk at a time, the chunk's coefficient stack filling
    CROSSING_STACK_BYTES: each round propagates every state of the chunk
    whose bracket is still open, at its own time.
    """
    states = iter(states)
    size = max(1, CROSSING_STACK_BYTES // (16 * prop.evals.size))
    return np.concatenate([
        _bisect(prop, prop.coefficients(np.asarray(chunk, dtype=complex)), epsilon, t_cap)
        for chunk in iter(lambda: list(islice(states, size)), [])])


def _bisect(prop, coeffs, epsilon, t_cap):
    """Crossing times of the coefficient columns (see ``first_crossing_times``).

    ``cols`` are the states whose bracket is still open and ``sub`` their
    coefficients, copied only when the set shrinks.
    """
    def columns(cs, keep):
        return cs if keep.all() else [c[:, :, keep] for c in cs]

    S = coeffs[0].shape[-1]
    lo, hi = np.zeros(S), np.full(S, float(t_cap))
    far = ~_within(prop, coeffs, 0.0, epsilon)
    hi[~far] = 0.0
    cols, sub = np.flatnonzero(far), columns(coeffs, far)
    grow = 0
    while cols.size:
        out = ~_within(prop, sub, hi[cols], epsilon)
        cols, sub = cols[out], columns(sub, out)
        if cols.size:
            hi[cols] *= 2.0
            grow += 1
            if grow > 6:
                raise RuntimeError("bisection bracket failed; state not converging")
    wide = hi - lo > BISECTION_RTOL * hi
    cols, sub = np.flatnonzero(wide), columns(coeffs, wide)
    while cols.size:
        mid = 0.5 * (lo[cols] + hi[cols])
        inside = _within(prop, sub, mid, epsilon)
        hi[cols[inside]] = mid[inside]
        lo[cols[~inside]] = mid[~inside]
        wide = hi[cols] - lo[cols] > BISECTION_RTOL * hi[cols]
        cols, sub = cols[wide], columns(sub, wide)
    return hi


def mixing_time_estimate(L: Superoperator, sigma, epsilon, family=None, n_haar=20,
                         seed=314) -> MixingReport:
    """Max first-crossing time over a fixed state family, with gap bounds.

    The family goes through one batched search (``first_crossing_times``)
    on one eigendecomposition.  The measured time is a lower estimate of the
    true worst case over all states; the chi-square upper bound t_upper is
    the rigorous cap.
    """
    if not 0 < epsilon < 1:
        raise ValueError("epsilon must lie in (0, 1)")
    prop = SpectralPropagator(L, sigma)
    rep = gap_from_eigenvalues(-prop.evals[::-1])  # spectrum of -L_hat, ascending
    t_lower, t_upper = mixing_bounds_from_gap(rep.gap, sigma.lambda_min, epsilon)
    pairs = family if family is not None else _initial_family(sigma, n_haar=n_haar, seed=seed)
    ids = []

    def states():
        for sid, rho0 in pairs:
            ids.append(sid)
            yield rho0

    times = first_crossing_times(prop, states(), epsilon, max(t_upper, 1e-9))
    crossings = [(sid, float(t)) for sid, t in zip(ids, times)]
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
    """Spectral gap and slow-mode state sigma + alpha Y from one eigendecomposition of -L_hat.

    Y is the gap eigenoperator carried to the Schrodinger side and scaled so
    sigma + alpha Y is a valid state (alpha = lambda_min / 2).
    """
    blocks = block_eigh(-symmetrize(L, sigma))
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
    U = sigma.basis
    # U Phi(x) U^dag = sigma^{1/2} X sigma^{1/2} for the KMS eigenoperator X of L
    Z = U @ unvec(kms_scaling(sigma) * x) @ U.conj().T
    Y = Z + Z.conj().T
    if np.linalg.norm(Y) < 1e-12:
        Y = 1j * (Z - Z.conj().T)
    Y /= np.linalg.norm(Y, 2)
    alpha = sigma.lambda_min / 2.0
    return rep.gap, sigma.sigma + alpha * Y


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
