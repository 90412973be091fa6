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
round for all of them.  A chunk of states is propagated only through the
blocks of L_hat it occupies (``Coefficients``): a block is an invariant
subspace, so a state that is zero on it stays zero there.  Each round
yields the entries on those blocks' vec indices, the support, and decides
each distance test first by the exact sandwich
sum_i |Y_ii| <= ||Y||_1 <= sum_ij |Y_ij| taken from them (``SupportBounds``).
A whole deviation is formed, and its eigenvalues computed, only for the
states that fall between the bounds.  Computational and sigma-eigenbasis
states of a commuting H occupy only the population block, whose support is
the diagonal; there the bounds coincide and no d x d matrix is formed.  At
n = 7, 256 of the 276 family states are such states: one ``qrex mixing``
call on the ring takes 0.97 s (3.8 s when every chunk used every block) and
at n = 6 0.16 s (0.69 s), in process on a 2-core VM with one BLAS thread.

Propagation has one route: a generator that ``symmetrize`` rejects (stored
in another basis, or not detailed balanced) raises its ValueError.
``chi_square_rate_fit`` reads its gap mode off the caller's propagator and
propagates it by ``np.linalg.eig`` of the generator.
"""

from dataclasses import dataclass
from itertools import islice

import numpy as np

from .hamiltonians import assemble_dense
from .lindblad import (
    Superoperator,
    WeightFunction,
    build_ckg_generator,
    eigensystem,
    gibbs_state,
    unvec,
    vec,
)
from .pauli import pauli_string_matrix, single_site_paulis
from .spectral import block_eigh, gap_from_eigenvalues, kms_scaling, symmetrize

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


@dataclass(frozen=True)
class Coefficients:
    """Coefficients of a stack of S states on the blocks of L_hat they occupy.

    A block is an invariant subspace of L_hat, so a state whose rotation
    U^dag rho U is zero on a block's vec indices keeps zero coefficients
    there at every time.  Only the blocks where some state of the stack is
    nonzero are kept: ``blocks`` holds (V, c) per block size, their
    eigenvectors with Phi folded in and the (k, b, S) coefficients, one
    column per state; ``rates`` are their eigenvalues and ``support`` their
    vec indices, both in the order of the blocks.
    """

    blocks: list
    rates: np.ndarray
    support: np.ndarray

    @property
    def size(self):
        """The number S of states (columns)."""
        return self.blocks[0][1].shape[-1]

    def columns(self, keep):
        """The coefficients of the columns that the boolean mask ``keep`` selects."""
        if keep.all():
            return self
        return Coefficients([(V, c[:, :, keep]) for V, c in self.blocks], self.rates, self.support)


class SpectralPropagator:
    """Evolution e^{t L^dag} through the block eigendecomposition of L_hat.

    ``blocks`` holds (idx, w, V) for each block size (see ``block_eigh``),
    with Phi folded into the eigenvectors: column j of V[c] is
    phi[idx[c]] times the eigenvector of L_hat.  ``evals`` is the whole
    spectrum of L_hat, ascending.  A stack of states is propagated through
    the blocks it occupies only (``Coefficients``), with one matmul per
    block size for the whole stack, and yields its entries on their vec
    indices; a whole (S, d, d) stack is formed only where a matrix is needed.
    """

    def __init__(self, L: Superoperator, sigma):
        self.sigma = sigma
        phi = kms_scaling(sigma)
        self.blocks = block_eigh(symmetrize(L, sigma))
        for idx, _, V in self.blocks:
            V *= phi[idx][:, :, None]
        self.evals = np.sort(np.concatenate([w.ravel() for _, w, _ in self.blocks]))
        self._phi_sq = phi * phi
        self._U, self._Uh = sigma.basis, sigma.basis.conj().T

    def coefficients(self, states) -> Coefficients:
        """V^dag Phi^(-1)(rho) on the occupied blocks, for each rho of the stack ``states``.

        The stored stack is diag(phi) V, so this is its adjoint applied to
        vec(U^dag rho U) / phi^2.  A block is occupied when some state is
        nonzero on one of its indices; the test is exact.
        """
        # row s is vec(U^dag rho_s U) = (U^T rho_s^T conj(U)) raveled
        v = self._U.T @ np.asarray(states).transpose(0, 2, 1) @ self._U.conj()
        v = v.reshape(v.shape[0], -1)
        v /= self._phi_sq
        np.conj(v, out=v)
        occupied = np.any(v != 0, axis=0)
        blocks, rates, support = [], [], []
        for idx, w, V in self.blocks:
            on = occupied[idx].any(axis=1)
            if not on.any():
                continue
            if not on.all():
                idx, w, V = idx[on], w[on], V[on]
            # conj(V^T conj(x)), so no conjugate of the stack is formed
            c = V.transpose(0, 2, 1) @ v[:, idx].transpose(1, 2, 0)  # (k, b, S)
            blocks.append((V, np.conj(c, out=c)))
            rates.append(w.ravel())
            support.append(idx.ravel())
        return Coefficients(blocks, np.concatenate(rates), np.concatenate(support))

    def _propagate(self, coeffs, t):
        """Entries of U^dag rho_s(t_s) U on ``coeffs.support``, an (m, S) array, column s per state.

        ``t`` is one time for every column or one per column; coefficients
        of one state (a single column) may be taken at several times.  The
        entries off the support are zero.
        """
        growth = np.multiply.outer(coeffs.rates, np.atleast_1d(np.asarray(t, dtype=float)))
        np.exp(growth, out=growth, where=growth > EXP_FLOOR)
        growth[growth <= EXP_FLOOR] = 0.0
        S = max(coeffs.size, growth.shape[1])
        x = np.empty((coeffs.rates.size, S), dtype=complex)
        start = 0
        for V, c in coeffs.blocks:
            stop = start + c.shape[0] * c.shape[1]
            z = c * growth[start:stop].reshape(c.shape[:2] + (-1,))
            np.matmul(V, z, out=x[start:stop].reshape(z.shape))
            start = stop
        return x

    def _scatter(self, x, support):
        """The (S, d, d) stack X_s with entries x[:, s] on the vec indices ``support``, else 0."""
        d = self.sigma.dim
        v = np.zeros((x.shape[1], d * d), dtype=complex)
        v[:, support] = x.T
        # row s is vec(X_s); the reshape is X_s^T, swapped back
        return v.reshape(-1, d, d).swapaxes(1, 2)

    def _deviation(self, X):
        """Hermitian part of X_s - diag(weights) for each matrix of the stack."""
        Y = X.conj().swapaxes(1, 2)
        Y += X
        Y *= 0.5
        diag = np.arange(self.sigma.dim)
        Y[:, diag, diag] -= self.sigma.weights
        return Y

    def state_at(self, coeffs, t):
        """The propagated states rho_s(t), an (S, d, d) stack (see ``_propagate``)."""
        rho = self._U @ self._scatter(self._propagate(coeffs, t), coeffs.support) @ self._Uh
        return 0.5 * (rho + rho.conj().swapaxes(1, 2))

    def deviations(self, coeffs, t):
        """Hermitian U^dag (rho_s(t) - sigma) U for each column, in sigma.basis.

        The trace norm is unitarily invariant, so these carry the trace
        distances to sigma without rotating out of sigma.basis, where sigma
        is diag(weights).
        """
        return self._deviation(self._scatter(self._propagate(coeffs, t), coeffs.support))

    def distances(self, coeffs, t):
        """Exact trace distances ||rho_s(t) - sigma||_1, from the eigenvalues of ``deviations``."""
        return np.abs(np.linalg.eigvalsh(self.deviations(coeffs, t))).sum(axis=-1)


def _check_state(rho, dim, name):
    """``rho`` as a complex array, or ValueError (naming ``name``) unless it is a density matrix.

    That is: shape (dim, dim), and unit trace, Hermitian and positive
    semidefinite within 1e-10.
    """
    rho = np.asarray(rho, dtype=complex)
    if rho.shape != (dim, dim):
        raise ValueError(f"{name} has shape {rho.shape}, expected {(dim, dim)}")
    if abs(np.trace(rho) - 1.0) > 1e-10:
        raise ValueError(f"{name} must have unit trace")
    if np.abs(rho - rho.conj().T).max() > 1e-10:
        raise ValueError(f"{name} must be Hermitian")
    if np.linalg.eigvalsh(0.5 * (rho + rho.conj().T)).min() < -1e-10:
        raise ValueError(f"{name} must be positive semidefinite")
    return rho


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


class SupportBounds:
    """Bounds sum_i |Y_ii| <= ||Y||_1 <= sum_ij |Y_ij| from the entries of X on a support.

    Y = (X + X^dag) / 2 - diag(weights) for each X of a stack that is zero
    off the vec indices ``support`` (i + d j for entry (i, j)); column s of
    x holds the entries of X_s there.  The trace norm dominates the
    diagonal's l1 norm, and is at most the sum of the trace norms |Y_ij| of
    the rank-one pieces Y_ij e_i e_j^T.  A diagonal pair outside the support
    adds w_i to both bounds.  On it, the lower bound is sum |Re x_ii - w_i|,
    and the upper bound adds sum_{i != j} |Y_ij| with
    Y_ij = (x_ij + conj(x_ji)) / 2; a pair whose transpose (j, i) lies off
    the support enters with |x_ij|, for Y_ij and Y_ji together.  The
    support of a Hermitian state is closed under transpose, so that last
    case is the exception.
    """

    def __init__(self, support, weights):
        d = weights.size
        i, j = support % d, support // d
        at = np.full(d * d, -1)
        at[support] = np.arange(support.size)
        partner = at[j + d * i]  # the place of (j, i) in the support, -1 if absent
        on_diag = i == j
        self.diag, self.weights = np.flatnonzero(on_diag), weights[i[on_diag]]
        off_support = np.ones(d, dtype=bool)
        off_support[i[on_diag]] = False
        self.outside = weights[off_support].sum()
        # |Y_ji| = |Y_ij| exactly: each transposed pair is summed once, as 2 |Y_ij|
        first = partner > np.arange(support.size)
        self.pair, self.partner = np.flatnonzero(first), partner[first]
        self.lone = np.flatnonzero(~on_diag & (partner < 0))

    def __call__(self, x):
        """The (lower, upper) bounds for each column of the (m, S) entries ``x``."""
        lower = np.abs(x[self.diag].real - self.weights[:, None]).sum(axis=0) + self.outside
        upper = lower + np.abs(x[self.pair] + x[self.partner].conj()).sum(axis=0)
        if self.lone.size:
            upper += np.abs(x[self.lone]).sum(axis=0)
        return lower, upper


def _within(prop, coeffs, t, epsilon, bounds):
    """||rho_s(t_s) - sigma||_1 <= epsilon for each coefficient column s.

    The sandwich ``bounds`` (a ``SupportBounds`` on ``coeffs.support``)
    decides every state it can from the support entries; a whole deviation
    is formed, and its eigenvalues taken, only for the states that fall
    between its two bounds.
    """
    x = prop._propagate(coeffs, t)
    lower, upper = bounds(x)
    inside = upper <= epsilon
    open_ = (lower <= epsilon) & ~inside
    if open_.any():
        Y = prop._deviation(prop._scatter(x[:, open_], coeffs.support))
        inside[open_] = np.abs(np.linalg.eigvalsh(Y)).sum(axis=-1) <= epsilon
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
    whose bracket is still open, at its own time, through the blocks that
    the chunk occupies.
    """
    states = iter(states)
    size = max(1, CROSSING_STACK_BYTES // (16 * prop.evals.size))
    return np.concatenate([np.empty(0)] + [
        _bisect(prop, prop.coefficients(np.asarray(chunk, dtype=complex)), epsilon, t_cap)
        for chunk in iter(lambda: list(islice(states, size)), [])])


def _bisect(prop, coeffs, epsilon, t_cap):
    """Crossing times of the coefficient columns (see ``first_crossing_times``).

    ``cols`` are the states whose bracket is still open and ``sub`` their
    coefficients, copied only when the set shrinks.
    """
    bounds = SupportBounds(coeffs.support, prop.sigma.weights)
    S = coeffs.size
    lo, hi = np.zeros(S), np.full(S, float(t_cap))
    far = ~_within(prop, coeffs, 0.0, epsilon, bounds)
    hi[~far] = 0.0
    cols, sub = np.flatnonzero(far), coeffs.columns(far)
    grow = 0
    while cols.size:
        out = ~_within(prop, sub, hi[cols], epsilon, bounds)
        cols, sub = cols[out], sub.columns(out)
        if cols.size:
            hi[cols] *= 2.0
            grow += 1
            if grow > 6:
                raise RuntimeError("bisection bracket failed; state not converging")
    wide = hi - lo > BISECTION_RTOL * hi
    cols, sub = np.flatnonzero(wide), coeffs.columns(wide)
    while cols.size:
        mid = 0.5 * (lo[cols] + hi[cols])
        inside = _within(prop, sub, mid, epsilon, bounds)
        hi[cols[inside]] = mid[inside]
        lo[cols[~inside]] = mid[~inside]
        wide = hi[cols] - lo[cols] > BISECTION_RTOL * hi[cols]
        cols, sub = cols[wide], sub.columns(wide)
    return hi


def mixing_time_estimate(L: Superoperator, sigma, epsilon, family=None, n_haar=20,
                         seed=314) -> MixingReport:
    """Max first-crossing time over a fixed state family, with gap bounds.

    The family goes through one batched search (``first_crossing_times``)
    on one eigendecomposition.  The measured time is a lower estimate of the
    true worst case over all states; the chi-square upper bound t_upper is
    the rigorous cap.  A custom ``family`` of (state_id, rho) pairs is
    checked state by state (``_check_state``), and an empty one is a
    ValueError.
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
            if family is not None:
                rho0 = _check_state(rho0, sigma.dim, f"family state {sid!r}")
            yield rho0

    times = first_crossing_times(prop, states(), epsilon, max(t_upper, 1e-9))
    if not ids:
        raise ValueError("the initial-state family is empty")
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


def _gap_and_mode(prop: SpectralPropagator):
    """Spectral gap and slow-mode state sigma + alpha Y, read off the caller's propagator.

    The blocks hold diag(phi) V and the gap eigenvalue is exactly -gap there,
    so its column unvec'd and rotated by U is sigma^{1/2} X sigma^{1/2} for
    the KMS eigenoperator X of L.  Y is its Hermitian part, scaled so
    sigma + alpha Y is a valid state (alpha = lambda_min / 2).
    """
    sigma = prop.sigma
    gap = gap_from_eigenvalues(-prop.evals[::-1]).gap
    x = np.zeros(prop.evals.size, dtype=complex)
    for idx, w, V in prop.blocks:
        c, j = np.nonzero(w == -gap)
        if c.size:  # the first block holding the gap eigenvalue
            x[idx[c[0]]] = V[c[0], :, j[0]]
            break
    U = sigma.basis
    Z = U @ unvec(x) @ U.conj().T
    Y = Z + Z.conj().T
    if np.linalg.norm(Y) < 1e-12:
        Y = 1j * (Z - Z.conj().T)
    Y /= np.linalg.norm(Y, 2)
    alpha = sigma.lambda_min / 2.0
    return gap, sigma.sigma + alpha * Y


def chi_square_rate_fit(L: Superoperator, prop: SpectralPropagator):
    """Exponential decay rate of chi-square along the flow, via eig of the dense generator.

    ``prop`` is the caller's propagator of L.  Starts in its gap mode
    (``_gap_and_mode``) and fits the rate of chi^2(t) at 8 times in
    [1/gap, 3/gap]; for a detailed-balanced generator this equals twice the
    spectral gap.  L is similar to the Hermitian L_hat, so ``np.linalg.eig``
    of L^dag diagonalizes it, independently of ``block_eigh``.
    """
    gap, rho0 = _gap_and_mode(prop)
    w, V = np.linalg.eig(L.local.toarray().conj().T)
    c = np.linalg.solve(V, vec(L.to_basis(rho0)))
    ts = np.linspace(1.0 / gap, 3.0 / gap, 8)
    logs = [np.log(chi_square(L.from_basis(unvec(V @ (np.exp(w * t) * c))), prop.sigma))
            for t in ts]
    slope = np.polyfit(ts, logs, 1)[0]
    return float(-slope)


def bottleneck_witness(spec, sites, beta):
    """Sector weights and jump containment for a -J Z_i Z_j defect bond.

    Projectors split the space by the (z_i, z_j) alignment pattern; with
    single-site couplings one jump of the Metropolis generator cannot cross
    from the misaligned sector straight between the two aligned ones, so
    Pi_A L(Pi_C) must vanish.
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
    L = build_ckg_generator(es, single_site_paulis(n), WeightFunction("metropolis", beta))
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
