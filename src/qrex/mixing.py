"""Semigroup propagation, trace-norm mixing times, and the chi-square sandwich.

For a detailed-balanced generator the Schrodinger flow factors through the
symmetrized matrix: e^{t L^dag}(rho) = Phi(e^{t L_hat}(Phi^{-1}(rho))) with
Phi(X) = sigma^{1/4} X sigma^{1/4}, so one Hermitian eigendecomposition
serves every initial state and every time.  sigma is the Gibbs state the
generator carries (``Superoperator.sigma``), and L_hat is taken in the
basis U = sigma.basis that the generator is stored in and sigma is diagonal
in (``symmetrize``).  There Phi is the elementwise scaling by
phi = kron(q, q), q = weights^(1/4), so a state only needs the rotation
U^dag rho U and that scaling; L_hat is sparse ``lindblad.Triplets``, decomposed
block by block along the connected components of its zero pattern
(``block_eigh``), so only the dense blocks are ever formed, one of each
conjugate pair under the transpose map T(i + d j) = j + d i.  A generator
with real entries (every CKG generator of a real H, ``lindblad.canonical``)
has a real L_hat and real eigenvector stacks, which apply to the complex
coefficients of the states as one real matmul on their float view
(``_matmul``).  A state is carried by the Hermitian part of U^dag rho U on
those solved blocks: the flow preserves Hermiticity, so on the partner of a
solved block that part stays the conjugate transpose of its entries on the
solved one, and it is written in as a mirror only where a whole matrix is
formed.

Trace distances are taken in sigma.basis too: the trace norm is unitarily
invariant, so ||rho(t) - sigma||_1 is that of the Hermitian part of
U^dag rho(t) U - diag(weights), with no rotation back.  The mixing-time
search ``first_crossing_times`` bisects a family of initial states
together, each state by its own rule, with one matmul per block size and
round for all of them.  The states are taken as they come, a batch at a
time (CROSSING_STACK_BYTES), and each batch is rotated once
(``SpectralPropagator.occupy``: one U^dag Psi for its state vectors and
one ragged outer product, U^dag rho U for a density matrix); each state is
kept by its entries on the blocks of L_hat it occupies: a block is an
invariant subspace, so a state that is zero on it stays zero there.  A
chunk of states is sized by the union of those blocks (CROSSING_STACK_BYTES)
and propagated only through it (``Coefficients``), each round's growth
factors coming from one exp.  Each round yields the entries on those
blocks' vec indices, the support, and decides each distance test first by
the exact sandwich sum_i |Y_ii| <= ||Y||_1 <= sum_ij |Y_ij| taken from them
(``SupportBounds``, one pass over |x|).  A mirrored entry x_ij stands for
itself and its conjugate at (j, i), and enters the upper bound as
2 |x_ij|.  A whole deviation is formed, and its
eigenvalues computed, only for the states that fall between the bounds.
Computational and sigma-eigenbasis states of a commuting H occupy only the
population block, whose support is the diagonal, d entries; there the
bounds coincide and no d x d matrix is formed.  Solving and carrying one
block of each conjugate pair halves the eigensolve and the work of every
round, and a chunk holds twice the states (``BENCH_20_conjugate_pairs.json``).

Propagation has one route: a generator that ``block_eigh`` rejects (not
detailed balanced) raises its ValueError.  ``chi_square_rate_fit`` reads its
gap mode off the caller's propagator and propagates it by
``np.linalg.eig`` of the propagator's generator.
"""

from dataclasses import dataclass
from itertools import islice

import numpy as np

from .lindblad import Superoperator, distinct, unvec, vec
from .spectral import (
    block_eigh,
    block_spectrum,
    gap_from_eigenvalues,
    kms_scaling,
    symmetrize,
    transpose_map,
)

BISECTION_RTOL = 1e-3
# Size in bytes of the (states x support) complex stack of the states that
# ``first_crossing_times`` bisects together, the support being the vec indices
# of the blocks they occupy; a round holds a few such stacks.  It also bounds a
# batch of states that ``SpectralPropagator.occupy`` rotates together, at one
# d x d complex matrix (16 d^2 bytes) per state
CROSSING_STACK_BYTES = 2**19
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
    chunks: int  # the work of the crossing search (``SearchWork``)
    rounds: int
    eigensolves: int


@dataclass(frozen=True)
class Occupied:
    """A batch of S states by the blocks of L_hat they occupy (``SpectralPropagator.occupy``).

    Row s of the (S, blocks) boolean ``blocks`` marks the numbered blocks
    state s occupies.  The nonzero rotated, scaled entries of all S states
    are ``entries``: entry e belongs to state ``owner[e]`` and sits at the
    place ``place[e]`` of the solved vec indices (``SpectralPropagator._order``);
    every other entry of the occupied blocks is zero.
    """

    blocks: np.ndarray
    place: np.ndarray
    entries: np.ndarray
    owner: np.ndarray

    def __len__(self):
        return self.blocks.shape[0]

    def take(self, lo, hi):
        """The states lo..hi-1 of the batch, numbered from 0."""
        if (lo, hi) == (0, len(self)):
            return self
        e = (self.owner >= lo) & (self.owner < hi)
        return Occupied(self.blocks[lo:hi], self.place[e], self.entries[e], self.owner[e] - lo)


@dataclass(frozen=True)
class Coefficients:
    """Coefficients of a stack of S states on the blocks of L_hat they occupy.

    A block is an invariant subspace of L_hat, so a state whose rotation
    U^dag rho U is zero on a block's vec indices keeps zero coefficients
    there at every time.  Only the solved blocks where some state of the
    stack is nonzero are kept: ``blocks`` holds (V, c) per block size, their
    eigenvectors with Phi folded in and the (k, b, S) coefficients, one
    column per state; ``rates`` are their eigenvalues and ``support`` their
    vec indices, both in the order of the blocks.  ``mirrored`` marks the
    support entries of twin blocks: the transpose (j, i) of such an entry
    (i, j) lies in the partner block and holds its conjugate.
    """

    blocks: list
    rates: np.ndarray
    support: np.ndarray
    mirrored: np.ndarray

    @property
    def size(self):
        """The number S of states (columns)."""
        return self.blocks[0][1].shape[-1]

    def columns(self, keep):
        """The coefficients of the columns that the boolean mask ``keep`` selects."""
        if keep.all():
            return self
        return Coefficients([(V, c.compress(keep, axis=2)) for V, c in self.blocks], self.rates,
                            self.support, self.mirrored)


class SpectralPropagator:
    """Evolution e^{t L^dag} through the block eigendecomposition of L_hat.

    ``L`` is the generator and ``sigma`` its Gibbs state, the fixed point.
    ``blocks`` holds (idx, w, V, twin) for each block size (see
    ``block_eigh``): one block of each conjugate pair of L_hat, with Phi
    folded into the eigenvectors: column j of V[c] is phi[idx[c]] times the
    eigenvector of L_hat.  ``evals`` is the whole spectrum of L_hat,
    ascending, the eigenvalues of a twin block counted twice.  The solved
    blocks are numbered in the order of ``blocks``; ``_order`` lists their
    vec indices in the same order, ``_block_at`` the block of each place in
    it, ``_mirrored`` whether that block is a twin, and ``_place`` the
    place of each vec index (-1 in a partner block).

    A state is carried by the Hermitian part of U^dag rho U on the solved
    blocks.  The flow is Hermiticity preserving, so on the partner T(B) of
    a twin block B that part stays the conjugate transpose of its entries
    on B, and every distance reads only the Hermitian part.  A state is
    kept by the blocks it occupies (``occupy``), and a stack of them is
    propagated through the union of those blocks only (``Coefficients``),
    with one matmul per block size for the whole stack, and yields its
    entries on their vec indices; a whole (S, d, d) stack is formed only
    where a matrix is needed, with the partner entries mirrored in.
    """

    def __init__(self, L: Superoperator):
        self.L, self.sigma = L, L.sigma
        phi = kms_scaling(self.sigma)
        self.blocks = block_eigh(symmetrize(L))
        for idx, _, V, _ in self.blocks:
            V *= phi[idx][:, :, None]
        self.evals = block_spectrum(self.blocks)
        self._phi_sq, self._sqrt_w = phi * phi, np.sqrt(self.sigma.weights)
        self._U, self._Uh = L.basis, L.basis.conj().T
        self._order = np.concatenate([idx.ravel() for idx, _, _, _ in self.blocks])
        self._sizes = np.concatenate([np.full(idx.shape[0], idx.shape[1])
                                      for idx, _, _, _ in self.blocks])
        self._block_at = np.repeat(np.arange(self._sizes.size), self._sizes)
        self._mirrored = np.concatenate([twin for _, _, _, twin in self.blocks])[self._block_at]
        self._transpose = transpose_map(phi.size)
        self._place = np.full(phi.size, -1)
        self._place[self._order] = np.arange(self._order.size)

    def occupy(self, states) -> Occupied:
        """State vectors psi (rho = psi psi^dag) or density matrices rho, by the blocks they occupy.

        Each state is rotated once: U^dag psi for a vector, whose outer
        product is U^dag rho U, else U^dag rho U itself; the vectors of the
        batch go through one U^dag Psi and the matrices through one stacked
        product.  The Hermitian part is kept on the solved blocks: an outer
        product is Hermitian as it is, and a matrix Y gives
        (y_r + conj(y_{T r})) / 2 at each vec index r.  A block is occupied
        when that part is nonzero on one of its vec indices; the test is
        exact.  The entries kept are the nonzero ones of conj(vec) / phi^2,
        for a vector b_j conj(b_i) at i + d j with b = U^dag psi / sqrt(weights),
        as phi^2 is sqrt(w_i w_j) there.  The k vectors with c nonzero
        entries b share one ragged outer product: when c^2 exceeds the
        number of solved vec indices it is taken on all of those at once,
        else as a (k c, c) array of the nonzero entries' products, the rest
        being zero.
        """
        states = [np.asarray(s, dtype=complex) for s in states]
        d, S = self.sigma.dim, len(states)
        parts = []  # (states, places, entries): a row of entries per state, places alike
        vectors = np.array([k for k, s in enumerate(states) if s.ndim == 1], dtype=int)
        if vectors.size:
            B = (self._Uh @ np.stack([states[k] for k in vectors], axis=1)).T / self._sqrt_w
            nonzero = B != 0
            count = nonzero.sum(axis=1)
            for c in distinct(count[count > 0]):
                rows = np.flatnonzero(count == c)
                Br = B[rows]
                if c * c > self._order.size:
                    v, w = Br[:, self._order // d], Br[:, self._order % d]
                    v *= np.conj(w, out=w)
                    parts.append((vectors[rows], np.arange(self._order.size), v))
                    continue
                on = np.nonzero(nonzero[rows])[1].reshape(-1, c)  # ascending within a row
                b = np.take_along_axis(Br, on, axis=1)
                # row (s, j) pairs b_j with the c entries of its state; formed in
                # place, to keep the full-size temporaries few
                at = np.repeat(on, c, axis=0)
                at += (d * on).reshape(-1, 1)
                np.take(self._place, at, out=at)
                v = np.repeat(b.conj(), c, axis=0)
                v *= b.reshape(-1, 1)
                parts.append((vectors[rows], at, v))
        matrices = np.array([k for k, s in enumerate(states) if s.ndim != 1], dtype=int)
        if matrices.size:
            # vec(U^dag rho U) = (U^T rho^T conj(U)) raveled
            rho = np.stack([states[k] for k in matrices])
            y = (self._U.T @ rho.swapaxes(1, 2) @ self._U.conj()).reshape(matrices.size, -1)
            v = 0.5 * (y[:, self._order] + y[:, self._transpose[self._order]].conj())
            v /= self._phi_sq[self._order]
            parts.append((matrices, np.arange(self._order.size), np.conj(v, out=v)))
        kept = []  # (places, entries, owners) of the nonzero entries on solved vec indices
        for ids, at, v in parts:
            at = np.broadcast_to(at, v.shape)
            keep = (at >= 0) & (v != 0)
            kept.append((at[keep], v[keep], np.repeat(ids, keep.reshape(ids.size, -1).sum(axis=1))))
        if not kept:
            kept = [(np.zeros(0, int), np.zeros(0, complex), np.zeros(0, int))]
        place, entries, owner = map(_joined, zip(*kept))
        n = self._sizes.size
        blocks = np.bincount(owner * n + self._block_at[place], minlength=S * n).reshape(S, n) > 0
        return Occupied(blocks, place, entries, owner)

    def support_size(self, blocks):
        """The number of vec indices of the blocks that the boolean mask ``blocks`` selects."""
        return int(self._sizes[blocks].sum())

    def coefficients(self, states) -> Coefficients:
        """V^dag Phi^(-1)(rho) on the occupied blocks, for each of the ``states``.

        ``states`` are state vectors or density matrices (see ``occupy``), or
        ``Occupied`` batches of them, taken in order.  The stored stack is
        diag(phi) V, so this is its adjoint applied to vec(U^dag rho U) / phi^2,
        on the union of the blocks the states occupy; a state is zero on the
        union's blocks it does not occupy.  The entries of all states are put
        in place by one scatter, and each block size takes one matmul.
        """
        batches = states if all(isinstance(s, Occupied) for s in states) else [self.occupy(states)]
        sizes = [len(b) for b in batches]
        occupied = np.concatenate([b.blocks for b in batches]).any(axis=0)
        at = occupied[self._block_at]  # the places in ``_order`` of the union's vec indices
        row = np.cumsum(at) - 1
        col = _joined([b.owner + first for b, first in zip(batches, np.cumsum(sizes) - sizes)])
        x = np.zeros((int(at.sum()), sum(sizes)), dtype=complex)
        x[row[_joined([b.place for b in batches])], col] = _joined([b.entries for b in batches])
        blocks, rates = [], []
        first, start = 0, 0
        for idx, w, V, _ in self.blocks:
            on = occupied[first:first + idx.shape[0]]
            first += idx.shape[0]
            if not on.any():
                continue
            if not on.all():
                w, V = w[on], V[on]
            stop = start + w.size
            # conj(V^T conj(x)), so no conjugate of the stack is formed
            c = np.empty(w.shape + (x.shape[1],), dtype=complex)  # (k, b, S)
            _matmul(V.transpose(0, 2, 1), x[start:stop].reshape(c.shape), c)
            blocks.append((V, np.conj(c, out=c)))
            rates.append(w.ravel())
            start = stop
        return Coefficients(blocks, np.concatenate(rates), self._order[at], self._mirrored[at])

    def _propagate(self, coeffs, t):
        """Entries of U^dag rho_s(t_s) U on ``coeffs.support``, an (m, S) array, column s per state.

        ``t`` is one time for every column or one per column; coefficients
        of one state (a single column) may be taken at several times.  The
        entries off the support are zero.
        """
        growth = _exp(coeffs.rates[:, None] * np.atleast_1d(np.asarray(t, dtype=float)))
        S = max(coeffs.size, growth.shape[1])
        x = np.empty((coeffs.rates.size, S), dtype=complex)
        start = 0
        for V, c in coeffs.blocks:
            stop = start + c.shape[0] * c.shape[1]
            z = c * growth[start:stop].reshape(c.shape[:2] + (-1,))
            _matmul(V, z, x[start:stop].reshape(z.shape))
            start = stop
        return x

    def _scatter(self, x, coeffs):
        """The (S, d, d) stack X_s with entries x[:, s] on ``coeffs.support``, mirrored, else 0.

        Each ``mirrored`` entry x_ij also puts its conjugate at (j, i), in the
        partner block.
        """
        d = self.sigma.dim
        v = np.zeros((x.shape[1], d * d), dtype=complex)
        v[:, coeffs.support] = x.T
        m = coeffs.mirrored
        v[:, self._transpose[coeffs.support[m]]] = x[m].T.conj()
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
        rho = self._U @ self._scatter(self._propagate(coeffs, t), coeffs) @ self._Uh
        return 0.5 * (rho + rho.conj().swapaxes(1, 2))

    def distances(self, coeffs, t):
        """Exact trace distances ||rho_s(t) - sigma||_1 for each coefficient column.

        Read off the eigenvalues of the Hermitian U^dag (rho_s(t) - sigma) U in
        sigma.basis, where sigma is diag(weights): the trace norm is unitarily
        invariant, so nothing is rotated out of sigma.basis.
        """
        Y = self._deviation(self._scatter(self._propagate(coeffs, t), coeffs))
        return np.abs(np.linalg.eigvalsh(Y)).sum(axis=-1)


def _exp(x):
    """exp(x) in place, 0 where x <= EXP_FLOOR: one unmasked exp of the clamped exponents."""
    low = x <= EXP_FLOOR
    np.maximum(x, EXP_FLOOR, out=x)
    np.exp(x, out=x)
    x[low] = 0.0
    return x


def _joined(arrays):
    """The arrays joined end to end; a single one as it is, not copied."""
    return arrays[0] if len(arrays) == 1 else np.concatenate(arrays)


def _matmul(V, z, out):
    """out = V @ z for a stack V and complex stacks z and out, each contiguous in its last axis.

    A real V multiplies the (..., 2S) float view of z, the real and
    imaginary parts of each column side by side, so V is never cast to
    complex: one real matmul does the work.
    """
    if V.dtype.kind == "f":
        z, out = z.view(np.float64), out.view(np.float64)
    np.matmul(V, z, out=out)


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

    Yields (state_id, psi) pairs one at a time, psi the state vector of the
    pure state psi psi^dag, so a search that takes them as they come never
    holds the whole family, and no d x d matrix is formed for any of them.
    """
    d = sigma.dim
    for k in range(d):
        v = np.zeros(d, dtype=complex)
        v[k] = 1.0
        yield f"comp_{k}", v
    V = sigma.eigenvectors
    for k in range(d):
        yield f"eig_{k}", V[:, k]
    rng = np.random.default_rng(seed)
    for k in range(n_haar):
        v = rng.standard_normal(d) + 1j * rng.standard_normal(d)
        v /= np.linalg.norm(v)
        yield f"haar_{k}", v


class SupportBounds:
    """Bounds sum_i |Y_ii| <= ||Y||_1 <= sum_ij |Y_ij| from the entries of X on a support.

    Y = (X + X^dag) / 2 - diag(weights) for each X of a stack that is zero
    off the vec indices ``support`` (i + d j for entry (i, j)) and their
    mirrors; column s of x holds the entries of X_s on the support.  An
    entry that the mask ``mirrored`` selects stands for its transpose too:
    (j, i) lies off the support and X_s holds conj(x_ij) there.  The trace
    norm dominates the diagonal's l1 norm, and is at most the sum of the
    trace norms |Y_ij| of the rank-one pieces Y_ij e_i e_j^T.  A diagonal
    pair outside the support adds w_i to both bounds.  On it, the lower
    bound is sum |Re x_ii - w_i|, and the upper bound adds sum_{i != j}
    |Y_ij| with Y_ij = (x_ij + conj(x_ji)) / 2.  A mirrored entry enters
    with 2 |x_ij|, for Y_ij = x_ij and Y_ji together; any other entry whose
    transpose lies off the support enters with |x_ij|.  The support of a
    Hermitian state is closed under transpose, with its mirrors, so that
    last case is the exception.
    """

    def __init__(self, support, weights, mirrored=None):
        d = weights.size
        mirrored = np.zeros(support.size, dtype=bool) if mirrored is None else mirrored
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
        # the weight of each |x_ij| in the upper bound: 2 for a mirrored entry, 1 for
        # another entry without a partner on the support, 0 on the diagonal and in pairs
        self.row_weight = np.where(on_diag | (partner >= 0), 0.0, np.where(mirrored, 2.0, 1.0))

    def __call__(self, x):
        """The (lower, upper) bounds for each column of the (m, S) entries ``x``."""
        lower = np.abs(x[self.diag].real - self.weights[:, None]).sum(axis=0) + self.outside
        upper = lower + self.row_weight @ np.abs(x)
        if self.pair.size:
            upper += np.abs(x[self.pair] + x[self.partner].conj()).sum(axis=0)
        return lower, upper


@dataclass
class SearchWork:
    """What a crossing search did: the chunks it bisected, its propagation
    rounds, and the states it sent to ``eigvalsh`` (summed over rounds)."""

    chunks: int = 0
    rounds: int = 0
    eigensolves: int = 0


def _within(prop, coeffs, t, epsilon, bounds, work):
    """||rho_s(t_s) - sigma||_1 <= epsilon for each coefficient column s.

    The sandwich ``bounds`` (a ``SupportBounds`` on ``coeffs.support``)
    decides every state it can from the support entries; a whole deviation
    is formed, and its eigenvalues taken, only for the states that fall
    between its two bounds.  The round is counted in ``work``.
    """
    x = prop._propagate(coeffs, t)
    lower, upper = bounds(x)
    inside = upper <= epsilon
    open_ = (lower <= epsilon) & ~inside
    work.rounds += 1
    if open_.any():
        work.eigensolves += int(open_.sum())
        Y = prop._deviation(prop._scatter(x[:, open_], coeffs))
        inside[open_] = np.abs(np.linalg.eigvalsh(Y)).sum(axis=-1) <= epsilon
    return inside


def first_crossing_times(prop: SpectralPropagator, states, epsilon, t_cap, work=None):
    """Earliest t with ||rho(t) - sigma||_Tr <= epsilon for each of the ``states``, by bisection.

    Trace distance to the fixed point is non-increasing along a CPTP
    semigroup, so each crossing is unique.  Every state follows its own
    bisection: 0 if it starts within epsilon; else ``hi`` doubles from
    ``t_cap`` until it is within (RuntimeError after 6 doublings), and
    [lo, hi] is halved until hi - lo <= BISECTION_RTOL * hi; the result is
    hi, the halvings that a chi-square bound decides taking no round.  The
    states (any iterable of state vectors or density matrices) are taken as
    they come and rotated a batch at a time (``_occupied_batches``),
    and bisected together a chunk at a time: a state joins the chunk while
    (states + 1) x (vec indices of the blocks they occupy) x 16 bytes fits
    CROSSING_STACK_BYTES, else the chunk is bisected and a new one starts
    with it.  Each round propagates every state of the chunk whose bracket
    is still open, at its own time, through the blocks the chunk occupies.
    ``work`` (a ``SearchWork``), if given, counts what the search did.
    """
    work = SearchWork() if work is None else work
    times, chunk, size, union = [np.empty(0)], [], 0, None
    for batch in _occupied_batches(prop, states):
        lo = 0
        for s, blocks in enumerate(batch.blocks):
            joined = blocks if not size else union | blocks
            if size and (size + 1) * 16 * prop.support_size(joined) > CROSSING_STACK_BYTES:
                chunk.append(batch.take(lo, s))
                times.append(_bisect(prop, prop.coefficients(chunk), epsilon, t_cap, work))
                chunk, size, lo, joined = [], 0, s, blocks
            size += 1
            union = joined
        chunk.append(batch.take(lo, len(batch)))
    if size:
        times.append(_bisect(prop, prop.coefficients(chunk), epsilon, t_cap, work))
    return np.concatenate(times)


def _occupied_batches(prop, states):
    """``prop.occupy`` of the ``states``, taken as they come, a batch at a time.

    A batch holds as many states as fit CROSSING_STACK_BYTES at 16 d^2
    bytes each, the size of one d x d complex matrix and of the largest
    outer product of a state vector, so the states are never held whole.
    """
    size = max(1, CROSSING_STACK_BYTES // (16 * prop.sigma.dim**2))
    states = iter(states)
    while batch := list(islice(states, size)):
        yield prop.occupy(batch)


def _certified_halvings(coeffs, epsilon, t_cap, far):
    """How many leading points t_cap / 2^j, j = 0, 1, ..., each ``far`` state is certified at.

    ||rho_t - sigma||_1^2 <= chi2(t) = sum_k m_k |c_k|^2 e^{2 w_k t} - 1 (Temme et al.,
    J. Math. Phys. 51, 122201, 2010), m_k = 2 on twin blocks, else 1, the kernel
    mode carrying tr(rho) = 1.  chi2 falls with t; a state is certified where it is
    below epsilon^2 by 64 eps_mach (1 + chi2(0)), over the coefficients' rounding.
    """
    S = coeffs.size
    weight = np.concatenate([np.abs(c.reshape(-1, S))**2 for _, c in coeffs.blocks])
    weight *= 1.0 + coeffs.mirrored[:, None]
    bound = epsilon**2 - 64 * np.finfo(float).eps * weight.sum(axis=0)
    count, open_, t = np.zeros(S, dtype=int), far.copy(), float(t_cap)
    while open_.any() and t > 0.0:
        open_ &= _exp(2.0 * t * coeffs.rates) @ weight - 1.0 <= bound
        count += open_
        t *= 0.5
    return count


def _bisect(prop, coeffs, epsilon, t_cap, work):
    """Crossing times of the coefficient columns (see ``first_crossing_times``).

    The halvings of [0, t_cap] that ``_certified_halvings`` decides take no
    round.  ``cols`` are the states whose bracket is still open and ``sub``
    their coefficients, copied only when the set shrinks.
    """
    work.chunks += 1
    bounds = SupportBounds(coeffs.support, prop.sigma.weights, mirrored=coeffs.mirrored)
    S = coeffs.size
    lo, hi = np.zeros(S), np.full(S, float(t_cap))
    far = ~_within(prop, coeffs, 0.0, epsilon, bounds, work)
    hi[~far] = 0.0
    count = _certified_halvings(coeffs, epsilon, t_cap, far)
    hi[count > 0] *= 0.5 ** (count[count > 0] - 1)
    far &= count == 0
    cols, sub = np.flatnonzero(far), coeffs.columns(far)
    grow = 0
    while cols.size:
        out = ~_within(prop, sub, hi[cols], epsilon, bounds, work)
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
        inside = _within(prop, sub, mid, epsilon, bounds, work)
        hi[cols[inside]] = mid[inside]
        lo[cols[~inside]] = mid[~inside]
        wide = hi[cols] - lo[cols] > BISECTION_RTOL * hi[cols]
        cols, sub = cols[wide], sub.columns(wide)
    return hi


def mixing_time_estimate(L: Superoperator, epsilon, family=None, n_haar=20,
                         seed=314) -> MixingReport:
    """Max first-crossing time over a fixed state family, with gap bounds.

    The family goes through one batched search (``first_crossing_times``)
    on one eigendecomposition, toward the Gibbs state L.sigma.  The
    measured time is a lower estimate of the true worst case over all
    states; the chi-square upper bound t_upper is the rigorous cap.  A
    custom ``family`` of (state_id, rho) pairs is checked state by state
    (``_check_state``), and an empty one is a ValueError.  A kernel of
    dimension other than 1 is an UnresolvedGapError of the gap reader,
    raised before the search: a slow mode taken for a stationary one leaves
    the reported gap, and so t_upper and the search's bracket, wrong.
    """
    if not 0 < epsilon < 1:
        raise ValueError("epsilon must lie in (0, 1)")
    prop, sigma = SpectralPropagator(L), L.sigma
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

    work = SearchWork()
    times = first_crossing_times(prop, states(), epsilon, max(t_upper, 1e-9), work)
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
        chunks=work.chunks,
        rounds=work.rounds,
        eigensolves=work.eigensolves,
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
    for idx, w, V, _ in prop.blocks:
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


def chi_square_rate_fit(prop: SpectralPropagator):
    """Exponential decay rate of chi-square along the flow, via eig of the dense generator.

    Starts in the gap mode of the caller's propagator (``_gap_and_mode``)
    and fits the rate of chi^2(t) under its generator L = prop.L at 8 times
    in [1/gap, 3/gap]; for a detailed-balanced generator this equals twice
    the spectral gap.  L is similar to the Hermitian L_hat, so
    ``np.linalg.eig`` of L^dag diagonalizes it, independently of
    ``block_eigh``.
    """
    L = prop.L
    gap, rho0 = _gap_and_mode(prop)
    # complex eig also for a real L: at the n = 3 ring's beta = 3 (lambda_min 3e-6)
    # the real route's rounding moves the fitted rate 8.8e-6 off 2 gap, this 2.8e-7
    w, V = np.linalg.eig(L.local.toarray().conj().T.astype(complex))
    c = np.linalg.solve(V, vec(L.to_basis(rho0)))
    ts = np.linspace(1.0 / gap, 3.0 / gap, 8)
    logs = [np.log(chi_square(L.from_basis(unvec(V @ (np.exp(w * t) * c))), prop.sigma))
            for t in ts]
    slope = np.polyfit(ts, logs, 1)[0]
    return float(-slope)

