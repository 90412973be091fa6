"""Classical baseline: Glauber chains, Cheeger bottlenecks, replica exchange.

Single-spin-flip dynamics with Metropolis acceptance on the defected Ising
ring reproduce the exponential bottleneck Phi_* ~ exp(-2 beta J); coupling
to a hot replica through configuration swaps removes it.  A chain is its
sparse off-diagonal rates (at most 2n + 1 a row), checked entry by entry; its
gap solves the two sectors of the global spin flip apart when the chain is
exactly flip invariant.  The bottleneck ratio, the sweep cut of the slow mode
(one eigensolve, one sort, O(m^2) cut sums), bounds the Cheeger constant.
"""

from dataclasses import dataclass

import numpy as np

from .lindblad import Triplets, canonical
from .spectral import UnresolvedGapError

STATE_GUARD = 14  # spins; 2^14 states is the largest chain we build


@dataclass
class ClassicalChain:
    """Continuous-time reversible chain: off-diagonal rates q_xy as ``Triplets`` sorted by
    (row, col), and stationary law.  Q is ``rates`` less the diagonal of its row sums q_x."""

    rates: Triplets
    stationary: np.ndarray

    def __post_init__(self):
        R, pi = self.rates, self.stationary
        out = np.bincount(R.row, R.val, R.side)  # the exit rates q_x
        if R.val.min(initial=0.0) < -1e-14:
            raise ValueError("off-diagonal rates must be non-negative")
        flow = pi[R.row] * R.val  # pi_x q_xy at entry (x, y); pi_x q_x the diagonal's
        if np.abs(np.bincount(R.col, flow, R.side) - pi * out).max() > 1e-12 * max(1.0, out.max()):
            raise ValueError("stationary law fails pi Q = 0")
        skew = canonical(np.r_[R.row, R.col], np.r_[R.col, R.row], np.r_[flow, -flow], R.side).val
        self.reversibility = float(np.abs(skew).max(initial=0.0))  # max |pi_x q_xy - pi_y q_yx|
        if self.reversibility > 1e-12 * max(1.0, (pi * out).max()):
            raise ValueError("chain is not reversible")


def spin_table(n_spins):
    """All configurations as +-1 rows; site 0 is the most significant bit."""
    idx = np.arange(2**n_spins)
    bits = (idx[:, None] >> (n_spins - 1 - np.arange(n_spins))[None, :]) & 1
    return 1 - 2 * bits


def classical_defected_ising_energy(z, J, n_spins=None):
    """Ring energy -J z_0 z_1 - sum_{i>=1} z_i z_{i+1}; accepts (n,) or (m, n)."""
    z = np.asarray(z)
    single = z.ndim == 1
    if single:
        z = z[None, :]
    n = z.shape[1] if n_spins is None else n_spins
    e = -J * z[:, 0] * z[:, 1]
    for i in range(1, n):
        e = e - z[:, i] * z[:, (i + 1) % n]
    return float(e[0]) if single else e


def _metropolis(F, target) -> ClassicalChain:
    """Chain with rates min(1, e^{-(F[y] - F[x])}) from each state x to the states y != x of
    row x of ``target``, and law pi = e^{-F} / Z; F is the energy table times beta."""
    x, y = np.broadcast_arrays(np.arange(F.size)[:, None], target)
    x, y, w = x[x != y], y[x != y], np.exp(-(F - F.min()))
    rates = np.minimum(1.0, np.exp(-(F[y] - F[x])))
    return ClassicalChain(canonical(x, y, rates, F.size), w / w.sum())


def glauber_generator(energy_fn, n_spins, beta) -> ClassicalChain:
    """Single-spin-flip chain with Metropolis rates min(1, e^{-beta dH}); ``energy_fn``
    maps an (m, n_spins) array of +-1 rows to energies."""
    if n_spins > STATE_GUARD:
        raise ValueError(f"state space too large (n_spins > {STATE_GUARD})")
    E = np.asarray(energy_fn(spin_table(n_spins)), dtype=float)
    return _metropolis(beta * E, np.arange(E.size)[:, None] ^ (1 << np.arange(n_spins)))


def _symmetrized(chain: ClassicalChain):
    """The pi-symmetrized -Q as ``Triplets``, made exactly symmetric, and sqrt(pi)."""
    R, r = chain.rates, np.sqrt(chain.stationary)
    a = -(r[R.row] * R.val) / r[R.col]  # entry (x, y) of diag(r) (-Q) diag(r)^{-1}
    o = np.lexsort((R.val, R.row))  # exit rates summed in ascending order, unchanged by a flip
    d, out = np.arange(R.side), np.bincount(R.row[o], R.val[o], R.side)
    S = canonical(np.r_[R.row, R.col, d], np.r_[R.col, R.row, d], np.r_[a, a, 2.0 * out], R.side)
    return Triplets(S.row, S.col, 0.5 * S.val, S.side), r


def bottleneck_ratio(chain: ClassicalChain):
    """Sweep cut of the slow mode: min_k Q(S_k, S_k^c) / min(pi(S_k), pi(S_k^c)).

    S_k holds the k + 1 states lowest in the slow eigenvector of the
    symmetrized -Q over sqrt(pi).  The result bounds the Cheeger constant
    from above.  Any set S gives gap <= 2 Q(S, S^c) / min(pi(S), pi(S^c)),
    so the ratio is at least gap / 2 however the ordering is perturbed; the
    sweep cut also obeys phi^2 <= 2 q_max gap, q_max the largest exit rate
    (Lawler and Sokal, Trans. AMS 309, 1988).  Cut flows and masses are
    sums of nonnegative terms, never differences.  Returns (phi, members),
    the members the side of the best cut with pi <= 1/2.
    """
    m = chain.rates.side
    if m < 2:
        raise ValueError("a bottleneck needs at least 2 states")
    S, r = _symmetrized(chain)
    order = np.argsort(np.linalg.eigh(S.toarray())[1][:, 1] / r, kind="stable")
    pi, rank, R = chain.stationary[order], np.argsort(order), chain.rates  # rank: place in sweep
    flow = np.zeros((m, m))
    flow[rank[R.row], rank[R.col]] = chain.stationary[R.row] * R.val
    # tail[i, k] = flow from state i to the states after k; the prefix cuts
    # are the diagonal of its running sum over rows
    tail = np.cumsum(flow[:, :0:-1], axis=1)[:, ::-1]
    cut = np.diagonal(np.cumsum(tail, axis=0))
    inside = np.cumsum(pi)[:-1]
    outside = np.cumsum(pi[::-1])[::-1][1:]
    ratios = cut / np.minimum(inside, outside)
    k = int(np.argmin(ratios))
    side = order[:k + 1] if inside[k] <= outside[k] else order[k + 1:]
    return float(ratios[k]), tuple(sorted(side.tolist()))


def classical_re_generator(energy_fn, n_spins, beta1, beta2) -> ClassicalChain:
    """Two chains at (beta1, beta2) plus Metropolis swaps (x1, x2) -> (x2, x1), state x1 m + x2:
    every move is Metropolis on F = beta1 H(x1) + beta2 H(x2), so the swap rate is
    min(1, e^{(b1-b2)(H(x1)-H(x2))}) and the stationary law is pi_{b1} (x) pi_{b2}."""
    if n_spins > 6:
        raise ValueError("product state space too large (n_spins > 6)")
    E = np.asarray(energy_fn(spin_table(n_spins)), dtype=float)
    s, m = np.arange(E.size**2), E.size
    flips = s[:, None] ^ (1 << np.arange(2 * n_spins))  # the bits of x1, then of x2
    return _metropolis(np.add.outer(beta1 * E, beta2 * E).ravel(),
                       np.column_stack([flips, s % m * m + s // m]))


def _sectors(S):
    """Dense blocks holding the eigenvalues of the symmetric ``Triplets`` S: its even and odd
    sectors under x -> m - 1 - x (the global spin flip; of both replicas in the replica
    chain) where S is exactly invariant under it, which reverses its sorted entries; else S."""
    m, h = S.side, S.side // 2
    if m % 2 or not (np.array_equal(S.val, S.val[::-1])
                     and all(np.array_equal(a, m - 1 - a[::-1]) for a in (S.row, S.col))):
        return [S.toarray()]
    top = S.row < h  # rows x < m/2 hold every entry once up to the flip
    far = S.col[top] >= h  # column y folds onto m - 1 - y with sign -1 in the odd sector
    cell = S.row[top] * h + np.where(far, m - 1 - S.col[top], S.col[top])
    return (np.bincount(cell, np.where(far, sign, 1.0) * S.val[top], h * h).reshape(h, h)
            for sign in (1.0, -1.0))  # formed one at a time


def classical_gap(chain: ClassicalChain) -> float:
    """Second-smallest eigenvalue of the pi-symmetrized -Q, S; UnresolvedGapError at or
    below 64 eps ||S||, where the absolute error of ``eigvalsh`` leaves noise."""
    blocks = _sectors(_symmetrized(chain)[0])
    evals = np.sort(np.concatenate([np.linalg.eigvalsh(B) for B in blocks]))
    if evals[1] <= (floor := 64 * np.finfo(float).eps * np.abs(evals).max()):
        raise UnresolvedGapError(f"classical gap {evals[1]:.3e} is below the resolvable floor "
                                 f"{floor:.3e} (64 eps ||S||)")
    return float(evals[1])
