"""Classical baseline: Glauber chains, Cheeger bottlenecks, replica exchange.

Single-spin-flip dynamics with Metropolis acceptance on the defected Ising
ring reproduce the exponential bottleneck Phi_* ~ exp(-2 beta J); coupling
to a hot replica through configuration swaps removes it.  Generators are
dense rate matrices.  The bottleneck ratio is the sweep cut of the slow
mode, one eigensolve, one sort and O(m^2) cut sums at any chain size: an
upper bound on the Cheeger constant, whose exact value needs all 2^m
subsets.
"""

from dataclasses import dataclass

import numpy as np

STATE_GUARD = 14  # spins; 2^14 states is the largest dense chain we build


@dataclass
class ClassicalChain:
    """Continuous-time reversible chain: rate matrix, stationary law, beta."""

    generator: np.ndarray  # rows sum to zero, off-diagonal >= 0
    stationary: np.ndarray
    beta: float

    def __post_init__(self):
        Q = self.generator
        pi = self.stationary
        if np.abs(Q.sum(axis=1)).max() > 1e-12 * max(1.0, np.abs(Q).max()):
            raise ValueError("generator rows must sum to zero")
        off = Q - np.diag(np.diag(Q))
        if off.min() < -1e-14:
            raise ValueError("off-diagonal rates must be non-negative")
        if np.abs(pi @ Q).max() > 1e-12 * max(1.0, np.abs(Q).max()):
            raise ValueError("stationary law fails pi Q = 0")
        flow = pi[:, None] * Q
        if np.abs(flow - flow.T).max() > 1e-12 * max(1.0, np.abs(flow).max()):
            raise ValueError("chain is not reversible")

    @property
    def n_states(self):
        return self.generator.shape[0]


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


def glauber_generator(energy_fn, n_spins, beta) -> ClassicalChain:
    """Single-spin-flip chain with Metropolis rates min(1, e^{-beta dH}).

    ``energy_fn`` maps an (m, n_spins) array of +-1 rows to energies.
    """
    if n_spins > STATE_GUARD:
        raise ValueError(f"state space too large (n_spins > {STATE_GUARD})")
    states = spin_table(n_spins)
    m = states.shape[0]
    E = np.asarray(energy_fn(states), dtype=float)
    Q = np.zeros((m, m))
    idx = np.arange(m)
    for s in range(n_spins):
        flipped = idx ^ (1 << (n_spins - 1 - s))
        rates = np.minimum(1.0, np.exp(-beta * (E[flipped] - E)))
        Q[idx, flipped] += rates
    Q[idx, idx] = -Q.sum(axis=1)
    w = np.exp(-beta * (E - E.min()))
    pi = w / w.sum()
    return ClassicalChain(generator=Q, stationary=pi, beta=float(beta))


def _symmetrized(chain: ClassicalChain):
    """The pi-symmetrized -Q, made exactly symmetric, and sqrt(pi)."""
    r = np.sqrt(chain.stationary)
    S = (r[:, None] * (-chain.generator)) / r[None, :]
    return 0.5 * (S + S.T), r


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
    m = chain.n_states
    if m < 2:
        raise ValueError("a bottleneck needs at least 2 states")
    S, r = _symmetrized(chain)
    order = np.argsort(np.linalg.eigh(S)[1][:, 1] / r, kind="stable")
    pi = chain.stationary[order]
    flow = pi[:, None] * chain.generator[np.ix_(order, order)]
    np.fill_diagonal(flow, 0.0)
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
    """Two chains at (beta1, beta2) plus Metropolis configuration swaps.

    Swap rate (x1, x2) -> (x2, x1) is min(1, e^{(b1-b2)(H(x1)-H(x2))});
    the stationary law is the product pi_{b1} (x) pi_{b2}.
    """
    if n_spins > 6:
        raise ValueError("product state space too large (n_spins > 6)")
    c1 = glauber_generator(energy_fn, n_spins, beta1)
    c2 = glauber_generator(energy_fn, n_spins, beta2)
    m = c1.n_states
    E = np.asarray(energy_fn(spin_table(n_spins)), dtype=float)
    Q = np.kron(c1.generator, np.eye(m)) + np.kron(np.eye(m), c2.generator)
    x1 = np.repeat(np.arange(m), m)
    x2 = np.tile(np.arange(m), m)
    swapped = x2 * m + x1
    here = x1 * m + x2
    rates = np.minimum(1.0, np.exp((beta1 - beta2) * (E[x1] - E[x2])))
    moving = x1 != x2
    Q[here[moving], swapped[moving]] += rates[moving]
    Q[here[moving], here[moving]] -= rates[moving]
    pi = np.kron(c1.stationary, c2.stationary)
    return ClassicalChain(generator=Q, stationary=pi, beta=float(beta1))


def classical_gap(chain: ClassicalChain) -> float:
    """Second-smallest eigenvalue of the pi-symmetrized -Q."""
    return float(np.linalg.eigvalsh(_symmetrized(chain)[0])[1])
