"""Classical baseline: Glauber chains, Cheeger bottlenecks, replica exchange.

Single-spin-flip dynamics with Metropolis acceptance on the defected Ising
ring reproduce the exponential bottleneck Phi_* ~ exp(-2 beta J); coupling
to a hot replica through configuration swaps removes it.  Everything here
is exact: generators are dense rate matrices and the bottleneck ratio is
minimized by full subset enumeration, streamed in fixed-size chunks of
subsets (candidate families cover larger state spaces with an explicit
upper-bound label).
"""

from dataclasses import dataclass

import numpy as np

STATE_GUARD = 14  # spins; 2^14 states is the largest dense chain we build
EXACT_CHEEGER_GUARD = 20  # states; exact mode enumerates 2^M subsets
# subsets per chunk of the exact enumeration: a chunk's (CHEEGER_CHUNK, M)
# mask table and its product with the flow matrix are the working set.  A
# power of two, so the chunks meet BLAS row blocks where one whole-table pass
# does and every ratio is summed in the same order
CHEEGER_CHUNK = 2**13


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


def _subset_masks(m, start, stop):
    """Rows start..stop-1 of the (2^m, m) table whose row s holds the bits of s,
    least significant first, as 0.0/1.0."""
    idx = np.arange(start, stop, dtype="<u4")
    bits = np.unpackbits(idx.view(np.uint8).reshape(-1, 4), axis=1, count=m, bitorder="little")
    return bits.astype(float)


def bottleneck_ratio(chain: ClassicalChain, mode="exact", energies=None):
    """Cheeger constant min_{pi(S) <= 1/2} Q(S, S^c) / pi(S).

    ``exact`` enumerates every subset (guarded at EXACT_CHEEGER_GUARD
    states), CHEEGER_CHUNK subset indices at a time; ``candidate``
    minimizes over single-site sign sectors and energy sublevel sets and is
    only an upper bound on the true ratio.
    """
    Q = chain.generator
    pi = chain.stationary
    m = chain.n_states
    flow = pi[:, None] * (Q - np.diag(np.diag(Q)))

    def ratio(mask):
        p = mask @ pi
        if p <= 0 or p > 0.5 + 1e-15:
            return np.inf
        out = mask @ flow.sum(axis=1) - ((mask @ flow) * mask).sum(-1)
        return out / p

    if mode == "exact":
        if m > EXACT_CHEEGER_GUARD:
            raise ValueError(f"exact mode limited to {EXACT_CHEEGER_GUARD} states")
        out = flow.sum(axis=1)
        best_val, best = np.inf, None
        for start in range(1, 2**m - 1, CHEEGER_CHUNK):  # skip empty and full
            masks = _subset_masks(m, start, min(start + CHEEGER_CHUNK, 2**m - 1))
            p = masks @ pi
            cross = masks @ out - np.einsum("sj,sj->s", masks @ flow, masks)
            valid = p <= 0.5 + 1e-15
            ratios = np.where(valid, cross / np.where(p > 0, p, 1.0), np.inf)
            k = int(np.argmin(ratios))
            # the first strict minimum over chunks is the first minimum overall
            if best is None or ratios[k] < best_val:
                best_val, best = ratios[k], start + k
        if best is None:
            raise ValueError("exact mode needs at least 2 states")
        members = tuple(s for s in range(m) if best >> s & 1)
        return float(best_val), members

    if mode != "candidate":
        raise ValueError(f"unknown mode {mode!r}")
    n_spins = int(round(np.log2(m)))
    table = spin_table(n_spins)
    candidates = []
    for s in range(n_spins):
        candidates.append((table[:, s] == 1).astype(float))
    if energies is None:
        energies = np.full(m, np.nan)
    else:
        for level in np.unique(energies):
            candidates.append((energies <= level).astype(float))
    best_val, best_mask = np.inf, None
    for mask in candidates:
        for side in (mask, 1.0 - mask):
            r = ratio(side)
            if r < best_val:
                best_val, best_mask = r, side
    members = tuple(np.nonzero(best_mask > 0)[0].tolist())
    return float(best_val), members


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
    pi = chain.stationary
    r = np.sqrt(pi)
    S = (r[:, None] * (-chain.generator)) / r[None, :]
    evals = np.linalg.eigvalsh(0.5 * (S + S.T))
    return float(evals[1])
