"""Pauli matrices, tensor assembly, and qubit-index bookkeeping.

Conventions used throughout the package:
  * site 0 is the most significant tensor factor, so a basis index b
    carries the bit of site s at position (n - 1 - s);
  * operator vectorization is column-stacking, vec(A X B) = (B^T (x) A) vec(X).
"""

from functools import reduce

import numpy as np

I2 = np.eye(2, dtype=complex)
X = np.array([[0.0, 1.0], [1.0, 0.0]], dtype=complex)
Y = np.array([[0.0, -1.0j], [1.0j, 0.0]], dtype=complex)
Z = np.array([[1.0, 0.0], [0.0, -1.0]], dtype=complex)

PAULIS = {"I": I2, "X": X, "Y": Y, "Z": Z}
PAULI_LABELS = ("X", "Y", "Z")


def kron_all(mats):
    """Kronecker product of a sequence of matrices, left factor most significant."""
    mats = list(mats)
    if not mats:
        return np.eye(1, dtype=complex)
    return reduce(np.kron, mats)


def pauli_string_matrix(n, factors, coeff=1.0):
    """Dense matrix of coeff * prod_(site,label) P_label acting on n qubits.

    ``factors`` is an iterable of (site, label) pairs with distinct sites.
    """
    ops = [I2] * n
    seen = set()
    for site, label in factors:
        if not 0 <= site < n:
            raise ValueError(f"site index {site} out of range for n={n}")
        if site in seen:
            raise ValueError(f"duplicate site {site} in Pauli term")
        seen.add(site)
        ops[site] = PAULIS[label]
    return coeff * kron_all(ops)


def single_site_paulis(n, sites=None):
    """All single-site Pauli operators on the given sites (default: every site)."""
    if sites is None:
        sites = range(n)
    return [pauli_string_matrix(n, [(s, lab)]) for s in sites for lab in PAULI_LABELS]


def qubit_permutation(n, order):
    """Permutation matrix P so that P H P^dag has factor k = old site order[k].

    ``order`` must be a permutation of range(n).
    """
    if sorted(order) != list(range(n)):
        raise ValueError("order must be a permutation of range(n)")
    dim = 2**n
    idx = np.arange(dim)
    new_idx = np.zeros(dim, dtype=np.int64)
    for k, s in enumerate(order):
        bit = (idx >> (n - 1 - s)) & 1
        new_idx |= bit << (n - 1 - k)
    P = np.zeros((dim, dim), dtype=complex)
    P[new_idx, idx] = 1.0
    return P
