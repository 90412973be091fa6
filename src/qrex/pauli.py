"""Pauli matrices, Pauli strings, and qubit-index bookkeeping.

Conventions used throughout the package:
  * site 0 is the most significant tensor factor, so a basis index b
    carries the bit of site s at position (n - 1 - s);
  * operator vectorization is column-stacking, vec(A X B) = (B^T (x) A) vec(X).
"""

from functools import lru_cache

import numpy as np

from .lindblad import Triplets

I2 = np.eye(2, dtype=complex)
X = np.array([[0.0, 1.0], [1.0, 0.0]], dtype=complex)
Y = np.array([[0.0, -1.0j], [1.0j, 0.0]], dtype=complex)
Z = np.array([[1.0, 0.0], [0.0, -1.0]], dtype=complex)

PAULIS = {"I": I2, "X": X, "Y": Y, "Z": Z}
PAULI_LABELS = ("X", "Y", "Z")


def pauli_string(n, factors, coeff=1.0):
    """coeff * prod_(site,label) P_label on n qubits as ``Triplets``: its d = 2^n nonzeros.

    ``factors`` is an iterable of (site, label) pairs with distinct sites.
    The string maps |b> to phase(b) |b ^ flip>: X and Y flip the bit of
    their site, Y and Z multiply by (-1)^bit, and each Y by i.  So row r
    holds one entry, coeff * phase(r ^ flip) in column r ^ flip, complex.
    """
    flip = sign = n_y = 0
    seen = set()
    for site, label in factors:
        if not 0 <= site < n:
            raise ValueError(f"site index {site} out of range for n={n}")
        if site in seen:
            raise ValueError(f"duplicate site {site} in Pauli term")
        if label not in PAULIS:
            raise KeyError(label)
        seen.add(site)
        bit = 1 << (n - 1 - site)
        flip |= bit if label in "XY" else 0
        sign |= bit if label in "YZ" else 0
        n_y += label == "Y"
    row = np.arange(2**n, dtype=np.int32)
    col = row ^ flip
    odd = np.zeros(row.size, dtype=np.int32)  # parity of the bits of col under sign
    for k in (k for k in range(n) if sign >> k & 1):
        odd ^= (col >> k) & 1
    phase = (1, 1j, -1, -1j)[n_y % 4] * (1.0 - 2.0 * odd)
    return Triplets(row, col, (coeff * phase).astype(complex), row.size)


@lru_cache(maxsize=None)
def single_site_paulis(n, sites=None):
    """All single-site Pauli operators on the given sites (default: every site; a tuple or range),
    as a tuple of ``Triplets`` made once per (n, sites) and shared: their arrays are read-only."""
    sites = range(n) if sites is None else sites
    out = tuple(pauli_string(n, [(s, lab)]) for s in sites for lab in PAULI_LABELS)
    for S in out:
        S.row.flags.writeable = S.col.flags.writeable = S.val.flags.writeable = False
    return out


def qubit_permutation(n, order):
    """Index array p of the site reordering that puts old site order[k] at factor k.

    With P the permutation matrix of the reordering, P x = x[p] and
    P H P^dag = H[p][:, p]; Y = P^dag X is the scatter Y[p] = X.
    ``order`` must be a permutation of range(n).
    """
    if sorted(order) != list(range(n)):
        raise ValueError("order must be a permutation of range(n)")
    idx = np.arange(2**n)
    p = np.zeros(idx.size, dtype=np.int64)
    for k, s in enumerate(order):
        p |= ((idx >> (n - 1 - k)) & 1) << (n - 1 - s)
    return p
