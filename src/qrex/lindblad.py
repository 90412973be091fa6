"""Detailed-balanced Gibbs-sampling Lindbladians in the energy eigenbasis.

The generator acts on observables (Heisenberg picture) as

    L(X) = i[G, X] + sum_a sum_{v1,v2} alpha(v1,v2)
           ( S_{v1}^dag X S_{v2} - 1/2 {S_{v2}^dag S_{v1}, X} ),

where S_v are the energy-resolved jump components of each coupling operator,
alpha is the weighted overlap of two shifted Gaussian filters, and G is the
coherent (Lamb-shift-like) term with the tanh kernel.  The frequency
integral never appears at superoperator level: it collapses analytically to
the finite alpha table over Bohr-frequency pairs, whose entries have closed
forms for both weights (alpha_coeff).  States evolve under the
Hilbert-Schmidt adjoint L^dag (Superoperator.apply_adjoint).

A Superoperator carries the GibbsState its generator is detailed balanced
for, and stores the generator as ``Triplets`` (made by ``canonical``) in the
operator basis where that state is diagonal: in the eigenbasis every entry
comes from one pair of nonzero coupling entries, so build_ckg_generator
never forms a dense d^2 x d^2 array, and attaches gibbs_state(es, w.beta).
A GibbsState is its weights in its basis; the dense sigma is formed only on
first use.  No computational-basis matrix is formed; the dense rotation out
of the stored basis is a test oracle.

Vectorization is column-stacking throughout: vec(A X B) = (B^T (x) A) vec(X).
"""

import math
from dataclasses import dataclass
from functools import cached_property

import numpy as np
# numpy loads random on first use: keep that in set-up.  numpy.ma, which np.unique loads
# for its masked-array check, and numpy.polynomial stay unloaded (distinct, GL_NODES)
from numpy import random  # noqa: F401

BOHR_GROUP_TOL = 1e-9
# the transition weights gamma(omega) a WeightFunction can be
WEIGHT_KINDS = ("metropolis", "gaussian")
QUAD_ABS_TOL = 1e-12
# alpha_quadrature evaluates its composite rule at both panel counts and
# raises when they differ by more than QUAD_ABS_TOL
QUAD_PANELS = 32
QUAD_PANELS_FINE = 64
# points per chunk of alpha_quadrature: a chunk's node array holds
# QUAD_CHUNK * 2 * QUAD_PANELS_FINE * 15 floats (240 KB), and the rule holds three
QUAD_CHUNK = 16
# entries of the coupling products C that build_ckg_generator holds densely at once
PRODUCT_CHUNK = 2**20
# the 15-point Gauss-Legendre rule on [-1, 1], bitwise numpy's leggauss(15)
GL_NODES = np.array([
    -0.9879925180204854, -0.9372733924007058, -0.8482065834104272, -0.7244177313601701,
    -0.5709721726085388, -0.3941513470775634, -0.20119409399743451, 0.0, 0.20119409399743451,
    0.3941513470775634, 0.5709721726085388, 0.7244177313601701, 0.8482065834104272,
    0.9372733924007058, 0.9879925180204854])
GL_WEIGHTS = np.array([
    0.030753241996117203, 0.0703660474881084, 0.10715922046717141, 0.13957067792615444,
    0.16626920581699398, 0.1861610000155622, 0.1984314853271116, 0.2025782419255613,
    0.1984314853271116, 0.1861610000155622, 0.16626920581699398, 0.13957067792615444,
    0.10715922046717141, 0.0703660474881084, 0.030753241996117203])


def vec(X):
    return np.asarray(X).reshape(-1, order="F")


def unvec(v):
    d = int(round(np.sqrt(v.size)))
    return v.reshape((d, d), order="F")


def distinct(a):
    """np.unique(a) of an integer array, without the masked-array check that loads numpy.ma."""
    a = np.sort(a, axis=None)
    keep = np.ones(a.size, dtype=bool)
    keep[1:] = a[1:] != a[:-1]  # the first of each run of equal values
    return a[keep]


def _csum(index, values, size):  # out[k] = sum of the complex values at index k, k < size
    return np.bincount(index, values.real, size) + 1j * np.bincount(index, values.imag, size)


class Triplets:
    """Square sparse matrix: entry e is val[e] at (row[e], col[e]) of a side x side matrix.

    Sorted by (row, col), each position once, no exact zeros; made by ``canonical``,
    whose ``val`` is float64 when every entry is real and complex128 otherwise.
    ``paired`` marks a matrix on the vec indices r = i + d j of d x d
    operators with A[T r, T c] = conj(A[r, c]) under the transpose map
    T(i + d j) = j + d i, as the L_hat of ``spectral.symmetrize`` has;
    ``spectral.block_eigh`` then solves one block of each conjugate pair.
    """

    def __init__(self, row, col, val, side, paired=False):
        self.row, self.col, self.val, self.side = row, col, val, side
        self.shape, self.nnz, self.paired = (side, side), val.size, paired

    @classmethod
    def of(cls, A):
        """The nonzero entries of the dense square A, in row-major order."""
        A = np.asarray(A)
        if A.ndim != 2 or A.shape[0] != A.shape[1]:
            raise ValueError(f"matrix of shape {A.shape} is not square")
        row, col = np.nonzero(A)
        return cls(row.astype(np.int32), col.astype(np.int32), A[row, col], A.shape[0])

    def toarray(self):
        out = np.zeros(self.shape, dtype=self.val.dtype)
        out[self.row, self.col] = self.val
        return out

    def __matmul__(self, x):  # the matrix times the vector x
        return _csum(self.row, self.val * x[self.col], self.side)

    def __neg__(self):
        return Triplets(self.row, self.col, -self.val, self.side, self.paired)

    def restrict(self, keep):
        """Principal submatrix on the indices where the mask ``keep`` holds, numbered in order."""
        new, e = np.cumsum(keep, dtype=np.int32) - 1, keep[self.row] & keep[self.col]
        return Triplets(new[self.row[e]], new[self.col[e]], self.val[e], int(keep.sum()))


def canonical(row, col, val, side):
    """Triplets of the side x side matrix with entries val[e] at (row[e], col[e]).

    The one kernel every producer of a sparse generator goes through: entries
    are stably sorted by (row, col), each run of duplicates is summed in input
    order and exact zeros are dropped.  Complex sums whose imaginary parts are
    all exactly 0 are stored as their float64 real parts, which loses nothing:
    every downstream stage (``spectral.symmetrize``, ``spectral.block_eigh``,
    the propagation of ``mixing``) then runs in real arithmetic.
    """
    key = np.multiply(row, side, dtype=np.int64) + col
    order = np.argsort(key, kind="stable")
    key, val = key[order], val[order]
    del order
    new = np.ones(key.size, dtype=bool)  # the first entry of each run
    new[1:] = key[1:] != key[:-1]
    start = np.flatnonzero(new)
    total = np.zeros(start.size, dtype=val.dtype)
    np.add.at(total, np.cumsum(new) - 1, val)
    keep = total != 0
    row, col = np.divmod(key[start[keep]], side)
    real = np.iscomplexobj(total) and not total.imag.any()
    return Triplets(row.astype(np.int32), col.astype(np.int32),
                    total.real[keep] if real else total[keep], side)


def add(*parts):
    """The canonical sum of Triplets of one side."""
    row, col, val = (np.concatenate([getattr(p, f) for p in parts]) for f in ("row", "col", "val"))
    return canonical(row, col, val, parts[0].side)


@dataclass
class Eigensystem:
    """Eigenpairs of a Hermitian H: ``eigenvalues[i]`` belongs to column i of ``eigenvectors``."""

    eigenvalues: np.ndarray
    eigenvectors: np.ndarray

    @property
    def dim(self):
        return self.eigenvalues.size

    @cached_property
    def permutation(self):
        """(i, u) where U = eigenvectors holds one nonzero per row, row k's u[k] in column
        i[k]: a permutation with phases, as the ring's bases are; else None."""
        k, i = np.nonzero(self.eigenvectors)
        return (i, self.eigenvectors[k, i]) if np.array_equal(k, np.arange(self.dim)) else None


@dataclass(frozen=True)
class WeightFunction:
    """Transition weight gamma(omega): 'gaussian' or 'metropolis' at inverse temperature beta."""

    kind: str
    beta: float

    def __post_init__(self):
        if self.kind not in WEIGHT_KINDS:
            raise ValueError(f"unknown weight kind {self.kind!r}")
        if not (np.isfinite(self.beta) and self.beta > 0):
            raise ValueError("beta must be positive and finite")


@dataclass
class GibbsState:
    """Thermal state sigma = U diag(weights) U^dag at inverse temperature beta.

    ``basis`` is the unitary U it is diagonal in and ``weights`` are its
    eigenvalues in the column order of U; they sum to one.  Every function
    of sigma that the library needs is a function of ``weights`` in that
    basis; the dense ``sigma`` is formed on first use.
    """

    weights: np.ndarray
    basis: np.ndarray
    beta: float

    def __post_init__(self):
        self.beta = float(self.beta)

    @cached_property
    def sigma(self):
        U = self.basis
        sigma = (U * self.weights) @ U.conj().T
        return 0.5 * (sigma + sigma.conj().T)

    @property
    def lambda_min(self):
        return float(self.weights.min())

    @property
    def eigenvectors(self):
        """Columns of ``basis`` in ascending order of their weights."""
        return self.basis[:, np.argsort(self.weights)]

    @property
    def dim(self):
        return self.weights.size


class Superoperator:
    """Sparse matrix of a generator L acting on column-stacked observables.

    ``sigma`` is the GibbsState L is detailed balanced for, and the matrix
    is stored as canonical ``Triplets`` (dense input is converted) in the
    operator basis {U e_i e_j^T U^dag} of U = sigma.basis, where sigma is
    diagonal: ``local`` is the matrix of X -> U^dag L(U X U^dag) U.
    ``apply_adjoint`` is the Schrodinger action on states, the
    Hilbert-Schmidt adjoint of the action on observables.
    """

    def __init__(self, local, sigma: GibbsState):
        local = local if isinstance(local, Triplets) else Triplets.of(local)
        d = int(round(np.sqrt(local.side)))
        if d * d != local.side:
            raise ValueError(f"superoperator matrix of shape {local.shape} is not d^2 x d^2")
        if sigma.basis.shape != (d, d):
            raise ValueError(f"Gibbs state basis of shape {sigma.basis.shape} does not match "
                             f"operator dimension {d}")
        self.local = local
        self.sigma = sigma

    @property
    def basis(self):
        return self.sigma.basis

    @property
    def dim(self):
        return self.sigma.dim

    def to_basis(self, X):
        """Coordinates U^dag X U of an operator in the stored basis."""
        return self.basis.conj().T @ np.asarray(X) @ self.basis

    def from_basis(self, Y):
        """The operator U Y U^dag with coordinates Y in the stored basis."""
        return self.basis @ Y @ self.basis.conj().T

    def apply_adjoint(self, rho):
        """L^dag(rho): entry (r, c) of the stored matrix adds conj(val) v[r] to output c."""
        v, A = vec(self.to_basis(rho)), self.local
        return self.from_basis(unvec(_csum(A.col, A.val.conj() * v[A.row], A.side)))


def eigensystem(H) -> Eigensystem:
    """Diagonalize the Hermitian H (dense or ``Triplets``) by the blocks of its nonzero pattern.

    A diagonal H gets U = I and its diagonal, in computational order, with no
    eigensolve.  Otherwise ``spectral.block_eigh`` solves each block, in real
    arithmetic for a real H, its eigenvectors filling U on the block's indices,
    and a residual ||H_b V - V diag(w)|| over the blocks above 1e-11 ||H|| is a
    ValueError.  A basis that mixes no blocks of H keeps L_hat as sparse as H allows.
    """
    from .spectral import block_eigh  # spectral imports this module

    H = H if isinstance(H, Triplets) else Triplets.of(H)
    lam = np.zeros(H.side)
    if np.array_equal(H.row, H.col):
        lam[H.row] = H.val.real
        return Eigensystem(lam, np.eye(H.side))
    U, dense, sq = np.zeros(H.shape, dtype=H.val.dtype), H.toarray(), 0.0
    for idx, w, V, _ in block_eigh(H):
        block = idx[:, :, None], idx[:, None, :]
        lam[idx], U[block] = w, V
        sq += np.linalg.norm(dense[block] @ V - V * w[:, None, :]) ** 2
    if (resid := math.sqrt(sq)) > 1e-11 * max(1.0, float(np.abs(lam).max())):  # ||H||_2
        raise ValueError(f"eigensolver residual {resid:.2e} too large")
    return Eigensystem(lam, U)


def group_frequencies(nu, scale):
    """Bohr groups of the frequencies ``nu``: (the groups' values, ascending; each nu's group).

    Sorted neighbours within BOHR_GROUP_TOL * max(1, scale), scale the norm
    max |lam| of the Hamiltonian, chain into one group, and a group's value
    is the mean of its members.  0 joins the chain whether or not it is
    among ``nu``, and the group holding it is exactly 0.0.
    """
    tol = BOHR_GROUP_TOL * max(1.0, scale)
    nu = np.append(nu, 0.0)
    order = np.argsort(nu, kind="stable")
    gid = np.empty(nu.size, dtype=np.int64)
    # a new group starts wherever consecutive sorted frequencies exceed tol
    gid[order] = np.concatenate(([0], np.cumsum(np.diff(nu[order]) > tol)))
    count = np.bincount(gid)
    values = np.bincount(gid, weights=nu) / count
    values[gid[-1]] = 0.0
    count[gid[-1]] -= 1  # the appended 0 is no member: its group goes if it has no other
    keep = count > 0
    return values[keep], (np.cumsum(keep) - 1)[gid[:-1]]


def gibbs_state(es: Eigensystem, beta: float) -> GibbsState:
    """sigma = exp(-beta H) / Z from a precomputed eigensystem, diagonal in its eigenvectors."""
    if not (np.isfinite(beta) and beta >= 0):
        raise ValueError("beta must be finite and non-negative")
    w = np.exp(-beta * (es.eigenvalues - es.eigenvalues.min()))
    return GibbsState(w / w.sum(), es.eigenvectors, beta)


def erfc(x):
    """Complementary error function, elementwise through ``math.erfc``."""
    return np.asarray(np.frompyfunc(math.erfc, 1, 1)(np.asarray(x, dtype=float)), dtype=float)


def theta(x):
    """Metropolis-weighted filter overlap as a function of x = beta * omega.

    theta(x) = 1/2 [ erfc((1+2x)/(2 sqrt 2)) + e^{-x} erfc((1-2x)/(2 sqrt 2)) ].
    Where the second erfc underflows (x < -37) that term is below 1e-290
    against a first term near 2, and where e^{-x} would overflow the erfc
    is exactly zero: the exponent capped at 700 keeps the product finite.
    """
    x = np.asarray(x, dtype=float)
    v = (1.0 + 2.0 * x) / (2.0 * np.sqrt(2.0))
    u = (1.0 - 2.0 * x) / (2.0 * np.sqrt(2.0))
    out = 0.5 * (erfc(v) + np.exp(np.minimum(-x, 700.0)) * erfc(u))
    return out if out.ndim else float(out)


def alpha_coeff(nu1, nu2, w: WeightFunction):
    """alpha(v1, v2) = int gamma(w) f^(w - v1) f^(w - v2) dw in closed form.

    Completing the square in the two filters leaves exp(-beta^2 (v1-v2)^2/8)
    times the diagonal value at the midpoint x = beta (v1+v2)/2, which is
    2^{-1/2} exp(-(x+1)^2/4) for the Gaussian weight and theta(x) for the
    Metropolis weight (Chen-Kastoryano-Gilyen, arXiv:2311.09207).  Accepts
    scalars or broadcastable arrays.
    """
    nu1 = np.asarray(nu1, dtype=float)
    nu2 = np.asarray(nu2, dtype=float)
    b = w.beta
    x = 0.5 * b * (nu1 + nu2)
    mid = np.exp(-((x + 1.0) ** 2) / 4.0) / np.sqrt(2.0) if w.kind == "gaussian" else theta(x)
    out = np.exp(-(b**2) * (nu1 - nu2) ** 2 / 8.0) * mid
    return out if out.ndim else float(out)


def alpha_table(nus, w: WeightFunction):
    """The table alpha(nus[a], nus[b]), evaluated on one triangle: alpha is symmetric."""
    i, j = np.triu_indices(nus.size)
    table = np.empty((nus.size, nus.size))
    table[i, j] = table[j, i] = alpha_coeff(nus[i], nus[j], w)
    return table


def alpha_integrand(nodes, v1, v2, w: WeightFunction):
    """gamma(x) f^(x - v1) f^(x - v2) at the nodes x of the (points, panels, 15) cube
    ``nodes``, point p at v1[p], v2[p]: one exp of the summed exponents, which are
    formed in place in two arrays of the cube's size."""
    b = w.beta
    total, other = nodes - v1[:, None, None], nodes - v2[:, None, None]
    total *= total
    other *= other
    total += other
    total *= -(b * b) / 4.0  # the two filters' exponents
    if w.kind == "gaussian":  # the weight's exponent is -(beta x + 1)^2 / 2
        np.multiply(nodes, b, out=other)
        other += 1.0
        other *= other
        other *= 0.5
    else:  # and -beta max(x + 1/(2 beta), 0) for the Metropolis weight
        np.add(nodes, 0.5 / b, out=other)
        np.maximum(other, 0.0, out=other)
        other *= b
    total -= other
    np.exp(total, out=total)
    total *= b / np.sqrt(2.0 * np.pi)  # the filters' prefactors
    return total


def alpha_quadrature(nu1, nu2, w: WeightFunction):
    """alpha(v1, v2) by numerical quadrature: the independent check of alpha_coeff.

    A composite 15-point Gauss-Legendre rule over [min(v) - 12/beta,
    max(v) + 12/beta], split at the Metropolis kink w = -1/(2 beta) when it
    lies inside, with QUAD_PANELS and QUAD_PANELS_FINE equal panels on each
    piece.  Returns the finer result; raises RuntimeError when the two differ
    by more than QUAD_ABS_TOL.  Vectorized over broadcastable arrays, whose
    points are integrated QUAD_CHUNK at a time, by ``alpha_integrand``.
    """
    nu1, nu2 = np.broadcast_arrays(np.asarray(nu1, dtype=float), np.asarray(nu2, dtype=float))
    b = w.beta

    def rule(v1, v2, panels):
        lo = np.minimum(v1, v2)[:, None] - 12.0 / b
        hi = np.maximum(v1, v2)[:, None] + 12.0 / b
        cut = np.clip(-0.5 / b, lo, hi) if w.kind == "metropolis" else hi
        t = np.linspace(0.0, 1.0, panels + 1)
        edges = np.concatenate([lo + (cut - lo) * t, cut + (hi - cut) * t[1:]], axis=-1)
        half = 0.5 * np.diff(edges, axis=-1)  # [points, 2 * panels]
        nodes = (edges[:, :-1] + half)[..., None] + half[..., None] * GL_NODES
        return np.sum(half * (alpha_integrand(nodes, v1, v2, w) @ GL_WEIGHTS), axis=-1)

    v1, v2 = nu1.reshape(-1), nu2.reshape(-1)
    coarse, fine = np.empty(v1.size), np.empty(v1.size)
    for s in range(0, v1.size, QUAD_CHUNK):
        part = slice(s, s + QUAD_CHUNK)
        coarse[part] = rule(v1[part], v2[part], QUAD_PANELS)
        fine[part] = rule(v1[part], v2[part], QUAD_PANELS_FINE)
    err = float(np.max(np.abs(fine - coarse), initial=0.0))
    if err > QUAD_ABS_TOL:
        raise RuntimeError(f"alpha quadrature did not converge: {QUAD_PANELS} and "
                           f"{QUAD_PANELS_FINE} panels differ by {err:.2e}")
    fine = fine.reshape(nu1.shape)
    return fine if fine.ndim else float(fine)


def eigenbasis_entries(S, es: Eigensystem):
    """Positions k*d + i and values of the entries of U^dag S U (U = es.eigenvectors, S
    ``Triplets``) above 1e-13 of the largest magnitude.

    These are the coupling entries the generator assembly uses: only the
    Bohr groups of the kept entries enter its alpha table.  Where U is a
    permutation with phases (``Eigensystem.permutation``) each entry of S
    moves to one place, scaled by two phases; otherwise two dense products.
    """
    if es.permutation is None:
        U = es.eigenvectors
        p = np.flatnonzero(s := (U.conj().T @ S.toarray() @ U).reshape(-1))
        s = s[p]
    else:
        i, u = es.permutation
        p, s = i[S.row] * es.dim + i[S.col], u[S.row].conj() * S.val * u[S.col]
    keep = np.abs(s) > 1e-13 * max(np.abs(s).max(initial=0.0), 1e-300)
    return p[keep], s[keep]


def _coupling_products(entries, size):
    """The nonzero entries (kd, ld, C[kd, ld]) of C = sum_a conj(s_a) s_a^T, a chunk at a time.

    ``entries`` holds the nonempty positions p < size and values s of each
    coupling.  Couplings whose positions intersect form a cluster, whose C
    is the dense product W^dag W of its couplings on the union of their
    positions, formed PRODUCT_CHUNK entries at a time.
    """
    owner = np.full(size, -1)  # the cluster holding each position, named by its last coupling
    clusters = {}
    for a, (p, _) in enumerate(entries):
        hit = distinct(owner[p])
        clusters[a] = [a] + [m for h in hit[hit >= 0].tolist() for m in clusters.pop(h)]
        for m in clusters[a]:
            owner[entries[m][0]] = a
    for members in clusters.values():
        P = distinct(np.concatenate([entries[m][0] for m in members]))
        W = np.zeros((len(members), P.size), dtype=complex)  # the cluster's couplings on P
        for w, m in zip(W, members):
            w[np.searchsorted(P, entries[m][0])] = entries[m][1]
        step = max(1, PRODUCT_CHUNK // P.size)
        for start in range(0, P.size, step):
            part = W[:, start:start + step].conj().T @ W
            r, c = np.nonzero(part)
            yield P[start + r], P[c], part[r, c]


def build_ckg_generator(es: Eigensystem, couplings, w: WeightFunction):
    """Assemble the detailed-balanced generator for (H, couplings, gamma) from es, H's eigensystem.

    Returns the generator on observables as a Superoperator stored in the
    eigenbasis es.eigenvectors, where it is assembled, with its Gibbs state
    gibbs_state(es, w.beta).  The generator does not depend on the basis
    chosen inside a degenerate eigenspace (arXiv:2311.09207), so any
    eigenbasis of H serves.  Couplings are ``Triplets`` (a dense matrix is
    converted) of H's dimension; hermiticity is not required.  The
    double Bohr sum is evaluated element-wise in the eigenbasis:

      (L_diss X)_{ij} = sum_{kl} alpha(nu_ki, nu_lj) conj(S_ki) X_kl S_lj - ...

    and only depends on the couplings through the coupling-summed products
    C[(k,i),(l,j)] = sum_a conj(S_a[k,i]) S_a[l,j], formed over the nonzero
    coupling entries by ``_coupling_products``.  Each nonzero entry of C is
    one sandwich entry, at row i + d*j and column k + d*l; the k = l
    entries also make the anticommutator and coherent cores.
    """
    d = es.dim
    couplings = [S if isinstance(S, Triplets) else Triplets.of(S) for S in couplings]
    if any(S.side != d for S in couplings):
        raise ValueError("coupling dimension does not match the Hamiltonian")
    sigma = gibbs_state(es, w.beta)

    # couplings in the eigenbasis: positions k*d + i of the nonzero entries, and their values
    rotated = (eigenbasis_entries(S, es) for S in couplings)
    entries = [(p.astype(np.int32), s) for p, s in rotated if p.size]
    # the alpha table over the Bohr groups of nu_ki = lam[k] - lam[i] at the nonzero entries
    used = distinct(np.concatenate([p for p, _ in entries] + [np.zeros(0, np.int32)]))
    lam = es.eigenvalues
    nus, group = group_frequencies(lam[used // d] - lam[used % d], float(np.abs(lam).max()))
    table = alpha_table(nus, w)
    slot = np.zeros(d * d, dtype=np.int32)  # alpha-table slot of nu_ki at k*d + i
    slot[used] = group
    Ktab = (np.tanh(-w.beta * (nus[:, None] - nus[None, :]) / 4.0) / 2.0j) * table

    # the anticommutator and coherent cores come from the k = l entries:
    # N[i,j] = sum_k alpha[g(k,i), g(k,j)] C[(k,i),(k,j)], G likewise with
    # Ktab[g(k,j), g(k,i)]; M = -N/2 + iG and M2 = -N/2 - iG at cell i + d*j
    parts = []  # (rows, cols, values) of the generator's entries
    cores = [(np.zeros(0, np.int32),) * 2 + (np.zeros(0, complex),) * 2]  # (kd, cell, N, G) terms
    for kd, ld, c_val in _coupling_products(entries, d * d):  # k*d + i, l*d + j, C
        on = kd // d == ld // d
        a_on, b_on = slot[kd[on]], slot[ld[on]]
        cores.append((kd[on], kd[on] % d + d * (ld[on] % d), table[a_on, b_on] * c_val[on],
                      Ktab[b_on, a_on] * c_val[on]))
        parts.append((kd % d + d * (ld % d), kd // d + d * (ld // d),
                      table[slot[kd], slot[ld]] * c_val))
    kd, cell, n_val, g_val = map(np.concatenate, zip(*cores))
    # each cell is summed over k in ascending order, as a row-by-row sparse product sums
    # it: the small ring gaps (1e-4 against a norm of 10) resolve any other rounding
    by_k = np.argsort(kd, kind="stable")
    cell, n_val, g_val = cell[by_k], n_val[by_k], g_val[by_k]
    M = _csum(cell, -0.5 * n_val + 1j * g_val, d * d)
    M2 = _csum(cell, -0.5 * n_val - 1j * g_val, d * d)
    # -1/2 {N, X} + i [G, X] = M X + X M2: kron(Id, M) puts M[i, j] at
    # (i + d*t, j + d*t) and kron(M2^T, Id) puts M2[i, j] at (t + d*j, t + d*i)
    cells = np.flatnonzero((M != 0) | (M2 != 0)).astype(np.int32)
    ci, cj = cells % d, cells // d
    t = np.arange(d, dtype=np.int32)
    parts += [((ci[:, None] + d * t).ravel(), (cj[:, None] + d * t).ravel(), M[cells].repeat(d)),
              ((t + d * cj[:, None]).ravel(), (t + d * ci[:, None]).ravel(), M2[cells].repeat(d))]
    parts = [np.concatenate(x) for x in zip(*parts)]  # the pieces are dropped once joined
    return Superoperator(canonical(*parts, d * d), sigma)
