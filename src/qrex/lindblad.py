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

Generators are stored as sparse CSR matrices in an operator basis that the
Superoperator carries, always one where the Gibbs state is diagonal: in the
eigenbasis every entry comes from one pair of nonzero coupling entries, so
build_ckg_generator assembles them as COO triplets and never forms a dense
d^2 x d^2 array.  No computational-basis matrix is formed; the dense
rotation out of the stored basis is a test oracle.

Vectorization is column-stacking throughout: vec(A X B) = (B^T (x) A) vec(X).
"""

from dataclasses import dataclass

import numpy as np
from scipy import sparse
from scipy.special import erfc, erfcx

BOHR_GROUP_TOL = 1e-9
QUAD_ABS_TOL = 1e-12
# alpha_quadrature evaluates its composite rule at both panel counts and
# raises when they differ by more than QUAD_ABS_TOL
QUAD_PANELS = 32
QUAD_PANELS_FINE = 64
# points per chunk of alpha_quadrature: a chunk's node array holds
# QUAD_CHUNK * 2 * QUAD_PANELS_FINE * 15 floats
QUAD_CHUNK = 64


def vec(X):
    return np.asarray(X).reshape(-1, order="F")


def unvec(v):
    d = int(round(np.sqrt(v.size)))
    return v.reshape((d, d), order="F")


@dataclass
class Eigensystem:
    """Eigendecomposition plus the grouped Bohr-frequency structure.

    ``eigenvalues[i]`` belongs to column i of ``eigenvectors`` (ascending when
    built by ``eigensystem``).  ``bohr`` holds one representative per group
    (the group containing zero is pinned to exactly 0.0); ``gid[i, j]`` is the
    group index of eigenvalues[i] - eigenvalues[j].
    """

    eigenvalues: np.ndarray
    eigenvectors: np.ndarray
    bohr: np.ndarray
    gid: np.ndarray

    @property
    def dim(self):
        return self.eigenvalues.size


@dataclass(frozen=True)
class WeightFunction:
    """Transition weight gamma(omega): 'gaussian' or 'metropolis' at inverse temperature beta."""

    kind: str
    beta: float

    def __post_init__(self):
        if self.kind not in ("gaussian", "metropolis"):
            raise ValueError(f"unknown weight kind {self.kind!r}")
        if not (np.isfinite(self.beta) and self.beta > 0):
            raise ValueError("beta must be positive and finite")


@dataclass
class GibbsState:
    """Thermal state sigma = U diag(weights) U^dag.

    ``basis`` is the unitary U it was built diagonal in and ``weights`` are
    its eigenvalues in the column order of U.  Every function of sigma that
    the library needs is a function of ``weights`` in that basis.
    """

    sigma: np.ndarray
    beta: float
    weights: np.ndarray
    basis: np.ndarray

    @property
    def lambda_min(self):
        return float(self.weights.min())

    @property
    def eigenvectors(self):
        """Columns of ``basis`` in ascending order of their weights."""
        return self.basis[:, np.argsort(self.weights)]

    @property
    def dim(self):
        return self.sigma.shape[0]


class Superoperator:
    """Sparse matrix of a generator L acting on column-stacked observables.

    The matrix is stored as a CSR array (dense input is converted) in the
    operator basis {U e_i e_j^T U^dag} of the unitary ``basis`` U: ``local``
    is the matrix of X -> U^dag L(U X U^dag) U.  Every builder stores its
    generator in a basis where its Gibbs state is diagonal, the one basis
    ``spectral.symmetrize`` accepts.  ``apply`` is the action on observables
    and ``apply_adjoint`` the Schrodinger action on states, its
    Hilbert-Schmidt adjoint.
    """

    def __init__(self, local, basis):
        local = sparse.csr_array(local)
        side = local.shape[0]
        d = int(round(np.sqrt(side)))
        if local.shape != (side, side) or d * d != side:
            raise ValueError(f"superoperator matrix of shape {local.shape} is not d^2 x d^2")
        if np.shape(basis) != (d, d):
            raise ValueError(f"basis of shape {np.shape(basis)} does not match operator "
                             f"dimension {d}")
        self.local = local
        self.basis = basis

    @property
    def dim(self):
        return int(round(np.sqrt(self.local.shape[0])))

    def to_basis(self, X):
        """Coordinates U^dag X U of an operator in the stored basis."""
        return self.basis.conj().T @ np.asarray(X) @ self.basis

    def from_basis(self, Y):
        """The operator U Y U^dag with coordinates Y in the stored basis."""
        return self.basis @ Y @ self.basis.conj().T

    def apply(self, X):
        return self.from_basis(unvec(self.local @ vec(self.to_basis(X))))

    def apply_adjoint(self, rho):
        """L^dag(rho), as conj(conj(v) @ local): no conjugate transpose of the matrix is formed."""
        v = vec(self.to_basis(rho))
        return self.from_basis(unvec((v.conj() @ self.local).conj()))


def eigensystem(H) -> Eigensystem:
    """Diagonalize H and group its Bohr frequencies (see eigensystem_from_pairs)."""
    H = np.asarray(H, dtype=complex)
    lam, U = np.linalg.eigh(H)
    scale = max(1.0, float(np.abs(lam).max()))  # ||H||_2 of the Hermitian H
    resid = np.linalg.norm(U.conj().T @ H @ U - np.diag(lam))
    if resid > 1e-11 * scale:
        raise ValueError(f"eigensolver residual {resid:.2e} too large")
    return eigensystem_from_pairs(lam, U)


def eigensystem_from_pairs(lam, U) -> Eigensystem:
    """Eigensystem of known eigenpairs: column i of U has eigenvalue lam[i], any order.

    Two differences land in the same group iff they are within
    BOHR_GROUP_TOL * max(1, max |lam|) (max |lam| is the norm of the Hermitian
    matrix the pairs diagonalize) after transitive chaining of the sorted gaps.
    """
    lam = np.asarray(lam, dtype=float)
    tol = BOHR_GROUP_TOL * max(1.0, float(np.abs(lam).max()))
    diffs = (lam[:, None] - lam[None, :]).reshape(-1)
    order = np.argsort(diffs, kind="stable")
    # a new group starts wherever consecutive sorted differences exceed tol
    group_of_sorted = np.concatenate(([0], np.cumsum(np.diff(diffs[order]) > tol)))
    gid_flat = np.empty(diffs.size, dtype=np.int64)
    gid_flat[order] = group_of_sorted
    reps = np.bincount(gid_flat, weights=diffs) / np.bincount(gid_flat)
    # the group holding the diagonal differences is exactly zero
    zero_gid = gid_flat[0]  # difference lam[0] - lam[0]
    reps[zero_gid] = 0.0
    d = lam.size
    return Eigensystem(
        eigenvalues=lam,
        eigenvectors=U,
        bohr=reps,
        gid=gid_flat.reshape(d, d),
    )


def gibbs_state(es: Eigensystem, beta: float) -> GibbsState:
    """sigma = exp(-beta H) / Z from a precomputed eigensystem, diagonal in its eigenvectors."""
    if not (np.isfinite(beta) and beta >= 0):
        raise ValueError("beta must be finite and non-negative")
    w = np.exp(-beta * (es.eigenvalues - es.eigenvalues.min()))
    return diagonal_gibbs_state(w / w.sum(), es.eigenvectors, beta)


def diagonal_gibbs_state(weights, U, beta) -> GibbsState:
    """The state U diag(weights) U^dag at inverse temperature beta; weights sum to one."""
    sigma = (U * weights) @ U.conj().T
    sigma = 0.5 * (sigma + sigma.conj().T)
    return GibbsState(sigma=sigma, beta=float(beta), weights=weights, basis=U)


def weight(omega, w: WeightFunction):
    """Evaluate gamma(omega); accepts scalars or arrays."""
    omega = np.asarray(omega, dtype=float)
    b = w.beta
    if w.kind == "gaussian":
        out = np.exp(-((b * omega + 1.0) ** 2) / 2.0)
    else:
        out = np.exp(-b * np.maximum(omega + 1.0 / (2.0 * b), 0.0))
    return out if out.ndim else float(out)


def filter_fhat(omega, beta):
    """Gaussian frequency filter f^(omega); normalized so int f^2 = 1."""
    omega = np.asarray(omega, dtype=float)
    out = np.sqrt(beta / np.sqrt(2.0 * np.pi)) * np.exp(-(beta**2) * omega**2 / 4.0)
    return out if out.ndim else float(out)


def theta(x):
    """Metropolis-weighted filter overlap as a function of x = beta * omega.

    theta(x) = 1/2 [ erfc((1+2x)/(2 sqrt 2)) + e^{-x} erfc((1-2x)/(2 sqrt 2)) ].
    The second term is evaluated through the scaled erfcx when its erfc
    underflows; the combined exponent -(u - 1/sqrt 2)^2 never overflows.
    """
    x = np.asarray(x, dtype=float)
    v = (1.0 + 2.0 * x) / (2.0 * np.sqrt(2.0))
    u = (1.0 - 2.0 * x) / (2.0 * np.sqrt(2.0))
    term1 = erfc(v)
    upos = np.maximum(u, 0.0)
    scaled = np.exp(-((upos - 1.0 / np.sqrt(2.0)) ** 2)) * erfcx(upos)
    with np.errstate(over="ignore", invalid="ignore"):
        naive = np.exp(-x) * erfc(u)
    term2 = np.where(u >= 0.0, scaled, naive)
    out = 0.5 * (term1 + term2)
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


def alpha_quadrature(nu1, nu2, w: WeightFunction):
    """alpha(v1, v2) by numerical quadrature: the independent check of alpha_coeff.

    A composite 15-point Gauss-Legendre rule over [min(v) - 12/beta,
    max(v) + 12/beta], split at the Metropolis kink w = -1/(2 beta) when it
    lies inside, with QUAD_PANELS and QUAD_PANELS_FINE equal panels on each
    piece.  Returns the finer result; raises RuntimeError when the two differ
    by more than QUAD_ABS_TOL.  Vectorized over broadcastable arrays, whose
    points are integrated QUAD_CHUNK at a time.
    """
    nu1, nu2 = np.broadcast_arrays(np.asarray(nu1, dtype=float), np.asarray(nu2, dtype=float))
    b = w.beta
    gl_nodes, gl_weights = np.polynomial.legendre.leggauss(15)

    def rule(v1, v2, panels):
        lo = np.minimum(v1, v2)[:, None] - 12.0 / b
        hi = np.maximum(v1, v2)[:, None] + 12.0 / b
        cut = np.clip(-0.5 / b, lo, hi) if w.kind == "metropolis" else hi
        t = np.linspace(0.0, 1.0, panels + 1)
        edges = np.concatenate([lo + (cut - lo) * t, cut + (hi - cut) * t[1:]], axis=-1)
        half = 0.5 * np.diff(edges, axis=-1)  # [points, 2 * panels]
        nodes = (edges[:, :-1] + half)[..., None] + half[..., None] * gl_nodes
        vals = weight(nodes, w) * filter_fhat(nodes - v1[:, None, None], b) \
            * filter_fhat(nodes - v2[:, None, None], b)
        return np.sum(half * (vals @ gl_weights), axis=-1)

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


def eigenbasis_entries(S, U):
    """U^dag S U with the entries at or below 1e-13 of its largest magnitude set to zero.

    These are the coupling entries the generator assembly uses: only the
    Bohr groups of the kept entries enter its alpha table.
    """
    St = U.conj().T @ np.asarray(S, dtype=complex) @ U
    cut = 1e-13 * max(np.abs(St).max(), 1e-300)
    return np.where(np.abs(St) > cut, St, 0.0)


def _alpha_table(groups, es: Eigensystem, w: WeightFunction):
    """Symmetric alpha matrix over the given Bohr group ids."""
    groups = sorted(groups)
    idx = {g: k for k, g in enumerate(groups)}
    nus = es.bohr[np.asarray(groups)]
    return idx, alpha_coeff(nus[:, None], nus[None, :], w)


def build_ckg_generator(es: Eigensystem, couplings, w: WeightFunction):
    """Assemble the detailed-balanced generator for (H, couplings, gamma) from es, H's eigensystem.

    Returns the generator on observables as a Superoperator stored in the
    eigenbasis es.eigenvectors, where it is assembled.  The generator does
    not depend on the basis chosen inside a degenerate eigenspace
    (arXiv:2311.09207), so any eigenbasis of H serves.  Couplings are square
    matrices of the same dimension as H; hermiticity is not required.  The
    double Bohr sum is evaluated element-wise in the eigenbasis:

      (L_diss X)_{ij} = sum_{kl} alpha(nu_ki, nu_lj) conj(S_ki) X_kl S_lj - ...

    and only depends on the couplings through the coupling-summed products
    C[(k,i),(l,j)] = sum_a conj(S_a[k,i]) S_a[l,j], one sparse product over
    the nonzero entries of the couplings.  Each stored entry of C is one
    sandwich entry, at row i + d*j and column k + d*l; the k = l entries
    also make the anticommutator and coherent cores.
    """
    d = es.dim
    for S in couplings:
        if np.asarray(S).shape != (d, d):
            raise ValueError("coupling dimension does not match the Hamiltonian")
    U = es.eigenvectors

    # couplings in the eigenbasis, one per row (entry (k, i) in column k*d + i)
    rows = [eigenbasis_entries(S, U).reshape(-1) for S in couplings]
    Sv = sparse.csr_array(np.reshape(rows, (len(rows), d * d)))
    if Sv.nnz == 0:
        return Superoperator(sparse.csr_array((d * d, d * d), dtype=complex), basis=U)
    gid = es.gid.reshape(-1)  # Bohr group of nu_ki at k*d + i
    idx, table = _alpha_table(np.unique(gid[Sv.indices]).tolist(), es, w)
    # each triplet array below is dropped once consumed: the working set stays
    # a few arrays of the length of C, with int32 indices while they fit
    itype = np.int32 if d * d < 2**31 else np.int64
    slot = np.zeros(es.bohr.size, dtype=itype)
    for g, s in idx.items():
        slot[g] = s
    slot = slot[gid]  # alpha-table slot of nu_ki at k*d + i
    nus = es.bohr[sorted(idx)]
    Ktab = (np.tanh(-w.beta * (nus[:, None] - nus[None, :]) / 4.0) / 2.0j) * table

    C = (Sv.conj().T @ Sv).tocoo()
    kd, ld = C.row.astype(itype, copy=False), C.col.astype(itype, copy=False)  # k*d + i, l*d + j
    c_val = C.data
    del C
    # anticommutator and coherent cores from the k = l entries:
    # N[i,j] = sum_k alpha[g(k,i), g(k,j)] C[(k,i),(k,j)], G likewise with Ktab[g(k,j), g(k,i)]
    on = np.nonzero(kd // d == ld // d)[0]
    a_on, b_on = slot[kd[on]], slot[ld[on]]
    cell = kd[on] % d + d * (ld[on] % d)
    used = np.unique(cell)
    ci, cj = used % d, used // d
    n_val = table[a_on, b_on] * c_val[on]
    g_val = Ktab[b_on, a_on] * c_val[on]

    def cell_sum(v):
        return (np.bincount(cell, v.real, d * d) + 1j * np.bincount(cell, v.imag, d * d))[used]

    M, M2 = cell_sum(-0.5 * n_val + 1j * g_val), cell_sum(-0.5 * n_val - 1j * g_val)
    # -1/2 {N, X} + i [G, X] = M X + X M2 with M = -N/2 + iG, M2 = -N/2 - iG:
    # kron(Id, M) puts M[i, j] at (i + d*t, j + d*t) and kron(M2^T, Id) puts
    # M2[i, j] at (t + d*j, t + d*i), for every t; one COO holds them and the
    # sandwich entry of C[(k,i),(l,j)] at row i + d*j, column k + d*l
    n_c, n_core = c_val.size, used.size * d
    val = np.empty(n_c + 2 * n_core, dtype=complex)
    np.multiply(table[slot[kd], slot[ld]], c_val, out=val[:n_c])
    val[n_c:n_c + n_core], val[n_c + n_core:] = np.repeat(M, d), np.repeat(M2, d)
    del c_val
    t = np.arange(d, dtype=itype)
    row = np.concatenate([kd % d + d * (ld % d), (ci[:, None] + d * t).ravel(),
                          (t + d * cj[:, None]).ravel()])
    col = np.concatenate([kd // d + d * (ld // d), (cj[:, None] + d * t).ravel(),
                          (t + d * ci[:, None]).ravel()])
    del kd, ld
    L = sparse.coo_array((val, (row, col)), shape=(d * d, d * d))
    del val, row, col
    L = L.tocsr()
    L.eliminate_zeros()
    return Superoperator(L, basis=U)
