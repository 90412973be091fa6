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

Vectorization is column-stacking throughout: vec(A X B) = (B^T (x) A) vec(X).
"""

from dataclasses import dataclass, field

import numpy as np
from scipy.special import erfc, erfcx

BOHR_GROUP_TOL = 1e-9
QUAD_ABS_TOL = 1e-12
# alpha_quadrature evaluates its composite rule at both panel counts and
# raises when they differ by more than QUAD_ABS_TOL
QUAD_PANELS = 32
QUAD_PANELS_FINE = 64


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
    group_tol: float

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
    """Thermal state sigma = U diag(weights) U^dag, with cached fractional powers.

    ``basis`` is the unitary U it was built diagonal in and ``weights`` are
    its eigenvalues in the column order of U.
    """

    sigma: np.ndarray
    beta: float
    weights: np.ndarray
    basis: np.ndarray
    _powers: dict = field(default_factory=dict)

    def power(self, p):
        key = round(float(p), 12)
        if key not in self._powers:
            self._powers[key] = (self.basis * self.weights**p) @ self.basis.conj().T
        return self._powers[key]

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


def congruence(M, P, R):
    """Matrix of X -> P^dag L(R^dag X R) P, where M is the matrix of L.

    That is kron(P^T, P^dag) @ M @ kron(R^T, R^dag), evaluated as four
    leg-wise contractions of M viewed as a [j, i, l, k] tensor (row i + d*j,
    column k + d*l): O(d^5) work against O(d^6) for the dense products.
    """
    d = P.shape[0]
    T = (P.T @ M.reshape(d, -1)).reshape(-1, d) @ R.conj().T  # [j, i', l', k]
    T = np.matmul(P.conj().T, T.reshape(d, d, d * d))  # [j, i, (l', k)]
    T = np.matmul(R, T.reshape(d * d, d, d))  # [(j, i), l, k]
    return T.reshape(d * d, d * d)


class Superoperator:
    """Dense matrix of a generator L acting on column-stacked observables.

    The matrix is stored in the operator basis {U e_i e_j^T U^dag} of a
    unitary ``basis`` U (None: the computational basis): ``local`` is the
    matrix of X -> U^dag L(U X U^dag) U.  ``matrix`` is the computational-basis
    matrix, computed on each access when a basis is set.  ``apply`` is the
    action on observables and ``apply_adjoint`` the Schrodinger action on
    states, its Hilbert-Schmidt adjoint.
    """

    def __init__(self, local, basis=None):
        side = local.shape[0]
        d = int(round(np.sqrt(side)))
        if local.shape != (side, side) or d * d != side:
            raise ValueError(f"superoperator matrix of shape {local.shape} is not d^2 x d^2")
        if basis is not None and np.shape(basis) != (d, d):
            raise ValueError(f"basis of shape {np.shape(basis)} does not match operator "
                             f"dimension {d}")
        self.local = local
        self.basis = basis

    @property
    def dim(self):
        return int(round(np.sqrt(self.local.shape[0])))

    @property
    def matrix(self):
        if self.basis is None:
            return self.local
        return congruence(self.local, self.basis.conj().T, self.basis)

    def to_basis(self, X):
        """Coordinates U^dag X U of an operator in the stored basis."""
        X = np.asarray(X)
        return X if self.basis is None else self.basis.conj().T @ X @ self.basis

    def from_basis(self, Y):
        """The operator U Y U^dag with coordinates Y in the stored basis."""
        return Y if self.basis is None else self.basis @ Y @ self.basis.conj().T

    def apply(self, X):
        return self.from_basis(unvec(self.local @ vec(self.to_basis(X))))

    def apply_adjoint(self, rho):
        """L^dag(rho), as conj(conj(v) @ local): no conjugate transpose of the matrix is formed."""
        v = vec(self.to_basis(rho))
        return self.from_basis(unvec((v.conj() @ self.local).conj()))


def eigensystem(H, group_tol=BOHR_GROUP_TOL) -> Eigensystem:
    """Diagonalize H and group its Bohr frequencies (see eigensystem_from_pairs)."""
    H = np.asarray(H, dtype=complex)
    lam, U = np.linalg.eigh(H)
    scale = max(1.0, float(np.abs(lam).max()))  # ||H||_2 of the Hermitian H
    resid = np.linalg.norm(U.conj().T @ H @ U - np.diag(lam))
    if resid > 1e-11 * scale:
        raise ValueError(f"eigensolver residual {resid:.2e} too large")
    return eigensystem_from_pairs(lam, U, group_tol)


def eigensystem_from_pairs(lam, U, group_tol=BOHR_GROUP_TOL) -> Eigensystem:
    """Eigensystem of known eigenpairs: column i of U has eigenvalue lam[i], any order.

    Two differences land in the same group iff they are within
    group_tol * max(1, max |lam|) (max |lam| is the norm of the Hermitian
    matrix the pairs diagonalize) after transitive chaining of the sorted gaps.
    """
    lam = np.asarray(lam, dtype=float)
    tol = group_tol * max(1.0, float(np.abs(lam).max()))
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
        group_tol=group_tol,
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
    by more than QUAD_ABS_TOL.  Vectorized over broadcastable arrays.
    """
    nu1, nu2 = np.broadcast_arrays(np.asarray(nu1, dtype=float), np.asarray(nu2, dtype=float))
    b = w.beta
    lo = np.minimum(nu1, nu2)[..., None] - 12.0 / b
    hi = np.maximum(nu1, nu2)[..., None] + 12.0 / b
    cut = np.clip(-0.5 / b, lo, hi) if w.kind == "metropolis" else hi
    gl_nodes, gl_weights = np.polynomial.legendre.leggauss(15)

    def rule(panels):
        t = np.linspace(0.0, 1.0, panels + 1)
        edges = np.concatenate([lo + (cut - lo) * t, cut + (hi - cut) * t[1:]], axis=-1)
        half = 0.5 * np.diff(edges, axis=-1)  # [..., 2 * panels]
        nodes = (edges[..., :-1] + half)[..., None] + half[..., None] * gl_nodes
        vals = weight(nodes, w) * filter_fhat(nodes - nu1[..., None, None], b) \
            * filter_fhat(nodes - nu2[..., None, None], b)
        return np.sum(half * (vals @ gl_weights), axis=-1)

    coarse, fine = rule(QUAD_PANELS), rule(QUAD_PANELS_FINE)
    err = float(np.max(np.abs(fine - coarse), initial=0.0))
    if err > QUAD_ABS_TOL:
        raise RuntimeError(f"alpha quadrature did not converge: {QUAD_PANELS} and "
                           f"{QUAD_PANELS_FINE} panels differ by {err:.2e}")
    return fine if fine.ndim else float(fine)


def jump_components(S, es: Eigensystem):
    """Energy-resolved components {nu: S_nu} with sum_nu S_nu = S exactly.

    Keys are the Bohr group representatives; components are returned in the
    original (computational) basis.
    """
    U = es.eigenvectors
    St = U.conj().T @ np.asarray(S, dtype=complex) @ U
    out = {}
    for g, nu in enumerate(es.bohr):
        mask = es.gid == g
        if not mask.any():
            continue
        comp = np.where(mask, St, 0.0)
        out[float(nu)] = U @ comp @ U.conj().T
    return out


def _alpha_table(groups, es: Eigensystem, w: WeightFunction):
    """Symmetric alpha matrix over the given Bohr group ids."""
    groups = sorted(groups)
    idx = {g: k for k, g in enumerate(groups)}
    nus = es.bohr[np.asarray(groups)]
    return idx, alpha_coeff(nus[:, None], nus[None, :], w)


def coherent_term(jumps_list, es: Eigensystem, w: WeightFunction) -> np.ndarray:
    """Coherent part G = sum_a sum_{v1,v2} tanh(-beta(v1-v2)/4)/(2i) alpha S_{v2}^dag S_{v1}.

    ``jumps_list`` holds one {nu: S_nu} dict per coupling, as returned by
    jump_components (components in the computational basis).
    """
    d = es.dim
    G = np.zeros((d, d), dtype=complex)
    for comps in jumps_list:
        for nu1, S1 in comps.items():
            for nu2, S2 in comps.items():
                t = np.tanh(-w.beta * (nu1 - nu2) / 4.0)
                if t == 0.0:
                    continue
                G += (t / 2.0j) * alpha_coeff(nu1, nu2, w) * (S2.conj().T @ S1)
    herm_err = np.linalg.norm(G - G.conj().T)
    if herm_err > 1e-10 * max(1.0, np.linalg.norm(G)):
        raise ValueError(f"coherent term failed hermiticity check ({herm_err:.2e})")
    return 0.5 * (G + G.conj().T)


def build_ckg_generator(H, couplings, w: WeightFunction, es: Eigensystem | None = None,
                        group_tol=BOHR_GROUP_TOL):
    """Assemble the detailed-balanced generator for (H, couplings, gamma).

    Returns the generator on observables as a Superoperator stored in the
    energy eigenbasis, where it is assembled.  Couplings are square matrices of
    the same dimension as H; hermiticity is not required.  The double Bohr
    sum is evaluated element-wise in the eigenbasis:

      (L_diss X)_{ij} = sum_{kl} alpha(nu_ki, nu_lj) conj(S_ki) X_kl S_lj - ...

    and only depends on the couplings through the coupling-summed products
    C[k,i,l,j] = sum_a conj(S_a[k,i]) S_a[l,j].
    """
    H = np.asarray(H, dtype=complex)
    d = H.shape[0]
    for S in couplings:
        if np.asarray(S).shape != (d, d):
            raise ValueError("coupling dimension does not match the Hamiltonian")
    if es is None:
        es = eigensystem(H, group_tol=group_tol)
    U = es.eigenvectors
    gid = es.gid

    # couplings in the eigenbasis, with numerically-zero entries removed so
    # only genuinely used Bohr groups enter the alpha table
    tilted = []
    used = set()
    for S in couplings:
        St = U.conj().T @ np.asarray(S, dtype=complex) @ U
        cut = 1e-13 * max(np.abs(St).max(), 1e-300)
        St = np.where(np.abs(St) > cut, St, 0.0)
        tilted.append(St)
        used.update(np.unique(gid[np.abs(St) > 0]).tolist())
    M4 = np.zeros((d, d, d, d), dtype=complex)  # [j, i, l, k]: row i + d*j, column k + d*l
    if used:
        idx, table = _alpha_table(used, es, w)
        slot = np.zeros(es.bohr.size, dtype=np.int64)
        for g, k in idx.items():
            slot[g] = k
        sgT = slot[gid].T  # sgT[i, k] = table slot of nu_{ki}
        nus = es.bohr[sorted(used)]
        tanh_tab = np.tanh(-w.beta * (nus[:, None] - nus[None, :]) / 4.0)
        Ktab = (tanh_tab / 2.0j) * table
        # C[j, l, i, k] = sum_a S_a[l, j] conj(S_a[k, i]), one rank-m product
        Sji = np.stack([St.T for St in tilted]).reshape(len(tilted), d * d)
        C = (Sji.T @ Sji.conj()).reshape(d, d, d, d)
        # sandwich: M4[j, i, l, k] = alpha[g(k,i), g(l,j)] C[j, l, i, k]
        for j in range(d):
            np.multiply(table[sgT[:, None, :], sgT[j][None, :, None]],
                        C[j].transpose(1, 0, 2), out=M4[j])
        # anticommutator and coherent cores share the k = l slice of C:
        # N[i,j] = sum_k alpha[g(k,i), g(k,j)] C[j,k,i,k], G likewise with Ktab
        Ck = np.diagonal(C, axis1=1, axis2=3)  # [j, i, k]
        pair = sgT[None, :, :] * len(nus) + sgT[:, None, :]  # [j, i, k] -> (g(k,i), g(k,j))
        N = np.einsum("jik,jik->ij", Ck, table.reshape(-1)[pair])
        G = np.einsum("jik,jik->ij", Ck, Ktab.T.reshape(-1)[pair])
        del C, Ck  # full size; not needed by the result
        # -1/2 {N, X} + i [G, X]: rows of X via kron(Id, .), columns via kron(.^T, Id)
        left = -0.5 * N + 1j * G
        right = (-0.5 * N - 1j * G).T
        for j in range(d):
            M4[j, :, j, :] += left
            M4[:, j, :, j] += right
    return Superoperator(M4.reshape(d * d, d * d), basis=U)


def _superop_norm_estimate(M, iters=40, seed=123):
    """Power-iteration estimate of the spectral norm (deterministic seed)."""
    rng = np.random.default_rng(seed)
    v = rng.standard_normal(M.shape[1]) + 1j * rng.standard_normal(M.shape[1])
    v /= np.linalg.norm(v)
    Mh = M.conj().T
    s = 0.0
    for _ in range(iters):
        u = M @ v
        v = Mh @ u
        s = np.linalg.norm(v) ** 0.5
        nv = np.linalg.norm(v)
        if nv == 0:
            return 0.0
        v /= nv
    return float(s)


def kms_inner(X, Y, sigma: GibbsState):
    """KMS inner product Tr[sigma^{1/2} X^dag sigma^{1/2} Y]."""
    s = sigma.power(0.5)
    return complex(np.trace(s @ X.conj().T @ s @ Y))


def detailed_balance_residual(L: Superoperator, sigma: GibbsState, n_pairs=20, seed=2024):
    """Max KMS self-adjointness violation over a seeded batch of operator pairs.

    Normalized by the KMS norms of the pair and a power-iteration estimate of
    ||L||; zero maps return 0.
    """
    if sigma.lambda_min <= 0:
        raise ValueError("sigma must be full rank")
    d = L.dim
    norm_est = _superop_norm_estimate(L.local)  # the basis change is unitary
    if norm_est == 0.0:
        return 0.0
    rng = np.random.default_rng(seed)
    worst = 0.0
    for _ in range(n_pairs):
        Xr = rng.standard_normal((d, d)) + 1j * rng.standard_normal((d, d))
        Yr = rng.standard_normal((d, d)) + 1j * rng.standard_normal((d, d))
        lhs = kms_inner(Xr, L.apply(Yr), sigma)
        rhs = kms_inner(L.apply(Xr), Yr, sigma)
        nx = np.sqrt(abs(kms_inner(Xr, Xr, sigma)))
        ny = np.sqrt(abs(kms_inner(Yr, Yr, sigma)))
        worst = max(worst, abs(lhs - rhs) / (nx * ny * norm_est))
    return float(worst)
