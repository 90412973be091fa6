"""Replica-exchange Lindbladians: local swap unitaries and the joint generator.

The auxiliary register is a copy of the slow region A with trivial
Hamiltonian.  The swap coupling exchanges the two A registers and leaves B
alone; with the Metropolis weight its generator has a fully closed form in
the labeled product basis |i_A j_B m_A>, in terms of the swap frequencies
omega (``JointStructure.swap_frequencies``):

  * sandwich coefficients alpha(w1, w2) of the Metropolis weight
    (``lindblad.alpha_coeff``),
  * decay coefficients alpha(w, w) = theta(beta * w),
  * no coherent term.

That route is cross-validated against the generic construction of
``build_ckg_generator`` applied to the swap unitary, assembled in the same
labeled basis (``swap_generator_generic``).

The local_A joint generator is assembled in the same labeled basis: the
system piece is built directly in the system factor of that basis, which
diagonalizes H, the auxiliary piece in the A-side eigenbasis, and the
sparse pieces are summed through ``lift``, a ``scipy.sparse.kron`` with the
identity of the other factor.  The joint Gibbs state is diagonal there
(``joint_gibbs``), so its KMS symmetrization is a diagonal scaling.
"""

from dataclasses import dataclass

import numpy as np
from scipy import sparse

from .hamiltonians import (
    ABasis,
    a_side_eigenbasis,
    assemble_dense,
    b_side_eigenbasis,
    check_commuting_cut,
    CutReport,
)
from .lindblad import (
    Superoperator,
    WeightFunction,
    alpha_coeff,
    build_ckg_generator,
    diagonal_gibbs_state,
    eigensystem,
    eigensystem_from_pairs,
)
from .pauli import qubit_permutation, single_site_paulis
from .spectral import block_eigvalsh, kms_scaling, symmetrize

CLOSED_FORM_RTOL = 1e-9


@dataclass(frozen=True)
class SwapMode:
    """Replica coupling choice: 'local_A', 'global', or 'none'.

    ``beta2`` only matters for the global (two-temperature) variant; the
    local variant follows the main theorem and keeps one beta.
    """

    kind: str = "local_A"
    beta2: float | None = None

    def __post_init__(self):
        if self.kind not in ("local_A", "global", "none"):
            raise ValueError(f"unknown swap mode {self.kind!r}")


def local_swap_unitary(d_a, d_b):
    """Permutation exchanging the two A registers of C^{d_a} (x) C^{d_b} (x) C^{d_a}."""
    d = d_a * d_b * d_a
    idx = np.arange(d).reshape(d_a, d_b, d_a)
    p = idx.transpose(2, 1, 0).reshape(-1)  # e(a,b,c) -> e(c,b,a)
    U = np.zeros((d, d), dtype=complex)
    U[p, np.arange(d)] = 1.0
    return U


@dataclass
class JointStructure:
    """Labeled product-basis data for the joint (system, auxiliary-A) space."""

    cut: CutReport
    basis_a: ABasis
    basis_b: ABasis
    lam2: np.ndarray  # (d_a, d_b) eigenvalues of H in the |i_A j_B> labels
    perm: np.ndarray  # system-site permutation matrix (A-first)
    n: int

    @property
    def d_a(self):
        return self.cut.d_a

    @property
    def d_b(self):
        return self.cut.d_b

    @property
    def joint_dim(self):
        return self.d_a * self.d_b * self.d_a

    def system_basis(self):
        """Columns are the |i_A j_B> vectors in the original site ordering; they diagonalize H."""
        return self.perm.conj().T @ np.kron(self.basis_a.vectors, self.basis_b.vectors)

    def labeled_to_original(self):
        """Columns are the |i_A j_B m_A> vectors in the original joint ordering."""
        return np.kron(self.system_basis(), self.basis_a.vectors)

    def swap_frequencies(self):
        """omega[e(a,b,c)] = lam(c,b) - lam(a,b) over the labeled joint basis."""
        lam = self.lam2
        a_idx, b_idx, c_idx = np.meshgrid(
            np.arange(self.d_a), np.arange(self.d_b), np.arange(self.d_a), indexing="ij"
        )
        return (lam[c_idx, b_idx] - lam[a_idx, b_idx]).reshape(-1)


def joint_structure(spec) -> JointStructure:
    """Commuting-cut labels for the joint space; errors if the cut fails."""
    cut = check_commuting_cut(spec)
    if not cut.holds:
        raise ValueError("commuting cut does not hold; local swap labeling unavailable")
    basis_a = a_side_eigenbasis(cut)
    basis_b = b_side_eigenbasis(cut)
    P = qubit_permutation(spec.n, list(cut.perm_order))
    H_perm = P @ assemble_dense(spec) @ P.conj().T
    W = np.kron(basis_a.vectors, basis_b.vectors)
    Hw = W.conj().T @ H_perm @ W
    off = Hw - np.diag(np.diag(Hw))
    if np.linalg.norm(off) > 1e-10 * max(1.0, np.linalg.norm(Hw)):
        raise ValueError("product labeling failed to diagonalize H")
    lam2 = np.real(np.diag(Hw)).reshape(cut.d_a, cut.d_b)
    return JointStructure(cut=cut, basis_a=basis_a, basis_b=basis_b, lam2=lam2,
                          perm=P, n=spec.n)


def _swap_superop_labeled(js: JointStructure, beta):
    """Swap generator on observables in the labeled |i_A j_B m_A> basis, as CSR."""
    d = js.joint_dim
    ws = js.swap_frequencies()
    coeff = alpha_coeff(ws[:, None], ws[None, :], WeightFunction("metropolis", beta))
    p = np.arange(d).reshape(js.d_a, js.d_b, js.d_a).transpose(2, 1, 0).reshape(-1)
    r = np.arange(d * d)
    i, j = r % d, r // d  # vec index r = i + d*j
    # sandwich: out[(i,j)] reads X at the register-swapped element, weighted by
    # the two-frequency overlap alpha(ws_i, ws_j); anticommutator with the
    # decay operator D = diag(alpha(ws, ws)): (D_i + D_j) / 2 on the diagonal
    th = np.diagonal(coeff)
    vals = np.concatenate([coeff[i, j], -0.5 * (th[i] + th[j])])
    cols = np.concatenate([p[i] + d * p[j], r])
    return sparse.coo_array((vals, (np.concatenate([r, r]), cols)), shape=(d * d, d * d)).tocsr()


def swap_generator_closed_form(spec, beta, js: JointStructure | None = None) -> Superoperator:
    """Closed-form swap generator on the joint space.

    Acts on C^{2^n} (x) C^{d_A} in the original site ordering and is stored in
    the labeled |i_A j_B m_A> basis it is assembled in; dissipative only (the
    coherent part vanishes identically for the swap coupling).  ``js`` is the
    precomputed joint_structure(spec), if any.
    """
    if js is None:
        js = joint_structure(spec)
    return Superoperator(_swap_superop_labeled(js, beta), basis=js.labeled_to_original())


def swap_unitary_original(js: JointStructure):
    """The local swap in the original joint ordering (basis independent)."""
    U = local_swap_unitary(js.d_a, js.d_b)
    P_joint = np.kron(js.perm, np.eye(js.d_a))
    return P_joint.conj().T @ U @ P_joint


def swap_generator_generic(spec, beta, js: JointStructure | None = None) -> Superoperator:
    """Swap generator via the generic construction; cross-validates the closed form.

    ``build_ckg_generator`` is applied to the swap unitary in the original
    joint ordering, with the labeled |i_A j_B m_A> vectors as the eigenbasis
    of H_joint = H (x) I + I (they diagonalize it, as ``joint_structure``
    checks for H).  The generator does not depend on the eigenbasis chosen
    inside a degenerate eigenspace, so the result is stored in the same basis
    as ``swap_generator_closed_form`` and the two compare entry by entry.
    ``js`` is the precomputed joint_structure(spec), if any.
    """
    if js is None:
        js = joint_structure(spec)
    H_joint = joint_hamiltonian(spec, SwapMode("local_A"))
    es = eigensystem_from_pairs(np.repeat(js.lam2.reshape(-1), js.d_a) + 1.0,
                                js.labeled_to_original())
    return build_ckg_generator(H_joint, [swap_unitary_original(js)],
                               WeightFunction("metropolis", beta), es=es)


def lift(M, dims, factor):
    """CSR matrix of L on one factor of C^dims[0] (x) C^dims[1], identity on the other.

    ``M`` is the matrix of L on factor ``factor`` (0 or 1).  The lift is the
    kron of M with the identity superoperator of the other factor, whose
    index r1 * d2^2 + r2 (r1 = i + d1*j, r2 = c + d2*b) is relabeled to the
    joint vec index (i*d2 + c) + d1*d2*(j*d2 + b).
    """
    d1, d2 = dims
    eye = sparse.eye_array(dims[1 - factor] ** 2)
    K = sparse.kron(*((M, eye) if factor == 0 else (eye, M)), format="coo")
    j, i, b, c = np.indices((d1, d1, d2, d2)).reshape(4, -1)  # kron index, C order
    joint = (i * d2 + c) + d1 * d2 * (j * d2 + b)
    return sparse.coo_array((K.data, (joint[K.row], joint[K.col])), shape=K.shape).tocsr()


def joint_hamiltonian(spec, mode: SwapMode):
    """Joint-space Hamiltonian whose Gibbs state is the generator's fixed point."""
    H = assemble_dense(spec)
    if mode.kind == "local_A":
        d_a = 2 ** len(spec.partition[0])
        return np.kron(H, np.eye(d_a)) + np.eye(H.shape[0] * d_a)
    if mode.kind == "global":
        raise ValueError("global mode mixes two temperatures; use the explicit pieces")
    return H


def check_global_size(n):
    """Raise ValueError when the global two-replica generator on n sites is too large to build."""
    if n > 4:
        raise ValueError("global swap gated at n <= 4")


def build_replica_exchange_generator(spec, beta, w1: WeightFunction, w2: WeightFunction,
                                     mode: SwapMode, js: JointStructure | None = None
                                     ) -> Superoperator:
    """Joint generator L1 (x) Id + Id (x) L2 + L_swap on observables.

    local_A: system couplings are all single-site Paulis, the auxiliary is a
    trivial-Hamiltonian copy of A with its own single-site Paulis, and the
    swap exchanges the A registers (closed form).  The three pieces are
    assembled in the labeled |i_A j_B m_A> basis, where H and the joint Gibbs
    state are diagonal, and the result is stored there.  ``js`` is the
    precomputed joint_structure(spec), if any.

    global: two full replicas, stored in the product U (x) U of the energy
    eigenbasis, which diagonalizes both replicas and the swap Hamiltonian.
    """
    H = assemble_dense(spec)
    d_n = H.shape[0]
    if mode.kind == "none":
        return build_ckg_generator(H, single_site_paulis(spec.n), w1)
    if mode.kind == "local_A":
        if spec.partition is None:
            raise ValueError("local_A mode needs a partition")
        if js is None:
            js = joint_structure(spec)
        n_a = len(spec.partition[0])
        es1 = eigensystem_from_pairs(js.lam2.reshape(-1), js.system_basis())
        L1 = build_ckg_generator(H, single_site_paulis(spec.n), w1, es=es1)
        es2 = eigensystem_from_pairs(np.ones(js.d_a), js.basis_a.vectors)
        L2 = build_ckg_generator(np.eye(js.d_a), single_site_paulis(n_a), w2, es=es2)
        M = (_swap_superop_labeled(js, beta) + lift(L1.local, (d_n, js.d_a), 0)
             + lift(L2.local, (d_n, js.d_a), 1))
        return Superoperator(M, basis=js.labeled_to_original())
    # global: two full replicas at (beta, beta2), global swap, general form
    check_global_size(spec.n)
    beta2 = mode.beta2 if mode.beta2 is not None else beta
    es = eigensystem(H)
    L1 = build_ckg_generator(H, single_site_paulis(spec.n), w1, es=es)
    L2 = build_ckg_generator(H, single_site_paulis(spec.n), WeightFunction(w2.kind, beta2), es=es)
    # swap piece: Hamiltonian beta1 H (x) I + beta2 I (x) H at unit temperature
    H_swap = beta * np.kron(H, np.eye(d_n)) + beta2 * np.kron(np.eye(d_n), H)
    lam = es.eigenvalues
    U2 = np.kron(es.eigenvectors, es.eigenvectors)
    es_swap = eigensystem_from_pairs((beta * lam[:, None] + beta2 * lam[None, :]).reshape(-1), U2)
    swap = local_swap_unitary(d_n, 1)
    M = (build_ckg_generator(H_swap, [swap], WeightFunction("metropolis", 1.0), es=es_swap).local
         + lift(L1.local, (d_n, d_n), 0) + lift(L2.local, (d_n, d_n), 1))
    return Superoperator(M, basis=U2)


def _labeled_sigma_weights(js: JointStructure, beta):
    """Diagonal of the joint Gibbs state in the labeled basis: s(a,b)/d_a."""
    lam = js.lam2
    w = np.exp(-beta * (lam - lam.min()))
    w /= w.sum()
    s3 = np.repeat(w.reshape(-1), js.d_a) / js.d_a
    return w, s3


def _kms_diag(Xv, Yv, s3):
    """KMS inner product for vectorized operators when sigma is diagonal."""
    d = s3.size
    X = Xv.reshape(d, d, order="F")
    Y = Yv.reshape(d, d, order="F")
    r = np.sqrt(s3)
    return complex(np.einsum("i,ij,j,ij->", r, X.conj(), r, Y))


def _random_off_a(rng, d_a, d_b, b_part):
    """Random operator X (x) I_A, as a dense matrix in the labeled basis, with zero A-diagonal blocks.

    X has entries X[(i, b), (i', b')] with i != i'; ``b_part`` is "any" for
    every B part, "diag" for b = b' only and "off" for b != b' only.
    """
    shape = (d_a, d_b, d_a, d_b)
    T = rng.standard_normal(shape) + 1j * rng.standard_normal(shape)
    i, b, ip, bp = np.indices(shape, sparse=True)
    mask = i != ip
    if b_part != "any":
        mask = mask & ((b == bp) == (b_part == "diag"))
    return np.kron((T * mask).reshape(d_a * d_b, d_a * d_b), np.eye(d_a))


def swap_only_kernel_analysis(spec, beta, seed=42, n_random=10):
    """Kernel of the swap generator restricted to the K (x) I_A sector.

    K is the joint kernel of the A-diagonal-restricted system generator and
    the auxiliary generator: spanned by |i_A><i_A| (x) I_B together with all
    A-off-diagonal blocks.  Also verifies the vanishing cross terms between
    the diagonal and off-diagonal sectors.
    """
    js = joint_structure(spec)
    d_a, d_b = js.d_a, js.d_b
    S = swap_generator_closed_form(spec, beta, js=js)
    sigma = joint_gibbs(spec, beta, js=js)
    M, s3 = S.local, sigma.weights
    Lhat = symmetrize(S, sigma)
    phi = kms_scaling(sigma)

    def e_op(mat):
        return mat.reshape(-1, order="F")

    basis_vecs = []
    eye_b = np.eye(d_b)
    eye_a = np.eye(d_a)
    for i in range(d_a):
        proj = np.zeros((d_a, d_a))
        proj[i, i] = 1.0
        basis_vecs.append(e_op(np.kron(np.kron(proj, eye_b), eye_a)))
    for i in range(d_a):
        for ip in range(d_a):
            if i == ip:
                continue
            eij = np.zeros((d_a, d_a))
            eij[i, ip] = 1.0
            for b in range(d_b):
                for v in range(d_b):
                    unit_b = np.zeros((d_b, d_b))
                    unit_b[b, v] = 1.0
                    basis_vecs.append(e_op(np.kron(np.kron(eij, unit_b), eye_a)))
    C = np.stack([phi * v for v in basis_vecs], axis=1)
    Q, _ = np.linalg.qr(C)
    R = -(Q.conj().T @ (Lhat @ Q))
    evals = np.linalg.eigvalsh(0.5 * (R + R.conj().T))
    scale = max(np.abs(block_eigvalsh(Lhat)).max(), 1e-300)
    kernel_dim = int(np.sum(evals <= 1e-9 * scale))

    # cross terms of the diagonal/off-diagonal decompositions
    rng = np.random.default_rng(seed)
    worst = {"diagA_vs_offA": 0.0, "offA_vs_diagA": 0.0,
             "offdiagB_vs_offoffB": 0.0, "offoffB_vs_offdiagB": 0.0}
    for _ in range(n_random):
        Xd = np.kron(np.kron(np.diag(rng.standard_normal(d_a)), eye_b), eye_a)
        Xo = _random_off_a(rng, d_a, d_b, "any")
        Xod, Xoo = _random_off_a(rng, d_a, d_b, "diag"), _random_off_a(rng, d_a, d_b, "off")
        pairs = {
            "diagA_vs_offA": (Xd, Xo),
            "offA_vs_diagA": (Xo, Xd),
            "offdiagB_vs_offoffB": (Xod, Xoo),
            "offoffB_vs_offdiagB": (Xoo, Xod),
        }
        for key, (Xl, Xr) in pairs.items():
            lv, rv = e_op(Xl), M @ e_op(Xr)
            val = abs(_kms_diag(lv, rv, s3))
            norm = np.sqrt(abs(_kms_diag(e_op(Xl), e_op(Xl), s3))) * max(
                np.sqrt(abs(_kms_diag(e_op(Xr), e_op(Xr), s3))), 1e-300
            )
            worst[key] = max(worst[key], val / max(norm * scale, 1e-300))

    return {
        "restricted_kernel_dim": kernel_dim,
        "restricted_evals_head": [float(v) for v in evals[:5]],
        "cross_term_residuals": worst,
        "sector_dim": len(basis_vecs),
    }


def swap_sector_lower_bounds(spec, beta, seed=42, n_random=20):
    """Measured Rayleigh quotients of -L_swap on the three kernel sectors.

    Returns the per-sector minima together with the conservative theorem-style
    threshold min over sectors >= 1 / (4 d_A exp(4 beta K V_max)).
    """
    js = joint_structure(spec)
    d_a, d_b = js.d_a, js.d_b
    M = _swap_superop_labeled(js, beta)
    w2, s3 = _labeled_sigma_weights(js, beta)
    rng = np.random.default_rng(seed)
    eye_b, eye_a = np.eye(d_b), np.eye(d_a)

    def quotient(X):
        Xv = X.reshape(-1, order="F")
        num = -_kms_diag(Xv, M @ Xv, s3).real
        den = _kms_diag(Xv, Xv, s3).real
        return num / den

    mins = {"diag_A": np.inf, "offA_diagB": np.inf, "offA_offB": np.inf}
    marg = w2.sum(axis=1)  # A-marginal of the Gibbs weights
    for _ in range(n_random):
        a = rng.standard_normal(d_a)
        a -= np.dot(marg, a) / marg.sum()  # sigma-orthogonal to the identity
        X = np.kron(np.kron(np.diag(a), eye_b), eye_a)
        mins["diag_A"] = min(mins["diag_A"], quotient(X))
        mins["offA_diagB"] = min(mins["offA_diagB"],
                                 quotient(_random_off_a(rng, d_a, d_b, "diag")))
        mins["offA_offB"] = min(mins["offA_offB"], quotient(_random_off_a(rng, d_a, d_b, "off")))

    threshold = 1.0 / (4.0 * d_a * np.exp(4.0 * beta * js.cut.k_count * js.cut.v_max))
    return {"sector_minima": {k: float(v) for k, v in mins.items()},
            "threshold": float(threshold)}


def joint_gibbs(spec, beta, js: JointStructure | None = None):
    """Gibbs state of the local_A joint Hamiltonian (sigma_H (x) I_A / d_A).

    Built diagonal in the labeled |i_A j_B m_A> basis from the commuting-cut
    eigenvalues; ``js`` is the precomputed joint_structure(spec), if any.
    """
    if not (np.isfinite(beta) and beta >= 0):
        raise ValueError("beta must be finite and non-negative")
    if js is None:
        js = joint_structure(spec)
    _, s3 = _labeled_sigma_weights(js, beta)
    return diagonal_gibbs_state(s3, js.labeled_to_original(), beta)
