"""Replica-exchange Lindbladians: local swap unitaries and the joint generator.

The auxiliary register is a copy of the slow region A with trivial
Hamiltonian.  The swap coupling exchanges the two A registers and leaves B
alone.  Everything on the joint space is labeled by the commuting-cut
product basis |i_A j_B m_A>, which ``joint_structure`` computes once per
system; every function here that reads those labels takes the caller's
``JointStructure``.  With the Metropolis weight the swap generator has a
fully closed form in that basis, in terms of the swap frequencies omega
(``JointStructure.swap_frequencies``):

  * sandwich coefficients alpha(w1, w2) of the Metropolis weight
    (``lindblad.alpha_coeff``),
  * decay coefficients alpha(w, w) = theta(beta * w),
  * no coherent term.

That route is cross-validated against the generic construction of
``build_ckg_generator`` applied to the swap unitary, assembled from the
labeled eigensystem of H (x) I + I (``swap_generator_generic``).

The local_A joint generator (``build_replica_exchange_generator``) is
assembled in the same labeled basis: the system piece is built from the
eigensystem of H in the system factor of that basis, the auxiliary piece in
the A-side eigenbasis, and the sparse pieces are summed through ``lift``, a
``scipy.sparse.kron`` with the identity of the other factor.  The joint
Gibbs state is diagonal there (``joint_gibbs``), so KMS products on the
joint space are Euclidean products of vectors scaled by
``spectral.kms_scaling``; the sector analysis (``swap_sector_analysis``)
takes them from one ``spectral.symmetrize`` of the swap generator.  The
two-temperature global variant (``build_global_replica_generator``) is
stored in U (x) U, where its Gibbs state (``global_gibbs``) is diagonal.
"""

from dataclasses import dataclass

import numpy as np
from scipy import sparse

from .hamiltonians import CutReport, check_commuting_cut, simultaneous_eigenbasis
from .lindblad import (
    Eigensystem,
    Superoperator,
    WeightFunction,
    alpha_coeff,
    build_ckg_generator,
    diagonal_gibbs_state,
    eigensystem_from_pairs,
    gibbs_state,
    vec,
)
from .pauli import qubit_permutation, single_site_paulis
from .spectral import KERNEL_TOL, block_eigvalsh, kms_scaling, symmetrize

CLOSED_FORM_RTOL = 1e-9


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
    """Labeled product-basis data for the joint (system, auxiliary-A) space.

    ``perm`` is the index array of the A-first site order
    (``pauli.qubit_permutation``).  ``basis_a`` is the shared eigenbasis of
    the A-side family {H_A} u {V_A}.  ``system_es`` is the labeled
    eigensystem of H: its eigenvectors ``system_basis`` are the |i_A j_B>
    vectors in the original site ordering, with the eigenvalues ``lam2``.
    The system generator and g_B are both built from it.  ``joint_basis``
    holds the |i_A j_B m_A> vectors in the original joint ordering.
    """

    cut: CutReport
    basis_a: np.ndarray
    perm: np.ndarray
    system_es: Eigensystem
    joint_basis: np.ndarray
    n: int

    @property
    def lam2(self):
        """(d_a, d_b) eigenvalues of H in the |i_A j_B> labels."""
        return self.system_es.eigenvalues.reshape(self.d_a, self.d_b)

    @property
    def system_basis(self):
        """The |i_A j_B> vectors in the original site ordering, as columns."""
        return self.system_es.eigenvectors

    @property
    def d_a(self):
        return self.cut.d_a

    @property
    def d_b(self):
        return self.cut.d_b

    @property
    def n_a(self):
        return self.d_a.bit_length() - 1

    @property
    def joint_dim(self):
        return self.d_a * self.d_b * self.d_a

    def swap_frequencies(self):
        """omega[e(a,b,c)] = lam(c,b) - lam(a,b) over the labeled joint basis."""
        lam = self.lam2
        a_idx, b_idx, c_idx = np.meshgrid(
            np.arange(self.d_a), np.arange(self.d_b), np.arange(self.d_a), indexing="ij"
        )
        return (lam[c_idx, b_idx] - lam[a_idx, b_idx]).reshape(-1)


def joint_structure(spec) -> JointStructure:
    """Commuting-cut labels for the joint space; errors if the cut fails.

    The A-side and B-side families are diagonalized by
    ``simultaneous_eigenbasis`` (seeds 7 and 11); their product must
    diagonalize H in the A-first ordering, which the cut analysis hands over
    (``CutReport.h_perm``).
    """
    cut = check_commuting_cut(spec)
    if not cut.holds:
        raise ValueError(f"commuting cut does not hold ({'; '.join(cut.diagnostics)}); "
                         "local swap labeling unavailable")
    basis_a, _ = simultaneous_eigenbasis([cut.h_a] + [va for va, _ in cut.interaction], seed=7)
    basis_b, _ = simultaneous_eigenbasis([cut.h_b] + [vb for _, vb in cut.interaction], seed=11)
    p = qubit_permutation(spec.n, cut.perm_order)
    W = np.kron(basis_a, basis_b)
    Hw = W.conj().T @ cut.h_perm @ W
    off = Hw - np.diag(np.diag(Hw))
    if np.linalg.norm(off) > 1e-10 * max(1.0, np.linalg.norm(Hw)):
        raise ValueError("product labeling failed to diagonalize H")
    system_basis = np.empty_like(W)
    system_basis[p] = W  # P^dag W: the labels in the original site ordering
    return JointStructure(cut=cut, basis_a=basis_a, perm=p,
                          system_es=eigensystem_from_pairs(np.diag(Hw).real.copy(), system_basis),
                          joint_basis=np.kron(system_basis, basis_a), n=spec.n)


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


def swap_generator_closed_form(js: JointStructure, beta) -> Superoperator:
    """Closed-form swap generator on the joint space of ``js``.

    Acts on C^{2^n} (x) C^{d_A} in the original site ordering and is stored in
    the labeled |i_A j_B m_A> basis it is assembled in; dissipative only (the
    coherent part vanishes identically for the swap coupling).
    """
    return Superoperator(_swap_superop_labeled(js, beta), basis=js.joint_basis)


def swap_unitary_original(js: JointStructure):
    """The local swap in the original joint ordering (basis independent).

    P_J^dag U P_J for the site reordering P_J = P (x) I_A, i.e. the entries
    of U scattered to the rows and columns p_J.
    """
    pj = (js.perm[:, None] * js.d_a + np.arange(js.d_a)).reshape(-1)
    U = local_swap_unitary(js.d_a, js.d_b)
    out = np.empty_like(U)
    out[np.ix_(pj, pj)] = U
    return out


def swap_generator_generic(js: JointStructure, beta) -> Superoperator:
    """Swap generator via the generic construction; cross-validates the closed form.

    ``build_ckg_generator`` is applied to the swap unitary in the original
    joint ordering, with the labeled |i_A j_B m_A> vectors as the eigenbasis
    of H_joint = H (x) I + I (they diagonalize it, as ``joint_structure``
    checks for H).  The generator does not depend on the eigenbasis chosen
    inside a degenerate eigenspace, so the result is stored in the same basis
    as ``swap_generator_closed_form`` and the two compare entry by entry.
    """
    es = eigensystem_from_pairs(np.repeat(js.system_es.eigenvalues, js.d_a) + 1.0, js.joint_basis)
    return build_ckg_generator(es, [swap_unitary_original(js)], WeightFunction("metropolis", beta))


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


def build_replica_exchange_generator(js: JointStructure, w: WeightFunction) -> Superoperator:
    """local_A joint generator L1 (x) Id + Id (x) L2 + L_swap on observables.

    The system couplings are all single-site Paulis; the auxiliary is a
    trivial-Hamiltonian copy of A with its own single-site Paulis; both use
    the weight ``w``.  The swap exchanges the A registers (closed form, at
    ``w.beta``).  The three pieces are assembled in the labeled
    |i_A j_B m_A> basis of ``js``, where H and the joint Gibbs state
    (``joint_gibbs``) are diagonal, and the result is stored there.
    """
    d_n = js.d_a * js.d_b
    L1 = build_ckg_generator(js.system_es, single_site_paulis(js.n), w)
    es2 = eigensystem_from_pairs(np.ones(js.d_a), js.basis_a)
    L2 = build_ckg_generator(es2, single_site_paulis(js.n_a), w)
    M = (_swap_superop_labeled(js, w.beta) + lift(L1.local, (d_n, js.d_a), 0)
         + lift(L2.local, (d_n, js.d_a), 1))
    return Superoperator(M, basis=js.joint_basis)


def joint_gibbs(js: JointStructure, beta):
    """Gibbs state of the local_A joint Hamiltonian (sigma_H (x) I_A / d_A).

    Built diagonal in the labeled |i_A j_B m_A> basis from the commuting-cut
    eigenvalues: weight s(a, b) / d_A at e(a, b, c).
    """
    if not (np.isfinite(beta) and beta >= 0):
        raise ValueError("beta must be finite and non-negative")
    lam = js.lam2
    w = np.exp(-beta * (lam - lam.min()))
    w /= w.sum()
    return diagonal_gibbs_state(np.repeat(w.reshape(-1), js.d_a) / js.d_a, js.joint_basis, beta)


def check_global_size(n):
    """Raise ValueError when the global two-replica generator on n sites is too large to build."""
    if n > 4:
        raise ValueError("global swap gated at n <= 4")


def build_global_replica_generator(es: Eigensystem, w: WeightFunction, beta2) -> Superoperator:
    """Two full replicas at (w.beta, beta2) coupled by the global swap, stored in U (x) U.

    ``es`` is the eigensystem of H.  Replica 1 uses the weight ``w``,
    replica 2 the same kind at ``beta2``; the swap piece is the generic
    generator of the swap unitary for the Hamiltonian
    w.beta H (x) I + beta2 I (x) H at unit temperature.  Its Gibbs state is
    ``global_gibbs``.
    """
    n, d_n = es.dim.bit_length() - 1, es.dim
    check_global_size(n)
    L1 = build_ckg_generator(es, single_site_paulis(n), w)
    L2 = build_ckg_generator(es, single_site_paulis(n), WeightFunction(w.kind, beta2))
    lam = es.eigenvalues
    U2 = np.kron(es.eigenvectors, es.eigenvectors)  # diagonalizes both replicas and the swap
    es_swap = eigensystem_from_pairs((w.beta * lam[:, None] + beta2 * lam[None, :]).reshape(-1), U2)
    swap = local_swap_unitary(d_n, 1)
    M = (build_ckg_generator(es_swap, [swap], WeightFunction("metropolis", 1.0)).local
         + lift(L1.local, (d_n, d_n), 0) + lift(L2.local, (d_n, d_n), 1))
    return Superoperator(M, basis=U2)


def global_gibbs(es: Eigensystem, beta, beta2):
    """sigma_beta (x) sigma_beta2, diagonal in the U (x) U of ``build_global_replica_generator``."""
    weights = np.kron(gibbs_state(es, beta).weights, gibbs_state(es, beta2).weights)
    return diagonal_gibbs_state(weights, np.kron(es.eigenvectors, es.eigenvectors), beta)


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


def _sector_basis(js: JointStructure, phi):
    """Orthonormal basis of Phi(K (x) I_A) in vec coordinates of the labeled basis, as CSC.

    Columns: Phi of |i><i| (x) I_B (x) I_A for each i, then of
    |i><i'| (x) |b><v| (x) I_A for i != i' and all b, v.  Each has entries
    phi[r] at the vec indices r = e + D*e' of its (row e, column e') pairs.
    The supports are disjoint, so normalizing each column makes the basis
    orthonormal.
    """
    d_a, D = js.d_a, js.joint_dim
    e = np.arange(D).reshape(d_a, js.d_b, d_a)  # labeled joint index e(a, b, c)
    diag = (e * (D + 1)).reshape(d_a, -1)
    off = e[:, None, :, None, :] + D * e[None, :, None, :, :]  # [i, i', b, v, c]
    off = off[~np.eye(d_a, dtype=bool)].reshape(-1, d_a)
    rows = np.concatenate([diag.ravel(), off.ravel()])
    cols = np.concatenate([np.repeat(np.arange(d_a), diag.shape[1]),
                           d_a + np.repeat(np.arange(off.shape[0]), d_a)])
    vals = phi[rows]
    norm = np.sqrt(np.bincount(cols, vals**2))
    return sparse.csc_array((vals / norm[cols], (rows, cols)), shape=(D * D, norm.size))


def swap_sector_analysis(js: JointStructure, swap, sigma, seed=42):
    """Kernel, cross terms and sector Rayleigh quotients of the swap generator on K (x) I_A.

    ``swap`` and ``sigma`` are the caller's closed-form swap generator and
    joint Gibbs state of ``js``; one L_hat serves every part.  K is the joint
    kernel of the A-diagonal-restricted system generator and the auxiliary
    generator: spanned by |i_A><i_A| (x) I_B together with all
    A-off-diagonal blocks.  Returns the kernel of the generator restricted
    to that sector, the largest cross terms between its diagonal and
    off-diagonal parts (10 random draws), the least Rayleigh quotients of
    -L_swap on its three parts (20 random draws each) with the conservative
    theorem-style threshold 1 / (4 d_A exp(4 beta K V_max)) at
    beta = sigma.beta, and ``kms_norm``, the KMS operator norm of the swap
    generator that scales the kernel and cross-term tests.  The cross terms
    and the quotients each draw from their own ``default_rng(seed)``.
    """
    d_a, d_b = js.d_a, js.d_b
    Lhat, phi = symmetrize(swap, sigma), kms_scaling(sigma)
    Q = _sector_basis(js, phi)
    R = -(Q.T @ (Lhat @ Q)).toarray()
    evals = np.linalg.eigvalsh(0.5 * (R + R.conj().T))
    scale = max(np.abs(block_eigvalsh(Lhat)).max(), 1e-300)
    kernel_dim = int(np.sum(evals <= KERNEL_TOL * scale))
    eye_b, eye_a = np.eye(d_b), np.eye(d_a)

    # cross terms of the diagonal/off-diagonal decompositions
    rng = np.random.default_rng(seed)
    worst = {"diagA_vs_offA": 0.0, "offA_vs_diagA": 0.0,
             "offdiagB_vs_offoffB": 0.0, "offoffB_vs_offdiagB": 0.0}
    for _ in range(10):
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
            # <Xl, L(Xr)>_sigma = xl^dag L_hat xr and <X, X>_sigma = |x|^2
            xl, xr = phi * vec(Xl), phi * vec(Xr)
            norm = np.linalg.norm(xl) * max(np.linalg.norm(xr), 1e-300)
            worst[key] = max(worst[key], abs(np.vdot(xl, Lhat @ xr)) / max(norm * scale, 1e-300))

    # Rayleigh quotients on the three kernel sectors
    rng = np.random.default_rng(seed)

    def quotient(X):
        x = phi * vec(X)
        return -np.vdot(x, Lhat @ x).real / np.vdot(x, x).real

    mins = {"diag_A": np.inf, "offA_diagB": np.inf, "offA_offB": np.inf}
    marg = sigma.weights.reshape(d_a, -1).sum(axis=1)  # A-marginal of the Gibbs weights
    for _ in range(20):
        a = rng.standard_normal(d_a)
        a -= np.dot(marg, a) / marg.sum()  # sigma-orthogonal to the identity
        X = np.kron(np.kron(np.diag(a), eye_b), eye_a)
        mins["diag_A"] = min(mins["diag_A"], quotient(X))
        mins["offA_diagB"] = min(mins["offA_diagB"],
                                 quotient(_random_off_a(rng, d_a, d_b, "diag")))
        mins["offA_offB"] = min(mins["offA_offB"], quotient(_random_off_a(rng, d_a, d_b, "off")))

    threshold = 1.0 / (4.0 * d_a * np.exp(4.0 * sigma.beta * js.cut.k_count * js.cut.v_max))
    return {
        "restricted_kernel_dim": kernel_dim,
        "restricted_evals_head": [float(v) for v in evals[:5]],
        "cross_term_residuals": worst,
        "sector_dim": Q.shape[1],
        "kms_norm": float(scale),
        "sector_minima": {k: float(v) for k, v in mins.items()},
        "threshold": float(threshold),
    }
