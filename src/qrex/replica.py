"""Replica-exchange Lindbladians: two factor generators and a closed-form swap.

Both replica modes are one construction (``_replica_pair``): each factor
generator is stored in a basis where its Hamiltonian is diagonal and is put
on its factor of the joint space by ``lift``, index arithmetic on its
triplets.  In the kron of the two bases the swap permutes the basis,
e -> p[e], moving the energy of e by omega[e] = E[p[e]] - E[e], and its
Metropolis generator has a closed form there (``_swap_entries``): sandwich
coefficients alpha(omega_i, omega_j) (``lindblad.alpha_table`` over the
distinct omega, Chen-Kastoryano-Gilyen, arXiv:2311.09207), decay coefficients
alpha(omega, omega) = theta(beta * omega) and no coherent term.  One
``lindblad.canonical`` sorts the swap and lifted entries together, and the
result carries the product of the two factor Gibbs states.

The local_A mode (``build_replica_exchange_generator``) pairs the system
with a trivial-Hamiltonian copy of the slow region A, and the swap
exchanges the A registers.  It is labeled by the commuting-cut product
basis |i_A j_B m_A>, which ``joint_structure`` computes once per system;
every function here that reads those labels takes the caller's
``JointStructure``.  The joint Gibbs state ``joint_gibbs`` is diagonal
there, so KMS products are Euclidean products of vectors scaled by
``spectral.kms_scaling``, and the sector analysis
(``swap_sector_analysis``) reads every number off one compression of one
``spectral.symmetrize`` of the swap generator.  The closed-form swap
(``swap_generator_closed_form``) is cross-validated against
``build_ckg_generator`` applied to the swap unitary
(``swap_generator_generic``).  The global mode
(``build_global_replica_generator``) pairs two full replicas in U (x) U,
the swap at unit temperature for E = beta lam_a + beta2 lam_c, with the
Gibbs state ``global_gibbs``.
"""

from dataclasses import dataclass

import numpy as np

from .hamiltonians import CutReport, check_commuting_cut, simultaneous_eigenbasis
from .lindblad import (
    Eigensystem,
    GibbsState,
    Superoperator,
    Triplets,
    WeightFunction,
    alpha_table,
    build_ckg_generator,
    canonical,
    gibbs_state,
    kron,
)
from .pauli import qubit_permutation, single_site_paulis
from .spectral import KERNEL_TOL, block_eigvalsh, kms_scaling, spectral_norm, symmetrize

CLOSED_FORM_RTOL = 1e-9


def _swap_permutation(d_a, d_b):
    """Index map e(a,b,c) -> e(c,b,a) exchanging the A registers of C^{d_a} (x) C^{d_b} (x) C^{d_a}."""
    d = d_a * d_b * d_a
    return np.arange(d, dtype=np.int32).reshape(d_a, d_b, d_a).transpose(2, 1, 0).reshape(-1)


@dataclass
class JointStructure:
    """Labeled product-basis data for the joint (system, auxiliary-A) space.

    ``perm`` is the index array of the A-first site order
    (``pauli.qubit_permutation``).  ``basis_a`` is the shared eigenbasis of
    the A-side family {H_A} u {V_A}, ``Triplets``.  ``system_es`` is the
    labeled eigensystem of H: its eigenvectors are the |i_A j_B> vectors in
    the original site ordering, with the eigenvalues ``lam2``.  The system
    generator and g_B are both built from it.
    """

    cut: CutReport
    basis_a: Triplets
    perm: np.ndarray
    system_es: Eigensystem
    n: int

    @property
    def lam2(self):
        """(d_a, d_b) eigenvalues of H in the |i_A j_B> labels."""
        return self.system_es.eigenvalues.reshape(self.d_a, self.d_b)

    @property
    def aux_es(self):
        """Eigensystem of the auxiliary copy of A: the trivial Hamiltonian I in ``basis_a``."""
        return Eigensystem(np.ones(self.d_a), self.basis_a)

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

    def bound_scale(self, beta):
        """d_A exp(4 beta K V_max): the main theorem bounds the joint gap by g_B / (4 this)."""
        return self.d_a * np.exp(4 * beta * self.cut.k_count * self.cut.v_max)


def joint_structure(spec) -> JointStructure:
    """Commuting-cut labels for the joint space; errors if the cut fails.

    The A-side family {H_A} u {V_A^k} and the B-side family {H_B} u {V_B^k}
    are diagonalized by ``simultaneous_eigenbasis``.  The kron of the two
    bases diagonalizes H in the A-first site order, since H = H_A (x) I +
    I (x) H_B + sum_k V_A^k (x) V_B^k there, so the energy of |i_A j_B> is
    h_A[i] + h_B[j] + sum_k v_A^k[i] v_B^k[j] in the factors' eigenvalues.
    The labeled basis is the sparse kron of the factor bases, its rows
    relabeled to the original site ordering.
    """
    cut = check_commuting_cut(spec)
    if not cut.holds:
        raise ValueError(f"commuting cut does not hold ({'; '.join(cut.diagnostics)}); "
                         "local swap labeling unavailable")
    basis_a, ea = simultaneous_eigenbasis([cut.h_a] + [va for va, _ in cut.interaction])
    basis_b, eb = simultaneous_eigenbasis([cut.h_b] + [vb for _, vb in cut.interaction])
    ea, eb = np.array(ea), np.array(eb)  # (K + 1, d_a) and (K + 1, d_b)
    lam = ea[0][:, None] + eb[0] + ea[1:].T @ eb[1:]
    p = qubit_permutation(spec.n, cut.perm_order)
    basis_a = Triplets.of(basis_a)
    return JointStructure(cut=cut, basis_a=basis_a, perm=p, n=spec.n, system_es=Eigensystem(
        lam.reshape(-1), kron(basis_a, Triplets.of(basis_b), perm=p)))


def _swap_entries(omega, p, beta):
    """Unsorted entries (row, col, val) of the Metropolis swap generator at ``beta``.

    The swap maps e -> p[e] (an involution) in a basis where the joint
    Hamiltonian is diagonal, moving the energy of e by ``omega[e]``.
    """
    d = omega.size
    nus, slot = np.unique(omega, return_inverse=True)  # omega takes few distinct values
    coeff = alpha_table(nus, WeightFunction("metropolis", beta))
    r = np.arange(d * d, dtype=np.int32)  # int32, as the indices of Triplets
    i, j = r % d, r // d  # vec index r = i + d*j
    si, sj = slot[i], slot[j]
    # sandwich: out[(i,j)] reads X at the swapped element, weighted by alpha(omega_i, omega_j);
    # anticommutator with D = diag(alpha(omega, omega)): (D_i + D_j) / 2 on the diagonal
    th = np.diagonal(coeff)
    return (np.concatenate([r, r]), np.concatenate([p[i] + d * p[j], r]),
            np.concatenate([coeff[si, sj], -0.5 * (th[si] + th[sj])]))


def _local_swap(js: JointStructure):
    """The A-register swap p of the labeled joint basis and its frequencies E[p] - E, E of H (x) I."""
    E = np.repeat(js.system_es.eigenvalues, js.d_a)
    p = _swap_permutation(js.d_a, js.d_b)
    return E[p] - E, p


def swap_generator_closed_form(js: JointStructure, beta) -> Superoperator:
    """Closed-form swap generator on the joint space of ``js``.

    Acts on C^{2^n} (x) C^{d_A} in the original site ordering and is stored in
    the labeled |i_A j_B m_A> basis it is assembled in, with its Gibbs state
    ``joint_gibbs(js, beta)``; dissipative only (the coherent part vanishes
    identically for the swap coupling).
    """
    return Superoperator(canonical(*_swap_entries(*_local_swap(js), beta), js.joint_dim**2),
                         joint_gibbs(js, beta))


def swap_generator_generic(js: JointStructure, beta) -> Superoperator:
    """Swap generator via the generic construction; cross-validates the closed form.

    ``build_ckg_generator`` is applied to the swap P_J^dag U P_J (P_J = P (x) I_A,
    one entry per column) with the labeled |i_A j_B m_A> vectors as the eigenbasis
    of H_joint = H (x) I + I: the generator does not depend on the eigenbasis chosen
    in a degenerate eigenspace, so the two compare entry by entry in one basis.
    """
    es = Eigensystem(np.repeat(js.system_es.eigenvalues, js.d_a) + 1.0,
                     kron(js.system_es.eigenvectors, js.basis_a))
    pj = (js.perm[:, None] * js.d_a + np.arange(js.d_a)).reshape(-1)
    swap = canonical(pj[_swap_permutation(js.d_a, js.d_b)], pj, np.ones(pj.size), pj.size)
    return build_ckg_generator(es, [swap], WeightFunction("metropolis", beta))


def lift(M, dims, factor):
    """Entries (row, col, val) of L on one factor of C^dims[0] (x) C^dims[1], identity on the other.

    ``M`` is the Triplets of L on factor ``factor`` (0 or 1).  The lift is
    the kron of M with the identity superoperator of the other factor, whose
    index pair (r1, r2), r1 = i + d1*j and r2 = c + d2*b, is relabeled to
    the joint vec index (i*d2 + c) + d1*d2*(j*d2 + b) = J[0][r1] + J[1][r2].
    The relabeling is one to one, so each position appears once and no
    value is zero, as in M; the entries are not sorted (see ``_replica_pair``).
    """
    d1, d2 = dims
    r1, r2 = np.arange(d1 * d1, dtype=np.int32), np.arange(d2 * d2, dtype=np.int32)
    J = [(r1 % d1) * d2 + d1 * d2 * d2 * (r1 // d1), r2 % d2 + d1 * d2 * (r2 // d2)]
    own, rest = J[factor], J[1 - factor]  # int32, as the indices of Triplets
    return ((own[M.row][:, None] + rest).ravel(), (own[M.col][:, None] + rest).ravel(),
            np.repeat(M.val, rest.size))


def _product(s1: GibbsState, s2: GibbsState, plan=None):
    """s1 (x) s2, diagonal in the kron of their bases, at the inverse temperature of s1."""
    return GibbsState(np.kron(s1.weights, s2.weights), kron(s1.basis, s2.basis, plan), s1.beta)


def _replica_pair(L1, L2, omega, p, beta_swap, plan=None) -> Superoperator:
    """L1 (x) Id + Id (x) L2 + the Metropolis swap at ``beta_swap``, stored in the kron of their bases.

    ``omega`` and ``p`` are the swap's frequencies and permutation there
    (``_swap_entries``).  One ``canonical`` sums each duplicate run in the
    order swap, L1, L2.  The generator carries L1.sigma (x) L2.sigma.
    """
    dims = (L1.dim, L2.dim)
    parts = [_swap_entries(omega, p, beta_swap), lift(L1.local, dims, 0), lift(L2.local, dims, 1)]
    M = canonical(*(np.concatenate(x) for x in zip(*parts)), L1.local.side * L2.local.side, plan)
    return Superoperator(M, _product(L1.sigma, L2.sigma, plan))


def build_replica_exchange_generator(js: JointStructure, w: WeightFunction,
                                     plan=None) -> Superoperator:
    """local_A joint generator L1 (x) Id + Id (x) L2 + L_swap on observables.

    The system couplings are all single-site Paulis; the auxiliary is a
    trivial-Hamiltonian copy of A with its own single-site Paulis; both use
    the weight ``w``.  The swap exchanges the A registers (closed form, at
    ``w.beta``).  The result is stored in the labeled |i_A j_B m_A> basis
    of ``js`` with the joint Gibbs state ``joint_gibbs(js, w.beta)``.
    """
    L1 = build_ckg_generator(js.system_es, single_site_paulis(js.n), w, plan)
    L2 = build_ckg_generator(js.aux_es, single_site_paulis(js.n_a), w, plan)
    return _replica_pair(L1, L2, *_local_swap(js), w.beta, plan)


def joint_gibbs(js: JointStructure, beta):
    """Gibbs state sigma_H (x) I_A / d_A of H (x) I_A, diagonal in the labeled basis."""
    return _product(gibbs_state(js.system_es, beta), gibbs_state(js.aux_es, beta))


def check_global_size(n):
    """Raise ValueError when the global two-replica generator on n sites is too large to build."""
    if n > 4:
        raise ValueError("global swap gated at n <= 4")


def build_global_replica_generator(es: Eigensystem, w: WeightFunction, beta2,
                                   plan=None) -> Superoperator:
    """Two full replicas at (w.beta, beta2) coupled by the global swap, stored in U (x) U.

    ``es`` is the eigensystem of H.  Replica 1 uses the weight ``w``,
    replica 2 the same kind at ``beta2``; the swap piece is the closed-form
    Metropolis swap for the Hamiltonian w.beta H (x) I + beta2 I (x) H at
    unit temperature.  Its Gibbs state is ``global_gibbs(es, w.beta, beta2)``.
    """
    n, d_n = es.dim.bit_length() - 1, es.dim
    check_global_size(n)
    L1 = build_ckg_generator(es, single_site_paulis(n), w, plan)
    L2 = build_ckg_generator(es, single_site_paulis(n), WeightFunction(w.kind, beta2), plan)
    lam = es.eigenvalues
    E = (w.beta * lam[:, None] + beta2 * lam[None, :]).reshape(-1)
    p = _swap_permutation(d_n, 1)
    return _replica_pair(L1, L2, E[p] - E, p, 1.0, plan)


def global_gibbs(es: Eigensystem, beta, beta2):
    """sigma_beta (x) sigma_beta2, diagonal in the U (x) U of ``build_global_replica_generator``."""
    return _product(gibbs_state(es, beta), gibbs_state(es, beta2))


def _sector_basis(js: JointStructure, phi):
    """Orthonormal basis of Phi(K (x) I_A) in vec coordinates of the labeled basis.

    Columns: Phi of |i><i| (x) I_B (x) I_A for each i, then of
    |i><i'| (x) |b><v| (x) I_A for i != i' and all b, v.  Each has entries
    phi[r] at the vec indices r = e + D*e' of its (row e, column e') pairs.
    The supports are disjoint, so normalizing each column makes the basis
    orthonormal.  Returns each vec index's column (-1 outside) and entry
    there, and the part of each column: 0 for diag_A, 1 for offA_diagB
    (b = v) and 2 for offA_offB (b != v).
    """
    d_a, d_b, D = js.d_a, js.d_b, js.joint_dim
    e = np.arange(D).reshape(d_a, d_b, d_a)  # labeled joint index e(a, b, c)
    diag = (e * (D + 1)).reshape(d_a, -1)
    off = e[:, None, :, None, :] + D * e[None, :, None, :, :]  # [i, i', b, v, c]
    off = off[~np.eye(d_a, dtype=bool)].reshape(-1, d_a)
    rows = np.concatenate([diag.ravel(), off.ravel()])
    cols = np.concatenate([np.repeat(np.arange(d_a), diag.shape[1]),
                           d_a + np.repeat(np.arange(off.shape[0]), d_a)])
    vals = phi[rows]
    norm = np.sqrt(np.bincount(cols, vals**2))
    column, entry = np.full(D * D, -1), np.zeros(D * D)
    column[rows], entry[rows] = cols, vals / norm[cols]
    b_diag = np.tile(np.eye(d_b, dtype=bool).ravel(), d_a * (d_a - 1))
    return column, entry, np.concatenate([np.zeros(d_a, int), np.where(b_diag, 1, 2)])


def swap_sector_analysis(js: JointStructure, swap):
    """Kernel, cross terms and sector minima of the swap generator on K (x) I_A, all exact.

    ``swap`` is the caller's closed-form swap generator of ``js``, with the
    joint Gibbs state sigma = swap.sigma; one L_hat serves every part.  K is
    the joint kernel of the A-diagonal-restricted system generator and the
    auxiliary generator: spanned by |i_A><i_A| (x) I_B together with all
    A-off-diagonal blocks.  Every number is read off the compression
    R = -Q^T L_hat Q onto that sector (``_sector_basis``): the kernel of R;
    the cross terms, the spectral norm of the block of R between two parts
    over ``kms_norm``, the KMS operator norm of the swap generator that
    scales the kernel and cross-term tests; and the least KMS Rayleigh
    quotient of -L_swap on each part, the least eigenvalue of its block of
    R.  On diag_A that is the second one, since Phi(I), sigma-orthogonal to
    the rest of the part, spans the block's kernel.  The minima come with the
    conservative theorem-style threshold 1 / (4 d_A exp(4 beta K V_max)) at
    beta = sigma.beta.
    """
    sigma = swap.sigma
    Lhat = symmetrize(swap)
    scale = max(np.abs(block_eigvalsh(Lhat)).max(), 1e-300)
    column, entry, part = _sector_basis(js, kms_scaling(sigma))
    r, c = column[Lhat.row], column[Lhat.col]  # Q^T L_hat Q: Q's column supports are disjoint
    e = (r >= 0) & (c >= 0)
    R = -canonical(r[e], c[e], entry[Lhat.row[e]] * Lhat.val[e] * entry[Lhat.col[e]], part.size)
    evals = block_eigvalsh(R)
    diag_a, off_a, off_diag, off_off = part == 0, part > 0, part == 1, part == 2

    def cross(rows, cols):
        b = rows[R.row] & cols[R.col]  # the entries of R between the two parts
        return float(spectral_norm(Triplets(R.row[b], R.col[b], R.val[b], R.side)) / scale)

    def least(rows, k=0):
        return float(block_eigvalsh(R.restrict(rows))[k])

    return {
        "restricted_kernel_dim": int(np.sum(evals <= KERNEL_TOL * scale)),
        "restricted_evals_head": [float(v) for v in evals[:5]],
        "cross_term_residuals": {"diagA_vs_offA": cross(diag_a, off_a),
                                 "offA_vs_diagA": cross(off_a, diag_a),
                                 "offdiagB_vs_offoffB": cross(off_diag, off_off),
                                 "offoffB_vs_offdiagB": cross(off_off, off_diag)},
        "sector_dim": part.size,
        "kms_norm": float(scale),
        "sector_minima": {"diag_A": least(diag_a, 1), "offA_diagB": least(off_diag),
                          "offA_offB": least(off_off)},
        "threshold": float(1.0 / (4.0 * js.bound_scale(sigma.beta))),
    }
