"""Independent reference checks that the library's own routes replace.

These re-derive numbers the library computes another way, so they live here
as test oracles only:

* ``partial_lindbladian_check`` builds one pinned-A generator per
  A-eigenvector from the compressed Hamiltonian <i_A|H|i_A> and checks its
  factorization and fixed point; the smallest of their gaps is g_B, which
  ``qrex.spectral.a_diagonal_restriction_gap`` reads off one generator.  It
  reorders the sites with its own dense permutation matrix
  (``qubit_permutation_matrix``), where the library gathers by the index
  array of ``qrex.pauli.qubit_permutation``.
* ``local_swap_unitary`` and ``swap_unitary_original`` form the A-register
  swap as dense matrices, by transposing the identity's row index;
  ``qrex.replica.swap_generator_generic`` hands ``build_ckg_generator`` the
  swap as its one entry per column.
* ``joint_hamiltonian`` forms H (x) I + I on the joint space, whose Gibbs
  state the library builds diagonal in the labeled basis
  (``qrex.replica.joint_gibbs``), the columns of ``joint_basis``.
* ``global_replica_generator_generic`` is the global two-temperature
  generator with its swap piece from ``build_ckg_generator`` applied to the
  dense swap unitary over the grouped joint Bohr frequencies;
  ``qrex.replica.build_global_replica_generator`` takes the swap in closed
  form, as the local_A builder does.
* ``swap_sector_analysis_dense`` is ``qrex.replica.swap_sector_analysis``
  the direct way: the K (x) I_A sector basis from nested Kronecker
  products, orthonormalized by QR, and the same slices of the dense
  compression of L_hat.  The library scatters that basis at its vec
  indices and compresses the sparse L_hat.  ``sector_rayleigh_quotients``
  samples the sector parts with random operators (``random_off_a``), the
  KMS inner product summed from the joint Gibbs weights (``kms_diag``):
  each quotient bounds the exact minimum from above.
* ``detailed_balance_residual`` probes KMS self-adjointness with random
  operator pairs; the library's detailed-balance check is the Hermiticity
  residual of the blocks of L_hat in ``qrex.spectral.block_eigh``.
* ``kms_inner`` and ``sigma_power`` form the KMS inner product and the
  fractional powers of sigma densely, from ``GibbsState.basis`` and
  ``GibbsState.weights``.
* ``first_crossing_time`` bisects one state at a time, its distance the
  eigenvalues of rho(t) - sigma rotated out of sigma.basis;
  ``qrex.mixing.first_crossing_times`` runs the same rule for a whole family
  at once in sigma.basis, deciding by a trace-norm sandwich first.
  ``trace_distance`` takes the distance from singular values.
* ``chi_square_rate_fit_expm`` propagates the gap mode by one dense matrix
  exponential per time (``expm_flow``); ``qrex.mixing.chi_square_rate_fit``
  uses one ``np.linalg.eig`` of the generator for every time.  Its gap mode
  comes from ``_gap_and_mode``, which decomposes -L_hat itself;
  ``qrex.mixing._gap_and_mode`` reads the mode off the caller's
  ``SpectralPropagator``.
* The computational-basis surface, which the library does not have: every
  ``Superoperator`` is stored in the basis its Gibbs state ``sigma`` is
  diagonal in.  ``matrix`` is the dense computational-basis matrix of a
  generator, rotated out of its stored basis by ``congruence``, the
  leg-wise O(d^5) basis change, and ``apply`` its action on one
  observable.  ``evolve`` propagates one state through a
  ``SpectralPropagator``, and ``expm_flow`` by a dense matrix exponential
  of the stored matrix.
* ``component_labels_csgraph`` and ``blocks_csgraph`` label the connected
  components of a pattern with ``scipy.sparse.csgraph``, and
  ``blocks_csgraph`` pairs them by transposing each component's index set;
  ``qrex.spectral._component_labels`` hooks and jumps pointers in numpy,
  and ``qrex.spectral._conjugate_pairs`` maps each component's least index.
  ``unpaired`` drops the pairing mark of an L_hat, so ``block_eigh`` solves
  every block, the reference for the one-block-per-pair route.
* ``csr_entries``, ``lift_kron`` and ``hermitian_part_csr`` are the
  scipy.sparse expressions that ``qrex.lindblad.canonical``,
  ``qrex.replica.lift`` and ``qrex.spectral.block_eigh`` replace:
  ``coo_array(...).tocsr()`` with its zeros eliminated, the relabeled
  ``sparse.kron`` with an identity, and ``(A + A^dag) / 2`` of a CSR array
  with its Hermiticity residual.  ``block_eigh`` takes that part block by
  block: ``hermitian_stacks`` records the blocks its eigh receives,
  ``refused_at`` whether its gate refuses A at a given bound before any
  eigensolve (``no_eigensolve``), and ``assert_gate_at`` brackets the
  residual by that bound.

* ``v_max_svd`` is the largest spectral norm of a cut's V_A (x) V_B from the
  singular values of its factors; ``qrex.hamiltonians.check_commuting_cut``
  reads it off the crossing terms' coefficients.
* ``kron_all`` builds a Pauli string as a product of Kronecker factors;
  ``qrex.pauli.pauli_string`` holds its d phases as ``Triplets``, whose
  ``toarray`` is ``pauli_string_matrix``.
* ``trace_norm_bounds`` forms the sandwich sum_i |Y_ii| <= ||Y||_1 <=
  sum_ij |Y_ij| from whole matrices; ``qrex.mixing.SupportBounds`` takes
  it from the entries on a support.
* ``bohr_groups_all_pairs`` groups all d^2 Bohr frequencies of an
  eigensystem into a d x d table; ``qrex.lindblad.group_frequencies``
  groups only the frequencies of the coupling entries the assembly keeps.
  ``jump_components`` splits a coupling into its energy-resolved
  components over the all-pairs groups and ``coherent_term`` sums the
  coherent part G over Bohr pairs, both loop-based and in the computational
  basis; ``qrex.lindblad.build_ckg_generator`` assembles the same terms
  entry-wise in the eigenbasis.

* ``bottleneck_ratio_whole_table`` is the exact Cheeger constant, minimized
  over the whole (2^m, m) subset table of ``subset_masks`` at once;
  ``qrex.classical.bottleneck_ratio`` takes the sweep cut of the slow mode,
  an upper bound on it that needs no enumeration.
  ``alpha_quadrature_whole_cube`` evaluates both panel rules on the whole
  (points, 2 * panels, 15) node cube, with the one-exponential integrand or
  the product of its three factors, the transition weight ``weight`` and
  two Gaussian filters ``filter_fhat``; ``qrex.lindblad.alpha_quadrature`` runs
  the same formulas a fixed-size chunk at a time.
* ``glauber_generator_dense`` and ``classical_re_generator_dense`` build the
  classical chains as dense rate matrices (the replica chain as ``np.kron``
  products) and ``classical_gap_dense`` solves the whole symmetrized chain;
  ``qrex.classical`` emits the rates as sparse triplets and solves the two
  sectors of the global spin flip apart.  ``dense_generator`` is the dense
  ``Q`` of a ``ClassicalChain``.

Helpers that only the tests use live here too: ``gap_mode_state``, the
Pauli decomposition ``pauli_decompose``/``pauli_support``, and
``bottleneck_witness``, the sector weights and jump containment of a
defect bond (no scenario reports it).
"""

from contextlib import contextmanager
from functools import reduce
from itertools import product
from unittest import mock

import numpy as np
from scipy import sparse
from scipy.linalg import expm, solve_triangular
from scipy.sparse.csgraph import connected_components

import qrex.spectral
from qrex.hamiltonians import assemble, compress_onto
from qrex.lindblad import (
    BOHR_GROUP_TOL,
    QUAD_PANELS,
    QUAD_PANELS_FINE,
    Eigensystem,
    GibbsState,
    Superoperator,
    Triplets,
    WeightFunction,
    alpha_coeff,
    alpha_integrand,
    build_ckg_generator,
    canonical,
    eigensystem,
    gibbs_state,
    unvec,
    vec,
)
from qrex.mixing import BISECTION_RTOL, SpectralPropagator, _check_state, chi_square
from qrex.pauli import PAULIS, pauli_string, single_site_paulis
from qrex.replica import (
    check_global_size,
    joint_structure,
    lift,
    swap_generator_closed_form,
)
from qrex.spectral import (
    block_eigh,
    block_eigvalsh,
    gap_from_eigenvalues,
    kms_scaling,
    spectral_gap,
    symmetrize,
)


def assemble_dense(spec):
    """The Hamiltonian of ``spec`` as a dense complex128 matrix: ``assemble`` scattered."""
    return assemble(spec).toarray().astype(complex)


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


def matrix(L):
    """Dense computational-basis matrix of the Superoperator L, rotated out of its stored basis."""
    U = L.sigma.basis.toarray()
    return congruence(L.local.toarray(), U.conj().T, U)


def apply(L, X):
    """L(X) for an observable X in the computational basis, through the stored basis of L."""
    return L.sigma.from_basis(unvec(L.local @ vec(L.sigma.to_basis(X))))


def evolve(L, rho0, t):
    """rho0 propagated to time t under e^{t L^dag} by one ``SpectralPropagator`` of L.

    rho0 is checked as ``qrex.mixing.mixing_time_estimate`` checks a custom
    family state.
    """
    rho0 = _check_state(rho0, L.dim, "rho0")
    prop = SpectralPropagator(L)
    return prop.state_at(prop.coefficients([rho0]), t)[0]


def expm_flow(L, rho0, t):
    """e^{t L^dag}(rho0) by a dense matrix exponential in the generator's own basis."""
    flow = expm(t * L.local.toarray().conj().T)
    return L.sigma.from_basis(unvec(flow @ vec(L.sigma.to_basis(rho0))))


def sigma_power(sigma, p):
    """sigma^p as a dense matrix: U diag(weights^p) U^dag."""
    U = sigma.basis.toarray()
    return (U * sigma.weights**p) @ U.conj().T


def qubit_permutation_matrix(n, order):
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


def local_swap_unitary(d_a, d_b):
    """Dense permutation exchanging the two A registers of C^{d_a} (x) C^{d_b} (x) C^{d_a}:
    the identity with its row index (a, b, c) read as (c, b, a)."""
    d = d_a * d_b * d_a
    return np.eye(d, dtype=complex).reshape(d_a, d_b, d_a, d).transpose(2, 1, 0, 3).reshape(d, d)


def swap_unitary_original(js):
    """The local swap in the original joint ordering (basis independent).

    P_J^dag U P_J for the site reordering P_J = P (x) I_A, i.e. the entries
    of U scattered to the rows and columns p_J.
    """
    pj = (js.perm[:, None] * js.d_a + np.arange(js.d_a)).reshape(-1)
    U = local_swap_unitary(js.d_a, js.d_b)
    out = np.empty_like(U)
    out[np.ix_(pj, pj)] = U
    return out


def joint_basis(js):
    """The labeled |i_A j_B m_A> vectors in the original joint ordering, as columns."""
    return np.kron(js.system_es.eigenvectors.toarray(), js.basis_a.toarray())


def joint_hamiltonian(spec):
    """H (x) I_A + I on the local_A joint space: its Gibbs state is the joint generator's fixed point."""
    H = assemble_dense(spec)
    d_a = 2 ** len(spec.partition[0])
    return np.kron(H, np.eye(d_a)) + np.eye(H.shape[0] * d_a)


def _b_position_couplings(n_a, n_b):
    """Single-site Paulis on the B positions of an A-first ordered register."""
    return single_site_paulis(n_a + n_b, sites=range(n_a, n_a + n_b))


def partial_lindbladian_check(spec, w: WeightFunction, n_random=10, seed=77, js=None):
    """Factorization, fixed point, and gap of the pinned-A generators at the temperature w.beta.

    For every A-eigenvector the generator built from B-site couplings must
    factor through the compressed Hamiltonian <i_A|H|i_A>, its fixed point
    must match the compressed Gibbs state, and the per-block gaps give g_B.
    ``js`` is the replica.JointStructure of spec, computed here when not
    given; it supplies the product labels, which this carries into the
    A-first ordering with its own permutation matrix.
    """
    if js is None:
        js = joint_structure(spec)
    basis = js.basis_a.toarray()
    n = spec.n
    n_a = len(spec.partition[0])
    n_b = n - n_a
    d_a, d_b = 2**n_a, 2**n_b
    P = qubit_permutation_matrix(n, list(js.cut.perm_order))
    H_perm = P @ assemble_dense(spec) @ P.conj().T
    # H_perm is diagonal in the product labels |i_A j_B> with eigenvalues lam2
    lam, W = js.lam2.reshape(-1), P @ js.system_es.eigenvectors.toarray()
    if np.linalg.norm(W.conj().T @ H_perm @ W - np.diag(lam)) > 1e-10 * max(1.0, abs(lam).max()):
        raise ValueError("the labels do not diagonalize H in the A-first ordering")
    es_full = Eigensystem(lam, Triplets.of(W))
    L_b = build_ckg_generator(es_full, _b_position_couplings(n_a, n_b), w)
    # unnormalized exp(-beta H) for the compressed-Gibbs comparison
    expH = (W * np.exp(-w.beta * (lam - lam.min()))) @ W.conj().T

    rng = np.random.default_rng(seed)
    rows = []
    for i in range(d_a):
        v = basis[:, i]
        proj = np.outer(v, v.conj())
        H_i = compress_onto(H_perm, v, ((tuple(range(n_a))), tuple(range(n_a, n))), n)
        es_i = eigensystem(H_i)
        L_i = build_ckg_generator(es_i, single_site_paulis(n_b), w)
        resid = 0.0
        for _ in range(n_random):
            O = rng.standard_normal((d_b, d_b)) + 1j * rng.standard_normal((d_b, d_b))
            lhs = apply(L_b, np.kron(proj, O))
            rhs = np.kron(proj, apply(L_i, O))
            resid = max(resid, np.linalg.norm(lhs - rhs) / max(1.0, np.linalg.norm(lhs)))
        sigma_i = gibbs_state(es_i, w.beta)
        comp = compress_onto(expH, v, ((tuple(range(n_a))), tuple(range(n_a, n))), n)
        comp = comp / np.trace(comp)
        sv = np.linalg.svd(sigma_i.sigma - comp, compute_uv=False)
        fixed_point_mismatch = float(np.sum(sv))
        gap_i = spectral_gap(L_i).gap
        rows.append(
            {
                "i_a": i,
                "factorization_residual": float(resid),
                "fixed_point_mismatch": fixed_point_mismatch,
                "gap": gap_i,
            }
        )
    return {
        "rows": rows,
        "g_b": min(r["gap"] for r in rows),
        "max_factorization_residual": max(r["factorization_residual"] for r in rows),
        "max_fixed_point_mismatch": max(r["fixed_point_mismatch"] for r in rows),
    }


def labeled_sigma_weights(js, beta):
    """Diagonal of the joint Gibbs state in the labeled basis: s(a,b)/d_a."""
    lam = js.lam2
    w = np.exp(-beta * (lam - lam.min()))
    w /= w.sum()
    s3 = np.repeat(w.reshape(-1), js.d_a) / js.d_a
    return w, s3


def kms_diag(Xv, Yv, s3):
    """KMS inner product for vectorized operators when sigma is diagonal."""
    d = s3.size
    X = Xv.reshape(d, d, order="F")
    Y = Yv.reshape(d, d, order="F")
    r = np.sqrt(s3)
    return complex(np.einsum("i,ij,j,ij->", r, X.conj(), r, Y))


def random_off_a(rng, d_a, d_b, b_part):
    """Random X (x) I_A, a dense matrix in the labeled basis, with zero A-diagonal blocks.

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


def swap_sector_analysis_dense(js, beta):
    """``qrex.replica.swap_sector_analysis`` with a Kronecker-built, Cholesky-orthonormalized basis.

    Each basis operator is a nested sparse Kronecker product, vectorized and
    scaled by Phi, one column of C.  With G = C^dag C = F F^dag (Cholesky;
    F^dag is the R factor of C's QR), Q = C F^-dag is orthonormal, and every
    number is the library's slice of the dense R = -Q^dag L_hat Q.
    """
    d_a, d_b = js.d_a, js.d_b
    S = swap_generator_closed_form(js, beta)
    L = symmetrize(S)
    Lhat = sparse.csr_array((L.val, (L.row, L.col)), shape=(L.side, L.side))
    phi, D = kms_scaling(S.sigma), js.joint_dim

    def unit(i, j, d):
        E = np.zeros((d, d))
        E[i, j] = 1.0
        return E

    def vec_support(op):
        """The vec indices i + D*j of the entries (i, j) of op, all equal to 1."""
        i, j = np.nonzero(op)
        return i + D * j

    cols, parts = [], []
    for i in range(d_a):
        cols.append(vec_support(np.kron(np.kron(unit(i, i, d_a), np.eye(d_b)), np.eye(d_a))))
        parts.append("diag_A")
    for i, ip in product(range(d_a), repeat=2):
        for b, v in product(range(d_b), repeat=2):
            if i != ip:
                cols.append(vec_support(np.kron(np.kron(unit(i, ip, d_a), unit(b, v, d_b)),
                                                np.eye(d_a))))
                parts.append("offA_diagB" if b == v else "offA_offB")
    C = sparse.csc_array((np.concatenate([phi[r] for r in cols]),
                          (np.concatenate(cols), np.repeat(np.arange(len(cols)),
                                                           [r.size for r in cols]))),
                         shape=(D * D, len(cols)))
    F = np.linalg.cholesky((C.T.conj() @ C).toarray())
    B = (C.T.conj() @ (Lhat @ C)).toarray()  # C^dag L_hat C
    X = solve_triangular(F, B, lower=True)  # F^-1 B
    R = -solve_triangular(F, X.conj().T, lower=True).conj().T  # -F^-1 B F^-dag
    R = 0.5 * (R + R.conj().T)
    evals = np.linalg.eigvalsh(R)
    scale = max(np.abs(block_eigvalsh(L)).max(), 1e-300)
    parts = np.array(parts)
    diag_a, off_a = parts == "diag_A", parts != "diag_A"
    off_diag, off_off = parts == "offA_diagB", parts == "offA_offB"

    def cross(rows, cols):
        return float(np.linalg.norm(R[np.ix_(rows, cols)], 2) / scale)

    def least(rows, k=0):
        return float(np.linalg.eigvalsh(R[np.ix_(rows, rows)])[k])

    return {
        "restricted_kernel_dim": int(np.sum(evals <= 1e-9 * scale)),
        "restricted_evals_head": [float(v) for v in evals[:5]],
        "cross_term_residuals": {"diagA_vs_offA": cross(diag_a, off_a),
                                 "offA_vs_diagA": cross(off_a, diag_a),
                                 "offdiagB_vs_offoffB": cross(off_diag, off_off),
                                 "offoffB_vs_offdiagB": cross(off_off, off_diag)},
        "sector_dim": len(cols),
        "sector_minima": {"diag_A": least(diag_a, 1), "offA_diagB": least(off_diag),
                          "offA_offB": least(off_off)},
        "threshold": float(1.0 / (4.0 * d_a * np.exp(4.0 * beta * js.cut.k_count
                                                      * js.cut.v_max))),
    }


def sector_rayleigh_quotients(js, beta, seed=42, n_random=20):
    """KMS Rayleigh quotients of -L_swap at ``n_random`` random operators of each sector part.

    The KMS products are summed from the Gibbs weights (``kms_diag``); the
    diag_A operators are sigma-orthogonal to the identity.  Any such quotient
    bounds the part's minimum from above.
    """
    d_a, d_b = js.d_a, js.d_b
    M = swap_generator_closed_form(js, beta).local
    w2, s3 = labeled_sigma_weights(js, beta)
    rng = np.random.default_rng(seed)
    eye_b, eye_a = np.eye(d_b), np.eye(d_a)

    def quotient(X):
        Xv = X.reshape(-1, order="F")
        return -kms_diag(Xv, M @ Xv, s3).real / kms_diag(Xv, Xv, s3).real

    out = {"diag_A": [], "offA_diagB": [], "offA_offB": []}
    marg = w2.sum(axis=1)  # A-marginal of the Gibbs weights
    for _ in range(n_random):
        a = rng.standard_normal(d_a)
        a -= np.dot(marg, a) / marg.sum()  # sigma-orthogonal to the identity
        out["diag_A"].append(quotient(np.kron(np.kron(np.diag(a), eye_b), eye_a)))
        out["offA_diagB"].append(quotient(random_off_a(rng, d_a, d_b, "diag")))
        out["offA_offB"].append(quotient(random_off_a(rng, d_a, d_b, "off")))
    return out


def global_replica_generator_generic(es, w: WeightFunction, beta2):
    """``qrex.replica.build_global_replica_generator`` with the swap by the generic construction.

    ``build_ckg_generator`` is applied to the dense swap unitary, with U (x) U
    as the eigenbasis of w.beta H (x) I + beta2 I (x) H, at unit temperature;
    the library takes the swap in closed form from the swap frequencies.
    """
    n, d_n = es.dim.bit_length() - 1, es.dim
    check_global_size(n)
    L1 = build_ckg_generator(es, single_site_paulis(n), w)
    L2 = build_ckg_generator(es, single_site_paulis(n), WeightFunction(w.kind, beta2))
    lam, U = es.eigenvalues, es.eigenvectors.toarray()
    sigma = GibbsState(np.kron(gibbs_state(es, w.beta).weights, gibbs_state(es, beta2).weights),
                       Triplets.of(np.kron(U, U)), w.beta)
    es_swap = Eigensystem((w.beta * lam[:, None] + beta2 * lam[None, :]).reshape(-1), sigma.basis)
    swap = build_ckg_generator(es_swap, [local_swap_unitary(d_n, 1)],
                               WeightFunction("metropolis", 1.0)).local
    parts = [(swap.row, swap.col, swap.val), lift(L1.local, (d_n, d_n), 0),
             lift(L2.local, (d_n, d_n), 1)]
    return Superoperator(canonical(*(np.concatenate(x) for x in zip(*parts)), swap.side), sigma)


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


def kms_inner(X, Y, sigma):
    """KMS inner product Tr[sigma^{1/2} X^dag sigma^{1/2} Y]."""
    s = sigma_power(sigma, 0.5)
    return complex(np.trace(s @ X.conj().T @ s @ Y))


def detailed_balance_residual(L, n_pairs=20, seed=2024):
    """Max KMS self-adjointness violation over a seeded batch of operator pairs.

    The KMS products are those of the Gibbs state L.sigma.  Normalized by
    the KMS norms of the pair and a power-iteration estimate of ||L||; zero
    maps return 0.
    """
    sigma = L.sigma
    if sigma.lambda_min <= 0:
        raise ValueError("sigma must be full rank")
    d = L.dim
    norm_est = _superop_norm_estimate(L.local.toarray())  # the basis change is unitary
    if norm_est == 0.0:
        return 0.0
    rng = np.random.default_rng(seed)
    worst = 0.0
    for _ in range(n_pairs):
        Xr = rng.standard_normal((d, d)) + 1j * rng.standard_normal((d, d))
        Yr = rng.standard_normal((d, d)) + 1j * rng.standard_normal((d, d))
        lhs = kms_inner(Xr, apply(L, Yr), sigma)
        rhs = kms_inner(apply(L, Xr), Yr, sigma)
        nx = np.sqrt(abs(kms_inner(Xr, Xr, sigma)))
        ny = np.sqrt(abs(kms_inner(Yr, Yr, sigma)))
        worst = max(worst, abs(lhs - rhs) / (nx * ny * norm_est))
    return float(worst)


def trace_distance(rho, sigma_mat):
    """||rho - sigma||_1 from the singular values of the difference."""
    return float(np.sum(np.linalg.svd(rho - sigma_mat, compute_uv=False)))


def trace_norm_bounds(Y):
    """Exact bounds sum_i |Y_ii| <= ||Y||_1 <= sum_ij |Y_ij| for each matrix of a stack.

    The trace norm dominates the diagonal's l1 norm, and is at most the sum
    of the trace norms |Y_ij| of the rank-one pieces Y_ij e_i e_j^T.
    """
    A = np.abs(Y)
    return np.trace(A, axis1=-2, axis2=-1), A.sum(axis=(-2, -1))


def first_crossing_time(prop, rho0, epsilon, t_cap):
    """Earliest t with ||rho(t) - sigma||_Tr <= epsilon for one state, by bisection.

    The per-state rule that ``qrex.mixing.first_crossing_times`` runs for a
    whole family at once: the distance is the sum of |eigenvalues| of the
    Hermitian rho(t) - sigma, rotated out of sigma.basis, with no sandwich.
    """
    sig = prop.sigma.sigma
    coeffs = prop.coefficients([np.asarray(rho0, dtype=complex)])

    def dist(t):
        return float(np.abs(np.linalg.eigvalsh(prop.state_at(coeffs, t)[0] - sig)).sum())

    if dist(0.0) <= epsilon:
        return 0.0
    hi = t_cap
    grow = 0
    while dist(hi) > epsilon:
        hi *= 2.0
        grow += 1
        if grow > 6:
            raise RuntimeError("bisection bracket failed; state not converging")
    lo = 0.0
    while hi - lo > BISECTION_RTOL * hi:
        mid = 0.5 * (lo + hi)
        if dist(mid) <= epsilon:
            hi = mid
        else:
            lo = mid
    return float(hi)


def _gap_and_mode(L):
    """Spectral gap and slow-mode state sigma + alpha Y from its own eigendecomposition of -L_hat.

    Y is the gap eigenoperator carried to the Schrodinger side and scaled so
    sigma + alpha Y is a valid state (alpha = lambda_min / 2).
    ``qrex.mixing._gap_and_mode`` reads the same mode off the blocks of the
    caller's ``SpectralPropagator``.  Every block of -L_hat is solved here,
    through the general Hermitian route (``unpaired``).
    """
    sigma = L.sigma
    blocks = block_eigh(unpaired(-symmetrize(L)))
    evals = np.concatenate([w.ravel() for _, w, _, _ in blocks])
    order = np.argsort(evals, kind="stable")
    rep = gap_from_eigenvalues(evals[order])
    # the eigenvector of the kernel_dim-th eigenvalue, taken from its block
    k = order[rep.kernel_dim]
    x = np.zeros(evals.size, dtype=complex)
    for idx, w, V, _ in blocks:
        if k < w.size:
            c, j = divmod(k, w.shape[1])
            x[idx[c]] = V[c, :, j]
            break
        k -= w.size
    U = sigma.basis.toarray()
    # U Phi(x) U^dag = sigma^{1/2} X sigma^{1/2} for the KMS eigenoperator X of L
    Z = U @ unvec(kms_scaling(sigma) * x) @ U.conj().T
    Y = Z + Z.conj().T
    if np.linalg.norm(Y) < 1e-12:
        Y = 1j * (Z - Z.conj().T)
    Y /= np.linalg.norm(Y, 2)
    alpha = sigma.lambda_min / 2.0
    return rep.gap, sigma.sigma + alpha * Y


def unpaired(A):
    """The Triplets A without the ``paired`` mark: ``block_eigh`` then solves every block."""
    return Triplets(A.row, A.col, A.val, A.side)


def gap_mode_state(L):
    """The slow-mode perturbed state sigma + alpha Y used for lower bounds.

    Y is the gap eigenoperator carried to the Schrodinger side and scaled so
    sigma + alpha Y is a valid state (alpha = lambda_min / 2).
    """
    return _gap_and_mode(L)[1]


def chi_square_rate_fit_expm(L):
    """Decay rate of chi-square from the gap mode, propagated by dense expm at each of 8 times.

    ``qrex.mixing.chi_square_rate_fit`` fits the same 8 points in
    [1/gap, 3/gap] from one ``np.linalg.eig`` of the generator.
    """
    gap, rho0 = _gap_and_mode(L)
    ts = np.linspace(1.0 / gap, 3.0 / gap, 8)
    logs = [np.log(chi_square(expm_flow(L, rho0, t), L.sigma)) for t in ts]
    return float(-np.polyfit(ts, logs, 1)[0])


def component_labels_csgraph(n, rows, cols):
    """Weakly connected component of each vertex of the edges (rows[e], cols[e]), by csgraph."""
    graph = sparse.coo_array((np.ones(len(rows)), (rows, cols)), shape=(n, n))
    return connected_components(graph, directed=True, connection="weak")[1]


def blocks_csgraph(A):
    """The (idx, sub, twin) triples of ``qrex.spectral._blocks``, one csgraph component at a time.

    Components of each size are stacked in label order, their indices
    ascending, and each block is cut from A held as a CSR array, so no dense
    copy of A is made.  For a ``paired`` A the partner of a component is
    the set of its transposed vec indices (i + d j -> j + d i); a component
    is kept when its least index is at most its partner's, and is a twin
    when the partner is another component.
    """
    paired = isinstance(A, Triplets) and A.paired
    A = sparse.coo_array((A.val, (A.row, A.col)), shape=A.shape) if isinstance(A, Triplets) \
        else sparse.coo_array(A)
    A.sum_duplicates()
    nz = A.data != 0
    label = component_labels_csgraph(A.shape[0], A.row[nz], A.col[nz])
    csr = A.tocsr()
    d = int(round(np.sqrt(A.shape[0])))
    by_label = np.argsort(label, kind="stable")
    members, twins = [], []
    for m in np.split(by_label, np.cumsum(np.bincount(label))[:-1]):
        partner = np.sort((m % d) * d + m // d)
        if paired and partner[0] < m[0]:
            continue
        members.append(m)
        twins.append(paired and not np.array_equal(partner, m))
    out = []
    for b in sorted({m.size for m in members}):
        keep = [c for c, m in enumerate(members) if m.size == b]
        idx = np.array([members[c] for c in keep])
        out.append((idx, np.stack([csr[m][:, m].toarray() for m in idx]),
                    np.array([twins[c] for c in keep], dtype=bool)))
    return out


def csr_entries(row, col, val, side):
    """(row, col, val) of coo_array((val, (row, col))).tocsr() with its exact zeros eliminated."""
    A = sparse.coo_array((val, (row, col)), shape=(side, side)).tocsr()
    A.sum_duplicates()
    A.eliminate_zeros()
    return np.repeat(np.arange(side), np.diff(A.indptr)), A.indices, A.data


def lift_kron(M, dims, factor):
    """The dense matrix of ``qrex.replica.lift``: a sparse kron of M with the identity, relabeled."""
    d1, d2 = dims
    eye = sparse.eye_array(dims[1 - factor] ** 2)
    K = sparse.kron(*((M, eye) if factor == 0 else (eye, M)), format="coo")
    j, i, b, c = np.indices((d1, d1, d2, d2)).reshape(4, -1)  # kron index, C order
    joint = (i * d2 + c) + d1 * d2 * (j * d2 + b)
    return sparse.coo_array((K.data, (joint[K.row], joint[K.col])), shape=K.shape).toarray()


def hermitian_part_csr(A):
    """(A + A^dag) / 2 and ||A - A^dag|| / max(1, ||A||) of the scipy CSR array A, dense."""
    Ah = A.conj().T
    resid = np.linalg.norm((A - Ah).data) / max(1.0, np.linalg.norm(A.data))
    H = A + Ah
    H *= 0.5
    return H.toarray(), float(resid)


def hermitian_stacks(A):
    """The blocks that ``qrex.spectral.block_eigh(A)`` hands to eigh, written into a dense matrix.

    The detailed-balance gate is lifted for the call, and each block is
    written at its indices as ``np.linalg.eigh`` receives it; a partner
    block, which is never formed, stays zero.
    """
    seen, eigh = [], np.linalg.eigh

    def spy(sub):
        seen.append(sub.copy())
        return eigh(sub)

    with mock.patch.object(qrex.spectral, "HERMITICITY_TOL", np.inf), \
            mock.patch.object(np.linalg, "eigh", spy):
        groups = block_eigh(A)
    H = np.zeros(A.shape, dtype=seen[0].dtype)
    for (idx, _, _, _), stack in zip(groups, seen):
        for i, block in zip(idx, stack):
            H[np.ix_(i, i)] = block
    return H


def assert_gate_at(A, resid, rel):
    """``block_eigh`` refuses A under a bound ``rel`` below ``resid`` and accepts it ``rel`` above."""
    if resid == 0.0:
        assert not refused_at(A, 0.0)
    else:
        assert refused_at(A, resid * (1 - rel)) and not refused_at(A, resid * (1 + rel))


def refused_at(A, tol):
    """Whether ``block_eigh(A)`` refuses A as not detailed balanced when HERMITICITY_TOL is tol.

    No eigensolver may run first (``no_eigensolve``).
    """
    with mock.patch.object(qrex.spectral, "HERMITICITY_TOL", tol), no_eigensolve():
        try:
            block_eigh(A)
        except AssertionError:
            return False
        except ValueError as exc:
            if "not detailed balanced" in str(exc):
                return True
            raise
    return False


@contextmanager
def no_eigensolve():
    """np.linalg.eigh and eigvalsh raise AssertionError while the context is open."""
    stop = AssertionError("eigensolve before the detailed-balance gate")
    with mock.patch.object(np.linalg, "eigh", side_effect=stop), \
            mock.patch.object(np.linalg, "eigvalsh", side_effect=stop):
        yield


def v_max_svd(cut):
    """max_k ||V_A^k (x) V_B^k||_2 of a CutReport: the singular values of a kron are the
    products of its factors'."""
    return max((np.linalg.norm(va, 2) * np.linalg.norm(vb, 2) for va, vb in cut.interaction),
               default=0.0)


def pauli_string_matrix(n, factors, coeff=1.0):
    """Dense matrix of the Pauli string ``qrex.pauli.pauli_string``."""
    return pauli_string(n, factors, coeff).toarray()


def kron_all(mats):
    """Kronecker product of a sequence of matrices, left factor most significant."""
    mats = list(mats)
    if not mats:
        return np.eye(1, dtype=complex)
    return reduce(np.kron, mats)


def pauli_decompose(M, n, tol=1e-12):
    """Decompose a 2^n-dim matrix into Pauli strings: {label_tuple: coeff}.

    Keys are tuples like ((site, 'X'), ...) listing only non-identity factors.
    Exponential in n; intended for small diagnostics (n <= 6 or so).
    """
    dim = 2**n
    if M.shape != (dim, dim):
        raise ValueError("matrix dimension does not match qubit count")
    coeffs = {}
    for labels in product("IXYZ", repeat=n):
        P = kron_all(PAULIS[c] for c in labels)
        c = np.trace(P.conj().T @ M) / dim
        if abs(c) > tol:
            key = tuple((s, lab) for s, lab in enumerate(labels) if lab != "I")
            coeffs[key] = c
    return coeffs


def pauli_support(M, n, tol=1e-10):
    """Set of sites on which M acts non-trivially, via Pauli decomposition."""
    supp = set()
    for key in pauli_decompose(M, n, tol=tol):
        supp.update(s for s, _ in key)
    return supp


def dense(S):
    """A coupling as a dense complex matrix; ``Triplets`` (a Pauli string) through ``toarray``."""
    return np.asarray(S.toarray() if isinstance(S, Triplets) else S, dtype=complex)


def bohr_groups_all_pairs(lam):
    """(bohr, gid): every Bohr frequency lam[i] - lam[j] grouped, gid[i, j] its group.

    Two differences land in the same group iff they are within
    BOHR_GROUP_TOL * max(1, max |lam|) after transitive chaining of the
    sorted differences; ``bohr`` holds each group's mean, and the group of
    the diagonal differences is exactly 0.0.
    """
    lam = np.asarray(lam, dtype=float)
    tol = BOHR_GROUP_TOL * max(1.0, float(np.abs(lam).max()))
    diffs = (lam[:, None] - lam[None, :]).reshape(-1)
    order = np.argsort(diffs, kind="stable")
    # a new group starts wherever consecutive sorted differences exceed tol
    group_of_sorted = np.concatenate(([0], np.cumsum(np.diff(diffs[order]) > tol)))
    gid = np.empty(diffs.size, dtype=np.int64)
    gid[order] = group_of_sorted
    bohr = np.bincount(gid, weights=diffs) / np.bincount(gid)
    bohr[gid[0]] = 0.0  # the group of lam[0] - lam[0]
    return bohr, gid.reshape(lam.size, lam.size)


def jump_components(S, es: Eigensystem):
    """Energy-resolved components {nu: S_nu} with sum_nu S_nu = S exactly.

    Keys are the representatives of ``bohr_groups_all_pairs``; components
    are returned in the original (computational) basis.
    """
    U = es.eigenvectors.toarray()
    St = U.conj().T @ dense(S) @ U
    out = {}
    bohr, gid = bohr_groups_all_pairs(es.eigenvalues)
    for g, nu in enumerate(bohr):
        mask = gid == g
        if not mask.any():
            continue
        comp = np.where(mask, St, 0.0)
        out[float(nu)] = U @ comp @ U.conj().T
    return out


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


def subset_masks(m, start, stop):
    """Rows start..stop-1 of the (2^m, m) table whose row s holds the bits of s,
    least significant first, as 0.0/1.0."""
    idx = np.arange(start, stop, dtype="<u4")
    bits = np.unpackbits(idx.view(np.uint8).reshape(-1, 4), axis=1, count=m, bitorder="little")
    return bits.astype(float)


def dense_generator(chain):
    """The dense rate matrix Q of a ``qrex.classical.ClassicalChain``: its rates, less the
    row sums on the diagonal."""
    Q = chain.rates.toarray()
    Q[np.diag_indices_from(Q)] -= Q.sum(axis=1)
    return Q


def glauber_generator_dense(energy_fn, n_spins, beta):
    """(Q, pi) of the single-spin-flip Metropolis chain, built densely spin by spin."""
    states = 1 - 2 * ((np.arange(2**n_spins)[:, None] >> np.arange(n_spins)[::-1]) & 1)
    E = np.asarray(energy_fn(states), dtype=float)
    m = E.size
    Q = np.zeros((m, m))
    idx = np.arange(m)
    for s in range(n_spins):
        flipped = idx ^ (1 << (n_spins - 1 - s))
        Q[idx, flipped] += np.minimum(1.0, np.exp(-beta * (E[flipped] - E)))
    Q[idx, idx] = -Q.sum(axis=1)
    w = np.exp(-beta * (E - E.min()))
    return Q, w / w.sum()


def classical_re_generator_dense(energy_fn, n_spins, beta1, beta2):
    """(Q, pi) of the replica chain as dense np.kron products of the two Glauber chains plus
    the swaps (x1, x2) -> (x2, x1) at rate min(1, e^{(b1-b2)(H(x1)-H(x2))}), state x1 m + x2."""
    (Q1, pi1), (Q2, pi2) = (glauber_generator_dense(energy_fn, n_spins, b) for b in (beta1, beta2))
    m = pi1.size
    E = np.asarray(energy_fn(1 - 2 * ((np.arange(m)[:, None] >> np.arange(n_spins)[::-1]) & 1)),
                   dtype=float)
    Q = np.kron(Q1, np.eye(m))
    for x1 in range(m):  # + kron(I, Q2), block by block
        Q[x1 * m:(x1 + 1) * m, x1 * m:(x1 + 1) * m] += Q2
    x1, x2 = np.divmod(np.arange(m * m), m)
    moving = x1 != x2
    here, swapped = (x1 * m + x2)[moving], (x2 * m + x1)[moving]
    rates = np.minimum(1.0, np.exp((beta1 - beta2) * (E[x1] - E[x2])))[moving]
    Q[here, swapped] += rates
    Q[here, here] -= rates
    return Q, np.kron(pi1, pi2)


def classical_gap_dense(Q, pi):
    """Second-smallest eigenvalue of the whole pi-symmetrized -Q, S = (S' + S'^T) / 2 with
    S' = diag(sqrt pi) (-Q) diag(sqrt pi)^{-1}, by one dense ``eigvalsh``, and ||S||.

    Q is overwritten.  ``eigvalsh`` reads the lower triangle only, so only that
    triangle of S is formed, a block of columns at a time.
    """
    r = np.sqrt(pi)
    Q *= -r[:, None]
    Q /= r[None, :]
    for a in range(0, Q.shape[0], 256):
        b = a + 256
        Q[a:, a:b] = 0.5 * (Q[a:, a:b] + Q[a:b, a:].T)
    evals = np.linalg.eigvalsh(Q)
    return float(evals[1]), float(np.abs(evals).max())


def bottleneck_ratio_whole_table(chain):
    """Exact Cheeger constant (phi, members) of a chain from its whole subset table at once."""
    Q = dense_generator(chain)
    pi = chain.stationary
    m = chain.rates.side
    flow = pi[:, None] * (Q - np.diag(np.diag(Q)))
    masks = subset_masks(m, 1, 2**m - 1)  # skip empty and full
    p = masks @ pi
    cross = np.einsum("sj,sj->s", masks @ flow, 1.0 - masks)  # nonnegative terms only
    valid = p <= 0.5 + 1e-15
    ratios = np.where(valid, cross / np.where(p > 0, p, 1.0), np.inf)
    best = int(np.argmin(ratios))
    members = tuple(np.nonzero(masks[best] > 0)[0].tolist())
    return float(ratios[best]), members


def weight(omega, w: WeightFunction):
    """Evaluate the transition weight gamma(omega); accepts scalars or arrays."""
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


def alpha_quadrature_whole_cube(nu1, nu2, w: WeightFunction, factors=False):
    """Both composite panel rules of ``qrex.lindblad.alpha_quadrature`` on the whole node cube.

    The integrand is ``qrex.lindblad.alpha_integrand``, one exp of the summed
    exponents; with ``factors`` it is the product of the three factors
    ``weight * filter_fhat * filter_fhat`` instead.  Returns the (coarse, fine)
    results, shaped like the broadcast inputs.
    """
    nu1, nu2 = np.broadcast_arrays(np.asarray(nu1, dtype=float), np.asarray(nu2, dtype=float))
    v1, v2 = nu1.reshape(-1), nu2.reshape(-1)
    b = w.beta
    lo = np.minimum(v1, v2)[:, None] - 12.0 / b
    hi = np.maximum(v1, v2)[:, None] + 12.0 / b
    cut = np.clip(-0.5 / b, lo, hi) if w.kind == "metropolis" else hi
    gl_nodes, gl_weights = np.polynomial.legendre.leggauss(15)

    def rule(panels):
        t = np.linspace(0.0, 1.0, panels + 1)
        edges = np.concatenate([lo + (cut - lo) * t, cut + (hi - cut) * t[1:]], axis=-1)
        half = 0.5 * np.diff(edges, axis=-1)  # [points, 2 * panels]
        nodes = (edges[:, :-1] + half)[..., None] + half[..., None] * gl_nodes
        if factors:
            vals = weight(nodes, w) * filter_fhat(nodes - v1[:, None, None], b) \
                * filter_fhat(nodes - v2[:, None, None], b)
        else:
            vals = alpha_integrand(nodes, v1, v2, w)
        return np.sum(half * (vals @ gl_weights), axis=-1).reshape(nu1.shape)

    return rule(QUAD_PANELS), rule(QUAD_PANELS_FINE)


def bottleneck_witness(spec, sites, beta):
    """Sector weights and jump containment for a -J Z_i Z_j defect bond.

    Projectors split the space by the (z_i, z_j) alignment pattern; with
    single-site couplings one jump of the Metropolis generator cannot cross
    from the misaligned sector straight between the two aligned ones, so
    Pi_A L(Pi_C) must vanish.
    """
    i, j = sites
    n = spec.n
    defect_terms = [
        t for t in spec.terms
        if t.support == {i, j} and all(lab == "Z" for _, lab in t.factors)
    ]
    if not defect_terms:
        raise ValueError(f"no ZZ bond on sites {sites}")
    J = -sum(t.coefficient for t in defect_terms)
    H = assemble_dense(spec)
    bond = pauli_string_matrix(n, [(i, "Z"), (j, "Z")], -J)
    H_rest = H - bond
    for s in (i, j):
        Zs = pauli_string_matrix(n, [(s, "Z")])
        comm = H_rest @ Zs - Zs @ H_rest
        if np.linalg.norm(comm) > 1e-10 * max(1.0, np.linalg.norm(H_rest)):
            raise ValueError(f"rest Hamiltonian does not commute with Z on site {s}")

    dim = 2**n
    idx = np.arange(dim)
    z_i = 1 - 2 * ((idx >> (n - 1 - i)) & 1)
    z_j = 1 - 2 * ((idx >> (n - 1 - j)) & 1)
    pi_a = np.diag(((z_i == 1) & (z_j == 1)).astype(float))
    pi_c = np.diag(((z_i == -1) & (z_j == -1)).astype(float))
    pi_b = np.eye(dim) - pi_a - pi_c

    L = build_ckg_generator(eigensystem(H), single_site_paulis(n),
                            WeightFunction("metropolis", beta))
    sg = L.sigma
    out = apply(L, pi_c)
    scale = max(1.0, np.linalg.norm(out))
    containment = (np.linalg.norm(pi_a @ out) + np.linalg.norm(out @ pi_a)) / scale
    return {
        "J": float(J),
        "weights": {
            "A": float(np.real(np.trace(pi_a @ sg.sigma))),
            "B": float(np.real(np.trace(pi_b @ sg.sigma))),
            "C": float(np.real(np.trace(pi_c @ sg.sigma))),
        },
        "containment_residual": float(containment),
    }
