"""The eigenbasis-stored generators against the dense reference route.

The reference builds every superoperator the direct way: one gather per
coupling for the sandwich and the anticommutator/coherent cores, the dense
rotation kron(U^*, U) M kron(U^*, U)^dag out of the eigenbasis, the dense
KMS symmetrization kron(s4^T, s4) M kron(s4i^T, s4i), and K M K^dag for the
swap generator's labeled basis.  It costs O(d^6) and is kept here only as an
oracle for the leg-wise O(d^5) route of the library.  Likewise the dense
eigh of the whole L_hat is the oracle for the block eigensolves that gaps,
norms and propagation use.
"""

import numpy as np
import pytest

from qrex.hamiltonians import assemble_dense, defected_ising_1d
from qrex.lindblad import (
    Superoperator,
    WeightFunction,
    _alpha_table,
    build_ckg_generator,
    congruence,
    eigensystem,
    gibbs_state,
    unvec,
    vec,
)
from qrex.mixing import SpectralPropagator
from qrex.pauli import single_site_paulis
from qrex.replica import (
    SwapMode,
    _swap_superop_labeled,
    build_replica_exchange_generator,
    joint_gibbs,
    joint_structure,
    superop_kron_left,
    superop_kron_right,
    swap_generator_closed_form,
)
from qrex.spectral import KERNEL_TOL, kms_operator_norm, spectral_gap, symmetrize

GM = WeightFunction("metropolis", 1.0)
GG = WeightFunction("gaussian", 1.0)
RTOL = 1e-12


def dense_ckg(H, couplings, w):
    """Heisenberg generator in the computational basis, gathered per coupling."""
    H = np.asarray(H, dtype=complex)
    d = H.shape[0]
    es = eigensystem(H)
    U = es.eigenvectors
    gid = es.gid
    eye = np.eye(d)
    tilted, used = [], set()
    for S in couplings:
        St = U.conj().T @ np.asarray(S, dtype=complex) @ U
        cut = 1e-13 * max(np.abs(St).max(), 1e-300)
        St = np.where(np.abs(St) > cut, St, 0.0)
        tilted.append(St)
        used.update(np.unique(gid[np.abs(St) > 0]).tolist())
    M = np.zeros((d * d, d * d), dtype=complex)
    idx, table = _alpha_table(used, es, w)
    slot = np.zeros(es.bohr.size, dtype=np.int64)
    for g, k in idx.items():
        slot[g] = k
    sg = slot[gid]
    nus = es.bohr[sorted(used)]
    Ktab = (np.tanh(-w.beta * (nus[:, None] - nus[None, :]) / 4.0) / 2.0j) * table
    G = np.zeros((d, d), dtype=complex)
    N = np.zeros((d, d), dtype=complex)
    for St in tilted:
        A4 = table[sg.T[:, :, None, None], sg.T[None, None, :, :]]
        T = A4 * St.conj().T[:, :, None, None] * St.T[None, None, :, :]
        M += T.transpose(2, 0, 3, 1).reshape(d * d, d * d)
        B3 = table[sg[:, :, None], sg[:, None, :]]
        N += np.einsum("ki,kj,kij->ij", St.conj(), St, B3)
        K3 = Ktab[sg[:, None, :], sg[:, :, None]]
        G += np.einsum("ki,kj,kij->ij", St.conj(), St, K3)
    M -= 0.5 * (np.kron(eye, N) + np.kron(N.T, eye))
    M += 1j * (np.kron(eye, G) - np.kron(G.T, eye))
    W = np.kron(U.conj(), U)
    return W @ M @ W.conj().T


def dense_conjugate(M, V):
    """Matrix of X -> V L(V^dag X V) V^dag."""
    K = np.kron(V.conj(), V)
    return K @ M @ K.conj().T


def dense_symmetrize(M, sigma):
    s4, s4i = sigma.power(0.25), sigma.power(-0.25)
    Lhat = np.kron(s4.T, s4) @ M @ np.kron(s4i.T, s4i)
    return 0.5 * (Lhat + Lhat.conj().T)


def dense_gap(M, sigma):
    evals = np.linalg.eigvalsh(-dense_symmetrize(M, sigma))
    kernel = int(np.sum(evals <= KERNEL_TOL * np.abs(evals).max()))
    return float(evals[kernel]), kernel


def dense_propagation(M, sigma):
    """Eigenvalues, coefficient map and state map of one dense eigh of L_hat."""
    evals, modes = np.linalg.eigh(dense_symmetrize(M, sigma))
    s4, s4i = sigma.power(0.25), sigma.power(-0.25)

    def coefficients(rho0):
        return modes.conj().T @ vec(s4i @ rho0 @ s4i)

    def state_at(c, t):
        rho = s4 @ unvec(modes @ (np.exp(t * evals) * c)) @ s4
        return 0.5 * (rho + rho.conj().T)

    return evals, coefficients, state_at


def assert_close(actual, expected, rtol=RTOL):
    assert np.linalg.norm(actual - expected) <= rtol * np.linalg.norm(expected)


def check_against_oracle(L, M_dense, sigma, seed=0):
    """.matrix, .apply, .apply_adjoint, symmetrize and spectral_gap vs the dense route."""
    assert_close(L.matrix, M_dense)
    d = L.dim
    rng = np.random.default_rng(seed)
    X = rng.standard_normal((d, d)) + 1j * rng.standard_normal((d, d))
    assert_close(L.apply(X), unvec(M_dense @ vec(X)))
    assert_close(L.apply_adjoint(X), unvec(M_dense.conj().T @ vec(X)))
    assert_close(symmetrize(L, sigma), dense_symmetrize(M_dense, sigma))
    rep = spectral_gap(L, sigma)
    gap, kernel = dense_gap(M_dense, sigma)
    assert rep.kernel_dim == kernel
    assert rep.gap == pytest.approx(gap, rel=RTOL)


@pytest.mark.parametrize("w", [GM, GG], ids=["metropolis", "gaussian"])
@pytest.mark.parametrize("n", [3, 4])
def test_ckg_generator_matches_dense_route(n, w):
    H = assemble_dense(defected_ising_1d(n, 2.0))
    es = eigensystem(H)
    heis = build_ckg_generator(H, single_site_paulis(n), w, es=es)
    assert heis.basis is es.eigenvectors
    M_dense = dense_ckg(H, single_site_paulis(n), w)
    check_against_oracle(heis, M_dense, gibbs_state(es, w.beta), seed=n)


@pytest.mark.parametrize("w", [GM, GG], ids=["metropolis", "gaussian"])
def test_ckg_generator_with_coherent_term_matches_dense_route(w):
    # on the classical Ising ring the coherent term vanishes for single-site
    # Pauli couplings; a transverse field makes it nonzero
    n = 3
    H = assemble_dense(defected_ising_1d(n, 2.0)) + 0.7 * sum(single_site_paulis(n)[0::3])
    es = eigensystem(H)
    heis = build_ckg_generator(H, single_site_paulis(n), w, es=es)
    M_dense = dense_ckg(H, single_site_paulis(n), w)
    check_against_oracle(heis, M_dense, gibbs_state(es, w.beta), seed=5)


def test_closed_form_swap_matches_dense_route():
    spec = defected_ising_1d(3, 2.0)
    heis = swap_generator_closed_form(spec, 1.0)
    js = joint_structure(spec)
    M_dense = dense_conjugate(_swap_superop_labeled(js, 1.0), js.labeled_to_original())
    check_against_oracle(heis, M_dense, joint_gibbs(spec, 1.0))


def test_local_a_joint_generator_matches_dense_route():
    spec = defected_ising_1d(3, 3.0)
    js = joint_structure(spec)
    d_a, d_n = js.d_a, 2**spec.n
    heis = build_replica_exchange_generator(spec, 1.0, GG, GG, SwapMode("local_A"))
    M_dense = superop_kron_left(dense_ckg(assemble_dense(spec), single_site_paulis(3), GG), d_a)
    M_dense += superop_kron_right(dense_ckg(np.eye(d_a), single_site_paulis(2), GG), d_n)
    M_dense += dense_conjugate(_swap_superop_labeled(js, 1.0), js.labeled_to_original())
    check_against_oracle(heis, M_dense, joint_gibbs(spec, 1.0))


def transverse_field_ring(n=3):
    return assemble_dense(defected_ising_1d(n, 2.0)) + 0.7 * sum(single_site_paulis(n)[0::3])


@pytest.mark.parametrize("H, n, single_block", [
    (assemble_dense(defected_ising_1d(3, 2.0)), 3, False),
    (assemble_dense(defected_ising_1d(4, 2.0)), 4, False),
    (transverse_field_ring(3), 3, True),
], ids=["ring3", "ring4", "transverse3"])
def test_block_eigensolves_match_dense_eigh(H, n, single_block):
    es = eigensystem(H)
    heis = build_ckg_generator(H, single_site_paulis(n), GM, es=es)
    sg = gibbs_state(es, 1.0)
    M_dense = dense_ckg(H, single_site_paulis(n), GM)
    evals, coefficients, state_at = dense_propagation(M_dense, sg)
    prop = SpectralPropagator(heis, sg)
    sizes = [idx.shape for idx, _, _ in prop.blocks]
    assert (sizes == [(1, 4**n)]) == single_block
    scale = np.abs(evals).max()
    assert np.abs(prop.evals - evals).max() <= RTOL * scale

    rng = np.random.default_rng(n)
    R = rng.standard_normal((2**n, 2**n)) + 1j * rng.standard_normal((2**n, 2**n))
    rho0 = R @ R.conj().T / np.trace(R @ R.conj().T)
    c_dense, c = coefficients(rho0), prop.coefficients(rho0)
    # eigenvectors within a degenerate eigenspace are free, so the coefficients
    # are compared through their spectral measure sum_j |c_j|^2 exp(t lambda_j)
    w_blocks = np.concatenate([w.ravel() for _, w, _ in prop.blocks])
    c_blocks = np.concatenate([x.ravel() for x in c])
    for t in (0.0, 0.5, 3.0):
        measure = np.sum(np.abs(c_blocks) ** 2 * np.exp(t * w_blocks))
        assert measure == pytest.approx(np.sum(np.abs(c_dense) ** 2 * np.exp(t * evals)),
                                        rel=RTOL)
        assert_close(prop.state_at(c, t), state_at(c_dense, t))

    assert kms_operator_norm(heis, sg) == pytest.approx(-evals[0], rel=RTOL)
    rep = spectral_gap(heis, sg)
    gap, kernel = dense_gap(M_dense, sg)
    assert rep.kernel_dim == kernel
    assert rep.gap == pytest.approx(gap, rel=RTOL)


def test_congruence_matches_kron_products():
    rng = np.random.default_rng(3)
    d = 3
    M = rng.standard_normal((d * d, d * d)) + 1j * rng.standard_normal((d * d, d * d))
    P = rng.standard_normal((d, d)) + 1j * rng.standard_normal((d, d))
    R = rng.standard_normal((d, d)) + 1j * rng.standard_normal((d, d))
    expected = np.kron(P.T, P.conj().T) @ M @ np.kron(R.T, R.conj().T)
    assert_close(congruence(M, P, R), expected)


def test_symmetrize_in_another_basis():
    H = assemble_dense(defected_ising_1d(3, 2.0))
    es = eigensystem(H)
    heis = build_ckg_generator(H, single_site_paulis(3), GM, es=es)
    sg = gibbs_state(es, 1.0)
    rng = np.random.default_rng(4)
    V, _ = np.linalg.qr(rng.standard_normal((8, 8)) + 1j * rng.standard_normal((8, 8)))
    expected = dense_conjugate(dense_symmetrize(dense_ckg(H, single_site_paulis(3), GM), sg),
                               V.conj().T)
    assert_close(symmetrize(heis, sg, V), expected)


def test_basis_side_must_match_matrix():
    with pytest.raises(ValueError, match="basis"):
        Superoperator(np.zeros((16, 16), dtype=complex), basis=np.eye(3))
    with pytest.raises(ValueError):
        Superoperator(np.zeros((12, 12), dtype=complex))


def test_perturbed_generator_not_detailed_balanced():
    # the perturbed generator of test_spectral's test_non_db_rejected
    H = assemble_dense(defected_ising_1d(3, 2.0))
    es = eigensystem(H)
    heis = build_ckg_generator(H, single_site_paulis(3), GM, es=es)
    sg = gibbs_state(es, 1.0)
    rng = np.random.default_rng(2)
    R = rng.standard_normal(heis.matrix.shape)
    bad = Superoperator(heis.matrix + 1e-2 * np.linalg.norm(heis.matrix, 2) * R / np.linalg.norm(R, 2))
    with pytest.raises(ValueError, match="not detailed balanced"):
        symmetrize(bad, sg)
    with pytest.raises(ValueError, match="not detailed balanced"):
        spectral_gap(bad, sg)
