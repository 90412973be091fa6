"""The eigenbasis-stored generators against the dense reference route.

The reference builds every superoperator the direct way: one gather per
coupling for the sandwich and the anticommutator/coherent cores, the dense
rotation kron(U^*, U) M kron(U^*, U)^dag out of the eigenbasis, the dense
KMS symmetrization kron(s4^T, s4) M kron(s4i^T, s4i), and K M K^dag for the
swap generator's labeled basis.  It costs O(d^6) and is kept here only as an
oracle for the leg-wise O(d^5) basis change of ``oracles.matrix`` and the
diagonal KMS scaling of the library.  A matrix summed in the computational
basis is carried into the basis its Gibbs state is diagonal in and stored
with that state (``in_sigma_basis``) before its gap is taken, since the
library symmetrizes only there.  Likewise the dense eigh of the whole L_hat
is the oracle for the block eigensolves that gaps, norms and propagation
use, and the joint
generator summed in the computational basis (identity-einsum lifts of each
piece's ``matrix``, Gibbs state from an eigh of the joint Hamiltonian) is
the oracle for the labeled-basis assembly.
"""

import numpy as np
import pytest

import qrex.harness
import qrex.lindblad
import qrex.replica
from qrex.hamiltonians import (
    HamiltonianSpec,
    PauliTerm,
    assemble_dense,
    defected_heisenberg_2d,
    defected_ising_1d,
)
from qrex.harness import run_scenario, validate_config
from qrex.lindblad import (
    Eigensystem,
    Superoperator,
    Triplets,
    WeightFunction,
    alpha_coeff,
    build_ckg_generator,
    eigenbasis_entries,
    eigensystem,
    gibbs_state,
    unvec,
    vec,
)
from qrex.mixing import SpectralPropagator
from qrex.pauli import PAULI_LABELS, single_site_paulis
from qrex.replica import (
    build_global_replica_generator,
    build_replica_exchange_generator,
    global_gibbs,
    joint_gibbs,
    joint_structure,
    swap_generator_closed_form,
)
from qrex.spectral import (
    KERNEL_TOL,
    a_diagonal_restriction_gap,
    block_eigh,
    block_eigvalsh,
    gap_from_eigenvalues,
    spectral_gap,
    symmetrize,
)

from oracles import (
    apply,
    bohr_groups_all_pairs,
    congruence,
    dense,
    joint_basis,
    joint_hamiltonian,
    matrix,
    pauli_string_matrix,
    sigma_power,
    swap_unitary_original,
)

GM = WeightFunction("metropolis", 1.0)
GG = WeightFunction("gaussian", 1.0)
RTOL = 1e-12


def dense_ckg(H, couplings, w):
    """Heisenberg generator in the computational basis, gathered per coupling."""
    H = np.asarray(H, dtype=complex)
    d = H.shape[0]
    es = eigensystem(H)
    U = es.eigenvectors
    bohr, gid = bohr_groups_all_pairs(es.eigenvalues)
    eye = np.eye(d)
    tilted, used = [], set()
    for S in couplings:
        St = U.conj().T @ dense(S) @ U
        cut = 1e-13 * max(np.abs(St).max(), 1e-300)
        St = np.where(np.abs(St) > cut, St, 0.0)
        tilted.append(St)
        used.update(np.unique(gid[np.abs(St) > 0]).tolist())
    M = np.zeros((d * d, d * d), dtype=complex)
    nus = bohr[sorted(used)]
    table = alpha_coeff(nus[:, None], nus[None, :], w)
    slot = np.zeros(bohr.size, dtype=np.int64)
    for k, g in enumerate(sorted(used)):
        slot[g] = k
    sg = slot[gid]
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
    s4, s4i = sigma_power(sigma, 0.25), sigma_power(sigma, -0.25)
    Lhat = np.kron(s4.T, s4) @ M @ np.kron(s4i.T, s4i)
    return 0.5 * (Lhat + Lhat.conj().T)


def dense_gap(M, sigma):
    evals = np.linalg.eigvalsh(-dense_symmetrize(M, sigma))
    kernel = int(np.sum(evals <= KERNEL_TOL * np.abs(evals).max()))
    return float(evals[kernel]), kernel


def dense_propagation(M, sigma):
    """Eigenvalues, coefficient map and state map of one dense eigh of L_hat."""
    evals, modes = np.linalg.eigh(dense_symmetrize(M, sigma))
    s4, s4i = sigma_power(sigma, 0.25), sigma_power(sigma, -0.25)

    def coefficients(rho0):
        return modes.conj().T @ vec(s4i @ rho0 @ s4i)

    def state_at(c, t):
        rho = s4 @ unvec(modes @ (np.exp(t * evals) * c)) @ s4
        return 0.5 * (rho + rho.conj().T)

    return evals, coefficients, state_at


def superop_kron_left(M, d2):
    """Matrix of L (x) Id_{d2} given the matrix of L on a d1-dim factor."""
    d1 = int(round(np.sqrt(M.shape[0])))
    T = M.reshape(d1, d1, d1, d1)  # [j, i, J, I]; vec index = i + d*j
    eye = np.eye(d2)
    out = np.einsum("jiJI,bB,cC->jbicJBIC", T, eye, eye, optimize=True)
    D = d1 * d2
    return out.reshape(D * D, D * D)


def superop_kron_right(M, d1):
    """Matrix of Id_{d1} (x) L given the matrix of L on a d2-dim factor."""
    d2 = int(round(np.sqrt(M.shape[0])))
    T = M.reshape(d2, d2, d2, d2)
    eye = np.eye(d1)
    out = np.einsum("aA,jiJI,cC->ajciAJCI", eye, T, eye, optimize=True)
    D = d1 * d2
    return out.reshape(D * D, D * D)


def computational_joint_sum(spec, beta, w1, w2):
    """local_A joint generator summed in the computational basis from each piece's matrix."""
    H = assemble_dense(spec)
    n_a = len(spec.partition[0])
    d_a, d_n = 2**n_a, H.shape[0]
    M = superop_kron_left(
        matrix(build_ckg_generator(eigensystem(H), single_site_paulis(spec.n), w1)), d_a)
    M += superop_kron_right(
        matrix(build_ckg_generator(eigensystem(np.eye(d_a)), single_site_paulis(n_a), w2)), d_n)
    M += matrix(swap_generator_closed_form(joint_structure(spec), beta))
    return M


def computational_global_sum(spec, beta, beta2, w1, w2):
    """global-mode generator summed in the computational basis, and its Gibbs state.

    The swap piece is the generic generator of the swap unitary for
    H_swap = beta H (x) I + beta2 I (x) H at unit temperature, whose Gibbs
    state sigma_beta (x) sigma_beta2 is returned with the matrix.
    """
    H = assemble_dense(spec)
    d_n = H.shape[0]
    paulis = single_site_paulis(spec.n)
    M = superop_kron_left(matrix(build_ckg_generator(eigensystem(H), paulis, w1)), d_n)
    M += superop_kron_right(
        matrix(build_ckg_generator(eigensystem(H), paulis, WeightFunction(w2.kind, beta2))), d_n)
    H_swap = beta * np.kron(H, np.eye(d_n)) + beta2 * np.kron(np.eye(d_n), H)
    swap = np.eye(d_n * d_n)[np.arange(d_n * d_n).reshape(d_n, d_n).T.reshape(-1)]
    es_swap = eigensystem(H_swap)
    M += matrix(build_ckg_generator(es_swap, [swap], WeightFunction("metropolis", 1.0)))
    return M, gibbs_state(es_swap, 1.0)


def computational_joint_gibbs(spec, beta):
    """Joint Gibbs state from an eigh of the joint Hamiltonian."""
    return gibbs_state(eigensystem(joint_hamiltonian(spec)), beta)


def in_sigma_basis(M, sigma):
    """The computational-basis matrix M as a Superoperator with the Gibbs state sigma, in its basis."""
    V = sigma.basis
    return Superoperator(congruence(M, V, V.conj().T), sigma)


def assert_close(actual, expected, rtol=RTOL):
    assert np.linalg.norm(actual - expected) <= rtol * np.linalg.norm(expected)


def check_against_oracle(L, M_dense, sigma, seed=0):
    """matrix, apply, .apply_adjoint, symmetrize and spectral_gap vs the dense route.

    L must carry the Gibbs state sigma, and is stored in the basis sigma is
    diagonal in; it is checked against the dense route carried into that
    basis.
    """
    assert_close(matrix(L), M_dense)
    d = L.dim
    rng = np.random.default_rng(seed)
    X = rng.standard_normal((d, d)) + 1j * rng.standard_normal((d, d))
    assert_close(apply(L, X), unvec(M_dense @ vec(X)))
    assert_close(L.apply_adjoint(X), unvec(M_dense.conj().T @ vec(X)))
    assert np.array_equal(L.basis, sigma.basis)
    assert np.array_equal(L.sigma.weights, sigma.weights)
    assert_close(symmetrize(L).toarray(),
                 dense_conjugate(dense_symmetrize(M_dense, sigma), L.basis.conj().T))
    gap, kernel = dense_gap(M_dense, sigma)
    # the swap alone has a large kernel; the reader refuses any other count
    rep = (spectral_gap(L) if kernel == 1
           else gap_from_eigenvalues(block_eigvalsh(-symmetrize(L)), kernel))
    assert rep.gap == pytest.approx(gap, rel=RTOL)


@pytest.mark.parametrize("w", [GM, GG], ids=["metropolis", "gaussian"])
@pytest.mark.parametrize("n", [3, 4])
def test_ckg_generator_matches_dense_route(n, w):
    H = assemble_dense(defected_ising_1d(n, 2.0))
    es = eigensystem(H)
    heis = build_ckg_generator(es, single_site_paulis(n), w)
    assert heis.basis is es.eigenvectors
    M_dense = dense_ckg(H, single_site_paulis(n), w)
    check_against_oracle(heis, M_dense, gibbs_state(es, w.beta), seed=n)


@pytest.mark.parametrize("w", [GM, GG], ids=["metropolis", "gaussian"])
def test_ckg_generator_with_coherent_term_matches_dense_route(w):
    # on the classical Ising ring the coherent term vanishes for single-site
    # Pauli couplings; a transverse field makes it nonzero
    n = 3
    H = assemble_dense(defected_ising_1d(n, 2.0))
    H += 0.7 * sum(pauli_string_matrix(n, [(s, "X")]) for s in range(n))
    es = eigensystem(H)
    heis = build_ckg_generator(es, single_site_paulis(n), w)
    M_dense = dense_ckg(H, single_site_paulis(n), w)
    check_against_oracle(heis, M_dense, gibbs_state(es, w.beta), seed=5)


def test_closed_form_swap_matches_dense_route():
    js = joint_structure(defected_ising_1d(3, 2.0))
    heis = swap_generator_closed_form(js, 1.0)
    M_dense = dense_conjugate(heis.local.toarray(), joint_basis(js))
    check_against_oracle(heis, M_dense, joint_gibbs(js, 1.0))


def test_local_a_joint_generator_matches_dense_route():
    spec = defected_ising_1d(3, 3.0)
    js = joint_structure(spec)
    d_a, d_n = js.d_a, 2**spec.n
    heis = build_replica_exchange_generator(js, GG)
    assert np.array_equal(heis.basis, joint_basis(js))
    M_dense = superop_kron_left(dense_ckg(assemble_dense(spec), single_site_paulis(3), GG), d_a)
    M_dense += superop_kron_right(dense_ckg(np.eye(d_a), single_site_paulis(2), GG), d_n)
    M_dense += dense_conjugate(swap_generator_closed_form(js, 1.0).local.toarray(), joint_basis(js))
    check_against_oracle(heis, M_dense, joint_gibbs(js, 1.0))


def hopping_cut_spec(J):
    """Three qubits, A = {0, 1} with XX + YY hopping, a ZZZ crossing term and a field on B.

    The commuting cut holds, but the A-side eigenbasis mixes |01> and |10>,
    so unlike the Ising ring the labeled basis is not a permutation, and the
    field breaks the global spin-flip symmetry.
    """
    terms = (PauliTerm(-1.0, ((0, "X"), (1, "X"))), PauliTerm(-1.0, ((0, "Y"), (1, "Y"))),
             PauliTerm(-float(J), ((0, "Z"), (1, "Z"), (2, "Z"))), PauliTerm(-0.5, ((2, "Z"),)))
    return HamiltonianSpec(n=3, terms=terms, partition=((0, 1), (2,)))


@pytest.mark.parametrize("spec", [defected_ising_1d(3, 1.0), defected_ising_1d(3, 5.0),
                                  hopping_cut_spec(2.0)], ids=["ring_J1", "ring_J5", "hopping"])
def test_labeled_joint_generator_matches_computational_sum(spec):
    js = joint_structure(spec)
    heis = build_replica_exchange_generator(js, GG)
    M_old = computational_joint_sum(spec, 1.0, GG, GG)
    assert_close(matrix(heis), M_old)
    d = heis.dim
    rng = np.random.default_rng(1)
    X = rng.standard_normal((d, d)) + 1j * rng.standard_normal((d, d))
    assert_close(apply(heis, X), unvec(M_old @ vec(X)))
    assert_close(heis.apply_adjoint(X), unvec(M_old.conj().T @ vec(X)))
    rep = spectral_gap(heis)
    old = spectral_gap(in_sigma_basis(M_old, computational_joint_gibbs(spec, 1.0)))
    assert rep.kernel_dim == old.kernel_dim == 1
    assert abs(rep.gap - old.gap) <= max(RTOL * old.gap, 1e-14)


@pytest.mark.parametrize("spec", [
    HamiltonianSpec(n=2, terms=(PauliTerm(-2.0, ((0, "Z"), (1, "Z"))),)),
    HamiltonianSpec(n=2, terms=(PauliTerm(-2.0, ((0, "Z"), (1, "Z"))),
                                PauliTerm(-0.7, ((0, "X"),)), PauliTerm(0.3, ((1, "Y"),)))),
], ids=["zz", "zz_fields"])
@pytest.mark.parametrize("w", [GM, GG], ids=["metropolis", "gaussian"])
def test_global_generator_matches_computational_sum(spec, w):
    beta, beta2 = 1.0, 0.25
    es = eigensystem(assemble_dense(spec))
    heis = build_global_replica_generator(es, w, beta2)
    M_old, sigma = computational_global_sum(spec, beta, beta2, w, w)
    assert_close(matrix(heis), M_old)
    d = heis.dim
    rng = np.random.default_rng(2)
    X = rng.standard_normal((d, d)) + 1j * rng.standard_normal((d, d))
    assert_close(apply(heis, X), unvec(M_old @ vec(X)))
    assert_close(heis.apply_adjoint(X), unvec(M_old.conj().T @ vec(X)))
    # the same generator, with sigma_beta (x) sigma_beta2 in its own basis
    assert np.array_equal(heis.sigma.weights, global_gibbs(es, beta, beta2).weights)
    rep = spectral_gap(heis)
    old = spectral_gap(in_sigma_basis(M_old, sigma))
    assert rep.kernel_dim == old.kernel_dim == 1
    assert abs(rep.gap - old.gap) <= max(RTOL * old.gap, 1e-14)


@pytest.mark.parametrize("spec", [defected_ising_1d(3, 1.0), defected_ising_1d(3, 5.0),
                                  defected_ising_1d(4, 3.0), hopping_cut_spec(2.0)],
                         ids=["ring3_J1", "ring3_J5", "ring4_J3", "hopping"])
def test_joint_gibbs_matches_joint_hamiltonian(spec):
    new, old = joint_gibbs(joint_structure(spec), 1.0), computational_joint_gibbs(spec, 1.0)
    assert np.abs(new.sigma - old.sigma).max() <= 1e-14
    assert np.allclose(np.sort(new.weights), np.sort(old.weights), rtol=1e-12, atol=1e-15)
    assert new.lambda_min == pytest.approx(old.lambda_min, rel=1e-12)


def transverse_field_ring(n=3):
    field = sum(pauli_string_matrix(n, [(s, "X")]) for s in range(n))
    return assemble_dense(defected_ising_1d(n, 2.0)) + 0.7 * field


def generic_hamiltonian(n=3, seed=0):
    """A random Hermitian H (spectral width about 4): no symmetry, so L_hat has no zero entry."""
    rng = np.random.default_rng(seed)
    R = rng.standard_normal((2**n, 2**n)) + 1j * rng.standard_normal((2**n, 2**n))
    return (R + R.conj().T) / 4


# shapes (count, side) of the blocks of L_hat that are solved, one of each
# conjugate pair: the ring's blocks pair up except the population block
# (side 2^n), the transverse-field ring splits into the two sectors of its
# global spin-flip symmetry, each its own partner, and a generic H is one block
@pytest.mark.parametrize("H, n, shapes", [
    (assemble_dense(defected_ising_1d(3, 2.0)), 3, [(4, 1), (6, 2), (3, 4), (1, 8)]),
    (assemble_dense(defected_ising_1d(4, 2.0)), 4, [(8, 1), (16, 2), (12, 4), (4, 8), (1, 16)]),
    (transverse_field_ring(3), 3, [(2, 32)]),
    (generic_hamiltonian(3), 3, [(1, 64)]),
], ids=["ring3", "ring4", "transverse3", "generic3"])
def test_block_eigensolves_match_dense_eigh(H, n, shapes):
    es = eigensystem(H)
    heis = build_ckg_generator(es, single_site_paulis(n), GM)
    sg = gibbs_state(es, 1.0)
    M_dense = dense_ckg(H, single_site_paulis(n), GM)
    evals, coefficients, state_at = dense_propagation(M_dense, sg)
    prop = SpectralPropagator(heis)
    assert [idx.shape for idx, _, _, _ in prop.blocks] == shapes
    scale = np.abs(evals).max()
    assert np.abs(prop.evals - evals).max() <= RTOL * scale

    rng = np.random.default_rng(n)
    R = rng.standard_normal((3, 2**n, 2**n)) + 1j * rng.standard_normal((3, 2**n, 2**n))
    rhos = R @ R.conj().transpose(0, 2, 1)
    rhos /= np.trace(rhos, axis1=1, axis2=2)[:, None, None]
    c = prop.coefficients(rhos)  # one column per state
    # generic states occupy every solved block of L_hat
    solved = np.concatenate([idx.ravel() for idx, _, _, _ in prop.blocks])
    assert np.array_equal(np.sort(c.support), np.sort(solved))
    # eigenvectors within a degenerate eigenspace are free, so the coefficients
    # are compared through their spectral measure sum_j |c_j|^2 exp(t lambda_j);
    # a twin block's partner holds the conjugate coefficients, so its terms count twice
    w_blocks = c.rates
    c_blocks = np.concatenate([x.reshape(-1, len(rhos)) for _, x in c.blocks])
    multiplicity = 1 + c.mirrored
    for t in (0.0, 0.5, 3.0):
        states = prop.state_at(c, t)
        for s, rho0 in enumerate(rhos):
            c_dense = coefficients(rho0)
            measure = np.sum(multiplicity * np.abs(c_blocks[:, s]) ** 2 * np.exp(t * w_blocks))
            assert measure == pytest.approx(np.sum(np.abs(c_dense) ** 2 * np.exp(t * evals)),
                                            rel=RTOL)
            assert_close(states[s], state_at(c_dense, t))

    rep = spectral_gap(heis)
    assert rep.kms_norm == pytest.approx(-evals[0], rel=RTOL)
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


def test_basis_side_must_match_matrix():
    sigma = gibbs_state(eigensystem(np.zeros((3, 3))), 1.0)  # its basis has side 3
    with pytest.raises(ValueError, match="basis"):
        Superoperator(np.zeros((16, 16), dtype=complex), sigma)
    with pytest.raises(ValueError):
        Superoperator(np.zeros((12, 12), dtype=complex), sigma)


def test_perturbed_generator_not_detailed_balanced():
    # the perturbed generator of test_spectral's test_non_db_rejected
    H = assemble_dense(defected_ising_1d(3, 2.0))
    es = eigensystem(H)
    heis = build_ckg_generator(es, single_site_paulis(3), GM)
    M = heis.local.toarray()
    rng = np.random.default_rng(2)
    R = rng.standard_normal(M.shape)
    bad = Superoperator(M + 1e-2 * np.linalg.norm(M, 2) * R / np.linalg.norm(R, 2), heis.sigma)
    with pytest.raises(ValueError, match="not detailed balanced"):
        spectral_gap(bad)
    with pytest.raises(ValueError, match="not detailed balanced"):
        block_eigh(symmetrize(bad))


def test_global_mode_gap_pairs_the_two_temperature_gibbs_state():
    # the global generator was once paired with the local_A joint Gibbs state
    # and failed with a dimension mismatch; now every mode's generator carries
    # the state the harness paired it with when the two were separate values
    spec, beta, beta2 = defected_ising_1d(3, 2.0), 1.0, 0.5
    config = validate_config({"scenario": "gap", "beta": beta,
                              "system": {"model": "defected_ising", "n": 3, "J": 2.0},
                              "replica": {"mode": "global", "beta2": beta2}})
    es, js = eigensystem(assemble_dense(spec)), joint_structure(spec)
    paired = {"none": gibbs_state(es, beta), "local_A": joint_gibbs(js, beta),
              "global": global_gibbs(es, beta, beta2)}
    assert set(qrex.harness.MODE_BUILDERS) == set(paired)
    point = qrex.harness._Point(spec, beta)
    for mode, build in qrex.harness.MODE_BUILDERS.items():
        L = build(point, config)
        assert np.array_equal(L.sigma.weights, paired[mode].weights), mode
        assert np.array_equal(L.basis, paired[mode].basis), mode
        assert L.sigma.beta == beta
        block_eigh(symmetrize(L), vectors=False)  # detailed balanced for the state it carries
    rep = run_scenario(config).records[0]
    M_old, sigma = computational_global_sum(spec, beta, beta2, GG, GG)
    old = spectral_gap(in_sigma_basis(M_old, sigma))
    assert rep["kernel_dim"] == old.kernel_dim == 1
    assert rep["gap"] == pytest.approx(old.gap, rel=RTOL)


def test_global_sweep_matches_dense_oracle_with_one_eigh_of_h_per_point(monkeypatch):
    beta2, values = 0.5, [1.0, 5.0]
    diagonalized = []
    original = qrex.lindblad.eigensystem

    def spy(H):
        diagonalized.append(H.shape[0])
        return original(H)

    for module in (qrex.lindblad, qrex.harness, qrex.replica):
        monkeypatch.setattr(module, "eigensystem", spy, raising=False)
    config = validate_config({"scenario": "sweep", "beta": 1.0,
                              "system": {"model": "defected_ising", "n": 3, "J": 3.0},
                              "replica": {"mode": "global", "beta2": beta2},
                              "sweep": {"param": "J", "values": values}})
    records = run_scenario(config).records
    # H once per point, shared by the single-system and the global generator
    assert diagonalized == [8] * len(values)
    for rec in records:
        spec = defected_ising_1d(3, rec["J"])
        w = WeightFunction("gaussian", rec["beta"])
        M_old, sigma = computational_global_sum(spec, rec["beta"], beta2, w, w)
        old = spectral_gap(in_sigma_basis(M_old, sigma))
        assert rec["gap_re"] == pytest.approx(old.gap, rel=RTOL)


# ``eigenbasis_entries`` against the dense U^dag S U. On the ring U is a
# permutation with phases, and the dense products add only exact zeros to each
# entry, so its gather agrees bit for bit; any other U takes the same two products.


def dense_eigenbasis_entries(S, es):
    """``eigenbasis_entries`` the dense way: U^dag S U by two dense products, the same cut."""
    U = es.eigenvectors
    St = U.conj().T @ dense(S) @ U
    flat = np.where(np.abs(St) > 1e-13 * max(np.abs(St).max(), 1e-300), St, 0.0).reshape(-1)
    p = np.flatnonzero(flat)
    return p, flat[p]


def dense_paulis(n):
    """The single-site Paulis as dense matrices."""
    return [pauli_string_matrix(n, [(s, lab)]) for s in range(n) for lab in PAULI_LABELS]


@pytest.fixture
def dense_route(monkeypatch):
    """Runs a build with the dense U^dag S U in place of ``eigenbasis_entries``."""
    def run(build):
        with monkeypatch.context() as m:
            m.setattr(qrex.lindblad, "eigenbasis_entries", dense_eigenbasis_entries)
            return build()
    return run


def assert_same_triplets(A, B):
    assert A.val.dtype == B.val.dtype
    for field in ("row", "col", "val"):
        assert np.array_equal(getattr(A, field), getattr(B, field))


@pytest.mark.parametrize("J", [1.0, 3.0, 5.0])
@pytest.mark.parametrize("w", [GM, GG], ids=["metropolis", "gaussian"])
@pytest.mark.parametrize("n", [3, 4, 5, 6, 7, 8])
def test_ring_generator_by_gather_is_bitwise_the_dense_route(n, w, J, dense_route):
    es = eigensystem(assemble_dense(defected_ising_1d(n, J)))
    L = build_ckg_generator(es, single_site_paulis(n), w)
    assert_same_triplets(L.local, dense_route(lambda: build_ckg_generator(es, dense_paulis(n), w)).local)


@pytest.mark.parametrize("n", [3, 4, 5])
@pytest.mark.parametrize("w", [GM, GG], ids=["metropolis", "gaussian"])
def test_ring_replica_and_g_b_builds_are_bitwise_the_dense_route(n, w, dense_route):
    js = joint_structure(defected_ising_1d(n, 3.0))
    assert js.system_es.permutation is not None and js.aux_es.permutation is not None
    assert_same_triplets(build_replica_exchange_generator(js, w).local,
                         dense_route(lambda: build_replica_exchange_generator(js, w)).local)
    assert a_diagonal_restriction_gap(js, w) == dense_route(lambda: a_diagonal_restriction_gap(js, w))


GRID = defected_heisenberg_2d(2, 3, (0, 3), (0, 3), 3.0)


def rotated_couplings():
    """(eigensystem, couplings) beyond the ring's single system: the 2x3 grid and the
    transverse-field ring (U not a permutation), and the joint structures' labeled bases."""
    cases = [(eigensystem(assemble_dense(GRID)), single_site_paulis(6))]
    for n in (3, 4):
        cases.append((eigensystem(transverse_field_ring(n)), single_site_paulis(n)))
    for spec in (defected_ising_1d(4, 3.0), hopping_cut_spec(2.0), GRID):
        js = joint_structure(spec)
        cases += [(js.system_es, single_site_paulis(js.n)), (js.aux_es, single_site_paulis(js.n_a)),
                  (Eigensystem(np.ones(js.joint_dim), joint_basis(js)),
                   [swap_unitary_original(js)])]
    return cases


def test_coupling_entries_are_bitwise_the_dense_route():
    cases = rotated_couplings()
    assert cases[0][0].permutation is None and cases[1][0].permutation is None
    for es, couplings in cases:
        d = es.dim
        for S in couplings:
            S = S if isinstance(S, Triplets) else Triplets.of(S)
            new, old = np.zeros(d * d, dtype=complex), np.zeros(d * d, dtype=complex)
            p, v = eigenbasis_entries(S, es)
            new[p] = v
            p, v = dense_eigenbasis_entries(S, es)
            old[p] = v
            assert np.array_equal(new, old)


@pytest.mark.parametrize("mode", ["single", "local_A"])
def test_grid_gap_matches_the_dense_route(mode, dense_route):
    w = WeightFunction("metropolis", 0.05)
    if mode == "single":
        es = eigensystem(assemble_dense(GRID))
        new = spectral_gap(build_ckg_generator(es, single_site_paulis(6), w)).gap
        old = dense_route(lambda: spectral_gap(build_ckg_generator(es, dense_paulis(6), w)).gap)
    else:
        js = joint_structure(GRID)
        new = spectral_gap(build_replica_exchange_generator(js, w)).gap
        old = dense_route(lambda: spectral_gap(build_replica_exchange_generator(js, w)).gap)
    assert abs(new - old) <= max(1e-12 * old, 1e-14)


def test_ring_build_forms_no_dense_coupling(monkeypatch):
    """U of the ring is a permutation, so no build holds a d x d coupling: the Pauli
    strings stay Triplets, nothing dense is converted, and each U is taken by its gather."""
    n = 6
    d = 2**n
    es = eigensystem(assemble_dense(defected_ising_1d(n, 3.0)))
    js = joint_structure(defected_ising_1d(n, 3.0))
    formed = []

    def refuse(*args):
        formed.append(args)
        raise AssertionError("a dense coupling was formed")

    zeros = np.zeros

    def zeros_spy(shape, *args, **kwargs):
        if np.ndim(shape) and len(shape) >= 2 and min(shape[-2:]) >= d:
            formed.append(shape)
        return zeros(shape, *args, **kwargs)

    monkeypatch.setattr(Triplets, "toarray", refuse)
    monkeypatch.setattr(Triplets, "of", refuse)
    monkeypatch.setattr(np, "zeros", zeros_spy)
    build_ckg_generator(es, single_site_paulis(n), GM)
    build_replica_exchange_generator(js, GG)
    a_diagonal_restriction_gap(js, GG)
    assert formed == []
    for e in (es, js.system_es, js.aux_es):
        assert e.permutation is not None
