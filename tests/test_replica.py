import numpy as np
import pytest
from scipy.special import erfc

from qrex.hamiltonians import (
    HamiltonianSpec,
    PauliTerm,
    defected_heisenberg_2d,
    defected_ising_1d,
)
from qrex.lindblad import (
    Superoperator,
    Triplets,
    WeightFunction,
    add,
    alpha_coeff,
    alpha_quadrature,
    build_ckg_generator,
    canonical,
    eigensystem,
    gibbs_state,
    theta,
)
from qrex.pauli import single_site_paulis
from qrex.replica import (
    _local_swap,
    _swap_entries,
    build_global_replica_generator,
    build_replica_exchange_generator,
    global_gibbs,
    joint_gibbs,
    joint_structure,
    lift,
    swap_generator_closed_form,
    swap_generator_generic,
    swap_sector_analysis,
)
from qrex.spectral import spectral_gap, spectral_norm, transpose_map

import oracles
from oracles import (
    assemble_dense,
    apply,
    coherent_term,
    joint_basis,
    joint_hamiltonian,
    jump_components,
    local_swap_unitary,
    matrix,
    swap_unitary_original,
)

GM = WeightFunction("metropolis", 1.0)


def trace_norm(M):
    return float(np.sum(np.linalg.svd(M, compute_uv=False)))


class TestLocalSwapUnitary:
    def test_two_qubit_swap_gate(self):
        U = local_swap_unitary(2, 1)
        swap = np.array([[1, 0, 0, 0], [0, 0, 1, 0], [0, 1, 0, 0], [0, 0, 0, 1]], dtype=complex)
        assert np.allclose(U, swap)

    def test_involution(self):
        U = local_swap_unitary(4, 2)
        assert np.allclose(U @ U, np.eye(32))

    def test_basis_independence(self):
        rng = np.random.default_rng(12)
        U = local_swap_unitary(2, 2)
        for _ in range(5):
            qa, _ = np.linalg.qr(rng.standard_normal((2, 2)) + 1j * rng.standard_normal((2, 2)))
            qb, _ = np.linalg.qr(rng.standard_normal((2, 2)) + 1j * rng.standard_normal((2, 2)))
            W = np.kron(np.kron(qa, qb), qa)
            assert np.linalg.norm(W @ U @ W.conj().T - U) < 1e-12


class TestTheta:
    def test_value_at_zero(self):
        assert theta(0.0) == pytest.approx(erfc(1 / (2 * np.sqrt(2))))
        assert theta(0.0) == pytest.approx(0.617, abs=1e-3)

    def test_bounds_on_wide_grid(self):
        x = np.linspace(-50, 50, 1001)
        th = theta(x)
        assert np.all(th >= 0.0)
        assert np.all(th <= 2.0)
        assert np.all(th <= np.exp(-x / 2) + 1e-12)

    def test_no_overflow_at_extreme_arguments(self):
        th = theta(np.array([-800.0, -100.0, 100.0, 800.0]))
        assert np.all(np.isfinite(th))
        assert th[0] == pytest.approx(1.0, abs=1e-10)

    def test_matches_quadrature_route(self):
        # theta(beta nu) must equal the diagonal alpha integral
        for beta in (0.5, 1.0, 2.0):
            w = WeightFunction("metropolis", beta)
            for nu in (-6.0, -1.0, 0.0, 0.7, 4.0):
                assert theta(beta * nu) == pytest.approx(alpha_quadrature(nu, nu, w), abs=1e-10)

    def test_cauchy_schwarz_cross_bound(self):
        # (int gamma_M fhat fhat)^2 <= sqrt(exp(-b w1) exp(-b w2))
        rng = np.random.default_rng(3)
        for _ in range(100):
            w1, w2 = rng.uniform(-4, 4, size=2)
            val = alpha_coeff(w1, w2, GM) ** 2
            assert val <= np.sqrt(np.exp(-w1) * np.exp(-w2)) + 1e-10

    def test_erfc_weighted_mean_lower_bound(self):
        # p_j erfc((1+2 ln(p_j/p_i))/(2 sqrt2)) + p_i erfc((1-2 ln r)/(2 sqrt2))
        #   >= p_i p_j / (p_i + p_j) on the valid probability grid
        ps = np.linspace(0.01, 0.99, 50)
        for pi in ps:
            for pj in ps:
                if pi + pj > 1.0:
                    continue
                r = np.log(pj / pi)
                lhs = pj * erfc((1 + 2 * r) / (2 * np.sqrt(2))) + pi * erfc((1 - 2 * r) / (2 * np.sqrt(2)))
                assert lhs >= pi * pj / (pi + pj) - 1e-12


class TestSuperopLifts:
    def test_left_lift(self):
        rng = np.random.default_rng(5)
        d1, d2 = 3, 2
        A = rng.standard_normal((d1, d1)) + 1j * rng.standard_normal((d1, d1))
        B = rng.standard_normal((d1, d1)) + 1j * rng.standard_normal((d1, d1))
        M = np.kron(B.T, A)  # map X -> A X B
        lifted = canonical(*lift(Triplets.of(M), (d1, d2), 0), (d1 * d2) ** 2)
        Xj = rng.standard_normal((d1 * d2, d1 * d2)) + 1j * rng.standard_normal((d1 * d2, d1 * d2))
        direct = np.kron(A, np.eye(d2)) @ Xj @ np.kron(B, np.eye(d2))
        out = lifted @ Xj.reshape(-1, order="F")
        assert np.allclose(out.reshape(d1 * d2, d1 * d2, order="F"), direct)

    def test_right_lift(self):
        rng = np.random.default_rng(6)
        d1, d2 = 2, 3
        A = rng.standard_normal((d2, d2)) + 1j * rng.standard_normal((d2, d2))
        B = rng.standard_normal((d2, d2)) + 1j * rng.standard_normal((d2, d2))
        M = np.kron(B.T, A)
        lifted = canonical(*lift(Triplets.of(M), (d1, d2), 1), (d1 * d2) ** 2)
        Xj = rng.standard_normal((d1 * d2, d1 * d2)) + 1j * rng.standard_normal((d1 * d2, d1 * d2))
        direct = np.kron(np.eye(d1), A) @ Xj @ np.kron(np.eye(d1), B)
        out = lifted @ Xj.reshape(-1, order="F")
        assert np.allclose(out.reshape(d1 * d2, d1 * d2, order="F"), direct)


class TestSwapGenerator:
    def setup_method(self):
        self.spec = defected_ising_1d(3, 2.0)
        self.js = joint_structure(self.spec)
        self.beta = 1.0

    def test_closed_form_matches_generic(self):
        closed = swap_generator_closed_form(self.js, self.beta)
        generic = swap_generator_generic(self.js, self.beta)
        diff = np.linalg.norm(matrix(closed) - matrix(generic), 2)
        assert diff <= 1e-9 * np.linalg.norm(matrix(generic), 2)

    def test_closed_form_matches_generic_in_its_own_eigenbasis(self):
        # the generic route with its own eigh of H_joint, independent of the labeled basis
        js = self.js
        own = build_ckg_generator(eigensystem(joint_hamiltonian(self.spec)),
                                  [swap_unitary_original(js)], GM)
        assert not np.allclose(own.basis, joint_basis(js))
        closed = swap_generator_closed_form(js, self.beta)
        diff = np.linalg.norm(matrix(closed) - matrix(own), 2)
        assert diff <= 1e-9 * np.linalg.norm(matrix(own), 2)

    def test_generic_stored_in_labeled_basis(self):
        js = self.js
        generic = swap_generator_generic(js, self.beta)
        assert np.array_equal(generic.basis, joint_basis(js))

    @pytest.mark.parametrize("n", [3, 4])
    @pytest.mark.parametrize("J", [2.0, 3.0])
    def test_generic_local_equals_closed_form(self, n, J):
        spec = defected_ising_1d(n, J)
        js = joint_structure(spec)
        closed = swap_generator_closed_form(js, self.beta)
        generic = swap_generator_generic(js, self.beta)
        assert np.array_equal(closed.basis, generic.basis)
        rel = spectral_norm(add(closed.local, -generic.local)) / spectral_norm(generic.local)
        assert rel <= 1e-12

    def test_coherent_part_vanishes(self):
        js = self.js
        H_joint = np.kron(assemble_dense(self.spec), np.eye(js.d_a)) + np.eye(32)
        es = eigensystem(H_joint)
        U = swap_unitary_original(js)
        G = coherent_term([jump_components(U, es)], es, GM)
        assert np.linalg.norm(G) < 1e-12

    def test_kms_norm_at_most_three(self):
        heis = swap_generator_closed_form(self.js, self.beta)
        assert swap_sector_analysis(self.js, heis)["kms_norm"] <= 3.0 + 1e-6

    def test_unital(self):
        heis = swap_generator_closed_form(self.js, self.beta)
        d = heis.dim
        assert np.linalg.norm(apply(heis, np.eye(d))) < 1e-10 * np.linalg.norm(matrix(heis))

    def test_zero_frequency_pairs_relax_at_theta0(self):
        # lam(+-, z) = lam(-+, z) for the ring, so those A labels give omega = 0
        js = self.js
        lam = js.lam2
        pairs = [
            (a, c)
            for a in range(js.d_a)
            for c in range(js.d_a)
            if a != c and np.allclose(lam[a], lam[c])
        ]
        assert pairs, "test model should have a degenerate A pair"
        a, c = pairs[0]
        heis = swap_generator_closed_form(js, self.beta)
        V = joint_basis(js)
        d = js.joint_dim
        ket = np.zeros(d)
        e_abc = np.ravel_multi_index((a, 0, c), (js.d_a, js.d_b, js.d_a))
        e_cba = np.ravel_multi_index((c, 0, a), (js.d_a, js.d_b, js.d_a))
        Xl = np.outer(V[:, e_abc], V[:, e_abc].conj())
        Xs = np.outer(V[:, e_cba], V[:, e_cba].conj())
        out = apply(heis, Xl)
        th0 = theta(0.0)
        assert np.allclose(out, th0 * (Xs - Xl), atol=1e-10)


class TestReplicaExchangeGenerator:
    def setup_method(self):
        self.spec = defected_ising_1d(3, 4.0)
        self.js = joint_structure(self.spec)
        self.beta = 1.0

    def test_fixed_point_is_joint_gibbs(self):
        heis = build_replica_exchange_generator(self.js, GM)
        sg = joint_gibbs(self.js, self.beta)
        assert trace_norm(heis.apply_adjoint(sg.sigma)) < 1e-10

    def test_kernel_dimension_one(self):
        rep = spectral_gap(build_replica_exchange_generator(self.js, GM))
        assert rep.kernel_dim == 1

    def test_gap_flat_in_J_while_single_system_collapses(self):
        # system/auxiliary pieces use the Gaussian weight (either is allowed);
        # the Metropolis slow-mixing family is what collapses without the swap
        gg = WeightFunction("gaussian", self.beta)
        gaps_re, gaps_single = [], []
        for J in (1.0, 5.0):
            spec = defected_ising_1d(3, J)
            js = joint_structure(spec)
            gaps_re.append(spectral_gap(build_replica_exchange_generator(js, gg)).gap)
            h_single = build_ckg_generator(
                eigensystem(assemble_dense(spec)), single_site_paulis(3), GM
            )
            gaps_single.append(spectral_gap(h_single).gap)
        assert gaps_re[0] / gaps_re[1] <= 3.0
        assert gaps_re[1] / gaps_re[0] <= 3.0
        assert gaps_single[0] / gaps_single[1] >= 100.0

    def test_global_mode_two_temperatures(self):
        spec = HamiltonianSpec(n=2, terms=(PauliTerm(-2.0, ((0, "Z"), (1, "Z"))),))
        beta1, beta2 = 1.0, 0.25
        es = eigensystem(assemble_dense(spec))
        heis = build_global_replica_generator(es, GM, beta2)
        s1 = gibbs_state(es, beta1).sigma
        s2 = gibbs_state(es, beta2).sigma
        assert trace_norm(heis.apply_adjoint(np.kron(s1, s2))) < 1e-9
        # the Gibbs state the generator carries is that fixed point, in its basis
        sigma = global_gibbs(es, beta1, beta2)
        assert np.array_equal(heis.sigma.weights, sigma.weights)
        assert np.array_equal(heis.basis, sigma.basis)
        assert np.abs(heis.sigma.sigma - np.kron(s1, s2)).max() < 1e-14


class TestGlobalGenerator:
    """The closed-form global generator against the generic swap route of ``oracles``."""

    @staticmethod
    def pair(spec, w, beta2):
        es = eigensystem(assemble_dense(spec))
        return (build_global_replica_generator(es, w, beta2),
                oracles.global_replica_generator_generic(es, w, beta2))

    @pytest.mark.parametrize("n, J", [(3, 1.0), (3, 5.0), (4, 3.0)])
    @pytest.mark.parametrize("beta, beta2", [(1.0, 1.0), (1.0, 0.5), (0.5, 1.0), (0.5, 0.5)])
    def test_bitwise_on_the_ring(self, n, J, beta, beta2):
        new, old = self.pair(defected_ising_1d(n, J), WeightFunction("metropolis", beta), beta2)
        for field in ("row", "col", "val"):
            assert np.array_equal(getattr(new.local, field), getattr(old.local, field)), field
        assert np.array_equal(new.sigma.weights, old.sigma.weights)
        assert np.array_equal(new.basis, old.basis)
        assert new.sigma.beta == old.sigma.beta == beta

    @pytest.mark.parametrize("spec, beta, beta2, kind", [
        (HamiltonianSpec(n=2, terms=(PauliTerm(-2.0, ((0, "Z"), (1, "Z"))),
                                     PauliTerm(-0.7, ((0, "X"),)), PauliTerm(0.3, ((1, "Y"),)))),
         1.0, 0.25, "metropolis"),
        (defected_ising_1d(3, 3.0), 2.0, 0.3, "gaussian"),
        (defected_ising_1d(4, 3.0), 1.0, 0.5, "metropolis"),
    ], ids=["zz_fields", "ring3", "ring4"])
    def test_entries_and_gap_match_generic_route(self, spec, beta, beta2, kind):
        new, old = self.pair(spec, WeightFunction(kind, beta), beta2)
        assert np.array_equal(new.local.row, old.local.row)
        assert np.array_equal(new.local.col, old.local.col)
        assert np.abs(new.local.val - old.local.val).max() <= 1e-13
        assert np.array_equal(new.sigma.weights, old.sigma.weights)
        gap_new, gap_old = spectral_gap(new).gap, spectral_gap(old).gap
        assert abs(gap_new - gap_old) <= 1e-12 * gap_old


@pytest.mark.parametrize("spec", [defected_ising_1d(3, 2.0), defected_ising_1d(6, 5.0),
                                  defected_heisenberg_2d(2, 3, (0, 3), (0, 3), 4.0)],
                         ids=["ring3", "ring6", "grid2x3"])
@pytest.mark.parametrize("beta", [0.05, 1.0, 2.0])
def test_swap_alpha_table_over_distinct_frequencies_is_the_dense_table(spec, beta):
    # the swap's coefficients come from alpha over the few distinct omega; the
    # d x d table of alpha_coeff they replace gives the same entries, bit for bit
    omega, p = _local_swap(joint_structure(spec))
    d = omega.size
    dense = alpha_coeff(omega[:, None], omega[None, :], WeightFunction("metropolis", beta))
    r = np.arange(d * d)
    i, j = r % d, r // d
    th = np.diagonal(dense)
    val = _swap_entries(omega, p, beta)[2]
    assert np.array_equal(val, np.concatenate([dense[i, j], -0.5 * (th[i] + th[j])]))


class TestSwapKernelAnalysis:
    def test_restricted_kernel_is_identity_only(self):
        js = joint_structure(defected_ising_1d(3, 2.0))
        rep = swap_sector_analysis(js, swap_generator_closed_form(js, 1.0))
        assert rep["restricted_kernel_dim"] == 1

    def test_cross_terms_vanish(self):
        js = joint_structure(defected_ising_1d(3, 2.0))
        rep = swap_sector_analysis(js, swap_generator_closed_form(js, 1.0))
        for key, val in rep["cross_term_residuals"].items():
            assert val < 1e-10, (key, val)

    def test_perturbed_swap_generator_is_refused(self):
        # rows scaled by factors that the transpose map T carries onto themselves:
        # L_hat stays paired, so the Hermiticity gate refuses it, before any eigensolve
        js = joint_structure(defected_ising_1d(3, 2.0))
        swap = swap_generator_closed_form(js, 1.0)
        A = swap.local
        u = np.random.default_rng(5).random(A.side)
        f = 1.0 + 1e-3 * (u + u[transpose_map(A.side)])
        bad = Superoperator(Triplets(A.row, A.col, f[A.row] * A.val, A.side), swap.sigma)
        with oracles.no_eigensolve(), pytest.raises(ValueError, match="not detailed balanced"):
            swap_sector_analysis(js, bad)

    @pytest.mark.parametrize("spec, beta", [
        (defected_ising_1d(3, 2.0), 1.0),
        (defected_ising_1d(4, 2.0), 1.0),
        (defected_heisenberg_2d(2, 3, (0, 3), (0, 3), 4.0), 0.05),
    ], ids=["3", "4", "grid2x3"])
    def test_sector_analyses_match_kronecker_oracles(self, spec, beta):
        # the exact dense oracle: the same slices of R in a Kronecker-built basis
        js = joint_structure(spec)
        new = swap_sector_analysis(js, swap_generator_closed_form(js, beta))
        old = oracles.swap_sector_analysis_dense(js, beta)
        assert new["sector_dim"] == old["sector_dim"]
        assert new["restricted_kernel_dim"] == old["restricted_kernel_dim"] == 1
        assert new["restricted_evals_head"] == pytest.approx(old["restricted_evals_head"],
                                                             rel=1e-12, abs=1e-12)
        for key in ("cross_term_residuals", "sector_minima"):
            assert new[key].keys() == old[key].keys()
            for part, val in old[key].items():
                assert abs(new[key][part] - val) <= 1e-12, (key, part, new[key][part], val)
        assert new["threshold"] == pytest.approx(old["threshold"], rel=1e-12)

    @pytest.mark.parametrize("n, J, beta", [(3, 2.0, 1.0), (3, 5.0, 2.0), (4, 1.0, 0.5),
                                            (5, 1.0, 0.5)])
    def test_exact_minima_below_every_sampled_quotient(self, n, J, beta):
        # a minimum over random draws overestimates the true one: on the n = 5
        # ring at J = 1, beta = 0.5 the 20 draws give 0.4984 on offA_offB
        js = joint_structure(defected_ising_1d(n, J))
        mins = swap_sector_analysis(js, swap_generator_closed_form(js, beta))["sector_minima"]
        sampled = oracles.sector_rayleigh_quotients(js, beta, n_random=20)
        for part, quotients in sampled.items():
            assert len(quotients) == 20
            assert all(mins[part] <= q + 1e-12 for q in quotients), (part, mins[part])

    def test_offa_offb_minimum_pinned(self):
        js = joint_structure(defected_ising_1d(5, 1.0))
        mins = swap_sector_analysis(js, swap_generator_closed_form(js, 0.5))["sector_minima"]
        assert mins["offA_offB"] == pytest.approx(0.2536, abs=5e-5)

    def test_sector_lower_bounds_dominate_threshold(self):
        cases = [(defected_ising_1d(n, J), beta) for n in (3, 4, 5) for J in (1.0, 3.0, 5.0)
                 for beta in (0.5, 1.0)]
        cases += [(defected_heisenberg_2d(2, 3, (0, 3), (0, 3), J), 0.05) for J in (1.0, 5.0)]
        for spec, beta in cases:
            js = joint_structure(spec)
            rep = swap_sector_analysis(js, swap_generator_closed_form(js, beta))
            for key, val in rep["sector_minima"].items():
                assert val >= rep["threshold"], (spec.n, beta, key, val, rep["threshold"])
