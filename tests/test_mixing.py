from dataclasses import asdict

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.linalg import expm
from scipy.special import erfc

from qrex import mixing

from qrex.hamiltonians import HamiltonianSpec, PauliTerm, defected_ising_1d
from qrex.lindblad import (
    WeightFunction,
    build_ckg_generator,
    eigensystem,
    unvec,
    vec,
)
from qrex.mixing import (
    BISECTION_RTOL,
    SearchWork,
    SpectralPropagator,
    SupportBounds,
    _initial_family,
    chi_square,
    chi_square_rate_fit,
    first_crossing_times,
    mixing_bounds_from_gap,
    mixing_time_estimate,
)
from qrex.pauli import single_site_paulis
from qrex.spectral import UnresolvedGapError, block_eigh, spectral_gap, symmetrize

import oracles
from oracles import (
    assemble_dense,
    bottleneck_witness,
    chi_square_rate_fit_expm,
    evolve,
    first_crossing_time,
    gap_mode_state,
    matrix,
    pauli_string_matrix,
    trace_distance,
    trace_norm_bounds,
)

GM = WeightFunction("metropolis", 1.0)


def rate_fit(L):
    """``chi_square_rate_fit`` on a propagator of L."""
    return chi_square_rate_fit(SpectralPropagator(L))


def two_qubit_ising(w=GM):
    spec = HamiltonianSpec(n=2, terms=(PauliTerm(-1.0, ((0, "Z"), (1, "Z"))),))
    return build_ckg_generator(eigensystem(assemble_dense(spec)), single_site_paulis(2), w)


class TestEvolve:
    def test_time_zero_identity(self):
        heis = two_qubit_ising()
        rho0 = np.diag([1.0, 0, 0, 0]).astype(complex)
        assert np.allclose(evolve(heis, rho0, 0.0), rho0, atol=1e-12)

    def test_long_time_reaches_gibbs(self):
        heis = two_qubit_ising()
        sg = heis.sigma
        gap = spectral_gap(heis).gap
        rho0 = np.diag([1.0, 0, 0, 0]).astype(complex)
        rho_t = evolve(heis, rho0, 1e3 / gap)
        assert trace_distance(rho_t, sg.sigma) < 1e-8

    def test_trace_and_positivity_along_flow(self):
        heis = two_qubit_ising()
        rho0 = np.diag([0.5, 0.5, 0, 0]).astype(complex)
        for t in np.logspace(-2, 2, 9):
            rho_t = evolve(heis, rho0, t)
            assert abs(np.trace(rho_t) - 1.0) < 1e-10
            assert np.linalg.eigvalsh(rho_t).min() >= -1e-10

    def test_matches_dense_exponential(self):
        heis = two_qubit_ising()
        rho0 = np.diag([0.25, 0.25, 0.25, 0.25]).astype(complex)
        rho0[0, 3] = rho0[3, 0] = 0.1
        for t in (0.3, 1.7):
            spectral = evolve(heis, rho0, t)
            dense = unvec(expm(t * matrix(heis).conj().T) @ vec(rho0))
            assert np.linalg.norm(spectral - dense) < 1e-9

    def test_invalid_state_rejected(self):
        heis = two_qubit_ising()
        with pytest.raises(ValueError):
            evolve(heis, np.eye(4, dtype=complex), 0.1)

    def test_non_hermitian_state_rejected(self):
        heis = two_qubit_ising()
        rho0 = np.diag([0.5, 0.5, 0.0, 0.0]).astype(complex)
        rho0[0, 1] = 0.1  # unit trace, PSD Hermitian part, but not Hermitian
        with pytest.raises(ValueError, match="Hermitian"):
            evolve(heis, rho0, 0.1)

    def test_wrong_shape_state_rejected(self):
        heis = two_qubit_ising()
        with pytest.raises(ValueError, match="shape"):
            evolve(heis, np.eye(2, dtype=complex) / 2, 0.1)


class TestMixingBounds:
    def test_lower_bound_clamps_at_zero(self):
        lam = 0.1
        lo, hi = mixing_bounds_from_gap(1.0, lam, lam / 2)
        assert lo == 0.0
        assert hi > 0

    def test_scaling_with_gap(self):
        lo1, hi1 = mixing_bounds_from_gap(0.5, 0.05, 1e-2)
        lo2, hi2 = mixing_bounds_from_gap(1.0, 0.05, 1e-2)
        assert lo1 == pytest.approx(2 * lo2)
        assert hi1 == pytest.approx(2 * hi2)

    def test_epsilon_validation(self):
        with pytest.raises(ValueError):
            mixing_bounds_from_gap(1.0, 0.1, 2.0)


class TestMixingTimeEstimate:
    def test_depolarizing_crossing_matches_analytic(self):
        # on H = I the weight-1 Pauli modes decay at 4 theta(0); starting from
        # |0><0| the trace distance is exactly exp(-4 theta(0) t)
        H = np.eye(2)
        es = eigensystem(H)
        prop = SpectralPropagator(build_ckg_generator(es, single_site_paulis(1), GM))
        eps = 1e-2
        rho0 = np.diag([1.0, 0.0]).astype(complex)
        tc = first_crossing_times(prop, [rho0], eps, 10.0)[0]
        assert tc == first_crossing_time(prop, rho0, eps, 10.0)
        analytic = np.log(1 / eps) / (4 * erfc(1 / (2 * np.sqrt(2))))
        assert tc == pytest.approx(analytic, rel=1e-2)

    def test_two_qubit_sandwich(self):
        heis = two_qubit_ising()
        rep = mixing_time_estimate(heis, 1e-2)
        assert rep.t_lower <= rep.t_measured <= rep.t_upper

    def test_monotone_in_epsilon(self):
        heis = two_qubit_ising()
        rep1 = mixing_time_estimate(heis, 1e-2, n_haar=5)
        rep2 = mixing_time_estimate(heis, 1e-3, n_haar=5)
        assert rep2.t_measured >= rep1.t_measured

    def test_crossing_below_upper_bound_for_every_state(self):
        heis = two_qubit_ising()
        rep = mixing_time_estimate(heis, 1e-2, n_haar=5)
        tol = rep.t_upper * 1e-3 + 1e-9
        assert all(t <= rep.t_upper + tol for _, t in rep.crossings)

    def test_defected_ising_within_bounds(self):
        spec = defected_ising_1d(3, 4.0)
        H = assemble_dense(spec)
        es = eigensystem(H)
        heis = build_ckg_generator(es, single_site_paulis(3), GM)
        rep = mixing_time_estimate(heis, 1e-2, n_haar=5)
        assert rep.t_lower <= rep.t_measured <= rep.t_upper

    @pytest.mark.parametrize("n", [3, 4])
    def test_slow_mode_in_kernel_raises_before_the_search(self, n, monkeypatch):
        # Gaussian ring, beta = 1, J = 5: kernel_dim 2; at n = 4 the reported
        # gap would be 8.97e-6 against a true 1.577e-10
        es = eigensystem(assemble_dense(defected_ising_1d(n, 5.0)))
        L = build_ckg_generator(es, single_site_paulis(n), WeightFunction("gaussian", 1.0))
        monkeypatch.setattr(mixing, "first_crossing_times", None)  # never reached
        with pytest.raises(UnresolvedGapError, match="kernel dimension 2, expected 1"):
            mixing_time_estimate(L, 1e-2)

    def test_transverse_field_report_counts_eigensolves(self):
        es = eigensystem(transverse_field_ring(4))
        rep = mixing_time_estimate(build_ckg_generator(es, single_site_paulis(4), GM), 1e-2)
        assert rep.eigensolves > 0
        assert rep.chunks == 1 and rep.rounds > 0
        assert {"chunks", "rounds", "eigensolves"} <= asdict(rep).keys()

    def test_empty_family_rejected(self):
        heis = two_qubit_ising()
        with pytest.raises(ValueError, match="family is empty"):
            mixing_time_estimate(heis, 1e-2, family=[])

    @pytest.mark.parametrize("rho0, reason", [
        (np.eye(8) / 4, "unit trace"),
        (np.diag([1.5, -0.5, 0, 0, 0, 0, 0, 0]), "positive semidefinite"),
        (np.eye(8) / 8 + np.triu(np.full((8, 8), 0.01), 1), "Hermitian"),
        (np.eye(4) / 4, "shape"),
    ], ids=["trace", "negative", "non_hermitian", "shape"])
    def test_invalid_custom_state_named(self, rho0, reason):
        # a state that is not a density matrix used to fail the bisection bracket
        H = assemble_dense(defected_ising_1d(3, 2.0))
        es = eigensystem(H)
        heis = build_ckg_generator(es, single_site_paulis(3), GM)
        family = [("ok", np.eye(8) / 8), ("bad_7", rho0)]
        with pytest.raises(ValueError, match=f"'bad_7'.*{reason}"):
            mixing_time_estimate(heis, 1e-2, family=family)


class TestChiSquare:
    def test_zero_at_fixed_point(self):
        sg = two_qubit_ising().sigma
        assert chi_square(sg.sigma, sg) == pytest.approx(0.0, abs=1e-12)

    def test_saturated_by_min_weight_eigenstate(self):
        sg = two_qubit_ising().sigma
        v = sg.basis.toarray()[:, np.argmin(sg.weights)]
        rho = np.outer(v, v.conj())
        assert chi_square(rho, sg) == pytest.approx(1 / sg.lambda_min - 1, rel=1e-10)

    def test_contraction_along_flow(self):
        heis = two_qubit_ising()
        sg = heis.sigma
        gap = spectral_gap(heis).gap
        rng = np.random.default_rng(5)
        R = rng.standard_normal((4, 4)) + 1j * rng.standard_normal((4, 4))
        rho0 = R @ R.conj().T
        rho0 /= np.trace(rho0)
        chi0 = chi_square(rho0, sg)
        for t in np.linspace(0.2, 3.0, 6):
            rho_t = evolve(heis, rho0, t)
            assert chi_square(rho_t, sg) <= np.exp(-2 * gap * t) * chi0 + 1e-12

    def test_rate_fit_matches_gap(self):
        heis = two_qubit_ising()
        gap = spectral_gap(heis).gap
        rate = rate_fit(heis)
        assert abs(rate / (2 * gap) - 1.0) <= 0.05

    def test_gap_mode_state_is_valid(self):
        heis = two_qubit_ising()
        rho0 = gap_mode_state(heis)
        assert abs(np.trace(rho0) - 1.0) < 1e-10
        assert np.linalg.eigvalsh(rho0).min() >= -1e-12

    def test_gap_mode_decays_at_twice_gap_when_degenerate_across_blocks(self):
        # on H = I the six weight-1 Pauli modes share the gap; L_hat splits
        # them over several blocks, and the mode is taken from one of them
        H = np.eye(4)
        es = eigensystem(H)
        heis = build_ckg_generator(es, single_site_paulis(2), GM)
        sg = heis.sigma
        gap = spectral_gap(heis).gap
        blocks = block_eigh(-symmetrize(heis), vectors=False)
        at_gap = sum(int(np.sum((1 + twin) * np.any(np.abs(w - gap) <= 1e-12 * gap, axis=1)))
                     for _, w, _, twin in blocks)
        assert at_gap > 1
        rho0 = gap_mode_state(heis)
        ts = np.linspace(0.5 / gap, 2.0 / gap, 4)
        chis = [chi_square(evolve(heis, rho0, t), sg) for t in ts]
        rates = -np.diff(np.log(chis)) / np.diff(ts)
        assert np.allclose(rates, 2 * gap, rtol=1e-9)
        assert rate_fit(heis) == pytest.approx(2 * gap, rel=1e-9)


def ring3_generator(beta, J=1.0):
    """The n = 3 ring (J = 1 by default) with the Metropolis weight, as ``qrex verify`` builds it."""
    es = eigensystem(assemble_dense(defected_ising_1d(3, J)))
    return build_ckg_generator(es, single_site_paulis(3), WeightFunction("metropolis", beta))


def ring3_metropolis(beta, J=1.0):
    """``ring3_generator`` and its gap."""
    L = ring3_generator(beta, J)
    return L, spectral_gap(L).gap


class TestGapModeFromPropagator:
    """The gap mode read off a ``SpectralPropagator`` against the oracle's own decomposition."""

    @pytest.mark.parametrize("J", [1.0, 3.0])
    @pytest.mark.parametrize("beta", [0.5, 1.0, 2.0, 3.0])
    def test_rate_fit_matches_oracle_mode(self, monkeypatch, beta, J):
        L = ring3_generator(beta, J)
        if (beta, J) == (3.0, 3.0):
            # the slow mode lies below the kernel threshold: the fit read the gap
            # off the rest of the spectrum, and the oracle agreed with it
            with pytest.raises(UnresolvedGapError, match="kernel dimension 2, expected 1"):
                rate_fit(L)
            return
        rate = rate_fit(L)
        monkeypatch.setattr(mixing, "_gap_and_mode", lambda prop: oracles._gap_and_mode(prop.L))
        assert rate == pytest.approx(rate_fit(L), rel=1e-6)

    @pytest.mark.parametrize("beta", [0.5, 1.0, 2.0])
    def test_mode_is_a_gap_eigenoperator(self, beta):
        # sigma^{1/2} X sigma^{1/2} is an eigenoperator of L^dag for the KMS
        # eigenoperator X of L, and so is its Hermitian part
        L, gap = ring3_metropolis(beta)
        g, rho0 = mixing._gap_and_mode(SpectralPropagator(L))
        assert g == pytest.approx(gap, rel=1e-9)
        Y = rho0 - L.sigma.sigma
        assert np.linalg.norm(L.apply_adjoint(Y) + g * Y) <= 1e-9 * g * np.linalg.norm(Y)
        assert abs(np.trace(rho0) - 1.0) < 1e-10
        assert np.linalg.eigvalsh(rho0).min() >= -1e-12


class TestChiSquareRateWithoutExpm:
    @pytest.mark.parametrize("beta", [0.5, 1.0, 2.0])
    def test_matches_expm_oracle(self, beta):
        L, _ = ring3_metropolis(beta)
        assert rate_fit(L) == pytest.approx(chi_square_rate_fit_expm(L), rel=1e-6)

    @pytest.mark.parametrize("beta", [0.5, 1.0, 2.0, 3.0])
    def test_rate_is_twice_the_gap(self, beta):
        # the gap mode decays exactly at 2 gap; at beta = 3 the expm oracle
        # is 5e-6 off that, the eig route 3e-7
        L, gap = ring3_metropolis(beta)
        assert rate_fit(L) == pytest.approx(2 * gap, rel=1e-6)

    def test_low_temperature_passes_the_verify_check(self):
        # the expm route reads rate / 2 gap = 0.8996 at beta = 4, outside the
        # 5% of mixing.chi2_gap_consistency
        L, gap = ring3_metropolis(4.0)
        assert abs(rate_fit(L) / (2 * gap) - 1.0) <= 0.05

class TestTraceDistanceMonotone:
    def test_non_increasing_on_grid(self):
        heis = two_qubit_ising()
        sg = heis.sigma
        rho0 = np.diag([1.0, 0, 0, 0]).astype(complex)
        prop = SpectralPropagator(heis)
        coeffs = prop.coefficients([rho0])
        ts = np.linspace(0.0, 8.0, 17)
        dists = [trace_distance(prop.state_at(coeffs, t)[0], sg.sigma) for t in ts]
        assert all(d2 <= d1 + 1e-10 for d1, d2 in zip(dists, dists[1:]))

    def test_distances_in_sigma_basis_match_rotated_states(self):
        # one state's coefficients taken at every time of the grid at once
        heis = two_qubit_ising()
        sg = heis.sigma
        rho0 = np.diag([0.4, 0.3, 0.2, 0.1]).astype(complex)
        rho0[0, 3] = rho0[3, 0] = 0.1
        prop = SpectralPropagator(heis)
        coeffs = prop.coefficients([rho0])
        ts = np.linspace(0.0, 8.0, 17)
        dists = prop.distances(coeffs, ts)
        oracle = [trace_distance(prop.state_at(coeffs, t)[0], sg.sigma) for t in ts]
        assert np.abs(dists - oracle).max() <= 1e-12


def ring_propagator(H, n, w):
    prop = SpectralPropagator(build_ckg_generator(eigensystem(H), single_site_paulis(n), w))
    return prop, prop.sigma


def transverse_field_ring(n):
    field = sum(pauli_string_matrix(n, [(s, "X")]) for s in range(n))
    return assemble_dense(defected_ising_1d(n, 2.0)) + 0.7 * field


def density(psi):
    """The density matrix psi psi^dag of a family state vector, for the oracles."""
    return np.outer(psi, psi.conj())


def family_and_cap(prop, sg, eps):
    """The family's state vectors (6 Haar states, seed 11) and the chi-square cap t_upper."""
    gap = -np.sort(prop.evals)[-2]
    t_cap = mixing_bounds_from_gap(gap, sg.lambda_min, eps)[1]
    return [psi for _, psi in _initial_family(sg, n_haar=6, seed=11)], t_cap


def oracle_times(prop, states, t_cap):
    """Crossing times of the per-state oracle at epsilon = 1e-2, one density matrix at a time."""
    return np.array([first_crossing_time(prop, density(psi), 1e-2, t_cap) for psi in states])


class TestFirstCrossingTimes:
    @pytest.mark.parametrize("n", [3, 4])
    @pytest.mark.parametrize("kind", ["metropolis", "gaussian"])
    def test_ring_matches_per_state_oracle(self, n, kind):
        prop, sg = ring_propagator(assemble_dense(defected_ising_1d(n, 3.0)), n,
                                   WeightFunction(kind, 1.0))
        states, t_cap = family_and_cap(prop, sg, 1e-2)
        batched = first_crossing_times(prop, states, 1e-2, t_cap)
        oracle = oracle_times(prop, states, t_cap)
        assert np.all(np.abs(batched - oracle) <= BISECTION_RTOL * oracle)

    def test_certified_descent_keeps_the_times_and_flat_rounds_in_j(self):
        # t_cap grows like exp(2 beta J); the halvings from it that the chi-square
        # certificate decides take no round (the full rule took 30 / 36 / 42 here)
        rounds = []
        for J in (1.0, 3.0, 5.0):
            prop, sg = ring_propagator(assemble_dense(defected_ising_1d(5, J)), 5, GM)
            states, t_cap = family_and_cap(prop, sg, 1e-2)
            work = SearchWork()
            times = first_crossing_times(prop, states, 1e-2, t_cap, work)
            assert np.array_equal(times, oracle_times(prop, states, t_cap))
            rounds.append(work.rounds)
        assert max(rounds) - min(rounds) <= 1

    @pytest.mark.parametrize("kind", ["metropolis", "gaussian"])
    def test_transverse_field_ring_takes_eigenvalue_path(self, kind, monkeypatch):
        prop, sg = ring_propagator(transverse_field_ring(3), 3, WeightFunction(kind, 1.0))
        states, t_cap = family_and_cap(prop, sg, 1e-2)
        oracle = oracle_times(prop, states, t_cap)
        solved = []
        eigvalsh = np.linalg.eigvalsh

        def spy(a):
            solved.append(a.shape[0])
            return eigvalsh(a)

        monkeypatch.setattr(mixing.np.linalg, "eigvalsh", spy)
        batched = first_crossing_times(prop, states, 1e-2, t_cap)
        # coherences keep the sandwich open, so eigenvalues decide some rounds
        assert sum(solved) > 0
        assert np.all(np.abs(batched - oracle) <= BISECTION_RTOL * oracle)

    def test_depolarizing_family_matches_analytic(self):
        # every state of the H = I family crosses at log(||rho0 - I/2||_1 / eps) / (4 theta(0))
        H = np.eye(2)
        es = eigensystem(H)
        prop = SpectralPropagator(build_ckg_generator(es, single_site_paulis(1), GM))
        states = [np.diag([1.0, 0.0]), np.diag([0.2, 0.8]), np.array([[0.5, 0.5], [0.5, 0.5]])]
        eps = 1e-2
        rate = 4 * erfc(1 / (2 * np.sqrt(2)))
        analytic = np.log(np.array([1.0, 0.6, 1.0]) / eps) / rate
        assert first_crossing_times(prop, states, eps, 1.0) == pytest.approx(analytic, rel=1e-2)

    def test_state_within_epsilon_crosses_at_zero(self):
        heis = two_qubit_ising()
        sg = heis.sigma
        prop = SpectralPropagator(heis)
        assert first_crossing_times(prop, [sg.sigma], 1e-2, 1.0)[0] == 0.0

    def test_second_stationary_state_fails_bracket(self):
        # Z couplings commute with the Ising ring: every population is stationary
        H = assemble_dense(defected_ising_1d(3, 2.0))
        es = eigensystem(H)
        heis = build_ckg_generator(es, single_site_paulis(3)[2::3], GM)
        prop = SpectralPropagator(heis)
        rho0 = np.zeros((8, 8), dtype=complex)
        rho0[0, 0] = 1.0
        with pytest.raises(RuntimeError, match="bisection bracket failed"):
            first_crossing_times(prop, [rho0], 1e-2, 10.0)

    def test_empty_family_gives_no_times(self):
        heis = two_qubit_ising()
        times = first_crossing_times(SpectralPropagator(heis), [], 1e-2, 1.0)
        assert times.shape == (0,)

    def test_chunking_does_not_change_results(self, monkeypatch):
        # a chunk is sized by the blocks its states occupy: on the ring each
        # of the 16 population states holds d = 8 entries and each of the 6
        # Haar states all 64; on the transverse-field ring every state holds 64
        three_populations = 3 * 16 * 8
        for H, chunks in [(assemble_dense(defected_ising_1d(3, 3.0)), [22, 16 // 3 + 1 + 6]),
                          (transverse_field_ring(3), [22, 22])]:
            prop, sg = ring_propagator(H, 3, GM)
            states, t_cap = family_and_cap(prop, sg, 1e-2)
            monkeypatch.setattr(mixing, "CROSSING_STACK_BYTES", 2**40)
            work = SearchWork()
            whole = first_crossing_times(prop, states, 1e-2, t_cap, work)
            assert work.chunks == 1
            for budget, count in zip((1, three_populations), chunks):
                monkeypatch.setattr(mixing, "CROSSING_STACK_BYTES", budget)
                work = SearchWork()
                times = first_crossing_times(prop, states, 1e-2, t_cap, work)
                assert np.array_equal(times, whole)
                assert work.chunks == count
                # states may come from a generator, taken one at a time
                lazy = (psi for psi in states)
                assert np.array_equal(first_crossing_times(prop, lazy, 1e-2, t_cap), whole)

    def test_chunks_fit_the_budget(self, monkeypatch):
        # the stored entries of a chunk fit CROSSING_STACK_BYTES, except a
        # single state that is larger than the budget on its own
        prop, sg = ring_propagator(assemble_dense(defected_ising_1d(4, 3.0)), 4, GM)
        states, t_cap = family_and_cap(prop, sg, 1e-2)
        chunks = []
        bisect = mixing._bisect

        def spy(prop, coeffs, *args):
            chunks.append((coeffs.size, coeffs.support.size))
            return bisect(prop, coeffs, *args)

        monkeypatch.setattr(mixing, "_bisect", spy)
        whole = None
        for budget in (1, 16 * 16 * 5, 16 * 256 * 3, 2**19):
            monkeypatch.setattr(mixing, "CROSSING_STACK_BYTES", budget)
            chunks.clear()
            times = first_crossing_times(prop, states, 1e-2, t_cap)
            whole = times if whole is None else whole
            assert np.array_equal(times, whole)
            assert sum(size for size, _ in chunks) == len(states)
            assert all(size * support * 16 <= budget or size == 1 for size, support in chunks)
        # at the default budget the whole n = 4 family fits one chunk, on the
        # 136 vec indices of the 41 solved blocks (one of each conjugate pair)
        assert chunks == [(38, 136)]

    def test_haar_states_between_population_states_match_oracle(self, monkeypatch):
        prop, sg = ring_propagator(assemble_dense(defected_ising_1d(4, 3.0)), 4, GM)
        family = dict(_initial_family(sg, n_haar=3, seed=5))
        ids = ["comp_0", "haar_0", "comp_7", "eig_3", "haar_1", "haar_2", "comp_15", "eig_0"]
        states = [family[sid] for sid in ids]
        t_cap = family_and_cap(prop, sg, 1e-2)[1]
        oracle = oracle_times(prop, states, t_cap)
        for budget in (2**19, 2 * 16 * 256):  # one chunk; four chunks of two states
            monkeypatch.setattr(mixing, "CROSSING_STACK_BYTES", budget)
            assert np.array_equal(first_crossing_times(prop, states, 1e-2, t_cap), oracle)
        # a lazy family longer than one batch: occupied two states (16 d^2 bytes each) at a time
        batches, occupy = [], prop.occupy
        monkeypatch.setattr(prop, "occupy", lambda batch: batches.append(len(batch)) or occupy(batch))
        assert np.array_equal(first_crossing_times(prop, iter(states), 1e-2, t_cap), oracle)
        assert batches == [2, 2, 2, 2]

    @pytest.mark.parametrize("H", [assemble_dense(defected_ising_1d(3, 3.0)),
                                   transverse_field_ring(3)], ids=["ring", "transverse"])
    def test_vector_and_density_matrix_give_equal_times(self, H):
        prop, sg = ring_propagator(H, 3, GM)
        states, t_cap = family_and_cap(prop, sg, 1e-2)
        as_vectors = first_crossing_times(prop, states, 1e-2, t_cap)
        as_matrices = first_crossing_times(prop, [density(psi) for psi in states], 1e-2, t_cap)
        assert np.array_equal(as_vectors, as_matrices)


class TestBlockSparseSearch:
    @pytest.mark.parametrize("n", [3, 4, 5])
    @pytest.mark.parametrize("J", [1.0, 3.0, 5.0])
    def test_diagonal_support_takes_no_eigensolve(self, n, J, monkeypatch):
        # computational and Gibbs-eigenbasis states of the commuting ring occupy
        # only the population block; the sandwich is tight on its diagonal support
        prop, sg = ring_propagator(assemble_dense(defected_ising_1d(n, J)), n, GM)
        states = [psi for _, psi in _initial_family(sg, n_haar=0)]
        support = prop.coefficients(states).support
        assert np.array_equal(np.sort(support), np.arange(2**n) * (2**n + 1))  # (i, i) pairs
        t_cap = family_and_cap(prop, sg, 1e-2)[1]
        oracle = oracle_times(prop, states, t_cap)
        solved = []
        eigvalsh = np.linalg.eigvalsh

        def spy(a):
            solved.append(a.shape[0])
            return eigvalsh(a)

        monkeypatch.setattr(mixing.np.linalg, "eigvalsh", spy)
        batched = first_crossing_times(prop, states, 1e-2, t_cap)
        assert solved == []
        assert np.array_equal(batched, oracle)

    def test_mixed_chunk_matches_oracle(self):
        prop, sg = ring_propagator(assemble_dense(defected_ising_1d(4, 3.0)), 4, GM)
        family = dict(_initial_family(sg, n_haar=1, seed=5))
        states = [family["comp_3"], family["haar_0"]]
        assert prop.coefficients(states).support.size == 136  # every solved block
        t_cap = family_and_cap(prop, sg, 1e-2)[1]
        oracle = oracle_times(prop, states, t_cap)
        assert np.array_equal(first_crossing_times(prop, states, 1e-2, t_cap), oracle)

    @pytest.mark.parametrize("sid", ["comp_5", "eig_2", "haar_0"])
    def test_support_propagation_matches_rotated_states(self, sid):
        # the support entries, scattered, give the same states and distances as
        # the dense matrix exponential and the singular values of rho(t) - sigma
        H = assemble_dense(defected_ising_1d(3, 3.0))
        es = eigensystem(H)
        heis = build_ckg_generator(es, single_site_paulis(3), GM)
        sg = heis.sigma
        prop = SpectralPropagator(heis)
        psi = dict(_initial_family(sg, n_haar=1, seed=5))[sid]
        rho0 = density(psi)
        coeffs = prop.coefficients([psi])
        assert np.array_equal(coeffs.support, prop.coefficients([rho0]).support)
        ts = np.array([0.0, 0.3, 2.0, 9.0])
        dists = prop.distances(coeffs, ts)
        for t, dist in zip(ts, dists):
            rho_t = prop.state_at(coeffs, t)[0]
            assert np.abs(rho_t - oracles.expm_flow(heis, rho0, t)).max() <= 1e-12
            assert abs(dist - trace_distance(rho_t, sg.sigma)) <= 1e-12


def hermitian(draw, d):
    re = draw(st.lists(st.floats(-1, 1), min_size=d * d, max_size=d * d))
    im = draw(st.lists(st.floats(-1, 1), min_size=d * d, max_size=d * d))
    A = np.array(re).reshape(d, d) + 1j * np.array(im).reshape(d, d)
    return A + A.conj().T


@st.composite
def hermitian_stacks(draw):
    d = draw(st.integers(1, 6))
    return np.array([hermitian(draw, d) for _ in range(draw(st.integers(1, 3)))])


class TestTraceNormBounds:
    @settings(max_examples=60, deadline=None)
    @given(hermitian_stacks())
    def test_sandwich_holds(self, Y):
        lower, upper = trace_norm_bounds(Y)
        exact = np.abs(np.linalg.eigvalsh(Y)).sum(axis=-1)
        slack = 1e-12 * np.maximum(1.0, exact)  # the eigensolver's own rounding
        assert np.all(lower <= exact + slack)
        assert np.all(exact <= upper + slack)

    @settings(max_examples=60, deadline=None)
    @given(st.data())
    def test_support_bounds_match_whole_matrix(self, data):
        # supports need not be closed under transpose; the bounds still agree
        d = data.draw(st.integers(1, 5))
        support = np.array(data.draw(st.lists(st.integers(0, d * d - 1), min_size=1,
                                              max_size=d * d, unique=True)))
        S = data.draw(st.integers(1, 3))
        parts = [np.array(data.draw(st.lists(st.floats(-1, 1), min_size=support.size * S,
                                             max_size=support.size * S))) for _ in range(2)]
        x = (parts[0] + 1j * parts[1]).reshape(support.size, S)
        weights = np.array(data.draw(st.lists(st.floats(0, 1), min_size=d, max_size=d)))
        v = np.zeros((S, d * d), dtype=complex)
        v[:, support] = x.T
        X = v.reshape(S, d, d).swapaxes(1, 2)  # row s is vec(X_s), column-stacked
        Y = 0.5 * (X + X.conj().swapaxes(1, 2)) - np.diag(weights)
        lower, upper = SupportBounds(support, weights)(x)
        whole = trace_norm_bounds(Y)
        assert np.allclose(lower, whole[0], rtol=1e-12, atol=1e-14)
        assert np.allclose(upper, whole[1], rtol=1e-12, atol=1e-14)

    @settings(max_examples=60, deadline=None)
    @given(st.data())
    def test_support_bounds_with_mirrors_match_whole_mirrored_matrix(self, data):
        # an entry marked mirrored also stands for its conjugate at the transpose,
        # which lies off the support
        d = data.draw(st.integers(1, 5))
        support = np.array(data.draw(st.lists(st.integers(0, d * d - 1), min_size=1,
                                              max_size=d * d, unique=True)))
        i, j = support % d, support // d
        transposed_off = ~np.isin(j + d * i, support)
        marks = np.array(data.draw(st.lists(st.booleans(), min_size=support.size,
                                            max_size=support.size)))
        mirrored = marks & transposed_off & (i != j)
        S = data.draw(st.integers(1, 3))
        parts = [np.array(data.draw(st.lists(st.floats(-1, 1), min_size=support.size * S,
                                             max_size=support.size * S))) for _ in range(2)]
        x = (parts[0] + 1j * parts[1]).reshape(support.size, S)
        weights = np.array(data.draw(st.lists(st.floats(0, 1), min_size=d, max_size=d)))
        v = np.zeros((S, d * d), dtype=complex)
        v[:, support] = x.T
        v[:, (j + d * i)[mirrored]] = x[mirrored].T.conj()
        X = v.reshape(S, d, d).swapaxes(1, 2)  # row s is vec(X_s), column-stacked
        Y = 0.5 * (X + X.conj().swapaxes(1, 2)) - np.diag(weights)
        lower, upper = SupportBounds(support, weights, mirrored=mirrored)(x)
        whole = trace_norm_bounds(Y)
        assert np.allclose(lower, whole[0], rtol=1e-12, atol=1e-14)
        assert np.allclose(upper, whole[1], rtol=1e-12, atol=1e-14)

    def test_diagonal_is_tight(self):
        Y = np.diag([0.3, -0.2, 0.0, -0.1]).astype(complex)[None]
        lower, upper = trace_norm_bounds(Y)
        assert lower[0] == pytest.approx(0.6, rel=1e-15)
        assert upper[0] == pytest.approx(0.6, rel=1e-15)


class TestBottleneckWitness:
    def test_containment_residual_vanishes(self):
        spec = defected_ising_1d(4, 3.0)
        rep = bottleneck_witness(spec, (0, 1), 1.0)
        assert rep["containment_residual"] < 1e-10

    def test_sector_weights(self):
        # exact Gibbs weights: misaligned sector is Boltzmann suppressed
        beta = 1.0
        for J in (2.0, 3.0, 4.0, 5.0):
            spec = defected_ising_1d(4, J)
            rep = bottleneck_witness(spec, (0, 1), beta)
            assert rep["weights"]["B"] <= 10 * np.exp(-2 * beta * J)
        rep5 = bottleneck_witness(spec, (0, 1), beta)
        assert rep5["weights"]["A"] + rep5["weights"]["C"] >= 0.9

    def test_weights_sum_to_one(self):
        spec = defected_ising_1d(4, 2.0)
        rep = bottleneck_witness(spec, (0, 1), 1.0)
        assert sum(rep["weights"].values()) == pytest.approx(1.0, abs=1e-10)

    def test_missing_bond_rejected(self):
        spec = defected_ising_1d(4, 2.0)
        with pytest.raises(ValueError):
            bottleneck_witness(spec, (0, 2), 1.0)

    def test_noncommuting_rest_rejected(self):
        spec = HamiltonianSpec(
            n=2,
            terms=(PauliTerm(-3.0, ((0, "Z"), (1, "Z"))), PauliTerm(0.5, ((0, "X"),))),
        )
        with pytest.raises(ValueError):
            bottleneck_witness(spec, (0, 1), 1.0)
