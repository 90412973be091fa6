import numpy as np
import pytest
from scipy.linalg import expm
from scipy.special import erfc

from qrex.hamiltonians import HamiltonianSpec, PauliTerm, assemble_dense, defected_ising_1d
from qrex.lindblad import (
    WeightFunction,
    build_ckg_generator,
    eigensystem,
    gibbs_state,
    unvec,
    vec,
)
from qrex.mixing import (
    SpectralPropagator,
    bottleneck_witness,
    chi_square,
    chi_square_rate_fit,
    evolve,
    first_crossing_time,
    gap_mode_state,
    mixing_bounds_from_gap,
    mixing_time_estimate,
    trace_distance,
)
from qrex.pauli import single_site_paulis
from qrex.spectral import block_eigh, spectral_gap, symmetrize

GM = WeightFunction("metropolis", 1.0)


def two_qubit_ising(w=GM, beta=1.0):
    spec = HamiltonianSpec(n=2, terms=(PauliTerm(-1.0, ((0, "Z"), (1, "Z"))),))
    H = assemble_dense(spec)
    es = eigensystem(H)
    heis = build_ckg_generator(H, single_site_paulis(2), w, es=es)
    return heis, gibbs_state(es, beta)


class TestEvolve:
    def test_time_zero_identity(self):
        heis, sg = two_qubit_ising()
        rho0 = np.diag([1.0, 0, 0, 0]).astype(complex)
        assert np.allclose(evolve(heis, rho0, 0.0, sigma=sg), rho0, atol=1e-12)

    def test_long_time_reaches_gibbs(self):
        heis, sg = two_qubit_ising()
        gap = spectral_gap(heis, sg).gap
        rho0 = np.diag([1.0, 0, 0, 0]).astype(complex)
        rho_t = evolve(heis, rho0, 1e3 / gap, sigma=sg)
        assert trace_distance(rho_t, sg.sigma) < 1e-8

    def test_trace_and_positivity_along_flow(self):
        heis, sg = two_qubit_ising()
        rho0 = np.diag([0.5, 0.5, 0, 0]).astype(complex)
        for t in np.logspace(-2, 2, 9):
            rho_t = evolve(heis, rho0, t, sigma=sg)
            assert abs(np.trace(rho_t) - 1.0) < 1e-10
            assert np.linalg.eigvalsh(rho_t).min() >= -1e-10

    def test_matches_dense_exponential(self):
        heis, sg = two_qubit_ising()
        rho0 = np.diag([0.25, 0.25, 0.25, 0.25]).astype(complex)
        rho0[0, 3] = rho0[3, 0] = 0.1
        for t in (0.3, 1.7):
            spectral = evolve(heis, rho0, t, sigma=sg)
            dense = unvec(expm(t * heis.matrix.conj().T) @ vec(rho0))
            assert np.linalg.norm(spectral - dense) < 1e-9

    def test_non_db_falls_back_with_warning(self):
        heis, sg = two_qubit_ising()
        rho0 = np.eye(4, dtype=complex) / 4
        with pytest.warns(UserWarning):
            out = evolve(heis, rho0, 0.5)
        assert abs(np.trace(out) - 1.0) < 1e-10

    def test_invalid_state_rejected(self):
        heis, sg = two_qubit_ising()
        with pytest.raises(ValueError):
            evolve(heis, np.eye(4, dtype=complex), 0.1, sigma=sg)


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
        heis = build_ckg_generator(H, single_site_paulis(1), GM, es=es)
        sg = gibbs_state(es, 1.0)
        prop = SpectralPropagator(heis, sg)
        eps = 1e-2
        tc = first_crossing_time(prop, np.diag([1.0, 0.0]).astype(complex), eps, 10.0)
        analytic = np.log(1 / eps) / (4 * erfc(1 / (2 * np.sqrt(2))))
        assert tc == pytest.approx(analytic, rel=1e-2)

    def test_two_qubit_sandwich(self):
        heis, sg = two_qubit_ising()
        rep = mixing_time_estimate(heis, sg, 1e-2)
        assert rep.t_lower <= rep.t_measured <= rep.t_upper
        assert rep.method == "spectral"

    def test_monotone_in_epsilon(self):
        heis, sg = two_qubit_ising()
        rep1 = mixing_time_estimate(heis, sg, 1e-2, n_haar=5)
        rep2 = mixing_time_estimate(heis, sg, 1e-3, n_haar=5)
        assert rep2.t_measured >= rep1.t_measured

    def test_crossing_below_upper_bound_for_every_state(self):
        heis, sg = two_qubit_ising()
        rep = mixing_time_estimate(heis, sg, 1e-2, n_haar=5)
        tol = rep.t_upper * 1e-3 + 1e-9
        assert all(t <= rep.t_upper + tol for _, t in rep.crossings)

    def test_defected_ising_within_bounds(self):
        spec = defected_ising_1d(3, 4.0)
        H = assemble_dense(spec)
        es = eigensystem(H)
        heis = build_ckg_generator(H, single_site_paulis(3), GM, es=es)
        sg = gibbs_state(es, 1.0)
        rep = mixing_time_estimate(heis, sg, 1e-2, n_haar=5)
        assert rep.t_lower <= rep.t_measured <= rep.t_upper


class TestChiSquare:
    def test_zero_at_fixed_point(self):
        _, sg = two_qubit_ising()
        assert chi_square(sg.sigma, sg) == pytest.approx(0.0, abs=1e-12)

    def test_saturated_by_min_weight_eigenstate(self):
        _, sg = two_qubit_ising()
        v = sg.eigenvectors[:, 0]  # eigenvalues stored ascending
        rho = np.outer(v, v.conj())
        assert chi_square(rho, sg) == pytest.approx(1 / sg.lambda_min - 1, rel=1e-10)

    def test_contraction_along_flow(self):
        heis, sg = two_qubit_ising()
        gap = spectral_gap(heis, sg).gap
        rng = np.random.default_rng(5)
        R = rng.standard_normal((4, 4)) + 1j * rng.standard_normal((4, 4))
        rho0 = R @ R.conj().T
        rho0 /= np.trace(rho0)
        chi0 = chi_square(rho0, sg)
        for t in np.linspace(0.2, 3.0, 6):
            rho_t = evolve(heis, rho0, t, sigma=sg)
            assert chi_square(rho_t, sg) <= np.exp(-2 * gap * t) * chi0 + 1e-12

    def test_rate_fit_matches_gap(self):
        heis, sg = two_qubit_ising()
        gap = spectral_gap(heis, sg).gap
        rate = chi_square_rate_fit(heis, sg)
        assert abs(rate / (2 * gap) - 1.0) <= 0.05

    def test_gap_mode_state_is_valid(self):
        heis, sg = two_qubit_ising()
        rho0 = gap_mode_state(heis, sg)
        assert abs(np.trace(rho0) - 1.0) < 1e-10
        assert np.linalg.eigvalsh(rho0).min() >= -1e-12

    def test_gap_mode_decays_at_twice_gap_when_degenerate_across_blocks(self):
        # on H = I the six weight-1 Pauli modes share the gap; L_hat splits
        # them over several blocks, and the mode is taken from one of them
        H = np.eye(4)
        es = eigensystem(H)
        heis = build_ckg_generator(H, single_site_paulis(2), GM, es=es)
        sg = gibbs_state(es, 1.0)
        gap = spectral_gap(heis, sg).gap
        blocks = block_eigh(-symmetrize(heis, sg), vectors=False)
        at_gap = sum(int(np.sum(np.any(np.abs(w - gap) <= 1e-12 * gap, axis=1)))
                     for _, w, _ in blocks)
        assert at_gap > 1
        rho0 = gap_mode_state(heis, sg)
        ts = np.linspace(0.5 / gap, 2.0 / gap, 4)
        chis = [chi_square(evolve(heis, rho0, t, sigma=sg), sg) for t in ts]
        rates = -np.diff(np.log(chis)) / np.diff(ts)
        assert np.allclose(rates, 2 * gap, rtol=1e-9)
        assert chi_square_rate_fit(heis, sg) == pytest.approx(2 * gap, rel=1e-9)


class TestTraceDistanceMonotone:
    def test_non_increasing_on_grid(self):
        heis, sg = two_qubit_ising()
        rho0 = np.diag([1.0, 0, 0, 0]).astype(complex)
        prop = SpectralPropagator(heis, sg)
        coeffs = prop.coefficients(rho0)
        ts = np.linspace(0.0, 8.0, 17)
        dists = [trace_distance(prop.state_at(coeffs, t), sg.sigma) for t in ts]
        assert all(d2 <= d1 + 1e-10 for d1, d2 in zip(dists, dists[1:]))


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
