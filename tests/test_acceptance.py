"""Acceptance criteria, one test per criterion, each printing a PASS/FAIL line.

Run with `pytest tests/test_acceptance.py -v` (the summary lines bypass
pytest's capture so they are always visible).
"""

import sys

import numpy as np
import pytest

from qrex.classical import (
    bottleneck_ratio,
    classical_defected_ising_energy,
    classical_gap,
    classical_re_generator,
    glauber_generator,
)
from qrex.hamiltonians import (
    check_commuting_cut,
    defected_heisenberg_2d,
    defected_ising_1d,
)
from qrex.lindblad import (
    WeightFunction,
    alpha_quadrature,
    build_ckg_generator,
    eigensystem,
    theta,
)
from qrex.mixing import (
    SpectralPropagator,
    chi_square_rate_fit,
    mixing_time_estimate,
    trace_norm,
)
from qrex.pauli import single_site_paulis
from qrex.replica import (
    build_replica_exchange_generator,
    joint_structure,
    swap_generator_closed_form,
    swap_generator_generic,
    swap_sector_analysis,
)
from qrex.spectral import (
    gap_composition_suite,
    spectral_gap,
)

from oracles import (
    assemble_dense,
    bottleneck_witness,
    coherent_term,
    detailed_balance_residual,
    jump_components,
    matrix,
    partial_lindbladian_check,
    swap_unitary_original,
)

BETA = 1.0
GM = WeightFunction("metropolis", BETA)
GG = WeightFunction("gaussian", BETA)


def announce(num, name, passed, detail=""):
    status = "PASS" if passed else "FAIL"
    print(f"[acceptance {num:>2}] {name}: {status} {detail}", file=sys.__stdout__)
    assert passed, f"criterion {num} ({name}) failed: {detail}"


def single_generator(J, w=GM, n=3):
    H = assemble_dense(defected_ising_1d(n, J))
    return build_ckg_generator(eigensystem(H), single_site_paulis(n), w)


def test_01_detailed_balance_and_fixed_point():
    worst_db, worst_fp = 0.0, 0.0
    for w in (GG, GM):
        heis = single_generator(3.0, w)
        worst_db = max(worst_db, detailed_balance_residual(heis))
        worst_fp = max(worst_fp, trace_norm(heis.apply_adjoint(heis.sigma.sigma)))
    announce(1, "detailed balance & fixed point", worst_db < 1e-10 and worst_fp < 1e-10,
             f"db={worst_db:.2e} fp={worst_fp:.2e}")


def test_02_theta_validation():
    grid = np.linspace(-20.0, 20.0, 401)
    closed = theta(grid)
    quad = alpha_quadrature(grid / BETA, grid / BETA, GM)
    max_diff = np.abs(closed - quad).max()
    theta0_ok = abs(theta(0.0) - 0.617) < 1e-3
    bounds_ok = np.all(closed >= 0) and np.all(closed <= 2.0) \
        and np.all(closed <= np.exp(-grid / 2) + 1e-12)
    announce(2, "theta closed form vs quadrature", max_diff < 1e-8 and theta0_ok and bounds_ok,
             f"max|diff|={max_diff:.2e} theta(0)={theta(0.0):.4f}")


def test_03_slow_mixing_gap_collapse():
    gaps = {}
    for J in (1.0, 2.0, 3.0, 4.0, 5.0):
        gaps[J] = spectral_gap(single_generator(J, GM)).gap
    steps_ok = all(gaps[J + 1] / gaps[J] <= np.exp(-1.0) for J in (1.0, 2.0, 3.0, 4.0))
    total_ok = gaps[5.0] / gaps[1.0] <= np.exp(-6.0)
    announce(3, "slow mixing in J", steps_ok and total_ok,
             f"gap(5)/gap(1)={gaps[5.0] / gaps[1.0]:.2e}")


def test_04_replica_exchange_acceleration():
    gaps_re, gaps_single, bounds_ok = {}, {}, True
    for J in (1.0, 2.0, 3.0, 4.0, 5.0):
        spec = defected_ising_1d(3, J)
        js = joint_structure(spec)
        gaps_re[J] = spectral_gap(build_replica_exchange_generator(js, GG)).gap
        gaps_single[J] = spectral_gap(single_generator(J, GM)).gap
        part = partial_lindbladian_check(spec, GG)
        cut = check_commuting_cut(spec)
        d_a = 2 ** len(spec.partition[0])
        bound = 0.25 * min(part["g_b"], 1.0) / (d_a * np.exp(4 * BETA * cut.k_count * cut.v_max))
        bounds_ok &= gaps_re[J] >= bound
    flat = max(gaps_re.values()) / min(gaps_re.values())
    accel = gaps_re[5.0] / gaps_single[5.0]
    announce(4, "replica-exchange acceleration",
             flat <= 3.0 and accel >= 100.0 and bounds_ok,
             f"re max/min={flat:.2f} accel(J=5)={accel:.0f}")


def test_05_swap_generator_structure():
    spec = defected_ising_1d(3, 2.0)
    js = joint_structure(spec)
    closed = swap_generator_closed_form(js, BETA)
    generic = swap_generator_generic(js, BETA)
    rel = np.linalg.norm(matrix(closed) - matrix(generic), 2) / np.linalg.norm(matrix(generic), 2)
    norm = swap_sector_analysis(js, closed)["kms_norm"]
    H_joint = np.kron(assemble_dense(spec), np.eye(js.d_a)) + np.eye(js.joint_dim)
    es = eigensystem(H_joint)
    G = coherent_term([jump_components(swap_unitary_original(js), es)], es, GM)
    g_zero = np.linalg.norm(G)
    announce(5, "swap generator structure",
             norm <= 3.0 + 1e-6 and g_zero < 1e-12 and rel <= 1e-9,
             f"kms_norm={norm:.4f} |G|={g_zero:.2e} closed-vs-generic={rel:.2e}")


def test_06_kernel_characterization():
    js = joint_structure(defected_ising_1d(3, 3.0))
    heis = build_replica_exchange_generator(js, GG)
    rep = spectral_gap(heis)
    kern = swap_sector_analysis(js, swap_generator_closed_form(js, BETA))
    cross_ok = all(v < 1e-10 for v in kern["cross_term_residuals"].values())
    announce(6, "kernel characterization",
             rep.kernel_dim == 1 and kern["restricted_kernel_dim"] == 1 and cross_ok,
             f"joint={rep.kernel_dim} swap-sector={kern['restricted_kernel_dim']} "
             f"cross_max={max(kern['cross_term_residuals'].values()):.1e}")


def test_07_partial_lindbladian_suite():
    ising = partial_lindbladian_check(defected_ising_1d(4, 3.0), GM)
    heis_spec = defected_heisenberg_2d(2, 3, (0, 3), (0, 3), 4.0)
    heisen = partial_lindbladian_check(heis_spec, WeightFunction("metropolis", 0.05))
    announce(7, "partial Lindbladian suite",
             ising["max_factorization_residual"] < 1e-9
             and ising["max_fixed_point_mismatch"] < 1e-10
             and heisen["g_b"] >= 0.1,
             f"resid={ising['max_factorization_residual']:.1e} "
             f"fp={ising['max_fixed_point_mismatch']:.1e} heisenberg g_B={heisen['g_b']:.3f}")


def test_08_mixing_sandwich():
    from qrex.hamiltonians import HamiltonianSpec, PauliTerm

    spec = HamiltonianSpec(n=2, terms=(PauliTerm(-1.0, ((0, "Z"), (1, "Z"))),))
    H = assemble_dense(spec)
    es = eigensystem(H)
    heis = build_ckg_generator(es, single_site_paulis(2), GM)
    rep = mixing_time_estimate(heis, 1e-2)
    in_bracket = rep.t_lower <= rep.t_measured <= rep.t_upper
    rate = chi_square_rate_fit(SpectralPropagator(heis))
    rate_ok = abs(rate / (2 * rep.gap) - 1.0) <= 0.05
    announce(8, "mixing-time sandwich", in_bracket and rate_ok,
             f"t=[{rep.t_lower:.2f} <= {rep.t_measured:.2f} <= {rep.t_upper:.2f}] "
             f"chi2 rate/2g={rate / (2 * rep.gap):.4f}")


def test_09_classical_baseline():
    beta1, beta2 = 1.0, 0.2
    Js = np.arange(1.0, 6.0)
    phis, singles, res = [], [], []
    for J in Js:
        efn = lambda z: classical_defected_ising_energy(z, J)
        chain = glauber_generator(efn, 4, beta1)
        phis.append(bottleneck_ratio(chain)[0])
        singles.append(classical_gap(chain))
        res.append(classical_gap(classical_re_generator(efn, 4, beta1, beta2)))
    slope = np.polyfit(Js, np.log(phis), 1)[0]
    slope_ok = -2.5 * beta1 <= slope <= -1.5 * beta1
    collapse = max(singles) / min(singles)
    flat = max(res) / min(res)
    announce(9, "classical baseline", slope_ok and collapse >= 50.0 and flat <= 3.0,
             f"slope={slope:.2f} single collapse={collapse:.0f}x re ratio={flat:.2f}")


def test_10_gap_composition_suite():
    report = gap_composition_suite(seed=42, n_instances=200)
    worst = min(c["worst_margin"] for c in report["cases"].values())
    announce(10, "gap composition property suite", report["passed"],
             f"violations={ {k: v['violations'] for k, v in report['cases'].items()} } "
             f"worst margin={worst:.1e}")


def test_11_bottleneck_witness():
    beta = 1.0
    containment_ok, sector_ok = True, True
    for J in (2.0, 3.0, 4.0, 5.0):
        rep = bottleneck_witness(defected_ising_1d(4, J), (0, 1), beta)
        containment_ok &= rep["containment_residual"] < 1e-10
        sector_ok &= rep["weights"]["B"] <= 10 * np.exp(-2 * beta * J)
    rep5 = bottleneck_witness(defected_ising_1d(4, 5.0), (0, 1), beta)
    mass_ok = rep5["weights"]["A"] + rep5["weights"]["C"] >= 0.9
    announce(11, "bottleneck witness", containment_ok and sector_ok and mass_ok,
             f"containment={rep5['containment_residual']:.1e} "
             f"A+C={rep5['weights']['A'] + rep5['weights']['C']:.3f}")
