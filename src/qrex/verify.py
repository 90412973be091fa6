"""Cross-module invariant suite behind the `verify` scenario.

Each check runs a self-contained numerical experiment at desk scale and
returns (name, passed, detail).  Failures carry the measured number so a
regression is diagnosable from the report alone.  A check that reads a
gap double precision cannot resolve fails with the error text in its
detail (``_gap_check``), and the other checks still run.

The closed-form and generic swap generators are both stored in the labeled
|i_A j_B m_A> basis, so they are compared as sparse triplets with no basis
change; the gap-composition suite draws its instances as stacks; the
scalar inequalities are checked as arrays.  Each generator carries its
Gibbs state and is symmetrized and decomposed once, and the swap generator
is built once.
"""

import numpy as np

from .classical import (
    bottleneck_ratio,
    classical_defected_ising_energy,
    classical_gap,
    classical_re_generator,
    glauber_generator,
)
from .hamiltonians import assemble, compress_onto, defected_ising_1d
from .lindblad import (
    Superoperator,
    Triplets,
    WeightFunction,
    add,
    alpha_coeff,
    alpha_quadrature,
    build_ckg_generator,
    eigenbasis_entries,
    eigensystem,
    erfc,
    group_frequencies,
    theta,
)
from .mixing import SpectralPropagator, chi_square_rate_fit, trace_norm
from .pauli import single_site_paulis
from .replica import (
    CLOSED_FORM_RTOL,
    build_replica_exchange_generator,
    joint_structure,
    swap_generator_closed_form,
    swap_generator_generic,
    swap_sector_analysis,
)
from .spectral import (
    UnresolvedGapError,
    gap_composition_suite,
    gap_from_eigenvalues,
    kernel_threshold,
    spectral_gap,
    spectral_norm,
)


def _check(name, passed, detail):
    return {"check": name, "passed": bool(passed), "detail": detail}


def _gap_check(name, run):
    """The row of a check that reads a gap: ``run()`` gives (passed, detail), and a gap it
    cannot resolve (UnresolvedGapError) fails the check with the error text."""
    try:
        return _check(name, *run())
    except UnresolvedGapError as exc:
        return _check(name, False, f"numerical error: {exc}")


def run_verification(seed=42, beta=1.0):
    """Run every invariant check; returns a list of result rows."""
    results = []
    gm = WeightFunction("metropolis", beta)
    gg = WeightFunction("gaussian", beta)
    spec3 = defected_ising_1d(3, 3.0)
    H3 = assemble(spec3).toarray()
    es3 = eigensystem(H3)

    # hamiltonians
    herm = np.linalg.norm(H3 - H3.conj().T) / np.linalg.norm(H3)
    results.append(_check("hamiltonians.hermiticity", herm <= 1e-12, f"residual {herm:.2e}"))

    js3 = joint_structure(spec3)  # the one cut analysis of spec3, shared by every check
    cut = js3.cut
    h_ab = sum(np.kron(va, vb) for va, vb in cut.interaction)
    bound_ok = np.linalg.norm(h_ab, 2) <= cut.k_count * cut.v_max + 1e-10
    results.append(_check("hamiltonians.commuting_cut", cut.holds and bound_ok,
                          f"holds={cut.holds} K*Vmax={cut.k_count * cut.v_max}"))

    rng = np.random.default_rng(seed)
    v = rng.standard_normal(4) + 1j * rng.standard_normal(4)
    v /= np.linalg.norm(v)
    H4 = assemble(defected_ising_1d(4, 2.0)).toarray()
    comp = compress_onto(H4, v, ((0, 1), (2, 3)), 4)
    contractive = np.linalg.norm(comp, 2) <= np.linalg.norm(H4, 2) + 1e-12
    results.append(_check("hamiltonians.compress_contractive", contractive,
                          f"norm {np.linalg.norm(comp, 2):.3f}"))

    # lindblad
    worst_fp = 0.0
    worst_tr = 0.0
    L_m, L_g = (build_ckg_generator(es3, single_site_paulis(3), w) for w in (gm, gg))
    for L in (L_m, L_g):
        worst_fp = max(worst_fp, trace_norm(L.apply_adjoint(L.sigma.sigma)))
        R = rng.standard_normal((8, 8)) + 1j * rng.standard_normal((8, 8))
        rho = R @ R.conj().T
        rho /= np.trace(rho)
        worst_tr = max(worst_tr, abs(np.trace(L.apply_adjoint(rho))))
    results.append(_check("lindblad.fixed_point", worst_fp < 1e-10, f"trace norm {worst_fp:.2e}"))
    results.append(_check("lindblad.trace_preservation", worst_tr < 1e-10, f"{worst_tr:.2e}"))

    psd_ok = True
    min_ev = 0.0
    lam = es3.eigenvalues
    for S in single_site_paulis(3):
        # the Bohr groups of the coupling entries the assembly keeps, at k*d + i
        k, i = np.divmod(eigenbasis_entries(S, es3)[0], es3.dim)
        nus = group_frequencies(lam[k] - lam[i], float(np.abs(lam).max()))[0]
        A = alpha_coeff(nus[:, None], nus[None, :], gm)
        ev = np.linalg.eigvalsh(A).min()
        min_ev = min(min_ev, ev)
        psd_ok &= ev >= -1e-10
    results.append(_check("lindblad.alpha_gram_psd", psd_ok, f"min eigenvalue {min_ev:.2e}"))

    # one decomposition of L_m serves the kernel, gap, spectrum and mixing checks
    prop = SpectralPropagator(L_m)
    evals = -prop.evals[::-1]  # spectrum of -L_hat, ascending
    results.append(_check("lindblad.negativity", evals[0] >= -kernel_threshold(evals),
                          f"min {evals[0]:.2e}"))

    def kernel_unique():  # the reader refuses any kernel dimension but 1
        return True, f"dim {gap_from_eigenvalues(evals).kernel_dim}"

    results.append(_gap_check("lindblad.kernel_unique", kernel_unique))

    # replica / theta
    grid = np.linspace(-50, 50, 501)
    th = theta(grid)
    theta_ok = np.all(th >= 0) and np.all(th <= 2.0) and np.all(th <= np.exp(-grid / 2) + 1e-12)
    results.append(_check("replica.theta_bounds", theta_ok,
                          f"range [{th.min():.3f}, {th.max():.3f}]"))

    quad_grid = np.linspace(-20, 20, 101)
    diff = np.abs(theta(quad_grid) - alpha_quadrature(quad_grid / beta, quad_grid / beta, gm)).max()
    results.append(_check("replica.theta_quadrature", diff < 1e-8, f"max diff {diff:.2e}"))

    w1, w2 = rng.uniform(-4, 4, size=(100, 2)).T
    cs_ok = np.all(alpha_coeff(w1, w2, gm) ** 2
                   <= np.sqrt(np.exp(-beta * w1) * np.exp(-beta * w2)) + 1e-10)
    results.append(_check("replica.cauchy_schwarz", cs_ok, "100 random pairs"))

    ps = np.linspace(0.01, 0.99, 50)
    pi_, pj = np.meshgrid(ps, ps, indexing="ij")
    inside = pi_ + pj <= 1.0
    pi_, pj = pi_[inside], pj[inside]
    r = np.log(pj / pi_)
    lhs = pj * erfc((1 + 2 * r) / (2 * np.sqrt(2))) + pi_ * erfc((1 - 2 * r) / (2 * np.sqrt(2)))
    erfc_ok = np.all(lhs >= pi_ * pj / (pi_ + pj) - 1e-12)
    results.append(_check("replica.erfc_mean_bound", erfc_ok, "50x50 grid"))

    swap_closed = swap_generator_closed_form(js3, beta)
    swap_generic = swap_generator_generic(js3, beta)
    # both are stored in the labeled basis, so their triplets compare directly
    same_basis = np.array_equal(swap_closed.basis, swap_generic.basis)
    rel = (spectral_norm(add(swap_closed.local, -swap_generic.local))
           / spectral_norm(swap_generic.local))
    results.append(_check("replica.closed_vs_generic", same_basis and rel <= CLOSED_FORM_RTOL,
                          f"rel diff {rel:.2e}"))

    sector = swap_sector_analysis(js3, swap_closed)
    norm = sector["kms_norm"]
    results.append(_check("replica.swap_norm_le_3", norm <= 3.0 + 1e-6, f"norm {norm:.6f}"))

    sec_ok = all(v >= sector["threshold"] for v in sector["sector_minima"].values())
    results.append(_check("replica.sector_lower_bounds", sec_ok,
                          f"minima {sector['sector_minima']} >= {sector['threshold']:.2e}"))

    cross_ok = all(vv < 1e-10 for vv in sector["cross_term_residuals"].values())
    results.append(_check("replica.swap_kernel_sector",
                          sector["restricted_kernel_dim"] == 1 and cross_ok,
                          f"dim {sector['restricted_kernel_dim']}, "
                          f"cross {sector['cross_term_residuals']}"))

    def joint_kernel_dim():  # likewise
        return True, f"dim {spectral_gap(build_replica_exchange_generator(js3, gg)).kernel_dim}"

    results.append(_gap_check("replica.joint_kernel_dim", joint_kernel_dim))

    # spectral
    comp_rep = gap_composition_suite(seed=seed, n_instances=200)
    results.append(_check("spectral.gap_composition", comp_rep["passed"],
                          str({k: v["violations"] for k, v in comp_rep["cases"].items()})))

    def gap_rescaling():
        gap1 = gap_from_eigenvalues(evals).gap
        A, sigma = L_m.local, L_m.sigma
        gap2 = spectral_gap(Superoperator(Triplets(A.row, A.col, 2.5 * A.val, A.side), sigma)).gap
        return abs(gap2 - 2.5 * gap1) <= 1e-9 * gap2, f"{gap2 / gap1:.12f}"

    results.append(_gap_check("spectral.gap_rescaling", gap_rescaling))

    # eigenvalues are basis invariant: those of the stored matrix against those of L_hat
    direct = np.sort(np.linalg.eigvals(L_m.local.toarray()).real)
    sym = prop.evals
    spec_ok = np.allclose(direct, sym, atol=1e-7 * max(1.0, np.abs(sym).max()))
    results.append(_check("spectral.symmetrize_consistency", spec_ok,
                          f"max dev {np.abs(direct - sym).max():.2e}"))

    # mixing
    rho0 = np.zeros((8, 8), dtype=complex)
    rho0[0, 0] = 1.0
    ts = np.linspace(0.0, 5.0, 11)
    dists = prop.distances(prop.coefficients([rho0]), ts)
    mono = all(d2 <= d1 + 1e-10 for d1, d2 in zip(dists, dists[1:]))
    results.append(_check("mixing.trace_distance_monotone", mono, "11-point grid"))

    spec2 = defected_ising_1d(3, 1.0)
    es2 = eigensystem(assemble(spec2))

    def chi2_gap_consistency():
        # one decomposition for the gap and the rate fit
        prop2 = SpectralPropagator(build_ckg_generator(es2, single_site_paulis(3), gm))
        ratio = chi_square_rate_fit(prop2) / (2 * gap_from_eigenvalues(-prop2.evals[::-1]).gap)
        return abs(ratio - 1.0) <= 0.05, f"rate/2gap = {ratio:.4f}"

    results.append(_gap_check("mixing.chi2_gap_consistency", chi2_gap_consistency))

    # classical
    efn = lambda z: classical_defected_ising_energy(z, 3.0)
    chain = glauber_generator(efn, 4, beta)
    rev = chain.reversibility  # max |pi_x q_xy - pi_y q_yx| over the stored rates
    results.append(_check("classical.chain_validity", rev < 1e-12, f"reversibility {rev:.2e}"))

    phis = []
    for J in (2.0, 3.0, 4.0):
        cj = glauber_generator(lambda z: classical_defected_ising_energy(z, J), 4, beta)
        phis.append(bottleneck_ratio(cj)[0])
    law_ok = all(p2 / p1 <= np.exp(-beta) + 1e-12 for p1, p2 in zip(phis, phis[1:]))
    results.append(_check("classical.bottleneck_law", law_ok,
                          f"ratios {[f'{p2/p1:.3f}' for p1, p2 in zip(phis, phis[1:])]}"))

    def re_acceleration():
        re_gap = classical_gap(classical_re_generator(efn, 4, beta, 0.2))
        single_gap = classical_gap(chain)
        return re_gap > single_gap, f"re {re_gap:.4f} vs single {single_gap:.4f}"

    results.append(_gap_check("classical.re_acceleration", re_acceleration))

    return results
