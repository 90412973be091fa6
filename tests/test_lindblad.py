import tracemalloc

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st
from hypothesis.extra import numpy as hnp
from scipy.integrate import quad
from scipy.special import erfc

from qrex import lindblad
import qrex.harness
from qrex.hamiltonians import (
    HamiltonianSpec,
    PauliTerm,
    assemble,
    defected_heisenberg_2d,
    defected_ising_1d,
)
from qrex.lindblad import (
    BOHR_GROUP_TOL,
    Eigensystem,
    Superoperator,
    Triplets,
    WeightFunction,
    alpha_coeff,
    alpha_quadrature,
    build_ckg_generator,
    distinct,
    eigenbasis_entries,
    eigensystem,
    gibbs_state,
    group_frequencies,
    unvec,
    vec,
)
from qrex.pauli import X, Y, Z, pauli_string, single_site_paulis

from oracles import (
    assemble_dense,
    alpha_quadrature_whole_cube,
    apply,
    bohr_groups_all_pairs,
    coherent_term,
    congruence,
    detailed_balance_residual,
    filter_fhat,
    jump_components,
    kms_inner,
    matrix,
    sigma_power,
    weight,
)

GM = WeightFunction("metropolis", 1.0)
GG = WeightFunction("gaussian", 1.0)
GL_POINTS = lindblad.GL_NODES.size


def all_pair_groups(es):
    """``group_frequencies`` over all d^2 differences lam[i] - lam[j]: (values, d x d groups)."""
    lam = es.eigenvalues
    values, group = group_frequencies((lam[:, None] - lam[None, :]).reshape(-1),
                                      float(np.abs(lam).max()))
    return values, group.reshape(lam.size, lam.size)


class TestEigensystem:
    def test_single_z(self):
        es = eigensystem(Z)
        assert np.array_equal(es.eigenvalues, [1.0, -1.0])  # computational order
        assert set(np.round(all_pair_groups(es)[0], 12)) == {-2.0, 0.0, 2.0}

    @pytest.mark.parametrize("permutation", [True, False])
    @pytest.mark.parametrize("factor, refused", [(0.9, False), (1.1, True)])
    def test_residual_gate(self, permutation, factor, refused, monkeypatch):
        # an eigenvalue of one block moved by t leaves the residual ||H_b V - V diag(w)|| = t
        # over the blocks, gated at 1e-11 ||H||: on two 2 x 2 blocks that a permutation
        # interleaves (indices {0, 2} and {1, 3}), and on one dense 4 x 4 block
        rng = np.random.default_rng(11)
        M = rng.standard_normal((4, 4)) + 1j * rng.standard_normal((4, 4))
        H = M + M.conj().T
        if permutation:
            H[np.add.outer(range(4), range(4)) % 2 == 1] = 0.0  # no entry links {0, 2} and {1, 3}
        scale = np.abs(np.linalg.eigvalsh(H)).max()
        eigh = np.linalg.eigh

        def shifted(a):
            w, V = eigh(a)
            w[0, -1] += factor * 1e-11 * scale  # the top eigenvalue of the first block
            return w, V

        monkeypatch.setattr(np.linalg, "eigh", shifted)
        if refused:
            with pytest.raises(ValueError, match="eigensolver residual"):
                eigensystem(H)
        else:
            U = eigensystem(H).eigenvectors
            assert np.count_nonzero(U) == (8 if permutation else 16)

    def test_diagonal_hamiltonian_is_not_solved(self, monkeypatch):
        # the ring's H is diagonal: U = I and the diagonal in computational order, no LAPACK call
        monkeypatch.setattr(np.linalg, "eigh", lambda *a: pytest.fail("eigh was called"))
        H = assemble(defected_ising_1d(5, 3.0))
        es = eigensystem(H)
        assert es.eigenvectors.dtype == np.float64
        assert np.array_equal(es.eigenvectors, np.eye(32))
        assert np.array_equal(es.eigenvalues, np.diag(H.toarray()))

    def test_real_hamiltonian_gets_real_eigenvectors(self):
        H = assemble(defected_heisenberg_2d(2, 3, (0, 3), (0, 3), 3.0))
        es = eigensystem(H)
        assert H.val.dtype == np.float64 and es.eigenvectors.dtype == np.float64
        U, lam = es.eigenvectors, es.eigenvalues
        assert np.allclose(H.toarray() @ U, U * lam, atol=1e-12)
        assert np.allclose(U.T @ U, np.eye(64), atol=1e-12)
        # each column lies in one block of H: no entry of U links two indices H leaves apart
        assert np.count_nonzero(U) < 64 * 64 // 4

    def test_non_hermitian_terms_fail_the_hermiticity_check(self):
        spec = HamiltonianSpec(n=2, terms=(PauliTerm(-1.0, ((0, "X"), (1, "X"))),
                                           PauliTerm(1j, ((0, "Z"),))))
        with pytest.raises(ValueError, match="assembled Hamiltonian failed the hermiticity"):
            qrex.harness._Point(spec, 1.0).es

    def test_zero_hamiltonian(self):
        es = eigensystem(np.zeros((4, 4)))
        assert np.allclose(all_pair_groups(es)[0], [0.0])

    def test_grouping_matches_brute_force(self):
        H = assemble_dense(defected_ising_1d(3, 2.0))
        es = eigensystem(H)
        lam = np.linalg.eigvalsh(H)
        brute = sorted({round(a - b, 6) for a in lam for b in lam})
        assert sorted(round(v, 6) for v in all_pair_groups(es)[0]) == brute

    def test_bohr_closed_under_negation(self):
        rng = np.random.default_rng(5)
        M = rng.standard_normal((6, 6))
        H = M + M.T
        bohr = all_pair_groups(eigensystem(H))[0]
        assert np.allclose(np.sort(bohr), np.sort(-bohr), atol=1e-9)
        assert 0.0 in bohr

    def test_groups_chain_across_tolerance(self):
        # 0, 0.6 tol, 1.2 tol: the outer pair is 1.2 tol apart, but each
        # neighbour is within tol, so the three chain into one group
        tol = BOHR_GROUP_TOL  # ||H|| = 1 sets the scale to 1
        bohr, gid = all_pair_groups(eigensystem(np.diag([0.0, 0.6 * tol, 1.2 * tol, 1.0])))
        assert bohr.size == 3
        assert bohr[1] == 0.0
        assert bohr[0] == pytest.approx(-(1.0 - 0.6 * tol), abs=1e-15)
        assert bohr[2] == pytest.approx(1.0 - 0.6 * tol, abs=1e-15)
        expected = np.ones((4, 4), dtype=np.int64)
        expected[3, :3] = 2
        expected[:3, 3] = 0
        assert np.array_equal(gid, expected)

    def test_grouping_matches_loop_reference(self):
        # the sequential chaining rule, one sorted difference at a time
        rng = np.random.default_rng(12)
        lam = np.round(rng.uniform(-3, 3, 7), 1)  # repeated Bohr differences
        lam[1] = lam[0] + 0.4 * BOHR_GROUP_TOL  # a near-degenerate pair
        es = eigensystem(np.diag(lam))
        tol = BOHR_GROUP_TOL * max(1.0, np.abs(lam).max())
        diffs = (es.eigenvalues[:, None] - es.eigenvalues[None, :]).reshape(-1)
        order = np.argsort(diffs, kind="stable")
        gid = np.empty(diffs.size, dtype=np.int64)
        g = 0
        for k, i in enumerate(order):
            if k and diffs[i] - diffs[order[k - 1]] > tol:
                g += 1
            gid[i] = g
        assert np.array_equal(all_pair_groups(es)[1], gid.reshape(7, 7))
        assert np.array_equal(all_pair_groups(es)[1], bohr_groups_all_pairs(es.eigenvalues)[1])

    def test_zero_group_is_exact_without_diagonal_entries(self):
        # the upper triangle of X couplings on the degenerate ring, its levels split below the
        # tolerance: no kept entry is diagonal and the near-zero frequencies are all negative,
        # yet their group, the zero group, is exactly 0.0
        lam = np.diag(assemble_dense(defected_ising_1d(3, 1.0))).real + 1e-12 * np.arange(8)
        es = eigensystem(np.diag(lam))
        for s in range(3):
            S = pauli_string(3, [(s, "X")])
            up = S.row < S.col
            S = Triplets(S.row[up], S.col[up], S.val[up], S.side)
            k, i = np.divmod(eigenbasis_entries(S, es)[0], 8)
            assert np.all(k != i)
            nu = es.eigenvalues[k] - es.eigenvalues[i]
            values, group = group_frequencies(nu, float(np.abs(es.eigenvalues).max()))
            near = np.abs(nu) < BOHR_GROUP_TOL
            assert near.any() and np.all(nu[near] < 0.0)
            assert np.all(values[group[near]] == 0.0)
            assert np.all(values[group[~near]] != 0.0)

    def test_zero_chains_the_frequencies_around_it(self):
        # -0.6 tol and 0.7 tol are 1.3 tol apart, but each is within tol of 0, which joins
        # the chain though it is not among the frequencies; the group's value is exactly 0.0
        tol = BOHR_GROUP_TOL
        values, group = group_frequencies([0.7 * tol, 2.0, -0.6 * tol], 1.0)
        assert values.tolist() == [0.0, 2.0]
        assert group.tolist() == [0, 1, 0]


# the systems of the production-table check: the rings' exact integer and half-integer
# levels, and the 2x3 grid's from eigh
GROUPING_CASES = [pytest.param(defected_ising_1d(n, J), 0.0, id=f"ring{n}-J{J}")
                  for n in (3, 4, 5) for J in (1.0, 2.5, 3.0)]
GROUPING_CASES.append(pytest.param(defected_heisenberg_2d(2, 3, (0, 3), (0, 3), 3.0), 1e-14,
                                   id="grid2x3"))


@pytest.mark.parametrize("spec,tol", GROUPING_CASES)
def test_assembly_groups_are_the_all_pairs_groups_restricted(monkeypatch, spec, tol):
    # build_ckg_generator groups only the frequencies of the entries it keeps: into the
    # all-pairs groups, each valued as its all-pairs group, bitwise on the rings and within
    # tol of the norm on the grid, whose group means now run over the kept frequencies
    es, couplings = eigensystem(assemble_dense(spec)), single_site_paulis(spec.n)
    seen = []

    def spy(nu, scale):
        seen.append((nu, group_frequencies(nu, scale)))
        return seen[-1][1]

    monkeypatch.setattr(lindblad, "group_frequencies", spy)
    build_ckg_generator(es, couplings, GM)
    (nu, (values, group)), = seen
    d, lam = es.dim, es.eigenvalues
    used = np.unique(np.concatenate([eigenbasis_entries(S, es)[0] for S in couplings]))
    assert np.array_equal(nu, lam[used // d] - lam[used % d])
    bohr, gid = bohr_groups_all_pairs(lam)
    assert np.array_equal(group, np.unique(gid.reshape(-1)[used], return_inverse=True)[1])
    expected = bohr[gid.reshape(-1)[used]]
    if tol == 0.0:
        assert np.array_equal(values[group], expected)
    else:
        assert np.abs(values[group] - expected).max() <= tol * max(1.0, np.abs(lam).max())


class TestGibbsState:
    def test_infinite_temperature(self):
        es = eigensystem(assemble_dense(defected_ising_1d(3, 2.0)))
        sg = gibbs_state(es, 0.0)
        assert np.allclose(sg.sigma, np.eye(8) / 8)

    def test_two_level_formula(self):
        sg = gibbs_state(eigensystem(Z), 1.0)
        zval = np.exp(-1) + np.exp(1)
        assert np.allclose(sg.sigma, np.diag([np.exp(-1), np.exp(1)]) / zval)
        assert np.isclose(sg.lambda_min, np.exp(-1) / zval)

    def test_misaligned_sector_weight_small(self):
        J, beta = 3.0, 1.0
        spec = defected_ising_1d(3, J)
        H = assemble_dense(spec)
        sg = gibbs_state(eigensystem(H), beta)
        # Pi_B projects onto z0 != z1 (site 0 and 1 are the two leading bits)
        diag = np.zeros(8)
        for b in range(8):
            z0 = 1 - 2 * ((b >> 2) & 1)
            z1 = 1 - 2 * ((b >> 1) & 1)
            diag[b] = 1.0 if z0 != z1 else 0.0
        assert np.trace(np.diag(diag) @ sg.sigma).real <= 10 * np.exp(-2 * beta * J)

    def test_power_consistency(self):
        sg = gibbs_state(eigensystem(assemble_dense(defected_ising_1d(3, 2.0))), 0.7)
        q = sigma_power(sg, 0.25)
        assert np.linalg.norm(q @ q @ q @ q - sg.sigma) < 1e-10
        assert np.isclose(np.trace(sg.sigma).real, 1.0, atol=1e-12)


class TestWeight:
    def test_metropolis_at_kink(self):
        for beta in (0.5, 1.0, 2.0):
            w = WeightFunction("metropolis", beta)
            assert weight(-1.0 / (2 * beta), w) == pytest.approx(1.0)

    def test_metropolis_at_zero(self):
        assert weight(0.0, GM) == pytest.approx(np.exp(-0.5))

    def test_gaussian_at_zero(self):
        assert weight(0.0, GG) == pytest.approx(np.exp(-0.5))

    def test_positive_and_bounded(self):
        grid = np.linspace(-30, 30, 301)
        for w in (GM, GG):
            vals = weight(grid, w)
            assert np.all(vals > 0)
        assert np.all(weight(grid[grid <= -0.5], GM) == 1.0)


class TestFilter:
    def test_value_at_zero(self):
        beta = 1.7
        assert filter_fhat(0.0, beta) == pytest.approx(np.sqrt(beta / np.sqrt(2 * np.pi)))

    def test_even(self):
        grid = np.linspace(0.0, 8.0, 50)
        assert np.allclose(filter_fhat(grid, 1.3), filter_fhat(-grid, 1.3))

    def test_squared_integral_is_one(self):
        for beta in (0.5, 1.0, 2.0):
            val, _ = quad(lambda w: filter_fhat(w, beta) ** 2, -50 / beta, 50 / beta)
            assert abs(val - 1.0) < 1e-10


INT_ARRAYS = hnp.arrays(st.sampled_from([np.int32, np.int64]),
                        hnp.array_shapes(min_dims=1, max_dims=2, min_side=0, max_side=12),
                        elements=st.integers(-6, 6))


@settings(max_examples=300, deadline=None)
@given(INT_ARRAYS)
@example(np.zeros(0, np.int32))
@example(np.zeros(0, np.int64))
def test_distinct_is_unique(a):
    # few values: negatives and repeats in most draws
    got, want = distinct(a), np.unique(a)
    assert got.dtype == want.dtype and np.array_equal(got, want)


def test_gauss_legendre_constants_are_leggauss():
    nodes, weights = np.polynomial.legendre.leggauss(15)
    assert np.array_equal(lindblad.GL_NODES, nodes) and np.array_equal(lindblad.GL_WEIGHTS, weights)
    assert (lindblad.GL_NODES.tobytes(), lindblad.GL_WEIGHTS.tobytes()) == (nodes.tobytes(),
                                                                            weights.tobytes())


class TestAlphaCoeff:
    @pytest.mark.parametrize("kind", ["gaussian", "metropolis"])
    @pytest.mark.parametrize("beta", [0.05, 1.0, 3.0, 6.0])
    def test_closed_form_matches_quadrature(self, kind, beta):
        w = WeightFunction(kind, beta)
        nus = np.linspace(-8.0, 8.0, 17) / beta  # beta * nu spans [-8, 8]
        v1, v2 = nus[:, None], nus[None, :]  # diagonal and off-diagonal pairs
        diff = np.abs(alpha_coeff(v1, v2, w) - alpha_quadrature(v1, v2, w))
        assert diff.max() <= 1e-12

    def test_quadrature_raises_when_not_converged(self, monkeypatch):
        monkeypatch.setattr(lindblad, "QUAD_PANELS", 1)
        monkeypatch.setattr(lindblad, "QUAD_PANELS_FINE", 2)
        with pytest.raises(RuntimeError, match="did not converge"):
            alpha_quadrature(0.3, -0.2, GG)

    @pytest.mark.parametrize("kind", ["gaussian", "metropolis"])
    @pytest.mark.parametrize("shape1, shape2", [
        ((), ()),  # a scalar
        ((13, 1), (11,)),  # a broadcast grid of 143 points
        ((2 * lindblad.QUAD_CHUNK + 1,), (1,)),
    ])
    def test_quadrature_chunks_equal_whole_cube(self, kind, shape1, shape2):
        rng = np.random.default_rng(3)
        nu1, nu2 = rng.uniform(-5.0, 5.0, shape1), rng.uniform(-5.0, 5.0, shape2)
        points = np.broadcast(nu1, nu2).size
        assert points == 1 or points % lindblad.QUAD_CHUNK != 0
        w = WeightFunction(kind, 1.3)
        _, fine = alpha_quadrature_whole_cube(nu1, nu2, w)
        got = alpha_quadrature(nu1, nu2, w)
        if fine.ndim:
            assert got.shape == fine.shape and np.array_equal(got, fine)
        else:
            assert type(got) is float and got == fine
        # one exp of the summed exponents against the product of the three factors
        for one, three in zip(alpha_quadrature_whole_cube(nu1, nu2, w),
                              alpha_quadrature_whole_cube(nu1, nu2, w, factors=True)):
            assert np.all(np.abs(one - three) <= 1e-15 * np.abs(three))

    @pytest.mark.parametrize("kind", ["gaussian", "metropolis"])
    def test_quadrature_peak_holds_a_few_chunk_cubes(self, kind):
        # the qrex theta grid: 401 points.  The rule holds three node cubes of one chunk at
        # once; the whole-grid cube of the three-factor integrand peaked at 5.1 MB
        xs = np.linspace(-20.0, 20.0, 401)
        w = WeightFunction(kind, 1.0)
        cube = lindblad.QUAD_CHUNK * 2 * lindblad.QUAD_PANELS_FINE * GL_POINTS * 8
        alpha_quadrature(xs, xs, w)
        tracemalloc.start()
        try:
            start = tracemalloc.get_traced_memory()[0]
            tracemalloc.reset_peak()
            alpha_quadrature(xs, xs, w)
            peak = tracemalloc.get_traced_memory()[1] - start
        finally:
            tracemalloc.stop()
        assert cube <= 250_000 and peak <= 4 * cube

    @pytest.mark.parametrize("kind", ["gaussian", "metropolis"])
    def test_quadrature_convergence_check_reads_every_chunk(self, kind, monkeypatch):
        nus = np.linspace(-6.0, 6.0, 3 * lindblad.QUAD_CHUNK - 5)
        w = WeightFunction(kind, 0.7)
        coarse, fine = alpha_quadrature_whole_cube(nus, nus[::-1], w)
        err = np.abs(fine - coarse).max()
        assert err > 0.0
        monkeypatch.setattr(lindblad, "QUAD_ABS_TOL", err)
        assert np.array_equal(alpha_quadrature(nus, nus[::-1], w), fine)
        monkeypatch.setattr(lindblad, "QUAD_ABS_TOL", np.nextafter(err, 0.0))
        with pytest.raises(RuntimeError, match="did not converge"):
            alpha_quadrature(nus, nus[::-1], w)

    def test_metropolis_diagonal_at_zero(self):
        # paper's theta(0) = erfc(1/(2 sqrt 2)) ~ 0.617
        val = alpha_coeff(0.0, 0.0, GM)
        assert val == pytest.approx(erfc(1 / (2 * np.sqrt(2))), abs=1e-10)
        assert val == pytest.approx(0.617, abs=1e-3)

    def test_gaussian_diagonal_closed_form(self):
        # complete-the-square oracle: alpha_G(v, v) = 2^{-1/2} exp(-(1 + beta v)^2 / 4)
        for beta in (0.6, 1.0, 2.2):
            w = WeightFunction("gaussian", beta)
            for nu in (-3.0, -0.4, 0.0, 1.5, 4.0):
                closed = 2**-0.5 * np.exp(-((1 + beta * nu) ** 2) / 4.0)
                assert alpha_coeff(nu, nu, w) == pytest.approx(closed, abs=1e-10)

    def test_symmetric(self):
        rng = np.random.default_rng(8)
        for _ in range(10):
            v1, v2 = rng.standard_normal(2) * 3
            for w in (GM, GG):
                assert alpha_coeff(v1, v2, w) == pytest.approx(alpha_coeff(v2, v1, w), abs=1e-12)

    def test_midpoint_factorization(self):
        # alpha(v1,v2) = exp(-beta^2 (v1-v2)^2/8) alpha(mid, mid), exact for Gaussian filters
        for w in (GM, GG):
            for v1, v2 in [(-2.0, 1.0), (0.5, 3.7), (-4.0, -1.0)]:
                mid = 0.5 * (v1 + v2)
                expected = np.exp(-w.beta**2 * (v1 - v2) ** 2 / 8) * alpha_coeff(mid, mid, w)
                assert alpha_coeff(v1, v2, w) == pytest.approx(expected, abs=1e-11)


class TestJumpComponents:
    def test_diagonal_coupling_single_component(self):
        es = eigensystem(Z)
        comps = jump_components(Z, es)
        nz = {nu for nu, c in comps.items() if np.linalg.norm(c) > 1e-12}
        assert nz == {0.0}

    def test_two_level_ladder_structure(self):
        es = eigensystem(Z)
        comps = jump_components(X, es)
        s2 = comps[2.0]
        sm2 = comps[-2.0]
        assert np.allclose(s2.conj().T, sm2)
        assert np.linalg.norm(s2) == pytest.approx(1.0)

    def test_resummation_exact(self):
        rng = np.random.default_rng(11)
        H = rng.standard_normal((8, 8))
        H = H + H.T
        es = eigensystem(H)
        S = rng.standard_normal((8, 8)) + 1j * rng.standard_normal((8, 8))
        total = sum(jump_components(S, es).values())
        assert np.linalg.norm(total - S) <= 1e-12 * np.linalg.norm(S)


class TestCoherentTerm:
    def test_trivial_hamiltonian_gives_zero(self):
        es = eigensystem(np.eye(4))
        jumps = [jump_components(S, es) for S in single_site_paulis(2)]
        G = coherent_term(jumps, es, GM)
        assert np.linalg.norm(G) < 1e-14

    def test_hermitian_on_random_instance(self):
        rng = np.random.default_rng(4)
        H = rng.standard_normal((4, 4))
        H = H + H.T
        es = eigensystem(H)
        S = rng.standard_normal((4, 4)) + 1j * rng.standard_normal((4, 4))
        G = coherent_term([jump_components(S, es)], es, GG)
        assert np.linalg.norm(G - G.conj().T) <= 1e-10 * max(1.0, np.linalg.norm(G))


def trace_norm(M):
    return float(np.sum(np.linalg.svd(M, compute_uv=False)))


class TestBuildCkgGenerator:
    def test_depolarizing_rate_on_trivial_hamiltonian(self):
        heis = build_ckg_generator(eigensystem(np.eye(2)), [X, Y, Z], GM)
        theta0 = erfc(1 / (2 * np.sqrt(2)))
        assert np.allclose(apply(heis, Z), -4 * theta0 * Z, atol=1e-10)
        assert np.allclose(apply(heis, X), -4 * theta0 * X, atol=1e-10)

    def test_unital_in_heisenberg_picture(self):
        H = assemble_dense(defected_ising_1d(3, 2.0))
        heis = build_ckg_generator(eigensystem(H), single_site_paulis(3), GM)
        assert np.linalg.norm(apply(heis, np.eye(8))) < 1e-10 * np.linalg.norm(matrix(heis))

    @pytest.mark.parametrize("w", [GM, GG], ids=["metropolis", "gaussian"])
    def test_detailed_balance(self, w):
        H = assemble_dense(defected_ising_1d(3, 3.0))
        es = eigensystem(H)
        heis = build_ckg_generator(es, single_site_paulis(3), w)
        assert detailed_balance_residual(heis) < 1e-10

    @pytest.mark.parametrize("w", [GM, GG], ids=["metropolis", "gaussian"])
    def test_fixed_point(self, w):
        H = assemble_dense(defected_ising_1d(3, 3.0))
        es = eigensystem(H)
        heis = build_ckg_generator(es, single_site_paulis(3), w)
        assert trace_norm(heis.apply_adjoint(gibbs_state(es, w.beta).sigma)) < 1e-10

    def test_trace_preservation(self):
        H = assemble_dense(defected_ising_1d(3, 1.5))
        heis = build_ckg_generator(eigensystem(H), single_site_paulis(3), GM)
        rng = np.random.default_rng(9)
        for _ in range(5):
            R = rng.standard_normal((8, 8)) + 1j * rng.standard_normal((8, 8))
            rho = R @ R.conj().T
            rho /= np.trace(rho)
            assert abs(np.trace(heis.apply_adjoint(rho))) < 1e-10

    def test_alpha_gram_matrix_psd(self):
        # the alpha table restricted to each coupling's Bohr support is a Gram
        # matrix of sqrt(gamma) f-hat shifts, so it must be PSD
        H = assemble_dense(defected_ising_1d(3, 2.0))
        es = eigensystem(H)
        for S in single_site_paulis(3):
            comps = jump_components(S, es)
            nus = [nu for nu, c in comps.items() if np.linalg.norm(c) > 1e-12]
            m = len(nus)
            A = np.zeros((m, m))
            for i in range(m):
                for j in range(m):
                    A[i, j] = alpha_coeff(nus[i], nus[j], GM)
            assert np.linalg.eigvalsh(A).min() >= -1e-10

    def test_kernel_is_identity_span(self):
        H = assemble_dense(defected_ising_1d(3, 2.0))
        heis = build_ckg_generator(eigensystem(H), single_site_paulis(3), GM)
        evals = np.linalg.eigvals(matrix(heis))
        near_zero = np.sum(np.abs(evals) < 1e-8 * np.abs(evals).max())
        assert near_zero == 1

    def test_dimension_mismatch(self):
        with pytest.raises(ValueError):
            build_ckg_generator(eigensystem(np.eye(4)), [X], GM)

    def test_zero_coupling_adds_nothing(self):
        es = eigensystem(assemble_dense(defected_ising_1d(3, 2.0)))
        paulis = list(single_site_paulis(3))
        with_zero = build_ckg_generator(es, paulis[:2] + [np.zeros((8, 8))] + paulis[2:], GM)
        without = build_ckg_generator(es, paulis, GM)
        assert np.array_equal(with_zero.local.toarray(), without.local.toarray())

    def test_zero_couplings_give_the_empty_generator(self):
        es = eigensystem(assemble_dense(defected_ising_1d(3, 2.0)))
        L = build_ckg_generator(es, [np.zeros((8, 8)), np.zeros((8, 8))], GM)
        assert L.local.nnz == 0 and L.local.shape == (64, 64)
        assert np.array_equal(L.local.toarray(), np.zeros((64, 64)))


class TestSuperoperator:
    def test_vec_unvec_roundtrip(self):
        rng = np.random.default_rng(3)
        M = rng.standard_normal((4, 4)) + 1j * rng.standard_normal((4, 4))
        assert np.allclose(unvec(vec(M)), M)

    def test_vec_convention(self):
        # vec(A X B) = (B^T kron A) vec(X), column stacking
        rng = np.random.default_rng(6)
        A, Xm, B = (rng.standard_normal((3, 3)) + 1j * rng.standard_normal((3, 3)) for _ in range(3))
        assert np.allclose(np.kron(B.T, A) @ vec(Xm), vec(A @ Xm @ B))

    def test_hilbert_schmidt_duality(self):
        # <Y, L(X)> = <L^dag(Y), X> with <A, B> = Tr[A^dag B], in any stored basis
        rng = np.random.default_rng(7)
        M = rng.standard_normal((16, 16)) + 1j * rng.standard_normal((16, 16))
        U, _ = np.linalg.qr(rng.standard_normal((4, 4)) + 1j * rng.standard_normal((4, 4)))
        Xm, Ym = (rng.standard_normal((4, 4)) + 1j * rng.standard_normal((4, 4)) for _ in range(2))
        # stored in the eigenbasis V of the Gibbs state of V diag(0, 1, 2, 3) V^dag
        for V in (np.eye(4), U):
            s = Superoperator(M, gibbs_state(Eigensystem(np.arange(4.0), V), 1.0))
            assert np.vdot(Ym, apply(s, Xm)) == pytest.approx(np.vdot(s.apply_adjoint(Ym), Xm),
                                                              rel=1e-12)

    def test_schrodinger_annihilates_trace(self):
        H = assemble_dense(defected_ising_1d(3, 1.0))
        heis = build_ckg_generator(eigensystem(H), single_site_paulis(3), GM)
        rng = np.random.default_rng(10)
        R = rng.standard_normal((8, 8)) + 1j * rng.standard_normal((8, 8))
        assert abs(np.trace(heis.apply_adjoint(R))) <= 1e-10 * np.linalg.norm(R)


class TestDetailedBalanceResidual:
    def test_zero_map(self):
        L = Superoperator(np.zeros((4, 4), dtype=complex), gibbs_state(eigensystem(Z), 1.0))
        assert detailed_balance_residual(L) == 0.0

    def test_perturbation_detected(self):
        H = assemble_dense(defected_ising_1d(3, 3.0))
        es = eigensystem(H)
        heis = build_ckg_generator(es, single_site_paulis(3), GG)
        rng = np.random.default_rng(14)
        M = matrix(heis)
        R = rng.standard_normal(M.shape) + 1j * rng.standard_normal(M.shape)
        scale = 1e-3 * np.linalg.norm(M, 2) / np.linalg.norm(R, 2)
        # the perturbed map, stored in the basis of the Gibbs state it is tested against
        U = heis.basis
        bad = Superoperator(congruence(M + scale * R, U, U.conj().T), heis.sigma)
        assert detailed_balance_residual(bad) >= 1e-4

    def test_kms_inner_basics(self):
        es = eigensystem(assemble_dense(defected_ising_1d(3, 2.0)))
        sg = gibbs_state(es, 1.0)
        eye = np.eye(8)
        assert kms_inner(eye, eye, sg) == pytest.approx(1.0)
        rng = np.random.default_rng(22)
        Xr = rng.standard_normal((8, 8)) + 1j * rng.standard_normal((8, 8))
        assert kms_inner(Xr, Xr, sg).real > 0
