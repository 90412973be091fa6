import tracemalloc

import numpy as np
import pytest
import scipy.sparse
from scipy.special import erfc

import qrex.lindblad
import qrex.mixing
import qrex.spectral
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
    build_ckg_generator,
    eigensystem,
    gibbs_state,
    vec,
)
from qrex.mixing import (
    BISECTION_RTOL,
    SpectralPropagator,
    _initial_family,
    first_crossing_times,
    mixing_bounds_from_gap,
)
from qrex.pauli import X, Y, Z, single_site_paulis
from qrex.replica import (
    build_global_replica_generator,
    build_replica_exchange_generator,
    joint_structure,
)
from qrex.spectral import (
    UnresolvedGapError,
    a_diagonal_restriction_gap,
    block_eigh,
    block_eigvalsh,
    gap_composition_suite,
    gap_from_eigenvalues,
    spectral_gap,
    symmetrize,
)

import oracles
from oracles import assemble_dense, kms_inner, matrix, partial_lindbladian_check
from test_dense_oracle import generic_hamiltonian

GM = WeightFunction("metropolis", 1.0)
GG = WeightFunction("gaussian", 1.0)


def ising_generator(n=3, J=2.0, w=GM):
    H = assemble_dense(defected_ising_1d(n, J))
    return build_ckg_generator(eigensystem(H), single_site_paulis(n), w)


class TestKmsInner:
    def test_identity_normalization(self):
        sg = ising_generator().sigma
        assert kms_inner(np.eye(8), np.eye(8), sg) == pytest.approx(1.0)

    def test_maximally_mixed_reduces_to_hilbert_schmidt(self):
        sg = gibbs_state(eigensystem(np.zeros((4, 4))), 1.0)
        rng = np.random.default_rng(0)
        A = rng.standard_normal((4, 4)) + 1j * rng.standard_normal((4, 4))
        B = rng.standard_normal((4, 4)) + 1j * rng.standard_normal((4, 4))
        assert kms_inner(A, B, sg) == pytest.approx(np.trace(A.conj().T @ B) / 4)

    def test_positive_definite(self):
        sg = ising_generator().sigma
        rng = np.random.default_rng(1)
        for _ in range(5):
            M = rng.standard_normal((8, 8)) + 1j * rng.standard_normal((8, 8))
            assert kms_inner(M, M, sg).real > 0


class TestSymmetrize:
    def test_hermitian_for_ckg(self):
        Lhat = symmetrize(ising_generator()).toarray()
        assert np.linalg.norm(Lhat - Lhat.conj().T) <= 1e-9 * np.linalg.norm(Lhat)

    def test_zero_eigenvalue_with_phi_of_identity(self):
        heis = ising_generator()
        Lhat = symmetrize(heis).toarray()
        q = np.diag(heis.sigma.weights**0.25)  # sigma^(1/4) in the stored basis
        v = vec(q @ np.eye(8) @ q)
        assert np.linalg.norm(Lhat @ v) <= 1e-10 * np.linalg.norm(Lhat) * np.linalg.norm(v)

    def test_maximally_mixed_sigma_is_plain_matrix(self):
        H = np.zeros((4, 4))
        es = eigensystem(H)
        heis = build_ckg_generator(es, single_site_paulis(2), GM)
        assert np.allclose(symmetrize(heis).toarray(), heis.local.toarray(), atol=1e-12)

    def test_non_db_rejected(self):
        # perturbed in the stored basis, so the Hermiticity gate rejects it
        heis = ising_generator()
        M = heis.local.toarray()
        rng = np.random.default_rng(2)
        R = rng.standard_normal(M.shape)
        bad = Superoperator(M + 1e-2 * np.linalg.norm(M, 2) * R / np.linalg.norm(R, 2),
                            heis.sigma)
        with pytest.raises(ValueError, match="not detailed balanced"):
            spectral_gap(bad)
        with pytest.raises(ValueError, match="not detailed balanced"):
            block_eigh(symmetrize(bad))
        # refused before any eigensolve, on every route that solves L_hat
        with oracles.no_eigensolve():
            for call in (spectral_gap, SpectralPropagator):
                with pytest.raises(ValueError, match="not detailed balanced"):
                    call(bad)

    def test_spectrum_matches_direct_diagonalization(self):
        heis = ising_generator(n=3, J=1.5)
        Lhat = symmetrize(heis).toarray()
        sym_evals = np.sort(np.linalg.eigvalsh(Lhat))
        direct = np.sort(np.linalg.eigvals(matrix(heis)).real)
        assert np.allclose(sym_evals, direct, atol=1e-7 * max(1.0, np.abs(direct).max()))


@pytest.fixture
def congruence_calls(monkeypatch):
    """Records every call of the O(d^5) basis-change oracle; no qrex module defines one."""
    for module in (qrex.lindblad, qrex.spectral, qrex.mixing):
        assert not hasattr(module, "congruence")
    calls = []
    original = oracles.congruence

    def spy(*args):
        calls.append(args[0].shape)
        return original(*args)

    monkeypatch.setattr(oracles, "congruence", spy)
    return calls


class TestSymmetrizeRoutes:
    def test_eigenbasis_generator_is_scaled(self, congruence_calls):
        rep = spectral_gap(ising_generator(n=4))
        assert rep.kernel_dim == 1
        assert congruence_calls == []

    def test_labeled_joint_generator_is_scaled(self, congruence_calls):
        spec = defected_ising_1d(3, 3.0)
        js = joint_structure(spec)
        heis = build_replica_exchange_generator(js, GG)
        rep = spectral_gap(heis)
        assert rep.kernel_dim == 1
        assert congruence_calls == []

    def test_computational_basis_rejected_without_congruence(self, congruence_calls):
        # the computational-basis route once densified L_hat through congruence;
        # a generator is now stored in its Gibbs state's basis by construction
        heis = ising_generator(n=3)
        with pytest.raises(TypeError):
            Superoperator(matrix(heis), basis=np.eye(8))
        congruence_calls.clear()
        for call in (spectral_gap, symmetrize, SpectralPropagator):
            call(heis)
        assert congruence_calls == []

    def test_gap_leaves_the_dense_gibbs_matrix_unformed(self):
        # the generator carries its Gibbs state as weights in a basis; the
        # gap needs only the weights, so the dense sigma is never formed
        heis = ising_generator(n=5, J=3.0)
        spectral_gap(heis)
        assert "sigma" not in heis.sigma.__dict__
        U, weights = heis.sigma.basis.toarray(), heis.sigma.weights
        assert np.allclose(heis.sigma.sigma, (U * weights) @ U.conj().T, atol=1e-15)
        assert "sigma" in heis.sigma.__dict__  # formed on first use, then kept

    def test_scaling_route_peak_memory(self):
        # L_hat plus temporaries of its stored size: no full-size dense matrix
        heis = ising_generator(n=5, J=3.0)
        tracemalloc.start()
        try:
            start = tracemalloc.get_traced_memory()[0]
            tracemalloc.reset_peak()
            Lhat = symmetrize(heis)
            peak = tracemalloc.get_traced_memory()[1] - start
        finally:
            tracemalloc.stop()
        dense_bytes = Lhat.shape[0] ** 2 * np.dtype(complex).itemsize
        assert peak <= 1.5 * dense_bytes
        # the stored size of a CSR matrix of the same entries: values, column
        # indices and int32 row pointers
        assert peak <= 8 * (Lhat.val.nbytes + Lhat.col.nbytes + 4 * (Lhat.side + 1))

    def test_hermitian_average_matches_dense_average(self):
        rng = np.random.default_rng(3)
        n = 150
        A = rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n))
        expected = A + A.conj().T
        expected *= 0.5
        resid = np.linalg.norm(A - A.conj().T) / max(1.0, np.linalg.norm(A))
        got = oracles.hermitian_stacks(Triplets.of(A))
        assert np.array_equal(got, expected)
        assert np.array_equal(got, got.conj().T)
        assert np.array_equal(got, oracles.hermitian_part_csr(scipy.sparse.csr_array(A))[0])
        oracles.assert_gate_at(Triplets.of(A), resid, rel=1e-12)


class TestSpectralGap:
    def test_trivial_hamiltonian_gap(self):
        # eigenoperators are Pauli strings; every weight-1 string decays at 4 theta(0)
        H = np.eye(2)
        es = eigensystem(H)
        heis = build_ckg_generator(es, [X, Y, Z], GM)
        rep = spectral_gap(heis)
        theta0 = erfc(1 / (2 * np.sqrt(2)))
        assert rep.gap == pytest.approx(4 * theta0, rel=1e-8)
        assert rep.kernel_dim == 1

    def test_identity_system_gap_beta_independent(self):
        gaps = []
        for beta in (0.3, 1.0, 2.5):
            H = np.eye(4)
            es = eigensystem(H)
            heis = build_ckg_generator(es, single_site_paulis(2), WeightFunction("metropolis", beta))
            gaps.append(spectral_gap(heis).gap)
        assert np.allclose(gaps, gaps[0], rtol=1e-8)
        assert gaps[0] > 1.0  # Theta(1)

    def test_defected_ising_gap_decreases_in_J(self):
        gaps = []
        for J in (1.0, 2.0, 3.0, 4.0):
            gaps.append(spectral_gap(ising_generator(J=J)).gap)
        assert all(g2 < g1 for g1, g2 in zip(gaps, gaps[1:]))

    def test_rescaling_covariance(self):
        heis = ising_generator()
        rep1 = spectral_gap(heis)
        rep2 = spectral_gap(Superoperator(3.0 * heis.local.toarray(), heis.sigma))
        assert rep2.gap == pytest.approx(3.0 * rep1.gap, rel=1e-10)

    def test_negativity_of_spectrum(self):
        Lhat = symmetrize(ising_generator(J=3.0, w=GG)).toarray()
        evals = np.linalg.eigvalsh(-Lhat)
        assert evals.min() >= -1e-9 * np.abs(evals).max()

    @pytest.mark.parametrize("evals, message", [
        ([0.0, 0.0], "no spectrum above the kernel threshold"),
        ([0.0, 5e-9, 1.0], "ambiguous kernel cluster"),  # threshold 1e-9, gap within 10x
    ])
    def test_unresolved_gap_has_its_own_error(self, evals, message):
        with pytest.raises(UnresolvedGapError, match=message):
            gap_from_eigenvalues(np.array(evals))

    def test_kernel_dimension_checked_after_the_ambiguity_check(self):
        # the n = 3 Metropolis ring at beta = 2, J = 5: once reported as gap 2.0007
        evals = np.array([-1.5e-16, 3.019e-10, 2.0007, 8.9])
        with pytest.raises(UnresolvedGapError, match="kernel dimension 2, expected 1: "):
            gap_from_eigenvalues(evals)
        rep = gap_from_eigenvalues(evals, expected_kernel=2)
        assert (rep.gap, rep.kernel_dim) == (2.0007, 2)
        with pytest.raises(UnresolvedGapError, match="ambiguous kernel cluster"):
            gap_from_eigenvalues(np.array([0.0, 5e-9, 1.0]), expected_kernel=2)

    def test_ring_with_slow_mode_below_threshold_refused(self):
        with pytest.raises(UnresolvedGapError, match="kernel dimension 2, expected 1"):
            spectral_gap(ising_generator(J=5.0, w=WeightFunction("metropolis", 2.0)))


class TestKmsOperatorNorm:
    def test_zero_map(self):
        L0 = Superoperator(np.zeros((64, 64), dtype=complex), ising_generator().sigma)
        # the KMS operator norm is the top of the spectrum of -L_hat
        assert float(block_eigvalsh(-symmetrize(L0))[-1]) == 0.0

    def test_norm_dominates_gap(self):
        heis = ising_generator()
        rep = spectral_gap(heis)
        assert rep.kms_norm >= rep.gap
        top = np.linalg.eigvalsh(-symmetrize(heis).toarray())[-1]
        assert top == pytest.approx(rep.kms_norm)


class TestGapComposition:
    def test_suite_passes(self):
        report = gap_composition_suite(seed=42, n_instances=200)
        assert report["passed"], report

    @pytest.mark.parametrize("seed", range(10))
    def test_suite_passes_for_seeds(self, seed):
        report = gap_composition_suite(seed=seed, n_instances=200)
        assert report["passed"], report
        assert all(c["worst_margin"] >= -1e-10 for c in report["cases"].values())

    def test_report_shape(self):
        report = gap_composition_suite(seed=3, n_instances=20)
        assert set(report) == {"cases", "passed"}
        assert list(report["cases"]) == ["kernel_agreement", "commuting_min",
                                         "kernel_energy_bound", "ratio_inequality"]
        for case in report["cases"].values():
            assert set(case) == {"violations", "worst_margin"}
            assert type(case["violations"]) is int and type(case["worst_margin"]) is float

    def test_stacked_gap_equals_per_matrix(self):
        from qrex.spectral import _gap_of_psd

        def per_matrix(M, tol=1e-10):
            evals = np.linalg.eigvalsh(M)
            pos = evals[evals > tol * max(np.abs(evals).max(), 1e-300)]
            return float(pos[0]) if pos.size else 0.0

        rng = np.random.default_rng(5)
        mats = [np.zeros((6, 6)), np.diag([0.0, 0.0, 1e-12, 2.0, 3.0, 5.0])]
        for rank in (1, 2, 4, 5, 6):
            C = rng.standard_normal((6, rank)) + 1j * rng.standard_normal((6, rank))
            mats.append(C @ C.conj().T)
        stack = np.array(mats, dtype=complex)
        gaps = _gap_of_psd(stack)
        assert gaps.shape == (len(mats),)
        assert gaps[0] == 0.0
        assert gaps[1] == 2.0
        assert np.array_equal(gaps, [per_matrix(M) for M in stack])
        assert all(_gap_of_psd(M) == g for M, g in zip(stack, gaps))
        assert isinstance(_gap_of_psd(stack[2]), float)

    def test_kernel_bound_case_draws_both_kernel_dimensions(self, monkeypatch):
        # the kernel-restricted minimum is one stacked eigvalsh per kernel
        # dimension; those are the only (m, k, k) solves with k < 6
        shapes = []
        original = np.linalg.eigvalsh

        def spy(a, *args, **kwargs):
            shapes.append(np.shape(a))
            return original(a, *args, **kwargs)

        monkeypatch.setattr(qrex.spectral.np.linalg, "eigvalsh", spy)
        gap_composition_suite(seed=42, n_instances=200)
        small = sorted(s[-1] for s in shapes if len(s) == 3 and s[-1] < 6)
        assert small == [1, 2]

    def test_equal_diagonal_family(self):
        # A = B diagonal PSD: Gap(A+B) = 2 Gap(A) >= min gap trivially
        a = np.diag([0.0, 1.0, 2.0])
        from qrex.spectral import _gap_of_psd

        assert _gap_of_psd(a + a) == pytest.approx(2.0 * _gap_of_psd(a))

    def test_ratio_identity_on_grid(self):
        rng = np.random.default_rng(17)
        t = np.abs(rng.standard_normal((100, 4))) + 1e-3
        lhs = (t[:, 0] + t[:, 2]) / (t[:, 1] + t[:, 3])
        rhs = np.minimum(t[:, 0] / t[:, 1], t[:, 2] / t[:, 3])
        assert np.all(lhs >= rhs - 1e-12)


class TestPartialLindbladian:
    def test_defected_ising_n4(self):
        spec = defected_ising_1d(4, 3.0)
        rep = partial_lindbladian_check(spec, GM)
        assert rep["max_factorization_residual"] < 1e-9
        assert rep["max_fixed_point_mismatch"] < 1e-10
        assert rep["g_b"] > 0

    def test_restriction_gap_equals_min_partial(self):
        spec = defected_ising_1d(3, 2.0)
        rep = partial_lindbladian_check(spec, GM)
        gap = a_diagonal_restriction_gap(joint_structure(spec), GM)
        assert gap == pytest.approx(rep["g_b"], rel=1e-7)
        assert gap >= rep["g_b"] - 1e-9

    @pytest.mark.parametrize("spec", [defected_ising_1d(3, 2.0), defected_ising_1d(4, 5.0)])
    def test_restriction_kernel_holds_one_state_per_a_label(self, spec, monkeypatch):
        js = joint_structure(spec)
        kernels = []
        reader = qrex.spectral.gap_from_eigenvalues

        def spy(evals, expected_kernel=1):
            rep = reader(evals, expected_kernel)
            kernels.append(rep.kernel_dim)
            return rep

        monkeypatch.setattr(qrex.spectral, "gap_from_eigenvalues", spy)
        a_diagonal_restriction_gap(js, GM)
        assert kernels == [js.d_a] and js.d_a > 1

    def test_empty_a_edge_case_equals_full_gap(self):
        spec0 = defected_ising_1d(3, 2.0)
        spec = HamiltonianSpec(n=3, terms=spec0.terms, partition=((), (0, 1, 2)))
        gap = a_diagonal_restriction_gap(joint_structure(spec), GM)
        assert gap == pytest.approx(spectral_gap(ising_generator(J=2.0)).gap, rel=1e-8)


def as_complex(L):
    """The generator L with its stored values cast to complex128."""
    A = L.local
    return Superoperator(Triplets(A.row, A.col, A.val.astype(complex), A.side), L.sigma)


GRID = defected_heisenberg_2d(2, 3, (0, 3), (0, 3), 3.0)
REAL_GENERATORS = {
    **{f"ring{n}-{w.kind}": (lambda n=n, w=w: ising_generator(n, 3.0, w))
       for n in (3, 4, 5) for w in (GM, GG)},
    "local_A": lambda: build_replica_exchange_generator(joint_structure(defected_ising_1d(3, 3.0)),
                                                        GG),
    "global": lambda: build_global_replica_generator(
        eigensystem(assemble_dense(defected_ising_1d(3, 3.0))), GM, 0.5),
    "grid2x3": lambda: build_ckg_generator(eigensystem(assemble_dense(GRID)),
                                           single_site_paulis(6), WeightFunction("metropolis", 0.05)),
    "grid2x3-local_A": lambda: build_replica_exchange_generator(
        joint_structure(GRID), WeightFunction("gaussian", 0.05)),
}
# -X0 Y1 - Z1 Z2 - 0.5 X2: the Y term makes H, its eigenbasis and the generator complex
COMPLEX_CHAIN = HamiltonianSpec(n=3, terms=(PauliTerm(-1.0, ((0, "X"), (1, "Y"))),
                                            PauliTerm(-1.0, ((1, "Z"), (2, "Z"))),
                                            PauliTerm(-0.5, ((2, "X"),))))


class TestRealArithmetic:
    """Generators whose entries are all real are stored, symmetrized and solved as float64."""

    @pytest.mark.parametrize("name", REAL_GENERATORS)
    def test_real_generator_stays_real(self, name):
        L = REAL_GENERATORS[name]()
        Lhat = symmetrize(L)
        assert L.local.val.dtype == Lhat.val.dtype == np.float64
        assert all(V.dtype == np.float64 for _, _, V, _ in block_eigh(Lhat))
        rep, ref = spectral_gap(L), spectral_gap(as_complex(L))
        assert (rep.arithmetic, ref.arithmetic) == ("real", "complex")
        # both eigensolvers are backward stable, so the two gaps agree to a few
        # eps ||L_hat||: within 1e-12 relative unless the gap is below about
        # 1e-3 ||L_hat||, as on the Gaussian rings (2.1e-12 at n = 5, 0.27 eps ||L_hat||)
        tol = max(1e-12 * ref.gap, 4 * np.finfo(float).eps * ref.kms_norm)
        assert abs(rep.gap - ref.gap) <= tol
        assert rep.kernel_dim == ref.kernel_dim

    @pytest.mark.parametrize("n", [3, 4, 5])
    @pytest.mark.parametrize("w", [GM, GG], ids=["metropolis", "gaussian"])
    def test_crossing_times_match_complex_route(self, n, w):
        L = ising_generator(n, 3.0, w)
        props = [SpectralPropagator(L), SpectralPropagator(as_complex(L))]
        t_cap = mixing_bounds_from_gap(spectral_gap(L).gap, L.sigma.lambda_min, 1e-2)[1]
        states = [psi for _, psi in _initial_family(L.sigma, n_haar=6, seed=11)]
        real, ref = (first_crossing_times(prop, states, 1e-2, t_cap) for prop in props)
        assert np.all(np.abs(real - ref) <= BISECTION_RTOL * ref)

    @pytest.mark.parametrize("H", [assemble_dense(COMPLEX_CHAIN),
                                   generic_hamiltonian()], ids=["X0Y1", "generic"])
    def test_complex_generator_stays_complex(self, H):
        L = build_ckg_generator(eigensystem(H), single_site_paulis(3), GM)
        Lhat = symmetrize(L)
        assert L.local.val.dtype == Lhat.val.dtype == np.complex128
        assert all(V.dtype == np.complex128 for _, _, V, _ in block_eigh(Lhat))
        assert spectral_gap(L).arithmetic == "complex"
