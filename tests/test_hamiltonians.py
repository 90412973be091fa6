import numpy as np
import pytest

from qrex.hamiltonians import (
    HamiltonianSpec,
    PauliTerm,
    assemble_dense,
    check_commuting_cut,
    compress_onto,
    defected_heisenberg_2d,
    defected_ising_1d,
    grid_edges,
    simultaneous_eigenbasis,
)
from qrex.pauli import (
    PAULIS,
    pauli_string,
    qubit_permutation,
    single_site_paulis,
)

from qrex.replica import joint_structure

from oracles import (
    kron_all,
    pauli_decompose,
    pauli_string_matrix,
    pauli_support,
    qubit_permutation_matrix,
)


def ising_energy(z, J):
    """Classical ring energy -J z0 z1 - sum_{i>=1} z_i z_{i+1}, brute force."""
    n = len(z)
    e = -J * z[0] * z[1]
    for i in range(1, n):
        e -= z[i] * z[(i + 1) % n]
    return e


def spins_from_index(b, n):
    # bit 0 of the basis index is the least significant = site n-1
    return [1 - 2 * ((b >> (n - 1 - s)) & 1) for s in range(n)]


class TestAssembleDense:
    def test_single_z(self):
        spec = HamiltonianSpec(n=1, terms=(PauliTerm(1.0, ((0, "Z"),)),))
        assert np.allclose(assemble_dense(spec), np.diag([1.0, -1.0]))

    def test_empty_terms(self):
        spec = HamiltonianSpec(n=2, terms=())
        assert np.allclose(assemble_dense(spec), np.zeros((4, 4)))

    def test_defected_ising_diagonal_matches_classical_energies(self):
        J = 2.0
        spec = defected_ising_1d(3, J)
        H = assemble_dense(spec)
        expected = np.array([ising_energy(spins_from_index(b, 3), J) for b in range(8)])
        assert np.allclose(H, np.diag(expected))

    def test_linear_in_coefficients(self):
        t1 = PauliTerm(0.7, ((0, "X"), (1, "Y")))
        t2 = PauliTerm(-1.3, ((1, "Z"),))
        h12 = assemble_dense(HamiltonianSpec(n=2, terms=(t1, t2)))
        h1 = assemble_dense(HamiltonianSpec(n=2, terms=(t1,)))
        h2 = assemble_dense(HamiltonianSpec(n=2, terms=(t2,)))
        assert np.allclose(h12, h1 + h2)

    def test_site_out_of_range(self):
        with pytest.raises(ValueError):
            HamiltonianSpec(n=2, terms=(PauliTerm(1.0, ((2, "Z"),)),))

    def test_duplicate_site_in_term(self):
        with pytest.raises(ValueError):
            PauliTerm(1.0, ((0, "Z"), (0, "X")))

    def test_hermiticity_of_random_models(self):
        rng = np.random.default_rng(0)
        for _ in range(5):
            n = 3
            terms = []
            for _ in range(6):
                k = rng.integers(1, 3)
                sites = rng.choice(n, size=k, replace=False)
                labs = rng.choice(["X", "Y", "Z"], size=k)
                terms.append(PauliTerm(float(rng.standard_normal()),
                                       tuple((int(s), str(l)) for s, l in zip(sites, labs))))
            H = assemble_dense(HamiltonianSpec(n=n, terms=tuple(terms)))
            assert np.linalg.norm(H - H.conj().T) <= 1e-12 * max(1.0, np.linalg.norm(H))

    @pytest.mark.parametrize("spec", [defected_ising_1d(n, 3.0) for n in range(3, 9)]
                             + [defected_heisenberg_2d(2, 3, (0, 1), (0, 1), 3.0),
                                HamiltonianSpec(n=3, terms=(PauliTerm(-1.0, ((0, "X"), (1, "Y"))),
                                                            PauliTerm(-1.0, ((1, "Z"), (2, "Z"))),
                                                            PauliTerm(-0.5, ((2, "X"),))))],
                             ids=[f"ring{n}" for n in range(3, 9)] + ["grid2x3", "complex"])
    def test_bitwise_the_sum_of_dense_strings(self, spec):
        # scattering each string's d entries in place gives the sum of the dense
        # strings, term by term, to the bit (signed zeros included)
        ref = np.zeros((2**spec.n, 2**spec.n), dtype=complex)
        for t in spec.terms:
            ref = ref + pauli_string(spec.n, t.factors, t.coefficient).toarray()
        assert assemble_dense(spec).tobytes() == ref.tobytes()


class TestDefectedIsing:
    def test_uniform_ring_all_up_energy(self):
        H = assemble_dense(defected_ising_1d(3, 1.0))
        assert np.isclose(H[0, 0].real, -3.0)

    def test_ground_energy_enumerated(self):
        spec = defected_ising_1d(3, 5.0)
        H = assemble_dense(spec)
        energies = [ising_energy(spins_from_index(b, 3), 5.0) for b in range(8)]
        assert np.isclose(min(energies), -7.0)
        assert np.isclose(np.linalg.eigvalsh(H)[0], -7.0)
        # all-up and all-down both achieve it
        assert np.isclose(H[0, 0].real, -7.0)
        assert np.isclose(H[7, 7].real, -7.0)

    def test_kvmax_is_two(self):
        # paper's section 5.1 value for the ring decomposition
        cut = check_commuting_cut(defected_ising_1d(4, 2.0))
        assert cut.holds
        assert cut.k_count * cut.v_max == pytest.approx(2.0)

    def test_ring_too_small(self):
        with pytest.raises(ValueError):
            defected_ising_1d(2, 1.0)


class TestDefectedHeisenberg:
    def setup_method(self):
        self.rows, self.cols = 2, 3
        self.A = (0, 3)  # left column
        self.spec = defected_heisenberg_2d(self.rows, self.cols, self.A, (0, 3), 4.0)

    def test_edge_count(self):
        assert len(grid_edges(self.rows, self.cols)) == 7

    def test_term_count_matches_edge_classification(self):
        edges = grid_edges(self.rows, self.cols)
        in_a = set(self.A)
        v_ab = set()
        for u, v in edges:
            if (u in in_a) != (v in in_a):
                v_ab.update((u, v))
        expected = sum(1 if (u in v_ab or v in v_ab) else 3 for u, v in edges)
        assert len(self.spec.terms) == expected

    def test_cross_edges_commute_with_endpoint_z(self):
        H_cross = np.zeros((2**6, 2**6), dtype=complex)
        in_a = set(self.A)
        for t in self.spec.terms:
            supp = t.support
            if supp & in_a and supp - in_a:
                H_cross += pauli_string_matrix(6, t.factors, t.coefficient)
                for s in supp:
                    Zs = pauli_string_matrix(6, [(s, "Z")])
                    Hm = pauli_string_matrix(6, t.factors, t.coefficient)
                    assert np.allclose(Hm @ Zs, Zs @ Hm)

    def test_cut_holds(self):
        cut = check_commuting_cut(self.spec)
        assert cut.holds

    def test_defect_edge_outside_boundary_rejected(self):
        with pytest.raises(ValueError):
            defected_heisenberg_2d(2, 3, (0, 3), (2, 5), 4.0)

    def test_a_not_in_grid_rejected(self):
        with pytest.raises(ValueError):
            defected_heisenberg_2d(2, 3, (0, 99), (0, 3), 4.0)


class TestCommutingCut:
    def test_defected_ising_k_vmax(self):
        cut = check_commuting_cut(defected_ising_1d(3, 1.0))
        assert cut.holds
        assert cut.k_count == 2
        assert cut.v_max == pytest.approx(1.0)

    def test_non_commuting_cut_detected(self):
        # X on (0,2) crossing plus Z0 inside A: [X, Z] != 0
        spec = HamiltonianSpec(
            n=3,
            terms=(
                PauliTerm(1.0, ((0, "X"), (2, "X"))),
                PauliTerm(1.0, ((0, "Z"),)),
            ),
            partition=((0, 1), (2,)),
        )
        cut = check_commuting_cut(spec)
        assert not cut.holds
        assert cut.diagnostics

    def test_reassembly_identity(self):
        # the 2x3 grid with A = (0, 3) is the case whose site order is not the identity
        grid = defected_heisenberg_2d(2, 3, (0, 3), (0, 3), 3.0)
        for spec in (defected_ising_1d(5, 3.0), grid):
            cut = check_commuting_cut(spec)
            p = qubit_permutation(spec.n, list(cut.perm_order))
            P = qubit_permutation_matrix(spec.n, list(cut.perm_order))
            H = assemble_dense(spec)[np.ix_(p, p)]
            assert np.array_equal(H, P @ assemble_dense(spec) @ P.conj().T)
            H_re = np.kron(cut.h_a, np.eye(cut.d_b)) + np.kron(np.eye(cut.d_a), cut.h_b)
            for va, vb in cut.interaction:
                H_re += np.kron(va, vb)
            assert np.linalg.norm(H - H_re) <= 1e-10 * np.linalg.norm(H)
        assert check_commuting_cut(grid).perm_order == (0, 3, 1, 2, 4, 5)

    def test_hab_norm_bounded_by_k_vmax(self):
        for spec in (defected_ising_1d(4, 2.5), defected_heisenberg_2d(2, 3, (0, 3), (0, 3), 3.0)):
            cut = check_commuting_cut(spec)
            H_ab = sum(np.kron(va, vb) for va, vb in cut.interaction)
            assert np.linalg.norm(H_ab, 2) <= cut.k_count * cut.v_max + 1e-10


class TestASideEigenbasis:
    def test_diagonal_family_returns_computational_basis(self):
        V = np.abs(joint_structure(defected_ising_1d(3, 2.0)).basis_a)
        # each column is a computational basis vector up to phase
        assert np.allclose(np.sort(V, axis=0)[-1], 1.0)
        assert np.allclose(V.sum(axis=0), 1.0)

    def test_basis_is_unitary(self):
        basis = joint_structure(defected_ising_1d(4, 3.0)).basis_a
        gram = basis.conj().T @ basis
        assert np.linalg.norm(gram - np.eye(4)) < 1e-12

    def test_random_commuting_family(self):
        rng = np.random.default_rng(3)
        d = 8
        Q, _ = np.linalg.qr(rng.standard_normal((d, d)) + 1j * rng.standard_normal((d, d)))
        ops = [Q @ np.diag(rng.standard_normal(d)) @ Q.conj().T for _ in range(3)]
        V, res = simultaneous_eigenbasis(ops, seed=5)
        assert res < 1e-10
        for o in ops:
            m = V.conj().T @ o @ V
            off = m - np.diag(np.diag(m))
            assert np.linalg.norm(off) < 1e-9 * max(1.0, np.linalg.norm(m))

    def test_non_commuting_pair_raises(self):
        X = pauli_string_matrix(1, [(0, "X")])
        Z = pauli_string_matrix(1, [(0, "Z")])
        with pytest.raises(ValueError):
            simultaneous_eigenbasis([X, Z], seed=5)


class TestCompressOnto:
    def test_product_hamiltonian_gives_scaled_identity(self):
        h_a = np.diag([2.0, -1.0, 0.5, 3.0]).astype(complex)
        H = np.kron(h_a, np.eye(4))
        v = np.zeros(4)
        v[2] = 1.0
        out = compress_onto(H, v, ((0, 1), (2, 3)), 4)
        assert np.allclose(out, 0.5 * np.eye(4))

    def test_matches_direct_matrix_elements(self):
        spec = defected_ising_1d(4, 3.0)
        H = assemble_dense(spec)
        v = np.array([1.0, 0, 0, 0])  # |00> on A
        out = compress_onto(H, v, spec.partition, 4)
        # independent route: explicit (<v| (x) I) H (|v> (x) I) with kron embedding
        E = np.kron(v.reshape(1, 4), np.eye(4))
        assert np.allclose(out, E @ H @ E.conj().T)

    def test_locality_preserved(self):
        spec = defected_heisenberg_2d(2, 3, (0, 3), (0, 3), 2.0)
        H = assemble_dense(spec)
        v = np.zeros(4)
        v[1] = 1.0
        out = compress_onto(H, v, spec.partition, 6)
        # every Pauli string in the result acts on <= 2 sites (input is 2-local)
        dec = pauli_decompose(out - np.trace(out) / 16 * np.eye(16), 4, tol=1e-10)
        assert all(len(key) <= 2 for key in dec)

    def test_linear_and_contractive(self):
        rng = np.random.default_rng(1)
        part = ((0,), (1, 2))
        v = rng.standard_normal(2) + 1j * rng.standard_normal(2)
        v /= np.linalg.norm(v)
        M1 = rng.standard_normal((8, 8)) + 1j * rng.standard_normal((8, 8))
        M1 = M1 + M1.conj().T
        M2 = rng.standard_normal((8, 8)) + 1j * rng.standard_normal((8, 8))
        M2 = M2 + M2.conj().T
        c1 = compress_onto(M1, v, part, 3)
        c2 = compress_onto(M2, v, part, 3)
        c12 = compress_onto(2.0 * M1 - 0.5 * M2, v, part, 3)
        assert np.allclose(c12, 2.0 * c1 - 0.5 * c2)
        assert np.linalg.norm(c1, 2) <= np.linalg.norm(M1, 2) + 1e-12


class TestPauliHelpers:
    def test_qubit_permutation_moves_sites(self):
        Z1 = pauli_string_matrix(3, [(1, "Z")])
        p = qubit_permutation(3, [1, 0, 2])
        assert np.allclose(Z1[np.ix_(p, p)], pauli_string_matrix(3, [(0, "Z")]))
        # the A-first order of the 2x3 grid with A = (0, 3), against the dense oracle
        order = [0, 3, 1, 2, 4, 5]
        p = qubit_permutation(6, order)
        assert np.array_equal(np.eye(64)[p], qubit_permutation_matrix(6, order))
        Z3 = pauli_string_matrix(6, [(3, "Z")])
        assert np.array_equal(Z3[np.ix_(p, p)], pauli_string_matrix(6, [(1, "Z")]))

    def test_pauli_support(self):
        M = pauli_string_matrix(3, [(0, "X"), (2, "Y")], 0.3)
        assert pauli_support(M, 3) == {0, 2}

    @pytest.mark.parametrize("n", [1, 2, 3, 4, 5])
    def test_string_matrix_equals_kron_product_on_every_site_and_label(self, n):
        for site in range(n):
            for label in "IXYZ":
                ops = [PAULIS["I"]] * n
                ops[site] = PAULIS[label]
                assert np.array_equal(pauli_string_matrix(n, [(site, label)]), kron_all(ops))

    @pytest.mark.parametrize("n, factors, coeff", [
        (2, [(0, "Y"), (1, "Y")], 1j),
        (3, [(0, "X"), (2, "Y")], 0.3 - 0.7j),
        (4, [(3, "Z"), (0, "Y"), (1, "X")], -1.5 + 2.0j),
        (5, [(0, "Y"), (1, "Y"), (2, "Y"), (4, "Z")], 0.25j),
        (5, [(1, "X"), (2, "Z"), (3, "Y"), (4, "I")], -0.6),
    ])
    def test_string_matrix_equals_kron_product_on_multi_site_strings(self, n, factors, coeff):
        ops = [PAULIS["I"]] * n
        for site, label in factors:
            ops[site] = PAULIS[label]
        assert np.array_equal(pauli_string_matrix(n, factors, coeff), coeff * kron_all(ops))

    def test_string_holds_its_d_nonzeros_as_triplets(self):
        S = pauli_string(3, [(0, "X"), (2, "Y")], 0.3)
        assert np.array_equal(S.row, np.arange(8)) and np.array_equal(S.col, np.arange(8) ^ 0b101)
        assert S.val.dtype == complex and np.all(np.abs(S.val) == 0.3)

    def test_unknown_label_rejected(self):
        with pytest.raises(KeyError):
            pauli_string_matrix(2, [(0, "W")])

    def test_single_site_paulis_count(self):
        assert len(single_site_paulis(3)) == 9
        assert len(single_site_paulis(3, sites=[1])) == 3

    def test_decompose_roundtrip(self):
        rng = np.random.default_rng(2)
        coeffs = {}
        M = np.zeros((8, 8), dtype=complex)
        for sites, labs in [((0,), ("X",)), ((1, 2), ("Z", "Y"))]:
            c = rng.standard_normal()
            coeffs[tuple(zip(sites, labs))] = c
            M += pauli_string_matrix(3, list(zip(sites, labs)), c)
        dec = pauli_decompose(M, 3)
        assert set(dec) == set(coeffs)
        for k, v in coeffs.items():
            assert np.isclose(dec[k], v)


class TestJsonRoundTrip:
    def test_spec_roundtrip(self):
        spec = defected_ising_1d(4, 2.5)
        d = spec.to_json_dict()
        spec2 = HamiltonianSpec.from_json_dict(d)
        assert np.allclose(assemble_dense(spec), assemble_dense(spec2))
        assert spec2.partition == spec.partition
        assert spec2.defect == spec.defect
