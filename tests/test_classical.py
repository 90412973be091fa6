import tracemalloc

import numpy as np
import pytest

from qrex.classical import (
    CHEEGER_CHUNK,
    ClassicalChain,
    _subset_masks,
    bottleneck_ratio,
    classical_defected_ising_energy,
    classical_gap,
    classical_re_generator,
    glauber_generator,
    spin_table,
)

from oracles import bottleneck_ratio_whole_table


def ising_fn(J):
    return lambda z: classical_defected_ising_energy(z, J)


def random_reversible_chain(m, seed):
    """Chain with random symmetric flows W and random stationary law pi: Q = W / pi."""
    rng = np.random.default_rng(seed)
    W = rng.random((m, m))
    W = W + W.T
    np.fill_diagonal(W, 0.0)
    pi = rng.random(m) + 0.1
    pi /= pi.sum()
    Q = W / pi[:, None]
    np.fill_diagonal(Q, -Q.sum(axis=1))
    return ClassicalChain(generator=Q, stationary=pi, beta=1.0)


def two_cluster_chain(m, cluster):
    """Uniform pi; rate 1 inside ``cluster`` and inside its complement, 2^-6 across."""
    inside = np.isin(np.arange(m), cluster)
    Q = np.where(inside[:, None] == inside[None, :], 1.0, 2.0**-6)
    np.fill_diagonal(Q, 0.0)
    np.fill_diagonal(Q, -Q.sum(axis=1))
    return ClassicalChain(generator=Q, stationary=np.full(m, 1.0 / m), beta=1.0)


class TestEnergy:
    def test_all_up(self):
        assert classical_defected_ising_energy(np.ones(4), 3.0) == pytest.approx(-6.0)

    def test_single_flip_matches_brute_force(self):
        z = np.ones(4)
        z[0] = -1
        # direct formula: -J z0 z1 - (z1 z2 + z2 z3 + z3 z0)
        expected = -3.0 * (-1) - (1 + 1 - 1)
        assert classical_defected_ising_energy(z, 3.0) == pytest.approx(expected)

    def test_uniform_ring_translation_symmetry(self):
        # J = 1 removes the defect; the energy multiset is shift invariant
        states = spin_table(5)
        E = classical_defected_ising_energy(states, 1.0)
        shifted = np.roll(states, 1, axis=1)
        E2 = classical_defected_ising_energy(shifted, 1.0)
        assert np.allclose(np.sort(E), np.sort(E2))


class TestGlauber:
    def test_free_spin_unit_rates(self):
        chain = glauber_generator(lambda z: np.zeros(z.shape[0]), 1, 1.0)
        assert np.allclose(chain.generator, np.array([[-1.0, 1.0], [1.0, -1.0]]))

    def test_reversibility_residual(self):
        chain = glauber_generator(ising_fn(3.0), 4, 1.0)
        flow = chain.stationary[:, None] * chain.generator
        assert np.abs(flow - flow.T).max() < 1e-12

    def test_uphill_rate_value_and_scaling(self):
        beta = 1.0
        rates = {}
        for J in (3.0, 4.0):
            chain = glauber_generator(ising_fn(J), 4, beta)
            states = spin_table(4)
            E = classical_defected_ising_energy(states, J)
            # flip spin 0 out of the all-up state (index 0)
            target = 0 ^ (1 << 3)
            dE = E[target] - E[0]
            assert chain.generator[0, target] == pytest.approx(np.exp(-beta * dE))
            rates[J] = chain.generator[0, target]
        # the 2J barrier dominates: one unit of J costs e^{-2 beta}
        assert rates[4.0] / rates[3.0] == pytest.approx(np.exp(-2 * beta), rel=1e-10)

    def test_state_guard(self):
        with pytest.raises(ValueError):
            glauber_generator(lambda z: np.zeros(z.shape[0]), 15, 1.0)


class TestBottleneckRatio:
    @pytest.mark.parametrize("m", range(1, 17))
    def test_subset_masks_equal_shift_form(self, m):
        idx = np.arange(2**m, dtype=np.uint32)
        shifted = ((idx[:, None] >> np.arange(m)[None, :]) & 1).astype(float)
        masks = _subset_masks(m, 0, 2**m)
        assert masks.dtype == shifted.dtype
        assert np.array_equal(masks, shifted)
        assert np.array_equal(_subset_masks(m, 1, 2**m - 1), shifted[1:-1])

    @pytest.mark.parametrize("m", [2, 13, 16, 20])
    def test_exact_equals_whole_table(self, m):
        chain = random_reversible_chain(m, seed=m)
        assert bottleneck_ratio(chain, mode="exact") == bottleneck_ratio_whole_table(chain)

    def test_exact_tie_across_chunks_keeps_first(self):
        # two clusters of 8 states with uniform pi and dyadic rates, so every sum
        # is exact: each cluster has phi = 64 * 2^-10 / (1/2) = 1/8 bitwise, and
        # every other subset cuts an internal edge
        m = 16
        first = (0, 1, 2, 3, 4, 5, 6, 13)
        chain = two_cluster_chain(m, first)
        i1 = sum(1 << s for s in first)
        i2 = 2**m - 1 - i1  # the other cluster
        assert (i1 - 1) // CHEEGER_CHUNK != (i2 - 1) // CHEEGER_CHUNK  # chunks start at 1
        assert bottleneck_ratio(chain, mode="exact") == (0.125, first)
        assert bottleneck_ratio_whole_table(chain) == (0.125, first)

    @pytest.mark.parametrize("offset", [0, 1])
    def test_exact_minimizer_at_chunk_edge(self, offset):
        # chunks start at subset index 1, so index CHEEGER_CHUNK ends the first
        # chunk and CHEEGER_CHUNK + 1 starts the second; the cluster with that
        # index is the unique minimizer
        top = CHEEGER_CHUNK.bit_length() - 1  # CHEEGER_CHUNK = 2^top
        members = (0, top) if offset else (top,)
        assert sum(1 << s for s in members) == CHEEGER_CHUNK + offset
        chain = two_cluster_chain(top + 1, members)
        assert bottleneck_ratio(chain, mode="exact")[1] == members
        assert bottleneck_ratio(chain, mode="exact") == bottleneck_ratio_whole_table(chain)

    def test_exact_enumeration_working_set(self):
        chain = random_reversible_chain(20, seed=20)
        tracemalloc.start()
        try:
            bottleneck_ratio(chain, mode="exact")
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        # the whole (2^20, 20) mask table alone would take 168 MB
        assert peak < 16 * 2**20

    def test_exact_needs_two_states(self):
        chain = ClassicalChain(generator=np.zeros((1, 1)), stationary=np.ones(1), beta=1.0)
        with pytest.raises(ValueError):
            bottleneck_ratio(chain, mode="exact")

    @pytest.mark.parametrize("J, phi, members", [
        (2.0, 0.014084064847293045, (0, 1, 2, 3, 8, 9, 10, 11)),
        (3.0, 0.0019177480674048837, (0, 1, 2, 3, 4, 5, 6, 7)),
        (4.0, 0.0002597543413836445, (4, 5, 6, 7, 12, 13, 14, 15)),
    ])
    def test_exact_ring_minimizer_pinned(self, J, phi, members):
        # values of the shift-form mask table, which the unpacked table equals bitwise
        chain = glauber_generator(ising_fn(J), 4, 1.0)
        assert bottleneck_ratio(chain, mode="exact") == (phi, members)

    def test_two_state_closed_form(self):
        p, q = 0.3, 0.7
        Q = np.array([[-p, p], [q, -q]])
        pi = np.array([q, p]) / (p + q)
        chain = ClassicalChain(generator=Q, stationary=pi, beta=1.0)
        phi, members = bottleneck_ratio(chain, mode="exact")
        # the smaller-pi side is state 1 (weight p/(p+q)); its exit rate is q
        assert members == (1,)
        assert phi == pytest.approx(q)

    def test_exact_slope_in_window(self):
        beta = 1.0
        phis = []
        Js = np.arange(1.0, 6.0)
        for J in Js:
            chain = glauber_generator(ising_fn(J), 4, beta)
            phi, _ = bottleneck_ratio(chain, mode="exact")
            phis.append(phi)
        slope = np.polyfit(Js, np.log(phis), 1)[0]
        assert -2.5 * beta <= slope <= -1.5 * beta

    def test_exponential_bottleneck_law(self):
        beta = 1.0
        prev = None
        for J in (2.0, 3.0, 4.0):
            chain = glauber_generator(ising_fn(J), 4, beta)
            phi, _ = bottleneck_ratio(chain, mode="exact")
            if prev is not None:
                assert phi / prev <= np.exp(-beta) + 1e-12
            prev = phi

    def test_candidate_agrees_with_exact(self):
        for J in (2.0, 4.0):
            chain = glauber_generator(ising_fn(J), 4, 1.0)
            E = classical_defected_ising_energy(spin_table(4), J)
            exact, _ = bottleneck_ratio(chain, mode="exact")
            cand, _ = bottleneck_ratio(chain, mode="candidate", energies=E)
            assert cand >= exact - 1e-14
            assert cand == pytest.approx(exact, rel=1e-9)

    def test_exact_mode_guard(self):
        chain = glauber_generator(ising_fn(2.0), 6, 1.0)
        with pytest.raises(ValueError):
            bottleneck_ratio(chain, mode="exact")


class TestReplicaExchange:
    def test_swap_rate_for_equal_energy_pair(self):
        chain = classical_re_generator(ising_fn(2.0), 3, 1.0, 0.2)
        states = spin_table(3)
        E = classical_defected_ising_energy(states, 2.0)
        m = 8
        # all-up and all-down have equal energy; swap rate must be exactly 1
        x1, x2 = 0, 7
        assert E[x1] == pytest.approx(E[x2])
        assert chain.generator[x1 * m + x2, x2 * m + x1] == pytest.approx(1.0)

    def test_stationarity_residual(self):
        chain = classical_re_generator(ising_fn(2.0), 3, 1.0, 0.2)
        resid = np.abs(chain.stationary @ chain.generator).max()
        assert resid < 1e-12

    def test_re_gap_flat_while_single_collapses(self):
        beta1, beta2 = 1.0, 0.2
        single, re = [], []
        for J in (1.0, 2.0, 3.0, 4.0, 5.0):
            single.append(classical_gap(glauber_generator(ising_fn(J), 4, beta1)))
            re.append(classical_gap(classical_re_generator(ising_fn(J), 4, beta1, beta2)))
        single, re = np.array(single), np.array(re)
        assert single.max() / single.min() >= 50.0
        assert re.max() / re.min() <= 3.0


class TestClassicalGap:
    def test_two_state_closed_form(self):
        p, q = 0.4, 1.1
        Q = np.array([[-p, p], [q, -q]])
        pi = np.array([q, p]) / (p + q)
        chain = ClassicalChain(generator=Q, stationary=pi, beta=1.0)
        assert classical_gap(chain) == pytest.approx(p + q)

    def test_cheeger_upper_bound(self):
        for J in (1.0, 3.0):
            chain = glauber_generator(ising_fn(J), 4, 1.0)
            gap = classical_gap(chain)
            phi, _ = bottleneck_ratio(chain, mode="exact")
            assert gap <= 2 * phi + 1e-12

    def test_positive_for_irreducible(self):
        chain = glauber_generator(ising_fn(2.0), 4, 1.0)
        assert classical_gap(chain) > 0
