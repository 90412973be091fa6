import mpmath
import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from qrex.classical import (
    ClassicalChain,
    bottleneck_ratio,
    classical_defected_ising_energy,
    classical_gap,
    classical_re_generator,
    glauber_generator,
    spin_table,
)

from oracles import bottleneck_ratio_whole_table, subset_masks


def ising_fn(J):
    return lambda z: classical_defected_ising_energy(z, J)


def random_reversible_chain(m, seed, density):
    """Chain with random symmetric flows W and random stationary law pi: Q = W / pi.

    Flows span three decades; a path through every state keeps the chain
    irreducible, and each other pair carries a flow with probability ``density``.
    """
    rng = np.random.default_rng(seed)
    W = 10.0 ** rng.uniform(-3.0, 0.0, size=(m, m)) * (rng.random((m, m)) < density)
    W[np.arange(m - 1), np.arange(1, m)] = 10.0 ** rng.uniform(-3.0, 0.0, size=m - 1)
    W = np.triu(W, 1)
    W = W + W.T
    pi = 10.0 ** rng.uniform(-1.0, 0.0, size=m)
    pi /= pi.sum()
    Q = W / pi[:, None]
    np.fill_diagonal(Q, -Q.sum(axis=1))
    return ClassicalChain(generator=Q, stationary=pi, beta=1.0)


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
        # the subset table of the exact oracle
        idx = np.arange(2**m, dtype=np.uint32)
        shifted = ((idx[:, None] >> np.arange(m)[None, :]) & 1).astype(float)
        masks = subset_masks(m, 0, 2**m)
        assert masks.dtype == shifted.dtype
        assert np.array_equal(masks, shifted)
        assert np.array_equal(subset_masks(m, 1, 2**m - 1), shifted[1:-1])

    @settings(max_examples=100, deadline=None)
    @given(st.integers(2, 12), st.floats(0.0, 1.0), st.integers(0, 2**32 - 1))
    def test_sweep_bounds_on_random_chains(self, m, density, seed):
        chain = random_reversible_chain(m, seed, density)
        phi, members = bottleneck_ratio(chain)
        exact, _ = bottleneck_ratio_whole_table(chain)
        gap = classical_gap(chain)
        q_max = -np.diag(chain.generator).min()
        assert phi >= exact * (1 - 1e-12)
        assert gap <= 2 * phi * (1 + 1e-12)
        # Lawler and Sokal for the sweep cut; the largest ratio seen is about 0.5
        assert phi**2 <= 2 * q_max * gap * (1 + 1e-12)
        # phi is the ratio of the reported side, which carries at most half the mass
        inside = np.isin(np.arange(m), members)
        mass = chain.stationary[inside].sum()
        cut = (chain.stationary[:, None] * chain.generator)[np.ix_(inside, ~inside)].sum()
        assert mass <= 0.5 + 1e-12
        assert phi == pytest.approx(cut / mass, rel=1e-12)

    def test_needs_two_states(self):
        chain = ClassicalChain(generator=np.zeros((1, 1)), stationary=np.ones(1), beta=1.0)
        with pytest.raises(ValueError, match="at least 2 states"):
            bottleneck_ratio(chain)

    @pytest.mark.parametrize("J, phi, members", [
        (2.0, 0.014084064847293045, (0, 1, 2, 3, 8, 9, 10, 11)),
        (3.0, 0.0019177480674048837, (0, 1, 2, 3, 4, 5, 6, 7)),
        (4.0, 0.0002597543413836445, (4, 5, 6, 7, 12, 13, 14, 15)),
    ])
    def test_exact_ring_minimizer_pinned(self, J, phi, members):
        # the exact Cheeger constant of the oracle, which the sweep cut bounds
        chain = glauber_generator(ising_fn(J), 4, 1.0)
        assert bottleneck_ratio_whole_table(chain) == (phi, members)
        assert phi <= bottleneck_ratio(chain)[0] <= 1.01 * phi

    @pytest.mark.parametrize("J, phi, members", [
        (2.0, 0.01418394867374894, (0, 1, 2, 3)),
        (3.0, 0.0019195887111753897, (0, 1, 2, 3)),
        (4.0, 0.00025978808192472574, (0, 1, 2, 3)),
    ])
    def test_sweep_ring_cut_pinned(self, J, phi, members):
        chain = glauber_generator(ising_fn(J), 4, 1.0)
        got, side = bottleneck_ratio(chain)
        assert got == pytest.approx(phi, rel=1e-12)
        # eigh fixes the slow mode only up to sign: the side is known up to
        # the global spin flip x -> 15 - x
        assert min(side, tuple(sorted(15 - x for x in side))) == members

    def test_two_state_closed_form(self):
        p, q = 0.3, 0.7
        Q = np.array([[-p, p], [q, -q]])
        pi = np.array([q, p]) / (p + q)
        chain = ClassicalChain(generator=Q, stationary=pi, beta=1.0)
        phi, members = bottleneck_ratio(chain)
        # the smaller-pi side is state 1 (weight p/(p+q)); its exit rate is q
        assert members == (1,)
        assert phi == pytest.approx(q)

    def test_exact_slope_in_window(self):
        beta = 1.0
        sweep, exact = [], []
        Js = np.arange(1.0, 6.0)
        for J in Js:
            chain = glauber_generator(ising_fn(J), 4, beta)
            sweep.append(bottleneck_ratio(chain)[0])
            exact.append(bottleneck_ratio_whole_table(chain)[0])
        for phis in (sweep, exact):
            slope = np.polyfit(Js, np.log(phis), 1)[0]
            assert -2.5 * beta <= slope <= -1.5 * beta

    def test_exponential_bottleneck_law(self):
        beta = 1.0
        prev = None
        for J in (2.0, 3.0, 4.0):
            chain = glauber_generator(ising_fn(J), 4, beta)
            phi, _ = bottleneck_ratio(chain)
            if prev is not None:
                assert phi / prev <= np.exp(-beta) + 1e-12
            prev = phi

    def test_low_temperature_cut_matches_mpmath(self):
        # n = 3, beta = 8, J = 5: a cut's out-flow taken by subtraction read 0.0
        n, beta, J = 3, 8.0, 5.0
        chain = glauber_generator(ising_fn(J), n, beta)
        phi, members = bottleneck_ratio(chain)
        E = classical_defected_ising_energy(spin_table(n), J)
        m = 2**n
        with mpmath.workdps(60):
            w = [mpmath.exp(-beta * mpmath.mpf(e - E.min())) for e in E]
            pi = [x / mpmath.fsum(w) for x in w]
            Q = mpmath.zeros(m, m)
            for x in range(m):
                for s in range(n):
                    y = x ^ (1 << s)
                    Q[x, y] = min(mpmath.mpf(1), mpmath.exp(-beta * mpmath.mpf(E[y] - E[x])))
                Q[x, x] = -mpmath.fsum(Q[x, y] for y in range(m) if y != x)
            out = [y for y in range(m) if y not in members]
            mass = mpmath.fsum(pi[x] for x in members)
            cut = mpmath.fsum(pi[x] * Q[x, y] for x in members for y in out)
            ref = cut / min(mass, 1 - mass)
            sym = mpmath.matrix(m, m)
            for x in range(m):
                for y in range(m):
                    sym[x, y] = -mpmath.sqrt(pi[x] / pi[y]) * Q[x, y]
            gap = sorted(mpmath.eigsy(sym, eigvals_only=True))[1]
        assert phi == pytest.approx(float(ref), rel=1e-12)
        assert phi >= float(gap) / 2
        assert 8.12e-42 < phi < 8.13e-42


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
            phi, _ = bottleneck_ratio(chain)
            assert gap <= 2 * phi + 1e-12

    def test_positive_for_irreducible(self):
        chain = glauber_generator(ising_fn(2.0), 4, 1.0)
        assert classical_gap(chain) > 0
