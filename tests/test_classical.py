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
from qrex.harness import run_scenario, validate_config
from qrex.lindblad import Triplets
from qrex.spectral import UnresolvedGapError

from oracles import (
    bottleneck_ratio_whole_table,
    classical_gap_dense,
    classical_re_generator_dense,
    dense_generator,
    glauber_generator_dense,
    subset_masks,
)

EPS = np.finfo(float).eps


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
    return ClassicalChain(rates=Triplets.of(W / pi[:, None]), stationary=pi)


def random_flip_invariant_chain(h, seed, density):
    """Reversible chain on 2h states whose flows W and law pi are exactly invariant under
    x -> 2h - 1 - x: each is a random draw plus its own flip, the sum commuting exactly.

    Flows span one decade on a path through every state plus random pairs, so the
    gap stays well above the eigensolver's absolute resolution.
    """
    rng = np.random.default_rng(seed)
    m = 2 * h
    A = 10.0 ** rng.uniform(-1.0, 0.0, size=(m, m)) * (rng.random((m, m)) < density)
    A[np.arange(m - 1), np.arange(1, m)] = 10.0 ** rng.uniform(-1.0, 0.0, size=m - 1)
    A = np.triu(A, 1)
    A = A + A.T
    W = A + A[::-1, ::-1]
    p = 10.0 ** rng.uniform(-1.0, 0.0, size=m)
    p = p + p[::-1]
    pi = p / p.sum()
    return ClassicalChain(rates=Triplets.of(W / pi[:, None]), stationary=pi)


def eigvalsh_sides(monkeypatch):
    """The sides of the matrices ``np.linalg.eigvalsh`` receives from here on."""
    sides, eigvalsh = [], np.linalg.eigvalsh
    monkeypatch.setattr(np.linalg, "eigvalsh", lambda a: sides.append(a.shape[0]) or eigvalsh(a))
    return sides


def mp_symmetric_gap(pi, rates):
    """Second-smallest eigenvalue of the pi-symmetrized -Q in the working precision of
    mpmath; ``rates`` maps each state x to its {y: q_xy}."""
    m = len(pi)
    S = mpmath.zeros(m, m)
    for x in range(m):
        for y, q in rates[x].items():
            S[x, y] = -mpmath.sqrt(pi[x] / pi[y]) * q
        S[x, x] = mpmath.fsum(rates[x].values())
    return sorted(mpmath.eigsy(S, eigvals_only=True))[1]


def mp_metropolis_gap(F, moves):
    """60-digit gap of the Metropolis chain on the table F (beta times the energy, as
    Python numbers) whose state x moves to each state of ``moves(x)``."""
    with mpmath.workdps(60):
        F = [mpmath.mpf(f) for f in F]
        w = [mpmath.exp(-(f - min(F))) for f in F]
        rates = [{y: min(mpmath.mpf(1), mpmath.exp(-(F[y] - F[x]))) for y in moves(x)}
                 for x in range(len(F))]
        return mp_symmetric_gap([v / mpmath.fsum(w) for v in w], rates)


def mp_single_gap(n, beta, J):
    E = classical_defected_ising_energy(spin_table(n), J)
    with mpmath.workdps(60):
        F = [beta * mpmath.mpf(e) for e in E]
    return mp_metropolis_gap(F, lambda x: [x ^ (1 << s) for s in range(n)])


def mp_replica_gap(n, beta1, beta2, J):
    """The replica chain's moves, flips of either replica and the swap, are Metropolis
    moves on beta1 H(x1) + beta2 H(x2) at state x1 2^n + x2."""
    E, m = classical_defected_ising_energy(spin_table(n), J), 2**n
    with mpmath.workdps(60):
        F = [beta1 * mpmath.mpf(E[s // m]) + beta2 * mpmath.mpf(E[s % m]) for s in range(m * m)]
    return mp_metropolis_gap(F, lambda s: [s ^ (1 << k) for k in range(2 * n)]
                             + ([s % m * m + s // m] if s // m != s % m else []))


def mp_glauber_chain(n, beta, J):
    """Stationary law and generator of ``glauber_generator`` in 60-digit mpmath."""
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
    return pi, Q


def mp_cut_ratio(pi, Q, members):
    """Out-flow of the set ``members`` over the smaller of its mass and its complement's."""
    out = [y for y in range(len(pi)) if y not in members]
    mass = mpmath.fsum(pi[x] for x in members)
    cut = mpmath.fsum(pi[x] * Q[x, y] for x in members for y in out)
    return cut / min(mass, 1 - mass)


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
        assert np.allclose(dense_generator(chain), np.array([[-1.0, 1.0], [1.0, -1.0]]))

    def test_reversibility_residual(self):
        chain = glauber_generator(ising_fn(3.0), 4, 1.0)
        flow = chain.stationary[:, None] * dense_generator(chain)
        assert np.abs(flow - flow.T).max() < 1e-12
        assert chain.reversibility == np.abs(flow - flow.T).max()

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
            assert dense_generator(chain)[0, target] == pytest.approx(np.exp(-beta * dE))
            rates[J] = dense_generator(chain)[0, target]
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
        q_max = -np.diag(dense_generator(chain)).min()
        assert phi >= exact * (1 - 1e-12)
        assert gap <= 2 * phi * (1 + 1e-12)
        # Lawler and Sokal for the sweep cut; the largest ratio seen is about 0.5
        assert phi**2 <= 2 * q_max * gap * (1 + 1e-12)
        # phi is the ratio of the reported side, which carries at most half the mass
        inside = np.isin(np.arange(m), members)
        mass = chain.stationary[inside].sum()
        cut = (chain.stationary[:, None] * dense_generator(chain))[np.ix_(inside, ~inside)].sum()
        assert mass <= 0.5 + 1e-12
        assert phi == pytest.approx(cut / mass, rel=1e-12)

    def test_needs_two_states(self):
        chain = ClassicalChain(rates=Triplets.of(np.zeros((1, 1))), stationary=np.ones(1))
        with pytest.raises(ValueError, match="at least 2 states"):
            bottleneck_ratio(chain)

    @pytest.mark.parametrize("J, phi, members", [
        (2.0, 0.014084064847293062, (0, 1, 2, 3, 8, 9, 10, 11)),
        (3.0, 0.0019177480674048555, (4, 5, 6, 7, 12, 13, 14, 15)),
        (4.0, 0.00025975434138366586, (0, 1, 2, 3, 8, 9, 10, 11)),
    ])
    def test_exact_ring_minimizer_pinned(self, J, phi, members):
        # the exact Cheeger constant of the oracle, which the sweep cut bounds;
        # at J = 3 and 4 its spin-flip twin x -> 15 - x has the same ratio up to rounding
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
        pi = np.array([q, p]) / (p + q)
        chain = ClassicalChain(rates=Triplets.of([[0.0, p], [q, 0.0]]), stationary=pi)
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
        phi, members = bottleneck_ratio(glauber_generator(ising_fn(J), n, beta))
        pi, Q = mp_glauber_chain(n, beta, J)
        with mpmath.workdps(60):
            ref = mp_cut_ratio(pi, Q, members)
            m = 2**n
            sym = mpmath.matrix(m, m)
            for x in range(m):
                for y in range(m):
                    sym[x, y] = -mpmath.sqrt(pi[x] / pi[y]) * Q[x, y]
            gap = sorted(mpmath.eigsy(sym, eigvals_only=True))[1]
        assert phi == pytest.approx(float(ref), rel=1e-12)
        assert phi >= float(gap) / 2
        assert 8.12e-42 < phi < 8.13e-42

    @pytest.mark.parametrize("n, beta, J", [(3, 8.0, 5.0)] + [
        (n, 4.0, J) for n in (3, 4) for J in (1.0, 2.0, 3.0, 4.0, 5.0)])
    def test_exact_oracle_matches_mpmath(self, n, beta, J):
        # at low temperature a cut's out-flow is far below the row sums it
        # would be the difference of, so only a sum of nonnegative flows resolves it
        phi, members = bottleneck_ratio_whole_table(glauber_generator(ising_fn(J), n, beta))
        pi, Q = mp_glauber_chain(n, beta, J)
        with mpmath.workdps(60):
            ref = float(mp_cut_ratio(pi, Q, members))
        assert phi == pytest.approx(ref, rel=1e-15, abs=0)


class TestReplicaExchange:
    def test_swap_rate_for_equal_energy_pair(self):
        chain = classical_re_generator(ising_fn(2.0), 3, 1.0, 0.2)
        states = spin_table(3)
        E = classical_defected_ising_energy(states, 2.0)
        m = 8
        # all-up and all-down have equal energy; swap rate must be exactly 1
        x1, x2 = 0, 7
        assert E[x1] == pytest.approx(E[x2])
        assert dense_generator(chain)[x1 * m + x2, x2 * m + x1] == pytest.approx(1.0)

    def test_stationarity_residual(self):
        chain = classical_re_generator(ising_fn(2.0), 3, 1.0, 0.2)
        resid = np.abs(chain.stationary @ dense_generator(chain)).max()
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
        pi = np.array([q, p]) / (p + q)
        chain = ClassicalChain(rates=Triplets.of([[0.0, p], [q, 0.0]]), stationary=pi)
        assert classical_gap(chain) == pytest.approx(p + q)

    def test_cheeger_upper_bound(self):
        for J in (1.0, 3.0):
            chain = glauber_generator(ising_fn(J), 4, 1.0)
            gap = classical_gap(chain)
            phi, _ = bottleneck_ratio(chain)
            assert gap <= 2 * phi + 1e-12

    @pytest.mark.parametrize("n", [3, 4, 5])
    def test_gap_below_the_resolvable_floor_is_refused(self, n):
        # at beta = 4, J = 5 the whole chain's eigvalsh returned noise (3.93e-16 at n = 3,
        # where the exact Cheeger constant bounds the gap by 1.14e-20); the two flip
        # sectors read 5.744e-21 against 5.70e-21 in 60 digits, still below the floor
        with pytest.raises(UnresolvedGapError, match="below the resolvable floor"):
            classical_gap(glauber_generator(ising_fn(5.0), n, 4.0))

    @pytest.mark.parametrize("n", [3, 4, 5])
    @pytest.mark.parametrize("beta", [1.0, 2.0])
    def test_resolved_gaps_are_unchanged(self, n, beta):
        # both routes lie within the eigensolver's resolution eps ||S|| of the 60-digit
        # gap; the whole chain's eigvalsh is the noisier (up to 0.29 eps ||S||, 1.7e-6
        # relative at n = 3, beta = 2, against 0.001 eps ||S|| for the two sectors)
        chain = glauber_generator(ising_fn(5.0), n, beta)
        dense, norm = classical_gap_dense(*glauber_generator_dense(ising_fn(5.0), n, beta))
        exact = float(mp_single_gap(n, beta, 5.0))
        assert abs(classical_gap(chain) - exact) <= EPS * norm
        assert abs(dense - exact) <= EPS * norm

    def test_smallest_resolved_ring_gap(self):
        # the n = 3 ring at beta = 2, J = 5, 2.6e3 times the floor
        assert classical_gap(glauber_generator(ising_fn(5.0), 3, 2.0)) == pytest.approx(
            1.510e-10, rel=1e-3)

    def test_positive_for_irreducible(self):
        chain = glauber_generator(ising_fn(2.0), 4, 1.0)
        assert classical_gap(chain) > 0


class TestChainChecks:
    """Each check of ``ClassicalChain`` reads the stored rates and raises its own message."""

    PI = np.array([0.5, 0.3, 0.2])

    def chain(self, Q, pi=None):
        return ClassicalChain(rates=Triplets.of(Q), stationary=self.PI if pi is None else pi)

    def reversible(self):
        W = np.array([[0.0, 0.3, 0.1], [0.3, 0.0, 0.2], [0.1, 0.2, 0.0]])  # symmetric flows
        return W / self.PI[:, None]

    def test_reversible_chain_accepted(self):
        chain = self.chain(self.reversible())
        assert chain.reversibility <= 1e-16
        assert np.abs(self.PI @ dense_generator(chain)).max() < 1e-15

    def test_negative_rate_refused(self):
        Q = self.reversible()
        Q[0, 1] = -1e-13
        with pytest.raises(ValueError, match="off-diagonal rates must be non-negative"):
            self.chain(Q)

    def test_rate_at_the_tolerance_is_kept(self):
        Q = np.array([[0.0, -1e-14], [0.0, 0.0]])  # a rounding-level negative rate, no flow
        chain = ClassicalChain(rates=Triplets.of(Q), stationary=np.array([0.0, 1.0]))
        assert chain.reversibility == 0.0

    def test_law_that_is_not_stationary_refused(self):
        pi = np.array([0.4, 0.4, 0.2])  # Q is reversible for PI, not for this law
        with pytest.raises(ValueError, match=r"stationary law fails pi Q = 0"):
            self.chain(self.reversible(), pi)

    def test_stationary_but_not_reversible_refused(self):
        # a cycle 0 -> 1 -> 2 -> 0 at unit rate keeps the uniform law but carries a net flow
        Q = np.array([[0.0, 1.0, 0.0], [0.0, 0.0, 1.0], [1.0, 0.0, 0.0]])
        with pytest.raises(ValueError, match="chain is not reversible"):
            self.chain(Q, np.full(3, 1.0 / 3.0))

    def test_reversibility_tolerance_scales_with_the_flows(self):
        # a flow c circulating 0 -> 1 -> 2 -> 0 keeps PI stationary and is all the skew:
        # refused on flows of order 0.1, kept on flows 1e4 times larger
        W = self.reversible() * self.PI[:, None]
        C = 5e-12 * np.roll(np.eye(3), 1, axis=1)
        with pytest.raises(ValueError, match="chain is not reversible"):
            self.chain((W + C) / self.PI[:, None])
        big = self.chain((1e4 * W + C) / self.PI[:, None])
        assert big.reversibility == pytest.approx(5e-12, rel=1e-3)

    @pytest.mark.parametrize("n", [3, 4])
    def test_builders_match_the_dense_oracles(self, n):
        chain = glauber_generator(ising_fn(3.0), n, 1.3)
        Q, pi = glauber_generator_dense(ising_fn(3.0), n, 1.3)
        assert np.allclose(dense_generator(chain), Q, rtol=1e-14, atol=0)
        assert np.allclose(chain.stationary, pi, rtol=1e-14, atol=0)
        chain = classical_re_generator(ising_fn(3.0), n, 1.3, 0.2)
        Q, pi = classical_re_generator_dense(ising_fn(3.0), n, 1.3, 0.2)
        assert np.allclose(dense_generator(chain), Q, rtol=1e-14, atol=0)
        assert np.allclose(chain.stationary, pi, rtol=1e-14, atol=0)

    @pytest.mark.parametrize("n", [3, 4, 5, 6])
    def test_replica_rows_hold_at_most_2n_plus_1_rates(self, n):
        rates = classical_re_generator(ising_fn(2.0), n, 1.0, 0.2).rates
        per_row = np.bincount(rates.row, minlength=rates.side)
        assert per_row.max() == 2 * n + 1 and per_row.min() == 2 * n
        assert rates.nnz == rates.side * 2 * n + rates.side - 2**n  # no swap on x1 == x2


class TestSectorRoute:
    """classical_gap solves the even and odd sectors of the global spin flip apart."""

    @settings(max_examples=60, deadline=None)
    @given(st.integers(1, 12), st.floats(0.0, 1.0), st.integers(0, 2**32 - 1))
    def test_sectors_match_the_whole_chain(self, h, density, seed):
        chain = random_flip_invariant_chain(h, seed, density)
        with pytest.MonkeyPatch.context() as mp:
            sides = eigvalsh_sides(mp)
            gap = classical_gap(chain)
        assert sides == [h, h]
        whole, _ = classical_gap_dense(dense_generator(chain), chain.stationary)
        assert gap == pytest.approx(whole, rel=1e-12)

    @pytest.mark.parametrize("n", [3, 4, 5])
    def test_flip_invariant_builders_split(self, n, monkeypatch):
        sides = eigvalsh_sides(monkeypatch)
        classical_gap(glauber_generator(ising_fn(3.0), n, 1.0))
        classical_gap(classical_re_generator(ising_fn(3.0), n, 1.0, 0.2))
        assert sides == [2**n // 2] * 2 + [4**n // 2] * 2

    @pytest.mark.parametrize("n", [3, 4])
    def test_a_field_takes_the_whole_route(self, n, monkeypatch):
        # a field h sum_i z_i breaks the flip; the gaps still match the dense builders
        field = lambda z: classical_defected_ising_energy(z, 3.0) + 0.3 * z.sum(axis=1)
        sides = eigvalsh_sides(monkeypatch)
        single = classical_gap(glauber_generator(field, n, 1.0))
        replica = classical_gap(classical_re_generator(field, n, 1.0, 0.2))
        assert sides == [2**n, 4**n]
        monkeypatch.undo()
        dense = classical_gap_dense(*glauber_generator_dense(field, n, 1.0))[0]
        assert single == pytest.approx(dense, rel=1e-12)
        dense = classical_gap_dense(*classical_re_generator_dense(field, n, 1.0, 0.2))[0]
        assert replica == pytest.approx(dense, rel=1e-12)

    def test_a_rounding_level_asymmetry_takes_the_whole_route(self, monkeypatch):
        # the split needs exact invariance: one rate pair moved by one ulp is solved whole
        chain = random_flip_invariant_chain(4, 7, 0.5)
        Q = chain.rates.toarray()
        Q[0, 1] = np.nextafter(Q[0, 1], 1.0)
        Q[1, 0] = Q[0, 1] * chain.stationary[0] / chain.stationary[1]
        sides = eigvalsh_sides(monkeypatch)
        classical_gap(ClassicalChain(rates=Triplets.of(Q), stationary=chain.stationary))
        assert sides == [8]

    @pytest.mark.parametrize("J", [1.0, 5.0])
    def test_n3_replica_gap_matches_mpmath(self, J):
        gap = classical_gap(classical_re_generator(ising_fn(J), 3, 1.0, 0.2))
        assert gap == pytest.approx(float(mp_replica_gap(3, 1.0, 0.2, J)), rel=1e-13)

    @pytest.mark.parametrize("n", [3, 4, 5, 6])
    def test_classical_records_match_the_dense_builder(self, n):
        # gap_re and phi_star within 1e-12 of the dense builder.  The dense single-chain
        # eigvalsh is itself 4.5e-12 to 5.8e-12 off the 60-digit gap at J = 5 (n = 3..6),
        # so gap_single is held to the 60-digit gap and to the dense one within eps ||S||
        config = validate_config({"scenario": "classical", "system": {"model": "defected_ising",
                                  "n": n}, "sweep": {"param": "J", "values": [1.0, 5.0]}})
        for rec in run_scenario(config).records:
            J = rec["J"]
            assert rec["status"] == "ok"
            single = classical_gap_dense(*glauber_generator_dense(ising_fn(J), n, 1.0))
            assert abs(rec["gap_single"] - single[0]) <= EPS * single[1]
            assert rec["gap_single"] == pytest.approx(float(mp_single_gap(n, 1.0, J)), rel=1e-12)
            Q, pi = glauber_generator_dense(ising_fn(J), n, 1.0)
            phi = bottleneck_ratio(ClassicalChain(Triplets.of(Q - np.diag(np.diag(Q))), pi))
            assert rec["phi_star"] == pytest.approx(phi[0], rel=1e-12)
            replica = classical_gap_dense(*classical_re_generator_dense(ising_fn(J), n, 1.0, 0.2))
            assert rec["gap_re"] == pytest.approx(replica[0], rel=1e-12)
