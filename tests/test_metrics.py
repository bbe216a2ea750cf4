"""Divergences and expected distortion."""

import math
import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from numpy.testing import assert_allclose

from cdptradeoff import (
    Alphabet,
    Channel,
    DimensionError,
    DistortionMatrix,
    DivergenceKind,
    InvalidDistributionError,
    MixtureSource,
    ProbVector,
    divergence,
    expected_distortion,
)

A2 = Alphabet(2)
A3 = Alphabet(3)

ALL_KINDS = [
    DivergenceKind.total_variation(),
    DivergenceKind.kullback_leibler(),
    DivergenceKind.hellinger(),
    DivergenceKind.renyi(0.5),
    DivergenceKind.renyi(2.0),
]


def pv(*mass):
    return ProbVector(Alphabet(len(mass)), np.array(mass, dtype=float))


def mass_strategy(n):
    return (
        st.lists(st.floats(min_value=1e-3, max_value=1.0), min_size=n, max_size=n)
        .map(np.asarray)
        .map(lambda v: v / v.sum())
    )


class TestDivergenceKind:
    def test_named_constructors(self):
        assert DivergenceKind.total_variation().name == "total_variation"
        assert DivergenceKind.renyi(2.0).alpha == 2.0

    def test_renyi_requires_valid_alpha(self):
        with pytest.raises(InvalidDistributionError):
            DivergenceKind.renyi(1.0)
        with pytest.raises(InvalidDistributionError):
            DivergenceKind.renyi(-0.5)
        with pytest.raises(InvalidDistributionError):
            DivergenceKind("renyi")

    @pytest.mark.parametrize("alpha", [math.inf, -math.inf, math.nan])
    def test_renyi_rejects_an_order_that_is_not_finite(self, alpha):
        # At alpha = inf every divergence read NaN, and solves returned
        # Optimal cells with a NaN achieved perception.
        with pytest.raises(InvalidDistributionError, match="finite"):
            DivergenceKind.renyi(alpha)

    def test_alpha_rejected_elsewhere(self):
        with pytest.raises(InvalidDistributionError):
            DivergenceKind("hellinger", alpha=2.0)

    def test_unknown_kind(self):
        with pytest.raises(InvalidDistributionError):
            DivergenceKind("wasserstein")


class TestDivergenceValues:
    def test_total_variation_hand_values(self):
        # Half-sum convention: disjoint supports give exactly 1.
        assert divergence(DivergenceKind.total_variation(), pv(1, 0), pv(0, 1)) == 1.0
        assert divergence(DivergenceKind.total_variation(), pv(0.5, 0.5), pv(1, 0)) == 0.5

    def test_kullback_leibler_hand_value(self):
        # 0.5 ln(0.5/0.25) + 0.5 ln(0.5/0.75), in nats.
        got = divergence(DivergenceKind.kullback_leibler(), pv(0.5, 0.5), pv(0.25, 0.75))
        assert got == pytest.approx(0.5 * math.log(4.0 / 3.0), abs=1e-15)

    def test_kullback_leibler_support_mismatch_is_inf(self):
        assert divergence(DivergenceKind.kullback_leibler(), pv(0.5, 0.5), pv(1, 0)) == math.inf
        # The other direction is finite: q may put mass where p has none.
        assert math.isfinite(divergence(DivergenceKind.kullback_leibler(), pv(1, 0), pv(0.5, 0.5)))

    def test_hellinger_is_squared_and_bounded(self):
        # Squared Hellinger distance of disjoint supports is 1.
        assert divergence(DivergenceKind.hellinger(), pv(1, 0), pv(0, 1)) == pytest.approx(1.0)
        got = divergence(DivergenceKind.hellinger(), pv(0.5, 0.5), pv(0.125, 0.875))
        want = 0.5 * ((math.sqrt(0.5) - math.sqrt(0.125)) ** 2 + (math.sqrt(0.5) - math.sqrt(0.875)) ** 2)
        assert got == pytest.approx(want, abs=1e-15)

    def test_renyi_two_hand_value(self):
        # alpha=2: ln sum p^2/q.
        got = divergence(DivergenceKind.renyi(2.0), pv(0.5, 0.5), pv(0.25, 0.75))
        want = math.log(0.25 / 0.25 + 0.25 / 0.75)
        assert got == pytest.approx(want, abs=1e-15)

    def test_renyi_above_one_support_mismatch_is_inf(self):
        assert divergence(DivergenceKind.renyi(2.0), pv(0.5, 0.5), pv(1, 0)) == math.inf

    @given(p=mass_strategy(4), q=mass_strategy(4))
    @settings(max_examples=60, deadline=None)
    def test_renyi_rises_with_order_to_the_max_log_ratio(self, p, q):
        # D_alpha is nondecreasing in alpha with limit log max p/q; at high
        # orders (p/q)^alpha overflows, so the sum is taken in the log domain.
        a = Alphabet(4)
        orders = (0.1, 0.5, 0.9, 1.1, 2.0, 5.0, 50.0, 1000.0, 5000.0, 1e6)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            values = [divergence(DivergenceKind.renyi(alpha), ProbVector(a, p), ProbVector(a, q)) for alpha in orders]
        assert all(math.isfinite(v) for v in values)
        assert all(hi >= lo - 1e-12 for lo, hi in zip(values, values[1:]))
        assert values[-1] <= math.log(float(np.max(p / q))) + 1e-12

    def test_alphabet_mismatch_raises(self):
        with pytest.raises(DimensionError):
            divergence(DivergenceKind.total_variation(), pv(1, 0), pv(1, 0, 0))

    @pytest.mark.parametrize("kind", ALL_KINDS, ids=lambda k: k.name + (f"_{k.alpha}" if k.alpha else ""))
    def test_zero_iff_equal(self, kind):
        p = pv(0.3, 0.3, 0.4)
        assert divergence(kind, p, p) == pytest.approx(0.0, abs=1e-15)
        q = pv(0.31, 0.29, 0.4)
        assert divergence(kind, p, q) > 0.0

    @pytest.mark.parametrize("kind", ALL_KINDS, ids=lambda k: k.name + (f"_{k.alpha}" if k.alpha else ""))
    @given(p=mass_strategy(4), q=mass_strategy(4))
    @settings(max_examples=40, deadline=None)
    def test_nonnegative(self, kind, p, q):
        a = Alphabet(4)
        assert divergence(kind, ProbVector(a, p), ProbVector(a, q)) >= 0.0

    @pytest.mark.parametrize("kind", ALL_KINDS, ids=lambda k: k.name + (f"_{k.alpha}" if k.alpha else ""))
    @given(p=mass_strategy(3), q1=mass_strategy(3), q2=mass_strategy(3), lam=st.floats(min_value=0.0, max_value=1.0))
    @settings(max_examples=40, deadline=None)
    def test_convex_in_second_argument(self, kind, p, q1, q2, lam):
        a = Alphabet(3)
        pp = ProbVector(a, p)
        mid = ProbVector(a, lam * q1 + (1.0 - lam) * q2)
        lhs = divergence(kind, pp, mid)
        rhs = lam * divergence(kind, pp, ProbVector(a, q1)) + (1.0 - lam) * divergence(kind, pp, ProbVector(a, q2))
        assert lhs <= rhs + 1e-10

    def test_total_variation_symmetric_kl_not(self):
        p, q = pv(0.7, 0.3), pv(0.4, 0.6)
        tv = DivergenceKind.total_variation()
        kl = DivergenceKind.kullback_leibler()
        assert divergence(tv, p, q) == divergence(tv, q, p)
        assert divergence(kl, p, q) != pytest.approx(divergence(kl, q, p))


class TestDistortionMatrix:
    def test_hamming(self):
        d = DistortionMatrix.hamming(A3)
        assert_allclose(d.cost, 1.0 - np.eye(3))

    def test_hamming_needs_equal_sizes(self):
        with pytest.raises(DimensionError):
            DistortionMatrix.hamming(A3, A2)

    def test_rejects_negative_costs(self):
        with pytest.raises(InvalidDistributionError, match="distortion matrix: negative entries"):
            DistortionMatrix(A2, A2, np.array([[0.0, -1.0], [1.0, 0.0]]))

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    def test_non_finite_costs_are_named_before_negative_ones(self, bad):
        # A NaN or infinite entry is reported as such wherever it sits,
        # even when another entry is negative.
        for cost in ([[bad, -1.0], [1.0, 0.0]], [[0.0, -1.0], [1.0, bad]], [[0.0, 1.0], [bad, 0.0]]):
            with pytest.raises(InvalidDistributionError, match="distortion matrix: non-finite entries"):
                DistortionMatrix(A2, A2, np.array(cost))

    def test_cost_is_a_read_only_copy(self):
        cost = np.array([[0.0, -0.0], [1.0, 0.0]])
        d = DistortionMatrix(A2, A2, cost)
        assert not np.shares_memory(d.cost, cost)
        assert not d.cost.flags.writeable
        assert d.cost.tobytes() == cost.tobytes()

    def test_rejects_wrong_shape(self):
        with pytest.raises(DimensionError):
            DistortionMatrix(A2, A3, np.zeros((2, 2)))

    def test_general_rectangular_costs(self):
        d = DistortionMatrix(A2, A3, np.array([[0.0, 1.0, 2.0], [2.0, 1.0, 0.0]]))
        assert d.cost.shape == (2, 3)


class TestExpectedDistortion:
    def test_identity_pipeline_is_free(self):
        src = MixtureSource.from_masses(0.5, 0.5, [0.8, 0.2], [0.2, 0.8])
        ident = Channel.identity(src.alphabet)
        delta = DistortionMatrix.hamming(src.alphabet)
        assert expected_distortion(src, ident, ident, delta) == 0.0

    def test_bsc_with_identity_restore(self):
        # Hamming distortion of flip-0.1 noise with no correction is the flip rate.
        src = MixtureSource.from_masses(0.5, 0.5, [0.8, 0.2], [0.2, 0.8])
        delta = DistortionMatrix.hamming(src.alphabet)
        got = expected_distortion(src, Channel.bsc(0.1), Channel.identity(src.alphabet), delta)
        assert got == pytest.approx(0.1, abs=1e-15)

    def test_hand_computed_triple_sum(self):
        src = MixtureSource.from_masses(0.4, 0.6, [1.0, 0.0], [0.0, 1.0])
        degrade = Channel.from_rows([[0.9, 0.1], [0.2, 0.8]])
        restore = Channel.from_rows([[0.6, 0.4], [0.3, 0.7]])
        delta = DistortionMatrix.hamming(src.alphabet)
        px = src.marginal.mass
        want = sum(
            px[x] * degrade.matrix[x, y] * restore.matrix[y, z] * (x != z)
            for x in range(2)
            for y in range(2)
            for z in range(2)
        )
        got = expected_distortion(src, degrade, restore, delta)
        assert got == pytest.approx(want, abs=1e-15)

    def test_linear_in_restoration_kernel(self, rng):
        src = MixtureSource.from_masses(0.5, 0.5, [0.7, 0.2, 0.1], [0.1, 0.3, 0.6])
        degrade = Channel.from_rows([rng.dirichlet(np.ones(3)) for _ in range(3)])
        delta = DistortionMatrix.hamming(src.alphabet)
        for _ in range(25):
            k1 = Channel.from_rows([rng.dirichlet(np.ones(3)) for _ in range(3)])
            k2 = Channel.from_rows([rng.dirichlet(np.ones(3)) for _ in range(3)])
            lam = float(rng.uniform())
            blend = Channel(degrade.output, delta.target, lam * k1.matrix + (1.0 - lam) * k2.matrix)
            lhs = expected_distortion(src, degrade, blend, delta)
            rhs = lam * expected_distortion(src, degrade, k1, delta) + (1.0 - lam) * expected_distortion(
                src, degrade, k2, delta
            )
            assert lhs == pytest.approx(rhs, abs=1e-12)

    def test_alphabet_mismatch_raises(self):
        src = MixtureSource.from_masses(0.5, 0.5, [0.8, 0.2], [0.2, 0.8])
        delta = DistortionMatrix.hamming(A3)
        with pytest.raises(DimensionError):
            expected_distortion(src, Channel.bsc(0.1), Channel.identity(src.alphabet), delta)
