"""Fixed-classifier error rates, Bayes error, and the data-processing property."""

import re

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from cdptradeoff import (
    Alphabet,
    Channel,
    DecisionRegion,
    DimensionError,
    InvalidDistributionError,
    MixtureSource,
    RegionPartition,
    bayes_error,
    bayes_error_tv_form,
    bayes_region,
    dpi_equality_holds,
    error_rate,
    mix_mixtures,
    push_forward,
    region_partition,
)


def mass_strategy(n):
    return (
        st.lists(st.floats(min_value=1e-3, max_value=1.0), min_size=n, max_size=n)
        .map(np.asarray)
        .map(lambda v: v / v.sum())
    )


def source_strategy(n):
    return st.tuples(st.floats(min_value=0.05, max_value=0.95), mass_strategy(n), mass_strategy(n)).map(
        lambda t: MixtureSource.from_masses(t[0], 1.0 - t[0], t[1], t[2])
    )


@pytest.fixture
def skewed_source():
    return MixtureSource.from_masses(0.5, 0.5, [0.8, 0.2], [0.2, 0.8])


class TestDecisionRegion:
    def test_from_indices_and_members(self):
        r = DecisionRegion.from_indices(Alphabet(4), [1, 3])
        assert r.indices == (1, 3)
        assert list(r.members) == [False, True, False, True]

    def test_repr_names_the_size_and_members(self):
        assert repr(DecisionRegion.from_indices(Alphabet(4), [3, 1])) == "DecisionRegion(size=4, members={1, 3})"

    def test_complement(self):
        r = DecisionRegion.from_indices(Alphabet(3), [0])
        assert r.complement().indices == (1, 2)

    def test_full_and_empty(self):
        a = Alphabet(3)
        assert DecisionRegion.full(a).indices == (0, 1, 2)
        assert DecisionRegion.empty(a).indices == ()

    def test_out_of_range_index(self):
        with pytest.raises(Exception):
            DecisionRegion.from_indices(Alphabet(2), [2])

    @pytest.mark.parametrize(
        "members, named",
        [
            ([np.nan, 0, 1], r"entry 0 is nan"),
            ([0.5, 0, 0], r"entry 0 is 0\.5"),
            ([2, 0, 1], r"entry 0 is 2"),
            (["a", "", "b"], r"entry 0 is 'a'"),
            ([1, 0.0, 3], r"entry 2 is 3"),
        ],
    )
    def test_members_must_be_booleans_or_zero_one(self, members, named):
        # Each of these was once cast to a boolean mask and accepted.
        with pytest.raises(InvalidDistributionError, match=named):
            DecisionRegion(Alphabet(3), members)

    @pytest.mark.parametrize("members", [[True, False, True], [[True, False]]])
    def test_members_must_match_the_alphabet(self, members):
        shape = re.escape(str(np.shape(members)))
        with pytest.raises(DimensionError, match=rf"^region indicator: expected shape \(2,\), got {shape}$"):
            DecisionRegion(Alphabet(2), members)

    def test_zero_one_members_read_as_booleans(self):
        assert DecisionRegion(Alphabet(3), [1, 0, 1.0]).indices == (0, 2)
        assert DecisionRegion(Alphabet(2), [np.True_, False]).indices == (0,)

    @pytest.mark.parametrize("indices", [[True], [0, False], [1.5]])
    def test_indices_must_be_integers(self, indices):
        # True once selected the whole alphabet as a NumPy boolean mask.
        with pytest.raises(DimensionError, match=r"is not an integer"):
            DecisionRegion.from_indices(Alphabet(3), indices)


class TestErrorRate:
    def test_hand_value(self, skewed_source):
        # Region {0}: wrong when class two lands on 0 or class one lands on 1.
        r = DecisionRegion.from_indices(skewed_source.alphabet, [0])
        assert error_rate(skewed_source, r) == pytest.approx(0.5 * 0.2 + 0.5 * 0.2, abs=1e-15)

    def test_degenerate_regions(self, skewed_source):
        assert error_rate(skewed_source, DecisionRegion.full(skewed_source.alphabet)) == pytest.approx(0.5)
        assert error_rate(skewed_source, DecisionRegion.empty(skewed_source.alphabet)) == pytest.approx(0.5)

    def test_alphabet_mismatch(self, skewed_source):
        with pytest.raises(DimensionError):
            error_rate(skewed_source, DecisionRegion.full(Alphabet(3)))

    @given(src=source_strategy(4), lam=st.floats(min_value=0.0, max_value=1.0))
    @settings(max_examples=60, deadline=None)
    def test_linearity_under_source_blending(self, src, lam):
        # The error rate of a fixed region is linear in the class-conditional
        # blend: blending sources blends error rates exactly.
        other = MixtureSource.from_masses(
            src.prior1, src.prior2, np.roll(src.class1.mass, 1), np.roll(src.class2.mass, 1)
        )
        region = DecisionRegion.from_indices(src.alphabet, [0, 2])
        blended = mix_mixtures(src, other, lam)
        expected = lam * error_rate(src, region) + (1.0 - lam) * error_rate(other, region)
        assert error_rate(blended, region) == pytest.approx(expected, abs=1e-12)


class TestBayes:
    def test_bayes_error_hand_value(self, skewed_source):
        assert bayes_error(skewed_source) == pytest.approx(0.2, abs=1e-15)

    def test_bayes_region_hand_value(self, skewed_source):
        assert bayes_region(skewed_source).indices == (0,)

    def test_bayes_region_ties_go_to_class_one(self):
        src = MixtureSource.from_masses(0.5, 0.5, [0.5, 0.5], [0.5, 0.5])
        assert bayes_region(src).indices == (0, 1)

    def test_bayes_region_attains_bayes_error(self, skewed_source):
        r = bayes_region(skewed_source)
        assert error_rate(skewed_source, r) == pytest.approx(bayes_error(skewed_source), abs=1e-15)

    @given(src=source_strategy(5))
    @settings(max_examples=80, deadline=None)
    def test_bayes_error_is_the_minimum(self, src):
        base = bayes_error(src)
        best_region = error_rate(src, bayes_region(src))
        assert best_region == pytest.approx(base, abs=1e-12)
        # No region can beat it; spot-check a handful.
        for idx in ([], [0], [1, 2], [0, 3, 4], list(range(5))):
            assert error_rate(src, DecisionRegion.from_indices(src.alphabet, idx)) >= base - 1e-12

    @given(src=source_strategy(6))
    @settings(max_examples=80, deadline=None)
    def test_closed_forms_agree(self, src):
        assert bayes_error(src) == pytest.approx(bayes_error_tv_form(src), abs=1e-12)

    @given(src=source_strategy(4), lam=st.floats(min_value=0.0, max_value=1.0))
    @settings(max_examples=60, deadline=None)
    def test_bayes_error_concave_under_blending(self, src, lam):
        other = MixtureSource.from_masses(
            src.prior1, src.prior2, np.roll(src.class1.mass, 2), np.roll(src.class2.mass, 2)
        )
        blended = mix_mixtures(src, other, lam)
        floor = lam * bayes_error(src) + (1.0 - lam) * bayes_error(other)
        assert bayes_error(blended) >= floor - 1e-12


class TestRegionPartition:
    def test_strict_sets_and_ties(self):
        src = MixtureSource.from_masses(0.5, 0.5, [0.6, 0.2, 0.2], [0.2, 0.2, 0.6])
        parts = region_partition(src)
        assert parts.plus.indices == (0,)
        assert parts.zero.indices == (1,)
        assert parts.minus.indices == (2,)

    def test_tolerance_widens_tie_set(self):
        src = MixtureSource.from_masses(0.5, 0.5, [0.51, 0.49], [0.49, 0.51])
        strict = region_partition(src)
        assert strict.plus.indices == (0,)
        loose = region_partition(src, tie_tolerance=0.05)
        assert loose.zero.indices == (0, 1)

    def test_parts_must_share_one_alphabet(self):
        a2, a3 = Alphabet(2), Alphabet(3)
        parts = (DecisionRegion.full(a2), DecisionRegion.empty(a3), DecisionRegion.empty(a2))
        with pytest.raises(DimensionError, match="^partition parts must share one alphabet$"):
            RegionPartition(*parts)

    @pytest.mark.parametrize("zero", [[True, False], [False, False]], ids=["overlap", "gap"])
    def test_parts_must_be_disjoint_and_cover(self, zero):
        a2 = Alphabet(2)
        parts = (DecisionRegion(a2, [True, False]), DecisionRegion(a2, [False, False]), DecisionRegion(a2, zero))
        with pytest.raises(InvalidDistributionError, match="^partition parts must be disjoint and cover the alphabet$"):
            RegionPartition(*parts)


class TestDataProcessing:
    def test_bayes_error_never_decreases(self, rng):
        for _ in range(200):
            n = int(rng.integers(2, 6))
            pr = float(rng.uniform(0.1, 0.9))
            src = MixtureSource.from_masses(pr, 1.0 - pr, rng.dirichlet(np.ones(n)), rng.dirichlet(np.ones(n)))
            m = int(rng.integers(2, 6))
            ch = Channel.from_rows([rng.dirichlet(np.ones(m)) for _ in range(n)])
            assert bayes_error(push_forward(src, ch)) >= bayes_error(src) - 1e-12

    def test_permutation_preserves_bayes_error(self, skewed_source):
        ch = Channel.permutation(skewed_source.alphabet, [1, 0])
        out = push_forward(skewed_source, ch)
        assert bayes_error(out) == pytest.approx(bayes_error(skewed_source), abs=1e-15)
        assert dpi_equality_holds(skewed_source, ch)

    def test_merge_within_one_side_preserves_bayes_error(self):
        # Symbols 1 and 2 both sit strictly on the class-two side; merging
        # them loses nothing.
        src = MixtureSource.from_masses(0.5, 0.5, [0.8, 0.1, 0.1], [0.2, 0.3, 0.5])
        ch = Channel.deterministic(src.alphabet, Alphabet(2), [0, 1, 1])
        assert dpi_equality_holds(src, ch)
        assert bayes_error(push_forward(src, ch)) == pytest.approx(bayes_error(src), abs=1e-15)

    def test_equality_holds_with_an_empty_strict_side(self):
        # P1 p1 > P2 p2 at every symbol: the minus side is empty, so no output
        # is fed from both strict sides, whatever the channel.
        src = MixtureSource.from_masses(0.7, 0.3, [0.5, 0.5], [0.2, 0.8])
        parts = region_partition(src)
        assert parts.plus.members.all() and not parts.minus.members.any()
        ch = Channel.from_rows([[0.5, 0.5], [0.3, 0.7]])
        assert dpi_equality_holds(src, ch)
        assert bayes_error(push_forward(src, ch)) == pytest.approx(bayes_error(src), abs=1e-15)

    def test_equality_holds_when_every_symbol_ties(self):
        # Both strict sides are empty; even merging every symbol keeps the error.
        src = MixtureSource.from_masses(0.5, 0.5, [0.3, 0.7], [0.3, 0.7])
        assert region_partition(src).zero.members.all()
        ch = Channel.deterministic(src.alphabet, Alphabet(1), [0, 0])
        assert dpi_equality_holds(src, ch)
        assert bayes_error(push_forward(src, ch)) == bayes_error(src) == 0.5

    def test_bridging_merge_strictly_hurts(self, skewed_source):
        # Collapsing everything to one symbol bridges the two strict sides.
        ch = Channel.deterministic(skewed_source.alphabet, Alphabet(1), [0, 0])
        assert not dpi_equality_holds(skewed_source, ch)
        assert bayes_error(push_forward(skewed_source, ch)) == pytest.approx(0.5)

    def test_equality_predicate_rejects_a_channel_on_another_alphabet(self, skewed_source):
        ch = Channel.identity(Alphabet(3))
        with pytest.raises(DimensionError, match=r"^source alphabet .*size=2.* != channel input .*size=3"):
            dpi_equality_holds(skewed_source, ch)

    def test_equality_predicate_matches_measured_gap(self, rng):
        for _ in range(100):
            src = MixtureSource.from_masses(0.5, 0.5, rng.dirichlet(np.ones(3)), rng.dirichlet(np.ones(3)))
            ch = Channel.from_rows([rng.dirichlet(np.ones(3)) for _ in range(3)])
            if dpi_equality_holds(src, ch):
                gap = bayes_error(push_forward(src, ch)) - bayes_error(src)
                assert abs(gap) <= 1e-12
