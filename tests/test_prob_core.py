"""Distribution, channel, and two-class source plumbing."""

import re

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from numpy.testing import assert_allclose

from cdptradeoff import (
    Alphabet,
    Channel,
    DimensionError,
    InvalidDistributionError,
    InvalidMixtureError,
    MixtureSource,
    ProbVector,
    compose,
    mix_mixtures,
    push_forward,
)
from cdptradeoff.prob_core import DRIFT_TOLERANCE, NEGATIVE_TOLERANCE, _clean_mass


def clean_mass_reference(values, shape: tuple, what: str) -> np.ndarray:
    """The row-by-row-tested ``_clean_mass`` that the one-pass acceptance test replaced."""
    arr = np.asarray(values, dtype=np.float64)
    if arr.shape != shape:
        whole = what if len(shape) == 1 else f"{what} matrix"
        raise DimensionError(f"{whole}: expected shape {shape}, got {arr.shape}")
    arr = np.ascontiguousarray(arr)
    clipped = np.maximum(arr, 0.0)
    totals = clipped.sum(axis=-1, keepdims=True)
    # NaN fails both tests, +inf the sum's and -inf the floor's.
    ok = (arr.min(axis=-1) >= -NEGATIVE_TOLERANCE) & (np.abs(totals[..., 0] - 1.0) <= DRIFT_TOLERANCE)
    if not ok.all():
        i = int(ok.argmin())
        row = arr.reshape(-1, shape[-1])[i]
        name = what if len(shape) == 1 else f"{what} row {i}"
        if not np.all(np.isfinite(row)):
            raise InvalidDistributionError(f"{name}: non-finite entries")
        if np.any(row < -NEGATIVE_TOLERANCE):
            raise InvalidDistributionError(f"{name}: negative entries {row.min():.3e}")
        total = float(totals.reshape(-1)[i])
        raise InvalidDistributionError(
            f"{name}: entries sum to {total!r}, beyond drift tolerance {DRIFT_TOLERANCE}"
        )
    arr = clipped / totals
    arr.setflags(write=False)
    return arr


def mass_strategy(n):
    return (
        st.lists(st.floats(min_value=1e-3, max_value=1.0), min_size=n, max_size=n)
        .map(np.asarray)
        .map(lambda v: v / v.sum())
    )


class TestCleanMassMatchesReference:
    """The one-pass ``_clean_mass`` gives the reference's bytes or its exact error."""

    INPUTS = 50_000

    @staticmethod
    def fuzz_input(rng):
        """One input of shape (n,) or (m, n), n = 1..9, in one of several memory layouts.

        Rows are stochastic up to zero entries (some stored as ``-0.0`` or as
        ``-1e-13`` dust) and drift within 0.9 of the tolerance; about a third
        of inputs then get one or two defects: NaN, +-inf, ``-1e-3`` or a
        row pushed past the drift tolerance, each at a random position.
        """
        n, m = (int(k) for k in rng.integers(1, 10, size=2))
        mat = rng.dirichlet(np.full(n, (0.2, 1.0, 5.0)[int(rng.integers(3))]), size=m)
        u = rng.random(8)
        if u[0] < 0.5:
            zeros = rng.random(mat.shape) < 0.3
            mat[zeros] = 0.0
            mat[mat.sum(axis=1) == 0.0, 0] = 1.0
            mat /= mat.sum(axis=1, keepdims=True)
            zeros = mat == 0.0
            marks = rng.random(mat.shape)
            mat[zeros & (marks < 0.3)] = -0.0
            mat[zeros & (marks > 0.8)] = -1e-13
        if u[1] < 0.7:
            mat *= 1.0 + rng.uniform(-0.9, 0.9, size=(m, 1)) * DRIFT_TOLERANCE
        if u[2] < 0.35:
            for _ in range(1 + int(u[3] < 0.3)):
                i, j = int(rng.integers(m)), int(rng.integers(n))
                kind = int(rng.integers(5))
                if kind < 4:
                    mat[i, j] = (np.nan, np.inf, -np.inf, -1e-3)[kind]
                else:
                    mat[i] *= 1.0 + rng.choice([-1.0, 1.0]) * rng.uniform(1.1, 100.0) * DRIFT_TOLERANCE
        if u[4] < 0.5:
            mat = mat[int(rng.integers(m))]
        if u[5] < 0.2:
            mat = np.asfortranarray(mat)
        elif u[5] < 0.4:
            wide = np.zeros(mat.shape[:-1] + (2 * n,))
            wide[..., ::2] = mat
            mat = wide[..., ::2]
        elif u[5] < 0.5:
            mat = mat[..., ::-1].copy()[..., ::-1]
        elif u[5] < 0.55:
            mat = mat.tolist()
        return mat

    @staticmethod
    def outcome(clean, values, shape, what):
        try:
            return clean(values, shape, what)
        except (InvalidDistributionError, DimensionError) as err:
            return type(err), str(err)

    def test_fuzzed_inputs_match_the_reference(self):
        rng = np.random.default_rng(20240612)
        seen = {"accepted": 0, "signed_zero": 0, "non-finite": 0, "negative": 0, "sum": 0}
        for _ in range(self.INPUTS):
            values = self.fuzz_input(rng)
            arr = np.asarray(values)
            shape, what = arr.shape, ("mass" if arr.ndim == 1 else "channel")
            want = self.outcome(clean_mass_reference, values, shape, what)
            got = self.outcome(_clean_mass, values, shape, what)
            if isinstance(want, tuple):
                assert got == want
                seen[next(k for k in ("non-finite", "negative", "sum") if k in want[1])] += 1
                continue
            assert isinstance(got, np.ndarray)
            assert got.tobytes() == want.tobytes()
            assert not got.flags.writeable
            assert not np.shares_memory(got, arr)
            seen["accepted"] += 1
            seen["signed_zero"] += bool(np.any(np.signbit(arr) & (arr == 0.0)))
        assert min(seen.values()) > 1000, seen


class TestAlphabet:
    def test_symbols_range(self):
        assert list(Alphabet(3).symbols) == [0, 1, 2]

    def test_size_must_be_positive_integer(self):
        with pytest.raises(InvalidDistributionError):
            Alphabet(0)
        with pytest.raises(InvalidDistributionError):
            Alphabet(2.5)

    @pytest.mark.parametrize("symbol", [0, 2, np.int64(1), np.uint8(2)])
    def test_check_symbol_accepts_integers_inside(self, symbol):
        got = Alphabet(3).check_symbol(symbol)
        assert got == symbol and type(got) is int

    @pytest.mark.parametrize("symbol", [True, False, np.True_, 1.0, 1.5, "1", None])
    def test_check_symbol_rejects_what_is_not_an_integer(self, symbol):
        with pytest.raises(DimensionError, match=rf"^symbol {re.escape(repr(symbol))} is not an integer$"):
            Alphabet(3).check_symbol(symbol)


class TestProbVector:
    def test_repr_names_the_size_and_mass(self):
        assert repr(ProbVector(Alphabet(3), [0.25, 0.125, 0.625])) == "ProbVector(size=3, mass=[0.25  0.125 0.625])"

    def test_uniform_and_point_mass(self):
        a = Alphabet(4)
        assert_allclose(ProbVector.uniform(a).mass, 0.25)
        pm = ProbVector.point_mass(a, 2)
        assert pm.mass[2] == 1.0
        assert pm.mass.sum() == 1.0

    @pytest.mark.parametrize("symbol", [-1, 3])
    def test_point_mass_rejects_symbols_outside_the_alphabet(self, symbol):
        with pytest.raises(DimensionError, match=rf"symbol {symbol} outside alphabet of size 3"):
            ProbVector.point_mass(Alphabet(3), symbol)

    @pytest.mark.parametrize("symbol", [1.5, True])
    def test_point_mass_rejects_symbols_that_are_not_integers(self, symbol):
        with pytest.raises(DimensionError, match=rf"symbol {symbol} is not an integer"):
            ProbVector.point_mass(Alphabet(3), symbol)

    def test_rejects_negative_entries(self):
        with pytest.raises(InvalidDistributionError):
            ProbVector(Alphabet(2), np.array([1.2, -0.2]))

    def test_rejects_bad_sum(self):
        with pytest.raises(InvalidDistributionError):
            ProbVector(Alphabet(2), np.array([0.6, 0.6]))

    def test_rejects_wrong_shape(self):
        with pytest.raises(DimensionError):
            ProbVector(Alphabet(3), np.array([0.5, 0.5]))

    def test_renormalizes_drift(self):
        # Tiny float drift inside the tolerance is absorbed, not rejected.
        v = ProbVector(Alphabet(2), np.array([0.5 + 1e-13, 0.5]))
        assert v.mass.sum() == pytest.approx(1.0, abs=1e-15)

    def test_mass_is_read_only(self):
        v = ProbVector.uniform(Alphabet(2))
        with pytest.raises(ValueError):
            v.mass[0] = 0.9


class TestChannel:
    def test_repr_names_the_alphabet_sizes(self):
        assert repr(Channel.from_rows([[0.5, 0.25, 0.25], [0.0, 1.0, 0.0]])) == "Channel(2->3)"

    def test_identity(self):
        ch = Channel.identity(Alphabet(3))
        assert_allclose(ch.matrix, np.eye(3))
        assert ch.is_deterministic()

    def test_bsc_matrix(self):
        ch = Channel.bsc(0.1)
        assert_allclose(ch.matrix, [[0.9, 0.1], [0.1, 0.9]])

    def test_bsc_rejects_out_of_range_flip(self):
        with pytest.raises(InvalidDistributionError):
            Channel.bsc(1.5)

    def test_constant_channel_rows_equal(self):
        row = ProbVector(Alphabet(2), np.array([0.7, 0.3]))
        ch = Channel.constant(Alphabet(3), row)
        assert ch.matrix.shape == (3, 2)
        for i in range(3):
            assert_allclose(ch.row(i).mass, [0.7, 0.3])

    def test_permutation(self):
        ch = Channel.permutation(Alphabet(3), [2, 0, 1])
        assert ch.is_deterministic()
        assert_allclose(ch.matrix @ ch.matrix.T, np.eye(3))

    def test_permutation_rejects_non_bijection(self):
        with pytest.raises(InvalidDistributionError):
            Channel.permutation(Alphabet(3), [0, 0, 1])

    def test_deterministic_assignment(self):
        ch = Channel.deterministic(Alphabet(3), Alphabet(2), [1, 0, 1])
        assert ch.is_deterministic()
        assert_allclose(ch.matrix, [[0.0, 1.0], [1.0, 0.0], [0.0, 1.0]])

    @pytest.mark.parametrize("assignment", [[0, -1, 1], [0, 2, 1]])
    def test_deterministic_rejects_symbols_outside_the_output(self, assignment):
        with pytest.raises(DimensionError, match=r"input 1 maps to symbol -?\d, outside output alphabet of size 2"):
            Channel.deterministic(Alphabet(3), Alphabet(2), assignment)

    @pytest.mark.parametrize("assignment", [[0, True, 1], [0, 1.0, 1]])
    def test_deterministic_rejects_symbols_that_are_not_integers(self, assignment):
        with pytest.raises(DimensionError, match=rf"input 1 maps to symbol {assignment[1]} is not an integer"):
            Channel.deterministic(Alphabet(3), Alphabet(2), assignment)

    @pytest.mark.parametrize("symbol", [-1, 2, True])
    def test_row_takes_only_symbols_of_the_input(self, symbol):
        # -1 once returned the last row through NumPy's negative indexing.
        with pytest.raises(DimensionError, match=rf"^symbol {symbol} "):
            Channel.bsc(0.1).row(symbol)

    @pytest.mark.parametrize("assignment", [[0, 1], [0, 1, 0, 1]])
    def test_deterministic_rejects_assignments_of_the_wrong_length(self, assignment):
        with pytest.raises(DimensionError, match=rf"expected 3 output symbols, got {len(assignment)}"):
            Channel.deterministic(Alphabet(3), Alphabet(2), assignment)

    def test_rejects_wrong_shape(self):
        with pytest.raises(DimensionError, match=r"channel matrix: expected shape \(2, 3\), got \(3, 2\)"):
            Channel(Alphabet(2), Alphabet(3), np.full((3, 2), 0.5))

    def test_from_rows_validates_each_row(self):
        with pytest.raises(InvalidDistributionError):
            Channel.from_rows([[0.5, 0.5], [0.9, 0.2]])

    @staticmethod
    def rows_one_by_one(mat):
        """The row-by-row validation Channel's vectorized checks must reproduce."""
        return np.stack([_clean_mass(mat[i], (mat.shape[1],), f"channel row {i}") for i in range(mat.shape[0])])

    @staticmethod
    def stochastic(rng, m, n):
        """Random stochastic rows with zero entries, clipped dust and drift within tolerance."""
        mat = rng.dirichlet(np.full(n, rng.choice([0.2, 1.0, 5.0])), size=m)
        mat[rng.random(mat.shape) < 0.25] = 0.0
        mat[mat.sum(axis=1) == 0.0, 0] = 1.0
        mat /= mat.sum(axis=1, keepdims=True)
        mat[(mat == 0.0) & (rng.random(mat.shape) < 0.3)] = -5e-13
        return mat * (1.0 + rng.uniform(-0.9, 0.9, size=(m, 1)) * DRIFT_TOLERANCE)

    def test_vectorized_validation_matches_row_by_row(self, rng):
        for _ in range(300):
            m, n = (int(k) for k in rng.integers(1, 12, size=2))
            mat = self.stochastic(rng, m, n)
            if rng.random() < 0.3:
                mat = np.asfortranarray(mat)
            got = Channel(Alphabet(m), Alphabet(n), mat).matrix
            assert got.tobytes() == self.rows_one_by_one(mat).tobytes()

    def test_vectorized_validation_names_the_first_bad_row(self, rng):
        defects = (
            lambda row: np.r_[np.nan, row[1:]],
            lambda row: np.r_[row[:-1], np.inf],
            lambda row: np.r_[-1e-6, row[1:]],
            lambda row: row * (1.0 + 10.0 * DRIFT_TOLERANCE),
        )
        for defect in defects:
            for _ in range(10):
                m, n = (int(k) for k in rng.integers(2, 9, size=2))
                mat = self.stochastic(rng, m, n)
                first = int(rng.integers(0, m - 1))
                mat[first] = defect(mat[first])
                mat[m - 1] = defects[int(rng.integers(len(defects)))](mat[m - 1])
                with pytest.raises(InvalidDistributionError) as want:
                    self.rows_one_by_one(mat)
                with pytest.raises(InvalidDistributionError) as got:
                    Channel(Alphabet(m), Alphabet(n), mat)
                assert type(got.value) is type(want.value)
                assert str(got.value) == str(want.value)
                assert f"channel row {first}:" in str(got.value)

    def test_row_returns_prob_vector(self):
        ch = Channel.from_rows([[0.25, 0.75], [1.0, 0.0]])
        assert isinstance(ch.row(0), ProbVector)
        assert not ch.is_deterministic()

    def test_compose_matches_matrix_product(self):
        a = Channel.from_rows([[0.5, 0.5], [0.2, 0.8]])
        b = Channel.from_rows([[0.9, 0.1], [0.3, 0.7]])
        assert_allclose(compose(a, b).matrix, a.matrix @ b.matrix)

    @pytest.mark.parametrize("rows", [[0.5, 0.5], [[[1.0]]]])
    def test_from_rows_rejects_rows_that_are_not_a_matrix(self, rows):
        with pytest.raises(DimensionError, match=r"^channel rows must form a matrix, got ndim=[13]$"):
            Channel.from_rows(rows)

    def test_compose_rejects_mismatched_alphabets(self):
        a = Channel.deterministic(Alphabet(2), Alphabet(3), [0, 2])
        with pytest.raises(DimensionError):
            compose(a, a)


class TestMixtureSource:
    def test_repr_names_the_size_and_priors(self):
        src = MixtureSource.from_masses(0.3, 0.7, [0.9, 0.1], [0.2, 0.8])
        assert repr(src) == "MixtureSource(size=2, priors=(0.3, 0.7))"

    def test_from_masses_builds_marginal(self):
        src = MixtureSource.from_masses(0.3, 0.7, [0.9, 0.1], [0.2, 0.8])
        assert_allclose(src.marginal.mass, [0.3 * 0.9 + 0.7 * 0.2, 0.3 * 0.1 + 0.7 * 0.8])

    def test_rejects_bad_priors(self):
        with pytest.raises(InvalidDistributionError):
            MixtureSource.from_masses(0.6, 0.6, [1.0, 0.0], [0.0, 1.0])
        with pytest.raises(InvalidDistributionError):
            MixtureSource.from_masses(-0.1, 1.1, [1.0, 0.0], [0.0, 1.0])

    @pytest.mark.parametrize("priors", [(np.nan, 0.5), (0.5, np.inf), (-np.inf, 1.0)])
    def test_rejects_non_finite_priors_before_their_sign(self, priors):
        with pytest.raises(InvalidDistributionError, match="priors must be finite"):
            MixtureSource.from_masses(*priors, [1.0, 0.0], [0.0, 1.0])

    @pytest.mark.parametrize("class1", [1.0, [[0.5, 0.5]]])
    def test_from_masses_rejects_class1_that_is_not_a_vector(self, class1):
        with pytest.raises(DimensionError, match=r"^class1 must be a vector of masses, got ndim=[02]$"):
            MixtureSource.from_masses(0.5, 0.5, class1, 1.0)

    def test_rejects_mismatched_class_alphabets(self):
        a2, a3 = Alphabet(2), Alphabet(3)
        with pytest.raises(DimensionError):
            MixtureSource(a2, 0.5, 0.5, ProbVector.uniform(a2), ProbVector.uniform(a3))

    @pytest.mark.parametrize("name", ["class1", "class2"])
    def test_rejects_a_class_that_is_not_a_prob_vector(self, name):
        a2 = Alphabet(2)
        classes = {"class1": ProbVector.uniform(a2), "class2": ProbVector.uniform(a2), name: np.array([0.5, 0.5])}
        with pytest.raises(InvalidDistributionError, match=rf"^{name} must be a ProbVector$"):
            MixtureSource(a2, 0.5, 0.5, **classes)

    def test_push_forward_classwise(self):
        src = MixtureSource.from_masses(0.4, 0.6, [0.8, 0.2], [0.1, 0.9])
        ch = Channel.from_rows([[0.7, 0.3], [0.2, 0.8]])
        out = push_forward(src, ch)
        assert_allclose(out.class1.mass, ch.matrix.T @ src.class1.mass)
        assert_allclose(out.class2.mass, ch.matrix.T @ src.class2.mass)
        assert out.prior1 == src.prior1

    def test_push_forward_marginal_commutes(self):
        # Sending the source through the channel then taking the marginal is
        # the same as pushing the marginal itself.
        src = MixtureSource.from_masses(0.25, 0.75, [0.5, 0.3, 0.2], [0.1, 0.1, 0.8])
        ch = Channel.from_rows([[0.6, 0.4], [0.5, 0.5], [0.1, 0.9]])
        out = push_forward(src, ch)
        assert_allclose(out.marginal.mass, ch.matrix.T @ src.marginal.mass, atol=1e-15)

    def test_push_forward_rejects_wrong_alphabet(self):
        src = MixtureSource.from_masses(0.5, 0.5, [1.0, 0.0], [0.0, 1.0])
        ch = Channel.identity(Alphabet(3))
        with pytest.raises(DimensionError):
            push_forward(src, ch)

    def test_mix_mixtures_blends_classwise(self):
        u = MixtureSource.from_masses(0.5, 0.5, [0.9, 0.1], [0.2, 0.8])
        v = MixtureSource.from_masses(0.5, 0.5, [0.3, 0.7], [0.6, 0.4])
        w = mix_mixtures(u, v, 0.25)
        assert_allclose(w.class1.mass, 0.25 * u.class1.mass + 0.75 * v.class1.mass)
        assert_allclose(w.marginal.mass, 0.25 * u.marginal.mass + 0.75 * v.marginal.mass)

    def test_mix_mixtures_rejects_different_priors(self):
        u = MixtureSource.from_masses(0.5, 0.5, [1.0, 0.0], [0.0, 1.0])
        v = MixtureSource.from_masses(0.4, 0.6, [1.0, 0.0], [0.0, 1.0])
        with pytest.raises(InvalidMixtureError):
            mix_mixtures(u, v, 0.5)

    def test_mix_mixtures_rejects_different_alphabets(self):
        u = MixtureSource.from_masses(0.5, 0.5, [1.0, 0.0], [0.0, 1.0])
        v = MixtureSource.from_masses(0.5, 0.5, [1.0, 0.0, 0.0], [0.0, 0.0, 1.0])
        with pytest.raises(InvalidMixtureError, match=r"^alphabets differ: Alphabet\(size=2\) vs Alphabet\(size=3\)$"):
            mix_mixtures(u, v, 0.5)

    def test_mix_mixtures_rejects_bad_lambda(self):
        u = MixtureSource.from_masses(0.5, 0.5, [1.0, 0.0], [0.0, 1.0])
        with pytest.raises(ValueError):
            mix_mixtures(u, u, 1.5)


class TestRandomizedInvariants:
    @given(m1=mass_strategy(4), m2=mass_strategy(4), rows=st.lists(mass_strategy(3), min_size=4, max_size=4))
    @settings(max_examples=50, deadline=None)
    def test_push_forward_preserves_priors_and_total_mass(self, m1, m2, rows):
        src = MixtureSource.from_masses(0.35, 0.65, m1, m2)
        ch = Channel.from_rows(rows)
        out = push_forward(src, ch)
        assert out.prior1 == pytest.approx(0.35, abs=1e-12)
        assert out.marginal.mass.sum() == pytest.approx(1.0, abs=1e-12)

    @given(lam=st.floats(min_value=0.0, max_value=1.0), m1=mass_strategy(3), m2=mass_strategy(3))
    @settings(max_examples=50, deadline=None)
    def test_push_forward_is_linear_in_the_source(self, lam, m1, m2):
        base = MixtureSource.from_masses(0.5, 0.5, [0.6, 0.3, 0.1], [0.2, 0.2, 0.6])
        other = MixtureSource.from_masses(0.5, 0.5, m1, m2)
        ch = Channel.from_rows([[0.5, 0.5], [0.3, 0.7], [0.8, 0.2]])
        blended_then_pushed = push_forward(mix_mixtures(base, other, lam), ch)
        pushed_then_blended = mix_mixtures(push_forward(base, ch), push_forward(other, ch), lam)
        assert_allclose(blended_then_pushed.class1.mass, pushed_then_blended.class1.mass, atol=1e-12)
        assert_allclose(blended_then_pushed.class2.mass, pushed_then_blended.class2.mass, atol=1e-12)
