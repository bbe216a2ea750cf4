"""Lattice oracle: enumeration counts, slack semantics, solver cross-checks."""

import math

import numpy as np
import pytest
from numpy.testing import assert_allclose

from cdptradeoff import (
    Alphabet,
    Channel,
    DecisionRegion,
    DistortionMatrix,
    DivergenceKind,
    MixtureSource,
    ProblemInstance,
    SizeError,
    SolveStatus,
    bayes_error,
    min_distortion,
    solve_cdp,
    solve_scdp,
)
from cdptradeoff.oracle import (
    KernelGrid,
    enumerate_deterministic_kernels,
    grid_search_cdp,
    grid_search_scdp,
    simplex_lattice,
)

TV = DivergenceKind.total_variation()
SMOOTH = (
    DivergenceKind.kullback_leibler(),
    DivergenceKind.hellinger(),
    DivergenceKind.renyi(0.5),
    DivergenceKind.renyi(2.0),
)


def binom(n, k):
    return math.comb(n, k)


class TestSimplexLattice:
    def test_counts(self):
        # Compositions of m into k nonnegative parts: C(m + k - 1, k - 1).
        assert simplex_lattice(0.5, 2).shape == (3, 2)
        assert simplex_lattice(0.1, 2).shape == (11, 2)
        assert simplex_lattice(0.1, 3).shape == (binom(12, 2), 3)

    def test_rows_sum_to_one_exactly(self):
        pts = simplex_lattice(0.05, 3)
        assert_allclose(pts.sum(axis=1), 1.0, atol=1e-12)
        assert (pts >= 0.0).all()

    def test_step_must_divide_one(self):
        with pytest.raises(ValueError):
            simplex_lattice(0.3, 2)
        with pytest.raises(ValueError):
            simplex_lattice(0.0, 2)
        with pytest.raises(ValueError):
            simplex_lattice(1.5, 2)

    def test_step_one_gives_vertices(self):
        pts = simplex_lattice(1.0, 3)
        assert_allclose(np.sort(pts, axis=0), np.sort(np.eye(3), axis=0))


class TestKernelGrid:
    def test_total_kernels(self):
        g = KernelGrid(step=0.5, n_outputs=2, n_restored=2)
        assert g.points_per_row == 3
        assert g.total_kernels == 9

    def test_batches_cover_everything_once(self):
        g = KernelGrid(step=0.25, n_outputs=2, n_restored=2)
        seen = np.concatenate(list(g.batches(chunk=7)))
        assert seen.shape == (g.total_kernels, 2, 2)
        assert len({tuple(k.ravel()) for k in seen}) == g.total_kernels

    def test_rounding_radius(self):
        assert KernelGrid(step=0.1, n_restored=4, n_outputs=2).rounding_radius() == pytest.approx(0.2)


class TestDeterministicEnumeration:
    @pytest.mark.parametrize("n_in,n_out,count", [(1, 3, 3), (2, 2, 4), (3, 2, 8)])
    def test_counts(self, n_in, n_out, count):
        kernels = list(enumerate_deterministic_kernels(Alphabet(n_in), Alphabet(n_out)))
        assert len(kernels) == count
        assert all(k.is_deterministic() for k in kernels)
        assert len({tuple(k.matrix.ravel()) for k in kernels}) == count

    def test_cap_enforced(self):
        with pytest.raises(SizeError):
            next(enumerate_deterministic_kernels(Alphabet(10), Alphabet(12)))


@pytest.fixture
def tiny_problem(canonical_problem):
    return canonical_problem()


class TestGridSearch:
    def test_unconstrained_step_one_matches_vertex_minimum(self, tiny_problem):
        # With no constraints the linear objective is minimized at a vertex,
        # so deterministic kernels alone find the exact optimum.
        got = grid_search_cdp(tiny_problem, math.inf, math.inf, step=1.0)
        assert got.status is SolveStatus.OPTIMAL
        assert got.value == pytest.approx(0.26, abs=1e-12)

    def test_scdp_step_one_equals_degraded_bayes(self, tiny_problem):
        got = grid_search_scdp(tiny_problem, math.inf, math.inf, step=1.0)
        assert got.value == pytest.approx(bayes_error(tiny_problem.degraded), abs=1e-12)

    def test_infeasible_distortion(self, tiny_problem):
        got = grid_search_cdp(tiny_problem, 0.01, math.inf, step=0.1)
        assert got.status is SolveStatus.INFEASIBLE
        assert got.feasible_count == 0
        assert math.isnan(got.value)

    def test_size_cap(self, tiny_problem):
        # 5001 lattice points per row, squared, overruns the ten-million cap.
        with pytest.raises(SizeError):
            grid_search_cdp(tiny_problem, math.inf, math.inf, step=0.0002)

    def test_refining_never_increases(self, tiny_problem):
        # Halving the step keeps every old lattice point, so the minimum can
        # only move down.
        for D, P in [(0.3, 0.2), (0.2, 0.1), (math.inf, 0.05)]:
            coarse = grid_search_cdp(tiny_problem, D, P, step=0.1)
            fine = grid_search_cdp(tiny_problem, D, P, step=0.05)
            assert fine.value <= coarse.value + 1e-12

    def test_value_never_undercuts_solver(self, tiny_problem):
        # The strict lattice minimum is a minimum over a subset of the
        # feasible set: it sits at or above the true optimum.
        for D, P in [(0.3, 0.2), (0.15, 0.4), (0.35, 0.0)]:
            grid = grid_search_cdp(tiny_problem, D, P, step=0.05)
            exact = solve_cdp(tiny_problem, D, P)
            assert grid.value >= exact.value - 1e-9
            assert grid.value <= exact.value + grid.lipschitz_slack + 1e-9

    def test_kernel_achieves_reported_value(self, tiny_problem):
        got = grid_search_cdp(tiny_problem, 0.3, 0.2, step=0.1)
        K = got.kernel.matrix
        val = float(np.sum(tiny_problem.objective_weights * K))
        assert val == pytest.approx(got.value, abs=1e-12)

    def test_counts_are_reported(self, tiny_problem):
        got = grid_search_cdp(tiny_problem, 0.3, 0.2, step=0.1)
        grid = KernelGrid(step=0.1, n_outputs=2, n_restored=2)
        assert got.evaluated_count == grid.total_kernels
        assert 0 < got.feasible_count <= got.evaluated_count


class TestFrozenOracleValues:
    """Lattice minima on the shipped instances, frozen from oracle runs.

    These pin the oracle itself: if enumeration, masking, or slack
    bookkeeping drifts, these exact lattice values move.
    """

    def test_symmetric_instance(self, canonical_problem):
        prob = canonical_problem()
        got = grid_search_cdp(prob, 0.3, 0.2, step=0.05)
        assert got.value == pytest.approx(0.26, abs=1e-12)
        got_s = grid_search_scdp(prob, 0.3, 0.2, step=0.05)
        assert got_s.value == pytest.approx(0.26, abs=1e-12)

    def test_asymmetric_instance(self):
        src = MixtureSource.from_masses(0.3, 0.7, [0.9, 0.1], [0.25, 0.75])
        deg = Channel.from_rows([[0.85, 0.15], [0.2, 0.8]])
        delta = DistortionMatrix.hamming(src.alphabet)
        cls = DecisionRegion.from_indices(src.alphabet, [1])
        prob = ProblemInstance(src, deg, src.alphabet, delta, TV, cls)
        got = grid_search_cdp(prob, 0.25, 0.15, step=0.05)
        assert got.value == pytest.approx(0.6244875, abs=1e-12)
        got_s = grid_search_scdp(prob, 0.25, 0.15, step=0.05)
        assert got_s.value == pytest.approx(0.3, abs=1e-12)

    def test_skewed_kl_instance(self):
        src = MixtureSource.from_masses(0.5, 0.5, [0.8, 0.2], [0.3, 0.7])
        deg = Channel.from_rows([[0.85, 0.15], [0.15, 0.85]])
        delta = DistortionMatrix.hamming(src.alphabet)
        cls = DecisionRegion.from_indices(src.alphabet, [1])
        prob = ProblemInstance(src, deg, src.alphabet, delta, DivergenceKind.kullback_leibler(), cls)
        got = grid_search_cdp(prob, 0.3, 0.05, step=0.05)
        assert got.value == pytest.approx(0.59625, abs=1e-12)
        got_s = grid_search_scdp(prob, 0.3, 0.05, step=0.05)
        assert got_s.value == pytest.approx(0.325, abs=1e-12)


def binary_instance(rng, kind):
    n = 2
    prior1 = float(rng.uniform(0.2, 0.8))
    src = MixtureSource.from_masses(prior1, 1.0 - prior1, rng.dirichlet(np.ones(n)), rng.dirichlet(np.ones(n)))
    deg = Channel.from_rows([rng.dirichlet(np.ones(n)) for _ in range(n)])
    delta = DistortionMatrix.hamming(src.alphabet)
    cls = DecisionRegion.from_indices(src.alphabet, [int(rng.integers(0, n))])
    return ProblemInstance(src, deg, src.alphabet, delta, kind, cls)


class TestSolverOracleSandwich:
    def test_random_tv_instances(self, rng):
        for _ in range(6):
            prob = binary_instance(rng, TV)
            dmin = min_distortion(prob)
            D, P = dmin + 0.15, 0.15
            grid = grid_search_cdp(prob, D, P, step=0.05)
            exact = solve_cdp(prob, D, P)
            if grid.status is SolveStatus.OPTIMAL and exact.ok:
                assert abs(exact.value - grid.value) <= grid.lipschitz_slack + 1e-9
            sgrid = grid_search_scdp(prob, D, P, step=0.05)
            upper = solve_scdp(prob, D, P)
            if sgrid.status is SolveStatus.OPTIMAL and upper.ok:
                assert upper.value <= sgrid.value + 1e-9
                assert upper.value >= sgrid.value - sgrid.lipschitz_slack - 1e-9

    @pytest.mark.parametrize("kind", SMOOTH, ids=lambda k: f"{k.name}{k.alpha or ''}")
    def test_random_smooth_instances(self, kind, rng):
        # The cut solver's lower bound (value minus its certified gap) never
        # exceeds a lattice minimum, and its value is within the lattice slack.
        solved = 0
        for _ in range(8):
            prob = binary_instance(rng, kind)
            D, P = min_distortion(prob) + float(rng.uniform(0.02, 0.3)), float(rng.uniform(0.005, 0.2))
            grid = grid_search_cdp(prob, D, P, step=0.002)
            exact = solve_cdp(prob, D, P)
            if grid.status is SolveStatus.OPTIMAL and exact.ok:
                solved += 1
                assert exact.value - exact.certificate["duality_gap"] <= grid.value + 1e-12
                assert exact.value >= grid.value - grid.lipschitz_slack
        assert solved >= 4
