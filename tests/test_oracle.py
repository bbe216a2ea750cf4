"""Lattice oracle: enumeration counts, slack semantics, solver cross-checks."""

import math
import tracemalloc
import warnings

import numpy as np
import pytest
from numpy.testing import assert_allclose

from cdptradeoff import (
    Alphabet,
    Channel,
    DecisionRegion,
    DimensionError,
    DistortionMatrix,
    DivergenceKind,
    MixtureSource,
    ProblemInstance,
    SizeError,
    SolveStatus,
    audit,
    bayes_error,
    min_distortion,
    solve_cdp,
    solve_scdp,
)
from cdptradeoff.oracle import (
    KernelGrid,
    _divergence_batch,
    grid_search_cdp,
    grid_search_scdp,
    simplex_lattice,
)
from cdptradeoff.metrics import _divergence_arrays

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

    @pytest.mark.parametrize("k", range(1, 7))
    def test_points_per_row_counts_the_lattice_without_building_it(self, k):
        for m in range(1, 25 if k < 6 else 16):
            grid = KernelGrid(step=1.0 / m, n_outputs=2, n_restored=k)
            assert grid.points_per_row == len(simplex_lattice(1.0 / m, k))


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

    def test_size_cap_is_checked_before_the_lattice_is_built(self):
        # At step 0.01 a 4-symbol row has 176,851 lattice points.  Counting
        # them by building them allocated 11 MB before the search was refused.
        src = MixtureSource.from_masses(0.5, 0.5, [0.4, 0.3, 0.2, 0.1], [0.1, 0.2, 0.3, 0.4])
        cls = DecisionRegion.from_indices(src.alphabet, [0, 1])
        prob = ProblemInstance(
            src, Channel.identity(src.alphabet), src.alphabet, DistortionMatrix.hamming(src.alphabet), TV, cls
        )
        tracemalloc.start()
        try:
            with pytest.raises(SizeError, match=str(176_851**4)):
                grid_search_scdp(prob, math.inf, math.inf, step=0.01)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < 1e6

    def test_bad_step_is_reported_before_the_size_cap(self, tiny_problem):
        with pytest.raises(ValueError, match="step must divide 1"):
            grid_search_cdp(tiny_problem, math.inf, math.inf, step=0.00021)

    @pytest.mark.parametrize("search", [grid_search_cdp, grid_search_scdp])
    @pytest.mark.parametrize("budgets", [(math.nan, 0.1), (-0.1, 0.1), (0.3, math.nan), (0.3, -1e-9)])
    def test_rejects_nan_or_negative_budgets(self, tiny_problem, search, budgets):
        with pytest.raises(ValueError, match="must be nonnegative"):
            search(tiny_problem, *budgets, step=0.5)

    @pytest.mark.parametrize("search", [grid_search_cdp, grid_search_scdp])
    def test_finite_perception_needs_matching_alphabets(self, search):
        # A 3-symbol source restored onto 2 symbols has no perception
        # constraint; a finite P is the solver's DimensionError, not a
        # broadcast failure, and P = inf still searches.
        src = MixtureSource.from_masses(0.5, 0.5, [0.6, 0.3, 0.1], [0.1, 0.3, 0.6])
        restore = Alphabet(2)
        delta = DistortionMatrix(src.alphabet, restore, [[0.0, 1.0], [0.5, 0.5], [1.0, 0.0]])
        prob = ProblemInstance(
            src, Channel.identity(src.alphabet), restore, delta, TV, DecisionRegion.from_indices(restore, [0])
        )
        with pytest.raises(DimensionError):
            solve_cdp(prob, math.inf, 0.1)
        with pytest.raises(DimensionError):
            search(prob, math.inf, 0.1, step=0.25)
        assert search(prob, math.inf, math.inf, step=0.25).status is SolveStatus.OPTIMAL

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
    bookkeeping drifts, these exact lattice values or feasible counts move.
    """

    def test_symmetric_instance(self, canonical_problem):
        prob = canonical_problem()
        got = grid_search_cdp(prob, 0.3, 0.2, step=0.05)
        assert got.value == pytest.approx(0.26, abs=1e-12)
        assert got.feasible_count == 62
        got_s = grid_search_scdp(prob, 0.3, 0.2, step=0.05)
        assert got_s.value == pytest.approx(0.26, abs=1e-12)
        assert got_s.feasible_count == 62

    def test_asymmetric_instance(self):
        src = MixtureSource.from_masses(0.3, 0.7, [0.9, 0.1], [0.25, 0.75])
        deg = Channel.from_rows([[0.85, 0.15], [0.2, 0.8]])
        delta = DistortionMatrix.hamming(src.alphabet)
        cls = DecisionRegion.from_indices(src.alphabet, [1])
        prob = ProblemInstance(src, deg, src.alphabet, delta, TV, cls)
        got = grid_search_cdp(prob, 0.25, 0.15, step=0.05)
        assert got.value == pytest.approx(0.6244875, abs=1e-12)
        assert got.feasible_count == 15
        got_s = grid_search_scdp(prob, 0.25, 0.15, step=0.05)
        assert got_s.value == pytest.approx(0.3, abs=1e-12)
        assert got_s.feasible_count == 15

    def test_skewed_kl_instance(self):
        src = MixtureSource.from_masses(0.5, 0.5, [0.8, 0.2], [0.3, 0.7])
        deg = Channel.from_rows([[0.85, 0.15], [0.15, 0.85]])
        delta = DistortionMatrix.hamming(src.alphabet)
        cls = DecisionRegion.from_indices(src.alphabet, [1])
        prob = ProblemInstance(src, deg, src.alphabet, delta, DivergenceKind.kullback_leibler(), cls)
        got = grid_search_cdp(prob, 0.3, 0.05, step=0.05)
        assert got.value == pytest.approx(0.59625, abs=1e-12)
        assert got.feasible_count == 43
        got_s = grid_search_scdp(prob, 0.3, 0.05, step=0.05)
        assert got_s.value == pytest.approx(0.325, abs=1e-12)
        assert got_s.feasible_count == 43


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


SEARCHES = (grid_search_cdp, grid_search_scdp)


class TestRelaxedValue:
    """The drift-relaxed pass whose minimum ``lipschitz_slack`` folds in."""

    @pytest.mark.parametrize("search", SEARCHES, ids=lambda f: f.__name__)
    def test_tv_relaxation_is_a_strict_search_at_widened_budgets(self, search):
        # Under TV the relaxed pass widens D by the distortion's rounding drift
        # and P by half the rounding radius, and changes nothing else.
        for seed in range(4):
            prob = binary_instance(np.random.default_rng(seed), TV)
            D, P, step = min_distortion(prob) + 0.1, 0.05, 0.05
            grid = KernelGrid(step, *prob.kernel_shape)
            radius = grid.rounding_radius()
            G = prob.distortion_weights
            drift = radius * 0.5 * float((G.max(axis=1) - G.min(axis=1)).sum())
            got = search(prob, D, P, step)
            assert got.status is SolveStatus.OPTIMAL
            assert got.relaxed_value == search(prob, D + drift, P + radius / 2.0, step).value
            assert got.evaluated_count == grid.total_kernels

    @pytest.mark.parametrize("kind", (TV, SMOOTH[0]), ids=lambda k: k.name)
    @pytest.mark.parametrize("search", SEARCHES, ids=lambda f: f.__name__)
    def test_relaxed_value_never_above_value(self, search, kind):
        for seed in range(4):
            prob = binary_instance(np.random.default_rng(seed), kind)
            got = search(prob, min_distortion(prob) + 0.1, 0.05, 0.05)
            assert got.status is SolveStatus.OPTIMAL
            assert got.relaxed_value <= got.value
            assert got.evaluated_count == KernelGrid(0.05, *prob.kernel_shape).total_kernels


class TestRenyiAboveOne:
    def test_zero_marginal_entries_raise_no_overflow_warning(self):
        # At D = inf the lattice holds deterministic kernels, whose restored
        # marginals have zero entries; alpha = 3 used to overflow on them.
        base = audit.random_instance(np.random.default_rng(1))
        kind = DivergenceKind.renyi(3.0)
        prob = ProblemInstance(base.source, base.degrade, base.restore_alphabet, base.delta, kind, base.classifier)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            got = grid_search_cdp(prob, math.inf, 0.05, step=0.1)
            vals = _divergence_batch(kind, np.array([0.5, 0.5]), np.array([[0.0, 1.0], [0.25, 0.75]]))
        assert got.status is SolveStatus.OPTIMAL
        assert vals[0] == math.inf
        assert vals[1] == pytest.approx(math.log(0.5**3 / 0.25**2 + 0.5**3 / 0.75**2) / 2.0, abs=1e-15)

    @pytest.mark.parametrize("alpha", [1000.0, 5000.0])
    def test_high_orders_are_solved_and_searched(self, alpha):
        # (p/q)^alpha overflows at these orders: the solver's cut slopes came
        # out NaN and the lattice search's divergences NaN.
        src = MixtureSource.from_masses(0.3, 0.7, [0.9, 0.1], [0.25, 0.75])
        prob = ProblemInstance(
            src,
            Channel.bsc(0.1),
            src.alphabet,
            DistortionMatrix.hamming(src.alphabet),
            DivergenceKind.renyi(alpha),
            DecisionRegion.from_indices(src.alphabet, [1]),
        )
        for P in (0.02, 0.05, 0.2):
            with warnings.catch_warnings():
                warnings.simplefilter("error")
                got = solve_cdp(prob, 0.3, P)
                lattice = grid_search_cdp(prob, 0.3, P, step=0.02)
            assert got.status is SolveStatus.OPTIMAL
            assert got.achieved_perception <= P + 1e-8
            assert lattice.status is SolveStatus.OPTIMAL
            assert lattice.relaxed_value <= got.value <= lattice.value + 1e-9


def naive_search(prob, D, P, step, strong):
    """The lattice search evaluated kernel by kernel: every kernel of
    ``KernelGrid.batches()`` is materialized and evaluated with plain einsums."""
    grid = KernelGrid(step, *prob.kernel_shape)
    radius = grid.rounding_radius()

    def lipschitz(weights):
        return radius * 0.5 * float((weights.max(axis=1) - weights.min(axis=1)).sum())

    kind, p = prob.divergence, prob.p_x
    drift = lipschitz(prob.distortion_weights)
    best = relaxed_best = math.inf
    feasible = 0
    for batch in grid.batches():
        dist = np.einsum("byj,yj->b", batch, prob.distortion_weights)
        strict = dist <= D + 1e-12
        relaxed = dist <= D + drift + 1e-12
        if math.isfinite(P):
            q = np.clip(np.einsum("byj,y->bj", batch, prob.p_y), 0.0, None)
            perc = _divergence_batch(kind, p, q)
            strict &= perc <= P + 1e-12
            if kind.name == TV.name:
                relaxed &= perc <= P + radius / 2.0 + 1e-12
            else:
                with np.errstate(divide="ignore"):
                    t = np.minimum(1.0, (radius / 2.0) / (0.5 * np.abs(q - p).sum(axis=1)))[:, None]
                relaxed &= _divergence_batch(kind, p, (1.0 - t) * q + t * p) <= P + 1e-12
        if strong:
            q1 = np.einsum("byj,y->bj", batch, prob.p_y1)
            q2 = np.einsum("byj,y->bj", batch, prob.p_y2)
            vals = np.minimum(prob.source.prior1 * q1, prob.source.prior2 * q2).sum(axis=1)
        else:
            vals = np.einsum("byj,yj->b", batch, prob.objective_weights)
        feasible += int(strict.sum())
        if strict.any():
            best = min(best, float(vals[strict].min()))
        if relaxed.any():
            relaxed_best = min(relaxed_best, float(vals[relaxed].min()))
    slack = radius if strong else lipschitz(prob.objective_weights)
    if feasible and math.isfinite(relaxed_best):
        slack += max(0.0, best - relaxed_best)
    return best, relaxed_best, slack, feasible, grid.total_kernels


def shaped_instance(rng, n_outputs, n_source, kind):
    """Random instance whose restoration kernel is (n_outputs, n_source), with a random cost matrix."""
    prior1 = float(rng.uniform(0.2, 0.8))
    ones = np.ones(n_source)
    src = MixtureSource.from_masses(prior1, 1.0 - prior1, rng.dirichlet(ones), rng.dirichlet(ones))
    deg = Channel.from_rows(rng.dirichlet(np.ones(n_outputs), size=n_source))
    cost = rng.uniform(0.0, 1.0, size=(n_source, n_source)) * (1.0 - np.eye(n_source))
    delta = DistortionMatrix(src.alphabet, src.alphabet, cost)
    cls = DecisionRegion.from_indices(src.alphabet, [int(rng.integers(0, n_source))])
    return ProblemInstance(src, deg, src.alphabet, delta, kind, cls)


class TestNaiveReference:
    """The search agrees with kernel-by-kernel evaluation of the same lattice."""

    # (kernel shape, step, perception budgets): the (1, 2) lattice has 70001
    # points in its one row, more than one batch; (3, 3) spans two batches.
    # The (2, 8) lattice has 1296 kernels of 8 restored symbols, where NumPy's
    # row sums go pairwise and the search's column sums do not; its P = 0.6
    # binds under TV, Hellinger and Renyi 0.5.
    CASES = (
        ((1, 2), 1.0 / 70000, (0.0, "interior", math.inf)),
        ((2, 2), 0.02, (0.0, "interior", math.inf)),
        ((3, 3), 0.125, (0.0, "interior", math.inf)),
        ((3, 2), 0.02, (math.inf,)),
        ((2, 8), 0.5, (0.0, 0.6, math.inf)),
    )
    KINDS = (TV,) + SMOOTH[:3] + (DivergenceKind.renyi(3.0),)

    def test_minimizer_past_the_first_run_of_a_long_row(self):
        # A 70001-point row is visited in runs of at most 65536 last-row
        # digits; the unique minimizer [1, 0] is the lattice's last point.
        src = MixtureSource.from_masses(0.3, 0.7, [0.8, 0.2], [0.2, 0.8])
        cls = DecisionRegion.from_indices(src.alphabet, [1])
        deg = Channel.from_rows([[1.0], [1.0]])
        prob = ProblemInstance(src, deg, src.alphabet, DistortionMatrix.hamming(src.alphabet), TV, cls)
        got = grid_search_cdp(prob, math.inf, math.inf, step=1.0 / 70000)
        assert got.value == pytest.approx(0.3, abs=1e-12)
        assert_allclose(got.kernel.matrix, [[1.0, 0.0]])

    @pytest.mark.parametrize("kind", KINDS, ids=lambda k: f"{k.name}{k.alpha or ''}")
    def test_matches_kernel_by_kernel_evaluation(self, kind):
        rng = np.random.default_rng(11)
        statuses = set()
        for shape, step, budgets in self.CASES:
            prob = shaped_instance(rng, *shape, kind)
            for P in budgets:
                P = float(rng.uniform(0.01, 0.2)) if P == "interior" else P
                D = min_distortion(prob) + float(rng.uniform(0.0, 0.3))
                for strong, search in ((False, grid_search_cdp), (True, grid_search_scdp)):
                    value, relaxed, slack, feasible, total = naive_search(prob, D, P, step, strong)
                    got = search(prob, D, P, step)
                    statuses.add(got.status)
                    assert got.status is (SolveStatus.OPTIMAL if feasible else SolveStatus.INFEASIBLE)
                    assert (got.feasible_count, got.evaluated_count) == (feasible, total)
                    assert got.lipschitz_slack == pytest.approx(slack, abs=1e-12)
                    relaxed = relaxed if math.isfinite(relaxed) else math.nan
                    assert got.relaxed_value == pytest.approx(relaxed, abs=1e-12, nan_ok=True)
                    if not feasible:
                        assert got.kernel is None and math.isnan(got.value)
                        continue
                    assert got.value == pytest.approx(value, abs=1e-12)
                    K = got.kernel.matrix
                    assert float(np.sum(prob.distortion_weights * K)) <= D + 1e-12
                    if math.isfinite(P):
                        assert _divergence_batch(kind, prob.p_x, (prob.p_y @ K)[None, :])[0] <= P + 1e-12
                    if strong:
                        q1, q2 = prob.p_y1 @ K, prob.p_y2 @ K
                        attained = np.minimum(prob.source.prior1 * q1, prob.source.prior2 * q2).sum()
                    else:
                        attained = np.sum(prob.objective_weights * K)
                    assert float(attained) == pytest.approx(got.value, abs=1e-12)
        assert statuses == {SolveStatus.OPTIMAL, SolveStatus.INFEASIBLE}


class TestDivergenceBatch:
    """The batch divergence against the scalar one of ``metrics``, row by row."""

    KINDS = (TV,) + SMOOTH[:2] + tuple(DivergenceKind.renyi(a) for a in (0.5, 2.0, 3.0, 1000.0))

    @pytest.mark.parametrize("kind", KINDS, ids=lambda k: f"{k.name}{k.alpha or ''}")
    def test_matches_metrics_row_by_row(self, kind):
        rng = np.random.default_rng(3)
        for n in (2, 3, 5):
            q = rng.dirichlet(np.ones(n), size=400)
            # Rows with one or more zero entries, vertices among them, and rows equal to p.
            q[:100, 0] = 0.0
            q[100:150, : n - 1] = 0.0
            q /= q.sum(axis=1, keepdims=True)
            q[150:150 + n] = np.eye(n)
            p = rng.dirichlet(np.ones(n))
            p_zero = p.copy()
            p_zero[-1] = 0.0
            p_zero /= p_zero.sum()
            for pp in (p, p_zero):
                batch = np.vstack([q, pp])
                got = _divergence_batch(kind, pp, batch)
                want = np.array([_divergence_arrays(kind, pp, row) for row in batch])
                inf = np.isinf(want)
                assert np.array_equal(np.isinf(got), inf)
                assert_allclose(got[~inf], want[~inf], rtol=0.0, atol=1e-13)


class TestFrozenSearchOutputs:
    """Exact outputs of eight fixed-seed searches, pinned to the last bit.

    Each case is (seed, search, divergence, alphabet size): the instance is
    ``shaped_instance`` drawn from ``default_rng(seed)``, followed by an
    interior D and P from the same generator.
    """

    STEP = {2: 0.01, 3: 0.125}
    CASES = (
        (0, grid_search_cdp, TV, 2, "0.4145373820288005", "0.40360609978925877", "0.01328189271223584", 617,
         [[0.38, 0.62], [0.81, 0.19]]),
        (1, grid_search_scdp, TV, 3, "0.4496869528172004", "0.4496869528172003", "0.1875000000000001", 48,
         [[0.0, 1.0, 0.0], [0.25, 0.0, 0.75], [0.0, 1.0, 0.0]]),
        (2, grid_search_cdp, SMOOTH[0], 3, "0.37677946424248054", "0.36687337239603524", "0.03672472674339722",
         27277, [[0.0, 1.0, 0.0], [0.0, 1.0, 0.0], [0.75, 0.0, 0.25]]),
        (3, grid_search_scdp, SMOOTH[0], 2, "0.2513895002861746", "0.2513895002861746", "0.01", 4857,
         [[0.0, 1.0], [0.69, 0.31]]),
        (4, grid_search_cdp, SMOOTH[1], 2, "0.571177187834961", "0.5685287471285903", "0.005306777339804921", 3079,
         [[0.54, 0.46], [0.01, 0.99]]),
        (5, grid_search_scdp, SMOOTH[1], 3, "0.31699824575277175", "0.31699824575277175", "0.1875", 19878,
         [[0.0, 0.75, 0.25], [0.625, 0.375, 0.0], [0.0, 0.625, 0.375]]),
        (6, grid_search_cdp, SMOOTH[3], 3, "0.5097916572051319", "0.5039734850469206", "0.010251940854934511",
         3502, [[0.375, 0.0, 0.625], [0.0, 0.5, 0.5], [0.0, 1.0, 0.0]]),
        (7, grid_search_scdp, SMOOTH[3], 2, "0.4249427200371997", "0.4249427200371997", "0.01", 2329,
         [[0.58, 0.42], [0.92, 0.08]]),
    )

    @pytest.mark.parametrize("case", CASES, ids=lambda c: f"{c[1].__name__}-{c[2].name}-{c[3]}")
    def test_outputs_are_unchanged(self, case):
        seed, search, kind, n, value, relaxed, slack, feasible, kernel = case
        rng = np.random.default_rng(seed)
        prob = shaped_instance(rng, n, n, kind)
        D = min_distortion(prob) + float(rng.uniform(0.05, 0.3))
        P = float(rng.uniform(0.01, 0.1))
        got = search(prob, D, P, self.STEP[n])
        assert got.status is SolveStatus.OPTIMAL
        assert (repr(got.value), repr(got.relaxed_value), repr(got.lipschitz_slack)) == (value, relaxed, slack)
        assert got.feasible_count == feasible
        assert got.kernel.matrix.tolist() == kernel
