"""Tradeoff solvers: routing, feasibility, budgets, and hand-derivable anchors."""

import importlib.machinery
import math
import os
import pathlib
import subprocess
import sys
from dataclasses import replace
from itertools import product

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from numpy.testing import assert_allclose

from cdptradeoff import (
    Alphabet,
    Channel,
    DecisionRegion,
    DimensionError,
    DistortionMatrix,
    DivergenceKind,
    MixtureSource,
    ProbVector,
    ProblemInstance,
    SolveStatus,
    SurfaceTable,
    bayes_error,
    divergence,
    error_rate,
    expected_distortion,
    min_distortion,
    push_forward,
    solve_cdp,
    solve_scdp,
    sweep_surface,
)
from cdptradeoff import audit, solver
from cdptradeoff.solver import BUDGET_SLACK, GENERAL_GAP_TOL

TV = DivergenceKind.total_variation()
KL = DivergenceKind.kullback_leibler()
SMOOTH = (KL, DivergenceKind.hellinger(), DivergenceKind.renyi(0.5), DivergenceKind.renyi(2.0))

D_GRID = (0.1, 0.15, 0.2, 0.25, 0.3, 0.35)
P_GRID = (0.0, 0.1, 0.2, 0.3, 0.4, 0.5)


def cell_bytes(result):
    """The bytes of a cell's value, achieved budgets and kernel."""
    kernel = b"" if result.kernel is None else result.kernel.matrix.tobytes()
    return np.array([result.value, result.achieved_distortion, result.achieved_perception]).tobytes() + kernel


def small_instance(rng, n=None, kind=TV):
    n = n if n is not None else int(rng.integers(2, 4))
    prior1 = float(rng.uniform(0.2, 0.8))
    src = MixtureSource.from_masses(prior1, 1.0 - prior1, rng.dirichlet(np.ones(n)), rng.dirichlet(np.ones(n)))
    deg = Channel.from_rows([rng.dirichlet(np.ones(n)) for _ in range(n)])
    delta = DistortionMatrix.hamming(src.alphabet)
    k = int(rng.integers(1, n))
    cls = DecisionRegion.from_indices(src.alphabet, list(rng.choice(n, size=k, replace=False)))
    return ProblemInstance(src, deg, src.alphabet, delta, kind, cls)


def smooth_cells(rng):
    """One 3-symbol instance per smooth divergence, at budgets that reach every
    exit of the cut loop: certified infeasible (by support at the minimum
    distortion, or by the cuts just above it), an anchor from epigraph rounds,
    an anchor from pinning the marginal, and an inactive perception constraint."""
    out = []
    for kind in SMOOTH:
        prob = small_instance(rng, 3, kind)
        dmin = min_distortion(prob)
        budgets = ((dmin, 0.1), (dmin + 0.01, 1e-4), (dmin + 0.01, 0.1), (dmin + 0.3, 0.01), (math.inf, 1.0))
        out += [(prob, D, P) for D, P in budgets]
    return out


def cut_exit(result):
    """Which exit of the cut loop a smooth fixed-classifier result took."""
    if not result.ok:
        return "infeasible"
    return "inactive" if result.certificate["cuts"] == 0 else result.certificate["anchor"]


class TestProblemInstance:
    def test_rejects_degrade_mismatch(self, canonical_source):
        deg = Channel.identity(Alphabet(3))
        delta = DistortionMatrix.hamming(canonical_source.alphabet)
        cls = DecisionRegion.from_indices(canonical_source.alphabet, [0])
        with pytest.raises(DimensionError):
            ProblemInstance(canonical_source, deg, canonical_source.alphabet, delta, TV, cls)

    def test_rejects_classifier_mismatch(self, canonical_source):
        delta = DistortionMatrix.hamming(canonical_source.alphabet)
        cls = DecisionRegion.from_indices(Alphabet(3), [0])
        with pytest.raises(DimensionError):
            ProblemInstance(canonical_source, Channel.bsc(0.1), canonical_source.alphabet, delta, TV, cls)

    def test_objective_weights_reproduce_error_rate(self, canonical_problem, rng):
        prob = canonical_problem()
        for _ in range(20):
            K = np.stack([rng.dirichlet(np.ones(2)) for _ in range(2)])
            restored = push_forward(prob.degraded, Channel(prob.degrade.output, prob.restore_alphabet, K))
            assert float(np.sum(prob.objective_weights * K)) == pytest.approx(
                error_rate(restored, prob.classifier), abs=1e-14
            )

    def test_distortion_weights_reproduce_expected_distortion(self, canonical_problem, rng):
        prob = canonical_problem()
        for _ in range(20):
            K = np.stack([rng.dirichlet(np.ones(2)) for _ in range(2)])
            ch = Channel(prob.degrade.output, prob.restore_alphabet, K)
            assert float(np.sum(prob.distortion_weights * K)) == pytest.approx(
                expected_distortion(prob.source, prob.degrade, ch, prob.delta), abs=1e-14
            )


class TestMinDistortion:
    def test_noiseless_hamming_is_zero(self, canonical_problem, canonical_source):
        prob = canonical_problem(degrade=Channel.identity(canonical_source.alphabet))
        assert min_distortion(prob) == 0.0

    def test_bsc_map_estimate(self, canonical_problem):
        assert min_distortion(canonical_problem()) == pytest.approx(0.1, abs=1e-15)

    def test_constant_channel_best_constant_guess(self):
        src = MixtureSource.from_masses(0.5, 0.5, [0.9, 0.1], [0.5, 0.5])  # marginal [0.7, 0.3]
        row = ProbVector(Alphabet(2), np.array([0.5, 0.5]))
        deg = Channel.constant(src.alphabet, row)
        delta = DistortionMatrix.hamming(src.alphabet)
        cls = DecisionRegion.from_indices(src.alphabet, [0])
        prob = ProblemInstance(src, deg, src.alphabet, delta, TV, cls)
        assert min_distortion(prob) == pytest.approx(0.3, abs=1e-15)


class TestSolveCdp:
    def test_unconstrained_equals_bayes_of_degraded(self, canonical_problem):
        prob = canonical_problem()
        r = solve_cdp(prob, math.inf, math.inf)
        assert r.status is SolveStatus.OPTIMAL
        assert r.value == pytest.approx(0.26, abs=1e-9)
        assert r.value == pytest.approx(bayes_error(prob.degraded), abs=1e-9)

    def test_distortion_below_minimum_is_infeasible(self, canonical_problem):
        r = solve_cdp(canonical_problem(), 0.05, math.inf)
        assert r.status is SolveStatus.INFEASIBLE
        assert not r.ok
        assert r.certificate["violated"] == "distortion"
        assert math.isnan(r.value)
        assert r.kernel is None

    def test_negative_budgets_rejected(self, canonical_problem):
        with pytest.raises(ValueError):
            solve_cdp(canonical_problem(), -0.1, math.inf)
        with pytest.raises(ValueError):
            solve_cdp(canonical_problem(), math.inf, -0.1)
        with pytest.raises(ValueError):
            solve_cdp(canonical_problem(), math.nan, math.inf)

    def test_finite_perception_needs_matching_alphabets(self, canonical_source):
        # Restoring onto a three-symbol alphabet leaves the perception
        # constraint undefined; only finite P budgets are rejected.
        restore = Alphabet(3)
        delta = DistortionMatrix(canonical_source.alphabet, restore, np.ones((2, 3)) - np.eye(2, 3))
        cls = DecisionRegion.from_indices(restore, [0])
        prob = ProblemInstance(canonical_source, Channel.bsc(0.1), restore, delta, TV, cls)
        with pytest.raises(DimensionError):
            solve_cdp(prob, math.inf, 0.5)
        assert solve_cdp(prob, math.inf, math.inf).status is SolveStatus.OPTIMAL

    def test_zero_perception_pins_the_marginal(self, canonical_problem):
        prob = canonical_problem(classifier_indices=(1,))
        r = solve_cdp(prob, 0.3, 0.0)
        assert r.status is SolveStatus.OPTIMAL
        restored = push_forward(prob.degraded, r.kernel)
        assert_allclose(restored.marginal.mass, prob.source.marginal.mass, atol=1e-9)

    def test_anti_aligned_classifier_line(self, canonical_problem):
        # With the classifier pointing the wrong way, each unit of allowed
        # distortion buys error reduction at the margin rate 0.6.
        prob = canonical_problem(classifier_indices=(1,))
        for d, want in [(0.1, 0.74), (0.3, 0.62), (0.5, 0.5), (0.7, 0.38), (0.9, 0.26)]:
            r = solve_cdp(prob, d, math.inf)
            assert r.value == pytest.approx(want, abs=1e-9), f"D={d}"

    def test_zero_perception_kl_matches_total_variation(self, canonical_problem):
        # At P=0 every divergence pins the marginal, so the kind cannot matter.
        tv_val = solve_cdp(canonical_problem(classifier_indices=(1,)), 0.1, 0.0).value
        kl_val = solve_cdp(canonical_problem(kind=KL, classifier_indices=(1,)), 0.1, 0.0).value
        assert kl_val == pytest.approx(tv_val, abs=1e-9)
        assert tv_val == pytest.approx(0.74, abs=1e-9)

    def test_optimal_results_respect_budgets(self, rng):
        for _ in range(25):
            prob = small_instance(rng)
            dmin = min_distortion(prob)
            D = dmin + float(rng.uniform(0.0, 0.4))
            P = float(rng.uniform(0.01, 0.4))
            r = solve_cdp(prob, D, P)
            if r.status is SolveStatus.OPTIMAL:
                assert r.achieved_distortion <= D + 1e-8
                assert r.achieved_perception <= P + 1e-8

    def test_value_replays_from_kernel(self, rng):
        for _ in range(25):
            prob = small_instance(rng)
            r = solve_cdp(prob, min_distortion(prob) + 0.2, 0.3)
            if not r.ok:
                continue
            restored = push_forward(prob.degraded, r.kernel)
            assert r.value == pytest.approx(error_rate(restored, prob.classifier), abs=1e-10)
            assert r.achieved_distortion == pytest.approx(
                expected_distortion(prob.source, prob.degrade, r.kernel, prob.delta), abs=1e-10
            )
            assert r.achieved_perception == pytest.approx(
                divergence(prob.divergence, prob.source.marginal, restored.marginal), abs=1e-10
            )

    def test_deterministic_across_calls(self, canonical_problem):
        prob = canonical_problem(classifier_indices=(1,))
        a = solve_cdp(prob, 0.25, 0.1)
        b = solve_cdp(prob, 0.25, 0.1)
        assert a.value == b.value
        assert_allclose(a.kernel.matrix, b.kernel.matrix, atol=0.0)

    def test_results_are_slotted(self, canonical_problem):
        # Sweeps keep one result per cell, so results and kernels carry no
        # per-instance __dict__.
        r = solve_cdp(canonical_problem(), 0.2, 0.3)
        assert not hasattr(r, "__dict__") and not hasattr(r.kernel, "__dict__")

    def test_certificate_carries_diagnostics(self, canonical_problem):
        r = solve_cdp(canonical_problem(), 0.2, 0.3)
        for key in ("method", "iterations", "duality_gap", "violated", "notes"):
            assert key in r.certificate

    def test_smooth_kind_budgets_respected(self, canonical_problem):
        prob = canonical_problem(kind=KL, classifier_indices=(1,))
        r = solve_cdp(prob, 0.3, 0.05)
        assert r.ok
        assert r.achieved_distortion <= 0.3 + 1e-8
        assert r.achieved_perception <= 0.05 + 1e-8

    def test_kl_cell_once_left_uncertified_is_optimal(self):
        # Solved by dual bisection, this cell hit a 10,000-iteration cap
        # with its gap still at 5.8e-6.
        prob = audit.random_instance(np.random.default_rng(5), KL)
        r = solve_cdp(prob, min_distortion(prob) + 0.15, 0.05)
        assert r.status is SolveStatus.OPTIMAL
        assert r.certificate["duality_gap"] <= GENERAL_GAP_TOL

    @pytest.mark.filterwarnings("error")
    def test_smooth_cells_certify_their_gap(self, rng):
        # Cuts near the simplex boundary stay finite (no overflow warning),
        # and a smooth cell is Optimal exactly when its gap is within the
        # tolerance.
        for prob, D, P in smooth_cells(rng):
            for r in (solve_cdp(prob, D, P), solve_scdp(prob, D, P)):
                cert = r.certificate
                assert isinstance(cert["iterations"], int)
                if r.ok:
                    assert (r.status is SolveStatus.OPTIMAL) == (cert["duality_gap"] <= GENERAL_GAP_TOL)
                    assert r.achieved_distortion <= D + BUDGET_SLACK
                    assert r.achieved_perception <= P + BUDGET_SLACK
                if cert["method"] == "cuts":
                    assert isinstance(cert["lp_solves"], int) and isinstance(cert["cuts"], int)

    def test_tightening_either_budget_never_helps(self, rng):
        for _ in range(10):
            prob = small_instance(rng)
            dmin = min_distortion(prob)
            loose = solve_cdp(prob, dmin + 0.3, 0.4)
            tight_d = solve_cdp(prob, dmin + 0.1, 0.4)
            tight_p = solve_cdp(prob, dmin + 0.3, 0.1)
            for tight in (tight_d, tight_p):
                if tight.status is SolveStatus.OPTIMAL and loose.status is SolveStatus.OPTIMAL:
                    assert tight.value >= loose.value - 1e-9


class TestSolveScdp:
    def test_unconstrained_equals_bayes_of_degraded(self, canonical_problem):
        r = solve_scdp(canonical_problem(), math.inf, math.inf)
        assert r.status is SolveStatus.OPTIMAL
        assert r.value == pytest.approx(0.26, abs=1e-9)

    def test_noiseless_pipeline_recovers_source_bayes(self, canonical_problem, canonical_source):
        prob = canonical_problem(degrade=Channel.identity(canonical_source.alphabet))
        r = solve_scdp(prob, math.inf, math.inf)
        assert r.value == pytest.approx(0.2, abs=1e-9)

    def test_classifier_field_is_ignored(self, canonical_problem):
        a = solve_scdp(canonical_problem(classifier_indices=(0,)), 0.3, 0.2)
        b = solve_scdp(canonical_problem(classifier_indices=(1,)), 0.3, 0.2)
        assert a.value == b.value

    def test_never_below_degraded_bayes_error(self, rng):
        # Restoration is data processing on Y, so the restored Bayes error
        # cannot drop below the Bayes error of Y.
        for _ in range(20):
            prob = small_instance(rng)
            r = solve_scdp(prob, min_distortion(prob) + float(rng.uniform(0.05, 0.4)), float(rng.uniform(0.05, 0.5)))
            if r.ok:
                assert r.value >= bayes_error(prob.degraded) - 1e-9

    def test_value_replays_from_kernel(self, rng):
        for _ in range(15):
            prob = small_instance(rng)
            r = solve_scdp(prob, min_distortion(prob) + 0.2, 0.3)
            if not r.ok:
                continue
            restored = push_forward(prob.degraded, r.kernel)
            assert r.value == pytest.approx(bayes_error(restored), abs=1e-10)

    def test_infeasible_distortion_diagnosed(self, canonical_problem):
        r = solve_scdp(canonical_problem(), 0.01, math.inf)
        assert r.status is SolveStatus.INFEASIBLE
        assert r.certificate["violated"] == "distortion"

    def test_deterministic_across_calls(self, canonical_problem):
        prob = canonical_problem()
        a = solve_scdp(prob, 0.3, 0.15)
        b = solve_scdp(prob, 0.3, 0.15)
        assert a.value == b.value
        assert_allclose(a.kernel.matrix, b.kernel.matrix, atol=0.0)

    def test_certificate_counts_regions(self, canonical_problem):
        r = solve_scdp(canonical_problem(), 0.3, 0.2)
        cert = r.certificate
        assert cert["method"] == "regions"
        assert cert["regions_solved"] + cert["regions_pruned"] == cert["enumerated"] == 2**2
        assert isinstance(cert["iterations"], int)
        assert cert["duality_gap"] == 0.0
        assert r.status is SolveStatus.OPTIMAL

    def test_equals_minimum_over_regions_of_fixed_solve(self, rng):
        # C_S(D, P) = min_R C(D, P; R): the strong value is the fixed-classifier
        # surface minimized over every decision region of the restoration alphabet.
        for kind, tol in ((TV, 1e-12), (KL, GENERAL_GAP_TOL)):
            for _ in range(12):
                prob = small_instance(rng, kind=kind)
                D = min_distortion(prob) + float(rng.uniform(0.0, 0.3))
                P = float(rng.uniform(0.0, 0.3))
                strong = solve_scdp(prob, D, P)
                fixed = [
                    solve_cdp(replace(prob, classifier=DecisionRegion(prob.restore_alphabet, np.array(members))), D, P)
                    for members in product((False, True), repeat=prob.restore_alphabet.size)
                ]
                assert strong.ok == all(r.ok for r in fixed)
                if strong.ok:
                    assert strong.value == pytest.approx(min(r.value for r in fixed), abs=tol)

    def test_stops_once_the_bound_is_within_rounding_of_the_best_value(self, monkeypatch):
        # The best kernel attains the degraded Bayes error, which is the bound
        # of every nontrivial region, but its own Bayes error rounds 5.6e-17
        # above it.  An exact comparison solves all 2^3 - 2 nontrivial regions.
        src = MixtureSource.from_masses(0.4, 0.6, np.array([2, 7, 9]) / 18, np.array([1, 6, 1]) / 8)
        deg = Channel.from_rows([np.array([3, 2, 5]) / 10, np.array([1, 4, 2]) / 7, np.array([4, 3, 6]) / 13])
        cls = DecisionRegion.from_indices(src.alphabet, [0])
        prob = ProblemInstance(src, deg, src.alphabet, DistortionMatrix.hamming(src.alphabet), TV, cls)
        r = solve_scdp(prob, 0.91, 0.02)
        monkeypatch.setattr(solver, "REGION_STOP_TOL", 0.0)
        exhaustive = solve_scdp(prob, 0.91, 0.02)
        assert exhaustive.certificate["regions_solved"] == 2**3 - 2
        assert r.certificate["regions_solved"] < exhaustive.certificate["regions_solved"]
        assert r.status is SolveStatus.OPTIMAL
        assert abs(r.value - exhaustive.value) <= 1e-12
        assert 0.0 <= r.certificate["duality_gap"] <= 1e-12


class TestSweepSurface:
    def test_singleton_grid_matches_point_solve(self, canonical_problem):
        prob = canonical_problem()
        table = sweep_surface(prob, [math.inf], [math.inf], "cdp")
        assert isinstance(table, SurfaceTable)
        assert table.cells[0][0].value == solve_cdp(prob, math.inf, math.inf).value

    def test_rejects_bad_grids(self, canonical_problem):
        prob = canonical_problem()
        with pytest.raises(ValueError):
            sweep_surface(prob, [], [0.1], "cdp")
        with pytest.raises(ValueError):
            sweep_surface(prob, [0.3, 0.1], [0.1], "cdp")
        with pytest.raises(ValueError):
            sweep_surface(prob, [-0.1, 0.3], [0.1], "cdp")
        with pytest.raises(ValueError):
            sweep_surface(prob, [0.1], [0.1], "nope")

    def test_infeasible_cells_marked_not_raised(self, canonical_problem):
        table = sweep_surface(canonical_problem(), [0.05, 0.2], [0.1], "cdp")
        assert table.cells[0][0].status is SolveStatus.INFEASIBLE
        assert table.cells[1][0].status is SolveStatus.OPTIMAL
        vm = table.value_matrix()
        assert math.isnan(vm[0, 0]) and not math.isnan(vm[1, 0])

    def test_canonical_grid_monotone_both_surfaces(self, canonical_problem):
        prob = canonical_problem()
        for which in ("cdp", "scdp"):
            vm = sweep_surface(prob, D_GRID, P_GRID, which).value_matrix()
            assert not np.isnan(vm).any()
            assert (np.diff(vm, axis=0) <= 1e-9).all(), which
            assert (np.diff(vm, axis=1) <= 1e-9).all(), which

    def test_strong_surface_never_above_fixed(self, canonical_problem):
        prob = canonical_problem()
        cdp = sweep_surface(prob, D_GRID, P_GRID, "cdp").value_matrix()
        scdp = sweep_surface(prob, D_GRID, P_GRID, "scdp").value_matrix()
        mask = ~(np.isnan(cdp) | np.isnan(scdp))
        assert (scdp[mask] <= cdp[mask] + 1e-8).all()

    @pytest.mark.parametrize("which", ["cdp", "scdp"])
    def test_independent_of_evaluation_order(self, which, rng):
        # Every cell is a pure function of (instance, D, P): no model, basis or
        # warm start outlives a call, so any order gives the same bytes.
        solve = solve_cdp if which == "cdp" else solve_scdp
        for kind in (TV, KL):
            for n in (3, 4):
                prob = small_instance(rng, n, kind)
                dmin = min_distortion(prob)
                d_grid = (0.5 * dmin, dmin, dmin + 0.05, dmin + 0.2, math.inf)
                p_grid = (0.0, 0.02, 0.1, 0.3, math.inf)
                table = sweep_surface(prob, d_grid, p_grid, which)
                cells = [(i, j) for i in range(len(d_grid)) for j in range(len(p_grid))]
                shuffled = list(cells)
                rng.shuffle(shuffled)
                for order in (cells[::-1], shuffled):
                    again = {(i, j): solve(prob, d_grid[i], p_grid[j]) for i, j in order}
                    for i, j in cells:
                        assert cell_bytes(again[i, j]) == cell_bytes(table.cells[i][j]), (kind.name, n, i, j)


class TestLpPaths:
    """Every LP goes from ``_lp_model``'s column-wise arrays straight to HiGHS;
    a dense replay through ``scipy.optimize.linprog`` checks those arrays."""

    @staticmethod
    def cells(rng):
        out = []
        for t in range(24):
            n = int(rng.integers(2, 5))
            prob = small_instance(rng, n)
            if t % 3 == 1:  # degradation onto a larger alphabet: a rectangular kernel
                m = n + int(rng.integers(1, 3))
                prob = replace(prob, degrade=Channel.from_rows(rng.dirichlet(np.ones(m), size=n)))
            dmin = min_distortion(prob)
            d_grid = (0.5 * dmin, dmin, dmin + float(rng.uniform(0.01, 0.3)), math.inf)
            p_grid = (0.0, float(rng.uniform(0.005, 0.03)), math.inf)
            out += [(prob, D, P) for D in d_grid for P in p_grid]
        # A restoration alphabet of another size leaves perception undefined.
        src = MixtureSource.from_masses(0.3, 0.7, rng.dirichlet(np.ones(3)), rng.dirichlet(np.ones(3)))
        restore = Alphabet(4)
        delta = DistortionMatrix(src.alphabet, restore, rng.uniform(0.0, 1.0, size=(3, 4)))
        cls = DecisionRegion.from_indices(restore, [0, 2])
        prob = ProblemInstance(src, Channel.from_rows(rng.dirichlet(np.ones(3), size=3)), restore, delta, TV, cls)
        out += [(prob, D, math.inf) for D in (min_distortion(prob), min_distortion(prob) + 0.1)]
        # Smooth divergences add cut rows and the epigraph column to the arrays.
        return out + smooth_cells(rng)

    def test_lp_solves_leave_scipy_optimize_unimported(self):
        # The bindings are loaded on their own: an LP solve needs none of the
        # ~550 modules (48 MB) a scipy.optimize import brings in.
        code = (
            "import math, sys\n"
            "from cdptradeoff import Channel, DecisionRegion, DistortionMatrix, DivergenceKind, MixtureSource\n"
            "from cdptradeoff import ProblemInstance, solve_cdp, solve_scdp\n"
            "src = MixtureSource.from_masses(0.5, 0.5, [0.8, 0.2], [0.2, 0.8])\n"
            "prob = ProblemInstance(src, Channel.bsc(0.1), src.alphabet, DistortionMatrix.hamming(src.alphabet),\n"
            "                       DivergenceKind.kullback_leibler(), DecisionRegion.from_indices(src.alphabet, [0]))\n"
            "assert solve_cdp(prob, 0.3, 0.0).ok and solve_scdp(prob, 0.3, 0.0).ok and solve_cdp(prob, 0.2, math.inf).ok\n"
            "skewed = MixtureSource.from_masses(0.3, 0.7, [0.9, 0.1], [0.25, 0.75])\n"
            "kl = ProblemInstance(skewed, Channel.bsc(0.1), skewed.alphabet, DistortionMatrix.hamming(skewed.alphabet),\n"
            "                     DivergenceKind.kullback_leibler(), DecisionRegion.from_indices(skewed.alphabet, [1]))\n"
            "assert solve_cdp(kl, 0.3, 0.05).certificate['cuts'] > 0\n"
            "print(sorted(m for m in sys.modules if m.startswith('scipy.optimize') and not m.startswith('scipy.optimize._highspy')))\n"
        )
        src_dir = str(pathlib.Path(solver.__file__).resolve().parent.parent)
        env = dict(os.environ, PYTHONPATH=os.pathsep.join([src_dir, os.environ.get("PYTHONPATH", "")]))
        out = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True, env=env, check=True)
        assert out.stdout.strip() == "[]"

    def test_lp_models_agree_with_a_dense_linprog_replay(self, rng, monkeypatch):
        # The reference rebuilds each model as dense matrices and solves it
        # through scipy.optimize.linprog at the solver's tolerances,
        # independently of the column-wise arrays the solver hands to HiGHS.
        from scipy.optimize import linprog

        cells = self.cells(rng)
        models, calls = [], []

        def recorded(*args, **kwargs):
            models.append(lp_model(*args, **kwargs))
            return models[-1]

        lp_model = solver._lp_model
        monkeypatch.setattr(solver, "_lp_model", recorded)
        monkeypatch.setattr(solver, "linprog", lambda *args, **kwargs: calls.append(1))
        results = [(solve_cdp(*c), solve_scdp(*c)) for c in cells]
        assert not calls
        violated, exits = set(), set()
        for (prob, D, P), pair in zip(cells, results):
            if prob.divergence != TV:
                exits.add(cut_exit(pair[0]))
            for r in pair:
                violated.add(r.certificate["violated"])
                if r.ok:
                    assert r.achieved_distortion <= D + BUDGET_SLACK
                    if math.isfinite(P):
                        assert r.achieved_perception <= P + BUDGET_SLACK
        assert violated == {None, "distortion", "perception"}
        assert exits == {"infeasible", "epigraph", "pinned", "inactive"}

        for model in models:
            x, _ = solver._solve_lp(model)
            A = np.zeros((len(model.row_lower), len(model.c)))
            A[model.index, np.repeat(np.arange(len(model.c)), np.diff(model.start))] = model.value
            eq = model.row_lower == model.row_upper
            ref = linprog(
                model.c,
                A_ub=A[~eq],
                b_ub=model.row_upper[~eq],
                A_eq=A[eq],
                b_eq=model.row_upper[eq],
                bounds=np.column_stack((model.col_lower, model.col_upper)),
                method="highs",
                options={**solver._HIGHS_OPTIONS, "presolve": False},
            )
            assert ref.status in (0, 2), ref.message
            assert (x is None) == (ref.status == 2)
            if x is not None:
                assert abs(model.c @ x - ref.fun) <= 1e-12

    def test_interior_point_retry_takes_over_from_a_stalled_simplex(self, rng, monkeypatch):
        # On some LPs with many steep cut rows the dual simplex stops outside
        # its primal tolerance; the retry solves the same arrays by interior point.
        cells = smooth_cells(rng)
        expected = [solve_cdp(*c) for c in cells]
        run = solver._highs_run

        def stalled(model, tolerances, ipm):
            return run(model, tolerances, ipm) if ipm else ("Unknown", None, 0)

        monkeypatch.setattr(solver, "_highs_run", stalled)
        for (prob, D, P), want in zip(cells, expected):
            got = solve_cdp(prob, D, P)
            assert got.status is want.status
            if got.ok:
                slack = got.certificate["duality_gap"] + want.certificate["duality_gap"]
                assert abs(got.value - want.value) <= slack + 1e-9

    def test_missing_highs_bindings_name_the_scipy_floor(self, monkeypatch):
        monkeypatch.delitem(sys.modules, "scipy.optimize._highspy._core")
        monkeypatch.setattr(importlib.machinery, "EXTENSION_SUFFIXES", [])
        with pytest.raises(ImportError, match=r"scipy>=1\.15"):
            solver._load_highs()


class TestRandomizedKernelProperties:
    @given(seed=st.integers(min_value=0, max_value=2**32 - 1))
    @settings(max_examples=15, deadline=None)
    def test_blending_kernels_blends_fixed_error(self, seed):
        rng = np.random.default_rng(seed)
        prob = small_instance(rng)
        ny, nxh = prob.kernel_shape
        k1 = np.stack([rng.dirichlet(np.ones(nxh)) for _ in range(ny)])
        k2 = np.stack([rng.dirichlet(np.ones(nxh)) for _ in range(ny)])
        lam = float(rng.uniform())
        blend = lam * k1 + (1.0 - lam) * k2

        def err(K):
            restored = push_forward(prob.degraded, Channel(prob.degrade.output, prob.restore_alphabet, K))
            return error_rate(restored, prob.classifier)

        assert err(blend) == pytest.approx(lam * err(k1) + (1.0 - lam) * err(k2), abs=1e-12)
