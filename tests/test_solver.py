"""Tradeoff solvers: routing, feasibility, budgets, and hand-derivable anchors."""

import copy
import hashlib
import importlib.machinery
import math
import os
import pathlib
import pickle
import subprocess
import sys
import threading
import tracemalloc
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


@pytest.fixture
def fresh_highs():
    """Take this thread's HiGHS instance away for the test, so its first LP
    builds a fresh one; at teardown the old instance, or none, is back, so no
    instance built in the test outlives it."""
    slot = vars(solver._local)
    old = slot.pop("highs", None)
    yield
    slot.pop("highs", None)
    if old is not None:
        slot["highs"] = old


@pytest.fixture
def stalling_highs(monkeypatch, fresh_highs):
    """``install(stall)`` makes every HiGHS instance the solver builds from
    then on report status Unknown, with no iterations and without solving, on
    each simplex attempt whose index within the instance satisfies ``stall``.
    It returns a list that gets one list per instance, of the options each of
    its runs read back."""
    instances, highs = [], solver._highspy._Highs

    def install(stall):
        class Stalling:
            def __init__(self):
                self.highs, self.runs, self.stalled = highs(), [], False
                instances.append(self.runs)

            def __getattr__(self, name):
                return getattr(self.highs, name)

            def run(self):
                names = ("solver", "presolve", *solver._HIGHS_OPTIONS)
                self.runs.append({name: self.highs.getOptionValue(name)[1] for name in names})
                attempt = sum(r["solver"] != "ipm" for r in self.runs) - 1
                self.stalled = self.runs[-1]["solver"] != "ipm" and stall(attempt)
                return solver._highspy.HighsStatus.kOk if self.stalled else self.highs.run()

            def getModelStatus(self):
                return solver._highspy.HighsModelStatus.kUnknown if self.stalled else self.highs.getModelStatus()

            def getInfoValue(self, name):
                return (solver._highspy.HighsStatus.kOk, 0) if self.stalled else self.highs.getInfoValue(name)

        vars(solver._local).pop("highs", None)
        monkeypatch.setattr(solver._highspy, "_Highs", Stalling)
        return instances

    return install


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

    @pytest.mark.parametrize("side", ["source", "target"])
    def test_rejects_distortion_mismatch(self, canonical_source, side):
        a2, a3 = canonical_source.alphabet, Alphabet(3)
        delta = DistortionMatrix(a3, a2, np.ones((3, 2)))
        if side == "target":
            delta = DistortionMatrix(a2, a3, np.ones((2, 3)))
        cls = DecisionRegion.from_indices(a2, [0])
        with pytest.raises(DimensionError, match=f"distortion {side}"):
            ProblemInstance(canonical_source, Channel.bsc(0.1), a2, delta, TV, cls)

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
        # Every method's certificate carries the same counter keys; a cut solve
        # also names its anchor, and a strong solve counts its regions.
        shared = {"method", "iterations", "lp_solves", "cuts", "duality_gap", "violated", "notes"}
        own = {"cuts": {"anchor"}, "regions": {"regions_solved", "regions_pruned", "enumerated"}}
        tv, kl = canonical_problem(), canonical_problem(kind=KL, classifier_indices=(1,))
        cells = {
            "precheck": solve_cdp(tv, 0.01, math.inf),
            "vertex": solve_cdp(tv, math.inf, math.inf),
            "lp": solve_cdp(tv, 0.2, 0.3),
            "cuts": solve_cdp(kl, 0.3, 0.05),
            "regions": solve_scdp(tv, 0.3, 0.2),
        }
        for method, r in cells.items():
            cert = r.certificate
            assert cert["method"] == method
            assert set(cert) == shared | own.get(method, set())
            assert all(type(cert[key]) is int for key in ("iterations", "lp_solves", "cuts"))

    def test_certificate_is_a_read_only_slotted_mapping(self, canonical_problem):
        # Each certificate has the items, in order and of the types, that a
        # dict certificate held, and is read-only, smaller than that dict, and
        # copied and pickled with its result.  The outcomes that solve no LP
        # share one constant certificate each, whose note names the minimum.
        precheck = {"method": "precheck", "iterations": 0, "lp_solves": 0, "cuts": 0, "duality_gap": None}
        precheck |= {"violated": "distortion", "notes": "distortion budget below min_distortion(prob)"}
        vertex = {"method": "vertex", "iterations": 0, "lp_solves": 0, "cuts": 0, "duality_gap": 0.0}
        vertex |= {"violated": None, "notes": "unconstrained: per-output-symbol minimization"}
        lp = {"method": "lp", "iterations": 3, "lp_solves": 1, "cuts": 0, "duality_gap": 0.0, "violated": None}
        lp |= {"notes": "one linear program, solved by HiGHS"}
        cuts = {"method": "cuts", "iterations": 8, "lp_solves": 2, "cuts": 0, "duality_gap": 0.0, "violated": None}
        cuts |= {"notes": "LP plus tangent cuts of the divergence", "anchor": "pinned"}
        regions = {"method": "regions", "iterations": 3, "lp_solves": 1, "cuts": 0, "duality_gap": 0.0}
        regions |= {"violated": None, "notes": "minimum of the fixed-classifier solve over decision regions"}
        regions |= {"regions_solved": 1, "regions_pruned": 3, "enumerated": 4}
        tv, kl = canonical_problem(), canonical_problem(kind=KL, classifier_indices=(1,))
        cells = [
            (solve_cdp(tv, 0.01, math.inf), precheck),
            (solve_scdp(tv, 0.01, math.inf), precheck),
            (solve_cdp(tv, math.inf, math.inf), vertex),
            (solve_cdp(tv, 0.2, 0.3), lp),
            (solve_cdp(kl, 0.3, 0.05), cuts),
            (solve_scdp(tv, 0.3, 0.2), regions),
        ]
        for r, want in cells:
            cert = r.certificate
            items = list(dict(cert).items())
            assert items == list(want.items())
            assert [type(v) for _, v in items] == [type(v) for v in want.values()]
            assert cert == want and want == cert and cert != {**want, "notes": ""}
            with pytest.raises(TypeError):
                cert["method"] = "lp"
            for name in ("method", "extra"):
                with pytest.raises(AttributeError):
                    setattr(cert, name, "lp")
            assert not hasattr(cert, "__dict__")
            assert sys.getsizeof(cert) < sys.getsizeof(want)
            for copied in (pickle.loads(pickle.dumps(r)), copy.deepcopy(r)):
                assert type(copied.certificate) is type(cert) and copied.certificate == cert
                assert cell_bytes(copied) == cell_bytes(r) and copied.status is r.status
        assert cells[0][0].certificate is cells[1][0].certificate

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


def wide_instance(n_restored, rng):
    """A 4-symbol source seen through a random channel onto 4 outputs and
    restored onto ``n_restored`` symbols at random costs; P must be inf."""
    src = MixtureSource.from_masses(0.45, 0.55, rng.dirichlet(np.ones(4)), rng.dirichlet(np.ones(4)))
    deg = Channel.from_rows([rng.dirichlet(np.ones(4)) for _ in range(4)])
    restore = Alphabet(n_restored)
    delta = DistortionMatrix(src.alphabet, restore, rng.uniform(size=(4, n_restored)))
    return ProblemInstance(src, deg, restore, delta, TV, DecisionRegion.from_indices(restore, [0]))


class TestStrongSolveHoldsOneRegion:
    def test_unconstrained_cell_of_16_symbols_allocates_no_region_stack(self):
        # The stacked region weights of 2^16 regions took 37 MB.
        prob = wide_instance(16, np.random.default_rng(3))
        tracemalloc.start()
        try:
            r = solve_scdp(prob, math.inf, math.inf)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert r.status is SolveStatus.OPTIMAL and r.certificate["regions_solved"] == 1
        assert peak < 1e6

    def test_unconstrained_cell_of_40_symbols_solves_one_region(self):
        # Every region but the two ends has the degraded Bayes error as its
        # bound, and the first of them solved attains it.
        prob = wide_instance(40, np.random.default_rng(4))
        r = solve_scdp(prob, math.inf, math.inf)
        cert = r.certificate
        assert r.status is SolveStatus.OPTIMAL
        assert r.value == pytest.approx(bayes_error(prob.degraded), abs=1e-12)
        assert (cert["regions_solved"], cert["regions_pruned"], cert["enumerated"]) == (1, 2**40 - 1, 2**40)


def strong_instances():
    """Strong instances that reach every order of the region visit: the empty
    region tied with the shared bound, the full region tied with it, a single
    restored symbol, a rectangular channel, and KL."""
    three, one = Alphabet(3), Alphabet(1)
    deg3 = Channel.from_rows([[0.7, 0.2, 0.1], [0.15, 0.7, 0.15], [0.1, 0.2, 0.7]])
    masses = ([0.5, 0.3, 0.2], [0.3, 0.4, 0.3])
    binary = MixtureSource.from_masses(0.5, 0.5, [0.8, 0.2], [0.2, 0.8])
    sources = [MixtureSource.from_masses(0.3, 0.7, *masses), MixtureSource.from_masses(0.7, 0.3, *masses[::-1])]
    probs = [
        ProblemInstance(src, deg3, three, DistortionMatrix.hamming(three), TV, DecisionRegion.from_indices(three, [0]))
        for src in sources
    ]
    one_cost = DistortionMatrix(binary.alphabet, one, [[0.3], [0.6]])
    probs.append(ProblemInstance(binary, Channel.bsc(0.1), one, one_cost, TV, DecisionRegion(one, [True])))
    to_two = Channel(three, Alphabet(2), np.array([[0.8, 0.2], [0.5, 0.5], [0.1, 0.9]]))
    cost = DistortionMatrix(three, three, [[0.0, 0.4, 1.0], [0.5, 0.0, 0.5], [1.0, 0.4, 0.0]])
    src = MixtureSource.from_masses(0.4, 0.6, *masses)
    probs.append(ProblemInstance(src, to_two, three, cost, TV, DecisionRegion.from_indices(three, [1])))
    probs.append(small_instance(np.random.default_rng(7), 3, KL))
    return probs


def strong_cells():
    """(instance, D, P) over budgets from below the minimum distortion to none."""
    cells = []
    for prob in strong_instances():
        dmin = min_distortion(prob)
        ps = (0.0, 0.02, 0.15, math.inf) if prob.perception_defined() else (math.inf,)
        for D in (max(dmin - 0.05, 0.0), dmin, dmin + 0.05, dmin + 0.3, math.inf):
            cells += [(prob, D, P) for P in ps]
    return cells


class TestFrozenStrongSolves:
    """SHA-256 over the status, value, achieved budgets, kernel bytes and
    certificate items of fixed strong cells, pinned to the byte: the order in
    which regions are visited and where the visit stops show in the counters,
    the gap and the kernel."""

    DIGEST = "d3181478db4669db468276c5cbf0519af658bfd8bd29dcc04899fcee626568c7"

    def test_cells_are_unchanged(self):
        h = hashlib.sha256()
        for prob, D, P in strong_cells():
            r = solve_scdp(prob, D, P)
            h.update(r.status.value.encode() + cell_bytes(r) + repr(list(dict(r.certificate).items())).encode())
        assert h.hexdigest() == self.DIGEST

    def test_an_end_region_ties_the_shared_bound(self):
        # Class 2 outweighs class 1 at every output of the first instance, so
        # the empty region's bound equals that of every nontrivial region; class
        # 1 does in the second, so the full region's does.
        empty_tie, full_tie = strong_instances()[:2]
        for prob, tied in ((empty_tie, 1), (full_tie, 0)):
            weights = prob.class_weights  # (w_in, w_out)
            shared = np.add.reduce(np.minimum(*weights))
            assert np.add.reduce(weights[tied]) == shared < np.add.reduce(weights[1 - tied])


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
            sweep_surface(prob, [0.1], [math.nan], "cdp")
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

    def test_independent_of_evaluation_order_across_instances_and_kinds(self, rng, fresh_highs):
        # The thread's one HiGHS instance carries nothing from a cell to the
        # next whatever the instance or kind of either: solved in shuffled
        # mixes of total-variation LP cells of several instances, a KL cut
        # cell, a strong cell and an infeasible LP, every cell gives the bytes
        # and certificate of a solve of it alone on a fresh instance.
        cells = []
        for n in (2, 3, 4, 5):
            prob = small_instance(rng, n)
            cells += [(solve_cdp, prob, min_distortion(prob) + d, p) for d, p in ((0.05, 0.02), (0.3, 0.1))]
        kl = small_instance(rng, 3, KL)
        cells += [(solve_cdp, kl, min_distortion(kl) + 0.3, 0.01), (solve_scdp, kl, min_distortion(kl) + 0.1, 0.02)]
        tv = small_instance(rng, 3)
        cells += [(solve_scdp, tv, min_distortion(tv) + 0.1, 0.05), (solve_cdp, tv, min_distortion(tv), 0.0)]

        def alone(cell):
            vars(solver._local).pop("highs", None)
            solve, prob, D, P = cell
            return solve(prob, D, P)

        want = [alone(cell) for cell in cells]
        methods = [(r.certificate["method"], r.certificate["violated"], r.certificate["cuts"] > 0) for r in want]
        assert methods.count(("lp", None, False)) == 8
        assert ("cuts", None, True) in methods and ("regions", None, True) in methods
        assert ("regions", None, False) in methods and ("lp", "perception", False) in methods
        vars(solver._local).pop("highs", None)
        for _ in range(3):
            order = rng.permutation(len(cells))
            got = {i: cells[i][0](*cells[i][1:]) for i in order}
            for i, r in enumerate(want):
                assert cell_bytes(got[i]) == cell_bytes(r), i
                assert dict(got[i].certificate) == dict(r.certificate), i


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

        engine = solver._Engine()  # one instance, cleared between models
        for model in models:
            x = engine.run(model)
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

    def test_lp_model_writes_the_documented_rows(self, rng, monkeypatch):
        # Each model, expanded to a dense matrix, is exactly the LP that the
        # reference below writes entry by entry from G, p_Y, p_X, the cuts and
        # the budgets: the distortion row when D is finite; the slack pairs and
        # the total-variation row when P is finite and there are no cuts, or one
        # scaled row per cut against the epigraph column; the stochastic rows.
        calls = []
        lp_model = solver._lp_model

        def recorded(prob, cost, D, P, cuts=None):
            calls.append(((prob, cost, D, P, cuts), lp_model(prob, cost, D, P, cuts)))
            return calls[-1][1]

        monkeypatch.setattr(solver, "_lp_model", recorded)
        for cell in self.cells(rng):
            solve_cdp(*cell)
            solve_scdp(*cell)
        assert any(args[4] is not None for args, _ in calls)

        for (prob, cost, D, P, cuts), model in calls:
            ny, nxh = prob.kernel_shape
            nk = ny * nxh
            G, p_y, p_x = prob.distortion_weights, prob.p_y, prob.p_x
            slopes, offsets = cuts if cuts is not None else ((), ())
            has_p = math.isfinite(P) and not len(offsets)
            kernel = [(y, j) for y in range(ny) for j in range(nxh)]  # column c holds K[y, j]
            rows = []  # ({column: value}, lower, upper)
            if math.isfinite(D):
                rows.append(({c: G[y, j] for c, (y, j) in enumerate(kernel)}, -math.inf, D))
            if has_p:
                for j in range(nxh):
                    column = {c: p_y[y] for c, (y, k) in enumerate(kernel) if k == j}
                    rows.append(({**column, nk + j: -1.0}, -math.inf, p_x[j]))
                    rows.append(({**{c: -v for c, v in column.items()}, nk + j: -1.0}, -math.inf, -p_x[j]))
                rows.append(({nk + j: 0.5 for j in range(nxh)}, -math.inf, P))
            for g, h in zip(slopes, offsets):
                scale = max(1.0, *(abs(v) for v in g))
                row = {c: p_y[y] * (g[j] / scale) for c, (y, j) in enumerate(kernel)}
                rows.append(({**row, nk: -1.0 / scale}, -math.inf, h / scale))
            for y in range(ny):
                rows.append(({c: 1.0 for c, (z, _) in enumerate(kernel) if z == y}, 1.0, 1.0))
            col_upper = [1.0] * nk + ([2.0] * nxh if has_p else []) + ([P] if len(offsets) else [])
            dense = np.zeros((len(rows), len(col_upper)))
            for r, (entries, _, _) in enumerate(rows):
                for c, v in entries.items():
                    dense[r, c] = v

            assert model.index.dtype == model.start.dtype == np.int32
            assert len(model.start) == len(col_upper) + 1 and model.start[0] == 0
            assert model.start[-1] == len(model.value) == len(model.index)
            for i in range(len(col_upper)):
                assert np.all(np.diff(model.index[model.start[i] : model.start[i + 1]]) > 0)
            assert np.all(model.value != 0.0)
            A = np.zeros(dense.shape)
            A[model.index, np.repeat(np.arange(len(col_upper)), np.diff(model.start))] = model.value
            assert np.array_equal(A, dense)
            assert np.array_equal(model.row_lower, [lo for _, lo, _ in rows])
            assert np.array_equal(model.row_upper, [hi for _, _, hi in rows])
            assert np.array_equal(model.c, np.append(cost.ravel(), np.zeros(len(col_upper) - cost.size)))
            assert np.array_equal(model.col_lower, np.zeros(len(col_upper)))
            assert np.array_equal(model.col_upper, col_upper)

    def test_interior_point_retry_takes_over_from_a_stalled_simplex(self, rng, stalling_highs):
        # On some LPs with many steep cut rows the dual simplex stops outside
        # its primal tolerance; the retry solves the same arrays by interior point.
        cells = smooth_cells(rng)
        expected = [solve_cdp(*c) for c in cells]
        stalling_highs(lambda attempt: True)
        for (prob, D, P), want in zip(cells, expected):
            got = solve_cdp(prob, D, P)
            assert got.status is want.status
            # Every LP here was solved by the retry, so its iterations are
            # interior-point ones and must still be counted.
            assert got.certificate["lp_solves"] > 0
            assert got.certificate["iterations"] > 0
            if got.ok:
                slack = got.certificate["duality_gap"] + want.certificate["duality_gap"]
                assert abs(got.value - want.value) <= slack + 1e-9

    def test_retry_options_do_not_leak_into_later_lps(self, rng, stalling_highs):
        # The thread's one instance stalls on the first simplex attempt of each
        # call: the retry runs by interior point at the looser tolerances, and
        # the next attempt, a later LP of the call or the next call's first, is
        # back on the simplex at the solver's own.
        cells = smooth_cells(rng)
        expected = [solve_cdp(*c) for c in cells]
        first = [0]  # the index, among the instance's simplex attempts, of this call's first
        instances = stalling_highs(lambda attempt: attempt == first[0])
        simplex = {"solver": "choose", "presolve": "off", **solver._HIGHS_OPTIONS}
        retry = {"solver": "ipm", "presolve": "off", **solver._HIGHS_FALLBACK}
        lengths = []
        for (prob, D, P), want in zip(cells, expected):
            runs = instances[0] if instances else []
            done = len(runs)
            first[0] = sum(r["solver"] != "ipm" for r in runs)
            got = solve_cdp(prob, D, P)
            [runs] = instances
            mine = runs[done:]
            lengths.append(len(mine))
            assert mine[0] == simplex
            assert mine[1] == retry
            assert mine[2:] == [simplex] * (len(mine) - 2)
            assert got.certificate["lp_solves"] == len(mine) - 1
            assert got.status is want.status
            if got.ok:
                slack = got.certificate["duality_gap"] + want.certificate["duality_gap"]
                assert abs(got.value - want.value) <= slack + 1e-9
        assert max(lengths) > 3  # some call solved LPs after its retry
        assert 2 in lengths[:-1]  # some call ended on its retry, and the next began after it

    def test_one_highs_instance_per_thread_and_one_lp_solve_per_model(
        self, canonical_problem, monkeypatch, fresh_highs
    ):
        # A thread builds no HiGHS instance while its calls solve no LP, and
        # exactly one over all the calls of every method that do, however many
        # LPs, cuts and regions they solve; each call counts one LP solve per
        # model it wrote.
        built, models = [], []
        highs, lp_model = solver._highspy._Highs, solver._lp_model
        monkeypatch.setattr(solver._highspy, "_Highs", lambda: built.append(1) or highs())
        monkeypatch.setattr(solver, "_lp_model", lambda *args: models.append(1) or lp_model(*args))
        tv = canonical_problem()
        skewed = MixtureSource.from_masses(0.3, 0.7, [0.9, 0.1], [0.25, 0.75])
        tv_skewed = replace(tv, source=skewed, classifier=DecisionRegion.from_indices(skewed.alphabet, [1]))
        kl_skewed = replace(tv_skewed, divergence=KL)
        kl3 = small_instance(np.random.default_rng(0), 3, KL)
        cases = (
            (solve_cdp, tv, 0.01, math.inf, False),  # precheck
            (solve_scdp, tv, 0.01, math.inf, False),
            (solve_cdp, tv, math.inf, math.inf, False),  # vertex
            (solve_scdp, kl3, math.inf, math.inf, False),  # a vertex per region
            (solve_cdp, tv, 0.2, 0.3, True),  # one LP
            (solve_cdp, kl_skewed, 0.3, 0.05, True),  # LPs plus cuts
            (solve_scdp, tv_skewed, 0.2, 0.01, True),  # one LP per region
            (solve_scdp, kl3, min_distortion(kl3) + 0.1, 0.02, True),  # LPs plus cuts per region
        )
        solved_any = False
        for solve, prob, D, P, solves_lps in cases + cases:
            del models[:]
            cert = solve(prob, D, P).certificate
            solved_any |= solves_lps
            assert cert["lp_solves"] == len(models)
            assert (len(models) > 0) == solves_lps
            assert len(built) == solved_any
            assert (cert["iterations"] > 0) == solves_lps
            assert (cert["cuts"] > 0) == (prob.divergence == KL and solves_lps)
            if solve is solve_scdp and solves_lps:
                assert cert["regions_solved"] > 1

    def test_two_threads_hold_their_own_instances_and_match_a_serial_solve(self, rng, fresh_highs):
        # Two threads solving the same cells at once each build an instance of
        # their own, apart from this thread's, and get a serial solve's bytes.
        cells = [c for c in self.cells(rng) if c[0].restore_alphabet.size <= 3][::3]
        serial = [(solve_cdp(*c), solve_scdp(*c)) for c in cells]
        barrier = threading.Barrier(2, timeout=60)
        results, held = {}, {}

        def work(name):
            barrier.wait()
            results[name] = [(solve_cdp(*c), solve_scdp(*c)) for c in cells]
            held[name] = solver._local.highs

        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-5)  # switch threads often, mid-solve
        try:
            threads = [threading.Thread(target=work, args=(name,)) for name in ("a", "b")]
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join(timeout=120)
        finally:
            sys.setswitchinterval(interval)
        assert not any(thread.is_alive() for thread in threads)
        assert set(results) == set(held) == {"a", "b"}
        assert len({id(solver._local.highs), id(held["a"]), id(held["b"])}) == 3
        for got in results.values():
            for pair, want_pair in zip(got, serial):
                for r, want in zip(pair, want_pair):
                    assert cell_bytes(r) == cell_bytes(want)
                    assert dict(r.certificate) == dict(want.certificate)

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
