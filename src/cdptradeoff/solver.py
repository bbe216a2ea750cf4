"""Tradeoff-surface solvers over restoration kernels.

The problem and its two surfaces are set out in :mod:`.problem`.  The
fixed-classifier objective and the distortion constraint are linear in K
and the perception constraint is convex in p_Xhat = K^T p_Y, so every solve
is one linear program over row-stochastic kernels: exact under total
variation and at P = 0 or inf, and under the smooth divergences the LP plus
tangent cuts of the divergence, certified to a duality gap.  The Bayes error
of Xhat is the smallest error rate over all decision regions, and the two
minimizations commute, so the strong surface is the fixed-classifier program
minimized over the 2^|Xhat| regions: exact under total variation and
certified to a duality gap under the smooth divergences.

Every linear program goes through one function, ``solver.linprog``, to
HiGHS over the bindings scipy bundles (``scipy.optimize._highspy._core``),
loaded without the rest of ``scipy.optimize``, with presolve off because the
programs are tiny (without cuts, at most 72 columns and 18 rows on alphabets
of up to 8 symbols) and presolve costs more than it saves.

Solvers are pure functions of their inputs: each thread solves its LPs on
one HiGHS instance, built on the thread's first LP and cleared before every
attempt at an LP, which also sets that attempt's options.  So no model,
basis, solution or option outlives an attempt, there is no warm start, and
results cannot depend on evaluation order.
"""

from __future__ import annotations

import heapq
import importlib.machinery
import importlib.util
import math
import pathlib
import sys
import threading
from collections.abc import Mapping
from dataclasses import dataclass
from functools import partial
from typing import NamedTuple, Optional, Sequence

import numpy as np

from .classify import _bayes_error_arrays, bayes_error, error_rate
from .metrics import TOTAL_VARIATION, _divergence_arrays, _divergence_gradient, divergence, expected_distortion
from .prob_core import Channel, push_forward
from .problem import ProblemInstance, SolveStatus, check_grid, min_distortion

# Feasibility slack allowed on reported budgets (matches the result contract).
BUDGET_SLACK = 1e-8
# Target duality gap for the iterative (smooth-divergence) path.
GENERAL_GAP_TOL = 1e-6
# Most LP rounds of one smooth-divergence solve, in each of its two phases
# (finding an anchor, then closing the gap).
CUT_ROUNDS = 200
# The strong solver skips the remaining decision regions once their bound is
# within this of the best value: a kernel that attains the degraded Bayes
# error, the bound of every nontrivial region, can round an ulp or two above
# it.  The certificate's duality gap reports whatever difference remains.
REGION_STOP_TOL = 1e-12

# Tight primal feasibility keeps returned kernels within the budget-slack
# contract; the dual tolerance stays looser because 1e-10 makes the dual
# simplex stall on near-degenerate costs, and 1e-8 optimality is far inside
# the certificate budgets.  The retry uses the interior point solver (with
# crossover), because on some LPs with many steep cut rows the dual simplex
# ends outside its primal tolerance at any setting.
_HIGHS_OPTIONS = {
    "primal_feasibility_tolerance": 1e-10,
    "dual_feasibility_tolerance": 1e-8,
}
_HIGHS_FALLBACK = {
    "primal_feasibility_tolerance": 1e-9,
    "dual_feasibility_tolerance": 1e-7,
}
# The largest slope entry a tangent cut may have, and the pulls of its point
# toward uniform tried, in order, until its slopes are that small (see
# _tangent_cut).
_CUT_SLOPE_CAP = 1e6
_CUT_PULLS = (0.0, *np.geomspace(1e-12, 0.5, 24))


def _load_highs():
    """scipy's bundled HiGHS bindings (scipy 1.15 and later).

    Importing ``scipy.optimize._highspy._core`` by name first imports all of
    ``scipy.optimize``, which on scipy 1.17 is about 550 modules and 48 MB of
    resident memory that no LP solve uses.  So the extension is loaded from
    its file under that same name, where a later import of ``scipy.optimize``
    finds and reuses it.
    """
    name = "scipy.optimize._highspy._core"
    if name in sys.modules:
        return sys.modules[name]
    folder = pathlib.Path(importlib.util.find_spec("scipy").origin).parent / "optimize" / "_highspy"
    for suffix in importlib.machinery.EXTENSION_SUFFIXES:
        path = folder / f"_core{suffix}"
        if path.is_file():
            spec = importlib.util.spec_from_file_location(name, path)
            module = importlib.util.module_from_spec(spec)
            spec.loader.exec_module(module)
            sys.modules[name] = module
            return module
    raise ImportError(f"cdptradeoff needs scipy>=1.15, whose HiGHS bindings are not in {folder}")


_highspy = _load_highs()


_SHARED_KEYS = ("method", "iterations", "lp_solves", "cuts", "duality_gap", "violated", "notes")


class Certificate(Mapping):
    """What one solve did, as a read-only mapping.

    Its keys are the seven every method shares, in the order of
    ``_SHARED_KEYS``, then the method's own: ``anchor`` for ``cuts``, and
    ``regions_solved``, ``regions_pruned`` and ``enumerated`` for
    ``regions``.  It compares equal to a dict of the same items, and
    ``dict(certificate)`` is that dict.  Slotted because sweeps keep one
    result per cell: it takes 96 bytes where that dict takes 272.
    """

    __slots__ = (*_SHARED_KEYS, "_own")

    def __init__(self, method, iterations, lp_solves, cuts, duality_gap, violated, notes, own=()):
        """``own`` holds the method's own (key, value) pairs."""
        values = (method, iterations, lp_solves, cuts, duality_gap, violated, notes, own)
        for name, value in zip(self.__slots__, values):
            object.__setattr__(self, name, value)

    def __getitem__(self, key):
        if key in _SHARED_KEYS:
            return getattr(self, key)
        for name, value in self._own:
            if name == key:
                return value
        raise KeyError(key)

    def __iter__(self):
        yield from _SHARED_KEYS
        for name, _ in self._own:
            yield name

    def __len__(self) -> int:
        return len(_SHARED_KEYS) + len(self._own)

    def __setattr__(self, *_):
        raise AttributeError("a certificate is read-only")

    __delattr__ = __setattr__

    def __reduce__(self):
        return type(self), tuple(getattr(self, name) for name in self.__slots__)

    def __repr__(self) -> str:
        return f"Certificate({dict(self)!r})"


@dataclass(frozen=True, eq=False, slots=True)
class TradeoffResult:
    """Outcome of one (D, P) query: value, optimizing kernel, achieved budgets.

    The result and its certificate are both slotted because sweeps keep one
    result per cell.
    """

    value: float
    kernel: Optional[Channel]
    achieved_distortion: float
    achieved_perception: float
    status: SolveStatus
    certificate: Certificate

    @property
    def ok(self) -> bool:
        return self.status is not SolveStatus.INFEASIBLE


@dataclass(frozen=True, eq=False)
class SurfaceTable:
    """Grid of tradeoff results; rows follow ``d_grid``, columns ``p_grid``."""

    mode: str
    d_grid: tuple
    p_grid: tuple
    cells: tuple  # tuple of tuples of TradeoffResult

    def value_matrix(self) -> np.ndarray:
        """Values as a float matrix with NaN at ``Infeasible`` cells; an
        ``IterationLimit`` cell keeps its value, NaN only when it has no kernel."""
        out = np.full((len(self.d_grid), len(self.p_grid)), np.nan)
        for i, row in enumerate(self.cells):
            for j, cell in enumerate(row):
                if cell.status is not SolveStatus.INFEASIBLE:
                    out[i, j] = cell.value
        return out


# ---------------------------------------------------------------------------
# Constrained-linear engine: minimize <cost, K> over feasible kernels
# ---------------------------------------------------------------------------


def _argmin_rows(cost: np.ndarray) -> np.ndarray:
    """One-hot kernel choosing, per row, the first column of minimal cost."""
    ny, nxh = cost.shape
    out = np.zeros((ny, nxh))
    out[np.arange(ny), cost.argmin(axis=1)] = 1.0
    return out


class _LpModel(NamedTuple):
    """One linear program in HiGHS's column-wise form.

    Minimize ``c @ x`` subject to ``row_lower <= A @ x <= row_upper`` and
    ``col_lower <= x <= col_upper``, where column ``i`` of ``A`` holds the
    values ``value[start[i]:start[i + 1]]`` in the rows
    ``index[start[i]:start[i + 1]]``.  The fields are in the order HiGHS's
    array ``passModel`` takes them.
    """

    c: np.ndarray
    col_lower: np.ndarray
    col_upper: np.ndarray
    row_lower: np.ndarray
    row_upper: np.ndarray
    start: np.ndarray
    index: np.ndarray
    value: np.ndarray


def _lp_model(
    prob: ProblemInstance,
    cost: np.ndarray,
    dist_budget: float,
    perc_budget: float,
    cuts: Optional[tuple] = None,
) -> _LpModel:
    """Write the one LP over restoration kernels as one dense matrix, then
    hand it over column-wise.

    Columns: the kernel entries K[y, j] in row-major order, then one slack s_j
    per restored symbol when P is finite and there are no cuts, or the
    epigraph column t in [0, P] when there are.  ``cost`` may hold one entry
    more, the epigraph column's.  Rows, in blocks written in this order, which
    is kept fixed so HiGHS always gets the same model and so returns the same
    optimal vertices (a reordered model can pivot to a different one):

    1. the distortion row <G, K> <= D, when D is finite;
    2. either one row (K^T p_Y)_j - s_j <= p_X[j] per restored symbol and
       the total-variation row sum_j s_j <= P; or one row
       g_i . K^T p_Y - t <= h_i per cut of ``cuts = (g, h)``, divided by
       max(1, max |g_i|) to keep steep cuts scaled;
    3. the stochastic rows sum_j K[y, j] = 1.

    The symbol rows state the total-variation budget exactly: q = K^T p_Y and
    p_X both sum to 1, so 0.5 * sum_j |q_j - p_X[j]| = sum_j (q_j - p_X[j])^+,
    and the smallest slacks the rows allow, s_j = (q_j - p_X[j])^+, sum to it.
    At P = 0 the total-variation row forces every s_j to 0, so q <= p_X entry
    by entry, and as both sum to 1, q = p_X: the restored marginal is pinned
    to p_X, the only point where any supported divergence vanishes.
    """
    ny, nxh = prob.kernel_shape
    nk = ny * nxh
    m = 0 if cuts is None else len(cuts[1])
    has_p = math.isfinite(perc_budget) and not m
    n_cols = nk + (nxh if has_p else 0) + (m > 0)
    blocks = []  # (rows of A, their upper bounds)

    def rows(count):
        """Append ``count`` zero rows; return them, a (row, y, j) view of
        their kernel columns and their upper bounds, to be filled."""
        A, upper = np.zeros((count, n_cols)), np.empty(count)
        blocks.append((A, upper))
        return A, A[:, :nk].reshape(count, ny, nxh), upper

    if math.isfinite(dist_budget):
        _, K, upper = rows(1)
        K[0], upper[0] = prob.distortion_weights, dist_budget
    if has_p:
        A, K, upper = rows(nxh + 1)
        j = np.arange(nxh)  # row j: (K^T p_Y)_j - s_j <= p_X[j]
        K[j, :, j], A[j, nk + j], upper[:-1] = prob.p_y, -1.0, prob.p_x
        A[-1, nk:], upper[-1] = 1.0, perc_budget
    if m:
        slopes, offsets = cuts
        scale = np.maximum(np.abs(slopes).max(axis=1), 1.0)
        A, K, upper = rows(m)
        K[:] = prob.p_y[:, None] * (slopes / scale[:, None])[:, None, :]
        A[:, nk], upper[:] = -1.0 / scale, offsets / scale
    _, K, upper = rows(ny)
    y = np.arange(ny)
    K[y, y], upper[:] = 1.0, 1.0  # row y: sum_j K[y, j] = 1
    A, row_upper = map(np.concatenate, zip(*blocks))
    row_lower = np.full(len(row_upper), -np.inf)
    row_lower[-ny:] = 1.0  # the stochastic rows are equalities

    col, row = np.nonzero(A.T != 0.0)  # column-major, so rows ascend within each column
    start = np.zeros(n_cols + 1, dtype=np.int32)
    start[1:] = np.bincount(col, minlength=n_cols).cumsum()
    c = np.zeros(n_cols)
    c[: cost.size] = cost.ravel()
    col_upper = np.full(n_cols, 2.0)
    col_upper[:nk] = 1.0
    if m:
        col_upper[nk] = perc_budget
    return _LpModel(c, np.zeros(n_cols), col_upper, row_lower, row_upper, start, row.astype(np.int32), A[row, col])


# The calling thread's HiGHS instance, as ``highs``, built on the thread's
# first LP (see ``linprog``); a thread that solves no LP builds none.
_local = threading.local()


def linprog(model: _LpModel) -> tuple:
    """(x of ``model``, or None when it is infeasible; the simplex plus
    interior-point iterations), on the calling thread's HiGHS instance.  Each
    attempt starts from a cleared model and sets its own options: the
    simplex, then, if it stalls, interior point at the looser tolerances."""
    highs = getattr(_local, "highs", None)
    if highs is None:
        highs = _local.highs = _highspy._Highs()
        highs.setOptionValue("output_flag", False)
        highs.setOptionValue("presolve", "off")
    iterations, n_col = 0, len(model.c)
    for solver, tolerances in (("choose", _HIGHS_OPTIONS), ("ipm", _HIGHS_FALLBACK)):
        highs.clearModel()
        for name, val in {"solver": solver, **tolerances}.items():
            highs.setOptionValue(name, val)
        status = highs.passModel(
            n_col,
            len(model.row_lower),
            len(model.value),
            _highspy.MatrixFormat.kColwise,
            _highspy.ObjSense.kMinimize,
            0.0,
            *model,
            np.zeros(n_col, np.int32),  # every column continuous; an empty array is an error
        )
        # A warning reports matrix entries of size at most 1e-9, which HiGHS drops.
        if status == _highspy.HighsStatus.kError:
            raise RuntimeError("HiGHS rejected the linear program")
        highs.run()
        for name in ("simplex_iteration_count", "ipm_iteration_count"):
            iterations += max(int(highs.getInfoValue(name)[1]), 0)
        status = highs.getModelStatus()
        if status == _highspy.HighsModelStatus.kOptimal:
            return np.array(highs.getSolution().col_value), iterations
        if status == _highspy.HighsModelStatus.kInfeasible:
            return None, iterations
    raise RuntimeError(f"linear program failed unexpectedly ({highs.modelStatusToString(status)})")


class _Engine:
    """The work counters of one public solve, which are its certificate's:
    ``solve_cdp`` and ``solve_scdp`` each make one and drop it on return."""

    def __init__(self):
        self.lp_solves, self.iterations, self.cuts = 0, 0, 0

    def run(self, model: _LpModel) -> Optional[np.ndarray]:
        """x of ``model`` through ``linprog``, or None when it is infeasible, counted."""
        x, iterations = linprog(model)
        self.lp_solves += 1
        self.iterations += iterations
        return x

    def kernel(
        self, prob: ProblemInstance, cost: np.ndarray, dist_budget: float, perc_budget: float, cuts: Sequence = ()
    ) -> tuple:
        """Solve the one LP, with the (slope, offset) pairs in ``cuts`` as cut
        rows: (x, the kernel cut out of x with solver dust clipped off and rows
        renormalized); both are None when the LP is infeasible."""
        arrays = tuple(map(np.array, zip(*cuts))) if cuts else None
        x = self.run(_lp_model(prob, cost, dist_budget, perc_budget, arrays))
        if x is None:
            return None, None
        ny, nxh = prob.kernel_shape
        kernel = np.clip(x[: ny * nxh].reshape(ny, nxh), 0.0, None)
        return x, kernel / kernel.sum(axis=1, keepdims=True)

    def add_cuts(self, prob: ProblemInstance, cuts: list, *marginals: np.ndarray) -> None:
        """Append to ``cuts`` a tangent cut at each restored marginal."""
        cuts += [_tangent_cut(prob, q) for q in marginals]
        self.cuts += len(marginals)


def _outcome(
    engine: _Engine,
    status: SolveStatus,
    kernel: Optional[np.ndarray],
    method: str,
    notes: str,
    gap: float = 0.0,
    violated: Optional[str] = None,
    **details,
) -> tuple:
    """(status, kernel, certificate) of one solve, with the engine's counters;
    the certificate states no duality gap when there is no kernel."""
    gap = None if kernel is None else gap
    counters = (engine.iterations, engine.lp_solves, engine.cuts)
    return status, kernel, Certificate(method, *counters, gap, violated, notes, tuple(details.items()))


# The outcomes that solve no LP, so count no work.  Their notes name rather
# than repeat the numbers, which the caller has.
_PRECHECK = Certificate("precheck", 0, 0, 0, None, "distortion", "distortion budget below min_distortion(prob)")
_VERTEX = Certificate("vertex", 0, 0, 0, 0.0, None, "unconstrained: per-output-symbol minimization")


def _tangent_cut(prob: ProblemInstance, q: np.ndarray) -> tuple:
    """Slope g and offset h of the cut g . q' - t <= h from a tangent of d(p_X, .) near q.

    A tangent of the convex divergence is valid wherever it is taken.  KL and
    Renyi slopes reach 1e300 as q_j -> 0, so q is pulled toward uniform until
    no slope exceeds ``_CUT_SLOPE_CAP``; at the last pull, 0.5, every entry of
    the point is at least 1/(2|Xhat|), and no slope exceeds 2|Xhat|.
    """
    kind, p = prob.divergence, prob.p_x
    for pull in _CUT_PULLS:
        point = (1.0 - pull) * q + pull / q.size
        slope = _divergence_gradient(kind, p, point)
        if np.abs(slope).max() <= _CUT_SLOPE_CAP:
            break
    return slope, float(slope @ point) - _divergence_arrays(kind, p, point)


def _cut_minimize(
    engine: _Engine, prob: ProblemInstance, cost: np.ndarray, dist_budget: float, perc_budget: float
) -> tuple:
    """Smooth divergences, 0 < P < inf: the one LP plus tangent cuts of the divergence.

    The divergence depends on K only through q = K^T p_Y, and a tangent cut
    g . q - t <= g . q_k - d(q_k), with t in [0, P], holds on every feasible
    kernel, so each LP's value is a certified lower bound.  An anchor kernel
    inside the budget gives upper bounds: the segment from the LP kernel to it
    crosses the budget at a feasible kernel.  Each round cuts at both kernels
    (Kelley's cutting planes, Veinott's supporting hyperplanes) until the
    bounds are within ``GENERAL_GAP_TOL``.  The anchor is the P = 0 LP's
    kernel, whose marginal is p_X, where D allows it; otherwise epigraph
    rounds minimize t until a kernel's divergence is below the midpoint of the
    cuts' bound and P.  An infeasible epigraph LP certifies that no kernel
    meets both budgets; so does, at the minimum distortion, a divergence that
    is infinite on the widest support left.
    """
    ny, nxh = prob.kernel_shape
    p_y = prob.p_y
    div = partial(_divergence_arrays, prob.divergence, prob.p_x)
    cuts = []  # (slope, offset) pairs
    _, K = engine.kernel(prob, cost, dist_budget, math.inf)
    q = K.T @ p_y
    if div(q) <= perc_budget:
        notes = "perception constraint inactive at the LP optimum"
        return _outcome(engine, SolveStatus.OPTIMAL, K, "cuts", notes, anchor=None)
    lower = float(np.sum(cost * K))

    _, anchor = engine.kernel(prob, cost, dist_budget, 0.0)
    if anchor is not None:
        anchor_kind = "pinned"
    else:
        # At the minimum distortion kernels keep to each row's cheapest entries;
        # spread over all of them, q has the widest support any kernel gives.
        G = prob.distortion_weights
        cheapest = G <= G.min(axis=1, keepdims=True) + 1e-12
        if dist_budget <= min_distortion(prob) + 1e-12 and math.isinf(
            div((cheapest / cheapest.sum(axis=1, keepdims=True)).T @ p_y)
        ):
            notes = "every kernel at the minimum distortion misses the support the divergence needs"
            return _outcome(engine, SolveStatus.INFEASIBLE, None, "cuts", notes, violated="perception", anchor=None)
        engine.add_cuts(prob, cuts, q)
        epigraph_cost = np.zeros(ny * nxh + 1)
        epigraph_cost[-1] = 1.0
        for _ in range(CUT_ROUNDS):
            x, candidate = engine.kernel(prob, epigraph_cost, dist_budget, perc_budget, cuts)
            if x is None:
                notes = "tangent cuts bound the divergence above the budget on every distortion-feasible kernel"
                return _outcome(engine, SolveStatus.INFEASIBLE, None, "cuts", notes, violated="perception", anchor=None)
            q_c = candidate.T @ p_y
            if div(q_c) <= 0.5 * (perc_budget + x[-1]):
                anchor, anchor_kind = candidate, "epigraph"
                break
            engine.add_cuts(prob, cuts, q_c)
        else:
            notes = f"no anchor inside the budget in {CUT_ROUNDS} rounds"
            return _outcome(engine, SolveStatus.ITERATION_LIMIT, None, "cuts", notes, anchor=None)
    q_anchor = anchor.T @ p_y
    best, upper = anchor, float(np.sum(cost * anchor))
    # A cost of GENERAL_GAP_TOL / (10 P) on t, at most 1 (the cost entries' top;
    # far more stalls HiGHS at a tiny P), picks, among LP optima, the one the
    # cuts rate least divergent, so a whole face of optima does not leave the
    # rounds creeping toward the budget; the bound drops by at most a tenth.
    lp_cost = np.append(cost.ravel(), min(0.1 * GENERAL_GAP_TOL / perc_budget, 1.0))
    notes = "LP plus tangent cuts of the divergence"
    uncut = () if anchor_kind == "epigraph" else (q,)  # the epigraph rounds cut at q

    for _ in range(CUT_ROUNDS):
        # Bisect for the first point from K toward the anchor inside the budget.
        lo, hi = 0.0, 1.0
        for _ in range(60):
            mid = 0.5 * (lo + hi)
            if div((1.0 - mid) * q + mid * q_anchor) <= perc_budget:
                hi = mid
            else:
                lo = mid
        boundary = (1.0 - hi) * K + hi * anchor
        value = float(np.sum(cost * boundary))
        if value < upper:
            best, upper = boundary, value
        if upper - lower <= GENERAL_GAP_TOL:
            break
        engine.add_cuts(prob, cuts, *uncut, boundary.T @ p_y)
        x, K = engine.kernel(prob, lp_cost, dist_budget, perc_budget, cuts)
        if K is None:
            # The anchor meets every cut, so only a solver fault gets here.
            notes += "; a cut LP after the anchor was reported infeasible"
            break
        q = K.T @ p_y
        uncut = (q,)
        value = float(np.sum(cost * K))
        lower = max(lower, float(value + lp_cost[-1] * (x[-1] - perc_budget)))
        if div(q) <= perc_budget:
            best, upper = K, value
            break
    gap = max(upper - lower, 0.0)
    status = SolveStatus.OPTIMAL if gap <= GENERAL_GAP_TOL else SolveStatus.ITERATION_LIMIT
    return _outcome(engine, status, best, "cuts", notes, gap, anchor=anchor_kind)


def _minimize_linear(
    engine: _Engine, prob: ProblemInstance, cost: np.ndarray, dist_budget: float, perc_budget: float
) -> tuple:
    """Minimize a linear kernel functional under the distortion and perception
    budgets, on ``engine``: (status, kernel or None, certificate)."""
    if dist_budget < min_distortion(prob) - 1e-12:
        return SolveStatus.INFEASIBLE, None, _PRECHECK
    no_perception = not math.isfinite(perc_budget)
    if no_perception and not math.isfinite(dist_budget):
        return SolveStatus.OPTIMAL, _argmin_rows(cost), _VERTEX
    # Every supported divergence vanishes only at p_Xhat = p_X, so a zero
    # budget is the total-variation LP with its budget at zero.
    if no_perception or perc_budget == 0.0 or prob.divergence.name == TOTAL_VARIATION:
        _, kernel = engine.kernel(prob, cost, dist_budget, perc_budget)
        if kernel is not None:
            return _outcome(engine, SolveStatus.OPTIMAL, kernel, "lp", "one linear program, solved by HiGHS")
        # Distortion feasibility was pre-checked; the perception side is to blame.
        notes = "no kernel meets the perception budget jointly with the distortion budget"
        return _outcome(engine, SolveStatus.INFEASIBLE, None, "lp", notes, violated="perception")
    return _cut_minimize(engine, prob, cost, dist_budget, perc_budget)


# ---------------------------------------------------------------------------
# Public solvers
# ---------------------------------------------------------------------------


def _result(
    prob: ProblemInstance, kernel: Optional[np.ndarray], strong: bool, status: SolveStatus, certificate: Certificate
) -> TradeoffResult:
    """A solve's result: the value and budgets its kernel achieves, all NaN
    when there is no kernel (an infeasible cell, or one whose cut rounds ran
    out before finding a kernel inside the perception budget)."""
    if kernel is None:
        return TradeoffResult(math.nan, None, math.nan, math.nan, status, certificate)
    channel = Channel(prob.degrade.output, prob.restore_alphabet, kernel)
    restored = push_forward(prob.degraded, channel)
    value = bayes_error(restored) if strong else error_rate(restored, prob.classifier)
    achieved_d = expected_distortion(prob.source, prob.degrade, channel, prob.delta)
    if prob.perception_defined():
        achieved_p = divergence(prob.divergence, prob.source.marginal, restored.marginal)
    else:
        achieved_p = math.nan
    return TradeoffResult(value, channel, achieved_d, achieved_p, status, certificate)


def solve_cdp(prob: ProblemInstance, dist_budget: float, perc_budget: float) -> TradeoffResult:
    """Fixed-classifier surface value at one (D, P) point.

    Minimizes the error rate of the instance's classifier over restoration
    kernels meeting both budgets.  Pass ``math.inf`` to drop a constraint.
    Exact (LP) for total variation, zero perception budgets, or absent
    perception constraints; otherwise solved to a certified duality gap of
    ``GENERAL_GAP_TOL`` within ``CUT_ROUNDS`` rounds of tangent cuts.
    """
    prob.check_budgets(dist_budget, perc_budget)
    status, kernel, certificate = _minimize_linear(_Engine(), prob, prob.objective_weights, dist_budget, perc_budget)
    return _result(prob, kernel, False, status, certificate)


def solve_scdp(prob: ProblemInstance, dist_budget: float, perc_budget: float) -> TradeoffResult:
    """Strong surface value at one (D, P) point: minimize the Bayes error of Xhat.

    The Bayes error is the smallest error rate over all decision regions R of
    the restoration alphabet, and the two minimizations commute, so
    C_S(D, P) = min_R C(D, P; R): one fixed-classifier solve per region, with
    that region's error weights as the cost.  Region index r holds symbol j
    when bit j of r is set.  Regions are visited in order of their
    unconstrained bound sum_y min_j W_R[y, j], ties by index; the loop stops
    once the next bound is within ``REGION_STOP_TOL`` of the best Bayes error
    found, since no remaining region can beat it by more.  The bound has a
    closed form, so only the region being solved is ever built: W_R[y, j] is
    w_in[y] inside R and w_out[y] outside it (``ProblemInstance.class_weights``),
    so regions 1 ... 2^n - 2 all have the bound sum_y min(w_in[y], w_out[y]),
    the degraded Bayes error, and the visit merges the empty region
    (sum_y w_out[y]) and the full one (sum_y w_in[y]) into that run by
    (bound, index).  The certificate's duality gap is the best value minus
    the smallest lower bound over all regions (a solved region's objective
    minus its own gap, a skipped region's bound): at most ``REGION_STOP_TOL``
    under total variation, and within ``GENERAL_GAP_TOL`` under the smooth
    divergences unless the status says ``IterationLimit``.
    """
    prob.check_budgets(dist_budget, perc_budget)
    n = prob.restore_alphabet.size
    count = 2**n
    w_in, w_out = prob.class_weights
    # (bound, index) order is the order of a stable sort of all 2^n bounds.
    shared = float(np.add.reduce(np.minimum(w_in, w_out)))
    ends = sorted([(float(np.add.reduce(w_out)), 0), (float(np.add.reduce(w_in)), count - 1)])
    bits = np.arange(n)
    engine = _Engine()
    best_val, best_K, lower = math.inf, None, math.inf
    solved = 0
    for bound, r in heapq.merge(((shared, i) for i in range(1, count - 1)), ends):
        if bound >= best_val - REGION_STOP_TOL:
            lower = min(lower, bound)
            break
        members = (r >> bits) & 1 == 1
        status, kernel, cert = _minimize_linear(engine, prob, prob.region_weights(members), dist_budget, perc_budget)
        if kernel is None:
            return _result(prob, None, True, status, cert)
        solved += 1
        # Both values sum per-symbol class masses in one order, so the Bayes
        # error never rounds above the region's own error rate.
        m1, m2 = kernel.T @ prob.p_y1, kernel.T @ prob.p_y2
        value = float(_bayes_error_arrays(prob.source.prior1, prob.source.prior2, m1, m2))
        q1, q2 = prob.source.prior1 * m1, prob.source.prior2 * m2
        lower = min(lower, float(np.where(members, q2, q1).sum()) - cert["duality_gap"])
        if value < best_val:
            best_val, best_K = value, kernel
    gap = max(best_val - lower, 0.0)
    status = SolveStatus.OPTIMAL if gap <= GENERAL_GAP_TOL else SolveStatus.ITERATION_LIMIT
    notes = "minimum of the fixed-classifier solve over decision regions"
    counters = {"regions_solved": solved, "regions_pruned": count - solved, "enumerated": count}
    _, _, certificate = _outcome(engine, status, best_K, "regions", notes, gap, **counters)
    return _result(prob, best_K, True, status, certificate)


def sweep_surface(
    prob: ProblemInstance,
    d_grid: Sequence[float],
    p_grid: Sequence[float],
    which: str,
) -> SurfaceTable:
    """Solve a whole grid of (D, P) queries; one row per distortion budget.

    Grid points below the minimum achievable distortion come back as
    infeasible cells, not errors.  Every cell is solved from scratch, so the
    table is independent of evaluation order.
    """
    if which not in ("cdp", "scdp"):
        raise ValueError(f"which must be 'cdp' or 'scdp', got {which!r}")
    d_grid, p_grid = check_grid(d_grid, "d_grid"), check_grid(p_grid, "p_grid")
    solve = solve_cdp if which == "cdp" else solve_scdp
    cells = tuple(tuple(solve(prob, d, p) for p in p_grid) for d in d_grid)
    return SurfaceTable(mode=which, d_grid=d_grid, p_grid=p_grid, cells=cells)
