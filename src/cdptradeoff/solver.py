"""Tradeoff-surface solvers over restoration kernels.

Setting: a two-class source X goes through a fixed degradation channel to Y;
a restoration kernel K = p(xhat|y), the decision variable, produces Xhat.
Two surfaces are computed as functions of a distortion budget D and a
perception budget P:

- the fixed-classifier surface: minimize the error rate of a predefined
  decision region applied to Xhat, subject to expected distortion <= D and
  divergence(p_X, p_Xhat) <= P;
- the strong surface: the same program with the error rate replaced by the
  Bayes error of Xhat, i.e. the classifier adapts to the restored signal.

The fixed-classifier objective and the distortion constraint are linear in K
and the perception constraint is convex in p_Xhat = K^T p_Y, so every solve
is one linear program over row-stochastic kernels: exact under total
variation and at P = 0 or inf, and under the smooth divergences the LP plus
tangent cuts of the divergence, certified to a duality gap.  The Bayes error
of Xhat is the smallest error rate over all decision regions, and the two
minimizations commute, so the strong surface is the fixed-classifier program
minimized over the 2^|Xhat| regions: exact under total variation and
certified to a duality gap under the smooth divergences.

Every linear program goes to HiGHS through the bindings scipy bundles
(``scipy.optimize._highspy._core``), loaded without the rest of
``scipy.optimize``, with presolve off because the programs are tiny
(without cuts, at most 72 columns and 26 rows on alphabets of up to 8
symbols) and presolve costs more than it saves.

Solvers are pure functions of their inputs: each LP is built from arrays and
handed to a fresh HiGHS instance, no model or basis is kept between calls,
and sweeps solve every cell from scratch so results cannot depend on
evaluation order.
"""

from __future__ import annotations

import importlib.machinery
import importlib.util
import math
import pathlib
import sys
from dataclasses import dataclass
from enum import Enum
from functools import cached_property, partial
from typing import NamedTuple, Optional, Sequence

import numpy as np

from .classify import DecisionRegion, bayes_error, error_rate
from .errors import DimensionError
from .metrics import (
    TOTAL_VARIATION,
    DistortionMatrix,
    DivergenceKind,
    _divergence_arrays,
    _divergence_gradient,
    divergence,
    expected_distortion,
)
from .prob_core import Alphabet, Channel, MixtureSource, push_forward

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
# the certificate budgets.  Every solve also turns presolve off: on alphabets
# of up to 8 symbols the LPs without cuts have at most 72 columns and 26
# rows, so presolve costs more than it saves.  The retry uses the interior
# point solver (with crossover), because on some LPs with many steep cut rows
# the dual simplex ends outside its primal tolerance at any setting.
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


def linprog(*args, **kwargs):
    """``scipy.optimize.linprog``, imported on first use.  The solver never
    calls it: every LP goes to ``_highs_run``.  The name stays because
    ``perfbench/spans.py`` wraps it in traced benchmark runs."""
    from scipy.optimize import linprog as scipy_linprog

    return scipy_linprog(*args, **kwargs)


class SolveStatus(Enum):
    OPTIMAL = "Optimal"
    INFEASIBLE = "Infeasible"
    ITERATION_LIMIT = "IterationLimit"


@dataclass(frozen=True, eq=False)
class ProblemInstance:
    """One full tradeoff problem: source, degradation, distortion, divergence, classifier.

    The classifier is the fixed decision region used by the fixed-classifier
    surface; the strong surface ignores it.  Derived pipeline quantities (the
    degraded mixture and the linear coefficient matrices) are cached here.
    """

    source: MixtureSource
    degrade: Channel
    restore_alphabet: Alphabet
    delta: DistortionMatrix
    divergence: DivergenceKind
    classifier: DecisionRegion

    def __post_init__(self):
        if self.source.alphabet != self.degrade.input:
            raise DimensionError(
                f"source alphabet {self.source.alphabet} != degradation input {self.degrade.input}"
            )
        if self.delta.source != self.source.alphabet:
            raise DimensionError(
                f"distortion source {self.delta.source} != source alphabet {self.source.alphabet}"
            )
        if self.delta.target != self.restore_alphabet:
            raise DimensionError(
                f"distortion target {self.delta.target} != restoration alphabet {self.restore_alphabet}"
            )
        if self.classifier.alphabet != self.restore_alphabet:
            raise DimensionError(
                f"classifier alphabet {self.classifier.alphabet} != restoration alphabet {self.restore_alphabet}"
            )

    @cached_property
    def degraded(self) -> MixtureSource:
        """The source pushed through the degradation channel."""
        return push_forward(self.source, self.degrade)

    @cached_property
    def p_y1(self) -> np.ndarray:
        return self.degraded.class1.mass

    @cached_property
    def p_y2(self) -> np.ndarray:
        return self.degraded.class2.mass

    @cached_property
    def p_y(self) -> np.ndarray:
        return self.degraded.marginal.mass

    @cached_property
    def p_x(self) -> np.ndarray:
        return self.source.marginal.mass

    @cached_property
    def objective_weights(self) -> np.ndarray:
        """W[y, xhat]: fixed-classifier error contribution of kernel entry (y, xhat).

        The error rate of a kernel K is exactly <W, K>.
        """
        return self.region_weights(self.classifier.members)

    def region_weights(self, members: np.ndarray) -> np.ndarray:
        """W[y, xhat] for the decision region whose indicator over Xhat is ``members``."""
        w_in = self.source.prior2 * self.p_y2
        w_out = self.source.prior1 * self.p_y1
        return np.where(members[None, :], w_in[:, None], w_out[:, None])

    @cached_property
    def distortion_weights(self) -> np.ndarray:
        """G[y, xhat]: expected-distortion contribution of kernel entry (y, xhat)."""
        joint = self.p_x[:, None] * self.degrade.matrix  # p(x, y)
        return joint.T @ self.delta.cost

    @property
    def kernel_shape(self) -> tuple:
        return (self.degrade.output.size, self.restore_alphabet.size)

    def perception_defined(self) -> bool:
        """A perception constraint needs p_X and p_Xhat on equal-size alphabets."""
        return self.restore_alphabet.size == self.source.alphabet.size


@dataclass(frozen=True, eq=False, slots=True)
class TradeoffResult:
    """Outcome of one (D, P) query: value, optimizing kernel, achieved budgets.

    Slotted, like ``Channel``, because sweeps keep one result per cell.
    """

    value: float
    kernel: Optional[Channel]
    achieved_distortion: float
    achieved_perception: float
    status: SolveStatus
    certificate: dict

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


def min_distortion(prob: ProblemInstance) -> float:
    """Smallest achievable expected distortion over all restoration kernels.

    The distortion is linear over a product of simplices, so the minimum is
    attained by deterministically mapping each y to the cheapest xhat; any
    budget below this value is infeasible.
    """
    return float(prob.distortion_weights.min(axis=1).sum())


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
    ``index[start[i]:start[i + 1]]``.
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
    """Write the one LP over restoration kernels straight into column-wise arrays.

    Columns: the kernel entries K[y, j] in row-major order, then one slack s_j
    per restored symbol when P is finite and there are no cuts, or the
    epigraph column t in [0, P] when there are.  Rows, inequalities first; the
    order is kept fixed so HiGHS always gets the same model and so returns the
    same optimal vertices (a reordered model can pivot to a different one):
    <G, K> <= D when D is finite; either the slack
    rows (K^T p_Y)_j - s_j <= p_X[j], -(K^T p_Y)_j - s_j <= -p_X[j] and the
    total-variation row 0.5 * sum_j s_j <= P, or one row g_i . K^T p_Y - t <= h_i
    per cut of ``cuts = (g, h)``, divided by max(1, max |g_i|) to keep steep
    cuts scaled; then the stochastic rows sum_j K[y, j] = 1.  At P = 0 the
    total-variation row pins the restored marginal to p_X, the only point
    where any supported divergence vanishes.  ``cost`` may hold one entry
    more, the epigraph column's.
    """
    ny, nxh = prob.kernel_shape
    nk = ny * nxh
    m = 0 if cuts is None else len(cuts[1])
    has_d, has_p = math.isfinite(dist_budget), math.isfinite(perc_budget) and not m
    slack_row = int(has_d)
    total_row = slack_row + 2 * nxh
    cut_row = total_row + 1 if has_p else slack_row
    stochastic_row = cut_row + m
    n_cols = nk + (nxh if has_p else 0) + (m > 0)

    # One padded line of (row, value) entries per column, rows ascending:
    # a kernel column meets the distortion row, the two slack rows of its
    # symbol or every cut row, and its stochastic row, so its slack or cut
    # entries start at position slack_row; a slack column meets its two
    # slack rows and the total row; the epigraph column meets every cut row.
    # Zeros, padding included, are dropped below.
    index = np.zeros((n_cols, has_d + 2 * has_p + m + 1), dtype=np.int32)
    value = np.zeros(index.shape)
    y, j = np.divmod(np.arange(nk), nxh)
    if has_d:
        value[:nk, 0] = prob.distortion_weights.ravel()
    if has_p:
        pos = slack_row + 2 * j
        index[:nk, slack_row] = pos
        index[:nk, slack_row + 1] = pos + 1
        value[:nk, slack_row] = prob.p_y[y]
        value[:nk, slack_row + 1] = -value[:nk, slack_row]
        index[nk:, 0] = np.arange(slack_row, total_row, 2)
        index[nk:, 1] = index[nk:, 0] + 1
        index[nk:, 2] = total_row
        value[nk:, :3] = (-1.0, -1.0, 0.5)
    if m:
        slopes, offsets = cuts
        scale = np.maximum(np.abs(slopes).max(axis=1), 1.0)
        index[:nk, slack_row : slack_row + m] = index[nk, :m] = np.arange(cut_row, stochastic_row)
        value[:nk, slack_row : slack_row + m] = prob.p_y[y, None] * (slopes / scale[:, None]).T[j]
        value[nk, :m] = -1.0 / scale
    index[:nk, -1] = stochastic_row + y
    value[:nk, -1] = 1.0
    keep = value != 0.0
    start = np.zeros(n_cols + 1, dtype=np.int32)
    np.cumsum(keep.sum(axis=1), out=start[1:])

    row_lower = np.full(stochastic_row + ny, -np.inf)
    row_upper = np.empty(stochastic_row + ny)
    if has_d:
        row_upper[0] = dist_budget
    if has_p:
        row_upper[slack_row:total_row:2] = prob.p_x
        row_upper[slack_row + 1 : total_row : 2] = -prob.p_x
        row_upper[total_row] = perc_budget
    row_lower[stochastic_row:] = row_upper[stochastic_row:] = 1.0
    c = np.zeros(n_cols)
    c[: cost.size] = cost.ravel()
    col_upper = np.full(n_cols, 2.0)
    col_upper[:nk] = 1.0
    if m:
        row_upper[cut_row:stochastic_row] = offsets / scale
        col_upper[nk] = perc_budget
    return _LpModel(c, np.zeros(n_cols), col_upper, row_lower, row_upper, start, index[keep], value[keep])


def _highs_run(model: _LpModel, tolerances: dict, ipm: bool) -> tuple:
    """Solve on a fresh HiGHS instance: (status, x or None, simplex and
    interior-point iterations)."""
    lp = _highspy.HighsLp()
    lp.num_col_ = lp.a_matrix_.num_col_ = len(model.c)
    lp.num_row_ = lp.a_matrix_.num_row_ = len(model.row_lower)
    lp.a_matrix_.format_ = _highspy.MatrixFormat.kColwise
    # The bindings copy Python lists into HiGHS's vectors faster than arrays.
    lp.a_matrix_.start_ = model.start.tolist()
    lp.a_matrix_.index_ = model.index.tolist()
    lp.a_matrix_.value_ = model.value.tolist()
    lp.col_cost_ = model.c.tolist()
    lp.col_lower_ = model.col_lower.tolist()
    lp.col_upper_ = model.col_upper.tolist()
    lp.row_lower_ = model.row_lower.tolist()
    lp.row_upper_ = model.row_upper.tolist()
    highs = _highspy._Highs()
    highs.setOptionValue("output_flag", False)
    highs.setOptionValue("presolve", "off")
    if ipm:
        highs.setOptionValue("solver", "ipm")
    for name, val in tolerances.items():
        highs.setOptionValue(name, val)
    highs.passModel(lp)
    highs.run()
    status = highs.getModelStatus()
    iterations = sum(
        max(int(highs.getInfoValue(name)[1]), 0) for name in ("simplex_iteration_count", "ipm_iteration_count")
    )
    if status == _highspy.HighsModelStatus.kOptimal:
        return "optimal", np.array(highs.getSolution().col_value), iterations
    if status == _highspy.HighsModelStatus.kInfeasible:
        return "infeasible", None, iterations
    return highs.modelStatusToString(status), None, iterations


def _solve_lp(model: _LpModel) -> tuple:
    """(x, or None when infeasible; iterations), retried once looser,
    by interior point, if the simplex stalls."""
    iterations = 0
    for tolerances, ipm in ((_HIGHS_OPTIONS, False), (_HIGHS_FALLBACK, True)):
        status, x, nit = _highs_run(model, tolerances, ipm)
        iterations += nit
        if status in ("optimal", "infeasible"):
            return x, iterations
    raise RuntimeError(f"linear program failed unexpectedly ({status})")


def _solve_kernel(
    prob: ProblemInstance, cost: np.ndarray, dist_budget: float, perc_budget: float, cuts: Optional[list] = None
) -> tuple:
    """Solve the one LP, with the (slope, offset) pairs in ``cuts`` as cut rows:
    (x, the kernel cut out of x with solver dust clipped off and rows
    renormalized, iterations); x and the kernel are None when the LP
    is infeasible."""
    arrays = tuple(map(np.array, zip(*cuts))) if cuts else None
    x, iterations = _solve_lp(_lp_model(prob, cost, dist_budget, perc_budget, arrays))
    if x is None:
        return None, None, iterations
    ny, nxh = prob.kernel_shape
    kernel = np.clip(x[: ny * nxh].reshape(ny, nxh), 0.0, None)
    return x, kernel / kernel.sum(axis=1, keepdims=True), iterations


def _outcome(
    status: SolveStatus,
    kernel: Optional[np.ndarray],
    method: str,
    iterations: int,
    notes: str,
    gap: float = 0.0,
    violated: Optional[str] = None,
    **counters,
) -> tuple:
    """(status, kernel, certificate) of one solve; the certificate states no
    duality gap when there is no kernel."""
    certificate = {
        "method": method,
        "iterations": iterations,
        "duality_gap": None if kernel is None else gap,
        "violated": violated,
        "notes": notes,
        **counters,
    }
    return status, kernel, certificate


def _tangent_cut(prob: ProblemInstance, q: np.ndarray) -> tuple:
    """Slope g and offset h of the cut g . q' - t <= h from a tangent of d(p_X, .) near q.

    A tangent of the convex divergence is valid wherever it is taken.  KL and
    Renyi slopes reach 1e300 as q_j -> 0, so q is pulled toward uniform, where
    no slope exceeds |Xhat|, until no slope exceeds ``_CUT_SLOPE_CAP``.
    """
    kind, p = prob.divergence, prob.p_x
    support = p > 0.0
    # Points with p_j / point_j above this would overflow (p_j / point_j) ** alpha.
    ratio = 1e300 ** (1.0 / max(kind.alpha or 1.0, 1.0))
    for pull in _CUT_PULLS:
        point = (1.0 - pull) * q + pull / q.size
        if np.all(point[support] * ratio >= p[support]):
            slope = _divergence_gradient(kind, p, point)
            if np.abs(slope).max() <= _CUT_SLOPE_CAP:
                break
    else:
        point = np.full_like(q, 1.0 / q.size)
        slope = _divergence_gradient(kind, p, point)
    return slope, float(slope @ point) - _divergence_arrays(kind, p, point)


def _cut_minimize(prob: ProblemInstance, cost: np.ndarray, dist_budget: float, perc_budget: float) -> tuple:
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
    lp_solves = iterations = 0
    anchor_kind = None

    def solve(lp_cost, perc):
        nonlocal lp_solves, iterations
        x, kernel, nit = _solve_kernel(prob, lp_cost, dist_budget, perc, cuts)
        lp_solves += 1
        iterations += nit
        return x, kernel

    def outcome(status, kernel, notes, gap=0.0, violated=None):
        counters = {"lp_solves": lp_solves, "cuts": len(cuts), "anchor": anchor_kind}
        return _outcome(status, kernel, "cuts", iterations, notes, gap, violated, **counters)

    _, K = solve(cost, math.inf)
    q = K.T @ p_y
    if div(q) <= perc_budget:
        return outcome(SolveStatus.OPTIMAL, K, "perception constraint inactive at the LP optimum")
    lower = float(np.sum(cost * K))

    _, anchor = solve(cost, 0.0)
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
            return outcome(SolveStatus.INFEASIBLE, None, notes, violated="perception")
        cuts.append(_tangent_cut(prob, q))
        epigraph_cost = np.zeros(ny * nxh + 1)
        epigraph_cost[-1] = 1.0
        for _ in range(CUT_ROUNDS):
            x, candidate = solve(epigraph_cost, perc_budget)
            if x is None:
                notes = "tangent cuts bound the divergence above the budget on every distortion-feasible kernel"
                return outcome(SolveStatus.INFEASIBLE, None, notes, violated="perception")
            q_c = candidate.T @ p_y
            if div(q_c) <= 0.5 * (perc_budget + x[-1]):
                anchor, anchor_kind = candidate, "epigraph"
                break
            cuts.append(_tangent_cut(prob, q_c))
        else:
            return outcome(SolveStatus.ITERATION_LIMIT, None, f"no anchor inside the budget in {CUT_ROUNDS} rounds")
    q_anchor = anchor.T @ p_y
    best, upper = anchor, float(np.sum(cost * anchor))
    # A cost of GENERAL_GAP_TOL / (10 P) on t picks, among LP optima, the one
    # the cuts rate least divergent, so a whole face of optima does not leave
    # the rounds creeping toward the budget; the bound drops by at most a tenth.
    lp_cost = np.append(cost.ravel(), 0.1 * GENERAL_GAP_TOL / perc_budget)

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
        if float(np.sum(cost * boundary)) < upper:
            best, upper = boundary, float(np.sum(cost * boundary))
        if upper - lower <= GENERAL_GAP_TOL:
            break
        cuts += [_tangent_cut(prob, q), _tangent_cut(prob, boundary.T @ p_y)]
        x, K = solve(lp_cost, perc_budget)
        if K is None:
            break
        q = K.T @ p_y
        lower = max(lower, float(np.sum(cost * K) + lp_cost[-1] * (x[-1] - perc_budget)))
        if div(q) <= perc_budget:
            best, upper = K, float(np.sum(cost * K))
            break
    gap = max(upper - lower, 0.0)
    status = SolveStatus.OPTIMAL if gap <= GENERAL_GAP_TOL else SolveStatus.ITERATION_LIMIT
    return outcome(status, best, "LP plus tangent cuts of the divergence", gap)


def _minimize_linear(prob: ProblemInstance, cost: np.ndarray, dist_budget: float, perc_budget: float) -> tuple:
    """Minimize a linear kernel functional under the distortion and perception
    budgets: (status, kernel or None, certificate)."""
    dmin = min_distortion(prob)
    if dist_budget < dmin - 1e-12:
        notes = f"distortion budget {dist_budget} below the achievable minimum {dmin}"
        return _outcome(SolveStatus.INFEASIBLE, None, "precheck", 0, notes, violated="distortion")
    no_perception = not math.isfinite(perc_budget)
    if no_perception and not math.isfinite(dist_budget):
        notes = "unconstrained: per-output-symbol minimization"
        return _outcome(SolveStatus.OPTIMAL, _argmin_rows(cost), "vertex", 1, notes)
    # Every supported divergence vanishes only at p_Xhat = p_X, so a zero
    # budget is the total-variation LP with its budget at zero.
    if no_perception or perc_budget == 0.0 or prob.divergence.name == TOTAL_VARIATION:
        _, kernel, iterations = _solve_kernel(prob, cost, dist_budget, perc_budget)
        if kernel is not None:
            notes = "vertex solution from the simplex/HiGHS path"
            return _outcome(SolveStatus.OPTIMAL, kernel, "lp", iterations, notes)
        # Distortion feasibility was pre-checked; the perception side is to blame.
        notes = "no kernel meets the perception budget jointly with the distortion budget"
        return _outcome(SolveStatus.INFEASIBLE, None, "lp", iterations, notes, violated="perception")
    return _cut_minimize(prob, cost, dist_budget, perc_budget)


# ---------------------------------------------------------------------------
# Public solvers
# ---------------------------------------------------------------------------


def _validate_budgets(prob: ProblemInstance, dist_budget: float, perc_budget: float):
    for name, value in (("D", dist_budget), ("P", perc_budget)):
        if math.isnan(value) or value < 0.0:
            raise ValueError(f"{name} must be nonnegative (or +inf), got {value}")
    if math.isfinite(perc_budget) and not prob.perception_defined():
        raise DimensionError(
            "perception constraint needs restoration and source alphabets of equal size"
        )


def _result(
    prob: ProblemInstance, kernel: Optional[np.ndarray], strong: bool, status: SolveStatus, certificate: dict
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
    _validate_budgets(prob, dist_budget, perc_budget)
    status, kernel, certificate = _minimize_linear(prob, prob.objective_weights, dist_budget, perc_budget)
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
    found, since no remaining region can beat it by more.  The certificate's
    duality gap is the best value minus the smallest lower bound over all
    regions (a solved region's objective minus its own gap, a skipped
    region's bound): at most ``REGION_STOP_TOL`` under total variation, and
    within ``GENERAL_GAP_TOL`` under the smooth divergences unless the status
    says ``IterationLimit``.
    """
    _validate_budgets(prob, dist_budget, perc_budget)
    n = prob.restore_alphabet.size
    count = 2**n
    regions = (np.arange(count)[:, None] >> np.arange(n)[None, :]) & 1 == 1
    weights = [prob.region_weights(members) for members in regions]
    bounds = [float(W.min(axis=1).sum()) for W in weights]
    best_val, best_K, lower = math.inf, None, math.inf
    iterations = solved = 0
    for r in sorted(range(count), key=lambda r: (bounds[r], r)):
        if bounds[r] >= best_val - REGION_STOP_TOL:
            lower = min(lower, bounds[r])
            break
        status, kernel, cert = _minimize_linear(prob, weights[r], dist_budget, perc_budget)
        if kernel is None:
            return _result(prob, None, True, status, cert)
        solved += 1
        iterations += cert["iterations"]
        # Both values sum per-symbol class masses in one order, so the Bayes
        # error never rounds above the region's own error rate.
        q1 = prob.source.prior1 * (kernel.T @ prob.p_y1)
        q2 = prob.source.prior2 * (kernel.T @ prob.p_y2)
        value = float(np.minimum(q1, q2).sum())
        lower = min(lower, float(np.where(regions[r], q2, q1).sum()) - cert["duality_gap"])
        if value < best_val:
            best_val, best_K = value, kernel
    gap = max(best_val - lower, 0.0)
    status = SolveStatus.OPTIMAL if gap <= GENERAL_GAP_TOL else SolveStatus.ITERATION_LIMIT
    notes = "minimum of the fixed-classifier solve over decision regions"
    counters = {"regions_solved": solved, "regions_pruned": count - solved, "enumerated": count}
    _, _, certificate = _outcome(status, best_K, "regions", iterations, notes, gap, **counters)
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
    d_grid = tuple(float(d) for d in d_grid)
    p_grid = tuple(float(p) for p in p_grid)
    if not d_grid or not p_grid:
        raise ValueError("grids must be non-empty")
    for name, grid in (("d_grid", d_grid), ("p_grid", p_grid)):
        if any(math.isnan(g) or g < 0.0 for g in grid):
            raise ValueError(f"{name} entries must be nonnegative")
        if list(grid) != sorted(grid):
            raise ValueError(f"{name} must be sorted ascending")
    solve = solve_cdp if which == "cdp" else solve_scdp
    cells = tuple(tuple(solve(prob, d, p) for p in p_grid) for d in d_grid)
    return SurfaceTable(mode=which, d_grid=d_grid, p_grid=p_grid, cells=cells)
