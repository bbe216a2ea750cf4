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
and the perception constraint is convex, so the first program is convex; with
total variation it is solved exactly as a linear program, and with the smooth
divergences by bisection on the perception multiplier with conditional-
gradient (Frank-Wolfe) inner solves, which certifies a duality gap.  The
Bayes error of Xhat is the smallest error rate over all decision regions, and
the two minimizations commute, so the strong surface is the fixed-classifier
program minimized over the 2^|Xhat| regions: exact under total variation and
certified to a duality gap under the smooth divergences.

Every linear program goes to HiGHS through the bindings scipy bundles
(``scipy.optimize._highspy._core``), loaded without the rest of
``scipy.optimize``, with presolve off because the programs are tiny (at most
72 columns and 26 rows on alphabets of up to 8 symbols) and presolve costs
more than it saves.  ``scipy.optimize.linprog`` solves the same arrays where
those bindings are absent (scipy before 1.15).

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
from dataclasses import dataclass, field
from enum import Enum
from functools import cached_property
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
# Linear programs are solved to this optimality gap.
LP_GAP_TOL = 1e-8
# Total conditional-gradient iteration budget per solve.
ITERATION_BUDGET = 10_000
# The strong solver skips the remaining decision regions once their bound is
# within this of the best value: a kernel that attains the degraded Bayes
# error, the bound of every nontrivial region, can round an ulp or two above
# it.  The certificate's duality gap reports whatever difference remains.
REGION_STOP_TOL = 1e-12

# Tight primal feasibility keeps returned kernels within the budget-slack
# contract; the dual tolerance stays looser because 1e-10 makes the dual
# simplex stall on near-degenerate costs, and 1e-8 optimality is far inside
# the certificate budgets.  Every solve also turns presolve off: on alphabets
# of up to 8 symbols the LPs have at most 72 columns and 26 rows, so presolve
# costs more than it saves.
_HIGHS_OPTIONS = {
    "primal_feasibility_tolerance": 1e-10,
    "dual_feasibility_tolerance": 1e-8,
}
_HIGHS_FALLBACK = {
    "primal_feasibility_tolerance": 1e-9,
    "dual_feasibility_tolerance": 1e-7,
}


def _load_highs():
    """scipy's bundled HiGHS bindings, or None where this scipy has none (before 1.15).

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
            try:
                module = importlib.util.module_from_spec(spec)
                spec.loader.exec_module(module)
            except ImportError:
                return None
            sys.modules[name] = module
            return module
    return None


_highspy = _load_highs()


def linprog(*args, **kwargs):
    """``scipy.optimize.linprog``, imported on first use: only scipy without
    the HiGHS bindings solves LPs through it."""
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
        """Values as a float matrix with NaN at non-optimal cells."""
        out = np.full((len(self.d_grid), len(self.p_grid)), np.nan)
        for i, row in enumerate(self.cells):
            for j, cell in enumerate(row):
                if cell.status is not SolveStatus.INFEASIBLE:
                    out[i, j] = cell.value
        return out


# ---------------------------------------------------------------------------
# Constrained-linear engine: minimize <cost, K> over feasible kernels
# ---------------------------------------------------------------------------


@dataclass
class _LinearOutcome:
    status: SolveStatus
    kernel: Optional[np.ndarray]
    objective: float
    iterations: int
    gap: float
    method: str
    violated: Optional[str] = None
    notes: str = ""


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


def _clean_kernel(raw: np.ndarray) -> np.ndarray:
    """Clip solver dust off a near-stochastic matrix and renormalize rows."""
    arr = np.clip(np.asarray(raw, dtype=np.float64), 0.0, None)
    return arr / arr.sum(axis=1, keepdims=True)


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


def _lp_model(prob: ProblemInstance, cost: np.ndarray, dist_budget: float, perc_budget: float) -> _LpModel:
    """Write the total-variation-form LP straight into column-wise arrays.

    Columns are the kernel entries K[y, j] in row-major order, then, when P is
    finite, one slack s_j per restored symbol.  Rows come in the order
    ``linprog`` stacks inequalities before equalities: the distortion row
    <G, K> <= D when D is finite; when P is finite, the slack rows
    (K^T p_Y)_j - s_j <= p_X[j] and -(K^T p_Y)_j - s_j <= -p_X[j] per symbol
    and the total-variation row 0.5 * sum_j s_j <= P; and last the stochastic
    rows sum_j K[y, j] = 1.  At P = 0 the total-variation row pins the
    restored marginal to p_X, the only point where any supported divergence
    vanishes.
    """
    ny, nxh = prob.kernel_shape
    nk = ny * nxh
    has_d, has_p = math.isfinite(dist_budget), math.isfinite(perc_budget)
    slack_row = int(has_d)
    total_row = slack_row + 2 * nxh
    stochastic_row = total_row + 1 if has_p else slack_row
    n_cols = nk + (nxh if has_p else 0)

    # One padded line of (row, value) entries per column, rows ascending:
    # a kernel column meets the distortion row, the two slack rows of its
    # symbol and its stochastic row, so its slack entries sit at position
    # slack_row; a slack column meets its two slack rows and the total row.
    # Zeros, padding included, are dropped below.
    index = np.zeros((n_cols, has_d + 2 * has_p + 1), dtype=np.int32)
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
    c[:nk] = cost.ravel()
    col_upper = np.full(n_cols, 2.0)
    col_upper[:nk] = 1.0
    return _LpModel(c, np.zeros(n_cols), col_upper, row_lower, row_upper, start, index[keep], value[keep])


def _highs_run(model: _LpModel, tolerances: dict) -> tuple:
    """Solve on a fresh HiGHS instance: (status, x or None, simplex iterations)."""
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
    for name, val in tolerances.items():
        highs.setOptionValue(name, val)
    highs.passModel(lp)
    highs.run()
    status = highs.getModelStatus()
    iterations = max(int(highs.getInfoValue("simplex_iteration_count")[1]), 0)
    if status == _highspy.HighsModelStatus.kOptimal:
        return "optimal", np.array(highs.getSolution().col_value), iterations
    if status == _highspy.HighsModelStatus.kInfeasible:
        return "infeasible", None, iterations
    return highs.modelStatusToString(status), None, iterations


def _linprog_run(model: _LpModel, tolerances: dict) -> tuple:
    """The same solve through ``scipy.optimize.linprog``, for scipy without the bindings."""
    A = np.zeros((len(model.row_lower), len(model.c)))
    A[model.index, np.repeat(np.arange(len(model.c)), np.diff(model.start))] = model.value
    eq = model.row_lower == model.row_upper
    res = linprog(
        model.c,
        A_ub=A[~eq],
        b_ub=model.row_upper[~eq],
        A_eq=A[eq],
        b_eq=model.row_upper[eq],
        bounds=np.column_stack((model.col_lower, model.col_upper)),
        method="highs",
        options={**tolerances, "presolve": False},
    )
    if res.status == 0:
        return "optimal", res.x, int(res.nit)
    if res.status == 2:
        return "infeasible", None, int(res.nit)
    return res.message, None, int(res.nit)


def _solve_lp(model: _LpModel) -> tuple:
    """(x, or None when infeasible; simplex iterations), retried once looser if HiGHS stalls."""
    run = _highs_run if _highspy is not None else _linprog_run
    iterations = 0
    for tolerances in (_HIGHS_OPTIONS, _HIGHS_FALLBACK):
        status, x, nit = run(model, tolerances)
        iterations += nit
        if status in ("optimal", "infeasible"):
            return x, iterations
    raise RuntimeError(f"linear program failed unexpectedly ({status})")


def _lp_minimize(prob: ProblemInstance, cost: np.ndarray, dist_budget: float, perc_budget: float) -> _LinearOutcome:
    """Exact LP path: total-variation budgets, zero perception budgets, or no
    perception constraint at all."""
    x, iterations = _solve_lp(_lp_model(prob, cost, dist_budget, perc_budget))
    if x is not None:
        ny, nxh = prob.kernel_shape
        kernel = _clean_kernel(x[: ny * nxh].reshape(ny, nxh))
        return _LinearOutcome(
            status=SolveStatus.OPTIMAL,
            kernel=kernel,
            objective=float(np.sum(kernel * cost)),
            iterations=iterations,
            gap=0.0,
            method="lp",
            notes="vertex solution from the simplex/HiGHS path",
        )
    # Distortion feasibility was pre-checked; the perception side is to blame.
    return _LinearOutcome(
        status=SolveStatus.INFEASIBLE,
        kernel=None,
        objective=math.nan,
        iterations=iterations,
        gap=math.nan,
        method="lp",
        violated="perception",
        notes="no kernel meets the perception budget jointly with the distortion budget",
    )


def _distortion_feasible_start(prob: ProblemInstance, dist_budget: float) -> np.ndarray:
    """A kernel meeting the distortion budget with the widest support we can get.

    Used to seed the iterative path, so divergences that blow up on support
    mismatch start finite whenever that is structurally possible.
    """
    ny, nxh = prob.kernel_shape
    uniform = np.full((ny, nxh), 1.0 / nxh)
    if not math.isfinite(dist_budget):
        return uniform
    G = prob.distortion_weights
    d_uniform = float(np.sum(G * uniform))
    if d_uniform <= dist_budget:
        return uniform
    row_min = G.min(axis=1, keepdims=True)
    ties = G <= row_min + 1e-15
    face = ties / ties.sum(axis=1, keepdims=True)
    d_face = float(np.sum(G * face))
    if d_face > dist_budget:
        vertex = _argmin_rows(G)
        d_vertex = float(np.sum(G * vertex))
        if d_vertex > dist_budget:
            return vertex  # caller already verified dist_budget >= min distortion
        face, d_face = vertex, d_vertex
    span = d_uniform - d_face
    if span <= 0:
        return face
    eta = 0.999 * (dist_budget - d_face) / span
    eta = min(max(eta, 0.0), 1.0)
    return (1.0 - eta) * face + eta * uniform


class _FwWorkspace:
    """Bookkeeping for the conditional-gradient path: iteration budget and LMO."""

    def __init__(self, prob: ProblemInstance, dist_budget: float, budget: int):
        self.prob = prob
        self.dist_budget = dist_budget
        self.iterations = 0
        self.budget = budget
        self.shape = prob.kernel_shape

    def exhausted(self) -> bool:
        return self.iterations >= self.budget

    def lmo(self, grad: np.ndarray) -> np.ndarray:
        """Linear minimization over row-stochastic kernels meeting the distortion budget.

        The gradient is rescaled to unit magnitude first: the minimizer is
        invariant under positive scaling, and divergence gradients blow up
        near the boundary of the simplex.  With the distortion budget the
        feasible set is a product of simplices cut by one linear constraint,
        which a scalarized bisection solves exactly (see _lmo_budgeted).
        """
        finite = np.nan_to_num(grad, nan=0.0, posinf=1e300, neginf=-1e300)
        scale = max(float(np.max(np.abs(finite))), 1.0)
        finite = finite / scale
        if not math.isfinite(self.dist_budget):
            return _argmin_rows(finite)
        return _lmo_budgeted(finite, self.prob.distortion_weights, self.dist_budget)


def _lmo_budgeted(cost: np.ndarray, G: np.ndarray, dist_budget: float) -> np.ndarray:
    """Minimize <cost, K> over row-stochastic K with <G, K> <= dist_budget.

    Scalarization: for a multiplier lam >= 0, the per-row argmin of
    cost + lam * G is optimal for some budget, and its distortion is
    nonincreasing in lam.  Bisect lam until the budget brackets, then blend
    the two bracketing vertices to sit exactly on the budget; the blend is
    optimal because both endpoints minimize the same scalarized objective in
    the limit.
    """
    ny = cost.shape[0]
    rows = np.arange(ny)

    def choice(lam):
        picks = (cost + lam * G).argmin(axis=1)
        dist = float(G[rows, picks].sum())
        return picks, dist

    picks0, dist0 = choice(0.0)
    if dist0 <= dist_budget:
        K = np.zeros_like(cost)
        K[rows, picks0] = 1.0
        return K
    lam_lo, dist_lo, picks_lo = 0.0, dist0, picks0
    lam_hi = 1.0
    for _ in range(200):
        picks_hi, dist_hi = choice(lam_hi)
        if dist_hi <= dist_budget:
            break
        lam_lo, dist_lo, picks_lo = lam_hi, dist_hi, picks_hi
        lam_hi *= 4.0
    else:
        # The caller guarantees the budget is achievable, so this is dust.
        picks_hi, dist_hi = choice(lam_hi)
    for _ in range(64):
        mid = 0.5 * (lam_lo + lam_hi)
        picks_mid, dist_mid = choice(mid)
        if dist_mid <= dist_budget:
            lam_hi, picks_hi, dist_hi = mid, picks_mid, dist_mid
        else:
            lam_lo, picks_lo, dist_lo = mid, picks_mid, dist_mid
    K_hi = np.zeros_like(cost)
    K_hi[rows, picks_hi] = 1.0
    if dist_lo <= dist_hi + 1e-15:
        return K_hi
    t = (dist_budget - dist_hi) / (dist_lo - dist_hi)
    t = min(max(t, 0.0), 1.0)
    K_lo = np.zeros_like(cost)
    K_lo[rows, picks_lo] = 1.0
    return (1.0 - t) * K_hi + t * K_lo


def _golden_linesearch(h, upper: float = 1.0, iters: int = 48) -> float:
    """Minimize a convex one-dimensional function on [0, upper]; inf-aware."""
    invphi = (math.sqrt(5.0) - 1.0) / 2.0
    a, b = 0.0, upper
    c = b - invphi * (b - a)
    d = a + invphi * (b - a)
    hc, hd = h(c), h(d)
    for _ in range(iters):
        if hc <= hd:
            b, d, hd = d, c, hc
            c = b - invphi * (b - a)
            hc = h(c)
        else:
            a, c, hc = c, d, hd
            d = a + invphi * (b - a)
            hd = h(d)
    mid = 0.5 * (a + b)
    candidates = [(h(mid), mid), (h(upper), upper), (h(0.0), 0.0)]
    return min(candidates)[1]


def _fw_minimize(
    ws: _FwWorkspace,
    cost: np.ndarray,
    mu: float,
    start: np.ndarray,
    tol: float,
    max_iters: int,
):
    """Conditional gradient for <cost, K> + mu * d(p_X, K^T p_Y) over the polytope.

    Returns (kernel, smooth value, certified FW gap).  The gap bounds the
    suboptimality of the returned kernel for this penalized objective.
    """
    prob = ws.prob
    kind = prob.divergence
    p_x, p_y = prob.p_x, prob.p_y
    K = start

    def phi_of(q):
        return _divergence_arrays(kind, p_x, np.clip(q, 0.0, None))

    gap = math.inf
    for _ in range(max_iters):
        if ws.exhausted():
            break
        ws.iterations += 1
        q = K.T @ p_y
        grad = cost + mu * (p_y[:, None] * _divergence_gradient(kind, p_x, np.clip(q, 1e-300, None))[None, :])
        S = ws.lmo(grad)
        gap = float(np.sum(grad * (K - S)))
        if gap <= tol:
            break
        delta = S - K
        dq = delta.T @ p_y
        lin = float(np.sum(cost * delta))

        def h(gamma, q=q, dq=dq, lin=lin):
            return lin * gamma + mu * phi_of(q + gamma * dq)

        gamma = _golden_linesearch(h)
        if gamma <= 0.0:
            break
        K = K + gamma * delta
    # Recompute an honest gap at the final iterate.
    q = K.T @ p_y
    grad = cost + mu * (p_y[:, None] * _divergence_gradient(kind, p_x, np.clip(q, 1e-300, None))[None, :])
    if not ws.exhausted():
        ws.iterations += 1
        S = ws.lmo(grad)
        gap = max(float(np.sum(grad * (K - S))), 0.0)
    value = float(np.sum(cost * K)) + mu * phi_of(q)
    return K, value, gap


def _perception_anchor(ws: _FwWorkspace, perc_budget: float):
    """Minimize the divergence over distortion-feasible kernels.

    Returns (anchor kernel, achieved divergence) or a certified infeasibility
    marker (None, best lower bound) when every kernel exceeds the budget.
    """
    prob = ws.prob
    start = _distortion_feasible_start(prob, ws.dist_budget)
    phi_start = _divergence_arrays(prob.divergence, prob.p_x, np.clip(start.T @ prob.p_y, 0.0, None))
    if math.isinf(phi_start):
        # The widest-support start still misses the support: structurally out.
        return None, math.inf, "support"
    zero_cost = np.zeros(prob.kernel_shape)
    K = start
    target = perc_budget * (1.0 - 1e-3) - 1e-15
    best_phi = phi_start
    while True:
        K, value, gap = _fw_minimize(ws, zero_cost, 1.0, K, tol=1e-10, max_iters=200)
        best_phi = min(best_phi, value)
        if value <= target:
            return K, value, None
        if value - gap > perc_budget:
            return None, value - gap, "perception"
        if gap <= 1e-10 or ws.exhausted():
            if value <= perc_budget + 1e-12:
                return K, value, None
            return None, value - gap, "perception"


def _general_minimize(
    prob: ProblemInstance,
    cost: np.ndarray,
    dist_budget: float,
    perc_budget: float,
    budget: int,
    gap_tol: float,
) -> _LinearOutcome:
    """Smooth-divergence path: dual bisection on the perception multiplier.

    The inner problems (linear cost plus mu times the divergence) are solved
    by conditional gradient; each solve certifies a lower bound on the true
    constrained optimum, and feasible primal candidates come from the
    feasible side of the bisection plus exact root-found blends across the
    constraint boundary.
    """
    from scipy.optimize import brentq

    ws = _FwWorkspace(prob, dist_budget, budget)
    kind = prob.divergence
    p_x, p_y = prob.p_x, prob.p_y

    def phi(K):
        return _divergence_arrays(kind, p_x, np.clip(K.T @ p_y, 0.0, None))

    def obj(K):
        return float(np.sum(cost * K))

    anchor, anchor_phi, violated = _perception_anchor(ws, perc_budget)
    if anchor is None:
        return _LinearOutcome(
            status=SolveStatus.INFEASIBLE,
            kernel=None,
            objective=math.nan,
            iterations=ws.iterations,
            gap=math.nan,
            method="dual_fw",
            violated=violated,
            notes=f"minimum achievable divergence exceeds the budget (lower bound {anchor_phi:.6e})",
        )

    # Unconstrained-in-perception probe: one exact linear minimization.
    ws.iterations += 1
    K_lin = ws.lmo(cost)
    if phi(K_lin) <= perc_budget:
        return _LinearOutcome(
            status=SolveStatus.OPTIMAL,
            kernel=_clean_kernel(K_lin),
            objective=obj(K_lin),
            iterations=ws.iterations,
            gap=0.0,
            method="dual_fw",
            notes="perception constraint inactive at the linear optimum",
        )

    best_feasible_K = anchor
    best_feasible_val = obj(anchor)
    best_lb = obj(K_lin)  # exact value of the relaxation without the perception constraint
    infeasible_K = K_lin

    def consider_feasible(K):
        nonlocal best_feasible_K, best_feasible_val
        v = obj(K)
        if v < best_feasible_val:
            best_feasible_K, best_feasible_val = K, v

    def blend_candidate(K_out, K_in):
        """Root-find the constraint boundary on the segment infeasible->feasible."""
        phi_out, phi_in = phi(K_out), phi(K_in)
        if not (phi_out > perc_budget >= phi_in):
            return
        f = lambda b: phi((1.0 - b) * K_out + b * K_in) - perc_budget
        try:
            b_star = brentq(f, 0.0, 1.0, xtol=1e-14)
        except ValueError:
            return
        K_b = (1.0 - b_star) * K_out + b_star * K_in
        for _ in range(100):
            if phi(K_b) <= perc_budget:
                break
            b_star = min(1.0, b_star + 1e-12 + (1.0 - b_star) * 1e-6)
            K_b = (1.0 - b_star) * K_out + b_star * K_in
        if phi(K_b) <= perc_budget:
            consider_feasible(K_b)

    mu_lo, mu_hi = 0.0, None
    K_warm = anchor
    mu = 1.0

    def evaluate(mu_val, tol=None, max_iters=400):
        nonlocal K_warm, best_lb, infeasible_K
        if tol is None:
            # Solve loosely while the duality gap is wide; tighten as it closes
            # so the Lagrangian lower bound is not polluted by inner slack.
            gap_now = max(best_feasible_val - best_lb, 0.0)
            tol = min(1e-3, max(0.05 * gap_now, 0.05 * gap_tol, 1e-9))
        K_mu, lagr_val, fw_gap = _fw_minimize(ws, cost, mu_val, K_warm, tol=tol, max_iters=max_iters)
        K_warm = K_mu
        dual_value = lagr_val - mu_val * perc_budget - fw_gap
        best_lb = max(best_lb, dual_value)
        phi_mu = phi(K_mu)
        if phi_mu <= perc_budget:
            consider_feasible(K_mu)
            blend_candidate(infeasible_K, K_mu)
        else:
            infeasible_K = K_mu
            blend_candidate(K_mu, best_feasible_K)
        return phi_mu

    # Find a multiplier large enough to land on the feasible side.
    for _ in range(60):
        if ws.exhausted():
            break
        if evaluate(mu) <= perc_budget:
            mu_hi = mu
            break
        mu_lo = mu
        mu *= 4.0
    while not ws.exhausted() and mu_hi is not None and (mu_hi - mu_lo) > 1e-14 * max(1.0, mu_hi):
        if best_feasible_val - best_lb <= gap_tol:
            break
        mid = 0.5 * (mu_lo + mu_hi)
        if evaluate(mid) <= perc_budget:
            mu_hi = mid
        else:
            mu_lo = mid

    # Long refinement at the converged multiplier if the gap is still open.
    if mu_hi is not None and best_feasible_val - best_lb > gap_tol and not ws.exhausted():
        evaluate(mu_hi, tol=0.25 * gap_tol, max_iters=min(ws.budget - ws.iterations, 4000))

    gap = max(best_feasible_val - best_lb, 0.0)
    status = SolveStatus.OPTIMAL if gap <= gap_tol else SolveStatus.ITERATION_LIMIT
    return _LinearOutcome(
        status=status,
        kernel=_clean_kernel(best_feasible_K),
        objective=best_feasible_val,
        iterations=ws.iterations,
        gap=gap,
        method="dual_fw",
        notes=f"dual bisection on the perception multiplier (final interval [{mu_lo:.3e}, {mu_hi if mu_hi is not None else math.inf:.3e}])",
    )


def _minimize_linear(
    prob: ProblemInstance,
    cost: np.ndarray,
    dist_budget: float,
    perc_budget: float,
    budget: int = ITERATION_BUDGET,
    gap_tol: float = GENERAL_GAP_TOL,
) -> _LinearOutcome:
    """Minimize a linear kernel functional under the distortion and perception budgets."""
    dmin = min_distortion(prob)
    if dist_budget < dmin - 1e-12:
        return _LinearOutcome(
            status=SolveStatus.INFEASIBLE,
            kernel=None,
            objective=math.nan,
            iterations=0,
            gap=math.nan,
            method="precheck",
            violated="distortion",
            notes=f"distortion budget {dist_budget} below the achievable minimum {dmin}",
        )
    no_perception = not math.isfinite(perc_budget)
    if no_perception and not math.isfinite(dist_budget):
        kernel = _argmin_rows(cost)
        return _LinearOutcome(
            status=SolveStatus.OPTIMAL,
            kernel=kernel,
            objective=float(np.sum(kernel * cost)),
            iterations=1,
            gap=0.0,
            method="vertex",
            notes="unconstrained: per-output-symbol minimization",
        )
    # Every supported divergence vanishes only at p_Xhat = p_X, so a zero
    # budget is the total-variation LP with its budget at zero.
    if no_perception or perc_budget == 0.0 or prob.divergence.name == TOTAL_VARIATION:
        return _lp_minimize(prob, cost, dist_budget, perc_budget)
    return _general_minimize(prob, cost, dist_budget, perc_budget, budget, gap_tol)


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


def _result_from_kernel(
    prob: ProblemInstance, raw_kernel: np.ndarray, strong: bool, outcome_status: SolveStatus, certificate: dict
) -> TradeoffResult:
    kernel = Channel(prob.degrade.output, prob.restore_alphabet, raw_kernel)
    restored = push_forward(prob.degraded, kernel)
    if strong:
        value = bayes_error(restored)
    else:
        value = error_rate(restored, prob.classifier)
    achieved_d = expected_distortion(prob.source, prob.degrade, kernel, prob.delta)
    if prob.perception_defined():
        achieved_p = divergence(prob.divergence, prob.source.marginal, restored.marginal)
    else:
        achieved_p = math.nan
    return TradeoffResult(
        value=value,
        kernel=kernel,
        achieved_distortion=achieved_d,
        achieved_perception=achieved_p,
        status=outcome_status,
        certificate=certificate,
    )


def _infeasible_result(outcome: _LinearOutcome, method_note: str) -> TradeoffResult:
    return TradeoffResult(
        value=math.nan,
        kernel=None,
        achieved_distortion=math.nan,
        achieved_perception=math.nan,
        status=SolveStatus.INFEASIBLE,
        certificate={
            "method": outcome.method,
            "iterations": outcome.iterations,
            "duality_gap": None,
            "violated": outcome.violated,
            "notes": outcome.notes or method_note,
        },
    )


def solve_cdp(prob: ProblemInstance, dist_budget: float, perc_budget: float) -> TradeoffResult:
    """Fixed-classifier surface value at one (D, P) point.

    Minimizes the error rate of the instance's classifier over restoration
    kernels meeting both budgets.  Pass ``math.inf`` to drop a constraint.
    Exact (LP) for total variation, zero perception budgets, or absent
    perception constraints; otherwise solved to a certified duality gap of
    ``GENERAL_GAP_TOL`` within the iteration budget.
    """
    _validate_budgets(prob, dist_budget, perc_budget)
    outcome = _minimize_linear(prob, prob.objective_weights, dist_budget, perc_budget)
    if outcome.status is SolveStatus.INFEASIBLE:
        return _infeasible_result(outcome, "fixed-classifier solve")
    certificate = {
        "method": outcome.method,
        "iterations": outcome.iterations,
        "duality_gap": outcome.gap,
        "violated": None,
        "notes": outcome.notes,
    }
    return _result_from_kernel(prob, outcome.kernel, False, outcome.status, certificate)


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
        outcome = _minimize_linear(prob, weights[r], dist_budget, perc_budget)
        if outcome.status is SolveStatus.INFEASIBLE:
            return _infeasible_result(outcome, "strong solve")
        solved += 1
        iterations += outcome.iterations
        # Both values sum per-symbol class masses in one order, so the Bayes
        # error never rounds above the region's own error rate.
        q1 = prob.source.prior1 * (outcome.kernel.T @ prob.p_y1)
        q2 = prob.source.prior2 * (outcome.kernel.T @ prob.p_y2)
        value = float(np.minimum(q1, q2).sum())
        lower = min(lower, float(np.where(regions[r], q2, q1).sum()) - outcome.gap)
        if value < best_val:
            best_val, best_K = value, outcome.kernel
    gap = max(best_val - lower, 0.0)
    certificate = {
        "method": "regions",
        "iterations": iterations,
        "duality_gap": gap,
        "violated": None,
        "regions_solved": solved,
        "regions_pruned": count - solved,
        "enumerated": count,
        "notes": "minimum of the fixed-classifier solve over decision regions",
    }
    status = SolveStatus.OPTIMAL if gap <= GENERAL_GAP_TOL else SolveStatus.ITERATION_LIMIT
    return _result_from_kernel(prob, best_K, True, status, certificate)


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
