"""Brute-force reference answers for the tradeoff solvers.

The solvers in :mod:`.solver` are checked against exhaustive search over a
lattice of restoration kernels: every row of the kernel ranges over the
rational simplex grid with denominator ``1/step``.  The lattice is a subset
of the feasible set, so the grid minimum never undercuts the true minimum.

Bounding the other direction takes two ingredients.  Any kernel can be
rounded row-wise to the lattice while moving each row by at most
``step * width / 2`` in l1 norm (largest-remainder rounding), which moves
the objective by at most an explicit Lipschitz term.  But rounding can also
push a boundary-tight kernel out of the feasible set, so the search runs a
second pass with both budgets relaxed by the rounding drift; the strict
minimum minus the relaxed minimum measures that boundary pinch, and the
reported ``lipschitz_slack`` is the Lipschitz term plus the pinch.  The
relaxation is exact for the distortion budget (linear) and the
total-variation budget; for the smooth divergences the relaxed test pulls
each rounded marginal toward the source marginal by the rounding radius
before evaluating, which is a practical widening rather than a proof, so
comparisons under those kinds should avoid razor-thin perception budgets.

Everything here is deliberately naive: enumerate, evaluate in vectorized
chunks, take the minimum.  No reuse of the solver's optimization paths, so a
bug there cannot hide here.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import lru_cache
from itertools import product
from typing import Iterator, Optional

import numpy as np

from .errors import SizeError
from .metrics import HELLINGER, KULLBACK_LEIBLER, TOTAL_VARIATION, DivergenceKind
from .prob_core import Alphabet, Channel
from .solver import ProblemInstance, SolveStatus

# Hard ceiling on lattice kernels examined by one grid search.
GRID_KERNEL_CAP = 10_000_000
# Deterministic-kernel enumeration refuses above this count.
DETERMINISTIC_CAP = 1_000_000
_CHUNK = 65536


# ---------------------------------------------------------------------------
# Batch evaluation of lattice kernels
# ---------------------------------------------------------------------------


def _batch_pushforward(kernels: np.ndarray, weights: np.ndarray) -> np.ndarray:
    """Apply a batch of kernels (B, ny, nxh) to a mass vector over y."""
    return np.einsum("byj,y->bj", kernels, weights)


def _batch_fixed_error(kernels: np.ndarray, objective_weights: np.ndarray) -> np.ndarray:
    return np.einsum("byj,yj->b", kernels, objective_weights)


def _batch_bayes_error(kernels: np.ndarray, prob: ProblemInstance) -> np.ndarray:
    q1 = _batch_pushforward(kernels, prob.p_y1)
    q2 = _batch_pushforward(kernels, prob.p_y2)
    return np.minimum(prob.source.prior1 * q1, prob.source.prior2 * q2).sum(axis=1)


def _batch_distortion(kernels: np.ndarray, distortion_weights: np.ndarray) -> np.ndarray:
    return np.einsum("byj,yj->b", kernels, distortion_weights)


def _divergence_batch(kind: DivergenceKind, p: np.ndarray, q: np.ndarray) -> np.ndarray:
    """Divergence of each row of ``q`` (B, n) from ``p`` (n,); +inf on support mismatch."""
    p = np.maximum(p, 0.0)
    q = np.maximum(q, 0.0)
    if kind.name == TOTAL_VARIATION:
        return 0.5 * np.abs(q - p[None, :]).sum(axis=1)
    support = p > 0.0
    ps = p[support]
    qs = q[:, support]
    if kind.name == KULLBACK_LEIBLER:
        bad = (qs == 0.0).any(axis=1)
        safe = np.maximum(qs, 1e-300)
        vals = np.sum(ps[None, :] * np.log(ps[None, :] / safe), axis=1)
        vals[bad] = math.inf
        return vals
    if kind.name == HELLINGER:
        return 0.5 * np.sum((np.sqrt(q) - np.sqrt(p)[None, :]) ** 2, axis=1)
    alpha = kind.alpha
    if alpha > 1.0:
        bad = (qs == 0.0).any(axis=1)
        safe = np.maximum(qs, 1e-300)
        totals = np.sum(ps[None, :] ** alpha * safe ** (1.0 - alpha), axis=1)
        vals = np.log(np.maximum(totals, 1e-300)) / (alpha - 1.0)
        vals[bad] = math.inf
    else:
        mask = qs > 0.0
        terms = np.where(mask, ps[None, :] ** alpha * np.maximum(qs, 1e-300) ** (1.0 - alpha), 0.0)
        totals = terms.sum(axis=1)
        vals = np.where(totals > 0.0, np.log(np.maximum(totals, 1e-300)) / (alpha - 1.0), math.inf)
    return np.maximum(vals, 0.0)


@lru_cache(maxsize=64)
def _lattice_counts(m: int, k: int) -> np.ndarray:
    """All length-k tuples of nonnegative integers summing to m, as an array."""
    if k == 1:
        out = np.array([[m]], dtype=np.intp)
    else:
        rows = []
        for first in range(m + 1):
            tail = _lattice_counts(m - first, k - 1)
            block = np.empty((tail.shape[0], k), dtype=np.intp)
            block[:, 0] = first
            block[:, 1:] = tail
            rows.append(block)
        out = np.vstack(rows)
    out.setflags(write=False)
    return out


def simplex_lattice(step: float, k: int) -> np.ndarray:
    """Probability vectors of length k whose entries are multiples of ``step``.

    ``step`` must divide 1 up to a 1e-9 tolerance.  Counts are integers, so
    the only rounding is the single division by the denominator.
    """
    if not (0.0 < step <= 1.0):
        raise ValueError(f"step must lie in (0, 1], got {step}")
    m = round(1.0 / step)
    if abs(m * step - 1.0) > 1e-9:
        raise ValueError(f"step must divide 1 (got {step}, nearest denominator {m})")
    return _lattice_counts(m, k) / float(m)


@dataclass(frozen=True, eq=False)
class KernelGrid:
    """The lattice of restoration kernels used by the grid search."""

    step: float
    n_outputs: int  # rows of the kernel (degraded-alphabet size)
    n_restored: int  # columns (restoration-alphabet size)

    @property
    def row_points(self) -> np.ndarray:
        return simplex_lattice(self.step, self.n_restored)

    @property
    def points_per_row(self) -> int:
        return self.row_points.shape[0]

    @property
    def total_kernels(self) -> int:
        return self.points_per_row**self.n_outputs

    def batches(self, chunk: int = _CHUNK) -> Iterator[np.ndarray]:
        """Yield every lattice kernel in (B, n_outputs, n_restored) chunks."""
        rows = self.row_points
        n = self.points_per_row
        total = self.total_kernels
        powers = n ** np.arange(self.n_outputs - 1, -1, -1, dtype=np.int64)
        for start in range(0, total, chunk):
            idx = np.arange(start, min(start + chunk, total), dtype=np.int64)
            digits = (idx[:, None] // powers[None, :]) % n
            yield rows[digits]

    def rounding_radius(self) -> float:
        """Row-wise l1 distance within which any kernel has a lattice neighbor."""
        return self.step * self.n_restored / 2.0


@dataclass(frozen=True, eq=False)
class OracleSearchResult:
    """Outcome of one exhaustive lattice search.

    ``value`` is the minimum over lattice kernels feasible at the exact
    budgets, so it never undercuts the true minimum.  ``relaxed_value`` is
    the minimum over the drift-relaxed budgets (see the module docstring)
    and anchors the other side: the reported ``lipschitz_slack`` already
    folds in the strict-vs-relaxed pinch, so the true minimum lies within
    ``lipschitz_slack`` below ``value`` under the stated caveats.
    """

    value: float
    status: SolveStatus
    kernel: Optional[Channel]
    lipschitz_slack: float
    feasible_count: int
    evaluated_count: int
    step: float
    relaxed_value: float = math.nan


def _objective_slack(grid: KernelGrid, weights: np.ndarray) -> float:
    """Bound on |<W, K> - <W, K'>| over row-wise lattice rounding.

    Rows of K and K' both sum to one, so the per-row inner-product change is
    at most (max - min)/2 of the row weights times the l1 row distance.
    """
    r = grid.rounding_radius()
    ranges = weights.max(axis=1) - weights.min(axis=1)
    return float(r * 0.5 * ranges.sum())


def _bayes_slack(grid: KernelGrid, prob: ProblemInstance) -> float:
    """Bound on the Bayes-error change over row-wise lattice rounding.

    The per-symbol minimum of the two class masses moves by at most the
    larger of the two mass changes, which telescopes to the rounding radius
    times the total class weights.
    """
    return float(grid.rounding_radius())


def grid_search_cdp(
    prob: ProblemInstance, dist_budget: float, perc_budget: float, step: float
) -> OracleSearchResult:
    """Exhaustive lattice minimum of the fixed-classifier error under both budgets."""
    return _grid_search(prob, dist_budget, perc_budget, step, strong=False)


def grid_search_scdp(
    prob: ProblemInstance, dist_budget: float, perc_budget: float, step: float
) -> OracleSearchResult:
    """Exhaustive lattice minimum of the Bayes error under both budgets."""
    return _grid_search(prob, dist_budget, perc_budget, step, strong=True)


def _relaxed_perception_mask(
    prob: ProblemInstance, batch: np.ndarray, perc_budget: float, radius: float
) -> np.ndarray:
    """Drift-relaxed perception test for one batch of lattice kernels.

    Total variation admits an exact relaxation (the budget grows by the
    pushforward drift).  The smooth divergences have no Lipschitz constant,
    so each lattice marginal is pulled toward the source marginal by the
    same drift radius before testing against the original budget; any
    strictly feasible lattice point stays accepted (the pull can only lower
    a convex divergence), and boundary-adjacent rounded points usually do.
    """
    kind = prob.divergence
    p = prob.p_x
    q = np.clip(_batch_pushforward(batch, prob.p_y), 0.0, None)
    if kind.name == TOTAL_VARIATION:
        vals = _divergence_batch(kind, p, q)
        return vals <= perc_budget + radius / 2.0 + 1e-12
    tv = 0.5 * np.abs(q - p[None, :]).sum(axis=1)
    with np.errstate(divide="ignore", invalid="ignore"):
        t = np.where(tv > 0.0, np.minimum(1.0, (radius / 2.0) / tv), 1.0)
    pulled = (1.0 - t)[:, None] * q + t[:, None] * p[None, :]
    vals = _divergence_batch(kind, p, pulled)
    return vals <= perc_budget + 1e-12


def _grid_search(
    prob: ProblemInstance, dist_budget: float, perc_budget: float, step: float, strong: bool
) -> OracleSearchResult:
    for name, value in (("dist_budget", dist_budget), ("perc_budget", perc_budget)):
        if math.isnan(value) or value < 0.0:
            raise ValueError(f"{name} must be nonnegative (or +inf), got {value}")
    ny, nxh = prob.kernel_shape
    grid = KernelGrid(step=step, n_outputs=ny, n_restored=nxh)
    total = grid.total_kernels
    if total > GRID_KERNEL_CAP:
        raise SizeError(
            f"grid search would examine {total} kernels (cap {GRID_KERNEL_CAP}); "
            f"use a coarser step than {step}"
        )
    use_perception = math.isfinite(perc_budget)
    radius = grid.rounding_radius()
    G = prob.distortion_weights
    dist_drift = radius * 0.5 * float((G.max(axis=1) - G.min(axis=1)).sum())
    best_val = math.inf
    best_kernel = None
    relaxed_val = math.inf
    feasible_count = 0
    evaluated = 0
    for batch in grid.batches():
        evaluated += batch.shape[0]
        dist = _batch_distortion(batch, G)
        strict = dist <= dist_budget + 1e-12
        relaxed = dist <= dist_budget + dist_drift + 1e-12
        if use_perception:
            perc = _divergence_batch(
                prob.divergence, prob.p_x, np.clip(_batch_pushforward(batch, prob.p_y), 0.0, None)
            )
            strict &= perc <= perc_budget + 1e-12
            relaxed &= _relaxed_perception_mask(prob, batch, perc_budget, radius)
        if strong:
            vals = _batch_bayes_error(batch, prob)
        else:
            vals = _batch_fixed_error(batch, prob.objective_weights)
        count = int(strict.sum())
        if count:
            feasible_count += count
            idx = int(np.flatnonzero(strict)[vals[strict].argmin()])
            if vals[idx] < best_val:
                best_val = float(vals[idx])
                best_kernel = batch[idx].copy()
        if relaxed.any():
            relaxed_val = min(relaxed_val, float(vals[relaxed].min()))
    slack = _bayes_slack(grid, prob) if strong else _objective_slack(grid, prob.objective_weights)
    if best_kernel is None:
        return OracleSearchResult(
            value=math.nan,
            status=SolveStatus.INFEASIBLE,
            kernel=None,
            lipschitz_slack=slack,
            feasible_count=0,
            evaluated_count=evaluated,
            step=step,
            relaxed_value=relaxed_val if math.isfinite(relaxed_val) else math.nan,
        )
    if math.isfinite(relaxed_val):
        slack += max(0.0, best_val - relaxed_val)
    return OracleSearchResult(
        value=best_val,
        status=SolveStatus.OPTIMAL,
        kernel=Channel(prob.degrade.output, prob.restore_alphabet, best_kernel),
        lipschitz_slack=slack,
        feasible_count=feasible_count,
        evaluated_count=evaluated,
        step=step,
        relaxed_value=relaxed_val,
    )


def enumerate_deterministic_kernels(inputs: Alphabet, outputs: Alphabet) -> Iterator[Channel]:
    """Yield every deterministic channel from ``inputs`` to ``outputs``.

    There are ``outputs.size ** inputs.size`` of them; the enumeration
    refuses to start above ``DETERMINISTIC_CAP``.
    """
    count = outputs.size**inputs.size
    if count > DETERMINISTIC_CAP:
        raise SizeError(
            f"{count} deterministic kernels exceed the enumeration cap {DETERMINISTIC_CAP}"
        )
    eye = np.eye(outputs.size)
    for assignment in product(range(outputs.size), repeat=inputs.size):
        yield Channel(inputs, outputs, eye[list(assignment)])
