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

The search is still exhaustive: every lattice kernel is visited and the
minimum taken.  It is evaluated from per-row tables, because every quantity
it tests is a sum over kernel rows (``<G, K>``, ``<W, K>``, the restored
marginal ``K^T p_Y`` and the two class masses of the Bayes error).  Each
row's share at every lattice point is tabulated once per search.  Kernels are
visited in blocks of leading-row "heads" crossed with runs of last-row
points, which, flattened, is exactly the kernel order of
``KernelGrid.batches``, so the first minimizer still wins.  A block's
distortion is a head sum plus a last-row entry; only the kernels inside the
relaxed distortion budget go on to have their marginal, divergence, masks
and objective gathered from the tables, and no kernel is materialized except
the one returned.  None of this reuses the solver's optimization paths, so a
bug there cannot hide here.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cached_property, lru_cache
from typing import Iterator, Optional

import numpy as np

from .errors import DimensionError, SizeError
from .metrics import HELLINGER, KULLBACK_LEIBLER, TOTAL_VARIATION, DivergenceKind
from .prob_core import Channel
from .solver import ProblemInstance, SolveStatus

# Hard ceiling on lattice kernels examined by one grid search.
GRID_KERNEL_CAP = 10_000_000
_CHUNK = 65536


# ---------------------------------------------------------------------------
# Batch evaluation of lattice kernels
# ---------------------------------------------------------------------------


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
        positive = qs > 0.0
        bad = ~positive.all(axis=1)
        # A zero entry's power would overflow; its row is set to inf below anyway.
        powers = np.power(np.maximum(qs, 1e-300), 1.0 - alpha, out=np.zeros_like(qs), where=positive)
        totals = np.sum(ps[None, :] ** alpha * powers, axis=1)
        vals = np.log(np.maximum(totals, 1e-300)) / (alpha - 1.0)
        vals[bad] = math.inf
    else:
        mask = qs > 0.0
        terms = np.where(mask, ps[None, :] ** alpha * np.maximum(qs, 1e-300) ** (1.0 - alpha), 0.0)
        totals = terms.sum(axis=1)
        vals = np.where(totals > 0.0, np.log(np.maximum(totals, 1e-300)) / (alpha - 1.0), math.inf)
    return np.maximum(vals, 0.0)


def _kernel_sums(head: np.ndarray, last: np.ndarray, heads: np.ndarray, digits: np.ndarray) -> np.ndarray:
    """Per kernel, its head's sum over the leading rows plus its last row's table entry.

    ``np.take`` along axis 0, because fancy indexing of a (n, nxh) table is
    several times slower at these sizes.
    """
    return np.take(head, heads, axis=0) + np.take(last, digits, axis=0)


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

    @cached_property
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


def _grid_search(
    prob: ProblemInstance, dist_budget: float, perc_budget: float, step: float, strong: bool
) -> OracleSearchResult:
    for name, value in (("dist_budget", dist_budget), ("perc_budget", perc_budget)):
        if math.isnan(value) or value < 0.0:
            raise ValueError(f"{name} must be nonnegative (or +inf), got {value}")
    if math.isfinite(perc_budget) and not prob.perception_defined():
        raise DimensionError(
            "perception constraint needs restoration and source alphabets of equal size"
        )
    ny, nxh = prob.kernel_shape
    grid = KernelGrid(step=step, n_outputs=ny, n_restored=nxh)
    total = grid.total_kernels
    if total > GRID_KERNEL_CAP:
        raise SizeError(
            f"grid search would examine {total} kernels (cap {GRID_KERNEL_CAP}); "
            f"use a coarser step than {step}"
        )
    kind = prob.divergence
    p = prob.p_x
    radius = grid.rounding_radius()
    dist_drift = _objective_slack(grid, prob.distortion_weights)
    rows = grid.row_points
    n = grid.points_per_row
    # Every quantity tested below is a sum over kernel rows, so each row's share
    # at each lattice point is tabulated once: (ny, n) for <G, K> and <W, K>,
    # (ny, n, nxh) for the masses pushed forward to the restored alphabet.
    tables = {"dist": prob.distortion_weights @ rows.T}
    if math.isfinite(perc_budget):
        tables["q"] = prob.p_y[:, None, None] * rows
    if strong:
        tables["q1"] = prob.p_y1[:, None, None] * rows
        tables["q2"] = prob.p_y2[:, None, None] * rows
    else:
        tables["obj"] = prob.objective_weights @ rows.T
    last = {name: table[-1] for name, table in tables.items()}
    n_heads = n ** (ny - 1)
    head_powers = n ** np.arange(ny - 2, -1, -1, dtype=np.int64)
    heads_per_block = max(1, _CHUNK // n)
    tail = min(n, _CHUNK)
    best_val = math.inf
    best_digits = None
    relaxed_val = math.inf
    feasible_count = 0
    # A kernel's index is its head index (leading rows) times n plus its last
    # row's digit, so a block of heads crossed with a run of last-row digits,
    # flattened, is a run of kernels in the order of KernelGrid.batches.
    for h0 in range(0, n_heads, heads_per_block):
        heads = np.arange(h0, min(h0 + heads_per_block, n_heads), dtype=np.int64)
        head_digits = (heads[:, None] // head_powers[None, :]) % n
        head = {name: table[np.arange(ny - 1), head_digits].sum(axis=1) for name, table in tables.items()}
        for t0 in range(0, n, tail):
            t1 = min(t0 + tail, n)
            dist = (head["dist"][:, None] + last["dist"][None, t0:t1]).ravel()
            # Both masks lie inside the relaxed distortion budget, so every
            # other quantity is built only for the kernels that meet it.
            keep = np.flatnonzero(dist <= dist_budget + dist_drift + 1e-12)
            if not keep.size:
                continue
            hi, ti = np.divmod(keep, t1 - t0)
            ti += t0
            strict = dist[keep] <= dist_budget + 1e-12
            relaxed = np.ones(keep.size, dtype=bool)
            if "q" in tables:
                q = np.clip(_kernel_sums(head["q"], last["q"], hi, ti), 0.0, None)
                perc = _divergence_batch(kind, p, q)
                strict &= perc <= perc_budget + 1e-12
                # Rounding moves q by at most radius/2 in TV, so the TV relaxation
                # is exact.  Smooth divergences have no Lipschitz constant: pull q
                # toward p_X by that distance and test the original budget.  The
                # pull only lowers a convex divergence, so strictly feasible points
                # stay accepted, and boundary-adjacent rounded points usually do.
                if kind.name == TOTAL_VARIATION:
                    relaxed &= perc <= perc_budget + radius / 2.0 + 1e-12
                else:
                    with np.errstate(divide="ignore"):  # q == p_X divides to inf: t = 1
                        t = np.minimum(1.0, (radius / 2.0) / (0.5 * np.abs(q - p).sum(axis=1)))[:, None]
                    relaxed &= _divergence_batch(kind, p, (1.0 - t) * q + t * p) <= perc_budget + 1e-12
                    del t
                # Held into the next block, q and t fragment the heap and raise peak RSS.
                del q
            if strong:
                q1 = _kernel_sums(head["q1"], last["q1"], hi, ti)
                q2 = _kernel_sums(head["q2"], last["q2"], hi, ti)
                vals = np.minimum(prob.source.prior1 * q1, prob.source.prior2 * q2).sum(axis=1)
                del q1, q2
            else:
                vals = _kernel_sums(head["obj"], last["obj"], hi, ti)
            count = int(strict.sum())
            if count:
                feasible_count += count
                idx = int(np.flatnonzero(strict)[vals[strict].argmin()])
                if vals[idx] < best_val:
                    best_val = float(vals[idx])
                    best_digits = np.append(head_digits[hi[idx]], ti[idx])
            if relaxed.any():
                relaxed_val = min(relaxed_val, float(vals[relaxed].min()))
    # The Bayes error's per-symbol minimum of the class masses moves by at most
    # the larger mass change, which telescopes to the rounding radius.
    slack = radius if strong else _objective_slack(grid, prob.objective_weights)
    found = best_digits is not None
    if found and math.isfinite(relaxed_val):
        slack += max(0.0, best_val - relaxed_val)
    return OracleSearchResult(
        value=best_val if found else math.nan,
        status=SolveStatus.OPTIMAL if found else SolveStatus.INFEASIBLE,
        kernel=Channel(prob.degrade.output, prob.restore_alphabet, rows[best_digits]) if found else None,
        lipschitz_slack=slack,
        feasible_count=feasible_count,
        evaluated_count=total,
        step=step,
        relaxed_value=relaxed_val if math.isfinite(relaxed_val) else math.nan,
    )

