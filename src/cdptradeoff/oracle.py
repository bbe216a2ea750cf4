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
marginal ``K^T p_Y`` and the two class masses of the Bayes error).  The row
lattice is the stars-and-bars enumeration of the counts in lexicographic
order, built once per search and kept in no cache between searches, and each
row's share at every lattice point is tabulated once per search.  Kernels are
visited in blocks of leading-row "heads" crossed with runs of last-row
points, which, flattened, is exactly the kernel order of
``KernelGrid.batches``, so the first minimizer still wins.  A block's
distortion is a head sum plus a last-row entry; only the kernels inside the
relaxed distortion budget go on to have their marginal, divergence, masks
and objective gathered from the tables, and no kernel is materialized except
the one returned.  The marginal, divergence and objective are evaluated one
restored symbol at a time, over symbol-major tables, because NumPy broadcasts
against and reduces a short last axis one row at a time: a loop over the few
symbol columns, each step vectorized over the block's kernels, is several
times faster.  None of this reuses the solver's optimization paths, so a bug
there cannot hide here: the oracle takes the problem from :mod:`.problem` and
imports nothing from :mod:`.solver`.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass
from functools import cached_property
from typing import Iterable, Iterator, Optional

import numpy as np

from .errors import SizeError
from .metrics import HELLINGER, KULLBACK_LEIBLER, TOTAL_VARIATION, DivergenceKind
from .prob_core import Channel, _is_integer
from .problem import ProblemInstance, SolveStatus

# Hard ceiling on lattice kernels examined by one grid search.
GRID_KERNEL_CAP = 10_000_000
_CHUNK = 65536


# ---------------------------------------------------------------------------
# Batch evaluation of lattice kernels
# ---------------------------------------------------------------------------


def _column_sum(columns: Iterable[np.ndarray]) -> np.ndarray:
    """Sum of equal-length columns, added from left to right into the first, which must be a fresh array."""
    columns = iter(columns)
    total = next(columns)
    for column in columns:
        total += column
    return total


def _total_variation(p: np.ndarray, q: np.ndarray) -> np.ndarray:
    """Total variation of each row of ``q`` (B, n) from ``p`` (n,), one column at a time."""
    return 0.5 * _column_sum(np.abs(q[:, j] - p[j]) for j in range(p.size))


def _divergence_batch(kind: DivergenceKind, p: np.ndarray, q: np.ndarray) -> np.ndarray:
    """Divergence of each row of ``q`` (B, n) from ``p`` (n,); +inf on support mismatch.

    Evaluated one restored symbol at a time: each step takes one column of
    ``q`` for the whole batch and adds its term into one accumulator, from
    left to right.  NumPy's row sum adds from left to right too for rows of
    up to 7 entries, so there every value equals the row-wise form's to the
    last bit; from 8 entries on NumPy sums pairwise and the last bit may
    differ.  ``q`` may be a transposed view of a symbol-major (n, B) array,
    whose columns are then contiguous.
    """
    p = np.maximum(p, 0.0)
    q = np.maximum(q, 0.0)
    if kind.name == TOTAL_VARIATION:
        return _total_variation(p, q)
    if kind.name == HELLINGER:
        root = np.sqrt(p)
        return 0.5 * _column_sum((np.sqrt(q[:, j]) - root[j]) ** 2 for j in range(p.size))
    support = np.flatnonzero(p > 0.0)
    if kind.name == KULLBACK_LEIBLER:
        vals = _column_sum(p[j] * np.log(p[j] / np.maximum(q[:, j], 1e-300)) for j in support)
    else:
        # log sum p^alpha q^(1-alpha) over q > 0, by log-sum-exp so that no power
        # overflows at any order; a row with no such term has log-sum -inf.
        alpha = kind.alpha
        log_p = alpha * np.log(p[support])
        with np.errstate(divide="ignore"):
            logs = [
                np.where(q[:, j] > 0.0, lp + (1.0 - alpha) * np.log(q[:, j]), -np.inf) for lp, j in zip(log_p, support)
            ]
            top = np.max(logs, axis=0)
            top[~np.isfinite(top)] = 0.0
            vals = (top + np.log(_column_sum(np.exp(column - top) for column in logs))) / (alpha - 1.0)
        vals = np.maximum(vals, 0.0)
    # KL and Renyi above order 1 are infinite where q misses the support of p.
    if kind.name == KULLBACK_LEIBLER or kind.alpha > 1.0:
        for j in support:
            vals[q[:, j] == 0.0] = math.inf
    return vals


def _kernel_sums(head: np.ndarray, last: np.ndarray, heads: np.ndarray, digits: np.ndarray) -> np.ndarray:
    """Per kernel, its head's sum over the leading rows plus its last row's table entry.

    Tables are (heads,) and (n,), or symbol-major (nxh, heads) and (nxh, n),
    and are gathered along their last axis with ``np.take``, several times
    faster than fancy indexing at these sizes.
    """
    return np.take(head, heads, axis=-1) + np.take(last, digits, axis=-1)


def _row_count(m: int, k) -> int:
    """C(m + k - 1, k - 1), the number of length-k tuples of nonnegative integers
    summing to m; ``k`` must be an integer of at least 1 (a bool is not one)."""
    if not _is_integer(k) or k < 1:
        raise ValueError(f"k must be an integer >= 1, got {k!r}")
    return math.comb(m + k - 1, k - 1)


def _digits(index: np.ndarray, n: int, width: int) -> np.ndarray:
    """The ``width`` base-n digits of each index, most significant first, as (len(index), width)."""
    powers = n ** np.arange(width - 1, -1, -1, dtype=np.int64)
    return (index[:, None] // powers[None, :]) % n


def _denominator(step: float) -> int:
    """The integer m = 1/step; ``step`` must divide 1 up to a 1e-9 tolerance."""
    if not (0.0 < step <= 1.0):
        raise ValueError(f"step must lie in (0, 1], got {step}")
    m = round(1.0 / step)
    if abs(m * step - 1.0) > 1e-9:
        raise ValueError(f"step must divide 1 (got {step}, nearest denominator {m})")
    return m


def simplex_lattice(step: float, k: int) -> np.ndarray:
    """Probability vectors of length k whose entries are multiples of ``step``.

    ``step`` must divide 1 up to a 1e-9 tolerance.  The counts are the stars
    and bars of m = 1/step in k parts: each choice of k - 1 bars among
    m + k - 1 slots, in ``itertools.combinations`` order, gives the gaps
    between the bars, so the rows come in lexicographic order.  Counts are
    integers, so the only rounding is the single division by m.
    """
    m = _denominator(step)
    n, slots = _row_count(m, k), m + k - 1
    bars = itertools.chain.from_iterable(itertools.combinations(range(slots), k - 1))
    bars = np.fromiter(bars, dtype=np.intp, count=n * (k - 1)).reshape(n, k - 1)
    counts = np.diff(np.pad(bars, ((0, 0), (1, 1)), constant_values=(-1, slots)), axis=1) - 1
    return counts / float(m)


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
        """The lattice's row count, C(m + k - 1, k - 1) for denominator m and
        k restored symbols, counted without building the lattice."""
        return _row_count(_denominator(self.step), self.n_restored)

    @property
    def total_kernels(self) -> int:
        return self.points_per_row**self.n_outputs

    def batches(self, chunk: int = _CHUNK) -> Iterator[np.ndarray]:
        """Yield every lattice kernel in (B, n_outputs, n_restored) chunks."""
        rows = self.row_points
        n = self.points_per_row
        total = self.total_kernels
        for start in range(0, total, chunk):
            idx = np.arange(start, min(start + chunk, total), dtype=np.int64)
            yield rows[_digits(idx, n, self.n_outputs)]

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
    prob.check_budgets(dist_budget, perc_budget)
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
    # (ny, n, nxh) for the masses pushed forward to the restored alphabet.  The
    # per-block mass tables are kept symbol-major, (nxh, n) and (nxh, heads), so
    # that each restored symbol's masses are gathered into one contiguous row.
    tables = {"dist": prob.distortion_weights @ rows.T}
    if math.isfinite(perc_budget):
        tables["q"] = prob.p_y[:, None, None] * rows
    if strong:
        tables["q1"] = prob.p_y1[:, None, None] * rows
        tables["q2"] = prob.p_y2[:, None, None] * rows
    else:
        tables["obj"] = prob.objective_weights @ rows.T
    last = {name: np.ascontiguousarray(table[-1].T) for name, table in tables.items()}
    n_heads = n ** (ny - 1)
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
        head_digits = _digits(heads, n, ny - 1)
        head = {
            name: np.ascontiguousarray(table[np.arange(ny - 1), head_digits].sum(axis=1).T)
            for name, table in tables.items()
        }
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
                # Sums of nonnegative table entries: _divergence_batch's clip is the only one needed.
                q = _kernel_sums(head["q"], last["q"], hi, ti)
                perc = _divergence_batch(kind, p, q.T)
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
                        t = np.minimum(1.0, (radius / 2.0) / _total_variation(p, q.T))
                    pulled = (1.0 - t) * q + t * p[:, None]
                    relaxed &= _divergence_batch(kind, p, pulled.T) <= perc_budget + 1e-12
                    del t, pulled
                # Held into the next block, q and t fragment the heap and raise peak RSS.
                del q
            if strong:
                q1 = _kernel_sums(head["q1"], last["q1"], hi, ti)
                q2 = _kernel_sums(head["q2"], last["q2"], hi, ti)
                prior1, prior2 = prob.source.prior1, prob.source.prior2
                vals = _column_sum(np.minimum(prior1 * q1[j], prior2 * q2[j]) for j in range(nxh))
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

