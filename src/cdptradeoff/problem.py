"""The tradeoff problem, apart from any solver of it.

Setting: a two-class source X goes through a fixed degradation channel to Y;
a restoration kernel K = p(xhat|y), the decision variable, produces Xhat.
Two surfaces are computed as functions of a distortion budget D and a
perception budget P:

- the fixed-classifier surface: minimize the error rate of a predefined
  decision region applied to Xhat, subject to expected distortion <= D and
  divergence(p_X, p_Xhat) <= P;
- the strong surface: the same program with the error rate replaced by the
  Bayes error of Xhat, i.e. the classifier adapts to the restored signal.

This module holds the problem instance with the weights that make the error
rate and the distortion linear in K, the statuses a solve can end in, the
smallest achievable distortion, and the rules budgets and budget grids must
meet.  It loads no LP solver, so the solvers in :mod:`.solver` and the
lattice oracle in :mod:`.oracle` both take the problem from here.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from enum import Enum
from functools import cached_property
from typing import Sequence

import numpy as np

from .classify import DecisionRegion
from .errors import DimensionError, InvalidDistributionError
from .metrics import DistortionMatrix, DivergenceKind
from .prob_core import Alphabet, Channel, MixtureSource, push_forward

# HiGHS rejects a model with any matrix entry of this size or more (its
# large_matrix_value).  The distortion weights are the only entries that
# scale with the input, so ProblemInstance refuses weights this large.
_HIGHS_MATRIX_LIMIT = 1e15


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
        largest = float(self.distortion_weights.max())
        if not largest < _HIGHS_MATRIX_LIMIT:
            raise InvalidDistributionError(
                f"distortion costs too large: the largest distortion weight is {largest:.7g}, "
                f"and the LP solver accepts only weights below {_HIGHS_MATRIX_LIMIT:g}"
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

    @cached_property
    def class_weights(self) -> tuple:
        """(w_in, w_out): the error weight of kernel entry (y, xhat) when xhat
        is inside the decision region, where class 2 errs, and outside it,
        where class 1 errs."""
        return self.source.prior2 * self.p_y2, self.source.prior1 * self.p_y1

    def region_weights(self, members: np.ndarray) -> np.ndarray:
        """W[y, xhat] for the decision region whose indicator over Xhat is ``members``."""
        w_in, w_out = self.class_weights
        return np.where(members, w_in[:, None], w_out[:, None])

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

    def check_budgets(self, dist_budget: float, perc_budget: float) -> None:
        """Reject a NaN or negative budget, and a finite perception budget
        where p_X and p_Xhat live on alphabets of different sizes."""
        for name, value in (("D", dist_budget), ("P", perc_budget)):
            if math.isnan(value) or value < 0.0:
                raise ValueError(f"{name} must be nonnegative (or +inf), got {value}")
        if math.isfinite(perc_budget) and not self.perception_defined():
            raise DimensionError("perception constraint needs restoration and source alphabets of equal size")


def min_distortion(prob: ProblemInstance) -> float:
    """Smallest achievable expected distortion over all restoration kernels.

    The distortion is linear over a product of simplices, so the minimum is
    attained by deterministically mapping each y to the cheapest xhat; any
    budget below this value is infeasible.
    """
    return float(prob.distortion_weights.min(axis=1).sum())


def check_grid(values: Sequence[float], name: str) -> tuple:
    """A budget grid as a tuple of floats: non-empty, free of NaN, nonnegative
    and ascending (``inf`` allowed)."""
    grid = tuple(float(g) for g in values)
    if not grid:
        raise ValueError(f"{name} must be non-empty")
    if any(math.isnan(g) or g < 0.0 for g in grid):
        raise ValueError(f"{name} entries must be nonnegative numbers, got {list(grid)}")
    if list(grid) != sorted(grid):
        raise ValueError(f"{name} must be sorted ascending, got {list(grid)}")
    return grid
