"""Divergences between mass functions and expected-distortion functionals.

These are the two constraint functionals of the tradeoff problems: a
perceptual-difference divergence ``d(p, q)`` that is convex in ``q``, and an
expected distortion ``E[cost(X, Xhat)]`` that is linear in the restoration
kernel.

Conventions, fixed here once for the whole package:

- Total variation uses the half-sum convention ``1/2 * sum |p - q|`` and so
  ranges over [0, 1].  Any perception budget published by this package is on
  that scale.
- Kullback-Leibler divergence is measured in nats.
- Hellinger means the squared Hellinger distance ``1/2 * sum (sqrt p - sqrt q)^2``.
- Renyi divergence of order ``alpha`` (0 < alpha < inf, alpha != 1) follows
  ``1/(alpha-1) * ln sum p^alpha q^(1-alpha)``.

``+inf`` is a first-class value: KL, and Renyi above order 1, return it when
q misses the support of p, instead of raising, so constraint sweeps can treat
unreachable budgets as structurally infeasible rather than crash.  KL gets it
from its own sum, whose term p * log(p / 0) is +inf; Renyi, whose log-sum-exp
must leave the q = 0 terms out, from a support flag.

``divergence`` wraps the one array form, ``_divergence_arrays``, which works
along the last axis: a scalar for one row (a NumPy scalar, or a Python float
for Renyi; ``divergence`` makes it a float), an array for a stack whose every
row is the same bytes the row gives alone.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Optional

import numpy as np

from .errors import DimensionError, InvalidDistributionError
from .prob_core import Alphabet, Channel, MixtureSource, ProbVector, _masked_sum

TOTAL_VARIATION = "total_variation"
KULLBACK_LEIBLER = "kullback_leibler"
HELLINGER = "hellinger"
RENYI = "renyi"

_KNOWN_KINDS = (TOTAL_VARIATION, KULLBACK_LEIBLER, HELLINGER, RENYI)


@dataclass(frozen=True)
class DivergenceKind:
    """Choice of perceptual-difference divergence; ``alpha`` only for Renyi."""

    name: str
    alpha: Optional[float] = None

    def __post_init__(self):
        if self.name not in _KNOWN_KINDS:
            raise InvalidDistributionError(f"unknown divergence kind {self.name!r}; expected one of {_KNOWN_KINDS}")
        if self.name == RENYI:
            if self.alpha is None:
                raise InvalidDistributionError("renyi divergence requires an alpha")
            # At an infinite order every divergence would read NaN.
            if not (0.0 < self.alpha < math.inf and self.alpha != 1.0):
                raise InvalidDistributionError(f"renyi alpha must be finite, > 0 and != 1, got {self.alpha}")
        elif self.alpha is not None:
            raise InvalidDistributionError(f"alpha is only meaningful for renyi, got kind {self.name!r}")

    @classmethod
    def total_variation(cls) -> "DivergenceKind":
        return cls(TOTAL_VARIATION)

    @classmethod
    def kullback_leibler(cls) -> "DivergenceKind":
        return cls(KULLBACK_LEIBLER)

    @classmethod
    def hellinger(cls) -> "DivergenceKind":
        return cls(HELLINGER)

    @classmethod
    def renyi(cls, alpha: float) -> "DivergenceKind":
        return cls(RENYI, float(alpha))


def _divergence_arrays(kind: DivergenceKind, p: np.ndarray, q: np.ndarray):
    """Divergence between mass rows along the last axis; may be ``+inf``.

    One row gives a scalar, a stack an array whose every row is the same
    bytes the row gives alone.  KL and Renyi add only the entries they keep
    (``p > 0``; for Renyi also ``q > 0``) with ``_masked_sum``.  KL's
    ``+inf`` on a support mismatch comes from that sum itself: a kept term
    with ``q = 0`` is ``p * log(p / 0) = +inf``, and no kept term of finite
    masses is ``-inf`` or NaN.
    """
    if kind.name == TOTAL_VARIATION:
        return 0.5 * np.add.reduce(np.abs(p - q), axis=-1)
    if kind.name == HELLINGER:
        return 0.5 * np.add.reduce((np.sqrt(p) - np.sqrt(q)) ** 2, axis=-1)
    support = p > 0.0
    # Entries left out may divide by zero or take the log of 0; they are
    # computed and then left out of every sum and maximum.
    with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
        if kind.name == RENYI:
            return _renyi(kind.alpha, p, q, support)
        return _masked_sum(p * np.log(p / q), support)


def _renyi(alpha: float, p: np.ndarray, q: np.ndarray, support: np.ndarray):
    """The Renyi rows of ``_divergence_arrays``: the log of sum p^alpha q^(1-alpha)
    over the terms with p > 0 and q > 0, by log-sum-exp, so that no power
    overflows at any order.  The log of the sum is ``math.log`` per row:
    ``np.log`` can round it differently.  One row gives a Python float.

    The q = 0 terms must stay out of the log-sum-exp, so unlike KL the sum
    cannot carry the support mismatch: above order 1, where such a term is
    +inf, a flag set from ``support`` makes the row infinite.
    """
    keep = support & (q > 0.0)
    infinite = (support & (q == 0.0)).any(axis=-1) if alpha > 1.0 else False
    logs = alpha * np.log(p) + (1.0 - alpha) * np.log(q)
    top = logs.max(axis=-1, where=keep, initial=-math.inf, keepdims=True)
    total = _masked_sum(np.exp(logs - top), keep)
    # The largest kept term adds exp(0) = 1, so only a row that keeps none sums to 0.
    infinite = infinite | (total == 0.0)
    # Rounding can nudge the sum past the exact value at p == q; clamp at 0
    # with ``max(value, 0.0)``, which keeps ``value`` unless 0.0 is larger.
    if p.ndim == 1:
        return math.inf if infinite else max((float(top[0]) + math.log(total)) / (alpha - 1.0), 0.0)
    finite = ~infinite
    value = np.full(infinite.shape, math.inf)
    value[finite] = (top[finite, 0] + [math.log(t) for t in total[finite].tolist()]) / (alpha - 1.0)
    return np.where(0.0 > value, 0.0, value)


def _divergence_gradient(kind: DivergenceKind, p: np.ndarray, q: np.ndarray) -> np.ndarray:
    """Gradient of ``d(p, .)`` at ``q`` for the smooth kinds only; entries may
    be huge near the simplex boundary.

    Only meaningful where the divergence is finite and differentiable; callers
    keep iterates away from support-mismatch boundaries.  ``q`` is floored at
    a tiny positive value to avoid literal division by zero, so a symbol with
    ``p_j = 0`` gets the slope its quotient ``0 / q_j`` gives: 0, or -0.0 for KL.
    """
    qf = np.maximum(q, 1e-300)
    if kind.name == KULLBACK_LEIBLER:
        return -p / qf
    if kind.name == HELLINGER:
        return 0.5 * (1.0 - np.sqrt(p / qf))
    # -r / sum(r q) with r = (p/q)^alpha is unchanged by scaling r, so r is
    # taken relative to its largest term and cannot overflow.
    ratio = p / qf
    ratio = (ratio / ratio.max()) ** kind.alpha
    return -ratio / float(np.sum(ratio * qf))


def divergence(kind: DivergenceKind, p: ProbVector, q: ProbVector) -> float:
    """Perceptual difference ``d(p, q)``: nonnegative, zero iff ``p == q``.

    All four kinds are convex in ``q``, which is the property the tradeoff
    surface arguments rely on.
    """
    if p.alphabet != q.alphabet:
        raise DimensionError(f"alphabets differ: {p.alphabet} vs {q.alphabet}")
    return float(_divergence_arrays(kind, p.mass, q.mass))


@dataclass(frozen=True, eq=False)
class DistortionMatrix:
    """Per-pair distortion costs ``cost[x, xhat] >= 0`` between two alphabets."""

    source: Alphabet
    target: Alphabet
    cost: np.ndarray

    def __post_init__(self):
        mat = np.asarray(self.cost, dtype=np.float64)
        expected = (self.source.size, self.target.size)
        if mat.shape != expected:
            raise DimensionError(f"distortion matrix: expected shape {expected}, got {mat.shape}")
        # One min and one max accept valid costs; NaN fails the min's test.
        if not (np.minimum.reduce(mat, axis=None) >= 0.0 and np.maximum.reduce(mat, axis=None) < math.inf):
            if not np.all(np.isfinite(mat)):
                raise InvalidDistributionError("distortion matrix: non-finite entries")
            raise InvalidDistributionError("distortion matrix: negative entries")
        mat = mat.copy()
        mat.setflags(write=False)
        object.__setattr__(self, "cost", mat)

    @classmethod
    def hamming(cls, source: Alphabet, target: Optional[Alphabet] = None) -> "DistortionMatrix":
        """0/1 cost: free on the diagonal, 1 elsewhere.  Alphabets must match in size."""
        target = target or source
        if target.size != source.size:
            raise DimensionError("hamming distortion needs equal-size alphabets")
        return cls(source, target, 1.0 - np.eye(source.size))


def expected_distortion(
    src: MixtureSource, degrade: Channel, restore: Channel, delta: DistortionMatrix
) -> float:
    """Mean distortion of the degrade-then-restore pipeline.

    Computes ``sum_{x,y,xhat} p(x) p(y|x) p(xhat|y) cost(x, xhat)`` where
    ``p`` is the source marginal.  Linear in the entries of ``restore``.
    """
    if src.alphabet != degrade.input:
        raise DimensionError(f"source alphabet {src.alphabet} != degradation input {degrade.input}")
    if degrade.output != restore.input:
        raise DimensionError(f"degradation output {degrade.output} != restoration input {restore.input}")
    if delta.source != src.alphabet:
        raise DimensionError(f"distortion source alphabet {delta.source} != source alphabet {src.alphabet}")
    if delta.target != restore.output:
        raise DimensionError(f"distortion target alphabet {delta.target} != restoration output {restore.output}")
    joint = src.marginal.mass[:, None] * degrade.matrix  # p(x, y)
    return float(np.einsum("xy,yz,xz->", joint, restore.matrix, delta.cost))
