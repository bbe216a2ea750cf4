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
- Renyi divergence of order ``alpha`` (alpha > 0, alpha != 1) follows
  ``1/(alpha-1) * ln sum p^alpha q^(1-alpha)``.

``+inf`` is a first-class value: KL and Renyi return it on support mismatch
instead of raising, so constraint sweeps can treat unreachable budgets as
structurally infeasible rather than crash.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Optional

import numpy as np

from .errors import DimensionError, InvalidDistributionError
from .prob_core import Alphabet, Channel, MixtureSource, ProbVector

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
            if not (self.alpha > 0.0 and self.alpha != 1.0):
                raise InvalidDistributionError(f"renyi alpha must be > 0 and != 1, got {self.alpha}")
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


def _divergence_arrays(kind: DivergenceKind, p: np.ndarray, q: np.ndarray) -> float:
    """Divergence between two raw mass arrays; may return ``math.inf``."""
    if kind.name == TOTAL_VARIATION:
        return float(0.5 * np.abs(p - q).sum())
    if kind.name == KULLBACK_LEIBLER:
        support = p > 0.0
        if np.any(q[support] == 0.0):
            return math.inf
        ps, qs = p[support], q[support]
        return float(np.sum(ps * np.log(ps / qs)))
    if kind.name == HELLINGER:
        return float(0.5 * np.sum((np.sqrt(p) - np.sqrt(q)) ** 2))
    # Renyi: the log of sum p^alpha q^(1-alpha), over the terms with q > 0, by
    # log-sum-exp, so that no power overflows at any order.
    alpha = kind.alpha
    support = p > 0.0
    ps, qs = p[support], q[support]
    if alpha > 1.0 and np.any(qs == 0.0):
        return math.inf
    ps, qs = ps[qs > 0.0], qs[qs > 0.0]
    if not qs.size:
        return math.inf
    logs = alpha * np.log(ps) + (1.0 - alpha) * np.log(qs)
    top = float(logs.max())
    value = (top + math.log(float(np.sum(np.exp(logs - top))))) / (alpha - 1.0)
    # Rounding can nudge the sum past the exact value at p == q; clamp at 0.
    return max(value, 0.0)


def _divergence_gradient(kind: DivergenceKind, p: np.ndarray, q: np.ndarray) -> np.ndarray:
    """Gradient of ``d(p, .)`` at ``q``; entries may be huge near the simplex boundary.

    Only meaningful where the divergence is finite and differentiable; callers
    keep iterates away from support-mismatch boundaries.  ``q`` is floored at
    a tiny positive value to avoid literal division by zero.
    """
    qf = np.maximum(q, 1e-300)
    if kind.name == TOTAL_VARIATION:
        return 0.5 * np.sign(q - p)
    if kind.name == KULLBACK_LEIBLER:
        grad = np.zeros_like(q)
        support = p > 0.0
        grad[support] = -p[support] / qf[support]
        return grad
    if kind.name == HELLINGER:
        return 0.5 * (1.0 - np.sqrt(p / qf))
    # -r / sum(r q) with r = (p/q)^alpha is unchanged by scaling r, so r is
    # taken relative to its largest term and cannot overflow.
    ratio = np.zeros_like(q)
    support = p > 0.0
    ratio[support] = p[support] / qf[support]
    ratio = (ratio / ratio.max()) ** kind.alpha
    return -ratio / float(np.sum(ratio * qf))


def divergence(kind: DivergenceKind, p: ProbVector, q: ProbVector) -> float:
    """Perceptual difference ``d(p, q)``: nonnegative, zero iff ``p == q``.

    All four kinds are convex in ``q``, which is the property the tradeoff
    surface arguments rely on.
    """
    if p.alphabet != q.alphabet:
        raise DimensionError(f"alphabets differ: {p.alphabet} vs {q.alphabet}")
    return _divergence_arrays(kind, p.mass, q.mass)


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
