"""Binary classifiers over finite alphabets and their error rates.

A binary classifier is a decision region R: symbols inside R are called class
one, symbols outside class two.  For a two-class source the resulting error
rate is

    error_rate(R) = P2 * sum_{x in R} p2(x) + P1 * sum_{x not in R} p1(x),

which is linear in the class-conditional mass functions.  The minimum over
all regions is reached at {x : P1 p1(x) >= P2 p2(x)} and equals the Bayes
error rate

    bayes_error = sum_x min(P1 p1(x), P2 p2(x))
                = 1/2 - 1/2 * sum_x |P1 p1(x) - P2 p2(x)|.

The Bayes error can only grow when the source is pushed through a channel;
``dpi_equality_holds`` tests the structural sparsity condition on the channel
under which it stays exactly equal: no output symbol may receive mass from
both a strictly-class-one input and a strictly-class-two input.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable

import numpy as np

from .errors import DimensionError, InvalidDistributionError
from .prob_core import Alphabet, Channel, MixtureSource

# Absolute tolerance deciding ties in the strict-region partition.
PARTITION_TIE_TOLERANCE = 1e-12


@dataclass(frozen=True, eq=False)
class DecisionRegion:
    """Indicator of the symbols classified as class one.

    ``members`` holds one entry per symbol: a boolean, or a number equal to
    0 or 1.  Any other entry is rejected, naming its index.
    """

    alphabet: Alphabet
    members: np.ndarray

    def __post_init__(self):
        arr = np.asarray(self.members)
        if arr.shape != (self.alphabet.size,):
            raise DimensionError(
                f"region indicator: expected shape ({self.alphabet.size},), got {arr.shape}"
            )
        if arr.dtype != bool:
            for i, entry in enumerate(arr.tolist()):
                if not (isinstance(entry, (bool, int, float, np.bool_, np.integer, np.floating)) and entry in (0, 1)):
                    raise InvalidDistributionError(f"region indicator: entry {i} is {entry!r}, not a boolean, 0 or 1")
        arr = arr.astype(bool)
        arr.setflags(write=False)
        object.__setattr__(self, "members", arr)

    @classmethod
    def from_indices(cls, alphabet: Alphabet, indices: Iterable[int]) -> "DecisionRegion":
        mask = np.zeros(alphabet.size, dtype=bool)
        for i in indices:
            mask[alphabet.check_symbol(i)] = True
        return cls(alphabet, mask)

    @classmethod
    def full(cls, alphabet: Alphabet) -> "DecisionRegion":
        return cls(alphabet, np.ones(alphabet.size, dtype=bool))

    @classmethod
    def empty(cls, alphabet: Alphabet) -> "DecisionRegion":
        return cls(alphabet, np.zeros(alphabet.size, dtype=bool))

    def complement(self) -> "DecisionRegion":
        return DecisionRegion(self.alphabet, ~self.members)

    @property
    def indices(self) -> tuple:
        return tuple(int(i) for i in np.flatnonzero(self.members))

    def __repr__(self):
        return f"DecisionRegion(size={self.alphabet.size}, members={set(self.indices)})"


@dataclass(frozen=True, eq=False)
class RegionPartition:
    """Partition of an alphabet into strictly-class-one, strictly-class-two and tie symbols."""

    plus: DecisionRegion
    minus: DecisionRegion
    zero: DecisionRegion

    def __post_init__(self):
        a = self.plus.alphabet
        if self.minus.alphabet != a or self.zero.alphabet != a:
            raise DimensionError("partition parts must share one alphabet")
        total = (
            self.plus.members.astype(int) + self.minus.members.astype(int) + self.zero.members.astype(int)
        )
        if not np.all(total == 1):
            raise InvalidDistributionError("partition parts must be disjoint and cover the alphabet")


def error_rate(src: MixtureSource, region: DecisionRegion) -> float:
    """Error rate of the fixed classifier given by ``region`` on ``src``.

    Degenerate regions are legal: the full alphabet yields ``prior2`` and the
    empty region yields ``prior1``.
    """
    if src.alphabet != region.alphabet:
        raise DimensionError(f"source alphabet {src.alphabet} != region alphabet {region.alphabet}")
    inside = region.members
    return float(
        src.prior2 * np.add.reduce(src.class2.mass[inside]) + src.prior1 * np.add.reduce(src.class1.mass[~inside])
    )


def bayes_region(src: MixtureSource) -> DecisionRegion:
    """Optimal decision region {x : P1 p1(x) >= P2 p2(x)}; ties go to class one."""
    mask = src.prior1 * src.class1.mass >= src.prior2 * src.class2.mass
    return DecisionRegion(src.alphabet, mask)


def region_partition(src: MixtureSource, tie_tolerance: float = PARTITION_TIE_TOLERANCE) -> RegionPartition:
    """Split the alphabet by the sign of P1 p1(x) - P2 p2(x).

    Differences within ``tie_tolerance`` of zero land in the tie set; the
    plus and minus sets are strict.
    """
    diff = src.prior1 * src.class1.mass - src.prior2 * src.class2.mass
    plus = diff > tie_tolerance
    minus = diff < -tie_tolerance
    zero = ~(plus | minus)
    a = src.alphabet
    return RegionPartition(DecisionRegion(a, plus), DecisionRegion(a, minus), DecisionRegion(a, zero))


def bayes_error(src: MixtureSource) -> float:
    """Minimal error rate over all decision regions: sum_x min(P1 p1(x), P2 p2(x))."""
    return float(np.add.reduce(np.minimum(src.prior1 * src.class1.mass, src.prior2 * src.class2.mass)))


def bayes_error_tv_form(src: MixtureSource) -> float:
    """The Bayes error written as 1/2 - 1/2 * sum_x |P1 p1(x) - P2 p2(x)|.

    Algebraically identical to ``bayes_error``; kept as an independent code
    path so the identity can be checked numerically.
    """
    return float(0.5 - 0.5 * np.add.reduce(np.abs(src.prior1 * src.class1.mass - src.prior2 * src.class2.mass)))


def dpi_equality_holds(src: MixtureSource, ch: Channel) -> bool:
    """True iff pushing ``src`` through ``ch`` provably preserves the Bayes error.

    The test is structural: for every output symbol y, the inputs feeding y
    (nonzero channel entries, compared exactly) must avoid bridging the
    strict plus and minus sets of the source.  Tie symbols may feed anything.
    """
    if src.alphabet != ch.input:
        raise DimensionError(f"source alphabet {src.alphabet} != channel input {ch.input}")
    parts = region_partition(src)
    plus, minus = parts.plus.members, parts.minus.members
    if not plus.any() or not minus.any():
        return True
    # Exact zero test: channel entries are stored values, not computed sums.
    fed_by_plus = (ch.matrix[plus, :] > 0.0).any(axis=0)
    fed_by_minus = (ch.matrix[minus, :] > 0.0).any(axis=0)
    return not bool(np.any(fed_by_plus & fed_by_minus))
