"""Finite-alphabet probability primitives and the degrade/restore pipeline algebra.

Everything downstream works with three kinds of objects:

- ``ProbVector``: a probability mass function over a finite alphabet,
- ``Channel``: a row-stochastic conditional mass function p(out|in),
- ``MixtureSource``: a two-class source, i.e. priors (P1, P2) plus one
  class-conditional mass function per class.

Symbols are dense indices ``0..size-1``; no symbolic labels exist at this
level.  All objects are immutable after construction and therefore safe to
share across threads.

Normalization policy (applied uniformly at construction): a mass vector whose
entries sum to 1 within ``DRIFT_TOLERANCE`` is silently renormalized; larger
deviations are rejected as malformed input rather than drift.  Entries may
undershoot zero by at most ``NEGATIVE_TOLERANCE`` (and are clipped); anything
more negative is rejected.  Valid input, the common case, is accepted by one
array-wide test of the smallest entry and one pass over the row totals; only
input that fails either is diagnosed row by row, to name the first bad row
and its defect.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cached_property
from typing import Iterable, Sequence

import numpy as np

from .errors import DimensionError, InvalidDistributionError, InvalidMixtureError

# Post-construction invariant: masses sum to 1 within this.
SUM_TOLERANCE = 1e-12
# Constructors renormalize drift up to this and reject anything beyond.
DRIFT_TOLERANCE = 1e-9
# Entries in [-NEGATIVE_TOLERANCE, 0) are clipped to 0; smaller ones rejected.
NEGATIVE_TOLERANCE = 1e-12


def _clean_mass(values, shape: tuple, what: str) -> np.ndarray:
    """Validate and renormalize nonnegative masses meant to sum to one along the last axis.

    Valid input passes two tests: an array-wide one, that the smallest entry
    is at least ``-NEGATIVE_TOLERANCE``, and a Python loop over the row
    totals, that each is within ``DRIFT_TOLERANCE`` of 1.  For the one to
    eight rows of a vector or channel the loop costs less than an array-wide
    test of the totals.  NaN fails both tests, +inf the totals' and -inf the
    floor's.  Only input that fails is checked row by row, and the error names
    its first bad row, ``{what} row {i}``.  Rows are made C-contiguous, so
    each row's sum is the same pairwise sum a lone vector of that row gets.

    The clip to zero is skipped only when the smallest entry is strictly
    positive: ``np.maximum`` turns ``-0.0`` into ``+0.0``, so input holding a
    zero of either sign is clipped as before.  The result is always a fresh
    read-only array, ``clipped / totals``, sharing no memory with the input.
    """
    arr = np.asarray(values, dtype=np.float64)
    if arr.shape != shape:
        whole = what if len(shape) == 1 else f"{what} matrix"
        raise DimensionError(f"{whole}: expected shape {shape}, got {arr.shape}")
    if not arr.flags.c_contiguous:
        arr = np.ascontiguousarray(arr)
    low = float(np.minimum.reduce(arr, axis=None))
    clipped = arr if low > 0.0 else np.maximum(arr, 0.0)
    totals = np.add.reduce(clipped, axis=-1, keepdims=True)
    if not (
        low >= -NEGATIVE_TOLERANCE
        and all(abs(t - 1.0) <= DRIFT_TOLERANCE for t in totals.ravel().tolist())
    ):
        ok = (arr.min(axis=-1) >= -NEGATIVE_TOLERANCE) & (np.abs(totals[..., 0] - 1.0) <= DRIFT_TOLERANCE)
        i = int(ok.argmin())
        row = arr.reshape(-1, shape[-1])[i]
        name = what if len(shape) == 1 else f"{what} row {i}"
        if not np.all(np.isfinite(row)):
            raise InvalidDistributionError(f"{name}: non-finite entries")
        if np.any(row < -NEGATIVE_TOLERANCE):
            raise InvalidDistributionError(f"{name}: negative entries {row.min():.3e}")
        total = float(totals.reshape(-1)[i])
        raise InvalidDistributionError(
            f"{name}: entries sum to {total!r}, beyond drift tolerance {DRIFT_TOLERANCE}"
        )
    arr = clipped / totals
    arr.setflags(write=False)
    return arr


@dataclass(frozen=True)
class Alphabet:
    """A finite symbol set; symbols are the indices ``0..size-1``."""

    size: int

    def __post_init__(self):
        if not isinstance(self.size, (int, np.integer)) or isinstance(self.size, bool):
            raise InvalidDistributionError(f"alphabet size must be an integer, got {self.size!r}")
        if self.size < 1:
            raise InvalidDistributionError(f"alphabet size must be >= 1, got {self.size}")
        object.__setattr__(self, "size", int(self.size))

    @property
    def symbols(self) -> range:
        return range(self.size)

    def check_symbol(self, symbol, what: str = "symbol", where: str = " outside alphabet") -> int:
        """``symbol`` as an ``int``: an integer (a bool is not one) in ``0..size-1``.

        The error reads ``{what} {symbol}{where} of size {size}``.
        """
        if not isinstance(symbol, (int, np.integer)) or isinstance(symbol, bool):
            raise DimensionError(f"{what} {symbol!r} is not an integer")
        if not 0 <= symbol < self.size:
            raise DimensionError(f"{what} {symbol}{where} of size {self.size}")
        return int(symbol)


@dataclass(frozen=True, eq=False)
class ProbVector:
    """A probability mass function over ``alphabet``.

    Entries are nonnegative and sum to 1 within ``SUM_TOLERANCE``.
    """

    alphabet: Alphabet
    mass: np.ndarray

    def __post_init__(self):
        object.__setattr__(self, "mass", _clean_mass(self.mass, (self.alphabet.size,), "mass"))

    @classmethod
    def uniform(cls, alphabet: Alphabet) -> "ProbVector":
        return cls(alphabet, np.full(alphabet.size, 1.0 / alphabet.size))

    @classmethod
    def point_mass(cls, alphabet: Alphabet, symbol: int) -> "ProbVector":
        mass = np.zeros(alphabet.size)
        mass[alphabet.check_symbol(symbol)] = 1.0
        return cls(alphabet, mass)

    def __repr__(self):
        return f"ProbVector(size={self.alphabet.size}, mass={np.array2string(self.mass, precision=6)})"


@dataclass(frozen=True, eq=False, slots=True)
class Channel:
    """A row-stochastic conditional mass function p(out|in).

    ``matrix[i, j]`` is the probability of emitting output symbol ``j`` given
    input symbol ``i``; every row is a valid probability mass function.
    """

    input: Alphabet
    output: Alphabet
    matrix: np.ndarray

    def __post_init__(self):
        shape = (self.input.size, self.output.size)
        object.__setattr__(self, "matrix", _clean_mass(self.matrix, shape, "channel"))

    @classmethod
    def from_rows(cls, rows: Sequence[Sequence[float]]) -> "Channel":
        mat = np.asarray(rows, dtype=np.float64)
        if mat.ndim != 2:
            raise DimensionError(f"channel rows must form a matrix, got ndim={mat.ndim}")
        return cls(Alphabet(mat.shape[0]), Alphabet(mat.shape[1]), mat)

    @classmethod
    def identity(cls, alphabet: Alphabet) -> "Channel":
        return cls(alphabet, alphabet, np.eye(alphabet.size))

    @classmethod
    def bsc(cls, flip: float) -> "Channel":
        """Binary symmetric channel with crossover probability ``flip``."""
        if not 0.0 <= flip <= 1.0:
            raise InvalidDistributionError(f"flip probability must lie in [0,1], got {flip}")
        return cls.from_rows([[1.0 - flip, flip], [flip, 1.0 - flip]])

    @classmethod
    def constant(cls, input_alphabet: Alphabet, row: ProbVector) -> "Channel":
        """Channel whose every row equals ``row`` (erases input information)."""
        return cls(input_alphabet, row.alphabet, np.tile(row.mass, (input_alphabet.size, 1)))

    @classmethod
    def permutation(cls, alphabet: Alphabet, mapping: Iterable[int]) -> "Channel":
        """Deterministic bijection ``i -> mapping[i]`` on one alphabet."""
        perm = list(mapping)
        if sorted(perm) != list(alphabet.symbols):
            raise InvalidDistributionError(f"not a permutation of 0..{alphabet.size - 1}: {perm}")
        return cls.deterministic(alphabet, alphabet, perm)

    @classmethod
    def deterministic(cls, input_alphabet: Alphabet, output_alphabet: Alphabet, assignment: Iterable[int]) -> "Channel":
        """Channel mapping each input symbol to a single output symbol."""
        targets = list(assignment)
        if len(targets) != input_alphabet.size:
            raise DimensionError(
                f"assignment: expected {input_alphabet.size} output symbols, got {len(targets)}"
            )
        mat = np.zeros((input_alphabet.size, output_alphabet.size))
        for i, j in enumerate(targets):
            what = f"assignment: input {i} maps to symbol"
            mat[i, output_alphabet.check_symbol(j, what, ", outside output alphabet")] = 1.0
        return cls(input_alphabet, output_alphabet, mat)

    def row(self, symbol: int) -> ProbVector:
        return ProbVector(self.output, self.matrix[self.input.check_symbol(symbol)])

    def is_deterministic(self) -> bool:
        return bool(np.all(np.max(self.matrix, axis=1) == 1.0))

    def __repr__(self):
        return f"Channel({self.input.size}->{self.output.size})"


@dataclass(frozen=True, eq=False)
class MixtureSource:
    """A two-class source: priors (P1, P2) plus per-class mass functions.

    The total marginal is ``prior1 * class1 + prior2 * class2``.
    """

    alphabet: Alphabet
    prior1: float
    prior2: float
    class1: ProbVector
    class2: ProbVector

    def __post_init__(self):
        p1, p2 = float(self.prior1), float(self.prior2)
        if not (math.isfinite(p1) and math.isfinite(p2)):
            raise InvalidDistributionError("priors must be finite")
        if p1 < -NEGATIVE_TOLERANCE or p2 < -NEGATIVE_TOLERANCE:
            raise InvalidDistributionError(f"priors must be nonnegative, got ({p1}, {p2})")
        p1, p2 = max(p1, 0.0), max(p2, 0.0)
        total = p1 + p2
        if abs(total - 1.0) > DRIFT_TOLERANCE:
            raise InvalidDistributionError(f"priors sum to {total!r}, beyond drift tolerance")
        object.__setattr__(self, "prior1", p1 / total)
        object.__setattr__(self, "prior2", p2 / total)
        for name in ("class1", "class2"):
            pv = getattr(self, name)
            if not isinstance(pv, ProbVector):
                raise InvalidDistributionError(f"{name} must be a ProbVector")
            if pv.alphabet != self.alphabet:
                raise DimensionError(f"{name} alphabet {pv.alphabet} != source alphabet {self.alphabet}")

    @classmethod
    def from_masses(cls, prior1: float, prior2: float, class1, class2) -> "MixtureSource":
        c1 = np.asarray(class1, dtype=np.float64)
        if c1.ndim != 1:
            raise DimensionError(f"class1 must be a vector of masses, got ndim={c1.ndim}")
        alphabet = Alphabet(c1.shape[0])
        return cls(alphabet, prior1, prior2, ProbVector(alphabet, c1), ProbVector(alphabet, class2))

    @cached_property
    def marginal(self) -> ProbVector:
        """Total mass function ``prior1 * class1 + prior2 * class2``."""
        return ProbVector(self.alphabet, self.prior1 * self.class1.mass + self.prior2 * self.class2.mass)

    def __repr__(self):
        return f"MixtureSource(size={self.alphabet.size}, priors=({self.prior1:.6g}, {self.prior2:.6g}))"


def push_forward(src: MixtureSource, ch: Channel) -> MixtureSource:
    """Send a two-class source through a channel, class by class.

    Each class-conditional maps to ``p_i'(y) = sum_x p(y|x) p_i(x)``; the
    priors are untouched, so the output marginal is the channel acting on the
    input marginal.
    """
    if src.alphabet != ch.input:
        raise DimensionError(f"source alphabet {src.alphabet} != channel input {ch.input}")
    out1 = ch.matrix.T @ src.class1.mass
    out2 = ch.matrix.T @ src.class2.mass
    return MixtureSource(
        ch.output,
        src.prior1,
        src.prior2,
        ProbVector(ch.output, out1),
        ProbVector(ch.output, out2),
    )


def compose(ch1: Channel, ch2: Channel) -> Channel:
    """Chain two channels: ``p(z|x) = sum_y p2(z|y) p1(y|x)``."""
    if ch1.output != ch2.input:
        raise DimensionError(f"first channel output {ch1.output} != second channel input {ch2.input}")
    return Channel(ch1.input, ch2.output, ch1.matrix @ ch2.matrix)


def mix_mixtures(u: MixtureSource, v: MixtureSource, lam: float) -> MixtureSource:
    """Blend two sources with shared priors: class-conditionals mix with weight ``lam``.

    The blend is taken per class, which makes the total marginal the same
    lam-blend of the two marginals.  Requires ``u`` and ``v`` to share both
    the alphabet and the priors; blending mixtures with different priors is
    not a two-class source in the same family and is rejected.
    """
    if not 0.0 <= lam <= 1.0:
        raise ValueError(f"lambda must lie in [0,1], got {lam}")
    if u.alphabet != v.alphabet:
        raise InvalidMixtureError(f"alphabets differ: {u.alphabet} vs {v.alphabet}")
    if abs(u.prior1 - v.prior1) > SUM_TOLERANCE or abs(u.prior2 - v.prior2) > SUM_TOLERANCE:
        raise InvalidMixtureError(
            f"priors differ: ({u.prior1}, {u.prior2}) vs ({v.prior1}, {v.prior2})"
        )
    c1 = lam * u.class1.mass + (1.0 - lam) * v.class1.mass
    c2 = lam * u.class2.mass + (1.0 - lam) * v.class2.mass
    return MixtureSource(u.alphabet, u.prior1, u.prior2, ProbVector(u.alphabet, c1), ProbVector(u.alphabet, c2))
