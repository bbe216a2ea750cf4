"""Randomized property suites certifying the library's structural claims.

Each suite hammers one mathematical property with seeded random instances.
It is written as a generator of per-trial violations, and ``_suite`` turns
it into a ``(rng, trials) -> PropertyResult`` function with the one verdict
rule they all share: the worst violation, from 0, against the suite's
tolerance; a NaN violation is the worst and fails the suite.  The suites
check that:

- the fixed-classifier error rate is linear in the pair of class
  conditionals, and the expected distortion is linear in the restoration
  kernel;
- the Bayes error is concave in the class conditionals, and its two closed
  forms (min-sum and the total-variation form) agree;
- degrading the observation can only raise the Bayes error, with exact
  equality precisely when no output symbol is fed by both strictly
  class-1 and strictly class-2 inputs, and a strictly positive gap for
  channels built to bridge the two strict regions;
- divergences are convex in their second argument;
- solved tradeoff surfaces are non-increasing in both budgets, and the
  fixed-classifier surface is midpoint-convex along the distortion axis.

``run_audit`` gives the six scalar suites its ``trials`` each; the two
surface suites solve whole budget grids and always run ``SURFACE_TRIALS``,
and the data-processing suite adds ``STRUCTURED_TRIALS`` equality and as
many bridging constructions to its random trials.

The six scalar suites draw first and evaluate afterwards, ``CHUNK_TRIALS``
trials at a time, so memory stays flat in ``trials``:

1. Each trial's inputs are drawn with the same generator calls, in the same
   order, as one trial at a time would make them, so the random stream and
   every instance are unchanged.
2. The trials of one shape (alphabet sizes, and the divergence kind) are
   stacked and evaluated at once: masses, channel rows and blends are
   cleaned by ``prob_core._clean_mass`` on the stack, and the priors and
   closed forms are computed along the last axis with the same arithmetic
   as the library's one-row functions, so every violation is the same
   bytes.  Matrix-vector products and three-operand ``einsum`` calls stay
   one trial at a time, because their stacked forms round differently.
3. The first trial of each shape in each chunk is replayed through the
   library's public objects and functions.  A replay that differs from the
   stacked value in any bit makes that trial's violation at least 1, so the
   suites keep checking the library and not only a copy of its formulas.

The structured data-processing constructions and the surface suites run one
trial at a time.

The instance generators are deliberately boring: uniform priors, and masses
and channel rows drawn uniformly from the simplex by ``random_mass`` as
normalized standard exponentials (Devroye, *Non-Uniform Random Variate
Generation*, 1986, section XI.4).  That is how ``Generator.dirichlet`` draws
an all-ones Dirichlet vector, and ``random_mass`` repeats its arithmetic, so
the draws and the generator's state afterwards are the same bytes at a
fraction of the cost.  The two structured families for the equality and
bridging checks are documented where they are built.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass
from typing import Optional

import numpy as np

from .classify import (
    DecisionRegion,
    bayes_error,
    bayes_error_tv_form,
    dpi_equality_holds,
    error_rate,
    region_partition,
)
from .metrics import (
    HELLINGER,
    KULLBACK_LEIBLER,
    TOTAL_VARIATION,
    DistortionMatrix,
    DivergenceKind,
    divergence,
    expected_distortion,
)
from .prob_core import (
    Alphabet,
    Channel,
    MixtureSource,
    ProbVector,
    _clean_mass,
    mix_mixtures,
    push_forward,
)
from .solver import ProblemInstance, min_distortion, sweep_surface

DEFAULT_TRIALS = 1000
DEFAULT_SEED = 42
# Trials of each surface suite: every trial solves a 3 x 3 budget grid.
SURFACE_TRIALS = 4
# Equality and bridging constructions, each, after the data-processing suite's random trials.
STRUCTURED_TRIALS = 50
# Trials a scalar suite evaluates in one stack, at most, so that its memory
# does not grow with ``trials``.
CHUNK_TRIALS = 1000


@dataclass(frozen=True)
class PropertyResult:
    """One suite's verdict: worst observed violation against its tolerance."""

    name: str
    passed: bool
    trials: int
    worst: float
    tolerance: float
    detail: str

    def to_dict(self) -> dict:
        return {
            "name": self.name,
            "passed": bool(self.passed),
            "trials": int(self.trials),
            "worst": float(self.worst),
            "tolerance": float(self.tolerance),
            "detail": self.detail,
        }


@dataclass(frozen=True)
class AuditReport:
    seed: int
    results: tuple

    @property
    def passed(self) -> bool:
        return all(r.passed for r in self.results)

    def to_dict(self) -> dict:
        return {
            "seed": int(self.seed),
            "passed": bool(self.passed),
            "results": [r.to_dict() for r in self.results],
        }


# ---------------------------------------------------------------------------
# Random instance generators
# ---------------------------------------------------------------------------


def random_mass(rng: np.random.Generator, n: int, rows: Optional[int] = None) -> np.ndarray:
    """A uniform draw from the simplex on ``n`` symbols, or ``rows`` of them stacked.

    Bit for bit ``rng.dirichlet(np.ones(n), size=rows)``, which draws each
    entry as a standard exponential (a unit-shape gamma), adds a row from
    left to right starting at 0.0, and multiplies the row by the reciprocal
    of its total.  The row total here is the last entry of the running sum
    (``np.add.accumulate``, which is ``cumsum``) because that adds in the
    same order; ``np.sum`` adds pairwise from 8 entries on, and dividing
    instead of multiplying rounds differently.
    """
    return _simplex(rng.standard_exponential(n if rows is None else (rows, n)))


def _simplex(exponentials: np.ndarray) -> np.ndarray:
    """Standard exponentials scaled row by row (last axis) onto the simplex, as ``random_mass`` scales them."""
    return exponentials * (1.0 / np.add.accumulate(exponentials, axis=-1)[..., -1:])


def _draw_mixture(rng: np.random.Generator, n: Optional[int] = None, sources: int = 1):
    """The draws of ``sources`` mixtures on one alphabet and one prior: ``(n, prior1, exponentials)``.

    ``_simplex(exponentials)`` are the class masses: row ``2 s`` is source
    ``s``'s class-1 mass and row ``2 s + 1`` its class-2 mass.
    """
    if n is None:
        n = int(rng.integers(2, 7))
    return n, float(rng.uniform(0.05, 0.95)), rng.standard_exponential((2 * sources, n))


def _mixture(prior1: float, class1, class2) -> MixtureSource:
    return MixtureSource.from_masses(prior1, 1.0 - prior1, class1, class2)


def random_mixture(rng: np.random.Generator, n: Optional[int] = None) -> MixtureSource:
    _, prior1, exponentials = _draw_mixture(rng, n)
    return _mixture(prior1, *_simplex(exponentials))


def random_mixture_pair(rng: np.random.Generator):
    """Two mixtures sharing alphabet and priors, as mixture blending requires."""
    _, prior1, exponentials = _draw_mixture(rng, sources=2)
    masses = _simplex(exponentials)
    return _mixture(prior1, *masses[:2]), _mixture(prior1, *masses[2:])


def _channel_rows(rng: np.random.Generator, n_in: int, n_out: Optional[int] = None):
    """The draws of a random channel: ``(n_out, exponentials)``, its rows ``_simplex(exponentials)``."""
    if n_out is None:
        n_out = int(rng.integers(2, 7))
    return n_out, rng.standard_exponential((n_in, n_out))


def random_channel(rng: np.random.Generator, n_in: int, n_out: Optional[int] = None) -> Channel:
    n_out, exponentials = _channel_rows(rng, n_in, n_out)
    return Channel(Alphabet(n_in), Alphabet(n_out), _simplex(exponentials))


def _region_members(rng: np.random.Generator, n: int) -> np.ndarray:
    return rng.integers(0, 2, size=n).astype(bool)


def random_region(rng: np.random.Generator, alphabet: Alphabet) -> DecisionRegion:
    return DecisionRegion(alphabet, _region_members(rng, alphabet.size))


def equality_channel(rng: np.random.Generator, src: MixtureSource) -> Channel:
    """A channel satisfying the exact equality condition for the given source.

    Alternates two families: a pure relabeling (permutation channel), and a
    support split that sends strictly class-1 inputs into one half of the
    output alphabet, strictly class-2 inputs into the other half, and
    tied inputs anywhere.  Either way no output symbol mixes the two strict
    regions, which is exactly the equality condition.
    """
    n = src.alphabet.size
    if rng.integers(0, 2) == 0:
        return Channel.permutation(src.alphabet, rng.permutation(n))
    part = region_partition(src)
    n_out = 2 * n
    half = n
    rows = np.zeros((n, n_out))
    for x in range(n):
        if part.plus.members[x]:
            block = slice(0, half)
        elif part.minus.members[x]:
            block = slice(half, n_out)
        else:
            block = slice(0, n_out)
        width = block.stop - block.start
        rows[x, block] = random_mass(rng, width)
    return Channel(src.alphabet, Alphabet(n_out), rows)


def bridging_pair(rng: np.random.Generator):
    """A source and channel with a guaranteed Bayes-error gap.

    The source has equal priors with class 1 concentrated on symbol 0 (mass
    at least 0.6) and class 2 concentrated on symbol 1, so the pointwise
    margins at symbols 0 and 1 are at least 0.1 in opposite directions.  The
    channel merges those two symbols into one output, which forces a Bayes
    penalty of at least the smaller margin.
    """
    n = int(rng.integers(2, 7))
    p1 = np.zeros(n)
    p2 = np.zeros(n)
    h1 = rng.uniform(0.6, 0.75)
    h2 = rng.uniform(0.6, 0.75)
    p1[0] = h1
    p2[1] = h2
    if n == 2:
        p1[1] = 1.0 - h1
        p2[0] = 1.0 - h2
    else:
        p1[1:] = (1.0 - h1) * random_mass(rng, n - 1)
        rest = np.concatenate(([0], np.arange(2, n)))
        p2[rest] = (1.0 - h2) * random_mass(rng, n - 1)
    src = MixtureSource.from_masses(0.5, 0.5, p1, p2)
    # Merge symbols 0 and 1 into output 0; shift the others down.
    n_out = max(n - 1, 1)
    rows = np.zeros((n, n_out))
    rows[0, 0] = 1.0
    rows[1, 0] = 1.0
    for x in range(2, n):
        rows[x, x - 1] = 1.0
    return src, Channel(src.alphabet, Alphabet(n_out), rows)


def random_instance(rng: np.random.Generator, kind: Optional[DivergenceKind] = None) -> ProblemInstance:
    """A small random tradeoff instance with Hamming distortion."""
    n = int(rng.integers(2, 4))
    src = random_mixture(rng, n)
    degrade = random_channel(rng, n, n)
    kind = kind if kind is not None else DivergenceKind.total_variation()
    return ProblemInstance(
        source=src,
        degrade=degrade,
        restore_alphabet=src.alphabet,
        delta=DistortionMatrix.hamming(src.alphabet, src.alphabet),
        divergence=kind,
        classifier=random_region(rng, src.alphabet),
    )


# ---------------------------------------------------------------------------
# Stacked evaluation
# ---------------------------------------------------------------------------


def _stacked_trials(rng: np.random.Generator, trials: int, draw, evaluate, replay):
    """Yield the violations of ``trials`` trials, drawn one at a time and evaluated stacked.

    ``draw(rng, t)`` makes trial ``t``'s draws, ``(key, *fields)``, with the
    generator calls the suite has always made, in the same order.  Per chunk
    of ``CHUNK_TRIALS`` trials, the trials of one key (one shape) are stacked
    field by field and ``evaluate(key, *stacked)`` gives all their violations.
    The first trial of each key in each chunk is also replayed:
    ``replay(key, *fields)`` gives its violation through the library's public
    objects and functions, and a replay that differs from the stacked value
    in any bit makes that trial's violation at least 1.  Masses and channel
    rows are drawn and stacked as the standard exponentials ``random_mass``
    scales; ``evaluate`` and ``replay`` scale them with ``_simplex``.
    """
    for start in range(0, trials, CHUNK_TRIALS):
        drawn = [draw(rng, t) for t in range(start, min(start + CHUNK_TRIALS, trials))]
        groups = {}
        for i, (key, *_) in enumerate(drawn):
            groups.setdefault(key, []).append(i)
        out = np.empty(len(drawn))
        for key, rows in groups.items():
            fields = (np.array(field) for field in zip(*(drawn[i][1:] for i in rows)))
            # The stacked arithmetic stands for Python float arithmetic, which
            # gives inf and NaN without a warning.
            with np.errstate(all="ignore"):
                out[rows] = evaluate(key, *fields)
            first = rows[0]
            if np.float64(replay(*drawn[first])).tobytes() != out[first].tobytes():
                out[first] = max(1.0, out[first])
        yield from out.tolist()


def _clean(masses: np.ndarray) -> np.ndarray:
    """Each row along the last axis, as ``ProbVector`` or ``Channel`` would clean it alone."""
    return _clean_mass(masses, masses.shape, "mass")


def _renormalized(p1: np.ndarray, p2: np.ndarray):
    """Priors as ``MixtureSource`` stores them, from ``(p1, p2)`` per trial."""
    total = p1 + p2
    return p1 / total, p2 / total


def _priors(prior1: np.ndarray):
    """Priors as ``_mixture(prior1, ...)`` stores them."""
    return _renormalized(prior1, 1.0 - prior1)


def _blend(lam: np.ndarray, a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """``lam * a + (1 - lam) * b`` with one ``lam`` per trial (the leading axis)."""
    lam = lam.reshape(lam.shape + (1,) * (a.ndim - 1))
    return lam * a + (1.0 - lam) * b


def _masked_sum(values: np.ndarray, mask: np.ndarray) -> np.ndarray:
    """``np.add.reduce(row[row_mask])`` for each row of ``values`` (B, n), to the byte.

    Rows are gathered by how many entries they select, so each sum adds the
    same entries in the same order as the one-row call, pairwise from 8
    entries on; a row that selects nothing sums to 0.0.
    """
    counts = np.count_nonzero(mask, axis=-1)
    out = np.zeros(len(values))
    # The counts present, from a bincount: ``np.unique`` would import numpy.ma
    # and its megabyte of memory.
    for k in np.flatnonzero(np.bincount(counts)).tolist():
        if k:
            rows = counts == k
            out[rows] = np.add.reduce(values[rows][mask[rows]].reshape(-1, k), axis=-1)
    return out


def _stacked_bayes_error(p1: np.ndarray, p2: np.ndarray, classes: np.ndarray) -> np.ndarray:
    """``bayes_error`` per trial, from priors (B,) and class masses (B, 2, n)."""
    return np.add.reduce(np.minimum(p1[:, None] * classes[:, 0], p2[:, None] * classes[:, 1]), axis=-1)


def _stacked_bayes_error_tv_form(p1: np.ndarray, p2: np.ndarray, classes: np.ndarray) -> np.ndarray:
    """``bayes_error_tv_form`` per trial, from priors (B,) and class masses (B, 2, n)."""
    return 0.5 - 0.5 * np.add.reduce(np.abs(p1[:, None] * classes[:, 0] - p2[:, None] * classes[:, 1]), axis=-1)


def _stacked_error_rate(p1: np.ndarray, p2: np.ndarray, classes: np.ndarray, inside: np.ndarray) -> np.ndarray:
    """``error_rate`` per trial, from priors (B,), class masses (B, 2, n) and regions (B, n)."""
    return p2 * _masked_sum(classes[:, 1], inside) + p1 * _masked_sum(classes[:, 0], ~inside)


def _stacked_divergence(kind: DivergenceKind, p: np.ndarray, q: np.ndarray) -> np.ndarray:
    """``divergence(kind, p_row, q_row)`` for each pair of rows of ``p`` and ``q`` (B, n), to the byte.

    KL and Renyi add only the entries ``_divergence_arrays`` keeps, and the
    log of the Renyi sum is ``math.log`` per row, as there: ``np.log`` can
    round it differently.
    """
    if kind.name == TOTAL_VARIATION:
        return 0.5 * np.add.reduce(np.abs(p - q), axis=-1)
    if kind.name == HELLINGER:
        return 0.5 * np.add.reduce((np.sqrt(p) - np.sqrt(q)) ** 2, axis=-1)
    support = p > 0.0
    unmatched = np.any(support & (q == 0.0), axis=-1)
    # Entries outside the kept ones may divide by zero or take the log of 0;
    # they are computed and then left out of every sum and maximum.
    with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
        if kind.name == KULLBACK_LEIBLER:
            return np.where(unmatched, math.inf, _masked_sum(p * np.log(p / q), support))
        alpha = kind.alpha
        keep = support & (q > 0.0)
        infinite = ~np.any(keep, axis=-1)
        if alpha > 1.0:
            infinite |= unmatched
        logs = alpha * np.log(p) + (1.0 - alpha) * np.log(q)
        top = np.max(logs, axis=-1, where=keep, initial=-math.inf)
        total = _masked_sum(np.exp(logs - top[:, None]), keep)
    value = np.full(len(p), math.inf)
    finite = ~infinite
    logged = np.array([math.log(t) for t in total[finite].tolist()])
    value[finite] = (top[finite] + logged) / (alpha - 1.0)
    # ``max(value, 0.0)``, which keeps ``value`` unless 0.0 is larger.
    return np.where(0.0 > value, 0.0, value)


# ---------------------------------------------------------------------------
# Property suites
# ---------------------------------------------------------------------------


def _suite(name: str, tolerance: float, detail: str, trials: int = DEFAULT_TRIALS):
    """Turn a generator of per-trial violations into a suite ``(rng, trials) -> PropertyResult``.

    The verdict is the same for every suite: the worst violation, running up
    from 0.0, against ``tolerance``.  A NaN violation is the worst from then
    on, so it fails the suite and is reported as ``worst``.  The reported
    ``trials`` counts the violations yielded; ``trials`` here is the suite's
    default count.
    """

    def wrap(violations):
        @functools.wraps(violations)
        def suite(rng: np.random.Generator, trials: int = trials) -> PropertyResult:
            worst, count = 0.0, 0
            for v in violations(rng, trials):
                # ``max`` keeps a NaN once it holds one, but never takes one in.
                worst = v if math.isnan(v) else max(worst, v)
                count += 1
            return PropertyResult(name, worst <= tolerance, count, worst, tolerance, detail)

        return suite

    return wrap


def _blended_pair(prior1, masses, lam):
    """``(p1, p2, classes)`` of each trial's two sources, then of ``mix_mixtures(u, v, lam)``.

    ``classes`` is (B, 4, n) for the sources, ``u``'s two class masses then
    ``v``'s, and (B, 2, n) for the blend.
    """
    p1, p2 = _priors(prior1)
    c = _clean(_simplex(masses))
    return p1, p2, c, *_renormalized(p1, p2), _clean(_blend(lam, c[:, :2], c[:, 2:]))


@_suite(
    "fixed_classifier_error_linearity",
    1e-12,
    "|error(blend) - blend(errors)| over random mixture pairs, regions, weights",
)
def check_error_linearity(rng, trials):
    """Error rate of a fixed region is linear under blending of class conditionals."""

    def draw(rng, t):
        n, prior1, masses = _draw_mixture(rng, sources=2)
        return n, prior1, masses, float(rng.uniform()), _region_members(rng, n)

    def evaluate(n, prior1, masses, lam, inside):
        p1, p2, c, q1, q2, b = _blended_pair(prior1, masses, lam)
        direct = _stacked_error_rate(q1, q2, b, inside)
        split = lam * _stacked_error_rate(p1, p2, c[:, :2], inside) + (1.0 - lam) * _stacked_error_rate(
            p1, p2, c[:, 2:], inside
        )
        return np.abs(direct - split)

    def replay(n, prior1, masses, lam, inside):
        masses = _simplex(masses)
        u, v = _mixture(prior1, *masses[:2]), _mixture(prior1, *masses[2:])
        region = DecisionRegion(u.alphabet, inside)
        direct = error_rate(mix_mixtures(u, v, lam), region)
        split = lam * error_rate(u, region) + (1.0 - lam) * error_rate(v, region)
        return abs(direct - split)

    return _stacked_trials(rng, trials, draw, evaluate, replay)


@_suite("bayes_error_concavity", 1e-12, "max(0, blend(bayes) - bayes(blend)) over random mixture pairs")
def check_bayes_concavity(rng, trials):
    """Bayes error of a blend is at least the blend of Bayes errors; a negative margin is the violation."""

    def draw(rng, t):
        return (*_draw_mixture(rng, sources=2), float(rng.uniform()))

    def evaluate(n, prior1, masses, lam):
        p1, p2, c, q1, q2, b = _blended_pair(prior1, masses, lam)
        split = lam * _stacked_bayes_error(p1, p2, c[:, :2]) + (1.0 - lam) * _stacked_bayes_error(p1, p2, c[:, 2:])
        return split - _stacked_bayes_error(q1, q2, b)

    def replay(n, prior1, masses, lam):
        masses = _simplex(masses)
        u, v = _mixture(prior1, *masses[:2]), _mixture(prior1, *masses[2:])
        return (lam * bayes_error(u) + (1.0 - lam) * bayes_error(v)) - bayes_error(mix_mixtures(u, v, lam))

    return _stacked_trials(rng, trials, draw, evaluate, replay)


@_suite("bayes_error_closed_forms_agree", 1e-12, "|min-sum form - total-variation form| over random sources")
def check_closed_forms(rng, trials):
    """The min-sum and total-variation closed forms of the Bayes error agree."""

    def evaluate(n, prior1, masses):
        p1, p2 = _priors(prior1)
        c = _clean(_simplex(masses))
        return np.abs(_stacked_bayes_error(p1, p2, c) - _stacked_bayes_error_tv_form(p1, p2, c))

    def replay(n, prior1, masses):
        src = _mixture(prior1, *_simplex(masses))
        return abs(bayes_error(src) - bayes_error_tv_form(src))

    return _stacked_trials(rng, trials, lambda rng, t: _draw_mixture(rng), evaluate, replay)


@_suite(
    "bayes_error_data_processing",
    1e-12,
    "random channels never lower the Bayes error; structural-equality "
    "channels preserve it exactly; region-bridging channels open a gap",
)
def check_data_processing(rng, trials):
    """Degradation never lowers the Bayes error; equality and gap families behave.

    After ``trials`` random channels come ``STRUCTURED_TRIALS`` equality and
    ``STRUCTURED_TRIALS`` bridging constructions; a construction whose
    equality test comes out wrong, or whose bridge opens no gap, counts as a
    violation of at least 1.
    """

    def draw(rng, t):
        n, prior1, masses = _draw_mixture(rng)
        n_out, rows = _channel_rows(rng, n)
        return (n, n_out), prior1, masses, rows

    def evaluate(shape, prior1, masses, rows):
        p1, p2 = _priors(prior1)
        c = _clean(_simplex(masses))
        # push_forward's matrix-vector products, one trial at a time: a
        # stacked matmul rounds differently.
        pushed = np.array([(m.T @ c1, m.T @ c2) for m, (c1, c2) in zip(_clean(_simplex(rows)), c)])
        return _stacked_bayes_error(p1, p2, c) - _stacked_bayes_error(*_renormalized(p1, p2), _clean(pushed))

    def replay(shape, prior1, masses, rows):
        src = _mixture(prior1, *_simplex(masses))
        ch = Channel(src.alphabet, Alphabet(shape[1]), _simplex(rows))
        return bayes_error(src) - bayes_error(push_forward(src, ch))

    yield from _stacked_trials(rng, trials, draw, evaluate, replay)
    gap_floor = 1e-9
    for _ in range(STRUCTURED_TRIALS):
        src = random_mixture(rng)
        ch = equality_channel(rng, src)
        gap = abs(bayes_error(push_forward(src, ch)) - bayes_error(src))
        # 1.0 goes first so that a NaN gap still counts as a violation of 1.
        yield gap if dpi_equality_holds(src, ch) else max(1.0, gap)
    for _ in range(STRUCTURED_TRIALS):
        src, ch = bridging_pair(rng)
        gap = bayes_error(push_forward(src, ch)) - bayes_error(src)
        shortfall = gap_floor - gap + 1.0 if gap <= gap_floor else 0.0
        yield max(1.0, shortfall) if dpi_equality_holds(src, ch) else shortfall


_CONVEX_KINDS = (
    DivergenceKind.total_variation(),
    DivergenceKind.kullback_leibler(),
    DivergenceKind.hellinger(),
    DivergenceKind.renyi(0.5),
    DivergenceKind.renyi(2.0),
)


@_suite("divergence_convexity", 1e-10, "max(0, d(p, blend) - blend of d(p, .)) across all divergence kinds")
def check_divergence_convexity(rng, trials):
    """Each divergence is convex in its second argument; an infinite chord bounds nothing."""

    def draw(rng, t):
        n = int(rng.integers(2, 7))
        return (_CONVEX_KINDS[t % len(_CONVEX_KINDS)], n), rng.standard_exponential((3, n)), float(rng.uniform())

    def evaluate(key, masses, lam):
        kind = key[0]
        m = _clean(_simplex(masses))
        p = m[:, 0]
        lhs = _stacked_divergence(kind, p, _clean(_blend(lam, m[:, 1], m[:, 2])))
        rhs = lam * _stacked_divergence(kind, p, m[:, 1]) + (1.0 - lam) * _stacked_divergence(kind, p, m[:, 2])
        return np.where(np.isinf(rhs), 0.0, lhs - rhs)

    def replay(key, masses, lam):
        kind, n = key
        p, q1, q2 = (ProbVector(Alphabet(n), mass) for mass in _simplex(masses))
        mixed = ProbVector(p.alphabet, lam * q1.mass + (1.0 - lam) * q2.mass)
        lhs = divergence(kind, p, mixed)
        rhs = lam * divergence(kind, p, q1) + (1.0 - lam) * divergence(kind, p, q2)
        return 0.0 if math.isinf(rhs) else lhs - rhs

    return _stacked_trials(rng, trials, draw, evaluate, replay)


@_suite(
    "expected_distortion_linearity",
    1e-12,
    "|distortion(blend of kernels) - blend of distortions| on random instances",
)
def check_distortion_linearity(rng, trials):
    """Expected distortion is linear in the restoration kernel."""

    def draw(rng, t):
        n = int(rng.integers(2, 5))
        m = int(rng.integers(2, 5))
        _, prior1, masses = _draw_mixture(rng, n)
        _, degrade = _channel_rows(rng, n, m)
        # The two kernels of random_channel(rng, m, n), m rows each.
        kernels = rng.standard_exponential((2 * m, n))
        return (n, m), prior1, masses, degrade, kernels, float(rng.uniform()), rng.uniform(0.0, 2.0, size=(n, n))

    def evaluate(shape, prior1, masses, degrade, kernels, lam, cost):
        p1, p2 = _priors(prior1)
        c = _clean(_simplex(masses))
        joint = _clean(p1[:, None] * c[:, 0] + p2[:, None] * c[:, 1])[:, :, None] * _clean(_simplex(degrade))
        k = _clean(_simplex(kernels))
        k1, k2 = k[:, : shape[1]], k[:, shape[1] :]

        def distortion(restore):
            # expected_distortion's three-operand einsum, one trial at a time:
            # a stacked one rounds differently.
            return np.array([np.einsum("xy,yz,xz->", *arrays) for arrays in zip(joint, restore, cost)])

        lhs = distortion(_clean(_blend(lam, k1, k2)))
        return np.abs(lhs - (lam * distortion(k1) + (1.0 - lam) * distortion(k2)))

    def replay(shape, prior1, masses, degrade, kernels, lam, cost):
        src = _mixture(prior1, *_simplex(masses))
        ch = Channel(src.alphabet, Alphabet(shape[1]), _simplex(degrade))
        kernels = _simplex(kernels)
        k1, k2 = (Channel(ch.output, src.alphabet, rows) for rows in (kernels[: shape[1]], kernels[shape[1] :]))
        blended = Channel(k1.input, k1.output, lam * k1.matrix + (1.0 - lam) * k2.matrix)
        delta = DistortionMatrix(src.alphabet, src.alphabet, cost)
        lhs = expected_distortion(src, ch, blended, delta)
        rhs = lam * expected_distortion(src, ch, k1, delta) + (1.0 - lam) * expected_distortion(src, ch, k2, delta)
        return abs(lhs - rhs)

    return _stacked_trials(rng, trials, draw, evaluate, replay)


def midpoint_excess(d_grid, values: np.ndarray) -> np.ndarray:
    """Midpoint-convexity excess along the distortion axis.

    Entry ``[i, j]`` is ``values[i + 1, j] - (values[i, j] + values[i + 2, j]) / 2``
    for the D triple ``d_grid[i : i + 3]`` and P column ``j``: positive when
    the midpoint sits above the chord.  It is NaN where the triple is not
    evenly spaced or any of its three values is NaN.
    """
    d = np.asarray(d_grid, dtype=float)
    excess = values[1:-1] - 0.5 * (values[:-2] + values[2:])
    even = np.abs((d[:-2] + d[2:]) / 2.0 - d[1:-1]) <= 1e-12
    excess[~even] = np.nan
    return excess


def _surface_violations(rng, trials: int, which: str):
    """Sweep random instances on a fixed budget grid and yield each table's worst rise.

    A rise is a step up along either budget axis; only the fixed-classifier
    surface is also held to midpoint convexity in D.  NaN cells are skipped.
    """
    for _ in range(trials):
        prob = random_instance(rng)
        dmin = min_distortion(prob)
        table = sweep_surface(prob, (dmin, dmin + 0.15, dmin + 0.3), (0.02, 0.1, 0.4), which=which)
        vals = table.value_matrix()
        terms = [np.diff(vals, axis=0), np.diff(vals, axis=1)]
        if which == "cdp":
            terms.append(midpoint_excess(table.d_grid, vals))
        rises = np.concatenate([term.ravel() for term in terms])
        yield float(np.max(rises, initial=0.0, where=~np.isnan(rises)))


@_suite(
    "cdp_surface_monotone_convex",
    1e-9,
    "surface rises along a budget axis or breaks midpoint convexity in D",
    SURFACE_TRIALS,
)
def check_cdp_surface(rng, trials):
    """Fixed-classifier surfaces are monotone in both budgets and midpoint-convex in D."""
    return _surface_violations(rng, trials, "cdp")


@_suite("scdp_surface_monotone", 1e-9, "strong surface rises along a budget axis", SURFACE_TRIALS)
def check_scdp_surface(rng, trials):
    """Strong surfaces are monotone in both budgets."""
    return _surface_violations(rng, trials, "scdp")


ALL_SUITES: tuple = (
    check_error_linearity,
    check_bayes_concavity,
    check_closed_forms,
    check_data_processing,
    check_divergence_convexity,
    check_distortion_linearity,
    check_cdp_surface,
    check_scdp_surface,
)


def run_audit(seed: int = DEFAULT_SEED, trials: int = DEFAULT_TRIALS) -> AuditReport:
    """Run every property suite with a fresh seeded generator per suite.

    ``trials`` sets the scalar suites; the two surface suites, which solve
    whole grids, always run ``SURFACE_TRIALS``.  Per-suite generators keep
    one suite's draw count from shifting another suite's instances, so
    reports are stable under suite reordering.  A suite of no trials would
    pass vacuously, so ``trials`` must be at least 1.
    """
    if trials < 1:
        raise ValueError(f"trials must be at least 1, got {trials}")
    surfaces = (check_cdp_surface, check_scdp_surface)
    return AuditReport(
        seed=seed,
        results=tuple(
            suite(np.random.default_rng([seed, index]), SURFACE_TRIALS if suite in surfaces else trials)
            for index, suite in enumerate(ALL_SUITES)
        ),
    )
