"""Randomized property suites certifying the library's structural claims.

Each suite hammers one mathematical property with seeded random instances.
It is written as a generator of per-trial violations, and ``_suite`` turns
it into a ``(rng, trials) -> PropertyResult`` function with the one verdict
rule they all share: the worst violation, from 0, against the suite's
tolerance.  The suites check that:

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

The instance generators are deliberately boring: dirichlet masses, uniform
priors, dirichlet channel rows.  The two structured families for the
equality and bridging checks are documented where they are built.
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
from .metrics import DistortionMatrix, DivergenceKind, divergence, expected_distortion
from .prob_core import (
    Alphabet,
    Channel,
    MixtureSource,
    ProbVector,
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


def random_mass(rng: np.random.Generator, n: int) -> np.ndarray:
    return rng.dirichlet(np.ones(n))


def random_mixture(rng: np.random.Generator, n: Optional[int] = None) -> MixtureSource:
    if n is None:
        n = int(rng.integers(2, 7))
    prior1 = float(rng.uniform(0.05, 0.95))
    return MixtureSource.from_masses(prior1, 1.0 - prior1, random_mass(rng, n), random_mass(rng, n))


def random_mixture_pair(rng: np.random.Generator):
    """Two mixtures sharing alphabet and priors, as mixture blending requires."""
    n = int(rng.integers(2, 7))
    prior1 = float(rng.uniform(0.05, 0.95))
    u = MixtureSource.from_masses(prior1, 1.0 - prior1, random_mass(rng, n), random_mass(rng, n))
    v = MixtureSource.from_masses(prior1, 1.0 - prior1, random_mass(rng, n), random_mass(rng, n))
    return u, v


def random_channel(rng: np.random.Generator, n_in: int, n_out: Optional[int] = None) -> Channel:
    if n_out is None:
        n_out = int(rng.integers(2, 7))
    rows = rng.dirichlet(np.ones(n_out), size=n_in)
    return Channel(Alphabet(n_in), Alphabet(n_out), rows)


def random_region(rng: np.random.Generator, alphabet: Alphabet) -> DecisionRegion:
    return DecisionRegion(alphabet, rng.integers(0, 2, size=alphabet.size).astype(bool))


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
        rows[x, block] = rng.dirichlet(np.ones(width))
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
        p1[1:] = (1.0 - h1) * rng.dirichlet(np.ones(n - 1))
        rest = np.concatenate(([0], np.arange(2, n)))
        p2[rest] = (1.0 - h2) * rng.dirichlet(np.ones(n - 1))
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
# Property suites
# ---------------------------------------------------------------------------


def _suite(name: str, tolerance: float, detail: str, trials: int = DEFAULT_TRIALS):
    """Turn a generator of per-trial violations into a suite ``(rng, trials) -> PropertyResult``.

    The verdict is the same for every suite: the worst violation, running up
    from 0.0 as ``max(worst, v)`` so that a NaN never becomes the worst,
    against ``tolerance``.  The reported ``trials`` counts the violations
    yielded; ``trials`` here is the suite's default count.
    """

    def wrap(violations):
        @functools.wraps(violations)
        def suite(rng: np.random.Generator, trials: int = trials) -> PropertyResult:
            worst, count = 0.0, 0
            for v in violations(rng, trials):
                worst = max(worst, v)
                count += 1
            return PropertyResult(name, worst <= tolerance, count, worst, tolerance, detail)

        return suite

    return wrap


@_suite(
    "fixed_classifier_error_linearity",
    1e-12,
    "|error(blend) - blend(errors)| over random mixture pairs, regions, weights",
)
def check_error_linearity(rng, trials):
    """Error rate of a fixed region is linear under blending of class conditionals."""
    for _ in range(trials):
        u, v = random_mixture_pair(rng)
        lam = float(rng.uniform())
        region = random_region(rng, u.alphabet)
        blended = mix_mixtures(u, v, lam)
        direct = error_rate(blended, region)
        split = lam * error_rate(u, region) + (1.0 - lam) * error_rate(v, region)
        yield abs(direct - split)


@_suite("bayes_error_concavity", 1e-12, "max(0, blend(bayes) - bayes(blend)) over random mixture pairs")
def check_bayes_concavity(rng, trials):
    """Bayes error of a blend is at least the blend of Bayes errors."""
    for _ in range(trials):
        u, v = random_mixture_pair(rng)
        lam = float(rng.uniform())
        blended = mix_mixtures(u, v, lam)
        # A negative concavity margin is the violation.
        yield (lam * bayes_error(u) + (1.0 - lam) * bayes_error(v)) - bayes_error(blended)


@_suite("bayes_error_closed_forms_agree", 1e-12, "|min-sum form - total-variation form| over random sources")
def check_closed_forms(rng, trials):
    """The min-sum and total-variation closed forms of the Bayes error agree."""
    for _ in range(trials):
        src = random_mixture(rng)
        yield abs(bayes_error(src) - bayes_error_tv_form(src))


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
    gap_floor = 1e-9
    for _ in range(trials):
        src = random_mixture(rng)
        ch = random_channel(rng, src.alphabet.size)
        yield bayes_error(src) - bayes_error(push_forward(src, ch))
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
    for t in range(trials):
        kind = _CONVEX_KINDS[t % len(_CONVEX_KINDS)]
        n = int(rng.integers(2, 7))
        alphabet = Alphabet(n)
        p = ProbVector(alphabet, random_mass(rng, n))
        q1 = ProbVector(alphabet, random_mass(rng, n))
        q2 = ProbVector(alphabet, random_mass(rng, n))
        lam = float(rng.uniform())
        mixed = ProbVector(alphabet, lam * q1.mass + (1.0 - lam) * q2.mass)
        lhs = divergence(kind, p, mixed)
        rhs = lam * divergence(kind, p, q1) + (1.0 - lam) * divergence(kind, p, q2)
        yield 0.0 if math.isinf(rhs) else lhs - rhs


@_suite(
    "expected_distortion_linearity",
    1e-12,
    "|distortion(blend of kernels) - blend of distortions| on random instances",
)
def check_distortion_linearity(rng, trials):
    """Expected distortion is linear in the restoration kernel."""
    for _ in range(trials):
        n = int(rng.integers(2, 5))
        m = int(rng.integers(2, 5))
        src = random_mixture(rng, n)
        degrade = random_channel(rng, n, m)
        k1 = random_channel(rng, m, n)
        k2 = random_channel(rng, m, n)
        lam = float(rng.uniform())
        blended = Channel(k1.input, k1.output, lam * k1.matrix + (1.0 - lam) * k2.matrix)
        delta = DistortionMatrix(src.alphabet, src.alphabet, rng.uniform(0.0, 2.0, size=(n, n)))
        lhs = expected_distortion(src, degrade, blended, delta)
        rhs = lam * expected_distortion(src, degrade, k1, delta) + (1.0 - lam) * expected_distortion(
            src, degrade, k2, delta
        )
        yield abs(lhs - rhs)


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
