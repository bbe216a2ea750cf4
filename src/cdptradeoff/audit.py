"""Randomized property suites certifying the library's structural claims.

Each suite hammers one mathematical property with seeded random instances
and reports the worst observed violation against an explicit tolerance:

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

The generators are deliberately boring: dirichlet masses, uniform priors,
dirichlet channel rows.  The two structured families for the equality and
bridging checks are documented inline where they are built.
"""

from __future__ import annotations

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


def check_error_linearity(rng: np.random.Generator, trials: int = DEFAULT_TRIALS) -> PropertyResult:
    """Error rate of a fixed region is linear under blending of class conditionals."""
    tol = 1e-12
    worst = 0.0
    for _ in range(trials):
        u, v = random_mixture_pair(rng)
        lam = float(rng.uniform())
        region = random_region(rng, u.alphabet)
        blended = mix_mixtures(u, v, lam)
        direct = error_rate(blended, region)
        split = lam * error_rate(u, region) + (1.0 - lam) * error_rate(v, region)
        worst = max(worst, abs(direct - split))
    return PropertyResult(
        name="fixed_classifier_error_linearity",
        passed=worst <= tol,
        trials=trials,
        worst=worst,
        tolerance=tol,
        detail="|error(blend) - blend(errors)| over random mixture pairs, regions, weights",
    )


def check_bayes_concavity(rng: np.random.Generator, trials: int = DEFAULT_TRIALS) -> PropertyResult:
    """Bayes error of a blend is at least the blend of Bayes errors."""
    tol = 1e-12
    worst = 0.0  # most negative concavity margin, reported as a violation magnitude
    for _ in range(trials):
        u, v = random_mixture_pair(rng)
        lam = float(rng.uniform())
        blended = mix_mixtures(u, v, lam)
        margin = bayes_error(blended) - (lam * bayes_error(u) + (1.0 - lam) * bayes_error(v))
        worst = max(worst, -margin)
    return PropertyResult(
        name="bayes_error_concavity",
        passed=worst <= tol,
        trials=trials,
        worst=worst,
        tolerance=tol,
        detail="max(0, blend(bayes) - bayes(blend)) over random mixture pairs",
    )


def check_closed_forms(rng: np.random.Generator, trials: int = DEFAULT_TRIALS) -> PropertyResult:
    """The min-sum and total-variation closed forms of the Bayes error agree."""
    tol = 1e-12
    worst = 0.0
    for _ in range(trials):
        src = random_mixture(rng)
        worst = max(worst, abs(bayes_error(src) - bayes_error_tv_form(src)))
    return PropertyResult(
        name="bayes_error_closed_forms_agree",
        passed=worst <= tol,
        trials=trials,
        worst=worst,
        tolerance=tol,
        detail="|min-sum form - total-variation form| over random sources",
    )


def check_data_processing(
    rng: np.random.Generator,
    trials: int = DEFAULT_TRIALS,
    structured: int = 50,
) -> PropertyResult:
    """Degradation never lowers the Bayes error; equality and gap families behave."""
    tol = 1e-12
    gap_floor = 1e-9
    worst = 0.0
    for _ in range(trials):
        src = random_mixture(rng)
        ch = random_channel(rng, src.alphabet.size)
        drop = bayes_error(src) - bayes_error(push_forward(src, ch))
        worst = max(worst, drop)  # positive drop would violate the inequality
    for _ in range(structured):
        src = random_mixture(rng)
        ch = equality_channel(rng, src)
        gap = abs(bayes_error(push_forward(src, ch)) - bayes_error(src))
        worst = max(worst, gap)
        if not dpi_equality_holds(src, ch):
            worst = max(worst, 1.0)
    for _ in range(structured):
        src, ch = bridging_pair(rng)
        gap = bayes_error(push_forward(src, ch)) - bayes_error(src)
        if gap <= gap_floor:
            worst = max(worst, gap_floor - gap + 1.0)
        if dpi_equality_holds(src, ch):
            worst = max(worst, 1.0)
    return PropertyResult(
        name="bayes_error_data_processing",
        passed=worst <= tol,
        trials=trials + 2 * structured,
        worst=worst,
        tolerance=tol,
        detail=(
            "random channels never lower the Bayes error; structural-equality "
            "channels preserve it exactly; region-bridging channels open a gap"
        ),
    )


def check_divergence_convexity(rng: np.random.Generator, trials: int = DEFAULT_TRIALS) -> PropertyResult:
    """Each divergence is convex in its second argument."""
    tol = 1e-10
    kinds = (
        DivergenceKind.total_variation(),
        DivergenceKind.kullback_leibler(),
        DivergenceKind.hellinger(),
        DivergenceKind.renyi(0.5),
        DivergenceKind.renyi(2.0),
    )
    worst = 0.0
    for t in range(trials):
        kind = kinds[t % len(kinds)]
        n = int(rng.integers(2, 7))
        alphabet = Alphabet(n)
        p = ProbVector(alphabet, random_mass(rng, n))
        q1 = ProbVector(alphabet, random_mass(rng, n))
        q2 = ProbVector(alphabet, random_mass(rng, n))
        lam = float(rng.uniform())
        mixed = ProbVector(alphabet, lam * q1.mass + (1.0 - lam) * q2.mass)
        lhs = divergence(kind, p, mixed)
        rhs = lam * divergence(kind, p, q1) + (1.0 - lam) * divergence(kind, p, q2)
        if math.isinf(rhs):
            continue
        worst = max(worst, lhs - rhs)
    return PropertyResult(
        name="divergence_convexity",
        passed=worst <= tol,
        trials=trials,
        worst=worst,
        tolerance=tol,
        detail="max(0, d(p, blend) - blend of d(p, .)) across all divergence kinds",
    )


def check_distortion_linearity(rng: np.random.Generator, trials: int = DEFAULT_TRIALS) -> PropertyResult:
    """Expected distortion is linear in the restoration kernel."""
    tol = 1e-12
    worst = 0.0
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
        worst = max(worst, abs(lhs - rhs))
    return PropertyResult(
        name="expected_distortion_linearity",
        passed=worst <= tol,
        trials=trials,
        worst=worst,
        tolerance=tol,
        detail="|distortion(blend of kernels) - blend of distortions| on random instances",
    )


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


def _surface_violations(table, convexity: bool) -> float:
    """Worst monotonicity (and optional distortion-axis convexity) violation."""
    vals = table.value_matrix()
    terms = [np.diff(vals, axis=0), np.diff(vals, axis=1)]
    if convexity:
        terms.append(midpoint_excess(table.d_grid, vals))
    worst = 0.0
    for term in terms:
        finite = term[~np.isnan(term)]
        if finite.size:
            worst = max(worst, float(finite.max()))
    return worst


def _check_surface(rng: np.random.Generator, trials: int, which: str) -> PropertyResult:
    """Sweep random instances on a fixed budget grid; only the fixed-classifier
    surface is also held to midpoint convexity in D."""
    tol = 1e-9
    worst = 0.0
    for _ in range(trials):
        prob = random_instance(rng)
        dmin = min_distortion(prob)
        d_grid = (dmin, dmin + 0.15, dmin + 0.3)
        p_grid = (0.02, 0.1, 0.4)
        table = sweep_surface(prob, d_grid, p_grid, which=which)
        worst = max(worst, _surface_violations(table, convexity=which == "cdp"))
    if which == "cdp":
        name = "cdp_surface_monotone_convex"
        detail = "surface rises along a budget axis or breaks midpoint convexity in D"
    else:
        name, detail = "scdp_surface_monotone", "strong surface rises along a budget axis"
    return PropertyResult(
        name=name, passed=worst <= tol, trials=trials, worst=worst, tolerance=tol, detail=detail
    )


def check_cdp_surface(rng: np.random.Generator, trials: int = 4) -> PropertyResult:
    """Fixed-classifier surfaces are monotone in both budgets and midpoint-convex in D."""
    return _check_surface(rng, trials, "cdp")


def check_scdp_surface(rng: np.random.Generator, trials: int = 4) -> PropertyResult:
    """Strong surfaces are monotone in both budgets."""
    return _check_surface(rng, trials, "scdp")


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


def run_audit(
    seed: int = DEFAULT_SEED,
    trials: int = DEFAULT_TRIALS,
    surface_trials: int = 4,
) -> AuditReport:
    """Run every property suite with a fresh seeded generator per suite.

    Per-suite generators keep one suite's draw count from shifting another
    suite's instances, so reports are stable under suite reordering.  A
    suite of no trials would pass vacuously, so both counts must be at least 1.
    """
    for name, value in (("trials", trials), ("surface_trials", surface_trials)):
        if value < 1:
            raise ValueError(f"{name} must be at least 1, got {value}")
    results = []
    for index, suite in enumerate(ALL_SUITES):
        rng = np.random.default_rng([seed, index])
        if suite in (check_cdp_surface, check_scdp_surface):
            results.append(suite(rng, surface_trials))
        else:
            results.append(suite(rng, trials))
    return AuditReport(seed=seed, results=tuple(results))
