"""The acceptance gate: every shipped guarantee, one criterion per test.

Each test prints one pass/fail line into the terminal summary (see
conftest) and fails loudly if its bound or runtime budget is missed.
"""

import json
import math
import time

import numpy as np
import pytest

from cdptradeoff import (
    Channel,
    DivergenceKind,
    bayes_error,
    solve_cdp,
    solve_scdp,
    sweep_surface,
)
from cdptradeoff.audit import (
    check_bayes_concavity,
    check_closed_forms,
    check_data_processing,
    check_error_linearity,
)
from cdptradeoff.cli import build_instance, main
from cdptradeoff.oracle import grid_search_cdp, grid_search_scdp
from cdptradeoff.solver import SolveStatus

from conftest import FIXTURE_DIR

D_GRID = (0.1, 0.15, 0.2, 0.25, 0.3, 0.35)
P_GRID = (0.0, 0.1, 0.2, 0.3, 0.4, 0.5)

FIXTURE_NAMES = (
    "instance_tv_symmetric.json",
    "instance_tv_asymmetric.json",
    "instance_kl_skewed.json",
)


@pytest.fixture(scope="module")
def canonical_sweep(canonical_problem_module):
    """The 6x6 canonical surfaces, computed once and shared by criteria 5/6/9."""
    prob = canonical_problem_module
    start = time.perf_counter()
    cdp = sweep_surface(prob, D_GRID, P_GRID, "cdp")
    scdp = sweep_surface(prob, D_GRID, P_GRID, "scdp")
    elapsed = time.perf_counter() - start
    return cdp, scdp, elapsed


@pytest.fixture(scope="module")
def canonical_problem_module():
    from cdptradeoff import DecisionRegion, DistortionMatrix, MixtureSource, ProblemInstance

    src = MixtureSource.from_masses(0.5, 0.5, [0.8, 0.2], [0.2, 0.8])
    delta = DistortionMatrix.hamming(src.alphabet)
    cls = DecisionRegion.from_indices(src.alphabet, [0])
    return ProblemInstance(src, Channel.bsc(0.1), src.alphabet, delta, DivergenceKind.total_variation(), cls)


def test_criterion_01_error_rate_linearity(acceptance):
    start = time.perf_counter()
    res = check_error_linearity(np.random.default_rng([42, 101]), trials=1000)
    elapsed = time.perf_counter() - start
    acceptance(
        1,
        "error-rate linearity on 1000 random blends",
        res.passed and res.worst <= 1e-12 and elapsed < 1.0,
        f"worst violation {res.worst:.2e}, {elapsed:.2f}s",
    )


def test_criterion_02_bayes_error_concavity(acceptance):
    start = time.perf_counter()
    res = check_bayes_concavity(np.random.default_rng([42, 102]), trials=1000)
    elapsed = time.perf_counter() - start
    acceptance(
        2,
        "Bayes-error concavity on 1000 random blends",
        res.passed and res.worst <= 1e-12 and elapsed < 1.0,
        f"worst violation {res.worst:.2e}, {elapsed:.2f}s",
    )


def test_criterion_03_data_processing(acceptance):
    start = time.perf_counter()
    res = check_data_processing(np.random.default_rng([42, 103]), trials=1000, structured=50)
    elapsed = time.perf_counter() - start
    acceptance(
        3,
        "Bayes error non-decreasing; equality and bridging families",
        res.passed and elapsed < 2.0,
        f"1000 random + 50 equality + 50 bridging, worst {res.worst:.2e}, {elapsed:.2f}s",
    )


def test_criterion_04_closed_forms_agree(acceptance):
    res = check_closed_forms(np.random.default_rng([42, 104]), trials=1000)
    acceptance(
        4,
        "both Bayes-error closed forms agree on 1000 sources",
        res.passed and res.worst <= 1e-12,
        f"worst gap {res.worst:.2e}",
    )


def _monotone_violation(matrix):
    worst = 0.0
    for diffs in (np.diff(matrix, axis=0), np.diff(matrix, axis=1)):
        finite = diffs[~np.isnan(diffs)]
        if finite.size:
            worst = max(worst, float(finite.max()))
    return worst


def test_criterion_05_canonical_grid_monotone(acceptance, canonical_sweep):
    cdp, scdp, elapsed = canonical_sweep
    worst = max(_monotone_violation(cdp.value_matrix()), _monotone_violation(scdp.value_matrix()))
    statuses_ok = all(cell.ok for table in (cdp, scdp) for row in table.cells for cell in row)
    acceptance(
        5,
        "canonical 6x6 grid non-increasing in D and P, both surfaces",
        statuses_ok and worst <= 1e-9 and elapsed < 30.0,
        f"worst increase {worst:.2e}, sweep {elapsed:.1f}s",
    )


def test_criterion_06_cdp_midpoint_convexity(acceptance, canonical_sweep):
    cdp, _, _ = canonical_sweep
    values = cdp.value_matrix()
    gaps = np.zeros_like(values)
    for i, row in enumerate(cdp.cells):
        for j, cell in enumerate(row):
            g = cell.certificate.get("duality_gap")
            gaps[i, j] = g if g is not None and not math.isnan(g) else 0.0
    worst = -math.inf
    checked = 0
    nd, npp = values.shape
    for i1 in range(nd):
        for j1 in range(npp):
            for i2 in range(i1, nd):
                for j2 in range(npp):
                    if i2 == i1 and j2 < j1:
                        continue
                    if (i1 + i2) % 2 or (j1 + j2) % 2:
                        continue
                    im, jm = (i1 + i2) // 2, (j1 + j2) // 2
                    trio = (values[i1, j1], values[i2, j2], values[im, jm])
                    if any(math.isnan(v) for v in trio):
                        continue
                    allowance = 1e-9 + 0.5 * gaps[i1, j1] + 0.5 * gaps[i2, j2] + gaps[im, jm]
                    excess = trio[2] - 0.5 * (trio[0] + trio[1]) - allowance
                    worst = max(worst, excess)
                    checked += 1
    acceptance(
        6,
        "fixed-classifier surface midpoint-convex on all grid-aligned pairs",
        checked > 0 and worst <= 0.0,
        f"{checked} aligned pairs, worst excess beyond allowance {worst:.2e}",
    )


def test_criterion_07_oracle_equivalence_on_fixtures(acceptance):
    start = time.perf_counter()
    details = []
    ok = True
    for name in FIXTURE_NAMES:
        with open(FIXTURE_DIR / name, "r", encoding="utf-8") as fh:
            raw = json.load(fh)
        prob = build_instance(raw)
        D, P = float(raw["D"]), float(raw["P"])
        exact = solve_cdp(prob, D, P)
        grid = grid_search_cdp(prob, D, P, step=0.05)
        cdp_ok = (
            exact.ok
            and grid.status is SolveStatus.OPTIMAL
            and abs(exact.value - grid.value) <= grid.lipschitz_slack
        )
        upper = solve_scdp(prob, D, P)
        sgrid = grid_search_scdp(prob, D, P, step=0.05)
        scdp_ok = (
            upper.ok
            and sgrid.status is SolveStatus.OPTIMAL
            and upper.value <= sgrid.value + 1e-9
            and upper.value >= sgrid.value - sgrid.lipschitz_slack
        )
        ok = ok and cdp_ok and scdp_ok
        details.append(
            f"{name.split('.')[0]}: cdp diff {abs(exact.value - grid.value):.1e}"
            f" slack {grid.lipschitz_slack:.1e}"
        )
    elapsed = time.perf_counter() - start
    acceptance(
        7,
        "solver matches the step-0.05 lattice oracle on all three shipped instances",
        ok and elapsed < 60.0,
        "; ".join(details) + f"; {elapsed:.1f}s",
    )


def test_criterion_08_unconstrained_identities(acceptance, canonical_problem_module):
    prob = canonical_problem_module
    c = solve_cdp(prob, math.inf, math.inf).value
    cs = solve_scdp(prob, math.inf, math.inf).value
    from cdptradeoff import DecisionRegion, DistortionMatrix, ProblemInstance

    src = prob.source
    noiseless = ProblemInstance(
        src,
        Channel.identity(src.alphabet),
        src.alphabet,
        DistortionMatrix.hamming(src.alphabet),
        DivergenceKind.total_variation(),
        DecisionRegion.from_indices(src.alphabet, [0]),
    )
    c0 = solve_cdp(noiseless, math.inf, math.inf).value
    cs0 = solve_scdp(noiseless, math.inf, math.inf).value
    ok = (
        abs(c - 0.26) <= 1e-9
        and abs(cs - 0.26) <= 1e-9
        and abs(c - bayes_error(prob.degraded)) <= 1e-9
        and abs(c0 - 0.2) <= 1e-9
        and abs(cs0 - 0.2) <= 1e-9
    )
    acceptance(
        8,
        "unconstrained surfaces hit the degraded and noiseless Bayes errors",
        ok,
        f"C={c:.10f}, C_S={cs:.10f}, noiseless {c0:.10f}/{cs0:.10f}",
    )


def test_criterion_09_strong_never_above_fixed(acceptance, canonical_sweep):
    cdp, scdp, _ = canonical_sweep
    worst = -math.inf
    cells = 0
    for i in range(len(D_GRID)):
        for j in range(len(P_GRID)):
            a, b = cdp.cells[i][j], scdp.cells[i][j]
            if a.ok and b.ok:
                worst = max(worst, b.value - a.value)
                cells += 1
    acceptance(
        9,
        "strong surface below fixed-classifier surface at every solved cell",
        cells > 0 and worst <= 1e-8,
        f"{cells} cells, worst excess {worst:.2e}",
    )


def test_criterion_10_cli_determinism(acceptance, tmp_path):
    config = str(FIXTURE_DIR / "canonical.json")
    outs = []
    for tag in ("a", "b"):
        sweep_out = tmp_path / f"sweep_{tag}.csv"
        audit_out = tmp_path / f"audit_{tag}.json"
        assert main(["sweep", "--config", config, "--out", str(sweep_out)]) == 0
        assert main(["audit", "--config", config, "--trials", "200", "--out", str(audit_out)]) == 0
        outs.append((sweep_out.read_bytes(), audit_out.read_bytes()))
    ok = outs[0][0] == outs[1][0] and outs[0][1] == outs[1][1]
    acceptance(
        10,
        "sweep and audit outputs byte-identical across two seeded runs",
        ok,
        f"sweep {len(outs[0][0])} bytes, audit {len(outs[0][1])} bytes",
    )
