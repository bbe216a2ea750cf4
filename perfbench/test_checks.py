"""The output checker must catch corrupted results, so its gate is never vacuous.

Run from the repository root: ``python3 -m pytest perfbench -q``.
"""

import dataclasses
import math
import pathlib
import sys
import types

HERE = pathlib.Path(__file__).resolve().parent
sys.path[:0] = [str(HERE.parent / "src"), str(HERE)]

import pytest  # noqa: E402

import checks  # noqa: E402
from cdptradeoff import (  # noqa: E402
    Channel,
    DecisionRegion,
    DistortionMatrix,
    DivergenceKind,
    MixtureSource,
    ProblemInstance,
    grid_search_cdp,
    solve_cdp,
    solve_scdp,
)
from workloads import Op  # noqa: E402

D, P = 0.15, 0.1


@pytest.fixture(scope="module")
def prob():
    src = MixtureSource.from_masses(0.5, 0.5, [0.8, 0.2], [0.2, 0.8])
    return ProblemInstance(
        source=src,
        degrade=Channel.bsc(0.1),
        restore_alphabet=src.alphabet,
        delta=DistortionMatrix.hamming(src.alphabet),
        divergence=DivergenceKind.total_variation(),
        classifier=DecisionRegion.from_indices(src.alphabet, [0]),
    )


@pytest.fixture(scope="module", params=["cdp", "scdp"])
def cell(request, prob):
    solve = solve_cdp if request.param == "cdp" else solve_scdp
    return Op(request.param, 0, prob, D, P), solve(prob, D, P)


def _with_kernel(res, matrix):
    return dataclasses.replace(res, kernel=types.SimpleNamespace(matrix=matrix))


def test_solved_cells_pass(cell):
    op, res = cell
    assert checks.check(op, res) == []


def test_value_off_by_1e6_fails(cell):
    op, res = cell
    assert checks.check(op, dataclasses.replace(res, value=res.value + 1e-6))


def test_kernel_row_summing_to_099_fails(cell):
    op, res = cell
    matrix = res.kernel.matrix.copy()
    matrix[0] *= 0.99
    assert checks.check(op, _with_kernel(res, matrix))


def test_achieved_distortion_over_budget_fails(cell):
    op, res = cell
    assert checks.check(op, dataclasses.replace(res, achieved_distortion=D + 1e-6))


def test_infeasibility_must_match_min_distortion(prob):
    op = Op("cdp", 0, prob, 0.01, P)  # below the 0.1 minimum distortion
    res = solve_cdp(prob, 0.01, P)
    assert checks.check(op, res) == []
    assert checks.check(Op("cdp", 0, prob, D, P), res)


def test_oracle_relaxed_value_above_value_fails(prob):
    op = Op("oracle_cdp", -1, prob, D, P, 0.05)
    res = grid_search_cdp(prob, D, P, 0.05)
    assert checks.check(op, res) == []
    assert checks.check(op, dataclasses.replace(res, relaxed_value=res.value + 1e-6))


def test_surface_rising_with_budget_fails(prob):
    small, large = Op("cdp", 0, prob, D, P), Op("cdp", 0, prob, D + 0.1, P)
    res_small, res_large = solve_cdp(prob, D, P), solve_cdp(prob, D + 0.1, P)
    records = [(0, small, res_small, 0), (1, large, res_large, 0)]
    assert checks.check_surfaces(records) == {}
    risen = dataclasses.replace(res_large, value=res_small.value + 1e-6)
    assert 1 in checks.check_surfaces([(0, small, res_small, 0), (1, large, risen, 0)])


def test_digest_tracks_full_precision(prob):
    op = Op("cdp", 0, prob, D, P)
    res = solve_cdp(prob, D, P)
    nudged = dataclasses.replace(res, value=math.nextafter(res.value, 1.0))
    assert checks.digest([(op, res)]) == checks.digest([(op, solve_cdp(prob, D, P))])
    assert checks.digest([(op, res)]) != checks.digest([(op, nudged)])


def test_audit_verdict_must_match_its_numbers():
    from cdptradeoff import audit

    op = Op("audit", suite=audit.check_closed_forms, suite_seed=(1, 0, 2))
    res = op.call()
    assert checks.check(op, res) == []
    failing = dataclasses.replace(res, worst=1.0, passed=False)
    assert checks.check(op, failing) == []  # a failing verdict is a finding, not a broken output
    assert checks.check(op, dataclasses.replace(failing, passed=True))
    assert checks.check(op, dataclasses.replace(res, trials=op.trials - 1))
