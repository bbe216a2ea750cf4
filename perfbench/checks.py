"""Output checks built from the library's stated contracts, plus run digests.

Every op's output is checked after the timed loop, never inside it.  A check
returns a list of violations; an empty list means the output honours every
contract the library states for it:

- solver cells (``TradeoffResult``): a valid status; ``Infeasible`` with
  ``violated == "distortion"`` exactly when D < min_distortion - 1e-12; a
  row-stochastic kernel; achieved budgets within ``BUDGET_SLACK``; the value
  replayed from the kernel through ``push_forward`` and ``error_rate`` or
  ``bayes_error`` within 1e-12; a certified gap within ``GENERAL_GAP_TOL`` on
  ``Optimal`` conditional-gradient cells; strong values between the Bayes
  error of the degraded source and min(prior1, prior2);
- oracle searches (``OracleSearchResult``): ``relaxed_value <= value`` and a
  feasible lattice kernel;
- audit suites (``PropertyResult``): a verdict consistent with the worst
  violation and tolerance, over at least the requested trials.  Whether the
  suite passed is the audit's finding about the solver, not a property of
  the audit's output; the runner reports failing verdicts separately;
- surfaces: every group of cells is non-increasing in D and in P, and stays
  feasible as a budget grows, within the cells' certified gaps.
"""

from __future__ import annotations

import hashlib
import math
from collections import defaultdict

import numpy as np

from cdptradeoff.audit import PropertyResult
from cdptradeoff.classify import bayes_error, error_rate
from cdptradeoff.metrics import divergence, expected_distortion
from cdptradeoff.oracle import OracleSearchResult
from cdptradeoff.prob_core import SUM_TOLERANCE, Channel, push_forward
from cdptradeoff.solver import (
    BUDGET_SLACK,
    GENERAL_GAP_TOL,
    SolveStatus,
    TradeoffResult,
    min_distortion,
)

# Replayed values must match the reported value this closely.
REPLAY_TOL = 1e-12
# The tolerance audit.check_cdp_surface allows a fixed-classifier surface to
# rise along a budget axis, on top of the two cells' certified gaps.
CDP_MONOTONE_TOL = 1e-9
# The tolerance audit.check_scdp_surface allows the strong surface, whose
# cells carry no certified gap.
SCDP_MONOTONE_TOL = 1e-6


def check(op, result) -> list:
    """Contract violations of one op's output (empty when it is correct)."""
    if op.kind in ("cdp", "scdp"):
        if not isinstance(result, TradeoffResult):
            return [f"expected a TradeoffResult, got {type(result).__name__}"]
        return _check_cell(op, result)
    if op.kind in ("oracle_cdp", "oracle_scdp"):
        if not isinstance(result, OracleSearchResult):
            return [f"expected an OracleSearchResult, got {type(result).__name__}"]
        return _check_oracle(op, result)
    if not isinstance(result, PropertyResult):
        return [f"expected a PropertyResult, got {type(result).__name__}"]
    if result.passed != (result.worst <= result.tolerance) or result.trials < op.trials:
        return [f"audit suite {result.name} returned an inconsistent verdict"]
    return []


def _row_stochastic(matrix, shape) -> bool:
    K = np.asarray(matrix, dtype=float)
    return (
        K.shape == shape
        and bool(np.all(np.isfinite(K)))
        and bool(np.all(K >= 0.0))
        and float(np.max(np.abs(K.sum(axis=1) - 1.0))) <= SUM_TOLERANCE
    )


def _check_cell(op, res: TradeoffResult) -> list:
    prob, D, P = op.prob, op.D, op.P
    strong = op.kind == "scdp"
    errors = []
    if not isinstance(res.status, SolveStatus):
        return [f"invalid status {res.status!r}"]
    below = D < min_distortion(prob) - 1e-12
    flagged = res.status is SolveStatus.INFEASIBLE and res.certificate.get("violated") == "distortion"
    if below != flagged:
        errors.append(f"distortion infeasibility flagged={flagged} but D below minimum={below}")
    if res.status is SolveStatus.INFEASIBLE:
        if res.kernel is not None:
            errors.append("infeasible cell returned a kernel")
        return errors
    if res.kernel is None or not _row_stochastic(res.kernel.matrix, prob.kernel_shape):
        return errors + ["kernel is not row-stochastic"]
    if math.isfinite(D) and not res.achieved_distortion <= D + BUDGET_SLACK:
        errors.append(f"achieved_D {res.achieved_distortion!r} over budget {D!r}")
    if math.isfinite(P) and not res.achieved_perception <= P + BUDGET_SLACK:
        errors.append(f"achieved_P {res.achieved_perception!r} over budget {P!r}")
    degraded = push_forward(prob.source, prob.degrade)
    restored = push_forward(degraded, Channel(prob.degrade.output, prob.restore_alphabet, res.kernel.matrix))
    replay = bayes_error(restored) if strong else error_rate(restored, prob.classifier)
    if not abs(replay - res.value) <= REPLAY_TOL:
        errors.append(f"value {res.value!r} does not replay from its kernel ({replay!r})")
    if res.status is SolveStatus.OPTIMAL and res.certificate.get("method") == "dual_fw":
        gap = res.certificate.get("duality_gap")
        if gap is None or not gap <= GENERAL_GAP_TOL:
            errors.append(f"Optimal dual_fw cell with gap {gap!r}")
    if strong:
        lo = bayes_error(degraded)
        hi = min(prob.source.prior1, prob.source.prior2)
        if not lo - REPLAY_TOL <= res.value <= hi + REPLAY_TOL:
            errors.append(f"strong value {res.value!r} outside [{lo!r}, {hi!r}]")
    return errors


def _check_oracle(op, res: OracleSearchResult) -> list:
    prob, D, P = op.prob, op.D, op.P
    if res.status is SolveStatus.INFEASIBLE:
        return [] if res.kernel is None else ["infeasible search returned a kernel"]
    if res.status is not SolveStatus.OPTIMAL:
        return [f"invalid oracle status {res.status!r}"]
    errors = []
    if not res.relaxed_value <= res.value + REPLAY_TOL:
        errors.append(f"relaxed_value {res.relaxed_value!r} above value {res.value!r}")
    if res.kernel is None or not _row_stochastic(res.kernel.matrix, prob.kernel_shape):
        return errors + ["oracle kernel is not row-stochastic"]
    if not expected_distortion(prob.source, prob.degrade, res.kernel, prob.delta) <= D + BUDGET_SLACK:
        errors.append("oracle kernel misses the distortion budget")
    if math.isfinite(P):
        restored = push_forward(push_forward(prob.source, prob.degrade), res.kernel)
        if not divergence(prob.divergence, prob.source.marginal, restored.marginal) <= P + BUDGET_SLACK:
            errors.append("oracle kernel misses the perception budget")
    return errors


def check_surfaces(records) -> dict:
    """Monotonicity violations per record index, over each group of solved cells.

    ``records`` holds (index, op, result, pass number) tuples; a violation is
    charged to the cell with the larger budget.
    """
    surfaces = defaultdict(dict)
    for index, op, res, run_pass in records:
        if op.group >= 0 and isinstance(res, TradeoffResult):
            surfaces[(run_pass, op.group)][(op.D, op.P)] = (index, op, res)
    errors = defaultdict(list)
    for cells in surfaces.values():
        for (d, p), (index, op, res) in cells.items():
            for smaller in _smaller_neighbours(cells, d, p):
                message = _monotone_violation(smaller[2], res, op.kind == "scdp")
                if message:
                    errors[index].append(message)
    return errors


def _smaller_neighbours(cells, d, p) -> list:
    ds = sorted({key[0] for key in cells if key[0] < d and key[1] == p})
    ps = sorted({key[1] for key in cells if key[1] < p and key[0] == d})
    out = []
    if ds:
        out.append(cells[(ds[-1], p)])
    if ps:
        out.append(cells[(d, ps[-1])])
    return out


def _monotone_violation(small: TradeoffResult, large: TradeoffResult, strong: bool):
    if small.status is SolveStatus.INFEASIBLE:
        return None
    if large.status is SolveStatus.INFEASIBLE:
        return "cell infeasible although a smaller budget is feasible"
    if strong:
        tol = SCDP_MONOTONE_TOL
    else:
        tol = _gap(small) + _gap(large) + CDP_MONOTONE_TOL
    if large.value > small.value + tol:
        return f"surface rises with the budget: {large.value!r} > {small.value!r} + {tol!r}"
    return None


def _gap(res: TradeoffResult) -> float:
    gap = res.certificate.get("duality_gap")
    return 0.0 if gap is None else float(gap)


# ---------------------------------------------------------------------------
# Digests and exact counters
# ---------------------------------------------------------------------------


def _g(x) -> str:
    return format(float(x), ".17g")


def digest_line(op, result) -> str:
    """One op's outputs at full precision: values, statuses and certificate counts."""
    if isinstance(result, TradeoffResult):
        cert = result.certificate
        return "|".join(
            [
                op.kind,
                _g(op.D),
                _g(op.P),
                result.status.value,
                _g(result.value),
                _g(result.achieved_distortion),
                _g(result.achieved_perception),
                str(cert.get("method")),
                str(cert.get("iterations")),
                str(cert.get("enumerated", "")),
                str(cert.get("branch", "")),
            ]
        )
    if isinstance(result, OracleSearchResult):
        return "|".join(
            [
                op.kind,
                _g(op.D),
                _g(op.P),
                _g(op.step),
                result.status.value,
                _g(result.value),
                _g(result.relaxed_value),
                _g(result.lipschitz_slack),
                str(result.feasible_count),
                str(result.evaluated_count),
            ]
        )
    if isinstance(result, PropertyResult):
        return "|".join([op.kind, result.name, str(result.passed), str(result.trials), _g(result.worst)])
    return f"{op.kind}|raised|{type(result).__name__}"


def digest(ops_and_results) -> str:
    h = hashlib.sha256()
    for op, result in ops_and_results:
        h.update(digest_line(op, result).encode())
        h.update(b"\n")
    return h.hexdigest()


def exact_counters(ops_and_results) -> dict:
    """Counts the program reports, which repeat exactly for one seed and code."""
    c = {
        "fw_iterations": 0,
        "iteration_limit_cells": 0,
        "scdp_enumerated": 0,
        "scdp_subproblem_iterations": 0,
        "oracle_evaluated": 0,
        "oracle_feasible": 0,
    }
    for op, res in ops_and_results:
        if isinstance(res, TradeoffResult):
            cert = res.certificate
            if cert.get("method") == "dual_fw":
                c["fw_iterations"] += int(cert["iterations"])
            if res.status is SolveStatus.ITERATION_LIMIT:
                c["iteration_limit_cells"] += 1
            if op.kind == "scdp" and res.status is not SolveStatus.INFEASIBLE:
                c["scdp_enumerated"] += int(cert["enumerated"])
                c["scdp_subproblem_iterations"] += int(cert["iterations"])
        elif isinstance(res, OracleSearchResult):
            c["oracle_evaluated"] += res.evaluated_count
            c["oracle_feasible"] += res.feasible_count
    return c
