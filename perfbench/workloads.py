"""Seeded workload generators for the benchmark.

A workload turns a seed into JSON problem configs, in the schema the
``cdp-tradeoff`` command reads, and into a plan of ops.  The configs are
written to disk and read back through ``cli.load_config``, the way users hand
problems to the program.  An op is one public call: one (D, P) cell of
``solve_cdp`` or ``solve_scdp``, one ``grid_search_cdp``/``grid_search_scdp``
call, or one ``audit.check_*`` suite.

Ops of one config share a ``group``; the checker uses groups to test that
each solved surface is non-increasing in both budgets.  Why each workload
exists, and which layers it leaves idle, is in README.md beside this file.
"""

from __future__ import annotations

import json
import math
import pathlib
import time
from dataclasses import dataclass
from typing import Callable, Optional

import numpy as np

from cdptradeoff import audit, cli, oracle, solver

# A run executes whole rounds of ops, so that every run of a workload has the
# same mix: one config's grid, one pass over the strong alphabets 3..7, or
# one pass over the verify searches and audit suites.
ROUND = {"lp_grid": 36, "strong_grid": 20, "smooth_grid": 4, "verify": 16}
# Ops per workload whose outputs form the run digest and the exact counters,
# and which a traced run executes.  Every run completes at least this many.
PREFIX = {"lp_grid": 1080, "strong_grid": 20, "smooth_grid": 8, "verify": 16}
# Configs (verify: rounds) generated per run; a run that exhausts them starts
# over on the same instances.  Sized for more ops than a 52 s run completes.
POOL = {"lp_grid": 1000, "strong_grid": 60, "smooth_grid": 30, "verify": 16}

SURFACE_SUITES = (audit.check_cdp_surface, audit.check_scdp_surface)


@dataclass(frozen=True, eq=False)
class Op:
    """One public call into the program, with the inputs its checks need."""

    kind: str  # "cdp", "scdp", "oracle_cdp", "oracle_scdp" or "audit"
    group: int = -1  # ops of one surface share a group; -1 for none
    prob: Optional[solver.ProblemInstance] = None
    D: float = math.nan
    P: float = math.nan
    step: float = math.nan
    suite: Optional[Callable] = None
    suite_seed: tuple = ()

    @property
    def trials(self) -> int:
        """Trials of an audit op: those audit.run_audit gives the suite."""
        return 4 if self.suite in SURFACE_SUITES else audit.DEFAULT_TRIALS

    def call(self):
        if self.kind == "cdp":
            return solver.solve_cdp(self.prob, self.D, self.P)
        if self.kind == "scdp":
            return solver.solve_scdp(self.prob, self.D, self.P)
        if self.kind == "oracle_cdp":
            return oracle.grid_search_cdp(self.prob, self.D, self.P, self.step)
        if self.kind == "oracle_scdp":
            return oracle.grid_search_scdp(self.prob, self.D, self.P, self.step)
        # The per-suite seeding of audit.run_audit.
        return self.suite(np.random.default_rng(list(self.suite_seed)), self.trials)


@dataclass(frozen=True)
class Spec:
    """A generated config plus how its ops are drawn from it."""

    raw: dict
    kind: str  # op kind for every cell of the config's grid
    step: float = math.nan  # lattice step, oracle ops only


# ---------------------------------------------------------------------------
# Config generation
# ---------------------------------------------------------------------------


def _source(rng, n: int) -> dict:
    return {
        "prior1": float(rng.uniform(0.15, 0.85)),
        "class1": rng.dirichlet(np.ones(n)).tolist(),
        "class2": rng.dirichlet(np.ones(n)).tolist(),
    }


def _config(rng, n: int, m: int, divergence: dict, hamming: bool, mode: str) -> dict:
    raw = {
        "source": _source(rng, n),
        "degrade": {"type": "rows", "rows": rng.dirichlet(np.ones(m), size=n).tolist()},
        "distortion": {"type": "hamming"}
        if hamming
        else {"type": "matrix", "cost": rng.uniform(0.0, 1.0, size=(n, n)).tolist()},
        "divergence": divergence,
        "mode": mode,
    }
    if rng.random() < 0.5:
        raw["classifier"] = {"type": "bayes"}
    else:
        picks = rng.permutation(n)[: int(rng.integers(1, n))]
        raw["classifier"] = {"type": "indices", "indices": sorted(int(i) for i in picks)}
    return raw


def _with_grids(raw: dict, d_offsets, p_grid) -> dict:
    """Place the D grid relative to the instance's minimum distortion."""
    dmin = solver.min_distortion(cli.build_instance(raw))
    d_grid = []
    for off in d_offsets:
        if off is None:  # a budget below the minimum, where one exists
            off = -0.5 * dmin if dmin > 0.02 else 0.001
        d_grid.append(math.inf if math.isinf(off) else dmin + off)
    raw = dict(raw, d_grid=[_json_budget(d) for d in d_grid], p_grid=[_json_budget(p) for p in p_grid])
    return raw


def _json_budget(x: float):
    return "inf" if math.isinf(x) else float(x)


TV = {"name": "total_variation"}
SMOOTH = (
    {"name": "kullback_leibler"},
    {"name": "hellinger"},
    {"name": "renyi", "alpha": 0.5},
    {"name": "renyi", "alpha": 2.0},
)


def _lp_grid(rng) -> list:
    specs = []
    for i in range(POOL["lp_grid"]):
        # Alphabets 2..8, square or rectangular channel, Hamming or matrix
        # distortion, in a fixed rotation: every run of every seed has the same
        # mix of LP sizes, and only the instances vary with the seed.
        n = 2 + i % 7
        square, hamming = (i // 7) % 2 == 0, (i // 14) % 2 == 0
        m = n if square else int(rng.choice([k for k in range(2, 9) if k != n]))
        raw = _config(rng, n, m, TV, hamming=hamming, mode="cdp")
        d_offsets = (None, 0.01, 0.05, 0.15, 0.35, math.inf)
        p_grid = (
            0.0,
            rng.uniform(0.005, 0.03),
            rng.uniform(0.04, 0.1),
            rng.uniform(0.12, 0.25),
            rng.uniform(0.3, 0.6),
            math.inf,
        )
        specs.append(Spec(_with_grids(raw, d_offsets, p_grid), "cdp"))
    return specs


def _strong_grid(rng) -> list:
    specs = []
    for i in range(POOL["strong_grid"]):
        n = 3 + i % 5  # alphabets 3..7 in a fixed rotation
        raw = _config(rng, n, n, TV, hamming=rng.random() < 0.5, mode="scdp")
        d_offsets = (rng.uniform(0.03, 0.12), rng.uniform(0.18, 0.4))
        p_grid = (rng.uniform(0.02, 0.08), rng.uniform(0.12, 0.35))
        specs.append(Spec(_with_grids(raw, d_offsets, p_grid), "scdp"))
    return specs


def _smooth_grid(rng) -> list:
    specs = []
    for i in range(POOL["smooth_grid"]):
        n = 2 + i % 2
        raw = _config(rng, n, n, SMOOTH[i % len(SMOOTH)], hamming=True, mode="cdp")
        d_offsets = (rng.uniform(0.02, 0.15), rng.uniform(0.2, 0.4))
        p_grid = (rng.uniform(0.005, 0.08), rng.uniform(0.1, 0.3))
        specs.append(Spec(_with_grids(raw, d_offsets, p_grid), "cdp"))
    return specs


# Oracle calls of one verify round: (alphabet, divergence, search, lattice
# denominator m).  An alphabet-2 kernel grid has (m + 1)**2 points and an
# alphabet-3 grid ((m + 1)(m + 2) / 2)**3, so each call examines 0.75e6 to
# 1.2e6 kernels, inside the 1e5 .. 3.6e6 that self-checks use.  Calls of
# similar cost keep the median and tail latency of the round on one cluster;
# sizes are fixed and only the instances vary with the seed.
VERIFY_SEARCHES = (
    (2, TV, "oracle_cdp", 1100),
    (3, TV, "oracle_cdp", 12),
    (2, SMOOTH[1], "oracle_cdp", 1100),
    (3, SMOOTH[1], "oracle_cdp", 12),
    (2, TV, "oracle_scdp", 1100),
    (3, TV, "oracle_scdp", 12),
    (2, SMOOTH[1], "oracle_scdp", 1100),
    (3, SMOOTH[1], "oracle_scdp", 12),
)


def _verify(rng) -> list:
    specs = []
    for _ in range(POOL["verify"]):
        for n, divergence, kind, m in VERIFY_SEARCHES:
            raw = _config(rng, n, n, divergence, hamming=True, mode="cdp")
            raw = _with_grids(raw, (rng.uniform(0.05, 0.3),), (rng.uniform(0.03, 0.3),))
            specs.append(Spec(raw, kind, 1.0 / m))
    return specs


GENERATORS = {
    "lp_grid": _lp_grid,
    "strong_grid": _strong_grid,
    "smooth_grid": _smooth_grid,
    "verify": _verify,
}


def generate(workload: str, seed: int, directory: pathlib.Path) -> list:
    """Write the workload's configs for ``seed`` as JSON files; return (path, spec) pairs."""
    rng = np.random.default_rng([seed, sorted(GENERATORS).index(workload)])
    out = []
    for i, spec in enumerate(GENERATORS[workload](rng)):
        path = directory / f"{workload}-{i:04d}.json"
        path.write_text(json.dumps(spec.raw, sort_keys=True), encoding="utf-8")
        out.append((path, spec))
    return out


def load(workload: str, seed: int, generated: list) -> tuple:
    """Read every config through ``cli.load_config``; return (ops, load seconds per call)."""
    ops, load_s = [], []
    for group, (path, spec) in enumerate(generated):
        t0 = time.perf_counter()
        config = cli.load_config(str(path))
        load_s.append(time.perf_counter() - t0)
        for d in config.d_grid:
            for p in config.p_grid:
                ops.append(Op(spec.kind, group, config.instance, d, p, spec.step))
    if workload == "verify":
        ops = _interleave_audit(ops, seed)
    return ops, load_s


def _interleave_audit(oracle_ops: list, seed: int) -> list:
    """Rounds of one oracle search and one audit suite, alternating, in a fixed order."""
    per_round = len(VERIFY_SEARCHES)
    ops = []
    for r in range(len(oracle_ops) // per_round):
        for index, suite in enumerate(audit.ALL_SUITES):
            ops.append(oracle_ops[r * per_round + index])
            ops.append(Op("audit", suite=suite, suite_seed=(seed, r, index)))
    return ops
