"""Tooling that reaches into the library from outside: the benchmark's traced runs."""

import importlib.util
import math
import pathlib

from cdptradeoff import solver

SPANS = pathlib.Path(__file__).resolve().parent.parent / "perfbench" / "spans.py"


def load_spans():
    spec = importlib.util.spec_from_file_location("perfbench_spans", SPANS)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_traced_benchmark_hooks_exist_in_solver(canonical_problem):
    # ``perfbench/run.py --trace 1`` wraps each of these names where
    # cdptradeoff.solver binds them, and crashes if one is gone.
    spans = load_spans()
    missing = [name for name in spans.WRAPPED if not hasattr(solver, name)]
    assert not missing
    tracer = spans.Tracer()
    originals = {name: getattr(solver, name) for name in spans.WRAPPED}
    with tracer.installed():
        tracer.op(0, "cdp", lambda: solver.solve_cdp(canonical_problem(), 0.3, 0.2))
    assert {name: getattr(solver, name) for name in spans.WRAPPED} == originals
    assert tracer.root_ms()[0][0] > 0.0
    assert math.isfinite(tracer.root_ms()[0][1])
