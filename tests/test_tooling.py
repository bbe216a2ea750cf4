"""Tooling that reaches into the library from outside: the benchmark's traced
runs, and the import boundary that keeps the lattice oracle independent."""

import ast
import importlib.util
import math
import pathlib

from cdptradeoff import solver

ROOT = pathlib.Path(__file__).resolve().parent.parent
SPANS = ROOT / "perfbench" / "spans.py"
ORACLE = ROOT / "src" / "cdptradeoff" / "oracle.py"


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


def test_oracle_imports_no_solver_or_metrics_code():
    # The oracle is the reference the solver is checked against, so it may take
    # the problem's types from the solver but none of its computations.
    imported = {}
    for node in ast.walk(ast.parse(ORACLE.read_text(encoding="utf-8"))):
        if isinstance(node, ast.ImportFrom) and node.level == 1:
            imported.setdefault(node.module, set()).update(alias.name for alias in node.names)
        elif isinstance(node, ast.ImportFrom):
            # Package modules are imported relatively, so these checks see them all.
            assert not (node.module or "").startswith("cdptradeoff")
        elif isinstance(node, ast.Import):
            assert not any(alias.name.startswith("cdptradeoff") for alias in node.names)
    assert imported.get("solver", set()) <= {"ProblemInstance", "SolveStatus"}
    from_metrics = imported.get("metrics", set())
    assert not {name for name in from_metrics if name.startswith("_")}
    assert not from_metrics & {"divergence", "expected_distortion"}
