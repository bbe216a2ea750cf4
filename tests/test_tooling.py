"""Tooling that reaches into the library from outside: the benchmark's traced
runs, the source boundaries that keep the lattice oracle and the problem
apart from the solver and the package free of ``scipy.optimize`` imports,
the audit free of formula copies, masked sums in one place and the package
free of memo caches, the LP size the solver's docstring states, Python
floats at the public boundary, and the README's quickstart, certificate and
audit paragraphs."""

import ast
import importlib.util
import math
import pathlib
import re

import numpy as np

from cdptradeoff import (
    Alphabet,
    Channel,
    DecisionRegion,
    DistortionMatrix,
    DivergenceKind,
    MixtureSource,
    ProblemInstance,
    ProbVector,
    audit,
    bayes_error,
    bayes_error_tv_form,
    divergence,
    error_rate,
    expected_distortion,
    min_distortion,
    solve_cdp,
    solve_scdp,
    solver,
)

ROOT = pathlib.Path(__file__).resolve().parent.parent
SPANS = ROOT / "perfbench" / "spans.py"
PACKAGE = ROOT / "src" / "cdptradeoff"
ORACLE = PACKAGE / "oracle.py"
AUDIT = PACKAGE / "audit.py"
README = ROOT / "README.md"


def load_spans():
    spec = importlib.util.spec_from_file_location("perfbench_spans", SPANS)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_traced_benchmark_hooks_exist_in_solver(canonical_problem):
    # ``perfbench/run.py --trace 1`` wraps each of these names where
    # cdptradeoff.solver binds them, and crashes if one is gone.  Each one
    # records work over an LP cell and a strong cell, and ``linprog`` records
    # every LP the certificates count.
    spans = load_spans()
    missing = [name for name in spans.WRAPPED if not hasattr(solver, name)]
    assert not missing
    tracer = spans.Tracer()
    originals = {name: getattr(solver, name) for name in spans.WRAPPED}
    with tracer.installed():
        cdp = tracer.op(0, "cdp", lambda: solver.solve_cdp(canonical_problem(), 0.3, 0.2))
        scdp = tracer.op(1, "scdp", lambda: solver.solve_scdp(canonical_problem(), 0.3, 0.2))
    assert {name: getattr(solver, name) for name in spans.WRAPPED} == originals
    assert [cdp.certificate["method"], scdp.certificate["method"]] == ["lp", "regions"]
    for op in (0, 1):
        assert tracer.root_ms()[op][0] > 0.0
        assert math.isfinite(tracer.root_ms()[op][1])
    calls = {name: count for name, (_, count) in tracer.ms_by_name().items()}
    assert all(calls.get(name, 0) > 0 for name in spans.WRAPPED), calls
    assert calls["linprog"] == cdp.certificate["lp_solves"] + scdp.certificate["lp_solves"]


def test_no_module_imports_scipy_optimize():
    # Every LP goes through ``solver.linprog`` to the HiGHS bindings, which
    # ``_load_highs`` loads from their file and names only as a string, so no
    # module of the package imports from ``scipy.optimize``.
    found = []
    for path in sorted(PACKAGE.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            if isinstance(node, ast.ImportFrom) and not node.level:
                names = [f"{node.module}.{alias.name}" for alias in node.names]
            elif isinstance(node, ast.Import):
                names = [alias.name for alias in node.names]
            else:
                continue
            found += [f"{path.name}:{node.lineno} {name}" for name in names if f"{name}.".startswith("scipy.optimize.")]
    assert not found


def _imports(path: pathlib.Path) -> tuple:
    """(package module -> names taken from it, other modules imported) of one
    source file; ``from . import m`` counts as taking nothing from ``m``."""
    package, other = {}, set()
    for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
        if isinstance(node, ast.ImportFrom) and node.level == 1 and node.module is None:
            for alias in node.names:
                package.setdefault(alias.name, set())
        elif isinstance(node, ast.ImportFrom) and node.level == 1:
            package.setdefault(node.module, set()).update(alias.name for alias in node.names)
        elif isinstance(node, ast.ImportFrom):
            other.add(node.module or "")
        elif isinstance(node, ast.Import):
            other.update(alias.name for alias in node.names)
    # Package modules are imported relatively, so the checks below see them all.
    assert not {name for name in other if name.split(".")[0] == "cdptradeoff"}
    return package, other


def test_oracle_imports_no_solver_or_metrics_code():
    # The oracle is the reference the solver is checked against, so it takes
    # the problem from problem.py and nothing from the solver.
    imported, _ = _imports(ORACLE)
    assert "solver" not in imported
    from_metrics = imported.get("metrics", set())
    assert not {name for name in from_metrics if name.startswith("_")}
    assert not from_metrics & {"divergence", "expected_distortion"}


def test_problem_imports_no_solver_oracle_audit_cli_or_scipy():
    # problem.py is what the solver and the oracle share, so it depends on
    # neither of them, nor on what is built on them, nor on the LP solver.
    imported, other = _imports(PACKAGE / "problem.py")
    assert not imported.keys() & {"solver", "oracle", "audit", "cli"}
    assert not {name for name in other if name.split(".")[0] == "scipy"}


def test_no_library_function_is_memoized_across_calls():
    # No result may depend on what an earlier call left behind, so no module
    # of the package keeps a memo cache; a per-instance cached_property is fine.
    cached = []
    for path in sorted(PACKAGE.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
                for decorator in node.decorator_list:
                    name = ast.unparse(decorator.func if isinstance(decorator, ast.Call) else decorator)
                    if name.rsplit(".", 1)[-1] in {"lru_cache", "cache"}:
                        cached.append(f"{path.name}:{node.lineno} {node.name}")
    assert not cached


def test_audit_sums_nothing_of_its_own():
    # The audit's suites evaluate the library's own error-rate, Bayes-error and
    # divergence forms on their stacks, so that they check the library and not
    # a copy of its formulas; a sum in the audit would be the start of a copy.
    calls = [node for node in ast.walk(ast.parse(AUDIT.read_text(encoding="utf-8"))) if isinstance(node, ast.Call)]
    sums = [ast.unparse(call) for call in calls if re.search(r"(\badd\.reduce|\bsum)$", ast.unparse(call.func))]
    assert not sums


def _index_is_literal(node) -> bool:
    """Whether a subscript's index is made of slices and constants only."""
    if isinstance(node, ast.Tuple):
        return all(map(_index_is_literal, node.elts))
    if isinstance(node, ast.UnaryOp):
        node = node.operand
    return isinstance(node, (ast.Slice, ast.Constant))


def test_masked_sums_go_through_masked_sum_only():
    # ``prob_core._masked_sum`` adds a row's selected entries with zeros in
    # place of the rest, so a row of a stack sums as it does alone.  A sum over
    # a gather, ``values[mask]``, adds them in another order from 8 entries
    # on, so no module of the package sums an array indexed by anything other
    # than slices and constants.  The lattice oracle is the independent
    # reference and keeps its own sums.
    gathers = []
    for path in sorted(set(PACKAGE.glob("*.py")) - {ORACLE}):
        for call in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            if not (isinstance(call, ast.Call) and re.search(r"(\badd\.reduce|\bsum)$", ast.unparse(call.func))):
                continue
            summed = [*call.args, *(k.value for k in call.keywords), call.func]
            subscripts = [sub for node in summed for sub in ast.walk(node) if isinstance(sub, ast.Subscript)]
            if not all(_index_is_literal(sub.slice) for sub in subscripts):
                gathers.append(f"{path.name}:{call.lineno} {ast.unparse(call)}")
    assert not gathers


def test_solver_docstring_states_the_lp_size():
    # The solver's module docstring gives the size of its largest LP without
    # cuts, D and P both finite, on the largest alphabets it names; build that
    # LP through _lp_model and count its columns and rows.
    text = " ".join(solver.__doc__.split())
    stated = re.search(r"at most (\d+) columns and (\d+) rows on alphabets of up to (\d+) symbols", text)
    assert stated, text
    columns, rows, n = map(int, stated.groups())
    rng = np.random.default_rng(0)
    src = MixtureSource.from_masses(0.5, 0.5, rng.dirichlet(np.ones(n)), rng.dirichlet(np.ones(n)))
    deg = Channel.from_rows(rng.dirichlet(np.ones(n), size=n))
    delta = DistortionMatrix.hamming(src.alphabet)
    cls = DecisionRegion.from_indices(src.alphabet, [0])
    prob = ProblemInstance(src, deg, src.alphabet, delta, DivergenceKind.total_variation(), cls)
    model = solver._lp_model(prob, prob.objective_weights, solver.min_distortion(prob) + 0.1, 0.1)
    assert (len(model.c), len(model.row_lower)) == (columns, rows)


def test_public_numbers_are_python_floats():
    # The array forms behind the public functions may return NumPy scalars;
    # every number the public API hands out, finite or +inf, is a float.
    a = Alphabet(2)
    p, q, point = (ProbVector(a, m) for m in ([0.5, 0.5], [0.25, 0.75], [1.0, 0.0]))
    kl, renyi = DivergenceKind.kullback_leibler(), DivergenceKind.renyi
    kinds = (DivergenceKind.total_variation(), kl, DivergenceKind.hellinger(), renyi(0.5), renyi(2.0))
    finite = [divergence(kind, p, q) for kind in kinds]
    # Off the support: KL and Renyi above order 1 are +inf; below order 1, only disjoint supports are.
    infinite = [divergence(kl, p, point), divergence(renyi(2.0), p, point)]
    infinite.append(divergence(renyi(0.5), point, ProbVector(a, [0.0, 1.0])))
    assert all(map(math.isfinite, finite)) and infinite == [math.inf] * 3
    src = MixtureSource.from_masses(0.3, 0.7, [0.9, 0.1], [0.25, 0.75])
    region = DecisionRegion.from_indices(a, [1])
    numbers = [*finite, *infinite, error_rate(src, region), bayes_error(src), bayes_error_tv_form(src)]
    delta = DistortionMatrix.hamming(a)
    numbers.append(expected_distortion(src, Channel.bsc(0.1), Channel.identity(a), delta))
    methods = []
    for kind in (kinds[0], kl):
        prob = ProblemInstance(src, Channel.bsc(0.1), a, delta, kind, region)
        numbers.append(min_distortion(prob))
        for solve in (solve_cdp, solve_scdp):
            r = solve(prob, 0.3, 0.05)
            numbers += [r.value, r.achieved_distortion, r.achieved_perception]
            methods.append((r.status.value, r.certificate["method"], r.certificate["cuts"] > 0))
    # An LP cell, a cut cell that made cuts, and a strong cell of each kind.
    assert methods == [
        ("Optimal", "lp", False),
        ("Optimal", "regions", False),
        ("Optimal", "cuts", True),
        ("Optimal", "regions", False),
    ]
    assert [type(x) for x in numbers] == [float] * len(numbers)


def test_readme_quickstart_runs(capsys):
    # The README's one ``python`` block is the library quickstart; run it as
    # written so it cannot drift from the API.
    [block] = re.findall(r"^```python\n(.*?)^```$", README.read_text(encoding="utf-8"), re.M | re.S)
    exec(compile(block, str(README), "exec"), {"__name__": "readme_quickstart"})
    assert capsys.readouterr().out.count("\n") >= 4


def test_readme_certificate_paragraph_lists_the_keys_in_order():
    # The README names the keys every certificate has "in this order"; read
    # them in the order that sentence names them, leaving out its
    # parenthesized list of methods, and compare with the order certificates
    # follow.
    text = " ".join(README.read_text(encoding="utf-8").split())
    [sentence] = re.findall(r"Every certificate has these keys, in this order: (.*?)\. ", text)
    named = re.findall(r"`(\w+)`", re.sub(r"\([^()]*,[^()]*\)", "", sentence))
    assert tuple(named) == solver._SHARED_KEYS


def test_readme_audit_paragraph_states_the_trial_counts():
    # The README's ``audit`` bullet quotes the audit module's trial counts;
    # each number it states must be the constant's value.
    [bullet] = re.findall(r"^- `audit` runs .*?(?=^- )", README.read_text(encoding="utf-8"), re.M | re.S)
    text = " ".join(bullet.split())
    stated = re.search(r"\(default (\d+)\).*always run (\d+) trials.*adds (\d+) equality and (\d+) bridging", text)
    assert stated, text
    assert [int(n) for n in stated.groups()] == [
        audit.DEFAULT_TRIALS,
        audit.SURFACE_TRIALS,
        audit.STRUCTURED_TRIALS,
        audit.STRUCTURED_TRIALS,
    ]
