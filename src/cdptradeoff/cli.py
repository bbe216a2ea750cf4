"""Command-line front end: surface sweeps, property audits, convexity probes.

Subcommands:

``sweep``
    Load a problem instance and budget grids from a JSON config, solve every
    (D, P) cell, and emit a deterministic CSV (one row per cell; floats in
    shortest round-trip form, ``inf`` spelled literally, infeasible values
    left empty).  ``--dump-kernels`` additionally writes the optimizing
    kernels as JSON.

``audit``
    Run the randomized property suites with a given seed and emit the report
    as canonical JSON.  ``--trials`` sets the six scalar suites; the two
    surface suites always run ``audit.SURFACE_TRIALS``.  Exits 0 when every
    suite passes and 1 otherwise.

``probe-scdp-convexity``
    Solve the strong surface on the config grids and report the
    midpoint-convexity violations along the distortion axis that exceed the
    midpoint's certified duality gap.  The strong surface has no convexity
    guarantee; the probe reports evidence instead of judging, so it exits 0
    on any valid config.

Exit codes: 0 success (and audit pass), 1 audit failure, 2 configuration
error, 3 I/O error.
"""

from __future__ import annotations

import argparse
import csv
import io
import json
import math
import sys
from contextlib import contextmanager
from dataclasses import dataclass
from functools import partial
from typing import Optional, Sequence

import numpy as np

from .audit import DEFAULT_SEED, DEFAULT_TRIALS, SURFACE_TRIALS, midpoint_excess, run_audit
from .classify import DecisionRegion, bayes_region
from .errors import CdpError, ConfigError
from .metrics import _KNOWN_KINDS, RENYI, DistortionMatrix, DivergenceKind
from .prob_core import Alphabet, Channel, MixtureSource
from .solver import ProblemInstance, check_grid, sweep_surface

EXIT_OK = 0
EXIT_AUDIT_FAIL = 1
EXIT_CONFIG = 2
EXIT_IO = 3


@dataclass(frozen=True, eq=False)
class RunConfig:
    """A fully built problem instance plus the budget grids and sweep mode."""

    instance: ProblemInstance
    d_grid: tuple
    p_grid: tuple
    mode: str
    seed: int = DEFAULT_SEED


# ---------------------------------------------------------------------------
# Config parsing
# ---------------------------------------------------------------------------


def _get(raw: dict, path: str, name: str, read=None):
    """The field ``name`` of the object at ``path`` (``""`` at the top level), read by ``read``.

    The field's own path is ``path.name``, or ``name`` at the top level: a
    missing field is a ``ConfigError`` naming it, and ``read(value, its path)`` builds it.
    """
    field = f"{path}.{name}" if path else name
    if name not in raw:
        raise ConfigError(field, "missing required field")
    return raw[name] if read is None else read(raw[name], field)


@contextmanager
def _naming(path: str):
    """Report a failure to build the value at ``path`` as a ``ConfigError`` naming ``path``.

    A ``ConfigError`` from inside already names its field and passes unchanged.
    """
    try:
        yield
    except ConfigError:
        raise
    except (CdpError, ValueError, TypeError, IndexError) as err:
        raise ConfigError(path, str(err)) from None


def _as_object(raw, path: str) -> dict:
    if not isinstance(raw, dict):
        raise ConfigError(path, "expected an object")
    return raw


def _as_float(value, path: str) -> float:
    """A config number; whether its value is allowed is for the object it builds to say.

    Only a JSON number is a number here: ``true`` and ``false`` are Python
    ints, and a quoted number such as ``"0.5"`` is a string, so neither is.
    """
    if isinstance(value, (int, float)) and not isinstance(value, bool):
        try:
            return float(value)
        except OverflowError:  # an integer literal beyond the float range
            pass
    raise ConfigError(path, f"expected a number, got {value!r}")


def _as_array(value, path: str) -> np.ndarray:
    """A config array of nested lists, each entry read by ``_as_float``'s rule.

    A bad entry is named by its indices, as in ``degrade.rows[1][0]``; the
    shape is for the object the array builds to check.  A list of JSON
    floats, the common row, passes in one type test per entry.
    """

    def entries(value, path):
        if isinstance(value, list):
            if all(type(v) is float for v in value):
                return value
            return [entries(v, f"{path}[{i}]") for i, v in enumerate(value)]
        return _as_float(value, path)

    if not isinstance(value, list):
        raise ConfigError(path, "expected a list")
    return np.asarray(entries(value, path), dtype=float)


def _as_grid(value, path: str) -> tuple:
    if not isinstance(value, (list, tuple)):
        raise ConfigError(path, "expected a list of numbers")
    grid = [math.inf if v == "inf" else _as_float(v, f"{path}[{i}]") for i, v in enumerate(value)]
    with _naming(path):
        return check_grid(grid, path)


def _build_source(raw, path: str) -> MixtureSource:
    raw = _as_object(raw, path)
    prior1 = _get(raw, path, "prior1", _as_float)
    masses = ("class1", "class2")
    for name in masses:  # both are present before either is read
        _get(raw, path, name)
    with _naming(path):
        class1, class2 = (_get(raw, path, name, _as_array) for name in masses)
        return MixtureSource.from_masses(prior1, 1.0 - prior1, class1, class2)


def _build_degrade(raw, path: str, source: MixtureSource) -> Channel:
    raw = _as_object(raw, path)
    kind = _get(raw, path, "type")
    with _naming(path):
        if kind == "bsc":
            flip = _get(raw, path, "flip", _as_float)
            if source.alphabet.size != 2:
                raise ConfigError(path, "bsc degradation needs a binary source")
            return Channel.bsc(flip)
        if kind == "identity":
            return Channel.identity(source.alphabet)
        if kind == "rows":
            rows = _get(raw, path, "rows", _as_array)
            if rows.ndim != 2 or rows.shape[0] != source.alphabet.size:
                raise ConfigError(
                    path, f"rows must be a {source.alphabet.size}-row stochastic matrix"
                )
            return Channel(source.alphabet, Alphabet(rows.shape[1]), rows)
    raise ConfigError(f"{path}.type", f"unknown degradation type {kind!r}")


def _build_divergence(raw, path: str) -> DivergenceKind:
    raw = _as_object(raw, path)
    name = _get(raw, path, "name")
    if name not in _KNOWN_KINDS:
        raise ConfigError(f"{path}.name", f"unknown divergence {name!r}")
    with _naming(path):
        return DivergenceKind(name, _get(raw, path, "alpha", _as_float) if name == RENYI else None)


def _build_distortion(raw, path: str, source: MixtureSource, restore: Alphabet) -> DistortionMatrix:
    raw = _as_object(raw, path)
    kind = _get(raw, path, "type")
    with _naming(path):
        if kind == "hamming":
            return DistortionMatrix.hamming(source.alphabet, restore)
        if kind == "matrix":
            return DistortionMatrix(source.alphabet, restore, _get(raw, path, "cost", _as_array))
    raise ConfigError(f"{path}.type", f"unknown distortion type {kind!r}")


def _build_classifier(raw, path: str, source: MixtureSource, restore: Alphabet) -> DecisionRegion:
    raw = _as_object({"type": "bayes"} if raw is None else raw, path)
    kind = _get(raw, path, "type")
    if kind == "bayes":
        if restore.size != source.alphabet.size:
            raise ConfigError(
                path,
                "the source-optimal classifier needs restoration and source alphabets of equal size",
            )
        return DecisionRegion(restore, bayes_region(source).members)
    if kind == "indices":
        indices = _get(raw, path, "indices")
        with _naming(path):
            return DecisionRegion.from_indices(restore, indices)
    raise ConfigError(f"{path}.type", f"unknown classifier type {kind!r}")


def build_instance(raw: dict) -> ProblemInstance:
    """Build a problem instance from a parsed config object."""
    if not isinstance(raw, dict):
        raise ConfigError("config", "top level must be an object")
    source = _get(raw, "", "source", _build_source)
    degrade = _get(raw, "", "degrade", partial(_build_degrade, source=source))
    restore_size = raw.get("restore_size", source.alphabet.size)
    if not isinstance(restore_size, int) or isinstance(restore_size, bool) or restore_size < 1:
        raise ConfigError("restore_size", f"expected a positive integer, got {restore_size!r}")
    restore = Alphabet(restore_size)
    delta = _get(raw, "", "distortion", partial(_build_distortion, source=source, restore=restore))
    kind = _get(raw, "", "divergence", _build_divergence)
    classifier = _build_classifier(raw.get("classifier"), "classifier", source, restore)
    with _naming("config"):
        return ProblemInstance(
            source=source,
            degrade=degrade,
            restore_alphabet=restore,
            delta=delta,
            divergence=kind,
            classifier=classifier,
        )


def load_config(path: str) -> RunConfig:
    """Read and validate a JSON config file into a runnable configuration."""
    with open(path, "r", encoding="utf-8") as fh:
        text = fh.read()
    try:
        raw = json.loads(text)
    except json.JSONDecodeError as err:
        raise ConfigError("config", f"invalid JSON: {err}") from None
    instance = build_instance(raw)
    d_grid = _get(raw, "", "d_grid", _as_grid)
    p_grid = _get(raw, "", "p_grid", _as_grid)
    mode = raw.get("mode", "both")
    if mode not in ("cdp", "scdp", "both"):
        raise ConfigError("mode", f"expected 'cdp', 'scdp', or 'both', got {mode!r}")
    with _naming("p_grid"):
        # The grids passed their check, so only the alphabet rule can fail, and
        # an ascending p_grid holds a finite P exactly when p_grid[0] is finite.
        instance.check_budgets(d_grid[0], p_grid[0])
    seed = _check_seed(raw.get("seed", DEFAULT_SEED), "seed")
    return RunConfig(instance=instance, d_grid=d_grid, p_grid=p_grid, mode=mode, seed=seed)


def _check_seed(seed, field: str) -> int:
    """A seed is an unsigned 64-bit integer, from the config or from ``--seed``."""
    if not isinstance(seed, int) or isinstance(seed, bool) or not (0 <= seed < 2**64):
        raise ConfigError(field, f"expected an unsigned 64-bit integer, got {seed!r}")
    return seed


# ---------------------------------------------------------------------------
# Output formatting
# ---------------------------------------------------------------------------


def _fmt_float(x: float) -> str:
    if isinstance(x, float) and math.isnan(x):
        return ""
    if math.isinf(x):
        return "inf" if x > 0 else "-inf"
    return format(float(x), ".17g")


def _cells(tables):
    """Yield ``(mode, D, P, cell)`` for every solved cell, table by table, each in row-major order."""
    for table in tables:
        for d, row in zip(table.d_grid, table.cells):
            for p, cell in zip(table.p_grid, row):
                yield table.mode, d, p, cell


def _write_sweep_csv(fh, tables) -> None:
    writer = csv.writer(fh, lineterminator="\n")
    writer.writerow(["mode", "D", "P", "value", "status", "achieved_D", "achieved_P", "iterations"])
    for mode, d, p, cell in _cells(tables):
        writer.writerow(
            [
                mode,
                _fmt_float(d),
                _fmt_float(p),
                _fmt_float(cell.value),
                cell.status.value,
                _fmt_float(cell.achieved_distortion),
                _fmt_float(cell.achieved_perception),
                str(int(cell.certificate["iterations"])),
            ]
        )


def _kernel_dump(tables) -> dict:
    return {
        "cells": [
            {
                "mode": mode,
                "D": d,
                "P": p,
                "status": cell.status.value,
                "kernel": None if cell.kernel is None else cell.kernel.matrix.tolist(),
            }
            for mode, d, p, cell in _cells(tables)
        ]
    }


def _emit(text: str, out: Optional[str]) -> None:
    if out is None or out == "-":
        sys.stdout.write(text)
    else:
        with open(out, "w", encoding="utf-8", newline="") as fh:
            fh.write(text)


def _emit_json(payload, out: Optional[str]) -> None:
    _emit(json.dumps(payload, sort_keys=True, indent=2) + "\n", out)


# ---------------------------------------------------------------------------
# Subcommands
# ---------------------------------------------------------------------------


def cmd_sweep(args) -> int:
    config = load_config(args.config)
    modes = ("cdp", "scdp") if config.mode == "both" else (config.mode,)
    tables = [sweep_surface(config.instance, config.d_grid, config.p_grid, m) for m in modes]
    buffer = io.StringIO()
    _write_sweep_csv(buffer, tables)
    _emit(buffer.getvalue(), args.out)
    if args.dump_kernels:
        _emit_json(_kernel_dump(tables), args.dump_kernels)
    return EXIT_OK


def cmd_audit(args) -> int:
    # The instance in the config is validated up front (a malformed config is a
    # config error even though the randomized suites draw their own instances);
    # the config also carries the default seed, which --seed overrides.
    seed = None if args.seed is None else _check_seed(args.seed, "--seed")
    config_seed = DEFAULT_SEED if args.config is None else load_config(args.config).seed
    report = run_audit(seed=config_seed if seed is None else seed, trials=args.trials)
    _emit_json(report.to_dict(), args.out)
    return EXIT_OK if report.passed else EXIT_AUDIT_FAIL


def cmd_probe_scdp_convexity(args) -> int:
    config = load_config(args.config)
    table = sweep_surface(config.instance, config.d_grid, config.p_grid, "scdp")
    cells = list(_cells([table]))
    values = table.value_matrix()
    gaps = np.array([cell.certificate["duality_gap"] for *_, cell in cells], dtype=float).reshape(values.shape)
    excess = midpoint_excess(config.d_grid, values)
    # A solved value overestimates C_S by at most its certified gap and never
    # undercuts it, so only the midpoint's gap can fake an excess; a violation
    # counts once the excess clears that.  NaN excess counts as neither.
    certified = excess - gaps[1:-1] - 1e-9
    d_grid = config.d_grid
    payload = {
        "grid": {"D": list(d_grid), "P": list(config.p_grid)},
        "max_gap": None if np.isnan(gaps).all() else float(np.nanmax(gaps)),
        "cells": [
            {"D": d, "P": p, "value": None if math.isnan(value) else float(value)}
            for (_, d, p, _), value in zip(cells, values.flat)
        ],
        "violations": [
            {
                "P": config.p_grid[j],
                "d_lo": d_grid[i],
                "d_mid": d_grid[i + 1],
                "d_hi": d_grid[i + 2],
                "excess": float(excess[i, j]),
                "excess_beyond_gap": float(certified[i, j]),
            }
            # P-major order: every triple of one P column before the next column.
            for j, i in zip(*np.nonzero(certified.T > 0.0))
        ],
        "max_violation": float(np.max(certified, initial=0.0, where=~np.isnan(certified))),
        "note": (
            "the strong surface carries no convexity guarantee; positive "
            "excess beyond the certified gap exhibits an actual non-convexity"
        ),
    }
    _emit_json(payload, args.out)
    return EXIT_OK


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="cdp-tradeoff",
        description="classification-distortion-perception tradeoff surfaces for discrete two-class sources",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p_sweep = sub.add_parser("sweep", help="solve a (D, P) grid and emit CSV")
    p_sweep.add_argument("--config", required=True, help="JSON problem description")
    p_sweep.add_argument("--out", default="-", help="CSV destination (default stdout)")
    p_sweep.add_argument(
        "--dump-kernels", default=None, metavar="PATH", help="also write optimizing kernels as JSON"
    )
    p_sweep.set_defaults(func=cmd_sweep)

    p_audit = sub.add_parser("audit", help="run the randomized property suites")
    p_audit.add_argument("--config", default=None, help="JSON problem description (validated; supplies the default seed)")
    p_audit.add_argument("--seed", type=int, default=None, help="override the config seed")
    p_audit.add_argument(
        "--trials",
        type=int,
        default=DEFAULT_TRIALS,
        help=f"trials of each scalar suite (default {DEFAULT_TRIALS}); "
        f"the two surface suites always run {SURFACE_TRIALS}",
    )
    p_audit.add_argument("--out", default="-", help="JSON destination (default stdout)")
    p_audit.set_defaults(func=cmd_audit)

    p_probe = sub.add_parser(
        "probe-scdp-convexity",
        help="search for strong-surface convexity violations along the distortion axis",
    )
    p_probe.add_argument("--config", required=True, help="JSON problem description")
    p_probe.add_argument("--out", default="-", help="JSON destination (default stdout)")
    p_probe.set_defaults(func=cmd_probe_scdp_convexity)

    return parser


def main(argv: Optional[Sequence[str]] = None) -> int:
    parser = _build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except OSError as err:
        print(f"i/o error: {err}", file=sys.stderr)
        return EXIT_IO
    except (CdpError, ValueError) as err:
        print(f"config error: {err}", file=sys.stderr)
        return EXIT_CONFIG


if __name__ == "__main__":
    sys.exit(main())
