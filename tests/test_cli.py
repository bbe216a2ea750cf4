"""Command-line front door: config validation, outputs, exit codes, determinism."""

import csv
import hashlib
import json
import math

import numpy as np
import pytest

from cdptradeoff import Channel, DivergenceKind, error_rate, push_forward
from cdptradeoff.cli import (
    EXIT_AUDIT_FAIL,
    EXIT_CONFIG,
    EXIT_IO,
    EXIT_OK,
    build_instance,
    load_config,
    main,
)
from cdptradeoff.oracle import grid_search_scdp
from conftest import FIXTURE_DIR

CANONICAL = {
    "source": {"prior1": 0.5, "class1": [0.8, 0.2], "class2": [0.2, 0.8]},
    "degrade": {"type": "bsc", "flip": 0.1},
    "distortion": {"type": "hamming"},
    "divergence": {"name": "total_variation"},
    "classifier": {"type": "indices", "indices": [0]},
    "d_grid": [0.1, 0.2, 0.3],
    "p_grid": [0.0, 0.2],
    "mode": "both",
    "seed": 42,
}


def write_config(tmp_path, overrides=None, drop=None, name="config.json"):
    raw = json.loads(json.dumps(CANONICAL))
    for key, value in (overrides or {}).items():
        if isinstance(value, dict) and isinstance(raw.get(key), dict):
            raw[key].update(value)
        else:
            raw[key] = value
    for key in drop or ():
        raw.pop(key, None)
    path = tmp_path / name
    path.write_text(json.dumps(raw))
    return str(path)


class TestConfigParsing:
    def test_canonical_round_trip(self, tmp_path):
        cfg = load_config(write_config(tmp_path))
        assert cfg.mode == "both"
        assert cfg.seed == 42
        assert cfg.d_grid == (0.1, 0.2, 0.3)
        assert cfg.instance.source.prior1 == 0.5

    def test_inf_strings_in_grids(self, tmp_path):
        cfg = load_config(write_config(tmp_path, {"d_grid": ["inf"], "p_grid": ["inf"]}))
        assert cfg.d_grid == (math.inf,)
        assert cfg.p_grid == (math.inf,)

    def test_bayes_classifier_default(self, tmp_path):
        cfg = load_config(write_config(tmp_path, drop=["classifier"]))
        # For this source the Bayes region on the restored alphabet is {0}.
        assert cfg.instance.classifier.indices == (0,)

    def test_rows_degradation(self, tmp_path):
        cfg = load_config(write_config(tmp_path, {"degrade": {"type": "rows", "rows": [[0.7, 0.3], [0.1, 0.9]]}}))
        np.testing.assert_allclose(cfg.instance.degrade.matrix, [[0.7, 0.3], [0.1, 0.9]])

    def test_renyi_divergence_with_alpha(self, tmp_path):
        cfg = load_config(write_config(tmp_path, {"divergence": {"name": "renyi", "alpha": 2.0}}))
        assert cfg.instance.divergence.alpha == 2.0

    def test_alpha_is_read_only_for_renyi(self, tmp_path):
        cfg = load_config(write_config(tmp_path, {"divergence": {"name": "total_variation", "alpha": "x"}}))
        assert cfg.instance.divergence == DivergenceKind.total_variation()

    def test_build_instance_rejects_missing_field(self):
        with pytest.raises(Exception) as err:
            build_instance({"source": {"prior1": 0.5, "class1": [1.0, 0.0]}})
        assert "class2" in str(err.value)


class TestExitCodes:
    def test_missing_config_file_is_io_error(self, capsys):
        assert main(["sweep", "--config", "/nonexistent/nope.json"]) == EXIT_IO

    def test_invalid_json_is_config_error(self, tmp_path, capsys):
        path = tmp_path / "bad.json"
        path.write_text("{not json")
        assert main(["sweep", "--config", str(path)]) == EXIT_CONFIG

    def test_broken_channel_rows_rejected(self, tmp_path, capsys):
        cfg = write_config(tmp_path, {"degrade": {"type": "rows", "rows": [[0.9, 0.2], [0.1, 0.9]]}})
        assert main(["sweep", "--config", cfg]) == EXIT_CONFIG

    def test_bad_mode_rejected(self, tmp_path, capsys):
        cfg = write_config(tmp_path, {"mode": "sideways"})
        assert main(["sweep", "--config", cfg]) == EXIT_CONFIG

    def test_unknown_divergence_rejected(self, tmp_path, capsys):
        cfg = write_config(tmp_path, {"divergence": {"name": "wasserstein"}})
        assert main(["sweep", "--config", cfg]) == EXIT_CONFIG

    def test_bad_seed_rejected(self, tmp_path, capsys):
        cfg = write_config(tmp_path, {"seed": -1})
        assert main(["sweep", "--config", cfg]) == EXIT_CONFIG

    def test_bool_restore_size_rejected_by_name(self, tmp_path, capsys):
        # JSON true is a Python int; it must not reach Alphabet as a size of 1.
        cfg = write_config(tmp_path, {"restore_size": True})
        assert main(["sweep", "--config", cfg]) == EXIT_CONFIG
        assert "restore_size" in capsys.readouterr().err

    def test_audit_validates_config_before_running(self, tmp_path, capsys):
        cfg = write_config(tmp_path, {"degrade": {"type": "rows", "rows": [[0.9, 0.2], [0.1, 0.9]]}})
        assert main(["audit", "--config", cfg, "--trials", "1"]) == EXIT_CONFIG

    @pytest.mark.parametrize(
        "overrides, field",
        [
            ({"d_grid": [0.1, "x"]}, "d_grid"),
            ({"source": {"prior1": "half"}}, "source"),
            ({"p_grid": ["nan"]}, "p_grid"),
            ({"d_grid": []}, "d_grid"),
            ({"d_grid": 0.2}, "d_grid"),
            ({"p_grid": [-0.1, 0.2]}, "p_grid"),
            ({"d_grid": [0.3, 0.1]}, "d_grid"),
            ({"source": [0.5, 0.5]}, "source"),
            ({"source": {"class1": [0.9, 0.2]}}, "source"),
            ({"divergence": {"name": "renyi"}}, "divergence.alpha"),
            ({"distortion": {"type": "matrix"}}, "distortion.cost"),
            ({"distortion": {"type": "matrix", "cost": [[0, -1], [1, 0]]}}, "distortion"),
            ({"degrade": "bsc"}, "degrade"),
            ({"divergence": "total_variation"}, "divergence"),
            ({"distortion": ["hamming"]}, "distortion"),
            ({"classifier": 0}, "classifier"),
            ({"source": {"class1": [0.5, 0.3, 0.2], "class2": [0.2, 0.3, 0.5]}}, "degrade"),
            ({"degrade": {"type": "rows", "rows": [[1.0], [1.0], [1.0]]}}, "degrade"),
            ({"degrade": {"type": "erasure"}}, "degrade.type"),
            ({"distortion": {"type": "squared"}}, "distortion.type"),
            ({"classifier": {"type": "nearest"}}, "classifier.type"),
            ({"divergence": {"name": "renyi", "alpha": 1.0}}, "divergence"),
            (
                {
                    "restore_size": 3,
                    "distortion": {"type": "matrix", "cost": [[0, 1, 1], [1, 0, 1]]},
                    "classifier": {"type": "bayes"},
                },
                "classifier",
            ),
            ({"classifier": {"indices": [5]}}, "classifier"),
            (
                {"restore_size": 3, "distortion": {"type": "matrix", "cost": [[0, 1, 1], [1, 0, 1]]}},
                "p_grid",
            ),
            ({"classifier": {"indices": [True]}}, "classifier"),
            ({"classifier": {"indices": [1.5]}}, "classifier"),
            ({"source": {"prior1": True}}, "source.prior1"),
            ({"d_grid": [True]}, "d_grid[0]"),
            ({"source": {"class1": [True, False]}}, "source.class1[0]"),
            ({"source": {"class2": 0.5}}, "source.class2"),
            ({"degrade": {"type": "rows", "rows": [[0.5, 0.5], [True, False]]}}, "degrade.rows[1][0]"),
            ({"distortion": {"type": "matrix", "cost": [[0, True], [1, 0]]}}, "distortion.cost[0][1]"),
            ({"source": {"prior1": "0.5"}}, "source.prior1"),
            ({"source": {"class1": ["0.5", "0.5"]}}, "source.class1[0]"),
            ({"degrade": {"type": "bsc", "flip": " 1e-1 "}}, "degrade.flip"),
            ({"d_grid": [0.1, "Infinity"]}, "d_grid[1]"),
            ({"source": {"prior1": 10**400}}, "source.prior1"),
            ({"divergence": {"name": "renyi", "alpha": math.inf}}, "divergence"),  # written as Infinity
        ],
    )
    def test_config_errors_exit_2_naming_the_field(self, tmp_path, capsys, overrides, field):
        cfg = write_config(tmp_path, overrides)
        assert main(["sweep", "--config", cfg]) == EXIT_CONFIG
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.startswith(f"config error: {field}")

    @pytest.mark.parametrize("seed", ["-1", str(2**64)])
    def test_audit_seed_flag_is_checked_like_the_config_seed(self, seed, capsys):
        assert main(["audit", "--seed", seed, "--trials", "1"]) == EXIT_CONFIG
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == f"config error: --seed: expected an unsigned 64-bit integer, got {seed}\n"

    @pytest.mark.parametrize("seed", ["0", str(2**64 - 1)])
    def test_audit_seed_flag_accepts_both_ends_of_the_range(self, seed, tmp_path):
        out = tmp_path / "audit.json"
        assert main(["audit", "--seed", seed, "--trials", "1", "--out", str(out)]) == EXIT_OK
        assert json.loads(out.read_text())["seed"] == int(seed)

    @pytest.mark.parametrize("trials", ["0", "-3"])
    def test_audit_without_trials_rejected(self, trials, capsys):
        assert main(["audit", "--trials", trials, "--seed", "1"]) == EXIT_CONFIG
        assert capsys.readouterr().out == ""


class TestSweep:
    def test_csv_shape_and_header(self, tmp_path):
        cfg = write_config(tmp_path)
        out = tmp_path / "out.csv"
        assert main(["sweep", "--config", cfg, "--out", str(out)]) == EXIT_OK
        rows = list(csv.reader(out.read_text().splitlines()))
        assert rows[0] == ["mode", "D", "P", "value", "status", "achieved_D", "achieved_P", "iterations"]
        # 3 distortion budgets x 2 perception budgets x 2 modes.
        assert len(rows) == 1 + 12
        modes = {r[0] for r in rows[1:]}
        assert modes == {"cdp", "scdp"}

    def test_values_parse_and_order(self, tmp_path):
        cfg = write_config(tmp_path)
        out = tmp_path / "out.csv"
        main(["sweep", "--config", cfg, "--out", str(out)])
        rows = list(csv.DictReader(out.read_text().splitlines()))
        by_key = {(r["mode"], r["D"], r["P"]): r for r in rows}
        for (mode, d, p), r in by_key.items():
            if r["status"] == "Optimal":
                v = float(r["value"])
                assert 0.0 <= v <= 1.0
                if mode == "cdp":
                    s = by_key[("scdp", d, p)]
                    if s["status"] == "Optimal":
                        assert float(s["value"]) <= v + 1e-8

    def test_infeasible_cells_have_empty_value(self, tmp_path):
        cfg = write_config(tmp_path, {"d_grid": [0.01, 0.2]})
        out = tmp_path / "out.csv"
        assert main(["sweep", "--config", cfg, "--out", str(out)]) == EXIT_OK
        rows = list(csv.DictReader(out.read_text().splitlines()))
        infeasible = [r for r in rows if r["status"] == "Infeasible"]
        assert infeasible
        assert all(r["value"] == "" for r in infeasible)

    def test_dump_kernels_replay(self, tmp_path):
        cfg = write_config(tmp_path, {"mode": "cdp"})
        out = tmp_path / "out.csv"
        dump = tmp_path / "kernels.json"
        main(["sweep", "--config", cfg, "--out", str(out), "--dump-kernels", str(dump)])
        payload = json.loads(dump.read_text())
        run = load_config(cfg)
        csv_rows = {
            (r["mode"], float(r["D"]), float(r["P"])): r
            for r in csv.DictReader(out.read_text().splitlines())
        }
        checked = 0
        for cell in payload["cells"]:
            if cell["kernel"] is None:
                continue
            K = Channel(run.instance.degrade.output, run.instance.restore_alphabet, np.array(cell["kernel"]))
            restored = push_forward(run.instance.degraded, K)
            replayed = error_rate(restored, run.instance.classifier)
            reported = float(csv_rows[(cell["mode"], cell["D"], cell["P"])]["value"])
            assert replayed == pytest.approx(reported, abs=1e-10)
            checked += 1
        assert checked >= 4

    def test_stdout_when_out_is_dash(self, tmp_path, capsys):
        cfg = write_config(tmp_path, {"d_grid": [0.2], "p_grid": [0.2], "mode": "cdp"})
        assert main(["sweep", "--config", cfg, "--out", "-"]) == EXIT_OK
        captured = capsys.readouterr()
        assert captured.out.startswith("mode,D,P,value")


class TestAudit:
    def test_audit_passes_and_reports(self, tmp_path):
        cfg = write_config(tmp_path)
        out = tmp_path / "report.json"
        code = main(["audit", "--config", cfg, "--trials", "30", "--out", str(out)])
        assert code == EXIT_OK
        report = json.loads(out.read_text())
        assert report["passed"] is True
        assert report["seed"] == 42
        names = {r["name"] for r in report["results"]}
        assert len(names) >= 5
        for r in report["results"]:
            assert set(r) >= {"name", "passed", "trials", "worst", "tolerance"}

    def test_seed_flag_overrides_config(self, tmp_path):
        cfg = write_config(tmp_path)
        out = tmp_path / "report.json"
        main(["audit", "--config", cfg, "--seed", "7", "--trials", "10", "--out", str(out)])
        assert json.loads(out.read_text())["seed"] == 7


BINARY_BREAK = {
    "source": {"prior1": 0.57, "class1": [0.52, 0.48], "class2": [0.99, 0.01]},
    "degrade": {"type": "rows", "rows": [[0.24, 0.76], [0.75, 0.25]]},
    "d_grid": [0.4, 0.45, 0.5],
    "p_grid": [0.02],
}


class TestProbe:
    def test_schema_and_exit(self, tmp_path):
        cfg = write_config(tmp_path, {"d_grid": [0.1, 0.2, 0.3], "p_grid": [0.2]})
        out = tmp_path / "probe.json"
        assert main(["probe-scdp-convexity", "--config", cfg, "--out", str(out)]) == EXIT_OK
        payload = json.loads(out.read_text())
        assert set(payload) >= {"grid", "cells", "violations", "max_violation", "max_gap"}
        assert payload["grid"] == {"D": [0.1, 0.2, 0.3], "P": [0.2]}
        # Total variation is solved exactly: no gap above the region stop rule's.
        assert 0.0 <= payload["max_gap"] <= 1e-12

    def test_single_point_grid_has_no_triples(self, tmp_path):
        cfg = write_config(tmp_path, {"d_grid": [0.2], "p_grid": [0.2]})
        out = tmp_path / "probe.json"
        assert main(["probe-scdp-convexity", "--config", cfg, "--out", str(out)]) == EXIT_OK
        payload = json.loads(out.read_text())
        assert payload["violations"] == []
        assert payload["max_violation"] == 0.0

    def test_reports_the_binary_convexity_break(self, tmp_path):
        # C_S is 0.43, 0.43 and ~0.41566 at D = 0.40, 0.45 and 0.50: the
        # midpoint sits ~7.17e-3 above the chord.
        cfg = write_config(tmp_path, BINARY_BREAK)
        out = tmp_path / "probe.json"
        assert main(["probe-scdp-convexity", "--config", cfg, "--out", str(out)]) == EXIT_OK
        payload = json.loads(out.read_text())
        [violation] = payload["violations"]
        assert (violation["d_lo"], violation["d_mid"], violation["d_hi"], violation["P"]) == (0.4, 0.45, 0.5, 0.02)
        assert violation["excess"] == pytest.approx(7.17e-3, abs=1e-5)
        assert payload["max_violation"] == pytest.approx(violation["excess_beyond_gap"])
        # The exhaustive lattice confirms it independently of the solver: the
        # midpoint's lattice value less its slack is a lower bound on C_S
        # there, and the outer lattice values are upper bounds.
        prob = load_config(cfg).instance
        lo, mid, hi = (grid_search_scdp(prob, d, 0.02, step=0.001) for d in (0.4, 0.45, 0.5))
        certified = mid.value - mid.lipschitz_slack - 0.5 * (lo.value + hi.value)
        assert certified == pytest.approx(6.2e-3, abs=1e-4)

    def test_runs_on_four_symbol_configs(self, tmp_path):
        # Any lattice step fine enough to say anything overruns the oracle's
        # kernel cap at this size; the solver has no such cap.
        four = {
            "source": {"prior1": 0.4, "class1": [0.4, 0.3, 0.2, 0.1], "class2": [0.1, 0.2, 0.3, 0.4]},
            "degrade": {"type": "identity"},
            "d_grid": [0.1, 0.2, 0.3],
            "p_grid": [0.05, 0.2],
        }
        cfg = write_config(tmp_path, four)
        out = tmp_path / "probe.json"
        assert main(["probe-scdp-convexity", "--config", cfg, "--out", str(out)]) == EXIT_OK
        payload = json.loads(out.read_text())
        assert len(payload["cells"]) == 6
        assert all(cell["value"] is not None for cell in payload["cells"])


class TestDeterminism:
    def test_sweep_outputs_byte_identical(self, tmp_path):
        cfg = write_config(tmp_path)
        a, b = tmp_path / "a.csv", tmp_path / "b.csv"
        main(["sweep", "--config", cfg, "--out", str(a)])
        main(["sweep", "--config", cfg, "--out", str(b)])
        assert a.read_bytes() == b.read_bytes()

    def test_audit_outputs_byte_identical(self, tmp_path):
        cfg = write_config(tmp_path)
        a, b = tmp_path / "a.json", tmp_path / "b.json"
        main(["audit", "--config", cfg, "--trials", "20", "--out", str(a)])
        main(["audit", "--config", cfg, "--trials", "20", "--out", str(b)])
        assert a.read_bytes() == b.read_bytes()


class TestFrozenCliOutputs:
    """SHA-256 of each output file the subcommands write, pinned to the byte.

    The CSV prints every float in shortest round-trip form and the JSON
    outputs in ``repr`` precision, so a change in the cell walk, the
    formatting or the probe's arithmetic that moves one bit changes a digest.
    """

    DIGESTS = {
        ("canonical", "csv"): "c1aa112d866ffc277dda471ed69e8f5c74a2d9f4fadde98e3a3f3f3deec00bfc",
        ("canonical", "kernels"): "1a1ced94eb431f4623887a1d6535bc242e0c8731c1feb9e18ad9c24b42a2f786",
        ("canonical", "probe"): "93b135189c8c41ded11c8120b5a5ba53b1ef7349f47ae819e004f60356858a53",
        ("binary_break", "csv"): "3c68be6d96e1bc57e3daae7cbabe76dff320290aa3ab836d41ee05f2c5db5e3d",
        ("binary_break", "kernels"): "f776714c4568179a33f33481c86341a268f6038b96b9e60f87af284fc1cae05a",
        ("binary_break", "probe"): "74a102488f4210d5bef159b8437223405adffab3d9ab9953c081810c176ad3f0",
    }

    @pytest.mark.parametrize("config", ["canonical", "binary_break"])
    def test_output_bytes_are_unchanged(self, tmp_path, config):
        cfg = str(FIXTURE_DIR / "canonical.json") if config == "canonical" else write_config(tmp_path, BINARY_BREAK)
        out = {name: tmp_path / name for name in ("csv", "kernels", "probe")}
        argv = ["sweep", "--config", cfg, "--out", str(out["csv"]), "--dump-kernels", str(out["kernels"])]
        assert main(argv) == EXIT_OK
        assert main(["probe-scdp-convexity", "--config", cfg, "--out", str(out["probe"])]) == EXIT_OK
        digests = {name: hashlib.sha256(path.read_bytes()).hexdigest() for name, path in out.items()}
        assert digests == {name: self.DIGESTS[config, name] for name in out}
