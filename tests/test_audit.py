"""Randomized property suites and their constructions."""

import numpy as np
import pytest

from cdptradeoff import bayes_error, dpi_equality_holds, push_forward, region_partition
from cdptradeoff.audit import (
    ALL_SUITES,
    AuditReport,
    bridging_pair,
    check_bayes_concavity,
    check_closed_forms,
    check_data_processing,
    check_error_linearity,
    check_scdp_surface,
    equality_channel,
    midpoint_excess,
    random_channel,
    random_mixture,
    run_audit,
)


class TestGenerators:
    def test_random_mixture_is_valid(self, rng):
        for _ in range(50):
            src = random_mixture(rng)
            assert 2 <= src.alphabet.size <= 6
            assert src.prior1 + src.prior2 == pytest.approx(1.0, abs=1e-12)
            assert src.marginal.mass.sum() == pytest.approx(1.0, abs=1e-12)

    def test_random_channel_rows_stochastic(self, rng):
        for _ in range(20):
            ch = random_channel(rng, 4)
            np.testing.assert_allclose(ch.matrix.sum(axis=1), 1.0, atol=1e-12)

    def test_equality_channel_preserves_bayes_error(self, rng):
        for _ in range(60):
            src = random_mixture(rng)
            ch = equality_channel(rng, src)
            assert dpi_equality_holds(src, ch)
            gap = bayes_error(push_forward(src, ch)) - bayes_error(src)
            assert abs(gap) <= 1e-12

    def test_bridging_pair_margins_and_gap(self, rng):
        for _ in range(60):
            src, ch = bridging_pair(rng)
            parts = region_partition(src)
            diff = src.prior1 * src.class1.mass - src.prior2 * src.class2.mass
            # Symbols 0 and 1 sit strictly on opposite sides with real margin.
            assert diff[0] >= 0.1 - 1e-12
            assert -diff[1] >= 0.1 - 1e-12
            assert parts.plus.members[0] and parts.minus.members[1]
            assert not dpi_equality_holds(src, ch)
            gap = bayes_error(push_forward(src, ch)) - bayes_error(src)
            assert gap > 1e-9


class TestSuites:
    def test_individual_suites_pass(self, rng):
        for check in (check_error_linearity, check_bayes_concavity, check_closed_forms):
            res = check(np.random.default_rng(7), trials=100)
            assert res.passed, res.detail
            assert res.trials == 100
            assert res.worst <= res.tolerance

    def test_data_processing_counts_structured_trials(self):
        res = check_data_processing(np.random.default_rng(7), trials=100)
        assert res.passed
        # 100 random pairs plus 50 equality plus 50 bridging constructions.
        assert res.trials == 200

    def test_strong_surface_monotone_on_regression_key(self):
        # On this key the strong surface once rose with the budget by 0.0117.
        res = check_scdp_surface(np.random.default_rng([18, 2, 7]), 4)
        assert res.passed, res.worst

    def test_midpoint_excess_matches_a_triple_by_triple_scan(self, rng):
        # Uneven D spacing and NaN cells both leave an entry NaN; every other
        # entry is the same arithmetic as the scan, so it must agree exactly.
        d_grid = (0.1, 0.2, 0.3, 0.5, 0.7, 0.9)
        values = rng.uniform(size=(len(d_grid), 3))
        values[3, 1] = np.nan
        got = midpoint_excess(d_grid, values)
        assert got.shape == (len(d_grid) - 2, 3)
        for i in range(len(d_grid) - 2):
            for j in range(3):
                trio = values[i : i + 3, j]
                if np.isnan(trio).any() or abs((d_grid[i] + d_grid[i + 2]) / 2.0 - d_grid[i + 1]) > 1e-12:
                    assert np.isnan(got[i, j])
                else:
                    assert got[i, j] == trio[1] - 0.5 * (trio[0] + trio[2])
        assert np.isnan(got[1]).all()  # 0.2, 0.3, 0.5 is not evenly spaced
        assert (~np.isnan(got)).sum() == 7
        assert midpoint_excess((0.1, 0.2), values[:2]).shape == (0, 3)

    def test_result_dict_round_trips(self):
        res = check_closed_forms(np.random.default_rng(3), trials=10)
        d = res.to_dict()
        assert set(d) >= {"name", "passed", "trials", "worst", "tolerance"}


class TestRunAudit:
    def test_full_report_structure(self):
        report = run_audit(seed=11, trials=25, surface_trials=1)
        assert isinstance(report, AuditReport)
        assert report.passed
        assert len(report.results) == len(ALL_SUITES)
        names = [r.name for r in report.results]
        assert len(set(names)) == len(names)

    @pytest.mark.parametrize("trials, surface_trials", [(0, 1), (-3, 1), (25, 0)])
    def test_suites_without_trials_rejected(self, trials, surface_trials):
        with pytest.raises(ValueError, match="at least 1"):
            run_audit(seed=1, trials=trials, surface_trials=surface_trials)

    def test_reports_are_reproducible(self):
        a = run_audit(seed=5, trials=25, surface_trials=1).to_dict()
        b = run_audit(seed=5, trials=25, surface_trials=1).to_dict()
        assert a == b

    def test_different_seeds_draw_different_instances(self):
        a = run_audit(seed=5, trials=25, surface_trials=1).to_dict()
        b = run_audit(seed=6, trials=25, surface_trials=1).to_dict()
        worst_a = [r["worst"] for r in a["results"]]
        worst_b = [r["worst"] for r in b["results"]]
        assert worst_a != worst_b
