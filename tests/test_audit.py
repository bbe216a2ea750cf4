"""Randomized property suites and their constructions."""

import hashlib
import json
import math

import numpy as np
import pytest

from cdptradeoff import (
    Alphabet,
    DecisionRegion,
    DivergenceKind,
    MixtureSource,
    ProbVector,
    audit,
    bayes_error,
    bayes_error_tv_form,
    divergence,
    dpi_equality_holds,
    error_rate,
    mix_mixtures,
    push_forward,
    region_partition,
)
from cdptradeoff.audit import (
    ALL_SUITES,
    STRUCTURED_TRIALS,
    SURFACE_TRIALS,
    AuditReport,
    bridging_pair,
    check_bayes_concavity,
    check_cdp_surface,
    check_closed_forms,
    check_data_processing,
    check_divergence_convexity,
    check_distortion_linearity,
    check_error_linearity,
    check_scdp_surface,
    equality_channel,
    midpoint_excess,
    random_channel,
    random_mass,
    random_mixture,
    run_audit,
)


class TestGenerators:
    @pytest.mark.parametrize("seed", [0, 1, 42, 2**40 + 3])
    def test_random_mass_is_an_all_ones_dirichlet_to_the_byte(self, seed):
        # ``Generator.dirichlet`` is the reference the exponential sampler
        # replaces: same bytes, and the generator left in the same state.
        for n in range(1, 13):
            for rows in (None, *range(1, 8)):
                ours, ref = np.random.default_rng([seed, n]), np.random.default_rng([seed, n])
                got = random_mass(ours, n, rows)
                want = ref.dirichlet(np.ones(n), size=rows)
                assert got.shape == want.shape
                assert got.tobytes() == want.tobytes(), (n, rows)
                assert ours.random() == ref.random()

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

    @pytest.mark.parametrize(
        "violations",
        [[math.nan] * 5, [0.0, math.nan, 1e-20, 0.5, 0.0], [2e-12, 1e-9, math.nan, 0.0, 0.0]],
    )
    def test_a_nan_violation_fails_its_suite(self, violations):
        # ``max(worst, v)`` alone never takes a NaN in, so these once passed.
        @audit._suite("probe", 1e-12, "yields the listed violations", 5)
        def probe(rng, trials):
            yield from violations[:trials]

        res = probe(np.random.default_rng(0))
        assert not res.passed
        assert math.isnan(res.worst)
        assert res.trials == 5

    @pytest.mark.parametrize(
        "suite, name",
        [
            (check_error_linearity, "error_rate"),
            (check_bayes_concavity, "bayes_error"),
            (check_closed_forms, "bayes_error_tv_form"),
            (check_data_processing, "push_forward"),
            (check_divergence_convexity, "divergence"),
            (check_distortion_linearity, "expected_distortion"),
        ],
    )
    def test_replay_catches_a_library_function_one_part_in_1e15_off(self, monkeypatch, suite, name):
        # The stacked arithmetic does not call the library; the replayed
        # trials do, so a library function that drifts must fail the suite.
        original = getattr(audit, name)
        if name == "push_forward":

            def drifted(src, ch):
                out = original(src, ch)
                return MixtureSource(out.alphabet, out.prior1 + 1e-15, out.prior2, out.class1, out.class2)

        else:

            def drifted(*args):
                return original(*args) + 1e-15

        assert suite(np.random.default_rng(3), 200).passed
        monkeypatch.setattr(audit, name, drifted)
        res = suite(np.random.default_rng(3), 200)
        assert not res.passed
        assert res.worst >= 1.0

    def test_result_dict_round_trips(self):
        res = check_closed_forms(np.random.default_rng(3), trials=10)
        d = res.to_dict()
        assert set(d) >= {"name", "passed", "trials", "worst", "tolerance"}


def _masses_with_zeros(rng, shape):
    """Rows of ``shape[-1]`` masses, about a third of their entries exactly 0, each row summing to 1 within drift."""
    x = rng.standard_exponential(shape) * (rng.random(shape) < 0.65)
    x[..., 0] += x.sum(axis=-1) == 0.0
    return x / x.sum(axis=-1, keepdims=True)


class TestStackedArithmetic:
    """Each stacked formula the suites use against its public one-row function, to the byte.

    Rows of 1 to 12 symbols cover NumPy's pairwise summation from 8 entries
    on; zero entries and random masks cover the masked sums and the
    infinite divergences.
    """

    ROWS = 200

    @staticmethod
    def _same(stacked, one_row):
        return np.asarray(stacked, dtype=float).tobytes() == np.array(one_row, dtype=float).tobytes()

    @pytest.mark.parametrize("n", range(1, 13))
    def test_mixture_formulas(self, n):
        rng = np.random.default_rng([17, n])
        prior1 = rng.uniform(0.05, 0.95, self.ROWS)
        raw = _masses_with_zeros(rng, (self.ROWS, 4, n))
        lam = rng.uniform(size=self.ROWS)
        inside = rng.random((self.ROWS, n)) < 0.5
        # The suites carry masses unscaled, as drawn, and scale them on the stack.
        p1, p2, c, q1, q2, b = audit._blended_pair(prior1, raw, lam)
        masses = audit._simplex(raw)
        pairs = [
            (audit._mixture(prior1[i], *masses[i, :2]), audit._mixture(prior1[i], *masses[i, 2:]))
            for i in range(self.ROWS)
        ]
        blends = [mix_mixtures(u, v, lam[i]) for i, (u, v) in enumerate(pairs)]
        regions = [DecisionRegion(Alphabet(n), inside[i]) for i in range(self.ROWS)]
        assert self._same(c[:, 2:], [np.stack([v.class1.mass, v.class2.mass]) for _, v in pairs])
        assert self._same(b, [np.stack([w.class1.mass, w.class2.mass]) for w in blends])
        assert self._same(np.stack([p1, p2]), [[u.prior1 for u, _ in pairs], [u.prior2 for u, _ in pairs]])
        assert self._same(np.stack([q1, q2]), [[w.prior1 for w in blends], [w.prior2 for w in blends]])
        assert self._same(audit._stacked_bayes_error(q1, q2, b), [bayes_error(w) for w in blends])
        tv_form = audit._stacked_bayes_error_tv_form(p1, p2, c[:, :2])
        assert self._same(tv_form, [bayes_error_tv_form(u) for u, _ in pairs])
        rates = audit._stacked_error_rate(p1, p2, c[:, 2:], inside)
        assert self._same(rates, [error_rate(v, r) for (_, v), r in zip(pairs, regions)])

    @pytest.mark.parametrize("n", range(1, 13))
    def test_masked_sum(self, n):
        rng = np.random.default_rng([19, n])
        values = rng.standard_exponential((self.ROWS, n)) * 10.0 ** rng.integers(-12, 12, (self.ROWS, n))
        mask = rng.random((self.ROWS, n)) < rng.random((self.ROWS, 1))
        assert self._same(audit._masked_sum(values, mask), [np.add.reduce(v[m]) for v, m in zip(values, mask)])

    @pytest.mark.parametrize("n", range(1, 13))
    @pytest.mark.parametrize(
        "kind",
        [
            DivergenceKind.total_variation(),
            DivergenceKind.kullback_leibler(),
            DivergenceKind.hellinger(),
            DivergenceKind.renyi(0.5),
            DivergenceKind.renyi(2.0),
            DivergenceKind.renyi(7.5),
        ],
        ids=lambda kind: f"{kind.name}{kind.alpha or ''}",
    )
    def test_divergences(self, n, kind):
        rng = np.random.default_rng([23, n])
        raw = _masses_with_zeros(rng, (self.ROWS, 2, n))
        m = audit._clean(raw)
        one_row = [divergence(kind, ProbVector(Alphabet(n), p), ProbVector(Alphabet(n), q)) for p, q in raw]
        assert self._same(audit._stacked_divergence(kind, m[:, 0], m[:, 1]), one_row)


class TestRunAudit:
    def test_full_report_structure(self):
        report = run_audit(seed=11, trials=25)
        assert isinstance(report, AuditReport)
        assert report.passed
        assert len(report.results) == len(ALL_SUITES)
        names = [r.name for r in report.results]
        assert len(set(names)) == len(names)

    @pytest.mark.parametrize("trials", [0, -3])
    def test_suites_without_trials_rejected(self, trials):
        with pytest.raises(ValueError, match="at least 1"):
            run_audit(seed=1, trials=trials)

    def test_trial_counts_follow_the_module_constants(self):
        report = run_audit(seed=3, trials=5)
        counts = {r.name: r.trials for r in report.results}
        assert counts.pop("cdp_surface_monotone_convex") == SURFACE_TRIALS
        assert counts.pop("scdp_surface_monotone") == SURFACE_TRIALS
        assert counts.pop("bayes_error_data_processing") == 5 + 2 * STRUCTURED_TRIALS
        assert set(counts.values()) == {5}
        assert check_data_processing(np.random.default_rng(4), 7).trials == 7 + 2 * STRUCTURED_TRIALS

    def test_reports_are_reproducible(self):
        a = run_audit(seed=5, trials=25).to_dict()
        b = run_audit(seed=5, trials=25).to_dict()
        assert a == b

    def test_different_seeds_draw_different_instances(self):
        a = run_audit(seed=5, trials=25).to_dict()
        b = run_audit(seed=6, trials=25).to_dict()
        worst_a = [r["worst"] for r in a["results"]]
        worst_b = [r["worst"] for r in b["results"]]
        assert worst_a != worst_b


class TestFrozenAuditOutputs:
    """SHA-256 of ``json.dumps(run_audit(seed, trials=200).to_dict())``, pinned to the byte.

    Every suite's ``worst`` is printed with ``repr`` precision, so a change in
    any constructor, reduction or suite that moves one bit of one result
    changes the digest.
    """

    DIGESTS = {
        0: "3e6de9f55c20d348e8a8ebaf7fedd12d5a973005c4e0621678bb8fcffbb4aefb",
        1: "db79694c01958621b6898213893353aeed49f8bc3b7e341fe25cf31f1075cf36",
    }

    @pytest.mark.parametrize("seed", sorted(DIGESTS))
    def test_report_bytes_are_unchanged(self, seed):
        payload = json.dumps(run_audit(seed, trials=200).to_dict())
        assert hashlib.sha256(payload.encode()).hexdigest() == self.DIGESTS[seed]


class TestFrozenTrialViolations:
    """SHA-256 over every violation each suite yields, at ``run_audit``'s seeding and 200 trials.

    ``TestFrozenAuditOutputs`` pins each suite's worst violation only, so a
    change that moves any other trial would pass it; this pins them all.
    """

    DIGESTS = {
        0: "1d1c42ffc5bd766d9005aa7927ca5a15070c0b367f027f558c3748d268734aac",
        1: "553b28fe48d978b0d42a29ec02fa42daa7d650ad83ff8930eba35a8e0fd05899",
    }

    @pytest.mark.parametrize("seed", sorted(DIGESTS))
    def test_every_trial_is_unchanged(self, seed):
        h = hashlib.sha256()
        for index, suite in enumerate(ALL_SUITES):
            trials = SURFACE_TRIALS if suite in (check_cdp_surface, check_scdp_surface) else 200
            violations = suite.__wrapped__(np.random.default_rng([seed, index]), trials)
            h.update(suite.__name__.encode())
            h.update(np.array(list(violations), dtype="<f8").tobytes())
        assert h.hexdigest() == self.DIGESTS[seed]


class TestFrozenChunkBoundaries:
    """Each scalar suite's violation digest over 2,500 trials of seed 0, hashed as ``TestFrozenTrialViolations`` does.

    Two and a half chunks of ``CHUNK_TRIALS``: a trial drawn or evaluated in
    the wrong chunk, or a chunk cut in the wrong place, moves the digest.
    """

    DIGESTS = {
        "check_error_linearity": "0838eeea5f47573075dcb7efbb0dbbebf1b0e41030b2ff35c48b436cb83fa324",
        "check_bayes_concavity": "3c7b59b20800fe0aa4f199e5498ee7d8d86ae70eb1efe837cbcb6700435947aa",
        "check_closed_forms": "f65933cd4d92005bba63e0666173e078694e30fe0060820350654f0f29e628bb",
        "check_data_processing": "d57655ae6ff048a26e09c3554406e5ddb82406409d15617f7ab589e010bf9e1e",
        "check_divergence_convexity": "e4e675da2a4e1fefb3403b253971ba018ea162b55f3618ef54eb13ab1d56c6f7",
        "check_distortion_linearity": "dacef29bd6559e9e76965aa174da6f2c734dc5c664349a28b4f9873810a1347f",
    }

    @pytest.mark.parametrize("index", range(6))
    def test_every_trial_of_2500_is_unchanged(self, index):
        suite = ALL_SUITES[index]
        violations = suite.__wrapped__(np.random.default_rng([0, index]), 2500)
        h = hashlib.sha256()
        h.update(suite.__name__.encode())
        h.update(np.array(list(violations), dtype="<f8").tobytes())
        assert h.hexdigest() == self.DIGESTS[suite.__name__]
