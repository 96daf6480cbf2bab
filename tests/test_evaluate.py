import tracemalloc

import numpy as np
import pytest

import robusttrack as rt
import robusttrack.evaluate as evaluate
from robusttrack.evaluate import draw_scenarios, write_table_csv, write_table_json

from conftest import (DRAW_SIZES, FULL5, MU5, SIGMA5, make_scenarios, market_model,
                      peak_arrays, replicable_panel)
from eager_reference import frozen_draw_scenarios

QUAD = rt.LossSpec.quadratic()
L1 = rt.LossSpec.smoothed_pos_sq(0.01)


class TestTrackingError:
    def test_zero_on_perfect_replication(self):
        r = 0.02 * np.random.default_rng(0).standard_normal((50, 2))
        w = np.array([0.4, 0.6])
        scen = rt.scenarios_from(r, r @ w)
        assert np.allclose(rt.tracking_error(w, scen), 0.0)

    def test_hand_value(self):
        scen = rt.ScenarioSet(R=np.array([[1.03]]), B=np.array([1.01]))
        assert rt.tracking_error(np.array([1.0]), scen) == pytest.approx([4e-4])

    def test_smoothed_variant_is_spec_loss(self):
        scen = rt.ScenarioSet(R=np.array([[1.00]]), B=np.array([1.02]))
        got = rt.tracking_error(np.array([1.0]), scen, L1)
        assert got[0] == pytest.approx(rt.loss_value(L1, 0.02), rel=1e-12)


class TestExcessIndex:
    # the excess over the index, u'R - B, reaches the reports as compare's
    # EEI (its mean over scenarios); a one-scenario set reads it per scenario
    def test_perfect_replication_zero(self):
        r = 0.02 * np.random.default_rng(1).standard_normal((20, 2))
        w = np.array([0.7, 0.3])
        b = r @ w
        eei = [rt.compare(w, w, rt.ScenarioSet(R=r[[i]], B=b[[i]]), QUAD).eei_robust
               for i in range(len(b))]
        assert np.allclose(eei, 0.0)

    def test_sign_convention(self):
        # portfolio below the index -> negative excess
        one = np.array([1.0])
        scen = rt.ScenarioSet(R=np.array([[1.00]]), B=np.array([1.02]))
        assert rt.compare(one, one, scen, QUAD).eei_robust == pytest.approx(-0.02)
        scen2 = rt.ScenarioSet(R=np.array([[1.03]]), B=np.array([1.01]))
        assert rt.compare(one, one, scen2, QUAD).eei_robust == pytest.approx(0.02)


class TestCompare:
    def test_identical_portfolios(self):
        scen = make_scenarios(n=500, seed=2)
        u = np.full(4, 0.25)
        rep = rt.compare(u, u, scen, QUAD)
        assert rep.bt_percent == 100.0
        assert rep.ete_diff == 0.0 and rep.eei_diff == 0.0

    def test_three_scenario_enumeration(self):
        # raw one-sided losses known by hand:
        # row0: both portfolios beat the index (tie at zero)
        # row1: robust loses by 0.01, nonrobust loses by 0.02 -> robust wins
        # row2: robust loses by 0.03, nonrobust by 0.01 -> robust loses
        R = np.array([[1.05, 1.03],
                      [1.01, 1.00],
                      [1.00, 1.02]])
        B = np.array([1.00, 1.02, 1.03])
        scen = rt.ScenarioSet(R=R, B=B)
        u_rob = np.array([1.0, 0.0])
        u_non = np.array([0.0, 1.0])
        rep = rt.compare(u_rob, u_non, scen, L1)
        assert rep.tie_count == 1
        assert rep.bt_percent == pytest.approx(100.0 * 2 / 3)
        assert rep.bt_percent_excl_ties == pytest.approx(100.0 * 1 / 2)
        assert rep.n - rep.tie_count == 2

    def test_all_ties_include_vs_exclude(self):
        # identical columns: every budget portfolio replicates the index
        scen = rt.ScenarioSet(R=np.array([[1.01, 1.01], [0.99, 0.99]]),
                              B=np.array([1.01, 0.99]))
        u1 = np.array([0.3, 0.7])
        u2 = np.array([0.8, 0.2])
        rep = rt.compare(u1, u2, scen, L1)
        assert rep.bt_percent == 100.0
        assert np.isnan(rep.bt_percent_excl_ties)

    def test_weight_shape_checked_before_broadcast(self):
        # a (d, 1) weight array must be rejected before B - R u broadcasts
        # to N x N arrays (over 300 MB of them at this size)
        scen = make_scenarios(n=3000, seed=5)
        u = np.full((4, 1), 0.25)
        tracemalloc.start()
        try:
            with pytest.raises(ValueError, match="weight dimension"):
                rt.compare(u, u, scen, QUAD)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 2**22

    def test_quadratic_uses_squared_loss(self):
        scen = rt.ScenarioSet(R=np.array([[1.00, 1.04]]), B=np.array([1.02]))
        rep = rt.compare(np.array([1.0, 0.0]), np.array([0.0, 1.0]), scen, QUAD)
        # same |deviation| either side -> tie under the quadratic raw loss
        assert rep.bt_percent == 100.0


class TestDrawScenarios:
    @pytest.mark.parametrize("tracked", [[0, 1, 2, 3], [3, 0, 2], [4]])
    @pytest.mark.parametrize("kind", ["gaussian", "student_t"])
    def test_bits_of_the_gathered_set(self, composition5, tracked, kind):
        model = (rt.NominalModel.gaussian(MU5, SIGMA5) if kind == "gaussian"
                 else rt.NominalModel.student_t(MU5, SIGMA5, dof=10.0))
        draws = rt.sample_model(model, 3000, 4)
        ref = rt.scenarios_from(draws[:, tracked], rt.synthesize_index(draws, composition5))
        got = draw_scenarios(model, composition5, tracked, 3000, 4)
        assert got.R.flags.f_contiguous
        assert got.R.tobytes(order="F") == ref.R.tobytes(order="F")
        assert got.B.tobytes() == ref.B.tobytes()

    @pytest.mark.parametrize("n", DRAW_SIZES)
    @pytest.mark.parametrize("kind", ["gaussian", "student_t"])
    def test_bits_of_the_frozen_builder(self, composition5, kind, n):
        model = market_model(kind, FULL5)
        for seed in (4, 151):
            ref = frozen_draw_scenarios(model, composition5, range(5), n, seed)
            for tracked in ([0, 1, 2, 3], [3, 0, 2], [4]):
                got = draw_scenarios(model, composition5, tracked, n, seed)
                assert got.R.flags.f_contiguous
                assert (got.R.tobytes(order="F")
                        == ref.R[:, tracked].tobytes(order="F")), (seed, tracked)
                assert got.B.tobytes() == ref.B.tobytes(), (seed, tracked)

    def test_no_gathered_copy(self, gaussian5, composition5):
        # 6.4 arrays of n floats: the set's four columns and B, and one block
        # each of normals and of draws (8,193 rows of 5, 0.63 each), plus
        # numpy's buffers; 10.0 while the set was read from the n x d draws
        # (the sampler's five columns and their normal deviates), and 15.5
        # while the tracked columns were gathered and then copied
        n = 2 ** 16
        assert peak_arrays(lambda: draw_scenarios(
            gaussian5, composition5, [0, 1, 2, 3], n, 3), n) <= 6.4


class TestRunTable:
    def grid(self):
        return [rt.RowConfig(lam=0.1, eta=0.3, sign="-")]

    def test_smoke_structure(self, gaussian5, composition5):
        rows = rt.run_table(gaussian5, composition5, [0, 1, 2, 3], self.grid(),
                            QUAD, n=3000, seed=5)
        assert len(rows) == 1
        row = rows[0]
        assert row.converged and row.report is not None
        assert row.k == pytest.approx(
            rt.k_from_eta(0.3, 0.1, MU5, SIGMA5, "-"), abs=1e-12)
        assert 0.0 <= row.report.bt_percent <= 100.0

    def test_reproducible_outputs(self, gaussian5, composition5, tmp_path):
        args = dict(nominal=gaussian5, composition=composition5,
                    tracked_assets=[0, 1, 2, 3], grid=self.grid(),
                    spec=QUAD, n=2000, seed=9)
        rows1 = rt.run_table(**args)
        rows2 = rt.run_table(**args)
        p1, p2 = tmp_path / "a.csv", tmp_path / "b.csv"
        write_table_csv(rows1, p1)
        write_table_csv(rows2, p2)
        assert p1.read_bytes() == p2.read_bytes()
        write_table_json(rows1, tmp_path / "a.json")
        assert (tmp_path / "a.json").read_bytes().startswith(b"[")

    def test_unit_mean_factor_collapses_ball(self, composition5):
        mvt = rt.NominalModel.student_t(MU5, SIGMA5, dof=10.0)
        rows = rt.run_table(mvt, composition5, [0, 1, 2, 3],
                            [rt.RowConfig(lam=0.1, k=1.0)], L1,
                            n=4000, seed=3)
        row = rows[0]
        assert row.eta == 0.0
        assert abs(row.report.ete_diff) < 1e-7   # portfolios agree up to noise

    def test_eta_row_requires_gaussian(self, composition5):
        mvt = rt.NominalModel.student_t(MU5, SIGMA5, dof=10.0)
        with pytest.raises(ValueError, match="gaussian"):
            rt.run_table(mvt, composition5, [0, 1, 2, 3], self.grid(), QUAD,
                         n=2000, seed=1)

    def test_gaussian_k_rows(self, gaussian5, composition5):
        # k = 1 is the collapsed ball; any other k of a Gaussian nominal has
        # the equal-covariance closed-form radius, which k_from_eta inverts
        rows = rt.run_table(gaussian5, composition5, [0, 1, 2, 3],
                            [rt.RowConfig(lam=0.1, k=k) for k in (1.0, -2.0)], QUAD,
                            n=2000, seed=4)
        assert all(row.converged for row in rows)
        assert [row.k for row in rows] == [1.0, -2.0]
        assert rows[0].eta == 0.0
        eta = rt.divergence_gaussian_equal_cov(MU5, -2 * MU5, SIGMA5, 0.1)
        assert rows[1].eta == eta and rows[1].eta_std_error == 0.0
        assert rt.k_from_eta(eta, 0.1, MU5, SIGMA5, "-") == pytest.approx(-2.0, abs=1e-10)

    def test_mc_radius_for_student_t(self, composition5):
        mvt = rt.NominalModel.student_t(MU5, SIGMA5, dof=10.0)
        rows = rt.run_table(mvt, composition5, [0, 1, 2, 3],
                            [rt.RowConfig(lam=0.1, k=-2.0)], L1,
                            n=4000, seed=3, n_ratio=50_000)
        assert rows[0].eta > 0 and rows[0].eta_std_error > 0

    def test_one_scenario_set_alive(self, gaussian5, composition5):
        # a row's solves run with only its fit set alive, its evaluation set
        # lives only until compare has its two shortfalls, and the robust
        # solution's E* goes before that set is drawn: at N = 2^16 the three
        # rows peak at 11.0 arrays of N floats, in a robust solve (13.3 while
        # a solve peaked at 8 and compare kept the set and the raw losses
        # alive; 17.0 while E* lived to the next row's solves and each draw
        # gathered the tracked columns)
        n = 2 ** 16
        grid = [rt.RowConfig(lam=0.1, eta=eta) for eta in (0.1, 0.5, 1.0)]
        rows = []
        peak = peak_arrays(lambda: rows.extend(rt.run_table(
            gaussian5, composition5, [0, 1, 2, 3], grid, L1, n=n, seed=7)), n)
        assert all(row.converged for row in rows)
        assert peak <= 11.1

    @pytest.mark.parametrize("tracked,calls", [([0, 1, 2, 3], 2), ([0, 0, 1, 2, 3], 0)],
                             ids=["converged", "failed"])
    def test_compare_gets_the_rows_evaluation_set(self, gaussian5, composition5,
                                                  monkeypatch, tracked, calls):
        # the benchmark's table check hooks evaluate.compare on the module and
        # recomputes BT and ETE from its third argument, so each converged row
        # calls it once, with that row's evaluation set, and a failed row not
        seen = []
        compare = evaluate.compare

        def recording(*args, **kwargs):
            seen.append((args, kwargs))
            return compare(*args, **kwargs)

        monkeypatch.setattr(evaluate, "compare", recording)
        grid = [rt.RowConfig(lam=0.1, eta=0.3), rt.RowConfig(lam=0.1, k=-2.0)]
        rows = rt.run_table(gaussian5, composition5, tracked, grid, L1, n=2000, seed=5)
        assert len(seen) == calls == sum(row.converged for row in rows)
        for row, (args, kwargs) in zip(rows, seen):
            assert len(args) == 4 and not kwargs
            scen = args[2]
            ref = draw_scenarios(gaussian5.with_mean_scaled(row.k), composition5,
                                 tracked, 2000, row.seed_eval)
            assert isinstance(scen, rt.ScenarioSet)
            assert scen.R.tobytes(order="F") == ref.R.tobytes(order="F")
            assert scen.B.tobytes() == ref.B.tobytes()
            assert compare(*args) == row.report

    def test_nonrobust_failure_is_recorded_on_the_row(self, gaussian5, composition5):
        # asset 0 tracked twice: the non-robust fit's KKT system is singular,
        # and the row records the message as a robust failure's is
        rows = rt.run_table(gaussian5, composition5, [0, 0, 1, 2, 3], self.grid(),
                            QUAD, n=2000, seed=5)
        assert not rows[0].converged
        assert rows[0].solver_message == "singular tracking KKT system"

    def test_row_config_validation(self):
        with pytest.raises(ValueError):
            rt.RowConfig(lam=0.1)
        with pytest.raises(ValueError):
            rt.RowConfig(lam=0.1, eta=0.5, k=2.0)
        for bad in ({"lam": float("nan"), "eta": 0.5}, {"lam": -0.1, "k": 2.0},
                    {"lam": 0.1, "eta": 0.0}, {"lam": 0.1, "eta": -1.0},
                    {"lam": 0.1, "eta": float("nan")}, {"lam": 0.1, "k": float("inf")}):
            with pytest.raises(ValueError, match="lam must|eta must|k must"):
                rt.RowConfig(**bad)


class TestBacktest:
    def _config(self, window=40, oos=8, loss=QUAD):
        return rt.BacktestConfig(ball=rt.DivergenceBall(0.1, 0.05), loss=loss,
                                 window=window, out_of_sample=oos)

    def synthetic(self, periods=60, d=3, seed=14):
        rng = np.random.default_rng(seed)
        r = 0.02 * rng.standard_normal((periods, d)) + 0.001
        b = r @ np.array([0.5, 0.3, 0.2]) + 0.002 * rng.standard_normal(periods)
        return r, b

    def test_constant_prices_degenerate(self):
        r = np.zeros((50, 3))
        b = np.zeros(50)
        res = rt.backtest_sliding(r, b, self._config())
        assert res.bt_percent == 100.0
        assert np.allclose(res.loss_robust, 0.0)
        assert len(res.flagged_steps) == 2 * res.bt_steps   # both solvers flag
        assert np.allclose(res.weights_robust, 1.0 / 3)
        # neither portfolio was fitted, so neither has in-sample figures
        assert np.isnan(res.ete_in_robust) and np.isnan(res.ete_in_nonrobust)
        assert np.all(np.isnan(res.plot_fitted[:40]))

    def test_window_bookkeeping(self):
        r, b = self.synthetic()
        res = rt.backtest_sliding(r, b, self._config())
        assert res.window_bounds == [(t - 40, t) for t in range(40, 48)]

    def test_plot_series_lengths(self):
        r, b = self.synthetic()
        res = rt.backtest_sliding(r, b, self._config())
        assert len(res.plot_fitted) == 48
        assert len(res.plot_observed) == 48
        assert np.allclose(res.plot_observed, 1.0 + b[:48])

    def test_weights_remain_budget_feasible(self):
        r, b = self.synthetic()
        res = rt.backtest_sliding(r, b, self._config())
        assert np.allclose(res.weights_robust.sum(axis=1), 1.0, atol=1e-8)
        assert np.allclose(res.weights_nonrobust.sum(axis=1), 1.0, atol=1e-8)
        assert not res.flagged_steps

    def test_smoothed_loss_backtest(self):
        r, b = self.synthetic(seed=15)
        res = rt.backtest_sliding(r, b, self._config(loss=L1))
        assert res.bt_steps == 8
        assert 0 <= res.bt_wins <= 8
        assert np.isfinite(res.ete_out_robust)

    def replicable(self, start):
        # windows start, start + 1 of the replicable panel, as the
        # replicable_backtest benchmark runs them from start = 1
        r, b = replicable_panel()
        cfg = rt.BacktestConfig(ball=rt.DivergenceBall(0.1, 0.02), loss=L1,
                                window=40, out_of_sample=2)
        return r[start:], b[start:], rt.backtest_sliding(r[start:], b[start:], cfg)

    def test_failed_first_fit_has_no_in_sample_figures(self):
        r, b, res = self.replicable(1)       # window 1: alpha collapse
        assert [s for s, _ in res.flagged_steps] == [0]
        assert "robust: " in res.flagged_steps[0][1]
        assert "alpha collapse" in res.flagged_steps[0][1]
        assert np.array_equal(res.weights_robust[0], np.full(3, 1.0 / 3))
        assert np.isnan(res.ete_in_robust)
        assert np.all(np.isnan(res.plot_fitted[:40]))
        assert np.all(np.isfinite(res.plot_fitted[40:]))
        in_set = rt.scenarios_from(r[:40], b[:40])
        assert res.ete_in_nonrobust == rt.tracking_error(
            res.weights_nonrobust[0], in_set, L1).mean()

    def test_converged_first_fit_keeps_in_sample_figures(self):
        r, b, res = self.replicable(2)       # window 2 converges
        assert 0 not in [s for s, _ in res.flagged_steps]
        in_set = rt.scenarios_from(r[:40], b[:40])
        for u, ete in ((res.weights_robust[0], res.ete_in_robust),
                       (res.weights_nonrobust[0], res.ete_in_nonrobust)):
            assert ete == rt.tracking_error(u, in_set, L1).mean()
        np.testing.assert_array_equal(res.plot_fitted[:40],
                                      (1.0 + r[:40]) @ res.weights_robust[0])

    def test_window_must_cover_problem_size(self):
        r, b = self.synthetic(periods=20, d=3)
        cfg = rt.BacktestConfig(ball=rt.DivergenceBall(0.1, 0.05), loss=QUAD,
                                window=4, out_of_sample=2)
        with pytest.raises(ValueError, match="d\\+3"):
            rt.backtest_sliding(r, b, cfg)

    def test_too_few_periods(self):
        r, b = self.synthetic(periods=30)
        with pytest.raises(ValueError, match="window"):
            rt.backtest_sliding(r, b, self._config())

    def test_return_lengths_must_match(self):
        r, b = self.synthetic()
        with pytest.raises(ValueError, match="lengths differ"):
            rt.backtest_sliding(r, b[:-1], self._config())

    @pytest.mark.parametrize("window,oos", [(0, 8), (40, 0)])
    def test_config_needs_a_window_and_a_step(self, window, oos):
        with pytest.raises(ValueError, match="must be >= 1"):
            self._config(window=window, oos=oos)


class TestWriters:
    def test_csv_has_unit_note(self, gaussian5, composition5, tmp_path):
        rows = rt.run_table(gaussian5, composition5, [0, 1, 2, 3],
                            [rt.RowConfig(lam=0.1, eta=0.2)], QUAD,
                            n=2000, seed=4)
        path = tmp_path / "t.csv"
        write_table_csv(rows, path)
        text = path.read_text()
        assert text.startswith("# ETE and EEI columns are reported in units of 1e-4")
        assert "bt_include_pct" in text.splitlines()[1]

    def test_plot_csv(self, tmp_path):
        rng = np.random.default_rng(16)
        r = 0.02 * rng.standard_normal((60, 3)) + 0.001
        b = r @ np.array([0.5, 0.3, 0.2])
        cfg = rt.BacktestConfig(ball=rt.DivergenceBall(0.1, 0.05), loss=QUAD,
                                window=40, out_of_sample=8)
        res = rt.backtest_sliding(r, b, cfg)
        path = tmp_path / "plot.csv"
        from robusttrack.evaluate import write_plot_csv
        write_plot_csv(res, path)
        lines = path.read_text().strip().splitlines()
        assert lines[0] == "period,observed,fitted"
        assert len(lines) == 49   # header + window + out_of_sample
