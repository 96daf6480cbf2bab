import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

import robusttrack as rt
from robusttrack.model import _BLOCK, _CHUNK, _sample_blocks

from conftest import DRAW_SIZES, FULL5, MU5, SIGMA5, WEIGHTS5, market_model, peak_arrays
from eager_reference import frozen_sample_model


class TestGaussianSampling:
    def test_mean_law_of_large_numbers(self, gaussian5):
        n = 100_000
        x = rt.sample_model(gaussian5, n, seed=3)
        assert np.all(np.abs(x.mean(axis=0) - MU5) < 4.0 / np.sqrt(n))

    def test_covariance_entry(self, gaussian5):
        n = 1_000_000
        x = rt.sample_model(gaussian5, n, seed=5)
        var0 = x[:, 0].var(ddof=1)
        se = np.sqrt(2.0 / (n - 1)) * 0.0020   # sampling std of a Gaussian variance
        assert abs(var0 - 0.0020) < 3 * se

    def test_deterministic_per_seed(self, gaussian5):
        a = rt.sample_model(gaussian5, 1000, seed=42)
        b = rt.sample_model(gaussian5, 1000, seed=42)
        assert np.array_equal(a, b)
        c = rt.sample_model(gaussian5, 1000, seed=43)
        assert not np.array_equal(a, c)

    def test_deterministic_across_chunk_boundary(self, gaussian5):
        n = 300_000   # spans two sampling chunks
        a = rt.sample_model(gaussian5, n, seed=9)
        b = rt.sample_model(gaussian5, n, seed=9)
        assert np.array_equal(a, b)

    def test_rejects_empty_draw(self, gaussian5):
        with pytest.raises(ValueError, match="n must be >= 1"):
            rt.sample_model(gaussian5, 0, seed=1)

    def test_non_pd_covariance_rejected(self):
        bad = np.array([[1.0, 2.0], [2.0, 1.0]])   # indefinite
        with pytest.raises(ValueError, match="positive definite"):
            rt.NominalModel.gaussian(np.zeros(2), bad)


class TestStudentTSampling:
    def test_large_dof_matches_gaussian_moments(self):
        model = rt.NominalModel.student_t(np.zeros(3), np.eye(3), dof=1e6)
        n = 200_000
        x = rt.sample_model(model, n, seed=1)
        assert np.all(np.abs(x.mean(axis=0)) < 4.0 / np.sqrt(n))
        assert np.all(np.abs(x.var(axis=0, ddof=1) - 1.0) < 0.02)

    def test_variance_scaling(self):
        # componentwise variance is dof/(dof-2) = 1.25 at dof=10
        model = rt.NominalModel.student_t(np.zeros(2), np.eye(2), dof=10.0)
        n = 400_000
        x = rt.sample_model(model, n, seed=2)
        se = 1.25 * np.sqrt(2.0 / n) * 2.0   # t variance estimate is noisier
        assert np.all(np.abs(x.var(axis=0, ddof=1) - 1.25) < 3 * se)

    def test_deterministic_per_seed(self):
        model = rt.NominalModel.student_t(MU5, SIGMA5, dof=8.0)
        a = rt.sample_model(model, 777, seed=6)
        b = rt.sample_model(model, 777, seed=6)
        assert np.array_equal(a, b)


class TestSampleStream:
    """The CLI manifest promises byte-for-byte reruns, so the sampled stream
    is pinned to a reference built here from the chunk seeding scheme."""

    @staticmethod
    def reference(model, n, seed, chunk=1 << 18):
        rows = []
        for ci, start in enumerate(range(0, n, chunk)):
            m = min(chunk, n - start)
            rng = np.random.default_rng(np.random.SeedSequence(seed, spawn_key=(ci,)))
            z = rng.standard_normal((m, model.dim)) @ np.linalg.cholesky(model.scale).T
            if model.kind == "student_t":
                z = z * np.sqrt(model.dof / rng.chisquare(model.dof, m))[:, None]
            rows.append(model.mean + z)
        return np.vstack(rows)

    @pytest.mark.parametrize("model", [
        rt.NominalModel.gaussian(MU5, SIGMA5),
        rt.NominalModel.student_t(MU5, SIGMA5, dof=10.0),
    ], ids=["gaussian", "student_t"])
    def test_matches_reference_across_chunk_boundary(self, model):
        n = 300_000   # spans two sampling chunks
        assert np.array_equal(rt.sample_model(model, n, seed=21),
                              self.reference(model, n, seed=21))

    @pytest.mark.parametrize("model", [
        rt.NominalModel.gaussian(MU5, SIGMA5),
        rt.NominalModel.student_t(MU5, SIGMA5, dof=10.0),
    ], ids=["gaussian", "student_t"])
    def test_in_place_chunks_have_the_bits_of_the_reference(self, model):
        # each chunk is drawn into the output and shifted there; a short
        # second chunk of three rows follows a full one
        n = _CHUNK + 3
        got = rt.sample_model(model, n, seed=22)
        ref = self.reference(model, n, seed=22, chunk=_CHUNK)
        assert np.array_equal(got.view(np.uint64), ref.view(np.uint64))


class TestSampleBlocks:
    """sample_model fills its output a block of rows at a time, with the
    bits of the frozen whole-chunk sampler, and holds one block beside it."""

    @pytest.mark.parametrize("n", DRAW_SIZES)
    @pytest.mark.parametrize("kind", ["gaussian", "student_t"])
    def test_bits_of_the_frozen_sampler(self, kind, n):
        for cov, seed in ((SIGMA5, 4), (FULL5, 151)):
            model = market_model(kind, cov)
            assert (rt.sample_model(model, n, seed).tobytes()
                    == frozen_sample_model(model, n, seed).tobytes()), seed

    @pytest.mark.parametrize("n", DRAW_SIZES)
    @pytest.mark.parametrize("kind", ["gaussian", "student_t"])
    def test_blocks_of_more_than_one_row(self, kind, n):
        # numpy multiplies a single row by another BLAS routine, so only a
        # one-row draw has a one-row block; every block starts where a
        # whole-draw product's row groups start
        starts, sizes = [], []
        for rows, x in _sample_blocks(market_model(kind), n, 5):
            assert x.shape == (rows.stop - rows.start, 5)
            starts.append(rows.start)
            sizes.append(rows.stop - rows.start)
        assert sum(sizes) == n and starts == [sum(sizes[:k]) for k in range(len(sizes))]
        assert all(start % _BLOCK == 0 for start in starts)
        assert n == 1 or min(sizes) > 1

    @pytest.mark.parametrize("kind,chunk_scales", [("gaussian", 0.0), ("student_t", 1.0)])
    def test_peak_is_the_output_and_one_block(self, kind, chunk_scales):
        # the output's 5 columns, one block of normals (a one-row tail joins
        # the last block, so 8,193 rows) and, for t(10), the chunk's 2^18
        # scales, plus 0.05 for numpy's buffers; the frozen sampler read
        # 9.37, with the chunk's normals beside the output
        n = 300_001
        bound = 5 + (5 * (_BLOCK + 1) + chunk_scales * _CHUNK) / n + 0.05
        assert peak_arrays(lambda: rt.sample_model(market_model(kind), n, 1), n) <= bound


class TestSynthesizeIndex:
    def test_single_asset_identity(self):
        r = np.array([[0.02], [-0.01]])
        comp = rt.IndexComposition(np.array([1.0]))
        assert np.allclose(rt.synthesize_index(r, comp), [0.02, -0.01])

    def test_uniform_two_assets(self):
        comp = rt.IndexComposition(np.array([0.5, 0.5]))
        out = rt.synthesize_index(np.array([[0.02, 0.04]]), comp)
        assert np.allclose(out, [0.03])

    def test_benchmark_expected_index_return(self, composition5):
        # independent dot-product check of the benchmark market's index mean
        expected = sum(w * m for w, m in zip(WEIGHTS5, MU5))
        assert abs(expected - 0.0027) < 1e-12
        out = rt.synthesize_index(MU5[None, :], composition5)
        assert abs(out[0] - expected) < 1e-15

    def test_dimension_mismatch(self, composition5):
        with pytest.raises(ValueError):
            rt.synthesize_index(np.zeros((3, 4)), composition5)

    @given(st.integers(0, 2**31 - 1), st.floats(-2, 2), st.floats(-2, 2))
    def test_linearity(self, seed, a, b):
        rng = np.random.default_rng(seed)
        r1 = rng.normal(size=(6, 3))
        r2 = rng.normal(size=(6, 3))
        comp = rt.IndexComposition(np.array([0.2, 0.3, 0.5]))
        lhs = rt.synthesize_index(a * r1 + b * r2, comp)
        rhs = a * rt.synthesize_index(r1, comp) + b * rt.synthesize_index(r2, comp)
        assert np.allclose(lhs, rhs, atol=1e-9)


class TestScenariosFrom:
    def test_zero_returns(self):
        scen = rt.scenarios_from(np.zeros((2, 2)), np.zeros(2))
        assert np.all(scen.R == 1.0) and np.all(scen.B == 1.0)

    def test_gross_conversion(self):
        scen = rt.scenarios_from(np.array([[0.01]]), np.array([0.02]))
        assert np.allclose(scen.R, [[1.01]]) and np.allclose(scen.B, [1.02])

    def test_rejects_nan(self):
        with pytest.raises(rt.DataError):
            rt.scenarios_from(np.array([[np.nan]]), np.array([0.0]))
        with pytest.raises(rt.DataError):
            rt.scenarios_from(np.array([[0.0]]), np.array([np.inf]))

    def test_rejects_mismatched_shapes(self):
        for r, b in ((np.zeros((3, 2)), np.zeros(2)), (np.zeros(3), np.zeros(3)),
                     (np.zeros((3, 2)), np.zeros((3, 1)))):
            with pytest.raises(ValueError) as info:
                rt.scenarios_from(r, b)
            assert not isinstance(info.value, rt.DataError)

    def test_arrays_are_read_only(self):
        scen = rt.scenarios_from(np.zeros((2, 1)), np.zeros(2))
        with pytest.raises(ValueError):
            scen.R[0, 0] = 5.0

    def test_callers_arrays_stay_writeable(self):
        # arrays already in the stored layout are not copied, and freezing
        # them must not lock their owner out
        R, B = np.asfortranarray(np.ones((5, 2))), np.ones(5)
        scen = rt.ScenarioSet(R=R, B=B)
        assert R.flags.writeable and B.flags.writeable
        assert not (scen.R.flags.writeable or scen.B.flags.writeable)
        B[0] = 2.0
        R[0, 0] = 2.0

    @pytest.mark.parametrize("layout", ["C", "F", "strided"])
    def test_returns_are_stored_column_major(self, layout):
        rng = np.random.default_rng(3)
        wide = 1.0 + 0.01 * rng.standard_normal((400, 8))
        R = {"C": np.ascontiguousarray(wide[:, :4]),
             "F": np.asfortranarray(wide[:, :4]),
             "strided": wide[:, ::2]}[layout]
        expected = R.copy()
        scen = rt.ScenarioSet(R=R, B=wide[:, 4])
        assert scen.R.flags.f_contiguous and not scen.R.flags.writeable
        assert np.array_equal(scen.R, expected)
        assert rt.scenarios_from(R - 1.0, wide[:, 4] - 1.0).R.flags.f_contiguous


class TestLoadPricesCsv:
    def _write(self, tmp_path, text, name="prices.csv"):
        path = tmp_path / name
        path.write_text(text, encoding="utf-8")
        return path

    def test_two_prices_one_return(self, tmp_path):
        loaded = rt.load_prices_csv(self._write(tmp_path, "100\n101\n"))
        assert np.allclose(loaded.returns, [[0.01]])

    def test_constant_prices(self, tmp_path):
        loaded = rt.load_prices_csv(self._write(tmp_path, "100\n100\n100\n"))
        assert np.allclose(loaded.returns, np.zeros((2, 1)))

    def test_291_rows_gives_290_returns(self, tmp_path):
        prices = np.linspace(50.0, 80.0, 291)
        text = "\n".join(f"{float(p)!r},{float(p) * 2!r}" for p in prices) + "\n"
        loaded = rt.load_prices_csv(self._write(tmp_path, text))
        assert loaded.returns.shape == (290, 2)

    def test_header_row(self, tmp_path):
        loaded = rt.load_prices_csv(self._write(tmp_path, "idx,a\n100,50\n110,55\n"))
        assert np.allclose(loaded.returns, [[0.1, 0.1]])

    def test_blank_lines_are_skipped(self, tmp_path):
        plain = rt.load_prices_csv(self._write(tmp_path, "idx,a\n100,50\n110,55\n121,66\n"))
        blank = rt.load_prices_csv(self._write(
            tmp_path, "idx,a\n100,50\n\n110,55\n , \n121,66\n", "blank.csv"))
        assert blank.returns.tobytes() == plain.returns.tobytes()

    @pytest.mark.parametrize("text,match", [
        ("100,abc\n101,1\n", "non-numeric"),
        ("100\n", "at least 2"),
        ("100,2\n101\n", "ragged"),
        ("100\n-5\n", "strictly positive"),
        # float() reads both cells, so only the finiteness check rejects them
        ("100\nnan\n", "NaN or infinite"),
        ("100,1\n101,inf\n", "NaN or infinite"),
        # the one rule: a row of numbers is data, and only a first row
        # without any number is a header
        ("idx,a\nx,y\n100,50\n110,55\n", "non-numeric cell on line 2"),
        ("100,50\nidx,a\n110,55\n", "non-numeric cell on line 2"),
        ("idx\n100,50\n110,55\n", "header width"),
    ])
    def test_rejects_bad_input(self, tmp_path, text, match):
        with pytest.raises(rt.DataError, match=match):
            rt.load_prices_csv(self._write(tmp_path, text))

    def test_round_trip(self, tmp_path):
        rng = np.random.default_rng(4)
        prices = 100.0 * np.cumprod(1 + 0.02 * rng.standard_normal((40, 3)), axis=0)
        text = "\n".join(",".join(repr(float(v)) for v in row) for row in prices) + "\n"
        loaded = rt.load_prices_csv(self._write(tmp_path, text))
        rebuilt = prices[0] * np.cumprod(1 + loaded.returns, axis=0)
        assert np.all(np.abs(rebuilt / prices[1:] - 1.0) < 1e-9)


class TestTypes:
    def test_composition_must_sum_to_one(self):
        with pytest.raises(ValueError, match="sum to 1"):
            rt.IndexComposition(np.array([0.5, 0.6]))
        with pytest.raises(ValueError, match="non-negative"):
            rt.IndexComposition(np.array([1.5, -0.5]))
        with pytest.raises(ValueError, match="non-empty vector"):
            rt.IndexComposition(np.array([]))
        with pytest.raises(ValueError, match="sum to 1"):
            rt.IndexComposition(np.array([np.nan, 1.0]))

    @pytest.mark.parametrize("kind,mean,scale,dof,match", [
        ("laplace", MU5, SIGMA5, None, "unknown model kind"),
        ("gaussian", np.eye(5), SIGMA5, None, "mean must be a vector"),
        ("gaussian", MU5, SIGMA5[:4, :4], None, "must be square"),
        ("gaussian", MU5, SIGMA5 + np.triu(np.full((5, 5), 1e-4), 1), None, "symmetric"),
        ("student_t", MU5, SIGMA5, 0.0, "dof > 0"),
        ("student_t", MU5, SIGMA5, None, "dof > 0"),
        ("gaussian", np.full(5, np.nan), SIGMA5, None, "must be finite"),
        ("gaussian", np.full(5, np.inf), SIGMA5, None, "must be finite"),
        ("gaussian", MU5, np.full((5, 5), np.inf), None, "must be finite"),
        ("student_t", MU5, SIGMA5, np.nan, "dof > 0"),
        ("student_t", MU5, SIGMA5, np.inf, "dof > 0"),
    ], ids=["kind", "mean-matrix", "scale-shape", "scale-asymmetric", "dof-zero",
            "dof-missing", "mean-nan", "mean-inf", "scale-inf", "dof-nan", "dof-inf"])
    def test_rejects_bad_model(self, kind, mean, scale, dof, match):
        with pytest.raises(ValueError, match=match):
            rt.NominalModel(kind, mean, scale, dof)

    def test_perturbation_scales_mean(self, gaussian5):
        scaled = gaussian5.with_mean_scaled(-2.0)
        assert np.allclose(scaled.mean, -2.0 * MU5)
        assert np.allclose(scaled.scale, SIGMA5)
        t = rt.NominalModel.student_t(MU5, SIGMA5, dof=8.0).with_mean_scaled(-2.0)
        assert (t.kind, t.dof) == ("student_t", 8.0)
        assert np.allclose(t.mean, -2.0 * MU5)

    def test_scenario_shape_validation(self):
        with pytest.raises(ValueError):
            rt.ScenarioSet(R=np.ones((3, 2)), B=np.ones(4))
        with pytest.raises(ValueError, match="at least one row"):
            rt.ScenarioSet(R=np.ones((0, 2)), B=np.ones(0))
