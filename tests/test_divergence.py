import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st
from scipy.stats import multivariate_normal

import robusttrack as rt

from conftest import MU5, SIGMA5

ETAS = [0.1, 0.2, 0.5, 0.8, 1.0, 2.0, 5.0]


def random_pd(rng, d, scale=1.0):
    a = rng.standard_normal((d, d))
    return scale * (a @ a.T + d * np.eye(d))


class TestScalarG:
    @pytest.mark.parametrize("lam", [0.0, 0.05, 0.1, 1.0])
    def test_zero_at_one(self, lam):
        assert rt.scalar_G(1.0, lam) == pytest.approx(0.0, abs=1e-14)

    def test_nonnegative_on_grid(self):
        e = np.exp(np.linspace(-8, 8, 200))
        for lam in (0.0, 0.1, 0.5, 2.0):
            assert np.all(rt.scalar_G(e, lam) >= -1e-13)

    def test_extended_precision_reference(self):
        # independent evaluation of the formula in 80-bit arithmetic
        ld = np.longdouble
        lam = ld("0.1")
        e = ld("2.0")
        ref = e ** (lam + 1) / lam - (lam + 1) / lam * e + 1
        assert rt.scalar_G(2.0, 0.1) == pytest.approx(float(ref), rel=1e-14)

    @given(st.floats(1e-6, 1e3), st.floats(0.0, 4.0))
    def test_nonnegative_property(self, e, lam):
        assert rt.scalar_G(e, lam) >= -1e-12

    def test_small_lam_limit(self):
        # G -> e log e - e + 1 (the KL integrand) as lam -> 0
        assert rt.scalar_G(2.0, 1e-6) == pytest.approx(2 * np.log(2) - 1, abs=1e-5)

    def test_rejects_nonpositive(self):
        for e in (-1.0, 0.0):
            with pytest.raises(ValueError):
                rt.scalar_G(e, 0.5)


class TestDivergenceMC:
    def test_unit_ratio_gives_zero(self):
        draws = np.zeros((100, 2))
        out = rt.divergence_mc(draws, lambda x: np.ones(len(x)), lam=0.3)
        assert out.estimate == 0.0 and out.std_error == 0.0

    def test_matches_equal_cov_closed_form(self):
        mu1 = np.array([0.1, -0.2])
        mu2 = np.array([0.3, 0.1])
        lam = 0.2
        nominal = multivariate_normal(mu1, np.eye(2))
        actual = multivariate_normal(mu2, np.eye(2))
        rng = np.random.default_rng(17)
        draws = rng.multivariate_normal(mu1, np.eye(2), size=100_000)
        out = rt.divergence_mc(draws, lambda x: actual.pdf(x) / nominal.pdf(x), lam)
        closed = rt.divergence_gaussian_equal_cov(mu1, mu2, np.eye(2), lam)
        assert abs(out.estimate - closed) < 3 * out.std_error

    def test_mvt_divergence_grows_with_shift(self):
        model = rt.NominalModel.student_t(MU5, SIGMA5, dof=10.0)
        estimates = {}
        for k in (1.0, 0.0, -1.0):
            est = rt.eta_from_ratio_mc(model, model.with_mean_scaled(k), 0.1,
                                       n=200_000, seed=23)
            estimates[k] = est
        assert estimates[1.0].estimate == 0.0
        assert estimates[0.0].estimate > 3 * estimates[0.0].std_error
        gap = estimates[-1.0].estimate - estimates[0.0].estimate
        sigma = np.hypot(estimates[-1.0].std_error, estimates[0.0].std_error)
        assert gap > 3 * sigma

    def test_nonnegative_on_normalized_sample_ratios(self):
        # any positive ratio normalized to unit sample mean has mean G >= 0
        rng = np.random.default_rng(27)
        for lam in (0.0, 0.1, 0.7):
            values = np.exp(rng.standard_normal(5000))
            values /= values.mean()
            out = rt.divergence_mc(np.zeros((5000, 1)), lambda x: values, lam)
            assert out.estimate >= -1e-12

    def test_rejects_nonpositive_ratio(self):
        with pytest.raises(ValueError, match="positive"):
            rt.divergence_mc(np.zeros((5, 1)), lambda x: np.array([1, 1, 0, 1, 1.0]), 0.1)


class TestGaussianClosedForms:
    def test_identical_distributions(self):
        rng = np.random.default_rng(0)
        s = random_pd(rng, 3)
        mu = rng.standard_normal(3)
        assert rt.divergence_gaussian(mu, s, mu, s, 0.2) == pytest.approx(0.0, abs=1e-12)

    def test_reduces_to_equal_cov_form(self):
        rng = np.random.default_rng(1)
        s = random_pd(rng, 4)
        mu1 = 0.01 * rng.standard_normal(4)
        mu2 = 0.01 * rng.standard_normal(4)
        full = rt.divergence_gaussian(mu1, s, mu2, s, 0.3)
        simple = rt.divergence_gaussian_equal_cov(mu1, mu2, s, 0.3)
        assert full == pytest.approx(simple, rel=1e-12, abs=1e-12)

    def test_generic_pair_matches_mc(self):
        rng = np.random.default_rng(2)
        s1 = np.array([[1.0, 0.2], [0.2, 0.8]])
        s2 = np.array([[1.1, 0.1], [0.1, 0.9]])
        mu1 = np.array([0.05, -0.02])
        mu2 = np.array([-0.03, 0.04])
        lam = 0.15
        closed = rt.divergence_gaussian(mu1, s1, mu2, s2, lam)
        f = multivariate_normal(mu1, s1)
        g = multivariate_normal(mu2, s2)
        draws = rng.multivariate_normal(mu1, s1, size=1_000_000)
        out = rt.divergence_mc(draws, lambda x: g.pdf(x) / f.pdf(x), lam)
        assert abs(out.estimate - closed) < 3 * out.std_error

    def test_outside_validity_region(self):
        # (lam+1) S2^-1 - lam S1^-1 indefinite when S2 is much wider than S1
        with pytest.raises(ValueError, match="validity region"):
            rt.divergence_gaussian(np.zeros(2), np.eye(2), np.zeros(2), 10 * np.eye(2), 1.0)

    @staticmethod
    def _reference(mu1, s1, mu2, s2, lam):
        """The textbook form, with explicit inverses and determinants, in
        50-digit arithmetic: its cancellations cost no float digits there."""
        mp = pytest.importorskip("mpmath")
        mp.mp.dps = 50
        mat = lambda a: mp.matrix([[mp.mpf(float(v)) for v in row] for row in a])
        vec = lambda a: mp.matrix([mp.mpf(float(v)) for v in a])
        s1, s2, mu1, mu2, lam = mat(s1), mat(s2), vec(mu1), vec(mu2), mp.mpf(lam)
        i1, i2 = s1 ** -1, s2 ** -1
        m = (lam + 1) * i2 - lam * i1
        rhs = (lam + 1) * (i2 * mu2) - lam * (i1 * mu1)
        quad = lambda a, q, c: (a.T * q * c)[0]
        log_int = (lam * mp.log(mp.det(s1)) - (lam + 1) * mp.log(mp.det(s2))
                   - mp.log(mp.det(m)) - (lam + 1) * quad(mu2, i2, mu2)
                   + lam * quad(mu1, i1, mu1) + quad(rhs, m ** -1, rhs)) / 2
        return float(mp.expm1(log_int) / lam)

    @pytest.mark.parametrize("eps", [1e-3, 1e-5, 1e-7])
    @pytest.mark.parametrize("lam", [0.1, 0.2, 0.3])
    def test_small_mean_shift_matches_reference(self, eps, lam):
        # the paper's diagonal market against its mean scaled by 1 + eps
        got = rt.divergence_gaussian(MU5, SIGMA5, (1 + eps) * MU5, SIGMA5, lam)
        assert got == pytest.approx(self._reference(MU5, SIGMA5, (1 + eps) * MU5, SIGMA5, lam),
                                    rel=1e-12, abs=0)

    def test_near_equal_pairs_match_reference(self):
        rng = np.random.default_rng(5)
        for i in range(60):
            a = rng.standard_normal((5, 5))
            s1 = 1e-3 * (a @ a.T / 5 + np.eye(5))
            p = rng.standard_normal((5, 5))
            gap = 10.0 ** -rng.uniform(3, 9)
            s2 = s1 + gap * 1e-3 * (p + p.T)
            mu1 = 0.003 * rng.standard_normal(5)
            mu2 = mu1 + gap * 0.003 * rng.standard_normal(5)
            lam = (0.1, 0.2, 0.3)[i % 3]
            got = rt.divergence_gaussian(mu1, s1, mu2, s2, lam)
            assert got == pytest.approx(self._reference(mu1, s1, mu2, s2, lam),
                                        rel=1e-12, abs=0), i

    def test_equal_cov_zero_shift(self):
        assert rt.divergence_gaussian_equal_cov(MU5, MU5, SIGMA5, 0.1) == 0.0

    def test_equal_cov_kl_limit_is_half_mahalanobis(self):
        delta = MU5 * 0.5
        maha2 = delta @ np.linalg.solve(SIGMA5, delta)
        tiny = rt.divergence_gaussian_equal_cov(MU5, 1.5 * MU5, SIGMA5, 1e-6)
        assert tiny == pytest.approx(0.5 * maha2, rel=1e-4)
        exact = rt.divergence_gaussian_equal_cov(MU5, 1.5 * MU5, SIGMA5, 0.0)
        assert exact == pytest.approx(0.5 * maha2, rel=1e-14)

    def test_benchmark_radius(self):
        # the mean factor -2.2158 puts the shifted model at radius 0.1
        value = rt.divergence_gaussian_equal_cov(MU5, -2.2158 * MU5, SIGMA5, 0.1)
        assert value == pytest.approx(0.1, abs=1e-3)

    def test_asymmetry(self):
        mu1 = np.array([0.0, 0.0])
        mu2 = np.array([0.3, 0.1])
        s1 = np.eye(2)
        s2 = np.array([[1.3, 0.0], [0.0, 0.7]])
        d_fg = rt.divergence_gaussian(mu1, s1, mu2, s2, 0.2)
        d_gf = rt.divergence_gaussian(mu2, s2, mu1, s1, 0.2)
        assert abs(d_fg - d_gf) > 1e-6


class TestKFromEta:
    def test_zero_radius(self):
        for sign in ("+", "-"):
            assert rt.k_from_eta(0.0, 0.1, MU5, SIGMA5, sign) == pytest.approx(1.0)

    def test_benchmark_values(self):
        assert rt.k_from_eta(0.1, 0.1, MU5, SIGMA5, "-") == pytest.approx(-2.2158, abs=5e-4)
        assert rt.k_from_eta(5.0, 0.05, MU5, SIGMA5, "+") == pytest.approx(23.0432, abs=5e-4)

    def test_requires_nonzero_mean(self):
        with pytest.raises(ValueError):
            rt.k_from_eta(0.1, 0.1, np.zeros(3), np.eye(3), "-")

    @pytest.mark.parametrize("lam", [0.05, 0.1])
    @pytest.mark.parametrize("sign", ["+", "-"])
    def test_round_trip(self, lam, sign):
        for eta in ETAS:
            k = rt.k_from_eta(eta, lam, MU5, SIGMA5, sign)
            back = rt.divergence_gaussian_equal_cov(MU5, k * MU5, SIGMA5, lam)
            assert back == pytest.approx(eta, rel=1e-10)

    @given(st.floats(1e-3, 10.0), st.floats(1e-3, 2.0))
    def test_round_trip_property(self, eta, lam):
        k = rt.k_from_eta(eta, lam, MU5, SIGMA5, "-")
        back = rt.divergence_gaussian_equal_cov(MU5, k * MU5, SIGMA5, lam)
        assert back == pytest.approx(eta, rel=1e-9)


class TestEtaFromRatioMC:
    def test_identical_models_exactly_zero(self, gaussian5):
        out = rt.eta_from_ratio_mc(gaussian5, gaussian5, 0.1, n=1000, seed=0)
        assert out.estimate == 0.0 and out.std_error == 0.0

    def test_gaussian_matches_closed_form(self, gaussian5):
        actual = gaussian5.with_mean_scaled(-2.0)
        out = rt.eta_from_ratio_mc(gaussian5, actual, 0.1, n=200_000, seed=3)
        closed = rt.divergence_gaussian_equal_cov(MU5, -2.0 * MU5, SIGMA5, 0.1)
        assert abs(out.estimate - closed) < 3 * out.std_error

    def test_mvt_radius_finite_positive(self):
        model = rt.NominalModel.student_t(MU5, SIGMA5, dof=10.0)
        out = rt.eta_from_ratio_mc(model, model.with_mean_scaled(-8.0), 0.1,
                                   n=200_000, seed=5)
        assert np.isfinite(out.estimate) and out.estimate > 0

    def test_ratio_overflow_is_a_value_error(self, gaussian5):
        # its remedy is a config value (a smaller lam), not a crash
        actual = rt.NominalModel.gaussian(MU5, 10.0 * SIGMA5)
        with pytest.raises(ValueError, match="a smaller lam"):
            rt.eta_from_ratio_mc(gaussian5, actual, 100.0, n=20_000, seed=1)

    @pytest.mark.parametrize("seed", [2, 3, 4, 5])
    def test_square_overflow_is_a_value_error(self, gaussian5, seed):
        # at these seeds G itself stays finite but its square, which the
        # standard error sums, overflows; the true divergence is infinite
        actual = rt.NominalModel.gaussian(MU5, 10.0 * SIGMA5)
        with pytest.raises(ValueError, match="a smaller lam"):
            rt.eta_from_ratio_mc(gaussian5, actual, 100.0, n=20_000, seed=seed)

    def test_kl_mode(self, gaussian5):
        actual = gaussian5.with_mean_scaled(2.0)
        out = rt.eta_from_ratio_mc(gaussian5, actual, 0.0, n=200_000, seed=7)
        closed = rt.divergence_gaussian_equal_cov(MU5, 2.0 * MU5, SIGMA5, 0.0)
        assert abs(out.estimate - closed) < 3 * out.std_error


class TestKLLimitInvariant:
    def test_small_lam_approaches_kl(self):
        rng = np.random.default_rng(8)
        for _ in range(5):
            d = 3
            s1 = random_pd(rng, d)
            s2 = s1 + 0.05 * random_pd(rng, d, scale=0.1)
            mu1 = 0.1 * rng.standard_normal(d)
            mu2 = 0.1 * rng.standard_normal(d)
            # KL(g || f) for Gaussians, written out directly as the oracle
            s1_inv_s2 = np.linalg.solve(s1, s2)
            delta = mu1 - mu2
            kl = 0.5 * (np.trace(s1_inv_s2) + delta @ np.linalg.solve(s1, delta)
                        - d - np.log(np.linalg.det(s1_inv_s2)))
            tiny = rt.divergence_gaussian(mu1, s1, mu2, s2, 1e-6)
            assert abs(tiny - kl) <= 1e-4 * (1.0 + kl)


class TestBallType:
    def test_validation(self):
        with pytest.raises(ValueError):
            rt.DivergenceBall(lam=-0.1, eta=1.0)
        with pytest.raises(ValueError):
            rt.DivergenceBall(lam=0.1, eta=-1.0)
