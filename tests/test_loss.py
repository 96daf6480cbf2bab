import numpy as np
import pytest
from hypothesis import example, given
from hypothesis import strategies as st
from scipy.special import ndtr

from robusttrack.loss import _phi, _terms

import robusttrack as rt

from eager_reference import frozen_loss_deriv1, frozen_loss_deriv2, frozen_loss_value

EPS = 0.01
L1 = rt.LossSpec.smoothed_pos_sq(EPS)
L2 = rt.LossSpec.smoothed_plus(EPS)
QUAD = rt.LossSpec.quadratic()


def fd1(f, x, h=None):
    h = h or np.sqrt(np.finfo(float).eps) * max(1.0, abs(x))
    return (f(x + h) - f(x - h)) / (2 * h)


class TestValues:
    def test_smoothed_sq_at_zero(self):
        assert rt.loss_value(L1, 0.0) == pytest.approx(EPS**2 / 2, rel=1e-12)

    def test_smoothed_sq_far_right(self):
        # right tail approaches x^2 + eps^2 (the smoothing keeps the eps^2 term)
        x = 10 * EPS
        assert rt.loss_value(L1, x) == pytest.approx(x * x + EPS**2, rel=1e-6)

    def test_smooth_plus_at_zero(self):
        assert rt.loss_value(L2, 0.0) == pytest.approx(EPS * np.log(2), rel=1e-12)

    def test_quadratic(self):
        assert rt.loss_value(QUAD, -0.3) == pytest.approx(0.09)

    def test_one_sided_tails(self):
        assert rt.loss_value(L1, -5 * EPS) <= EPS**2 * 1e-4
        x = 5 * EPS
        assert abs(rt.loss_value(L1, x) - (x * x + EPS**2)) / (x * x) <= 1e-5

    def test_smooth_plus_overflow_stability(self):
        big = 1e6 * EPS
        assert rt.loss_value(L2, -big) == 0.0
        assert rt.loss_value(L2, big) == pytest.approx(big)
        assert np.isfinite(rt.loss_deriv1(L2, -big))
        assert np.isfinite(rt.loss_deriv2(L2, -big))


class TestDerivatives:
    def test_smoothed_sq_first_at_zero(self):
        assert rt.loss_deriv1(L1, 0.0) == pytest.approx(2 * EPS / np.sqrt(2 * np.pi),
                                                        rel=1e-12)

    def test_smooth_plus_first_at_zero(self):
        assert rt.loss_deriv1(L2, 0.0) == pytest.approx(0.5, rel=1e-12)

    def test_quadratic_derivs(self):
        assert rt.loss_deriv1(QUAD, 1.5) == 3.0
        assert rt.loss_deriv2(QUAD, 1.5) == 2.0

    @pytest.mark.parametrize("spec", [L1, L2], ids=["pos_sq", "plus"])
    def test_first_derivative_matches_fd(self, spec):
        grid = np.concatenate([np.linspace(-5 * EPS, 5 * EPS, 41),
                               np.linspace(-1, 1, 41)])
        for x in grid:
            num = fd1(lambda t: rt.loss_value(spec, t), x)
            ana = rt.loss_deriv1(spec, x)
            assert ana == pytest.approx(num, rel=1e-6, abs=1e-10)

    @pytest.mark.parametrize("spec", [L1, L2], ids=["pos_sq", "plus"])
    def test_second_derivative_matches_fd(self, spec):
        grid = np.concatenate([np.linspace(-5 * EPS, 5 * EPS, 41),
                               np.linspace(-1, 1, 41)])
        for x in grid:
            num = fd1(lambda t: rt.loss_deriv1(spec, t), x)
            ana = rt.loss_deriv2(spec, x)
            # abs floor sits at the FD noise scale eps_machine / step
            assert ana == pytest.approx(num, rel=1e-6, abs=1e-7)

    def test_convexity_on_grid(self):
        grid = np.linspace(-1, 1, 401)
        assert np.all(rt.loss_deriv2(L1, grid) >= 0)
        assert np.all(rt.loss_deriv2(L2, grid) > 0)

    @given(st.floats(-10, 10), st.floats(1e-4, 0.5))
    @example(-9.0, 0.234375)
    def test_losses_nonnegative(self, x, eps):
        assert rt.loss_value(rt.LossSpec.smoothed_pos_sq(eps), x) >= 0
        assert rt.loss_value(rt.LossSpec.smoothed_plus(eps), x) >= 0


SMOOTHED = st.sampled_from([rt.LossSpec.smoothed_pos_sq, rt.LossSpec.smoothed_plus])
XS = st.floats(-1e3, 1e3)
EPSILONS = st.floats(1e-4, 0.5)


class TestSmoothedTails:
    """Sign and monotonicity of the smoothed losses, far tails included."""

    def test_pos_sq_left_tail_regression(self):
        spec = rt.LossSpec.smoothed_pos_sq(0.234375)
        assert rt.loss_value(spec, -9.0) == 0.0
        assert rt.loss_deriv1(spec, -9.0) >= 0.0
        xs = np.linspace(-10.0, 0.0, 10001)    # the array path clamps in place
        assert np.all(rt.loss_value(spec, xs) >= 0)
        assert np.all(rt.loss_deriv1(spec, xs) >= 0)

    @given(SMOOTHED, XS, EPSILONS)
    @example(rt.LossSpec.smoothed_pos_sq, -9.0, 0.234375)
    def test_value_and_derivatives_nonnegative(self, kind, x, eps):
        spec = kind(eps)
        assert rt.loss_value(spec, x) >= 0
        assert rt.loss_deriv1(spec, x) >= 0
        assert rt.loss_deriv2(spec, x) >= 0

    @given(SMOOTHED, XS, st.floats(0, 1e3), EPSILONS)
    def test_value_nondecreasing(self, kind, x, dx, eps):
        # up to rounding: in the pos_sq left tail the loss is the sum of two
        # terms ~t^4/2 times larger than it, and below ~1e-300 only
        # subnormals remain
        spec = kind(eps)
        lo, hi = rt.loss_value(spec, x), rt.loss_value(spec, x + dx)
        assert lo <= hi * (1 + 1e-6) + 1e-300

    @given(XS, EPSILONS)
    def test_pos_sq_clamp_only_touches_negative_values(self, x, eps):
        # wherever the closed form is already >= 0 it is returned bit for bit
        t = x / eps
        raw = (x * x + eps**2) * ndtr(t) + x * eps * _phi(t)
        raw1 = 2.0 * x * ndtr(t) + 2.0 * eps * _phi(t)
        spec = rt.LossSpec.smoothed_pos_sq(eps)
        assert rt.loss_value(spec, x) == max(raw, 0.0)
        assert rt.loss_deriv1(spec, x) == max(raw1, 0.0)


def _bits(a):
    return np.asarray(a, dtype=float).view(np.uint64)


class TestInPlaceKernels:
    """Each kernel's results, and each of the three terms of the solvers'
    kernel _terms, are the closed forms of tests/eager_reference.py bit for
    bit, and the caller's x is never written."""

    SPECS = [QUAD, L1, L2, rt.LossSpec.smoothed_pos_sq(0.234375),
             rt.LossSpec.smoothed_plus(0.5)]
    KERNELS = [(rt.loss_value, frozen_loss_value), (rt.loss_deriv1, frozen_loss_deriv1),
               (rt.loss_deriv2, frozen_loss_deriv2)]

    @staticmethod
    def points():
        rng = np.random.default_rng(5)
        # the shortfalls of a table row, both tails of the smoothing, and
        # zeros, subnormals, |x|/eps beyond 700 (where exp underflows), the
        # clamped left tail of smoothed_pos_sq(0.234375) at -9, huge values,
        # infinities and nan
        return np.concatenate([
            0.05 * rng.standard_normal(4000), EPS * rng.uniform(-60.0, 60.0, 4000),
            [0.0, -0.0, 5e-324, -5e-324, 7.5, -7.5, 400.0, -400.0, -9.0, 1e-300,
             -1e-300, 1e300, -1e300, 1.7e308, -1.7e308, np.inf, -np.inf, np.nan]])

    @pytest.mark.parametrize("spec", SPECS, ids=["quad", "l1", "l2", "l1-wide", "l2-wide"])
    @pytest.mark.parametrize("kernel,frozen", KERNELS, ids=["l", "lp", "lpp"])
    def test_bits_of_the_closed_form_on_arrays(self, spec, kernel, frozen):
        x = self.points()
        for arg in (x, x[::3]):               # contiguous and strided
            keep = arg.copy()
            with np.errstate(all="ignore"):   # the infinities overflow
                got, ref = kernel(spec, arg), frozen(spec, arg)
            assert np.array_equal(_bits(got), _bits(ref))
            assert np.array_equal(_bits(arg), _bits(keep))
            assert not np.shares_memory(got, x)

    @pytest.mark.parametrize("spec", SPECS, ids=["quad", "l1", "l2", "l1-wide", "l2-wide"])
    @pytest.mark.parametrize("kernel,frozen", KERNELS, ids=["l", "lp", "lpp"])
    def test_bits_of_the_closed_form_on_scalars(self, spec, kernel, frozen):
        x = self.points()
        for v in np.concatenate([x[:8000:400], x[8000:]]):
            zero_d = np.asarray(v)
            with np.errstate(all="ignore"):
                got, ref = kernel(spec, zero_d), frozen(spec, v)
                got_float = kernel(spec, float(v))
            assert type(got) is float and type(got_float) is float
            assert _bits(got) == _bits(ref) == _bits(got_float)
            assert _bits(zero_d) == _bits(v)

    @pytest.mark.parametrize("spec", SPECS, ids=["quad", "l1", "l2", "l1-wide", "l2-wide"])
    def test_terms_have_the_bits_of_each_closed_form(self, spec):
        x = self.points()
        frozen = [ref for _, ref in self.KERNELS]
        for arg in (x, x[::3]):               # contiguous and strided
            keep = arg.copy()
            with np.errstate(all="ignore"):
                got = _terms(spec, arg)
                refs = [ref(spec, arg) for ref in frozen]
                alone = _terms(spec, arg, derivs=False)
            assert len(got) == 3 and len(alone) == 1
            for a, b in zip(got + alone, refs + refs[:1]):
                assert np.array_equal(_bits(a), _bits(b))
                assert not np.shares_memory(a, x)
            for i, j in ((0, 1), (0, 2), (1, 2)):
                assert not np.shares_memory(got[i], got[j])
            assert np.array_equal(_bits(arg), _bits(keep))
        for v in np.concatenate([x[:8000:400], x[8000:]]):
            with np.errstate(all="ignore"):
                got = _terms(spec, np.asarray(v))
                refs = [ref(spec, v) for ref in frozen]
            for a, b in zip(got, refs):
                assert _bits(a) == _bits(b)


class TestPayoff:
    def test_exact_replication(self):
        u = np.array([0.5, 0.5])
        R = np.array([1.02, 1.02])
        value_q, _ = rt.payoff_H(QUAD, u, R, 1.02)
        assert value_q == pytest.approx(0.0, abs=1e-15)
        value_s, _ = rt.payoff_H(L1, u, R, 1.02)
        assert value_s == pytest.approx(-EPS**2 / 2, rel=1e-12)

    def test_hand_computed_univariate(self):
        value, grad = rt.payoff_H(QUAD, np.array([1.0]), np.array([1.01]), 1.02)
        assert value == pytest.approx(-1e-4, rel=1e-10)
        assert grad[0] == pytest.approx(0.0202, rel=1e-10)

    @pytest.mark.parametrize("spec", [QUAD, L1, L2], ids=["quad", "pos_sq", "plus"])
    def test_gradient_matches_fd(self, spec):
        rng = np.random.default_rng(12)
        for _ in range(20):
            d = rng.integers(1, 5)
            u = rng.standard_normal(d)
            R = 1.0 + 0.05 * rng.standard_normal(d)
            B = 1.0 + 0.05 * rng.standard_normal()
            _, grad = rt.payoff_H(spec, u, R, B)
            for j in range(d):
                def f(t, j=j):
                    v = u.copy()
                    v[j] = t
                    return rt.payoff_H(spec, v, R, B)[0]
                num = fd1(f, u[j])
                assert grad[j] == pytest.approx(num, rel=1e-6, abs=1e-9)

    @given(st.floats(-0.5, 0.5), st.floats(-0.5, 0.5))
    def test_payoff_nonpositive(self, r, b):
        for spec in (QUAD, L1, L2):
            value, _ = rt.payoff_H(spec, np.array([1.0]), np.array([1 + r]), 1 + b)
            assert value <= 1e-15

    def test_dimension_mismatch(self):
        with pytest.raises(ValueError):
            rt.payoff_H(QUAD, np.ones(2), np.ones(3), 1.0)


class TestRawLosses:
    def test_values(self):
        assert rt.raw_loss_value(QUAD, -0.2) == pytest.approx(0.04)
        assert rt.raw_loss_value(L1, -0.2) == 0.0
        assert rt.raw_loss_value(L1, 0.2) == pytest.approx(0.04)
        assert rt.raw_loss_value(L2, -0.2) == 0.0
        assert rt.raw_loss_value(L2, 0.2) == pytest.approx(0.2)


class TestSpecValidation:
    def test_requires_positive_epsilon(self):
        with pytest.raises(ValueError):
            rt.LossSpec(kind="smoothed_pos_sq", epsilon=0.0)

    def test_unknown_kind(self):
        with pytest.raises(ValueError):
            rt.LossSpec(kind="huber")

    def test_default_epsilon(self):
        assert rt.LossSpec.smoothed_pos_sq().epsilon == 0.01
