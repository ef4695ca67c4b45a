import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from ineqif.errors import (
    InvalidInterval,
    InvalidParameter,
    NoisyLimit,
    NonConvergence,
)
from ineqif.numeric import (
    DEFAULT_TOL,
    Tolerance,
    bisect_nondecreasing,
    derivative_at_zero_plus,
    integrate,
)


class TestTolerance:
    def test_defaults(self):
        assert DEFAULT_TOL.abs_tol == 1e-10
        assert DEFAULT_TOL.rel_tol == 1e-9
        assert DEFAULT_TOL.max_subdivisions == 2000

    @pytest.mark.parametrize("kwargs", [
        {"abs_tol": 0.0},
        {"abs_tol": -1e-3},
        {"rel_tol": 0.0},
        {"max_subdivisions": 0},
        {"abs_tol": math.inf},
        {"abs_tol": math.nan},
        {"rel_tol": math.inf},
        {"rel_tol": math.nan},
    ])
    def test_rejects_bad_fields(self, kwargs):
        with pytest.raises(InvalidParameter):
            Tolerance(**kwargs)


class TestIntegrate:
    def test_polynomial_exactness(self):
        assert integrate(lambda x: x, 0.0, 1.0) == pytest.approx(0.5, abs=1e-12)

    def test_unit_exponential_normalization(self):
        value = integrate(lambda x: np.exp(-x), 0.0, math.inf)
        assert value == pytest.approx(1.0, abs=1e-9)

    def test_second_moment_against_gauss_laguerre(self):
        # independent oracle: high-order Gauss-Laguerre nodes integrate
        # x^2 e^-x exactly; recursive integration by parts gives Gamma(3)=2
        nodes, weights = np.polynomial.laguerre.laggauss(40)
        oracle = float(weights @ nodes ** 2)
        assert oracle == pytest.approx(2.0, abs=1e-10)
        value = integrate(lambda x: x ** 2 * np.exp(-x), 0.0, math.inf)
        assert value == pytest.approx(oracle, abs=1e-9)

    def test_invalid_interval(self):
        with pytest.raises(InvalidInterval):
            integrate(lambda x: x, 1.0, 0.0)
        with pytest.raises(InvalidInterval):
            integrate(lambda x: x, 2.0, 2.0)

    def test_divergent_integral_reports_budget_exhaustion(self):
        with pytest.raises(NonConvergence) as excinfo:
            integrate(lambda x: 1.0 / x, 0.0, 1.0,
                      Tolerance(max_subdivisions=300))
        err = excinfo.value
        assert err.estimate > 10.0  # partial sums keep growing
        assert err.error_bound > 0.0

    def test_integrable_log_singularity(self):
        value = integrate(lambda x: np.log(x), 0.0, 1.0)
        assert value == pytest.approx(-1.0, abs=1e-9)

    @settings(max_examples=25, deadline=None)
    @given(a=st.floats(-3, 3), b=st.floats(-3, 3))
    def test_linearity(self, a, b):
        g = lambda x: np.sin(x)
        h = lambda x: x ** 2
        lhs = integrate(lambda x: a * g(x) + b * h(x), 0.0, 2.0)
        rhs = a * integrate(g, 0.0, 2.0) + b * integrate(h, 0.0, 2.0)
        assert lhs == pytest.approx(rhs, abs=2e-10 * (1 + abs(a) + abs(b)))

    @settings(max_examples=25, deadline=None)
    @given(split=st.floats(0.05, 1.95))
    def test_interval_additivity(self, split):
        g = lambda x: np.exp(-x) * np.cos(3 * x)
        whole = integrate(g, 0.0, 2.0)
        parts = integrate(g, 0.0, split) + integrate(g, split, 2.0)
        assert whole == pytest.approx(parts, abs=2e-10)


class TestDerivativeAtZeroPlus:
    def test_exact_linear_slope(self):
        est = derivative_at_zero_plus(lambda e: 3.0 * e)
        assert est.value == pytest.approx(3.0, rel=1e-12)

    def test_constant_zero(self):
        est = derivative_at_zero_plus(lambda e: 0.0)
        assert est.value == 0.0

    def test_quadratic_remainder(self):
        est = derivative_at_zero_plus(lambda e: e + e * e,
                                      steps=(1e-2, 1e-3, 1e-4))
        assert est.value == pytest.approx(1.0, abs=1e-6)

    @settings(max_examples=30, deadline=None)
    @given(slope=st.floats(-50, 50))
    def test_linear_is_machine_accurate(self, slope):
        est = derivative_at_zero_plus(lambda e: slope * e)
        assert est.value == pytest.approx(slope, rel=1e-12, abs=1e-12)

    def test_needs_three_decreasing_steps(self):
        with pytest.raises(InvalidParameter):
            derivative_at_zero_plus(lambda e: e, steps=(1e-2, 1e-3))
        with pytest.raises(InvalidParameter):
            derivative_at_zero_plus(lambda e: e, steps=(1e-3, 1e-2, 1e-4))

    def test_regime_switch_raises_noisy_limit(self):
        # slope jumps between schedule points: a non-differentiable signal
        def phi(e):
            return e if e >= 5e-4 else 2.0 * e

        with pytest.raises(NoisyLimit):
            derivative_at_zero_plus(phi)


class TestBisect:
    def test_converges_onto_jump(self):
        f = lambda x: 0.0 if x < 2.0 else 1.0
        root = bisect_nondecreasing(f, 0.5, 0.0, 5.0, xtol=1e-12)
        assert root == pytest.approx(2.0, abs=1e-9)

    def test_bad_bracket(self):
        with pytest.raises(InvalidParameter):
            bisect_nondecreasing(lambda x: x, 10.0, 0.0, 1.0)
