import heapq
import math

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from scipy import stats

from ineqif import numeric
from ineqif.errors import (
    InvalidInterval,
    InvalidParameter,
    NoisyLimit,
    NonConvergence,
)
from ineqif.numeric import (
    bisect_nondecreasing,
    derivative_at_zero_plus,
    integrate,
)
from ineqif.numeric import _WG, _WGK, _XGK, _make_evaluator


def _half_line(f):
    """The integrand on (0, 1) whose integral is that of f on (0, inf),
    under x = t/(1-t)."""
    def mapped(t):
        w = 1.0 - np.asarray(t)
        return f(t / w) / (w * w)
    return mapped


class TestIntegrate:
    def test_polynomial_exactness(self):
        assert integrate(lambda x: x, 0.0, 1.0) == pytest.approx(0.5, abs=1e-12)

    def test_unit_exponential_normalization(self):
        value = integrate(_half_line(lambda x: np.exp(-x)), 0.0, 1.0)
        assert value == pytest.approx(1.0, abs=1e-9)

    def test_second_moment_against_gauss_laguerre(self):
        # independent oracle: high-order Gauss-Laguerre nodes integrate
        # x^2 e^-x exactly; recursive integration by parts gives Gamma(3)=2
        nodes, weights = np.polynomial.laguerre.laggauss(40)
        oracle = float(weights @ nodes ** 2)
        assert oracle == pytest.approx(2.0, abs=1e-10)
        value = integrate(_half_line(lambda x: x ** 2 * np.exp(-x)), 0.0, 1.0)
        assert value == pytest.approx(oracle, abs=1e-9)

    def test_default_subdivision_budget(self):
        # ~1.6e5 periods: 2000 panels of 15 nodes cannot resolve them
        with pytest.raises(NonConvergence) as excinfo:
            integrate(lambda x: np.sin(1e6 * x), 0.0, 1.0)
        assert "subdivision budget 2000 exhausted" in str(excinfo.value)

    def test_invalid_interval(self):
        with pytest.raises(InvalidInterval):
            integrate(lambda x: x, 1.0, 0.0)
        with pytest.raises(InvalidInterval):
            integrate(lambda x: x, 2.0, 2.0)

    def test_divergent_integral_reports_budget_exhaustion(self, monkeypatch):
        monkeypatch.setattr(numeric, "_MAX_SUBDIVISIONS", 300)
        with pytest.raises(NonConvergence) as excinfo:
            integrate(lambda x: 1.0 / x, 0.0, 1.0)
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


# The adaptive loop as it was with one Gauss-Kronrod panel per integrand
# call. `integrate`, which evaluates panels ahead of its loop, must follow
# the same panel sequence.
_REF_NODES = np.concatenate([-_XGK[:-1], _XGK[::-1]])
_REF_WEIGHTS_K = np.concatenate([_WGK[:-1], _WGK[::-1]])
_REF_GAUSS_IDX = np.arange(1, 15, 2)
_REF_WEIGHTS_G = np.concatenate([_WG[:-1], _WG[::-1]])


def _reference_gk15(evaluate, a, b):
    centre = 0.5 * (a + b)
    half = 0.5 * (b - a)
    with np.errstate(all="ignore"):
        fx = evaluate(centre + half * _REF_NODES)
        resk = half * float(_REF_WEIGHTS_K @ fx)
        resg = half * float(_REF_WEIGHTS_G @ fx[_REF_GAUSS_IDX])
        err = abs(resk - resg)
        resasc = half * float(_REF_WEIGHTS_K @ np.abs(fx - resk / (b - a)))
        if resasc != 0.0 and err != 0.0:
            err = resasc * min(1.0, (200.0 * err / resasc) ** 1.5)
        resabs = half * float(_REF_WEIGHTS_K @ np.abs(fx))
    round_off = 50.0 * np.finfo(float).eps * resabs
    return resk, max(err, round_off)


def _reference_integrate(g, a, b):
    """(value, splits) of the one-panel-per-call loop, at `integrate`'s
    error target."""
    if not (math.isfinite(a) and math.isfinite(b)):
        raise InvalidInterval(f"invalid interval ({a}, {b})")
    if not a < b:
        raise InvalidInterval(f"need a < b, got ({a}, {b})")
    evaluate, lo, hi = _make_evaluator(g), float(a), float(b)

    value, err = _reference_gk15(evaluate, lo, hi)
    if not math.isfinite(value):
        raise NonConvergence("non-finite integrand values", value, math.inf)
    heap = [(-err, 0, lo, hi, value, err)]
    counter = 1
    total_value, total_err = value, err
    splits = 0
    while total_err > max(numeric._ABS_TOL,
                          numeric._REL_TOL * abs(total_value)):
        if splits >= numeric._MAX_SUBDIVISIONS:
            raise NonConvergence("budget exhausted", total_value, total_err)
        _, _, pa, pb, pval, perr = heapq.heappop(heap)
        mid = 0.5 * (pa + pb)
        if not (pa < mid < pb):
            raise NonConvergence("too small", total_value, total_err)
        v1, e1 = _reference_gk15(evaluate, pa, mid)
        v2, e2 = _reference_gk15(evaluate, mid, pb)
        if not (math.isfinite(v1) and math.isfinite(v2)):
            raise NonConvergence("non-finite integrand values", total_value, math.inf)
        total_value += (v1 + v2) - pval
        total_err += (e1 + e2) - perr
        heapq.heappush(heap, (-e1, counter, pa, mid, v1, e1))
        heapq.heappush(heap, (-e2, counter + 1, mid, pb, v2, e2))
        counter += 2
        splits += 1
    return total_value, splits


def _recording(g):
    """g, plus the list of node counts of each call made to it."""
    sizes = []

    def recorded(x):
        sizes.append(np.size(x))
        return g(x)

    return recorded, sizes


def _nan_at_one_kronrod_node(a, b):
    """The constant 1, except NaN at the first Kronrod node of the panel
    (a, b), as `integrate` places it."""
    node = 0.5 * (a + b) + 0.5 * (b - a) * _REF_NODES[0]
    return lambda x: np.where(np.asarray(x) == node, np.nan, 1.0)


def _moment(law, h):
    return lambda x: h(x) * law.pdf(x)


_MODELS = [("exp:1", stats.expon()), ("lognormal:0,0.5", stats.lognorm(0.5)),
           ("sm:2,1,3", stats.burr12(2.0, 3.0))]
_MOMENTS = [("x", lambda x: x), ("xlogx", lambda x: x * np.log(x)),
            ("x^2", lambda x: x * x)]
_MOMENT_CASES = [
    pytest.param(_moment(law, h), 0.0, 3.0, id=f"{name}-{hid}-0.0-3.0")
    for name, law in _MODELS for hid, h in _MOMENTS
] + [
    pytest.param(_half_line(_moment(law, h)), 0.0, 1.0,
                 id=f"{name}-{hid}-half-line")
    for name, law in _MODELS for hid, h in _MOMENTS
] + [pytest.param(lambda x: x ** -0.5, 0.0, 1.0, id="x^-0.5")]


class TestPairedPanels:
    """integrate evaluates panels ahead of its adaptive loop, several per
    call, and must otherwise match the one-panel-per-call loop bit for
    bit."""

    @pytest.mark.parametrize("g, a, b", _MOMENT_CASES)
    def test_matches_one_panel_reference(self, g, a, b):
        ref_value, splits = _reference_integrate(g, a, b)
        new_g, new_sizes = _recording(g)
        value = integrate(new_g, a, b)
        assert type(value) is float
        assert value == ref_value
        # the interval's bisection tree 3 levels down on the first call,
        # then a split panel's tree 2 levels down on each split that
        # finds its halves missing
        assert new_sizes == [225] + [90] * (len(new_sizes) - 1)
        assert len(new_sizes) <= 1 + splits

    @pytest.mark.parametrize("g, a, b", _MOMENT_CASES)
    def test_each_panel_matches_one_panel_reference(self, g, a, b):
        # integral and error estimate of every panel of a 31-panel call,
        # as one call per panel computes them
        evaluate = _make_evaluator(g)
        panels = numeric._bisection_tree(a, b, 4)
        with np.errstate(all="ignore"):
            batch = numeric._gk15(evaluate, panels)
        for panel in panels:
            assert batch[panel] == _reference_gk15(evaluate, *panel)

    def test_budget_exhaustion_matches_reference(self, monkeypatch):
        g = lambda x: 1.0 / x
        monkeypatch.setattr(numeric, "_MAX_SUBDIVISIONS", 5)
        with pytest.raises(NonConvergence):
            _reference_integrate(g, 0.0, 1.0)
        with pytest.raises(NonConvergence) as excinfo:
            integrate(g, 0.0, 1.0)
        assert "subdivision budget 5 exhausted" in str(excinfo.value)

    @pytest.mark.parametrize("g", [
        lambda x: np.full(np.shape(x), np.nan),
        lambda x: np.where(np.asarray(x) > 0.7, np.inf, 1.0),
    ], ids=["nan", "inf-on-a-later-panel"])
    def test_non_finite_integrand_matches_reference(self, g):
        with pytest.raises(NonConvergence):
            _reference_integrate(g, 0.0, 1.0)
        with pytest.raises(NonConvergence) as excinfo:
            integrate(g, 0.0, 1.0)
        assert "non-finite integrand values" in str(excinfo.value)

    @pytest.mark.parametrize("a, b", [(1.0, 0.0), (2.0, 2.0), (math.inf, 3.0),
                                      (0.0, math.nan), (0.0, math.inf)])
    def test_invalid_interval_matches_reference(self, a, b):
        with pytest.raises(InvalidInterval):
            _reference_integrate(lambda x: x, a, b)
        with pytest.raises(InvalidInterval):
            integrate(lambda x: x, a, b)

    def test_unused_non_finite_panel_raises_nothing(self):
        # evaluated ahead on the first call, never reached by the loop:
        # a constant converges on the whole interval (to b - a, up to
        # the rounding of the 15-digit weights)
        g = _nan_at_one_kronrod_node(0.0, 0.125)
        ref_value, splits = _reference_integrate(g, 0.0, 1.0)
        assert splits == 0
        assert integrate(g, 0.0, 1.0) == ref_value == pytest.approx(1.0, rel=1e-14)

    @pytest.mark.parametrize("budget", [3, 4])
    def test_used_non_finite_panel_raises_at_the_reference_split(
            self, monkeypatch, budget):
        # with no error target the loop splits the constant widest panel
        # first, and reaches [0, 1/8] on its 4th split
        g = _nan_at_one_kronrod_node(0.0, 0.125)
        monkeypatch.setattr(numeric, "_ABS_TOL", 0.0)
        monkeypatch.setattr(numeric, "_REL_TOL", 0.0)
        monkeypatch.setattr(numeric, "_MAX_SUBDIVISIONS", budget)
        with pytest.raises(NonConvergence) as ref:
            _reference_integrate(g, 0.0, 1.0)
        with pytest.raises(NonConvergence) as new:
            integrate(g, 0.0, 1.0)
        non_finite = "non-finite integrand values"
        assert (non_finite in str(ref.value)) == (budget == 4)
        assert (non_finite in str(new.value)) == (budget == 4)
        assert new.value.estimate == ref.value.estimate
        assert new.value.error_bound == ref.value.error_bound

    @settings(max_examples=60, deadline=None, derandomize=True)
    @given(c=st.floats(0.0, 4.0), lam=st.floats(0.0, 20.0),
           s=st.floats(0.0, 0.9), b=st.floats(0.01, 50.0),
           budget=st.sampled_from([numeric._MAX_SUBDIVISIONS, 6]))
    @example(c=0.0, lam=0.0, s=0.9, b=1.0, budget=6)  # exhausts the budget
    def test_power_exponential_matches_reference(self, c, lam, s, b, budget):
        g = lambda x: x ** c * np.exp(-lam * x) * x ** -s
        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(numeric, "_MAX_SUBDIVISIONS", budget)
            try:
                ref_value, _ = _reference_integrate(g, 0.0, b)
            except NonConvergence as exc:
                with pytest.raises(NonConvergence) as excinfo:
                    integrate(g, 0.0, b)
                assert excinfo.value.estimate == exc.estimate
                assert excinfo.value.error_bound == exc.error_bound
                return
            assert integrate(g, 0.0, b) == ref_value

    def test_scalar_only_integrand(self):
        g = lambda x: math.exp(-x) * math.sqrt(x)
        value = integrate(g, 0.0, 4.0)
        ref_value, _ = _reference_integrate(g, 0.0, 4.0)
        assert type(value) is float
        assert value == ref_value
        assert value == pytest.approx(
            math.gamma(1.5) * math.erf(2.0) - 2.0 * math.exp(-4.0), rel=1e-9)


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
