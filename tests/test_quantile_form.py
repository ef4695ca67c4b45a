"""Moments in probability space, E g(X) = integral of g(Q(p)) over [0, 1].

Two kinds of check. The x-space route, g times the scipy.stats density
under scipy's QUADPACK, shares no code with the quantile form (no
quantile, no inverse survival function, no grading, no ineqif quadrature),
so agreement between the two checks both. And cells that the x-space route
could not compute, at income scale or near a moment boundary, are checked
against their closed forms.
"""
import math

import numpy as np
import pytest

from ineqif import (
    DEFAULT_MEASURE_IDS,
    asymptotic_variance,
    parse_measure_id,
)
from ineqif.cli import parse_distribution
from ineqif.distributions import _graded_tails

UNIT_FLEET = ("exp:1", "uniform:0,1", "pareto:3,1", "lognormal:0,0.5",
              "sm:2,1,3")


def _moment_integrands():
    """(name, g) for the h of every default id with one, the Gini first
    moment x F(x) (gini and qsr have no h), and the GE(-0.5) power."""
    out = {}
    for mid in DEFAULT_MEASURE_IDS + ("ge:-0.5",):
        spec = parse_measure_id(mid).spec
        if spec is not None:
            out[spec.h_key] = spec.h
    out["gini_first_moment"] = None  # built per model: it reads F.cdf
    return sorted(out.items())


@pytest.mark.parametrize("name,h", _moment_integrands())
@pytest.mark.parametrize("spec", UNIT_FLEET)
def test_quantile_form_matches_the_density_route(spec, name, h,
                                                  density_expect):
    F = parse_distribution(spec)
    if h is None:
        h = lambda x: np.asarray(x, dtype=float) * F.cdf(x)  # noqa: E731
    reference = density_expect(F, h)
    assert F.expect(h) == pytest.approx(reference, rel=1e-10, abs=1e-12)

    # a node whose p = u**8 underflows to 0 adds nothing, even where h is
    # infinite (log 0, 0**-0.5) or the upper quantile is
    us = np.array([0.0, 1e-50, 1e-45])
    values = _graded_tails(F, h)(us)
    assert not np.isnan(values).any()
    assert (values == 0.0).all()


@pytest.mark.parametrize("spec,mld,ge_m05", [
    # MLD = log mu - E log X; GE(-0.5) = (E X^-0.5 / mu^-0.5 - 1) / 0.75
    ("exp:1", 0.5772156649015329, (math.sqrt(math.pi) - 1.0) / 0.75),
    ("uniform:0,1", 1.0 - math.log(2.0), (math.sqrt(2.0) - 1.0) / 0.75),
])
def test_moments_with_an_infinite_end_are_finite(spec, mld, ge_m05):
    F = parse_distribution(spec)
    assert parse_measure_id("mld").evaluate(F) == pytest.approx(mld, rel=1e-9)
    assert parse_measure_id("ge:-0.5").evaluate(F) == pytest.approx(ge_m05,
                                                                    rel=1e-9)


@pytest.mark.parametrize("spec", UNIT_FLEET)
def test_inverse_survival_is_the_upper_quantile(spec):
    F = parse_distribution(spec)
    ss = np.array([0.05, 0.25, 0.5])
    assert F.isf_array(ss) == pytest.approx(F.quantile_array(1.0 - ss),
                                            rel=1e-12)
    low, high = F._tail_quantiles(ss)
    assert low == pytest.approx(F.quantile_array(ss), rel=1e-12)
    assert high == pytest.approx(F.isf_array(ss), rel=1e-12)
    # where 1 - s rounds to 1 the upper quantile is still finite
    assert np.isfinite(F.isf_array(np.array([1e-300]))).all()


def _pareto_qsr_variance(k: float) -> float:
    """The QSR's sigma^2 on pareto:k,1 in closed form. On each quintile
    piece the IF is a + b z, and z = s**(-1/k) in s = 1 - p."""
    c = 1.0 / k
    mu = k / (k - 1.0)
    q1, q4 = 0.8 ** -c, 0.2 ** -c
    d = mu * (1.0 - q1 ** (1.0 - k))  # E X 1{X <= Q(0.2)}
    n = mu * q4 ** (1.0 - k)          # E X 1{X > Q(0.8)}

    def piece(a, b, lo, hi):
        def antiderivative(t):
            return (a * a * t ** (1.0 - 2.0 * c) / (1.0 - 2.0 * c)
                    + 2.0 * a * b * t ** (1.0 - c) / (1.0 - c) + b * b * t)

        return antiderivative(hi) - antiderivative(lo)

    low = piece(-n / d ** 2, (0.2 * q4 * d + 0.8 * q1 * n) / d ** 2, 0.8, 1.0)
    mid = 0.6 * ((0.2 * q4 * d - 0.2 * q1 * n) / d ** 2) ** 2
    high = piece(1.0 / d, (-0.8 * q4 * d - 0.2 * q1 * n) / d ** 2, 0.0, 0.2)
    return low + mid + high


def _pareto_ge2_variance(k: float) -> float:
    """GE(2)'s sigma^2 on pareto:k,1 from the moments m_j = k/(k-j): the IF
    is (z^2 - m2)/(2 mu^2) - m2 (z - mu)/mu^3."""
    mu, m2, m3, m4 = (k / (k - j) for j in (1, 2, 3, 4))
    return ((m4 - m2 * m2) / (4.0 * mu ** 4) - m2 * (m3 - m2 * mu) / mu ** 5
            + m2 * m2 * (m2 - mu * mu) / mu ** 6)


class TestClearedFaults:
    """Cells that the x-space quadrature got wrong or could not compute."""

    @pytest.mark.parametrize("mid", ["gini", "theil", "mld"])
    def test_lognormal_at_income_scale_equals_unit_scale(self, mid):
        T = parse_measure_id(mid)
        dollars = T.evaluate(parse_distribution("lognormal:10,0.5"))
        unit = T.evaluate(parse_distribution("lognormal:0,0.5"))
        assert dollars == pytest.approx(unit, rel=1e-9)

    def test_lognormal_closed_forms(self):
        # Theil = MLD = sigma^2/2, Gini = 2 Phi(sigma/sqrt 2) - 1 = erf(sigma/2)
        F = parse_distribution("lognormal:10,0.5")
        expected = {"theil": 0.125, "mld": 0.125, "gini": math.erf(0.25)}
        for mid, value in expected.items():
            assert parse_measure_id(mid).evaluate(F) == pytest.approx(
                value, rel=1e-9)

    @pytest.mark.parametrize("k", [1.05, 1.1, 1.5])
    def test_pareto_gini_near_the_mean_boundary(self, k):
        F = parse_distribution(f"pareto:{k},1")
        assert parse_measure_id("gini").evaluate(F) == pytest.approx(
            1.0 / (2.0 * k - 1.0), rel=1e-9)

    def test_pareto_theil_near_the_mean_boundary(self):
        k = 1.5
        F = parse_distribution(f"pareto:{k},1")
        assert parse_measure_id("theil").evaluate(F) == pytest.approx(
            math.log((k - 1.0) / k) + 1.0 / (k - 1.0), rel=1e-9)

    @pytest.mark.parametrize("spec,mid,sigma2", [
        ("pareto:2.5,1", "gini", 15.0 / 44.0),
        ("pareto:2.5,1", "theil", 6.4),
        ("pareto:2.5,1", "mld", 32.0 / 75.0),
        ("pareto:2.5,1", "qsr", _pareto_qsr_variance(2.5)),
        ("pareto:4.5,1", "ge:2", _pareto_ge2_variance(4.5)),
    ])
    def test_pareto_variances_near_the_moment_boundary(self, spec, mid,
                                                       sigma2):
        F = parse_distribution(spec)
        assert asymptotic_variance(parse_measure_id(mid), F) == pytest.approx(
            sigma2, rel=1e-9)

    @pytest.mark.parametrize("sigma", [0.5, 3.0])
    def test_lognormal_mld_variance(self, sigma):
        # Var(X/mu - log X) = e^{sigma^2} - 1 - sigma^2
        F = parse_distribution(f"lognormal:0,{sigma}")
        assert asymptotic_variance(parse_measure_id("mld"), F) == pytest.approx(
            math.expm1(sigma ** 2) - sigma ** 2, rel=1e-9)
