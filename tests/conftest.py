import math

import numpy as np
import pytest
from scipy import integrate, stats

from ineqif import (
    Exponential,
    LogNormal,
    Pareto,
    SinghMaddala,
    Uniform,
    make_distribution,
)

FLEET_SPECS = ("exp:1", "uniform:0,1", "pareto:3,1", "lognormal:0,0.5")


def build_distribution(spec: str):
    name, _, rest = spec.partition(":")
    params = [float(tok) for tok in rest.split(",")] if rest else []
    return make_distribution(name, *params)


@pytest.fixture(scope="session")
def fleet():
    """The four reference distributions used throughout the suite."""
    return {spec: build_distribution(spec) for spec in FLEET_SPECS}


def _invert_cdf_by_bisection(G, ps, steps=120):
    """inf{x >= 0 : G.cdf(x) >= p} for every p at once, from G.cdf alone."""
    ps = np.asarray(ps, dtype=float)
    lo = np.zeros_like(ps)
    hi = np.ones_like(ps)
    while np.any(np.asarray(G.cdf(hi)) < ps):
        hi *= 2.0
    for _ in range(steps):
        mid = 0.5 * (lo + hi)
        reached = np.asarray(G.cdf(mid)) >= ps
        hi = np.where(reached, mid, hi)
        lo = np.where(reached, lo, mid)
    return np.where(np.asarray(G.cdf(0.0)) >= ps, 0.0, hi)


@pytest.fixture(scope="session")
def invert_cdf():
    """Brute-force generalized inverse, independent of any quantile method."""
    return _invert_cdf_by_bisection


def _scipy_law(F):
    """The scipy.stats law of a parametric model, from its parameters."""
    if isinstance(F, Exponential):
        return stats.expon(scale=1.0 / F.rate)
    if isinstance(F, Pareto):
        return stats.pareto(F.shape, scale=F.scale)
    if isinstance(F, LogNormal):
        return stats.lognorm(F.sigma, scale=math.exp(F.log_mean))
    if isinstance(F, SinghMaddala):
        return stats.burr12(F.a, F.q, scale=F.b)
    if isinstance(F, Uniform):
        return stats.uniform(F.lo, F.hi - F.lo)
    raise TypeError(f"no scipy law for {F.descriptor()}")


def _density_expect(F, g, upper=math.inf, points=()):
    """E g(X) 1{X <= upper} in x-space: g times the scipy density under
    scipy's QUADPACK, split at the median and at `points`. It shares no
    code with ineqif's quadrature, quantiles or grading."""
    law = _scipy_law(F)
    lo, hi = law.support()
    hi = min(hi, upper)
    cuts = sorted({lo, hi} | {x for x in (law.median(), *points) if lo < x < hi})
    f = lambda x: float(g(x)) * float(law.pdf(x))  # noqa: E731
    return sum(integrate.quad(f, a, b, epsabs=1e-13, epsrel=1e-12,
                              limit=200)[0]
               for a, b in zip(cuts[:-1], cuts[1:]))


@pytest.fixture(scope="session")
def density_expect():
    """x-space expectations of parametric models, independent of ineqif's
    quadrature layer."""
    return _density_expect
