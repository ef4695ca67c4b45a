import numpy as np
import pytest

from ineqif import make_distribution

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
