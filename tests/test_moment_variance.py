"""Asymptotic variances of the quadruple family from closed moments.

The moment route (`influence._moment_variance`) reads sigma^2 as a
quadratic form in E X^2, E h(X)^2 and E X h(X). Here it is checked against
two truths that share no code with it:
- 30-digit mpmath, over Pareto and Singh-Maddala tails up to the moment
  boundaries. The truth takes each log-power moment as a numerical
  c-derivative (`mp.diff`) of the kind's power moment E X^c, and the IF's
  coefficients as numerical partial derivatives of T in (E h, mu), as
  `bench/reference.py` does; a cell is infinite where a moment it needs
  lies outside the power moment's domain;
- the IF^2 quadrature (`influence._quadrature_variance`) on the unit
  fleet.
"""
import pytest

from ineqif import influence, parse_measure_id
from ineqif.cli import parse_distribution
from ineqif.errors import MomentDiverges

mp = pytest.importorskip("mpmath")

# every scale-invariant family, with GE and Atkinson on both sides of 0 and 1
MOMENT_IDS = ("ge:2", "ge:0.5", "ge:-1", "theil", "mld", "atkinson:0.5",
              "atkinson:-1", "champernowne")
PARETO_SHAPES = (2.05, 2.1, 2.5, 3.0, 3.9, 4.1, 4.5, 6.0)
# within 0.1 of each boundary the ids meet: a q = 2 (E X^2), a q = 4
# (GE(2)'s E X^4) and a = 2 (GE(-1)'s E X^-2), on both sides
SM_SPECS = ("sm:2,1,0.95", "sm:2,1,1.05", "sm:2,1,1.95", "sm:2,1,2.05",
            "sm:1.9,1,3", "sm:2,1,3", "sm:2.1,1,3")
GRID = tuple(f"pareto:{k},1" for k in PARETO_SHAPES) + SM_SPECS


def _power_moment(spec):
    """(c -> E X^c in mpmath, the open c-interval where it is finite)."""
    kind, _, rest = spec.partition(":")
    p = [mp.mpf(float(t)) for t in rest.split(",")]
    if kind == "exp":
        (rate,) = p
        return (lambda c: mp.gamma(1 + c) / rate ** c), (-1, mp.inf)
    if kind == "pareto":
        k, s = p
        return (lambda c: k * s ** c / (k - c)), (-mp.inf, k)
    if kind == "lognormal":
        m, sigma = p
        return (lambda c: mp.exp(c * m + (c * sigma) ** 2 / 2)), (-mp.inf,
                                                                   mp.inf)
    a, b, q = p
    return (lambda c: b ** c * mp.gamma(1 + c / a) * mp.gamma(q - c / a)
            / mp.gamma(q)), (-a, a * q)


# h as (c, k, sign): h(x) = sign x^c log^k x
H = {"theil": (1, 1, 1), "mld": (0, 1, -1), "champernowne": (0, 1, 1)}


def _quadruple(mid, param):
    """T(E h, mu) = tau(E h/h1(mu) - h2(mu)) in mpmath."""
    a = param
    if mid.startswith("ge:"):
        return lambda e, mu: (e / mu ** a - 1) / (a * (a - 1))
    if mid.startswith("atkinson:"):
        return lambda e, mu: 1 - (e / mu ** a) ** (1 / a)
    if mid == "theil":
        return lambda e, mu: e / mu - mp.log(mu)
    if mid == "mld":
        return lambda e, mu: e + mp.log(mu)
    return lambda e, mu: 1 - mp.exp(e - mp.log(mu))


def mpmath_variance(mid, spec):
    """sigma^2 at 30 digits, or inf where a moment it reads is infinite."""
    with mp.workdps(30):
        M, (lo, hi) = _power_moment(spec)
        name, _, raw = mid.partition(":")
        param = mp.mpf(float(raw)) if raw else None
        c, k, sign = H.get(mid, (param, 0, 1))
        # E h, E h^2 and E X h as moments E X^c log^k X
        needs = ((c, k), (2 * c, 2 * k), (c + 1, k))
        if not all(lo < cc < hi for cc, _ in needs + ((2, 0),)):
            return mp.inf
        moment = lambda cc, kk: mp.diff(M, cc, kk) if kk else M(cc)
        eh, eh2, exh = (moment(cc, kk) for cc, kk in needs)
        eh, exh = sign * eh, sign * exh
        mu, ex2 = M(1), M(2)
        T = _quadruple(mid, param)
        t_e = mp.diff(lambda e: T(e, mu), eh)
        t_mu = mp.diff(lambda m: T(eh, m), mu)
        return (t_e ** 2 * (eh2 - eh ** 2) + 2 * t_e * t_mu * (exh - mu * eh)
                + t_mu ** 2 * (ex2 - mu ** 2))


@pytest.mark.parametrize("spec", GRID)
@pytest.mark.parametrize("mid", MOMENT_IDS)
def test_moment_route_matches_mpmath_to_the_boundary(mid, spec):
    T = parse_measure_id(mid)
    F = parse_distribution(spec)
    truth = mpmath_variance(mid, spec)
    if mp.isinf(truth):
        with pytest.raises(MomentDiverges):
            influence._moment_variance(T.spec, F)
        return
    sigma2 = influence._moment_variance(T.spec, F)
    assert sigma2 is not None  # the route serves every finite cell here
    assert sigma2 == pytest.approx(float(truth), rel=1e-10)


@pytest.mark.parametrize("mid,spec", [
    ("ge:2", "pareto:2.05,1"), ("ge:2", "pareto:3,1"), ("ge:2", "pareto:3.9,1"),
    ("ge:-1", "exp:1"), ("ge:-1", "sm:2,1,3"),
    # E X^-1 = integral of e^-x/x diverges at 0
    ("ge:-0.5", "exp:1"),
])
def test_infinite_variance_raises_at_once(mid, spec):
    assert mp.isinf(mpmath_variance(mid, spec))
    with pytest.raises(MomentDiverges):
        influence.asymptotic_variance(parse_measure_id(mid),
                                      parse_distribution(spec))


@pytest.mark.parametrize("mid,spec,sigma2", [
    ("ge:2", "pareto:4.1,1", 2.63072003003),
    ("ge:0.5", "pareto:2.05,1", 30.2714974931),
])
def test_finite_variances_the_quadrature_missed(mid, spec, sigma2):
    value = influence.asymptotic_variance(parse_measure_id(mid),
                                          parse_distribution(spec))
    assert value == pytest.approx(sigma2, rel=1e-11)


ACCEPTANCE_FLEET = ("exp:1", "uniform:0,1", "pareto:3,1", "lognormal:0,0.5")
FLEET_IDS = MOMENT_IDS + ("ge:3", "ge:-0.5", "kolm:1", "kolm:3")


@pytest.mark.parametrize("spec", ACCEPTANCE_FLEET)
@pytest.mark.parametrize("mid", FLEET_IDS)
def test_moment_route_matches_the_quadrature_on_the_fleet(mid, spec):
    T = parse_measure_id(mid)
    F = parse_distribution(spec)
    try:
        sigma2 = influence._moment_variance(T.spec, F)
    except MomentDiverges:
        return  # the infinite cells are checked against mpmath above
    if T.spec.family == "kolm" and F.kind in ("pareto", "lognormal"):
        assert sigma2 is None  # no closed E e^{-2aX} there
        return
    assert sigma2 is not None
    assert sigma2 == pytest.approx(influence._quadrature_variance(T, F),
                                   rel=1e-9)


@pytest.mark.parametrize("mid", ["ge:2", "theil", "ge:0.5"])
def test_near_equality_takes_the_quadrature(mid):
    # the six terms cancel to 1e-15 from order one: unguarded, the route
    # reads 1.3878e-15 for GE(2), 2.6e-15 for Theil and a value <= 0 for
    # GE(0.5), where each sigma^2 is about 1.3861e-15
    T = parse_measure_id(mid)
    F = parse_distribution("uniform:1,1.001")
    assert influence._moment_variance(T.spec, F) is None
    assert influence.asymptotic_variance(T, F) == pytest.approx(
        1.3861e-15, rel=1e-4)


def test_the_route_reads_no_quadrature(monkeypatch):
    def never(*args):
        raise AssertionError("the moment route integrated")

    monkeypatch.setattr(influence, "_quadrature_variance", never)
    for spec in ("exp:1", "pareto:4.1,50000", "lognormal:10,0.5",
                 "sm:2,1,3", "uniform:0,1"):
        F = parse_distribution(spec)
        for mid in ("ge:2", "theil", "mld", "atkinson:0.5", "champernowne"):
            assert influence.asymptotic_variance(parse_measure_id(mid), F) > 0
