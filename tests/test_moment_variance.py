"""Asymptotic variances from closed moments.

The moment route of the quadruple family (`influence._moment_variance`)
and the Gini's on the exponential, Pareto and uniform laws
(`influence._gini_variance`) read sigma^2 as a quadratic form in E X^2,
E h(X)^2 and E X h(X); the Gini's on the lognormal sums normal and
bivariate normal cdfs (`influence._lognormal_gini_variance`); the QSR's
(`influence._qsr_variance`) reads it from the stop-loss moments of its
piecewise-affine IF. Here they are checked against truths that share no
code with them:
- 30-digit mpmath, over Pareto and Singh-Maddala tails up to the moment
  boundaries. The truth takes each log-power moment as a numerical
  c-derivative (`mp.diff`) of the kind's power moment E X^c, and the IF's
  coefficients as numerical partial derivatives of T in (E h, mu), as
  `bench/reference.py` does; a cell is infinite where a moment it needs
  lies outside the power moment's domain;
- for the Gini and the QSR, 30-digit mpmath from the closed-form
  truncated moments of each kind (rational in k for the Pareto; the
  incomplete gamma function, the normal cdf, the regularized incomplete
  beta function and powers for the others): E IF^2 summed over the powers
  of z in each piece of the IF, as the IF is displayed, never through a
  quadrature; on the lognormal, the Gini's E IF^2 by 30-digit quadrature
  over the normal variate, and Phi2 at correlation 1/2 by integrating out
  one variate;
- the IF^2 quadrature (`influence._quadrature_variance`) on the unit
  fleet and over the benchmark's seeded shapes.
"""
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from ineqif import distributions, influence, parse_measure_id
from ineqif.cli import parse_distribution
from ineqif.errors import MomentDiverges
# the benchmark's seeded shapes at scales 1e-6 to 1e6
from test_closed_moments import _models as bench_models

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
        mids = ["ge:2", "theil", "mld", "atkinson:0.5", "champernowne", "qsr"]
        if F.kind != "singh_maddala":
            mids.append("gini")
        for mid in mids:
            assert influence.asymptotic_variance(parse_measure_id(mid), F) > 0


# ---------------------------------------------------------------------------
# The Gini and the QSR
# ---------------------------------------------------------------------------

def _pareto_moments(k, s):
    """M(j, lo, hi) = E[X^j 1{lo < X <= hi}] on pareto:k,s, rational in k."""
    def M(j, lo, hi):
        lo = max(lo, s)
        upper = 0 if hi == mp.inf else hi ** (j - k)
        return k * s ** k * (upper - lo ** (j - k)) / (j - k)
    return M


def _sm_moments(a, b, q):
    """M(j, lo, hi) on sm:a,b,q: E X^j times a regularized incomplete beta
    function of x(t) = w/(1 + w), w = (t/b)^a."""
    x = lambda t: 1 if t == mp.inf else (t / b) ** a / (1 + (t / b) ** a)

    def M(j, lo, hi):
        ej = b ** j * mp.gamma(1 + j / a) * mp.gamma(q - j / a) / mp.gamma(q)
        return ej * mp.betainc(1 + j / a, q - j / a, x(lo), x(hi),
                               regularized=True)
    return M


def _exp_moments(rate):
    """M(j, lo, hi) on exp:rate, through the incomplete gamma function."""
    return lambda j, lo, hi: mp.gammainc(j + 1, rate * lo, rate * hi) / rate ** j


def _lognormal_moments(m, sigma):
    """M(j, lo, hi) on lognormal:m,sigma: X^j tilts the law to
    lognormal(m + j sigma^2, sigma)."""
    def M(j, lo, hi):
        u = lambda t: mp.inf if t == mp.inf else (
            -mp.inf if t == 0 else (mp.log(t) - m - j * sigma ** 2) / sigma)
        return mp.exp(j * m + (j * sigma) ** 2 / 2) * (mp.ncdf(u(hi))
                                                       - mp.ncdf(u(lo)))
    return M


def _uniform_moments(a, b):
    """M(j, lo, hi) on uniform:a,b: a power over the clamped interval."""
    def M(j, lo, hi):
        lo, hi = min(max(lo, a), b), min(max(hi, a), b)
        return (hi ** (j + 1) - lo ** (j + 1)) / ((j + 1) * (b - a))
    return M


def _square_mean(M, pieces):
    """E IF^2 for an IF that is sum_i c_i z^(p_i) on each piece (lo, hi]."""
    return mp.fsum(ci * cj * M(pi + pj, lo, hi)
                   for lo, hi, terms in pieces
                   for ci, pi in terms for cj, pj in terms)


def qsr_truth(M, q1, q4):
    """sigma^2 of the QSR from the pieces I1, I2, I3 of its IF, each over
    D^2 as `influence._closed_if_vectorized` displays them."""
    d, n = M(1, 0, q1), M(1, q4, mp.inf)
    low = [((mp.mpf(2) / 10 * q4 * d + mp.mpf(8) / 10 * q1 * n) / d ** 2, 0),
           (-n / d ** 2, 1)]
    mid = [((mp.mpf(2) / 10 * q4 * d - mp.mpf(2) / 10 * q1 * n) / d ** 2, 0)]
    high = [((-mp.mpf(8) / 10 * q4 * d - mp.mpf(2) / 10 * q1 * n) / d ** 2, 0),
            (1 / d, 1)]
    pieces = [(0, q1, low), (q1, q4, mid), (q4, mp.inf, high)]
    mean = mp.fsum(c * M(p, lo, hi) for lo, hi, terms in pieces
                   for c, p in terms)
    assert abs(mean) < mp.mpf(10) ** -20  # E IF = 0
    return _square_mean(M, pieces)


def pareto_truths(k, s=1):
    """(Gini sigma^2, QSR sigma^2) on pareto:k,s at 30 digits. The Gini's
    IF 2[R - C(z)/mu + (z/mu)(R - 1 + F(z))] with F(z) = 1 - (s/z)^k,
    C(z) = mu (1 - (s/z)^(k-1)) and R = (k - 1)/(2k - 1) is a sum of
    powers z^0, z^1 and z^(1-k)."""
    with mp.workdps(30):
        k, s = mp.mpf(k), mp.mpf(s)
        M = _pareto_moments(k, s)
        mu = k * s / (k - 1)
        R = (k - 1) / (2 * k - 1)
        gini_if = [(2 * (R - 1), 0), (2 * R / mu, 1),
                   (2 * (s ** (k - 1) - s ** k / mu), 1 - k)]
        assert abs(mp.fsum(c * M(p, s, mp.inf) for c, p in gini_if)) \
            < mp.mpf(10) ** -20
        gini = _square_mean(M, [(s, mp.inf, gini_if)])
        Q = lambda p: s * (1 - mp.mpf(p) / 10) ** (-1 / k)
        return gini, qsr_truth(M, Q(2), Q(8))


def model_qsr_truth(spec):
    """The QSR's sigma^2 at 30 digits on an exp, lognormal, Singh-Maddala
    or uniform spec, from its truncated moments and its quantile at
    p = 0.2 and 0.8."""
    kind, _, rest = spec.partition(":")
    with mp.workdps(30):
        p = [mp.mpf(float(t)) for t in rest.split(",")]
        if kind == "exp":
            (rate,) = p
            M, Q = _exp_moments(rate), lambda u: -mp.log(1 - u) / rate
        elif kind == "lognormal":
            m, sigma = p
            M = _lognormal_moments(m, sigma)
            Q = lambda u: mp.exp(m + sigma * mp.sqrt(2) * mp.erfinv(2 * u - 1))
        elif kind == "sm":
            a, b, q = p
            M = _sm_moments(a, b, q)
            Q = lambda u: b * ((1 - u) ** (-1 / q) - 1) ** (1 / a)
        else:
            lo, hi = p
            M, Q = _uniform_moments(lo, hi), lambda u: lo + u * (hi - lo)
        return qsr_truth(M, Q(mp.mpf(2) / 10), Q(mp.mpf(8) / 10))


# down to the E X^2 boundary k = 2, where the IF^2 quadrature raised
# NonConvergence below k = 3 or so
GINI_QSR_PARETO = (2.001, 2.05, 2.1, 2.5, 3.0, 6.0)
# a q within 0.1 of 2, where E X^2 = E X^2 1{X <= t} + a heavy tail
SM_NEAR_TWO = ("sm:2,1,1.05", "sm:2,1,1.01", "sm:1.9,1,1.1",
               "sm:2.1,1,0.99", "sm:3,1,0.7")
# the other kinds, lognormal tails well past the benchmark's sigma <= 1
QSR_OTHERS = ("exp:1.5", "lognormal:0,0.5", "lognormal:0.3,2",
              "lognormal:0,4", "sm:2,1,3", "uniform:0,1", "uniform:0.5,2")


@pytest.mark.parametrize("k", GINI_QSR_PARETO)
def test_gini_and_qsr_routes_match_mpmath_on_the_pareto(k):
    F = parse_distribution(f"pareto:{k!r},1")
    gini, qsr = pareto_truths(k)
    assert influence._gini_variance(F) == pytest.approx(float(gini),
                                                        rel=1e-10)
    assert influence._qsr_variance(F) == pytest.approx(float(qsr), rel=1e-10)


@pytest.mark.parametrize("spec", SM_NEAR_TWO + QSR_OTHERS)
def test_qsr_route_matches_mpmath_on_the_other_kinds(spec):
    truth = model_qsr_truth(spec)
    sigma2 = influence._qsr_variance(parse_distribution(spec))
    assert sigma2 == pytest.approx(float(truth), rel=1e-10)


def test_the_exponential_gini_variance_is_one_twelfth():
    T = parse_measure_id("gini")
    for rate in (1.0, 3e-5, 7e4):
        F = parse_distribution(f"exp:{rate!r}")
        assert influence.asymptotic_variance(T, F) == pytest.approx(
            1.0 / 12.0, rel=1e-14)


def lognormal_gini_truth(m, sigma):
    """The Gini's sigma^2 on lognormal:m,sigma at 30 digits: E IF^2 by
    quadrature over the normal variate W of X = e^{m + sigma W}, with the
    IF 2 [R + z (R - 1)/mu + (z F(z) - E[X 1{X <= z}])/mu] as displayed
    and R = 1 - (1 + G)/2, G = 2 Phi(sigma/sqrt 2) - 1."""
    with mp.workdps(30):
        m, sigma = mp.mpf(m), mp.mpf(sigma)
        mean = mp.exp(m + sigma ** 2 / 2)
        r = 1 - mp.ncdf(sigma / mp.sqrt(2))

        def if_squared(w):
            z = mp.exp(m + sigma * w)
            g = z * mp.ncdf(w) - mean * mp.ncdf(w - sigma)
            return (2 * (r + z * (r - 1) / mean + g / mean)) ** 2 * mp.npdf(w)

        return mp.quad(if_squared, [-mp.inf, -sigma, 0, sigma, 2 * sigma,
                                    mp.inf])


# sigma from 0.05 to 4, at means from 5e-4 to dollars
LOGNORMAL_GINI = ((0.05, 0.0), (0.1, -7.65), (0.25, 10.7), (0.5, 0.0),
                  (1.0, 10.7), (1.5, -7.65), (2.0, 0.0), (3.0, 10.7),
                  (4.0, 0.0))


@pytest.mark.parametrize("sigma,m", LOGNORMAL_GINI)
def test_lognormal_gini_route_matches_mpmath(sigma, m):
    F = parse_distribution(f"lognormal:{m!r},{sigma!r}")
    truth = float(lognormal_gini_truth(m, sigma))
    sigma2 = influence._gini_variance(F)
    assert sigma2 is not None  # well conditioned from sigma = 0.05 on
    assert sigma2 == pytest.approx(truth, rel=1e-10)
    assert influence.asymptotic_variance(parse_measure_id("gini"), F) == \
        sigma2


def test_lognormal_gini_near_equality_takes_the_quadrature():
    # the terms cancel as sigma -> 0: Sum |terms|/sigma^2 is 6.9e5 here
    F = parse_distribution("lognormal:0,0.01")
    T = parse_measure_id("gini")
    assert influence._gini_variance(F) is None
    sigma2 = influence.asymptotic_variance(T, F)
    assert sigma2 == influence._quadrature_variance(T, F)
    assert sigma2 == pytest.approx(float(lognormal_gini_truth(0, 0.01)),
                                   rel=1e-9)


def _ncdf2_half_truth(h, k):
    """Phi2(h, k; 1/2) at 20 digits, integrating out the first variate:
    the integral to h of phi(x) Phi((k - x/2)/sqrt(3/4)). Below
    min(h, 0) - 12 the integrand is under 1e-33 of Phi2, which is over
    1e-15 on [-6, 6]^2."""
    with mp.workdps(20):
        h, k = mp.mpf(h), mp.mpf(k)
        cond = lambda x: mp.npdf(x) * mp.ncdf((k - x / 2) / mp.sqrt(0.75))
        low = min(h, 0)
        return mp.quad(cond, [low - 12, low - 6, low, h] if h > 0
                       else [low - 12, low - 6, h])


def test_ncdf2_half_matches_mpmath():
    grid = [1.5 * i for i in range(-4, 5)]  # -6 to 6
    for i, h in enumerate(grid):
        for k in grid[i:]:
            want = _ncdf2_half_truth(h, k)
            got = distributions._ncdf2_half(h, k)
            assert abs(got - want) <= 1e-14 * want, (h, k)
            assert distributions._ncdf2_half(k, h) == got  # symmetric


# E X^2 is infinite; the Singh-Maddala Gini takes the quadrature
@pytest.mark.parametrize("mid,spec", [
    ("gini", "pareto:2,1"), ("gini", "pareto:1.5,3"), ("qsr", "pareto:2,1"),
    ("qsr", "pareto:1.5,3"), ("qsr", "sm:2,1,0.95")])
def test_infinite_gini_and_qsr_variances_raise_at_once(mid, spec):
    with pytest.raises(MomentDiverges, match="sigma\\^2 is infinite"):
        influence.asymptotic_variance(parse_measure_id(mid),
                                      parse_distribution(spec))


@pytest.mark.parametrize("spec,qsr", [("uniform:1,1.001", None),
                                      ("uniform:1,1.000001", 9.333e-14)])
def test_near_equality_gini_and_qsr_take_the_quadrature(spec, qsr):
    # the terms cancel from order one: unguarded, the Gini route reads
    # 6.52e-9 on uniform:1,1.001 (sigma^2 is 5.550e-9) and a value <= 0 on
    # uniform:1,1.000001, the QSR route 9.12e-14 there (9.333e-14)
    F = parse_distribution(spec)
    assert influence._gini_variance(F) is None
    assert influence._qsr_variance(F) is None
    for mid in ("gini", "qsr"):
        T = parse_measure_id(mid)
        assert influence.asymptotic_variance(T, F) == \
            influence._quadrature_variance(T, F)
    if qsr is not None:
        assert influence.asymptotic_variance(parse_measure_id("qsr"), F) \
            == pytest.approx(qsr, rel=1e-3)


@settings(max_examples=150, deadline=None, derandomize=True)
@given(spec=bench_models(), mid=st.sampled_from(("gini", "qsr")))
def test_closed_gini_and_qsr_routes_match_the_quadrature(spec, mid):
    F = parse_distribution(spec)
    T = parse_measure_id(mid)
    sigma2 = (influence._gini_variance if mid == "gini"
              else influence._qsr_variance)(F)
    if mid == "gini" and F.kind == "singh_maddala":
        assert sigma2 is None
        return
    assert sigma2 is not None  # well conditioned on every seeded shape
    assert sigma2 == pytest.approx(influence._quadrature_variance(T, F),
                                   rel=1e-9)
