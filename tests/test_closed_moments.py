"""Closed-form moments of the parametric kinds (`Distribution._moment`).

Each closed form is checked against the 30-digit mpmath forms of
`bench/reference.py`, which shares no code with ineqif, over parameters
drawn from the benchmark's seeded shapes at any scale from 1e-6 to 1e6,
and against the quantile-form quadrature `_tails_integral` on the unit
fleet, so the two routes check each other. Outside its domain a form
declines and the quadrature answers. Through the measures: a
scale-invariant measure must not move with the income scale, and near
equality the uniform's log moments, centred on the mean, keep their
precision.
"""
import math
import sys
from pathlib import Path

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from ineqif import distributions, parse_measure_id, scaled
from ineqif.cli import parse_distribution
from ineqif.errors import MomentDiverges

BENCH = Path(__file__).resolve().parent.parent / "bench"

UNIT_FLEET = ("exp:1", "uniform:0,1", "uniform:0.4,1", "pareto:3,1",
              "lognormal:0,0.5", "sm:2,1,3")

# every moment key the measures read: the h_key of each id, and the Gini's
POWERS = (-2.0, -1.0, -0.5, 0.5, 2.0, 3.0)
KEYS = tuple(f"pow:{c!r}" for c in POWERS) + (
    "log", "neglog", "xlogx", "expneg:0.5", "expneg:1.0", "expneg:2.0",
    "gini_first_moment")
LOG_KEYS = ("log", "neglog", "xlogx")


def _has_closed_form(F, key) -> bool:
    """Where a kind answers `key` in closed form: inside the moment's
    domain, and for the kinds and keys that have one."""
    name, _, arg = key.partition(":")
    if name == "pow":
        c = float(arg)
        if F.kind == "exponential":
            return c > -1.0
        if F.kind == "pareto":
            return c < F.shape
        if F.kind == "singh_maddala":
            return -F.a < c < F.a * F.q
        if F.kind == "uniform":
            return F.lo > 0.0 or c > -1.0
        return True
    if name == "expneg":
        return F.kind in ("exponential", "uniform")
    return True


def _integrand(F, key):
    """The g that `key` names, as the measures pass it to `expect`."""
    if key == "gini_first_moment":
        return lambda x: x * F.cdf(x)
    name, _, arg = key.partition(":")
    mid = {"pow": f"ge:{arg}", "log": "champernowne", "neglog": "mld",
           "xlogx": "theil", "expneg": f"kolm:{arg}"}[name]
    spec = parse_measure_id(mid).spec
    assert spec.h_key == key
    return spec.h


@pytest.fixture(scope="module")
def reference():
    pytest.importorskip("mpmath")
    sys.path.insert(0, str(BENCH))
    try:
        import reference
    finally:
        sys.path.remove(str(BENCH))
    return reference


def _reference_moment(reference, spec, key):
    mp = reference.mp
    M = reference.Model(spec)
    name, _, arg = key.partition(":")
    if name == "gini_first_moment":
        return M.mean() * (1 + M.gini()) / 2
    if name == "neglog":
        return -M.moment("log")
    if name in LOG_KEYS:
        return M.moment(name)
    c = mp.mpf(float(arg))
    if name == "pow" and M.kind == "uniform" and c == -1:
        # reference.py's uniform power form divides by c + 1
        return mp.log(M.hi / M.lo) / (M.hi - M.lo)
    return M.moment((name, c))


_SCALES = st.floats(-6.0, 6.0).map(lambda e: 10.0 ** e)
_PARETO_SHAPES = st.one_of(st.floats(3.0, 3.8), st.floats(5.0, 6.5))


@st.composite
def _models(draw):
    """A spec string from the benchmark's seeded shapes, at a scale in
    [1e-6, 1e6]."""
    kind = draw(st.sampled_from(("exp", "pareto", "lognormal", "sm",
                                 "uniform")))
    s = draw(_SCALES)
    if kind == "exp":
        return f"exp:{1.0 / s!r}"
    if kind == "pareto":
        return f"pareto:{draw(_PARETO_SHAPES)!r},{s!r}"
    if kind == "lognormal":
        return f"lognormal:{math.log(s)!r},{draw(st.floats(0.3, 1.0))!r}"
    if kind == "sm":
        a, q = draw(st.floats(2.0, 3.5)), draw(st.floats(2.5, 3.5))
        return f"sm:{a!r},{s!r},{q!r}"
    return f"uniform:{draw(st.floats(0.0, 0.6)) * s!r},{s!r}"


@settings(max_examples=400, deadline=None, derandomize=True)
@given(spec=_models(), key=st.sampled_from(KEYS))
def test_closed_form_matches_the_reference(reference, spec, key):
    F = parse_distribution(spec)
    got = F._moment(key)
    if not _has_closed_form(F, key):
        # the quadrature answers, and raises where the moment diverges
        assert got is None
        return
    want = _reference_moment(reference, spec, key)
    if abs(want) > sys.float_info.max:
        assert got is None  # beyond float range: the quadrature answers
        return
    assert got is not None
    floor = abs(want) if key not in LOG_KEYS else max(abs(want), 1)
    # an exp(-a x) moment may underflow into the subnormals
    assert abs(got - want) <= 1e-13 * floor + sys.float_info.min, (got, want)


@pytest.mark.parametrize("key", KEYS)
@pytest.mark.parametrize("spec", UNIT_FLEET)
def test_closed_form_matches_the_quantile_form(spec, key):
    F = parse_distribution(spec)
    got = F._moment(key)
    assert (got is not None) == _has_closed_form(F, key)
    if got is not None:
        quadrature = F._tails_integral(_integrand(F, key), 0.0, 0.5)
        assert got == pytest.approx(quadrature, rel=1e-9, abs=1e-12)


def test_expect_caches_the_closed_form_under_its_key():
    F = parse_distribution("pareto:3,1")

    def never(x):
        raise AssertionError("a closed-form moment reached the integrand")

    assert F.expect(never, key="pow:2.0") == 3.0
    assert F._cache[("expect", "pow:2.0")] == 3.0


@pytest.mark.parametrize("spec,key", [
    ("pareto:3,1", "pow:3.0"),      # c >= k
    ("exp:1", "pow:-1.0"),          # c <= -1
    ("sm:2,1,3", "pow:-2.0"),       # c <= -a
    ("sm:2,1,3", "pow:6.0"),        # c >= a q
    ("uniform:0,1", "pow:-1.0"),    # a pole at lo = 0
    ("lognormal:0,1", "pow:40.0"),  # E X^c overflows
    ("exp:1", "pow"),               # a malformed key
    ("exp:1", ("pow", 2.0)),        # not a string
])
def test_no_closed_form_outside_its_domain(spec, key):
    assert parse_distribution(spec)._moment(key) is None


SCALE_INVARIANT_IDS = ("ge:-0.5", "ge:2", "ge:3", "theil", "mld",
                       "atkinson:0.5", "champernowne", "gini")


@st.composite
def _unit_models(draw):
    kind = draw(st.sampled_from(("exp", "pareto", "lognormal", "sm")))
    if kind == "exp":
        return "exp:1"
    if kind == "pareto":
        return f"pareto:{draw(_PARETO_SHAPES)!r},1"
    if kind == "lognormal":
        return f"lognormal:0,{draw(st.floats(0.3, 1.0))!r}"
    return f"sm:{draw(st.floats(2.0, 3.5))!r},1,{draw(st.floats(2.5, 3.5))!r}"


@settings(max_examples=200, deadline=None, derandomize=True)
@given(spec=_unit_models(), c=_SCALES,
       mid=st.sampled_from(SCALE_INVARIANT_IDS))
def test_scale_invariant_measures_do_not_move_with_the_scale(spec, c, mid):
    F = parse_distribution(spec)
    T = parse_measure_id(mid)
    try:
        value = T.evaluate(F)
    except MomentDiverges:  # GE(3) on a Pareto with k <= 3
        with pytest.raises(MomentDiverges):
            T.evaluate(scaled(F, c))
        return
    assert T.evaluate(scaled(F, c)) == pytest.approx(value, rel=1e-12, abs=0)


@pytest.mark.parametrize("mid", ["mld", "theil"])
def test_near_equality_log_measures_keep_their_precision(mid):
    # both are w^2/(24 mu^2) to leading order on a uniform of width w; the
    # uncentred difference (hi log hi - lo log lo)/w - 1 would cancel to
    # about 1e-17 here
    F = parse_distribution("uniform:1,1.000000001")
    w = F.hi - F.lo
    exact = w * w / (24.0 * F.mean() ** 2)
    assert parse_measure_id(mid).evaluate(F) == pytest.approx(exact, rel=1e-3)


def _uniform_log_truth(lo, hi):
    """(E log X, E X log X) on uniform:lo,hi at 60 digits, from the
    antiderivatives x log x - x and x^2 log x/2 - x^2/4 at the float ends:
    60 digits leave 48 where lo/hi = 1 - 1e-12 cancels 12."""
    mp = pytest.importorskip("mpmath")
    with mp.workdps(60):
        lo, hi = mp.mpf(lo), mp.mpf(hi)
        f0 = lambda x: x * mp.log(x) - x if x > 0 else mp.mpf(0)
        f1 = lambda x: x * x * mp.log(x) / 2 - x * x / 4 if x > 0 else 0
        return ((f0(hi) - f0(lo)) / (hi - lo),
                (f1(hi) - f1(lo)) / (hi - lo))


def _centred_uniform(d):
    """uniform:1-d,1+d; for d a multiple of 2^-52 both ends are exact, the
    mean is exactly 1 and delta is d."""
    return f"uniform:{1.0 - d!r},{1.0 + d!r}"


# lo/hi from 0 to 1 - 1e-12 at unit mean; delta one step of 2^-52 below, at
# and above the switch from the series to the closed difference; and lo = 0
# at any scale, where log(1 - delta) is -inf and its factor (1 - delta)^j 0
UNIFORM_LOG_SPECS = tuple(
    _centred_uniform(round((1.0 - r) / (1.0 + r) * 2.0 ** 52) * 2.0 ** -52)
    for r in (0.0, 1e-12, 0.1, 0.5, 0.9, 0.99, 1 - 1e-6, 1 - 1e-9, 1 - 1e-12)
) + tuple(
    _centred_uniform(distributions._LOG_SERIES_BELOW + side * 2.0 ** -52)
    for side in (-1, 0, 1)
) + tuple(f"uniform:0,{hi!r}" for hi in (1e-6, 2.0, 50.0, 1e6))


@pytest.mark.parametrize("spec", UNIFORM_LOG_SPECS)
def test_uniform_log_moments_match_mpmath(spec):
    F = parse_distribution(spec)
    e_log, e_xlogx = _uniform_log_truth(F.lo, F.hi)
    assert abs(F._moment("log") - e_log) <= 1e-13 * abs(e_log)
    assert abs(F._moment("xlogx") - e_xlogx) <= 1e-13 * abs(e_xlogx)


def _log_measures_truth(lo, hi):
    """Theil, MLD and Champernowne on uniform:lo,hi at 60 digits."""
    mp = pytest.importorskip("mpmath")
    e_log, e_xlogx = _uniform_log_truth(lo, hi)
    with mp.workdps(60):
        mu = (mp.mpf(lo) + mp.mpf(hi)) / 2
        return {"theil": e_xlogx / mu - mp.log(mu),
                "mld": mp.log(mu) - e_log,
                "champernowne": 1 - mp.exp(e_log) / mu}


def test_near_equality_champernowne_matches_mpmath():
    # 1 - exp(s) read 0.0 here: s = E log X - log mu is -4.2e-20. The
    # rounding of log mu leaves about 8e-7 relative.
    F = parse_distribution("uniform:1,1.000000001")
    want = _log_measures_truth(F.lo, F.hi)["champernowne"]
    got = parse_measure_id("champernowne").evaluate(F)
    assert abs(got - want) <= 1e-6 * abs(want), (got, want)


@settings(max_examples=200, deadline=None, derandomize=True)
@given(ratio=st.floats(0.0, 0.99), c=_SCALES)
# the quadrature of E X log X, at its absolute floor of 1e-10, put Theil
# 7.0e-9 relative off here
@example(ratio=0.228, c=1.1e-6)
def test_log_measures_on_the_uniform_at_any_scale(ratio, c):
    spec = f"uniform:{ratio * c!r},{c!r}"
    F = parse_distribution(spec)
    truth = _log_measures_truth(F.lo, F.hi)
    for mid, want in truth.items():
        got = parse_measure_id(mid).evaluate(F)
        assert abs(got - want) <= 1e-9 * abs(want), (spec, mid, got, want)


# levels of t: the QSR's quintiles, the ends, and the exponential's switch
# from its series to the closed difference at rate * t = 2
PARTIAL_LEVELS = (0.001, 0.2, 0.5, 0.8, 0.999)


@pytest.mark.parametrize("spec", UNIT_FLEET + ("sm:2,1,1.05",
                                               "pareto:2.05,1"))
@pytest.mark.parametrize("p", PARTIAL_LEVELS)
def test_partial_second_moment_matches_the_density(spec, p, density_expect):
    F = parse_distribution(spec)
    t = F.quantile(p)
    want = density_expect(F, lambda x: x * x, upper=t)
    assert F.partial_second_moment(t) == pytest.approx(want, rel=1e-9)


def test_partial_second_moment_at_the_support_ends():
    for spec in UNIT_FLEET:
        F = parse_distribution(spec)
        assert F.partial_second_moment(F.lep) == 0.0
        assert F.partial_second_moment(math.inf) == pytest.approx(
            F._closed_moment("pow:2.0"), rel=1e-15)
    # the exponential's series and closed difference meet at rate * t = 2
    F = parse_distribution("exp:1")
    below, above = (F.partial_second_moment(math.nextafter(2.0, side))
                    for side in (0.0, 3.0))
    assert below == pytest.approx(above, rel=1e-15)
    # no closed form where E X^2 is infinite, nor on an atomic kind
    assert parse_distribution("sm:2,1,0.95").partial_second_moment(1.0) is None
    assert parse_distribution("dirac:1").partial_second_moment(1.0) is None
