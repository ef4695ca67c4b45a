"""The variant table as a ledger, checked in exact algebra.

Each printed display is read over sympy symbols and compared with the
normative IF of its family. For the quadruple family that IF is built here
from a sympy quadruple through Theorem 1, apart from the numpy quadruples
of `measures.py`:

  IF(z) = tau'(I) [ -(h1'(mu) m/h1(mu)^2 + h2'(mu)) (z - mu)
                    + (h(z) - m)/h1(mu) ],   I = m/h1(mu) - h2(mu),

with m = E h(X). A row marked as matching must agree identically, a
note's claim that the two coincide at given values must hold there, and
every other row must differ somewhere.

The asymptotic variance's algebra is checked the same way: each member's
declared h1'/h1, the IF as A (z - mu) + B (h(z) - m) with A and B formed
as the code forms them, sigma^2 as a quadratic form in five moments, and
each closed log-power moment as a c-derivative of its kind's E X^c. So are
the Gini's and the QSR's closed routes: the Gini's IF as A z + B h(z) +
const on the exponential, Pareto and uniform laws, the two Gaussian
identities its lognormal sigma^2 reduces to (by mpmath quadrature), the
QSR's IF as a constant plus two ramps on each of its three pieces, and the
QSR's sigma^2 as the terms the code sums. The uniform's centred log
moments are checked as closed differences that expand to the series the
code sums near equality.
"""
import re

import pytest

import numpy as np

from ineqif import parse_measure_id, printed_variants
from ineqif.cli import parse_distribution
from ineqif.influence import (
    _closed_if_vectorized,
    _integrated_cdf,
    _theorem1,
)
from ineqif.measures import make_spec, qsr_components

sympy = pytest.importorskip("sympy")
mp = pytest.importorskip("mpmath")

z, mu, m = sympy.symbols("z mu m", positive=True)
a = sympy.Symbol("a", real=True)
s, eps = sympy.symbols("s eps")
nu0, R, C, Fz, IF = sympy.symbols("nu0 R C Fz IF", real=True)
log, exp = sympy.log, sympy.exp

# family: (a member's id, tau, h, h1, h2 as expressions in s, E log X)
QUADRUPLES = {
    "generalized_entropy": ("ge:2", (s - 1) / (a * (a - 1)), s ** a, s ** a,
                            0, nu0),
    "theil": ("theil", s, s * log(s), s, log(s), nu0),
    "mld": ("mld", s, -log(s), 1, -log(s), -m),
    "atkinson": ("atkinson:0.5", 1 - s ** (1 / a), s ** a, s ** a, 0, nu0),
    "champernowne": ("champernowne", 1 - exp(s), log(s), 1, log(s), m),
    "kolm": ("kolm:1", log(s) / a, exp(-a * s), exp(-a * s), 0, nu0),
}
NORMATIVE_OTHER = {
    "gini": 2 * (R - C / mu + (z / mu) * (R - (1 - Fz))),
    "qsr": IF,
}
NAMED = {"z": z, "mu": mu, "m": m, "a": a}
# a generic point: no coincidence the notes claim holds there
GENERIC = {z: sympy.Rational(7, 3), mu: sympy.Rational(5, 4),
           m: sympy.Rational(3, 7), nu0: sympy.Rational(-1, 3),
           R: sympy.Rational(2, 5), C: sympy.Rational(1, 5),
           Fz: sympy.Rational(3, 5), IF: 1}
GENERIC_PARAM = {"generalized_entropy": sympy.Rational(5, 2),
                 "atkinson": sympy.Rational(1, 2),
                 "kolm": sympy.Rational(3, 2)}


def _at(f, x):
    return sympy.sympify(f).subs(s, x)


def theorem1(family):
    _, tau, h, h1, h2, _ = QUADRUPLES[family]
    d = lambda f: sympy.diff(f, s)
    index = m / _at(h1, mu) - _at(h2, mu)
    lever = _at(d(h1), mu) * m / _at(h1, mu) ** 2 + _at(d(h2), mu)
    return _at(d(tau), index) * (
        -lever * (z - mu) + (_at(h, z) - m) / _at(h1, mu))


def normative(family):
    if family in QUADRUPLES:
        return theorem1(family)
    return NORMATIVE_OTHER[family]


def printed(v):
    log_moment = QUADRUPLES[v.family][5] if v.family in QUADRUPLES else nu0
    names = {"z": z, "mu": mu, "m": m, "a": a, "nu0": log_moment, "R": R,
             "C": C, "Fz": Fz, "IF": IF, "log": log, "exp": exp,
             "xlogx": lambda t: t * log(t)}
    return sympy.sympify(v.printed_form, locals=names)


def _is_zero(expr):
    return sympy.simplify(sympy.expand_power_base(expr, force=True)) == 0


ROWS = [v for mid in [q[0] for q in QUADRUPLES.values()] + list(NORMATIVE_OTHER)
        for v in printed_variants(mid)]


def test_the_ledger_covers_every_family():
    assert {v.family for v in ROWS} == set(QUADRUPLES) | set(NORMATIVE_OTHER)


@pytest.mark.parametrize("family", sorted(QUADRUPLES))
def test_theorem1_is_the_derivative_along_the_contamination(family):
    # T((1-eps)F + eps Dirac(z)) = tau(m_eps/h1(mu_eps) - h2(mu_eps))
    _, tau, h, h1, h2, _ = QUADRUPLES[family]
    mu_eps = (1 - eps) * mu + eps * z
    m_eps = (1 - eps) * m + eps * _at(h, z)
    path = _at(tau, m_eps / _at(h1, mu_eps) - _at(h2, mu_eps))
    gateaux = sympy.diff(path, eps).subs(eps, 0)
    assert _is_zero(gateaux - theorem1(family))


@pytest.mark.parametrize("v", ROWS, ids=lambda v: f"{v.family}-{v.source}")
def test_printed_form_against_the_normative_if(v):
    residual = printed(v) - normative(v.family)
    if v.matches_normative:
        assert _is_zero(residual)
        return
    point = dict(GENERIC)
    if v.family in GENERIC_PARAM:
        point[a] = GENERIC_PARAM[v.family]
    assert sympy.N(residual.subs(point)) != 0
    if "coincide" in v.note:
        # each "<name> = <value>" the note names, as in "only at mu = 1"
        claimed = {NAMED[name]: sympy.Rational(value)
                   for name, value in re.findall(
                       r"\b([a-z]\w*) = (-?\d+(?:\.\d+)?)", v.note)}
        assert mu in claimed, v.note
        assert _is_zero(residual.subs(claimed)), v.note


# ---------------------------------------------------------------------------
# The variance's algebra: the coefficients A and B, the quadratic form in
# five moments, and the closed log-power moments it reads
# ---------------------------------------------------------------------------

# (family, parameter) for members beyond the table's one id per family
MEMBERS = [("generalized_entropy", p) for p in (2, sympy.Rational(-3, 2),
                                                 sympy.Rational(1, 2))] + [
    ("atkinson", sympy.Rational(1, 2)), ("atkinson", -1), ("kolm", 1),
    ("kolm", sympy.Rational(3, 2)), ("theil", None), ("mld", None),
    ("champernowne", None)]


def _member(family, param):
    spec = make_spec(family, None if param is None else float(param))
    quadruple = [sympy.sympify(f) for f in QUADRUPLES[family][1:5]]
    if param is not None:
        quadruple = [f.subs(a, param) for f in quadruple]
    return spec, quadruple


def _declared_ratio(spec):
    """The member's h1_ratio read over the symbol s."""
    return sympy.nsimplify(sympy.sympify(spec.h1_ratio(s)))


def _coefficients(quadruple, ratio):
    """(A, B) as `influence._theorem1` forms them, from a quadruple and
    the ratio h1'/h1 in s."""
    tau, _, h1, h2 = quadruple
    d = lambda f: sympy.diff(f, s)
    tau_p = _at(d(tau), m / _at(h1, mu) - _at(h2, mu))
    level = tau_p / _at(h1, mu)
    slope = -tau_p * (_at(ratio, mu) * (m / _at(h1, mu)) + _at(d(h2), mu))
    return slope, level


@pytest.mark.parametrize("family,param", MEMBERS)
def test_declared_h1_ratio_is_the_derivative_ratio(family, param):
    spec, (_, _, h1, _) = _member(family, param)
    assert _is_zero(_declared_ratio(spec) - sympy.diff(h1, s) / h1)


@pytest.mark.parametrize("family,param", MEMBERS)
def test_theorem1_is_affine_in_z_and_h(family, param):
    spec, quadruple = _member(family, param)
    slope, level = _coefficients(quadruple, _declared_ratio(spec))
    normative = theorem1(family)
    if param is not None:
        normative = normative.subs(a, param)
    assert _is_zero(slope * (z - mu) + level * (_at(quadruple[1], z) - m)
                    - normative)
    # and the code's floats are these coefficients at a point
    point = {mu: sympy.Rational(5, 4), m: sympy.Rational(3, 7)}
    got = _theorem1(spec, float(point[mu]), float(point[m]))
    for value, exact in zip(got, (slope, level)):
        assert value == pytest.approx(float(exact.subs(point)), rel=1e-13)


def test_variance_is_a_quadratic_form_in_five_moments():
    # E over the monomials of (X, h): E X = mu, E h = m, E X^2, E h^2, E X h
    x, hx, A, B = sympy.symbols("x hx A B")
    ex2, eh2, exh = sympy.symbols("ex2 eh2 exh")
    moments = {(0, 0): 1, (1, 0): mu, (0, 1): m, (2, 0): ex2, (0, 2): eh2,
               (1, 1): exh}
    square = sympy.Poly(sympy.expand((A * (x - mu) + B * (hx - m)) ** 2),
                        x, hx)
    expectation = sum(coeff * moments[monom]
                      for monom, coeff in square.terms())
    # the six terms `influence._moment_variance` sums
    terms = (A * A * ex2, -A * A * mu * mu, 2 * A * B * exh,
             -2 * A * B * mu * m, B * B * eh2, -B * B * m * m)
    assert sympy.expand(expectation - sum(terms)) == 0


c = sympy.Symbol("c", real=True)
# each kind's power moment E X^c, at parameters exact in binary
POWER_MOMENTS = {
    "exp:1.5": sympy.gamma(1 + c) / sympy.Rational(3, 2) ** c,
    "pareto:3.5,2": sympy.Rational(7, 2) * 2 ** c / (sympy.Rational(7, 2) - c),
    "lognormal:0.25,0.5": sympy.exp(c / 4 + c ** 2 / 8),
    "sm:2.5,1.5,3.5": (sympy.Rational(3, 2) ** c
                       * sympy.gamma(1 + c / sympy.Rational(5, 2))
                       * sympy.gamma(sympy.Rational(7, 2)
                                     - c / sympy.Rational(5, 2))
                       / sympy.gamma(sympy.Rational(7, 2))),
    "uniform:0.5,2": (2 ** (c + 1) - sympy.Rational(1, 2) ** (c + 1))
    / ((c + 1) * sympy.Rational(3, 2)),
}
# E e^{-tX} on the two kinds with a closed form
t = sympy.Symbol("t", positive=True)
EXPNEG = {
    "exp:1.5": sympy.Rational(3, 2) / (sympy.Rational(3, 2) + t),
    "uniform:0.5,2": (sympy.exp(-t / 2) - sympy.exp(-2 * t))
    / (t * sympy.Rational(3, 2)),
}


@pytest.mark.parametrize("spec", sorted(POWER_MOMENTS))
@pytest.mark.parametrize("k", [1, 2])
@pytest.mark.parametrize("cv", [-0.5, 0.0, 0.5, 1.0, 2.0])
def test_log_power_forms_are_c_derivatives_of_the_power_moment(spec, k, cv):
    F = parse_distribution(spec)
    exact = sympy.diff(POWER_MOMENTS[spec], c, k).subs(c, sympy.nsimplify(cv))
    got = F._closed_form("powlog" if k == 1 else "powlog2", cv)
    assert got == pytest.approx(float(sympy.N(exact, 30)), rel=1e-12)


@pytest.mark.parametrize("spec", sorted(EXPNEG))
@pytest.mark.parametrize("tv", [0.05, 0.3, 1.0, 2.5])
def test_x_expneg_is_minus_the_t_derivative_of_expneg(spec, tv):
    F = parse_distribution(spec)
    exact = -sympy.diff(EXPNEG[spec], t).subs(t, sympy.nsimplify(tv))
    got = F._closed_form("xexpneg", tv)
    assert got == pytest.approx(float(sympy.N(exact, 30)), rel=1e-13)


# ---------------------------------------------------------------------------
# The Gini's and the QSR's closed variance routes
# ---------------------------------------------------------------------------

x = sympy.Symbol("x", positive=True)
# (density, lower end of the support) at parameters exact in binary
GINI_LAWS = {
    "exp:1.5": (sympy.Rational(3, 2) * exp(-sympy.Rational(3, 2) * x), 0),
    "pareto:3.5,2": (sympy.Rational(7, 2) * 2 ** sympy.Rational(7, 2)
                     * x ** -sympy.Rational(9, 2), 2),
    "uniform:0.5,2": (sympy.Rational(2, 3), sympy.Rational(1, 2)),
}


def _h_of_key(key):
    name, _, arg = key.partition(":")
    c = sympy.nsimplify(float(arg))
    return exp(-c * z) if name == "expneg" else z ** c


@pytest.mark.parametrize("spec", sorted(GINI_LAWS))
def test_gini_if_is_affine_in_z_and_the_declared_h(spec):
    density, lo = GINI_LAWS[spec]
    F_z = sympy.integrate(density, (x, lo, z))
    C_z = sympy.integrate(x * density, (x, lo, z))
    mean = sympy.integrate(x * density, (x, lo, sympy.oo))
    a1_code, b_code, h_key = _integrated_cdf(parse_distribution(spec))
    h = _h_of_key(h_key)
    # g = z F(z) - C(z) = a1 z + b h(z) + const: b = g''/h'', a1 = g' - b h'
    g = z * F_z - C_z
    b_exact = sympy.simplify(sympy.diff(g, z, 2) / sympy.diff(h, z, 2))
    a1_exact = sympy.simplify(sympy.diff(g, z) - b_exact * sympy.diff(h, z))
    assert not (b_exact.free_symbols or a1_exact.free_symbols)
    assert a1_code == pytest.approx(float(a1_exact), rel=1e-15, abs=1e-15)
    assert b_code == pytest.approx(float(b_exact), rel=1e-15)
    # the Gini's IF minus A z + B h(z), with A = 2 (R - 1 + a1)/mu and
    # B = 2 b/mu as `influence._gini_variance` forms them, is constant in z
    gini_if = 2 * (R - C_z / mean + (z / mean) * (R - (1 - F_z)))
    affine = (2 * (R - 1 + a1_exact) / mean * z
              + 2 * b_exact / mean * h)
    assert _is_zero(sympy.diff(gini_if - affine, z))


q1, q4, N, D = sympy.symbols("q1 q4 N D", positive=True)
# the QSR's IF pieces as `influence._closed_if_vectorized` displays them
QSR_PIECES = ((-z * N + q4 * D / 5 + 4 * q1 * N / 5) / D ** 2,
              (q4 * D / 5 - q1 * N / 5) / D ** 2,
              (z * D - 4 * q4 * D / 5 - q1 * N / 5) / D ** 2)
QSR_C = QSR_PIECES[1]


def test_qsr_if_is_a_constant_and_two_ramps_on_each_piece():
    r = N / D
    # (q1 - z)_+ and (z - q4)_+ on [0, q1], (q1, q4) and [q4, inf)
    ramps = ((q1 - z, 0), (0, 0), (0, z - q4))
    for piece, (low, high) in zip(QSR_PIECES, ramps):
        assert _is_zero(piece - (QSR_C + r / D * low + high / D))
    # and the code's kernel is this form at a point of each piece
    F = parse_distribution("pareto:3.5,2")
    n, d, t1, t4 = qsr_components(F)
    zs = np.array([0.5 * (F.lep + t1), 0.5 * (t1 + t4), 2.0 * t4])
    c = (0.2 * t4 - 0.2 * t1 * n / d) / d
    form = c + n / d / d * np.maximum(t1 - zs, 0) + np.maximum(zs - t4, 0) / d
    kernel = _closed_if_vectorized(parse_measure_id("qsr"), F)
    np.testing.assert_allclose(kernel(zs), form, rtol=1e-13)


def test_qsr_variance_is_the_sum_of_its_terms():
    # the truncated moments below q1 (mass 1/5, D, M1 = E[X^2 1{X <= q1}])
    # and above q4 (mass 1/5, N, E X^2 - M4)
    ex2, m1, m4 = sympy.symbols("ex2 m1 m4", positive=True)
    r = N / D
    below = q1 ** 2 / 5 - 2 * q1 * D + m1     # E(q1 - X)_+^2
    above = (ex2 - m4) - 2 * q4 * N + q4 ** 2 / 5  # E(X - q4)_+^2
    # E IF = 0: c is minus the mean of the two ramps
    assert _is_zero(QSR_C + r / D * (q1 / 5 - D) + (N - q4 / 5) / D)
    sigma2 = (r ** 2 * below + above) / D ** 2 - QSR_C ** 2
    # the terms `influence._qsr_variance` sums, over D^2
    terms = (sympy.Rational(16, 100) * r * r * q1 * q1, -2 * r * r * q1 * D,
             r * r * m1, ex2, -m4, -2 * q4 * N,
             sympy.Rational(16, 100) * q4 * q4,
             sympy.Rational(8, 100) * r * q1 * q4)
    assert _is_zero(sigma2 - sum(terms) / D ** 2)


# ---------------------------------------------------------------------------
# The Gaussian identities of the lognormal Gini's sigma^2, and the uniform's
# centred log moments
# ---------------------------------------------------------------------------

def _bvn_half(h, k):
    """Phi2(h, k; 1/2) in mpmath, integrating out the first variate."""
    cond = lambda x: mp.npdf(x) * mp.ncdf((k - x / 2) / mp.sqrt(0.75))
    return mp.quad(cond, [-mp.inf, min(h, 0), h] if h > 0 else [-mp.inf, h])


# (k, s, a, b): a power of X = e^{m + sW}, its log-scale and two shifts
GAUSSIAN_POINTS = ((0, 0.7, -0.7, -0.7), (1, 1.3, 0.0, -1.3),
                   (2, 0.4, 0.9, -0.2))


@pytest.mark.parametrize("k,s_,a_,b_", GAUSSIAN_POINTS)
def test_lognormal_gini_gaussian_identities(k, s_, a_, b_):
    # E[X^k Phi(W + a)] = E X^k Phi((ks + a)/sqrt 2) and
    # E[X^k Phi(W + a) Phi(W + b)] = E X^k Phi2((ks + a)/sqrt 2,
    # (ks + b)/sqrt 2; 1/2) on the unit-mean law, m = -s^2/2, by quadrature
    # over W
    with mp.workdps(30):
        s_, a_, b_ = mp.mpf(s_), mp.mpf(a_), mp.mpf(b_)
        m_ = -s_ ** 2 / 2
        power = mp.exp(k * m_ + k * k * s_ ** 2 / 2)  # E X^k
        weight = lambda w: mp.exp(k * (m_ + s_ * w)) * mp.npdf(w)
        cuts = [-mp.inf, -abs(a_) - 1, 0, k * s_ + 1, mp.inf]
        one = mp.quad(lambda w: weight(w) * mp.ncdf(w + a_), cuts)
        two = mp.quad(lambda w: weight(w) * mp.ncdf(w + a_)
                      * mp.ncdf(w + b_), cuts)
        h, kk = (k * s_ + a_) / mp.sqrt(2), (k * s_ + b_) / mp.sqrt(2)
        assert abs(one / (power * mp.ncdf(h)) - 1) < mp.mpf(10) ** -25
        assert abs(two / (power * _bvn_half(h, kk)) - 1) < mp.mpf(10) ** -25


def test_uniform_log_offsets_expand_to_their_series():
    # the closed differences of `distributions._uniform_log_offset` in
    # delta = (hi - lo)/(hi + lo), against the even series it sums below
    # its switch
    d = sympy.Symbol("delta", positive=True)
    c0 = ((1 + d) * log(1 + d) - (1 - d) * log(1 - d)) / (2 * d) - 1
    c1 = ((1 + d) ** 2 * log(1 + d) - (1 - d) ** 2 * log(1 - d)) / (4 * d) \
        - sympy.Rational(1, 2)
    order = 16
    series0 = -sum(d ** (2 * j) / (2 * j * (2 * j + 1))
                   for j in range(1, order // 2))
    series1 = sum(d ** (2 * j) / (2 * j * (2 * j - 1) * (2 * j + 1))
                  for j in range(1, order // 2))
    for closed, series in ((c0, series0), (c1, series1)):
        expanded = sympy.series(closed, d, 0, order).removeO()
        assert _is_zero(expanded - series)
