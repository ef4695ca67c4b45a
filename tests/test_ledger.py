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
each closed log-power moment as a c-derivative of its kind's E X^c.
"""
import re

import pytest

from ineqif import printed_variants
from ineqif.cli import parse_distribution
from ineqif.influence import _theorem1
from ineqif.measures import make_spec

sympy = pytest.importorskip("sympy")

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
