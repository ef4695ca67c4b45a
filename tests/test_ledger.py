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
"""
import re

import pytest

from ineqif import printed_variants

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
