"""Probability models for non-negative income variables.

Parametric laws (Pareto, exponential, lognormal, Singh-Maddala, uniform),
empirical step distributions, and exact Dirac-contaminated mixtures; a
point mass `Dirac(x)` is the one-point empirical law. Each kind states its
cdf, quantile, mean and partial mean E[X 1{X <= t}] once, and the base
class derives the rest from them: the support ends lep = Q(0) and
uep = Q(1), and the Lorenz curve from the partial mean at Q(p) (exact
through atoms, no quadrature). The parametric kinds also state the
partial second moment E[X^2 1{X <= t}], which the QSR's variance reads.

A parametric model answers a keyed moment from its closed form first
(`_moment`): E X^c, E log X and E X log X on every kind (on the uniform
centred on the mean, so that they keep their precision near equality),
E e^{-aX} on the exponential and the uniform, and the Gini's first
moment E[X F(X)]. The asymptotic variances read three more forms
(`_closed_moment`): the log-power moments E X^c log X and E X^c log^2 X,
the first two c-derivatives of E X^c, on every kind, and E X e^{-aX} on
the exponential and the uniform. Outside a form's domain the moment is
infinite, and `_closed_moment` raises MomentDiverges. Outside the domain,
and for every other expectation, `expect` computes the moment in
probability space, in the quantile form E g(X) = integral over p in [0, 1]
of g(Q(p)), on finite intervals only; that quadrature also raises where a
moment diverges. The upper half reads the inverse survival function Q(1-s)
(`isf_array`), so 1-s never rounds to 1 in the tail, and both ends are
graded as p = u**8, which makes power-law ends regular integrands. The
quantile carries the scale, so the quadrature nodes do not depend on it.
Every such integral runs at `integrate`'s one error target, so a cached
moment is keyed by its integrand alone.

Mixtures keep their atom explicit: expectations over a contaminated
distribution decompose exactly as (1-eps)*E[g] + eps*g(z), never through
quadrature across the atom. The numerical Gateaux oracle depends on that
exact linearity in eps. Its complex step contaminates at a grid of points
z, each with its own purely imaginary step: the mixture's mean, moments,
cdf, atom masses and partial means are then complex arrays over the grid,
and the oracle reads every point from one evaluation of the measure. A
real eps in [0, 1] mixes at one point z.
"""
from __future__ import annotations

import functools
import math
from dataclasses import dataclass, field
from statistics import NormalDist
from typing import Callable

import numpy as np

from .errors import InvalidParameter, MomentDiverges
# bisect_nondecreasing is unused here; the benchmark tracer patches this name.
from .numeric import (  # noqa: F401
    _make_evaluator,
    bisect_nondecreasing,
    integrate,
)

__all__ = [
    "Distribution",
    "Exponential",
    "Pareto",
    "LogNormal",
    "SinghMaddala",
    "Uniform",
    "Dirac",
    "Empirical",
    "Contaminated",
    "make_distribution",
    "contaminate",
    "scaled",
    "translated",
]


@functools.cache
def _special():
    """scipy.special, imported on first use: it is most of the import time
    of the package, and only lognormal draws and QSR grids (`ndtri` on
    arrays), Singh-Maddala partial means and partial second moments
    (`betainc`) and Singh-Maddala log moments (`digamma`) need it."""
    from scipy import special
    return special


_SQRT_HALF = math.sqrt(0.5)
_EULER = 0.5772156649015329  # Euler's gamma, -digamma(1)
_inv_ncdf = NormalDist().inv_cdf

# Both ends of the quantile form are graded as p = u**_GRADE: a power-law
# end p**-b becomes u**(7 - 8b), regular for the moments that exist.
_GRADE = 8


def _ncdf_array(u: np.ndarray) -> np.ndarray:
    """Standard normal cdf per element, accurate in the lower tail, through
    the stdlib's erfc: no scipy."""
    w = -u * _SQRT_HALF
    return 0.5 * np.fromiter(map(math.erfc, w.ravel().tolist()), float,
                             count=w.size).reshape(w.shape)


def _ncdf(u: float) -> float:
    """Standard normal cdf of a float, through the stdlib's erfc."""
    return 0.5 * math.erfc(-u * _SQRT_HALF)


# Plackett's identity at correlation 1/2: with r = sin(theta),
#   Phi2(h, k; 1/2) = Phi(h) Phi(k) + 1/(2 pi) * integral over [0, pi/6]
#                     of exp(-(h^2 - 2 h k sin(theta) + k^2)/(2 cos^2(theta))),
# an integrand analytic well beyond the interval, which the 12-node
# Gauss-Legendre rule (Drezner & Wesolowsky 1990; Genz 2004) integrates to
# within 5e-15 of Phi2, relative, for h, k in [-6, 6] (against mpmath).
# The positive nodes and their weights on [-1, 1]:
_GL12_NODES = (0.9815606342467192, 0.9041172563704749, 0.7699026741943047,
               0.5873179542866175, 0.3678314989981802, 0.1252334085114689)
_GL12_WEIGHTS = (0.04717533638651183, 0.10693932599531843,
                 0.16007832854334622, 0.20316742672306592,
                 0.2334925365383548, 0.24914704581340277)
# (weight/(2 pi), sin(theta), 2 cos^2(theta)) at each node mapped to
# [0, pi/6]
_PLACKETT_HALF = tuple(
    (w / 24.0, math.sin(theta), 2.0 * math.cos(theta) ** 2)
    for x, w in zip(_GL12_NODES, _GL12_WEIGHTS)
    for theta in (math.pi / 12.0 * (1.0 - x), math.pi / 12.0 * (1.0 + x)))


def _ncdf2_half(h: float, k: float) -> float:
    """Phi2(h, k; 1/2) = P(Z1 <= h, Z2 <= k) for standard normals of
    correlation 1/2, by Plackett's identity (above): no scipy."""
    hk2, hh_kk = 2.0 * h * k, h * h + k * k
    return _ncdf(h) * _ncdf(k) + math.fsum(
        w * math.exp((hk2 * s - hh_kk) / c2) for w, s, c2 in _PLACKETT_HALF)


def _probit(ps: np.ndarray) -> np.ndarray:
    """Standard normal quantile per element, through the stdlib: quadrature
    over a lognormal then loads no scipy."""
    return np.fromiter(map(_inv_ncdf, ps.ravel().tolist()), float,
                       count=ps.size).reshape(ps.shape)


def _is_array(x) -> bool:
    """Whether x is an array with dimensions (per point of the oracle's
    grid), not a scalar."""
    return isinstance(x, np.ndarray) and x.ndim > 0


def _scalar(x):
    """x as a Python float; an array with dimensions (per point of the
    oracle's grid) is returned as it is."""
    return x if _is_array(x) else float(x)


def _fmt(v: float) -> str:
    """A parameter as text: `:g` when that reads back as the same float,
    else the shortest round-trip text."""
    v = float(v)
    text = f"{v:g}"
    return text if float(text) == v else repr(v).removesuffix(".0")


@dataclass(frozen=True)
class Distribution:
    """Base class: what follows from a kind's cdf, quantile, mean and
    partial mean (support ends, expectations, Lorenz curve)."""

    _cache: dict = field(default_factory=dict, init=False, repr=False, compare=False)

    kind = "abstract"

    # -- subclass interface -------------------------------------------------

    def cdf(self, x):
        raise NotImplementedError

    def quantile(self, p: float) -> float:
        raise NotImplementedError

    def isf_array(self, ss) -> np.ndarray:
        """Q(1-s) on an array, exact as s -> 0 where 1-s would round to 1."""
        raise NotImplementedError

    def _mean(self) -> float:
        raise NotImplementedError

    def partial_mean(self, t):
        """E[X 1{X <= t}], with atoms at t counted in full: a Python float
        at a float t, and per element on an array of t, by one formula."""
        raise NotImplementedError

    def partial_second_moment(self, t: float):
        """E[X^2 1{X <= t}] at a float t, from the kind's closed form; None
        where it has none. Beside `partial_mean` it gives the stop-loss
        moments below t: the first-order stop-loss identity
        E(t - X)_+ = t F(t) - E[X 1{X <= t}] (the integral of F over
        [0, t]), and the second-order one
        E(t - X)_+^2 = t^2 F(t) - 2 t E[X 1{X <= t}] + E[X^2 1{X <= t}]."""
        return None

    def descriptor(self) -> str:
        raise NotImplementedError

    # -- shared operations --------------------------------------------------

    @property
    def lep(self) -> float:
        """Lower end of the support, Q(0)."""
        return self.quantile(0.0)

    @property
    def uep(self) -> float:
        """Upper end of the support, Q(1)."""
        return self.quantile(1.0)

    def mean(self) -> float:
        value = self._cache.get("mean")
        if value is None:
            value = float(self._mean())
            self._cache["mean"] = value
        return value

    def expect(self, g: Callable, key=None) -> float:
        """E[g(X)]; results are cached per key when a key is given.

        A key names its integrand (`pow:c`, `log`, `neglog`, `xlogx`,
        `expneg:a`, `gini_first_moment`). On a parametric model a keyed
        moment with a closed form (`_moment`) is that form; any other is
        the quantile form, the integral of g(Q(p)) + g(Q(1-p)) over p in
        [0, 1/2] (see `_tails_integral`). Atomic models sum over their
        atoms exactly."""
        if key is None:
            return self._expect_impl(g)
        if key == "neglog":
            # minus E log X: one cached moment serves both keys
            return -self.expect(lambda x: -g(x), key="log")
        ck = ("expect", key)
        value = self._cache.get(ck)
        if value is None:
            value = self._moment(key)
            if value is None:
                value = self._expect_impl(g)
            self._cache[ck] = value
        return value

    def _moment(self, key):
        """The closed form of the moment `key` names, or None: for a key
        the kind has no form for, outside the form's domain (the moment
        diverges, and the quadrature raises as it would anyway) and where
        the form overflows."""
        try:
            return self._closed_moment(key)
        except MomentDiverges:
            return None

    def _closed_moment(self, key):
        """The closed form of the moment `key` names: None for a key the
        kind has no form for and where the form overflows; MomentDiverges
        outside the form's domain, where the moment is infinite. `neglog`
        is minus `log`, and the Gini's first moment is mu (1 + G)/2."""
        if not isinstance(key, str):
            return None
        name, sep, arg = key.partition(":")
        form = {"neglog": "log", "gini_first_moment": "gini"}.get(name, name)
        try:
            value = self._closed_form(form, float(arg) if sep else None)
            if value is None:
                return None
            if name == "neglog":
                value = -value
            elif name == "gini_first_moment":
                value = 0.5 * self.mean() * (1.0 + value)
        except (TypeError, ValueError, OverflowError, ZeroDivisionError):
            # a malformed key, a pole or a value out of float range
            return None
        return value if math.isfinite(value) else None

    def _closed_form(self, name: str, c):
        """The kind's closed forms by key name: E X^c (`pow`), E X^c log X
        (`powlog`), E X^c log^2 X (`powlog2`), E log X (`log`), E X log X
        (`xlogx`), E e^{-cX} (`expneg`), E X e^{-cX} (`xexpneg`) and the
        Gini coefficient (`gini`); None where it has none. Outside a
        form's domain it raises MomentDiverges (`_diverges`)."""
        return None

    def _expect_impl(self, g) -> float:
        return self._tails_integral(g, 0.0, 0.5)

    def _tails_integral(self, g, lo: float, hi: float) -> float:
        """integral over p in [lo, hi] of g(Q(p)) + g(Q(1-p)), for
        0 <= lo < hi <= 1/2: the part of E g(X) that the probability
        pieces [lo, hi] and [1-hi, 1-lo] carry. One adaptive integral in
        u = p**(1/_GRADE), on a finite interval whatever the support."""
        return integrate(_graded_tails(self, g), lo ** (1.0 / _GRADE),
                         hi ** (1.0 / _GRADE))

    def _tail_quantiles(self, ps: np.ndarray):
        """(Q(p), Q(1-p)) on an array of p in (0, 1/2]."""
        return self.quantile_array(ps), self.isf_array(ps)

    def mass(self, x: float) -> float:
        """Probability mass of the atom at x (0 for continuous kinds)."""
        return 0.0

    def quantile_array(self, ps) -> np.ndarray:
        ps = np.asarray(ps, dtype=float)
        return np.array([self.quantile(p) for p in ps.ravel()]).reshape(ps.shape)

    def lorenz(self, p: float) -> float:
        """Lorenz curve L(F, p) = (1/mu) * integral_0^p Q(s) ds, from the
        partial mean at q = Q(p): (E[X 1{X <= q}] + q (p - F(q)))/mu. The
        second term takes back the part of an atom at q that lies above p."""
        p = _check_prob(p)
        if p == 0.0:
            return 0.0
        if p == 1.0:
            return 1.0
        q = self.quantile(p)
        return (self.partial_mean(q) + q * (p - float(self.cdf(q)))) / self.mean()


def _graded_tails(F: Distribution, g):
    """u -> (g(Q(p)) + g(Q(1-p))) dp/du at p = u**_GRADE, on arrays of u.

    A node whose p underflows to 0 adds nothing: for a moment that
    exists the integrand vanishes there, and g at an end of the support
    may be infinite (log 0) or undefined (0 * inf)."""
    evaluate = _make_evaluator(g)

    def integrand(us: np.ndarray) -> np.ndarray:
        ps = us ** _GRADE
        inside = ps > 0.0
        low, high = F._tail_quantiles(np.where(inside, ps, 0.5))
        gx = evaluate(np.concatenate((low, high)))
        n = us.size
        dp = _GRADE * us ** (_GRADE - 1)
        return np.where(inside, (gx[:n] + gx[n:]) * dp, 0.0)

    return integrand


def _diverges(name: str, c) -> MomentDiverges:
    """The error of a closed form asked outside its domain, where the
    moment it names is infinite."""
    return MomentDiverges(f"the moment {name}:{_fmt(c)} diverges")


def _log_power(name: str, m: float, d1: float, d2: float) -> float:
    """E X^c log X (`powlog`) or E X^c log^2 X (`powlog2`) from m = E X^c
    and the first two c-derivatives d1, d2 of log E X^c: the first two
    c-derivatives of E X^c, m d1 and m (d1^2 + d2)."""
    return m * d1 if name == "powlog" else m * (d1 * d1 + d2)


def _psi_pair(x: float):
    """(digamma(x), trigamma(x)). At an integer x in [1, 16] they are
    elementary, H_{x-1} - gamma and pi^2/6 - sum_{j < x} 1/j^2, and load
    no scipy; elsewhere `scipy.special` answers."""
    if x == int(x) and 1 <= x <= 16:
        js = range(1, int(x))
        return (math.fsum(1.0 / j for j in js) - _EULER,
                math.pi ** 2 / 6.0 - math.fsum(1.0 / (j * j) for j in js))
    special = _special()
    return float(special.digamma(x)), float(special.polygamma(1, x))


def _check_prob(p: float) -> float:
    p = float(p)
    if not 0.0 <= p <= 1.0:
        raise InvalidParameter(f"probability level must be in [0, 1], got {p}")
    return p


# ---------------------------------------------------------------------------
# Parametric kinds
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class Exponential(Distribution):
    rate: float = 1.0

    kind = "exponential"

    def __post_init__(self):
        if not self.rate > 0:
            raise InvalidParameter(f"exponential rate must be > 0, got {self.rate}")

    def cdf(self, x):
        x = np.asarray(x, dtype=float)
        return np.where(x < 0, 0.0, -np.expm1(-self.rate * np.maximum(x, 0.0)))

    def quantile(self, p):
        p = _check_prob(p)
        if p == 1.0:
            return math.inf
        return -math.log1p(-p) / self.rate

    def quantile_array(self, ps):
        ps = np.asarray(ps, dtype=float)
        return -np.log1p(-ps) / self.rate

    def isf_array(self, ss):
        return -np.log(np.asarray(ss, dtype=float)) / self.rate

    def _mean(self):
        return 1.0 / self.rate

    def partial_mean(self, t):
        # past rate * t = 1e3, e^{-lt} (1 + lt) is 0 and the partial mean
        # is the mean: the cap keeps 0 * inf out at t = inf
        lt = np.minimum(np.maximum(self.rate * np.asarray(t, dtype=float),
                                   0.0), 1e3)
        return _scalar((1.0 - np.exp(-lt) * (1.0 + lt)) / self.rate)

    def partial_second_moment(self, t):
        # 2 P(3, x)/rate^2 at x = rate t, with P(3, x) = 1 - e^{-x}(1 + x
        # + x^2/2): below x = 2 the difference cancels (to x^3/6 at 0), and
        # P(3, x) is summed as e^{-x} (x^3/3! + x^4/4! + ...) instead
        x = min(max(self.rate * float(t), 0.0), 1e3)
        if x < 2.0:
            term = total = x ** 3 / 6.0
            j = 3
            while term > 1e-17 * total:
                j += 1
                term *= x / j
                total += term
            p3 = math.exp(-x) * total
        else:
            p3 = 1.0 - math.exp(-x) * (1.0 + x * (1.0 + 0.5 * x))
        return 2.0 * p3 / self.rate / self.rate

    def _closed_form(self, name, c):
        # E X^c = Gamma(1 + c)/rate^c for c > -1: its log has the
        # c-derivatives digamma(1 + c) - log rate and trigamma(1 + c)
        rate = self.rate
        if name in ("pow", "powlog", "powlog2"):
            if not c > -1.0:
                raise _diverges(name, c)
            m = math.gamma(1.0 + c) / rate ** c
            if name == "pow":
                return m
            psi, psi1 = _psi_pair(1.0 + c)
            return _log_power(name, m, psi - math.log(rate), psi1)
        if name == "log":
            return -_EULER - math.log(rate)
        if name == "xlogx":
            return (1.0 - _EULER - math.log(rate)) / rate
        if name in ("expneg", "xexpneg"):
            if not rate + c > 0.0:
                raise _diverges(name, c)
            ratio = rate / (rate + c)
            # E X e^{-cX}: the tilted law is exponential at rate + c
            return ratio if name == "expneg" else ratio / (rate + c)
        if name == "gini":
            return 0.5
        return None

    def descriptor(self):
        return f"exp:{_fmt(self.rate)}"


@dataclass(frozen=True)
class Pareto(Distribution):
    shape: float
    scale: float

    kind = "pareto"

    def __post_init__(self):
        if not self.shape > 1:
            raise InvalidParameter(
                f"pareto shape must be > 1 for a finite mean, got {self.shape}"
            )
        if not self.scale > 0:
            raise InvalidParameter(f"pareto scale must be > 0, got {self.scale}")

    def cdf(self, x):
        x = np.asarray(x, dtype=float)
        safe = np.maximum(x, self.scale)
        return np.where(x < self.scale, 0.0, 1.0 - (self.scale / safe) ** self.shape)

    def quantile(self, p):
        p = _check_prob(p)
        if p == 1.0:
            return math.inf
        return self.scale * (1.0 - p) ** (-1.0 / self.shape)

    def quantile_array(self, ps):
        ps = np.asarray(ps, dtype=float)
        return self.scale * (1.0 - ps) ** (-1.0 / self.shape)

    def isf_array(self, ss):
        return self.scale * np.asarray(ss, dtype=float) ** (-1.0 / self.shape)

    def _mean(self):
        return self.shape * self.scale / (self.shape - 1.0)

    def partial_mean(self, t):
        # below the scale the ratio is 1 and the mass 0; at inf it is 0
        ratio = np.maximum(np.asarray(t, dtype=float), self.scale) / self.scale
        return _scalar(self.mean() * (1.0 - ratio ** (1.0 - self.shape)))

    def partial_second_moment(self, t):
        # k s^2 (1 - (t/s)^(2-k))/(k - 2), through -expm1: exact near k = 2,
        # where it tends to 2 s^2 log(t/s)
        k, s = self.shape, self.scale
        log_ratio = math.log(max(float(t), s) / s)
        w = k - 2.0
        factor = log_ratio if w == 0.0 else -math.expm1(-w * log_ratio) / w
        return k * s * s * factor

    def _closed_form(self, name, c):
        # E X^c = k s^c/(k - c) for c < k: its log has the c-derivatives
        # log s + 1/(k - c) and 1/(k - c)^2
        k, s = self.shape, self.scale
        if name in ("pow", "powlog", "powlog2"):
            if not c < k:
                raise _diverges(name, c)
            m = k * s ** c / (k - c)
            if name == "pow":
                return m
            r = 1.0 / (k - c)
            return _log_power(name, m, math.log(s) + r, r * r)
        if name == "log":
            return math.log(s) + 1.0 / k
        if name == "xlogx":
            # X log X under the size-biased law, a Pareto of shape k - 1
            return self.mean() * (math.log(s) + 1.0 / (k - 1.0))
        if name == "gini":
            return 1.0 / (2.0 * k - 1.0)
        return None

    def descriptor(self):
        return f"pareto:{_fmt(self.shape)},{_fmt(self.scale)}"


@dataclass(frozen=True)
class LogNormal(Distribution):
    log_mean: float = 0.0
    sigma: float = 1.0

    kind = "lognormal"

    def __post_init__(self):
        if not self.sigma > 0:
            raise InvalidParameter(f"lognormal sigma must be > 0, got {self.sigma}")

    def cdf(self, x):
        x = np.asarray(x, dtype=float)
        safe = np.where(x > 0, x, 1.0)
        u = (np.log(safe) - self.log_mean) / self.sigma
        return np.where(x > 0, _ncdf_array(u), 0.0)

    def quantile(self, p):
        p = _check_prob(p)
        if p == 0.0:
            return 0.0
        if p == 1.0:
            return math.inf
        return math.exp(self.log_mean + self.sigma * _inv_ncdf(p))

    def quantile_array(self, ps):
        ps = np.asarray(ps, dtype=float)
        return np.exp(self.log_mean + self.sigma * _special().ndtri(ps))

    def isf_array(self, ss):
        ss = np.asarray(ss, dtype=float)
        return np.exp(self.log_mean - self.sigma * _probit(ss))

    def _tail_quantiles(self, ps):
        # one stdlib probit serves both tails (ndtri would load scipy)
        z = self.sigma * _probit(ps)
        return np.exp(self.log_mean + z), np.exp(self.log_mean - z)

    def _mean(self):
        return math.exp(self.log_mean + 0.5 * self.sigma ** 2)

    def partial_mean(self, t):
        # at t = inf, u = inf and the normal cdf is 1
        t = np.asarray(t, dtype=float)
        safe = np.where(t > 0, t, 1.0)
        u = (np.log(safe) - self.log_mean - self.sigma ** 2) / self.sigma
        return _scalar(np.where(t > 0, self.mean() * _ncdf_array(u), 0.0))

    def partial_second_moment(self, t):
        # E X^2 Phi(u): X^2 tilts the law to lognormal(m + 2 sigma^2, sigma)
        t = float(t)
        if not t > 0.0:
            return 0.0
        m, sigma = self.log_mean, self.sigma
        u = (math.log(t) - m - 2.0 * sigma * sigma) / sigma
        return math.exp(2.0 * (m + sigma * sigma)) * _ncdf(u)

    def _closed_form(self, name, c):
        # E X^c = exp(c m + c^2 sigma^2/2): its log has the c-derivatives
        # m + c sigma^2 and sigma^2
        m, sigma = self.log_mean, self.sigma
        if name in ("pow", "powlog", "powlog2"):
            power = math.exp(c * m + 0.5 * (c * sigma) ** 2)
            if name == "pow":
                return power
            return _log_power(name, power, m + c * sigma * sigma,
                              sigma * sigma)
        if name == "log":
            return m
        if name == "xlogx":
            # the size-biased law is lognormal(m + sigma^2, sigma)
            return self.mean() * (m + sigma * sigma)
        if name == "gini":
            return math.erf(0.5 * sigma)
        return None

    def descriptor(self):
        return f"lognormal:{_fmt(self.log_mean)},{_fmt(self.sigma)}"


@dataclass(frozen=True)
class SinghMaddala(Distribution):
    a: float
    b: float
    q: float

    kind = "singh_maddala"

    def __post_init__(self):
        if not self.a > 0:
            raise InvalidParameter(f"singh-maddala a must be > 0, got {self.a}")
        if not self.b > 0:
            raise InvalidParameter(f"singh-maddala b must be > 0, got {self.b}")
        if not self.q > 1.0 / self.a:
            raise InvalidParameter(
                f"singh-maddala needs q > 1/a for a finite mean, got q={self.q}, a={self.a}"
            )

    def cdf(self, x):
        x = np.asarray(x, dtype=float)
        safe = np.maximum(x, 0.0)
        return np.where(x <= 0, 0.0, 1.0 - (1.0 + (safe / self.b) ** self.a) ** (-self.q))

    def quantile(self, p):
        p = _check_prob(p)
        if p == 0.0:
            return 0.0
        if p == 1.0:
            return math.inf
        # (1-p)^(-1/q) - 1 without the cancellation at small p
        return self.b * math.expm1(-math.log1p(-p) / self.q) ** (1.0 / self.a)

    def quantile_array(self, ps):
        ps = np.asarray(ps, dtype=float)
        return self.b * np.expm1(-np.log1p(-ps) / self.q) ** (1.0 / self.a)

    def isf_array(self, ss):
        ss = np.asarray(ss, dtype=float)
        return self.b * np.expm1(-np.log(ss) / self.q) ** (1.0 / self.a)

    def _mean(self):
        return self.b * math.exp(
            math.lgamma(1.0 + 1.0 / self.a)
            + math.lgamma(self.q - 1.0 / self.a)
            - math.lgamma(self.q)
        )

    def partial_mean(self, t):
        # past w = 1e300, w/(1 + w) is 1: the cap keeps inf/inf out at t = inf
        t = np.maximum(np.asarray(t, dtype=float), 0.0)
        w = np.minimum((t / self.b) ** self.a, 1e300)
        return _scalar(self.mean() * _special().betainc(
            1.0 + 1.0 / self.a, self.q - 1.0 / self.a, w / (1.0 + w)))

    def partial_second_moment(self, t):
        # E X^2 I_x(1 + 2/a, q - 2/a) at x = w/(1 + w), w = (t/b)^a, as
        # `partial_mean`; the form needs a finite E X^2, a q > 2. x is
        # formed from the ratio t/b or b/t, whichever is at most 1, so the
        # power neither overflows nor divides inf by inf
        a, q = self.a, self.q
        if not a * q > 2.0:
            return None
        t = float(t)
        if not t > 0.0:
            return 0.0
        r = t / self.b
        x = r ** a / (1.0 + r ** a) if r <= 1.0 else 1.0 / (1.0 + r ** -a)
        return self._closed_form("pow", 2.0) * float(
            _special().betainc(1.0 + 2.0 / a, q - 2.0 / a, x))

    def _closed_form(self, name, c):
        # E X^c = b^c G(1 + c/a) G(q - c/a) / G(q), for -a < c < a q; E log X
        # and E X log X are its derivatives in c at c = 0 and c = 1. Its
        # log has the c-derivatives log b + (psi(1 + c/a) - psi(q - c/a))/a
        # and (psi'(1 + c/a) + psi'(q - c/a))/a^2.
        a, b, q = self.a, self.b, self.q
        if name in ("pow", "powlog", "powlog2"):
            if not -a < c < a * q:
                raise _diverges(name, c)
            # (a + c)/a, not 1 + c/a: exact where c nears -a
            lo, hi = (a + c) / a, q - c / a
            m = b ** c * math.exp(math.lgamma(lo) + math.lgamma(hi)
                                  - math.lgamma(q))
            if name == "pow":
                return m
            (psi_lo, psi1_lo), (psi_hi, psi1_hi) = _psi_pair(lo), _psi_pair(hi)
            return _log_power(name, m, math.log(b) + (psi_lo - psi_hi) / a,
                              (psi1_lo + psi1_hi) / (a * a))
        if name == "log":
            psi = _special().digamma
            return math.log(b) + float(psi(1.0) - psi(q)) / a
        if name == "xlogx":
            psi = _special().digamma
            return self.mean() * (math.log(b) + float(
                psi(1.0 + 1.0 / a) - psi(q - 1.0 / a)) / a)
        if name == "gini":
            return 1.0 - math.exp(math.lgamma(q) + math.lgamma(2.0 * q - 1.0 / a)
                                  - math.lgamma(q - 1.0 / a)
                                  - math.lgamma(2.0 * q))
        return None

    def descriptor(self):
        return f"sm:{_fmt(self.a)},{_fmt(self.b)},{_fmt(self.q)}"


def _uniform_log_power(name: str, t: float, x: float) -> float:
    """An antiderivative of x^(t-1) log^k x at x, 0 at x = 0 where t > 0:
    x^t (log x - 1/t)/t for k = 1 (`powlog`), x^t ((log x - 1/t)^2
    + 1/t^2)/t for k = 2 (`powlog2`), and log^(k+1) x/(k+1) at t = 0."""
    if x == 0.0:
        return 0.0
    log_x = math.log(x)
    if t == 0.0:
        return log_x ** 2 / 2.0 if name == "powlog" else log_x ** 3 / 3.0
    u = log_x - 1.0 / t
    return x ** t * (u if name == "powlog" else u * u + 1.0 / (t * t)) / t


# `_uniform_log_offset` sums its series below this delta and takes the
# closed difference above it, where the difference keeps the offset within
# 1e-14 relative (against mpmath)
_LOG_SERIES_BELOW = 0.5


def _uniform_log_offset(name: str, lo: float, hi: float) -> float:
    """E log X - log mu (`log`) or E X log X/mu - log mu (`xlogx`) on
    uniform(lo, hi). With X = mu (1 + d U), U uniform on [-1, 1] and
    d = delta = (hi - lo)/(hi + lo), they are

      c0 = E log(1 + d U) = [(1+d) log(1+d) - (1-d) log(1-d)]/(2d) - 1
         = -sum_k d^(2k)/(2k (2k + 1)),
      c1 = E (1 + d U) log(1 + d U)
         = [(1+d)^2 log(1+d) - (1-d)^2 log(1-d)]/(4d) - 1/2
         = sum_j d^(2j)/(2j (2j - 1) (2j + 1)).

    Near equality the closed differences cancel, so below
    `_LOG_SERIES_BELOW` the even series is summed instead. Above it the
    ends 1 -+ d are read as 2 lo/(lo + hi) and 2 hi/(lo + hi), exact to
    rounding at any lo/hi, and (1 - d)^j log(1 - d) is 0 at lo = 0."""
    delta = (hi - lo) / (hi + lo)
    if delta < _LOG_SERIES_BELOW:
        d2 = delta * delta
        power, total, k = 1.0, 0.0, 0
        while True:
            power *= d2
            k += 2
            term = power / (k * (k + 1) if name == "log"
                            else k * (k - 1) * (k + 1))
            total += term
            if term <= 1e-17 * total:
                break
        return -total if name == "log" else total
    lower, upper = 2.0 * lo / (lo + hi), 2.0 * hi / (lo + hi)
    j = 1 if name == "log" else 2
    low_end = lower ** j * math.log(lower) if lower > 0.0 else 0.0
    return (upper ** j * math.log(upper) - low_end) / (2 * j * delta) \
        - 1.0 / j


@dataclass(frozen=True)
class Uniform(Distribution):
    lo: float = 0.0
    hi: float = 1.0

    kind = "uniform"

    def __post_init__(self):
        if not (0.0 <= self.lo < self.hi):
            raise InvalidParameter(
                f"uniform needs 0 <= lo < hi, got ({self.lo}, {self.hi})"
            )

    def cdf(self, x):
        x = np.asarray(x, dtype=float)
        return np.clip((x - self.lo) / (self.hi - self.lo), 0.0, 1.0)

    def quantile(self, p):
        p = _check_prob(p)
        return self.hi if p == 1.0 else self.lo + p * (self.hi - self.lo)

    def quantile_array(self, ps):
        ps = np.asarray(ps, dtype=float)
        return self.lo + ps * (self.hi - self.lo)

    def isf_array(self, ss):
        return self.hi - np.asarray(ss, dtype=float) * (self.hi - self.lo)

    def _mean(self):
        return 0.5 * (self.lo + self.hi)

    def partial_mean(self, t):
        lo, hi = self.lo, self.hi
        t = np.minimum(np.maximum(np.asarray(t, dtype=float), lo), hi)
        # factored: (t^2 - lo^2)/(2 (hi - lo)) cancels near equality
        return _scalar((t - lo) / (hi - lo) * (0.5 * (lo + t)))

    def partial_second_moment(self, t):
        lo, hi = self.lo, self.hi
        t = min(max(float(t), lo), hi)
        # factored, as `partial_mean`: (t^3 - lo^3)/(3 (hi - lo))
        return (t - lo) / (hi - lo) * ((t * t + t * lo + lo * lo) / 3.0)

    def _closed_form(self, name, c):
        lo, hi = self.lo, self.hi
        d = hi - lo
        if name in ("log", "xlogx"):
            # centred on the mean: the measures read their difference from
            # log mu, which `_uniform_log_offset` keeps at any width
            mu = 0.5 * (lo + hi)
            offset = _uniform_log_offset(name, lo, hi)
            return (math.log(mu) + offset if name == "log"
                    else mu * (math.log(mu) + offset))
        if name == "pow":
            # (hi^t - lo^t)/(t d) with t = c + 1, factored out of the end
            # whose power dominates, so the expm1 argument stays <= 0: it
            # neither cancels near equality nor overflows far from it
            t = c + 1.0
            if t > 0.0:
                u = -d / hi
                # log(lo/hi), -inf where lo = 0 or lo/hi underflows
                log_ratio = math.log1p(u) if u > -1.0 else -math.inf
                return hi ** c * math.expm1(t * log_ratio) / (t * u)
            if lo == 0.0:
                raise _diverges(name, c)  # E X^c diverges at 0 for c <= -1
            if t == 0.0:
                return math.log1p(d / lo) / d
            return lo ** t * -math.expm1(t * math.log1p(d / lo)) / (-t * d)
        if name in ("powlog", "powlog2"):
            # (G(hi) - G(lo))/d with G an antiderivative of x^c log^k x;
            # they cancel near equality, where the variance's guard refuses
            t = c + 1.0
            if lo == 0.0 and not t > 0.0:
                raise _diverges(name, c)  # as E X^c, log^k X does not help
            return (_uniform_log_power(name, t, hi)
                    - _uniform_log_power(name, t, lo)) / d
        if name in ("expneg", "xexpneg"):
            w = c * d
            expneg = math.exp(-c * lo) * -math.expm1(-w) / w
            if name == "expneg":
                return expneg
            # E X e^{-cX} = E e^{-cX} (lo + d m(w)): under the tilted law
            # (X - lo)/d is a truncated exponential of mean
            # m(w) = 1/w - 1/(e^w - 1), by its Bernoulli series near w = 0
            if abs(w) < 0.1:
                w2 = w * w
                m = 0.5 - w / 12.0 * (1.0 - w2 / 60.0 * (
                    1.0 - w2 / 42.0 * (1.0 - w2 / 40.0)))
            else:
                m = 1.0 / w - 1.0 / math.expm1(w)
            return expneg * (lo + d * m)
        if name == "gini":
            return d / (3.0 * (hi + lo))
        return None

    def descriptor(self):
        return f"uniform:{_fmt(self.lo)},{_fmt(self.hi)}"


# ---------------------------------------------------------------------------
# Atomic kinds
# ---------------------------------------------------------------------------


@dataclass(frozen=True, eq=False)
class Empirical(Distribution):
    """Right-continuous step cdf with jumps 1/n at the sorted observations.

    The quantile is the left-continuous generalized inverse: the order
    statistic at index ceil(n*p). This is also the validated sample type:
    `from_values` sorts raw incomes, and drawn or ingested samples are
    Empirical. With one observation it is the point mass `Dirac(x)`.

    `values` may also be 2-D: a block of equal-size samples, one sorted
    sample per row, as a contaminated grid holds one mixture per point.
    Every check runs per row. The mean, moments, atom masses, the quantile
    at one level and partial means are then arrays with one value per row;
    a partial mean reads one t per row along the last axis of t. The cdf,
    quantile arrays, insertion, mid-cdf, Lorenz curve and influence
    function (so the asymptotic variance too) need one sample.
    """

    values: np.ndarray

    kind = "empirical"

    def __post_init__(self):
        vals = np.asarray(self.values, dtype=float)
        if vals.ndim not in (1, 2) or vals.size < 1:
            raise InvalidParameter("empirical distribution needs n >= 1 observations")
        if (vals[..., 1:] < vals[..., :-1]).any():
            raise InvalidParameter("empirical observations must be sorted")
        # sorted, so a row's ends bound its values; its mean is NaN iff one is
        if (vals[..., 0] < 0).any():
            raise InvalidParameter("empirical observations must be non-negative")
        mean = vals.mean(axis=-1)
        if np.isnan(mean).any() or (vals[..., -1] == math.inf).any():
            raise InvalidParameter("empirical observations must be finite")
        if not (mean > 0).all():
            raise InvalidParameter("empirical mean must be positive")
        object.__setattr__(self, "values", vals)
        self._cache["mean"] = _scalar(mean)

    @classmethod
    def from_values(cls, values) -> "Empirical":
        return cls(np.sort(np.asarray(values, dtype=float)))

    @property
    def n(self) -> int:
        return int(self.values.shape[-1])

    def _one_sample(self):
        if self.values.ndim > 1:
            raise InvalidParameter(
                "the cdf, quantile arrays, mid-cdf, insertion, Lorenz curve "
                "and IF need one sample, not a block of samples")

    def _rank(self, t, side="right"):
        """`searchsorted` per sample: the number of observations <= t (< t
        for side 'left'); on a block, t runs over the rows along its last
        axis."""
        if self.values.ndim == 1:
            return np.searchsorted(self.values, t, side=side)
        t = np.expand_dims(t, -1)
        below = self.values <= t if side == "right" else self.values < t
        return np.count_nonzero(below, axis=-1)

    def with_inserted(self, z: float) -> "Empirical":
        """The sample with one more observation z, kept sorted."""
        self._one_sample()
        z = float(z)
        if z < 0:
            raise InvalidParameter(f"inserted observation must be >= 0, got {z}")
        idx = int(np.searchsorted(self.values, z))
        return Empirical(np.insert(self.values, idx, z))

    def cdf(self, x):
        self._one_sample()
        x = np.asarray(x, dtype=float)
        return np.searchsorted(self.values, x, side="right") / self.n

    def quantile(self, p):
        k = int(math.ceil(self.n * _check_prob(p) - 1e-9))
        return _scalar(self.values[..., min(max(k, 1), self.n) - 1])

    def quantile_array(self, ps):
        self._one_sample()
        ps = np.asarray(ps, dtype=float)
        k = np.ceil(self.n * ps - 1e-9).astype(int).clip(1, self.n)
        return self.values[k - 1]

    def _expect_impl(self, g):
        return _scalar(_make_evaluator(g)(self.values).mean(axis=-1))

    def mass(self, x):
        return (self._rank(x) - self._rank(x, side="left")) / self.n

    def mid_cdf_array(self, xs) -> np.ndarray:
        """(F(x-) + F(x))/2 per element: the mid-distribution function."""
        self._one_sample()
        xs = np.asarray(xs, dtype=float)
        lo = np.searchsorted(self.values, xs, side="left")
        hi = np.searchsorted(self.values, xs, side="right")
        return (lo + hi) / (2.0 * self.n)

    def lorenz(self, p):
        self._one_sample()
        return super().lorenz(p)

    def partial_mean(self, t):
        prefix = self._cache.get("prefix")
        if prefix is None:
            v = self.values
            prefix = np.concatenate((np.zeros(v.shape[:-1] + (1,)),
                                     np.cumsum(v, axis=-1)), axis=-1) / self.n
            self._cache["prefix"] = prefix
        k = self._rank(t)
        if prefix.ndim == 1:
            return _scalar(prefix[k])
        return prefix[np.arange(len(prefix)), k]

    def descriptor(self):
        if self.values.ndim > 1:
            return f"empirical:n={self.n},samples={len(self.values)}"
        if self.n == 1:
            return f"dirac:{_fmt(self.values[0])}"
        return f"empirical:n={self.n}"


def Dirac(location: float) -> Empirical:
    """The point mass at `location`, as the one-point Empirical law."""
    if not location > 0:
        raise InvalidParameter(
            f"dirac location must be > 0 (zero mean rejected), got {location}"
        )
    return Empirical(np.array([location], dtype=float))


@dataclass(frozen=True, eq=False)
class Contaminated(Distribution):
    """Mixture (1-eps)*F + eps*Dirac(z), exact in the atom weight.

    Either eps is a real weight in [0, 1] and z one point, or z is a 1-D
    array of points and eps an array of purely imaginary steps of the same
    shape: the complex-step oracle's grid, one mixture per point, linear in
    eps as for a real weight. On a grid the mean, moments, cdf, masses and
    partial means (at a scalar t) are complex arrays over the points; the
    quantile and the support ends need one point.
    """

    base: Distribution
    epsilon: float
    z: float

    kind = "contaminated"

    def __post_init__(self):
        eps, z = self.epsilon, self.z
        if isinstance(z, np.ndarray):
            if not (z.ndim == 1 and isinstance(eps, np.ndarray)
                    and eps.shape == z.shape and eps.dtype.kind == "c"
                    and not eps.real.any() and np.isfinite(eps.imag).all()
                    and (z >= 0.0).all()):
                raise InvalidParameter(
                    "a grid of points z >= 0 needs a 1-D array of finite "
                    "imaginary steps of its shape")
            return
        if isinstance(eps, complex) or not 0.0 <= eps <= 1.0:
            raise InvalidParameter(f"epsilon must be in [0, 1], got {eps}")
        if not z >= 0.0:
            raise InvalidParameter(f"contamination point must be >= 0, got {z}")
        object.__setattr__(self, "epsilon", float(eps))
        object.__setattr__(self, "z", float(z))

    def _one_point(self):
        if _is_array(self.z):
            raise InvalidParameter(
                "a grid of contaminations has no quantile or support ends")

    # the support ends come from the parts: the quantile reads them at 0 and 1
    @property
    def lep(self):
        self._one_point()
        if self.epsilon == 0.0:
            return self.base.lep
        if self.epsilon == 1.0:
            return self.z
        return min(self.base.lep, self.z)

    @property
    def uep(self):
        self._one_point()
        if self.epsilon == 0.0:
            return self.base.uep
        if self.epsilon == 1.0:
            return self.z
        return max(self.base.uep, self.z)

    def cdf(self, x):
        x = np.asarray(x, dtype=float)
        return (1.0 - self.epsilon) * self.base.cdf(x) \
            + self.epsilon * (x >= self.z)

    def quantile(self, p):
        # Exact generalized inverse of G = w*F + eps*1{x >= z}: the scaled
        # base quantile below the atom's jump, z on it, the shifted base
        # quantile above it. At eps = 1 every p lies on the jump. The clamps
        # absorb rounding in p/w.
        self._one_point()
        p = _check_prob(p)
        if p == 0.0:
            return self.lep
        if p == 1.0:
            return self.uep
        eps, z = self.epsilon, self.z
        if eps == 0.0:
            return self.base.quantile(p)
        w = 1.0 - eps
        cdf_z = float(self.base.cdf(z))
        if p <= w * (cdf_z - self.base.mass(z)):
            return min(self.base.quantile(p / w), z)
        if p <= w * cdf_z + eps:
            return z
        return max(self.base.quantile((p - eps) / w), z)

    def mean(self):
        # uncached: an array over a grid, and one multiply-add
        return (1.0 - self.epsilon) * self.base.mean() + self.epsilon * self.z

    def _expect_impl(self, g):
        return (1.0 - self.epsilon) * self.base.expect(g) \
            + self.epsilon * _scalar(g(self.z))

    def expect(self, g, key=None):
        # Delegate caching of the base integral to the base distribution so
        # every eps-view of the same base reuses one quadrature result.
        return (1.0 - self.epsilon) * self.base.expect(g, key=key) \
            + self.epsilon * _scalar(g(self.z))

    def mass(self, x):
        return (1.0 - self.epsilon) * self.base.mass(x) \
            + self.epsilon * (self.z == x)

    def partial_mean(self, t):
        # the atom's term is 0, not eps * inf * 0, where z = inf lies above t
        return _scalar((1.0 - self.epsilon) * self.base.partial_mean(t)
                       + self.epsilon * np.where(self.z <= t, self.z, 0.0))

    def descriptor(self):
        eps, z = self.epsilon, self.z
        if _is_array(z):
            return (f"contaminated({self.base.descriptor()},"
                    f"eps=<{z.size} imaginary steps>,z=<{z.size} points>)")
        return (f"contaminated({self.base.descriptor()},"
                f"eps={_fmt(eps)},z={_fmt(z)})")


# ---------------------------------------------------------------------------
# Module-level operations
# ---------------------------------------------------------------------------

_KIND_ALIASES = {
    "exp": "exponential",
    "exponential": "exponential",
    "pareto": "pareto",
    "lognormal": "lognormal",
    "sm": "singh_maddala",
    "singh_maddala": "singh_maddala",
    "uniform": "uniform",
    "dirac": "dirac",
}

_CONSTRUCTORS = {
    "exponential": (Exponential, 1),
    "pareto": (Pareto, 2),
    "lognormal": (LogNormal, 2),
    "singh_maddala": (SinghMaddala, 3),
    "uniform": (Uniform, 2),
    "dirac": (Dirac, 1),
}


def make_distribution(kind: str, *params: float) -> Distribution:
    """Build a parametric distribution from its kind name and parameters.

    Parameter order follows the CLI grammar: exp:rate, pareto:shape,scale,
    lognormal:log_mean,sigma, uniform:lo,hi, sm:a,b,q, dirac:location.
    """
    norm = _KIND_ALIASES.get(str(kind).lower())
    if norm is None:
        raise InvalidParameter(f"unknown distribution kind {kind!r}")
    ctor, arity = _CONSTRUCTORS[norm]
    if len(params) != arity:
        raise InvalidParameter(
            f"{norm} takes {arity} parameter(s), got {len(params)}"
        )
    values = [float(p) for p in params]
    if not all(map(math.isfinite, values)):
        raise InvalidParameter(f"{norm} parameters must be finite, got {values}")
    return ctor(*values)


def contaminate(base: Distribution, epsilon: float, z: float) -> Contaminated:
    """Return the mixture (1-eps)*base + eps*Dirac(z), for a real eps in
    [0, 1]; the oracle's grid is built as a `Contaminated` itself."""
    return Contaminated(base, epsilon, z)


def scaled(F: Distribution, c: float) -> Distribution:
    """Distribution of c*X for c > 0."""
    if not c > 0:
        raise InvalidParameter(f"scale factor must be > 0, got {c}")
    if isinstance(F, Exponential):
        return Exponential(F.rate / c)
    if isinstance(F, Pareto):
        return Pareto(F.shape, c * F.scale)
    if isinstance(F, LogNormal):
        return LogNormal(F.log_mean + math.log(c), F.sigma)
    if isinstance(F, SinghMaddala):
        return SinghMaddala(F.a, c * F.b, F.q)
    if isinstance(F, Uniform):
        return Uniform(c * F.lo, c * F.hi)
    if isinstance(F, Empirical):
        return Empirical(c * F.values)
    if isinstance(F, Contaminated):
        return Contaminated(scaled(F.base, c), F.epsilon, c * F.z)
    raise InvalidParameter(f"cannot scale distribution kind {F.kind!r}")


def translated(F: Distribution, t: float) -> Distribution:
    """Distribution of X + t, for families closed under translation."""
    if not t >= 0:
        raise InvalidParameter(f"translation must keep support >= 0, got {t}")
    if isinstance(F, Uniform):
        return Uniform(F.lo + t, F.hi + t)
    if isinstance(F, Empirical):
        return Empirical(F.values + t)
    if isinstance(F, Contaminated):
        return Contaminated(translated(F.base, t), F.epsilon, F.z + t)
    raise InvalidParameter(
        f"distribution kind {F.kind!r} is not closed under translation"
    )
