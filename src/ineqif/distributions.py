"""Probability models for non-negative income variables.

Parametric laws (Pareto, exponential, lognormal, Singh-Maddala, uniform),
empirical step distributions, and exact Dirac-contaminated mixtures; a
point mass `Dirac(x)` is the one-point empirical law. Each kind states its
cdf, quantile, mean and partial mean E[X 1{X <= t}] once, and the base
class derives the rest from them: the support ends lep = Q(0) and
uep = Q(1), and the Lorenz curve from the partial mean at Q(p) (exact
through atoms, no quadrature).

A parametric model answers a keyed moment from its closed form first
(`_moment`): E X^c on every kind, E log X and E X log X on every kind but
the uniform (there they would cancel near equality), E e^{-aX} on the
exponential and the uniform, and the Gini's first moment E[X F(X)]. The
asymptotic variances read three more forms (`_closed_moment`): the
log-power moments E X^c log X and E X^c log^2 X, the first two
c-derivatives of E X^c, on every kind, and E X e^{-aX} on the exponential
and the uniform. Outside a form's domain the moment is infinite, and
`_closed_moment` raises MomentDiverges. Outside the domain, and for every
other expectation, `expect` computes the moment in probability space,
in the quantile form E g(X) = integral over p in [0, 1] of g(Q(p)), on
finite intervals only; that quadrature also raises where a moment
diverges. The upper half reads the inverse survival
function Q(1-s) (`isf_array`), so 1-s never rounds to 1 in the tail, and
both ends are graded as p = u**8, which makes power-law ends regular
integrands. The quantile carries the scale, so the quadrature nodes do not
depend on it. Every such integral runs at `integrate`'s one error target,
so a cached moment is keyed by its integrand alone. Each kind keeps its
density `pdf` as an independent x-space route for the tests.

Mixtures keep their atom explicit: expectations over a contaminated
distribution decompose exactly as (1-eps)*E[g] + eps*g(z), never through
quadrature across the atom. The numerical Gateaux oracle depends on that
exact linearity in eps, and its complex step takes a purely imaginary eps
through the mean, the atom masses and the moments unchanged. A mixture may
also hold a whole grid of points z, each with its own imaginary step: its
mean, moments, cdf, atom masses and partial means are then arrays over the
grid, and the oracle reads every point from one evaluation of the measure.
"""
from __future__ import annotations

import functools
import math
from dataclasses import dataclass, field
from statistics import NormalDist
from typing import Callable

import numpy as np

from .errors import DomainError, InvalidParameter, MomentDiverges
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
    arrays), Singh-Maddala partial means (`betainc`) and Singh-Maddala log
    moments (`digamma`) need it."""
    from scipy import special
    return special


_SQRT_HALF = math.sqrt(0.5)
_EULER = 0.5772156649015329  # Euler's gamma, -digamma(1)
_inv_ncdf = NormalDist().inv_cdf

# Both ends of the quantile form are graded as p = u**_GRADE: a power-law
# end p**-b becomes u**(7 - 8b), regular for the moments that exist.
_GRADE = 8


def _ncdf(u: float) -> float:
    """Standard normal cdf, accurate in the lower tail."""
    return 0.5 * math.erfc(-u * _SQRT_HALF)


def _ncdf_array(u: np.ndarray) -> np.ndarray:
    """`_ncdf` per element, through the stdlib's erfc: no scipy."""
    w = -u * _SQRT_HALF
    return 0.5 * np.fromiter(map(math.erfc, w.ravel().tolist()), float,
                             count=w.size).reshape(w.shape)


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
    """x as a Python float, or as a Python complex where it is complex (on
    the complex-step oracle's path, whose eps is imaginary); an array with
    dimensions is returned as it is."""
    if _is_array(x):
        return x
    return complex(x) if isinstance(x, complex) else float(x)


def _real(x):
    """x as a Python float, or as a float array where it has dimensions."""
    return np.asarray(x, dtype=float) if _is_array(x) else float(x)


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

    def pdf(self, x):
        raise DomainError(f"{self.kind} distribution has no density")

    def quantile(self, p: float) -> float:
        raise NotImplementedError

    def isf_array(self, ss) -> np.ndarray:
        """Q(1-s) on an array, exact as s -> 0 where 1-s would round to 1."""
        raise NotImplementedError

    def _mean(self) -> float:
        raise NotImplementedError

    def partial_mean(self, t):
        """E[X 1{X <= t}], with atoms at t counted in full; per element on
        an array of t."""
        raise NotImplementedError

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

    def pdf(self, x):
        x = np.asarray(x, dtype=float)
        return np.where(x < 0, 0.0, self.rate * np.exp(-self.rate * np.maximum(x, 0.0)))

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
        if _is_array(t):
            t = np.maximum(np.asarray(t, dtype=float), 0.0)
            lt = self.rate * t
            with np.errstate(invalid="ignore"):  # 0 * inf at t = inf
                pm = (1.0 - np.exp(-lt) * (1.0 + lt)) / self.rate
            return np.where(np.isinf(t), self.mean(), pm)
        if t <= 0:
            return 0.0
        if math.isinf(t):
            return self.mean()
        lt = self.rate * t
        return (1.0 - math.exp(-lt) * (1.0 + lt)) / self.rate

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

    def pdf(self, x):
        x = np.asarray(x, dtype=float)
        safe = np.maximum(x, self.scale)
        dens = self.shape * self.scale ** self.shape / safe ** (self.shape + 1.0)
        return np.where(x < self.scale, 0.0, dens)

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
        if _is_array(t):
            # below the scale the ratio is 1 and the mass 0; at inf it is 0
            ratio = np.maximum(np.asarray(t, dtype=float), self.scale) / self.scale
            return self.mean() * (1.0 - ratio ** (1.0 - self.shape))
        if t <= self.scale:
            return 0.0
        if math.isinf(t):
            return self.mean()
        return self.mean() * (1.0 - (t / self.scale) ** (1.0 - self.shape))

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

    def pdf(self, x):
        x = np.asarray(x, dtype=float)
        safe = np.where(x > 0, x, 1.0)
        u = (np.log(safe) - self.log_mean) / self.sigma
        val = np.exp(-0.5 * u * u) / (safe * self.sigma * math.sqrt(2.0 * math.pi))
        return np.where(x > 0, val, 0.0)

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
        if _is_array(t):
            t = np.asarray(t, dtype=float)
            safe = np.where(t > 0, t, 1.0)
            u = (np.log(safe) - self.log_mean - self.sigma ** 2) / self.sigma
            return np.where(t > 0, self.mean() * _ncdf_array(u), 0.0)
        if t <= 0:
            return 0.0
        if math.isinf(t):
            return self.mean()
        u = (math.log(t) - self.log_mean - self.sigma ** 2) / self.sigma
        return self.mean() * _ncdf(u)

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

    def pdf(self, x):
        x = np.asarray(x, dtype=float)
        safe = np.where(x > 0, x, 1.0)
        w = (safe / self.b) ** self.a
        dens = (self.a * self.q / self.b) * (safe / self.b) ** (self.a - 1.0) \
            * (1.0 + w) ** (-self.q - 1.0)
        return np.where(x > 0, dens, 0.0)

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
        if _is_array(t):
            w = (np.maximum(np.asarray(t, dtype=float), 0.0) / self.b) ** self.a
            with np.errstate(invalid="ignore"):  # inf/inf at t = inf
                u = np.where(np.isinf(w), 1.0, w / (1.0 + w))
            return self.mean() * _special().betainc(
                1.0 + 1.0 / self.a, self.q - 1.0 / self.a, u)
        if t <= 0:
            return 0.0
        if math.isinf(t):
            return self.mean()
        w = (t / self.b) ** self.a
        u = w / (1.0 + w)
        frac = float(_special().betainc(1.0 + 1.0 / self.a, self.q - 1.0 / self.a, u))
        return self.mean() * frac

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

    def pdf(self, x):
        x = np.asarray(x, dtype=float)
        inside = (x >= self.lo) & (x <= self.hi)
        return np.where(inside, 1.0 / (self.hi - self.lo), 0.0)

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
        if _is_array(t):
            t = np.clip(np.asarray(t, dtype=float), self.lo, self.hi)
        elif t <= self.lo:
            return 0.0
        else:
            t = min(t, self.hi)
        return (t * t - self.lo * self.lo) / (2.0 * (self.hi - self.lo))

    def _closed_form(self, name, c):
        # E log X and E X log X have none here that keeps its precision
        # near equality: the measures read their difference from log mu
        lo, hi = self.lo, self.hi
        d = hi - lo
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
    """

    values: np.ndarray

    kind = "empirical"

    def __post_init__(self):
        vals = np.asarray(self.values, dtype=float)
        if vals.ndim != 1 or vals.size < 1:
            raise InvalidParameter("empirical distribution needs n >= 1 observations")
        if (vals[1:] < vals[:-1]).any():
            raise InvalidParameter("empirical observations must be sorted")
        # sorted, so the ends bound the values; the mean is NaN iff one is
        if vals[0] < 0:
            raise InvalidParameter("empirical observations must be non-negative")
        mean = float(vals.mean())
        if math.isnan(mean) or vals[-1] == math.inf:
            raise InvalidParameter("empirical observations must be finite")
        if not mean > 0:
            raise InvalidParameter("empirical mean must be positive")
        object.__setattr__(self, "values", vals)
        self._cache["mean"] = mean

    @classmethod
    def from_values(cls, values) -> "Empirical":
        return cls(np.sort(np.asarray(values, dtype=float)))

    @property
    def n(self) -> int:
        return int(self.values.size)

    def with_inserted(self, z: float) -> "Empirical":
        """The sample with one more observation z, kept sorted."""
        z = float(z)
        if z < 0:
            raise InvalidParameter(f"inserted observation must be >= 0, got {z}")
        idx = int(np.searchsorted(self.values, z))
        return Empirical(np.insert(self.values, idx, z))

    def cdf(self, x):
        x = np.asarray(x, dtype=float)
        return np.searchsorted(self.values, x, side="right") / self.n

    def quantile(self, p):
        k = int(math.ceil(self.n * _check_prob(p) - 1e-9))
        return float(self.values[min(max(k, 1), self.n) - 1])

    def quantile_array(self, ps):
        ps = np.asarray(ps, dtype=float)
        k = np.ceil(self.n * ps - 1e-9).astype(int).clip(1, self.n)
        return self.values[k - 1]

    def _mean(self):
        return float(self.values.mean())

    def _expect_impl(self, g):
        return float(_make_evaluator(g)(self.values).mean())

    def mass(self, x):
        lo = np.searchsorted(self.values, x, side="left")
        hi = np.searchsorted(self.values, x, side="right")
        return (hi - lo) / self.n

    def mid_cdf_array(self, xs) -> np.ndarray:
        """(F(x-) + F(x))/2 per element: the mid-distribution function."""
        xs = np.asarray(xs, dtype=float)
        lo = np.searchsorted(self.values, xs, side="left")
        hi = np.searchsorted(self.values, xs, side="right")
        return (lo + hi) / (2.0 * self.n)

    def partial_mean(self, t):
        prefix = self._cache.get("prefix")
        if prefix is None:
            prefix = np.concatenate([[0.0], np.cumsum(self.values)]) / self.n
            self._cache["prefix"] = prefix
        return _real(prefix[np.searchsorted(self.values, t, side="right")])

    def descriptor(self):
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

    A purely imaginary eps is the complex-step oracle's path: the mean, the
    atom masses, partial means and moments are then complex, and linear in
    eps as for a real weight. On that path z may be a 1-D array of points
    with an array of imaginary steps of the same shape: one mixture per
    point, and the mean, moments, cdf, masses and partial means (at a
    scalar t) are arrays over the points. The quantile and the support ends
    need a real eps in [0, 1] and one point.
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
        if isinstance(eps, complex):
            if not (eps.real == 0.0 and math.isfinite(eps.imag)):
                raise InvalidParameter(
                    f"complex epsilon must be finite and imaginary, got {eps}")
        elif not 0.0 <= eps <= 1.0:
            raise InvalidParameter(f"epsilon must be in [0, 1], got {eps}")
        if not z >= 0.0:
            raise InvalidParameter(f"contamination point must be >= 0, got {z}")

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
        # uncached: complex on the complex-step path, and one multiply-add
        return (1.0 - self.epsilon) * self.base.mean() + self.epsilon * self.z

    def _expect_impl(self, g):
        return (1.0 - self.epsilon) * self.base.expect(g) \
            + self.epsilon * _real(g(self.z))

    def expect(self, g, key=None):
        # Delegate caching of the base integral to the base distribution so
        # every eps-view of the same base reuses one quadrature result.
        return (1.0 - self.epsilon) * self.base.expect(g, key=key) \
            + self.epsilon * _real(g(self.z))

    def mass(self, x):
        m = (1.0 - self.epsilon) * self.base.mass(x)
        if _is_array(self.z):
            return m + self.epsilon * (self.z == x)
        if x == self.z:
            m += self.epsilon
        return m

    def partial_mean(self, t):
        pm = (1.0 - self.epsilon) * self.base.partial_mean(t)
        if _is_array(self.z) or _is_array(t):
            return pm + self.epsilon * self.z * (self.z <= t)
        if self.z <= t:
            pm += self.epsilon * self.z
        return pm

    def descriptor(self):
        eps, z = self.epsilon, self.z
        if _is_array(z):
            return (f"contaminated({self.base.descriptor()},"
                    f"eps=<{z.size} imaginary steps>,z=<{z.size} points>)")
        eps = str(eps) if isinstance(eps, complex) else _fmt(eps)
        return f"contaminated({self.base.descriptor()},eps={eps},z={_fmt(z)})"


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
    """Return the mixture (1-eps)*base + eps*Dirac(z); eps may be purely
    imaginary (see `Contaminated`)."""
    return Contaminated(base, _scalar(epsilon), float(z))


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
