"""Probability models for non-negative income variables.

Parametric laws (Pareto, exponential, lognormal, Singh-Maddala, uniform),
empirical step distributions, and exact Dirac-contaminated mixtures; a
point mass `Dirac(x)` is the one-point empirical law. Each kind states its
cdf, quantile, mean and partial mean E[X 1{X <= t}] once, and the base
class derives the rest from them: the support ends lep = Q(0) and
uep = Q(1), the Lorenz curve from the partial mean at Q(p) (exact through
atoms, no quadrature), and the cumulative functional C(F, p).

A parametric model computes its expectations in probability space, in the
quantile form E g(X) = integral over p in [0, 1] of g(Q(p)), on finite
intervals only. The upper half reads the inverse survival function
Q(1-s) (`isf_array`), so 1-s never rounds to 1 in the tail, and both ends
are graded as p = u**8, which makes power-law ends regular integrands.
The quantile carries the scale, so the quadrature nodes do not depend on
it. Each kind keeps its density `pdf` as an independent x-space route for
the tests.

Mixtures keep their atom explicit: expectations over a contaminated
distribution decompose exactly as (1-eps)*E[g] + eps*g(z), never through
quadrature across the atom. The numerical Gateaux oracle depends on that
exact linearity in eps.
"""
from __future__ import annotations

import functools
import math
from dataclasses import dataclass, field
from statistics import NormalDist
from typing import Callable

import numpy as np

from .errors import DomainError, InvalidParameter
# bisect_nondecreasing is unused here; the benchmark tracer patches this name.
from .numeric import (  # noqa: F401
    DEFAULT_TOL,
    Tolerance,
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
    arrays) and Singh-Maddala partial means (`betainc`) need it."""
    from scipy import special
    return special


_SQRT_HALF = math.sqrt(0.5)
_inv_ncdf = NormalDist().inv_cdf

# Both ends of the quantile form are graded as p = u**_GRADE: a power-law
# end p**-b becomes u**(7 - 8b), regular for the moments that exist.
_GRADE = 8


def _ncdf(u: float) -> float:
    """Standard normal cdf, accurate in the lower tail."""
    return 0.5 * math.erfc(-u * _SQRT_HALF)


def _probit(ps: np.ndarray) -> np.ndarray:
    """Standard normal quantile per element, through the stdlib: quadrature
    over a lognormal then loads no scipy."""
    return np.fromiter(map(_inv_ncdf, ps.ravel().tolist()), float,
                       count=ps.size).reshape(ps.shape)


def _fmt(v: float) -> str:
    """A parameter as text: `:g` when that reads back as the same float,
    else the shortest round-trip text."""
    v = float(v)
    text = f"{v:g}"
    return text if float(text) == v else repr(v).removesuffix(".0")


@dataclass(frozen=True)
class Distribution:
    """Base class: what follows from a kind's cdf, quantile, mean and
    partial mean (support ends, expectations, Lorenz curve, C(F, p))."""

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

    def partial_mean(self, t: float) -> float:
        """E[X 1{X <= t}], with atoms at t counted in full."""
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

    def expect(self, g: Callable, tol: Tolerance = DEFAULT_TOL, key=None) -> float:
        """E[g(X)]; results are cached per (key, tol) when a key is given.

        On a parametric model this is the quantile form, the integral of
        g(Q(p)) + g(Q(1-p)) over p in [0, 1/2] (see `_tails_integral`);
        atomic models sum over their atoms exactly."""
        if key is not None:
            ck = ("expect", key, tol)
            hit = self._cache.get(ck)
            if hit is not None:
                return hit
        value = self._expect_impl(g, tol)
        if key is not None:
            self._cache[ck] = value
        return value

    def _expect_impl(self, g, tol: Tolerance) -> float:
        return self._tails_integral(g, 0.0, 0.5, tol)

    def _tails_integral(self, g, lo: float, hi: float, tol: Tolerance) -> float:
        """integral over p in [lo, hi] of g(Q(p)) + g(Q(1-p)), for
        0 <= lo < hi <= 1/2: the part of E g(X) that the probability
        pieces [lo, hi] and [1-hi, 1-lo] carry. One adaptive integral in
        u = p**(1/_GRADE), on a finite interval whatever the support."""
        return integrate(_graded_tails(self, g), lo ** (1.0 / _GRADE),
                         hi ** (1.0 / _GRADE), tol)

    def _tail_quantiles(self, ps: np.ndarray):
        """(Q(p), Q(1-p)) on an array of p in (0, 1/2]."""
        return self.quantile_array(ps), self.isf_array(ps)

    def mass(self, x: float) -> float:
        """Probability mass of the atom at x (0 for continuous kinds)."""
        return 0.0

    def atoms(self) -> tuple:
        """Explicit (location, mass) atom list."""
        return ()

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

    def cumulative_functional(self, p: float) -> float:
        """C(F, p) = integral of x dF over [0, Q(p)], atoms included."""
        p = _check_prob(p)
        if p == 0.0:
            return 0.0
        return self.partial_mean(self.quantile(p))


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
        if t <= 0:
            return 0.0
        if math.isinf(t):
            return self.mean()
        lt = self.rate * t
        return (1.0 - math.exp(-lt) * (1.0 + lt)) / self.rate

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
        if t <= self.scale:
            return 0.0
        if math.isinf(t):
            return self.mean()
        return self.mean() * (1.0 - (t / self.scale) ** (1.0 - self.shape))

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
        w = -u * _SQRT_HALF
        val = 0.5 * np.fromiter(map(math.erfc, w.ravel().tolist()), float,
                                count=w.size).reshape(w.shape)
        return np.where(x > 0, val, 0.0)

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
        if t <= 0:
            return 0.0
        if math.isinf(t):
            return self.mean()
        u = (math.log(t) - self.log_mean - self.sigma ** 2) / self.sigma
        return self.mean() * _ncdf(u)

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
        if t <= 0:
            return 0.0
        if math.isinf(t):
            return self.mean()
        w = (t / self.b) ** self.a
        u = w / (1.0 + w)
        frac = float(_special().betainc(1.0 + 1.0 / self.a, self.q - 1.0 / self.a, u))
        return self.mean() * frac

    def descriptor(self):
        return f"sm:{_fmt(self.a)},{_fmt(self.b)},{_fmt(self.q)}"


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
        if t <= self.lo:
            return 0.0
        t = min(t, self.hi)
        return (t * t - self.lo * self.lo) / (2.0 * (self.hi - self.lo))

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

    def _expect_impl(self, g, tol):
        return float(_make_evaluator(g)(self.values).mean())

    def mass(self, x):
        lo = np.searchsorted(self.values, x, side="left")
        hi = np.searchsorted(self.values, x, side="right")
        return (hi - lo) / self.n

    def atoms(self):
        locs, counts = np.unique(self.values, return_counts=True)
        return tuple((float(v), c / self.n) for v, c in zip(locs, counts))

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
        idx = int(np.searchsorted(self.values, t, side="right"))
        return float(prefix[idx])

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
    """Mixture (1-eps)*F + eps*Dirac(z), exact in the atom weight."""

    base: Distribution
    epsilon: float
    z: float

    kind = "contaminated"

    def __post_init__(self):
        if not 0.0 <= self.epsilon <= 1.0:
            raise InvalidParameter(f"epsilon must be in [0, 1], got {self.epsilon}")
        if not self.z >= 0.0:
            raise InvalidParameter(f"contamination point must be >= 0, got {self.z}")

    # the support ends come from the parts: the quantile reads them at 0 and 1
    @property
    def lep(self):
        if self.epsilon == 0.0:
            return self.base.lep
        if self.epsilon == 1.0:
            return self.z
        return min(self.base.lep, self.z)

    @property
    def uep(self):
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

    def _mean(self):
        return (1.0 - self.epsilon) * self.base.mean() + self.epsilon * self.z

    def _expect_impl(self, g, tol):
        return (1.0 - self.epsilon) * self.base.expect(g, tol) \
            + self.epsilon * float(g(self.z))

    def expect(self, g, tol=DEFAULT_TOL, key=None):
        # Delegate caching of the base integral to the base distribution so
        # every eps-view of the same base reuses one quadrature result.
        return (1.0 - self.epsilon) * self.base.expect(g, tol, key=key) \
            + self.epsilon * float(g(self.z))

    def mass(self, x):
        m = (1.0 - self.epsilon) * self.base.mass(x)
        if x == self.z:
            m += self.epsilon
        return m

    def atoms(self):
        merged = {}
        for loc, m in self.base.atoms():
            merged[loc] = merged.get(loc, 0.0) + (1.0 - self.epsilon) * m
        merged[self.z] = merged.get(self.z, 0.0) + self.epsilon
        return tuple(sorted(merged.items()))

    def partial_mean(self, t):
        pm = (1.0 - self.epsilon) * self.base.partial_mean(t)
        if self.z <= t:
            pm += self.epsilon * self.z
        return pm

    def descriptor(self):
        return (f"contaminated({self.base.descriptor()},"
                f"eps={_fmt(self.epsilon)},z={_fmt(self.z)})")


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
    """Return the mixture (1-eps)*base + eps*Dirac(z)."""
    return Contaminated(base, float(epsilon), float(z))


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
