"""Inequality measures.

The core family is parameterized by a quadruple (tau, h, h1, h2) with the
analytic derivatives Theorem 1 reads: the index value is
tau(E h(X)/h1(mu) - h2(mu)).
Generalized entropy, Theil, mean logarithmic deviation, Atkinson,
Champernowne and Kolm are all instances. Gini and the quintile share ratio
live alongside under a common functional interface so the same numerical
derivative machinery applies to every measure.
"""
from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable, Optional

import numpy as np

from .distributions import (
    Contaminated,
    Distribution,
    Empirical,
    _fmt,
    _is_array,
    _scalar,
)
from .errors import (
    DegenerateDenominator,
    DomainError,
    InvalidParameter,
    KinkPoint,
    MomentDiverges,
    NonConvergence,
)

__all__ = [
    "TheilLikeSpec",
    "make_spec",
    "atkinson_from_appendix_parameter",
    "FunctionalValue",
    "functional_value",
    "gini",
    "lorenz_area",
    "qsr",
    "qsr_components",
    "MeasureFunctional",
    "mean_functional",
    "parse_measure_id",
    "DEFAULT_MEASURE_IDS",
    "REGISTRY_VERSION",
]

REGISTRY_VERSION = "1"

# Stable ids for the CLI and test parametrization; "all" expands to these.
DEFAULT_MEASURE_IDS = (
    "ge:2", "theil", "mld", "atkinson:0.5", "champernowne", "kolm:1",
    "gini", "qsr",
)


def _xlogx(s):
    # s log s where s > 0, else 0, in place: besides the result only a
    # boolean mask is allocated (a 1e6-row sample's Theil sets peak memory)
    s = np.asarray(s, dtype=float)
    pos = s > 0
    out = np.log(s, out=np.zeros_like(s), where=pos)
    np.multiply(out, s, out=out, where=pos)
    return out if out.ndim else float(out)


def _exp(s):
    return np.exp(s) if isinstance(s, np.ndarray) else math.exp(s)


def _log(s):
    return np.log(s) if isinstance(s, np.ndarray) else math.log(s)


# (function, derivative) pairs of tau and h2, which the quadruples are built
# from; each function keeps an array an array (a complex one on the
# complex-step oracle's grid). h and h1 need no derivative: Theorem 1 reads
# tau', h2' and, in place of h1', the ratio h1'/h1 (`h1_ratio`), finite
# where h1' or h1 alone leaves the float range.
_ZERO = (lambda s: 0.0, lambda s: 0.0)
_ONE = lambda s: 1.0
_ONE_RATIO = lambda s: 0.0
_IDENTITY = (lambda s: s, lambda s: 1.0)
_IDENTITY_RATIO = lambda s: 1.0 / s
_LOG = (np.log, lambda s: 1.0 / s)
_NEG_LOG = (lambda s: -np.log(s), lambda s: -1.0 / s)


def _power(a: float):
    return lambda s: np.asarray(s) ** a


def _power_ratio(a: float):
    return lambda s: a / s


def _exp_neg(a: float):
    return lambda s: np.exp(-a * np.asarray(s))


@dataclass(frozen=True)
class TheilLikeSpec:
    """One family member: the quadruple, the derivatives Theorem 1 reads,
    and metadata.

    The callables accept scalars or numpy arrays. `h1_ratio` is
    h1'(s)/h1(s), finite where h1' or h1 alone leaves the float range.
    `requires_positive` marks transforms (logs, negative powers) undefined
    at zero income.
    """

    family: str
    param: Optional[float]
    tau: Callable
    tau_prime: Callable
    h: Callable
    h1: Callable
    h1_ratio: Callable
    h2: Callable
    h2_prime: Callable
    requires_positive: bool
    h_key: str
    measure_id: str


_PARAM_FREE = {"theil", "mld", "champernowne"}


def _member(family: str, prefix: str, param: Optional[float], tau, h, h1,
            h1_ratio, h2, requires_positive: bool,
            h_key: str) -> TheilLikeSpec:
    """A spec from h, h1, the ratio h1'/h1 and the (function, derivative)
    pairs of tau and h2."""
    return TheilLikeSpec(
        family=family, param=param,
        tau=tau[0], tau_prime=tau[1], h=h,
        h1=h1, h1_ratio=h1_ratio,
        h2=h2[0], h2_prime=h2[1],
        requires_positive=requires_positive, h_key=h_key,
        measure_id=prefix if param is None else f"{prefix}:{_fmt(param)}",
    )


def make_spec(family: str, param: Optional[float] = None) -> TheilLikeSpec:
    """Build the (tau, h, h1, h2) quadruple for one family member."""
    family = str(family).lower()
    if family in _PARAM_FREE:
        if param is not None:
            raise InvalidParameter(f"{family} takes no parameter")
    elif param is None:
        raise InvalidParameter(f"{family} requires a parameter")
    else:
        param = float(param)
        if not math.isfinite(param):
            raise InvalidParameter(f"{family} requires a finite parameter, "
                                   f"got {param}")
    a = param

    if family in ("ge", "generalized_entropy"):
        if a == 0.0:
            raise InvalidParameter(
                "generalized entropy is undefined at alpha=0; use 'mld'"
            )
        if a == 1.0:
            raise InvalidParameter(
                "generalized entropy is undefined at alpha=1; use 'theil'"
            )
        c = a * (a - 1.0)
        return _member("generalized_entropy", "ge", a,
                       (lambda s: (s - 1.0) / c, lambda s: 1.0 / c),
                       _power(a), _power(a), _power_ratio(a), _ZERO,
                       a < 0, f"pow:{a!r}")

    if family == "theil":
        return _member("theil", "theil", None, _IDENTITY, _xlogx,
                       _IDENTITY[0], _IDENTITY_RATIO, _LOG, False, "xlogx")

    if family == "mld":
        return _member("mld", "mld", None, _IDENTITY, _NEG_LOG[0], _ONE,
                       _ONE_RATIO, _NEG_LOG, True, "neglog")

    if family == "atkinson":
        if not (a < 1.0 and a != 0.0):
            raise InvalidParameter(
                f"atkinson requires alpha < 1 and alpha != 0, got {a}"
            )
        return _member("atkinson", "atkinson", a,
                       (lambda s: 1.0 - s ** (1.0 / a),
                        lambda s: -(1.0 / a) * s ** (1.0 / a - 1.0)),
                       _power(a), _power(a), _power_ratio(a), _ZERO,
                       a < 0, f"pow:{a!r}")

    if family == "champernowne":
        return _member("champernowne", "champernowne", None,
                       (lambda s: 1.0 - _exp(s), lambda s: -_exp(s)),
                       _LOG[0], _ONE, _ONE_RATIO, _LOG, True, "log")

    if family == "kolm":
        if not a > 0:
            raise InvalidParameter(f"kolm requires alpha > 0, got {a}")
        return _member("kolm", "kolm", a,
                       (lambda s: _log(s) / a, lambda s: 1.0 / (a * s)),
                       _exp_neg(a), _exp_neg(a), lambda s: -a, _ZERO,
                       False, f"expneg:{a!r}")

    raise InvalidParameter(f"unknown family {family!r}")


def atkinson_from_appendix_parameter(alpha: float) -> TheilLikeSpec:
    """Atkinson spec from the exponent-(1-alpha) parameterization.

    The classical Atkinson(alpha) with alpha in (0, 1) uses the moment
    E X^(1-alpha); that corresponds to our quadruple at parameter 1-alpha.
    """
    return make_spec("atkinson", 1.0 - float(alpha))


# ---------------------------------------------------------------------------
# Population functional (the plug-in estimator on an Empirical)
# ---------------------------------------------------------------------------


def _degenerate(v) -> bool:
    """Whether v, or an element of an array v, is 0 or not finite."""
    if _is_array(v):
        return not (np.isfinite(v) & (v != 0.0)).all()
    return v == 0.0 or not math.isfinite(v)


@dataclass(frozen=True)
class FunctionalValue:
    """T(F) together with the intermediates the influence formulas reuse:
    Python floats, complex arrays over the points of a contaminated grid
    (the complex-step oracle's path), or arrays over the rows of a block of
    samples (the Monte Carlo study's path)."""

    value: float
    index_arg: float  # the inner argument I = E h(X)/h1(mu) - h2(mu)
    mu: float
    eh: float


def _checked_h1(spec: TheilLikeSpec, mu):
    """h1(mu), which every quadruple formula divides by; DegenerateDenominator
    where it is 0 or not finite."""
    h1_mu = _scalar(spec.h1(mu))
    if _degenerate(h1_mu):
        raise DegenerateDenominator(
            f"h1(mu)={h1_mu!r} for {spec.measure_id} at mu={mu!r}"
        )
    return h1_mu


def functional_value(spec: TheilLikeSpec, F: Distribution) -> FunctionalValue:
    """Evaluate T(F) = tau(E h(X)/h1(mu) - h2(mu)).

    On a contaminated grid the imaginary steps stay in every intermediate,
    so T is evaluated along the complex path as it is along the real one,
    at every point of the grid at once."""
    if spec.requires_positive and np.count_nonzero(F.mass(0.0)):
        raise DomainError(
            f"{spec.measure_id} is undefined at income 0 (h uses log or a "
            "negative power)"
        )
    mu = F.mean()
    try:
        eh = F.expect(spec.h, key=spec.h_key)
    except NonConvergence as exc:
        raise MomentDiverges(
            f"E h(X) fails to converge for {spec.measure_id} on "
            f"{F.descriptor()}: {exc}"
        ) from exc
    h1_mu = _checked_h1(spec, mu)
    index_arg = eh / h1_mu - _scalar(spec.h2(mu))
    return FunctionalValue(value=_scalar(spec.tau(index_arg)),
                           index_arg=index_arg, mu=mu, eh=eh)


# ---------------------------------------------------------------------------
# Gini
# ---------------------------------------------------------------------------


def _gini_first_moment(F: Distribution) -> float:
    """S(F) = E[X * Fmid(X)], with Fmid the mid-distribution function.

    The Lorenz-curve area satisfies R(F) = 1 - S(F)/mu, so the Gini
    coefficient is 2*S/mu - 1. For contaminated mixtures S decomposes into
    eps-free base quantities, which keeps the Gateaux limit exact in eps:
    the cross term E_F[max(X, z)] = mu - E[X 1{X <= z}] + z F(z) holds
    with or without an atom of F at z, and per point on a contaminated grid.
    """
    if isinstance(F, Contaminated):
        eps, z, base = F.epsilon, F.z, F.base
        s_base = _gini_first_moment(base)
        cross = base.mean() - base.partial_mean(z) + z * _scalar(base.cdf(z))
        return ((1.0 - eps) ** 2 * s_base + eps * (1.0 - eps) * cross
                + 0.5 * eps * eps * z)
    if isinstance(F, Empirical):
        # on sorted data sum_i x_(i) Fmid(x_(i)) = sum_i x_(i) (i - 1/2)/n,
        # ties included: a tie block shares the mean of its ranks
        return _scalar(F.values @ np.arange(0.5, F.n)) / F.n ** 2
    return F.expect(lambda x: np.asarray(x, dtype=float) * F.cdf(x),
                    key="gini_first_moment")


def lorenz_area(F: Distribution) -> float:
    """R(F) = integral of the Lorenz curve over [0, 1]."""
    return 1.0 - _gini_first_moment(F) / F.mean()


def gini(F: Distribution) -> float:
    """Gini coefficient 1 - 2 * R(F)."""
    return 2.0 * _gini_first_moment(F) / F.mean() - 1.0


# ---------------------------------------------------------------------------
# Quintile share ratio
# ---------------------------------------------------------------------------


def qsr_components(F: Distribution):
    """(N, D, Q(0.2), Q(0.8)): top-quintile mass E[X 1{X > Q(0.8)}] and
    bottom-quintile mass E[X 1{X <= Q(0.2)}], arrays over the rows of a
    block of samples; D <= 0 raises, as both the ratio and its IF divide
    by it."""
    q1 = F.quantile(0.2)
    q4 = F.quantile(0.8)
    # floats on one sample (numpy scalars would cost the plain path time)
    parts = F.partial_mean(np.array([q1, q4]))
    d, below_q4 = parts if _is_array(q1) else parts.tolist()
    if (d <= 0.0).any() if _is_array(d) else d <= 0.0:
        raise DegenerateDenominator(
            f"bottom-quintile income mass is {d!r} on {F.descriptor()}"
        )
    return F.mean() - below_q4, d, q1, q4


def qsr(F: Distribution) -> float:
    """Quintile share ratio N(F)/D(F).

    On a contaminated grid (the complex-step oracle's path, where eps is
    imaginary) the shares are the Lorenz shares with the quintiles
    frozen at the base's q1 = Q(0.2) and q4 = Q(0.8):
      D = E[X 1{X <= q1}] + q1 (0.2 - G(q1))
      N = mu - E[X 1{X <= q4}] - q4 (0.8 - G(q4))
    The share below level p is the maximum over q of
    E[X 1{X <= q}] + q (p - G(q)), attained at q = Q(p), and the bracket
    is linear in eps; so by the envelope theorem this path has the
    derivative of the Lorenz-share QSR in eps at 0. Where the base has no
    atom at q1 or q4, that is the derivative of the ratio below, which
    counts an atom at a quintile in full. Where it has one, the quintile
    stays put under a small contamination and the share is the partial
    mean alone, linear in eps again; but where the level tops that atom
    (F(q) = p on the base F), a contamination above q moves the quintile
    and the share jumps: KinkPoint.
    """
    if isinstance(F, Contaminated) and isinstance(F.epsilon, np.ndarray):
        base = F.base
        _, _, q1, q4 = qsr_components(base)
        atom1, atom4 = base.mass(q1), base.mass(q4)
        for p, q, atom in ((0.2, q1, atom1), (0.8, q4, atom4)):
            if atom and base.cdf(q) == p and (F.z > q).any():
                raise KinkPoint(f"the QSR jumps at z={float(F.z[F.z > q][0])}"
                                f" above Q({p})={q}, the top of an atom")
        d = F.partial_mean(q1)
        if not atom1:
            d = d + q1 * (0.2 - F.cdf(q1))
        n = F.mean() - F.partial_mean(q4)
        if not atom4:
            n = n - q4 * (0.8 - F.cdf(q4))
        return n / d
    n, d, _, _ = qsr_components(F)
    return n / d


# ---------------------------------------------------------------------------
# Uniform functional wrapper
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class MeasureFunctional:
    """Uniform distribution -> real handle consumed by the Gateaux oracle."""

    id: str
    kind: str  # "theil_like" | "gini" | "qsr" | "custom"
    spec: Optional[TheilLikeSpec] = None
    fn: Optional[Callable] = None  # F -> T(F), for kind "custom"

    def evaluate(self, F: Distribution) -> float:
        if self.kind == "theil_like":
            return functional_value(self.spec, F).value
        if self.kind == "gini":
            return gini(F)
        if self.kind == "qsr":
            return qsr(F)
        return self.fn(F)


def _mean_of(F: Distribution):
    """The mean functional's map; the closed-form IF knows it by identity."""
    return F.mean()


def mean_functional() -> MeasureFunctional:
    """The mean as a functional; its influence function is z - mu."""
    return MeasureFunctional(id="mean", kind="custom", fn=_mean_of)


_FAMILY_TOKENS = {
    "ge": "ge",
    "generalized_entropy": "ge",
    "theil": "theil",
    "mld": "mld",
    "atkinson": "atkinson",
    "champernowne": "champernowne",
    "kolm": "kolm",
}


def parse_measure_id(measure_id) -> MeasureFunctional:
    """Resolve a stable measure id like 'ge:2', 'theil', 'gini'; a
    MeasureFunctional is returned as it is."""
    if isinstance(measure_id, MeasureFunctional):
        return measure_id
    mid = str(measure_id).strip().lower()
    if mid == "gini":
        return MeasureFunctional(id="gini", kind="gini")
    if mid == "qsr":
        return MeasureFunctional(id="qsr", kind="qsr")
    name, sep, raw = mid.partition(":")
    family = _FAMILY_TOKENS.get(name)
    if family is None:
        raise InvalidParameter(f"unknown measure id {measure_id!r}")
    param = None
    if sep:
        try:
            param = float(raw)
        except ValueError:
            raise InvalidParameter(
                f"bad parameter {raw!r} in measure id {measure_id!r}"
            ) from None
    spec = make_spec(family, param)
    return MeasureFunctional(id=spec.measure_id, kind="theil_like", spec=spec)
