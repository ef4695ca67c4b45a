"""Inequality measures.

The core family is parameterized by a quadruple (tau, h, h1, h2) with
analytic derivatives: the index value is tau(E h(X)/h1(mu) - h2(mu)).
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

from .distributions import Contaminated, Dirac, Distribution, Empirical
from .errors import (
    DegenerateDenominator,
    DomainError,
    InvalidParameter,
    MomentDiverges,
    NonConvergence,
)
from .numeric import DEFAULT_TOL, Tolerance

__all__ = [
    "TheilLikeSpec",
    "make_spec",
    "atkinson_from_appendix_parameter",
    "FunctionalValue",
    "functional_value",
    "plugin_estimate",
    "gini",
    "lorenz_area",
    "qsr",
    "qsr_components",
    "gini_plugin",
    "qsr_plugin",
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
    s = np.asarray(s, dtype=float)
    safe = np.where(s > 0, s, 1.0)
    out = np.where(s > 0, s * np.log(safe), 0.0)
    return out if out.ndim else float(out)


def _log(s):
    return np.log(np.asarray(s, dtype=float))


def _neg_log(s):
    return -np.log(np.asarray(s, dtype=float))


@dataclass(frozen=True)
class TheilLikeSpec:
    """One family member: the quadruple, its derivatives, and metadata.

    The callables accept scalars or numpy arrays. `requires_positive` marks
    transforms (logs, negative powers) undefined at zero income.
    """

    family: str
    param: Optional[float]
    tau: Callable
    tau_prime: Callable
    h: Callable
    h_prime: Callable
    h1: Callable
    h1_prime: Callable
    h2: Callable
    h2_prime: Callable
    requires_positive: bool
    h_key: str
    measure_id: str


_PARAM_FREE = {"theil", "mld", "champernowne"}


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

    if family in ("ge", "generalized_entropy"):
        a = param
        if a == 0.0:
            raise InvalidParameter(
                "generalized entropy is undefined at alpha=0; use 'mld'"
            )
        if a == 1.0:
            raise InvalidParameter(
                "generalized entropy is undefined at alpha=1; use 'theil'"
            )
        c = a * (a - 1.0)
        return TheilLikeSpec(
            family="generalized_entropy", param=a,
            tau=lambda s: (s - 1.0) / c,
            tau_prime=lambda s: 1.0 / c,
            h=lambda s: np.asarray(s, dtype=float) ** a,
            h_prime=lambda s: a * np.asarray(s, dtype=float) ** (a - 1.0),
            h1=lambda s: np.asarray(s, dtype=float) ** a,
            h1_prime=lambda s: a * np.asarray(s, dtype=float) ** (a - 1.0),
            h2=lambda s: 0.0,
            h2_prime=lambda s: 0.0,
            requires_positive=a < 0,
            h_key=f"pow:{a!r}",
            measure_id=f"ge:{param:g}",
        )

    if family == "theil":
        return TheilLikeSpec(
            family="theil", param=None,
            tau=lambda s: s,
            tau_prime=lambda s: 1.0,
            h=_xlogx,
            h_prime=lambda s: 1.0 + np.log(np.asarray(s, dtype=float)),
            h1=lambda s: s,
            h1_prime=lambda s: 1.0,
            h2=lambda s: math.log(s),
            h2_prime=lambda s: 1.0 / s,
            requires_positive=False,
            h_key="xlogx",
            measure_id="theil",
        )

    if family == "mld":
        return TheilLikeSpec(
            family="mld", param=None,
            tau=lambda s: s,
            tau_prime=lambda s: 1.0,
            h=_neg_log,
            h_prime=lambda s: -1.0 / np.asarray(s, dtype=float),
            h1=lambda s: 1.0,
            h1_prime=lambda s: 0.0,
            h2=lambda s: -math.log(s),
            h2_prime=lambda s: -1.0 / s,
            requires_positive=True,
            h_key="neglog",
            measure_id="mld",
        )

    if family == "atkinson":
        a = param
        if not (a < 1.0 and a != 0.0):
            raise InvalidParameter(
                f"atkinson requires alpha < 1 and alpha != 0, got {a}"
            )
        return TheilLikeSpec(
            family="atkinson", param=a,
            tau=lambda s: 1.0 - s ** (1.0 / a),
            tau_prime=lambda s: -(1.0 / a) * s ** (1.0 / a - 1.0),
            h=lambda s: np.asarray(s, dtype=float) ** a,
            h_prime=lambda s: a * np.asarray(s, dtype=float) ** (a - 1.0),
            h1=lambda s: np.asarray(s, dtype=float) ** a,
            h1_prime=lambda s: a * np.asarray(s, dtype=float) ** (a - 1.0),
            h2=lambda s: 0.0,
            h2_prime=lambda s: 0.0,
            requires_positive=a < 0,
            h_key=f"pow:{a!r}",
            measure_id=f"atkinson:{param:g}",
        )

    if family == "champernowne":
        return TheilLikeSpec(
            family="champernowne", param=None,
            tau=lambda s: 1.0 - math.exp(s),
            tau_prime=lambda s: -math.exp(s),
            h=_log,
            h_prime=lambda s: 1.0 / np.asarray(s, dtype=float),
            h1=lambda s: 1.0,
            h1_prime=lambda s: 0.0,
            h2=lambda s: math.log(s),
            h2_prime=lambda s: 1.0 / s,
            requires_positive=True,
            h_key="log",
            measure_id="champernowne",
        )

    if family == "kolm":
        a = param
        if not a > 0:
            raise InvalidParameter(f"kolm requires alpha > 0, got {a}")
        return TheilLikeSpec(
            family="kolm", param=a,
            tau=lambda s: math.log(s) / a,
            tau_prime=lambda s: 1.0 / (a * s),
            h=lambda s: np.exp(-a * np.asarray(s, dtype=float)),
            h_prime=lambda s: -a * np.exp(-a * np.asarray(s, dtype=float)),
            h1=lambda s: np.exp(-a * np.asarray(s, dtype=float)),
            h1_prime=lambda s: -a * np.exp(-a * np.asarray(s, dtype=float)),
            h2=lambda s: 0.0,
            h2_prime=lambda s: 0.0,
            requires_positive=False,
            h_key=f"expneg:{a!r}",
            measure_id=f"kolm:{param:g}",
        )

    raise InvalidParameter(f"unknown family {family!r}")


def atkinson_from_appendix_parameter(alpha: float) -> TheilLikeSpec:
    """Atkinson spec from the exponent-(1-alpha) parameterization.

    The classical Atkinson(alpha) with alpha in (0, 1) uses the moment
    E X^(1-alpha); that corresponds to our quadruple at parameter 1-alpha.
    """
    return make_spec("atkinson", 1.0 - float(alpha))


# ---------------------------------------------------------------------------
# Population functional and plug-in estimator
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class FunctionalValue:
    """T(F) together with the intermediates the influence formulas reuse."""

    value: float
    index_arg: float  # the inner argument I = E h(X)/h1(mu) - h2(mu)
    mu: float
    eh: float


def functional_value(spec: TheilLikeSpec, F: Distribution,
                     tol: Tolerance = DEFAULT_TOL) -> FunctionalValue:
    """Evaluate T(F) = tau(E h(X)/h1(mu) - h2(mu))."""
    if spec.requires_positive and F.mass(0.0) > 0:
        raise DomainError(
            f"{spec.measure_id} is undefined at income 0 (h uses log or a "
            "negative power)"
        )
    mu = F.mean()
    try:
        eh = F.expect(spec.h, tol, key=spec.h_key)
    except NonConvergence as exc:
        raise MomentDiverges(
            f"E h(X) fails to converge for {spec.measure_id} on "
            f"{F.descriptor()}: {exc}"
        ) from exc
    h1_mu = float(spec.h1(mu))
    if h1_mu == 0.0 or not math.isfinite(h1_mu):
        raise DegenerateDenominator(
            f"h1(mu)={h1_mu!r} for {spec.measure_id} at mu={mu!r}"
        )
    index_arg = eh / h1_mu - float(spec.h2(mu))
    return FunctionalValue(value=float(spec.tau(index_arg)),
                           index_arg=index_arg, mu=mu, eh=eh)


def plugin_estimate(spec: TheilLikeSpec, s: Empirical) -> float:
    """tau((1/h1(mu_n)) * (1/n) sum h(X_j) - h2(mu_n)).

    Identical code path to functional_value at the empirical distribution.
    """
    return functional_value(spec, s).value


# ---------------------------------------------------------------------------
# Gini
# ---------------------------------------------------------------------------


def _gini_first_moment(F: Distribution, tol: Tolerance) -> float:
    """S(F) = E[X * Fmid(X)], with Fmid the mid-distribution function.

    The Lorenz-curve area satisfies R(F) = 1 - S(F)/mu, so the Gini
    coefficient is 2*S/mu - 1. For contaminated mixtures S decomposes into
    eps-free base quantities, which keeps the Gateaux limit exact in eps.
    """
    if isinstance(F, Contaminated):
        eps, z, base = F.epsilon, F.z, F.base
        s_base = _gini_first_moment(base, tol)
        upper = base.mean() - base.partial_mean(z, tol) + 0.5 * z * base.mass(z)
        return ((1.0 - eps) ** 2 * s_base
                + eps * (1.0 - eps) * (upper + z * base.mid_cdf(z))
                + 0.5 * eps * eps * z)
    if isinstance(F, Empirical):
        # on sorted data sum_i x_(i) Fmid(x_(i)) = sum_i x_(i) (i - 1/2)/n,
        # ties included: a tie block shares the mean of its ranks
        return float(np.dot(F.values, np.arange(0.5, F.n))) / F.n ** 2
    if isinstance(F, Dirac):
        return 0.5 * F.location
    return F.expect(lambda x: np.asarray(x, dtype=float) * F.cdf(x), tol,
                    key="gini_first_moment")


def lorenz_area(F: Distribution, tol: Tolerance = DEFAULT_TOL) -> float:
    """R(F) = integral of the Lorenz curve over [0, 1]."""
    return 1.0 - _gini_first_moment(F, tol) / F.mean()


def gini(F: Distribution, tol: Tolerance = DEFAULT_TOL) -> float:
    """Gini coefficient 1 - 2 * R(F)."""
    return 2.0 * _gini_first_moment(F, tol) / F.mean() - 1.0


def gini_plugin(s: Empirical, tol: Tolerance = DEFAULT_TOL) -> float:
    return gini(s, tol)


# ---------------------------------------------------------------------------
# Quintile share ratio
# ---------------------------------------------------------------------------


def qsr_components(F: Distribution, tol: Tolerance = DEFAULT_TOL):
    """(N, D, Q(0.2), Q(0.8)): top-quintile mass E[X 1{X > Q(0.8)}] and
    bottom-quintile mass E[X 1{X <= Q(0.2)}]."""
    q1 = F.quantile(0.2)
    q4 = F.quantile(0.8)
    d = F.partial_mean(q1, tol)
    n = F.mean() - F.partial_mean(q4, tol)
    return n, d, q1, q4


def qsr(F: Distribution, tol: Tolerance = DEFAULT_TOL) -> float:
    """Quintile share ratio N(F)/D(F)."""
    n, d, _, _ = qsr_components(F, tol)
    if d <= 0.0:
        raise DegenerateDenominator(
            f"bottom-quintile income mass is {d!r} on {F.descriptor()}"
        )
    return n / d


def qsr_plugin(s: Empirical, tol: Tolerance = DEFAULT_TOL) -> float:
    return qsr(s, tol)


# ---------------------------------------------------------------------------
# Uniform functional wrapper
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class MeasureFunctional:
    """Uniform distribution -> real handle consumed by the Gateaux oracle."""

    id: str
    kind: str  # "theil_like" | "gini" | "qsr" | "custom"
    spec: Optional[TheilLikeSpec] = None
    fn: Optional[Callable] = None

    def evaluate(self, F: Distribution, tol: Tolerance = DEFAULT_TOL) -> float:
        if self.kind == "theil_like":
            return functional_value(self.spec, F, tol).value
        if self.kind == "gini":
            return gini(F, tol)
        if self.kind == "qsr":
            return qsr(F, tol)
        return self.fn(F, tol)


def mean_functional() -> MeasureFunctional:
    """The mean as a functional; its influence function is z - mu."""
    return MeasureFunctional(id="mean", kind="custom",
                             fn=lambda F, tol: F.mean())


_FAMILY_TOKENS = {
    "ge": "ge",
    "generalized_entropy": "ge",
    "theil": "theil",
    "mld": "mld",
    "atkinson": "atkinson",
    "champernowne": "champernowne",
    "kolm": "kolm",
}


def parse_measure_id(measure_id: str) -> MeasureFunctional:
    """Resolve a stable measure id like 'ge:2', 'theil', 'gini'."""
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
