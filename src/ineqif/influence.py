"""Influence functions, closed forms and the numerical Gateaux oracle.

Two independent routes exist for every measure: one closed-form influence
function per measure kind (the unified quadruple formula of Theorem 1, the
Gini and QSR forms, and the mean), and a numerical Gateaux derivative of
T along the contamination (1-eps)F + eps Dirac(z): a complex step in eps,
taken at every point of a grid from one evaluation of T, for the quadruple
family, the Gini and the QSR on a model with no atom at its quintiles, and
a difference quotient extrapolated to eps -> 0 for the QSR at such an atom
and for custom functionals. The closed forms are adjudicated against the
oracle; published displays are archived in a variant table, each as the
Python expression it is read as, so the ones that disagree are kept on
record rather than silently dropped.
"""
from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable, Optional, Sequence

import numpy as np

from .distributions import (
    Contaminated,
    Distribution,
    Empirical,
    contaminate,
    scaled,
)
from .errors import (
    DegenerateDenominator,
    DomainError,
    InvalidParameter,
    KinkPoint,
    MomentDiverges,
    NoisyLimit,
)
from .measures import (
    MeasureFunctional,
    _checked_h1,
    functional_value,
    lorenz_area,
    parse_measure_id,
    qsr_components,
)
# integrate is unused here; the benchmark tracer patches this name.
from .numeric import (  # noqa: F401
    DerivativeEstimate,
    derivative_at_zero_plus,
    integrate,
)

__all__ = [
    "if_special",
    "gateaux_if",
    "asymptotic_variance",
    "IFCurve",
    "if_curve",
    "default_grid",
    "PrintedVariant",
    "printed_variants",
]


def _check_point(z: float) -> float:
    z = float(z)
    if z < 0:
        raise InvalidParameter(f"evaluation point must be >= 0, got {z}")
    return z


# ---------------------------------------------------------------------------
# Closed forms: one kernel per measure kind
# ---------------------------------------------------------------------------


def _closed_if_vectorized(T: MeasureFunctional,
                          F: Distribution) -> Callable[[np.ndarray], np.ndarray]:
    """The closed-form IF of T at F as a vectorized function of z.

    Every moment is computed once, here; the checks on z itself (the
    domain of h, quintile boundaries) are the callers'.

    Quadruple family (Theorem 1), with I = E h(X)/h1(mu) - h2(mu):
      tau'(I) * [ -(h1'(mu) E h(X)/h1(mu)^2 + h2'(mu)) (z - mu)
                  + (h(z) - E h(X))/h1(mu) ]
    evaluated as A (z - mu) + B (h(z) - E h(X)), see `_theorem1`.
    The last numerator is evaluated at the contamination point z (the
    centering step of the derivation fixes this; the oracle confirms).

    Gini:
      2 * [ R(F) - C(F, F(z))/mu + (z/mu) (R(F) - (1 - F(z))) ]
    The published variant omits the 1/mu normalizer on the cumulative
    functional; the normalized form is the one the Gateaux oracle (and
    scale invariance of the Gini) confirms.

    Quintile share ratio, piecewise over A1=[0, Q(0.2)],
    A2=(Q(0.2), Q(0.8)), A3=[Q(0.8), uep]:
      I1 = [-z N + 0.2 Q(0.8) D + 0.8 Q(0.2) N] / D^2
      I2 = [0.2 Q(0.8) D - 0.2 Q(0.2) N] / D^2
      I3 = [z D - 0.8 Q(0.8) D - 0.2 Q(0.2) N] / D^2
    The returned function carries (Q(0.2), Q(0.8)) as `kinks`.

    Mean: z - mu.
    """
    if T.id == "mean":
        mu = F.mean()
        return lambda xs: np.asarray(xs, dtype=float) - mu
    if T.kind == "gini":
        mu = F.mean()
        r = lorenz_area(F)

        def gini_if(xs):
            xs = np.asarray(xs, dtype=float)
            partial = F.partial_mean(xs)
            fz = np.asarray(F.cdf(xs), dtype=float)
            return 2.0 * (r - partial / mu + (xs / mu) * (r - (1.0 - fz)))

        return gini_if
    if T.kind == "qsr":
        n, d, q1, q4 = qsr_components(F)
        r = n / d  # not d*d, q4*d: they leave the float range at 1e-300, 1e300

        def qsr_if(xs):
            xs = np.asarray(xs, dtype=float)
            low = (-xs * r + 0.2 * q4 + 0.8 * q1 * r) / d
            mid = (0.2 * q4 - 0.2 * q1 * r) / d
            high = (xs - 0.8 * q4 - 0.2 * q1 * r) / d
            return np.where(xs <= q1, low, np.where(xs < q4, mid, high))

        qsr_if.kinks = (q1, q4)
        return qsr_if

    spec = T.spec
    fv = functional_value(spec, F)
    mu, eh = fv.mu, fv.eh
    slope, level = _theorem1(spec, mu, eh)

    def theil_like_if(xs):
        xs = np.asarray(xs, dtype=float)
        return slope * (xs - mu) + level * (spec.h(xs) - eh)

    return theil_like_if


def _theorem1(spec, mu: float, eh: float):
    """(A, B) of the Theorem-1 IF A (z - mu) + B (h(z) - E h), at the mean
    mu and eh = E h(X):

      B = tau'(I)/h1(mu)
      A = -tau'(I) (h1'(mu)/h1(mu) * E h/h1(mu) + h2'(mu))

    Each is formed from ratios that stay in the float range where their
    parts do not: the member's declared h1'(mu)/h1(mu) (a/mu for a power),
    never h1'(mu) itself, which overflows for ge:-2 at mu = 1.5e-150;
    never h1(mu)^2, which underflows where h1(mu) is tiny (kolm:1 on
    sm:2,1000,3: mu = 589, h1(mu) ~ 1.5e-256); and tau'(I)/h1(mu) as one
    factor before it multiplies h(z) - E h, which overflows alone where
    h(z) is near the float limit (ge:-2 at z = 1e-154)."""
    h1_mu = _checked_h1(spec, mu)
    tau_p = float(spec.tau_prime(eh / h1_mu - float(spec.h2(mu))))
    level = tau_p / h1_mu
    slope = -tau_p * (float(spec.h1_ratio(mu)) * (eh / h1_mu)
                      + float(spec.h2_prime(mu)))
    if not (math.isfinite(slope) and math.isfinite(level)):
        raise DegenerateDenominator(
            f"IF coefficients are A={slope!r}, B={level!r} for "
            f"{spec.measure_id} at mu={mu!r}"
        )
    return slope, level


def _kernel_or_error(T: MeasureFunctional, F: Distribution):
    """The kernel, or the exception that building it raised: a moment
    failure is reported at a point only after that point's own checks."""
    try:
        return _closed_if_vectorized(T, F)
    except Exception as exc:
        return exc


def _check_closed_point(T: MeasureFunctional, z: float, kernel) -> float:
    """The checks on z, in a fixed order: z >= 0 and the domain of h come
    before any moment failure (a kernel that could not be built); the QSR's
    quintile boundaries, where its IF jumps, come after its quintile
    moments. A point within 1e-9 (relative) of a boundary counts as on it."""
    z = _check_point(z)
    if T.spec is not None and T.spec.requires_positive and z <= 0.0:
        raise DomainError(
            f"h(z) undefined at z={z} for {T.spec.measure_id} "
            "(log or negative power)"
        )
    if isinstance(kernel, Exception):
        raise kernel
    if T.kind == "qsr":
        q1, q4 = kernel.kinks
        for q in (q1, q4):
            if abs(z - q) <= 1e-9 * abs(q):
                raise KinkPoint(
                    f"z={z} sits on a quintile boundary (Q in {{{q1}, {q4}}})"
                )
    return z


def if_special(measure_id, F: Distribution, z: float) -> float:
    """Normative closed-form influence function of a measure id (or a
    MeasureFunctional) at one point z; see `_closed_if_vectorized`."""
    T = parse_measure_id(measure_id)
    kernel = _kernel_or_error(T, F)
    z = _check_closed_point(T, z, kernel)
    with np.errstate(all="ignore"):  # a non-finite IF is the caller's to see
        return float(kernel(z))


# ---------------------------------------------------------------------------
# Numerical Gateaux oracle
# ---------------------------------------------------------------------------


def gateaux_if(T: MeasureFunctional, F: Distribution,
               z: float) -> DerivativeEstimate:
    """lim_{eps->0+} [T((1-eps)F + eps Dirac(z)) - T(F)] / eps.

    This is the independent oracle for every closed form in this module,
    at one point: the one-point case of the grid oracle that `if_curve`
    runs. Expectations over the contaminated mixture are exact in eps. For
    the quadruple family and the Gini, T along the path is analytic in eps
    (mixture moments are linear in it, the Gini's first moment quadratic),
    so the derivative is the complex step Im T(F_{ih})/h: one evaluation,
    no subtraction, exact to rounding (Squire & Trapp 1998). The QSR's
    mixture quantile is not analytic in a complex eps, but where F has no
    atom at Q(0.2) or Q(0.8) the envelope theorem gives its derivative with
    the quintiles frozen at F's (see `qsr`), and that path is linear in eps
    and takes the complex step too. The QSR at such an atom and custom
    functionals take Richardson extrapolation of the difference quotients
    instead, retried once one decade down when the extrapolants diverge.

    The complex step's `error` is its truncation term h^2 |phi'''(0)|/6,
    taken as 1e-20 |IF|: the step rule of `_complex_step` keeps h times
    each relative rate of change along the path at 1e-10 or below. It does
    not cover the error of the moments T reads, which the oracle shares
    with the closed form.
    """
    z = _check_point(z)
    values, errors, failures = _gateaux_grid(T, F, np.array([z]))
    if failures:
        raise failures[0]
    return DerivativeEstimate(value=float(values[0]), error=float(errors[0]))


def _gateaux_grid(T: MeasureFunctional, F: Distribution, zs: np.ndarray):
    """The oracle at every point of zs (checked points): its values and
    error estimates, NaN where a point fails, and {index: exception} for
    the points that fail. A failure of T(F) itself fails every point."""
    if T.kind in ("theil_like", "gini") or (
            T.kind == "qsr" and F.mass(F.quantile(0.2)) == 0.0
            and F.mass(F.quantile(0.8)) == 0.0):
        return _complex_step(T, F, zs)
    return _richardson(T, F, zs)


def _richardson(T: MeasureFunctional, F: Distribution, zs: np.ndarray):
    """Richardson extrapolation of [T(F_eps) - T(F)]/eps, point by point."""
    values, errors = np.full(zs.shape, np.nan), np.full(zs.shape, np.nan)
    try:
        base_value = T.evaluate(F)
    except Exception as exc:  # recorded at every point
        return values, errors, dict.fromkeys(range(zs.size), exc)
    failures = {}
    for i, z in enumerate(zs.tolist()):
        def phi(eps: float) -> float:
            return T.evaluate(contaminate(F, eps, z)) - base_value

        try:
            try:
                est = derivative_at_zero_plus(phi)
            except NoisyLimit:
                est = derivative_at_zero_plus(phi, _RETRY_STEPS)
            values[i], errors[i] = est.value, est.error
        except Exception as exc:  # recorded, not fatal
            failures[i] = exc
    return values, errors, failures


# DEFAULT_DERIVATIVE_STEPS one decade down: a first step of 1e-2 can lie
# outside the asymptotic regime at a smooth point.
_RETRY_STEPS = (1e-3, 1e-4, 1e-5, 1e-6)

# The complex step where no term of the step rule exceeds 1.
_COMPLEX_STEP = 1e-10


def _step_terms(T: MeasureFunctional, F: Distribution, zs: np.ndarray):
    """mu and the step rule's last term at each point. T(F) is evaluated
    first for the quadruple family, which reads mu and E h from it, and
    for the QSR, whose base shares fail before any step."""
    if T.kind != "theil_like":
        if T.kind == "qsr":
            T.evaluate(F)
        return F.mean(), 0.0
    spec = T.spec
    fv = functional_value(spec, F)
    spread = np.abs(spec.h(zs) - fv.eh) / max(
        abs(fv.eh), abs(float(spec.h1(fv.mu))))
    return fv.mu, np.where(np.isfinite(spread), spread, 0.0)


def _complex_step(T: MeasureFunctional, F: Distribution, zs: np.ndarray):
    """Im T((1-ih)F + ih Dirac(z))/h at every point z of zs, from one
    evaluation of T on the grid of mixtures, with the step scaled to the
    point:

      h = 1e-10 / max(1, |z - mu|/mu, |h(z) - E h|/max(|E h|, |h1(mu)|))

    The last term, for the quadruple family only, is left out where h(z)
    is not finite; the evaluation then reports that point. A fixed step
    fails both ways: its imaginary parts underflow at mu ~ 1e-150, and it
    leaves the linear regime where h(z) is huge. mu and E h come from T(F)
    itself, so a divergent moment fails every point. A step of 0 or a
    non-finite value is a DomainError at its point. Where the grid's
    evaluation raises, each point is evaluated alone, as one mixture with
    a scalar eps, and records its own error.
    """
    values = np.full(zs.shape, np.nan)
    failures = {}
    with np.errstate(all="ignore"):  # a non-finite value is recorded below
        try:
            mu, spread = _step_terms(T, F, zs)
        except Exception as exc:  # recorded at every point
            return values, values.copy(), dict.fromkeys(range(zs.size), exc)
        steps = _COMPLEX_STEP / np.maximum(
            np.maximum(1.0, np.abs(zs - mu) / mu), spread)
        live = steps > 0.0
        for i in np.flatnonzero(~live).tolist():
            failures[i] = DomainError(
                f"complex step underflows at z={float(zs[i])} (mu={mu!r})")
        pending = [np.flatnonzero(live)] if live.any() else []
        while pending:
            idx = pending.pop()
            if idx.size == 1:  # one mixture, with a Python complex eps
                G = contaminate(F, 1j * float(steps[idx[0]]), zs[idx[0]])
            else:
                G = Contaminated(F, 1j * steps[idx], zs[idx])
            try:
                values[idx] = np.imag(T.evaluate(G)) / steps[idx]
            except Exception as exc:  # recorded, not fatal
                if idx.size == 1:
                    failures[int(idx[0])] = exc
                else:  # each point alone records its own error
                    pending.extend(idx[:, None])
    for i in np.flatnonzero(~np.isfinite(values)).tolist():
        failures.setdefault(i, DomainError(
            f"IF is {values[i]} at z={float(zs[i])}"))
    return values, _COMPLEX_STEP ** 2 * np.abs(values), failures


# ---------------------------------------------------------------------------
# Asymptotic variance
# ---------------------------------------------------------------------------


def asymptotic_variance(T: MeasureFunctional, F: Distribution) -> float:
    """sigma^2 = integral of IF(x)^2 dF(x), atoms included exactly.

    The quadruple family on a parametric model takes the moment route
    (`_moment_variance`) where the model has the closed moments it reads
    and the route is well conditioned; there a truly infinite variance
    raises MomentDiverges at once. Everything else takes the IF^2
    quadrature (`_quadrature_variance`).
    """
    if T.kind == "theil_like" and not isinstance(F, (Empirical, Contaminated)):
        sigma2 = _moment_variance(T.spec, F)
        if sigma2 is not None:
            return sigma2
    return _quadrature_variance(T, F)


def _quadrature_variance(T: MeasureFunctional, F: Distribution) -> float:
    """sigma^2 as the integral of IF^2. On a continuous model this is the
    quantile form integral of IF(Q(p))^2 over p in [0, 1]. The QSR's IF
    kinks at the quintile boundaries, which sit at exactly p = 0.2 and
    0.8, so its integral is split there: the pieces [0, 0.2] and [0.8, 1]
    together, then [0.2, 0.8]. The atomic kinds (Empirical, Contaminated)
    sum over their atoms instead. Heavy-tail divergence surfaces as
    NonConvergence rather than a silently wrong number."""
    if_fn = _closed_if_vectorized(T, F)
    square = lambda xs: np.asarray(if_fn(xs), dtype=float) ** 2

    if T.kind == "qsr" and not isinstance(F, (Empirical, Contaminated)):
        return sum(F._tails_integral(square, lo, hi)
                   for lo, hi in ((0.0, 0.2), (0.2, 0.5)))
    return F.expect(square)


# The moment route serves a cell only where sum |terms| / sigma^2 is below
# this bound. Each closed moment is good to a few units in the last place,
# so the route's relative error is at most about 5e-16 times that ratio
# (measured against 30-digit mpmath on exp, Pareto, lognormal,
# Singh-Maddala and uniform cells): 5e-11 at the bound, under the 1e-9
# target of the quadrature it replaces.
_CONDITION_BOUND = 1e5


def _variance_keys(h_key: str):
    """The closed-moment keys of E h(X), E h(X)^2 and E X h(X) for a
    member's h, and the sign that turns the first and last into E h(X)
    and E X h(X) (h = -log x reads E log X and E X log X)."""
    name, _, arg = h_key.partition(":")
    if name == "pow":
        a = float(arg)
        return h_key, f"pow:{2.0 * a!r}", f"pow:{a + 1.0!r}", 1.0
    if name == "expneg":
        return h_key, f"expneg:{2.0 * float(arg)!r}", f"xexpneg:{arg}", 1.0
    return {"xlogx": ("powlog:1.0", "powlog2:2.0", "powlog:2.0", 1.0),
            "log": ("powlog:0.0", "powlog2:0.0", "powlog:1.0", 1.0),
            "neglog": ("powlog:0.0", "powlog2:0.0", "powlog:1.0", -1.0)}[name]


def _moment_variance(spec, F: Distribution) -> Optional[float]:
    """sigma^2 of a quadruple member from five moments, or None where the
    model has no closed form for one of them or the route is ill
    conditioned. Theorem 1 makes the IF affine, A (z - mu) + B (h(z) - E h)
    with A and B from `_theorem1`, so

      sigma^2 = A^2 Var X + 2 A B Cov(X, h(X)) + B^2 Var h(X),

    which reads E X^2, E h(X)^2 and E X h(X) besides mu and E h (Cowell &
    Flachaire 2007), each from its closed form. One outside its form's
    domain is infinite, and so is sigma^2: A and B are nonzero, IF^2 grows
    as fast as X^2 and h(X)^2 do, and E X h(X) is finite where both of
    those are. That raises MomentDiverges before any quadrature runs. The
    scale-invariant members (all but Kolm) are computed on the unit-mean
    law X/mu, whose sigma^2 is the same: no log-scale term then swamps the
    others. Near equality the terms cancel; past `_CONDITION_BOUND` the
    IF^2 quadrature answers instead.
    """
    eh_key, square_key, cross_key, sign = _variance_keys(spec.h_key)
    G = F if spec.family == "kolm" else scaled(F, 1.0 / F.mean())
    try:
        moments = [G._closed_moment(k)
                   for k in (eh_key, "pow:2.0", square_key, cross_key)]
    except MomentDiverges as exc:
        raise MomentDiverges(f"sigma^2 is infinite for {spec.measure_id} "
                             f"on {F.descriptor()}: {exc}") from None
    if None in moments:
        return None
    eh, e_x2, e_h2, e_xh = moments
    eh, e_xh = sign * eh, sign * e_xh
    mu = G.mean()
    slope, level = _theorem1(spec, mu, eh)
    terms = (slope * slope * e_x2, -slope * slope * mu * mu,
             2.0 * slope * level * e_xh, -2.0 * slope * level * mu * eh,
             level * level * e_h2, -level * level * eh * eh)
    try:
        sigma2 = math.fsum(terms)
        well_conditioned = sigma2 * _CONDITION_BOUND > math.fsum(
            map(abs, terms))
    except (OverflowError, ValueError):  # a term out of the float range
        return None
    return sigma2 if well_conditioned else None


# ---------------------------------------------------------------------------
# Curves
# ---------------------------------------------------------------------------


@dataclass(frozen=True, eq=False)
class IFCurve:
    """Closed-form (and optionally oracle) IF values over a z grid."""

    measure_id: str
    distribution: str
    grid: np.ndarray
    closed_form: np.ndarray
    oracle: Optional[np.ndarray]
    oracle_error: Optional[np.ndarray]
    point_errors: tuple
    max_abs_discrepancy: float


def if_curve(measure_id, F: Distribution, grid: Sequence[float],
             with_oracle: bool = False) -> IFCurve:
    """Evaluate the closed-form IF (and optionally the oracle) on a grid,
    for a measure id or a MeasureFunctional. The oracle takes its complex
    step at every point from one evaluation of T (see `gateaux_if`).

    Per-point failures are recorded in the curve instead of aborting it.
    """
    zs = np.asarray(list(grid), dtype=float)
    if zs.size == 0:
        raise InvalidParameter("grid must contain at least one point")
    if not (np.isfinite(zs).all() and zs[0] >= 0 and (zs[1:] > zs[:-1]).all()):
        raise InvalidParameter("grid must be finite, strictly increasing and >= 0")

    T = parse_measure_id(measure_id)
    closed = np.full(zs.shape, np.nan)
    oracle = oracle_err = None
    point_errors = []

    kernel = _kernel_or_error(T, F)
    valid = []
    # a non-finite closed value is recorded below
    with np.errstate(all="ignore"):
        for i, z in enumerate(zs):
            try:
                _check_closed_point(T, z, kernel)
                valid.append(i)
            except Exception as exc:  # recorded, not fatal
                point_errors.append((i, f"closed: {exc}"))
        if valid:
            closed[valid] = kernel(zs[valid])
    for i in (i for i in valid if not math.isfinite(closed[i])):
        point_errors.append((i, f"closed: IF is {closed[i]} at z={zs[i]}"))
        closed[i] = math.nan
    if with_oracle:
        oracle, oracle_err, failures = _gateaux_grid(T, F, zs)
        point_errors += [(i, f"oracle: {exc}") for i, exc in failures.items()]
    # grid order; at one point the closed error before the oracle's
    point_errors.sort(key=lambda e: (e[0], e[1].startswith("oracle")))

    if with_oracle:
        both = np.isfinite(closed) & np.isfinite(oracle)
        max_disc = float(np.max(np.abs(closed[both] - oracle[both]))) \
            if np.any(both) else math.nan
    else:
        max_disc = math.nan

    return IFCurve(
        measure_id=T.id,
        distribution=F.descriptor(),
        grid=zs,
        closed_form=closed,
        oracle=oracle,
        oracle_error=oracle_err,
        point_errors=tuple(point_errors),
        max_abs_discrepancy=max_disc,
    )


def default_grid(F: Distribution, measure_id, count: int = 20) -> np.ndarray:
    """Default z grid: log-spaced between Q(0.01) and Q(0.99), or the one
    point Q(0.01) where the two coincide (a point mass).

    For the QSR the grid is built from probability levels kept clear of the
    quintile boundaries, where the IF is discontinuous.
    """
    if count < 1:
        raise InvalidParameter(f"grid count must be >= 1, got {count}")
    T = parse_measure_id(measure_id)
    if T.kind == "qsr":
        n_outer = max(count // 4, 1)
        n_mid = max(count - 2 * n_outer, 1)
        levels = np.concatenate([
            np.linspace(0.03, 0.15, n_outer),
            np.linspace(0.25, 0.75, n_mid),
            np.linspace(0.85, 0.97, n_outer),
        ])
        return np.unique(F.quantile_array(levels))
    lo = float(F.quantile(0.01))
    hi = float(F.quantile(0.99))
    lo = max(lo, 1e-9 * hi if hi > 0 else 1e-9)
    if count == 1 or not lo < hi:
        return np.array([lo])
    return np.geomspace(lo, hi, count)


# ---------------------------------------------------------------------------
# Printed-variant archive (the machine-readable discrepancy ledger)
# ---------------------------------------------------------------------------


def _xlogx(s: float) -> float:
    # math.log, as every display's log: numpy's log may differ in the last bit
    return s * math.log(s) if s > 0 else 0.0


# What a display reads besides z: functions, and quantities of (F, z, spec)
_FUNCTIONS = {"log": math.log, "exp": math.exp, "xlogx": _xlogx}
_QUANTITIES = {
    "mu": lambda F, z, spec: F.mean(),
    "a": lambda F, z, spec: spec.param,
    "m": lambda F, z, spec: F.expect(spec.h, key=spec.h_key),
    "nu0": lambda F, z, spec: F.expect(np.log, key="log"),
    "R": lambda F, z, spec: lorenz_area(F),
    "C": lambda F, z, spec: F.partial_mean(z),
    "Fz": lambda F, z, spec: float(F.cdf(z)),
    "IF": lambda F, z, spec: if_special("qsr", F, z),
}


class _Names(dict):
    """The namespace of one evaluation: each quantity is computed when the
    expression first reads it, so a display computes only its own moments
    (a GE display never asks for E log X)."""

    def __init__(self, F: Distribution, z: float, spec):
        super().__init__(_FUNCTIONS, z=z)
        self._args = (F, z, spec)

    def __missing__(self, name):
        value = self[name] = _QUANTITIES[name](*self._args)
        return value


@dataclass(frozen=True)
class PrintedVariant:
    """A published influence-function display, evaluated literally.

    `printed_form` is the display as it is read, written as a Python
    expression over z, mu, the member's parameter a, m = E h(X),
    nu0 = E log X, the Gini's R = R(F), C = C(F, F(z)) = E[X 1{X <= z}] and
    Fz = F(z), the QSR's normative IF, and the functions log, exp and
    xlogx (0 at z = 0). Only the rows of the table below are evaluated.
    `matches_normative` states whether the printed algebra coincides with
    the normative (oracle-confirmed) form; evaluation verdicts against the
    oracle are produced per distribution by the verify driver.
    """

    family: str
    source: str  # "section2_printed" | "appendix_printed" | "without_coefficient"
    matches_normative: bool
    printed_form: str
    normative_form: str
    note: str

    def evaluate(self, F: Distribution, z: float, spec) -> float:
        """The display at z on F, for the member `spec` (None for the
        parameter-free rows that read no E h(X))."""
        return eval(_COMPILED[self.printed_form], {"__builtins__": {}},
                    _Names(F, z, spec))


_VARIANTS = {
    "mld": (
        PrintedVariant(
            "mld", "section2_printed", False,
            "(z - mu)/mu + (log(z) - nu0)",
            "mu^-1 (z - mu) - (log z - E log X)",
            "sign of the log-deviation term flipped relative to the unified "
            "formula and to the appendix display",
        ),
        PrintedVariant(
            "mld", "appendix_printed", True,
            "-(log(z) - nu0) + (z - mu)/mu",
            "same",
            "matches the unified formula",
        ),
    ),
    "theil": (
        PrintedVariant(
            "theil", "section2_printed", False,
            "(xlogx(z) - m)/mu - (mu + nu0)/(mu*mu)",
            "mu^-1 (z log z - nu) - (nu + mu) mu^-2 (z - mu), nu = E X log X",
            "missing (z - mu) factor and E log X printed for E X log X",
        ),
        PrintedVariant(
            "theil", "appendix_printed", True,
            "(xlogx(z) - m)/mu - (m + mu)*(z - mu)/(mu*mu)",
            "same",
            "matches the unified formula",
        ),
    ),
    "generalized_entropy": (
        PrintedVariant(
            "generalized_entropy", "section2_printed", False,
            "(z**a - m)/(a*(a - 1)*mu**a) - m*(a - 1)*mu**(a + 1)*(z - mu)",
            "(z^a - m_a)/(a(a-1)mu^a) - m_a (z - mu)/((a-1) mu^(a+1))",
            "division bar missing in the second term (read literally as a "
            "product); coincides with the normative form only where "
            "(a-1)^2 mu^(2a+2) = 1: at mu = 1 only when a = 2",
        ),
        PrintedVariant(
            "generalized_entropy", "appendix_printed", True,
            "(z**a - m)/(a*(a - 1)*mu**a) - m*(z - mu)/((a - 1)*mu**(a + 1))",
            "same",
            "carries the leading 1/(a(a-1)mu^a) coefficient; adjudicated "
            "against the oracle (see the coefficient comparison driver)",
        ),
        PrintedVariant(
            "generalized_entropy", "without_coefficient", False,
            "(z**a - m) - m*(z - mu)/((a - 1)*mu**(a + 1))",
            "(z^a - m_a)/(a(a-1)mu^a) - m_a (z - mu)/((a-1) mu^(a+1))",
            "leading 1/(a(a-1)mu^a) coefficient deleted, the variant "
            "attributed to earlier literature",
        ),
    ),
    "atkinson": (
        # the display's z^a read as z^b, with b the member's parameter a
        PrintedVariant(
            "atkinson", "section2_printed", False,
            "(m**(1/a)/mu)*((z - mu)/mu - (z**a - m)/(a*mu*m))",
            "m_b^(1/b) (z - mu)/mu^2 - m_b^(1/b - 1) (z^b - m_b)/(b mu)",
            "z^a read as z^b (exponent typo); an extra 1/mu remains on the "
            "second term, so the forms coincide only when mu = 1",
        ),
        # the display's 1 - e is the member's parameter a, its nu = E X^a
        PrintedVariant(
            "atkinson", "appendix_printed", True,
            "-m**(1/a - 1)*(z**a - m)/(a*mu) + m**(1/a)*(z - mu)/(mu*mu)",
            "same under b = 1 - e",
            "matches the unified formula under the exponent reparameterization",
        ),
    ),
    "champernowne": (
        PrintedVariant(
            "champernowne", "section2_printed", True,
            "(exp(nu0)/mu)*((z - mu)/mu - (log(z) - nu0))",
            "same",
            "matches the unified formula",
        ),
    ),
    "kolm": (
        PrintedVariant(
            "kolm", "section2_printed", False,
            "(1/a)*((z - mu) - (exp(-a*mu)/m - 1))",
            "(z - mu) + (exp(-a z) - E exp(-a X))/(a E exp(-a X))",
            "undefined symbol read as the family parameter; the printed "
            "second term has no z dependence",
        ),
    ),
    "gini": (
        PrintedVariant(
            "gini", "appendix_printed", False,
            "2*(R - C + (z/mu)*(R - (1 - Fz)))",
            "2[R - C(F, F(z))/mu + (z/mu)(R - (1 - F(z)))]",
            "cumulative functional not normalized by the mean; breaks scale "
            "invariance and coincides with the normative form only at mu = 1",
        ),
    ),
    "qsr": (
        # printed I1 1_A1 + I2 1_A2 + I3 1_A3, with unbalanced brackets in
        # the pieces: read bracket-normalized, it is the normative IF
        PrintedVariant(
            "qsr", "appendix_printed", True,
            "IF",
            "each piece a single fraction over D^2; A3 upper endpoint read "
            "as uep(F)",
            "bracket-normalized reading matches the oracle",
        ),
    ),
}

# compiled once, from the literals above: a display is never read from input
_COMPILED = {
    v.printed_form: compile(v.printed_form, f"<{v.family} {v.source}>", "eval")
    for rows in _VARIANTS.values() for v in rows
}


def printed_variants(measure_id) -> tuple:
    """Archived published displays for a measure id or MeasureFunctional,
    normative form alongside."""
    T = parse_measure_id(measure_id)
    family = T.spec.family if T.spec else T.kind
    return _VARIANTS.get(family, ())
