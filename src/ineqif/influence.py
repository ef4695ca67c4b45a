"""Influence functions, closed forms and the numerical Gateaux oracle.

Two independent routes exist for every measure: one closed-form influence
function per measure kind (the unified quadruple formula of Theorem 1, the
Gini and QSR forms, and the mean), and a numerical Gateaux derivative of
T along the contamination (1-eps)F + eps Dirac(z): the complex step in
eps, taken at every point of a grid from one evaluation of T, for every
functional. The closed forms are adjudicated against the oracle; published
displays are archived in a variant table, each as the Python expression it
is read as, so the ones that disagree are kept on record rather than
silently dropped.
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
    Exponential,
    LogNormal,
    Pareto,
    Uniform,
    _SQRT_HALF,
    _ncdf,
    _ncdf2_half,
    scaled,
)
from .errors import (
    DegenerateDenominator,
    DomainError,
    IneqError,
    InvalidParameter,
    MomentDiverges,
)
from .measures import (
    MeasureFunctional,
    _checked_h1,
    _mean_of,
    functional_value,
    lorenz_area,
    parse_measure_id,
    qsr_components,
)
# integrate and derivative_at_zero_plus are unused here; the benchmark
# tracer patches these names.
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
    domain of h) are the callers'. A block of samples and a custom
    functional other than `mean_functional()`'s have none (a custom
    functional is the mean by its fn, not by its id): InvalidParameter.

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
    The pieces meet at Q(0.2) and at Q(0.8): the IF is continuous there.

    Mean: z - mu.
    """
    if isinstance(F, Empirical):
        F._one_sample()
    if T.fn is _mean_of:
        mu = F.mean()
        return lambda xs: np.asarray(xs, dtype=float) - mu
    if T.kind == "custom":
        raise InvalidParameter(
            f"no closed-form IF for custom functional '{T.id}'")
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
    before any moment failure (a kernel that could not be built)."""
    z = _check_point(z)
    if T.spec is not None and T.spec.requires_positive and z <= 0.0:
        raise DomainError(
            f"h(z) undefined at z={z} for {T.spec.measure_id} "
            "(log or negative power)"
        )
    if isinstance(kernel, Exception):
        raise kernel
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
    mixture quantile is not analytic in a complex eps, but its derivative
    is taken with the quintiles frozen at F's (see `qsr`), a path linear in
    eps that takes the complex step too. A custom functional takes it as
    well, so its fn must be analytic along the path (see `_on_path`).

    The complex step's `error` is its truncation term h^2 |phi'''(0)|/6,
    taken as 1e-20 |IF|: the step rule of `_complex_step` keeps h times
    each relative rate of change along the path at 1e-10 or below. It does
    not cover the error of the moments T reads, which the oracle shares
    with the closed form.
    """
    z = _check_point(z)
    values, errors, failures = _complex_step(T, F, np.array([z]))
    if failures:
        raise failures[0]
    return DerivativeEstimate(value=float(values[0]), error=float(errors[0]))


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
    evaluation raises, each point is evaluated alone, as a one-point grid,
    and records its own error.
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
            G = Contaminated(F, 1j * steps[idx], zs[idx])
            try:
                values[idx] = np.imag(_on_path(T, G)) / steps[idx]
            except Exception as exc:  # recorded, not fatal
                if idx.size == 1:
                    failures[int(idx[0])] = exc
                else:  # each point alone records its own error
                    pending.extend(idx[:, None])
    for i in np.flatnonzero(~np.isfinite(values)).tolist():
        failures.setdefault(i, DomainError(
            f"IF is {values[i]} at z={float(zs[i])}"))
    return values, _COMPLEX_STEP ** 2 * np.abs(values), failures


def _on_path(T: MeasureFunctional, G: Contaminated):
    """T on a grid of mixtures. A custom fn must be analytic along the
    path: it returns a complex array with one value per point, or a real
    scalar (a constant, whose IF is 0). A real array (the imaginary step
    dropped, as abs does) or an error that is not an IneqError is
    InvalidParameter."""
    if T.kind != "custom":
        return T.evaluate(G)
    try:
        value = T.fn(G)
    except IneqError:
        raise
    except Exception as exc:
        detail = f"it raised {type(exc).__name__}: {exc}"
    else:
        if np.shape(value) == (G.z.shape if np.iscomplexobj(value) else ()):
            return value
        detail = (f"it returned {np.asarray(value).dtype} of shape "
                  f"{np.shape(value)}")
    raise InvalidParameter(f"custom functional '{T.id}' is not analytic "
                           f"along the complex contamination path: {detail}")


# ---------------------------------------------------------------------------
# Asymptotic variance
# ---------------------------------------------------------------------------


def asymptotic_variance(T: MeasureFunctional, F: Distribution) -> float:
    """sigma^2 = integral of IF(x)^2 dF(x), atoms included exactly.

    On a parametric model three closed routes read moments instead of
    integrating IF^2: the quadruple family (`_moment_variance`), the Gini
    on the exponential, Pareto, uniform and lognormal laws
    (`_gini_variance`) and the QSR (`_qsr_variance`). Each serves a cell
    where the model has the closed forms it reads and the route is well
    conditioned; there a truly infinite variance raises MomentDiverges at
    once. Everything else takes the IF^2 quadrature
    (`_quadrature_variance`).
    """
    sigma2 = None
    if not isinstance(F, (Empirical, Contaminated)):
        if T.kind == "theil_like":
            sigma2 = _moment_variance(T.spec, F)
        elif T.kind == "gini":
            sigma2 = _gini_variance(F)
        elif T.kind == "qsr":
            sigma2 = _qsr_variance(F)
    return _quadrature_variance(T, F) if sigma2 is None else sigma2


def _quadrature_variance(T: MeasureFunctional, F: Distribution) -> float:
    """sigma^2 as the integral of IF^2, for the cells no closed route
    serves: the Gini on the Singh-Maddala law, Kolm on the Pareto,
    lognormal and Singh-Maddala laws, the atomic kinds, custom
    functionals and ill-conditioned cells. On a continuous model this is
    the quantile form integral of IF(Q(p))^2 over p in [0, 1]. The QSR's
    IF kinks at the quintile boundaries, which sit at exactly p = 0.2 and
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


# A closed route serves a cell only where sum |terms| / sigma^2 is below
# this bound. Each closed moment is good to a few units in the last place,
# so the route's relative error is at most about 5e-16 times that ratio
# (measured against 30-digit mpmath on exp, Pareto, lognormal,
# Singh-Maddala and uniform cells): 5e-11 at the bound, under the 1e-9
# target of the quadrature it replaces.
_CONDITION_BOUND = 1e5


def _conditioned_sum(terms) -> Optional[float]:
    """The exact sum of terms, or None where it is ill conditioned (past
    `_CONDITION_BOUND`) or a term is out of the float range."""
    try:
        total = math.fsum(terms)
        well_conditioned = total * _CONDITION_BOUND > math.fsum(
            map(abs, terms))
    except (OverflowError, ValueError):  # a term out of the float range
        return None
    return total if well_conditioned else None


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


def _affine_variance(G: Distribution, h_key: str, coefficients,
                     label: str) -> Optional[float]:
    """sigma^2 of an IF that is affine in (z, h(z)), A z + B h(z) + const
    with E IF = 0, from five closed moments of G, or None where G has no
    closed form for one of them or the sum is ill conditioned.
    `coefficients(mu, E h)` gives (A, B), and

      sigma^2 = A^2 Var X + 2 A B Cov(X, h(X)) + B^2 Var h(X),

    which reads E X^2, E h(X)^2 and E X h(X) besides mu and E h (Cowell &
    Flachaire 2007). One outside its form's domain is infinite, and so is
    sigma^2 where A and B are nonzero: IF^2 grows as fast as X^2 and
    h(X)^2 do, and E X h(X) is finite where both of those are. That
    raises MomentDiverges, naming `label`, before any quadrature runs.
    """
    eh_key, square_key, cross_key, sign = _variance_keys(h_key)
    try:
        moments = [G._closed_moment(k)
                   for k in (eh_key, "pow:2.0", square_key, cross_key)]
    except MomentDiverges as exc:
        raise MomentDiverges(
            f"sigma^2 is infinite for {label}: {exc}") from None
    if None in moments:
        return None
    eh, e_x2, e_h2, e_xh = moments
    eh, e_xh = sign * eh, sign * e_xh
    mu = G.mean()
    slope, level = coefficients(mu, eh)
    return _conditioned_sum((
        slope * slope * e_x2, -slope * slope * mu * mu,
        2.0 * slope * level * e_xh, -2.0 * slope * level * mu * eh,
        level * level * e_h2, -level * level * eh * eh))


def _moment_variance(spec, F: Distribution) -> Optional[float]:
    """sigma^2 of a quadruple member from five moments, or None where the
    model has no closed form for one of them or the route is ill
    conditioned. Theorem 1 makes the IF affine, A (z - mu) + B (h(z) - E h)
    with A and B from `_theorem1`: `_affine_variance` sums it. The
    scale-invariant members (all but Kolm) are computed on the unit-mean
    law X/mu, whose sigma^2 is the same: no log-scale term then swamps the
    others. Near equality the terms cancel; past `_CONDITION_BOUND` the
    IF^2 quadrature answers instead.
    """
    G = F if spec.family == "kolm" else scaled(F, 1.0 / F.mean())
    return _affine_variance(G, spec.h_key,
                            lambda mu, eh: _theorem1(spec, mu, eh),
                            f"{spec.measure_id} on {F.descriptor()}")


def _integrated_cdf(G: Distribution):
    """(a1, b, h_key) with g(z) = z F(z) - E[X 1{X <= z}], the integral of
    F over [0, z], equal to a1 z + b h(z) + const on the support of G, for
    h the moment key h_key names; None on a kind without such a form.

      exponential(l):  g = z - (1 - e^{-l z})/l        h = e^{-l z}
      Pareto(k, s):    g = z - s k/(k-1) + s^k z^{1-k}/(k-1)   h = z^{1-k}
      uniform(lo, hi): g = (z - lo)^2/(2 (hi - lo))    h = z^2
    """
    if isinstance(G, Exponential):
        return 1.0, 1.0 / G.rate, f"expneg:{G.rate!r}"
    if isinstance(G, Pareto):
        k, s = G.shape, G.scale
        return 1.0, s ** k / (k - 1.0), f"pow:{1.0 - k!r}"
    if isinstance(G, Uniform):
        d = G.hi - G.lo
        return -G.lo / d, 0.5 / d, "pow:2.0"
    return None


def _gini_variance(F: Distribution) -> Optional[float]:
    """sigma^2 of the Gini on the exponential, Pareto, uniform and
    lognormal laws, or None (the Singh-Maddala, or an ill-conditioned
    cell). The Gini's IF is

      2 [R - C(F, F(z))/mu + (z/mu) (R - (1 - F(z)))]
        = 2 [R + z (R - 1)/mu + g(z)/mu],   g(z) = z F(z) - E[X 1{X <= z}],

    and on the first three laws g is a1 z + b h(z) + const
    (`_integrated_cdf`), so the IF is A z + B h(z) + const with
    A = 2 (R - 1 + a1)/mu and B = 2 b/mu, and `_affine_variance` sums it.
    The lognormal has its own sum (`_lognormal_gini_variance`). It is
    computed on the unit-mean law X/mu, as the Gini is scale invariant. On
    the Singh-Maddala, E[X pm(X)] with pm the partial mean has no closed
    form here.
    """
    G = scaled(F, 1.0 / F.mean())
    if isinstance(G, LogNormal):
        return _lognormal_gini_variance(G.sigma)
    parts = _integrated_cdf(G)
    if parts is None:
        return None
    a1, b, h_key = parts
    r = lorenz_area(G)
    return _affine_variance(G, h_key,
                            lambda mu, eh: (2.0 * (r - 1.0 + a1) / mu,
                                            2.0 * b / mu),
                            f"gini on {F.descriptor()}")


def _lognormal_gini_variance(s: float) -> Optional[float]:
    """sigma^2 of the Gini on a lognormal of log-scale s, or None where the
    sum is ill conditioned (s towards 0) or out of the float range. On the
    unit-mean law X = e^{m + sW}, W standard normal and m = -s^2/2,
    g(X) = X Phi(W) - Phi(W - s) and R = Phi(-s/sqrt 2), so IF/2 - R is

      Y = (R - 1) X + g(X) = X (R - Phi(-W)) - Phi(W - s),   E Y = -R,

    and sigma^2 = 4 (E Y^2 - R^2). Tilting by X^k turns W into W + k s
    at the factor E X^k = e^{km + k^2 s^2/2}, and a product of normal cdfs
    of W + a and W + b into Phi2 at correlation 1/2:

      E[X^k Phi(W + a)] = E X^k Phi((ks + a)/sqrt 2),
      E[X^k Phi(W + a) Phi(W + b)] = E X^k Phi2((ks + a)/sqrt 2,
                                                (ks + b)/sqrt 2; 1/2),

    with W -> -W on the Phi(-W) factor, and Phi2(h, k; -1/2) = Phi(h)
    - Phi2(h, -k; 1/2) on the cross term. Written around R - Phi(-W), which
    is small where X is large, the terms' magnitudes sum to 24 sigma^2 at
    s = 1 and to sigma^2 as s grows; as s -> 0 they cancel (6.9e5 sigma^2
    at s = 0.01), and `_conditioned_sum` declines.
    """
    r = 0.5 * math.erfc(0.5 * s)
    h = -s * _SQRT_HALF
    try:
        e_x2 = math.exp(s * s)
    except OverflowError:
        return None
    var_y = _conditioned_sum((
        # E X^2 (R - Phi(-W))^2
        e_x2 * r * r, -2.0 * e_x2 * r * _ncdf(2.0 * h),
        e_x2 * _ncdf2_half(2.0 * h, 2.0 * h),
        # -2 E[X (R - Phi(-W)) Phi(W - s)], E Phi(W - s)^2 and -(E Y)^2
        -2.0 * _ncdf2_half(h, 0.0), r, _ncdf2_half(h, h), -r * r))
    return None if var_y is None else 4.0 * var_y


def _qsr_variance(F: Distribution) -> Optional[float]:
    """sigma^2 of the QSR on a parametric law from its partial moments, or
    None where the model has no closed E[X^2 1{X <= t}] or the sum is ill
    conditioned. With r = N/D, the IF is piecewise affine,

      IF(z) = c + (r/D) (q1 - z)_+ + (z - q4)_+/D,

    c its middle piece (0.2 q4 - 0.2 q1 r)/D. E IF = 0 makes c minus the
    mean of the rest, and the two ramps never overlap, so

      sigma^2 = [r^2 E(q1 - X)_+^2 + E(X - q4)_+^2]/D^2 - c^2,

    with the stop-loss moments (`Distribution.partial_second_moment`)
      E(q1 - X)_+^2 = 0.2 q1^2 - 2 q1 D + E[X^2 1{X <= q1}],
      E(X - q4)_+^2 = E X^2 - E[X^2 1{X <= q4}] - 2 q4 N + 0.2 q4^2.
    E X^2 is the only moment that can be infinite; where it is, so is
    sigma^2, and MomentDiverges is raised. It is computed on the unit-mean
    law X/mu, as the QSR is scale invariant.
    """
    G = scaled(F, 1.0 / F.mean())
    try:
        e_x2 = G._closed_moment("pow:2.0")
    except MomentDiverges as exc:
        raise MomentDiverges(f"sigma^2 is infinite for qsr on "
                             f"{F.descriptor()}: {exc}") from None
    if e_x2 is None:  # out of the float range
        return None
    n, d, q1, q4 = qsr_components(G)
    m2_q1, m2_q4 = G.partial_second_moment(q1), G.partial_second_moment(q4)
    if m2_q1 is None or m2_q4 is None:
        return None
    r = n / d
    # the two stop-loss moments and c^2 = 0.04 (q4 - r q1)^2, expanded
    total = _conditioned_sum((
        0.16 * r * r * q1 * q1, -2.0 * r * r * q1 * d, r * r * m2_q1,
        e_x2, -m2_q4, -2.0 * q4 * n, 0.16 * q4 * q4, 0.08 * r * q1 * q4))
    return None if total is None else total / (d * d)


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
        oracle, oracle_err, failures = _complex_step(T, F, zs)
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

    For the QSR the grid is built from probability levels in each of the
    three pieces of its IF, clear of the quintile levels 0.2 and 0.8, where
    the IF is continuous but kinks. It stays this grid because the
    benchmark's reference (`bench/reference.py`) builds the same one and
    compares curves on it.
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
