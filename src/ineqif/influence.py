"""Influence functions, closed forms and the numerical Gateaux oracle.

Two independent routes exist for every measure: one closed-form influence
function per measure kind (the unified quadruple formula of Theorem 1, the
Gini and QSR forms, and the mean), and a numerical Gateaux derivative
obtained by contaminating the distribution with a point mass and
extrapolating the difference quotient to eps -> 0. The closed forms are
adjudicated against the oracle; published displays are archived in a
machine-readable variant table and evaluated as printed, so the ones that
disagree are kept on record rather than silently dropped.
"""
from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable, Optional, Sequence

import numpy as np

from .distributions import Contaminated, Distribution, Empirical, contaminate
from .errors import (
    DegenerateDenominator,
    DomainError,
    InvalidParameter,
    KinkPoint,
)
from .measures import (
    MeasureFunctional,
    functional_value,
    lorenz_area,
    make_spec,
    parse_measure_id,
    qsr_components,
)
# integrate is unused here; the benchmark tracer patches this name.
from .numeric import (  # noqa: F401
    DEFAULT_TOL,
    DerivativeEstimate,
    Tolerance,
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


def _closed_if_vectorized(T: MeasureFunctional, F: Distribution,
                          tol: Tolerance) -> Callable[[np.ndarray], np.ndarray]:
    """The closed-form IF of T at F as a vectorized function of z.

    Every moment is computed once, here; the checks on z itself (the
    domain of h, atoms, quintile boundaries) are the callers'.

    Quadruple family (Theorem 1), with I = E h(X)/h1(mu) - h2(mu):
      tau'(I) * [ -(h1'(mu) E h(X)/h1(mu)^2 + h2'(mu)) (z - mu)
                  + (h(z) - E h(X))/h1(mu) ]
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
        r = lorenz_area(F, tol)

        def gini_if(xs):
            xs = np.asarray(xs, dtype=float)
            partial = np.array([F.partial_mean(x) for x in xs.ravel()])
            partial = partial.reshape(xs.shape)
            fz = np.asarray(F.cdf(xs), dtype=float)
            return 2.0 * (r - partial / mu + (xs / mu) * (r - (1.0 - fz)))

        return gini_if
    if T.kind == "qsr":
        n, d, q1, q4 = qsr_components(F)
        if d <= 0.0:
            raise DegenerateDenominator(
                f"bottom-quintile income mass is {d!r} on {F.descriptor()}"
            )
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
    fv = functional_value(spec, F, tol)
    mu, eh = fv.mu, fv.eh
    h1_mu = float(spec.h1(mu))
    slope = float(spec.tau_prime(fv.index_arg))
    # h1(mu) != 0 was checked by functional_value, but its square may still
    # underflow (kolm:1 on sm:2,1000,3: mu = 589, h1(mu) ~ 1.5e-256).
    h1_sq = h1_mu * h1_mu
    lever = (-(float(spec.h1_prime(mu)) * eh / h1_sq + float(spec.h2_prime(mu)))
             if h1_sq != 0.0 else math.nan)
    if not math.isfinite(lever):
        raise DegenerateDenominator(
            f"IF lever is {lever!r} (h1(mu)^2={h1_sq!r}) for "
            f"{spec.measure_id} at mu={mu!r}"
        )

    def theil_like_if(xs):
        xs = np.asarray(xs, dtype=float)
        return slope * (lever * (xs - mu) + (spec.h(xs) - eh) / h1_mu)

    return theil_like_if


def _kernel_or_error(T: MeasureFunctional, F: Distribution, tol: Tolerance):
    """The kernel, or the exception that building it raised: a moment
    failure is reported at a point only after that point's own checks."""
    try:
        return _closed_if_vectorized(T, F, tol)
    except Exception as exc:
        return exc


def _check_closed_point(T: MeasureFunctional, F: Distribution, z: float,
                        kernel) -> float:
    """The checks on z, in a fixed order: z >= 0, the domain of h and an
    atom of F under the Gini come before any moment failure (a kernel that
    could not be built); the QSR's quintile boundaries, where its IF jumps,
    come after its quintile moments. A point within 1e-9 (relative) of a
    boundary counts as on it."""
    z = _check_point(z)
    if T.spec is not None and T.spec.requires_positive and z <= 0.0:
        raise DomainError(
            f"h(z) undefined at z={z} for {T.spec.measure_id} "
            "(log or negative power)"
        )
    if T.kind == "gini" and F.mass(z) > 0.0:
        raise KinkPoint(f"Gini IF evaluated on an atom of F at z={z}")
    if isinstance(kernel, Exception):
        raise kernel
    if T.kind == "qsr":
        q1, q4 = kernel.kinks
        for q in (q1, q4):
            if abs(z - q) <= 1e-9 * max(1.0, abs(q)):
                raise KinkPoint(
                    f"z={z} sits on a quintile boundary (Q in {{{q1}, {q4}}})"
                )
    return z


def if_special(measure_id, F: Distribution, z: float,
               tol: Tolerance = DEFAULT_TOL) -> float:
    """Normative closed-form influence function of a measure id (or a
    MeasureFunctional) at one point z; see `_closed_if_vectorized`."""
    T = parse_measure_id(measure_id)
    kernel = _kernel_or_error(T, F, tol)
    z = _check_closed_point(T, F, z, kernel)
    with np.errstate(all="ignore"):  # a non-finite IF is the caller's to see
        return float(kernel(z))


# ---------------------------------------------------------------------------
# Numerical Gateaux oracle
# ---------------------------------------------------------------------------


def gateaux_if(T: MeasureFunctional, F: Distribution, z: float,
               tol: Tolerance = DEFAULT_TOL) -> DerivativeEstimate:
    """lim_{eps->0+} [T((1-eps)F + eps Dirac(z)) - T(F)] / eps.

    This is the independent oracle for every closed form in this module.
    Expectations over the contaminated mixture are exact in eps, so the
    difference quotients carry no quadrature drift across the steps.
    """
    z = _check_point(z)
    base_value = T.evaluate(F, tol)

    def phi(eps: float) -> float:
        return T.evaluate(contaminate(F, eps, z), tol) - base_value

    return derivative_at_zero_plus(phi)


# ---------------------------------------------------------------------------
# Asymptotic variance
# ---------------------------------------------------------------------------


def asymptotic_variance(T: MeasureFunctional, F: Distribution,
                        tol: Tolerance = DEFAULT_TOL) -> float:
    """sigma^2 = integral of IF(x)^2 dF(x), atoms included exactly.

    On a continuous model this is the quantile form integral of
    IF(Q(p))^2 over p in [0, 1]. The QSR's IF kinks at the quintile
    boundaries, which sit at exactly p = 0.2 and 0.8, so its integral is
    split there: the pieces [0, 0.2] and [0.8, 1] together, then
    [0.2, 0.8]. The atomic kinds (Empirical, Contaminated) sum over their
    atoms instead. Heavy-tail divergence surfaces as NonConvergence rather
    than a silently wrong number.
    """
    if_fn = _closed_if_vectorized(T, F, tol)
    square = lambda xs: np.asarray(if_fn(xs), dtype=float) ** 2

    if T.kind == "qsr" and not isinstance(F, (Empirical, Contaminated)):
        return sum(F._tails_integral(square, lo, hi, tol)
                   for lo, hi in ((0.0, 0.2), (0.2, 0.5)))
    return F.expect(square, tol)


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
             with_oracle: bool = False,
             tol: Tolerance = DEFAULT_TOL) -> IFCurve:
    """Evaluate the closed-form IF (and optionally the oracle) on a grid,
    for a measure id or a MeasureFunctional.

    Per-point failures are recorded in the curve instead of aborting it.
    """
    zs = np.asarray(list(grid), dtype=float)
    if zs.size == 0:
        raise InvalidParameter("grid must contain at least one point")
    if not (np.isfinite(zs).all() and zs[0] >= 0 and (zs[1:] > zs[:-1]).all()):
        raise InvalidParameter("grid must be finite, strictly increasing and >= 0")

    T = parse_measure_id(measure_id)
    closed = np.full(zs.shape, np.nan)
    oracle = np.full(zs.shape, np.nan) if with_oracle else None
    oracle_err = np.full(zs.shape, np.nan) if with_oracle else None
    point_errors = []

    kernel = _kernel_or_error(T, F, tol)
    valid = []
    # a non-finite closed value is recorded below, an oracle's as its error
    with np.errstate(all="ignore"):
        for i, z in enumerate(zs):
            try:
                z = _check_closed_point(T, F, z, kernel)
                valid.append(i)
            except Exception as exc:  # recorded, not fatal
                point_errors.append((i, f"closed: {exc}"))
            if with_oracle:
                try:
                    est = gateaux_if(T, F, float(z), tol)
                    oracle[i] = est.value
                    oracle_err[i] = est.error
                except Exception as exc:
                    point_errors.append((i, f"oracle: {exc}"))
        if valid:
            closed[valid] = kernel(zs[valid])
    if valid:
        for i in (i for i in valid if not math.isfinite(closed[i])):
            point_errors.append((i, f"closed: IF is {closed[i]} at z={zs[i]}"))
            closed[i] = math.nan
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


@dataclass(frozen=True)
class PrintedVariant:
    """A published influence-function display, evaluated literally.

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
    evaluate: Callable  # (F, z, tol, spec) -> float


def _v_mld_s2(F, z, tol, spec):
    mu = F.mean()
    nu0 = -F.expect(spec.h, tol, key=spec.h_key)
    return (z - mu) / mu + (math.log(z) - nu0)


def _v_theil_s2(F, z, tol, spec):
    mu = F.mean()
    nu = F.expect(spec.h, tol, key=spec.h_key)  # E X log X
    log_spec = make_spec("champernowne")  # h = log
    nu0 = F.expect(log_spec.h, tol, key=log_spec.h_key)
    zlogz = z * math.log(z) if z > 0 else 0.0
    return (zlogz - nu) / mu - (mu + nu0) / (mu * mu)


def _v_ge_s2(F, z, tol, spec):
    a = spec.param
    mu = F.mean()
    ma = F.expect(spec.h, tol, key=spec.h_key)
    # second term printed without a division bar: read as a product
    return ((z ** a - ma) / (a * (a - 1.0) * mu ** a)
            - ma * (a - 1.0) * mu ** (a + 1.0) * (z - mu))


def _v_atkinson_s2(F, z, tol, spec):
    b = spec.param
    mu = F.mean()
    mb = F.expect(spec.h, tol, key=spec.h_key)
    norm = mb ** (1.0 / b)
    return (norm / mu) * ((z - mu) / mu - (z ** b - mb) / (b * mu * mb))


def _v_kolm_s2(F, z, tol, spec):
    a = spec.param
    mu = F.mean()
    k = F.expect(spec.h, tol, key=spec.h_key)
    return (1.0 / a) * ((z - mu) - (math.exp(-a * mu) / k - 1.0))


def _v_gini_appendix(F, z, tol, spec):
    mu = F.mean()
    r = lorenz_area(F, tol)
    partial = F.partial_mean(z)
    fz = float(F.cdf(z))
    # literal reading: cumulative functional not divided by the mean
    return 2.0 * (r - partial + (z / mu) * (r - (1.0 - fz)))


def _v_mld_appendix(F, z, tol, spec):
    mu = F.mean()
    mld = make_spec("mld")  # h = -log, so E log X = -E h(X)
    nu = -F.expect(mld.h, tol, key=mld.h_key)
    return -(math.log(z) - nu) + (z - mu) / mu


def _v_theil_appendix(F, z, tol, spec):
    mu = F.mean()
    nu = F.expect(spec.h, tol, key=spec.h_key)  # E X log X
    zlogz = z * math.log(z) if z > 0 else 0.0
    return (zlogz - nu) / mu - (nu + mu) * (z - mu) / (mu * mu)


def _v_ge_appendix(F, z, tol, spec):
    a = spec.param
    mu = F.mean()
    ma = F.expect(spec.h, tol, key=spec.h_key)
    return ((z ** a - ma) / (a * (a - 1.0) * mu ** a)
            - ma * (z - mu) / ((a - 1.0) * mu ** (a + 1.0)))


def _v_ge_without_coefficient(F, z, tol, spec):
    a = spec.param
    mu = F.mean()
    ma = F.expect(spec.h, tol, key=spec.h_key)
    return (z ** a - ma) - ma * (z - mu) / ((a - 1.0) * mu ** (a + 1.0))


def _v_atkinson_appendix(F, z, tol, spec):
    b = spec.param  # the display's 1 - e
    mu = F.mean()
    mb = F.expect(spec.h, tol, key=spec.h_key)  # the display's nu = E X^b
    return (-mb ** (1.0 / b - 1.0) * (z ** b - mb) / (b * mu)
            + mb ** (1.0 / b) * (z - mu) / (mu * mu))


def _v_champernowne_s2(F, z, tol, spec):
    mu = F.mean()
    nu0 = F.expect(spec.h, tol, key=spec.h_key)  # E log X
    return (math.exp(nu0) / mu) * ((z - mu) / mu - (math.log(z) - nu0))


_VARIANTS = {
    "mld": (
        PrintedVariant(
            "mld", "section2_printed", False,
            "mu^-1 (z - mu) + (log z - E log X)",
            "mu^-1 (z - mu) - (log z - E log X)",
            "sign of the log-deviation term flipped relative to the unified "
            "formula and to the appendix display",
            _v_mld_s2,
        ),
        PrintedVariant(
            "mld", "appendix_printed", True,
            "-[log z - nu] + mu^-1 [z - mu]",
            "same",
            "matches the unified formula",
            _v_mld_appendix,
        ),
    ),
    "theil": (
        PrintedVariant(
            "theil", "section2_printed", False,
            "mu^-1 (z log z - E X log X) - mu^-2 (mu + E log X)",
            "mu^-1 (z log z - nu) - (nu + mu) mu^-2 (z - mu), nu = E X log X",
            "missing (z - mu) factor and E log X printed for E X log X",
            _v_theil_s2,
        ),
        PrintedVariant(
            "theil", "appendix_printed", True,
            "(1/mu)[z log z - nu] - (nu + mu)/mu^2 [z - mu]",
            "same",
            "matches the unified formula",
            _v_theil_appendix,
        ),
    ),
    "generalized_entropy": (
        PrintedVariant(
            "generalized_entropy", "section2_printed", False,
            "(z^a - m_a)/(a(a-1)mu^a) - m_a (a-1) mu^(a+1) (z - mu)",
            "(z^a - m_a)/(a(a-1)mu^a) - m_a (z - mu)/((a-1) mu^(a+1))",
            "division bar missing in the second term (read literally as a "
            "product); coincides with the normative form when mu = 1",
            _v_ge_s2,
        ),
        PrintedVariant(
            "generalized_entropy", "appendix_printed", True,
            "[1/(a(a-1)mu^a)](z^a - m_a) - [m_a/((a-1)mu^(a+1))](z - mu)",
            "same",
            "carries the leading 1/(a(a-1)mu^a) coefficient; adjudicated "
            "against the oracle (see the coefficient comparison driver)",
            _v_ge_appendix,
        ),
        PrintedVariant(
            "generalized_entropy", "without_coefficient", False,
            "(z^a - m_a) - m_a (z - mu)/((a-1) mu^(a+1))",
            "(z^a - m_a)/(a(a-1)mu^a) - m_a (z - mu)/((a-1) mu^(a+1))",
            "leading 1/(a(a-1)mu^a) coefficient deleted, the variant "
            "attributed to earlier literature",
            _v_ge_without_coefficient,
        ),
    ),
    "atkinson": (
        PrintedVariant(
            "atkinson", "section2_printed", False,
            "(|X|_b/mu)((z - mu)/mu - (z^a - m_b)/(b mu m_b))",
            "m_b^(1/b) (z - mu)/mu^2 - m_b^(1/b - 1) (z^b - m_b)/(b mu)",
            "z^a read as z^b (exponent typo); an extra 1/mu remains on the "
            "second term, so the forms coincide only when mu = 1",
            _v_atkinson_s2,
        ),
        PrintedVariant(
            "atkinson", "appendix_printed", True,
            "-nu^(1/(1-e)-1)/((1-e)mu) (z^(1-e) - nu) + nu^(1/(1-e))/mu^2 (z - mu)",
            "same under b = 1 - e",
            "matches the unified formula under the exponent reparameterization",
            _v_atkinson_appendix,
        ),
    ),
    "champernowne": (
        PrintedVariant(
            "champernowne", "section2_printed", True,
            "(exp(E log X)/mu)((z - mu)/mu - (log z - E log X))",
            "same",
            "matches the unified formula",
            _v_champernowne_s2,
        ),
    ),
    "kolm": (
        PrintedVariant(
            "kolm", "section2_printed", False,
            "(1/a)((z - mu) - (exp(-a mu)/E exp(-a X) - 1))",
            "(z - mu) + (exp(-a z) - E exp(-a X))/(a E exp(-a X))",
            "undefined symbol read as the family parameter; the printed "
            "second term has no z dependence",
            _v_kolm_s2,
        ),
    ),
    "gini": (
        PrintedVariant(
            "gini", "appendix_printed", False,
            "2[R - C(F, F(z)) + (z/mu)(R - (1 - F(z)))]",
            "2[R - C(F, F(z))/mu + (z/mu)(R - (1 - F(z)))]",
            "cumulative functional not normalized by the mean; breaks scale "
            "invariance and coincides with the normative form only at mu = 1",
            _v_gini_appendix,
        ),
    ),
    "qsr": (
        PrintedVariant(
            "qsr", "appendix_printed", True,
            "I1 1_A1 + I2 1_A2 + I3 1_A3 (unbalanced brackets in the pieces)",
            "each piece a single fraction over D^2; A3 upper endpoint read "
            "as uep(F)",
            "bracket-normalized reading matches the oracle",
            lambda F, z, tol, spec: if_special("qsr", F, z, tol),
        ),
    ),
}


def printed_variants(measure_id) -> tuple:
    """Archived published displays for a measure id or MeasureFunctional,
    normative form alongside."""
    T = parse_measure_id(measure_id)
    family = T.spec.family if T.spec else T.kind
    return _VARIANTS.get(family, ())
