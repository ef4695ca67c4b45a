"""Deterministic numerical primitives.

Adaptive Gauss-Kronrod quadrature on finite and semi-infinite intervals
and one-sided derivative-at-zero extrapolation. Everything here is a pure
function of its inputs. `bisect_nondecreasing` is kept only as a name the
benchmark's tracer patches; no library code calls it.

`Tolerance` is `integrate`'s argument alone: every layer above it
integrates at `DEFAULT_TOL`, so a moment is one number per integrand.

Quadrature cost is mostly a fixed price per integrand call, not per node,
so `integrate` makes one call per panel split: it evaluates both halves of
the split panel on 30 nodes at once.
"""
from __future__ import annotations

import heapq
import math
import sys
from dataclasses import dataclass
from typing import Callable, Sequence

import numpy as np

from .errors import InvalidInterval, InvalidParameter, NoisyLimit, NonConvergence

__all__ = [
    "Tolerance",
    "DEFAULT_TOL",
    "integrate",
    "DerivativeEstimate",
    "DEFAULT_DERIVATIVE_STEPS",
    "derivative_at_zero_plus",
]


@dataclass(frozen=True)
class Tolerance:
    """Error targets for adaptive quadrature.

    Convergence is declared once the summed panel error drops below
    max(abs_tol, rel_tol * |integral|).
    """

    abs_tol: float = 1e-10
    rel_tol: float = 1e-9
    max_subdivisions: int = 2000

    def __post_init__(self):
        if not 0 < self.abs_tol < math.inf:
            raise InvalidParameter(f"abs_tol must be finite and > 0, got {self.abs_tol}")
        if not 0 < self.rel_tol < math.inf:
            raise InvalidParameter(f"rel_tol must be finite and > 0, got {self.rel_tol}")
        if self.max_subdivisions < 1:
            raise InvalidParameter(
                f"max_subdivisions must be >= 1, got {self.max_subdivisions}"
            )


DEFAULT_TOL = Tolerance()

# 15-point Kronrod rule with embedded 7-point Gauss rule (QUADPACK dqk15).
_XGK = np.array([
    0.991455371120813, 0.949107912342759, 0.864864423359769,
    0.741531185599394, 0.586087235467691, 0.405845151377397,
    0.207784955007898, 0.0,
])
_WGK = np.array([
    0.022935322010529, 0.063092092629979, 0.104790010322250,
    0.140653259715525, 0.169004726639267, 0.190350578064785,
    0.204432940075298, 0.209482141084728,
])
_WG = np.array([
    0.129484966168870, 0.279705391489277, 0.381830050505119,
    0.417959183673469,
])

# Full 15-node layout: negative nodes, centre, positive nodes.
_NODES = np.concatenate([-_XGK[:-1], _XGK[::-1]])
# Both rules as a stack of (15, 1) columns in that layout: the Kronrod
# weights, and the Gauss weights (the odd-indexed nodes) padded with zeros.
# A batched matmul of (1, 15) rows with these columns reduces each row
# exactly as a 1-D dot does, so a panel's sums do not depend on which other
# panel shares its integrand call.
_RULES = np.zeros((2, 15, 1))
_RULES[0, :, 0] = np.concatenate([_WGK[:-1], _WGK[::-1]])
_RULES[1, 1::2, 0] = np.concatenate([_WG[:-1], _WG[::-1]])
_KRONROD = _RULES[0]

_EPS = sys.float_info.epsilon


def _make_evaluator(g: Callable[[float], float]):
    """Wrap g so it maps a node array to a float array.

    Tries a single vectorised call first and falls back to a scalar loop for
    callables that cannot handle numpy arrays.
    """
    state = {"vectorized": None}

    def evaluate(xs: np.ndarray) -> np.ndarray:
        if state["vectorized"] is not False:
            try:
                out = np.asarray(g(xs), dtype=float)
                if out.shape == xs.shape:
                    state["vectorized"] = True
                    return out
            except (TypeError, AttributeError):
                pass
            state["vectorized"] = False
        return np.array([float(g(x)) for x in xs], dtype=float)

    return evaluate


def _gk15(evaluate, edges: Sequence[float]) -> list:
    """Gauss-Kronrod panels between consecutive edges, all from one
    integrand call: returns [(integral, error_estimate), ...] as floats.

    Must run under np.errstate(all="ignore"): non-finite values are the
    caller's to report.
    """
    panels = list(zip(edges[:-1], edges[1:]))
    n = len(panels)
    halves = [0.5 * (b - a) for a, b in panels]
    fx = evaluate(np.concatenate(
        [0.5 * (a + b) + h * _NODES for (a, b), h in zip(panels, halves)]
    )).reshape(n, 1, 15)
    sums = (fx[:, None] @ _RULES).ravel().tolist()  # Kronrod, Gauss per panel
    resk = [h * s for h, s in zip(halves, sums[::2])]
    resg = [h * s for h, s in zip(halves, sums[1::2])]
    means = np.array([rk / (b - a) for rk, (a, b) in zip(resk, panels)])
    # Weighted |f - mean| of each panel (resasc), then weighted |f| (resabs).
    spread = (np.abs(np.concatenate((fx - means[:, None, None], fx)))
              @ _KRONROD).ravel().tolist()
    out = []
    for h, rk, rg, sasc, sabs in zip(halves, resk, resg, spread[:n], spread[n:]):
        err = abs(rk - rg)
        # QUADPACK-style rescaling guards against underestimating the error
        # on panels containing integrable singularities.
        resasc = h * sasc
        if resasc != 0.0 and err != 0.0:
            err = resasc * min(1.0, (200.0 * err / resasc) ** 1.5)
        out.append((rk, max(err, 50.0 * _EPS * (h * sabs))))
    return out


def integrate(
    g: Callable[[float], float],
    a: float,
    b: float,
    tol: Tolerance = DEFAULT_TOL,
) -> float:
    """Integrate g over (a, b), with b possibly +inf.

    Semi-infinite intervals are mapped onto [0, 1) through the substitution
    x = a + t/(1-t) before adaptive subdivision; nodes never touch t=1.
    Each step splits the panel with the largest error estimate in two, and
    one integrand call on 30 nodes evaluates both halves.

    Raises NonConvergence (carrying the best estimate and its error bound)
    when the subdivision budget is exhausted, and InvalidInterval if a >= b.
    """
    if math.isnan(a) or math.isnan(b) or math.isinf(a):
        raise InvalidInterval(f"invalid interval ({a}, {b})")
    if not a < b:
        raise InvalidInterval(f"need a < b, got ({a}, {b})")

    if math.isinf(b):
        base = _make_evaluator(g)

        def transformed(ts: np.ndarray) -> np.ndarray:
            w = 1.0 - ts
            return base(a + ts / w) / (w * w)

        evaluate, lo, hi = transformed, 0.0, 1.0
    else:
        evaluate, lo, hi = _make_evaluator(g), float(a), float(b)

    with np.errstate(all="ignore"):
        return _adapt(evaluate, lo, hi, tol)


def _adapt(evaluate, lo: float, hi: float, tol: Tolerance) -> float:
    """Worst-panel-first bisection of [lo, hi] (QUADPACK's QAG scheme)."""
    [(value, err)] = _gk15(evaluate, (lo, hi))
    if not math.isfinite(value):
        raise NonConvergence("non-finite integrand values", value, math.inf)

    heap = [(-err, 0, lo, hi, value, err)]
    counter = 1
    total_value, total_err = value, err
    splits = 0

    while total_err > max(tol.abs_tol, tol.rel_tol * abs(total_value)):
        if splits >= tol.max_subdivisions:
            raise NonConvergence(
                f"subdivision budget {tol.max_subdivisions} exhausted "
                f"(estimate {total_value!r}, error bound {total_err!r})",
                total_value,
                total_err,
            )
        _, _, pa, pb, pval, perr = heapq.heappop(heap)
        mid = 0.5 * (pa + pb)
        if not (pa < mid < pb):
            raise NonConvergence(
                "interval too small to subdivide further "
                f"(estimate {total_value!r}, error bound {total_err!r})",
                total_value,
                total_err,
            )
        (v1, e1), (v2, e2) = _gk15(evaluate, (pa, mid, pb))
        if not (math.isfinite(v1) and math.isfinite(v2)):
            raise NonConvergence("non-finite integrand values", total_value, math.inf)
        total_value += (v1 + v2) - pval
        total_err += (e1 + e2) - perr
        heapq.heappush(heap, (-e1, counter, pa, mid, v1, e1))
        heapq.heappush(heap, (-e2, counter + 1, mid, pb, v2, e2))
        counter += 2
        splits += 1

    return total_value


@dataclass(frozen=True)
class DerivativeEstimate:
    """A one-sided derivative with an error estimate: the last Richardson
    correction, or the complex step's truncation term (`gateaux_if`)."""

    value: float
    error: float


DEFAULT_DERIVATIVE_STEPS = (1e-2, 1e-3, 1e-4, 1e-5)


def derivative_at_zero_plus(
    phi: Callable[[float], float],
    steps: Sequence[float] = DEFAULT_DERIVATIVE_STEPS,
) -> DerivativeEstimate:
    """Estimate lim_{e->0+} phi(e)/e by Richardson extrapolation.

    phi must satisfy phi(e) = c*e + O(e^2) near zero. The difference
    quotients phi(e)/e are extrapolated to e=0 with a Neville tableau of
    depth 2; on an exactly linear phi the slope comes back to machine
    accuracy.

    Raises NoisyLimit when successive extrapolants diverge, which signals a
    non-differentiable point (e.g. a quantile kink).
    """
    eps = [float(e) for e in steps]
    if len(eps) < 3:
        raise InvalidParameter("need at least 3 extrapolation steps")
    if any(e <= 0 for e in eps) or any(
        eps[i] <= eps[i + 1] for i in range(len(eps) - 1)
    ):
        raise InvalidParameter("steps must be positive and strictly decreasing")

    quotients = [phi(e) / e for e in eps]
    n = len(quotients)
    depth = 2  # at least 3 steps, so every row of the tableau exists

    # tableau[j][i] extrapolates jth order using points i-j .. i
    tableau = [list(quotients)]
    for j in range(1, depth + 1):
        prev = tableau[j - 1]
        row = [math.nan] * n
        for i in range(j, n):
            ratio = eps[i - j] / eps[i]
            row[i] = prev[i] + (prev[i] - prev[i - 1]) / (ratio - 1.0)
        tableau.append(row)

    # Best-available estimate after k+1 points.
    diagonal = [tableau[min(k, depth)][k] for k in range(n)]
    value = diagonal[-1]
    if not all(math.isfinite(d) for d in diagonal):
        raise NoisyLimit("non-finite difference quotients", diagonal)

    # Divergence must clear a noise floor: difference quotients carry
    # rounding of order eps_machine/eps even for smooth functionals.
    scale = max(1.0, max(abs(q) for q in quotients))
    floor = 1e-8 * scale
    deltas = [abs(diagonal[k] - diagonal[k - 1]) for k in range(1, n)]
    for k in range(1, len(deltas)):
        if deltas[k] > floor and deltas[k] > 10.0 * max(deltas[k - 1], floor):
            raise NoisyLimit(
                "successive extrapolants diverge (non-differentiable point?)",
                diagonal,
            )

    error = max(deltas[-1],
                abs(tableau[depth][n - 1] - tableau[depth - 1][n - 1]))
    return DerivativeEstimate(value=value, error=error)


# Outside __all__: no library code calls it; bench/tracing.py patches it.
def bisect_nondecreasing(
    f: Callable[[float], float],
    target: float,
    lo: float,
    hi: float,
    xtol: float = 1e-12,
    max_iter: int = 200,
) -> float:
    """Smallest x in [lo, hi] with f(x) >= target, for non-decreasing f.

    Requires f(hi) >= target on entry; converges onto jump locations as well
    as crossings, which makes it suitable for inverting mixture cdfs.
    """
    if f(hi) < target:
        raise InvalidParameter("bracket does not contain the target level")
    if f(lo) >= target:
        return lo
    for _ in range(max_iter):
        if hi - lo <= xtol:
            break
        mid = 0.5 * (lo + hi)
        if not (lo < mid < hi):
            break
        if f(mid) >= target:
            hi = mid
        else:
            lo = mid
    return hi
