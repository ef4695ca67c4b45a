"""Deterministic numerical primitives.

Adaptive Gauss-Kronrod quadrature on finite intervals and one-sided
derivative-at-zero extrapolation. Everything here is a pure function of
its inputs. `bisect_nondecreasing` is kept only as a name the
benchmark's tracer patches; no library code calls it. No library code
calls `derivative_at_zero_plus` either (the Gateaux oracle takes the
complex step), but it is public and the tracer patches it too.

Quadrature cost is mostly a fixed price per integrand call, not per node,
so `integrate` evaluates panels before its adaptive loop asks for them:
the first call covers the interval and its bisection tree three levels
down (15 panels, 225 nodes), and a split whose halves are not yet known
evaluates that panel's tree two levels down (6 panels, 90 nodes). Each
panel's sums do not depend on which panels share its call, so the loop
takes the same panels in the same order and returns the same float as
one call per panel would.
"""
from __future__ import annotations

import heapq
import math
import sys
from dataclasses import dataclass
from itertools import chain, repeat
from typing import Callable, Sequence

import numpy as np

from .errors import InvalidInterval, InvalidParameter, NoisyLimit, NonConvergence

__all__ = [
    "integrate",
    "DerivativeEstimate",
    "DEFAULT_DERIVATIVE_STEPS",
    "derivative_at_zero_plus",
]


# `integrate`'s one error target: converged once the summed panel error
# is below max(_ABS_TOL, _REL_TOL * |integral|), within _MAX_SUBDIVISIONS
# panel splits.
_ABS_TOL = 1e-10
_REL_TOL = 1e-9
_MAX_SUBDIVISIONS = 2000

# Levels of the bisection tree evaluated ahead of the loop: below the
# whole interval on the first integrand call, and below a split panel
# whose halves are not yet known.
_FIRST_DEPTH = 3
_MISS_DEPTH = 2

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
    """Wrap g so it maps a node array, of any shape, to a float array of
    that shape.

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
        return np.array([float(g(x)) for x in xs.ravel()],
                        dtype=float).reshape(xs.shape)

    return evaluate


def _gk15(evaluate, panels: Sequence[tuple]) -> dict:
    """Gauss-Kronrod sums of the panels (a, b), all from one integrand
    call: returns {(a, b): (integral, error_estimate)} as floats.

    Must run under np.errstate(all="ignore"): non-finite values are the
    caller's to report.
    """
    count = len(panels)
    ends = np.fromiter(chain.from_iterable(panels), float, 2 * count)
    a, b = ends[0::2, None], ends[1::2, None]  # (count, 1) columns
    width = b - a
    half = 0.5 * width
    fx = evaluate((0.5 * (a + b) + half * _NODES).ravel()).reshape(count, 1, 15)
    sums = (fx[:, None] @ _RULES).reshape(count, 2) * half  # Kronrod, Gauss
    # Weighted |f - mean| of each panel (resasc), then weighted |f| (resabs).
    spread = np.abs(np.concatenate((fx - (sums[:, :1] / width)[:, None], fx)))
    resasc, resabs = (spread @ _KRONROD).reshape(2, count) * half.T
    resk, resg = sums.T
    err = np.abs(resk - resg)
    # QUADPACK-style rescaling guards against underestimating the error
    # on panels containing integrable singularities. The power is the C
    # library's, through Python floats: numpy's vectorised power may round
    # differently. fmin and maximum pick as min(1.0, .) and max(err, .) do
    # on every panel whose integral is finite.
    power = np.fromiter(map(pow, (200.0 * err / resasc).tolist(), repeat(1.5)),
                        float, count)
    err = np.where((resasc != 0.0) & (err != 0.0),
                   resasc * np.fmin(power, 1.0), err)
    err = np.maximum(err, 50.0 * _EPS * resabs)
    return dict(zip(panels, zip(resk.tolist(), err.tolist())))


def _bisection_tree(a: float, b: float, depth: int) -> list:
    """(a, b) and its halves, their halves and so on, `depth` levels down,
    with the loop's midpoints; a panel whose midpoint does not fall
    strictly inside it has no halves."""
    tree = level = [(a, b)]
    for _ in range(depth):
        level = [half for pa, pb in level if pa < (mid := 0.5 * (pa + pb)) < pb
                 for half in ((pa, mid), (mid, pb))]
        tree = tree + level
    return tree


def integrate(g: Callable[[float], float], a: float, b: float) -> float:
    """Integrate g over the finite interval (a, b), to the module's one
    error target.

    Each step splits the panel with the largest error estimate in two.
    The halves are mostly known before the step asks for them: panels
    are evaluated a few bisection levels ahead, several per integrand
    call, so g may also be evaluated at nodes the adaptive loop never
    uses. Only the panels the loop takes count towards the result, its
    error bound and its errors.

    Raises NonConvergence (carrying the best estimate and its error bound)
    when the subdivision budget is exhausted, and InvalidInterval unless
    a < b are both finite.
    """
    if not (math.isfinite(a) and math.isfinite(b)):
        raise InvalidInterval(f"invalid interval ({a}, {b})")
    if not a < b:
        raise InvalidInterval(f"need a < b, got ({a}, {b})")
    with np.errstate(all="ignore"):
        return _adapt(_make_evaluator(g), float(a), float(b))


def _adapt(evaluate, lo: float, hi: float) -> float:
    """Worst-panel-first bisection of [lo, hi] (QUADPACK's QAG scheme),
    reading each panel from `known`, the panels evaluated ahead."""
    known = _gk15(evaluate, _bisection_tree(lo, hi, _FIRST_DEPTH))
    value, err = known.pop((lo, hi))
    if not math.isfinite(value):
        raise NonConvergence("non-finite integrand values", value, math.inf)

    heap = [(-err, 0, lo, hi, value, err)]
    counter = 1
    total_value, total_err = value, err
    splits = 0

    while total_err > max(_ABS_TOL, _REL_TOL * abs(total_value)):
        if splits >= _MAX_SUBDIVISIONS:
            raise NonConvergence(
                f"subdivision budget {_MAX_SUBDIVISIONS} exhausted "
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
        if (pa, mid) not in known:
            known.update(_gk15(evaluate, _bisection_tree(pa, pb, _MISS_DEPTH)[1:]))
        v1, e1 = known.pop((pa, mid))
        v2, e2 = known.pop((mid, pb))
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
    """A derivative with an error estimate: the complex step's truncation
    term (`gateaux_if`), or the last Richardson correction of
    `derivative_at_zero_plus`."""

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
