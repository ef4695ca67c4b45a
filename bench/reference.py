"""Reference values for the benchmark's ops, computed without ineqif.

Every quantity comes from a closed form or from `mpmath.quad` at 30
significant digits. Influence functions are derivatives of the measure
along the contamination path (1-eps)F + eps*Dirac(z), taken by the chain
rule with high-precision partial derivatives (`mpmath.diff`), so the
published influence-function formulas the program implements are never
reused here. `selftest.py` checks this module against textbook values.

Run as a script to rebuild the cached references and inputs of one
workload and seed from scratch:

    python3 bench/reference.py --workload model --seed 1
"""
from __future__ import annotations

import argparse
import functools
import hashlib
import json
import math
import multiprocessing
import os
import sys
from pathlib import Path

import mpmath as mp

mp.mp.dps = 30

import oplists

# Probability levels that split every quadrature, so each piece is smooth
# and the mass is resolved at any income scale.
_SPLIT_LEVELS = ("0.01", "0.5", "0.99", "0.999999")


def _mpf_params(spec: str):
    kind, _, rest = spec.partition(":")
    # The program parses each parameter with float(); use the same binary value.
    return kind, [mp.mpf(float(tok)) for tok in rest.split(",")]


# Pieces of the tail integral in u = log(x / x0). The integrands left here
# decay at least like exp(-0.2 u), so nothing beyond u = 1e4 remains.
_TAIL_U = [0, 4, 64, 10 ** 4]


def _expneg(a, x):
    """exp(-a x), read as 0 beyond a x = 1e8, far below any moment here
    (incomes stay under 1e7), so tail nodes at astronomic x stay cheap."""
    return mp.exp(-a * x) if a * x < 1e8 else mp.mpf(0)


class Model:
    """One parametric income model, evaluated in 30-digit arithmetic."""

    def __init__(self, spec: str):
        self.spec = spec
        self.kind, p = _mpf_params(spec)
        if self.kind == "exp":
            (self.rate,) = p
            self.lep, self.uep, self.tail_index = mp.mpf(0), mp.inf, mp.inf
        elif self.kind == "pareto":
            self.alpha, self.k = p
            self.lep, self.uep, self.tail_index = self.k, mp.inf, self.alpha
        elif self.kind == "lognormal":
            self.m, self.s = p
            self.lep, self.uep, self.tail_index = mp.mpf(0), mp.inf, mp.inf
        elif self.kind == "sm":
            self.a, self.b, self.q = p
            self.lep, self.uep, self.tail_index = mp.mpf(0), mp.inf, self.a * self.q
        elif self.kind == "uniform":
            self.lo, self.hi = p
            self.lep, self.uep, self.tail_index = self.lo, self.hi, mp.inf
        else:
            raise ValueError(f"unknown kind in {spec!r}")
        self._moments = {}

    # -- distribution ---------------------------------------------------------

    def pdf(self, x):
        k = self.kind
        if x < self.lep or x > self.uep:
            return mp.mpf(0)
        # Beyond e^-1e5 an exponential tail adds nothing at 30 digits;
        # reading it as 0 keeps nodes at astronomic x cheap.
        if k == "exp":
            return self.rate * mp.exp(-self.rate * x) if self.rate * x < 1e5 else mp.mpf(0)
        if k == "pareto":
            return self.alpha * self.k ** self.alpha / x ** (self.alpha + 1)
        if k == "lognormal":
            if x == 0:
                return mp.mpf(0)
            u = (mp.log(x) - self.m) / self.s
            if abs(u) > 450:
                return mp.mpf(0)
            return mp.exp(-u * u / 2) / (x * self.s * mp.sqrt(2 * mp.pi))
        if k == "sm":
            if x == 0:
                return mp.mpf(0)
            w = (x / self.b) ** self.a
            return (self.a * self.q / self.b) * (x / self.b) ** (self.a - 1) \
                * (1 + w) ** (-self.q - 1)
        return 1 / (self.hi - self.lo)

    def cdf(self, x):
        k = self.kind
        if x <= self.lep:
            return mp.mpf(0)
        if x >= self.uep:
            return mp.mpf(1)
        if k == "exp":
            return -mp.expm1(-self.rate * x)
        if k == "pareto":
            return 1 - (self.k / x) ** self.alpha
        if k == "lognormal":
            return mp.ncdf((mp.log(x) - self.m) / self.s)
        if k == "sm":
            return 1 - (1 + (x / self.b) ** self.a) ** (-self.q)
        return (x - self.lo) / (self.hi - self.lo)

    def quantile(self, p):
        p = mp.mpf(p)
        k = self.kind
        if k == "exp":
            return -mp.log1p(-p) / self.rate
        if k == "pareto":
            return self.k * (1 - p) ** (-1 / self.alpha)
        if k == "lognormal":
            return mp.exp(self.m + self.s * mp.sqrt(2) * mp.erfinv(2 * p - 1))
        if k == "sm":
            return self.b * ((1 - p) ** (-1 / self.q) - 1) ** (1 / self.a)
        return self.lo + p * (self.hi - self.lo)

    def mean(self):
        k = self.kind
        if k == "exp":
            return 1 / self.rate
        if k == "pareto":
            return self.alpha * self.k / (self.alpha - 1)
        if k == "lognormal":
            return mp.exp(self.m + self.s ** 2 / 2)
        if k == "sm":
            return self.b * mp.gamma(1 + 1 / self.a) * mp.gamma(self.q - 1 / self.a) \
                / mp.gamma(self.q)
        return (self.lo + self.hi) / 2

    def partial_mean(self, t):
        """E[X 1{X <= t}]."""
        k = self.kind
        if t <= self.lep:
            return mp.mpf(0)
        if t >= self.uep:
            return self.mean()
        if k == "exp":
            lt = self.rate * t
            return (1 - mp.exp(-lt) * (1 + lt)) / self.rate
        if k == "pareto":
            return self.mean() * (1 - (t / self.k) ** (1 - self.alpha))
        if k == "lognormal":
            return self.mean() * mp.ncdf((mp.log(t) - self.m - self.s ** 2) / self.s)
        if k == "sm":
            w = (t / self.b) ** self.a
            return self.mean() * mp.betainc(1 + 1 / self.a, self.q - 1 / self.a,
                                            0, w / (1 + w), regularized=True)
        return (t * t - self.lo ** 2) / (2 * (self.hi - self.lo))

    def breakpoints(self, extra=()):
        pts = {self.lep}
        pts.update(self.quantile(lv) for lv in _SPLIT_LEVELS)
        pts.update(extra)
        pts = sorted(pt for pt in pts if self.lep <= pt < self.uep)
        return pts + [self.uep]

    def decay_points(self, a):
        """Breakpoints on the length scale 1/a of an exp(-a x) weight."""
        return [self.lep + mp.mpf(c) / a for c in (1, 16, 256)]

    def _quad(self, g, extra, scale):
        pts = self.breakpoints(extra)
        f = lambda x: g(x) * self.pdf(x) / scale
        if not mp.isinf(self.uep):
            val, err = mp.quad(f, pts, error=True)
            return val * scale, err * scale
        val, err = mp.quad(f, pts[:-1], error=True)
        # x = x0 e^u turns a power-law tail into an exponential one
        x0 = pts[-2]
        tail, terr = mp.quad(lambda u: f(x0 * mp.exp(u)) * x0 * mp.exp(u),
                             _TAIL_U, error=True)
        return (val + tail) * scale, (err + terr) * scale

    def quad(self, g, extra=()):
        """E[g(X)] by mpmath.quad over quantile-split pieces."""
        val, err = self._quad(g, extra, 1)
        if 0 < abs(val) < 1e-5:
            # mpmath.quad stops on an absolute error target: integrate again
            # with the integrand scaled to order one.
            val, err = self._quad(g, extra, abs(val))
        if not mp.isfinite(val) or err > max(mp.mpf(10) ** -10 * abs(val), 1e-25):
            raise ArithmeticError(
                f"reference quadrature on {self.spec} did not converge "
                f"(value {val}, error {err})")
        return val

    # -- moments E h(X) -------------------------------------------------------

    def moment(self, key):
        """E h(X) for key ('pow', a) | 'xlogx' | 'log' | ('expneg', a)."""
        if key not in self._moments:
            self._moments[key] = self._moment(key)
        return self._moments[key]

    def _moment(self, key):
        k = self.kind
        name = key[0] if isinstance(key, tuple) else key
        a = key[1] if isinstance(key, tuple) else None
        mu = self.mean()
        if name == "pow":
            if k == "exp":
                return mp.gamma(1 + a) / self.rate ** a
            if k == "pareto":
                return self.alpha * self.k ** a / (self.alpha - a)
            if k == "lognormal":
                return mp.exp(a * self.m + a * a * self.s ** 2 / 2)
            if k == "uniform":
                return (self.hi ** (a + 1) - self.lo ** (a + 1)) \
                    / ((a + 1) * (self.hi - self.lo))
            return self._sm_power_moment(a)
        if name == "log":
            if k == "exp":
                return -mp.euler - mp.log(self.rate)
            if k == "pareto":
                return mp.log(self.k) + 1 / self.alpha
            if k == "lognormal":
                return self.m
            if k == "uniform":
                f = lambda x: x * mp.log(x) - x if x > 0 else mp.mpf(0)
                return (f(self.hi) - f(self.lo)) / (self.hi - self.lo)
            return mp.diff(self._sm_power_moment, 0)
        if name == "xlogx":
            if k == "exp":
                return (1 - mp.euler - mp.log(self.rate)) / self.rate
            if k == "pareto":
                return mu * (mp.log(self.k) + 1 / (self.alpha - 1))
            if k == "lognormal":
                return mu * (self.m + self.s ** 2)
            if k == "uniform":
                f = lambda x: x * x * mp.log(x) / 2 - x * x / 4 if x > 0 else mp.mpf(0)
                return (f(self.hi) - f(self.lo)) / (self.hi - self.lo)
            return mp.diff(self._sm_power_moment, 1)
        if name == "expneg":
            if k == "exp":
                return self.rate / (self.rate + a)
            if k == "uniform":
                return (mp.exp(-a * self.lo) - mp.exp(-a * self.hi)) \
                    / (a * (self.hi - self.lo))
            return self.quad(lambda x: _expneg(a, x), self.decay_points(a))
        raise ValueError(f"unknown moment {key!r}")

    def _sm_power_moment(self, c):
        """E X^c = b^c Gamma(1 + c/a) Gamma(q - c/a) / Gamma(q); its
        derivatives in c give E log X (c = 0) and E X log X (c = 1)."""
        return self.b ** c * mp.gamma(1 + c / self.a) * mp.gamma(self.q - c / self.a) \
            / mp.gamma(self.q)

    def gini(self):
        k = self.kind
        if k == "exp":
            return mp.mpf(1) / 2
        if k == "pareto":
            return 1 / (2 * self.alpha - 1)
        if k == "lognormal":
            return 2 * mp.ncdf(self.s / mp.sqrt(2)) - 1
        if k == "uniform":
            return (self.hi - self.lo) / (3 * (self.hi + self.lo))
        a, q = self.a, self.q
        return 1 - mp.gamma(q) * mp.gamma(2 * q - 1 / a) \
            / (mp.gamma(q - 1 / a) * mp.gamma(2 * q))

    def gini_by_quad(self):
        """2 E[X F(X)] / mu - 1 by quadrature; selftest.py checks the closed
        forms of `gini` against it."""
        return 2 * self.quad(lambda x: x * self.cdf(x)) / self.mean() - 1


# ---------------------------------------------------------------------------
# Measures and their influence functions
# ---------------------------------------------------------------------------


_REL_STEP = mp.mpf(10) ** -12


class Quadruple:
    """T(F) = tau(E h(X) / h1(mu) - h2(mu)) for one family member."""

    def __init__(self, mid: str):
        name, _, raw = mid.partition(":")
        a = mp.mpf(float(raw)) if raw else None
        self.growth = mp.mpf(1)  # IF(z) grows like z**growth
        if name == "ge":
            self.key, self.h = ("pow", a), (lambda x: x ** a)
            self.tau = lambda s: (s - 1) / (a * (a - 1))
            self.h1, self.h2 = (lambda m: m ** a), (lambda m: 0)
            self.growth = max(a, mp.mpf(1))
        elif name == "theil":
            self.key, self.h = "xlogx", (lambda x: x * mp.log(x) if x > 0 else mp.mpf(0))
            self.tau, self.h1, self.h2 = (lambda s: s), (lambda m: m), mp.log
            # z log z outgrows z: the variance needs strictly more than two moments
            self.growth = mp.mpf(1) + mp.mpf(10) ** -20
        elif name == "mld":
            self.key, self.h = "log", (lambda x: -mp.log(x))
            self.tau, self.h1, self.h2 = (lambda s: s), (lambda m: 1), (lambda m: -mp.log(m))
        elif name == "atkinson":
            self.key, self.h = ("pow", a), (lambda x: x ** a)
            self.tau = lambda s: 1 - s ** (1 / a)
            self.h1, self.h2 = (lambda m: m ** a), (lambda m: 0)
        elif name == "champernowne":
            self.key, self.h = "log", mp.log
            self.tau, self.h1, self.h2 = (lambda s: 1 - mp.exp(s)), (lambda m: 1), mp.log
        elif name == "kolm":
            self.key, self.h = ("expneg", a), (lambda x: _expneg(a, x))
            self.tau = lambda s: mp.log(s) / a
            self.h1, self.h2 = (lambda m: mp.exp(-a * m)), (lambda m: 0)
        else:
            raise ValueError(f"unknown measure {mid!r}")
        self.sign = -1 if name == "mld" else 1  # moment() stores E log X

    def moment(self, F):
        return self.sign * F.moment(self.key)

    def functional(self, eh, mu):
        return self.tau(eh / self.h1(mu) - self.h2(mu))

    def value(self, F):
        return self.functional(self.moment(F), F.mean())

    def influence(self, F):
        """z -> d/deps T((1-eps)F + eps Dirac(z)) at eps = 0.

        E h and mu move linearly along the path, so the chain rule gives
        dT = T_E (h(z) - E h) + T_mu (z - mu).
        """
        eh, mu = self.moment(F), F.mean()
        # steps relative to the point, so E h near zero keeps its sign
        t_e = mp.diff(lambda e: self.functional(e, mu), eh, h=abs(eh) * _REL_STEP)
        t_mu = mp.diff(lambda m: self.functional(eh, m), mu, h=mu * _REL_STEP)
        return lambda z: t_e * (self.h(z) - eh) + t_mu * (z - mu)

    def influence_by_path(self, F, z):
        """The same derivative taken along the mixture path itself."""
        eh, mu = self.moment(F), F.mean()
        hz = self.h(z)
        return mp.diff(lambda e: self.functional((1 - e) * eh + e * hz,
                                                 (1 - e) * mu + e * z), 0)


class Gini:
    growth = mp.mpf(1)

    def value(self, F):
        return F.gini()

    def influence(self, F):
        """G = 2S/mu - 1 with S = E[X Fmid(X)]; along the mixture path
        S_eps = (1-eps)^2 S + eps(1-eps)(mu - C(z) + z F(z)) + eps^2 z/2."""
        mu, g = F.mean(), F.gini()
        s = mu * (1 + g) / 2

        def influence(z):
            ds = -2 * s + mu - F.partial_mean(z) + z * F.cdf(z)
            return 2 * ds / mu - 2 * s * (z - mu) / mu ** 2

        return influence

    def influence_by_path(self, F, z):
        mu, g = F.mean(), F.gini()
        s = mu * (1 + g) / 2
        cross = mu - F.partial_mean(z) + z * F.cdf(z)

        def path(e):
            s_e = (1 - e) ** 2 * s + e * (1 - e) * cross + e * e * z / 2
            return 2 * s_e / ((1 - e) * mu + e * z) - 1

        return mp.diff(path, 0)


class QSR:
    growth = mp.mpf(1)

    @staticmethod
    def parts(F):
        q1, q4 = F.quantile("0.2"), F.quantile("0.8")
        d = F.partial_mean(q1)
        n = F.mean() - F.partial_mean(q4)
        return n, d, q1, q4

    def value(self, F):
        n, d, _, _ = self.parts(F)
        return n / d

    def influence(self, F):
        """Ratio rule on N = mu - C(Q(0.8)) and D = C(Q(0.2)), where the
        partial mean C(Q(p)) has influence z 1{z<=q} - C + q (p - 1{z<=q})."""
        n, d, q1, q4 = self.parts(F)
        mu = F.mean()
        c1, c4 = d, mu - n
        p1, p4 = mp.mpf("0.2"), mp.mpf("0.8")

        def ic(z, q, p, c):
            below = 1 if z <= q else 0
            return z * below - c + q * (p - below)

        def influence(z):
            i_n = (z - mu) - ic(z, q4, p4, c4)
            i_d = ic(z, q1, p1, c1)
            return i_n / d - n * i_d / d ** 2

        return influence

    def influence_by_path(self, F, z):
        mu = F.mean()

        def qmix(p, e):
            # quantile of (1-e)F + e Dirac(z), for z off the quantile
            lo = F.quantile(p / (1 - e))
            if lo < z:
                return lo
            return F.quantile((p - e) / (1 - e))

        def cmix(p, e):
            q = qmix(p, e)
            return (1 - e) * F.partial_mean(q) + (e * z if z <= q else 0)

        def path(e):
            d = cmix(mp.mpf("0.2"), e)
            n = (1 - e) * mu + e * z - cmix(mp.mpf("0.8"), e)
            return n / d

        return mp.diff(path, 0)


def measure(mid: str):
    if mid == "gini":
        return Gini()
    if mid == "qsr":
        return QSR()
    return Quadruple(mid)


def variance_is_finite(mid: str, F: Model) -> bool:
    """E IF(X)^2 < inf iff X has more than 2*growth moments."""
    return 2 * measure(mid).growth < F.tail_index


def asymptotic_variance(mid: str, F: Model):
    """integral of IF(x)^2 dF(x); inf when the integral diverges."""
    if not variance_is_finite(mid, F):
        return mp.inf
    T = measure(mid)
    inf_fn = T.influence(F)
    extra = ()
    if mid == "qsr":
        extra = QSR.parts(F)[2:]
    elif mid.startswith("kolm:"):
        extra = F.decay_points(mp.mpf(float(mid.partition(":")[2])))
    return F.quad(lambda x: inf_fn(x) ** 2, extra)


def default_grid(F: Model, mid: str, count: int = 20):
    """The documented default z grid of `if_curve`: log-spaced from Q(0.01)
    to Q(0.99), or, for the QSR, quantiles at levels clear of the quintile
    boundaries."""
    if mid == "qsr":
        n_outer = count // 4
        n_mid = count - 2 * n_outer
        levels = (_linspace(0.03, 0.15, n_outer) + _linspace(0.25, 0.75, n_mid)
                  + _linspace(0.85, 0.97, n_outer))
        return [F.quantile(mp.mpf(lv)) for lv in levels]
    lo, hi = F.quantile("0.01"), F.quantile("0.99")
    lo = max(lo, hi * mp.mpf("1e-9"))
    ratio = (hi / lo) ** (mp.mpf(1) / (count - 1))
    return [lo * ratio ** i for i in range(count)]


def _linspace(a, b, n):
    return [a + (b - a) * i / (n - 1) for i in range(n)]


# ---------------------------------------------------------------------------
# Per-op references
# ---------------------------------------------------------------------------


def _f(x) -> float:
    return float(x) if mp.isfinite(x) else math.inf


# Two-sided chi-square band for the Monte Carlo variance ratio, widened by
# the finite-n excess of n Var(T_n) over the asymptotic variance.
MC_ALPHA = 1e-9
MC_FINITE_N_SLACK = 1.25


def reference_for(op: dict, data_dir: Path) -> dict:
    kind = op["op"]
    if kind == "curve":
        F = Model(op["dist"])
        T = measure(op["id"])
        grid = default_grid(F, op["id"])
        inf_fn = T.influence(F)
        return {"grid": [_f(z) for z in grid], "if": [_f(inf_fn(z)) for z in grid]}
    if kind == "measure":
        return {"value": _f(measure(op["id"]).value(Model(op["dist"])))}
    if kind == "variance":
        return {"value": _f(asymptotic_variance(op["id"], Model(op["dist"])))}
    if kind == "mc":
        from scipy.stats import chi2
        F = Model(op["dist"])
        reps = op["reps"]
        lo = chi2.ppf(MC_ALPHA / 2, reps - 1) / (reps - 1)
        hi = chi2.isf(MC_ALPHA / 2, reps - 1) / (reps - 1)
        return {"if_variance": _f(asymptotic_variance(op["id"], F)),
                "ratio_band": [lo / MC_FINITE_N_SLACK, hi * MC_FINITE_N_SLACK]}
    if kind == "ingest":
        return ingest_reference(data_dir / op["file"])
    if kind == "plugin":
        return {"value": plugin_reference(op["id"], _loaded(data_dir / op["file"]))}
    raise ValueError(f"unknown op {kind!r}")


@functools.lru_cache(maxsize=1)
def _loaded(path: Path):
    """The sorted incomes of one input file, read without ineqif."""
    import numpy as np

    return np.sort(np.loadtxt(path, skiprows=1, ndmin=1))


def ingest_reference(path: Path) -> dict:
    xs = _loaded(path)
    return {"n": int(xs.size), "sha256": hashlib.sha256(xs.tobytes()).hexdigest()}


def plugin_reference(mid: str, xs) -> float:
    """Plug-in value on the sorted sample xs in float64 with math.fsum."""
    import numpy as np

    n = xs.size
    mu = math.fsum(xs) / n
    mean = lambda v: math.fsum(v) / n
    name, _, raw = mid.partition(":")
    a = float(raw) if raw else None
    if name == "ge":
        return (mean(xs ** a) / mu ** a - 1.0) / (a * (a - 1.0))
    if name == "theil":
        r = xs / mu
        return mean(r * np.log(r, where=r > 0, out=np.zeros_like(r)))
    if name == "mld":
        return -mean(np.log(xs / mu))
    if name == "atkinson":
        return 1.0 - (mean((xs / mu) ** a)) ** (1.0 / a)
    if name == "champernowne":
        return 1.0 - math.exp(mean(np.log(xs / mu)))
    if name == "kolm":
        v = -a * (xs - mu)
        top = float(v.max())  # log-sum-exp: dollars would overflow exp()
        return (top + math.log(mean(np.exp(v - top)))) / a
    if name == "gini":
        # mid-cdf ranks: tied values share (i - 1/2)/n, which sums the same
        ranks = 2.0 * np.arange(1, n + 1) - 1.0
        return math.fsum(ranks * xs) / (n * n * mu) - 1.0
    if name == "qsr":
        q1 = xs[(n + 4) // 5 - 1]          # x_(ceil(0.2 n))
        q4 = xs[(4 * n + 4) // 5 - 1]      # x_(ceil(0.8 n))
        bottom = math.fsum(xs[xs <= q1]) / n
        top = math.fsum(xs[xs > q4]) / n
        return top / bottom
    raise ValueError(f"unknown measure {mid!r}")


# ---------------------------------------------------------------------------
# Cache
# ---------------------------------------------------------------------------


REFERENCE_WORKERS = 2


def build(workload: str, seed: int) -> Path:
    """Generate the op list, its input files and its references; cache them."""
    ref_path, data_dir = oplists.cache_paths(workload, seed)
    ops = oplists.generate(workload, seed)
    if workload == "sample":
        oplists.write_inputs(seed, data_dir)
    # Two worker processes: the references are independent and cost far
    # more than the run they check. Each worker computes in one thread.
    with multiprocessing.get_context("spawn").Pool(REFERENCE_WORKERS) as pool:
        refs = pool.starmap(reference_for, [(op, data_dir) for op in ops],
                            chunksize=4)
        pool.close()
        pool.join()
    ref_path.parent.mkdir(parents=True, exist_ok=True)
    tmp = ref_path.with_suffix(".tmp")
    tmp.write_text(json.dumps({"workload": workload, "seed": seed,
                               "ops": ops, "refs": refs}))
    os.replace(tmp, ref_path)
    return ref_path


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    args = ap.parse_args(argv)
    print(build(args.workload, args.seed))
    return 0


if __name__ == "__main__":
    sys.exit(main())
