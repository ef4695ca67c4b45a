import math
import re
from fractions import Fraction

import numpy as np
import pytest

from ineqif import (
    Dirac,
    Empirical,
    contaminate,
    make_distribution,
    scaled,
    translated,
)
from ineqif import (
    DEFAULT_MEASURE_IDS,
    distributions,
    parse_measure_id,
    printed_variants,
)
from ineqif.cli import parse_distribution
from ineqif.distributions import Contaminated
from ineqif.errors import InvalidParameter

PARAMETRIC = [
    ("exp", (1.0,)),
    ("exp", (0.5,)),
    ("pareto", (3.0, 1.0)),
    ("pareto", (2.0, 1.0)),
    ("lognormal", (0.0, 0.5)),
    ("uniform", (0.0, 1.0)),
    ("uniform", (0.5, 2.5)),
    ("sm", (2.0, 1.0, 3.0)),
]


class TestConstruction:
    def test_unit_exponential_mean(self):
        assert make_distribution("exp", 1.0).mean() == pytest.approx(1.0)

    def test_pareto_mean_against_quadrature(self, density_expect):
        F = make_distribution("pareto", 2.0, 1.0)
        oracle = density_expect(F, lambda y: y)
        assert oracle == pytest.approx(2.0, rel=1e-8)
        assert F.mean() == pytest.approx(oracle, rel=1e-8)

    @pytest.mark.parametrize("kind,params", [
        ("exp", (0.0,)),
        ("exp", (-1.0,)),
        ("pareto", (1.0, 1.0)),      # infinite mean
        ("pareto", (2.0, 0.0)),
        ("lognormal", (0.0, 0.0)),
        ("sm", (2.0, 1.0, 0.4)),     # q <= 1/a
        ("uniform", (1.0, 1.0)),
        ("uniform", (-1.0, 1.0)),
        ("dirac", (0.0,)),
    ])
    def test_invalid_parameters(self, kind, params):
        with pytest.raises(InvalidParameter):
            make_distribution(kind, *params)

    def test_unknown_kind(self):
        with pytest.raises(InvalidParameter):
            make_distribution("cauchy", 1.0)


class TestContamination:
    def test_epsilon_zero_is_identity(self):
        F = make_distribution("exp", 1.0)
        C = contaminate(F, 0.0, 5.0)
        for u in (0.0, 0.3, 1.0, 2.5, 10.0):
            assert float(C.cdf(u)) == float(F.cdf(u))

    def test_mixture_mean(self):
        C = contaminate(make_distribution("exp", 1.0), 0.1, 5.0)
        assert C.mean() == pytest.approx(0.9 * 1.0 + 0.1 * 5.0, abs=1e-15)

    def test_atom_included_right_continuously(self):
        C = contaminate(make_distribution("uniform", 0.0, 1.0), 0.2, 0.5)
        assert float(C.cdf(0.5)) == pytest.approx(0.8 * 0.5 + 0.2, abs=1e-15)
        assert float(C.cdf(0.5 - 1e-12)) < 0.45

    def test_expectation_is_exact_mixture_rule(self):
        F = make_distribution("exp", 1.0)
        g = lambda x: np.sqrt(x) + 1.0
        for eps, z in ((0.1, 5.0), (0.01, 0.2), (0.5, 1.0)):
            C = contaminate(F, eps, z)
            assert C.expect(g) == (1 - eps) * F.expect(g) + eps * float(g(z))

    def test_invalid_contamination(self):
        F = make_distribution("exp", 1.0)
        with pytest.raises(InvalidParameter):
            contaminate(F, -0.1, 1.0)
        with pytest.raises(InvalidParameter):
            contaminate(F, 1.1, 1.0)
        with pytest.raises(InvalidParameter):
            contaminate(F, 0.1, -1.0)

    @pytest.mark.parametrize("eps", [-0.1, 1.1, math.nan, math.inf])
    def test_real_epsilon_errors_are_unchanged(self, eps):
        F = make_distribution("exp", 1.0)
        with pytest.raises(InvalidParameter,
                           match=re.escape(f"epsilon must be in [0, 1], got {eps}")):
            contaminate(F, eps, 1.0)

    def test_imaginary_epsilon_is_linear(self):
        # the complex-step oracle's path, a one-point grid: every mixture
        # quantity is (1 - eps) (base quantity) + eps (atom term)
        F = make_distribution("exp", 1.0)
        eps, z = 1e-3j, 5.0
        C = Contaminated(F, np.array([eps]), np.array([z]))
        g = lambda x: np.sqrt(x)
        for got, want in [
                (C.mean(), (1 - eps) * F.mean() + eps * z),
                (C.expect(g), (1 - eps) * F.expect(g) + eps * math.sqrt(z)),
                (C.mass(5.0), (1 - eps) * F.mass(5.0) + eps),
                (C.partial_mean(6.0),
                 (1 - eps) * F.partial_mean(6.0) + eps * z)]:
            assert got.shape == (1,)
            np.testing.assert_allclose(got, [want], rtol=1e-15, atol=0.0)
        assert C.descriptor() == (
            "contaminated(exp:1,eps=<1 imaginary steps>,z=<1 points>)")

    @pytest.mark.parametrize("eps", [0.5 + 1e-3j, complex(0.0, math.inf),
                                     complex(0.0, math.nan)])
    def test_complex_epsilon_must_be_imaginary_and_finite(self, eps):
        with pytest.raises(InvalidParameter, match="grid of points"):
            Contaminated(make_distribution("exp", 1.0), np.array([eps]),
                         np.array([1.0]))

    @pytest.mark.parametrize("eps", [1e-3j, 0.5 + 1e-3j, np.complex128(1e-3j)])
    def test_complex_scalar_epsilon_is_rejected(self, eps):
        # an imaginary step needs a grid of points, even of one point
        F = make_distribution("exp", 1.0)
        for build in (contaminate, Contaminated):
            with pytest.raises(InvalidParameter, match=r"epsilon must be in"):
                build(F, eps, 1.0)


class TestExpect:
    def test_exponential_identity(self):
        F = make_distribution("exp", 1.0)
        assert F.expect(lambda x: x) == pytest.approx(1.0, abs=1e-9)

    def test_lognormal_log_moment(self):
        # E log X = log-mean parameter; quadrature vs the analytic value
        F = make_distribution("lognormal", 0.0, 0.5)
        assert F.expect(np.log) == pytest.approx(0.0, abs=1e-9)

    def test_contaminated_identity(self):
        C = contaminate(make_distribution("exp", 1.0), 0.1, 5.0)
        assert C.expect(lambda x: x) == pytest.approx(1.4, abs=1e-9)

    def test_scalar_only_callable_falls_back(self):
        F = make_distribution("uniform", 0.0, 1.0)
        value = F.expect(lambda x: math.sqrt(x))  # rejects arrays
        assert value == pytest.approx(2.0 / 3.0, abs=1e-9)

    def test_log_and_neglog_share_one_moment(self, monkeypatch):
        # MLD reads E log X as `neglog`, and its printed displays as `log`:
        # the uniform computes it once, in closed form
        calls = []
        closed_form = distributions.Uniform._closed_form
        monkeypatch.setattr(distributions, "integrate", None)  # not called
        monkeypatch.setattr(
            distributions.Uniform, "_closed_form",
            lambda self, name, c: calls.append(name) or closed_form(
                self, name, c))
        F = make_distribution("uniform", 0.0, 1.0)
        T = parse_measure_id("mld")
        T.evaluate(F)
        for v in printed_variants(T):
            v.evaluate(F, 2.0, T.spec)
        assert calls == ["log"]
        assert F.expect(lambda x: -np.log(x), key="neglog") == \
            -F.expect(np.log, key="log")


class TestQuantile:
    @pytest.mark.parametrize("p", [0.2, 0.5, 0.8])
    def test_uniform_identity(self, p):
        F = make_distribution("uniform", 0.0, 1.0)
        assert F.quantile(p) == pytest.approx(p, abs=1e-15)

    def test_exponential_analytic_inverse(self):
        # invert 1 - e^-x by hand: Q(1 - e^-1) = 1
        F = make_distribution("exp", 1.0)
        assert F.quantile(1.0 - math.exp(-1.0)) == pytest.approx(1.0, abs=1e-12)

    def test_contaminated_quantile_hits_atom(self):
        # brute-force oracle: scan the mixture cdf for inf{x : F(x) >= p}
        C = contaminate(make_distribution("uniform", 0.0, 1.0), 0.5, 2.0)
        xs = np.linspace(0.0, 3.0, 300001)
        oracle = xs[np.asarray(C.cdf(xs)) >= 0.75][0]
        assert oracle == pytest.approx(2.0, abs=1e-4)
        assert C.quantile(0.75) == pytest.approx(2.0, abs=1e-9)

    @staticmethod
    def _check_exact_inverse(G, z, invert_cdf):
        jump_lo = float(G.cdf(z)) - G.mass(z)
        jump_hi = float(G.cdf(z))
        ps = np.concatenate([np.linspace(1e-3, 0.999, 999), [0.2, 0.8],
                             [0.5 * (jump_lo + jump_hi)]])
        q = np.array([G.quantile(float(p)) for p in ps])
        # on the atom's jump the inverse is z itself, not a bisection bracket
        on_jump = (ps > jump_lo + 1e-12) & (ps < jump_hi - 1e-12)
        assert np.any(on_jump)
        assert np.all(q[on_jump] == z)
        continuous = np.array([G.mass(v) == 0.0 for v in q])
        assert np.max(np.abs(G.cdf(q[continuous]) - ps[continuous]),
                      initial=0.0) <= 1e-12
        # Within 1e-9 of an atom's jump edge the brute force cannot arbitrate:
        # the float cdf there is flat below ulp(p)/density, and Empirical
        # reads n*p with a 1e-9 allowance.
        # G's atoms: its own point, and the base's point or observations
        atoms = {G.z, getattr(G.base, "z", G.z), *getattr(G.base, "values", ())}
        edges = [e for a in atoms
                 for e in (float(G.cdf(a)) - G.mass(a), float(G.cdf(a)))]
        away = np.all(np.abs(ps[:, None] - np.array(edges)) > 1e-9, axis=1)
        np.testing.assert_allclose(q[away], invert_cdf(G, ps[away]),
                                   rtol=1e-11, atol=0.0)

    @pytest.mark.parametrize("zlevel", [None, 0.06, 0.5, 0.9])
    @pytest.mark.parametrize("eps", [1e-5, 1e-2, 0.5, 1.0])
    @pytest.mark.parametrize("spec", ["exp:1", "uniform:0,1", "pareto:3,1",
                                      "lognormal:0,0.5", "sm:2,1,3"])
    def test_contaminated_quantile_is_exact_inverse(self, spec, eps, zlevel,
                                                    invert_cdf):
        F = parse_distribution(spec)
        z = 0.0 if zlevel is None else F.quantile(zlevel)
        self._check_exact_inverse(contaminate(F, eps, z), z, invert_cdf)

    @pytest.mark.parametrize("case", ["atom_on_base_atom", "nested"])
    def test_contaminated_quantile_inverts_atomic_bases(self, case, invert_cdf):
        if case == "atom_on_base_atom":
            G = contaminate(Empirical.from_values([1, 2, 2, 5]), 0.3, 2.0)
        else:
            U = make_distribution("uniform", 0, 1)
            G = contaminate(contaminate(U, 0.2, 0.5), 0.1, 0.25)
        self._check_exact_inverse(G, G.z, invert_cdf)

    def test_out_of_range(self):
        F = make_distribution("exp", 1.0)
        with pytest.raises(InvalidParameter):
            F.quantile(-0.1)
        with pytest.raises(InvalidParameter):
            F.quantile(1.5)

    @pytest.mark.parametrize("kind,params", PARAMETRIC)
    def test_cdf_quantile_roundtrip(self, kind, params):
        F = make_distribution(kind, *params)
        ps = np.linspace(0.01, 0.99, 99)
        err = max(abs(float(F.cdf(F.quantile(p))) - p) for p in ps)
        assert err <= 1e-9

    @pytest.mark.parametrize("p", [1e-4, 1e-8, 1e-12, 1e-17])
    def test_singh_maddala_quantile_at_small_p(self, p):
        # b ((1-p)^(-1/q) - 1)^(1/a) cancels to about p/q; 50 digits leave
        # over 30 after the cancellation
        mpmath = pytest.importorskip("mpmath")
        with mpmath.workdps(50):
            one = mpmath.mpf(1)
            exact = float(((one - mpmath.mpf(p)) ** (-one / 3) - 1) ** (one / 2))
        F = make_distribution("sm", 2.0, 1.0, 3.0)
        assert F.quantile(p) == pytest.approx(exact, rel=1e-13, abs=0)
        assert F.quantile_array([p])[0] == pytest.approx(exact, rel=1e-13,
                                                          abs=0)

    @pytest.mark.parametrize("kind,params", PARAMETRIC)
    def test_quantile_array_matches_scalar(self, kind, params):
        F = make_distribution(kind, *params)
        ps = np.linspace(0.05, 0.95, 19)
        arr = F.quantile_array(ps)
        scalars = np.array([F.quantile(p) for p in ps])
        np.testing.assert_allclose(arr, scalars, rtol=1e-13)


class TestLogNormalAgainstMpmath:
    """The normal cdf (math.erfc) and its scalar inverse (NormalDist)
    against 50-digit mpmath, down to Phi(-37) ~ 6e-300."""

    F = make_distribution("lognormal", 0.0, 1.0)

    def test_cdf_relative_error_in_both_tails(self):
        mpmath = pytest.importorskip("mpmath")
        xs = np.exp(np.linspace(-37.0, 8.0, 451))
        arr = np.asarray(self.F.cdf(xs))
        with mpmath.workdps(50):
            for x, value in zip(xs, arr):
                exact = mpmath.ncdf(mpmath.log(mpmath.mpf(float(x))))
                for got in (value, float(self.F.cdf(float(x)))):
                    assert abs(float((got - exact) / exact)) <= 1e-12

    def test_partial_mean_relative_error_in_the_lower_tail(self):
        mpmath = pytest.importorskip("mpmath")
        with mpmath.workdps(50):
            for u in np.linspace(-36.0, 8.0, 45):
                t = math.exp(u + 1.0)
                exact = mpmath.exp(0.5) * mpmath.ncdf(
                    mpmath.log(mpmath.mpf(t)) - 1)
                got = self.F.partial_mean(t)
                assert abs(float((got - exact) / exact)) <= 1e-12

    def test_scalar_quantile_matches_array_and_exact_inverse(self):
        # Compared in the exponent log Q(p) = z(p): exp turns the one-ulp
        # rounding of z ~ -37 into 1e-14 relative on Q itself.
        mpmath = pytest.importorskip("mpmath")
        ps = np.concatenate([np.geomspace(1e-300, 0.5, 151),
                             1.0 - np.geomspace(0.25, 1e-12, 60)])
        scalar = np.log([self.F.quantile(float(p)) for p in ps])
        np.testing.assert_allclose(scalar, np.log(self.F.quantile_array(ps)),
                                   rtol=1e-14, atol=1e-15)
        with mpmath.workdps(50):
            exact = [float(mpmath.findroot(
                lambda z, p=mpmath.mpf(float(p)): mpmath.ncdf(z) - p,
                mpmath.mpf(z0))) for p, z0 in zip(ps, scalar)]
        np.testing.assert_allclose(scalar, exact, rtol=1e-14, atol=1e-15)

    @pytest.mark.parametrize("shape", [(), (15,), (2, 15)])
    def test_array_cdf_is_the_scalar_normal_cdf_per_element(self, shape):
        F = make_distribution("lognormal", 0.3, 0.8)
        xs = np.exp(np.linspace(-6.0, 6.0, math.prod(shape))).reshape(shape)
        u = (np.log(xs) - F.log_mean) / F.sigma
        got = F.cdf(xs)
        assert got.shape == shape and got.dtype == float
        # the scalar cdf through erfc, accurate in the lower tail
        expected = [0.5 * math.erfc(-v * math.sqrt(0.5))
                    for v in u.ravel().tolist()]
        assert got.ravel().tolist() == expected


class TestMoments:
    @pytest.mark.parametrize("kind,params", PARAMETRIC)
    def test_closed_form_mean_matches_quadrature(self, kind, params,
                                                 density_expect):
        F = make_distribution(kind, *params)
        oracle = density_expect(F, lambda y: y)
        assert F.mean() == pytest.approx(oracle, rel=1e-8)

    @pytest.mark.parametrize("kind,params", PARAMETRIC)
    @pytest.mark.parametrize("level", [0.25, 0.6, 0.9])
    def test_partial_mean_matches_quadrature(self, kind, params, level,
                                             density_expect):
        F = make_distribution(kind, *params)
        t = F.quantile(level)
        oracle = density_expect(F, lambda y: y, upper=t)
        assert F.partial_mean(t) == pytest.approx(oracle, abs=1e-9, rel=1e-9)


class TestLorenz:
    def test_endpoints(self):
        for F in (make_distribution("exp", 1.0), Dirac(3.0)):
            assert F.lorenz(0.0) == 0.0
            assert F.lorenz(1.0) == 1.0

    def test_exponential_closed_form(self):
        # oracle: antiderivative of -log(1-s) is (1-s)log(1-s) + s
        F = make_distribution("exp", 1.0)
        p = 0.5
        oracle = (1 - p) * math.log(1 - p) + p
        assert oracle == pytest.approx(0.153426, abs=1e-6)
        assert F.lorenz(p) == pytest.approx(oracle, abs=1e-9)

    def test_dirac_equality_line(self):
        assert Dirac(4.0).lorenz(0.5) == pytest.approx(0.5, abs=1e-12)

    def test_empirical_with_ties_is_exact(self):
        # Q(0.5) = Q(0.3) = 2 sits on a tie block; the step quantile
        # integrates to 0.2*1 + 0.3*2 = 0.8 over [0, 0.5] and to
        # 0.2*1 + 0.1*2 = 0.4 over [0, 0.3]; mu = 3.4
        E = Empirical.from_values([1.0, 2.0, 2.0, 5.0, 7.0])
        assert abs(E.lorenz(0.5) - 0.8 / 3.4) <= 1e-15
        assert abs(E.lorenz(0.3) - 0.4 / 3.4) <= 1e-15

    @pytest.mark.parametrize("eps,z", [(0.1, 0.5), (0.3, 2.0), (0.05, 6.0)])
    def test_contaminated_exponential_piecewise(self, eps, z):
        # G = w Exp(1) + eps Dirac(z), w = 1 - eps. With Lam(r) = (1-r) log(1-r)
        # + r, the integral of -log(1-u) over [0, r], the integral of Q_G
        # over [0, p] is w Lam(p/w) below the atom's jump [a, a + eps],
        # a = w F(z), linear with slope z on it, and above it the part below
        # the jump plus eps z plus w (Lam((p - eps)/w) - Lam(F(z))).
        lam = lambda r: (1.0 - r) * math.log1p(-r) + r
        w, fz = 1.0 - eps, -math.expm1(-z)
        a = w * fz
        G = contaminate(make_distribution("exp", 1.0), eps, z)
        mu = w + eps * z
        for p in np.linspace(0.02, 0.98, 49):
            if p <= a:
                area = w * lam(p / w)
            elif p <= a + eps:
                area = w * lam(fz) + z * (p - a)
            else:
                area = w * lam(fz) + eps * z + w * (lam((p - eps) / w) - lam(fz))
            assert G.lorenz(p) == pytest.approx(area / mu, rel=1e-12, abs=1e-15)

    @pytest.mark.parametrize("spec", ["exp:1", "uniform:0,1", "pareto:3,1"])
    def test_nondecreasing_and_convex(self, spec, fleet):
        F = fleet[spec]
        ps = np.linspace(0.0, 1.0, 21)
        ls = np.array([F.lorenz(p) for p in ps])
        assert np.all(np.diff(ls) >= -1e-12)
        assert np.all(np.diff(ls, 2) >= -1e-9)


_EVERY_KIND = {
    **{f"{k}:{','.join(map(str, ps))}": make_distribution(k, *ps)
       for k, ps in PARAMETRIC},
    "dirac:3": Dirac(3.0),
    "empirical": Empirical.from_values([0.5, 2.0, 2.0, 7.0]),
    "contaminated(exp, z inside)": contaminate(make_distribution("exp", 1.0),
                                               0.1, 2.0),
    "contaminated(pareto, z below)": contaminate(
        make_distribution("pareto", 3.0, 1.0), 0.2, 0.5),
    "contaminated(uniform, z above)": contaminate(
        make_distribution("uniform", 0.5, 2.5), 0.2, 4.0),
    "contaminated(eps=0)": contaminate(make_distribution("exp", 1.0), 0.0, 2.0),
    "contaminated(eps=1)": contaminate(make_distribution("exp", 1.0), 1.0, 2.0),
}


class TestArrayPartialMean:
    @pytest.mark.parametrize("name", list(_EVERY_KIND))
    def test_is_the_scalar_partial_mean_per_element(self, name):
        F = _EVERY_KIND[name]
        levels = F.quantile_array(np.linspace(0.01, 0.99, 11))
        ts = np.concatenate([[-1.0, 0.0, F.lep, F.uep, math.inf], levels])
        want = np.array([F.partial_mean(float(t)) for t in ts])
        np.testing.assert_allclose(F.partial_mean(ts), want, rtol=1e-13,
                                   atol=0.0)

    @pytest.mark.parametrize("name", list(_EVERY_KIND))
    def test_float_level_and_support_ends(self, name):
        # a float t gives a Python float; below the support nothing, above
        # it exactly the mean
        F = _EVERY_KIND[name]
        assert type(F.partial_mean(float(F.quantile(0.5)))) is float
        assert F.partial_mean(-1.0) == 0.0
        assert F.partial_mean(math.inf) == F.mean()

    @pytest.mark.parametrize("spec", ["uniform:1,1.000001",
                                      "uniform:1,1.000000001"])
    def test_uniform_near_equality_against_exact_arithmetic(self, spec):
        # (t^2 - lo^2)/(2 (hi - lo)) cancels here; the factored form does not
        F = parse_distribution(spec)
        lo, hi = Fraction(F.lo), Fraction(F.hi)
        for p in (0.2, 0.5, 0.8):
            t = F.quantile(p)
            want = float((Fraction(t) ** 2 - lo * lo) / (2 * (hi - lo)))
            assert abs(F.partial_mean(t) - want) <= 1e-13 * want, p
        assert F.partial_mean(F.hi) == F.mean()

    def test_lognormal_loads_no_scipy_function(self, monkeypatch):
        monkeypatch.setattr(distributions, "_special", None)  # not called
        F = make_distribution("lognormal", 0.0, 0.5)
        assert F.partial_mean(np.array([0.5, 1.0, 2.0])).shape == (3,)


class TestContaminatedGrid:
    """One mixture per point z, each with its own imaginary step: the
    complex-step oracle's grid."""

    ZS = np.array([0.0, 0.5, 1.0, 3.0])
    EPS = 1j * np.array([1e-3, 2e-3, 3e-3, 4e-3])

    @pytest.mark.parametrize("spec", ["lognormal:0,0.5", "uniform:0.5,2",
                                      "empirical"])
    def test_every_quantity_is_the_one_point_mixtures(self, spec):
        F = (Empirical.from_values([0.5, 1.0, 1.0, 4.0]) if spec == "empirical"
             else parse_distribution(spec))
        G = Contaminated(F, self.EPS, self.ZS)
        points = [Contaminated(F, self.EPS[i:i + 1], self.ZS[i:i + 1])
                  for i in range(self.ZS.size)]
        g = lambda x: np.sqrt(x)
        # (quantity, its value on the base, its atom term at z)
        quantities = [
            (lambda C: C.mean(), F.mean(), lambda z: z),
            (lambda C: C.expect(g), F.expect(g), math.sqrt),
            (lambda C: C.expect(g, key="sqrt"), F.expect(g, key="sqrt"),
             math.sqrt),
            (lambda C: C.cdf(1.0), float(F.cdf(1.0)), lambda z: z <= 1.0),
            (lambda C: C.mass(1.0), float(F.mass(1.0)), lambda z: z == 1.0),
            (lambda C: C.mass(0.7), float(F.mass(0.7)), lambda z: z == 0.7),
            (lambda C: C.partial_mean(1.0), F.partial_mean(1.0),
             lambda z: z * (z <= 1.0)),
            (lambda C: C.partial_mean(0.2), F.partial_mean(0.2),
             lambda z: z * (z <= 0.2)),
        ]
        for quantity, base, atom in quantities:
            want = [(1.0 - e) * base + e * atom(z)
                    for e, z in zip(self.EPS.tolist(), self.ZS.tolist())]
            got = quantity(G)
            assert got.shape == self.ZS.shape
            np.testing.assert_allclose(got, want, rtol=1e-15, atol=1e-300)
            np.testing.assert_allclose(
                np.concatenate([quantity(C) for C in points]), want,
                rtol=1e-15, atol=1e-300)

    def test_quantile_and_support_ends_need_one_point(self):
        G = Contaminated(make_distribution("exp", 1.0), self.EPS, self.ZS)
        for read in (lambda: G.quantile(0.5), lambda: G.lep, lambda: G.uep):
            with pytest.raises(InvalidParameter, match="grid"):
                read()

    @pytest.mark.parametrize("eps,zs", [
        (np.array([1e-3, 2e-3]), np.array([1.0, 2.0])),  # real steps
        (np.array([1e-3j, 2e-3j]), np.array([1.0, 2.0, 3.0])),  # shapes
        (np.array([1e-3j, 1.0 + 2e-3j]), np.array([1.0, 2.0])),  # not imaginary
        (np.array([1e-3j, complex(0.0, math.inf)]), np.array([1.0, 2.0])),
        (np.array([1e-3j, complex(0.0, math.nan)]), np.array([1.0, 2.0])),
        (np.array([1e-3j, 2e-3j]), np.array([1.0, -2.0])),  # z < 0
        (1e-3j, np.array([1.0, 2.0])),  # one step for many points
    ])
    def test_invalid_grids(self, eps, zs):
        with pytest.raises(InvalidParameter, match="grid of points"):
            Contaminated(make_distribution("exp", 1.0), eps, zs)

    def test_descriptor_counts_the_points(self):
        G = Contaminated(make_distribution("exp", 1.0), self.EPS, self.ZS)
        assert G.descriptor() == (
            "contaminated(exp:1,eps=<4 imaginary steps>,z=<4 points>)")


class TestSupportEnds:
    @pytest.mark.parametrize("name", list(_EVERY_KIND))
    def test_ends_are_the_quantile_at_zero_and_one(self, name):
        F = _EVERY_KIND[name]
        assert F.lep == F.quantile(0.0)
        assert F.uep == F.quantile(1.0)

    @pytest.mark.parametrize("name,lep,uep", [
        ("exp:1.0", 0.0, math.inf),
        ("pareto:3.0,1.0", 1.0, math.inf),
        ("lognormal:0.0,0.5", 0.0, math.inf),
        ("uniform:0.5,2.5", 0.5, 2.5),
        ("sm:2.0,1.0,3.0", 0.0, math.inf),
        ("dirac:3", 3.0, 3.0),
        ("empirical", 0.5, 7.0),
        ("contaminated(pareto, z below)", 0.5, math.inf),
        ("contaminated(uniform, z above)", 0.5, 4.0),
        ("contaminated(eps=1)", 2.0, 2.0),
    ])
    def test_known_ends(self, name, lep, uep):
        F = _EVERY_KIND[name]
        assert (F.lep, F.uep) == (lep, uep)

    def test_uniform_upper_end_is_exact(self):
        # lo + 1 * (hi - lo) rounds below hi here
        F = make_distribution("uniform", 8.326672684688674e-17, 0.3)
        assert F.uep == 0.3


class TestDirac:
    def test_is_the_one_point_empirical_law(self):
        F = Dirac(2.5)
        assert isinstance(F, Empirical)
        assert F.values.tolist() == [2.5]
        assert F.descriptor() == "dirac:2.5"
        assert Empirical.from_values([2.5]).descriptor() == "dirac:2.5"
        assert make_distribution("dirac", 2.5).descriptor() == "dirac:2.5"

    @pytest.mark.parametrize("x", [0.0, -1.0, math.nan])
    def test_validation_message(self, x):
        with pytest.raises(InvalidParameter,
                           match="dirac location must be > 0"):
            Dirac(x)

    def test_scaled_and_translated_stay_point_masses(self):
        assert scaled(Dirac(2.0), 3.0).descriptor() == "dirac:6"
        assert translated(Dirac(2.0), 0.5).descriptor() == "dirac:2.5"


class TestCumulativeFunctional:
    """C(F, p) = integral of x dF over [0, Q(p)], atoms included, read as
    the partial mean at the quantile."""

    @staticmethod
    def _c(F, p):
        return F.partial_mean(F.quantile(p))

    def test_uniform_half(self):
        F = make_distribution("uniform", 0.0, 1.0)
        assert self._c(F, 0.5) == pytest.approx(0.125, abs=1e-10)

    def test_full_mass_is_mean(self):
        F = make_distribution("exp", 1.0)
        assert self._c(F, 1.0) == pytest.approx(1.0, abs=1e-9)

    def test_empty_integral(self):
        assert self._c(make_distribution("exp", 1.0), 0.0) == 0.0

    def test_monotone_in_p(self):
        F = make_distribution("lognormal", 0.0, 0.5)
        vals = [self._c(F, p) for p in np.linspace(0.0, 1.0, 11)]
        assert all(b >= a - 1e-12 for a, b in zip(vals, vals[1:]))

    def test_includes_atoms_below_quantile(self):
        E = Empirical.from_values([1.0, 2.0, 3.0, 4.0])
        # Q(0.5) = 2; atoms 1 and 2 contribute with full weight 1/4 each
        assert self._c(E, 0.5) == pytest.approx(0.75, abs=1e-15)


class TestEmpirical:
    def test_quantile_order_statistic(self):
        E = Empirical.from_values(range(1, 11))
        assert E.quantile(0.2) == 2.0
        assert E.quantile(0.8) == 8.0
        assert E.quantile(0.81) == 9.0

    def test_cdf_step(self):
        E = Empirical.from_values([1.0, 3.0])
        assert float(E.cdf(0.5)) == 0.0
        assert float(E.cdf(1.0)) == 0.5
        assert float(E.cdf(3.0)) == 1.0

    def test_validation(self):
        with pytest.raises(InvalidParameter):
            Empirical.from_values([])
        with pytest.raises(InvalidParameter, match="non-negative"):
            Empirical.from_values([-1.0, 2.0])
        with pytest.raises(InvalidParameter, match="non-negative"):
            Empirical.from_values([-math.inf, 2.0])
        with pytest.raises(InvalidParameter, match="mean must be positive"):
            Empirical.from_values([0.0, 0.0])
        with pytest.raises(InvalidParameter, match="sorted"):
            Empirical(np.array([2.0, 1.0, math.nan]))

    @pytest.mark.parametrize("bad", [math.nan, math.inf])
    @pytest.mark.parametrize("build", [Empirical.from_values,
                                       lambda v: Empirical(sorted(v))],
                             ids=["from_values", "constructor"])
    def test_non_finite_observation_is_named(self, bad, build):
        with pytest.raises(InvalidParameter,
                           match="empirical observations must be finite"):
            build([1.0, bad, 2.0])


def _block():
    """Four sorted samples of 50, one with a tie run and one with zeros."""
    block = np.sort(np.random.default_rng(5).exponential(size=(4, 50)), axis=1)
    block[1, 10:20] = block[1, 10]
    block[2, :3] = 0.0
    return block


class TestEmpiricalBlock:
    """A 2-D Empirical holds one sample per row and answers per row exactly
    as the 1-D Empirical of that row does."""

    def test_per_row_values_equal_the_rows(self):
        from ineqif.measures import _xlogx
        block = _block()
        E = Empirical(block)
        assert E.n == 50
        t = np.stack([block[:, 10], block[:, 30] + 0.01])
        g_pow = parse_measure_id("ge:2").spec.h
        for i, row in enumerate(block):
            R = Empirical(row)
            assert E.mean()[i] == R.mean()
            assert E.expect(g_pow, key="pow:2.0")[i] == R.expect(g_pow, key="pow:2.0")
            assert E.expect(_xlogx, key="xlogx")[i] == R.expect(_xlogx, key="xlogx")
            with np.errstate(divide="ignore"):
                assert E.expect(np.log)[i] == R.expect(np.log)
            assert E.mass(0.0)[i] == R.mass(0.0)
            assert E.quantile(0.2)[i] == R.quantile(0.2)
            assert E.partial_mean(block[i, 25])[i] == R.partial_mean(block[i, 25])
            assert np.array_equal(E.partial_mean(t)[:, i], R.partial_mean(t[:, i]))
        assert E.mass(0.0)[2] == 3 / 50 and E.mass(block[1, 10])[1] == 10 / 50
        assert E.descriptor() == "empirical:n=50,samples=4"

    def test_scalar_only_integrand_is_taken_per_row(self):
        # math.log1p refuses arrays: the evaluator falls back per element
        block = _block()
        got = Empirical(block).expect(math.log1p)
        assert got.tolist() == [Empirical(row).expect(math.log1p)
                                for row in block]

    @pytest.mark.parametrize("bad,match", [
        ([3.0, 2.0, 4.0], "sorted"),
        ([-1.0, 2.0, 4.0], "non-negative"),
        ([1.0, 2.0, math.nan], "finite"),
        ([1.0, 2.0, math.inf], "finite"),
        ([0.0, 0.0, 0.0], "mean must be positive"),
    ])
    def test_each_row_is_checked(self, bad, match):
        with pytest.raises(InvalidParameter, match=match):
            Empirical(np.array([[1.0, 2.0, 3.0], bad]))

    @pytest.mark.parametrize("call", [
        lambda E: E.cdf(1.0),
        lambda E: E.quantile_array([0.5]),
        lambda E: E.with_inserted(1.0),
        lambda E: E.mid_cdf_array([1.0]),
        lambda E: E.lorenz(0.5),
    ], ids=["cdf", "quantile_array", "with_inserted", "mid_cdf_array",
            "lorenz"])
    def test_single_sample_methods_refuse_a_block(self, call):
        with pytest.raises(InvalidParameter, match="block of samples"):
            call(Empirical(_block()))

    @pytest.mark.parametrize("mid", DEFAULT_MEASURE_IDS)
    def test_measure_on_a_block_is_the_measure_per_row(self, mid):
        block = _block()[[0, 1, 3]]  # no zero: MLD and Champernowne need > 0
        T = parse_measure_id(mid)
        per_row = [T.evaluate(Empirical(row)) for row in block]
        np.testing.assert_allclose(T.evaluate(Empirical(block)), per_row,
                                   rtol=1e-15, atol=0.0)


class TestTransforms:
    @pytest.mark.parametrize("kind,params", PARAMETRIC)
    def test_scaled_quantiles(self, kind, params):
        F = make_distribution(kind, *params)
        G = scaled(F, 7.0)
        for p in (0.1, 0.5, 0.9):
            assert G.quantile(p) == pytest.approx(7.0 * F.quantile(p), rel=1e-12)

    def test_translated_uniform(self):
        F = make_distribution("uniform", 0.0, 1.0)
        G = translated(F, 2.0)
        assert G.mean() == pytest.approx(F.mean() + 2.0, abs=1e-12)

    def test_translation_not_closed(self):
        with pytest.raises(InvalidParameter):
            translated(make_distribution("exp", 1.0), 1.0)
