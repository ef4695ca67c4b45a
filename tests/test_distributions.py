import math

import numpy as np
import pytest

from ineqif import (
    Dirac,
    Empirical,
    contaminate,
    integrate,
    make_distribution,
    scaled,
    translated,
)
from ineqif.cli import parse_distribution
from ineqif.distributions import _ncdf
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

    def test_pareto_mean_against_quadrature(self):
        F = make_distribution("pareto", 2.0, 1.0)
        oracle = integrate(lambda y: y * F.pdf(y), F.lep, F.uep)
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

    def test_atoms_merge(self):
        F = contaminate(contaminate(Dirac(2.0), 0.5, 1.0), 0.2, 1.0)
        atoms = dict(F.atoms())
        assert atoms[2.0] == pytest.approx(0.4)
        assert atoms[1.0] == pytest.approx(0.6)


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
        edges = [e for a, m in G.atoms()
                 for e in (float(G.cdf(a)) - m, float(G.cdf(a)))]
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
        expected = [_ncdf(v) for v in u.ravel().tolist()]
        assert got.ravel().tolist() == expected


class TestMoments:
    @pytest.mark.parametrize("kind,params", PARAMETRIC)
    def test_closed_form_mean_matches_quadrature(self, kind, params):
        F = make_distribution(kind, *params)
        oracle = integrate(lambda y: y * F.pdf(y), F.lep, F.uep)
        assert F.mean() == pytest.approx(oracle, rel=1e-8)

    @pytest.mark.parametrize("kind,params", PARAMETRIC)
    @pytest.mark.parametrize("level", [0.25, 0.6, 0.9])
    def test_partial_mean_matches_quadrature(self, kind, params, level):
        F = make_distribution(kind, *params)
        t = F.quantile(level)
        oracle = integrate(lambda y: y * F.pdf(y), F.lep, t)
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
    def test_uniform_half(self):
        F = make_distribution("uniform", 0.0, 1.0)
        assert F.cumulative_functional(0.5) == pytest.approx(0.125, abs=1e-10)

    def test_full_mass_is_mean(self):
        F = make_distribution("exp", 1.0)
        assert F.cumulative_functional(1.0) == pytest.approx(1.0, abs=1e-9)

    def test_empty_integral(self):
        assert make_distribution("exp", 1.0).cumulative_functional(0.0) == 0.0

    def test_monotone_in_p(self):
        F = make_distribution("lognormal", 0.0, 0.5)
        vals = [F.cumulative_functional(p) for p in np.linspace(0.0, 1.0, 11)]
        assert all(b >= a - 1e-12 for a, b in zip(vals, vals[1:]))

    def test_includes_atoms_below_quantile(self):
        E = Empirical.from_values([1.0, 2.0, 3.0, 4.0])
        # Q(0.5) = 2; atoms 1 and 2 contribute with full weight 1/4 each
        assert E.cumulative_functional(0.5) == pytest.approx(0.75, abs=1e-15)


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
