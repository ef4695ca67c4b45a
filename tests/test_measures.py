import math

import numpy as np
import pytest
from scipy.integrate import trapezoid

from ineqif import (
    DEFAULT_MEASURE_IDS,
    Dirac,
    Empirical,
    atkinson_from_appendix_parameter,
    functional_value,
    gini,
    integrate,
    lorenz_area,
    make_distribution,
    make_spec,
    mean_functional,
    parse_measure_id,
    qsr,
    scaled,
    translated,
)
from ineqif.cli import parse_distribution
from ineqif.errors import DegenerateDenominator, DomainError, InvalidParameter, MomentDiverges
from ineqif.measures import _gini_first_moment, _xlogx

ALL_FAMILY_IDS = ("ge:2", "ge:0.5", "theil", "mld", "atkinson:0.5",
                  "champernowne", "kolm:1")


class TestSpecs:
    def test_ge_quadruple(self):
        spec = make_spec("generalized_entropy", 2.0)
        assert spec.tau(3.0) == pytest.approx(1.0)  # (s-1)/2
        assert float(spec.h(4.0)) == pytest.approx(16.0)
        assert spec.h1_ratio(2.0) == pytest.approx(1.0)  # h1'/h1 = 2/s
        assert spec.h2(5.0) == 0.0

    def test_mld_derivatives(self):
        spec = make_spec("mld")
        assert spec.tau_prime(0.3) == 1.0
        assert spec.h1_ratio(2.0) == 0.0

    @pytest.mark.parametrize("mid", ALL_FAMILY_IDS + ("ge:-1", "atkinson:-0.5"))
    @pytest.mark.parametrize("name", ["tau", "h1", "h2"])
    def test_derivatives_match_central_differences(self, mid, name):
        # h1 declares its derivative as the ratio h1'/h1
        spec = parse_measure_id(mid).spec
        f = getattr(spec, name)
        df = (lambda s: spec.h1_ratio(s) * f(s)) if name == "h1" else \
            getattr(spec, name + "_prime")
        for s in (0.5, 1.3, 2.7):
            step = 1e-6 * s
            central = (float(f(s + step)) - float(f(s - step))) / (2.0 * step)
            assert float(df(s)) == pytest.approx(central, rel=1e-6, abs=1e-9)

    def test_xlogx_in_place_matches_the_where_form(self):
        # the in-place Theil h against s*log(s) on the positive entries,
        # bit for bit, on 1-D and 2-D arrays and on scalars
        s = np.array([0.0, 5e-324, 1e-300, 0.5, 1.0, 2.0, 1e300, math.inf,
                      -math.inf, math.nan, -1.0, 7.0])
        with np.errstate(all="ignore"):
            old = np.where(s > 0, s * np.log(np.where(s > 0, s, 1.0)), 0.0)
        assert _xlogx(s).tobytes() == old.tobytes()
        assert _xlogx(s.reshape(3, 4)).tobytes() == old.tobytes()
        assert [_xlogx(v) for v in s.tolist()] == old.tolist()

    def test_atkinson_h(self):
        assert float(make_spec("atkinson", 0.5).h(4.0)) == pytest.approx(2.0)

    @pytest.mark.parametrize("family,param", [
        ("kolm", 0.0),
        ("kolm", -1.0),
        ("atkinson", 1.0),
        ("atkinson", 0.0),
        ("atkinson", 1.5),
    ])
    def test_constraints(self, family, param):
        with pytest.raises(InvalidParameter):
            make_spec(family, param)

    def test_ge_limit_points_suggest_neighbours(self):
        with pytest.raises(InvalidParameter, match="theil"):
            make_spec("ge", 1.0)
        with pytest.raises(InvalidParameter, match="mld"):
            make_spec("ge", 0.0)

    def test_param_free_families_reject_param(self):
        with pytest.raises(InvalidParameter):
            make_spec("theil", 2.0)


class TestFunctionalValue:
    def test_equality_gives_zero(self):
        assert functional_value(make_spec("ge", 2.0), Dirac(3.0)).value == 0.0

    def test_ge2_exponential(self, density_expect):
        # oracle: second moment by quadrature, mu=1, T=(mu2/mu^2-1)/2
        F = make_distribution("exp", 1.0)
        mu2 = density_expect(F, lambda y: y ** 2)
        oracle = (mu2 / 1.0 - 1.0) / 2.0
        assert oracle == pytest.approx(0.5, abs=1e-9)
        assert functional_value(make_spec("ge", 2.0), F).value == pytest.approx(
            oracle, abs=1e-9)

    @pytest.mark.parametrize("sigma", [0.3, 0.6])
    def test_theil_lognormal_half_sigma_squared(self, sigma):
        F = make_distribution("lognormal", 0.0, sigma)
        value = functional_value(make_spec("theil"), F).value
        assert value == pytest.approx(sigma ** 2 / 2.0, abs=1e-6)

    def test_moment_divergence_detected(self):
        F = make_distribution("pareto", 1.5, 1.0)
        with pytest.raises(MomentDiverges):
            functional_value(make_spec("ge", 2.0), F)

    @pytest.mark.parametrize("spec_name", ["exp:1", "uniform:0,1",
                                           "pareto:3,1", "lognormal:0,0.5",
                                           "dirac:2"])
    def test_real_models_give_python_floats(self, spec_name):
        # the complex-step path keeps eps complex; a real model stays real
        F = parse_distribution(spec_name)
        for mid in DEFAULT_MEASURE_IDS:
            T = parse_measure_id(mid)
            assert type(T.evaluate(F)) is float, mid
            if T.spec is not None:
                fv = functional_value(T.spec, F)
                assert all(type(v) is float for v in
                           (fv.value, fv.index_arg, fv.mu, fv.eh)), mid


class TestPluginEstimate:
    @pytest.mark.parametrize("mid", ALL_FAMILY_IDS)
    def test_zero_on_constant_sample(self, mid):
        s = Empirical.from_values([3.0] * 5)
        assert abs(functional_value(parse_measure_id(mid).spec, s).value) <= 1e-12

    def test_two_point_theil_hand_value(self):
        # hand evaluation: mu=2, mean h = 3 log 3 / 2, minus log 2
        s = Empirical.from_values([1.0, 3.0])
        oracle = (3.0 * math.log(3.0) / 2.0) / 2.0 - math.log(2.0)
        assert oracle == pytest.approx(0.130812, abs=1e-6)
        assert functional_value(make_spec("theil"), s).value == pytest.approx(
            oracle, abs=1e-12)

    def test_mld_rejects_zero_income(self):
        with pytest.raises(DomainError):
            functional_value(make_spec("mld"), Empirical.from_values([0.0, 1.0]))

    @pytest.mark.parametrize("mid", ["mld", "champernowne", "ge:-1",
                                     "atkinson:-0.5"])
    def test_evaluate_rejects_zero_income(self, mid):
        # every plug-in route (evaluate, sensitivity curves, Monte Carlo
        # replicas) meets the guard, not functional_value alone
        with pytest.raises(DomainError):
            parse_measure_id(mid).evaluate(Empirical.from_values([0.0, 1.0, 2.0]))

    def test_theil_accepts_zero_income(self):
        # 0 log 0 extends continuously to 0
        value = functional_value(make_spec("theil"),
                                 Empirical.from_values([0.0, 1.0, 2.0])).value
        assert math.isfinite(value)

    @pytest.mark.parametrize("mid", ALL_FAMILY_IDS)
    def test_plugin_equals_functional_at_empirical(self, mid):
        s = Empirical.from_values([0.5, 1.0, 2.5, 4.0, 8.0])
        spec = parse_measure_id(mid).spec
        assert parse_measure_id(mid).evaluate(s) == functional_value(
            spec, s).value


class TestGini:
    def test_equality(self):
        assert gini(Dirac(3.0)) == pytest.approx(0.0, abs=1e-15)

    @pytest.mark.parametrize("rate", [0.5, 1.0, 2.0])
    def test_exponential_half(self, rate):
        # oracle: quadrature of the closed-form Lorenz curve of Exp
        F = make_distribution("exp", rate)
        r_oracle = integrate(
            lambda p: (1 - p) * np.log1p(-p) + p, 0.0, 1.0)
        assert 1.0 - 2.0 * r_oracle == pytest.approx(0.5, abs=1e-9)
        assert gini(F) == pytest.approx(0.5, abs=1e-9)

    def test_pareto_known_value(self):
        # 1/(2a-1) for Pareto(a)
        assert gini(make_distribution("pareto", 3.0, 1.0)) == pytest.approx(
            0.2, abs=1e-9)

    def test_lorenz_area_consistent_with_lorenz_curve(self):
        F = make_distribution("lognormal", 0.0, 0.5)
        oracle = integrate(lambda p: np.array(
            [F.lorenz(float(q)) for q in np.atleast_1d(p)]), 0.0, 1.0,
        )
        assert lorenz_area(F) == pytest.approx(oracle, abs=1e-7)


class TestGiniMixtures:
    @pytest.mark.parametrize("case", ["atom_on_base_atom", "nested"])
    def test_contaminated_gini_matches_quantile_route(self, case, invert_cdf):
        # independent route: Riemann sum of (1-s) Q(s) over midpoints,
        # with Q inverted by bisection on the mixture cdf alone, not F.quantile
        from ineqif import Empirical, contaminate

        if case == "atom_on_base_atom":
            F = contaminate(Empirical.from_values([1, 2, 2, 5]), 0.3, 2.0)
        else:
            U = make_distribution("uniform", 0, 1)
            F = contaminate(contaminate(U, 0.2, 0.5), 0.1, 0.25)
        s = (np.arange(5001) + 0.5) / 5001
        q = invert_cdf(F, s)
        r_indep = float(np.mean((1 - s) * q)) / F.mean()
        assert gini(F) == pytest.approx(1 - 2 * r_indep, abs=1e-3)


class TestQsr:
    def test_uniform_nine(self):
        # oracle: N = int_{0.8}^{1} x dx = 0.18, D = int_0^{0.2} x dx = 0.02
        assert qsr(make_distribution("uniform", 0.0, 1.0)) == pytest.approx(
            9.0, abs=1e-9)

    def test_exponential_closed_form(self):
        # oracle: N = (1+Q(0.8)) e^{-Q(0.8)}, D = 1 - (1+Q(0.2)) e^{-Q(0.2)}
        q4, q1 = math.log(5.0), math.log(1.25)
        oracle = ((1 + q4) * math.exp(-q4)) / (1 - (1 + q1) * math.exp(-q1))
        assert oracle == pytest.approx(24.290608, abs=1e-6)
        assert qsr(make_distribution("exp", 1.0)) == pytest.approx(
            oracle, abs=1e-9)

    def test_near_equality_tends_to_one(self):
        F = make_distribution("uniform", 1.0, 1.0 + 1e-9)
        assert qsr(F) == pytest.approx(1.0, abs=1e-6)

    def test_degenerate_denominator(self):
        from ineqif import contaminate

        F = contaminate(make_distribution("uniform", 0.0, 1.0), 0.5, 0.0)
        with pytest.raises(DegenerateDenominator):
            qsr(F)


class TestPlugins:
    def test_gini_on_empirical_constant(self):
        assert gini(Empirical.from_values([4.0] * 4)) == pytest.approx(
            0.0, abs=1e-15)

    def test_gini_on_empirical_two_points_polygon_oracle(self):
        # oracle: direct integration of the two-point Lorenz polygon
        ps = np.linspace(0.0, 1.0, 200001)
        quantile = np.where(ps <= 0.5, 1.0, 3.0)
        q_of_p = np.cumsum(quantile) * (ps[1] - ps[0])
        lor = (q_of_p - q_of_p[0]) / 2.0
        r_polygon = float(trapezoid(lor, ps))
        oracle = 1.0 - 2.0 * r_polygon
        assert oracle == pytest.approx(0.25, abs=1e-4)
        assert gini(Empirical.from_values([1.0, 3.0])) == pytest.approx(
            0.25, abs=1e-12)

    @pytest.mark.parametrize("values", [
        [3.0],
        [2.0, 2.0],
        [1.0, 3.0, 3.0, 3.0, 7.0],
        np.random.default_rng(1000).integers(0, 4, size=1000).tolist(),
    ], ids=["n1", "n2", "n5", "n1000"])
    def test_empirical_first_moment_equals_mid_cdf_route(self, values):
        # sum_i x_(i) (i - 1/2) / n^2 against the definition mean(x Fmid(x))
        # on tie-heavy integer incomes
        E = Empirical.from_values(values)
        reference = float(np.mean(E.values * E.mid_cdf_array(E.values)))
        assert _gini_first_moment(E) == pytest.approx(
            reference, rel=1e-13)

    def test_qsr_on_empirical_brute_force_oracle(self):
        # brute-force empirical integrals under the ceil(np) quantile:
        # Q(0.2)=x_(2)=2, Q(0.8)=x_(8)=8, N = (9+10)/10, D = (1+2)/10
        xs = np.arange(1.0, 11.0)
        q1 = xs[math.ceil(10 * 0.2) - 1]
        q4 = xs[math.ceil(10 * 0.8) - 1]
        n_mass = xs[xs > q4].sum() / 10.0
        d_mass = xs[xs <= q1].sum() / 10.0
        oracle = n_mass / d_mass
        assert oracle == pytest.approx(19.0 / 3.0, abs=1e-12)
        assert qsr(Empirical.from_values(xs)) == pytest.approx(
            oracle, abs=1e-12)


class TestInvariances:
    @pytest.mark.parametrize("mid", ["ge:2", "theil", "mld", "atkinson:0.5",
                                     "gini", "qsr"])
    def test_scale_invariance_quick(self, mid, fleet):
        F = fleet["exp:1"]
        T = parse_measure_id(mid)
        assert T.evaluate(F) == pytest.approx(T.evaluate(scaled(F, 7.0)),
                                              abs=1e-9)

    def test_kolm_translation_invariance_quick(self):
        T = parse_measure_id("kolm:1")
        F = make_distribution("uniform", 0.0, 1.0)
        assert T.evaluate(F) == pytest.approx(T.evaluate(translated(F, 3.0)),
                                              abs=1e-9)

    def test_ge_limits_quick(self, fleet):
        F = fleet["exp:1"]
        theil = parse_measure_id("theil").evaluate(F)
        mld = parse_measure_id("mld").evaluate(F)
        assert parse_measure_id("ge:1.0001").evaluate(F) == pytest.approx(
            theil, abs=1e-3)
        assert parse_measure_id("ge:0.0001").evaluate(F) == pytest.approx(
            mld, abs=1e-3)

    def test_atkinson_alpha_one_identity_quick(self, fleet):
        F = fleet["exp:1"]
        mld = parse_measure_id("mld").evaluate(F)
        spec = atkinson_from_appendix_parameter(1.0 - 1e-4)
        assert functional_value(spec, F).value == pytest.approx(
            1.0 - math.exp(-mld), abs=1e-3)


class TestRegistry:
    def test_canonical_ids(self):
        assert parse_measure_id("ge:2.0").id == "ge:2"
        assert parse_measure_id("kolm:1.0").id == "kolm:1"
        assert parse_measure_id("gini").id == "gini"

    def test_unknown_ids(self):
        for bad in ("zenga", "ge", "theil:1", "atkinson", "ge:x"):
            with pytest.raises(InvalidParameter):
                parse_measure_id(bad)

    def test_mean_functional(self):
        F = make_distribution("exp", 2.0)
        assert mean_functional().evaluate(F) == pytest.approx(0.5)


class TestSample:
    def test_sorts_and_validates(self):
        s = Empirical.from_values([3.0, 1.0, 2.0])
        assert list(s.values) == [1.0, 2.0, 3.0]
        assert s.n == 3
        with pytest.raises(InvalidParameter):
            Empirical.from_values([-1.0, 2.0])
        with pytest.raises(InvalidParameter):
            Empirical.from_values([])

    def test_insert_keeps_order(self):
        s = Empirical.from_values([1.0, 3.0]).with_inserted(2.0)
        assert list(s.values) == [1.0, 2.0, 3.0]
        with pytest.raises(InvalidParameter):
            s.with_inserted(-1.0)
