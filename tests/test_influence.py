import math

import numpy as np
import pytest

from ineqif import (
    DEFAULT_MEASURE_IDS,
    Dirac,
    Empirical,
    asymptotic_variance,
    contaminate,
    default_grid,
    gateaux_if,
    if_curve,
    if_special,
    integrate,
    lorenz_area,
    make_distribution,
    mean_functional,
    parse_measure_id,
    printed_variants,
    qsr_components,
    scaled,
)
from ineqif import influence
from ineqif.cli import parse_distribution
from ineqif.errors import DomainError, InvalidParameter, KinkPoint, MomentDiverges

EULER_GAMMA = 0.5772156649015329

THEIL_LIKE_IDS = ("ge:2", "ge:0.5", "theil", "mld", "atkinson:0.5",
                  "champernowne", "kolm:1")


class TestTheorem1:
    def test_centering_theil_exponential(self):
        F = make_distribution("exp", 1.0)
        residual = F.expect(lambda x: np.array(
            [if_special("theil", F, float(v)) for v in np.atleast_1d(x)]))
        assert abs(residual) <= 1e-8

    def test_mld_exponential_at_one(self):
        # oracle: E log X = -gamma, so IF(1) = 0 - (0 - (-gamma)) = -gamma
        F = make_distribution("exp", 1.0)
        oracle = gateaux_if(parse_measure_id("mld"), F, 1.0)
        assert oracle.value == pytest.approx(-EULER_GAMMA, abs=1e-8)
        assert if_special("mld", F, 1.0) == pytest.approx(
            -EULER_GAMMA, abs=1e-9)

    @pytest.mark.parametrize("z", [0.5, 1.0, 2.0, 5.0])
    def test_ge2_matches_oracle(self, z):
        F = make_distribution("exp", 1.0)
        closed = if_special("ge:2", F, z)
        oracle = gateaux_if(parse_measure_id("ge:2"), F, z)
        assert closed == pytest.approx(oracle.value, abs=1e-5)

    @pytest.mark.parametrize("mid", THEIL_LIKE_IDS)
    @pytest.mark.parametrize("spec_name", ["exp:1", "uniform:0,1",
                                           "pareto:3,1", "lognormal:0,0.5"])
    def test_equals_specialized_form(self, mid, spec_name, fleet):
        # every printed display flagged as matching the normative form,
        # evaluated as printed, equals the Theorem-1 kernel
        F = fleet[spec_name]
        T = parse_measure_id(mid)
        rows = [v for v in printed_variants(mid) if v.matches_normative]
        # no printed Kolm display matches the normative form
        assert rows or T.spec.family == "kolm"
        for v in rows:
            for z in default_grid(F, mid)[::5]:
                printed = v.evaluate(F, float(z), T.spec)
                normative = if_special(T, F, float(z))
                assert printed == pytest.approx(
                    normative, rel=1e-11, abs=1e-13), v.source

    def test_domain_error_at_zero_for_log_families(self):
        F = make_distribution("exp", 1.0)
        with pytest.raises(DomainError):
            if_special("mld", F, 0.0)
        with pytest.raises(DomainError):
            if_special("champernowne", F, 0.0)

    def test_rejects_negative_point(self):
        with pytest.raises(InvalidParameter):
            if_special("theil", make_distribution("exp", 1.0), -1.0)


class TestSpecialForms:
    def test_mld_at_e_oracle_value(self):
        # gateaux oracle fixes the sign convention: (e-1) - (1 + gamma)
        F = make_distribution("exp", 1.0)
        oracle = gateaux_if(parse_measure_id("mld"), F, math.e)
        expected = (math.e - 1.0) - (1.0 + EULER_GAMMA)
        assert oracle.value == pytest.approx(expected, abs=1e-8)
        assert if_special("mld", F, math.e) == pytest.approx(expected, abs=1e-9)

    def test_theil_vanishes_at_mean_under_near_equality(self):
        F = make_distribution("uniform", 1.0, 1.0 + 1e-9)
        assert abs(if_special("theil", F, F.mean())) <= 1e-6

    def test_ge_appendix_coefficient_agrees_with_oracle(self):
        F = make_distribution("exp", 1.0)
        closed = if_special("ge:2", F, 2.0)
        oracle = gateaux_if(parse_measure_id("ge:2"), F, 2.0)
        assert closed == pytest.approx(oracle.value, abs=1e-5)


class TestGiniIF:
    def test_centering_exponential(self):
        F = make_distribution("exp", 1.0)
        residual = F.expect(lambda x: np.array(
            [if_special("gini", F, float(v)) for v in np.atleast_1d(x)]))
        assert abs(residual) <= 1e-7

    def test_uniform_half_adjudicated_value(self):
        # hand evaluation with R = 1/3, C(F, 0.5)/mu = 0.125/0.5:
        # 2[1/3 - 1/4 + (1/3 - 1/2)] = -1/6; the Gateaux oracle confirms the
        # mean-normalized cumulative functional
        F = make_distribution("uniform", 0.0, 1.0)
        r = lorenz_area(F)
        assert r == pytest.approx(1.0 / 3.0, abs=1e-9)
        hand = 2.0 * (r - 0.125 / 0.5 + (0.5 / 0.5) * (r - 0.5))
        assert hand == pytest.approx(-1.0 / 6.0, abs=1e-8)
        oracle = gateaux_if(parse_measure_id("gini"), F, 0.5)
        assert oracle.value == pytest.approx(-1.0 / 6.0, abs=1e-7)
        assert if_special("gini", F, 0.5) == pytest.approx(-1.0 / 6.0, abs=1e-9)

    @pytest.mark.parametrize("z", [0.1, 0.5, 1.0, 2.0, 4.0])
    def test_exponential_matches_oracle(self, z):
        F = make_distribution("exp", 1.0)
        oracle = gateaux_if(parse_measure_id("gini"), F, z)
        assert if_special("gini", F, z) == pytest.approx(oracle.value, abs=1e-5)

    @pytest.mark.parametrize("case,z", [
        ("sample", 1.0), ("sample", 2.0), ("sample", 5.0), ("sample", 7.0),
        ("dirac", 2.0), ("contaminated", 1.0),
    ])
    def test_matches_oracle_on_an_atom(self, case, z):
        # the closed form reads F(z) and the partial mean at z with the
        # atom counted in full, and so does the oracle's limit
        F = {"sample": Empirical.from_values([1, 2, 2, 5, 7]),
             "dirac": Dirac(2.0),
             "contaminated": contaminate(make_distribution("exp", 1.0),
                                         0.3, 1.0)}[case]
        assert F.mass(z) > 0.0
        oracle = gateaux_if(parse_measure_id("gini"), F, z)
        assert if_special("gini", F, z) == pytest.approx(oracle.value,
                                                         abs=1e-9)


class TestQsrIF:
    def test_centering_uniform_by_region_quadrature(self):
        F = make_distribution("uniform", 0.0, 1.0)
        pieces = [(0.0, 0.2), (0.2, 0.8), (0.8, 1.0)]
        total = sum(
            integrate(lambda x: np.array(
                [if_special("qsr", F, float(v)) for v in np.atleast_1d(x)]) * F.pdf(x),
                a, b)
            for a, b in pieces)
        assert abs(total) <= 1e-6

    def test_uniform_middle_region_constant_value(self):
        # hand evaluation of I2 with N=0.18, D=0.02, Q(0.2)=0.2, Q(0.8)=0.8
        F = make_distribution("uniform", 0.0, 1.0)
        hand = (0.2 * 0.8 * 0.02 - 0.2 * 0.2 * 0.18) / 0.02 ** 2
        assert hand == pytest.approx(-10.0, abs=1e-12)
        oracle = gateaux_if(parse_measure_id("qsr"), F, 0.5)
        assert oracle.value == pytest.approx(-10.0, abs=1e-4)
        for z in (0.25, 0.4, 0.5, 0.65, 0.79):
            assert if_special("qsr", F, z) == pytest.approx(-10.0, abs=1e-12)

    def test_kink_points_flagged(self):
        F = make_distribution("uniform", 0.0, 1.0)
        with pytest.raises(KinkPoint):
            if_special("qsr", F, 0.2)
        with pytest.raises(KinkPoint):
            if_special("qsr", F, 0.8)


class TestGateauxOracle:
    def test_mean_functional_is_exactly_linear(self):
        F = make_distribution("exp", 1.0)
        est = gateaux_if(mean_functional(), F, 5.0)
        assert est.value == pytest.approx(5.0 - 1.0, abs=1e-9)

    def test_constant_functional(self):
        from ineqif import MeasureFunctional

        T = MeasureFunctional(id="const", kind="custom",
                              fn=lambda F: 0.25)
        est = gateaux_if(T, make_distribution("exp", 1.0), 2.0)
        assert est.value == 0.0

    def test_theil_self_consistency(self):
        F = make_distribution("exp", 1.0)
        closed = if_special("theil", F, 2.0)
        oracle = gateaux_if(parse_measure_id("theil"), F, 2.0)
        assert closed == pytest.approx(oracle.value, abs=1e-5)

    def test_scale_equivariance_of_theil_if(self):
        # IF(c z, law of cX) equals IF(z, law of X) for the scale-free Theil
        F = make_distribution("exp", 1.0)
        G = scaled(F, 3.0)
        for z in (0.5, 1.0, 2.0):
            a = gateaux_if(parse_measure_id("theil"), F, z).value
            b = gateaux_if(parse_measure_id("theil"), G, 3.0 * z).value
            assert a == pytest.approx(b, abs=1e-8)


COMPLEX_STEP_IDS = ("theil", "mld", "ge:2", "ge:-0.5", "atkinson:0.5",
                    "champernowne", "kolm:1", "gini")
SCALE_MODELS = ("exp:1", "uniform:0,1", "pareto:3,1", "lognormal:0,0.5",
                "sm:2,1,3", "lognormal:10,0.5", "exp:1e-4", "pareto:3,33333.3",
                "uniform:1e-150,2e-150")
# Kolm has no value at mu ~ 1e4, where h1(mu) = e^{-mu} underflows
KOLM_UNDERFLOWS = ("lognormal:10,0.5", "exp:1e-4", "pareto:3,33333.3")


class TestComplexStepOracle:
    """The quadruple family and the Gini take the complex step Im T(F_ih)/h:
    it agrees with the closed form to rounding, at any scale."""

    @pytest.mark.parametrize("mid,spec_name", [
        (mid, m) for m in SCALE_MODELS for mid in COMPLEX_STEP_IDS
        if not (mid == "kolm:1" and m in KOLM_UNDERFLOWS)])
    def test_agrees_with_the_closed_form(self, mid, spec_name):
        F = parse_distribution(spec_name)
        curve = if_curve(mid, F, default_grid(F, mid, 12), with_oracle=True)
        assert not curve.point_errors
        scale = np.max(np.abs(curve.closed_form))
        assert curve.max_abs_discrepancy <= 1e-10 * scale

    def test_one_evaluation_per_point(self, monkeypatch):
        from ineqif import influence

        def no_richardson(*args, **kwargs):
            raise AssertionError("Richardson extrapolation was called")

        monkeypatch.setattr(influence, "derivative_at_zero_plus",
                            no_richardson)
        F = make_distribution("exp", 1.0)
        for mid in COMPLEX_STEP_IDS + ("qsr",):
            assert math.isfinite(gateaux_if(parse_measure_id(mid), F, 2.0).value)

    def test_huge_if_stays_in_the_linear_regime(self):
        # IF ~ z^-3; Richardson saturated at 95533.59 here. IF(1) is 0 to
        # rounding: its O(1) terms cancel
        F = make_distribution("pareto", 3.0, 1.0)
        curve = if_curve("atkinson:-2", F, [1e-100, 1e-10, 1.0],
                         with_oracle=True)
        assert not curve.point_errors
        np.testing.assert_allclose(curve.oracle, curve.closed_form,
                                   rtol=1e-9, atol=1e-15)

    @pytest.mark.parametrize("mid", ["mld", "champernowne"])
    def test_zero_income_is_an_oracle_domain_error(self, mid):
        F = make_distribution("exp", 1.0)
        with pytest.raises(DomainError, match="undefined at income 0"):
            gateaux_if(parse_measure_id(mid), F, 0.0)
        curve = if_curve(mid, F, [0.0, 1.0], with_oracle=True)
        assert (0, f"oracle: {mid} is undefined at income 0 (h uses log or "
                   "a negative power)") in curve.point_errors
        assert [i for i, _ in curve.point_errors] == [0, 0]

    @pytest.mark.parametrize("mid", ["gini", "theil"])
    def test_step_of_zero_is_an_oracle_domain_error(self, mid):
        # |z - mu|/mu overflows, and so does the closed form
        F = make_distribution("uniform", 1e-300, 2e-300)
        with pytest.raises(DomainError, match="complex step underflows"):
            gateaux_if(parse_measure_id(mid), F, 1e10)

    def test_error_is_a_truncation_bound(self):
        F = make_distribution("exp", 1.0)
        est = gateaux_if(parse_measure_id("theil"), F, 2.0)
        assert type(est.value) is float
        assert 0.0 < est.error <= 1e-15 * abs(est.value)

    @pytest.mark.parametrize("spec_name", ["lognormal:0.706274,0.925595",
                                           "sm:2.47803,3.55809,3.4562",
                                           "sm:2.46473,0.875107,3.01069"])
    def test_qsr_complex_step_where_richardson_left_its_regime(self,
                                                                spec_name):
        # a Richardson first step of 1e-2 lies outside the asymptotic regime
        # at the level-0.06 grid point; the complex step has no such step
        F = parse_distribution(spec_name)
        curve = if_curve("qsr", F, default_grid(F, "qsr"), with_oracle=True)
        assert not curve.point_errors
        scale = np.max(np.abs(curve.closed_form))
        assert curve.max_abs_discrepancy <= 1e-12 * scale


def _one_point_oracle(T, F, grid):
    """gateaux_if at each point: values (NaN where it raises) and the
    errors as if_curve records them."""
    values, errors = [], []
    for i, z in enumerate(grid):
        try:
            values.append(gateaux_if(T, F, float(z)).value)
        except Exception as exc:
            values.append(math.nan)
            errors.append((i, f"oracle: {exc}"))
    return np.array(values), errors


class TestGridOracle:
    """if_curve evaluates T once on a grid of mixtures; gateaux_if is its
    one-point case, with the same values and the same per-point errors."""

    @pytest.mark.parametrize("mid,spec_name", [
        (mid, m) for m in SCALE_MODELS for mid in COMPLEX_STEP_IDS + ("qsr",)])
    def test_grid_equals_one_point(self, mid, spec_name):
        F = parse_distribution(spec_name)
        T = parse_measure_id(mid)
        curve = if_curve(T, F, default_grid(F, T, 12), with_oracle=True)
        values, errors = _one_point_oracle(T, F, curve.grid)
        assert [e for e in curve.point_errors
                if e[1].startswith("oracle")] == errors
        finite = np.isfinite(values)
        np.testing.assert_array_equal(np.isfinite(curve.oracle), finite)
        if finite.any():
            scale = np.max(np.abs(values[finite]))
            assert np.max(np.abs(curve.oracle - values)[finite]) \
                <= 1e-15 * scale

    @pytest.mark.parametrize("mid,spec_name,grid", [
        ("mld", "exp:1", [0.0, 0.5, 1.0]),  # zero income
        ("theil", "uniform:1e-300,2e-300", [1.5e-300, 1e10]),  # step of 0
        ("qsr", "uniform:1e-300,2e-300", [1.5e-300, 1e10]),  # D = 0 first
        ("ge:-1", "exp:1", [0.5, 1.0, 2.0]),  # E X^-1 diverges
        ("kolm:1", "exp:2e-05", [1e4, 5e4, 1e5]),  # h1(mu) underflows
        ("atkinson:-2", "pareto:3,1", [1e-160, 1.0]),  # non-finite IF
    ])
    def test_errors_are_the_one_point_errors(self, mid, spec_name, grid):
        F = parse_distribution(spec_name)
        T = parse_measure_id(mid)
        curve = if_curve(T, F, grid, with_oracle=True)
        values, errors = _one_point_oracle(T, F, grid)
        oracle_errors = [e for e in curve.point_errors
                         if e[1].startswith("oracle")]
        assert oracle_errors and oracle_errors == errors
        np.testing.assert_array_equal(np.isnan(curve.oracle), np.isnan(values))

    @pytest.mark.parametrize("spec_name", ["exp:1", "lognormal:0,0.5",
                                           "uniform:0,1"])
    def test_one_contaminated_evaluation_per_curve(self, monkeypatch,
                                                   spec_name):
        from ineqif import MeasureFunctional
        from ineqif.distributions import Contaminated

        calls = []
        evaluate = MeasureFunctional.evaluate

        def counted(self, F):
            calls.append(isinstance(F, Contaminated))
            return evaluate(self, F)

        monkeypatch.setattr(MeasureFunctional, "evaluate", counted)
        F = parse_distribution(spec_name)
        for mid in DEFAULT_MEASURE_IDS:
            calls.clear()
            curve = if_curve(mid, F, default_grid(F, mid), with_oracle=True)
            assert not curve.point_errors
            assert sum(calls) == 1, mid

    def test_qsr_oracle_at_the_quintiles_is_the_closed_forms_limit(
            self, fleet):
        # the closed form refuses z = Q(p) (KinkPoint) but is continuous
        # there; Richardson read the jump of the atom-in-full QSR instead
        T = parse_measure_id("qsr")
        for F in fleet.values():
            kernel = influence._closed_if_vectorized(T, F)
            scale = np.max(np.abs(kernel(default_grid(F, T))))
            for p in (0.2, 0.8):
                q = F.quantile(p)
                oracle = gateaux_if(T, F, q).value
                for side in (0.0, math.inf):
                    limit = kernel(np.nextafter(q, side))
                    assert abs(oracle - limit) <= 1e-12 * scale, (F, p, side)

    def test_qsr_on_an_atom_at_a_quintile_keeps_richardson(self,
                                                            monkeypatch):
        calls = []
        richardson = influence.derivative_at_zero_plus
        monkeypatch.setattr(influence, "derivative_at_zero_plus",
                            lambda *a: calls.append(1) or richardson(*a))
        # Q(0.2) = 2 and Q(0.8) = 6 stay put under a small contamination at
        # z = 3.5 (F(2) = 2/7 > 0.2): the atom-in-full N and D are both
        # (1 - eps) times their base values, so the QSR is 7/3 along the path
        F = Empirical.from_values([1.0, 2.0, 3.0, 4.0, 5.0, 6.0, 7.0])
        assert F.mass(F.quantile(0.2)) > 0.0
        assert gateaux_if(parse_measure_id("qsr"), F, 3.5).value == \
            pytest.approx(0.0, abs=1e-9)
        assert calls


class TestAsymptoticVariance:
    def test_mean_functional_gives_population_variance(self):
        F = make_distribution("exp", 1.0)
        assert asymptotic_variance(mean_functional(), F) == pytest.approx(
            1.0, abs=1e-8)

    def test_near_equality_theil_is_tiny(self):
        F = make_distribution("uniform", 1.0, 1.0 + 1e-9)
        assert asymptotic_variance(parse_measure_id("theil"), F) <= 1e-12

    def test_gini_exponential_twelfth(self):
        # expanding E[(z/2 + 2 e^-z - 3/2)^2] termwise gives exactly 1/12
        F = make_distribution("exp", 1.0)
        assert asymptotic_variance(parse_measure_id("gini"), F) == pytest.approx(
            1.0 / 12.0, abs=1e-8)

    def test_nonnegative_across_fleet(self, fleet):
        for F in fleet.values():
            for mid in ("theil", "mld", "gini", "qsr"):
                assert asymptotic_variance(parse_measure_id(mid), F) >= 0.0

    def test_gini_reads_the_partial_mean_in_one_call(self, monkeypatch):
        calls = []
        partial_mean = Empirical.partial_mean
        monkeypatch.setattr(Empirical, "partial_mean", lambda self, t: (
            calls.append(np.shape(t)) or partial_mean(self, t)))
        s = Empirical.from_values(np.random.default_rng(3).lognormal(size=500))
        T = parse_measure_id("gini")
        variance = asymptotic_variance(T, s)
        assert calls == [(500,)]
        by_point = [if_special(T, s, float(x)) for x in s.values]
        assert variance == pytest.approx(np.mean(np.square(by_point)),
                                         rel=1e-12)

    def test_qsr_on_a_sample_lists_no_atoms(self):
        s = Empirical.from_values(np.random.default_rng(3).lognormal(size=500))
        # the QSR IF by its three pieces, at every observation (two of them
        # sit on the quintile boundaries, where if_special refuses)
        n, d, q1, q4 = qsr_components(s)
        x = s.values
        low = (-x * n + 0.2 * q4 * d + 0.8 * q1 * n) / d ** 2
        mid = (0.2 * q4 * d - 0.2 * q1 * n) / d ** 2
        high = (x * d - 0.8 * q4 * d - 0.2 * q1 * n) / d ** 2
        influence = np.where(x <= q1, low, np.where(x < q4, mid, high))
        assert asymptotic_variance(parse_measure_id("qsr"), s) == \
            pytest.approx(np.mean(influence ** 2), rel=1e-12)


class TestIFCurve:
    def test_mld_with_oracle(self):
        F = make_distribution("exp", 1.0)
        curve = if_curve("mld", F, [0.5, 1.0, 2.0], with_oracle=True)
        assert curve.max_abs_discrepancy <= 1e-5
        assert not curve.point_errors

    def test_gini_point_without_oracle(self):
        F = make_distribution("uniform", 0.0, 1.0)
        curve = if_curve("gini", F, [0.5])
        assert curve.oracle is None
        assert curve.closed_form[0] == pytest.approx(-1.0 / 6.0, abs=1e-9)

    def test_empty_grid_rejected(self):
        with pytest.raises(InvalidParameter):
            if_curve("mld", make_distribution("exp", 1.0), [])

    @pytest.mark.parametrize("grid", [[1.0, math.inf], [1.0, math.nan, 2.0],
                                      [math.nan], [-1.0, 1.0], [1.0, 1.0]])
    def test_non_finite_or_unordered_grid_rejected(self, grid):
        with pytest.raises(InvalidParameter, match="grid must be finite"):
            if_curve("theil", make_distribution("exp", 1.0), grid)

    def test_per_point_failures_recorded_not_fatal(self):
        F = make_distribution("uniform", 0.0, 1.0)
        curve = if_curve("qsr", F, [0.1, 0.2, 0.5])  # 0.2 is a kink
        assert len(curve.point_errors) == 1
        assert curve.point_errors[0][0] == 1
        assert np.isnan(curve.closed_form[1])
        assert np.isfinite(curve.closed_form[2])

    @pytest.mark.parametrize("mid", DEFAULT_MEASURE_IDS + ("ge:0.5",))
    @pytest.mark.parametrize("spec_name", ["exp:1", "uniform:0,1",
                                           "pareto:3,1", "lognormal:0,0.5",
                                           "sm:2,1,3"])
    def test_vectorized_curve_equals_scalar_route(self, mid, spec_name):
        F = parse_distribution(spec_name)
        curve = if_curve(mid, F, default_grid(F, mid))
        assert not curve.point_errors
        for z, value in zip(curve.grid, curve.closed_form):
            assert value == pytest.approx(if_special(mid, F, float(z)),
                                          rel=1e-13)

    @pytest.mark.parametrize("spec_name", ["exp:1", "uniform:0,1",
                                           "pareto:3,1", "lognormal:0,0.5",
                                           "sm:2,1,3",
                                           "uniform:1e-150,2e-150"])
    def test_qsr_oracle_tracks_closed_form(self, spec_name):
        # exact mixture quintiles keep quantization out of the QSR quotients;
        # the kink band is relative to the quintile, so at mu = 1.5e-150 it
        # does not swallow the whole grid
        F = parse_distribution(spec_name)
        curve = if_curve("qsr", F, default_grid(F, "qsr"), with_oracle=True)
        assert not curve.point_errors
        assert curve.max_abs_discrepancy <= 4e-8

    def test_point_checks_precede_moment_errors(self):
        F = make_distribution("uniform", 0.0, 1.0)
        curve = if_curve("ge:-1", F, [0.0, 0.5, 1.0])
        assert [i for i, _ in curve.point_errors] == [0, 1, 2]
        assert "h(z) undefined" in curve.point_errors[0][1]
        for _, message in curve.point_errors[1:]:
            assert "fails to converge" in message
        assert np.all(np.isnan(curve.closed_form))

    def test_default_grid_avoids_qsr_kinks(self, fleet):
        for F in fleet.values():
            grid = default_grid(F, "qsr")
            q1, q4 = F.quantile(0.2), F.quantile(0.8)
            assert all(abs(z - q1) > 1e-6 and abs(z - q4) > 1e-6 for z in grid)


    def test_non_finite_closed_value_is_a_point_error(self):
        # z^-3 overflows at z = 1e-160, and so does h(z) = z^-2 in the
        # oracle's evaluation of T
        F = make_distribution("pareto", 3.0, 1.0)
        curve = if_curve("atkinson:-2", F, [1e-160, 1.0], with_oracle=True)
        assert curve.point_errors == ((0, "closed: IF is inf at z=1e-160"),
                                      (0, "oracle: IF is nan at z=1e-160"))
        assert np.isnan(curve.closed_form[0])
        assert np.isnan(curve.oracle[0])
        assert np.isfinite(curve.oracle[1])

    def test_default_grid_on_a_point_mass_is_one_point(self):
        assert default_grid(Dirac(1.0), "theil").tolist() == [1.0]
        assert default_grid(Dirac(1.0), "qsr").tolist() == [1.0]


def _outcome(f, *args):
    """f(*args) as text, or the error it raised."""
    try:
        return repr(f(*args))
    except Exception as exc:
        return f"{type(exc).__name__}: {exc}"


class TestPointMass:
    @pytest.mark.parametrize("mid", DEFAULT_MEASURE_IDS)
    @pytest.mark.parametrize("x", [1.0, 2.5])
    def test_dirac_agrees_with_the_one_point_sample(self, mid, x):
        T = parse_measure_id(mid)
        routes = []
        for F in (Dirac(x), Empirical.from_values([x])):
            curve = if_curve(T, F, default_grid(F, T), with_oracle=True)
            routes.append((
                _outcome(T.evaluate, F),
                _outcome(asymptotic_variance, T, F),
                [repr(v) for v in np.concatenate(
                    [curve.grid, curve.closed_form, curve.oracle])],
                curve.point_errors,
            ))
        assert routes[0] == routes[1]


class TestCoefficientAdjudication:
    def test_variant_without_coefficient_fails_loudly(self):
        F = make_distribution("exp", 1.0)
        T = parse_measure_id("ge:2")
        without = {v.source: v for v in printed_variants(T)}[
            "without_coefficient"]
        assert not without.matches_normative
        excess = 0.0
        for z in default_grid(F, T):
            z = float(z)
            oracle = gateaux_if(T, F, z).value
            with_c = if_special(T, F, z)
            without_c = without.evaluate(F, z, T.spec)
            tol = max(1e-5, 1e-4 * abs(with_c))
            assert abs(with_c - oracle) <= tol
            excess = max(excess, abs(without_c - oracle) / tol)
        assert excess > 10.0


class TestPrintedVariants:
    def test_mld_section2_disagrees_with_oracle(self):
        F = make_distribution("exp", 1.0)
        variants = {v.source: v for v in printed_variants("mld")}
        v = variants["section2_printed"]
        assert not v.matches_normative
        z = 2.0
        oracle = gateaux_if(parse_measure_id("mld"), F, z).value
        printed = v.evaluate(F, z, parse_measure_id("mld").spec)
        assert abs(printed - oracle) > 0.1
        appendix = variants["appendix_printed"]
        assert appendix.matches_normative
        assert appendix.evaluate(F, z, None) == pytest.approx(
            oracle, abs=1e-5)

    def test_gini_appendix_literal_reading_breaks_off_unit_mean(self):
        F = make_distribution("uniform", 0.0, 1.0)
        v = printed_variants("gini")[0]
        assert v.source == "appendix_printed"
        literal = v.evaluate(F, 0.5, None)
        oracle = gateaux_if(parse_measure_id("gini"), F, 0.5).value
        assert abs(literal - oracle) > 0.1

    @pytest.mark.parametrize("mid", DEFAULT_MEASURE_IDS)
    def test_every_display_reads_only_names_the_namespace_supplies(self, mid):
        # an unknown name raises NameError, which verify's per-point handler
        # does not catch: the CLI would end in a traceback
        supplied = {"z"} | set(influence._FUNCTIONS) | set(influence._QUANTITIES)
        for v in printed_variants(mid):
            names = set(influence._COMPILED[v.printed_form].co_names)
            assert names <= supplied, (v.source, names - supplied)

    def test_a_display_computes_only_the_moments_it_reads(self):
        F = make_distribution("exp", 1.0)
        ge = parse_measure_id("ge:2")
        for v in printed_variants(ge):
            v.evaluate(F, 2.0, ge.spec)
        assert ("expect", "log") not in F._cache
        theil = parse_measure_id("theil")
        section2 = {v.source: v for v in printed_variants(theil)}[
            "section2_printed"]
        section2.evaluate(F, 2.0, theil.spec)  # reads E log X
        assert ("expect", "log") in F._cache

    def test_every_registered_measure_has_variant_metadata(self):
        for mid in ("ge:2", "theil", "mld", "atkinson:0.5", "champernowne",
                    "kolm:1", "gini", "qsr"):
            for v in printed_variants(mid):
                assert v.source in ("section2_printed", "appendix_printed",
                                    "without_coefficient")
                assert v.printed_form and v.normative_form


class TestMomentGuards:
    def test_divergent_pair_raises(self):
        F = make_distribution("uniform", 0.0, 1.0)
        with pytest.raises(MomentDiverges):
            if_special("ge:-1", F, 0.5)
