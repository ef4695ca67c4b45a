import math

import numpy as np
import pytest

from ineqif import (
    Dirac,
    Empirical,
    RngStream,
    draw_sample,
    if_special,
    make_distribution,
    mc_variance_study,
    mean_functional,
    parse_measure_id,
    sensitivity_curve,
)
from ineqif.errors import InvalidParameter


class TestDrawSample:
    def test_dirac_constant(self):
        s = draw_sample(Dirac(3.0), 5, RngStream(0))
        assert list(s.values) == [3.0] * 5

    def test_exponential_mean_within_clt_band(self):
        # 3 sigma / sqrt(n) = 0.0095 for n = 1e5
        s = draw_sample(make_distribution("exp", 1.0), 10 ** 5, RngStream(42))
        assert s.mean() == pytest.approx(1.0, abs=0.02)

    def test_determinism_per_stream(self):
        F = make_distribution("lognormal", 0.0, 0.5)
        a = draw_sample(F, 1000, RngStream(7, 3))
        b = draw_sample(F, 1000, RngStream(7, 3))
        assert np.array_equal(a.values, b.values)

    def test_streams_are_distinct(self):
        F = make_distribution("exp", 1.0)
        a = draw_sample(F, 100, RngStream(7, 0))
        b = draw_sample(F, 100, RngStream(7, 1))
        assert not np.array_equal(a.values, b.values)

    def test_rejects_empty(self):
        with pytest.raises(InvalidParameter):
            draw_sample(make_distribution("exp", 1.0), 0, RngStream(0))


class TestSensitivityCurve:
    def test_mean_is_exact_algebra(self):
        s = Empirical.from_values([1.0, 2.0, 4.0])
        z = 10.0
        assert sensitivity_curve(mean_functional(), s, z) == pytest.approx(
            z - s.mean(), abs=1e-12)

    def test_constant_sample_at_constant_point(self):
        s = Empirical.from_values([2.0] * 6)
        assert sensitivity_curve(parse_measure_id("theil"), s, 2.0) == \
            pytest.approx(0.0, abs=1e-12)

    def test_theil_tracks_influence_function(self):
        F = make_distribution("exp", 1.0)
        s = draw_sample(F, 2000, RngStream(7))
        sc = sensitivity_curve(parse_measure_id("theil"), s, 2.0)
        target = if_special("theil", F, 2.0)
        assert sc == pytest.approx(target, rel=0.05)

    def test_convergence_in_n(self):
        F = make_distribution("exp", 1.0)
        T = parse_measure_id("theil")
        target = if_special("theil", F, 2.0)
        medians = []
        for n in (500, 2000, 8000):
            devs = [abs(sensitivity_curve(T, draw_sample(F, n, RngStream(seed)),
                                          2.0) - target)
                    for seed in range(20)]
            medians.append(float(np.median(devs)))
        assert medians[0] > medians[1] > medians[2]


class TestMcVarianceStudy:
    def test_mean_on_exponential(self):
        # Var(X) = 1 exactly; 400 replicas keep the chi^2 spread inside 15%
        report = mc_variance_study(mean_functional(),
                                   make_distribution("exp", 1.0),
                                   20000, 400, RngStream(42))
        assert report.if_variance == pytest.approx(1.0, abs=1e-6)
        assert 0.85 <= report.ratio <= 1.15
        assert report.rejections == 0

    def test_theil_on_exponential(self):
        report = mc_variance_study(parse_measure_id("theil"),
                                   make_distribution("exp", 1.0),
                                   20000, 400, RngStream(42))
        assert 0.85 <= report.ratio <= 1.15

    def test_degenerate_near_equality(self):
        report = mc_variance_study(parse_measure_id("theil"),
                                   make_distribution("uniform", 1.0, 1.0 + 1e-9),
                                   200, 10, RngStream(1))
        assert report.degenerate
        assert math.isnan(report.ratio)
        assert report.mc_variance == pytest.approx(0.0, abs=1e-12)
        assert report.to_dict()["ratio"] is None

    def test_reproducibility_bit_identical(self):
        T = parse_measure_id("mld")
        F = make_distribution("exp", 1.0)
        a = mc_variance_study(T, F, 500, 20, RngStream(11))
        b = mc_variance_study(T, F, 500, 20, RngStream(11))
        assert a == b

    def test_needs_two_replicas(self):
        with pytest.raises(InvalidParameter):
            mc_variance_study(mean_functional(), make_distribution("exp", 1.0),
                              100, 1, RngStream(0))
