import math

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from ineqif import (
    DEFAULT_MEASURE_IDS,
    Dirac,
    Empirical,
    MCReport,
    MeasureFunctional,
    RngStream,
    asymptotic_variance,
    draw_sample,
    if_special,
    make_distribution,
    mc_variance_study,
    mean_functional,
    parse_measure_id,
    sensitivity_curve,
)
from ineqif import estimation
from ineqif.cli import parse_distribution
from ineqif.errors import DegenerateDenominator, DomainError, InvalidParameter
from ineqif.estimation import _philox_keys


class TestRngStream:
    @pytest.mark.parametrize("seed, stream_id", [
        (-1, 0), (0, -1), (1.0, 0), (0, 2.0), (True, 0), (0, False),
        ("1", 0), (None, 0)])
    def test_rejects_other_than_non_negative_ints(self, seed, stream_id):
        with pytest.raises(InvalidParameter, match="non-negative integer"):
            RngStream(seed, stream_id)

    def test_numpy_integers_are_taken_as_ints(self):
        rng = RngStream(np.int64(3), np.uint32(2))
        assert rng == RngStream(3, 2)
        assert type(rng.seed) is int and type(rng.stream_id) is int

    def test_substream_below_zero_is_rejected(self):
        with pytest.raises(InvalidParameter, match="stream_id"):
            RngStream(3, 2).substream(-3)


@settings(max_examples=300, deadline=None, derandomize=True)
@given(seed=st.integers(0, 2 ** 160 - 1),
       ids=st.lists(st.integers(0, 2 ** 40 - 1), min_size=1, max_size=6))
@example(seed=0, ids=[0, 2 ** 32 - 1, 2 ** 32])
@example(seed=2 ** 160 - 1, ids=[2 ** 32, 0, 2 ** 32 - 1])
@example(seed=7, ids=[2 ** 64, 2 ** 96 + 5, 1])
def test_philox_keys_are_numpys_seed_sequence_keys(seed, ids):
    # seeds past 2**128 carry more than the pool's four words of entropy;
    # ids from 2**32 on have a two-word spawn key
    want = [np.random.SeedSequence(seed, spawn_key=(sid,))
            .generate_state(2, np.uint64) for sid in ids]
    got = _philox_keys(seed, ids)
    assert got.dtype == np.uint64 and got.shape == (len(ids), 2)
    assert got.tolist() == np.array(want).tolist()


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

    def test_golden_stream_derivation(self):
        # pinned before the streams were keyed in one pass; the replica ids
        # cross 2**32, where the spawn key grows to two words
        report = mc_variance_study(parse_measure_id("mld"),
                                   parse_distribution("exp:1"), 1000, 23,
                                   RngStream(7, 2 ** 32 - 12))
        assert report.mc_variance == 0.4671365722157146

    def test_no_generator_built_without_rejections(self, monkeypatch):
        def refused(self):
            raise AssertionError(f"generator built for {self}")

        monkeypatch.setattr(RngStream, "generator", refused)
        report = mc_variance_study(parse_measure_id("gini"),
                                   parse_distribution("exp:1"), 1000, 23,
                                   RngStream(5))
        assert report.rejections == 0

    def test_needs_two_replicas(self):
        with pytest.raises(InvalidParameter):
            mc_variance_study(mean_functional(), make_distribution("exp", 1.0),
                              100, 1, RngStream(0))


def _reference_study(T, F, n, reps, rng):
    """The study's definition, one replica at a time: replica r is
    `draw_sample` on stream r + 1, and a DomainError redraws it on the next
    stream past the first reps + 1."""
    t0 = T.evaluate(F)
    if_var = asymptotic_variance(T, F)
    values = []
    rejections = 0
    extra = reps
    for r in range(reps):
        offset = r + 1
        while True:
            sample = draw_sample(F, n, rng.substream(offset))
            try:
                values.append(T.evaluate(sample))
                break
            except DomainError:
                rejections += 1
                extra += 1
                offset = extra
    dev = math.sqrt(n) * (np.array(values) - t0)
    mc_var = float(((dev - dev.mean()) ** 2).sum() / (reps - 1))
    degenerate = not (if_var > 1e-10)
    return MCReport(measure_id=T.id, distribution=F.descriptor(), n=n,
                    reps=reps, mc_variance=mc_var, if_variance=if_var,
                    ratio=math.nan if degenerate else mc_var / if_var,
                    seed=rng.seed, stream_id=rng.stream_id,
                    rejections=rejections, degenerate=degenerate)


def _assert_same_report(got, want):
    for name, value in want.to_dict().items():
        if isinstance(value, float):
            assert getattr(got, name) == pytest.approx(value, rel=1e-12,
                                                       abs=0.0), name
        else:
            assert got.to_dict()[name] == value, name


def _mean_below(threshold, error=DomainError):
    """The mean, raising `error` on every sample (row of a block) whose
    maximum exceeds `threshold`; its IF is the mean's."""
    mean = mean_functional()

    class MeanBelow(MeasureFunctional):
        def evaluate(self, F):
            if isinstance(F, Empirical) and (F.values[..., -1] > threshold).any():
                raise error(f"an observation above {threshold} on {F.descriptor()}")
            return super().evaluate(F)

    return MeanBelow(id=mean.id, kind=mean.kind, fn=mean.fn)


class TestStudyInBlocks:
    """The study in blocks of samples equals its per-replica definition."""

    @pytest.mark.parametrize("dist", ["exp:1", "lognormal:0,0.5", "sm:3,1,3",
                                      "uniform:0.2,1.4"])
    @pytest.mark.parametrize("mid", DEFAULT_MEASURE_IDS)
    def test_partial_last_block(self, mid, dist):
        T, F = parse_measure_id(mid), parse_distribution(dist)
        rng = RngStream(2018, 4)
        _assert_same_report(mc_variance_study(T, F, 1000, 23, rng),
                            _reference_study(T, F, 1000, 23, rng))

    def test_one_sample_per_block(self):
        T, F = parse_measure_id("theil"), parse_distribution("lognormal:0,0.5")
        _assert_same_report(mc_variance_study(T, F, 20000, 3, RngStream(9)),
                            _reference_study(T, F, 20000, 3, RngStream(9)))

    def test_rejections_redraw_on_the_same_streams(self):
        T, F = _mean_below(8.0), parse_distribution("exp:1")
        got = mc_variance_study(T, F, 1000, 23, RngStream(3))
        want = _reference_study(T, F, 1000, 23, RngStream(3))
        assert want.rejections > 0
        _assert_same_report(got, want)

    def test_other_errors_propagate_from_their_row(self):
        # replica 9, the last row of the first block, is the first above 8:
        # the error is its own, not the block's (`samples=10`)
        T = _mean_below(8.0, DegenerateDenominator)
        F = parse_distribution("exp:1")
        with pytest.raises(DegenerateDenominator,
                           match=r"^an observation above 8.0 on "
                                 r"empirical:n=1000$"):
            mc_variance_study(T, F, 1000, 23, RngStream(3))

    @pytest.mark.parametrize("key_chunk", [estimation._KEY_CHUNK, 7])
    @pytest.mark.parametrize("rng", [RngStream(1, 7),
                                     RngStream(7, 2 ** 32 - 12)])
    @pytest.mark.parametrize("dist", ["exp:1", "lognormal:0,0.5", "sm:3,1,3",
                                      "uniform:0.2,1.4", "pareto:4,1"])
    def test_one_evaluation_per_block_of_drawn_samples(self, dist, rng,
                                                       key_chunk, monkeypatch):
        # each row is bit for bit the sample draw_sample draws on its stream,
        # also where the keys are derived a few streams per call
        monkeypatch.setattr(estimation, "_KEY_CHUNK", key_chunk)
        evaluate = MeasureFunctional.evaluate
        blocks = []

        def spy(T, F):
            if isinstance(F, Empirical):
                blocks.append(F.values)
            return evaluate(T, F)

        monkeypatch.setattr(MeasureFunctional, "evaluate", spy)
        F = parse_distribution(dist)
        report = mc_variance_study(parse_measure_id("gini"), F, 1000, 23, rng)
        assert report.rejections == 0
        assert [b.shape for b in blocks] == [(10, 1000), (10, 1000), (3, 1000)]
        rows = np.concatenate(blocks)
        for r, row in enumerate(rows):
            drawn = draw_sample(F, 1000, rng.substream(r + 1)).values
            assert row.tobytes() == drawn.tobytes()
