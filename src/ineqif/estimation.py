"""Sampling, sensitivity curves, and Monte Carlo variance verification.

Sampling is inverse-transform only, driven by the counter-based Philox
generator: a (seed, stream_id) pair reproduces the same variates on any
platform or thread layout, and replica streams are independent by
construction.

A Monte Carlo study draws its replicas in blocks of equal-size samples,
each row from its own replica's stream, and evaluates the measure once per
block on a 2-D `Empirical`: one inverse transform, one sort and one
evaluation serve the whole block. The rows are the samples `draw_sample`
draws on the same streams, so the blocks change no result.
"""
from __future__ import annotations

import math
from dataclasses import asdict, dataclass

import numpy as np

from .distributions import Distribution, Empirical
from .errors import DomainError, IneqError, InvalidParameter
from .influence import asymptotic_variance
from .measures import MeasureFunctional

__all__ = [
    "RngStream",
    "draw_sample",
    "sensitivity_curve",
    "MCReport",
    "mc_variance_study",
]


# Values per block of Monte Carlo replicas: ten samples at n = 1000, one at
# the CLI's default n = 20000. Blocks of 50 samples at n = 1000 were no
# faster (in-process timing of the benchmark's 72 studies).
_BLOCK_VALUES = 10_000


@dataclass(frozen=True)
class RngStream:
    """Seedable, jump-ahead-capable uniform stream (Philox counter mode)."""

    seed: int
    stream_id: int = 0

    def generator(self) -> np.random.Generator:
        seq = np.random.SeedSequence(self.seed, spawn_key=(self.stream_id,))
        return np.random.Generator(np.random.Philox(seq))

    def substream(self, offset: int) -> "RngStream":
        return RngStream(self.seed, self.stream_id + int(offset))


def draw_sample(F: Distribution, n: int, rng: RngStream) -> Empirical:
    """n inverse-transform variates from F, sorted into an Empirical."""
    if n < 1:
        raise InvalidParameter(f"sample size must be >= 1, got {n}")
    u = rng.generator().random(int(n))
    return Empirical.from_values(F.quantile_array(u))


def sensitivity_curve(T: MeasureFunctional, s: Empirical, z: float) -> float:
    """Finite-sample influence analogue: (n+1) * (T(s + {z}) - T(s))."""
    t_n = T.evaluate(s)
    t_n1 = T.evaluate(s.with_inserted(z))
    return (s.n + 1) * (t_n1 - t_n)


@dataclass(frozen=True)
class MCReport:
    """Monte Carlo variance of sqrt(n)(T_n - T) next to the IF-based value."""

    measure_id: str
    distribution: str
    n: int
    reps: int
    mc_variance: float
    if_variance: float
    ratio: float  # nan when degenerate (if_variance ~ 0)
    seed: int
    stream_id: int
    rejections: int
    degenerate: bool

    def to_dict(self) -> dict:
        """The fields in declaration order; `ratio` is None when degenerate."""
        row = asdict(self)
        if self.degenerate:
            row["ratio"] = None
        return row


def mc_variance_study(T: MeasureFunctional, F: Distribution, n: int,
                      reps: int, rng: RngStream) -> MCReport:
    """Draw `reps` samples of size n and compare the empirical variance of
    sqrt(n)(T(F_n) - T(F)) with the influence-function variance.

    Replica r uses stream rng.stream_id + 1 + r; a replica hitting a
    DomainError is rejected and redrawn on the next stream past those of
    the `reps` replicas, with the rejection count recorded. Aggregation is
    a two-pass variance over the replica values in stream order.

    The replicas are drawn and evaluated in blocks of max(1, 10000 // n)
    samples, one per row of a 2-D `Empirical`, so T must evaluate a block
    row by row, as every measure of `parse_measure_id` does. Where a
    block's evaluation raises an IneqError, or gives other than one value
    per row, its rows are evaluated alone in replica order: a DomainError
    rejects that row, and any other error propagates from it. Streams,
    rejections and results are those of evaluating each replica alone.
    """
    if reps < 2:
        raise InvalidParameter(f"need at least 2 replicas, got {reps}")
    t0 = T.evaluate(F)
    if_var = asymptotic_variance(T, F)
    if n < 1:
        raise InvalidParameter(f"sample size must be >= 1, got {n}")

    size = int(n)
    rows = max(1, _BLOCK_VALUES // size)
    values = np.empty(reps, dtype=float)
    rejections = 0
    extra = reps  # next free stream offset for redraws
    for start in range(0, reps, rows):
        stop = min(start + rows, reps)
        u = np.empty((stop - start, size))
        for r, row in enumerate(u, start):
            rng.substream(r + 1).generator().random(out=row)
        block = F.quantile_array(u)
        block.sort(axis=1)
        try:
            block_values = T.evaluate(Empirical(block))
        except IneqError:
            block_values = None
        if np.shape(block_values) == (stop - start,):
            values[start:stop] = block_values
            continue
        for r, row in enumerate(block, start):
            sample = Empirical(row)
            while True:
                try:
                    values[r] = T.evaluate(sample)
                    break
                except DomainError:
                    rejections += 1
                    extra += 1
                    sample = draw_sample(F, n, rng.substream(extra))

    scaled_dev = math.sqrt(n) * (values - t0)
    centre = scaled_dev.mean()
    mc_var = float(((scaled_dev - centre) ** 2).sum() / (reps - 1))

    degenerate = not (if_var > 1e-10)
    ratio = math.nan if degenerate else mc_var / if_var
    return MCReport(
        measure_id=T.id,
        distribution=F.descriptor(),
        n=int(n),
        reps=int(reps),
        mc_variance=mc_var,
        if_variance=if_var,
        ratio=ratio,
        seed=rng.seed,
        stream_id=rng.stream_id,
        rejections=rejections,
        degenerate=degenerate,
    )
