"""Sampling, sensitivity curves, and Monte Carlo variance verification.

Sampling is inverse-transform only, driven by the counter-based Philox
generator: a (seed, stream_id) pair reproduces the same variates on any
platform or thread layout, and replica streams are independent by
construction.
"""
from __future__ import annotations

import math
from dataclasses import asdict, dataclass

import numpy as np

from .distributions import Distribution, Empirical
from .errors import DomainError, InvalidParameter
from .influence import asymptotic_variance
from .measures import MeasureFunctional

__all__ = [
    "RngStream",
    "draw_sample",
    "sensitivity_curve",
    "MCReport",
    "mc_variance_study",
]


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

    Replica r uses stream rng.stream_id + 1 + r; replicas hitting a
    DomainError are rejected and redrawn on fresh streams past the initial
    block, with the rejection count recorded. Aggregation is a two-pass
    variance over the replica values in stream order.
    """
    if reps < 2:
        raise InvalidParameter(f"need at least 2 replicas, got {reps}")
    t0 = T.evaluate(F)
    if_var = asymptotic_variance(T, F)

    values = np.empty(reps, dtype=float)
    rejections = 0
    extra = reps  # next free stream offset for redraws
    for r in range(reps):
        offset = r + 1
        while True:
            sample = draw_sample(F, n, rng.substream(offset))
            try:
                values[r] = T.evaluate(sample)
                break
            except DomainError:
                rejections += 1
                extra += 1
                offset = extra

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
