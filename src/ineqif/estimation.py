"""Sampling, sensitivity curves, and Monte Carlo variance verification.

Sampling is inverse-transform only, driven by the counter-based Philox
generator: a (seed, stream_id) pair reproduces the same variates on any
platform or thread layout, and replica streams are independent by
construction.

A Monte Carlo study draws its replicas in blocks of equal-size samples,
each row from its own replica's stream, and evaluates the measure once per
block on a 2-D `Empirical`: one inverse transform, one sort and one
evaluation serve the whole block. A Philox stream is only a key and a
counter, so the study keeps one generator and re-keys it for each row,
with the keys of all its replica streams derived in one vectorised pass of
numpy's `SeedSequence` mixing. The rows are the samples `draw_sample`
draws on the same streams, so neither the blocks nor the keying change a
result.
"""
from __future__ import annotations

import math
import numbers
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

# Replica streams keyed per vectorised call: one call for any study of up
# to this many replicas, and a bounded key array (1 MiB) for larger ones.
_KEY_CHUNK = 65_536

# O'Neill's seed_seq constants, as numpy's SeedSequence uses them
# (numpy/random/bit_generator.pyx), on 32-bit words.
_MASK32 = 0xFFFF_FFFF
_INIT_A = 0x43B0D7E5
_MULT_A = 0x931E8875
_INIT_B = 0x8B51F9DD
_MULT_B = 0x58F38DED
_MIX_MULT_L = 0xCA01F9DD
_MIX_MULT_R = 0x4973F715
_POOL_SIZE = 4


@dataclass(frozen=True)
class RngStream:
    """Seedable uniform stream (Philox counter mode).

    The stream is Philox keyed by `SeedSequence(seed, spawn_key=(stream_id,))`
    from a zero counter; both fields are non-negative integers (numpy
    integers are taken as ints)."""

    seed: int
    stream_id: int = 0

    def __post_init__(self):
        for name in ("seed", "stream_id"):
            value = getattr(self, name)
            if isinstance(value, bool) \
                    or not isinstance(value, numbers.Integral) or value < 0:
                raise InvalidParameter(
                    f"{name} must be a non-negative integer, got {value!r}")
            object.__setattr__(self, name, int(value))

    def generator(self) -> np.random.Generator:
        seq = np.random.SeedSequence(self.seed, spawn_key=(self.stream_id,))
        return np.random.Generator(np.random.Philox(seq))

    def substream(self, offset: int) -> "RngStream":
        return RngStream(self.seed, self.stream_id + int(offset))


def _hash_constants(init: int, mult: int, count: int) -> list:
    """seed_seq's running hash constant: `init` and its next `count` values."""
    consts = [init]
    for _ in range(count):
        consts.append(consts[-1] * mult & _MASK32)
    return consts


def _hashmix(value, const, const_next):
    """seed_seq's hash of 32-bit words (an int or uint32 arrays) at the
    constant `const`, which the step advances to `const_next`."""
    value = (value ^ const) * const_next & _MASK32
    return value ^ (value >> 16)


def _mix(x, y):
    """seed_seq's mix of pool word x with hashed word y (ints or arrays)."""
    result = (_MIX_MULT_L * x - _MIX_MULT_R * y) & _MASK32
    return result ^ (result >> 16)


def _words(value: int) -> list:
    """The little-endian 32-bit words of a non-negative int ([0] for 0)."""
    words = [value & _MASK32]
    while value >> 32:
        value >>= 32
        words.append(value & _MASK32)
    return words


def _philox_keys(seed: int, stream_ids) -> np.ndarray:
    """The (n, 2) uint64 Philox keys of the streams (seed, sid), sid in
    `stream_ids`: row i is `np.random.SeedSequence(seed,
    spawn_key=(sid_i,)).generate_state(2, np.uint64)`, which numpy
    documents as stable across versions.

    This is the seed_seq mixing of numpy's `bit_generator.pyx`
    (`mix_entropy`, `generate_state`). Its hash constant advances the same
    way whatever the data, so the run entropy (the seed's words,
    zero-padded to the pool size because the spawn key is not empty) is
    mixed once, in ints. Only the spawn-key words and the output hash run
    on arrays, one group per spawn-key word count: an id of 2**32 or more
    has two words, one of 2**64 or more three.
    """
    run = _words(seed)
    run += [0] * (_POOL_SIZE - len(run))
    try:
        ids = np.asarray(stream_ids, dtype=np.uint64)
    except OverflowError:  # an id of 2**64 or more
        ids = np.asarray(stream_ids, dtype=object)
    max_width = len(_words(int(ids.max())))
    consts = _hash_constants(_INIT_A, _MULT_A,
                             _POOL_SIZE * (len(run) + max_width))
    steps = zip(consts, consts[1:])
    pool = [_hashmix(word, *next(steps)) for word in run[:_POOL_SIZE]]
    for src in range(_POOL_SIZE):
        for dst in range(_POOL_SIZE):
            if src != dst:
                pool[dst] = _mix(pool[dst], _hashmix(pool[src], *next(steps)))
    for word in run[_POOL_SIZE:]:
        for dst in range(_POOL_SIZE):
            pool[dst] = _mix(pool[dst], _hashmix(word, *next(steps)))
    # the steps of spawn-key word j into pool word dst: spawn[j, dst]
    spawn = np.array(list(steps), dtype=np.uint32).reshape(
        max_width, _POOL_SIZE, 2, 1)
    out = np.array(_hash_constants(_INIT_B, _MULT_B, _POOL_SIZE),
                   dtype=np.uint32)[:, None]
    widths = np.ones(len(ids), dtype=int)
    for shift in range(32, 32 * max_width, 32):
        widths += (ids >> shift).astype(bool)
    keys = np.empty((len(ids), 2), dtype=np.uint64)
    for width in range(1, max_width + 1):
        rows = widths == width
        if not rows.any():
            continue
        group = ids[rows]
        mixer = np.array(pool, dtype=np.uint32)[:, None]
        for j in range(width):
            word = ((group >> 32 * j) & _MASK32).astype(np.uint32)
            mixer = _mix(mixer, _hashmix(word, spawn[j, :, 0], spawn[j, :, 1]))
        state = _hashmix(mixer, out[:-1], out[1:]).astype(np.uint64)
        keys[rows, 0] = state[0] | state[1] << 32
        keys[rows, 1] = state[2] | state[3] << 32
    return keys


def _replica_keys(rng: RngStream, reps: int):
    """The Philox keys of the streams rng.stream_id + 1 + r, r < reps, in
    order, derived up to _KEY_CHUNK streams per call."""
    first = rng.stream_id + 1
    for start in range(0, reps, _KEY_CHUNK):
        stop = min(start + _KEY_CHUNK, reps)
        yield from _philox_keys(rng.seed, range(first + start, first + stop))


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
    keys = _replica_keys(rng, reps)
    philox = np.random.Philox(0)
    generator = np.random.Generator(philox)
    stream_start = philox.state  # a zero counter and an empty buffer
    for start in range(0, reps, rows):
        stop = min(start + rows, reps)
        u = np.empty((stop - start, size))
        for row, key in zip(u, keys):  # u first: no key is read past it
            stream_start["state"]["key"] = key
            philox.state = stream_start
            generator.random(out=row)
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
