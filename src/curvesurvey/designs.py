"""Fixed-size sampling designs: stratified SRSWOR, with SRSWOR as its one
stratum 0..N-1.  A design is one record: its strata, n_h, first-order
probabilities pi and unit stratum labels are read-only, set when it is made.

Unit indices are 0-based throughout.  The exhaustive enumeration of every
sample, for small populations, lives in ``oracle.py`` beside the checks
that read it.

A replicate's random stream is replicate_rng(master_seed, *key), a
SeedSequence keyed by the replicate's coordinates; it does not depend on
the order or the process in which replicates run.  A campaign seeds all
its streams at once with ReplicateStreams, a vectorized twin of
SeedSequence and PCG64 seeding that restates one Generator per stream,
and `draw` takes a stack's generators one after the other, so they may be
one Generator restated per sample.
"""

from __future__ import annotations

from collections.abc import Iterable
from dataclasses import dataclass, field

import numpy as np

from .errors import ValidationError


@dataclass(frozen=True, eq=False)
class SamplingDesign:
    """A fixed-size design on a population of N units: independent SRSWOR
    of size n_h within each stratum h, the strata a tuple of disjoint
    sorted index arrays partitioning 0..N-1.  Without strata, SRSWOR: the
    one stratum arange(N) with n_h = (n,).  pi[k] = n_h / N_h and
    labels[k] = h for the stratum h of unit k.
    """

    N: int
    n: int
    strata: tuple | None = None
    n_h: tuple | None = None
    pi: np.ndarray = field(init=False, repr=False)
    labels: np.ndarray = field(init=False, repr=False)

    def __post_init__(self):
        N, n = _indices((self.N, self.n), "N and n").tolist()
        if N < 1:
            raise ValidationError("population size must be >= 1")
        if not 1 <= n <= N:
            raise ValidationError(f"need 1 <= n <= N, got n={n}, N={N}")
        if (self.strata is None) != (self.n_h is None):
            raise ValidationError("a stratified design needs strata and n_h")
        if self.strata is None:
            strata, n_h = (np.arange(N),), (n,)
        else:
            strata = tuple(np.sort(_indices(s, "stratum members"))
                           for s in self.strata)
            n_h = tuple(_indices(self.n_h, "n_h").tolist())
            if len(strata) != len(n_h) or not strata:
                raise ValidationError("strata and n_h must align and be nonempty")
            flat = np.concatenate(strata)
            if flat.size != N or not np.array_equal(np.sort(flat), np.arange(N)):
                raise ValidationError("strata must partition 0..N-1")
            for s, m in zip(strata, n_h):
                if not 1 <= m <= s.size:
                    raise ValidationError(
                        f"need 1 <= n_h <= N_h, got n_h={m}, N_h={s.size}"
                    )
            if sum(n_h) != n:
                raise ValidationError("sum of n_h must equal n")
        pi, labels = np.empty(N), np.empty(N, dtype=int)
        for h, (s, m) in enumerate(zip(strata, n_h)):
            pi[s], labels[s] = m / s.size, h
        for name, value in zip(("N", "n", "strata", "n_h", "pi", "labels"),
                               (N, n, tuple(map(_read_only, strata)), n_h,
                                _read_only(pi), _read_only(labels))):
            object.__setattr__(self, name, value)

    def __reduce__(self):
        """Pickle the constructor's arguments (SRSWOR without its N-length
        stratum); the copy is rebuilt, checked and read-only like any other."""
        if len(self.n_h) == 1:
            return SamplingDesign, (self.N, self.n)
        return SamplingDesign, (self.N, self.n, self.strata, self.n_h)


def _read_only(a: np.ndarray) -> np.ndarray:
    a.setflags(write=False)
    return a


def _indices(values, what: str) -> np.ndarray:
    """values as an int array; a value that is not an integer (0.9, NaN, a
    string) raises ValidationError rather than being truncated."""
    raw = np.asarray(values)
    with np.errstate(invalid="ignore"):
        idx = raw.astype(int) if raw.dtype.kind in "iuf" else None
    if idx is None or not np.array_equal(idx, raw):
        raise ValidationError(f"{what} must be integers, got {values!r}")
    return idx


@dataclass(frozen=True, eq=False)
class Sample:
    """A drawn sample: sorted distinct unit indices, n_h of them in stratum
    h.  Indices of shape (n,) hold one sample; a (B, n) stack holds B
    samples of the design, each row sorted and checked on its own, which
    the estimators and the covariance take as one batch."""

    indices: np.ndarray
    design: SamplingDesign

    def __post_init__(self):
        idx = _indices(self.indices, "sample indices")
        if idx.ndim not in (1, 2) or (idx.ndim == 2 and len(idx) == 0):
            raise ValidationError("sample indices must be one sample (n,) or "
                                  f"a stack (B >= 1, n), got shape {idx.shape}")
        idx = np.sort(idx, axis=-1)
        if idx.shape[-1] != self.design.n:
            raise ValidationError(
                f"sample size {idx.shape[-1]} != design size {self.design.n}"
            )
        if (idx[..., 1:] == idx[..., :-1]).any():  # sorted: repeats are neighbours
            raise ValidationError("sample indices must be distinct")
        if idx[..., 0].min() < 0 or idx[..., -1].max() >= self.design.N:
            raise ValidationError("sample indices out of 0..N-1")
        n_h = self.design.n_h
        if len(n_h) > 1:  # a sample of size n has n units in one stratum
            # units per stratum of each sample, from one bincount of the
            # labels offset by len(n_h) per sample
            labels = self.design.labels[idx].reshape(-1, idx.shape[-1])
            offsets = len(n_h) * np.arange(len(labels))[:, None]
            counts = np.bincount((labels + offsets).ravel(),
                                 minlength=len(labels) * len(n_h))
            counts = counts.reshape(-1, len(n_h))
            wrong = np.flatnonzero((counts != n_h).any(axis=1))
            if wrong.size:
                raise ValidationError(
                    f"sample has {tuple(counts[wrong[0]].tolist())} units per "
                    f"stratum, the design draws n_h = {n_h}"
                )
        object.__setattr__(self, "indices", _read_only(idx))


def first_order_probs(design: SamplingDesign) -> np.ndarray:
    """Vector of pi_k for all N units; read-only, set with the design."""
    return design.pi


def joint_prob_within(N_h: int, n_h: int) -> float:
    """pi_kl of two distinct units of one stratum (1.0 when N_h = 1: no pair)."""
    return n_h * (n_h - 1) / (N_h * (N_h - 1)) if N_h > 1 else 1.0


def joint_probs_submatrix(design: SamplingDesign, idx: np.ndarray) -> np.ndarray:
    """pi_kl restricted to the units in idx (dense; a reference for tests)."""
    idx = np.asarray(idx, dtype=int)
    pi = design.pi[idx]
    mat = np.outer(pi, pi)
    labels = design.labels[idx]
    for h, (s, m) in enumerate(zip(design.strata, design.n_h)):
        members = np.flatnonzero(labels == h)
        mat[np.ix_(members, members)] = joint_prob_within(s.size, m)
    np.fill_diagonal(mat, pi)
    return mat


def _draw_indices(design: SamplingDesign,
                  rng: np.random.Generator) -> np.ndarray:
    """The unit indices of one sample drawn from rng, stratum by stratum
    (unsorted: Sample sorts them)."""
    return np.concatenate([
        s[rng.choice(s.size, size=m, replace=False)]
        for s, m in zip(design.strata, design.n_h)
    ])


def draw(design: SamplingDesign,
         rng: np.random.Generator | Iterable[np.random.Generator]) -> Sample:
    """Draw one sample from the generator rng, or, given an iterable of
    generators, the (B, n) stack of one sample from each, validated once.
    Each sample is drawn before the next generator is taken, so an iterator
    may hand out one Generator restated per sample (ReplicateStreams.rng).
    Every admissible sample is equiprobable for SRSWOR and within each
    stratum, and each sample depends only on its own generator's state."""
    if isinstance(rng, np.random.Generator):
        return Sample(_draw_indices(design, rng), design)
    return Sample(np.array([_draw_indices(design, r) for r in rng]), design)


def replicate_rng(master_seed: int, *key: int) -> np.random.Generator:
    """Independent, reproducible sub-stream keyed by replicate coordinates.

    Adding or reordering workers never changes the stream assigned to a
    replicate: the stream depends only on (master_seed, key).
    """
    return np.random.default_rng(
        np.random.SeedSequence(entropy=master_seed, spawn_key=tuple(key))
    )


# numpy's SeedSequence hash (O'Neill's seed_seq, NEP 19): pool words, hash
# and mix constants, and the 32-bit mask its arithmetic wraps at
_POOL = 4
_INIT_A, _MULT_A = 0x43B0D7E5, 0x931E8875
_INIT_B, _MULT_B = 0x8B51F9DD, 0x58F38DED
_MIX_L, _MIX_R = 0xCA01F9DD, 0x4973F715
_M32 = 0xFFFFFFFF
# PCG64's 128-bit LCG multiplier
_PCG_MULT, _M128 = 0x2360ED051FC65DA44385DF649FCCF645, (1 << 128) - 1


def _words(value: int) -> list[int]:
    """The little-endian 32-bit words of value >= 0 ([0] for 0), as
    SeedSequence reads an integer."""
    words = [value & _M32]
    while value := value >> 32:
        words.append(value & _M32)
    return words


# Each step takes Python ints or uint32 arrays: masking a Python int wraps
# it at 32 bits, and uint32 array arithmetic wraps without a warning.
def _hashmix(value, const):
    """SeedSequence's hashmix: (mixed value, next hash constant)."""
    after = const * _MULT_A & _M32
    value = (value ^ const) * after & _M32
    return value ^ value >> 16, after


def _mix(x, y):
    r = (_MIX_L * x & _M32) - (_MIX_R * y & _M32) & _M32
    return r ^ r >> 16


def _seed_words(master_seed: int, keys: np.ndarray, stream: int) -> np.ndarray:
    """(len(keys), 8) uint32: the words PCG64 takes from
    SeedSequence(master_seed, spawn_key=(i, stream)) for each i of the
    uint32 array keys, stream < 2**32.

    SeedSequence's entropy is the run entropy, padded to the pool size,
    then the key words, and it hashes the pool size's first words and mixes
    them all before it reads a later word.  So the run entropy is mixed
    once on Python ints, and only the two key words and the eight output
    words run on arrays over the keys."""
    entropy = _words(master_seed)
    entropy += [0] * (_POOL - len(entropy)) + [keys, stream]
    const, pool = _INIT_A, []
    for word in entropy[:_POOL]:
        mixed, const = _hashmix(word, const)
        pool.append(mixed)
    for src in range(_POOL):
        for dst in range(_POOL):
            if src != dst:
                mixed, const = _hashmix(pool[src], const)
                pool[dst] = _mix(pool[dst], mixed)
    for word in entropy[_POOL:]:
        for dst in range(_POOL):
            mixed, const = _hashmix(word, const)
            pool[dst] = _mix(pool[dst], mixed)
    out, const = np.empty((len(keys), 8), dtype=np.uint32), _INIT_B
    for k in range(8):  # generate_state(8): the pool words in turn
        value = pool[k % _POOL] ^ const
        const = const * _MULT_B & _M32
        value = value * const & _M32
        out[:, k] = value ^ value >> 16
    return out


def _restate(rng: np.random.Generator, words) -> np.random.Generator:
    """rng, its PCG64 set to the state PCG64 seeds from the eight words of
    a SeedSequence (read as four little-endian uint64: state high and low,
    then increment high and low)."""
    w = words.tolist()
    seed = w[1] << 96 | w[0] << 64 | w[3] << 32 | w[2]
    inc = (w[5] << 97 | w[4] << 65 | w[7] << 33 | w[6] << 1 | 1) & _M128
    state = ((inc + seed) * _PCG_MULT + inc) & _M128  # pcg64_srandom_r
    rng.bit_generator.state = {"bit_generator": "PCG64",
                               "state": {"state": state, "inc": inc},
                               "has_uint32": 0, "uinteger": 0}
    return rng


class ReplicateStreams:
    """The streams replicate_rng(master_seed, i, j) of every replicate
    i < replicates and stream j < streams, seeded in one vectorized pass.

    `words` holds each stream's eight PCG64 seed words, 32 bytes, and
    rng(i, j) restates this object's one Generator to stream (i, j): 6 us,
    against 22 us for a SeedSequence and a PCG64 (shared 2-core Xeon).  The
    Generator is stream (i, j) only until the next call, so each stream is
    used up before the next is asked for, and no two threads share it.  A
    second thread restates Generators of its own: rng(i, j, generator)."""

    def __init__(self, master_seed: int, replicates: int, streams: int):
        if master_seed < 0:
            raise ValidationError(f"seed must be >= 0, got {master_seed}")
        if replicates > 2**32:  # a key of one 32-bit word each
            raise ValidationError(
                f"at most 2**32 replicates, got {replicates}")
        keys = np.arange(replicates, dtype=np.uint32)
        self.words = np.stack([_seed_words(int(master_seed), keys, j)
                               for j in range(streams)], axis=1)
        self._rng = np.random.Generator(np.random.PCG64(0))

    def rng(self, i: int, j: int, generator: np.random.Generator | None = None
            ) -> np.random.Generator:
        """`generator`, by default this object's own, restated to stream
        (i, j)."""
        return _restate(self._rng if generator is None else generator,
                        self.words[i, j])
