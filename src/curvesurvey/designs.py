"""Fixed-size sampling designs: stratified SRSWOR, with SRSWOR as the one
stratum 0..N-1.

Unit indices are 0-based throughout.  Inclusion probabilities have closed
forms; the exhaustive enumeration of every sample, for small populations,
lives in ``oracle.py`` beside the checks that read it.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property

import numpy as np

from .errors import ValidationError


@dataclass(frozen=True, eq=False)
class SamplingDesign:
    """A fixed-size design on a population of N units.

    Without strata, SRSWOR: every n-subset of 0..N-1 equiprobable.  With
    strata, a tuple of disjoint index arrays partitioning 0..N-1, and n_h,
    independent SRSWOR of size n_h within each stratum.
    """

    N: int
    n: int
    strata: tuple | None = None
    n_h: tuple | None = None

    def __post_init__(self):
        N, n = _indices((self.N, self.n), "N and n").tolist()
        object.__setattr__(self, "N", N)
        object.__setattr__(self, "n", n)
        if self.N < 1:
            raise ValidationError("population size must be >= 1")
        if not 1 <= self.n <= self.N:
            raise ValidationError(f"need 1 <= n <= N, got n={self.n}, N={self.N}")
        if (self.strata is None) != (self.n_h is None):
            raise ValidationError("a stratified design needs strata and n_h")
        if self.strata is None:
            return
        strata = tuple(_read_only(np.sort(_indices(s, "stratum members")))
                       for s in self.strata)
        n_h = tuple(_indices(self.n_h, "n_h").tolist())
        if len(strata) != len(n_h) or not strata:
            raise ValidationError("strata and n_h must align and be nonempty")
        flat = np.concatenate(strata)
        if flat.size != self.N or not np.array_equal(
            np.sort(flat), np.arange(self.N)
        ):
            raise ValidationError("strata must partition 0..N-1")
        for s, m in zip(strata, n_h):
            if not 1 <= m <= s.size:
                raise ValidationError(
                    f"need 1 <= n_h <= N_h, got n_h={m}, N_h={s.size}"
                )
        if sum(n_h) != self.n:
            raise ValidationError("sum of n_h must equal n")
        object.__setattr__(self, "strata", strata)
        object.__setattr__(self, "n_h", n_h)

    # The cached arrays below depend only on the design, are computed once
    # per instance, are read-only, and are left out of the pickled state
    # (a worker receiving the design recomputes them).
    _CACHED = ("allocation", "_inclusion_probs", "_stratum_labels")

    def __getstate__(self):
        return {k: v for k, v in self.__dict__.items() if k not in self._CACHED}

    @cached_property
    def allocation(self) -> tuple[tuple[np.ndarray, ...], tuple[int, ...]]:
        """(strata, n_h); SRSWOR is the single stratum 0..N-1 with n_h = (n,)."""
        if self.strata is None:
            return (_read_only(np.arange(self.N)),), (self.n,)
        return self.strata, self.n_h

    @cached_property
    def _inclusion_probs(self) -> np.ndarray:
        pi = np.empty(self.N)
        for s, m in zip(*self.allocation):
            pi[s] = m / s.size
        return _read_only(pi)

    @cached_property
    def _stratum_labels(self) -> np.ndarray:
        labels = np.empty(self.N, dtype=int)
        for h, s in enumerate(self.allocation[0]):
            labels[s] = h
        return _read_only(labels)

    def stratum_of(self) -> np.ndarray:
        """Stratum id per unit (all zeros for srswor); read-only."""
        return self._stratum_labels


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
        n_h = self.design.allocation[1]
        if len(n_h) > 1:  # a sample of size n has n units in one stratum
            # units per stratum of each sample, from one bincount of the
            # labels offset by len(n_h) per sample
            labels = self.design.stratum_of()[idx].reshape(-1, idx.shape[-1])
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
        idx.setflags(write=False)
        object.__setattr__(self, "indices", idx)


def first_order_probs(design: SamplingDesign) -> np.ndarray:
    """Vector of pi_k for all N units; read-only, computed once per design."""
    return design._inclusion_probs


def joint_prob_within(N_h: int, n_h: int) -> float:
    """pi_kl of two distinct units of one stratum (1.0 when N_h = 1: no pair)."""
    return n_h * (n_h - 1) / (N_h * (N_h - 1)) if N_h > 1 else 1.0


def joint_probs_submatrix(design: SamplingDesign, idx: np.ndarray) -> np.ndarray:
    """pi_kl restricted to the units in idx (dense; a reference for tests)."""
    idx = np.asarray(idx, dtype=int)
    pi = first_order_probs(design)[idx]
    mat = np.outer(pi, pi)
    labels = design.stratum_of()[idx]
    for h, (s, m) in enumerate(zip(*design.allocation)):
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
        for s, m in zip(*design.allocation)
    ])


def draw(design: SamplingDesign,
         rng: np.random.Generator | list[np.random.Generator]) -> Sample:
    """Draw one sample from the generator rng, or, given a list of
    generators, the (B, n) stack of one sample from each, validated once.
    Every admissible sample is equiprobable for SRSWOR and within each
    stratum, and each sample depends only on its own generator's state."""
    if isinstance(rng, (list, tuple)):
        return Sample(np.array([_draw_indices(design, r) for r in rng]),
                      design)
    return Sample(_draw_indices(design, rng), design)


def replicate_rng(master_seed: int, *key: int) -> np.random.Generator:
    """Independent, reproducible sub-stream keyed by replicate coordinates.

    Adding or reordering workers never changes the stream assigned to a
    replicate: the stream depends only on (master_seed, key).
    """
    return np.random.default_rng(
        np.random.SeedSequence(entropy=master_seed, spawn_key=tuple(key))
    )
