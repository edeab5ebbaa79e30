"""Fixed-size sampling designs: SRSWOR and stratified SRSWOR.

Unit indices are 0-based throughout.  Inclusion probabilities have closed
forms for both shipped designs; an exhaustive enumeration oracle is provided
for small populations.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass
from functools import cached_property

import numpy as np

from .errors import EnumerationCapError, ValidationError

DEFAULT_ENUMERATION_CAP = 1_000_000


@dataclass(frozen=True, eq=False)
class SamplingDesign:
    """A fixed-size design on a population of N units.

    kind "srswor": every n-subset of 0..N-1 equiprobable.
    kind "stratified": independent SRSWOR of size n_h within each stratum;
    strata is a tuple of disjoint index arrays partitioning 0..N-1.
    """

    kind: str
    N: int
    n: int
    strata: tuple | None = None
    n_h: tuple | None = None

    def __post_init__(self):
        if self.N < 1:
            raise ValidationError("population size must be >= 1")
        if not 1 <= self.n <= self.N:
            raise ValidationError(f"need 1 <= n <= N, got n={self.n}, N={self.N}")
        if self.kind == "srswor":
            if self.strata is not None or self.n_h is not None:
                raise ValidationError("srswor takes no strata")
        elif self.kind == "stratified":
            if self.strata is None or self.n_h is None:
                raise ValidationError("stratified design needs strata and n_h")
            strata = tuple(
                _read_only(np.sort(np.asarray(s, dtype=int)))
                for s in self.strata
            )
            n_h = tuple(int(v) for v in self.n_h)
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
        else:
            raise ValidationError(f"unknown design kind {self.kind!r}")

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


@dataclass(frozen=True, eq=False)
class Sample:
    """A drawn sample: sorted distinct unit indices, n_h of them in stratum h."""

    indices: np.ndarray
    design: SamplingDesign

    def __post_init__(self):
        idx = np.asarray(self.indices, dtype=int)
        idx = np.sort(idx)
        if idx.size != self.design.n:
            raise ValidationError(
                f"sample size {idx.size} != design size {self.design.n}"
            )
        if idx.size != np.unique(idx).size:
            raise ValidationError("sample indices must be distinct")
        if idx.size and (idx[0] < 0 or idx[-1] >= self.design.N):
            raise ValidationError("sample indices out of 0..N-1")
        n_h = self.design.allocation[1]
        counts = np.bincount(self.design.stratum_of()[idx], minlength=len(n_h))
        if tuple(counts.tolist()) != n_h:
            raise ValidationError(
                f"sample has {tuple(counts.tolist())} units per stratum, "
                f"the design draws n_h = {n_h}"
            )
        idx.setflags(write=False)
        object.__setattr__(self, "indices", idx)


def first_order_probs(design: SamplingDesign) -> np.ndarray:
    """Vector of pi_k for all N units; read-only, computed once per design."""
    return design._inclusion_probs


def first_order_prob(design: SamplingDesign, k: int) -> float:
    if not 0 <= k < design.N:
        raise ValidationError(f"unit index {k} out of 0..{design.N - 1}")
    return float(first_order_probs(design)[k])


def joint_prob_within(N_h: int, n_h: int) -> float:
    """pi_kl of two distinct units of one stratum (1.0 when N_h = 1: no pair)."""
    return n_h * (n_h - 1) / (N_h * (N_h - 1)) if N_h > 1 else 1.0


def second_order_matrix(design: SamplingDesign) -> np.ndarray:
    """Matrix of pi_kl for all pairs, with the convention pi_kk = pi_k.

    Within-stratum pairs with n_h = 1 have pi_kl = 0; such pairs can never
    be jointly sampled, so the joint probability is genuinely zero.
    """
    return joint_probs_submatrix(design, np.arange(design.N))


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


def second_order_prob(design: SamplingDesign, k: int, l: int) -> float:
    for idx in (k, l):
        if not 0 <= idx < design.N:
            raise ValidationError(f"unit index {idx} out of 0..{design.N - 1}")
    return float(second_order_matrix(design)[k, l])


def draw(design: SamplingDesign, rng: np.random.Generator) -> Sample:
    """Draw one sample; every admissible sample equiprobable for SRSWOR and
    within each stratum.  Deterministic given the generator state."""
    parts = [
        s[rng.choice(s.size, size=m, replace=False)]
        for s, m in zip(*design.allocation)
    ]
    return Sample(indices=np.sort(np.concatenate(parts)), design=design)


def _count_samples(design: SamplingDesign) -> int:
    total = 1
    for s, m in zip(*design.allocation):
        total *= math.comb(s.size, m)
    return total


def enumerate_samples(
    design: SamplingDesign, cap: int = DEFAULT_ENUMERATION_CAP
) -> list[tuple[Sample, float]]:
    """All possible samples with their exact design probabilities.

    Probabilities sum to 1; refuses when the count exceeds `cap`.
    """
    total = _count_samples(design)
    if total > cap:
        raise EnumerationCapError(required=total, cap=cap)
    prob = 1.0 / total
    per_stratum = [
        list(itertools.combinations(s.tolist(), m))
        for s, m in zip(*design.allocation)
    ]
    out = []
    for parts in itertools.product(*per_stratum):
        idx = np.sort(np.concatenate([np.array(p, dtype=int) for p in parts]))
        out.append((Sample(idx, design), prob))
    return out


def replicate_rng(master_seed: int, *key: int) -> np.random.Generator:
    """Independent, reproducible sub-stream keyed by replicate coordinates.

    Adding or reordering workers never changes the stream assigned to a
    replicate: the stream depends only on (master_seed, key).
    """
    return np.random.default_rng(
        np.random.SeedSequence(entropy=master_seed, spawn_key=tuple(key))
    )
