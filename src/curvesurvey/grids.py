"""Time grids and discretized functional populations."""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import ValidationError


@dataclass(frozen=True, eq=False)
class TimeGrid:
    """Ordered measurement times t_1 < ... < t_D spanning [t_1, t_D]."""

    points: np.ndarray

    def __post_init__(self):
        pts = np.array(self.points, dtype=float)  # the caller's stays writable
        if pts.ndim != 1 or pts.size < 2:
            raise ValidationError("grid needs at least 2 one-dimensional points")
        if not np.all(np.isfinite(pts)):
            raise ValidationError("grid points must be finite")
        if not np.all(np.diff(pts) > 0):
            raise ValidationError("grid points must be strictly increasing")
        pts.setflags(write=False)
        object.__setattr__(self, "points", pts)

    def __reduce__(self):
        """Pickle the points; the copy is rebuilt, checked and read-only."""
        return type(self), (self.points,)

    @property
    def size(self) -> int:
        return self.points.size


def _all_finite(a: np.ndarray) -> bool:
    """np.all(np.isfinite(a)) without its a-sized mask: min and max are NaN
    when any entry is, and +-inf when one is infinite; an empty a passes."""
    return a.size == 0 or bool(np.isfinite(a.min()) and np.isfinite(a.max()))


@dataclass(frozen=True, eq=False)
class FunctionalPopulation:
    """N discretized curves on a shared grid plus an N x p auxiliary matrix.

    values and aux are read-only views of the caller's float arrays, which
    stay writable: the population shares their buffers and copies nothing,
    so a write to them shows in it."""

    grid: TimeGrid
    values: np.ndarray  # (N, D)
    aux: np.ndarray  # (N, p)

    def __post_init__(self):
        values = np.asarray(self.values, dtype=float).view()
        aux = np.asarray(self.aux, dtype=float).view()
        if values.ndim != 2 or values.shape[1] != self.grid.size:
            raise ValidationError(
                f"values must be (N, {self.grid.size}), got {values.shape}"
            )
        if aux.ndim != 2 or aux.shape[0] != values.shape[0]:
            raise ValidationError(
                f"aux must have {values.shape[0]} rows, got shape {aux.shape}"
            )
        if aux.shape[1] < 1:
            raise ValidationError("aux needs at least one column")
        if not (_all_finite(values) and _all_finite(aux)):
            raise ValidationError("population entries must be finite")
        values.setflags(write=False)
        aux.setflags(write=False)
        object.__setattr__(self, "values", values)
        object.__setattr__(self, "aux", aux)

    def __reduce__(self):
        """Pickle the constructor's arguments; the copy is rebuilt, checked
        and read-only like any other."""
        return type(self), (self.grid, self.values, self.aux)

    @property
    def N(self) -> int:
        return self.values.shape[0]

    @property
    def p(self) -> int:
        return self.aux.shape[1]

    def aux_totals(self) -> np.ndarray:
        """Population totals of the auxiliary variables (p,)."""
        return self.aux.sum(axis=0)


def population_mean(pop: FunctionalPopulation) -> np.ndarray:
    """True mean curve of the finite population, one value per grid point."""
    return pop.values.mean(axis=0)
