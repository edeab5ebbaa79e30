"""CSV interchange formats.

Population CSV: one row per unit; curve columns labelled ``t=<value>``
(grid times), remaining columns are auxiliary variables.  UTF-8, ``.``
decimal separator.  Floats are written with repr so files round-trip
exactly and reruns are byte-identical.
"""

from __future__ import annotations

import csv
import json
from pathlib import Path

import numpy as np

from .errors import ValidationError
from .grids import FunctionalPopulation, TimeGrid


def _fmt(x: float) -> str:
    return repr(float(x))


def _not_utf8(path: Path, exc: UnicodeDecodeError) -> str:
    byte = exc.object[exc.start]
    return f"{path}: not UTF-8 text (byte {byte:#04x}: {exc.reason})"


def read_population_csv(path, strata_column: str | None = None):
    """Load a population; returns (population, stratum_labels_or_None)."""
    path = Path(path)
    try:
        with path.open(newline="", encoding="utf-8") as fh:
            reader = csv.reader(fh)
            header = next(reader)
            rows = list(reader)
    except OSError as exc:
        raise ValidationError(f"cannot read population csv: {exc}") from None
    except StopIteration:
        raise ValidationError(f"{path}: empty file") from None
    except UnicodeDecodeError as exc:
        raise ValidationError(_not_utf8(path, exc)) from None
    curve_cols, aux_cols, strata_col = [], [], None
    times = []
    for j, name in enumerate(header):
        name = name.strip()
        if name.startswith("t="):
            try:
                times.append(float(name[2:]))
            except ValueError:
                raise ValidationError(
                    f"{path}: bad grid time in column label {name!r}"
                ) from None
            curve_cols.append(j)
        elif strata_column is not None and name == strata_column:
            strata_col = j
        else:
            aux_cols.append(j)
    if strata_column is not None and strata_col is None:
        raise ValidationError(f"{path}: strata column {strata_column!r} not found")
    if len(curve_cols) < 2:
        raise ValidationError(f"{path}: need at least 2 't=<value>' columns")
    if not aux_cols:
        raise ValidationError(f"{path}: need at least one auxiliary column")
    values = np.empty((len(rows), len(curve_cols)))
    aux = np.empty((len(rows), len(aux_cols)))
    labels = [] if strata_col is not None else None
    for i, row in enumerate(rows):
        if len(row) != len(header):
            raise ValidationError(
                f"{path}: line {i + 2} has {len(row)} fields, expected "
                f"{len(header)}"
            )
        try:
            values[i] = [float(row[j]) for j in curve_cols]
            aux[i] = [float(row[j]) for j in aux_cols]
        except ValueError as exc:
            raise ValidationError(f"{path}: line {i + 2}: {exc}") from None
        if labels is not None:
            labels.append(row[strata_col].strip())
    grid = TimeGrid(np.asarray(times))
    pop = FunctionalPopulation(grid=grid, values=values, aux=aux)
    return pop, labels


def write_population_csv(path, pop: FunctionalPopulation, aux_names=None):
    aux_names = aux_names or [f"x{j}" for j in range(pop.p)]
    if len(aux_names) != pop.p:
        raise ValidationError("one aux name per auxiliary column required")
    with Path(path).open("w", newline="", encoding="utf-8") as fh:
        writer = csv.writer(fh)
        writer.writerow([f"t={_fmt(t)}" for t in pop.grid.points] + list(aux_names))
        for k in range(pop.N):
            writer.writerow(
                [_fmt(v) for v in pop.values[k]] + [_fmt(v) for v in pop.aux[k]]
            )


def read_sample_indices(path, N: int) -> np.ndarray:
    """One 0-based unit index per line."""
    path = Path(path)
    try:
        text = path.read_text(encoding="utf-8")
    except OSError as exc:
        raise ValidationError(f"cannot read sample file: {exc}") from None
    except UnicodeDecodeError as exc:
        raise ValidationError(_not_utf8(path, exc)) from None
    idx = []
    for lineno, line in enumerate(text.splitlines(), start=1):
        line = line.strip()
        if not line or line.startswith("#"):
            continue
        try:
            idx.append(int(line))
        except ValueError:
            raise ValidationError(
                f"{path}: line {lineno}: not an integer: {line!r}"
            ) from None
    arr = np.asarray(idx, dtype=int)
    if arr.size == 0:
        raise ValidationError(f"{path}: no indices found")
    if arr.min() < 0 or arr.max() >= N:
        raise ValidationError(f"{path}: indices must lie in 0..{N - 1}")
    return arr


def _write_table(path, header: list[str], table: np.ndarray):
    """Header plus one line per row, floats via repr, CRLF line ends: the
    bytes csv.writer gives for these cells, in one write."""
    lines = [",".join(header)]
    lines.extend(",".join(map(repr, row)) for row in table.tolist())
    with Path(path).open("w", newline="", encoding="utf-8") as fh:
        fh.write("\r\n".join(lines) + "\r\n")


def write_curve_csv(path, grid: TimeGrid, columns: dict):
    """Columns of equal length keyed by header name, with a leading t column."""
    names = list(columns)
    table = np.column_stack(
        [grid.points] + [np.asarray(columns[name], dtype=float) for name in names]
    )
    _write_table(path, ["t"] + names, table)


def write_covariance_csv(path, grid: TimeGrid, matrix: np.ndarray):
    """D x D matrix with grid times as row/column headers, in _write_table's
    bytes; an entry bitwise equal to its mirror reuses the mirror's string."""
    matrix = np.ascontiguousarray(matrix, dtype=float)
    bits = matrix.view(np.int64)
    differs = bits != bits.T
    times = [_fmt(t) for t in grid.points]
    mirrors = [[] for _ in times]  # row k's strict lower triangle, from above
    with Path(path).open("w", newline="", encoding="utf-8") as fh:
        fh.write(",".join([""] + times) + "\r\n")
        for i, t in enumerate(times):
            row = matrix[i].tolist()
            line, mirrors[i] = mirrors[i], None
            for j in np.flatnonzero(differs[i, :i]):
                line[j] = repr(row[j])
            upper = list(map(repr, row[i:]))
            for below, text in zip(mirrors[i + 1:], upper[1:]):
                below.append(text)
            fh.write(",".join([t] + line + upper) + "\r\n")


def write_metadata(path, payload: dict):
    """Sidecar metadata block as pretty JSON (sorted keys for stable bytes)."""
    Path(path).write_text(
        json.dumps(payload, indent=2, sort_keys=True) + "\n", encoding="utf-8"
    )
