"""Run configuration: flat key=value file with section headers (INI).

Sections: [population], [design], [estimator], [band], [campaign], [oracle].
`load_config` is the only reader of the file.  It returns a frozen
`RunConfig` whose sections hold converted, checked values, so nothing is
computed or written for a bad file.  An unknown section or option and an
unreadable or malformed file are `ConfigurationError`s.  Checks that need
the population (unit ranges, stratum labels, n_list sizes) happen in
`build_design`, before any sample is drawn.
"""

from __future__ import annotations

import configparser
import math
from dataclasses import dataclass, field, fields

import numpy as np

from .designs import SamplingDesign
from .errors import ConfigurationError
from .estimators import ESTIMATORS
from .io import read_population_csv
from .synthetic import KERNEL_KINDS, study_population


def _require(ok: bool, message: str) -> None:
    if not ok:
        raise ConfigurationError(message)


# Converters: convert(key, raw) turns the INI text of option `key` into its
# value or raises ConfigurationError.
def _text(key, raw):
    _require(raw.strip() != "", f"option {key!r} must not be empty")
    return raw


def _int(minimum, maximum=math.inf):
    def convert(key, raw):
        try:
            value = int(raw)
        except ValueError:
            raise ConfigurationError(f"option {key!r} must be an integer, "
                                     f"got {raw.strip()!r}") from None
        _require(minimum <= value <= maximum,
                 f"option {key!r} must lie in [{minimum}, {maximum}]")
        return value
    return convert


def _float(lo=-math.inf, hi=math.inf):
    def convert(key, raw):
        try:
            value = float(raw)
        except ValueError:
            raise ConfigurationError(f"option {key!r} must be a number") from None
        _require(math.isfinite(value),
                 f"option {key!r} must be finite, got {raw!r}")
        _require(lo < value < hi, f"option {key!r} must lie in ({lo:g}, {hi:g})")
        return value
    return convert


def _bool(key, raw):
    value = raw.strip().lower()
    _require(value in configparser.ConfigParser.BOOLEAN_STATES,
             f"option {key!r} must be a boolean, got {raw!r}")
    return configparser.ConfigParser.BOOLEAN_STATES[value]


def _choice(*options):
    def convert(key, raw):
        _require(raw in options, f"option {key!r} must be one of "
                 f"{', '.join(options)}, got {raw!r}")
        return raw
    return convert


def _floor(key, raw):
    """The eigenvalue floor a >= 0, or None for 'auto'."""
    value = None if raw == "auto" else _float()(key, raw)
    _require(value is None or value >= 0, "[estimator] a must be >= 0 or 'auto'")
    return value


def _sizes(key, raw):
    sizes = []
    for part in filter(str.strip, raw.split(",")):
        try:
            sizes.append(int(part))
        except ValueError:
            raise ConfigurationError("[campaign] n_list entries must be "
                                     f"integers, got {part.strip()!r}") from None
        _require(sizes[-1] >= 1, "[campaign] n_list entries must be >= 1")
        _require(sizes[-1] not in sizes[:-1],
                 f"[campaign] n_list repeats n = {sizes[-1]}")
    return tuple(sizes)


def _ranges(key, raw):
    ranges = []
    for part in raw.split(","):
        lo, _, hi = part.partition("-")
        try:
            ranges.append((int(lo), int(hi)))
        except ValueError:
            raise ConfigurationError(f"bad stratum range {part.strip()!r}, "
                                     "want lo-hi") from None
    return tuple(ranges)


def _allocation(key, raw):
    """(label, n_h) per stratum: label None in the `2,2` form (one count per
    range), a stratum label in the `a:1,b:1` form."""
    pairs = [part.rpartition(":") for part in raw.split(",")]
    return tuple((label if sep else None, _int(1)(key, count))
                 for label, sep, count in pairs)


def _option(default, convert):
    """A section field with its default and the converter of its INI text."""
    return field(default=default, metadata={"convert": convert})


@dataclass(frozen=True)
class PopulationConfig:
    csv: str | None = _option(None, _text)
    strata_column: str | None = _option(None, _text)
    synthetic: bool = _option(False, _bool)
    n_units: int | None = _option(None, _int(1))  # required when synthetic
    # None: study_population's default
    n_points: int | None = _option(None, _int(2))
    corr: float | None = _option(None, _float(0.0, 1.0))
    t_max: float | None = _option(None, _float(0.0))
    kernel: str | None = _option(None, _choice(*KERNEL_KINDS))
    length_scale: float | None = _option(None, _float(0.0))

    def __post_init__(self):
        _require((self.csv is not None) != self.synthetic,
                 "[population] needs exactly one of 'csv' or 'synthetic = true'")
        _require(not self.synthetic or self.n_units is not None,
                 "missing integer option 'n_units'")
        _require(self.csv is not None or self.strata_column is None,
                 "[population] 'strata_column' is read only with 'csv'")
        for key in ("n_units", "n_points", "corr", "t_max", "kernel",
                    "length_scale"):  # the options of a synthetic population
            _require(self.csv is None or getattr(self, key) is None,
                     f"[population] {key!r} is read only with 'synthetic = true'")


@dataclass(frozen=True)
class DesignConfig:
    n: int | None = _option(None, _int(1))  # required
    kind: str = _option("srswor", _choice("srswor", "stratified"))
    # (lo, hi) unit ranges, one stratum each; without them the strata are
    # the labels of the population's strata column
    ranges: tuple[tuple[int, int], ...] | None = _option(None, _ranges)
    n_per_stratum: tuple[tuple[str | None, int], ...] | None = _option(None, _allocation)
    sample_file: str | None = _option(None, _text)

    def __post_init__(self):
        _require(self.n is not None, "missing integer option 'n'")
        _require(self.kind == "stratified"
                 or (self.ranges is None and self.n_per_stratum is None),
                 "[design] 'ranges' and 'n_per_stratum' need kind = stratified")
        if self.kind == "stratified":
            _require(self.n_per_stratum is not None,
                     "a stratified design needs 'n_per_stratum'")
            _require(all((label is None) == (self.ranges is not None)
                         for label, _ in self.n_per_stratum),
                     "[design] n_per_stratum takes one count per range with "
                     "'ranges', and label:count pairs without")


@dataclass(frozen=True)
class EstimatorConfig:
    kind: str = _option("ma", _choice(*ESTIMATORS))
    a: float | None = _option(0.0, _floor)  # None: the relative default floor


@dataclass(frozen=True)
class BandConfig:
    alpha: float = _option(0.05, _float(0.0, 1.0))
    n_sims: int | None = _option(None, _int(100))  # None: the command's default


@dataclass(frozen=True)
class CampaignConfig:
    replicates: int = _option(1000, _int(2))
    n_list: tuple[int, ...] = _option((), _sizes)  # empty: the design's n
    coverage: bool = _option(False, _bool)


@dataclass(frozen=True)
class OracleConfig:
    n_units: int = _option(5, _int(1, 8))  # enumerable populations only
    n: int = _option(2, _int(1))
    n_points: int = _option(4, _int(2))
    seed: int | None = _option(None, _int(0))  # None: the command's seed
    tol: float = _option(1e-10, _float(0.0))
    corrupt_pi2: float = _option(0.0, _float())


@dataclass(frozen=True)
class RunConfig:
    population: PopulationConfig | None = None
    design: DesignConfig | None = None
    estimator: EstimatorConfig = EstimatorConfig()
    band: BandConfig = BandConfig()
    campaign: CampaignConfig = CampaignConfig()
    oracle: OracleConfig = OracleConfig()

    def __post_init__(self):
        d = self.design
        if d is not None and d.kind == "stratified":
            _require(self.campaign.n_list in ((), (d.n,)),
                     "[campaign] n_list is not supported for a stratified "
                     f"design: its size is fixed at n = {d.n} by n_per_stratum")


_SECTIONS = {
    "population": PopulationConfig, "design": DesignConfig,
    "estimator": EstimatorConfig, "band": BandConfig,
    "campaign": CampaignConfig, "oracle": OracleConfig,
}


def load_config(path) -> RunConfig:
    parser = configparser.ConfigParser()
    try:
        if not parser.read(path, encoding="utf-8"):
            raise ConfigurationError(f"cannot read config file {path}")
        sections = {name: parser.items(name) for name in parser.sections()}
    except (configparser.Error, UnicodeDecodeError) as exc:
        raise ConfigurationError(f"bad config file {path}: {exc}") from None
    parsed = {}
    for name, items in sections.items():
        _require(name in _SECTIONS, f"unknown config section [{name}]")
        convert = {f.name: f.metadata["convert"] for f in fields(_SECTIONS[name])}
        for key, _ in items:
            _require(key in convert, f"unknown option {key!r} in [{name}]")
        parsed[name] = _SECTIONS[name](
            **{key: convert[key](key, raw) for key, raw in items}
        )
    return RunConfig(**parsed)


def build_population(cfg: RunConfig, seed: int):
    """Returns (population, stratum_labels_or_None)."""
    pop = cfg.population
    _require(pop is not None, "config needs a [population] section")
    if pop.csv is not None:
        return read_population_csv(pop.csv, strata_column=pop.strata_column)
    options = dict(n_points=pop.n_points, corr=pop.corr, t_max=pop.t_max,
                   kernel_kind=pop.kernel, length_scale=pop.length_scale)
    population = study_population(
        n_units=pop.n_units, seed=seed,
        **{key: value for key, value in options.items() if value is not None},
    )
    return population, None


def build_design(
    cfg: RunConfig, N: int, labels: list[str] | None = None
) -> SamplingDesign:
    d = cfg.design
    _require(d is not None, "config needs a [design] section")
    for n in cfg.campaign.n_list:  # checked before any campaign runs
        _require(n <= N, f"[campaign] n_list: need 1 <= n <= N, got n={n}, N={N}")
    if d.kind == "srswor":
        return SamplingDesign(N=N, n=d.n)
    allocation = d.n_per_stratum
    if d.ranges is not None:
        for lo, hi in d.ranges:
            _require(lo <= hi < N, f"stratum range {lo}-{hi} outside 0..{N - 1}")
        strata = tuple(np.arange(lo, hi + 1) for lo, hi in d.ranges)
    elif labels is not None:
        allocation = sorted(allocation)  # strata in label order
        named = [label for label, _ in allocation]
        for label, following in zip(named, named[1:]):
            _require(label != following,
                     f"n_per_stratum names stratum label {label!r} twice")
        missing = sorted(set(labels).difference(named))
        _require(not missing, "n_per_stratum has no count for stratum label "
                 + ", ".join(map(repr, missing)))
        arr = np.asarray(labels)
        strata = tuple(np.flatnonzero(arr == label) for label in named)
        for label, members in zip(named, strata):
            _require(members.size > 0, f"no units carry stratum label {label!r}")
    else:
        raise ConfigurationError(
            "stratified design needs 'ranges' or a population strata column"
        )
    n_h = tuple(count for _, count in allocation)
    return SamplingDesign(N=N, n=d.n, strata=strata, n_h=n_h)
