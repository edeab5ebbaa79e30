"""Run configuration: flat key=value file with section headers (INI).

Sections: [population], [design], [estimator], [band], [campaign], [oracle].
All values are validated before any computation or file output happens.
"""

from __future__ import annotations

import configparser
import math
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from .designs import SamplingDesign
from .errors import ConfigurationError
from .grids import FunctionalPopulation
from .io import read_population_csv
from .synthetic import study_population

ESTIMATOR_CHOICES = ("ht", "hajek", "ma", "difference")


@dataclass
class RunConfig:
    population: dict = field(default_factory=dict)
    design: dict = field(default_factory=dict)
    estimator: dict = field(default_factory=dict)
    band: dict = field(default_factory=dict)
    campaign: dict = field(default_factory=dict)
    oracle: dict = field(default_factory=dict)


def load_config(path) -> RunConfig:
    parser = configparser.ConfigParser()
    read = parser.read(path, encoding="utf-8")
    if not read:
        raise ConfigurationError(f"cannot read config file {path}")
    cfg = RunConfig()
    for section in parser.sections():
        if not hasattr(cfg, section):
            raise ConfigurationError(f"unknown config section [{section}]")
        setattr(cfg, section, dict(parser.items(section)))
    _validate(cfg)
    return cfg


def _get_int(d, key, default=None, minimum=None):
    raw = d.get(key, default)
    if raw is None:
        raise ConfigurationError(f"missing integer option {key!r}")
    try:
        val = int(str(raw))
    except ValueError:
        raise ConfigurationError(f"option {key!r} must be an integer") from None
    if minimum is not None and val < minimum:
        raise ConfigurationError(f"option {key!r} must be >= {minimum}")
    return val


def _get_float(d, key, default=None):
    raw = d.get(key, default)
    if raw is None:
        raise ConfigurationError(f"missing numeric option {key!r}")
    try:
        val = float(str(raw))
    except ValueError:
        raise ConfigurationError(f"option {key!r} must be a number") from None
    if not math.isfinite(val):
        raise ConfigurationError(f"option {key!r} must be finite, got {raw!r}")
    return val


def _get_bool(d, key, default=False):
    raw = str(d.get(key, default)).strip().lower()
    if raw in ("1", "true", "yes", "on"):
        return True
    if raw in ("0", "false", "no", "off"):
        return False
    raise ConfigurationError(f"option {key!r} must be a boolean")


def _validate(cfg: RunConfig):
    pop = cfg.population
    if pop:
        has_csv = "csv" in pop
        synthetic = _get_bool(pop, "synthetic", False)
        if has_csv == synthetic:
            raise ConfigurationError(
                "[population] needs exactly one of 'csv' or 'synthetic = true'"
            )
        if synthetic:
            _get_int(pop, "n_units", minimum=1)
            _get_int(pop, "n_points", default=48, minimum=2)
            corr = _get_float(pop, "corr", 0.95)
            if not 0.0 < corr < 1.0:
                raise ConfigurationError("[population] corr must be in (0, 1)")
    if cfg.design:
        kind = cfg.design.get("kind", "srswor")
        if kind not in ("srswor", "stratified"):
            raise ConfigurationError(f"unknown design kind {kind!r}")
        _get_int(cfg.design, "n", minimum=1)
    if cfg.estimator:
        kind = cfg.estimator.get("kind", "ma")
        if kind not in ESTIMATOR_CHOICES:
            raise ConfigurationError(f"unknown estimator kind {kind!r}")
        a_raw = cfg.estimator.get("a", "0")
        if a_raw != "auto":
            a = _get_float(cfg.estimator, "a", 0.0)
            if a < 0:
                raise ConfigurationError("[estimator] a must be >= 0 or 'auto'")
    if cfg.band:
        alpha = _get_float(cfg.band, "alpha", 0.05)
        if not 0.0 < alpha < 1.0:
            raise ConfigurationError("[band] alpha must be in (0, 1)")
        _get_int(cfg.band, "n_sims", default=10_000, minimum=100)
    if cfg.campaign:
        _get_int(cfg.campaign, "replicates", minimum=2)
        _n_list(cfg.campaign)


def estimator_floor(cfg: RunConfig) -> float | None:
    """None means the relative default floor; 0.0 means no floor."""
    raw = cfg.estimator.get("a", "0")
    if raw == "auto":
        return None
    return float(raw)


def build_population(cfg: RunConfig, seed: int):
    """Returns (population, stratum_labels_or_None)."""
    pop = cfg.population
    if not pop:
        raise ConfigurationError("config needs a [population] section")
    if "csv" in pop:
        path = Path(pop["csv"])
        if not path.exists():
            raise ConfigurationError(f"population csv not found: {path}")
        return read_population_csv(path, strata_column=pop.get("strata_column"))
    population = study_population(
        n_units=_get_int(pop, "n_units", minimum=1),
        n_points=_get_int(pop, "n_points", default=48, minimum=2),
        corr=_get_float(pop, "corr", 0.95),
        t_max=_get_float(pop, "t_max", 1.0),
        kernel_kind=pop.get("kernel", "exponential"),
        length_scale=_get_float(pop, "length_scale", 0.2),
        seed=seed,
    )
    return population, None


def _parse_ranges(raw: str, N: int):
    strata = []
    for part in raw.split(","):
        part = part.strip()
        if "-" not in part:
            raise ConfigurationError(f"bad stratum range {part!r}, want lo-hi")
        lo, hi = part.split("-", 1)
        lo, hi = int(lo), int(hi)
        if not 0 <= lo <= hi < N:
            raise ConfigurationError(f"stratum range {part!r} outside 0..{N - 1}")
        strata.append(np.arange(lo, hi + 1))
    return tuple(strata)


def build_design(
    cfg: RunConfig, N: int, labels: list[str] | None = None
) -> SamplingDesign:
    d = cfg.design
    if not d:
        raise ConfigurationError("config needs a [design] section")
    kind = d.get("kind", "srswor")
    n = _get_int(d, "n", minimum=1)
    if kind == "srswor":
        return SamplingDesign(kind="srswor", N=N, n=n)
    if "ranges" in d:
        strata = _parse_ranges(d["ranges"], N)
        n_h = tuple(int(v) for v in d["n_per_stratum"].split(","))
    elif labels is not None:
        arr = np.asarray(labels)
        allocations = dict(
            pair.split(":", 1) for pair in d["n_per_stratum"].split(",")
        )
        strata, n_h = [], []
        for label in sorted(allocations):
            members = np.flatnonzero(arr == label)
            if members.size == 0:
                raise ConfigurationError(f"no units carry stratum label {label!r}")
            strata.append(members)
            n_h.append(int(allocations[label]))
        strata, n_h = tuple(strata), tuple(n_h)
    else:
        raise ConfigurationError(
            "stratified design needs 'ranges' or a population strata column"
        )
    return SamplingDesign(kind="stratified", N=N, n=n, strata=strata, n_h=n_h)


def _n_list(campaign: dict) -> list[int]:
    """The sample sizes of `[campaign] n_list` (empty when absent)."""
    sizes = []
    for part in str(campaign.get("n_list", "")).split(","):
        if not part.strip():
            continue
        try:
            size = int(part)
        except ValueError:
            raise ConfigurationError(
                f"[campaign] n_list entries must be integers, got {part.strip()!r}"
            ) from None
        if size < 1:
            raise ConfigurationError("[campaign] n_list entries must be >= 1")
        sizes.append(size)
    return sizes


def campaign_sizes(cfg: RunConfig) -> list[int]:
    return _n_list(cfg.campaign) or [_get_int(cfg.design, "n", minimum=1)]
