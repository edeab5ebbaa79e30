"""In-memory spans around curvesurvey's public functions.

The tracer wraps functions from outside the package: `install()` replaces
each traced function in every loaded curvesurvey module that holds it (so
calls made through `from .designs import draw` are caught too), and
`uninstall()` puts the originals back.  Nothing under src/ is edited.

Each span is a list [name, start, end, parent, ok]; `parent` is the index
of the enclosing span or -1.  All spans stay in memory until the run ends.
"""

from __future__ import annotations

import functools
import sys
import time

# (module, function) -> span name.  Span names are the layer names the
# benchmark's per-layer metrics are reported under.
TRACED = {
    ("cli", "main"): "cli.command",
    ("config", "load_config"): "config.load_config",
    ("config", "build_population"): "config.build_population",
    ("config", "build_design"): "config.build_design",
    ("synthetic", "study_population"): "synthetic.study_population",
    ("designs", "draw"): "designs.draw",
    ("designs", "first_order_probs"): "designs.first_order_probs",
    ("designs", "joint_probs_submatrix"): "designs.joint_probs_submatrix",
    ("estimators", "model_assisted_mean"): "estimators.mean",
    ("estimators", "hajek_mean"): "estimators.mean",
    ("estimators", "ht_mean"): "estimators.mean",
    ("covariance", "ma_covariance_estimate"): "covariance.estimate",
    ("covariance", "ht_covariance_estimate"): "covariance.estimate",
    ("linalg", "psd_project"): "linalg.psd_project",
    ("linalg", "cholesky_psd"): "linalg.cholesky_psd",
    ("bands", "build_band"): "bands.build_band",
    ("montecarlo", "run_campaign"): "montecarlo.run_campaign",
    ("montecarlo", "_run_replicate"): "montecarlo.replicate",
    ("io", "write_curve_csv"): "io.write",
    ("io", "write_covariance_csv"): "io.write",
    ("io", "write_metadata"): "io.write",
}

PACKAGE = "curvesurvey"


class Tracer:
    def __init__(self):
        self.spans: list[list] = []
        self._stack: list[int] = []
        self._patched: list[tuple[object, str, object]] = []

    def _wrap(self, name, func):
        spans, stack = self.spans, self._stack
        clock = time.perf_counter

        @functools.wraps(func)
        def traced(*args, **kwargs):
            span = [name, clock(), 0.0, stack[-1] if stack else -1, False]
            stack.append(len(spans))
            spans.append(span)
            try:
                result = func(*args, **kwargs)
                span[4] = True
                return result
            finally:
                span[2] = clock()
                stack.pop()

        return traced

    def install(self, only: set[str] | None = None) -> None:
        """Wrap every function of TRACED (or those whose span name is in
        `only`) wherever a loaded curvesurvey module refers to it."""
        modules = [
            m for key, m in list(sys.modules.items())
            if m is not None and (key == PACKAGE or key.startswith(PACKAGE + "."))
        ]
        for (module, attr), name in TRACED.items():
            if only is not None and name not in only:
                continue
            original = getattr(sys.modules[f"{PACKAGE}.{module}"], attr)
            wrapped = self._wrap(name, original)
            for m in modules:
                for key, value in list(vars(m).items()):
                    if value is original:
                        setattr(m, key, wrapped)
                        self._patched.append((m, key, original))

    def uninstall(self) -> None:
        for m, key, original in reversed(self._patched):
            setattr(m, key, original)
        self._patched.clear()


class SpanStats:
    """Durations, self times and ancestry of a slice of recorded spans."""

    def __init__(self, spans: list[list], lo: int = 0, hi: int | None = None):
        self.spans = spans
        self.index = range(lo, len(spans) if hi is None else hi)
        child_time = {}
        for i in self.index:
            name, start, end, parent, _ = spans[i]
            if parent >= 0:
                child_time[parent] = child_time.get(parent, 0.0) + end - start
        self._child_time = child_time

    def _of(self, name, under=None, ok_only=False):
        for i in self.index:
            s = self.spans[i]
            if s[0] != name or (ok_only and not s[4]):
                continue
            if under is not None and not self.has_ancestor(i, under):
                continue
            yield i

    def has_ancestor(self, i: int, name: str) -> bool:
        parent = self.spans[i][3]
        while parent >= 0:
            if self.spans[parent][0] == name:
                return True
            parent = self.spans[parent][3]
        return False

    def count(self, name, under=None, ok_only=False) -> int:
        return sum(1 for _ in self._of(name, under, ok_only))

    def durations(self, name, under=None) -> list[float]:
        return [self.spans[i][2] - self.spans[i][1] for i in self._of(name, under)]

    def self_times(self, name) -> list[float]:
        return [
            self.spans[i][2] - self.spans[i][1] - self._child_time.get(i, 0.0)
            for i in self._of(name)
        ]

    def self_time_by_name(self) -> dict[str, float]:
        totals = {}
        for i in self.index:
            name, start, end, _, _ = self.spans[i]
            own = end - start - self._child_time.get(i, 0.0)
            totals[name] = totals.get(name, 0.0) + own
        return totals
