#!/usr/bin/env python3
"""curvesurvey benchmark: CLI commands end to end, and layer by layer.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a source tree (the program is imported from `src/`).

--trace 0 runs `estimate`, `bands` and `montecarlo` as subprocesses, again
and again for S seconds, and reports end-to-end metrics: set-up time, wall
and CPU time, replicates per second and peak memory.  Timings are scaled
by an interleaved calibration run (calibrate.py) to cancel drift in the
machine's speed; the raw medians are printed too.

--trace 1 runs the same commands in-process, each seed once untraced and
once with spans around the public functions of every module, and reports
per-layer metrics from the spans (see layers.json) plus tracing overhead.

Both modes run `curvesurvey oracle-check`, check every command's outputs
(against reference.json at its seed), and print one human-readable line per
metric followed, as the last line, by one JSON object with the keys
correct, attempted, failed and metrics.  The exit code is 1 if any output
check failed and 2 if the program is not there.
"""

from __future__ import annotations

import argparse
import csv
import importlib
import io
import json
import math
import os
import random
import shutil
import subprocess
import sys
import threading
import time
import traceback
from contextlib import redirect_stderr, redirect_stdout
from dataclasses import dataclass
from pathlib import Path
from statistics import median

from spans import SpanStats, Tracer
from workloads import COMMANDS, N_SIMS, WORKLOADS

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
REFERENCE = HERE / "reference.json"
REFERENCE_SEED = 1204
CHILD_TIMEOUT_S = 150.0
# Share of the measuring time each step gets in the untraced run.  The
# campaign feeds three metrics, so it gets twice the time of the others.
TIME_WEIGHTS = {
    "setup": 0.5, "calibrate": 1.0, "estimate": 1.0, "bands": 1.0,
    "montecarlo": 2.0,
}
# Timings of the untraced run are reported in units where calibrate.py
# takes this long (see `untraced`).
CALIBRATION_S = 0.35
REPORT_HEADER = [
    "n", "replicates", "rmse", "rb_squared", "vr", "q5", "q25", "median",
    "q75", "q95", "coverage", "errors", "seed",
]
END_TO_END_UNITS = {
    "setup_s": "s",
    "wall_s": "s",
    "replicates_per_s": "1/s",
    "cpu_s": "s",
    "peak_rss_mb": "MB",
    "estimate_wall_s": "s",
    "bands_wall_s": "s",
}


def tail(values):
    """Highest of p99/p95/p90/p75 with at least ten samples beyond it."""
    v = sorted(values)
    for p in (99, 95, 90, 75):
        if len(v) * (100 - p) / 100 >= 10:
            return p, v[math.ceil(p / 100 * len(v)) - 1]
    return None


def percentile(values, p):
    v = sorted(values)
    return v[max(0, math.ceil(p / 100 * len(v)) - 1)] if v else 0.0


def describe(values, scale=1.0):
    t = tail(values)
    extra = f", p{t[0]} {t[1] * scale:.6g}" if t else ", no tail percentile"
    return f"n={len(values)}{extra}"


def read_csv(path: Path):
    with path.open(newline="", encoding="utf-8") as fh:
        rows = list(csv.reader(fh))
    return rows[0], rows[1:]


@dataclass
class Call:
    command: str
    wall_s: float
    cpu_s: float
    rss_mb: float
    ok_replicates: int
    outputs: dict


@dataclass
class Pair:
    """One seed's in-process iteration, untraced and traced; the traced
    spans are tracer.spans[lo:hi]."""

    seed: int
    plain: list = None
    traced: list = None
    lo: int = 0
    hi: int = 0
    bytes_written: int = 0


class Bench:
    def __init__(self, workload, seed: int, work: Path):
        self.wl = workload
        self.work = work
        self.seed = seed
        self.streams = {}
        self.problems: list[str] = []
        self.attempted = 0
        self.failed = 0
        self.failed_replicates = 0
        threads = str(workload.blas_threads)
        self.env = dict(
            os.environ,
            PYTHONPATH=str(SRC),
            OPENBLAS_NUM_THREADS=threads,
            OMP_NUM_THREADS=threads,
            MKL_NUM_THREADS=threads,
        )
        self.configs = {}
        for command in COMMANDS:
            path = work / f"{command}.ini"
            path.write_text(workload.config(command), encoding="utf-8")
            self.configs[command] = path
        self.cli = None

    def next_seed(self, stream: str) -> int:
        """Seeds from one stream per command, so the k-th call of a command
        gets the same inputs whatever ran before it."""
        if stream not in self.streams:
            self.streams[stream] = random.Random(f"{self.seed}:{stream}")
        return self.streams[stream].randrange(1, 2**31)

    def check(self, ok: bool, message: str) -> bool:
        if not ok:
            self.problems.append(message)
        return ok

    # -- subprocesses ---------------------------------------------------

    def spawn(self, argv):
        """Run argv to completion; return (rc, wall_s, rusage, stdout+stderr).

        wait4 reports CPU time and peak RSS of the child and of the worker
        processes it waited for.
        """
        log = self.work / "child.log"
        with log.open("wb") as fh:
            t0 = time.perf_counter()
            proc = subprocess.Popen(argv, env=self.env, stdout=fh, stderr=fh,
                                    cwd=self.work)
            timer = threading.Timer(CHILD_TIMEOUT_S, proc.kill)
            timer.start()
            try:
                _, status, usage = os.wait4(proc.pid, 0)
            finally:
                timer.cancel()
            wall = time.perf_counter() - t0
        proc.returncode = os.waitstatus_to_exitcode(status)
        return proc.returncode, wall, usage, log.read_text(errors="replace")

    def cli_argv(self, command, seed, out, workers):
        return [
            command, "--config", str(self.configs[command]), "--seed",
            str(seed), "--workers", str(workers), "--out", str(out),
        ]

    def oracle_check(self):
        # Seed 0 is the one the test suite checks.  About one fixture seed
        # in eight fails the calibration identity at its 1e-10 tolerance,
        # a known defect that a benchmark seed must not turn into a failed
        # run.
        argv = [sys.executable, "-m", "curvesurvey.cli", "oracle-check",
                "--seed", "0"]
        rc, _, _, text = self.spawn(argv)
        self.check(rc == 0 and "FAIL" not in text,
                   f"oracle-check exited {rc}:\n{text}")

    def setup_probe(self, seed) -> dict:
        argv = [sys.executable, str(HERE / "setup_probe.py"),
                str(self.configs["montecarlo"]), str(seed)]
        rc, _, _, text = self.spawn(argv)
        if not self.check(rc == 0, f"setup probe exited {rc}:\n{text}"):
            return {}
        return json.loads(text.strip().splitlines()[-1])

    def run_subprocess(self, command, seed, workers=1) -> Call:
        out = self.fresh_out(command)
        argv = [sys.executable, "-m", "curvesurvey.cli"]
        rc, wall, usage, text = self.spawn(
            argv + self.cli_argv(command, seed, out, workers))
        outputs, ok = self.outcome(command, rc, text, out)
        return Call(command, wall, usage.ru_utime + usage.ru_stime,
                    usage.ru_maxrss / 1024.0, ok, outputs)

    # -- in-process -----------------------------------------------------

    def run_inprocess(self, command, seed, workers=1) -> Call:
        out = self.fresh_out(command)
        sink = io.StringIO()
        t0 = time.perf_counter()
        try:
            with redirect_stdout(sink), redirect_stderr(sink):
                rc = self.cli.main(self.cli_argv(command, seed, out, workers))
        except Exception:  # a traceback fails the call; the run goes on
            rc = 1
            sink.write(traceback.format_exc())
        wall = time.perf_counter() - t0
        outputs, ok = self.outcome(command, rc, sink.getvalue(), out)
        return Call(command, wall, 0.0, 0.0, ok, outputs)

    # -- outputs: failure accounting and checks --------------------------

    def fresh_out(self, command) -> Path:
        out = self.work / "out" / command
        shutil.rmtree(out, ignore_errors=True)
        return out

    def outcome(self, command, rc, text, out):
        """Account for one call and check what it wrote.

        Returns (outputs, replicates that finished without error).
        """
        campaign = command == "montecarlo"
        attempted = self.wl.replicates_attempted if campaign else 1
        self.attempted += attempted
        outputs = {}
        if self.check(rc == 0 and "Traceback" not in text,
                      f"{command} exited {rc}:\n{text[-2000:]}"):
            try:
                outputs = getattr(self, f"check_{command}")(out)
            except (OSError, ValueError, KeyError, IndexError) as exc:
                self.check(False, f"{command} wrote unreadable output: {exc!r}")
        # a failed call fails every replicate it attempted
        failed = outputs.get("errors", 0) if outputs else attempted
        self.failed += failed
        if campaign:
            self.failed_replicates += failed
        return outputs, attempted - failed

    def check_estimate(self, out):
        header, rows = read_csv(out / "estimate.csv")
        curve = [float(r[1]) for r in rows]
        self.check(header == ["t", "estimate"], f"estimate.csv header {header}")
        self.check(len(curve) == self.wl.n_points and all(map(math.isfinite, curve)),
                   "estimate.csv is not a finite curve on the grid")
        meta = json.loads((out / "estimate.meta.json").read_text())
        self.check(len(meta["sample_indices"]) == meta["n"],
                   "estimate.meta.json sample size mismatch")
        return {"estimate": curve}

    def check_bands(self, out):
        header, rows = read_csv(out / "band.csv")
        self.check(header == ["t", "center", "lower", "upper", "sigma_hat"],
                   f"band.csv header {header}")
        band = [[float(x) for x in r[1:]] for r in rows]
        self.check(
            len(band) == self.wl.n_points
            and all(lo < c < up and s > 0 for c, lo, up, s in band),
            "band.csv: need lower < center < upper and sigma_hat > 0",
        )
        c_alpha = json.loads((out / "band.meta.json").read_text())["c_alpha"]
        # the sup quantile lies between the pointwise 97.5% normal quantile
        # and the Bonferroni bound over the grid (below 4 for D <= 336)
        self.check(1.9 < c_alpha < 4.2, f"c_alpha {c_alpha} out of range")
        with (out / "covariance.csv").open(encoding="utf-8") as fh:
            lines = sum(1 for _ in fh)
        self.check(lines == self.wl.n_points + 1, "covariance.csv size")
        return {"c_alpha": c_alpha}

    def check_montecarlo(self, out):
        wl = self.wl
        raw = (out / "report.csv").read_bytes()
        header, rows = read_csv(out / "report.csv")
        self.check(header == REPORT_HEADER, f"report.csv header {header}")
        report = [dict(zip(header, r)) for r in rows]
        self.check([int(r["n"]) for r in report] == list(wl.sizes),
                   f"report.csv rows {[r['n'] for r in report]}, "
                   f"want n = {list(wl.sizes)}")
        for r in report:
            self.check(int(r["replicates"]) == wl.replicates,
                       f"report.csv replicates {r['replicates']}")
            self.check(float(r["rmse"]) >= 0 and float(r["rb_squared"]) >= 0,
                       f"report.csv negative rmse or rb_squared: {r}")
            if wl.coverage:
                # 200 bands at 95%: 0.85 is more than six binomial SDs low
                self.check(r["coverage"] != ""
                           and 0.85 <= float(r["coverage"]) <= 1.0,
                           f"coverage {r['coverage']!r} implausible")
            else:
                self.check(r["coverage"] == "", "coverage without coverage=true")
            self.check((out / f"gamma_emp_n{r['n']}.csv").is_file(),
                       f"gamma_emp_n{r['n']}.csv missing")
        errors = sum(int(r["errors"]) for r in report)
        bands = (
            sum(wl.replicates - int(r["errors"]) for r in report)
            if wl.coverage else 0
        )
        return {"report": report, "report_csv": raw, "errors": errors,
                "coverage_bands": bands}

    def check_reference(self, calls):
        """Compare outputs at the reference seed with reference.json."""
        reference = json.loads(REFERENCE.read_text())
        want = reference["workloads"][self.wl.name]
        rtol = reference["rtol"]
        got = {c.command: c.outputs for c in calls}
        if not all(got.values()):
            return  # the failed call is already reported
        est, ref = got["estimate"]["estimate"], want["estimate"]
        scale = max(abs(x) for x in ref)
        dev = max(abs(a - b) for a, b in zip(est, ref))
        self.check(len(est) == len(ref) and dev <= rtol["estimate"] * scale,
                   f"estimate curve off reference by {dev:g}")
        self.close("c_alpha", got["bands"]["c_alpha"], want["c_alpha"], rtol)
        for row, ref_row in zip(got["montecarlo"]["report"], want["report"]):
            for key in ("rmse", "rb_squared", "coverage"):
                if ref_row[key] is None:
                    self.check(row[key] == "", f"{key} present, want none")
                else:
                    self.close(key, float(row[key]), ref_row[key], rtol)

    def close(self, key, got, want, rtol):
        self.check(abs(got - want) <= rtol[key] * abs(want),
                   f"{key} {got!r} differs from reference {want!r} "
                   f"by more than {rtol[key]} relative")

    # -- the two modes --------------------------------------------------

    def iteration(self, run, seed, workers):
        return [run(c, seed, workers if c == "montecarlo" else 1)
                for c in COMMANDS]

    def untraced(self, seconds):
        """Run whichever step has had the least measuring time for its
        weight, until the time is up; each command's first call uses the
        reference seed.

        The speed of a shared machine drifts by 10-30% over minutes, and
        every timing drifts with it.  So the calibration step, fixed work
        that does not depend on the program, runs between the others, and
        each timing is scaled by CALIBRATION_S / (its median time in this
        run).  The raw medians and the scale are printed with the metrics.
        """
        self.oracle_check()
        setups, cals, calls = [], [], {c: [] for c in COMMANDS}
        spent = dict.fromkeys(TIME_WEIGHTS, 0.0)
        deadline = time.perf_counter() + seconds
        while time.perf_counter() < deadline or not setups or not all(
                calls.values()):
            step = min(TIME_WEIGHTS, key=lambda c: spent[c] / TIME_WEIGHTS[c])
            t0 = time.perf_counter()
            if step == "calibrate":
                rc, wall, _, text = self.spawn(
                    [sys.executable, str(HERE / "calibrate.py")])
                if self.check(rc == 0, f"calibrate.py exited {rc}:\n{text}"):
                    cals.append(wall)
            elif step == "setup":
                seed = self.next_seed(step) if setups else REFERENCE_SEED
                setups.append(self.setup_probe(seed))
            else:
                seed = self.next_seed(step) if calls[step] else REFERENCE_SEED
                workers = self.wl.workers if step == "montecarlo" else 1
                calls[step].append(self.run_subprocess(step, seed, workers))
            spent[step] += time.perf_counter() - t0
        self.check_reference([calls[c][0] for c in COMMANDS])
        scale = CALIBRATION_S / median(cals) if cals else math.nan
        setup_s = [p.get("setup_s", math.nan) for p in setups]
        setup = median(setup_s)
        mc = calls["montecarlo"]
        est, bands = calls["estimate"], calls["bands"]
        raw = {
            "setup_s": setup,
            "wall_s": median(c.wall_s for c in mc),
            "replicates_per_s": median(
                c.ok_replicates / (c.wall_s - setup) for c in mc),
            "cpu_s": median(c.cpu_s for c in mc),
            "estimate_wall_s": median(c.wall_s for c in est),
            "bands_wall_s": median(c.wall_s for c in bands),
        }
        metrics = {k: v / scale if k == "replicates_per_s" else v * scale
                   for k, v in raw.items()}
        metrics["peak_rss_mb"] = max(
            c.rss_mb for cs in calls.values() for c in cs)
        samples = {
            "setup_s": setup_s,
            "wall_s": [c.wall_s for c in mc],
            "cpu_s": [c.cpu_s for c in mc],
            "estimate_wall_s": [c.wall_s for c in est],
            "bands_wall_s": [c.wall_s for c in bands],
        }
        notes = {k: f"raw {raw[k]:.6g}, {describe(v)}" for k, v in samples.items()}
        notes["cpu_s"] += ", montecarlo and its workers"
        notes["replicates_per_s"] = (
            f"raw {raw['replicates_per_s']:.6g}, "
            f"{self.wl.replicates_attempted} replicates per campaign, "
            f"{len(mc)} campaigns")
        notes["peak_rss_mb"] = "largest process of the run, ru_maxrss, not scaled"
        coverage_bands = [c.outputs.get("coverage_bands", 0) for c in mc]
        lines = [
            f"timings scaled by {scale:.4f}: calibrate.py took a median "
            f"{median(cals):.4f} s over {len(cals)} runs, against "
            f"{CALIBRATION_S} s",
            f"failed_fraction {self.failed / self.attempted:.6g} "
            f"({self.failed} of {self.attempted} operations); coverage rate "
            f"computed over {median(coverage_bands):g} bands per campaign",
        ]
        metrics = {k: metrics[k] for k in END_TO_END_UNITS}
        return metrics, notes, lines, setups

    def traced(self, seconds):
        self.oracle_check()
        sys.path.insert(0, str(SRC))
        self.cli = importlib.import_module("curvesurvey.cli")
        tracer = Tracer()
        probes, pairs = [], []
        seed = REFERENCE_SEED
        deadline = time.perf_counter() + seconds
        while not pairs or time.perf_counter() < deadline:
            probes.append(self.setup_probe(seed))
            pair = Pair(seed)
            # alternate which side runs first, so warm-up favours neither
            for side in ("plain", "traced")[:: 1 if len(pairs) % 2 else -1]:
                if side == "plain":
                    pair.plain = self.iteration(self.run_inprocess, seed, 1)
                    continue
                pair.lo = len(tracer.spans)
                tracer.install()
                try:
                    pair.traced = self.iteration(self.run_inprocess, seed, 1)
                finally:
                    tracer.uninstall()
                pair.hi = len(tracer.spans)
                pair.bytes_written = self.bytes_written()
            for a, b in zip(pair.plain, pair.traced):
                self.check(a.outputs == b.outputs,
                           f"{a.command}: tracing changed the outputs")
            pairs.append(pair)
            seed = self.next_seed("iteration")
        self.check_reference(pairs[0].plain)
        pool = None
        if self.wl.workers > 1:
            pool = self.pool_run(tracer, pairs[-1])
        return self.layer_metrics(tracer, pairs, probes, pool)

    def pool_run(self, tracer, pair):
        """The campaign at the workload's worker count, untraced except for
        run_campaign; its report must equal the workers=1 traced report
        byte for byte (C11)."""
        lo = len(tracer.spans)
        tracer.install(only={"montecarlo.run_campaign"})
        try:
            call = self.run_inprocess("montecarlo", pair.seed, self.wl.workers)
        finally:
            tracer.uninstall()
        self.check(
            call.outputs.get("report_csv")
            == pair.traced[2].outputs.get("report_csv"),
            f"report.csv at workers={self.wl.workers} differs from workers=1",
        )
        return SpanStats(tracer.spans, lo)

    def bytes_written(self):
        return sum(p.stat().st_size for p in (self.work / "out").rglob("*")
                   if p.is_file())

    def layer_metrics(self, tracer, pairs, probes, pool):
        stats = SpanStats(tracer.spans, 0, pairs[-1].hi)  # not the pool run
        per_it = [SpanStats(tracer.spans, p.lo, p.hi) for p in pairs]

        def ms(values):
            return 1000.0 * median(values) if values else 0.0

        def ms_p95(values):
            return 1000.0 * percentile(values, 95) if values else 0.0

        def ratio(a, b):
            return a / b if b else 0.0

        replicates = stats.count("montecarlo.replicate")
        bands = stats.count("bands.build_band", ok_only=True)
        band_s = sum(stats.durations("bands.build_band"))
        rep_s = sum(stats.durations("montecarlo.replicate"))
        cov_in_rep = sum(stats.durations("covariance.estimate",
                                         under="montecarlo.replicate"))
        pool_overhead = 0.0
        if pool is not None:
            busy = sum(per_it[-1].durations("montecarlo.replicate"))
            pool_overhead = sum(pool.durations("montecarlo.run_campaign")) - busy / 2
        traced_mc = [p.traced[2] for p in pairs]
        d = stats.durations
        m = {
            "bands.build_band.ms_p50": ms(d("bands.build_band")),
            "bands.build_band.ms_p95": ms_p95(d("bands.build_band")),
            "bands.build_band.self_ms_p50": ms(stats.self_times("bands.build_band")),
            "bands.sims_per_s": ratio(N_SIMS * bands, band_s),
            "bands.built_per_replicate": ratio(
                stats.count("bands.build_band", under="montecarlo.replicate",
                            ok_only=True), replicates),
            "bands.coverage_bands": median(
                c.outputs.get("coverage_bands", 0) for c in traced_mc),
            "linalg.psd_project.calls_per_band": ratio(
                stats.count("linalg.psd_project", under="bands.build_band"),
                stats.count("bands.build_band")),
            "linalg.psd_project.ms_p50": ms(d("linalg.psd_project")),
            "linalg.cholesky_psd.ms_p50": ms(d("linalg.cholesky_psd")),
            "covariance.estimate.ms_p50": ms(d("covariance.estimate")),
            "covariance.estimate.ms_p95": ms_p95(d("covariance.estimate")),
            "covariance.estimate.share": ratio(cov_in_rep, rep_s),
            "designs.joint_probs_submatrix.ms_p50": ms(d("designs.joint_probs_submatrix")),
            "designs.draw.calls": median(s.count("designs.draw") for s in per_it),
            "designs.draw.ms_p50": ms(d("designs.draw")),
            "designs.first_order_probs.calls_per_replicate": ratio(
                stats.count("designs.first_order_probs",
                            under="montecarlo.replicate"), replicates),
            "estimators.mean.ms_p50": ms(d("estimators.mean")),
            "montecarlo.replicate.ms_p50": ms(d("montecarlo.replicate")),
            "montecarlo.replicate.ms_p95": ms_p95(d("montecarlo.replicate")),
            "montecarlo.run_campaign.self_ms": ms(
                [sum(s.self_times("montecarlo.run_campaign")) for s in per_it]),
            "montecarlo.pool_overhead_s": pool_overhead,
            "montecarlo.failed_replicates": self.failed_replicates,
            "montecarlo.failed_fraction": ratio(self.failed, self.attempted),
            "cli.import_s": median(p.get("import_s", math.nan) for p in probes),
            "synthetic.study_population.ms": ms(d("synthetic.study_population")),
            "config.load_config.ms": ms(d("config.load_config")),
            "config.build_design.ms": ms(d("config.build_design")),
            "io.write.ms": ms([sum(s.durations("io.write")) for s in per_it]),
            "io.bytes_written": median(p.bytes_written for p in pairs),
            "trace.overhead_s": median(
                sum(c.wall_s for c in p.traced) - sum(c.wall_s for c in p.plain)
                for p in pairs),
        }
        notes = {}
        for name, span in (
            ("bands.build_band.ms_p50", "bands.build_band"),
            ("covariance.estimate.ms_p50", "covariance.estimate"),
            ("montecarlo.replicate.ms_p50", "montecarlo.replicate"),
            ("designs.draw.ms_p50", "designs.draw"),
            ("estimators.mean.ms_p50", "estimators.mean"),
        ):
            notes[name] = describe(d(span), 1000.0)
        shares = stats.self_time_by_name()
        total = sum(shares.values())
        top = sorted(shares.items(), key=lambda kv: -kv[1])[:5]
        lines = [
            f"{len(pairs)} traced iterations, {len(tracer.spans)} spans; "
            "largest self-time shares: "
            + ", ".join(f"{k} {v / total:.1%}" for k, v in top),
        ]
        return m, notes, lines, probes


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    if not (SRC / "curvesurvey" / "cli.py").is_file():
        print(f"error: no curvesurvey sources under {SRC}", file=sys.stderr)
        return 2
    wl = WORKLOADS[args.workload]
    work = ROOT / ".bench_build" / "perfbench" / f"{wl.name}-{os.getpid()}"
    work.mkdir(parents=True, exist_ok=True)
    try:
        bench = Bench(wl, args.seed, work)
        # BLAS reads its thread count when numpy is first imported, which in
        # the traced mode happens in this process
        os.environ.update({k: bench.env[k] for k in (
            "OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")})
        mode = bench.traced if args.trace else bench.untraced
        metrics, notes, lines, probes = mode(args.seconds)
    finally:
        shutil.rmtree(work, ignore_errors=True)

    units = END_TO_END_UNITS
    if args.trace:
        layers = json.loads((HERE / "layers.json").read_text())["metrics"]
        units = {k: v["unit"] for k, v in layers.items()}
        if set(units) != set(metrics):
            raise RuntimeError(
                f"layers.json out of date: {set(units) ^ set(metrics)}")
    facts = next((p for p in probes if p), {})
    print(f"workload {wl.name}: seed {args.seed}, {args.seconds:g} s, trace "
          f"{args.trace}; {len(os.sched_getaffinity(0))} cores, montecarlo "
          f"workers {wl.workers} x BLAS threads {wl.blas_threads}; python "
          f"{facts.get('python')}, numpy {facts.get('numpy')}, "
          f"{facts.get('blas')}")
    for name, value in metrics.items():
        extra = notes.get(name, "")
        if args.trace:
            spec = layers[name]
            moves = ", ".join(spec["moves"]) or "nothing"
            extra = f"{extra}; moves {moves} on {spec['workload']}".lstrip("; ")
        print(f"  {name:46s} {value:14.6g} {units[name]:6s} {extra}")
    for line in lines:
        print(f"  {line}")
    for problem in bench.problems:
        print(f"check failed: {problem}", file=sys.stderr)
    correct = not bench.problems
    print(json.dumps({
        "correct": correct,
        "attempted": bench.attempted,
        "failed": bench.failed,
        "metrics": {k: {"value": v, "unit": units[k]} for k, v in metrics.items()},
    }))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
