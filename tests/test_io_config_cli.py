import contextlib
import csv
import io
import json
import math
import os
import subprocess
import sys
import tempfile
import threading
import types
import warnings
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import curvesurvey
from curvesurvey import ConfigurationError, ValidationError, linalg, study_population
from curvesurvey.cli import main
from curvesurvey.config import build_design, build_population, load_config
from curvesurvey.grids import FunctionalPopulation, TimeGrid
from curvesurvey.io import (
    read_population_csv,
    read_sample_indices,
    write_covariance_csv,
    write_curve_csv,
    write_population_csv,
)


@pytest.fixture
def pop_csv(tmp_path):
    pop = study_population(30, 5, corr=0.9, seed=2)
    path = tmp_path / "pop.csv"
    write_population_csv(path, pop, aux_names=["intercept", "past_mean"])
    return path, pop


class TestPopulationCsv:
    def test_round_trip_exact(self, pop_csv):
        path, pop = pop_csv
        loaded, labels = read_population_csv(path)
        assert labels is None
        assert np.array_equal(loaded.values, pop.values)
        assert np.array_equal(loaded.aux, pop.aux)
        assert np.array_equal(loaded.grid.points, pop.grid.points)

    def test_strata_column(self, tmp_path):
        path = tmp_path / "pop.csv"
        path.write_text(
            "t=0,t=1,x,region\n1,2,1,a\n3,4,1,b\n5,6,1,a\n7,8,1,b\n",
            encoding="utf-8",
        )
        pop, labels = read_population_csv(path, strata_column="region")
        assert labels == ["a", "b", "a", "b"]
        assert pop.p == 1

    def test_bad_rows_rejected(self, tmp_path):
        path = tmp_path / "bad.csv"
        path.write_text("t=0,t=1,x\n1,2\n", encoding="utf-8")
        with pytest.raises(ValidationError) as exc:
            read_population_csv(path)
        assert "line 2" in str(exc.value)

    def test_sample_indices_file(self, tmp_path):
        path = tmp_path / "s.txt"
        path.write_text("# chosen units\n3\n1\n7\n", encoding="utf-8")
        assert read_sample_indices(path, 10).tolist() == [3, 1, 7]
        with pytest.raises(ValidationError):
            read_sample_indices(path, 5)


def csv_writer_bytes(path, header, rows):
    """The csv.writer form of a table with floats via repr (reference twin
    of the fast writers in io.py)."""
    with path.open("w", newline="", encoding="utf-8") as fh:
        writer = csv.writer(fh)
        writer.writerow(header)
        for row in rows:
            writer.writerow([repr(float(x)) for x in row])
    return path.read_bytes()


class TestTableCsv:
    VALUES = [-1.5, 0.0, -0.0, 3.0, 1e-300, -2.5e-310, 1.7976931348623157e308,
              -1e22, 0.1, 123456789.0, 5e-324, -7.0]

    def grid_and_matrix(self):
        grid = TimeGrid(np.array([-2.0, 0.0, 1e-5, 3.0]))
        values = np.resize(np.array(self.VALUES), 16).reshape(4, 4)
        return grid, values

    def test_covariance_bytes_match_csv_writer(self, tmp_path):
        grid, matrix = self.grid_and_matrix()
        write_covariance_csv(tmp_path / "fast.csv", grid, matrix)
        expected = csv_writer_bytes(
            tmp_path / "ref.csv",
            [""] + [repr(float(t)) for t in grid.points],
            np.column_stack([grid.points, matrix]),
        )
        assert (tmp_path / "fast.csv").read_bytes() == expected
        assert expected.startswith(b",-2.0,0.0,1e-05,3.0\r\n")

    def covariance_bytes_match(self, tmp_path, grid, matrix):
        write_covariance_csv(tmp_path / "fast.csv", grid, matrix)
        expected = csv_writer_bytes(
            tmp_path / "ref.csv",
            [""] + [repr(float(t)) for t in grid.points],
            np.column_stack([grid.points, matrix]),
        )
        assert (tmp_path / "fast.csv").read_bytes() == expected
        return expected

    def test_symmetric_covariance_bytes_match_csv_writer(self, tmp_path):
        z = np.random.default_rng(5).standard_normal((400, 336))
        matrix = z.T @ z / 400
        matrix = 0.5 * (matrix + matrix.T)
        assert np.array_equal(matrix, matrix.T)
        self.covariance_bytes_match(
            tmp_path, TimeGrid(np.linspace(0.0, 167.5, 336)), matrix)

    def test_mirrors_differing_only_in_the_sign_of_zero(self, tmp_path):
        matrix = np.array([[1.0, 0.0, -0.0, 2.5],
                           [-0.0, 3.0, 0.0, -0.0],
                           [-0.0, 0.0, -0.0, 7.0],
                           [2.5, 0.0, 7.0, 0.1]])
        expected = self.covariance_bytes_match(
            tmp_path, TimeGrid(np.arange(4.0)), matrix)
        assert b"\r\n1.0,-0.0,3.0,0.0,-0.0\r\n" in expected

    def test_curve_bytes_match_csv_writer(self, tmp_path):
        grid, matrix = self.grid_and_matrix()
        columns = {"center": matrix[:, 0], "lower": matrix[:, 1],
                   "upper": matrix[:, 2], "count": np.array([1, -2, 3, 0])}
        write_curve_csv(tmp_path / "fast.csv", grid, columns)
        expected = csv_writer_bytes(
            tmp_path / "ref.csv",
            ["t", *columns],
            np.column_stack([grid.points, *columns.values()]),
        )
        assert (tmp_path / "fast.csv").read_bytes() == expected


def write_config(tmp_path, text):
    path = tmp_path / "run.ini"
    path.write_text(text, encoding="utf-8")
    return path


class TestConfig:
    def test_synthetic_population(self, tmp_path):
        cfg = load_config(write_config(tmp_path, """
[population]
synthetic = true
n_units = 50
n_points = 6

[design]
kind = srswor
n = 10
"""))
        pop, labels = build_population(cfg, seed=3)
        assert pop.N == 50 and pop.grid.size == 6
        design = build_design(cfg, pop.N, labels)
        assert design.n == 10

    def test_stratified_ranges(self, tmp_path):
        cfg = load_config(write_config(tmp_path, """
[population]
synthetic = true
n_units = 20

[design]
kind = stratified
n = 4
ranges = 0-9,10-19
n_per_stratum = 2,2
"""))
        design = build_design(cfg, 20, None)
        assert len(design.strata) == 2 and design.n_h == (2, 2)

    def test_label_strata(self, tmp_path):
        cfg = load_config(write_config(tmp_path, """
[design]
kind = stratified
n = 2
n_per_stratum = a:1,b:1
"""))
        design = build_design(cfg, 4, ["a", "b", "a", "b"])
        assert design.n_h == (1, 1)

    @pytest.mark.parametrize("allocation, message", [
        ("a:2,b:2", "no count for stratum label 'c'"),
        ("a:2,b:2,d:2", "no count for stratum label 'c'"),
        ("b:1,a:2,a:1,c:2", "names stratum label 'a' twice"),
    ])
    def test_label_allocation_must_match_the_strata_column(
            self, tmp_path, allocation, message):
        cfg = load_config(write_config(tmp_path, "[design]\nkind = stratified\n"
                                       f"n = 4\nn_per_stratum = {allocation}\n"))
        with pytest.raises(ValidationError, match=message):
            build_design(cfg, 6, list("abcabc"))

    @pytest.mark.parametrize("n_list, largest", [("10,50", 50), ("51,10", 51)])
    def test_n_list_bounded_by_the_population(self, tmp_path, n_list, largest):
        # every entry is checked against N before any campaign runs
        cfg = load_config(write_config(tmp_path, "[design]\nkind = srswor\nn = 10\n"
                                       f"[campaign]\nn_list = {n_list}\n"))
        if largest <= 50:
            assert build_design(cfg, 50, None).n == 10
        else:
            with pytest.raises(ValidationError,
                               match="need 1 <= n <= N, got n=51, N=50"):
                build_design(cfg, 50, None)

    @pytest.mark.parametrize(
        "body",
        [
            "[population]\nsynthetic = true\nn_units = 10\ncorr = 1.5\n",
            "[population]\nsynthetic = true\nn_units = 10\n[estimator]\nkind = magic\n",
            "[population]\nsynthetic = true\nn_units = 10\n[band]\nalpha = 0\n",
            "[population]\ncsv = x.csv\nsynthetic = true\n",
            "[bogus]\nx = 1\n",
            "[design]\nn = 4\nn = 5\n",
            "[design]\nn = 4\nkind = stratified\nranges = 0-9,10-19\n"
            "n_per_stratum = a:2,b:2\n",
            "[design]\nn = 4\nkind = stratified\nn_per_stratum = 2,b:2\n",
            "[design]\nn = 4\nkind = stratified\nranges = 0-9\nn_per_stratum = 4\n"
            "[campaign]\nreplicates = 5\nn_list = 4,8\n",
            "[campaign]\nreplicates = 1\n",
            "[estimator]\na = -1\n",
            "[estimator]\nkind = difference\nalpha = 0.1\n",
            # strata options on an SRSWOR design
            "[design]\nn = 20\nkind = srswor\nranges = 0-99,100-199\n"
            "n_per_stratum = 5,15\n",
            "[design]\nn = 4\nranges = 0-9,10-19\n",
            "[design]\nn = 4\nn_per_stratum = a:2,b:2\n",
            "[campaign]\nn_list = 10,10,20\n",
            "[oracle]\nn_units = 9\n",
            "[oracle]\ntol = 0\n",
            "[population]\ncsv = %(missing)s\n",
        ],
    )
    def test_rejects_invalid(self, tmp_path, body):
        with pytest.raises(ValidationError):
            load_config(write_config(tmp_path, body))

    def test_kernel_kind_checked_at_load(self, tmp_path, capsys):
        path = write_config(tmp_path, "[population]\nsynthetic = true\n"
                            "n_units = 10\nkernel = nope\n")
        with pytest.raises(ConfigurationError, match="'kernel' must be one of "
                           "white, exponential, periodic_exponential, got 'nope'"):
            load_config(path)
        # oracle-check builds no config population, so only the load sees it
        assert main(["oracle-check", "--config", str(path), "--seed", "0"]) == 2
        assert "'kernel' must be one of" in capsys.readouterr().err

    @pytest.mark.parametrize("options, message", [
        # a stratified design on it would fail later, naming neither key
        ("synthetic = true\nn_units = 10\nstrata_column = region\n",
         "'strata_column' is read only with 'csv'"),
        ("csv = pop.csv\nn_units = 10\n",
         "'n_units' is read only with 'synthetic = true'"),
    ])
    def test_rejects_an_option_the_source_does_not_read(
            self, tmp_path, options, message):
        path = write_config(tmp_path, f"[population]\n{options}[design]\n"
                            "kind = stratified\nn = 2\nn_per_stratum = a:1,b:1\n")
        with pytest.raises(ConfigurationError, match=message):
            load_config(path)

    @pytest.mark.parametrize("command", ["estimate", "oracle-check"])
    @pytest.mark.parametrize("option", [
        "n_units = 10", "n_points = 99", "corr = 0.5", "t_max = 2",
        "kernel = white", "length_scale = 0.3",
    ])
    def test_a_synthetic_option_next_to_csv_exits_2(
            self, tmp_path, capsys, pop_csv, command, option):
        # the csv population would be returned as if the option were unset
        key = option.partition(" = ")[0]
        cfg = write_config(tmp_path, f"[population]\ncsv = {pop_csv[0]}\n"
                           f"{option}\n[design]\nkind = srswor\nn = 4\n")
        out = tmp_path / "out"
        assert main([command, "--config", str(cfg), "--seed", "0",
                     "--out", str(out)]) == 2
        err = capsys.readouterr().err
        assert f"'{key}' is read only with 'synthetic = true'" in err
        assert not out.exists()


SYNTH = """
[population]
synthetic = true
n_units = 60
n_points = 5

[design]
kind = srswor
n = {n}

[estimator]
kind = {kind}
a = 0

[band]
alpha = 0.05
n_sims = 500

[campaign]
replicates = 30
n_list = 10,20
"""


class TestCli:
    def test_estimate_census_equals_population_mean(self, tmp_path):
        cfg = write_config(tmp_path, SYNTH.format(n=60, kind="ht"))
        out = tmp_path / "out"
        assert main(["estimate", "--config", str(cfg), "--seed", "1",
                     "--out", str(out)]) == 0
        rows = (out / "estimate.csv").read_text().strip().splitlines()
        est = np.array([float(r.split(",")[1]) for r in rows[1:]])
        from curvesurvey.grids import population_mean
        from curvesurvey.config import build_population, load_config as lc

        pop, _ = build_population(lc(cfg), 1)
        assert np.abs(est - population_mean(pop)).max() < 1e-10
        meta = json.loads((out / "estimate.meta.json").read_text())
        assert meta["seed"] == 1 and len(meta["sample_indices"]) == 60

    def test_estimate_sample_file_reused(self, tmp_path, pop_csv):
        path, pop = pop_csv
        sfile = tmp_path / "sample.txt"
        sfile.write_text("\n".join(map(str, range(0, 12))), encoding="utf-8")
        cfg = write_config(tmp_path, f"""
[population]
csv = {path}

[design]
kind = srswor
n = 12
sample_file = {sfile}

[estimator]
kind = ma
a = 0
""")
        outs = []
        for name in ("o1", "o2"):
            out = tmp_path / name
            assert main(["estimate", "--config", str(cfg), "--seed", "5",
                         "--out", str(out)]) == 0
            outs.append((out / "estimate.csv").read_bytes())
        assert outs[0] == outs[1]

    @pytest.mark.parametrize("command", ["estimate", "bands"])
    def test_sample_file_with_a_repeated_index_exits_2(self, tmp_path, capsys,
                                                       command):
        sfile = tmp_path / "sample.txt"
        sfile.write_text("\n".join(map(str, [*range(9), 4])), encoding="utf-8")
        cfg = write_config(tmp_path, SYNTH.format(n=10, kind="ma").replace(
            "n = 10", f"n = 10\nsample_file = {sfile}"))
        out = tmp_path / "out"
        assert main([command, "--config", str(cfg), "--seed", "1",
                     "--out", str(out)]) == 2
        err = capsys.readouterr().err
        assert "sample indices must be distinct" in err and "Traceback" not in err
        assert not list(out.glob("*.csv"))

    @pytest.mark.parametrize("threads", [1, 2])
    def test_meta_records_the_blas_thread_count(self, tmp_path, threads):
        # estimate and bands run on one BLAS thread whatever the caller's
        # count, record that pinned count and give the caller its own back
        before = linalg._set_blas_threads(threads)
        try:
            caller = linalg.blas_threads()
            cfg = write_config(tmp_path, SYNTH.format(n=10, kind="ma"))
            for command, meta in (("estimate", "estimate.meta.json"),
                                  ("bands", "band.meta.json")):
                out = tmp_path / command
                assert main([command, "--config", str(cfg), "--seed", "1",
                             "--out", str(out)]) == 0
                recorded = json.loads((out / meta).read_text())
                assert "blas_threads" in recorded
                assert recorded["blas_threads"] == (None if before is None else 1)
                assert linalg.blas_threads() == caller
        finally:
            if before is not None:
                linalg._set_blas_threads(before)

    def test_a_fresh_seed_is_recorded(self, tmp_path):
        cfg = write_config(tmp_path, SYNTH.format(n=10, kind="ma"))
        out = tmp_path / "out"
        assert main(["estimate", "--config", str(cfg), "--out", str(out)]) == 0
        seed = json.loads((out / "estimate.meta.json").read_text())["seed"]
        assert isinstance(seed, int) and 0 <= seed < 2**32

    def test_the_package_exports_its_names_and_no_module(self):
        namespace = {}
        exec("from curvesurvey import *", namespace)
        del namespace["__builtins__"]
        assert sorted(namespace) == sorted(curvesurvey.__all__)
        assert len(curvesurvey.__all__) == 15
        assert not any(isinstance(getattr(curvesurvey, name), types.ModuleType)
                       for name in curvesurvey.__all__)

    @staticmethod
    def fresh_interpreter(code: str, **env: str) -> str:
        """What `code` prints in a fresh interpreter, with env set."""
        proc = subprocess.run([sys.executable, "-c", code],
                              capture_output=True, text=True,
                              env={**os.environ, **env})
        assert proc.returncode == 0, proc.stderr
        return proc.stdout.strip()

    def test_import_loads_neither_the_pool_nor_the_oracle(self):
        # multiprocessing and the oracle are imported by the commands that
        # use them, not by every command
        code = ("import sys, curvesurvey.cli; print(sorted("
                "{'multiprocessing', 'curvesurvey.oracle'} & set(sys.modules)))")
        assert self.fresh_interpreter(code) == "[]"

    def test_the_package_import_loads_no_numpy(self):
        # so curvesurvey.cli runs before numpy loads OpenBLAS
        code = "import sys, curvesurvey; print('numpy' in sys.modules)"
        assert self.fresh_interpreter(code) == "False"

    def test_montecarlo_loads_no_numpy_ma(self, tmp_path):
        # the first np.quantile of a process imports numpy.ma; the campaign
        # report computes its quantiles without it
        cfg = write_config(tmp_path, SYNTH.format(n=10, kind="ma"))
        argv = ["montecarlo", "--config", str(cfg), "--seed", "1",
                "--out", str(tmp_path / "out")]
        code = ("import sys; from curvesurvey.cli import main; "
                f"print(main({argv!r}), 'numpy.ma' in sys.modules)")
        assert self.fresh_interpreter(code).splitlines()[-1] == "0 False"

    @pytest.mark.parametrize("imports, threads", [
        ("curvesurvey.cli", 1),  # a CLI process starts OpenBLAS on one thread
        ("numpy, curvesurvey.cli", 2),  # a caller's numpy keeps its count
    ])
    def test_the_cli_starts_openblas_on_one_thread(self, imports, threads):
        # OpenBLAS caps its thread count at the core count
        if linalg.blas_threads() is None or (os.cpu_count() or 1) < 2:
            pytest.skip("needs OpenBLAS and two cores")
        code = (f"import {imports}, curvesurvey.linalg as linalg; "
                "print(linalg.blas_threads())")
        assert self.fresh_interpreter(code, OPENBLAS_NUM_THREADS="2") == str(threads)

    @pytest.mark.parametrize("command", ["estimate", "bands", "montecarlo"])
    def test_the_census_fit_difference_kind_exits_2(self, tmp_path, capsys,
                                                    command):
        # the difference estimator is an oracle, not a kind a config names
        cfg = write_config(tmp_path, SYNTH.format(n=10, kind="difference"))
        out = tmp_path / "out"
        assert main([command, "--config", str(cfg), "--seed", "1",
                     "--out", str(out)]) == 2
        err = capsys.readouterr().err
        assert "must be one of ht, hajek, ma" in err and "Traceback" not in err
        assert not out.exists()

    def test_bands_deterministic_and_ordered(self, tmp_path):
        cfg = write_config(tmp_path, SYNTH.format(n=25, kind="ma"))
        out1, out2 = tmp_path / "b1", tmp_path / "b2"
        for out in (out1, out2):
            assert main(["bands", "--config", str(cfg), "--seed", "11",
                         "--out", str(out)]) == 0
        assert (out1 / "band.csv").read_bytes() == (out2 / "band.csv").read_bytes()
        rows = (out1 / "band.csv").read_text().strip().splitlines()[1:]
        for row in rows:
            _, center, lower, upper, sigma = map(float, row.split(","))
            assert lower < center < upper and sigma > 0

    @pytest.mark.parametrize("kind", ["ma", "ht"])
    def test_band_meta_records_the_estimate_it_was_built_on(self, tmp_path,
                                                            kind):
        # bands builds the model-assisted band whatever [estimator] kind
        # says, and its meta file says so, as estimate.meta.json does
        cfg = write_config(tmp_path, SYNTH.format(n=25, kind=kind))
        out = tmp_path / "out"
        assert main(["bands", "--config", str(cfg), "--seed", "11",
                     "--out", str(out)]) == 0
        meta = json.loads((out / "band.meta.json").read_text())
        assert meta["estimator_kind"] == "ModelAssisted"
        assert meta["a"] == 0.0

    def test_bands_alpha_monotone(self, tmp_path):
        widths = {}
        for alpha in ("0.05", "0.01"):
            cfg = write_config(
                tmp_path, SYNTH.format(n=25, kind="ma").replace(
                    "alpha = 0.05", f"alpha = {alpha}"
                )
            )
            out = tmp_path / f"a{alpha}"
            assert main(["bands", "--config", str(cfg), "--seed", "11",
                         "--out", str(out)]) == 0
            rows = (out / "band.csv").read_text().strip().splitlines()[1:]
            widths[alpha] = np.array(
                [float(r.split(",")[3]) - float(r.split(",")[2]) for r in rows]
            )
        assert np.all(widths["0.01"] > widths["0.05"])

    def test_montecarlo_outputs(self, tmp_path):
        cfg = write_config(tmp_path, SYNTH.format(n=10, kind="ma"))
        out = tmp_path / "mc"
        assert main(["montecarlo", "--config", str(cfg), "--seed", "3",
                     "--out", str(out)]) == 0
        assert (out / "report.txt").exists()
        assert (out / "report.csv").exists()
        assert (out / "gamma_emp_n10.csv").exists()
        assert (out / "gamma_emp_n20.csv").exists()

    def test_report_files_carry_no_coverage_band_count(self, tmp_path):
        cfg = write_config(tmp_path, SYNTH.format(n=10, kind="ma"))
        out = tmp_path / "mc"
        assert main(["montecarlo", "--config", str(cfg), "--seed", "3",
                     "--out", str(out)]) == 0
        header = (out / "report.csv").read_text().splitlines()[0]
        assert header == ("n,replicates,rmse,rb_squared,vr,q5,q25,median,"
                          "q75,q95,coverage,errors,seed")
        assert "bands" not in (out / "report.txt").read_text()

    def test_oracle_check_passes(self, capsys):
        assert main(["oracle-check", "--seed", "0"]) == 0
        assert "14/14 checks passed" in capsys.readouterr().out

    def test_oracle_check_detects_corruption(self, tmp_path, capsys):
        cfg = write_config(tmp_path, "[oracle]\ncorrupt_pi2 = 0.01\n")
        assert main(["oracle-check", "--config", str(cfg), "--seed", "0"]) == 4
        assert "FAIL" in capsys.readouterr().out

    def test_validation_exit_code(self, tmp_path):
        cfg = write_config(tmp_path, "[population]\nsynthetic = true\n")
        assert main(["estimate", "--config", str(cfg), "--seed", "1",
                     "--out", str(tmp_path / "x")]) == 2


class TestCliRejectsBadNumbers:
    @pytest.mark.parametrize(
        "command, old, new, message",
        [
            ("estimate", "a = 0", "a = nan", "'a' must be finite"),
            ("estimate", "a = 0", "a = inf", "'a' must be finite"),
            ("bands", "alpha = 0.05", "alpha = -inf", "'alpha' must be finite"),
            ("estimate", "n_points = 5", "n_points = 5\nt_max = nan",
             "'t_max' must be finite"),
            ("montecarlo", "n_list = 10,20", "n_list = 5,abc",
             "n_list entries must be integers, got 'abc'"),
            # the n = 10 campaign would run twice and write two rows
            ("montecarlo", "n_list = 10,20", "n_list = 10,20,10",
             "n_list repeats n = 10"),
            ("estimate", "kind = srswor", "kind = srswor\nranges = 0-29,30-59\n"
             "n_per_stratum = 5,5", "need kind = stratified"),
            ("estimate", "kind = srswor", "kind = stratified\nranges = 0-29,30-59",
             "needs 'n_per_stratum'"),
            ("estimate", "kind = srswor",
             "kind = stratified\nranges = 0-29,30-x\nn_per_stratum = 5,5",
             "bad stratum range '30-x'"),
            ("estimate", "kind = srswor", "kind = stratified\nn_per_stratum = a1,b:1",
             "got 'a1'"),
            ("estimate", "kind = srswor", "kind = stratified\nn_per_stratum = a:x,b:1",
             "got 'x'"),
            ("oracle-check", "n_list = 10,20", "n_list = 10,20\n[oracle]\nn_units = abc",
             "'n_units' must be an integer, got 'abc'"),
            ("oracle-check", "n_list = 10,20", "n_list = 10,20\n[oracle]\ntol = nan",
             "'tol' must be finite"),
            ("montecarlo", "n_list = 10,20", "n_list = 10,20\ncoverage = maybe",
             "'coverage' must be a boolean, got 'maybe'"),
            ("estimate", "[design]", "[population]\nn_units = 5\n[design]",
             "section 'population' already exists"),
            ("estimate", "[population]\n", "", "no section headers"),
            ("bands", "n_sims = 500", "n_sim = 100", "unknown option 'n_sim' in [band]"),
            # corr**2 underflows to 0, so 1/corr**2 - 1 is not finite
            ("estimate", "n_points = 5", "n_points = 5\ncorr = 1e-300",
             "the residual variance is not finite"),
            ("estimate", "n = 10", "n = 10\nsample_file = no-such-file.txt",
             "cannot read sample file"),
            # the n = 10 campaign would run and write its CSV first
            ("montecarlo", "n_list = 10,20", "n_list = 10,500",
             "need 1 <= n <= N, got n=500, N=60"),
            # 10^14 simulations need a 728 TiB buffer, beyond any address
            # space, so the allocation fails at once
            ("bands", "n_sims = 500", "n_sims = 100000000000000", "Unable to allocate"),
            # a replicate key beyond one 32-bit word, refused before the
            # campaign's streams are seeded
            ("montecarlo", "replicates = 30", "replicates = 4294967297",
             "at most 2**32 replicates, got 4294967297"),
            # the coverage flag allocates the same buffer before any draw
            ("montecarlo", "n_sims = 500\n\n[campaign]",
             "n_sims = 100000000000000\n\n[campaign]\ncoverage = true",
             "Unable to allocate"),
        ],
    )
    def test_exit_2_with_a_message(self, tmp_path, capsys, command, old, new,
                                   message):
        cfg = write_config(tmp_path, SYNTH.format(n=10, kind="ma").replace(old, new))
        out = tmp_path / "out"
        assert main([command, "--config", str(cfg), "--seed", "1",
                     "--out", str(out)]) == 2
        err = capsys.readouterr().err
        assert message in err and "Traceback" not in err
        assert not list(out.glob("*.csv"))

    # 10^14 x 5 normals need 3.6 PiB, beyond any address space, and
    # 10^30 rows are more than numpy can size an array for
    @pytest.mark.parametrize("n_sims", ["100000000000000", "1" + "0" * 30])
    def test_band_normals_beyond_memory_fail_before_any_replicate(
            self, tmp_path, capsys, monkeypatch, n_sims):
        from curvesurvey import montecarlo

        def no_replicate(*args):
            raise AssertionError("a replicate ran")

        monkeypatch.setattr(montecarlo, "_run_replicate", no_replicate)
        cfg = write_config(tmp_path, SYNTH.format(n=10, kind="ma").replace(
            "n_sims = 500\n\n[campaign]",
            f"n_sims = {n_sims}\n\n[campaign]\ncoverage = true"))
        out = tmp_path / "out"
        threads = threading.active_count()
        assert main(["montecarlo", "--config", str(cfg), "--seed", "1",
                     "--out", str(out)]) == 2
        assert threading.active_count() == threads
        [line] = capsys.readouterr().err.splitlines()
        assert line.startswith("error: ") and "Traceback" not in line
        assert f"{n_sims} band simulations of 5 points" in line \
            or "Unable to allocate" in line
        assert not list(out.glob("*"))

    def test_band_sims_beyond_what_numpy_can_size_exit_2(self, tmp_path,
                                                         capsys):
        # 10^30 sups are more than numpy can size an array for
        n_sims = "1" + "0" * 30
        cfg = write_config(tmp_path, SYNTH.format(n=10, kind="ma").replace(
            "n_sims = 500", f"n_sims = {n_sims}"))
        out = tmp_path / "out"
        assert main(["bands", "--config", str(cfg), "--seed", "1",
                     "--out", str(out)]) == 2
        [line] = capsys.readouterr().err.splitlines()
        assert line.startswith(f"error: {n_sims} band simulations: ")
        assert not list(out.glob("*.csv"))

    @pytest.mark.parametrize("command", ["estimate", "bands", "montecarlo",
                                         "oracle-check"])
    @pytest.mark.parametrize("option", ["t_max = 0", "t_max = -2",
                                        "length_scale = -1"])
    def test_a_nonpositive_scale_exits_2(self, tmp_path, capsys, command,
                                         option):
        key = option.partition(" = ")[0]
        cfg = write_config(tmp_path, SYNTH.format(n=10, kind="ma").replace(
            "n_points = 5", f"n_points = 5\n{option}"))
        out = tmp_path / "out"
        assert main([command, "--config", str(cfg), "--seed", "1",
                     "--out", str(out)]) == 2
        err = capsys.readouterr().err
        assert f"option '{key}' must lie in (0, inf)" in err
        assert "Traceback" not in err and not out.exists()

    def test_small_corr_still_runs(self, tmp_path):
        cfg = write_config(tmp_path, SYNTH.format(n=10, kind="ma").replace(
            "n_points = 5", "n_points = 5\ncorr = 0.01"))
        assert main(["estimate", "--config", str(cfg), "--seed", "1",
                     "--out", str(tmp_path / "out")]) == 0

    def test_negative_seed_exits_2(self, tmp_path, capsys):
        cfg = write_config(tmp_path, SYNTH.format(n=10, kind="ma"))
        with pytest.raises(SystemExit) as exc:
            main(["estimate", "--config", str(cfg), "--seed", "-1",
                  "--out", str(tmp_path / "out")])
        assert exc.value.code == 2
        err = capsys.readouterr().err
        assert "must be >= 0, got -1" in err and "Traceback" not in err

    @pytest.mark.parametrize("command", ["estimate", "bands", "montecarlo",
                                         "oracle-check"])
    @pytest.mark.parametrize("workers, message", [
        ("0", "must be >= 1, got 0"),
        ("-3", "must be >= 1, got -3"),
        ("two", "invalid positive_int value: 'two'"),
    ])
    def test_bad_workers_exits_2(self, tmp_path, capsys, command, workers,
                                 message):
        cfg = write_config(tmp_path, SYNTH.format(n=10, kind="ma"))
        with pytest.raises(SystemExit) as exc:
            main([command, "--config", str(cfg), "--workers", workers,
                  "--out", str(tmp_path / "out")])
        assert exc.value.code == 2
        err = capsys.readouterr().err
        assert message in err and "Traceback" not in err
        assert not (tmp_path / "out").exists()

    def test_zero_variance_band_exits_3(self, tmp_path, capsys):
        # a census has zero design variance at every grid point
        cfg = write_config(tmp_path, SYNTH.format(n=60, kind="ma"))
        assert main(["bands", "--config", str(cfg), "--seed", "1",
                     "--out", str(tmp_path / "b")]) == 3
        err = capsys.readouterr().err
        assert "not strictly positive" in err and "Traceback" not in err

    @pytest.mark.parametrize("a", ["0", "auto"])
    def test_huge_auxiliary_column_exits_3(self, tmp_path, capsys, a):
        # a finite column of size 1e160 squares past the float64 range
        pop = study_population(30, 5, corr=0.9, seed=2)
        aux = pop.aux * [1.0, 1e160]
        path = tmp_path / "pop.csv"
        write_population_csv(path, FunctionalPopulation(pop.grid, pop.values, aux),
                             aux_names=["intercept", "past_mean"])
        cfg = write_config(tmp_path, f"[population]\ncsv = {path}\n\n[design]\n"
                           f"kind = srswor\nn = 12\n\n[estimator]\nkind = ma\n"
                           f"a = {a}\n")
        out = tmp_path / "out"
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            assert main(["estimate", "--config", str(cfg), "--seed", "1",
                         "--out", str(out)]) == 3
        assert not [w for w in caught if issubclass(w.category, RuntimeWarning)]
        err = capsys.readouterr().err
        assert "sampled moment matrix" in err and "Traceback" not in err
        assert not list(out.glob("*.csv"))


    @pytest.mark.parametrize("command, kind", [
        ("bands", "ma"), ("montecarlo", "ma"), ("montecarlo", "ht"),
        ("montecarlo", "hajek"),
    ])
    def test_huge_curve_values_exit_3(self, tmp_path, capsys, command, kind):
        # finite curve values near +-1e200 square past the float64 range
        pop = study_population(30, 5, corr=0.9, seed=2)
        values = 1e200 * np.random.default_rng(0).uniform(-1.0, 1.0, (30, 5))
        path = tmp_path / "pop.csv"
        write_population_csv(path, FunctionalPopulation(pop.grid, values, pop.aux),
                             aux_names=["intercept", "past_mean"])
        cfg = write_config(tmp_path, f"[population]\ncsv = {path}\n\n[design]\n"
                           f"kind = srswor\nn = 12\n\n[estimator]\nkind = {kind}\n"
                           f"\n[campaign]\nreplicates = 5\n")
        out = tmp_path / "out"
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            assert main([command, "--config", str(cfg), "--seed", "1",
                         "--out", str(out)]) == 3
        assert not [w for w in caught if issubclass(w.category, RuntimeWarning)]
        err = capsys.readouterr().err
        assert "covariance overflows float64" in err and "Traceback" not in err
        assert not list(out.glob("*.csv"))

    def test_a_variance_near_overflow_gives_a_finite_band(self, tmp_path):
        # curve values near +-5e154: each gamma_hat(t, t) is finite, n times
        # the largest is not, and sigma_hat = sqrt(n) sqrt(gamma_hat) is
        pop = study_population(30, 5, corr=0.9, seed=2)
        values = 5e154 * np.random.default_rng(0).uniform(-1.0, 1.0, (30, 5))
        path = tmp_path / "pop.csv"
        write_population_csv(path, FunctionalPopulation(pop.grid, values, pop.aux),
                             aux_names=["intercept", "past_mean"])
        cfg = write_config(tmp_path, f"[population]\ncsv = {path}\n\n[design]\n"
                           "kind = srswor\nn = 12\n\n[band]\nn_sims = 500\n")
        out = tmp_path / "out"
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            assert main(["bands", "--config", str(cfg), "--seed", "1",
                         "--out", str(out)]) == 0
        assert not [w for w in caught if issubclass(w.category, RuntimeWarning)]
        gamma = np.loadtxt(out / "covariance.csv", delimiter=",", skiprows=1)
        variance = np.diag(gamma[:, 1:])
        assert variance.max() > np.finfo(float).max / 12
        band = np.loadtxt(out / "band.csv", delimiter=",", skiprows=1)
        assert np.isfinite(band).all()
        assert np.allclose(band[:, 4], np.sqrt(12.0) * np.sqrt(variance),
                           rtol=1e-13, atol=0.0)

    @pytest.mark.parametrize("workers", ["1", "2"])
    def test_a_failing_later_size_writes_nothing(self, tmp_path, capsys,
                                                 workers):
        # n = 20 succeeds; no replicate can fit the regression at n = 1
        cfg = write_config(tmp_path, "[population]\nsynthetic = true\n"
                           "n_units = 200\nn_points = 12\n\n[design]\n"
                           "kind = srswor\nn = 20\n\n[estimator]\nkind = ma\n"
                           "a = 0\n\n[campaign]\nreplicates = 10\n"
                           "n_list = 20,1\n")
        out = tmp_path / "out"
        assert main(["montecarlo", "--config", str(cfg), "--seed", "1",
                     "--workers", workers, "--out", str(out)]) == 3
        err = capsys.readouterr().err
        assert "only 0 of 10 replicates at n = 1 produced estimates" in err
        assert "Traceback" not in err
        assert list(out.iterdir()) == []


class TestCliRejectsUndecodableFiles:
    def _exits_2_naming(self, tmp_path, capsys, body, path):
        cfg = write_config(tmp_path, body)
        out = tmp_path / "out"
        assert main(["estimate", "--config", str(cfg), "--seed", "1",
                     "--out", str(out)]) == 2
        err = capsys.readouterr().err
        assert f"{path}: not UTF-8 text" in err and "Traceback" not in err
        assert not list(out.glob("*.csv"))

    def test_sample_file(self, tmp_path, capsys):
        sfile = tmp_path / "sample.txt"
        sfile.write_bytes(b"1\n\xfe\n")
        body = SYNTH.format(n=10, kind="ma").replace(
            "n = 10", f"n = 10\nsample_file = {sfile}")
        self._exits_2_naming(tmp_path, capsys, body, sfile)

    def test_population_csv(self, tmp_path, capsys, pop_csv):
        path, _ = pop_csv
        header, first, rest = path.read_bytes().split(b"\n", 2)
        cells = first.split(b",")
        cells[1] = b"\xff"
        path.write_bytes(b"\n".join([header, b",".join(cells), rest]))
        body = (f"[population]\ncsv = {path}\n\n[design]\nkind = srswor\n"
                "n = 12\n\n[estimator]\nkind = ma\na = 0\n")
        self._exits_2_naming(tmp_path, capsys, body, path)


class TestCliRejectsBadPaths:
    @pytest.mark.parametrize("below", [False, True])
    def test_out_is_a_file_or_below_one(self, tmp_path, capsys, below):
        cfg = write_config(tmp_path, SYNTH.format(n=10, kind="ma"))
        taken = tmp_path / "taken"
        taken.write_text("not a directory\n", encoding="utf-8")
        out = taken / "out" if below else taken
        assert main(["estimate", "--config", str(cfg), "--seed", "1",
                     "--out", str(out)]) == 2
        err = capsys.readouterr().err
        assert "cannot create output directory" in err and "Traceback" not in err
        assert taken.read_text(encoding="utf-8") == "not a directory\n"

    @pytest.mark.parametrize("kind", ["directory", "missing", "below a file"])
    def test_population_csv_cannot_be_opened(self, tmp_path, capsys, kind):
        path = tmp_path / "pop.csv"
        if kind == "directory":
            path.mkdir()
        elif kind == "below a file":
            path.write_text("t0,t1\n1,2\n", encoding="utf-8")
            path = path / "pop.csv"
        cfg = write_config(tmp_path, f"[population]\ncsv = {path}\n\n[design]\n"
                           "kind = srswor\nn = 12\n")
        out = tmp_path / "out"
        assert main(["estimate", "--config", str(cfg), "--seed", "1",
                     "--out", str(out)]) == 2
        err = capsys.readouterr().err
        assert "cannot read population csv" in err and "Traceback" not in err
        assert not out.exists()


STRATIFIED = """
[population]
synthetic = true
n_units = 60
n_points = 5

[design]
kind = stratified
n = 4
ranges = 0-29,30-59
n_per_stratum = 2,2
{extra}
[estimator]
kind = ma
a = 0

[campaign]
replicates = 5
{campaign}
"""


class TestStratifiedCli:
    def test_sample_file_with_wrong_stratum_counts_rejected(self, tmp_path, capsys):
        # three units from stratum 0 and one from stratum 1, against n_h = 2,2
        sfile = tmp_path / "sample.txt"
        sfile.write_text("0\n1\n2\n40\n", encoding="utf-8")
        cfg = write_config(tmp_path, STRATIFIED.format(
            extra=f"sample_file = {sfile}\n", campaign=""))
        for command in ("estimate", "bands"):
            assert main([command, "--config", str(cfg), "--seed", "1",
                         "--out", str(tmp_path / command)]) == 2
            assert "per stratum" in capsys.readouterr().err

    def test_sample_file_with_right_stratum_counts_accepted(self, tmp_path):
        sfile = tmp_path / "sample.txt"
        sfile.write_text("0\n1\n40\n41\n", encoding="utf-8")
        cfg = write_config(tmp_path, STRATIFIED.format(
            extra=f"sample_file = {sfile}\n", campaign=""))
        assert main(["bands", "--config", str(cfg), "--seed", "1",
                     "--out", str(tmp_path / "b")]) == 0

    def test_n_list_rejected_for_stratified_design(self, tmp_path, capsys):
        cfg = write_config(tmp_path, STRATIFIED.format(
            extra="", campaign="n_list = 10,30\n"))
        out = tmp_path / "mc"
        assert main(["montecarlo", "--config", str(cfg), "--seed", "1",
                     "--out", str(out)]) == 2
        assert "n_list" in capsys.readouterr().err
        assert not (out / "report.csv").exists()
        assert not list(out.glob("gamma_emp_n*.csv"))

    def test_n_list_of_the_design_size_accepted(self, tmp_path):
        cfg = write_config(tmp_path, STRATIFIED.format(
            extra="", campaign="n_list = 4\n"))
        out = tmp_path / "mc"
        assert main(["montecarlo", "--config", str(cfg), "--seed", "1",
                     "--out", str(out)]) == 0
        rows = (out / "report.csv").read_text().strip().splitlines()
        assert len(rows) == 2 and rows[1].startswith("4,")


# Valid small values of every option (sizes bounded to keep runs short),
# and junk for any of them.
FUZZ_VALUES = {
    "population": {
        "synthetic": ("true", "false"), "n_units": ("12", "40", "60"),
        "n_points": ("2", "5"), "corr": ("0.5", "0.95"), "t_max": ("1", "3.5"),
        "kernel": ("white", "exponential", "periodic_exponential"),
        "length_scale": ("0.2", "2"),
    },
    "design": {
        "kind": ("srswor", "stratified"), "n": ("4", "10"),
        "ranges": ("0-5,6-11", "0-19,20-39"), "n_per_stratum": ("2,2", "5,5", "a:2,b:2"),
    },
    "estimator": {"kind": ("ht", "hajek", "ma"), "a": ("0", "auto", "1e-3")},
    "band": {"alpha": ("0.05", "0.3"), "n_sims": ("100", "500")},
    "campaign": {"replicates": ("2", "5"), "n_list": ("4,8", "10"), "coverage": ("true", "no")},
    "oracle": {
        "n_units": ("4", "6"), "n": ("1", "2", "3"), "n_points": ("2", "3"),
        "seed": ("0", "7"), "tol": ("1e-10", "1e-6"), "corrupt_pi2": ("0", "0.01"),
    },
}
FUZZ_JUNK = ("nan", "inf", "-inf", "-1", "0", "1e308", "1e-300", "", "abc", "5-",
             "0-x", "a:", ":3", "a:b", "3,,x", "%(x)s", "difference")
FUZZ_BASE = {
    "population": {"synthetic": "true", "n_units": "40", "n_points": "5"},
    "design": {"kind": "srswor", "n": "10"},
    "estimator": {"kind": "ma", "a": "0"},
    "band": {"n_sims": "200"},
    "campaign": {"replicates": "4", "n_list": "6,12", "coverage": "true"},
    "oracle": {},
}


@st.composite
def ini_texts(draw):
    """INI text: a small valid run config with a few options set to other
    valid values or junk, dropped or renamed, plus stray lines (unknown or
    duplicate sections and keys, options before any header)."""
    config = {name: dict(options) for name, options in FUZZ_BASE.items()}
    for _ in range(draw(st.integers(0, 4))):
        name = draw(st.sampled_from(sorted(FUZZ_VALUES)))
        key = draw(st.sampled_from(sorted(FUZZ_VALUES[name]) + ["n_sim"]))
        action = draw(st.sampled_from(("valid", "junk", "drop")))
        if action == "drop" and key != "replicates":  # 1000 replicates by default
            config[name].pop(key, None)
        else:
            values = FUZZ_VALUES[name].get(key, ()) if action == "valid" else ()
            config[name][key] = draw(st.sampled_from(values or FUZZ_JUNK))
    lines = []
    for name, options in config.items():
        lines.append(f"[{name}]")
        lines.extend(f"{key} = {value}" for key, value in options.items())
    stray = ("[bogus]", "[band]", "alpha = 0.1", "alpha = 0.2", "no equals sign")
    for line in draw(st.lists(st.sampled_from(stray), max_size=2)):
        lines.insert(draw(st.integers(0, len(lines))), line)
    return "\n".join(lines) + "\n"


@given(ini_texts())
@settings(max_examples=30, deadline=None)
def test_cli_survives_arbitrary_config(text):
    """Every subcommand exits 0, 2, 3 or 4 on any config text, prints no
    traceback and writes only finite numbers.  The generated population,
    replicate and simulation counts stay small (n_units <= 60,
    replicates <= 5, n_sims <= 500), and replicates is never dropped (its
    default is 1000), only to bound the run time; a huge allocation is
    covered by TestCliRejectsBadNumbers."""
    with tempfile.TemporaryDirectory() as tmp:
        cfg = Path(tmp) / "run.ini"
        cfg.write_text(text, encoding="utf-8")
        for command in ("estimate", "bands", "montecarlo", "oracle-check"):
            out = Path(tmp) / command
            err = io.StringIO()
            with contextlib.redirect_stderr(err), contextlib.redirect_stdout(io.StringIO()):
                code = main([command, "--config", str(cfg), "--seed", "1",
                             "--out", str(out)])
            assert code in (0, 2, 3, 4), (command, code, err.getvalue())
            assert "Traceback" not in err.getvalue()
            for table in out.glob("*.csv"):
                for cell in table.read_text(encoding="utf-8").replace("\n", ",").split(","):
                    try:
                        value = float(cell)
                    except ValueError:
                        continue
                    assert math.isfinite(value), (table.name, cell)
