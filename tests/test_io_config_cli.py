import csv
import json

import numpy as np
import pytest

from curvesurvey import TimeGrid, ValidationError, study_population
from curvesurvey.cli import main
from curvesurvey.config import build_design, build_population, load_config
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
        assert design.kind == "stratified" and design.n_h == (2, 2)

    def test_label_strata(self, tmp_path):
        cfg = load_config(write_config(tmp_path, """
[design]
kind = stratified
n = 2
n_per_stratum = a:1,b:1
"""))
        design = build_design(cfg, 4, ["a", "b", "a", "b"])
        assert design.n_h == (1, 1)

    @pytest.mark.parametrize(
        "body",
        [
            "[population]\nsynthetic = true\nn_units = 10\ncorr = 1.5\n",
            "[population]\nsynthetic = true\nn_units = 10\n[estimator]\nkind = magic\n",
            "[population]\nsynthetic = true\nn_units = 10\n[band]\nalpha = 0\n",
            "[population]\ncsv = x.csv\nsynthetic = true\n",
            "[bogus]\nx = 1\n",
        ],
    )
    def test_rejects_invalid(self, tmp_path, body):
        with pytest.raises(ValidationError):
            load_config(write_config(tmp_path, body))


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
        from curvesurvey import population_mean
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

    def test_zero_variance_band_exits_3(self, tmp_path, capsys):
        # a census has zero design variance at every grid point
        cfg = write_config(tmp_path, SYNTH.format(n=60, kind="ma"))
        assert main(["bands", "--config", str(cfg), "--seed", "1",
                     "--out", str(tmp_path / "b")]) == 3
        err = capsys.readouterr().err
        assert "not strictly positive" in err and "Traceback" not in err


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
