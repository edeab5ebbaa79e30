"""The benchmark's tracer (perfbench/spans.py) must see every layer.

The tracer wraps the functions listed in `spans.TRACED` by replacing them in
the namespaces of the loaded curvesurvey modules.  A traced name that no
longer exists makes `--trace 1` fail, and a call path that holds a function
reference captured at import (e.g. in a table) bypasses the wrapper and
reads as zero time.  perfbench/ is read here, never edited.
"""

import importlib
import sys
from pathlib import Path

import pytest

import curvesurvey
from curvesurvey import SamplingDesign, cli, montecarlo, study_population

sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "perfbench"))
spans = importlib.import_module("spans")


@pytest.mark.parametrize("module, attr", sorted(spans.TRACED))
def test_traced_name_exists(module, attr):
    assert callable(getattr(importlib.import_module(f"curvesurvey.{module}"), attr))


def test_uninstall_leaves_no_wrapper_in_the_package():
    # the package resolves its exports on use and keeps none, so a traced
    # call through `curvesurvey.run_campaign` is seen, and the name reads
    # the original again once the tracer is gone
    pop = study_population(40, 5, seed=1)
    tracer = spans.Tracer()
    tracer.install()
    try:
        curvesurvey.run_campaign(pop, [SamplingDesign(N=pop.N, n=10)],
                                 replicates=3)
    finally:
        tracer.uninstall()
    assert spans.SpanStats(tracer.spans).count("montecarlo.run_campaign") == 1
    assert curvesurvey.run_campaign is montecarlo.run_campaign
    assert "run_campaign" not in vars(curvesurvey)


@pytest.mark.parametrize("estimator", ["ma", "ht", "hajek"])
def test_campaign_layers_are_traced(estimator):
    pop = study_population(40, 5, seed=1)
    design = SamplingDesign(N=pop.N, n=10)
    tracer = spans.Tracer()
    tracer.install()
    try:
        montecarlo.run_campaign(pop, [design], replicates=3,
                                estimator=estimator)
    finally:
        tracer.uninstall()
    recorded = spans.SpanStats(tracer.spans)
    # one span per block of replicates, ceil(3 / B)
    blocks = -(-3 // montecarlo.block_size(design.n, pop.grid.size))
    assert recorded.count("montecarlo.replicate") == blocks == 1
    for name in ("designs.draw", "estimators.mean", "covariance.estimate"):
        assert recorded.count(name, under="montecarlo.replicate") == blocks, name


def test_a_multi_size_cli_campaign_is_one_run_campaign_span(tmp_path):
    # the benchmark reads run_campaign's self time and pool overhead from
    # the one span of the CLI's whole campaign
    cfg = tmp_path / "run.ini"
    cfg.write_text("[population]\nsynthetic = true\nn_units = 200\n"
                   "n_points = 48\n\n[design]\nkind = srswor\nn = 50\n\n"
                   "[campaign]\nreplicates = 30\nn_list = 50,100\n",
                   encoding="utf-8")
    tracer = spans.Tracer()
    tracer.install()
    try:
        assert cli.main(["montecarlo", "--config", str(cfg), "--seed", "1",
                         "--out", str(tmp_path / "out")]) == 0
    finally:
        tracer.uninstall()
    recorded = spans.SpanStats(tracer.spans)
    assert recorded.count("montecarlo.run_campaign") == 1
    replicates = recorded.count("montecarlo.replicate")
    # blocks of 13 and 6 replicates: 3 + 5 spans
    assert replicates == sum(-(-30 // montecarlo.block_size(n, 48))
                             for n in (50, 100)) == 8
    assert recorded.count("montecarlo.replicate",
                          under="montecarlo.run_campaign") == replicates
