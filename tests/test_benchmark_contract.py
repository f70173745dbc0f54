"""The benchmark's tracer wraps package functions by name; keep those names alive.

``perfbench/tracer.py`` is read here, never written: it is loaded by path,
every traced ``(module, function)`` must resolve, and a traced
``distribution --wigner`` run must produce the span summaries the tracer
reads and leave no wrapper bound.
"""

import importlib
import importlib.util
from pathlib import Path

import pytest

from heatlaser.cli import main

TRACER_PATH = Path(__file__).parents[1] / "perfbench" / "tracer.py"


@pytest.fixture(scope="module")
def tracer():
    spec = importlib.util.spec_from_file_location("perfbench_tracer", TRACER_PATH)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_every_traced_layer_resolves(tracer):
    for module_name, func_name, _ in tracer.LAYERS:
        assert callable(getattr(importlib.import_module(module_name), func_name))
    tracer.self_test()


def test_traced_wigner_run_summarizes_and_unwraps(tracer, tmp_path):
    run = tracer.Tracer()
    run.install()
    try:
        argv = ["distribution", "--config", "fig2", "--nh", "2", "--wigner", "--out", str(tmp_path)]
        assert main(argv) == 0
    finally:
        run.uninstall()
    assert tracer.installed_wrappers() == []
    metrics = tracer.layer_metrics(run.spans)
    assert metrics["solver.wigner.grid_points"] == 101 * 101
    assert metrics["solver.solve_model.n_max_max"] > 0
