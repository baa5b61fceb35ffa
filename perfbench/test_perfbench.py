"""Tests of the benchmark itself.  Run from the checkout root:

    python3 -m pytest perfbench
"""

from __future__ import annotations

import json
import math
import os
import shutil
import subprocess
import sys

import pytest

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path.insert(0, HERE)
sys.path.insert(0, os.path.join(ROOT, "src"))

import oracles  # noqa: E402
import tracing  # noqa: E402
import workloads  # noqa: E402

with open(os.path.join(ROOT, "BENCHMARK.json")) as _fh:
    BENCHMARK = json.load(_fh)


def _run(*args, cwd=ROOT):
    return subprocess.run([sys.executable, os.path.join(HERE, "run.py"), *args], cwd=cwd,
                          capture_output=True, text=True, timeout=170)


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("workload", workloads.WORKLOADS)
def test_tiny_run_prints_every_metric(workload, trace):
    proc = _run("--workload", workload, "--seed", "1", "--seconds", "1", "--trace", str(trace),
                "--scale", "tiny")
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["failed"] == 0, proc.stdout
    assert result["attempted"] >= 2
    wanted = BENCHMARK["per_layer" if trace else "end_to_end"]
    assert set(result["metrics"]) == {m["name"] for m in wanted}
    for m in wanted:
        got = result["metrics"][m["name"]]
        assert got["unit"] == m["unit"]
        assert math.isfinite(got["value"])
        assert f"{m['name']} " in proc.stdout  # the human-readable line names it too


def test_run_outside_a_checkout_fails(tmp_path):
    shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), tmp_path)
    shutil.copytree(HERE, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__", ".pytest_cache"))
    proc = _run("--workload", "holevo_solve", "--seed", "1", "--seconds", "1", cwd=tmp_path)
    assert proc.returncode != 0
    assert "correct" not in proc.stdout


def test_self_time_arithmetic():
    # a [0, 10] holds b [1, 4] (which holds c [2, 3]) and d [5, 9]
    spans = [[0, "x.a", 0.0, 10.0, -1], [0, "x.b", 1.0, 4.0, 0],
             [0, "x.c", 2.0, 3.0, 1], [0, "x.d", 5.0, 9.0, 0]]
    assert tracing.self_times(spans) == [3.0, 2.0, 1.0, 4.0]
    assert sum(tracing.self_times(spans)) == 10.0


def test_nested_same_name_counted_once():
    tracer = tracing.Tracer()
    tracer.spans = [[0, "bounds.qfim", 0.0, 4.0, -1], [0, "bounds.qfim", 1.0, 3.0, 0]]
    layers = tracing.layer_metrics(tracer, scenarios=1, output_bytes=0)
    assert layers["bounds.qfim_s"]["value"] == 4.0
    assert layers["bounds.qfim_calls"]["value"] == 2
    assert layers["bounds.self_s"]["value"] == 4.0


def test_missing_entry_point_is_left_out(monkeypatch):
    import qsense.bayes
    import qsense.cli  # noqa: F401  (install patches every qsense module)

    monkeypatch.delattr(qsense.bayes, "likelihood_table")
    tracer = tracing.Tracer()
    tracing.restore(tracing.install(tracer))
    assert tracer.missing == {"bayes.likelihood_table"}
    layers = tracing.layer_metrics(tracer, scenarios=1, output_bytes=0)
    assert "bayes.likelihood_table_s" not in layers
    assert "bayes.update_s" in layers and "bayes.self_s" in layers


@pytest.fixture(scope="module")
def tiny_items(tmp_path_factory):
    """One real report per scenario kind, produced by qsense.cli.run."""
    import jsonschema
    import qsense.cli as cli

    with open(os.path.join(ROOT, "src", "qsense", "schemas", "report.schema.json")) as fh:
        validator = jsonschema.Draft202012Validator(json.load(fh))
    out = {}
    base = tmp_path_factory.mktemp("reports")
    for name in ("holevo_solve", "mc_saturation"):
        item = workloads.generate(name, 1, "tiny", str(base / name))["cycles"][0][0]
        report = str(base / f"{name}.json")
        assert cli.run(item["config"], out=report, quiet=True) == 0
        assert oracles.check_report(item, 0, report, validator) == []
        out[name] = (item, report)
    return out, validator


def _perturbed(report, edit):
    with open(report) as fh:
        data = json.load(fh)
    edit(data["results"])
    path = report.replace(".json", "-perturbed.json")
    with open(path, "w") as fh:
        json.dump(data, fh)
    return path


def test_perturbed_holevo_bound_fails(tiny_items):
    items, validator = tiny_items
    item, report = items["holevo_solve"]

    def scale_hb(res):
        res["hb"] *= 1.01

    assert oracles.check_report(item, 0, _perturbed(report, scale_hb), validator)


def test_perturbed_simulate_results_fail(tiny_items):
    items, validator = tiny_items
    item, report = items["mc_saturation"]

    def scale_variance(res):
        res["empirical_covariance"][0][0] *= 3.0

    assert oracles.check_report(item, 0, _perturbed(report, scale_variance), validator)
    assert oracles.check_report(item, 3, report, validator) == ["exit code 3"]
    with open(item["expect"]["csv"]) as fh:
        rows = fh.readlines()
    with open(item["expect"]["csv"], "w") as fh:
        fh.writelines(rows[:-1])
    assert oracles.check_report(item, 0, report, validator)


def test_same_seed_same_inputs(tmp_path):
    a = workloads.generate("analytic_sweep", 7, "tiny", str(tmp_path / "a"))
    b = workloads.generate("analytic_sweep", 7, "tiny", str(tmp_path / "b"))
    for x, y in zip(a["cycles"][0], b["cycles"][0]):
        with open(x["config"]) as fx, open(y["config"]) as fy:
            assert fx.read() == fy.read()
