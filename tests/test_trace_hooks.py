"""The benchmark's tracer (perfbench/tracing.py) still finds every entry point it spans.

Each workload's anchor config runs once through `cli.run` with the tracer
installed.  An entry point the tracer cannot find drops its per-layer
metrics from the benchmark's last line, so a renamed or bypassed call shows
up here rather than as a malformed benchmark run.
"""

import json
import sys
from pathlib import Path

import pytest

import qsense.cli as cli

ROOT = Path(__file__).resolve().parents[1]
sys.path.insert(0, str(ROOT / "perfbench"))

import tracing  # noqa: E402
import workloads  # noqa: E402

with open(ROOT / "BENCHMARK.json") as fh:
    # run.py computes the overhead ratio from two passes; the tracer does not
    DECLARED = {m["name"] for m in json.load(fh)["per_layer"]} - {"trace.overhead_ratio"}


@pytest.mark.parametrize("workload", workloads.WORKLOADS)
def test_traced_anchor_emits_every_declared_metric(workload, tmp_path):
    item = workloads.generate(workload, 1, "tiny", str(tmp_path))["anchor"]
    tracer = tracing.Tracer()
    saved = tracing.install(tracer)
    try:
        code = cli.run(item["config"], out=str(tmp_path / "report.json"), quiet=True)
    finally:
        tracing.restore(saved)
    assert code == 0
    layers = tracing.layer_metrics(tracer, scenarios=1, output_bytes=0)
    assert tracer.missing == set()
    assert DECLARED <= set(layers)
    assert [span[1] for span in tracer.spans].count("cli.schema_validate") == 2
