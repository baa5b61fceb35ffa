"""Workload process: one caller running scenario configs through qsense.cli.run.

Run by run.py in a fresh interpreter so that set-up cost and peak memory
belong to the workload alone.  Two modes:

  worker.py --setup-probe
      time `import qsense.cli` plus loading the packaged JSON schemas, print
      the seconds as one JSON line.
  worker.py MANIFEST --seconds S --trace 0|1 --out RESULT
      closed loop over the manifest's configs: the anchor first (warm-up, not
      timed), then whole cycles until S seconds have passed.  With --trace 1
      every config runs twice, untraced and traced, in alternating order, and
      the per-layer metrics come from the traced runs.
"""

from __future__ import annotations

import argparse
import json
import os
import resource
import sys
import time

HARD_STOP_FACTOR = 3.0  # stop mid-cycle past this multiple of --seconds


def setup_probe() -> float:
    start = time.perf_counter()
    import qsense.cli  # noqa: F401
    from importlib import resources

    for name in ("scenario.schema.json", "report.schema.json"):
        with resources.files("qsense").joinpath("schemas", name).open("r") as fh:
            json.load(fh)
    return time.perf_counter() - start


def _run_one(cli, item: dict, report: str) -> tuple[int, float, str]:
    """One cli.run call; an exception escaping it counts as a failed scenario."""
    start = time.perf_counter()
    try:
        rc = cli.run(item["config"], out=report, quiet=True)
        error = ""
    except Exception as exc:  # the benchmark must record the failure and go on
        rc, error = -1, f"{type(exc).__name__}: {exc}"
    return rc, time.perf_counter() - start, error


def _output_bytes(item: dict, report: str) -> int:
    paths = [report] + ([item["expect"]["csv"]] if "csv" in item["expect"] else [])
    return sum(os.path.getsize(p) for p in paths if os.path.exists(p))


def run_workload(manifest: dict, seconds: float, trace: bool, report_dir: str,
                 spans_path: str | None) -> dict:
    import qsense.cli as cli
    import tracing

    attempts = []

    def attempt(c, i, item, traced, tracer=None):
        report = os.path.join(report_dir, f"r{len(attempts):05d}.json")
        if traced:
            tracer.scenario = len(attempts)
            saved = tracing.install(tracer)
            try:
                rc, dt, err = _run_one(cli, item, report)
            finally:
                tracing.restore(saved)
        else:
            rc, dt, err = _run_one(cli, item, report)
        attempts.append({"cycle": c, "index": i, "report": report, "rc": rc,
                         "seconds": dt, "traced": traced, "error": err})
        return report

    anchor = attempt(-1, 0, manifest["anchor"], False)
    cycles = manifest["cycles"]
    tracer = tracing.Tracer() if trace else None
    output_bytes = 0
    start = time.perf_counter()
    done_cycles = 0
    hard_stop = False
    while not hard_stop and time.perf_counter() - start < seconds:
        for i, item in enumerate(cycles[done_cycles % len(cycles)]):
            if trace:
                order = (False, True) if (done_cycles + i) % 2 == 0 else (True, False)
                for traced in order:
                    report = attempt(done_cycles, i, item, traced, tracer)
                    if traced:
                        output_bytes += _output_bytes(item, report)
            else:
                attempt(done_cycles, i, item, False)
            if time.perf_counter() - start > HARD_STOP_FACTOR * seconds:
                hard_stop = True
                break
        else:
            done_cycles += 1
    wall = time.perf_counter() - start
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0

    result = {"anchor_report": anchor, "attempts": attempts, "wall_s": wall,
              "cycles_completed": done_cycles, "peak_rss_mb": peak_rss_mb}
    if trace:
        traced = [a for a in attempts if a["traced"]]
        untraced = [a for a in attempts[1:] if not a["traced"]]
        result["layers"] = tracing.layer_metrics(tracer, len(traced), output_bytes)
        selfs = tracing.self_times(tracer.spans)
        result["trace"] = {
            "spans": len(tracer.spans),
            "traced_s": sum(a["seconds"] for a in traced),
            "untraced_s": sum(a["seconds"] for a in untraced),
            "cli_run_self_s": sum(own for span, own in zip(tracer.spans, selfs)
                                  if span[1] == "cli.run"),
            "missing": sorted(tracer.missing),
        }
        if spans_path:
            tracing.write_spans(tracer, spans_path)
    return result


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("manifest", nargs="?")
    parser.add_argument("--setup-probe", action="store_true")
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--out")
    parser.add_argument("--spans")
    args = parser.parse_args(argv)
    if args.setup_probe:
        print(json.dumps({"setup_s": setup_probe()}))
        return 0
    setup_s = setup_probe()
    with open(args.manifest) as fh:
        manifest = json.load(fh)
    report_dir = os.path.join(os.path.dirname(args.manifest), "reports")
    os.makedirs(report_dir, exist_ok=True)
    result = run_workload(manifest, args.seconds, bool(args.trace), report_dir, args.spans)
    result["worker_setup_s"] = setup_s
    with open(args.out, "w") as fh:
        json.dump(result, fh)
    return 0


if __name__ == "__main__":
    sys.exit(main())
