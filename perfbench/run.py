"""qsense benchmark: seeded scenario workloads through qsense.cli.run.

Run from the root of a source checkout:

    python3 perfbench/run.py --workload mc_saturation --seed 1 --seconds 15 --trace 0
    python3 perfbench/run.py --workload all --seed 1 --seconds 15 --trace 0

For each workload it generates the configs from the seed, times a fresh
interpreter's set-up several times, then runs one workload process (a closed
loop with a single caller) and judges every scenario with oracles.py.
With --trace 0 the last stdout line carries the end-to-end metrics, with
--trace 1 the per-layer metrics of a traced pass.  Every run also prints a
run record (versions, core count, BLAS threads, commit, seed, source lines).
"""

from __future__ import annotations

import argparse
import glob
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import tempfile
import time

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, HERE)

import oracles  # noqa: E402
import workloads  # noqa: E402

WORKER = os.path.join(HERE, "worker.py")
REFERENCE = os.path.join(HERE, "reference.json")
RUN_BUDGET_S = 170.0  # one invocation must end within 180 s
SCRATCH = ".perfbench_tmp"
OUTPUT = ".perfbench_out"


def nproc() -> int:
    return len(os.sched_getaffinity(0))


def worker_env(root: str) -> dict:
    """Environment of the workload processes: the checkout's sources, BLAS capped."""
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join([os.path.join(root, "src"), HERE])
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        env[var] = str(nproc())
    return env


def run_record(root: str, args, env: dict) -> dict:
    import numpy
    import scipy

    blas = numpy.__config__.CONFIG.get("Build Dependencies", {}).get("blas", {})
    commit = None
    if os.path.isdir(os.path.join(root, ".git")):
        proc = subprocess.run(["git", "rev-parse", "HEAD"], cwd=root, capture_output=True,
                              text=True, check=False)
        commit = proc.stdout.strip() or None
    src_lines = 0
    for path in sorted(glob.glob(os.path.join(root, "src", "qsense", "*.py"))):
        with open(path) as fh:
            src_lines += sum(1 for _ in fh)
    return {
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "nproc": nproc(),
        "blas_threads": int(env["OPENBLAS_NUM_THREADS"]),
        "commit": commit,
        "seed": args.seed,
        "scale": args.scale,
        "seconds": args.seconds,
        "trace": args.trace,
        "src_lines": src_lines,
    }


def _subprocess(cmd, env, deadline) -> str:
    timeout = deadline - time.monotonic()
    if timeout <= 0:
        raise TimeoutError("run budget exhausted")
    proc = subprocess.run(cmd, env=env, capture_output=True, text=True, timeout=timeout)
    if proc.returncode != 0:
        raise RuntimeError(f"{' '.join(cmd[1:3])} exited {proc.returncode}:\n{proc.stderr[-2000:]}")
    return proc.stdout


def run_workload(root: str, workload: str, args, env: dict, deadline: float) -> dict:
    """Generate, set up, run and judge one workload; returns its result object."""
    os.makedirs(os.path.join(root, SCRATCH), exist_ok=True)
    tmp = tempfile.mkdtemp(prefix=f"{workload}-", dir=os.path.join(root, SCRATCH))
    try:
        manifest = workloads.generate(workload, args.seed, args.scale, os.path.join(tmp, "cfg"))
        manifest_path = os.path.join(tmp, "manifest.json")
        with open(manifest_path, "w") as fh:
            json.dump(manifest, fh)

        setups = []
        for _ in range(workloads.SIZES[args.scale]["setup_repeats"]):
            out = _subprocess([sys.executable, WORKER, "--setup-probe"], env, deadline)
            setups.append(json.loads(out.strip().splitlines()[-1])["setup_s"])

        result_path = os.path.join(tmp, "result.json")
        cmd = [sys.executable, WORKER, manifest_path, "--seconds", str(args.seconds),
               "--trace", str(args.trace), "--out", result_path]
        if args.trace:
            os.makedirs(os.path.join(root, OUTPUT), exist_ok=True)
            cmd += ["--spans", os.path.join(root, OUTPUT, f"spans-{workload}-seed{args.seed}.csv")]
        _subprocess(cmd, env, deadline)
        with open(result_path) as fh:
            result = json.load(fh)
        setups.append(result["worker_setup_s"])
        return judge(root, workload, manifest, result, setups, args)
    finally:
        shutil.rmtree(tmp, ignore_errors=True)


def load_reference() -> dict:
    if not os.path.exists(REFERENCE):
        return {}
    with open(REFERENCE) as fh:
        return json.load(fh)


def judge(root: str, workload: str, manifest: dict, result: dict, setups: list, args) -> dict:
    """Oracle verdicts for every attempt, then the metrics of this run."""
    import jsonschema

    with open(os.path.join(root, "src", "qsense", "schemas", "report.schema.json")) as fh:
        validator = jsonschema.Draft202012Validator(json.load(fh))
    cycles = manifest["cycles"]
    failures = []
    for k, att in enumerate(result["attempts"]):
        item = manifest["anchor"] if att["cycle"] < 0 else \
            cycles[att["cycle"] % len(cycles)][att["index"]]
        msgs = oracles.check_report(item, att["rc"], att["report"], validator)
        if att["error"]:
            msgs.insert(0, att["error"])
        if k == 0:
            recorded = load_reference().get(args.scale, {}).get(workload)
            msgs += oracles.check_reference(item, att["report"], recorded)
        if msgs:
            failures.append({"attempt": k, "config": os.path.basename(item["config"]),
                             "why": msgs})

    attempted = len(result["attempts"])
    timed = [a for a in result["attempts"][1:] if not a["traced"]]
    out = {"correct": not failures, "attempted": attempted, "failed": len(failures),
           "failures": failures, "samples": len(timed),
           "cycles": result["cycles_completed"], "anchor_s": result["attempts"][0]["seconds"]}
    if not args.trace:
        out["metrics"] = {
            "setup_s": {"value": statistics.median(setups), "unit": "s"},
            "scenarios_per_s": {"value": len(timed) / result["wall_s"], "unit": "1/s"},
            "scenario_s_p50": {"value": statistics.median(a["seconds"] for a in timed), "unit": "s"},
            "peak_rss_mb": {"value": result["peak_rss_mb"], "unit": "MB"},
        }
        return out
    tr = result["trace"]
    metrics = dict(result["layers"])
    metrics["trace.overhead_ratio"] = {"value": tr["traced_s"] / tr["untraced_s"], "unit": "ratio"}
    out["metrics"] = metrics
    out["trace"] = tr
    return out


def summary_lines(workload: str, res: dict) -> list[str]:
    lines = [f"== {workload}: {res['attempted']} attempted, {res['failed']} failed, "
             f"error_rate {res['failed'] / res['attempted']:.4g} ratio, "
             f"{res['samples']} timed samples, {res['cycles']} whole cycles, "
             f"anchor (warm-up) scenario {res['anchor_s']:.3f} s"]
    for name, m in res["metrics"].items():
        lines.append(f"  {name:32s} {m['value']:.6g} {m['unit']}")
    if "trace" in res:
        tr = res["trace"]
        covered = 1.0 - tr["cli_run_self_s"] / tr["traced_s"]
        lines.append(f"  spans {tr['spans']}; traced {tr['traced_s']:.4f} s vs untraced "
                     f"{tr['untraced_s']:.4f} s; entry points below cli.run cover "
                     f"{covered:.1%} of the traced time")
        if tr["missing"]:
            lines.append(f"  entry points not found, their metrics left out: {tr['missing']}")
    for fail in res["failures"][:10]:
        lines.append(f"  FAILED {fail}")
    return lines


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description="qsense benchmark")
    parser.add_argument("--workload", required=True, choices=workloads.WORKLOADS + ("all",))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--scale", choices=tuple(workloads.SIZES), default="full")
    args = parser.parse_args(argv)

    root = os.getcwd()
    if not os.path.isfile(os.path.join(root, "src", "qsense", "cli.py")):
        print("error: run from the root of a qsense checkout (src/qsense missing)",
              file=sys.stderr)
        return 2
    env = worker_env(root)
    record = run_record(root, args, env)
    print("record: " + json.dumps(record))

    names = workloads.WORKLOADS if args.workload == "all" else (args.workload,)
    results = {}
    for name in names:
        print(f"workload {name}: {workloads.WHY[name]}")
        try:
            deadline = time.monotonic() + RUN_BUDGET_S
            results[name] = run_workload(root, name, args, env, deadline)
        except (RuntimeError, TimeoutError, subprocess.TimeoutExpired) as exc:
            print(f"error: workload {name} did not complete: {exc}", file=sys.stderr)
            return 1
        print("\n".join(summary_lines(name, results[name])))

    if len(names) == 1:
        metrics = results[names[0]]["metrics"]
    else:
        metrics = {f"{w}.{k}": v for w, res in results.items() for k, v in res["metrics"].items()}
    print(json.dumps({
        "correct": all(r["correct"] for r in results.values()),
        "attempted": sum(r["attempted"] for r in results.values()),
        "failed": sum(r["failed"] for r in results.values()),
        "metrics": metrics,
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
