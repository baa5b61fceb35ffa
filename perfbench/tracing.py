"""In-memory span tracer that wraps qsense's layer entry points from outside.

Nothing under src/ is edited: `install` replaces the names the callers look
up (module globals that hold an entry point, and the `__post_init__` of the
validated core types) with wrappers that record a span
(scenario, name, start, end, parent) and a few exact counts, and `restore`
puts the originals back.  Self time of a span is its duration minus the time
covered by its direct children; spans of one thread never overlap, so the
self times of all spans of a scenario add up to its top-level span.
"""

from __future__ import annotations

import functools
import math
import sys
import time
from collections import defaultdict

MODULES = ("cli", "core", "model", "bounds", "holevo", "dqs", "estimation", "bayes")


class Tracer:
    """Spans and counters of one traced pass, kept in memory until the end."""

    def __init__(self):
        self.spans: list[list] = []  # [scenario, name, start, end, parent]
        self.counts: dict[str, float] = defaultdict(float)
        self.scenario = -1
        self.missing: set[str] = set()  # span names whose entry point was not found
        self._stack: list[int] = []

    def call(self, name, fn, args, kwargs):
        idx = len(self.spans)
        parent = self._stack[-1] if self._stack else -1
        span = [self.scenario, name, time.perf_counter(), math.nan, parent]
        self.spans.append(span)
        self._stack.append(idx)
        try:
            return fn(*args, **kwargs)
        finally:
            span[3] = time.perf_counter()
            self._stack.pop()

    def wrap(self, name, fn, count=None):
        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            result = self.call(name, fn, args, kwargs)
            if count is not None:
                count(self.counts, args, kwargs, result)
            return result

        return wrapper


def self_times(spans) -> list[float]:
    """Duration of each span minus the durations of its direct children."""
    out = [end - start for _, _, start, end, _ in spans]
    for _, _, start, end, parent in spans:
        if parent >= 0:
            out[parent] -= end - start
    return out


# ---------------------------------------------------------------------------
# What gets wrapped


def _count_nodes(counts, args, kwargs, result):
    counts["model.grid_nodes"] += math.prod(result.shape[1:])


def _count_newton(counts, args, kwargs, result):
    counts["holevo.newton_steps"] += result.iterations


def _count_trials(counts, args, kwargs, result):
    counts["estimation.trials"] += result.trials


def _count_probe(counts, args, kwargs, result):
    basis = result.basis
    counts["dqs.support"] += len(result.amplitudes)
    counts["dqs.basis_size"] += math.comb(basis.total_particles + basis.modes - 1, basis.modes - 1)


def _count_fock(counts, args, kwargs, result):
    counts["core.fock_tuples"] += len(getattr(args[0], "occupations", ()))


# (module, attribute, span name, counter); the attribute is looked up in the
# named qsense module and every qsense module binding the same object is patched.
FUNCTIONS = [
    ("cli", "run", "cli.run", None),
    ("model", "probability_table", "model.probability_table", _count_nodes),
    ("model", "state_derivatives", "model.state_derivatives", None),
    ("bounds", "qfim", "bounds.qfim", None),
    ("bounds", "classical_fim", "bounds.classical_fim", None),
    ("bounds", "qfim_pure", "bounds.qfim_pure", None),
    ("holevo", "holevo_bound", "holevo.holevo_bound", _count_newton),
    ("holevo", "unbiased_family", "holevo.unbiased_family", None),
    ("dqs", "build_probe", "dqs.build_probe", _count_probe),
    ("dqs", "verify_probe", "dqs.verify_probe", None),
    ("estimation", "saturation_report", "estimation.saturation_report", _count_trials),
    ("bayes", "asymptotic_check", "bayes.asymptotic_check", None),
    ("bayes", "bayes_update", "bayes.bayes_update", None),
    ("bayes", "likelihood_table", "bayes.likelihood_table", None),
]
METHODS = [
    ("core", "DensityMatrix", "core.density_matrix", None),
    ("core", "FockBasis", "core.fock_basis", _count_fock),
]


def install(tracer: Tracer):
    """Patch every wrapped entry point; returns the list needed by `restore`."""
    import jsonschema

    mods = {name: sys.modules[f"qsense.{name}"] for name in MODULES}
    package = [m for name, m in sys.modules.items() if name.split(".")[0] == "qsense"]
    saved = []

    def patch(owner, attr, value):
        saved.append((owner, attr, getattr(owner, attr)))
        setattr(owner, attr, value)

    for mod, attr, name, count in FUNCTIONS:
        original = getattr(mods[mod], attr, None)
        if original is None:  # entry point gone: its metrics are left out, not read as 0
            tracer.missing.add(name)
            continue
        wrapper = tracer.wrap(name, original, count)
        for module in package:
            if vars(module).get(attr) is original:
                patch(module, attr, wrapper)
    for mod, cls_name, name, count in METHODS:
        cls = getattr(mods[mod], cls_name, None)
        if cls is None or not hasattr(cls, "__post_init__"):
            tracer.missing.add(name)
            continue
        patch(cls, "__post_init__", tracer.wrap(name, cls.__post_init__, count))

    # cli looks up jsonschema.validate on the module at call time
    if vars(mods["cli"]).get("jsonschema") is jsonschema:
        patch(jsonschema, "validate", tracer.wrap("cli.schema_validate", jsonschema.validate))
    else:
        tracer.missing.add("cli.schema_validate")

    # the bayes snapshot writer is a closure of cli handed to asymptotic_check
    check = getattr(mods["bayes"], "asymptotic_check", None)
    if check is None:
        tracer.missing.add("cli.snapshot")
        return saved

    def with_snapshot_span(*args, **kwargs):
        if kwargs.get("on_step") is not None:
            kwargs["on_step"] = tracer.wrap("cli.snapshot", kwargs["on_step"])
        return check(*args, **kwargs)

    for module in (mods["cli"], mods["bayes"]):
        if vars(module).get("asymptotic_check") is check:
            patch(module, "asymptotic_check", with_snapshot_span)
    return saved


def restore(saved) -> None:
    for owner, attr, value in reversed(saved):
        setattr(owner, attr, value)


# ---------------------------------------------------------------------------
# Per-layer metrics


def _module_of(name: str) -> str:
    return name.split(".", 1)[0]


def layer_metrics(tracer: Tracer, scenarios: int, output_bytes: float) -> dict:
    """Per-layer metrics, each a mean per traced scenario unless it is a ratio.

    A metric whose entry point was not found is left out rather than read as
    0, so that moving or renaming an entry point cannot pass for a gain.

    `<layer>.<entry>_s` is the inclusive time spent in that entry point (a
    nested call of the same name is not counted twice); `<module>.self_s` is
    the self time of all spans of that module; `estimation.trial_loop_s` is
    the self time of saturation_report, i.e. the trial loop and its CSV.
    """
    spans = tracer.spans
    selfs = self_times(spans)
    inclusive = defaultdict(float)
    calls = defaultdict(int)
    own_self = defaultdict(float)
    module_self = dict.fromkeys(MODULES, 0.0)
    for i, (_, name, start, end, parent) in enumerate(spans):
        calls[name] += 1
        own_self[name] += selfs[i]
        module_self[_module_of(name)] += selfs[i]
        ancestor = parent
        while ancestor >= 0 and spans[ancestor][1] != name:
            ancestor = spans[ancestor][4]
        if ancestor < 0:
            inclusive[name] += end - start

    n = max(scenarios, 1)
    c = tracer.counts
    if calls["cli.run"] and not calls["cli.schema_validate"]:
        tracer.missing.add("cli.schema_validate")  # every scenario validates: the hook missed it

    def ratio(a, b):
        return a / b if b else 0.0

    # metric name -> (value, unit), grouped by the entry point it is measured at
    by_source = {
        "model.probability_table": {
            "model.probability_table_s": (inclusive["model.probability_table"] / n, "s"),
            "model.grid_nodes": (c["model.grid_nodes"] / n, "count"),
            "model.s_per_node":
                (ratio(inclusive["model.probability_table"], c["model.grid_nodes"]), "s"),
        },
        "model.state_derivatives": {
            "model.state_derivatives_s": (inclusive["model.state_derivatives"] / n, "s"),
        },
        "core.density_matrix": {
            "core.density_matrix_calls": (calls["core.density_matrix"] / n, "count"),
            "core.density_matrix_s": (inclusive["core.density_matrix"] / n, "s"),
        },
        "core.fock_basis": {
            "core.fock_basis_s": (inclusive["core.fock_basis"] / n, "s"),
            "core.fock_tuples": (c["core.fock_tuples"] / n, "count"),
        },
        "estimation.saturation_report": {
            "estimation.trial_loop_s": (own_self["estimation.saturation_report"] / n, "s"),
            "estimation.trials_per_s":
                (ratio(c["estimation.trials"], own_self["estimation.saturation_report"]), "1/s"),
        },
        "bayes.bayes_update": {
            "bayes.update_s": (inclusive["bayes.bayes_update"] / n, "s"),
            "bayes.update_calls": (calls["bayes.bayes_update"] / n, "count"),
            "bayes.updates_per_s":
                (ratio(calls["bayes.bayes_update"], inclusive["bayes.bayes_update"]), "1/s"),
        },
        "bayes.likelihood_table": {
            "bayes.likelihood_table_s": (inclusive["bayes.likelihood_table"] / n, "s"),
        },
        "cli.snapshot": {
            "cli.snapshot_s": (inclusive["cli.snapshot"] / n, "s"),
        },
        "holevo.holevo_bound": {
            "holevo.solve_s": (inclusive["holevo.holevo_bound"] / n, "s"),
            "holevo.newton_steps": (c["holevo.newton_steps"] / n, "count"),
            "holevo.s_per_newton_step":
                (ratio(inclusive["holevo.holevo_bound"], c["holevo.newton_steps"]), "s"),
        },
        "holevo.unbiased_family": {
            "holevo.unbiased_family_s": (inclusive["holevo.unbiased_family"] / n, "s"),
        },
        "dqs.build_probe": {
            "dqs.build_probe_s": (inclusive["dqs.build_probe"] / n, "s"),
            "dqs.sector_fill": (ratio(c["dqs.support"], c["dqs.basis_size"]), "ratio"),
        },
        "dqs.verify_probe": {
            "dqs.verify_probe_s": (inclusive["dqs.verify_probe"] / n, "s"),
        },
        "bounds.qfim": {
            "bounds.qfim_s": (inclusive["bounds.qfim"] / n, "s"),
            "bounds.qfim_calls": (calls["bounds.qfim"] / n, "count"),
        },
        "bounds.classical_fim": {
            "bounds.classical_fim_s": (inclusive["bounds.classical_fim"] / n, "s"),
        },
        "bounds.qfim_pure": {
            "bounds.qfim_pure_s": (inclusive["bounds.qfim_pure"] / n, "s"),
        },
        "cli.schema_validate": {
            "cli.schema_validate_s": (inclusive["cli.schema_validate"] / n, "s"),
            "cli.schema_validate_calls": (calls["cli.schema_validate"] / n, "count"),
        },
        "cli.run": {
            "cli.output_bytes": (output_bytes / n, "bytes"),
        },
    }
    metrics = {name: {"value": value, "unit": unit}
               for source, group in by_source.items() if source not in tracer.missing
               for name, (value, unit) in group.items()}
    for mod, value in module_self.items():
        metrics[f"{mod}.self_s"] = {"value": value / n, "unit": "s"}
    return metrics


def write_spans(tracer: Tracer, path: str) -> None:
    """Write the spans as CSV: scenario, name, start, end, parent, self."""
    with open(path, "w") as fh:
        fh.write("scenario,name,start,end,parent,self\n")
        for span, own in zip(tracer.spans, self_times(tracer.spans)):
            scenario, name, start, end, parent = span
            fh.write(f"{scenario},{name},{start!r},{end!r},{parent},{own!r}\n")
