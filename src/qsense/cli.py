"""Scenario-driven command line: parse a JSON config, dispatch, emit a report.

Exit codes:
  0  success;
  2  config or validation failure (`ConfigError`, or a `ValidationError`
     raised during computation): the message on stderr, no report;
  3  numerical failure (`NumericalError`): the error is serialised into the
     report;
  4  any other exception, i.e. an internal bug: the error is serialised into
     the report and the traceback goes to stderr.
"""

from __future__ import annotations

import argparse
import functools
import json
import sys
import time
import traceback
from dataclasses import dataclass
from importlib import resources

import jsonschema
import numpy as np

from . import __version__
from .core import (
    DensityMatrix,
    HermitianOperator,
    NumericalError,
    PAULI_X,
    PAULI_Y,
    PAULI_Z,
    POVM,
    TOLERANCES,
    ValidationError,
    WeightMatrix,
    projective_measurement,
)
from .bounds import (
    best_combination,
    classical_fim,
    qfim_pure,
    saturation_checks,
    scalar_bound,
    weak_qcrb,
)
from .holevo import holevo_bound
from .dqs import (
    ProbeSpec,
    build_probe,
    check_direction,
    gain,
    global_sensor_network,
    local_network_from_total,
    local_sensor_network,
    phase_generators,
    probe_to_json,
)
from .model import ParametricModel, unitary_family
from .bayes import asymptotic_check
from .estimation import saturation_report

REPORT_SCHEMA_ID = "qsense-report-v1"
BRACKET_RTOL = 1e-6  # relative slack of QCRB <= HB <= h(X0) in holevo scenarios

_PAULI = {"x": PAULI_X, "y": PAULI_Y, "z": PAULI_Z}

_NAMED_BASES = {
    "x_basis": [np.array([1, 1]) / np.sqrt(2), np.array([1, -1]) / np.sqrt(2)],
    "y_basis": [np.array([1, 1j]) / np.sqrt(2), np.array([1, -1j]) / np.sqrt(2)],
    "z_basis": [np.array([1, 0]), np.array([0, 1])],
}


class ConfigError(ValueError):
    """The scenario file is missing, malformed, or semantically invalid."""


@functools.cache
def _load_schema(name: str) -> dict:
    with resources.files("qsense").joinpath("schemas", name).open("r") as fh:
        return json.load(fh)


class _CachedValidator:
    """Stands in for a validator class in `jsonschema.validate(..., cls=...)`.

    The one validator built from the schema is reused for every instance.  The
    shipped schemas are checked against their meta-schema by the test suite, not here.
    """

    def __init__(self, schema: dict):
        self._validator = jsonschema.validators.validator_for(schema)(schema)

    def check_schema(self, schema: dict) -> None:
        """Not checked at run time."""

    def __call__(self, schema: dict):
        return self._validator


@functools.cache
def _validator(name: str) -> _CachedValidator:
    return _CachedValidator(_load_schema(name))


def _validate(instance, name: str) -> None:
    """Raise `best_match`'s `jsonschema.ValidationError` if ``instance`` breaks the schema."""
    # through jsonschema.validate, not iter_errors: the benchmark's tracer spans this call
    # until the spans move into the package (ROADMAP item 4)
    jsonschema.validate(instance, _load_schema(name), cls=_validator(name))


def _refuse_constant(name: str):
    raise ValueError(f"{name} is not a finite number")


@dataclass(frozen=True)
class ScenarioConfig:
    """Parsed and schema-validated scenario description."""

    data: dict

    @classmethod
    def from_file(cls, path: str) -> "ScenarioConfig":
        try:
            with open(path) as fh:
                raw = json.load(fh, parse_constant=_refuse_constant)
        except OSError as exc:
            raise ConfigError(f"cannot read config {path}: {exc}") from exc
        except ValueError as exc:  # a JSONDecodeError, or a NaN/Infinity literal
            raise ConfigError(f"config {path} is not valid JSON: {exc}") from exc
        try:
            _validate(raw, "scenario.schema.json")
        except jsonschema.ValidationError as exc:
            raise ConfigError(f"config failed schema validation: {exc.message}") from exc
        return cls(raw)


def _complex_vector(spec) -> np.ndarray:
    return np.array([complex(re, im) for re, im in spec])


def _complex_matrix(spec) -> np.ndarray:
    return np.array([[complex(re, im) for re, im in row] for row in spec])


def build_model(spec: dict) -> tuple[ParametricModel, np.ndarray]:
    if "initial_state" in spec and "initial_density" in spec:
        raise ConfigError("give either initial_state or initial_density, not both")
    if "initial_state" in spec:
        psi = _complex_vector(spec["initial_state"])
        norm = np.linalg.norm(psi)
        if norm == 0:
            raise ConfigError("initial state vector is zero")
        psi = psi / norm
        rho = DensityMatrix(np.outer(psi, psi.conj()))
    elif "initial_density" in spec:
        try:
            rho = DensityMatrix(_complex_matrix(spec["initial_density"]))
        except ValidationError as exc:
            raise ConfigError(f"initial density: {exc}") from exc
    else:
        raise ConfigError("model needs initial_state or initial_density")

    gens = []
    for g in spec["generators"]:
        if "pauli" in g:
            if rho.dim != 2:
                raise ConfigError("named Pauli generators require a qubit model")
            mat = _PAULI[g["pauli"]].entries * g.get("scale", 1.0)
        else:
            mat = _complex_matrix(g["matrix"])
        try:
            gens.append(HermitianOperator(mat))
        except ValidationError as exc:
            raise ConfigError(f"generator: {exc}") from exc
    theta = np.array(spec["theta"], dtype=float)
    if len(theta) != len(gens):
        raise ConfigError("theta length does not match the generator count")
    try:
        return unitary_family(rho, gens), theta
    except ValidationError as exc:
        raise ConfigError(str(exc)) from exc


def build_povm(spec: dict, dim: int) -> POVM:
    try:
        if "name" in spec:
            if dim != 2:
                raise ConfigError("named measurement bases require a qubit model")
            return projective_measurement(_NAMED_BASES[spec["name"]])
        elements = [HermitianOperator(_complex_matrix(e)) for e in spec["elements"]]
        povm = POVM(tuple(elements))
    except ValidationError as exc:
        raise ConfigError(f"povm: {exc}") from exc
    if povm.dim != dim:
        raise ConfigError(f"POVM dimension {povm.dim} does not match the model ({dim})")
    return povm


def build_weight(spec: dict, d: int) -> WeightMatrix:
    try:
        if spec.get("kind") == "identity":
            return WeightMatrix.identity(d)
        if "matrix" in spec:
            w = WeightMatrix(np.array(spec["matrix"], dtype=float))
        else:
            w = WeightMatrix.from_directions(
                [(pair["w"], np.array(pair["nu"], dtype=float)) for pair in spec["directions"]]
            )
    except ValidationError as exc:
        raise ConfigError(f"weight: {exc}") from exc
    if w.dim != d:
        raise ConfigError(f"weight dimension {w.dim} does not match the parameter count {d}")
    return w


def build_probe_spec(spec: dict) -> ProbeSpec:
    family = spec["family"]
    sensors = spec["sensors"]
    try:
        if family == "GENERALIZED_NOON":
            if "total_particles" not in spec:
                raise ConfigError("global-reference probes need total_particles")
            net = global_sensor_network(sensors, spec["total_particles"])
        elif "particles_per_sensor" in spec:
            net = local_sensor_network(sensors, spec["particles_per_sensor"])
        elif "total_particles" in spec:
            net = local_network_from_total(sensors, spec["total_particles"])
        else:
            raise ConfigError("probe needs particles_per_sensor or total_particles")
        signs = tuple(spec["signs"]) if "signs" in spec else None
        return ProbeSpec(family, net, signs)
    except ValidationError as exc:
        raise ConfigError(str(exc)) from exc


# ---------------------------------------------------------------------------
# Serialisation helpers


def _jsonable(value):
    if isinstance(value, (bool, np.bool_)):
        return bool(value)
    if isinstance(value, (int, np.integer)):
        return int(value)
    if isinstance(value, (float, np.floating)):
        v = float(value)
        if np.isfinite(v):
            return v
        return "inf" if v > 0 else ("-inf" if v < 0 else "nan")
    if isinstance(value, (complex, np.complexfloating)):
        return [_jsonable(value.real), _jsonable(value.imag)]
    if isinstance(value, np.ndarray):
        return [_jsonable(v) for v in value.tolist()]
    if isinstance(value, (list, tuple)):
        return [_jsonable(v) for v in value]
    if isinstance(value, dict):
        return {str(k): _jsonable(v) for k, v in value.items()}
    if value is None or isinstance(value, str):
        return value
    return repr(value)


# ---------------------------------------------------------------------------
# Scenario handlers


def _run_bounds(cfg: dict, strict: bool) -> tuple[dict, dict]:
    model, theta = build_model(cfg["model"])
    povm = build_povm(cfg["povm"], model.dim)
    m = cfg.get("m", 1)
    checks = saturation_checks(model, theta)
    result = checks.information
    fim = classical_fim(result, povm)
    results = {
        "fim": fim.matrix,
        "fim_excluded_probability": fim.excluded_probability,
        "qfim": result.qfim.matrix,
        "g_q": result.g_q,
        "r": result.r_measure,
    }
    if "weight" in cfg:
        w = build_weight(cfg["weight"], model.parameter_count)
        crb = scalar_bound(fim, w, m, strict=strict)
        qcrb = scalar_bound(result.qfim, w, m, strict=strict)
        results["crb"] = crb.value
        results["crb_inestimable"] = crb.inestimable
        results["qcrb"] = qcrb.value
        results["qcrb_inestimable"] = qcrb.inestimable
    if "nu" in cfg:
        weak = [weak_qcrb(np.array(nu, float), result.qfim, m) for nu in cfg["nu"]]
        results["weak_qcrb"] = [wb.value for wb in weak]
        results["qcrb_directions"] = [wb.exact for wb in weak]
    direction, value = best_combination(result.qfim)
    results["best_combination"] = {"direction": direction, "information": value}
    results["saturation"] = {
        "g_q_max": checks.g_q_max,
        "partial_commutator_max": checks.partial_commutator_max,
        "weak_commutativity_holds": checks.weak_commutativity_holds,
        "partial_commutativity_holds": checks.partial_commutativity_holds,
        "pure_condition_holds": checks.pure_condition_holds,
    }
    return results, {"fim_rank": fim.rank, "qfim_rank": result.qfim.rank}


def _run_holevo(cfg: dict, strict: bool) -> tuple[dict, dict]:
    model, theta = build_model(cfg["model"])
    w = build_weight(cfg["weight"], model.parameter_count)
    m = cfg.get("m", 1)
    solution = holevo_bound(model, theta, w)
    result = solution.information
    qcrb = scalar_bound(result.qfim, w, m, strict=strict)
    hb = solution.value / m
    h_x0 = solution.h_x0 / m
    if not qcrb.value * (1.0 - BRACKET_RTOL) <= hb <= h_x0 * (1.0 + BRACKET_RTOL):
        raise NumericalError(
            f"Holevo bound {hb} outside its bracket [QCRB {qcrb.value}, h(X0) {h_x0}]"
        )
    results = {
        "qcrb": qcrb.value,
        "hb": hb,
        "h_x0": h_x0,
        "ratio": hb / qcrb.value if qcrb.value > 0 else "inf",
        "r": result.r_measure,
        "v_opt": solution.v_opt,
    }
    diagnostics = {
        "iterations": solution.iterations,
        "duality_gap": solution.gap,
        "residuals": solution.residuals,
        "qcrb_inestimable": qcrb.inestimable,
    }
    return results, diagnostics


def _run_dqs(cfg: dict, strict: bool) -> tuple[dict, dict]:
    spec = build_probe_spec(cfg["dqs"])
    m = cfg.get("m", 1)
    probe = build_probe(spec)
    fisher = qfim_pure(probe, phase_generators(spec.network))
    results = {
        "family": spec.family,
        "sensors": spec.network.sensors,
        "total_particles": spec.network.total_particles,
        "qfim": fisher.matrix,
        "probe": probe_to_json(probe),
    }
    checks = []
    for nu in cfg.get("nu", []):
        nu_arr = np.array(nu, dtype=float)
        check = check_direction(spec, fisher, nu_arr, m)
        if check.inestimable and strict:
            raise NumericalError(f"direction {nu_arr.tolist()} is inestimable for this probe")
        checks.append((nu_arr, check))
    if spec.family == "GENERALIZED_NOON":
        check = check_direction(spec, fisher, None, m)
        results["trace_bound"] = check.qfim_value
        results["trace_bound_closed_form"] = check.closed_form
        results["trace_bound_deviation"] = check.relative_deviation
    if checks:  # an inestimable direction has no value, closed form or deviation (None)
        results["directions"] = [nu for nu, _ in checks]
        results["qcrb"] = [c.qfim_value for _, c in checks]
        results["closed_form"] = [c.closed_form for _, c in checks]
        results["deviations"] = [c.relative_deviation for _, c in checks]
        results["gains"] = [gain(nu) for nu, _ in checks]
        results["inestimable"] = [c.inestimable for _, c in checks]
    return results, {"qfim_rank": fisher.rank}


def _run_simulate(cfg: dict, seed: int, csv_path) -> tuple[dict, dict]:
    model, theta = build_model(cfg["model"])
    povm = build_povm(cfg["povm"], model.dim)
    report = saturation_report(
        model,
        povm,
        theta,
        m=cfg["m"],
        trials=cfg["trials"],
        seed=seed,
        box=cfg["domain"],
        resolution=cfg.get("grid_resolution", 2001),
        csv_path=csv_path,
    )
    with np.errstate(divide="ignore", invalid="ignore"):
        ratio = np.where(
            np.abs(report.crb_matrix) > 0,
            report.empirical_covariance / report.crb_matrix,
            np.nan,
        )
    results = {
        "empirical_covariance": report.empirical_covariance,
        "crb_matrix": report.crb_matrix,
        "qcrb_matrix": report.qcrb_matrix,
        "diagonal_ratio": np.diag(ratio),
        "z_scores": report.z_scores,
        "bias": report.bias,
        "pre_asymptotic": report.pre_asymptotic,
    }
    return results, {"trials": report.trials, "m": report.m, "seed": seed}


def _run_bayes(cfg: dict, seed: int, csv_path) -> tuple[dict, dict]:
    model, theta = build_model(cfg["model"])
    povm = build_povm(cfg["povm"], model.dim)
    m = cfg["m"]
    snapshot_every = cfg.get("snapshot_every", max(1, m // 10 if m else 1))

    fh = open(csv_path, "w", newline="") if csv_path is not None else None
    if fh is not None:
        fh.write("step,grid_index,weight\r\n")

    def on_step(step, post):  # one block per step, in csv.writer's default dialect
        weights = post.weights.ravel().tolist()
        fh.write("".join(f"{step},{i},{w!r}\r\n" for i, w in enumerate(weights)))

    try:
        report = asymptotic_check(
            model,
            povm,
            theta,
            m=m,
            seed=seed,
            box=cfg["domain"],
            resolution=cfg.get("grid_resolution"),
            on_step=on_step if fh is not None else None,
            snapshot_every=snapshot_every,
        )
    finally:
        if fh is not None:
            fh.close()
    results = {
        "bayes_covariance": report.covariance,
        "crb_matrix": report.crb_matrix,
        "diagonal_ratio": np.diag(report.ratio),
        "gaussian_residual": report.gaussian_residual,
        "posterior_mode": report.mode,
        "posterior_mean": report.mean,
        "pre_asymptotic": report.pre_asymptotic,
    }
    return results, {"m": m, "seed": seed, "snapshot_every": snapshot_every}


# ---------------------------------------------------------------------------
# Entry points


def run(
    config_path: str,
    out: str | None = None,
    seed: int | None = None,
    strict: bool = False,
    quiet: bool = False,
) -> int:
    """Execute one scenario file; returns the process exit code."""
    started = time.perf_counter()
    try:
        config = ScenarioConfig.from_file(config_path)
    except ConfigError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2

    cfg = config.data
    scenario = cfg["scenario"]
    report_path = out or cfg.get("output", {}).get("report")
    csv_path = cfg.get("output", {}).get("csv")
    effective_seed = seed if seed is not None else cfg.get("seed", 0)
    effective_strict = strict or cfg.get("strict", False)

    report = {
        "tool": {
            "name": "qsense",
            "version": __version__,
            "report_schema": REPORT_SCHEMA_ID,
            "tolerances": _jsonable(TOLERANCES),
        },
        "scenario": scenario,
        "inputs": cfg,
    }

    try:
        if scenario == "bounds":
            results, diagnostics = _run_bounds(cfg, effective_strict)
        elif scenario == "holevo":
            results, diagnostics = _run_holevo(cfg, effective_strict)
        elif scenario == "dqs":
            results, diagnostics = _run_dqs(cfg, effective_strict)
        elif scenario == "simulate":
            results, diagnostics = _run_simulate(cfg, effective_seed, csv_path)
        else:
            results, diagnostics = _run_bayes(cfg, effective_seed, csv_path)
    except (ConfigError, ValidationError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except Exception as exc:  # serialise; 3 for a numerical failure, 4 for a bug
        report["error"] = {"type": type(exc).__name__, "message": str(exc)}
        report["timing_seconds"] = time.perf_counter() - started
        _emit_report(report, report_path)
        if not isinstance(exc, NumericalError):
            traceback.print_exc(file=sys.stderr)
        print(f"error: {type(exc).__name__}: {exc}", file=sys.stderr)
        return 3 if isinstance(exc, NumericalError) else 4

    report["results"] = _jsonable(results)
    report["diagnostics"] = _jsonable(diagnostics)
    report["timing_seconds"] = time.perf_counter() - started
    _validate(report, "report.schema.json")
    _emit_report(report, report_path)
    if not quiet:
        print(f"{scenario}: ok ({report['timing_seconds']:.3f}s)", file=sys.stderr)
    return 0


def _emit_report(report: dict, path: str | None) -> None:
    text = json.dumps(report, indent=2)
    if path is None:
        print(text)
    else:
        with open(path, "w") as fh:
            fh.write(text + "\n")


def main(argv=None) -> None:
    parser = argparse.ArgumentParser(
        prog="qsense",
        description="Run a quantum-estimation scenario described by a JSON config.",
    )
    parser.add_argument("config", help="path to the scenario JSON file")
    parser.add_argument("--out", help="report path (overrides the config)")
    parser.add_argument("--seed", type=int, help="seed override for stochastic scenarios")
    parser.add_argument(
        "--strict", action="store_true", help="treat inestimable directions as errors"
    )
    parser.add_argument("--quiet", action="store_true", help="suppress progress messages")
    args = parser.parse_args(argv)
    sys.exit(
        run(
            args.config,
            out=args.out,
            seed=args.seed,
            strict=args.strict,
            quiet=args.quiet,
        )
    )


if __name__ == "__main__":
    main()
