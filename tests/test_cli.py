import dataclasses
import hashlib
import json
import pathlib
import subprocess
import sys
import warnings

import jsonschema
import numpy as np
import pytest

import qsense.cli as cli_module
from qsense.cli import ScenarioConfig, _load_schema, run

QUBIT_MODEL = {
    "kind": "unitary",
    "initial_state": [[0.7071067811865476, 0.0], [0.7071067811865476, 0.0]],
    "generators": [{"pauli": "z", "scale": 0.5}],
    "theta": [1.0],
}


def write_config(tmp_path, name, cfg):
    path = tmp_path / name
    path.write_text(json.dumps(cfg))
    return str(path)


def load_report(path):
    with open(path) as fh:
        return json.load(fh)


class TestValidation:
    def test_missing_required_field_exits_2_without_report(self, tmp_path):
        cfg = {"scenario": "dqs", "dqs": {"family": "MEPE"}}  # sensors missing
        path = write_config(tmp_path, "bad.json", cfg)
        report_path = tmp_path / "report.json"
        code = run(path, out=str(report_path), quiet=True)
        assert code == 2
        assert not report_path.exists()

    def test_unknown_key_rejected(self, tmp_path):
        cfg = {
            "scenario": "dqs",
            "dqs": {"family": "MEPE", "sensors": 2, "particles_per_sensor": 2},
            "mystery": 1,
        }
        code = run(write_config(tmp_path, "bad2.json", cfg), quiet=True)
        assert code == 2

    def test_unreadable_config(self, tmp_path):
        assert run(str(tmp_path / "missing.json"), quiet=True) == 2

    def test_invalid_json(self, tmp_path):
        path = tmp_path / "broken.json"
        path.write_text("{not json")
        assert run(str(path), quiet=True) == 2

    @pytest.mark.parametrize("dqs,code", [
        ({"family": "MSPS", "sensors": 1, "particles_per_sensor": 1029}, 0),
        ({"family": "MSPS", "sensors": 1, "particles_per_sensor": 1030}, 2),
        ({"family": "MSPS", "sensors": 1, "particles_per_sensor": 1031}, 2),
        ({"family": "MSPS", "sensors": 1, "particles_per_sensor": 1040}, 2),
        ({"family": "MSPS", "sensors": 1, "particles_per_sensor": 2046}, 2),
        ({"family": "MEPS", "sensors": 1, "total_particles": 3000}, 2),
    ], ids=["msps-1029", "msps-1030", "msps-1031", "msps-1040", "msps-2046", "meps-3000"])
    def test_amplitudes_beyond_the_float_range_exit_2(self, dqs, code, tmp_path, capsys):
        # under the support cap, but the largest binomial weight does not fit a float
        report_path = tmp_path / "report.json"
        cfg = {"scenario": "dqs", "dqs": dqs}
        assert run(write_config(tmp_path, "c.json", cfg), out=str(report_path), quiet=True) == code
        assert report_path.exists() == (code == 0)
        if code == 2:
            n = dqs.get("particles_per_sensor", dqs.get("total_particles"))
            assert f"of {n} particles" in capsys.readouterr().err

    def test_non_finite_dqs_direction_exits_2_before_any_arithmetic(self, tmp_path, capsys):
        path = tmp_path / "c.json"
        path.write_text(json.dumps({"scenario": "dqs", "dqs": self.MEPE,
                                    "nu": [["OVERFLOW", 0.5]]}).replace('"OVERFLOW"', "1e999"))
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            assert run(str(path), out=str(tmp_path / "report.json"), quiet=True) == 2
        assert [str(w.message) for w in caught] == []
        assert "direction vector must be finite and nonzero" in capsys.readouterr().err

    def test_oversized_probe_exits_2_without_report(self, tmp_path):
        cfg = {
            "scenario": "dqs",
            "dqs": {"family": "MSPS", "sensors": 8, "particles_per_sensor": 8},
            "nu": [[0.125] * 8],
        }
        report_path = tmp_path / "report.json"
        code = run(write_config(tmp_path, "big.json", cfg), out=str(report_path), quiet=True)
        assert code == 2
        assert not report_path.exists()


    def test_validation_error_during_computation_exits_2_without_report(self, tmp_path):
        # passes the schema; the Holevo dimension cap rejects it while computing
        n = 17
        diag = [[[float(i) if i == j else 0.0, 0.0] for j in range(n)] for i in range(n)]
        shift = [[[1.0 if abs(i - j) == 1 else 0.0, 0.0] for j in range(n)] for i in range(n)]
        cfg = {
            "scenario": "holevo",
            "model": {
                "kind": "unitary",
                "initial_state": [[1.0, 0.0]] * n,
                "generators": [{"matrix": diag}, {"matrix": shift}],
                "theta": [0.1, 0.2],
            },
            "weight": {"kind": "identity"},
        }
        report_path = tmp_path / "report.json"
        code = run(write_config(tmp_path, "big.json", cfg), out=str(report_path), quiet=True)
        assert code == 2
        assert not report_path.exists()

    MEPE = {"family": "MEPE", "sensors": 2, "particles_per_sensor": 1}

    @pytest.mark.parametrize("cfg", [
        {"scenario": "bounds", "model": QUBIT_MODEL, "povm": {"name": "x_basis"},
         "nu": [[1.0, 0.0]]},
        {"scenario": "bounds", "model": QUBIT_MODEL, "povm": {"name": "x_basis"},
         "m": 0, "nu": [[1.0]]},
        {"scenario": "dqs", "dqs": MEPE, "nu": [[0.5, 0.5, 0.5]]},
        {"scenario": "dqs", "dqs": MEPE, "nu": [[0.0, 0.0]]},
        {"scenario": "dqs", "dqs": MEPE, "m": 0, "nu": [[0.5, 0.5]]},
        {"scenario": "simulate", "model": QUBIT_MODEL, "povm": {"name": "x_basis"}, "m": 0,
         "trials": 100, "domain": [[0.2, 2.9]], "grid_resolution": 101},
    ], ids=["bounds-nu-length", "bounds-m0", "dqs-nu-length", "dqs-nu-zero", "dqs-m0",
            "simulate-m0"])
    def test_bad_direction_or_repetition_count_exits_2(self, cfg, tmp_path):
        report_path = tmp_path / "report.json"
        code = run(write_config(tmp_path, "bad.json", cfg), out=str(report_path), quiet=True)
        assert code == 2
        assert not report_path.exists()

    NAN, INF = float("nan"), float("inf")
    XY = {"kind": "unitary", "initial_state": [[1.0, 0.0], [0.0, 0.0]],
          "generators": [{"pauli": "x", "scale": 0.5}, {"pauli": "y", "scale": 0.5}],
          "theta": [0.0, 0.0]}
    MIXED = {key: value for key, value in QUBIT_MODEL.items() if key != "initial_state"}

    @pytest.mark.parametrize("cfg", [
        {"model": dict(QUBIT_MODEL, initial_state=[[NAN, 0.0], [0.7071067811865476, 0.0]])},
        {"model": MIXED | {"initial_density": [[[0.5, 0.0], [NAN, 0.0]],
                                                [[NAN, 0.0], [0.5, 0.0]]]}},
        {"model": dict(QUBIT_MODEL, generators=[{"matrix": [[[0.5, 0.0], [0.0, 0.0]],
                                                             [[0.0, 0.0], [NAN, 0.0]]]}])},
        {"model": dict(QUBIT_MODEL, theta=[INF])},
        {"model": dict(QUBIT_MODEL, theta=[1.0]), "nu": [[NAN]]},
        {"scenario": "holevo", "model": XY, "weight": {"matrix": [[1.0, NAN], [NAN, 1.0]]}},
        {"scenario": "simulate", "m": 50, "trials": 100, "domain": [[NAN, 2.9]]},
        # 1e999 is valid JSON and parses to inf: the core checks catch it
        {"model": dict(QUBIT_MODEL, generators=[{"matrix": [[["OVERFLOW", 0.0], [0.0, 0.0]],
                                                             [[0.0, 0.0], [0.0, 0.0]]]}])},
        {"model": dict(QUBIT_MODEL, theta=["OVERFLOW"])},
        {"scenario": "holevo", "model": XY,
         "weight": {"matrix": [[1.0, "OVERFLOW"], ["OVERFLOW", 1.0]]}},
        {"scenario": "simulate", "m": 50, "trials": 100, "domain": [[0.2, "OVERFLOW"]]},
        {"model": dict(QUBIT_MODEL, theta=[1.0]), "nu": [["OVERFLOW"]]},
    ], ids=["nan-initial-state", "nan-initial-density", "nan-generator", "infinite-theta",
            "nan-direction", "nan-weight", "nan-domain", "overflow-generator",
            "overflow-theta", "overflow-weight", "overflow-domain", "overflow-direction"])
    def test_non_finite_input_exits_2(self, cfg, tmp_path):
        cfg = {"scenario": "bounds", "model": QUBIT_MODEL, "povm": {"name": "x_basis"}} | cfg
        path = tmp_path / "nan.json"
        path.write_text(json.dumps(cfg).replace('"OVERFLOW"', "1e999"))
        report_path = tmp_path / "report.json"
        assert run(str(path), out=str(report_path), quiet=True) == 2
        assert not report_path.exists()

    def test_internal_error_exits_4_with_report_and_traceback(self, tmp_path, monkeypatch,
                                                              capsys):
        def broken(cfg, strict):
            raise KeyError("lost")

        monkeypatch.setattr(cli_module, "_run_bounds", broken)
        cfg = {
            "scenario": "bounds",
            "model": QUBIT_MODEL,
            "povm": {"name": "x_basis"},
            "output": {"report": str(tmp_path / "bug.json")},
        }
        assert run(write_config(tmp_path, "bug.json", cfg), quiet=True) == 4
        report = load_report(tmp_path / "bug.json")
        assert report["error"]["type"] == "KeyError"
        jsonschema.validate(report, _load_schema("report.schema.json"))
        assert "Traceback" in capsys.readouterr().err


class TestDqsScenario:
    def test_all_to_nothing_probe_reports_expected_bound(self, tmp_path):
        cfg = {
            "scenario": "dqs",
            "dqs": {"family": "MEPE", "sensors": 2, "particles_per_sensor": 2},
            "nu": [[0.5, 0.5]],
            "m": 1,
            "output": {"report": str(tmp_path / "report.json")},
        }
        code = run(write_config(tmp_path, "mepe.json", cfg), quiet=True)
        assert code == 0
        report = load_report(tmp_path / "report.json")
        assert abs(report["results"]["qcrb"][0] - 0.0625) < 1e-12
        assert abs(report["results"]["closed_form"][0] - 0.0625) < 1e-12
        assert report["results"]["gains"][0] == 2.0
        assert "2,0,2,0" in report["results"]["probe"]

    def test_strict_mode_turns_inestimable_into_failure(self, tmp_path):
        cfg = {
            "scenario": "dqs",
            "dqs": {"family": "MEPE", "sensors": 2, "particles_per_sensor": 2},
            "nu": [[1.0, 0.0]],
            "output": {"report": str(tmp_path / "r.json")},
        }
        path = write_config(tmp_path, "mepe2.json", cfg)
        assert run(path, quiet=True) == 0
        report = load_report(tmp_path / "r.json")
        assert report["results"]["inestimable"] == [True]
        assert run(path, strict=True, quiet=True) == 3
        report = load_report(tmp_path / "r.json")
        assert report["error"]["type"] == "NumericalError"

    def test_one_probe_serves_every_direction(self, tmp_path, monkeypatch):
        import qsense.dqs as dqs

        built = []
        original = dqs.build_probe

        def counting_build(spec):
            built.append(spec)
            return original(spec)

        monkeypatch.setattr(dqs, "build_probe", counting_build)
        monkeypatch.setattr(cli_module, "build_probe", counting_build)
        nus = [[1 / 3] * 3, [1.0, 0.0, 0.0], [-1 / 3] * 3]
        cfg = {
            "scenario": "dqs",
            "dqs": {"family": "MEPE", "sensors": 3, "particles_per_sensor": 2},
            "nu": nus,
            "m": 2,
            "output": {"report": str(tmp_path / "r.json")},
        }
        assert run(write_config(tmp_path, "mepe.json", cfg), quiet=True) == 0
        assert len(built) == 1
        results = load_report(tmp_path / "r.json")["results"]
        assert results["inestimable"] == [False, True, False]
        for nu, qcrb in zip(nus, results["qcrb"]):
            assert qcrb == dqs.verify_probe(built[0], np.array(nu), 2).qfim_value

    def test_global_reference_scenario(self, tmp_path):
        cfg = {
            "scenario": "dqs",
            "dqs": {"family": "GENERALIZED_NOON", "sensors": 3, "total_particles": 3},
            "output": {"report": str(tmp_path / "g.json")},
        }
        assert run(write_config(tmp_path, "g.json", cfg), quiet=True) == 0
        report = load_report(tmp_path / "g.json")
        assert report["results"]["trace_bound_deviation"] < 1e-9


class TestBoundsAndHolevoScenarios:
    def test_bounds_scenario_reports_information(self, tmp_path):
        cfg = {
            "scenario": "bounds",
            "model": QUBIT_MODEL,
            "povm": {"name": "x_basis"},
            "weight": {"kind": "identity"},
            "output": {"report": str(tmp_path / "b.json")},
        }
        assert run(write_config(tmp_path, "b.json", cfg), quiet=True) == 0
        report = load_report(tmp_path / "b.json")
        assert abs(report["results"]["fim"][0][0] - 1.0) < 1e-9
        assert abs(report["results"]["qfim"][0][0] - 1.0) < 1e-9
        assert report["results"]["r"] == 0.0
        assert report["results"]["saturation"]["weak_commutativity_holds"] is True

    def test_holevo_scenario(self, tmp_path):
        cfg = {
            "scenario": "holevo",
            "model": {
                "kind": "unitary",
                "initial_state": [[1.0, 0.0], [0.0, 0.0]],
                "generators": [
                    {"pauli": "x", "scale": 0.5},
                    {"pauli": "y", "scale": 0.5},
                ],
                "theta": [0.0, 0.0],
            },
            "weight": {"kind": "identity"},
            "output": {"report": str(tmp_path / "h.json")},
        }
        assert run(write_config(tmp_path, "h.json", cfg), quiet=True) == 0
        report = load_report(tmp_path / "h.json")
        assert abs(report["results"]["qcrb"] - 2.0) < 1e-9
        assert abs(report["results"]["hb"] - 4.0) < 1e-4
        assert abs(report["results"]["h_x0"] - 4.0) < 1e-9
        assert abs(report["results"]["r"] - 1.0) < 1e-8

    def test_hb_outside_bracket_exits_3(self, tmp_path, monkeypatch):
        solve = cli_module.holevo_bound

        def above_bracket(*args, **kwargs):
            solution = solve(*args, **kwargs)
            return dataclasses.replace(solution, value=solution.h_x0 * (1 + 1e-5))

        monkeypatch.setattr(cli_module, "holevo_bound", above_bracket)
        cfg = {
            "scenario": "holevo",
            "model": {
                "kind": "unitary",
                "initial_state": [[1.0, 0.0], [0.0, 0.0]],
                "generators": [
                    {"pauli": "x", "scale": 0.5},
                    {"pauli": "y", "scale": 0.5},
                ],
                "theta": [0.0, 0.0],
            },
            "weight": {"kind": "identity"},
            "output": {"report": str(tmp_path / "h.json")},
        }
        assert run(write_config(tmp_path, "h.json", cfg), quiet=True) == 3
        report = load_report(tmp_path / "h.json")
        assert report["error"]["type"] == "NumericalError"
        assert "bracket" in report["error"]["message"]
        jsonschema.validate(report, _load_schema("report.schema.json"))

    def test_numerical_failure_exits_3_with_error_payload(self, tmp_path):
        cfg = {
            "scenario": "holevo",
            "model": {
                "kind": "unitary",
                "initial_state": [[1.0, 0.0], [0.0, 0.0]],
                "generators": [
                    {"pauli": "z", "scale": 0.5},
                    {"pauli": "z", "scale": 1.0},
                ],
                "theta": [0.0, 0.0],
            },
            "weight": {"kind": "identity"},
            "output": {"report": str(tmp_path / "fail.json")},
        }
        assert run(write_config(tmp_path, "f.json", cfg), quiet=True) == 3
        report = load_report(tmp_path / "fail.json")
        assert "error" in report and "message" in report["error"]
        jsonschema.validate(report, _load_schema("report.schema.json"))


def count_calls(monkeypatch, module, name):
    """Wrap ``module.name`` in every qsense module binding it; return the call list."""
    calls = []
    original = getattr(module, name)

    def counting(*args, **kwargs):
        calls.append(name)
        return original(*args, **kwargs)

    for mod in list(sys.modules.values()):
        if mod is not None and mod.__name__.startswith("qsense") \
                and getattr(mod, name, None) is original:
            monkeypatch.setattr(mod, name, counting)
    return calls


class TestOneEvaluationPerPoint:
    XY_MODEL = {
        "kind": "unitary",
        "initial_state": [[0.8, 0.0], [0.6, 0.0]],
        "generators": [{"pauli": "x", "scale": 0.5}, {"pauli": "y", "scale": 0.5}],
        "theta": [0.3, -0.2],
    }

    def test_holevo_scenario_evaluates_state_derivatives_and_qfim_once(
        self, tmp_path, monkeypatch
    ):
        import qsense.bounds as bounds
        import qsense.model as model

        states = count_calls(monkeypatch, model, "_density_block")
        derivatives = count_calls(monkeypatch, model, "_unitary_pieces")
        qfims = count_calls(monkeypatch, bounds, "qfim")
        cfg = {"scenario": "holevo", "model": self.XY_MODEL, "weight": {"kind": "identity"},
               "output": {"report": str(tmp_path / "h.json")}}
        assert run(write_config(tmp_path, "h.json", cfg), quiet=True) == 0
        assert (len(states), len(derivatives), len(qfims)) == (1, 1, 1)

    def bounds_config(self, tmp_path):
        return {"scenario": "bounds", "model": self.XY_MODEL, "povm": {"name": "x_basis"},
                "weight": {"kind": "identity"}, "nu": [[1.0, 0.0]],
                "output": {"report": str(tmp_path / "b.json")}}

    def test_bounds_scenario_computes_one_qfim(self, tmp_path, monkeypatch):
        import qsense.bounds as bounds

        qfims = count_calls(monkeypatch, bounds, "qfim")
        assert run(write_config(tmp_path, "b.json", self.bounds_config(tmp_path)), quiet=True) == 0
        assert len(qfims) == 1

    def test_bounds_scenario_evaluates_state_and_derivatives_once(self, tmp_path, monkeypatch):
        import qsense.model as model

        states = count_calls(monkeypatch, model, "_density_block")
        derivatives = count_calls(monkeypatch, model, "_unitary_pieces")
        assert run(write_config(tmp_path, "b.json", self.bounds_config(tmp_path)), quiet=True) == 0
        assert (len(states), len(derivatives)) == (1, 1)

    @pytest.mark.parametrize("scenario", ["holevo", "bounds"])
    def test_state_of_the_point_is_diagonalised_once(self, scenario, tmp_path, monkeypatch):
        import qsense.model as model

        states = []
        density_block = model._density_block

        def recording(*args):
            states.append(density_block(*args))
            return states[-1]

        monkeypatch.setattr(model, "_density_block", recording)
        inputs = []
        for name in ("eigh", "eigvalsh"):
            def counting(arr, *args, _original=getattr(np.linalg, name), **kwargs):
                inputs.append(np.array(arr, copy=True))
                return _original(arr, *args, **kwargs)

            monkeypatch.setattr(np.linalg, name, counting)
        if scenario == "holevo":
            cfg = {"scenario": "holevo", "model": self.XY_MODEL, "weight": {"kind": "identity"},
                   "output": {"report": str(tmp_path / "h.json")}}
        else:
            cfg = self.bounds_config(tmp_path)
        assert run(write_config(tmp_path, "c.json", cfg), quiet=True) == 0
        (rho,) = states[0]
        assert sum(a.shape == rho.shape and np.array_equal(a, rho) for a in inputs) == 1

    @pytest.mark.parametrize("scenario", ["simulate", "bayes"])
    def test_state_at_theta_true_is_evaluated_once(self, scenario, tmp_path, monkeypatch):
        import qsense.model as model

        theta = np.array(QUBIT_MODEL["theta"])
        points = []
        density_block = model._density_block

        def recording(strategy_model, nodes):
            points.extend(node for node in nodes if np.array_equal(node, theta))
            return density_block(strategy_model, nodes)

        monkeypatch.setattr(model, "_density_block", recording)
        cfg = {"scenario": scenario, "model": QUBIT_MODEL, "povm": {"name": "x_basis"},
               "m": 50, "domain": [[0.2, 2.9]], "grid_resolution": 31,
               "output": {"report": str(tmp_path / "r.json")}}
        if scenario == "simulate":
            cfg["trials"] = 100
        assert run(write_config(tmp_path, "c.json", cfg), quiet=True) == 0
        assert len(points) == 1


class TestCachedValidators:
    MEPE = {"family": "MEPE", "sensors": 2, "particles_per_sensor": 1}

    def dqs_config(self, tmp_path):
        return {"scenario": "dqs", "dqs": self.MEPE, "nu": [[0.5, 0.5]],
                "output": {"report": str(tmp_path / "r.json")}}

    @pytest.mark.parametrize("name", ["scenario.schema.json", "report.schema.json"])
    def test_shipped_schema_is_valid_against_its_meta_schema(self, name):
        schema = _load_schema(name)
        jsonschema.validators.validator_for(schema).check_schema(schema)

    def test_no_schema_is_checked_at_run_time(self, tmp_path, monkeypatch):
        checked = []
        validator_cls = jsonschema.Draft202012Validator
        original = validator_cls.check_schema.__func__

        def counting(cls, schema, *args, **kwargs):
            checked.append(schema["$id"])
            return original(cls, schema, *args, **kwargs)

        monkeypatch.setattr(validator_cls, "check_schema", classmethod(counting))
        cli_module._validator.cache_clear()
        path = write_config(tmp_path, "c.json", self.dqs_config(tmp_path))
        for _ in range(4):
            assert run(path, quiet=True) == 0
        assert checked == []

    @pytest.mark.parametrize("cfg", [
        {"scenario": "dqs", "dqs": MEPE, "m": "two"},
        {"scenario": "simulate", "model": QUBIT_MODEL, "povm": {"name": "x_basis"}, "m": 10},
        {"scenario": "sweep"},
        {"scenario": "dqs", "dqs": MEPE, "m": -1},
        {"scenario": "dqs", "dqs": MEPE, "mystery": 1},
        {"scenario": "dqs", "dqs": MEPE, "output": {"report": "r.json", "log": "l.txt"}},
        {"scenario": "bounds", "model": QUBIT_MODEL, "povm": {"name": "w_basis"}},
        {"scenario": "bounds", "model": dict(QUBIT_MODEL, theta=[]), "povm": {"name": "x_basis"}},
    ], ids=["wrong-type", "missing-required", "enum", "minimum", "extra-property",
            "nested-extra-property", "one-of", "min-items"])
    def test_config_error_is_the_stock_best_match(self, cfg, tmp_path):
        with pytest.raises(jsonschema.ValidationError) as stock:
            jsonschema.validate(cfg, _load_schema("scenario.schema.json"))
        with pytest.raises(cli_module.ConfigError) as ours:
            ScenarioConfig.from_file(write_config(tmp_path, "bad.json", cfg))
        assert str(ours.value) == f"config failed schema validation: {stock.value.message}"

    def test_report_breaking_the_schema_raises(self, tmp_path, monkeypatch):
        monkeypatch.setattr(cli_module, "REPORT_SCHEMA_ID", "qsense-report-v0")
        with pytest.raises(jsonschema.ValidationError, match="qsense-report-v1"):
            run(write_config(tmp_path, "c.json", self.dqs_config(tmp_path)), quiet=True)

    def test_cached_schemas_are_not_mutated(self, tmp_path):
        names = ("scenario.schema.json", "report.schema.json")
        before = [json.dumps(_load_schema(name), sort_keys=True) for name in names]
        assert run(write_config(tmp_path, "c.json", self.dqs_config(tmp_path)), quiet=True) == 0
        assert run(write_config(tmp_path, "bad.json", {"scenario": "sweep"}), quiet=True) == 2
        assert [json.dumps(_load_schema(name), sort_keys=True) for name in names] == before


class TestDeterminismAndSchema:
    def simulate_config(self, tmp_path, tag):
        return {
            "scenario": "simulate",
            "model": QUBIT_MODEL,
            "povm": {"name": "x_basis"},
            "m": 300,
            "trials": 100,
            "seed": 7,
            "domain": [[0.2, 2.9]],
            "grid_resolution": 301,
            "output": {
                "report": str(tmp_path / f"sim_{tag}.json"),
                "csv": str(tmp_path / f"sim_{tag}.csv"),
            },
        }

    def test_simulate_csv_byte_identical(self, tmp_path):
        first = write_config(tmp_path, "s1.json", self.simulate_config(tmp_path, "a"))
        second = write_config(tmp_path, "s2.json", self.simulate_config(tmp_path, "b"))
        assert run(first, seed=7, quiet=True) == 0
        assert run(second, seed=7, quiet=True) == 0
        a = (tmp_path / "sim_a.csv").read_bytes()
        b = (tmp_path / "sim_b.csv").read_bytes()
        assert a == b

    def test_bayes_csv_byte_identical(self, tmp_path):
        def cfg(tag):
            return {
                "scenario": "bayes",
                "model": QUBIT_MODEL,
                "povm": {"name": "x_basis"},
                "m": 60,
                "seed": 5,
                "domain": [[0.2, 2.9]],
                "grid_resolution": 201,
                "snapshot_every": 20,
                "output": {
                    "report": str(tmp_path / f"bayes_{tag}.json"),
                    "csv": str(tmp_path / f"bayes_{tag}.csv"),
                },
            }

        assert run(write_config(tmp_path, "b1.json", cfg("a")), quiet=True) == 0
        assert run(write_config(tmp_path, "b2.json", cfg("b")), quiet=True) == 0
        a = (tmp_path / "bayes_a.csv").read_bytes()
        b = (tmp_path / "bayes_b.csv").read_bytes()
        assert a == b
        header = a.decode().splitlines()[0]
        assert header == "step,grid_index,weight"

    def test_csv_bytes_pinned(self, tmp_path, monkeypatch):
        # sha256 of the CSVs written before the trial loop estimated each distinct tally
        # once; a change that moves a byte of a fixed-seed CSV must update these on purpose
        demo = pathlib.Path(__file__).resolve().parents[1] / "demos/configs/qubit_simulate.json"
        bayes = {
            "scenario": "bayes", "model": QUBIT_MODEL, "povm": {"name": "x_basis"}, "m": 60,
            "seed": 5, "domain": [[0.2, 2.9]], "grid_resolution": 101, "snapshot_every": 20,
            "output": {"report": "bayes_report.json", "csv": "bayes_posterior.csv"},
        }
        monkeypatch.chdir(tmp_path)  # the demo config names relative output paths
        assert run(str(demo), seed=16, quiet=True) == 0
        assert run(write_config(tmp_path, "bayes.json", bayes), quiet=True) == 0
        digests = [hashlib.sha256((tmp_path / name).read_bytes()).hexdigest()
                   for name in ("simulate_trials.csv", "bayes_posterior.csv")]
        assert digests == [
            "896b23ac2f506ef14fbfcb63f3ed51bdd29d7c808d15d29e53b3ebe66cba5468",
            "562db2acfec17a964ff16b77bf5a76149f99dd947218344942fad8da7e09caa7",
        ]

    def test_dqs_results_bytes_pinned(self, tmp_path):
        # sha256 of json.dumps(report["results"]) recorded with the per-amplitude dict
        # builders; the array builders must reproduce every probe amplitude and QFIM bit
        third = [1 / 3, -1 / 3, 1 / 3]
        cases = [
            ({"family": "MSPS", "sensors": 4, "particles_per_sensor": 4}, [[0.25] * 4],
             "b4f166fedeeabef88448f9dcdb615dc8ef5d8c8c78c17c09592d1de20d7285c9"),
            ({"family": "MSPE", "sensors": 4, "particles_per_sensor": 4}, [[0.25] * 4],
             "94bfe643ac1a1ef8be2eb11078518f336b22af063f3fad5a6430eb629be4ceae"),
            ({"family": "MEPS", "sensors": 3, "particles_per_sensor": 2}, [[1 / 3] * 3],
             "e766205e82f468d8b6c5b86531f4665f6a305fe28fbfa16d6452b386ee9e9ca5"),
            ({"family": "MEPE", "sensors": 3, "particles_per_sensor": 2, "signs": [1, -1, 1]},
             [third, [1 / 3] * 3],
             "37a2d96426bf397d17f3596017cbfc24be041c01b322ef2e24a12f560988bd2a"),
            ({"family": "GENERALIZED_NOON", "sensors": 3, "total_particles": 6}, None,
             "ec16080b4c74a61a71633168fa1872654547be89a655162188ce42454d105684"),
        ]
        for dqs, nu, digest in cases:
            cfg = {"scenario": "dqs", "dqs": dqs, "m": 3} | ({"nu": nu} if nu else {})
            report_path = tmp_path / "report.json"
            assert run(write_config(tmp_path, "c.json", cfg), out=str(report_path), quiet=True) == 0
            results = json.dumps(load_report(report_path)["results"])
            assert hashlib.sha256(results.encode()).hexdigest() == digest, dqs["family"]

    def test_report_validates_and_echoes_inputs(self, tmp_path):
        cfg = {
            "scenario": "dqs",
            "dqs": {"family": "MSPE", "sensors": 2, "particles_per_sensor": 1},
            "nu": [[0.5, 0.5]],
            "output": {"report": str(tmp_path / "echo.json")},
        }
        path = write_config(tmp_path, "echo_cfg.json", cfg)
        assert run(path, quiet=True) == 0
        report = load_report(tmp_path / "echo.json")
        jsonschema.validate(report, _load_schema("report.schema.json"))
        assert report["inputs"] == cfg
        assert report["tool"]["name"] == "qsense"
        assert "tolerances" in report["tool"]
        assert report["timing_seconds"] >= 0.0

    def test_scenario_config_type_roundtrip(self, tmp_path):
        cfg = {
            "scenario": "dqs",
            "dqs": {"family": "MEPE", "sensors": 2, "particles_per_sensor": 1},
        }
        parsed = ScenarioConfig.from_file(write_config(tmp_path, "c.json", cfg))
        assert parsed.data == cfg


class TestCommandLine:
    def test_module_entry_point(self, tmp_path):
        cfg = {
            "scenario": "dqs",
            "dqs": {"family": "MEPE", "sensors": 2, "particles_per_sensor": 2},
            "nu": [[0.5, 0.5]],
            "output": {"report": str(tmp_path / "cli.json")},
        }
        path = write_config(tmp_path, "cli.json.cfg", cfg)
        proc = subprocess.run(
            [sys.executable, "-m", "qsense.cli", path, "--quiet"],
            capture_output=True,
            text=True,
        )
        assert proc.returncode == 0
        report = load_report(tmp_path / "cli.json")
        assert abs(report["results"]["qcrb"][0] - 0.0625) < 1e-12

    def test_report_to_stdout_when_no_path(self, tmp_path):
        cfg = {
            "scenario": "dqs",
            "dqs": {"family": "MEPE", "sensors": 2, "particles_per_sensor": 1},
        }
        path = write_config(tmp_path, "stdout.json", cfg)
        proc = subprocess.run(
            [sys.executable, "-m", "qsense.cli", path, "--quiet"],
            capture_output=True,
            text=True,
        )
        assert proc.returncode == 0
        report = json.loads(proc.stdout)
        assert report["scenario"] == "dqs"

    def test_import_loads_no_scipy(self):
        proc = subprocess.run(
            [sys.executable, "-c",
             "import sys, qsense.cli; "
             "print(sorted(m for m in sys.modules if m.split('.')[0] == 'scipy'))"],
            capture_output=True,
            text=True,
        )
        assert proc.returncode == 0, proc.stderr
        assert proc.stdout.strip() == "[]"
