"""Oracle checks: every scenario result is judged against an independent value.

A scenario fails on a non-zero exit code, a report that fails the packaged
report schema, or a result outside its oracle's tolerance:

  simulate  the classical CRB matches the generator's own finite-difference
            FIM, the empirical variance over the CRB lies in a 6-sigma band
            for the trial count, and the CSV has one row per trial.
  bayes     the CSV has one row per grid node and snapshot; the final
            snapshot reproduces the reported posterior mean and covariance;
            posterior spread over the CRB and the mean's offset in CRB units
            lie in fixed statistical bands.
  holevo    QCRB <= HB <= h(X0) <= (1 + R) QCRB with QCRB, h(X0) and R from
            the generator's own SLDs, and HB = h(X0) on qubits.
  bounds    FIM and QFIM match the generator's, QFIM - FIM is PSD,
            R lies in [0, 1] and CRB >= QCRB where the FIM is invertible.
  dqs       the closed forms (including the generalized-NOON trace bound of
            Humphreys et al.) are recomputed here; deviations are <= 1e-9.

The anchor scenario of each workload is also compared with the values that
reference.json recorded at the seed commit.
"""

from __future__ import annotations

import json
import math
import os

import numpy as np

MATRIX_RTOL = 1e-6      # program vs generator finite-difference matrices
BOUND_RTOL = 1e-6       # Holevo sandwich; the solver's gap target is 1e-7
CLOSED_FORM_TOL = 1e-9  # closed-form distributed-sensing limits
REFERENCE_RTOL = 1e-6   # anchor results vs values recorded at the seed commit
VARIANCE_SIGMAS = 6.0   # Monte-Carlo band width, in standard errors
VARIANCE_SLACK = 0.05   # finite-m and grid bias allowed on top of the band
SPREAD_BAND = (0.5, 2.0)  # Bayes posterior spread / CRB
OFFSET_SIGMAS = 6.0     # |posterior mean - theta| in CRB standard deviations

REFERENCE_KEYS = {
    "simulate": ("empirical_covariance", "crb_matrix", "qcrb_matrix"),
    "bayes": ("bayes_covariance", "posterior_mean", "posterior_mode", "crb_matrix"),
    "holevo": ("qcrb", "hb", "r"),
    "dqs": ("qfim", "qcrb", "closed_form", "trace_bound"),
    "bounds": ("fim", "qfim", "g_q", "r", "crb", "qcrb"),
}


def _close(got, want, rtol) -> bool:
    got, want = np.asarray(got, float), np.asarray(want, float)
    if got.shape != want.shape:
        return False
    scale = max(float(np.abs(want).max()), 1e-300)
    return bool(np.all(np.abs(got - want) <= rtol * scale))


def _csv_lines(path) -> list[str]:
    with open(path) as fh:
        return fh.read().splitlines()


def _check_simulate(res, exp) -> list[str]:
    out = []
    crb = np.asarray(exp["crb"])
    if not _close(res["crb_matrix"], crb, MATRIX_RTOL):
        out.append(f"CRB {res['crb_matrix']} != independent {crb.tolist()}")
    band = VARIANCE_SIGMAS * math.sqrt(2.0 / exp["trials"]) + VARIANCE_SLACK
    ratio = np.diag(np.asarray(res["empirical_covariance"])) / np.diag(crb)
    if np.any(np.abs(ratio - 1.0) > band):
        out.append(f"empirical variance / CRB = {ratio.tolist()} outside 1 +- {band:.3f}")
    rows = len(_csv_lines(exp["csv"]))
    if rows != exp["csv_rows"]:
        out.append(f"CSV has {rows} rows, expected {exp['csv_rows']}")
    return out


def _check_bayes(res, exp) -> list[str]:
    out = []
    crb = np.asarray(exp["crb"])
    theta = np.asarray(exp["theta"])
    if not _close(res["crb_matrix"], crb, MATRIX_RTOL):
        out.append(f"CRB {res['crb_matrix']} != independent {crb.tolist()}")
    lines = _csv_lines(exp["csv"])
    if len(lines) != exp["csv_rows"]:
        return out + [f"CSV has {len(lines)} rows, expected {exp['csv_rows']}"]
    axes = [np.linspace(lo, hi, exp["resolution"]) for lo, hi in exp["box"]]
    nodes = np.stack([g.ravel() for g in np.meshgrid(*axes, indexing="ij")], axis=1)
    last = [row.split(",") for row in lines[-len(nodes):]]
    if any(int(step) != exp["final_step"] for step, _, _ in last):
        return out + ["last CSV snapshot is not the final step"]
    w = np.array([float(x) for _, _, x in last])
    if abs(w.sum() - 1.0) > 1e-9:
        out.append(f"final snapshot mass {w.sum()}")
    mean = w @ nodes
    diff = nodes - mean
    spread = (diff * w[:, None]).T @ diff
    about_truth = spread + np.outer(mean - theta, mean - theta)
    if not _close(res["posterior_mean"], mean, 1e-9):
        out.append("reported posterior mean differs from the CSV snapshot")
    if not _close(res["bayes_covariance"], about_truth, MATRIX_RTOL):
        out.append("reported posterior covariance differs from the CSV snapshot")
    ratio = np.diag(spread) / np.diag(crb)
    if np.any(ratio < SPREAD_BAND[0]) or np.any(ratio > SPREAD_BAND[1]):
        out.append(f"posterior spread / CRB = {ratio.tolist()} outside {SPREAD_BAND}")
    offset = np.abs(mean - theta) / np.sqrt(np.diag(crb))
    if np.any(offset > OFFSET_SIGMAS):
        out.append(f"posterior mean is {offset.tolist()} CRB sigmas from theta")
    return out


def _check_holevo(res, exp) -> list[str]:
    out = []
    qcrb, h0, r = exp["qcrb"], exp["h0"], exp["r"]
    hb = res["hb"]
    if abs(res["qcrb"] - qcrb) > MATRIX_RTOL * qcrb:
        out.append(f"QCRB {res['qcrb']} != independent {qcrb}")
    if abs(res["r"] - r) > MATRIX_RTOL:
        out.append(f"R {res['r']} != independent {r}")
    if not qcrb * (1 - BOUND_RTOL) <= hb <= h0 * (1 + BOUND_RTOL):
        out.append(f"HB {hb} outside [QCRB {qcrb}, h(X0) {h0}]")
    if h0 > (1 + r) * qcrb * (1 + 1e-9):
        out.append(f"h(X0) {h0} above (1 + R) QCRB {(1 + r) * qcrb}")
    if exp["qubit"] and abs(hb - h0) > BOUND_RTOL * h0:
        out.append(f"qubit HB {hb} != h(X0) {h0}")
    return out


def _check_bounds(res, exp) -> list[str]:
    out = []
    fim, qfim = np.asarray(res["fim"]), np.asarray(res["qfim"])
    if not _close(fim, exp["fim"], MATRIX_RTOL):
        out.append(f"FIM {fim.tolist()} != independent {exp['fim']}")
    if not _close(qfim, exp["qfim"], MATRIX_RTOL):
        out.append(f"QFIM {qfim.tolist()} != independent {exp['qfim']}")
    gap = np.linalg.eigvalsh(qfim - fim).min()
    if gap < -1e-9 * max(1.0, float(np.abs(qfim).max())):
        out.append(f"QFIM - FIM has eigenvalue {gap}")
    if not 0.0 <= res["r"] <= 1.0:
        out.append(f"R = {res['r']} outside [0, 1]")
    crb, qcrb = res.get("crb"), res.get("qcrb")
    # with a singular FIM the CRB is taken on its support and flagged inestimable
    if "crb" in res and not res["crb_inestimable"] and crb < qcrb * (1 - 1e-9):
        out.append(f"CRB {crb} below QCRB {qcrb}")
    return out


def _check_dqs(res, exp) -> list[str]:
    out = []
    if exp["family"] == "GENERALIZED_NOON":
        want = exp["trace_bound"]
        if abs(res["trace_bound"] - want) > CLOSED_FORM_TOL * want:
            out.append(f"trace bound {res['trace_bound']} != closed form {want}")
        if res["trace_bound_deviation"] > CLOSED_FORM_TOL:
            out.append(f"trace bound deviation {res['trace_bound_deviation']}")
        return out
    for got, closed, dev, want in zip(res["qcrb"], res["closed_form"], res["deviations"],
                                      exp["closed_form"]):
        if abs(got - want) > CLOSED_FORM_TOL * want or abs(closed - want) > CLOSED_FORM_TOL * want:
            out.append(f"QCRB {got} / closed form {closed} != independent {want}")
        if dev > CLOSED_FORM_TOL:
            out.append(f"closed-form deviation {dev}")
    return out


CHECKS = {"simulate": _check_simulate, "bayes": _check_bayes, "holevo": _check_holevo,
          "bounds": _check_bounds, "dqs": _check_dqs}


def check_report(item: dict, rc: int, report_path: str, validator) -> list[str]:
    """Failure messages for one attempted scenario (empty when it passed)."""
    if rc != 0:
        return [f"exit code {rc}"]
    if not os.path.exists(report_path):
        return ["no report written"]
    with open(report_path) as fh:
        report = json.load(fh)
    errors = [e.message for e in validator.iter_errors(report)]
    if errors:
        return [f"report fails the schema: {errors[0]}"]
    if "error" in report:
        return [f"report carries an error: {report['error']}"]
    try:
        return CHECKS[item["scenario"]](report["results"], item["expect"])
    except (KeyError, TypeError, ValueError) as exc:
        return [f"result missing or malformed: {type(exc).__name__}: {exc}"]


def reference_values(scenario: str, results: dict) -> dict:
    return {k: results[k] for k in REFERENCE_KEYS[scenario] if k in results}


def check_reference(item: dict, report_path: str, recorded: dict | None) -> list[str]:
    """Compare the anchor's key results with the values recorded at the seed commit."""
    if recorded is None:
        return ["no recorded reference for this anchor"]
    if not os.path.exists(report_path):
        return ["no anchor report"]
    with open(report_path) as fh:
        results = json.load(fh).get("results", {})
    got = reference_values(item["scenario"], results)
    out = []
    for key, want in recorded.items():
        if key not in got or not _close(got[key], want, REFERENCE_RTOL):
            out.append(f"anchor {key} = {got.get(key)} differs from recorded {want}")
    return out
