"""Acceptance suite: every criterion runs at its stated tolerance and prints
one PASS/FAIL line.  Monte-Carlo criteria use pinned seeds; their runs are
fully deterministic (counter-based streams keyed by seed and trial)."""

import json
import math
import time

import numpy as np
import pytest

from qsense.core import (
    DensityMatrix,
    HermitianOperator,
    PAULI_X,
    PAULI_Y,
    PAULI_Z,
    POVM,
    WeightMatrix,
    projective_measurement,
)
from qsense.bounds import classical_fim, qfim, qfim_pure, saturation_checks, scalar_bound
from qsense.holevo import holevo_bound
from qsense.dqs import (
    ProbeSpec,
    build_probe,
    closed_form_sensitivity,
    gain,
    global_sensor_network,
    local_sensor_network,
    nu_average,
    phase_generators,
    verify_probe,
)
from qsense.model import unitary_family
from qsense.estimation import saturation_report
from qsense.bayes import (
    PosteriorGrid,
    asymptotic_check,
    bayes_update,
    likelihood_table,
    uniform_prior,
)
from qsense.cli import run
from probe_oracle import dense_model

PLUS = DensityMatrix(np.full((2, 2), 0.5, dtype=complex))
ZERO = DensityMatrix(np.diag([1.0, 0.0]).astype(complex))
X_BASIS = projective_measurement(
    [np.array([1, 1]) / np.sqrt(2), np.array([1, -1]) / np.sqrt(2)]
)


def half(op):
    return HermitianOperator(op.entries / 2)


def verdict(number, label, ok):
    print(f"ACCEPTANCE {number:2d} {label}: {'PASS' if ok else 'FAIL'}", flush=True)
    assert ok, f"acceptance criterion {number} failed: {label}"


def random_density(rng, dim):
    a = rng.normal(size=(dim, dim)) + 1j * rng.normal(size=(dim, dim))
    h = a @ a.conj().T
    return DensityMatrix(h / np.trace(h))


def random_hermitian(rng, dim):
    a = rng.normal(size=(dim, dim)) + 1j * rng.normal(size=(dim, dim))
    return HermitianOperator(0.5 * (a + a.conj().T))


def random_povm(rng, dim, outcomes):
    mats = []
    for _ in range(outcomes):
        a = rng.normal(size=(dim, dim)) + 1j * rng.normal(size=(dim, dim))
        mats.append(a @ a.conj().T)
    total = sum(mats)
    lam, u = np.linalg.eigh(total)
    inv_sqrt = (u / np.sqrt(lam)) @ u.conj().T
    return POVM(tuple(HermitianOperator(inv_sqrt @ m @ inv_sqrt) for m in mats))


def test_criterion_1_dqs_closed_forms():
    started = time.perf_counter()
    worst = 0.0
    for d in (2, 3):
        for n in (1, 2, 3):
            for family in ("MSPS", "MSPE", "MEPE"):
                spec = ProbeSpec(family, local_sensor_network(d, n))
                check = verify_probe(spec, nu_average(d), m=1)
                worst = max(worst, check.relative_deviation)
    elapsed = time.perf_counter() - started
    verdict(
        1,
        f"DQS closed forms (worst rel dev {worst:.2e}, {elapsed:.2f}s)",
        worst <= 1e-9 and elapsed <= 5.0,
    )


def test_criterion_2_global_reference_trace_bound():
    worst = 0.0
    for d in (2, 3):
        for n_t in (2, 3, 4):
            spec = ProbeSpec("GENERALIZED_NOON", global_sensor_network(d, n_t))
            check = verify_probe(spec, None, m=1)
            expected = d * (math.sqrt(d) + 1.0) ** 2 / (4.0 * n_t**2)
            assert abs(check.closed_form - expected) < 1e-15
            worst = max(worst, check.relative_deviation)
    verdict(2, f"global-reference trace bound (worst rel dev {worst:.2e})", worst <= 1e-9)


def test_criterion_3_gain_formula():
    ok = all(abs(gain(nu_average(d)) - d) <= 1e-12 for d in range(1, 7))
    ok = ok and abs(gain([1.0] + [0.0] * 5) - 1.0) <= 1e-12
    ok = ok and abs(gain([0.5, -0.5]) - 2.0) <= 1e-12
    verdict(3, "entanglement gain formula", ok)


def test_criterion_4_information_inequality():
    rng = np.random.default_rng(40400)
    violations = 0
    worst = np.inf
    for _ in range(100):
        dim = int(rng.integers(2, 5))
        d = int(rng.integers(1, 4))
        model = unitary_family(
            random_density(rng, dim), [random_hermitian(rng, dim) for _ in range(d)]
        )
        povm = random_povm(rng, dim, int(rng.integers(2, 7)))
        theta = rng.normal(scale=0.4, size=d)
        point = qfim(model, theta)
        gap = point.qfim.matrix - classical_fim(point, povm).matrix
        low = float(np.linalg.eigvalsh(gap).min())
        worst = min(worst, low)
        if low < -1e-8:
            violations += 1
    verdict(
        4,
        f"information inequality on 100 pairs (min eig {worst:.2e}, {violations} violations)",
        violations == 0,
    )


def test_criterion_5_additivity_and_convexity():
    rng = np.random.default_rng(50500)
    worst_add = 0.0
    for _ in range(50):
        dim = int(rng.integers(2, 5))
        d = int(rng.integers(1, 4))
        rho = random_density(rng, dim)
        gens = [random_hermitian(rng, dim) for _ in range(d)]
        theta = rng.normal(scale=0.3, size=d)
        single = qfim(unitary_family(rho, gens), theta).qfim.matrix
        pair_gens = [
            HermitianOperator(
                np.kron(g.entries, np.eye(dim)) + np.kron(np.eye(dim), g.entries)
            )
            for g in gens
        ]
        rho2 = DensityMatrix(np.kron(rho.entries, rho.entries))
        pair = qfim(unitary_family(rho2, pair_gens), theta).qfim.matrix
        worst_add = max(worst_add, float(np.abs(pair - 2.0 * single).max()))

    worst_convex = np.inf
    for _ in range(50):
        dim = int(rng.integers(2, 5))
        d = int(rng.integers(1, 3))
        gens = [random_hermitian(rng, dim) for _ in range(d)]
        q = rng.dirichlet(np.ones(3))
        parts = [random_density(rng, dim) for _ in range(3)]
        mixture = DensityMatrix(sum(w * p.entries for w, p in zip(q, parts)))
        theta = rng.normal(scale=0.3, size=d)
        f_mix = qfim(unitary_family(mixture, gens), theta).qfim.matrix
        f_avg = sum(
            w * qfim(unitary_family(p, gens), theta).qfim.matrix
            for w, p in zip(q, parts)
        )
        worst_convex = min(worst_convex, float(np.linalg.eigvalsh(f_avg - f_mix).min()))
    verdict(
        5,
        f"additivity (max dev {worst_add:.2e}) and convexity (min eig {worst_convex:.2e}), 50 cases each",
        worst_add <= 1e-8 and worst_convex >= -1e-8,
    )


def test_criterion_6_holevo_sandwich():
    rng = np.random.default_rng(60600)
    ok = True
    slowest = 0.0
    for k in range(50):
        dim = 2 if k % 2 == 0 else 3
        model = unitary_family(
            random_density(rng, dim),
            [random_hermitian(rng, dim), random_hermitian(rng, dim)],
        )
        theta = rng.normal(scale=0.3, size=2)
        result = qfim(model, theta)
        w = WeightMatrix.identity(2)
        qcrb = scalar_bound(result.qfim, w).value
        started = time.perf_counter()
        hb = holevo_bound(model, theta, w).value
        slowest = max(slowest, time.perf_counter() - started)
        tol = 1e-5 * qcrb
        upper = (1.0 + result.r_measure) * qcrb
        ok = ok and qcrb - tol <= hb <= upper + tol <= 2.0 * qcrb + 2 * tol

    # unit-rank weight collapses the bound onto the quantum Cramer-Rao value
    rng2 = np.random.default_rng(60601)
    for _ in range(10):
        model = unitary_family(
            random_density(rng2, 2),
            [random_hermitian(rng2, 2), random_hermitian(rng2, 2)],
        )
        theta = rng2.normal(scale=0.3, size=2)
        nu = rng2.normal(size=2)
        w1 = WeightMatrix.rank_one(nu)
        qcrb = scalar_bound(qfim(model, theta).qfim, w1).value
        started = time.perf_counter()
        hb = holevo_bound(model, theta, w1).value
        slowest = max(slowest, time.perf_counter() - started)
        ok = ok and abs(hb - qcrb) <= 1e-5 * qcrb

    xy = unitary_family(ZERO, [half(PAULI_X), half(PAULI_Y)])
    r = qfim(xy, [0.0, 0.0]).r_measure
    ok = ok and abs(r - 1.0) <= 1e-8
    verdict(
        6,
        f"Holevo sandwich on 50 models + rank-1 weights (max solve {slowest:.3f}s, R_xy={r:.10f})",
        ok and slowest <= 1.0,
    )


def test_criterion_7_crb_saturation_monte_carlo():
    started = time.perf_counter()
    model = unitary_family(PLUS, [half(PAULI_Z)])
    report = saturation_report(
        model,
        X_BASIS,
        [1.0],
        m=100_000,
        trials=200,
        seed=16,
        box=[(0.2, 2.9)],
        resolution=2001,
    )
    elapsed = time.perf_counter() - started
    ratio = report.empirical_covariance[0, 0] / report.crb_matrix[0, 0]
    verdict(
        7,
        f"CRB saturation Monte Carlo (variance ratio {ratio:.4f}, {elapsed:.1f}s)",
        abs(ratio - 1.0) <= 0.1 and elapsed <= 30.0,
    )


def test_criterion_8_bayesian_asymptotics():
    model = unitary_family(PLUS, [half(PAULI_Z)])
    report = asymptotic_check(
        model, X_BASIS, [1.0], m=10_000, seed=0, box=[(0.2, 2.9)]
    )
    ratio = report.ratio[0, 0]

    prior = uniform_prior([(0.2, 2.9)], 501)
    table = likelihood_table(model, X_BASIS, prior.axes)
    seq = [0, 1, 1, 0, 1, 0, 0, 1, 1, 1]
    forward, backward = prior, prior
    for k in seq:
        forward = bayes_update(forward, model, X_BASIS, k, table=table)
    for k in reversed(seq):
        backward = bayes_update(backward, model, X_BASIS, k, table=table)
    order_dev = float(np.abs(forward.weights - backward.weights).max())
    verdict(
        8,
        f"Bayesian asymptotics (C_B ratio {ratio:.4f}, order invariance {order_dev:.2e})",
        0.9 <= ratio <= 1.1 and order_dev <= 1e-12,
    )


def _dqs_curvature_checks():
    out = {}
    cases = [
        ("MSPS", 2, 2), ("MSPS", 3, 1),
        ("MSPE", 2, 2), ("MSPE", 3, 2),
        ("MEPS", 2, 2),
        ("MEPE", 2, 2), ("MEPE", 3, 1),
    ]
    for family, d, n in cases:
        spec = ProbeSpec(family, local_sensor_network(d, n))
        probe = build_probe(spec)
        model = dense_model(probe, phase_generators(spec.network))
        checks = saturation_checks(model, np.zeros(d))
        out[(family, d, n)] = (checks.g_q_max, checks.weak_commutativity_holds)
    for d, n_t in [(2, 2), (3, 3)]:
        spec = ProbeSpec("GENERALIZED_NOON", global_sensor_network(d, n_t))
        probe = build_probe(spec)
        model = dense_model(probe, phase_generators(spec.network))
        checks = saturation_checks(model, np.zeros(d))
        out[("GENERALIZED_NOON", d, n_t)] = (checks.g_q_max, checks.weak_commutativity_holds)
    return out


def test_criterion_9_saturation_checks():
    first = _dqs_curvature_checks()
    second = _dqs_curvature_checks()
    dqs_ok = all(g <= 1e-10 and holds for g, holds in first.values())
    deterministic = first == second

    xy = unitary_family(ZERO, [half(PAULI_X), half(PAULI_Y)])
    xy_checks = saturation_checks(xy, [0.0, 0.0])
    xy_violates = not xy_checks.weak_commutativity_holds
    verdict(
        9,
        f"saturation checks (max DQS curvature {max(g for g, _ in first.values()):.2e}, "
        f"incompatible model flagged {xy_violates})",
        dqs_ok and xy_violates and deterministic,
    )


def test_criterion_10_csv_determinism(tmp_path):
    sim_cfg = {
        "scenario": "simulate",
        "model": {
            "kind": "unitary",
            "initial_state": [[0.7071067811865476, 0.0], [0.7071067811865476, 0.0]],
            "generators": [{"pauli": "z", "scale": 0.5}],
            "theta": [1.0],
        },
        "povm": {"name": "x_basis"},
        "m": 500,
        "trials": 100,
        "seed": 7,
        "domain": [[0.2, 2.9]],
        "grid_resolution": 401,
    }
    bayes_cfg = {
        "scenario": "bayes",
        "model": sim_cfg["model"],
        "povm": {"name": "x_basis"},
        "m": 80,
        "seed": 7,
        "domain": [[0.2, 2.9]],
        "grid_resolution": 201,
        "snapshot_every": 20,
    }
    payloads = []
    for tag, cfg in [("sim", sim_cfg), ("bayes", bayes_cfg)]:
        pair = []
        for attempt in ("a", "b"):
            cfg_run = dict(cfg)
            cfg_run["output"] = {
                "report": str(tmp_path / f"{tag}_{attempt}.json"),
                "csv": str(tmp_path / f"{tag}_{attempt}.csv"),
            }
            path = tmp_path / f"{tag}_{attempt}_cfg.json"
            path.write_text(json.dumps(cfg_run))
            assert run(str(path), quiet=True) == 0
            pair.append((tmp_path / f"{tag}_{attempt}.csv").read_bytes())
        payloads.append(pair[0] == pair[1])
    verdict(10, "fixed-seed CSV determinism (simulate and bayes)", all(payloads))
