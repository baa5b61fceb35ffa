"""Seeded scenario generator for the qsense benchmark.

One seed gives every workload's configs.  Each workload is a *cycle* of
scenario configs with fixed input sizes; the seed only changes their random
content (theta, states, generators, POVM bases, weights, network sizes).  The
benchmark writes `cycles` fresh cycles plus one fixed anchor config per
workload; the program receives only these files.

Beside every config the generator records what the oracle needs to judge the
result (see oracles.py).  Those expectations come from this file's own numpy
code (finite-difference state derivatives and the SLD in the eigenbasis), not
from qsense, so they are independent of the program under test.
"""

from __future__ import annotations

import json
import math
import os

import numpy as np
from scipy.linalg import expm

# Why each workload exists; printed by run.py and mirrored in BENCHMARK.json.
WHY = {
    "mc_saturation": "simulate scenarios: probability-table grid and ML trial loop, no Bayes/Holevo/Fock code",
    "bayes_tracking": "bayes scenarios: same likelihood grid used by sequential updates and CSV snapshots",
    "holevo_solve": "holevo scenarios on random models: Newton/Hessian assembly, no grid layers",
    "analytic_sweep": "short bounds/dqs scenarios plus large Fock probes: schema validation, QFIM and Fock bases",
}
WORKLOADS = tuple(WHY)

# Input sizes per scale.  "full" is what the benchmark measures; "tiny" keeps
# the benchmark's own tests fast and exercises the same code paths.
SIZES = {
    "full": {
        "cycles": {"mc_saturation": 12, "bayes_tracking": 12, "holevo_solve": 16, "analytic_sweep": 4},
        "setup_repeats": 4,  # fresh-interpreter probes; the workload process adds one more
        "mc_1d": {"nodes": 2001, "m": 10000, "trials": 2000},
        "mc_2d": {"nodes": 101, "m": 2000, "trials": 500},
        "bayes_1d": {"nodes": 2001, "m": 2000, "snapshots": 10},
        "bayes_2d": {"nodes": 101, "m": 500, "snapshots": 10},
        # (Hilbert dimension n, parameters d, state rank, weight kind)
        "holevo_anchor": (8, 3, 8, "identity"),
        # Sorted by cost, the middle of a cycle is the n = 4 group, so the
        # median scenario time comes from one homogeneous group.  About one
        # solve in five stalls at its last barrier stage (~100 extra Newton
        # steps); the larger the model, the more that adds to its time, so
        # d = 3 runs at n = 5 to keep the run-to-run spread of the throughput
        # small.  The anchor covers n = 8, d = 3.
        "holevo": [
            (5, 3, 5, "identity"),
            (2, 2, 2, "identity"),
            (4, 2, 4, "matrix"),
            (5, 3, 5, "matrix"),
            (2, 2, 2, "deficient"),
            (12, 2, 2, "identity"),
            (4, 2, 4, "identity"),
            (2, 2, 2, "matrix"),
            (6, 2, 6, "identity"),
            (4, 2, 4, "deficient"),
            (4, 2, 4, "matrix"),
        ],
        "analytic_short": 100,
        "analytic_large": [("MEPE", 4, 4), ("MSPE", 4, 4), ("MSPS", 4, 4)],
    },
    "tiny": {
        "cycles": {"mc_saturation": 2, "bayes_tracking": 2, "holevo_solve": 2, "analytic_sweep": 2},
        "setup_repeats": 1,
        "mc_1d": {"nodes": 201, "m": 2000, "trials": 100},
        "mc_2d": {"nodes": 21, "m": 1000, "trials": 100},
        "bayes_1d": {"nodes": 201, "m": 300, "snapshots": 3},
        "bayes_2d": {"nodes": 21, "m": 400, "snapshots": 2},
        "holevo_anchor": (3, 2, 3, "identity"),
        "holevo": [(2, 2, 2, "identity"), (3, 2, 3, "matrix"), (3, 2, 3, "deficient")],
        "analytic_short": 8,
        "analytic_large": [("MEPE", 2, 2)],
    },
}

WORKLOAD_INDEX = {name: i for i, name in enumerate(WORKLOADS)}
ANCHOR_SEED = 20250224  # fixed seed of the anchor (warm-up) config of every workload

PAULI = {
    "x": np.array([[0, 1], [1, 0]], dtype=complex),
    "y": np.array([[0, -1j], [1j, 0]], dtype=complex),
    "z": np.array([[1, 0], [0, -1]], dtype=complex),
}
NAMED_BASES = {
    "x_basis": [np.array([1, 1]) / np.sqrt(2), np.array([1, -1]) / np.sqrt(2)],
    "y_basis": [np.array([1, 1j]) / np.sqrt(2), np.array([1, -1j]) / np.sqrt(2)],
    "z_basis": [np.array([1, 0]), np.array([0, 1])],
}
FD_STEP = 1e-5


# ---------------------------------------------------------------------------
# Independent numerics (numpy/scipy only)


def _cjson(arr) -> list:
    """Complex array -> nested [re, im] pairs, as the scenario schema expects."""
    arr = np.asarray(arr, dtype=complex)
    if arr.ndim == 1:
        return [[float(z.real), float(z.imag)] for z in arr]
    return [_cjson(row) for row in arr]


def _herm(a):
    return 0.5 * (a + a.conj().T)


def rand_unitary(rng, n):
    z = rng.normal(size=(n, n)) + 1j * rng.normal(size=(n, n))
    q, r = np.linalg.qr(z)
    return q * (np.diag(r) / np.abs(np.diag(r)))


def rand_pure(rng, n):
    v = rng.normal(size=n) + 1j * rng.normal(size=n)
    return v / np.linalg.norm(v)


def rand_density(rng, n, rank):
    a = rng.normal(size=(n, rank)) + 1j * rng.normal(size=(n, rank))
    rho = a @ a.conj().T
    if rank == n:  # keep full-rank states away from the kernel
        rho = rho / np.trace(rho).real
        rho = 0.9 * rho + 0.1 * np.eye(n) / n
    rho = _herm(rho)
    return rho / np.trace(rho).real


def rand_herm(rng, n):
    z = rng.normal(size=(n, n)) + 1j * rng.normal(size=(n, n))
    return _herm(z) / np.sqrt(n)


def evolve(rho0, gens, theta):
    u = expm(-1j * np.tensordot(np.asarray(theta, float), np.stack(gens), axes=1))
    return u @ rho0 @ u.conj().T


def state_derivatives(rho0, gens, theta):
    """Central finite differences of rho(theta) with one Richardson step."""
    theta = np.asarray(theta, float)
    out = []
    for j in range(len(gens)):
        def diff(h):
            tp, tm = theta.copy(), theta.copy()
            tp[j] += h
            tm[j] -= h
            return (evolve(rho0, gens, tp) - evolve(rho0, gens, tm)) / (2 * h)

        out.append(_herm((4 * diff(FD_STEP / 2) - diff(FD_STEP)) / 3))
    return out


def born(rho, elems):
    return np.array([np.real(np.trace(rho @ e)) for e in elems])


def classical_fim(rho0, gens, elems, theta):
    p = born(evolve(rho0, gens, theta), elems)
    dp = np.array([born(d, elems) for d in state_derivatives(rho0, gens, theta)])
    keep = p >= 1e-12
    return (dp[:, keep] / p[keep]) @ dp[:, keep].T, p


def quantum_info(rho0, gens, theta):
    """QFIM F and mean Uhlmann curvature G from SLDs in the eigenbasis of rho."""
    rho = evolve(rho0, gens, theta)
    lam, u = np.linalg.eigh(_herm(rho))
    denom = lam[:, None] + lam[None, :]
    mask = denom > 1e-10 * lam.max()
    slds = []
    for d in state_derivatives(rho0, gens, theta):
        de = u.conj().T @ d @ u
        slds.append(np.where(mask, 2 * de / np.where(mask, denom, 1.0), 0.0))
    t = np.einsum("a,iab,jba->ij", lam, np.stack(slds), np.stack(slds))
    return 0.5 * (t.real + t.real.T), 0.5 * (t.imag - t.imag.T)


def incompatibility(f, g) -> float:
    lam, u = np.linalg.eigh(f)
    s = (u / np.sqrt(lam)) @ u.T
    return float(np.abs(np.linalg.eigvalsh(1j * s @ g @ s)).max())


def holevo_upper(f, g, w) -> tuple[float, float]:
    """(QCRB, h(X0)): Tr[W F^-1] and Tr[W F^-1] + TrAbs[sqrtW F^-1 G F^-1 sqrtW]."""
    finv = np.linalg.inv(f)
    lam, u = np.linalg.eigh(w)
    sw = (u * np.sqrt(np.clip(lam, 0, None))) @ u.T
    qcrb = float(np.trace(w @ finv))
    return qcrb, qcrb + float(np.linalg.svd(sw @ finv @ g @ finv @ sw, compute_uv=False).sum())


# ---------------------------------------------------------------------------
# Model drawing


def _model_spec(rho0, gens, theta, pure=None):
    spec = {"kind": "unitary", "generators": [{"matrix": _cjson(g)} for g in gens],
            "theta": [float(t) for t in theta]}
    if pure is not None:
        spec["initial_state"] = _cjson(pure)
    else:
        spec["initial_density"] = _cjson(rho0)
    return spec


def _povm_basis(rng, n):
    u = rand_unitary(rng, n)
    return [np.outer(u[:, k], u[:, k].conj()) for k in range(n)]


def _born_batch(rho0, gens, elems, points):
    """Outcome probabilities at many parameter points, via one batched eigh."""
    lam, vec = np.linalg.eigh(np.tensordot(points, np.stack(gens), axes=1))
    u = vec @ (np.exp(-1j * lam)[..., None] * vec.conj().transpose(0, 2, 1))
    rho = u @ rho0 @ u.conj().transpose(0, 2, 1)
    return np.einsum("nab,kba->nk", rho, np.stack(elems)).real


def _identifiable(rho0, gens, elems, theta, box, m, fim) -> bool:
    """One likelihood mode in the box, and no near-zero outcome probability.

    On a grid over the box the expected log-likelihood ratio m KL(P_theta || P_x)
    must grow with the CRB distance d of x from theta: at least 0.3 d^2 beyond
    4 sigma, where a Gaussian gives 0.5 d^2.  A second mode fails this.
    """
    fine = 101 if len(theta) == 1 else 21
    mesh = np.meshgrid(*[np.linspace(lo, hi, fine) for lo, hi in box], indexing="ij")
    points = np.stack([g.ravel() for g in mesh], axis=1)
    p0 = born(evolve(rho0, gens, theta), elems)
    px = _born_batch(rho0, gens, elems, points)
    if px.min() < 1e-3:
        return False
    diff = points - theta
    dist2 = m * np.einsum("ni,ij,nj->n", diff, fim, diff)
    kl = m * (np.log(p0)[None, :] - np.log(px)) @ p0
    return bool(np.all((dist2 < 16) | (kl >= 0.3 * dist2)))


def _estimation_model(rng, dim, m, half_width_sigmas):
    """Draw a 1-parameter qubit or 2-parameter qutrit model with a local box.

    The box is theta +- k sigma per axis (sigma from the CRB at m shots) and
    the model must be identifiable on it (see _identifiable), so the CRB is
    the right yardstick for the estimator and posterior spread.
    """
    d = 1 if dim == 2 else 2
    for _ in range(10000):
        psi = rand_pure(rng, dim)
        rho0 = np.outer(psi, psi.conj())
        if dim == 2:
            axis = rng.normal(size=3)
            axis /= np.linalg.norm(axis)
            gens = [0.5 * sum(a * PAULI[k] for a, k in zip(axis, "xyz"))]
        else:
            gens = [rand_herm(rng, dim) for _ in range(d)]
        elems = _povm_basis(rng, dim)
        theta = rng.uniform(-0.5, 0.5, size=d)
        fim, p = classical_fim(rho0, gens, elems, theta)
        evals = np.linalg.eigvalsh(fim)
        if p.min() < 0.02 or evals.min() < 0.1 or evals.max() > 20 * evals.min():
            continue
        crb = np.linalg.inv(fim) / m
        half = half_width_sigmas * np.sqrt(np.diag(crb))
        box = np.stack([theta - half, theta + half], axis=1)
        if _identifiable(rho0, gens, elems, theta, box, m, fim):
            spec = _model_spec(rho0, gens, theta, pure=psi)
            povm = {"elements": [_cjson(e) for e in elems]}
            return spec, povm, theta, box, crb
    raise RuntimeError("could not draw an identifiable estimation model")


# ---------------------------------------------------------------------------
# Per-workload config makers.  Each returns (config, expectation).


def _simulate(rng, size, dim):
    spec, povm, theta, box, crb = _estimation_model(rng, dim, size["m"], 6.0)
    cfg = {"scenario": "simulate", "model": spec, "povm": povm, "m": size["m"],
           "trials": size["trials"], "seed": int(rng.integers(0, 2**31)),
           "domain": box.tolist(), "grid_resolution": size["nodes"]}
    return cfg, {"crb": crb.tolist(), "theta": theta.tolist(), "trials": size["trials"],
                 "csv_rows": size["trials"] + 1}


def _bayes(rng, size, dim):
    spec, povm, theta, box, crb = _estimation_model(rng, dim, size["m"], 8.0)
    every = size["m"] // size["snapshots"]
    cfg = {"scenario": "bayes", "model": spec, "povm": povm, "m": size["m"],
           "seed": int(rng.integers(0, 2**31)), "domain": box.tolist(),
           "grid_resolution": size["nodes"], "snapshot_every": every}
    nodes = size["nodes"] ** len(theta)
    steps = len([s for s in range(1, size["m"] + 1) if s % every == 0 or s == size["m"]])
    return cfg, {"crb": crb.tolist(), "theta": theta.tolist(), "box": box.tolist(),
                 "resolution": size["nodes"], "csv_rows": steps * nodes + 1,
                 "final_step": size["m"]}


def _weight(rng, d, kind):
    if kind == "identity":
        return {"kind": "identity"}, np.eye(d)
    if kind == "deficient":
        # Rank d-1 with a random (rotated) kernel.
        v, _ = np.linalg.qr(rng.normal(size=(d, d)))
        w = (v * np.append(rng.uniform(0.2, 1.0, size=d - 1), 0.0)) @ v.T
    else:
        b = rng.normal(size=(d, d))
        w = b @ b.T + 0.2 * np.eye(d)
        w /= np.trace(w)
    w = 0.5 * (w + w.T)
    return {"matrix": w.tolist()}, w


def _holevo(rng, n, d, rank, weight_kind):
    for _ in range(1000):
        rho0 = rand_density(rng, n, rank)
        gens = [rand_herm(rng, n) for _ in range(d)]
        theta = rng.uniform(-0.5, 0.5, size=d)
        f, g = quantum_info(rho0, gens, theta)
        ev = np.linalg.eigvalsh(f)
        if ev.min() > 1e-2 * ev.max():
            break
    else:
        raise RuntimeError("could not draw a well-conditioned Holevo model")
    wspec, w = _weight(rng, d, weight_kind)
    qcrb, h0 = holevo_upper(f, g, w)
    cfg = {"scenario": "holevo", "model": _model_spec(rho0, gens, theta), "weight": wspec}
    return cfg, {"qcrb": qcrb, "h0": h0, "r": incompatibility(f, g), "qubit": n == 2}


def _bounds(rng):
    """Short bounds scenario: named-Pauli qubit, random qubit or random qutrit."""
    kind = rng.integers(0, 3)
    if kind == 0:
        psi = rand_pure(rng, 2)
        rho0 = np.outer(psi, psi.conj())
        axes = rng.choice(3, size=2, replace=False)
        names = ["xyz"[a] for a in axes]
        scales = rng.uniform(0.3, 1.0, size=2)
        gens = [s * PAULI[k] for s, k in zip(scales, names)]
        theta = rng.uniform(-1.0, 1.0, size=2)
        basis = str(rng.choice(list(NAMED_BASES)))
        elems = [np.outer(v, np.conj(v)) for v in NAMED_BASES[basis]]
        spec = {"kind": "unitary", "initial_state": _cjson(psi),
                "generators": [{"pauli": k, "scale": float(s)} for k, s in zip(names, scales)],
                "theta": theta.tolist()}
        povm = {"name": basis}
    else:
        n = 2 if kind == 1 else 3
        rho0 = rand_density(rng, n, n if rng.random() < 0.5 else 1)
        d = int(rng.integers(1, 3))
        gens = [rand_herm(rng, n) for _ in range(d)]
        theta = rng.uniform(-1.0, 1.0, size=d)
        elems = _povm_basis(rng, n)
        spec = _model_spec(rho0, gens, theta)
        povm = {"elements": [_cjson(e) for e in elems]}
    d = len(gens)
    fim, _ = classical_fim(rho0, gens, elems, theta)
    f, _ = quantum_info(rho0, gens, theta)
    cfg = {"scenario": "bounds", "model": spec, "povm": povm}
    if rng.random() < 0.5:
        cfg["weight"], _ = _weight(rng, d, "matrix")
        cfg["m"] = int(rng.integers(1, 100))
    if rng.random() < 0.5:
        cfg["nu"] = [rng.normal(size=d).tolist()]
    return cfg, {"fim": fim.tolist(), "qfim": f.tolist()}


def closed_form(family, sensors, total, m=1):
    """Closed-form variance of the probe families (Humphreys et al. for NOON)."""
    if family == "GENERALIZED_NOON":
        return sensors * (math.sqrt(sensors) + 1) ** 2 / (4 * total**2 * m)
    if family in ("MSPS", "MEPS"):
        return 1 / (m * total)
    if family == "MSPE":
        return sensors / (m * total**2)
    return 1 / (m * total**2)


def _dqs(rng, family, sensors, per_sensor):
    m = int(rng.integers(1, 50))
    total = per_sensor * sensors
    cfg = {"scenario": "dqs", "m": m}
    if family == "GENERALIZED_NOON":
        cfg["dqs"] = {"family": family, "sensors": sensors, "total_particles": total}
        return cfg, {"family": family, "trace_bound": closed_form(family, sensors, total, m)}
    cfg["dqs"] = {"family": family, "sensors": sensors, "particles_per_sensor": per_sensor}
    nu = np.full(sensors, 1.0 / sensors)
    if family == "MEPE" and rng.random() < 0.5:
        signs = rng.choice([-1, 1], size=sensors)
        cfg["dqs"]["signs"] = signs.tolist()
        nu = signs / sensors
    cfg["nu"] = [nu.tolist()]
    return cfg, {"family": family, "closed_form": [closed_form(family, sensors, total, m)]}


def _short_dqs(rng):
    family = str(rng.choice(["MSPS", "MSPE", "MEPS", "MEPE", "GENERALIZED_NOON"]))
    return _dqs(rng, family, int(rng.integers(2, 4)), int(rng.integers(1, 3)))


# ---------------------------------------------------------------------------
# Cycles


def cycle(workload: str, rng, sizes: dict) -> list[tuple[dict, dict]]:
    """One cycle of (config, expectation) pairs at the scale's input sizes."""
    # four 1-D scenarios per 2-D one put the median scenario time well inside
    # the 1-D group
    if workload == "mc_saturation":
        return [_simulate(rng, sizes["mc_1d"], 2), _simulate(rng, sizes["mc_1d"], 2),
                _simulate(rng, sizes["mc_2d"], 3), _simulate(rng, sizes["mc_1d"], 2),
                _simulate(rng, sizes["mc_1d"], 2)]
    if workload == "bayes_tracking":
        return [_bayes(rng, sizes["bayes_1d"], 2), _bayes(rng, sizes["bayes_2d"], 3),
                _bayes(rng, sizes["bayes_1d"], 2)]
    if workload == "holevo_solve":
        return [_holevo(rng, *spec) for spec in sizes["holevo"]]
    # analytic_sweep: the large probes are spread evenly through the shorts
    shorts = sizes["analytic_short"]
    large = sizes["analytic_large"]
    stride = shorts // len(large)
    out = []
    for i in range(shorts):
        if i % stride == 0 and i // stride < len(large):
            out.append(_dqs(rng, *large[i // stride]))
        out.append(_bounds(rng) if rng.random() < 0.5 else _short_dqs(rng))
    return out


def anchor(workload: str, rng, sizes: dict) -> tuple[dict, dict]:
    """The fixed warm-up scenario, compared with the values recorded in reference.json."""
    if workload == "mc_saturation":
        return _simulate(rng, sizes["mc_1d"], 2)
    if workload == "bayes_tracking":
        return _bayes(rng, sizes["bayes_1d"], 2)
    if workload == "holevo_solve":
        return _holevo(rng, *sizes["holevo_anchor"])
    return _dqs(rng, *sizes["analytic_large"][0])


def generate(workload: str, seed: int, scale: str, outdir: str) -> dict:
    """Write the anchor and `cycles` cycles of configs; return the manifest.

    Report paths are chosen by the runner; CSV outputs are named here because
    the CLI takes them from the config.
    """
    sizes = SIZES[scale]
    os.makedirs(outdir, exist_ok=True)

    def write(tag, pairs):
        items = []
        for i, (cfg, exp) in enumerate(pairs):
            path = os.path.join(outdir, f"{tag}-{i:03d}.json")
            if cfg["scenario"] in ("simulate", "bayes"):
                exp["csv"] = os.path.join(outdir, f"{tag}-{i:03d}.csv")
                cfg["output"] = {"csv": exp["csv"]}
            with open(path, "w") as fh:
                json.dump(cfg, fh)
            items.append({"config": path, "scenario": cfg["scenario"], "expect": exp})
        return items

    anchor_rng = np.random.default_rng([ANCHOR_SEED, WORKLOAD_INDEX[workload]])
    first = write("anchor", [anchor(workload, anchor_rng, sizes)])[0]
    rng = np.random.default_rng([seed, WORKLOAD_INDEX[workload]])
    cycles = [write(f"c{c:02d}", cycle(workload, rng, sizes))
              for c in range(sizes["cycles"][workload])]
    return {"workload": workload, "seed": seed, "scale": scale, "anchor": first,
            "cycles": cycles}
