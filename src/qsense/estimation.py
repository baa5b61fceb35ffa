"""Monte-Carlo outcome sampling, grid maximum likelihood and covariance reports.

Randomness comes from counter-based Philox streams keyed by (seed, trial), so
trials are reproducible and order-independent: running them in any order, or
in parallel, yields identical records.

A trial's multinomial tally is a sufficient statistic.  `_estimate_tallies`
runs every log-likelihood product in padded blocks of one fixed shape, so an
estimate depends on nothing but its tally: a saturation run estimates each
distinct tally once, and `max_likelihood` gives the same bits for it.

Maximum likelihood here and the Bayes posteriors in `bayes` share one
log-likelihood core: the log of the probability table (`_log_table`) and the
products counts @ log_table (`_loglik_nodes`).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .core import NumericalError, POVM, ValidationError
from .bounds import classical_fim, pseudo_inverse, qfim
from .model import ParametricModel, born_probabilities, probabilities, probability_table

GRID_RESOLUTION_DEFAULT = 2001
MAX_GRID_DIMENSIONS = 2
LOG_FLOOR = -1e30  # stand-in for log(0) that keeps argmax well-defined
TRIAL_BLOCK_ENTRIES = 2**16  # log-likelihood entries per block of trials
TIE_REL_TOL = 1e-12  # log-likelihoods this close to the best count as ties


@dataclass(frozen=True)
class OutcomeRecord:
    """Tallied outcomes of m repeated measurements at a fixed true parameter."""

    seed: int
    theta_true: np.ndarray
    counts: np.ndarray
    m: int

    def __post_init__(self):
        theta = np.atleast_1d(np.asarray(self.theta_true, dtype=float))
        counts = np.asarray(self.counts, dtype=np.int64)
        if counts.sum() != self.m:
            raise ValidationError("outcome tallies do not sum to the shot count")
        theta.setflags(write=False)
        counts.setflags(write=False)
        object.__setattr__(self, "theta_true", theta)
        object.__setattr__(self, "counts", counts)


@dataclass(frozen=True)
class EstimateRecord:
    """Maximum-likelihood point, its log-likelihood, and grid diagnostics."""

    theta_hat: np.ndarray
    log_likelihood: float
    tied: bool
    refined: bool


def _trial_key(seed: int, trial: int) -> np.ndarray:
    return np.array([seed % 2**64, trial % 2**64], dtype=np.uint64)


def trial_generator(seed: int, trial: int = 0) -> np.random.Generator:
    """Counter-based generator keyed by (seed, trial); streams never overlap."""
    return np.random.Generator(np.random.Philox(key=_trial_key(seed, trial)))


def _rewind(bit_generator: np.random.Philox, seed: int, trial: int) -> dict:
    """Set a Philox to the start of the (seed, trial) stream of `trial_generator`.

    Returns the state dict it set, of lists (read faster than uint64 arrays).
    A seed's streams differ only in ``["state"]["key"][1]``: rewrite it to rewind.
    """
    bit_generator.state = state = {
        "bit_generator": "Philox", "buffer": [0] * 4, "buffer_pos": 4, "has_uint32": 0,
        "uinteger": 0, "state": {"counter": [0] * 4, "key": _trial_key(seed, trial).tolist()}}
    return state


def sample_outcomes(
    model: ParametricModel, povm: POVM, theta, m: int, seed: int, trial: int = 0
) -> OutcomeRecord:
    """Draw m i.i.d. outcomes from the Born-rule distribution."""
    if m < 1:
        raise ValidationError("shot count m must be >= 1")
    p = probabilities(model, povm, theta).values
    rng = trial_generator(seed, trial)
    counts = rng.multinomial(m, p)
    return OutcomeRecord(seed, np.atleast_1d(np.asarray(theta, float)), counts, m)


def parameter_axes(box, resolution=GRID_RESOLUTION_DEFAULT) -> list[np.ndarray]:
    """Uniform per-parameter grids over a domain box."""
    box = [(float(lo), float(hi)) for lo, hi in box]
    if isinstance(resolution, int):
        resolution = [resolution] * len(box)
    axes = []
    for (lo, hi), res in zip(box, resolution):
        if not -np.inf < lo < hi < np.inf or res < 3:
            raise ValidationError("domain box must be finite, nondegenerate, >= 3 grid points")
        axes.append(np.linspace(lo, hi, res))
    return axes


def _log_table(table: np.ndarray) -> np.ndarray:
    """log P(o|node), with the finite LOG_FLOOR where the probability is 0.

    The floor is finite so that a zero count times an impossible outcome adds
    exactly 0 to a log-likelihood instead of 0 * (-inf) = nan.
    """
    out = np.full(table.shape, LOG_FLOOR)
    np.log(table, out=out, where=table > 0)
    return out


def _loglik_nodes(counts: np.ndarray, log_table: np.ndarray) -> np.ndarray:
    """Log-likelihood sum_o n_o log P(o|node) at every grid node.

    ``counts`` is one tally (n_outcomes,) or a block of them
    (rows, n_outcomes); the result has one row of nodes per tally.
    """
    return counts @ log_table.reshape(log_table.shape[0], -1)


def _grid_argmax(ll: np.ndarray, axes):
    """Grid argmax of each row of ``ll`` (rows, nodes), refined by one parabola per axis.

    Ties (within TIE_REL_TOL of the best value) break toward the lowest
    flattened grid index, are flagged, and keep the grid node unrefined; an
    axis whose argmax sits on the grid edge, or whose three-point curvature is
    not negative and finite, keeps its grid coordinate and clears ``refined``.
    Returns (theta_hat (rows, d), best (rows,), tied (rows,), refined (rows,)).
    """
    shape = tuple(len(ax) for ax in axes)
    rows = np.arange(ll.shape[0])
    best = ll.max(axis=1)
    near = ll >= (best - TIE_REL_TOL * np.maximum(1.0, np.abs(best)))[:, None]
    tied = near.sum(axis=1) > 1
    idx = np.unravel_index(near.argmax(axis=1), shape)
    theta = np.stack([ax[i] for ax, i in zip(axes, idx)], axis=1)
    grid_ll = ll.reshape((len(rows),) + shape)
    l0 = grid_ll[(rows,) + idx]
    refined = ~tied
    for axis, (ax, i) in enumerate(zip(axes, idx)):
        inner = (i > 0) & (i < len(ax) - 1)
        lm = grid_ll[(rows,) + idx[:axis] + (np.maximum(i - 1, 0),) + idx[axis + 1:]]
        lp = grid_ll[(rows,) + idx[:axis] + (np.minimum(i + 1, len(ax) - 1),) + idx[axis + 1:]]
        denom = lm - 2.0 * l0 + lp
        ok = inner & np.isfinite(denom) & (denom < 0) & np.isfinite(lm + lp)
        with np.errstate(divide="ignore", invalid="ignore"):
            shift = np.clip(0.5 * (lm - lp) / denom, -0.5, 0.5)
        move = ok & ~tied
        theta[move, axis] = ax[i[move]] + shift[move] * (ax[1] - ax[0])
        refined &= ok
    return theta, best, tied, refined


def _estimate_tallies(tallies: np.ndarray, log_table: np.ndarray, axes):
    """`_grid_argmax` of each row of ``tallies`` (rows, n_outcomes), in padded blocks.

    Every counts @ log_table product has max(1, TRIAL_BLOCK_ENTRIES // nodes)
    rows, the last block padded with zero tallies, so a row's estimate does
    not depend on its block, its position in it, or how many rows there are.
    """
    block = max(1, TRIAL_BLOCK_ENTRIES // log_table[0].size)
    padded = np.zeros((-(-len(tallies) // block) * block, tallies.shape[1]), dtype=np.int64)
    padded[: len(tallies)] = tallies
    parts = [_grid_argmax(_loglik_nodes(padded[i:i + block], log_table)[: len(tallies) - i], axes)
             for i in range(0, len(tallies), block)]
    return [np.concatenate(part) for part in zip(*parts)]


def max_likelihood(
    record: OutcomeRecord,
    model: ParametricModel,
    povm: POVM,
    box,
    resolution=GRID_RESOLUTION_DEFAULT,
) -> EstimateRecord:
    """Grid argmax of the log-likelihood followed by one quadratic refinement.

    Ties break toward the lowest flattened grid index and are flagged.
    """
    if model.parameter_count > MAX_GRID_DIMENSIONS:
        raise ValidationError(
            f"grid estimation is limited to {MAX_GRID_DIMENSIONS} parameters"
        )
    axes = parameter_axes(box, resolution)
    log_table = _log_table(probability_table(model, povm, axes))
    theta, best, tied, refined = _estimate_tallies(record.counts[None, :], log_table, axes)
    if best[0] <= LOG_FLOOR * 0.5:
        raise NumericalError("likelihood vanishes everywhere on the grid")
    return EstimateRecord(theta[0], float(best[0]), bool(tied[0]), bool(refined[0]))


def empirical_covariance(estimates, theta_true) -> np.ndarray:
    """Mean outer product of (theta_true - theta_hat) over trials."""
    pts = np.asarray(estimates, dtype=float)
    if pts.ndim == 1:  # one scalar estimate per trial
        pts = pts[:, None]
    if len(pts) < 2:
        raise ValidationError("need at least two estimates")
    diff = np.atleast_1d(np.asarray(theta_true, dtype=float)) - pts
    return diff.T @ diff / len(pts)


@dataclass(frozen=True)
class SaturationReport:
    """Empirical estimator covariance against the information-matrix predictions."""

    empirical_covariance: np.ndarray
    crb_matrix: np.ndarray    # F^-1 / m  (classical, for the POVM in use)
    qcrb_matrix: np.ndarray   # F_Q^-1 / m
    z_scores: np.ndarray      # diagonal deviations under asymptotic normality
    bias: np.ndarray
    theta_hats: np.ndarray
    pre_asymptotic: bool
    trials: int
    m: int


def saturation_report(
    model: ParametricModel,
    povm: POVM,
    theta,
    m: int,
    trials: int,
    seed: int,
    box,
    resolution=GRID_RESOLUTION_DEFAULT,
    csv_path=None,
) -> SaturationReport:
    """Repeated sample-and-estimate rounds compared with the Cramer-Rao matrix.

    Trial t draws its tally from its own (seed, t)-keyed stream, the stream of
    `sample_outcomes(..., seed, trial=t)`.  The tally is sufficient for the
    likelihood, so the distinct tallies of all trials are estimated once each,
    as in `max_likelihood` (grid argmax, tie flag, parabolic refinement), in
    the padded blocks of `_estimate_tallies`.  A trial's estimate depends on
    nothing but its tally: not on the other trials, nor on how many run.
    """
    if trials < 100:
        raise ValidationError("need at least 100 trials for a saturation report")
    if m < 1:
        raise ValidationError("repetition count m must be >= 1")
    theta = np.atleast_1d(np.asarray(theta, dtype=float))
    information = qfim(model, theta)
    p_true = born_probabilities(information.state, povm).values
    axes = parameter_axes(box, resolution)
    log_table = _log_table(probability_table(model, povm, axes))

    tallies = np.empty((trials, len(p_true)), dtype=np.int64)
    rng = trial_generator(seed)
    start = _rewind(rng.bit_generator, seed, 0)
    for t in range(trials):
        start["state"]["key"][1] = t
        rng.bit_generator.state = start
        tallies[t] = rng.multinomial(m, p_true)
    distinct, which = np.unique(tallies, axis=0, return_inverse=True)
    hats, logliks, _, _ = _estimate_tallies(distinct, log_table, axes)
    theta_hats = hats[which]

    if csv_path is not None:
        # one block in csv.writer's default dialect: comma-separated, "\r\n"-terminated;
        # each distinct tally's text is formatted once
        header = ["trial"] + [f"theta_hat_{j + 1}" for j in range(len(theta))] + ["loglik"]
        cells = [",".join(map(repr, row + [loglik])) + "\r\n"
                 for row, loglik in zip(hats.tolist(), logliks.tolist())]
        rows = "".join(f"{t},{cells[i]}" for t, i in enumerate(which.tolist()))
        with open(csv_path, "w", newline="") as fh:
            fh.write(",".join(header) + "\r\n" + rows)

    emp = empirical_covariance(theta_hats, theta)
    crb = pseudo_inverse(classical_fim(information, povm)).matrix / m
    qcrb = pseudo_inverse(information.qfim).matrix / m
    diag = np.diag(crb)
    sigma = np.where(diag > 0, diag * np.sqrt(2.0 / trials), np.inf)
    z = (np.diag(emp) - diag) / sigma
    bias = theta_hats.mean(axis=0) - theta
    return SaturationReport(
        empirical_covariance=emp,
        crb_matrix=crb,
        qcrb_matrix=qcrb,
        z_scores=z,
        bias=bias,
        theta_hats=theta_hats,
        pre_asymptotic=bool(m < 100),
        trials=trials,
        m=m,
    )
