"""Grid-based Bayesian posterior updates and the posterior covariance matrix.

Posteriors live on dense tensor grids (up to three parameters) and weights
accumulate in log space, so long update sequences cannot underflow.
`bayes_update` multiplies in one outcome and renormalises.  Because the
likelihood of i.i.d. outcomes factorises, the posterior after k outcomes
depends only on their tallies n_o(k): `asymptotic_check` forms it directly as
log prior + sum_o n_o(k) log P(o|theta), normalised once, through the
log-likelihood core shared with maximum likelihood, and only at the steps it
reports.  The posterior is invariant under reordering of the outcome sequence.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .core import NumericalError, POVM, ValidationError
from .bounds import classical_fim, pseudo_inverse, qfim
from .model import ParametricModel, born_probabilities, probability_table
from .estimation import LOG_FLOOR, _log_table, _loglik_nodes, parameter_axes, trial_generator

DEFAULT_RESOLUTION = {1: 2001, 2: 301, 3: 61}
MASS_FLOOR = 1e-300


def _logsumexp(lw: np.ndarray) -> float:
    """log sum exp(lw), shifted by the largest entry; -inf when every entry is -inf."""
    top = float(lw.max())
    return top if np.isinf(top) else top + float(np.log(np.exp(lw - top).sum()))


@dataclass(frozen=True)
class PosteriorGrid:
    """Normalised posterior weights on a tensor grid, stored as log-weights."""

    axes: tuple[np.ndarray, ...]
    log_weights: np.ndarray

    def __post_init__(self):
        axes = tuple(np.asarray(ax, dtype=float) for ax in self.axes)
        lw = np.asarray(self.log_weights, dtype=float)
        if lw.shape != tuple(len(ax) for ax in axes):
            raise ValidationError("log-weight tensor does not match the grid axes")
        total = float(np.exp(_logsumexp(lw)))
        if abs(total - 1.0) > 1e-10:
            raise ValidationError(f"posterior mass {total} deviates from 1")
        for ax in axes:
            ax.setflags(write=False)
        lw.setflags(write=False)
        object.__setattr__(self, "axes", axes)
        object.__setattr__(self, "log_weights", lw)

    @property
    def weights(self) -> np.ndarray:
        return np.exp(self.log_weights)

    @property
    def dimensions(self) -> int:
        return len(self.axes)

    def nodes(self) -> np.ndarray:
        mesh = np.meshgrid(*self.axes, indexing="ij")
        return np.stack([g.ravel() for g in mesh], axis=1)


def _cell_weights(axes) -> np.ndarray:
    """Trapezoidal cell volumes (normalised): half weight on the axis endpoints.

    This keeps grid quadrature of smooth moments accurate to O(h^2) instead of
    O(h), which matters at the default resolutions.
    """
    total = np.ones(())
    for ax in axes:
        w = np.ones(len(ax))
        w[0] = w[-1] = 0.5
        total = np.multiply.outer(total, w)
    return total / total.sum()


def uniform_prior(box, resolution=None) -> PosteriorGrid:
    """Flat prior on a domain box with the default per-dimension grid sizes."""
    box = list(box)
    d = len(box)
    if d > 3:
        raise ValidationError("posterior grids support at most three parameters")
    if resolution is None:
        resolution = DEFAULT_RESOLUTION[d]
    axes = parameter_axes(box, resolution)
    return PosteriorGrid(tuple(axes), np.log(_cell_weights(axes)))


def likelihood_table(model: ParametricModel, povm: POVM, axes) -> np.ndarray:
    """P(k | theta) on the grid, shape (n_outcomes, *grid_shape)."""
    return probability_table(model, povm, axes)


def bayes_update(
    post: PosteriorGrid,
    model: ParametricModel,
    povm: POVM,
    outcome: int,
    table: np.ndarray | None = None,
) -> PosteriorGrid:
    """Multiply in the likelihood of one outcome and renormalise.

    Passing a precomputed ``likelihood_table`` avoids re-evaluating the model
    on every node; sequential updates with a shared table are cheap.
    """
    if not 0 <= outcome < len(povm):
        raise ValidationError(f"outcome index {outcome} outside the POVM range")
    if table is None:
        table = likelihood_table(model, povm, post.axes)
    lik = table[outcome]
    if lik.shape != post.log_weights.shape:
        raise ValidationError("likelihood table does not match the posterior grid")
    with np.errstate(divide="ignore"):
        lw = post.log_weights + np.log(lik)
    return _normalised(post.axes, lw, np.log(MASS_FLOOR))


def _normalised(axes, lw: np.ndarray, log_mass_floor: float) -> PosteriorGrid:
    """Posterior from unnormalised log-weights; refuses a mass below the floor."""
    log_mass = _logsumexp(lw)
    if not np.isfinite(log_mass) or log_mass < log_mass_floor:
        raise NumericalError(
            "posterior mass vanished: the observed outcome is impossible on the prior support"
        )
    return PosteriorGrid(axes, lw - log_mass)


def bayes_covariance(post: PosteriorGrid, theta_ref) -> np.ndarray:
    """Grid quadrature of (theta_ref - theta)(theta_ref - theta)^T."""
    ref = np.atleast_1d(np.asarray(theta_ref, dtype=float))
    if len(ref) != post.dimensions:
        raise ValidationError("reference point dimensionality mismatch")
    diff = ref[None, :] - post.nodes()
    w = post.weights.ravel()
    return (diff * w[:, None]).T @ diff


def posterior_mean(post: PosteriorGrid) -> np.ndarray:
    return post.weights.ravel() @ post.nodes()


def posterior_mode(post: PosteriorGrid) -> np.ndarray:
    idx = np.unravel_index(int(np.argmax(post.log_weights)), post.log_weights.shape)
    return np.array([ax[i] for ax, i in zip(post.axes, idx)])


def posterior_spread(post: PosteriorGrid) -> np.ndarray:
    """Covariance about the posterior mean (not the true-value covariance)."""
    return bayes_covariance(post, posterior_mean(post))


def gaussian_fit_residual(post: PosteriorGrid) -> float:
    """Total-variation distance between the posterior and its moment-matched normal."""
    mean = posterior_mean(post)
    cov = posterior_spread(post)
    diff = post.nodes() - mean[None, :]
    cov = cov + 1e-300 * np.eye(post.dimensions)
    try:
        inv = np.linalg.inv(cov)
    except np.linalg.LinAlgError:
        return float("nan")
    quad = np.einsum("ni,ij,nj->n", diff, inv, diff)
    g = np.exp(-0.5 * (quad - quad.min())) * _cell_weights(post.axes).ravel()
    g /= g.sum()
    return 0.5 * float(np.abs(g - post.weights.ravel()).sum())


@dataclass(frozen=True)
class AsymptoticReport:
    """Posterior shrinkage compared with the inverse-information prediction."""

    covariance: np.ndarray        # about theta_true
    crb_matrix: np.ndarray        # F^-1 / m (unset for m = 0)
    ratio: np.ndarray
    gaussian_residual: float
    mode: np.ndarray
    mean: np.ndarray
    outcomes: np.ndarray
    pre_asymptotic: bool


def asymptotic_check(
    model: ParametricModel,
    povm: POVM,
    theta_true,
    m: int,
    seed: int,
    box,
    resolution=None,
    on_step=None,
    snapshot_every: int = 1,
) -> AsymptoticReport:
    """Posterior after m sampled outcomes, compared with F^-1/m.

    The posterior after k outcomes is log prior + sum_o n_o(k) log P(o|theta),
    normalised once; it is materialised only where it is needed.  ``on_step``
    (step_index, posterior) is invoked at every step k with
    k % snapshot_every == 0 and at k = m, e.g. to stream snapshots; the
    default snapshot_every = 1 reports every step.  With no data (m = 0) the
    report simply carries the prior covariance.  Runs with m below a thousand
    are flagged pre-asymptotic.
    """
    if snapshot_every < 1:
        raise ValidationError("snapshot_every must be >= 1")
    theta_true = np.atleast_1d(np.asarray(theta_true, dtype=float))
    post = uniform_prior(box, resolution)
    if m == 0:
        cov = bayes_covariance(post, theta_true)
        nan = np.full_like(cov, np.nan)
        return AsymptoticReport(
            covariance=cov,
            crb_matrix=nan,
            ratio=nan,
            gaussian_residual=gaussian_fit_residual(post),
            mode=posterior_mode(post),
            mean=posterior_mean(post),
            outcomes=np.zeros(0, dtype=np.int64),
            pre_asymptotic=True,
        )
    information = qfim(model, theta_true)
    p_true = born_probabilities(information.state, povm).values
    rng = trial_generator(seed, 0)
    outcomes = rng.choice(len(p_true), size=m, p=p_true)
    log_table = _log_table(likelihood_table(model, povm, post.axes))
    prior = post.log_weights
    steps = list(range(snapshot_every, m, snapshot_every)) if on_step is not None else []
    steps.append(m)
    tallies = np.zeros(len(p_true), dtype=np.int64)
    seen = 0
    for step in steps:
        tallies += np.bincount(outcomes[seen:step], minlength=len(p_true))
        seen = step
        ll = _loglik_nodes(tallies, log_table).reshape(prior.shape)
        # the whole-sequence mass is routinely far below MASS_FLOOR; the
        # posterior is empty only when every node saw an impossible outcome
        post = _normalised(post.axes, prior + ll, 0.5 * LOG_FLOOR)
        if on_step is not None:
            on_step(step, post)

    cov = bayes_covariance(post, theta_true)
    crb = pseudo_inverse(classical_fim(information, povm)).matrix / m
    with np.errstate(divide="ignore", invalid="ignore"):
        ratio = np.where(np.abs(crb) > 0, cov / crb, np.nan)
    return AsymptoticReport(
        covariance=cov,
        crb_matrix=crb,
        ratio=ratio,
        gaussian_residual=gaussian_fit_residual(post),
        mode=posterior_mode(post),
        mean=posterior_mean(post),
        outcomes=outcomes.astype(np.int64),
        pre_asymptotic=bool(m < 1000),
    )
