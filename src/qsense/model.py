"""Parametric density-matrix families theta -> rho_theta and outcome probabilities.

A model carries an evaluation map plus one of three derivative strategies:
exact derivatives of a unitary family, user-supplied derivative callbacks, or
Richardson-refined central finite differences.

A unitary family takes everything from the eigendecomposition
sum_j theta_j H_j = V Lambda V^dag: U = V exp(-i Lambda) V^dag, and dU/dtheta_j
from the Daleckii-Krein divided differences of exp(-i x) in the same eigenbasis
(Najfeld & Havel, Adv. Appl. Math. 16, 321 (1995); Higham, Functions of
Matrices, ch. 3).

`probability_table` evaluates a whole parameter grid at once: unitary families
go through one batched eigendecomposition per block of nodes (`evaluate` is the
one-node block), other models through their `evaluate` map, and both through
the same stacked density-matrix and probability checks that guard a single node.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Sequence

import numpy as np

from .core import (
    DensityMatrix,
    HermitianOperator,
    POVM,
    NumericalError,
    ValidationError,
    check_density_matrices,
    spectral_decomposition,
)

PROB_CLIP = 1e-12          # negatives above this are roundoff, clipped to zero
PROB_SUM_TOL = 1e-9
FD_DEFAULT_STEP = 1e-5
FD_TRACE_TOL = 5e-8        # tracelessness of finite-difference derivatives
ANALYTIC_TRACE_TOL = 1e-12
TABLE_BLOCK_NODES = 1024      # grid nodes per batched eigendecomposition
TABLE_BLOCK_ENTRIES = 2**16   # and at most this many matrix entries per block


@dataclass(frozen=True)
class UnitaryEncoding:
    """rho_theta = U(theta) rho U(theta)^dag with U = exp(-i sum_j theta_j H_j)."""

    initial: DensityMatrix
    generators: tuple[HermitianOperator, ...]


@dataclass(frozen=True)
class ExplicitDerivatives:
    """User-supplied callback returning all d_j rho at a parameter point."""

    derivative_fn: Callable[[np.ndarray], Sequence[np.ndarray]]


@dataclass(frozen=True)
class FiniteDifferences:
    """Central differences with one Richardson refinement."""

    step: float = FD_DEFAULT_STEP


def normalised_probabilities(values) -> np.ndarray:
    """Clip roundoff negatives and renormalise outcome probabilities.

    ``values`` has the outcomes on axis 0 and may carry further axes (one
    column per grid node); every column is checked and normalised on its own.
    """
    vals = np.asarray(values, dtype=float)
    low = vals.min()
    if low < -PROB_CLIP:
        raise ValidationError(f"probability {low} below the clipping floor -{PROB_CLIP}")
    vals = np.clip(vals, 0.0, None)
    total = vals.sum(axis=0)
    off = np.abs(total - 1.0) > PROB_SUM_TOL
    if off.any():
        raise ValidationError(f"probabilities sum to {np.asarray(total)[off].flat[0]}, not 1")
    return vals / total


@dataclass(frozen=True)
class ProbabilityVector:
    """Outcome probabilities under a POVM; tiny negatives clipped, sum renormalised."""

    values: np.ndarray

    def __post_init__(self):
        vals = normalised_probabilities(self.values)
        vals.setflags(write=False)
        object.__setattr__(self, "values", vals)

    def __len__(self) -> int:
        return len(self.values)


@dataclass(frozen=True)
class ParametricModel:
    """A family theta -> DensityMatrix with a derivative strategy."""

    parameter_count: int
    dim: int
    evaluate: Callable[[np.ndarray], DensityMatrix]
    strategy: UnitaryEncoding | ExplicitDerivatives | FiniteDifferences
    domain: tuple[tuple[float, float], ...] | None = None


def _check_domain(model: ParametricModel, points: np.ndarray) -> None:
    """Reject parameter points (..., d) outside the model's domain box."""
    if model.domain is None:
        return
    lo, hi = np.array(model.domain).T
    outside = (points < lo) | (points > hi)
    if outside.any():
        where = tuple(np.argwhere(outside)[0])
        lo_j, hi_j = model.domain[where[-1]]
        raise ValidationError(
            f"parameter value {points[where]} outside domain [{lo_j}, {hi_j}]"
        )


def _check_theta(model: ParametricModel, theta) -> np.ndarray:
    theta = np.atleast_1d(np.asarray(theta, dtype=float))
    if len(theta) != model.parameter_count:
        raise ValidationError(
            f"model has {model.parameter_count} parameters, got {len(theta)}"
        )
    if not np.isfinite(theta).all():
        raise ValidationError(f"parameter point {theta.tolist()} is not finite")
    _check_domain(model, theta)
    return theta


def _check_povm_dim(dim: int, povm: POVM) -> None:
    if povm.dim != dim:
        raise ValidationError(f"POVM dimension {povm.dim} does not match model dimension {dim}")


def unitary_family(
    initial: DensityMatrix,
    generators: Sequence[HermitianOperator],
    domain=None,
) -> ParametricModel:
    """Model rho_theta = exp(-i sum theta_j H_j) rho exp(+i sum theta_j H_j)."""
    gens = tuple(generators)
    if not gens:
        raise ValidationError("need at least one generator")
    dim = initial.dim
    for g in gens:
        if g.dim != dim:
            raise ValidationError("generator dimension does not match the state")

    def evaluate(theta):
        theta = np.atleast_1d(np.asarray(theta, dtype=float))
        return DensityMatrix(_density_block(model, theta[None])[0])

    dom = tuple((float(lo), float(hi)) for lo, hi in domain) if domain is not None else None
    model = ParametricModel(len(gens), dim, evaluate, UnitaryEncoding(initial, gens), dom)
    return model


def explicit_model(
    parameter_count: int,
    dim: int,
    evaluate: Callable[[np.ndarray], DensityMatrix],
    derivative_fn: Callable[[np.ndarray], Sequence[np.ndarray]],
    domain=None,
) -> ParametricModel:
    dom = tuple((float(lo), float(hi)) for lo, hi in domain) if domain is not None else None
    return ParametricModel(
        parameter_count, dim, evaluate, ExplicitDerivatives(derivative_fn), dom
    )


def finite_difference_model(
    parameter_count: int,
    dim: int,
    evaluate: Callable[[np.ndarray], DensityMatrix],
    step: float = FD_DEFAULT_STEP,
    domain=None,
) -> ParametricModel:
    if step <= 0:
        raise ValidationError("finite-difference step must be positive")
    dom = tuple((float(lo), float(hi)) for lo, hi in domain) if domain is not None else None
    return ParametricModel(parameter_count, dim, evaluate, FiniteDifferences(step), dom)


def _hermitize(arr: np.ndarray) -> np.ndarray:
    return 0.5 * (arr + arr.conj().T)


def _eigen_unitaries(strategy: UnitaryEncoding, points: np.ndarray):
    """Generators, eigenvalues, eigenvectors and U = V exp(-i Lambda) V^dag at points (..., d)."""
    stack = np.stack([g.entries for g in strategy.generators])
    evals, evecs = spectral_decomposition(np.tensordot(points, stack, axes=1))
    u = (evecs * np.exp(-1j * evals)[..., None, :]) @ np.swapaxes(evecs, -1, -2).conj()
    return stack, evals, evecs, u


def _unitary_pieces(strategy: UnitaryEncoding, theta: np.ndarray):
    """U(theta) and the stack (d, n, n) of dU/dtheta_j, from one eigendecomposition.

    V^dag dU_j V = -i (V^dag H_j V) o Gamma, where
    Gamma_ab = exp(-i(l_a + l_b)/2) sinc((l_a - l_b)/2pi) is the divided
    difference (e^{-i l_a} - e^{-i l_b}) / (-i(l_a - l_b)) written without the
    0/0 that equal eigenvalues (theta = 0, degenerate generators) would give.
    """
    stack, lam, v, u = _eigen_unitaries(strategy, theta)
    vh = v.conj().T
    gamma = (np.exp(-0.5j * (lam[:, None] + lam[None, :]))
             * np.sinc((lam[:, None] - lam[None, :]) / (2.0 * np.pi)))
    return u, v @ (-1j * (vh @ stack @ v) * gamma) @ vh


def state_derivatives(model: ParametricModel, theta) -> list[HermitianOperator]:
    """Partial derivatives d_j rho_theta as Hermitian (traceless) operators."""
    theta = _check_theta(model, theta)
    strategy = model.strategy

    if isinstance(strategy, UnitaryEncoding):
        u, dus = _unitary_pieces(strategy, theta)
        rho0 = strategy.initial.entries
        ur = u @ rho0
        out = []
        for du in dus:
            d = du @ rho0 @ u.conj().T + ur @ du.conj().T
            d = _hermitize(d)
            if abs(d.trace()) > ANALYTIC_TRACE_TOL * max(1.0, np.abs(d).max()):
                raise NumericalError("analytic derivative is not traceless")
            out.append(HermitianOperator(d))
        return out

    if isinstance(strategy, ExplicitDerivatives):
        mats = strategy.derivative_fn(theta)
        if len(mats) != model.parameter_count:
            raise ValidationError("derivative callback returned the wrong number of matrices")
        out = []
        for m in mats:
            arr = m.entries if isinstance(m, HermitianOperator) else np.asarray(m, dtype=complex)
            if abs(arr.trace()) > ANALYTIC_TRACE_TOL * max(1.0, np.abs(arr).max()):
                raise NumericalError("explicit derivative is not traceless")
            out.append(HermitianOperator(_hermitize(arr)))
        return out

    # finite differences, central with one Richardson refinement
    h = strategy.step
    if model.domain is not None:
        for t, (lo, hi) in zip(theta, model.domain):
            if t - h < lo or t + h > hi:
                raise ValidationError(
                    "parameter too close to the domain boundary for central differences"
                )
    out = []
    for j in range(model.parameter_count):
        if theta[j] + h == theta[j] or theta[j] + 0.5 * h == theta[j]:
            raise NumericalError(f"finite-difference step {h} underflows at theta_j={theta[j]}")

        def diff(step_):
            tp, tm = theta.copy(), theta.copy()
            tp[j] += step_
            tm[j] -= step_
            return (model.evaluate(tp).entries - model.evaluate(tm).entries) / (2.0 * step_)

        d = (4.0 * diff(0.5 * h) - diff(h)) / 3.0
        d = _hermitize(d)
        if abs(d.trace()) > FD_TRACE_TOL * max(1.0, np.abs(d).max()):
            raise NumericalError("finite-difference derivative is not traceless")
        out.append(HermitianOperator(d))
    return out


def born_probabilities(state: DensityMatrix, povm: POVM) -> ProbabilityVector:
    """Born-rule outcome probabilities P(k) = Tr[rho E_k] of one state."""
    _check_povm_dim(state.dim, povm)
    rho = state.entries
    return ProbabilityVector(np.array([np.real(np.trace(rho @ e.entries)) for e in povm.elements]))


def probabilities(model: ParametricModel, povm: POVM, theta) -> ProbabilityVector:
    """Born-rule outcome probabilities P(k|theta) = Tr[rho_theta E_k]."""
    return born_probabilities(model.evaluate(_check_theta(model, theta)), povm)


def _density_block(model: ParametricModel, nodes: np.ndarray) -> np.ndarray:
    """Stack (k, n, n) of rho_theta at the k parameter points ``nodes``.

    A unitary family takes one batched eigendecomposition of sum_j theta_j H_j:
    U = V exp(-i Lambda) V^dag, rho = U rho0 U^dag.  Any other model is
    evaluated node by node through its own ``evaluate`` map.
    """
    strategy = model.strategy
    if not isinstance(strategy, UnitaryEncoding):
        return np.stack([model.evaluate(th).entries for th in nodes])
    u = _eigen_unitaries(strategy, nodes)[-1]
    return u @ strategy.initial.entries @ np.swapaxes(u, -1, -2).conj()


def probability_table(model: ParametricModel, povm: POVM, axes) -> np.ndarray:
    """P(k|theta) tabulated on a tensor grid; shape (n_outcomes, *grid_shape).

    Nodes are processed in blocks of at most TABLE_BLOCK_NODES (and at most
    TABLE_BLOCK_ENTRIES density-matrix entries).  Every node passes the same
    checks as `probabilities`: domain, density matrix, clip floor and sum.
    """
    axes = [np.asarray(ax, dtype=float) for ax in axes]
    if len(axes) != model.parameter_count:
        raise ValidationError("grid dimensionality does not match the model")
    _check_povm_dim(model.dim, povm)
    mesh = np.meshgrid(*axes, indexing="ij")
    nodes = np.stack([g.ravel() for g in mesh], axis=1)
    _check_domain(model, nodes)
    elements = np.stack([e.entries for e in povm.elements])
    block = max(1, min(TABLE_BLOCK_NODES, TABLE_BLOCK_ENTRIES // model.dim**2))
    table = np.empty((len(povm), nodes.shape[0]))
    for start in range(0, nodes.shape[0], block):
        rho = _density_block(model, nodes[start:start + block])
        check_density_matrices(rho)
        born = np.einsum("nab,kba->kn", rho, elements).real
        table[:, start:start + block] = normalised_probabilities(born)
    return table.reshape((len(povm),) + tuple(len(ax) for ax in axes))
