"""Classical and quantum Fisher information and the scalar sensitivity bounds.

Conventions:
  * SLD L solves d rho = (L rho + rho L)/2 on the support of rho; matrix
    elements between kernel vectors are set to zero.  The eigenpairs and
    support of rho are those `DensityMatrix` stored; rho is not diagonalised here.
  * QFIM  F_ij = Re Tr[rho L_i L_j]; mean Uhlmann curvature
    G_ij = Im Tr[rho L_i L_j] (antisymmetric).
  * Singular information matrices are inverted on their support
    (Moore-Penrose), eigenvalues below RANK_REL_TOL * lambda_max are dropped.
  * The incompatibility ratio is the largest eigenvalue magnitude of
    i F^+ G, computed as the spectral norm of the Hermitian matrix
    i sqrt(F^+) G sqrt(F^+).
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Sequence

import numpy as np

from .core import (
    DensityMatrix,
    HermitianOperator,
    InestimableError,
    NumericalError,
    POVM,
    RANK_REL_TOL,
    SparseMultimodeState,
    ValidationError,
    WeightMatrix,
)
from .model import (
    ParametricModel, UnitaryEncoding, _check_theta, born_probabilities, state_derivatives,
)

P_FLOOR = 1e-12  # outcomes below this probability are excluded from FIM sums


@dataclass(frozen=True)
class FisherMatrix:
    """Real symmetric PSD information matrix with its eigendecomposition and support.

    The support (eigenvalues above ``cutoff`` = RANK_REL_TOL * lambda_max) is
    decided here, once; inverses, ranks and eigenvectors are read from these fields.
    """

    matrix: np.ndarray
    source: str  # "classical-FIM" or "QFIM"
    excluded_probability: float = 0.0
    eigenvalues: np.ndarray = field(init=False, repr=False)
    eigenvectors: np.ndarray = field(init=False, repr=False)
    cutoff: float = field(init=False, repr=False)
    support_mask: np.ndarray = field(init=False, repr=False)
    rank: int = field(init=False)
    support: np.ndarray = field(init=False, repr=False)

    def __post_init__(self):
        arr = np.array(self.matrix, dtype=float)
        if arr.ndim != 2 or arr.shape[0] != arr.shape[1]:
            raise ValidationError(f"information matrix must be square, got {arr.shape}")
        scale = max(float(np.abs(arr).max()), 1.0)
        if np.abs(arr - arr.T).max() > 1e-10 * scale:
            raise ValidationError("information matrix is not symmetric")
        arr = 0.5 * (arr + arr.T)
        evals, evecs = np.linalg.eigh(arr)
        if evals.min() < -1e-9 * scale:
            raise ValidationError("information matrix is not positive semidefinite")
        cutoff = RANK_REL_TOL * max(float(evals.max()), 0.0)
        keep = evals > cutoff
        proj = evecs[:, keep] @ evecs[:, keep].T
        for name, value in (("matrix", arr), ("eigenvalues", evals), ("eigenvectors", evecs),
                            ("support_mask", keep), ("support", proj)):
            value.setflags(write=False)
            object.__setattr__(self, name, value)
        object.__setattr__(self, "cutoff", cutoff)
        object.__setattr__(self, "rank", int(keep.sum()))

    @property
    def dim(self) -> int:
        return self.matrix.shape[0]


def _on_support(fisher: FisherMatrix, fn) -> np.ndarray:
    """U diag(fn(lambda)) U^T with fn applied on the support and zero on the kernel."""
    vals = np.zeros_like(fisher.eigenvalues)
    vals[fisher.support_mask] = fn(fisher.eigenvalues[fisher.support_mask])
    return (fisher.eigenvectors * vals) @ fisher.eigenvectors.T


@dataclass(frozen=True)
class QfimResult:
    """One parameter point: state, derivatives, SLDs, QFIM, curvature matrix and R.

    Callers that need rho or d_j rho at the point read them from here instead
    of evaluating the model again.
    """

    qfim: FisherMatrix
    slds: tuple[HermitianOperator, ...]
    g_q: np.ndarray
    r_measure: float
    state: DensityMatrix
    derivatives: tuple[HermitianOperator, ...]

    def __post_init__(self):
        g = np.array(self.g_q, dtype=float)
        scale = max(float(np.abs(g).max()), 1.0)
        if np.abs(g + g.T).max() > 1e-10 * scale:
            raise ValidationError("curvature matrix is not antisymmetric")
        if not -1e-12 <= self.r_measure <= 1.0 + 1e-9:
            raise ValidationError(f"incompatibility ratio {self.r_measure} outside [0, 1]")
        g.setflags(write=False)
        object.__setattr__(self, "g_q", g)


def classical_fim(
    information: QfimResult, povm: POVM, p_floor: float = P_FLOOR
) -> FisherMatrix:
    """FIM  F_ij = sum_k (d_i P_k)(d_j P_k)/P_k over outcomes with P_k >= p_floor.

    P_k = Tr[rho E_k] and d_j P_k = Tr[d_j rho E_k] take rho and d_j rho from the record.
    """
    probs = born_probabilities(information.state, povm).values
    dp = np.array([[np.real(np.trace(d.entries @ e.entries)) for e in povm.elements]
                   for d in information.derivatives])
    keep = probs >= p_floor
    if not keep.any():
        raise NumericalError("all outcomes fall below the probability floor")
    excluded = float(probs[~keep].sum())
    f = (dp[:, keep] / probs[keep]) @ dp[:, keep].T
    f = 0.5 * (f + f.T)
    return FisherMatrix(f, "classical-FIM", excluded_probability=excluded)


def _slds(rho: DensityMatrix, drhos: Sequence[HermitianOperator]):
    """SLDs of rho along each drho, the eigenvalues of rho and the SLDs in its eigenbasis.

    That eigenbasis is the stored one.  There L_ab = 2 d_ab / (lambda_a + lambda_b),
    zeroed where the sum is below RANK_REL_TOL * lambda_max (the kernel block).
    """
    lam, u = rho.eigenvalues, rho.eigenvectors
    denom = lam[:, None] + lam[None, :]
    d_eig = u.conj().T @ np.stack([d.entries for d in drhos]) @ u
    l_eig = np.zeros_like(d_eig)
    np.divide(2.0 * d_eig, denom, out=l_eig, where=denom > RANK_REL_TOL * float(lam.max()))
    l_mat = u @ l_eig @ u.conj().T
    slds = tuple(HermitianOperator(0.5 * (m + m.conj().T)) for m in l_mat)
    return slds, lam, l_eig


def sld(rho: DensityMatrix, drho: HermitianOperator) -> HermitianOperator:
    """Symmetric logarithmic derivative of rho along drho (kernel block zeroed)."""
    if rho.dim != drho.dim:
        raise ValidationError("state and derivative dimensions differ")
    return _slds(rho, [drho])[0][0]


def _incompatibility_ratio(fisher: FisherMatrix, g: np.ndarray) -> float:
    if fisher.dim == 1 or fisher.rank == 0:
        return 0.0
    s = _on_support(fisher, lambda lam: 1.0 / np.sqrt(lam))
    herm = 1j * s @ g @ s  # Hermitian: G is real antisymmetric
    r = float(np.abs(np.linalg.eigvalsh(herm)).max())
    return min(max(r, 0.0), 1.0)


def qfim(model: ParametricModel, theta) -> QfimResult:
    """QFIM, SLDs, curvature matrix and incompatibility ratio of a model at theta."""
    theta = _check_theta(model, theta)
    rho = model.evaluate(theta)
    derivs = tuple(state_derivatives(model, theta))
    slds, lam, slds_eig = _slds(rho, derivs)

    # Tr[rho L_i L_j] evaluated in the eigenbasis of rho
    t = np.einsum("a,iab,jba->ij", lam, slds_eig, slds_eig)
    f = 0.5 * (t.real + t.real.T)
    g = 0.5 * (t.imag - t.imag.T)
    fisher = FisherMatrix(f, "QFIM")
    return QfimResult(fisher, slds, g, _incompatibility_ratio(fisher, g), rho, derivs)


def qfim_pure(state: SparseMultimodeState, generators: np.ndarray) -> FisherMatrix:
    """QFIM of a pure sparse state: 4x the covariance of h_j = sum_m C[m, j] n_m under |a|^2.

    ``generators`` is C (modes x parameters).  Valid for encodings diagonal in the Fock
    basis (commuting generators); the encoding phases drop out of |amplitude|^2.
    """
    c = np.asarray(generators, dtype=float)
    if c.shape[:1] != (state.basis.modes,):
        raise ValidationError(f"generator matrix of shape {c.shape} needs one row per mode")
    w = state.weights
    h = np.einsum("nm,mj->jn", state.occupations, c, order="C")  # (parameters x support)
    mean = h @ w
    second = (h * w) @ h.T
    f = 4.0 * (second - np.outer(mean, mean))
    return FisherMatrix(0.5 * (f + f.T), "QFIM")


def pseudo_inverse(fisher: FisherMatrix) -> FisherMatrix:
    """Moore-Penrose inverse on the support decided by FisherMatrix."""
    if fisher.rank == 0:
        return FisherMatrix(np.zeros_like(fisher.matrix), fisher.source)
    out = _on_support(fisher, np.reciprocal)
    return FisherMatrix(0.5 * (out + out.T), fisher.source)


@dataclass(frozen=True)
class ScalarBound:
    """Tr[W F^+]/m together with an inestimable-direction diagnostic."""

    value: float
    inestimable: bool
    weight_leak: float

    def __float__(self) -> float:
        return self.value


def scalar_bound(
    fisher: FisherMatrix, weight: WeightMatrix, m: int = 1, strict: bool = False
) -> ScalarBound:
    """Weighted scalar bound Tr[W F^+]/m, flagging weight outside the support."""
    if weight.dim != fisher.dim:
        raise ValidationError("weight and information matrix dimensions differ")
    if m < 1:
        raise ValidationError("repetition count m must be >= 1")
    q = np.eye(fisher.dim) - fisher.support
    leak = float(np.abs(q @ weight.entries @ q).max())
    inest = leak > 1e-10 * max(1.0, float(np.abs(weight.entries).max()))
    if inest and strict:
        raise InestimableError(
            "weight matrix has support on inestimable directions (information kernel)"
        )
    value = float(np.trace(weight.entries @ pseudo_inverse(fisher).matrix)) / m
    return ScalarBound(value, inest, leak)


@dataclass(frozen=True)
class WeakBound:
    """Inverse-free lower bound (nu.nu)^2/(m nu^T F nu) and its gap to the exact one."""

    value: float
    exact: float
    gap: float


def weak_qcrb(nu, fisher: FisherMatrix, m: int = 1) -> WeakBound:
    """Weak bound for one direction; equals the exact bound iff nu is an eigenvector."""
    v = np.asarray(nu, dtype=float)
    if v.shape != (fisher.dim,):
        raise ValidationError(f"direction needs {fisher.dim} components, got shape {v.shape}")
    nsq = float(v @ v)
    if nsq == 0.0 or not np.isfinite(v).all():
        raise ValidationError("direction vector must be finite and nonzero")
    if m < 1:
        raise ValidationError("repetition count m must be >= 1")
    den = float(v @ fisher.matrix @ v)
    exact = float(v @ pseudo_inverse(fisher).matrix @ v) / m
    if den <= fisher.cutoff * nsq:
        return WeakBound(math.inf, exact, math.inf)
    value = nsq * nsq / (m * den)
    return WeakBound(value, exact, exact - value)


@dataclass(frozen=True)
class SaturationChecks:
    """Commutativity diagnostics controlling attainability of the quantum bound."""

    g_q_max: float
    partial_commutator_max: float
    weak_commutativity_holds: bool
    partial_commutativity_holds: bool
    pure_condition_holds: bool | None
    tolerance: float
    information: QfimResult  # the QFIM record the checks were computed from


def saturation_checks(model: ParametricModel, theta, tol: float = 1e-8) -> SaturationChecks:
    """Weak and partial commutativity checks, plus the pure-state generator check.

    For pure psi_0, Im<psi_0|G_i G_j|psi_0> = 0 with G_j = i U^dag dU/dtheta_j is G_ij/4 = 0.
    """
    result = qfim(model, theta)
    g_max = float(np.abs(result.g_q).max())

    u = result.state.eigenvectors[:, result.state.support]
    proj = u @ u.conj().T

    pc_max = 0.0
    slds = [l.entries for l in result.slds]
    for i in range(len(slds)):
        for j in range(i + 1, len(slds)):
            comm = slds[i] @ slds[j] - slds[j] @ slds[i]
            pc_max = max(pc_max, float(np.abs(proj @ comm @ proj).max()))

    pure_ok = None
    if isinstance(model.strategy, UnitaryEncoding) and model.strategy.initial.purity() > 1.0 - 1e-10:
        pure_ok = bool(g_max / 4.0 <= tol)

    return SaturationChecks(
        g_q_max=g_max,
        partial_commutator_max=pc_max,
        weak_commutativity_holds=bool(g_max <= tol),
        partial_commutativity_holds=bool(pc_max <= tol),
        pure_condition_holds=pure_ok,
        tolerance=tol,
        information=result,
    )


def best_combination(fisher: FisherMatrix) -> tuple[np.ndarray, float]:
    """Top eigenvector of the information matrix and its eigenvalue.

    The sign is fixed so the first nonzero component is positive; degenerate
    top eigenspaces resolve deterministically to the lowest-index basis
    direction they contain.
    """
    lam, u = fisher.eigenvalues, fisher.eigenvectors
    lmax = float(lam.max())
    if lmax <= 0.0:
        raise ValidationError("information matrix vanishes; no best combination")
    tol = 1e-12 * max(1.0, abs(lmax))
    basis = u[:, lam >= lmax - tol]
    vec = None
    for k in range(fisher.dim):
        proj = basis @ basis.T[:, k]
        norm = np.linalg.norm(proj)
        if norm > 1e-9:
            vec = proj / norm
            break
    if vec is None:  # cannot happen for an orthonormal eigenbasis
        vec = u[:, -1]
    for comp in vec:
        if abs(comp) > 1e-12:
            if comp < 0:
                vec = -vec
            break
    return vec, lmax


@dataclass(frozen=True)
class BoundChain:
    """Scalar bound chain CRB >= HB >= QCRB and the most-informative bracket."""

    crb: ScalarBound
    hb: float
    qcrb: ScalarBound
    r_measure: float
    mib_interval: tuple[float, float]
    mib_label: str
    ordering_tolerance: float
    n_copies_label: str


def bound_chain_report(
    model: ParametricModel,
    povm: POVM,
    theta,
    weight: WeightMatrix,
    m: int = 1,
    n_copies_label: str = "single-copy",
) -> BoundChain:
    """CRB / Holevo / QCRB for one (model, POVM, W); ordering asserted numerically.

    The exact most-informative bound (minimum over all POVMs) is not computed;
    it is bracketed by [max(HB, QCRB), CRB].
    """
    from .holevo import holevo_bound  # deferred: holevo imports this module

    solution = holevo_bound(model, theta, weight)
    result = solution.information
    crb = scalar_bound(classical_fim(result, povm), weight, m)
    qcrb = scalar_bound(result.qfim, weight, m)
    hb = solution.value / m

    # a weight component in the FIM kernel means infinite estimator variance;
    # the pseudo-inverse trace would silently understate it
    crb_effective = math.inf if crb.inestimable else crb.value
    tol = max(1e-9, 1e-6 * max(qcrb.value, 0.0), 10.0 * solution.gap / m)
    if crb_effective < hb - tol or hb < qcrb.value - tol:
        raise NumericalError(
            f"bound ordering violated: CRB={crb_effective}, HB={hb}, QCRB={qcrb.value}"
        )
    return BoundChain(
        crb=crb,
        hb=hb,
        qcrb=qcrb,
        r_measure=result.r_measure,
        mib_interval=(max(hb, qcrb.value), crb_effective),
        mib_label="bracket [max(HB, QCRB), CRB]; exact most-informative bound not computed",
        ordering_tolerance=tol,
        n_copies_label=n_copies_label,
    )
