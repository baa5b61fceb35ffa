"""Classical and quantum Fisher information and the scalar sensitivity bounds.

Conventions:
  * SLD L solves d rho = (L rho + rho L)/2 on the support of rho; matrix
    elements between kernel vectors are set to zero.
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
from typing import Callable, Sequence

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
    spanned_sector,
)
from .model import (
    ParametricModel,
    UnitaryEncoding,
    encoding_generators,
    probabilities,
    probability_derivatives,
    state_derivatives,
)

P_FLOOR = 1e-12  # outcomes below this probability are excluded from FIM sums


@dataclass(frozen=True)
class FisherMatrix:
    """Real symmetric PSD information matrix with its support bookkeeping."""

    matrix: np.ndarray
    source: str  # "classical-FIM" or "QFIM"
    excluded_probability: float = 0.0
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
        lmax = max(float(evals.max()), 0.0)
        keep = evals > RANK_REL_TOL * lmax if lmax > 0 else np.zeros_like(evals, dtype=bool)
        proj = evecs[:, keep] @ evecs[:, keep].T
        arr.setflags(write=False)
        proj.setflags(write=False)
        object.__setattr__(self, "matrix", arr)
        object.__setattr__(self, "rank", int(keep.sum()))
        object.__setattr__(self, "support", proj)

    @property
    def dim(self) -> int:
        return self.matrix.shape[0]


@dataclass(frozen=True)
class QfimResult:
    """QFIM together with the SLDs, the curvature matrix and the ratio R."""

    qfim: FisherMatrix
    slds: tuple[HermitianOperator, ...]
    g_q: np.ndarray
    r_measure: float

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
    model: ParametricModel, povm: POVM, theta, p_floor: float = P_FLOOR
) -> FisherMatrix:
    """FIM  F_ij = sum_k (d_i P_k)(d_j P_k)/P_k over outcomes with P_k >= p_floor."""
    probs = probabilities(model, povm, theta).values
    dp = probability_derivatives(model, povm, theta)
    keep = probs >= p_floor
    if not keep.any():
        raise NumericalError("all outcomes fall below the probability floor")
    excluded = float(probs[~keep].sum())
    f = (dp[:, keep] / probs[keep]) @ dp[:, keep].T
    f = 0.5 * (f + f.T)
    return FisherMatrix(f, "classical-FIM", excluded_probability=excluded)


def _slds(rho: DensityMatrix, drhos: Sequence[HermitianOperator]):
    """SLDs of rho along each drho, the eigenvalues of rho and the SLDs in its eigenbasis.

    There L_ab = 2 d_ab / (lambda_a + lambda_b), zeroed where the sum is below
    RANK_REL_TOL * lambda_max (the kernel block).
    """
    lam, u = np.linalg.eigh(rho.entries)
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
    if fisher.dim == 1:
        return 0.0
    lam, u = np.linalg.eigh(fisher.matrix)
    lmax = max(float(lam.max()), 0.0)
    if lmax <= 0.0:
        return 0.0
    mask = lam > RANK_REL_TOL * lmax
    inv_sqrt = np.zeros_like(lam)
    inv_sqrt[mask] = 1.0 / np.sqrt(lam[mask])
    s = (u * inv_sqrt) @ u.T
    herm = 1j * s @ g @ s  # Hermitian: G is real antisymmetric
    r = float(np.abs(np.linalg.eigvalsh(herm)).max())
    return min(max(r, 0.0), 1.0)


def qfim(model: ParametricModel, theta) -> QfimResult:
    """QFIM, SLDs, curvature matrix and incompatibility ratio of a model at theta."""
    rho = model.evaluate(np.atleast_1d(np.asarray(theta, dtype=float)))
    slds, lam, slds_eig = _slds(rho, state_derivatives(model, theta))

    # Tr[rho L_i L_j] evaluated in the eigenbasis of rho
    t = np.einsum("a,iab,jba->ij", lam, slds_eig, slds_eig)
    f = 0.5 * (t.real + t.real.T)
    g = 0.5 * (t.imag - t.imag.T)
    fisher = FisherMatrix(f, "QFIM")
    return QfimResult(fisher, slds, g, _incompatibility_ratio(fisher, g))


def qfim_pure(
    state: SparseMultimodeState,
    generators: Sequence[Callable[[tuple[int, ...]], float]],
    theta=None,
) -> FisherMatrix:
    """QFIM of a pure sparse state: 4x the covariance of the diagonal generators.

    Valid for encodings diagonal in the Fock basis (commuting generators);
    the phases applied by the encoding drop out of |amplitude|^2, so theta is
    accepted for interface symmetry but does not affect the result.
    """
    del theta
    keys = spanned_sector(state)
    if not keys:
        raise ValidationError("state has no support")
    w = np.array([abs(state.amplitudes[n]) ** 2 for n in keys])
    h = np.array([[float(g(n)) for n in keys] for g in generators])
    mean = h @ w
    second = (h * w) @ h.T
    f = 4.0 * (second - np.outer(mean, mean))
    return FisherMatrix(0.5 * (f + f.T), "QFIM")


def qfim_pure_dense(psi, generators) -> FisherMatrix:
    """QFIM of a dense pure state vector for arbitrary Hermitian generators."""
    v = np.asarray(psi, dtype=complex)
    v = v / np.linalg.norm(v)
    mats = [g.entries if isinstance(g, HermitianOperator) else np.asarray(g) for g in generators]
    mean = np.array([np.real(v.conj() @ m @ v) for m in mats])
    d = len(mats)
    second = np.empty((d, d))
    for i in range(d):
        wi = mats[i] @ v
        for j in range(i, d):
            second[i, j] = second[j, i] = float(np.real(wi.conj() @ (mats[j] @ v)))
    f = 4.0 * (second - np.outer(mean, mean))
    return FisherMatrix(0.5 * (f + f.T), "QFIM")


def pseudo_inverse(fisher: FisherMatrix) -> FisherMatrix:
    """Moore-Penrose inverse on the support (same eigenvalue cut as FisherMatrix)."""
    lam, u = np.linalg.eigh(fisher.matrix)
    lmax = max(float(lam.max()), 0.0)
    if lmax == 0.0:
        return FisherMatrix(np.zeros_like(fisher.matrix), fisher.source)
    inv = np.where(lam > RANK_REL_TOL * lmax, 1.0 / np.where(lam > 0, lam, 1.0), 0.0)
    out = (u * inv) @ u.T
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
    nsq = float(v @ v)
    if nsq == 0.0:
        raise ValidationError("direction vector must be nonzero")
    den = float(v @ fisher.matrix @ v)
    exact = float(v @ pseudo_inverse(fisher).matrix @ v) / m
    lmax = max(float(np.linalg.eigvalsh(fisher.matrix).max()), 0.0)
    if den <= RANK_REL_TOL * lmax * nsq:
        return WeakBound(math.inf, exact, math.inf)
    value = nsq * nsq / (m * den)
    return WeakBound(value, exact, exact - value)


@dataclass(frozen=True)
class WeightAnalysis:
    trace_bound: float          # sum_j w_j nu_j^T F^+ nu_j / m
    weak_bound: float           # sum of the inverse-free terms
    harmonic_bound: float       # d^2 [sum_j m nu^T F nu/(w (nu.nu)^2)]^-1
    lambda_fit: float           # least-squares lambda in W ~ lambda F
    w_opt_residual: float       # max-abs of W - lambda_fit * F
    optimal_trace_bound: float  # Tr[(lambda_fit F) F^+]/m, = lambda d/m at equality
    weight: WeightMatrix


def weight_matrix_analysis(
    fisher: FisherMatrix, weighted_directions, m: int = 1
) -> WeightAnalysis:
    """Bounds for a weighted set of directions, with the full-rank harmonic bound.

    The harmonic bound is the arithmetic-harmonic-mean relaxation of the weak
    bound terms; it meets the trace bound exactly when W is proportional to the
    information matrix.
    """
    pairs = [(float(w), np.asarray(nu, dtype=float)) for w, nu in weighted_directions]
    if not pairs:
        raise ValidationError("need at least one weighted direction")
    for w, nu in pairs:
        if w <= 0:
            raise ValidationError("weights must be positive")
        if float(nu @ nu) == 0.0:
            raise ValidationError("direction vectors must be nonzero")
    weight = WeightMatrix.from_directions(pairs)
    if not weight.positive_definite:
        raise ValidationError(
            "full-rank branch requires a strictly positive-definite weight matrix"
        )
    fmat = fisher.matrix
    fplus = pseudo_inverse(fisher).matrix
    d = fisher.dim

    trace_bound = sum(w * float(nu @ fplus @ nu) for w, nu in pairs) / m
    weak_terms = []
    inv_terms = []
    for w, nu in pairs:
        nsq = float(nu @ nu)
        forward = float(nu @ fmat @ nu)
        if forward <= 0.0:
            raise ValidationError("a direction lies in the information kernel")
        weak_terms.append(w * nsq * nsq / (m * forward))
        inv_terms.append(m * forward / (w * nsq * nsq))
    weak_bound = float(sum(weak_terms))
    harmonic = d * d / float(sum(inv_terms))

    denom = float(np.trace(fmat @ fmat))
    lam_fit = float(np.trace(weight.entries @ fmat)) / denom if denom > 0 else 0.0
    resid = float(np.abs(weight.entries - lam_fit * fmat).max())
    optimal = lam_fit * float(np.trace(fmat @ fplus)) / m
    return WeightAnalysis(trace_bound, weak_bound, harmonic, lam_fit, resid, optimal, weight)


@dataclass(frozen=True)
class SaturationChecks:
    """Commutativity diagnostics controlling attainability of the quantum bound."""

    g_q_max: float
    partial_commutator_max: float
    generator_imag_matrix: np.ndarray | None
    weak_commutativity_holds: bool
    partial_commutativity_holds: bool
    pure_condition_holds: bool | None
    tolerance: float


def saturation_checks(model: ParametricModel, theta, tol: float = 1e-8) -> SaturationChecks:
    """Weak and partial commutativity checks, plus the pure-state generator check."""
    result = qfim(model, theta)
    g_max = float(np.abs(result.g_q).max())

    rho = model.evaluate(np.atleast_1d(np.asarray(theta, dtype=float)))
    lam, u = np.linalg.eigh(rho.entries)
    keep = lam > RANK_REL_TOL * float(lam.max())
    proj = u[:, keep] @ u[:, keep].conj().T

    pc_max = 0.0
    slds = [l.entries for l in result.slds]
    for i in range(len(slds)):
        for j in range(i + 1, len(slds)):
            comm = slds[i] @ slds[j] - slds[j] @ slds[i]
            pc_max = max(pc_max, float(np.abs(proj @ comm @ proj).max()))

    gen_imag = None
    pure_ok = None
    if isinstance(model.strategy, UnitaryEncoding) and model.strategy.initial.purity() > 1.0 - 1e-10:
        lam0, u0 = np.linalg.eigh(model.strategy.initial.entries)
        psi0 = u0[:, -1]
        gens = encoding_generators(model, theta)
        d = len(gens)
        gen_imag = np.empty((d, d))
        for i in range(d):
            wi = gens[i] @ psi0
            for j in range(d):
                gen_imag[i, j] = float(np.imag(wi.conj() @ (gens[j] @ psi0)))
        pure_ok = bool(np.abs(gen_imag).max() <= tol)

    return SaturationChecks(
        g_q_max=g_max,
        partial_commutator_max=pc_max,
        generator_imag_matrix=gen_imag,
        weak_commutativity_holds=bool(g_max <= tol),
        partial_commutativity_holds=bool(pc_max <= tol),
        pure_condition_holds=pure_ok,
        tolerance=tol,
    )


def best_combination(fisher: FisherMatrix) -> tuple[np.ndarray, float]:
    """Top eigenvector of the information matrix and its eigenvalue.

    The sign is fixed so the first nonzero component is positive; degenerate
    top eigenspaces resolve deterministically to the lowest-index basis
    direction they contain.
    """
    lam, u = np.linalg.eigh(fisher.matrix)
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

    result = qfim(model, theta)
    f_cl = classical_fim(model, povm, theta)
    crb = scalar_bound(f_cl, weight, m)
    qcrb = scalar_bound(result.qfim, weight, m)
    solution = holevo_bound(model, theta, weight)
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
