"""Holevo bound by convex minimisation over locally-unbiased operator tuples.

The bound is the minimum of Tr[W V] over real symmetric V and Hermitian
tuples X = (X_1, ..., X_d) obeying Tr[rho X_i] = theta_i and
Tr[(d_j rho) X_i] = delta_ij, subject to V >= Z[X] with
Z[X]_ij = Tr[rho (X_i - theta_i)(X_j - theta_j)].

Writing M for the matrix with columns vec((X_i - theta_i) sqrt(rho)), with
sqrt(rho) taken from the spectrum and support that `DensityMatrix` stored, so
that M^dag M = Z[X], the constraint is the Gram lifting [[V, M^dag], [M, I]] >= 0.
Its lower-right block is I, so the lifting is PSD exactly when its Schur
complement A = V - M^dag M is, and log det of the lifting equals log det A.
A compact log-det barrier interior-point method (Newton steps, backtracking
line search) therefore works on the q x q matrix A alone: with P = A^-1 and
the homogeneous directions G, every gradient and Hessian block is a product
of P, N = M^dag G and G^dag G (see ``SchurBarrier``).  The unbiasedness
constraints are eliminated affinely, so only homogeneous coefficients C and V
are optimised.

Rank-deficient weight matrices need care: the infimum over the full-space V
is then generally not attained (kernel-direction entries of V must diverge to
certify feasibility), so the solve runs on V' = V compressed to the weight
support, where the minimum exists, and the reported bound is that compressed
objective Tr[W V'] = s_w sum_p d_p V'_pp.  A finite full-space V_opt is kept
only as a certificate: its kernel block is tau I with tau the largest
eigenvalue of the Schur complement Z_22 + B^dag (V' - Z_11)^-1 B, plus a small
relative margin.

The solution also carries h(X_0) = Tr[W Re Z[X_0]] + TrAbs[sqrt(W) Im Z[X_0]
sqrt(W)] at the particular solution X_0 (which equals Tr[W F^-1] +
TrAbs[sqrt(W) F^-1 G F^-1 sqrt(W)]): an upper bracket of the bound, exact for
D-invariant models and so for every qubit.  It also carries the QFIM record
(state, derivatives, SLDs, QFIM, R) it was built from, so callers read the
QCRB and R from it instead of evaluating the point again.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .core import (
    HermitianOperator,
    NumericalError,
    ValidationError,
    WeightMatrix,
)
from .bounds import QfimResult, pseudo_inverse, qfim, scalar_bound
from .model import ParametricModel

HOLEVO_DIM_CAP = 16
GAP_TARGET = 1e-7      # relative duality-gap target of the barrier method
NEWTON_CAP = 500
BARRIER_FACTOR = 20.0
CERTIFICATE_MARGIN = 1e-9  # relative headroom of the kernel block tau


def hermitian_basis(n: int) -> np.ndarray:
    """Orthonormal (Frobenius) basis of the real vector space of n x n Hermitians.

    Stacked as an (n^2, n, n) array: the n diagonal units, then for each a < b
    (row-major) the symmetric and the antisymmetric off-diagonal element.
    """
    a, b = np.triu_indices(n, 1)
    sym = n + 2 * np.arange(len(a))
    inv_sqrt2 = 1.0 / np.sqrt(2.0)
    basis = np.zeros((n * n, n, n), dtype=complex)
    basis[np.arange(n), np.arange(n), np.arange(n)] = 1.0
    basis[sym, a, b] = basis[sym, b, a] = inv_sqrt2
    basis[sym + 1, a, b] = -1j * inv_sqrt2
    basis[sym + 1, b, a] = 1j * inv_sqrt2
    return basis


@dataclass(frozen=True)
class UnbiasedFamily:
    """Affine parameterisation of all locally-unbiased operator tuples.

    ``particular`` is one solution of the unbiasedness constraints; adding any
    real combination of the shared ``homogeneous`` operators to a component
    preserves them.  ``information`` is the QFIM record of the point.
    """

    particular: tuple[HermitianOperator, ...]
    homogeneous: tuple[HermitianOperator, ...]
    information: QfimResult


def _hermitian_stack(arr: np.ndarray) -> tuple[HermitianOperator, ...]:
    arr = 0.5 * (arr + np.swapaxes(arr, -1, -2).conj())
    return tuple(HermitianOperator(x) for x in arr)


def unbiased_family(model: ParametricModel, theta) -> UnbiasedFamily:
    """Particular solution theta + F^+ L and the constraint null-space basis."""
    theta = np.atleast_1d(np.asarray(theta, dtype=float))
    result = qfim(model, theta)
    rho, derivs = result.state, result.derivatives
    fplus = pseudo_inverse(result.qfim).matrix
    n, d = model.dim, model.parameter_count

    slds = np.stack([s.entries for s in result.slds])
    particular = _hermitian_stack(
        np.einsum("ij,jab->iab", fplus, slds) + theta[:, None, None] * np.eye(n)
    )
    x_stack = np.stack([x.entries for x in particular])
    # rows: Tr[rho .] then Tr[d_j rho .]
    ops = np.stack([rho.entries] + [dr.entries for dr in derivs])
    traces = np.einsum("rab,iba->ri", ops, x_stack).real
    if np.abs(traces[0] - theta).max() > 1e-9:
        raise NumericalError("particular solution violates the state constraint")
    if np.abs(traces[1:] - np.eye(d)).max() > 1e-8:
        raise NumericalError(
            "parameters are not locally identifiable "
            "(information matrix singular along a requested direction)"
        )

    basis = hermitian_basis(n)
    constraints = np.einsum("rab,kba->rk", ops, basis).real
    _, sing, vh = np.linalg.svd(constraints)
    if int((sing > 1e-10).sum()) < d + 1:
        raise NumericalError("unbiasedness constraints are linearly dependent")
    # null-space rank rule: singular values above eps * max(shape) * s_max
    rank = int((sing > sing.max() * np.finfo(float).eps * max(constraints.shape)).sum())
    homogeneous = vh[rank:] @ basis.reshape(n * n, n * n)
    return UnbiasedFamily(particular, _hermitian_stack(homogeneous.reshape(-1, n, n)), result)


@dataclass(frozen=True)
class HolevoSolution:
    """Optimal value, minimiser, the upper bracket h(X_0) and solver diagnostics.

    ``residuals["v_minus_z_min_eig"]`` is the smallest eigenvalue of
    V_opt - Z[X_opt] relative to the spectral norm of V_opt.  ``information``
    is the QFIM record of the point the bound was solved at.
    """

    value: float
    x_opt: tuple[HermitianOperator, ...]
    v_opt: np.ndarray
    iterations: int
    gap: float
    residuals: dict[str, float]
    h_x0: float
    information: QfimResult


def _hermitian_part(a: np.ndarray) -> np.ndarray:
    return 0.5 * (a + a.conj().T)


def _min_eig_block(v_mat: np.ndarray, m_mat: np.ndarray) -> float:
    d = v_mat.shape[1]
    nr = m_mat.shape[0]
    block = np.zeros((d + nr, d + nr), dtype=complex)
    block[:d, :d] = v_mat
    block[:d, d:] = m_mat.conj().T
    block[d:, :d] = m_mat
    block[d:, d:] = np.eye(nr)
    return float(np.linalg.eigvalsh(_hermitian_part(block)).min())


class SchurBarrier:
    """Barrier t Tr[D V] - log det(V - M^dag M), M = M0 + G C^T.

    V is q x q real symmetric, coordinatised by its upper triangle (row-major);
    C is q x k real.  A parameter vector is those V coordinates followed by
    C in row-major order.
    """

    def __init__(self, m0: np.ndarray, g_mat: np.ndarray, d_hat: np.ndarray):
        self.m0, self.g_mat, self.d_hat = m0, g_mat, d_hat
        q, k = len(d_hat), g_mat.shape[1]
        p, r = np.triu_indices(q)
        self.q, self.k, self.n_v = q, k, len(p)
        # E_a: the symmetric unit matrix of V coordinate a
        self.e_stack = np.zeros((self.n_v, q, q))
        self.e_stack[np.arange(self.n_v), p, r] = 1.0
        self.e_stack[np.arange(self.n_v), r, p] = 1.0
        self.obj_coef = np.where(p == r, d_hat[p], 0.0)  # Tr[D V] in V coordinates
        self.gram_g = g_mat.conj().T @ g_mat  # H = G^dag G, fixed for the solve

    def objective(self, v_mat: np.ndarray) -> float:
        return float(np.diag(v_mat) @ self.d_hat)

    def split(self, x: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        """Parameter vector -> (V, C)."""
        return (np.einsum("a,aij->ij", x[: self.n_v], self.e_stack),
                x[self.n_v:].reshape(self.q, self.k))

    def _schur(self, v_mat, c_mat):
        m = self.m0 + self.g_mat @ c_mat.T
        return _hermitian_part(v_mat - m.conj().T @ m), m

    def barrier_value(self, v_mat, c_mat, t: float) -> float | None:
        """Barrier value, or None outside the domain."""
        a_mat, _ = self._schur(v_mat, c_mat)
        try:
            ca = np.linalg.cholesky(a_mat)
        except np.linalg.LinAlgError:
            return None
        return t * self.objective(v_mat) - 2.0 * np.log(np.abs(np.diag(ca))).sum()

    def newton_system(self, v_mat, c_mat, t: float):
        """Gradient and Hessian of ``barrier_value`` in the parameter vector."""
        q, k, n_v = self.q, self.k, self.n_v
        a_mat, m = self._schur(v_mat, c_mat)
        p_inv = _hermitian_part(np.linalg.inv(a_mat))
        n_mat = m.conj().T @ self.g_mat           # N = M^dag G
        y = p_inv @ n_mat                         # Y = P N
        kh = n_mat.conj().T @ y + self.gram_g     # K + H
        pe = p_inv @ self.e_stack                 # P E_a

        grad = np.concatenate([
            t * self.obj_coef - np.einsum("aii->a", pe).real,
            2.0 * y.real.ravel(),
        ])

        hess = np.empty((n_v + q * k, n_v + q * k))
        hess[:n_v, :n_v] = np.einsum("aij,bji->ab", pe, pe).real
        h_vc = -2.0 * (pe @ y).real.reshape(n_v, q * k)
        hess[:n_v, n_v:] = h_vc
        hess[n_v:, :n_v] = h_vc.T
        hess[n_v:, n_v:] = 2.0 * (
            np.einsum("jk,il->ikjl", y, y) + np.einsum("ji,kl->ikjl", p_inv, kh)
        ).real.reshape(q * k, q * k)
        return grad, 0.5 * (hess + hess.T)


def holevo_bound(
    model: ParametricModel,
    theta,
    weight,
    *,
    gap_tol: float = GAP_TARGET,
    newton_cap: int = NEWTON_CAP,
) -> HolevoSolution:
    """Compute the Holevo bound for one model, parameter point and weight matrix.

    The weight matrix is normalised by its trace before solving (the bound is
    exactly homogeneous in W) and the reported value is the compressed
    objective Tr[W V'] for the original W.
    """
    theta = np.atleast_1d(np.asarray(theta, dtype=float))
    w = weight if isinstance(weight, WeightMatrix) else WeightMatrix(weight)
    d = model.parameter_count
    if w.dim != d:
        raise ValidationError("weight matrix dimension does not match the model")
    if model.dim > HOLEVO_DIM_CAP:
        raise ValidationError(f"Holevo solver is capped at Hilbert dimension {HOLEVO_DIM_CAP}")
    s_w = float(np.trace(w.entries))
    if s_w <= 0.0:
        raise ValidationError("weight matrix must be nonzero")

    family = unbiased_family(model, theta)
    rho = family.information.state
    n = rho.dim
    keep = rho.support
    us = rho.eigenvectors[:, keep] * np.sqrt(np.clip(rho.eigenvalues[keep], 0.0, None))
    nr = n * int(keep.sum())

    # columns vec((X_i - theta_i) sqrt(rho)) of the particular solution, and
    # rows vec(B sqrt(rho)) of the homogeneous directions
    x0 = np.stack([x.entries for x in family.particular])
    m0 = ((x0 - theta[:, None, None] * np.eye(n)) @ us).reshape(d, nr).T
    hom = np.array([b.entries for b in family.homogeneous], dtype=complex).reshape(-1, n, n)
    raw = (hom @ us).reshape(len(hom), nr)

    # Keep only homogeneous directions that actually move X sqrt(rho); directions
    # supported on the kernel of rho never change Z[X].
    real_rows = np.concatenate([raw.real, raw.imag], axis=1)
    sig, u_red = np.linalg.eigh(real_rows @ real_rows.T)
    sig, u_red = sig[::-1], u_red[:, ::-1]
    combos = u_red[:, sig > sig.max(initial=0.0) * 1e-16]
    g_raw = raw.T @ combos
    norms = np.linalg.norm(g_raw, axis=0)
    moving = norms > 1e-12
    combos = combos[:, moving] / norms[moving]
    g_mat = g_raw[:, moving] / norms[moving]
    hom_mats = np.einsum("jk,jab->kab", combos, hom)
    k_eff = g_mat.shape[1]

    # Work with V rotated into the weight eigenbasis and compressed onto the
    # weight support: min Tr[D V'] with V' >= Q^T Z[X] Q.
    w_evals, w_vecs = np.linalg.eigh(w.entries)
    order = np.argsort(w_evals)[::-1]
    w_evals, w_vecs = w_evals[order], w_vecs[:, order]
    rank_w = int((w_evals > 1e-12 * w_evals[0]).sum())
    q_map = w_vecs[:, :rank_w]
    barrier = SchurBarrier(m0 @ q_map, g_mat, w_evals[:rank_w] / s_w)
    objective = barrier.objective

    z0q = barrier.m0.conj().T @ barrier.m0
    re_z0 = 0.5 * (z0q.real + z0q.real.T)
    im_norm = float(np.linalg.norm(z0q.imag, 2))
    scale_z = float(np.linalg.norm(z0q, 2)) + 1.0
    v_init = re_z0 + (im_norm + 1e-2 * scale_z) * np.eye(rank_w)

    p_tot = barrier.n_v + rank_w * k_eff
    # nu = 2q + nr, from the lifting plus a former V <= R*I wall, is kept: the
    # stopping rule nu / t <= GAP_TARGET is tuned to it, and the barrier's own
    # nu = q moved HB by ~4e-8 without saving Newton steps.
    nu_total = float(rank_w + nr + rank_w)

    v_prime = v_init.copy()
    c_opt = np.zeros((rank_w, k_eff))
    iterations = 0
    t = max(1.0, nu_total / (abs(objective(v_prime)) + 1.0))
    for _stage in range(200):
        f_now = barrier.barrier_value(v_prime, c_opt, t)
        for _inner in range(100):
            grad, hess = barrier.newton_system(v_prime, c_opt, t)
            try:
                delta = np.linalg.solve(hess, -grad)
            except np.linalg.LinAlgError:
                hess = hess + (1e-12 * np.trace(hess) / p_tot + 1e-300) * np.eye(p_tot)
                delta = np.linalg.solve(hess, -grad)
            lam2 = float(-grad @ delta)
            if not np.isfinite(lam2) or lam2 <= 2e-11:
                break
            dv, dc = barrier.split(delta)
            alpha = 1.0
            accepted = False
            while alpha > 1e-14:
                f_new = barrier.barrier_value(v_prime + alpha * dv, c_opt + alpha * dc, t)
                if f_new is not None and f_new <= f_now - 0.25 * alpha * lam2:
                    accepted = f_new < f_now  # no decrease in floating point: stage done
                    break
                alpha *= 0.5
            if not accepted:
                break
            v_prime = v_prime + alpha * dv
            c_opt = c_opt + alpha * dc
            f_now = f_new
            iterations += 1
            if iterations > newton_cap:
                raise NumericalError(
                    "Holevo solver exceeded its Newton iteration budget "
                    f"(duality-gap estimate {nu_total / t:.3e})"
                )
        gap = nu_total / t
        if gap <= gap_tol * max(1.0, abs(objective(v_prime))):
            break
        t *= BARRIER_FACTOR
    else:
        raise NumericalError("Holevo barrier path did not reach its gap target")

    # reconstruct X (kernel-of-W components stay at the particular solution)
    c_full = q_map @ c_opt
    x_opt = _hermitian_stack(x0 + np.einsum("ik,kab->iab", c_full, hom_mats))
    m_final = m0 + g_mat @ c_full.T
    z_final = m_final.conj().T @ m_final

    v_opt = q_map @ v_prime @ q_map.T
    if rank_w < d:
        # complete the compressed minimiser to a finite full-space certificate
        # [[V', Re Z_12], [Re Z_12^T, tau I]]; V_opt - Z >= 0 iff tau I dominates
        # the Schur complement Z_22 + B^dag (V' - Z_11)^-1 B with B = i Im Z_12
        q_perp = w_vecs[:, rank_w:]
        z11 = q_map.T @ z_final @ q_map
        z12 = q_map.T @ z_final @ q_perp
        z22 = q_perp.T @ z_final @ q_perp
        b = 1j * z12.imag
        top = z22 + b.conj().T @ np.linalg.solve(_hermitian_part(v_prime - z11), b)
        lam_top = float(np.linalg.eigvalsh(_hermitian_part(top)).max())
        tau = lam_top + CERTIFICATE_MARGIN * max(abs(lam_top), float(np.linalg.norm(v_prime, 2)))
        off = q_map @ z12.real @ q_perp.T
        v_opt = v_opt + off + off.T + tau * (q_perp @ q_perp.T)

    v_opt = 0.5 * (v_opt + v_opt.T)
    vz_min = float(np.linalg.eigvalsh(_hermitian_part(v_opt - z_final)).min())
    vz_min /= max(float(np.linalg.norm(v_opt, 2)), np.finfo(float).tiny)

    derivs = np.stack([dr.entries for dr in family.information.derivatives])
    x_stack = np.stack([x.entries for x in x_opt])
    unbias_state = np.abs(np.einsum("ab,iba->i", rho.entries, x_stack).real - theta).max()
    unbias_deriv = np.abs(np.einsum("jab,iba->ij", derivs, x_stack).real - np.eye(d)).max()

    # h(X_0): the inner minimum over V at the particular solution
    z0 = m0.conj().T @ m0
    sqrt_w = (w_vecs * np.sqrt(np.clip(w_evals, 0.0, None))) @ w_vecs.T
    h_x0 = float(np.sum(w.entries * z0.real)
                 + np.linalg.svd(sqrt_w @ z0.imag @ sqrt_w, compute_uv=False).sum())

    v_opt.setflags(write=False)
    return HolevoSolution(
        value=s_w * objective(v_prime),
        x_opt=x_opt,
        v_opt=v_opt,
        iterations=iterations,
        gap=gap * s_w,
        residuals={
            "lifting_min_eig": _min_eig_block(v_opt, m_final),
            "v_minus_z_min_eig": vz_min,
            "unbiasedness_state": float(unbias_state),
            "unbiasedness_derivative": float(unbias_deriv),
        },
        h_x0=h_x0,
        information=family.information,
    )


@dataclass(frozen=True)
class SandwichReport:
    """QCRB <= HB <= (1 + R) QCRB <= 2 QCRB with numerical tolerances."""

    qcrb: float
    hb: float
    ratio: float
    r_measure: float
    tolerance: float


def hb_sandwich(model: ParametricModel, theta, weight) -> SandwichReport:
    """Check the incompatibility sandwich between the Holevo bound and the QCRB."""
    w = weight if isinstance(weight, WeightMatrix) else WeightMatrix(weight)
    solution = holevo_bound(model, theta, w)
    result = solution.information
    qcrb = scalar_bound(result.qfim, w, m=1, strict=True).value
    hb = solution.value
    tol = 1e-5 * qcrb
    upper = (1.0 + result.r_measure) * qcrb
    if hb < qcrb - tol or hb > upper + tol or upper > 2.0 * qcrb + tol:
        raise NumericalError(
            f"incompatibility sandwich violated: QCRB={qcrb}, HB={hb}, R={result.r_measure}"
        )
    return SandwichReport(qcrb, hb, hb / qcrb if qcrb > 0 else float("inf"),
                          result.r_measure, tol)
