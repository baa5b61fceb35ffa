"""Core quantum-state types and the linear-algebra plumbing shared by all modules.

Dense operators are thin validated wrappers around complex numpy arrays and are
capped at a few hundred dimensions.  A multimode photonic pure state is two
arrays: integer occupation rows (support x modes) in lexicographic order, and
their nonzero complex amplitudes; it is densified only on those rows.  A Fock
basis is its mode and particle counts.  All types are immutable after construction.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

# ---------------------------------------------------------------------------
# Tolerance table.  Single source of truth; the CLI echoes it into reports.

HERMITICITY_TOL = 1e-12   # |A - A^dag| relative to the max-abs entry
TRACE_TOL = 1e-10         # |Tr rho - 1|
PSD_TOL = 1e-10           # density-matrix eigenvalues may dip this far below 0
POVM_TOL = 1e-9           # POVM element positivity and completeness, per entry
STATE_NORM_TOL = 1e-12    # sparse-state normalisation
RANK_REL_TOL = 1e-10      # support cut, relative to the largest eigenvalue
COMPLEX_EQ_ATOL = 1e-10   # componentwise complex equality used in tests

DENSE_DIMENSION_CAP = 512  # refuse to build dense objects beyond this
PROBE_SUPPORT_CAP = 1_000_000  # refuse probe states with more amplitudes than this

TOLERANCES = {
    "hermiticity": HERMITICITY_TOL,
    "trace": TRACE_TOL,
    "psd": PSD_TOL,
    "povm": POVM_TOL,
    "state_norm": STATE_NORM_TOL,
    "rank_relative": RANK_REL_TOL,
    "complex_equality": COMPLEX_EQ_ATOL,
    "dense_dimension_cap": DENSE_DIMENSION_CAP,
    "probe_support_cap": PROBE_SUPPORT_CAP,
}


class ValidationError(ValueError):
    """An input violates a structural invariant (shape, hermiticity, norm, ...)."""


class NumericalError(RuntimeError):
    """A numerical routine failed to converge or lost its required accuracy."""


class InestimableError(NumericalError):
    """A requested parameter combination lies outside the information support."""


def _as_complex_matrix(entries) -> np.ndarray:
    arr = np.array(entries, dtype=complex)
    if arr.ndim != 2 or arr.shape[0] != arr.shape[1]:
        raise ValidationError(f"expected a square matrix, got shape {arr.shape}")
    if not np.isfinite(arr).all():  # NaN would slip through every tolerance comparison
        raise ValidationError("matrix has a NaN or infinite entry")
    return arr


def _frozen(arr: np.ndarray) -> np.ndarray:
    arr.setflags(write=False)
    return arr


# ---------------------------------------------------------------------------
# Dense operator types


@dataclass(frozen=True)
class HermitianOperator:
    """Dense Hermitian matrix (generators, logarithmic derivatives, POVM elements)."""

    entries: np.ndarray

    def __post_init__(self):
        arr = _as_complex_matrix(self.entries)
        scale = float(np.abs(arr).max()) if arr.size else 0.0
        if scale > 0.0 and np.abs(arr - arr.conj().T).max() > HERMITICITY_TOL * scale:
            raise ValidationError("matrix is not Hermitian within tolerance")
        object.__setattr__(self, "entries", _frozen(arr))

    @property
    def dim(self) -> int:
        return self.entries.shape[0]


def check_density_matrices(arr: np.ndarray) -> None:
    """Validate a density matrix, or a stack of them with shape (..., n, n).

    Each matrix is checked on its own: nonzero, Hermitian relative to its own
    largest entry, unit trace and positive semidefinite.  The first violated
    check raises, naming the first offending matrix's value where it has one.
    """
    _check_hermitian_unit_trace(arr)
    _check_psd(np.linalg.eigvalsh(arr))


def _check_hermitian_unit_trace(arr: np.ndarray) -> None:
    scale = np.abs(arr).max(axis=(-2, -1))
    if (scale == 0.0).any():
        raise ValidationError("density matrix is identically zero")
    skew = np.abs(arr - np.swapaxes(arr, -1, -2).conj()).max(axis=(-2, -1))
    if (skew > HERMITICITY_TOL * scale).any():
        raise ValidationError("density matrix is not Hermitian within tolerance")
    tr = np.trace(arr, axis1=-2, axis2=-1)
    off = np.abs(tr - 1.0) > TRACE_TOL
    if off.any():
        raise ValidationError(f"density matrix trace {tr[off].flat[0]} deviates from 1")


def _check_psd(evals: np.ndarray) -> None:
    if (evals.min(axis=-1) < -PSD_TOL).any():
        raise ValidationError("density matrix has a negative eigenvalue")


@dataclass(frozen=True)
class DensityMatrix:
    """Trace-one PSD Hermitian matrix with the eigenvalues and eigenvectors of its one eigh.

    ``support`` masks eigenvalues above RANK_REL_TOL * lambda_max: rho's support is decided here.
    """

    entries: np.ndarray
    eigenvalues: np.ndarray = field(init=False, repr=False)
    eigenvectors: np.ndarray = field(init=False, repr=False)
    support: np.ndarray = field(init=False, repr=False)

    def __post_init__(self):
        arr = _as_complex_matrix(self.entries)
        _check_hermitian_unit_trace(arr)
        evals, evecs = np.linalg.eigh(arr)
        _check_psd(evals)
        for name, value in (("entries", arr), ("eigenvalues", evals), ("eigenvectors", evecs),
                            ("support", evals > RANK_REL_TOL * float(evals.max()))):
            object.__setattr__(self, name, _frozen(value))

    @property
    def dim(self) -> int:
        return self.entries.shape[0]

    def purity(self) -> float:
        return float(np.real(np.trace(self.entries @ self.entries)))


@dataclass(frozen=True)
class POVM:
    """Positive operator-valued measure: PSD elements summing to the identity."""

    elements: tuple[HermitianOperator, ...]

    def __post_init__(self):
        elems = tuple(self.elements)
        if not elems:
            raise ValidationError("POVM needs at least one element")
        dim = elems[0].dim
        total = np.zeros((dim, dim), dtype=complex)
        for e in elems:
            if e.dim != dim:
                raise ValidationError("POVM elements have mismatched dimensions")
            if np.linalg.eigvalsh(e.entries).min() < -POVM_TOL:
                raise ValidationError("POVM element is not positive semidefinite")
            total = total + e.entries
        if np.abs(total - np.eye(dim)).max() > POVM_TOL:
            raise ValidationError("POVM elements do not sum to the identity")
        object.__setattr__(self, "elements", elems)

    @property
    def dim(self) -> int:
        return self.elements[0].dim

    def __len__(self) -> int:
        return len(self.elements)


@dataclass(frozen=True)
class WeightMatrix:
    """Real symmetric PSD weight matrix for combining parameter variances."""

    entries: np.ndarray
    positive_definite: bool = field(init=False)

    def __post_init__(self):
        arr = np.array(self.entries, dtype=float)
        if arr.ndim != 2 or arr.shape[0] != arr.shape[1]:
            raise ValidationError(f"weight matrix must be square, got {arr.shape}")
        if not np.isfinite(arr).all():
            raise ValidationError("weight matrix has a NaN or infinite entry")
        scale = max(float(np.abs(arr).max()), 1.0)
        if np.abs(arr - arr.T).max() > 1e-10 * scale:
            raise ValidationError("weight matrix is not symmetric")
        evals = np.linalg.eigvalsh(arr)
        if evals.min() < -PSD_TOL * scale:
            raise ValidationError("weight matrix is not positive semidefinite")
        object.__setattr__(self, "entries", _frozen(arr))
        object.__setattr__(
            self, "positive_definite", bool(evals.min() > RANK_REL_TOL * max(evals.max(), 0.0))
        )

    @property
    def dim(self) -> int:
        return self.entries.shape[0]

    @classmethod
    def identity(cls, d: int) -> "WeightMatrix":
        return cls(np.eye(d))

    @classmethod
    def rank_one(cls, nu) -> "WeightMatrix":
        v = np.asarray(nu, dtype=float)
        return cls(np.outer(v, v))

    @classmethod
    def from_directions(cls, weighted_directions) -> "WeightMatrix":
        """Build sum_j w_j nu_j nu_j^T from (w_j, nu_j) pairs."""
        mats = [w * np.outer(np.asarray(nu, float), np.asarray(nu, float))
                for w, nu in weighted_directions]
        return cls(sum(mats))


# ---------------------------------------------------------------------------
# Fock space


def fock_sector(modes: int, total: int) -> np.ndarray:
    """Every occupation row of `modes` modes holding `total` particles, lexicographically."""
    # one column at a time: a row's next entry runs over 0..(particles it has left)
    rows, left = np.zeros((1, 0), dtype=np.int32), np.array([total])
    for _ in range(modes - 1):
        counts = left + 1
        k = np.arange(counts.sum()) - np.repeat(np.cumsum(counts) - counts, counts)
        rows = np.column_stack((np.repeat(rows, counts, axis=0), k.astype(np.int32)))
        left = np.repeat(left, counts) - k
    return np.column_stack((rows, left.astype(np.int32)))


@dataclass(frozen=True)
class FockBasis:
    """Occupations of a fixed particle number: mode and particle counts, never listed."""

    modes: int
    total_particles: int

    def __post_init__(self):
        if self.modes < 1:
            raise ValidationError("need at least one mode")
        if self.total_particles < 0:
            raise ValidationError("particle number cannot be negative")

    @property
    def size(self) -> int:
        return math.comb(self.total_particles + self.modes - 1, self.modes - 1)


@dataclass(frozen=True)
class SparseMultimodeState:
    """Normalised pure state: strictly increasing occupation rows and their amplitudes.

    Rows of zero amplitude are dropped; ``weights`` is |amplitude|^2.  Arrays are made read-only.
    """

    basis: FockBasis
    occupations: np.ndarray
    amplitudes: np.ndarray
    weights: np.ndarray = field(init=False, repr=False)

    def __post_init__(self):
        occ = np.asarray(self.occupations)
        amps = np.asarray(self.amplitudes, dtype=complex)
        if occ.ndim != 2 or occ.shape[1] != self.basis.modes or occ.dtype.kind != "i":
            raise ValidationError(f"{occ.dtype} occupation array of shape {occ.shape} does not "
                                  f"belong to the basis of {self.basis.modes} modes")
        if amps.shape != occ.shape[:1]:
            raise ValidationError(f"{amps.shape} amplitudes for {len(occ)} occupation rows")
        foreign = (occ < 0).any(axis=1) | (occ.sum(axis=1) != self.basis.total_particles)
        if foreign.any():
            row = tuple(occ[foreign.argmax()].tolist())
            raise ValidationError(f"occupation {row} does not belong to the basis")
        step = np.diff(occ, axis=0)
        if (step[np.arange(len(step)), (step != 0).argmax(axis=1)] <= 0).any():
            raise ValidationError("occupation rows are not in increasing lexicographic order")
        if not amps.all():
            occ, amps = occ[amps != 0], amps[amps != 0]
        # pow(|a|, 2.0) per entry, as Python's abs(a) ** 2; a scalar exponent 2 squares instead
        weights = np.float_power(np.abs(amps), np.full(len(amps), 2.0))
        norm2 = float(weights.sum())
        if not abs(norm2 - 1.0) <= STATE_NORM_TOL:  # a NaN or infinite amplitude fails too
            raise ValidationError(f"state norm^2 = {norm2} deviates from 1")
        for name, value in (("occupations", occ), ("amplitudes", amps), ("weights", weights)):
            object.__setattr__(self, name, _frozen(value))


# ---------------------------------------------------------------------------
# Operations


def tensor_product(a, b, *, max_dim: int = DENSE_DIMENSION_CAP):
    """Kronecker product of two operators or state vectors.

    Accepts HermitianOperator / DensityMatrix wrappers or raw ndarrays
    (1-D vectors or 2-D matrices).  Rejects results whose dimension exceeds
    ``max_dim``.
    """
    def _payload(x):
        if isinstance(x, (HermitianOperator, DensityMatrix)):
            return x.entries
        return np.asarray(x)

    pa, pb = _payload(a), _payload(b)
    if pa.ndim != pb.ndim or pa.ndim not in (1, 2):
        raise ValidationError("tensor_product needs two vectors or two matrices")
    out_dim = pa.shape[0] * pb.shape[0]
    if out_dim > max_dim:
        raise ValidationError(
            f"tensor product dimension {out_dim} exceeds the dense dimension cap ({max_dim})"
        )
    out = np.kron(pa, pb)
    if isinstance(a, DensityMatrix) and isinstance(b, DensityMatrix):
        return DensityMatrix(out)
    if isinstance(a, (HermitianOperator, DensityMatrix)) and isinstance(
        b, (HermitianOperator, DensityMatrix)
    ):
        return HermitianOperator(out)
    return out


def spectral_decomposition(h) -> tuple[np.ndarray, np.ndarray]:
    """Eigenvalues (ascending) and unitary eigenvector matrix of a Hermitian matrix.

    A stack (..., n, n) of Hermitian matrices is decomposed matrix by matrix.
    """
    arr = h.entries if isinstance(h, (HermitianOperator, DensityMatrix)) else np.asarray(h)
    try:
        evals, evecs = np.linalg.eigh(arr)
    except np.linalg.LinAlgError as exc:
        raise NumericalError(
            "eigendecomposition did not converge (LAPACK iteration budget exhausted)"
        ) from exc
    return evals, evecs


def density_from_pure(
    state: SparseMultimodeState, *, max_dim: int = DENSE_DIMENSION_CAP
) -> DensityMatrix:
    """Rank-one density matrix of a sparse pure state on the rows it holds, in their order."""
    if len(state.amplitudes) > max_dim:
        raise ValidationError(
            f"sector dimension {len(state.amplitudes)} exceeds the dense dimension cap ({max_dim})"
        )
    return DensityMatrix(np.outer(state.amplitudes, state.amplitudes.conj()))


def projective_measurement(vectors) -> POVM:
    """POVM of rank-one projectors onto a list of orthonormal vectors."""
    elems = []
    for v in vectors:
        v = np.asarray(v, dtype=complex)
        elems.append(HermitianOperator(np.outer(v, v.conj())))
    return POVM(tuple(elems))


def identity(dim: int) -> HermitianOperator:
    return HermitianOperator(np.eye(dim))


PAULI_X = HermitianOperator(np.array([[0, 1], [1, 0]], dtype=complex))
PAULI_Y = HermitianOperator(np.array([[0, -1j], [1j, 0]], dtype=complex))
PAULI_Z = HermitianOperator(np.array([[1, 0], [0, -1]], dtype=complex))
