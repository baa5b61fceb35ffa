"""Core quantum-state types and the linear-algebra plumbing shared by all modules.

Dense operators are thin validated wrappers around complex numpy arrays and are
capped at a few hundred dimensions.  Multimode photonic states are stored
sparsely as occupation-tuple -> amplitude maps and densified only on the sector
they actually span; a Fock basis checks membership arithmetically and never
lists its tuples.  All types are immutable after construction.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass, field
from types import MappingProxyType
from typing import Callable, Iterator, Mapping

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


def fock_sector(modes: int, total: int) -> Iterator[tuple[int, ...]]:
    """Every occupation tuple of `modes` modes holding `total` particles, lexicographically."""
    # stars and bars: bar positions in lexicographic order give tuples in that order
    slots = total + modes - 1
    for bars in itertools.combinations(range(slots), modes - 1):
        edges = (-1, *bars, slots)
        yield tuple(b - a - 1 for a, b in zip(edges, edges[1:]))


@dataclass(frozen=True)
class FockBasis:
    """Occupation tuples of a fixed particle number, checked arithmetically, never listed."""

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

    def __contains__(self, occupation) -> bool:
        occ = tuple(occupation)
        valid = len(occ) == self.modes and all(k >= 0 and k == int(k) for k in occ)
        return valid and sum(occ) == self.total_particles


@dataclass(frozen=True)
class SparseMultimodeState:
    """Normalised pure state stored as occupation-tuple -> complex amplitude."""

    basis: FockBasis
    amplitudes: Mapping[tuple[int, ...], complex]

    def __post_init__(self):
        amps = {}
        for key, value in self.amplitudes.items():
            key = tuple(int(k) for k in key)
            if key not in self.basis:
                raise ValidationError(f"occupation {key} does not belong to the basis")
            amps[key] = complex(value)
        norm2 = sum(abs(a) ** 2 for a in amps.values())
        if abs(norm2 - 1.0) > STATE_NORM_TOL:
            raise ValidationError(f"state norm^2 = {norm2} deviates from 1")
        object.__setattr__(self, "amplitudes", MappingProxyType(amps))

    def norm_squared(self) -> float:
        return sum(abs(a) ** 2 for a in self.amplitudes.values())


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


def spanned_sector(state: SparseMultimodeState) -> tuple[tuple[int, ...], ...]:
    """Occupations with nonzero amplitude, in basis (lexicographic) order."""
    return tuple(sorted(n for n, a in state.amplitudes.items() if abs(a) > 0.0))


def density_from_pure(
    state: SparseMultimodeState, sector=None, *, max_dim: int = DENSE_DIMENSION_CAP
) -> DensityMatrix:
    """Rank-one density matrix of a sparse pure state on its spanned sector."""
    if not any(abs(a) > 0.0 for a in state.amplitudes.values()):
        raise ValidationError("empty amplitude map")
    sector = spanned_sector(state) if sector is None else tuple(tuple(n) for n in sector)
    if len(sector) > max_dim:
        raise ValidationError(
            f"sector dimension {len(sector)} exceeds the dense dimension cap ({max_dim})"
        )
    pos = {n: i for i, n in enumerate(sector)}
    vec = np.zeros(len(sector), dtype=complex)
    for occ, amp in state.amplitudes.items():
        if abs(amp) == 0.0:
            continue
        if occ not in pos:
            raise ValidationError(f"state has amplitude on {occ}, outside the requested sector")
        vec[pos[occ]] = amp
    return DensityMatrix(np.outer(vec, vec.conj()))


def diagonal_operator(
    fn: Callable[[tuple[int, ...]], float], sector
) -> HermitianOperator:
    """Dense matrix of an occupation-diagonal observable on a sector."""
    values = [float(fn(tuple(n))) for n in sector]
    return HermitianOperator(np.diag(np.asarray(values, dtype=complex)))


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
