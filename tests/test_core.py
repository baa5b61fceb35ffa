import itertools
import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from qsense.core import (
    COMPLEX_EQ_ATOL,
    DensityMatrix,
    FockBasis,
    HermitianOperator,
    PAULI_X,
    PAULI_Y,
    PAULI_Z,
    POVM,
    RANK_REL_TOL,
    SparseMultimodeState,
    ValidationError,
    WeightMatrix,
    check_density_matrices,
    density_from_pure,
    fock_sector,
    identity,
    projective_measurement,
    spectral_decomposition,
    tensor_product,
)
from probe_oracle import tuple_sector


def noon_state(n):
    basis = FockBasis(2, n)
    amp = 1.0 / math.sqrt(2.0)
    return SparseMultimodeState(basis, [(0, n), (n, 0)], [amp, amp])


class TestTypes:
    def test_hermitian_rejects_nonhermitian(self):
        with pytest.raises(ValidationError):
            HermitianOperator(np.array([[0, 1], [2, 0]], dtype=complex))

    def test_density_requires_unit_trace(self):
        with pytest.raises(ValidationError):
            DensityMatrix(np.eye(2))

    def test_density_rejects_negative_eigenvalue(self):
        with pytest.raises(ValidationError):
            DensityMatrix(np.diag([1.5, -0.5]).astype(complex))

    @pytest.mark.parametrize("bad, message", [
        (np.zeros((2, 2)), "identically zero"),
        (np.array([[0.5, 0.1], [0.0, 0.5]]), "Hermitian"),
        (np.eye(2), "trace"),
        (np.diag([1.5, -0.5]), "negative eigenvalue"),
    ])
    def test_density_stack_checks_each_matrix(self, bad, message):
        plus = np.full((2, 2), 0.5, dtype=complex)
        stack = np.stack([plus, plus, plus]).reshape(3, 2, 2)
        check_density_matrices(stack)
        stack[1] = bad
        with pytest.raises(ValidationError, match=message):
            check_density_matrices(stack)
        with pytest.raises(ValidationError, match=message):
            DensityMatrix(bad)

    @pytest.mark.parametrize("bad", [np.nan, np.inf, complex(0.0, np.nan)])
    @pytest.mark.parametrize("cls", [DensityMatrix, HermitianOperator])
    def test_non_finite_entry_rejected(self, cls, bad):
        arr = np.full((2, 2), 0.5, dtype=complex)
        arr[1, 0] = bad
        with pytest.raises(ValidationError, match="NaN or infinite"):
            cls(arr)

    @pytest.mark.parametrize("bad", [np.nan, np.inf])
    def test_non_finite_weight_rejected(self, bad):
        with pytest.raises(ValidationError, match="NaN or infinite"):
            WeightMatrix([[1.0, bad], [bad, 1.0]])

    def test_density_stack_hermiticity_is_relative_to_each_matrix(self):
        # a skew of 7e-13 is within 1e-12 of the stack's largest entry (1.0)
        # but not of the skewed matrix's own largest entry (0.5)
        pure = np.diag([1.0, 0.0]).astype(complex)
        mixed = np.eye(2, dtype=complex) / 2
        mixed[0, 1] = 7e-13
        check_density_matrices(np.stack([pure, np.eye(2, dtype=complex) / 2]))
        with pytest.raises(ValidationError, match="Hermitian"):
            check_density_matrices(np.stack([pure, mixed]))

    def test_povm_completeness_rejection(self):
        good = projective_measurement([np.array([1, 0]), np.array([0, 1])])
        assert len(good) == 2
        bad = [HermitianOperator(np.diag([1.0, 0.0])), HermitianOperator(np.diag([0.0, 0.9]))]
        with pytest.raises(ValidationError):
            POVM(tuple(bad))

    def test_povm_rejects_negative_element(self):
        elems = (
            HermitianOperator(np.diag([1.1, 0.0])),
            HermitianOperator(np.diag([-0.1, 1.0])),
        )
        with pytest.raises(ValidationError):
            POVM(elems)

    def test_weight_matrix_pd_flag(self):
        assert WeightMatrix.identity(3).positive_definite
        assert not WeightMatrix.rank_one([1.0, 0.0]).positive_definite

    def test_state_normalisation_enforced(self):
        basis = FockBasis(2, 1)
        with pytest.raises(ValidationError):
            SparseMultimodeState(basis, [(1, 0)], [0.5])

    def test_state_keys_must_live_in_basis(self):
        basis = FockBasis(2, 1)
        with pytest.raises(ValidationError):
            SparseMultimodeState(basis, [(2, 0)], [1.0])

    def test_state_rows_must_be_integers_with_one_amplitude_each(self):
        basis = FockBasis(2, 1)
        with pytest.raises(ValidationError, match="does not belong"):
            SparseMultimodeState(basis, [(1.0, 0.0)], [1.0])
        with pytest.raises(ValidationError, match="does not belong"):  # would wrap in the order check
            SparseMultimodeState(basis, np.array([(1, 0), (0, 1)], dtype=np.uint8), [0.6, 0.8])
        with pytest.raises(ValidationError, match="amplitudes for 1 occupation rows"):
            SparseMultimodeState(basis, [(1, 0)], [0.6, 0.8])
        with pytest.raises(ValidationError, match="deviates from 1"):
            SparseMultimodeState(basis, [(0, 1), (1, 0)], [np.nan, 1.0])


class TestDensityMatrixSpectrum:
    """The stored eigenpairs and support against an independent eigvalsh."""

    @settings(max_examples=80, deadline=None, derandomize=True, database=None)
    @given(dim=st.integers(1, 6), rank=st.integers(1, 6), seed=st.integers(0, 2**32 - 1))
    def test_eigenpairs_rebuild_entries_and_support_matches_eigvalsh(self, dim, rank, seed):
        rng = np.random.default_rng(seed)
        a = rng.normal(size=(dim, min(rank, dim))) + 1j * rng.normal(size=(dim, min(rank, dim)))
        h = a @ a.conj().T
        rho = DensityMatrix(h / np.trace(h))
        rebuilt = (rho.eigenvectors * rho.eigenvalues) @ rho.eigenvectors.conj().T
        assert np.abs(rebuilt - rho.entries).max() < 1e-12
        evals = np.linalg.eigvalsh(rho.entries)
        assert np.array_equal(rho.support, evals > RANK_REL_TOL * evals.max())
        assert int(rho.support.sum()) == min(rank, dim)
        for arr in (rho.eigenvalues, rho.eigenvectors, rho.support):
            assert not arr.flags.writeable


class TestTensorProduct:
    def test_identity_case(self):
        out = tensor_product(identity(2), identity(2))
        assert np.allclose(out.entries, np.eye(4))

    def test_diagonal_case(self):
        a = HermitianOperator(np.diag([1.0, 0.0]))
        b = HermitianOperator(np.diag([0.0, 1.0]))
        out = tensor_product(a, b)
        assert np.allclose(out.entries, np.diag([0.0, 1.0, 0.0, 0.0]))

    def test_mixed_product_matches_direct_multiplication(self):
        # oracle: multiply the two lifted operators as dense 4x4 matrices
        zi = tensor_product(PAULI_Z, identity(2)).entries
        iz = tensor_product(identity(2), PAULI_Z).entries
        zz = tensor_product(PAULI_Z, PAULI_Z).entries
        assert np.abs(zi @ iz - zz).max() < COMPLEX_EQ_ATOL

    def test_vector_kron(self):
        v = tensor_product(np.array([1.0, 0.0]), np.array([0.0, 1.0]))
        assert np.allclose(v, [0.0, 1.0, 0.0, 0.0])

    def test_dimension_cap_named_in_error(self):
        big = identity(30)
        with pytest.raises(ValidationError, match="cap \\(512\\)"):
            tensor_product(tensor_product(big, big, max_dim=900), big)


class TestSpectralDecomposition:
    def test_pauli_spectrum(self):
        evals, _ = spectral_decomposition(PAULI_Z)
        assert np.allclose(evals, [-1.0, 1.0])

    def test_identity_spectrum(self):
        evals, evecs = spectral_decomposition(identity(3))
        assert np.allclose(evals, 1.0)
        assert np.abs(evecs.conj().T @ evecs - np.eye(3)).max() < 1e-12

    def test_random_roundtrip(self):
        rng = np.random.default_rng(11)
        a = rng.normal(size=(8, 8)) + 1j * rng.normal(size=(8, 8))
        h = HermitianOperator(0.5 * (a + a.conj().T))
        evals, evecs = spectral_decomposition(h)
        rebuilt = (evecs * evals) @ evecs.conj().T
        assert np.abs(rebuilt - h.entries).max() < 1e-10
        assert np.all(np.diff(evals) >= 0)


class TestDensityFromPure:
    def test_vacuum_projector(self):
        basis = FockBasis(3, 0)
        state = SparseMultimodeState(basis, [(0, 0, 0)], [1.0])
        rho = density_from_pure(state)
        assert rho.dim == 1 and abs(rho.entries[0, 0] - 1.0) < 1e-15

    def test_basis_state_on_explicit_sector(self):
        # given on the whole sector, the state keeps only its nonzero row
        basis = FockBasis(2, 1)
        state = SparseMultimodeState(basis, fock_sector(2, 1), [1.0, 0.0])
        assert state.occupations.tolist() == [[0, 1]]
        rho = density_from_pure(state)
        assert np.allclose(rho.entries, [[1.0]])

    def test_two_term_state_is_rank_one(self):
        rho = density_from_pure(noon_state(2))
        evals = np.linalg.eigvalsh(rho.entries)
        assert abs(evals[-1] - 1.0) < 1e-12
        assert np.abs(evals[:-1]).max() < 1e-12

    def test_purity_for_random_states(self):
        rng = np.random.default_rng(23)
        basis = FockBasis(3, 3)
        for _ in range(5):
            amps = rng.normal(size=basis.size) + 1j * rng.normal(size=basis.size)
            amps /= np.linalg.norm(amps)
            state = SparseMultimodeState(basis, fock_sector(3, 3), amps)
            assert abs(density_from_pure(state).purity() - 1.0) < 1e-12

    def test_sector_and_vector_helpers(self):
        state = noon_state(2)
        assert state.occupations.tolist() == [[0, 2], [2, 0]]
        rho = density_from_pure(state)
        assert np.allclose(np.abs(rho.entries), 0.5)
        with pytest.raises(ValidationError, match="dense dimension cap"):
            density_from_pure(state, max_dim=1)
        assert np.allclose(state.occupations @ [0.5, -0.5], [-1.0, 1.0])


def occupations_near(modes, total):
    """Tuples of length modes +- 1, entries in [-1, total + 1]: in and out of the sector."""
    entries = st.integers(-1, total + 1)
    return st.lists(entries, min_size=max(modes - 1, 0), max_size=modes + 1).map(tuple)


SECTORS = dict(modes=st.integers(1, 5), total=st.integers(0, 6))
FOCK_SETTINGS = settings(max_examples=60, deadline=None, derandomize=True, database=None)


class TestFockBasis:
    @pytest.mark.parametrize("modes", [1, 2, 3, 4, 5, 6])
    @pytest.mark.parametrize("total", [0, 1, 2, 3, 5, 8])
    def test_enumeration_count(self, modes, total):
        count = sum(1 for _ in fock_sector(modes, total))
        assert count == FockBasis(modes, total).size

    def test_lexicographic_and_distinct(self):
        occ = [tuple(row) for row in fock_sector(3, 4).tolist()]
        assert len(set(occ)) == len(occ)
        assert list(occ) == sorted(occ)
        assert all(sum(n) == 4 for n in occ)
        brute = [n for n in itertools.product(range(5), repeat=3) if sum(n) == 4]
        assert list(occ) == brute

    def test_basis_stores_no_tuples(self):
        basis = FockBasis(12, 40)
        assert basis.size == math.comb(51, 11)
        assert not hasattr(basis, "occupations")
        assert SparseMultimodeState(basis, [(40,) + (0,) * 11], [1.0]).occupations.shape == (1, 12)

    @FOCK_SETTINGS
    @given(data=st.data(), **SECTORS)
    def test_membership_matches_enumeration(self, data, modes, total):
        basis = FockBasis(modes, total)
        sector = set(tuple_sector(modes, total))
        occ = data.draw(occupations_near(modes, total))
        try:
            SparseMultimodeState(basis, [occ], [1.0])
        except ValidationError:
            accepted = False
        else:
            accepted = True
        assert accepted == (occ in sector)

    @FOCK_SETTINGS
    @given(**SECTORS)
    def test_sector_matches_the_tuple_enumeration(self, modes, total):
        assert [tuple(row) for row in fock_sector(modes, total).tolist()] == list(
            tuple_sector(modes, total))

    @FOCK_SETTINGS
    @given(**SECTORS)
    def test_size_equals_enumeration_count(self, modes, total):
        assert FockBasis(modes, total).size == sum(1 for _ in fock_sector(modes, total))

    @FOCK_SETTINGS
    @given(data=st.data(), **SECTORS)
    def test_spanned_sector_follows_enumeration_order(self, data, modes, total):
        # the stored rows are the nonzero ones, in enumeration order; any other order is refused
        basis = FockBasis(modes, total)
        ordered = list(tuple_sector(modes, total))
        chosen = set(data.draw(st.lists(st.sampled_from(ordered), min_size=1, unique=True)))
        amps = [1.0 / math.sqrt(len(chosen)) if n in chosen else 0.0 for n in ordered]
        state = SparseMultimodeState(basis, ordered, amps)
        assert [tuple(n) for n in state.occupations.tolist()] == [n for n in ordered if n in chosen]
        if len(ordered) > 1:
            i = data.draw(st.integers(0, len(ordered) - 2))
            swapped = ordered[:i] + [ordered[i + 1], ordered[i]] + ordered[i + 2:]
            with pytest.raises(ValidationError, match="lexicographic order"):
                SparseMultimodeState(basis, swapped, amps)

    @FOCK_SETTINGS
    @given(
        data=st.data(),
        defect=st.sampled_from(["long", "short", "negative", "sum"]),
        modes=st.integers(2, 5),
        total=st.integers(0, 6),
    )
    def test_foreign_occupations_rejected(self, data, defect, modes, total):
        basis = FockBasis(modes, total)
        occ = list(data.draw(st.sampled_from(list(tuple_sector(modes, total)))))
        i = data.draw(st.integers(0, modes - 1))
        if defect == "long":  # one mode too many, same particle number
            occ.insert(i, 0)
        elif defect == "short":  # one mode too few, same particle number
            moved = occ.pop(i)
            occ[0] += moved
        elif defect == "negative":  # right length and sum, one entry below zero
            occ[(i + 1) % modes] += occ[i] + 1
            occ[i] = -1
        else:  # right length, entries >= 0, one particle too many
            occ[i] += 1
        with pytest.raises(ValidationError, match="does not belong"):
            SparseMultimodeState(basis, [tuple(occ)], [1.0])
