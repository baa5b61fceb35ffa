import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st
from scipy.linalg import expm, expm_frechet

from qsense.core import (
    DensityMatrix,
    FockBasis,
    HermitianOperator,
    InestimableError,
    PAULI_X,
    PAULI_Y,
    PAULI_Z,
    POVM,
    RANK_REL_TOL,
    SparseMultimodeState,
    ValidationError,
    WeightMatrix,
    identity,
    projective_measurement,
    tensor_product,
)
from qsense.bounds import (
    FisherMatrix,
    _incompatibility_ratio,
    best_combination,
    bound_chain_report,
    classical_fim,
    pseudo_inverse,
    qfim,
    qfim_pure,
    saturation_checks,
    scalar_bound,
    sld,
    weak_qcrb,
)
from qsense.model import explicit_model, probabilities, unitary_family
from probe_oracle import dense_model

HALF_DIFFERENCE = [[0.5], [-0.5]]  # (n_0 - n_1)/2 on a mode pair
TWO_PAIRS = [[0.5, 0.0], [-0.5, 0.0], [0.0, 0.5], [0.0, -0.5]]  # one half-difference per pair

PLUS = DensityMatrix(np.full((2, 2), 0.5, dtype=complex))
ZERO = DensityMatrix(np.diag([1.0, 0.0]).astype(complex))
X_BASIS = projective_measurement(
    [np.array([1, 1]) / np.sqrt(2), np.array([1, -1]) / np.sqrt(2)]
)


def half(op):
    return HermitianOperator(op.entries / 2)


def xy_qubit_model():
    return unitary_family(ZERO, [half(PAULI_X), half(PAULI_Y)])


def pure_state_qfim(psi, generators):
    """Oracle: 4 Cov(H_i, H_j) of a dense pure state, F_ij = 4 Re(<H_i H_j> - <H_i><H_j>)."""
    v = np.asarray(psi, dtype=complex) / np.linalg.norm(psi)
    hv = np.stack([g.entries @ v for g in generators])
    mean = (v.conj() @ hv.T).real
    return 4.0 * ((hv.conj() @ hv.T).real - np.outer(mean, mean))


def sic_povm():
    vecs = np.array([[1, 1, 1], [1, -1, -1], [-1, 1, -1], [-1, -1, 1]]) / np.sqrt(3)
    paulis = [PAULI_X.entries, PAULI_Y.entries, PAULI_Z.entries]
    elems = []
    for s in vecs:
        mat = np.eye(2, dtype=complex)
        for c, p in zip(s, paulis):
            mat = mat + c * p
        elems.append(HermitianOperator(mat / 4))
    return POVM(tuple(elems))


def coin_model():
    """Classical coin embedded as a diagonal qubit family, parameter = p."""

    def evaluate(theta):
        p = float(theta[0])
        return DensityMatrix(np.diag([p, 1.0 - p]).astype(complex))

    def derivs(theta):
        return [np.diag([1.0, -1.0]).astype(complex)]

    return explicit_model(1, 2, evaluate, derivs)


def noon_sector_model(n):
    basis = FockBasis(2, n)
    amp = 1 / math.sqrt(2)
    state = SparseMultimodeState(basis, [(0, n), (n, 0)], [amp, amp])
    return dense_model(state, HALF_DIFFERENCE), state


def random_density(rng, dim):
    a = rng.normal(size=(dim, dim)) + 1j * rng.normal(size=(dim, dim))
    h = a @ a.conj().T
    return DensityMatrix(h / np.trace(h))


def random_hermitian(rng, dim):
    a = rng.normal(size=(dim, dim)) + 1j * rng.normal(size=(dim, dim))
    return HermitianOperator(0.5 * (a + a.conj().T))


def random_povm(rng, dim, outcomes):
    mats = []
    for _ in range(outcomes):
        a = rng.normal(size=(dim, dim)) + 1j * rng.normal(size=(dim, dim))
        mats.append(a @ a.conj().T)
    total = sum(mats)
    lam, u = np.linalg.eigh(total)
    inv_sqrt = (u / np.sqrt(lam)) @ u.conj().T
    return POVM(tuple(HermitianOperator(inv_sqrt @ m @ inv_sqrt) for m in mats))


class TestClassicalFim:
    def test_qubit_phase_unit_information(self):
        # oracle: binomial Fisher information (dP)^2 (1/P+ + 1/P-)
        model = unitary_family(PLUS, [half(PAULI_Z)])
        for theta in [0.2, 0.9, 1.6, 2.6]:
            f = classical_fim(qfim(model, [theta]), X_BASIS)
            p = (1 + np.cos(theta)) / 2
            dp = np.sin(theta) / 2
            expected = dp**2 * (1 / p + 1 / (1 - p))
            assert abs(f.matrix[0, 0] - expected) < 1e-9
            assert abs(f.matrix[0, 0] - 1.0) < 1e-9

    def test_two_independent_sensors_block_diagonal(self):
        single = unitary_family(PLUS, [half(PAULI_Z)])
        product_model = unitary_family(
            tensor_product(PLUS, PLUS),
            [
                tensor_product(half(PAULI_Z), identity(2)),
                tensor_product(identity(2), half(PAULI_Z)),
            ],
        )
        product_povm = POVM(
            tuple(
                tensor_product(a, b)
                for a in X_BASIS.elements
                for b in X_BASIS.elements
            )
        )
        theta = [0.5, 1.1]
        f = classical_fim(qfim(product_model, theta), product_povm).matrix
        f1 = classical_fim(qfim(single, [theta[0]]), X_BASIS).matrix[0, 0]
        f2 = classical_fim(qfim(single, [theta[1]]), X_BASIS).matrix[0, 0]
        assert np.abs(f - np.diag([f1, f2])).max() < 1e-9

    def test_insensitive_parameter_gives_zero_row(self):
        model = unitary_family(
            tensor_product(PLUS, PLUS),
            [
                tensor_product(half(PAULI_Z), identity(2)),
                tensor_product(identity(2), half(PAULI_Z)),
            ],
        )
        first_only = POVM(
            tuple(tensor_product(e, identity(2)) for e in X_BASIS.elements)
        )
        f = classical_fim(qfim(model, [0.7, 0.3]), first_only).matrix
        assert np.abs(f[1]).max() < 1e-12
        assert np.abs(f[:, 1]).max() < 1e-12
        assert f[0, 0] > 0.9

    def test_all_outcomes_floored(self):
        from qsense.core import NumericalError

        model = coin_model()
        dead = POVM((HermitianOperator(np.zeros((2, 2))), identity(2)))
        # first element never fires; the identity element carries zero derivative,
        # so flooring it away must leave an informative sum, not an error
        f = classical_fim(qfim(model, [0.3]), dead)
        assert f.matrix[0, 0] == 0.0


class TestSld:
    def test_diagonal_solve(self):
        p = 0.3
        rho = DensityMatrix(np.diag([p, 1 - p]).astype(complex))
        drho = HermitianOperator(np.diag([1.0, -1.0]))
        l_op = sld(rho, drho)
        assert np.abs(l_op.entries - np.diag([1 / p, -1 / (1 - p)])).max() < 1e-10

    def test_zero_derivative(self):
        l_op = sld(PLUS, HermitianOperator(np.zeros((2, 2))))
        assert np.abs(l_op.entries).max() == 0.0

    def test_pure_state_defining_relation_on_support(self):
        rng = np.random.default_rng(2)
        psi = rng.normal(size=4) + 1j * rng.normal(size=4)
        psi /= np.linalg.norm(psi)
        rho = DensityMatrix(np.outer(psi, psi.conj()))
        h = random_hermitian(rng, 4)
        drho = HermitianOperator(
            -1j * (h.entries @ rho.entries - rho.entries @ h.entries)
        )
        l_op = sld(rho, drho)
        resid = 0.5 * (l_op.entries @ rho.entries + rho.entries @ l_op.entries) - drho.entries
        lam, u = np.linalg.eigh(rho.entries)
        kernel = u[:, lam <= 1e-10]
        projected = resid - kernel @ (kernel.conj().T @ resid @ kernel) @ kernel.conj().T
        assert np.abs(projected).max() < 1e-9

    def test_sld_residual_random_mixed_states(self):
        rng = np.random.default_rng(8)
        for _ in range(10):
            dim = int(rng.integers(2, 6))
            rho = random_density(rng, dim)
            h = random_hermitian(rng, dim)
            drho = HermitianOperator(
                -1j * (h.entries @ rho.entries - rho.entries @ h.entries)
            )
            l_op = sld(rho, drho)
            resid = (
                0.5 * (l_op.entries @ rho.entries + rho.entries @ l_op.entries)
                - drho.entries
            )
            assert np.abs(resid).max() < 1e-9


class TestQfim:
    def test_coin_information(self):
        model = coin_model()
        for p in [0.2, 0.5, 0.8]:
            res = qfim(model, [p])
            assert abs(res.qfim.matrix[0, 0] - 1 / (p * (1 - p))) < 1e-9
        assert abs(qfim(model, [0.5]).qfim.matrix[0, 0] - 4.0) < 1e-12

    def test_noon_state_heisenberg_scaling(self):
        for n in [1, 2, 3]:
            model, state = noon_sector_model(n)
            res = qfim(model, [0.0])
            assert abs(res.qfim.matrix[0, 0] - n**2) < 1e-9
            sparse = qfim_pure(state, HALF_DIFFERENCE)
            assert abs(sparse.matrix[0, 0] - n**2) < 1e-12

    def test_single_parameter_has_no_curvature(self):
        model, _ = noon_sector_model(2)
        res = qfim(model, [0.4])
        assert np.abs(res.g_q).max() == 0.0
        assert res.r_measure == 0.0

    def test_xy_qubit_model(self):
        res = qfim(xy_qubit_model(), [0.0, 0.0])
        assert np.abs(res.qfim.matrix - np.eye(2)).max() < 1e-10
        assert np.abs(res.g_q - np.array([[0.0, 1.0], [-1.0, 0.0]])).max() < 1e-10
        assert abs(res.r_measure - 1.0) < 1e-10
        # oracle: the returned SLDs satisfy the defining relation
        rho = xy_qubit_model().evaluate(np.zeros(2))
        from qsense.model import state_derivatives

        for l_op, drho in zip(res.slds, state_derivatives(xy_qubit_model(), [0.0, 0.0])):
            resid = (
                0.5 * (l_op.entries @ rho.entries + rho.entries @ l_op.entries)
                - drho.entries
            )
            lam, u = np.linalg.eigh(rho.entries)
            kernel = u[:, lam <= 1e-10]
            projected = resid - kernel @ (kernel.conj().T @ resid @ kernel) @ kernel.conj().T
            assert np.abs(projected).max() < 1e-9

    def test_matrix_information_inequality_smoke(self):
        rng = np.random.default_rng(42)
        for _ in range(20):
            dim = int(rng.integers(2, 5))
            d = int(rng.integers(1, 4))
            model = unitary_family(
                random_density(rng, dim), [random_hermitian(rng, dim) for _ in range(d)]
            )
            povm = random_povm(rng, dim, int(rng.integers(2, 6)))
            theta = rng.normal(scale=0.4, size=d)
            fq = qfim(model, theta).qfim.matrix
            f = classical_fim(qfim(model, theta), povm).matrix
            assert np.linalg.eigvalsh(fq - f).min() >= -1e-8


class TestQfimPure:
    def test_generator_eigenstate_zero_information(self):
        basis = FockBasis(2, 2)
        state = SparseMultimodeState(basis, [(2, 0)], [1.0])
        f = qfim_pure(state, HALF_DIFFERENCE)
        assert abs(f.matrix[0, 0]) < 1e-14

    def test_generator_matrix_needs_one_row_per_mode(self):
        state = SparseMultimodeState(FockBasis(2, 2), [(2, 0)], [1.0])
        with pytest.raises(ValidationError, match="one row per mode"):
            qfim_pure(state, TWO_PAIRS)

    def test_all_to_nothing_probe_rank_one(self):
        # d=2, N=2 all-or-nothing probe: rank-1 QFIM, average direction 1/16
        basis = FockBasis(4, 4)
        amp = 1 / math.sqrt(2)
        state = SparseMultimodeState(basis, [(0, 2, 0, 2), (2, 0, 2, 0)], [amp, amp])
        f = qfim_pure(state, TWO_PAIRS)
        assert f.rank == 1
        nu_ave = np.array([0.5, 0.5])
        value = nu_ave @ pseudo_inverse(f).matrix @ nu_ave
        assert abs(value - 1.0 / 16.0) < 1e-12

    def test_product_of_noon_states_diagonal(self):
        # d=2, N=3 product probe: diag(9, 9)
        basis = FockBasis(4, 6)
        rows = [(0, 3, 0, 3), (0, 3, 3, 0), (3, 0, 0, 3), (3, 0, 3, 0)]
        state = SparseMultimodeState(basis, rows, [0.5] * 4)
        f = qfim_pure(state, TWO_PAIRS)
        assert np.abs(f.matrix - np.diag([9.0, 9.0])).max() < 1e-12

    def test_agrees_with_density_matrix_route(self):
        basis = FockBasis(4, 2)
        amp = 1 / math.sqrt(2)
        state = SparseMultimodeState(basis, [(0, 1, 0, 1), (1, 0, 1, 0)], [amp, amp])
        sparse = qfim_pure(state, TWO_PAIRS)
        dense = qfim(dense_model(state, TWO_PAIRS), [0.0, 0.0]).qfim
        assert np.abs(sparse.matrix - dense.matrix).max() < 1e-8

    def test_dense_variant_matches_sld_route_for_noncommuting(self):
        model = xy_qubit_model()
        f_dense = pure_state_qfim(np.array([1.0, 0.0]), [half(PAULI_X), half(PAULI_Y)])
        f_sld = qfim(model, [0.0, 0.0]).qfim
        assert np.abs(f_dense - f_sld.matrix).max() < 1e-10


class TestPseudoInverse:
    def test_diagonal(self):
        f = FisherMatrix(np.diag([4.0, 9.0]), "QFIM")
        assert np.abs(pseudo_inverse(f).matrix - np.diag([0.25, 1 / 9])).max() < 1e-14

    def test_rank_one(self):
        nu = np.array([1.0, 2.0])
        f = FisherMatrix(3.0 * np.outer(nu, nu), "QFIM")
        plus = pseudo_inverse(f).matrix
        # support restricted to span(nu): F^+ = outer(nu, nu)/(3 |nu|^4)
        expected = np.outer(nu, nu) / (3.0 * (nu @ nu) ** 2)
        assert np.abs(plus - expected).max() < 1e-12

    def test_penrose_identity_random(self):
        rng = np.random.default_rng(3)
        for _ in range(10):
            d = int(rng.integers(2, 6))
            a = rng.normal(size=(d, max(1, d - 1)))
            f = FisherMatrix(a @ a.T, "classical-FIM")
            plus = pseudo_inverse(f).matrix
            assert np.abs(f.matrix @ plus @ f.matrix - f.matrix).max() < 1e-8

    def test_zero_matrix_flagged_by_rank(self):
        f = FisherMatrix(np.zeros((2, 2)), "QFIM")
        out = pseudo_inverse(f)
        assert out.rank == 0
        assert np.abs(out.matrix).max() == 0.0


PROPERTY_SETTINGS = settings(max_examples=80, deadline=None, derandomize=True, database=None)


def random_psd(rng, spectrum):
    """Q diag(spectrum) Q^T for a random orthogonal Q, at a random overall scale."""
    q, _ = np.linalg.qr(rng.normal(size=(len(spectrum), len(spectrum))))
    return 10.0 ** rng.uniform(-3, 3) * (q * spectrum) @ q.T


class TestFisherMatrixSpectrum:
    @PROPERTY_SETTINGS
    @given(st.integers(1, 6), st.data(), st.integers(0, 2**32 - 1))
    def test_stored_eigenpairs_rank_and_pseudo_inverse(self, d, data, seed):
        rank = data.draw(st.integers(0, d))
        rng = np.random.default_rng(seed)
        spectrum = np.zeros(d)
        spectrum[:rank] = rng.uniform(0.1, 10.0, size=rank)
        f = FisherMatrix(random_psd(rng, spectrum), "QFIM")
        scale = np.abs(f.matrix).max()
        rebuilt = (f.eigenvectors * f.eigenvalues) @ f.eigenvectors.T
        assert np.abs(rebuilt - f.matrix).max() <= 1e-12 * scale
        assert f.rank == rank == int(f.support_mask.sum())
        expected = np.linalg.pinv(f.matrix, rcond=RANK_REL_TOL, hermitian=True)
        plus = pseudo_inverse(f).matrix
        assert np.abs(plus - expected).max() <= 1e-10 * np.abs(expected).max()

    @PROPERTY_SETTINGS
    @given(st.integers(2, 6), st.integers(0, 2**32 - 1), st.floats(0.0, 1.0))
    def test_incompatibility_ratio_is_spectral_radius(self, d, seed, target):
        # full-rank F and an antisymmetric G scaled so that max|eig(F^-1 G)| = target
        rng = np.random.default_rng(seed)
        f = FisherMatrix(random_psd(rng, rng.uniform(0.1, 10.0, size=d)), "QFIM")
        a = rng.normal(size=(d, d))
        g = a - a.T
        g *= target / np.abs(np.linalg.eigvals(np.linalg.solve(f.matrix, g))).max()
        expected = np.abs(np.linalg.eigvals(np.linalg.solve(f.matrix, g))).max()
        assert abs(_incompatibility_ratio(f, g) - expected) <= 1e-10 * expected + 1e-15


class TestScalarBound:
    def test_identity_weight(self):
        f = FisherMatrix(np.diag([2.0, 5.0]), "QFIM")
        for m in [1, 3]:
            b = scalar_bound(f, WeightMatrix.identity(2), m)
            assert abs(b.value - (0.5 + 0.2) / m) < 1e-12
            assert not b.inestimable

    def test_rank_one_weight_on_rank_one_information(self):
        # all-or-nothing probe with two sensors of two particles: F = N^2 * ones
        nu = np.array([0.5, 0.5])
        f = FisherMatrix(4.0 * np.ones((2, 2)), "QFIM")
        b = scalar_bound(f, WeightMatrix.rank_one(nu), 1)
        assert abs(b.value - 1.0 / 16.0) < 1e-12

    def test_kernel_direction_flagged(self):
        f = FisherMatrix(np.outer([1, 1], [1, 1]), "QFIM")
        b = scalar_bound(f, WeightMatrix.rank_one([0.0, 1.0]), 1)
        assert b.inestimable
        with pytest.raises(InestimableError):
            scalar_bound(f, WeightMatrix.rank_one([0.0, 1.0]), 1, strict=True)


class TestWeakBound:
    def test_eigenvector_saturates(self):
        f = FisherMatrix(np.diag([1.0, 4.0]), "QFIM")
        wb = weak_qcrb([0.0, 2.0], f)
        assert abs(wb.value - wb.exact) < 1e-10
        assert abs(wb.gap) < 1e-10

    def test_two_by_two_arithmetic(self):
        # oracle: direct inversion of diag(1,4)
        f = FisherMatrix(np.diag([1.0, 4.0]), "QFIM")
        wb = weak_qcrb([1.0, 1.0], f)
        assert abs(wb.value - 4.0 / 5.0) < 1e-12
        assert abs(wb.exact - 1.25) < 1e-12
        assert wb.value <= wb.exact

    def test_identity_information_always_tight(self):
        rng = np.random.default_rng(9)
        f = FisherMatrix(np.eye(3), "QFIM")
        for _ in range(10):
            nu = rng.normal(size=3)
            wb = weak_qcrb(nu, f)
            assert abs(wb.value - wb.exact) < 1e-10

    def test_kernel_direction_is_infinite(self):
        f = FisherMatrix(np.diag([1.0, 0.0]), "QFIM")
        wb = weak_qcrb([0.0, 1.0], f)
        assert math.isinf(wb.value)

    @pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
    def test_non_finite_direction_rejected(self, bad):
        f = FisherMatrix(np.diag([1.0, 4.0]), "QFIM")
        with pytest.raises(ValidationError, match="finite"):
            weak_qcrb([1.0, bad], f)

    def test_weak_never_exceeds_exact_random(self):
        rng = np.random.default_rng(31)
        for _ in range(100):
            d = int(rng.integers(2, 5))
            a = rng.normal(size=(d, d))
            f = FisherMatrix(a @ a.T + 0.1 * np.eye(d), "QFIM")
            nu = rng.normal(size=d)
            wb = weak_qcrb(nu, f)
            assert wb.value <= wb.exact + 1e-10


class TestSaturationChecks:
    def test_commuting_network_model_passes(self):
        gens = [
            tensor_product(half(PAULI_Z), identity(2)),
            tensor_product(identity(2), half(PAULI_Z)),
        ]
        model = unitary_family(tensor_product(PLUS, PLUS), gens)
        checks = saturation_checks(model, [0.2, 0.6])
        assert checks.weak_commutativity_holds
        assert checks.partial_commutativity_holds
        assert checks.pure_condition_holds
        assert checks.g_q_max <= 1e-10

    def test_xy_qubit_fails_weak_commutativity(self):
        checks = saturation_checks(xy_qubit_model(), [0.0, 0.0])
        assert not checks.weak_commutativity_holds
        assert abs(checks.g_q_max - 1.0) < 1e-10
        assert checks.pure_condition_holds is False

    def test_single_parameter_trivially_passes(self):
        model = unitary_family(PLUS, [half(PAULI_Z)])
        checks = saturation_checks(model, [0.9])
        assert checks.weak_commutativity_holds
        assert checks.partial_commutativity_holds
        assert checks.pure_condition_holds


def local_generators(model, theta):
    """Oracle: G_j = i U^dag dU/dtheta_j of a unitary family, from SciPy's expm and expm_frechet."""
    exponent = -1j * sum(t * g.entries for t, g in zip(theta, model.strategy.generators))
    u = expm(exponent)
    return [1j * u.conj().T @ expm_frechet(exponent, -1j * g.entries, compute_expm=False)
            for g in model.strategy.generators]


class TestPureStateCondition:
    """Matsumoto's Im<psi_0|G_i G_j|psi_0> = 0 read from the curvature matrix of the record."""

    @settings(max_examples=60, deadline=None, derandomize=True, database=None)
    @given(
        dim=st.integers(2, 5),
        d=st.integers(1, 3),
        commuting=st.booleans(),
        at_origin=st.booleans(),
        seed=st.integers(0, 2**32 - 1),
    )
    def test_curvature_is_four_times_generator_imaginary_part(
        self, dim, d, commuting, at_origin, seed
    ):
        rng = np.random.default_rng(seed)
        psi = rng.normal(size=dim) + 1j * rng.normal(size=dim)
        psi /= np.linalg.norm(psi)
        if commuting:  # diagonal in a shared random basis: the condition holds
            q, _ = np.linalg.qr(rng.normal(size=(dim, dim)) + 1j * rng.normal(size=(dim, dim)))
            gens = [HermitianOperator((q * rng.normal(size=dim)) @ q.conj().T) for _ in range(d)]
        else:
            gens = [random_hermitian(rng, dim) for _ in range(d)]
        model = unitary_family(DensityMatrix(np.outer(psi, psi.conj())), gens)
        theta = np.zeros(d) if at_origin else rng.normal(size=d)

        local = local_generators(model, theta)
        oracle = np.array([[np.imag(psi.conj() @ gi @ gj @ psi) for gj in local] for gi in local])
        g_q = qfim(model, theta).g_q
        assert np.abs(g_q - 4.0 * oracle).max() <= 1e-10 * max(1.0, np.abs(4.0 * oracle).max())
        checks = saturation_checks(model, theta)
        assert checks.pure_condition_holds == bool(np.abs(oracle).max() <= checks.tolerance)


class TestBestCombination:
    def test_diagonal(self):
        nu, value = best_combination(FisherMatrix(np.diag([1.0, 9.0]), "QFIM"))
        assert np.allclose(nu, [0.0, 1.0])
        assert value == 9.0

    def test_rank_one_information_returns_average_direction(self):
        f = FisherMatrix(np.ones((2, 2)) * 8.0, "QFIM")
        nu, value = best_combination(f)
        assert np.abs(nu - np.array([1.0, 1.0]) / np.sqrt(2)).max() < 1e-12
        assert abs(value - 16.0) < 1e-12

    def test_degenerate_tie_break(self):
        nu, value = best_combination(FisherMatrix(np.eye(3), "QFIM"))
        assert np.allclose(nu, [1.0, 0.0, 0.0])
        assert value == 1.0

    def test_sign_convention(self):
        f = FisherMatrix(np.array([[1.0, 0.0], [0.0, 2.0]]), "QFIM")
        nu, _ = best_combination(f)
        first_nonzero = nu[np.abs(nu) > 1e-12][0]
        assert first_nonzero > 0


class TestBoundChainReport:
    def test_single_parameter_chain_collapses(self):
        model = unitary_family(PLUS, [half(PAULI_Z)])
        chain = bound_chain_report(model, X_BASIS, [0.8], WeightMatrix.identity(1))
        assert abs(chain.crb.value - chain.qcrb.value) < 1e-6
        assert abs(chain.hb - chain.qcrb.value) < 1e-6

    def test_xy_qubit_with_informationally_complete_povm(self):
        chain = bound_chain_report(
            xy_qubit_model(), sic_povm(), [0.0, 0.0], WeightMatrix.identity(2)
        )
        assert not chain.crb.inestimable
        assert chain.crb.value > chain.hb + 1e-3
        assert chain.hb > chain.qcrb.value + 1e-3
        assert chain.mib_interval[0] <= chain.mib_interval[1]

    def test_two_outcome_povm_makes_crb_interval_infinite(self):
        chain = bound_chain_report(
            xy_qubit_model(), X_BASIS, [0.0, 0.0], WeightMatrix.identity(2)
        )
        assert chain.crb.inestimable
        assert math.isinf(chain.mib_interval[1])

    def test_rank_one_weight_collapses_hb_to_qcrb(self):
        nu = np.array([0.8, 0.6])
        chain = bound_chain_report(
            xy_qubit_model(), sic_povm(), [0.0, 0.0], WeightMatrix.rank_one(nu)
        )
        assert abs(chain.hb - chain.qcrb.value) <= 1e-5 * chain.qcrb.value


class TestQfimProperties:
    def test_additivity_two_copies(self):
        rng = np.random.default_rng(6)
        for _ in range(10):
            dim = int(rng.integers(2, 5))
            d = int(rng.integers(1, 4))
            rho = random_density(rng, dim)
            gens = [random_hermitian(rng, dim) for _ in range(d)]
            theta = rng.normal(scale=0.3, size=d)
            single = qfim(unitary_family(rho, gens), theta).qfim.matrix
            pair_gens = [
                HermitianOperator(
                    np.kron(g.entries, np.eye(dim)) + np.kron(np.eye(dim), g.entries)
                )
                for g in gens
            ]
            pair = qfim(
                unitary_family(tensor_product(rho, rho), pair_gens), theta
            ).qfim.matrix
            assert np.abs(pair - 2.0 * single).max() < 1e-8

    def test_convexity_of_mixtures(self):
        rng = np.random.default_rng(14)
        for _ in range(10):
            dim = int(rng.integers(2, 5))
            d = int(rng.integers(1, 3))
            gens = [random_hermitian(rng, dim) for _ in range(d)]
            q = rng.dirichlet(np.ones(3))
            parts = [random_density(rng, dim) for _ in range(3)]
            mixture = DensityMatrix(sum(w * p.entries for w, p in zip(q, parts)))
            theta = rng.normal(scale=0.3, size=d)
            f_mix = qfim(unitary_family(mixture, gens), theta).qfim.matrix
            f_avg = sum(
                w * qfim(unitary_family(p, gens), theta).qfim.matrix
                for w, p in zip(q, parts)
            )
            assert np.linalg.eigvalsh(f_avg - f_mix).min() >= -1e-8

    def test_r_measure_bounds_and_zero_condition(self):
        rng = np.random.default_rng(21)
        for _ in range(20):
            dim = int(rng.integers(2, 5))
            d = int(rng.integers(1, 4))
            model = unitary_family(
                random_density(rng, dim), [random_hermitian(rng, dim) for _ in range(d)]
            )
            res = qfim(model, rng.normal(scale=0.4, size=d))
            assert 0.0 <= res.r_measure <= 1.0 + 1e-9
            if np.abs(res.g_q).max() <= 1e-10:
                assert res.r_measure <= 1e-8
