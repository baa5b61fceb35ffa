import numpy as np
import pytest
from hypothesis import given, settings, strategies as st
from scipy.linalg import expm, expm_frechet

from qsense.core import (
    DensityMatrix,
    HermitianOperator,
    PAULI_X,
    PAULI_Y,
    PAULI_Z,
    POVM,
    ValidationError,
    identity,
    projective_measurement,
    tensor_product,
)
from qsense.bounds import classical_fim, qfim
from qsense.model import (
    TABLE_BLOCK_NODES,
    explicit_model,
    finite_difference_model,
    probabilities,
    probability_table,
    state_derivatives,
    unitary_family,
)

PLUS = DensityMatrix(np.full((2, 2), 0.5, dtype=complex))
X_BASIS = projective_measurement(
    [np.array([1, 1]) / np.sqrt(2), np.array([1, -1]) / np.sqrt(2)]
)


def half(op):
    return HermitianOperator(op.entries / 2)


def random_unitary_model(rng, dim, d):
    a = rng.normal(size=(dim, dim)) + 1j * rng.normal(size=(dim, dim))
    h = a @ a.conj().T
    rho = DensityMatrix(h / np.trace(h))
    gens = []
    for _ in range(d):
        g = rng.normal(size=(dim, dim)) + 1j * rng.normal(size=(dim, dim))
        gens.append(HermitianOperator(0.5 * (g + g.conj().T)))
    return unitary_family(rho, gens)


class TestProbabilities:
    def test_maximally_mixed_is_uniform(self):
        model = unitary_family(DensityMatrix(np.eye(2) / 2), [half(PAULI_Z)])
        p = probabilities(model, X_BASIS, [0.3])
        assert np.allclose(p.values, [0.5, 0.5])

    def test_cosine_law(self):
        model = unitary_family(PLUS, [half(PAULI_Z)])
        for theta in [0.1, 0.7, 1.9, 2.8]:
            p = probabilities(model, X_BASIS, [theta])
            expected = [(1 + np.cos(theta)) / 2, (1 - np.cos(theta)) / 2]
            assert np.abs(p.values - expected).max() < 1e-12

    def test_trivial_povm(self):
        from qsense.core import POVM

        model = unitary_family(PLUS, [half(PAULI_Z)])
        p = probabilities(model, POVM((identity(2),)), [0.5])
        assert np.allclose(p.values, [1.0])

    def test_dimension_mismatch(self):
        model = unitary_family(PLUS, [half(PAULI_Z)])
        qutrit = projective_measurement([np.eye(3)[i] for i in range(3)])
        with pytest.raises(ValidationError):
            probabilities(model, qutrit, [0.1])

    @pytest.mark.parametrize("theta", [np.nan, np.inf, -np.inf])
    def test_non_finite_parameter_point_rejected(self, theta):
        model = unitary_family(PLUS, [half(PAULI_Z)])
        with pytest.raises(ValidationError, match="not finite"):
            probabilities(model, X_BASIS, [theta])
        with pytest.raises(ValidationError, match="not finite"):
            qfim(model, [theta])

    def test_roundoff_negatives_clipped_but_real_negativity_rejected(self):
        from qsense.model import ProbabilityVector

        p = ProbabilityVector(np.array([1.0 + 5e-13, -5e-13]))
        assert p.values[1] == 0.0
        with pytest.raises(ValidationError, match="clipping floor"):
            ProbabilityVector(np.array([1.001, -0.001]))

    def test_grid_columns_are_normalised_and_checked_one_by_one(self):
        from qsense.model import normalised_probabilities

        cols = normalised_probabilities(np.array([[0.25, 1.0 + 4e-10], [0.75, -5e-13]]))
        assert np.array_equal(cols[:, 0], [0.25, 0.75])
        assert cols[1, 1] == 0.0 and cols[0, 1] == 1.0
        with pytest.raises(ValidationError, match="sum to 0.9"):
            normalised_probabilities(np.array([[0.25, 0.5], [0.75, 0.4]]))


class TestStateDerivatives:
    def test_constant_model_has_zero_derivatives(self):
        rho = DensityMatrix(np.diag([0.7, 0.3]).astype(complex))
        model = finite_difference_model(1, 2, lambda theta: rho)
        (d,) = state_derivatives(model, [0.4])
        assert np.abs(d.entries).max() < 1e-10

    def test_qubit_rotation_matches_commutator(self):
        # oracle: central finite differences of the evaluated family
        model = unitary_family(PLUS, [half(PAULI_Z)])
        (analytic,) = state_derivatives(model, [0.0])
        fd = finite_difference_model(1, 2, model.evaluate)
        (numeric,) = state_derivatives(fd, [0.0])
        assert np.abs(analytic.entries - numeric.entries).max() < 1e-8
        commutator = -1j * (
            half(PAULI_Z).entries @ PLUS.entries - PLUS.entries @ half(PAULI_Z).entries
        )
        assert np.abs(analytic.entries - commutator).max() < 1e-12

    def test_commuting_generators_cross_strategy(self):
        gens = [
            tensor_product(half(PAULI_Z), identity(2)),
            tensor_product(identity(2), half(PAULI_Z)),
        ]
        rho = tensor_product(PLUS, PLUS)
        model = unitary_family(rho, gens)
        fd = finite_difference_model(2, 4, model.evaluate)
        theta = [0.3, -0.8]
        for a, n in zip(state_derivatives(model, theta), state_derivatives(fd, theta)):
            assert np.abs(a.entries - n.entries).max() < 1e-7

    def test_noncommuting_generators_cross_strategy(self):
        model = unitary_family(PLUS, [half(PAULI_X), half(PAULI_Y)])
        fd = finite_difference_model(2, 2, model.evaluate)
        theta = [0.4, 0.9]
        for a, n in zip(state_derivatives(model, theta), state_derivatives(fd, theta)):
            assert np.abs(a.entries - n.entries).max() < 1e-7

    def test_strategy_equivalence_random_models(self):
        rng = np.random.default_rng(77)
        for _ in range(20):
            dim = int(rng.integers(2, 9))
            d = int(rng.integers(1, 4))
            model = random_unitary_model(rng, dim, d)
            fd = finite_difference_model(d, dim, model.evaluate)
            theta = rng.normal(scale=0.5, size=d)
            for a, n in zip(state_derivatives(model, theta), state_derivatives(fd, theta)):
                assert np.abs(a.entries - n.entries).max() < 1e-7

    def test_traceless(self):
        rng = np.random.default_rng(13)
        model = random_unitary_model(rng, 4, 2)
        for d in state_derivatives(model, [0.2, 0.5]):
            assert abs(np.trace(d.entries)) < 1e-12
        fd = finite_difference_model(2, 4, model.evaluate)
        for d in state_derivatives(fd, [0.2, 0.5]):
            assert abs(np.trace(d.entries)) < 5e-8

    def test_explicit_strategy(self):
        rho = PLUS

        def derivs(theta):
            h = half(PAULI_Z).entries
            u = np.diag(np.exp(-1j * theta[0] * np.diag(h)))
            r = u @ rho.entries @ u.conj().T
            return [-1j * (h @ r - r @ h)]

        model = explicit_model(
            1, 2, lambda th: unitary_family(rho, [half(PAULI_Z)]).evaluate(th), derivs
        )
        reference = unitary_family(rho, [half(PAULI_Z)])
        (a,) = state_derivatives(model, [0.6])
        (b,) = state_derivatives(reference, [0.6])
        assert np.abs(a.entries - b.entries).max() < 1e-12

    def test_domain_boundary_rejected_for_central_differences(self):
        model = finite_difference_model(
            1, 2, unitary_family(PLUS, [half(PAULI_Z)]).evaluate, domain=[(0.0, 1.0)]
        )
        with pytest.raises(ValidationError, match="boundary"):
            state_derivatives(model, [0.0])


class TestEigenbasisPath:
    """U, dU/dtheta and rho from one eigh, against SciPy's expm and expm_frechet."""

    @settings(max_examples=60, deadline=None, derandomize=True, database=None)
    @given(
        dim=st.integers(2, 6),
        d=st.integers(1, 3),
        kind=st.sampled_from(["random", "integer_diagonal"]),
        at_origin=st.booleans(),
        seed=st.integers(0, 2**32 - 1),
    )
    def test_matches_scipy_expm_and_frechet(self, dim, d, kind, at_origin, seed):
        rng = np.random.default_rng(seed)
        model = random_unitary_model(rng, dim, d)
        if kind == "integer_diagonal":
            # commuting, with repeated eigenvalues, in a shared random basis
            q, _ = np.linalg.qr(rng.normal(size=(dim, dim)) + 1j * rng.normal(size=(dim, dim)))
            diagonals = rng.integers(-2, 3, size=(d, dim))
            model = unitary_family(model.strategy.initial,
                                   [HermitianOperator((q * h) @ q.conj().T) for h in diagonals])
        rho = model.strategy.initial.entries
        gens = [g.entries for g in model.strategy.generators]
        theta = np.zeros(d) if at_origin else rng.normal(size=d)

        exponent = -1j * sum(t * g for t, g in zip(theta, gens))
        u = expm(exponent)
        dus = [expm_frechet(exponent, -1j * g, compute_expm=False) for g in gens]

        def close(got, want):
            return np.abs(got - want).max() <= 1e-12 * max(1.0, np.abs(want).max())

        assert close(model.evaluate(theta).entries, u @ rho @ u.conj().T)
        derivs = state_derivatives(model, theta)
        for du, drho in zip(dus, derivs):
            assert close(drho.entries, du @ rho @ u.conj().T + u @ rho @ du.conj().T)


class TestClassicalFimFromRecord:
    def test_matches_finite_difference_of_probabilities(self):
        """F_ij from the record's rho and d rho against sum_k dP_k dP_k / P_k by central differences."""
        rng = np.random.default_rng(9)
        model = random_unitary_model(rng, 3, 2)
        povm = random_povm(rng, 3, 4)
        theta = np.array([0.9, -0.4])
        f = classical_fim(qfim(model, theta), povm).matrix
        eps = 1e-6
        p = probabilities(model, povm, theta).values
        dp = np.array([(probabilities(model, povm, theta + eps * e).values
                        - probabilities(model, povm, theta - eps * e).values) / (2 * eps)
                       for e in np.eye(2)])
        assert np.abs(f - (dp / p) @ dp.T).max() < 1e-8


def random_povm(rng, dim, outcomes):
    """E_k = S^-1/2 A_k S^-1/2 for random PSD A_k with S = sum_k A_k."""
    mats = []
    for _ in range(outcomes):
        a = rng.normal(size=(dim, dim)) + 1j * rng.normal(size=(dim, dim))
        mats.append(a @ a.conj().T)
    evals, evecs = np.linalg.eigh(sum(mats))
    inv_sqrt = evecs @ np.diag(evals ** -0.5) @ evecs.conj().T
    return POVM(tuple(HermitianOperator(inv_sqrt @ m @ inv_sqrt) for m in mats))


def per_node_table(model, povm, axes):
    mesh = np.meshgrid(*axes, indexing="ij")
    nodes = np.stack([g.ravel() for g in mesh], axis=1)
    table = np.stack([probabilities(model, povm, th).values for th in nodes], axis=1)
    return table.reshape((len(povm),) + tuple(len(ax) for ax in axes))


class TestProbabilityTable:
    """The batched grid path against the per-node `probabilities` oracle."""

    @settings(max_examples=40, deadline=None, derandomize=True, database=None)
    @given(
        dim=st.integers(2, 4),
        d=st.integers(1, 3),
        outcomes=st.integers(1, 6),
        points=st.integers(2, 5),
        seed=st.integers(0, 2**32 - 1),
    )
    def test_batched_equals_per_node_unitary(self, dim, d, outcomes, points, seed):
        rng = np.random.default_rng(seed)
        model = random_unitary_model(rng, dim, d)
        povm = random_povm(rng, dim, outcomes)
        axes = [np.sort(rng.uniform(-3.0, 3.0, size=points)) for _ in range(d)]
        table = probability_table(model, povm, axes)
        assert table.shape == (outcomes,) + (points,) * d
        assert np.abs(table - per_node_table(model, povm, axes)).max() <= 1e-12

    def test_batched_equals_per_node_across_blocks(self):
        rng = np.random.default_rng(5)
        model = random_unitary_model(rng, 3, 1)
        povm = random_povm(rng, 3, 4)
        axes = [np.linspace(-2.0, 2.0, 2 * TABLE_BLOCK_NODES + 7)]
        table = probability_table(model, povm, axes)
        assert np.abs(table - per_node_table(model, povm, axes)).max() <= 1e-12

    def test_finite_difference_model(self):
        rng = np.random.default_rng(9)
        reference = random_unitary_model(rng, 3, 2)
        model = finite_difference_model(2, 3, reference.evaluate)
        povm = random_povm(rng, 3, 3)
        axes = [np.linspace(-1.0, 1.0, 7), np.linspace(0.0, 2.0, 5)]
        table = probability_table(model, povm, axes)
        assert np.abs(table - per_node_table(model, povm, axes)).max() <= 1e-12
        assert np.abs(table - probability_table(reference, povm, axes)).max() <= 1e-12

    def test_domain_violation_rejected(self):
        model = unitary_family(PLUS, [half(PAULI_Z)], domain=[(0.0, 1.0)])
        with pytest.raises(ValidationError, match="outside domain"):
            probability_table(model, X_BASIS, [np.linspace(0.0, 1.5, 7)])

    def test_povm_dimension_mismatch_rejected(self):
        model = unitary_family(PLUS, [half(PAULI_Z)])
        qutrit = projective_measurement([np.eye(3)[i] for i in range(3)])
        with pytest.raises(ValidationError, match="dimension"):
            probability_table(model, qutrit, [np.linspace(0.0, 1.0, 5)])

    def test_real_negative_probability_rejected(self):
        # the second element has eigenvalue -5e-10: inside the POVM tolerance,
        # but it gives the state |0><0| a probability below the clipping floor
        eps = 5e-10
        povm = POVM((
            HermitianOperator(np.diag([1.0 + eps, 0.0]).astype(complex)),
            HermitianOperator(np.diag([-eps, 1.0]).astype(complex)),
        ))
        model = unitary_family(DensityMatrix(np.diag([1.0, 0.0]).astype(complex)),
                               [half(PAULI_Z)])
        with pytest.raises(ValidationError, match="clipping floor"):
            probabilities(model, povm, [0.3])
        with pytest.raises(ValidationError, match="clipping floor"):
            probability_table(model, povm, [np.linspace(0.0, 1.0, 5)])
