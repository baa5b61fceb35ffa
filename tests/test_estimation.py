import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from qsense.core import (
    DensityMatrix,
    HermitianOperator,
    PAULI_Z,
    POVM,
    ValidationError,
    identity,
    projective_measurement,
    tensor_product,
)
from qsense.estimation import (
    TRIAL_BLOCK_ENTRIES,
    empirical_covariance,
    max_likelihood,
    parameter_axes,
    sample_outcomes,
    saturation_report,
    trial_generator,
)
from qsense.model import unitary_family

PLUS = DensityMatrix(np.full((2, 2), 0.5, dtype=complex))
X_BASIS = projective_measurement(
    [np.array([1, 1]) / np.sqrt(2), np.array([1, -1]) / np.sqrt(2)]
)


def half(op):
    return HermitianOperator(op.entries / 2)


def phase_model():
    return unitary_family(PLUS, [half(PAULI_Z)])


def qutrit_phases_model():
    """Two relative phases of an equal qutrit superposition, read in the Fourier basis."""
    psi = np.ones(3) / np.sqrt(3)
    gens = [HermitianOperator(np.diag(np.eye(3)[k])) for k in (1, 2)]
    fourier = projective_measurement(
        [np.exp(2j * np.pi * k * np.arange(3) / 3) / np.sqrt(3) for k in range(3)]
    )
    return unitary_family(DensityMatrix(np.outer(psi, psi).astype(complex)), gens), fourier


def assert_matches_scalar_path(directory, model, povm, theta, m, trials, seed, box,
                               resolution):
    """Every trial's estimate and CSV row equal the one-trial path on its own stream.

    Returns the number of distinct tallies among the trials.
    """
    path = directory / f"trials-{seed}-{m}-{trials}.csv"
    report = saturation_report(model, povm, theta, m=m, trials=trials, seed=seed, box=box,
                               resolution=resolution, csv_path=path)
    rows = path.read_text().splitlines()[1:]
    assert len(rows) == trials
    scalar = {}  # max_likelihood of each distinct tally, a pure function of the tally
    for t, row in enumerate(rows):
        record = sample_outcomes(model, povm, theta, m, seed, trial=t)
        key = tuple(record.counts.tolist())
        if key not in scalar:
            scalar[key] = max_likelihood(record, model, povm, box, resolution)
        est = scalar[key]
        assert np.array_equal(report.theta_hats[t], est.theta_hat)
        assert row == ",".join(
            [str(t)] + [repr(x) for x in est.theta_hat.tolist()] + [repr(est.log_likelihood)]
        )
    return len(scalar)


class TestSampling:
    def test_deterministic_outcome(self):
        rho = DensityMatrix(np.diag([1.0, 0.0]).astype(complex))
        model = unitary_family(rho, [half(PAULI_Z)])
        z_basis = projective_measurement([np.array([1, 0]), np.array([0, 1])])
        record = sample_outcomes(model, z_basis, [0.0], m=500, seed=1)
        assert record.counts[0] == 500 and record.counts[1] == 0

    def test_seed_reproducibility(self):
        a = sample_outcomes(phase_model(), X_BASIS, [0.8], m=2000, seed=42)
        b = sample_outcomes(phase_model(), X_BASIS, [0.8], m=2000, seed=42)
        assert np.array_equal(a.counts, b.counts)
        c = sample_outcomes(phase_model(), X_BASIS, [0.8], m=2000, seed=43)
        assert not np.array_equal(a.counts, c.counts)

    def test_trial_streams_are_distinct(self):
        a = sample_outcomes(phase_model(), X_BASIS, [0.8], m=2000, seed=42, trial=0)
        b = sample_outcomes(phase_model(), X_BASIS, [0.8], m=2000, seed=42, trial=1)
        assert not np.array_equal(a.counts, b.counts)

    def test_binomial_concentration(self):
        theta = np.arccos(0.5)  # P = (0.75, 0.25)
        m = 100_000
        record = sample_outcomes(phase_model(), X_BASIS, [theta], m=m, seed=7)
        freq = record.counts[0] / m
        sigma = np.sqrt(0.75 * 0.25 / m)
        assert abs(freq - 0.75) < 5 * sigma

    def test_generator_is_counter_based(self):
        gen = trial_generator(5, 3)
        assert isinstance(gen.bit_generator, np.random.Philox)

    def test_rewound_stream_matches_trial_generator(self):
        from qsense.estimation import _rewind

        reused = trial_generator(0)
        for seed, trial in [(5, 3), (2**64 + 7, 0), (1, 2**40), (0, 0)]:
            reused.random(3)  # leave the previous stream mid-buffer
            _rewind(reused.bit_generator, seed, trial)
            fresh = trial_generator(seed, trial)
            assert np.array_equal(reused.multinomial(1000, [0.3, 0.7]),
                                  fresh.multinomial(1000, [0.3, 0.7]))
            assert np.array_equal(reused.random(5), fresh.random(5))


class TestMaxLikelihood:
    def test_exact_match_argmax(self):
        theta_star = np.arccos(0.5)
        box = [(theta_star - 0.5, theta_star + 0.5)]
        # counts exactly proportional to the outcome distribution at a grid node
        from qsense.estimation import OutcomeRecord

        record = OutcomeRecord(0, np.array([theta_star]), np.array([75, 25]), 100)
        est = max_likelihood(record, phase_model(), X_BASIS, box, resolution=101)
        step = 1.0 / 100
        assert abs(est.theta_hat[0] - theta_star) < step / 10
        assert not est.tied

    def test_matches_analytic_argmax_within_grid_step(self):
        model = phase_model()
        theta_true = 1.1
        box = [(0.1, 3.0)]
        resolution = 801
        record = sample_outcomes(model, X_BASIS, [theta_true], m=5000, seed=11)
        est = max_likelihood(record, model, X_BASIS, box, resolution)
        analytic = np.arccos((record.counts[0] - record.counts[1]) / record.m)
        step = (3.0 - 0.1) / (resolution - 1)
        assert abs(est.theta_hat[0] - analytic) <= step

    def test_flat_likelihood_tie_break(self):
        flat_povm = POVM(
            (
                HermitianOperator(np.eye(2) / 2),
                HermitianOperator(np.eye(2) / 2),
            )
        )
        record = sample_outcomes(phase_model(), flat_povm, [1.0], m=100, seed=3)
        est = max_likelihood(record, phase_model(), flat_povm, [(0.2, 2.0)], 51)
        assert est.tied
        assert est.theta_hat[0] == 0.2  # lowest grid index

    @pytest.mark.parametrize("box", [[(np.nan, 1.0)], [(0.0, np.inf)], [(-np.inf, 1.0)],
                                     [(0.0, 1.0), (np.nan, np.nan)]])
    def test_non_finite_domain_rejected(self, box):
        with pytest.raises(ValidationError, match="finite"):
            parameter_axes(box, 5)

    def test_grid_dimension_cap(self):
        gens = [
            tensor_product(half(PAULI_Z), identity(2)),
            tensor_product(identity(2), half(PAULI_Z)),
        ]
        model3 = unitary_family(
            tensor_product(PLUS, PLUS), gens + [tensor_product(half(PAULI_Z), half(PAULI_Z))]
        )
        from qsense.estimation import OutcomeRecord

        record = OutcomeRecord(0, np.zeros(3), np.array([1]), 1)
        povm = POVM((identity(4),))
        with pytest.raises(ValidationError, match="limited"):
            max_likelihood(record, model3, povm, [(0, 1)] * 3, 11)


class TestEmpiricalCovariance:
    def test_perfect_estimates_zero(self):
        theta = np.array([0.3, 0.4])
        cov = empirical_covariance([theta, theta, theta], theta)
        assert np.abs(cov).max() == 0.0

    def test_two_point_alternation(self):
        theta = np.array([1.0, 2.0])
        delta = 0.05
        pts = [theta + np.array([delta, 0.0]), theta - np.array([delta, 0.0])]
        cov = empirical_covariance(pts, theta)
        assert np.abs(cov - np.array([[delta**2, 0.0], [0.0, 0.0]])).max() < 1e-15

    def test_requires_two_estimates(self):
        with pytest.raises(ValidationError):
            empirical_covariance([np.array([0.1])], np.array([0.1]))

    @pytest.mark.parametrize("d", [1, 3])
    def test_equals_mean_outer_product_loop(self, d):
        rng = np.random.default_rng(8)
        theta = rng.normal(size=d)
        pts = theta + 0.1 * rng.normal(size=(500, d))
        loop = sum(np.outer(theta - p, theta - p) for p in pts) / len(pts)
        assert np.abs(empirical_covariance(list(pts), theta) - loop).max() < 1e-14


class TestSaturationReport:
    def test_requires_hundred_trials(self):
        with pytest.raises(ValidationError, match="100"):
            saturation_report(
                phase_model(), X_BASIS, [1.0], m=10, trials=10, seed=0, box=[(0.2, 2.9)]
            )

    def test_qubit_phase_smoke(self):
        report = saturation_report(
            phase_model(),
            X_BASIS,
            [1.0],
            m=2000,
            trials=150,
            seed=5,
            box=[(0.2, 2.9)],
            resolution=1001,
        )
        # F = 1: variance should sit near 1/m within wide Monte-Carlo slack
        ratio = report.empirical_covariance[0, 0] / report.crb_matrix[0, 0]
        assert 0.7 < ratio < 1.3
        # the bound direction itself: no dipping below F^-1/m beyond noise
        assert ratio >= 1.0 - 3.0 * np.sqrt(2.0 / report.trials)
        assert not report.pre_asymptotic
        assert abs(report.bias[0]) < 5 * np.sqrt(report.crb_matrix[0, 0] / report.trials)

    def test_single_shot_flags_pre_asymptotic(self):
        report = saturation_report(
            phase_model(), X_BASIS, [1.0], m=1, trials=100, seed=2, box=[(0.2, 2.9)],
            resolution=201,
        )
        assert report.pre_asymptotic

    def test_two_independent_sensors_uncorrelated(self):
        gens = [
            tensor_product(half(PAULI_Z), identity(2)),
            tensor_product(identity(2), half(PAULI_Z)),
        ]
        model = unitary_family(tensor_product(PLUS, PLUS), gens)
        povm = POVM(
            tuple(
                tensor_product(a, b) for a in X_BASIS.elements for b in X_BASIS.elements
            )
        )
        report = saturation_report(
            model,
            povm,
            [1.0, 1.4],
            m=400,
            trials=120,
            seed=9,
            box=[(0.3, 2.8), (0.3, 2.8)],
            resolution=121,
        )
        off = report.empirical_covariance[0, 1]
        scale = np.sqrt(
            report.empirical_covariance[0, 0] * report.empirical_covariance[1, 1]
        )
        assert abs(off) < 5 * scale / np.sqrt(report.trials)

    def test_results_do_not_depend_on_blocking(self):
        kwargs = dict(m=300, seed=21, box=[(0.2, 2.9)], resolution=301)
        a = saturation_report(phase_model(), X_BASIS, [1.0], trials=100, **kwargs)
        b = saturation_report(phase_model(), X_BASIS, [1.0], trials=300, **kwargs)
        assert np.array_equal(a.theta_hats, b.theta_hats[:100])

    def test_csv_stream(self, tmp_path):
        path = tmp_path / "trials.csv"
        report = saturation_report(
            phase_model(),
            X_BASIS,
            [1.0],
            m=200,
            trials=100,
            seed=4,
            box=[(0.2, 2.9)],
            resolution=201,
            csv_path=path,
        )
        lines = path.read_text().strip().splitlines()
        assert lines[0] == "trial,theta_hat_1,loglik"
        assert len(lines) == report.trials + 1

    def test_repeated_tallies_match_scalar_path(self, tmp_path):
        distinct = assert_matches_scalar_path(
            tmp_path, phase_model(), X_BASIS, [1.0], m=12, trials=400, seed=6,
            box=[(0.2, 2.9)], resolution=2001,
        )
        assert distinct <= 13 < 400  # heavy repetition: at most m + 1 tallies

    def test_two_parameter_qutrit_matches_scalar_path(self, tmp_path):
        model, fourier = qutrit_phases_model()
        distinct = assert_matches_scalar_path(
            tmp_path, model, fourier, [0.8, 1.1], m=300, trials=150, seed=13,
            box=[(0.3, 1.5), (0.3, 1.5)], resolution=41,
        )
        assert 1 < distinct < 150

    def test_one_row_blocks_match_scalar_path(self, tmp_path):
        # more nodes than TRIAL_BLOCK_ENTRIES: every log-likelihood block holds one tally
        assert_matches_scalar_path(
            tmp_path, phase_model(), X_BASIS, [1.0], m=5, trials=100, seed=8,
            box=[(0.2, 2.9)], resolution=TRIAL_BLOCK_ENTRIES + 1,
        )

    @settings(max_examples=25, deadline=None, derandomize=True, database=None)
    @given(seed=st.integers(0, 2**64 - 1), m=st.integers(5, 60),
           trials=st.integers(100, 300))
    def test_any_run_matches_scalar_path(self, tmp_path_factory, seed, m, trials):
        assert_matches_scalar_path(
            tmp_path_factory.mktemp("trials"), phase_model(), X_BASIS, [1.0], m=m,
            trials=trials, seed=seed, box=[(0.2, 2.9)], resolution=201,
        )

    def test_estimator_consistency_in_m(self):
        medians = []
        for m in [1000, 10_000, 100_000]:
            report = saturation_report(
                phase_model(),
                X_BASIS,
                [1.0],
                m=m,
                trials=100,
                seed=31,
                box=[(0.2, 2.9)],
                resolution=2001,
            )
            medians.append(np.median(np.abs(report.theta_hats[:, 0] - 1.0)))
        assert medians[0] > medians[1] > medians[2]
