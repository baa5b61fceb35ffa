import numpy as np
import pytest
from scipy.special import logsumexp

from qsense.core import (
    DensityMatrix,
    HermitianOperator,
    NumericalError,
    PAULI_Z,
    POVM,
    ValidationError,
    identity,
    projective_measurement,
)
from qsense.bayes import (
    PosteriorGrid,
    _logsumexp,
    asymptotic_check,
    bayes_covariance,
    bayes_update,
    likelihood_table,
    posterior_mean,
    posterior_mode,
    posterior_spread,
    uniform_prior,
)
from qsense.estimation import sample_outcomes, trial_generator
from qsense.model import finite_difference_model, unitary_family

PLUS = DensityMatrix(np.full((2, 2), 0.5, dtype=complex))
X_BASIS = projective_measurement(
    [np.array([1, 1]) / np.sqrt(2), np.array([1, -1]) / np.sqrt(2)]
)


def half(op):
    return HermitianOperator(op.entries / 2)


def phase_model():
    return unitary_family(PLUS, [half(PAULI_Z)])


FLAT_POVM = POVM((HermitianOperator(np.eye(2) / 2), HermitianOperator(np.eye(2) / 2)))


class TestUpdate:
    def test_constant_likelihood_keeps_posterior(self):
        prior = uniform_prior([(0.2, 2.0)], 101)
        post = bayes_update(prior, phase_model(), FLAT_POVM, 0)
        assert np.abs(post.weights - prior.weights).max() < 1e-15

    def test_zero_likelihood_region_is_eliminated(self):
        # at theta = 0 the minus outcome never fires; observing it kills that node
        axes = (np.array([0.0, np.pi]),)
        prior = PosteriorGrid(axes, np.log(np.array([0.5, 0.5])))
        post = bayes_update(prior, phase_model(), X_BASIS, 0)
        assert abs(post.weights[0] - 1.0) < 1e-12
        assert post.weights[1] < 1e-12

    def test_sequential_equals_batched(self):
        model = phase_model()
        prior = uniform_prior([(0.2, 2.9)], 501)
        table = likelihood_table(model, X_BASIS, prior.axes)
        outcomes = [0, 1, 0]
        post = prior
        for k in outcomes:
            post = bayes_update(post, model, X_BASIS, k, table=table)
        with np.errstate(divide="ignore"):
            lw = prior.log_weights + sum(np.log(table[k]) for k in outcomes)
        lw -= np.log(np.exp(lw - lw.max()).sum()) + lw.max()
        batched = PosteriorGrid(prior.axes, lw)
        assert np.abs(post.weights - batched.weights).max() < 1e-12

    def test_update_order_invariance(self):
        model = phase_model()
        prior = uniform_prior([(0.2, 2.9)], 301)
        table = likelihood_table(model, X_BASIS, prior.axes)
        seq = [0, 0, 1, 0, 1, 1, 0]
        post1, post2 = prior, prior
        for k in seq:
            post1 = bayes_update(post1, model, X_BASIS, k, table=table)
        for k in reversed(seq):
            post2 = bayes_update(post2, model, X_BASIS, k, table=table)
        assert np.abs(post1.weights - post2.weights).max() < 1e-12

    def test_normalisation_after_every_update(self):
        model = phase_model()
        prior = uniform_prior([(0.2, 2.9)], 201)
        table = likelihood_table(model, X_BASIS, prior.axes)
        rng = trial_generator(0)
        post = prior
        for _ in range(50):
            post = bayes_update(post, model, X_BASIS, int(rng.integers(2)), table=table)
            assert abs(post.weights.sum() - 1.0) < 1e-10

    def test_impossible_outcome_raises(self):
        dead = POVM((identity(2), HermitianOperator(np.zeros((2, 2)))))
        prior = uniform_prior([(0.2, 2.0)], 51)
        with pytest.raises(NumericalError, match="impossible"):
            bayes_update(prior, phase_model(), dead, 1)


class TestLogSumExp:
    def test_all_minus_infinity_gives_minus_infinity(self):
        with np.errstate(all="raise"):
            assert _logsumexp(np.full((3, 4), -np.inf)) == -np.inf

    def test_matches_scipy(self):
        rng = np.random.default_rng(3)
        for shape in [(1,), (7,), (5, 6), (3, 4, 5)]:
            for scale in [1e-3, 1.0, 50.0, 700.0]:
                lw = rng.normal(scale=scale, size=shape) + rng.normal(scale=scale)
                if lw.size > 1:
                    lw.flat[0] = -np.inf  # a node the data has ruled out
                ref = float(logsumexp(lw))
                assert abs(_logsumexp(lw) - ref) <= 1e-14 * max(1.0, abs(ref))


class TestCovariance:
    def test_delta_posterior(self):
        axes = (np.linspace(0.0, 1.0, 11),)
        lw = np.full(11, -np.inf)
        lw[4] = 0.0
        post = PosteriorGrid(axes, lw)
        cov = bayes_covariance(post, [axes[0][4]])
        assert np.abs(cov).max() == 0.0

    def test_uniform_second_moment(self):
        a, b = 0.3, 1.7
        post = uniform_prior([(a, b)], 2001)
        cov = bayes_covariance(post, [(a + b) / 2])
        exact = (b - a) ** 2 / 12.0
        assert abs(cov[0, 0] - exact) / exact < 1e-4

    def test_covariance_is_symmetric_psd(self):
        rng = np.random.default_rng(3)
        axes = (np.linspace(0, 1, 21), np.linspace(-1, 1, 17))
        lw = rng.normal(size=(21, 17))
        lw -= np.log(np.exp(lw).sum())
        post = PosteriorGrid(axes, lw)
        cov = bayes_covariance(post, [0.5, 0.0])
        assert np.abs(cov - cov.T).max() < 1e-14
        assert np.linalg.eigvalsh(cov).min() >= -1e-14

    def test_spread_uses_posterior_mean(self):
        post = uniform_prior([(0.0, 1.0)], 101)
        spread = posterior_spread(post)
        shifted = bayes_covariance(post, [0.9])
        assert spread[0, 0] < shifted[0, 0]


class TestAsymptoticCheck:
    def test_no_data_returns_prior_covariance(self):
        box = [(0.2, 2.0)]
        report = asymptotic_check(phase_model(), X_BASIS, [1.1], m=0, seed=0, box=box)
        prior = uniform_prior(box)
        lo, hi = box[0]
        # true value at the midpoint makes this the prior variance
        expected = bayes_covariance(prior, [1.1])
        assert abs(report.covariance[0, 0] - expected[0, 0]) < 1e-12
        assert report.pre_asymptotic

    def test_posterior_shrinks_toward_information_limit(self):
        report = asymptotic_check(
            phase_model(), X_BASIS, [1.0], m=4000, seed=0, box=[(0.2, 2.9)]
        )
        # the covariance about the true value carries the (mean - truth)^2 of
        # this data realisation on top of the posterior spread
        assert 0.9 < report.ratio[0, 0] < 1.1
        offset = (report.mean[0] - 1.0) ** 2
        spread = report.covariance[0, 0] - offset
        assert 0.95 < spread / report.crb_matrix[0, 0] < 1.05
        assert report.gaussian_residual < 0.05

    def test_mode_coverage(self):
        inside = 0
        runs = 100
        for seed in range(runs):
            report = asymptotic_check(
                phase_model(), X_BASIS, [1.0], m=400, seed=seed, box=[(0.2, 2.9)],
                resolution=501,
            )
            sigma = np.sqrt(report.covariance[0, 0])
            if abs(report.mode[0] - 1.0) <= 3 * sigma:
                inside += 1
        assert inside >= 99

    def test_outcomes_reproducible(self):
        a = asymptotic_check(phase_model(), X_BASIS, [0.9], m=50, seed=4, box=[(0.2, 2.9)],
                             resolution=201)
        b = asymptotic_check(phase_model(), X_BASIS, [0.9], m=50, seed=4, box=[(0.2, 2.9)],
                             resolution=201)
        assert np.array_equal(a.outcomes, b.outcomes)
        assert np.abs(a.covariance - b.covariance).max() == 0.0

    def test_snapshots_match_sequential_updates(self):
        model = phase_model()
        box = [(0.2, 2.9)]
        m, every = 157, 10
        snaps = {}
        report = asymptotic_check(
            model, X_BASIS, [1.0], m=m, seed=3, box=box, resolution=301,
            on_step=lambda step, post: snaps.__setitem__(step, post), snapshot_every=every,
        )
        prior = uniform_prior(box, 301)
        table = likelihood_table(model, X_BASIS, prior.axes)
        post = prior
        for step, k in enumerate(report.outcomes, start=1):
            post = bayes_update(post, model, X_BASIS, int(k), table=table)
            if step in snaps:
                assert np.abs(snaps[step].weights - post.weights).max() < 1e-12
        assert np.abs(report.mode - posterior_mode(post)).max() == 0.0
        assert np.abs(report.mean - posterior_mean(post)).max() < 1e-12

    @pytest.mark.parametrize(
        "m, every", [(12, None), (25, 1), (25, 5), (23, 5), (7, 10), (30, 30)]
    )
    def test_on_step_fires_at_snapshot_steps(self, m, every):
        steps = []
        asymptotic_check(
            phase_model(), X_BASIS, [1.0], m=m, seed=1, box=[(0.2, 2.9)], resolution=51,
            on_step=lambda step, post: steps.append(step),
            **({} if every is None else {"snapshot_every": every}),
        )
        every = every or 1  # the default reports every step
        assert steps == [k for k in range(1, m + 1) if k % every == 0 or k == m]

    def test_snapshot_every_must_be_positive(self):
        with pytest.raises(ValidationError, match="snapshot_every"):
            asymptotic_check(
                phase_model(), X_BASIS, [1.0], m=5, seed=1, box=[(0.2, 2.9)],
                resolution=51, snapshot_every=0,
            )

    def test_emptied_posterior_raises(self):
        # outcome 1 is certain at the true value and impossible on the whole box
        up = DensityMatrix(np.diag([1.0, 0.0]).astype(complex))
        down = DensityMatrix(np.diag([0.0, 1.0]).astype(complex))
        model = finite_difference_model(1, 2, lambda th: up if th[0] < 5.0 else down)
        z_basis = projective_measurement([np.array([1, 0]), np.array([0, 1])])
        for on_step in (None, lambda step, post: None):
            with pytest.raises(NumericalError, match="vanished"):
                asymptotic_check(
                    model, z_basis, [6.0], m=5, seed=0, box=[(0.0, 1.0)], resolution=11,
                    on_step=on_step,
                )

    def test_long_run_keeps_its_mass(self):
        # the total log-likelihood of m = 4000 outcomes is far below log(MASS_FLOOR)
        report = asymptotic_check(
            phase_model(), X_BASIS, [1.0], m=4000, seed=2, box=[(0.2, 2.9)], resolution=201,
        )
        assert np.isfinite(report.covariance).all()
