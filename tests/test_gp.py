import math

import numpy as np
import pytest
from scipy.linalg import LinAlgError, cholesky
from scipy.spatial.distance import cdist

from searesponse import gp
from searesponse.distfit import DistFamily
from searesponse.errors import ConfigurationError, NumericError
from searesponse.orderstats import MODE_SAMPLE
from searesponse.surrogate import generate_from_moments, train_surrogate


def make_dataset(rng, n, noise=0.05, d=3):
    x = rng.uniform(0.0, 10.0, (n, d))
    y = np.sin(x[:, 0]) + 0.3 * x[:, 1] - 0.1 * (x[:, 2] - 5.0) ** 2 + rng.normal(0, noise, n)
    nv = np.full(n, noise**2)
    return x, y, nv


def covariance_system(model):
    """The model's K + diag(noise) + jitter I, in standardized units."""
    gram = gp.matern52_matrix(model.train_inputs, model.train_inputs, model.kernel)
    return gram + np.diag(model.noise_variances) + model.jitter * np.eye(len(gram))


# LML reached by the coordinate-wise golden-section search that L-BFGS-B
# replaced, on the conftest small_table at restarts=2 and
# seed=derive_seed(7, j); the count target is the same table column in
# every family.
RECORDED_TABLE_LML = {
    DistFamily.GUMBEL: {"mu": -27.577754, "beta": 14.207760, "l_count": 25.312297},
    DistFamily.RAYLEIGH: {"sigma": -19.596917, "l_count": 25.312297},
    DistFamily.WEIBULL: {"k": -27.393473, "lambda": -21.928737, "l_count": 25.312297},
}
LML_SLACK = 1e-3

# gp._factorize calls per family in train_surrogate(small_table, family,
# restarts=2, seed=7) while L-BFGS-B took scipy's finite-difference
# gradient (d + 2 = 5 factorizations per step), final conditioning included.
RECORDED_FD_FACTORIZATIONS = {DistFamily.GUMBEL: 706, DistFamily.RAYLEIGH: 394,
                              DistFamily.WEIBULL: 571}


def matern52(x, y, params):
    """Element-wise oracle for gp.matern52_matrix: the covariance between
    two points, sv * (1 + sqrt5 r + 5 r^2/3) exp(-sqrt5 r) with r the
    lengthscale-weighted Euclidean distance."""
    ell = np.asarray(params.lengthscales, dtype=float)
    r = math.sqrt(float(np.sum(((np.asarray(x, dtype=float) - y) / ell) ** 2)))
    sqrt5 = math.sqrt(5.0)
    return params.signal_variance * (1.0 + sqrt5 * r + 5.0 * r * r / 3.0) * math.exp(-sqrt5 * r)


def dense_oracle(model, x):
    """Reference posterior via an explicit matrix inverse."""
    inv = np.linalg.inv(covariance_system(model))
    xs = (np.asarray(x, dtype=float) - model.input_mean) / model.input_scale
    ks = gp.matern52_matrix(model.train_inputs, xs[None, :], model.kernel).ravel()
    mean_std = ks @ inv @ model.train_targets
    var = model.kernel.signal_variance - ks @ inv @ ks
    mean = model.target_mean + model.target_scale * mean_std
    std = model.target_scale * math.sqrt(max(var, 0.0))
    return mean, std


class TestMatern52:
    def test_zero_distance_gives_signal_variance(self):
        k = gp.KernelParams(signal_variance=2.3, lengthscales=(1.0, 2.0, 3.0))
        x = np.array([[0.5, -1.0, 4.0]])
        assert gp.matern52_matrix(x, x, k)[0, 0] == pytest.approx(2.3, rel=1e-14)

    def test_symmetry(self, rng):
        k = gp.KernelParams(signal_variance=1.7, lengthscales=(0.5, 1.5, 2.5))
        a, b = rng.normal(size=(20, 3)), rng.normal(size=(7, 3))
        np.testing.assert_array_equal(gp.matern52_matrix(a, b, k), gp.matern52_matrix(b, a, k).T)

    def test_unit_distance_value(self):
        # (1 + sqrt5 + 5/3) * exp(-sqrt5) evaluated independently
        expected = (1.0 + math.sqrt(5.0) + 5.0 / 3.0) * math.exp(-math.sqrt(5.0))
        k = gp.KernelParams(signal_variance=1.0, lengthscales=(1.0,))
        value = gp.matern52_matrix(np.array([[0.0]]), np.array([[1.0]]), k)[0, 0]
        assert value == pytest.approx(expected, rel=1e-12)
        assert value == pytest.approx(0.52399, abs=5e-6)
        assert matern52(np.array([0.0]), np.array([1.0]), k) == pytest.approx(expected, rel=1e-12)

    def test_matrix_matches_pairwise(self, rng):
        k = gp.KernelParams(signal_variance=0.8, lengthscales=(1.0, 0.4, 2.0))
        a = rng.normal(size=(6, 3))
        b = rng.normal(size=(4, 3))
        matrix = gp.matern52_matrix(a, b, k)
        for i in range(6):
            for j in range(4):
                assert matrix[i, j] == pytest.approx(matern52(a[i], b[j], k), rel=1e-12)

    @pytest.mark.parametrize("shape", [(1, 1), (7, 3), (40, 513), (310, 512)])
    def test_bits_match_the_closed_form(self, rng, shape):
        # The in-place build must keep every entry's bits: bundles and
        # posterior means are byte-identical to the closed form's.
        k = gp.KernelParams(signal_variance=float(rng.uniform(0.1, 5.0)),
                            lengthscales=tuple(rng.uniform(0.05, 3.0, 3)))
        a, b = rng.normal(size=(shape[0], 3)), rng.normal(size=(shape[1], 3))
        b[: min(shape) // 2 + 1] = a[: min(shape) // 2 + 1]  # coincident points, r = 0
        ell = np.asarray(k.lengthscales)
        r = cdist(a / ell, b / ell)
        assert (r == 0.0).any()
        closed = (k.signal_variance * (1.0 + math.sqrt(5.0) * r + 5.0 / 3.0 * r * r)
                  * np.exp(-math.sqrt(5.0) * r))
        assert gp.matern52_matrix(a, b, k).tobytes() == closed.tobytes()

    def test_gram_matrices_positive_definite(self, rng):
        k = gp.KernelParams(signal_variance=1.0, lengthscales=(1.0, 1.0, 1.0))
        for _ in range(10):
            pts = rng.uniform(0, 5, (int(rng.integers(5, 60)), 3))
            gram = gp.matern52_matrix(pts, pts, k)
            factor, _ = gp._factorize(gram, np.zeros(len(pts)))
            assert np.all(np.diag(factor) > 0.0)

    def test_invalid_params_rejected(self):
        with pytest.raises(ConfigurationError):
            gp.KernelParams(signal_variance=0.0, lengthscales=(1.0,))
        with pytest.raises(ConfigurationError):
            gp.KernelParams(signal_variance=1.0, lengthscales=(1.0, -2.0))

    @pytest.mark.parametrize("signal_variance,lengthscales", [
        (math.nan, (1.0, 1.0, 1.0)), (math.inf, (1.0, 1.0, 1.0)),
        (1.0, (1.0, math.nan, 1.0)), (1.0, (1.0, math.inf, 1.0))])
    def test_non_finite_params_rejected(self, signal_variance, lengthscales):
        with pytest.raises(ConfigurationError, match="positive and finite"):
            gp.KernelParams(signal_variance, lengthscales)


class TestTrain:
    def test_two_point_interpolation(self):
        x = np.array([[0.0, 0.0, 0.0], [1.0, 2.0, 3.0]])
        y = np.array([1.0, -2.0])
        model = gp.train(x, y, np.zeros(2), gp.KernelParams(1.0, (1.0, 1.0, 1.0)))
        for i in range(2):
            assert gp.predict_batch(model, x[i])[0][0] == pytest.approx(y[i], abs=1e-6)

    def test_duplicate_inputs_conflicting_targets_singular(self):
        x = np.array([[1.0, 1.0, 1.0], [1.0, 1.0, 1.0], [2.0, 0.0, 1.0]])
        y = np.array([1.0, 2.0, 0.0])
        with pytest.raises(NumericError):
            gp.train(x, y, np.zeros(3), gp.KernelParams(1.0, (1.0, 1.0, 1.0)))

    def test_duplicate_inputs_with_noise_allowed(self):
        x = np.array([[1.0, 1.0, 1.0], [1.0, 1.0, 1.0], [2.0, 0.0, 1.0]])
        y = np.array([1.0, 2.0, 0.0])
        model = gp.train(x, y, np.full(3, 0.1), gp.KernelParams(1.0, (1.0, 1.0, 1.0)))
        assert np.isfinite(gp.predict_batch(model, x[0])[0][0])

    def test_factor_reconstructs_covariance(self, rng):
        x, y, nv = make_dataset(rng, 40)
        model = gp.train(x, y, nv, gp.KernelParams(1.2, (1.0, 2.0, 1.5)))
        target = covariance_system(model)
        factor = cholesky(target, lower=True)
        rebuilt = factor @ factor.T
        rel = np.linalg.norm(rebuilt - target) / np.linalg.norm(target)
        assert rel < 1e-8
        # The model keeps the inverse of this factor for prediction.
        np.testing.assert_allclose(model.factor_inverse @ factor, np.eye(len(factor)),
                                   rtol=0.0, atol=1e-8)

    def test_weights_solve_system(self, rng):
        x, y, nv = make_dataset(rng, 30)
        model = gp.train(x, y, nv, gp.KernelParams(1.0, (1.0, 1.0, 1.0)))
        residual = np.linalg.norm(covariance_system(model) @ model.weights - model.train_targets)
        assert residual / np.linalg.norm(model.train_targets) < 1e-8


class TestPredict:
    def test_interpolates_noise_free_training_point(self, rng):
        x, y, _ = make_dataset(rng, 25, noise=0.0)
        model = gp.train(x, y, np.zeros(25), gp.KernelParams(1.0, (1.0, 1.0, 1.0)))
        [mean], [std] = gp.predict_batch(model, x[7])
        assert mean == pytest.approx(y[7], abs=1e-6 * max(1.0, abs(y[7])))
        prior_std = model.target_scale * math.sqrt(model.kernel.signal_variance)
        assert std < 1e-3 * prior_std

    def test_reverts_to_prior_far_away(self, rng):
        x, y, nv = make_dataset(rng, 30)
        model = gp.train(x, y, nv, gp.KernelParams(1.0, (1.0, 1.0, 1.0)))
        far = np.array([1e4, -1e4, 1e4])
        [mean], [std] = gp.predict_batch(model, far)
        prior_std = model.target_scale * math.sqrt(model.kernel.signal_variance)
        assert abs(mean - model.target_mean) < 1e-3 * max(1.0, abs(model.target_mean))
        assert abs(std - prior_std) < 1e-3 * prior_std

    def test_matches_dense_oracle(self, rng):
        for _ in range(20):
            n = int(rng.integers(10, 120))
            x, y, nv = make_dataset(rng, n, noise=float(rng.uniform(0.01, 0.3)))
            kernel = gp.KernelParams(float(rng.uniform(0.3, 3.0)),
                                     tuple(rng.uniform(0.3, 3.0, 3)))
            model = gp.train(x, y, nv, kernel)
            for _ in range(3):
                q = rng.uniform(-2, 12, 3)
                [got_mean], [got_std] = gp.predict_batch(model, q)
                mean, std = dense_oracle(model, q)
                assert got_mean == pytest.approx(mean, rel=1e-6, abs=1e-9)
                assert got_std == pytest.approx(std, rel=1e-6, abs=1e-9)

    def test_posterior_variance_below_prior(self, rng):
        x, y, nv = make_dataset(rng, 50)
        model = gp.train(x, y, nv, gp.KernelParams(1.4, (0.8, 1.2, 2.0)))
        prior_var = model.kernel.signal_variance * model.target_scale**2
        for _ in range(50):
            _, [std] = gp.predict_batch(model, rng.uniform(-5, 15, 3))
            assert std**2 <= prior_var + 1e-8

    def test_extra_point_never_increases_variance(self, rng):
        # The prior must stay fixed for this monotonicity to hold, so both
        # models share identity standardization.
        identity = dict(input_mean=np.zeros(3), input_scale=np.ones(3),
                        target_mean=0.0, target_scale=1.0)
        for _ in range(10):
            x, y, _ = make_dataset(rng, 20, noise=0.0)
            kernel = gp.KernelParams(1.0, (1.5, 1.5, 1.5))
            small = gp._assemble(kernel, x[:-1], y[:-1], np.zeros(19), **identity)
            big = gp._assemble(kernel, x, y, np.zeros(20), **identity)
            for _ in range(5):
                q = rng.uniform(0, 10, 3)
                assert gp.predict_batch(big, q)[1][0] <= gp.predict_batch(small, q)[1][0] + 1e-8

    def test_standardization_affine_round_trip(self, rng):
        x, y, nv = make_dataset(rng, 40)
        kernel = gp.KernelParams(1.0, (1.0, 1.0, 1.0))
        a, b = 3.7, -250.0
        base = gp.train(x, y, nv, kernel)
        scaled = gp.train(x, a * y + b, a * a * nv, kernel)
        for _ in range(10):
            q = rng.uniform(0, 10, 3)
            [mean0], [std0] = gp.predict_batch(base, q)
            [mean1], [std1] = gp.predict_batch(scaled, q)
            assert mean1 == pytest.approx(a * mean0 + b, rel=1e-6)
            assert std1 == pytest.approx(abs(a) * std0, rel=1e-6)

    def test_include_noise_widens_interval(self, rng):
        x, y, nv = make_dataset(rng, 30, noise=0.5)
        model = gp.train(x, y, nv, gp.KernelParams(1.0, (1.0, 1.0, 1.0)))
        q = rng.uniform(0, 10, 3)
        assert gp.predict_batch(model, q, include_noise=True)[1][0] > gp.predict_batch(model, q)[1][0]


def posterior_draws(model, q, seed, n=1):
    """n draws from the predictive Gaussian at q through the surrogate
    sampling path: the GP's moments at q serve as a Gumbel location (a
    parameter without a floor) at each of n hours of one realization."""
    [mean], [std] = gp.predict_batch(model, q)
    moments = np.tile([mean, 1.0, 0.0], (n, 1)), np.tile([std, 0.0, 0.0], (n, 1))
    draw = generate_from_moments(DistFamily.GUMBEL, moments, MODE_SAMPLE,
                                 np.random.default_rng(seed), k=1)
    return draw.theta[:, 0]


class TestSamplePosterior:
    def test_near_zero_std_returns_mean(self, rng):
        x, y, _ = make_dataset(rng, 15, noise=0.0)
        model = gp.train(x, y, np.zeros(15), gp.KernelParams(1.0, (1.0, 1.0, 1.0)))
        [mean], [std] = gp.predict_batch(model, x[3])
        prior_std = model.target_scale * math.sqrt(model.kernel.signal_variance)
        assert std < 1e-3 * prior_std
        draw = posterior_draws(model, x[3], seed=99)[0]
        assert abs(draw - mean) <= 5.0 * std

    def test_exactly_zero_std_is_degenerate_draw(self):
        rng = np.random.default_rng(0)
        assert rng.normal(3.5, 0.0) == 3.5

    def test_deterministic(self, rng):
        x, y, nv = make_dataset(rng, 15)
        model = gp.train(x, y, nv, gp.KernelParams(1.0, (1.0, 1.0, 1.0)))
        q = np.array([5.0, 5.0, 5.0])
        assert posterior_draws(model, q, seed=1) == posterior_draws(model, q, seed=1)
        assert posterior_draws(model, q, seed=1) != posterior_draws(model, q, seed=2)

    def test_monte_carlo_closure(self, rng):
        x, y, nv = make_dataset(rng, 5, noise=0.4)
        model = gp.train(x, y, nv, gp.KernelParams(1.0, (1.0, 1.0, 1.0)))
        q = np.array([4.0, 6.0, 5.0])
        [mean], [std] = gp.predict_batch(model, q)
        draws = posterior_draws(model, q, seed=0, n=100_000)
        assert draws.mean() == pytest.approx(mean, abs=0.01 * max(abs(mean), std))
        assert draws.std() == pytest.approx(std, rel=0.01)


def log_bounds(dim):
    sv = [math.log(b) for b in gp.SIGNAL_VARIANCE_BOUNDS]
    ell = [math.log(b) for b in gp.LENGTHSCALE_BOUNDS]
    return np.array([sv] + [ell] * dim)


class TestLMLGradient:
    """The objective L-BFGS-B minimizes returns -LML and its analytic
    gradient over (log signal variance, log lengthscales)."""

    STEP = 1e-5

    def check(self, x, y, nv, log_vec):
        inputs_std, targets_std, noise_std, *_ = gp._standardize(x, y, nv)
        objective = gp._LMLObjective(inputs_std, targets_std, noise_std)
        value, grad = objective(log_vec)
        kernel = gp.KernelParams(math.exp(log_vec[0]), tuple(np.exp(log_vec[1:])))
        lml = gp.log_marginal_likelihood(inputs_std, targets_std, noise_std, kernel)
        assert -value == pytest.approx(lml, rel=1e-10)
        central = np.array([(objective(log_vec + self.STEP * e)[0]
                             - objective(log_vec - self.STEP * e)[0]) / (2.0 * self.STEP)
                            for e in np.eye(len(log_vec))])
        np.testing.assert_allclose(grad, central, rtol=1e-5, atol=1e-5 * np.abs(central).max())

    def test_anchor(self, rng):
        self.check(*make_dataset(rng, 60, noise=0.2), np.zeros(4))

    def test_random_points_inside_bounds(self, rng):
        x, y, nv = make_dataset(rng, 50, noise=0.1)
        bounds = log_bounds(3)
        for _ in range(6):
            self.check(x, y, nv, rng.uniform(bounds[:, 0], bounds[:, 1]))

    def test_points_on_bounds(self, rng):
        x, y, nv = make_dataset(rng, 50, noise=0.1)
        bounds = log_bounds(3)
        for corner in ([0, 0, 0, 0], [1, 1, 1, 1], [1, 0, 1, 0], [0, 1, 1, 0]):
            self.check(x, y, nv, bounds[np.arange(4), corner])

    def test_heteroscedastic_noise(self, rng):
        x, y, _ = make_dataset(rng, 60, noise=0.1)
        nv = rng.uniform(1e-4, 0.5, len(y))
        for log_vec in (np.zeros(4), np.array([1.0, -0.7, 0.4, 1.5])):
            self.check(x, y, nv, log_vec)

    def test_escalated_jitter(self, rng, monkeypatch):
        # Near-duplicate inputs with zero noise leave A with eigenvalues of
        # the order of the jitter, so the jitter's share of dA/dlog(sv)
        # moves the gradient. Cholesky never fails at the first jitter on a
        # Matern Gram of this size, so the first attempt of each
        # factorization is refused to make _factorize escalate once.
        x = rng.uniform(0.0, 10.0, (20, 3))
        x = np.vstack([x, x + rng.normal(0.0, 1e-3, x.shape)])
        y = np.sin(x[:, 0]) + 0.3 * x[:, 1]
        nv = np.zeros(len(y))
        attempts = []

        def first_attempt_fails(system, **kwargs):
            attempts.append(1)
            if len(attempts) % 2:
                raise LinAlgError("refused")
            return cholesky(system, **kwargs)

        monkeypatch.setattr(gp, "cholesky", first_attempt_fails)
        parts = gp._standardize(x, y, nv)
        gram = gp.matern52_matrix(parts[0], parts[0], gp.KernelParams(1.0, (1.0, 1.0, 1.0)))
        assert gp._factorize(gram, parts[2])[1] == pytest.approx(
            gp.JITTER_INITIAL * gp.JITTER_GROWTH)
        for log_vec in (np.zeros(4), np.array([0.8, 0.5, 0.2, 1.0])):
            self.check(x, y, nv, log_vec)

    def test_unfactorizable_point_never_wins(self, rng, monkeypatch):
        def unfactorizable(k_matrix, noise_variances):
            raise NumericError("covariance factorization failed")

        x, y, nv = make_dataset(rng, 30)
        monkeypatch.setattr(gp, "_factorize", unfactorizable)
        objective = gp._LMLObjective(*gp._standardize(x, y, nv)[:3])
        assert objective(np.zeros(4))[0] == math.inf
        with pytest.raises(NumericError, match="hyperparameter search failed"):
            gp.fit_hyperparams(x, y, nv, restarts=2, seed=1)


class TestFitHyperparams:
    def test_recovers_lengthscales_within_factor_two(self):
        rng = np.random.default_rng(321)
        n = 150
        x = rng.uniform(0, 10, (n, 3))
        truth = gp.KernelParams(1.0, (2.0, 2.0, 2.0))
        gram = gp.matern52_matrix(x, x, truth) + 1e-10 * np.eye(n)
        f = np.linalg.cholesky(gram) @ rng.standard_normal(n)
        y = f + rng.normal(0.0, 0.1, n)
        fitted = gp.fit_hyperparams(x, y, np.full(n, 0.01), restarts=2, seed=5)
        recovered = np.array(fitted.lengthscales) * x.std(axis=0)
        assert np.all(recovered > 1.0) and np.all(recovered < 4.0)

    def test_result_beats_anchor_initialization(self, rng):
        x, y, nv = make_dataset(rng, 60, noise=0.2)
        fitted = gp.fit_hyperparams(x, y, nv, restarts=1, seed=3)
        parts = gp._standardize(x, y, nv)
        anchor = gp.KernelParams(1.0, (1.0, 1.0, 1.0))
        lml_anchor = gp.log_marginal_likelihood(parts[0], parts[1], parts[2], anchor)
        lml_fit = gp.log_marginal_likelihood(parts[0], parts[1], parts[2], fitted)
        assert lml_fit >= lml_anchor
        # The coordinate search reached -22.668617 here.
        assert lml_fit >= -22.668617 - LML_SLACK

    @pytest.mark.parametrize("family", list(DistFamily), ids=lambda f: f.value)
    def test_lml_not_below_recorded_search(self, small_table, family):
        model = train_surrogate(small_table, family, restarts=2, seed=7)
        fitted = model.models
        recorded = RECORDED_TABLE_LML[family]
        assert set(fitted) == set(recorded)
        for name, m in fitted.items():
            lml = gp.log_marginal_likelihood(m.train_inputs, m.train_targets,
                                             m.noise_variances, m.kernel)
            assert lml >= recorded[name] - LML_SLACK, name

    @pytest.mark.parametrize("family", list(DistFamily), ids=lambda f: f.value)
    def test_analytic_gradient_cuts_factorizations(self, small_table, family, monkeypatch):
        calls = []
        factorize = gp._factorize

        def counted(*args):
            calls.append(1)
            return factorize(*args)

        monkeypatch.setattr(gp, "_factorize", counted)
        train_surrogate(small_table, family, restarts=2, seed=7)
        # Same targets on both sides, so 3x fewer in total is 3x fewer per target.
        assert 3 * len(calls) <= RECORDED_FD_FACTORIZATIONS[family]

    def test_shuffled_targets_learn_no_signal(self):
        # No-signal control: with honest noise levels the fitted model's
        # mean surface must be flat; the optimizer may express "no signal"
        # either through bound-length lengthscales or a collapsed signal
        # variance.
        rng = np.random.default_rng(17)
        x, y, _ = make_dataset(rng, 200, noise=0.05)
        shuffled = rng.permutation(y)
        nv = np.full(len(y), float(np.var(shuffled)))
        fitted = gp.fit_hyperparams(x, shuffled, nv, restarts=3, seed=6)
        model = gp.train(x, shuffled, nv, fitted)
        queries = rng.uniform(0, 10, (60, 3))
        means, _ = gp.predict_batch(model, queries)
        assert means.std() < 0.2 * shuffled.std()
        assert (fitted.signal_variance < 0.2
                or max(fitted.lengthscales) > 0.5 * gp.LENGTHSCALE_BOUNDS[1])

    def test_too_few_points_rejected(self, rng):
        x, y, nv = make_dataset(rng, 4)
        with pytest.raises(ConfigurationError):
            gp.fit_hyperparams(x, y, nv)


def longdouble_variance(model, points_std):
    """Epistemic variance sv - |v|^2 with L v = k* solved by forward
    substitution in np.longdouble, from the float64 Cholesky factor of the
    model's covariance system."""
    factor = cholesky(covariance_system(model), lower=True).astype(np.longdouble)
    kstar = gp.matern52_matrix(model.train_inputs, points_std, model.kernel).astype(np.longdouble)
    v = np.empty_like(kstar)
    for i in range(len(factor)):
        v[i] = (kstar[i] - factor[i, :i] @ v[:i]) / factor[i, i]
    return np.longdouble(model.kernel.signal_variance) - np.sum(v * v, axis=0)


class TestPredictAcrossBlocks:
    @pytest.fixture(scope="class")
    def ill_conditioned(self):
        # Nearly noise-free targets on a dense design: cond(L) is large, so a
        # careless variance shows up well above double rounding.
        rng = np.random.default_rng(5)
        x, y, _ = make_dataset(rng, 100, noise=1e-4)
        model = gp.train(x, y, np.full(100, 1e-8),
                         gp.KernelParams(signal_variance=1.0, lengthscales=(2.5, 3.0, 3.5)))
        points = rng.uniform(0.0, 10.0, (2 * gp.PREDICT_BLOCK_ROWS + 76, 3))
        return model, points

    def test_factor_is_ill_conditioned(self, ill_conditioned):
        model, points = ill_conditioned
        assert np.linalg.cond(cholesky(covariance_system(model), lower=True)) >= 1e3
        assert len(points) > 2 * gp.PREDICT_BLOCK_ROWS

    def test_variance_matches_extended_precision(self, ill_conditioned):
        model, points = ill_conditioned
        _, std = gp.predict_batch(model, points)
        var = (std / model.target_scale) ** 2
        want = longdouble_variance(model, (points - model.input_mean) / model.input_scale)
        assert (want > 0.0).all()
        np.testing.assert_allclose(var, want.astype(float), rtol=1e-8, atol=0.0)

    def test_means_are_the_weighted_kernel_sum(self, ill_conditioned):
        model, points = ill_conditioned
        mean, _ = gp.predict_batch(model, points)
        kstar = gp.matern52_matrix(model.train_inputs,
                                   (points - model.input_mean) / model.input_scale, model.kernel)
        want = model.target_mean + model.target_scale * (kstar.T @ model.weights)
        assert mean.tobytes() == want.tobytes()

    def test_saved_model_predicts_the_same_bits(self, ill_conditioned, tmp_path):
        model, points = ill_conditioned
        gp.save_model(tmp_path / "model.json", model)
        loaded = gp.load_model(tmp_path / "model.json")
        for got, want in zip(gp.predict_batch(loaded, points), gp.predict_batch(model, points)):
            assert got.tobytes() == want.tobytes()


class TestPersistence:
    def test_round_trip_reproduces_predictions(self, tmp_path, rng):
        x, y, nv = make_dataset(rng, 50, noise=0.1)
        kernel = gp.fit_hyperparams(x, y, nv, restarts=1, seed=0)
        model = gp.train(x, y, nv, kernel)
        path = tmp_path / "model.json"
        gp.save_model(path, model)
        loaded = gp.load_model(path)
        for _ in range(20):
            q = rng.uniform(-2, 12, 3)
            [mean_a], [std_a] = gp.predict_batch(model, q)
            [mean_b], [std_b] = gp.predict_batch(loaded, q)
            assert abs(mean_a - mean_b) <= 1e-10 * max(1.0, abs(mean_a))
            assert abs(std_a - std_b) <= 1e-10 * max(1.0, std_a)

    def test_version_check(self, tmp_path):
        path = tmp_path / "model.json"
        path.write_text('{"format_version": 99}')
        from searesponse.errors import SchemaError
        with pytest.raises(SchemaError):
            gp.load_model(path)

    def test_subsample_cap(self):
        idx = gp.subsample_cap(10, 20, seed=1)
        np.testing.assert_array_equal(idx, np.arange(10))
        capped = gp.subsample_cap(100, 20, seed=1)
        assert len(capped) == 20
        assert len(np.unique(capped)) == 20
        np.testing.assert_array_equal(capped, gp.subsample_cap(100, 20, seed=1))
