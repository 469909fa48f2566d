import math

import numpy as np
import pytest
from scipy import optimize, stats

from searesponse import distfit
from searesponse.distfit import (
    DistFamily,
    TrainingTable,
    build_training_table,
    fit_family,
    fit_gumbel,
    fit_rayleigh,
    fit_runs,
    fit_weibull,
    load_training_table,
    write_training_table,
)
from searesponse.errors import (
    ConfigurationError,
    DegenerateFitError,
    DomainError,
    InsufficientDataError,
    NumericError,
    ParseError,
)
from searesponse.seeding import TAG_SIM, derive_seed
from searesponse.simulator import SimOutput, simulate
from searesponse.weather import Weather, sample_uniform_inputs

from loglik import LOGLIKS, gumbel_loglik, rayleigh_loglik, weibull_loglik

EULER_GAMMA = 0.5772156649015329


class TestRayleigh:
    def test_closed_form_on_ones(self):
        (sigma,) = fit_rayleigh([1.0, 1.0, 1.0, 1.0])
        assert sigma == pytest.approx(math.sqrt(0.5), abs=1e-12)

    def test_monte_carlo_consistency(self):
        rng = np.random.default_rng(100)
        data = rng.rayleigh(2.0, 100_000)
        (sigma,) = fit_rayleigh(data)
        assert 1.98 <= sigma <= 2.02

    def test_empty_sample(self):
        with pytest.raises(InsufficientDataError):
            fit_rayleigh([])

    def test_single_value(self):
        with pytest.raises(InsufficientDataError):
            fit_rayleigh([1.0])

    def test_nonpositive_value(self):
        with pytest.raises(DomainError):
            fit_rayleigh([1.0, -0.5, 2.0])

    def test_agrees_with_scipy(self):
        rng = np.random.default_rng(4)
        data = rng.rayleigh(3.7, 5000)
        (sigma,) = fit_rayleigh(data)
        _, scale = stats.rayleigh.fit(data, floc=0)
        assert sigma == pytest.approx(scale, rel=1e-6)

    def test_loglik_matches_scipy(self, rng):
        data = rng.rayleigh(1.5, 500)
        (sigma,) = fit_rayleigh(data)
        expected = float(np.sum(stats.rayleigh.logpdf(data, 0.0, sigma)))
        assert rayleigh_loglik(data, sigma) == pytest.approx(expected, rel=1e-10)


class TestGumbel:
    def test_constant_data_degenerate(self):
        with pytest.raises(DegenerateFitError):
            fit_gumbel([2.0, 2.0, 2.0])

    def test_recovers_table_scale_parameters(self):
        # Generating values match the first training-table row.
        rng = np.random.default_rng(2024)
        data = rng.gumbel(75371.0, 20983.0, 100_000)
        mu, beta = fit_gumbel(data)
        assert mu == pytest.approx(75371.0, rel=0.01)
        assert beta == pytest.approx(20983.0, rel=0.01)

    def test_likelihood_beats_moment_estimate(self, rng):
        for _ in range(20):
            data = rng.gumbel(rng.uniform(-5, 5), rng.uniform(0.5, 3.0), 200)
            fit = fit_gumbel(data)
            s = data.std(ddof=1)
            beta0 = s * math.sqrt(6.0) / math.pi
            mu0 = data.mean() - EULER_GAMMA * beta0
            assert gumbel_loglik(data, *fit) >= gumbel_loglik(data, mu0, beta0) - 1e-6

    def test_agrees_with_scipy(self):
        rng = np.random.default_rng(8)
        data = rng.gumbel(10.0, 2.5, 5000)
        mu, beta = fit_gumbel(data)
        loc, scale = stats.gumbel_r.fit(data)
        assert mu == pytest.approx(loc, rel=1e-4)
        assert beta == pytest.approx(scale, rel=1e-4)

    def test_loglik_matches_scipy(self, rng):
        data = rng.gumbel(3.0, 1.5, 500)
        mu, beta = fit_gumbel(data)
        expected = float(np.sum(stats.gumbel_r.logpdf(data, mu, beta)))
        assert gumbel_loglik(data, mu, beta) == pytest.approx(expected, rel=1e-10)


class TestWeibull:
    def test_recovers_rayleigh_equivalent_shape(self):
        # Weibull(k=2, lambda=sigma*sqrt(2)) is the Rayleigh(sigma) law.
        rng = np.random.default_rng(55)
        sigma = 2.0
        data = sigma * math.sqrt(2.0) * rng.weibull(2.0, 100_000)
        k, lam = fit_weibull(data)
        assert 1.96 <= k <= 2.04
        assert lam == pytest.approx(sigma * math.sqrt(2.0), rel=0.01)

    def test_constant_data_degenerate(self):
        with pytest.raises(DegenerateFitError):
            fit_weibull([3.0, 3.0, 3.0])

    def test_nonpositive_rejected(self):
        with pytest.raises(DomainError):
            fit_weibull([1.0, 0.0, 2.0])

    def test_likelihood_beats_local_grid(self, rng):
        data = 2.0 * rng.weibull(1.7, 400)
        k_hat, lam_hat = fit_weibull(data)
        grid = [
            weibull_loglik(data, k, lam)
            for k in np.linspace(0.9 * k_hat, 1.1 * k_hat, 50)
            for lam in np.linspace(0.9 * lam_hat, 1.1 * lam_hat, 50)
        ]
        assert weibull_loglik(data, k_hat, lam_hat) >= max(grid) - 1e-9

    def test_agrees_with_scipy(self):
        rng = np.random.default_rng(31)
        data = 5.0 * rng.weibull(3.1, 5000)
        k, lam = fit_weibull(data)
        shape, _, scale = stats.weibull_min.fit(data, floc=0)
        assert k == pytest.approx(shape, rel=1e-4)
        assert lam == pytest.approx(scale, rel=1e-4)

    def test_loglik_matches_scipy(self, rng):
        data = 2.0 * rng.weibull(1.7, 500)
        k, lam = fit_weibull(data)
        expected = float(np.sum(stats.weibull_min.logpdf(data, k, 0.0, lam)))
        assert weibull_loglik(data, k, lam) == pytest.approx(expected, rel=1e-10)


class TestScaleEquivariance:
    @pytest.mark.parametrize("c", [0.001, 0.5, 3.0, 1e5])
    def test_all_families(self, rng, c):
        data = rng.rayleigh(2.0, 300) + 0.5
        ray_a, ray_b = fit_rayleigh(data), fit_rayleigh(c * data)
        assert ray_b[0] == pytest.approx(c * ray_a[0], rel=1e-6)
        gum_a, gum_b = fit_gumbel(data), fit_gumbel(c * data)
        assert gum_b[0] == pytest.approx(c * gum_a[0], rel=1e-6)
        assert gum_b[1] == pytest.approx(c * gum_a[1], rel=1e-6)
        wei_a, wei_b = fit_weibull(data), fit_weibull(c * data)
        assert wei_b[0] == pytest.approx(wei_a[0], rel=1e-6)
        assert wei_b[1] == pytest.approx(c * wei_a[1], rel=1e-6)


class TestMleOptimality:
    @pytest.mark.parametrize("family", list(DistFamily))
    def test_fit_beats_random_perturbations(self, family, rng):
        data = rng.rayleigh(3.0, 500) + (0.0 if family is DistFamily.GUMBEL else 0.1)
        fit = fit_family(family, data)
        loglik = LOGLIKS[family]
        for _ in range(1000):
            perturbed = tuple(
                p * (1.0 + rng.uniform(-0.1, 0.1)) for p in fit
            )
            assert loglik(data, *fit) >= loglik(data, *perturbed) - 1e-9


ONE_SAMPLE_FITTERS = {DistFamily.GUMBEL: fit_gumbel, DistFamily.RAYLEIGH: fit_rayleigh,
                      DistFamily.WEIBULL: fit_weibull}


def newton_reference(step, theta):
    """Scalar Newton iteration to the fitters' relative tolerance."""
    for _ in range(distfit.NEWTON_MAX_ITER):
        new = step(theta)
        if abs(new - theta) < distfit.NEWTON_TOL * theta:
            return new
        theta = new
    raise NumericError("reference did not converge")


def reference_fit(family, x):
    """One sample's MLE by a scalar loop with numpy's pairwise sums: the
    same equations and starting points as the flat batched fitter."""
    if family is DistFamily.RAYLEIGH:
        return (math.sqrt(np.sum(x * x) / (2.0 * len(x))),)
    if family is DistFamily.GUMBEL:
        shifted = x - x.min()

        def step(beta):
            w = np.exp(-shifted / beta)
            mean_w = np.sum(x * w) / np.sum(w)
            var_w = np.sum((x - mean_w) ** 2 * w) / np.sum(w)
            new = beta - (beta - x.mean() + mean_w) / (1.0 + var_w / beta**2)
            return new if new > 0.0 else beta / 2.0

        beta = newton_reference(step, x.std(ddof=1) * math.sqrt(6.0) / math.pi)
        return x.min() - beta * math.log(np.mean(np.exp(-shifted / beta))), beta
    t = np.log(x) - np.log(x).mean()

    def step(k):
        e = np.exp(k * t)
        a, b, c = e.mean(), (t * e).mean(), (t * t * e).mean()
        new = k - (b / a - 1.0 / k) / ((c * a - b * b) / (a * a) + 1.0 / (k * k))
        return min(new if new > 0.0 else k / 2.0, distfit.WEIBULL_SHAPE_CAP)

    k = newton_reference(step, min(math.pi / (t.std(ddof=1) * math.sqrt(6.0)),
                                   distfit.WEIBULL_SHAPE_CAP))
    return k, math.exp(np.log(x).mean()) * np.mean(np.exp(k * t)) ** (1.0 / k)


class TestBatchedFits:
    """fit_runs fits M samples together, one Newton iteration over all of
    them laid end to end; each row is that sample's own fit."""

    def test_ragged_runs_match_one_sample_fits(self, rng):
        runs = [rng.rayleigh(2.0, n) + 0.1 for n in (2, 53, 397)]
        for family in DistFamily:
            batch = fit_runs(family, runs)
            assert batch.shape == (3, len(family.param_names))
            for row, data in zip(batch, runs):
                np.testing.assert_allclose(row, ONE_SAMPLE_FITTERS[family](data), rtol=1e-13)
                np.testing.assert_allclose(row, reference_fit(family, data), rtol=1e-13)

    def test_run_converged_on_its_first_step_keeps_its_value(self, rng, monkeypatch):
        # One value of the sample is tuned so that the Gumbel moment
        # initializer is already the MLE scale: Newton stops after one step.
        base = rng.gumbel(0.0, 1.0, 40)

        def gap(v):
            data = np.append(base, v)
            return fit_gumbel(data)[1] - data.std(ddof=1) * math.sqrt(6.0) / math.pi

        crafted = np.append(base, optimize.brentq(gap, 6.0, 7.0, xtol=1e-14))
        other = rng.gumbel(0.0, 1.0, 300)
        monkeypatch.setattr(distfit, "NEWTON_MAX_ITER", 1)
        first_step = fit_runs(DistFamily.GUMBEL, [crafted])
        with pytest.raises(NumericError):
            fit_runs(DistFamily.GUMBEL, [crafted, other])
        monkeypatch.undo()
        batch = fit_runs(DistFamily.GUMBEL, [crafted, other])
        assert batch[0].tobytes() == first_step[0].tobytes()
        assert batch[1].tobytes() == fit_runs(DistFamily.GUMBEL, [other])[0].tobytes()

    @pytest.mark.parametrize("runs,error,families", [
        ([[1.0, 2.0], [3.0]], InsufficientDataError, list(DistFamily)),
        ([[1.0, 2.0], [3.0, -0.5, 4.0]], DomainError, [DistFamily.RAYLEIGH, DistFamily.WEIBULL]),
        ([[1.0, 2.0], [3.0, 3.0, 3.0]], DegenerateFitError, [DistFamily.GUMBEL, DistFamily.WEIBULL]),
        # Two values one ulp apart whose logs are equal.
        ([[1.0, 2.0], [1e5, np.nextafter(1e5, np.inf)]], DegenerateFitError, [DistFamily.WEIBULL]),
        ([], InsufficientDataError, list(DistFamily)),
    ])
    def test_one_bad_run_fails_the_call(self, runs, error, families):
        for family in DistFamily:
            if family in families:
                with pytest.raises(error):
                    fit_runs(family, runs)
            else:
                assert np.isfinite(fit_runs(family, runs)).all()


# (bad run, families it drops): one peak, a non-positive peak, constant
# data, and data that Gumbel's Newton iteration needs 10 steps for, which
# fails once NEWTON_MAX_ITER is 8 (the simulated runs need at most 5).
FAILING_RUNS = {
    "one_peak": (np.array([5.0e4]), {"gumbel", "rayleigh", "weibull"}),
    "non_positive": (np.array([3.0e4, -1.0, 5.0e4]), {"rayleigh", "weibull"}),
    "constant": (np.full(30, 4.0e4), {"gumbel", "weibull"}),
    "no_convergence": (1.0 + 1e-9 * np.arange(20), {"gumbel"}),
}


@pytest.mark.parametrize("kind", list(FAILING_RUNS))
def test_failing_run_drops_its_family_at_its_point_only(kind, monkeypatch, fast_sim_config):
    bad, dropped = FAILING_RUNS[kind]
    design = sample_uniform_inputs(3, seed=21)
    clean = build_training_table(design, 3, fast_sim_config, seed=5)
    real = distfit.simulate

    def simulate(record, cfg, seeds):
        outputs = real(record, cfg, seeds)
        if record == design.record(1):
            outputs[2] = SimOutput(bad)
        return outputs

    monkeypatch.setattr(distfit, "simulate", simulate)
    if kind == "no_convergence":
        monkeypatch.setattr(distfit, "NEWTON_MAX_ITER", 8)
    table = build_training_table(design, 3, fast_sim_config, seed=5)
    for family in DistFamily:
        assert table.usable(family).tolist() == [True, family.value not in dropped, True]
        assert table.means[family][[0, 2]].tobytes() == clean.means[family][[0, 2]].tobytes()
        assert table.stds[family][[0, 2]].tobytes() == clean.stds[family][[0, 2]].tobytes()


def assert_same_table(a, b):
    """Every array of the two tables holds the same bytes."""
    assert a.test.tobytes() == b.test.tobytes()
    for x, y in ((a.inputs, b.inputs), (a.l_mean, b.l_mean), (a.l_std, b.l_std),
                 *((a.means[f], b.means[f]) for f in DistFamily),
                 *((a.stds[f], b.stds[f]) for f in DistFamily)):
        assert x.shape == y.shape and x.tobytes() == y.tobytes()


def one_rayleigh_row():
    """A one-row test-split table whose Gumbel and Weibull fits failed."""
    nan = math.nan
    return TrainingTable(
        inputs=np.array([[1.0, 5.0, 0.0]]),
        means={DistFamily.GUMBEL: np.full((1, 2), nan), DistFamily.RAYLEIGH: np.array([[2.0]]),
               DistFamily.WEIBULL: np.full((1, 2), nan)},
        stds={DistFamily.GUMBEL: np.full((1, 2), nan), DistFamily.RAYLEIGH: np.array([[0.1]]),
              DistFamily.WEIBULL: np.full((1, 2), nan)},
        l_mean=np.array([10.0]), l_std=np.array([1.0]), test=np.array([True]),
    )


class TestAggregateFits:
    """build_training_table turns each family's M fits at a design point into
    the row's mean and sample standard deviation (M-1 denominator), and the
    M peak counts into l_mean and l_std."""

    def _table(self, cfg, m_runs=2):
        return build_training_table(sample_uniform_inputs(1, seed=2), m_runs, cfg, seed=1)

    def test_identical_fits_zero_std(self, monkeypatch, fast_sim_config, rng):
        peaks = rng.rayleigh(2.5, 100) + 0.1
        monkeypatch.setattr(distfit, "simulate",
                            lambda record, cfg, seeds: [SimOutput(peaks) for _ in seeds])
        table = self._table(fast_sim_config)
        for family in DistFamily:
            params = fit_family(family, peaks)
            assert table.means[family].tolist() == [list(params)]
            assert table.stds[family].tolist() == [[0.0] * len(params)]
        assert table.l_mean.tolist() == [100.0] and table.l_std.tolist() == [0.0]

    def test_hand_computed_mean_and_std(self, monkeypatch, fast_sim_config):
        scripted = np.array([(75000.0, 20000.0), (75742.0, 21000.0)])
        real = distfit.fit_runs

        def fit(family, runs):
            if family is DistFamily.GUMBEL:
                return scripted
            return real(family, runs)

        monkeypatch.setattr(distfit, "fit_runs", fit)
        table = self._table(fast_sim_config)
        (mu, beta), = table.means[DistFamily.GUMBEL]
        (mu_std, beta_std), = table.stds[DistFamily.GUMBEL]
        assert mu == pytest.approx(75371.0)
        assert mu_std == pytest.approx(742.0 / math.sqrt(2.0), abs=0.01)
        assert mu_std == pytest.approx(524.67, abs=0.01)
        assert beta == 20500.0
        assert beta_std == pytest.approx(1000.0 / math.sqrt(2.0))

    def test_matches_two_pass_reference(self, fast_sim_config):
        design = sample_uniform_inputs(4, seed=21)
        m_runs = 3
        table = build_training_table(design, m_runs, fast_sim_config, seed=5)

        def two_pass(values):
            mean = sum(values) / len(values)
            var = sum((v - mean) ** 2 for v in values) / (len(values) - 1)
            return mean, math.sqrt(var)

        for i in range(len(design)):
            outs = [simulate(design.record(i), fast_sim_config, derive_seed(5, TAG_SIM, i, m))
                    for m in range(m_runs)]
            for family in DistFamily:
                params = [fit_family(family, out.peaks) for out in outs]
                means, stds = table.means[family][i], table.stds[family][i]
                assert len(means) == len(stds) == len(params[0])
                for j in range(len(params[0])):
                    mean, std = two_pass([p[j] for p in params])
                    assert means[j] == pytest.approx(mean, rel=1e-12)
                    assert stds[j] == pytest.approx(std, rel=1e-10)
            mean, std = two_pass([float(out.count) for out in outs])
            assert table.l_mean[i] == pytest.approx(mean, rel=1e-12)
            assert table.l_std[i] == pytest.approx(std, rel=1e-10)


class TestBuildTrainingTable:
    def test_one_simulate_call_per_design_point(self, monkeypatch, fast_sim_config):
        design = sample_uniform_inputs(3, seed=21)
        calls = []
        real = distfit.simulate

        def record_call(record, cfg, seeds):
            calls.append((record, list(seeds)))
            return real(record, cfg, seeds)

        monkeypatch.setattr(distfit, "simulate", record_call)
        build_training_table(design, 4, fast_sim_config, seed=5)
        assert calls == [(design.record(i), [derive_seed(5, TAG_SIM, i, m) for m in range(4)])
                         for i in range(3)]

    def test_empty_design(self, fast_sim_config):
        empty = Weather(np.arange(0), np.empty((0, 3)))
        table = build_training_table(empty, 3, fast_sim_config, seed=1)
        assert table.inputs.shape == (0, 3)
        assert table.test.shape == table.l_mean.shape == table.l_std.shape == (0,)
        for family in DistFamily:
            shape = (0, len(family.param_names))
            assert table.means[family].shape == table.stds[family].shape == shape

    def test_desk_scale_split_and_order(self, fast_sim_config):
        design = sample_uniform_inputs(10, seed=21)
        table = build_training_table(design, 2, fast_sim_config, seed=5)
        assert table.test.dtype == bool and len(table.test) == 10
        assert (~table.test).sum() == 8
        assert table.test.sum() == 2
        assert table.inputs.tolist() == design.inputs.tolist()
        assert (table.means[DistFamily.RAYLEIGH] > 0).all()
        assert (table.l_mean > 0).all()

    def test_deterministic(self, fast_sim_config):
        design = sample_uniform_inputs(6, seed=2)
        a = build_training_table(design, 2, fast_sim_config, seed=9)
        b = build_training_table(design, 2, fast_sim_config, seed=9)
        assert_same_table(a, b)

    def test_rerun_writes_identical_csv(self, tmp_path, fast_sim_config):
        design = sample_uniform_inputs(6, seed=2)
        for name in ("a.csv", "b.csv"):
            write_training_table(tmp_path / name,
                                 build_training_table(design, 2, fast_sim_config, seed=9))
        assert (tmp_path / "a.csv").read_bytes() == (tmp_path / "b.csv").read_bytes()

    def test_m_of_one_rejected(self, fast_sim_config):
        design = sample_uniform_inputs(3, seed=2)
        with pytest.raises(ConfigurationError):
            build_training_table(design, 1, fast_sim_config, seed=9)


class TestTableCsv:
    def test_header_is_pinned(self, tmp_path, small_table):
        path = tmp_path / "table.csv"
        write_training_table(path, small_table)
        header = path.read_text().splitlines()[0]
        assert header == ("hs,tp,vw,gumbel_mu,gumbel_mu_std,gumbel_beta,gumbel_beta_std,"
                          "rayleigh_sigma,rayleigh_sigma_std,weibull_k,weibull_k_std,"
                          "weibull_lambda,weibull_lambda_std,l_mean,l_std,split")

    def test_round_trip(self, tmp_path, small_table):
        path = tmp_path / "table.csv"
        write_training_table(path, small_table)
        loaded = load_training_table(path)
        assert_same_table(loaded, small_table)

    def test_missing_fits_round_trip(self, tmp_path):
        path = tmp_path / "table.csv"
        write_training_table(path, one_rayleigh_row())
        assert path.read_text().splitlines()[1] == "1.0,5.0,0.0,,,,,2.0,0.1,,,,,10.0,1.0,test"
        loaded = load_training_table(path)
        assert np.isnan(loaded.means[DistFamily.GUMBEL]).all()
        assert loaded.means[DistFamily.RAYLEIGH].tolist() == [[2.0]]
        assert loaded.stds[DistFamily.RAYLEIGH].tolist() == [[0.1]]
        assert loaded.usable(DistFamily.GUMBEL).tolist() == [False]
        assert loaded.usable(DistFamily.RAYLEIGH).tolist() == [True]
        assert loaded.test.tolist() == [True]
        assert_same_table(loaded, one_rayleigh_row())

    def test_byte_round_trip_with_empty_family_cells(self, tmp_path, small_table):
        means = {f: m.copy() for f, m in small_table.means.items()}
        stds = {f: s.copy() for f, s in small_table.stds.items()}
        for family, rows in ((DistFamily.WEIBULL, [0, 1, 7]), (DistFamily.GUMBEL, [7, 30])):
            means[family][rows] = math.nan
            stds[family][rows] = math.nan
        table = TrainingTable(small_table.inputs, means, stds, small_table.l_mean,
                              small_table.l_std, small_table.test)
        write_training_table(tmp_path / "a.csv", table)
        cells = (tmp_path / "a.csv").read_text().splitlines()[8].split(",")
        assert cells[3:7] == [""] * 4 and cells[9:13] == [""] * 4 and all(cells[7:9])
        write_training_table(tmp_path / "b.csv", load_training_table(tmp_path / "a.csv"))
        assert (tmp_path / "a.csv").read_bytes() == (tmp_path / "b.csv").read_bytes()

    @pytest.mark.parametrize("column,family", [("rayleigh_sigma_std", "rayleigh"),
                                               ("gumbel_beta", "gumbel"),
                                               ("weibull_k", "weibull")])
    def test_half_filled_family_block_rejected(self, tmp_path, small_table, column, family):
        path = tmp_path / "table.csv"
        write_training_table(path, small_table)
        lines = path.read_text().splitlines()
        header = lines[0].split(",")
        cells = lines[2].split(",")
        assert cells[header.index(column)]
        cells[header.index(column)] = ""
        lines[2] = ",".join(cells)
        path.write_text("".join(f"{text}\n" for text in lines))
        with pytest.raises(ParseError) as err:
            load_training_table(path)
        assert err.value.line == 3
        assert str(err.value).startswith(f"{path}: line 3: {family} columns ")
