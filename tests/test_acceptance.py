"""Acceptance suite.

Each test covers one numbered criterion and prints a single PASS/FAIL line.
Criteria 6-8 share one desk-scale end-to-end pipeline (one year of hourly
weather, a 400-point training table, surrogates for all three families, and
Y_100 runs for simulator and surrogates) built once through the CLI.

Run with `pytest tests/test_acceptance.py -v -s`.
"""

import json
import math
import time
from pathlib import Path

import numpy as np
import pytest
from scipy import stats

from searesponse import cli, gp
from searesponse.distfit import fit_gumbel, fit_rayleigh, fit_weibull
from searesponse.orderstats import TopK, load_qoi_result
from searesponse.simulator import DEFAULT_SIM_CONFIG, SimConfig, simulate, wave_spectrum
from searesponse.simulator import realize_time_series, write_sim_config
from searesponse.weather import WeatherRecord

from loglik import gumbel_loglik, rayleigh_loglik, weibull_loglik

Z95 = 1.959963984540054


def report(number: int, description: str, ok: bool, detail: str = "") -> None:
    status = "PASS" if ok else "FAIL"
    suffix = f" ({detail})" if detail else ""
    print(f"criterion {number}: {status} - {description}{suffix}")
    assert ok, f"criterion {number} failed: {description}{suffix}"


def test_criterion_1_topk_oracle_equivalence():
    t0 = time.monotonic()
    rng = np.random.default_rng(1001)
    all_exact = True
    for stream in range(1000):
        length = int(round(10.0 ** rng.uniform(2.0, 6.0)))
        k = int(rng.integers(1, 201))
        kind = stream % 3
        if kind == 0:
            values = rng.uniform(0.0, 1.0, length)
        elif kind == 1:
            values = rng.normal(0.0, 1e5, length)
        else:
            values = rng.integers(0, 1000, length).astype(float)  # heavy ties
        acc = TopK(k)
        n_chunks = max(1, int(rng.integers(1, 20)))
        for chunk in np.array_split(values, n_chunks):
            acc.update(chunk)
        expected = np.sort(values)[::-1][:k] if length >= k else None
        if length < k:
            continue
        if not np.array_equal(acc.values_descending(), expected):
            all_exact = False
            break
        if acc.values_descending()[-1] != expected[-1]:
            all_exact = False
            break
    elapsed = time.monotonic() - t0
    report(1, "streaming TopK equals full-sort oracle on 1000 random streams",
           all_exact and elapsed < 60.0, f"{elapsed:.1f}s")


def test_criterion_2_simulator_physics_closure():
    t0 = time.monotonic()
    rng = np.random.default_rng(2002)
    omega = DEFAULT_SIM_CONFIG.omega_grid
    worst_m0 = 0.0
    for _ in range(100):
        hs = float(rng.uniform(0.2, 12.0))
        tp = float(rng.uniform(4.0, 20.0))
        spec = wave_spectrum(hs, tp, omega)
        m0 = float(np.trapezoid(spec.density, spec.omega))
        worst_m0 = max(worst_m0, abs(m0 - hs * hs / 16.0) / (hs * hs / 16.0))
    density = DEFAULT_SIM_CONFIG.transfer_squared * wave_spectrum(3.0, 10.0, omega).density
    target = float(np.trapezoid(density, omega))
    variances = [
        realize_time_series(density, DEFAULT_SIM_CONFIG, [s])[0].var()
        for s in range(200)
    ]
    var_err = abs(float(np.mean(variances)) - target) / target
    elapsed = time.monotonic() - t0
    report(2, "m0 = Hs^2/16 within 0.5% and variance closure within 2%",
           worst_m0 < 0.005 and var_err < 0.02 and elapsed < 60.0,
           f"max m0 err {worst_m0:.2e}, var err {var_err:.2e}, {elapsed:.1f}s")


def test_criterion_3_rayleigh_peaks_property():
    t0 = time.monotonic()
    record = WeatherRecord(hs=3.0, tp=10.0, vw=0.0, index=0)
    pool = np.concatenate([
        simulate(record, DEFAULT_SIM_CONFIG, seed=s).peaks for s in range(50)
    ])
    (sigma,) = fit_rayleigh(pool)
    result = stats.kstest(pool, "rayleigh", args=(0.0, sigma))
    elapsed = time.monotonic() - t0
    report(3, "pooled peaks (50 seeds) pass KS vs fitted Rayleigh at 0.01",
           result.pvalue > 0.01 and elapsed < 60.0,
           f"n={len(pool)}, KS p={result.pvalue:.3f}, {elapsed:.1f}s")


def test_criterion_4_fitter_recovery():
    t0 = time.monotonic()
    rng = np.random.default_rng(4004)
    ok = True
    details = []

    data = rng.gumbel(75371.0, 20983.0, 100_000)
    fit = fit_gumbel(data)
    ok &= abs(fit[0] - 75371.0) / 75371.0 < 0.01
    ok &= abs(fit[1] - 20983.0) / 20983.0 < 0.01
    grid = max(
        gumbel_loglik(data, mu, beta)
        for mu in np.linspace(0.9 * fit[0], 1.1 * fit[0], 50)
        for beta in np.linspace(0.9 * fit[1], 1.1 * fit[1], 50)
    )
    ok &= gumbel_loglik(data, *fit) >= grid - 1e-6
    details.append(f"gumbel ({fit[0]:.0f}, {fit[1]:.0f})")

    data = rng.rayleigh(2.0, 100_000)
    fit = fit_rayleigh(data)
    ok &= abs(fit[0] - 2.0) / 2.0 < 0.01
    grid = max(rayleigh_loglik(data, s)
               for s in np.linspace(0.9 * fit[0], 1.1 * fit[0], 2500))
    ok &= rayleigh_loglik(data, *fit) >= grid - 1e-6
    details.append(f"rayleigh {fit[0]:.4f}")

    data = 2.0 * math.sqrt(2.0) * rng.weibull(2.0, 100_000)
    fit = fit_weibull(data)
    ok &= abs(fit[0] - 2.0) / 2.0 < 0.01
    ok &= abs(fit[1] - 2.0 * math.sqrt(2.0)) / (2.0 * math.sqrt(2.0)) < 0.01
    grid = max(
        weibull_loglik(data, k, lam)
        for k in np.linspace(0.9 * fit[0], 1.1 * fit[0], 50)
        for lam in np.linspace(0.9 * fit[1], 1.1 * fit[1], 50)
    )
    ok &= weibull_loglik(data, *fit) >= grid - 1e-6
    details.append(f"weibull ({fit[0]:.4f}, {fit[1]:.4f})")

    elapsed = time.monotonic() - t0
    report(4, "MLEs recover generating parameters within 1% and beat 50x50 grids",
           ok and elapsed < 120.0, "; ".join(details) + f", {elapsed:.1f}s")


def test_criterion_5_gp_oracle_and_coverage():
    t0 = time.monotonic()
    rng = np.random.default_rng(5005)

    # (i) dense direct-inverse oracle on 50 random instances, n <= 200
    worst = 0.0
    for _ in range(50):
        n = int(rng.integers(10, 201))
        x = rng.uniform(0.0, 10.0, (n, 3))
        y = np.sin(x[:, 0]) + 0.2 * x[:, 1] * x[:, 2] + rng.normal(0.0, 0.2, n)
        nv = rng.uniform(1e-4, 0.1, n)
        kernel = gp.KernelParams(float(rng.uniform(0.3, 3.0)), tuple(rng.uniform(0.3, 3.0, 3)))
        model = gp.train(x, y, nv, kernel)
        gram = gp.matern52_matrix(model.train_inputs, model.train_inputs, model.kernel)
        inv = np.linalg.inv(gram + np.diag(model.noise_variances) + model.jitter * np.eye(n))
        for _ in range(3):
            q = rng.uniform(-1.0, 11.0, 3)
            qs = (q - model.input_mean) / model.input_scale
            ks = gp.matern52_matrix(model.train_inputs, qs[None, :], model.kernel).ravel()
            oracle_mean = model.target_mean + model.target_scale * float(ks @ inv @ model.train_targets)
            oracle_var = model.kernel.signal_variance - float(ks @ inv @ ks)
            oracle_std = model.target_scale * math.sqrt(max(oracle_var, 0.0))
            [mean], [std] = gp.predict_batch(model, q)
            worst = max(worst,
                        abs(mean - oracle_mean) / max(abs(oracle_mean), 1e-9),
                        abs(std - oracle_std) / max(oracle_std, 1e-9))
    oracle_ok = worst < 1e-6

    # (ii) noise-free interpolation and prior reversion
    x = rng.uniform(0.0, 10.0, (30, 3))
    y = np.cos(x).sum(axis=1)
    model = gp.train(x, y, np.zeros(30), gp.KernelParams(1.0, (1.0, 1.0, 1.0)))
    [mean_in], [std_in] = gp.predict_batch(model, x[11])
    prior_std = model.target_scale * math.sqrt(model.kernel.signal_variance)
    interp_ok = (abs(mean_in - y[11]) < 1e-6 and std_in < 1e-3 * prior_std)
    [mean_far], [std_far] = gp.predict_batch(model, np.array([1e4, 1e4, -1e4]))
    revert_ok = (abs(mean_far - model.target_mean) < 1e-3
                 and abs(std_far - prior_std) < 1e-3 * prior_std)

    # (iii) hold-out validation in a well-specified heteroscedastic setup:
    # 95% predictive intervals (epistemic + known test noise) must cover
    # 90-99% of 250 test observations.
    n_train, n_test = 500, 250
    x_all = rng.uniform(0.0, 10.0, (n_train + n_test, 3))
    truth = gp.KernelParams(1.0, (2.5, 2.5, 2.5))
    gram = gp.matern52_matrix(x_all, x_all, truth) + 1e-10 * np.eye(len(x_all))
    latent = np.linalg.cholesky(gram) @ rng.standard_normal(len(x_all))
    noise_std = rng.uniform(0.05, 0.4, len(x_all))
    y_all = latent + noise_std * rng.standard_normal(len(x_all))
    kernel = gp.fit_hyperparams(x_all[:n_train], y_all[:n_train], noise_std[:n_train] ** 2,
                                restarts=2, seed=55)
    model = gp.train(x_all[:n_train], y_all[:n_train], noise_std[:n_train] ** 2, kernel)
    mean, std = gp.predict_batch(model, x_all[n_train:])
    total_std = np.sqrt(std**2 + noise_std[n_train:] ** 2)
    coverage = float(np.mean(np.abs(y_all[n_train:] - mean) <= Z95 * total_std))
    coverage_ok = 0.90 <= coverage <= 0.99

    elapsed = time.monotonic() - t0
    report(5, "GP matches dense oracle; interpolation/reversion limits; 95% coverage in [0.90, 0.99]",
           oracle_ok and interp_ok and revert_ok and coverage_ok and elapsed < 300.0,
           f"oracle err {worst:.2e}, coverage {coverage:.3f} on {n_test} pts, {elapsed:.0f}s")


# ---------------------------------------------------------------------------
# Desk-scale end-to-end pipeline shared by criteria 6-8


N_HOURS = 8760
N_DESIGN = 400
M_TABLE = 20
M_QOI = 30
K = 100
SEED = 20240811


@pytest.fixture(scope="module")
def pipeline(tmp_path_factory):
    root = tmp_path_factory.mktemp("pipeline")
    t = {}

    def run(name, argv):
        start = time.monotonic()
        code = cli.main(argv)
        t[name] = time.monotonic() - start
        assert code == 0, f"stage {name} exited {code}"

    run("weather", ["weather", "synth", "--hours", str(N_HOURS), "--seed", str(SEED),
                    "--out", str(root / "weather")])
    weather_csv = str(root / "weather" / "weather.csv")

    run("trainset", ["trainset", "--n", str(N_DESIGN), "--m", str(M_TABLE),
                     "--seed", str(SEED + 1), "--out", str(root / "table")])
    table_csv = str(root / "table" / "training_table.csv")

    for family in ("weibull", "rayleigh", "gumbel"):
        run(f"train_{family}", ["train", "--table", table_csv, "--family", family,
                                "--seed", str(SEED + 2), "--out", str(root / f"bundle_{family}")])

    run("eval_weibull", ["eval", "--table", table_csv,
                         "--bundle", str(root / "bundle_weibull"),
                         "--out", str(root / "eval_weibull")])

    run("qoi_sim", ["qoi", "--source", "simulator", "--weather", weather_csv,
                    "--k", str(K), "--m", str(M_QOI), "--seed", str(SEED + 3),
                    "--out", str(root / "qoi_sim")])
    for family in ("weibull", "rayleigh", "gumbel"):
        run(f"qoi_{family}", ["qoi", "--source", "surrogate", "--weather", weather_csv,
                              "--k", str(K), "--m", str(M_QOI), "--seed", str(SEED + 3),
                              "--bundle", str(root / f"bundle_{family}"),
                              "--out", str(root / f"qoi_{family}")])

    for family in ("weibull", "rayleigh"):
        run(f"compare_{family}", ["compare", str(root / f"qoi_{family}"), str(root / "qoi_sim"),
                                  "--out", str(root / f"compare_{family}")])
    return {"root": root, "timings": t}


def test_criterion_6_end_to_end_reproduction(pipeline):
    root = pipeline["root"]
    sim = load_qoi_result(root / "qoi_sim")
    weibull = load_qoi_result(root / "qoi_weibull")
    rayleigh = load_qoi_result(root / "qoi_rayleigh")
    gumbel = load_qoi_result(root / "qoi_gumbel")

    sim_mean = float(sim.yk_samples.mean())
    rel_weibull = abs(float(weibull.yk_samples.mean()) - sim_mean) / sim_mean
    a_ok = rel_weibull <= 0.10

    overlaps = {}
    for name, res in (("weibull", weibull), ("rayleigh", rayleigh)):
        within = (res.rank_means >= sim.rank_p025) & (res.rank_means <= sim.rank_p975)
        overlaps[name] = float(np.mean(within))
    b_ok = all(v >= 0.80 for v in overlaps.values())

    c_ok = float(gumbel.yk_samples.mean()) >= sim_mean

    total = sum(pipeline["timings"].values())
    report(6, "desk-scale Y100: weibull within 10%, band overlap >= 80%, gumbel conservative",
           a_ok and b_ok and c_ok,
           f"weibull rel err {rel_weibull:.3f}, overlap {overlaps}, "
           f"gumbel/sim {float(gumbel.yk_samples.mean()) / sim_mean:.3f}, total {total / 60:.1f} min")


def test_criterion_7_surrogate_efficiency(pipeline):
    root = pipeline["root"]
    sim_wall = json.loads((root / "qoi_sim" / "manifest.json").read_text())["wall_seconds"]
    ratios = {}
    for family in ("weibull", "rayleigh"):
        wall = json.loads((root / f"qoi_{family}" / "manifest.json").read_text())["wall_seconds"]
        ratios[family] = wall / sim_wall
    report(7, "surrogate Y100 run takes < 20% of simulator wall time",
           all(r < 0.20 for r in ratios.values()),
           f"sim {sim_wall:.0f}s, ratios " + ", ".join(f"{k}={v:.2f}" for k, v in ratios.items()))


def test_criterion_8_pipeline_determinism(tmp_path, fast_sim_config):
    t0 = time.monotonic()
    cfg_path = tmp_path / "sim.json"
    write_sim_config(cfg_path, fast_sim_config)

    stages = {
        "weather": (["weather", "synth", "--hours", "200", "--seed", "42"],
                    ["weather.csv"]),
        "trainset": (["trainset", "--n", "25", "--m", "3", "--seed", "43",
                      "--sim-config", str(cfg_path)],
                     ["training_table.csv", "sim_config.json"]),
    }
    results = {}
    ok = True
    for name, (argv, files) in stages.items():
        out = tmp_path / name
        assert cli.main(argv + ["--out", str(out)]) == 0
        snapshots = {f: (out / f).read_bytes() for f in files}
        assert cli.main(argv + ["--out", str(out), "--force"]) == 0
        ok &= all((out / f).read_bytes() == snapshots[f] for f in files)
        results[name] = out

    table_csv = str(results["trainset"] / "training_table.csv")
    train_args = ["train", "--table", table_csv, "--family", "rayleigh",
                  "--restarts", "2", "--seed", "44"]
    bundle_dir = tmp_path / "bundle"
    assert cli.main(train_args + ["--out", str(bundle_dir)]) == 0
    bundle_files = sorted(p.name for p in bundle_dir.glob("*.json") if p.name != "manifest.json")
    snapshots = {f: (bundle_dir / f).read_bytes() for f in bundle_files}
    assert cli.main(train_args + ["--out", str(bundle_dir), "--force"]) == 0
    ok &= all((bundle_dir / f).read_bytes() == snapshots[f] for f in bundle_files)

    weather_csv = str(results["weather"] / "weather.csv")
    for source, extra in (("simulator", ["--sim-config", str(cfg_path)]),
                          ("surrogate", ["--bundle", str(bundle_dir)])):
        qoi_args = (["qoi", "--source", source, "--weather", weather_csv,
                     "--k", "10", "--m", "3", "--seed", "45"] + extra)
        out = tmp_path / f"qoi_{source}"
        assert cli.main(qoi_args + ["--out", str(out)]) == 0
        files = ["yk_samples.csv", "rank_summary.csv", "summary.json"]
        snapshots = {f: (out / f).read_bytes() for f in files}
        assert cli.main(qoi_args + ["--out", str(out), "--force"]) == 0
        ok &= all((out / f).read_bytes() == snapshots[f] for f in files)

    eval_args = ["eval", "--table", table_csv, "--bundle", str(bundle_dir)]
    out = tmp_path / "eval"
    assert cli.main(eval_args + ["--out", str(out)]) == 0
    files = [p.name for p in out.iterdir() if p.name != "manifest.json"]
    snapshots = {f: (out / f).read_bytes() for f in files}
    assert cli.main(eval_args + ["--out", str(out), "--force"]) == 0
    ok &= all((out / f).read_bytes() == snapshots[f] for f in files)

    elapsed = time.monotonic() - t0
    report(8, "every pipeline stage is byte-identical on rerun with identical seeds",
           ok and elapsed < 300.0, f"{elapsed:.0f}s")
