"""The tracer and the output checks of the benchmark itself."""

import csv

import numpy as np
import pytest

import run
from searesponse import distfit, simulator
from searesponse import gp as program_gp
from searesponse.simulator import DEFAULT_SIM_CONFIG
from searesponse.weather import WeatherRecord
from spans import Tracer

RECORD = WeatherRecord(hs=3.0, tp=9.0, vw=8.0, index=0)


def test_wrappers_reach_every_reference_and_come_off():
    original = simulator.simulate
    tracer = Tracer()
    with tracer:
        assert distfit.simulate is not original  # imported by name
        assert distfit._FITTERS[distfit.DistFamily.WEIBULL] is not distfit.fit_weibull.__wrapped__
        out = distfit.simulate(RECORD, DEFAULT_SIM_CONFIG, 7)
        distfit.fit_family(distfit.DistFamily.WEIBULL, out.peaks)
    assert distfit.simulate is original and simulator.simulate is original
    assert not hasattr(distfit._FITTERS[distfit.DistFamily.WEIBULL], "__wrapped__")
    summary = tracer.summary()
    assert summary["simulator.simulate"]["calls"] == 1
    assert summary["simulator.simulate"]["work"] == out.count
    assert summary["simulator.wave_spectrum"]["calls"] == 1
    assert summary["distfit.fit"]["calls"] == 1
    assert tracer.generators == 1


def test_self_times_add_up_to_the_root_span():
    tracer = Tracer()
    with tracer:
        simulator.simulate(RECORD, DEFAULT_SIM_CONFIG, 7)
    summary = tracer.summary()
    total = summary["simulator.simulate"]["total_s"]
    assert sum(s["self_s"] for s in summary.values()) == pytest.approx(total, rel=1e-9)
    assert all(s["self_s"] >= 0.0 for s in summary.values())


def test_a_missing_function_reads_as_zero():
    tracer = Tracer()
    tracer.install([("searesponse.simulator", "no_such_function", "simulator.gone", None),
                    ("searesponse.orderstats", "NoSuchClass.update", "orderstats.gone", None)])
    tracer.remove()
    metrics = run.layer_metrics(tracer.summary(), tracer, {})
    assert metrics["simulator.calls"] == 0 and metrics["orderstats.topk_s"] == 0.0


def write_ranks(path, means, lo, hi, yk):
    path.mkdir()
    with (path / "rank_summary.csv").open("w", newline="") as fh:
        w = csv.writer(fh)
        w.writerow(["rank", "mean", "p2.5", "p97.5"])
        w.writerows(zip(range(1, len(means) + 1), means, lo, hi))
    with (path / "yk_samples.csv").open("w", newline="") as fh:
        w = csv.writer(fh)
        w.writerow(["realization", "yk"])
        w.writerows(enumerate(yk))


def test_qoi_check_accepts_a_consistent_result(tmp_path):
    means = np.linspace(10.0, 5.0, run.K)
    write_ranks(tmp_path / "q", means, means - 1.0, means + 1.0, [4.0, 6.0])
    errors = []
    assert run.check_qoi(tmp_path / "q", 2, errors).tolist() == [4.0, 6.0]
    assert errors == []


@pytest.mark.parametrize("fault", ["rising", "outside band", "short", "yk mean"])
def test_qoi_check_reports_each_fault(tmp_path, fault):
    means = np.linspace(10.0, 5.0, run.K)
    lo, hi, yk = means - 1.0, means + 1.0, [4.0, 6.0]
    if fault == "rising":
        means[3] = means[2] + 0.5
    elif fault == "outside band":
        hi[7] = means[7] - 0.1
    elif fault == "short":
        means, lo, hi = means[:-1], lo[:-1], hi[:-1]
    else:
        yk = [4.0, 7.0]
    write_ranks(tmp_path / "q", means, lo, hi, yk)
    errors = []
    run.check_qoi(tmp_path / "q", 2, errors)
    assert len(errors) == 1


def test_yk_check_tolerance():
    curve = run.reference.Curve(yk=100.0, yk_std=2.0)
    errors = []
    run.check_yk("t", np.array([104.0, 105.0, 106.0, 105.0]), curve, 0.01, errors)  # 1 + 4
    assert errors == []
    run.check_yk("t", np.array([106.0, 106.0, 106.0, 106.0]), curve, 0.01, errors)
    assert len(errors) == 1


def test_eval_check_flags_rmse_at_or_above_the_test_spread(tmp_path):
    truth = [1.0, 2.0, 3.0, 4.0]  # spread 1.118
    summary = {"targets": {"k": {"rmse": 5.0}, "lambda": {"rmse": 0.5}, "l_count": {"rmse": 1.2}}}
    (tmp_path / "eval_summary.json").write_text(run.json.dumps(summary))
    for target in summary["targets"]:
        with (tmp_path / f"eval_{target}.csv").open("w", newline="") as fh:
            w = csv.writer(fh)
            w.writerow(["true", "pred_mean", "pred_std"])
            w.writerows([t, t, 0.1] for t in truth)
    errors = []
    run.check_eval(tmp_path, errors)
    assert len(errors) == 1 and errors[0].startswith("eval: l_count")


def test_bundle_check_flags_a_gp_that_misses_its_training_targets(tmp_path):
    rng = np.random.default_rng(11)
    x = rng.uniform(0.0, 5.0, size=(40, 3))
    y = np.sin(x[:, 0]) + 0.3 * x[:, 1] * x[:, 2]
    noise = np.full(40, 1e-3)
    for name, sv, ell in (("fit", 1.7, (0.8, 1.3, 2.1)), ("flat", 1e-3, (100.0, 100.0, 100.0))):
        (tmp_path / name).mkdir()
        model = program_gp.train(x, y, noise, program_gp.KernelParams(sv, ell))
        program_gp.save_model(tmp_path / name / "gp_k.json", model)
    errors = []
    run.check_bundle(tmp_path / "fit", errors)
    assert errors == []
    run.check_bundle(tmp_path / "flat", errors)
    assert any("90% interval holds" in e for e in errors)
