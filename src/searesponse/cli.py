"""Batch command-line front end.

Subcommands wire the pipeline end to end: weather generation/ingestion,
training-table construction, surrogate training, hold-out evaluation, Y_k
runs, and comparisons. qoi reads its weather only from the CSV named by
--weather, which weather synth or weather load writes. Each cmd_* function
only reads and checks its inputs and computes its result; _run_stage owns
the output directory: it refuses a directory the command may not write
into, clears the earlier run's outputs once the command has succeeded, and
writes one manifest.json that lists exactly the files the command wrote.
All stochastic commands require an explicit --seed, and data outputs are
byte-identical across reruns with identical flags. Only train, eval and
qoi --source surrogate import searesponse.surrogate, and with it the GP
layer and scipy.linalg; the others load numpy and the bare scipy package.
SEARESPONSE_LOGLEVEL names the logging level (default WARNING).

Exit codes: 0 success, 2 usage/configuration error, 3 data error,
4 numeric error.
"""

from __future__ import annotations

import argparse
import json
import logging
import os
import platform
import sys
import time
from dataclasses import asdict, dataclass
from datetime import datetime, timezone
from pathlib import Path
from typing import Callable

import numpy as np
import scipy

from searesponse import __version__
from searesponse.distfit import (
    DistFamily,
    build_training_table,
    load_training_table,
    write_training_table,
)
from searesponse.errors import ConfigurationError, DataError, NumericError, SchemaError
from searesponse.fileio import FORMAT_VERSIONS, read_json_object, write_csv
from searesponse.orderstats import (
    MODE_SAMPLE,
    MODES,
    QoiConfig,
    compare_qoi,
    load_qoi_result,
    run_qoi,
    save_qoi_result,
)
from searesponse.simulator import DEFAULT_SIM_CONFIG, load_sim_config, write_sim_config
from searesponse.weather import (
    DEFAULT_BOX,
    InputBox,
    load_weather,
    sample_uniform_inputs,
    synthesize_weather,
    write_weather,
)

logger = logging.getLogger("searesponse.cli")

EXIT_OK = 0
EXIT_USAGE = 2
EXIT_DATA = 3
EXIT_NUMERIC = 4


def _our_manifest(out: Path) -> dict | None:
    """The manifest.json of an earlier searesponse run in out, if any."""
    try:
        manifest = read_json_object(out / "manifest.json")
    except (OSError, SchemaError):
        return None
    return manifest if manifest.get("tool") == "searesponse" else None


def _check_out(path: str, force: bool) -> Path:
    """Refuse an output directory the command may not write into: a
    non-empty one without --force, and with --force one that holds no
    searesponse manifest.json."""
    out = Path(path)
    if out.exists() and not out.is_dir():
        raise ConfigurationError(f"output path {out} is not a directory")
    if out.exists() and any(out.iterdir()):
        if not force:
            raise ConfigurationError(f"output directory {out} is not empty (use --force to overwrite)")
        if _our_manifest(out) is None:
            raise ConfigurationError(f"refusing to clear {out}: it holds no searesponse manifest.json")
    return out


def _prepare_out(out: Path) -> Path:
    """Remove an earlier run's manifest.json and the outputs it lists from a
    directory passed by _check_out, or create the directory; called once the
    command's arguments and inputs have been checked. Outputs are matched by
    file name, since the manifest stores them relative to the working
    directory of that run; other files stay."""
    manifest = _our_manifest(out) or {}
    outputs = manifest.get("outputs")
    if isinstance(outputs, list):
        for name in ["manifest.json", *(Path(p).name for p in outputs if isinstance(p, str))]:
            if (out / name).is_file():
                (out / name).unlink()
    out.mkdir(parents=True, exist_ok=True)
    return out


@dataclass
class Stage:
    """What a command hands to _run_stage: the input paths it read, a writer
    that puts its data files into the output directory and returns their
    paths, extra manifest fields, and the text printed on success."""

    inputs: list[str]
    write: Callable[[Path], list[Path]]
    extra: dict
    message: str


def _run_stage(args: argparse.Namespace) -> int:
    """Run one command against its output directory: check the directory
    before any input is read, run the command, clear the earlier run's
    outputs only once it has succeeded, then write its files and a
    manifest.json that lists exactly the paths the writer returned."""
    out = _check_out(args.out, args.force)
    stage = args.func(args)
    written = stage.write(_prepare_out(out))
    config = {k: v for k, v in sorted(vars(args).items())
              if k not in ("func", "command") and not k.startswith("_")}
    manifest = {
        "tool": "searesponse",
        "version": __version__,
        "command": " ".join(filter(None, (args.command, getattr(args, "weather_mode", None)))),
        "config": config,
        "seeds": {"seed": args.seed} if "seed" in vars(args) else {},
        "inputs": stage.inputs,
        "outputs": [str(p) for p in written],
        "format_versions": FORMAT_VERSIONS,
        "versions": {"python": platform.python_version(),
                     "numpy": np.__version__, "scipy": scipy.__version__},
        "started_at": datetime.fromtimestamp(args._started, tz=timezone.utc).isoformat(),
        "wall_seconds": time.monotonic() - args._t0,
        **stage.extra,
    }
    (out / "manifest.json").write_text(json.dumps(manifest, indent=2, default=str) + "\n")
    print(stage.message)
    return EXIT_OK


def _box_from_args(args: argparse.Namespace) -> InputBox:
    kwargs = {}
    for name in ("hs", "tp", "vw"):
        bounds = getattr(args, f"box_{name}")
        if bounds is not None:
            kwargs[name] = tuple(bounds)
    return InputBox(**kwargs) if kwargs else DEFAULT_BOX


def _sim_config_from_args(args: argparse.Namespace):
    if getattr(args, "sim_config", None):
        return load_sim_config(args.sim_config)
    return DEFAULT_SIM_CONFIG


def cmd_weather(args: argparse.Namespace) -> Stage:
    if args.weather_mode == "synth":
        weather = synthesize_weather(args.hours, _box_from_args(args), args.seed)
        inputs: list[str] = []
    else:
        weather = load_weather(args.path)
        inputs = [str(args.path)]

    def write(out: Path) -> list[Path]:
        write_weather(out / "weather.csv", weather)
        return [out / "weather.csv"]

    return Stage(inputs, write, {"n_records": len(weather)},
                 f"wrote {len(weather)} weather records to {Path(args.out) / 'weather.csv'}")


def cmd_trainset(args: argparse.Namespace) -> Stage:
    cfg = _sim_config_from_args(args)
    design = sample_uniform_inputs(args.n, _box_from_args(args), args.seed)
    table = build_training_table(design, args.m, cfg, args.seed)
    n_rows, n_test = len(table.test), int(table.test.sum())
    dropped = {fam.value: int((~table.usable(fam)).sum()) for fam in DistFamily}

    def write(out: Path) -> list[Path]:
        write_training_table(out / "training_table.csv", table)
        write_sim_config(out / "sim_config.json", cfg)
        return [out / "training_table.csv", out / "sim_config.json"]

    return Stage([str(args.sim_config)] if args.sim_config else [], write,
                 {"n_rows": n_rows, "n_train": n_rows - n_test, "n_test": n_test,
                  "dropped_fits": dropped},
                 f"wrote {n_rows} training rows to "
                 f"{Path(args.out) / 'training_table.csv'} ({n_rows - n_test} train / {n_test} test)")


def cmd_train(args: argparse.Namespace) -> Stage:
    from searesponse.surrogate import save_surrogate, train_surrogate

    table = load_training_table(args.table)
    family = DistFamily(args.family)
    model = train_surrogate(table, family, args.restarts, seed=args.seed)
    files = sorted(f"gp_{name}.json" for name in model.models)
    return Stage([str(args.table)], lambda out: save_surrogate(out, model),
                 {"family": family.value, "targets": files},
                 f"trained {family.value} surrogate ({len(files)} GP models) into {Path(args.out)}")


def cmd_eval(args: argparse.Namespace) -> Stage:
    from searesponse.surrogate import evaluate_surrogate, load_surrogate

    table = load_training_table(args.table)
    model = load_surrogate(args.bundle)
    evals = evaluate_surrogate(model, table, include_noise=args.include_noise)
    without_fits = int((table.test & ~table.usable(model.family)).sum())
    if without_fits:
        logger.warning("%s: %d test rows have no %s fits and are left out of the evaluation",
                       args.table, without_fits, model.family.value)
    summary = {"family": model.family.value, "n_test": len(evals[0].true),
               "targets": {ev.target: {"rmse": ev.rmse, "coverage95": ev.coverage95}
                           for ev in evals}}

    def write(out: Path) -> list[Path]:
        written = [out / f"eval_{ev.target}.csv" for ev in evals]
        for path, ev in zip(written, evals):
            write_csv(path, ("true", "pred_mean", "pred_std"),
                      zip(ev.true.tolist(), ev.pred_mean.tolist(), ev.pred_std.tolist()))
        written.append(out / "eval_summary.json")
        written[-1].write_text(json.dumps(summary, indent=2) + "\n")
        return written

    return Stage([str(args.table), str(args.bundle)], write,
                 {"summary": summary, "test_rows_without_fits": without_fits},
                 "\n".join(f"{model.family.value}/{ev.target}: rmse={ev.rmse:.6g} "
                           f"coverage95={ev.coverage95:.3f}" for ev in evals))


def cmd_qoi(args: argparse.Namespace) -> Stage:
    unread = ([("--bundle", args.bundle), ("--mode", args.mode)]
              if args.source == "simulator" else [("--sim-config", args.sim_config)])
    for flag, value in unread:
        if value:
            raise ConfigurationError(f"{flag} does not apply to --source {args.source}")
    weather = load_weather(args.weather)
    extra = {}
    if args.source == "simulator":
        model = _sim_config_from_args(args)
        inputs = [str(args.weather)] + ([str(args.sim_config)] if args.sim_config else [])
    else:
        if not args.bundle:
            raise ConfigurationError("--bundle is required for --source surrogate")
        from searesponse.surrogate import hours_outside_training_box, load_surrogate

        model = load_surrogate(args.bundle)
        inputs = [str(args.weather), str(args.bundle)]
        args.mode = args.mode or MODE_SAMPLE  # named in the manifest's config
        outside = hours_outside_training_box(model, weather.inputs)
        if outside:
            logger.warning("%s: %d of %d hours lie outside the training inputs' box of %s, "
                           "where the surrogate extrapolates",
                           args.weather, outside, len(weather), args.bundle)
        extra["hours_outside_training_box"] = outside
    cfg = QoiConfig(k=args.k, realizations=args.m, base_seed=args.seed,
                    mode=args.mode or MODE_SAMPLE)
    result = run_qoi(cfg, weather, model)
    return Stage(inputs, lambda out: save_qoi_result(out, result),
                 {"total_count": result.total_count,
                  "yk_mean": float(result.yk_samples.mean()),
                  "workers": result.workers, **extra},
                 f"Y_{args.k} over {len(weather)} hours x {args.m} realizations "
                 f"({args.source}): mean={result.yk_samples.mean():.6g}")


def cmd_compare(args: argparse.Namespace) -> Stage:
    a = load_qoi_result(args.candidate)
    b = load_qoi_result(args.reference)
    report = compare_qoi(a, b)
    payload = asdict(report)
    del payload["rank_in_band"]
    payload["format_version"] = FORMAT_VERSIONS["comparison_report"]

    def write(out: Path) -> list[Path]:
        written = [out / "report.json", out / "rank_comparison.csv",
                   out / "yk_samples_combined.csv"]
        written[0].write_text(json.dumps(payload, indent=2) + "\n")
        write_csv(written[1], ("rank", "a_mean", "a_p2.5", "a_p97.5",
                               "b_mean", "b_p2.5", "b_p97.5", "a_within_b_band"),
                  zip(range(1, report.k + 1),
                      *(x.tolist() for x in (a.rank_means, a.rank_p025, a.rank_p975,
                                             b.rank_means, b.rank_p025, b.rank_p975)),
                      report.rank_in_band.astype(int).tolist()))
        write_csv(written[2], ("source", "realization", "yk"),
                  [(label, m, value) for label, res in (("a", a), ("b", b))
                   for m, value in enumerate(res.yk_samples.tolist())])
        return written

    return Stage([str(args.candidate), str(args.reference)], write, {"report": payload},
                 f"relative mean difference: {report.relative_mean_difference:+.4%} "
                 f"({'conservative' if report.conservative else 'non-conservative'}); "
                 f"closest reference rank: {report.closest_rank}; "
                 f"band overlap: {report.band_overlap_fraction:.1%}")


def _add_box_flags(parser: argparse.ArgumentParser) -> None:
    for name, unit in (("hs", "m"), ("tp", "s"), ("vw", "m/s")):
        parser.add_argument(f"--box-{name}", nargs=2, type=float, metavar=("MIN", "MAX"),
                            help=f"bounds for {name} [{unit}]")


def _u64(text: str) -> int:
    try:
        value = int(text)
    except ValueError:
        raise argparse.ArgumentTypeError(f"not an integer: {text!r}") from None
    if not 0 <= value < 1 << 64:
        raise argparse.ArgumentTypeError(f"must be in [0, 2^64), got {value}")
    return value


def _add_common(parser: argparse.ArgumentParser, *, seed: bool = True) -> None:
    parser.add_argument("--out", required=True, help="output directory (created fresh)")
    parser.add_argument("--force", action="store_true",
                        help="overwrite a non-empty output directory that holds the "
                             "manifest.json of an earlier searesponse run")
    if seed:
        parser.add_argument("--seed", type=_u64, required=True, help="base RNG seed (u64)")


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="searesponse",
        description="Order statistics of marine structural responses: "
                    "stochastic simulation vs. GP surrogate generation.",
    )
    parser.add_argument("--version", action="version", version=f"%(prog)s {__version__}")
    sub = parser.add_subparsers(dest="command", required=True)

    p_weather = sub.add_parser("weather", help="generate or ingest hourly weather")
    wsub = p_weather.add_subparsers(dest="weather_mode", required=True)
    p_synth = wsub.add_parser("synth", help="synthesize a correlated hourly sequence")
    p_synth.add_argument("--hours", type=int, required=True, help="number of hourly records")
    _add_box_flags(p_synth)
    _add_common(p_synth)
    p_synth.set_defaults(func=cmd_weather)
    p_load = wsub.add_parser("load", help="validate a weather CSV and re-emit it canonically")
    p_load.add_argument("--path", required=True, help="weather CSV path")
    _add_common(p_load, seed=False)
    p_load.set_defaults(func=cmd_weather)

    p_trainset = sub.add_parser("trainset", help="build the surrogate training table")
    p_trainset.add_argument("--n", type=int, required=True, help="number of design points")
    p_trainset.add_argument("--m", type=int, required=True, help="simulator runs per point")
    p_trainset.add_argument("--sim-config", help="simulator configuration JSON")
    _add_box_flags(p_trainset)
    _add_common(p_trainset)
    p_trainset.set_defaults(func=cmd_trainset)

    p_train = sub.add_parser("train", help="train a surrogate bundle from a table")
    p_train.add_argument("--table", required=True, help="training table CSV")
    p_train.add_argument("--family", required=True, choices=[f.value for f in DistFamily])
    p_train.add_argument("--restarts", type=int, default=5,
                         help="hyperparameter search restarts (default 5)")
    _add_common(p_train)
    p_train.set_defaults(func=cmd_train)

    p_eval = sub.add_parser("eval", help="hold-out evaluation of a surrogate bundle")
    p_eval.add_argument("--table", required=True, help="training table CSV (uses the test split)")
    p_eval.add_argument("--bundle", required=True, help="surrogate bundle directory")
    p_eval.add_argument("--include-noise", action="store_true",
                        help="add mean observation noise to predictive intervals")
    _add_common(p_eval, seed=False)
    p_eval.set_defaults(func=cmd_eval)

    p_qoi = sub.add_parser("qoi", help="estimate Y_k over a weather sequence")
    p_qoi.add_argument("--source", required=True, choices=["simulator", "surrogate"])
    p_qoi.add_argument("--weather", required=True,
                       help="weather CSV, e.g. the output of weather synth or weather load")
    p_qoi.add_argument("--k", type=int, default=100, help="order statistic rank (default 100)")
    p_qoi.add_argument("--m", type=int, required=True, help="number of realizations")
    p_qoi.add_argument("--sim-config", help="simulator configuration JSON")
    p_qoi.add_argument("--bundle", help="surrogate bundle directory (surrogate source)")
    p_qoi.add_argument("--mode", choices=MODES,
                       help="surrogate parameters: the GP means (point), a draw per hour "
                            "(sample, the default) or one shift per realization (frozen)")
    _add_common(p_qoi)
    p_qoi.set_defaults(func=cmd_qoi)

    p_compare = sub.add_parser("compare", help="compare a candidate Y_k run against a reference")
    p_compare.add_argument("candidate", help="candidate qoi output directory (e.g. surrogate)")
    p_compare.add_argument("reference", help="reference qoi output directory (e.g. simulator)")
    _add_common(p_compare, seed=False)
    p_compare.set_defaults(func=cmd_compare)
    return parser


def main(argv: list[str] | None = None) -> int:
    level = os.environ.get("SEARESPONSE_LOGLEVEL", "WARNING")
    if not isinstance(logging.getLevelName(level), int):
        print(f"error: SEARESPONSE_LOGLEVEL must name a logging level "
              f"(DEBUG, INFO, WARNING, ERROR or CRITICAL), got {level!r}", file=sys.stderr)
        return EXIT_USAGE
    logging.basicConfig(level=level, format="%(levelname)s %(name)s: %(message)s")
    parser = build_parser()
    args = parser.parse_args(argv)
    args._t0 = time.monotonic()
    args._started = time.time()
    try:
        return _run_stage(args)
    except ConfigurationError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    except DataError as exc:
        print(f"data error: {exc}", file=sys.stderr)
        return EXIT_DATA
    except NumericError as exc:
        print(f"numeric error: {exc}", file=sys.stderr)
        return EXIT_NUMERIC
    except (OSError, UnicodeDecodeError) as exc:
        print(f"data error: {exc}", file=sys.stderr)
        return EXIT_DATA


if __name__ == "__main__":
    sys.exit(main())
