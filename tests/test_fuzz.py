"""A seeded mutation fuzz of every file the CLI reads.

Builds criterion 8's files once (200 h of weather, the simulator config, a
25 x 3 training table, a Rayleigh bundle, and simulator and surrogate qoi
results), then, for a fixed budget of cases, mutates one file and runs in
process every `cli.main` command that reads it. Each run must end with an
exit code in {0, 2, 3, 4}, raise nothing, and, when it fails, leave no
output directory.

Mutations are byte flips, truncation, dropped or doubled lines, and a token
swapped for one of TOKENS. None asks for a huge allocation: a token past
float range reads as non-finite, and one bit flip turns a digit into
another digit at most, which leaves the config's grid within a few times
its size. Case i draws everything from `random.Random(f"{SEED}/{i}")`, so a
failure names the seed string that replays it.
"""

import random
import re
import shutil
import traceback

import pytest

from searesponse import cli
from searesponse.simulator import write_sim_config

SEED = 1
CASES = 500
TOKENS = ("nan", "1e309", "5e-324", "9" * 400, "true", "null", '""')
EXIT_CODES = {cli.EXIT_OK, cli.EXIT_USAGE, cli.EXIT_DATA, cli.EXIT_NUMERIC}


def _flip(data, rng):
    i = rng.randrange(len(data))
    bit = 1 << rng.randrange(8)
    return data[:i] + bytes([data[i] ^ bit]) + data[i + 1:], f"flip bit {bit:#04x} of byte {i}"


def _truncate(data, rng):
    i = rng.randrange(len(data))
    return data[:i], f"truncate at byte {i}"


def _drop_line(data, rng):
    lines = data.splitlines(keepends=True)
    i = rng.randrange(len(lines))
    return b"".join(lines[:i] + lines[i + 1:]), f"drop line {i + 1}"


def _double_line(data, rng):
    lines = data.splitlines(keepends=True)
    i = rng.randrange(len(lines))
    return b"".join(lines[:i + 1] + lines[i:]), f"double line {i + 1}"


def _swap_token(data, rng):
    match = rng.choice(list(re.finditer(rb"[\w.+-]+", data)))
    token = rng.choice(TOKENS)
    shown = "a 400-digit integer" if len(token) == 400 else token
    return (data[:match.start()] + token.encode() + data[match.end():],
            f"swap {match.group().decode()!r} at byte {match.start()} for {shown}")


MUTATIONS = (_flip, _truncate, _drop_line, _double_line, _swap_token)


@pytest.fixture(scope="module")
def pipeline(tmp_path_factory, fast_sim_config):
    """Criterion 8's input files, and the commands that read each one."""
    root = tmp_path_factory.mktemp("fuzz")
    config = root / "sim.json"
    write_sim_config(config, fast_sim_config)
    weather, table, bundle = root / "weather", root / "trainset", root / "bundle"
    sim_qoi, sur_qoi = root / "qoi_simulator", root / "qoi_surrogate"
    qoi = ["--weather", weather / "weather.csv", "--k", "10", "--m", "3", "--seed", "45"]
    qoi_sim = ["qoi", "--source", "simulator", *qoi, "--sim-config", config]
    qoi_sur = ["qoi", "--source", "surrogate", *qoi, "--bundle", bundle]
    train = ["train", "--table", table / "training_table.csv", "--family", "rayleigh",
             "--restarts", "2", "--seed", "44"]
    trainset = ["trainset", "--n", "25", "--m", "3", "--seed", "43", "--sim-config", config]
    evaluate = ["eval", "--table", table / "training_table.csv", "--bundle", bundle]
    compare = ["compare", sur_qoi, sim_qoi]
    for argv, out in ((["weather", "synth", "--hours", "200", "--seed", "42"], weather),
                      (trainset, table), (train, bundle), (qoi_sim, sim_qoi), (qoi_sur, sur_qoi)):
        assert cli.main([*map(str, argv), "--out", str(out)]) == 0
    readers = {
        weather / "weather.csv": [["weather", "load", "--path", weather / "weather.csv"],
                                  qoi_sur, qoi_sim],
        config: [trainset, qoi_sim],
        table / "training_table.csv": [train, evaluate],
        **{bundle / name: [qoi_sur, evaluate]
           for name in ("bundle.json", "gp_sigma.json", "gp_l_count.json")},
        **{run / name: [compare]
           for run in (sim_qoi, sur_qoi)
           for name in ("summary.json", "yk_samples.csv", "rank_summary.csv")},
    }
    return root, {path: [[*map(str, argv)] for argv in argvs] for path, argvs in readers.items()}


def test_mutated_inputs_end_in_a_documented_exit_code(pipeline, capsys):
    root, readers = pipeline
    paths = sorted(readers)
    failures = []
    for case in range(CASES):
        seed = f"{SEED}/{case}"
        rng = random.Random(seed)
        path = rng.choice(paths)
        original = path.read_bytes()
        data, mutation = rng.choice(MUTATIONS)(original, rng)
        path.write_bytes(data)
        try:
            for j, argv in enumerate(readers[path]):
                out = root / "out" / f"{case}-{j}"
                command = " ".join(argv[:3]) if argv[0] == "qoi" else argv[0]
                where = f"seed {seed}, {path.relative_to(root)}: {mutation}; {command}"
                try:
                    code = cli.main([*argv, "--out", str(out)])
                except (Exception, SystemExit) as exc:  # anything that escapes is a finding
                    failures.append(f"{where} raised {traceback.format_exception_only(exc)[-1]}")
                    continue
                if code not in EXIT_CODES:
                    failures.append(f"{where} exited {code}")
                elif code != cli.EXIT_OK and out.exists():
                    failures.append(f"{where} exited {code} and left {out.name}")
                shutil.rmtree(out, ignore_errors=True)
        finally:
            path.write_bytes(original)
        capsys.readouterr()
    assert not failures, f"{len(failures)} failing runs:\n" + "\n".join(failures[:20])
