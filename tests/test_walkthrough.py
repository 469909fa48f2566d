"""The CLI walkthrough script, run end to end."""

import os
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def test_walkthrough_exits_zero(tmp_path):
    # bash -x traces each command on stderr, so the last traced line names
    # the command that failed.
    env = dict(os.environ, TMPDIR=str(tmp_path), OPENBLAS_NUM_THREADS="1",
               PATH=os.pathsep.join([str(Path(sys.executable).parent), os.environ.get("PATH", "")]))
    proc = subprocess.run(["bash", "-x", str(ROOT / "tests" / "walkthrough.sh")], cwd=ROOT,
                          env=env, capture_output=True, text=True)
    traced = [line for line in proc.stderr.splitlines() if line.startswith("+")]
    assert proc.returncode == 0, (
        f"walkthrough exited {proc.returncode} at: {traced[-1] if traced else '(no command)'}\n"
        + "\n".join(proc.stderr.splitlines()[-30:]))
