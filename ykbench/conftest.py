"""Import path for the benchmark's own tests: run them from the repository
root with `python3 -m pytest ykbench`."""

import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path[:0] = [str(HERE), str(HERE.parent / "src")]
