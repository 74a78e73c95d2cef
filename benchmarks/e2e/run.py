"""Script form of ``python -m benchmarks.e2e run``.

``python3 benchmarks/e2e/run.py --workload W --seed S --seconds N
--trace 0|1`` from the repository root; the arguments are those of the
``run`` subcommand.
"""

import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[2]
sys.path[:0] = [str(ROOT / "src"), str(ROOT)]

from benchmarks.e2e.cli import main  # noqa: E402

sys.exit(main(["run", *sys.argv[1:]]))
