"""Regenerate the reference outputs that validate.py compares against.

    python3 perfbench/make_reference.py

Writes the seed-independent `full-report` artifacts at the default
configuration to reference/full-report/. Run it only on a commit whose
results are trusted; the benchmark's correctness gate is only as good as
this data.
"""
import os
import shutil
import subprocess
import sys
import tempfile
from pathlib import Path

import validate

BENCH = Path(__file__).resolve().parent
SRC = BENCH.parent / "src"


def main():
    out = BENCH / "reference" / "full-report"
    out.mkdir(parents=True, exist_ok=True)
    with tempfile.TemporaryDirectory() as tmp:
        subprocess.run([sys.executable, "-m", "weissbench.cli", "full-report",
                        "--output-dir", tmp], check=True,
                       env=dict(os.environ, PYTHONPATH=str(SRC)))
        for name in validate.REFERENCE_ARTIFACTS:
            shutil.copyfile(os.path.join(tmp, name + ".csv"),
                            out / (name + ".csv"))


if __name__ == "__main__":
    main()
