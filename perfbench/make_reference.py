"""Regenerate reference.json: r_total of fixed markets for each workload.

    python3 perfbench/make_reference.py

The benchmark compares its own solves of these markets against the
file within 1e-9 relative, so a change that moves results beyond that
tolerance shows as `correct: false`. Regenerate only when a change to
the results is intended, and say so in the change.
"""

import json
import os
import shutil
import sys
import tempfile

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path.insert(0, os.path.join(ROOT, "src"))

from workloads import REFERENCE_FILE, WORKLOADS  # noqa: E402


def main() -> None:
    workdir = tempfile.mkdtemp(prefix=".perfbench-", dir=ROOT)
    try:
        table = {
            w.name: w.make_reference(workdir) for w in WORKLOADS.values()
        }
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    with open(REFERENCE_FILE, "w", encoding="utf-8") as fh:
        json.dump(table, fh, indent=1, sort_keys=True)
        fh.write("\n")


if __name__ == "__main__":
    main()
