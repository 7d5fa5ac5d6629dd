"""Record the correctness reference of the ``datasets`` workload.

Run from the repository root, on the commit whose outputs are trusted:

    PYTHONPATH=src python3 perfbench/make_reference.py

It writes ``perfbench/reference/datasets.json``: for every body invocation
its header, row count, a fixed sample of rows and per-column sums and NaN
positions. The benchmark compares each run against it within a relative
tolerance, so a change that reorders floating-point work still passes while
a change of the numbers does not.
"""

from __future__ import annotations

import json
import os
import shutil
import sys
import tempfile

import child


def main() -> int:
    from openqnet import cli

    tmp = tempfile.mkdtemp(prefix="perfbench-ref-", dir=os.getcwd())
    try:
        reference = {}
        for key, argv, path in child.datasets_argv(tmp):
            code = cli.main(argv)
            if code != 0:
                print(f"{key}: exit {code}", file=sys.stderr)
                return 1
            reference[key] = child.summarize_csv(path)
    finally:
        shutil.rmtree(tmp)
    os.makedirs(os.path.dirname(child.REFERENCE), exist_ok=True)
    with open(child.REFERENCE, "w", encoding="ascii") as handle:
        json.dump(reference, handle, separators=(",", ":"))
        handle.write("\n")
    print(f"wrote {child.REFERENCE}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
