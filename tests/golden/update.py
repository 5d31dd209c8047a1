"""Regenerate the golden report corpus from the current code.

    PYTHONPATH=src python tests/golden/update.py          # every op
    PYTHONPATH=src python tests/golden/update.py fixtures # named ops only

Every record is rewritten from scratch, so ``git diff tests/golden`` shows
exactly which reported values a change moved.
"""

import shutil
import sys
import tempfile
from pathlib import Path

from corpus import OPS, RECORDS, run_op, write_record


def main(names: list[str]) -> int:
    unknown = sorted(set(names) - set(OPS))
    if unknown:
        print(f"unknown ops: {', '.join(unknown)}", file=sys.stderr)
        return 1
    with tempfile.TemporaryDirectory() as tmp:
        for name in names or OPS:
            record = run_op(name, Path(tmp))
            shutil.rmtree(RECORDS / name, ignore_errors=True)
            write_record(name, record)
            print(f"{name}: exit {record['exit'].decode().strip()}")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
