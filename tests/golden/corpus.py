"""The golden report corpus: its ops, how an op is run, and how two runs compare.

Each op is one ``hartogs`` command line. Its record under ``records/<op>/``
holds the exit code, the stdout and the report the command wrote: a
``report.json`` or ``report.csv`` file, or a ``report/`` directory for a
block dump. ``update.py`` rewrites the records; ``test_golden.py`` checks the
current code against them.

By default records compare canonically: exit codes, strings, integers and
booleans exactly, floats to a relative 1e-12 (platforms may differ in the
last bit). With ``HARTOGS_GOLDEN_EXACT=1`` every file must match byte for
byte.
"""

from __future__ import annotations

import contextlib
import io
import json
import math
import os
import re
from pathlib import Path

import hartogs.cli

HERE = Path(__file__).resolve().parent
CONFIGS = HERE / "configs"
RECORDS = HERE / "records"

EXACT = os.environ.get("HARTOGS_GOLDEN_EXACT") == "1"
FLOAT_RTOL = 1e-12

# One op per command shape of the benchmark workloads, plus the resolvability
# sweeps whose ranks depend on the PSD/rank rule. ``--config NAME`` names a
# file in configs/; ``--out`` is added when the op runs.
OPS = {
    "diastasis-poly_1_2-T24": ["diastasis", "--config", "poly_1_2", "--truncation", "24"],
    "diastasis-ball3_c2-T11": ["diastasis", "--config", "ball3_c2", "--truncation", "11"],
    "diastasis-ball3_c2-T30": ["diastasis", "--config", "ball3_c2", "--truncation", "30",
                               "--h", "2.7"],
    "diastasis-poly_half_1-T16": ["diastasis", "--config", "poly_half_1", "--truncation", "16",
                                  "--h", "0.1,1.5,2.7"],
    "diastasis-ball2_c2-T10": ["diastasis", "--config", "ball2_c2", "--truncation", "10"],
    "diastasis-cartan_1x3-T8": ["diastasis", "--config", "cartan_1x3", "--truncation", "8",
                                "--h", "0.5,2"],
    "diastasis-disc_half-T30": ["diastasis", "--config", "disc_half", "--truncation", "30",
                                "--h", "0.5,1,1.5"],
    "diastasis-poly_1_2-T200": ["diastasis", "--config", "poly_1_2", "--truncation", "200",
                                "--h", "0.5,1,2.7"],
    "diastasis-fock2_c2-T60": ["diastasis", "--config", "fock2_c2", "--truncation", "60",
                               "--h", "0.5,1.5"],
    "diastasis-disc_1-T1000": ["diastasis", "--config", "disc_1", "--truncation", "1000"],
    "diastasis-csv-ball3_c2-T4": ["diastasis", "--config", "ball3_c2", "--truncation", "4",
                                  "--format", "csv"],
    "immersion-CH-fock2_c2": ["immersion", "--config", "fock2_c2", "--target", "CH",
                              "--h", "1.5", "--truncation", "16"],
    "immersion-CH-disc_1-above-one": ["immersion", "--config", "disc_1", "--target", "CH",
                                      "--h", "1.0000000000000002", "--truncation", "4"],
    "immersion-CP-poly_1_2": ["immersion", "--config", "poly_1_2", "--target", "CP",
                              "--h", "0.5,1,2", "--truncation", "12"],
    "curvature-disc_2": ["curvature", "--config", "disc_2", "--samples", "20", "--seed", "7"],
    "curvature-csv-poly_half_1": ["curvature", "--config", "poly_half_1", "--samples", "20",
                                  "--seed", "8", "--format", "csv"],
    "check-einstein-ball2_c2": ["check-einstein", "--config", "ball2_c2", "--samples", "10",
                                "--seed", "9"],
    "check-extremal-poly_1_2": ["check-extremal", "--config", "poly_1_2", "--samples", "10",
                                "--seed", "10"],
    "report-disc_half": ["report", "--config", "disc_half", "--samples", "10", "--seed", "11",
                         "--truncation", "6", "--h", "0.5,1,1.5"],
    "fixtures": ["fixtures", "--seed", "42"],
}


def _report_name(argv: list[str]) -> str:
    if "csv" in argv:
        return "report" if argv[0] == "diastasis" else "report.csv"
    return "report.json"


def run_op(name: str, workdir: Path) -> dict[str, bytes]:
    """Run one op in process; returns its record as {relative path: bytes}.

    stderr is not recorded: ``fixtures`` prints wall times there.
    """
    argv = list(OPS[name])
    if "--config" in argv:
        at = argv.index("--config") + 1
        argv[at] = str(CONFIGS / f"{argv[at]}.cfg")
    report = _report_name(argv)
    out = workdir / name / report
    out.parent.mkdir(parents=True)
    stdout = io.StringIO()
    with contextlib.redirect_stdout(stdout), contextlib.redirect_stderr(io.StringIO()):
        code = hartogs.cli.main(argv + ["--out", str(out)])
    record = {"exit": f"{code}\n".encode(), "stdout.txt": stdout.getvalue().encode()}
    if out.is_dir():
        for f in sorted(out.iterdir()):
            record[f"{report}/{f.name}"] = f.read_bytes()
    elif out.exists():
        record[report] = out.read_bytes()
    return record


def read_record(name: str) -> dict[str, bytes]:
    root = RECORDS / name
    return {
        f.relative_to(root).as_posix(): f.read_bytes()
        for f in sorted(root.rglob("*"))
        if f.is_file()
    }


def write_record(name: str, record: dict[str, bytes]) -> None:
    root = RECORDS / name
    for rel, data in record.items():
        path = root / rel
        path.parent.mkdir(parents=True, exist_ok=True)
        path.write_bytes(data)


# ---------------------------------------------------------------------------
# Canonical comparison
# ---------------------------------------------------------------------------

_NUMBER = re.compile(r"[-+]?(?:\d+\.\d*(?:[eE][-+]?\d+)?|\d+[eE][-+]?\d+|\d+|nan|inf)")


def _same_float(a: float, b: float) -> bool:
    if math.isnan(a) or math.isnan(b):
        return math.isnan(a) and math.isnan(b)
    return a == b or abs(a - b) <= FLOAT_RTOL * max(abs(a), abs(b))


def _text_diff(old: str, new: str) -> str | None:
    """Texts compare equal token by token: integers and words exactly,
    decimals to FLOAT_RTOL."""
    old_parts, new_parts = _NUMBER.split(old), _NUMBER.split(new)
    old_nums, new_nums = _NUMBER.findall(old), _NUMBER.findall(new)
    if old_parts != new_parts or len(old_nums) != len(new_nums):
        return "text differs outside its numbers"
    for a, b in zip(old_nums, new_nums):
        is_int = a.lstrip("+-").isdigit()
        if is_int != b.lstrip("+-").isdigit():
            return f"number {a} became {b}"
        if (a != b) if is_int else not _same_float(float(a), float(b)):
            return f"number {a} became {b}"
    return None


def _json_diff(old, new, where="$") -> str | None:
    if type(old) is not type(new):
        return f"{where}: {old!r} became {new!r}"
    if isinstance(old, dict):
        if old.keys() != new.keys():
            return f"{where}: keys {sorted(old)} became {sorted(new)}"
        for key in old:
            diff = _json_diff(old[key], new[key], f"{where}.{key}")
            if diff:
                return diff
        return None
    if isinstance(old, list):
        if len(old) != len(new):
            return f"{where}: length {len(old)} became {len(new)}"
        for k, (a, b) in enumerate(zip(old, new)):
            diff = _json_diff(a, b, f"{where}[{k}]")
            if diff:
                return diff
        return None
    if isinstance(old, float):
        return None if _same_float(old, new) else f"{where}: {old!r} became {new!r}"
    return None if old == new else f"{where}: {old!r} became {new!r}"


def record_diff(old: dict[str, bytes], new: dict[str, bytes]) -> str | None:
    """None when two records agree, else the first difference found."""
    if old.keys() != new.keys():
        return f"files {sorted(old)} became {sorted(new)}"
    for rel in old:
        if EXACT or rel == "exit":
            diff = None if old[rel] == new[rel] else "bytes differ"
        elif rel.endswith(".json"):
            diff = _json_diff(json.loads(old[rel]), json.loads(new[rel]))
        else:
            diff = _text_diff(old[rel].decode(), new[rel].decode())
        if diff:
            return f"{rel}: {diff}"
    return None
